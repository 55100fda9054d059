//! Wire buffers for the pipeline prototype — the `bytes` crate
//! replacement. [`BytesMut`] is a little-endian append buffer,
//! [`Bytes`] the frozen read cursor; exactly the surface
//! `pipeline::runtime`'s tensor codec uses.

/// An append-only byte buffer (the write half of the codec).
#[derive(Debug, Default, Clone)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer with reserved capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a `u64` in little-endian order.
    pub fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` in little-endian order.
    pub fn put_f32_le(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Freezes into an immutable, readable [`Bytes`].
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes {
            buf: self.buf,
            pos: 0,
        }
    }
}

/// An immutable byte buffer with a read cursor (the read half).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bytes {
    buf: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Bytes remaining to be read.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` if fully consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let end = self.pos + N;
        assert!(
            end <= self.buf.len(),
            "Bytes: read past end ({} of {})",
            end,
            self.buf.len()
        );
        let arr: [u8; N] = self.buf[self.pos..end].try_into().expect("length checked");
        self.pos = end;
        arr
    }

    /// Reads the next little-endian `u64`.
    ///
    /// # Panics
    /// Panics if fewer than 8 bytes remain.
    pub fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take::<8>())
    }

    /// Reads the next little-endian `f32`.
    ///
    /// # Panics
    /// Panics if fewer than 4 bytes remain.
    pub fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.take::<4>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trip() {
        let mut w = BytesMut::with_capacity(16);
        w.put_u64_le(u64::MAX - 3);
        w.put_f32_le(-1.5);
        let mut r = w.freeze();
        assert_eq!(r.len(), 12);
        assert_eq!(r.get_u64_le(), u64::MAX - 3);
        assert_eq!(r.get_f32_le(), -1.5);
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn overread_panics() {
        let mut w = BytesMut::with_capacity(4);
        w.put_f32_le(1.0);
        let _ = w.freeze().get_u64_le();
    }
}
