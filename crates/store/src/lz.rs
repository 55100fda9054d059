//! A small deterministic LZ77 codec (LZSS token stream).
//!
//! Block payloads are small and repetitive in a byte-aligned way —
//! columnar trace blocks (runs of equal shape, round and exponent bytes,
//! timestamps that repeat whole), JSON metrics snapshots, the JSONL text
//! of older trace stores — so a greedy byte-oriented matcher with a
//! 64 KiB window compresses them several-fold at negligible cost — and,
//! unlike a general-purpose dependency, stays inside the
//! hermetic-workspace rule.
//!
//! ## Token stream
//!
//! The stream is groups of up to eight items behind one control byte:
//! bit `i` (LSB first) set means item `i` is a **literal** (one raw
//! byte); clear means a **match** of three bytes — `distance` as
//! `u16` LE (`1..=65535` back from the write head) and `length −
//! MIN_MATCH` as `u8` (`4..=259` bytes, overlapping copies allowed).
//! Decoding stops when exactly `raw_len` bytes have been produced; the
//! caller persists `raw_len` out of band (the block footer entry).

/// Shortest emitted match; shorter repeats cost less as literals.
const MIN_MATCH: usize = 4;
/// Longest emitted match (`MIN_MATCH + u8::MAX`).
const MAX_MATCH: usize = MIN_MATCH + u8::MAX as usize;
/// Match window: how far back a distance can reach (`u16` LE).
const WINDOW: usize = u16::MAX as usize;
/// Size of the last-position hash table (power of two).
const HASH_SLOTS: usize = 1 << 15;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let key = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (key.wrapping_mul(0x9E37_79B1) >> (32 - 15)) as usize & (HASH_SLOTS - 1)
}

/// Compresses `raw` into an LZSS token stream. Deterministic: the same
/// input always yields the same output.
#[must_use]
pub fn compress(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 2 + 16);
    // Last position (+1, 0 = empty) of each 4-byte key.
    let mut table = vec![0u32; HASH_SLOTS];
    let mut pos = 0usize;
    // Current control group: index into `out`, items filled so far.
    let mut ctrl_at = usize::MAX;
    let mut ctrl_bits = 0u8;
    let mut ctrl_n = 0u8;

    macro_rules! begin_item {
        ($is_literal:expr) => {
            if ctrl_n == 8 || ctrl_at == usize::MAX {
                ctrl_at = out.len();
                out.push(0);
                ctrl_bits = 0;
                ctrl_n = 0;
            }
            if $is_literal {
                ctrl_bits |= 1 << ctrl_n;
            }
            ctrl_n += 1;
            out[ctrl_at] = ctrl_bits;
        };
    }

    while pos < raw.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if pos + MIN_MATCH <= raw.len() {
            let slot = hash4(&raw[pos..]);
            let cand = table[slot] as usize;
            table[slot] = (pos + 1) as u32;
            if cand > 0 {
                let cand = cand - 1;
                let dist = pos - cand;
                if (1..=WINDOW).contains(&dist) {
                    let limit = (raw.len() - pos).min(MAX_MATCH);
                    let mut len = 0usize;
                    while len < limit && raw[cand + len] == raw[pos + len] {
                        len += 1;
                    }
                    if len >= MIN_MATCH {
                        best_len = len;
                        best_dist = dist;
                    }
                }
            }
        }
        if best_len >= MIN_MATCH {
            begin_item!(false);
            out.extend_from_slice(&(best_dist as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            // Seed the table across the matched span so later repeats of
            // its interior still find a candidate.
            let end = pos + best_len;
            pos += 1;
            while pos < end {
                if pos + MIN_MATCH <= raw.len() {
                    table[hash4(&raw[pos..])] = (pos + 1) as u32;
                }
                pos += 1;
            }
        } else {
            begin_item!(true);
            out.push(raw[pos]);
            pos += 1;
        }
    }
    out
}

fn corrupt(what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("lz: corrupt stream ({what})"),
    )
}

/// Decompresses a [`compress`] stream back into exactly `raw_len`
/// bytes.
///
/// `raw_len` comes from a footer on disk, so it is checked against what
/// `comp` can expand to before anything is reserved for it: the densest
/// item is a three-byte match token yielding [`MAX_MATCH`] bytes.
///
/// # Errors
/// Returns `InvalidData` when `raw_len` is more than the stream could
/// produce, the stream is truncated, overruns `raw_len`, or a match
/// reaches before the start of the output.
pub fn decompress(comp: &[u8], raw_len: usize) -> std::io::Result<Vec<u8>> {
    if raw_len > (comp.len() / 3 + 1).saturating_mul(MAX_MATCH) {
        return Err(corrupt("raw length exceeds what the stream can expand to"));
    }
    let mut out = Vec::with_capacity(raw_len);
    let mut pos = 0usize;
    while out.len() < raw_len {
        let ctrl = *comp.get(pos).ok_or_else(|| corrupt("missing control"))?;
        pos += 1;
        for bit in 0..8 {
            if out.len() == raw_len {
                break;
            }
            if ctrl & (1 << bit) != 0 {
                let b = *comp.get(pos).ok_or_else(|| corrupt("missing literal"))?;
                pos += 1;
                out.push(b);
            } else {
                if pos + 3 > comp.len() {
                    return Err(corrupt("missing match token"));
                }
                let dist = u16::from_le_bytes([comp[pos], comp[pos + 1]]) as usize;
                let len = comp[pos + 2] as usize + MIN_MATCH;
                pos += 3;
                if dist == 0 || dist > out.len() {
                    return Err(corrupt("match before start"));
                }
                if out.len() + len > raw_len {
                    return Err(corrupt("match overruns raw length"));
                }
                let start = out.len() - dist;
                // Byte-by-byte: overlapping matches copy their own output.
                for i in 0..len {
                    out.push(out[start + i]);
                }
            }
        }
    }
    if pos != comp.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofl_compat::check::{forall, u64_in, usize_in, vec_in};

    fn round_trip(raw: &[u8]) -> Vec<u8> {
        let comp = compress(raw);
        decompress(&comp, raw.len()).expect("decompress")
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(round_trip(b""), b"");
        assert_eq!(round_trip(b"a"), b"a");
        assert_eq!(round_trip(b"abc"), b"abc");
    }

    #[test]
    fn repetitive_text_compresses() {
        let raw: Vec<u8> = br#"{"Span":{"domain":"Pipeline","kind":"Forward"}}"#
            .iter()
            .copied()
            .cycle()
            .take(20_000)
            .collect();
        let comp = compress(&raw);
        assert!(
            comp.len() * 4 < raw.len(),
            "jsonl-like input should compress >4x, got {} -> {}",
            raw.len(),
            comp.len()
        );
        assert_eq!(decompress(&comp, raw.len()).expect("decompress"), raw);
    }

    #[test]
    fn overlapping_match_round_trips() {
        // "aaaa..." forces distance-1 matches that copy their own output.
        let raw = vec![b'a'; 1000];
        assert_eq!(round_trip(&raw), raw);
    }

    #[test]
    fn random_bytes_round_trip() {
        forall(
            "lz_round_trips_random_bytes",
            64,
            &vec_in(u64_in(0, 256), 1, 2000),
            |bytes| {
                let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
                assert_eq!(round_trip(&raw), raw);
            },
        );
    }

    #[test]
    fn low_entropy_round_trips() {
        // Few distinct symbols maximize matching pressure.
        forall(
            "lz_round_trips_low_entropy",
            64,
            &vec_in(usize_in(0, 3), 1, 4000),
            |symbols| {
                let raw: Vec<u8> = symbols.iter().map(|&s| b"xyz"[s]).collect();
                assert_eq!(round_trip(&raw), raw);
            },
        );
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let raw = vec![b'q'; 500];
        let comp = compress(&raw);
        assert!(decompress(&comp[..comp.len() - 1], raw.len()).is_err());
        assert!(decompress(&comp, raw.len() + 1).is_err());
    }

    #[test]
    fn raw_len_is_bounded_by_the_stream_before_reserving() {
        // A bit-flipped footer can claim any length; the answer is a
        // typed error, not a capacity-overflow panic or a 4 GiB reserve.
        for raw_len in [1, 1 << 32, usize::MAX] {
            let err = decompress(&[], raw_len).expect_err("nothing to expand");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
        let comp = compress(&[b'q'; 5000]);
        let err = decompress(&comp, usize::MAX).expect_err("implausible length");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The bound never rejects what `compress` wrote, however dense.
        assert!(comp.len() < 5000 / 70, "all matches: {} bytes", comp.len());
        assert_eq!(decompress(&comp, 5000).expect("decompress"), [b'q'; 5000]);
    }

    #[test]
    fn deterministic_output() {
        let raw: Vec<u8> = (0..5000u32).map(|i| (i % 97) as u8).collect();
        assert_eq!(compress(&raw), compress(&raw));
    }
}
