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

/// Table slot of the four bytes at `raw[at..]`.
#[inline]
fn slot_at(raw: &[u8], at: usize) -> usize {
    let key = u32::from_le_bytes(raw[at..at + 4].try_into().unwrap());
    (key.wrapping_mul(0x9E37_79B1) >> (32 - 15)) as usize & (HASH_SLOTS - 1)
}

#[inline]
fn word_at(raw: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(raw[at..at + 8].try_into().unwrap())
}

/// Length of the common prefix of `raw[cand..]` and `raw[pos..]`
/// (`cand < pos`), at most `limit` bytes: eight bytes per step while a
/// whole word fits, the first differing byte found from the XOR's
/// trailing zeros, then byte by byte.
#[inline]
fn match_len(raw: &[u8], cand: usize, pos: usize, limit: usize) -> usize {
    let mut len = 0;
    while len + 8 <= limit {
        let diff = word_at(raw, cand + len) ^ word_at(raw, pos + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && raw[cand + len] == raw[pos + len] {
        len += 1;
    }
    len
}

/// Compresses `raw` into an LZSS token stream. Deterministic: the same
/// input always yields the same output.
///
/// Greedy: at every position the one candidate the hash table holds for
/// the next four bytes is taken if it matches at least [`MIN_MATCH`]
/// bytes; every position a match covers is entered in the table. Table
/// entries are `u32`, so inputs must be under 4 GiB (the segment
/// footer's `raw_len` refuses larger blocks before they get here).
#[must_use]
pub fn compress(raw: &[u8]) -> Vec<u8> {
    let n = raw.len();
    // Worst case: every byte a literal, one control byte per eight.
    let mut out = Vec::with_capacity(n + n.div_ceil(8));
    // Last position (+1, 0 = empty) of each 4-byte key.
    let mut table = vec![0u32; HASH_SLOTS];
    // Positions with a whole key ahead of them; the rest are literals.
    let keyed = n.saturating_sub(MIN_MATCH - 1);
    let mut pos = 0usize;
    while pos < n {
        // One control group: up to eight items, its byte written once.
        let ctrl_at = out.len();
        out.push(0);
        let mut ctrl = 0u8;
        for bit in 0..8 {
            if pos == n {
                break;
            }
            if pos < keyed {
                let slot = slot_at(raw, pos);
                let cand = table[slot] as usize;
                table[slot] = (pos + 1) as u32;
                // `cand - 1 < pos`, so the distance is at least 1.
                if cand > 0 && pos + 1 - cand <= WINDOW {
                    let cand = cand - 1;
                    let len = match_len(raw, cand, pos, (n - pos).min(MAX_MATCH));
                    if len >= MIN_MATCH {
                        out.extend_from_slice(&((pos - cand) as u16).to_le_bytes());
                        out.push((len - MIN_MATCH) as u8);
                        // Seed the table across the matched span so later
                        // repeats of its interior still find a candidate.
                        let end = pos + len;
                        for p in pos + 1..end.min(keyed) {
                            table[slot_at(raw, p)] = (p + 1) as u32;
                        }
                        pos = end;
                        continue;
                    }
                }
            }
            ctrl |= 1 << bit;
            out.push(raw[pos]);
            pos += 1;
        }
        out[ctrl_at] = ctrl;
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
