//! The LZSS compressor as `ecofl_store::lz::compress` ran it before the
//! word-wide matcher: matches extended one byte at a time, the table
//! seeded across a match with a bounds test per position, the control
//! byte rewritten after every item. Slow and plain, kept as the
//! reference the differential sweep holds `compress` to, byte for byte.
//! Included by `tests/cli.rs` at the workspace root as well, which holds
//! it to the real columnar blocks of every schedule.

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + u8::MAX as usize;
const WINDOW: usize = u16::MAX as usize;
const HASH_SLOTS: usize = 1 << 15;

fn hash4(bytes: &[u8]) -> usize {
    let key = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (key.wrapping_mul(0x9E37_79B1) >> (32 - 15)) as usize & (HASH_SLOTS - 1)
}

/// Greedy LZSS over a 64 KiB window with a last-position hash table of
/// 4-byte keys, emitting the stream `lz::decompress` reads.
pub fn bytewise_compress(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 2 + 16);
    let mut table = vec![0u32; HASH_SLOTS];
    let mut pos = 0usize;
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
