//! Differential sweep: `lz::compress` must write, byte for byte, the
//! token stream of the byte-at-a-time compressor in `oracle/` — on the
//! inputs its word-wide match loop, the loop's byte tail, the table
//! seeding and the window each treat apart, and on a seeded sweep of
//! random, low-entropy and record-shaped blocks past the 64 KiB window.
//! The real columnar blocks of every schedule are held to the oracle in
//! the workspace root's `tests/cli.rs`.

mod oracle;

use ecofl_compat::check::CheckRng;
use ecofl_store::lz;
use oracle::bytewise_compress;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + u8::MAX as usize;
const WINDOW: usize = u16::MAX as usize;

/// Asserts `compress` and the oracle agree on `raw`, and that the stream
/// decodes back to it; returns the stream.
fn same_bytes(raw: &[u8], what: &str) -> Vec<u8> {
    let comp = lz::compress(raw);
    let want = bytewise_compress(raw);
    assert!(
        comp == want,
        "{what}: {} raw bytes compress to {} bytes, the oracle to {}",
        raw.len(),
        comp.len(),
        want.len()
    );
    assert_eq!(
        lz::decompress(&comp, raw.len()).expect("decompress"),
        raw,
        "{what}"
    );
    comp
}

/// The `(distance, length)` of every match token in a stream of
/// `raw_len` bytes.
fn matches(comp: &[u8], raw_len: usize) -> Vec<(usize, usize)> {
    let (mut pos, mut produced, mut found) = (0, 0, Vec::new());
    while produced < raw_len {
        let ctrl = comp[pos];
        pos += 1;
        for bit in 0..8 {
            if produced == raw_len {
                break;
            }
            if ctrl & (1 << bit) != 0 {
                pos += 1;
                produced += 1;
            } else {
                let dist = usize::from(u16::from_le_bytes([comp[pos], comp[pos + 1]]));
                let len = usize::from(comp[pos + 2]) + MIN_MATCH;
                pos += 3;
                produced += len;
                found.push((dist, len));
            }
        }
    }
    found
}

fn random_bytes(rng: &mut CheckRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn empty_and_one_to_seven_byte_inputs() {
    same_bytes(&[], "empty");
    let mut rng = CheckRng::new(7);
    for n in 1..=7 {
        same_bytes(&random_bytes(&mut rng, n), &format!("{n} random bytes"));
        same_bytes(&vec![b'a'; n], &format!("{n} equal bytes"));
    }
}

#[test]
fn every_tail_after_a_long_match() {
    let mut rng = CheckRng::new(11);
    let phrase = random_bytes(&mut rng, 64);
    for tail in 0..8 {
        // The repeat runs to the end of the input: the word loop covers
        // what whole words fit and the byte loop the last `tail` bytes.
        let mut raw = phrase.clone();
        raw.extend_from_slice(&phrase[..56 + tail]);
        let comp = same_bytes(&raw, &format!("repeat ending the input, tail {tail}"));
        assert_eq!(matches(&comp, raw.len()), [(64, 56 + tail)]);

        // The repeat breaks inside a word, `tail` bytes past the last
        // whole one, and fresh bytes follow.
        let mut raw = phrase.clone();
        raw.extend_from_slice(&phrase[..40 + tail]);
        raw.push(phrase[40 + tail] ^ 0xFF);
        raw.extend(random_bytes(&mut rng, tail));
        let comp = same_bytes(&raw, &format!("repeat broken at word offset {tail}"));
        assert_eq!(matches(&comp, raw.len())[0], (64, 40 + tail));
    }
}

#[test]
fn matches_of_exactly_min_and_max_length() {
    // Four repeated bytes, then a byte that differs: the shortest match.
    let raw = b"wxyzABCDEFGHwxyz!IJKLMNOP".to_vec();
    let comp = same_bytes(&raw, "min match");
    assert_eq!(matches(&comp, raw.len()), [(12, MIN_MATCH)]);

    // A run longer than the cap: one literal, then capped matches.
    let raw = vec![b'q'; 1 + 2 * MAX_MATCH + 5];
    let comp = same_bytes(&raw, "max match run");
    assert_eq!(
        matches(&comp, raw.len()),
        [(1, MAX_MATCH), (1, MAX_MATCH), (1, 5)]
    );

    // A repeat of exactly the cap, then a break.
    let mut rng = CheckRng::new(13);
    let phrase = random_bytes(&mut rng, MAX_MATCH);
    let mut raw = phrase.clone();
    raw.extend_from_slice(&phrase);
    raw.push(phrase[0] ^ 0x55);
    let comp = same_bytes(&raw, "max match phrase");
    assert_eq!(matches(&comp, raw.len())[0], (MAX_MATCH, MAX_MATCH));
}

#[test]
fn inputs_longer_than_the_window() {
    let mut rng = CheckRng::new(17);
    // No zero byte, so the zero run between the copies ends where they do.
    let phrase: Vec<u8> = random_bytes(&mut rng, 32).iter().map(|b| b | 1).collect();
    for dist in [WINDOW - 32, WINDOW - 1, WINDOW, WINDOW + 1, WINDOW + 32] {
        // `phrase`, zeros, `phrase` again at `dist`: one match within
        // reach of the window, literals past it.
        let mut raw = phrase.clone();
        raw.resize(dist, 0);
        raw.extend_from_slice(&phrase);
        let comp = same_bytes(&raw, &format!("repeat at distance {dist}"));
        let reached = matches(&comp, raw.len()).contains(&(dist, 32));
        assert_eq!(reached, dist <= WINDOW, "distance {dist}");
    }
    let long = random_bytes(&mut rng, 3 * WINDOW);
    same_bytes(&long, "three windows of random bytes");
    let mut echoed = long[..WINDOW + 4000].to_vec();
    echoed.extend_from_slice(&long[..WINDOW + 4000]);
    same_bytes(&echoed, "a window and more, repeated");
}

/// One of four block shapes, `n` bytes long.
fn block(rng: &mut CheckRng, shape: u64, n: usize) -> Vec<u8> {
    match shape {
        // Uniform bytes: nearly every position is a literal.
        0 => random_bytes(rng, n),
        // Two to four symbols: matches everywhere, many of them short.
        1 => {
            let symbols = 2 + rng.below(3);
            (0..n).map(|_| b'a' + rng.below(symbols) as u8).collect()
        }
        // Fixed-width records whose fields change now and then, like
        // the float planes and tails of a columnar trace block.
        2 => {
            let width = 4 + rng.below(28) as usize;
            let mut record = random_bytes(rng, width);
            let mut raw = Vec::with_capacity(n);
            while raw.len() < n {
                if rng.below(4) == 0 {
                    let at = rng.below(width as u64) as usize;
                    record[at] = rng.next_u64() as u8;
                }
                raw.extend_from_slice(&record);
            }
            raw.truncate(n);
            raw
        }
        // Fresh runs and copies from anywhere behind, some out of reach.
        _ => {
            let mut raw = random_bytes(rng, 16.min(n));
            while raw.len() < n {
                let len = 1 + rng.below(300) as usize;
                if rng.below(2) == 0 {
                    let from = rng.below(raw.len() as u64) as usize;
                    for i in 0..len {
                        raw.push(raw[from + i]);
                    }
                } else {
                    raw.extend(random_bytes(rng, len));
                }
            }
            raw.truncate(n);
            raw
        }
    }
}

#[test]
fn seeded_sweep_matches_the_oracle() {
    let mut rng = CheckRng::new(0x1F1B);
    for case in 0..400 {
        // Mostly block-sized inputs, one in eight past two windows.
        let n = if case % 8 == 7 {
            WINDOW + rng.below(76_000) as usize
        } else {
            rng.below(24_000) as usize
        };
        let shape = case % 4;
        let raw = block(&mut rng, shape, n);
        same_bytes(&raw, &format!("case {case}: shape {shape}, {n} bytes"));
    }
}
