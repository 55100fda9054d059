//! The trace block codec: one block of [`TraceRecord`]s as typed columns.
//!
//! This is the only payload [`RunStore::append`](crate::RunStore::append)
//! writes and the first thing every read path tries; the segment layer
//! below sees bytes and LZ-compresses them as it always did.
//!
//! ## Layout
//!
//! | part | bytes | content |
//! |---|---|---|
//! | tag | 1 | [`TAG`] (`0xC1`), a byte no UTF-8 text can contain |
//! | version | 1 | [`VERSION`] |
//! | `n` | varint | record count |
//! | shape | `n` | per record: bits 0–1 span / event / counter / gauge, bits 2–3 `Domain`, bits 4–7 `SpanKind` / `EventKind` (all zero above bit 1 for counters and gauges) |
//! | entity | varint × (spans + events) | `entity`, in record order |
//! | round | varint × spans | `round` |
//! | micro | varint × spans | `micro` |
//! | names | varint `d`, then `d` × (varint length, UTF-8 bytes) | the block's counter / gauge names, in order of first use |
//! | name index | varint × (counters + gauges) | index into names |
//! | float planes | 4 × `n` | the two `f64` of each record (`t0,t1` / `time,value` / `time,delta`) are IEEE bit patterns; this part holds their two most significant bytes (sign, exponent, top of the mantissa) plane by plane: byte 7 of every first value, byte 6 of every first value, then the same two planes of the second values |
//! | float tails | 12 × `n` | the six low mantissa bytes, most significant first, of every first value, then of every second value |
//!
//! Varints are LEB128 over `u64`. The variant codes in the shape byte
//! are the tables next to the enums in `record.rs`.
//!
//! Floats are stored as bit patterns, never as text or deltas: virtual
//! times must survive bit-exactly (traces are compared byte for byte
//! across runs), and a payload value may be NaN, ±∞ or −0.0. The
//! sign/exponent bytes of 512 nearby timestamps are all but equal, so as
//! planes LZ turns them into a few long matches. The mantissa tails are
//! noise *unless a value repeats* — and a span usually starts at the
//! instant another ended — so each value's tail stays in one piece,
//! where LZ finds the repeat as a single six-byte match (a quarter off
//! the segment size against all-planes, on every pipeline schedule).
//!
//! ## Validation
//!
//! A block comes from a disk, so [`decode`] trusts nothing in it: the tag
//! and version, `n` against the payload length (a record costs at least
//! 17 bytes, so `n` is bounded *before* anything is reserved for it),
//! every shape byte's variant codes and unused bits, varints that
//! overflow `u64` / `usize` or run off the end, a dictionary larger than
//! the records naming into it, name lengths, UTF-8, every name index,
//! and exact consumption — the floats must end the payload. Every
//! failure is `InvalidData`; no allocation is sized by a header field
//! that the payload length has not already bounded.

use crate::record::{
    CounterRecord, Domain, EventKind, EventRecord, GaugeRecord, SpanKind, SpanRecord, TraceRecord,
};
use std::collections::HashMap;
use std::io;

/// First byte of a columnar block. `0xC1` never occurs in well-formed
/// UTF-8, so it cannot be confused with a legacy JSONL payload (which
/// starts with `{`).
pub(crate) const TAG: u8 = 0xC1;
/// Layout revision, bumped if the table in the module docs changes.
const VERSION: u8 = 1;

const SPAN: u8 = 0;
const EVENT: u8 = 1;
const COUNTER: u8 = 2;
const GAUGE: u8 = 3;

/// Bytes of float per record: two `f64`.
const FLOAT_BYTES: usize = 16;
/// Leading bytes of each `f64` stored as planes.
const HIGH_BYTES: usize = 2;
/// Trailing bytes of each `f64` kept together.
const LOW_BYTES: usize = 8 - HIGH_BYTES;
/// The least a record occupies: its shape byte and its two floats.
const MIN_RECORD_BYTES: usize = 1 + FLOAT_BYTES;

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// The two floats every record carries, as bit patterns.
fn float_bits(record: &TraceRecord) -> [u64; 2] {
    let (a, b) = match record {
        TraceRecord::Span(s) => (s.t0, s.t1),
        TraceRecord::Event(e) => (e.time, e.value),
        TraceRecord::Counter(c) => (c.time, c.delta),
        TraceRecord::Gauge(g) => (g.time, g.value),
    };
    [a.to_bits(), b.to_bits()]
}

/// Where value `v` (0 or 1) of record `i` lives in the float parts of an
/// `n`-record block: the offset of its first plane byte (the next is `n`
/// further on) and of its tail.
fn float_offsets(n: usize, i: usize, v: usize) -> (usize, usize) {
    (
        v * HIGH_BYTES * n + i,
        (2 * HIGH_BYTES + v * LOW_BYTES) * n + i * LOW_BYTES,
    )
}

/// Encodes `records` as one columnar block (see the module docs).
pub(crate) fn encode(records: &[TraceRecord]) -> Vec<u8> {
    let n = records.len();
    let mut out = Vec::with_capacity(16 + n * (MIN_RECORD_BYTES + 4));
    out.push(TAG);
    out.push(VERSION);
    put_varint(&mut out, n as u64);

    for record in records {
        out.push(match record {
            TraceRecord::Span(s) => SPAN | s.domain.code() << 2 | s.kind.code() << 4,
            TraceRecord::Event(e) => EVENT | e.domain.code() << 2 | e.kind.code() << 4,
            TraceRecord::Counter(_) => COUNTER,
            TraceRecord::Gauge(_) => GAUGE,
        });
    }
    for record in records {
        match record {
            TraceRecord::Span(s) => put_varint(&mut out, s.entity as u64),
            TraceRecord::Event(e) => put_varint(&mut out, e.entity as u64),
            TraceRecord::Counter(_) | TraceRecord::Gauge(_) => {}
        }
    }
    for span in records.iter().filter_map(TraceRecord::as_span) {
        put_varint(&mut out, span.round as u64);
    }
    for span in records.iter().filter_map(TraceRecord::as_span) {
        put_varint(&mut out, span.micro as u64);
    }

    let mut names: Vec<&str> = Vec::new();
    let mut index_of: HashMap<&str, usize> = HashMap::new();
    let mut name_index = Vec::new();
    for record in records {
        let name = match record {
            TraceRecord::Counter(c) => c.name.as_str(),
            TraceRecord::Gauge(g) => g.name.as_str(),
            TraceRecord::Span(_) | TraceRecord::Event(_) => continue,
        };
        name_index.push(*index_of.entry(name).or_insert_with(|| {
            names.push(name);
            names.len() - 1
        }));
    }
    put_varint(&mut out, names.len() as u64);
    for name in names {
        put_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }
    for index in name_index {
        put_varint(&mut out, index as u64);
    }

    let start = out.len();
    out.resize(start + FLOAT_BYTES * n, 0);
    let floats = &mut out[start..];
    for (i, record) in records.iter().enumerate() {
        for (v, bits) in float_bits(record).into_iter().enumerate() {
            let bytes = bits.to_be_bytes();
            let (plane, tail) = float_offsets(n, i, v);
            for (p, &byte) in bytes[..HIGH_BYTES].iter().enumerate() {
                floats[plane + p * n] = byte;
            }
            floats[tail..tail + LOW_BYTES].copy_from_slice(&bytes[HIGH_BYTES..]);
        }
    }
    out
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("trace block: {what}"))
}

/// A cursor over the payload; every read is bounds-checked.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, len: usize, what: &str) -> io::Result<&'a [u8]> {
        if len > self.remaining() {
            return Err(invalid(what));
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn varint(&mut self) -> io::Result<u64> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| invalid("truncated varint"))?;
            self.pos += 1;
            let bits = u64::from(byte & 0x7F);
            if shift == 63 && bits > 1 {
                return Err(invalid("varint overflows 64 bits"));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(invalid("varint longer than ten bytes"))
    }

    fn index(&mut self) -> io::Result<usize> {
        usize::try_from(self.varint()?).map_err(|_| invalid("value overflows usize"))
    }
}

/// Decodes a block written by [`encode`], validating everything listed in
/// the module docs.
///
/// # Errors
/// Returns `InvalidData` for any payload [`encode`] could not have
/// written.
pub(crate) fn decode(payload: &[u8]) -> io::Result<Vec<TraceRecord>> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    if r.take(1, "empty payload")? != [TAG] {
        return Err(invalid("missing columnar tag"));
    }
    let version = r.take(1, "missing version")?[0];
    if version != VERSION {
        return Err(invalid(&format!(
            "unsupported block version {version} (this build reads v{VERSION})"
        )));
    }
    let n = r.index()?;
    if n > r.remaining() / MIN_RECORD_BYTES {
        return Err(invalid("record count exceeds the payload"));
    }

    // One placeholder per shape byte, filled in column by column below.
    let mut records = Vec::with_capacity(n);
    let mut named = 0usize;
    for &shape in r.take(n, "truncated shape column")? {
        let (domain, kind) = (Domain::from_code(shape >> 2 & 3), shape >> 4);
        let bad_kind = || invalid(&format!("unknown variant in shape byte {shape:#04x}"));
        records.push(match shape & 3 {
            SPAN => TraceRecord::Span(SpanRecord {
                domain: domain.ok_or_else(bad_kind)?,
                kind: SpanKind::from_code(kind).ok_or_else(bad_kind)?,
                entity: 0,
                round: 0,
                micro: 0,
                t0: 0.0,
                t1: 0.0,
            }),
            EVENT => TraceRecord::Event(EventRecord {
                domain: domain.ok_or_else(bad_kind)?,
                kind: EventKind::from_code(kind).ok_or_else(bad_kind)?,
                entity: 0,
                time: 0.0,
                value: 0.0,
            }),
            COUNTER | GAUGE if shape >> 2 != 0 => return Err(bad_kind()),
            COUNTER => {
                named += 1;
                TraceRecord::Counter(CounterRecord {
                    name: String::new(),
                    time: 0.0,
                    delta: 0.0,
                })
            }
            _ => {
                named += 1;
                TraceRecord::Gauge(GaugeRecord {
                    name: String::new(),
                    time: 0.0,
                    value: 0.0,
                })
            }
        });
    }

    for record in &mut records {
        match record {
            TraceRecord::Span(s) => s.entity = r.index()?,
            TraceRecord::Event(e) => e.entity = r.index()?,
            TraceRecord::Counter(_) | TraceRecord::Gauge(_) => {}
        }
    }
    for record in &mut records {
        if let TraceRecord::Span(s) = record {
            s.round = r.index()?;
        }
    }
    for record in &mut records {
        if let TraceRecord::Span(s) = record {
            s.micro = r.index()?;
        }
    }

    let name_count = r.index()?;
    if name_count > named {
        return Err(invalid("more names than records that carry one"));
    }
    let mut names: Vec<&str> = Vec::with_capacity(name_count);
    for _ in 0..name_count {
        let len = r.index()?;
        let bytes = r.take(len, "name runs past the payload")?;
        names.push(std::str::from_utf8(bytes).map_err(|_| invalid("name is not UTF-8"))?);
    }
    for record in &mut records {
        let name = match record {
            TraceRecord::Counter(c) => &mut c.name,
            TraceRecord::Gauge(g) => &mut g.name,
            TraceRecord::Span(_) | TraceRecord::Event(_) => continue,
        };
        let text = names
            .get(r.index()?)
            .ok_or_else(|| invalid("name index past the dictionary"))?;
        name.push_str(text);
    }

    // Exact consumption: the floats are all that may remain.
    if r.remaining() != FLOAT_BYTES * n {
        return Err(invalid("floats do not end the payload"));
    }
    let floats = &payload[r.pos..];
    for (i, record) in records.iter_mut().enumerate() {
        let float = |v: usize| {
            let (plane, tail) = float_offsets(n, i, v);
            let mut bytes = [0u8; 8];
            for (p, byte) in bytes[..HIGH_BYTES].iter_mut().enumerate() {
                *byte = floats[plane + p * n];
            }
            bytes[HIGH_BYTES..].copy_from_slice(&floats[tail..tail + LOW_BYTES]);
            f64::from_bits(u64::from_be_bytes(bytes))
        };
        match record {
            TraceRecord::Span(s) => (s.t0, s.t1) = (float(0), float(1)),
            TraceRecord::Event(e) => (e.time, e.value) = (float(0), float(1)),
            TraceRecord::Counter(c) => (c.time, c.delta) = (float(0), float(1)),
            TraceRecord::Gauge(g) => (g.time, g.value) = (float(0), float(1)),
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::Span(SpanRecord {
                domain: Domain::Fl,
                kind: SpanKind::LocalTrain,
                entity: 300,
                round: 2,
                micro: 1,
                t0: 1.0,
                t1: 2.5,
            }),
            TraceRecord::Gauge(GaugeRecord {
                name: "acc".into(),
                time: 2.5,
                value: -0.0,
            }),
            TraceRecord::Event(EventRecord {
                domain: Domain::Grouping,
                kind: EventKind::RoundReplayed,
                entity: 7,
                time: 3.0,
                value: f64::INFINITY,
            }),
            TraceRecord::Counter(CounterRecord {
                name: "acc".into(),
                time: 3.0,
                delta: 1.0,
            }),
        ]
    }

    /// The byte image of [`sample`]: the layout table of the module docs,
    /// spelt out. A change here is a format change — bump [`VERSION`] and
    /// keep reading the old one.
    #[rustfmt::skip]
    const SAMPLE_BYTES: &[u8] = &[
        0xC1, 1, 4,                         // tag, version, n
        0x68, 0x03, 0x9D, 0x02,             // shapes: Fl LocalTrain span, gauge, Grouping RoundReplayed event, counter
        0xAC, 0x02, 7,                      // entity: 300 (span), 7 (event)
        2,                                  // round
        1,                                  // micro
        1, 3, b'a', b'c', b'c',             // names: one, "acc"
        0, 0,                               // name index: gauge, counter
        0x3F, 0x40, 0x40, 0x40,             // byte 7 of 1.0, 2.5, 3.0, 3.0
        0xF0, 0x04, 0x08, 0x08,             // byte 6 of the same
        0x40, 0x80, 0x7F, 0x3F,             // byte 7 of 2.5, -0.0, inf, 1.0
        0x04, 0x00, 0xF0, 0xF0,             // byte 6 of the same
        0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0, // first tails
        0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0, // second tails
    ];

    #[test]
    fn layout_is_pinned_byte_for_byte() {
        assert_eq!(encode(&sample()), SAMPLE_BYTES);
        let back = decode(SAMPLE_BYTES).expect("decode");
        assert_eq!(back, sample());
        // `PartialEq` cannot tell -0.0 from 0.0.
        let TraceRecord::Gauge(g) = &back[1] else {
            panic!("second record is the gauge");
        };
        assert_eq!(g.value.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn tails_keep_a_repeated_value_in_one_piece() {
        // t0 of the second span is t1 of the first: the same six tail
        // bytes appear twice, contiguously, for LZ to match.
        let (a, b, c) = (0.1f64, 0.1 + 0.2, 0.7);
        let span = |t0, t1| {
            TraceRecord::Span(SpanRecord {
                domain: Domain::Pipeline,
                kind: SpanKind::Forward,
                entity: 0,
                round: 0,
                micro: 0,
                t0,
                t1,
            })
        };
        let bytes = encode(&[span(a, b), span(b, c)]);
        let tail = &b.to_be_bytes()[HIGH_BYTES..];
        let hits = bytes.windows(LOW_BYTES).filter(|w| w == &tail).count();
        assert_eq!(hits, 2);
    }

    #[test]
    fn the_tag_cannot_start_text() {
        assert!(std::str::from_utf8(&[TAG]).is_err());
        assert!(std::str::from_utf8(&[b'{', TAG, b'}']).is_err());
    }

    #[test]
    fn unknown_versions_and_codes_are_refused() {
        let mut next_version = SAMPLE_BYTES.to_vec();
        next_version[1] = VERSION + 1;
        // (offset of a shape byte, a value no encoder writes)
        let bad_shapes = [
            (3, 0x80), // span kind 8
            (5, 0xA1), // event kind 10
            (4, 0x07), // gauge with domain bits
            (6, 0x12), // counter with kind bits
        ];
        let mut cases = vec![next_version];
        for (at, shape) in bad_shapes {
            let mut bytes = SAMPLE_BYTES.to_vec();
            bytes[at] = shape;
            cases.push(bytes);
        }
        for bytes in cases {
            let err = decode(&bytes).expect_err("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn varints_round_trip_and_overflow_is_refused() {
        for value in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, value);
            let mut r = Reader {
                bytes: &bytes,
                pos: 0,
            };
            assert_eq!(r.varint().expect("varint"), value);
            assert_eq!(r.remaining(), 0);
        }
        // Ten bytes whose last carries a second bit: 2^64 and up.
        let mut too_big = vec![0xFF; 9];
        too_big.push(0x02);
        // Eleven bytes.
        let mut too_long = vec![0x80; 10];
        too_long.push(0x00);
        for bytes in [too_big, too_long, vec![0x80]] {
            let mut r = Reader {
                bytes: &bytes,
                pos: 0,
            };
            assert!(r.varint().is_err(), "{bytes:02x?}");
        }
    }
}
