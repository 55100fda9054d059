//! The segmented run store: the typed storage API over `ecofl-store`.
//!
//! A [`RunStore`] is a directory holding two segment files —
//! `trace.seg` for [`TraceRecord`] blocks and `checkpoints.seg` for
//! versioned pipeline checkpoints. Trace records append in batches of
//! [`RunStore::with_block_records`] per block. A block's payload is typed
//! columns — a shape byte per record, varint index columns, a name
//! dictionary, `f64` bit patterns — written by the crate's private
//! `block` codec, the one encoder [`RunStore::append`] has, and
//! LZ-compressed by the segment layer. The format is chosen per
//! *payload*: the one block decoder, [`jsonl_to_records`], reads a
//! columnar block by its tag byte and anything else as the JSONL text
//! (one externally-tagged record per line) that older stores hold, so
//! those stay readable and take new blocks behind their old ones. JSONL
//! ([`records_to_jsonl`]) stays the oracle the codec is tested against.
//! Each block carries a [`BlockSummary`] of four min/max columns:
//!
//! | column | meaning | populated by |
//! |---|---|---|
//! | `COL_ROUND` | sync/engine round | spans |
//! | `COL_ENTITY` | stage / client / group index | spans, events |
//! | `COL_TIME` | virtual time (`t0` and `t1` for spans) | all records |
//! | `COL_DURATION` | span length in virtual seconds | spans |
//!
//! The summary `kind_mask` carries one bit per [`RecordKind`] in the
//! low byte and one bit per [`Domain`] above it, so kind- and
//! domain-filtered queries prune without decoding. [`TraceQuery`] is
//! the builder: conjunctive predicates, each with a block-level
//! `admits` test guaranteed *sound* (it may admit a block with no
//! matching record, but never excludes one that has any).
//!
//! Checkpoint blocks store an opaque payload (the pipeline's
//! `CheckpointRecord` encoding) under two columns `[seq, round]` and a
//! dedicated mask bit; sequence numbers must increase monotonically,
//! and every checkpoint append seals the segment — when
//! `append_checkpoint` returns, the checkpoint is visible to fresh opens
//! and outlives a kill of the writing process, though not an OS crash or
//! power loss (nothing is fsynced), and not a kill during the next
//! append (see `ecofl_store::Segment`).
//!
//! Stores written while the metrics hub also persisted snapshots hold a
//! third file, `metrics.seg`; it is ignored, and the store opens and
//! reads as before.

use crate::block;
use crate::record::{Domain, TraceRecord};
use crate::view::TraceView;
use ecofl_compat::json;
use ecofl_store::{BlockEntry, BlockSummary, Segment};
use std::io;
use std::path::PathBuf;

/// Summary column: span round.
pub(crate) const COL_ROUND: usize = 0;
/// Summary column: span/event entity index.
pub(crate) const COL_ENTITY: usize = 1;
/// Summary column: virtual time (span `t0..=t1`, otherwise `time`).
pub(crate) const COL_TIME: usize = 2;
/// Summary column: span duration.
pub(crate) const COL_DURATION: usize = 3;
/// Number of summary columns on trace blocks.
pub(crate) const NCOLS: usize = 4;

/// Mask bit marking a checkpoint block (no trace-record bits set).
const CHECKPOINT_BIT: u32 = 1 << 16;

/// Trace segment file name inside a store directory.
pub const TRACE_SEGMENT: &str = "trace.seg";
/// Checkpoint segment file name inside a store directory.
pub const CHECKPOINT_SEGMENT: &str = "checkpoints.seg";

fn invalid(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// The four shapes a [`TraceRecord`] can take, as a filterable tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A duration ([`TraceRecord::Span`]).
    Span,
    /// An instantaneous event ([`TraceRecord::Event`]).
    Event,
    /// A counter increment ([`TraceRecord::Counter`]).
    Counter,
    /// A gauge sample ([`TraceRecord::Gauge`]).
    Gauge,
}

impl RecordKind {
    /// The kind of `record`.
    #[must_use]
    pub(crate) fn of(record: &TraceRecord) -> RecordKind {
        match record {
            TraceRecord::Span(_) => RecordKind::Span,
            TraceRecord::Event(_) => RecordKind::Event,
            TraceRecord::Counter(_) => RecordKind::Counter,
            TraceRecord::Gauge(_) => RecordKind::Gauge,
        }
    }

    /// This kind's bit in a block summary `kind_mask`.
    #[must_use]
    pub(crate) fn bit(self) -> u32 {
        match self {
            RecordKind::Span => 1 << 0,
            RecordKind::Event => 1 << 1,
            RecordKind::Counter => 1 << 2,
            RecordKind::Gauge => 1 << 3,
        }
    }
}

impl std::str::FromStr for RecordKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "span" => Ok(RecordKind::Span),
            "event" => Ok(RecordKind::Event),
            "counter" => Ok(RecordKind::Counter),
            "gauge" => Ok(RecordKind::Gauge),
            other => Err(format!(
                "unknown record kind {other:?} (expected span|event|counter|gauge)"
            )),
        }
    }
}

impl std::str::FromStr for Domain {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pipeline" => Ok(Domain::Pipeline),
            "scheduler" => Ok(Domain::Scheduler),
            "fl" => Ok(Domain::Fl),
            "grouping" => Ok(Domain::Grouping),
            other => Err(format!(
                "unknown domain {other:?} (expected pipeline|scheduler|fl|grouping)"
            )),
        }
    }
}

/// `domain`'s bit in a block summary `kind_mask` (above the kind bits).
#[must_use]
pub(crate) fn domain_bit(domain: Domain) -> u32 {
    match domain {
        Domain::Pipeline => 1 << 8,
        Domain::Scheduler => 1 << 9,
        Domain::Fl => 1 << 10,
        Domain::Grouping => 1 << 11,
    }
}

/// Builds the [`BlockSummary`] for one block of trace records.
#[must_use]
pub fn summarize(records: &[TraceRecord]) -> BlockSummary {
    let mut s = BlockSummary::new(NCOLS);
    s.count = records.len() as u64;
    for r in records {
        s.kind_mask |= RecordKind::of(r).bit();
        s.cols[COL_TIME].include(r.time());
        match r {
            TraceRecord::Span(sp) => {
                s.kind_mask |= domain_bit(sp.domain);
                s.cols[COL_ROUND].include(sp.round as f64);
                s.cols[COL_ENTITY].include(sp.entity as f64);
                s.cols[COL_TIME].include(sp.t1);
                s.cols[COL_DURATION].include(sp.duration());
            }
            TraceRecord::Event(ev) => {
                s.kind_mask |= domain_bit(ev.domain);
                s.cols[COL_ENTITY].include(ev.entity as f64);
            }
            TraceRecord::Counter(_) | TraceRecord::Gauge(_) => {}
        }
    }
    s
}

/// A conjunctive predicate over trace records, built fluently:
///
/// ```
/// use ecofl_obs::store::{RecordKind, TraceQuery};
/// use ecofl_obs::Domain;
/// let q = TraceQuery::new()
///     .rounds(2..5)
///     .domain(Domain::Pipeline)
///     .kind(RecordKind::Span);
/// ```
///
/// Every added clause narrows the result. Round and duration clauses
/// only ever match spans; the domain clause matches spans and events
/// (counters and gauges carry no domain and are excluded).
#[derive(Debug, Clone, Default)]
pub struct TraceQuery {
    rounds: Option<(u64, u64)>,
    time: Option<(f64, f64)>,
    domain: Option<Domain>,
    kind: Option<RecordKind>,
    min_duration: Option<f64>,
}

impl TraceQuery {
    /// The match-everything query.
    #[must_use]
    pub fn new() -> TraceQuery {
        TraceQuery::default()
    }

    /// Keep only spans whose round lies in the half-open `range`.
    #[must_use]
    pub fn rounds(mut self, range: std::ops::Range<u64>) -> TraceQuery {
        self.rounds = Some((range.start, range.end));
        self
    }

    /// Keep only records whose timestamp lies in the half-open `range`.
    #[must_use]
    pub fn time(mut self, range: std::ops::Range<f64>) -> TraceQuery {
        self.time = Some((range.start, range.end));
        self
    }

    /// Keep only spans and events from `domain`.
    #[must_use]
    pub fn domain(mut self, domain: Domain) -> TraceQuery {
        self.domain = Some(domain);
        self
    }

    /// Keep only records of `kind`.
    #[must_use]
    pub fn kind(mut self, kind: RecordKind) -> TraceQuery {
        self.kind = Some(kind);
        self
    }

    /// Keep only spans at least `d` virtual seconds long.
    #[must_use]
    pub fn min_duration(mut self, d: f64) -> TraceQuery {
        self.min_duration = Some(d);
        self
    }

    /// Whether `record` satisfies every clause. This is the single
    /// source of truth: the full-scan path applies it record by
    /// record, and block pruning must agree with it (see
    /// [`TraceQuery::admits`]).
    #[must_use]
    pub fn matches(&self, record: &TraceRecord) -> bool {
        if let Some(kind) = self.kind {
            if RecordKind::of(record) != kind {
                return false;
            }
        }
        if let Some((lo, hi)) = self.time {
            let t = record.time();
            if t < lo || t >= hi {
                return false;
            }
        }
        if let Some(domain) = self.domain {
            let rd = match record {
                TraceRecord::Span(s) => Some(s.domain),
                TraceRecord::Event(e) => Some(e.domain),
                _ => None,
            };
            if rd != Some(domain) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.rounds {
            match record.as_span() {
                Some(s) => {
                    let r = s.round as u64;
                    if r < lo || r >= hi {
                        return false;
                    }
                }
                None => return false,
            }
        }
        if let Some(d) = self.min_duration {
            match record.as_span() {
                Some(s) => {
                    if s.duration() < d {
                        return false;
                    }
                }
                None => return false,
            }
        }
        true
    }

    /// Whether a block with `summary` *could* contain a matching
    /// record. Sound by construction: every clause's block test is a
    /// relaxation of its record test, so a `false` here proves no
    /// record inside matches — the block is skipped without decoding.
    #[must_use]
    pub fn admits(&self, summary: &BlockSummary) -> bool {
        if let Some(kind) = self.kind {
            if summary.kind_mask & kind.bit() == 0 {
                return false;
            }
        }
        if let Some(domain) = self.domain {
            if summary.kind_mask & domain_bit(domain) == 0 {
                return false;
            }
        }
        if let Some((lo, hi)) = self.rounds {
            let col = &summary.cols[COL_ROUND];
            if !col.intersects(lo as f64, hi as f64) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.time {
            if !summary.cols[COL_TIME].intersects(lo, hi) {
                return false;
            }
        }
        if let Some(d) = self.min_duration {
            // Only spans can satisfy the clause, so a span-free block
            // never admits it — regardless of threshold.
            if summary.kind_mask & RecordKind::Span.bit() == 0 {
                return false;
            }
            // Any threshold ≤ 0 is satisfied by every span, including
            // zero-duration ones. Deciding that from the duration
            // column would conflate "no spans" (empty column) with
            // "only zero-duration spans" (a column whose sole entry is
            // 0.0); the kind-mask test above is the correct gate, so
            // the column is only consulted for positive thresholds.
            if d > 0.0 {
                let col = &summary.cols[COL_DURATION];
                if col.is_empty() || col.max < d {
                    return false;
                }
            }
        }
        true
    }
}

/// What a pruned query did and returned.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Matching records in append order.
    pub records: Vec<TraceRecord>,
    /// Blocks in the trace segment.
    pub blocks_total: usize,
    /// Blocks whose summaries admitted the query and were decoded.
    pub blocks_decoded: usize,
}

/// Footer rollup of one segment file, for `segments()` listings.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// Segment file name (`trace.seg` or `checkpoints.seg`).
    pub name: String,
    /// Block count.
    pub blocks: usize,
    /// Total records (or checkpoints) across block summaries.
    pub records: u64,
    /// Data-region bytes on disk.
    pub compressed_bytes: u64,
    /// Bytes before compression.
    pub raw_bytes: u64,
    /// Union of every block summary.
    pub summary: BlockSummary,
}

/// Footer metadata of one stored checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Monotone sequence number, unique within the store.
    pub seq: u64,
    /// Sync-round the checkpoint captured.
    pub round: u64,
    /// Payload size before compression.
    pub bytes: u64,
}

/// Encodes records as JSONL: one externally-tagged JSON object per
/// `\n`-terminated line, exactly what the legacy sink wrote. Stores
/// written before the columnar codec hold it as their block payload, and
/// it is the differential oracle the codec is tested against (`records →
/// block → records → JSONL` is byte-identical to `records → JSONL`).
/// JSON has no spelling for NaN or ±∞: a non-finite `value` / `delta`
/// is written as `null`, which [`jsonl_to_records`] does not read back
/// — the store itself keeps such values bit-exactly. Likewise the JSON
/// layer holds integers as `i64`: an index above `i64::MAX` is written
/// as a negative number and not read back, where the store's varint
/// columns carry the full `usize`.
///
/// # Errors
/// Returns `InvalidData` if a record fails to serialize.
pub fn records_to_jsonl(records: &[TraceRecord]) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    for record in records {
        let line = json::to_string(record).map_err(|e| invalid(e.to_string()))?;
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    Ok(out)
}

/// *The* trace block decoder: turns one block payload of `trace.seg`
/// back into its records. The format is chosen per payload — a first
/// byte of `0xC1` (which no UTF-8 text contains) marks a columnar block,
/// fully validated by the `block` codec; anything else is the JSONL
/// text older stores hold (a [`records_to_jsonl`] payload, blank lines
/// skipped), so a segment may mix both and an old store takes new
/// blocks behind its old ones.
///
/// The name is historical: the frozen `benchmark/layers` probe imports
/// it, so the rename to what it now does waits for a change that may
/// edit the benchmark.
///
/// # Errors
/// Returns `InvalidData` for a malformed columnar block, non-UTF-8
/// bytes or unparseable lines.
pub fn jsonl_to_records(bytes: &[u8]) -> io::Result<Vec<TraceRecord>> {
    if bytes.first() == Some(&block::TAG) {
        return block::decode(bytes);
    }
    let text = std::str::from_utf8(bytes).map_err(|e| invalid(e.to_string()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| json::from_str(line).map_err(|e| invalid(e.to_string())))
        .collect()
}

/// Default records per trace block.
pub(crate) const DEFAULT_BLOCK_RECORDS: usize = 512;

/// Directory where traces are written.
///
/// Defaults to `target/ecofl-results/trace/` next to the bench
/// harness's JSON series; the `ECOFL_TRACE_DIR` environment variable
/// overrides it (read on every call), so tests and CI can isolate
/// their outputs instead of colliding in the shared default under
/// parallel `cargo test`.
///
/// Only the path is returned; the directory is created by whoever writes
/// into it ([`RunStore::open_or_create`] does), so a path that cannot be
/// created surfaces as that writer's I/O error.
#[must_use]
pub fn trace_dir() -> PathBuf {
    match std::env::var_os("ECOFL_TRACE_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/ecofl-results/trace"),
    }
}

/// A run's persistent storage: trace blocks and versioned checkpoints
/// in one directory. See the module docs for the layout.
#[derive(Debug)]
pub struct RunStore {
    trace: Segment,
    checkpoints: Segment,
    block_records: usize,
}

impl RunStore {
    /// Creates a fresh store at `dir` (truncating existing segments).
    ///
    /// # Errors
    /// Returns any I/O error creating the directory or segments.
    pub fn create(dir: impl Into<PathBuf>) -> io::Result<RunStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(RunStore {
            trace: Segment::create(dir.join(TRACE_SEGMENT))?,
            checkpoints: Segment::create(dir.join(CHECKPOINT_SEGMENT))?,
            block_records: DEFAULT_BLOCK_RECORDS,
        })
    }

    /// Opens the store at `dir`, which must contain sealed segments.
    ///
    /// # Errors
    /// Returns `NotFound` for a missing store and `InvalidData` for
    /// corrupt segments.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<RunStore> {
        let dir = dir.into();
        Ok(RunStore {
            trace: Segment::open(dir.join(TRACE_SEGMENT))?,
            checkpoints: Segment::open(dir.join(CHECKPOINT_SEGMENT))?,
            block_records: DEFAULT_BLOCK_RECORDS,
        })
    }

    /// Opens `dir` if its segments exist, creates them otherwise.
    ///
    /// # Errors
    /// Returns any I/O error from `open`/`create`.
    pub fn open_or_create(dir: impl Into<PathBuf>) -> io::Result<RunStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(RunStore {
            trace: Segment::open_or_create(dir.join(TRACE_SEGMENT))?,
            checkpoints: Segment::open_or_create(dir.join(CHECKPOINT_SEGMENT))?,
            block_records: DEFAULT_BLOCK_RECORDS,
        })
    }

    /// Sets the records-per-block chunking for subsequent appends.
    /// Smaller blocks prune finer; larger blocks compress better.
    #[must_use]
    pub fn with_block_records(mut self, n: usize) -> RunStore {
        assert!(n > 0, "block_records must be positive");
        self.block_records = n;
        self
    }

    /// Appends `records` to the trace segment, chunked into blocks of
    /// [`RunStore::with_block_records`] records. Blocks become visible to
    /// fresh opens at the next [`RunStore::flush`] (or drop).
    ///
    /// # Errors
    /// Returns any I/O error.
    pub fn append(&mut self, records: &[TraceRecord]) -> io::Result<()> {
        for chunk in records.chunks(self.block_records) {
            let payload = block::encode(chunk);
            self.trace.append_block(&payload, summarize(chunk))?;
        }
        Ok(())
    }

    /// Records per trace block, as [`RunStore::with_block_records`] set.
    pub(crate) fn block_records(&self) -> usize {
        self.block_records
    }

    /// Cuts the trace segment back to its first `blocks` blocks and
    /// seals it, undoing the appends made since it held that many.
    pub(crate) fn truncate_trace(&mut self, blocks: usize) -> io::Result<()> {
        self.trace.truncate(blocks)
    }

    /// Seals every segment: everything appended so far is visible to
    /// fresh opens and outlives a kill of this process until the next
    /// append, but not an OS crash or power loss (nothing is fsynced).
    ///
    /// # Errors
    /// Returns any I/O error from sealing.
    pub fn flush(&mut self) -> io::Result<()> {
        self.trace.seal()?;
        self.checkpoints.seal()
    }

    /// *The* loop over trace blocks: hands every record matching `query`
    /// to `visit`, in append order, decoding only blocks whose summaries
    /// admit it. One block is decoded, visited and dropped at a time, so
    /// the scan holds one block however large the store. Returns how many
    /// blocks it decoded and how many the trace segment has.
    ///
    /// # Errors
    /// Returns any decode or I/O error; `visit` has then seen the
    /// matching records of the blocks before the bad one.
    pub fn scan(
        &self,
        query: &TraceQuery,
        mut visit: impl FnMut(TraceRecord),
    ) -> io::Result<(usize, usize)> {
        let mut decoded = 0usize;
        for (i, entry) in self.trace.blocks().iter().enumerate() {
            if !query.admits(&entry.summary) {
                continue;
            }
            decoded += 1;
            let records = jsonl_to_records(&self.trace.read_block(i)?)?;
            if records.len() as u64 != entry.summary.count {
                return Err(invalid(format!(
                    "trace block {i} holds {} record(s), its footer says {}",
                    records.len(),
                    entry.summary.count
                )));
            }
            for record in records {
                if query.matches(&record) {
                    visit(record);
                }
            }
        }
        Ok((decoded, self.trace.block_count()))
    }

    /// Runs `query`, collecting what [`RunStore::scan`] visits.
    ///
    /// # Errors
    /// Returns any decode or I/O error.
    pub fn query(&self, query: &TraceQuery) -> io::Result<QueryResult> {
        let mut records = Vec::new();
        let (blocks_decoded, blocks_total) = self.scan(query, |r| records.push(r))?;
        Ok(QueryResult {
            records,
            blocks_total,
            blocks_decoded,
        })
    }

    /// A [`TraceView`] over the records matching `query` — the pruned
    /// path into every existing view-level analysis.
    ///
    /// # Errors
    /// Returns any decode or I/O error.
    pub fn view(&self, query: &TraceQuery) -> io::Result<TraceView> {
        Ok(TraceView::from_records(self.query(query)?.records))
    }

    /// Every trace record in append order (full scan).
    ///
    /// # Errors
    /// Returns any decode or I/O error.
    pub fn records(&self) -> io::Result<Vec<TraceRecord>> {
        Ok(self.query(&TraceQuery::new())?.records)
    }

    /// Trace record count from block summaries (no decoding).
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.trace.record_count()
    }

    /// Footer entries of the trace segment, for pruning diagnostics.
    #[must_use]
    pub fn trace_blocks(&self) -> &[BlockEntry] {
        self.trace.blocks()
    }

    /// Decodes trace block `index` back into its records.
    ///
    /// # Errors
    /// Returns any decode or I/O error.
    pub fn read_block_records(&self, index: usize) -> io::Result<Vec<TraceRecord>> {
        jsonl_to_records(&self.trace.read_block(index)?)
    }

    /// Rollup listings for every segment file, `trace.seg` first.
    #[must_use]
    pub fn segments(&self) -> Vec<SegmentInfo> {
        [
            (TRACE_SEGMENT, &self.trace),
            (CHECKPOINT_SEGMENT, &self.checkpoints),
        ]
        .into_iter()
        .map(|(name, seg)| SegmentInfo {
            name: name.to_string(),
            blocks: seg.block_count(),
            records: seg.record_count(),
            compressed_bytes: seg.compressed_bytes(),
            raw_bytes: seg.raw_bytes(),
            summary: seg.rollup(),
        })
        .collect()
    }

    /// Appends a checkpoint payload under `seq`/`round` and seals the
    /// checkpoint segment immediately: when this returns, the checkpoint
    /// is visible to fresh opens, as [`RunStore::flush`] describes.
    ///
    /// # Errors
    /// Returns `InvalidData` if `seq` does not exceed the last stored
    /// sequence number, plus any I/O error.
    pub fn append_checkpoint(&mut self, seq: u64, round: u64, payload: &[u8]) -> io::Result<()> {
        if let Some(last) = self.checkpoint_metas().last() {
            if seq <= last.seq {
                return Err(invalid(format!(
                    "checkpoint seq {seq} not above last stored seq {}",
                    last.seq
                )));
            }
        }
        let mut summary = BlockSummary::new(2);
        summary.count = 1;
        summary.kind_mask = CHECKPOINT_BIT;
        summary.cols[0].include(seq as f64);
        summary.cols[1].include(round as f64);
        self.checkpoints.append_block(payload, summary)?;
        self.checkpoints.seal()
    }

    /// Metadata of every stored checkpoint, in sequence order.
    #[must_use]
    pub fn checkpoint_metas(&self) -> Vec<CheckpointMeta> {
        self.checkpoints
            .blocks()
            .iter()
            .map(|b| CheckpointMeta {
                seq: b.summary.cols[0].min as u64,
                round: b.summary.cols[1].min as u64,
                bytes: u64::from(b.raw_len),
            })
            .collect()
    }

    /// The payload stored under exactly `seq`, if any.
    ///
    /// # Errors
    /// Returns any decode or I/O error.
    pub fn read_checkpoint(&self, seq: u64) -> io::Result<Option<Vec<u8>>> {
        for (i, b) in self.checkpoints.blocks().iter().enumerate() {
            if b.summary.cols[0].min as u64 == seq {
                return Ok(Some(self.checkpoints.read_block(i)?));
            }
        }
        Ok(None)
    }

    /// The newest checkpoint with sequence number ≤ `seq` — the §4.4
    /// point-in-time recovery primitive.
    ///
    /// # Errors
    /// Returns any decode or I/O error.
    pub fn latest_checkpoint_at_or_before(
        &self,
        seq: u64,
    ) -> io::Result<Option<(CheckpointMeta, Vec<u8>)>> {
        let metas = self.checkpoint_metas();
        let best = metas
            .iter()
            .enumerate()
            .filter(|(_, m)| m.seq <= seq)
            .max_by_key(|(_, m)| m.seq);
        match best {
            Some((i, meta)) => Ok(Some((*meta, self.checkpoints.read_block(i)?))),
            None => Ok(None),
        }
    }

    /// The newest checkpoint in the store.
    ///
    /// # Errors
    /// Returns any decode or I/O error.
    pub fn latest_checkpoint(&self) -> io::Result<Option<(CheckpointMeta, Vec<u8>)>> {
        self.latest_checkpoint_at_or_before(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_dir_honors_env_override() {
        // This is the only test in the workspace that touches
        // ECOFL_TRACE_DIR, so the process-global env var is safe here.
        let dir = std::env::temp_dir().join(format!("ecofl-trace-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        std::env::set_var("ECOFL_TRACE_DIR", &dir);
        let got = trace_dir();
        std::env::remove_var("ECOFL_TRACE_DIR");
        assert_eq!(got, dir);
        assert!(got.is_dir());
        let default = trace_dir();
        assert!(default.ends_with("ecofl-results/trace"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
