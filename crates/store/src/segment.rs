//! One segment file: append-only compressed blocks plus a sealed,
//! summary-bearing footer. See the crate docs for the byte layout.

use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::lz;

/// On-disk format version, written in the header after the magic.
pub(crate) const SEGMENT_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"ECOFLSG1";
const FOOT_MAGIC: &[u8; 8] = b"ECOFLFT1";
/// Header: magic + version.
const HEADER_LEN: u64 = 12;
/// Trailer: footer length + footer magic.
const TRAILER_LEN: u64 = 12;

fn corrupt(path: &Path, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("segment {}: {what}", path.display()),
    )
}

/// Closed min/max range of one summary column. An empty range
/// (`min = +inf`, `max = -inf`) means the column never got a value in
/// this block, and intersects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColRange {
    pub min: f64,
    pub max: f64,
}

impl ColRange {
    /// A range that contains nothing until [`ColRange::include`] runs.
    #[must_use]
    pub fn empty() -> Self {
        ColRange {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Grows the range to contain `v`.
    pub fn include(&mut self, v: f64) {
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// True when no value was ever included.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.min > self.max
    }

    /// True when the range overlaps the half-open interval `[lo, hi)`.
    /// Empty ranges intersect nothing.
    #[must_use]
    pub fn intersects(&self, lo: f64, hi: f64) -> bool {
        self.min < hi && self.max >= lo
    }

    /// Union of two ranges; used for segment-level rollups.
    #[must_use]
    pub fn merge(&self, other: &ColRange) -> ColRange {
        ColRange {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

/// Per-block statistics: record count, a bitmask of record kinds the
/// block contains, and a min/max range per summary column. The typed
/// layer decides what the columns and mask bits mean; the store only
/// persists and rolls them up.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSummary {
    pub count: u64,
    pub kind_mask: u32,
    pub cols: Vec<ColRange>,
}

impl BlockSummary {
    /// An empty summary over `ncols` columns.
    #[must_use]
    pub fn new(ncols: usize) -> Self {
        BlockSummary {
            count: 0,
            kind_mask: 0,
            cols: vec![ColRange::empty(); ncols],
        }
    }

    /// Column-wise union with `other`; counts add, masks or together.
    /// Summaries with differing column arity merge on the shorter
    /// prefix (longer tail kept as-is).
    #[must_use]
    pub fn merge(&self, other: &BlockSummary) -> BlockSummary {
        let ncols = self.cols.len().max(other.cols.len());
        let mut cols = Vec::with_capacity(ncols);
        for i in 0..ncols {
            let a = self.cols.get(i).copied().unwrap_or_else(ColRange::empty);
            let b = other.cols.get(i).copied().unwrap_or_else(ColRange::empty);
            cols.push(a.merge(&b));
        }
        BlockSummary {
            count: self.count + other.count,
            kind_mask: self.kind_mask | other.kind_mask,
            cols,
        }
    }
}

/// Footer entry for one block: where it lives in the data region and
/// what its summary says.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockEntry {
    pub offset: u64,
    pub comp_len: u32,
    pub raw_len: u32,
    pub summary: BlockSummary,
}

/// One append-only segment file.
///
/// The file is usable by readers only after [`Segment::seal`] (or
/// `Drop`, which seals best-effort): appends land in the data region,
/// but the footer that makes them discoverable is rewritten on seal.
/// Reopening a sealed file truncates anything past the footer start.
///
/// What a seal guarantees: fresh opens see every block sealed so far, and
/// the file outlives a kill of the writing process. It does not outlive
/// an OS crash or power loss: nothing calls `sync_data`, and
/// `File::flush` does nothing. Nor does a sealed prefix outlive a kill
/// during the next append: the block is written over the footer in place,
/// so a process killed between `append_block` and `seal` leaves a file
/// that no open accepts.
#[derive(Debug)]
pub struct Segment {
    path: PathBuf,
    file: RefCell<File>,
    blocks: Vec<BlockEntry>,
    data_end: u64,
    sealed: bool,
}

impl Segment {
    /// Creates (truncating) a segment at `path` and seals an empty
    /// footer so the file is immediately readable.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Segment> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(MAGIC)?;
        file.write_all(&SEGMENT_VERSION.to_le_bytes())?;
        let mut seg = Segment {
            path,
            file: RefCell::new(file),
            blocks: Vec::new(),
            data_end: HEADER_LEN,
            sealed: false,
        };
        seg.seal()?;
        Ok(seg)
    }

    /// Opens an existing sealed segment, truncating any unsealed tail
    /// past the footer start so appends continue from the last seal.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Segment> {
        let path = path.into();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN + TRAILER_LEN {
            return Err(corrupt(&path, "file shorter than header + trailer"));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut header)?;
        if &header[..8] != MAGIC {
            return Err(corrupt(&path, "bad magic"));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != SEGMENT_VERSION {
            return Err(corrupt(&path, &format!("unsupported version {version}")));
        }

        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
        file.read_exact(&mut trailer)?;
        if &trailer[4..12] != FOOT_MAGIC {
            return Err(corrupt(&path, "bad footer magic"));
        }
        let footer_len = u64::from(u32::from_le_bytes(trailer[..4].try_into().unwrap()));
        if footer_len + TRAILER_LEN + HEADER_LEN > file_len {
            return Err(corrupt(&path, "footer length exceeds file"));
        }
        let footer_start = file_len - TRAILER_LEN - footer_len;
        let mut footer = vec![0u8; footer_len as usize];
        file.seek(SeekFrom::Start(footer_start))?;
        file.read_exact(&mut footer)?;
        let blocks = parse_footer(&path, &footer)?;
        // Every entry must lie inside the data region, in order and
        // without overlap: `read_block` sizes its buffer by `comp_len`,
        // so an entry the file cannot hold is refused here.
        let mut data_end = HEADER_LEN;
        for (index, block) in blocks.iter().enumerate() {
            if block.offset < data_end {
                return Err(corrupt(
                    &path,
                    &format!("block {index} starts before the end of its predecessor"),
                ));
            }
            data_end = block
                .offset
                .checked_add(u64::from(block.comp_len))
                .filter(|&end| end <= footer_start)
                .ok_or_else(|| corrupt(&path, &format!("block {index} extends past footer")))?;
        }

        let mut seg = Segment {
            path,
            file: RefCell::new(file),
            blocks,
            data_end: footer_start,
            sealed: false,
        };
        // Drop any bytes a crashed writer left past the sealed footer
        // start, then re-seal so the invariant "file on disk is always
        // readable" holds from here on.
        seg.seal()?;
        Ok(seg)
    }

    /// Opens `path` if it exists, creates it otherwise.
    pub fn open_or_create(path: impl Into<PathBuf>) -> io::Result<Segment> {
        let path = path.into();
        if path.exists() {
            Segment::open(path)
        } else {
            Segment::create(path)
        }
    }

    /// Compresses `raw` and appends it as a new block with `summary`.
    /// The block becomes visible to fresh opens only at the next
    /// [`Segment::seal`]; until then the file has no valid footer.
    ///
    /// A block whose length does not fit the footer's `u32` is refused
    /// before it is compressed (the compressor's table positions are
    /// `u32` too).
    pub fn append_block(&mut self, raw: &[u8], summary: BlockSummary) -> io::Result<()> {
        let raw_len =
            u32::try_from(raw.len()).map_err(|_| corrupt(&self.path, "block larger than 4 GiB"))?;
        let comp = lz::compress(raw);
        let comp_len = u32::try_from(comp.len())
            .map_err(|_| corrupt(&self.path, "compressed block larger than 4 GiB"))?;
        let offset = self.data_end;
        {
            let mut file = self.file.borrow_mut();
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(&comp)?;
        }
        self.data_end = offset + u64::from(comp_len);
        self.blocks.push(BlockEntry {
            offset,
            comp_len,
            raw_len,
            summary,
        });
        self.sealed = false;
        Ok(())
    }

    /// Rewrites the footer + trailer after the data region, truncates
    /// the file there, and flushes. Idempotent.
    pub fn seal(&mut self) -> io::Result<()> {
        let mut footer = Vec::new();
        footer.extend_from_slice(&(self.blocks.len() as u64).to_le_bytes());
        for b in &self.blocks {
            footer.extend_from_slice(&b.offset.to_le_bytes());
            footer.extend_from_slice(&b.comp_len.to_le_bytes());
            footer.extend_from_slice(&b.raw_len.to_le_bytes());
            footer.extend_from_slice(&b.summary.count.to_le_bytes());
            footer.extend_from_slice(&b.summary.kind_mask.to_le_bytes());
            footer.extend_from_slice(&(b.summary.cols.len() as u32).to_le_bytes());
            for c in &b.summary.cols {
                footer.extend_from_slice(&c.min.to_le_bytes());
                footer.extend_from_slice(&c.max.to_le_bytes());
            }
        }
        let footer_len = u32::try_from(footer.len())
            .map_err(|_| corrupt(&self.path, "footer larger than 4 GiB"))?;
        let mut file = self.file.borrow_mut();
        file.seek(SeekFrom::Start(self.data_end))?;
        file.write_all(&footer)?;
        file.write_all(&footer_len.to_le_bytes())?;
        file.write_all(FOOT_MAGIC)?;
        let end = self.data_end + u64::from(footer_len) + TRAILER_LEN;
        file.set_len(end)?;
        file.flush()?;
        self.sealed = true;
        Ok(())
    }

    /// Drops every block from index `blocks` on and re-seals: the file
    /// is again byte for byte what a seal with `blocks` blocks wrote, so
    /// appends made since then are undone. Keeping at least as many
    /// blocks as there are only seals.
    pub fn truncate(&mut self, blocks: usize) -> io::Result<()> {
        if let Some(first_dropped) = self.blocks.get(blocks) {
            self.data_end = first_dropped.offset;
            self.blocks.truncate(blocks);
        }
        self.seal()
    }

    /// Footer entries for every block, in append order.
    #[must_use]
    pub fn blocks(&self) -> &[BlockEntry] {
        &self.blocks
    }

    /// Number of blocks in the segment.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total record count across all block summaries.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.blocks.iter().map(|b| b.summary.count).sum()
    }

    /// Bytes in the data region (compressed).
    #[must_use]
    pub fn compressed_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.comp_len)).sum()
    }

    /// Bytes across all blocks before compression.
    #[must_use]
    pub fn raw_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.raw_len)).sum()
    }

    /// Segment-level summary: the union of every block summary.
    #[must_use]
    pub fn rollup(&self) -> BlockSummary {
        let ncols = self.blocks.iter().map(|b| b.summary.cols.len()).max();
        let mut acc = BlockSummary::new(ncols.unwrap_or(0));
        for b in &self.blocks {
            acc = acc.merge(&b.summary);
        }
        acc
    }

    /// Decompresses block `index` back into its raw bytes.
    pub fn read_block(&self, index: usize) -> io::Result<Vec<u8>> {
        let entry = self
            .blocks
            .get(index)
            .ok_or_else(|| corrupt(&self.path, &format!("no block {index}")))?;
        let mut comp = vec![0u8; entry.comp_len as usize];
        {
            let mut file = self.file.borrow_mut();
            file.seek(SeekFrom::Start(entry.offset))?;
            file.read_exact(&mut comp)?;
        }
        lz::decompress(&comp, entry.raw_len as usize)
            .map_err(|e| corrupt(&self.path, &format!("block {index}: {e}")))
    }

    /// Path this segment lives at.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        if !self.sealed {
            let _ = self.seal();
        }
    }
}

fn parse_footer(path: &Path, footer: &[u8]) -> io::Result<Vec<BlockEntry>> {
    let mut pos = 0usize;
    let mut take = |n: usize| -> io::Result<&[u8]> {
        if pos + n > footer.len() {
            return Err(corrupt(path, "footer truncated"));
        }
        let s = &footer[pos..pos + n];
        pos += n;
        Ok(s)
    };
    let count = u64::from_le_bytes(take(8)?.try_into().unwrap());
    let mut blocks = Vec::new();
    for _ in 0..count {
        let offset = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let comp_len = u32::from_le_bytes(take(4)?.try_into().unwrap());
        let raw_len = u32::from_le_bytes(take(4)?.try_into().unwrap());
        let rec_count = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let kind_mask = u32::from_le_bytes(take(4)?.try_into().unwrap());
        let ncols = u32::from_le_bytes(take(4)?.try_into().unwrap());
        if ncols > 1024 {
            return Err(corrupt(path, "implausible column count"));
        }
        let mut cols = Vec::with_capacity(ncols as usize);
        for _ in 0..ncols {
            let min = f64::from_le_bytes(take(8)?.try_into().unwrap());
            let max = f64::from_le_bytes(take(8)?.try_into().unwrap());
            cols.push(ColRange { min, max });
        }
        blocks.push(BlockEntry {
            offset,
            comp_len,
            raw_len,
            summary: BlockSummary {
                count: rec_count,
                kind_mask,
                cols,
            },
        });
    }
    if pos != footer.len() {
        return Err(corrupt(path, "footer has trailing bytes"));
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ecofl-store-{tag}-{}-{n}.seg", std::process::id()))
    }

    fn summary_for(round: f64, count: u64) -> BlockSummary {
        let mut s = BlockSummary::new(2);
        s.count = count;
        s.kind_mask = 1;
        s.cols[0].include(round);
        s.cols[1].include(round * 10.0);
        s
    }

    #[test]
    fn create_append_seal_reopen_read() {
        let path = temp_path("basic");
        let payloads: Vec<Vec<u8>> = (0..5)
            .map(|i| format!("block {i} ").repeat(100).into_bytes())
            .collect();
        {
            let mut seg = Segment::create(&path).expect("create");
            for (i, p) in payloads.iter().enumerate() {
                seg.append_block(p, summary_for(i as f64, 100))
                    .expect("append");
            }
            seg.seal().expect("seal");
        }
        let seg = Segment::open(&path).expect("open");
        assert_eq!(seg.block_count(), 5);
        assert_eq!(seg.record_count(), 500);
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(&seg.read_block(i).expect("read"), p);
            assert_eq!(seg.blocks()[i].summary.cols[0].min, i as f64);
        }
        assert!(seg.compressed_bytes() < seg.raw_bytes());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_appends_after_last_seal() {
        let path = temp_path("reappend");
        {
            let mut seg = Segment::create(&path).expect("create");
            seg.append_block(b"first block payload", summary_for(0.0, 1))
                .expect("append");
        } // Drop seals.
        {
            let mut seg = Segment::open(&path).expect("reopen");
            assert_eq!(seg.block_count(), 1);
            seg.append_block(b"second block payload", summary_for(1.0, 1))
                .expect("append");
            seg.seal().expect("seal");
        }
        let seg = Segment::open(&path).expect("reopen 2");
        assert_eq!(seg.block_count(), 2);
        assert_eq!(seg.read_block(0).expect("read"), b"first block payload");
        assert_eq!(seg.read_block(1).expect("read"), b"second block payload");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_restores_the_bytes_of_the_earlier_seal() {
        let path = temp_path("truncate");
        let mut seg = Segment::create(&path).expect("create");
        seg.append_block(b"kept block", summary_for(0.0, 1))
            .expect("append");
        seg.seal().expect("seal");
        let sealed = fs::read(&path).expect("read sealed");
        for round in 1..4 {
            seg.append_block(b"a block to undo", summary_for(f64::from(round), 2))
                .expect("append");
        }
        seg.seal().expect("seal");
        seg.truncate(1).expect("truncate");
        assert_eq!(fs::read(&path).expect("read truncated"), sealed);
        assert_eq!((seg.block_count(), seg.record_count()), (1, 1));
        // Keeping every block only seals.
        seg.append_block(b"later block", summary_for(5.0, 1))
            .expect("append");
        seg.truncate(9).expect("truncate past the end");
        drop(seg);
        let seg = Segment::open(&path).expect("reopen");
        assert_eq!(seg.block_count(), 2);
        assert_eq!(seg.read_block(1).expect("read"), b"later block");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn unsealed_tail_is_discarded_on_open() {
        let path = temp_path("crashtail");
        {
            let mut seg = Segment::create(&path).expect("create");
            seg.append_block(b"sealed block", summary_for(0.0, 1))
                .expect("append");
            seg.seal().expect("seal");
        }
        // Simulate a crash mid-append: garbage after the sealed image.
        let sealed = fs::read(&path).expect("read file");
        let mut crashed = sealed.clone();
        crashed.extend_from_slice(b"partial unsynced block write......");
        fs::write(&path, &crashed).expect("write crashed image");
        // The trailer is no longer at EOF, so the sealed footer cannot
        // be located — the file reads as corrupt, never as wrong data.
        assert!(Segment::open(&path).is_err());
        // Restoring the sealed prefix recovers everything sealed.
        fs::write(&path, &sealed).expect("restore");
        let seg = Segment::open(&path).expect("open sealed");
        assert_eq!(seg.block_count(), 1);
        assert_eq!(seg.read_block(0).expect("read"), b"sealed block");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_segment_round_trips() {
        let path = temp_path("empty");
        Segment::create(&path).expect("create");
        let seg = Segment::open(&path).expect("open");
        assert_eq!(seg.block_count(), 0);
        assert_eq!(seg.record_count(), 0);
        assert_eq!(seg.rollup().count, 0);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let path = temp_path("badmagic");
        Segment::create(&path).expect("create");
        let mut bytes = fs::read(&path).expect("read");
        bytes[0] ^= 0xFF;
        fs::write(&path, &bytes).expect("write");
        assert!(Segment::open(&path).is_err());
        fs::remove_file(&path).ok();
    }

    /// A sealed three-block segment's bytes, and where block `index`'s
    /// footer entry starts in them.
    fn three_blocks(path: &Path) -> (Vec<u8>, impl Fn(usize) -> usize) {
        let mut seg = Segment::create(path).expect("create");
        for i in 0..3u8 {
            let payload = [i; 40];
            seg.append_block(&payload, summary_for(f64::from(i), 1))
                .expect("append");
        }
        seg.seal().expect("seal");
        let data_end = seg.data_end as usize;
        drop(seg);
        // Entry: offset u64, comp_len u32, raw_len u32, count u64,
        // kind_mask u32, ncols u32, two (min, max) column pairs.
        let entry_at = move |index: usize| data_end + 8 + index * (32 + 2 * 16);
        (fs::read(path).expect("read"), entry_at)
    }

    fn open_patched(path: &Path, bytes: &[u8], at: usize, patch: &[u8]) -> io::Result<Segment> {
        let mut bytes = bytes.to_vec();
        bytes[at..at + patch.len()].copy_from_slice(patch);
        fs::write(path, &bytes).expect("write");
        Segment::open(path)
    }

    #[test]
    fn every_footer_entry_is_bounds_checked_at_open() {
        let path = temp_path("entrybounds");
        let (bytes, entry_at) = three_blocks(&path);
        let offset_of =
            |i: usize| u64::from_le_bytes(bytes[entry_at(i)..entry_at(i) + 8].try_into().unwrap());
        assert_eq!(offset_of(0), HEADER_LEN);

        let cases: [(&str, usize, Vec<u8>); 5] = [
            // A middle entry's length flipped to 4 GiB − 1: `read_block`
            // would allocate it before reading a byte.
            (
                "past footer",
                entry_at(1) + 8,
                u32::MAX.to_le_bytes().into(),
            ),
            (
                "offset + len overflow",
                entry_at(1),
                u64::MAX.to_le_bytes().into(),
            ),
            ("inside header", entry_at(0), 4u64.to_le_bytes().into()),
            ("overlap", entry_at(2), offset_of(1).to_le_bytes().into()),
            (
                "out of order",
                entry_at(1),
                offset_of(2).to_le_bytes().into(),
            ),
        ];
        for (what, at, patch) in cases {
            let err = open_patched(&path, &bytes, at, &patch).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        // The unpatched image still opens and reads.
        let seg = open_patched(&path, &bytes, 0, &[]).expect("pristine");
        assert_eq!(seg.read_block(1).expect("read"), [1u8; 40]);
        drop(seg);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn col_range_math() {
        let mut r = ColRange::empty();
        assert!(r.is_empty());
        assert!(!r.intersects(f64::NEG_INFINITY, f64::INFINITY));
        r.include(3.0);
        r.include(7.0);
        assert!(r.intersects(0.0, 4.0)); // overlaps [3,7]
        assert!(r.intersects(7.0, 8.0)); // max == lo is inclusive
        assert!(!r.intersects(7.5, 9.0));
        assert!(!r.intersects(0.0, 3.0)); // half-open: hi == min excluded
        let merged = r.merge(&ColRange {
            min: -1.0,
            max: 2.0,
        });
        assert_eq!(merged.min, -1.0);
        assert_eq!(merged.max, 7.0);
    }

    #[test]
    fn rollup_merges_counts_masks_and_ranges() {
        let path = temp_path("rollup");
        let mut seg = Segment::create(&path).expect("create");
        let mut a = summary_for(1.0, 10);
        a.kind_mask = 0b01;
        let mut b = summary_for(5.0, 20);
        b.kind_mask = 0b10;
        seg.append_block(b"aaaa", a).expect("append");
        seg.append_block(b"bbbb", b).expect("append");
        let roll = seg.rollup();
        assert_eq!(roll.count, 30);
        assert_eq!(roll.kind_mask, 0b11);
        assert_eq!(roll.cols[0].min, 1.0);
        assert_eq!(roll.cols[0].max, 5.0);
        drop(seg);
        fs::remove_file(&path).ok();
    }
}
