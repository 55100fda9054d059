//! # ecofl-store
//!
//! The storage substrate of the Eco-FL run store: a **segment** is one
//! append-only file of length-prefixed compressed blocks, each carrying
//! a per-column min/max/count summary, rolled up into a footer that is
//! re-sealed after every append batch. Readers prune whole blocks by
//! summary before paying for decompression — the databend-style
//! "block stats into a segment info" layout, scaled down to a single
//! hermetic std-only crate.
//!
//! This crate is deliberately payload-agnostic: a block is `&[u8]` plus
//! a [`BlockSummary`]. The typed layer — trace records, checkpoint
//! records, query predicates — lives in `ecofl-obs::store`, which keeps
//! the dependency arrow pointing one way (`obs` → `store`).
//!
//! ## File layout
//!
//! ```text
//! "ECOFLSG1" | version u32                              -- header (12 B)
//! block 0 bytes (LZ-compressed) | block 1 bytes | ...   -- data region
//! entry count u64                                        ┐
//! per block: offset u64, comp_len u32, raw_len u32,      │ footer
//!            count u64, kind_mask u32, ncols u32,        │
//!            (min f64, max f64) × ncols                  ┘
//! footer_len u32 | "ECOFLFT1"                           -- trailer (12 B)
//! ```
//!
//! A segment is readable after [`Segment::seal`]: reopening parses the
//! trailer, truncates any bytes past the footer start, and appends from
//! there. An append writes over the footer, so the file is readable only
//! while sealed; nothing is fsynced (see [`Segment`] for what a seal
//! guarantees).

pub mod lz;
mod segment;

pub use segment::{BlockEntry, BlockSummary, ColRange, Segment};
