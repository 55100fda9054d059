//! Recording a run into a run store.
//!
//! [`record_trace`] hands a run a tracer that writes into the store as it
//! records, one block at a time, so the trace is never held whole; the
//! `ecofl trace` scenarios and [`EcoFlSystem::run`] both record through
//! it, and nothing else writes a store.
//!
//! [`EcoFlSystem::run`]: crate::system::EcoFlSystem::run

use crate::error::EcoFlError;
use ecofl_obs::{RunStore, TraceQuery, TraceRecord, Tracer};
use std::path::{Path, PathBuf};

/// Records per trace block unless `--block-records` says otherwise.
pub(crate) const BLOCK_RECORDS: usize = 512;

/// Maps an I/O error of the run store at `dir` to a typed error naming it.
pub(crate) fn store_err(dir: &Path) -> impl Fn(std::io::Error) -> EcoFlError + '_ {
    move |e| EcoFlError::Io(format!("run store {}: {e}", dir.display()))
}

/// A trace a run recorded into its run store.
#[derive(Debug)]
pub struct Stored<T> {
    /// What the run returned.
    pub run: T,
    /// The store's directory.
    pub dir: PathBuf,
    /// The sealed store.
    pub store: RunStore,
    /// Trace blocks the store held before this run's.
    first_block: usize,
}

impl<T> Stored<T> {
    /// Reads back this run's trace blocks whose summary `query` admits —
    /// a store an earlier run recorded into holds that run's blocks
    /// first — handing each block's records to `visit`, in order.
    pub(crate) fn read_own_blocks(
        &self,
        query: &TraceQuery,
        mut visit: impl FnMut(Vec<TraceRecord>),
    ) -> Result<(), EcoFlError> {
        let blocks = self.store.trace_blocks().iter().enumerate();
        for (i, block) in blocks.skip(self.first_block) {
            if query.admits(&block.summary) {
                visit(
                    self.store
                        .read_block_records(i)
                        .map_err(store_err(&self.dir))?,
                );
            }
        }
        Ok(())
    }
}

/// Runs `run` with a tracer that writes into the run store at `dir`
/// (opened, or created) as it records, in blocks of `block_records`
/// records, then seals the store. A run that fails leaves the store as it
/// found it: the tracer cuts off the blocks it wrote, and a directory
/// this call created is removed.
pub(crate) fn record_trace<T>(
    dir: &Path,
    block_records: usize,
    run: impl FnOnce(&Tracer) -> Result<T, EcoFlError>,
) -> Result<Stored<T>, EcoFlError> {
    // The outermost directory this call creates, if any.
    let created = dir
        .ancestors()
        .take_while(|d| !d.as_os_str().is_empty() && !d.exists())
        .last()
        .map(Path::to_path_buf);
    let recorded = RunStore::open_or_create(dir)
        .map_err(store_err(dir))
        .and_then(|store| {
            let store = store.with_block_records(block_records);
            let first_block = store.trace_blocks().len();
            let tracer = Tracer::from(store);
            let out = run(&tracer)?;
            let store = tracer.into_store().map_err(store_err(dir))?;
            Ok((out, store, first_block))
        });
    let (run, store, first_block) = recorded.inspect_err(|_| {
        if let Some(created) = &created {
            let _ = std::fs::remove_dir_all(created);
        }
    })?;
    Ok(Stored {
        run,
        dir: dir.to_path_buf(),
        store,
        first_block,
    })
}
