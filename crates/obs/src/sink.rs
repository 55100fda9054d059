//! Trace output locations.
//!
//! Flat-JSONL persistence lived here until PR 7 replaced it with the
//! segmented [`RunStore`](crate::store::RunStore); the deprecated
//! `write_jsonl`/`read_jsonl` wrappers have now been removed after
//! their one-release compatibility window. Use
//! `RunStore::append` + `export_jsonl` to produce a flat file and
//! `RunStore::records` (or a `TraceQuery`) to read one back.

use std::path::PathBuf;

/// Directory where traces are written.
///
/// Defaults to `target/ecofl-results/trace/` next to the bench
/// harness's JSON series; the `ECOFL_TRACE_DIR` environment variable
/// overrides it (read on every call), so tests and CI can isolate
/// their outputs instead of colliding in the shared default under
/// parallel `cargo test`.
///
/// Only the path is returned; the directory is created by whoever writes
/// into it (`RunStore::open_or_create` does), so a path that cannot be
/// created surfaces as that writer's I/O error.
#[must_use]
pub fn trace_dir() -> PathBuf {
    match std::env::var_os("ECOFL_TRACE_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/ecofl-results/trace"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ecofl-sink-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn trace_dir_honors_env_override() {
        // This is the only test in the workspace that touches
        // ECOFL_TRACE_DIR, so the process-global env var is safe here.
        let dir = temp_dir("envdir");
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
