//! # ecofl-benchmark
//!
//! The repo benchmark's std-only half. The `e2e` binary is built from
//! this library alone: it drives the release `ecofl` CLI as child
//! processes and this package names no dependency, so it keeps building —
//! and keeps gating — whatever a refactor does to the crates.
//! The `layers` binary (the package in `layers/`) is the traced run and does
//! link them. `README.md` has the design; `../BENCHMARK.json` the
//! contract.

pub mod cliout;
pub mod compare;
pub mod harness;
pub mod json;
pub mod rusage;
pub mod stats;
pub mod workloads;

use std::collections::HashMap;

/// `--key value` pairs and bare `--flag`s after a subcommand, the same
/// dependency-free convention as the `ecofl` CLI. A flag is a `--key`
/// followed by another `--key` or by nothing.
#[must_use]
pub fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            match args.get(i + 1) {
                Some(value) if !value.starts_with("--") => {
                    map.insert(key.to_owned(), value.clone());
                    i += 2;
                    continue;
                }
                _ => {
                    map.insert(key.to_owned(), String::new());
                }
            }
        }
        i += 1;
    }
    map
}

/// Parses flag `key` with a default.
///
/// # Errors
/// If the value is present but does not parse.
pub fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for --{key}: '{v}'")),
    }
}

/// Test support: the release `ecofl` binary the process-level tests
/// drive. `run.sh` builds it; `ECOFL_BIN` overrides the search.
#[cfg(test)]
pub(crate) fn ecofl_bin_for_tests() -> std::path::PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut candidates = Vec::new();
    if let Ok(bin) = std::env::var("ECOFL_BIN") {
        candidates.push(std::path::PathBuf::from(bin));
    }
    if let Ok(target) = std::env::var("CARGO_TARGET_DIR") {
        candidates.push(std::path::Path::new(&target).join("release/ecofl"));
    }
    candidates.push(manifest.join("../target/release/ecofl"));
    candidates
        .into_iter()
        .find(|p| p.is_file())
        .expect("no release ecofl binary: run `cargo build --release --offline` at the repo root (or set ECOFL_BIN)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_and_pairs() {
        let args: Vec<String> = ["--workload", "trace_query", "--smoke", "--seed", "3", "--x"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let f = parse_flags(&args);
        assert_eq!(f["workload"], "trace_query");
        assert!(f.contains_key("smoke") && f.contains_key("x"));
        assert_eq!(flag(&f, "seed", 1u64), Ok(3));
        assert_eq!(flag(&f, "seconds", 12.0f64), Ok(12.0));
        assert!(flag(&f, "workload", 1u64).is_err());
    }
}
