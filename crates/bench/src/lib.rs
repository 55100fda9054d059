//! # ecofl-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§6). Each bench target (`benches/`) is a
//! stand-alone `harness = false` binary that prints the paper's rows or
//! series and writes a machine-readable JSON next to it under
//! `target/ecofl-results/`.
//!
//! Shared helpers live here: result output and table formatting. These
//! targets check the figures' shapes; performance across commits is
//! measured in one place, the benchmark under `benchmark/`
//! (`benchmark/run.sh`, declared in `BENCHMARK.json`).

use ecofl_compat::json;
use ecofl_compat::serde::Serialize;
use std::path::PathBuf;

/// Directory where bench targets drop their JSON series.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/ecofl-results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a JSON result file for a figure/table id (e.g. `"fig7"`).
///
/// # Panics
/// Panics if serialization or the write fails.
pub fn write_json<T: Serialize>(id: &str, value: &T) {
    let path = results_dir().join(format!("{id}.json"));
    let json = json::to_string_pretty(value).expect("serialize result");
    std::fs::write(&path, json).expect("write result file");
    println!("\n[written] {}", path.display());
}

/// Prints a section header in the bench output.
pub fn header(title: &str) {
    println!("\n==== {title} ====");
}

/// Formats an accuracy-vs-time series as aligned rows.
pub fn print_series(name: &str, points: &[(f64, f64)], unit: &str) {
    println!("--- {name} ---");
    for (t, v) in points {
        println!("  t = {t:8.1}s   {v:8.3} {unit}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists() {
        let d = results_dir();
        assert!(d.is_dir());
    }

    #[test]
    fn write_json_round_trips() {
        write_json("selftest", &vec![1, 2, 3]);
        let content = std::fs::read_to_string(results_dir().join("selftest.json")).unwrap();
        let back: Vec<i32> = json::from_str(&content).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
    }
}
