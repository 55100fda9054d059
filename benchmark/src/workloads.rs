//! The six workloads: each a fixed list of distinct ops, one op being
//! one `ecofl …` invocation. `--seed S` only derives the `--seed` flags
//! handed to the CLI (`S·1000 + i`); the program sees generated flags
//! and nothing else. README.md records why each workload exists and how
//! its op list was sized.

use crate::cliout::Check;

/// Workload names, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 6] = [
    "fl_paper_300",
    "fl_census_1m",
    "pipeline_plan",
    "rt_1f1b_recover",
    "trace_write",
    "trace_query",
];

/// Where an op's `{store}` placeholder points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreUse {
    /// The op names no store.
    None,
    /// A fresh directory for every run of the op: `RunStore` appends to
    /// an existing store, so reuse would grow the work pass by pass.
    Fresh,
    /// The store set-up built with `Workload::builds[i]`.
    Built(usize),
}

/// One `ecofl` invocation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Op class: names the `cli.<class>_ms` layer metric and selects the
    /// representative op of a `--smoke` run.
    pub class: &'static str,
    /// `ecofl` arguments; `{store}` stands for the op's store directory.
    pub args: Vec<String>,
    /// What the op's stdout must satisfy.
    pub check: Check,
    /// How `{store}` is resolved.
    pub store: StoreUse,
}

impl Op {
    /// The value following `--key` in the op's arguments.
    #[must_use]
    pub fn flag(&self, key: &str) -> Option<&str> {
        let at = self
            .args
            .iter()
            .position(|a| a.strip_prefix("--") == Some(key))?;
        self.args.get(at + 1).map(String::as_str)
    }
}

/// A workload: the timed ops plus the store builders set-up runs first.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Timed ops, run in this order once per pass.
    pub ops: Vec<Op>,
    /// Untimed ops set-up runs once to build the stores `ops` query.
    pub builds: Vec<Op>,
}

fn op(class: &'static str, check: Check, store: StoreUse, args: &[&str]) -> Op {
    Op {
        class,
        args: args.iter().map(|a| (*a).to_owned()).collect(),
        check,
        store,
    }
}

/// The five registered pipeline schedules, as the CLI spells them.
pub const SCHEDULES: [&str; 5] = ["1f1b", "gpipe", "async", "interleaved", "zb"];

/// Sync-rounds each `trace_write` op records.
pub const TRACE_WRITE_ROUNDS: usize = 100;
/// Sync-rounds in each store `trace_query` reads.
pub const TRACE_QUERY_ROUNDS: usize = 160;
/// Schedules whose stores `trace_query` builds in set-up: plain spans,
/// virtual-stage spans (twice the records) and split-backward spans.
pub const TRACE_QUERY_SCHEDULES: [&str; 3] = ["1f1b", "interleaved", "zb"];
/// Rounds of one `rt_1f1b_recover` op; the kill lands half-way.
pub const RT_ROUNDS: u64 = 2000;

/// The recording `ecofl trace` invocation shared by `trace_write`'s ops
/// and `trace_query`'s store builders.
fn trace_record_op(schedule: &str, rounds: usize) -> Op {
    op(
        "trace_write",
        Check::TraceWrite,
        StoreUse::Fresh,
        &[
            "trace",
            "--model",
            "effnet-b4",
            "--devices",
            "tx2q,tx2n,nanoh,nanoh",
            "--mbs",
            "4",
            "--micro-batches",
            "32",
            "--rounds",
            &rounds.to_string(),
            "--schedule",
            schedule,
            "--store",
            "{store}",
        ],
    )
}

/// Builds workload `name` for harness seed `seed`; `None` for an
/// unknown name.
#[must_use]
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let cli_seed = |i: u64| (seed.wrapping_mul(1000).wrapping_add(i)).to_string();
    let (name, ops, builds) = match name {
        "fl_paper_300" => {
            // §6.1: 300 clients, 20 per round, 5 latency groups, the full
            // baseline line-up, on two synthetic datasets.
            let strategies = [
                ("fl_ecofl", "ecofl"),
                ("fl_fedavg", "fedavg"),
                ("fl_fedasync", "fedasync"),
                ("fl_fedat", "fedat"),
                ("fl_astraea", "astraea"),
                ("fl_ecofl_static", "ecofl-static"),
            ];
            let mut ops = Vec::new();
            for (d, dataset) in ["cifar", "fashion"].into_iter().enumerate() {
                for (class, strategy) in strategies {
                    ops.push(op(
                        class,
                        Check::Fl { paper_scale: true },
                        StoreUse::None,
                        &[
                            "fl",
                            "--strategy",
                            strategy,
                            "--clients",
                            "300",
                            "--clients-per-round",
                            "20",
                            "--groups",
                            "5",
                            "--horizon",
                            "3000",
                            "--dataset",
                            dataset,
                            "--seed",
                            &cli_seed(d as u64),
                        ],
                    ));
                }
            }
            ("fl_paper_300", ops, Vec::new())
        }
        "fl_census_1m" => {
            // One million virtual clients on 64 data shards: ≈40 updates
            // of a handful of clients, so grouping, the event queue and
            // snapshot memory dominate instead of training.
            let ops = [
                ("fl_ecofl", "ecofl"),
                ("fl_fedat", "fedat"),
                ("fl_fedavg", "fedavg"),
            ]
            .into_iter()
            .map(|(class, strategy)| {
                op(
                    class,
                    Check::Fl { paper_scale: false },
                    StoreUse::None,
                    &[
                        "fl",
                        "--strategy",
                        strategy,
                        "--clients",
                        "1000000",
                        "--shards",
                        "64",
                        "--horizon",
                        "800",
                        "--seed",
                        &cli_seed(0),
                    ],
                )
            })
            .collect();
            ("fl_census_1m", ops, Vec::new())
        }
        "pipeline_plan" => {
            // §4.2–4.3 in virtual time: 120 / 720 device orders × 4
            // micro-batch sizes. `plan` takes no seed.
            let mut ops = Vec::new();
            for (class, devices, count) in [
                ("plan_5dev", "tx2q,tx2n,nanoh,nanoh,nanol", 5),
                ("plan_6dev", "tx2q,tx2n,tx2n,nanoh,nanoh,nanol", 6),
            ] {
                for model in [
                    "effnet-b4",
                    "effnet-b6",
                    "effnet-b6@380",
                    "mobilenet-w3",
                    "mobilenet-w3@380",
                ] {
                    ops.push(op(
                        class,
                        Check::Plan { devices: count },
                        StoreUse::None,
                        &[
                            "plan",
                            "--model",
                            model,
                            "--batch",
                            "256",
                            "--devices",
                            devices,
                        ],
                    ));
                }
            }
            ("pipeline_plan", ops, Vec::new())
        }
        "rt_1f1b_recover" => {
            // The only CLI path onto the threaded runtime: a twin run,
            // a run with one stage killed mid-round, recover and replay.
            let rounds = RT_ROUNDS.to_string();
            let kill_round = (RT_ROUNDS / 2).to_string();
            let ops = ["0", "1"]
                .into_iter()
                .map(|stage| {
                    op(
                        "spike_kill",
                        Check::SpikeKill,
                        StoreUse::None,
                        &[
                            "spike",
                            "--devices",
                            "tx2q,nanoh",
                            "--rounds",
                            &rounds,
                            "--kill-round",
                            &kill_round,
                            "--kill-micro",
                            "1",
                            "--kill-stage",
                            stage,
                            "--seed",
                            &cli_seed(0),
                        ],
                    )
                })
                .collect();
            ("rt_1f1b_recover", ops, Vec::new())
        }
        "trace_write" => {
            let ops = SCHEDULES
                .into_iter()
                .map(|s| trace_record_op(s, TRACE_WRITE_ROUNDS))
                .collect();
            ("trace_write", ops, Vec::new())
        }
        "trace_query" => {
            let builds: Vec<Op> = TRACE_QUERY_SCHEDULES
                .into_iter()
                .map(|s| trace_record_op(s, TRACE_QUERY_ROUNDS))
                .collect();
            let last = TRACE_QUERY_ROUNDS;
            let ranges = [
                "10..20".to_owned(),
                format!("{}..{}", last / 2 - 10, last / 2 + 10),
                format!("{}..{}", last - 10, last),
            ];
            let mut ops = Vec::new();
            for store in 0..builds.len() {
                let store = StoreUse::Built(store);
                let base = ["trace", "--store", "{store}", "--limit", "1"];
                ops.push(op("query_scan", Check::QueryScan, store, &base));
                for range in &ranges {
                    let mut args = base.to_vec();
                    args.extend(["--rounds", range]);
                    ops.push(op("query_pruned", Check::QueryRounds, store, &args));
                }
                for filter in [["--kind", "event"], ["--min-duration", "1.0"]] {
                    let mut args = base.to_vec();
                    args.extend(filter);
                    ops.push(op("query_filter", Check::QueryFilter, store, &args));
                }
            }
            ("trace_query", ops, builds)
        }
        _ => return None,
    };
    Some(Workload { name, ops, builds })
}

impl Workload {
    /// The `--smoke` cut: the first op of each class (and only the store
    /// builders those ops read).
    #[must_use]
    pub fn smoke(mut self) -> Workload {
        let mut seen: Vec<&'static str> = Vec::new();
        self.ops.retain(|op| {
            let first = !seen.contains(&op.class);
            if first {
                seen.push(op.class);
            }
            first
        });
        // Builders are addressed by index, so keep the prefix in use.
        let used = self
            .ops
            .iter()
            .filter_map(|op| match op.store {
                StoreUse::Built(i) => Some(i + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        self.builds.truncate(used);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_and_is_seed_deterministic() {
        for name in WORKLOADS {
            let a = build(name, 7).unwrap();
            let b = build(name, 7).unwrap();
            assert_eq!(a.name, name);
            assert!(!a.ops.is_empty());
            let args = |w: &Workload| w.ops.iter().map(|o| o.args.clone()).collect::<Vec<_>>();
            assert_eq!(args(&a), args(&b), "{name}: same seed, same inputs");
        }
        assert!(build("nope", 1).is_none());
    }

    #[test]
    fn seed_reaches_the_cli_only_as_seed_flags() {
        let a = build("fl_paper_300", 1).unwrap();
        let b = build("fl_paper_300", 2).unwrap();
        assert_eq!(a.ops.len(), 12);
        for (x, y) in a.ops.iter().zip(&b.ops) {
            let seed_at = x.args.iter().position(|s| s == "--seed").unwrap() + 1;
            assert_ne!(x.args[seed_at], y.args[seed_at]);
            let strip = |o: &Op| {
                let mut v = o.args.clone();
                v.remove(seed_at);
                v
            };
            assert_eq!(strip(x), strip(y));
        }
        assert_eq!(a.ops[0].args.last().unwrap(), "1000");
        assert_eq!(a.ops[6].args.last().unwrap(), "1001");
    }

    #[test]
    fn op_counts_and_store_wiring() {
        assert_eq!(build("fl_census_1m", 1).unwrap().ops.len(), 3);
        assert_eq!(build("pipeline_plan", 1).unwrap().ops.len(), 10);
        assert_eq!(build("rt_1f1b_recover", 1).unwrap().ops.len(), 2);
        let w = build("trace_write", 1).unwrap();
        assert_eq!(w.ops.len(), 5);
        assert!(w.ops.iter().all(|o| o.store == StoreUse::Fresh));
        let q = build("trace_query", 1).unwrap();
        assert_eq!((q.builds.len(), q.ops.len()), (3, 18));
        assert!(q
            .ops
            .iter()
            .all(|o| matches!(o.store, StoreUse::Built(i) if i < q.builds.len())));
    }

    #[test]
    fn smoke_keeps_one_op_per_class() {
        let w = build("fl_paper_300", 1).unwrap().smoke();
        assert_eq!(w.ops.len(), 6);
        let q = build("trace_query", 1).unwrap().smoke();
        assert_eq!((q.builds.len(), q.ops.len()), (1, 3));
    }
}
