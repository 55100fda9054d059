//! `e2e compare A.json B.json`: applies the regression bounds to every
//! (end-to-end metric, workload) pair of two `run.sh --out` records.

use crate::json::Json;
use std::fmt::Write as _;

/// Which way a metric improves, and how far it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of A's value by which B may be worse. `fail_share` uses 0
    /// with [`Bound::absolute`]: any increase is a breach.
    pub share: f64,
    /// Compare the difference itself, not its share of A (for a metric
    /// whose healthy value is 0).
    pub absolute: bool,
}

/// Bounds of the metrics the harness reports beyond `BENCHMARK.json`'s
/// `end_to_end` list. They cannot live there: every listed metric must
/// be reported by every workload and never read 0.
const EXTRA_BOUNDS: [(&str, Bound); 3] = [
    (
        "fail_share",
        Bound {
            lower_is_better: true,
            share: 0.0,
            absolute: true,
        },
    ),
    (
        "sim_best_acc",
        Bound {
            lower_is_better: false,
            share: 0.02,
            absolute: false,
        },
    ),
    (
        "sim_plan_sps",
        Bound {
            lower_is_better: false,
            share: 0.02,
            absolute: false,
        },
    ),
];

/// Reads the `end_to_end` bounds out of a parsed `BENCHMARK.json` and
/// adds [`EXTRA_BOUNDS`].
///
/// # Errors
/// If the document lacks a well-formed `end_to_end` list.
pub fn bounds_from(benchmark: &Json) -> Result<Vec<(String, Bound)>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    let mut bounds = Vec::new();
    for entry in list {
        let field = |k: &str| {
            entry
                .get(k)
                .ok_or(format!("BENCHMARK.json: metric without '{k}'"))
        };
        let name = field("name")?
            .as_str()
            .ok_or("BENCHMARK.json: name is not a string")?;
        let lower_is_better = match field("better")?.as_str() {
            Some("lower") => true,
            Some("higher") => false,
            _ => {
                return Err(format!(
                    "BENCHMARK.json: {name}: better must be lower|higher"
                ))
            }
        };
        let share = field("bound")?
            .as_f64()
            .filter(|b| (0.0..=1.0).contains(b))
            .ok_or(format!("BENCHMARK.json: {name}: bad bound"))?;
        bounds.push((
            name.to_owned(),
            Bound {
                lower_is_better,
                share,
                absolute: false,
            },
        ));
    }
    bounds.extend(EXTRA_BOUNDS.iter().map(|(n, b)| ((*n).to_owned(), *b)));
    Ok(bounds)
}

/// By how much `b` is worse than `a` under `bound` (negative when it is
/// better), and whether that breaches the bound.
#[must_use]
pub fn judge(bound: Bound, a: f64, b: f64) -> (f64, bool) {
    let worse_by = if bound.lower_is_better { b - a } else { a - b };
    if bound.absolute {
        return (worse_by, worse_by > bound.share);
    }
    if a == 0.0 {
        // No base to take a share of: any worsening at all is a breach.
        return (worse_by, worse_by > 0.0);
    }
    let share = worse_by / a.abs();
    (share, share > bound.share)
}

/// The comparison table and whether any bound was breached.
#[derive(Debug)]
pub struct Comparison {
    pub text: String,
    pub breaches: usize,
    pub digests_changed: usize,
}

fn e2e_of<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("workloads")?.get(workload)?.get("e2e")
}

/// Compares record `b` against base `a`, one row per (workload, metric).
/// `sim_digest` changes are listed apart and never count as breaches: a
/// semantic fix must be able to land.
///
/// # Errors
/// If either document is not a `run.sh --out` record.
pub fn compare(a: &Json, b: &Json, bounds: &[(String, Bound)]) -> Result<Comparison, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("A: not a run record (no workloads)")?;
    if b.get("workloads").and_then(Json::as_obj).is_none() {
        return Err("B: not a run record (no workloads)".into());
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<16} {:<13} {:>14} {:>14} {:>9}  {:<18} verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    let mut breaches = 0;
    let mut changed = Vec::new();
    let mut rows = 0;
    for name in workloads.keys() {
        let (Some(ea), Some(eb)) = (e2e_of(a, name), e2e_of(b, name)) else {
            let _ = writeln!(text, "{name:<16} only in one record — skipped");
            continue;
        };
        for (metric, bound) in bounds {
            let value = |e: &Json| e.get("metrics")?.get(metric)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(ea), value(eb)) else {
                continue;
            };
            let (worse_by, breach) = judge(*bound, va, vb);
            breaches += usize::from(breach);
            rows += 1;
            let ratio = if va == 0.0 {
                "n/a".to_owned()
            } else {
                format!("{:.4}", vb / va)
            };
            let limit = if bound.absolute {
                format!("≤ +{} absolute", bound.share)
            } else {
                format!(
                    "{} by ≤ {:.1}%",
                    if bound.lower_is_better { "up" } else { "down" },
                    bound.share * 100.0
                )
            };
            let verdict = if breach {
                format!("BREACH (worse by {worse_by:+.4})")
            } else {
                "ok".to_owned()
            };
            let _ = writeln!(
                text,
                "{name:<16} {metric:<13} {va:>14.6} {vb:>14.6} {ratio:>9}  {limit:<18} {verdict}"
            );
        }
        let digest = |e: &Json| {
            e.get("sim_digest")
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        if digest(ea) != digest(eb) {
            changed.push(name.clone());
        }
    }
    if rows == 0 {
        return Err("the two records share no (workload, metric) pair".into());
    }
    if changed.is_empty() {
        let _ = writeln!(text, "sim_digest: identical on every workload");
    } else {
        let _ = writeln!(
            text,
            "sim_digest: SIMULATED RESULTS CHANGED on {} (reported, not a breach)",
            changed.join(", ")
        );
    }
    let _ = writeln!(
        text,
        "{breaches} breach(es) in {rows} row(s); ratios are B over base A"
    );
    Ok(Comparison {
        text,
        breaches,
        digests_changed: changed.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(share: f64) -> Bound {
        Bound {
            lower_is_better: true,
            share,
            absolute: false,
        }
    }

    #[test]
    fn bound_logic_lower_and_higher() {
        // 10 % bound, lower is better: 1.00 → 1.09 holds, 1.11 breaches.
        assert!(!judge(lower(0.10), 1.0, 1.09).1);
        assert!(judge(lower(0.10), 1.0, 1.11).1);
        assert!(
            !judge(lower(0.10), 1.0, 0.5).1,
            "an improvement never breaches"
        );
        let higher = Bound {
            lower_is_better: false,
            share: 0.02,
            absolute: false,
        };
        assert!(!judge(higher, 0.90, 0.883).1);
        assert!(judge(higher, 0.90, 0.88).1);
        assert!(!judge(higher, 0.90, 0.95).1);
    }

    #[test]
    fn fail_share_bound_is_absolute_zero() {
        let fail = EXTRA_BOUNDS[0].1;
        assert!(!judge(fail, 0.0, 0.0).1);
        assert!(judge(fail, 0.0, 0.01).1, "any new failure breaches");
        assert!(!judge(fail, 0.05, 0.0).1);
    }

    fn record(wall: f64, fail: f64, digest: &str) -> Json {
        let m =
            |v: f64, u: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::Str(u.into()))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "pipeline_plan",
                Json::obj([(
                    "e2e",
                    Json::obj([
                        (
                            "metrics",
                            Json::obj([("wall_s", m(wall, "s")), ("fail_share", m(fail, "ratio"))]),
                        ),
                        ("sim_digest", Json::Str(digest.into())),
                    ]),
                )]),
            )]),
        )])
    }

    fn test_bounds() -> Vec<(String, Bound)> {
        let benchmark = Json::parse(
            r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        bounds_from(&benchmark).unwrap()
    }

    #[test]
    fn compare_flags_breaches_and_digests_separately() {
        let bounds = test_bounds();
        let same = compare(&record(3.0, 0.0, "aa"), &record(3.2, 0.0, "aa"), &bounds).unwrap();
        assert_eq!((same.breaches, same.digests_changed), (0, 0));
        let slow = compare(&record(3.0, 0.0, "aa"), &record(3.4, 0.0, "bb"), &bounds).unwrap();
        assert_eq!((slow.breaches, slow.digests_changed), (1, 1));
        assert!(slow.text.contains("BREACH"));
        assert!(slow
            .text
            .contains("SIMULATED RESULTS CHANGED on pipeline_plan"));
        let failing = compare(&record(3.0, 0.0, "aa"), &record(3.0, 0.02, "aa"), &bounds).unwrap();
        assert_eq!(failing.breaches, 1);
    }

    #[test]
    fn compare_rejects_documents_that_are_not_records() {
        let bounds = test_bounds();
        assert!(compare(&Json::Null, &record(1.0, 0.0, "a"), &bounds).is_err());
        assert!(compare(
            &record(1.0, 0.0, "a"),
            &Json::obj([("x", Json::Null)]),
            &bounds
        )
        .is_err());
        assert!(bounds_from(&Json::obj([("end_to_end", Json::Arr(vec![Json::Null]))])).is_err());
    }
}
