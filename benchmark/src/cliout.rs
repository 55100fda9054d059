//! Parsers for the `ecofl` CLI's stdout and the invariants each op's
//! output must satisfy. The checks are invariants, not goldens: a
//! semantic fix that moves a simulated number must be able to land, but
//! an op that prints nonsense must count as failed.

/// What an op's stdout is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// `ecofl devices`: the four Table 1 rows.
    Devices,
    /// `ecofl fl …`; at `paper_scale` (300 clients, horizon 3000) the
    /// model must also have learned (`best > 0.2`).
    Fl { paper_scale: bool },
    /// `ecofl plan …` over `devices` devices.
    Plan { devices: usize },
    /// `ecofl spike --kill-stage …` (threaded runtime, §4.4 recovery).
    SpikeKill,
    /// `ecofl trace --model … --store DIR` (records a run store).
    TraceWrite,
    /// `ecofl trace --store DIR` with no filter: a full scan.
    QueryScan,
    /// `ecofl trace --store DIR --rounds a..b`: must prune blocks.
    QueryRounds,
    /// `ecofl trace --store DIR` with a kind or duration filter.
    QueryFilter,
}

/// The numbers a check extracted, for the `sim_*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Extract {
    /// `best` accuracy of an fl op, fraction.
    pub best_acc: Option<f64>,
    /// `throughput` of a plan op, samples/s.
    pub plan_sps: Option<f64>,
}

/// Parses `stdout` for `check` and applies its invariants.
///
/// # Errors
/// The first violated invariant or unparseable line, as a message.
pub fn verify(check: Check, stdout: &str) -> Result<Extract, String> {
    let mut extract = Extract::default();
    match check {
        Check::Devices => {
            let rows = parse_devices(stdout)?;
            if rows != 4 {
                return Err(format!("devices: expected 4 catalog rows, got {rows}"));
            }
        }
        Check::Fl { paper_scale } => {
            let r = parse_fl(stdout)?;
            r.check(paper_scale)?;
            extract.best_acc = Some(r.best);
        }
        Check::Plan { devices } => {
            let r = parse_plan(stdout)?;
            r.check(devices)?;
            extract.plan_sps = Some(r.throughput);
        }
        Check::SpikeKill => parse_spike_kill(stdout)?.check()?,
        Check::TraceWrite => parse_trace_write(stdout)?.check()?,
        Check::QueryScan | Check::QueryRounds | Check::QueryFilter => {
            parse_query(stdout)?.check(check)?;
        }
    }
    Ok(extract)
}

/// Number of device rows `ecofl devices` printed.
///
/// # Errors
/// If the header line is missing.
pub fn parse_devices(stdout: &str) -> Result<usize, String> {
    let mut lines = stdout.lines();
    if lines.next() != Some("Table 1 device catalog:") {
        return Err("devices: missing catalog header".into());
    }
    Ok(lines.filter(|l| l.contains("GFLOPs/s")).count())
}

/// The result of one `ecofl fl` run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlResult {
    /// Resampled accuracy curve, fractions.
    pub curve: Vec<f64>,
    /// Best accuracy, fraction.
    pub best: f64,
    /// Accuracy at the horizon, fraction.
    pub final_acc: f64,
    /// Global model updates.
    pub updates: u64,
    /// Re-grouping events.
    pub regroups: u64,
}

fn percent(text: &str) -> Option<f64> {
    text.trim()
        .strip_suffix('%')?
        .trim()
        .parse::<f64>()
        .ok()
        .map(|p| p / 100.0)
}

fn leading_u64(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Parses the accuracy curve and the `best … | final … | … updates |
/// … regroups` result line.
///
/// # Errors
/// If the result line is missing or malformed.
pub fn parse_fl(stdout: &str) -> Result<FlResult, String> {
    let curve = stdout
        .lines()
        .filter_map(|l| l.split_once("accuracy").and_then(|(_, p)| percent(p)))
        .collect();
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with("best "))
        .ok_or("fl: no result line")?;
    let parts: Vec<&str> = line.split('|').map(str::trim).collect();
    let bad = || format!("fl: malformed result line '{}'", line.trim());
    if parts.len() != 4 {
        return Err(bad());
    }
    Ok(FlResult {
        curve,
        best: parts[0]
            .strip_prefix("best")
            .and_then(percent)
            .ok_or_else(bad)?,
        final_acc: parts[1]
            .strip_prefix("final")
            .and_then(percent)
            .ok_or_else(bad)?,
        updates: leading_u64(parts[2]).ok_or_else(bad)?,
        regroups: leading_u64(parts[3]).ok_or_else(bad)?,
    })
}

impl FlResult {
    /// Accuracies in `[0, 1]`, `best ≥ final`, some update happened, and
    /// at paper scale the model learned.
    ///
    /// # Errors
    /// The violated invariant.
    pub fn check(&self, paper_scale: bool) -> Result<(), String> {
        let in_unit = |a: f64| (0.0..=1.0).contains(&a);
        if !(in_unit(self.best)
            && in_unit(self.final_acc)
            && self.curve.iter().all(|&a| in_unit(a)))
        {
            return Err("fl: accuracy outside [0, 1]".into());
        }
        if self.best < self.final_acc {
            return Err(format!("fl: best {} < final {}", self.best, self.final_acc));
        }
        if self.updates == 0 {
            return Err("fl: no global update".into());
        }
        if paper_scale && self.best <= 0.2 {
            return Err(format!(
                "fl: best accuracy {} ≤ 0.2 at paper scale",
                self.best
            ));
        }
        Ok(())
    }
}

/// The plan `ecofl plan` printed.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanResult {
    /// Device count from the header line.
    pub devices: usize,
    /// Layer range `[start, end)` per stage, in stage order.
    pub stages: Vec<(usize, usize)>,
    /// Residency `K_s` per stage.
    pub residency: Vec<usize>,
    /// Simulated throughput, samples/s.
    pub throughput: f64,
}

/// Parses header, stage lines, residency and throughput.
///
/// # Errors
/// If any of them is missing or malformed.
pub fn parse_plan(stdout: &str) -> Result<PlanResult, String> {
    let header = stdout.lines().next().ok_or("plan: empty output")?;
    let devices = header
        .split_once(" over ")
        .and_then(|(_, rest)| leading_u64(rest))
        .ok_or("plan: malformed header")? as usize;
    let mut stages = Vec::new();
    let mut residency = None;
    let mut throughput = None;
    for line in stdout.lines().skip(1) {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim();
        if key.starts_with("stage ") {
            // "layers  0..25 (39.0% of FLOPs) on TX2-N"
            let range = value
                .trim()
                .strip_prefix("layers")
                .and_then(|r| r.split_whitespace().next())
                .and_then(|r| r.split_once(".."))
                .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                .ok_or_else(|| format!("plan: malformed stage line '{}'", line.trim()))?;
            stages.push(range);
        } else if key == "residency K" {
            let list = value
                .split_once('[')
                .and_then(|(_, r)| r.split_once(']'))
                .ok_or("plan: malformed residency line")?
                .0;
            residency = Some(
                list.split(',')
                    .map(|k| k.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| "plan: malformed residency list")?,
            );
        } else if key == "throughput" {
            throughput = value
                .split_whitespace()
                .next()
                .and_then(|t| t.parse::<f64>().ok());
        }
    }
    Ok(PlanResult {
        devices,
        stages,
        residency: residency.ok_or("plan: no residency line")?,
        throughput: throughput.ok_or("plan: no throughput line")?,
    })
}

impl PlanResult {
    /// Positive throughput, one residency entry and one stage per
    /// device, and stage ranges that tile `0..layers` without gaps.
    ///
    /// # Errors
    /// The violated invariant.
    pub fn check(&self, devices: usize) -> Result<(), String> {
        if self.devices != devices {
            return Err(format!(
                "plan: {} devices, expected {devices}",
                self.devices
            ));
        }
        if !(self.throughput > 0.0 && self.throughput.is_finite()) {
            return Err(format!("plan: throughput {}", self.throughput));
        }
        if self.residency.len() != devices || self.stages.len() != devices {
            return Err(format!(
                "plan: {} residency entries and {} stages for {devices} devices",
                self.residency.len(),
                self.stages.len()
            ));
        }
        let mut next = 0;
        for &(start, end) in &self.stages {
            if start != next || end <= start {
                return Err(format!("plan: stage ranges do not tile: {:?}", self.stages));
            }
            next = end;
        }
        Ok(())
    }
}

/// Line counts of one `ecofl spike --kill-stage` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpikeKillResult {
    /// `FAULT` lines.
    pub faults: usize,
    /// `recovered from checkpoint` lines.
    pub recoveries: usize,
    /// Rounds that reported a loss.
    pub rounds_ok: usize,
    /// Whether the last line is the bit-identity verdict.
    pub bit_identical: bool,
}

const BIT_IDENTICAL: &str = "replayed parameters are bit-identical to the uninterrupted run";

/// Counts the fault, recovery and loss lines.
///
/// # Errors
/// If the output is empty.
pub fn parse_spike_kill(stdout: &str) -> Result<SpikeKillResult, String> {
    let last = stdout.lines().last().ok_or("spike: empty output")?;
    Ok(SpikeKillResult {
        faults: stdout.lines().filter(|l| l.contains("FAULT")).count(),
        recoveries: stdout
            .lines()
            .filter(|l| l.contains("recovered from checkpoint"))
            .count(),
        rounds_ok: stdout.lines().filter(|l| l.contains(": loss ")).count(),
        bit_identical: last == BIT_IDENTICAL,
    })
}

impl SpikeKillResult {
    /// Exactly one fault, one recovery, and the bit-identity verdict last.
    ///
    /// # Errors
    /// The violated invariant.
    pub fn check(&self) -> Result<(), String> {
        if self.faults != 1 || self.recoveries != 1 {
            return Err(format!(
                "spike: {} FAULT and {} recovery lines, expected one each",
                self.faults, self.recoveries
            ));
        }
        if !self.bit_identical {
            return Err("spike: last line is not the bit-identity verdict".into());
        }
        Ok(())
    }
}

/// What a recording `ecofl trace` run reported.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceWriteResult {
    /// Records stored.
    pub stored: u64,
    /// Blocks written.
    pub blocks: u64,
    /// Idle total recomputed from the trace, seconds.
    pub idle_trace: f64,
    /// `|Δ|` between the trace's and the executor's idle totals.
    pub idle_delta: f64,
}

/// Text between `open` and `close` in `line`.
fn between<'a>(line: &'a str, open: &str, close: &str) -> Option<&'a str> {
    let (_, rest) = line.split_once(open)?;
    Some(rest.split_once(close)?.0)
}

/// Parses the `trace:` and `idle:` lines.
///
/// # Errors
/// If either is missing or malformed.
pub fn parse_trace_write(stdout: &str) -> Result<TraceWriteResult, String> {
    let trace = stdout
        .lines()
        .find(|l| l.starts_with("trace: "))
        .ok_or("trace: no 'trace:' line")?;
    // "trace: DIR (N stored record(s), B block(s))" — DIR may itself
    // contain parentheses, so anchor on the fixed text.
    let (stored, blocks) = trace
        .split_once(" stored record(s), ")
        .and_then(|(left, right)| {
            Some((left.rsplit_once('(')?.1.parse().ok()?, leading_u64(right)?))
        })
        .ok_or("trace: malformed record/block counts")?;
    let idle = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("idle: "))
        .ok_or("trace: no 'idle:' line")?;
    let idle_trace = between(idle, "idle: ", "s from trace")
        .and_then(|v| v.parse().ok())
        .ok_or("trace: malformed idle total")?;
    let idle_delta = between(idle, "(|Δ| = ", ")")
        .and_then(|v| v.parse().ok())
        .ok_or("trace: malformed idle delta")?;
    Ok(TraceWriteResult {
        stored,
        blocks,
        idle_trace,
        idle_delta,
    })
}

impl TraceWriteResult {
    /// Something was stored, and the trace's idle ledger agrees with the
    /// executor's to 1e-9 of the total.
    ///
    /// # Errors
    /// The violated invariant.
    pub fn check(&self) -> Result<(), String> {
        if self.stored == 0 || self.blocks == 0 {
            return Err("trace: nothing stored".into());
        }
        let allowed = 1e-9 * self.idle_trace.abs().max(1.0);
        // NaN compares false and so fails the check, as it should.
        if self.idle_delta.is_nan() || self.idle_delta > allowed {
            return Err(format!(
                "trace: idle ledgers differ by {} of {}",
                self.idle_delta, self.idle_trace
            ));
        }
        Ok(())
    }
}

/// What an inspecting `ecofl trace --store` run reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Records in the store's trace segment.
    pub store_records: u64,
    /// Blocks the query decoded.
    pub decoded: u64,
    /// Blocks in the trace segment.
    pub total: u64,
    /// Records matching the query.
    pub matching: u64,
}

/// Parses the `trace.seg` rollup and the `query decoded …` line.
///
/// # Errors
/// If either is missing or malformed.
pub fn parse_query(stdout: &str) -> Result<QueryResult, String> {
    let seg = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("trace.seg"))
        .ok_or("query: no trace.seg line")?;
    let store_records = between(seg, "block(s)", "record(s)")
        .and_then(|v| v.trim().parse().ok())
        .ok_or("query: malformed trace.seg line")?;
    let line = stdout
        .lines()
        .find(|l| l.starts_with("query decoded "))
        .ok_or("query: no 'query decoded' line")?;
    let bad = || format!("query: malformed line '{line}'");
    let decoded = between(line, "query decoded ", " of ")
        .and_then(|v| v.parse().ok())
        .ok_or_else(bad)?;
    let total = between(line, " of ", " block(s)")
        .and_then(|v| v.parse().ok())
        .ok_or_else(bad)?;
    let matching = between(line, "block(s), ", " matching")
        .and_then(|v| v.parse().ok())
        .ok_or_else(bad)?;
    Ok(QueryResult {
        store_records,
        decoded,
        total,
        matching,
    })
}

impl QueryResult {
    /// A full scan decodes every block and matches every record; a
    /// round-range query must skip at least one block; no query decodes
    /// more blocks or matches more records than exist.
    ///
    /// # Errors
    /// The violated invariant.
    pub fn check(&self, check: Check) -> Result<(), String> {
        if self.total == 0 || self.decoded > self.total || self.matching > self.store_records {
            return Err(format!("query: inconsistent counts {self:?}"));
        }
        match check {
            Check::QueryScan
                if self.decoded != self.total || self.matching != self.store_records =>
            {
                Err(format!("query: full scan missed data {self:?}"))
            }
            Check::QueryRounds if self.decoded >= self.total => {
                Err(format!("query: round range pruned nothing {self:?}"))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from the CLI at the commit that defined the benchmark.
    const DEVICES: &str = include_str!("../fixtures/devices.txt");
    const FL: &str = include_str!("../fixtures/fl.txt");
    const PLAN: &str = include_str!("../fixtures/plan.txt");
    const SPIKE_KILL: &str = include_str!("../fixtures/spike_kill.txt");
    const TRACE_WRITE: &str = include_str!("../fixtures/trace_write.txt");
    const TRACE_QUERY: &str = include_str!("../fixtures/trace_query.txt");

    #[test]
    fn devices_fixture() {
        assert_eq!(parse_devices(DEVICES), Ok(4));
        assert!(verify(Check::Devices, DEVICES).is_ok());
        assert!(verify(Check::Devices, "Table 1 device catalog:\n").is_err());
        assert!(verify(Check::Devices, "").is_err());
    }

    #[test]
    fn fl_fixture() {
        let r = parse_fl(FL).unwrap();
        assert_eq!(r.curve.len(), 15);
        assert!((r.best - 0.908).abs() < 1e-12);
        assert!((r.final_acc - 0.908).abs() < 1e-12);
        assert_eq!((r.updates, r.regroups), (254, 56));
        let e = verify(Check::Fl { paper_scale: true }, FL).unwrap();
        assert_eq!(e.best_acc, Some(r.best));
    }

    #[test]
    fn fl_invariants_reject_bad_results() {
        let line = |s: &str| format!("x:\n  {s}\n");
        let v = |s: &str, paper| verify(Check::Fl { paper_scale: paper }, &line(s));
        assert!(v("best 50.0% | final 40.0% | 3 updates | 0 regroups", true).is_ok());
        assert!(v("best 40.0% | final 50.0% | 3 updates | 0 regroups", false).is_err());
        assert!(v("best 50.0% | final 40.0% | 0 updates | 0 regroups", false).is_err());
        assert!(v("best 150.0% | final 40.0% | 3 updates | 0 regroups", false).is_err());
        assert!(v("best 15.0% | final 15.0% | 3 updates | 0 regroups", true).is_err());
        assert!(v("best 15.0% | final 15.0% | 3 updates | 0 regroups", false).is_ok());
        assert!(v("best NaN% | final 15.0% | 3 updates", false).is_err());
        assert!(verify(Check::Fl { paper_scale: false }, "error: nope\n").is_err());
    }

    #[test]
    fn plan_fixture() {
        let r = parse_plan(PLAN).unwrap();
        assert_eq!(r.devices, 5);
        assert_eq!(r.stages, [(0, 25), (25, 34), (34, 38), (38, 44), (44, 47)]);
        assert_eq!(r.residency, [9, 7, 5, 3, 1]);
        assert!((r.throughput - 17.43).abs() < 1e-12);
        let e = verify(Check::Plan { devices: 5 }, PLAN).unwrap();
        assert_eq!(e.plan_sps, Some(17.43));
        assert!(verify(Check::Plan { devices: 6 }, PLAN).is_err());
        // A gap between stage ranges is caught.
        let gap = PLAN.replace("layers 25..34", "layers 26..34");
        assert!(verify(Check::Plan { devices: 5 }, &gap).is_err());
        let zero = PLAN.replace("17.43 samples/s", "0.00 samples/s");
        assert!(verify(Check::Plan { devices: 5 }, &zero).is_err());
    }

    #[test]
    fn spike_kill_fixture() {
        let r = parse_spike_kill(SPIKE_KILL).unwrap();
        assert_eq!((r.faults, r.recoveries, r.rounds_ok), (1, 1, 6));
        assert!(r.bit_identical);
        assert!(verify(Check::SpikeKill, SPIKE_KILL).is_ok());
        let no_verdict = SPIKE_KILL.replace(BIT_IDENTICAL, "diverged");
        assert!(verify(Check::SpikeKill, &no_verdict).is_err());
        let no_fault = SPIKE_KILL.replace("FAULT", "fine");
        assert!(verify(Check::SpikeKill, &no_fault).is_err());
    }

    #[test]
    fn trace_write_fixture() {
        let r = parse_trace_write(TRACE_WRITE).unwrap();
        assert_eq!((r.stored, r.blocks), (1728, 4));
        assert!((r.idle_trace - 4.221_363).abs() < 1e-12);
        assert!((r.idle_delta - 2.4e-13).abs() < 1e-20);
        assert!(verify(Check::TraceWrite, TRACE_WRITE).is_ok());
        let drift = TRACE_WRITE.replace("2.4e-13", "2.4e-3");
        assert!(verify(Check::TraceWrite, &drift).is_err());
        let empty = TRACE_WRITE.replace("1728 stored", "0 stored");
        assert!(verify(Check::TraceWrite, &empty).is_err());
    }

    #[test]
    fn trace_query_fixture() {
        let r = parse_query(TRACE_QUERY).unwrap();
        assert_eq!(
            r,
            QueryResult {
                store_records: 1728,
                decoded: 2,
                total: 4,
                matching: 576
            }
        );
        assert!(verify(Check::QueryRounds, TRACE_QUERY).is_ok());
        assert!(verify(Check::QueryFilter, TRACE_QUERY).is_ok());
        // The same output is not a valid full scan: it skipped blocks.
        assert!(verify(Check::QueryScan, TRACE_QUERY).is_err());
        let scan = TRACE_QUERY
            .replace("decoded 2 of 4", "decoded 4 of 4")
            .replace("576 matching", "1728 matching");
        assert!(verify(Check::QueryScan, &scan).is_ok());
        assert!(verify(Check::QueryRounds, &scan).is_err());
    }
}
