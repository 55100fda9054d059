//! Observability and storage layers (`trace_write`, `trace_query`): the
//! CLI's recording and inspecting `trace` commands rebuilt in-process,
//! with spans around the public tracer, `RunStore`, `Segment` and `lz`
//! calls, one layer at a time.

use crate::pipeline::trace_profile;
use crate::span::Spans;
use crate::Metrics;
use ecofl_benchmark::cliout;
use ecofl_benchmark::workloads::{Op, StoreUse, Workload};
use ecofl_obs::store::{jsonl_to_records, records_to_jsonl, summarize, TRACE_SEGMENT};
use ecofl_obs::{RecordKind, RunStore, TraceQuery, TraceRecord, Tracer};
use ecofl_pipeline::{PipelineExecutor, ScheduleKind};
use ecofl_store::{lz, Segment};
use std::hint::black_box;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The CLI's default `--block-records`.
const BLOCK_RECORDS: usize = 512;

/// Simulates one recording op's pipeline, untraced then traced, reads
/// the trace the way the CLI's report does, and returns its records.
fn record(op: &Op, spans: &Spans) -> Result<Vec<TraceRecord>, String> {
    let schedule: ScheduleKind = op.flag("schedule").unwrap_or("1f1b").parse()?;
    let number = |key: &str| -> Result<usize, String> {
        op.flag(key)
            .ok_or(format!("trace op without --{key}"))?
            .parse()
            .map_err(|_| format!("trace op: bad --{key}"))
    };
    let (m, rounds) = (number("micro-batches")?, number("rounds")?);
    let profile = trace_profile()?;
    let policy = schedule
        .policy_for(&profile)
        .ok_or("memory admits no residency")?;
    let exec = PipelineExecutor::new(&profile, policy).map_err(|e| e.to_string())?;
    spans
        .time("pipeline.executor.run", || exec.run(m, rounds))
        .map_err(|e| e.to_string())?;
    let tracer = Tracer::new();
    spans
        .time("pipeline.executor.run_traced", || {
            exec.run_traced(m, rounds, &tracer)
        })
        .map_err(|e| e.to_string())?;
    // The CLI's per-round bubble table, idle cross-check and top stages.
    spans.time("obs.view.report", || {
        let view = tracer.view();
        for r in 0..view.pipeline_rounds() {
            black_box((view.bubble_fraction(r), view.round_window(r)));
        }
        black_box((view.total_idle_time(), view.top_slowest_stages(3)));
    });
    Ok(spans.time("obs.tracer.records", || tracer.records()))
}

/// Appends `records` to a store at `dir` the way the CLI does.
fn persist(records: &[TraceRecord], dir: &Path, spans: &Spans) -> Result<(), String> {
    let io = |e: std::io::Error| format!("run store {}: {e}", dir.display());
    let mut store = RunStore::open_or_create(dir)
        .map_err(io)?
        .with_block_records(BLOCK_RECORDS);
    spans
        .time("obs.store.append", || {
            store.append(records)?;
            store.flush()
        })
        .map_err(io)
}

/// Runs the write-side probe; returns `(in-process seconds, failures)`.
pub fn probe_write(
    ops: &[Op],
    cli_stdout: &[String],
    work_dir: &Path,
    spans: &Spans,
    metrics: &mut Metrics,
) -> (f64, Vec<String>) {
    let mut failures = Vec::new();
    let (mut raw_bytes, mut comp_bytes, mut stored, mut disk_bytes) = (0u64, 0u64, 0u64, 0u64);
    for (i, op) in ops.iter().enumerate() {
        let records = match record(op, spans) {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("op {i}: {e}"));
                continue;
            }
        };
        let dir = work_dir.join(format!("write-{i}"));
        if let Err(e) = persist(&records, &dir, spans) {
            failures.push(format!("op {i}: {e}"));
            continue;
        }
        // What the CLI op does ends here; the rest takes the store path
        // apart layer by layer on the same records.
        stored += records.len() as u64;
        disk_bytes += RunStore::open(dir.as_path())
            .map(|s| s.segments()[0].compressed_bytes)
            .unwrap_or(0);
        match cli_stdout.get(i).map(|s| cliout::parse_trace_write(s)) {
            Some(Ok(cli)) if cli.stored == records.len() as u64 => {}
            other => failures.push(format!(
                "op {i}: {} records in-process, the CLI reported {other:?}",
                records.len()
            )),
        }

        let layered = (|| -> std::io::Result<()> {
            let mut segment = Segment::create(dir.join("layered.seg"))?;
            for chunk in records.chunks(BLOCK_RECORDS) {
                let raw = spans.time("obs.store.encode", || records_to_jsonl(chunk))?;
                let comp = spans.time("store.lz.compress", || lz::compress(&raw));
                raw_bytes += raw.len() as u64;
                comp_bytes += comp.len() as u64;
                let summary = summarize(chunk);
                spans.time("store.segment.append_block", || {
                    segment.append_block(&raw, summary)
                })?;
            }
            spans.time("store.segment.seal", || segment.seal())
        })();
        if let Err(e) = layered {
            failures.push(format!("op {i}: layered write: {e}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    let plain = spans.total("pipeline.executor.run");
    let traced = spans.total("pipeline.executor.run_traced");
    let tracing_ns = traced.busy_ns.saturating_sub(plain.busy_ns) as f64;
    let per = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    metrics.set("obs.tracer.record_ns", per(tracing_ns, stored as f64));
    metrics.set(
        "pipeline.executor.traced_overhead_pct",
        100.0 * per(tracing_ns, plain.busy_ns as f64),
    );
    metrics.set(
        "obs.store.encode_us_per_block",
        spans.total("obs.store.encode").mean_us(),
    );
    let append_s = spans.total("obs.store.append").busy_ns as f64 / 1e9;
    metrics.set("obs.store.append_rec_per_s", per(stored as f64, append_s));
    let compress_s = spans.total("store.lz.compress").busy_ns as f64 / 1e9;
    metrics.set(
        "store.lz.compress_mb_s",
        per(raw_bytes as f64 / 1e6, compress_s),
    );
    metrics.set("store.lz.ratio", per(raw_bytes as f64, comp_bytes as f64));
    metrics.set(
        "store.segment.append_block_us",
        spans.total("store.segment.append_block").mean_us(),
    );
    metrics.set(
        "store.segment.seal_us",
        spans.total("store.segment.seal").mean_us(),
    );
    metrics.set(
        "obs.store.disk_bytes_per_record",
        per(disk_bytes as f64, stored as f64),
    );
    if let Err(e) = crate::pipeline::round_costs(metrics) {
        failures.push(format!("executor round costs: {e}"));
    }
    // The CLI op's own work: the traced run, its report, the record
    // copy, the append.
    let in_process = (traced.busy_ns
        + spans.total("obs.view.report").busy_ns
        + spans.total("obs.tracer.records").busy_ns) as f64
        / 1e9
        + append_s;
    (in_process, failures)
}

/// Reads a block's compressed bytes straight from the segment file.
fn compressed_block(file: &mut std::fs::File, offset: u64, len: u32) -> std::io::Result<Vec<u8>> {
    file.seek(SeekFrom::Start(offset))?;
    let mut comp = vec![0u8; len as usize];
    file.read_exact(&mut comp)?;
    Ok(comp)
}

/// The query one inspecting op asks.
fn query_of(op: &Op) -> Result<TraceQuery, String> {
    let mut query = TraceQuery::new();
    if let Some(spec) = op.flag("rounds") {
        let (a, b) = spec.split_once("..").ok_or("bad --rounds")?;
        let parse = |v: &str| v.parse::<u64>().map_err(|_| "bad --rounds".to_owned());
        query = query.rounds(parse(a)?..parse(b)?);
    }
    if let Some(kind) = op.flag("kind") {
        query = query.kind(kind.parse::<RecordKind>()?);
    }
    if let Some(d) = op.flag("min-duration") {
        query = query.min_duration(d.parse().map_err(|_| "bad --min-duration")?);
    }
    Ok(query)
}

/// Runs the read-side probe; returns `(in-process seconds, failures)`.
pub fn probe_query(
    workload: &Workload,
    cli_stdout: &[String],
    work_dir: &Path,
    spans: &Spans,
    metrics: &mut Metrics,
) -> (f64, Vec<String>) {
    let mut failures = Vec::new();
    // Set-up, as in the untraced run: build the stores the ops read.
    let scratch = Spans::new();
    let mut dirs: Vec<PathBuf> = Vec::new();
    for (i, build) in workload.builds.iter().enumerate() {
        let dir = work_dir.join(format!("query-{i}"));
        let built = record(build, &scratch).and_then(|r| persist(&r, &dir, &scratch));
        if let Err(e) = built {
            failures.push(format!("store build {i}: {e}"));
        }
        dirs.push(dir);
    }

    let started = Instant::now();
    let (mut decoded, mut total) = (0u64, 0u64);
    for (i, op) in workload.ops.iter().enumerate() {
        let StoreUse::Built(store) = op.store else {
            continue;
        };
        let outcome = (|| -> Result<(), String> {
            let dir = dirs
                .get(store)
                .ok_or("op reads a store set-up did not build")?;
            let io = |e: std::io::Error| format!("run store {}: {e}", dir.display());
            let query = query_of(op)?;
            let store = RunStore::open(dir.as_path()).map_err(io)?;
            let span = match op.class {
                "query_scan" => "obs.store.query_scan",
                "query_pruned" => "obs.store.query_pruned",
                _ => "obs.store.query_filter",
            };
            let result = spans.time(span, || store.query(&query)).map_err(io)?;
            decoded += result.blocks_decoded as u64;
            total += result.blocks_total as u64;
            let cli = cli_stdout
                .get(i)
                .and_then(|s| cliout::parse_query(s).ok())
                .ok_or("no CLI result to check the query against")?;
            if (cli.decoded, cli.total, cli.matching)
                != (
                    result.blocks_decoded as u64,
                    result.blocks_total as u64,
                    result.records.len() as u64,
                )
            {
                return Err(format!(
                    "in-process query decoded {} of {} blocks, {} records; the CLI {cli:?}",
                    result.blocks_decoded,
                    result.blocks_total,
                    result.records.len()
                ));
            }
            Ok(())
        })();
        if let Err(e) = outcome {
            failures.push(format!("op {i}: {e}"));
        }
    }
    let in_process = started.elapsed().as_secs_f64();

    // The read path taken apart on each store: footer, block read,
    // decompress, decode.
    let mut raw_bytes = 0u64;
    for dir in &dirs {
        let layered = (|| -> std::io::Result<()> {
            let path = dir.join(TRACE_SEGMENT);
            let segment = spans.time("store.segment.open", || Segment::open(&path))?;
            let mut file = std::fs::File::open(&path)?;
            for (index, entry) in segment.blocks().iter().enumerate() {
                let raw = spans.time("store.segment.read_block", || segment.read_block(index))?;
                let comp = compressed_block(&mut file, entry.offset, entry.comp_len)?;
                spans.time("store.lz.decompress", || {
                    lz::decompress(&comp, entry.raw_len as usize)
                })?;
                black_box(spans.time("obs.store.decode", || jsonl_to_records(&raw))?);
                raw_bytes += raw.len() as u64;
            }
            Ok(())
        })();
        if let Err(e) = layered {
            failures.push(format!("layered read of {}: {e}", dir.display()));
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    let per = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    metrics.set(
        "store.segment.open_ms",
        spans.total("store.segment.open").mean_us() / 1e3,
    );
    metrics.set(
        "store.segment.read_block_us",
        spans.total("store.segment.read_block").mean_us(),
    );
    let decompress_s = spans.total("store.lz.decompress").busy_ns as f64 / 1e9;
    metrics.set(
        "store.lz.decompress_mb_s",
        per(raw_bytes as f64 / 1e6, decompress_s),
    );
    metrics.set(
        "obs.store.decode_us_per_block",
        spans.total("obs.store.decode").mean_us(),
    );
    metrics.set(
        "obs.store.query_scan_ms",
        spans.total("obs.store.query_scan").mean_us() / 1e3,
    );
    metrics.set(
        "obs.store.query_pruned_ms",
        spans.total("obs.store.query_pruned").mean_us() / 1e3,
    );
    metrics.set(
        "obs.store.blocks_decoded_share",
        per(decoded as f64, total as f64),
    );
    (in_process, failures)
}
