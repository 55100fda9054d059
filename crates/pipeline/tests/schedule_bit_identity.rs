//! Bit-identity goldens for the executor's schedule handling.
//!
//! The three paper schedules (1F1B-Sync, BAF-Sync, 1F1B-Async) ran
//! through the seed executor's hard-coded `SchedulePolicy` match arms on
//! two device mixes; every golden below is the exact bit pattern
//! (`f64::to_bits`) or FNV-1a checksum captured from those runs. The
//! executor has since asked the policy its admission questions — first
//! through a trait object, now through inherent methods on the enum —
//! and these tests prove each form reproduces the seed bit for bit:
//! report scalars, task-span streams, tracer streams, and peak memory.
//! A second set pins every schedule's per-stage busy, idle and DDB bits.

use ecofl_models::{efficientnet, efficientnet_at};
use ecofl_obs::{SpanKind, Tracer};
use ecofl_pipeline::executor::{ExecutionReport, PipelineExecutor, SchedulePolicy};
use ecofl_pipeline::orchestrator::k_bounds;
use ecofl_pipeline::partition::partition_dp;
use ecofl_pipeline::profiler::PipelineProfile;
use ecofl_pipeline::schedule::ScheduleKind;
use ecofl_simnet::{nano_h, tx2_n, tx2_q, Device, Link};

struct Golden {
    label: &'static str,
    makespan: u64,
    throughput: u64,
    ssb: u64,
    spans: usize,
    span_ck: u64,
    trace_ck: u64,
    peak0: u64,
}

const GOLDENS: [Golden; 6] = [
    Golden {
        label: "mixA_1f1b",
        makespan: 0x3ff9796760dd4e55,
        throughput: 0x403e25ea8a0b53eb,
        ssb: 0x3fb28ee91b6553f6,
        spans: 48,
        span_ck: 0x930f831094e23736,
        trace_ck: 0xabace989eeadf342,
        peak0: 174451072,
    },
    Golden {
        label: "mixA_gpipe",
        makespan: 0x3ff9796760dd4e55,
        throughput: 0x403e25ea8a0b53eb,
        ssb: 0x3fb28ee91b6553f6,
        spans: 48,
        span_ck: 0xca110928663bc818,
        trace_ck: 0xb93886da5c97c1d0,
        peak0: 517454208,
    },
    Golden {
        label: "mixA_async",
        makespan: 0x3ff840168154076b,
        throughput: 0x403fab6e7c3c6ea4,
        ssb: 0x3fb28ee91b6553f6,
        spans: 48,
        span_ck: 0x9dd1ff48578bf533,
        trace_ck: 0x92d496e96f67b6e0,
        peak0: 177400576,
    },
    Golden {
        label: "mixB_1f1b",
        makespan: 0x40054c047d4c789c,
        throughput: 0x404207dfa67820e8,
        ssb: 0x3fdea6cfbd375887,
        spans: 72,
        span_ck: 0x0f9bc012f389d9c2,
        trace_ck: 0xcabea09b75b8fc79,
        peak0: 1314394304,
    },
    Golden {
        label: "mixB_gpipe",
        makespan: 0x40075af8ec694f0c,
        throughput: 0x4040710e1a0253e8,
        ssb: 0x3fdea6cfbd375887,
        spans: 72,
        span_ck: 0xa5d7399f5066d396,
        trace_ck: 0xa900eb11e6617dd2,
        peak0: 1575460032,
    },
    Golden {
        label: "mixB_async",
        makespan: 0x40023958a1b93f6e,
        throughput: 0x40451233efe41859,
        ssb: 0x3fdea6cfbd375887,
        spans: 72,
        span_ck: 0x0b743d6ef739b7e4,
        trace_ck: 0x0c348f9544bd673f,
        peak0: 1350656960,
    },
];

fn span_checksum(r: &ExecutionReport) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    for s in &r.task_spans {
        mix(s.entity as u64);
        mix(s.micro as u64);
        mix(s.round as u64);
        mix(u64::from(s.kind == SpanKind::Forward));
        mix(s.t0.to_bits());
        mix(s.t1.to_bits());
    }
    h
}

fn trace_checksum(tracer: &Tracer) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    for rec in tracer.view().records() {
        if let ecofl_obs::TraceRecord::Span(s) = rec {
            mix(s.entity as u64);
            mix(s.round as u64);
            mix(s.micro as u64);
            mix(s.t0.to_bits());
            mix(s.t1.to_bits());
        }
    }
    h
}

fn check(golden: &Golden, profile: &PipelineProfile, policy: SchedulePolicy) {
    let exec = PipelineExecutor::new(profile, policy.clone()).expect("valid policy");
    let r = exec.run(6, 2).expect("no OOM");
    let tracer = Tracer::new();
    let exec2 = PipelineExecutor::new(profile, policy).expect("valid policy");
    let _ = exec2.run_traced(6, 2, &tracer).expect("no OOM");
    let label = golden.label;
    assert_eq!(
        r.makespan.to_bits(),
        golden.makespan,
        "{label}: makespan bits"
    );
    assert_eq!(
        r.throughput.to_bits(),
        golden.throughput,
        "{label}: throughput bits"
    );
    assert_eq!(r.ssb_per_round.to_bits(), golden.ssb, "{label}: ssb bits");
    assert_eq!(r.task_spans.len(), golden.spans, "{label}: span count");
    assert_eq!(span_checksum(&r), golden.span_ck, "{label}: span checksum");
    assert_eq!(
        trace_checksum(&tracer),
        golden.trace_ck,
        "{label}: trace checksum"
    );
    assert_eq!(
        r.stage_peak_memory[0], golden.peak0,
        "{label}: stage-0 peak memory"
    );
}

/// Mix A: 2-stage TX2-N + Nano-H, EfficientNet-B0, even split, mbs 4.
fn mix_a() -> PipelineProfile {
    let model = efficientnet(0);
    let l = model.num_layers();
    let devices = vec![Device::new(tx2_n()), Device::new(nano_h())];
    PipelineProfile::new(&model, &[0, l / 2, l], &devices, &Link::mbps_100(), 4)
}

/// Mix B: 3-stage TX2-Q + 2x Nano-H, EfficientNet-B2 @224, DP split, mbs 8.
fn mix_b() -> PipelineProfile {
    let model = efficientnet_at(2, 224);
    let devices = vec![
        Device::new(tx2_q()),
        Device::new(nano_h()),
        Device::new(nano_h()),
    ];
    let link = Link::mbps_100();
    let part = partition_dp(&model, &devices, &link, 8).expect("feasible");
    PipelineProfile::new(&model, &part.boundaries, &devices, &link, 8)
}

#[test]
fn legacy_schedules_are_bit_identical_through_the_trait() {
    let p2 = mix_a();
    let k2 = k_bounds(&p2).expect("fits");
    let p3 = mix_b();
    let k3 = k_bounds(&p3).expect("fits");

    for (i, (profile, k)) in [(&p2, &k2), (&p3, &k3)].into_iter().enumerate() {
        check(
            &GOLDENS[i * 3],
            profile,
            SchedulePolicy::OneFOneBSync { k: k.clone() },
        );
        check(&GOLDENS[i * 3 + 1], profile, SchedulePolicy::BafSync);
        check(
            &GOLDENS[i * 3 + 2],
            profile,
            SchedulePolicy::OneFOneBAsync { k: k.clone() },
        );
    }
}

/// FNV-1a checksums over the bits of `stage_busy_utilization`,
/// `stage_idle_time` and `ddb_per_round`, per mix and schedule, captured
/// from the executor that kept one busy-interval tracker per stage beside
/// its span list.
const BUSY_GOLDENS: [(&str, u64); 10] = [
    ("mixA_1f1b", 0x5db4c3926be2a107),
    ("mixA_gpipe", 0x7828cd0aa6659bfd),
    ("mixA_async", 0x20c17fc4eafee4cf),
    ("mixA_interleaved", 0xdc5cbe58442be3bd),
    ("mixA_zb", 0xe947655146b271f5),
    ("mixB_1f1b", 0x509b106e495ef211),
    ("mixB_gpipe", 0x3e0dad9b3360cb30),
    ("mixB_async", 0x225e871b386a2dd6),
    ("mixB_interleaved", 0x0106b5e583652912),
    ("mixB_zb", 0xb3c0b6e55d8fa114),
];

fn busy_checksum(r: &ExecutionReport) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in r
        .stage_busy_utilization
        .iter()
        .chain(&r.stage_idle_time)
        .chain(&r.ddb_per_round)
    {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn busy_idle_and_ddb_keep_their_bits_on_every_schedule() {
    for (mix, profile) in [("mixA", mix_a()), ("mixB", mix_b())] {
        for kind in ScheduleKind::all() {
            let label = format!("{mix}_{}", kind.name());
            let policy = kind.policy_for(&profile).expect("fits");
            let r = PipelineExecutor::new(&profile, policy)
                .expect("valid policy")
                .run(6, 2)
                .expect("no OOM");
            let &(_, golden) = BUSY_GOLDENS
                .iter()
                .find(|(l, _)| *l == label)
                .expect("a golden per mix and schedule");
            assert_eq!(busy_checksum(&r), golden, "{label}: busy/idle/DDB bits");
        }
    }
}
