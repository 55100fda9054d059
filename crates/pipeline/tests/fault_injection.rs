//! Crash-path coverage for the supervised 1F1B runtime (§4.4 on real
//! threads): killing any stage mid-round must surface a typed
//! `StageDied` error in bounded time — never a panic, never a hang —
//! and checkpoint → crash → recover → replay must be bit-identical to
//! an uninterrupted run.
//!
//! `scripts/ci.sh` runs this suite under a watchdog, and again pinned
//! to one CPU, so a reintroduced deadlock fails CI instead of wedging
//! it.

use ecofl_compat::check::{forall, pair, quad, triple, usize_in, vec_in};
use ecofl_obs::{EventKind, Tracer};
use ecofl_pipeline::executor::ExecError;
use ecofl_pipeline::runtime::{
    load_checkpoint_at_or_before, load_latest_checkpoint, stored_checkpoints, FaultPlan,
    PipelineTrainer, RuntimeOptions, SegmentFactory,
};
use ecofl_tensor::{Layer, Linear, ReLU, Tensor};
use ecofl_util::Rng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A unique per-test store directory under the system temp dir.
fn temp_store(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ecofl-fault-store-{tag}-{}-{n}",
        std::process::id()
    ))
}

/// Layer widths for a 4-linear MLP: in → h1 → h2 → h3 → out.
fn widths(seed: u64) -> [usize; 5] {
    let mut rng = Rng::new(seed);
    [
        rng.range_usize(2, 10),
        rng.range_usize(2, 16),
        rng.range_usize(2, 16),
        rng.range_usize(2, 16),
        rng.range_usize(2, 6),
    ]
}

/// The 7 layers (4 linear + 3 ReLU), deterministic in `seed`.
fn build_layers(seed: u64) -> Vec<Box<dyn Layer>> {
    let w = widths(seed);
    let mut rng = Rng::new(seed ^ 0xBEEF);
    vec![
        Box::new(Linear::new(w[0], w[1], &mut rng)) as Box<dyn Layer>,
        Box::new(ReLU::new()),
        Box::new(Linear::new(w[1], w[2], &mut rng)),
        Box::new(ReLU::new()),
        Box::new(Linear::new(w[2], w[3], &mut rng)),
        Box::new(ReLU::new()),
        Box::new(Linear::new(w[3], w[4], &mut rng)),
    ]
}

/// A factory splitting the 7 layers at the given cut positions (each
/// mapped into 1..7, deduplicated) — same split every call, as the
/// recovery contract requires.
fn factory(seed: u64, cuts: &[usize]) -> SegmentFactory {
    let cuts = cuts.to_vec();
    Box::new(move || {
        let mut layers = build_layers(seed);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| 1 + c % 6).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut segments = Vec::new();
        let mut taken = 0;
        for &c in &cuts {
            if c <= taken {
                continue;
            }
            let rest = layers.split_off(c - taken);
            taken = c;
            segments.push(std::mem::replace(&mut layers, rest));
        }
        segments.push(layers);
        segments.retain(|s| !s.is_empty());
        segments
    })
}

fn round_data(
    seed: u64,
    rounds: usize,
    m: usize,
    bs: usize,
    in_dim: usize,
    classes: usize,
) -> Vec<Vec<(Tensor, Vec<usize>)>> {
    let mut rng = Rng::new(seed ^ 0xDA7A);
    (0..rounds)
        .map(|_| {
            (0..m)
                .map(|_| {
                    let x = Tensor::randn(&[bs, in_dim], 1.0, &mut rng);
                    let y = (0..bs).map(|_| rng.range_usize(0, classes)).collect();
                    (x, y)
                })
                .collect()
        })
        .collect()
}

/// Runs `data` to completion on a fault-free twin; returns final params.
fn uninterrupted_params(
    seed: u64,
    cuts: &[usize],
    k: &[usize],
    data: &[Vec<(Tensor, Vec<usize>)>],
    lr: f32,
) -> Vec<f32> {
    let mut twin = PipelineTrainer::launch_supervised(
        factory(seed, cuts),
        k.to_vec(),
        RuntimeOptions::default(),
    )
    .expect("fault-free launch");
    for batch in data {
        twin.train_round(batch, lr).expect("fault-free round");
    }
    let params = twin.params().expect("fault-free collect");
    twin.shutdown();
    params
}

#[test]
fn killing_any_stage_is_a_bounded_typed_error_and_recoverable() {
    // First, middle and last stage: the wait chains differ (stage 0
    // blocks the portal's input feed, the last stage owes the losses),
    // so each kill position exercises a different cascade.
    let seed = 11u64;
    let cuts = [2usize, 4]; // 3 stages
    let k = vec![3usize, 2, 1];
    let w = widths(seed);
    let data = round_data(seed, 3, 4, 5, w[0], w[4]);
    let lr = 0.1f32;
    let expect = uninterrupted_params(seed, &cuts, &k, &data, lr);

    for kill_stage in 0..3usize {
        let opts = RuntimeOptions {
            recv_timeout: Duration::from_secs(10),
            fault_plan: FaultPlan::kill_at(kill_stage, 1, 2),
            ..RuntimeOptions::default()
        };
        let mut trainer = PipelineTrainer::launch_supervised(factory(seed, &cuts), k.clone(), opts)
            .expect("launch");
        trainer.train_round(&data[0], lr).expect("round 0 is clean");

        let start = Instant::now();
        let err = trainer
            .train_round(&data[1], lr)
            .expect_err("round 1 must hit the injected kill");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "death of stage {kill_stage} must surface in bounded time"
        );
        match &err {
            ExecError::StageDied { stage, during } => {
                assert_eq!(*stage, kill_stage, "root cause must name the killed stage");
                assert!(
                    during.contains("injected kill"),
                    "attribution must be the kill, not a cascade disconnect: {during}"
                );
            }
            other => panic!("expected StageDied, got {other:?}"),
        }

        // Poisoned until recovery: every op returns the stored error.
        assert_eq!(trainer.params().unwrap_err(), err);
        assert_eq!(trainer.train_round(&data[1], lr).unwrap_err(), err);
        assert_eq!(trainer.failure(), Some(&err));

        // Recover rewinds to the post-round-0 checkpoint; replaying
        // rounds 1..3 must land exactly on the uninterrupted twin.
        let resumed = trainer.recover().expect("recovery");
        assert_eq!(resumed, 1, "checkpoint was taken after round 0");
        assert!(trainer.failure().is_none());
        for batch in &data[resumed as usize..] {
            trainer.train_round(batch, lr).expect("replayed round");
        }
        assert_eq!(
            trainer.params().expect("post-recovery collect"),
            expect,
            "kill stage {kill_stage}: replay must be bit-identical to the uninterrupted run"
        );
        trainer.shutdown();
    }
}

#[test]
fn crash_in_the_first_round_recovers_from_the_launch_checkpoint() {
    let seed = 23u64;
    let cuts = [3usize];
    let k = vec![2usize, 1];
    let w = widths(seed);
    let data = round_data(seed, 2, 3, 4, w[0], w[4]);
    let expect = uninterrupted_params(seed, &cuts, &k, &data, 0.1);

    let opts = RuntimeOptions {
        recv_timeout: Duration::from_secs(10),
        fault_plan: FaultPlan::kill_at(1, 0, 0),
        ..RuntimeOptions::default()
    };
    let mut trainer =
        PipelineTrainer::launch_supervised(factory(seed, &cuts), k, opts).expect("launch");
    let err = trainer
        .train_round(&data[0], 0.1)
        .expect_err("kill at round 0");
    assert!(matches!(err, ExecError::StageDied { stage: 1, .. }));
    assert_eq!(trainer.recover().expect("recovery"), 0);
    for batch in &data {
        trainer.train_round(batch, 0.1).expect("replayed round");
    }
    assert_eq!(trainer.params().expect("collect"), expect);
    trainer.shutdown();
}

#[test]
fn a_real_panic_in_layer_code_is_supervised_too() {
    /// A layer that panics on its `n`-th forward call.
    struct PanicOnForward {
        calls: usize,
        at: usize,
    }
    impl Layer for PanicOnForward {
        fn name(&self) -> &'static str {
            "panic-on-forward"
        }
        fn forward(&mut self, input: Tensor) -> Tensor {
            self.calls += 1;
            assert!(self.calls != self.at, "synthetic layer fault");
            input
        }
        fn backward(&mut self, grad_out: Tensor) -> Tensor {
            grad_out
        }
    }

    let mut rng = Rng::new(7);
    let segments: Vec<Vec<Box<dyn Layer>>> = vec![
        vec![
            Box::new(Linear::new(6, 8, &mut rng)) as Box<dyn Layer>,
            Box::new(ReLU::new()),
        ],
        vec![
            Box::new(PanicOnForward { calls: 0, at: 4 }),
            Box::new(Linear::new(8, 3, &mut rng)),
        ],
    ];
    let mut trainer = PipelineTrainer::launch(segments, vec![2, 1]);
    let data = round_data(7, 2, 3, 4, 6, 3);
    trainer
        .train_round(&data[0], 0.1)
        .expect("first round: 3 forwards");
    let start = Instant::now();
    let err = trainer
        .train_round(&data[1], 0.1)
        .expect_err("4th forward panics");
    assert!(start.elapsed() < Duration::from_secs(10));
    match err {
        ExecError::StageDied { stage, during } => {
            assert_eq!(stage, 1);
            assert!(during.contains("panic"), "got: {during}");
            assert!(during.contains("synthetic layer fault"), "got: {during}");
        }
        other => panic!("expected StageDied, got {other:?}"),
    }
    // No factory — recovery is a typed refusal, not a panic.
    assert_eq!(trainer.recover(), Err(ExecError::RecoveryUnsupported));
    trainer.shutdown();
}

#[test]
fn recovery_emits_the_full_event_timeline() {
    let seed = 41u64;
    let cuts = [2usize, 5];
    let k = vec![3usize, 2, 1];
    let w = widths(seed);
    let data = round_data(seed, 3, 4, 4, w[0], w[4]);
    let tracer = Tracer::new();
    let opts = RuntimeOptions {
        recv_timeout: Duration::from_secs(10),
        fault_plan: FaultPlan::kill_at(2, 1, 1),
        tracer: Some(tracer.clone()),
        ..RuntimeOptions::default()
    };
    let mut trainer =
        PipelineTrainer::launch_supervised(factory(seed, &cuts), k, opts).expect("launch");
    let mut r = 0usize;
    while r < data.len() {
        match trainer.train_round(&data[r], 0.1) {
            Ok(_) => r += 1,
            Err(_) => {
                r = trainer.recover().expect("recovery") as usize;
            }
        }
    }
    trainer.shutdown();

    let view = tracer.view();
    let died = view.events_of(EventKind::StageDied);
    assert_eq!(died.len(), 1, "exactly one injected death");
    assert_eq!(died[0].entity, 2);
    // Checkpoints: one at launch, one per completed round (round 1
    // completes once — on replay).
    let checkpoints = view.events_of(EventKind::CheckpointTaken);
    assert_eq!(checkpoints.len(), 1 + data.len());
    let replays = view.events_of(EventKind::RoundReplayed);
    assert_eq!(replays.len(), 1, "round 1 was replayed exactly once");
    assert!(
        (replays[0].time - 1.0).abs() < 1e-12,
        "the replayed round is round 1"
    );
}

#[test]
fn store_backed_recovery_is_bit_identical_to_in_memory() {
    // The same crash scenario twice — once with checkpoints only in
    // memory, once restored from the run store — must land on
    // identical parameters (and both on the uninterrupted twin).
    let seed = 67u64;
    let cuts = [2usize, 4];
    let k = vec![3usize, 2, 1];
    let w = widths(seed);
    let data = round_data(seed, 3, 4, 4, w[0], w[4]);
    let lr = 0.1f32;
    let expect = uninterrupted_params(seed, &cuts, &k, &data, lr);

    let run = |store_path: Option<PathBuf>| -> Vec<f32> {
        let opts = RuntimeOptions {
            recv_timeout: Duration::from_secs(10),
            fault_plan: FaultPlan::kill_at(1, 1, 2),
            store_path,
            ..RuntimeOptions::default()
        };
        let mut trainer = PipelineTrainer::launch_supervised(factory(seed, &cuts), k.clone(), opts)
            .expect("launch");
        let mut r = 0usize;
        while r < data.len() {
            match trainer.train_round(&data[r], lr) {
                Ok(_) => r += 1,
                Err(_) => r = trainer.recover().expect("recovery") as usize,
            }
        }
        let params = trainer.params().expect("collect");
        trainer.shutdown();
        params
    };

    let dir = temp_store("bitident");
    let in_memory = run(None);
    let store_backed = run(Some(dir.clone()));
    assert_eq!(
        store_backed, in_memory,
        "store-restored replay must be bit-identical to the in-memory path"
    );
    assert_eq!(store_backed, expect, "and to the uninterrupted twin");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stored_checkpoints_have_monotone_seqs_and_load_by_seq() {
    let seed = 91u64;
    let cuts = [3usize];
    let k = vec![2usize, 1];
    let w = widths(seed);
    let data = round_data(seed, 3, 3, 4, w[0], w[4]);
    let dir = temp_store("seqs");

    let opts = RuntimeOptions {
        store_path: Some(dir.clone()),
        ..RuntimeOptions::default()
    };
    let mut trainer =
        PipelineTrainer::launch_supervised(factory(seed, &cuts), k.clone(), opts).expect("launch");
    let mut per_round_params = vec![trainer.checkpoint().params.clone()];
    for batch in &data {
        trainer.train_round(batch, 0.1).expect("round");
        per_round_params.push(trainer.checkpoint().params.clone());
    }
    trainer.shutdown();

    // One checkpoint at launch + one per round, seqs 0,1,2,...
    let metas = stored_checkpoints(&dir).expect("list");
    assert_eq!(metas.len(), 1 + data.len());
    for (i, m) in metas.iter().enumerate() {
        assert_eq!(m.seq, i as u64, "seqs must be dense and monotone");
        assert_eq!(m.round, i as u64, "one checkpoint per completed round");
    }

    // Point-in-time: seq s restores the exact post-round-s snapshot;
    // a probe between stored seqs resolves to the latest ≤ it.
    for (s, want) in per_round_params.iter().enumerate() {
        let rec = load_checkpoint_at_or_before(&dir, s as u64)
            .expect("load")
            .expect("present");
        assert_eq!(rec.seq, s as u64);
        assert_eq!(&rec.params, want, "seq {s} must restore its own snapshot");
    }
    let latest = load_latest_checkpoint(&dir)
        .expect("load")
        .expect("present");
    assert_eq!(latest.seq, data.len() as u64);
    assert_eq!(&latest.params, per_round_params.last().unwrap());
    assert!(
        load_checkpoint_at_or_before(&dir, u64::MAX)
            .expect("load")
            .expect("present")
            .seq
            == latest.seq
    );

    // A second run against the same store continues the numbering —
    // the cross-run half of the versioned-checkpoint contract.
    let opts = RuntimeOptions {
        store_path: Some(dir.clone()),
        ..RuntimeOptions::default()
    };
    let trainer =
        PipelineTrainer::launch_supervised(factory(seed, &cuts), k, opts).expect("relaunch");
    assert_eq!(trainer.checkpoint().seq, (1 + data.len()) as u64);
    trainer.shutdown();
    let metas = stored_checkpoints(&dir).expect("list");
    assert_eq!(metas.len(), 2 + data.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_crash_recover_replay_is_bit_identical() {
    // The §4.4 property, over random architectures, splits, micro-batch
    // counts and kill points: recovery + replay always converges to the
    // uninterrupted twin, bit for bit.
    let input = pair(
        pair(usize_in(0, 1_000_000), vec_in(usize_in(0, 6), 0, 3)),
        quad(
            usize_in(1, 5),                                         // m
            usize_in(1, 3),                                         // rounds
            triple(usize_in(0, 9), usize_in(0, 9), usize_in(0, 9)), // kill point (mod-mapped)
            usize_in(1, 4),                                         // batch size
        ),
    );
    forall(
        "checkpoint_crash_recover_replay_is_bit_identical",
        12,
        &input,
        |((seed, cuts), (m, rounds, (ks, kr, kn), bs))| {
            let (seed, m, rounds, bs) = (*seed as u64, *m, *rounds, *bs);
            let w = widths(seed);
            let probe = factory(seed, cuts)();
            let s_count = probe.len();
            drop(probe);
            let k: Vec<usize> = (0..s_count).map(|s| s_count - s).collect();
            let data = round_data(seed, rounds, m, bs, w[0], w[4]);
            let lr = 0.1f32;
            let expect = uninterrupted_params(seed, cuts, &k, &data, lr);

            let kill = FaultPlan::kill_at(ks % s_count, (kr % rounds) as u64, kn % m);
            let opts = RuntimeOptions {
                recv_timeout: Duration::from_secs(10),
                fault_plan: kill,
                ..RuntimeOptions::default()
            };
            let mut trainer =
                PipelineTrainer::launch_supervised(factory(seed, cuts), k, opts).expect("launch");
            let mut r = 0usize;
            let mut recoveries = 0usize;
            while r < rounds {
                match trainer.train_round(&data[r], lr) {
                    Ok(_) => r += 1,
                    Err(e) => {
                        assert!(matches!(e, ExecError::StageDied { .. }), "got {e:?}");
                        recoveries += 1;
                        assert!(recoveries <= 1, "a single transient kill fires once");
                        r = trainer.recover().expect("recovery") as usize;
                    }
                }
            }
            assert_eq!(recoveries, 1, "the scheduled kill must actually fire");
            assert_eq!(
                trainer.params().expect("collect"),
                expect,
                "replay diverged from the uninterrupted twin"
            );
            trainer.shutdown();
        },
    );
}
