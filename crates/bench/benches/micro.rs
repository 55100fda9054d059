//! Micro-benchmarks of the hot algorithmic kernels, driven by
//! `ecofl_bench::time_case` (the criterion-free harness):
//! the Eq. 1 dynamic-programming partitioner, the event-driven pipeline
//! executor, the event queue at 100k events, k-means latency
//! clustering (exact and million-point mini-batch), the million-client
//! Eq. 4 association over 64 shared histograms, JS divergence, FedAvg
//! aggregation, client local training, the blocked tensor kernels
//! that dominate it — each blocked kernel timed next to its retained
//! naive reference so every `BENCH_micro.json` snapshot carries its own
//! before/after ratio — and the segmented run store (block append,
//! summary-pruned round query vs. full scan).
//!
//! Iteration counts honor `ECOFL_BENCH_ITERS` / `ECOFL_BENCH_WARMUP`
//! (the CI smoke path runs 1 iteration); the run finishes by writing a
//! `BENCH_micro.json` snapshot via `write_bench_snapshot`.

use ecofl_bench::{bench_iters, bench_warmup, header, time_case, write_bench_snapshot};
use ecofl_data::SyntheticSpec;
use ecofl_fl::aggregate::weighted_average;
use ecofl_fl::client::{local_train, LocalTrainConfig};
use ecofl_grouping::{kmeans_1d, kmeans_1d_minibatch, Grouper, GroupingConfig, GroupingStrategy};
use ecofl_models::{efficientnet_at, ModelArch};
use ecofl_pipeline::executor::{PipelineExecutor, SchedulePolicy};
use ecofl_pipeline::orchestrator::k_bounds;
use ecofl_pipeline::partition::partition_dp;
use ecofl_pipeline::profiler::PipelineProfile;
use ecofl_simnet::{nano_h, nano_l, tx2_n, tx2_q, Device, EventQueue, Link};
use ecofl_tensor::{reference, Conv2d, Layer, Sgd, Tensor};
use ecofl_util::{js_divergence, Rng};
use std::hint::black_box;

/// Criterion ran `sample_size(20)`; keep the same default
/// measured-iteration count so timings stay comparable across the
/// harness switch. Overridden by `ECOFL_BENCH_ITERS`.
const DEFAULT_ITERS: usize = 20;
const DEFAULT_WARMUP: usize = 3;

fn iters() -> usize {
    bench_iters(DEFAULT_ITERS)
}

fn warmup() -> usize {
    bench_warmup(DEFAULT_WARMUP)
}

fn bench_partition() {
    let model = efficientnet_at(6, 224);
    let devices = vec![
        Device::new(tx2_q()),
        Device::new(nano_h()),
        Device::new(nano_h()),
    ];
    let link = Link::mbps_100();
    time_case("partition_dp_b6_3dev", warmup(), iters(), || {
        partition_dp(black_box(&model), &devices, &link, 16)
    });
    // One candidate of the `ecofl plan` six-device search
    // (`tx2q,tx2n,tx2n,nanoh,nanoh,nanol`): the recurrence's O(D·L²) at
    // the deepest model and widest home.
    let home = [tx2_q(), tx2_n(), tx2_n(), nano_h(), nano_h(), nano_l()].map(Device::new);
    time_case("partition_dp_b6_6stage", warmup(), iters(), || {
        partition_dp(black_box(&model), &home, &link, 8)
    });
}

fn bench_executor() {
    let model = efficientnet_at(2, 224);
    let devices = vec![
        Device::new(tx2_q()),
        Device::new(nano_h()),
        Device::new(nano_h()),
    ];
    let link = Link::mbps_100();
    let partition = partition_dp(&model, &devices, &link, 16).expect("feasible");
    let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, 16);
    let k = k_bounds(&profile).expect("residency");
    time_case("executor_sync_round_m16", warmup(), iters(), || {
        PipelineExecutor::new(
            black_box(&profile),
            SchedulePolicy::OneFOneBSync { k: k.clone() },
        )
        .expect("valid schedule")
        .run(16, 1)
    });
}

fn bench_kmeans() {
    let mut rng = Rng::new(5);
    let points: Vec<f64> = (0..300).map(|_| rng.range_f64(5.0, 150.0)).collect();
    time_case("kmeans_300_clients_k5", warmup(), iters(), || {
        let mut r = Rng::new(7);
        kmeans_1d(black_box(&points), 5, &mut r, 100)
    });
}

fn bench_eventqueue() {
    // 100k events through the event queue: schedule with an
    // xorshift time spread, then drain to empty — far deeper than any
    // scenario's 1–20 pending events (DESIGN.md §11), so an upper
    // bound on the per-event cost.
    time_case("eventqueue_schedule_pop", warmup(), iters(), || {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..100_000usize {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule((x % 1_000_000) as f64 * 1e-3, i);
        }
        let mut drained = 0usize;
        while q.pop().is_some() {
            drained += 1;
        }
        black_box(drained)
    });
}

fn bench_kmeans_minibatch() {
    // Million-point latency clustering via mini-batch k-means — the
    // initial-grouping seed at the scale the exact Lloyd path cannot
    // afford (its per-sweep cost is O(n·k) with tens of sweeps).
    let mut rng = Rng::new(31);
    let points: Vec<f64> = (0..1_000_000).map(|_| rng.range_f64(5.0, 150.0)).collect();
    time_case("kmeans_minibatch_1m", warmup(), iters(), || {
        let mut r = Rng::new(7);
        kmeans_1d_minibatch(black_box(&points), 5, 8192, 30, &mut r)
    });
}

fn bench_grouper_initial() {
    // The census-scale association as `Hierarchical::begin` runs it: a
    // million latencies over 64 shared 10-class histograms (two classes
    // per shard), five groups, 8192-client batches, `FlConfig`'s
    // default thresholds and λ. The grouper takes its inputs by value,
    // so each iteration also times 12 MB of input copies — standing in
    // for `all_latencies()` and the shard map `begin` builds.
    let mut rng = Rng::new(31);
    let latencies: Vec<f64> = (0..1_000_000).map(|_| rng.range_f64(5.0, 150.0)).collect();
    let rows: Vec<Vec<f64>> = (0..64)
        .map(|shard| {
            let mut row = vec![0.0; 10];
            row[shard % 10] += 30.0;
            row[(shard * 7 + 3) % 10] += 30.0;
            row
        })
        .collect();
    let row_of: Vec<u32> = (0..latencies.len()).map(|i| (i % 64) as u32).collect();
    let config = GroupingConfig {
        num_groups: 5,
        strategy: GroupingStrategy::EcoFl { lambda: 1000.0 },
        rt_relative: 0.6,
        rt_min: 5.0,
        assign_batch: 8192,
    };
    time_case("grouper_initial_1m_64rows", warmup(), iters(), || {
        Grouper::initial_shared(
            black_box(latencies.clone()),
            rows.clone(),
            row_of.clone(),
            config,
            &mut Rng::new(7),
        )
    });
}

fn bench_js() {
    let p: Vec<f64> = (0..10).map(|i| (i + 1) as f64 / 55.0).collect();
    let q = vec![0.1f64; 10];
    time_case("js_divergence_10_classes", warmup(), iters(), || {
        js_divergence(black_box(&p), black_box(&q))
    });
}

fn bench_aggregate() {
    let mut rng = Rng::new(9);
    let updates: Vec<Vec<f32>> = (0..20)
        .map(|_| (0..4938).map(|_| rng.next_f32()).collect())
        .collect();
    time_case("weighted_average_20x4938", warmup(), iters(), || {
        let refs: Vec<(&[f32], f64)> = updates.iter().map(|u| (u.as_slice(), 60.0)).collect();
        weighted_average(black_box(&refs))
    });
}

fn bench_local_train() {
    let spec = SyntheticSpec::mnist_like();
    let protos = spec.prototypes(1);
    let mut rng = Rng::new(2);
    let data = protos.sample_balanced(6, &mut rng);
    let start = ModelArch::Mlp
        .build(spec.feature_dim, spec.num_classes, &mut Rng::new(3))
        .params();
    let cfg = LocalTrainConfig {
        epochs: 3,
        batch_size: 10,
        lr: 0.05,
        mu: 0.05,
    };
    time_case("local_train_60samples_3epochs", warmup(), iters(), || {
        let mut r = Rng::new(11);
        local_train(ModelArch::Mlp, black_box(&start), &data, &cfg, &mut r)
    });

    // One steady-state SGD step of that call: the paper's MLP at batch
    // 10, forward + loss + backward + proximal step in place. The six
    // batches of the shard take turns, as in an epoch: a step timed on one
    // repeated batch lets the branch predictor learn the activation signs.
    let mut net = ModelArch::Mlp.build_uninit(spec.feature_dim, spec.num_classes);
    net.set_params(&start);
    let batches: Vec<(Tensor, Vec<usize>)> = (0..data.len())
        .collect::<Vec<_>>()
        .chunks(cfg.batch_size)
        .map(|batch| {
            let (feats, labels) = data.gather(batch);
            (
                Tensor::from_vec(feats, &[labels.len(), spec.feature_dim]),
                labels,
            )
        })
        .collect();
    let mut opt = Sgd::new(cfg.lr).with_proximal(cfg.mu);
    let mut turn = 0;
    time_case("train_step_mlp_b10", warmup(), iters(), || {
        let (x, labels) = &batches[turn % batches.len()];
        turn += 1;
        net.zero_grads();
        let loss = net.train_step(black_box(x), labels);
        net.sgd_step(&mut opt, Some(&start));
        loss
    });
}

fn bench_matmul() {
    let mut rng = Rng::new(13);
    let a = Tensor::randn(&[64, 64], 1.0, &mut rng);
    let b_mat = Tensor::randn(&[64, 64], 1.0, &mut rng);
    time_case("matmul_64x64", warmup(), iters(), || {
        black_box(&a).matmul(black_box(&b_mat))
    });
    time_case("matmul_64x64_naive", warmup(), iters(), || {
        reference::naive_matmul(black_box(a.data()), black_box(b_mat.data()), 64, 64, 64)
    });
    time_case("matmul_tn_64x64", warmup(), iters(), || {
        black_box(&a).matmul_tn(black_box(&b_mat))
    });
    time_case("matmul_nt_64x64", warmup(), iters(), || {
        black_box(&a).matmul_nt(black_box(&b_mat))
    });

    // The three products of the FL MLP's widest layer at batch 10:
    // `x·W`, `xᵀ·g` and `g·Wᵀ` — L1-resident.
    let x = Tensor::randn(&[10, 32], 1.0, &mut rng);
    let w = Tensor::randn(&[32, 64], 1.0, &mut rng);
    let g = Tensor::randn(&[10, 64], 1.0, &mut rng);
    time_case("matmul_10x32x64", warmup(), iters(), || {
        black_box(&x).matmul(black_box(&w))
    });
    time_case("matmul_tn_10x32x64", warmup(), iters(), || {
        black_box(&x).matmul_tn(black_box(&g))
    });
    time_case("matmul_nt_10x64x32", warmup(), iters(), || {
        black_box(&g).matmul_nt(black_box(&w))
    });

    let a256 = Tensor::randn(&[256, 256], 1.0, &mut rng);
    let b256 = Tensor::randn(&[256, 256], 1.0, &mut rng);
    time_case("matmul_256x256", warmup(), iters(), || {
        black_box(&a256).matmul(black_box(&b256))
    });
}

fn bench_conv() {
    let mut rng = Rng::new(17);
    let x = Tensor::randn(&[4, 8, 16, 16], 1.0, &mut rng);
    let mut conv = Conv2d::new(8, 16, 3, 1, &mut rng);
    let out = conv.forward(x.clone());
    let grad = Tensor::randn(out.shape(), 1.0, &mut rng);
    conv.clear_cache();
    // Layers consume their tensors; the clones stand where the layer's
    // own input copy stood, so the cases stay comparable across the
    // by-value API change.
    time_case("conv2d_fwd_4x8x16x16_k3", warmup(), iters(), || {
        let y = conv.forward(black_box(&x).clone());
        conv.clear_cache();
        y
    });
    time_case("conv2d_fwd_bwd_4x8x16x16_k3", warmup(), iters(), || {
        let _ = conv.forward(black_box(&x).clone());
        conv.backward(black_box(&grad).clone())
    });
}

fn bench_store() {
    use ecofl_obs::{Domain, RunStore, SpanKind, SpanRecord, TraceQuery, TraceRecord};

    // A deterministic 40-round, 20k-record trace: 500 spans per round,
    // virtual times spread so every block summary is round-disjoint.
    let records: Vec<TraceRecord> = (0..40u64)
        .flat_map(|r| {
            (0..500u64).map(move |i| {
                let t = (r * 100) as f64 + i as f64 * 0.1;
                TraceRecord::Span(SpanRecord {
                    domain: Domain::Pipeline,
                    kind: if i % 2 == 0 {
                        SpanKind::Forward
                    } else {
                        SpanKind::Backward
                    },
                    entity: (i % 4) as usize,
                    round: r as usize,
                    micro: (i % 3) as usize,
                    t0: t,
                    t1: t + 0.05,
                })
            })
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("ecofl-bench-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    time_case("store_append_20k_records", warmup(), iters(), || {
        let mut store = RunStore::create(&dir)
            .expect("create store")
            .with_block_records(256);
        store.append(black_box(&records)).expect("append");
        store.flush().expect("flush");
        store.record_count()
    });

    // Query the store the append case left behind: a one-round range
    // (summaries prune ~79 of 80 blocks) next to the full scan.
    let store = RunStore::open(&dir).expect("open store");
    let pruned = TraceQuery::new().rounds(30..31);
    time_case("store_query_rounds_pruned", warmup(), iters(), || {
        store
            .query(black_box(&pruned))
            .expect("query")
            .records
            .len()
    });
    let full = TraceQuery::new();
    time_case("store_query_full_scan", warmup(), iters(), || {
        store.query(black_box(&full)).expect("query").records.len()
    });
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_metrics() {
    use ecofl_obs::MetricsHub;

    // Batches of 1024 ops per sample: a single atomic add / sketch
    // insert is below timer resolution, so the committed number is the
    // per-1024 cost of the hot instrument paths.
    let hub = MetricsHub::new();
    let counter = hub.counter("bench_counter");
    time_case("metrics_hub_counter_inc_1024", warmup(), iters(), || {
        for _ in 0..1024 {
            black_box(&counter).inc(1);
        }
        counter.get()
    });

    let histogram = hub.histogram("bench_histogram");
    let mut rng = Rng::new(23);
    let values: Vec<f64> = (0..1024).map(|_| rng.range_f64(1e-6, 1e6)).collect();
    time_case(
        "metrics_hub_histogram_record_1024",
        warmup(),
        iters(),
        || {
            for &v in &values {
                black_box(&histogram).record(v);
            }
        },
    );

    // Snapshot cost over a realistically-sized registry: the live CLI
    // dashboard takes one of these per refresh tick.
    let populated = MetricsHub::new();
    let mut r = Rng::new(29);
    for i in 0..16 {
        populated.counter(&format!("c{i}")).inc(i + 1);
        populated.gauge(&format!("g{i}")).set(i as f64);
        let h = populated.histogram(&format!("h{i}"));
        for _ in 0..256 {
            h.record(r.range_f64(1e-3, 1e3));
        }
    }
    time_case("metrics_hub_snapshot_48_series", warmup(), iters(), || {
        black_box(&populated).snapshot(0)
    });
}

fn bench_sgd() {
    let mut rng = Rng::new(19);
    let mut params: Vec<f32> = (0..4938).map(|_| rng.next_f32()).collect();
    let grads: Vec<f32> = (0..4938).map(|_| rng.next_f32()).collect();
    let anchor: Vec<f32> = (0..4938).map(|_| rng.next_f32()).collect();
    let mut opt = Sgd::new(0.05).with_momentum(0.9).with_proximal(0.05);
    time_case("sgd_prox_momentum_4938", warmup(), iters(), || {
        opt.step(black_box(&mut params), black_box(&grads), Some(&anchor));
    });
}

fn main() {
    header("Micro-benchmarks (hot kernels)");
    bench_partition();
    bench_executor();
    bench_kmeans();
    bench_kmeans_minibatch();
    bench_grouper_initial();
    bench_eventqueue();
    bench_js();
    bench_aggregate();
    bench_local_train();
    bench_matmul();
    bench_conv();
    bench_sgd();
    bench_store();
    bench_metrics();
    write_bench_snapshot("micro");
}
