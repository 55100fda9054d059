//! Property-based tests for grouping invariants: membership consistency
//! under arbitrary latency-report sequences, k-means assignment
//! optimality, the Eq. 4 cost's λ-limits, and the differential sweep of
//! the batched association against its per-client reference.

mod oracle;

use ecofl_compat::check::{any_u64, f64_in, forall, pair, triple, usize_in, vec_in};
use ecofl_grouping::{assignment_cost, kmeans_1d, Grouper, GroupingConfig, GroupingStrategy};
use ecofl_util::Rng;

const CASES: usize = 48;

fn profiles(n: usize, seed: u64) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut rng = Rng::new(seed);
    let latencies = (0..n).map(|_| rng.range_f64(5.0, 100.0)).collect();
    let counts = (0..n)
        .map(|_| {
            let mut c = vec![0.0; 6];
            c[rng.range_usize(0, 6)] = 20.0;
            c[rng.range_usize(0, 6)] += 10.0;
            c
        })
        .collect();
    (latencies, counts)
}

fn config(lambda: f64) -> GroupingConfig {
    GroupingConfig {
        num_groups: 4,
        strategy: GroupingStrategy::EcoFl { lambda },
        rt_relative: 0.6,
        rt_min: 5.0,
        assign_batch: 0,
    }
}

/// Checks structural invariants of a grouper state.
fn check_invariants(g: &Grouper, n: usize) {
    // Every client appears exactly once: in one group or in the pool.
    let mut seen = vec![0usize; n];
    for group in g.groups() {
        for &m in &group.members {
            seen[m as usize] += 1;
        }
    }
    for c in g.dropped() {
        seen[c] += 1;
    }
    assert!(
        seen.iter().all(|&s| s == 1),
        "client membership must partition the population: {seen:?}"
    );
    // Group centers equal the mean member latency.
    for group in g.groups() {
        if group.is_empty() {
            continue;
        }
        let mean: f64 = group
            .members
            .iter()
            .map(|&c| g.latency_of(c as usize))
            .sum::<f64>()
            / group.len() as f64;
        assert!(
            (group.center() - mean).abs() < 1e-9,
            "center {} != member mean {mean}",
            group.center()
        );
    }
}

/// Algorithm 1's postcondition after a sequence of latency swings for
/// client 0 (shared by the property test and the pinned regressions).
fn algorithm1_postcondition(seed: u64, n: usize) {
    // After processing a report, the client either sits in a group whose
    // RT threshold admits its latency, or it is in the drop-out pool with
    // *no* group (its own excluded) admitting it.
    let (lat, counts) = profiles(n, seed);
    let mut g = Grouper::initial(&lat, &counts, config(500.0), &mut Rng::new(seed ^ 3));
    let client = 0usize;
    for &latency in &[1e6, lat[client], 3.0, lat[client]] {
        let _ = g.observe_latency(client, latency);
        let threshold = |center: f64| (0.6 * center).max(5.0);
        match g.group_of(client) {
            Some(idx) => {
                let center = g.groups()[idx].center();
                assert!(
                    (center - latency).abs() <= threshold(center) + 1e-9,
                    "client sits in a group that does not admit it: \
                     center {center}, latency {latency}"
                );
            }
            None => {
                for group in g.groups() {
                    if group.is_empty() {
                        continue;
                    }
                    assert!(
                        (group.center() - latency).abs() > threshold(group.center()) - 1e-9,
                        "dropped client would be admitted by group at center {}",
                        group.center()
                    );
                }
            }
        }
    }
}

#[test]
fn initial_grouping_partitions_population() {
    let input = pair(any_u64(), usize_in(4, 60));
    forall(
        "initial_grouping_partitions_population",
        CASES,
        &input,
        |&(seed, n)| {
            let (lat, counts) = profiles(n, seed);
            let g = Grouper::initial(&lat, &counts, config(500.0), &mut Rng::new(seed ^ 1));
            check_invariants(&g, n);
        },
    );
}

#[test]
fn invariants_survive_arbitrary_latency_reports() {
    let input = triple(
        any_u64(),
        usize_in(4, 40),
        vec_in(pair(usize_in(0, 40), f64_in(1.0, 500.0)), 0, 60),
    );
    forall(
        "invariants_survive_arbitrary_latency_reports",
        CASES,
        &input,
        |(seed, n, reports)| {
            let (seed, n) = (*seed, *n);
            let (lat, counts) = profiles(n, seed);
            let mut g = Grouper::initial(&lat, &counts, config(500.0), &mut Rng::new(seed ^ 1));
            for &(client, latency) in reports {
                let client = client % n;
                let _ = g.observe_latency(client, latency);
                check_invariants(&g, n);
            }
        },
    );
}

#[test]
fn kmeans_assignment_is_nearest_centroid() {
    let input = triple(any_u64(), vec_in(f64_in(0.0, 1e3), 1, 80), usize_in(1, 6));
    forall(
        "kmeans_assignment_is_nearest_centroid",
        CASES,
        &input,
        |(seed, points, k)| {
            let mut rng = Rng::new(*seed);
            let r = kmeans_1d(points, *k, &mut rng, 100);
            for (i, &p) in points.iter().enumerate() {
                let assigned = (p - r.centroids[r.assignment[i]]).abs();
                for &c in &r.centroids {
                    assert!(assigned <= (p - c).abs() + 1e-9);
                }
            }
        },
    );
}

#[test]
fn lambda_zero_cost_is_pure_latency() {
    let input = pair(any_u64(), usize_in(4, 30));
    forall(
        "lambda_zero_cost_is_pure_latency",
        CASES,
        &input,
        |&(seed, n)| {
            let (lat, counts) = profiles(n, seed);
            let g = Grouper::initial(&lat, &counts, config(0.0), &mut Rng::new(seed ^ 1));
            for group in g.groups() {
                if group.is_empty() {
                    continue;
                }
                // With λ = 0 the cost of a client at the center is 0.
                let cost = assignment_cost(
                    group,
                    group.center(),
                    &counts[group.members[0] as usize],
                    0.0,
                    1.0,
                );
                assert!(cost.abs() < 1e-9);
            }
        },
    );
}

#[test]
fn higher_lambda_never_worsens_average_js() {
    let input = pair(any_u64(), usize_in(24, 80));
    forall(
        "higher_lambda_never_worsens_average_js",
        CASES,
        &input,
        |&(seed, n)| {
            // Greedy association is not perfectly monotone in λ for small
            // populations; at realistic population sizes a large λ must not
            // leave the groups meaningfully less balanced than λ = 0.
            let (lat, counts) = profiles(n, seed);
            let js_low = Grouper::initial(&lat, &counts, config(0.0), &mut Rng::new(seed ^ 2))
                .avg_group_js();
            let js_high = Grouper::initial(&lat, &counts, config(5000.0), &mut Rng::new(seed ^ 2))
                .avg_group_js();
            assert!(
                js_high <= js_low + 0.1,
                "λ=5000 js {js_high} vs λ=0 js {js_low}"
            );
        },
    );
}

#[test]
fn data_only_cost_is_latency_invariant() {
    let input = triple(any_u64(), usize_in(4, 40), f64_in(1.0, 1e4));
    forall(
        "data_only_cost_is_latency_invariant",
        CASES,
        &input,
        |&(seed, n, shift)| {
            let (lat, counts) = profiles(n, seed);
            let cfg = GroupingConfig {
                num_groups: 4,
                strategy: GroupingStrategy::DataOnly,
                rt_relative: 0.6,
                rt_min: 5.0,
                assign_batch: 0,
            };
            // Cost: DataOnly zeroes the latency term via latency_weight,
            // so the Eq. 4 cost is bit-identical at any client latency.
            let g = Grouper::initial(&lat, &counts, cfg, &mut Rng::new(seed ^ 1));
            for group in g.groups() {
                let here = assignment_cost(group, lat[0], &counts[0], 1.0, 0.0);
                let moved = assignment_cost(group, lat[0] + shift, &counts[0], 1.0, 0.0);
                assert_eq!(here.to_bits(), moved.to_bits());
            }
            // Membership: shifting and stretching every latency leaves
            // the DataOnly partition unchanged (compared as a canonical
            // set of member sets — centroid order may permute).
            let scale = 1.0 + shift / 5e3;
            let lat2: Vec<f64> = lat.iter().map(|&l| l * scale + shift).collect();
            let g2 = Grouper::initial(&lat2, &counts, cfg, &mut Rng::new(seed ^ 1));
            let canon = |g: &Grouper| {
                let mut groups: Vec<Vec<u32>> = g
                    .groups()
                    .iter()
                    .map(|gr| {
                        let mut m = gr.members.clone();
                        m.sort_unstable();
                        m
                    })
                    .collect();
                groups.sort();
                groups
            };
            assert_eq!(canon(&g), canon(&g2));
        },
    );
}

#[test]
fn batched_association_is_deterministic() {
    // The mini-batch association path must be deterministic under its
    // seed: admissions happen sequentially in client order against
    // group state frozen per batch.
    let input = pair(any_u64(), usize_in(16, 80));
    forall(
        "batched_association_is_deterministic",
        CASES,
        &input,
        |&(seed, n)| {
            let (lat, counts) = profiles(n, seed);
            let mut cfg = config(500.0);
            cfg.assign_batch = 16;
            let g1 = Grouper::initial(&lat, &counts, cfg, &mut Rng::new(seed ^ 1));
            let g2 = Grouper::initial(&lat, &counts, cfg, &mut Rng::new(seed ^ 1));
            assert_eq!(g1.groups(), g2.groups());
            check_invariants(&g1, n);
        },
    );
}

#[test]
fn algorithm1_postcondition_holds_after_latency_swings() {
    let input = pair(any_u64(), usize_in(6, 30));
    forall(
        "algorithm1_postcondition_holds_after_latency_swings",
        CASES,
        &input,
        |&(seed, n)| algorithm1_postcondition(seed, n),
    );
}

/// Counterexamples proptest shrank to before this suite moved to
/// `ecofl_compat::check` (from `proptests.proptest-regressions`). They
/// are pinned explicitly so the exact historical failures stay covered
/// regardless of what the generator streams produce.
#[test]
fn regression_seeds_from_proptest_era() {
    for &(seed, n) in &[(3401519570887709663u64, 6usize), (5068576489037781687, 17)] {
        let (lat, counts) = profiles(n, seed);
        let g = Grouper::initial(&lat, &counts, config(500.0), &mut Rng::new(seed ^ 1));
        check_invariants(&g, n);
        algorithm1_postcondition(seed, n);
    }
}

/// `d` histograms over 6 classes and a random client → histogram map.
fn shared_profiles(n: usize, d: usize, seed: u64) -> (Vec<f64>, Vec<Vec<f64>>, Vec<u32>) {
    let mut rng = Rng::new(seed);
    let latencies = (0..n).map(|_| rng.range_f64(5.0, 160.0)).collect();
    let rows = (0..d)
        .map(|_| {
            let mut c = vec![0.0; 6];
            c[rng.range_usize(0, 6)] = 20.0;
            c[rng.range_usize(0, 6)] += 10.0;
            c
        })
        .collect();
    let row_of = (0..n).map(|_| rng.range_usize(0, d) as u32).collect();
    (latencies, rows, row_of)
}

#[test]
fn batched_association_matches_the_per_client_oracle() {
    let strategies = [
        GroupingStrategy::EcoFl { lambda: 500.0 },
        GroupingStrategy::LatencyOnly,
        GroupingStrategy::DataOnly,
    ];
    // The sweep must not go vacuous: it has to see clients start in the
    // pool and enter and leave it.
    let (mut started_dropped, mut pool_flips) = (0, 0);
    for seed in 0..4u64 {
        let n = 40 + 23 * seed as usize;
        for strategy in strategies {
            for assign_batch in [1, 7, 16, n, 10 * n] {
                for d in [1, 3, n / 4, n] {
                    let case = format!("seed {seed} {strategy:?} batch {assign_batch} rows {d}");
                    let (lat, rows, row_of) = shared_profiles(n, d, seed ^ 0xD1FF);
                    let per_client: Vec<Vec<f64>> =
                        row_of.iter().map(|&r| rows[r as usize].clone()).collect();
                    let cfg = GroupingConfig {
                        strategy,
                        assign_batch,
                        ..config(0.0)
                    };
                    let want = oracle::Oracle::initial(&lat, &per_client, cfg, &mut Rng::new(seed));
                    let adapter = Grouper::initial(&lat, &per_client, cfg, &mut Rng::new(seed));
                    let mut shared = Grouper::initial_shared(
                        lat.clone(),
                        rows,
                        row_of,
                        cfg,
                        &mut Rng::new(seed),
                    );

                    // Same groups in the same member order, same center
                    // and pooled-count bits, same drop-out pool.
                    assert_eq!(shared.groups().len(), want.groups.len(), "{case}");
                    for (got, want) in shared.groups().iter().zip(&want.groups) {
                        let got_members: Vec<usize> =
                            got.members.iter().map(|&m| m as usize).collect();
                        assert_eq!(got_members, want.members, "{case}");
                        assert_eq!(got.center().to_bits(), want.center.to_bits(), "{case}");
                        assert_eq!(got.label_counts(), want.label_counts, "{case}");
                    }
                    assert_eq!(shared.dropped(), want.dropped(), "{case}");
                    started_dropped += shared.num_dropped();
                    // One histogram per client or a shared table: the
                    // same grouper.
                    assert_eq!(adapter.groups(), shared.groups(), "{case}");
                    assert_eq!(adapter.dropped(), shared.dropped(), "{case}");

                    // Algorithm 1 keeps the maintained pool equal to the
                    // membership scan, in ascending order, and every
                    // center equal to the re-sum in member order.
                    let mut rng = Rng::new(seed ^ 0xA160);
                    for _ in 0..200 {
                        let client = rng.range_usize(0, n);
                        let before = shared.num_dropped();
                        let _ = shared.observe_latency(client, rng.range_f64(1.0, 400.0));
                        pool_flips += usize::from(shared.num_dropped() != before);
                        let scan: Vec<usize> =
                            (0..n).filter(|&c| shared.group_of(c).is_none()).collect();
                        assert_eq!(shared.dropped(), scan, "{case}");
                        assert_eq!(shared.num_dropped(), scan.len(), "{case}");
                        for group in shared.groups().iter().filter(|g| !g.is_empty()) {
                            let resum = group
                                .members
                                .iter()
                                .map(|&c| shared.latency_of(c as usize))
                                .sum::<f64>()
                                / group.len() as f64;
                            assert_eq!(group.center().to_bits(), resum.to_bits(), "{case}");
                        }
                    }
                }
            }
        }
    }
    assert!(started_dropped > 0 && pool_flips > 0);
}

#[test]
fn rejoin_pass_matches_the_per_client_loop() {
    let strategies = [
        GroupingStrategy::EcoFl { lambda: 500.0 },
        GroupingStrategy::LatencyOnly,
        GroupingStrategy::DataOnly,
    ];
    let n = 6000;
    for (seed, strategy) in (0..).zip(strategies) {
        let (lat, rows, row_of) = shared_profiles(n, 64, seed ^ 0x5E70);
        let cfg = GroupingConfig {
            strategy,
            rt_relative: 0.3,
            rt_min: 2.0,
            assign_batch: 1024,
            ..config(0.0)
        };
        let mut g = Grouper::initial_shared(lat, rows, row_of, cfg, &mut Rng::new(seed));
        let mut rng = Rng::new(seed ^ 0xA160);
        let (mut peak_pool, mut rejoins) = (g.num_dropped(), 0);
        for pass in 0..60 {
            // Reports for grouped clients, as a finished cohort files
            // them: some stay, some move, some are dropped, and the
            // centers they shift decide who can rejoin.
            for _ in 0..60 {
                let client = rng.range_usize(0, n);
                if g.group_of(client).is_some() {
                    let _ = g.observe_latency(client, rng.range_f64(1.0, 400.0));
                }
            }
            peak_pool = peak_pool.max(g.num_dropped());
            let mut want = g.clone();
            let want_rejoined = oracle::rejoin_loop(&mut want);
            let got_rejoined = g.rejoin_pass();
            let case = format!("{strategy:?} pass {pass}");
            assert_eq!(got_rejoined, want_rejoined, "{case}");
            assert_eq!(g.groups(), want.groups(), "{case}");
            assert_eq!(g.dropped(), want.dropped(), "{case}");
            for client in 0..n {
                assert_eq!(g.group_of(client), want.group_of(client), "{case}");
                assert_eq!(
                    g.latency_of(client).to_bits(),
                    want.latency_of(client).to_bits(),
                    "{case}"
                );
            }
            rejoins += got_rejoined.len();
        }
        println!("{strategy:?}: pool peaked at {peak_pool}, {rejoins} rejoins");
        if strategy != GroupingStrategy::DataOnly {
            // Not vacuous: a census-sized pool, and clients leaving it.
            assert!(
                peak_pool >= 1000,
                "{strategy:?}: pool peaked at {peak_pool}"
            );
            assert!(rejoins > 0, "{strategy:?}: nobody rejoined");
        }
    }
}
