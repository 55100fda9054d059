//! The batched association as `Grouper::initial` ran it before Eq. 4's
//! data term was scored per histogram row: every client scored against
//! every group with the three-`Vec` union-JS, each touched group's
//! center re-summed over its members after every batch, and the
//! drop-out pool found by scanning the membership. Slow and plain, kept
//! as the reference the differential sweep holds the grouper to — as is
//! the per-client rejoin loop `Grouper::rejoin_pass` replaced.

use ecofl_grouping::{
    kmeans_1d_minibatch, Grouper, GroupingConfig, GroupingStrategy, RegroupOutcome,
};
use ecofl_util::{js_divergence, normalize_distribution, Rng};

/// Algorithm 1's rejoin sweep as the Eco-FL strategy ran it: every
/// pooled client, in ascending order, re-observed at its recorded
/// latency. Returns the rejoins as `(client, group)`.
pub fn rejoin_loop(grouper: &mut Grouper) -> Vec<(usize, usize)> {
    let mut rejoined = Vec::new();
    for client in grouper.dropped() {
        match grouper.observe_latency(client, grouper.latency_of(client)) {
            RegroupOutcome::Rejoined { to } => rejoined.push((client, to)),
            RegroupOutcome::StillDropped => {}
            other => panic!("pooled client {client} came back {other:?}"),
        }
    }
    rejoined
}

/// One group of the reference association.
pub struct OracleGroup {
    pub members: Vec<usize>,
    member_latencies: Vec<f64>,
    pub label_counts: Vec<f64>,
    pub center: f64,
}

/// The reference association's result.
pub struct Oracle {
    pub groups: Vec<OracleGroup>,
    membership: Vec<Option<usize>>,
}

/// The Eq. 4 cost over raw `(center, counts)` parts.
pub fn assignment_cost_parts(
    center: f64,
    group_counts: &[f64],
    client_latency: f64,
    client_counts: &[f64],
    lambda: f64,
    latency_weight: f64,
) -> f64 {
    let union: Vec<f64> = group_counts
        .iter()
        .zip(client_counts)
        .map(|(a, b)| a + b)
        .collect();
    let n = union.len();
    let js = js_divergence(&normalize_distribution(&union), &vec![1.0 / n as f64; n]);
    latency_weight * (center - client_latency).abs() + lambda * js
}

impl Oracle {
    /// Batched greedy association (`config.assign_batch > 0`) over one
    /// histogram per client.
    pub fn initial(
        latencies: &[f64],
        label_counts: &[Vec<f64>],
        config: GroupingConfig,
        rng: &mut Rng,
    ) -> Self {
        assert!(config.assign_batch > 0, "the oracle is the batched path");
        let (lambda, lat_w, uses_threshold) = match config.strategy {
            GroupingStrategy::EcoFl { lambda } => (lambda, 1.0, true),
            GroupingStrategy::LatencyOnly => (0.0, 1.0, true),
            GroupingStrategy::DataOnly => (1.0, 0.0, false),
        };
        let km = kmeans_1d_minibatch(
            latencies,
            config.num_groups,
            config.assign_batch.min(1024),
            30,
            rng,
        );
        let mut groups: Vec<OracleGroup> = km
            .centroids
            .iter()
            .map(|&c| OracleGroup {
                members: Vec::new(),
                member_latencies: Vec::new(),
                label_counts: vec![0.0; label_counts[0].len()],
                center: c,
            })
            .collect();
        let mut membership = vec![None; latencies.len()];
        let ids: Vec<usize> = (0..latencies.len()).collect();
        for batch in ids.chunks(config.assign_batch) {
            let snaps: Vec<(f64, Vec<f64>)> = groups
                .iter()
                .map(|g| (g.center, g.label_counts.clone()))
                .collect();
            let choices: Vec<Option<usize>> = batch
                .iter()
                .map(|&client| {
                    let mut best: Option<(f64, usize)> = None;
                    for (g, (center, group_counts)) in snaps.iter().enumerate() {
                        let threshold = (config.rt_relative * center).max(config.rt_min);
                        let within =
                            !uses_threshold || (center - latencies[client]).abs() <= threshold;
                        if !within {
                            continue;
                        }
                        let cost = assignment_cost_parts(
                            *center,
                            group_counts,
                            latencies[client],
                            &label_counts[client],
                            lambda,
                            lat_w,
                        );
                        if best.is_none_or(|(b, _)| cost < b) {
                            best = Some((cost, g));
                        }
                    }
                    best.map(|(_, g)| g)
                })
                .collect();
            let mut touched = vec![false; groups.len()];
            for (&client, &choice) in batch.iter().zip(&choices) {
                if let Some(g) = choice {
                    let group = &mut groups[g];
                    group.members.push(client);
                    group.member_latencies.push(latencies[client]);
                    for (acc, &c) in group.label_counts.iter_mut().zip(&label_counts[client]) {
                        *acc += c;
                    }
                    membership[client] = Some(g);
                    touched[g] = true;
                }
            }
            for (group, hit) in groups.iter_mut().zip(touched) {
                if hit {
                    group.center = group.member_latencies.iter().sum::<f64>()
                        / group.member_latencies.len() as f64;
                }
            }
        }
        Self { groups, membership }
    }

    /// The drop-out pool, by scanning the membership.
    pub fn dropped(&self) -> Vec<usize> {
        self.membership
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_none())
            .map(|(i, _)| i)
            .collect()
    }
}
