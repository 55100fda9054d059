//! Initial grouping and Algorithm 1's dynamic re-grouping.

use crate::cost::{assignment_cost, union_js_from_iid_parts, GroupState};
use crate::kmeans::{kmeans_1d, minibatch_centroids};
use ecofl_util::Rng;
use std::collections::{BTreeSet, HashMap};

/// Which grouping criterion to apply — Eco-FL's Eq. 4 or one of the two
/// degenerate baselines the paper compares against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupingStrategy {
    /// Eq. 4 with the given λ.
    EcoFl {
        /// Data-heterogeneity weight λ.
        lambda: f64,
    },
    /// FedAT: response latency only (λ = 0).
    LatencyOnly,
    /// Astraea: data distribution only (no latency term, no latency
    /// thresholds).
    DataOnly,
}

impl GroupingStrategy {
    fn lambda(self) -> f64 {
        match self {
            GroupingStrategy::EcoFl { lambda } => lambda,
            GroupingStrategy::LatencyOnly => 0.0,
            // The latency term is already zeroed by `latency_weight`,
            // so the data term needs no outsized λ to dominate — 1.0
            // keeps the JS divergence unscaled and the cost latency-
            // invariant (pinned by the `data_only_cost_is_latency_
            // invariant` property test).
            GroupingStrategy::DataOnly => 1.0,
        }
    }

    fn latency_weight(self) -> f64 {
        match self {
            GroupingStrategy::DataOnly => 0.0,
            _ => 1.0,
        }
    }

    fn uses_threshold(self) -> bool {
        !matches!(self, GroupingStrategy::DataOnly)
    }
}

/// Configuration of the grouping scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupingConfig {
    /// Number of groups.
    pub num_groups: usize,
    /// Grouping criterion.
    pub strategy: GroupingStrategy,
    /// Latency threshold `RT_g` as a fraction of the group center
    /// (`RT_g = rt_relative · L_g`), floored at `rt_min` seconds.
    pub rt_relative: f64,
    /// Absolute floor for `RT_g`, seconds.
    pub rt_min: f64,
    /// Mini-batch size for initial association. `0` (the default) runs
    /// the exact O(n²) greedy sweep; a positive value `B` switches to
    /// mini-batch k-means seeding plus batched greedy association:
    /// O(n·k) comparisons, with the data term of Eq. 4 evaluated once
    /// per (distinct label histogram in the batch, group) —
    /// O((n/B)·min(B, histograms)·k·C) — which keeps million-client
    /// grouping linear.
    pub assign_batch: usize,
}

impl GroupingConfig {
    /// Checks the knobs that reach grouping arithmetic, for a
    /// population of `num_clients`, returning a description of the
    /// first violation.
    ///
    /// Unchecked, zero groups divides by zero in the cohort sizing and
    /// trips k-means' `k > 0` assert; a NaN λ makes every Eq. 4 cost
    /// NaN, after which `cost < best` is never true and the first
    /// admissible group silently wins; a NaN threshold knob is
    /// swallowed by `f64::max`.
    ///
    /// # Errors
    /// Returns `Err(message)` naming the offending field and value.
    pub fn validate(&self, num_clients: usize) -> Result<(), String> {
        if self.num_groups == 0 {
            return Err("num_groups must be at least 1, got 0".into());
        }
        // NaN fails `x >= 0.0`, so it lands in the error arm.
        let non_negative = |name: &str, x: f64| {
            if x >= 0.0 && x.is_finite() {
                Ok(())
            } else {
                Err(format!("{name} must be non-negative and finite, got {x}"))
            }
        };
        non_negative("rt_relative", self.rt_relative)?;
        non_negative("rt_min", self.rt_min)?;
        if let GroupingStrategy::EcoFl { lambda } = self.strategy {
            non_negative("lambda", lambda)?;
        }
        // Client ids and histogram rows are held as `u32`, one value
        // reserved for "dropped".
        if num_clients >= NO_GROUP as usize {
            return Err(format!(
                "num_clients must be at most {}, got {num_clients}",
                NO_GROUP - 1
            ));
        }
        Ok(())
    }
}

impl Default for GroupingConfig {
    fn default() -> Self {
        Self {
            num_groups: 5,
            strategy: GroupingStrategy::EcoFl { lambda: 1000.0 },
            rt_relative: 0.5,
            rt_min: 2.0,
            assign_batch: 0,
        }
    }
}

/// What Algorithm 1 did with a client after a latency report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegroupOutcome {
    /// Latency still within its group's threshold.
    Stayed,
    /// Moved to a better-fitting group.
    Moved {
        /// Previous group.
        from: usize,
        /// New group.
        to: usize,
    },
    /// No group admits the client; temporarily dropped.
    Dropped {
        /// Group the client left.
        from: usize,
    },
    /// A previously dropped client rejoined.
    Rejoined {
        /// Group joined.
        to: usize,
    },
    /// Still dropped (no group in range).
    StillDropped,
}

impl RegroupOutcome {
    /// Records this outcome as a [`Domain::Grouping`](ecofl_obs::Domain)
    /// event on `tracer` at virtual time `time`. `Stayed` and
    /// `StillDropped` are no-ops — only membership changes are traced.
    /// The event value carries the group involved (destination for
    /// moves/rejoins, origin for drops).
    pub fn trace(&self, tracer: &ecofl_obs::Tracer, time: f64, client: usize) {
        use ecofl_obs::{Domain, EventKind};
        match *self {
            RegroupOutcome::Moved { to, .. } => {
                tracer.event(
                    Domain::Grouping,
                    EventKind::RegroupMoved,
                    client,
                    time,
                    to as f64,
                );
            }
            RegroupOutcome::Dropped { from } => {
                tracer.event(
                    Domain::Grouping,
                    EventKind::RegroupDropped,
                    client,
                    time,
                    from as f64,
                );
            }
            RegroupOutcome::Rejoined { to } => {
                tracer.event(
                    Domain::Grouping,
                    EventKind::RegroupRejoined,
                    client,
                    time,
                    to as f64,
                );
            }
            RegroupOutcome::Stayed | RegroupOutcome::StillDropped => {}
        }
    }
}

/// `membership` value of a client in the drop-out pool.
const NO_GROUP: u32 = u32::MAX;

/// The grouping scheduler: owns group states, per-client profiles, and the
/// drop-out pool.
#[derive(Debug, Clone)]
pub struct Grouper {
    config: GroupingConfig,
    groups: Vec<GroupState>,
    /// Client → group index (`NO_GROUP` = dropped).
    membership: Vec<u32>,
    /// Latest profiled latency per client.
    latencies: Vec<f64>,
    /// The distinct label histograms of the population; client `i`
    /// holds `rows[row_of[i]]`. A shard-virtualised population has as
    /// many rows as shards, not as clients.
    rows: Vec<Vec<f64>>,
    row_of: Vec<u32>,
    /// The drop-out pool: the clients whose `membership` is `NO_GROUP`,
    /// updated where a membership flips to or from it.
    pool: BTreeSet<u32>,
}

/// The data term of Eq. 4, `λ·JS(π_n^g, π_iid)`, memoised for one batch
/// of the batched association. Against group state frozen for the batch
/// it depends on a client only through its histogram row, so
/// [`fill_terms`] evaluates it the first time an admissible group asks
/// for a (row, group) pair and it is read back after that: per batch at
/// most `min(batch, distinct rows in the batch) × groups` divergences,
/// and never one the per-client scoring would not have computed (a group
/// no client of the row is within threshold of is never scored).
struct BatchTerms {
    groups: usize,
    /// Row → its slot in this batch (`u32::MAX` = not seen in it yet).
    /// Only rows of the batch get a slot: a table over all rows would
    /// have to be cleared per batch, `rows × groups` work that a
    /// population of all-distinct histograms cannot afford.
    slot_of_row: Vec<u32>,
    /// The rows seen in the batch, in first-appearance order.
    present: Vec<u32>,
    /// `terms[slot · groups + g]`, NaN until evaluated (a term is a
    /// finite λ times a divergence in `[0, 1]`, never NaN).
    terms: Vec<f64>,
}

impl BatchTerms {
    fn new(num_rows: usize, groups: usize) -> Self {
        Self {
            groups,
            slot_of_row: vec![u32::MAX; num_rows],
            present: Vec::new(),
            terms: Vec::new(),
        }
    }

    /// Forgets the previous batch: group state is about to change.
    fn next_batch(&mut self) {
        for &row in &self.present {
            self.slot_of_row[row as usize] = u32::MAX;
        }
        self.present.clear();
        self.terms.clear();
    }

    /// The terms of `row` against every group, NaN where this batch has
    /// not evaluated one yet; the row gets its slot the first time the
    /// batch meets it.
    fn row(&mut self, row: u32) -> &mut [f64] {
        let slot = &mut self.slot_of_row[row as usize];
        if *slot == u32::MAX {
            *slot = self.present.len() as u32;
            self.present.push(row);
            self.terms
                .extend(std::iter::repeat_n(f64::NAN, self.groups));
        }
        &mut self.terms[*slot as usize * self.groups..][..self.groups]
    }
}

impl Grouper {
    /// Runs profiling + initial grouping (§5.2) over one label
    /// histogram per client.
    ///
    /// `latencies[i]` and `label_counts[i]` are client `i`'s profiled
    /// response latency and raw label histogram. Equal histograms
    /// (compared by bit pattern) are stored once and the rest is
    /// [`Grouper::initial_shared`], which a caller that already knows
    /// which clients share a histogram should call directly.
    ///
    /// # Panics
    /// Panics on empty inputs, length mismatches or a `config` that
    /// fails [`GroupingConfig::validate`].
    #[must_use]
    pub fn initial(
        latencies: &[f64],
        label_counts: &[Vec<f64>],
        config: GroupingConfig,
        rng: &mut Rng,
    ) -> Self {
        assert_eq!(
            latencies.len(),
            label_counts.len(),
            "Grouper: profile length mismatch"
        );
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut row_ids: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut bits: Vec<u64> = Vec::new();
        let row_of = label_counts
            .iter()
            .map(|counts| {
                bits.clear();
                bits.extend(counts.iter().map(|c| c.to_bits()));
                if let Some(&row) = row_ids.get(bits.as_slice()) {
                    return row;
                }
                let row = u32::try_from(rows.len()).expect("more histograms than u32 clients");
                row_ids.insert(bits.clone(), row);
                rows.push(counts.clone());
                row
            })
            .collect();
        Self::initial_shared(latencies.to_vec(), rows, row_of, config, rng)
    }

    /// Runs profiling + initial grouping (§5.2) over a shared histogram
    /// table: client `i` has response latency `latencies[i]` and raw
    /// label histogram `rows[row_of[i]]`. Nothing per-client is built
    /// from the histograms, so a million virtual clients on 64 data
    /// shards cost 64 rows plus 4 bytes each.
    ///
    /// # Panics
    /// Panics on empty inputs, length mismatches, a `row_of` entry
    /// outside `rows`, rows of unequal or zero length, or a `config`
    /// that fails [`GroupingConfig::validate`].
    #[must_use]
    pub fn initial_shared(
        latencies: Vec<f64>,
        rows: Vec<Vec<f64>>,
        row_of: Vec<u32>,
        config: GroupingConfig,
        rng: &mut Rng,
    ) -> Self {
        assert!(!latencies.is_empty(), "Grouper: no clients");
        assert_eq!(
            latencies.len(),
            row_of.len(),
            "Grouper: profile length mismatch"
        );
        if let Err(msg) = config.validate(latencies.len()) {
            panic!("invalid GroupingConfig: {msg}");
        }
        assert!(
            row_of.iter().all(|&r| (r as usize) < rows.len()),
            "Grouper: histogram row out of range"
        );
        let num_classes = rows[0].len();
        assert!(num_classes > 0);
        assert!(
            rows.iter().all(|r| r.len() == num_classes),
            "Grouper: class-count mismatch"
        );
        let counts_of = |client: usize| rows[row_of[client] as usize].as_slice();

        // Seed group centers with k-means over latencies: exact Lloyd
        // at paper scale, mini-batch at `assign_batch` scale.
        let centroids = if config.assign_batch > 0 {
            minibatch_centroids(
                &latencies,
                config.num_groups,
                config.assign_batch.min(1024),
                30,
                rng,
            )
        } else {
            kmeans_1d(&latencies, config.num_groups, rng, 100).centroids
        };
        let mut groups: Vec<GroupState> = centroids
            .iter()
            .enumerate()
            .map(|(g, &c)| GroupState::new(g, c, num_classes))
            .collect();

        let mut membership = vec![NO_GROUP; latencies.len()];
        let lambda = config.strategy.lambda();
        let lat_w = config.strategy.latency_weight();

        if config.assign_batch > 0 {
            // Batched greedy association: choose for each batch of
            // clients against group state frozen at the start of the
            // batch (center, threshold, pooled counts), admitting in
            // client order, then move the center of each touched group
            // once. O(n·k) comparisons plus `BatchTerms`' divergences,
            // versus the exact sweep's O(n²·k·C).
            //
            // The frozen state lives in flat arrays reused by every
            // batch. A criterion without thresholds freezes `RT_g = ∞`:
            // a finite `|L_g − L_n|` is always within it. Costs are
            // `assignment_cost`'s two operands added in its order, and
            // the cheapest admissible group wins, the first on a tie.
            let k = groups.len();
            let mut centers = vec![0.0; k];
            let mut thresholds = vec![0.0; k];
            let mut pooled = vec![0.0; k * num_classes];
            let mut touched = vec![false; k];
            let mut zero_terms = vec![0.0; k];
            let mut scored = BatchTerms::new(rows.len(), k);
            for start in (0..latencies.len()).step_by(config.assign_batch) {
                for (g, group) in groups.iter().enumerate() {
                    centers[g] = group.center();
                    thresholds[g] = if config.strategy.uses_threshold() {
                        rt_threshold(&config, group.center())
                    } else {
                        f64::INFINITY
                    };
                    pooled[g * num_classes..][..num_classes].copy_from_slice(group.label_counts());
                }
                scored.next_batch();
                touched.fill(false);
                for client in start..(start + config.assign_batch).min(latencies.len()) {
                    let latency = latencies[client];
                    let row = row_of[client];
                    let counts = rows[row as usize].as_slice();
                    // At λ = 0 (FedAT's criterion) the data term is
                    // `0·JS`, exactly `+0.0`, and `x + 0.0` is `x` for
                    // the non-negative latency term: read zeros instead
                    // of scoring divergences.
                    let terms = if lambda == 0.0 {
                        &mut zero_terms[..]
                    } else {
                        scored.row(row)
                    };
                    let (mut best, missing) =
                        cheapest(&centers, &thresholds, terms, latency, lat_w);
                    if missing {
                        // First ask of a (row, group) pair this batch.
                        // Rare: a batch of 8192 clients on 64 rows
                        // fills at most 64 × k terms.
                        fill_terms(
                            terms,
                            &centers,
                            &thresholds,
                            &pooled,
                            latency,
                            counts,
                            lambda,
                        );
                        best = cheapest(&centers, &thresholds, terms, latency, lat_w).0;
                    }
                    // Clients no group admits start in the drop-out
                    // pool, same as the exact path.
                    if best < k {
                        groups[best].admit_deferred(client, latency, counts);
                        membership[client] = best as u32;
                        touched[best] = true;
                    }
                }
                for (group, &hit) in groups.iter_mut().zip(&touched) {
                    if hit {
                        group.refresh_center(&latencies);
                    }
                }
            }
        } else {
            let mut pool: Vec<usize> = (0..latencies.len()).collect();

            // Greedy association: each group in turn picks its cheapest
            // admissible client until nothing can be placed.
            loop {
                let mut placed_any = false;
                for (g, group) in groups.iter_mut().enumerate() {
                    let mut best: Option<(f64, usize)> = None;
                    for (pi, &client) in pool.iter().enumerate() {
                        let within = !config.strategy.uses_threshold()
                            || (group.center() - latencies[client]).abs()
                                <= rt_threshold(&config, group.center());
                        if !within {
                            continue;
                        }
                        let cost = assignment_cost(
                            group,
                            latencies[client],
                            counts_of(client),
                            lambda,
                            lat_w,
                        );
                        if best.is_none_or(|(b, _)| cost < b) {
                            best = Some((cost, pi));
                        }
                    }
                    if let Some((_, pi)) = best {
                        let client = pool.swap_remove(pi);
                        group.admit(client, &latencies, counts_of(client));
                        membership[client] = g as u32;
                        placed_any = true;
                    }
                }
                if !placed_any || pool.is_empty() {
                    break;
                }
            }
            // Whatever remains is dropped until its latency fits some
            // group.
        }

        let pool = (0u32..)
            .zip(&membership)
            .filter(|(_, &m)| m == NO_GROUP)
            .map(|(client, _)| client)
            .collect();
        Self {
            config,
            groups,
            membership,
            latencies,
            rows,
            row_of,
            pool,
        }
    }

    /// Group index of a client (`None` while dropped).
    #[must_use]
    pub fn group_of(&self, client: usize) -> Option<usize> {
        match self.membership[client] {
            NO_GROUP => None,
            g => Some(g as usize),
        }
    }

    /// All group states.
    #[must_use]
    pub fn groups(&self) -> &[GroupState] {
        &self.groups
    }

    /// Clients currently in the drop-out pool, ascending.
    #[must_use]
    pub fn dropped(&self) -> Vec<usize> {
        self.pool.iter().map(|&c| c as usize).collect()
    }

    /// Size of the drop-out pool.
    #[must_use]
    pub fn num_dropped(&self) -> usize {
        self.pool.len()
    }

    /// Latest recorded latency of a client.
    #[must_use]
    pub fn latency_of(&self, client: usize) -> f64 {
        self.latencies[client]
    }

    /// Mean JS-from-IID across groups (the Fig. 9 left axis).
    #[must_use]
    pub fn avg_group_js(&self) -> f64 {
        let active: Vec<f64> = self
            .groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(GroupState::js_from_iid)
            .collect();
        ecofl_util::mean(&active)
    }

    /// Mean group latency center.
    #[must_use]
    pub fn avg_group_latency(&self) -> f64 {
        let active: Vec<f64> = self
            .groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(GroupState::center)
            .collect();
        ecofl_util::mean(&active)
    }

    /// Mean synchronous-barrier latency across groups: each group's
    /// intra-group round lasts as long as its slowest member, so this is
    /// the effective per-round response latency the Fig. 9 right axis
    /// tracks. It rises with λ as slow clients join faster groups for
    /// their data.
    #[must_use]
    pub fn avg_group_barrier_latency(&self) -> f64 {
        let active: Vec<f64> = self
            .groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| {
                g.members
                    .iter()
                    .map(|&c| self.latencies[c as usize])
                    .fold(0.0, f64::max)
            })
            .collect();
        ecofl_util::mean(&active)
    }

    /// Algorithm 1: processes a fresh latency report for `client`.
    ///
    /// If the client is grouped and its latency deviates from its group
    /// center beyond `RT_g`, it is re-associated with the cheapest group
    /// whose threshold admits it, or dropped. Dropped clients rejoin the
    /// cheapest admitting group as soon as their latency fits.
    pub fn observe_latency(&mut self, client: usize, latency: f64) -> RegroupOutcome {
        self.latencies[client] = latency;
        let row = self.row_of[client] as usize;
        match self.group_of(client) {
            Some(g) => {
                self.groups[g].update_latency(client, &self.latencies);
                if !self.config.strategy.uses_threshold() {
                    return RegroupOutcome::Stayed;
                }
                let threshold = rt_threshold(&self.config, self.groups[g].center());
                if (self.groups[g].center() - latency).abs() <= threshold {
                    return RegroupOutcome::Stayed;
                }
                // Deviated: leave current group, find the cheapest
                // admitting group.
                self.groups[g].remove(client, &self.latencies, &self.rows[row]);
                match self.best_admitting_group(client) {
                    Some(t) => {
                        self.groups[t].admit(client, &self.latencies, &self.rows[row]);
                        self.membership[client] = t as u32;
                        if t == g {
                            RegroupOutcome::Stayed
                        } else {
                            RegroupOutcome::Moved { from: g, to: t }
                        }
                    }
                    None => {
                        self.membership[client] = NO_GROUP;
                        self.pool.insert(client as u32);
                        RegroupOutcome::Dropped { from: g }
                    }
                }
            }
            None => match self.best_admitting_group(client) {
                Some(t) => {
                    self.groups[t].admit(client, &self.latencies, &self.rows[row]);
                    self.membership[client] = t as u32;
                    self.pool.remove(&(client as u32));
                    RegroupOutcome::Rejoined { to: t }
                }
                None => RegroupOutcome::StillDropped,
            },
        }
    }

    /// Algorithm 1's rejoin sweep: every client in the drop-out pool, in
    /// ascending order, is offered back at its recorded latency, and the
    /// rejoins come back as `(client, group)` in the order they happened.
    ///
    /// The same sweep as `for c in dropped() { observe_latency(c,
    /// latency_of(c)) }`, paying for the clients it moves rather than
    /// the pool: at each client's turn it calls
    /// [`Grouper::observe_latency`] only if some group's `RT_g` admits
    /// the client against the centers as they stand then. For any other
    /// client that call would re-record the same latency and return
    /// [`RegroupOutcome::StillDropped`], changing nothing.
    pub fn rejoin_pass(&mut self) -> Vec<(usize, usize)> {
        let mut rejoined = Vec::new();
        let mut from = 0;
        loop {
            // `(L_g, RT_g)` per group; an admission moves a center.
            let bands: Vec<(f64, f64)> = self
                .groups
                .iter()
                .map(|g| (g.center(), rt_threshold(&self.config, g.center())))
                .collect();
            let admitted = |&client: &u32| {
                let latency = self.latencies[client as usize];
                !self.config.strategy.uses_threshold()
                    || bands
                        .iter()
                        .any(|&(center, threshold)| (center - latency).abs() <= threshold)
            };
            let Some(client) = self.pool.range(from..).copied().find(admitted) else {
                return rejoined;
            };
            let client = client as usize;
            let outcome = self.observe_latency(client, self.latencies[client]);
            let RegroupOutcome::Rejoined { to } = outcome else {
                unreachable!("client {client} is admitted by a group, yet {outcome:?}");
            };
            rejoined.push((client, to));
            from = client as u32 + 1;
        }
    }

    /// The cheapest group whose `RT` threshold admits the client.
    fn best_admitting_group(&self, client: usize) -> Option<usize> {
        let lambda = self.config.strategy.lambda();
        let lat_w = self.config.strategy.latency_weight();
        let latency = self.latencies[client];
        let counts = &self.rows[self.row_of[client] as usize];
        let mut best: Option<(f64, usize)> = None;
        for (g, group) in self.groups.iter().enumerate() {
            if self.config.strategy.uses_threshold() {
                let threshold = rt_threshold(&self.config, group.center());
                if (group.center() - latency).abs() > threshold {
                    continue;
                }
            }
            let cost = assignment_cost(group, latency, counts, lambda, lat_w);
            if best.is_none_or(|(b, _)| cost < b) {
                best = Some((cost, g));
            }
        }
        best.map(|(_, g)| g)
    }
}

/// The batched association's choice for a client at `latency`: the
/// group of least `lat_w·|L_g − L_n| + terms[g]` among those whose
/// `|L_g − L_n|` is within `RT_g`, the first on a tie (`k` if none
/// admits it), and whether an admissible group's term is still NaN.
/// Selects instead of branches: an inadmissible group costs ∞, which is
/// never `<`.
#[inline]
fn cheapest(
    centers: &[f64],
    thresholds: &[f64],
    terms: &[f64],
    latency: f64,
    lat_w: f64,
) -> (usize, bool) {
    let k = centers.len();
    let (mut best_cost, mut best, mut missing) = (f64::INFINITY, k, false);
    for (g, ((&center, &threshold), &term)) in centers
        .iter()
        .zip(&thresholds[..k])
        .zip(&terms[..k])
        .enumerate()
    {
        let gap = (center - latency).abs();
        // Summed before the select, not inside it: a select with a load
        // or arithmetic in one arm compiles to a branch, mispredicted
        // on about every other group.
        let sum = lat_w * gap + term;
        let cost = if gap <= threshold { sum } else { f64::INFINITY };
        missing |= cost.is_nan();
        let better = cost < best_cost;
        best_cost = if better { cost } else { best_cost };
        best = if better { g } else { best };
    }
    (best, missing)
}

/// Evaluates `λ·JS(π_n^g, π_iid)` into each NaN term of a group that
/// admits a client at `latency` with histogram `counts`, against the
/// batch's frozen centers, thresholds and pooled counts.
#[cold]
fn fill_terms(
    terms: &mut [f64],
    centers: &[f64],
    thresholds: &[f64],
    pooled: &[f64],
    latency: f64,
    counts: &[f64],
    lambda: f64,
) {
    let classes = counts.len();
    for (g, term) in terms.iter_mut().enumerate() {
        if term.is_nan() && (centers[g] - latency).abs() <= thresholds[g] {
            *term = lambda * union_js_from_iid_parts(&pooled[g * classes..][..classes], counts);
        }
    }
}

fn rt_threshold(config: &GroupingConfig, center: f64) -> f64 {
    (config.rt_relative * center).max(config.rt_min)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 20 clients in two latency bands; each client holds one class.
    fn profiles() -> (Vec<f64>, Vec<Vec<f64>>) {
        let mut latencies = Vec::new();
        let mut counts = Vec::new();
        for i in 0..20 {
            let fast = i < 10;
            latencies.push(if fast {
                10.0 + i as f64 * 0.1
            } else {
                50.0 + i as f64 * 0.1
            });
            let mut c = vec![0.0; 4];
            c[i % 4] = 30.0;
            counts.push(c);
        }
        (latencies, counts)
    }

    fn config(strategy: GroupingStrategy) -> GroupingConfig {
        GroupingConfig {
            num_groups: 2,
            strategy,
            rt_relative: 0.5,
            rt_min: 2.0,
            assign_batch: 0,
        }
    }

    #[test]
    fn validate_accepts_defaults_and_boundaries() {
        assert!(GroupingConfig::default().validate(300).is_ok());
        let cfg = GroupingConfig {
            num_groups: 1,
            strategy: GroupingStrategy::EcoFl { lambda: 0.0 },
            rt_relative: 0.0,
            rt_min: 0.0,
            assign_batch: 0,
        };
        assert!(cfg.validate(u32::MAX as usize - 1).is_ok());
    }

    #[test]
    fn validate_rejects_zero_groups() {
        let cfg = GroupingConfig {
            num_groups: 0,
            ..GroupingConfig::default()
        };
        assert!(cfg.validate(300).unwrap_err().contains("num_groups"));
    }

    #[test]
    fn validate_rejects_bad_rt_relative() {
        for bad in [-0.5, f64::NAN, f64::INFINITY] {
            let cfg = GroupingConfig {
                rt_relative: bad,
                ..GroupingConfig::default()
            };
            let err = cfg.validate(300).unwrap_err();
            assert!(err.contains("rt_relative"), "got: {err}");
        }
    }

    #[test]
    fn validate_rejects_bad_rt_min() {
        for bad in [-2.0, f64::NAN, f64::INFINITY] {
            let cfg = GroupingConfig {
                rt_min: bad,
                ..GroupingConfig::default()
            };
            let err = cfg.validate(300).unwrap_err();
            assert!(err.contains("rt_min"), "got: {err}");
        }
    }

    #[test]
    fn validate_rejects_bad_lambda() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let cfg = config(GroupingStrategy::EcoFl { lambda: bad });
            let err = cfg.validate(300).unwrap_err();
            assert!(err.contains("lambda"), "got: {err}");
        }
    }

    #[test]
    fn validate_rejects_more_clients_than_u32_ids() {
        let err = GroupingConfig::default()
            .validate(u32::MAX as usize)
            .unwrap_err();
        assert!(err.contains("num_clients"), "got: {err}");
    }

    #[test]
    #[should_panic(expected = "invalid GroupingConfig: num_groups")]
    fn initial_panics_on_invalid_config_by_name() {
        let (lat, counts) = profiles();
        let cfg = GroupingConfig {
            num_groups: 0,
            ..GroupingConfig::default()
        };
        let _ = Grouper::initial(&lat, &counts, cfg, &mut Rng::new(1));
    }

    #[test]
    fn batch_terms_evaluate_each_asked_pair_once() {
        // The divergence-evaluation bound: one evaluation per (row seen
        // in the batch, admissible group) — at most min(batch, distinct
        // rows in batch) × groups, whatever the population's row count.
        // `fill_terms` writes only NaN terms, so the evaluations are the
        // terms that are no longer NaN.
        let groups = 5;
        let centers = [10.0, 20.0, 30.0, 40.0, 50.0];
        let pooled = [3.0, 1.0].repeat(groups);
        let rows: Vec<[f64; 2]> = (0..1000).map(|r| [f64::from(r), 1.0]).collect();
        let mut scored = BatchTerms::new(rows.len(), groups);
        let ask = |scored: &mut BatchTerms, thresholds: &[f64], row: u32, latency: f64| {
            let terms = scored.row(row);
            let counts = &rows[row as usize];
            fill_terms(terms, &centers, thresholds, &pooled, latency, counts, 2.0);
            terms.to_vec()
        };
        let evaluated = |scored: &BatchTerms| scored.terms.iter().filter(|t| !t.is_nan()).count();

        // rows ≪ batch: 512 clients over 3 rows, every group admissible.
        let everyone = [f64::INFINITY; 5];
        for client in 0..512 {
            let row = [7, 900, 7, 42][client % 4];
            let terms = ask(&mut scored, &everyone, row, 25.0);
            for (g, term) in terms.iter().enumerate() {
                let want =
                    2.0 * union_js_from_iid_parts(&pooled[2 * g..][..2], &rows[row as usize]);
                assert_eq!(term.to_bits(), want.to_bits());
            }
        }
        assert_eq!(scored.present, vec![7, 900, 42]);
        assert_eq!(evaluated(&scored), 3 * groups);

        // rows = n: every client its own row, within threshold of two
        // groups each (zero thresholds admit no latency of 25) — the
        // per-client count, not rows × groups, and nothing carried over
        // from (or cleared beyond) the last batch.
        scored.next_batch();
        let two = [0.0, 100.0, 0.0, 100.0, 0.0];
        for row in 100..116u32 {
            let terms = ask(&mut scored, &two, row, 25.0);
            assert!(terms[0].is_nan() && !terms[1].is_nan() && !terms[3].is_nan());
        }
        assert_eq!(evaluated(&scored), 16 * 2);
        assert_eq!(scored.terms.len(), 16 * groups);
        assert_eq!(
            scored
                .slot_of_row
                .iter()
                .filter(|&&s| s != u32::MAX)
                .count(),
            16
        );
        // Asked again, an evaluated term is read back, not re-evaluated.
        scored.row(100)[1] = -1.0;
        assert_eq!(ask(&mut scored, &two, 100, 25.0)[1], -1.0);

        // A new batch re-evaluates: group state has moved.
        scored.next_batch();
        let _ = ask(&mut scored, &two, 100, 25.0);
        assert_eq!(evaluated(&scored), 2);
    }

    #[test]
    fn initial_grouping_places_everyone_in_band() {
        let (lat, counts) = profiles();
        let g = Grouper::initial(
            &lat,
            &counts,
            config(GroupingStrategy::EcoFl { lambda: 10.0 }),
            &mut Rng::new(1),
        );
        assert!(g.dropped().is_empty(), "all clients fit a band");
        // Fast clients share a group; slow share the other.
        let g0 = g.group_of(0).unwrap();
        for i in 0..10 {
            assert_eq!(g.group_of(i), Some(g0), "client {i}");
        }
        let g1 = g.group_of(10).unwrap();
        assert_ne!(g0, g1);
        for i in 10..20 {
            assert_eq!(g.group_of(i), Some(g1), "client {i}");
        }
    }

    #[test]
    fn ecofl_grouping_balances_data_better_than_latency_only() {
        // Clients with mixed latencies within each band: Eco-FL should
        // pick class-complementary members first, lowering group JS.
        let mut latencies = Vec::new();
        let mut counts = Vec::new();
        // One latency band, so latency-only has no signal; 4 groups over
        // 16 clients, each holding one of 4 classes.
        for i in 0..16 {
            latencies.push(20.0 + (i % 7) as f64 * 0.3);
            let mut c = vec![0.0; 4];
            c[i % 4] = 10.0;
            counts.push(c);
        }
        let cfg_eco = GroupingConfig {
            num_groups: 4,
            strategy: GroupingStrategy::EcoFl { lambda: 500.0 },
            rt_relative: 1.0,
            rt_min: 10.0,
            assign_batch: 0,
        };
        let cfg_lat = GroupingConfig {
            strategy: GroupingStrategy::LatencyOnly,
            ..cfg_eco
        };
        let eco = Grouper::initial(&latencies, &counts, cfg_eco, &mut Rng::new(3));
        let lat = Grouper::initial(&latencies, &counts, cfg_lat, &mut Rng::new(3));
        assert!(
            eco.avg_group_js() < lat.avg_group_js() + 1e-9,
            "eco {} should not exceed latency-only {}",
            eco.avg_group_js(),
            lat.avg_group_js()
        );
    }

    #[test]
    fn algorithm1_moves_deviating_client() {
        let (lat, counts) = profiles();
        let mut g = Grouper::initial(
            &lat,
            &counts,
            config(GroupingStrategy::EcoFl { lambda: 10.0 }),
            &mut Rng::new(1),
        );
        let fast_group = g.group_of(0).unwrap();
        let slow_group = g.group_of(10).unwrap();
        // Client 0 suddenly becomes slow → must move to the slow group.
        let outcome = g.observe_latency(0, 51.0);
        assert_eq!(
            outcome,
            RegroupOutcome::Moved {
                from: fast_group,
                to: slow_group
            }
        );
        assert_eq!(g.group_of(0), Some(slow_group));
    }

    #[test]
    fn algorithm1_drops_out_of_range_client() {
        let (lat, counts) = profiles();
        let mut g = Grouper::initial(
            &lat,
            &counts,
            config(GroupingStrategy::EcoFl { lambda: 10.0 }),
            &mut Rng::new(1),
        );
        let from = g.group_of(5).unwrap();
        let outcome = g.observe_latency(5, 500.0);
        assert_eq!(outcome, RegroupOutcome::Dropped { from });
        assert_eq!(g.group_of(5), None);
        assert!(g.dropped().contains(&5));
        // Recovery: latency returns → rejoin.
        let outcome = g.observe_latency(5, 11.0);
        assert!(matches!(outcome, RegroupOutcome::Rejoined { .. }));
        assert!(g.group_of(5).is_some());
    }

    #[test]
    fn stable_client_stays() {
        let (lat, counts) = profiles();
        let mut g = Grouper::initial(
            &lat,
            &counts,
            config(GroupingStrategy::EcoFl { lambda: 10.0 }),
            &mut Rng::new(1),
        );
        assert_eq!(g.observe_latency(3, 10.5), RegroupOutcome::Stayed);
    }

    #[test]
    fn data_only_strategy_ignores_latency() {
        let (lat, counts) = profiles();
        let mut g = Grouper::initial(
            &lat,
            &counts,
            config(GroupingStrategy::DataOnly),
            &mut Rng::new(2),
        );
        // Astraea never drops on latency.
        assert_eq!(g.observe_latency(0, 10_000.0), RegroupOutcome::Stayed);
        assert!(g.dropped().is_empty());
    }

    #[test]
    fn fig9_metrics_move_with_lambda() {
        // Higher λ → lower avg group JS (data better balanced).
        let mut latencies = Vec::new();
        let mut counts = Vec::new();
        let mut rng = Rng::new(7);
        for i in 0..60 {
            latencies.push(rng.range_f64(5.0, 60.0));
            let mut c = vec![0.0; 10];
            c[i % 10] = 20.0;
            c[(i + 3) % 10] = 10.0;
            counts.push(c);
        }
        let js_at = |lambda: f64| {
            let cfg = GroupingConfig {
                num_groups: 5,
                strategy: GroupingStrategy::EcoFl { lambda },
                rt_relative: 0.8,
                rt_min: 5.0,
                assign_batch: 0,
            };
            Grouper::initial(&latencies, &counts, cfg, &mut Rng::new(11)).avg_group_js()
        };
        let low = js_at(0.0);
        let high = js_at(2000.0);
        assert!(
            high <= low,
            "higher λ should not worsen data balance: js(0)={low} js(2000)={high}"
        );
    }
}
