//! Grouping diagnostics: a per-group composition report the server
//! operator (or a bench) can print to understand what the Eq. 4 grouping
//! actually produced.

use crate::grouper::Grouper;

/// Snapshot of one group's composition.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSnapshot {
    /// Group index.
    pub id: usize,
    /// Member count.
    pub size: usize,
    /// Latency center `L_g`, seconds.
    pub center: f64,
    /// Slowest member's latency — the group's synchronous barrier.
    pub barrier: f64,
    /// Latency spread (max − min) inside the group.
    pub latency_spread: f64,
    /// JS divergence of the pooled label distribution from uniform.
    pub js_from_iid: f64,
}

/// Snapshot of the whole grouping state.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupingReport {
    /// One snapshot per non-empty group, in group-id order.
    pub groups: Vec<GroupSnapshot>,
    /// Clients currently in the drop-out pool.
    pub dropped: usize,
}

impl GroupingReport {
    /// Captures the current state of a grouper.
    #[must_use]
    pub fn capture(grouper: &Grouper) -> Self {
        let groups = grouper
            .groups()
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| {
                let latencies: Vec<f64> =
                    g.members.iter().map(|&c| grouper.latency_of(c)).collect();
                let max = latencies.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let min = latencies.iter().copied().fold(f64::INFINITY, f64::min);
                GroupSnapshot {
                    id: g.id,
                    size: g.len(),
                    center: g.center(),
                    barrier: max,
                    latency_spread: max - min,
                    js_from_iid: g.js_from_iid(),
                }
            })
            .collect();
        Self {
            groups,
            dropped: grouper.num_dropped(),
        }
    }

    /// Renders the report as aligned text lines (header + one per group).
    #[must_use]
    pub fn render(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "{:>5} {:>6} {:>10} {:>10} {:>9} {:>8}",
            "group", "size", "center(s)", "barrier(s)", "spread(s)", "JS"
        )];
        for g in &self.groups {
            lines.push(format!(
                "{:>5} {:>6} {:>10.2} {:>10.2} {:>9.2} {:>8.3}",
                g.id, g.size, g.center, g.barrier, g.latency_spread, g.js_from_iid
            ));
        }
        lines.push(format!("dropped clients: {}", self.dropped));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouper::{GroupingConfig, GroupingStrategy};
    use ecofl_util::Rng;

    fn grouper() -> Grouper {
        let mut rng = Rng::new(1);
        let latencies: Vec<f64> = (0..20).map(|_| rng.range_f64(5.0, 60.0)).collect();
        let counts: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let mut c = vec![0.0; 5];
                c[i % 5] = 10.0;
                c
            })
            .collect();
        Grouper::initial(
            &latencies,
            &counts,
            GroupingConfig {
                num_groups: 3,
                strategy: GroupingStrategy::EcoFl { lambda: 200.0 },
                rt_relative: 0.8,
                rt_min: 5.0,
                assign_batch: 0,
            },
            &mut Rng::new(2),
        )
    }

    #[test]
    fn capture_reflects_groups() {
        let g = grouper();
        let report = GroupingReport::capture(&g);
        let total: usize = report.groups.iter().map(|s| s.size).sum();
        assert_eq!(total + report.dropped, 20);
        for snap in &report.groups {
            assert!(snap.barrier >= snap.center - 1e-9);
            assert!(snap.latency_spread >= 0.0);
            assert!((0.0..=1.0).contains(&snap.js_from_iid));
        }
    }

    #[test]
    fn render_has_header_and_rows() {
        let report = GroupingReport::capture(&grouper());
        let lines = report.render();
        assert!(lines[0].contains("barrier"));
        assert_eq!(lines.len(), report.groups.len() + 2);
        assert!(lines.last().unwrap().contains("dropped"));
    }
}
