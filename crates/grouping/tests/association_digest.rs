//! Census-scale pin of the batched association: `Grouper::initial_shared`
//! over 120k clients on 64 shared histogram rows, `assign_batch` 8192, for
//! each grouping criterion. The digest covers every group's members in
//! order, its center and pooled-count bits, each client's group and the
//! drop-out pool; the expected values were captured from the association
//! before it kept its frozen batch state in flat arrays and skipped the
//! data term at λ = 0, so any change to what it computes shows here.

use ecofl_grouping::{Grouper, GroupingConfig, GroupingStrategy};
use ecofl_util::Rng;

const CLIENTS: usize = 120_000;
const ROWS: usize = 64;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Latencies shaped like the FL latency model (a truncated normal base
/// delay over a collaborative degree), so some clients fall outside every
/// group's threshold, and 64 two-class shard histograms.
fn census(seed: u64) -> (Vec<f64>, Vec<Vec<f64>>, Vec<u32>) {
    let mut rng = Rng::new(seed);
    let degrees = [0.2, 0.4, 0.6, 0.8, 1.0];
    let latencies = (0..CLIENTS)
        .map(|_| rng.gaussian(30.0, 10.0).max(1.0) / *rng.choose(&degrees).expect("degrees"))
        .collect();
    let rows = (0..ROWS)
        .map(|_| {
            let mut row = vec![0.0; 10];
            row[rng.range_usize(0, 10)] += 30.0;
            row[rng.range_usize(0, 10)] += 30.0;
            row
        })
        .collect();
    let row_of = (0..CLIENTS)
        .map(|_| rng.range_usize(0, ROWS) as u32)
        .collect();
    (latencies, rows, row_of)
}

fn digest(strategy: GroupingStrategy) -> (u64, usize) {
    let (latencies, rows, row_of) = census(0xCE05);
    let config = GroupingConfig {
        num_groups: 5,
        strategy,
        rt_relative: 0.6,
        rt_min: 5.0,
        assign_batch: 8192,
    };
    let g = Grouper::initial_shared(latencies, rows, row_of, config, &mut Rng::new(7));
    let mut d = Digest(0xCBF2_9CE4_8422_2325);
    for group in g.groups() {
        d.word(group.members.len() as u64);
        for &m in &group.members {
            d.word(m as u64);
        }
        d.word(group.center().to_bits());
        for &c in group.label_counts() {
            d.word(c.to_bits());
        }
    }
    for client in 0..CLIENTS {
        d.word(g.group_of(client).map_or(u64::MAX, |g| g as u64));
    }
    let dropped = g.dropped();
    d.word(dropped.len() as u64);
    for c in &dropped {
        d.word(*c as u64);
    }
    (d.0, dropped.len())
}

#[test]
fn batched_association_digests_are_pinned() {
    let cases = [
        (
            GroupingStrategy::EcoFl { lambda: 1000.0 },
            0x4662_9f77_47e6_0812,
            1632,
        ),
        // λ = 0 is FedAT's criterion: the same grouping bit for bit.
        (
            GroupingStrategy::EcoFl { lambda: 0.0 },
            0x15b0_95df_d909_29e1,
            1605,
        ),
        (GroupingStrategy::LatencyOnly, 0x15b0_95df_d909_29e1, 1605),
        (GroupingStrategy::DataOnly, 0x1e4c_012a_ea65_2c83, 0),
    ];
    for (strategy, want, want_dropped) in cases {
        let (got, dropped) = digest(strategy);
        println!("{strategy:?}: digest {got:#018x}, {dropped} dropped");
        assert_eq!((got, dropped), (want, want_dropped), "{strategy:?}");
    }
}
