//! Order statistics used by the harness: medians over passes and the
//! tail percentile.

/// Median of `values` (mean of the two middle elements for even counts).
/// Returns `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Per-op medians over passes: `samples[pass][op]` → one median per op.
/// Every pass runs the whole op list, so the rows are equally long.
#[must_use]
pub fn median_over_passes(samples: &[Vec<f64>]) -> Vec<f64> {
    let ops = samples.first().map_or(0, Vec::len);
    (0..ops)
        .map(|op| {
            let column: Vec<f64> = samples.iter().map(|pass| pass[op]).collect();
            median(&column).expect("at least one pass")
        })
        .collect()
}

/// Fewest samples [`tail_p90`] reports on: p90 then has ten beyond it.
const TAIL_MIN_SAMPLES: usize = 100;

/// The 90th percentile of `samples` (nearest rank), the tail the
/// choosing-metrics rule allows: a percentile with at least ten samples
/// beyond it. Returns `None` below [`TAIL_MIN_SAMPLES`] samples, where
/// p90 would not have those ten.
#[must_use]
pub fn tail_p90(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n < TAIL_MIN_SAMPLES {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[n - n / 10 - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_over_passes_absorbs_one_burst() {
        // Op 0 swings 220 → 388 ms in one pass (measured on the shared
        // box); the median over three passes ignores the burst.
        let passes = vec![vec![0.220, 1.0], vec![0.388, 1.1], vec![0.224, 0.9]];
        assert_eq!(median_over_passes(&passes), vec![0.224, 1.0]);
    }

    #[test]
    fn tail_is_p90_and_needs_ten_samples_beyond() {
        // 99 samples: only nine would lie beyond p90.
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_p90(&short), None);
        // 100 samples: the 90th value, ten larger ones follow.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_p90(&hundred), Some(90.0));
        // The percentile stays put as the count grows: 137 samples leave
        // thirteen beyond, never fewer than a tenth.
        let more: Vec<f64> = (1..=137).map(f64::from).collect();
        assert_eq!(tail_p90(&more), Some(124.0));
    }
}
