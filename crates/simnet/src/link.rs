//! Network links between pipeline stages and to the FL server.

/// A point-to-point link with fixed bandwidth and propagation latency.
///
/// Transfer time is `latency + bytes / bandwidth` — the store-and-forward
/// model the paper's partitioning formulation (Eq. 1) assumes with its
/// `(a_s + g_s)/B_n` terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    bandwidth_bytes_per_sec: f64,
    latency_secs: f64,
}

impl Link {
    /// Creates a link.
    ///
    /// # Panics
    /// Panics on non-positive bandwidth or negative latency.
    #[must_use]
    pub fn new(bandwidth_bytes_per_sec: f64, latency_secs: f64) -> Self {
        assert!(
            bandwidth_bytes_per_sec > 0.0,
            "Link: bandwidth must be positive"
        );
        assert!(latency_secs >= 0.0, "Link: latency must be non-negative");
        Self {
            bandwidth_bytes_per_sec,
            latency_secs,
        }
    }

    /// A 100 Mbps link with typical in-home WLAN latency (2 ms) — the
    /// paper's evaluation network.
    #[must_use]
    pub fn mbps_100() -> Self {
        Self::new(crate::catalog::network_bytes_per_sec(), 0.002)
    }

    /// Link bandwidth in bytes per second.
    #[must_use]
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth_bytes_per_sec
    }

    /// Propagation latency in seconds.
    #[must_use]
    pub fn latency(&self) -> f64 {
        self.latency_secs
    }

    /// Time in seconds to move `bytes` across the link.
    #[must_use]
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_secs + bytes as f64 / self.bandwidth_bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_linear_in_bytes() {
        let l = Link::new(1e6, 0.01);
        assert!((l.transfer_time(0) - 0.01).abs() < 1e-12);
        assert!((l.transfer_time(1_000_000) - 1.01).abs() < 1e-12);
        assert!((l.transfer_time(2_000_000) - 2.01).abs() < 1e-12);
    }

    #[test]
    fn hundred_mbps_preset() {
        let l = Link::mbps_100();
        // 12.5 MB payload should take ~1 s + latency.
        let t = l.transfer_time(12_500_000);
        assert!((t - 1.002).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn rejects_zero_bandwidth() {
        let _ = Link::new(0.0, 0.0);
    }
}
