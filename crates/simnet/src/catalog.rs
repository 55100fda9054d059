//! The Table 1 device catalog.
//!
//! | Hardware | Power mode | GPU max freq | Memory | Network |
//! |---|---|---|---|---|
//! | Jetson Nano | 5 W (L)   | 640 MHz   | 4 GB | 100 Mbps |
//! | Jetson Nano | 10 W (H)  | 921.6 MHz | 4 GB | 100 Mbps |
//! | Jetson TX2  | Max-Q (Q) | 850 MHz   | 8 GB | 100 Mbps |
//! | Jetson TX2  | Max-N (N) | 1.3 GHz   | 8 GB | 100 Mbps |
//!
//! Effective training throughput is modelled as
//! `CUDA cores × frequency × 2 (FMA) × efficiency`, with a fixed training
//! efficiency factor. The Nano has 128 Maxwell cores, the TX2 256 Pascal
//! cores. Absolute numbers only set the time scale; every paper comparison
//! depends on the *ratios* between the four modes, which this model
//! preserves. A slice of device memory is reserved for the OS/runtime and
//! unavailable to training.

use crate::device::DeviceSpec;
use ecofl_util::units::{mbps_to_bytes_per_sec, GIB};

/// Fraction of peak FMA throughput sustained during DNN training.
const TRAIN_EFFICIENCY: f64 = 0.3;
/// Bytes reserved for OS + CUDA runtime, unavailable to training.
const OS_RESERVE_BYTES: u64 = GIB / 2;
/// The paper's IoT network: 100 Mbps.
pub const NETWORK_MBPS: f64 = 100.0;

fn jetson(name: &str, cores: f64, freq_ghz: f64, mem_gib: u64) -> DeviceSpec {
    DeviceSpec::new(
        name,
        cores * freq_ghz * 1e9 * 2.0 * TRAIN_EFFICIENCY,
        mem_gib * GIB - OS_RESERVE_BYTES,
        NETWORK_MBPS * 1e6,
    )
}

/// Jetson Nano at the 5 W power mode ("Nano-L").
#[must_use]
pub fn nano_l() -> DeviceSpec {
    jetson("Nano-L", 128.0, 0.640, 4)
}

/// Jetson Nano at the 10 W power mode ("Nano-H").
#[must_use]
pub fn nano_h() -> DeviceSpec {
    jetson("Nano-H", 128.0, 0.9216, 4)
}

/// Jetson TX2 at the Max-Q power mode ("TX2-Q").
#[must_use]
pub fn tx2_q() -> DeviceSpec {
    jetson("TX2-Q", 256.0, 0.850, 8)
}

/// Jetson TX2 at the Max-N power mode ("TX2-N").
#[must_use]
pub fn tx2_n() -> DeviceSpec {
    jetson("TX2-N", 256.0, 1.300, 8)
}

/// All four Table 1 rows in the paper's order.
#[must_use]
pub fn table1() -> Vec<DeviceSpec> {
    vec![nano_l(), nano_h(), tx2_q(), tx2_n()]
}

/// The 100 Mbps inter-device link bandwidth in bytes per second.
#[must_use]
pub(crate) fn network_bytes_per_sec() -> f64 {
    mbps_to_bytes_per_sec(NETWORK_MBPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_distinct_devices() {
        let t = table1();
        assert_eq!(t.len(), 4);
        let names: Vec<&str> = t.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["Nano-L", "Nano-H", "TX2-Q", "TX2-N"]);
    }

    #[test]
    fn compute_ordering_follows_power_modes() {
        assert!(nano_l().compute_flops < nano_h().compute_flops);
        assert!(nano_h().compute_flops < tx2_q().compute_flops);
        assert!(tx2_q().compute_flops < tx2_n().compute_flops);
    }

    #[test]
    fn frequency_ratio_preserved() {
        // Nano-H / Nano-L must equal the 921.6/640 frequency ratio.
        let ratio = nano_h().compute_flops / nano_l().compute_flops;
        assert!((ratio - 921.6 / 640.0).abs() < 1e-9);
        // TX2-N vs Nano-H: 2× cores × (1300/921.6) freq.
        let ratio = tx2_n().compute_flops / nano_h().compute_flops;
        assert!((ratio - 2.0 * 1300.0 / 921.6).abs() < 1e-9);
    }

    #[test]
    fn memory_capacity_matches_table() {
        assert_eq!(nano_l().memory_bytes, 4 * GIB - GIB / 2);
        assert_eq!(tx2_n().memory_bytes, 8 * GIB - GIB / 2);
    }

    #[test]
    fn network_is_100mbps() {
        assert_eq!(network_bytes_per_sec(), 12_500_000.0);
        for d in table1() {
            assert_eq!(d.network_bps, 100e6);
        }
    }
}
