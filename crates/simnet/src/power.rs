//! Power and energy accounting.
//!
//! Table 1 describes every device by its *power mode* (Nano at 5 W/10 W,
//! TX2 at Max-Q/Max-N), but the paper never evaluates energy. This module
//! extends the catalog with the modes' power draws so experiments can
//! report joules and samples-per-joule — the metric an actual smart-home
//! deployment optimizes alongside throughput.
//!
//! The model is the standard two-state one: a device draws `idle_watts`
//! always and `load_watts` while executing FP/BP work, so an interval
//! with busy fraction `u` costs `idle + u · (load − idle)` watts. The
//! pipeline executor's report applies it to each stage's busy fraction
//! (`ExecutionReport::stage_energy_joules`).

use ecofl_compat::serde::{Deserialize, Serialize};

/// Power draw of one device mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerProfile {
    /// Draw while idle, watts.
    pub idle_watts: f64,
    /// Draw at full training load, watts (the Table 1 mode budget).
    pub load_watts: f64,
}

impl PowerProfile {
    /// Creates a profile.
    ///
    /// # Panics
    /// Panics unless `0 ≤ idle ≤ load`.
    #[must_use]
    pub fn new(idle_watts: f64, load_watts: f64) -> Self {
        assert!(
            idle_watts >= 0.0 && load_watts >= idle_watts,
            "PowerProfile: need 0 ≤ idle ≤ load"
        );
        Self {
            idle_watts,
            load_watts,
        }
    }
}

/// Power profile for a Table 1 device by name.
///
/// Budgets follow the mode names (Nano: 5 W / 10 W; TX2: Max-Q ≈ 7.5 W,
/// Max-N ≈ 15 W); idle draw is a fixed fraction typical of Jetson boards.
///
/// Returns `None` for unknown device names.
#[must_use]
pub fn power_of(device_name: &str) -> Option<PowerProfile> {
    let (idle, load) = match device_name {
        "Nano-L" => (1.25, 5.0),
        "Nano-H" => (1.25, 10.0),
        "TX2-Q" => (1.9, 7.5),
        "TX2-N" => (1.9, 15.0),
        _ => return None,
    };
    Some(PowerProfile::new(idle, load))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_power_modes() {
        assert_eq!(power_of("Nano-L").unwrap().load_watts, 5.0);
        assert_eq!(power_of("Nano-H").unwrap().load_watts, 10.0);
        assert_eq!(power_of("TX2-N").unwrap().load_watts, 15.0);
        assert!(power_of("gpu9000").is_none());
    }

    #[test]
    #[should_panic(expected = "idle ≤ load")]
    fn rejects_inverted_profile() {
        let _ = PowerProfile::new(5.0, 1.0);
    }
}
