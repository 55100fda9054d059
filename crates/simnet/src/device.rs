//! Edge device models.
//!
//! A [`DeviceSpec`] is the static description (Table 1 row); a [`Device`]
//! adds runtime state: the external-load factor that the Fig. 13 experiment
//! manipulates and that the adaptive rescheduler reacts to, plus memory
//! accounting.

use ecofl_compat::serde::Serialize;

/// Static description of an edge device (one Table 1 row at one power
/// mode). Serializable because the `table1_devices` bench writes the
/// rows to its JSON result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceSpec {
    /// Display name, e.g. `"Nano-H"`.
    pub name: String,
    /// Effective training compute rate in FLOP/s (forward+backward
    /// arithmetic the device sustains).
    pub compute_flops: f64,
    /// Memory available to training, in bytes.
    pub memory_bytes: u64,
    /// Network bandwidth of the device's NIC in bits per second.
    pub network_bps: f64,
}

impl DeviceSpec {
    /// Creates a spec.
    ///
    /// # Panics
    /// Panics on non-positive compute or bandwidth.
    #[must_use]
    pub fn new(name: &str, compute_flops: f64, memory_bytes: u64, network_bps: f64) -> Self {
        assert!(compute_flops > 0.0, "DeviceSpec: compute must be positive");
        assert!(network_bps > 0.0, "DeviceSpec: bandwidth must be positive");
        Self {
            name: name.to_owned(),
            compute_flops,
            memory_bytes,
            network_bps,
        }
    }
}

/// A device instance with runtime state.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    spec: DeviceSpec,
    /// Fraction of compute consumed by external workloads, in `[0, 1)`.
    external_load: f64,
    /// Bytes currently allocated by the training runtime.
    allocated_bytes: u64,
}

impl Device {
    /// Wraps a spec with no external load.
    #[must_use]
    pub fn new(spec: DeviceSpec) -> Self {
        Self {
            spec,
            external_load: 0.0,
            allocated_bytes: 0,
        }
    }

    /// The static spec.
    #[must_use]
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Sets the external-load fraction (the Fig. 13 "load spike" knob).
    ///
    /// # Panics
    /// Panics unless `load` is in `[0, 1)`.
    pub fn set_external_load(&mut self, load: f64) {
        assert!(
            (0.0..1.0).contains(&load),
            "Device: external load must be in [0,1), got {load}"
        );
        self.external_load = load;
    }

    /// Compute rate available to training right now, in FLOP/s.
    #[must_use]
    pub fn effective_flops(&self) -> f64 {
        self.spec.compute_flops * (1.0 - self.external_load)
    }

    /// Attempts to allocate `bytes`; returns `false` (leaving state
    /// unchanged) when it would exceed capacity — the OOM signal of the
    /// Table 2 experiment.
    #[must_use]
    pub fn try_allocate(&mut self, bytes: u64) -> bool {
        if self.allocated_bytes.saturating_add(bytes) > self.spec.memory_bytes {
            false
        } else {
            self.allocated_bytes += bytes;
            true
        }
    }

    /// Releases `bytes` previously allocated.
    ///
    /// # Panics
    /// Panics if releasing more than is allocated (an accounting bug).
    pub fn free(&mut self, bytes: u64) {
        assert!(
            bytes <= self.allocated_bytes,
            "Device::free: releasing {bytes} of {} allocated",
            self.allocated_bytes
        );
        self.allocated_bytes -= bytes;
    }

    /// Bytes currently allocated.
    #[must_use]
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::new("test", 1e9, 1000, 1e8)
    }

    #[test]
    fn external_load_slows_compute() {
        let mut d = Device::new(spec());
        d.set_external_load(0.5);
        assert_eq!(d.effective_flops(), 5e8);
    }

    #[test]
    #[should_panic(expected = "external load")]
    fn rejects_full_load() {
        let mut d = Device::new(spec());
        d.set_external_load(1.0);
    }

    #[test]
    fn memory_accounting() {
        let mut d = Device::new(spec());
        assert!(d.try_allocate(600));
        assert!(d.try_allocate(400));
        assert!(!d.try_allocate(1), "over-capacity allocation must fail");
        assert_eq!(
            d.allocated_bytes(),
            1000,
            "failed allocation must not change state"
        );
        d.free(500);
        assert!(d.try_allocate(300));
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn free_checks_balance() {
        let mut d = Device::new(spec());
        d.free(1);
    }
}
