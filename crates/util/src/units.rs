//! Unit formatting and conversion helpers.
//!
//! The device catalog (Table 1) and layer profiles speak in bytes, FLOPs,
//! and bits-per-second; bench output formats them the way the paper's
//! tables do.

/// Bytes per mebibyte.
pub(crate) const MIB: u64 = 1024 * 1024;
/// Bytes per gibibyte.
pub const GIB: u64 = 1024 * 1024 * 1024;
/// Bits per megabit.
pub(crate) const MBIT: u64 = 1_000_000;

/// Converts a link rate in megabits/second to bytes/second.
#[must_use]
pub fn mbps_to_bytes_per_sec(mbps: f64) -> f64 {
    mbps * MBIT as f64 / 8.0
}

/// Formats a byte count with a binary-prefix unit (e.g. `"2.70 GiB"`).
#[must_use]
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if bytes >= GIB {
        format!("{:.2} GiB", b / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.2} MiB", b / MIB as f64)
    } else if bytes >= 1024 {
        format!("{:.2} KiB", b / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// Formats a FLOP count with an SI prefix (e.g. `"1.23 GFLOPs"`).
#[must_use]
pub fn fmt_flops(flops: f64) -> String {
    if flops >= 1e12 {
        format!("{:.2} TFLOPs", flops / 1e12)
    } else if flops >= 1e9 {
        format!("{:.2} GFLOPs", flops / 1e9)
    } else if flops >= 1e6 {
        format!("{:.2} MFLOPs", flops / 1e6)
    } else if flops >= 1e3 {
        format!("{:.2} KFLOPs", flops / 1e3)
    } else {
        format!("{flops:.0} FLOPs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbps_conversion() {
        // 100 Mbps — the paper's IoT network — is 12.5 MB/s.
        assert_eq!(mbps_to_bytes_per_sec(100.0), 12_500_000.0);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(3 * MIB), "3.00 MiB");
        assert_eq!(fmt_bytes(4 * GIB), "4.00 GiB");
    }

    #[test]
    fn flop_formatting() {
        assert_eq!(fmt_flops(500.0), "500 FLOPs");
        assert_eq!(fmt_flops(1.5e9), "1.50 GFLOPs");
        assert_eq!(fmt_flops(2.0e12), "2.00 TFLOPs");
    }
}
