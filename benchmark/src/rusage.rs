//! Per-child accounting from a hand-declared `wait4(2)`: the workspace
//! has no `libc` crate, and `std` exposes neither CPU time nor peak RSS
//! of a child it waits for. Reaping with `wait4` gives each child its own
//! figures, so no number of one op can be another child's.

use std::ffi::{c_int, c_long};
use std::os::unix::process::ExitStatusExt as _;
use std::process::{Child, ExitStatus};

/// `struct timeval` on 64-bit Linux: `time_t` and `suseconds_t` are
/// both `long`.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on Linux: two `timeval`s followed by fourteen `long`
/// fields, of which only `ru_maxrss` (the first) is read here.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
}

/// How one child ended and what it used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reaped {
    pub status: ExitStatus,
    /// User + system CPU seconds of the child (and of any descendants it
    /// waited for itself).
    pub cpu_s: f64,
    /// Its peak resident set, MiB. On Linux the figure starts from the
    /// image the child was spawned from, so it never reads below the
    /// harness's own (small) resident set.
    pub max_rss_mb: f64,
}

/// Waits for `child` to end and reaps it. Takes the `Child` by value:
/// once `wait4` has reaped the pid, `Child::wait` on it would fail.
///
/// # Errors
/// Whatever `wait4` reports other than an interrupted call, which is
/// retried.
pub fn reap(child: Child) -> std::io::Result<Reaped> {
    let pid = c_int::try_from(child.id()).expect("a Linux pid fits pid_t");
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `Rusage` is `#[repr(C)]` with the field order and widths
        // of Linux's `struct rusage` on LP64 targets (2 × timeval of two
        // longs, then 14 longs = 144 bytes), so the kernel writes only
        // inside `usage` and `status`; both pointers are valid, aligned
        // and exclusive for the call. `pid` is a child of this process
        // that nothing else reaps — `child` is owned here and std never
        // waits on a `Child` by itself — so it cannot name a recycled pid.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let error = std::io::Error::last_os_error();
        if error.kind() != std::io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    let seconds = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Ok(Reaped {
        status: ExitStatus::from_raw(status),
        cpu_s: seconds(usage.ru_utime) + seconds(usage.ru_stime),
        // Linux reports ru_maxrss in KiB.
        max_rss_mb: usage.ru_maxrss as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::{Command, Stdio};

    fn run(args: &[&str]) -> Reaped {
        let child = Command::new(crate::ecofl_bin_for_tests())
            .args(args)
            .env("ECOFL_THREADS", "1")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ecofl");
        reap(child).expect("wait4")
    }

    #[test]
    fn each_child_gets_its_own_figures() {
        let census = "fl --clients 200000 --shards 64 --horizon 100 --strategy ecofl";
        let big = run(&census.split(' ').collect::<Vec<_>>());
        let small = run(&["devices"]);
        assert!(big.status.success() && small.status.success());
        assert!(
            (0.0..5.0).contains(&small.cpu_s),
            "`devices` is a millisecond op"
        );
        assert!(big.cpu_s > small.cpu_s);
        // At least a page, and not the larger child that ran before it.
        assert!(small.max_rss_mb > 0.0);
        assert!(
            small.max_rss_mb < big.max_rss_mb / 2.0,
            "{} MiB after {} MiB",
            small.max_rss_mb,
            big.max_rss_mb
        );
    }

    #[test]
    fn the_exit_status_survives_the_raw_wait() {
        let failed = run(&["fl", "--strategy", "nope"]);
        assert_eq!(failed.status.code(), Some(1));
    }
}
