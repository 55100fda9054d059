//! Property-based tests for the discrete-event core.

use ecofl_compat::check::{f64_in, forall, quad, u64_in, usize_in, vec_in};
use ecofl_simnet::{DeviceSpec, EventQueue, Link};

const CASES: usize = 256;

#[test]
fn event_queue_pops_in_time_order() {
    let times = vec_in(f64_in(0.0, 1e6), 1, 200);
    forall("event_queue_pops_in_time_order", CASES, &times, |times| {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    });
}

#[test]
fn event_queue_ties_fifo() {
    forall("event_queue_ties_fifo", CASES, &usize_in(1, 100), |&n| {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(1.0, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..n).collect::<Vec<_>>());
    });
}
#[test]
fn link_transfer_monotone_in_bytes() {
    let input = quad(
        f64_in(1e3, 1e9),
        f64_in(0.0, 1.0),
        u64_in(0, 1_000_000),
        u64_in(0, 1_000_000),
    );
    forall(
        "link_transfer_monotone_in_bytes",
        CASES,
        &input,
        |&(bw, lat, a, b)| {
            let link = Link::new(bw, lat);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(link.transfer_time(lo) <= link.transfer_time(hi));
            assert!(link.transfer_time(0) >= lat);
        },
    );
}

#[test]
fn device_memory_accounting_balances() {
    let allocs = vec_in(u64_in(1, 1000), 1, 50);
    forall(
        "device_memory_accounting_balances",
        CASES,
        &allocs,
        |allocs| {
            let mut d = ecofl_simnet::Device::new(DeviceSpec::new("t", 1e9, 1 << 20, 1e8));
            let mut held = Vec::new();
            for &bytes in allocs {
                if d.try_allocate(bytes) {
                    held.push(bytes);
                }
            }
            let total: u64 = held.iter().sum();
            assert_eq!(d.allocated_bytes(), total);
            for bytes in held {
                d.free(bytes);
            }
            assert_eq!(d.allocated_bytes(), 0);
        },
    );
}
