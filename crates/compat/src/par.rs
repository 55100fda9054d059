//! A data-parallel map over a scoped worker pool — the rayon replacement
//! for this workspace's one parallel hot path, the fan-out of a cohort's
//! client training runs. It is the only place the workspace spawns compute
//! threads: the tensor kernels below it are sequential.
//!
//! Work is distributed dynamically: scoped workers pull the next item
//! index from a shared atomic counter, so uneven item costs (clients
//! with different shard sizes) still balance. Threads are spawned per
//! call via `std::thread::scope`; the work behind the map is coarse
//! enough (whole client training runs) that spawn cost is noise.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count: `ECOFL_THREADS` if set, else available parallelism.
#[must_use]
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("ECOFL_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Applies `f` to every item, in parallel, preserving order of results
/// (the `par_iter().map().collect()` analogue).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = max_threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut gathered: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        return local;
                    }
                    local.push((i, f(&items[i])));
                }
            }));
        }
        for h in handles {
            gathered.extend(h.join().expect("par_map worker panicked"));
        }
    });
    gathered.sort_by_key(|(i, _)| *i);
    gathered.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
