//! Shared chunked data-parallel utilities (`std::thread::scope`).
//!
//! Every multi-core code path in the workspace routes through these two
//! primitives — the quantization engine's value kernels
//! ([`crate::engine::QuantEngine`]), the row-span GEMM dispatch
//! (`gemm::dispatch_rows`, shared with [`crate::fgemm`]) and the
//! design-space sweep's Monte-Carlo evaluation — so the partitioning policy
//! and every thread spawn in `mx-core` / `mx-nn` live in exactly one place
//! (`mx-audit` rule `thread-budget` keeps it that way).
//!
//! Both primitives are *deterministic*: every output lands in its input's
//! slot and each unit of work is computed the same way whichever thread
//! runs it, so the result is bit-identical to a serial run regardless of
//! thread count or scheduling. [`for_each_span_mut`] splits uniform work
//! (elements, rows) into contiguous, caller-aligned spans, one per worker;
//! [`map`] hands out items of uneven cost one at a time from a shared
//! queue. The calling thread works alongside the threads it spawns, so a
//! call that fans out to `w` workers spawns `w − 1` threads, and a call
//! that does not fan out costs nothing beyond the closure call.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of worker threads to use when the caller asks for "all of them":
/// the machine's available parallelism, or 4 if that cannot be determined.
///
/// Resolved **once per process** and cached: the query behind it reads the
/// cgroup quota files and the affinity mask (12–17 µs per call where this
/// was measured — more than a small GEMM), and it sits on the path of every
/// matmul. Affinity or cgroup changes made after the first call are
/// therefore not observed.
pub fn default_threads() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

/// Splits `data` into at most `threads` contiguous spans whose lengths are
/// multiples of `align` (except the last, which takes the remainder) and
/// runs `f(offset, span)` on each, in parallel, where `offset` is the
/// span's starting index in `data`.
///
/// The partition is a pure function of `(data.len(), align, threads)`. The
/// first span runs on the calling thread and every further span on a scoped
/// thread of its own; with `threads <= 1`, or when the data is too small to
/// split, `f` runs once on the whole slice and no thread is spawned.
/// Alignment is what makes parallel quantization bit-identical to serial:
/// spans never split a quantization block.
///
/// # Panics
///
/// Panics if `align` is zero, or — after every span has finished — if `f`
/// panicked on any span.
///
/// # Examples
///
/// ```
/// # use mx_core::parallel::for_each_span_mut;
/// let mut xs = vec![0usize; 100];
/// for_each_span_mut(&mut xs, 8, 4, |offset, span| {
///     for (i, x) in span.iter_mut().enumerate() {
///         *x = 2 * (offset + i);
///     }
/// });
/// assert!(xs.iter().enumerate().all(|(i, &x)| x == 2 * i));
/// ```
pub fn for_each_span_mut<T, F>(data: &mut [T], align: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(align > 0, "span alignment must be nonzero");
    let units = data.len().div_ceil(align);
    let workers = threads.min(units).max(1);
    if workers <= 1 {
        if !data.is_empty() {
            f(0, data);
        }
        return;
    }
    let span = units.div_ceil(workers) * align;
    let (first, rest) = data.split_at_mut(span);
    let f = &f;
    // `scope` joins every spawned span before it returns or unwinds, then
    // re-raises a span's panic on this thread.
    std::thread::scope(|s| {
        for (i, chunk) in rest.chunks_mut(span).enumerate() {
            s.spawn(move || f((i + 1) * span, chunk));
        }
        f(0, first);
    });
}

/// Order-preserving parallel map: returns `f(item)` for every item of
/// `items`, computed on up to `threads` threads (the caller's included).
///
/// With `threads <= 1` (or a single item) the map runs on the calling
/// thread. Otherwise the workers claim items one at a time from a shared
/// index, so items of very different cost (the design-space sweep's
/// software-scaled configurations take ten times a BDR one) spread evenly
/// instead of stacking up in one worker's share; each result lands in its
/// own slot, so the output is in input order whoever computed it.
///
/// # Panics
///
/// Panics if `f` panics on any item — after every other worker has worked
/// the queue dry.
///
/// # Examples
///
/// ```
/// # use mx_core::parallel::map;
/// let squares = map(&[1, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn map<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<O>>> = items.iter().map(|_| Mutex::new(None)).collect();
    // Publishes nothing but the claim itself (items are shared read-only,
    // results go through their slot's lock), so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let result = f(item);
        *slots[i].lock().expect("a slot is locked only to store") = Some(result);
    };
    // `scope` joins every spawned worker before it returns or unwinds,
    // then re-raises a worker's panic on this thread.
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a slot is locked only to store")
                .expect("all slots filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    #[test]
    fn spans_cover_all_elements_once() {
        for threads in [1, 2, 3, 8, 64] {
            for len in [0usize, 1, 7, 16, 17, 100] {
                let mut xs = vec![0usize; len];
                for_each_span_mut(&mut xs, 4, threads, |offset, span| {
                    for (i, x) in span.iter_mut().enumerate() {
                        *x += offset + i + 1;
                    }
                });
                assert!(
                    xs.iter().enumerate().all(|(i, &x)| x == i + 1),
                    "threads={threads} len={len}"
                );
            }
        }
    }

    #[test]
    fn spans_are_aligned() {
        // With align 8 over 20 elements and 2 workers, the split must fall
        // on a multiple of 8 (16), never mid-unit.
        let mut xs = vec![0usize; 20];
        for_each_span_mut(&mut xs, 8, 2, |_, span| {
            let len = span.len();
            for x in span.iter_mut() {
                *x = len;
            }
        });
        assert_eq!(xs[0], 16);
        assert_eq!(xs[19], 4);
    }

    #[test]
    fn first_span_runs_on_the_caller_and_the_rest_elsewhere() {
        let caller = std::thread::current().id();
        let mut ran_on = vec![None; 3 * 4];
        for_each_span_mut(&mut ran_on, 4, 3, |_, span| {
            span.fill(Some(std::thread::current().id()));
        });
        assert!(ran_on[..4].iter().all(|&id| id == Some(caller)));
        assert!(ran_on[4..].iter().all(|&id| id != Some(caller)));
        // Three spans ran on three distinct threads: two were spawned.
        assert_ne!(ran_on[4], ran_on[8]);
        // `map` places no item: whoever claims it runs it. What holds is
        // the order, that a budget of one stays on the caller, and that a
        // budget of `t` spawns at most `t − 1` threads.
        let items: Vec<usize> = (0..64).collect();
        let whereabouts = |threads| map(&items, threads, |&i| (i, std::thread::current().id()));
        assert!(whereabouts(1).iter().all(|&(_, id)| id == caller));
        for threads in [2, 3] {
            let ran = whereabouts(threads);
            assert!(ran.iter().enumerate().all(|(at, &(i, _))| i == at));
            let spawned: HashSet<_> = ran.iter().map(|&(_, id)| id).collect();
            let spawned = spawned.iter().filter(|&&id| id != caller).count();
            assert!(spawned < threads, "threads={threads}: {spawned} spawned");
        }
    }

    #[test]
    fn a_panicking_span_surfaces_in_the_caller_after_the_others_finish() {
        // Each of the three spans panics in turn (0 = the caller's own).
        // The barrier holds every span until all three are running, so the
        // survivors demonstrably finish after the panic was raised.
        for bad in 0..3 {
            let finished = AtomicUsize::new(0);
            let all_running = Barrier::new(3);
            let mut xs = vec![0u8; 3];
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for_each_span_mut(&mut xs, 1, 3, |offset, _| {
                    all_running.wait();
                    if offset == bad {
                        panic!("span {offset} fails");
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }));
            assert!(outcome.is_err(), "bad={bad}");
            assert_eq!(finished.load(Ordering::SeqCst), 2, "bad={bad}");
        }
        // `map`: whichever worker claims the bad item, the others work the
        // queue dry before the panic surfaces.
        let finished = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map(&[0, 1, 2, 3, 4, 5, 6, 7], 3, |&x| {
                assert_ne!(x, 2);
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(outcome.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 5, 16] {
            let out = map(&items, threads, |&x| x * 3);
            assert!(
                out.iter().enumerate().all(|(i, &v)| v == i * 3),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_on_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(map(&empty, 8, |&x| x).is_empty());
        assert_eq!(map(&[5], 8, |&x| x + 1), vec![6]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn default_threads_returns_the_same_value_on_every_call() {
        let budget = default_threads();
        assert!((0..100).all(|_| default_threads() == budget));
    }
}
