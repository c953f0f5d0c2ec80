//! The workspace's one data-parallel fan-out.
//!
//! Every O(pool) stage of a draft-then-verify round — generation, stats,
//! PSA, featurization, prediction, the training GEMMs and the CPU
//! interpreter — splits an index range `0..n` into contiguous bands and
//! runs each band on its own scoped thread. The partition policy lives
//! here and nowhere else:
//!
//! * at most `min(workers, n)` bands, each `n.div_ceil(workers)` indices
//!   long except the last;
//! * when that is one band (`workers ≤ 1` or `n = 1`), the work runs
//!   inline on the calling thread and no thread is spawned;
//! * with `n = 0` the work is never called.
//!
//! Each caller keeps its own worker count and thresholds. Because bands
//! are contiguous and every index belongs to exactly one of them, a stage
//! whose per-index result does not depend on its neighbours is
//! bit-identical at any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::thread;

/// Runs `work(first, len, band)` over contiguous bands of `0..n` on up to
/// `workers` scoped threads (see the crate docs for the partition).
///
/// `split(data, len)` cuts the leading `len` indices' worth off `data`
/// and returns `(head, tail)`, so each band owns a disjoint part — for
/// example, a set of column views that every band writes in place.
///
/// # Panics
/// A panic inside any band propagates to the caller once every band has
/// finished.
pub fn fan_out<B: Send>(
    n: usize,
    workers: usize,
    data: B,
    split: impl Fn(B, usize) -> (B, B),
    work: impl Fn(usize, usize, B) + Sync,
) {
    if n == 0 {
        return;
    }
    let workers = workers.min(n);
    if workers <= 1 {
        return work(0, n, data);
    }
    let band = n.div_ceil(workers);
    thread::scope(|scope| {
        let (mut first, mut rest) = (0, data);
        while first < n {
            let len = band.min(n - first);
            let (head, tail) = split(rest, len);
            rest = tail;
            let work = &work;
            scope.spawn(move || work(first, len, head));
            first += len;
        }
    });
}

/// [`fan_out`] over the rows of `data`, a row being `stride` consecutive
/// items (the last row may be short): `work(first_row, band)` receives the
/// band's rows as one mutable slice.
///
/// # Panics
/// Panics if `stride` is 0; a panic inside any band propagates to the
/// caller.
pub fn fan_out_mut<T: Send>(
    data: &mut [T],
    stride: usize,
    workers: usize,
    work: impl Fn(usize, &mut [T]) + Sync,
) {
    fan_out(
        data.len().div_ceil(stride),
        workers,
        data,
        |d, rows| d.split_at_mut((rows * stride).min(d.len())),
        |first, _, band| work(first, band),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The `(first, len, thread)` of every band `fan_out` hands out,
    /// ordered by `first`.
    fn bands(n: usize, workers: usize) -> Vec<(usize, usize, thread::ThreadId)> {
        let seen = Mutex::new(Vec::new());
        fan_out(n, workers, (), |(), _| ((), ()), |first, len, ()| {
            seen.lock().unwrap().push((first, len, thread::current().id()));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|b| b.0);
        seen
    }

    #[test]
    fn every_index_is_handed_out_once_in_at_most_workers_ascending_bands() {
        // Includes workers > n and n not a multiple of the band size.
        for n in 1..40 {
            for workers in 0..50 {
                let got = bands(n, workers);
                let band = n.div_ceil(workers.clamp(1, n));
                let mut next = 0;
                for (k, &(first, len, _)) in got.iter().enumerate() {
                    assert_eq!(first, next, "n={n} workers={workers}: gap or overlap");
                    assert!(len == band || (k + 1 == got.len() && len > 0), "n={n} w={workers}");
                    next += len;
                }
                assert_eq!(next, n, "n={n} workers={workers}: indices missing");
                assert!(got.len() <= workers.max(1), "n={n} workers={workers}: {}", got.len());
            }
        }
        let lens = |n, w| bands(n, w).iter().map(|b| b.1).collect::<Vec<_>>();
        assert_eq!(lens(10, 4), [3, 3, 3, 1]);
        assert_eq!(lens(10, 6), [2, 2, 2, 2, 2]);
        assert_eq!(lens(3, 8), [1, 1, 1]);
    }

    #[test]
    fn one_band_runs_inline_and_more_run_off_the_caller() {
        let me = thread::current().id();
        for (n, workers) in [(5, 0), (5, 1), (1, 4)] {
            assert_eq!(bands(n, workers), [(0, n, me)], "n={n} workers={workers}");
        }
        assert!(bands(5, 2).iter().all(|b| b.2 != me));
    }

    #[test]
    fn zero_indices_never_call_work() {
        for workers in 0..4 {
            assert!(bands(0, workers).is_empty());
            fan_out_mut(&mut [0u8; 0], 3, workers, |_, _| panic!("called on no rows"));
        }
    }

    #[test]
    fn a_panic_in_one_band_reaches_the_caller() {
        for workers in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                fan_out(9, workers, (), |(), _| ((), ()), |first, len, ()| {
                    assert!(!(first..first + len).contains(&4), "band panics");
                });
            });
            assert!(caught.is_err(), "workers={workers}");
        }
    }

    #[test]
    fn mut_bands_are_the_rows_they_claim() {
        for (len, stride) in [(0, 1), (1, 1), (10, 1), (12, 3), (13, 3), (97, 10)] {
            for workers in [1, 2, 3, 5, 16] {
                let mut data = vec![usize::MAX; len];
                fan_out_mut(&mut data, stride, workers, |first, band| {
                    for (i, slot) in band.iter_mut().enumerate() {
                        *slot = first * stride + i;
                    }
                });
                assert!(data.iter().enumerate().all(|(i, &v)| v == i), "{len}/{stride}/{workers}");
            }
        }
    }
}
