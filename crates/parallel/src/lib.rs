//! Deterministic fork-join parallelism over std scoped threads.
//!
//! The experiment drivers average every figure point over independent
//! simulation runs; those runs are embarrassingly parallel because each one
//! derives its own RNG substream from `(seed, run_index)` and never shares
//! state. This crate provides the fan-out: a self-scheduling [`par_map`]
//! whose output is **index-ordered**, so results are bitwise identical to
//! the sequential loop regardless of thread count or scheduling, and
//! [`par_run`] over an index range. A sweep over points × runs is one flat
//! `par_run` whose results the caller folds a point at a time. (rayon
//! would serve, but the build container has no crates.io access; std scoped
//! threads need nothing.)
//!
//! Thread count comes from `PBBF_THREADS` when set (a value of `1` forces
//! the sequential path — used by the determinism tests), otherwise from
//! [`std::thread::available_parallelism`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Prefixes a panic payload with job context (`"{context}: {message}"`)
/// when the payload is a string — the `panic!`/`assert!` case — so a
/// re-raised panic names the job that died. String payloads keep their
/// original text as a suffix, which preserves substring-based
/// `should_panic` matching; non-string payloads (`panic_any`) pass
/// through untouched, since rewriting them would break callers that
/// downcast to the original type.
fn annotate_panic(
    payload: Box<dyn std::any::Any + Send>,
    context: &str,
) -> Box<dyn std::any::Any + Send> {
    if let Some(msg) = payload.downcast_ref::<&'static str>() {
        return Box::new(format!("{context}: {msg}"));
    }
    match payload.downcast::<String>() {
        Ok(msg) => Box::new(format!("{context}: {msg}")),
        Err(other) => other,
    }
}

/// The worker-thread budget: `PBBF_THREADS` if set and valid, else the
/// machine's available parallelism.
#[must_use]
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("PBBF_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on up to [`max_threads`] workers, returning
/// results in input order.
///
/// Work is distributed dynamically (an atomic cursor), so uneven item costs
/// do not idle workers; output order — and therefore every downstream
/// floating-point reduction — matches the sequential loop exactly.
///
/// # Panics
///
/// Re-raises the first panic raised inside `f`, with the failing job's
/// index prefixed onto string payloads (`"parallel job {i} of {n}:
/// ..."`). The original message survives as a suffix, so
/// `should_panic`-style substring matching keeps working, and the
/// sequential path annotates identically — payloads are
/// thread-count-invariant like everything else here.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = max_threads().min(n);
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))) {
                    Ok(result) => result,
                    Err(payload) => std::panic::resume_unwind(annotate_panic(
                        payload,
                        &format!("parallel job {i} of {n}"),
                    )),
                }
            })
            .collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    // Workers catch panics and park the first payload here; re-raised
    // below so callers see the original message, not the scope's generic
    // "a scoped thread panicked" replacement payload.
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("item slot poisoned")
                    .take()
                    .expect("each slot is taken exactly once");
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))) {
                    Ok(result) => {
                        *results[i].lock().expect("result slot poisoned") = Some(result);
                    }
                    Err(payload) => {
                        let payload = annotate_panic(payload, &format!("parallel job {i} of {n}"));
                        let mut first = panic_payload.lock().expect("panic slot poisoned");
                        first.get_or_insert(payload);
                        break;
                    }
                }
            });
        }
    });

    if let Some(payload) = panic_payload.into_inner().expect("panic slot poisoned") {
        std::panic::resume_unwind(payload);
    }

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index was processed")
        })
        .collect()
}

/// Runs `f(0), f(1), ..., f(n - 1)` in parallel, returning results in
/// index order. Convenience wrapper over [`par_map`] for the
/// "independent runs per data point" loops.
pub fn par_run<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map((0..n).collect(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = par_run(257, |i| i * i);
        assert_eq!(out, (0..257).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_run(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still land in order.
        let out = par_run(64, |i| {
            let spins = if i % 7 == 0 { 200_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let _ = par_run(8, |i| {
            assert!(i != 5, "worker boom");
            i
        });
    }

    fn panic_message(caught: Box<dyn std::any::Any + Send>) -> String {
        match caught.downcast::<String>() {
            Ok(msg) => *msg,
            Err(other) => panic!("expected a String payload, got {other:?}"),
        }
    }

    #[test]
    fn panic_context_names_the_failing_job() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_run(8, |i| {
                assert!(i != 5, "worker boom");
                i
            })
        }))
        .unwrap_err();
        let msg = panic_message(caught);
        assert!(msg.contains("parallel job 5 of 8"), "{msg}");
        assert!(msg.contains("worker boom"), "{msg}");
    }

    #[test]
    fn sequential_path_annotates_identically() {
        // A single item forces the sequential path; the payload shape
        // must match what the threaded path produces.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(vec![0u32], |_| -> u32 { panic!("solo boom") })
        }))
        .unwrap_err();
        let msg = panic_message(caught);
        assert!(msg.contains("parallel job 0 of 1"), "{msg}");
        assert!(msg.contains("solo boom"), "{msg}");
    }

    #[test]
    fn non_string_payloads_pass_through_unchanged() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_run(4, |i| {
                if i == 2 {
                    std::panic::panic_any(42u32);
                }
                i
            })
        }))
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<u32>(), Some(&42));
    }
}
