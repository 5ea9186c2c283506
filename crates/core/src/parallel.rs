//! Deterministic work-splitting for the scale plane.
//!
//! Every parallel kernel in this workspace follows the same discipline:
//! split the work into contiguous chunks, run each chunk on a scoped
//! thread with a private accumulator, and merge the accumulators in a
//! fixed order that does not depend on thread timing. This module holds
//! both halves of that discipline: [`plan_threads`] decides *how many*
//! threads a call site plans (so the spawn/no-spawn cutoff is tested in
//! one place instead of being a magic constant per call site), and
//! [`map_chunks`] is the one fan-out that cuts, runs and joins in chunk
//! order. Each caller folds the chunk results itself.

/// Minimum packed-word workload per spawned thread.
///
/// Below this, thread spawn + join overhead (~10µs each on this class of
/// machine) dominates the popcount work a chunk would do; 4096 words is
/// ~32KiB of bitmap per thread, a few microseconds of `AND`+`popcnt`.
pub const SPAWN_FLOOR_WORDS: usize = 4096;

/// Plans a worker-thread count for `total_units` of work split across at
/// most `n_items` indivisible items.
///
/// * `requested > 0` pins the count (capped only by `n_items`), so tests
///   can force multi-threaded merges on tiny inputs.
/// * `requested == 0` ("auto") takes the hardware parallelism, then caps
///   it so every thread gets at least `floor_units` of work — tiny
///   workloads plan a single thread and skip spawning entirely.
///
/// The return value is always in `1..=max(n_items, 1)`.
pub fn plan_threads(total_units: usize, n_items: usize, floor_units: usize, requested: usize) -> usize {
    let items = n_items.max(1);
    if requested > 0 {
        return requested.min(items);
    }
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let by_floor = total_units.checked_div(floor_units).map_or(items, |n| n.max(1));
    hw.min(by_floor).min(items).max(1)
}

/// Maps `f` over contiguous chunks of `items`, each chunk on its own
/// scoped thread, and returns the chunk results in chunk order.
///
/// Chunks hold `items.len().div_ceil(n_threads)` items (the last one may
/// hold fewer), so the boundaries depend only on the length and
/// `n_threads`, never on timing. With `n_threads <= 1` or at most one item,
/// `f` runs once on the whole slice on the calling thread: an empty slice
/// still yields one result. A worker's panic is resumed on the caller with
/// the worker's own payload.
#[allow(clippy::disallowed_methods)] // the one chunked fan-out the lint points to
pub fn map_chunks<T: Sync, R: Send>(
    items: &[T],
    n_threads: usize,
    f: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    if n_threads <= 1 || items.len() <= 1 {
        return vec![f(items)];
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(n_threads))
            .map(|chunk| s.spawn(move || f(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requested_pins_thread_count() {
        assert_eq!(plan_threads(10, 100, SPAWN_FLOOR_WORDS, 4), 4);
        // ...but never beyond the item count.
        assert_eq!(plan_threads(10, 3, SPAWN_FLOOR_WORDS, 8), 3);
    }

    #[test]
    fn tiny_workloads_stay_serial() {
        // Work far below the floor: one thread regardless of hardware.
        assert_eq!(plan_threads(SPAWN_FLOOR_WORDS - 1, 1000, SPAWN_FLOOR_WORDS, 0), 1);
        assert_eq!(plan_threads(0, 0, SPAWN_FLOOR_WORDS, 0), 1);
    }

    #[test]
    fn auto_never_exceeds_items_or_floor_budget() {
        let planned = plan_threads(SPAWN_FLOOR_WORDS * 3, 2, SPAWN_FLOOR_WORDS, 0);
        assert!((1..=2).contains(&planned));
        // floor_units == 0 means "no floor": capped by items and hardware only.
        let unfloored = plan_threads(1, 5, 0, 0);
        assert!((1..=5).contains(&unfloored));
    }

    #[test]
    fn chunks_are_contiguous_and_in_order() {
        for len in 0..=20usize {
            let items: Vec<usize> = (0..len).collect();
            for n_threads in 0..=6 {
                let chunks = map_chunks(&items, n_threads, <[usize]>::to_vec);
                let expected = if n_threads <= 1 || len <= 1 {
                    1
                } else {
                    len.div_ceil(len.div_ceil(n_threads))
                };
                assert_eq!(chunks.len(), expected, "len {len}, n_threads {n_threads}");
                assert_eq!(chunks.concat(), items, "len {len}, n_threads {n_threads}");
            }
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let items = [0u8, 1];
        let caught = std::panic::catch_unwind(|| {
            map_chunks(&items, 2, |chunk| {
                if chunk == [1] {
                    panic!("boom");
                }
            })
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"boom"));
    }
}
