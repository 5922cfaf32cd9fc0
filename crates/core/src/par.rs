//! Scoped data-parallel map over an index range.
//!
//! [`par_map`] is the one worker-pool scheme of the workspace: the
//! per-length jobs of `KGraph::fit`, feature rows, streaming rescores and
//! batch rows all fan out through it. Work is split into contiguous
//! chunks, one scoped thread per chunk, so results come back in index
//! order and are identical to the serial map.

/// Returns `(0..n).map(f).collect()`, computed over scoped threads.
///
/// Runs serially when `n < min_parallel` or when fewer than two workers
/// would run. Otherwise `workers = min(available_parallelism, n)` and
/// each worker owns one contiguous chunk of `⌈n / workers⌉` indices.
/// A panic in `f` is re-raised in the caller.
pub fn par_map<R, F>(n: usize, min_parallel: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n);
    if n < min_parallel || workers < 2 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| scope.spawn(move || (start..n.min(start + chunk)).map(f).collect()))
            .collect();
        let mut out = Vec::with_capacity(n);
        for handle in handles {
            let part: Vec<R> = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            out.extend(part);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::par_map;

    #[test]
    fn empty_range_yields_empty_vec() {
        assert!(par_map(0, 0, |i| i).is_empty());
        assert!(par_map(0, 2, |i| i).is_empty());
    }

    #[test]
    fn single_item_runs_once() {
        assert_eq!(par_map(1, 0, |i| i + 10), vec![10]);
    }

    #[test]
    fn below_threshold_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = par_map(5, 6, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn uneven_chunks_keep_index_order() {
        // 7 is not a multiple of any worker count above 1 except 7.
        assert_eq!(par_map(7, 2, |i| i * i), vec![0, 1, 4, 9, 16, 25, 36]);
    }

    #[test]
    fn matches_serial_map() {
        let f = |i: usize| (i as f64).sqrt().sin();
        for n in [2, 3, 64, 65, 1000] {
            let serial: Vec<f64> = (0..n).map(f).collect();
            assert_eq!(par_map(n, 2, f), serial, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "row 5 failed")]
    fn worker_panic_reaches_the_caller() {
        par_map(8, 2, |i| {
            if i == 5 {
                panic!("row 5 failed");
            }
            i
        });
    }
}
