//! Deterministic parallel sweep executor.
//!
//! Experiment tables are sweeps over independent cells (scenario × workload
//! level × seed): each cell builds its own `Simulation`, so cells share no
//! mutable state and can run on separate OS threads. Determinism is
//! preserved by construction:
//!
//! 1. every simulation is single-threaded and seeded per cell, so a cell's
//!    result does not depend on which thread runs it or when;
//! 2. results are collected into a slot indexed by the cell's position, so
//!    the returned `Vec` is in cell order regardless of completion order.
//!
//! Consequently the reports emitted with `--jobs N` are byte-identical to
//! the serial (`--jobs 1`) output — only the wall clock changes. The
//! `determinism` integration test asserts exactly this.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Maps `f` over `cells`, running up to `jobs` cells concurrently, and
/// returns the results **in cell order**.
///
/// `f` is called as `f(index, &cell)`. With `jobs <= 1` (or fewer than two
/// cells) this is a plain in-order loop on the calling thread — the serial
/// path and the parallel path produce identical output either way.
///
/// Workers claim cells from a shared atomic counter (work stealing keeps
/// threads busy even when cell costs are skewed, as with the paper's mixed
/// workload levels) and send `(index, result)` back over a channel.
///
/// # Panics
///
/// Propagates a panic from `f` after the remaining in-flight cells finish.
pub fn map_cells<C, T, F>(jobs: usize, cells: &[C], f: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(usize, &C) -> T + Sync,
{
    let jobs = jobs.max(1).min(cells.len().max(1));
    if jobs <= 1 {
        return cells.iter().enumerate().map(|(i, c)| f(i, c)).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut slots: Vec<Option<T>> = Vec::with_capacity(cells.len());
    slots.resize_with(cells.len(), || None);

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let result = f(i, cell);
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Ends when every worker has dropped its sender (normally or by
        // panicking; scope exit re-raises worker panics).
        for (i, result) in rx {
            slots[i] = Some(result);
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.expect("every cell delivered exactly once"))
        .collect()
}

/// A reasonable `--jobs auto` value: the machine's available parallelism,
/// with an explicit serial fallback on single-CPU hosts — see
/// [`auto_jobs_with`].
pub fn auto_jobs() -> usize {
    auto_jobs_with(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// [`auto_jobs`] for a host with `available` CPUs (pure, for testing).
///
/// With a single CPU, worker threads cannot actually run concurrently and
/// only add spawn/channel/scheduling overhead on top of the serial work —
/// BENCH_kernel.json records the two-cell table1 slice at no speedup with
/// `--jobs 2` on a 1-CPU host — so `auto` picks the plain in-order loop.
pub fn auto_jobs_with(available: usize) -> usize {
    if available <= 1 {
        1
    } else {
        available
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let cells: Vec<u64> = (0..37).collect();
        let square = |i: usize, c: &u64| (i as u64, c * c);
        let serial = map_cells(1, &cells, square);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(map_cells(jobs, &cells, square), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_cell_sweeps() {
        let none: Vec<u32> = Vec::new();
        assert!(map_cells(4, &none, |_, c| *c).is_empty());
        assert_eq!(map_cells(4, &[9u32], |_, c| c + 1), vec![10]);
    }

    #[test]
    fn uneven_cell_costs_still_ordered() {
        // Early cells sleep longest, so completion order inverts cell
        // order under parallelism; collection must restore it.
        let cells: Vec<u64> = (0..8).collect();
        let out = map_cells(4, &cells, |i, c| {
            std::thread::sleep(std::time::Duration::from_millis(8 - i as u64));
            *c
        });
        assert_eq!(out, cells);
    }

    #[test]
    fn auto_jobs_falls_back_to_serial_on_one_cpu() {
        assert_eq!(auto_jobs_with(0), 1);
        assert_eq!(auto_jobs_with(1), 1);
        assert_eq!(auto_jobs_with(2), 2);
        assert_eq!(auto_jobs_with(16), 16);
        assert!(auto_jobs() >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            map_cells(2, &[1u32, 2, 3, 4], |_, c| {
                if *c == 3 {
                    panic!("boom");
                }
                *c
            })
        });
        assert!(result.is_err());
    }
}
