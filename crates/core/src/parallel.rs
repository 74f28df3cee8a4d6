//! Intra-solve assembly parallelism: the worker-count knob and the
//! deterministic row mapper the assemblies are built on.
//!
//! The MOM system matrix is embarrassingly parallel across observation rows:
//! every row panel gathers, evaluates and combines its own kernel samples
//! without reading any other row's state. The matrix-free operator's
//! generator planes are likewise independent, one work item per z level.
//! [`map_rows`] exploits that by
//! farming row indices to a sized set of scoped worker threads and collecting
//! the per-row results *in row order*, so the caller's scatter loop — and
//! therefore the assembled matrix — is **bit-identical** at any thread count:
//! each row's values are computed by exactly one worker with row-local
//! scratch, and the scatter happens serially in a fixed order.
//!
//! [`AssemblyParallelism`] is the user-facing knob of the 3D solver, threaded
//! through [`crate::SwmProblemBuilder::assembly_parallelism`]; the 2D contour
//! assembly is one serial loop. The `ROUGHSIM_ASSEMBLY_THREADS` environment
//! variable (mirroring the engine's `ROUGHSIM_EXECUTOR`) overrides whatever a
//! driver configured — see [`AssemblyParallelism::from_env`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the intra-solve assembly worker count
/// (`serial`, or a thread count; `0` means one per hardware core).
pub const ASSEMBLY_THREADS_ENV: &str = "ROUGHSIM_ASSEMBLY_THREADS";

/// How many threads one assembly call spreads its row panels — and, for the
/// matrix-free operator, its generator planes, near precorrections, table
/// FFTs and every matvec's FFTs and products — over.
///
/// Orthogonal to [`crate::AssemblyScheme`] and [`crate::KernelEval`]: the
/// knob changes wall-clock time only — parallel and serial assemblies are
/// bit-identical, because every row (or plane) is computed independently and
/// scattered in a fixed order (pinned by tests at 1/2/4/8 threads for the
/// dense 3D assembly and at 1/2/3/4 for the matrix-free setup).
///
/// The default is [`AssemblyParallelism::Serial`] so standalone solves keep
/// their historical behaviour; the batch engine picks a worker count from its
/// core budget (executor units × assembly threads ≤ cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssemblyParallelism {
    /// Single-threaded assembly (the historical behaviour).
    #[default]
    Serial,
    /// Row panels spread over this many worker threads (≥ 2; a count of 1 is
    /// normalized to [`AssemblyParallelism::Serial`] by the constructors).
    Threads(usize),
}

impl AssemblyParallelism {
    /// A parallelism of `workers` threads: `0` means one per hardware core,
    /// `1` is [`AssemblyParallelism::Serial`].
    pub fn workers(workers: usize) -> Self {
        let workers = if workers == 0 {
            available_cores()
        } else {
            workers
        };
        if workers <= 1 {
            Self::Serial
        } else {
            Self::Threads(workers)
        }
    }

    /// The worker-thread count this knob resolves to (≥ 1).
    pub fn worker_count(&self) -> usize {
        match self {
            Self::Serial => 1,
            Self::Threads(n) => (*n).max(1),
        }
    }

    /// Parses an override value: `serial`, or a worker count (`0` = one per
    /// hardware core). Returns `None` for anything unrecognizable.
    pub fn parse(value: &str) -> Option<Self> {
        match value.trim() {
            "" => None,
            "serial" => Some(Self::Serial),
            n => n.parse::<usize>().ok().map(Self::workers),
        }
    }

    /// The `ROUGHSIM_ASSEMBLY_THREADS` override, when set and well-formed.
    ///
    /// Drivers and the batch engine consult this *after* computing their own
    /// default, so the variable wins everywhere — mirroring how
    /// `ROUGHSIM_EXECUTOR` selects the unit executor.
    pub fn from_env() -> Option<Self> {
        std::env::var(ASSEMBLY_THREADS_ENV)
            .ok()
            .as_deref()
            .and_then(Self::parse)
    }
}

/// Hardware core count (1 when it cannot be determined).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `row_fn` over `0..rows` on `threads` scoped worker threads, returning
/// the results in row order.
///
/// Each worker owns one `make_scratch()` value for its whole lifetime, so
/// gather buffers and quadrature arenas are allocated once per worker instead
/// of once per row. Rows are handed out through an atomic cursor
/// (load-balancing uneven rows) and results are reassembled by row index, so
/// the output is independent of scheduling — the keystone of the
/// parallel-assembly determinism guarantee. The engine's thread-pool executor
/// runs its context builds and work units through it too (one unit per row).
/// One worker runs every row serially on the calling thread.
pub fn map_rows<R, S>(
    rows: usize,
    threads: usize,
    make_scratch: impl Fn() -> S + Sync,
    row_fn: impl Fn(usize, &mut S) -> R + Sync,
) -> Vec<R>
where
    R: Send,
{
    let workers = threads.min(rows).max(1);
    if workers <= 1 {
        let mut scratch = make_scratch();
        return (0..rows).map(|i| row_fn(i, &mut scratch)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(rows));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut scratch = make_scratch();
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let row = cursor.fetch_add(1, Ordering::Relaxed);
                    if row >= rows {
                        break;
                    }
                    local.push((row, row_fn(row, &mut scratch)));
                }
                collected
                    .lock()
                    .expect("a worker panicked while holding the results lock")
                    .extend(local);
            });
        }
    });
    let mut pairs = collected.into_inner().expect("results lock poisoned");
    pairs.sort_by_key(|&(row, _)| row);
    debug_assert_eq!(pairs.len(), rows);
    pairs.into_iter().map(|(_, value)| value).collect()
}

/// Runs `task` on every item, the items split into at most `threads`
/// contiguous runs of near-equal length, one scoped worker thread per run
/// (the first run on the calling thread).
///
/// Each item is handled by exactly one thread, so independent tasks give the
/// same bits at any thread count. The matrix-free operator uses it for its
/// FFT cubes and its pointwise product chunks.
pub(crate) fn for_each_split<T: Send>(
    items: &mut [T],
    threads: usize,
    task: impl Fn(&mut T) + Sync,
) {
    let per_run = items.len().div_ceil(threads.max(1)).max(1);
    let mut runs = items.chunks_mut(per_run);
    let Some(first) = runs.next() else {
        return;
    };
    let task = &task;
    std::thread::scope(|scope| {
        for run in runs {
            scope.spawn(move || run.iter_mut().for_each(task));
        }
        first.iter_mut().for_each(task);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_rows_preserves_order_at_any_thread_count() {
        let reference: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 4, 8] {
            let out = map_rows(97, threads, || 0usize, |i, _| i * i);
            assert_eq!(out, reference, "{threads} threads");
        }
    }

    #[test]
    fn scratch_is_per_worker_and_reused() {
        // With a serial run the single scratch counter climbs monotonically —
        // it is created once and handed back to every row.
        let serial = map_rows(
            5,
            1,
            || 0usize,
            |_, seen| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(serial, vec![1, 2, 3, 4, 5]);
        // In a parallel run every row sees *some* worker's counter: each row
        // is processed exactly once, so the counters over all workers sum to
        // the row count.
        let parallel = map_rows(
            50,
            4,
            || 0usize,
            |_, seen| {
                *seen += 1;
                1usize
            },
        );
        assert_eq!(parallel.iter().sum::<usize>(), 50);
    }

    #[test]
    fn for_each_split_touches_every_item_once_at_any_thread_count() {
        for threads in [1, 2, 3, 4, 8] {
            for len in [0, 1, 2, 4, 7] {
                let mut items: Vec<(usize, usize)> = (0..len).map(|i| (i, 0)).collect();
                for_each_split(&mut items, threads, |(i, hits)| *hits += *i + 1);
                assert!(
                    items.iter().all(|&(i, hits)| hits == i + 1),
                    "{threads} threads, {len} items"
                );
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        assert!(map_rows(0, 4, || (), |i, ()| i).is_empty());
        assert_eq!(map_rows(1, 8, || (), |i, ()| i + 10), vec![10]);
    }

    #[test]
    fn knob_normalizes_and_parses() {
        assert_eq!(AssemblyParallelism::workers(1), AssemblyParallelism::Serial);
        assert_eq!(
            AssemblyParallelism::workers(6),
            AssemblyParallelism::Threads(6)
        );
        assert_eq!(AssemblyParallelism::Serial.worker_count(), 1);
        assert_eq!(AssemblyParallelism::Threads(4).worker_count(), 4);
        assert_eq!(
            AssemblyParallelism::parse("serial"),
            Some(AssemblyParallelism::Serial)
        );
        assert_eq!(
            AssemblyParallelism::parse("4"),
            Some(AssemblyParallelism::Threads(4))
        );
        // 0 resolves to the hardware count (≥ 1), never panics.
        assert!(AssemblyParallelism::parse("0").is_some());
        assert_eq!(AssemblyParallelism::parse("bogus"), None);
        assert_eq!(AssemblyParallelism::parse(""), None);
    }
}
