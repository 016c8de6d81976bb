//! Deterministic thread pool for trial-level parallelism.
//!
//! A single [`Engine`](crate::Engine) run is strictly single-threaded —
//! the determinism boundary of the whole system. What *is* parallel is
//! the layer above: a measurement campaign is a bag of independent
//! trials (one engine per trial), so executing them concurrently cannot
//! change any simulated result as long as each trial's inputs (config +
//! seed) are untouched and outputs land back in input order. This module
//! provides that execution substrate to every harness in the workspace
//! (varbench trials, tailbench sweep points, cluster nodes, the bench
//! suite) without any external dependency: scoped `std::thread` workers
//! claiming tasks from one shared atomic cursor.
//!
//! ## Dispatch order
//!
//! The cursor walks the tasks sorted by a caller-supplied cost key,
//! heaviest first, with ties in input order ([`run_by_cost`]);
//! [`run_tasks`] is the all-zero-cost case, so it starts tasks in input
//! order. A worker that finishes claims the next task in that order.
//! Starting the longest trials first keeps one of them from starting
//! last and running alone while the other workers sit idle. The order
//! depends only on the costs, never on `jobs`.
//!
//! ## Guarantees
//!
//! * **Bit-identical to sequential.** Results are written to an
//!   index-addressed slot per task; `run_by_cost(jobs, costs, tasks)`
//!   returns the same vector for every `jobs`, including 1 (which runs
//!   inline on the caller's thread with no threads spawned).
//! * **Panic isolation.** Every task runs under `catch_unwind`; a
//!   poisoned task surfaces as `Err(payload)` in its own slot and the
//!   worker moves on to the next task, so one bad trial never takes the
//!   campaign down.
//! * **No oversubscription of the scheduler's attention.** Worker count
//!   defaults to `KSA_JOBS` or, failing that, the machine's available
//!   parallelism, and is clamped to the task count.

use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Result of one pooled task: `Ok` on completion, `Err` with the panic
/// payload if the task panicked.
pub type TaskResult<T> = std::thread::Result<T>;

/// The default worker count: `KSA_JOBS` if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 if even that is
/// unknown).
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("KSA_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a `--jobs`-style knob: `0` means "auto" ([`default_jobs`]),
/// anything else is taken literally.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        default_jobs()
    } else {
        jobs
    }
}

/// Executes `tasks` on up to `jobs` workers (0 = auto) and returns their
/// results **in input order**. Each task is panic-isolated; see the
/// module docs for the full guarantees. Tasks start in input order:
/// this is [`run_by_cost`] with every cost zero.
pub fn run_tasks<F, T>(jobs: usize, tasks: Vec<F>) -> Vec<TaskResult<T>>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    run_by_cost(jobs, &vec![0; tasks.len()], tasks)
}

/// Executes `tasks` on up to `jobs` workers (0 = auto), starting them
/// heaviest-first: task `i` weighs `costs[i]`, and equal costs start in
/// input order. Results come back **in input order**, each
/// panic-isolated, exactly as from [`run_tasks`].
///
/// Workers claim tasks from one shared atomic cursor over the cost
/// order, so the start order is the same for every `jobs`. With
/// `jobs == 1` (or a single task) the one worker is the calling thread
/// — the sequential baseline the determinism property tests and the
/// bench suite compare against.
pub fn run_by_cost<F, T>(jobs: usize, costs: &[u64], tasks: Vec<F>) -> Vec<TaskResult<T>>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    assert_eq!(costs.len(), tasks.len(), "one cost per task");
    let n_tasks = tasks.len();
    let order = dispatch_order(costs);

    let tasks: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    // Index-addressed result slots: this is what pins output order.
    let results: Vec<Mutex<Option<TaskResult<T>>>> =
        (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let work = || {
        while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let task = tasks[i]
                .lock()
                .expect("task slot poisoned")
                .take()
                .expect("task claimed twice");
            // No pool lock is held across the task body, so a panicking
            // trial cannot poison the pool's state.
            let result = catch_unwind(AssertUnwindSafe(task));
            *results[i].lock().expect("result slot poisoned") = Some(result);
        }
    };

    let workers = resolve_jobs(jobs).min(n_tasks).max(1);
    if workers == 1 {
        work();
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(work);
            }
        });
    }

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("pool exited with an unexecuted task")
        })
        .collect()
}

/// Task indices heaviest-first; a stable sort keeps ties in input
/// order. Not generic, so the sort is compiled once, not per task type.
fn dispatch_order(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| Reverse(costs[i]));
    order
}

/// Applies `f` to each index `0..costs.len()` through [`run_by_cost`]
/// and returns the values in index order. A panic propagates on the
/// caller's thread once every task has finished; with several, the
/// lowest index's payload wins. For harnesses that want isolation
/// instead, use [`run_by_cost`] directly.
pub fn parallel_by_cost<T, F>(jobs: usize, costs: &[u64], f: F) -> Vec<T>
where
    F: Fn(usize) -> T + Sync,
    T: Send,
{
    let f = &f;
    let tasks = (0..costs.len()).map(|i| move || f(i)).collect();
    run_by_cost(jobs, costs, tasks)
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .collect()
}

/// [`parallel_by_cost`] with every cost zero: `f` runs on each index
/// `0..n`, started in index order.
pub fn parallel_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    F: Fn(usize) -> T + Sync,
    T: Send,
{
    parallel_by_cost(jobs, &vec![0; n], f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cost vectors of every shape the callers produce: random, all
    /// equal, tied runs, and ascending (reversed by the cursor).
    fn cost_shapes(n: usize) -> Vec<Vec<u64>> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x9e37);
        vec![
            (0..n).map(|_| rng.gen_range(0u64..1000)).collect(),
            vec![5; n],
            (0..n as u64).map(|i| i % 3).collect(),
            (0..n as u64).collect(),
        ]
    }

    #[test]
    fn results_come_back_in_input_order() {
        for costs in cost_shapes(23) {
            for jobs in [1, 2, 3, 8] {
                let tasks: Vec<_> = (0..23u64).map(|i| move || i * i).collect();
                let out = run_by_cost(jobs, &costs, tasks);
                let values: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
                assert_eq!(
                    values,
                    (0..23u64).map(|i| i * i).collect::<Vec<_>>(),
                    "jobs={jobs} costs={costs:?}"
                );
            }
        }
    }

    #[test]
    fn sequential_runs_heaviest_first_with_ties_in_input_order() {
        let started = |costs: &[u64]| {
            let log = Mutex::new(Vec::new());
            let tasks: Vec<_> = (0..costs.len())
                .map(|i| {
                    let log = &log;
                    move || log.lock().unwrap().push(i)
                })
                .collect();
            run_by_cost(1, costs, tasks);
            log.into_inner().unwrap()
        };
        assert_eq!(started(&[3, 7, 3, 0, 7, 1, 3]), [1, 4, 0, 2, 6, 5, 3]);
        for costs in cost_shapes(23) {
            let order = started(&costs);
            for w in order.windows(2) {
                let (a, b) = (w[0], w[1]);
                assert!(
                    costs[a] > costs[b] || (costs[a] == costs[b] && a < b),
                    "task {a} (cost {}) started before task {b} (cost {})",
                    costs[a],
                    costs[b]
                );
            }
            assert_eq!(order.len(), costs.len());
        }
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        // A task whose output depends only on its input must produce
        // the same vector under any worker count.
        let mk = || {
            (0..40u64)
                .map(|i| move || i.wrapping_mul(0x9e3779b9) ^ i)
                .collect()
        };
        let seq: Vec<u64> = run_tasks(1, mk()).into_iter().map(|r| r.unwrap()).collect();
        for jobs in [2, 4, 7] {
            let par: Vec<u64> = run_tasks(jobs, mk())
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(seq, par, "jobs={jobs} diverged from sequential");
        }
    }

    #[test]
    fn a_panicking_task_does_not_take_down_siblings() {
        for jobs in [1, 4] {
            let done = AtomicUsize::new(0);
            let tasks: Vec<_> = (0..10usize)
                .map(|i| {
                    let done = &done;
                    move || {
                        if i == 3 {
                            panic!("poisoned trial {i}");
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                        i
                    }
                })
                .collect();
            let out = run_tasks(jobs, tasks);
            assert_eq!(done.load(Ordering::Relaxed), 9, "jobs={jobs}");
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    assert!(r.is_err(), "jobs={jobs}: slot 3 should carry the panic");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i, "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn stealing_drains_imbalanced_queues() {
        // One long task holds a worker; the others keep claiming from
        // the shared cursor and drain the rest.
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16usize)
            .map(|i| {
                Box::new(move || {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                    }
                    i
                }) as _
            })
            .collect();
        let out = run_tasks(4, tasks);
        assert_eq!(out.len(), 16);
        assert!(out.into_iter().map(|r| r.unwrap()).eq(0..16));
    }

    #[test]
    fn empty_and_single_task_edge_cases() {
        let out: Vec<TaskResult<u32>> = run_tasks(8, Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
        let out = run_tasks(8, vec![|| 7u32]);
        assert_eq!(out.into_iter().next().unwrap().unwrap(), 7);
    }

    #[test]
    fn resolve_jobs_semantics() {
        assert!(default_jobs() >= 1);
        assert_eq!(resolve_jobs(3), 3);
        assert_eq!(resolve_jobs(0), default_jobs());
    }

    #[test]
    fn parallel_indexed_maps_in_order() {
        let out = parallel_indexed(4, 9, |i| i as u64 + 1);
        assert_eq!(out, (1..=9u64).collect::<Vec<_>>());
    }
}
