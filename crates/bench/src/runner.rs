//! Parallel sweep runner.
//!
//! Every figure's data set is a list of *independent* jobs: each job
//! builds a fresh seeded `Rack`/`Simulator`, runs it, and returns a
//! row struct. Nothing is shared between jobs (determinism is
//! per-simulation, keyed by the seed in each spec), so the sweep is
//! embarrassingly parallel. The runner fans jobs out over a scoped
//! worker pool and reassembles results **in job-index order**, so TSV
//! output is byte-identical regardless of thread count — `--threads 1`
//! and `--threads 64` produce the same file.
//!
//! The worker count is an explicit `Runner::with_threads` (the bins'
//! `--threads N`) or, by default, [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A boxed sweep job producing one result row.
pub type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// A fixed-size worker pool for independent simulation jobs.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    threads: usize,
}

/// A runner sized from the host's available parallelism.
impl Default for Runner {
    fn default() -> Self {
        Runner::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

impl Runner {
    /// A runner with an explicit worker count (min 1).
    pub fn with_threads(threads: usize) -> Runner {
        Runner {
            threads: threads.max(1),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run all jobs and return their results in job order.
    ///
    /// Jobs are claimed from a shared counter, so long and short jobs
    /// interleave across workers; the result vector is indexed by job
    /// position, never by completion order. A panicking job propagates
    /// after the scope joins.
    pub fn run<T: Send>(&self, jobs: Vec<Job<'_, T>>) -> Vec<T> {
        let n = jobs.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return jobs.into_iter().map(|job| job()).collect();
        }
        let jobs: Vec<Mutex<Option<Job<'_, T>>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = jobs[i]
                        .lock()
                        .expect("job mutex")
                        .take()
                        .expect("job claimed once");
                    let result = job();
                    *slots[i].lock().expect("slot mutex") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot mutex")
                    .expect("every job stores its slot")
            })
            .collect()
    }

    /// Map a sweep function over inputs in parallel, preserving order.
    pub fn map<I: Send, T: Send>(&self, inputs: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T> {
        let f = &f;
        self.run(
            inputs
                .into_iter()
                .map(|input| Box::new(move || f(input)) as Job<'_, T>)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_job_order_any_thread_count() {
        for threads in [1, 2, 3, 8, 33] {
            let runner = Runner::with_threads(threads);
            let out = runner.map((0..100u64).collect(), |i| i * i);
            assert_eq!(out, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_job_durations_keep_order() {
        // Short jobs finish before long ones on other workers; output
        // order must still follow job index.
        let runner = Runner::with_threads(4);
        let out = runner.map((0..16u64).collect(), |i| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn boxed_jobs_with_captured_state() {
        let runner = Runner::with_threads(2);
        let base = 7u64;
        let jobs: Vec<Job<'_, u64>> = (0..10)
            .map(|i| Box::new(move || base + i) as Job<'_, u64>)
            .collect();
        assert_eq!(runner.run(jobs), (7..17).collect::<Vec<_>>());
    }

    #[test]
    fn empty_job_list() {
        let runner = Runner::with_threads(4);
        let out: Vec<u64> = runner.run(Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Runner::with_threads(0).threads(), 1);
    }
}
