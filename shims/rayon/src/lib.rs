//! Offline stand-in for `rayon`, backed by a persistent worker pool.
//!
//! The build image cannot reach crates.io, so this shim implements the
//! subset of rayon's API the workspace uses — [`scope`], [`Scope::spawn`]
//! and [`current_num_threads`] — on top of a lazily-initialized
//! global pool of long-lived worker threads. The previous revision spawned
//! a fresh round of OS threads per `scope` call; for small frames that
//! per-call spawn cost dominated the parallel stages it was supposed to
//! speed up. Workers are now created once (on the first parallel region)
//! and reused by every subsequent `scope`, so steady-state frames
//! pay only a queue push per task.
//!
//! Pool size is `RAYON_NUM_THREADS` when set (like upstream rayon), else
//! `std::thread::available_parallelism()`.
//!
//! Queued work is keyed by originating scope and drained **round-robin
//! across scopes** (FIFO within one scope): when several independent
//! parallel regions are in flight at once — the multi-session frame
//! server queues one region per frame stage — each gets an equal share of
//! worker pulls instead of the first-queued region monopolizing the pool.
//! For a single scope this degenerates to the previous plain FIFO.
//!
//! Semantics preserved from rayon:
//! * `scope` returns only after every spawned task (including tasks spawned
//!   from inside other tasks) has finished;
//! * a panicking task propagates out of `scope`;
//! * tasks may borrow from the enclosing stack frame (`'env` lifetime);
//! * the thread calling `scope` participates in executing queued tasks
//!   while it waits ("caller helps"), so nested scopes cannot deadlock the
//!   pool even when every worker is blocked inside an outer scope.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------------
// The global pool
// ---------------------------------------------------------------------------

/// A lifetime-erased task. Safety invariant: the `scope` call whose stack
/// frame the task borrows from does not return until the task has run (the
/// scope waits on its pending counter), so the erased `'env` references
/// stay valid for the task's whole execution.
struct Job(Box<dyn FnOnce() + Send + 'static>);

/// Per-scope FIFO queues drained round-robin.
///
/// A single global FIFO serves one scope's whole task list before the
/// next scope's first task — fine when scopes arrive one at a time, but a
/// multi-session frame server queues *independent* scopes concurrently
/// (one per frame stage), and strict FIFO would let an early large frame
/// starve every other session's frames. Keying queues by scope and
/// rotating between them gives each in-flight scope an equal share of
/// worker pulls, so concurrent frames make interleaved progress. Within
/// one scope, FIFO order is preserved.
struct Queues {
    /// `(scope id, pending jobs)`, in scope arrival order. Invariant: no
    /// deque is empty (drained scopes are removed eagerly).
    queues: Vec<(u64, VecDeque<Job>)>,
    /// Round-robin cursor into `queues`.
    rr: usize,
}

impl Queues {
    fn push(&mut self, scope_id: u64, job: Job) {
        match self.queues.iter_mut().find(|(id, _)| *id == scope_id) {
            Some((_, q)) => q.push_back(job),
            None => self.queues.push((scope_id, VecDeque::from([job]))),
        }
    }

    fn pop(&mut self) -> Option<Job> {
        if self.queues.is_empty() {
            self.rr = 0;
            return None;
        }
        let i = self.rr % self.queues.len();
        let job = self.queues[i]
            .1
            .pop_front()
            .expect("empty scope queue violates the no-empty-deque invariant");
        if self.queues[i].1.is_empty() {
            self.queues.remove(i);
            self.rr = if self.queues.is_empty() {
                0
            } else {
                i % self.queues.len()
            };
        } else {
            self.rr = (i + 1) % self.queues.len();
        }
        Some(job)
    }
}

struct Pool {
    queue: Mutex<Queues>,
    /// Signaled when a job is pushed; workers block here when idle.
    jobs_cv: Condvar,
    workers: usize,
}

impl Pool {
    fn push(&self, scope_id: u64, job: Job) {
        self.queue
            .lock()
            .expect("pool queue poisoned")
            .push(scope_id, job);
        self.jobs_cv.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.queue.lock().expect("pool queue poisoned").pop()
    }
}

fn worker_loop(pool: &'static Pool) {
    loop {
        let job = {
            let mut q = pool.queue.lock().expect("pool queue poisoned");
            loop {
                match q.pop() {
                    Some(job) => break job,
                    None => q = pool.jobs_cv.wait(q).expect("pool queue poisoned"),
                }
            }
        };
        // Jobs catch their own panics (see `Scope::spawn`), so a panicking
        // task cannot take a long-lived worker down with it.
        (job.0)();
    }
}

fn pool_size_from_env() -> Option<usize> {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The process-wide worker pool, created on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = pool_size_from_env().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(Queues {
                queues: Vec::new(),
                rr: 0,
            }),
            jobs_cv: Condvar::new(),
            workers,
        }));
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || worker_loop(pool))
                .expect("failed to spawn pool worker");
        }
        pool
    })
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

/// Shared accounting for one `scope` call: outstanding task count plus the
/// first panic payload (rayon also propagates one of possibly many).
struct ScopeState {
    /// Fair-scheduling key: this scope's queue in the pool's round-robin
    /// queue set.
    id: u64,
    sync: Mutex<ScopeSync>,
    done_cv: Condvar,
}

struct ScopeSync {
    pending: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl ScopeState {
    fn new() -> Self {
        static NEXT_SCOPE_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        Self {
            id: NEXT_SCOPE_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            sync: Mutex::new(ScopeSync {
                pending: 0,
                panic: None,
            }),
            done_cv: Condvar::new(),
        }
    }

    fn add_task(&self) {
        self.sync.lock().expect("scope poisoned").pending += 1;
    }

    fn finish_task(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut sync = self.sync.lock().expect("scope poisoned");
        if let Some(p) = panic {
            sync.panic.get_or_insert(p);
        }
        sync.pending -= 1;
        if sync.pending == 0 {
            self.done_cv.notify_all();
        }
    }

    /// Block until every task of this scope has finished, running queued
    /// pool jobs (from any scope) in the meantime. The bounded wait below
    /// re-polls the queue so a job pushed between the pop attempt and the
    /// wait cannot strand the caller.
    fn wait_all(&self, pool: &Pool) {
        loop {
            if self.sync.lock().expect("scope poisoned").pending == 0 {
                return;
            }
            match pool.try_pop() {
                Some(job) => (job.0)(),
                None => {
                    let sync = self.sync.lock().expect("scope poisoned");
                    if sync.pending == 0 {
                        return;
                    }
                    let _ = self
                        .done_cv
                        .wait_timeout(sync, Duration::from_micros(200))
                        .expect("scope poisoned");
                }
            }
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.sync.lock().expect("scope poisoned").panic.take()
    }
}

/// A scope in which tasks can be spawned (mirrors `rayon::Scope`).
pub struct Scope<'env> {
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like rayon's scope.
    _marker: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Queue `body` on the worker pool; it runs before the enclosing
    /// [`scope`] call returns.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'env>) + Send + 'env,
    {
        self.state.add_task();
        let state = Arc::clone(&self.state);
        // The task needs `&Scope<'env>` (for nested spawns). The scope
        // lives on the stack of the `scope` call, which outlives every
        // task, so smuggling the address through a usize is sound.
        let scope_addr = self as *const Scope<'env> as usize;
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            // SAFETY: `scope` does not return before `pending` drops to
            // zero, which happens strictly after this closure finishes, so
            // the `Scope` (and everything `body` borrows from the caller's
            // frame) is still alive here.
            let scope = unsafe { &*(scope_addr as *const Scope<'env>) };
            let result = catch_unwind(AssertUnwindSafe(|| body(scope)));
            state.finish_task(result.err());
        });
        // SAFETY: lifetime erasure to hand the job to long-lived workers.
        // The `'env` data it captures outlives its execution because the
        // owning `scope` call blocks until the task completes (see above).
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
        pool().push(self.state.id, Job(job));
    }
}

/// Create a scope, run `op` in it, then run every spawned task to
/// completion before returning (mirrors `rayon::scope`).
///
/// Tasks execute on the persistent worker pool; the calling thread helps
/// drain the queue while it waits. A panic in `op` or in any task
/// propagates out of `scope`, but only after every spawned task has
/// finished — tasks may borrow from the caller's stack frame, so the frame
/// must stay intact until they are done.
pub fn scope<'env, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'env>) -> R,
{
    let s = Scope {
        state: Arc::new(ScopeState::new()),
        _marker: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| op(&s)));
    s.state.wait_all(pool());
    if let Some(panic) = s.state.take_panic() {
        resume_unwind(panic);
    }
    match result {
        Ok(r) => r,
        Err(panic) => resume_unwind(panic),
    }
}

/// Number of threads a parallel region will use (mirrors
/// `rayon::current_num_threads`).
pub fn current_num_threads() -> usize {
    pool().workers.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_runs_all_tasks_before_returning() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..16 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn nested_spawns_complete() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|s2| {
                counter.fetch_add(1, Ordering::Relaxed);
                s2.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn tasks_can_borrow_stack_data() {
        let data = [1u32, 2, 3, 4];
        let sum = AtomicUsize::new(0);
        scope(|s| {
            for chunk in data.chunks(2) {
                let sum = &sum;
                s.spawn(move |_| {
                    sum.fetch_add(chunk.iter().sum::<u32>() as usize, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn task_panic_propagates_out_of_scope() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|_| panic!("task boom"));
            });
        }));
        let payload = caught.expect_err("scope should propagate the task panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "task boom");
    }

    #[test]
    fn panicking_task_does_not_kill_the_pool() {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| s.spawn(|_| panic!("first")));
        }));
        // The pool must still execute work after a task panicked.
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn sibling_tasks_finish_even_when_one_panics() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            scope(|s| {
                for i in 0..8 {
                    let c = Arc::clone(&c2);
                    s.spawn(move |_| {
                        if i == 3 {
                            panic!("middle task");
                        }
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert_eq!(counter.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn workers_are_reused_across_scopes() {
        // 100 scopes × 4 tasks. The per-scope-spawn implementation this
        // replaced created a fresh unnamed OS thread per task (ThreadIds
        // are never reused), so it would log ~400 distinct unnamed
        // threads. The pool runs every task either on a named
        // "rayon-shim-*" worker or on a thread that is helping while
        // blocked in its own `scope` call. The generous slack on the
        // unnamed bound tolerates helpers from concurrently running tests
        // that enter `scope` from unnamed threads.
        let seen = Mutex::new(HashSet::new());
        for _ in 0..100 {
            scope(|s| {
                for _ in 0..4 {
                    let seen = &seen;
                    s.spawn(move |_| {
                        let t = std::thread::current();
                        seen.lock()
                            .unwrap()
                            .insert((t.id(), t.name().map(String::from)));
                    });
                }
            });
        }
        let seen = seen.into_inner().unwrap();
        let shim_workers = seen
            .iter()
            .filter(|(_, n)| n.as_deref().is_some_and(|n| n.starts_with("rayon-shim-")))
            .count();
        assert!(
            shim_workers <= current_num_threads(),
            "{shim_workers} distinct pool workers seen, pool has {}",
            current_num_threads()
        );
        let unnamed = seen.iter().filter(|(_, n)| n.is_none()).count();
        assert!(
            unnamed <= 50,
            "{unnamed} distinct unnamed threads ran tasks — looks like \
             per-scope thread spawning is back"
        );
    }

    #[test]
    fn many_scopes_from_many_threads() {
        // Stress cross-scope interleaving on the shared pool.
        std::thread::scope(|ts| {
            for _ in 0..4 {
                ts.spawn(|| {
                    for _ in 0..50 {
                        let counter = AtomicUsize::new(0);
                        scope(|s| {
                            for _ in 0..8 {
                                let counter = &counter;
                                s.spawn(move |_| {
                                    counter.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                        assert_eq!(counter.load(Ordering::Relaxed), 8);
                    }
                });
            }
        });
    }

    #[test]
    fn queues_round_robin_across_scopes() {
        // Drive the queue set directly: three scopes with 3/2/1 jobs must
        // drain interleaved, not scope-by-scope.
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut queues = Queues {
            queues: Vec::new(),
            rr: 0,
        };
        for (scope_id, tag_count) in [(1u64, 3usize), (2, 2), (3, 1)] {
            for _ in 0..tag_count {
                let order = Arc::clone(&order);
                queues.push(
                    scope_id,
                    Job(Box::new(move || order.lock().unwrap().push(scope_id))),
                );
            }
        }
        while let Some(job) = queues.pop() {
            (job.0)();
        }
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3, 1, 2, 1]);
    }

    #[test]
    fn deeply_nested_scopes_do_not_deadlock() {
        // Every worker may be blocked inside an outer scope; the caller-
        // helps rule must still guarantee progress.
        fn nest(depth: usize) -> usize {
            if depth == 0 {
                return 1;
            }
            let total = AtomicUsize::new(0);
            scope(|s| {
                for _ in 0..2 {
                    let total = &total;
                    s.spawn(move |_| {
                        total.fetch_add(nest(depth - 1), Ordering::Relaxed);
                    });
                }
            });
            total.load(Ordering::Relaxed)
        }
        assert_eq!(nest(4), 16);
    }
}
