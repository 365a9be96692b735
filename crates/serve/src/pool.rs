//! The bounded run pool.
//!
//! The executor discipline from the sharded engine (DESIGN.md §5f),
//! applied to whole scenario runs: named worker threads parked on a
//! bounded channel, jobs transferred by ownership, worker panics
//! captured and shipped back as typed failures rather than poisoning
//! the server, and `Drop` closing the channel then joining every
//! worker. The channel bound *is* the backpressure policy: when the
//! queue is full, submission fails immediately with a queue-full
//! signal the protocol layer reports to the client, instead of
//! accepting unbounded work.
//!
//! A pool with zero workers is legal and never drains its queue —
//! every uncached submission is rejected. Tests use it to pin the
//! backpressure path deterministically.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use hotspots_scenario::{run_spec, HotspotsError, RunContext, ScenarioSpec};

use crate::protocol::ErrorKind;

/// A failed run: the error class the protocol reports, and the message.
pub type RunFailure = (ErrorKind, String);

/// Locks a mutex, shrugging off poisoning: a worker that panicked has
/// already had its panic captured and converted to a failure result,
/// so the data under the lock is still consistent.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where one run's result lands. Submitters park on [`RunSlot::wait`];
/// every submitter of an identical in-flight spec shares one slot, so
/// concurrent duplicate submissions cost one run.
#[derive(Debug)]
pub struct RunSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Debug)]
enum SlotState {
    Pending,
    Done(Result<String, RunFailure>),
}

impl RunSlot {
    /// A slot awaiting its result.
    #[must_use]
    pub fn new() -> RunSlot {
        RunSlot {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        }
    }

    /// Blocks until the run completes; returns the canonicalized
    /// report line, or the failure.
    ///
    /// # Errors
    ///
    /// The run's own failure, as reported by the worker:
    /// [`ErrorKind::Spec`] for a spec that fails to build,
    /// [`ErrorKind::Runtime`] for worker loss or a captured panic.
    pub fn wait(&self) -> Result<String, RunFailure> {
        let mut state = lock(&self.state);
        loop {
            match &*state {
                SlotState::Done(result) => return result.clone(),
                SlotState::Pending => {
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Publishes the result and wakes every waiter.
    fn complete(&self, result: Result<String, RunFailure>) {
        *lock(&self.state) = SlotState::Done(result);
        self.ready.notify_all();
    }
}

impl Default for RunSlot {
    fn default() -> RunSlot {
        RunSlot::new()
    }
}

/// One queued run: the spec to execute and the slot its result lands
/// in. The hash rides along for worker-side labeling.
#[derive(Debug)]
pub struct RunJob {
    /// The spec's content hash (diagnostics only; the server owns the
    /// cache keyed on it).
    pub hash: u64,
    /// The validated spec to run.
    pub spec: ScenarioSpec,
    /// Where the result lands.
    pub slot: Arc<RunSlot>,
}

/// Submission failed because the queue is at capacity (or the pool has
/// no workers to ever drain it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

/// The bounded worker pool.
#[derive(Debug)]
pub struct RunPool {
    jobs: Option<SyncSender<RunJob>>,
    /// Keeps the channel alive in the zero-worker configuration so
    /// submission reports Full (queue exists, nothing drains it)
    /// rather than Disconnected.
    _parked_queue: Option<Mutex<Receiver<RunJob>>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl RunPool {
    /// Spawns `workers` named run workers sharing a queue bounded at
    /// `queue_depth` pending jobs; each run executes with `threads`
    /// worker threads (0 = all cores).
    #[must_use]
    pub fn new(workers: usize, queue_depth: usize, threads: usize) -> RunPool {
        let (tx, rx) = sync_channel::<RunJob>(queue_depth);
        if workers == 0 {
            return RunPool {
                jobs: Some(tx),
                _parked_queue: Some(Mutex::new(rx)),
                workers: Vec::new(),
            };
        }
        let shared = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let queue = Arc::clone(&shared);
                let ctx = RunContext::new("hotspots-serve").with_threads(threads);
                thread::Builder::new()
                    .name(format!("serve-run-{i}"))
                    .spawn(move || worker_loop(&queue, &ctx))
            })
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_default();
        RunPool {
            jobs: Some(tx),
            _parked_queue: None,
            workers: handles,
        }
    }

    /// Queues a run without blocking.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the queue is at capacity — the caller turns
    /// this into the protocol's backpressure response.
    pub fn try_submit(&self, job: RunJob) -> Result<(), QueueFull> {
        let Some(jobs) = &self.jobs else {
            return Err(QueueFull);
        };
        match jobs.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => Err(QueueFull),
        }
    }
}

impl Drop for RunPool {
    fn drop(&mut self) {
        // closing the channel ends every worker's recv loop; then join
        // so no worker outlives the pool
        drop(self.jobs.take());
        for handle in self.workers.drain(..) {
            drop(handle.join());
        }
    }
}

/// Pulls jobs off the shared queue until the channel closes. Panics
/// inside a run are captured and published as failures, keeping the
/// worker (and the server above it) alive.
fn worker_loop(queue: &Mutex<Receiver<RunJob>>, ctx: &RunContext) {
    loop {
        let received = lock(queue).recv();
        let Ok(job) = received else { return };
        job.slot.complete(captured(|| execute(&job.spec, ctx)));
    }
}

/// Runs one job, converting a panic into a [`ErrorKind::Runtime`]
/// failure that carries the panic message.
fn captured(run: impl FnOnce() -> Result<String, RunFailure>) -> Result<String, RunFailure> {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let message = format!("run panicked: {}", panic_text(&*payload));
        Err((ErrorKind::Runtime, message))
    })
}

/// Runs the spec and returns the canonicalized report line — the
/// byte-stable form the store and the protocol both use.
fn execute(spec: &ScenarioSpec, ctx: &RunContext) -> Result<String, RunFailure> {
    let run = run_spec(spec, ctx).map_err(|e| {
        let kind = match e {
            HotspotsError::Spec(_) => ErrorKind::Spec,
            _ => ErrorKind::Runtime,
        };
        (kind, e.to_string())
    })?;
    Ok(run.report.build().canonicalized().to_jsonl())
}

/// Renders a captured panic payload (the same downcast ladder as the
/// shard executor).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_owned()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_worker_pools_reject_everything() {
        let pool = RunPool::new(0, 0, 1);
        let job = RunJob {
            hash: 1,
            spec: hotspots_scenario::presets()[0].spec(hotspots_scenario::Scale::Quick),
            slot: Arc::new(RunSlot::new()),
        };
        assert_eq!(pool.try_submit(job), Err(QueueFull));
    }

    #[test]
    fn captured_panics_keep_their_message() {
        let seeds = 6_000;
        let formatted = captured(|| panic!("{seeds} seed hosts"));
        assert_eq!(
            formatted,
            Err((
                ErrorKind::Runtime,
                "run panicked: 6000 seed hosts".to_owned()
            ))
        );
        let literal = captured(|| panic!("literal message"));
        assert_eq!(
            literal,
            Err((
                ErrorKind::Runtime,
                "run panicked: literal message".to_owned()
            ))
        );
        assert_eq!(
            captured(|| Ok("report".to_owned())),
            Ok("report".to_owned())
        );
    }

    #[test]
    fn slots_deliver_to_every_waiter() {
        let slot = Arc::new(RunSlot::new());
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let slot = Arc::clone(&slot);
                thread::spawn(move || slot.wait())
            })
            .collect();
        slot.complete(Ok("report".to_owned()));
        for waiter in waiters {
            assert_eq!(waiter.join().expect("join"), Ok("report".to_owned()));
        }
    }
}
