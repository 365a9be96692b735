//! The persistent sharded executor and the step pipeline it drives.
//!
//! Before this module existed the engine spawned a fresh set of scoped
//! threads *every step*; profiling showed that spawn cost — not the
//! serial merge — is what kept the parallel engine from winning. The
//! executor here is created once per run by
//! [`Engine::run`](crate::Engine::run): `parallelism - 1` workers park
//! on their job channels between steps, and each step hands them owned
//! shard payloads instead of borrowed slices.
//!
//! Ownership transfer is what keeps the pool compatible with
//! `#![forbid(unsafe_code)]`: a long-lived worker cannot borrow from the
//! engine's stack, so each [`StepPipeline::run_step`] peels the tail
//! chunks off the active-host vector into reusable carrier buffers,
//! ships them through `mpsc` channels, and splices them back in shard
//! order at the barrier. Two `memcpy`s of host structs per step replace
//! a thread spawn/join per step.
//!
//! Determinism argument: shards are contiguous chunks of the active
//! vector, merged back in chunk order, so the concatenated
//! probe/candidate sequence is identical whether a shard ran on the
//! driving thread or any worker. All randomness flows through per-host
//! id-keyed streams carried inside the shard payload; the executor adds
//! none (no work stealing, no completion-order effects: results land in
//! per-shard slots and are consumed in index order).

use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use hotspots_ipspace::Ip;
use hotspots_netmodel::{Delivery, DeliveryLedger, Environment, Locus, RouteTables, Service};
use hotspots_targeting::TargetGenerator;
use hotspots_telemetry::Timer;
use rand::rngs::StdRng;
use rand::Rng;

use crate::bitset::HostBits;
use crate::population::Population;

/// Engine-side state of one currently infected host. Owned by the
/// engine between steps and by a shard payload while the probe phase
/// runs; all its randomness is keyed by host id, so *where* it executes
/// never changes *what* it does.
pub(crate) struct InfectedHost {
    pub(crate) locus: Locus,
    pub(crate) generator: Box<dyn TargetGenerator + Send>,
    /// This host's private stream (rate dispersion, removal, loss
    /// draws). Keyed by host id only, never by infection order.
    pub(crate) rng: StdRng,
    pub(crate) probes_per_step: f64,
    pub(crate) probe_credit: f64,
}

/// Probes per chunk of the staged pipeline. `drive_shard` takes hosts'
/// bursts in order until a chunk holds at least this many probes;
/// [`crate::Scan`] sends a scan in chunks of at most this many. Chunking
/// changes no outcome: each burst is drawn and routed by its own host's
/// generator and RNG, in host order.
pub(crate) const CHUNK: usize = 4096;

/// Reusable per-shard scratch for one step of the staged probe pipeline.
#[derive(Debug, Default)]
pub(crate) struct ProbeBatch {
    /// The current chunk's targets, every sender's burst in order.
    pub(crate) targets: Vec<Ip>,
    /// Where each host's burst ends in `targets` (`drive_shard`).
    ends: Vec<usize>,
    /// The routing lane's per-/16 class tables, built on first use.
    tables: RouteTables,
    /// The delivered probes' records, `(public source, verdict)`.
    pub(crate) probes: Vec<(Ip, Delivery)>,
    pub(crate) candidates: Vec<usize>,
    pub(crate) ledger: DeliveryLedger,
    pub(crate) target_gen: Duration,
    pub(crate) routing: Duration,
    pub(crate) lookup: Duration,
}

impl ProbeBatch {
    /// Stage 1 for one burst: appends `n` targets drawn from `generator`
    /// to the chunk ([`TargetGenerator::fill_targets`]) and returns
    /// where they sit in it.
    pub(crate) fn fill<G: TargetGenerator + ?Sized>(
        &mut self,
        generator: &mut G,
        n: usize,
    ) -> Range<usize> {
        let start = self.targets.len();
        generator.fill_targets(n, &mut self.targets);
        start..self.targets.len()
    }

    /// Stage 2 for one burst: routes the chunk's targets in `burst` from
    /// `locus`, drawing from `rng`, appending a record to `probes` for
    /// each delivered probe and filing every verdict, drops included,
    /// in `ledger` ([`Environment::route_batch`]).
    pub(crate) fn route<R: Rng + ?Sized>(
        &mut self,
        env: &Environment,
        locus: Locus,
        service: Service,
        time: f64,
        burst: Range<usize>,
        rng: &mut R,
    ) {
        env.route_batch(
            locus,
            &self.targets[burst],
            service,
            time,
            rng,
            &mut self.probes,
            &mut self.ledger,
            &mut self.tables,
        );
    }

    /// Adds one chunk's stage times, read off its timer when targeting
    /// and routing ended, to `target_gen` and `routing`.
    pub(crate) fn add_stage_times(&mut self, t_gen: Duration, t_route: Duration) {
        self.target_gen += t_gen;
        self.routing += t_route.saturating_sub(t_gen);
    }
}

/// Read-only state every shard sees during one step's probe phase,
/// shipped to workers as `Arc` clones (a worker cannot hold a borrow of
/// the engine's stack). Shards see the start-of-step claimed set;
/// duplicate infection candidates collapse at the serial merge.
///
/// Every clone handed out for a step is dropped before
/// [`StepPipeline::run_step`] returns — the done-channel receive
/// happens-after the worker's drop — so the engine's own `Arc`s are
/// unique again at merge time and `Arc::make_mut` mutates in place.
#[derive(Clone)]
pub(crate) struct StepCtx {
    pub(crate) env: Arc<Environment>,
    pub(crate) population: Arc<Population>,
    pub(crate) service: Service,
    /// The step's simulation time, set serially before shards fan out —
    /// every shard routes against the same fault-schedule instant.
    pub(crate) time: f64,
    /// Hosts no probe can infect: seeded, infected (removed ones
    /// included) or awaiting activation.
    pub(crate) claimed: Arc<HostBits>,
}

/// Drives one shard of active hosts through the target-gen → routing →
/// victim-lookup stages, a chunk of hosts at a time, accumulating
/// results in the shard's scratch batch. Touches only its own hosts and
/// batch, so shards run on independent threads without synchronization.
pub(crate) fn drive_shard(ctx: &StepCtx, hosts: &mut [InfectedHost], batch: &mut ProbeBatch) {
    let mut rest = hosts;
    while !rest.is_empty() {
        // Four clock reads per chunk: one start, one per stage boundary.
        let timer = Timer::start();
        // Stage 1: hosts' bursts in order until the chunk holds at least
        // CHUNK probes.
        batch.targets.clear();
        batch.ends.clear();
        for host in rest.iter_mut() {
            if batch.targets.len() >= CHUNK {
                break;
            }
            host.probe_credit += host.probes_per_step;
            let n = host.probe_credit as usize;
            host.probe_credit -= n as f64;
            if n > 0 {
                batch.fill(host.generator.as_mut(), n);
            }
            batch.ends.push(batch.targets.len());
        }
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(batch.ends.len());
        rest = tail;
        let t_gen = timer.elapsed();
        // Stage 2: each burst routed with its own host's RNG. Routing
        // appends the observers' records of the delivered probes in
        // place; drops are counted in the batch's ledger only.
        let first = batch.probes.len();
        let mut start = 0;
        for (i, host) in chunk.iter_mut().enumerate() {
            let end = batch.ends[i];
            if end > start {
                batch.route(
                    &ctx.env,
                    host.locus,
                    ctx.service,
                    ctx.time,
                    start..end,
                    &mut host.rng,
                );
            }
            start = end;
        }
        let t_route = timer.elapsed();
        batch.add_stage_times(t_gen, t_route);
        // Stage 3: the chunk's delivered records in one pass.
        for &(_, delivery) in &batch.probes[first..] {
            let victim = match delivery {
                Delivery::Public(ip) => ctx.population.find_public(ip),
                Delivery::Local { realm, ip } => ctx.population.find_private(realm, ip),
                // Never recorded: routing keeps deliveries only.
                Delivery::Dropped(_) => None,
            };
            if let Some(v) = victim {
                if !ctx.claimed.get(v) {
                    batch.candidates.push(v);
                }
            }
        }
        batch.lookup += timer.elapsed().saturating_sub(t_route);
    }
}

/// One shard's payload, shipped to a pool worker by ownership transfer.
struct ShardJob {
    shard: usize,
    hosts: Vec<InfectedHost>,
    batch: ProbeBatch,
    ctx: StepCtx,
    /// When the driving thread dispatched the job (wake-latency
    /// accounting).
    sent_at: Timer,
}

/// A finished shard, returned to the driving thread with its payload so
/// the carrier buffers are reused and the merge stays allocation-free.
struct ShardDone {
    shard: usize,
    hosts: Vec<InfectedHost>,
    batch: ProbeBatch,
    /// A panic captured while driving the shard, re-raised on the
    /// driving thread (scoped-spawn semantics without scoped threads).
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// How long the worker sat parked on its job channel before this
    /// job arrived.
    park: Duration,
    /// Dispatch-to-pickup latency for this job.
    wake: Duration,
}

/// A pool worker: parks on `jobs`, drives each shard it receives, and
/// returns the payload on `done`. Exits when the executor drops its job
/// sender. Panics inside the shard are caught and shipped back so the
/// driving thread can re-raise them instead of deadlocking at the
/// barrier.
fn worker_loop(jobs: Receiver<ShardJob>, done: Sender<ShardDone>) {
    loop {
        let wait = Timer::start();
        let Ok(job) = jobs.recv() else {
            break;
        };
        let (park, wake) = (wait.elapsed(), job.sent_at.elapsed());
        let ShardJob {
            shard,
            mut hosts,
            mut batch,
            ctx,
            ..
        } = job;
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive_shard(&ctx, &mut hosts, &mut batch);
        }))
        .err();
        // Drop the ctx Arc clones before signalling completion: the
        // barrier's receive then happens-after this drop, so the engine
        // sees unique Arcs at merge time.
        drop(ctx);
        if done
            .send(ShardDone {
                shard,
                hosts,
                batch,
                panic,
                park,
                wake,
            })
            .is_err()
        {
            break;
        }
    }
}

struct WorkerHandle {
    jobs: Sender<ShardJob>,
    thread: std::thread::JoinHandle<()>,
}

/// A persistent pool of shard workers, created once per engine run and
/// reused across its steps: `ShardExecutor::new(p)` spawns `p - 1`
/// workers that park between jobs. It holds no simulation state.
pub(crate) struct ShardExecutor {
    workers: Vec<WorkerHandle>,
    done_rx: Receiver<ShardDone>,
}

impl std::fmt::Debug for ShardExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardExecutor")
            .field("parallelism", &self.parallelism())
            .finish()
    }
}

impl ShardExecutor {
    /// Creates a pool sized for `parallelism` concurrent shards: the
    /// calling thread drives shard 0, and `parallelism - 1` spawned
    /// workers (named `hotspots-worker-N`, so profilers attribute shard
    /// time to the pool) drive the rest. `0` and `1` both mean "no
    /// workers".
    pub(crate) fn new(parallelism: usize) -> ShardExecutor {
        let wanted = parallelism.saturating_sub(1);
        let (done_tx, done_rx) = channel();
        let mut workers = Vec::with_capacity(wanted);
        for i in 0..wanted {
            let (jobs_tx, jobs_rx) = channel();
            let done = done_tx.clone();
            // A spawn failure (resource exhaustion) degrades
            // parallelism instead of failing the run: the pipeline
            // caps its shard count at `parallelism()`.
            if let Ok(thread) = std::thread::Builder::new()
                .name(format!("hotspots-worker-{}", i + 1))
                .spawn(move || worker_loop(jobs_rx, done))
            {
                workers.push(WorkerHandle {
                    jobs: jobs_tx,
                    thread,
                });
            }
        }
        ShardExecutor { workers, done_rx }
    }

    /// How many shards can execute concurrently (the calling thread
    /// plus the pool workers). Always at least 1.
    pub(crate) fn parallelism(&self) -> usize {
        self.workers.len() + 1
    }
}

impl Drop for ShardExecutor {
    fn drop(&mut self) {
        for w in std::mem::take(&mut self.workers) {
            // Closing the job channel wakes the parked worker into its
            // exit path; join so no worker outlives the pool.
            drop(w.jobs);
            let _ = w.thread.join();
        }
    }
}

/// The per-run pipeline state: one scratch [`ProbeBatch`] per shard,
/// carrier buffers for the ownership transfer, and the pool-phase
/// accounting. The engine owns one per run, next to its executor.
pub(crate) struct StepPipeline {
    /// Per-shard scratch, index 0 = the driving thread's shard. The
    /// merge loop walks `batches[..shard_count]` in index order.
    batches: Vec<ProbeBatch>,
    carriers: Vec<Vec<InfectedHost>>,
    slots: Vec<Option<(Vec<InfectedHost>, ProbeBatch)>>,
    /// Cumulative worker park time (blocked on the job channel).
    park: Duration,
    /// Cumulative dispatch-to-pickup latency.
    wake: Duration,
    /// Jobs actually shipped to pool workers (0 = the run was
    /// effectively serial and no park/wake phases are reported).
    dispatched: u64,
}

impl StepPipeline {
    /// A pipeline sized for `shards` concurrent shards (at least 1).
    pub(crate) fn new(shards: usize) -> StepPipeline {
        let shards = shards.max(1);
        StepPipeline {
            batches: (0..shards).map(|_| ProbeBatch::default()).collect(),
            carriers: (0..shards).map(|_| Vec::new()).collect(),
            slots: (0..shards).map(|_| None).collect(),
            park: Duration::ZERO,
            wake: Duration::ZERO,
            dispatched: 0,
        }
    }

    /// The per-shard scratch batches, for the serial merge.
    pub(crate) fn batches_mut(&mut self) -> &mut [ProbeBatch] {
        &mut self.batches
    }

    /// Total (park, wake) pool time, if any shard ran on a pool worker.
    pub(crate) fn pool_phases(&self) -> Option<(Duration, Duration)> {
        (self.dispatched > 0).then_some((self.park, self.wake))
    }

    /// Runs the probe stages (target_gen → routing → lookup) over all
    /// active hosts, sharding across `executor`'s workers, and returns
    /// how many scratch batches were filled.
    ///
    /// Shards are contiguous chunks of `active`, reassembled in chunk
    /// order before returning, so `active`'s element order — and hence
    /// every per-host RNG stream — is exactly what a serial pass over
    /// the same vector would see. `ctx` and every clone of it are
    /// consumed before this returns.
    pub(crate) fn run_step(
        &mut self,
        executor: &mut ShardExecutor,
        ctx: StepCtx,
        active: &mut Vec<InfectedHost>,
    ) -> usize {
        let shards = self
            .batches
            .len()
            .min(executor.parallelism())
            .min(active.len());
        if shards > 1 {
            return self.run_step_pooled(executor, ctx, active, shards);
        }
        drive_shard(&ctx, active, &mut self.batches[0]);
        1
    }

    /// The pooled fan-out: peel tail chunks into carriers (last shard
    /// first, so each drain is a pure truncation), dispatch shards
    /// `1..used` to workers in fixed shard→worker order, drive shard 0
    /// inline, then collect and splice back in shard order.
    fn run_step_pooled(
        &mut self,
        executor: &mut ShardExecutor,
        ctx: StepCtx,
        active: &mut Vec<InfectedHost>,
        shards: usize,
    ) -> usize {
        let chunk = active.len().div_ceil(shards);
        let used = active.len().div_ceil(chunk);
        let mut outstanding = 0usize;
        for shard in (1..used).rev() {
            let mut hosts = std::mem::take(&mut self.carriers[shard]);
            hosts.extend(active.drain(shard * chunk..));
            let batch = std::mem::take(&mut self.batches[shard]);
            let job = ShardJob {
                shard,
                hosts,
                batch,
                ctx: ctx.clone(),
                sent_at: Timer::start(),
            };
            // Deterministic shard→worker assignment (`used - 1 <=
            // workers` because `shards <= parallelism()`), so a shard
            // always runs on the same worker thread at a given count.
            match executor.workers[shard - 1].jobs.send(job) {
                Ok(()) => outstanding += 1,
                Err(std::sync::mpsc::SendError(job)) => {
                    // Unreachable in practice (workers outlive the
                    // executor's senders); degrade by running inline.
                    let ShardJob {
                        shard,
                        mut hosts,
                        mut batch,
                        ctx,
                        ..
                    } = job;
                    drive_shard(&ctx, &mut hosts, &mut batch);
                    self.slots[shard] = Some((hosts, batch));
                }
            }
        }
        // Shard 0 is whatever remains of `active`; driving it here
        // overlaps with the workers.
        drive_shard(&ctx, active, &mut self.batches[0]);
        drop(ctx);

        while outstanding > 0 {
            match executor.done_rx.recv() {
                Ok(done) => {
                    outstanding -= 1;
                    if let Some(payload) = done.panic {
                        std::panic::resume_unwind(payload);
                    }
                    self.park += done.park;
                    self.wake += done.wake;
                    self.dispatched += 1;
                    self.slots[done.shard] = Some((done.hosts, done.batch));
                }
                // Unreachable: workers hold their done senders for the
                // executor's whole lifetime. Stop waiting rather than
                // hang if it ever happens.
                Err(_) => break,
            }
        }

        // Splice the chunks back in shard order: `active` is restored
        // to the exact element order it had before the fan-out.
        for shard in 1..used {
            if let Some((mut hosts, batch)) = self.slots[shard].take() {
                active.append(&mut hosts);
                self.carriers[shard] = hosts;
                self.batches[shard] = batch;
            }
        }
        used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_counts_the_driving_thread() {
        let pool = ShardExecutor::new(0);
        assert_eq!(pool.parallelism(), 1);
        let pool = ShardExecutor::new(1);
        assert_eq!(pool.parallelism(), 1);
    }

    #[test]
    fn pool_spawns_and_joins_workers() {
        let pool = ShardExecutor::new(4);
        assert_eq!(pool.parallelism(), 4);
        drop(pool); // must not hang: workers exit when senders drop
    }

    #[test]
    fn pipeline_always_has_a_shard_zero() {
        let p = StepPipeline::new(0);
        assert_eq!(p.batches.len(), 1);
    }
}
