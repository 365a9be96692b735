//! The server: protocol dispatch, memoization, and cache verification.

use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hotspots_scenario::{run_spec, HotspotsError, RunContext, ScenarioSpec};
use hotspots_telemetry::hash::format_hash;

use crate::pool::{RunJob, RunPool, RunSlot};
use crate::protocol::{self, ErrorKind, Request, SpecFormat};
use crate::store::ResultStore;

/// Longest request line [`Server::serve`] accepts, in bytes, not
/// counting the newline. The largest `hotspots spec <preset>` output is
/// under 1 KiB, so this leaves about a thousandfold headroom for real
/// specs while bounding what one client can make the server buffer.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root of the content-addressed result store.
    pub cache_dir: PathBuf,
    /// LRU bound on cached entries (minimum 1).
    pub max_entries: usize,
    /// Worker threads draining the run queue. Zero is legal: nothing
    /// drains, every uncached submission reports queue-full.
    pub workers: usize,
    /// Bound on queued (not yet running) jobs.
    pub queue_depth: usize,
    /// Worker threads per run, passed to its `RunContext` (0 = all
    /// cores). Not part of any spec, so it never moves a cache key.
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            cache_dir: PathBuf::from(".hotspots-cache"),
            max_entries: 64,
            workers: 1,
            queue_depth: 16,
            threads: 1,
        }
    }
}

/// Session counters, exposed over the `stats` op.
#[derive(Debug, Default)]
struct ServeStats {
    /// Submissions answered from the persistent store.
    hits: AtomicU64,
    /// Submissions not in the store at arrival.
    misses: AtomicU64,
    /// Jobs actually dispatched to the pool (deduplicated).
    runs: AtomicU64,
    /// Submissions rejected with queue-full backpressure.
    rejected: AtomicU64,
}

/// The scenario server. Shareable across client threads (`&self`
/// methods throughout): the store sits behind a mutex, in-flight
/// dedupe behind another, and the pool hands results back through
/// per-run slots.
#[derive(Debug)]
pub struct Server {
    store: Mutex<ResultStore>,
    inflight: Mutex<BTreeMap<u64, Arc<RunSlot>>>,
    pool: RunPool,
    stats: ServeStats,
}

impl Server {
    /// Opens the result store and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Store open failure (unwritable cache dir, corrupt or
    /// future-versioned manifest).
    pub fn open(config: &ServeConfig) -> Result<Server, HotspotsError> {
        let store = ResultStore::open(&config.cache_dir, config.max_entries)?;
        Ok(Server {
            store: Mutex::new(store),
            inflight: Mutex::new(BTreeMap::new()),
            pool: RunPool::new(config.workers, config.queue_depth, config.threads),
            stats: ServeStats::default(),
        })
    }

    /// Handles one request line, returning the one response line
    /// (without trailing newline). Never panics and never kills the
    /// session: every failure becomes an error response.
    pub fn handle_line(&self, line: &str) -> String {
        match protocol::parse_request(line) {
            Ok(Request::Submit { format, spec }) => self.handle_submit(format, &spec),
            Ok(Request::Stats) => {
                let store = lock(&self.store);
                protocol::ok_stats(
                    store.len(),
                    self.stats.hits.load(Ordering::Relaxed),
                    self.stats.misses.load(Ordering::Relaxed),
                    self.stats.runs.load(Ordering::Relaxed),
                    self.stats.rejected.load(Ordering::Relaxed),
                    store.evictions(),
                )
            }
            Err(message) => protocol::error(ErrorKind::Protocol, &message),
        }
    }

    fn handle_submit(&self, format: SpecFormat, spec_text: &str) -> String {
        let parsed = match format {
            SpecFormat::Toml => ScenarioSpec::from_toml(spec_text),
            SpecFormat::Json => ScenarioSpec::from_json(spec_text),
        };
        let spec = match parsed {
            Ok(spec) => spec,
            Err(e) => return protocol::error(ErrorKind::Spec, &e.to_string()),
        };
        let canonical = spec.canonical_toml();
        let hash = spec.content_hash();
        let hash_text = format_hash(hash);
        let name = spec.meta.name.clone();

        // memoized?
        match lock(&self.store).get(hash) {
            Ok(Some(report)) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return protocol::ok_submit(&hash_text, report.trim_end());
            }
            Ok(None) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => return protocol::error(ErrorKind::Runtime, &e.to_string()),
        }

        // join an identical in-flight run, or dispatch one
        let slot = {
            let mut inflight = lock(&self.inflight);
            if let Some(slot) = inflight.get(&hash) {
                Arc::clone(slot)
            } else {
                // a run that finished since the miss above persisted
                // before it left `inflight`: serve it, don't rerun it
                if let Ok(Some(report)) = lock(&self.store).get(hash) {
                    return protocol::ok_submit(&hash_text, report.trim_end());
                }
                let slot = Arc::new(RunSlot::new());
                let job = RunJob {
                    hash,
                    spec,
                    slot: Arc::clone(&slot),
                };
                if self.pool.try_submit(job).is_err() {
                    self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    return protocol::error(
                        ErrorKind::QueueFull,
                        "worker queue is full; resubmit later",
                    );
                }
                self.stats.runs.fetch_add(1, Ordering::Relaxed);
                inflight.insert(hash, Arc::clone(&slot));
                slot
            }
        };

        let response = match slot.wait() {
            Ok(report) => {
                // first finisher persists; duplicates are no-ops with
                // identical bytes either way
                let mut store = lock(&self.store);
                let persisted = if store.contains(hash) {
                    Ok(())
                } else {
                    store.insert(hash, &name, &canonical, &report)
                };
                match persisted {
                    Ok(()) => protocol::ok_submit(&hash_text, report.trim_end()),
                    Err(e) => protocol::error(ErrorKind::Runtime, &e.to_string()),
                }
            }
            Err((kind, message)) => protocol::error(kind, &message),
        };
        // leave `inflight` only once the result is in the store
        lock(&self.inflight).remove(&hash);
        response
    }

    /// Drives a JSONL session: one response line per non-empty request
    /// line, flushed as it goes, until EOF.
    ///
    /// A line longer than [`MAX_REQUEST_BYTES`] is answered with a
    /// `request-too-large` error and skipped through its newline without
    /// being buffered; a line that is not UTF-8 gets a `protocol` error.
    /// Either way the session continues with the next line.
    ///
    /// # Errors
    ///
    /// I/O failure on either side of the session.
    pub fn serve<R: BufRead, W: Write>(&self, mut input: R, mut output: W) -> std::io::Result<()> {
        // room for the content plus a `\r\n` terminator
        let limit = MAX_REQUEST_BYTES as u64 + 2;
        let mut line = Vec::new();
        loop {
            line.clear();
            if input.by_ref().take(limit).read_until(b'\n', &mut line)? == 0 {
                return Ok(());
            }
            let terminated = line.last() == Some(&b'\n');
            if terminated {
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
            }
            let response = if line.len() > MAX_REQUEST_BYTES {
                if !terminated {
                    input.skip_until(b'\n')?;
                }
                protocol::error(
                    ErrorKind::RequestTooLarge,
                    &format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                )
            } else {
                match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => continue,
                    Ok(text) => self.handle_line(text),
                    Err(e) => protocol::error(
                        ErrorKind::Protocol,
                        &format!("request line is not UTF-8: {e}"),
                    ),
                }
            };
            writeln!(output, "{response}")?;
            output.flush()?;
        }
    }
}

/// One entry's verdict from a verification pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// The entry's content hash, formatted.
    pub hash: String,
    /// The spec's `meta.name`.
    pub name: String,
    /// `None` when the re-run reproduced the stored bytes exactly;
    /// otherwise what went wrong.
    pub failure: Option<String>,
}

/// Re-derives every cached entry — parse its stored canonical spec,
/// re-run it, canonicalize the fresh report — and diffs against the
/// stored bytes, byte for byte. The determinism audit as a first-class
/// operation: a mismatch means either the cache was corrupted or the
/// engine broke its own reproducibility contract.
///
/// Does not touch LRU state, so auditing never reorders eviction.
///
/// # Errors
///
/// Store open/read failure. Per-entry divergence is a [`CheckOutcome`]
/// failure, not an error.
pub fn check(config: &ServeConfig) -> Result<Vec<CheckOutcome>, HotspotsError> {
    let store = ResultStore::open(&config.cache_dir, config.max_entries)?;
    let ctx = RunContext::new("hotspots-serve").with_threads(config.threads);
    let mut outcomes = Vec::new();
    for (hash, name) in store.hashes() {
        let stored = store.read_report(hash)?;
        let spec_toml = store.read_spec(hash)?;
        let failure = match ScenarioSpec::from_toml(&spec_toml) {
            Err(e) => Some(format!("stored spec no longer parses: {e}")),
            Ok(spec) if spec.content_hash() != hash => Some(format!(
                "stored spec re-hashes to {} (entry dir says {})",
                format_hash(spec.content_hash()),
                format_hash(hash),
            )),
            Ok(spec) => match run_spec(&spec, &ctx) {
                Err(e) => Some(format!("re-run failed: {e}")),
                Ok(run) => {
                    let fresh = run.report.build().canonicalized().to_jsonl();
                    if fresh.trim_end() == stored.trim_end() {
                        None
                    } else {
                        Some(format!(
                            "re-run diverges from stored bytes\n  stored: {}\n   fresh: {}",
                            stored.trim_end(),
                            fresh.trim_end(),
                        ))
                    }
                }
            },
        };
        outcomes.push(CheckOutcome {
            hash: format_hash(hash),
            name,
            failure,
        });
    }
    Ok(outcomes)
}
