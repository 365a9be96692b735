//! The serve-mix workload: one closed-loop client sending a Zipf-popular
//! stream of spec submissions to an in-process [`Server`] through
//! [`Server::handle_line`], on a fresh cache directory.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use hotspots_scenario::ScenarioSpec;
use hotspots_serve::{protocol, Request, ResultStore, ServeConfig, Server};
use hotspots_telemetry::json::{self, Json};
use hotspots_telemetry::RunReport;

use crate::inputs::{self, ZipfStream, SERVE_DISTINCT};
use crate::trace::{Recorder, OP_TRACK};
use crate::{
    end_to_end, now, quantile, reset_peak_rss, secs_since, simulate, BenchError, Checks, Metric,
    Options, Reference, Report, ScratchDir,
};

/// Cache capacity. Against 192 Zipf-popular specs it answers ~42% of
/// requests. Every request rewrites the store's files, and on the
/// calibration machine that costs 0.07–0.43 ms, drifting over minutes.
/// A larger cache with lighter runs (64 entries, 2–20 ms runs) made
/// hits 73% of requests, and that drift swung `ops_per_s` by 30%
/// across ten runs. Here misses of 10–40 ms dilute it.
pub const CAPACITY: usize = 16;

/// Set-up (open a fresh cache and fill it with the `CAPACITY` most
/// popular specs) repeats this many times; its median is reported.
const SETUP_REPS: usize = 7;

/// Requests in a smoke run.
const SMOKE_REQUESTS: u64 = 60;

/// One distinct spec: its request line and what the server will store
/// under it.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The JSONL submit request.
    pub line: String,
    /// `content_hash` of the spec.
    pub hash: u64,
    /// The spec's name, as the store's manifest records it.
    pub name: String,
    /// `canonical_toml` of the spec, as the store keeps it.
    pub canonical: String,
}

/// Builds the request lines.
///
/// # Errors
///
/// A spec does not parse, or two specs share a content hash.
pub fn prepare(specs: &[String]) -> Result<Vec<Prepared>, BenchError> {
    let mut seen = BTreeMap::new();
    specs
        .iter()
        .enumerate()
        .map(|(rank, text)| {
            let spec = ScenarioSpec::from_toml(text)?;
            let hash = spec.content_hash();
            if let Some(other) = seen.insert(hash, rank) {
                return Err(BenchError::Setup(format!(
                    "serve specs {other} and {rank} share content hash {hash:016x}"
                )));
            }
            let mut line = String::from("{\"op\":\"submit\",\"spec\":");
            json::write_str(&mut line, text);
            line.push('}');
            Ok(Prepared {
                line,
                hash,
                canonical: spec.canonical_toml(),
                name: spec.meta.name,
            })
        })
        .collect()
}

/// The client's model of the server's LRU cache: the same capacity and
/// the same policy (a hit refreshes an entry, a miss inserts one and
/// evicts the least recently used past capacity).
#[derive(Debug)]
pub struct LruModel {
    capacity: usize,
    clock: u64,
    stamps: BTreeMap<usize, u64>,
    /// Accesses the model answered from cache.
    pub hits: u64,
    /// Accesses it did not.
    pub misses: u64,
    /// Entries it evicted.
    pub evictions: u64,
}

impl LruModel {
    /// An empty cache of `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> LruModel {
        LruModel {
            capacity,
            clock: 0,
            stamps: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Records an access to `key`; true when it is a hit.
    pub fn access(&mut self, key: usize) -> bool {
        self.clock += 1;
        if let Some(stamp) = self.stamps.get_mut(&key) {
            *stamp = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.stamps.insert(key, self.clock);
        while self.stamps.len() > self.capacity {
            let Some(victim) = self.stamps.iter().min_by_key(|(_, s)| **s).map(|(k, _)| *k) else {
                break;
            };
            self.stamps.remove(&victim);
            self.evictions += 1;
        }
        false
    }
}

/// One submission's outcome.
#[derive(Debug)]
pub struct Submitted {
    /// The response line.
    pub response: String,
    /// Whether the client model expected a cache hit.
    pub hit: bool,
    /// When `handle_line` was called and when it returned.
    pub span: (Instant, Instant),
}

impl Submitted {
    fn seconds(&self) -> f64 {
        (self.span.1 - self.span.0).as_secs_f64()
    }
}

/// A server on its own cache directory, with the client-side LRU model
/// and the first response seen for every spec.
#[derive(Debug)]
pub struct Session {
    server: Server,
    model: LruModel,
    responses: BTreeMap<usize, String>,
}

impl Session {
    /// Opens a one-worker server caching at most `capacity` entries in
    /// `cache_dir`.
    ///
    /// # Errors
    ///
    /// The store cannot be opened.
    pub fn open(cache_dir: &Path, capacity: usize) -> Result<Session, BenchError> {
        let config = ServeConfig {
            cache_dir: cache_dir.to_path_buf(),
            max_entries: capacity,
            workers: 1,
            queue_depth: 16,
            threads: 1,
        };
        Ok(Session {
            server: Server::open(&config)?,
            model: LruModel::new(capacity),
            responses: BTreeMap::new(),
        })
    }

    /// Submits spec `key`, checking that the response is `ok` and
    /// byte-identical to every earlier response for the same spec.
    pub fn submit(&mut self, key: usize, prepared: &Prepared, checks: &mut Checks) -> Submitted {
        let hit = self.model.access(key);
        checks.attempt();
        let start = now();
        let response = self.server.handle_line(&prepared.line);
        let span = (start, now());
        if !response.starts_with("{\"ok\":true,") {
            checks.fail(format!("spec {key}: {response}"));
        } else {
            match self.responses.get(&key) {
                Some(first) if *first != response => {
                    checks.fail(format!("spec {key}: response bytes changed on a repeat"));
                }
                Some(_) => {}
                None => {
                    self.responses.insert(key, response.clone());
                }
            }
        }
        Submitted {
            response,
            hit,
            span,
        }
    }

    /// Checks the server's `stats` against the client model; returns
    /// the server's hits, misses and evictions.
    pub fn check_stats(&self, checks: &mut Checks) -> [u64; 3] {
        let line = self.server.handle_line("{\"op\":\"stats\"}");
        let doc = json::parse(&line).ok();
        let field = |key: &str| doc.as_ref().and_then(|d| d.get(key)).and_then(Json::as_u64);
        let (Some(hits), Some(misses), Some(evictions)) =
            (field("hits"), field("misses"), field("evictions"))
        else {
            checks.fail(format!("malformed stats response {line}"));
            return [0; 3];
        };
        checks.expect_eq("server hits vs the client LRU model", hits, self.model.hits);
        checks.expect_eq(
            "server misses vs the client LRU model",
            misses,
            self.model.misses,
        );
        checks.expect_eq(
            "server evictions vs the client LRU model",
            evictions,
            self.model.evictions,
        );
        [hits, misses, evictions]
    }
}

/// The run report inlined in a submit response.
fn report_of(response: &str) -> Result<&str, String> {
    let start = response
        .find(",\"report\":")
        .ok_or_else(|| format!("no report in {response}"))?;
    response
        .get(start + ",\"report\":".len()..response.len().saturating_sub(1))
        .ok_or_else(|| format!("malformed response {response}"))
}

/// Does to a shadow store what the server's store did for one request:
/// `get`, and on a miss `insert`. Returns whether it was a hit.
fn mirror(shadow: &mut ResultStore, prepared: &Prepared, response: &str) -> Result<bool, String> {
    if shadow
        .get(prepared.hash)
        .map_err(|e| e.to_string())?
        .is_some()
    {
        return Ok(true);
    }
    shadow
        .insert(
            prepared.hash,
            &prepared.name,
            &prepared.canonical,
            report_of(response)?,
        )
        .map_err(|e| e.to_string())?;
    Ok(false)
}

/// Replays what the server did for one request on the shadow store —
/// `parse_request`, `from_toml`, `canonical_toml`, `content_hash`,
/// `get`, and on a miss `run_spec` and `insert` — as spans under
/// `parent`.
fn replay(
    shadow: &mut ResultStore,
    rec: &mut Recorder,
    parent: usize,
    iteration: u64,
    prepared: &Prepared,
    submitted: &Submitted,
) -> Result<(), String> {
    let request = rec.span("serve.parse_request", parent, iteration, || {
        protocol::parse_request(&prepared.line)
    })?;
    let Request::Submit { spec: text, .. } = request else {
        return Err("the request line is not a submit".to_owned());
    };
    let spec = rec
        .span("spec.parse", parent, iteration, || {
            ScenarioSpec::from_toml(&text)
        })
        .map_err(|e| e.to_string())?;
    let canonical = rec.span("spec.canonical", parent, iteration, || {
        spec.canonical_toml()
    });
    let hash = rec.span("spec.hash", parent, iteration, || spec.content_hash());
    if hash != prepared.hash {
        return Err(format!(
            "replayed hash {hash:016x} != {:016x}",
            prepared.hash
        ));
    }
    let cached = rec
        .span("serve.store_get", parent, iteration, || shadow.get(hash))
        .map_err(|e| e.to_string())?;
    if cached.is_some() != submitted.hit {
        return Err("the shadow store and the client LRU model disagree".to_owned());
    }
    if cached.is_none() {
        let report = report_of(&submitted.response)?;
        let expected = RunReport::from_jsonl(report)?;
        let run = rec.open("serve.run", Some(parent), iteration);
        simulate::replay_run(&spec, 1, &expected, rec, run, iteration)?;
        rec.close(run);
        rec.span("serve.store_insert", parent, iteration, || {
            shadow.insert(hash, &spec.meta.name, &canonical, report)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Runs the serve-mix workload.
pub(crate) fn run(opts: &Options) -> Result<Report, BenchError> {
    let specs = inputs::serve_specs(opts.seed, SERVE_DISTINCT)?;
    let digest = inputs::digest(specs.iter().map(String::as_str));
    let prepared = prepare(&specs)?;
    let scratch = ScratchDir::create("serve")?;
    let mut checks = Checks::default();

    let mut setup = Vec::new();
    let mut speed = Reference::new();
    let mut session = None;
    for rep in 0..if opts.smoke { 2 } else { SETUP_REPS } {
        speed.sample();
        let t = now();
        let mut fresh = Session::open(&scratch.path().join(format!("cache-{rep}")), CAPACITY)?;
        let mut seconds = secs_since(t);
        for (key, p) in prepared.iter().enumerate().take(CAPACITY) {
            seconds += fresh.submit(key, p, &mut checks).seconds();
            speed.tick(Reference::SETUP_INTERVAL_S);
        }
        setup.push(seconds);
        session = Some(fresh);
    }
    let setup_speed = speed.phase();
    let Some(mut session) = session else {
        return Err(BenchError::Setup("no serve set-up ran".to_owned()));
    };

    // A shadow store kept in the server's state. Right after each hit
    // the benchmark times the same `get` on it: the file read and the
    // manifest rewrite a hit costs. That time drifts 3–4× over minutes
    // with the host's filesystem, so the hit latency is reported net of
    // it, which leaves the hit's own work (parse, canonicalize, hash,
    // framing) steady enough to bound.
    let mut shadow = ResultStore::open(&scratch.path().join("shadow"), CAPACITY)?;
    for (key, response) in &session.responses {
        if let Some(p) = prepared.get(*key) {
            if let Err(e) = mirror(&mut shadow, p, response) {
                checks.fail(format!("shadow store: {e}"));
            }
        }
    }
    let mut rec = Recorder::new();
    let mut stream = ZipfStream::new(prepared.len());
    let (mut all, mut hits, mut misses) = (Vec::new(), Vec::new(), Vec::new());
    let (mut store_gets, mut hits_net) = (Vec::new(), Vec::new());
    speed.sample();
    reset_peak_rss();
    let start = now();
    let mut i = 0u64;
    loop {
        let key = stream.next_rank();
        let Some(p) = prepared.get(key) else {
            return Err(BenchError::Setup(format!("stream rank {key} out of range")));
        };
        let submitted = session.submit(key, p, &mut checks);
        if opts.trace && i % 2 == 1 {
            let parent = rec.record("handle_line", None, i, OP_TRACK, submitted.span);
            if let Err(e) = replay(&mut shadow, &mut rec, parent, i, p, &submitted) {
                checks.fail(format!("request {i} replay: {e}"));
            }
        } else {
            let t = now();
            let mirrored = mirror(&mut shadow, p, &submitted.response);
            let store_s = secs_since(t);
            match mirrored {
                Ok(hit) if hit == submitted.hit => {}
                Ok(_) => checks.fail(format!(
                    "request {i}: the shadow store and the client LRU model disagree"
                )),
                Err(e) => checks.fail(format!("shadow store: {e}")),
            }
            all.push(submitted.seconds());
            if submitted.hit {
                hits.push(submitted.seconds());
                store_gets.push(store_s);
                hits_net.push(submitted.seconds() - store_s);
            } else {
                misses.push(submitted.seconds());
            }
        }
        i += 1;
        if opts.done(start, i, SMOKE_REQUESTS) {
            break;
        }
        speed.tick(Reference::LOOP_INTERVAL_S);
    }
    let stats = session.check_stats(&mut checks);
    drop(session);

    if opts.trace {
        let path = rec.write_chrome(&opts.trace_dir, opts.workload.name())?;
        eprintln!("hotspots-benchmark: wrote {}", path.display());
        let (metrics, extra) = rec.per_layer("handle_line", stats);
        return Ok(Report::new(opts, digest, checks, metrics, extra));
    }
    let n = all.len() as u64;
    let (metrics, mut extra) = end_to_end((&setup, setup_speed), &hits_net, &all, speed.phase())?;
    let (nh, nm) = (hits.len() as u64, misses.len() as u64);
    extra.extend([
        Metric::new("raw.request_ms_p50", "ms", quantile(&all, 0.5) * 1e3, n),
        Metric::new("raw.request_ms_p90", "ms", quantile(&all, 0.9) * 1e3, n),
        Metric::new(
            "raw.latency_ms_p50_hit",
            "ms",
            quantile(&hits, 0.5) * 1e3,
            nh,
        ),
        Metric::new(
            "raw.store_get_ms_p50",
            "ms",
            quantile(&store_gets, 0.5) * 1e3,
            nh,
        ),
        Metric::new(
            "raw.latency_ms_p99_hit",
            "ms",
            quantile(&hits, 0.99) * 1e3,
            nh,
        ),
        Metric::new(
            "raw.latency_ms_p50_miss",
            "ms",
            quantile(&misses, 0.5) * 1e3,
            nm,
        ),
        Metric::new(
            "raw.latency_ms_p90_miss",
            "ms",
            quantile(&misses, 0.9) * 1e3,
            nm,
        ),
        Metric::new("hit_share", "share", nh as f64 / n.max(1) as f64, n),
        Metric::new("serve.hits", "count", stats[0] as f64, 1),
        Metric::new("serve.misses", "count", stats[1] as f64, 1),
        Metric::new("serve.evictions", "count", stats[2] as f64, 1),
    ]);
    Ok(Report::new(opts, digest, checks, metrics, extra))
}
