//! Protocol-session contracts for the scenario server: golden
//! transcripts, concurrent-submission dedupe, backpressure, LRU
//! eviction, and cross-instance persistence (ISSUE 10 satellite).

use std::fs;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use hotspots_serve::{ServeConfig, Server, MAX_REQUEST_BYTES};

/// A tiny engine-path spec (64 hosts, 5 simulated seconds) that runs
/// in milliseconds; `n` differentiates specs when a test needs
/// distinct cache entries.
fn tiny_spec(n: u64) -> String {
    format!(
        "[meta]\nname = \"serve-test-{n}\"\n\n[worm]\nkind = \"uniform\"\n\n\
         [population]\nkind = \"range\"\nbase = \"10.0.0.0\"\ncount = 64\nstride = 1\n\n\
         [sim]\nscan_rate = 10.0\nseeds = 2\ndt = 1.0\nmax_time = 5.0\nrng_seed = 7\n"
    )
}

/// Renders a submit request line for `spec` (escaped via the same JSON
/// writer the server parses with).
fn submit_line(spec: &str) -> String {
    let mut line = String::from("{\"op\":\"submit\",\"spec\":");
    hotspots_telemetry::json::write_str(&mut line, spec);
    line.push('}');
    line
}

fn temp_config(label: &str) -> ServeConfig {
    let dir = std::env::temp_dir().join(format!("hotspots-serve-{label}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    ServeConfig {
        cache_dir: dir,
        ..ServeConfig::default()
    }
}

fn cleanup(config: &ServeConfig) {
    fs::remove_dir_all(&config.cache_dir).ok();
}

/// Drives one stdio session and returns the response lines.
fn session(server: &Server, requests: &[String]) -> Vec<String> {
    raw_session(server, requests.join("\n").into_bytes())
}

/// Drives one stdio session over arbitrary input bytes.
fn raw_session(server: &Server, input: Vec<u8>) -> Vec<String> {
    let mut output = Vec::new();
    server
        .serve(Cursor::new(input), &mut output)
        .expect("session");
    String::from_utf8(output)
        .expect("utf-8 responses")
        .lines()
        .map(str::to_owned)
        .collect()
}

#[test]
fn golden_session_transcript() {
    let config = temp_config("transcript");
    let server = Server::open(&config).expect("open");
    let responses = session(
        &server,
        &[
            submit_line(&tiny_spec(0)),           // miss: runs
            submit_line(&tiny_spec(0)),           // hit: memoized
            submit_line("[meta]\nname = \"\"\n"), // invalid spec
            "{\"op\":\"dance\"}".to_owned(),      // protocol error
            "{\"op\":\"stats\"}".to_owned(),
        ],
    );
    assert_eq!(responses.len(), 5, "{responses:?}");

    // cache miss and cache hit must be byte-identical: the response
    // depends only on the canonical spec
    assert_eq!(responses[0], responses[1]);
    assert!(
        responses[0].starts_with("{\"ok\":true,\"hash\":\""),
        "{}",
        responses[0]
    );
    assert!(
        responses[0].contains("\"report\":{\"kind\":\"run_report\""),
        "{}",
        responses[0]
    );
    // the canonical report never carries host timings
    assert!(
        responses[0].contains("\"wall_seconds\":0,") && responses[0].ends_with("\"phases\":{}}}"),
        "volatile fields must be zeroed: {}",
        responses[0]
    );

    // exact error shapes (golden): typed kind + escaped message
    assert!(
        responses[2].starts_with("{\"ok\":false,\"kind\":\"spec\",\"error\":\"meta.name"),
        "{}",
        responses[2]
    );
    assert_eq!(
        responses[3],
        "{\"ok\":false,\"kind\":\"protocol\",\"error\":\"unknown op \\\"dance\\\"\"}"
    );
    assert_eq!(
        responses[4],
        "{\"ok\":true,\"entries\":1,\"hits\":1,\"misses\":1,\"runs\":1,\"rejected\":0,\"evictions\":0}"
    );
    cleanup(&config);
}

#[test]
fn identical_json_and_toml_submissions_share_one_entry() {
    let config = temp_config("format-blind");
    let server = Server::open(&config).expect("open");
    let spec = hotspots_scenario::ScenarioSpec::from_toml(&tiny_spec(9)).expect("spec");
    let mut json_submit = String::from("{\"op\":\"submit\",\"format\":\"json\",\"spec\":");
    hotspots_telemetry::json::write_str(&mut json_submit, &spec.to_json());
    json_submit.push('}');

    let responses = session(
        &server,
        &[
            submit_line(&tiny_spec(9)),
            json_submit,
            "{\"op\":\"stats\"}".to_owned(),
        ],
    );
    // same canonical spec whatever the wire format: one entry, one run,
    // byte-identical responses
    assert_eq!(responses[0], responses[1]);
    assert_eq!(
        responses[2],
        "{\"ok\":true,\"entries\":1,\"hits\":1,\"misses\":1,\"runs\":1,\"rejected\":0,\"evictions\":0}"
    );
    cleanup(&config);
}

#[test]
fn concurrent_identical_submissions_run_once() {
    let config = temp_config("dedupe");
    let server = Arc::new(Server::open(&config).expect("open"));
    let request = submit_line(&tiny_spec(1));

    let clients: Vec<_> = (0..2)
        .map(|_| {
            let server = Arc::clone(&server);
            let request = request.clone();
            thread::spawn(move || server.handle_line(&request))
        })
        .collect();
    let responses: Vec<String> = clients
        .into_iter()
        .map(|c| c.join().expect("client join"))
        .collect();

    assert_eq!(
        responses[0], responses[1],
        "identical submissions must yield identical responses"
    );
    assert!(
        responses[0].starts_with("{\"ok\":true,"),
        "{}",
        responses[0]
    );
    // exactly one dispatched run, however the two clients interleaved
    let stats = server.handle_line("{\"op\":\"stats\"}");
    assert!(
        stats.contains("\"runs\":1,"),
        "two identical submissions must cost one run: {stats}"
    );
    cleanup(&config);
}

#[test]
fn zero_worker_server_reports_backpressure() {
    let mut config = temp_config("backpressure");
    config.workers = 0;
    config.queue_depth = 0;
    let server = Server::open(&config).expect("open");
    let responses = session(
        &server,
        &[submit_line(&tiny_spec(2)), "{\"op\":\"stats\"}".to_owned()],
    );
    assert_eq!(
        responses[0],
        "{\"ok\":false,\"kind\":\"queue-full\",\"error\":\"worker queue is full; resubmit later\"}"
    );
    assert_eq!(
        responses[1],
        "{\"ok\":true,\"entries\":0,\"hits\":0,\"misses\":1,\"runs\":0,\"rejected\":1,\"evictions\":0}"
    );
    cleanup(&config);
}

#[test]
fn lru_eviction_drops_the_coldest_entry() {
    let mut config = temp_config("eviction");
    config.max_entries = 2;
    let server = Server::open(&config).expect("open");
    let responses = session(
        &server,
        &[
            submit_line(&tiny_spec(3)), // run; cache [3]
            submit_line(&tiny_spec(4)), // run; cache [3,4]
            submit_line(&tiny_spec(3)), // hit; 3 warmed, 4 now coldest
            submit_line(&tiny_spec(5)), // run; evicts 4 → cache [3,5]
            submit_line(&tiny_spec(3)), // hit (survived)
            submit_line(&tiny_spec(4)), // miss again: evicted, re-runs
            "{\"op\":\"stats\"}".to_owned(),
        ],
    );
    assert_eq!(responses[0], responses[2], "entry 3 served from cache");
    assert_eq!(responses[2], responses[4], "entry 3 survived eviction");
    assert_eq!(
        responses[1], responses[5],
        "re-run after eviction is byte-identical"
    );
    assert_eq!(
        responses[6],
        "{\"ok\":true,\"entries\":2,\"hits\":2,\"misses\":4,\"runs\":4,\"rejected\":0,\"evictions\":2}"
    );
    cleanup(&config);
}

#[test]
fn cache_persists_across_server_instances() {
    let config = temp_config("persist");
    let first = {
        let server = Server::open(&config).expect("open");
        session(&server, &[submit_line(&tiny_spec(6))]).remove(0)
    };
    // a fresh server over the same cache dir serves the stored bytes
    // without dispatching a run
    let server = Server::open(&config).expect("reopen");
    let responses = session(
        &server,
        &[submit_line(&tiny_spec(6)), "{\"op\":\"stats\"}".to_owned()],
    );
    assert_eq!(
        responses[0], first,
        "cached response is byte-identical across processes"
    );
    assert_eq!(
        responses[1],
        "{\"ok\":true,\"entries\":1,\"hits\":1,\"misses\":0,\"runs\":0,\"rejected\":0,\"evictions\":0}"
    );
    cleanup(&config);
}

#[test]
fn check_verifies_and_detects_tampering() {
    let config = temp_config("check");
    let server = Server::open(&config).expect("open");
    let responses = session(&server, &[submit_line(&tiny_spec(7))]);
    assert!(
        responses[0].starts_with("{\"ok\":true,"),
        "{}",
        responses[0]
    );
    drop(server);

    let outcomes = hotspots_serve::check(&config).expect("check");
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].failure, None, "clean cache verifies");

    // corrupt the stored report: check must catch the byte difference
    let entry: PathBuf = config
        .cache_dir
        .join(&outcomes[0].hash)
        .join("report.jsonl");
    let stored = fs::read_to_string(&entry).expect("read report");
    fs::write(
        &entry,
        stored.replace("\"infections\":", "\"infections\":9"),
    )
    .expect("tamper");
    let outcomes = hotspots_serve::check(&config).expect("check");
    let failure = outcomes[0].failure.as_deref().expect("tampering detected");
    assert!(failure.contains("diverges"), "{failure}");
    cleanup(&config);
}

#[test]
fn oversize_request_line_is_rejected_and_the_session_continues() {
    let config = temp_config("oversize");
    let server = Server::open(&config).expect("open");
    let oversize = submit_line(&"#".repeat(MAX_REQUEST_BYTES));
    let responses = session(
        &server,
        &[
            oversize,
            submit_line(&tiny_spec(10)),
            "{\"op\":\"stats\"}".to_owned(),
        ],
    );
    assert_eq!(responses.len(), 3, "{responses:?}");
    assert_eq!(
        responses[0],
        format!(
            "{{\"ok\":false,\"kind\":\"request-too-large\",\"error\":\"request line exceeds {MAX_REQUEST_BYTES} bytes\"}}"
        )
    );
    // the rest of the oversize line was discarded, not parsed as a request
    assert!(
        responses[1].starts_with("{\"ok\":true,\"hash\":\""),
        "{}",
        responses[1]
    );
    assert_eq!(
        responses[2],
        "{\"ok\":true,\"entries\":1,\"hits\":0,\"misses\":1,\"runs\":1,\"rejected\":0,\"evictions\":0}"
    );
    cleanup(&config);
}

#[test]
fn spec_that_fails_to_build_is_a_spec_error_and_the_session_continues() {
    let config = temp_config("nat-build");
    let server = Server::open(&config).expect("open");
    // 10/8 hosts cannot be home-NAT gateways: the build fails typed
    let unbuildable = format!(
        "{}\n[environment.nat]\nfraction = 1.0\ntopology = \"isolated\"\nseed = 1\n",
        tiny_spec(13)
    );
    // 65 seed hosts cannot be drawn from 64: validation refuses it typed,
    // before any cache lookup or run
    let overseeded = tiny_spec(15).replace("seeds = 2", "seeds = 65");
    let responses = session(
        &server,
        &[
            submit_line(&unbuildable),
            submit_line(&overseeded),
            submit_line(&tiny_spec(14)),
            "{\"op\":\"stats\"}".to_owned(),
        ],
    );
    assert_eq!(responses.len(), 4, "{responses:?}");
    assert!(
        responses[0].starts_with(
            "{\"ok\":false,\"kind\":\"spec\",\"error\":\"environment.nat: host 10.0.0."
        ) && !responses[0].contains("panicked"),
        "{}",
        responses[0]
    );
    assert_eq!(
        responses[1],
        "{\"ok\":false,\"kind\":\"spec\",\"error\":\"sim.seeds: 65 seed hosts exceed the population of 64\"}"
    );
    assert!(
        responses[2].starts_with("{\"ok\":true,\"hash\":\""),
        "{}",
        responses[2]
    );
    // the failed run stored nothing, and the refused spec never ran
    assert_eq!(
        responses[3],
        "{\"ok\":true,\"entries\":1,\"hits\":0,\"misses\":2,\"runs\":2,\"rejected\":0,\"evictions\":0}"
    );
    cleanup(&config);
}

/// A `stats` request padded with trailing spaces to exactly `len` bytes.
fn padded_stats(len: usize) -> Vec<u8> {
    let mut line = b"{\"op\":\"stats\"}".to_vec();
    line.resize(len, b' ');
    line
}

#[test]
fn request_limit_excludes_the_line_terminator() {
    let config = temp_config("boundary");
    let server = Server::open(&config).expect("open");
    let stats = "{\"ok\":true,\"entries\":0,\"hits\":0,\"misses\":0,\"runs\":0,\"rejected\":0,\"evictions\":0}";
    let too_large = format!(
        "{{\"ok\":false,\"kind\":\"request-too-large\",\"error\":\"request line exceeds {MAX_REQUEST_BYTES} bytes\"}}"
    );
    let mut input = Vec::new();
    for (len, terminator) in [
        (MAX_REQUEST_BYTES, &b"\n"[..]),
        (MAX_REQUEST_BYTES, b"\r\n"),
        (MAX_REQUEST_BYTES + 1, b"\n"),
        (MAX_REQUEST_BYTES + 1, b"\r\n"),
    ] {
        input.extend(padded_stats(len));
        input.extend_from_slice(terminator);
        input.extend_from_slice(b"{\"op\":\"stats\"}\n");
    }
    let responses = raw_session(&server, input);
    // each oversize line costs exactly itself: the request after it is
    // still answered
    let expected = [
        stats, stats, stats, stats, &too_large, stats, &too_large, stats,
    ];
    assert_eq!(responses, expected);
    cleanup(&config);
}

#[test]
fn non_utf8_request_line_is_a_protocol_error_and_the_session_continues() {
    let config = temp_config("non-utf8");
    let server = Server::open(&config).expect("open");
    let mut input = b"{\"op\":\"st\xffats\"}\n".to_vec();
    input.extend_from_slice(submit_line(&tiny_spec(11)).as_bytes());
    let responses = raw_session(&server, input);
    assert_eq!(responses.len(), 2, "{responses:?}");
    assert!(
        responses[0].starts_with(
            "{\"ok\":false,\"kind\":\"protocol\",\"error\":\"request line is not UTF-8"
        ),
        "{}",
        responses[0]
    );
    assert!(
        responses[1].starts_with("{\"ok\":true,\"hash\":\""),
        "{}",
        responses[1]
    );
    cleanup(&config);
}

#[test]
fn deeply_nested_request_line_is_a_protocol_error_and_the_session_continues() {
    let config = temp_config("nested");
    let server = Server::open(&config).expect("open");
    // ~200 KB: far under the request limit, far past the parser's
    // nesting bound — a typed error, not a stack overflow
    let nested = "[".repeat(200_000);
    let mut nested_spec = String::from("{\"op\":\"submit\",\"format\":\"json\",\"spec\":");
    hotspots_telemetry::json::write_str(&mut nested_spec, &format!("{{\"meta\":{nested}"));
    nested_spec.push('}');
    let responses = session(&server, &[nested, nested_spec, submit_line(&tiny_spec(12))]);
    assert_eq!(responses.len(), 3, "{responses:?}");
    assert!(
        responses[0]
            .starts_with("{\"ok\":false,\"kind\":\"protocol\",\"error\":\"bad request JSON")
            && responses[0].contains("nesting deeper than"),
        "{}",
        responses[0]
    );
    assert!(
        responses[1].starts_with("{\"ok\":false,\"kind\":\"spec\",\"error\":\"(json line 1)")
            && responses[1].contains("nesting deeper than"),
        "{}",
        responses[1]
    );
    assert!(
        responses[2].starts_with("{\"ok\":true,\"hash\":\""),
        "{}",
        responses[2]
    );
    cleanup(&config);
}

/// One escaper serves every format: a meta string with a non-BMP
/// scalar and a C0 control reads the same in canonical TOML, spec
/// JSON, the run-report line, and a serve error message.
#[test]
fn meta_strings_escape_identically_in_every_format() {
    use hotspots_scenario::{value, ScenarioSpec};

    let title = "smile \u{1F600} bell \u{1}";
    let escaped = "smile \\uD83D\\uDE00 bell \\u0001";
    let mut spec = ScenarioSpec::from_toml(&tiny_spec(13)).expect("spec");
    spec.meta.title = Some(title.to_owned());
    spec.meta.scenario = Some(title.to_owned()); // the report's `scenario`

    assert!(
        spec.canonical_toml()
            .contains(&format!("title = \"{escaped}\"")),
        "{}",
        spec.canonical_toml()
    );
    assert!(
        spec.to_json().contains(&format!("\"title\":\"{escaped}\"")),
        "{}",
        spec.to_json()
    );

    // the same string as an unknown meta key makes the spec error
    // message echo it
    let mut tree = spec.to_value();
    tree.set_path(&format!("meta.{title}"), value::Value::Int(1))
        .expect("meta is a table");
    let mut bad_submit = String::from("{\"op\":\"submit\",\"format\":\"json\",\"spec\":");
    hotspots_telemetry::json::write_str(&mut bad_submit, &value::to_json(&tree));
    bad_submit.push('}');

    let config = temp_config("escapes");
    let server = Server::open(&config).expect("open");
    let responses = session(&server, &[submit_line(&spec.canonical_toml()), bad_submit]);
    assert!(
        responses[0].contains(&format!("\"scenario\":\"{escaped}\"")),
        "{}",
        responses[0]
    );
    assert_eq!(
        responses[1],
        format!("{{\"ok\":false,\"kind\":\"spec\",\"error\":\"meta.{escaped}: unknown field\"}}")
    );
    cleanup(&config);
}
