//! Exit-code contract for the `hotspots` CLI.
//!
//! `HotspotsError::exit_code` promises that mistakes the caller can
//! fix — bad flags, bad specs, unknown targets — exit 2, while runtime
//! failures — unreadable files, worker losses — exit 1. This table
//! pins every error entry point to its code and stderr shape, so a
//! regression that routes an I/O failure through the usage path (or
//! vice versa) fails loudly.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::thread::sleep;
use std::time::Duration;

use hotspots_telemetry::Timer;

/// How long one error path may take. Every row fails before any long
/// run starts, so a row that needs longer has hung.
const DEADLINE: Duration = Duration::from_secs(60);

struct Case {
    /// Human-readable label for failure messages.
    label: &'static str,
    args: &'static [&'static str],
    /// Expected process exit code: 2 usage, 1 runtime.
    code: i32,
    /// A substring the stderr diagnostic must contain.
    stderr_has: &'static str,
    /// Whether stderr should carry the usage dump (`usage: hotspots`).
    /// Usage mistakes about the *shape* of the invocation dump usage;
    /// typed failures about its *content* (bad file, bad value) do not.
    usage_dump: bool,
}

fn run(args: &[&str]) -> (i32, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hotspots"))
        .args(args)
        .env_remove("HOTSPOTS_RUN_REPORT")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("failed to spawn hotspots {args:?}: {e}"));
    let start = Timer::start();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll hotspots") {
            break status;
        }
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!("hotspots {args:?} still running after {DEADLINE:?}");
        }
        sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let code = status.code().unwrap_or_else(|| {
        panic!("hotspots {args:?} terminated without an exit code");
    });
    (code, stderr)
}

#[test]
fn error_paths_pin_exit_code_and_stderr_shape() {
    let table = [
        // --- usage errors about the invocation's shape: exit 2 + usage dump
        Case {
            label: "unknown command",
            args: &["frobnicate"],
            code: 2,
            stderr_has: "unknown command",
            usage_dump: true,
        },
        Case {
            label: "run with no target",
            args: &["run"],
            code: 2,
            stderr_has: "exactly one target",
            usage_dump: true,
        },
        Case {
            label: "--quick and --paper together",
            args: &["run", "fig2", "--quick", "--paper"],
            code: 2,
            stderr_has: "mutually exclusive",
            usage_dump: true,
        },
        Case {
            label: "misspelled --quick",
            args: &["run", "fig2", "--quik"],
            code: 2,
            stderr_has: "unrecognized flag \"--quik\"",
            usage_dump: true,
        },
        Case {
            label: "flag the subcommand does not read",
            args: &[
                "run",
                "fig3",
                "--quick",
                "--param",
                "study.probes_per_host=5",
            ],
            code: 2,
            stderr_has: "run does not take --param",
            usage_dump: true,
        },
        Case {
            label: "profile --threads with --scaling",
            args: &[
                "profile",
                "bench-slammer",
                "--scaling",
                "1",
                "--threads",
                "2",
            ],
            code: 2,
            stderr_has: "profile reads --threads only without --scaling",
            usage_dump: true,
        },
        Case {
            label: "profile --bench-json without --scaling",
            args: &["profile", "bench-slammer", "--bench-json", "out.json"],
            code: 2,
            stderr_has: "profile reads --bench-json only with --scaling",
            usage_dump: true,
        },
        Case {
            label: "non-numeric --threads",
            args: &["run", "fig2", "--threads", "lots"],
            code: 2,
            stderr_has: "--threads",
            usage_dump: true,
        },
        // --- typed usage errors about the invocation's content: exit 2, no dump
        Case {
            label: "unknown target",
            args: &["run", "no-such-preset"],
            code: 2,
            stderr_has: "neither a registered preset",
            usage_dump: false,
        },
        Case {
            label: "--param without '='",
            args: &["sweep", "fig2", "--quick", "--param", "noequals"],
            code: 2,
            stderr_has: "needs the form dotted.path=v1,v2,...",
            usage_dump: false,
        },
        Case {
            label: "--param with empty path",
            args: &["sweep", "fig2", "--quick", "--param", "=1,2"],
            code: 2,
            stderr_has: "empty parameter path",
            usage_dump: false,
        },
        Case {
            label: "--param with no values",
            args: &["sweep", "fig2", "--quick", "--param", "worm.rate="],
            code: 2,
            stderr_has: "at least one value",
            usage_dump: false,
        },
        Case {
            label: "--param naming a nonexistent field",
            args: &["sweep", "fig2", "--quick", "--param", "no.such.field=1,2"],
            code: 2,
            stderr_has: "with no.such.field = 1: unknown field",
            usage_dump: false,
        },
        Case {
            label: "sweep without --param on a sweep-less spec",
            args: &["sweep", "fig2", "--quick"],
            code: 2,
            stderr_has: "no [sweep] section",
            usage_dump: false,
        },
        Case {
            label: "sweep over an engine section a study ignores",
            args: &["sweep", "fig1", "--quick", "--param", "sim.seeds=7"],
            code: 2,
            stderr_has: "sim: a study scenario reads only [study]; remove [sim]",
            usage_dump: false,
        },
        Case {
            label: "engine spec with more seeds than hosts",
            args: &[
                "sweep",
                "bench-slammer",
                "--quick",
                "--param",
                "sim.seeds=6000",
            ],
            code: 2,
            stderr_has: "sim.seeds: 6000 seed hosts exceed the population",
            usage_dump: false,
        },
        Case {
            label: "hit-list study with more seeds than hosts",
            args: &[
                "sweep",
                "fig5ab",
                "--quick",
                "--param",
                "study.detection.population=10",
            ],
            code: 2,
            stderr_has: "study.detection.seeds: 25 seed hosts exceed the population",
            usage_dump: false,
        },
        Case {
            label: "hit-list study with a zero alert threshold",
            args: &[
                "sweep",
                "fig5ab",
                "--quick",
                "--param",
                "study.detection.alert_threshold=0",
            ],
            code: 2,
            stderr_has: "study.detection.alert_threshold: must be positive",
            usage_dump: false,
        },
        Case {
            label: "engine telescope with a zero alert threshold",
            args: &[
                "sweep",
                "fig5-outage",
                "--quick",
                "--param",
                "telescope.alert_threshold=0",
            ],
            code: 2,
            stderr_has: "telescope.alert_threshold: must be positive",
            usage_dump: false,
        },
        Case {
            label: "hit-list study with a zero list size",
            args: &[
                "run",
                concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/tests/fixtures/hitlist-zero-size.toml"
                ),
            ],
            code: 2,
            stderr_has: "study.sizes[0]: must be positive",
            usage_dump: false,
        },
        Case {
            label: "synthetic population too large for one /8",
            args: &[
                "run",
                concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/tests/fixtures/synthetic-overfull.toml"
                ),
            ],
            code: 2,
            stderr_has: "population.size: 3000000 hosts apportioned to",
            usage_dump: false,
        },
        Case {
            label: "detection population too large for one /8",
            args: &[
                "run",
                concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/tests/fixtures/detection-overfull.toml"
                ),
            ],
            code: 2,
            stderr_has: "study.detection.population: 3000000 hosts apportioned to",
            usage_dump: false,
        },
        Case {
            label: "hit-list study with zero /8s",
            args: &[
                "sweep",
                "fig5ab",
                "--quick",
                "--param",
                "study.detection.slash8s=0",
            ],
            code: 2,
            stderr_has: "study.detection.slash8s: must be in [1, 200], got 0",
            usage_dump: false,
        },
        Case {
            label: "hit-list study with more /8s than routable",
            args: &[
                "sweep",
                "fig5ab",
                "--quick",
                "--param",
                "study.detection.slash8s=201",
            ],
            code: 2,
            stderr_has: "study.detection.slash8s: must be in [1, 200], got 201",
            usage_dump: false,
        },
        Case {
            label: "NAT detection study with zero /8s",
            args: &[
                "sweep",
                "fig5c",
                "--quick",
                "--param",
                "study.detection.slash8s=0",
            ],
            code: 2,
            stderr_has: "study.detection.slash8s: must be in [1, 200], got 0",
            usage_dump: false,
        },
        Case {
            label: "NAT detection study with more /8s than routable",
            args: &[
                "sweep",
                "fig5c",
                "--quick",
                "--param",
                "study.detection.slash8s=201",
            ],
            code: 2,
            stderr_has: "study.detection.slash8s: must be in [1, 200], got 201",
            usage_dump: false,
        },
        // fig5c --quick places its sensors in the top 20 of 47 /8s:
        // 20 × 65,536 = 1,310,720 disjoint /24s
        Case {
            label: "NAT detection study with far more sensors than /24s",
            args: &[
                "sweep",
                "fig5c",
                "--quick",
                "--param",
                "study.sensors=100000000",
            ],
            code: 2,
            stderr_has: "study.sensors: 100000000 exceeds the 1310720 disjoint /24s",
            usage_dump: false,
        },
        Case {
            label: "NAT detection study with one sensor more than /24s",
            args: &[
                "sweep",
                "fig5c",
                "--quick",
                "--param",
                "study.sensors=1310721",
            ],
            code: 2,
            stderr_has: "study.sensors: 1310721 exceeds the 1310720 disjoint /24s",
            usage_dump: false,
        },
        Case {
            label: "filtering study with no infected ISP hosts",
            args: &[
                "sweep",
                "table2",
                "--quick",
                "--param",
                "study.infected_per_isp=0",
            ],
            code: 2,
            stderr_has: "study.infected_per_isp: must be positive",
            usage_dump: false,
        },
        Case {
            label: "ablations with an empty NAT population",
            args: &[
                "sweep",
                "ablations",
                "--quick",
                "--param",
                "study.nat_population=0",
            ],
            code: 2,
            stderr_has: "study.nat_population: must be positive",
            usage_dump: false,
        },
        Case {
            label: "ablations with no sensor-mode hosts",
            args: &[
                "sweep",
                "ablations",
                "--quick",
                "--param",
                "study.sensor_hosts=0",
            ],
            code: 2,
            stderr_has: "study.sensor_hosts: must be positive",
            usage_dump: false,
        },
        Case {
            label: "ablations with no reboot hosts",
            args: &[
                "sweep",
                "ablations",
                "--quick",
                "--param",
                "study.reboot_hosts=0",
            ],
            code: 2,
            stderr_has: "study.reboot_hosts: must be positive",
            usage_dump: false,
        },
        Case {
            label: "sensitivity with no Code Red hosts",
            args: &[
                "sweep",
                "sensitivity",
                "--quick",
                "--param",
                "study.codered_hosts=0",
            ],
            code: 2,
            stderr_has: "study.codered_hosts: must be positive",
            usage_dump: false,
        },
        Case {
            label: "sensitivity with no Slammer hosts",
            args: &[
                "sweep",
                "sensitivity",
                "--quick",
                "--param",
                "study.slammer_hosts=0",
            ],
            code: 2,
            stderr_has: "study.slammer_hosts: must be positive",
            usage_dump: false,
        },
        Case {
            label: "sensor-mode ablation with more seeds than hosts",
            args: &[
                "sweep",
                "ablations",
                "--quick",
                "--param",
                "study.sensor_hosts=5",
            ],
            code: 2,
            stderr_has: "study.sensor_hosts: 10 seed hosts exceed the population",
            usage_dump: false,
        },
        Case {
            label: "scale flag on a spec file",
            args: &[
                "run",
                concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../examples/specs/fig2.toml"
                ),
                "--quick",
            ],
            code: 2,
            stderr_has: "--quick picks a preset's scale",
            usage_dump: false,
        },
        // --- runtime failures: exit 1, no usage dump
        Case {
            label: "spec file that does not exist",
            args: &["run", "no/such/dir/spec.toml"],
            code: 1,
            stderr_has: "reading no/such/dir/spec.toml",
            usage_dump: false,
        },
        Case {
            label: "sweep over an unreadable spec file",
            args: &["sweep", "missing.toml", "--param", "x=1"],
            code: 1,
            stderr_has: "reading missing.toml",
            usage_dump: false,
        },
    ];

    for case in &table {
        let (code, stderr) = run(case.args);
        assert_eq!(
            code, case.code,
            "{}: hotspots {:?} exited {code}, want {}\nstderr:\n{stderr}",
            case.label, case.args, case.code
        );
        assert!(
            stderr.contains(case.stderr_has),
            "{}: stderr missing {:?}:\n{stderr}",
            case.label,
            case.stderr_has
        );
        assert!(
            stderr.starts_with("error: "),
            "{}: stderr should lead with the diagnostic:\n{stderr}",
            case.label
        );
        let dumped = stderr.contains("usage: hotspots");
        assert_eq!(
            dumped, case.usage_dump,
            "{}: usage dump presence was {dumped}, want {}\nstderr:\n{stderr}",
            case.label, case.usage_dump
        );
    }
}

#[test]
fn malformed_spec_files_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("hotspots-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("broken.toml");
    std::fs::write(
        &path,
        "[meta]\nname = \"x\"\n[worm]\nkind = \"no-such-worm\"\n",
    )
    .expect("write spec");
    let path_str = path.to_str().expect("utf-8 temp path");

    let (code, stderr) = run(&["run", path_str]);
    assert_eq!(code, 2, "malformed spec should exit 2 (usage):\n{stderr}");
    assert!(
        stderr.contains(path_str),
        "diagnostic should name the file:\n{stderr}"
    );
    assert!(
        !stderr.contains("usage: hotspots"),
        "typed spec errors skip the usage dump:\n{stderr}"
    );

    // a lone surrogate in a spec string is rejected with a typed error
    // (the PR 10 parser fix), not mangled into replacement chars
    let bad_unicode = dir.join("surrogate.toml");
    std::fs::write(
        &bad_unicode,
        "[meta]\nname = \"x\"\ntitle = \"\\uD800\"\n[worm]\nkind = \"uniform\"\n",
    )
    .expect("write spec");
    let (code, stderr) = run(&["run", bad_unicode.to_str().expect("utf-8 temp path")]);
    assert_eq!(code, 2, "lone surrogate should exit 2 (usage):\n{stderr}");
    assert!(
        stderr.contains("surrogate"),
        "diagnostic should name the surrogate problem:\n{stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A sweep builds and validates every point of every axis before the
/// first one runs: an invalid later value exits 2 with no point
/// rendered and no run report printed. A seed count is checked against
/// the population the spec states, before any population is built.
#[test]
fn sweep_validates_every_point_before_the_first_run() {
    // (invocation, stderr diagnostic, the first point's block)
    let rows: [(&[&str], &str, &str); 5] = [
        (
            &[
                "sweep",
                "xmode-uniform",
                "--quick",
                "--param",
                "sim.seeds=2,0",
            ],
            "sim.seeds: must be positive",
            "---- sim.seeds = 2 ----",
        ),
        (
            &[
                "sweep",
                "xmode-uniform",
                "--quick",
                "--param",
                "sim.seeds=2",
                "--param",
                "sim.seeds=0",
            ],
            "sim.seeds: must be positive",
            "---- sim.seeds = 2 ----",
        ),
        (
            &[
                "sweep",
                "bench-slammer",
                "--quick",
                "--param",
                "sim.seeds=10,6000",
            ],
            "sim.seeds: 6000 seed hosts exceed the population of 5000",
            "---- sim.seeds = 10 ----",
        ),
        (
            &[
                "sweep",
                "ablations",
                "--quick",
                "--param",
                "study.sensor_hosts=800,5",
            ],
            "study.sensor_hosts: 10 seed hosts exceed the population of 5",
            "---- study.sensor_hosts = 800 ----",
        ),
        (
            &[
                "sweep",
                "ablations",
                "--quick",
                "--param",
                "study.nat_population=400,24",
            ],
            "study.nat_population: 25 seed hosts exceed the population of 24",
            "---- study.nat_population = 400 ----",
        ),
    ];
    for (args, diagnostic, first_point) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_hotspots"))
            .args(args)
            .env_remove("HOTSPOTS_RUN_REPORT")
            .output()
            .expect("run hotspots");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}\nstderr:\n{stderr}");
        assert!(stderr.contains(diagnostic), "{args:?}\nstderr:\n{stderr}");
        assert!(
            !stdout.contains(first_point) && !stdout.contains("run_report"),
            "{args:?} ran a point before failing:\n{stdout}"
        );
    }
}

/// A reader that closes stdout early (`hotspots run fig2 | head -1`)
/// ends the run quietly: no panic, and the run report still reaches
/// the `--report` file.
#[test]
fn closed_stdout_is_a_quiet_exit_that_keeps_the_report() {
    let dir = std::env::temp_dir().join(format!("hotspots-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = dir.join("report.jsonl");
    let _ = std::fs::remove_file(&report);

    let mut child = Command::new(env!("CARGO_BIN_EXE_hotspots"))
        .args(["run", "fig2", "--quick", "--report"])
        .arg(&report)
        .env_remove("HOTSPOTS_RUN_REPORT")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hotspots");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read one line");
    assert!(!first.is_empty(), "no output before the pipe closed");
    drop(stdout);

    let out = child.wait_with_output().expect("wait for hotspots");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panicked:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    let text = std::fs::read_to_string(&report).expect("report file written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one run, one report:\n{text}");
    hotspots_telemetry::RunReport::from_jsonl(lines[0]).expect("report parses");
    std::fs::remove_dir_all(&dir).ok();
}
