//! `hotspots-benchmark`: runs the benchmark of record (see README.md).

use std::path::PathBuf;
use std::process::ExitCode;

use hotspots_benchmark::{combined_json, reset_peak_rss, run, Options, Workload};

const USAGE: &str = "\
hotspots-benchmark: the repository's benchmark of record

USAGE:
    hotspots-benchmark [--workload NAME|all] [--seed N] [--seconds N]
                       [--trace 0|1] [--trace-dir DIR] [--smoke]

OPTIONS:
    --workload NAME  slammer-pipeline, million-hosts, outage-detect,
                     serve-mix, or all (the default)
    --seed N         seed every generated input derives from (2006)
    --seconds N      measured wall time per workload (20)
    --trace 0|1      1: traced run reporting per-layer metrics and
                     writing a Chrome trace per workload (0)
    --trace-dir DIR  where traced runs write (.bench_traces)
    --smoke          3 operations per engine thread count and 60 serve
                     requests instead of a timed loop

The last stdout line is the result: {\"correct\",\"attempted\",\"failed\",
\"metrics\"}. Exit status: 0 when every check passed, 1 on a failed
check or run error, 2 on usage errors.
";

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: PathBuf,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Workload::ALL.to_vec(),
        seed: 2006,
        seconds: 20,
        trace: false,
        trace_dir: PathBuf::from(".bench_traces"),
        smoke: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            cli.smoke = true;
            continue;
        }
        let value = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--trace-dir" => {
                args.next().ok_or_else(|| format!("{flag} needs a value"))?
            }
            other => return Err(format!("unknown argument {other:?}")),
        };
        match flag.as_str() {
            "--workload" if value == "all" => cli.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                cli.workloads =
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?];
            }
            "--seed" => {
                cli.seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got {value:?}"))?;
            }
            "--seconds" => {
                cli.seconds =
                    value.parse().ok().filter(|&s| s > 0).ok_or_else(|| {
                        format!("--seconds needs a positive integer, got {value:?}")
                    })?;
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            _ => cli.trace_dir = PathBuf::from(value),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("hotspots-benchmark: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut reports = Vec::new();
    for (n, &workload) in cli.workloads.iter().enumerate() {
        if n > 0 {
            reset_peak_rss();
        }
        let opts = Options {
            seconds: cli.seconds,
            trace: cli.trace,
            smoke: cli.smoke,
            trace_dir: cli.trace_dir.clone(),
            ..Options::new(workload, cli.seed)
        };
        match run(&opts) {
            Ok(report) => {
                eprint!("{}", report.table());
                println!("{}", report.detail_json());
                reports.push(report);
            }
            Err(e) => {
                eprintln!("hotspots-benchmark: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    match reports.as_slice() {
        [one] => println!("{}", one.summary_json()),
        many => println!("{}", combined_json(many)),
    }
    if reports.iter().all(|r| r.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
