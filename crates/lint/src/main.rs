//! The `hotspots-lint` command-line interface.
//!
//! ```text
//! cargo run -p hotspots-lint -- --workspace            # lint the tree
//! cargo run -p hotspots-lint -- --workspace --json     # machine output
//! cargo run -p hotspots-lint -- --workspace --sarif    # SARIF 2.1.0
//! cargo run -p hotspots-lint -- --explain panic-reachability
//! cargo run -p hotspots-lint -- path/to/file.rs …      # lint given files
//! ```
//!
//! Exit status: 0 when clean, 1 on violations, 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use hotspots_lint::rules::RuleId;
use hotspots_lint::scan;

const USAGE: &str = "\
hotspots-lint: statically enforce the workspace's determinism invariants

USAGE:
    hotspots-lint [--workspace] [--json | --sarif] [PATH ...]
    hotspots-lint --explain <rule>

OPTIONS:
    --workspace      lint every crate's src/ plus the root package
    --json           emit one JSON object instead of text diagnostics
    --sarif          emit a SARIF 2.1.0 log instead of text diagnostics
    --explain RULE   print a rule's guarantee, example, and waiver form
    --help           print this help

Rules: D1 no-clock, D2 unordered-iteration, D3 ambient-entropy,
D4 forbid-unsafe, D5 panic-path, R6 panic-reachability,
R7 rng-stream-discipline, R8 executor-isolation.
Waive a violation in place with
`// hotspots-lint: allow(<rule>) reason=\"…\"` (reason mandatory), or
certify a whole fn with
`// hotspots-lint: certifies(panic-free) reason=\"…\"` (checked by R6).
";

/// Prints one rule's documentation record (shared with SARIF metadata
/// and the DESIGN.md §6 table).
fn explain(rule: RuleId) -> String {
    let doc = rule.doc();
    format!(
        "{} ({})\n\nguarantee:\n  {}\n\nexample violation:\n  {}\n\nwaiver:\n  {}\n",
        rule.id(),
        rule.name(),
        doc.guarantee,
        doc.example.replace('\n', "\n  "),
        doc.waiver
    )
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut json = false;
    let mut sarif = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--sarif" => sarif = true,
            "--explain" => {
                let Some(r) = args.next().as_deref().and_then(RuleId::parse) else {
                    eprintln!(
                        "hotspots-lint: --explain needs a rule id or name (e.g. `R6`, \
                         `panic-reachability`)\n\n{USAGE}"
                    );
                    return ExitCode::from(2);
                };
                print!("{}", explain(r));
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("hotspots-lint: unknown flag `{flag}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    if json && sarif {
        eprintln!("hotspots-lint: --json and --sarif are mutually exclusive\n\n{USAGE}");
        return ExitCode::from(2);
    }
    if !workspace && paths.is_empty() {
        eprintln!("hotspots-lint: nothing to lint (pass --workspace or file paths)\n\n{USAGE}");
        return ExitCode::from(2);
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = scan::find_workspace_root(&cwd).unwrap_or(cwd);
    let mut files = if workspace {
        scan::workspace_files(&root)
    } else {
        Vec::new()
    };
    for p in paths {
        let abs = if p.is_absolute() { p } else { root.join(p) };
        files.push(abs);
    }

    let report = scan::lint_files(&root, &files);
    if json {
        println!("{}", report.render_json());
    } else if sarif {
        println!("{}", report.render_sarif());
    } else {
        print!("{}", report.render_text());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
