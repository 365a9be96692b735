//! **hotspots-lint** — the workspace invariant linter.
//!
//! The reproduction's scientific claims rest on invariants that code
//! review alone cannot hold forever: bit-identical serial/parallel
//! runs, clock reads only through the timing crate, stable-order JSONL
//! reports, and randomness that flows only from the id-keyed SplitMix64
//! streams. The paper itself is a catalogue of what tiny violations do
//! at scale — Blaster's seed, Slammer's broken LCG increment — so this
//! tool machine-checks *our* equivalents on every CI run:
//!
//! * **D1 `no-clock`** — no `Instant::now`/`SystemTime` in hot-path
//!   crates; their timing goes through `hotspots-telemetry`.
//! * **D2 `unordered-iteration`** — no `HashMap`/`HashSet` in code
//!   that feeds reports, JSONL, or rendered output.
//! * **D3 `ambient-entropy`** — no `thread_rng`/`OsRng`/`RandomState`
//!   anywhere; all RNG is seeded and accounted.
//! * **D4 `forbid-unsafe`** — every library crate carries
//!   `#![forbid(unsafe_code)]`.
//! * **D5 `panic-path`** — no `unwrap`/`expect`/`panic!` in library
//!   code without a justified waiver.
//!
//! On top of the token rules sit three call-graph-driven families, fed
//! by a hand-rolled item parser ([`items`]) and a conservative
//! name-resolved call graph ([`graph`]):
//!
//! * **R6 `panic-reachability`** — `certifies(panic-free)` pragmas are
//!   checked interprocedurally: a certified fn must not reach an
//!   unwaived panic site through any call chain.
//! * **R7 `rng-stream-discipline`** — RNG constructions in
//!   sim/targeting must derive from id-keyed seeds; no RNG state in
//!   shard payloads or behind `Arc`.
//! * **R8 `executor-isolation`** — nothing reachable from
//!   `drive_shard`/`worker_loop` mutates observers or shared engine
//!   flags; every channel `Sender<T>` pairs with a `Receiver<T>`.
//!
//! Run it as `cargo run -p hotspots-lint -- --workspace` (exit nonzero
//! on violations; `--json` or `--sarif` for machine-readable output,
//! `--explain <rule>` for any rule's contract). Waive a violation in place with
//! `// hotspots-lint: allow(<rule>) reason="…"` — the reason is
//! mandatory and every waiver is listed in the run summary.
//!
//! The scanner is a small hand-rolled lexer ([`lexer`]), not a parser:
//! token-level checks plus bracket-depth region recovery ([`regions`])
//! and the single-pass item parser are enough for these rules and keep
//! the tool free of external dependencies. Its one workspace dependency
//! is the dependency-free `hotspots-telemetry`, whose JSON string
//! writer quotes the `--json` and `--sarif` output.

#![forbid(unsafe_code)]

pub mod graph;
pub mod invariants;
pub mod items;
pub mod lexer;
pub mod pragma;
pub mod regions;
pub mod rules;
pub mod sarif;
pub mod scan;

pub use rules::{Diagnostic, RuleId};
pub use scan::{lint_files, lint_source, workspace_files, WorkspaceReport};
