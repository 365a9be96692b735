//! Span-based execution tracing: nested spans with per-shard
//! attribution, stable span IDs, and exporters for Chrome
//! `trace_event` JSON and collapsed-stack (flamegraph) text.
//!
//! The sink is a pure data structure: it never reads the clock.
//! Callers open a span, measure the elapsed time themselves (with a
//! [`Timer`](crate::Timer)), and hand the [`Duration`] to
//! [`TraceSink::close`]. That keeps every clock read at the call site,
//! where it is counted once for the phase table too, and makes the sink
//! fully deterministic: two traces of the same run differ only in
//! their `dur_micros` timing fields, which consumers mask.
//!
//! # Span model
//!
//! Spans nest (run → step → phase) and carry three coordinates:
//!
//! * `step` — the simulation step the span belongs to,
//! * `shard` — which parallel shard did the work (0 for serial code),
//! * `track` — the export lane (Chrome `tid`): 0 for the serial
//!   spine, `shard + 1` for per-shard phase work.
//!
//! Span IDs are derived from `(phase code, step, shard)` via
//! [`stable_span_id`], so the ID sequence of a run is a pure function
//! of its control flow: bit-identical across repeats, across thread
//! counts, and across machines.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::json;

/// One recorded span. `dur_micros` is the only wall-clock-derived
/// field; everything else is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stable ID from [`stable_span_id`] — deterministic, not
    /// guaranteed unique if the same `(name, step, shard)` recurs.
    pub id: u64,
    /// Index of the enclosing span in [`TraceSink::spans`], if any.
    pub parent: Option<u32>,
    /// Phase name (`"run"`, `"step"`, `"target_gen"`, …).
    pub name: &'static str,
    /// Simulation step the span belongs to (0 for the run span).
    pub step: u64,
    /// Shard that did the work; 0 for serial code.
    pub shard: u32,
    /// Export lane (Chrome `tid`): 0 = serial spine, `shard + 1` =
    /// per-shard work.
    pub track: u32,
    /// Nesting depth at open time (run = 0).
    pub depth: u32,
    /// TIMING FIELD — wall-clock span length in microseconds. The one
    /// non-deterministic field; golden tests mask it.
    pub dur_micros: u64,
}

/// Handle returned by [`TraceSink::open`]; spend it on
/// [`TraceSink::close`]. Not `Copy`: one open, one close.
#[derive(Debug)]
#[must_use = "an open span must be closed or the trace is unbalanced"]
pub struct SpanToken {
    idx: u32,
}

/// Derives a stable span ID from a phase code (interned name index),
/// step, and shard: 8 bits of phase, 40 bits of step, 16 bits of
/// shard. Pure arithmetic — the same call sequence always yields the
/// same IDs.
pub fn stable_span_id(phase_code: u32, step: u64, shard: u32) -> u64 {
    (u64::from(phase_code & 0xFF) << 56)
        | ((step & 0xFF_FFFF_FFFF) << 16)
        | u64::from(shard & 0xFFFF)
}

/// Records nested spans for one engine run. See the module docs for
/// the span model and determinism contract.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    spans: Vec<SpanRecord>,
    stack: Vec<u32>,
    names: Vec<&'static str>,
    mismatched_closes: u64,
}

impl TraceSink {
    /// An empty trace.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    fn intern(&mut self, name: &'static str) -> u32 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u32
            }
        }
    }

    /// Opens a span nested under the currently-open one (if any).
    /// Duration stays 0 until [`TraceSink::close`].
    pub fn open(&mut self, name: &'static str, step: u64, shard: u32, track: u32) -> SpanToken {
        let code = self.intern(name);
        let idx = self.spans.len() as u32;
        self.spans.push(SpanRecord {
            id: stable_span_id(code, step, shard),
            parent: self.stack.last().copied(),
            name,
            step,
            shard,
            track,
            depth: self.stack.len() as u32,
            dur_micros: 0,
        });
        self.stack.push(idx);
        SpanToken { idx }
    }

    /// Closes a span with its measured duration. Out-of-order closes
    /// never panic: the token's span still gets its duration, any
    /// spans left open above it are closed with what they have, and
    /// the mismatch is counted (see
    /// [`TraceSink::mismatched_closes`]).
    pub fn close(&mut self, token: SpanToken, dur: Duration) {
        if let Some(span) = self.spans.get_mut(token.idx as usize) {
            span.dur_micros = dur.as_micros().min(u128::from(u64::MAX)) as u64;
        }
        match self.stack.iter().rposition(|&i| i == token.idx) {
            Some(pos) => {
                if pos != self.stack.len() - 1 {
                    self.mismatched_closes += self.stack.len() as u64 - 1 - pos as u64;
                }
                self.stack.truncate(pos);
            }
            None => self.mismatched_closes += 1,
        }
    }

    /// Records an already-measured span with no children: open +
    /// close in one call.
    pub fn leaf(&mut self, name: &'static str, step: u64, shard: u32, track: u32, dur: Duration) {
        let token = self.open(name, step, shard, track);
        self.close(token, dur);
    }

    /// All spans, in open order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans opened but not yet closed.
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    /// Closes that did not match the innermost open span.
    pub fn mismatched_closes(&self) -> u64 {
        self.mismatched_closes
    }

    /// True when every open had a matching, properly-nested close.
    pub fn is_balanced(&self) -> bool {
        self.stack.is_empty() && self.mismatched_closes == 0
    }

    /// `true` for spans that enclose at least one other span.
    fn has_child(&self) -> Vec<bool> {
        let mut has = vec![false; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                has[p as usize] = true;
            }
        }
        has
    }

    /// Synthesizes a start timestamp (µs) per span: each track lays
    /// its spans out back-to-back, children aligned to their parent's
    /// start. Purely derived from `dur_micros`, so masking durations
    /// masks these too.
    fn synth_ts(&self, has_child: &[bool]) -> Vec<u64> {
        let mut ts = vec![0u64; self.spans.len()];
        let mut cursor: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let lane = cursor.entry(span.track).or_insert(0);
            let parent_ts = span.parent.map_or(0, |p| ts[p as usize]);
            let start = (*lane).max(parent_ts);
            ts[i] = start;
            *lane = if has_child[i] {
                start
            } else {
                start.saturating_add(span.dur_micros)
            };
        }
        ts
    }

    /// The trace as Chrome `trace_event` JSON (load in
    /// `chrome://tracing` or <https://ui.perfetto.dev>). Key order is
    /// fixed; `ts` and `dur` are the only wall-clock-derived fields.
    pub fn to_chrome_trace(&self) -> String {
        let has_child = self.has_child();
        let ts = self.synth_ts(&has_child);
        let mut out = String::with_capacity(128 * self.spans.len() + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":");
            json::write_str(&mut out, span.name);
            out.push_str(",\"cat\":\"engine\",\"ph\":\"X\",\"pid\":1,\"tid\":");
            out.push_str(&span.track.to_string());
            out.push_str(",\"ts\":");
            out.push_str(&ts[i].to_string());
            out.push_str(",\"dur\":");
            out.push_str(&span.dur_micros.to_string());
            out.push_str(",\"args\":{\"id\":");
            out.push_str(&span.id.to_string());
            out.push_str(",\"step\":");
            out.push_str(&span.step.to_string());
            out.push_str(",\"shard\":");
            out.push_str(&span.shard.to_string());
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// The trace as collapsed-stack text (`path count` per line, for
    /// `flamegraph.pl` or <https://speedscope.app>). Weights are each
    /// span's *self* time in µs, aggregated over steps; leaf frames
    /// carry a `#s<shard>` suffix so shard imbalance is visible. Line
    /// order is lexicographic — deterministic modulo the weights.
    pub fn to_collapsed(&self) -> String {
        let has_child = self.has_child();
        let frames: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, span)| {
                if has_child[i] {
                    span.name.to_owned()
                } else {
                    format!("{}#s{}", span.name, span.shard)
                }
            })
            .collect();
        let mut weights: BTreeMap<String, u64> = BTreeMap::new();
        let mut child_sum = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_sum[p as usize] = child_sum[p as usize].saturating_add(span.dur_micros);
            }
        }
        for (i, span) in self.spans.iter().enumerate() {
            let mut path = frames[i].clone();
            let mut at = span.parent;
            while let Some(p) = at {
                path = format!("{};{}", frames[p as usize], path);
                at = self.spans[p as usize].parent;
            }
            let self_time = span.dur_micros.saturating_sub(child_sum[i]);
            *weights.entry(path).or_insert(0) += self_time;
        }
        let mut out = String::new();
        for (path, weight) in &weights {
            out.push_str(path);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    /// Two steps, two shards: the shape the engine emits.
    fn sample_trace() -> TraceSink {
        let mut t = TraceSink::new();
        let run = t.open("run", 0, 0, 0);
        for step in 0..2u64 {
            let s = t.open("step", step, 0, 0);
            for shard in 0..2u32 {
                t.leaf(
                    "target_gen",
                    step,
                    shard,
                    shard + 1,
                    Duration::from_micros(30),
                );
                t.leaf("routing", step, shard, shard + 1, Duration::from_micros(20));
                t.leaf("lookup", step, shard, shard + 1, Duration::from_micros(10));
            }
            t.leaf("observe", step, 0, 0, Duration::from_micros(5));
            t.leaf("merge", step, 0, 0, Duration::from_micros(40));
            t.close(s, Duration::from_micros(150));
        }
        t.close(run, Duration::from_micros(310));
        t
    }

    #[test]
    fn spans_nest_and_balance() {
        let t = sample_trace();
        assert!(t.is_balanced());
        assert_eq!(t.len(), 1 + 2 * (1 + 6 + 2));
        let run = &t.spans()[0];
        assert_eq!((run.name, run.depth, run.parent), ("run", 0, None));
        let step = &t.spans()[1];
        assert_eq!((step.name, step.depth, step.parent), ("step", 1, Some(0)));
        let tg = &t.spans()[2];
        assert_eq!(
            (tg.name, tg.depth, tg.shard, tg.track),
            ("target_gen", 2, 0, 1)
        );
    }

    #[test]
    fn ids_are_stable_across_identical_runs() {
        let a: Vec<u64> = sample_trace().spans().iter().map(|s| s.id).collect();
        let b: Vec<u64> = sample_trace().spans().iter().map(|s| s.id).collect();
        assert_eq!(a, b);
        // Distinct coordinates → distinct IDs within one step.
        let t = sample_trace();
        let step0: Vec<u64> = t
            .spans()
            .iter()
            .filter(|s| s.step == 0)
            .map(|s| s.id)
            .collect();
        let mut dedup = step0.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), step0.len());
    }

    #[test]
    fn stable_id_packs_fields() {
        assert_eq!(stable_span_id(0, 0, 0), 0);
        assert_eq!(stable_span_id(1, 0, 0), 1 << 56);
        assert_eq!(stable_span_id(0, 1, 0), 1 << 16);
        assert_eq!(stable_span_id(0, 0, 1), 1);
        assert_ne!(stable_span_id(2, 7, 1), stable_span_id(2, 7, 2));
    }

    #[test]
    fn mismatched_close_is_counted_not_fatal() {
        let mut t = TraceSink::new();
        let a = t.open("a", 0, 0, 0);
        let _b_leaked = t.open("b", 0, 0, 0);
        // Closing `a` with `b` still open is a mismatch; `b` is
        // force-closed with whatever duration it had.
        t.close(a, Duration::from_micros(10));
        assert_eq!(t.mismatched_closes(), 1);
        assert_eq!(t.open_spans(), 0);
        assert!(!t.is_balanced());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_stable_keys() {
        let text = sample_trace().to_chrome_trace();
        let parsed = json::parse(&text).expect("chrome trace parses");
        let events = parsed.get("traceEvents").expect("traceEvents key");
        let Json::Arr(events) = events else {
            panic!("traceEvents is not an array")
        };
        assert_eq!(events.len(), sample_trace().len());
        for event in events {
            assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            assert_eq!(event.get("pid").and_then(Json::as_u64), Some(1));
            assert!(event.get("args").and_then(|a| a.get("shard")).is_some());
        }
        // Key order is part of the golden-schema contract.
        let first = text.find("{\"name\":").expect("event start");
        let keys = &text[first..text[first..].find('}').unwrap() + first];
        for pair in [
            "\"name\":",
            "\"cat\":",
            "\"ph\":",
            "\"pid\":",
            "\"tid\":",
            "\"ts\":",
            "\"dur\":",
        ] {
            assert!(keys.contains(pair), "missing {pair} in {keys}");
        }
    }

    #[test]
    fn chrome_trace_timestamps_nest_children_inside_parents() {
        let t = sample_trace();
        let has_child = t.has_child();
        let ts = t.synth_ts(&has_child);
        // Track-0 events are laid out back-to-back inside their parent.
        for (i, span) in t.spans().iter().enumerate() {
            if let Some(p) = span.parent {
                assert!(ts[i] >= ts[p as usize], "child {i} starts before parent");
            }
        }
        // Second step starts after the first step's serial work.
        let steps: Vec<usize> = t
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "step")
            .map(|(i, _)| i)
            .collect();
        assert!(ts[steps[1]] > ts[steps[0]]);
    }

    #[test]
    fn collapsed_output_is_sorted_and_shard_attributed() {
        let text = sample_trace().to_collapsed();
        let lines: Vec<&str> = text.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "collapsed lines must be sorted");
        assert!(text.contains("run;step;target_gen#s0 "));
        assert!(text.contains("run;step;target_gen#s1 "));
        assert!(text.contains("run;step;merge#s0 "));
        // Aggregation: 2 steps × 30µs of shard-0 target_gen.
        assert!(text.contains("run;step;target_gen#s0 60\n"), "{text}");
        // Self time: step = 150 - (30+20+10)*2 - 5 - 40 = −15 → clamps
        // at 0 per step? No: children sum = 165 > 150, clamped to 0.
        assert!(text.contains("run;step 0\n"), "{text}");
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let t = TraceSink::new();
        assert!(t.is_empty());
        assert!(t.is_balanced());
        assert!(json::parse(&t.to_chrome_trace()).is_ok());
        assert_eq!(t.to_collapsed(), "");
    }
}
