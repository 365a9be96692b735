//! The `BENCH_engine.json` schema: a thread-scaling curve with
//! per-phase breakdowns, written by the `hotspots profile --scaling`
//! harness.

use crate::json::{self, Json};

/// One thread count's measurement on the scaling curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Worker thread count (`threads = 1` is the serial pipeline).
    pub threads: u64,
    /// Probe throughput at this thread count.
    pub probes_per_sec: f64,
    /// Throughput relative to the curve's serial point.
    pub speedup: f64,
    /// Wall seconds per engine phase (`target_gen`, `routing`,
    /// `lookup`, `observe`, `merge`), in engine phase order. Empty
    /// when the writer recorded no phase times.
    pub phase_breakdown: Vec<(String, f64)>,
}

/// Population memory accounting for a benchmark run — how many hosts
/// the workload held and what that cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryStats {
    /// Vulnerable host count.
    pub hosts: u64,
    /// Heap bytes held by the population store and its indices.
    pub store_bytes: u64,
    /// What the same population would cost with a `Locus` record per
    /// host (the ratio `check_scale.sh` bounds is `store_bytes /
    /// dense_store_bytes`).
    pub dense_store_bytes: u64,
    /// Process peak resident set (`VmHWM`) up to the end of the run,
    /// when the platform exposes it.
    pub resident_bytes: Option<u64>,
}

/// The whole benchmark file: workload identity, a seed baseline for
/// historical comparison, and the scaling curve.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSummary {
    /// Workload name, e.g. `"slammer_5k_hosts_300s"`.
    pub benchmark: String,
    /// Probes emitted by one run of the workload.
    pub probes: u64,
    /// Serial throughput (the `threads = 1` point, duplicated at top
    /// level as the headline number).
    pub serial_probes_per_sec: f64,
    /// Throughput of the pre-optimization seed implementation, carried
    /// forward from file to file so the headline speedup stays
    /// comparable across PRs. `None` when no baseline was ever taken.
    pub seed_probes_per_sec: Option<f64>,
    /// Population memory accounting, when the harness measured it.
    pub memory: Option<MemoryStats>,
    /// The scaling curve, ascending thread counts.
    pub scaling: Vec<ScalingPoint>,
}

impl BenchSummary {
    /// Builds a summary from measured points, deriving speedups from
    /// the serial (threads = 1, else first) point.
    pub fn from_points(
        benchmark: impl Into<String>,
        probes: u64,
        seed_probes_per_sec: Option<f64>,
        mut points: Vec<ScalingPoint>,
    ) -> BenchSummary {
        points.sort_by_key(|p| p.threads);
        let serial = points
            .iter()
            .find(|p| p.threads == 1)
            .or_else(|| points.first())
            .map_or(0.0, |p| p.probes_per_sec);
        for point in &mut points {
            point.speedup = if serial > 0.0 {
                point.probes_per_sec / serial
            } else {
                0.0
            };
        }
        BenchSummary {
            benchmark: benchmark.into(),
            probes,
            serial_probes_per_sec: serial,
            seed_probes_per_sec,
            memory: None,
            scaling: points,
        }
    }

    /// Attaches population memory accounting.
    pub fn with_memory(mut self, memory: MemoryStats) -> BenchSummary {
        self.memory = Some(memory);
        self
    }

    /// Serial speedup over the seed baseline, if one is recorded.
    pub fn serial_speedup_vs_seed(&self) -> Option<f64> {
        self.seed_probes_per_sec
            .filter(|&seed| seed > 0.0)
            .map(|seed| self.serial_probes_per_sec / seed)
    }

    /// The file as JSON with a fixed key order (one line per scaling
    /// point, diff-friendly).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 160 * self.scaling.len());
        out.push_str("{\"benchmark\":");
        json::write_str(&mut out, &self.benchmark);
        out.push_str(",\"probes\":");
        out.push_str(&self.probes.to_string());
        out.push_str(",\"serial_probes_per_sec\":");
        json::write_f64(&mut out, self.serial_probes_per_sec);
        if let Some(seed) = self.seed_probes_per_sec {
            out.push_str(",\"seed_probes_per_sec\":");
            json::write_f64(&mut out, seed);
            if let Some(speedup) = self.serial_speedup_vs_seed() {
                out.push_str(",\"serial_speedup_vs_seed\":");
                json::write_f64(&mut out, (speedup * 1000.0).round() / 1000.0);
            }
        }
        if let Some(mem) = &self.memory {
            out.push_str(",\"memory\":{\"hosts\":");
            out.push_str(&mem.hosts.to_string());
            out.push_str(",\"store_bytes\":");
            out.push_str(&mem.store_bytes.to_string());
            out.push_str(",\"dense_store_bytes\":");
            out.push_str(&mem.dense_store_bytes.to_string());
            if let Some(rss) = mem.resident_bytes {
                out.push_str(",\"resident_bytes\":");
                out.push_str(&rss.to_string());
            }
            out.push('}');
        }
        out.push_str(",\"scaling\":[");
        for (i, point) in self.scaling.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"threads\":");
            out.push_str(&point.threads.to_string());
            out.push_str(",\"probes_per_sec\":");
            json::write_f64(&mut out, point.probes_per_sec);
            out.push_str(",\"speedup\":");
            json::write_f64(&mut out, (point.speedup * 1000.0).round() / 1000.0);
            out.push_str(",\"phase_breakdown\":{");
            for (j, (name, secs)) in point.phase_breakdown.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::write_str(&mut out, name);
                out.push(':');
                json::write_f64(&mut out, (secs * 1e6).round() / 1e6);
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parses a file written by [`BenchSummary::to_json`]. Also
    /// tolerates the pre-scaling schema (a bare
    /// `serial_probes_per_sec` with no `scaling` array) so the seed
    /// baseline can be carried forward across the migration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(text: &str) -> Result<BenchSummary, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        let benchmark = root
            .get("benchmark")
            .and_then(Json::as_str)
            .ok_or("missing benchmark")?
            .to_owned();
        let probes = root
            .get("probes")
            .and_then(Json::as_u64)
            .ok_or("missing probes")?;
        let serial = root
            .get("serial_probes_per_sec")
            .and_then(Json::as_f64)
            .ok_or("missing serial_probes_per_sec")?;
        let seed = root.get("seed_probes_per_sec").and_then(Json::as_f64);
        let memory = match root.get("memory") {
            Some(mem) => Some(MemoryStats {
                hosts: mem
                    .get("hosts")
                    .and_then(Json::as_u64)
                    .ok_or("memory missing hosts")?,
                store_bytes: mem
                    .get("store_bytes")
                    .and_then(Json::as_u64)
                    .ok_or("memory missing store_bytes")?,
                dense_store_bytes: mem
                    .get("dense_store_bytes")
                    .and_then(Json::as_u64)
                    .ok_or("memory missing dense_store_bytes")?,
                resident_bytes: mem.get("resident_bytes").and_then(Json::as_u64),
            }),
            None => None,
        };
        let mut scaling = Vec::new();
        if let Some(Json::Arr(points)) = root.get("scaling") {
            for point in points {
                let threads = point
                    .get("threads")
                    .and_then(Json::as_u64)
                    .ok_or("scaling point missing threads")?;
                let probes_per_sec = point
                    .get("probes_per_sec")
                    .and_then(Json::as_f64)
                    .ok_or("scaling point missing probes_per_sec")?;
                let speedup = point.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
                let mut phase_breakdown = Vec::new();
                if let Some(phases) = point.get("phase_breakdown").and_then(Json::as_obj) {
                    for (name, secs) in phases {
                        phase_breakdown
                            .push((name.clone(), secs.as_f64().ok_or("bad phase seconds")?));
                    }
                }
                scaling.push(ScalingPoint {
                    threads,
                    probes_per_sec,
                    speedup,
                    phase_breakdown,
                });
            }
        }
        Ok(BenchSummary {
            benchmark,
            probes,
            serial_probes_per_sec: serial,
            seed_probes_per_sec: seed,
            memory,
            scaling,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchSummary {
        BenchSummary::from_points(
            "slammer_5k_hosts_300s",
            15_682_000,
            Some(72_045_308.0),
            vec![
                ScalingPoint {
                    threads: 2,
                    probes_per_sec: 1.1e8,
                    speedup: 0.0,
                    phase_breakdown: vec![
                        ("target_gen".to_owned(), 0.08),
                        ("merge".to_owned(), 0.02),
                    ],
                },
                ScalingPoint {
                    threads: 1,
                    probes_per_sec: 1.3e8,
                    speedup: 0.0,
                    phase_breakdown: vec![("target_gen".to_owned(), 0.1)],
                },
            ],
        )
    }

    #[test]
    fn points_sort_and_derive_speedups() {
        let summary = sample();
        assert_eq!(summary.scaling[0].threads, 1);
        assert_eq!(summary.scaling[0].speedup, 1.0);
        assert_eq!(summary.serial_probes_per_sec, 1.3e8);
        assert!((summary.scaling[1].speedup - 1.1 / 1.3).abs() < 1e-9);
        let vs_seed = summary.serial_speedup_vs_seed().unwrap();
        assert!((vs_seed - 1.3e8 / 72_045_308.0).abs() < 1e-9);
    }

    #[test]
    fn json_round_trips() {
        let summary = sample();
        let text = summary.to_json();
        let back = BenchSummary::from_json(&text).unwrap();
        assert_eq!(back.benchmark, summary.benchmark);
        assert_eq!(back.probes, summary.probes);
        assert_eq!(back.scaling.len(), 2);
        assert_eq!(back.scaling[1].phase_breakdown.len(), 2);
        assert_eq!(back.scaling[1].phase_breakdown[1].0, "merge");
    }

    #[test]
    fn reads_pre_scaling_schema_for_baseline_carry_forward() {
        let legacy = r#"{"benchmark": "slammer_5k_hosts_300s", "probes": 15682000,
            "serial_probes_per_sec": 129762756, "seed_probes_per_sec": 72045308,
            "serial_speedup_vs_seed": 1.801, "parallel_threads": 2,
            "parallel_probes_per_sec": 108969090, "parallel_speedup": 0.840}"#;
        let parsed = BenchSummary::from_json(legacy).unwrap();
        assert_eq!(parsed.seed_probes_per_sec, Some(72_045_308.0));
        assert!(parsed.scaling.is_empty());
    }

    #[test]
    fn memory_stats_round_trip() {
        let summary = sample().with_memory(MemoryStats {
            hosts: 1_050_000,
            store_bytes: 1_100_000,
            dense_store_bytes: 45_000_000,
            resident_bytes: Some(80_000_000),
        });
        let text = summary.to_json();
        let back = BenchSummary::from_json(&text).unwrap();
        let mem = back.memory.unwrap();
        assert_eq!(mem.hosts, 1_050_000);
        assert_eq!(mem.store_bytes, 1_100_000);
        assert_eq!(mem.dense_store_bytes, 45_000_000);
        assert_eq!(mem.resident_bytes, Some(80_000_000));
        // files without the memory block still parse
        assert!(sample().memory.is_none());
        assert!(BenchSummary::from_json(&sample().to_json())
            .unwrap()
            .memory
            .is_none());
    }

    #[test]
    fn key_order_is_stable() {
        let text = sample().to_json();
        let benchmark = text.find("\"benchmark\"").unwrap();
        let probes = text.find("\"probes\"").unwrap();
        let serial = text.find("\"serial_probes_per_sec\"").unwrap();
        let scaling = text.find("\"scaling\"").unwrap();
        assert!(benchmark < probes && probes < serial && serial < scaling);
    }
}
