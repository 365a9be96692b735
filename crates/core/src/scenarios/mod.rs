//! Case-study scenario builders: one per table/figure of the paper.
//!
//! Each scenario is a configurable, deterministic pipeline shared by the
//! scenario registry (`hotspots run <preset>`), the runnable examples,
//! and the integration tests — the presets run them at paper scale, the
//! tests at reduced scale.
//!
//! | Paper artifact | Builder |
//! |---|---|
//! | Fig 1 (Blaster by /24) | [`blaster::sources_by_block`] |
//! | Fig 2 (Slammer by /24) | [`slammer::sources_by_block`] |
//! | Fig 3a/3b (per-host Slammer) | [`slammer::host_histogram`] |
//! | Fig 3c (LCG cycle periods) | [`slammer::cycle_bands`] |
//! | Fig 4a (CodeRedII by /24) | [`codered::sources_by_block`] |
//! | Fig 4b/4c (quarantine runs) | [`codered::quarantine_run`] |
//! | Fig 5a/5b (hit-list outbreak & detection) | [`detection::hitlist_run`] |
//! | Fig 5c (NAT outbreak & placement) | [`detection::nat_run`] |
//! | Table 1 (bot commands) | `hotspots_botnet::corpus` |
//! | Table 2 (enterprise vs broadband) | [`filtering::table2`] |

pub mod blaster;
pub mod codered;
pub mod detection;
pub mod filtering;
pub mod slammer;

use hotspots_ipspace::Prefix;

/// One output row of a measurement-style figure: a monitored sub-prefix
/// (usually a /24, or a /16 for the Z/8 block) and the number of unique
/// worm sources it observed, tagged with its sensor block label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageRow {
    /// The sensor block label (`"A"`, `"H"`, …).
    pub block: String,
    /// The aggregation prefix within the block.
    pub prefix: Prefix,
    /// Unique worm sources observed at this prefix.
    pub unique_sources: u64,
}

/// Aggregates coverage rows into per-block totals, preserving block
/// order of first appearance.
pub fn totals_by_block(rows: &[CoverageRow]) -> Vec<(String, u64)> {
    let mut order: Vec<String> = Vec::new();
    let mut totals: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    for row in rows {
        if !totals.contains_key(row.block.as_str()) {
            order.push(row.block.clone());
        }
        *totals.entry(row.block.as_str()).or_insert(0) += row.unique_sources;
    }
    order
        .into_iter()
        .map(|label| {
            let total = totals[label.as_str()];
            (label, total)
        })
        .collect()
}

/// The per-/24 (or per-/16 for /8-sized blocks) aggregation prefixes of a
/// sensor deployment, with block labels — the x-axis of the measurement
/// figures. Blocks of /8 size are reported at /16 granularity to keep
/// figure outputs tractable.
pub fn figure_buckets(blocks: &[hotspots_ipspace::AddressBlock]) -> Vec<(String, Prefix)> {
    let mut out = Vec::new();
    for block in blocks {
        let granularity = if block.prefix().len() <= 12 { 16 } else { 24 };
        let sub_len = granularity.max(block.prefix().len());
        for sub in block.prefix().subnets(sub_len) {
            out.push((block.label().to_owned(), sub));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspots_ipspace::ims_deployment;

    #[test]
    fn figure_buckets_cover_deployment() {
        let buckets = figure_buckets(&ims_deployment());
        // Z/8 contributes 256 /16 rows; the others contribute /24 rows
        let z_rows = buckets.iter().filter(|(l, _)| l == "Z").count();
        assert_eq!(z_rows, 256);
        let h_rows = buckets.iter().filter(|(l, _)| l == "H").count();
        assert_eq!(h_rows, 64); // a /18 is 64 /24s
        let g_rows = buckets.iter().filter(|(l, _)| l == "G").count();
        assert_eq!(g_rows, 1); // a /25 keeps its own granularity
    }

    #[test]
    fn totals_by_block_sums_and_orders() {
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        let rows = vec![
            CoverageRow {
                block: "B".into(),
                prefix: p,
                unique_sources: 2,
            },
            CoverageRow {
                block: "A".into(),
                prefix: p,
                unique_sources: 3,
            },
            CoverageRow {
                block: "B".into(),
                prefix: p,
                unique_sources: 5,
            },
        ];
        let totals = totals_by_block(&rows);
        assert_eq!(totals, vec![("B".to_owned(), 7), ("A".to_owned(), 3)]);
    }
}
