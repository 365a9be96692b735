//! Labelled darknet blocks with unique-source recording.

use std::collections::{BTreeMap, BTreeSet};

use hotspots_ipspace::{ims_deployment, AddressBlock, Bucket24, Ip};
use hotspots_stats::CountHistogram;

use crate::index::BlockIndex;

/// What one darknet block has seen: packet counts, unique sources, and
/// unique sources per destination /24 — the aggregation behind the
/// paper's measurement figures.
#[derive(Debug, Clone, Default)]
pub struct SensorLog {
    packets: u64,
    sources: BTreeSet<Ip>,
    sources_by_bucket: BTreeMap<Bucket24, BTreeSet<Ip>>,
    first_packet_time: Option<f64>,
}

impl SensorLog {
    /// Total packets observed.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Number of distinct source addresses observed.
    pub fn unique_source_count(&self) -> usize {
        self.sources.len()
    }

    /// Returns `true` if `src` has been observed at this sensor.
    pub fn saw_source(&self, src: Ip) -> bool {
        self.sources.contains(&src)
    }

    /// Simulation time of the first packet, if any.
    pub fn first_packet_time(&self) -> Option<f64> {
        self.first_packet_time
    }

    /// The figure-style histogram: unique source count per destination
    /// /24 within the block. Only /24s that saw traffic appear; use
    /// [`Observatory::sources_by_bucket24_over`] for zero-filled output.
    pub fn sources_by_bucket24(&self) -> CountHistogram<Bucket24> {
        let mut h = CountHistogram::new();
        for (bucket, sources) in &self.sources_by_bucket {
            h.record_n(*bucket, sources.len() as u64);
        }
        h
    }

    fn record(&mut self, time: f64, src: Ip, dst: Ip) {
        self.packets += 1;
        self.first_packet_time.get_or_insert(time);
        self.sources.insert(src);
        self.sources_by_bucket
            .entry(dst.bucket24())
            .or_default()
            .insert(src);
    }
}

/// A deployment of labelled darknet blocks (an IMS-style telescope).
///
/// Every probe the simulator delivers to unused space is offered to the
/// observatory; probes landing inside a block are logged.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::{AddressBlock, Ip};
/// use hotspots_telescope::Observatory;
///
/// let mut obs = Observatory::new(vec![AddressBlock::new(
///     "X",
///     "203.0.113.0/24".parse().unwrap(),
/// )]);
/// obs.observe(1.5, Ip::from_octets(5, 5, 5, 5), Ip::from_octets(203, 0, 113, 77));
/// let log = obs.log_by_label("X").unwrap();
/// assert_eq!(log.unique_source_count(), 1);
/// assert_eq!(log.first_packet_time(), Some(1.5));
/// ```
#[derive(Debug)]
pub struct Observatory {
    blocks: Vec<AddressBlock>,
    index: BlockIndex,
    logs: Vec<SensorLog>,
}

impl Observatory {
    /// Creates an observatory over the given (disjoint) blocks.
    ///
    /// # Panics
    ///
    /// Panics if blocks overlap.
    pub fn new(blocks: Vec<AddressBlock>) -> Observatory {
        let index = BlockIndex::new(blocks.iter().map(|b| b.prefix()).collect());
        let logs = blocks.iter().map(|_| SensorLog::default()).collect();
        Observatory {
            blocks,
            index,
            logs,
        }
    }

    /// The synthetic eleven-block IMS deployment
    /// ([`hotspots_ipspace::ims_deployment`]).
    pub fn ims() -> Observatory {
        Observatory::new(ims_deployment())
    }

    /// The deployed blocks.
    pub fn blocks(&self) -> &[AddressBlock] {
        &self.blocks
    }

    /// Offers a probe to the telescope. Returns the index of the block
    /// that recorded it, or `None` if the destination is not monitored.
    #[inline]
    pub fn observe(&mut self, time: f64, src: Ip, dst: Ip) -> Option<usize> {
        let idx = self.index.find(dst)?;
        self.logs[idx].record(time, src, dst);
        Some(idx)
    }

    /// The log of block `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn log(&self, idx: usize) -> &SensorLog {
        &self.logs[idx]
    }

    /// The log of the block with the given label, if present.
    pub fn log_by_label(&self, label: &str) -> Option<&SensorLog> {
        let idx = self.blocks.iter().position(|b| b.label() == label)?;
        Some(&self.logs[idx])
    }

    /// Iterates `(block, log)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&AddressBlock, &SensorLog)> {
        self.blocks.iter().zip(self.logs.iter())
    }

    /// The cross-deployment figure histogram: unique sources per
    /// destination /24, zero-filled over every /24 the deployment
    /// monitors. This is exactly the x-axis/y-axis of Figures 1, 2 and 4.
    pub fn sources_by_bucket24_over(&self) -> Vec<(Bucket24, u64)> {
        let mut out = Vec::new();
        for (block, log) in self.iter() {
            let hist = log.sources_by_bucket24();
            for sub in block.prefix().subnets(24.max(block.prefix().len())) {
                let bucket = Bucket24::of(sub.base());
                out.push((bucket, hist.count(&bucket)));
            }
        }
        out.sort_by_key(|(b, _)| *b);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(label: &str, prefix: &str) -> AddressBlock {
        AddressBlock::new(label, prefix.parse().unwrap())
    }

    #[test]
    fn observe_routes_to_correct_block() {
        let mut obs = Observatory::new(vec![block("A", "10.0.0.0/24"), block("B", "10.0.1.0/24")]);
        assert_eq!(
            obs.observe(
                0.0,
                Ip::from_octets(1, 1, 1, 1),
                Ip::from_octets(10, 0, 1, 7)
            ),
            Some(1)
        );
        assert_eq!(obs.log(0).packets(), 0);
        assert_eq!(obs.log(1).packets(), 1);
    }

    #[test]
    fn unique_sources_deduplicate() {
        let mut obs = Observatory::new(vec![block("A", "10.0.0.0/24")]);
        let src = Ip::from_octets(9, 9, 9, 9);
        for d in 0..10u8 {
            obs.observe(f64::from(d), src, Ip::from_octets(10, 0, 0, d));
        }
        assert_eq!(obs.log(0).packets(), 10);
        assert_eq!(obs.log(0).unique_source_count(), 1);
        assert!(obs.log(0).saw_source(src));
        assert_eq!(obs.log(0).first_packet_time(), Some(0.0));
    }

    #[test]
    fn per_bucket_counts_are_unique_sources_not_packets() {
        let mut obs = Observatory::new(vec![block("A", "10.0.0.0/23")]);
        let s1 = Ip::from_octets(1, 0, 0, 1);
        let s2 = Ip::from_octets(2, 0, 0, 2);
        // s1 hits the first /24 five times, s2 once; second /24 sees s2
        for i in 0..5u8 {
            obs.observe(0.0, s1, Ip::from_octets(10, 0, 0, i));
        }
        obs.observe(0.0, s2, Ip::from_octets(10, 0, 0, 200));
        obs.observe(0.0, s2, Ip::from_octets(10, 0, 1, 3));
        let hist = obs.log(0).sources_by_bucket24();
        assert_eq!(hist.count(&Bucket24::of(Ip::from_octets(10, 0, 0, 0))), 2);
        assert_eq!(hist.count(&Bucket24::of(Ip::from_octets(10, 0, 1, 0))), 1);
    }

    #[test]
    fn zero_filled_figure_output_covers_whole_deployment() {
        let mut obs = Observatory::new(vec![block("A", "10.0.0.0/22")]);
        obs.observe(
            0.0,
            Ip::from_octets(1, 1, 1, 1),
            Ip::from_octets(10, 0, 2, 2),
        );
        let rows = obs.sources_by_bucket24_over();
        assert_eq!(rows.len(), 4); // a /22 is four /24s
        let nonzero: Vec<_> = rows.iter().filter(|(_, c)| *c > 0).collect();
        assert_eq!(nonzero.len(), 1);
        assert_eq!(nonzero[0].0.to_string(), "10.0.2.0/24");
    }

    #[test]
    fn ims_observatory_has_eleven_blocks() {
        let obs = Observatory::ims();
        assert_eq!(obs.blocks().len(), 11);
        assert!(obs.log_by_label("Z").is_some());
        assert!(obs.log_by_label("Q").is_none());
    }

    #[test]
    fn labels_resolve_to_logs() {
        let mut obs = Observatory::new(vec![block("M", "192.40.16.0/22")]);
        obs.observe(
            3.0,
            Ip::from_octets(4, 4, 4, 4),
            Ip::from_octets(192, 40, 17, 3),
        );
        assert_eq!(obs.log_by_label("M").unwrap().unique_source_count(), 1);
    }
}
