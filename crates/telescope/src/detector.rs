//! Threshold sensors and quorum detection (the Figure 5 machinery).

use hotspots_ipspace::{Ip, Prefix};
use hotspots_stats::TimeSeries;

use crate::index::BlockIndex;

/// How a darknet sensor interacts with arriving connections.
///
/// The IMS sensors behind the paper's data were *active*: they answered
/// TCP SYNs with SYN-ACKs to elicit the first data payload, which is what
/// made TCP threats identifiable. A *passive* sensor records packets but
/// never sees a TCP payload — it can only identify threats whose first
/// packet already carries the payload (UDP worms like Slammer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorMode {
    /// SYN-ACK responder: payloads of both TCP and UDP threats are
    /// captured and identifiable.
    Active,
    /// Pure packet capture: only first-packet (UDP) payloads are
    /// identifiable.
    Passive,
}

/// A global alerting policy over a field of sensors: alert when at least
/// `quorum` fraction of sensors have individually alerted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuorumPolicy {
    /// Required alerted fraction in `(0.0, 1.0]`.
    pub quorum: f64,
}

impl QuorumPolicy {
    /// Creates a policy. Returns `None` unless `0 < quorum <= 1`.
    pub fn new(quorum: f64) -> Option<QuorumPolicy> {
        (quorum > 0.0 && quorum <= 1.0).then_some(QuorumPolicy { quorum })
    }
}

/// A field of threshold detectors: many small sensor blocks (typically
/// /24s), each of which raises a local alert after observing
/// `threshold` worm payloads — the model used by the paper's Figure 5
/// detection experiments ("each sensor was set to generate an alert after
/// observing 5 threat payloads", no false positives).
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::Ip;
/// use hotspots_telescope::DetectorField;
///
/// let mut field = DetectorField::new(
///     vec!["203.0.113.0/24".parse().unwrap()],
///     2,
/// );
/// field.observe(1.0, Ip::from_octets(203, 0, 113, 5));
/// assert_eq!(field.alerted(), 0);
/// field.observe(2.0, Ip::from_octets(203, 0, 113, 6));
/// assert_eq!(field.alerted(), 1);
/// assert_eq!(field.alert_time(0), Some(2.0));
/// ```
#[derive(Debug, Clone)]
pub struct DetectorField {
    blocks: Vec<Prefix>,
    index: BlockIndex,
    threshold: u64,
    mode: SensorMode,
    counts: Vec<u64>,
    alert_times: Vec<Option<f64>>,
    alerted: usize,
}

impl DetectorField {
    /// Creates a field of sensors with the given per-sensor alert
    /// threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0` or blocks overlap.
    pub fn new(blocks: Vec<Prefix>, threshold: u64) -> DetectorField {
        DetectorField::with_mode(blocks, threshold, SensorMode::Active)
    }

    /// Creates a field with an explicit [`SensorMode`] (passive fields
    /// cannot identify TCP threat payloads; see
    /// [`DetectorField::observe_packet`]).
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0` or blocks overlap.
    pub fn with_mode(blocks: Vec<Prefix>, threshold: u64, mode: SensorMode) -> DetectorField {
        assert!(threshold > 0, "alert threshold must be positive");
        let index = BlockIndex::new(blocks.clone());
        let n = blocks.len();
        DetectorField {
            blocks,
            index,
            threshold,
            mode,
            counts: vec![0; n],
            alert_times: vec![None; n],
            alerted: 0,
        }
    }

    /// The field's sensor mode.
    pub fn mode(&self) -> SensorMode {
        self.mode
    }

    /// The sensor blocks.
    pub fn blocks(&self) -> &[Prefix] {
        &self.blocks
    }

    /// The per-sensor alert threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Number of sensors.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if the field has no sensors.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Offers one delivered worm payload to the field (the payload is
    /// assumed identifiable — use [`DetectorField::observe_packet`] when
    /// payload visibility depends on the transport). Returns the sensor
    /// index if a sensor saw it.
    #[inline]
    pub fn observe(&mut self, time: f64, dst: Ip) -> Option<usize> {
        self.observe_packet(time, dst, true)
    }

    /// Offers one delivered probe whose payload is visible in the capture
    /// iff `first_packet_payload` (true for UDP worms; false for a bare
    /// TCP SYN). Passive sensors only count identifiable payloads toward
    /// their threshold; active sensors elicit the payload themselves and
    /// count everything.
    #[inline]
    pub fn observe_packet(
        &mut self,
        time: f64,
        dst: Ip,
        first_packet_payload: bool,
    ) -> Option<usize> {
        let idx = self.index.find(dst)?;
        if first_packet_payload || self.mode == SensorMode::Active {
            self.counts[idx] += 1;
            if self.counts[idx] == self.threshold {
                self.alert_times[idx] = Some(time);
                self.alerted += 1;
            }
        }
        Some(idx)
    }

    /// Number of sensors that have alerted.
    pub fn alerted(&self) -> usize {
        self.alerted
    }

    /// Fraction of sensors that have alerted.
    pub fn fraction_alerted(&self) -> f64 {
        if self.blocks.is_empty() {
            0.0
        } else {
            self.alerted as f64 / self.blocks.len() as f64
        }
    }

    /// When sensor `idx` alerted, if it has.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn alert_time(&self, idx: usize) -> Option<f64> {
        self.alert_times[idx]
    }

    /// Payload count at sensor `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn count(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Whether the global quorum policy has fired.
    pub fn quorum_reached(&self, policy: QuorumPolicy) -> bool {
        self.fraction_alerted() >= policy.quorum
    }

    /// Builds the Figure 5(b)/(c)-style "% of sensors alerting vs time"
    /// curve from the recorded alert times. The series is defined on the
    /// sorted alert times; its value after the last alert is the final
    /// alerted fraction.
    pub fn alert_curve(&self, name: impl Into<String>) -> TimeSeries {
        let mut times: Vec<f64> = self.alert_times.iter().flatten().copied().collect();
        times.sort_by(f64::total_cmp);
        let mut ts = TimeSeries::new(name);
        let n = self.blocks.len() as f64;
        for (i, t) in times.iter().enumerate() {
            ts.push(*t, (i + 1) as f64 / n);
        }
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = DetectorField::new(vec![p("10.0.0.0/24")], 0);
    }

    #[test]
    fn alert_fires_exactly_at_threshold() {
        let mut f = DetectorField::new(vec![p("10.0.0.0/24")], 5);
        for i in 0..4u8 {
            f.observe(f64::from(i), Ip::from_octets(10, 0, 0, i));
            assert_eq!(f.alerted(), 0);
        }
        f.observe(10.0, Ip::from_octets(10, 0, 0, 99));
        assert_eq!(f.alerted(), 1);
        assert_eq!(f.alert_time(0), Some(10.0));
        // further payloads don't re-alert
        f.observe(11.0, Ip::from_octets(10, 0, 0, 100));
        assert_eq!(f.alerted(), 1);
        assert_eq!(f.count(0), 6);
    }

    #[test]
    fn misses_do_not_count() {
        let mut f = DetectorField::new(vec![p("10.0.0.0/24")], 1);
        assert_eq!(f.observe(0.0, Ip::from_octets(11, 0, 0, 1)), None);
        assert_eq!(f.alerted(), 0);
    }

    #[test]
    fn fraction_and_quorum() {
        let mut f = DetectorField::new(vec![p("10.0.0.0/24"), p("10.0.1.0/24")], 1);
        let policy = QuorumPolicy::new(0.75).unwrap();
        assert!(!f.quorum_reached(policy));
        f.observe(1.0, Ip::from_octets(10, 0, 0, 1));
        assert_eq!(f.fraction_alerted(), 0.5);
        assert!(!f.quorum_reached(policy));
        f.observe(2.0, Ip::from_octets(10, 0, 1, 1));
        assert_eq!(f.fraction_alerted(), 1.0);
        assert!(f.quorum_reached(policy));
    }

    #[test]
    fn quorum_policy_validation() {
        assert!(QuorumPolicy::new(0.0).is_none());
        assert!(QuorumPolicy::new(1.1).is_none());
        assert!(QuorumPolicy::new(1.0).is_some());
    }

    #[test]
    fn alert_curve_is_monotone_step() {
        let mut f = DetectorField::new(
            vec![
                p("10.0.0.0/24"),
                p("10.0.1.0/24"),
                p("10.0.2.0/24"),
                p("10.0.3.0/24"),
            ],
            1,
        );
        f.observe(5.0, Ip::from_octets(10, 0, 1, 1));
        f.observe(2.0, Ip::from_octets(10, 0, 0, 1));
        f.observe(9.0, Ip::from_octets(10, 0, 3, 1));
        let curve = f.alert_curve("alerts");
        let pts: Vec<(f64, f64)> = curve.iter().collect();
        assert_eq!(pts, vec![(2.0, 0.25), (5.0, 0.5), (9.0, 0.75)]);
        assert_eq!(curve.time_to_reach(0.5), Some(5.0));
        assert_eq!(curve.time_to_reach(0.9), None);
    }

    #[test]
    fn passive_sensors_miss_tcp_payloads() {
        // A passive field never identifies a TCP worm (SYN only, no
        // payload), but identifies UDP worms normally.
        let mut passive = DetectorField::with_mode(vec![p("10.0.0.0/24")], 2, SensorMode::Passive);
        for i in 0..10u8 {
            // TCP worm: first packet carries no payload
            passive.observe_packet(f64::from(i), Ip::from_octets(10, 0, 0, i), false);
        }
        assert_eq!(
            passive.alerted(),
            0,
            "passive field identified TCP payloads"
        );
        assert_eq!(passive.count(0), 0);
        // UDP worm: payload in the first packet
        passive.observe_packet(20.0, Ip::from_octets(10, 0, 0, 99), true);
        passive.observe_packet(21.0, Ip::from_octets(10, 0, 0, 98), true);
        assert_eq!(passive.alerted(), 1);
    }

    #[test]
    fn active_sensors_elicit_tcp_payloads() {
        // The IMS design decision: answering SYNs makes TCP worms
        // identifiable.
        let mut active = DetectorField::with_mode(vec![p("10.0.0.0/24")], 2, SensorMode::Active);
        active.observe_packet(1.0, Ip::from_octets(10, 0, 0, 1), false);
        active.observe_packet(2.0, Ip::from_octets(10, 0, 0, 2), false);
        assert_eq!(active.alerted(), 1);
        assert_eq!(active.mode(), SensorMode::Active);
    }

    #[test]
    fn default_field_is_active() {
        let f = DetectorField::new(vec![p("10.0.0.0/24")], 1);
        assert_eq!(f.mode(), SensorMode::Active);
    }

    #[test]
    fn empty_field_reports_zero_fraction() {
        let f = DetectorField::new(vec![], 3);
        assert!(f.is_empty());
        assert_eq!(f.fraction_alerted(), 0.0);
    }
}
