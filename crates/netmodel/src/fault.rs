//! Schedule-driven environmental fault injection.
//!
//! The paper's third environmental factor class — **failures and
//! misconfiguration** — is more than steady-state packet loss: telescope
//! blocks go dark for hours, upstream providers blackhole whole prefixes,
//! border ACLs flap in and out of effect, and congested links shed
//! traffic for a window and then recover. A [`FaultPlan`] models these as
//! a deterministic schedule of [`FaultEvent`]s, each active over a
//! half-open time window `[t0, t1)`, composed with any
//! [`Environment`](crate::Environment) via
//! [`Environment::set_faults`](crate::Environment::set_faults).
//!
//! Determinism contract: fault activity is a pure function of simulation
//! time, so two runs with the same plan see the same faults at the same
//! steps regardless of thread count. The only stochastic fault —
//! [`FaultKind::DegradedLoss`] — draws from the per-host probe RNG
//! exactly once per matching probe, in both the scalar and batch routing
//! paths, keeping batch size and sharding out of the outcome.
//!
//! Every fault drop is filed under its own
//! [`DropReason`](crate::DropReason) verdict class
//! (`sensor_outage`, `upstream_blackhole`, `filter_flap`,
//! `degraded_loss`), so run reports attribute every probe a fault
//! consumed and `delivered + dropped == probes` still holds by
//! construction.
//!
//! # Examples
//!
//! ```
//! use hotspots_netmodel::{FaultEvent, FaultKind, FaultPlan, FaultWindow};
//!
//! let mut plan = FaultPlan::new();
//! plan.push(FaultEvent::new(
//!     FaultKind::SensorOutage {
//!         block: "66.66.0.0/16".parse().unwrap(),
//!     },
//!     FaultWindow::new(100.0, 300.0),
//! ));
//! assert!(!plan.is_empty());
//! // Before the window the plan is inert; inside it the block is dark.
//! assert!(plan.view_at(50.0).is_inert());
//! assert!(!plan.view_at(100.0).is_inert());
//! assert!(plan.view_at(150.0).outage("66.66.1.2".parse().unwrap()));
//! assert!(plan.view_at(300.0).is_inert());
//! ```

use std::fmt;

use hotspots_ipspace::{Ip, Prefix};

use crate::service::Service;

/// A half-open activity window `[t0, t1)` in simulation seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Start of the window (inclusive).
    pub t0: f64,
    /// End of the window (exclusive).
    pub t1: f64,
}

impl FaultWindow {
    /// A window active for `t0 <= t < t1`.
    pub fn new(t0: f64, t1: f64) -> FaultWindow {
        FaultWindow { t0, t1 }
    }

    /// Whether `time` falls inside the window.
    #[inline]
    pub fn contains(&self, time: f64) -> bool {
        time >= self.t0 && time < self.t1
    }
}

impl fmt::Display for FaultWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.t0, self.t1)
    }
}

/// What kind of environmental failure an event injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A sensor/telescope block goes dark: probes *toward* `block` are
    /// consumed (the ledger files them as `sensor_outage`) but never
    /// delivered, so observers wired to public deliveries see nothing.
    SensorOutage {
        /// The darkened destination block.
        block: Prefix,
    },
    /// An upstream blackhole: all traffic from *or* to `prefix` is
    /// discarded at the provider, as when an org's announcement is
    /// withdrawn or a mitigation blackholes a /8.
    Blackhole {
        /// The blackholed prefix (matched against source and
        /// destination).
        prefix: Prefix,
    },
    /// A filter rule that flaps on a duty cycle while the window is
    /// active: for each `period` seconds starting at the window's `t0`,
    /// the rule is in effect for the first `duty` fraction of the period
    /// and dormant for the rest.
    FilterFlap {
        /// The flapping deny rule (its own `reason` is ignored; drops
        /// are filed as `filter_flap`).
        rule: crate::filtering::FilterRule,
        /// Toggle period in seconds (must be positive to ever match).
        period: f64,
        /// Fraction of each period the rule is in effect, in `(0, 1]`.
        duty: f64,
    },
    /// A degraded path: probes from *or* to `prefix` suffer an extra
    /// Bernoulli loss draw at `rate` on top of the environment's base
    /// loss model.
    DegradedLoss {
        /// The degraded prefix (matched against source and destination).
        prefix: Prefix,
        /// Extra per-probe loss probability in `[0, 1]`.
        rate: f64,
    },
}

/// One scheduled fault: a kind plus its activity window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// What fails.
    pub kind: FaultKind,
    /// When it fails.
    pub window: FaultWindow,
}

impl FaultEvent {
    /// An event of `kind` active over `window`.
    pub fn new(kind: FaultKind, window: FaultWindow) -> FaultEvent {
        FaultEvent { kind, window }
    }

    /// Whether this event is in effect at `time` — inside its window,
    /// and (for [`FaultKind::FilterFlap`]) in the on-phase of its duty
    /// cycle.
    #[inline]
    pub fn applies_at(&self, time: f64) -> bool {
        if !self.window.contains(time) {
            return false;
        }
        match self.kind {
            FaultKind::FilterFlap { period, duty, .. } => {
                // A non-positive period yields NaN here, which compares
                // false: a malformed flap never fires rather than
                // panicking mid-run.
                (time - self.window.t0) % period < duty * period
            }
            FaultKind::SensorOutage { .. }
            | FaultKind::Blackhole { .. }
            | FaultKind::DegradedLoss { .. } => true,
        }
    }
}

/// A deterministic schedule of environmental faults.
///
/// Events are evaluated in insertion order; the first matching fault
/// decides a probe's verdict (degraded-loss events are the exception —
/// they stack an extra loss draw rather than short-circuiting).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: no faults, zero routing overhead.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Appends an event to the schedule.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The scheduled events, in evaluation order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Resolves the plan at one instant. The routing layer calls this
    /// once per batch; when nothing is in effect the returned view is
    /// [inert](FaultView::is_inert) and costs one boolean test per
    /// probe.
    pub fn view_at(&self, time: f64) -> FaultView<'_> {
        FaultView {
            events: &self.events,
            time,
            any: self.events.iter().any(|e| e.applies_at(time)),
        }
    }
}

impl FromIterator<FaultEvent> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = FaultEvent>>(iter: I) -> FaultPlan {
        FaultPlan {
            events: iter.into_iter().collect(),
        }
    }
}

/// A [`FaultPlan`] resolved at one instant of simulation time.
#[derive(Debug, Clone, Copy)]
pub struct FaultView<'a> {
    events: &'a [FaultEvent],
    time: f64,
    any: bool,
}

impl FaultView<'_> {
    /// `true` when no event is in effect at this instant — the routing
    /// fast path.
    #[inline]
    pub fn is_inert(&self) -> bool {
        !self.any
    }

    /// Whether an active blackhole swallows a probe from `src` to `dst`.
    #[inline]
    pub fn blackholed(&self, src: Ip, dst: Ip) -> bool {
        self.any
            && self.events.iter().any(|e| match e.kind {
                FaultKind::Blackhole { prefix } => {
                    (prefix.contains(src) || prefix.contains(dst)) && e.applies_at(self.time)
                }
                _ => false,
            })
    }

    /// Whether an active sensor outage darkens destination `dst`.
    #[inline]
    pub fn outage(&self, dst: Ip) -> bool {
        self.any
            && self.events.iter().any(|e| match e.kind {
                FaultKind::SensorOutage { block } => block.contains(dst) && e.applies_at(self.time),
                _ => false,
            })
    }

    /// Whether a flapping filter rule, currently in its on-phase,
    /// matches the probe.
    #[inline]
    pub fn flapped(&self, src: Ip, dst: Ip, service: Service) -> bool {
        self.any
            && self.events.iter().any(|e| match e.kind {
                FaultKind::FilterFlap { rule, .. } => {
                    rule.matches(src, dst, service) && e.applies_at(self.time)
                }
                _ => false,
            })
    }

    /// The extra loss rate of the first active degraded-path fault
    /// matching the probe, if any.
    #[inline]
    pub fn degraded(&self, src: Ip, dst: Ip) -> Option<f64> {
        if !self.any {
            return None;
        }
        self.events.iter().find_map(|e| match e.kind {
            FaultKind::DegradedLoss { prefix, rate }
                if (prefix.contains(src) || prefix.contains(dst)) && e.applies_at(self.time) =>
            {
                Some(rate)
            }
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filtering::FilterRule;

    fn ip(s: &str) -> Ip {
        s.parse().unwrap()
    }

    fn prefix(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn window_is_half_open() {
        let w = FaultWindow::new(10.0, 20.0);
        assert!(!w.contains(9.999));
        assert!(w.contains(10.0));
        assert!(w.contains(19.999));
        assert!(!w.contains(20.0));
    }

    #[test]
    fn empty_plan_is_inert_at_all_times() {
        let plan = FaultPlan::new();
        for t in [0.0, 1.0, 1e6] {
            assert!(plan.view_at(t).is_inert());
        }
    }

    #[test]
    fn outage_matches_destination_block_only() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent::new(
            FaultKind::SensorOutage {
                block: prefix("66.66.0.0/16"),
            },
            FaultWindow::new(0.0, 100.0),
        ));
        let view = plan.view_at(50.0);
        assert!(view.outage(ip("66.66.3.4")));
        assert!(!view.outage(ip("67.0.0.1")));
        // outages key on destination: a source inside the block still
        // emits
        assert!(!view.blackholed(ip("66.66.3.4"), ip("8.8.8.8")));
        assert!(plan.view_at(100.0).is_inert());
    }

    #[test]
    fn blackhole_matches_either_endpoint() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent::new(
            FaultKind::Blackhole {
                prefix: prefix("12.0.0.0/8"),
            },
            FaultWindow::new(5.0, 10.0),
        ));
        let view = plan.view_at(7.0);
        assert!(view.blackholed(ip("12.1.2.3"), ip("8.8.8.8")));
        assert!(view.blackholed(ip("8.8.8.8"), ip("12.1.2.3")));
        assert!(!view.blackholed(ip("8.8.8.8"), ip("9.9.9.9")));
        assert!(!plan.view_at(4.0).blackholed(ip("12.1.2.3"), ip("8.8.8.8")));
    }

    #[test]
    fn flap_follows_duty_cycle() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent::new(
            FaultKind::FilterFlap {
                rule: FilterRule::ingress(prefix("10.0.0.0/8"), None),
                period: 10.0,
                duty: 0.5,
            },
            FaultWindow::new(100.0, 200.0),
        ));
        let src = ip("1.1.1.1");
        let dst = ip("10.2.3.4");
        let svc = Service::CODERED_HTTP;
        // on-phase: first half of each period
        assert!(plan.view_at(100.0).flapped(src, dst, svc));
        assert!(plan.view_at(104.9).flapped(src, dst, svc));
        // off-phase: second half
        assert!(!plan.view_at(105.0).flapped(src, dst, svc));
        assert!(!plan.view_at(109.9).flapped(src, dst, svc));
        // next period: on again
        assert!(plan.view_at(110.0).flapped(src, dst, svc));
        // outside the window: never
        assert!(!plan.view_at(99.0).flapped(src, dst, svc));
        assert!(!plan.view_at(200.0).flapped(src, dst, svc));
        // wrong destination: never
        assert!(!plan.view_at(100.0).flapped(src, ip("11.0.0.1"), svc));
    }

    #[test]
    fn malformed_flap_period_never_fires() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent::new(
            FaultKind::FilterFlap {
                rule: FilterRule::ingress(prefix("0.0.0.0/0"), None),
                period: 0.0,
                duty: 1.0,
            },
            FaultWindow::new(0.0, 100.0),
        ));
        assert!(!plan
            .view_at(50.0)
            .flapped(ip("1.1.1.1"), ip("2.2.2.2"), Service::BOT_SMB));
    }

    #[test]
    fn degraded_reports_first_matching_rate() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent::new(
            FaultKind::DegradedLoss {
                prefix: prefix("20.0.0.0/8"),
                rate: 0.25,
            },
            FaultWindow::new(0.0, 50.0),
        ));
        plan.push(FaultEvent::new(
            FaultKind::DegradedLoss {
                prefix: prefix("20.1.0.0/16"),
                rate: 0.75,
            },
            FaultWindow::new(0.0, 50.0),
        ));
        let view = plan.view_at(10.0);
        // first matching event wins
        assert_eq!(view.degraded(ip("20.1.2.3"), ip("8.8.8.8")), Some(0.25));
        assert_eq!(view.degraded(ip("8.8.8.8"), ip("20.9.9.9")), Some(0.25));
        assert_eq!(view.degraded(ip("8.8.8.8"), ip("9.9.9.9")), None);
        assert_eq!(
            plan.view_at(60.0).degraded(ip("20.1.2.3"), ip("8.8.8.8")),
            None
        );
    }

    #[test]
    fn plan_collects_from_iterator() {
        let plan: FaultPlan = [FaultEvent::new(
            FaultKind::Blackhole {
                prefix: prefix("1.0.0.0/8"),
            },
            FaultWindow::new(0.0, 1.0),
        )]
        .into_iter()
        .collect();
        assert_eq!(plan.events().len(), 1);
    }
}
