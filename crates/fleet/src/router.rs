//! The global fleet router: a pure, single-threaded admission pass over
//! the fleet-wide arrival stream in virtual time.
//!
//! For every arrival the router models each device's health — a backlog
//! of estimated finish times drained as the clock advances, mapped onto
//! the brownout ladder's depth thresholds — and admits the request to
//! the cheapest *admissible* device by estimated completion plus an
//! energy-weighted cost, restricted to deadline-feasible devices for
//! interactive traffic whenever any exists. Requests no device admits
//! are fleet-rejected per class.
//!
//! Determinism contract: routing consults only modeled state (estimated
//! costs, modeled depths) — never the chaos plan and never execution
//! outcomes — so the decision sequence is a pure function of
//! `(config, device estimates, arrival stream)` and is byte-identical
//! across fleet worker counts and under recovered unit crashes. The
//! modeled per-device admission composes with each device's own
//! brownout ladder, which still runs downstream on the real backlog.

use crate::FleetConfig;
use hadas_serve::{BrownoutConfig, Request, SloClass};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What the gray-failure detector lets the router send to one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneState {
    /// Normal competition for every arrival.
    Open,
    /// Excluded from normal competition; receives only a bounded bulk
    /// probe trickle so recovery evidence keeps flowing
    /// (`Probation`/`Recovering` devices).
    ProbeOnly,
    /// No dispatches at all (`Quarantined` devices).
    Closed,
}

/// The router's modeled per-request cost of one device: the mode-0
/// (most accurate) service estimate at nominal difficulty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceEstimate {
    /// Estimated per-request service time (seconds).
    pub service_s: f64,
    /// Estimated per-request energy (joules).
    pub energy_j: f64,
}

/// Serialized routing accounting of one fleet run: the router-decision
/// histogram (assignments per device) and per-class admission counters.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RouterSummary {
    /// The energy weight the decisions were scored under.
    pub energy_weight: f64,
    /// Requests assigned per device (the decision histogram; index =
    /// device index).
    pub assigned: Vec<usize>,
    /// Interactive requests routed to a device.
    pub interactive_routed: usize,
    /// Bulk requests routed to a device.
    pub bulk_routed: usize,
    /// Interactive requests no device admitted (fleet-rejected).
    pub interactive_rejected: usize,
    /// Bulk requests no device admitted (fleet-rejected).
    pub bulk_rejected: usize,
    /// Interactive requests routed even though no admissible device
    /// could model a deadline-feasible finish (best-effort placements).
    pub slo_infeasible_routed: usize,
    /// Bulk requests placed on probe-only lanes (the recovery trickle
    /// that keeps evidence flowing to `Probation`/`Recovering` devices).
    pub probe_assignments: usize,
}

impl RouterSummary {
    /// Total requests routed to some device.
    pub fn routed(&self) -> usize {
        self.interactive_routed + self.bulk_routed
    }

    /// Total requests no device admitted.
    pub fn rejected(&self) -> usize {
        self.interactive_rejected + self.bulk_rejected
    }
}

/// Modeled per-device admission state: the backlog of estimated finish
/// times, drained as virtual time advances.
struct ModeledDevice {
    backlog: VecDeque<f64>,
    free_s: f64,
}

/// A persistent fleet router: the modeled per-device backlogs survive
/// across [`Router::route_slice`] calls, so the fleet can route one
/// epoch at a time under *refreshed* device estimates while the modeled
/// state stays continuous — routing the stream in slices under fixed
/// estimates is exactly routing it in one pass.
pub(crate) struct Router {
    energy_weight: f64,
    ladder: BrownoutConfig,
    probe_quota: usize,
    modeled: Vec<ModeledDevice>,
    summary: RouterSummary,
}

impl Router {
    /// A fresh router over `n` idle modeled devices.
    pub(crate) fn new(config: &FleetConfig, n: usize) -> Self {
        Router {
            energy_weight: config.energy_weight,
            ladder: BrownoutConfig::default(),
            probe_quota: config.detection.probe_quota,
            modeled: (0..n)
                .map(|_| ModeledDevice { backlog: VecDeque::new(), free_s: 0.0 })
                .collect(),
            summary: RouterSummary {
                energy_weight: config.energy_weight,
                assigned: vec![0; n],
                ..RouterSummary::default()
            },
        }
    }

    /// Routes one contiguous slice of the arrival stream (sorted by
    /// time, later than every slice routed before) under the current
    /// estimates and per-device lane states, returning the per-device
    /// substreams of this slice. `Closed` lanes receive nothing;
    /// `ProbeOnly` lanes sit out the normal competition but bulk
    /// arrivals are steered onto them first, up to `probe_quota` per
    /// lane per slice, so suspect devices keep producing recovery
    /// evidence. See the module docs for the admission and scoring
    /// rules.
    pub(crate) fn route_slice(
        &mut self,
        estimates: &[DeviceEstimate],
        lanes: &[LaneState],
        requests: &[Request],
    ) -> Vec<Vec<Request>> {
        let n = self.modeled.len();
        debug_assert_eq!(estimates.len(), n);
        debug_assert_eq!(lanes.len(), n);
        let mut substreams: Vec<Vec<Request>> = (0..n).map(|_| Vec::new()).collect();
        let mut probe_used = vec![0usize; n];
        for &r in requests {
            let now = r.time_s;
            for m in &mut self.modeled {
                while m.backlog.front().is_some_and(|&f| f <= now) {
                    m.backlog.pop_front();
                }
            }
            // Probe trickle: bulk arrivals are preferred onto admissible
            // probe-only lanes with quota remaining, bypassing the open
            // competition — the only way Probation/Recovering devices
            // see traffic at all.
            if r.class == SloClass::Bulk {
                let mut best_probe: Option<(usize, f64, f64)> = None;
                for (d, (m, est)) in self.modeled.iter().zip(estimates).enumerate() {
                    if lanes[d] != LaneState::ProbeOnly || probe_used[d] >= self.probe_quota {
                        continue;
                    }
                    let depth = m.backlog.len();
                    if depth >= self.ladder.reject_depth || depth >= self.ladder.shed_bulk_depth {
                        continue;
                    }
                    let finish = m.free_s.max(now) + est.service_s;
                    let score = (finish - now) + self.energy_weight * est.energy_j;
                    if best_probe.as_ref().is_none_or(|&(_, s, _)| score < s) {
                        best_probe = Some((d, score, finish));
                    }
                }
                if let Some((d, _, finish)) = best_probe {
                    probe_used[d] += 1;
                    self.summary.probe_assignments += 1;
                    self.summary.bulk_routed += 1;
                    self.summary.assigned[d] += 1;
                    self.modeled[d].backlog.push_back(finish);
                    self.modeled[d].free_s = finish;
                    substreams[d].push(r);
                    continue;
                }
            }
            // Admissible = the lane is open and the modeled brownout
            // tier of the device's depth admits this class.
            let mut best: Option<(usize, f64, f64)> = None; // (device, score, finish)
            let mut best_feasible: Option<(usize, f64, f64)> = None;
            for (d, (m, est)) in self.modeled.iter().zip(estimates).enumerate() {
                if lanes[d] != LaneState::Open {
                    continue;
                }
                let depth = m.backlog.len();
                if depth >= self.ladder.reject_depth {
                    continue;
                }
                if r.class == SloClass::Bulk && depth >= self.ladder.shed_bulk_depth {
                    continue;
                }
                let finish = m.free_s.max(now) + est.service_s;
                let score = (finish - now) + self.energy_weight * est.energy_j;
                if best.as_ref().is_none_or(|&(_, s, _)| score < s) {
                    best = Some((d, score, finish));
                }
                if finish <= r.deadline_s + 1e-12
                    && best_feasible.as_ref().is_none_or(|&(_, s, _)| score < s)
                {
                    best_feasible = Some((d, score, finish));
                }
            }
            let choice = if r.class == SloClass::Interactive {
                match best_feasible {
                    Some(c) => Some(c),
                    None => {
                        if best.is_some() {
                            self.summary.slo_infeasible_routed += 1;
                        }
                        best
                    }
                }
            } else {
                best
            };
            match choice {
                Some((d, _, finish)) => {
                    match r.class {
                        SloClass::Interactive => self.summary.interactive_routed += 1,
                        SloClass::Bulk => self.summary.bulk_routed += 1,
                    }
                    self.summary.assigned[d] += 1;
                    self.modeled[d].backlog.push_back(finish);
                    self.modeled[d].free_s = finish;
                    substreams[d].push(r);
                }
                None => match r.class {
                    SloClass::Interactive => self.summary.interactive_rejected += 1,
                    SloClass::Bulk => self.summary.bulk_rejected += 1,
                },
            }
        }
        substreams
    }

    /// Takes back requests previously routed to `device` (a quarantine
    /// drain): the decision histogram and per-class routed counters are
    /// decremented so the drained requests can re-enter routing without
    /// double counting, and the device's modeled backlog is reset — a
    /// quarantined device starts its probation from a clean model.
    pub(crate) fn unassign(&mut self, device: usize, requests: &[Request]) {
        self.summary.assigned[device] =
            self.summary.assigned[device].saturating_sub(requests.len());
        for r in requests {
            match r.class {
                SloClass::Interactive => {
                    self.summary.interactive_routed =
                        self.summary.interactive_routed.saturating_sub(1);
                }
                SloClass::Bulk => {
                    self.summary.bulk_routed = self.summary.bulk_routed.saturating_sub(1);
                }
            }
        }
        self.modeled[device].backlog.clear();
        self.modeled[device].free_s = 0.0;
    }

    /// The accumulated routing accounting.
    #[cfg(test)]
    pub(crate) fn summary(&self) -> &RouterSummary {
        &self.summary
    }

    /// Closes the router, yielding the accumulated accounting.
    pub(crate) fn into_summary(self) -> RouterSummary {
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadas_hw::HwTarget;

    fn req(id: usize, t: f64, class: SloClass, deadline: f64) -> Request {
        Request { id, time_s: t, difficulty: 0.5, class, deadline_s: deadline }
    }

    fn cfg(n: usize) -> FleetConfig {
        FleetConfig {
            devices: vec![HwTarget::Tx2PascalGpu; n],
            energy_weight: 0.0,
            ..FleetConfig::default()
        }
    }

    /// The outcome of routing one arrival stream: per-device substreams
    /// (in arrival order, original ids and times preserved) plus the
    /// accounting.
    struct RoutingOutcome {
        /// `substreams[d]` = the requests admitted to device `d`.
        substreams: Vec<Vec<Request>>,
        /// The serialized routing accounting.
        summary: RouterSummary,
    }

    /// Routes a whole arrival stream over open lanes in one pass under
    /// fixed estimates: the one-pass reference the slice tests compare
    /// against.
    fn route(
        config: &FleetConfig,
        estimates: &[DeviceEstimate],
        requests: Vec<Request>,
    ) -> RoutingOutcome {
        let mut router = Router::new(config, estimates.len());
        let lanes = vec![LaneState::Open; estimates.len()];
        let substreams = router.route_slice(estimates, &lanes, &requests);
        RoutingOutcome { substreams, summary: router.into_summary() }
    }

    #[test]
    fn routing_is_deterministic_and_conserves_requests() {
        let est = vec![
            DeviceEstimate { service_s: 0.01, energy_j: 0.1 },
            DeviceEstimate { service_s: 0.02, energy_j: 0.05 },
        ];
        let reqs: Vec<Request> = (0..200)
            .map(|i| {
                let class = if i % 3 == 0 { SloClass::Bulk } else { SloClass::Interactive };
                req(i, i as f64 * 0.004, class, i as f64 * 0.004 + 0.12)
            })
            .collect();
        let a = route(&cfg(2), &est, reqs.clone());
        let b = route(&cfg(2), &est, reqs.clone());
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.substreams, b.substreams);
        assert_eq!(a.summary.routed() + a.summary.rejected(), reqs.len());
        let assigned: usize = a.summary.assigned.iter().sum();
        assert_eq!(assigned, a.summary.routed());
        for s in &a.substreams {
            assert!(s.windows(2).all(|w| w[0].time_s <= w[1].time_s), "arrival order preserved");
        }
    }

    #[test]
    fn slice_routing_matches_one_pass_routing() {
        let est = vec![
            DeviceEstimate { service_s: 0.01, energy_j: 0.1 },
            DeviceEstimate { service_s: 0.02, energy_j: 0.05 },
        ];
        let reqs: Vec<Request> = (0..300)
            .map(|i| {
                let class = if i % 3 == 0 { SloClass::Bulk } else { SloClass::Interactive };
                req(i, i as f64 * 0.003, class, i as f64 * 0.003 + 0.1)
            })
            .collect();
        let whole = route(&cfg(2), &est, reqs.clone());
        let mut router = Router::new(&cfg(2), 2);
        let open = vec![LaneState::Open; 2];
        let mut merged = router.route_slice(&est, &open, &reqs[..100]);
        assert_eq!(router.summary().routed() + router.summary().rejected(), 100);
        for (acc, later) in merged.iter_mut().zip(router.route_slice(&est, &open, &reqs[100..])) {
            acc.extend(later);
        }
        assert_eq!(merged, whole.substreams, "modeled backlogs persist across slices");
        assert_eq!(router.into_summary(), whole.summary);
    }

    #[test]
    fn faster_device_wins_when_idle_and_ties_break_by_index() {
        let est = vec![
            DeviceEstimate { service_s: 0.05, energy_j: 0.0 },
            DeviceEstimate { service_s: 0.01, energy_j: 0.0 },
        ];
        let out = route(&cfg(2), &est, vec![req(0, 0.0, SloClass::Interactive, 1.0)]);
        assert_eq!(out.summary.assigned, vec![0, 1], "the faster device wins");
        let tied = vec![
            DeviceEstimate { service_s: 0.01, energy_j: 0.0 },
            DeviceEstimate { service_s: 0.01, energy_j: 0.0 },
        ];
        let out = route(&cfg(2), &tied, vec![req(0, 0.0, SloClass::Interactive, 1.0)]);
        assert_eq!(out.summary.assigned, vec![1, 0], "ties break toward the lowest index");
    }

    #[test]
    fn energy_weight_steers_away_from_hot_devices() {
        let est = vec![
            DeviceEstimate { service_s: 0.010, energy_j: 5.0 },
            DeviceEstimate { service_s: 0.011, energy_j: 0.1 },
        ];
        let latency_only = route(&cfg(2), &est, vec![req(0, 0.0, SloClass::Interactive, 1.0)]);
        assert_eq!(latency_only.summary.assigned, vec![1, 0]);
        let mut c = cfg(2);
        c.energy_weight = 0.01;
        let weighted = route(&c, &est, vec![req(0, 0.0, SloClass::Interactive, 1.0)]);
        assert_eq!(weighted.summary.assigned, vec![0, 1], "joules now outweigh the millisecond");
    }

    #[test]
    fn saturated_devices_shed_bulk_then_reject_everything() {
        let est = vec![DeviceEstimate { service_s: 10.0, energy_j: 0.0 }];
        let ladder = BrownoutConfig::default();
        // Everything arrives at t=0 against a 10 s service estimate, so
        // the modeled backlog only grows.
        let reqs: Vec<Request> = (0..3 * ladder.reject_depth)
            .map(|i| {
                let class = if i % 2 == 0 { SloClass::Bulk } else { SloClass::Interactive };
                req(i, 0.0, class, 0.2)
            })
            .collect();
        let out = route(&cfg(1), &est, reqs);
        assert!(out.summary.bulk_rejected > 0, "bulk is turned away at the shed tier");
        assert!(out.summary.interactive_rejected > 0, "reject tier turns everything away");
        assert_eq!(out.summary.assigned[0], ladder.reject_depth, "depth caps at the reject rung");
        assert!(
            out.summary.slo_infeasible_routed > 0,
            "deep interactive placements are best-effort"
        );
    }

    #[test]
    fn closed_lanes_receive_nothing_and_probe_lanes_only_bulk_under_quota() {
        let est = vec![
            DeviceEstimate { service_s: 0.01, energy_j: 0.0 },
            DeviceEstimate { service_s: 0.01, energy_j: 0.0 },
            DeviceEstimate { service_s: 0.01, energy_j: 0.0 },
        ];
        let reqs: Vec<Request> = (0..60)
            .map(|i| {
                let class = if i % 2 == 0 { SloClass::Bulk } else { SloClass::Interactive };
                req(i, i as f64 * 0.05, class, i as f64 * 0.05 + 1.0)
            })
            .collect();
        let mut router = Router::new(&cfg(3), 3);
        let lanes = vec![LaneState::Open, LaneState::ProbeOnly, LaneState::Closed];
        let subs = router.route_slice(&est, &lanes, &reqs);
        let quota = cfg(3).detection.probe_quota;
        assert!(subs[2].is_empty(), "closed lanes receive nothing");
        assert_eq!(subs[1].len(), quota, "probe lanes cap at the per-slice quota");
        assert!(
            subs[1].iter().all(|r| r.class == SloClass::Bulk),
            "probe traffic is bulk-only; interactive never risks a suspect device"
        );
        let summary = router.summary();
        assert_eq!(summary.probe_assignments, quota);
        assert_eq!(summary.routed() + summary.rejected(), reqs.len());
        assert_eq!(summary.assigned.iter().sum::<usize>(), summary.routed());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Builds a time-ordered stream from (gap, bulk?) pairs.
        fn stream(specs: &[(f64, bool)]) -> Vec<Request> {
            let mut t = 0.0;
            specs
                .iter()
                .enumerate()
                .map(|(id, &(gap, bulk))| {
                    t += gap;
                    let class = if bulk { SloClass::Bulk } else { SloClass::Interactive };
                    req(id, t, class, t + if bulk { 1.2 } else { 0.12 })
                })
                .collect()
        }

        fn lanes_strategy(n: usize) -> impl Strategy<Value = Vec<LaneState>> {
            proptest::collection::vec(
                prop_oneof![
                    Just(LaneState::Open),
                    Just(LaneState::ProbeOnly),
                    Just(LaneState::Closed)
                ],
                n..=n,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Quarantined lanes never see traffic and probe lanes only
            /// the bounded bulk trickle — for ANY arrival stream and ANY
            /// per-slice lane assignment, across slice boundaries, with
            /// conservation intact throughout.
            #[test]
            fn closed_gets_nothing_probe_gets_only_bounded_bulk(
                specs in proptest::collection::vec((0.0f64..0.05, any::<bool>()), 1..80),
                lanes_a in lanes_strategy(3),
                lanes_b in lanes_strategy(3),
                cut in 0usize..80,
            ) {
                let est = vec![
                    DeviceEstimate { service_s: 0.01, energy_j: 0.1 },
                    DeviceEstimate { service_s: 0.02, energy_j: 0.05 },
                    DeviceEstimate { service_s: 0.015, energy_j: 0.2 },
                ];
                let reqs = stream(&specs);
                let cut = cut.min(reqs.len());
                let config = cfg(3);
                let quota = config.detection.probe_quota;
                let mut router = Router::new(&config, 3);
                let early = router.route_slice(&est, &lanes_a, &reqs[..cut]);
                let late = router.route_slice(&est, &lanes_b, &reqs[cut..]);
                for (lanes, subs) in [(&lanes_a, &early), (&lanes_b, &late)] {
                    for (d, slice) in subs.iter().enumerate() {
                        match lanes[d] {
                            LaneState::Closed => prop_assert!(
                                slice.is_empty(),
                                "closed lane {d} received {} request(s)",
                                slice.len()
                            ),
                            LaneState::ProbeOnly => {
                                prop_assert!(
                                    slice.len() <= quota,
                                    "probe lane {d} exceeded its quota: {}",
                                    slice.len()
                                );
                                prop_assert!(
                                    slice.iter().all(|r| r.class == SloClass::Bulk),
                                    "probe lane {d} received interactive traffic"
                                );
                            }
                            LaneState::Open => {}
                        }
                    }
                }
                let s = router.into_summary();
                prop_assert!(s.routed() + s.rejected() == reqs.len(), "conservation");
                prop_assert_eq!(s.assigned.iter().sum::<usize>(), s.routed());
            }
        }
    }

    #[test]
    fn unassign_reverses_the_accounting_and_clears_the_model() {
        let est = vec![
            DeviceEstimate { service_s: 0.01, energy_j: 0.0 },
            DeviceEstimate { service_s: 0.02, energy_j: 0.0 },
        ];
        let reqs: Vec<Request> = (0..40)
            .map(|i| {
                let class = if i % 3 == 0 { SloClass::Bulk } else { SloClass::Interactive };
                req(i, i as f64 * 0.002, class, i as f64 * 0.002 + 0.5)
            })
            .collect();
        let mut router = Router::new(&cfg(2), 2);
        let open = vec![LaneState::Open; 2];
        let subs = router.route_slice(&est, &open, &reqs);
        let drained = subs[0].clone();
        let before = router.summary().clone();
        router.unassign(0, &drained);
        let after = router.summary().clone();
        assert_eq!(after.assigned[0], 0, "the drained device's histogram is zeroed");
        assert_eq!(after.assigned[1], before.assigned[1], "other devices untouched");
        assert_eq!(after.routed(), before.routed() - drained.len());
        // Re-routing the drained requests with the device closed keeps
        // the fleet-wide conservation identity intact.
        let lanes = vec![LaneState::Closed, LaneState::Open];
        let re = router.route_slice(&est, &lanes, &drained);
        assert!(re[0].is_empty());
        let s = router.summary();
        assert_eq!(s.assigned.iter().sum::<usize>(), s.routed());
    }
}
