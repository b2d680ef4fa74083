//! The global fleet router: a pure, single-threaded admission pass over
//! the fleet-wide arrival stream in virtual time.
//!
//! For every arrival the router models each device's health — a backlog
//! of estimated finish times, mapped onto the brownout ladder's depth
//! thresholds — and admits the request to the cheapest *admissible*
//! device by estimated completion plus an energy-weighted cost,
//! restricted to deadline-feasible devices for interactive traffic
//! whenever any exists. Requests no device admits are fleet-rejected
//! per class.
//!
//! Depth gates: a device's modeled depth at time `now` is the number of
//! its backlog entries finishing after `now`. A device's finish times
//! never decrease (`finish = max(free, now) + service_s ≥ free`), so
//! "depth ≥ k" is "the k-th newest live finish lies after `now`". Each
//! device therefore keeps only its last `reject_depth` finish times in a
//! ring, and two gates, the `shed_bulk_depth`-th and `reject_depth`-th
//! newest live finish, refreshed on every push. An arrival reads one
//! gate per device instead of draining every backlog: a class is
//! admissible on a device once `now` has reached that class's gate.
//!
//! Horizon: within a slice time only advances, so comparing a gate with
//! `now` drains implicitly. A slice can start before the previous
//! slice's last arrival (quarantine carryover re-enters older arrivals),
//! and its arrivals must not count finishes that last arrival already
//! drained. So the last arrival of every slice retires every entry it
//! finishes past, and retired entries never count again. It does so
//! before it pushes its own finish, as the per-arrival drain did, which
//! keeps even a zero-service finish equal to its time live.
//!
//! Scoring: each arrival makes one branch-free pass over contiguous
//! per-device arrays, computing `max(free, now) + service_s` and
//! `(finish − now) + energy_weight · energy_j` for every device, masking
//! inadmissible devices (and, for interactive traffic, devices that
//! would miss the deadline) to +∞ and taking the argmin, lowest index
//! on ties. An interactive arrival no device can serve in time takes a
//! second pass without the deadline mask. An admissible device scoring
//! +∞ or NaN, which the mask cannot tell from a barred one, sends the
//! arrival to a scalar scan in which the first admissible device stands
//! until a strictly lower score beats it. Routing records a device per
//! request, then scatters the slice into exact-capacity substreams.
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

/// The modeled finish and score of placing an arrival at `now` on a
/// device that is free from `free_s`: `(finish, score)`.
#[inline(always)]
fn price(free_s: f64, now: f64, service_s: f64, cost: f64) -> (f64, f64) {
    let finish = free_s.max(now) + service_s;
    (finish, (finish - now) + cost)
}

/// The lowest-index device with the lowest score among those whose
/// gate `now` has reached and whose finish is no later than `by`, and
/// whether some admissible device scored +∞ or NaN, which the +∞ mask
/// cannot tell from an inadmissible one.
#[inline(always)]
fn masked_argmin(
    free: &[f64],
    service: &[f64],
    cost: &[f64],
    gate: &[f64],
    now: f64,
    by: f64,
    keys: &mut [f64],
) -> (Option<usize>, bool) {
    let n = free.len();
    let (service, cost, gate, keys) = (&service[..n], &cost[..n], &gate[..n], &mut keys[..n]);
    let mut irregular = false;
    for d in 0..n {
        let (finish, score) = price(free[d], now, service[d], cost[d]);
        let admissible = gate[d] <= now;
        irregular |= admissible & (score.is_nan() | (score == f64::INFINITY));
        keys[d] = if admissible & (finish <= by) { score } else { f64::INFINITY };
    }
    // Four running minima break the compare chain; the first key equal
    // to the least of them is the lowest index on ties.
    let mut lanes = [f64::INFINITY; 4];
    let chunks = keys.chunks_exact(4);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (m, &key) in lanes.iter_mut().zip(chunk) {
            *m = if key < *m { key } else { *m };
        }
    }
    for (m, &key) in lanes.iter_mut().zip(tail) {
        *m = if key < *m { key } else { *m };
    }
    let least = lanes.into_iter().fold(f64::INFINITY, |a, b| if b < a { b } else { a });
    let choice = if least < f64::INFINITY { keys.iter().position(|&k| k == least) } else { None };
    (choice, irregular)
}

/// The scan [`masked_argmin`] stands for when scores are finite: the
/// first admissible device stands until a strictly lower score beats
/// it, so it wins even with a +∞ or NaN score. Returns the choice among
/// all admissible devices and among those finishing no later than `by`.
fn first_admissible_argmin(
    free: &[f64],
    service: &[f64],
    cost: &[f64],
    gate: &[f64],
    now: f64,
    by: f64,
) -> (Option<usize>, Option<usize>) {
    let mut best: Option<(usize, f64)> = None;
    let mut feasible = best;
    for d in (0..free.len()).filter(|&d| gate[d] <= now) {
        let (finish, score) = price(free[d], now, service[d], cost[d]);
        if best.is_none_or(|(_, s)| score < s) {
            best = Some((d, score));
        }
        if finish <= by && feasible.is_none_or(|(_, s)| score < s) {
            feasible = Some((d, score));
        }
    }
    (best.map(|b| b.0), feasible.map(|f| f.0))
}

/// A persistent fleet router: the modeled per-device backlogs survive
/// across [`Router::route_slice`] calls, so the fleet can route one
/// epoch at a time under *refreshed* device estimates while the modeled
/// state stays continuous — routing the stream in slices under fixed
/// estimates is exactly routing it in one pass.
pub(crate) struct Router {
    energy_weight: f64,
    probe_quota: usize,
    /// Depth at which a device turns bulk away:
    /// `min(shed_bulk_depth, reject_depth)`.
    bulk_depth: usize,
    /// Depth at which a device turns everything away; also the ring
    /// length per device.
    reject_depth: usize,
    /// Per device: the modeled time it is free from (its newest finish).
    free_s: Vec<f64>,
    /// Per device: its last `reject_depth` modeled finish times, push
    /// `i` at [`Router::slot`]`(d, i)`.
    ring: Vec<f64>,
    /// Per device: finish times pushed since its last reset.
    pushed: Vec<usize>,
    /// Per device: pushes below this index are retired (drained).
    head: Vec<usize>,
    /// Per device: −∞ while its lane is `Open`, else +∞; folded into
    /// both gates so closed and probe-only lanes never compete.
    barred: Vec<f64>,
    /// Per device: the time from which it admits bulk again.
    bulk_gate: Vec<f64>,
    /// Per device: the time from which it admits interactive again.
    interactive_gate: Vec<f64>,
    summary: RouterSummary,
}

impl Router {
    /// A fresh router over `n` idle modeled devices.
    pub(crate) fn new(config: &FleetConfig, n: usize) -> Self {
        let ladder = BrownoutConfig::default();
        debug_assert!(ladder.validate().is_ok(), "the router's ladder must be valid");
        Router {
            energy_weight: config.energy_weight,
            probe_quota: config.detection.probe_quota,
            bulk_depth: ladder.shed_bulk_depth.min(ladder.reject_depth),
            reject_depth: ladder.reject_depth,
            free_s: vec![0.0; n],
            ring: vec![0.0; n * ladder.reject_depth],
            pushed: vec![0; n],
            head: vec![0; n],
            barred: vec![f64::NEG_INFINITY; n],
            bulk_gate: vec![f64::NEG_INFINITY; n],
            interactive_gate: vec![f64::NEG_INFINITY; n],
            summary: RouterSummary {
                energy_weight: config.energy_weight,
                assigned: vec![0; n],
                ..RouterSummary::default()
            },
        }
    }

    /// Routes one slice of the arrival stream, sorted by time, under the
    /// current estimates and per-device lane states, returning the
    /// per-device substreams of this slice. A slice may start before
    /// the previous slice's last arrival (re-dispatched carryover); the
    /// modeled backlogs then stand as that last arrival left them.
    /// `Closed` lanes receive nothing; `ProbeOnly` lanes sit out the
    /// normal competition but bulk arrivals are steered onto them first,
    /// up to `probe_quota` per lane per slice, so suspect devices keep
    /// producing recovery evidence. Service estimates must be
    /// non-negative (not NaN), which keeps every backlog non-decreasing.
    /// See the module docs for the admission gates and scoring rules.
    pub(crate) fn route_slice(
        &mut self,
        estimates: &[DeviceEstimate],
        lanes: &[LaneState],
        requests: &[Request],
    ) -> Vec<Vec<Request>> {
        let n = self.free_s.len();
        debug_assert_eq!(estimates.len(), n);
        debug_assert_eq!(lanes.len(), n);
        debug_assert!(
            estimates.iter().all(|e| e.service_s >= 0.0),
            "service estimates must be non-negative"
        );
        let service: Vec<f64> = estimates.iter().map(|e| e.service_s).collect();
        let cost: Vec<f64> = estimates.iter().map(|e| self.energy_weight * e.energy_j).collect();
        for (d, &lane) in lanes.iter().enumerate() {
            self.barred[d] =
                if lane == LaneState::Open { f64::NEG_INFINITY } else { f64::INFINITY };
            self.refresh(d);
        }
        let probing = lanes.contains(&LaneState::ProbeOnly);
        let mut probe_used = vec![0usize; n];
        let mut dest: Vec<usize> = Vec::with_capacity(requests.len());
        let mut keys = vec![0.0; n];
        for (j, r) in requests.iter().enumerate() {
            let now = r.time_s;
            if j + 1 == requests.len() {
                self.retire(now);
            }
            let bulk = r.class == SloClass::Bulk;
            // Probe trickle: bulk arrivals are preferred onto admissible
            // probe-only lanes with quota remaining, bypassing the open
            // competition — the only way Probation/Recovering devices
            // see traffic at all.
            if bulk && probing {
                let mut best_probe: Option<(usize, f64, f64)> = None;
                for d in 0..n {
                    if lanes[d] != LaneState::ProbeOnly || probe_used[d] >= self.probe_quota {
                        continue;
                    }
                    if self.nth_newest(d, self.bulk_depth) > now {
                        continue;
                    }
                    let (finish, score) = price(self.free_s[d], now, service[d], cost[d]);
                    if best_probe.as_ref().is_none_or(|&(_, s, _)| score < s) {
                        best_probe = Some((d, score, finish));
                    }
                }
                if let Some((d, _, finish)) = best_probe {
                    probe_used[d] += 1;
                    self.summary.probe_assignments += 1;
                    self.summary.bulk_routed += 1;
                    self.summary.assigned[d] += 1;
                    self.push(d, finish);
                    dest.push(d);
                    continue;
                }
            }
            // Admissible = the lane is open and the modeled brownout
            // tier of the device's depth admits this class.
            let gate = if bulk { &self.bulk_gate[..n] } else { &self.interactive_gate[..n] };
            let (free, service, cost) = (&self.free_s[..n], &service[..n], &cost[..n]);
            let by = if bulk { f64::INFINITY } else { r.deadline_s + 1e-12 };
            let (mut choice, irregular) =
                masked_argmin(free, service, cost, gate, now, by, &mut keys);
            let mut best_effort = false;
            if irregular {
                let (best, feasible) = first_admissible_argmin(free, service, cost, gate, now, by);
                choice = feasible.or(best);
                best_effort = feasible.is_none() && best.is_some();
            } else if choice.is_none() && !bulk {
                choice = masked_argmin(free, service, cost, gate, now, f64::INFINITY, &mut keys).0;
                best_effort = choice.is_some();
            }
            if best_effort {
                self.summary.slo_infeasible_routed += 1;
            }
            match (choice, bulk) {
                (Some(_), false) => self.summary.interactive_routed += 1,
                (Some(_), true) => self.summary.bulk_routed += 1,
                (None, false) => self.summary.interactive_rejected += 1,
                (None, true) => self.summary.bulk_rejected += 1,
            }
            if let Some(d) = choice {
                self.summary.assigned[d] += 1;
                let (finish, _) = price(self.free_s[d], now, service[d], cost[d]);
                self.push(d, finish);
            }
            dest.push(choice.unwrap_or(n));
        }
        // Scatter: `n` marks a rejected arrival.
        let mut counts = vec![0usize; n + 1];
        for &d in &dest {
            counts[d] += 1;
        }
        counts.pop();
        let mut substreams: Vec<Vec<Request>> =
            counts.into_iter().map(Vec::with_capacity).collect();
        for (r, &d) in requests.iter().zip(&dest) {
            if let Some(sub) = substreams.get_mut(d) {
                sub.push(*r);
            }
        }
        substreams
    }

    /// The `k`-th newest live finish time of device `d` (`1 ≤ k ≤
    /// reject_depth`), or −∞ when fewer than `k` entries are live: the
    /// device's depth is at least `k` exactly while this lies after
    /// `now`.
    fn nth_newest(&self, d: usize, k: usize) -> f64 {
        if self.pushed[d] - self.head[d] >= k {
            self.ring[self.slot(d, self.pushed[d] - k)]
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Where device `d`'s push `i` sits in the ring.
    fn slot(&self, d: usize, i: usize) -> usize {
        d * self.reject_depth + i % self.reject_depth
    }

    /// Recomputes device `d`'s two admission gates.
    fn refresh(&mut self, d: usize) {
        self.bulk_gate[d] = self.nth_newest(d, self.bulk_depth).max(self.barred[d]);
        self.interactive_gate[d] = self.nth_newest(d, self.reject_depth).max(self.barred[d]);
    }

    /// Appends `finish` to device `d`'s backlog.
    fn push(&mut self, d: usize, finish: f64) {
        self.free_s[d] = finish;
        let slot = self.slot(d, self.pushed[d]);
        self.ring[slot] = finish;
        self.pushed[d] += 1;
        self.refresh(d);
    }

    /// Retires, on every device, the backlog entries finishing at or
    /// before `horizon`: the drain an arrival at `horizon` performs.
    /// Backlogs are non-decreasing, so the retired entries are a prefix.
    /// The scan starts no earlier than the ring's oldest slot: with that
    /// many entries live the device is at the reject depth whatever the
    /// older entries hold, and they are no later than that slot.
    fn retire(&mut self, horizon: f64) {
        for d in 0..self.free_s.len() {
            let mut h = self.head[d].max(self.pushed[d].saturating_sub(self.reject_depth));
            while h < self.pushed[d] && self.ring[self.slot(d, h)] <= horizon {
                h += 1;
            }
            self.head[d] = h;
            self.refresh(d);
        }
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
        self.head[device] = self.pushed[device];
        self.free_s[device] = 0.0;
        self.refresh(device);
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

    /// The `VecDeque` router the depth gates replaced, kept verbatim as
    /// the reference the differential tests compare against: it drains
    /// every modeled backlog on every arrival.
    mod reference {
        use super::super::{DeviceEstimate, LaneState, RouterSummary};
        use crate::FleetConfig;
        use hadas_serve::{BrownoutConfig, Request, SloClass};
        use std::collections::VecDeque;

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
                            if lanes[d] != LaneState::ProbeOnly || probe_used[d] >= self.probe_quota
                            {
                                continue;
                            }
                            let depth = m.backlog.len();
                            if depth >= self.ladder.reject_depth
                                || depth >= self.ladder.shed_bulk_depth
                            {
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

        fn estimate_strategy() -> impl Strategy<Value = DeviceEstimate> {
            // Few distinct values, so scores tie and the index breaks them;
            // +∞ service and NaN energy exercise the non-finite rescan.
            const SERVICE: [f64; 7] = [0.0, 0.01, 0.01, 0.02, 0.02, 0.05, f64::INFINITY];
            const ENERGY: [f64; 6] = [0.0, 0.0, 0.05, 0.05, 1.0, f64::NAN];
            (0..SERVICE.len(), 0..ENERGY.len())
                .prop_map(|(s, e)| DeviceEstimate { service_s: SERVICE[s], energy_j: ENERGY[e] })
        }

        /// One slice of a differential run.
        #[derive(Debug, Clone)]
        struct SliceSpec {
            /// How far before the latest arrival routed so far this
            /// slice's fresh arrivals start (the carryover shape).
            back: f64,
            /// (gap, bulk?) pairs; zero gaps make simultaneous arrivals.
            arrivals: Vec<(f64, bool)>,
            lanes: Vec<LaneState>,
            estimates: Vec<DeviceEstimate>,
            /// After the slice: unassign this many of the device's
            /// requests and carry them into the next slice.
            drain: Option<(usize, usize)>,
        }

        const DEVICES: usize = 4;

        fn slice_strategy() -> impl Strategy<Value = SliceSpec> {
            let gap = prop_oneof![Just(0.0), 0.0f64..0.003];
            (
                prop_oneof![Just(0.0), 0.0f64..0.3],
                proptest::collection::vec((gap, any::<bool>()), 0..150),
                proptest::collection::vec(
                    (0usize..5).prop_map(|k| match k {
                        3 => LaneState::ProbeOnly,
                        4 => LaneState::Closed,
                        _ => LaneState::Open,
                    }),
                    DEVICES..=DEVICES,
                ),
                proptest::collection::vec(estimate_strategy(), DEVICES..=DEVICES),
                (any::<bool>(), 0..DEVICES, 0usize..20).prop_map(|(on, d, m)| on.then_some((d, m))),
            )
                .prop_map(|(back, arrivals, lanes, estimates, drain)| SliceSpec {
                    back,
                    arrivals,
                    lanes,
                    estimates,
                    drain,
                })
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The depth-gated router makes the reference router's
            /// decisions, bit for bit: same substreams every slice, same
            /// summary at the end — across slices that start before the
            /// previous one ended, lane changes, refreshed (and tied,
            /// and non-finite) estimates and quarantine drains.
            #[test]
            fn gated_routing_equals_the_draining_reference(
                slices in proptest::collection::vec(slice_strategy(), 1..6),
                energy_weight in prop_oneof![Just(0.0), Just(0.01)],
            ) {
                let mut config = cfg(DEVICES);
                config.energy_weight = energy_weight;
                let mut router = Router::new(&config, DEVICES);
                let mut oracle = reference::Router::new(&config, DEVICES);
                let (mut latest, mut id) = (0.0f64, 0usize);
                let mut carry: Vec<Request> = Vec::new();
                for spec in &slices {
                    let mut t = (latest - spec.back).max(0.0);
                    let mut slice: Vec<Request> = spec
                        .arrivals
                        .iter()
                        .map(|&(gap, bulk)| {
                            t += gap;
                            id += 1;
                            let class = if bulk { SloClass::Bulk } else { SloClass::Interactive };
                            req(id, t, class, t + if bulk { 1.2 } else { 0.12 })
                        })
                        .collect();
                    slice.append(&mut carry);
                    slice.sort_by(|a, b| a.time_s.total_cmp(&b.time_s).then(a.id.cmp(&b.id)));
                    let fast = router.route_slice(&spec.estimates, &spec.lanes, &slice);
                    let slow = oracle.route_slice(&spec.estimates, &spec.lanes, &slice);
                    prop_assert_eq!(&fast, &slow);
                    prop_assert_eq!(router.summary(), oracle.summary());
                    latest = slice.iter().fold(latest, |m, r| m.max(r.time_s));
                    if let Some((d, m)) = spec.drain {
                        carry = fast[d][..m.min(fast[d].len())].to_vec();
                        router.unassign(d, &carry);
                        oracle.unassign(d, &carry);
                    }
                }
                prop_assert_eq!(router.into_summary(), oracle.into_summary());
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

    #[test]
    fn a_slice_starting_before_the_last_one_ended_sees_the_drained_backlog() {
        // Twenty arrivals at t=0 stack finishes at 0.02, 0.04, ..., 0.40.
        // The slice's last arrival, at t=0.31, drains the fifteen due by
        // then and leaves six live. A carried-over bulk arrival at t=0.1
        // must see those six, not the sixteen that finish after 0.1,
        // which would cross the shed depth and turn it away.
        let est = vec![DeviceEstimate { service_s: 0.02, energy_j: 0.0 }];
        let open = vec![LaneState::Open];
        let mut first: Vec<Request> =
            (0..20).map(|i| req(i, 0.0, SloClass::Interactive, 10.0)).collect();
        first.push(req(20, 0.31, SloClass::Interactive, 10.0));
        let carried = vec![req(21, 0.1, SloClass::Bulk, 10.0)];
        let mut router = Router::new(&cfg(1), 1);
        let mut oracle = reference::Router::new(&cfg(1), 1);
        assert_eq!(
            router.route_slice(&est, &open, &first),
            oracle.route_slice(&est, &open, &first)
        );
        let late = router.route_slice(&est, &open, &carried);
        assert_eq!(late, oracle.route_slice(&est, &open, &carried));
        assert_eq!(late[0], carried, "the carried bulk arrival is admitted");
        assert_eq!(router.summary().bulk_rejected, 0);
        assert_eq!(router.into_summary(), oracle.into_summary());
    }

    #[test]
    fn non_finite_scores_never_turn_an_admissible_device_into_a_reject() {
        let open = vec![LaneState::Open; 2];
        let one = vec![req(0, 0.0, SloClass::Interactive, 1.0)];
        let cases = [
            // Every admissible score is +∞: the first admissible device
            // still takes the request.
            vec![
                DeviceEstimate { service_s: f64::INFINITY, energy_j: 0.0 },
                DeviceEstimate { service_s: f64::INFINITY, energy_j: 0.0 },
            ],
            // A NaN score on the first admissible device stands: no
            // score compares below it.
            vec![
                DeviceEstimate { service_s: 0.01, energy_j: f64::NAN },
                DeviceEstimate { service_s: 0.001, energy_j: 0.0 },
            ],
        ];
        for est in cases {
            let mut router = Router::new(&cfg(2), 2);
            let mut oracle = reference::Router::new(&cfg(2), 2);
            let subs = router.route_slice(&est, &open, &one);
            assert_eq!(subs, oracle.route_slice(&est, &open, &one));
            assert_eq!(subs[0], one, "the first admissible device wins");
            assert_eq!(router.into_summary(), oracle.into_summary());
        }
        // A finite score still beats a leading +∞ one.
        let est = vec![
            DeviceEstimate { service_s: f64::INFINITY, energy_j: 0.0 },
            DeviceEstimate { service_s: 0.01, energy_j: 0.0 },
        ];
        let out = route(&cfg(2), &est, one.clone());
        assert_eq!(out.summary.assigned, vec![0, 1]);
    }
}
