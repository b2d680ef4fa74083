//! The fleet engine: N heterogeneous device units in shared virtual
//! time, supervised through the core executor, under the global router.
//!
//! One run serves the fleet-wide arrival stream (drift scenario
//! included) in epochs. An [`EpochFeed`] generates each epoch's slice of
//! the stream one epoch ahead, on its own thread, while the current
//! epoch is served; the slices carry their epoch index and concatenate
//! to the whole stream, so where the generation runs never shows in a
//! report. Every epoch is two deterministic passes. First the
//! *scheduling pass*, single-threaded: route the epoch's stream slice to
//! the devices (or fleet-reject it) under each device's current
//! estimate. Then the *execution pass*: each device serves its slice as
//! one supervised executor job — spawned on a fleet worker lane,
//! monitored (crashes surface as lane deaths, retried with
//! seq-preserving re-dispatch of the unit's whole in-flight substream),
//! and reduced by a pure session segment (state in, state out; the
//! final epoch drains and finishes the session). Results fold in
//! device-index order, so the serialized [`FleetReport`] is
//! byte-identical across fleet worker counts and under injected unit
//! crashes that heal with zero dead letters.
//!
//! Between epochs a single-threaded barrier runs the online gray-failure
//! detector (see `crate::health`) and the reconfiguration controller
//! (see [`crate::ReconfigConfig`]), which slides per-device mode windows
//! along the Pareto staircase via zero-drop swaps: the device's session
//! state moves, queue included, into the next segment under the new
//! window, so a mid-swap unit crash heals exactly like any other unit
//! crash. A fleet with reconfiguration, gray injection and detection all
//! off has nothing to watch at a barrier: it runs as one epoch on each
//! device's pinned top-3 ladder.

use crate::health::{
    judge, DetectionSummary, EpochEvidence, HealthMachine, HealthTransition, Verdict,
};
use crate::reconfig::{decide_anchor, AnchorDecision, EpochPressure, RECONFIG_WINDOW};
use crate::router::{DeviceEstimate, LaneState, Router};
use crate::{
    DeviceHealthReport, DeviceSummary, FleetConfig, FleetReport, HealthState, ReconfigSummary,
    RouterSummary,
};
use hadas::executor::{run_supervised, ChaosPlan, JobSpec};
use hadas::{CircuitBreaker, ExecTelemetry, Hadas, HadasConfig, HadasError};
use hadas_hw::HwTarget;
use hadas_runtime::{
    modes_from_pareto, FaultConfig, FaultInjector, GrayFaultConfig, Histogram, OperatingMode,
};
use hadas_serve::{
    BrownoutConfig, EpochFeed, Request, ServeConfig, ServeEngine, ServeTrace, SessionState,
    SloSummary,
};

/// One searched deployment plane: the HADAS engine, the pinned top-3
/// mode ladder, and the latency-monotone reconfiguration staircase
/// every device of one hardware target shares.
#[derive(Debug)]
pub struct DevicePlane {
    target: HwTarget,
    hadas: Hadas,
    modes: Vec<OperatingMode>,
    front: Vec<OperatingMode>,
}

impl DevicePlane {
    /// The hardware target this plane deploys to.
    pub fn target(&self) -> HwTarget {
        self.target
    }

    /// The deployed pinned-mode ladder (index 0 = most accurate).
    pub fn modes(&self) -> &[OperatingMode] {
        &self.modes
    }

    /// The reconfiguration staircase: the latency-monotone subset of
    /// the accuracy-sorted Pareto front (each step strictly reduces the
    /// modeled per-request service time, and on a Pareto front that
    /// also means cheaper energy in practice). Anchor 0 is the most
    /// accurate point; escalating is guaranteed to speed the device up,
    /// which the raw accuracy ordering does **not** guarantee — the
    /// full front trades accuracy against energy too, so it contains
    /// accuracy-lower points that are *slower*.
    pub fn front(&self) -> &[OperatingMode] {
        &self.front
    }

    /// The contiguous [`RECONFIG_WINDOW`]-mode slice of the staircase
    /// at `anchor` (clipped to the staircase's end, so the deepest
    /// anchors run shrunken windows down to a single mode).
    fn window(&self, anchor: usize) -> &[OperatingMode] {
        let lo = anchor.min(self.front.len() - 1);
        let hi = (lo + RECONFIG_WINDOW).min(self.front.len());
        &self.front[lo..hi]
    }

    /// The deepest window anchor this staircase admits.
    pub(crate) fn max_anchor(&self) -> usize {
        self.front.len() - 1
    }
}

/// Searches one deployment plane per *distinct* target among `targets`
/// (in [`HwTarget::ALL`] order): runs the bi-level search under
/// `search` and deploys both the top-3 Pareto mode ladder and the
/// latency-monotone reconfiguration staircase (see
/// [`DevicePlane::front`]). Device replicas of one target share the
/// plane; the governor rotation differentiates them.
///
/// # Errors
///
/// Returns [`HadasError::InvalidConfig`] for an empty target list, or
/// whatever the search/mode extraction surfaces.
pub fn build_planes(
    targets: &[HwTarget],
    search: &HadasConfig,
) -> Result<Vec<DevicePlane>, HadasError> {
    let mut planes = Vec::new();
    for target in HwTarget::ALL {
        if !targets.contains(&target) {
            continue;
        }
        let hadas = Hadas::for_target(target);
        let outcome = hadas.run(search)?;
        let modes = modes_from_pareto(&hadas, &outcome, 3)?;
        // The reconfiguration staircase: walk the accuracy-sorted front
        // and keep a point only if it strictly lowers the modeled
        // service time, so every escalation is a real speed-up.
        let mut front = Vec::new();
        let mut fastest = f64::INFINITY;
        for mode in modes_from_pareto(&hadas, &outcome, usize::MAX)? {
            let latency_s = mode.serve(0.5).cost.latency_s;
            if latency_s < fastest {
                fastest = latency_s;
                front.push(mode);
            }
        }
        planes.push(DevicePlane { target, hadas, modes, front });
    }
    if planes.is_empty() {
        return Err(HadasError::InvalidConfig("no targets to build device planes for".into()));
    }
    Ok(planes)
}

/// One device × epoch segment as a supervised executor job: the
/// session state rides in; the post-segment state rides out, or the
/// finished trace after the final (draining) epoch.
#[derive(Debug)]
struct EpochJob<'p> {
    device: usize,
    plane: &'p DevicePlane,
    modes: &'p [OperatingMode],
    config: &'p ServeConfig,
    state: SessionState,
    requests: Vec<Request>,
    drain: bool,
}

impl EpochJob<'_> {
    /// A serve engine over the job's mode list.
    fn engine(&self) -> Result<ServeEngine<'_>, HadasError> {
        ServeEngine::new(&self.plane.hadas, self.modes.to_vec(), self.config.clone())
    }
}

/// Where one epoch job leaves its device.
enum SegmentEnd {
    /// Mid-run, at an epoch barrier.
    Barrier(SessionState),
    /// Drained and finished.
    Finished(ServeTrace),
}

/// The outcome of one fleet run: the deterministic report plus the
/// supervisor's out-of-band resilience telemetry (unit crashes healed,
/// retries, hedges — deliberately *not* serialized in the report).
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The deterministic serialized report.
    pub report: FleetReport,
    /// Fleet supervisor counters; the side channel where healed unit
    /// faults remain visible.
    pub telemetry: ExecTelemetry,
}

/// The fleet serving engine over a set of searched device planes.
#[derive(Debug)]
pub struct FleetEngine<'a> {
    planes: &'a [DevicePlane],
    plane_ix: Vec<usize>,
    config: FleetConfig,
}

impl<'a> FleetEngine<'a> {
    /// Builds a fleet over the device planes, validating the
    /// configuration and resolving every device's target to its plane.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] if the configuration fails
    /// [`FleetConfig::validate`] or a device's target has no plane.
    pub fn new(planes: &'a [DevicePlane], config: FleetConfig) -> Result<Self, HadasError> {
        config.validate()?;
        let mut plane_ix = Vec::with_capacity(config.devices.len());
        for (d, target) in config.devices.iter().enumerate() {
            let ix = planes.iter().position(|p| p.target == *target).ok_or_else(|| {
                HadasError::InvalidConfig(format!(
                    "device {d} targets {} but no plane was built for it",
                    target.cli_name()
                ))
            })?;
            plane_ix.push(ix);
        }
        Ok(FleetEngine { planes, plane_ix, config })
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Whether the fleet stops at epoch barriers: the reconfiguration
    /// controller, gray injection and online detection all need
    /// windowed evidence. Without them the run is one epoch on the
    /// pinned ladders.
    fn segmented(&self) -> bool {
        self.config.reconfigure || self.config.gray.is_some() || self.config.detection.enabled
    }

    /// The mode list device `d` serves at window `anchor`: the pinned
    /// top-3 ladder on an unsegmented fleet, else the staircase window.
    fn modes_at(&self, d: usize, anchor: usize) -> &'a [OperatingMode] {
        let plane = &self.planes[self.plane_ix[d]];
        if self.segmented() {
            plane.window(anchor)
        } else {
            &plane.modes
        }
    }

    /// The router's modeled per-request cost of device `d` at window
    /// `anchor`: its mode list's most accurate mode at nominal
    /// difficulty, refreshed after every swap so routing sees the
    /// device's *current* operating point.
    fn estimate_at(&self, d: usize, anchor: usize) -> DeviceEstimate {
        let outcome = self.modes_at(d, anchor)[0].serve(0.5);
        DeviceEstimate { service_s: outcome.cost.latency_s, energy_j: outcome.cost.energy_j }
    }

    /// The serve configuration of device `d`: the fleet's SLO envelope,
    /// the replica's governor, the per-device substrate fault stream,
    /// the shared drift scenario, and the always-on brownout ladder
    /// composing with the router's modeled admission.
    fn device_config(&self, d: usize, duration_s: f64) -> ServeConfig {
        ServeConfig {
            seed: self.config.seed,
            duration_s,
            rps: self.config.rps,
            workers: 1,
            batch_max: self.config.batch_max,
            slo_ms: self.config.slo_ms,
            bulk_slo_factor: self.config.bulk_slo_factor,
            bulk_fraction: self.config.bulk_fraction,
            governor: self.config.governor_of(d),
            faults: self.config.faults.as_ref().map(|f| FaultConfig {
                seed: f.seed.wrapping_add(d as u64),
                horizon_s: duration_s,
                ..f.clone()
            }),
            chaos: None,
            gray: self.config.gray.as_ref().map(|g| GrayFaultConfig { device: d, ..g.clone() }),
            hedge_factor: self.config.hedge_factor,
            retry: self.config.retry,
            breaker_threshold: self.config.breaker_threshold,
            breaker_cooldown: self.config.breaker_cooldown,
            brownout: Some(BrownoutConfig::default()),
            scenario: self.config.scenario.clone(),
            ..ServeConfig::default()
        }
    }

    /// The fleet-wide arrival-stream generator configuration (scenario
    /// modulation included).
    fn gen_config(&self, duration_s: f64) -> ServeConfig {
        ServeConfig {
            seed: self.config.seed,
            duration_s,
            rps: self.config.rps,
            slo_ms: self.config.slo_ms,
            bulk_slo_factor: self.config.bulk_slo_factor,
            bulk_fraction: self.config.bulk_fraction,
            scenario: self.config.scenario.clone(),
            ..ServeConfig::default()
        }
    }

    /// Runs the fleet to completion (see module docs for the epoch loop
    /// and the determinism contract).
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for invalid embedded
    /// configurations, or [`HadasError::Internal`] if a unit breaks the
    /// request-conservation identity or the supervisor breaks protocol.
    pub fn run(&self) -> Result<FleetRun, HadasError> {
        let duration_s = self.config.duration_s();
        let n = self.config.devices.len();
        let rc = self.config.reconfig.clone();
        let epochs = if self.segmented() { rc.epochs } else { 1 };
        let detection = self.config.detection.clone();
        let detect = detection.enabled;

        // Epoch slices of the arrival stream, each generated on the
        // feed's own thread while the previous epoch is being served.
        let feed = EpochFeed::start(self.gen_config(duration_s), epochs)?;
        let mut offered = 0usize;

        // The substrate stream swap-failure draws come from; chaos
        // stays execution-plane and never reaches a decision.
        let swap_faults = match &self.config.faults {
            Some(f) => {
                Some(FaultInjector::new(FaultConfig { horizon_s: duration_s, ..f.clone() })?)
            }
            None => None,
        };
        let chaos_injector = match &self.config.chaos {
            Some(c) => {
                Some(FaultInjector::new(FaultConfig { horizon_s: duration_s, ..c.clone() })?)
            }
            None => None,
        };

        let device_cfgs: Vec<ServeConfig> =
            (0..n).map(|d| self.device_config(d, duration_s)).collect();
        for cfg in &device_cfgs {
            cfg.validate()?;
        }

        // Fresh zeroed sessions, exported immediately: the per-epoch
        // jobs are pure (state in → state out).
        let mut states: Vec<SessionState> = Vec::with_capacity(n);
        for (d, cfg) in device_cfgs.iter().enumerate() {
            let plane = &self.planes[self.plane_ix[d]];
            let engine = ServeEngine::new(&plane.hadas, self.modes_at(d, 0).to_vec(), cfg.clone())?;
            states.push(engine.session()?.state());
        }

        let mut router = Router::new(&self.config, n);
        let mut anchors = vec![0usize; n];
        let mut calm = vec![0usize; n];
        #[derive(Clone, Copy, Default)]
        struct Mark {
            interactive_served: usize,
            interactive_violations: usize,
            health_len: usize,
            windows_opened: usize,
            defects: usize,
            served: usize,
            latency_sum_ms: f64,
        }
        /// One device's epoch-over-epoch deltas at a barrier: the
        /// detector's evidence plus the controller's pressure inputs.
        struct BarrierDelta {
            evidence: EpochEvidence,
            interactive_served: usize,
            interactive_violations: usize,
            min_thermal_cap: f64,
        }
        let mut marks = vec![Mark::default(); n];
        let mut summary = if self.config.reconfigure {
            ReconfigSummary {
                enabled: true,
                scenario: self.config.scenario_name().to_string(),
                epochs,
                swaps: 0,
                swap_rollbacks: 0,
                dropped_by_swap: 0,
                escalations: 0,
                deescalations: 0,
                final_anchors: Vec::new(),
            }
        } else {
            ReconfigSummary::disabled(self.config.scenario_name())
        };
        let mut telemetry = ExecTelemetry::default();

        // Detection state: one machine and one routing lane per device,
        // plus the re-dispatch carryover of quarantine drains.
        let mut machines = vec![HealthMachine::default(); n];
        let mut lanes = vec![LaneState::Open; n];
        let mut ever_quarantined = vec![false; n];
        let mut transitions: Vec<HealthTransition> = Vec::new();
        let mut dirty_epochs = 0usize;
        let mut redispatched = 0usize;
        let mut carryover: Vec<Request> = Vec::new();
        let mut traces: Vec<ServeTrace> = Vec::with_capacity(n);

        let epoch_len = duration_s / epochs as f64;
        for e in 0..epochs {
            let drain = e + 1 == epochs;
            let fresh = feed.next_slice(e)?;
            offered += fresh.len();

            // Scheduling pass for this epoch: refreshed estimates, the
            // persistent router extends its modeled backlogs. Requests
            // drained off newly quarantined devices re-enter here,
            // merged into the slice in (time, id) order.
            let estimates: Vec<DeviceEstimate> =
                (0..n).map(|d| self.estimate_at(d, anchors[d])).collect();
            let slice = if carryover.is_empty() {
                fresh
            } else {
                carryover.extend(fresh);
                carryover.sort_by(|a, b| a.time_s.total_cmp(&b.time_s).then(a.id.cmp(&b.id)));
                std::mem::take(&mut carryover)
            };
            let substreams = router.route_slice(&estimates, &lanes, &slice);

            let jobs: Vec<EpochJob> = substreams
                .into_iter()
                .zip(states.drain(..))
                .enumerate()
                .map(|(d, (substream, state))| EpochJob {
                    device: d,
                    plane: &self.planes[self.plane_ix[d]],
                    modes: self.modes_at(d, anchors[d]),
                    config: &device_cfgs[d],
                    state,
                    requests: substream,
                    drain,
                })
                .collect();

            // Unit-level chaos script: pure in (seed, schedule), so the
            // recovery replay is identical at any fleet worker count.
            let plan = match &chaos_injector {
                Some(injector) => {
                    let specs: Vec<JobSpec> = jobs
                        .iter()
                        .map(|j| JobSpec {
                            key: (e * n + j.device) as u64,
                            est_ms: estimates[j.device].service_s * 1e3 * j.requests.len() as f64,
                            weight: j.requests.len(),
                        })
                        .collect();
                    Some(ChaosPlan::build(
                        injector,
                        &self.config.retry,
                        CircuitBreaker::new(
                            self.config.breaker_threshold,
                            self.config.breaker_cooldown,
                        ),
                        self.config.hedge_factor,
                        &specs,
                    ))
                }
                None => None,
            };

            // Execution pass: one pure segment per device.
            let run_unit = |job: &EpochJob| -> Result<SegmentEnd, HadasError> {
                let engine = job.engine()?;
                let mut session = engine.resume(job.state.clone())?;
                session.serve_segment(&job.requests, job.drain)?;
                Ok(if job.drain {
                    SegmentEnd::Finished(session.finish())
                } else {
                    SegmentEnd::Barrier(session.state())
                })
            };
            let (slots, t) = run_supervised(&jobs, self.config.workers, run_unit, plan.as_ref())?;
            telemetry.merge(&t);

            // Fold the epoch in device order.
            for (job, slot) in jobs.iter().zip(slots) {
                match slot {
                    None => {
                        // The unit died for the whole epoch: its
                        // in-flight queue and the epoch's substream are
                        // dead letters; the pre-epoch state carries on,
                        // or is finished here after the final epoch.
                        let mut st = job.state.clone();
                        st.dead_letter_queue();
                        st.offered += job.requests.len();
                        st.dead_lettered += job.requests.len();
                        if drain {
                            traces.push(job.engine()?.resume(st)?.finish());
                        } else {
                            states.push(st);
                        }
                    }
                    Some(Err(err)) => return Err(err),
                    Some(Ok(SegmentEnd::Barrier(st))) => states.push(st),
                    Some(Ok(SegmentEnd::Finished(trace))) => traces.push(trace),
                }
            }

            if drain {
                break;
            }

            // Barrier pass, single-threaded in device order. First the
            // epoch-over-epoch deltas every barrier consumer shares.
            let mut deltas: Vec<BarrierDelta> = Vec::with_capacity(n);
            for d in 0..n {
                let st = &states[d];
                let mark = marks[d];
                // Session state only ever accretes across barriers; a
                // shrunken health trace means a unit resumed from the
                // wrong state, which must fail loudly, not clamp.
                if mark.health_len > st.health.len() {
                    return Err(HadasError::Internal(format!(
                        "device {d} health trace shrank across an epoch barrier \
                         ({} samples marked, {} present)",
                        mark.health_len,
                        st.health.len()
                    )));
                }
                let min_thermal_cap = st.health[mark.health_len..]
                    .iter()
                    .map(|h| h.thermal_cap)
                    .fold(1.0f64, f64::min);
                let served = st.served - mark.served;
                let windows = st.windows_opened - mark.windows_opened;
                let emitted = st.health.len() - mark.health_len;
                deltas.push(BarrierDelta {
                    evidence: EpochEvidence {
                        defects: st.telemetry_defects.total() - mark.defects,
                        gaps: windows.saturating_sub(emitted),
                        served,
                        observed_mean_ms: if served > 0 {
                            (st.latency_sum_ms - mark.latency_sum_ms) / served as f64
                        } else {
                            0.0
                        },
                        modeled_ms: estimates[d].service_s * 1e3,
                    },
                    interactive_served: st.interactive_served - mark.interactive_served,
                    interactive_violations: st.interactive_violations - mark.interactive_violations,
                    min_thermal_cap,
                });
                marks[d] = Mark {
                    interactive_served: st.interactive_served,
                    interactive_violations: st.interactive_violations,
                    health_len: st.health.len(),
                    windows_opened: st.windows_opened,
                    defects: st.telemetry_defects.total(),
                    served: st.served,
                    latency_sum_ms: st.latency_sum_ms,
                };
            }

            // Detection: judge every device against the fleet-median
            // divergence, step its state machine, refresh its lane, and
            // drain newly quarantined units for re-dispatch.
            if detect {
                let mut divs: Vec<f64> =
                    deltas.iter().map(|delta| delta.evidence.divergence()).collect();
                divs.sort_by(f64::total_cmp);
                let median_divergence = divs[n / 2];
                for d in 0..n {
                    let verdict = judge(&detection, &deltas[d].evidence, median_divergence);
                    if verdict == Verdict::Dirty {
                        dirty_epochs += 1;
                    }
                    if let Some((from, to)) = machines[d].step(&detection, verdict) {
                        if to == HealthState::Quarantined {
                            ever_quarantined[d] = true;
                            // Quarantine drain: pull the in-flight queue
                            // off the unit, take the routing decisions
                            // back, and re-enter the requests into the
                            // next epoch's slice. Nothing is dropped.
                            let drained = states[d].drain_for_redispatch();
                            router.unassign(d, &drained);
                            redispatched += drained.len();
                            carryover.extend(drained);
                        }
                        transitions.push(HealthTransition {
                            epoch: e,
                            device: d,
                            from: from.name().to_string(),
                            to: to.name().to_string(),
                        });
                    }
                    let state = machines[d].state();
                    lanes[d] = if state.accepts_traffic() {
                        LaneState::Open
                    } else if state.probe_only() {
                        LaneState::ProbeOnly
                    } else {
                        LaneState::Closed
                    };
                }
            }
            let quarantined_frac =
                lanes.iter().filter(|&&l| l == LaneState::Closed).count() as f64 / n as f64;

            // Reconfiguration controller: read each device's pressure
            // (quarantined capacity included), decide, and swap windows.
            if !self.config.reconfigure {
                continue;
            }
            let t_end = (e as f64 + 1.0) * epoch_len;
            let capacity_factor =
                self.config.scenario.as_ref().map_or(1.0, |s| s.battery_capacity_factor_at(t_end));
            for d in 0..n {
                let st = &mut states[d];
                let soc = if rc.battery_j > 0.0 {
                    let capacity = (rc.battery_j * capacity_factor).max(1e-9);
                    (1.0 - (st.energy_j + st.switch_energy_j) / capacity).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                let pressure = EpochPressure {
                    interactive_served: deltas[d].interactive_served,
                    interactive_violations: deltas[d].interactive_violations,
                    min_thermal_cap: deltas[d].min_thermal_cap,
                    soc,
                    fleet_quarantined: quarantined_frac,
                };
                let max_anchor = self.planes[self.plane_ix[d]].max_anchor();
                let decision = decide_anchor(&rc, &pressure, anchors[d], max_anchor, &mut calm[d]);
                let target = match decision {
                    AnchorDecision::Hold => continue,
                    AnchorDecision::Escalate => anchors[d] + 1,
                    AnchorDecision::Deescalate => anchors[d] - 1,
                };

                // Zero-drop swap: drain-to-barrier already happened (the
                // segment ended), so the state stays where it is and the
                // next segment resumes it under the new window, queue
                // included. A substrate swap-failure draw leaves the
                // device on the old window instead.
                let queued_before = st.queue_len();
                let failed =
                    swap_faults.as_ref().is_some_and(|f| f.swap_failure_at((e * n + d) as u64));
                if failed {
                    summary.swap_rollbacks += 1;
                    continue;
                }
                anchors[d] = target;
                st.mode_switches += 1;
                st.switch_energy_j += device_cfgs[d].sim.switch_energy_j;
                summary.dropped_by_swap += queued_before.saturating_sub(st.queue_len());
                summary.swaps += 1;
                if decision == AnchorDecision::Escalate {
                    summary.escalations += 1;
                } else {
                    summary.deescalations += 1;
                }
            }
        }

        if self.config.reconfigure {
            summary.final_anchors = anchors.clone();
        }
        let router_summary = router.into_summary();
        let det_summary = if detect {
            DetectionSummary {
                enabled: true,
                final_states: machines.iter().map(|m| m.state().name().to_string()).collect(),
                transitions,
                dirty_epochs,
                quarantined_devices: ever_quarantined.iter().filter(|&&q| q).count(),
                probe_assignments: router_summary.probe_assignments,
                redispatched,
                // Carryover always merges into a later epoch's routing
                // (quarantine fires only at non-final barriers), so this
                // is structurally zero — the invariant the bench pins.
                redispatch_dropped: carryover.len(),
            }
        } else {
            DetectionSummary::disabled(n)
        };
        let report = self.fold_report(offered, router_summary, &traces, summary, det_summary)?;
        Ok(FleetRun { report, telemetry })
    }

    /// Folds the finished per-device traces into the fleet report, in
    /// device order.
    fn fold_report(
        &self,
        offered: usize,
        router_summary: RouterSummary,
        traces: &[ServeTrace],
        reconfig: ReconfigSummary,
        detection: DetectionSummary,
    ) -> Result<FleetReport, HadasError> {
        let duration_s = self.config.duration_s();
        let n = self.config.devices.len();
        let mut served = 0usize;
        let mut shed = 0usize;
        let mut rejected = 0usize;
        let mut dead_lettered = 0usize;
        let mut energy = 0.0f64;
        let mut sag_energy = 0.0f64;
        let mut makespan = 0.0f64;
        // Sized once; the summary then selects in place, so the merged
        // samples are copied exactly once.
        let total = traces.iter().map(|t| t.latencies.len()).sum();
        let mut global = Histogram::from_samples(Vec::with_capacity(total));
        let mut violations = 0usize;
        let mut interactive = (0usize, 0usize);
        let mut bulk = (0usize, 0usize);
        let mut per_device = Vec::with_capacity(n);
        let mut health = Vec::with_capacity(n);
        for (d, trace) in traces.iter().enumerate() {
            let target = self.planes[self.plane_ix[d]].target.cli_name();
            let governor = self.config.governor_of(d).name();
            let state =
                detection.final_states.get(d).map_or(HealthState::Healthy.name(), String::as_str);
            let assigned = router_summary.assigned[d];
            let r = &trace.report;
            if !r.accounting_balances() || r.offered != assigned {
                return Err(HadasError::Internal(format!(
                    "device {d} broke request conservation \
                     ({} + {} + {} + {} vs {assigned} assigned)",
                    r.served, r.shed, r.rejected, r.dead_lettered
                )));
            }
            served += r.served;
            shed += r.shed;
            rejected += r.rejected;
            dead_lettered += r.dead_lettered;
            energy += r.energy_j;
            sag_energy += r.sag_energy_j;
            makespan = makespan.max(r.makespan_s);
            global.merge(&trace.latencies);
            violations += r.slo.violations;
            interactive.0 += r.slo.interactive_served;
            interactive.1 += r.slo.interactive_violations;
            bulk.0 += r.slo.bulk_served;
            bulk.1 += r.slo.bulk_violations;
            per_device.push(DeviceSummary {
                device: d,
                target: target.to_string(),
                governor: governor.to_string(),
                assigned,
                served: r.served,
                shed: r.shed,
                rejected: r.rejected,
                dead_lettered: r.dead_lettered,
                mode_switches: r.mode_switches,
                energy_j: r.energy_j,
                slo_violations: r.slo.violations,
                p99_ms: r.latency.p99_ms,
            });
            health.push(DeviceHealthReport::from_trace(
                d,
                target,
                governor,
                trace,
                &self.config.health,
                state,
            ));
        }

        let routed = router_summary.routed();
        let unhealthy = health.iter().filter(|h| !h.healthy).count();
        let report = FleetReport {
            schema: crate::FLEET_REPORT_SCHEMA,
            fingerprint: 0,
            devices: n,
            device_mix: crate::canonical_spec(&self.config.devices),
            users: self.config.users,
            rps: self.config.rps,
            duration_s,
            seed: self.config.seed,
            offered,
            routed,
            fleet_rejected: router_summary.rejected(),
            served,
            shed,
            rejected,
            dead_lettered,
            makespan_s: makespan,
            throughput_rps: served as f64 / makespan.max(duration_s),
            energy_j: energy,
            sag_energy_j: sag_energy,
            latency: global.into_summary(),
            slo: SloSummary {
                target_ms: self.config.slo_ms,
                violations,
                violation_rate: violations as f64 / served.max(1) as f64,
                interactive_served: interactive.0,
                interactive_violations: interactive.1,
                bulk_served: bulk.0,
                bulk_violations: bulk.1,
            },
            scenario: self.config.scenario_name().to_string(),
            reconfig,
            detection,
            router: router_summary,
            per_device,
            health,
            unhealthy_devices: unhealthy,
        };
        if !report.accounting_balances() {
            return Err(HadasError::Internal("fleet report broke request conservation".into()));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectionConfig;
    use hadas_runtime::{FaultConfig, Scenario};

    fn planes() -> Vec<DevicePlane> {
        build_planes(&[HwTarget::Tx2PascalGpu, HwTarget::AgxCarmelCpu], &HadasConfig::smoke_test())
            .unwrap()
    }

    fn small_config() -> FleetConfig {
        FleetConfig {
            devices: vec![
                HwTarget::Tx2PascalGpu,
                HwTarget::AgxCarmelCpu,
                HwTarget::Tx2PascalGpu,
                HwTarget::AgxCarmelCpu,
            ],
            users: 900,
            rps: 300.0,
            seed: 42,
            ..FleetConfig::default()
        }
    }

    fn drift_config() -> FleetConfig {
        let base = small_config();
        FleetConfig {
            scenario: Some(Scenario::from_name("composite", 42, base.duration_s()).unwrap()),
            reconfigure: true,
            ..base
        }
    }

    /// The sealed fingerprint of a report's serialized bytes: a golden
    /// value pins the report itself, not just agreement between runs.
    fn golden(report: &FleetReport) -> u64 {
        FleetReport::from_json(&report.to_json().unwrap()).unwrap().fingerprint
    }

    #[test]
    fn reports_are_byte_identical_across_fleet_worker_counts() {
        let planes = planes();
        let detecting = FleetConfig { detection: DetectionConfig::enabled(), ..small_config() };
        for (config, fingerprint) in
            [(small_config(), 12034346352125354398u64), (detecting, 1363057358791390922)]
        {
            let base = FleetEngine::new(&planes, config.clone()).unwrap().run().unwrap();
            let base_json = base.report.to_json().unwrap();
            assert!(base.report.accounting_balances());
            assert!(base.report.served > 0, "the fleet must serve");
            assert_eq!(golden(&base.report), fingerprint, "golden fleet report");
            for workers in [2usize, 4, 8] {
                let cfg = FleetConfig { workers, ..config.clone() };
                let run = FleetEngine::new(&planes, cfg).unwrap().run().unwrap();
                assert_eq!(
                    run.report.to_json().unwrap(),
                    base_json,
                    "fleet worker count {workers} must not leak into the report"
                );
            }
        }
    }

    #[test]
    fn reconfigured_reports_are_byte_identical_across_worker_counts() {
        let planes = planes();
        let base = FleetEngine::new(&planes, drift_config()).unwrap().run().unwrap();
        let base_json = base.report.to_json().unwrap();
        assert!(base.report.accounting_balances());
        assert!(base.report.reconfig.enabled);
        assert_eq!(base.report.reconfig.dropped_by_swap, 0, "the zero-drop invariant");
        assert_eq!(base.report.scenario, "composite");
        for workers in [2usize, 4, 8] {
            let cfg = FleetConfig { workers, ..drift_config() };
            let run = FleetEngine::new(&planes, cfg).unwrap().run().unwrap();
            assert_eq!(
                run.report.to_json().unwrap(),
                base_json,
                "worker count {workers} must not leak into a reconfigured report"
            );
        }
    }

    #[test]
    fn unit_chaos_heals_back_to_the_fault_free_report() {
        let planes = planes();
        let clean = FleetEngine::new(&planes, small_config()).unwrap().run().unwrap();
        let mut healed_something = false;
        for seed in [3u64, 5, 7, 11] {
            let cfg = FleetConfig {
                chaos: Some(FaultConfig {
                    crash_rate: 0.25,
                    transient_rate: 0.15,
                    ..FaultConfig::worker_chaos(seed)
                }),
                retry: hadas::RetryPolicy { max_attempts: 6, ..hadas::RetryPolicy::default() },
                workers: 3,
                ..small_config()
            };
            let run = FleetEngine::new(&planes, cfg).unwrap().run().unwrap();
            if run.telemetry.crashes > 0 || run.telemetry.retries > 0 {
                healed_something = true;
            }
            assert_eq!(run.report.dead_lettered, 0, "six attempts must recover (seed {seed})");
            assert_eq!(
                run.report.to_json().unwrap(),
                clean.report.to_json().unwrap(),
                "healed chaos must be invisible in the report (seed {seed})"
            );
        }
        assert!(healed_something, "some seed must actually inject unit faults");
    }

    #[test]
    fn mid_swap_unit_chaos_heals_back_to_the_fault_free_reconfigured_report() {
        let planes = planes();
        let clean = FleetEngine::new(&planes, drift_config()).unwrap().run().unwrap();
        let mut healed_something = false;
        for seed in [3u64, 5, 7] {
            let cfg = FleetConfig {
                chaos: Some(FaultConfig {
                    crash_rate: 0.2,
                    transient_rate: 0.1,
                    ..FaultConfig::worker_chaos(seed)
                }),
                retry: hadas::RetryPolicy { max_attempts: 6, ..hadas::RetryPolicy::default() },
                workers: 3,
                ..drift_config()
            };
            let run = FleetEngine::new(&planes, cfg).unwrap().run().unwrap();
            healed_something |= run.telemetry.crashes > 0 || run.telemetry.retries > 0;
            assert_eq!(run.report.dead_lettered, 0, "six attempts must recover (seed {seed})");
            assert_eq!(
                run.report.to_json().unwrap(),
                clean.report.to_json().unwrap(),
                "epoch crashes landing around swaps must heal invisibly (seed {seed})"
            );
        }
        assert!(healed_something, "some seed must actually inject epoch faults");
    }

    #[test]
    fn reconfiguration_swaps_under_drift_and_drops_nothing() {
        let planes = planes();
        let run = FleetEngine::new(&planes, drift_config()).unwrap().run().unwrap();
        let rc = &run.report.reconfig;
        assert!(rc.enabled);
        assert_eq!(rc.epochs, 8);
        assert!(rc.swaps > 0, "composite drift must force at least one live swap");
        assert_eq!(rc.dropped_by_swap, 0, "swaps must never drop a queued request");
        assert_eq!(rc.swaps, rc.escalations + rc.deescalations);
        assert_eq!(rc.final_anchors.len(), 4);
        assert!(run.report.accounting_balances(), "conservation survives swaps");
        assert!(
            run.report
                .per_device
                .iter()
                .zip(&rc.final_anchors)
                .all(|(s, &a)| { a == 0 || s.mode_switches > 0 }),
            "a moved anchor implies at least one latched switch"
        );
    }

    #[test]
    fn swap_failures_roll_back_and_stay_accounted() {
        let planes = planes();
        let base = drift_config();
        let cfg = FleetConfig {
            faults: Some(FaultConfig { seed: 9, swap_fail_rate: 0.9, ..FaultConfig::default() }),
            ..base
        };
        let run = FleetEngine::new(&planes, cfg).unwrap().run().unwrap();
        let rc = &run.report.reconfig;
        assert!(rc.swap_rollbacks > 0, "a 0.9 swap-failure rate must roll something back");
        assert_eq!(rc.dropped_by_swap, 0, "rollbacks drop nothing either");
        assert!(run.report.accounting_balances());
    }

    #[test]
    fn dead_units_surface_as_dead_letters_not_loss() {
        let planes = planes();
        let cfg = FleetConfig {
            chaos: Some(FaultConfig {
                crash_rate: 0.9,
                transient_rate: 0.0,
                timeout_rate: 0.0,
                ..FaultConfig::worker_chaos(13)
            }),
            retry: hadas::RetryPolicy { max_attempts: 1, ..hadas::RetryPolicy::default() },
            workers: 2,
            ..small_config()
        };
        let run = FleetEngine::new(&planes, cfg).unwrap().run().unwrap();
        assert!(run.report.dead_lettered > 0, "crash rate 0.9 × 1 attempt must kill a unit");
        assert!(run.report.accounting_balances(), "dead letters stay conserved");
        assert_eq!(
            run.report.unhealthy_devices,
            run.report.health.iter().filter(|h| !h.healthy).count()
        );
        assert!(run.report.health.iter().any(|h| !h.healthy));
        assert_eq!(run.report.dead_lettered, 576);
        assert_eq!(run.report.unhealthy_devices, 3);
        assert_eq!(golden(&run.report), 2958488930028293873, "golden dead-unit report");
    }

    #[test]
    fn dead_epochs_dead_letter_their_slice_and_stay_conserved() {
        let planes = planes();
        let cfg = FleetConfig {
            chaos: Some(FaultConfig {
                crash_rate: 0.9,
                transient_rate: 0.0,
                timeout_rate: 0.0,
                ..FaultConfig::worker_chaos(13)
            }),
            retry: hadas::RetryPolicy { max_attempts: 1, ..hadas::RetryPolicy::default() },
            workers: 2,
            ..drift_config()
        };
        let run = FleetEngine::new(&planes, cfg).unwrap().run().unwrap();
        assert!(run.report.dead_lettered > 0, "crash rate 0.9 × 1 attempt must kill an epoch");
        assert!(run.report.accounting_balances(), "dead epochs stay conserved");
    }

    #[test]
    fn fleet_report_json_round_trips_through_the_gated_restore() {
        let planes = planes();
        let run = FleetEngine::new(&planes, small_config()).unwrap().run().unwrap();
        let json = run.report.to_json().unwrap();
        let restored = FleetReport::from_json(&json).unwrap();
        assert_eq!(restored.served, run.report.served);
        assert_ne!(restored.fingerprint, 0);
        let tampered = json.replace("\"devices\": 4", "\"devices\": 5");
        assert!(FleetReport::from_json(&tampered).is_err(), "tampering must be refused");
    }

    #[test]
    fn missing_plane_is_an_invalid_config() {
        let planes = build_planes(&[HwTarget::Tx2PascalGpu], &HadasConfig::smoke_test()).unwrap();
        let cfg = FleetConfig { devices: vec![HwTarget::AgxVoltaGpu], ..FleetConfig::default() };
        assert!(FleetEngine::new(&planes, cfg).is_err());
    }

    #[test]
    fn health_reports_cover_every_device_in_order() {
        let planes = planes();
        let run = FleetEngine::new(&planes, small_config()).unwrap().run().unwrap();
        assert_eq!(run.report.health.len(), 4);
        assert_eq!(run.report.per_device.len(), 4);
        for (d, (h, s)) in run.report.health.iter().zip(&run.report.per_device).enumerate() {
            assert_eq!(h.device, d);
            assert_eq!(s.device, d);
            assert_eq!(s.assigned, run.report.router.assigned[d]);
            assert_eq!(s.served + s.shed + s.rejected + s.dead_lettered, s.assigned);
        }
    }
}
