use crate::pool::{run_pool, serve_chaos_plan, BatchJob};
use crate::report::TelemetryIntegrity;
use crate::{
    apply_brownout, build_governor, generate_requests, Batcher, BrownoutLadder, BrownoutState,
    BrownoutSummary, BrownoutTier, Request, ServeConfig, ServeReport, SloClass, SloSummary,
    TelemetryCounters, TelemetrySanitizer, IMPLAUSIBLE_QUEUE_DEPTH,
};
use hadas::{CircuitBreaker, ExecTelemetry, Hadas, HadasError};
use hadas_runtime::{
    enforce_thermal_cap, DegradePolicy, FaultInjector, GrayDefect, GrayFaultConfig, Histogram,
    OperatingMode, PolicyState, ScalingPolicy,
};
use serde::{Deserialize, Serialize};

/// The open-loop serving engine: a virtual-time scheduler that forms
/// deadline-aware batches, runs the configured DVFS governor once per
/// control window, sheds requests whose deadlines are infeasible under
/// the current backlog, steps a brownout ladder under overload, and
/// shards the per-batch reduction across a supervised worker-thread pool.
///
/// Determinism contract: the schedule (batch composition, dispatch
/// times, mode choices, brownout tiers) is computed single-threaded on a
/// virtual clock, every per-batch reduction is a pure function of its
/// job, and results are folded in schedule order — so one
/// `(config, modes)` pair yields a byte-identical [`ServeReport`] for
/// any worker count and any OS thread interleaving. Execution-plane
/// chaos ([`ServeConfig::chaos`]) is erased by the supervisor's recovery
/// whenever no batch dead-letters, so the chaos report matches the
/// fault-free one byte for byte.
///
/// A run can be driven whole ([`ServeEngine::run_requests`]) or in
/// *segments* through a [`ServeSession`]: the fleet plane serves one
/// reconfiguration epoch per segment, exports the [`SessionState`]
/// between epochs, and resumes it — possibly under a *different* engine
/// whose mode window sits elsewhere on the Pareto front (an
/// operating-point swap). The session invariant is zero-drop: queued
/// requests ride the state across the barrier, so
/// `served + shed + rejected + dead_lettered == offered` holds for any
/// segmentation.
#[derive(Debug)]
pub struct ServeEngine<'a> {
    hadas: &'a Hadas,
    modes: Vec<OperatingMode>,
    config: ServeConfig,
    governor: DegradePolicy,
}

/// One periodic health sample from the engine's control loop: the
/// observable state a fleet supervisor monitors per device. Samples are
/// scheduling-plane quantities on the virtual clock, so the health trace
/// is byte-identical across worker counts and recovered chaos runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthSample {
    /// Control-window index (0-based).
    pub window: usize,
    /// Virtual time the window opened (seconds).
    pub at_s: f64,
    /// Batcher backlog observed at the window boundary.
    pub queue_depth: usize,
    /// Brownout tier latched for the window.
    pub tier: BrownoutTier,
    /// Thermal frequency cap in force (`1.0` = uncapped).
    pub thermal_cap: f64,
    /// Recent SLO-violation fraction fed to the governor.
    pub slo_pressure: f64,
}

/// Everything one serving run produces: the serialized report plus the
/// raw completion-latency histogram (mergeable fleet-wide via
/// [`Histogram::merge`]), the per-window health trace, and the
/// out-of-band resilience telemetry.
#[derive(Debug, Clone)]
pub struct ServeTrace {
    /// The deterministic serialized report.
    pub report: ServeReport,
    /// Raw completion latencies (ms), in schedule order.
    pub latencies: Histogram,
    /// Per-control-window health samples, in window order.
    pub health: Vec<HealthSample>,
    /// Supervisor counters (crashes healed, retries, hedges); not part
    /// of any deterministic payload.
    pub telemetry: ExecTelemetry,
}

/// The complete mid-run state of a [`ServeSession`], exported at a
/// segment barrier and restorable under the same — or a swapped —
/// engine. Everything the final [`ServeReport`] depends on lives here:
/// the virtual clock, the in-flight batcher queues, worker lanes,
/// governor/brownout state, and all folded accumulators (histogram
/// included). A swap moves it as it is into the engine of the new
/// window; it also serializes, and [`crate::EngineSnapshot`] seals it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionState {
    /// The virtual clock (seconds).
    pub now_s: f64,
    /// Next batch sequence number (global across segments; chaos keys
    /// derive from it, which keeps recovery byte-identical under
    /// re-segmentation of the same dispatch schedule).
    pub seq: usize,
    /// Requests offered so far (admitted, shed, or rejected).
    pub offered: usize,
    /// Queued interactive requests, FIFO order (the in-flight queue a
    /// swap must not drop).
    pub queued_interactive: Vec<Request>,
    /// Queued bulk requests, FIFO order.
    pub queued_bulk: Vec<Request>,
    /// Per-lane earliest-free times (seconds).
    pub worker_free_s: Vec<f64>,
    /// Requests shed at admission (deadline infeasible).
    pub shed: usize,
    /// Requests rejected by the brownout ladder.
    pub rejected: usize,
    /// The governor's current mode index (into the engine's window).
    pub current_mode: usize,
    /// Virtual time of the next control-window decision.
    pub next_control_s: f64,
    /// Mode switches latched so far (operating-point swaps included).
    pub mode_switches: usize,
    /// Energy charged for mode switches so far (joules).
    pub switch_energy_j: f64,
    /// Control windows opened under an active thermal cap.
    pub throttled_windows: usize,
    /// Whether the last control decision was thermally degraded.
    pub window_degraded: bool,
    /// Batches dispatched in thermally degraded windows.
    pub degraded_batches: usize,
    /// Latest completion time seen (seconds).
    pub makespan_s: f64,
    /// Brownout ladder state, if the ladder is enabled.
    pub brownout: Option<BrownoutState>,
    /// Completion latencies of the governor's current observation
    /// window (ms).
    pub win_latencies_ms: Vec<f64>,
    /// Completions in the current observation window.
    pub win_completed: usize,
    /// Deadline violations in the current observation window.
    pub win_violations: usize,
    /// Health samples collected so far.
    pub health: Vec<HealthSample>,
    /// Requests served to completion so far.
    pub served: usize,
    /// Correctly answered requests so far.
    pub correct: usize,
    /// Energy folded from completed batches (joules, switch energy
    /// excluded — it is added at [`ServeSession::finish`]).
    pub energy_j: f64,
    /// Extra joules attributed to voltage sag.
    pub sag_energy_j: f64,
    /// Batches completed so far.
    pub batches: usize,
    /// Completion-latency histogram folded so far.
    pub latencies: Histogram,
    /// Deadline violations among served requests.
    pub violations: usize,
    /// Interactive requests served.
    pub interactive_served: usize,
    /// Interactive deadline violations.
    pub interactive_violations: usize,
    /// Bulk requests served.
    pub bulk_served: usize,
    /// Bulk deadline violations.
    pub bulk_violations: usize,
    /// Requests answered per exit head (last slot = final classifier).
    pub exit_counts: Vec<usize>,
    /// Requests served per mode-window index.
    pub mode_occupancy: Vec<usize>,
    /// Requests served per worker lane.
    pub per_worker_served: Vec<usize>,
    /// Requests lost to dead-lettered batches.
    pub dead_lettered: usize,
    /// Control windows opened so far — the true window ordinal. Gray
    /// faults can drop or freeze *samples*, but the ordinal keeps
    /// advancing, which is what makes sample gaps visible upstream.
    pub windows_opened: usize,
    /// The last health sample actually emitted on the channel — the
    /// sanitizer's comparison state, carried across swap barriers so
    /// screening is segmentation-invariant.
    pub last_emitted: Option<HealthSample>,
    /// Telemetry defects tagged by the sanitizer so far.
    pub telemetry_defects: TelemetryCounters,
    /// Sum of folded completion latencies (ms) — the observed-latency
    /// accumulator the fleet's divergence detector reads per epoch.
    pub latency_sum_ms: f64,
}

impl SessionState {
    /// Requests currently queued (the in-flight backlog a swap carries).
    pub fn queue_len(&self) -> usize {
        self.queued_interactive.len() + self.queued_bulk.len()
    }

    /// Moves every queued request into the dead-letter count — the
    /// fleet's last resort when a device unit dies at an epoch barrier
    /// with work still queued, keeping
    /// `served + shed + rejected + dead_lettered == offered` intact.
    pub fn dead_letter_queue(&mut self) -> usize {
        let lost = self.queue_len();
        self.queued_interactive.clear();
        self.queued_bulk.clear();
        self.dead_lettered += lost;
        lost
    }

    /// Pulls every queued request back out of the unit for re-dispatch
    /// elsewhere (the fleet's quarantine drain), returned merged in
    /// `(time, id)` order. The drained requests leave `offered` with
    /// them, so the unit's conservation identity keeps balancing and
    /// the requests can be re-offered to another unit without double
    /// counting — the quarantine analogue of the zero-drop swap.
    pub fn drain_for_redispatch(&mut self) -> Vec<Request> {
        let mut drained: Vec<Request> = self.queued_interactive.drain(..).collect();
        drained.append(&mut self.queued_bulk);
        drained.sort_by(|a, b| a.time_s.total_cmp(&b.time_s).then(a.id.cmp(&b.id)));
        self.offered -= drained.len();
        drained
    }
}

/// A resumable serving run: the engine's scheduling loop plus all
/// mid-run state, driven one segment at a time (see [`ServeEngine`]
/// docs for the segment/swap semantics).
#[derive(Debug)]
pub struct ServeSession<'a, 'e> {
    engine: &'e ServeEngine<'a>,
    injector: Option<FaultInjector>,
    chaos: Option<FaultInjector>,
    gray: Option<GrayFaultConfig>,
    sanitizer: TelemetrySanitizer,
    batcher: Batcher,
    brownout: Option<BrownoutLadder>,
    state: SessionState,
    telemetry: ExecTelemetry,
}

impl<'a> ServeEngine<'a> {
    /// Builds an engine over an ordered mode list (index 0 = most
    /// accurate), validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for an empty mode list or a
    /// configuration that fails [`ServeConfig::validate`].
    pub fn new(
        hadas: &'a Hadas,
        modes: Vec<OperatingMode>,
        config: ServeConfig,
    ) -> Result<Self, HadasError> {
        config.validate()?;
        if modes.is_empty() {
            return Err(HadasError::InvalidConfig("at least one operating mode required".into()));
        }
        let governor = build_governor(hadas, &modes, &config);
        Ok(ServeEngine { hadas, modes, config, governor })
    }

    /// The deployed modes.
    pub fn modes(&self) -> &[OperatingMode] {
        &self.modes
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Whether a request arriving into the current backlog can still meet
    /// its deadline: earliest lane availability plus batch overhead plus
    /// one per-item service estimate for everything ahead of it.
    fn admissible(
        request: &Request,
        earliest_free: f64,
        backlog: usize,
        mode: &OperatingMode,
        overhead_s: f64,
    ) -> bool {
        let begin = request.time_s.max(earliest_free);
        let own = mode.serve(request.difficulty).cost.latency_s;
        let est_finish = begin + overhead_s + (backlog as f64 + 1.0) * own;
        est_finish <= request.deadline_s + 1e-12
    }

    /// Opens a fresh session at virtual time zero.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for an invalid embedded
    /// fault configuration.
    pub fn session(&self) -> Result<ServeSession<'a, '_>, HadasError> {
        let state = SessionState {
            worker_free_s: vec![0.0; self.config.workers],
            exit_counts: vec![0; self.exit_slots()],
            mode_occupancy: vec![0; self.modes.len()],
            per_worker_served: vec![0; self.config.workers],
            ..SessionState::default()
        };
        self.open_session(state, self.config.brownout.map(BrownoutLadder::new))
    }

    /// Resumes a session from an exported [`SessionState`] — the swap
    /// entry point: the state may come from a session of a *different*
    /// engine over another window of the same Pareto front. The mode
    /// index is clamped to this engine's window and the per-exit /
    /// per-mode accumulators grow as needed; queued requests, counters,
    /// and histograms carry over untouched, so nothing is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] if the state's worker-lane
    /// vector does not match this engine's worker count, or for an
    /// invalid embedded fault configuration.
    pub fn resume(&self, mut state: SessionState) -> Result<ServeSession<'a, '_>, HadasError> {
        if state.worker_free_s.len() != self.config.workers
            || state.per_worker_served.len() != self.config.workers
        {
            return Err(HadasError::InvalidConfig(format!(
                "session state carries {} worker lane(s) but the engine runs {}",
                state.worker_free_s.len(),
                self.config.workers
            )));
        }
        state.current_mode = state.current_mode.min(self.modes.len() - 1);
        let exit_slots = self.exit_slots();
        if state.exit_counts.len() < exit_slots {
            state.exit_counts.resize(exit_slots, 0);
        }
        if state.mode_occupancy.len() < self.modes.len() {
            state.mode_occupancy.resize(self.modes.len(), 0);
        }
        let brownout = match (&self.config.brownout, &state.brownout) {
            (Some(cfg), Some(s)) => Some(BrownoutLadder::from_state(*cfg, s)),
            (Some(cfg), None) => Some(BrownoutLadder::new(*cfg)),
            (None, _) => None,
        };
        self.open_session(state, brownout)
    }

    fn open_session(
        &self,
        state: SessionState,
        brownout: Option<BrownoutLadder>,
    ) -> Result<ServeSession<'a, '_>, HadasError> {
        let injector = match &self.config.faults {
            Some(f) => Some(FaultInjector::new(f.clone())?),
            None => None,
        };
        let chaos = match &self.config.chaos {
            Some(c) => Some(FaultInjector::new(c.clone())?),
            None => None,
        };
        let batcher = Batcher::from_queues(
            self.config.batch_max,
            state.queued_interactive.clone(),
            state.queued_bulk.clone(),
        );
        Ok(ServeSession {
            engine: self,
            injector,
            chaos,
            gray: self.config.gray.clone(),
            sanitizer: TelemetrySanitizer::resume(state.last_emitted),
            batcher,
            brownout,
            state,
            telemetry: ExecTelemetry::default(),
        })
    }

    /// Exit-histogram slots: one per exit head plus the final classifier.
    fn exit_slots(&self) -> usize {
        self.modes.iter().map(|m| m.placement().len()).max().unwrap_or(0) + 1
    }

    /// Serves the configured arrival stream to completion.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::run_instrumented`].
    pub fn run(&self) -> Result<ServeReport, HadasError> {
        self.run_instrumented().map(|(report, _)| report)
    }

    /// Serves the configured arrival stream to completion, additionally
    /// returning the supervisor's [`ExecTelemetry`] (crash/respawn/
    /// retry/hedge counters). The telemetry is deliberately *not* part of
    /// the serialized report: recovery erases execution faults from the
    /// deterministic payload, and these counters are the place where the
    /// faults remain visible.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for an invalid embedded
    /// fault configuration, or [`HadasError::Internal`] if the worker
    /// pool broke its supervision protocol (a bug, since reductions are
    /// pure).
    pub fn run_instrumented(&self) -> Result<(ServeReport, ExecTelemetry), HadasError> {
        let injector = match &self.config.faults {
            Some(f) => Some(FaultInjector::new(f.clone())?),
            None => None,
        };
        let requests = generate_requests(&self.config, injector.as_ref());
        self.run_requests(requests).map(|trace| (trace.report, trace.telemetry))
    }

    /// Serves a *provided* arrival stream to completion — the fleet
    /// plane's entry point: a global router splits one fleet-wide stream
    /// into per-device substreams and each device serves its share here,
    /// keeping original arrival times and ids. Returns the full
    /// [`ServeTrace`] (report, raw latency histogram, health trace,
    /// telemetry). Requests must be sorted by arrival time.
    ///
    /// [`ServeConfig::faults`] still drives the thermal/sag substrate of
    /// this run (arrival-stream modulation is the caller's business when
    /// the stream is provided).
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::run_instrumented`].
    pub fn run_requests(&self, requests: Vec<Request>) -> Result<ServeTrace, HadasError> {
        let mut session = self.session()?;
        session.serve_segment(&requests, true)?;
        Ok(session.finish())
    }
}

/// Admission of one arrival: the brownout ladder turns it away first
/// (rejected), then deadline feasibility sheds it, and only then does it
/// join the batcher.
#[allow(clippy::too_many_arguments)]
fn admit_one(
    r: Request,
    earliest_free: f64,
    overhead_s: f64,
    mode: &OperatingMode,
    batcher: &mut Batcher,
    brownout: &Option<BrownoutLadder>,
    shed: &mut usize,
    rejected: &mut usize,
) {
    let tier = brownout.as_ref().map_or(BrownoutTier::Normal, BrownoutLadder::tier);
    if tier.rejects_admissions() || (tier.sheds_bulk() && r.class == SloClass::Bulk) {
        *rejected += 1;
    } else if ServeEngine::admissible(&r, earliest_free, batcher.len(), mode, overhead_s) {
        batcher.push(r);
    } else {
        *shed += 1;
    }
}

impl<'a, 'e> ServeSession<'a, 'e> {
    /// The engine this session is currently running under.
    pub fn engine(&self) -> &'e ServeEngine<'a> {
        self.engine
    }

    /// Supervisor counters accumulated across the segments served so
    /// far (out-of-band; resets when a session is resumed from a bare
    /// [`SessionState`]).
    pub fn telemetry(&self) -> ExecTelemetry {
        self.telemetry
    }

    /// Exports the complete mid-run state at a segment barrier — the
    /// swap snapshot payload. Pure: the session can keep serving after
    /// the export.
    pub fn state(&self) -> SessionState {
        let mut state = self.state.clone();
        let (interactive, bulk) = self.batcher.queues();
        state.queued_interactive = interactive;
        state.queued_bulk = bulk;
        state.brownout = self.brownout.as_ref().map(BrownoutLadder::state);
        state.last_emitted = self.sanitizer.last();
        state
    }

    /// Serves one segment of the arrival stream (sorted by time, later
    /// than everything served before). With `drain` the backlog is
    /// flushed to completion (end of run); without it the segment stops
    /// once its arrivals are admitted and dispatched-as-due, leaving the
    /// remaining queue in flight for the next segment — the drain-to-
    /// barrier half of the zero-drop swap protocol.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::Internal`] if the worker pool broke its
    /// supervision protocol (a bug, since reductions are pure).
    pub fn serve_segment(&mut self, requests: &[Request], drain: bool) -> Result<(), HadasError> {
        let engine = self.engine;
        let overhead_s = engine.config.batch_overhead_ms * 1e-3;
        let n_modes = engine.modes.len();
        let ladder_hw = engine.hadas.device().ladder();
        let exit_cap = engine.config.brownout.map_or(0, |b| b.max_exit_depth);
        let scenario = engine.config.scenario.as_ref();
        let s = &mut self.state;
        s.offered += requests.len();

        let mut jobs: Vec<BatchJob> = Vec::new();
        let mut i = 0usize; // next arrival index within this segment

        while i < requests.len() || (drain && !self.batcher.is_empty()) {
            let earliest_free = s.worker_free_s.iter().copied().fold(f64::INFINITY, f64::min);
            if self.batcher.is_empty() {
                // Jump the clock to the next arrival and admit or shed it.
                let r = requests[i];
                i += 1;
                s.now_s = s.now_s.max(r.time_s);
                admit_one(
                    r,
                    earliest_free,
                    overhead_s,
                    &engine.modes[s.current_mode],
                    &mut self.batcher,
                    &self.brownout,
                    &mut s.shed,
                    &mut s.rejected,
                );
                continue;
            }
            let (lane, free) = s
                .worker_free_s
                .iter()
                .copied()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map_or((0, 0.0), |x| x);
            let start_if_now = s.now_s.max(free);
            // Early-exit-aware service estimate: price the planned batch
            // through the current mode's exit thresholds.
            let est_service_s = overhead_s
                + self
                    .batcher
                    .plan()
                    .iter()
                    .map(|r| engine.modes[s.current_mode].serve(r.difficulty).cost.latency_s)
                    .sum::<f64>();
            let next_arrival = requests.get(i).map(|r| r.time_s);
            if i < requests.len()
                && !self.batcher.should_dispatch(start_if_now, est_service_s, next_arrival)
            {
                // Slack remains: absorb the next arrival first.
                let r = requests[i];
                i += 1;
                s.now_s = s.now_s.max(r.time_s);
                admit_one(
                    r,
                    earliest_free,
                    overhead_s,
                    &engine.modes[s.current_mode],
                    &mut self.batcher,
                    &self.brownout,
                    &mut s.shed,
                    &mut s.rejected,
                );
                continue;
            }
            if i >= requests.len() && !drain {
                // Segment barrier: the queue freezes and rides the
                // session state across the swap.
                break;
            }

            // Dispatch: control decision first (once per window).
            let mut start = start_if_now;
            if start >= s.next_control_s {
                let recent = if s.win_latencies_ms.is_empty() {
                    0.0
                } else {
                    s.win_latencies_ms.iter().sum::<f64>() / s.win_latencies_ms.len() as f64
                };
                let pressure = if s.win_completed == 0 {
                    0.0
                } else {
                    s.win_violations as f64 / s.win_completed as f64
                };
                s.win_latencies_ms.clear();
                s.win_completed = 0;
                s.win_violations = 0;
                // Seasonal drift and episodic throttles compose by
                // taking the tighter cap.
                let cap = self
                    .injector
                    .as_ref()
                    .map_or(1.0, |f| f.thermal_cap_at(start))
                    .min(scenario.map_or(1.0, |sc| sc.thermal_cap_at(start)));
                if cap < 1.0 {
                    s.throttled_windows += 1;
                }
                let tier = match self.brownout.as_mut() {
                    Some(l) => l.observe(self.batcher.len(), pressure, cap),
                    None => BrownoutTier::Normal,
                };
                // Telemetry emission: what the health channel carries for
                // this window. A gray fault may freeze, corrupt, or drop
                // the sample — the *device* keeps governing on its true
                // local readings; only the fleet-visible channel lies.
                let window = s.windows_opened;
                s.windows_opened += 1;
                let truth = HealthSample {
                    window,
                    at_s: start,
                    queue_depth: self.batcher.len(),
                    tier,
                    thermal_cap: cap,
                    slo_pressure: pressure,
                };
                let defect = self
                    .gray
                    .as_ref()
                    .map_or(GrayDefect::Clean, |g| g.telemetry_defect_at(g.device, window));
                let emitted = match defect {
                    GrayDefect::Clean => Some(truth),
                    // A hung sensor daemon replays its last reading
                    // verbatim; before anything was emitted it stays mute.
                    GrayDefect::Stale => self.sanitizer.last(),
                    // Finite-but-absurd garbage: serde round-trips it
                    // (unlike NaN), the sanitizer still tags it.
                    GrayDefect::Corrupt => Some(HealthSample {
                        queue_depth: IMPLAUSIBLE_QUEUE_DEPTH + truth.queue_depth + 1,
                        thermal_cap: 2.5,
                        slo_pressure: -1.0,
                        ..truth
                    }),
                    GrayDefect::Drop => None,
                };
                if let Some(sample) = emitted {
                    for d in self.sanitizer.screen(&sample) {
                        s.telemetry_defects.record(d);
                    }
                    s.health.push(sample);
                }
                let state = PolicyState::loaded(start, recent, self.batcher.len(), pressure)
                    .with_thermal_cap(cap);
                let choice = engine.governor.select(&state, n_modes).min(n_modes - 1);
                let choice = apply_brownout(choice, tier, n_modes);
                // The SoC's governor has the last word, exactly as in the
                // closed-loop simulator.
                let enforced = enforce_thermal_cap(ladder_hw, &engine.modes, choice, cap);
                s.window_degraded = enforced != choice;
                if enforced != s.current_mode {
                    s.mode_switches += 1;
                    s.switch_energy_j += engine.config.sim.switch_energy_j;
                    start += engine.config.sim.switch_latency_s;
                    s.current_mode = enforced;
                }
                s.next_control_s = start + engine.config.sim.control_window_s;
            }

            let batch = self.batcher.take_batch();
            if batch.is_empty() {
                break; // unreachable by construction; never spin
            }
            let tier = self.brownout.as_ref().map_or(BrownoutTier::Normal, BrownoutLadder::tier);
            let outcomes: Vec<_> = if tier.forces_early_exit() {
                batch
                    .iter()
                    .map(|r| engine.modes[s.current_mode].serve_capped(r.difficulty, exit_cap))
                    .collect()
            } else {
                batch.iter().map(|r| engine.modes[s.current_mode].serve(r.difficulty)).collect()
            };
            // A gray-degraded device is *genuinely* slow: real service
            // time inflates while the modeled mode costs (admission and
            // batching estimates) stay nominal — exactly the
            // modeled-vs-observed divergence the fleet detector hunts.
            let slowdown = self
                .gray
                .as_ref()
                .map_or(1.0, |g| g.slowdown_at(g.device, s.windows_opened.saturating_sub(1)));
            let service_s =
                (overhead_s + outcomes.iter().map(|o| o.cost.latency_s).sum::<f64>()) * slowdown;
            let finish = start + service_s;
            s.worker_free_s[lane] = finish;
            s.makespan_s = s.makespan_s.max(finish);
            s.degraded_batches += usize::from(s.window_degraded);
            for r in &batch {
                s.win_completed += 1;
                s.win_latencies_ms.push((finish - r.time_s) * 1e3);
                s.win_violations += usize::from(finish > r.deadline_s + 1e-12);
            }
            let sag = self.injector.as_ref().map_or(1.0, |f| f.sag_multiplier_at(start));
            jobs.push(BatchJob {
                seq: s.seq,
                worker: lane,
                mode: s.current_mode,
                finish_s: finish,
                sag,
                requests: batch,
                outcomes,
            });
            s.seq += 1;
            s.now_s = start;
        }

        // Segment barrier: execution-plane chaos is resolved into a pure
        // recovery script *before* any worker thread runs — the
        // supervisor acts it out, it never improvises on wall-clock
        // timing. Chaos keys are batch sequence numbers, which are
        // global across segments.
        let plan = self.chaos.as_ref().map(|inj| {
            serve_chaos_plan(
                inj,
                &engine.config.retry,
                CircuitBreaker::new(
                    engine.config.breaker_threshold,
                    engine.config.breaker_cooldown,
                ),
                engine.config.hedge_factor,
                engine.config.batch_overhead_ms,
                &jobs,
            )
        });

        // Shard the reduction across the supervised pool, then fold in
        // schedule order.
        let exit_slots = engine.exit_slots();
        let (results, telemetry) =
            run_pool(jobs, engine.config.workers, exit_slots, plan.as_ref())?;
        s.batches += results.len();
        for r in &results {
            s.served += r.size;
            s.correct += r.correct;
            s.energy_j += r.energy_j;
            s.sag_energy_j += r.sag_energy_j;
            for &l in &r.latencies_ms {
                s.latencies.record(l);
                s.latency_sum_ms += l;
            }
            s.violations += r.violations;
            s.interactive_served += r.interactive.0;
            s.interactive_violations += r.interactive.1;
            s.bulk_served += r.bulk.0;
            s.bulk_violations += r.bulk.1;
            for (acc, &c) in s.exit_counts.iter_mut().zip(r.exit_hist.iter()) {
                *acc += c;
            }
            let occ = s.mode_occupancy.len();
            s.mode_occupancy[r.mode.min(occ - 1)] += r.size;
            s.per_worker_served[r.worker.min(engine.config.workers - 1)] += r.size;
        }
        s.dead_lettered += telemetry.dead_letter_units;
        self.telemetry.merge(&telemetry);
        Ok(())
    }

    /// Closes the session and folds the accumulated state into the
    /// final [`ServeTrace`]. The report's header fields (governor,
    /// workers, seed, …) come from the engine the session *ended* on.
    pub fn finish(self) -> ServeTrace {
        let engine = self.engine;
        let s = self.state();
        let denom = s.served.max(1) as f64;
        let report = ServeReport {
            schema: crate::SERVE_REPORT_SCHEMA,
            fingerprint: 0,
            governor: engine.governor.name().to_string(),
            workers: engine.config.workers,
            rps: engine.config.rps,
            duration_s: engine.config.duration_s,
            seed: engine.config.seed,
            offered: s.offered,
            served: s.served,
            shed: s.shed,
            rejected: s.rejected,
            dead_lettered: s.dead_lettered,
            batches: s.batches,
            mean_batch_size: s.served as f64 / s.batches.max(1) as f64,
            makespan_s: s.makespan_s,
            throughput_rps: s.served as f64 / s.makespan_s.max(engine.config.duration_s),
            accuracy_pct: if s.served > 0 {
                s.correct as f64 / s.served as f64 * 100.0
            } else {
                0.0
            },
            energy_j: s.switch_energy_j + s.energy_j,
            sag_energy_j: s.sag_energy_j,
            latency: s.latencies.summary(),
            slo: SloSummary {
                target_ms: engine.config.slo_ms,
                violations: s.violations,
                violation_rate: s.violations as f64 / denom,
                interactive_served: s.interactive_served,
                interactive_violations: s.interactive_violations,
                bulk_served: s.bulk_served,
                bulk_violations: s.bulk_violations,
            },
            exit_fractions: s.exit_counts.iter().map(|&c| c as f64 / denom).collect(),
            mode_occupancy: s.mode_occupancy.iter().map(|&c| c as f64 / denom).collect(),
            mode_switches: s.mode_switches,
            degraded_batches: s.degraded_batches,
            throttled_windows: s.throttled_windows,
            per_worker_served: s.per_worker_served.clone(),
            brownout: self
                .brownout
                .as_ref()
                .map_or_else(BrownoutSummary::disabled, BrownoutLadder::summary),
            telemetry: TelemetryIntegrity {
                windows_opened: s.windows_opened,
                samples_emitted: s.health.len(),
                dropped_windows: s.windows_opened.saturating_sub(s.health.len()),
                defects: s.telemetry_defects,
            },
        };
        ServeTrace { report, latencies: s.latencies, health: s.health, telemetry: self.telemetry }
    }
}
