//! # hadas-serve
//!
//! The open-loop serving side of "Edge Performance Scaling": a
//! multi-worker inference server for a deployed HADAS outcome — a
//! backbone with early exits, the Pareto mode ladder, and a DVFS
//! governor — driven by a seeded Poisson/burst arrival stream.
//!
//! Where [`hadas_runtime`]'s closed-loop simulator serves each arrival to
//! completion before considering the next (the battery-budget story),
//! this crate models the *throughput* story: requests queue, batches
//! form, deadlines bind, and the governor reacts to load instead of
//! charge. Components:
//!
//! * [`generate_requests`] — the arrival stream: Poisson-ish arrivals
//!   with drifting difficulty regimes (and burst fault episodes), each
//!   tagged with an SLO class and absolute deadline. [`request_stream`]
//!   yields it one request at a time, and [`EpochFeed`] cuts it into
//!   epoch slices generated one epoch ahead on a thread of its own.
//! * [`Batcher`] — deadline-aware dynamic batching: EDF across SLO
//!   classes, FIFO within, size-or-slack closing with an early-exit-aware
//!   service estimate.
//! * Admission control — requests whose deadline is infeasible under the
//!   current backlog are shed at arrival, keeping the queue bounded.
//! * [`QueuePolicy`] and [`build_governor`] — queue-depth/SLO-pressure
//!   DVFS governors built on [`hadas_runtime::ScalingPolicy`], always
//!   wrapped in thermal-cap-aware degradation.
//! * [`ServeEngine`] — the virtual-time scheduler plus a *supervised*
//!   sharded reduction pool over vendored crossbeam channels; results are
//!   tagged with schedule order and folded deterministically, so a fixed
//!   seed yields a byte-identical [`ServeReport`] for any worker count.
//!   Under injected execution chaos (`ServeConfig::chaos`) the supervisor
//!   respawns crashed workers, re-dispatches lost batches, retries
//!   transient failures, and hedges stragglers — and the recovered report
//!   stays byte-identical to the fault-free one whenever nothing
//!   dead-letters ([`ServeEngine::run_instrumented`] exposes the healing
//!   counters out-of-band as [`hadas::ExecTelemetry`]).
//! * [`BrownoutLadder`] — explicit overload degradation tiers
//!   (shed bulk → force early exits → reject admissions) with hysteresis,
//!   keeping interactive tail latency bounded under bursts instead of
//!   letting it collapse.
//! * [`ServeSession`] / [`SessionState`] — the zero-drop swap protocol:
//!   a run pauses at a segment barrier, exports its complete state
//!   (in-flight queues, batcher, brownout ladder, histograms), and the
//!   state moves as it is into a session under a *different* operating
//!   ladder — without dropping a single queued request. The fleet plane's
//!   live reconfiguration is built on exactly this seam.
//!   [`EngineSnapshot`] seals a state as a schema-versioned, fingerprinted
//!   snapshot ([`hadas::seal`]); no serving path needs it.
//!
//! ```no_run
//! use hadas_serve::{ServeConfig, ServeEngine};
//! # use hadas::{Hadas, HadasConfig};
//! # use hadas_hw::HwTarget;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
//! let outcome = hadas.run(&HadasConfig::smoke_test())?;
//! let modes = hadas_runtime::modes_from_pareto(&hadas, &outcome, 3)?;
//! let config = ServeConfig { rps: 120.0, workers: 2, ..ServeConfig::default() };
//! let report = ServeEngine::new(&hadas, modes, config)?.run()?;
//! println!("{:.1} req/s at p99 {:.1} ms", report.throughput_rps, report.latency.p99_ms);
//! # Ok(())
//! # }
//! ```

mod batch;
mod brownout;
mod config;
mod engine;
mod governor;
mod pool;
mod report;
mod request;
mod snapshot;
mod telemetry;

pub use batch::Batcher;
pub use brownout::{
    BrownoutConfig, BrownoutLadder, BrownoutState, BrownoutSummary, BrownoutTier, BROWNOUT_TIERS,
};
pub use config::{GovernorKind, ServeConfig};
pub use engine::{HealthSample, ServeEngine, ServeSession, ServeTrace, SessionState};
pub use governor::{apply_brownout, build_governor, QueuePolicy};
pub use hadas::seal::fingerprint64;
pub use report::{
    accounting_balances, ServeReport, SloSummary, TelemetryIntegrity, SERVE_REPORT_SCHEMA,
};
pub use request::{generate_requests, request_stream, EpochFeed, Request, SloClass};
pub use snapshot::{EngineSnapshot, SWAP_SNAPSHOT_SCHEMA};
pub use telemetry::{
    TelemetryCounters, TelemetryDefect, TelemetrySanitizer, IMPLAUSIBLE_QUEUE_DEPTH,
};
