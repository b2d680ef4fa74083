//! # hadas-fleet — deterministic multi-device fleet serving
//!
//! Fleet-scale serving for the HADAS reproduction: N heterogeneous
//! device units — the four calibrated hardware profiles × per-replica
//! DVFS governor states, each wrapping a [`hadas_serve::ServeEngine`] —
//! driven in shared deterministic virtual time under a global
//! latency/energy-aware router and supervised through the core
//! executor.
//!
//! The plane decomposes into:
//!
//! - **Specs** ([`parse_device_spec`] / [`canonical_spec`]): the CLI
//!   grammar `agx-gpu:2,tx2-gpu:4` (or `mixed:N`) for the device mix.
//! - **Planes** ([`build_planes`], [`DevicePlane`]): one bi-level
//!   search per distinct hardware target; replicas share the searched
//!   mode ladder and differentiate by governor rotation.
//! - **Router** ([`RouterSummary`]): a pure, single-threaded admission
//!   pass routing every arrival by SLO class, estimated
//!   latency/energy cost, and modeled device health, composing with
//!   each unit's own brownout ladder.
//! - **Units** ([`DeviceHealthReport`], [`DeviceSummary`]): each
//!   device runs as one supervised executor job; crashes respawn with
//!   seq-preserving re-dispatch, exhausted budgets dead-letter the
//!   unit, and periodic health samples condense per unit.
//! - **Engine** ([`FleetEngine`] → [`FleetRun`] / [`FleetReport`]):
//!   takes each epoch's arrivals from a [`hadas_serve::EpochFeed`]
//!   that generates them one epoch ahead on a thread of its own,
//!   schedules single-threaded, executes under the supervisor, folds
//!   in device order.
//! - **Reconfiguration** ([`ReconfigConfig`] → [`ReconfigSummary`]):
//!   with `FleetConfig::reconfigure` on, a hysteresis controller reads
//!   per-device epoch pressure (SLO violations, thermal caps, battery
//!   state-of-charge under the drift [`hadas_runtime::Scenario`]) and
//!   slides each device's operating window along the full searched
//!   Pareto front via zero-drop swaps: the device's
//!   [`hadas_serve::SessionState`] moves, queue and all, into the new
//!   window's engine, behind a queue-length check; substrate swap
//!   failures leave the device on its old window.
//!
//! Determinism contract: the serialized [`FleetReport`] is
//! byte-identical across fleet worker counts and byte-identical to the
//! fault-free run under injected unit crashes whenever zero units
//! dead-letter; supervision effort stays out-of-band in
//! [`FleetRun::telemetry`].

mod config;
mod engine;
mod health;
mod reconfig;
mod report;
mod router;
mod spec;
mod unit;

pub use config::{FleetConfig, GOVERNOR_ROTATION};
pub use engine::{build_planes, DevicePlane, FleetEngine, FleetRun};
pub use health::{
    judge, DetectionConfig, DetectionSummary, EpochEvidence, HealthMachine, HealthPolicy,
    HealthState, HealthTransition, Verdict,
};
pub use reconfig::{
    decide_anchor, AnchorDecision, EpochPressure, ReconfigConfig, ReconfigSummary, RECONFIG_WINDOW,
};
pub use report::{FleetReport, FLEET_REPORT_SCHEMA};
pub use router::{DeviceEstimate, LaneState, RouterSummary};
pub use spec::{canonical_spec, parse_device_spec};
pub use unit::{DeviceHealthReport, DeviceSummary};
