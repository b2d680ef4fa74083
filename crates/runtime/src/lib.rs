//! # hadas-runtime
//!
//! The deployment side of "Edge Performance Scaling": a discrete-event
//! simulator for a HADAS dynamic model serving a *time-varying* input
//! stream on a battery-powered edge device.
//!
//! The paper motivates dynamic networks with exactly this runtime picture
//! (§I): deployed-in-the-wild devices face shifting data difficulty and a
//! changing system state such as the battery's state of charge. This
//! crate closes that loop:
//!
//! * [`WorkloadTrace`] — an arrival stream whose difficulty distribution
//!   drifts through easy/mixed/hard regimes; [`ArrivalStream`] yields the
//!   same arrivals one at a time.
//! * [`Battery`] — a simple state-of-charge model the simulator drains.
//! * [`OperatingMode`] — one deployable HADAS configuration (exits +
//!   DVFS + controller thresholds); a deployment ships several, e.g.
//!   *performance*, *balanced*, and *eco* points from the Pareto set.
//! * [`ScalingPolicy`] — when to switch modes: [`StaticPolicy`] pins one,
//!   [`SocPolicy`] steps down as the battery drains (the DVFS-style
//!   governor of the paper's runtime-controller discussion).
//! * [`RuntimeSimulator`] — serves the trace, accounting per-inference
//!   energy/latency from `hadas-hw` (including mode-switch overheads) and
//!   correctness from the capability model.
//!
//! ```no_run
//! use hadas_runtime::{RuntimeSimulator, SocPolicy, TraceConfig, WorkloadTrace};
//! # use hadas::{Hadas, HadasConfig};
//! # use hadas_hw::HwTarget;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
//! let outcome = hadas.run(&HadasConfig::smoke_test())?;
//! let modes = hadas_runtime::modes_from_pareto(&hadas, &outcome, 3)?;
//! let trace = WorkloadTrace::generate(&TraceConfig::default(), 11);
//! let sim = RuntimeSimulator::new(&hadas, modes);
//! let report = sim.run(&trace, &SocPolicy::thirds(), 200.0)?;
//! println!("served {} inputs at {:.2}% accuracy", report.served, report.accuracy_pct);
//! # Ok(())
//! # }
//! ```

mod battery;
mod faults;
/// The supervised parallel execution plane (re-exported from `hadas`):
/// supervision, hedging, retry-on-rotated-lane, circuit breaking, and
/// seq-ordered deterministic reduction, shared by the serve pool and
/// the OOE/IOE search engines. [`FaultInjector`] implements its
/// [`executor::FateResolver`] so one chaos source scripts both planes.
pub use hadas::executor;
pub mod latency;
mod modes;
mod policy;
mod scenario;
mod sim;
mod trace;

pub use battery::Battery;
pub use faults::{
    FaultConfig, FaultEpisode, FaultInjector, GrayDefect, GrayFaultConfig, GrayFaultKind,
};
pub use latency::{Histogram, LatencySummary};
pub use modes::{enforce_thermal_cap, modes_from_pareto, OperatingMode, ServeOutcome};
pub use policy::{
    DegradePolicy, LatencyPolicy, PolicyState, ScalingPolicy, SocPolicy, StaticPolicy,
};
pub use scenario::{Scenario, ScenarioKind, SCENARIO_NAMES};
pub use sim::{RuntimeReport, RuntimeSimulator, SimConfig};
pub use trace::{Arrival, ArrivalStream, Regime, TraceConfig, WorkloadTrace};
