use hadas::{EngineBudget, HadasConfig};
use hadas_hw::HwTarget;
use std::error::Error;
use std::fmt;

/// Search budget presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Seconds-scale budgets (default).
    #[default]
    Quick,
    /// Minutes-scale budgets preserving the paper's shapes.
    Mid,
    /// The paper's published budgets (OOE 450 / IOE 3500 iterations).
    Paper,
}

impl Scale {
    /// The corresponding engine configuration.
    pub fn config(self) -> HadasConfig {
        let mut cfg = HadasConfig::paper();
        match self {
            Scale::Quick => {
                cfg.ooe = EngineBudget::new(12, 60);
                cfg.ioe = EngineBudget::new(16, 96);
            }
            Scale::Mid => {
                cfg.ooe = EngineBudget::new(16, 128);
                cfg.ioe = EngineBudget::new(24, 240);
            }
            Scale::Paper => {}
        }
        cfg
    }
}

/// Errors produced while parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCliError(pub String);

impl fmt::Display for ParseCliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ParseCliError {}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the four hardware targets and their DVFS ladders.
    Devices,
    /// Print the a0..a6 static table on one target.
    Baselines {
        /// Hardware target.
        target: HwTarget,
    },
    /// Run the full bi-level search.
    Search {
        /// Hardware target.
        target: HwTarget,
        /// Budget preset.
        scale: Scale,
        /// Search seed.
        seed: u64,
        /// Optional JSON output path for the Pareto set.
        json: Option<String>,
        /// Write a resumable checkpoint here at every generation
        /// boundary (e.g. `results/checkpoint.json`).
        checkpoint: Option<String>,
        /// Resume from the checkpoint at this path (and keep
        /// checkpointing to it).
        resume: Option<String>,
        /// Stop after this many generations *this call* (the chaos
        /// workflow's deterministic kill point) and emit a partial front.
        max_generations: Option<usize>,
        /// Inject substrate faults into candidate scoring with this
        /// fault seed (transient failures, timeouts; retried with
        /// backoff, degraded on exhaustion).
        faults: Option<u64>,
        /// Inject deterministic data-plane chaos into candidate
        /// evaluations with this seed: a fixed fraction of fitness
        /// measurements comes back NaN and must be quarantined to the
        /// finite worst-case penalty without perturbing the rest of
        /// the front.
        data_chaos: Option<u64>,
        /// Worker lanes for the supervised evaluation phases (static
        /// population evals and nested IOE runs). `0` auto-sizes to
        /// the host; any value yields a byte-identical front.
        workers: usize,
        /// Inject execution-plane chaos (worker crashes, dispatch
        /// failures, stragglers) into the supervised executor with
        /// this seed; crashed lanes respawn and lost evaluations
        /// re-dispatch so the healed front matches the fault-free one.
        chaos: Option<u64>,
    },
    /// Train the weight-sharing micro-supernet under the divergence
    /// guard (numeric sentinels, epoch checkpoint/rollback, poisoned-
    /// sample quarantine).
    Train {
        /// Training epochs.
        epochs: usize,
        /// Batch size.
        batch: usize,
        /// Initial learning rate.
        lr: f32,
        /// Seed of the dataset, the weights, and the subnet sampler.
        seed: u64,
        /// Corrupt the train split with the seeded chaos injector
        /// (label flips, NaN/extreme pixels, truncated reads) before
        /// training; per-sample validation must quarantine the
        /// detectable poison.
        data_chaos: Option<u64>,
        /// Write a resumable training checkpoint here at every epoch
        /// boundary.
        checkpoint: Option<String>,
        /// Resume from the checkpoint at `--train-checkpoint` if it
        /// exists (and keep checkpointing to it).
        resume: bool,
        /// Stop after this many epochs *this call* (the chaos
        /// workflow's deterministic kill point).
        max_epochs: Option<usize>,
        /// Optional JSON output path for the train report + telemetry.
        json: Option<String>,
    },
    /// Run the inner engine on one AttentiveNAS baseline.
    Ioe {
        /// Hardware target.
        target: HwTarget,
        /// Baseline index 0..=6 (a0..a6).
        baseline: usize,
        /// Budget preset.
        scale: Scale,
        /// Search seed.
        seed: u64,
    },
    /// Audit design-space feasibility invariants (genome bounds, exit
    /// placements, DVFS monotonicity, proxy sanity) via `hadas-lint`.
    Check {
        /// Limit the hardware sweep to one target (all four if `None`).
        target: Option<HwTarget>,
    },
    /// Fit and validate a proxy cost model.
    Proxy {
        /// Hardware target.
        target: HwTarget,
        /// Device measurements to fit on.
        samples: usize,
    },
    /// Deploy a searched mode ladder behind the open-loop serving engine.
    Serve {
        /// Hardware target.
        target: HwTarget,
        /// Budget preset for the mode-producing search.
        scale: Scale,
        /// Seed of the search, arrival stream, and SLO classes.
        seed: u64,
        /// Mean offered load (requests/s).
        rps: f64,
        /// Arrival-stream length (seconds).
        duration_s: f64,
        /// Worker lanes in the pool.
        workers: usize,
        /// Maximum requests per batch.
        batch_max: usize,
        /// Interactive-class deadline (ms).
        slo_ms: f64,
        /// DVFS governor driving mode selection.
        governor: hadas_serve::GovernorKind,
        /// Inject substrate fault episodes with this fault seed.
        faults: Option<u64>,
        /// Inject execution-plane worker chaos (crashes, stragglers,
        /// transient batch failures) with this fault seed; the
        /// supervised pool must heal back to the fault-free report.
        chaos: Option<u64>,
        /// Enable the brownout degradation ladder (shed bulk → force
        /// early exits → reject admissions) under overload.
        brownout: bool,
        /// Straggler-detection multiple of the batch service estimate
        /// before a hedge is issued.
        hedge_factor: f64,
        /// Optional JSON output path for the full report.
        json: Option<String>,
    },
    /// Serve a heterogeneous device fleet under the global router and
    /// the unit supervisor.
    Fleet {
        /// One hardware target per device unit, from `--devices`
        /// (e.g. `agx-gpu:2,tx2-gpu:4` or `mixed:16`).
        devices: Vec<HwTarget>,
        /// Budget preset for the per-target mode-producing searches.
        scale: Scale,
        /// Seed of the searches, arrival stream, and SLO classes.
        seed: u64,
        /// Simulated users (arrival-stream volume; duration = users/rps).
        users: usize,
        /// Fleet-wide mean offered load (requests/s).
        rps: f64,
        /// Fleet supervisor worker lanes; any count yields a
        /// byte-identical report.
        workers: usize,
        /// Interactive-class deadline (ms).
        slo_ms: f64,
        /// Pin every device to one governor (`None` rotates the
        /// replica governor ladder).
        governor: Option<hadas_serve::GovernorKind>,
        /// Router cost weight: seconds of finish-time penalty per
        /// estimated joule.
        energy_weight: f64,
        /// Inject per-device substrate fault episodes with this seed.
        faults: Option<u64>,
        /// Inject unit-level chaos (device crashes, stragglers) with
        /// this seed; supervision must heal back to the fault-free
        /// report whenever nothing dead-letters.
        chaos: Option<u64>,
        /// Workload-drift scenario name driving the arrival stream and
        /// every device's thermal substrate (`None` = calm workload;
        /// see [`hadas_runtime::SCENARIO_NAMES`]).
        scenario: Option<String>,
        /// Run the live reconfiguration controller: epoch-wise
        /// operating-point swaps along each device's Pareto front,
        /// zero-drop: each device's queue moves with its session state.
        reconfigure: bool,
        /// Inject gray telemetry failures (frozen/corrupt/dropped
        /// health samples, silent slowdowns, flapping) with this seed.
        gray_faults: Option<u64>,
        /// Gray-fault kind to inject (see
        /// [`hadas_runtime::GrayFaultKind`]; `mix` assigns per device).
        gray_kind: hadas_runtime::GrayFaultKind,
        /// Run the online gray-failure detector: telemetry sanitation,
        /// per-device health state machines, quarantine-aware routing.
        detection: bool,
        /// Optional JSON output path for the full fleet report.
        json: Option<String>,
    },
    /// Print usage.
    Help,
}

fn parse_target(s: &str) -> Result<HwTarget, ParseCliError> {
    HwTarget::parse_cli(s).ok_or_else(|| {
        ParseCliError(format!(
            "unknown target '{s}' (expected agx-gpu, agx-cpu, tx2-gpu, or tx2-cpu)"
        ))
    })
}

fn parse_scale(s: &str) -> Result<Scale, ParseCliError> {
    match s {
        "quick" => Ok(Scale::Quick),
        "mid" => Ok(Scale::Mid),
        "paper" => Ok(Scale::Paper),
        other => {
            Err(ParseCliError(format!("unknown scale '{other}' (expected quick, mid, or paper)")))
        }
    }
}

/// Every flag `hadas fleet` accepts; the help text documents each one.
pub(crate) const FLEET_FLAGS: &[&str] = &[
    "devices",
    "scale",
    "seed",
    "users",
    "rps",
    "workers",
    "slo-ms",
    "governor",
    "energy-weight",
    "faults",
    "chaos",
    "scenario",
    "reconfigure",
    "gray-faults",
    "gray-kind",
    "detection",
    "json",
];

/// Reads `--flag value` pairs out of `rest`, erroring on unknown flags.
fn take_flags<'a>(
    rest: &'a [String],
    allowed: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, ParseCliError> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        if !flag.starts_with("--") {
            return Err(ParseCliError(format!("expected a --flag, got '{flag}'")));
        }
        let name = &flag[2..];
        if !allowed.contains(&name) {
            return Err(ParseCliError(format!(
                "unknown flag '--{name}' (allowed: {})",
                allowed.iter().map(|a| format!("--{a}")).collect::<Vec<_>>().join(", ")
            )));
        }
        let value = rest
            .get(i + 1)
            .ok_or_else(|| ParseCliError(format!("flag '--{name}' needs a value")))?;
        out.push((name, value.as_str()));
        i += 2;
    }
    Ok(out)
}

fn flag<'a>(flags: &[(&'a str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

impl Command {
    /// Parses an argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ParseCliError`] with a user-facing message on malformed
    /// input.
    pub fn parse(args: &[String]) -> Result<Command, ParseCliError> {
        let Some(sub) = args.first() else {
            return Ok(Command::Help);
        };
        let rest = &args[1..];
        match sub.as_str() {
            "help" | "--help" | "-h" => Ok(Command::Help),
            "devices" => {
                take_flags(rest, &[])?;
                Ok(Command::Devices)
            }
            "baselines" => {
                let flags = take_flags(rest, &["target"])?;
                let target = parse_target(
                    flag(&flags, "target")
                        .ok_or_else(|| ParseCliError("baselines requires --target".into()))?,
                )?;
                Ok(Command::Baselines { target })
            }
            "search" => {
                let flags = take_flags(
                    rest,
                    &[
                        "target",
                        "scale",
                        "seed",
                        "json",
                        "checkpoint",
                        "resume",
                        "max-generations",
                        "faults",
                        "data-chaos",
                        "workers",
                        "chaos",
                    ],
                )?;
                let target = parse_target(
                    flag(&flags, "target")
                        .ok_or_else(|| ParseCliError("search requires --target".into()))?,
                )?;
                let scale =
                    flag(&flags, "scale").map(parse_scale).transpose()?.unwrap_or_default();
                let seed = flag(&flags, "seed")
                    .map(|s| s.parse::<u64>().map_err(|e| ParseCliError(format!("bad seed: {e}"))))
                    .transpose()?
                    .unwrap_or(7);
                let max_generations = flag(&flags, "max-generations")
                    .map(|s| {
                        s.parse::<usize>()
                            .map_err(|e| ParseCliError(format!("bad max-generations: {e}")))
                    })
                    .transpose()?;
                let faults = flag(&flags, "faults")
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|e| ParseCliError(format!("bad fault seed: {e}")))
                    })
                    .transpose()?;
                let data_chaos = flag(&flags, "data-chaos")
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|e| ParseCliError(format!("bad data-chaos seed: {e}")))
                    })
                    .transpose()?;
                let workers = flag(&flags, "workers")
                    .map(|s| {
                        s.parse::<usize>().map_err(|e| ParseCliError(format!("bad workers: {e}")))
                    })
                    .transpose()?
                    .unwrap_or(0);
                let chaos = flag(&flags, "chaos")
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|e| ParseCliError(format!("bad chaos seed: {e}")))
                    })
                    .transpose()?;
                Ok(Command::Search {
                    target,
                    scale,
                    seed,
                    json: flag(&flags, "json").map(str::to_string),
                    checkpoint: flag(&flags, "checkpoint").map(str::to_string),
                    resume: flag(&flags, "resume").map(str::to_string),
                    max_generations,
                    faults,
                    data_chaos,
                    workers,
                    chaos,
                })
            }
            "train" => {
                let flags = take_flags(
                    rest,
                    &[
                        "epochs",
                        "batch",
                        "lr",
                        "seed",
                        "data-chaos",
                        "train-checkpoint",
                        "resume-train",
                        "max-epochs",
                        "json",
                    ],
                )?;
                let epochs = flag(&flags, "epochs")
                    .map(|s| {
                        s.parse::<usize>().map_err(|e| ParseCliError(format!("bad epochs: {e}")))
                    })
                    .transpose()?
                    .unwrap_or(4);
                let batch = flag(&flags, "batch")
                    .map(|s| {
                        s.parse::<usize>().map_err(|e| ParseCliError(format!("bad batch: {e}")))
                    })
                    .transpose()?
                    .unwrap_or(16);
                let lr = flag(&flags, "lr")
                    .map(|s| s.parse::<f32>().map_err(|e| ParseCliError(format!("bad lr: {e}"))))
                    .transpose()?
                    .unwrap_or(0.05);
                let seed = flag(&flags, "seed")
                    .map(|s| s.parse::<u64>().map_err(|e| ParseCliError(format!("bad seed: {e}"))))
                    .transpose()?
                    .unwrap_or(7);
                let data_chaos = flag(&flags, "data-chaos")
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|e| ParseCliError(format!("bad data-chaos seed: {e}")))
                    })
                    .transpose()?;
                let max_epochs = flag(&flags, "max-epochs")
                    .map(|s| {
                        s.parse::<usize>()
                            .map_err(|e| ParseCliError(format!("bad max-epochs: {e}")))
                    })
                    .transpose()?;
                let resume = flag(&flags, "resume-train")
                    .map(|s| match s {
                        "on" => Ok(true),
                        "off" => Ok(false),
                        other => Err(ParseCliError(format!(
                            "bad resume-train '{other}' (expected on or off)"
                        ))),
                    })
                    .transpose()?
                    .unwrap_or(false);
                let checkpoint = flag(&flags, "train-checkpoint").map(str::to_string);
                if resume && checkpoint.is_none() {
                    return Err(ParseCliError(
                        "--resume-train on requires --train-checkpoint PATH".into(),
                    ));
                }
                Ok(Command::Train {
                    epochs,
                    batch,
                    lr,
                    seed,
                    data_chaos,
                    checkpoint,
                    resume,
                    max_epochs,
                    json: flag(&flags, "json").map(str::to_string),
                })
            }
            "ioe" => {
                let flags = take_flags(rest, &["target", "baseline", "scale", "seed"])?;
                let target = parse_target(
                    flag(&flags, "target")
                        .ok_or_else(|| ParseCliError("ioe requires --target".into()))?,
                )?;
                let baseline_str = flag(&flags, "baseline").unwrap_or("a0");
                let baseline = baseline_str
                    .strip_prefix('a')
                    .and_then(|d| d.parse::<usize>().ok())
                    .filter(|&i| i <= 6)
                    .ok_or_else(|| {
                        ParseCliError(format!("bad baseline '{baseline_str}' (expected a0..a6)"))
                    })?;
                let scale =
                    flag(&flags, "scale").map(parse_scale).transpose()?.unwrap_or_default();
                let seed = flag(&flags, "seed")
                    .map(|s| s.parse::<u64>().map_err(|e| ParseCliError(format!("bad seed: {e}"))))
                    .transpose()?
                    .unwrap_or(7);
                Ok(Command::Ioe { target, baseline, scale, seed })
            }
            "check" => {
                let flags = take_flags(rest, &["target"])?;
                let target = flag(&flags, "target").map(parse_target).transpose()?;
                Ok(Command::Check { target })
            }
            "proxy" => {
                let flags = take_flags(rest, &["target", "samples"])?;
                let target = parse_target(
                    flag(&flags, "target")
                        .ok_or_else(|| ParseCliError("proxy requires --target".into()))?,
                )?;
                let samples = flag(&flags, "samples")
                    .map(|s| {
                        s.parse::<usize>().map_err(|e| ParseCliError(format!("bad samples: {e}")))
                    })
                    .transpose()?
                    .unwrap_or(3_000);
                Ok(Command::Proxy { target, samples })
            }
            "serve" => {
                let flags = take_flags(
                    rest,
                    &[
                        "target",
                        "scale",
                        "seed",
                        "rps",
                        "duration",
                        "workers",
                        "batch-max",
                        "slo-ms",
                        "governor",
                        "faults",
                        "chaos",
                        "brownout",
                        "hedge-factor",
                        "json",
                    ],
                )?;
                let target = parse_target(
                    flag(&flags, "target")
                        .ok_or_else(|| ParseCliError("serve requires --target".into()))?,
                )?;
                let scale =
                    flag(&flags, "scale").map(parse_scale).transpose()?.unwrap_or_default();
                let seed = flag(&flags, "seed")
                    .map(|s| s.parse::<u64>().map_err(|e| ParseCliError(format!("bad seed: {e}"))))
                    .transpose()?
                    .unwrap_or(7);
                let rps = flag(&flags, "rps")
                    .map(|s| s.parse::<f64>().map_err(|e| ParseCliError(format!("bad rps: {e}"))))
                    .transpose()?
                    .unwrap_or(150.0);
                let duration_s = flag(&flags, "duration")
                    .map(|s| {
                        s.parse::<f64>().map_err(|e| ParseCliError(format!("bad duration: {e}")))
                    })
                    .transpose()?
                    .unwrap_or(10.0);
                let workers = flag(&flags, "workers")
                    .map(|s| {
                        s.parse::<usize>().map_err(|e| ParseCliError(format!("bad workers: {e}")))
                    })
                    .transpose()?
                    .unwrap_or(2);
                let batch_max = flag(&flags, "batch-max")
                    .map(|s| {
                        s.parse::<usize>().map_err(|e| ParseCliError(format!("bad batch-max: {e}")))
                    })
                    .transpose()?
                    .unwrap_or(8);
                let slo_ms = flag(&flags, "slo-ms")
                    .map(|s| {
                        s.parse::<f64>().map_err(|e| ParseCliError(format!("bad slo-ms: {e}")))
                    })
                    .transpose()?
                    .unwrap_or(120.0);
                let governor = flag(&flags, "governor")
                    .map(|s| {
                        hadas_serve::GovernorKind::parse(s).ok_or_else(|| {
                            ParseCliError(format!(
                                "unknown governor '{s}' (expected static, latency, or queue)"
                            ))
                        })
                    })
                    .transpose()?
                    .unwrap_or(hadas_serve::GovernorKind::Queue);
                let faults = flag(&flags, "faults")
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|e| ParseCliError(format!("bad fault seed: {e}")))
                    })
                    .transpose()?;
                let chaos = flag(&flags, "chaos")
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|e| ParseCliError(format!("bad chaos seed: {e}")))
                    })
                    .transpose()?;
                let brownout = flag(&flags, "brownout")
                    .map(|s| match s {
                        "on" => Ok(true),
                        "off" => Ok(false),
                        other => Err(ParseCliError(format!(
                            "bad brownout '{other}' (expected on or off)"
                        ))),
                    })
                    .transpose()?
                    .unwrap_or(false);
                let hedge_factor = flag(&flags, "hedge-factor")
                    .map(|s| {
                        s.parse::<f64>()
                            .map_err(|e| ParseCliError(format!("bad hedge-factor: {e}")))
                    })
                    .transpose()?
                    .unwrap_or(3.0);
                Ok(Command::Serve {
                    target,
                    scale,
                    seed,
                    rps,
                    duration_s,
                    workers,
                    batch_max,
                    slo_ms,
                    governor,
                    faults,
                    chaos,
                    brownout,
                    hedge_factor,
                    json: flag(&flags, "json").map(str::to_string),
                })
            }
            "fleet" => {
                let flags = take_flags(rest, FLEET_FLAGS)?;
                let devices = hadas_fleet::parse_device_spec(
                    flag(&flags, "devices").unwrap_or("mixed:8"),
                )
                .map_err(|e| ParseCliError(format!("bad devices spec: {e}")))?;
                let scale =
                    flag(&flags, "scale").map(parse_scale).transpose()?.unwrap_or_default();
                let seed = flag(&flags, "seed")
                    .map(|s| s.parse::<u64>().map_err(|e| ParseCliError(format!("bad seed: {e}"))))
                    .transpose()?
                    .unwrap_or(7);
                let users = flag(&flags, "users")
                    .map(|s| {
                        s.parse::<usize>().map_err(|e| ParseCliError(format!("bad users: {e}")))
                    })
                    .transpose()?
                    .unwrap_or(4_000);
                let rps = flag(&flags, "rps")
                    .map(|s| s.parse::<f64>().map_err(|e| ParseCliError(format!("bad rps: {e}"))))
                    .transpose()?
                    .unwrap_or(400.0);
                let workers = flag(&flags, "workers")
                    .map(|s| {
                        s.parse::<usize>().map_err(|e| ParseCliError(format!("bad workers: {e}")))
                    })
                    .transpose()?
                    .unwrap_or(1);
                let slo_ms = flag(&flags, "slo-ms")
                    .map(|s| {
                        s.parse::<f64>().map_err(|e| ParseCliError(format!("bad slo-ms: {e}")))
                    })
                    .transpose()?
                    .unwrap_or(120.0);
                let governor = flag(&flags, "governor")
                    .map(|s| {
                        hadas_serve::GovernorKind::parse(s).ok_or_else(|| {
                            ParseCliError(format!(
                                "unknown governor '{s}' (expected static, latency, or queue)"
                            ))
                        })
                    })
                    .transpose()?;
                let energy_weight = flag(&flags, "energy-weight")
                    .map(|s| {
                        s.parse::<f64>()
                            .map_err(|e| ParseCliError(format!("bad energy-weight: {e}")))
                    })
                    .transpose()?
                    .unwrap_or(0.02);
                let faults = flag(&flags, "faults")
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|e| ParseCliError(format!("bad fault seed: {e}")))
                    })
                    .transpose()?;
                let chaos = flag(&flags, "chaos")
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|e| ParseCliError(format!("bad chaos seed: {e}")))
                    })
                    .transpose()?;
                let scenario = match flag(&flags, "scenario") {
                    None | Some("none") => None,
                    Some(name) if hadas_runtime::SCENARIO_NAMES.contains(&name) => {
                        Some(name.to_string())
                    }
                    Some(other) => {
                        return Err(ParseCliError(format!(
                            "unknown scenario '{other}' (expected none, {})",
                            hadas_runtime::SCENARIO_NAMES.join(", ")
                        )));
                    }
                };
                let reconfigure = flag(&flags, "reconfigure")
                    .map(|s| match s {
                        "on" => Ok(true),
                        "off" => Ok(false),
                        other => Err(ParseCliError(format!(
                            "bad reconfigure '{other}' (expected on or off)"
                        ))),
                    })
                    .transpose()?
                    .unwrap_or(false);
                let gray_faults = flag(&flags, "gray-faults")
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|e| ParseCliError(format!("bad gray-faults seed: {e}")))
                    })
                    .transpose()?;
                let gray_kind = flag(&flags, "gray-kind")
                    .map(|s| {
                        hadas_runtime::GrayFaultKind::from_name(s)
                            .map_err(|e| ParseCliError(format!("bad gray-kind: {e}")))
                    })
                    .transpose()?
                    .unwrap_or(hadas_runtime::GrayFaultKind::Mix);
                let detection = flag(&flags, "detection")
                    .map(|s| match s {
                        "on" => Ok(true),
                        "off" => Ok(false),
                        other => Err(ParseCliError(format!(
                            "bad detection '{other}' (expected on or off)"
                        ))),
                    })
                    .transpose()?
                    .unwrap_or(false);
                Ok(Command::Fleet {
                    devices,
                    scale,
                    seed,
                    users,
                    rps,
                    workers,
                    slo_ms,
                    governor,
                    energy_weight,
                    faults,
                    chaos,
                    scenario,
                    reconfigure,
                    gray_faults,
                    gray_kind,
                    detection,
                    json: flag(&flags, "json").map(str::to_string),
                })
            }
            other => Err(ParseCliError(format!(
                "unknown command '{other}' (try: devices, baselines, search, train, ioe, check, proxy, serve, fleet, help)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(Command::parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn search_parses_all_flags() {
        let cmd =
            Command::parse(&argv("search --target tx2-gpu --scale mid --seed 42 --json out.json"))
                .unwrap();
        assert_eq!(
            cmd,
            Command::Search {
                target: HwTarget::Tx2PascalGpu,
                scale: Scale::Mid,
                seed: 42,
                json: Some("out.json".into()),
                checkpoint: None,
                resume: None,
                max_generations: None,
                faults: None,
                data_chaos: None,
                workers: 0,
                chaos: None,
            }
        );
    }

    #[test]
    fn search_defaults_apply() {
        let cmd = Command::parse(&argv("search --target agx-cpu")).unwrap();
        assert_eq!(
            cmd,
            Command::Search {
                target: HwTarget::AgxCarmelCpu,
                scale: Scale::Quick,
                seed: 7,
                json: None,
                checkpoint: None,
                resume: None,
                max_generations: None,
                faults: None,
                data_chaos: None,
                workers: 0,
                chaos: None,
            }
        );
    }

    #[test]
    fn search_parses_robustness_flags() {
        let cmd = Command::parse(&argv(
            "search --target tx2-gpu --checkpoint results/checkpoint.json \
             --max-generations 3 --faults 99",
        ))
        .unwrap();
        assert!(matches!(
            &cmd,
            Command::Search {
                checkpoint: Some(c),
                resume: None,
                max_generations: Some(3),
                faults: Some(99),
                ..
            } if c == "results/checkpoint.json"
        ));
        let cmd = Command::parse(&argv("search --target tx2-gpu --resume results/checkpoint.json"))
            .unwrap();
        assert!(matches!(
            &cmd,
            Command::Search { resume: Some(r), .. } if r == "results/checkpoint.json"
        ));
        assert!(Command::parse(&argv("search --target tx2-gpu --max-generations lots")).is_err());
        assert!(Command::parse(&argv("search --target tx2-gpu --faults many")).is_err());
    }

    #[test]
    fn search_parses_data_chaos() {
        let cmd = Command::parse(&argv("search --target tx2-gpu --data-chaos 17")).unwrap();
        assert!(matches!(cmd, Command::Search { data_chaos: Some(17), .. }));
        assert!(Command::parse(&argv("search --target tx2-gpu --data-chaos loud")).is_err());
    }

    #[test]
    fn search_parses_parallel_flags() {
        let cmd = Command::parse(&argv("search --target tx2-gpu --workers 4 --chaos 13")).unwrap();
        assert!(matches!(cmd, Command::Search { workers: 4, chaos: Some(13), .. }));
        assert!(Command::parse(&argv("search --target tx2-gpu --workers many")).is_err());
        assert!(Command::parse(&argv("search --target tx2-gpu --chaos loud")).is_err());
    }

    #[test]
    fn train_parses_all_flags() {
        let cmd = Command::parse(&argv(
            "train --epochs 6 --batch 8 --lr 0.1 --seed 11 --data-chaos 3 \
             --train-checkpoint ckpt.json --resume-train on --max-epochs 2 --json out.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Train {
                epochs: 6,
                batch: 8,
                lr: 0.1,
                seed: 11,
                data_chaos: Some(3),
                checkpoint: Some("ckpt.json".into()),
                resume: true,
                max_epochs: Some(2),
                json: Some("out.json".into()),
            }
        );
    }

    #[test]
    fn train_defaults_apply() {
        let cmd = Command::parse(&argv("train")).unwrap();
        assert_eq!(
            cmd,
            Command::Train {
                epochs: 4,
                batch: 16,
                lr: 0.05,
                seed: 7,
                data_chaos: None,
                checkpoint: None,
                resume: false,
                max_epochs: None,
                json: None,
            }
        );
    }

    #[test]
    fn train_flags_validate() {
        assert!(Command::parse(&argv("train --epochs many")).is_err());
        assert!(Command::parse(&argv("train --lr hot")).is_err());
        assert!(Command::parse(&argv("train --resume-train maybe")).is_err());
        assert!(
            Command::parse(&argv("train --resume-train on")).is_err(),
            "resume without a checkpoint path must be rejected"
        );
        assert!(Command::parse(&argv("train --data-chaos wild")).is_err());
    }

    #[test]
    fn ioe_parses_baseline_names() {
        let cmd = Command::parse(&argv("ioe --target tx2-cpu --baseline a5")).unwrap();
        assert!(matches!(cmd, Command::Ioe { baseline: 5, .. }));
        assert!(Command::parse(&argv("ioe --target tx2-cpu --baseline a7")).is_err());
        assert!(Command::parse(&argv("ioe --target tx2-cpu --baseline b1")).is_err());
    }

    #[test]
    fn check_parses_optional_target() {
        assert_eq!(Command::parse(&argv("check")).unwrap(), Command::Check { target: None });
        assert_eq!(
            Command::parse(&argv("check --target tx2-gpu")).unwrap(),
            Command::Check { target: Some(HwTarget::Tx2PascalGpu) }
        );
        assert!(Command::parse(&argv("check --target warp-drive")).is_err());
    }

    #[test]
    fn serve_parses_all_flags() {
        let cmd = Command::parse(&argv(
            "serve --target tx2-gpu --scale quick --seed 9 --rps 200 --duration 5 \
             --workers 4 --batch-max 16 --slo-ms 80 --governor latency --faults 3 \
             --chaos 13 --brownout on --hedge-factor 2.5 --json out.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                target: HwTarget::Tx2PascalGpu,
                scale: Scale::Quick,
                seed: 9,
                rps: 200.0,
                duration_s: 5.0,
                workers: 4,
                batch_max: 16,
                slo_ms: 80.0,
                governor: hadas_serve::GovernorKind::Latency,
                faults: Some(3),
                chaos: Some(13),
                brownout: true,
                hedge_factor: 2.5,
                json: Some("out.json".into()),
            }
        );
    }

    #[test]
    fn serve_defaults_apply() {
        let cmd = Command::parse(&argv("serve --target agx-gpu")).unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                target: HwTarget::AgxVoltaGpu,
                seed: 7,
                workers: 2,
                batch_max: 8,
                governor: hadas_serve::GovernorKind::Queue,
                faults: None,
                chaos: None,
                brownout: false,
                json: None,
                ..
            }
        ));
        assert!(matches!(cmd, Command::Serve { hedge_factor, .. } if hedge_factor == 3.0));
        assert!(Command::parse(&argv("serve")).is_err(), "serve requires --target");
        assert!(Command::parse(&argv("serve --target tx2-gpu --governor warp")).is_err());
        assert!(Command::parse(&argv("serve --target tx2-gpu --rps fast")).is_err());
    }

    #[test]
    fn serve_resilience_flags_validate() {
        assert!(Command::parse(&argv("serve --target tx2-gpu --chaos loud")).is_err());
        assert!(Command::parse(&argv("serve --target tx2-gpu --brownout maybe")).is_err());
        assert!(Command::parse(&argv("serve --target tx2-gpu --hedge-factor soon")).is_err());
        let cmd = Command::parse(&argv("serve --target tx2-gpu --brownout off")).unwrap();
        assert!(matches!(cmd, Command::Serve { brownout: false, .. }));
    }

    #[test]
    fn fleet_parses_all_flags() {
        let cmd = Command::parse(&argv(
            "fleet --devices agx-gpu:2,tx2-gpu:1 --scale quick --seed 9 --users 5000 \
             --rps 250 --workers 4 --slo-ms 80 --governor latency --energy-weight 0.05 \
             --faults 3 --chaos 13 --scenario diurnal --reconfigure on \
             --gray-faults 11 --gray-kind slow --detection on --json fleet.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Fleet {
                devices: vec![HwTarget::AgxVoltaGpu, HwTarget::AgxVoltaGpu, HwTarget::Tx2PascalGpu],
                scale: Scale::Quick,
                seed: 9,
                users: 5000,
                rps: 250.0,
                workers: 4,
                slo_ms: 80.0,
                governor: Some(hadas_serve::GovernorKind::Latency),
                energy_weight: 0.05,
                faults: Some(3),
                chaos: Some(13),
                scenario: Some("diurnal".into()),
                reconfigure: true,
                gray_faults: Some(11),
                gray_kind: hadas_runtime::GrayFaultKind::SilentSlowdown,
                detection: true,
                json: Some("fleet.json".into()),
            }
        );
    }

    #[test]
    fn fleet_gray_flags_validate() {
        for (name, kind) in [
            ("stale", hadas_runtime::GrayFaultKind::Stale),
            ("corrupt", hadas_runtime::GrayFaultKind::Corrupt),
            ("drop", hadas_runtime::GrayFaultKind::Drop),
            ("slow", hadas_runtime::GrayFaultKind::SilentSlowdown),
            ("flap", hadas_runtime::GrayFaultKind::Flap),
            ("mix", hadas_runtime::GrayFaultKind::Mix),
        ] {
            let cmd = Command::parse(&argv(&format!("fleet --gray-faults 5 --gray-kind {name}")))
                .unwrap();
            assert!(matches!(
                cmd,
                Command::Fleet { gray_faults: Some(5), gray_kind: k, .. } if k == kind
            ));
        }
        assert!(Command::parse(&argv("fleet --gray-kind sideways")).is_err());
        assert!(Command::parse(&argv("fleet --gray-faults many")).is_err());
        assert!(Command::parse(&argv("fleet --detection maybe")).is_err());
        let on = Command::parse(&argv("fleet --detection on")).unwrap();
        assert!(matches!(on, Command::Fleet { detection: true, gray_faults: None, .. }));
    }

    #[test]
    fn fleet_scenario_flags_validate() {
        for name in hadas_runtime::SCENARIO_NAMES {
            let cmd = Command::parse(&argv(&format!("fleet --scenario {name}"))).unwrap();
            assert!(matches!(
                cmd,
                Command::Fleet { scenario: Some(ref s), .. } if s == name
            ));
        }
        let calm = Command::parse(&argv("fleet --scenario none")).unwrap();
        assert!(matches!(calm, Command::Fleet { scenario: None, .. }));
        assert!(Command::parse(&argv("fleet --scenario heatwave")).is_err());
        assert!(Command::parse(&argv("fleet --reconfigure maybe")).is_err());
        let off = Command::parse(&argv("fleet --reconfigure off")).unwrap();
        assert!(matches!(off, Command::Fleet { reconfigure: false, .. }));
    }

    #[test]
    fn fleet_defaults_apply() {
        let cmd = Command::parse(&argv("fleet")).unwrap();
        assert!(matches!(
            cmd,
            Command::Fleet {
                seed: 7,
                users: 4_000,
                workers: 1,
                governor: None,
                faults: None,
                chaos: None,
                scenario: None,
                reconfigure: false,
                gray_faults: None,
                gray_kind: hadas_runtime::GrayFaultKind::Mix,
                detection: false,
                json: None,
                ..
            }
        ));
        // `mixed:8` expands round-robin across all four targets.
        assert!(matches!(cmd, Command::Fleet { ref devices, .. } if devices.len() == 8));
        assert!(Command::parse(&argv("fleet --devices tx2-gpu:0")).is_err());
        assert!(Command::parse(&argv("fleet --devices warp-drive:2")).is_err());
        assert!(Command::parse(&argv("fleet --users none")).is_err());
        assert!(Command::parse(&argv("fleet --energy-weight heavy")).is_err());
    }

    #[test]
    fn unknown_flags_and_commands_error() {
        assert!(Command::parse(&argv("search --target tx2-gpu --bogus 1")).is_err());
        assert!(Command::parse(&argv("frobnicate")).is_err());
        assert!(Command::parse(&argv("search --target warp-drive")).is_err());
    }

    #[test]
    fn missing_value_errors() {
        assert!(Command::parse(&argv("search --target")).is_err());
    }

    #[test]
    fn scale_configs_are_ordered() {
        assert!(Scale::Quick.config().ooe.iterations < Scale::Mid.config().ooe.iterations);
        assert!(Scale::Mid.config().ooe.iterations < Scale::Paper.config().ooe.iterations);
        assert_eq!(Scale::Paper.config().ooe.iterations, 450);
    }
}
