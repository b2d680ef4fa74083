use hadas::HadasConfig;
use hadas_hw::HwTarget;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

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
        match self {
            Scale::Quick => HadasConfig::quick(),
            Scale::Mid => HadasConfig::mid(),
            Scale::Paper => HadasConfig::paper(),
        }
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

/// The `--flag value` pairs of one subcommand, read by name. Each flag
/// is given at most once: a repeated flag is an error, not a choice
/// between two values.
struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    /// Reads `--flag value` pairs out of `rest`, left to right, erroring
    /// on the first unknown, valueless or repeated flag.
    fn take(rest: &'a [String], allowed: &[&str]) -> Result<Flags<'a>, ParseCliError> {
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
            if out.iter().any(|&(n, _)| n == name) {
                return Err(ParseCliError(format!("flag '--{name}' given twice")));
            }
            out.push((name, value.as_str()));
            i += 2;
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn string(&self, name: &str) -> Option<String> {
        self.get(name).map(str::to_string)
    }

    /// The flag's value parsed as `T`; a bad value reads `bad {what}: {e}`.
    fn parse<T: FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, ParseCliError>
    where
        T::Err: fmt::Display,
    {
        self.get(name)
            .map(|s| s.parse().map_err(|e| ParseCliError(format!("bad {what}: {e}"))))
            .transpose()
    }

    /// Like [`Flags::parse`], then refuses a value `valid` rejects; that
    /// reads `bad {name} '{value}' (expected {expected})`.
    fn parse_valid<T: FromStr>(
        &self,
        name: &str,
        valid: fn(&T) -> bool,
        expected: &str,
    ) -> Result<Option<T>, ParseCliError>
    where
        T::Err: fmt::Display,
    {
        let value = self.parse(name, name)?;
        match (value, self.get(name)) {
            (Some(v), Some(raw)) if !valid(&v) => {
                Err(ParseCliError(format!("bad {name} '{raw}' (expected {expected})")))
            }
            (value, _) => Ok(value),
        }
    }

    /// An `on`/`off` switch, off when absent.
    fn on_off(&self, name: &str) -> Result<bool, ParseCliError> {
        match self.get(name) {
            None | Some("off") => Ok(false),
            Some("on") => Ok(true),
            Some(other) => Err(ParseCliError(format!("bad {name} '{other}' (expected on or off)"))),
        }
    }

    /// The required `--target` of subcommand `cmd`.
    fn target(&self, cmd: &str) -> Result<HwTarget, ParseCliError> {
        parse_target(
            self.get("target").ok_or_else(|| ParseCliError(format!("{cmd} requires --target")))?,
        )
    }

    fn scale(&self) -> Result<Scale, ParseCliError> {
        match self.get("scale") {
            None | Some("quick") => Ok(Scale::Quick),
            Some("mid") => Ok(Scale::Mid),
            Some("paper") => Ok(Scale::Paper),
            Some(other) => Err(ParseCliError(format!(
                "unknown scale '{other}' (expected quick, mid, or paper)"
            ))),
        }
    }

    fn seed(&self) -> Result<u64, ParseCliError> {
        Ok(self.parse("seed", "seed")?.unwrap_or(7))
    }

    fn governor(&self) -> Result<Option<hadas_serve::GovernorKind>, ParseCliError> {
        self.get("governor")
            .map(|s| {
                hadas_serve::GovernorKind::parse(s).ok_or_else(|| {
                    ParseCliError(format!(
                        "unknown governor '{s}' (expected static, latency, or queue)"
                    ))
                })
            })
            .transpose()
    }

    /// The fleet's workload-drift scenario (`none` and absent are calm).
    fn scenario(&self) -> Result<Option<String>, ParseCliError> {
        match self.get("scenario") {
            None | Some("none") => Ok(None),
            Some(name) if hadas_runtime::SCENARIO_NAMES.contains(&name) => {
                Ok(Some(name.to_string()))
            }
            Some(other) => Err(ParseCliError(format!(
                "unknown scenario '{other}' (expected none, {})",
                hadas_runtime::SCENARIO_NAMES.join(", ")
            ))),
        }
    }

    fn gray_kind(&self) -> Result<hadas_runtime::GrayFaultKind, ParseCliError> {
        match self.get("gray-kind") {
            None => Ok(hadas_runtime::GrayFaultKind::Mix),
            Some(s) => hadas_runtime::GrayFaultKind::from_name(s)
                .map_err(|e| ParseCliError(format!("bad gray-kind: {e}"))),
        }
    }
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
        // Each literal reads its fields in source order, so when several
        // flags are bad the first one read is the one reported.
        match sub.as_str() {
            "help" | "--help" | "-h" => Ok(Command::Help),
            "devices" => {
                Flags::take(rest, &[])?;
                Ok(Command::Devices)
            }
            "baselines" => {
                let f = Flags::take(rest, &["target"])?;
                Ok(Command::Baselines { target: f.target("baselines")? })
            }
            "search" => {
                let f = Flags::take(
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
                Ok(Command::Search {
                    target: f.target("search")?,
                    scale: f.scale()?,
                    seed: f.seed()?,
                    json: f.string("json"),
                    checkpoint: f.string("checkpoint"),
                    resume: f.string("resume"),
                    max_generations: f.parse("max-generations", "max-generations")?,
                    faults: f.parse("faults", "fault seed")?,
                    data_chaos: f.parse("data-chaos", "data-chaos seed")?,
                    workers: f.parse("workers", "workers")?.unwrap_or(0),
                    chaos: f.parse("chaos", "chaos seed")?,
                })
            }
            "train" => {
                let f = Flags::take(
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
                let train = Command::Train {
                    epochs: f.parse_valid("epochs", |&e| e > 0, "at least 1")?.unwrap_or(4),
                    batch: f.parse_valid("batch", |&b| b > 0, "at least 1")?.unwrap_or(16),
                    lr: f
                        .parse_valid("lr", |lr: &f32| lr.is_finite() && *lr > 0.0, "a finite number above 0")?
                        .unwrap_or(0.05),
                    seed: f.seed()?,
                    data_chaos: f.parse("data-chaos", "data-chaos seed")?,
                    max_epochs: f.parse("max-epochs", "max-epochs")?,
                    resume: f.on_off("resume-train")?,
                    checkpoint: f.string("train-checkpoint"),
                    json: f.string("json"),
                };
                if let Command::Train { resume: true, checkpoint: None, .. } = train {
                    return Err(ParseCliError(
                        "--resume-train on requires --train-checkpoint PATH".into(),
                    ));
                }
                Ok(train)
            }
            "ioe" => {
                let f = Flags::take(rest, &["target", "baseline", "scale", "seed"])?;
                let baseline_str = f.get("baseline").unwrap_or("a0");
                Ok(Command::Ioe {
                    target: f.target("ioe")?,
                    baseline: baseline_str
                        .strip_prefix('a')
                        .and_then(|d| d.parse::<usize>().ok())
                        .filter(|&i| i <= 6)
                        .ok_or_else(|| {
                            ParseCliError(format!(
                                "bad baseline '{baseline_str}' (expected a0..a6)"
                            ))
                        })?,
                    scale: f.scale()?,
                    seed: f.seed()?,
                })
            }
            "check" => {
                let f = Flags::take(rest, &["target"])?;
                Ok(Command::Check { target: f.get("target").map(parse_target).transpose()? })
            }
            "proxy" => {
                let f = Flags::take(rest, &["target", "samples"])?;
                Ok(Command::Proxy {
                    target: f.target("proxy")?,
                    samples: f.parse("samples", "samples")?.unwrap_or(3_000),
                })
            }
            "serve" => {
                let f = Flags::take(
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
                Ok(Command::Serve {
                    target: f.target("serve")?,
                    scale: f.scale()?,
                    seed: f.seed()?,
                    rps: f.parse("rps", "rps")?.unwrap_or(150.0),
                    duration_s: f.parse("duration", "duration")?.unwrap_or(10.0),
                    workers: f.parse("workers", "workers")?.unwrap_or(2),
                    batch_max: f.parse("batch-max", "batch-max")?.unwrap_or(8),
                    slo_ms: f.parse("slo-ms", "slo-ms")?.unwrap_or(120.0),
                    governor: f.governor()?.unwrap_or(hadas_serve::GovernorKind::Queue),
                    faults: f.parse("faults", "fault seed")?,
                    chaos: f.parse("chaos", "chaos seed")?,
                    brownout: f.on_off("brownout")?,
                    hedge_factor: f.parse("hedge-factor", "hedge-factor")?.unwrap_or(3.0),
                    json: f.string("json"),
                })
            }
            "fleet" => {
                let f = Flags::take(rest, FLEET_FLAGS)?;
                Ok(Command::Fleet {
                    devices: hadas_fleet::parse_device_spec(f.get("devices").unwrap_or("mixed:8"))
                        .map_err(|e| ParseCliError(format!("bad devices spec: {e}")))?,
                    scale: f.scale()?,
                    seed: f.seed()?,
                    users: f.parse("users", "users")?.unwrap_or(4_000),
                    rps: f.parse("rps", "rps")?.unwrap_or(400.0),
                    workers: f.parse("workers", "workers")?.unwrap_or(1),
                    slo_ms: f.parse("slo-ms", "slo-ms")?.unwrap_or(120.0),
                    governor: f.governor()?,
                    energy_weight: f.parse("energy-weight", "energy-weight")?.unwrap_or(0.02),
                    faults: f.parse("faults", "fault seed")?,
                    chaos: f.parse("chaos", "chaos seed")?,
                    scenario: f.scenario()?,
                    reconfigure: f.on_off("reconfigure")?,
                    gray_faults: f.parse("gray-faults", "gray-faults seed")?,
                    gray_kind: f.gray_kind()?,
                    detection: f.on_off("detection")?,
                    json: f.string("json"),
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

    /// Exact error texts, including which error wins when two flags are
    /// bad: the first one the parser reads, so a reordered literal shows.
    #[test]
    fn error_texts_are_exact() {
        let cases: &[(&str, &str)] = &[
            ("frobnicate", "unknown command 'frobnicate' (try: devices, baselines, search, train, ioe, check, proxy, serve, fleet, help)"),
            ("devices --x 1", "unknown flag '--x' (allowed: )"),
            ("devices extra", "expected a --flag, got 'extra'"),
            ("baselines", "baselines requires --target"),
            ("baselines --target warp", "unknown target 'warp' (expected agx-gpu, agx-cpu, tx2-gpu, or tx2-cpu)"),
            ("baselines --target", "flag '--target' needs a value"),
            ("baselines --seed 1", "unknown flag '--seed' (allowed: --target)"),
            ("search", "search requires --target"),
            ("search --target warp-drive", "unknown target 'warp-drive' (expected agx-gpu, agx-cpu, tx2-gpu, or tx2-cpu)"),
            ("search --target tx2-gpu --scale huge", "unknown scale 'huge' (expected quick, mid, or paper)"),
            ("search --target tx2-gpu --seed x", "bad seed: invalid digit found in string"),
            ("search --target tx2-gpu --seed -1", "bad seed: invalid digit found in string"),
            ("search --target tx2-gpu --max-generations lots", "bad max-generations: invalid digit found in string"),
            ("search --target tx2-gpu --faults many", "bad fault seed: invalid digit found in string"),
            ("search --target tx2-gpu --data-chaos loud", "bad data-chaos seed: invalid digit found in string"),
            ("search --target tx2-gpu --workers many", "bad workers: invalid digit found in string"),
            ("search --target tx2-gpu --chaos loud", "bad chaos seed: invalid digit found in string"),
            ("search --target tx2-gpu --bogus 1", "unknown flag '--bogus' (allowed: --target, --scale, --seed, --json, --checkpoint, --resume, --max-generations, --faults, --data-chaos, --workers, --chaos)"),
            ("search --target", "flag '--target' needs a value"),
            ("search --target tx2-gpu --json", "flag '--json' needs a value"),
            ("search --seed x --target warp", "unknown target 'warp' (expected agx-gpu, agx-cpu, tx2-gpu, or tx2-cpu)"),
            ("search --target tx2-gpu --scale huge --seed x", "unknown scale 'huge' (expected quick, mid, or paper)"),
            ("search --target tx2-gpu --workers x --chaos y", "bad workers: invalid digit found in string"),
            ("search --target tx2-gpu --faults x --max-generations y", "bad max-generations: invalid digit found in string"),
            ("train --epochs many", "bad epochs: invalid digit found in string"),
            ("train --batch x", "bad batch: invalid digit found in string"),
            ("train --lr hot", "bad lr: invalid float literal"),
            ("train --lr 0", "bad lr '0' (expected a finite number above 0)"),
            ("train --lr -0.1", "bad lr '-0.1' (expected a finite number above 0)"),
            ("train --lr nan", "bad lr 'nan' (expected a finite number above 0)"),
            ("train --lr inf", "bad lr 'inf' (expected a finite number above 0)"),
            ("train --batch 0", "bad batch '0' (expected at least 1)"),
            ("train --batch 0 --lr 0", "bad batch '0' (expected at least 1)"),
            ("train --epochs 0", "bad epochs '0' (expected at least 1)"),
            ("train --epochs 0 --batch 0", "bad epochs '0' (expected at least 1)"),
            ("train --seed s", "bad seed: invalid digit found in string"),
            ("train --data-chaos wild", "bad data-chaos seed: invalid digit found in string"),
            ("train --max-epochs x", "bad max-epochs: invalid digit found in string"),
            ("train --resume-train maybe", "bad resume-train 'maybe' (expected on or off)"),
            ("train --resume-train on", "--resume-train on requires --train-checkpoint PATH"),
            ("train --max-epochs x --resume-train maybe", "bad max-epochs: invalid digit found in string"),
            ("train --resume-train maybe --train-checkpoint c.json --epochs x", "bad epochs: invalid digit found in string"),
            ("train --resume-train on --lr x", "bad lr: invalid float literal"),
            ("train --bogus 1", "unknown flag '--bogus' (allowed: --epochs, --batch, --lr, --seed, --data-chaos, --train-checkpoint, --resume-train, --max-epochs, --json)"),
            ("train positional", "expected a --flag, got 'positional'"),
            ("ioe", "ioe requires --target"),
            ("ioe --target tx2-cpu --baseline a7", "bad baseline 'a7' (expected a0..a6)"),
            ("ioe --target tx2-cpu --baseline b1", "bad baseline 'b1' (expected a0..a6)"),
            ("ioe --baseline a9", "ioe requires --target"),
            ("ioe --target tx2-cpu --baseline a9 --scale huge", "bad baseline 'a9' (expected a0..a6)"),
            ("ioe --target tx2-cpu --scale huge --seed x", "unknown scale 'huge' (expected quick, mid, or paper)"),
            ("ioe --target tx2-cpu --seed x", "bad seed: invalid digit found in string"),
            ("check --target warp-drive", "unknown target 'warp-drive' (expected agx-gpu, agx-cpu, tx2-gpu, or tx2-cpu)"),
            ("check --scale quick", "unknown flag '--scale' (allowed: --target)"),
            ("proxy", "proxy requires --target"),
            ("proxy --target tx2-gpu --samples x", "bad samples: invalid digit found in string"),
            ("proxy --target warp --samples x", "unknown target 'warp' (expected agx-gpu, agx-cpu, tx2-gpu, or tx2-cpu)"),
            ("serve", "serve requires --target"),
            ("serve --target tx2-gpu --governor warp", "unknown governor 'warp' (expected static, latency, or queue)"),
            ("serve --target tx2-gpu --rps fast", "bad rps: invalid float literal"),
            ("serve --target tx2-gpu --duration x", "bad duration: invalid float literal"),
            ("serve --target tx2-gpu --workers x", "bad workers: invalid digit found in string"),
            ("serve --target tx2-gpu --batch-max x", "bad batch-max: invalid digit found in string"),
            ("serve --target tx2-gpu --slo-ms x", "bad slo-ms: invalid float literal"),
            ("serve --target tx2-gpu --faults x", "bad fault seed: invalid digit found in string"),
            ("serve --target tx2-gpu --chaos loud", "bad chaos seed: invalid digit found in string"),
            ("serve --target tx2-gpu --brownout maybe", "bad brownout 'maybe' (expected on or off)"),
            ("serve --target tx2-gpu --hedge-factor soon", "bad hedge-factor: invalid float literal"),
            ("serve --target tx2-gpu --hedge-factor soon --rps x", "bad rps: invalid float literal"),
            ("serve --target tx2-gpu --brownout maybe --governor warp", "unknown governor 'warp' (expected static, latency, or queue)"),
            ("serve --target tx2-gpu --scale huge", "unknown scale 'huge' (expected quick, mid, or paper)"),
            ("serve --target tx2-gpu --seed x", "bad seed: invalid digit found in string"),
            ("serve --target tx2-gpu --users 5", "unknown flag '--users' (allowed: --target, --scale, --seed, --rps, --duration, --workers, --batch-max, --slo-ms, --governor, --faults, --chaos, --brownout, --hedge-factor, --json)"),
            ("fleet --devices tx2-gpu:0", "bad devices spec: invalid configuration: device count must be ≥ 1 in 'tx2-gpu:0'"),
            ("fleet --devices warp-drive:2", "bad devices spec: invalid configuration: unknown device target 'warp-drive' in 'warp-drive:2' (expected agx-gpu, agx-cpu, tx2-gpu, tx2-cpu, or mixed)"),
            ("fleet --scale huge", "unknown scale 'huge' (expected quick, mid, or paper)"),
            ("fleet --seed x", "bad seed: invalid digit found in string"),
            ("fleet --users none", "bad users: invalid digit found in string"),
            ("fleet --rps x", "bad rps: invalid float literal"),
            ("fleet --workers x", "bad workers: invalid digit found in string"),
            ("fleet --slo-ms x", "bad slo-ms: invalid float literal"),
            ("fleet --governor warp", "unknown governor 'warp' (expected static, latency, or queue)"),
            ("fleet --energy-weight heavy", "bad energy-weight: invalid float literal"),
            ("fleet --faults x", "bad fault seed: invalid digit found in string"),
            ("fleet --chaos x", "bad chaos seed: invalid digit found in string"),
            ("fleet --scenario heatwave", "unknown scenario 'heatwave' (expected none, calm, diurnal, thermal-season, battery-decay, demand-shift, composite)"),
            ("fleet --reconfigure maybe", "bad reconfigure 'maybe' (expected on or off)"),
            ("fleet --gray-faults many", "bad gray-faults seed: invalid digit found in string"),
            ("fleet --gray-kind sideways", "bad gray-kind: invalid configuration: unknown gray-fault kind 'sideways' (expected stale|corrupt|drop|slow|flap|mix)"),
            ("fleet --detection maybe", "bad detection 'maybe' (expected on or off)"),
            ("fleet --scenario z --chaos x", "bad chaos seed: invalid digit found in string"),
            ("fleet --gray-kind q --gray-faults x", "bad gray-faults seed: invalid digit found in string"),
            ("fleet --detection maybe --gray-kind q", "bad gray-kind: invalid configuration: unknown gray-fault kind 'q' (expected stale|corrupt|drop|slow|flap|mix)"),
            ("fleet --reconfigure maybe --scenario z", "unknown scenario 'z' (expected none, calm, diurnal, thermal-season, battery-decay, demand-shift, composite)"),
            ("fleet --devices warp:1 --scale huge", "bad devices spec: invalid configuration: unknown device target 'warp' in 'warp:1' (expected agx-gpu, agx-cpu, tx2-gpu, tx2-cpu, or mixed)"),
            ("fleet --target tx2-gpu", "unknown flag '--target' (allowed: --devices, --scale, --seed, --users, --rps, --workers, --slo-ms, --governor, --energy-weight, --faults, --chaos, --scenario, --reconfigure, --gray-faults, --gray-kind, --detection, --json)"),
            ("fleet --json", "flag '--json' needs a value"),
            ("baselines --target tx2-gpu --target agx-gpu", "flag '--target' given twice"),
            ("search --target tx2-gpu --seed 1 --seed 1", "flag '--seed' given twice"),
            ("search --seed 1 --target tx2-gpu --seed x", "flag '--seed' given twice"),
            ("serve --target tx2-gpu --rps x --rps 5 --bogus 1", "flag '--rps' given twice"),
            ("fleet --json a.json --scale huge --json b.json", "flag '--json' given twice"),
            ("train --max-epochs 3 --max-epochs", "flag '--max-epochs' needs a value"),
        ];
        for (args, text) in cases {
            assert_eq!(Command::parse(&argv(args)), Err(ParseCliError(text.to_string())), "{args}");
        }
    }

    #[test]
    fn scale_configs_are_ordered() {
        assert!(Scale::Quick.config().ooe.iterations < Scale::Mid.config().ooe.iterations);
        assert!(Scale::Mid.config().ooe.iterations < Scale::Paper.config().ooe.iterations);
        assert_eq!(Scale::Paper.config().ooe.iterations, 450);
    }
}
