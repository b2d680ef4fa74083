//! Command execution: each [`Command`] variant maps onto the library API
//! and writes a human-readable report to the provided writer (stdout in
//! `main`, a buffer in tests).

use crate::Command;
use hadas::{
    seal, DeploymentPicker, ExecTelemetry, Hadas, JointModel, SearchCheckpoint, SearchOptions,
};
use hadas_dataset::{CorruptionConfig, DatasetConfig, SyntheticDataset};
use hadas_hw::{DeviceModel, HwTarget, ProxyCostModel};
use hadas_nn::WithLoopOptions;
use hadas_runtime::{modes_from_pareto, FaultConfig, FaultInjector};
use hadas_serve::{ServeConfig, ServeEngine};
use hadas_space::{baselines, SearchSpace};
use hadas_supernet::{MicroSupernet, SubnetChoice, SupernetConfig, TrainOptions};
use rand::{rngs::StdRng, SeedableRng};
use std::error::Error;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const USAGE: &str = "\
hadas — hardware-aware dynamic NAS (DATE 2023 reproduction)

USAGE:
  hadas devices
  hadas baselines --target <t>
  hadas search    --target <t> [--scale quick|mid|paper] [--seed N] [--json PATH]
                  [--checkpoint PATH] [--resume PATH] [--max-generations N]
                  [--faults SEED] [--data-chaos SEED] [--workers N]
                  [--chaos SEED]
  hadas train     [--epochs N] [--batch N] [--lr F] [--seed N]
                  [--data-chaos SEED] [--train-checkpoint PATH]
                  [--resume-train on|off] [--max-epochs N] [--json PATH]
  hadas ioe       --target <t> [--baseline a0..a6] [--scale ...] [--seed N]
  hadas check     [--target <t>]
  hadas proxy     --target <t> [--samples N]
  hadas serve     --target <t> [--scale ...] [--seed N] [--rps R] [--duration S]
                  [--workers N] [--batch-max N] [--slo-ms MS]
                  [--governor static|latency|queue] [--faults SEED]
                  [--chaos SEED] [--brownout on|off] [--hedge-factor K]
                  [--json PATH]
  hadas fleet     [--devices SPEC] [--scale ...] [--seed N] [--users N]
                  [--rps R] [--workers N] [--slo-ms MS]
                  [--governor static|latency|queue] [--energy-weight W]
                  [--faults SEED] [--chaos SEED] [--scenario NAME]
                  [--reconfigure on|off] [--gray-faults SEED]
                  [--gray-kind KIND] [--detection on|off] [--json PATH]

TARGETS: agx-gpu, agx-cpu, tx2-gpu, tx2-cpu

ROBUSTNESS:
  --checkpoint PATH      serialize search state there at every generation
  --resume PATH          restore a checkpointed run (same target/scale/seed)
  --max-generations N    stop after N generations with a partial front
  --faults SEED          inject seeded transient faults into evaluations
  --data-chaos SEED      (search) poison a fixed fraction of fitness
                         measurements with NaN; the engines quarantine them
                         to the finite worst-case penalty and report the
                         count, leaving the rest of the front untouched
  --workers N            (search) worker lanes for the supervised parallel
                         evaluation phases; the front is byte-identical at
                         any count (0 = auto-size to the host)
  --chaos SEED           (search) inject execution-plane chaos — worker
                         crashes, dispatch failures, stragglers — into the
                         supervised executor; lanes respawn and lost evals
                         re-dispatch, healing to the fault-free front

TRAINING:
  `train` runs the divergence-guarded weight-sharing supernet trainer:
  per-sample validation quarantines poisoned inputs, numeric sentinels
  catch NaN losses/gradients, and epoch boundaries snapshot resumable
  state. A run killed at epoch k (--max-epochs k) and resumed
  (--resume-train on) is byte-identical to an uninterrupted run.
  --data-chaos SEED      (train) corrupt the train split with the seeded
                         injector (label flips, NaN/extreme pixels,
                         truncated reads) before training
  --train-checkpoint P   write a resumable checkpoint at every epoch
  --resume-train on|off  restore from --train-checkpoint if it exists
  --max-epochs N         stop after N epochs with a partial report

SERVING:
  `serve` searches a mode ladder, then replays a seeded open-loop
  arrival stream through the multi-worker serving engine; the same
  seed and config always produce a byte-identical report.
  --chaos SEED           inject worker crashes, stragglers, and transient
                         batch failures; the supervised pool heals them
                         and the report stays byte-identical to fault-free
  --brownout on|off      enable the overload degradation ladder (shed bulk
                         -> force early exits -> reject admissions)
  --hedge-factor K       hedge a straggling batch once it exceeds K times
                         its service estimate (default 3.0)

FLEET:
  `fleet` searches one mode ladder per distinct hardware target, then
  serves a fleet-wide arrival stream across N device units under a
  global latency/energy-aware router and the unit supervisor; the
  report is byte-identical at any --workers count, and under --chaos
  whenever zero units dead-letter.
  --devices SPEC         device mix: `agx-gpu:2,tx2-gpu:4` counts per
                         target, or `mixed:N` round-robin over all four
                         profiles (default mixed:8)
  --users N              simulated users; the stream runs users/rps
                         seconds (default 4000)
  --energy-weight W      router score = est. finish time + W x est.
                         joules (default 0.02; 0 routes on latency)
  --faults SEED          per-device substrate fault episodes (thermal
                         throttle, voltage sag), device d seeded SEED+d;
                         with --reconfigure on the stream also draws
                         swap failures, exercising swap rollback
  --chaos SEED           unit-level chaos: whole device units crash and
                         straggle; the supervisor respawns them and
                         re-dispatches their substreams
  --scenario NAME        replayable long-horizon workload drift over the
                         run: calm, diurnal, thermal-season,
                         battery-decay, demand-shift, or composite
                         (seeded by --seed; none = no drift)
  --reconfigure on|off   live operating-point reconfiguration: a
                         hysteresis controller watches per-device epoch
                         pressure (SLO misses, thermal caps, battery
                         state-of-charge) and slides each device's mode
                         window along its searched Pareto front through
                         zero-drop swaps that move each device's queue
                         with its state; substrate swap failures leave
                         the device on its old window
  --gray-faults SEED     gray failures: a seeded subset of devices keeps
                         serving, ~6x slower, while its health telemetry
                         lies per --gray-kind
  --gray-kind KIND       how gray telemetry lies: stale, corrupt, drop,
                         slow, flap, or mix (default mix)
  --detection on|off     online health plane: epoch-barrier evidence
                         drives a per-device health state machine; the
                         router quarantines suspect devices, probes them
                         with a bulk trickle, and re-dispatches their
                         drained queues with zero loss
";

/// Executes a parsed command, writing the report to `out`.
///
/// # Errors
///
/// Returns any I/O or search error; the binary surfaces it and exits
/// non-zero.
pub fn execute(cmd: Command, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    match cmd {
        Command::Help => {
            write!(out, "{USAGE}")?;
        }
        Command::Devices => {
            writeln!(
                out,
                "{:<24} {:>14} {:>10} {:>16}",
                "target", "compute steps", "EMC steps", "F cardinality"
            )?;
            for target in HwTarget::ALL {
                let dev = DeviceModel::for_target(target);
                let l = dev.ladder();
                writeln!(
                    out,
                    "{:<24} {:>14} {:>10} {:>16}",
                    target.name(),
                    l.compute_steps(),
                    l.emc_steps(),
                    l.cardinality()
                )?;
            }
        }
        Command::Baselines { target } => {
            let hadas = Hadas::for_target(target);
            writeln!(out, "AttentiveNAS baselines on {}:", target.name())?;
            writeln!(
                out,
                "{:<4} {:>9} {:>12} {:>12} {:>9}",
                "name", "acc (%)", "energy (mJ)", "latency(ms)", "GMACs"
            )?;
            for (name, subnet) in baselines::attentive_nas_baselines(hadas.space())? {
                let cost = hadas.device().subnet_cost(&subnet, &hadas.device().default_dvfs())?;
                writeln!(
                    out,
                    "{:<4} {:>9.2} {:>12.2} {:>12.2} {:>9.2}",
                    name,
                    hadas.accuracy().backbone_accuracy(&subnet),
                    cost.energy_mj(),
                    cost.latency_ms(),
                    subnet.total_flops() / 1e9
                )?;
            }
        }
        Command::Search {
            target,
            scale,
            seed,
            json,
            checkpoint,
            resume,
            max_generations,
            faults,
            data_chaos,
            workers,
            chaos,
        } => {
            let hadas = Hadas::for_target(target);
            let cfg = scale.config().with_seed(seed);
            let mut opts = SearchOptions::default();
            if let Some(path) = &resume {
                let ckpt: SearchCheckpoint = seal::load(Path::new(path))?;
                writeln!(
                    out,
                    "resuming from {path} (generation {} of {})",
                    ckpt.generation, cfg.ooe.iterations
                )?;
                // Keep checkpointing to the same file unless overridden.
                opts.checkpoint_path = Some(path.into());
                opts.resume_from = Some(ckpt);
            }
            if let Some(path) = &checkpoint {
                opts.checkpoint_path = Some(path.into());
            }
            opts.stop_after_generations = max_generations;
            opts.data_chaos = data_chaos;
            opts.workers = workers;
            if let Some(fault_seed) = faults {
                opts.faults = Arc::new(FaultInjector::new(FaultConfig::chaos(fault_seed))?);
            }
            if let Some(chaos_seed) = chaos {
                opts.exec_chaos =
                    Some(Arc::new(FaultInjector::new(FaultConfig::worker_chaos(chaos_seed))?));
            }
            writeln!(
                out,
                "searching {} (OOE {} / IOE {} iterations, seed {seed}, {} worker lane(s))...",
                target.name(),
                cfg.ooe.iterations,
                cfg.ioe.iterations,
                if workers == 0 { "auto".to_string() } else { workers.to_string() }
            )?;
            let outcome = hadas.run_with(&cfg, &opts)?;
            let telemetry = *outcome.telemetry();
            let mut models = outcome.pareto_models();
            models.sort_by(|a, b| b.dynamic.accuracy_pct.total_cmp(&a.dynamic.accuracy_pct));
            writeln!(
                out,
                "{:>8} {:>12} {:>12} {:>7} {:>10}",
                "acc (%)", "energy (mJ)", "gain", "exits", "dvfs"
            )?;
            for m in &models {
                let (fc, fm) = hadas.device().ladder().resolve(&m.dvfs)?;
                writeln!(
                    out,
                    "{:>8.2} {:>12.1} {:>11.0}% {:>7} {:>5.2}/{:.2}",
                    m.dynamic.accuracy_pct,
                    m.dynamic.energy_mj,
                    m.dynamic.energy_gain * 100.0,
                    m.placement.len(),
                    fc,
                    fm
                )?;
            }
            if let Some(best) = models.first() {
                writeln!(out)?;
                write!(out, "{}", best.subnet)?;
            }
            if let Some(path) = json {
                let payload: Vec<serde_json::Value> =
                    models.iter().map(JointModel::front_row).collect();
                let json = serde_json::to_string_pretty(&payload)?;
                seal::write_atomic(Path::new(&path), json.as_bytes())?;
                writeln!(out, "wrote {} models to {path}", models.len())?;
            }
            if faults.is_some() {
                writeln!(
                    out,
                    "fault telemetry: {} retried, {} transient, {} timeouts, \
                     {} exhausted, {:.1} ms overhead",
                    telemetry.retried_evals,
                    telemetry.transient_failures,
                    telemetry.timeouts,
                    telemetry.exhausted_evals,
                    telemetry.fault_overhead_ms
                )?;
            }
            if data_chaos.is_some() {
                writeln!(
                    out,
                    "data chaos: {} non-finite fitness evaluation(s) quarantined \
                     to the worst-case penalty",
                    telemetry.quarantined_evals
                )?;
            }
            if chaos.is_some() {
                writeln!(out, "{}", chaos_healed(outcome.exec_telemetry(), None))?;
            }
            if telemetry.interrupted {
                let resume_hint = opts
                    .checkpoint_path
                    .as_ref()
                    .map(|p| format!(" — resume with --resume {}", p.display()))
                    .unwrap_or_default();
                writeln!(
                    out,
                    "search interrupted after {} generation(s); partial front{resume_hint}",
                    telemetry.generations_completed
                )?;
            }
        }
        Command::Train {
            epochs,
            batch,
            lr,
            seed,
            data_chaos,
            checkpoint,
            resume,
            max_epochs,
            json,
        } => {
            let net_cfg = SupernetConfig::tiny();
            let mut data_cfg = DatasetConfig::small();
            data_cfg.classes = net_cfg.classes;
            data_cfg.image_size = net_cfg.image_size;
            data_cfg.train_size = 96;
            data_cfg.test_size = 48;
            let mut data = SyntheticDataset::generate(&data_cfg, seed)?;
            if let Some(chaos_seed) = data_chaos {
                let (corrupted, report) =
                    data.with_corruption(&CorruptionConfig::chaos(chaos_seed))?;
                data = corrupted;
                writeln!(
                    out,
                    "data chaos (seed {chaos_seed}): corrupted {} of {} train samples \
                     ({} detectably poisoned)",
                    report.total(),
                    data.train().len(),
                    report.detectable()
                )?;
            }
            let mut net = MicroSupernet::new(&net_cfg, &mut StdRng::seed_from_u64(seed))?;
            let mut opts = TrainOptions::new(epochs, batch, lr, seed);
            if let Some(path) = &checkpoint {
                opts = opts.with_checkpoint(PathBuf::from(path), resume);
            }
            if let Some(k) = max_epochs {
                opts = opts.stop_after(k);
            }
            writeln!(
                out,
                "training micro-supernet ({} subnets) for {epochs} epoch(s), \
                 batch {batch}, lr {lr}, seed {seed}...",
                net_cfg.cardinality()
            )?;
            let (report, telemetry) = net.train_with(&data, &opts)?;
            // `evaluate` returns a top-1 fraction; report it in percent.
            let acc = net.evaluate(&data, &SubnetChoice::max(&net_cfg))? * 100.0;
            writeln!(
                out,
                "final loss {:.6} over {} step(s) | max-subnet test accuracy {:.2}%",
                report.final_loss, report.steps, acc
            )?;
            writeln!(
                out,
                "telemetry: {} quarantined sample(s), {} rollback(s), \
                 {} clipped step(s), {} checkpoint(s) written",
                telemetry.quarantined,
                telemetry.rollbacks,
                telemetry.clipped_steps,
                telemetry.checkpoints_written
            )?;
            if let Some(e) = telemetry.resumed_from_epoch {
                writeln!(out, "resumed from epoch {e}")?;
            }
            for a in &telemetry.anomalies {
                writeln!(out, "anomaly: {a}")?;
            }
            if telemetry.interrupted {
                let hint = checkpoint
                    .as_deref()
                    .map(|p| format!(" — resume with --resume-train on --train-checkpoint {p}"))
                    .unwrap_or_default();
                writeln!(out, "training interrupted at an epoch boundary; partial weights{hint}")?;
            }
            if let Some(path) = json {
                let payload = serde_json::json!({
                    "evaluation": {
                        "final_loss": report.final_loss,
                        "steps": report.steps,
                        "test_accuracy_pct": acc,
                    },
                    "telemetry": {
                        "quarantined": telemetry.quarantined,
                        "rollbacks": telemetry.rollbacks,
                        "clipped_steps": telemetry.clipped_steps,
                        "anomalies": telemetry.anomalies,
                        "resumed_from_epoch": telemetry
                            .resumed_from_epoch
                            .map_or(serde_json::Value::Null, |e| {
                                serde_json::Value::from(e as u64)
                            }),
                        "checkpoints_written": telemetry.checkpoints_written,
                        "interrupted": telemetry.interrupted,
                    },
                });
                let json = serde_json::to_string_pretty(&payload)?;
                seal::write_atomic(Path::new(&path), json.as_bytes())?;
                writeln!(out, "wrote train report to {path}")?;
            }
        }
        Command::Ioe { target, baseline, scale, seed } => {
            let hadas = Hadas::for_target(target);
            let space = SearchSpace::attentive_nas();
            let subnet = space.decode(&baselines::baseline_genome(baseline))?;
            let cfg = scale.config().with_seed(seed);
            let static_cost =
                hadas.device().subnet_cost(&subnet, &hadas.device().default_dvfs())?;
            writeln!(
                out,
                "inner search for a{baseline} on {} (static: {:.1} mJ, {:.1} ms)...",
                target.name(),
                static_cost.energy_mj(),
                static_cost.latency_ms()
            )?;
            let ioe = hadas.run_ioe(&subnet, &cfg, seed)?;
            let pick = DeploymentPicker::new()
                .max_latency_ms(static_cost.latency_ms())
                .pick(&ioe)
                .ok_or("no deployable configuration found")?;
            writeln!(
                out,
                "deployment pick: {:.1} mJ ({:.0}% gain), {:.1} ms, {} exits at {:?}, acc {:.2}%",
                pick.fitness.energy_mj,
                pick.fitness.energy_gain * 100.0,
                pick.fitness.latency_ms,
                pick.placement.len(),
                pick.placement.positions(),
                pick.fitness.accuracy_pct
            )?;
            writeln!(out, "pareto front: {} solutions", ioe.pareto.len())?;
        }
        Command::Check { target } => {
            let targets: Vec<HwTarget> = match target {
                Some(t) => vec![t],
                None => HwTarget::ALL.to_vec(),
            };
            let reports = hadas_lint::run_builtin_checks(&targets);
            let broken: Vec<_> = reports.iter().filter(|r| !r.ok()).collect();
            for r in &reports {
                let status = if r.ok() { "ok" } else { "FAIL" };
                writeln!(out, "[{status}] {}", r.name)?;
                for v in &r.violations {
                    writeln!(out, "    {}: {}", v.check, v.detail)?;
                }
            }
            writeln!(
                out,
                "{}/{} feasibility checks passed",
                reports.len() - broken.len(),
                reports.len()
            )?;
            if !broken.is_empty() {
                return Err(format!("{} feasibility check(s) failed", broken.len()).into());
            }
        }
        Command::Serve {
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
            json,
        } => {
            let hadas = Hadas::for_target(target);
            let cfg = scale.config().with_seed(seed);
            writeln!(
                out,
                "searching {} for a mode ladder (seed {seed}), then serving \
                 {rps:.0} rps for {duration_s:.0} s on {workers} worker(s)...",
                target.name()
            )?;
            let outcome = hadas.run(&cfg)?;
            let modes = modes_from_pareto(&hadas, &outcome, 3)?;
            for (i, m) in modes.iter().enumerate() {
                writeln!(out, "  mode {i}: {}", m.name)?;
            }
            let serve_cfg = ServeConfig {
                seed,
                duration_s,
                rps,
                workers,
                batch_max,
                slo_ms,
                governor,
                faults: faults.map(|fault_seed| FaultConfig {
                    horizon_s: duration_s,
                    ..FaultConfig::chaos(fault_seed)
                }),
                chaos: chaos.map(|chaos_seed| FaultConfig {
                    horizon_s: duration_s,
                    ..FaultConfig::worker_chaos(chaos_seed)
                }),
                brownout: brownout.then(hadas_serve::BrownoutConfig::default),
                hedge_factor,
                ..ServeConfig::default()
            };
            let (report, telemetry) =
                ServeEngine::new(&hadas, modes, serve_cfg)?.run_instrumented()?;
            writeln!(
                out,
                "offered {} | served {} | shed {} | rejected {} | dead-lettered {} \
                 | batches {} (mean size {:.2})",
                report.offered,
                report.served,
                report.shed,
                report.rejected,
                report.dead_lettered,
                report.batches,
                report.mean_batch_size
            )?;
            writeln!(
                out,
                "throughput {:.1} rps over {:.2} s | energy {:.2} J (sag {:.3} J)",
                report.throughput_rps, report.makespan_s, report.energy_j, report.sag_energy_j
            )?;
            writeln!(
                out,
                "latency p50/p95/p99 {:.1}/{:.1}/{:.1} ms | SLO violations {} ({:.2}%)",
                report.latency.p50_ms,
                report.latency.p95_ms,
                report.latency.p99_ms,
                report.slo.violations,
                report.slo.violation_rate * 100.0
            )?;
            writeln!(
                out,
                "governor {} | {} mode switches | occupancy {}",
                report.governor,
                report.mode_switches,
                report
                    .mode_occupancy
                    .iter()
                    .map(|f| format!("{:.2}", f))
                    .collect::<Vec<_>>()
                    .join("/")
            )?;
            writeln!(
                out,
                "accuracy {:.2}% | exit fractions {}",
                report.accuracy_pct,
                report
                    .exit_fractions
                    .iter()
                    .map(|f| format!("{:.2}", f))
                    .collect::<Vec<_>>()
                    .join("/")
            )?;
            if report.degraded_batches > 0 || report.throttled_windows > 0 {
                writeln!(
                    out,
                    "faults: {} degraded batches, {} throttled control windows",
                    report.degraded_batches, report.throttled_windows
                )?;
            }
            if chaos.is_some() {
                writeln!(out, "{}", chaos_healed(&telemetry, None))?;
            }
            if report.brownout.enabled {
                writeln!(
                    out,
                    "brownout: worst tier {} | windows {} | {} escalations / {} de-escalations",
                    report.brownout.worst_tier,
                    report
                        .brownout
                        .tier_windows
                        .iter()
                        .map(|w| w.to_string())
                        .collect::<Vec<_>>()
                        .join("/"),
                    report.brownout.escalations,
                    report.brownout.deescalations
                )?;
            }
            if let Some(path) = json {
                seal::write(Path::new(&path), &report)?;
                writeln!(out, "wrote serve report to {path}")?;
            }
        }
        Command::Fleet {
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
            json,
        } => {
            let cfg = scale.config().with_seed(seed);
            let planes = hadas_fleet::build_planes(&devices, &cfg)?;
            let duration_s = users as f64 / rps;
            let scenario = scenario
                .as_deref()
                .map(|name| hadas_runtime::Scenario::from_name(name, seed, duration_s))
                .transpose()?;
            writeln!(
                out,
                "searched {} plane(s) for {} ({} device(s)); serving {users} users \
                 at {rps:.0} rps on {workers} fleet worker(s) \
                 [scenario {}, reconfigure {}, gray {}, detection {}]...",
                planes.len(),
                hadas_fleet::canonical_spec(&devices),
                devices.len(),
                scenario.as_ref().map_or("none", hadas_runtime::Scenario::name),
                if reconfigure { "on" } else { "off" },
                gray_faults.map_or("off".to_string(), |s| format!("{} seed {s}", gray_kind.name())),
                if detection { "on" } else { "off" }
            )?;
            let fleet_cfg = hadas_fleet::FleetConfig {
                devices,
                users,
                rps,
                workers,
                seed,
                slo_ms,
                governor,
                energy_weight,
                // A reconfiguring fleet's substrate faults include swap
                // failures, so `--faults` also exercises the rollback path.
                faults: faults.map(|s| FaultConfig {
                    swap_fail_rate: if reconfigure { 0.2 } else { 0.0 },
                    ..FaultConfig::chaos(s)
                }),
                chaos: chaos.map(FaultConfig::worker_chaos),
                scenario,
                reconfigure,
                gray: gray_faults.map(|s| hadas_runtime::GrayFaultConfig::new(gray_kind, s)),
                detection: if detection {
                    hadas_fleet::DetectionConfig::enabled()
                } else {
                    hadas_fleet::DetectionConfig::default()
                },
                ..hadas_fleet::FleetConfig::default()
            };
            let run = hadas_fleet::FleetEngine::new(&planes, fleet_cfg)?.run()?;
            let report = &run.report;
            writeln!(
                out,
                "offered {} | routed {} (fleet-rejected {}) | served {} | shed {} \
                 | rejected {} | dead-lettered {}",
                report.offered,
                report.routed,
                report.fleet_rejected,
                report.served,
                report.shed,
                report.rejected,
                report.dead_lettered
            )?;
            writeln!(
                out,
                "throughput {:.1} rps over {:.2} s | energy {:.2} J (sag {:.3} J)",
                report.throughput_rps, report.makespan_s, report.energy_j, report.sag_energy_j
            )?;
            writeln!(
                out,
                "latency p50/p95/p99 {:.1}/{:.1}/{:.1} ms | SLO violations {} ({:.2}%) \
                 [interactive {}/{}, bulk {}/{}]",
                report.latency.p50_ms,
                report.latency.p95_ms,
                report.latency.p99_ms,
                report.slo.violations,
                report.slo.violation_rate * 100.0,
                report.slo.interactive_violations,
                report.slo.interactive_served,
                report.slo.bulk_violations,
                report.slo.bulk_served
            )?;
            writeln!(
                out,
                "router: {} interactive + {} bulk routed, {} best-effort placements, \
                 {} unhealthy device(s)",
                report.router.interactive_routed,
                report.router.bulk_routed,
                report.router.slo_infeasible_routed,
                report.unhealthy_devices
            )?;
            if report.reconfig.enabled {
                let rc = &report.reconfig;
                writeln!(
                    out,
                    "reconfig [{}]: {} swap(s) over {} epoch(s) ({} up, {} down, \
                     {} rollback(s)), {} dropped by swap | final anchors {:?}",
                    rc.scenario,
                    rc.swaps,
                    rc.epochs,
                    rc.escalations,
                    rc.deescalations,
                    rc.swap_rollbacks,
                    rc.dropped_by_swap,
                    rc.final_anchors
                )?;
            }
            if report.detection.enabled {
                let det = &report.detection;
                writeln!(
                    out,
                    "detection: {} dirty epoch(s), {} transition(s), {} device(s) quarantined, \
                     {} probe dispatch(es), {} re-dispatched ({} dropped) | final states {:?}",
                    det.dirty_epochs,
                    det.transitions.len(),
                    det.quarantined_devices,
                    det.probe_assignments,
                    det.redispatched,
                    det.redispatch_dropped,
                    det.final_states
                )?;
            }
            for h in report.health.iter().filter(|h| !h.healthy) {
                writeln!(
                    out,
                    "  device {} ({}, {}): worst tier {} | min cap {:.2} | {} dead-lettered \
                     | {} telemetry defect(s), {} dropped window(s), state {}",
                    h.device,
                    h.target,
                    h.governor,
                    h.worst_tier,
                    h.min_thermal_cap,
                    h.dead_lettered,
                    h.telemetry_defects,
                    h.dropped_windows,
                    h.state
                )?;
            }
            if chaos.is_some() {
                writeln!(out, "{}", chaos_healed(&run.telemetry, Some("unit")))?;
            }
            if let Some(path) = json {
                seal::write(Path::new(&path), report)?;
                writeln!(out, "wrote fleet report to {path}")?;
            }
        }
        Command::Proxy { target, samples } => {
            let device = DeviceModel::for_target(target);
            let space = SearchSpace::attentive_nas();
            let proxy = ProxyCostModel::fit(&device, &space, samples, 17)?;
            let v = proxy.validate(&device, &space, 100, 18)?;
            writeln!(out, "proxy for {} fitted on {samples} measurements", target.name())?;
            writeln!(
                out,
                "held-out MAPE: latency {:.2}%, energy {:.2}% ({} queries)",
                v.latency_mape * 100.0,
                v.energy_mape * 100.0,
                v.queries
            )?;
        }
    }
    Ok(())
}

/// The `chaos healed:` summary of a supervised run's recovery work.
/// `unit` names what crashed and dead-lettered when it is not an
/// executor worker (the fleet's device units).
fn chaos_healed(t: &ExecTelemetry, unit: Option<&str>) -> String {
    let (crashed, lettered) = match unit {
        Some(u) => (format!("{u} crashes"), format!(" {u}(s)")),
        None => ("crashes".to_string(), String::new()),
    };
    format!(
        "chaos healed: {} {crashed} ({} respawns), {} retries, {} re-dispatches, \
         {} hedges ({} duplicates), {} breaker trips, {} dead-lettered{lettered}",
        t.crashes,
        t.respawns,
        t.retries,
        t.redispatches,
        t.hedges,
        t.duplicate_results,
        t.breaker_trips,
        t.dead_letter_units
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn run(cmd: Command) -> String {
        let mut buf = Vec::new();
        execute(cmd, &mut buf).expect("command runs");
        String::from_utf8(buf).expect("utf8 output")
    }

    #[test]
    fn check_reports_all_feasibility_passes() {
        let text = run(Command::Check { target: Some(HwTarget::Tx2PascalGpu) });
        assert!(text.contains("13/13 feasibility checks passed"), "{text}");
        assert!(!text.contains("FAIL"), "{text}");
    }

    #[test]
    fn help_prints_usage() {
        let text = run(Command::Help);
        assert!(text.contains("USAGE"));
        assert!(text.contains("tx2-gpu"));
        let fleet = &text[text.find("hadas fleet").unwrap()..text.find("TARGETS:").unwrap()];
        for flag in crate::args::FLEET_FLAGS {
            assert!(fleet.contains(&format!("[--{flag} ")), "fleet synopsis omits --{flag}");
        }
    }

    #[test]
    fn devices_lists_all_targets() {
        let text = run(Command::Devices);
        for target in HwTarget::ALL {
            assert!(text.contains(target.name()), "{text}");
        }
        assert!(text.contains("143"), "TX2 GPU F cardinality 13*11");
    }

    #[test]
    fn baselines_prints_seven_rows() {
        let text = run(Command::Baselines { target: HwTarget::Tx2PascalGpu });
        for name in ["a0", "a1", "a2", "a3", "a4", "a5", "a6"] {
            assert!(text.contains(name));
        }
    }

    fn search_cmd(seed: u64) -> Command {
        Command::Search {
            target: HwTarget::Tx2PascalGpu,
            scale: Scale::Quick,
            seed,
            json: None,
            checkpoint: None,
            resume: None,
            max_generations: None,
            faults: None,
            data_chaos: None,
            workers: 0,
            chaos: None,
        }
    }

    #[test]
    fn search_reports_pareto_models() {
        let text = run(search_cmd(3));
        assert!(text.contains("acc (%)"));
        assert!(text.lines().count() > 3, "{text}");
        assert!(!text.contains("fault telemetry"), "healthy runs stay quiet: {text}");
        assert!(!text.contains("interrupted"), "{text}");
    }

    #[test]
    fn search_with_faults_reports_telemetry() {
        let cmd = match search_cmd(3) {
            Command::Search { target, scale, seed, json, checkpoint, resume, .. } => {
                Command::Search {
                    target,
                    scale,
                    seed,
                    json,
                    checkpoint,
                    resume,
                    max_generations: None,
                    faults: Some(99),
                    data_chaos: None,
                    workers: 0,
                    chaos: None,
                }
            }
            other => other,
        };
        let text = run(cmd);
        assert!(text.contains("fault telemetry"), "{text}");
        assert!(text.contains("acc (%)"), "the front still prints: {text}");
    }

    #[test]
    fn interrupted_search_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join(format!("hadas-cli-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("checkpoint.json");
        let path_s = path.to_string_lossy().into_owned();

        let interrupted = match search_cmd(5) {
            Command::Search { target, scale, seed, json, .. } => Command::Search {
                target,
                scale,
                seed,
                json,
                checkpoint: Some(path_s.clone()),
                resume: None,
                max_generations: Some(1),
                faults: None,
                data_chaos: None,
                workers: 0,
                chaos: None,
            },
            other => other,
        };
        let text = run(interrupted);
        assert!(text.contains("interrupted"), "{text}");
        assert!(path.exists(), "checkpoint must land on disk");

        let resumed = match search_cmd(5) {
            Command::Search { target, scale, seed, json, .. } => Command::Search {
                target,
                scale,
                seed,
                json,
                checkpoint: None,
                resume: Some(path_s),
                max_generations: None,
                faults: None,
                data_chaos: None,
                workers: 0,
                chaos: None,
            },
            other => other,
        };
        let text = run(resumed);
        assert!(text.contains("resuming from"), "{text}");
        assert!(!text.contains("interrupted"), "resumed run finishes: {text}");
        assert!(text.contains("acc (%)"), "{text}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn search_with_data_chaos_reports_quarantine() {
        let cmd = match search_cmd(3) {
            Command::Search { target, scale, seed, json, checkpoint, resume, .. } => {
                Command::Search {
                    target,
                    scale,
                    seed,
                    json,
                    checkpoint,
                    resume,
                    max_generations: None,
                    faults: None,
                    data_chaos: Some(17),
                    workers: 0,
                    chaos: None,
                }
            }
            other => other,
        };
        let text = run(cmd);
        assert!(text.contains("data chaos:"), "{text}");
        assert!(text.contains("quarantined"), "{text}");
        assert!(text.contains("acc (%)"), "the front still prints: {text}");
    }

    #[test]
    fn parallel_search_under_exec_chaos_heals_to_the_same_front() {
        let baseline = run(search_cmd(3));
        let cmd = match search_cmd(3) {
            Command::Search { target, scale, seed, json, checkpoint, resume, .. } => {
                Command::Search {
                    target,
                    scale,
                    seed,
                    json,
                    checkpoint,
                    resume,
                    max_generations: None,
                    faults: None,
                    data_chaos: None,
                    workers: 4,
                    chaos: Some(13),
                }
            }
            other => other,
        };
        let text = run(cmd);
        assert!(text.contains("chaos healed:"), "{text}");
        // Everything but the banner (worker count) and the healing
        // summary is byte-identical to the clean auto-width run.
        let front = |t: &str| {
            t.lines()
                .skip(1)
                .filter(|l| !l.starts_with("chaos healed"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(front(&baseline), front(&text), "healed chaos must not show in the front");
    }

    fn train_cmd(seed: u64) -> Command {
        Command::Train {
            epochs: 2,
            batch: 16,
            lr: 0.05,
            seed,
            data_chaos: None,
            checkpoint: None,
            resume: false,
            max_epochs: None,
            json: None,
        }
    }

    #[test]
    fn train_reports_loss_and_telemetry() {
        let text = run(train_cmd(7));
        assert!(text.contains("final loss"), "{text}");
        assert!(text.contains("test accuracy"), "{text}");
        assert!(text.contains("0 quarantined sample(s)"), "clean data: {text}");
        assert!(!text.contains("interrupted"), "{text}");
    }

    #[test]
    fn train_with_data_chaos_quarantines_and_finishes_finite() {
        let cmd = match train_cmd(7) {
            Command::Train { epochs, batch, lr, seed, .. } => Command::Train {
                epochs,
                batch,
                lr,
                seed,
                data_chaos: Some(3),
                checkpoint: None,
                resume: false,
                max_epochs: None,
                json: None,
            },
            other => other,
        };
        let text = run(cmd);
        assert!(text.contains("data chaos (seed 3)"), "{text}");
        assert!(!text.contains("0 quarantined sample(s)"), "poison must be caught: {text}");
        assert!(!text.contains("final loss NaN"), "{text}");
        assert!(text.contains("final loss"), "{text}");
    }

    #[test]
    fn killed_train_resumes_to_identical_evaluation() {
        let dir = std::env::temp_dir().join(format!("hadas-cli-train-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let ckpt = dir.join("train.json").to_string_lossy().into_owned();
        let json_a = dir.join("straight.json");
        let json_b = dir.join("resumed.json");

        let straight = Command::Train {
            epochs: 3,
            batch: 16,
            lr: 0.05,
            seed: 11,
            data_chaos: None,
            checkpoint: None,
            resume: false,
            max_epochs: None,
            json: Some(json_a.to_string_lossy().into_owned()),
        };
        run(straight);

        let killed = Command::Train {
            epochs: 3,
            batch: 16,
            lr: 0.05,
            seed: 11,
            data_chaos: None,
            checkpoint: Some(ckpt.clone()),
            resume: false,
            max_epochs: Some(1),
            json: None,
        };
        let text = run(killed);
        assert!(text.contains("interrupted"), "{text}");
        assert!(text.contains("--resume-train on"), "{text}");

        let resumed = Command::Train {
            epochs: 3,
            batch: 16,
            lr: 0.05,
            seed: 11,
            data_chaos: None,
            checkpoint: Some(ckpt),
            resume: true,
            max_epochs: None,
            json: Some(json_b.to_string_lossy().into_owned()),
        };
        let text = run(resumed);
        assert!(text.contains("resumed from epoch 1"), "{text}");

        let a: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&json_a).expect("straight json"))
                .expect("parse");
        let b: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&json_b).expect("resumed json"))
                .expect("parse");
        assert_eq!(a.get("evaluation"), b.get("evaluation"), "kill+resume must be byte-identical");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ioe_reports_deployment_pick() {
        let text = run(Command::Ioe {
            target: HwTarget::AgxVoltaGpu,
            baseline: 2,
            scale: Scale::Quick,
            seed: 3,
        });
        assert!(text.contains("deployment pick"));
        assert!(text.contains("% gain"));
    }

    fn serve_cmd(json: Option<String>) -> Command {
        Command::Serve {
            target: HwTarget::Tx2PascalGpu,
            scale: Scale::Quick,
            seed: 7,
            rps: 120.0,
            duration_s: 4.0,
            workers: 2,
            batch_max: 8,
            slo_ms: 120.0,
            governor: hadas_serve::GovernorKind::Queue,
            faults: None,
            chaos: None,
            brownout: false,
            hedge_factor: 3.0,
            json,
        }
    }

    #[test]
    fn serve_reports_are_deterministic_and_written() {
        let dir = std::env::temp_dir().join(format!("hadas-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("serve.json");
        let path_s = path.to_string_lossy().into_owned();

        let a = run(serve_cmd(Some(path_s.clone())));
        assert!(a.contains("throughput"), "{a}");
        assert!(a.contains("SLO violations"), "{a}");
        assert!(a.contains("mode 0:"), "the ladder prints: {a}");
        let json_a = std::fs::read_to_string(&path).expect("report lands on disk");
        assert!(json_a.contains("\"throughput_rps\""), "{json_a}");

        let b = run(serve_cmd(Some(path_s)));
        let json_b = std::fs::read_to_string(&path).expect("second report");
        assert_eq!(a, b, "same seed must print identically");
        assert_eq!(json_a, json_b, "same seed must serialise byte-identically");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rebuilds the canonical serve command with resilience knobs set.
    fn serve_cmd_with(
        faults: Option<u64>,
        chaos: Option<u64>,
        brownout: bool,
        rps: f64,
    ) -> Command {
        match serve_cmd(None) {
            Command::Serve {
                target,
                scale,
                seed,
                duration_s,
                workers,
                batch_max,
                slo_ms,
                governor,
                hedge_factor,
                json,
                ..
            } => Command::Serve {
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
                json,
            },
            other => other,
        }
    }

    #[test]
    fn serve_with_faults_reports_chaos() {
        let text = run(serve_cmd_with(Some(11), None, false, 120.0));
        assert!(text.contains("throughput"), "{text}");
        assert!(!text.contains("chaos healed"), "no worker chaos requested: {text}");
    }

    #[test]
    fn serve_with_worker_chaos_prints_healing_telemetry() {
        let text = run(serve_cmd_with(None, Some(13), false, 120.0));
        assert!(text.contains("chaos healed"), "{text}");
        assert!(text.contains("dead-lettered"), "{text}");
    }

    #[test]
    fn serve_with_brownout_prints_ladder_summary() {
        let text = run(serve_cmd_with(None, None, true, 600.0));
        assert!(text.contains("brownout: worst tier"), "{text}");
        assert!(text.contains("escalations"), "{text}");
    }

    fn fleet_cmd(workers: usize, chaos: Option<u64>, json: Option<String>) -> Command {
        Command::Fleet {
            devices: vec![HwTarget::Tx2PascalGpu, HwTarget::Tx2PascalGpu],
            scale: Scale::Quick,
            seed: 9,
            users: 600,
            rps: 200.0,
            workers,
            slo_ms: 120.0,
            governor: None,
            energy_weight: 0.02,
            faults: None,
            chaos,
            scenario: None,
            reconfigure: false,
            gray_faults: None,
            gray_kind: hadas_runtime::GrayFaultKind::Mix,
            detection: false,
            json,
        }
    }

    #[test]
    fn fleet_reports_are_identical_across_worker_counts() {
        let dir = std::env::temp_dir().join(format!("hadas-cli-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("fleet.json");
        let path_s = path.to_string_lossy().into_owned();

        let a = run(fleet_cmd(1, None, Some(path_s.clone())));
        assert!(a.contains("routed"), "{a}");
        assert!(a.contains("throughput"), "{a}");
        let json_a = std::fs::read_to_string(&path).expect("report lands on disk");
        assert!(json_a.contains("\"device_mix\""), "{json_a}");

        let b = run(fleet_cmd(4, None, Some(path_s)));
        let json_b = std::fs::read_to_string(&path).expect("second report");
        assert_eq!(json_a, json_b, "fleet worker count must not leak into the report");
        // Console output differs only in the announced worker count.
        let body = |t: &str| t.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(body(&a), body(&b), "{a}\n---\n{b}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_chaos_prints_healing_telemetry() {
        let text = run(fleet_cmd(2, Some(13), None));
        assert!(text.contains("chaos healed:"), "{text}");
        assert!(text.contains("dead-lettered unit(s)"), "{text}");
    }

    #[test]
    fn fleet_reconfiguration_prints_the_swap_summary() {
        let cmd = match fleet_cmd(1, None, None) {
            Command::Fleet { devices, scale, seed, users, rps, workers, slo_ms, .. } => {
                Command::Fleet {
                    devices,
                    scale,
                    seed,
                    users,
                    rps,
                    workers,
                    slo_ms,
                    governor: None,
                    energy_weight: 0.02,
                    faults: None,
                    chaos: None,
                    scenario: Some("composite".into()),
                    reconfigure: true,
                    gray_faults: None,
                    gray_kind: hadas_runtime::GrayFaultKind::Mix,
                    detection: false,
                    json: None,
                }
            }
            other => unreachable!("fleet_cmd builds a fleet command, got {other:?}"),
        };
        let text = run(cmd);
        assert!(text.contains("scenario composite"), "{text}");
        assert!(text.contains("reconfig [composite]:"), "{text}");
        assert!(text.contains("0 dropped by swap"), "{text}");
    }

    #[test]
    fn fleet_substrate_faults_under_reconfiguration_roll_swaps_back() {
        let cmd = match fleet_cmd(1, None, None) {
            Command::Fleet { devices, scale, seed, users, rps, workers, slo_ms, .. } => {
                Command::Fleet {
                    devices,
                    scale,
                    seed,
                    users,
                    rps,
                    workers,
                    slo_ms,
                    governor: None,
                    energy_weight: 0.02,
                    faults: Some(12),
                    chaos: None,
                    scenario: Some("composite".into()),
                    reconfigure: true,
                    gray_faults: None,
                    gray_kind: hadas_runtime::GrayFaultKind::Mix,
                    detection: false,
                    json: None,
                }
            }
            other => unreachable!("fleet_cmd builds a fleet command, got {other:?}"),
        };
        let text = run(cmd);
        // With --reconfigure on, the substrate stream draws swap
        // failures: the run must report rollbacks but never drops.
        assert!(text.contains("rollback(s)"), "{text}");
        assert!(!text.contains(" 0 rollback(s)"), "fault seed 12 at 0.2 must roll back: {text}");
        assert!(text.contains("0 dropped by swap"), "{text}");
    }

    #[test]
    fn proxy_reports_mape() {
        let text = run(Command::Proxy { target: HwTarget::Tx2PascalGpu, samples: 800 });
        assert!(text.contains("MAPE"));
    }
}
