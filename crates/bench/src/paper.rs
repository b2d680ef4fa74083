//! One paper run per hardware target, and every table and figure of the
//! paper as a view over those runs.
//!
//! Fig. 1, both rows of Fig. 5, Fig. 6, Table III and the convergence
//! curve all report the same joint search per platform against the same
//! seven optimized AttentiveNAS baselines. A [`PaperRun`] computes those
//! searches once; each view reads what it needs, prints its table in the
//! paper's layout and returns its record. Runs that only one view needs
//! (the γ variants of Fig. 7, the DVFS, random-search, proxy and
//! pruning ablations) stay inside that view, with their own seeds.
//!
//! [`write_views`] runs every view in order and writes each record with
//! the `hadas-bench/1` header ([`crate::BenchRecord`]).

mod figures;
mod tables;

use crate::BenchEnv;
use hadas::report::Fig1Bars;
use hadas::{
    DeploymentPicker, DynamicModel, Hadas, HadasConfig, HadasError, IoeOutcome, OoeOutcome,
    StaticFitness,
};
use hadas_hw::HwTarget;
use hadas_space::{baselines, Subnet};
use std::error::Error;
use std::path::PathBuf;

/// One optimized AttentiveNAS baseline: the backbone, its static
/// fitness, and the inner engine run on it with the budget HADAS's own
/// backbones get.
#[derive(Debug, Clone)]
pub(crate) struct Baseline {
    /// The baseline's name (`a0`..`a6`).
    pub(crate) name: String,
    /// The decoded backbone.
    pub(crate) subnet: Subnet,
    /// Backbone accuracy and cost at the device's default clocks.
    pub(crate) fitness: StaticFitness,
    /// The inner engine's run on this backbone, seeded
    /// `config.seed ^ (0xBA5E + i)` for baseline `i`.
    pub(crate) ioe: IoeOutcome,
}

/// The searches one hardware target contributes to the paper: the joint
/// bi-level run and the seven optimized baselines.
#[derive(Debug, Clone)]
pub struct PaperRun {
    /// The framework for this target.
    pub(crate) hadas: Hadas,
    /// The configuration every search of this run used.
    pub(crate) config: HadasConfig,
    /// The joint search's outcome.
    pub(crate) outcome: OoeOutcome,
    /// The optimized baselines a0..a6, in order.
    pub(crate) baselines: Vec<Baseline>,
}

impl PaperRun {
    /// Runs the joint search and the seven optimized baselines for
    /// `target`.
    fn new(target: HwTarget, config: &HadasConfig) -> Result<PaperRun, HadasError> {
        let hadas = Hadas::for_target(target);
        let outcome = hadas.run(config)?;
        let baselines = baselines::attentive_nas_baselines(hadas.space())?
            .into_iter()
            .enumerate()
            .map(|(i, (name, subnet))| {
                let fitness = static_fitness(&hadas, &subnet)?;
                let ioe = hadas.run_ioe(&subnet, config, config.seed ^ (0xBA5E + i as u64))?;
                Ok(Baseline { name, subnet, fitness, ioe })
            })
            .collect::<Result<_, HadasError>>()?;
        Ok(PaperRun { hadas, config: config.clone(), outcome, baselines })
    }

    /// One run per hardware target, in paper order ([`HwTarget::ALL`]).
    ///
    /// # Errors
    ///
    /// Returns the first decode or search error.
    pub fn all(config: &HadasConfig) -> Result<Vec<PaperRun>, HadasError> {
        HwTarget::ALL.into_iter().map(|t| PaperRun::new(t, config)).collect()
    }

    /// The hardware target this run searched for.
    pub(crate) fn target(&self) -> HwTarget {
        self.hadas.device().target()
    }

    /// The `(energy gain, mean N_i)` cloud of Fig. 5 (bottom) and Fig. 6:
    /// every IOE point of every promoted backbone of the joint search,
    /// and every IOE point of the optimized baselines.
    pub(crate) fn ioe_clouds(&self) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let hadas = self
            .outcome
            .backbones()
            .iter()
            .filter_map(|b| b.ioe.as_ref())
            .flat_map(IoeOutcome::history_axes)
            .collect();
        let baselines = self.baselines.iter().flat_map(|b| b.ioe.history_axes()).collect();
        (hadas, baselines)
    }
}

/// Backbone accuracy and cost at the device's default clocks.
fn static_fitness(hadas: &Hadas, subnet: &Subnet) -> Result<StaticFitness, HadasError> {
    let device = hadas.device();
    let cost = device.subnet_cost(subnet, &device.default_dvfs())?;
    Ok(StaticFitness {
        accuracy_pct: hadas.accuracy().backbone_accuracy(subnet),
        latency_ms: cost.latency_ms(),
        energy_mj: cost.energy_mj(),
    })
}

/// The three optimisation stages of one model (Fig. 1, Table III): the
/// static backbone; *Dyn w/HW*, the minimum-energy configuration of its
/// inner-search front that is no slower than static and reaches
/// `acc_floor`; and *Dyn*, that configuration's exits at default clocks.
/// `None` when no configuration qualifies.
///
/// This is how the paper reports its Table III picks: dynamic models
/// trade their latency headroom for DVFS energy but never regress past
/// the static model's latency, which is why compact models (little
/// headroom) gain only a few percent from DVFS while large ones gain
/// 15–33%.
fn stages(
    run: &PaperRun,
    model: &str,
    subnet: &Subnet,
    static_fitness: StaticFitness,
    ioe: &IoeOutcome,
    acc_floor: f64,
) -> Result<Option<Fig1Bars>, HadasError> {
    let picker = DeploymentPicker::new().max_latency_ms(static_fitness.latency_ms);
    let Some(chosen) = picker.min_accuracy_pct(acc_floor).pick(ioe) else { return Ok(None) };
    let device = run.hadas.device();
    let eex = DynamicModel::new(subnet.clone(), chosen.placement.clone(), device.default_dvfs())
        .evaluate(run.hadas.accuracy(), device, run.config.gamma, run.config.use_dissimilarity)?;
    Ok(Some(Fig1Bars {
        model: model.to_string(),
        static_fitness,
        dyn_fitness: eex.fitness,
        dyn_hw_fitness: chosen.fitness,
    }))
}

/// The stages of AttentiveNAS a0 and a6 at their optimized baselines'
/// minimum-energy picks (no accuracy floor).
fn a0_a6_stages(run: &PaperRun) -> Result<Vec<Fig1Bars>, Box<dyn Error>> {
    [&run.baselines[0], &run.baselines[6]]
        .into_iter()
        .map(|b| {
            let name = format!("AttentiveNAS_{}", b.name);
            stages(run, &name, &b.subnet, b.fitness, &b.ioe, 0.0)?
                .ok_or_else(|| format!("{name} admits no configuration as fast as static").into())
        })
        .collect()
}

/// The stages of every promoted backbone of the joint search, each at
/// the first of `floors` its inner-search front can meet; backbones that
/// meet none are left out.
fn backbone_stages(
    run: &PaperRun,
    model: &str,
    floors: &[f64],
) -> Result<Vec<Fig1Bars>, HadasError> {
    let mut picks = Vec::new();
    for b in run.outcome.backbones() {
        let Some(ioe) = b.ioe.as_ref() else { continue };
        let fitness = static_fitness(&run.hadas, &b.subnet)?;
        for &floor in floors {
            if let Some(bars) = stages(run, model, &b.subnet, fitness, ioe, floor)? {
                picks.push(bars);
                break;
            }
        }
    }
    Ok(picks)
}

/// The TX2 Pascal GPU run, which the single-platform views read.
fn tx2(runs: &[PaperRun]) -> Result<&PaperRun, String> {
    runs.iter()
        .find(|r| r.target() == HwTarget::Tx2PascalGpu)
        .ok_or_else(|| "the paper runs hold no TX2 Pascal GPU run".to_string())
}

/// Runs every view in paper order and writes each record under
/// [`BenchEnv::results_dir`] with the `hadas-bench/1` header, stamped
/// with the runs' seed. Returns the paths of the records.
///
/// # Errors
///
/// Returns the first view, search or write error.
pub fn write_views(env: &BenchEnv, runs: &[PaperRun]) -> Result<Vec<PathBuf>, Box<dyn Error>> {
    use {figures::*, tables::*};
    let seed = tx2(runs)?.config.seed;
    let dir = env.results_dir();
    Ok(vec![
        env.write_bench("table1_related", seed, &table1_related())?,
        env.write_bench("table2_spaces", seed, &table2_spaces()?)?,
        env.write_bench("fig1_motivation", seed, &fig1_motivation(runs, &dir)?)?,
        env.write_bench("fig5_ooe", seed, &fig5_ooe(runs, &dir)?)?,
        env.write_bench("fig5_ioe", seed, &fig5_ioe(runs, &dir)?)?,
        env.write_bench("fig6_hv_rod", seed, &fig6_hv_rod(runs, &dir)?)?,
        env.write_bench("table3_dynns", seed, &table3_dynns(runs)?)?,
        env.write_bench("fig7_dissim", seed, &fig7_dissim(runs)?)?,
        env.write_bench("convergence", seed, &convergence(runs))?,
        env.write_bench("ablation_dvfs", seed, &ablation_dvfs(runs)?)?,
        env.write_bench("ablation_proxy", seed, &ablation_proxy(runs)?)?,
        env.write_bench("ablation_pruning", seed, &ablation_pruning(runs)?)?,
        env.write_bench("ablation_random", seed, &ablation_random(runs)?)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchRecord, BENCH_SCHEMA};

    #[test]
    fn every_view_reads_the_shared_runs_and_writes_a_headed_record() -> Result<(), Box<dyn Error>> {
        let dir = std::env::temp_dir().join(format!("hadas-paper-views-{}", std::process::id()));
        let env = BenchEnv::new(None, Some(dir.clone()))?;
        let cfg = env.scaled_config();
        let runs = PaperRun::all(&cfg)?;
        assert_eq!(runs.iter().map(PaperRun::target).collect::<Vec<_>>(), HwTarget::ALL);

        // Baseline i is the inner engine run the optimized-baseline
        // comparison has always used: seed `cfg.seed ^ (0xBA5E + i)`.
        for run in &runs {
            assert_eq!(run.baselines.len(), 7);
            for (i, b) in run.baselines.iter().enumerate() {
                let ioe = run.hadas.run_ioe(&b.subnet, &cfg, cfg.seed ^ (0xBA5E + i as u64))?;
                assert_eq!(b.ioe.pareto, ioe.pareto, "{:?} baseline {}", run.target(), b.name);
                assert_eq!(b.ioe.history, ioe.history, "{:?} baseline {}", run.target(), b.name);
            }
        }

        // Fig. 1 finds its HADAS model on the joint search's own fronts.
        let bars = figures::fig1_motivation(&runs, &dir)?;
        let models: Vec<&str> = bars.iter().map(|b| b.model.as_str()).collect();
        assert_eq!(models, ["AttentiveNAS_a0", "AttentiveNAS_a6", "HADAS"]);

        let paths = write_views(&env, &runs)?;
        assert_eq!(paths.len(), 13);
        for path in &paths {
            let record: BenchRecord<serde_json::Value> =
                serde_json::from_str(&std::fs::read_to_string(path)?)?;
            assert_eq!(record.schema, BENCH_SCHEMA);
            assert_eq!(Some(record.bench.as_str()), path.file_stem().and_then(|s| s.to_str()));
            assert_eq!(record.scale, "quick");
            assert_eq!(record.seed, cfg.seed);
            assert!(record.rows.as_array().is_some_and(|rows| !rows.is_empty()), "{path:?}");
        }
        std::fs::remove_dir_all(&dir)?;
        Ok(())
    }
}
