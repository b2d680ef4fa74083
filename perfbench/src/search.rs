//! The `search` workload: one full bi-level search on tx2-gpu at the
//! paper's OOE/IOE budgets, on two worker lanes. `evo`, `core::dynmodel`,
//! `core::ioe`, `accuracy`, `hw` and `core::executor` do the work; no serve
//! or fleet code runs.

use crate::catalogue::Workload;
use crate::probe::{another_round, fastest, fastest_block_timed, timed, Record};
use hadas::{
    DynamicFitness, DynamicModel, Hadas, HadasConfig, HadasError, OoeOutcome, SearchOptions,
};
use hadas_evo::{fast_non_dominated_sort, hypervolume_2d};
use hadas_hw::{CostModel, CostReport, DeviceModel, DvfsLadder, DvfsSetting, HwError, HwTarget};
use hadas_space::{LayerInfo, Subnet};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const TARGET: HwTarget = HwTarget::Tx2PascalGpu;
/// Worker lanes of the timed search (the host has two cores).
const WORKERS: usize = 2;
/// Set-up takes about a microsecond, so `setup_s` is the fastest over
/// blocks of the mean over many calls.
const SETUP_BLOCKS: usize = 51;
const SETUP_PER_BLOCK: usize = 500;
/// Reference point of `front_hv`: 0 % accuracy, 1000 mJ per inference.
const HV_REFERENCE: [f64; 2] = [0.0, -1000.0];

/// Distinct search seeds of an untraced run. The parts of a run search
/// different seeds, because the number of IOE runs, and with it the memory
/// and the lane balance, varies a lot from one search seed to the next.
/// Parts from `SEEDS` on repeat an earlier part's seed in a fresh process,
/// which must reproduce that part's front digest.
const SEEDS: usize = 3;

/// The search seed of part `part` of the run with seed `seed`.
pub fn sub_seed(seed: u64, part: usize) -> u64 {
    seed.wrapping_mul(SEEDS as u64).wrapping_add((part % SEEDS) as u64)
}

/// The paper's budgets (OOE 30 x 450, IOE 50 x 3500) under `seed`.
fn config(seed: u64) -> HadasConfig {
    HadasConfig::paper().with_seed(seed)
}

fn options(workers: usize) -> SearchOptions {
    SearchOptions { workers, ..SearchOptions::default() }
}

/// Candidate evaluations of one search: static evals + IOE candidates.
fn evals(out: &OoeOutcome) -> usize {
    out.backbones().len()
        + out
            .backbones()
            .iter()
            .filter_map(|b| b.ioe.as_ref())
            .map(|o| o.history.len())
            .sum::<usize>()
}

/// Every field of a dynamic fitness, by its bits.
fn fitness_bits(d: &DynamicFitness) -> [u64; 7] {
    [
        d.exit_quality,
        d.mean_exit_fraction,
        d.energy_gain,
        d.latency_gain,
        d.accuracy_pct,
        d.energy_mj,
        d.latency_ms,
    ]
    .map(f64::to_bits)
}

/// Digest of the final front: every field of every Pareto model, floats
/// by their bits, plus the history length.
fn front_digest(out: &OoeOutcome) -> u64 {
    let mut words = vec![out.backbones().len() as u64];
    for m in out.pareto_models() {
        words.extend(m.subnet.genome().genes().iter().map(|&g| g as u64));
        words.extend(m.placement.positions().iter().map(|&p| p as u64));
        words.extend([m.dvfs.compute as u64, m.dvfs.emc as u64]);
        words.extend(fitness_bits(&m.dynamic));
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    hadas_serve::fingerprint64(&bytes)
}

/// Modeled: hypervolume of the final front over (accuracy, -energy).
fn front_hv(out: &OoeOutcome) -> f64 {
    let pts: Vec<Vec<f64>> = out
        .pareto_models()
        .iter()
        .map(|m| vec![m.dynamic.accuracy_pct, -m.dynamic.energy_mj])
        .collect();
    hypervolume_2d(&pts, &HV_REFERENCE)
}

/// Operations the program itself reports as failed.
fn program_failures(out: &OoeOutcome) -> u64 {
    let t = out.telemetry();
    (t.exhausted_evals + t.quarantined_evals) as u64
}

/// Runs part `part` of the workload; returns the record to print.
pub fn run(seed: u64, part: usize, seconds: f64, traced: bool) -> Result<Record, HadasError> {
    let mut rec = Record::new(Workload::Search);
    let set_up =
        || fastest_block_timed(SETUP_BLOCKS, SETUP_PER_BLOCK, || Hadas::for_target(TARGET));
    let (hadas, setup_before) = set_up();
    let cfg = config(sub_seed(seed, part));
    if traced {
        trace(&mut rec, &hadas, &cfg)?;
        return Ok(rec);
    }

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut first = None;
    let mut last = None;
    while another_round(started, &walls, 1, seconds) {
        let (out, wall) = timed(|| hadas.run_with(&cfg, &options(WORKERS)));
        let out = out?;
        walls.push(wall);
        rec.attempted += evals(&out) as u64;
        rec.failed += program_failures(&out);
        let digest = front_digest(&out);
        let expected = *first.get_or_insert(digest);
        rec.check(digest == expected, || {
            format!("front digest {digest:016x} differs from the first search's {expected:016x}")
        });
        last = Some(out);
    }
    crate::probe::log_walls(&walls);
    // Set-up is timed again after the timed calls, so that a slow moment
    // of the host at the start does not decide it.
    rec.set("setup_s", setup_before.min(set_up().1));
    rec.digest = first;
    let out = last.expect("at least one search ran");
    let per_s = evals(&out) as f64 / fastest(&walls);
    rec.set("throughput_per_s", per_s);
    rec.set("search_evals_per_s", per_s);
    rec.set("front_hv", front_hv(&out));
    rec.set("peak_rss_mb", crate::probe::peak_rss_mb());
    Ok(rec)
}

/// The traced run: one-lane, untraced and wrapped-cost-model searches,
/// then replays of each layer on the untraced outcome. The one-lane search
/// runs first, so the two two-lane searches compared for the trace
/// overhead both start warm.
fn trace(rec: &mut Record, hadas: &Hadas, cfg: &HadasConfig) -> Result<(), HadasError> {
    let (out_1, wall_1) = timed(|| hadas.run_with(cfg, &options(1)));
    let out_1 = out_1?;
    let (out, wall_u) = timed(|| hadas.run_with(cfg, &options(WORKERS)));
    let out = out?;
    rec.set("peak_rss_mb", crate::probe::peak_rss_mb());
    let counting = Arc::new(CountingCostModel::new(DeviceModel::for_target(TARGET)));
    let wrapped = Hadas::with_cost_model(
        hadas.space().clone(),
        hadas.accuracy().clone(),
        Arc::clone(&counting) as Arc<dyn CostModel>,
    );
    let (out_t, wall_t) = timed(|| wrapped.run_with(cfg, &options(WORKERS)));
    let out_t = out_t?;

    for o in [&out, &out_t, &out_1] {
        rec.attempted += evals(o) as u64;
        rec.failed += program_failures(o);
    }
    let digest = front_digest(&out);
    rec.digest = Some(digest);
    rec.check(front_digest(&out_t) == digest, || {
        "the CostModel-wrapped (traced) search changed the front".into()
    });
    rec.check(front_digest(&out_1) == digest, || {
        "the front differs between workers 1 and workers 2".into()
    });

    rec.set("search_evals_per_s", evals(&out) as f64 / wall_u);
    rec.set("front_hv", front_hv(&out));
    rec.set("wall.trace_overhead_s", wall_t - wall_u);
    rec.set("executor.speedup_w2", wall_1 / wall_u);
    rec.set("executor.modeled_speedup_w2", out_1.modeled_makespan_ms() / out.modeled_makespan_ms());

    let calls = counting.cost_calls.load(Ordering::Relaxed);
    rec.set("hw.cost.calls", calls as f64);
    rec.set("hw.layer_cost.calls", counting.layer_calls.load(Ordering::Relaxed) as f64);
    rec.set("hw.cost.busy_s", counting.cost_busy_ns.load(Ordering::Relaxed) as f64 * 1e-9);
    let distinct = counting.keys.lock().expect("key set lock is never poisoned").len();
    rec.set("hw.cost.distinct_ratio", distinct as f64 / calls.max(1) as f64);

    // Counts straight from the outcome.
    let ioes: Vec<_> =
        out.backbones().iter().filter_map(|b| b.ioe.as_ref().map(|o| (&b.subnet, o))).collect();
    let candidates: usize = ioes.iter().map(|(_, o)| o.history.len()).sum();
    rec.count("ooe.static_evals", out.backbones().len());
    rec.count("ooe.ioe_runs", ioes.len());
    rec.count("ioe.candidates", candidates);

    // Replays: every IOE history candidate through DynamicModel::evaluate
    // (bit-for-bit against the recorded fitness) and joint_exit_fractions,
    // and one full-history non-dominated sort per IOE.
    let mut evaluate_s = 0.0;
    let mut joint_s = 0.0;
    let mut nds_s = 0.0;
    let mut distinct_points = 0usize;
    let mut mismatches = 0usize;
    for &(subnet, ioe) in &ioes {
        let models: Vec<DynamicModel> = ioe
            .history
            .iter()
            .map(|s| DynamicModel::new(subnet.clone(), s.placement.clone(), s.dvfs))
            .collect();
        let (evals, s) = timed(|| {
            models
                .iter()
                .map(|m| {
                    m.evaluate(hadas.accuracy(), hadas.device(), cfg.gamma, cfg.use_dissimilarity)
                })
                .collect::<Result<Vec<_>, _>>()
        });
        evaluate_s += s;
        for (e, sol) in evals?.iter().zip(&ioe.history) {
            if fitness_bits(&e.fitness) != fitness_bits(&sol.fitness) {
                mismatches += 1;
            }
        }
        let (fractions, s) = timed(|| {
            ioe.history
                .iter()
                .map(|sol| hadas.accuracy().joint_exit_fractions(subnet, sol.placement.positions()))
                .collect::<Vec<_>>()
        });
        joint_s += s;
        std::hint::black_box(fractions);
        let points: Vec<Vec<f64>> =
            ioe.history.iter().map(|s| s.fitness.to_maximisation()).collect();
        let (fronts, s) = timed(|| fast_non_dominated_sort(&points));
        nds_s += s;
        std::hint::black_box(fronts);
        let keys: BTreeSet<(Vec<usize>, usize, usize)> = ioe
            .history
            .iter()
            .map(|s| (s.placement.positions().to_vec(), s.dvfs.compute, s.dvfs.emc))
            .collect();
        distinct_points += keys.len();
    }
    rec.check(mismatches == 0, || {
        format!(
            "{mismatches} replayed DynamicModel::evaluate fitnesses differ from the recorded ones"
        )
    });
    let per_candidate = |s: f64| s * 1e6 / candidates.max(1) as f64;
    rec.set("core.dynmodel.evaluate_us", per_candidate(evaluate_s));
    rec.set("accuracy.joint_exit_us", per_candidate(joint_s));
    rec.set("evo.nds.full_history_ms", nds_s * 1e3 / ioes.len().max(1) as f64);
    rec.set("evo.nds.busy_s", nds_s);
    rec.set("ioe.distinct_ratio", distinct_points as f64 / candidates.max(1) as f64);

    let (decoded, decode_s) = timed(|| {
        out.backbones()
            .iter()
            .map(|b| hadas.space().decode(b.subnet.genome()))
            .collect::<Result<Vec<_>, _>>()
    });
    let decoded =
        decoded.map_err(|e| HadasError::Internal(format!("replayed decode failed: {e}")))?;
    rec.check(decoded.iter().zip(out.backbones()).all(|(d, b)| *d == b.subnet), || {
        "a replayed decode differs from the evaluated backbone".into()
    });
    rec.set("space.decode_us", decode_s * 1e6 / out.backbones().len().max(1) as f64);

    // Each IOE candidate is evaluated twice in the run: once under the
    // search, once in the exact re-measurement pass.
    rec.set("wall.unattributed_s", wall_1 - 2.0 * evaluate_s - nds_s - decode_s);
    Ok(())
}

/// A forwarding [`CostModel`] that counts calls with atomic counters and
/// times `subnet_cost` and `prefix_cost`. It records the distinct
/// `(genome, position, dvfs)` keys to bound what a cost cache could save.
#[derive(Debug)]
struct CountingCostModel {
    inner: DeviceModel,
    cost_calls: AtomicU64,
    layer_calls: AtomicU64,
    cost_busy_ns: AtomicU64,
    keys: Mutex<HashSet<u64>>,
}

impl CountingCostModel {
    fn new(inner: DeviceModel) -> Self {
        CountingCostModel {
            inner,
            cost_calls: AtomicU64::new(0),
            layer_calls: AtomicU64::new(0),
            cost_busy_ns: AtomicU64::new(0),
            keys: Mutex::new(HashSet::new()),
        }
    }

    fn priced(
        &self,
        subnet: &Subnet,
        position: usize,
        setting: &DvfsSetting,
        f: impl FnOnce() -> Result<CostReport, HwError>,
    ) -> Result<CostReport, HwError> {
        let (result, s) = timed(f);
        self.cost_busy_ns.fetch_add((s * 1e9) as u64, Ordering::Relaxed);
        self.cost_calls.fetch_add(1, Ordering::Relaxed);
        let mut h = DefaultHasher::new();
        subnet.genome().genes().hash(&mut h);
        position.hash(&mut h);
        setting.hash(&mut h);
        self.keys.lock().expect("key set lock is never poisoned").insert(h.finish());
        result
    }
}

impl CostModel for CountingCostModel {
    fn target(&self) -> HwTarget {
        CostModel::target(&self.inner)
    }

    fn ladder(&self) -> &DvfsLadder {
        CostModel::ladder(&self.inner)
    }

    fn layer_cost(&self, layer: &LayerInfo, setting: &DvfsSetting) -> Result<CostReport, HwError> {
        self.layer_calls.fetch_add(1, Ordering::Relaxed);
        CostModel::layer_cost(&self.inner, layer, setting)
    }

    fn invoke_cost(&self, setting: &DvfsSetting) -> Result<CostReport, HwError> {
        CostModel::invoke_cost(&self.inner, setting)
    }

    fn subnet_cost(&self, subnet: &Subnet, setting: &DvfsSetting) -> Result<CostReport, HwError> {
        self.priced(subnet, usize::MAX, setting, || {
            CostModel::subnet_cost(&self.inner, subnet, setting)
        })
    }

    fn prefix_cost(
        &self,
        subnet: &Subnet,
        position: usize,
        setting: &DvfsSetting,
    ) -> Result<CostReport, HwError> {
        self.priced(subnet, position, setting, || {
            CostModel::prefix_cost(&self.inner, subnet, position, setting)
        })
    }
}
