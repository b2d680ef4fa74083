//! The metric catalogue: every figure the benchmark prints, with its unit,
//! direction, the workloads that exercise it, the layer it measures and the
//! end-to-end metric it should move. Later changes cite these names.
//!
//! Three kinds of metric:
//!
//! * [`Kind::EndToEnd`] — the figures every workload prints in an untraced
//!   run (`--trace 0`). They are host wall-clock or host memory, never
//!   zero, and each has a regression bound in `BENCHMARK.json`.
//! * [`Kind::Named`] — the per-workload end-to-end figures under their own
//!   names (`search_evals_per_s`, `modeled_p99_ms`, ...). Untraced runs
//!   print them on the `named` line; traced runs include them in the
//!   result. *Modeled* figures are deterministic outputs of the program: a
//!   pure speed change must leave them bit-identical.
//! * [`Kind::Layer`] — per-layer figures of a traced run (`--trace 1`),
//!   measured from outside by timing calls into each layer's public
//!   functions. A workload that does not run a layer reports it as 0.

use std::fmt::Write as _;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One full bi-level search on tx2-gpu at the paper's budget.
    Search,
    /// A `mixed:32` fleet near capacity on the pinned-mode path.
    FleetSteady,
    /// The same fleet through the epoch path: drift, reconfiguration,
    /// gray faults and online detection.
    FleetDrift,
    /// Guarded weight-sharing supernet training on the tiny config.
    Train,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] =
        [Workload::Search, Workload::FleetSteady, Workload::FleetDrift, Workload::Train];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Search => "search",
            Workload::FleetSteady => "fleet-steady",
            Workload::FleetDrift => "fleet-drift",
            Workload::Train => "train",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Which output a metric belongs to (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Printed by every workload in an untraced run; bounded.
    EndToEnd,
    /// A workload's own end-to-end figure, under its own name.
    Named,
    /// A per-layer figure of a traced run.
    Layer,
}

/// One catalogue entry.
#[derive(Debug)]
pub struct Metric {
    /// The metric's name, as printed.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `higher` or `lower` is better.
    pub better: &'static str,
    /// Which output carries it.
    pub kind: Kind,
    /// The workloads that measure it; the others report 0.
    pub workloads: &'static [Workload],
    /// The layer (crate or module) it measures.
    pub layer: &'static str,
    /// The end-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// What is measured, in one line.
    pub what: &'static str,
}

use Workload::{FleetDrift, FleetSteady, Search, Train};

const ALL: &[Workload] = &Workload::ALL;
const SEARCH: &[Workload] = &[Search];
const FLEET: &[Workload] = &[FleetSteady, FleetDrift];
const DRIFT: &[Workload] = &[FleetDrift];
const TRAIN: &[Workload] = &[Train];
const PARALLEL: &[Workload] = &[Search, FleetSteady, FleetDrift];

#[allow(clippy::too_many_arguments)] // one positional row per catalogue entry
const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    kind: Kind,
    workloads: &'static [Workload],
    layer: &'static str,
    moves: &'static str,
    what: &'static str,
) -> Metric {
    Metric { name, unit, better, kind, workloads, layer, moves, what }
}

use Kind::{EndToEnd, Layer, Named};

/// The catalogue, end-to-end metrics first.
#[rustfmt::skip]
pub const CATALOGUE: &[Metric] = &[
    // ---- end-to-end, every workload -------------------------------------
    m("setup_s", "s", "lower", EndToEnd, ALL, "harness", "setup_s",
      "fastest set-up of the run's processes, each timing it before and after its timed \
       calls: Hadas::for_target (search), \
       build_planes + FleetEngine::new (fleet-*), dataset generation + supernet init (train)"),
    m("throughput_per_s", "1/s", "higher", EndToEnd, ALL, "harness", "throughput_per_s",
      "work per second of a process's one search (search), median call (fleet-*) or \
       fastest call (train, whose calls run on one core each); the median over the run's \
       processes, the fastest for train; the work is search_evals_per_s, sim_req_per_s or \
       train_samples_per_s, by workload"),
    // ---- each workload's own end-to-end figures ---------------------------
    m("peak_rss_mb", "MB", "lower", Named, ALL, "process", "peak_rss_mb",
      "peak resident memory (VmHWM), largest over the run's processes; not bounded, \
       because on search it follows the number of IOE runs, which varies by about a \
       quarter between seeds"),
    m("search_evals_per_s", "1/s", "higher", Named, SEARCH, "core::ooe", "search_evals_per_s",
      "(static evals + IOE candidate evals) per second of Hadas::run_with at workers 2; \
       the run's four processes search three sub-seeds of the run seed, the fourth \
       repeating the first"),
    m("sim_req_per_s", "1/s", "higher", Named, FLEET, "fleet", "sim_req_per_s",
      "offered requests simulated per second of the median FleetEngine::run at workers 2"),
    m("train_samples_per_s", "1/s", "higher", Named, TRAIN, "supernet", "train_samples_per_s",
      "train samples (steps x batch) plus test samples per second of one net's one-epoch \
       train_with + evaluate; the fastest call of two trainers that run side by side, one per core \
       (the traced run has one)"),
    m("front_hv", "pct_mJ", "higher", Named, SEARCH, "core::ooe", "front_hv",
      "modeled: 2-D hypervolume of pareto_models() over (accuracy %, -energy mJ) \
       against the reference point (0 %, -1000 mJ), for the first sub-seed"),
    m("modeled_energy_mj_per_served", "mJ", "lower", Named, FLEET, "fleet", "modeled_energy_mj_per_served",
      "modeled: report energy_j / served"),
    m("modeled_slo_miss_rate", "ratio", "lower", Named, FLEET, "fleet", "modeled_slo_miss_rate",
      "modeled: (SLO violations + shed + rejected + fleet_rejected + dead_lettered) / offered"),
    m("modeled_p99_ms", "ms", "lower", Named, FLEET, "fleet", "modeled_p99_ms",
      "modeled: fleet report p99 latency"),
    m("train_test_acc_pct", "%", "higher", Named, TRAIN, "supernet", "train_test_acc_pct",
      "modeled: max-subnet test accuracy after training"),
    // ---- harness-level per-layer figures ----------------------------------
    m("wall.trace_overhead_s", "s", "lower", Layer, ALL, "harness", "throughput_per_s",
      "traced wall time minus untraced wall time of the same call (fleet has no hooks, \
       so there it is the gap between two back-to-back runs)"),
    m("wall.unattributed_s", "s", "lower", Layer, ALL, "harness", "throughput_per_s",
      "wall time no measured layer accounts for: search = workers-1 wall - 2 x dynmodel \
       replay - nds replay - decode replay; fleet = workers-1 wall - generation - \
       serve-engine replay scaled to all routed requests; train = traced call wall - \
       train_with - evaluate"),
    m("executor.speedup_w2", "ratio", "higher", Layer, PARALLEL, "core::executor", "throughput_per_s",
      "measured wall time at workers 1 / wall time at workers 2"),
    m("executor.modeled_speedup_w2", "ratio", "higher", Layer, PARALLEL, "core::executor", "throughput_per_s",
      "modeled_makespan_ms at workers 1 / at workers 2 (fleet: per-device routed counts x \
       mode-0 service estimate, whole run, epoch barriers not modeled)"),
    // ---- search layers ----------------------------------------------------
    m("hw.cost.calls", "count", "lower", Layer, SEARCH, "hw", "search_evals_per_s",
      "subnet_cost + prefix_cost calls through the forwarding CostModel wrapper"),
    m("hw.layer_cost.calls", "count", "lower", Layer, SEARCH, "hw", "search_evals_per_s",
      "layer_cost calls made directly on the wrapper (exit heads)"),
    m("hw.cost.busy_s", "s", "lower", Layer, SEARCH, "hw", "search_evals_per_s",
      "time inside subnet_cost + prefix_cost, summed over worker lanes"),
    m("hw.cost.distinct_ratio", "ratio", "lower", Layer, SEARCH, "hw", "search_evals_per_s",
      "distinct (genome, position, dvfs) keys / cost calls: the ceiling of a cost cache's miss rate"),
    m("ooe.static_evals", "count", "higher", Layer, SEARCH, "core::ooe", "search_evals_per_s",
      "backbones evaluated (OoeOutcome::backbones)"),
    m("ooe.ioe_runs", "count", "higher", Layer, SEARCH, "core::ooe", "search_evals_per_s",
      "backbones promoted to an IOE run"),
    m("ioe.candidates", "count", "higher", Layer, SEARCH, "core::ioe", "search_evals_per_s",
      "IOE candidate evaluations (sum of IOE history lengths)"),
    m("ioe.distinct_ratio", "ratio", "lower", Layer, SEARCH, "core::ioe", "search_evals_per_s",
      "distinct (placement, dvfs) points / IOE candidates"),
    m("core.dynmodel.evaluate_us", "us", "lower", Layer, SEARCH, "core::dynmodel", "search_evals_per_s",
      "mean DynamicModel::evaluate time, replayed on every IOE history candidate (the run \
       evaluates each candidate twice)"),
    m("accuracy.joint_exit_us", "us", "lower", Layer, SEARCH, "accuracy", "search_evals_per_s",
      "mean AccuracyModel::joint_exit_fractions time, replayed on every IOE history candidate"),
    m("evo.nds.full_history_ms", "ms", "lower", Layer, SEARCH, "evo", "search_evals_per_s",
      "mean fast_non_dominated_sort time over one IOE's full history (the sort pareto_front does)"),
    m("evo.nds.busy_s", "s", "lower", Layer, SEARCH, "evo", "search_evals_per_s",
      "total of those full-history sorts over every IOE run"),
    m("space.decode_us", "us", "lower", Layer, SEARCH, "space", "search_evals_per_s",
      "mean SearchSpace::decode time, replayed on every evaluated backbone genome"),
    // ---- fleet layers -----------------------------------------------------
    m("serve.request.gen_s", "s", "lower", Layer, FLEET, "serve::request", "sim_req_per_s",
      "generate_requests replayed with the fleet's generator settings"),
    m("fleet.report.to_json_ms", "ms", "lower", Layer, FLEET, "fleet::report", "sim_req_per_s",
      "FleetReport::to_json: the cost of writing the report, which FleetEngine::run does \
       not pay"),
    m("fleet.route_units_s", "s", "lower", Layer, FLEET, "fleet::router + units", "sim_req_per_s",
      "workers-2 run wall - generation: router, unit engines and fold (the router is \
       crate-private, so it cannot be split off from outside)"),
    m("serve.engine.us_per_req", "us", "lower", Layer, FLEET, "serve::engine", "sim_req_per_s",
      "ServeEngine::run_requests per request, replayed for device 0's plane on a \
       round-robin 1/n share of the stream"),
    m("fleet.router.routed", "count", "higher", Layer, FLEET, "fleet::router", "modeled_slo_miss_rate",
      "requests routed to a device"),
    m("fleet.router.fleet_rejected", "count", "lower", Layer, FLEET, "fleet::router", "modeled_slo_miss_rate",
      "requests no device admitted"),
    m("fleet.router.best_effort", "count", "lower", Layer, FLEET, "fleet::router", "modeled_slo_miss_rate",
      "interactive requests routed without a deadline-feasible device"),
    m("serve.shed", "count", "lower", Layer, FLEET, "serve::engine", "modeled_slo_miss_rate",
      "requests shed at unit admission"),
    m("serve.rejected", "count", "lower", Layer, FLEET, "serve::brownout", "modeled_slo_miss_rate",
      "requests rejected by the units' brownout ladders"),
    m("fleet.reconfig.epochs", "count", "lower", Layer, DRIFT, "fleet::reconfig", "sim_req_per_s",
      "reconfiguration epochs (one routing and one execution barrier each)"),
    m("fleet.reconfig.swaps", "count", "lower", Layer, DRIFT, "fleet::reconfig", "sim_req_per_s",
      "operating-point swaps"),
    m("fleet.reconfig.rollbacks", "count", "lower", Layer, DRIFT, "fleet::reconfig", "sim_req_per_s",
      "swaps rolled back"),
    m("fleet.health.transitions", "count", "lower", Layer, DRIFT, "fleet::health", "sim_req_per_s",
      "HealthMachine state transitions"),
    m("fleet.health.probe_dispatches", "count", "lower", Layer, DRIFT, "fleet::health", "sim_req_per_s",
      "requests placed on probe-only lanes"),
    m("fleet.health.redispatched", "count", "lower", Layer, DRIFT, "fleet::health", "sim_req_per_s",
      "requests drained off quarantined devices and re-routed"),
    m("serve.snapshot.roundtrip_us", "us", "lower", Layer, DRIFT, "serve::snapshot", "sim_req_per_s",
      "EngineSnapshot::capture -> validate -> into_state on a mid-stream SessionState"),
    // ---- train layers -----------------------------------------------------
    m("supernet.step_ms", "ms", "lower", Layer, TRAIN, "supernet", "train_samples_per_s",
      "train_with wall / optimizer steps (one sandwich-rule step: max, min, random subnet)"),
    m("supernet.evaluate_ms", "ms", "lower", Layer, TRAIN, "supernet", "train_samples_per_s",
      "MicroSupernet::evaluate on the test split"),
    m("tensor.matmul.gflops", "GFLOP/s", "higher", Layer, TRAIN, "tensor::linalg", "train_samples_per_s",
      "Tensor::matmul replayed on the tiny config's max-subnet conv shapes, 2mkn FLOPs per call"),
    m("tensor.im2col.gbytes_per_s", "GB/s", "higher", Layer, TRAIN, "tensor::conv", "train_samples_per_s",
      "im2col replayed on the same shapes, bytes = input read + columns written"),
    m("dataset.generate_ms", "ms", "lower", Layer, TRAIN, "dataset", "setup_s",
      "SyntheticDataset::generate with the CLI's train set-up"),
];

/// The catalogue entry named `name`.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    CATALOGUE.iter().find(|m| m.name == name)
}

/// The catalogue as a Markdown document (`CATALOGUE.md`).
pub fn markdown() -> String {
    let mut out = String::from(
        "# perfbench metric catalogue\n\n\
         Generated by `perfbench --catalogue`; `cargo test` fails when this file is stale.\n\n\
         - *end-to-end*: printed by every workload in an untraced run, bounded in \
         `BENCHMARK.json`.\n\
         - *named*: a workload's own end-to-end figures, on the `named` line of an \
         untraced run and in the traced result. *Modeled* ones are deterministic and a \
         pure speed change must leave them bit-identical.\n\
         - *layer*: per-layer figures of a traced run; workloads that do not run the \
         layer report 0.\n\n\
         | name | unit | better | kind | workloads | layer | moves | what |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for m in CATALOGUE {
        let kind = match m.kind {
            Kind::EndToEnd => "end-to-end",
            Kind::Named => "named",
            Kind::Layer => "layer",
        };
        let workloads: Vec<&str> = m.workloads.iter().map(|w| w.name()).collect();
        // Writing to a String cannot fail.
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {kind} | {} | {} | `{}` | {} |",
            m.name,
            m.unit,
            m.better,
            workloads.join(", "),
            m.layer,
            m.moves,
            m.what
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, a) in CATALOGUE.iter().enumerate() {
            assert!(a.name.len() <= 64 && a.unit.len() <= 16, "{}", a.name);
            assert!(a.better == "higher" || a.better == "lower", "{}", a.name);
            assert!(!a.workloads.is_empty(), "{}", a.name);
            assert!(lookup(a.moves).is_some(), "{} moves unknown {}", a.name, a.moves);
            for b in &CATALOGUE[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn catalogue_file_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/CATALOGUE.md");
        let text = std::fs::read_to_string(path).expect("perfbench/CATALOGUE.md");
        assert!(text == markdown(), "regenerate CATALOGUE.md with `perfbench --catalogue`");
    }

    #[test]
    fn manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(serde_json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let expect = |pred: &dyn Fn(Kind) -> bool| -> Vec<(String, String, String)> {
            CATALOGUE
                .iter()
                .filter(|m| pred(m.kind))
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), expect(&|k| k == Kind::EndToEnd));
        assert_eq!(listed("per_layer"), expect(&|k| k != Kind::EndToEnd));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(serde_json::Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert!(workloads.iter().all(|w| Workload::parse(w).is_some()), "{workloads:?}");
    }
}
