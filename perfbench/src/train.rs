//! The `train` workload: the guarded `MicroSupernet::train_with` on
//! `SupernetConfig::tiny` with the CLI's dataset set-up, then the
//! max-subnet test evaluation. It is the only workload in which the
//! `tensor`, `nn` and `supernet` kernels run.

use crate::catalogue::Workload;
use crate::probe::{another_round, fastest, fastest_timed, timed, Record};
use hadas_dataset::{DatasetConfig, SyntheticDataset};
use hadas_supernet::{MicroSupernet, SubnetChoice, SupernetConfig, SupernetError, TrainOptions};
use hadas_tensor::{im2col, normal, Conv2dGeometry, Tensor, TensorError};
use rand::{rngs::StdRng, SeedableRng};
use std::error::Error;
use std::time::Instant;

/// Epochs of one call. `hadas train` runs 4, but a call is timed whole, and
/// the shorter the call the likelier the host leaves a core undisturbed
/// for all of it: on a two-core shared host, over eight seeds, the spread
/// of the fastest one-epoch call was about half that of the fastest
/// 4-epoch call timed in the same runs.
const EPOCHS: usize = 1;
/// `hadas train`'s batch size and learning rate.
const BATCH: usize = 16;
const LR: f32 = 0.05;
/// Seed of the sandwich rule's random-subnet draws. The drawn subnets set
/// the work of every step, so the draws are the same in every run; the run
/// seed makes the dataset and the initial weights.
const SAMPLER_SEED: u64 = 7;
/// Nets trained side by side, one per core. On a shared host each core's
/// speed swings by up to a half, in phases of seconds to tens of seconds,
/// independently of the other core; a call's speed is that of the core it
/// ran on. Training on both cores and keeping the fastest call measures a
/// training run on the least-disturbed core.
const TRAINERS: usize = 2;
/// Set-up repetitions; `setup_s` is the fastest.
const SETUP_REPS: usize = 201;
/// Repetitions of the kernel replays.
const KERNEL_REPS: usize = 200;

/// `hadas train`'s dataset: the tiny net's classes and image size, 96
/// train and 48 test samples.
fn dataset_config(net: &SupernetConfig) -> DatasetConfig {
    let mut cfg = DatasetConfig::small();
    cfg.classes = net.classes;
    cfg.image_size = net.image_size;
    cfg.train_size = 96;
    cfg.test_size = 48;
    cfg
}

/// One measured call: an epoch of training from a fresh net, then
/// evaluation.
struct Trained {
    loss_bits: u32,
    steps: usize,
    acc: f32,
    failed: u64,
}

fn train_and_evaluate(
    net: &mut MicroSupernet,
    data: &SyntheticDataset,
) -> Result<(Trained, f64, f64), SupernetError> {
    let opts = TrainOptions::new(EPOCHS, BATCH, LR, SAMPLER_SEED);
    let (trained, train_s) = timed(|| net.train_with(data, &opts));
    let (report, telemetry) = trained?;
    let choice = SubnetChoice::max(net.config());
    let (acc, eval_s) = timed(|| net.evaluate(data, &choice));
    let t = Trained {
        loss_bits: report.final_loss.to_bits(),
        steps: report.steps,
        acc: acc?,
        failed: (telemetry.quarantined + telemetry.rollbacks as usize) as u64,
    };
    Ok((t, train_s, eval_s))
}

/// Samples one call processes: train steps x batch, plus the test split.
fn samples(t: &Trained, data: &SyntheticDataset) -> f64 {
    (t.steps * BATCH + data.test().len()) as f64
}

/// Runs the workload; returns the record to print.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Record, Box<dyn Error>> {
    let mut rec = Record::new(Workload::Train);
    let net_cfg = SupernetConfig::tiny();
    let data_cfg = dataset_config(&net_cfg);
    let fresh_net = || MicroSupernet::new(&net_cfg, &mut StdRng::seed_from_u64(seed));
    let set_up = || {
        fastest_timed(SETUP_REPS, || -> Result<_, Box<dyn Error>> {
            Ok((SyntheticDataset::generate(&data_cfg, seed)?, fresh_net()?))
        })
    };
    let (setup, setup_before) = set_up();
    let (data, _) = setup?;
    if traced {
        trace(&mut rec, &data, &data_cfg, fresh_net, seed)?;
        return Ok(rec);
    }

    // Each round trains TRAINERS nets side by side, one per core; every
    // trainer must produce the same report.
    let started = Instant::now();
    let mut rounds = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<ReportKey> = None;
    let mut last = None;
    while another_round(started, &rounds, 3, seconds) {
        let (results, round) = timed(|| {
            std::thread::scope(|scope| {
                let trainers: Vec<_> = (0..TRAINERS)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut net = fresh_net()?;
                            let (result, wall) = timed(|| train_and_evaluate(&mut net, &data));
                            result.map(|(t, _, _)| (t, wall))
                        })
                    })
                    .collect();
                trainers
                    .into_iter()
                    .map(|h| h.join().expect("a trainer thread panicked"))
                    .collect::<Vec<_>>()
            })
        });
        rounds.push(round);
        for result in results {
            let (t, wall) = result?;
            walls.push(wall);
            check(&mut rec, &t, &mut first);
            last = Some(t);
        }
    }
    crate::probe::log_walls(&walls);
    // Set-up is timed again after the timed calls, so that a slow moment
    // of the host at the start does not decide it.
    let (again, setup_after) = set_up();
    again?;
    rec.set("setup_s", setup_before.min(setup_after));
    rec.digest = first.map(report_digest);
    let t = last.expect("at least one training run");
    let per_s = samples(&t, &data) / fastest(&walls);
    rec.set("throughput_per_s", per_s);
    rec.set("train_samples_per_s", per_s);
    rec.set("train_test_acc_pct", f64::from(t.acc) * 100.0);
    rec.set("peak_rss_mb", crate::probe::peak_rss_mb());
    Ok(rec)
}

/// A train report's identity: final loss, steps and accuracy, floats by
/// their bits.
type ReportKey = (u32, usize, u32);

fn report_digest((loss, steps, acc): ReportKey) -> u64 {
    let words = [u64::from(loss), steps as u64, u64::from(acc)];
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    hadas_serve::fingerprint64(&bytes)
}

/// Counts one call and checks the report is finite and identical to the
/// first call's.
fn check(rec: &mut Record, t: &Trained, first: &mut Option<ReportKey>) {
    rec.attempted += t.steps as u64;
    rec.failed += t.failed;
    rec.check(f32::from_bits(t.loss_bits).is_finite(), || "the final loss is not finite".into());
    let key = (t.loss_bits, t.steps, t.acc.to_bits());
    let expected = *first.get_or_insert(key);
    rec.check(key == expected, || "the train report differs between runs".into());
}

/// The traced run: an untraced and a traced call, the dataset generation
/// replay and the kernel replays on the tiny config's shapes.
fn trace(
    rec: &mut Record,
    data: &SyntheticDataset,
    data_cfg: &DatasetConfig,
    fresh_net: impl Fn() -> Result<MicroSupernet, SupernetError>,
    seed: u64,
) -> Result<(), Box<dyn Error>> {
    let mut first = None;
    // A warm-up call first, so that both measured calls start warm.
    let (warm, _, _) = train_and_evaluate(&mut fresh_net()?, data)?;
    check(rec, &warm, &mut first);
    let mut net = fresh_net()?;
    let (untraced, wall_u) = timed(|| train_and_evaluate(&mut net, data));
    let (t, _, _) = untraced?;
    check(rec, &t, &mut first);
    let mut net = fresh_net()?;
    let (traced, wall_t) = timed(|| train_and_evaluate(&mut net, data));
    let (t, train_s, eval_s) = traced?;
    check(rec, &t, &mut first);
    rec.digest = first.map(report_digest);
    rec.set("peak_rss_mb", crate::probe::peak_rss_mb());

    rec.set("train_samples_per_s", samples(&t, data) / wall_u);
    rec.set("train_test_acc_pct", f64::from(t.acc) * 100.0);
    rec.set("wall.trace_overhead_s", wall_t - wall_u);
    rec.set("wall.unattributed_s", wall_t - train_s - eval_s);
    rec.set("supernet.step_ms", train_s * 1e3 / t.steps.max(1) as f64);
    rec.set("supernet.evaluate_ms", eval_s * 1e3);

    let (generated, gen_s) =
        fastest_timed(SETUP_REPS, || SyntheticDataset::generate(data_cfg, seed));
    generated?;
    rec.set("dataset.generate_ms", gen_s * 1e3);

    let (gflops, gbytes) = kernel_replay(seed)?;
    rec.set("tensor.matmul.gflops", gflops);
    rec.set("tensor.im2col.gbytes_per_s", gbytes);
    Ok(())
}

/// Replays the max subnet's convolutions as the shared conv layers run
/// them (im2col, then columns x transposed weight slice) for one training
/// batch. Returns (matmul GFLOP/s, im2col GB/s).
fn kernel_replay(seed: u64) -> Result<(f64, f64), TensorError> {
    let net = SupernetConfig::tiny();
    let s = net.image_size;
    let mut rng = StdRng::seed_from_u64(seed);
    // (c_in, c_out) of the stem and every stage layer at full depth/width.
    let mut shapes = vec![(net.in_channels, net.max_widths[0])];
    let mut c_in = net.max_widths[0];
    for (&depth, &width) in net.max_depths.iter().zip(&net.max_widths) {
        for _ in 0..depth {
            shapes.push((c_in, width));
            c_in = width;
        }
    }
    let geo = Conv2dGeometry::new(s, s, net.kernel, 1, net.kernel / 2)?;
    let (mut flops, mut bytes, mut matmul_s, mut im2col_s) = (0.0, 0.0, 0.0, 0.0);
    for (i, &(c_in, c_out)) in shapes.iter().enumerate() {
        let mut input = normal(&mut rng, &[BATCH, c_in, s, s], 0.0, 1.0);
        if i > 0 {
            // Hidden activations come out of a ReLU.
            input.map_inplace(|x| x.max(0.0));
        }
        let weight_t =
            normal(&mut rng, &[c_out, c_in * net.kernel * net.kernel], 0.0, 0.1).transpose()?;
        let (cols, t) = fastest_timed(KERNEL_REPS, || im2col(&input, &geo));
        let cols: Tensor = cols?;
        im2col_s += t;
        bytes += ((input.len() + cols.len()) * std::mem::size_of::<f32>()) as f64;
        let (y, t) = fastest_timed(KERNEL_REPS, || cols.matmul(&weight_t));
        std::hint::black_box(y?);
        matmul_s += t;
        let dims = cols.shape().dims();
        flops += 2.0 * (dims[0] * dims[1] * c_out) as f64;
    }
    Ok((flops / matmul_s * 1e-9, bytes / im2col_s * 1e-9))
}
