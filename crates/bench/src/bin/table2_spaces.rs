//! Regenerates **Table II**: the decision variables and cardinalities of
//! the three HADAS subspaces (B, X, F), asserting they match the paper.

use hadas::Hadas;
use hadas_bench::{all_targets, bench_env};
use hadas_exits::ExitPlacement;
use hadas_hw::{DeviceModel, HwTarget};
use hadas_space::SearchSpace;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct SpaceRow {
    variable: String,
    values: String,
    cardinality: String,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = SearchSpace::attentive_nas();
    let mut rows = Vec::new();

    println!("TABLE II — HADAS joint search spaces");
    println!("{:<42} {:<34} Cardinality", "Decision variable", "Values");
    println!("{}", "-".repeat(96));

    println!("Backbone search space (B)");
    let push = |rows: &mut Vec<SpaceRow>, var: &str, vals: String, card: String| {
        println!("  {:<40} {:<34} {}", var, vals, card);
        rows.push(SpaceRow { variable: var.into(), values: vals, cardinality: card });
    };
    push(&mut rows, "Number of blocks (n_block)", "7".into(), "1".into());
    assert_eq!(space.stages().len(), 7);
    push(
        &mut rows,
        "Input resolution (res)",
        format!("{:?}", space.resolutions()),
        space.resolutions().len().to_string(),
    );
    assert_eq!(space.resolutions().len(), 4);
    let depths: std::collections::BTreeSet<usize> =
        space.stages().iter().flat_map(|s| s.depths.iter().copied()).collect();
    push(&mut rows, "Block depth (l)", format!("{depths:?}"), depths.len().to_string());
    assert_eq!(depths.len(), 8, "depth values {{1..8}}");
    let widths: std::collections::BTreeSet<usize> = space
        .stages()
        .iter()
        .flat_map(|s| s.widths.iter().copied())
        .chain(space.stem_widths().iter().copied())
        .chain(space.head_widths().iter().copied())
        .collect();
    let w_lo = widths.iter().min().ok_or("the width set cannot be empty")?;
    let w_hi = widths.iter().max().ok_or("the width set cannot be empty")?;
    push(&mut rows, "Block width (w)", format!("[{w_lo}, {w_hi}]"), widths.len().to_string());
    assert_eq!(widths.len(), 16, "16 distinct widths in [16, 1984]");
    let kernels: std::collections::BTreeSet<usize> =
        space.stages().iter().flat_map(|s| s.kernels.iter().copied()).collect();
    push(&mut rows, "Block kernel size (k)", format!("{kernels:?}"), kernels.len().to_string());
    assert_eq!(kernels.len(), 2);
    let expands: std::collections::BTreeSet<usize> =
        space.stages().iter().flat_map(|s| s.expands.iter().copied()).collect();
    push(&mut rows, "Block expand ratio (er)", format!("{expands:?}"), expands.len().to_string());
    assert_eq!(expands, [1usize, 4, 5, 6].into_iter().collect());
    println!("  total backbone cardinality: {:.3e} (paper: > 2.94e11)", space.cardinality());
    assert!(space.cardinality() > 2.94e11);

    println!("Exit search space (X), conditioned on each backbone b");
    let mut min_l = 0usize;
    let mut max_l = 0usize;
    for s in space.stages() {
        min_l += s.depths.iter().copied().min().ok_or("a stage must offer a depth")?;
        max_l += s.depths.iter().copied().max().ok_or("a stage must offer a depth")?;
    }
    push(
        &mut rows,
        "Number of exits (nX)",
        format!("[1, Σl−5] with Σl in [{min_l}, {max_l}]"),
        format!("max {}", max_l - 5),
    );
    push(
        &mut rows,
        "Exit positions (posX)",
        "[5, Σl]".to_string(),
        format!("C(nX, Σl−4); {} candidates at Σl={max_l}", ExitPlacement::candidate_count(max_l)),
    );

    println!("DVFS search space (F)");
    for target in all_targets() {
        let dev = DeviceModel::for_target(target);
        let unit = match target {
            HwTarget::AgxVoltaGpu | HwTarget::Tx2PascalGpu => "GPU",
            _ => "CPU",
        };
        let c = dev.ladder().compute_ghz();
        push(
            &mut rows,
            &format!("{unit} frequency ({})", target.name()),
            format!("[{:.1}GHz, {:.1}GHz]", c[0], c[c.len() - 1]),
            dev.ladder().compute_steps().to_string(),
        );
    }
    for (name, target) in [
        ("EMC frequency (AGX SOC)", HwTarget::AgxVoltaGpu),
        ("EMC frequency (TX2 SOC)", HwTarget::Tx2PascalGpu),
    ] {
        let dev = DeviceModel::for_target(target);
        let m = dev.ladder().emc_ghz();
        push(
            &mut rows,
            name,
            format!("[{:.1}GHz, {:.1}GHz]", m[0], m[m.len() - 1]),
            dev.ladder().emc_steps().to_string(),
        );
    }

    // Paper cardinalities: AGX GPU 14, Carmel 29, TX2 GPU 13, Denver 12,
    // EMC AGX 9, EMC TX2 11.
    assert_eq!(DeviceModel::for_target(HwTarget::AgxVoltaGpu).ladder().compute_steps(), 14);
    assert_eq!(DeviceModel::for_target(HwTarget::AgxCarmelCpu).ladder().compute_steps(), 29);
    assert_eq!(DeviceModel::for_target(HwTarget::Tx2PascalGpu).ladder().compute_steps(), 13);
    assert_eq!(DeviceModel::for_target(HwTarget::Tx2DenverCpu).ladder().compute_steps(), 12);

    let _ = Hadas::for_target(HwTarget::Tx2PascalGpu); // framework assembles
    bench_env!().write_json("table2_spaces", &rows)?;
    println!("\nall Table II cardinalities match the paper");
    Ok(())
}
