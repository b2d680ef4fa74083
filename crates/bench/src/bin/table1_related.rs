//! Regenerates **Table I**: the related-work capability comparison.

use hadas::related::TABLE_I;
use hadas_bench::bench_env;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    work: String,
    early_exiting: bool,
    nas: bool,
    dvfs: bool,
    compatibility: bool,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("TABLE I — comparison between related works and HADAS");
    println!(
        "{:<18} {:^13} {:^5} {:^6} {:^13}",
        "Work", "Early-Exiting", "NAS", "DVFS", "Compatibility"
    );
    println!("{}", "-".repeat(60));
    let mark = |b: bool| if b { "X" } else { "" };
    let mut rows = Vec::new();
    for w in TABLE_I {
        println!(
            "{:<18} {:^13} {:^5} {:^6} {:^13}",
            w.name,
            mark(w.early_exiting),
            mark(w.nas),
            mark(w.dvfs),
            mark(w.compatibility)
        );
        rows.push(Row {
            work: w.name.to_string(),
            early_exiting: w.early_exiting,
            nas: w.nas,
            dvfs: w.dvfs,
            compatibility: w.compatibility,
        });
    }
    assert!(
        TABLE_I.iter().filter(|w| w.capability_count() == 4).all(|w| w.name == "HADAS"),
        "HADAS must be the only framework with all four capabilities"
    );
    bench_env!().write_json("table1_related", &rows)?;
    Ok(())
}
