//! Design-space exploration: PCU array sizes and domain-specialized variants.
//!
//! Prints the fabric power/area of every modelled architecture instance and
//! the scalability comparison between the 2×2 and 3×3 Plaid arrays
//! (Figures 17 and 19 territory), read from the paper's evaluation swept
//! once.
//!
//! Run with `cargo run --example design_space`.

use plaid::pipeline::ArchChoice;
use plaid::report::render_table;
use plaid_bench::evaluation::Evaluation;
use plaid_sim::cost::CostModel;

fn main() {
    let model = CostModel;
    let choices = [
        ArchChoice::SpatioTemporal4x4,
        ArchChoice::Spatial4x4,
        ArchChoice::Plaid2x2,
        ArchChoice::Plaid3x3,
        ArchChoice::SpatioTemporalMl,
        ArchChoice::PlaidMl,
    ];
    let rows: Vec<Vec<String>> = choices
        .iter()
        .map(|&c| {
            let arch = c.build();
            let power = model.fabric_power(&arch);
            let area = model.fabric_area(&arch);
            vec![
                c.label().to_string(),
                arch.functional_units().count().to_string(),
                format!("{:.1}", power.total()),
                format!("{:.0}", area.total()),
                format!("{:.0}%", power.share(power.routers()) * 100.0),
                format!(
                    "{:.0}%",
                    power.share(power.comm_config + power.compute_config) * 100.0
                ),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Design space: fabric power and area of every modelled architecture",
            &[
                "architecture",
                "FUs",
                "power µW",
                "area µm²",
                "router share",
                "config share"
            ],
            &rows,
        )
    );

    println!("{}", Evaluation::run().scalability());
}
