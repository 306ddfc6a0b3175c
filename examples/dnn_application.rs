//! Application-level evaluation: map every layer of the three TinyML-style
//! DNN applications onto the spatial baseline and Plaid (Figure 16), read
//! from the paper's evaluation swept once.
//!
//! Run with `cargo run --example dnn_application`.

use plaid_bench::evaluation::Evaluation;

fn main() {
    let (rows, text) = Evaluation::run().dnn_comparison();
    println!("{text}");
    for row in rows {
        println!(
            "{}: plaid {} cycles vs spatial {} cycles; spatial consumes {:.2}x the energy of Plaid",
            row.application,
            row.plaid.cycles,
            row.spatial.cycles,
            row.spatial.energy_nj / row.plaid.energy_nj
        );
    }
}
