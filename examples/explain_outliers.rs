//! Outlier triage: detect, rank by nearest-core distance, and print a
//! counterfactual explanation for the top findings — what a human
//! reviewing the alerts actually needs.
//!
//! Run: `cargo run --release --example explain_outliers`

// Examples favor brevity: panicking on setup failure is the right
// behavior for demo binaries.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

use dbscout::core::explain::{consistent, explain};
use dbscout::core::{outlier_scores, DbscoutParams};
use dbscout::data::generators::blobs;

fn main() {
    let ds = blobs(4950, 50, 3, 0.5, 99);
    let params = DbscoutParams::new(0.6, 5).expect("valid parameters");
    let scored = outlier_scores(&ds.points, params).expect("detection succeeds");
    println!(
        "{} points, {} outliers detected\n",
        ds.len(),
        scored.result.num_outliers()
    );

    // Rank outliers by how far outside every dense region they sit.
    let mut ranked: Vec<u32> = scored.result.outliers.clone();
    ranked.sort_by(|&a, &b| scored.scores[b as usize].total_cmp(&scored.scores[a as usize]));

    let top: Vec<u32> = ranked.iter().take(5).copied().collect();
    println!("top {} most extreme outliers:", top.len());
    let explanations =
        explain(&ds.points, &scored.result, params, &top).expect("explanation succeeds");
    for e in &explanations {
        assert!(consistent(e, params), "explanation must match the label");
        println!("  {e}");
    }

    // Borderline cases are the interesting ones for a reviewer: the
    // outliers *closest* to being covered.
    let bottom: Vec<u32> = ranked.iter().rev().take(3).copied().collect();
    println!("\nborderline outliers (closest to a dense region):");
    for e in explain(&ds.points, &scored.result, params, &bottom).expect("explanation succeeds") {
        let slack = e.eps_to_cover.map(|d| d - params.eps());
        println!(
            "  {e}\n    → would be covered if eps grew by {:.4}",
            slack.unwrap_or(f64::INFINITY)
        );
    }
}
