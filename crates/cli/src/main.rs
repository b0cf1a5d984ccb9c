//! `dbscout` — command-line outlier detection.
//!
//! ```text
//! dbscout detect   --input pts.csv --eps 0.5 --min-pts 5 [--engine native|distributed]
//!                  [--labeled] [--output outliers.csv] [--threads N]
//! dbscout generate --dataset blobs|circles|moons|geolife|osm --n 10000 --seed 1
//!                  --output pts.csv [--labeled]
//! dbscout kdist    --input pts.csv --k 5
//! dbscout info     --input pts.csv [--eps 0.5]
//! dbscout serve    --input pts.csv --eps 0.5 --min-pts 5 [--socket path]
//! ```
//!
//! `--threads` is the one parallelism knob: the native engine runs its
//! passes on that many threads of this process. Each subcommand names
//! the flags it reads (the full list is `cli::USAGE`); any other flag is
//! a usage error.

// Unit tests may panic freely; library code is held to the panic-freedom
// gates in `[workspace.lints]` and `cargo xtask lint`.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::float_cmp
    )
)]

use std::process::ExitCode;

mod cli;
mod commands;
mod progress;
mod serve;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::run(&args) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            // Only usage errors get the usage text; data/engine failures
            // already carry a precise message.
            if e.kind == cli::ErrorKind::Usage {
                eprintln!("{}", cli::USAGE);
            }
            ExitCode::from(e.exit_code())
        }
    }
}
