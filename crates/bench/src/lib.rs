//! Shared plumbing for the figure-regeneration binaries.
//!
//! Every `fig*` binary accepts an optional `--scale <f64>` argument (the
//! real/simulated time ratio) and `--conc <n>` override so the full paper
//! matrix can be traded against wall-clock time. The default scale of
//! `0.02` (at which the model is calibrated) reproduces each figure in
//! seconds-to-minutes.

#![warn(missing_docs)]

pub mod json;

use fastiov::{Baseline, ExperimentConfig};
use std::time::Duration;

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOpts {
    /// Real/simulated time ratio.
    pub scale: f64,
    /// Concurrency override (figure-specific default when `None`).
    pub conc: Option<u32>,
    /// Seed for fault injection and deterministic jitter (`--seed`).
    pub seed: u64,
}

impl HarnessOpts {
    /// Parses `--scale` / `--conc` / `--seed` from `std::env::args`.
    pub fn from_args() -> Self {
        let mut opts = HarnessOpts {
            scale: 0.02,
            conc: None,
            seed: 1,
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" if i + 1 < args.len() => {
                    opts.scale = args[i + 1].parse().expect("--scale takes a float");
                    i += 2;
                }
                "--conc" if i + 1 < args.len() => {
                    opts.conc = Some(args[i + 1].parse().expect("--conc takes an integer"));
                    i += 2;
                }
                "--seed" if i + 1 < args.len() => {
                    opts.seed = args[i + 1].parse().expect("--seed takes an integer");
                    i += 2;
                }
                _ => i += 1,
            }
        }
        opts
    }

    /// Paper configuration at this harness's scale.
    pub fn config(&self, baseline: Baseline, default_conc: u32) -> ExperimentConfig {
        ExperimentConfig::paper_scaled(baseline, self.conc.unwrap_or(default_conc), self.scale)
    }
}

/// Formats simulated seconds.
pub fn s(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Formats a percent.
pub fn pct(f: f64) -> String {
    format!("{:.1}", f * 100.0)
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}
