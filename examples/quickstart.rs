//! Quickstart: launch a burst of secure containers with vanilla SR-IOV
//! and with FastIOV, and compare their startup timelines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fastiov_repro::{run_startup_experiment, Baseline, ExperimentConfig};

fn main() {
    // 24 concurrent containers on the paper's calibrated host; the
    // paper's headline burst is 200.
    let conc = 24;

    println!("launching {conc} secure containers per baseline ...\n");
    for baseline in [Baseline::NoNet, Baseline::Vanilla, Baseline::FastIov] {
        let cfg = ExperimentConfig::paper(baseline, conc);
        let run = run_startup_experiment(&cfg).expect("experiment");
        println!(
            "{:<10} avg {:>6.2}s  p99 {:>6.2}s  (VF-related {:>5.2}s)",
            baseline.label(),
            run.total.mean.as_secs_f64(),
            run.total.p99.as_secs_f64(),
            run.vf_related.mean.as_secs_f64(),
        );
        for (stage, mean) in &run.stage_means {
            if !mean.is_zero() {
                println!("    {:<14} {:>6.2}s", stage, mean.as_secs_f64());
            }
        }
    }
    println!("\nFastIOV removes the VFIO devset serialization, the eager page");
    println!("zeroing, and the image-region mapping, and overlaps the guest VF");
    println!("driver initialization with application launch.");
}
