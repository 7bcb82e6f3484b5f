//! Serverless burst: run a burst of SeBS-style tasks (image thumbnails)
//! on vanilla SR-IOV and on FastIOV, printing per-task completion times.
//!
//! Each task starts a secure container, transfers the container image over
//! virtioFS, waits for its VF to come up, downloads its input through the
//! NIC DMA path, and "computes" a real thumbnail.
//!
//! ```sh
//! cargo run --release --example serverless_burst
//! ```

use fastiov_repro::apps::AppKind;
use fastiov_repro::{run_app_experiment, Baseline, ExperimentConfig};

fn main() {
    let conc = 16;
    let app = AppKind::Image;

    for baseline in [Baseline::Vanilla, Baseline::FastIov] {
        let cfg = ExperimentConfig::paper(baseline, conc);
        let run = run_app_experiment(&cfg, app).expect("app experiment");
        println!(
            "{} × {conc} tasks on {:<8}: avg completion {:.2}s (startup portion {:.2}s avg)",
            app.name(),
            baseline.label(),
            run.completion.mean.as_secs_f64(),
            run.tasks
                .iter()
                .map(|t| t.startup.as_secs_f64())
                .sum::<f64>()
                / conc as f64,
        );
        let mut sorted = run.tasks.clone();
        sorted.sort_by_key(|t| t.index);
        for t in sorted.iter().take(4) {
            println!(
                "  task {:>2}: completion {:>6.2}s  startup {:>5.2}s  net-wait {:>5.2}s  ({} bytes in)",
                t.index,
                t.completion.as_secs_f64(),
                t.startup.as_secs_f64(),
                t.net_wait.as_secs_f64(),
                t.downloaded,
            );
        }
        println!("  ... ({} tasks total)\n", run.tasks.len());
    }
}
