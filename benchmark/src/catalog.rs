//! Every metric the benchmark reports, by name and unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! `catalog_matches_benchmark_json` test keeps the two in step.
//!
//! Units: `sim_s` is simulated (modelled) seconds, `s` is host seconds,
//! `count` is a number of events, `ratio` is a fraction in `[0, 1]`.

/// Modelled seconds.
pub const SIM_S: &str = "sim_s";
/// Host (wall-clock or CPU) seconds.
pub const HOST_S: &str = "s";
/// A number of events.
pub const COUNT: &str = "count";
/// A fraction.
pub const RATIO: &str = "ratio";

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("startup_p50_s", SIM_S),
    ("startup_p95_s", SIM_S),
    ("startup_mean_s", SIM_S),
    ("task_p50_s", SIM_S),
    ("task_p95_s", SIM_S),
    ("success_ratio", RATIO),
    ("run_wall_s", HOST_S),
    ("setup_s", HOST_S),
    ("peak_rss_mb", "MB"),
];

/// End-to-end timings whose tracing overhead the traced run reports as
/// `trace_overhead.<name>` (traced minus untraced median).
pub const TRACE_OVERHEAD: &[&str] = &[
    "startup_p50_s",
    "startup_p95_s",
    "startup_mean_s",
    "task_p50_s",
    "task_p95_s",
    "run_wall_s",
];

/// Startup stages whose per-pod latency percentiles are reported, in the
/// order of the paper's Tab. 1 followed by the guest and pool stages.
pub const STAGES: &[&str] = &[
    "0-cgroup",
    "1-dma-ram",
    "2-virtiofs",
    "3-dma-image",
    "4-vfio-dev",
    "5-vf-driver",
    "addCNI",
    "g-kernel-load",
    "g-boot",
    "w-claim",
    "w-recycle",
];

/// The four VF-related stages (1, 3, 4, 5 of Tab. 1).
pub const VF_STAGES: &[&str] = &["1-dma-ram", "3-dma-image", "4-vfio-dev", "5-vf-driver"];

/// Span names the program emits outside the stage spans.
pub const LAYER_SPANS: &[&str] = &[
    "launch",
    "vfio.open",
    "iommu.map",
    "iommu.unmap",
    "fastiovd.register",
    "fastiovd.instant-zero",
    "nic.admin",
    "vf-init-async",
    "pool.provision",
    "pool.recycle",
    "app.launch",
    "app.net-wait",
    "app.download",
    "app.exec",
];

/// Spans the benchmark opens around its own phases. Only their self time
/// is reported: their counts only count waves.
pub const BENCH_SPANS: &[&str] = &["bench.setup", "bench.wave", "bench.teardown"];

/// Counters and resource readings, deltas over the measured phase unless
/// the README says otherwise.
const LAYER_COUNTERS: &[(&str, &str)] = &[
    ("vf_overhead_mean_s", SIM_S),
    ("vfio.opens", COUNT),
    ("vfio.resets", COUNT),
    ("vfio.busy_refusals", COUNT),
    ("vfio.devset.wait_s", SIM_S),
    ("vfio.devset.hold_s", SIM_S),
    ("vfio.devset.acquisitions", COUNT),
    ("hostmem.allocations", COUNT),
    ("hostmem.batches_retrieved", COUNT),
    ("hostmem.frames_zeroed", COUNT),
    ("hostmem.frames_stolen", COUNT),
    ("hostmem.free_list.wait_s", SIM_S),
    ("hostmem.membw.max_queue", COUNT),
    ("iommu.table.wait_s", SIM_S),
    ("iommu.table.acquisitions", COUNT),
    ("fastiovd.registered", COUNT),
    ("fastiovd.lazily_zeroed", COUNT),
    ("fastiovd.instantly_zeroed", COUNT),
    ("fastiovd.background_zeroed", COUNT),
    ("fastiovd.tracked_end", COUNT),
    ("fastiovd.lazy_ratio", RATIO),
    ("fastiovd.tier1.wait_s", SIM_S),
    ("nic.admin_cmds", COUNT),
    ("nic.dma.rx", COUNT),
    ("nic.dma.bytes", "bytes"),
    ("nic.dma.faults", COUNT),
    ("virtio.virtiofs_bw.operations", COUNT),
    ("virtio.virtiofs_bw.max_queue", COUNT),
    ("pool.hits", COUNT),
    ("pool.misses", COUNT),
    ("pool.hit_ratio", RATIO),
    ("pool.provisioned", COUNT),
    ("pool.recycled", COUNT),
    ("pool.evicted", COUNT),
    ("pool.provision_failures", COUNT),
    ("pool.recycle_failures", COUNT),
    ("apps.launch.p50_s", SIM_S),
    ("apps.net_wait.p50_s", SIM_S),
    ("apps.net_wait.p95_s", SIM_S),
    ("apps.storage.served", COUNT),
    ("engine.teardown_wall_s", HOST_S),
    ("sim.cpu_s", HOST_S),
    ("sim.ctx_switches_invol", COUNT),
    ("sim.cpu.max_queue", COUNT),
    ("gen.arrival_rate_ratio", RATIO),
];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for stage in STAGES {
        out.push((format!("stage.{stage}.p50_s"), SIM_S));
        out.push((format!("stage.{stage}.p95_s"), SIM_S));
    }
    out.extend(LAYER_COUNTERS.iter().map(|&(n, u)| (n.to_string(), u)));
    for name in STAGES.iter().chain(LAYER_SPANS) {
        out.push((format!("span.{name}.count"), COUNT));
        out.push((format!("span.{name}.self_s"), SIM_S));
    }
    for name in BENCH_SPANS {
        out.push((format!("span.{name}.self_s"), SIM_S));
    }
    for name in TRACE_OVERHEAD {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, u)| u)
            .expect("invariant: overhead names are end-to-end metrics");
        out.push((format!("trace_overhead.{name}"), unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names between `"name": "` and the closing quote in one section of
    /// `BENCHMARK.json` (the file is flat enough not to need a parser).
    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(json, "end_to_end"), e2e);
        let layer: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in(json, "per_layer"), layer);
    }

    #[test]
    fn names_fit_the_benchmark_contract() {
        let layer = per_layer();
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(layer.into_iter().map(|(n, _)| n));
        for n in &all {
            assert!(n.len() <= 64, "{n}");
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{n}"
            );
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "names are unique");
    }
}
