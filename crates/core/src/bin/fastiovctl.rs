//! `fastiovctl` — command-line front end for the FastIOV reproduction.
//!
//! ```text
//! fastiovctl baselines
//! fastiovctl startup --baseline fastiov --conc 200 [--ram-mb 512] [--image-mb 256]
//! fastiovctl app --app image --baseline vanilla --conc 50
//! fastiovctl pool --capacity 16 --pods 32 [--rate 20]
//! fastiovctl faults --baseline pool16 --conc 50 [--rate 0.01] [--seed 1]
//! fastiovctl observe [--baseline fastiov] [--conc 200] [--smoke] [--out observe/]
//! fastiovctl reproduce [--only <claim-id-prefix>]
//! ```
//!
//! Failed experiments exit with the stable code of their error class
//! (see [`fastiov::Error::exit_code`]); `0` always means success. A
//! malformed flag, or one the subcommand does not take, prints the
//! reason and the usage and exits with `1`.

use fastiov::apps::AppKind;
use fastiov::engine::cdf_points;
use fastiov::hostmem::addr::units::mib;
use fastiov::reproduce;
use fastiov::{
    run_app_experiment, run_startup_experiment, run_wave, Baseline, ExperimentConfig, Table,
};
use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;

/// Parses `--name [value]` pairs, rejecting any flag not in `takes`.
fn parse_flags(args: &[String], takes: &[&str]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if !takes.contains(&key) {
                bad_flag(key, "unknown flag");
            }
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(key.to_string(), String::from("true"));
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    flags
}

/// Baseline names, as `fastiovctl baselines` lists them; `poolN` takes
/// any capacity.
const BASELINES: [(&str, Baseline); 14] = [
    ("no-net", Baseline::NoNet),
    ("vanilla", Baseline::Vanilla),
    ("vanilla-orig", Baseline::VanillaOriginal),
    ("fastiov", Baseline::FastIov),
    ("fastiov-l", Baseline::FastIovMinusL),
    ("fastiov-a", Baseline::FastIovMinusA),
    ("fastiov-s", Baseline::FastIovMinusS),
    ("fastiov-d", Baseline::FastIovMinusD),
    ("pre10", Baseline::Prezero(10)),
    ("pre50", Baseline::Prezero(50)),
    ("pre100", Baseline::Prezero(100)),
    ("ipvtap", Baseline::Ipvtap),
    ("fastiov-vdpa", Baseline::FastIovVdpa),
    ("pool16", Baseline::WarmPool(16)),
];

fn baseline_from(name: &str) -> Option<Baseline> {
    let name = name.to_ascii_lowercase();
    let name = match name.as_str() {
        "nonet" => "no-net",
        "original" => "vanilla-orig",
        "vdpa" => "fastiov-vdpa",
        n => n,
    };
    if let Some(n) = name.strip_prefix("pool") {
        return n.parse().ok().map(Baseline::WarmPool);
    }
    BASELINES.iter().find(|(n, _)| *n == name).map(|&(_, b)| b)
}

/// The `--baseline` flag, or `default` without one. An unknown name, or
/// a missing flag without a default, is reported and yields `None`.
fn baseline_or(flags: &HashMap<String, String>, default: Option<Baseline>) -> Option<Baseline> {
    let Some(name) = flags.get("baseline") else {
        if default.is_none() {
            eprintln!("--baseline required (see `fastiovctl baselines`)");
        }
        return default;
    };
    let b = baseline_from(name);
    if b.is_none() {
        eprintln!("unknown baseline {name} (see `fastiovctl baselines`)");
    }
    b
}

fn app_from(name: &str) -> Option<AppKind> {
    AppKind::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
}

/// Reports a malformed flag with the usage and exits with `1`.
fn bad_flag(name: &str, reason: impl std::fmt::Display) -> ! {
    eprintln!("--{name}: {reason}");
    let _ = usage();
    std::process::exit(1)
}

/// The value of `--<name>`, or `default` without the flag.
fn flag<T: FromStr>(flags: &HashMap<String, String>, name: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match flags.get(name) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|e| bad_flag(name, format!("{v:?}: {e}"))),
    }
}

fn config(flags: &HashMap<String, String>, baseline: Baseline) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(baseline, flag(flags, "conc", 50));
    cfg.ram_bytes = mib(flag(flags, "ram-mb", 512));
    cfg.image_bytes = mib(flag(flags, "image-mb", 256));
    cfg.vcpus = flag(flags, "vcpus", cfg.vcpus);
    cfg
}

/// Reports a failed experiment and translates it into the stable exit
/// code of its error class.
fn fail(e: &fastiov::Error) -> ExitCode {
    eprintln!("fastiovctl: {e}");
    ExitCode::from(e.exit_code().clamp(1, 255) as u8)
}

fn print_startup(cfg: &ExperimentConfig, cdf: bool) -> ExitCode {
    let run = match run_startup_experiment(cfg) {
        Ok(run) => run,
        Err(e) => return fail(&e),
    };
    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["baseline".to_string(), run.baseline.label()]);
    t.row(vec![
        "containers".to_string(),
        run.reports.len().to_string(),
    ]);
    t.row(vec![
        "avg (s)".to_string(),
        format!("{:.2}", run.total.mean_secs()),
    ]);
    t.row(vec![
        "p50 (s)".to_string(),
        format!("{:.2}", run.total.p50.as_secs_f64()),
    ]);
    t.row(vec![
        "p99 (s)".to_string(),
        format!("{:.2}", run.total.p99_secs()),
    ]);
    t.row(vec![
        "vf-related avg (s)".to_string(),
        format!("{:.2}", run.vf_related.mean_secs()),
    ]);
    println!("{}", t.render());
    println!("stage means:");
    for (stage, mean) in &run.stage_means {
        if !mean.is_zero() {
            println!("  {stage:<14} {:.2}s", mean.as_secs_f64());
        }
    }
    if cdf {
        println!("\ntime_s,cdf");
        for (x, y) in cdf_points(&run.totals()) {
            println!("{x:.3},{y:.4}");
        }
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fastiovctl baselines\n  fastiovctl startup --baseline <name> [--cdf]\n  \
         fastiovctl app --app <image|compression|scientific|inference> --baseline <name>\n  \
         fastiovctl pool [--capacity N] [--pods N] [--rate F] [--hold-ms M]\n  \
         fastiovctl faults [--baseline <name>] [--rate F] [--seed N]\n  \
         fastiovctl observe [--baseline <name>] [--smoke] [--out DIR]\n  \
         fastiovctl reproduce [--only <claim-id-prefix>]\n\
         startup, app, pool, faults and observe also take \
         [--conc N] [--ram-mb M] [--image-mb M] [--vcpus F]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    // Every experiment subcommand takes the flags `config` reads.
    let with_config =
        |own: &[&'static str]| [own, &["conc", "ram-mb", "image-mb", "vcpus"]].concat();
    let takes = match cmd.as_str() {
        "baselines" => vec![],
        "reproduce" => vec!["only"],
        "startup" => with_config(&["baseline", "cdf"]),
        "app" => with_config(&["app", "baseline"]),
        "pool" => with_config(&["capacity", "pods", "rate", "hold-ms"]),
        "faults" => with_config(&["baseline", "rate", "seed"]),
        "observe" => with_config(&["baseline", "smoke", "out"]),
        _ => return usage(),
    };
    let flags = parse_flags(&args[1..], &takes);
    match cmd.as_str() {
        "baselines" => {
            let mut t = Table::new(vec!["name", "label"]);
            for (name, b) in BASELINES {
                t.row(vec![name.to_string(), b.label()]);
            }
            println!("{}", t.render());
            ExitCode::SUCCESS
        }
        "startup" => {
            let Some(b) = baseline_or(&flags, None) else {
                return ExitCode::FAILURE;
            };
            print_startup(&config(&flags, b), flags.contains_key("cdf"))
        }
        "app" => {
            let Some(b) = baseline_or(&flags, None) else {
                return ExitCode::FAILURE;
            };
            let Some(app) = flags.get("app").and_then(|n| app_from(n)) else {
                eprintln!("--app required (image|compression|scientific|inference)");
                return ExitCode::FAILURE;
            };
            let run = match run_app_experiment(&config(&flags, b), app) {
                Ok(run) => run,
                Err(e) => return fail(&e),
            };
            println!(
                "{} × {} on {}: avg completion {:.2}s, p99 {:.2}s",
                app.name(),
                run.tasks.len(),
                run.baseline.label(),
                run.completion.mean_secs(),
                run.completion.p99_secs(),
            );
            ExitCode::SUCCESS
        }
        "pool" => {
            let capacity: u16 = flag(&flags, "capacity", 16);
            let pods: u32 = flag(&flags, "pods", 2 * u32::from(capacity));
            let rate: f64 = flag(&flags, "rate", 20.0);
            let hold_ms: u64 = flag(&flags, "hold-ms", 500);
            let cfg = config(&flags, Baseline::WarmPool(capacity));
            let (_host, engine) = match cfg.build() {
                Ok(built) => built,
                Err(e) => return fail(&e),
            };
            let pool = std::sync::Arc::clone(engine.pool().expect("pool"));
            let outcome = engine.run_sustained(fastiov::engine::SustainedConfig {
                total: pods,
                rate_per_s: rate,
                hold: std::time::Duration::from_millis(hold_ms),
                seed: 7,
            });
            pool.wait_idle();
            let s = pool.stats();
            let mut t = Table::new(vec!["metric", "value"]);
            t.row(vec!["capacity".to_string(), s.capacity.to_string()]);
            t.row(vec!["parked now".to_string(), s.size.to_string()]);
            t.row(vec!["claims (hit)".to_string(), s.hits.to_string()]);
            t.row(vec!["claims (miss)".to_string(), s.misses.to_string()]);
            t.row(vec![
                "hit rate".to_string(),
                format!("{:.1}%", 100.0 * s.hit_rate()),
            ]);
            t.row(vec!["provisioned".to_string(), s.provisioned.to_string()]);
            t.row(vec!["recycled".to_string(), s.recycled.to_string()]);
            t.row(vec![
                "provision failures".to_string(),
                s.provision_failures.to_string(),
            ]);
            t.row(vec!["replenish backlog".to_string(), s.backlog.to_string()]);
            t.row(vec![
                "pods run".to_string(),
                outcome.summary.total().to_string(),
            ]);
            t.row(vec![
                "launch summary".to_string(),
                outcome.summary.to_string(),
            ]);
            if let Ok(sum) = fastiov::experiment::summarize(cfg.baseline, outcome.reports) {
                t.row(vec![
                    "startup avg (s)".to_string(),
                    format!("{:.3}", sum.total.mean_secs()),
                ]);
                t.row(vec![
                    "startup p99 (s)".to_string(),
                    format!("{:.3}", sum.total.p99_secs()),
                ]);
            }
            println!("{}", t.render());
            ExitCode::SUCCESS
        }
        "faults" => {
            let Some(b) = baseline_or(&flags, Some(Baseline::FastIov)) else {
                return ExitCode::FAILURE;
            };
            let rate: f64 = flag(&flags, "rate", 0.01);
            let seed: u64 = flag(&flags, "seed", 1);
            let mut cfg = config(&flags, b);
            cfg.faults = fastiov::faults::FaultConfig::uniform(seed, rate);
            cfg.pool_watermark = Some(0);
            let (host, summary) = match run_wave(&cfg, |_| {}) {
                Ok(done) => done,
                Err(e) => return fail(&e),
            };
            println!(
                "baseline {}  seed {seed}  per-site rate {rate}\n\
                 launched {}/{}  failure classes: {}",
                b.label(),
                summary.succeeded,
                summary.total(),
                if summary.classes.is_empty() {
                    "-".to_string()
                } else {
                    summary
                        .classes
                        .iter()
                        .map(|(c, n)| format!("{c}={n}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                }
            );
            let mut t = Table::new(vec![
                "site",
                "checks",
                "errors",
                "delays",
                "retries",
                "fallbacks",
            ]);
            for (site, s) in host.faults.report() {
                t.row(vec![
                    site.to_string(),
                    s.checks.to_string(),
                    s.errors.to_string(),
                    s.delays.to_string(),
                    s.retries.to_string(),
                    s.fallbacks.to_string(),
                ]);
            }
            println!("{}", t.render());
            ExitCode::SUCCESS
        }
        "observe" => observe(&flags),
        "reproduce" => reproduce_cmd(flags.get("only").map_or("", String::as_str)),
        _ => usage(),
    }
}

/// One observed launch wave: the lockdep witness and the host tracer
/// record together, and the run prints the wave summary, the per-stage
/// table reconciled against the trace, the per-class lock statistics and
/// the lockdep verdict, writing `trace.json`, `lockgraph.dot` and
/// `lockgraph.json` into `--out` (default `observe/`). Fails if the trace
/// and the stage summary diverge by more than 1 % or on any lockdep
/// report.
fn observe(flags: &HashMap<String, String>) -> ExitCode {
    use fastiov::simtime::{lockdep, LockClass};
    let Some(b) = baseline_or(flags, Some(Baseline::FastIov)) else {
        return ExitCode::FAILURE;
    };
    let mut cfg = config(flags, b);
    if !flags.contains_key("conc") {
        // The paper's headline experiment is a 200-way simultaneous wave;
        // --smoke shrinks it so CI can afford the run.
        cfg.concurrency = if flags.contains_key("smoke") { 8 } else { 200 };
    }
    let dir = std::path::PathBuf::from(flags.get("out").map_or("observe", String::as_str));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("fastiovctl: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    lockdep::enable();
    lockdep::reset();
    // Must happen before the wave: spans are only recorded while the
    // tracer is enabled, and it starts disabled so untraced runs pay a
    // single atomic load per would-be span.
    let (host, summary) = match run_wave(&cfg, |host| host.tracer.enable()) {
        Ok(done) => done,
        Err(e) => return fail(&e),
    };
    let files = [
        ("trace.json", host.tracer.chrome_trace_json()),
        ("lockgraph.dot", lockdep::graph_dot()),
        ("lockgraph.json", lockdep::graph_json()),
    ];
    for (name, body) in &files {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("fastiovctl: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let spans = host.tracer.spans();
    println!("{} at conc {}: {summary}", b.label(), cfg.concurrency);
    println!(
        "{} spans -> {}: trace.json (load in chrome://tracing or ui.perfetto.dev), \
         lockgraph.dot (render with `dot -Tsvg`), lockgraph.json",
        spans.len(),
        dir.display(),
    );

    // Per-stage percentiles over simulated time, with the tracer's
    // independent view of the same stages alongside. Traced stages share
    // their exact clock readings with the stage log, so the two means must
    // agree; any divergence means spans are being attributed to the wrong
    // VM or dropped.
    let mut t = Table::new(vec![
        "stage",
        "n",
        "sim mean (s)",
        "p50 (s)",
        "p90 (s)",
        "p99 (s)",
        "trace mean (s)",
        "wall mean (ms)",
    ]);
    let mut worst: f64 = 0.0;
    for (stage, s) in &summary.stage_percentiles {
        let mut per_vm: HashMap<u64, (std::time::Duration, std::time::Duration)> = HashMap::new();
        for sp in spans.iter().filter(|sp| sp.vm != 0 && sp.name == *stage) {
            let e = per_vm.entry(sp.vm).or_default();
            e.0 += sp.sim_duration();
            e.1 += sp.wall_duration();
        }
        let n = per_vm.len().max(1) as f64;
        let trace_mean = per_vm
            .values()
            .map(|(sim, _)| sim.as_secs_f64())
            .sum::<f64>()
            / n;
        let wall_mean_ms = per_vm.values().map(|(_, w)| w.as_secs_f64()).sum::<f64>() / n * 1e3;
        let sim_mean = s.mean.as_secs_f64();
        let rel = if sim_mean > 0.0 {
            (trace_mean - sim_mean).abs() / sim_mean
        } else if trace_mean > 0.0 {
            1.0
        } else {
            0.0
        };
        worst = worst.max(rel);
        t.row(vec![
            stage.clone(),
            s.n.to_string(),
            format!("{:.3}", sim_mean),
            format!("{:.3}", s.p50.as_secs_f64()),
            format!("{:.3}", s.p90.as_secs_f64()),
            format!("{:.3}", s.p99.as_secs_f64()),
            format!("{:.3}", trace_mean),
            format!("{:.2}", wall_mean_ms),
        ]);
    }
    println!("{}", t.render());
    println!(
        "trace/summary reconciliation: max divergence {:.4}% over {} stages",
        worst * 100.0,
        summary.stage_percentiles.len(),
    );

    let mut t = Table::new(vec![
        "lock class",
        "wait (ms)",
        "hold (ms)",
        "acquisitions",
        "contended",
        "mean wait (us)",
    ]);
    // Real (wall-clock) time since process start, host boot included: a
    // relative ranking of which lock class threads queued on, not a
    // simulated-cost figure.
    let mut classes: Vec<(LockClass, _)> = LockClass::ALL
        .iter()
        .map(|&c| (c, c.stats()))
        .filter(|(_, s)| s.acquisitions > 0)
        .collect();
    classes.sort_by_key(|(_, s)| std::cmp::Reverse(s.wait_ns));
    for (class, s) in classes {
        t.row(vec![
            class.name().to_string(),
            format!("{:.2}", s.wait_ns as f64 / 1e6),
            format!("{:.2}", s.hold_ns as f64 / 1e6),
            s.acquisitions.to_string(),
            s.contended.to_string(),
            format!("{:.1}", s.mean_wait_ns() / 1e3),
        ]);
    }
    println!("{}", t.render());

    let reports = lockdep::reports();
    if reports.is_empty() {
        println!("lockdep: no potential deadlocks or hierarchy violations");
    }
    for r in &reports {
        eprintln!("lockdep: {r}");
    }
    let diverged = worst > 0.01;
    if diverged {
        eprintln!("fastiovctl: trace disagrees with stage summary by more than 1%");
    }
    if !reports.is_empty() {
        eprintln!("fastiovctl: {} lock-discipline report(s)", reports.len());
    }
    ExitCode::from(u8::from(diverged || !reports.is_empty()))
}

/// Runs the claims under `only`, merges their records into `RESULTS.json`
/// (or rewrites it without `--only`), re-renders the `EXPERIMENTS.md`
/// blocks from it, and fails on any ❌. Both files are read from and
/// written to the current directory.
fn reproduce_cmd(only: &str) -> ExitCode {
    let t0 = fastiov::simtime::WallStopwatch::start();
    let fresh = match reproduce::reproduce(only) {
        Ok(records) => records,
        Err(fastiov::Error::Empty) => {
            eprintln!("fastiovctl: no claim id starts with {only:?}");
            return ExitCode::FAILURE;
        }
        Err(e) => return fail(&e),
    };
    let old = match only {
        "" => String::new(),
        _ => std::fs::read_to_string("RESULTS.json").unwrap_or_default(),
    };
    let results = reproduce::merge_results(&old, &fresh);
    let md = match std::fs::read_to_string("EXPERIMENTS.md") {
        Ok(md) => md,
        Err(e) => {
            eprintln!("fastiovctl: cannot read EXPERIMENTS.md (run from the repo root): {e}");
            return ExitCode::FAILURE;
        }
    };
    let md = reproduce::render_blocks(&md, &reproduce::parse_results(&results));
    for (path, body) in [("RESULTS.json", &results), ("EXPERIMENTS.md", &md)] {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("fastiovctl: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut figures: Vec<&str> = fresh.iter().map(|r| r.figure.as_str()).collect();
    figures.dedup();
    for figure in figures {
        println!("{figure}\n{}", reproduce::render_table(&fresh, figure));
    }
    let failed = fresh.iter().filter(|r| r.status == "❌").count();
    println!(
        "{} claims ({failed} failed) in {:.0}s -> RESULTS.json, EXPERIMENTS.md",
        fresh.len(),
        t0.elapsed().as_secs_f64()
    );
    ExitCode::from(u8::from(failed > 0))
}
