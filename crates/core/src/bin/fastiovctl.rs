//! `fastiovctl` — command-line front end for the FastIOV reproduction.
//!
//! ```text
//! fastiovctl run <row-id>
//! fastiovctl observe <row-id> [--out observe/]
//! fastiovctl reproduce [--only <claim-id-prefix>]
//! ```
//!
//! Every scenario the CLI runs is a row of the one scenario table
//! ([`fastiov::reproduce::rows`]), named by its id: `calibrate.fastiov@200`,
//! `ext_faults.fastiov+pool50@50/5pct`, `ablation_frag.2m/none`. An
//! unknown id exits with `1`, listing the ids it prefixes. Ad-hoc
//! configurations go through the library API (`examples/quickstart.rs`).
//!
//! Failed experiments exit with the stable code of their error class
//! (see [`fastiov::Error::exit_code`]); `0` always means success. A
//! missing or extra argument, a flag the subcommand does not take, or a
//! flag without its value prints the reason and the usage and exits
//! with `1`.

use fastiov::reproduce::{self, Row, Run};
use fastiov::{run_wave, Table};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:\n  \
    fastiovctl run <row-id>                          print the row's metrics\n  \
    fastiovctl observe <row-id> [--out DIR]          one traced wave of a launch or fault row\n  \
    fastiovctl reproduce [--only <claim-id-prefix>]  evaluate the paper's claims";

/// Reports a usage error with the usage; exits with `1`.
fn usage_error(reason: impl Display) -> ExitCode {
    eprintln!("fastiovctl: {reason}\n{USAGE}");
    ExitCode::FAILURE
}

/// Reports a failed experiment and translates it into the stable exit
/// code of its error class.
fn fail(e: &fastiov::Error) -> ExitCode {
    eprintln!("fastiovctl: {e}");
    ExitCode::from(e.exit_code().clamp(1, 255) as u8)
}

/// Positional arguments and `--flag value` pairs.
type Args = (Vec<String>, HashMap<String, String>);

/// Splits `args` into exactly `positional` arguments and values of the
/// flags named in `takes`. Every flag takes a value.
fn parse(args: &[String], positional: usize, takes: &[&str]) -> Result<Args, String> {
    let (mut pos, mut flags) = (Vec::new(), HashMap::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            pos.push(arg.clone());
            continue;
        };
        if !takes.contains(&name) {
            return Err(format!("--{name}: unknown flag"));
        }
        match args.next() {
            Some(value) if !value.starts_with("--") => {
                flags.insert(name.to_string(), value.clone());
            }
            _ => return Err(format!("--{name}: missing value")),
        }
    }
    if pos.len() != positional {
        return Err(format!(
            "expected {positional} argument(s), got {}: {pos:?}",
            pos.len()
        ));
    }
    Ok((pos, flags))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage_error("no subcommand");
    };
    let (positional, takes): (usize, &[&str]) = match cmd.as_str() {
        "run" => (1, &[]),
        "observe" => (1, &["out"]),
        "reproduce" => (0, &["only"]),
        _ => return usage_error(format_args!("unknown subcommand {cmd:?}")),
    };
    let (pos, flags) = match parse(rest, positional, takes) {
        Ok(parsed) => parsed,
        Err(reason) => return usage_error(reason),
    };
    let flag = |name, default| flags.get(name).map_or(default, String::as_str);
    match cmd.as_str() {
        "run" => run(&pos[0]),
        "observe" => observe(&pos[0], flag("out", "observe")),
        _ => reproduce_cmd(flag("only", "")),
    }
}

/// The row with id `id`. An unknown id is reported with the ids it
/// prefixes, or, if it prefixes none, with every figure's prefix.
fn find_row(id: &str) -> Option<Row> {
    let rows = reproduce::rows();
    if let Some(row) = rows.iter().find(|r| r.id == id) {
        return Some(row.clone());
    }
    eprintln!("fastiovctl: no row {id:?}");
    let ids: Vec<&str> = rows.iter().map(|r| r.id.as_str()).collect();
    let prefixed: Vec<&str> = ids.iter().copied().filter(|r| r.starts_with(id)).collect();
    if prefixed.is_empty() {
        let mut figures: Vec<&str> = Vec::new();
        for figure in ids.iter().filter_map(|r| r.split('.').next()) {
            if !figures.contains(&figure) {
                figures.push(figure);
            }
        }
        eprintln!("row ids start with: {}", figures.join(" "));
    } else {
        eprintln!(
            "rows whose id starts with {id:?}:\n  {}",
            prefixed.join("\n  ")
        );
    }
    None
}

/// Measures one row and prints each of its metrics as `name value`, in
/// key order. Values are the shortest decimals that read back to the
/// same `f64`: the numbers `reproduce` evaluates.
fn run(id: &str) -> ExitCode {
    let Some(row) = find_row(id) else {
        return ExitCode::FAILURE;
    };
    match row.run.measure() {
        Ok(metrics) => {
            for (name, value) in metrics {
                println!("{name} {value}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

/// One observed launch wave of a launch-wave or fault-plane row: the
/// host tracer records beside the host's lockdep witness, and the run
/// prints the wave summary, the per-stage table reconciled against the
/// trace, the executor's baton counts, the per-class lock counts and the
/// lockdep verdict, writing `trace.json`, `lockgraph.dot` and
/// `lockgraph.json` into `out`. Every figure it prints or writes is
/// exact, so two runs of a row agree byte for byte. Fails if a stage's
/// trace mean and summary mean differ by a nanosecond or on any lockdep
/// report.
fn observe(id: &str, out: &str) -> ExitCode {
    use fastiov::simtime::{lockdep, LockClass};
    let Some(row) = find_row(id) else {
        return ExitCode::FAILURE;
    };
    let (Run::Startup(cfg) | Run::Faults(cfg)) = &row.run else {
        return usage_error(format_args!(
            "observe runs one launch wave; {id} is not a launch-wave or fault-plane row"
        ));
    };
    let dir = std::path::PathBuf::from(out);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("fastiovctl: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    // Must happen before the wave: spans are only recorded while the
    // tracer is enabled, and it starts disabled so untraced runs pay a
    // single atomic load per would-be span.
    let (host, summary, started) = match run_wave(cfg, |host| host.tracer.enable()) {
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
    println!("{id}: {summary}");
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
    ]);
    let mut worst = Duration::ZERO;
    for (stage, s) in &summary.stage_percentiles {
        // Each started VM's last span of the stage: a retried launch runs
        // its stages again, and the stage log keeps the attempt that
        // started the pod; a pod that never started has no stage record.
        let mut per_vm: BTreeMap<u64, Duration> = BTreeMap::new();
        for sp in spans
            .iter()
            .filter(|sp| sp.name == *stage && started.binary_search(&sp.vm).is_ok())
        {
            per_vm.insert(sp.vm, sp.sim_duration());
        }
        // Rounded as `Summary::mean` rounds, so equal samples give equal
        // nanoseconds.
        let trace_mean = per_vm.values().sum::<Duration>() / per_vm.len().max(1) as u32;
        worst = worst.max(trace_mean.abs_diff(s.mean));
        t.row(vec![
            stage.clone(),
            s.n.to_string(),
            format!("{:.3}", s.mean.as_secs_f64()),
            format!("{:.3}", s.p50.as_secs_f64()),
            format!("{:.3}", s.p90.as_secs_f64()),
            format!("{:.3}", s.p99.as_secs_f64()),
            format!("{:.3}", trace_mean.as_secs_f64()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "trace/summary reconciliation: max divergence {} ns over {} stages",
        worst.as_nanos(),
        summary.stage_percentiles.len(),
    );
    // Exact, like the simulated times: the baton traffic behind the
    // wave's wall time (host build included).
    let exec = host.clock.exec_stats();
    println!(
        "executor: {} hand-offs, {} self-resumes, {} timer jumps",
        exec.handoffs, exec.self_resumes, exec.timer_jumps,
    );

    // Counted on this host's clock, host build included; the executor
    // decides every interleaving, so the counts repeat exactly.
    let mut t = Table::new(vec!["lock class", "acquisitions", "contended"]);
    let mut classes: Vec<(LockClass, _)> = LockClass::ALL
        .iter()
        .map(|&c| (c, c.stats()))
        .filter(|(_, s)| s.acquisitions > 0)
        .collect();
    classes.sort_by_key(|(_, s)| std::cmp::Reverse((s.contended, s.acquisitions)));
    for (class, s) in classes {
        t.row(vec![
            class.name().to_string(),
            s.acquisitions.to_string(),
            s.contended.to_string(),
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
    let diverged = !worst.is_zero();
    if diverged {
        eprintln!("fastiovctl: trace disagrees with stage summary");
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
