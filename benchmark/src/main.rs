//! Command-line entry point of the startup benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <burst-vanilla|burst-fastiov|serverless-image|churn-pool> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Context goes to standard error; the last line of standard output is the
//! JSON result. The exit code is 0 only when every correctness check
//! passed.

use fastiov_startbench::workload::{Kind, Spec};
use std::process::ExitCode;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    Ok(Args {
        kind: kind.ok_or_else(|| format!("--workload is required: one of {}", names.join(", ")))?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <name> [--seed N] [--seconds N] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::full(args.kind);
    let out = match fastiov_startbench::run(&spec, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    eprint!("{}", fastiov_startbench::report(args.kind, &spec, &out));
    println!("{}", fastiov_startbench::result_json(&out));
    if out.violations.is_empty() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
