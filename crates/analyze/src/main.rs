//! CLI entry point: `cargo run -p fastiov-analyze` from anywhere in the
//! workspace. Exits non-zero on any violation or allowlist mismatch.

use fastiov_analyze::{allowlist_total, analyze_workspace, check_allowlist, parse_allowlist, Rule};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // The crate lives at <root>/crates/analyze.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(workspace_root);
    let analysis = analyze_workspace(&root);

    let allow_path = root.join("crates/analyze/allowlist.txt");
    let allow_text = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let allow = match parse_allowlist(&allow_text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fastiov-analyze: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failed = false;
    for v in &analysis.violations {
        eprintln!("{v}");
        failed = true;
    }
    let budget_errors = check_allowlist(&analysis.unwrap_counts, &allow);
    if !budget_errors.is_empty() {
        // Only print individual unwrap sites when the budget is blown;
        // budgeted legacy sites are tracked, not noise.
        for v in &analysis.unwrap_sites {
            if budget_errors.iter().any(|e| e.starts_with(&v.file)) {
                eprintln!("{v}");
            }
        }
        for e in &budget_errors {
            eprintln!("fastiov-analyze: {e}");
        }
        failed = true;
    }

    let unwrap_total: usize = analysis.unwrap_counts.values().sum();
    println!(
        "fastiov-analyze: scanned {} files; {} hard violations ({}/{}/{}/annotations), \
         {} budgeted {} sites (allowlist total {})",
        analysis.files_scanned,
        analysis.violations.len(),
        Rule::RawLock,
        Rule::WallClock,
        Rule::SimThread,
        unwrap_total,
        Rule::UnwrapExpect,
        allowlist_total(&allow),
    );
    if failed {
        eprintln!("fastiov-analyze: FAILED");
        ExitCode::FAILURE
    } else {
        println!("fastiov-analyze: OK");
        ExitCode::SUCCESS
    }
}
