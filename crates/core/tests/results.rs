//! The checked-in `RESULTS.json` against the claim table, the generated
//! `EXPERIMENTS.md` blocks and the deviation list in DESIGN.md §8. No
//! scenario runs here: regenerate with `fastiovctl reproduce`.

use fastiov::reproduce::{block_figures, claims, parse_results, render_blocks};

fn repo_file(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn results_json_matches_experiments_md() {
    let (md, records) = (
        repo_file("EXPERIMENTS.md"),
        parse_results(&repo_file("RESULTS.json")),
    );
    let fresh = render_blocks(&md, &records) == md;
    assert!(
        fresh,
        "EXPERIMENTS.md blocks are stale: run `fastiovctl reproduce`"
    );
    let blocks = block_figures(&md);
    for r in &records {
        assert!(
            blocks.contains(&r.figure.as_str()),
            "no block for {}",
            r.figure
        );
    }
    for figure in blocks {
        assert!(
            records.iter().any(|r| r.figure == figure),
            "empty block {figure}"
        );
    }
}

/// One full-scale line per claim, in table order; no ❌; every 🔶 cites a
/// DESIGN.md §8 entry that states the model and paper numbers.
#[test]
fn checked_in_results_cover_every_claim_and_cite_section_8() {
    let text = repo_file("RESULTS.json");
    let records = parse_results(&text);
    assert_eq!(
        records.len(),
        text.lines().count(),
        "unparsable RESULTS.json line"
    );
    let ids: Vec<String> = claims().into_iter().map(|c| c.id).collect();
    let recorded: Vec<&String> = records.iter().map(|r| &r.id).collect();
    assert_eq!(
        recorded,
        ids.iter().collect::<Vec<_>>(),
        "RESULTS.json vs claim table"
    );
    let design = repo_file("DESIGN.md");
    let section = design
        .split("\n## 8.")
        .nth(1)
        .expect("DESIGN.md has a section 8");
    for r in &records {
        assert_ne!(r.status, "❌", "{} fails", r.id);
        assert_eq!(r.status == "🔶", r.deviation.is_some(), "{}", r.id);
        let Some(id) = &r.deviation else { continue };
        let prefix = format!("- **{id}**");
        let entry = section.lines().find_map(|l| l.strip_prefix(&prefix));
        let entry = entry.unwrap_or_else(|| panic!("{} cites {id}, not in DESIGN.md §8", r.id));
        let numbered = entry.contains("vs paper") && entry.chars().any(|c| c.is_ascii_digit());
        assert!(
            numbered,
            "§8 entry {id} states no model-vs-paper number: {entry}"
        );
    }
}
