//! The documents against the results and the experiment table: every
//! number and verdict EXPERIMENTS.md quotes, and every bench command the
//! docs show. Runs no campaigns.

use pruner_bench::{doc_mismatches, results_dir, EXPERIMENTS};

/// EXPERIMENTS.md quotes every number and verdict as the committed
/// `results/*.json` give it, and every recorded verdict is what the
/// checker computes. Runs no campaigns.
#[test]
fn experiments_md_matches_the_committed_results() {
    let doc = std::fs::read_to_string(results_dir().join("../EXPERIMENTS.md")).unwrap();
    let bad = doc_mismatches(&doc, &results_dir(), EXPERIMENTS);
    assert!(bad.is_empty(), "EXPERIMENTS.md disagrees with results/:\n{}", bad.join("\n"));
}

#[test]
fn doc_check_catches_a_drifted_number_and_a_missing_verdict() {
    let memory = EXPERIMENTS.iter().find(|e| e.id == "memory").unwrap();
    let doc = "\n## M (`memory`)\n\n| quantity | regenerated |\n|---|---|\n\
               | TLP · total_mb | 99.0 |\n";
    let bad = doc_mismatches(doc, &results_dir(), [memory]);
    assert!(bad.iter().any(|b| b.contains("TLP · total_mb")), "{bad:?}");
    assert!(bad.iter().any(|b| b.contains("has no verdict row")), "{bad:?}");
}

/// Every `--bench <target>` in the fenced code blocks of README.md,
/// EXPERIMENTS.md, DESIGN.md and docs/*.md names a bench target of
/// this crate, and every id after `--bench experiments --` names an
/// entry of the table. Synopsis lines (with `<…>`) are skipped.
#[test]
fn documented_bench_commands_name_real_targets_and_ids() {
    let root = results_dir().join("..");
    let manifest = std::fs::read_to_string(root.join("crates/pruner-bench/Cargo.toml")).unwrap();
    let benches = manifest.split("[[bench]]\nname = \"").skip(1);
    let targets: Vec<&str> = benches.map(|s| &s[..s.find('"').unwrap()]).collect();
    let docs = std::fs::read_dir(root.join("docs")).unwrap().map(|e| e.unwrap().path());
    let top = ["README.md", "EXPERIMENTS.md", "DESIGN.md"].map(|f| root.join(f));
    let (mut commands, mut ids) = (0, 0);
    for doc in docs.chain(top).filter(|p| p.extension() == Some("md".as_ref())) {
        let text = std::fs::read_to_string(&doc).unwrap().replace("\\\n", " ");
        let lines = text.split("```").skip(1).step_by(2).flat_map(str::lines);
        for line in lines.map(|l| l.split('#').next().unwrap()).filter(|l| !l.contains('<')) {
            let words: Vec<&str> = line.split_whitespace().collect();
            let Some(at) = words.iter().position(|w| *w == "--bench") else { continue };
            let target = words.get(at + 1).copied().unwrap_or_default();
            assert!(targets.contains(&target), "{}: `{line}`: no bench `{target}`", doc.display());
            commands += 1;
            if target == "experiments" && words.get(at + 2) == Some(&"--") {
                for id in words[at + 3..].iter().take_while(|w| !w.starts_with('-')) {
                    let known = EXPERIMENTS.iter().any(|e| e.id == *id);
                    assert!(known, "{}: no id `{id}`", doc.display());
                    ids += 1;
                }
            }
        }
    }
    assert!(commands >= 5 && ids >= 5, "only {commands} bench commands ({ids} ids) found");
}
