//! Regenerates the paper's tables and figures: every id given (all of
//! them when none is), each writing its `results/*.json` and printing the
//! paper's shape claims with the verdicts that JSON gives.
//!
//! ```text
//! cargo bench -p pruner-bench --bench experiments -- table1 fig8
//! ```

use pruner_bench::{judge, results_dir, run, TextTable, EXPERIMENTS};
use std::time::Instant;

fn main() {
    // `cargo bench` appends `--bench`; every other argument is an id.
    let ids: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect();
    if let Some(bad) = ids.iter().find(|id| !EXPERIMENTS.iter().any(|e| e.id == *id)) {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        eprintln!("error: unknown experiment `{bad}` (known: {})", known.join(" "));
        std::process::exit(2);
    }
    for e in EXPERIMENTS.iter().filter(|e| ids.is_empty() || ids.contains(&e.id.to_string())) {
        println!("\n=== {} — {}", e.id, e.metric);
        let start = Instant::now();
        run(e);
        let mut table = TextTable::new(&["claim", "evidence", "verdict", "recorded"]);
        for (claim, verdict, evidence) in judge(e, &results_dir()).expect("results just written") {
            let recorded = format!("{:?}", claim.expect);
            table.row(vec![claim.text.into(), evidence, format!("{verdict:?}"), recorded]);
        }
        table.print();
        println!("({} in {:.0} s)", e.id, start.elapsed().as_secs_f64());
    }
}
