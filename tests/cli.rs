//! End-to-end tests of the `pruner-tune` command-line interface.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pruner-tune")
}

#[test]
fn tunes_a_matmul_and_writes_json() {
    let out_path = std::env::temp_dir().join("pruner-cli-test-run.json");
    let output = Command::new(bin())
        .args([
            "--platform",
            "t4",
            "--matmul",
            "1,256,256,256",
            "--trials",
            "40",
            "--seed",
            "1",
            "--show-schedules",
            "1",
            "--output",
        ])
        .arg(&out_path)
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("best latency"), "{stdout}");
    assert!(stdout.contains("blockIdx.x"), "schedule rendering missing: {stdout}");
    let json = std::fs::read_to_string(&out_path).expect("result file written");
    assert!(json.contains("best_latency_s"));
    std::fs::remove_file(out_path).ok();
}

#[test]
fn rejects_unknown_platform() {
    let output = Command::new(bin())
        .args(["--platform", "h100", "--matmul", "1,8,8,8"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown platform"));
}

#[test]
fn requires_a_task() {
    let output =
        Command::new(bin()).args(["--platform", "t4"]).output().expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--network or at least one"));
}

#[test]
fn help_exits_zero() {
    let output = Command::new(bin()).arg("--help").output().expect("binary runs");
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("USAGE"));
}

#[test]
fn rejects_out_of_range_fault_rate() {
    let output = Command::new(bin())
        .args(["--platform", "t4", "--matmul", "1,8,8,8", "--fault-rate", "1.5"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--fault-rate"));
}

/// Shapes the IR would panic on are usage errors (exit 1), not backtraces
/// (exit 101), in `tune` and in the subcommands that share the checker.
#[test]
fn rejects_degenerate_workload_shapes() {
    let tune = ["--platform", "t4"];
    let fleet = ["fleet", "--state-dir", "unused", "--roster", "t4"];
    let cases: [(&[&str], &str, &str, &str); 6] = [
        (&tune, "--matmul", "1,0,512,512", "--matmul extents"),
        (&tune, "--conv2d", "1,64,0,28,64,3,1,1", "--conv2d N,C,H,W,CO,K,S"),
        (&tune, "--conv2d", "1,64,28,28,64,3,0,1", "--conv2d N,C,H,W,CO,K,S"),
        (&tune, "--conv2d", "1,64,28,28,64,0,1,1", "--conv2d N,C,H,W,CO,K,S"),
        (&tune, "--conv2d", "1,64,4,4,64,9,1,1", "--conv2d N,C,H,W,CO,K,S"),
        (&fleet, "--matmul", "1,512,512,0", "--matmul extents"),
    ];
    for (prefix, flag, value, message) in cases {
        let output =
            Command::new(bin()).args(prefix).args([flag, value]).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(stderr.contains(message), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}

/// Values the library would panic on, or that each subcommand used to
/// treat differently, are usage errors (exit 1) naming the flag — in
/// `tune`, `fleet` and `serve submit` alike, and before `serve` connects
/// (the socket below does not exist).
#[test]
fn rejects_out_of_range_flag_values() {
    let dir = std::env::temp_dir().join(format!("pruner-cli-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store_dir = dir.to_str().unwrap();
    let fleet_dir = dir.join("fleet");
    let tune = ["--platform", "t4", "--matmul", "1,64,64,64"];
    let fleet = ["fleet", "--state-dir", fleet_dir.to_str().unwrap(), "--roster", "t4", "--matmul",
                 "1,64,64,64", "--trials", "10", "--pretrain", "2"];
    let serve = ["serve", "submit", "--socket", "/nonexistent/pruner.sock", "--tenant", "t",
                 "--platform", "t4", "--matmul", "1,64,64,64"];
    let cases: [(&[&str], &[&str], &str); 13] = [
        (&tune, &["--trials", "8"], "--trials"),
        (&tune, &["--trials", "10", "--store", store_dir], "store"),
        (&tune, &["--trials", "10", "--store", store_dir, "--max-restarts", "1"], "store"),
        (&tune, &["--threads", "0"], "--threads"),
        (&tune, &["--trials", "10", "--deadline", "nan"], "--deadline"),
        (&tune, &["--trials", "10", "--watchdog-secs", "nan"], "--watchdog-secs"),
        (&fleet, &["--momentum", "1.5"], "--momentum"),
        (&fleet, &["--momentum", "nan"], "--momentum"),
        (&fleet, &["--probes", "0"], "--probes"),
        (&fleet, &["--threads", "0"], "--threads"),
        (&fleet, &["--watchdog-secs", "-1"], "--watchdog-secs"),
        (&serve, &["--trials", "8"], "--trials"),
        (&serve, &["--threads", "0"], "--threads"),
    ];
    for (prefix, flags, message) in cases {
        let output = Command::new(bin()).args(prefix).args(flags).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains(message), "{flags:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
    }
    assert!(!fleet_dir.exists(), "a rejected fleet must not start");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--help`/`-h` anywhere prints that subcommand's help and exits 0.
#[test]
fn every_subcommand_has_help() {
    let cases: [(&[&str], &str); 4] = [
        (&["--platform", "t4", "-h"], "pruner-tune: tune"),
        (&["records", "--help"], "pruner-tune records:"),
        (&["serve", "submit", "--socket", "s", "--help"], "pruner-tune serve:"),
        (&["fleet", "--state-dir", "d", "--help"], "pruner-tune fleet:"),
    ];
    for (args, title) in cases {
        let output = Command::new(bin()).args(args).output().expect("binary runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "{args:?}: {}", String::from_utf8_lossy(&output.stderr));
        assert!(stdout.starts_with(title) && stdout.contains("OPTIONS:"), "{args:?}: {stdout}");
    }
}

/// An unknown flag is reported as one wherever it stands: trailing, it is
/// not asked for a value; in the middle, it does not swallow the next
/// argument.
#[test]
fn unknown_flags_are_named_wherever_they_stand() {
    let cases: [&[&str]; 3] = [
        &["fleet", "--state-dir", "d", "--bogus"],
        &["serve", "submit", "--socket", "s", "--bogus", "--tenant", "t"],
        &["records", "stats", "--bogus", "--store", "s.jsonl"],
    ];
    for args in cases {
        let output = Command::new(bin()).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown flag `--bogus`"), "{args:?}: {stderr}");
    }
}

#[test]
fn kill_and_resume_via_cli_matches_uninterrupted_run() {
    let dir = std::env::temp_dir().join(format!("pruner-cli-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let full_path = dir.join("full.json");
    let resumed_path = dir.join("resumed.json");
    let ckpt_path = dir.join("ckpt.json");
    let common = [
        "--platform",
        "t4",
        "--matmul",
        "1,256,256,256",
        "--trials",
        "80",
        "--seed",
        "5",
        "--fault-rate",
        "0.1",
    ];

    let full = Command::new(bin())
        .args(common)
        .arg("--output")
        .arg(&full_path)
        .output()
        .expect("binary runs");
    assert!(full.status.success(), "stderr: {}", String::from_utf8_lossy(&full.stderr));

    // "Crash" after 4 of 8 rounds, leaving a checkpoint behind.
    let partial = Command::new(bin())
        .args(common)
        .args(["--checkpoint-every", "2", "--halt-after", "4", "--checkpoint"])
        .arg(&ckpt_path)
        .output()
        .expect("binary runs");
    assert!(partial.status.success(), "stderr: {}", String::from_utf8_lossy(&partial.stderr));
    assert!(ckpt_path.exists(), "checkpoint file must exist after the halt");

    let resumed = Command::new(bin())
        .arg("--resume")
        .arg(&ckpt_path)
        .arg("--output")
        .arg(&resumed_path)
        .output()
        .expect("binary runs");
    assert!(resumed.status.success(), "stderr: {}", String::from_utf8_lossy(&resumed.stderr));

    let full_json = std::fs::read_to_string(&full_path).expect("full result written");
    let resumed_json = std::fs::read_to_string(&resumed_path).expect("resumed result written");
    assert_eq!(full_json, resumed_json, "resumed run must match the uninterrupted run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_out_writes_jsonl_and_report_prints_funnel() {
    let dir = std::env::temp_dir().join(format!("pruner-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out_path = dir.join("result.json");
    let trace_path = dir.join("trace.jsonl");
    let output = Command::new(bin())
        .args([
            "--platform",
            "t4",
            "--matmul",
            "1,256,256,256",
            "--trials",
            "40",
            "--seed",
            "1",
            "--report",
            "--trace-out",
        ])
        .arg(&trace_path)
        .arg("--output")
        .arg(&out_path)
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    let lines: Vec<&str> = trace.lines().collect();
    assert!(!lines.is_empty(), "trace must contain events");
    for line in &lines {
        assert!(line.starts_with("{\"v\":"), "unversioned record: {line}");
        assert!(line.ends_with('}'), "truncated record: {line}");
    }
    assert!(trace.contains("\"type\":\"campaign_begin\""));
    assert!(trace.contains("\"type\":\"round\""));
    assert!(trace.contains("\"type\":\"campaign_end\""));

    // 40 trials at the default 10 measurements/round = 4 rounds.
    assert_eq!(lines.iter().filter(|l| l.contains("\"type\":\"round\"")).count(), 4);

    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("campaign report"), "report missing: {stderr}");
    assert!(stderr.contains("draft -> verify funnel"), "funnel missing: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("trace written to"), "trace confirmation missing: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_warm_start_cli_roundtrip_measures_less() {
    let dir = std::env::temp_dir().join(format!("pruner-cli-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store_path = dir.join("records.jsonl");
    let common = [
        "--platform",
        "t4",
        "--matmul",
        "1,128,128,128",
        "--matmul",
        "1,256,256,256",
        "--trials",
        "32",
        "--seed",
        "7",
    ];
    let run = |extra: &[&str], out: &std::path::Path| {
        let output = Command::new(bin())
            .args(common)
            .args(extra)
            .arg("--output")
            .arg(out)
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
        String::from_utf8_lossy(&output.stdout).to_string()
    };
    #[derive(serde::Deserialize)]
    struct Stats {
        trials: u64,
    }
    #[derive(serde::Deserialize)]
    struct ResultFile {
        stats: Stats,
    }
    let trials = |path: &std::path::Path| -> u64 {
        let parsed: ResultFile =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        parsed.stats.trials
    };

    let baseline_path = dir.join("baseline.json");
    let cold_path = dir.join("cold.json");
    let warm_path = dir.join("warm.json");
    run(&[], &baseline_path);

    // First store-backed run: the store is empty, so warm start replays
    // nothing and the campaign must stay byte-identical to storeless.
    let store = store_path.to_str().unwrap();
    let cold_stdout = run(&["--store", store], &cold_path);
    assert_eq!(
        std::fs::read_to_string(&baseline_path).unwrap(),
        std::fs::read_to_string(&cold_path).unwrap(),
        "empty-store campaign must match the storeless campaign"
    );
    assert!(cold_stdout.contains("records in"), "store summary missing: {cold_stdout}");
    assert!(store_path.exists(), "store file must be flushed");

    // Second run warm-starts from the first run's verdicts and must hit
    // the simulator strictly less often.
    run(&["--store", store], &warm_path);
    assert!(
        trials(&warm_path) < trials(&cold_path),
        "warm start must measure strictly less: {} vs {}",
        trials(&warm_path),
        trials(&cold_path)
    );

    // --warm-start off records without replaying: identical campaign again.
    let off_path = dir.join("off.json");
    run(&["--store", store, "--warm-start", "off"], &off_path);
    assert_eq!(
        std::fs::read_to_string(&baseline_path).unwrap(),
        std::fs::read_to_string(&off_path).unwrap(),
        "record-only campaign must match the storeless campaign"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn records_subcommand_reports_damage_compacts_and_exports() {
    use pruner::gpu::GpuSpec;
    use pruner::ir::Workload;
    use pruner::sketch::Program;
    use pruner::store::{RecordOutcome, TuningRecord, SCHEMA_VERSION};

    let dir = std::env::temp_dir().join(format!("pruner-cli-records-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store_path = dir.join("records.jsonl");

    // Hand-damage a log with every corruption class the format doc names:
    // a duplicate, an unknown schema version, a mismatched fingerprint and
    // a final line truncated mid-append.
    let spec = GpuSpec::t4();
    let good = |wl: &Workload, latency_s: f64| {
        serde_json::to_string(&TuningRecord::new(
            &spec,
            Program::fallback(wl),
            RecordOutcome::Success { latency_s, variance: 0.0 },
        ))
        .unwrap()
    };
    let mm = good(&Workload::matmul(1, 64, 64, 64), 1.0e-3);
    let red = good(&Workload::reduction(1024, 256), 2.0e-3);
    let future = format!("{{\"v\":{},\"payload\":\"opaque\"}}", SCHEMA_VERSION + 1);
    let mut lying = TuningRecord::new(
        &spec,
        Program::fallback(&Workload::matmul(1, 32, 32, 32)),
        RecordOutcome::Failure { kind: pruner::gpu::FaultKind::Timeout, attempts: 3 },
    );
    lying.workload_fp = "matmul_b9m9n9k9".into();
    let lying = serde_json::to_string(&lying).unwrap();
    let torn = &mm[..mm.len() / 2];
    std::fs::write(
        &store_path,
        format!("{mm}\n{red}\n{mm}\n{future}\n{lying}\n{torn}"),
    )
    .expect("write damaged store");

    let records = |args: &[&str]| {
        Command::new(bin()).arg("records").args(args).output().expect("binary runs")
    };
    let store = store_path.to_str().unwrap();

    // stats: loads the two good records, counts every skip class.
    let stats = records(&["stats", "--store", store]);
    assert!(stats.status.success(), "stderr: {}", String::from_utf8_lossy(&stats.stderr));
    let stdout = String::from_utf8_lossy(&stats.stdout);
    assert!(stdout.contains("2 loaded from 6 lines"), "{stdout}");
    assert!(stdout.contains("1 duplicate, 1 corrupt, 1 unknown-version, 1 fingerprint-mismatched"), "{stdout}");
    assert!(stdout.contains("matmul_b1m64n64k64"), "{stdout}");

    // compact: rewrites the log to just the good records.
    let compact = records(&["compact", "--store", store]);
    assert!(compact.status.success());
    assert!(String::from_utf8_lossy(&compact.stdout).contains("kept 2 records, dropped 4 lines"));
    let text = std::fs::read_to_string(&store_path).unwrap();
    assert_eq!(text.lines().count(), 2, "compacted log keeps only valid records");

    // export: successful records become an offline dataset.
    let ds_path = dir.join("dataset.json");
    let export =
        records(&["export", "--store", store, "--output", ds_path.to_str().unwrap()]);
    assert!(export.status.success(), "stderr: {}", String::from_utf8_lossy(&export.stderr));
    let ds = pruner::dataset::Dataset::load_json(&ds_path).expect("exported dataset loads");
    assert_eq!(ds.platform, "NVIDIA T4");
    assert_eq!(ds.num_programs(), 2);

    // Unknown mode and missing --store are flag errors, not panics.
    assert!(!records(&["prune", "--store", store]).status.success());
    assert!(!records(&["stats"]).status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// The durable write creates missing parent directories, so the only
/// portable unwritable path (root included) is one whose parent is a
/// regular file.
#[test]
fn trace_out_to_unwritable_path_fails() {
    let dir = std::env::temp_dir().join(format!("pruner-cli-unwritable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("plain-file");
    std::fs::write(&file, "not a directory").unwrap();
    let unwritable = file.join("out.json");
    for (flag, expected) in [("--trace-out", "error writing trace"), ("--output", "error writing")] {
        let output = Command::new(bin())
            .args(["--platform", "t4", "--matmul", "1,64,64,64", "--trials", "10", flag])
            .arg(&unwritable)
            .output()
            .expect("binary runs");
        assert!(!output.status.success(), "{flag} to an unwritable path must fail");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(expected), "{flag}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_with_missing_checkpoint_fails() {
    let output = Command::new(bin())
        .args(["--resume", "/nonexistent/pruner-ckpt.json"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("error resuming"));
}

#[test]
fn supervision_flags_reject_resume() {
    let output = Command::new(bin())
        .args(["--resume", "ckpt.json", "--deadline", "5"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("supervision flags do not combine with --resume"), "{stderr}");
}

#[test]
fn supervision_flags_must_be_positive() {
    for flag in ["--deadline", "--watchdog-secs"] {
        let output = Command::new(bin())
            .args(["--platform", "t4", "--matmul", "1,8,8,8", flag, "0"])
            .output()
            .expect("binary runs");
        assert!(!output.status.success(), "{flag} 0 must be rejected");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("must be positive"),
            "{flag}"
        );
    }
}

#[test]
fn supervised_campaign_matches_unsupervised_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("pruner-cli-supervised-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let plain_path = dir.join("plain.json");
    let supervised_path = dir.join("supervised.json");
    let common =
        ["--platform", "t4", "--matmul", "1,128,128,128", "--trials", "24", "--seed", "3"];

    let plain = Command::new(bin())
        .args(common)
        .arg("--output")
        .arg(&plain_path)
        .output()
        .expect("binary runs");
    assert!(plain.status.success(), "stderr: {}", String::from_utf8_lossy(&plain.stderr));

    // Any supervision flag routes the campaign through the supervisor.
    let supervised = Command::new(bin())
        .args(common)
        .args(["--max-restarts", "2", "--output"])
        .arg(&supervised_path)
        .output()
        .expect("binary runs");
    assert!(
        supervised.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&supervised.stderr)
    );

    assert_eq!(
        std::fs::read_to_string(&plain_path).expect("plain result"),
        std::fs::read_to_string(&supervised_path).expect("supervised result"),
        "a healthy supervised campaign must be byte-identical to an unsupervised one"
    );
    std::fs::remove_dir_all(&dir).ok();
}
