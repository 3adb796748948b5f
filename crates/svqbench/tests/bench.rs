//! Drives the `svqbench` binary in `--quick` mode and checks the contract
//! between what it emits and what `BENCHMARK.json` declares.

use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// Every workload the binary runs by name; `BENCHMARK.json` lists (gates)
/// the first [`GATED`] of them.
const WORKLOADS: [&str; 5] = [
    "topk_hot",
    "topk_cold",
    "routed_burst",
    "stream_online",
    "fanout_push",
];
const GATED: usize = 4;

/// Exact counts: a function of the seed alone, never of timing.
const COUNT_METRICS: [&str; 5] = [
    "core.offline.sorted_accesses",
    "core.offline.random_accesses",
    "core.offline.iterations",
    "core.online.sequences",
    "serve.protocol.request_bytes",
];

struct Run {
    ok: bool,
    stdout: String,
}

/// Run the benchmark with `args`; artefacts land under cargo's tmp dir.
fn svqbench(args: &[&str]) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_svqbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .expect("the benchmark binary starts");
    Run {
        ok: output.status.success(),
        stdout: String::from_utf8(output.stdout).expect("utf-8 report"),
    }
}

/// One parsed result line.
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::UInt(u) => *u as f64,
        Value::Int(i) => *i as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn text(v: Option<&Value>) -> &str {
    match v {
        Some(Value::Str(s)) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn items(v: Option<&Value>) -> &[Value] {
    match v {
        Some(Value::Array(a)) => a,
        other => panic!("not an array: {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

/// Parse the last stdout line, insisting on exactly the contract's keys.
fn result_of(run: &Run) -> ResultLine {
    let last = run.stdout.lines().last().expect("a result line");
    let value: Value = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(keys(&value), ["correct", "attempted", "failed", "metrics"]);
    let metrics = match value.get("metrics") {
        Some(Value::Object(fields)) => fields
            .iter()
            .map(|(name, entry)| {
                assert_eq!(keys(entry), ["value", "unit"], "{name}");
                let v = number(entry.get("value").unwrap());
                assert!(v.is_finite(), "{name} = {v}");
                (name.clone(), (v, text(entry.get("unit")).to_string()))
            })
            .collect(),
        other => panic!("metrics is {other:?}"),
    };
    ResultLine {
        correct: matches!(value.get("correct"), Some(Value::Bool(true))),
        attempted: number(value.get("attempted").unwrap()) as u64,
        failed: number(value.get("failed").unwrap()) as u64,
        metrics,
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric list in `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> BTreeMap<String, String> {
    items(bench.get(list))
        .iter()
        .map(|m| {
            (
                text(m.get("name")).to_string(),
                text(m.get("unit")).to_string(),
            )
        })
        .collect()
}

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_keeps_the_drivers_contract() {
    let bench = benchmark_json();
    assert_eq!(
        keys(&bench),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = items(bench.get("command"))
        .iter()
        .map(|c| text(Some(c)))
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
    let paths: Vec<&str> = items(bench.get("paths"))
        .iter()
        .map(|p| text(Some(p)))
        .collect();
    assert_eq!(paths, ["crates/svqbench"]);
    let seconds = number(bench.get("run_seconds").unwrap());
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = items(bench.get("workloads"));
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            let why = text(w.get("why"));
            assert!(why.len() <= 200 && !why.contains('\n'));
            text(w.get("name"))
        })
        .collect();
    assert_eq!(names, WORKLOADS[..GATED]);

    let end_to_end = items(bench.get("end_to_end"));
    let per_layer = items(bench.get("per_layer"));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        assert!(
            well_formed_name(name) && seen.insert(name.to_string()),
            "{name}"
        );
    }
    for (list, metric_keys) in [
        (end_to_end, &["name", "unit", "better", "bound"][..]),
        (per_layer, &["name", "unit", "better"][..]),
    ] {
        for m in list {
            assert_eq!(keys(m), metric_keys);
            let name = text(m.get("name"));
            assert!(
                well_formed_name(name) && seen.insert(name.to_string()),
                "{name}"
            );
            let unit = text(m.get("unit"));
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(
                ["lower", "higher"].contains(&text(m.get("better"))),
                "{name}"
            );
            if let Some(bound) = m.get("bound") {
                let bound = number(bound);
                assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
            }
        }
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(m.get("name")) == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (text(setup.get("unit")), text(setup.get("better"))),
        ("s", "lower")
    );
    let widest = end_to_end
        .iter()
        .map(|m| number(m.get("bound").unwrap()))
        .fold(0.0, f64::max);
    assert_eq!(
        number(setup.get("bound").unwrap()),
        widest,
        "setup_s has the largest bound"
    );
}

#[test]
fn every_workload_emits_every_declared_metric_and_repeats_its_counts() {
    let bench = benchmark_json();
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    let emitted = |result: &ResultLine| -> BTreeMap<String, String> {
        result
            .metrics
            .iter()
            .map(|(name, (_, unit))| (name.clone(), unit.clone()))
            .collect()
    };
    for workload in WORKLOADS {
        let untraced = svqbench(&[
            "--workload",
            workload,
            "--quick",
            "--seed",
            "42",
            "--trace",
            "0",
        ]);
        assert!(untraced.ok, "{workload}:\n{}", untraced.stdout);
        let result = result_of(&untraced);
        assert_eq!(
            emitted(&result),
            end_to_end,
            "{workload} end-to-end names and units"
        );
        assert!(
            result.correct && result.failed == 0 && result.attempted >= 1,
            "{workload}"
        );
        for (name, (value, _)) in &result.metrics {
            assert!(*value > 0.0, "{workload}: {name} must never read 0");
        }

        let traced = |seed: &str| {
            let run = svqbench(&[
                "--workload",
                workload,
                "--quick",
                "--seed",
                seed,
                "--trace",
                "1",
            ]);
            assert!(run.ok, "{workload} seed {seed}:\n{}", run.stdout);
            let result = result_of(&run);
            assert_eq!(
                emitted(&result),
                per_layer,
                "{workload} per-layer names and units"
            );
            assert_eq!(result.failed, 0, "{workload} seed {seed}:\n{}", run.stdout);
            assert!(run.stdout.contains("client.trace_overhead_pct"));
            let order = run
                .stdout
                .lines()
                .find_map(|l| l.split("request order ").nth(1))
                .map(String::from);
            (COUNT_METRICS.map(|name| result.metrics[name].0), order)
        };
        let (first, again, other) = (traced("42"), traced("42"), traced("43"));
        assert_eq!(
            first, again,
            "{workload}: counts and order repeat exactly under one seed"
        );
        if workload != "fanout_push" {
            // The push workload has no request path, hence no counts. The
            // seed decides the order of the requests, not their mix (the
            // deck's), so whole decks count the same under every seed.
            assert!(
                first.1.is_some() && first.1 != other.1,
                "{workload}: {:?}",
                first.1
            );
            assert!(first.0.iter().any(|&c| c > 0.0), "{workload}: {first:?}");
        }
    }
}

#[test]
fn an_injected_fault_is_counted_and_the_run_still_reports() {
    for workload in ["topk_hot", "routed_burst", "stream_online", "fanout_push"] {
        let run = svqbench(&[
            "--workload",
            workload,
            "--quick",
            "--trace",
            "0",
            "--inject-fault",
        ]);
        assert!(
            run.ok,
            "{workload} exits through the report path:\n{}",
            run.stdout
        );
        let result = result_of(&run);
        assert!(!result.correct, "{workload}");
        assert!(
            result.failed >= 1 && result.failed < result.attempted,
            "{workload}"
        );
        assert!(
            run.stdout.contains("failed_share 0."),
            "{workload}:\n{}",
            run.stdout
        );
    }
    // The parent turns failed operations into a failing exit code.
    let all = svqbench(&["--quick", "--aa", "1", "--inject-fault"]);
    assert!(!all.ok);
    assert!(all.stdout.contains("== failed operations: "));
}

#[test]
fn the_aa_mode_judges_every_metric_on_every_workload() {
    let run = svqbench(&["--quick", "--aa", "1", "--seed", "9"]);
    // One set has no spread, so every verdict passes.
    assert!(run.ok, "{}", run.stdout);
    let verdicts = run
        .stdout
        .lines()
        .filter(|l| l.ends_with(|c: char| c.is_ascii_alphabetic()) && l.contains(" PASS "))
        .count();
    let bench = benchmark_json();
    // Every end-to-end metric but `setup_s`, whose spread is only printed.
    assert_eq!(verdicts, GATED * (items(bench.get("end_to_end")).len() - 1));
    assert!(run.stdout.contains("== failed operations: 0"));
}

#[test]
fn bad_invocations_fail_without_a_result_line() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--bogus"]] {
        let run = svqbench(args);
        assert!(!run.ok);
        assert!(!run.stdout.contains("\"metrics\""));
    }
}
