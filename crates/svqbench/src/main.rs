//! # svqbench
//!
//! The repository's one repeatable benchmark. Five workloads (four of them
//! listed in `BENCHMARK.json`) drive the
//! real serving stack (in-process `svq_serve::Server` / `Router` on
//! loopback TCP, through the repo's own `Client`); every response is
//! verified against in-process execution; end-to-end metrics come from an
//! untraced run and per-layer metrics from a separate traced run that
//! times calls into the layers' public functions and reads the counters
//! the system already exports. See the crate README for the tables.
//!
//! ```text
//! svqbench --seed 42                       # all workloads, untraced + traced
//! svqbench --aa 2 --seed 42                # A/A: two sets, spread vs bound
//! svqbench --workload topk_hot --seed 7 --seconds 20 --trace 0
//! ```
//!
//! With `--workload` the process runs that one workload and prints, as its
//! last stdout line, one JSON object `{correct, attempted, failed,
//! metrics}`. Without it, the process re-executes itself once per workload
//! (the critical-value memo is process-wide and `VmHWM` never resets, so
//! workloads must not share a process) and prints the collected table.

#![forbid(unsafe_code)]

mod fanout;
mod gen;
mod layers;
mod reqload;
mod schema;
mod sys;
mod trace;

use schema::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

/// Fallible steps carry a message for the report; nothing here panics on
/// a bad response or a failed syscall.
pub type Res<T> = Result<T, String>;

/// Measured seconds per run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 25.0;

/// Length of one slice of a measured pass, seconds: long enough to hold a
/// few dozen operations of the slowest workload, short enough that a
/// neighbour's burst of a few seconds spoils a few slices and not the run.
const SLICE_S: f64 = 0.5;

pub struct Args {
    workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
    /// Shrink every phase to at most a second (tests only; never reported).
    pub quick: bool,
    /// Run the full set this many times and judge the spread.
    aa: Option<usize>,
    /// Make one operation a request no video answers (tests only).
    pub inject_fault: bool,
}

impl Args {
    /// Set-up is built this many times and its median reported, so one
    /// slow page-cache miss does not decide `setup_s`.
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    /// The measured pass is cut into this many equal slices, each about
    /// [`SLICE_S`] long; an end-to-end rate or latency is the better
    /// quartile of its per-slice values (see `sys::better_quartile`).
    pub fn slices(&self) -> usize {
        ((self.seconds / SLICE_S).round() as usize).max(1)
    }

    /// Discarded lead-in: fills the critical-value memo, the catalog
    /// cache and lazily started threads.
    pub fn warmup_s(&self) -> f64 {
        if self.quick {
            0.3
        } else {
            1.0
        }
    }
}

const USAGE: &str = "usage: svqbench [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick] [--aa N] [--inject-fault]";

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        aa: None,
        inject_fault: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--aa" => args.aa = Some(value()?.parse().map_err(|e| format!("--aa: {e}"))?),
            "--quick" => args.quick = true,
            "--inject-fault" => args.inject_fault = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.quick {
        args.seconds = args.seconds.min(1.0);
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    if args.aa == Some(0) {
        return Err("--aa needs at least one set".into());
    }
    Ok(args)
}

/// One human-readable report line on stdout.
pub fn say(line: &str) {
    let _ = writeln!(std::io::stdout().lock(), "{line}");
}

fn complain(line: &str) {
    let _ = writeln!(std::io::stderr().lock(), "svqbench: {line}");
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match &args.workload {
        Some(name) => run_workload(name, &args),
        None => run_all(&args),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            complain(&e);
            ExitCode::from(2)
        }
    }
}

/// Child mode: run one workload here and print its result line last.
fn run_workload(name: &str, args: &Args) -> Res<ExitCode> {
    let kind = match name {
        "topk_hot" => Some(reqload::Kind::TopkHot),
        "topk_cold" => Some(reqload::Kind::TopkCold),
        "routed_burst" => Some(reqload::Kind::RoutedBurst),
        "stream_online" => Some(reqload::Kind::StreamOnline),
        "fanout_push" => None,
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {other} (one of {names:?})"));
        }
    };
    say(&format!(
            "svqbench {name}: seed {} seconds {} trace {} quick {} | nproc {} | {} | git {} | box slowness {:.3}",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            args.quick,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            tool_line("rustc", &["--version"]),
            tool_line("git", &["rev-parse", "--short", "HEAD"]),
            sys::Chore::new().slowness(),
        ),
    );
    let result = match (kind, args.trace) {
        (Some(kind), false) => reqload::run_measured(kind, args)?,
        (Some(kind), true) => reqload::run_traced(kind, args)?,
        (None, traced) => fanout::run(args, traced)?,
    };
    let defs: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for d in defs {
        let value = result.metrics.get(d.name).copied().unwrap_or(0.0);
        say(&format!(
            "  {:<40} {value:>14.4} {:<6} [{} is better]",
            d.name, d.unit, d.better
        ));
    }
    say(&format!(
        "  failed_share {} ({} failed of {} attempted)",
        sys::ratio(result.failed as f64, result.attempted as f64),
        result.failed,
        result.attempted
    ));
    say(&result.to_json(defs));
    Ok(ExitCode::SUCCESS)
}

/// First output line of a tool the header names, `unknown` when the tool
/// is missing or fails (a driver's checkout is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// One child's parsed result line.
struct ChildResult {
    attempted: u64,
    failed: u64,
    values: Vec<(String, f64)>,
}

/// Re-execute this binary for one workload and parse its last line.
fn spawn_child(args: &Args, workload: &str, traced: bool) -> Res<ChildResult> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        command.arg("--quick");
    }
    if args.inject_fault {
        command.arg("--inject-fault");
    }
    let output = command
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("{workload}: child failed to run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        say(line);
    }
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let value: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let count = |key: &str| match value.get(key) {
        Some(Value::UInt(n)) => Ok(*n),
        other => Err(format!("{workload}: result `{key}` is {other:?}")),
    };
    let Some(Value::Object(metrics)) = value.get("metrics") else {
        return Err(format!("{workload}: result has no metrics object"));
    };
    let values = metrics
        .iter()
        .map(|(name, entry)| {
            let v = match entry.get("value") {
                Some(Value::Float(f)) => *f,
                Some(Value::UInt(u)) => *u as f64,
                Some(Value::Int(i)) => *i as f64,
                other => return Err(format!("{workload}: metric {name} value is {other:?}")),
            };
            Ok((name.clone(), v))
        })
        .collect::<Res<_>>()?;
    Ok(ChildResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        values,
    })
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (exclusive method) — the driver judges spreads with the same rule.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let at = |q: usize| {
        let pos = (q * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Relative spread of one metric over the sets of an A/A run: the
/// interquartile range over the median, or with fewer than four values
/// (where quartiles mean little) the full range over the median.
fn spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sys::percentile(&sorted, 0.5).abs();
    let width = if sorted.len() >= 4 {
        let (q1, q3) = quartiles(&sorted);
        q3 - q1
    } else {
        sorted.last().copied().unwrap_or(0.0) - sorted.first().copied().unwrap_or(0.0)
    };
    sys::ratio(width, mid)
}

/// Parent mode: every workload in a fresh child, `--aa` sets of them.
fn run_all(args: &Args) -> Res<ExitCode> {
    let sets = args.aa.unwrap_or(1);
    // The A/A verdict is about the gate, so it runs what the gate runs.
    let workloads: Vec<&schema::WorkloadDef> = WORKLOADS
        .iter()
        .filter(|w| w.gated || args.aa.is_none())
        .collect();
    say(&format!(
        "svqbench: {} workloads x {sets} set(s), seed {}, {} s measured per run",
        workloads.len(),
        args.seed,
        args.seconds
    ));
    let mut failed_ops = 0u64;
    // [workload][metric] -> one value per set
    let mut table: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()];
    for set in 0..sets {
        for (w, workload) in workloads.iter().enumerate() {
            say(&format!(
                "== set {set}: {} — {}",
                workload.name, workload.why
            ));
            let result = spawn_child(args, workload.name, false)?;
            failed_ops += result.failed;
            for (i, def) in END_TO_END.iter().enumerate() {
                let value = result
                    .values
                    .iter()
                    .find(|(name, _)| name == def.name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("{}: {} not reported", workload.name, def.name))?;
                table[w][i].push(value);
            }
            say(&format!(
                "   {} attempted, {} failed",
                result.attempted, result.failed
            ));
            if args.aa.is_none() {
                failed_ops += spawn_child(args, workload.name, true)?.failed;
            }
        }
    }
    let mut verdict = true;
    if args.aa.is_some() {
        say("== A/A: relative spread per metric x workload vs its bound");
        for (w, workload) in workloads.iter().enumerate() {
            for (i, def) in END_TO_END.iter().enumerate() {
                let runs = &table[w][i];
                let bound = def.bound.unwrap_or(0.0);
                let s = spread(runs);
                // Like the driver, print the spread of `setup_s` without
                // judging it: its guard is the comparison of medians.
                let mark = if def.name == "setup_s" {
                    "----"
                } else if s <= bound {
                    "PASS"
                } else {
                    verdict = false;
                    "FAIL"
                };
                let shown: Vec<String> = runs.iter().map(|v| format!("{v:.4}")).collect();
                say(&format!(
                    "   {:<14} {:<14} {:>8.4} vs {:.2} {mark}  runs [{}] {}",
                    workload.name,
                    def.name,
                    s,
                    bound,
                    shown.join(", "),
                    def.unit
                ));
            }
        }
    }
    say(&format!("== failed operations: {failed_ops}"));
    Ok(if verdict && failed_ops == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        let (q1, q3) = quartiles(&[10.0, 20.0, 40.0, 80.0]);
        assert!((q1 - 12.5).abs() < 1e-12 && (q3 - 70.0).abs() < 1e-12);
        assert!((spread(&[10.0, 11.0]) - 1.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload topk_hot --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("topk_hot"));
        assert_eq!((a.seed, a.trace), (7, true));
        assert!(parse_args(&argv("--quick --seconds 30")).unwrap().seconds <= 1.0);
        for bad in ["--trace 2", "--seed", "--nope", "--seconds 0", "--aa 0"] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` is the schema, written out: same names, units,
    /// directions, bounds, reasons and run length, in the same order.
    #[test]
    fn benchmark_json_lists_exactly_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let bench: Value = serde_json::from_str(&text).unwrap();
        let list = |key: &str| match bench.get(key) {
            Some(Value::Array(items)) => items.clone(),
            other => panic!("{key} is {other:?}"),
        };
        let field = |item: &Value, key: &str| match item.get(key) {
            Some(Value::Str(s)) => s.clone(),
            Some(Value::Float(f)) => f.to_string(),
            other => panic!("{key} is {other:?}"),
        };
        let declared: Vec<Vec<String>> = list("workloads")
            .iter()
            .map(|w| vec![field(w, "name"), field(w, "why")])
            .collect();
        let schema: Vec<Vec<String>> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect();
        assert_eq!(declared, schema);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<Vec<String>> = list(key)
                .iter()
                .map(|m| {
                    let mut row = vec![field(m, "name"), field(m, "unit"), field(m, "better")];
                    row.extend(m.get("bound").map(|_| field(m, "bound")));
                    row
                })
                .collect();
            let schema: Vec<Vec<String>> = defs
                .iter()
                .map(|d| {
                    let mut row =
                        vec![d.name.to_string(), d.unit.to_string(), d.better.to_string()];
                    row.extend(d.bound.map(|b| b.to_string()));
                    row
                })
                .collect();
            assert_eq!(declared, schema, "{key}");
        }
        assert_eq!(
            bench.get("run_seconds"),
            Some(&Value::UInt(RUN_SECONDS as u64))
        );
    }
}
