//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment|all> [--scale S] [--seed N] [--out DIR]
//! ```
//!
//! Run with no arguments to print the experiment list.

use svq_bench::experiments::{ExpContext, EXPERIMENTS};

/// Usage and the experiment list on stderr, exit 2: a typo must not look
/// like a run that produced nothing (ci.sh's byte-identity slices depend on
/// the experiment name being spelled right).
fn usage(problem: &str) -> ! {
    eprintln!("repro: {problem}");
    eprintln!("usage: repro <experiment|all> [--scale S] [--seed N] [--out DIR]");
    eprintln!(
        "experiments: {}",
        EXPERIMENTS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut ctx = ExpContext::default();
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} takes a value")))
        };
        match arg.as_str() {
            "--scale" => {
                ctx.scale = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--scale takes a number"))
            }
            "--seed" => {
                ctx.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--out" => ctx.out_dir = value().into(),
            name if name == "all" || EXPERIMENTS.iter().any(|(n, _)| *n == name) => {
                targets.push(arg)
            }
            unknown => usage(&format!("unknown experiment {unknown:?}")),
        }
    }
    if targets.is_empty() {
        usage("no experiment named");
    }
    let run_all = targets.iter().any(|t| t == "all");
    for (name, run) in EXPERIMENTS {
        if run_all || targets.iter().any(|t| t == name) {
            let start = std::time::Instant::now();
            run(&ctx);
            eprintln!("[{name}] done in {:.1}s", start.elapsed().as_secs_f64());
        }
    }
}
