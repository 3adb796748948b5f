//! `svq-lint` CLI.
//!
//! ```text
//! svq-lint                     report every finding (exit 0)
//! svq-lint --check             fail on any finding
//!     --format human|json      json writes results/lint-report.json too
//!     --root <dir>             workspace root (default: discovered upward)
//! ```

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use svq_lint::{find_workspace_root, lint_workspace_full, Finding, StaticLockGraph};

struct Args {
    check: bool,
    json: bool,
    root: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        check: false,
        json: false,
        root: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => args.check = true,
            "--format" => match it.next().as_deref() {
                Some("json") => args.json = true,
                Some("human") => args.json = false,
                other => return Err(format!("--format expects human|json, got {other:?}")),
            },
            "--root" => args.root = Some(PathBuf::from(it.next().ok_or("--root needs a path")?)),
            "--help" | "-h" => {
                println!(
                    "svq-lint: workspace invariant linter\n\
                     \n\
                     USAGE: svq-lint [--check] [--format human|json] [--root <dir>]\n\
                     \n\
                     Per-file rules: determinism, panic, float-eq, print, forbid-unsafe\n\
                     Workspace concurrency passes: lock-cycle (static lock-order cycles),\n\
                     blocking-under-lock (sleep/join/bounded-channel/condvar-wait/IO under\n\
                     a live guard, reached directly or through the call graph).\n\
                     \n\
                     --format json writes <root>/results/lint-report.json with every\n\
                     finding (rule, file, line, witness chain) plus analysis statistics.\n\
                     Suppress inline with `// svq-lint: allow(<rule>)`."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("svq-lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// Print one finding, then its witness path indented beneath it.
fn print_finding(f: &Finding) {
    println!("{f}");
    for step in &f.witness {
        println!("    {step}");
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Hand-rolled report JSON — the offline container has no serde for this
/// crate, and the shape is flat enough not to need it.
fn render_json(findings: &[Finding], graph: &StaticLockGraph) -> String {
    let mut out = String::from("{\n  \"stats\": {");
    let s = &graph.stats;
    let _ = write!(
        out,
        "\"files\": {}, \"functions\": {}, \"resolved_calls\": {}, \
         \"unresolved_calls\": {}, \"lock_nodes\": {}, \"lock_edges\": {}, \
         \"site_pairs\": {}",
        s.files,
        s.functions,
        s.resolved_calls,
        s.unresolved_calls,
        s.lock_nodes,
        s.lock_edges,
        s.site_pairs
    );
    out.push_str("},\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"witness\": [",
            f.rule.name(),
            json_escape(&f.path.to_string_lossy()),
            f.line,
            json_escape(&f.message),
        );
        for (j, step) in f.witness.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", json_escape(step));
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = match args.root {
        Some(r) => r,
        None => find_workspace_root(&cwd).ok_or("no workspace root found above cwd")?,
    };
    let (findings, graph) = lint_workspace_full(&root).map_err(|e| e.to_string())?;

    if args.json {
        let dir = root.join("results");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join("lint-report.json");
        std::fs::write(&path, render_json(&findings, &graph)).map_err(|e| e.to_string())?;
        println!(
            "svq-lint: wrote {} ({} findings)",
            path.display(),
            findings.len()
        );
    }

    for f in &findings {
        print_finding(f);
    }
    let s = &graph.stats;
    println!(
        "svq-lint: analyzed {} files / {} functions; call graph {} resolved, \
         {} unresolved; lock graph {} nodes, {} edges, {} site pairs",
        s.files,
        s.functions,
        s.resolved_calls,
        s.unresolved_calls,
        s.lock_nodes,
        s.lock_edges,
        s.site_pairs
    );
    println!("svq-lint: {} finding(s)", findings.len());
    if args.check && !findings.is_empty() {
        println!(
            "svq-lint: --check fails on any finding: fix it or, if deliberate, suppress it inline"
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
