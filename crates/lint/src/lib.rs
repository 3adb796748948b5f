//! # svq-lint — workspace invariant linter for SVQ-ACT
//!
//! A multi-pass static analyzer enforcing the contracts the test suite
//! cannot. Per-file token rules: determinism (no wall-clock reads or
//! hash-order iteration in the algorithm crates), panic discipline (no
//! `unwrap()` in library code), float discipline (no `==` against float
//! literals), print discipline (stdout belongs to the binaries), and
//! `#![forbid(unsafe_code)]` at every crate root. Workspace-global
//! concurrency passes ([`ir`] → [`callgraph`] → [`guards`] →
//! [`lockgraph`]): static lock-order cycle detection (`lock-cycle`) and
//! blocking-operations-under-guard detection (`blocking-under-lock`),
//! the static complement to the runtime lockdep auditor in
//! `third_party/parking_lot`. See DESIGN.md "Static analysis &
//! concurrency auditing".
//!
//! `--check` fails on any finding. Inline escape hatch:
//! `// svq-lint: allow(<rule>)` on or above the line.
//!
//! The scanner is hand-rolled in the style of `svq-query`'s SQL lexer —
//! no syn, no rustc, no dependencies — because the container this repo
//! builds in is fully offline.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod guards;
pub mod ir;
pub mod lockgraph;
pub mod regions;
pub mod rules;
pub mod scanner;
pub mod walk;

pub use lockgraph::StaticLockGraph;
pub use rules::{FileContext, Finding, Rule};

use std::io;
use std::path::Path;

/// Lint a single source text under the given context (exposed for the
/// fixture self-tests). Token rules only — the workspace-global
/// concurrency passes need every file at once.
pub fn lint_source(source: &str, ctx: &FileContext) -> Vec<Finding> {
    let scanned = scanner::scan(source);
    let mut findings = Vec::new();
    rules::lint_tokens(&scanned, ctx, &mut findings);
    findings
}

/// Lint the whole workspace rooted at `root`: the per-file token rules,
/// the crate-root `forbid-unsafe` check, and the workspace-global
/// concurrency passes (call graph → lock-order cycles,
/// blocking-under-lock). Findings are sorted by (path, line, rule).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    lint_workspace_full(root).map(|(findings, _)| findings)
}

/// [`lint_workspace`] plus the static lock graph it built (for `--format
/// json` statistics and the runtime cross-check).
pub fn lint_workspace_full(root: &Path) -> io::Result<(Vec<Finding>, StaticLockGraph)> {
    // Read and scan every source exactly once; both the token rules and
    // the concurrency passes consume the same scanned units.
    let mut units = Vec::new();
    for rel in walk::workspace_sources(root)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        units.push(ir::SourceUnit {
            ctx: FileContext::from_rel_path(&rel),
            scanned: scanner::scan(&source),
        });
    }

    let mut findings = Vec::new();
    for unit in &units {
        rules::lint_tokens(&unit.scanned, &unit.ctx, &mut findings);
    }
    for rel in walk::crate_roots(root)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        let ctx = FileContext::from_rel_path(&rel);
        let scanned = scanner::scan(&source);
        rules::forbid_unsafe_rule(&scanned, &ctx, &mut findings);
    }

    let (concurrency, graph) = analyze_units(&units);
    findings.extend(concurrency);

    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule)
            .cmp(&(&b.path, b.line, b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    Ok((findings, graph))
}

/// Build only the static lock graph of the workspace at `root` — the
/// entry point the runtime cross-check tests use.
pub fn lock_graph(root: &Path) -> io::Result<StaticLockGraph> {
    let mut units = Vec::new();
    for rel in walk::workspace_sources(root)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        units.push(ir::SourceUnit {
            ctx: FileContext::from_rel_path(&rel),
            scanned: scanner::scan(&source),
        });
    }
    Ok(analyze_units(&units).1)
}

/// Run the concurrency passes over pre-scanned units.
fn analyze_units(units: &[ir::SourceUnit]) -> (Vec<Finding>, StaticLockGraph) {
    let ws = ir::build(units);
    let events: Vec<Vec<guards::Event>> = ws
        .fns
        .iter()
        .map(|f| guards::function_events(&ws, f, &units[f.file].scanned.tokens))
        .collect();
    lockgraph::analyze(units, &ws, &events)
}

/// Locate the workspace root: walk up from `start` to the first directory
/// containing a `Cargo.toml` with a `[workspace]` section.
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
