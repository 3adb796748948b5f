//! The five workspace invariants, as token-stream rules.
//!
//! Every rule is a deliberate approximation: the linter sees tokens, not
//! types. The approximations are chosen so that false negatives are
//! possible but false positives are rare — and the rare false positive is
//! silenced inline with `// svq-lint: allow(<rule>)`, which keeps the
//! exception visible at the site it excuses.

use crate::scanner::{ScannedFile, Token, TokenKind};
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates (directory names under `crates/`) bound by the determinism
/// contract: identical inputs must produce byte-identical outputs, so no
/// wall-clock reads and no hash-order iteration. Timing goes through the
/// injected `svq_types::Clock`.
pub const DETERMINISM_CRATES: [&str; 3] = ["types", "scanstats", "core"];

/// Crates allowed to print to stdout/stderr (user-facing binaries).
pub const PRINT_CRATES: [&str; 3] = ["cli", "bench", "lint"];

/// Crates allowed to log to stderr but not stdout: long-lived daemons
/// whose stdout belongs to whoever launched them. `svq-serve` logs
/// operational events with `eprintln!`; a `println!` there would corrupt
/// any pipeline consuming the launcher's stdout (e.g. the CI smoke slice
/// reading the bound address).
pub const STDERR_CRATES: [&str; 1] = ["server"];

/// HashMap/HashSet methods whose results depend on hash-iteration order.
const HASH_ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

/// A lint rule identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads or hash-order iteration in a determinism-bound
    /// crate.
    Determinism,
    /// `unwrap()`, message-less `expect("")`, `panic!`, `todo!`,
    /// `unimplemented!` in non-test code.
    PanicDiscipline,
    /// `==` / `!=` against a float literal in non-test code.
    FloatEq,
    /// `println!`-family output outside the binary crates.
    PrintDiscipline,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// A cycle in the static lock-order graph (potential ABBA deadlock
    /// over *all* paths, not just executed ones).
    LockCycle,
    /// A blocking operation (sleep, join, bounded-channel send/recv,
    /// condvar wait, file/socket I/O) reached — directly or through the
    /// call graph — while a guard region is live.
    BlockingUnderLock,
}

impl Rule {
    pub const ALL: [Rule; 7] = [
        Rule::Determinism,
        Rule::PanicDiscipline,
        Rule::FloatEq,
        Rule::PrintDiscipline,
        Rule::ForbidUnsafe,
        Rule::LockCycle,
        Rule::BlockingUnderLock,
    ];

    /// Stable name used in reports and suppressions.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::PanicDiscipline => "panic",
            Rule::FloatEq => "float-eq",
            Rule::PrintDiscipline => "print",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::LockCycle => "lock-cycle",
            Rule::BlockingUnderLock => "blocking-under-lock",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Path relative to the workspace root.
    pub path: PathBuf,
    pub line: u32,
    pub message: String,
    /// Witness path for graph-derived findings (`lock-cycle`,
    /// transitive `blocking-under-lock`): one `file:line` step per hop.
    pub witness: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Per-file lint context derived from its workspace-relative path.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path (used in findings).
    pub path: PathBuf,
    /// Directory name under `crates/`, if any (`core`, `cli`, …).
    pub crate_name: Option<String>,
    /// Whole file is test code (under a `tests/` directory).
    pub test_file: bool,
}

impl FileContext {
    /// Derive the context from a workspace-relative path.
    pub fn from_rel_path(rel: &Path) -> Self {
        let comps: Vec<String> = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect();
        let crate_name = (comps.len() >= 2 && comps[0] == "crates").then(|| comps[1].clone());
        let test_file = comps.iter().any(|c| c == "tests");
        Self {
            path: rel.to_path_buf(),
            crate_name,
            test_file,
        }
    }

    fn in_determinism_crate(&self) -> bool {
        self.crate_name
            .as_deref()
            .is_some_and(|c| DETERMINISM_CRATES.contains(&c))
    }

    fn may_print(&self) -> bool {
        self.crate_name
            .as_deref()
            .is_some_and(|c| PRINT_CRATES.contains(&c))
    }

    fn may_log_stderr(&self) -> bool {
        self.crate_name
            .as_deref()
            .is_some_and(|c| STDERR_CRATES.contains(&c))
    }
}

/// Run every token-level rule over one scanned file.
pub fn lint_tokens(file: &ScannedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    let mask = crate::regions::test_region_mask(&file.tokens);
    let non_test = |i: usize| -> bool { !ctx.test_file && !mask.get(i).copied().unwrap_or(false) };

    panic_rule(file, ctx, &non_test, out);
    float_rule(file, ctx, &non_test, out);
    print_rule(file, ctx, &non_test, out);
    if ctx.in_determinism_crate() {
        determinism_rule(file, ctx, &non_test, out);
    }
}

fn emit(
    out: &mut Vec<Finding>,
    file: &ScannedFile,
    ctx: &FileContext,
    rule: Rule,
    line: u32,
    message: String,
) {
    if !file.suppressed(rule.name(), line) {
        out.push(Finding {
            rule,
            path: ctx.path.clone(),
            line,
            message,
            witness: Vec::new(),
        });
    }
}

/// `unwrap()`, `expect("")`, `panic!`, `todo!`, `unimplemented!` outside
/// tests. `unreachable!` is allowed: it documents an invariant rather than
/// an unhandled error path, and the message is the proof obligation.
fn panic_rule(
    file: &ScannedFile,
    ctx: &FileContext,
    non_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    let t = &file.tokens;
    for i in 0..t.len() {
        if !non_test(i) || t[i].kind != TokenKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && t[i - 1].is_op(".");
        match t[i].text.as_str() {
            "unwrap" if prev_dot && is_call_no_args(t, i) => emit(
                out,
                file,
                ctx,
                Rule::PanicDiscipline,
                t[i].line,
                "`.unwrap()` in non-test code; handle the error or use \
                 `.expect(\"<invariant>\")` with the reason it cannot fail"
                    .into(),
            ),
            "expect" if prev_dot && is_call_empty_str(t, i) => emit(
                out,
                file,
                ctx,
                Rule::PanicDiscipline,
                t[i].line,
                "`.expect(\"\")` with an empty message; state the invariant that \
                 makes the failure impossible"
                    .into(),
            ),
            "panic" | "todo" | "unimplemented" if t.get(i + 1).is_some_and(|n| n.is_op("!")) => {
                emit(
                    out,
                    file,
                    ctx,
                    Rule::PanicDiscipline,
                    t[i].line,
                    format!(
                        "`{}!` in non-test code; return an error or use \
                         `unreachable!` with a proof of the invariant",
                        t[i].text
                    ),
                )
            }
            _ => {}
        }
    }
}

/// `==` / `!=` where one side is a float literal. Exact float comparison
/// is order- and optimisation-sensitive; compare against a tolerance, or
/// suppress at sites where exactness is the point (e.g. checking an
/// untouched sentinel).
fn float_rule(
    file: &ScannedFile,
    ctx: &FileContext,
    non_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    let t = &file.tokens;
    for i in 0..t.len() {
        if !non_test(i) || !(t[i].is_op("==") || t[i].is_op("!=")) {
            continue;
        }
        let float_neighbour = (i > 0 && t[i - 1].kind == TokenKind::Float)
            || t.get(i + 1).is_some_and(|n| n.kind == TokenKind::Float);
        if float_neighbour {
            emit(
                out,
                file,
                ctx,
                Rule::FloatEq,
                t[i].line,
                format!(
                    "`{}` against a float literal; use a tolerance \
                     (`(a - b).abs() < eps`) or justify exactness inline",
                    t[i].text
                ),
            );
        }
    }
}

/// `println!` / `print!` / `eprintln!` / `eprint!` / `dbg!` outside the
/// binary crates ({cli, bench, lint}); library crates report through
/// return values and metrics, not stdout. Daemon crates ({server}) may
/// log to stderr (`eprintln!`/`eprint!`) but never own stdout.
fn print_rule(
    file: &ScannedFile,
    ctx: &FileContext,
    non_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    if ctx.may_print() {
        return;
    }
    let stderr_ok = ctx.may_log_stderr();
    let t = &file.tokens;
    for i in 0..t.len() {
        if !non_test(i) || t[i].kind != TokenKind::Ident {
            continue;
        }
        let name = t[i].text.as_str();
        let stdout_macro = matches!(name, "println" | "print" | "dbg");
        let stderr_macro = matches!(name, "eprintln" | "eprint");
        if !(stdout_macro || stderr_macro) || !t.get(i + 1).is_some_and(|n| n.is_op("!")) {
            continue;
        }
        if stderr_macro && stderr_ok {
            continue;
        }
        let message = if stderr_ok {
            format!(
                "`{name}!` in a stderr-only daemon crate; stdout belongs \
                 to the launcher — log with `eprintln!`"
            )
        } else {
            format!("`{name}!` in a library crate; only cli/bench/lint own stdout")
        };
        emit(out, file, ctx, Rule::PrintDiscipline, t[i].line, message);
    }
}

/// Wall-clock reads (`Instant`, `SystemTime`) and HashMap/HashSet
/// iteration in determinism-bound crates. Hash containers are fine for
/// lookup; *iterating* one feeds hash-order (randomised per process) into
/// results. Identifier→hash-type tracking is textual: a binding, field or
/// parameter whose declared type or initialiser mentions `HashMap`/`HashSet`
/// marks that name for the rest of the file.
fn determinism_rule(
    file: &ScannedFile,
    ctx: &FileContext,
    non_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    let t = &file.tokens;
    let hash_idents = collect_hash_idents(t);
    let mut i = 0;
    while i < t.len() {
        if !non_test(i) {
            i += 1;
            continue;
        }
        let tok = &t[i];
        // Wall-clock types, including `use` imports.
        if tok.is_ident("Instant") || tok.is_ident("SystemTime") {
            emit(
                out,
                file,
                ctx,
                Rule::Determinism,
                tok.line,
                format!(
                    "`{}` in a determinism-bound crate; inject `svq_types::Clock` \
                     and take `WallClock` only at the boundary",
                    tok.text
                ),
            );
            i += 1;
            continue;
        }
        // `<hash ident> . <iteration method> (`
        if tok.kind == TokenKind::Ident
            && hash_idents.contains(&tok.text)
            && t.get(i + 1).is_some_and(|n| n.is_op("."))
            && t.get(i + 2).is_some_and(|n| {
                n.kind == TokenKind::Ident && HASH_ITER_METHODS.contains(&n.text.as_str())
            })
            && t.get(i + 3).is_some_and(|n| n.is_op("("))
        {
            emit(
                out,
                file,
                ctx,
                Rule::Determinism,
                tok.line,
                format!(
                    "iterating hash-ordered `{}` (`.{}()`); use BTreeMap/BTreeSet \
                     or collect-and-sort first",
                    tok.text,
                    t[i + 2].text
                ),
            );
            i += 4;
            continue;
        }
        // `for … in <expr mentioning a hash ident> {`. A hash ident with a
        // method call after it is left to the method check above (resuming
        // at `in_idx + 1` re-scans the span), so each site is flagged once.
        if tok.is_ident("for") {
            if let Some(in_idx) = (i + 1..t.len().min(i + 12)).find(|&j| t[j].is_ident("in")) {
                let body = (in_idx + 1..t.len()).find(|&j| t[j].is_op("{"));
                if let Some(body_idx) = body {
                    for j in in_idx + 1..body_idx {
                        let direct_iteration = t[j].kind == TokenKind::Ident
                            && hash_idents.contains(&t[j].text)
                            && !t.get(j + 1).is_some_and(|n| n.is_op("."));
                        if direct_iteration {
                            emit(
                                out,
                                file,
                                ctx,
                                Rule::Determinism,
                                t[j].line,
                                format!(
                                    "`for` over hash-ordered `{}`; iteration order is \
                                     randomised per process",
                                    t[j].text
                                ),
                            );
                        }
                    }
                    i = in_idx + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// Names declared with a HashMap/HashSet type or initialiser. Textual and
/// file-scoped — good enough for lint, suppressible where wrong.
fn collect_hash_idents(t: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..t.len() {
        if t[i].kind != TokenKind::Ident || !(t[i].text == "HashMap" || t[i].text == "HashSet") {
            continue;
        }
        // Walk backwards over the type/initialiser expression to the
        // introducing `name :` or `name =` (let binding, field, or param).
        let mut j = i;
        while j > 0 {
            j -= 1;
            let tok = &t[j];
            if tok.is_op(":") || tok.is_op("=") {
                if j > 0 && t[j - 1].kind == TokenKind::Ident {
                    names.insert(t[j - 1].text.clone());
                }
                break;
            }
            // Past a statement/item boundary: no binding to attribute.
            if tok.is_op(";") || tok.is_op("{") || tok.is_op("}") || tok.is_op(",") {
                break;
            }
        }
    }
    // Dataflow fixpoint: a binding whose initialiser is a bare move,
    // borrow, or clone of a known hash container is itself hash-ordered
    // (`let alias = scores;`), even though its own declaration never
    // mentions HashMap/HashSet. Iterate until no new names are learned —
    // aliases of aliases converge in a pass per link.
    loop {
        let mut grew = false;
        for i in 0..t.len() {
            if !t[i].is_op("=") || i == 0 || t[i - 1].kind != TokenKind::Ident {
                continue;
            }
            // Skip leading borrows: `= &map;` aliases like `= map;`.
            let mut j = i + 1;
            while t.get(j).is_some_and(|n| n.is_op("&") || n.is_ident("mut")) {
                j += 1;
            }
            let Some(src) = t.get(j) else { continue };
            if src.kind != TokenKind::Ident || !names.contains(&src.text) {
                continue;
            }
            // Optional `.clone()` — still the same hash-ordered contents.
            let mut end = j + 1;
            if t.get(end).is_some_and(|n| n.is_op("."))
                && t.get(end + 1).is_some_and(|n| n.is_ident("clone"))
                && t.get(end + 2).is_some_and(|n| n.is_op("("))
                && t.get(end + 3).is_some_and(|n| n.is_op(")"))
            {
                end += 4;
            }
            if !t.get(end).is_some_and(|n| n.is_op(";")) {
                continue;
            }
            if names.insert(t[i - 1].text.clone()) {
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    names
}

/// `t[i]` is a call with no arguments: `ident ( )`.
fn is_call_no_args(t: &[Token], i: usize) -> bool {
    t.get(i + 1).is_some_and(|a| a.is_op("(")) && t.get(i + 2).is_some_and(|b| b.is_op(")"))
}

/// `t[i]` is a call whose sole argument is the empty string literal.
fn is_call_empty_str(t: &[Token], i: usize) -> bool {
    t.get(i + 1).is_some_and(|a| a.is_op("("))
        && t.get(i + 2)
            .is_some_and(|s| s.kind == TokenKind::Str && s.text.is_empty())
        && t.get(i + 3).is_some_and(|c| c.is_op(")"))
}

/// Crate-root check: the root source of every workspace crate must carry
/// `#![forbid(unsafe_code)]`. Token-level so formatting cannot fool it.
pub fn forbid_unsafe_rule(file: &ScannedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    let t = &file.tokens;
    let has = (0..t.len()).any(|i| {
        t[i].is_ident("forbid")
            && t.get(i + 1).is_some_and(|n| n.is_op("("))
            && t.get(i + 2).is_some_and(|n| n.is_ident("unsafe_code"))
    });
    if !has && !file.suppressed(Rule::ForbidUnsafe.name(), 1) {
        out.push(Finding {
            rule: Rule::ForbidUnsafe,
            path: ctx.path.clone(),
            line: 1,
            message: "crate root missing `#![forbid(unsafe_code)]`".into(),
            witness: Vec::new(),
        });
    }
}
