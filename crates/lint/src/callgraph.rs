//! Workspace call graph: resolve the call expressions the guard walker
//! collected against the function index the IR built.
//!
//! Resolution is ranked, not exhaustive:
//!
//! 1. **Qualified paths** — `svq_query::execute_offline`, `crate::mux::feed`,
//!    `Baseline::parse`, `scenario::find` — matched as qualified-name
//!    suffixes, with crate aliases (`svq_exec` → `exec`, `svq_serve` →
//!    `server`, `crate` → the caller's crate) normalised first.
//! 2. **Method calls** — resolved through the receiver type when known
//!    (`self.m()` → the impl owner; `session.m()` → a local/param type
//!    hint; `self.writer.m()` → the declared type of the field), else
//!    accepted only when the method name is unique in the whole
//!    workspace.
//! 3. Everything else is **unresolved** and logged as such — the
//!    conservative fallback the summary statistics surface, so precision
//!    loss is visible rather than silent.

use crate::guards::{CallRef, Event, EventKind};
use crate::ir::{FnIr, WorkspaceIr};
use std::collections::{BTreeMap, BTreeSet};

/// Method names so common in std/core (atomics, collections, channels,
/// iterators) that an untyped receiver almost certainly names a std type,
/// not the one workspace method that happens to share the name. The
/// unique-in-workspace fallback is disabled for these; typed receivers
/// still resolve normally. Without this, `counter.load(Ordering::Relaxed)`
/// links to `storage::catalog::IngestedVideo::load` and every metrics
/// read appears to do file I/O.
const COMMON_STD_METHODS: &[&str] = &[
    "load", "store", "swap", "take", "get", "set", "push", "pop", "insert", "remove", "len",
    "clone", "iter", "next", "send", "recv", "clear", "drain", "contains", "flush", "new",
    "default", "fmt", "drop", "eq", "cmp", "hash", "is_empty", "as_ref", "get_mut", "entry",
];

/// One call that could not be linked to a workspace function.
#[derive(Debug, Clone)]
pub struct UnresolvedCall {
    pub caller: String,
    pub name: String,
    pub line: u32,
}

/// The resolved call graph.
pub struct CallGraph {
    /// Per caller function: `(event index, callee fn indices)`.
    pub calls: Vec<Vec<(usize, Vec<usize>)>>,
    pub resolved_edges: usize,
    pub unresolved: Vec<UnresolvedCall>,
}

/// Resolve every call event of every function.
pub fn resolve(ir: &WorkspaceIr, events: &[Vec<Event>]) -> CallGraph {
    let index = Index::build(ir);
    let mut graph = CallGraph {
        calls: Vec::with_capacity(ir.fns.len()),
        resolved_edges: 0,
        unresolved: Vec::new(),
    };
    for (fi, f) in ir.fns.iter().enumerate() {
        let mut per_fn = Vec::new();
        for (ei, ev) in events[fi].iter().enumerate() {
            let EventKind::Call(call) = &ev.kind else {
                continue;
            };
            let callees = index.resolve(call, f);
            if callees.is_empty() {
                // Names that exist nowhere in the workspace are std/dep
                // calls, not resolution failures worth logging; likewise
                // untyped methods with ubiquitous std names.
                let name = call.segments.last().map(String::as_str).unwrap_or("");
                if index.by_name.contains_key(name)
                    && !(call.method && COMMON_STD_METHODS.contains(&name))
                {
                    graph.unresolved.push(UnresolvedCall {
                        caller: f.qual.clone(),
                        name: call.segments.join("::"),
                        line: call.line,
                    });
                }
            } else {
                graph.resolved_edges += callees.len();
                per_fn.push((ei, callees));
            }
        }
        graph.calls.push(per_fn);
    }
    graph
}

struct Index<'a> {
    ir: &'a WorkspaceIr,
    by_name: BTreeMap<&'a str, Vec<usize>>,
    crates: BTreeSet<&'a str>,
}

impl<'a> Index<'a> {
    fn build(ir: &'a WorkspaceIr) -> Self {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut crates = BTreeSet::new();
        for (i, f) in ir.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
            crates.insert(f.krate.as_str());
        }
        Self {
            ir,
            by_name,
            crates,
        }
    }

    /// Normalise a leading path segment that names a crate: `crate` → the
    /// caller's crate, `svq_exec`/`svq_serve` → the crate directory name.
    fn crate_alias(&self, seg: &str, caller: &FnIr) -> Option<String> {
        if seg == "crate" {
            return Some(caller.krate.clone());
        }
        if self.crates.contains(seg) {
            return Some(seg.to_string());
        }
        if let Some(stripped) = seg.strip_prefix("svq_") {
            let dir = if stripped == "serve" {
                "server"
            } else {
                stripped
            };
            if self.crates.contains(dir) {
                return Some(dir.to_string());
            }
        }
        None
    }

    fn resolve(&self, call: &CallRef, caller: &FnIr) -> Vec<usize> {
        if call.method {
            self.resolve_method(call, caller)
        } else if call.segments.len() > 1 {
            self.resolve_path(call, caller)
        } else {
            self.resolve_free(call, caller)
        }
    }

    fn resolve_method(&self, call: &CallRef, caller: &FnIr) -> Vec<usize> {
        let name = call.segments.last().map(String::as_str).unwrap_or("");
        let Some(cands) = self.by_name.get(name) else {
            return Vec::new();
        };
        let methods: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| self.ir.fns[i].owner.is_some())
            .collect();
        if let Some(ty) = &call.receiver_type {
            let typed: Vec<usize> = methods
                .iter()
                .copied()
                .filter(|&i| self.ir.fns[i].owner.as_deref() == Some(ty.as_str()))
                .collect();
            if !typed.is_empty() {
                return prefer_crate(self.ir, typed, caller);
            }
        }
        // Unique in the workspace: safe to link even without a type —
        // unless the name collides with a ubiquitous std method, where
        // the untyped receiver is far more likely a std type.
        if methods.len() == 1 && !COMMON_STD_METHODS.contains(&name) {
            return methods;
        }
        Vec::new()
    }

    fn resolve_path(&self, call: &CallRef, caller: &FnIr) -> Vec<usize> {
        let name = call.segments.last().map(String::as_str).unwrap_or("");
        let Some(cands) = self.by_name.get(name) else {
            return Vec::new();
        };
        // Normalise the leading segment; `self::`/`super::` reduce to
        // plain suffix matching on the remaining segments, and `Self::`
        // names the caller's impl owner.
        let mut segs: Vec<String> = call
            .segments
            .iter()
            .filter(|s| *s != "self" && *s != "super")
            .map(|s| {
                if s == "Self" {
                    caller.owner.clone().unwrap_or_else(|| s.clone())
                } else {
                    s.clone()
                }
            })
            .collect();
        let crate_prefix = segs.first().and_then(|s| self.crate_alias(s, caller));
        if let (Some(alias), true) = (&crate_prefix, segs.len() > 1) {
            segs[0] = alias.clone();
        }
        let matches: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| {
                let f = &self.ir.fns[i];
                let mut quals: Vec<&str> = vec![f.krate.as_str()];
                quals.extend(f.module.iter().map(String::as_str));
                if let Some(o) = &f.owner {
                    quals.push(o.as_str());
                }
                quals.push(f.name.as_str());
                if crate_prefix.is_some() {
                    // Crate-qualified: crate must match, the rest is a
                    // suffix of the in-crate path (re-exports flatten
                    // modules, so `svq_query::execute_offline` matches
                    // `query::exec::execute_offline`).
                    f.krate == segs[0] && ends_with(&quals[1..], &segs[1..])
                } else {
                    ends_with(&quals, &segs)
                }
            })
            .collect();
        prefer_crate(self.ir, matches, caller)
    }

    fn resolve_free(&self, call: &CallRef, caller: &FnIr) -> Vec<usize> {
        let name = call.segments.last().map(String::as_str).unwrap_or("");
        let Some(cands) = self.by_name.get(name) else {
            return Vec::new();
        };
        let free: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| self.ir.fns[i].owner.is_none())
            .collect();
        // Same module beats same crate beats global uniqueness.
        let same_module: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&i| {
                self.ir.fns[i].krate == caller.krate && self.ir.fns[i].module == caller.module
            })
            .collect();
        if !same_module.is_empty() {
            return same_module;
        }
        let same_crate: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&i| self.ir.fns[i].krate == caller.krate)
            .collect();
        if same_crate.len() == 1 {
            return same_crate;
        }
        if free.len() == 1 {
            return free;
        }
        Vec::new()
    }
}

/// When several candidates match, prefer the caller's own crate; a
/// cross-crate tie keeps every candidate (conservative over-approximation
/// for the lock graph).
fn prefer_crate(ir: &WorkspaceIr, matches: Vec<usize>, caller: &FnIr) -> Vec<usize> {
    if matches.len() <= 1 {
        return matches;
    }
    let same: Vec<usize> = matches
        .iter()
        .copied()
        .filter(|&i| ir.fns[i].krate == caller.krate)
        .collect();
    if !same.is_empty() {
        return same;
    }
    matches
}

fn ends_with(quals: &[&str], segs: &[String]) -> bool {
    if segs.len() > quals.len() {
        return false;
    }
    quals[quals.len() - segs.len()..]
        .iter()
        .zip(segs)
        .all(|(q, s)| *q == s.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guards;
    use crate::ir::{self, SourceUnit};
    use crate::rules::FileContext;
    use crate::scanner;

    fn workspace(files: &[(&str, &str)]) -> (Vec<SourceUnit>, WorkspaceIr) {
        let units: Vec<SourceUnit> = files
            .iter()
            .map(|(p, s)| SourceUnit {
                ctx: FileContext::from_rel_path(std::path::Path::new(p)),
                scanned: scanner::scan(s),
            })
            .collect();
        let ir = ir::build(&units);
        (units, ir)
    }

    fn resolve_all(units: &[SourceUnit], ir: &WorkspaceIr) -> CallGraph {
        let events: Vec<Vec<Event>> = ir
            .fns
            .iter()
            .map(|f| guards::function_events(ir, f, &units[f.file].scanned.tokens))
            .collect();
        resolve(ir, &events)
    }

    fn callee_names(ir: &WorkspaceIr, graph: &CallGraph, caller: &str) -> Vec<String> {
        let fi = ir
            .fns
            .iter()
            .position(|f| f.qual == caller)
            .expect("caller");
        graph.calls[fi]
            .iter()
            .flat_map(|(_, cs)| cs.iter().map(|&c| ir.fns[c].qual.clone()))
            .collect()
    }

    #[test]
    fn self_methods_resolve_to_the_impl_owner() {
        let (units, ir) = workspace(&[(
            "crates/exec/src/mux.rs",
            r#"
            impl Mux {
                fn outer(&self) { self.inner(); }
                fn inner(&self) {}
            }
            "#,
        )]);
        let g = resolve_all(&units, &ir);
        assert_eq!(
            callee_names(&ir, &g, "exec::mux::Mux::outer"),
            ["exec::mux::Mux::inner"]
        );
    }

    #[test]
    fn typed_receivers_resolve_cross_file() {
        let (units, ir) = workspace(&[
            (
                "crates/exec/src/mux.rs",
                "fn drive(session: &Arc<Session>) { session.push(); }",
            ),
            (
                "crates/exec/src/session.rs",
                "impl Session { pub fn push(&self) {} } impl Other { pub fn push(&self) {} }",
            ),
        ]);
        let g = resolve_all(&units, &ir);
        assert_eq!(
            callee_names(&ir, &g, "exec::mux::drive"),
            ["exec::session::Session::push"]
        );
    }

    #[test]
    fn field_receivers_resolve_through_the_declared_type() {
        let (units, ir) = workspace(&[
            (
                "crates/server/src/server.rs",
                "struct Pending { writer: Arc<ConnWriter> } \
                 impl Pending { fn complete(self) { self.writer.enqueue(); } } \
                 impl ConnWriter { fn enqueue(&self) {} }",
            ),
            (
                "crates/exec/src/ingress.rs",
                "impl Ingress { fn enqueue(&self) {} }",
            ),
        ]);
        let g = resolve_all(&units, &ir);
        assert_eq!(
            callee_names(&ir, &g, "server::server::Pending::complete"),
            ["server::server::ConnWriter::enqueue"]
        );
    }

    #[test]
    fn crate_qualified_paths_match_through_reexports() {
        let (units, ir) = workspace(&[
            (
                "crates/server/src/server.rs",
                "fn handle() { svq_query::execute_offline(); }",
            ),
            ("crates/query/src/exec.rs", "pub fn execute_offline() {}"),
        ]);
        let g = resolve_all(&units, &ir);
        assert_eq!(
            callee_names(&ir, &g, "server::server::handle"),
            ["query::exec::execute_offline"]
        );
    }

    #[test]
    fn ambiguous_untyped_methods_stay_unresolved() {
        let (units, ir) = workspace(&[
            (
                "crates/exec/src/a.rs",
                "fn f(x: &Unknowable) { x.run(); } impl A { fn run(&self) {} }",
            ),
            ("crates/exec/src/b.rs", "impl B { fn run(&self) {} }"),
        ]);
        let g = resolve_all(&units, &ir);
        assert!(callee_names(&ir, &g, "exec::a::f").is_empty());
        assert_eq!(g.unresolved.len(), 1);
        assert_eq!(g.unresolved[0].name, "run");
    }

    #[test]
    fn common_std_method_names_never_resolve_untyped() {
        // `counter.load(...)` is an atomic read, not the catalog loader,
        // even though `load` is unique in this workspace.
        let (units, ir) = workspace(&[
            (
                "crates/exec/src/metrics.rs",
                "fn observe(counter: &AtomicU64) { counter.load(Ordering::Relaxed); }",
            ),
            (
                "crates/storage/src/catalog.rs",
                "impl IngestedVideo { pub fn load(&self, x: u32) {} }",
            ),
        ]);
        let g = resolve_all(&units, &ir);
        assert!(callee_names(&ir, &g, "exec::metrics::observe").is_empty());
        // Not logged as unresolved either: it is a std call, not a miss.
        assert!(g.unresolved.is_empty());
    }

    #[test]
    fn free_functions_prefer_the_same_module() {
        let (units, ir) = workspace(&[
            (
                "crates/sim/src/runner.rs",
                "fn go() { mix(42); } fn mix(x: u64) {}",
            ),
            ("crates/sim/src/rng.rs", "pub fn mix(x: u64) {}"),
        ]);
        let g = resolve_all(&units, &ir);
        assert_eq!(
            callee_names(&ir, &g, "sim::runner::go"),
            ["sim::runner::mix"]
        );
    }
}
