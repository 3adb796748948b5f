//! The static lock-order graph and the two concurrency rules built on it.
//!
//! Per-function acquisition sequences (from [`crate::guards`]) are
//! propagated transitively through the call graph by a bottom-up
//! fixpoint, producing for every function the set of locks it *may*
//! acquire and the blocking operations it *may* reach — each with one
//! witness call chain. A second pass replays every function's events with
//! its live-guard regions and emits:
//!
//! * **lock-order edges** `held → acquired`, both as identity pairs (for
//!   DFS cycle detection → the `lock-cycle` rule) and as `(file, line)`
//!   site pairs (so the runtime auditor's observed edges can be checked
//!   for static coverage — the soundness gate);
//! * **`blocking-under-lock` findings** wherever a sleep, join,
//!   bounded-channel op, condvar wait, or file/socket I/O is reached —
//!   directly or through calls — while any guard is live.
//!
//! `try_lock`-family acquisitions take no incoming edge (matching the
//! runtime auditor) but do hold a region that orders later acquisitions.
//! Test-region edges stay in the graph (the runtime workloads run from
//! tests) but never produce findings — the runtime auditor owns tests.

use crate::callgraph::CallGraph;
use crate::guards::{Event, EventKind, HeldGuard};
use crate::ir::{SourceUnit, WorkspaceIr};
use crate::rules::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// A site is a workspace-relative path plus a 1-based line — exactly what
/// `Location::caller()` gives the runtime auditor.
pub type Site = (String, u32);

/// One representative lock-order edge.
#[derive(Debug, Clone)]
pub struct EdgeInfo {
    pub from: String,
    pub to: String,
    /// Where the held lock was acquired.
    pub holder: Site,
    /// Where the second lock is acquired (the leaf of the call chain).
    pub acq: Site,
    /// Call chain from the holding function to the leaf acquisition
    /// (empty for same-function edges).
    pub chain: Vec<String>,
    /// Edge only observed from test code.
    pub from_test: bool,
}

/// Analysis counters surfaced in `--format json` and the CLI summary.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    pub files: usize,
    pub functions: usize,
    pub resolved_calls: usize,
    pub unresolved_calls: usize,
    pub lock_nodes: usize,
    pub lock_edges: usize,
    pub site_pairs: usize,
}

/// The static lock-order graph, queryable by the runtime cross-check.
pub struct StaticLockGraph {
    pub nodes: BTreeSet<String>,
    pub edges: Vec<EdgeInfo>,
    /// Every `(holder site, acquisition site)` pair the analysis admits.
    pairs: BTreeSet<(Site, Site)>,
    /// Every acquisition / wait re-acquisition site.
    sites: BTreeSet<Site>,
    pub stats: Stats,
}

impl StaticLockGraph {
    /// Does the static graph admit a runtime-observed edge from a lock
    /// acquired at `holder` to one acquired at `acq`?
    pub fn covers(&self, holder: (&str, u32), acq: (&str, u32)) -> bool {
        self.pairs
            .contains(&((holder.0.to_string(), holder.1), (acq.0.to_string(), acq.1)))
    }

    /// Is this site a lock acquisition the static analysis knows about at
    /// all? A runtime edge endpoint inside `crates/` that the IR never
    /// saw means the syntactic pass missed an acquisition form — a
    /// soundness hole worth failing loudly on.
    pub fn knows_site(&self, site: (&str, u32)) -> bool {
        self.sites.contains(&(site.0.to_string(), site.1))
    }
}

struct Via {
    site: (usize, u32),
    blocking: bool,
    chain: Vec<String>,
}

struct BlockVia {
    what: String,
    site: (usize, u32),
    chain: Vec<String>,
}

#[derive(Default)]
struct Summary {
    /// lock identity → every reachable acquisition site (each with one
    /// witness chain). All sites matter: the runtime cross-check compares
    /// site pairs, and a lock acquired at several places (e.g. every
    /// method of `ConnWriter` takes `state`) must admit each of them.
    acquires: BTreeMap<String, Vec<Via>>,
    /// dedup key → blocking-operation witness.
    blocks: BTreeMap<String, BlockVia>,
}

const MAX_CHAIN: usize = 8;

fn has_site(s: &Summary, lock: &str, site: (usize, u32)) -> bool {
    s.acquires
        .get(lock)
        .is_some_and(|vias| vias.iter().any(|v| v.site == site))
}

/// Run the concurrency analysis: returns findings (for `lock-cycle` and
/// `blocking-under-lock`) plus the full static graph.
pub fn analyze(
    units: &[SourceUnit],
    ir: &WorkspaceIr,
    events: &[Vec<Event>],
) -> (Vec<Finding>, StaticLockGraph) {
    let graph = crate::callgraph::resolve(ir, events);
    analyze_with(units, ir, events, &graph)
}

fn site_of(units: &[SourceUnit], file: usize, line: u32) -> Site {
    (units[file].ctx.path.to_string_lossy().into_owned(), line)
}

fn analyze_with(
    units: &[SourceUnit],
    ir: &WorkspaceIr,
    events: &[Vec<Event>],
    graph: &CallGraph,
) -> (Vec<Finding>, StaticLockGraph) {
    let n = ir.fns.len();
    // Event-index → callee list, per function, for O(1) lookup.
    let resolved: Vec<BTreeMap<usize, &Vec<usize>>> = graph
        .calls
        .iter()
        .map(|per| per.iter().map(|(ei, cs)| (*ei, cs)).collect())
        .collect();

    // --- Pass 1: bottom-up may-acquire / may-block fixpoint. -----------
    let mut summaries: Vec<Summary> = (0..n).map(|_| Summary::default()).collect();
    for _pass in 0..32 {
        let mut changed = false;
        for fi in 0..n {
            let file = ir.fns[fi].file;
            // Collect insertions first (callee summaries may alias ours).
            let mut new_acquires: Vec<(String, Via)> = Vec::new();
            let mut new_blocks: Vec<(String, BlockVia)> = Vec::new();
            for (ei, ev) in events[fi].iter().enumerate() {
                match &ev.kind {
                    EventKind::Acquire {
                        lock,
                        line,
                        blocking,
                    } => {
                        if *blocking && !has_site(&summaries[fi], lock, (file, *line)) {
                            new_acquires.push((
                                lock.clone(),
                                Via {
                                    site: (file, *line),
                                    blocking: true,
                                    chain: Vec::new(),
                                },
                            ));
                        }
                    }
                    EventKind::Wait { lock, line } => {
                        if !has_site(&summaries[fi], lock, (file, *line)) {
                            new_acquires.push((
                                lock.clone(),
                                Via {
                                    site: (file, *line),
                                    blocking: true,
                                    chain: Vec::new(),
                                },
                            ));
                        }
                        let key = format!("wait@{file}:{line}");
                        if !summaries[fi].blocks.contains_key(&key) {
                            new_blocks.push((
                                key,
                                BlockVia {
                                    what: "condvar wait".into(),
                                    site: (file, *line),
                                    chain: Vec::new(),
                                },
                            ));
                        }
                    }
                    EventKind::Block { what, line } => {
                        let key = format!("block@{file}:{line}");
                        if !summaries[fi].blocks.contains_key(&key) {
                            new_blocks.push((
                                key,
                                BlockVia {
                                    what: what.clone(),
                                    site: (file, *line),
                                    chain: Vec::new(),
                                },
                            ));
                        }
                    }
                    EventKind::Call(call) => {
                        let Some(callees) = resolved[fi].get(&ei) else {
                            continue;
                        };
                        for &c in callees.iter() {
                            let step = format!(
                                "{}:{} → {}",
                                units[file].ctx.path.display(),
                                call.line,
                                ir.fns[c].qual
                            );
                            for (lock, vias) in &summaries[c].acquires {
                                for via in vias {
                                    if has_site(&summaries[fi], lock, via.site)
                                        || via.chain.len() >= MAX_CHAIN
                                    {
                                        continue;
                                    }
                                    let mut chain = vec![step.clone()];
                                    chain.extend(via.chain.iter().cloned());
                                    new_acquires.push((
                                        lock.clone(),
                                        Via {
                                            site: via.site,
                                            blocking: via.blocking,
                                            chain,
                                        },
                                    ));
                                }
                            }
                            for (key, via) in &summaries[c].blocks {
                                if summaries[fi].blocks.contains_key(key)
                                    || via.chain.len() >= MAX_CHAIN
                                {
                                    continue;
                                }
                                let mut chain = vec![step.clone()];
                                chain.extend(via.chain.iter().cloned());
                                new_blocks.push((
                                    key.clone(),
                                    BlockVia {
                                        what: via.what.clone(),
                                        site: via.site,
                                        chain,
                                    },
                                ));
                            }
                        }
                    }
                }
            }
            for (k, v) in new_acquires {
                let vias = summaries[fi].acquires.entry(k).or_default();
                if !vias.iter().any(|w| w.site == v.site) {
                    vias.push(v);
                    changed = true;
                }
            }
            for (k, v) in new_blocks {
                if let std::collections::btree_map::Entry::Vacant(e) = summaries[fi].blocks.entry(k)
                {
                    e.insert(v);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // --- Pass 2: edges, site pairs, blocking findings. -----------------
    let mut nodes = BTreeSet::new();
    let mut pairs: BTreeSet<(Site, Site)> = BTreeSet::new();
    let mut sites: BTreeSet<Site> = BTreeSet::new();
    let mut edge_map: BTreeMap<(String, String), EdgeInfo> = BTreeMap::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut block_finding_keys: BTreeSet<(usize, u32, String)> = BTreeSet::new();

    let record_edge = |edge_map: &mut BTreeMap<(String, String), EdgeInfo>,
                       pairs: &mut BTreeSet<(Site, Site)>,
                       g: &HeldGuard,
                       to: &str,
                       file: usize,
                       acq_site: (usize, u32),
                       chain: &[String],
                       from_test: bool| {
        let acq = site_of(units, acq_site.0, acq_site.1);
        for &hline in &g.sites {
            pairs.insert((site_of(units, file, hline), acq.clone()));
        }
        let key = (g.lock.clone(), to.to_string());
        let info = EdgeInfo {
            from: g.lock.clone(),
            to: to.to_string(),
            holder: site_of(units, file, g.sites[0]),
            acq,
            chain: chain.to_vec(),
            from_test,
        };
        match edge_map.get_mut(&key) {
            Some(existing) => {
                // Prefer a non-test representative.
                if existing.from_test && !from_test {
                    *existing = info;
                }
            }
            None => {
                edge_map.insert(key, info);
            }
        }
    };

    let describe_held = |held: &[HeldGuard], units: &[SourceUnit], file: usize| -> String {
        held.iter()
            .map(|g| {
                format!(
                    "`{}` (acquired {}:{})",
                    g.lock,
                    units[file].ctx.path.display(),
                    g.sites[0]
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };

    for fi in 0..n {
        let f = &ir.fns[fi];
        let file = f.file;
        let scanned = &units[file].scanned;
        let is_test = f.is_test;
        for (ei, ev) in events[fi].iter().enumerate() {
            match &ev.kind {
                EventKind::Acquire {
                    lock,
                    line,
                    blocking,
                } => {
                    nodes.insert(lock.clone());
                    sites.insert(site_of(units, file, *line));
                    if *blocking {
                        for g in ev.held.iter().filter(|g| g.lock != *lock) {
                            record_edge(
                                &mut edge_map,
                                &mut pairs,
                                g,
                                lock,
                                file,
                                (file, *line),
                                &[],
                                is_test,
                            );
                        }
                    }
                }
                EventKind::Wait { lock, line } => {
                    nodes.insert(lock.clone());
                    sites.insert(site_of(units, file, *line));
                    for g in ev.held.iter().filter(|g| g.lock != *lock) {
                        record_edge(
                            &mut edge_map,
                            &mut pairs,
                            g,
                            lock,
                            file,
                            (file, *line),
                            &[],
                            is_test,
                        );
                    }
                    if !is_test
                        && !ev.held.is_empty()
                        && !scanned.suppressed(Rule::BlockingUnderLock.name(), *line)
                    {
                        findings.push(Finding {
                            rule: Rule::BlockingUnderLock,
                            path: units[file].ctx.path.clone(),
                            line: *line,
                            message: format!(
                                "condvar wait parks the thread while holding {}",
                                describe_held(&ev.held, units, file)
                            ),
                            witness: Vec::new(),
                        });
                    }
                }
                EventKind::Block { what, line } => {
                    if !is_test
                        && !ev.held.is_empty()
                        && !scanned.suppressed(Rule::BlockingUnderLock.name(), *line)
                    {
                        findings.push(Finding {
                            rule: Rule::BlockingUnderLock,
                            path: units[file].ctx.path.clone(),
                            line: *line,
                            message: format!(
                                "{} while holding {}",
                                what,
                                describe_held(&ev.held, units, file)
                            ),
                            witness: Vec::new(),
                        });
                    }
                }
                EventKind::Call(call) => {
                    if ev.held.is_empty() {
                        continue;
                    }
                    let Some(callees) = resolved[fi].get(&ei) else {
                        continue;
                    };
                    for &c in callees.iter() {
                        for (lock, vias) in &summaries[c].acquires {
                            for via in vias {
                                for g in ev.held.iter().filter(|g| g.lock != *lock) {
                                    let mut chain = vec![format!(
                                        "{}:{} → {}",
                                        units[file].ctx.path.display(),
                                        call.line,
                                        ir.fns[c].qual
                                    )];
                                    chain.extend(via.chain.iter().cloned());
                                    record_edge(
                                        &mut edge_map,
                                        &mut pairs,
                                        g,
                                        lock,
                                        file,
                                        via.site,
                                        &chain,
                                        is_test,
                                    );
                                }
                            }
                        }
                        if !is_test
                            && !summaries[c].blocks.is_empty()
                            && !scanned.suppressed(Rule::BlockingUnderLock.name(), call.line)
                            && block_finding_keys.insert((file, call.line, ir.fns[c].qual.clone()))
                        {
                            let (_, via) =
                                summaries[c].blocks.iter().next().expect("non-empty blocks");
                            let leaf = site_of(units, via.site.0, via.site.1);
                            let mut witness = vec![format!(
                                "{}:{} → {}",
                                units[file].ctx.path.display(),
                                call.line,
                                ir.fns[c].qual
                            )];
                            witness.extend(via.chain.iter().cloned());
                            witness.push(format!("{}:{}: {}", leaf.0, leaf.1, via.what));
                            findings.push(Finding {
                                rule: Rule::BlockingUnderLock,
                                path: units[file].ctx.path.clone(),
                                line: call.line,
                                message: format!(
                                    "call to `{}` reaches {} ({}:{}) while holding {}",
                                    ir.fns[c].qual,
                                    via.what,
                                    leaf.0,
                                    leaf.1,
                                    describe_held(&ev.held, units, file)
                                ),
                                witness,
                            });
                        }
                    }
                }
            }
        }
    }

    // --- Pass 3: DFS cycle detection over non-test edges. --------------
    let adjacency: BTreeMap<&String, BTreeSet<&String>> = {
        let mut adj: BTreeMap<&String, BTreeSet<&String>> = BTreeMap::new();
        for ((from, to), e) in &edge_map {
            if !e.from_test {
                adj.entry(from).or_default().insert(to);
            }
        }
        adj
    };
    for cycle in find_cycles(&adjacency) {
        // Witness: one line per edge of the cycle.
        let mut witness = Vec::new();
        let mut anchor: Option<(String, u32)> = None;
        for w in 0..cycle.len() {
            let from = &cycle[w];
            let to = &cycle[(w + 1) % cycle.len()];
            if let Some(e) = edge_map.get(&(from.clone(), to.clone())) {
                let via = if e.chain.is_empty() {
                    String::new()
                } else {
                    format!(" via {}", e.chain.join(" → "))
                };
                witness.push(format!(
                    "holding `{}` ({}:{}) acquires `{}` at {}:{}{}",
                    from, e.holder.0, e.holder.1, to, e.acq.0, e.acq.1, via
                ));
                if anchor.is_none() {
                    anchor = Some(e.acq.clone());
                }
            }
        }
        let Some((apath, aline)) = anchor else {
            continue;
        };
        let suppressed = units
            .iter()
            .find(|u| u.ctx.path.to_string_lossy() == apath)
            .is_some_and(|u| u.scanned.suppressed(Rule::LockCycle.name(), aline));
        if suppressed {
            continue;
        }
        let mut ring: Vec<&str> = cycle.iter().map(String::as_str).collect();
        ring.push(cycle[0].as_str());
        findings.push(Finding {
            rule: Rule::LockCycle,
            path: apath.clone().into(),
            line: aline,
            message: format!("static lock-order cycle: `{}`", ring.join("` → `")),
            witness,
        });
    }

    let stats = Stats {
        files: units.len(),
        functions: n,
        resolved_calls: graph.resolved_edges,
        unresolved_calls: graph.unresolved.len(),
        lock_nodes: nodes.len(),
        lock_edges: edge_map.len(),
        site_pairs: pairs.len(),
    };
    let graph = StaticLockGraph {
        nodes,
        edges: edge_map.into_values().collect(),
        pairs,
        sites,
        stats,
    };
    (findings, graph)
}

/// Enumerate simple cycles by DFS with white/gray/black colouring,
/// canonicalised (rotated to the minimum node) and deduplicated. Good for
/// the handful of lock nodes a workspace has; not a general Johnson's
/// algorithm.
fn find_cycles(adj: &BTreeMap<&String, BTreeSet<&String>>) -> Vec<Vec<String>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<&String, Color> = adj.keys().map(|k| (*k, Color::White)).collect();
    let mut found: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut stack: Vec<&String> = Vec::new();

    fn dfs<'a>(
        node: &'a String,
        adj: &BTreeMap<&'a String, BTreeSet<&'a String>>,
        color: &mut BTreeMap<&'a String, Color>,
        stack: &mut Vec<&'a String>,
        found: &mut BTreeSet<Vec<String>>,
    ) {
        color.insert(node, Color::Gray);
        stack.push(node);
        if let Some(nexts) = adj.get(node) {
            for &next in nexts {
                match color.get(next).copied().unwrap_or(Color::White) {
                    Color::Gray => {
                        // Back edge: the cycle is the stack suffix from
                        // `next`.
                        if let Some(pos) = stack.iter().position(|&s| s == next) {
                            let mut cycle: Vec<String> =
                                stack[pos..].iter().map(|s| (*s).clone()).collect();
                            // Canonical rotation: minimum node first.
                            let min = cycle
                                .iter()
                                .enumerate()
                                .min_by_key(|&(_, v)| v)
                                .map(|(i, _)| i)
                                .unwrap_or(0);
                            cycle.rotate_left(min);
                            found.insert(cycle);
                        }
                    }
                    Color::White => dfs(next, adj, color, stack, found),
                    Color::Black => {}
                }
            }
        }
        stack.pop();
        color.insert(node, Color::Black);
    }

    let keys: Vec<&String> = adj.keys().copied().collect();
    for k in keys {
        if color.get(k).copied().unwrap_or(Color::White) == Color::White {
            dfs(k, adj, &mut color, &mut stack, &mut found);
        }
    }
    found.into_iter().collect()
}
