//! Guard-region tracking: walk one function body and emit the ordered
//! concurrency events — lock acquisitions, condvar waits, calls, and
//! blocking operations — each annotated with the set of guards live at
//! that point.
//!
//! Guard regions follow the same philosophy as `regions.rs`: brace-depth
//! scope tracking over the token stream. A `let g = m.lock();` opens a
//! region that closes at `drop(g)` or the end of the binding's block; a
//! statement-temporary `m.lock().len()` is held to the end of its
//! statement (conservatively to the end of the enclosing block when no
//! `;` terminates it, as in `for c in m.lock().iter() { … }` — which is
//! exactly the shape that must stay visible as held).

use crate::ir::{FileIr, FnIr, WorkspaceIr};
use crate::scanner::{Token, TokenKind};
use std::collections::BTreeMap;

/// A guard live at some event.
#[derive(Debug, Clone)]
pub struct HeldGuard {
    /// Normalised lock identity (`exec:Session.state`).
    pub lock: String,
    /// Acquisition site lines: the original acquisition plus every
    /// condvar-wait re-acquisition inside the region (the runtime auditor
    /// re-stamps the held entry at the wait site, so both are holder
    /// sites).
    pub sites: Vec<u32>,
    /// `false` for `try_lock`-family acquisitions.
    pub blocking: bool,
}

/// A call expression awaiting resolution by the call graph.
#[derive(Debug, Clone)]
pub struct CallRef {
    /// Path segments for free/path calls (`[scenario, find]`); for method
    /// calls, just the method name.
    pub segments: Vec<String>,
    pub method: bool,
    /// Receiver chain (source order, e.g. `[self, core, sessions]`) for
    /// method calls.
    pub receiver: Vec<String>,
    /// Best-effort receiver type: the impl owner for `self.m()`, a local
    /// or parameter type hint for `session.m()`, then each field step's
    /// declared type for `self.writer.m()` / `session.state.m()`.
    pub receiver_type: Option<String>,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub enum EventKind {
    /// A direct lock acquisition at `line`.
    Acquire {
        lock: String,
        line: u32,
        blocking: bool,
    },
    /// A condvar wait re-acquiring the guard of `lock` at `line`; `held`
    /// excludes the waited guard itself (it is released while parked).
    Wait { lock: String, line: u32 },
    /// A call expression (resolved later against the workspace).
    Call(CallRef),
    /// A directly blocking operation (`sleep`, `join`, bounded-channel
    /// send/recv, file or socket I/O).
    Block { what: String, line: u32 },
}

/// One event with the guards live when it happens.
#[derive(Debug, Clone)]
pub struct Event {
    pub kind: EventKind,
    pub held: Vec<HeldGuard>,
}

/// Methods that acquire a lock, blocking until granted.
const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];
/// Non-blocking acquisition attempts: order later acquisitions but take
/// no incoming edge (mirrors the runtime auditor's `try_acquired`).
const TRY_METHODS: [&str; 3] = ["try_lock", "try_read", "try_write"];
/// Condvar wait family: releases and re-acquires the waited guard.
const WAIT_METHODS: [&str; 4] = ["wait", "wait_for", "wait_while", "wait_timeout"];
/// Methods that always mean file/socket I/O regardless of arity.
const IO_METHODS: [&str; 14] = [
    "read_to_string",
    "read_to_end",
    "read_line",
    "read_exact",
    "write_all",
    "write_fmt",
    "flush",
    "sync_all",
    "sync_data",
    "accept",
    "connect",
    "set_len",
    "read_dir",
    "copy",
];
/// Guard-preserving adapters between an acquisition and its `let`
/// binding: `let g = m.lock().unwrap_or_else(|e| e.into_inner());` still
/// binds the guard to `g`.
const ADAPTERS: [&str; 5] = ["unwrap", "expect", "unwrap_or_else", "map_err", "map"];
/// Keywords that can precede `(` without being a call.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "match", "for", "loop", "return", "in", "as", "move", "else", "break", "ref",
];

struct Slot {
    name: Option<String>,
    lock: String,
    sites: Vec<u32>,
    blocking: bool,
    /// Brace depth the binding lives at: dropped when that depth closes.
    depth: usize,
    /// Statement temporary: additionally dropped at the next `;` at its
    /// depth.
    temp: bool,
}

/// Extract the event sequence of one function of `ws`.
pub fn function_events(ws: &WorkspaceIr, f: &FnIr, tokens: &[Token]) -> Vec<Event> {
    Walker {
        t: tokens,
        file: &ws.files[f.file],
        fields: &ws.fields,
        locals: f.locals.clone(),
        owner: f.owner.clone(),
        krate: f.krate.clone(),
        depth: 0,
        slots: Vec::new(),
        pending_let: None,
        events: Vec::new(),
    }
    .run(f.body.0, f.body.1.min(tokens.len()))
}

struct PendingLet {
    name: String,
    /// Bound inside a following block (`if let Some(g) = m.try_lock() {`).
    conditional: bool,
}

struct Walker<'a> {
    t: &'a [Token],
    file: &'a FileIr,
    fields: &'a BTreeMap<(String, String), String>,
    locals: BTreeMap<String, String>,
    owner: Option<String>,
    krate: String,
    depth: usize,
    slots: Vec<Slot>,
    pending_let: Option<PendingLet>,
    events: Vec<Event>,
}

impl<'a> Walker<'a> {
    fn held(&self) -> Vec<HeldGuard> {
        self.slots
            .iter()
            .map(|s| HeldGuard {
                lock: s.lock.clone(),
                sites: s.sites.clone(),
                blocking: s.blocking,
            })
            .collect()
    }

    fn run(mut self, start: usize, end: usize) -> Vec<Event> {
        let mut i = start.min(end);
        // Skip the opening `{` so depth 0 means "directly in the body".
        if self.t.get(i).is_some_and(|n| n.is_op("{")) {
            i += 1;
        }
        while i < end {
            let tok = &self.t[i];
            match tok.text.as_str() {
                "{" if tok.kind == TokenKind::Op => {
                    self.depth += 1;
                    i += 1;
                    continue;
                }
                "}" if tok.kind == TokenKind::Op => {
                    let d = self.depth;
                    self.slots.retain(|s| s.depth < d);
                    self.depth = d.saturating_sub(1);
                    i += 1;
                    continue;
                }
                ";" if tok.kind == TokenKind::Op => {
                    let d = self.depth;
                    self.slots.retain(|s| !(s.temp && s.depth == d));
                    self.pending_let = None;
                    i += 1;
                    continue;
                }
                _ => {}
            }
            if tok.is_ident("let") {
                i = self.parse_let(i);
                continue;
            }
            if tok.is_ident("drop")
                && self.t.get(i + 1).is_some_and(|n| n.is_op("("))
                && self
                    .t
                    .get(i + 2)
                    .is_some_and(|n| n.kind == TokenKind::Ident)
                && self.t.get(i + 3).is_some_and(|n| n.is_op(")"))
            {
                let name = &self.t[i + 2].text;
                if let Some(pos) = self
                    .slots
                    .iter()
                    .rposition(|s| s.name.as_deref() == Some(name))
                {
                    self.slots.remove(pos);
                    i += 4;
                    continue;
                }
            }
            // `.method(` dispatch.
            if tok.is_op(".")
                && self
                    .t
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Ident)
                && self.t.get(i + 2).is_some_and(|n| n.is_op("("))
            {
                i = self.parse_method(i);
                continue;
            }
            // Free or path call `ident(` (not a method, not a macro).
            if tok.kind == TokenKind::Ident
                && self.t.get(i + 1).is_some_and(|n| n.is_op("("))
                && !(i > 0 && (self.t[i - 1].is_op(".") || self.t[i - 1].is_op("!")))
                && !NON_CALL_KEYWORDS.contains(&tok.text.as_str())
            {
                i = self.parse_path_call(i);
                continue;
            }
            i += 1;
        }
        self.events
    }

    /// `let [mut] NAME [: Type] = …` / `[if|while] let Some(NAME) = …`.
    /// Registers the pending binding; the acquisition handler decides
    /// whether a guard binds to it. Returns the index to resume at.
    fn parse_let(&mut self, i: usize) -> usize {
        let conditional =
            i > 0 && (self.t[i - 1].is_ident("if") || self.t[i - 1].is_ident("while"));
        let mut j = i + 1;
        // `Some(NAME)` / `Ok(NAME)` patterns.
        if self
            .t
            .get(j)
            .is_some_and(|n| n.is_ident("Some") || n.is_ident("Ok"))
            && self.t.get(j + 1).is_some_and(|n| n.is_op("("))
        {
            j += 2;
            while self.t.get(j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = self.t.get(j).filter(|n| n.kind == TokenKind::Ident) {
                self.pending_let = Some(PendingLet {
                    name: name.text.clone(),
                    conditional,
                });
            }
            return j + 1;
        }
        while self.t.get(j).is_some_and(|n| n.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = self.t.get(j).filter(|n| n.kind == TokenKind::Ident) else {
            return i + 1;
        };
        let name = name.text.clone();
        // Type ascription feeds the local type hints.
        if self.t.get(j + 1).is_some_and(|n| n.is_op(":")) {
            let mut k = j + 2;
            let mut last_ty = None;
            while k < self.t.len() && !self.t[k].is_op("=") && !self.t[k].is_op(";") {
                if self.t[k].kind == TokenKind::Ident && self.t[k].text != "mut" {
                    last_ty = Some(self.t[k].text.clone());
                }
                k += 1;
            }
            if let Some(ty) = last_ty {
                self.locals.insert(name.clone(), ty);
            }
            self.pending_let = Some(PendingLet { name, conditional });
            return k;
        }
        // Constructor inference: `let x = Type::new(...)` (or any
        // `Type::assoc(...)` with an uppercase head) types the local.
        // Smart-pointer heads are skipped — `Arc::new(...)` says nothing
        // about what is inside.
        const WRAPPERS: &[&str] = &[
            "Arc", "Rc", "Box", "Some", "Ok", "Mutex", "RwLock", "RefCell",
        ];
        if self.t.get(j + 1).is_some_and(|n| n.is_op("=")) {
            if let Some(head) = self.t.get(j + 2).filter(|n| {
                n.kind == TokenKind::Ident
                    && n.text.chars().next().is_some_and(char::is_uppercase)
                    && !WRAPPERS.contains(&n.text.as_str())
            }) {
                if self.t.get(j + 3).is_some_and(|n| n.is_op("::")) {
                    self.locals.insert(name.clone(), head.text.clone());
                }
            }
        }
        self.pending_let = Some(PendingLet { name, conditional });
        j + 1
    }

    /// Handle `.m(` at the `.` in position `i`.
    fn parse_method(&mut self, i: usize) -> usize {
        let name = self.t[i + 1].text.as_str().to_string();
        let line = self.t[i + 1].line;
        let open = i + 2;
        let no_args = self.t.get(open + 1).is_some_and(|n| n.is_op(")"));
        let chain = receiver_chain(self.t, i);

        if (LOCK_METHODS.contains(&name.as_str()) && no_args && !chain.is_empty())
            || (TRY_METHODS.contains(&name.as_str()) && no_args && !chain.is_empty())
        {
            let blocking = LOCK_METHODS.contains(&name.as_str());
            let lock = self.lock_identity(&chain);
            self.events.push(Event {
                kind: EventKind::Acquire {
                    lock: lock.clone(),
                    line,
                    blocking,
                },
                held: self.held(),
            });
            // Named binding or statement temporary?
            let after = open + 2;
            match self.binding_target(after) {
                Binding::Named(conditional) => {
                    let pl = self.pending_let.take();
                    self.slots.push(Slot {
                        name: pl.map(|p| p.name),
                        lock,
                        sites: vec![line],
                        blocking,
                        depth: self.depth + usize::from(conditional),
                        temp: false,
                    });
                }
                Binding::Temp => {
                    self.slots.push(Slot {
                        name: None,
                        lock,
                        sites: vec![line],
                        blocking,
                        depth: self.depth,
                        temp: true,
                    });
                }
            }
            return after;
        }

        if WAIT_METHODS.contains(&name.as_str()) && !no_args {
            // Waiting on a live guard? The argument is `[&][mut] NAME`.
            let mut k = open + 1;
            while self
                .t
                .get(k)
                .is_some_and(|n| n.is_op("&") || n.is_ident("mut"))
            {
                k += 1;
            }
            if let Some(arg) = self.t.get(k).filter(|n| n.kind == TokenKind::Ident) {
                if let Some(pos) = self
                    .slots
                    .iter()
                    .rposition(|s| s.name.as_deref() == Some(arg.text.as_str()))
                {
                    let lock = self.slots[pos].lock.clone();
                    let held: Vec<HeldGuard> = self
                        .slots
                        .iter()
                        .enumerate()
                        .filter(|(idx, _)| *idx != pos)
                        .map(|(_, s)| HeldGuard {
                            lock: s.lock.clone(),
                            sites: s.sites.clone(),
                            blocking: s.blocking,
                        })
                        .collect();
                    self.events.push(Event {
                        kind: EventKind::Wait { lock, line },
                        held,
                    });
                    // The wake-up re-stamps the holder site at the wait.
                    if !self.slots[pos].sites.contains(&line) {
                        self.slots[pos].sites.push(line);
                    }
                    return open + 1;
                }
            }
        }

        // Blocking operations.
        let tail = chain.last().map(String::as_str).unwrap_or("");
        let blocked = if name == "join" && no_args {
            Some("thread join".to_string())
        } else if (name == "recv" || name == "recv_timeout") && self.file.bounded.contains(tail) {
            Some(format!("recv on bounded channel `{tail}`"))
        } else if name == "send" && !no_args && self.file.bounded.contains(tail) {
            Some(format!("send on bounded channel `{tail}`"))
        } else if name == "sleep" {
            Some("sleep".to_string())
        } else if IO_METHODS.contains(&name.as_str())
            || ((name == "read" || name == "write") && !no_args)
        {
            Some(format!("file/socket I/O (`.{name}(..)`)"))
        } else {
            None
        };
        if let Some(what) = blocked {
            self.events.push(Event {
                kind: EventKind::Block { what, line },
                held: self.held(),
            });
            return open + 1;
        }

        // Plain method call.
        self.events.push(Event {
            kind: EventKind::Call(CallRef {
                segments: vec![name],
                method: true,
                receiver_type: self.chain_type(&chain),
                receiver: chain,
                line,
            }),
            held: self.held(),
        });
        open + 1
    }

    /// Handle `ident(` at `i` for a free or `a::b::f(` path call.
    fn parse_path_call(&mut self, i: usize) -> usize {
        let line = self.t[i].line;
        // Walk back over `seg::` prefixes.
        let mut segments = vec![self.t[i].text.clone()];
        let mut k = i;
        while k >= 2 && self.t[k - 1].is_op("::") && self.t[k - 2].kind == TokenKind::Ident {
            segments.insert(0, self.t[k - 2].text.clone());
            k -= 2;
        }
        let name = segments.last().cloned().unwrap_or_default();

        // Blocking path calls.
        let first = segments.first().map(String::as_str).unwrap_or("");
        let io_roots = [
            "File",
            "OpenOptions",
            "TcpStream",
            "TcpListener",
            "UnixStream",
            "UnixListener",
        ];
        let blocked = if name == "sleep" {
            Some("sleep".to_string())
        } else if segments.iter().any(|s| s == "fs") {
            Some(format!("file I/O (`fs::{name}`)"))
        } else if segments.len() > 1 && io_roots.contains(&first) {
            Some(format!("file/socket I/O (`{}`)", segments.join("::")))
        } else {
            None
        };
        if let Some(what) = blocked {
            self.events.push(Event {
                kind: EventKind::Block { what, line },
                held: self.held(),
            });
            return i + 2;
        }

        // Tuple-struct / enum constructors, not calls.
        if segments.len() == 1 && name.chars().next().is_some_and(char::is_uppercase) {
            return i + 1;
        }

        self.events.push(Event {
            kind: EventKind::Call(CallRef {
                segments,
                method: false,
                receiver: Vec::new(),
                receiver_type: None,
                line,
            }),
            held: self.held(),
        });
        i + 2
    }

    /// Decide whether the acquisition whose call closes just before
    /// `after` binds to the pending `let` (possibly through adapters and
    /// closing delimiters) or is a statement temporary.
    fn binding_target(&mut self, mut after: usize) -> Binding {
        if self.pending_let.is_none() {
            return Binding::Temp;
        }
        let conditional = self.pending_let.as_ref().is_some_and(|p| p.conditional);
        let mut k = after;
        loop {
            match self.t.get(k) {
                Some(n) if n.is_op(")") || n.is_op("]") || n.is_op("?") => k += 1,
                Some(n)
                    if n.is_op(".")
                        && self
                            .t
                            .get(k + 1)
                            .is_some_and(|m| ADAPTERS.contains(&m.text.as_str()))
                        && self.t.get(k + 2).is_some_and(|m| m.is_op("(")) =>
                {
                    match skip_parens_from(self.t, k + 2) {
                        Some(close) => k = close + 1,
                        None => return Binding::Temp,
                    }
                }
                Some(n) if n.is_op(";") => {
                    after = k;
                    let _ = after;
                    return Binding::Named(false);
                }
                Some(n) if n.is_op("{") && conditional => return Binding::Named(true),
                _ => return Binding::Temp,
            }
        }
    }

    /// Best-effort type of a receiver chain: `self` is the impl owner, a
    /// bare name its local or parameter hint, and every later segment the
    /// declared type of that field. `None` as soon as a step is unknown.
    fn chain_type(&self, chain: &[String]) -> Option<String> {
        let (first, rest) = chain.split_first()?;
        let mut ty = if first == "self" {
            self.owner.clone()
        } else {
            self.locals.get(first).cloned()
        }?;
        for field in rest {
            ty = self.fields.get(&(ty, field.clone()))?.clone();
        }
        Some(ty)
    }

    /// Normalised lock identity from a receiver chain: strip `self`
    /// (substituting the impl owner), substitute known local types, and
    /// keep the last two segments, prefixed with the crate so unrelated
    /// same-named fields never merge across crates.
    fn lock_identity(&self, chain: &[String]) -> String {
        let mut segs: Vec<String> = Vec::new();
        let mut rest = chain;
        if let Some(firstseg) = chain.first() {
            if firstseg == "self" {
                if let Some(o) = &self.owner {
                    segs.push(o.clone());
                }
                rest = &chain[1..];
            } else if let Some(ty) = self.locals.get(firstseg) {
                segs.push(ty.clone());
                rest = &chain[1..];
            }
        }
        segs.extend(rest.iter().cloned());
        let tail = if segs.len() > 2 {
            segs[segs.len() - 2..].join(".")
        } else {
            segs.join(".")
        };
        format!("{}:{}", self.krate, tail)
    }
}

enum Binding {
    /// Bind to the pending let; `true` = inside the conditional block.
    Named(bool),
    Temp,
}

/// Walk backwards from the `.` at `dot` and collect the receiver chain in
/// source order: `self.core.sessions.lock()` → `[self, core, sessions]`.
/// Call results in the chain keep their callee name (`stdout().lock()` →
/// `[stdout]`).
fn receiver_chain(t: &[Token], dot: usize) -> Vec<String> {
    let mut rev = Vec::new();
    let mut k = dot as isize - 1;
    loop {
        if k < 0 {
            break;
        }
        let tok = &t[k as usize];
        if tok.is_op(")") || tok.is_op("]") {
            // Skip back over the balanced group to the ident before it.
            let open = if tok.is_op(")") { "(" } else { "[" };
            let close = tok.text.clone();
            let mut depth = 0i32;
            while k >= 0 {
                let u = &t[k as usize];
                if u.is_op(&close) {
                    depth += 1;
                } else if u.is_op(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            k -= 1;
            if k >= 0 && t[k as usize].kind == TokenKind::Ident {
                rev.push(t[k as usize].text.clone());
                k -= 1;
            } else {
                break;
            }
        } else if tok.kind == TokenKind::Ident {
            rev.push(tok.text.clone());
            k -= 1;
        } else if tok.is_op("?") {
            k -= 1;
            continue;
        } else {
            break;
        }
        if k >= 0 && t[k as usize].is_op(".") {
            k -= 1;
        } else {
            break;
        }
    }
    rev.reverse();
    rev
}

fn skip_parens_from(t: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = open;
    while k < t.len() {
        if t[k].is_op("(") {
            depth += 1;
        } else if t[k].is_op(")") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        k += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{self, SourceUnit};
    use crate::rules::FileContext;
    use crate::scanner;

    fn events_of(src: &str) -> Vec<Event> {
        let units = vec![SourceUnit {
            ctx: FileContext::from_rel_path(std::path::Path::new("crates/exec/src/mux.rs")),
            scanned: scanner::scan(src),
        }];
        let ws = ir::build(&units);
        let f = ws.fns.first().expect("one fn");
        function_events(&ws, f, &units[f.file].scanned.tokens)
    }

    #[test]
    fn let_bound_guard_is_live_until_scope_end() {
        let src = r#"
            impl Mux {
                fn f(&self) {
                    let g = self.state.lock();
                    std::thread::sleep(d);
                }
            }
        "#;
        let ev = events_of(src);
        let block = ev
            .iter()
            .find(|e| matches!(e.kind, EventKind::Block { .. }))
            .expect("sleep event");
        assert_eq!(block.held.len(), 1);
        assert_eq!(block.held[0].lock, "exec:Mux.state");
    }

    #[test]
    fn drop_closes_the_region() {
        let src = r#"
            fn f(m: &Mutex<u64>) {
                let g = m.lock();
                drop(g);
                std::thread::sleep(d);
            }
        "#;
        let ev = events_of(src);
        let block = ev
            .iter()
            .find(|e| matches!(e.kind, EventKind::Block { .. }))
            .expect("sleep event");
        assert!(block.held.is_empty(), "{block:?}");
    }

    #[test]
    fn inner_block_guard_dies_with_its_block() {
        let src = r#"
            fn f(m: &Mutex<u64>) {
                let v = { let g = m.lock(); 1 };
                std::thread::sleep(d);
            }
        "#;
        let ev = events_of(src);
        let block = ev
            .iter()
            .find(|e| matches!(e.kind, EventKind::Block { .. }))
            .expect("sleep event");
        assert!(block.held.is_empty(), "{block:?}");
    }

    #[test]
    fn try_lock_is_not_blocking_and_binds_conditionally() {
        let src = r#"
            impl P {
                fn f(&self) {
                    if let Some(g) = self.a.try_lock() {
                        std::thread::sleep(d);
                    }
                }
            }
        "#;
        let ev = events_of(src);
        let acq = ev
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Acquire { blocking, .. } => Some(*blocking),
                _ => None,
            })
            .expect("acquire event");
        assert!(!acq, "try_lock is non-blocking");
        let block = ev
            .iter()
            .find(|e| matches!(e.kind, EventKind::Block { .. }))
            .expect("sleep event");
        assert_eq!(block.held.len(), 1, "guard live inside the if-let block");
    }

    #[test]
    fn condvar_wait_releases_its_own_guard_and_restamps_the_site() {
        let src = r#"
            impl S {
                fn f(&self) {
                    let mut state = self.state.lock();
                    self.done.wait(&mut state);
                    let g2 = self.other.lock();
                }
            }
        "#;
        let ev = events_of(src);
        let wait = ev
            .iter()
            .find(|e| matches!(e.kind, EventKind::Wait { .. }))
            .expect("wait event");
        assert!(wait.held.is_empty(), "own guard excluded: {wait:?}");
        // The later acquisition sees the guard with both sites.
        let acq = ev
            .iter()
            .rfind(|e| matches!(e.kind, EventKind::Acquire { .. }))
            .expect("second acquire");
        assert_eq!(acq.held.len(), 1);
        assert_eq!(acq.held[0].sites.len(), 2, "{acq:?}");
    }

    #[test]
    fn guard_through_adapter_chain_still_binds() {
        let src = r#"
            fn f(m: &StdMutex<u64>) {
                let g = m.lock().unwrap_or_else(|e| e.into_inner());
                std::thread::sleep(d);
            }
        "#;
        let ev = events_of(src);
        let block = ev
            .iter()
            .find(|e| matches!(e.kind, EventKind::Block { .. }))
            .expect("sleep event");
        assert_eq!(block.held.len(), 1, "{block:?}");
    }

    #[test]
    fn statement_temporary_dies_at_the_semicolon() {
        let src = r#"
            fn f(m: &Mutex<Vec<u64>>) {
                let n = m.lock().len();
                std::thread::sleep(d);
            }
        "#;
        let ev = events_of(src);
        let block = ev
            .iter()
            .find(|e| matches!(e.kind, EventKind::Block { .. }))
            .expect("sleep event");
        assert!(block.held.is_empty(), "{block:?}");
    }

    #[test]
    fn for_over_temporary_guard_is_held_through_the_body() {
        let src = r#"
            impl S {
                fn f(&self) {
                    for c in self.conns.lock().iter() {
                        c.sock.write_all(b"x");
                    }
                }
            }
        "#;
        let ev = events_of(src);
        let block = ev
            .iter()
            .find(|e| matches!(e.kind, EventKind::Block { .. }))
            .expect("write_all event");
        assert_eq!(block.held.len(), 1, "{block:?}");
    }

    #[test]
    fn bounded_send_blocks_unbounded_does_not() {
        let src = r#"
            fn f() {
                let (tx, rx) = bounded(4);
                let (utx, urx) = unbounded();
                let g = m.lock();
                tx.send(1);
                utx.send(2);
                rx.recv();
            }
        "#;
        let ev = events_of(src);
        let blocks: Vec<&str> = ev
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Block { what, .. } => Some(what.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(blocks.len(), 2, "{blocks:?}");
        assert!(blocks[0].contains("send on bounded"));
        assert!(blocks[1].contains("recv on bounded"));
    }
}
