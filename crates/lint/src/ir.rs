//! Syntactic IR over the token scanner: function items with their impl
//! owners and module paths, struct field type hints, plus per-file facts
//! the concurrency passes need (test masks, bounded-channel binding
//! names).
//!
//! This is deliberately *syntactic*: no type checking, no trait solving.
//! Function identity is a qualified path (`crate::module::Type::name`)
//! reconstructed from `mod`/`impl`/`trait` nesting, which is exactly what
//! the call-graph resolver ([`crate::callgraph`]) matches call paths
//! against. The approximations mirror the existing rules: false negatives
//! are possible, false positives are rare and suppressible.

use crate::regions;
use crate::rules::FileContext;
use crate::scanner::{ScannedFile, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// One scanned source file plus its lint context, the unit the
/// concurrency passes consume (the token rules consume it too, so the
/// workspace is read and scanned exactly once).
pub struct SourceUnit {
    pub ctx: FileContext,
    pub scanned: ScannedFile,
}

/// Per-file facts shared by every function in the file.
pub struct FileIr {
    pub path: PathBuf,
    /// Crate directory name (`exec`, `server`, …); `tests` for the
    /// workspace-level `tests/` tree.
    pub krate: String,
    /// Whole-file test code (under a `tests/` directory).
    pub test_file: bool,
    /// Per-token `#[cfg(test)]`/`#[test]` region mask.
    pub test_mask: Vec<bool>,
    /// Names destructured from `let (tx, rx) = bounded(..)`: sends and
    /// receives through these can block on capacity.
    pub bounded: BTreeSet<String>,
}

/// One function item.
pub struct FnIr {
    /// Index into [`WorkspaceIr::files`].
    pub file: usize,
    /// Fully qualified path: `crate::module::Type::name`.
    pub qual: String,
    pub name: String,
    /// Enclosing `impl`/`trait` type, if any.
    pub owner: Option<String>,
    pub krate: String,
    /// Module segments between the crate and the item (file-derived plus
    /// inline `mod` nesting).
    pub module: Vec<String>,
    pub line: u32,
    /// Function lives in test code (test file or `#[cfg(test)]` region).
    pub is_test: bool,
    /// Token range of the body: `tokens[body.0]` is the opening `{`,
    /// `tokens[body.1]` the matching `}` (or one past the end on EOF).
    pub body: (usize, usize),
    /// Parameter type hints: binding name → last identifier of its
    /// declared type (`session: &Arc<Session>` → `Session`).
    pub locals: BTreeMap<String, String>,
}

/// The whole workspace, ready for the call-graph and lock-graph passes.
pub struct WorkspaceIr {
    pub files: Vec<FileIr>,
    pub fns: Vec<FnIr>,
    /// Field type hints: `(struct, field)` → last identifier of the
    /// field's declared type (`writer: Arc<ConnWriter>` → `ConnWriter`),
    /// so a receiver such as `self.writer` types its method calls. A field
    /// declared with different types by same-named structs has no hint.
    pub fields: BTreeMap<(String, String), String>,
}

/// Build the IR for every function in every unit.
pub fn build(units: &[SourceUnit]) -> WorkspaceIr {
    let mut ir = WorkspaceIr {
        files: Vec::new(),
        fns: Vec::new(),
        fields: BTreeMap::new(),
    };
    let mut ambiguous = BTreeSet::new();
    for (file_idx, unit) in units.iter().enumerate() {
        let tokens = &unit.scanned.tokens;
        let krate = unit
            .ctx
            .crate_name
            .clone()
            .unwrap_or_else(|| "tests".to_string());
        let file_mods = file_modules(&unit.ctx.path);
        let test_mask = regions::test_region_mask(tokens);
        ir.files.push(FileIr {
            path: unit.ctx.path.clone(),
            krate: krate.clone(),
            test_file: unit.ctx.test_file,
            test_mask: test_mask.clone(),
            bounded: bounded_names(tokens),
        });
        for (key, ty) in struct_fields(tokens) {
            if ir.fields.get(&key).is_some_and(|known| *known != ty) {
                ambiguous.insert(key.clone());
            }
            ir.fields.insert(key, ty);
        }
        extract_fns(
            tokens,
            &test_mask,
            unit.ctx.test_file,
            file_idx,
            &krate,
            &file_mods,
            &mut ir.fns,
        );
    }
    for key in &ambiguous {
        ir.fields.remove(key);
    }
    ir
}

/// Module segments implied by the file's path under its crate:
/// `crates/exec/src/mux.rs` → `[mux]`, `crates/core/src/offline/mod.rs`
/// → `[offline]`, `lib.rs`/`main.rs` → `[]`, `tests/foo.rs` → `[foo]`.
fn file_modules(rel: &std::path::Path) -> Vec<String> {
    let comps: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let mut mods: Vec<String> = comps
        .iter()
        .skip(if comps.first().map(String::as_str) == Some("crates") {
            2
        } else {
            1
        })
        .filter(|c| *c != "src" && *c != "tests")
        .cloned()
        .collect();
    if let Some(last) = mods.pop() {
        let stem = last.trim_end_matches(".rs");
        if stem != "lib" && stem != "main" && stem != "mod" {
            mods.push(stem.to_string());
        }
    }
    mods
}

/// Names bound by `let (a, b) = [path::]bounded(..)`.
fn bounded_names(t: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..t.len() {
        if !(t[i].is_ident("let")
            && t.get(i + 1).is_some_and(|n| n.is_op("("))
            && t.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident)
            && t.get(i + 3).is_some_and(|n| n.is_op(","))
            && t.get(i + 4).is_some_and(|n| n.kind == TokenKind::Ident)
            && t.get(i + 5).is_some_and(|n| n.is_op(")"))
            && t.get(i + 6).is_some_and(|n| n.is_op("=")))
        {
            continue;
        }
        // Initialiser is a (possibly qualified) `bounded(..)` call.
        let is_bounded = (i + 7..(i + 12).min(t.len()))
            .any(|j| t[j].is_ident("bounded") && t.get(j + 1).is_some_and(|n| n.is_op("(")));
        if is_bounded {
            names.insert(t[i + 2].text.clone());
            names.insert(t[i + 4].text.clone());
        }
    }
    names
}

/// `(struct, field) → type hint` for every named-field struct in a file:
/// `struct Name [<..>] { [#[..]] [pub[(..)]] field: Type, … }`.
fn struct_fields(t: &[Token]) -> Vec<((String, String), String)> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        if !(t[i].is_ident("struct") && t.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident)) {
            continue;
        }
        let mut open = i + 2;
        if t.get(open).is_some_and(|n| n.is_op("<")) {
            let Some(after) = skip_angles(t, open) else {
                continue;
            };
            open = after;
        }
        // Tuple and unit structs have no named fields.
        if !t.get(open).is_some_and(|n| n.is_op("{")) {
            continue;
        }
        let Some(close) = skip_group(t, open, "{", "}") else {
            continue;
        };
        let name = &t[i + 1].text;
        for (field, ty) in param_types(&t[open + 1..close]) {
            out.push(((name.clone(), field), ty));
        }
    }
    out
}

/// What a `{`/`}` pair on the item-structure walk belongs to.
enum Frame {
    Plain,
    Mod,
    /// Restores the previous impl/trait owner on close.
    Impl(Option<String>),
    /// Closes the body of `fns[idx]`.
    Fn(usize),
}

fn extract_fns(
    t: &[Token],
    mask: &[bool],
    test_file: bool,
    file_idx: usize,
    krate: &str,
    file_mods: &[String],
    out: &mut Vec<FnIr>,
) {
    let mut frames: Vec<Frame> = Vec::new();
    let mut mods: Vec<String> = file_mods.to_vec();
    let mut owner: Option<String> = None;
    let mut i = 0;
    while i < t.len() {
        let tok = &t[i];
        if tok.is_ident("mod")
            && t.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident)
            && t.get(i + 2).is_some_and(|n| n.is_op("{"))
        {
            mods.push(t[i + 1].text.clone());
            frames.push(Frame::Mod);
            i += 3;
            continue;
        }
        if tok.is_ident("impl") || tok.is_ident("trait") {
            if let Some((name, brace)) = impl_header(t, i) {
                frames.push(Frame::Impl(owner.take()));
                owner = Some(name);
                i = brace + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if tok.is_ident("fn") && t.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) {
            let name = t[i + 1].text.clone();
            let line = t[i + 1].line;
            if let Some((locals, after_sig)) = fn_signature(t, i + 2) {
                match after_sig {
                    SigEnd::Body(brace) => {
                        let mut qual = vec![krate.to_string()];
                        qual.extend(mods.iter().cloned());
                        if let Some(o) = &owner {
                            qual.push(o.clone());
                        }
                        qual.push(name.clone());
                        let idx = out.len();
                        out.push(FnIr {
                            file: file_idx,
                            qual: qual.join("::"),
                            name,
                            owner: owner.clone(),
                            krate: krate.to_string(),
                            module: mods.clone(),
                            line,
                            is_test: test_file || mask.get(i + 1).copied().unwrap_or(false),
                            body: (brace, t.len()),
                            locals,
                        });
                        frames.push(Frame::Fn(idx));
                        i = brace + 1;
                        continue;
                    }
                    SigEnd::Decl(end) => {
                        i = end + 1;
                        continue;
                    }
                }
            }
            i += 2;
            continue;
        }
        if tok.is_op("{") {
            frames.push(Frame::Plain);
        } else if tok.is_op("}") {
            match frames.pop() {
                Some(Frame::Mod) => {
                    mods.pop();
                }
                Some(Frame::Impl(prev)) => owner = prev,
                Some(Frame::Fn(idx)) => out[idx].body.1 = i,
                _ => {}
            }
        }
        i += 1;
    }
}

/// Parse an `impl`/`trait` header starting at index `i` (the keyword):
/// returns the subject type's last path segment and the index of the
/// opening `{`. `impl<T> Foo<T> {` → `Foo`; `impl fmt::Display for Bar {`
/// → `Bar`.
fn impl_header(t: &[Token], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    if t.get(j).is_some_and(|n| n.is_op("<")) {
        j = skip_angles(t, j)?;
    }
    let (first, mut j) = read_type_path(t, j)?;
    let mut name = first;
    // Trait supertraits / where clauses may intervene; scan to `for`, `{`
    // or `;` at bracket depth zero.
    let mut depth = 0i32;
    while j < t.len() {
        let tok = &t[j];
        if depth == 0 {
            if tok.is_ident("for") {
                let (n, nj) = read_type_path(t, j + 1)?;
                name = n;
                j = nj;
                continue;
            }
            if tok.is_op("{") {
                return Some((name, j));
            }
            if tok.is_op(";") {
                return None;
            }
        }
        match tok.text.as_str() {
            "(" | "[" | "<" if tok.kind == TokenKind::Op => depth += 1,
            ")" | "]" | ">" if tok.kind == TokenKind::Op => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Read a type path (`a::b::C<T>`), returning its last identifier segment
/// and the index after it. Skips `&`, `mut`, `dyn` prefixes and trailing
/// generic arguments.
fn read_type_path(t: &[Token], mut j: usize) -> Option<(String, usize)> {
    while t
        .get(j)
        .is_some_and(|n| n.is_op("&") || n.is_ident("mut") || n.is_ident("dyn"))
        || t.get(j).is_some_and(|n| n.kind == TokenKind::Lifetime)
    {
        j += 1;
    }
    let mut last = None;
    loop {
        match t.get(j) {
            Some(n) if n.kind == TokenKind::Ident => {
                last = Some(n.text.clone());
                j += 1;
            }
            _ => break,
        }
        if t.get(j).is_some_and(|n| n.is_op("<")) {
            j = skip_angles(t, j)?;
        }
        if t.get(j).is_some_and(|n| n.is_op("::")) {
            j += 1;
        } else {
            break;
        }
    }
    last.map(|l| (l, j))
}

/// Skip a balanced `<...>` group starting at the `<` at `j`; returns the
/// index after the closing `>`.
fn skip_angles(t: &[Token], j: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = j;
    while k < t.len() {
        if t[k].is_op("<") {
            depth += 1;
        } else if t[k].is_op(">") {
            depth -= 1;
            if depth == 0 {
                return Some(k + 1);
            }
        }
        k += 1;
    }
    None
}

enum SigEnd {
    /// Index of the body's opening `{`.
    Body(usize),
    /// Index of the terminating `;` (trait method declaration).
    Decl(usize),
}

/// Parse a function signature starting at `j` (just after the name):
/// optional generics, the parameter list (harvesting type hints), then
/// scan to the body `{` or declaration `;`.
fn fn_signature(t: &[Token], mut j: usize) -> Option<(BTreeMap<String, String>, SigEnd)> {
    if t.get(j).is_some_and(|n| n.is_op("<")) {
        j = skip_angles(t, j)?;
    }
    if !t.get(j).is_some_and(|n| n.is_op("(")) {
        return None;
    }
    let close = skip_group(t, j, "(", ")")?;
    let locals = param_types(&t[j + 1..close]);
    // Return type / where clause: no braces occur before the body's `{`.
    let mut k = close + 1;
    let mut depth = 0i32;
    while k < t.len() {
        let tok = &t[k];
        if depth == 0 {
            if tok.is_op("{") {
                return Some((locals, SigEnd::Body(k)));
            }
            if tok.is_op(";") {
                return Some((locals, SigEnd::Decl(k)));
            }
        }
        match tok.text.as_str() {
            "(" | "[" | "<" if tok.kind == TokenKind::Op => depth += 1,
            ")" | "]" | ">" if tok.kind == TokenKind::Op => depth -= 1,
            _ => {}
        }
        k += 1;
    }
    None
}

/// Index of the `close` matching the `open` at `j`.
fn skip_group(t: &[Token], j: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = j;
    while k < t.len() {
        if t[k].is_op(open) {
            depth += 1;
        } else if t[k].is_op(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        k += 1;
    }
    None
}

/// `name: Type` hints from a parameter list or a struct body: the hint is
/// the last identifier of the type (`&Arc<Session>` → `Session`), good
/// enough to key method resolution and lock identity.
fn param_types(params: &[Token]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut depth = 0i32;
    let mut start = 0;
    let param_of = |seg: &[Token], out: &mut BTreeMap<String, String>| {
        // `[mut] name: Type…`, or a field's `[#[..]] [pub[(..)]] name: Type…`
        let Some(colon) = seg.iter().position(|n| n.is_op(":")) else {
            return;
        };
        let Some(name) = colon
            .checked_sub(1)
            .map(|k| &seg[k])
            .filter(|n| n.kind == TokenKind::Ident && n.text != "self")
        else {
            return;
        };
        let ty = seg[colon + 1..]
            .iter()
            .rfind(|n| n.kind == TokenKind::Ident && n.text != "mut" && n.text != "dyn");
        if let Some(ty) = ty {
            out.insert(name.text.clone(), ty.text.clone());
        }
    };
    for (k, tok) in params.iter().enumerate() {
        match tok.text.as_str() {
            "(" | "[" | "<" if tok.kind == TokenKind::Op => depth += 1,
            ")" | "]" | ">" if tok.kind == TokenKind::Op => depth -= 1,
            "," if tok.kind == TokenKind::Op && depth == 0 => {
                param_of(&params[start..k], &mut out);
                start = k + 1;
            }
            _ => {}
        }
    }
    param_of(&params[start..], &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner;

    fn unit(path: &str, src: &str) -> SourceUnit {
        SourceUnit {
            ctx: FileContext::from_rel_path(std::path::Path::new(path)),
            scanned: scanner::scan(src),
        }
    }

    #[test]
    fn functions_get_qualified_names() {
        let src = r#"
            pub fn free() {}
            mod inner {
                impl Widget {
                    fn method(&self) {}
                }
                impl fmt::Display for Gadget {
                    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
                }
            }
        "#;
        let units = vec![unit("crates/exec/src/mux.rs", src)];
        let ir = build(&units);
        let quals: Vec<&str> = ir.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            vec![
                "exec::mux::free",
                "exec::mux::inner::Widget::method",
                "exec::mux::inner::Gadget::fmt",
            ]
        );
    }

    #[test]
    fn bodies_and_param_hints_are_tracked() {
        let src = "fn take(session: &Arc<Session>, n: usize) { let x = 1; }";
        let units = vec![unit("crates/exec/src/lib.rs", src)];
        let ir = build(&units);
        assert_eq!(ir.fns.len(), 1);
        let f = &ir.fns[0];
        assert_eq!(f.locals.get("session").map(String::as_str), Some("Session"));
        assert_eq!(f.locals.get("n").map(String::as_str), Some("usize"));
        let t = &units[f.file].scanned.tokens;
        assert!(t[f.body.0].is_op("{"));
        assert!(t[f.body.1].is_op("}"));
    }

    #[test]
    fn trait_declarations_without_bodies_are_skipped() {
        let src = "trait Sink { fn push(&mut self, v: u64); fn done(&self) -> bool { true } }";
        let units = vec![unit("crates/storage/src/sink.rs", src)];
        let ir = build(&units);
        let names: Vec<&str> = ir.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["done"]);
        assert_eq!(ir.fns[0].owner.as_deref(), Some("Sink"));
    }

    #[test]
    fn struct_fields_carry_type_hints() {
        let src = r#"
            pub(crate) struct Pending<T> {
                /// Where the answer goes.
                #[allow(dead_code)]
                pub(crate) writer: Arc<ConnWriter>,
                id: Option<u64>,
                pub tx: Sender<T>,
            }
            struct Tuple(Arc<Other>);
            struct Twice { x: A }
            mod other { struct Twice { x: B } }
        "#;
        let units = vec![unit("crates/server/src/server.rs", src)];
        let ir = build(&units);
        let hint = |s: &str, f: &str| {
            ir.fields
                .get(&(s.to_string(), f.to_string()))
                .map(String::as_str)
        };
        assert_eq!(hint("Pending", "writer"), Some("ConnWriter"));
        assert_eq!(hint("Pending", "id"), Some("u64"));
        assert_eq!(hint("Pending", "tx"), Some("T"));
        assert_eq!(
            ir.fields.len(),
            3,
            "tuple fields and ambiguous names carry no hint"
        );
    }

    #[test]
    fn bounded_channel_names_are_collected() {
        let src =
            "fn f() { let (tx, rx) = crossbeam::channel::bounded(4); let (a, b) = unbounded(); }";
        let units = vec![unit("crates/exec/src/mux.rs", src)];
        let ir = build(&units);
        assert!(ir.files[0].bounded.contains("tx"));
        assert!(ir.files[0].bounded.contains("rx"));
        assert!(!ir.files[0].bounded.contains("a"));
    }

    #[test]
    fn test_regions_mark_functions() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests { fn helper() {} }";
        let units = vec![unit("crates/exec/src/mux.rs", src)];
        let ir = build(&units);
        assert!(!ir.fns[0].is_test);
        assert!(ir.fns[1].is_test);
    }
}
