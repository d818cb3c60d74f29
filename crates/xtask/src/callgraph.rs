//! Workspace-wide call graph from token streams.
//!
//! cocolint v2's interprocedural rules (transitive panic-reachability,
//! hot-path allocation freedom) need to know *who calls whom* across
//! crate boundaries. This module builds that graph from
//! [`crate::lexer`] token streams: no `syn`, no `rustc` — the offline
//! build takes no dependencies. Each `src/` file is read and tokenized
//! once, here; the per-file rules run on the same [`ParsedFile`]
//! tokens.
//!
//! Every rule that follows calls is one [`CallGraph::walk`] — roots
//! plus a per-edge predicate — and renders its findings' call chains
//! with [`Walk::chain`]. Every `lint.toml` list of fn names
//! (`[hot] extra`, `[taint] sources`, `[durability] funnels`) matches
//! with [`suffix_matches`] through [`CallGraph::named`], which also
//! rejects an entry that names no fn.
//!
//! ## What is extracted
//!
//! - **Fn items**: every `fn name` in the `src/` tree of every
//!   workspace crate, with its module path (from the file path plus
//!   inline `mod name { ... }` nesting), its enclosing `impl`/`trait`
//!   type if any, its visibility (`pub` without a `pub(...)`
//!   restriction), whether it sits inside `#[cfg(test)]`, and whether a
//!   `// LINT: hot` marker comment sits just above it.
//! - **Call sites**: inside each fn body, `name(...)` (bare),
//!   `path::to::name(...)` (qualified) and `.name(...)` (method) call
//!   expressions, with the source line of each.
//! - **Annotations**: `// LINT: bounded(reason)` lines (per-site
//!   exemptions for the indexing/division panic sources),
//!   `// LINT: cold(reason)` blocks (allocation-permitted branches on
//!   otherwise hot paths), and `// LINT: relaxed(reason)` /
//!   `// LINT: seqcst(reason)` lines (justified atomic orderings for
//!   the atomics pass; see [`crate::atomics`]).
//!
//! ## Resolution policy (and its soundness caveats)
//!
//! Token-level resolution cannot see `use` imports, generics, or trait
//! dispatch, so it over- and under-approximates deliberately:
//!
//! - **Qualified calls** (`snapshot::decode(...)`) resolve to every
//!   workspace fn whose qualified path ends with the written segments,
//!   restricted to the caller's crate and its direct dependencies.
//!   `self::`/`Self::`/`crate::`/`super::` prefixes are stripped.
//! - **Bare calls** resolve by name — same file first, then same
//!   crate, then dependency crates (a call cannot lexically reach a
//!   crate the caller does not depend on).
//! - **Method calls** (`.update(...)`) resolve to every impl/trait fn
//!   of that name in the caller's crate or its *transitive*
//!   dependencies (generic receivers are typically instantiated with
//!   types the caller can name, e.g. `S: MergeSketch` in `engine`
//!   dispatching to `cocosketch` impls one dependency hop down). The
//!   cost is spurious edges between same-named methods of unrelated
//!   types; the dataflow rules only consume reachability, so spurious
//!   edges can only over-report. Exception: `self.name(...)` from
//!   inside an impl block whose type defines `name` resolves to that
//!   type's fns only — bare-`self` dispatch cannot leave the type
//!   (trait *default* methods keep the broad resolution; their `self`
//!   is any implementor). The deliberate under-approximation:
//!   a trait impl living in a crate that *depends on* the caller's
//!   crate is invisible to this resolution — its fns are still
//!   analyzed from their own crate's entry points.
//!
//! Calls that resolve to no workspace fn are kept in the graph as
//! unresolved sites — the hot-path rule treats an unresolved
//! `.push(...)`/`.collect(...)` as a std allocation.

use crate::lexer::{ident, is_punct, next_code, prev_code, TokKind, Token};
use crate::rules::in_spans;
use crate::workspace::CrateInfo;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// One extracted function item.
#[derive(Debug)]
pub struct FnItem {
    /// Index into [`CallGraph::files`].
    pub file: usize,
    /// Package name of the owning crate.
    pub crate_name: String,
    /// Fully qualified path, `crate::module::Type::name` rendered with
    /// `::` separators (crate name with `-` mapped to `_`).
    pub qualified: String,
    /// Bare fn name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body, including both braces
    /// (`toks[body.0] == '{'`). Empty range for bodyless trait decls.
    pub body: (usize, usize),
    /// `pub` without a `pub(...)` restriction.
    pub is_pub: bool,
    /// Defined directly inside an `impl` or `trait` block (callable
    /// with method syntax).
    pub in_impl: bool,
    /// Subject type name when defined inside an `impl` block (`None`
    /// for free fns and trait declarations — trait default methods
    /// dispatch to arbitrary impls, so they get no type anchor).
    pub type_ctx: Option<String>,
    /// Carries a `// LINT: hot` marker comment.
    pub is_hot: bool,
    /// Sits inside a `#[cfg(test)]` span (exempt from all rules).
    pub in_test: bool,
}

/// One call expression inside some fn body.
#[derive(Debug)]
pub struct CallSite {
    /// Index of the calling fn in [`CallGraph::fns`].
    pub caller: usize,
    /// 1-based source line of the call.
    pub line: u32,
    /// Called name (last path segment / method name).
    pub name: String,
    /// Path segments written before the name (empty for bare/method
    /// calls), `self`/`Self`/`crate`/`super` stripped.
    pub path: Vec<String>,
    /// True for `.name(...)` method syntax.
    pub is_method: bool,
    /// True for `self.name(...)`: the receiver is the bare `self`
    /// token, so dispatch cannot leave the caller's own type.
    pub self_recv: bool,
    /// Workspace fns this call may target (empty: std or external).
    pub resolved: Vec<usize>,
}

/// One `// LINT: relaxed(reason)` / `// LINT: seqcst(reason)` atomic
/// ordering annotation, kept with its own position so the atomics pass
/// can detect markers that justify nothing (annotation rot).
#[derive(Debug)]
pub struct OrderingMarker {
    /// The comment's own 1-based line.
    pub line: u32,
    /// Source lines the marker covers: its own line, plus the next
    /// line when the comment stands alone (same rule as `bounded`).
    pub covers: Vec<u32>,
}

/// One parsed source file with its annotations.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Owning crate package name.
    pub crate_name: String,
    /// Token stream.
    pub toks: Vec<Token>,
    /// `#[cfg(test)]` line spans.
    pub test_spans: Vec<(u32, u32)>,
    /// Lines covered by a `// LINT: bounded(reason)` annotation (the
    /// comment's own line and the line after a standalone comment).
    pub bounded_lines: Vec<u32>,
    /// Line spans of `// LINT: cold(reason)` blocks.
    pub cold_spans: Vec<(u32, u32)>,
    /// `// LINT: relaxed(reason)` annotations (justified `Relaxed`
    /// stores, consumed by the atomics pass).
    pub relaxed_markers: Vec<OrderingMarker>,
    /// `// LINT: seqcst(reason)` annotations (justified `SeqCst`
    /// accesses, consumed by the atomics pass).
    pub seqcst_markers: Vec<OrderingMarker>,
    /// `// LINT: lossy(reason)` annotations (justified dropped
    /// `io::Result`s, consumed by the durability pass).
    pub lossy_markers: Vec<OrderingMarker>,
    /// `LINT:` markers that failed to parse (missing reason/brace),
    /// as (line, message) — surfaced as findings, never ignored.
    pub marker_errors: Vec<(u32, String)>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every parsed `src/` file.
    pub files: Vec<ParsedFile>,
    /// Every extracted fn item.
    pub fns: Vec<FnItem>,
    /// Every call site, in fn order.
    pub calls: Vec<CallSite>,
    /// Forward adjacency: `edges[f]` = indices into [`Self::calls`]
    /// made from fn `f`.
    pub edges: Vec<Vec<usize>>,
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "else", "let", "ref",
    "mut", "box", "await", "yield", "do", "const", "unsafe", "fn", "use", "where", "impl", "dyn",
    "break", "continue",
];

/// True for identifiers that are expression-position keywords (shared
/// with the dataflow rules, which must not mistake `if [attr]`-style
/// token runs for indexing).
pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Build the graph over each crate's `src/` files (`src_files[i]`
/// belongs to `crates[i]`, paths relative to `root`): every file is
/// read and tokenized here, once, and the per-file rules reuse its
/// [`ParsedFile`] tokens.
pub fn build(
    root: &Path,
    crates: &[CrateInfo],
    src_files: &[Vec<PathBuf>],
) -> Result<CallGraph, String> {
    let mut graph = CallGraph::default();
    for (krate, files) in crates.iter().zip(src_files) {
        for rel in files {
            let text = crate::workspace::read_source(root, rel)?;
            parse_file(
                &mut graph,
                &krate.name,
                &crate::workspace::display_path(rel),
                &text,
            );
        }
    }
    resolve(&mut graph, crates);
    Ok(graph)
}

/// Suffix match on a `::` segment boundary, or the whole qualified
/// name: `"EpochDir::append"` and `"cocosketch::segment::EpochDir::append"`
/// both match `cocosketch::segment::EpochDir::append`, but
/// `"Dir::append"` does not, nor does anything match `...::reappend`.
/// The one rule for every `lint.toml` list of fn names (`[hot] extra`,
/// `[taint] sources`, `[durability] funnels`).
pub fn suffix_matches(qualified: &str, suffix: &str) -> bool {
    qualified == suffix
        || (qualified.ends_with(suffix)
            && qualified[..qualified.len() - suffix.len()].ends_with("::"))
}

/// What [`CallGraph::walk`] visited, and how it first got there.
#[derive(Debug)]
pub struct Walk {
    /// `parent[f]`: the fn whose call first reached `f`; `None` for
    /// the roots and for fns the walk never reached.
    parent: Vec<Option<usize>>,
    /// Every visited fn in visit order, roots first.
    pub order: Vec<usize>,
    seen: Vec<bool>,
}

impl Walk {
    /// True when the walk visited fn `f`, as a root or through an edge.
    pub fn reached(&self, f: usize) -> bool {
        self.seen[f]
    }

    /// The path that first reached `f`, rendered `root -> mid -> f`.
    pub fn chain(&self, graph: &CallGraph, f: usize) -> String {
        let mut hops = vec![f];
        let mut at = f;
        while let Some(up) = self.parent[at] {
            hops.push(up);
            at = up;
        }
        hops.reverse();
        hops.iter()
            .map(|&h| graph.fns[h].qualified.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

impl CallGraph {
    /// Breadth-first walk over resolved call edges from `roots`. The
    /// edge `(caller, call, callee)` is taken when the callee is not
    /// visited yet and `follow` allows it; `#[cfg(test)]` fns are never
    /// visited, as roots or as callees. Every interprocedural rule is
    /// this walk with its own roots and edge predicate.
    pub fn walk(
        &self,
        roots: impl IntoIterator<Item = usize>,
        mut follow: impl FnMut(usize, &CallSite, usize) -> bool,
    ) -> Walk {
        let n = self.fns.len();
        let mut walk = Walk {
            parent: vec![None; n],
            order: Vec::new(),
            seen: vec![false; n],
        };
        for root in roots {
            if !walk.seen[root] && !self.fns[root].in_test {
                walk.seen[root] = true;
                walk.order.push(root);
            }
        }
        // `order` doubles as the FIFO queue: `next` is its head.
        let mut next = 0;
        while let Some(&at) = walk.order.get(next) {
            next += 1;
            for &ci in &self.edges[at] {
                let call = &self.calls[ci];
                for &callee in &call.resolved {
                    if walk.seen[callee] || self.fns[callee].in_test || !follow(at, call, callee) {
                        continue;
                    }
                    walk.seen[callee] = true;
                    walk.parent[callee] = Some(at);
                    walk.order.push(callee);
                }
            }
        }
        walk
    }

    /// The fns a `lint.toml` list of qualified-name suffixes names
    /// (see [`suffix_matches`]), as a mask over [`Self::fns`]. `Err`
    /// names the first entry that matches no fn: the fn was renamed or
    /// removed and the policy silently stopped applying. `key` says
    /// where the list lives, e.g. `[taint] sources`.
    pub fn named(&self, key: &str, suffixes: &[String]) -> Result<Vec<bool>, String> {
        let mut named = vec![false; self.fns.len()];
        for suffix in suffixes {
            let mut hit = false;
            for (idx, f) in self.fns.iter().enumerate() {
                if suffix_matches(&f.qualified, suffix) {
                    named[idx] = true;
                    hit = true;
                }
            }
            if !hit {
                return Err(format!(
                    "lint.toml {key} entry `{suffix}` matches no workspace fn — remove or fix it"
                ));
            }
        }
        Ok(named)
    }
}

/// How far above a `fn` keyword a `// LINT: hot` marker may sit
/// (attributes like `#[inline]` commonly separate them).
const HOT_WINDOW_LINES: u32 = 6;

/// Parse one file: fn items, call sites, annotations.
pub fn parse_file(graph: &mut CallGraph, crate_name: &str, path: &str, text: &str) {
    let toks = crate::lexer::tokenize(text);
    let test_spans = crate::rules::cfg_test_spans(&toks);
    let file_idx = graph.files.len();

    // ----- LINT: marker annotations --------------------------------
    let mut bounded_lines = Vec::new();
    let mut cold_spans = Vec::new();
    let mut relaxed_markers = Vec::new();
    let mut seqcst_markers = Vec::new();
    let mut lossy_markers = Vec::new();
    let mut marker_errors = Vec::new();
    let mut hot_lines = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        let TokKind::Comment(c) = &tok.kind else {
            continue;
        };
        let Some(directive) = lint_directive(c) else {
            continue;
        };
        if directive.starts_with("bounded") {
            match marker_reason(directive) {
                Some(_) => {
                    // A trailing comment covers its own line; a
                    // standalone comment covers the line below it.
                    let standalone = !prev_code(&toks, i).is_some_and(|p| toks[p].line == tok.line);
                    bounded_lines.push(tok.line);
                    if standalone {
                        bounded_lines.push(tok.line + 1);
                    }
                }
                None => marker_errors.push((
                    tok.line,
                    "`LINT: bounded` marker without a written reason — use \
                     `// LINT: bounded(why the index/divisor is in range)`"
                        .to_string(),
                )),
            }
        } else if directive.starts_with("cold") {
            match marker_reason(directive) {
                Some(_) => {
                    // The annotated block is the next `{ ... }` opening
                    // after the comment.
                    let open = (i + 1..toks.len()).find(|&j| is_punct(&toks[j], '{'));
                    match open {
                        Some(open) => {
                            let close = matching_brace(&toks, open);
                            cold_spans.push((tok.line, toks[close.min(toks.len() - 1)].line));
                        }
                        None => marker_errors.push((
                            tok.line,
                            "`LINT: cold` marker with no following block".to_string(),
                        )),
                    }
                }
                None => marker_errors.push((
                    tok.line,
                    "`LINT: cold` marker without a written reason — use \
                     `// LINT: cold(why this branch is off the hot path)`"
                        .to_string(),
                )),
            }
        } else if let Some(kind) = ["relaxed", "seqcst", "lossy"]
            .into_iter()
            .find(|k| directive.starts_with(k))
        {
            // Ordering and lossy-IO annotations share `bounded`'s
            // coverage rule: trailing comments cover their own line,
            // standalone comments the line below. The marker's own
            // position is kept so the atomics and durability passes
            // can flag annotation rot.
            match marker_reason(directive) {
                Some(_) => {
                    let standalone = !prev_code(&toks, i).is_some_and(|p| toks[p].line == tok.line);
                    let mut covers = vec![tok.line];
                    if standalone {
                        covers.push(tok.line + 1);
                    }
                    let marker = OrderingMarker {
                        line: tok.line,
                        covers,
                    };
                    match kind {
                        "relaxed" => relaxed_markers.push(marker),
                        "seqcst" => seqcst_markers.push(marker),
                        _ => lossy_markers.push(marker),
                    }
                }
                None => marker_errors.push((
                    tok.line,
                    format!(
                        "`LINT: {kind}` marker without a written reason — use \
                         `// LINT: {kind}(why this is sound)`"
                    ),
                )),
            }
        } else if directive.starts_with("hot") {
            hot_lines.push(tok.line);
        } else {
            marker_errors.push((
                tok.line,
                format!(
                    "unknown `LINT:` directive `{}` — known: hot, bounded(reason), \
                     cold(reason), relaxed(reason), seqcst(reason), lossy(reason)",
                    directive.split_whitespace().next().unwrap_or("")
                ),
            ));
        }
    }

    // ----- fn items and call sites ---------------------------------
    // Context stack entries are pushed when their `{` opens.
    enum Ctx {
        Mod(String),
        /// Subject type name and whether the block is an `impl` (true)
        /// or a `trait` declaration (false).
        Type(String, bool),
        Other,
    }
    let mut stack: Vec<Ctx> = Vec::new();
    let module_base = module_path_of(path);
    let mut i = 0;
    let mut fn_ranges: Vec<(usize, (usize, usize))> = Vec::new(); // (fn idx, body)
    while i < toks.len() {
        match ident(&toks[i]) {
            Some("mod") => {
                let name_i = next_code(&toks, i + 1);
                if let Some(ni) = name_i {
                    if let Some(name) = ident(&toks[ni]) {
                        if let Some(oi) = next_code(&toks, ni + 1) {
                            if is_punct(&toks[oi], '{') {
                                stack.push(Ctx::Mod(name.to_string()));
                                i = oi + 1;
                                continue;
                            }
                        }
                    }
                }
                i += 1;
            }
            Some(kw @ ("impl" | "trait")) => {
                // Find the body `{` (paren/bracket-balanced), extract
                // the subject type name from the header.
                let Some(open) = find_body_open(&toks, i + 1) else {
                    i += 1;
                    continue;
                };
                if !is_punct(&toks[open], '{') {
                    // `trait Foo: Bar;`-style or parse oddity: skip.
                    i = open + 1;
                    continue;
                }
                let ty = if kw == "impl" {
                    impl_type_name(&toks[i + 1..open])
                } else {
                    next_code(&toks, i + 1)
                        .and_then(|ni| ident(&toks[ni]))
                        .map(str::to_string)
                };
                stack.push(Ctx::Type(ty.unwrap_or_default(), kw == "impl"));
                i = open + 1;
            }
            Some("fn") => {
                let Some(ni) = next_code(&toks, i + 1) else {
                    i += 1;
                    continue;
                };
                let Some(name) = ident(&toks[ni]) else {
                    i += 1;
                    continue;
                };
                let line = toks[i].line;
                let is_pub = fn_is_pub(&toks, i);
                let in_impl = matches!(stack.last(), Some(Ctx::Type(..)));
                let type_ctx = match stack.last() {
                    Some(Ctx::Type(t, true)) if !t.is_empty() => Some(t.clone()),
                    _ => None,
                };
                let in_test = in_spans(&test_spans, line);
                let body = match find_body_open(&toks, ni + 1) {
                    Some(open) if is_punct(&toks[open], '{') => {
                        (open, matching_brace(&toks, open) + 1)
                    }
                    Some(semi) => (semi, semi), // trait decl, no body
                    None => (toks.len(), toks.len()),
                };
                let mut segs: Vec<String> = vec![crate_name.replace('-', "_")];
                segs.extend(module_base.iter().cloned());
                for ctx in &stack {
                    match ctx {
                        Ctx::Mod(m) => segs.push(m.clone()),
                        Ctx::Type(t, _) if !t.is_empty() => segs.push(t.clone()),
                        _ => {}
                    }
                }
                segs.push(name.to_string());
                let fn_idx = graph.fns.len();
                graph.fns.push(FnItem {
                    file: file_idx,
                    crate_name: crate_name.to_string(),
                    qualified: segs.join("::"),
                    name: name.to_string(),
                    line,
                    body,
                    is_pub,
                    in_impl,
                    type_ctx,
                    is_hot: false,
                    in_test,
                });
                fn_ranges.push((fn_idx, body));
                // Continue scanning *inside* the body (nested fns and
                // the call extraction below both want the tokens), but
                // don't re-push context: nested items are rare and
                // their module path is already approximate.
                i = body.0.max(ni + 1);
            }
            _ => {
                if is_punct(&toks[i], '{') {
                    stack.push(Ctx::Other);
                } else if is_punct(&toks[i], '}') {
                    stack.pop();
                }
                i += 1;
            }
        }
    }

    // Each `LINT: hot` marker attaches to exactly the *first* fn at or
    // below it (within the attribute window) — never to later
    // neighbours, which would silently widen the hot set. A marker
    // with no fn in reach is an error, not a no-op.
    for &hl in &hot_lines {
        let target = fn_ranges
            .iter()
            .map(|&(fn_idx, _)| fn_idx)
            .filter(|&fn_idx| {
                let l = graph.fns[fn_idx].line;
                l >= hl && l - hl <= HOT_WINDOW_LINES
            })
            .min_by_key(|&fn_idx| graph.fns[fn_idx].line);
        match target {
            Some(fn_idx) => graph.fns[fn_idx].is_hot = true,
            None => marker_errors.push((
                hl,
                format!("`LINT: hot` marker with no fn within {HOT_WINDOW_LINES} lines below it"),
            )),
        }
    }

    // Call sites: attribute each to the innermost enclosing fn body.
    for k in 0..toks.len() {
        let Some(name) = ident(&toks[k]) else {
            continue;
        };
        if !name
            .chars()
            .next()
            .is_some_and(|c| c.is_lowercase() || c == '_')
            || KEYWORDS.contains(&name)
        {
            continue;
        }
        let Some(open) = next_code(&toks, k + 1) else {
            continue;
        };
        if !is_punct(&toks[open], '(') {
            continue;
        }
        let Some(p) = prev_code(&toks, k) else {
            continue;
        };
        if ident(&toks[p]) == Some("fn") {
            continue; // definition, not call
        }
        let caller = fn_ranges
            .iter()
            .filter(|(_, (a, b))| (*a..*b).contains(&k))
            .min_by_key(|(_, (a, b))| b - a);
        let Some(&(caller, _)) = caller else { continue };
        let (is_method, self_recv, path) = if is_punct(&toks[p], '.') {
            let recv_is_self = prev_code(&toks, p).is_some_and(|r| ident(&toks[r]) == Some("self"));
            (true, recv_is_self, Vec::new())
        } else {
            (false, false, leading_path(&toks, k))
        };
        graph.calls.push(CallSite {
            caller,
            line: toks[k].line,
            name: name.to_string(),
            path,
            is_method,
            self_recv,
            resolved: Vec::new(),
        });
    }

    graph.files.push(ParsedFile {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        toks,
        test_spans,
        bounded_lines,
        cold_spans,
        relaxed_markers,
        seqcst_markers,
        lossy_markers,
        marker_errors,
    });
}

/// The directive payload of a `// LINT: ...` comment. `Some` only for
/// plain line comments whose first content is `LINT:` — doc comments
/// (`///`, `//!`) are prose *about* directives, never directives, and
/// a trailing mention mid-comment does not count either.
fn lint_directive(c: &str) -> Option<&str> {
    let rest = c.strip_prefix("//")?;
    if rest.starts_with('/') || rest.starts_with('!') {
        return None;
    }
    rest.trim_start().strip_prefix("LINT:").map(str::trim_start)
}

/// The reason inside a `LINT: marker(reason)` suffix, if non-empty.
fn marker_reason(s: &str) -> Option<&str> {
    let open = s.find('(')?;
    let close = s[open..].find(')')? + open;
    let reason = s[open + 1..close].trim();
    (!reason.is_empty()).then_some(reason)
}

/// Index of the `}` matching the `{` at `open` (last token if
/// unterminated).
fn matching_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// From a signature position, the index of the body `{` or the
/// terminating `;`, whichever comes first at paren/bracket depth 0.
fn find_body_open(toks: &[Token], from: usize) -> Option<usize> {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match t.kind {
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren -= 1,
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket -= 1,
            TokKind::Punct('{') | TokKind::Punct(';') if paren == 0 && bracket == 0 => {
                return Some(j);
            }
            _ => {}
        }
    }
    None
}

/// The subject type of an `impl` header (tokens between `impl` and the
/// body `{`): the last angle-depth-0 path ident, taken after `for` if
/// present, before any `where`.
fn impl_type_name(header: &[Token]) -> Option<String> {
    let mut angle = 0i32;
    let mut last: Option<String> = None;
    for t in header {
        match &t.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle = (angle - 1).max(0), // `->` noise
            TokKind::Ident(s) if angle == 0 => match s.as_str() {
                "for" => last = None, // restart: the subject follows
                "where" => break,
                "dyn" | "mut" | "const" => {}
                _ => last = Some(s.clone()),
            },
            _ => {}
        }
    }
    last
}

/// True when the `fn` at token `i` is `pub` without a `(...)`
/// restriction (scan back over modifiers: `const`, `unsafe`, `extern`,
/// an ABI literal, `async`).
fn fn_is_pub(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    loop {
        let Some(p) = prev_code(toks, j) else {
            return false;
        };
        match ident(&toks[p]) {
            Some("const" | "unsafe" | "extern" | "async") => j = p,
            Some("pub") => return true,
            _ => match &toks[p].kind {
                TokKind::Literal => j = p, // extern "C"
                TokKind::Punct(')') => {
                    // `pub(crate)` / `pub(super)`: restricted, not pub.
                    return false;
                }
                _ => return false,
            },
        }
    }
}

/// Path segments written immediately before the call name at `k`
/// (`a::b::name(` → `["a", "b"]`), with `self`/`Self`/`crate`/`super`
/// dropped.
fn leading_path(toks: &[Token], k: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut j = k;
    while let Some(c2) = prev_code(toks, j) {
        if !is_punct(&toks[c2], ':') {
            break;
        }
        let Some(c1) = prev_code(toks, c2) else { break };
        if !is_punct(&toks[c1], ':') {
            break;
        }
        let Some(si) = prev_code(toks, c1) else { break };
        // `<Type as Trait>::name(...)` — stop at the closing angle.
        let Some(seg) = ident(&toks[si]) else { break };
        segs.push(seg.to_string());
        j = si;
    }
    segs.reverse();
    segs.retain(|s| !matches!(s.as_str(), "self" | "Self" | "crate" | "super"));
    segs
}

/// Module path segments a file contributes (`src/foo/bar.rs` →
/// `["foo", "bar"]`, `src/lib.rs`/`src/main.rs`/`mod.rs` dropping the
/// terminal name).
fn module_path_of(path: &str) -> Vec<String> {
    let Some(after) = path.split("/src/").nth(1) else {
        return Vec::new();
    };
    let mut segs: Vec<String> = after
        .trim_end_matches(".rs")
        .split('/')
        .map(str::to_string)
        .collect();
    if matches!(
        segs.last().map(String::as_str),
        Some("lib") | Some("main") | Some("mod")
    ) {
        segs.pop();
    }
    segs
}

/// Resolve every call site against the extracted fn items (see the
/// module docs for the policy) and build the forward adjacency.
/// Public so fixture tests can assemble graphs from in-memory sources.
pub fn resolve(graph: &mut CallGraph, crates: &[CrateInfo]) {
    let dep_sets: HashMap<&str, Vec<&str>> = crates
        .iter()
        .map(|c| {
            let mut ds: Vec<&str> = c.deps.iter().map(String::as_str).collect();
            ds.push(c.name.as_str());
            (c.name.as_str(), ds)
        })
        .collect();
    // Transitive closure of the dep relation, for method dispatch: a
    // receiver's concrete type can come from anywhere the caller's
    // crate can see, including through intermediate crates.
    let trans_sets: HashMap<&str, Vec<&str>> = crates
        .iter()
        .map(|c| {
            let mut seen: Vec<&str> = vec![c.name.as_str()];
            let mut stack: Vec<&str> = vec![c.name.as_str()];
            while let Some(at) = stack.pop() {
                for dep in dep_sets.get(at).into_iter().flatten() {
                    if !seen.contains(dep) {
                        seen.push(dep);
                        stack.push(dep);
                    }
                }
            }
            (c.name.as_str(), seen)
        })
        .collect();

    // name -> fn indices
    let fns = &graph.fns;
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (idx, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(idx);
    }

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for (ci, call) in graph.calls.iter_mut().enumerate() {
        let caller = &fns[call.caller];
        let caller_crate = caller.crate_name.as_str();
        let caller_file = caller.file;
        let empty = Vec::new();
        let candidates = by_name.get(call.name.as_str()).unwrap_or(&empty);
        let in_deps = |idx: &usize| -> bool {
            dep_sets
                .get(caller_crate)
                .is_some_and(|ds| ds.contains(&fns[*idx].crate_name.as_str()))
        };
        let resolved: Vec<usize> = if call.is_method {
            // `self.name(...)` from inside an impl block: dispatch
            // cannot leave the receiver's type, so when that type
            // defines `name` resolve to those fns only. This kills the
            // spurious fan-out of common method names (`update`,
            // `push`) to every same-named method in the dep closure.
            let self_targets: Vec<usize> = match caller.type_ctx.as_deref() {
                Some(ty) if call.self_recv => candidates
                    .iter()
                    .copied()
                    .filter(|&idx| {
                        fns[idx].in_impl
                            && fns[idx].crate_name == caller_crate
                            && fns[idx].type_ctx.as_deref() == Some(ty)
                    })
                    .collect(),
                _ => Vec::new(),
            };
            if !self_targets.is_empty() {
                self_targets
            } else {
                // Impl/trait fns of that name, within the caller's
                // transitive dependency closure: method syntax can
                // never reach a free fn, nor a crate the caller cannot
                // see.
                candidates
                    .iter()
                    .copied()
                    .filter(|&idx| {
                        fns[idx].in_impl
                            && trans_sets
                                .get(caller_crate)
                                .is_some_and(|ts| ts.contains(&fns[idx].crate_name.as_str()))
                    })
                    .collect()
            }
        } else if call.path.is_empty() {
            // Bare: same file, else same crate, else dependencies.
            let same_file: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&idx| fns[idx].file == caller_file)
                .collect();
            if !same_file.is_empty() {
                same_file
            } else {
                let same_crate: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&idx| fns[idx].crate_name == caller_crate)
                    .collect();
                if !same_crate.is_empty() {
                    same_crate
                } else {
                    candidates.iter().filter(|i| in_deps(i)).copied().collect()
                }
            }
        } else {
            // Qualified: the written segments must suffix-match the
            // candidate's qualified path, within the dep set.
            candidates
                .iter()
                .copied()
                .filter(|&idx| {
                    let f = &fns[idx];
                    let segs: Vec<&str> = f.qualified.split("::").collect();
                    let want: Vec<&str> = call
                        .path
                        .iter()
                        .map(String::as_str)
                        .chain(std::iter::once(call.name.as_str()))
                        .collect();
                    segs.len() >= want.len() && segs[segs.len() - want.len()..] == want[..]
                })
                .filter(|i| in_deps(i))
                .collect()
        };
        call.resolved = resolved;
        edges[call.caller].push(ci);
    }
    graph.edges = edges;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> CallGraph {
        let mut g = CallGraph::default();
        parse_file(&mut g, "demo", "crates/demo/src/lib.rs", src);
        g
    }

    #[test]
    fn extracts_fns_with_module_and_impl_paths() {
        let g = graph_of(
            "pub fn top() {}\n\
             mod inner { fn helper() {} }\n\
             struct S;\n\
             impl S { pub fn method(&self) {} }\n\
             impl Clone for S { fn clone(&self) -> S { S } }\n\
             trait T { fn defaulted(&self) {} }\n",
        );
        let quals: Vec<&str> = g.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(
            quals,
            vec![
                "demo::top",
                "demo::inner::helper",
                "demo::S::method",
                "demo::S::clone",
                "demo::T::defaulted",
            ]
        );
        assert!(g.fns[0].is_pub);
        assert!(!g.fns[1].is_pub);
        assert!(g.fns[2].is_pub);
    }

    #[test]
    fn file_paths_become_module_segments() {
        let mut g = CallGraph::default();
        parse_file(&mut g, "demo", "crates/demo/src/foo/bar.rs", "fn f() {}");
        assert_eq!(g.fns[0].qualified, "demo::foo::bar::f");
    }

    #[test]
    fn call_sites_carry_shape_and_line() {
        let g = graph_of(
            "fn a() {\n\
               helper();\n\
               other::mod_fn(1);\n\
               x.method(2);\n\
               macro_like!();\n\
             }\n\
             fn helper() {}\n",
        );
        let shapes: Vec<(&str, bool, usize, u32)> = g
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.is_method, c.path.len(), c.line))
            .collect();
        assert_eq!(
            shapes,
            vec![
                ("helper", false, 0, 2),
                ("mod_fn", false, 1, 3),
                ("method", true, 0, 4),
            ]
        );
    }

    #[test]
    fn pub_restrictions_are_not_pub() {
        let g = graph_of("pub(crate) fn a() {}\npub fn b() {}\npub(super) fn c() {}\n");
        let pubs: Vec<bool> = g.fns.iter().map(|f| f.is_pub).collect();
        assert_eq!(pubs, vec![false, true, false]);
    }

    #[test]
    fn hot_marker_attaches_through_attributes() {
        let g = graph_of(
            "// LINT: hot\n\
             #[inline]\n\
             pub fn fast(&self) {}\n\
             pub fn slow() {}\n",
        );
        assert!(g.fns[0].is_hot);
        assert!(!g.fns[1].is_hot);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let g = graph_of(
            "fn real() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() { x.unwrap(); }\n\
             }\n",
        );
        assert!(!g.fns[0].in_test);
        assert!(g.fns[1].in_test);
    }

    #[test]
    fn bounded_and_cold_annotations_are_collected() {
        let g = graph_of(
            "fn f(xs: &[u64]) -> u64 {\n\
                 let a = xs[0]; // LINT: bounded(len checked by caller)\n\
                 // LINT: cold(error path, taken once per run)\n\
                 {\n\
                     report();\n\
                 }\n\
                 a\n\
             }\n",
        );
        let file = &g.files[0];
        assert!(file.bounded_lines.contains(&2));
        assert_eq!(file.cold_spans, vec![(3, 6)]);
        assert!(file.marker_errors.is_empty());
    }

    #[test]
    fn markers_without_reasons_are_errors() {
        let g = graph_of("fn f() {}\n// LINT: bounded\n// LINT: cold()\n");
        assert_eq!(g.files[0].marker_errors.len(), 2);
    }

    #[test]
    fn ordering_markers_are_collected_with_coverage() {
        let g = graph_of(
            "fn f(a: &AtomicUsize) {\n\
                 a.store(1, Ordering::Relaxed); // LINT: relaxed(stat counter, no reader orders on it)\n\
                 // LINT: seqcst(store-buffering edge vs. the reader's pin)\n\
                 a.store(2, Ordering::SeqCst);\n\
             }\n",
        );
        let file = &g.files[0];
        assert_eq!(file.relaxed_markers.len(), 1);
        assert_eq!(file.relaxed_markers[0].covers, vec![2]);
        assert_eq!(file.seqcst_markers.len(), 1);
        assert_eq!(file.seqcst_markers[0].line, 3);
        assert_eq!(file.seqcst_markers[0].covers, vec![3, 4]);
        assert!(file.marker_errors.is_empty());
    }

    #[test]
    fn ordering_markers_without_reasons_are_errors() {
        let g = graph_of("fn f() {}\n// LINT: relaxed\n// LINT: seqcst()\n");
        assert_eq!(g.files[0].marker_errors.len(), 2);
        assert!(g.files[0].marker_errors[0].1.contains("relaxed"));
        assert!(g.files[0].marker_errors[1].1.contains("seqcst"));
    }

    #[test]
    fn self_method_calls_stay_within_their_impl_type() {
        let mut g = CallGraph::default();
        parse_file(
            &mut g,
            "demo",
            "crates/demo/src/lib.rs",
            "struct A;\n\
             impl A {\n\
                 pub fn go(&self) { self.step(); }\n\
                 fn step(&self) {}\n\
             }\n\
             struct B;\n\
             impl B { fn step(&self) {} }\n\
             fn free(a: &A) { a.step(); }\n",
        );
        let crates = vec![crate::workspace::CrateInfo {
            name: "demo".into(),
            dir: std::path::PathBuf::from("crates/demo"),
            deps: Vec::new(),
        }];
        resolve(&mut g, &crates);
        // `self.step()` inside `impl A` dispatches only to `A::step`…
        let self_call = g.calls.iter().find(|c| c.self_recv).unwrap();
        let targets: Vec<&str> = self_call
            .resolved
            .iter()
            .map(|&i| g.fns[i].qualified.as_str())
            .collect();
        assert_eq!(targets, vec!["demo::A::step"]);
        // …while a non-`self` receiver keeps the broad method fan-out
        // (the lexer does not track variable types).
        let other = g.calls.iter().find(|c| !c.self_recv).unwrap();
        assert_eq!(other.resolved.len(), 2);
    }

    #[test]
    fn trait_default_methods_keep_broad_self_dispatch() {
        // A trait default body's `self.x()` can land in any impl, so the
        // trait fn gets no type anchor and resolution stays broad.
        let mut g = CallGraph::default();
        parse_file(
            &mut g,
            "demo",
            "crates/demo/src/lib.rs",
            "trait T {\n\
                 fn x(&self);\n\
                 fn run(&self) { self.x(); }\n\
             }\n\
             struct A;\n\
             impl T for A { fn x(&self) {} }\n",
        );
        let crates = vec![crate::workspace::CrateInfo {
            name: "demo".into(),
            dir: std::path::PathBuf::from("crates/demo"),
            deps: Vec::new(),
        }];
        resolve(&mut g, &crates);
        let run = g.fns.iter().position(|f| f.name == "run").unwrap();
        assert!(
            g.fns[run].type_ctx.is_none(),
            "trait fns get no type anchor"
        );
        let call = g.calls.iter().find(|c| c.self_recv).unwrap();
        let targets: Vec<&str> = call
            .resolved
            .iter()
            .map(|&i| g.fns[i].qualified.as_str())
            .collect();
        // Both the trait decl and the concrete impl stay reachable.
        assert!(targets.contains(&"demo::A::x"), "targets: {targets:?}");
    }

    #[test]
    fn suffix_matches_whole_segments_or_the_whole_name() {
        let q = "cocosketch::segment::EpochDir::append";
        assert!(suffix_matches(q, "EpochDir::append"));
        assert!(suffix_matches(q, "append"));
        assert!(suffix_matches(q, q));
        assert!(!suffix_matches(q, "Dir::append"));
        assert!(!suffix_matches(
            "cocosketch::segment::EpochDir::reappend",
            "append"
        ));
        assert!(!suffix_matches(q, "other::EpochDir::append"));
    }

    #[test]
    fn walk_is_breadth_first_follows_only_allowed_edges_and_skips_tests() {
        let mut g = CallGraph::default();
        parse_file(
            &mut g,
            "demo",
            "crates/demo/src/lib.rs",
            "pub fn root() { deep(); near(); blocked(); }\n\
             fn near() { deep(); }\n\
             fn deep() { leaf(); probe(); }\n\
             fn leaf() {}\n\
             fn blocked() {}\n\
             #[cfg(test)]\n\
             fn probe() {}\n",
        );
        let crates = vec![crate::workspace::CrateInfo {
            name: "demo".into(),
            dir: std::path::PathBuf::from("crates/demo"),
            deps: Vec::new(),
        }];
        resolve(&mut g, &crates);
        let idx = |name: &str| g.fns.iter().position(|f| f.name == name).unwrap();
        let walk = g.walk([idx("root")], |_, call, _| call.name != "blocked");
        let order: Vec<&str> = walk.order.iter().map(|&f| g.fns[f].name.as_str()).collect();
        assert_eq!(order, vec!["root", "deep", "near", "leaf"]);
        assert!(!walk.reached(idx("blocked")));
        assert!(!walk.reached(idx("probe")), "test fns are never visited");
        assert_eq!(
            walk.chain(&g, idx("leaf")),
            "demo::root -> demo::deep -> demo::leaf"
        );
    }

    #[test]
    fn impl_header_shapes_resolve_to_the_subject_type() {
        for (hdr, want) in [
            ("impl Foo {", "demo::Foo::m"),
            ("impl Trait for Foo {", "demo::Foo::m"),
            ("impl<T: Clone> Wrap<T> {", "demo::Wrap::m"),
            ("impl<'a> Iterator for Iter<'a> {", "demo::Iter::m"),
            ("impl fmt::Display for Foo {", "demo::Foo::m"),
        ] {
            let g = graph_of(&format!("{hdr} fn m(&self) {{}} }}"));
            assert_eq!(g.fns[0].qualified, want, "header: {hdr}");
        }
    }
}
