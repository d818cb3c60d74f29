//! Interprocedural dataflow rules over the [`crate::callgraph`].
//!
//! | rule               | what it proves                                        |
//! |--------------------|-------------------------------------------------------|
//! | `transitive-panic` | no data-plane `pub fn` reaches a panic site — syntactic (`panic!`, `unwrap`) or implicit (unbounded indexing, unguarded integer division) — anywhere in the workspace |
//! | `overflow`         | counter accumulators in data-plane crates use `wrapping_*`/`saturating_*`/`checked_*`, never bare `+`/`*`/`+=`/`*=` |
//! | `hot-alloc`        | `// LINT: hot` functions never transitively allocate outside `// LINT: cold(...)` branches |
//!
//! Findings are anchored at the offending *site* (the thing to fix)
//! and carry the full call chain from a data-plane entry point, so a
//! reviewer sees both where the panic lives and why it is reachable.
//!
//! ## Implicit panic sources and the `bounded` escape hatch
//!
//! Slice indexing and integer `/`/`%` panic only when an index is out
//! of range or a divisor is zero — conditions a token-level analysis
//! cannot prove absent. The rules use documented heuristics:
//!
//! - an index expression containing `%` or `&` (range reduction /
//!   masking) or consisting of a single integer literal is *bounded*;
//! - a divisor that is a nonzero literal, a float (`f32`/`f64` in
//!   either operand's vicinity), or clamped via `.max(...)` is
//!   *guarded*;
//! - anything else needs either a real fix (`get()`, `checked_div`) or
//!   a same-line `// LINT: bounded(reason)` annotation whose written
//!   reason states why the value is in range — the inline analogue of
//!   a `[[allow]]` entry.

use crate::callgraph::{suffix_matches, CallGraph, FnItem};
use crate::lexer::{group_start, ident, is_punct, next_code, prev_code, TokKind, Token};
use crate::rules::{in_spans, Finding, PANIC_MACROS, PANIC_METHODS};

/// Configuration slice the dataflow rules need (assembled by
/// [`crate::run_lint`] from `lint.toml`).
#[derive(Debug, Clone, Default)]
pub struct DataflowConfig {
    /// Crates whose `pub fn`s are the transitive-panic sinks and whose
    /// files the overflow rule scans.
    pub data_plane: Vec<String>,
    /// Identifier names treated as counter accumulators by the
    /// overflow rule (field or variable names).
    pub counters: Vec<String>,
    /// Qualified-path suffixes (or whole qualified names, see
    /// [`suffix_matches`]) treated as hot entry points in addition to
    /// inline `// LINT: hot` markers (e.g. `"Ring::push"`).
    pub hot_extra: Vec<String>,
}

// ---------------------------------------------------------------------
// panic-source extraction
// ---------------------------------------------------------------------

/// One direct panic site inside a fn body.
#[derive(Debug, Clone)]
pub struct PanicSource {
    /// 1-based line.
    pub line: u32,
    /// What panics there, e.g. "`.unwrap()`" or "slice indexing".
    pub what: String,
}

/// Direct panic sites in `toks[range]`, honouring the file's
/// `LINT: bounded` annotations.
pub fn panic_sources(
    toks: &[Token],
    range: (usize, usize),
    bounded_lines: &[u32],
) -> Vec<PanicSource> {
    let mut out = Vec::new();
    let bounded = |line: u32| bounded_lines.contains(&line);
    let mut k = range.0;
    while k < range.1.min(toks.len()) {
        let tok = &toks[k];
        match &tok.kind {
            TokKind::Ident(name) if PANIC_METHODS.contains(&name.as_str()) => {
                let is_call = prev_code(toks, k).is_some_and(|p| is_punct(&toks[p], '.'))
                    && next_code(toks, k + 1).is_some_and(|n| is_punct(&toks[n], '('));
                if is_call {
                    out.push(PanicSource {
                        line: tok.line,
                        what: format!("`.{name}()`"),
                    });
                }
            }
            TokKind::Ident(name)
                if PANIC_MACROS.contains(&name.as_str())
                    && next_code(toks, k + 1).is_some_and(|n| is_punct(&toks[n], '!')) =>
            {
                out.push(PanicSource {
                    line: tok.line,
                    what: format!("`{name}!`"),
                });
            }
            TokKind::Punct('[') => {
                if let Some(site) = index_site(toks, k, range.1) {
                    if !bounded(tok.line) {
                        out.push(site);
                    }
                    // Either way, skip to the matching `]` so nested
                    // indexes inside the brackets are still visited
                    // exactly once: they are part of the inner walk.
                }
            }
            TokKind::Punct(op @ ('/' | '%')) => {
                if let Some(site) = division_site(toks, k, *op, range.1) {
                    if !bounded(tok.line) {
                        out.push(site);
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
    out
}

/// Classify the `[` at `k`: `Some` when it is expression indexing with
/// an unbounded index, `None` when it is not indexing at all or the
/// index is visibly bounded. Shared with the taint pass, whose
/// indexing sink uses the same boundedness heuristics.
pub(crate) fn index_site(toks: &[Token], k: usize, limit: usize) -> Option<PanicSource> {
    // Expression position: an indexable expression ends just before.
    let p = prev_code(toks, k)?;
    let indexable = match &toks[p].kind {
        TokKind::Ident(name) => !crate::callgraph::is_keyword(name),
        TokKind::Punct(')') | TokKind::Punct(']') => true,
        _ => false,
    };
    if !indexable {
        return None;
    }
    // Inner token walk to the matching `]`.
    let mut depth = 1usize;
    let mut j = k + 1;
    let mut inner_code = 0usize;
    let mut saw_bound = false;
    let mut single_literal: Option<bool> = None; // Some(is_int)
    while j < limit.min(toks.len()) && depth > 0 {
        match &toks[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('%') | TokKind::Punct('&') if depth == 1 => saw_bound = true,
            _ => {}
        }
        if depth > 0 && !matches!(toks[j].kind, TokKind::Comment(_)) {
            inner_code += 1;
            single_literal = match (&toks[j].kind, inner_code) {
                (TokKind::Num(text), 1) => Some(!text.contains('.')),
                _ => None,
            };
        }
        j += 1;
    }
    if saw_bound || single_literal == Some(true) {
        return None;
    }
    Some(PanicSource {
        line: toks[k].line,
        what: "slice/array indexing with an unbounded index".to_string(),
    })
}

/// Classify the `/` or `%` at `k`: `Some` when it is integer division
/// with an unguarded divisor.
fn division_site(toks: &[Token], k: usize, op: char, limit: usize) -> Option<PanicSource> {
    // LHS must be an expression (rules out `&/`, attribute noise).
    let p = prev_code(toks, k)?;
    let lhs_expr = matches!(
        &toks[p].kind,
        TokKind::Ident(_) | TokKind::Num(_) | TokKind::Punct(')') | TokKind::Punct(']')
    );
    if !lhs_expr || ident(&toks[p]).is_some_and(crate::callgraph::is_keyword) {
        return None;
    }
    // Float context on the LHS? Look a few tokens back for f32/f64.
    for back in (0..p + 1).rev().take(6) {
        if matches!(ident(&toks[back]), Some("f64") | Some("f32")) {
            return None;
        }
    }
    // RHS window: skip `=` of a compound assign, then walk one operand.
    let mut j = next_code(toks, k + 1)?;
    if is_punct(&toks[j], '=') {
        j = next_code(toks, j + 1)?;
    }
    // First RHS token a literal: nonzero integers and floats are safe;
    // a literal zero divisor is *definitely* a panic.
    if let TokKind::Num(text) = &toks[j].kind {
        let is_float = text.contains('.') || (text.contains('e') && !text.starts_with("0x"));
        let is_zero = text.trim_end_matches(|c: char| c.is_alphabetic() || c == '_') == "0";
        if is_float || !is_zero {
            return None;
        }
        return Some(PanicSource {
            line: toks[k].line,
            what: format!("`{op}` with a literal-zero divisor"),
        });
    }
    // Walk the operand: idents, field/method chains, balanced parens.
    let mut paren = 0i32;
    let mut guarded = false;
    let mut float = false;
    while j < limit.min(toks.len()) {
        match &toks[j].kind {
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') if paren > 0 => paren -= 1,
            TokKind::Ident(s) if paren >= 0 => match s.as_str() {
                "f64" | "f32" => float = true,
                "max" => guarded = true, // the `.max(1)` clamp idiom
                "as" => {}
                _ => {}
            },
            TokKind::Punct('.') | TokKind::Punct(':') | TokKind::Num(_) => {}
            _ if paren == 0 => break,
            _ => {}
        }
        j += 1;
    }
    if guarded || float {
        return None;
    }
    Some(PanicSource {
        line: toks[k].line,
        what: format!("integer `{op}` with an unguarded divisor"),
    })
}

// ---------------------------------------------------------------------
// transitive-panic
// ---------------------------------------------------------------------

/// Run the transitive panic-reachability rule. `per_file_covered`
/// tells the rule which (file, line) sites the per-file `panic-path`
/// rule already reports, so the same unwrap is not reported twice.
pub fn transitive_panic(
    graph: &CallGraph,
    cfg: &DataflowConfig,
    per_file_covered: &dyn Fn(&str, u32) -> bool,
) -> Vec<Finding> {
    // Direct sources per fn.
    let mut sources: Vec<Vec<PanicSource>> = Vec::with_capacity(graph.fns.len());
    for f in &graph.fns {
        if f.in_test {
            sources.push(Vec::new());
            continue;
        }
        let file = &graph.files[f.file];
        let mut srcs: Vec<PanicSource> = panic_sources(&file.toks, f.body, &file.bounded_lines)
            .into_iter()
            .filter(|s| !in_spans(&file.test_spans, s.line))
            .collect();
        // The invariant funnel (`hashkit::invariant::violated`) is the
        // audited panic; its internal `panic!` is allowlisted at the
        // per-file layer, and transitively it is *meant* to be
        // reachable — calls to it are deliberate, so its own body is
        // not a source for this rule. Callers still see it via the
        // per-file allowlist discipline.
        if f.qualified.ends_with("invariant::violated")
            || f.qualified.ends_with("invariant::violated_err")
        {
            srcs.clear();
        }
        sources.push(srcs);
    }

    // Walk every edge from the data-plane pub fns; each reached fn's
    // chain is a shortest path from one of them.
    let entries = (0..graph.fns.len()).filter(|&idx| {
        let f = &graph.fns[idx];
        f.is_pub && cfg.data_plane.contains(&f.crate_name)
    });
    let walk = graph.walk(entries, |_, _, _| true);

    let mut findings = Vec::new();
    for (idx, srcs) in sources.iter().enumerate() {
        if srcs.is_empty() || !walk.reached(idx) {
            continue;
        }
        let f = &graph.fns[idx];
        let file = &graph.files[f.file];
        let chain = walk.chain(graph, idx);
        for s in srcs {
            if per_file_covered(&file.path, s.line) {
                continue;
            }
            findings.push(Finding {
                file: file.path.clone(),
                line: s.line,
                rule: "transitive-panic",
                message: format!(
                    "{} in `{}` is reachable from a data-plane `pub fn` — fix the site \
                     (`get()`, `checked_div`, typed error) or annotate the line with \
                     `// LINT: bounded(reason)`",
                    s.what, f.qualified
                ),
                chain: Some(chain.clone()),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// overflow
// ---------------------------------------------------------------------

/// Unchecked `+`/`*`/`+=`/`*=` on counter-named accumulators in
/// data-plane `src/` files. Wrapping is the sanctioned semantics for
/// u64 counters: release builds already wrap, so `wrapping_*` is
/// bit-identical where it matters while removing the debug panic path
/// — the conservation invariant (sums preserved mod 2^64) survives.
pub fn overflow(graph: &CallGraph, cfg: &DataflowConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &graph.files {
        if !cfg.data_plane.contains(&file.crate_name) {
            continue;
        }
        let toks = &file.toks;
        for k in 0..toks.len() {
            let op = match toks[k].kind {
                TokKind::Punct('+') => '+',
                TokKind::Punct('*') => '*',
                _ => continue,
            };
            if in_spans(&file.test_spans, toks[k].line) {
                continue;
            }
            // `+=`/`*=` or binary `a + b` — never unary/deref: the
            // token before must end an expression.
            let Some(p) = prev_code(toks, k) else {
                continue;
            };
            // `..=`? `+` after `.` impossible; `**`? skip doubled ops.
            let accum = match &toks[p].kind {
                TokKind::Ident(name) => Some(name.clone()),
                TokKind::Punct(']') => {
                    // `rows[i][j] += w`: walk back over one or more
                    // bracket groups to the container name.
                    let mut j = p;
                    loop {
                        let Some(q) = prev_code(toks, group_start(toks, j)) else {
                            break None;
                        };
                        match &toks[q].kind {
                            TokKind::Ident(name) => break Some(name.clone()),
                            TokKind::Punct(']') => j = q,
                            _ => break None,
                        }
                    }
                }
                _ => None,
            };
            let Some(accum) = accum else { continue };
            if !cfg.counters.iter().any(|c| c == &accum) {
                continue;
            }
            let compound = next_code(toks, k + 1).is_some_and(|n| is_punct(&toks[n], '='));
            let (shown, fix) = if compound {
                (
                    format!("{op}="),
                    if op == '+' {
                        "`x = x.wrapping_add(y)`"
                    } else {
                        "`x = x.wrapping_mul(y)`"
                    },
                )
            } else {
                (
                    op.to_string(),
                    if op == '+' {
                        "`wrapping_add`"
                    } else {
                        "`wrapping_mul`"
                    },
                )
            };
            findings.push(Finding {
                file: file.path.clone(),
                line: toks[k].line,
                rule: "overflow",
                message: format!(
                    "unchecked `{shown}` on counter `{accum}` — use {fix} (or \
                     `saturating_*`/`checked_*`) so overflow is defined, not a debug panic"
                ),
                chain: None,
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// hot-alloc
// ---------------------------------------------------------------------

/// Method names that allocate when they resolve to nothing in the
/// workspace (std containers).
const ALLOC_METHODS_IF_STD: &[&str] = &["push", "insert", "extend", "reserve", "push_back"];
/// Method names that always mean allocation (no workspace fn shadows
/// them).
const ALLOC_METHODS_ALWAYS: &[&str] = &["collect", "to_vec", "to_string", "to_owned"];
/// Path heads whose associated fns allocate (`Vec::with_capacity`,
/// `Box::new`, ...).
const ALLOC_PATH_HEADS: &[&str] = &[
    "Vec", "Box", "String", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Rc", "Arc",
];
/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Run the hot-path allocation-freedom rule.
pub fn hot_alloc(graph: &CallGraph, cfg: &DataflowConfig) -> Vec<Finding> {
    // Hot roots: inline markers plus config-named fns. Calls made
    // inside a cold span are not followed.
    let in_cold = |f: &FnItem, line: u32| in_spans(&graph.files[f.file].cold_spans, line);
    let roots = (0..graph.fns.len()).filter(|&idx| {
        let f = &graph.fns[idx];
        f.is_hot
            || cfg
                .hot_extra
                .iter()
                .any(|s| suffix_matches(&f.qualified, s))
    });
    let walk = graph.walk(roots, |at, call, _| !in_cold(&graph.fns[at], call.line));

    let mut findings = Vec::new();
    for idx in 0..graph.fns.len() {
        if !walk.reached(idx) {
            continue;
        }
        let f = &graph.fns[idx];
        let file = &graph.files[f.file];
        let chain = walk.chain(graph, idx);
        let mut report = |line: u32, what: &str| {
            if in_cold(f, line) || in_spans(&file.test_spans, line) {
                return;
            }
            findings.push(Finding {
                file: file.path.clone(),
                line,
                rule: "hot-alloc",
                message: format!(
                    "{what} on the hot path (`{}` is reachable from a `// LINT: hot` \
                     function) — preallocate, reuse a scratch buffer, or move the branch \
                     under `// LINT: cold(reason)`",
                    f.qualified
                ),
                chain: Some(chain.clone()),
            });
        };
        // Call-shaped allocation sites inside this fn's body.
        for &ci in &graph.edges[idx] {
            let call = &graph.calls[ci];
            if call.is_method {
                if ALLOC_METHODS_ALWAYS.contains(&call.name.as_str())
                    || (ALLOC_METHODS_IF_STD.contains(&call.name.as_str())
                        && call.resolved.is_empty())
                {
                    report(call.line, &format!("`.{}(...)` allocates", call.name));
                }
            } else if let Some(head) = call.path.last() {
                if ALLOC_PATH_HEADS.contains(&head.as_str()) {
                    report(
                        call.line,
                        &format!("`{}::{}(...)` allocates", head, call.name),
                    );
                }
            }
        }
        // Macro allocation sites (not call sites: `vec![...]`).
        let toks = &file.toks;
        let mut k = f.body.0;
        while k < f.body.1.min(toks.len()) {
            if let Some(name) = ident(&toks[k]) {
                if ALLOC_MACROS.contains(&name)
                    && next_code(toks, k + 1).is_some_and(|n| is_punct(&toks[n], '!'))
                {
                    report(toks[k].line, &format!("`{name}!` allocates"));
                }
            }
            k += 1;
        }
    }
    findings.sort_by_key(|a| (a.file.clone(), a.line));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    findings
}

/// Marker-syntax errors (a `LINT:` annotation missing its written
/// reason) as findings — a malformed exemption must fail the run, not
/// silently exempt or silently lapse.
pub fn marker_errors(graph: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &graph.files {
        for (line, msg) in &file.marker_errors {
            findings.push(Finding {
                file: file.path.clone(),
                line: *line,
                rule: "lint-marker",
                message: msg.clone(),
                chain: None,
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn demo_cfg() -> DataflowConfig {
        DataflowConfig {
            data_plane: vec!["dp".to_string()],
            counters: vec!["value".to_string(), "weight".to_string()],
            hot_extra: Vec::new(),
        }
    }

    fn two_crate_graph(dp_src: &str, util_src: &str) -> CallGraph {
        let mut g = CallGraph::default();
        crate::callgraph::parse_file(&mut g, "dp", "crates/dp/src/lib.rs", dp_src);
        crate::callgraph::parse_file(&mut g, "util", "crates/util/src/lib.rs", util_src);
        let crates = vec![
            crate::workspace::CrateInfo {
                name: "dp".into(),
                dir: "crates/dp".into(),
                deps: vec!["util".into()],
            },
            crate::workspace::CrateInfo {
                name: "util".into(),
                dir: "crates/util".into(),
                deps: vec![],
            },
        ];
        crate::callgraph::resolve(&mut g, &crates);
        g
    }

    #[test]
    fn unwrap_two_calls_deep_is_reported_with_the_chain() {
        let g = two_crate_graph(
            "pub fn entry(x: u64) -> u64 { helper(x) }\n\
             fn helper(x: u64) -> u64 { util::deep(x) }\n",
            "pub fn deep(x: u64) -> u64 { Some(x).unwrap() }\n",
        );
        let f = transitive_panic(&g, &demo_cfg(), &|_, _| false);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].file, "crates/util/src/lib.rs");
        assert_eq!(f[0].line, 1);
        let chain = f[0].chain.as_deref().unwrap();
        assert_eq!(chain, "dp::entry -> dp::helper -> util::deep");
    }

    #[test]
    fn unreachable_panic_sites_are_not_reported() {
        let g = two_crate_graph(
            "pub fn entry(x: u64) -> u64 { x }\n",
            "pub fn lonely(x: u64) -> u64 { Some(x).unwrap() }\n",
        );
        let f = transitive_panic(&g, &demo_cfg(), &|_, _| false);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn bounded_annotation_silences_indexing() {
        let g = two_crate_graph(
            "pub fn entry(xs: &[u64], i: usize) -> u64 {\n\
                 let a = xs[i % xs.len().max(1)];\n\
                 let b = xs[i]; // LINT: bounded(caller guarantees i < len)\n\
                 let c = xs[i];\n\
                 a + b + c\n\
             }\n",
            "",
        );
        let f = transitive_panic(&g, &demo_cfg(), &|_, _| false);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].line, 4);
        assert!(f[0].message.contains("indexing"));
    }

    #[test]
    fn division_guards_are_recognised() {
        let g = two_crate_graph(
            "pub fn entry(a: u64, b: u64, xs: &[u64]) -> u64 {\n\
                 let safe_lit = a / 8;\n\
                 let safe_float = a as f64 / b as f64;\n\
                 let safe_max = a / b.max(1);\n\
                 let risky = a / b;\n\
                 safe_lit + safe_float as u64 + safe_max + risky\n\
             }\n",
            "",
        );
        let f = transitive_panic(&g, &demo_cfg(), &|_, _| false);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn overflow_flags_counter_arithmetic_only() {
        let g = two_crate_graph(
            "pub struct B { pub value: u64 }\n\
             pub fn bump(b: &mut B, w: u64, i: usize) -> u64 {\n\
                 b.value += w;\n\
                 let x = i + 1;\n\
                 b.value = b.value.wrapping_add(w);\n\
                 x as u64\n\
             }\n",
            "",
        );
        let f = overflow(&g, &demo_cfg());
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("wrapping_add"));
    }

    #[test]
    fn overflow_sees_through_index_chains() {
        let g = two_crate_graph(
            "pub fn bump(value: &mut [Vec<u64>], i: usize, j: usize, w: u64) {\n\
                 value[i][j] += w;\n\
             }\n",
            "",
        );
        let f = overflow(&g, &demo_cfg());
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn hot_fn_reaching_alloc_is_reported_with_chain() {
        let g = two_crate_graph(
            "// LINT: hot\n\
             pub fn fast(x: u64) -> u64 { helper(x) }\n\
             fn helper(x: u64) -> u64 { util::build(x) }\n",
            "pub fn build(x: u64) -> u64 { let v = vec![x]; v[0] }\n",
        );
        let f = hot_alloc(&g, &demo_cfg());
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].file, "crates/util/src/lib.rs");
        assert!(f[0].message.contains("`vec!` allocates"), "{}", f[0]);
        assert_eq!(
            f[0].chain.as_deref().unwrap(),
            "dp::fast -> dp::helper -> util::build"
        );
    }

    #[test]
    fn cold_branches_may_allocate() {
        let g = two_crate_graph(
            "// LINT: hot\n\
             pub fn fast(x: u64) -> u64 {\n\
                 if x == u64::MAX {\n\
                     // LINT: cold(overflow report, once per run)\n\
                     {\n\
                         let msg = format!(\"overflow {x}\");\n\
                         return msg.len() as u64;\n\
                     }\n\
                 }\n\
                 x\n\
             }\n",
            "",
        );
        let f = hot_alloc(&g, &demo_cfg());
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn non_hot_fns_may_allocate() {
        let g = two_crate_graph("pub fn slow(x: u64) -> Vec<u64> { vec![x] }\n", "");
        let f = hot_alloc(&g, &demo_cfg());
        assert!(f.is_empty(), "{f:#?}");
    }
}
