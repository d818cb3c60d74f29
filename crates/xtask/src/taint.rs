//! Untrusted-input taint analysis over the [`crate::callgraph`].
//!
//! The wire protocol parses hostile bytes into lengths, counts, and
//! indices. A length that reaches `Vec::with_capacity` unclamped is a
//! remote allocation bomb; length arithmetic that wraps defeats the
//! very bounds check guarding it (a `rows * row_len` product that
//! overflows can equal `body.len()` while `rows` is enormous). This
//! pass follows bytes from the `[taint] sources` in `lint.toml` to
//! those sinks and demands visible sanitization on every path.
//!
//! ## Propagation
//!
//! A breadth-first [`CallGraph::walk`], seeded at every fn whose
//! qualified path suffix-matches a `[taint] sources` entry. Taint
//! follows *raw bytes*: an edge is taken only when the callee's
//! signature mentions `u8` (byte slices, byte readers) — once a parser
//! returns typed values, its callers are the query engine's problem,
//! not this pass's. Each reached fn carries the shortest call chain
//! from its source, rendered `a::b -> c::d` like the panic pass.
//!
//! ## Sinks and sanitizers
//!
//! | sink          | fires on                                   | sanitized by |
//! |---------------|--------------------------------------------|--------------|
//! | `taint-alloc` | `with_capacity(len)` / `.resize(len, ..)` with a non-literal length | `.min(...)`, a `[taint] sanitizers` ident in the argument, a `checked_*` producing the length, or an earlier comparison of the length ident |
//! | `taint-index` | slice indexing in a taint-reachable fn     | the panic pass's boundedness heuristics (`%`/`&` masking, literal index) or `// LINT: bounded(reason)` |
//! | `taint-arith` | `+`/`*` between identifiers where either side is a `[taint] length_idents` name | `checked_*`/`saturating_*` (no bare operator remains) or `// LINT: bounded(reason)` |
//!
//! The asymmetry is deliberate: an earlier comparison sanitizes an
//! *allocation* (the length was range-checked before use) but never
//! *arithmetic* — wrapping happens before any comparison of the
//! product, which is exactly the bug class the arith sink exists to
//! catch.

use crate::callgraph::{CallGraph, FnItem};
use crate::lexer::{ident, is_punct, next_code, prev_code, TokKind, Token};
use crate::rules::{in_spans, Finding};

/// Configuration slice for the taint pass (from `lint.toml` `[taint]`).
#[derive(Debug, Clone, Default)]
pub struct TaintConfig {
    /// Qualified-path suffixes of untrusted-input entry points.
    pub sources: Vec<String>,
    /// Identifier names whose presence in a length expression bounds
    /// it (e.g. `MAX_FRAME`).
    pub sanitizers: Vec<String>,
    /// Identifier names treated as attacker-controlled lengths by the
    /// arithmetic sink.
    pub length_idents: Vec<String>,
}

/// Does the fn's signature (tokens between its `fn` keyword and its
/// body `{`) mention `u8`? Bytes are the taint carrier: an edge into a
/// fn that does not take raw bytes leaves the parse boundary.
fn sig_mentions_u8(graph: &CallGraph, f: &FnItem) -> bool {
    let toks = &graph.files[f.file].toks;
    let end = f.body.0.min(toks.len());
    // Walk back from the body to the `fn` keyword of *this* fn.
    let mut start = end;
    while start > 0 {
        start -= 1;
        if ident(&toks[start]) == Some("fn") && toks[start].line == f.line {
            break;
        }
    }
    toks[start..end].iter().any(|t| ident(t) == Some("u8"))
}

/// Is the identifier at `k` visibly sanitized at this use or earlier
/// in `toks[from..k]`? Recognized shapes, per the module docs:
/// `x.min(...)`, `x.checked_*(...)`/`x.saturating_*(...)`, and
/// comparisons (`x <`, `x >`, `<= x`, `== x`, `!= x`, ...). A plain
/// `= x` (assignment RHS) is not a comparison.
fn ident_sanitized(toks: &[Token], from: usize, k: usize, name: &str) -> bool {
    let mut j = from;
    while j <= k {
        if ident(&toks[j]) != Some(name) {
            j += 1;
            continue;
        }
        // `name . min (` / `name . checked_* (` / `name . saturating_* (`
        if let Some(d) = next_code(toks, j + 1) {
            if is_punct(&toks[d], '.') {
                if let Some(m) = next_code(toks, d + 1) {
                    if ident(&toks[m]).is_some_and(|s| {
                        s == "min" || s.starts_with("checked_") || s.starts_with("saturating_")
                    }) {
                        return true;
                    }
                }
            }
            // `name <` / `name >`
            if is_punct(&toks[d], '<') || is_punct(&toks[d], '>') {
                return true;
            }
        }
        if let Some(p) = prev_code(toks, j) {
            // `< name` / `> name`
            if is_punct(&toks[p], '<') || is_punct(&toks[p], '>') {
                return true;
            }
            // `== name` / `!= name` / `<= name` / `>= name`: the `=`
            // directly before must itself follow a comparison head.
            if is_punct(&toks[p], '=') {
                if let Some(pp) = prev_code(toks, p) {
                    if matches!(
                        toks[pp].kind,
                        TokKind::Punct('=')
                            | TokKind::Punct('!')
                            | TokKind::Punct('<')
                            | TokKind::Punct('>')
                    ) {
                        return true;
                    }
                }
            }
        }
        j += 1;
    }
    false
}

/// Run the taint pass. `Err` is configuration rot: a `[taint] sources`
/// suffix naming no workspace fn means the entry point was renamed and
/// the policy silently stopped applying.
pub fn check(graph: &CallGraph, cfg: &TaintConfig) -> Result<Vec<Finding>, String> {
    if cfg.sources.is_empty() {
        return Ok(Vec::new());
    }
    let source = graph.named("[taint] sources", &cfg.sources)?;

    // Walk from the sources, only into fns whose signature mentions u8
    // (see the module docs).
    let walk = graph.walk(
        (0..graph.fns.len()).filter(|&idx| source[idx]),
        |_, _, callee| sig_mentions_u8(graph, &graph.fns[callee]),
    );

    let mut findings = Vec::new();
    for idx in 0..graph.fns.len() {
        if !walk.reached(idx) {
            continue;
        }
        let f = &graph.fns[idx];
        let file = &graph.files[f.file];
        let toks = &file.toks;
        let chain = walk.chain(graph, idx);
        let body_end = f.body.1.min(toks.len());
        let skip =
            |line: u32| in_spans(&file.test_spans, line) || file.bounded_lines.contains(&line);

        let mut k = f.body.0;
        while k < body_end {
            match &toks[k].kind {
                // ----- allocation-from-length sinks -----------------
                TokKind::Ident(m) if m == "with_capacity" || m == "resize" => {
                    let Some(open) = next_code(toks, k + 1) else {
                        k += 1;
                        continue;
                    };
                    if !is_punct(&toks[open], '(')
                        || prev_code(toks, k).is_some_and(|p| ident(&toks[p]) == Some("fn"))
                        || skip(toks[k].line)
                    {
                        k += 1;
                        continue;
                    }
                    // First argument's tokens (to `,` or `)` at depth 1).
                    let mut depth = 1usize;
                    let mut j = open + 1;
                    let mut arg: Vec<usize> = Vec::new();
                    while j < toks.len() && depth > 0 {
                        match toks[j].kind {
                            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                            TokKind::Punct(',') if depth == 1 => break,
                            _ => {}
                        }
                        if depth > 0 && !matches!(toks[j].kind, TokKind::Comment(_)) {
                            arg.push(j);
                        }
                        j += 1;
                    }
                    let all_literal = !arg.is_empty()
                        && arg.iter().all(|&i| matches!(toks[i].kind, TokKind::Num(_)));
                    let inline_sane = arg.iter().any(|&i| {
                        ident(&toks[i]).is_some_and(|s| {
                            s == "min"
                                || s.starts_with("checked_")
                                || s.starts_with("saturating_")
                                || cfg.sanitizers.iter().any(|z| z == s)
                        })
                    });
                    if arg.is_empty() || all_literal || inline_sane {
                        k += 1;
                        continue;
                    }
                    // Single-ident length: accept an earlier
                    // comparison/clamp of that ident in this body.
                    let len_ident = arg
                        .iter()
                        .filter_map(|&i| ident(&toks[i]))
                        .find(|s| !crate::callgraph::is_keyword(s));
                    let earlier_sane =
                        len_ident.is_some_and(|name| ident_sanitized(toks, f.body.0, k, name));
                    if !earlier_sane {
                        findings.push(Finding {
                            file: file.path.clone(),
                            line: toks[k].line,
                            rule: "taint-alloc",
                            message: format!(
                                "`{m}` with an untrusted length in `{}` — clamp it \
                                 (`.min(...)`, compare against MAX_FRAME) before \
                                 allocating, or the wire can demand gigabytes per frame",
                                f.qualified
                            ),
                            chain: Some(chain.clone()),
                        });
                    }
                }
                // ----- indexing sinks -------------------------------
                TokKind::Punct('[') => {
                    if let Some(site) = crate::dataflow::index_site(toks, k, body_end) {
                        if !skip(site.line) {
                            findings.push(Finding {
                                file: file.path.clone(),
                                line: site.line,
                                rule: "taint-index",
                                message: format!(
                                    "slice indexing with an untrusted index in `{}` — \
                                     use `get()` or mask/clamp the index, or annotate \
                                     with `// LINT: bounded(reason)`",
                                    f.qualified
                                ),
                                chain: Some(chain.clone()),
                            });
                        }
                    }
                }
                // ----- length-arithmetic sinks ----------------------
                TokKind::Punct(op @ ('+' | '*')) => {
                    if skip(toks[k].line) {
                        k += 1;
                        continue;
                    }
                    let lhs = prev_code(toks, k).and_then(|p| ident(&toks[p]).map(String::from));
                    let rhs =
                        next_code(toks, k + 1).and_then(|n| ident(&toks[n]).map(String::from));
                    let involved = [lhs.as_deref(), rhs.as_deref()]
                        .into_iter()
                        .flatten()
                        .any(|s| cfg.length_idents.iter().any(|l| l == s));
                    // Both operands must be expression-like (rules out
                    // `&x`, generics noise) and at least one a
                    // configured length name.
                    if involved && lhs.is_some() && rhs.is_some() {
                        let (a, b) = (lhs.as_deref().unwrap(), rhs.as_deref().unwrap());
                        let fix = if *op == '+' {
                            "checked_add"
                        } else {
                            "checked_mul"
                        };
                        findings.push(Finding {
                            file: file.path.clone(),
                            line: toks[k].line,
                            rule: "taint-arith",
                            message: format!(
                                "unchecked `{a} {op} {b}` on an untrusted length in `{}` — \
                                 the product can wrap and defeat the very bounds check \
                                 comparing it; use `{fix}` (wrap-on-purpose is never right \
                                 for a length)",
                                f.qualified
                            ),
                            chain: Some(chain.clone()),
                        });
                    }
                }
                _ => {}
            }
            k += 1;
        }
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn demo_cfg() -> TaintConfig {
        TaintConfig {
            sources: vec!["wire::decode".to_string()],
            sanitizers: vec!["MAX_FRAME".to_string()],
            length_idents: vec!["rows".to_string(), "row_len".to_string()],
        }
    }

    fn graph(wire_src: &str, core_src: &str) -> CallGraph {
        let mut g = CallGraph::default();
        crate::callgraph::parse_file(&mut g, "srv", "crates/srv/src/wire.rs", wire_src);
        crate::callgraph::parse_file(&mut g, "core", "crates/core/src/snap.rs", core_src);
        let crates = vec![
            crate::workspace::CrateInfo {
                name: "srv".into(),
                dir: "crates/srv".into(),
                deps: vec!["core".into()],
            },
            crate::workspace::CrateInfo {
                name: "core".into(),
                dir: "crates/core".into(),
                deps: vec![],
            },
        ];
        crate::callgraph::resolve(&mut g, &crates);
        g
    }

    #[test]
    fn missing_source_is_fatal_rot() {
        let g = graph("fn other() {}", "");
        let err = check(&g, &demo_cfg()).unwrap_err();
        assert!(err.contains("matches no workspace fn"), "{err}");
    }

    #[test]
    fn unclamped_capacity_is_reported_with_chain() {
        let g = graph(
            "pub fn decode(body: &[u8]) -> usize { snap::parse(body) }\n",
            "pub fn parse(b: &[u8]) -> usize {\n\
                 let n = b.len();\n\
                 let v: Vec<u8> = Vec::with_capacity(n);\n\
                 v.len()\n\
             }\n",
        );
        let f = check(&g, &demo_cfg()).unwrap();
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "taint-alloc");
        assert_eq!(f[0].file, "crates/core/src/snap.rs");
        assert_eq!(f[0].line, 3);
        assert_eq!(
            f[0].chain.as_deref().unwrap(),
            "srv::wire::decode -> core::snap::parse"
        );
    }

    #[test]
    fn min_clamp_and_sanitizer_comparisons_are_accepted() {
        let g = graph(
            "pub fn decode(body: &[u8]) -> usize {\n\
                 let n = body.len();\n\
                 let a: Vec<u8> = Vec::with_capacity(n.min(256));\n\
                 if n > MAX_FRAME { return 0; }\n\
                 let b: Vec<u8> = Vec::with_capacity(n);\n\
                 a.len() + b.len()\n\
             }\n",
            "",
        );
        let f = check(&g, &demo_cfg()).unwrap();
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn taint_stops_at_the_parse_boundary() {
        // `answer` takes no bytes: the allocation inside it is the
        // query engine's business, not taint's.
        let g = graph(
            "pub fn decode(body: &[u8]) -> usize { answer(body.len()) }\n\
             fn answer(n: usize) -> usize {\n\
                 let v: Vec<u64> = Vec::with_capacity(n);\n\
                 v.len()\n\
             }\n",
            "",
        );
        let f = check(&g, &demo_cfg()).unwrap();
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn length_arithmetic_is_flagged_even_when_compared() {
        // The comparison happens AFTER the product wraps — exactly the
        // bug the arith sink exists for.
        let g = graph(
            "pub fn decode(body: &[u8]) -> bool {\n\
                 let rows = body.len();\n\
                 let row_len = 12;\n\
                 body.len() != rows * row_len\n\
             }\n",
            "",
        );
        let f = check(&g, &demo_cfg()).unwrap();
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "taint-arith");
        assert_eq!(f[0].line, 4);
        assert!(f[0].message.contains("checked_mul"));
    }

    #[test]
    fn checked_mul_has_no_bare_operator_to_flag() {
        let g = graph(
            "pub fn decode(body: &[u8]) -> bool {\n\
                 let rows = body.len();\n\
                 let row_len = 12;\n\
                 rows.checked_mul(row_len).is_some()\n\
             }\n",
            "",
        );
        let f = check(&g, &demo_cfg()).unwrap();
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn untrusted_indexing_honors_bounded_annotations() {
        let g = graph(
            "pub fn decode(body: &[u8]) -> u8 {\n\
                 let a = body[0];\n\
                 let i = a as usize;\n\
                 let b = body[i]; // LINT: bounded(i < len checked by the header parse)\n\
                 let c = body[i];\n\
                 a + b + c\n\
             }\n",
            "",
        );
        let f = check(&g, &demo_cfg()).unwrap();
        let idx: Vec<u32> = f
            .iter()
            .filter(|x| x.rule == "taint-index")
            .map(|x| x.line)
            .collect();
        // line 2 is a literal index (bounded heuristic), line 4 is
        // annotated; only line 5 fires.
        assert_eq!(idx, vec![5], "{f:#?}");
    }
}
