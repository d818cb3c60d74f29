//! The cocolint rules, over token streams from [`crate::lexer`].
//!
//! | rule              | scope                         | what it rejects |
//! |-------------------|-------------------------------|-----------------|
//! | `safety-comment`  | every file in the workspace   | an `unsafe` block or `unsafe impl` without a `// SAFETY:` comment nearby |
//! | `panic-path`      | data-plane `src/`, non-test   | `.unwrap()`, `.expect()`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` |
//! | `wall-clock`      | data-plane `src/`, non-test   | `Instant`, `SystemTime`, ambient-entropy randomness (`thread_rng`, `RandomState`, …) |
//! | `default-hashmap` | data-plane `src/`, non-test   | `HashMap`/`HashSet` (the SipHash + random-seed defaults) instead of `FastMap`/`FastSet` |
//! | `lock-free`       | `lock_free` `src/`, non-test  | `Mutex`, `RwLock`, `Condvar` — serving readers coordinate through atomics only |
//! | `crate-attrs`     | crate roots, per `lint.toml`  | missing `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]` / data-plane hardening attrs |
//!
//! "Non-test" exempts `#[cfg(test)]` items (brace-matched spans) and
//! the `tests/`/`benches/`/`examples/` trees: tests may unwrap and may
//! use wall clocks; the packet path may not.

use crate::lexer::{ident, is_punct, next_code, prev_code, TokKind, Token};
use std::path::Path;

/// How far above an `unsafe` block the `SAFETY:` comment may start.
/// Generous enough for a paragraph-length argument, small enough that
/// a stale comment at the top of the function does not count.
const SAFETY_WINDOW_LINES: u32 = 12;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (stable, used by the allowlist).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// For interprocedural rules: the call chain from a data-plane
    /// entry point to the offending site, rendered `a::b -> c::d`.
    /// `[[allow]]` entries with a `chain` pattern match against this.
    pub chain: Option<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        if let Some(chain) = &self.chain {
            write!(f, "\n    call chain: {chain}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// safety-comment
// ---------------------------------------------------------------------

/// Every `unsafe` block (`unsafe {`) and `unsafe impl` must have a
/// comment containing `SAFETY:` starting within `SAFETY_WINDOW_LINES`
/// lines above it (or on its own line). `unsafe fn` declarations are
/// exempt: their obligation sits at each call site, which is itself an
/// `unsafe` block this rule covers.
pub fn safety_comment(file: &str, toks: &[Token]) -> Vec<Finding> {
    let safety_lines: Vec<u32> = toks
        .iter()
        .filter_map(|t| match &t.kind {
            TokKind::Comment(c) if c.contains("SAFETY:") => Some(t.line),
            _ => None,
        })
        .collect();
    let mut findings = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if ident(tok) != Some("unsafe") {
            continue;
        }
        let Some(next) = next_code(toks, i + 1) else {
            continue;
        };
        let target = match (&toks[next].kind, ident(&toks[next])) {
            (TokKind::Punct('{'), _) => "unsafe block",
            (_, Some("impl")) => "unsafe impl",
            _ => continue, // unsafe fn/trait/extern declaration
        };
        let line = tok.line;
        let covered = safety_lines
            .iter()
            .any(|&sl| sl <= line && line - sl <= SAFETY_WINDOW_LINES);
        if !covered {
            findings.push(Finding {
                file: file.to_string(),
                line,
                rule: "safety-comment",
                message: format!(
                    "{target} without a `// SAFETY:` comment within {SAFETY_WINDOW_LINES} lines"
                ),
                chain: None,
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// panic-path
// ---------------------------------------------------------------------

/// Method names whose call panics on `None`/`Err` (shared with the
/// transitive rule in [`crate::dataflow`]).
pub(crate) const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Macros that panic when invoked.
pub(crate) const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Data-plane code must not contain reachable panic sites: `.unwrap()`
/// / `.expect()` become typed errors, and constructively-unreachable
/// states route through `hashkit::invariant::violated` (the one
/// allowlisted funnel), so a grep for that symbol audits every
/// remaining panic in the packet path. `assert!` stays permitted:
/// a documented invariant assert is an explicit precondition, not an
/// accidental panic path.
pub fn panic_path(file: &str, toks: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        let Some(name) = ident(tok) else { continue };
        if PANIC_METHODS.contains(&name) {
            let is_method_call = prev_code(toks, i).is_some_and(|p| is_punct(&toks[p], '.'))
                && next_code(toks, i + 1).is_some_and(|n| is_punct(&toks[n], '('));
            if is_method_call {
                findings.push(Finding {
                    file: file.to_string(),
                    line: tok.line,
                    rule: "panic-path",
                    message: format!(
                        ".{name}() on the data plane — return a typed error or use hashkit::invariant::violated with a written argument"
                    ),
                    chain: None,
                });
            }
        } else if PANIC_MACROS.contains(&name) {
            let is_macro = next_code(toks, i + 1).is_some_and(|n| is_punct(&toks[n], '!'));
            // `core::panic::...` paths (e.g. resume_unwind imports) are
            // not invocations; require the bang.
            if is_macro {
                findings.push(Finding {
                    file: file.to_string(),
                    line: tok.line,
                    rule: "panic-path",
                    message: format!(
                        "{name}! on the data plane — see panic-path policy in DESIGN.md"
                    ),
                    chain: None,
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------

const CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "RandomState", "from_entropy", "OsRng"];

/// Sketch contents must be a pure function of (input stream, seed):
/// the reproducibility policy and the unbiasedness tests both depend
/// on it. Wall clocks and ambient entropy silently break that, so the
/// data plane may not name them; deterministic seeded generators
/// (`hashkit::XorShift64Star`) are the sanctioned randomness source.
pub fn wall_clock(file: &str, toks: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for tok in toks {
        let Some(name) = ident(tok) else { continue };
        if CLOCK_TYPES.contains(&name) {
            findings.push(Finding {
                file: file.to_string(),
                line: tok.line,
                rule: "wall-clock",
                message: format!(
                    "{name} in deterministic sketch code — time must not influence sketch state"
                ),
                chain: None,
            });
        } else if ENTROPY_IDENTS.contains(&name) {
            findings.push(Finding {
                file: file.to_string(),
                line: tok.line,
                rule: "wall-clock",
                message: format!(
                    "{name} draws ambient entropy — use a seeded hashkit::XorShift64Star instead"
                ),
                chain: None,
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// lock-free
// ---------------------------------------------------------------------

const BLOCKING_SYNC_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// Crates in `lint.toml`'s `lock_free` tier serve readers concurrently
/// with a publisher by protocol (atomics + epoch pinning), not by
/// blocking: one lock on the read path would let a descheduled reader
/// stall the publisher (or vice versa) and quietly void the
/// progress-freedom the loom models verify. Naming a blocking sync
/// primitive in non-test code is therefore a finding, whatever it
/// guards.
pub fn lock_free(file: &str, toks: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for tok in toks {
        let Some(name) = ident(tok) else { continue };
        if BLOCKING_SYNC_TYPES.contains(&name) {
            findings.push(Finding {
                file: file.to_string(),
                line: tok.line,
                rule: "lock-free",
                message: format!(
                    "{name} in a lock-free crate — readers and publisher coordinate \
                     through atomics only (see serve::catalog's left-right protocol)"
                ),
                chain: None,
            });
        }
    }
    findings
}

/// [`lock_free`] with `#[cfg(test)]` spans exempted, mirroring
/// [`data_plane_rules`] — tests may lock to build harnesses.
pub fn lock_free_rules(file: &Path, toks: &[Token]) -> Vec<Finding> {
    let name = crate::workspace::display_path(file);
    let findings = lock_free(&name, toks);
    let spans = cfg_test_spans(toks);
    exempt_test_spans(findings, &spans)
}

// ---------------------------------------------------------------------
// default-hashmap
// ---------------------------------------------------------------------

/// `std`'s `HashMap`/`HashSet` default to SipHash with a per-process
/// random seed: slow on short flow keys and nondeterministic in
/// iteration order. Data-plane code uses `hashkit::FastMap`/`FastSet`
/// (same types, deterministic multiply-rotate hasher) instead.
pub fn default_hashmap(file: &str, toks: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for tok in toks {
        let Some(name) = ident(tok) else { continue };
        if name == "HashMap" || name == "HashSet" {
            let fast = if name == "HashMap" {
                "FastMap"
            } else {
                "FastSet"
            };
            findings.push(Finding {
                file: file.to_string(),
                line: tok.line,
                rule: "default-hashmap",
                message: format!(
                    "{name} uses the SipHash + random-seed default on a hot path — use hashkit::{fast}"
                ),
                chain: None,
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// crate-attrs
// ---------------------------------------------------------------------

/// True when the token stream contains the inner attribute
/// `#![<level>(<lint>)]`.
pub fn has_crate_attr(toks: &[Token], level: &str, lint_name: &str) -> bool {
    toks.windows(7).any(|w| {
        is_punct(&w[0], '#')
            && is_punct(&w[1], '!')
            && is_punct(&w[2], '[')
            && ident(&w[3]) == Some(level)
            && is_punct(&w[4], '(')
            && ident(&w[5]) == Some(lint_name)
            && is_punct(&w[6], ')')
    })
}

/// Require `#![<level>(<lint>)]` at a crate root.
pub fn require_crate_attr(
    file: &str,
    toks: &[Token],
    level: &str,
    lint_name: &str,
) -> Option<Finding> {
    if has_crate_attr(toks, level, lint_name) {
        None
    } else {
        Some(Finding {
            file: file.to_string(),
            line: 1,
            rule: "crate-attrs",
            message: format!("crate root is missing #![{level}({lint_name})]"),
            chain: None,
        })
    }
}

// ---------------------------------------------------------------------
// #[cfg(test)] spans
// ---------------------------------------------------------------------

/// Line ranges (inclusive) covered by `#[cfg(test)]` items: from the
/// attribute to the matching close brace of the item's body (or its
/// terminating `;` for braceless items). Used to exempt in-file test
/// modules from the data-plane rules.
pub fn cfg_test_spans(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let w = &toks[i..i + 7];
        let is_cfg_test = is_punct(&w[0], '#')
            && is_punct(&w[1], '[')
            && ident(&w[2]) == Some("cfg")
            && is_punct(&w[3], '(')
            && ident(&w[4]) == Some("test")
            && is_punct(&w[5], ')')
            && is_punct(&w[6], ']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        // Scan forward to the item body: first `{` at bracket level 0
        // (skipping over further `#[...]` attributes), or a `;`.
        let mut j = i + 7;
        let mut end_line = start_line;
        let mut attr_depth = 0usize;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('[') => attr_depth += 1,
                TokKind::Punct(']') => attr_depth = attr_depth.saturating_sub(1),
                TokKind::Punct(';') if attr_depth == 0 => {
                    end_line = toks[j].line;
                    break;
                }
                TokKind::Punct('{') if attr_depth == 0 => {
                    let mut depth = 1usize;
                    let mut k = j + 1;
                    while k < toks.len() && depth > 0 {
                        match &toks[k].kind {
                            TokKind::Punct('{') => depth += 1,
                            TokKind::Punct('}') => depth -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                    end_line = toks[k.saturating_sub(1).min(toks.len() - 1)].line;
                    j = k;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        spans.push((start_line, end_line));
        i = j.max(i + 7);
    }
    spans
}

/// True when `line` falls inside one of the inclusive line `spans`
/// (`#[cfg(test)]` spans, `LINT: cold` blocks).
pub fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Drop findings whose line falls inside any `#[cfg(test)]` span.
pub fn exempt_test_spans(findings: Vec<Finding>, spans: &[(u32, u32)]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| !in_spans(spans, f.line))
        .collect()
}

/// Convenience used by `run_lint` and the fixture tests: all data-plane
/// rules on one file, with `#[cfg(test)]` spans exempted.
pub fn data_plane_rules(file: &Path, toks: &[Token]) -> Vec<Finding> {
    let name = crate::workspace::display_path(file);
    let mut findings = Vec::new();
    findings.extend(panic_path(&name, toks));
    findings.extend(wall_clock(&name, toks));
    findings.extend(default_hashmap(&name, toks));
    let spans = cfg_test_spans(toks);
    exempt_test_spans(findings, &spans)
}
