//! Atomic-ordering protocol checker over the `lock_free`-tier crates.
//!
//! The left-right catalog, the projector cache, and the SPSC ring are
//! all hand-rolled acquire/release protocols: one weakened `Ordering`
//! is a data race no test deterministically catches. The loom models
//! verify the schedules they enumerate, but nothing stopped a later
//! change from quietly downgrading a `Release` store in code no model
//! covers — until this pass.
//!
//! | rule                    | what it proves                                     |
//! |-------------------------|----------------------------------------------------|
//! | `atomics-unpaired`      | a field Acquire-loaded anywhere has a Release-or-stronger store somewhere, and vice versa |
//! | `atomics-relaxed-store` | `Relaxed` stores/RMWs to fields that are Acquire-loaded elsewhere carry `// LINT: relaxed(reason)` |
//! | `atomics-seqcst`        | every `SeqCst` access carries `// LINT: seqcst(reason)` naming the store-buffering edge it orders |
//! | `atomics-unused-marker` | every `relaxed`/`seqcst` annotation still covers a matching access (no rot) |
//! | `atomics-protocol`      | every field participating in acquire/release edges belongs to a named `[[atomics.protocol]]` linked to its model test |
//!
//! ## What counts as an access, and how fields are grouped
//!
//! An access is a `.load(...)` / `.store(...)` / `.swap(...)` /
//! `.fetch_*(...)` / `.compare_exchange[_weak](...)` call whose
//! arguments name `Ordering::X` — token-level, so a workspace method
//! that happens to be called `load` without an `Ordering` argument is
//! never mistaken for one. The receiver is the last plain identifier
//! of the receiver chain (`self.sides[idx].readers.fetch_add` →
//! `readers`), and sites group by `(crate, receiver name)`: the lexer
//! cannot see types, so two same-named atomics in one crate share a
//! group. That over-approximation only merges protocols, never hides
//! an access.
//!
//! Declarations are found the same way: `name: ...Atomic*...` (struct
//! fields and fn params) and `let name = ...Atomic*...` bindings.
//!
//! ## Deliberate classification choices
//!
//! - A successful `compare_exchange` with an `Acquire` success
//!   ordering is the writer-election idiom (the stored value is a
//!   claim marker; the real payload publish is a later `Release`
//!   store). Its store side is therefore *not* treated as a Relaxed
//!   store needing annotation; only the success ordering being
//!   `Release`/`AcqRel`/`SeqCst` makes a CAS count as a release store
//!   for pairing.
//! - A group whose every access is `Relaxed` (pure stat counters) has
//!   no happens-before protocol to check: the pairing and protocol
//!   rules skip it. Weakening a `Release` store on a real protocol
//!   still trips `atomics-unpaired`, because the Acquire loads remain.
//! - `#[cfg(test)]` code is exempt, like every other cocolint rule.

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::lexer::{group_start, ident, is_punct, next_code, prev_code, TokKind, Token};
use crate::rules::{in_spans, Finding};
use std::collections::HashMap;

/// Atomic method names that take `Ordering` arguments.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Memory orderings, in no particular strength order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl Order {
    fn parse(s: &str) -> Option<Order> {
        Some(match s {
            "Relaxed" => Order::Relaxed,
            "Acquire" => Order::Acquire,
            "Release" => Order::Release,
            "AcqRel" => Order::AcqRel,
            "SeqCst" => Order::SeqCst,
            _ => return None,
        })
    }

    fn acquires(self) -> bool {
        matches!(self, Order::Acquire | Order::AcqRel | Order::SeqCst)
    }

    fn releases(self) -> bool {
        matches!(self, Order::Release | Order::AcqRel | Order::SeqCst)
    }
}

/// Access shapes, for deciding which side(s) of an edge a site is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Load,
    Store,
    /// `swap`/`fetch_*`: both a load and a store at one ordering.
    Rmw,
    /// `compare_exchange[_weak]`: orderings are (success, failure).
    Cas,
}

/// One classified atomic access site.
#[derive(Debug)]
struct Access {
    file: usize,
    line: u32,
    field: String,
    op: OpKind,
    method: String,
    orders: Vec<Order>,
}

impl Access {
    /// This site synchronizes-from a release store (acquire side).
    fn is_acquire_load(&self) -> bool {
        match self.op {
            OpKind::Store => false,
            _ => self.orders.iter().any(|o| o.acquires()),
        }
    }

    /// This site can head a synchronizes-with edge (release side).
    fn is_release_store(&self) -> bool {
        match self.op {
            OpKind::Load => false,
            // CAS: only the success ordering applies to the store.
            OpKind::Cas => self.orders.first().is_some_and(|o| o.releases()),
            _ => self.orders.iter().any(|o| o.releases()),
        }
    }

    /// A store/RMW whose write is unordered (needs `LINT: relaxed`
    /// when the field is Acquire-loaded elsewhere). CAS is exempt —
    /// see the module docs on the election idiom.
    fn is_relaxed_store(&self) -> bool {
        match self.op {
            OpKind::Load | OpKind::Cas => false,
            OpKind::Store => self.orders.contains(&Order::Relaxed),
            OpKind::Rmw => self.orders.contains(&Order::Relaxed),
        }
    }

    fn has_seqcst(&self) -> bool {
        self.orders.contains(&Order::SeqCst)
    }
}

/// One discovered atomic declaration.
#[derive(Debug)]
struct Decl {
    file: usize,
    line: u32,
    field: String,
}

/// Walk back from the `.` before a method name to the receiver chain's
/// last plain identifier: `self.sides[idx].readers.fetch_add` →
/// `readers`, `self.head.0.load` → `head` (tuple projections and index
/// groups are skipped).
fn receiver_name(toks: &[Token], dot: usize) -> Option<String> {
    let mut j = prev_code(toks, dot)?;
    loop {
        match &toks[j].kind {
            TokKind::Ident(s) => return Some(s.clone()),
            // `.0` tuple projection: hop over it and its own dot.
            TokKind::Num(_) => {
                let d = prev_code(toks, j)?;
                if !is_punct(&toks[d], '.') {
                    return None;
                }
                j = prev_code(toks, d)?;
            }
            // `xs[i].load(...)`: skip the bracket group.
            TokKind::Punct(']') => j = prev_code(toks, group_start(toks, j))?,
            _ => return None,
        }
    }
}

/// Scan one file for atomic access sites (test spans excluded).
fn access_sites(graph: &CallGraph, file_idx: usize) -> Vec<Access> {
    let file = &graph.files[file_idx];
    let toks = &file.toks;
    let mut out = Vec::new();
    for k in 0..toks.len() {
        let Some(m) = ident(&toks[k]) else { continue };
        if !ATOMIC_METHODS.contains(&m) {
            continue;
        }
        let Some(p) = prev_code(toks, k) else {
            continue;
        };
        if !is_punct(&toks[p], '.') {
            continue;
        }
        let Some(open) = next_code(toks, k + 1) else {
            continue;
        };
        if !is_punct(&toks[open], '(') {
            continue;
        }
        if in_spans(&file.test_spans, toks[k].line) {
            continue;
        }
        // Argument window to the matching `)`: collect `Ordering::X`.
        let mut orders = Vec::new();
        let mut depth = 1usize;
        let mut j = open + 1;
        while j < toks.len() && depth > 0 {
            match &toks[j].kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => depth -= 1,
                TokKind::Ident(s) if s == "Ordering" => {
                    // `Ordering :: X`
                    if let Some(c1) = next_code(toks, j + 1) {
                        if is_punct(&toks[c1], ':') {
                            if let Some(c2) = next_code(toks, c1 + 1) {
                                if is_punct(&toks[c2], ':') {
                                    if let Some(oi) = next_code(toks, c2 + 1) {
                                        if let Some(o) = ident(&toks[oi]).and_then(Order::parse) {
                                            orders.push(o);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if orders.is_empty() {
            continue; // not an atomic access (no Ordering argument)
        }
        let Some(field) = receiver_name(toks, p) else {
            continue;
        };
        let op = match m {
            "load" => OpKind::Load,
            "store" => OpKind::Store,
            "compare_exchange" | "compare_exchange_weak" => OpKind::Cas,
            _ => OpKind::Rmw,
        };
        out.push(Access {
            file: file_idx,
            line: toks[k].line,
            field,
            op,
            method: m.to_string(),
            orders,
        });
    }
    out
}

/// Scan one file for atomic declarations: `name: ...Atomic*...` (struct
/// fields, fn params, struct-literal inits) and `let name = ...Atomic*`
/// bindings. Test spans excluded.
fn declarations(graph: &CallGraph, file_idx: usize) -> Vec<Decl> {
    let file = &graph.files[file_idx];
    let toks = &file.toks;
    /// How many code tokens after the `:`/`=` may separate the name
    /// from its `Atomic*` type (`CachePadded<AtomicUsize>`,
    /// `Arc<AtomicBool>`, `sync::AtomicUsize::new(...)`).
    const TYPE_WINDOW: usize = 8;
    let mut out = Vec::new();
    for k in 0..toks.len() {
        let Some(name) = ident(&toks[k]) else {
            continue;
        };
        if in_spans(&file.test_spans, toks[k].line) {
            continue;
        }
        let start = if name == "let" {
            // `let name = ...`
            let Some(ni) = next_code(toks, k + 1) else {
                continue;
            };
            let Some(_bound) = ident(&toks[ni]) else {
                continue;
            };
            let Some(eq) = next_code(toks, ni + 1) else {
                continue;
            };
            if !is_punct(&toks[eq], '=') {
                continue;
            }
            Some((ni, eq + 1))
        } else {
            // `name : Type`
            let Some(ci) = next_code(toks, k + 1) else {
                continue;
            };
            if !is_punct(&toks[ci], ':') {
                continue;
            }
            // `name ::` is a path, not a declaration.
            if next_code(toks, ci + 1).is_some_and(|n| is_punct(&toks[n], ':')) {
                continue;
            }
            Some((k, ci + 1))
        };
        let Some((name_i, mut j)) = start else {
            continue;
        };
        let mut seen = 0usize;
        let mut is_atomic = false;
        while seen < TYPE_WINDOW {
            let Some(ji) = next_code(toks, j) else { break };
            match &toks[ji].kind {
                TokKind::Punct(',')
                | TokKind::Punct(';')
                | TokKind::Punct('{')
                | TokKind::Punct('}')
                | TokKind::Punct(')') => break,
                TokKind::Ident(s) if s.starts_with("Atomic") => {
                    is_atomic = true;
                    break;
                }
                _ => {}
            }
            seen += 1;
            j = ji + 1;
        }
        if is_atomic {
            let field = ident(&toks[name_i]).unwrap_or_default().to_string();
            out.push(Decl {
                file: file_idx,
                line: toks[name_i].line,
                field,
            });
        }
    }
    out
}

/// Run the atomics pass. `test_fns` maps crate name → every `fn` name
/// found in that crate's sources and tests (for the protocol ↔ model
/// linkage). `Err` is configuration rot (a protocol naming a missing
/// crate/field/model), which must fail the run louder than findings.
pub fn check(
    graph: &CallGraph,
    cfg: &Config,
    test_fns: &HashMap<String, Vec<String>>,
) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();

    // Per-crate access sites and declarations over lock_free crates;
    // marker-rot scanning covers every parsed file regardless of tier
    // (an annotation in a non-lock-free crate would otherwise rot
    // silently).
    let mut accesses: Vec<Access> = Vec::new();
    let mut decls: Vec<Decl> = Vec::new();
    for (file_idx, file) in graph.files.iter().enumerate() {
        let sites = access_sites(graph, file_idx);
        // Annotation rot: every relaxed/seqcst marker must still cover
        // a matching access.
        for marker in &file.relaxed_markers {
            let hit = sites
                .iter()
                .any(|a| a.is_relaxed_store() && marker.covers.contains(&a.line));
            if !hit {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: marker.line,
                    rule: "atomics-unused-marker",
                    message: "`// LINT: relaxed(...)` covers no Relaxed atomic store — \
                              the access moved or changed; remove or re-site the marker"
                        .to_string(),
                    chain: None,
                });
            }
        }
        for marker in &file.seqcst_markers {
            let hit = sites
                .iter()
                .any(|a| a.has_seqcst() && marker.covers.contains(&a.line));
            if !hit {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: marker.line,
                    rule: "atomics-unused-marker",
                    message: "`// LINT: seqcst(...)` covers no SeqCst atomic access — \
                              the access moved or changed; remove or re-site the marker"
                        .to_string(),
                    chain: None,
                });
            }
        }
        if cfg.lock_free.contains(&file.crate_name) {
            accesses.extend(sites);
            decls.extend(declarations(graph, file_idx));
        }
    }

    // Group accesses by (crate, field name).
    let mut groups: HashMap<(String, String), Vec<usize>> = HashMap::new();
    for (i, a) in accesses.iter().enumerate() {
        let krate = graph.files[a.file].crate_name.clone();
        groups.entry((krate, a.field.clone())).or_default().push(i);
    }

    // Pairing, relaxed-store, and seqcst rules per group.
    let mut group_keys: Vec<&(String, String)> = groups.keys().collect();
    group_keys.sort();
    for key in &group_keys {
        let sites = &groups[*key];
        let (krate, field) = (&key.0, &key.1);
        let has_acquire = sites.iter().any(|&i| accesses[i].is_acquire_load());
        let has_release = sites.iter().any(|&i| accesses[i].is_release_store());
        if has_acquire && !has_release {
            let at = sites
                .iter()
                .map(|&i| &accesses[i])
                .find(|a| a.is_acquire_load())
                .expect("has_acquire implies a site");
            findings.push(Finding {
                file: graph.files[at.file].path.clone(),
                line: at.line,
                rule: "atomics-unpaired",
                message: format!(
                    "`{field}` ({krate}) is Acquire-loaded but has no Release-or-stronger \
                     store anywhere — the load synchronizes with nothing; strengthen the \
                     store side or relax the load"
                ),
                chain: None,
            });
        }
        if has_release && !has_acquire {
            let at = sites
                .iter()
                .map(|&i| &accesses[i])
                .find(|a| a.is_release_store())
                .expect("has_release implies a site");
            findings.push(Finding {
                file: graph.files[at.file].path.clone(),
                line: at.line,
                rule: "atomics-unpaired",
                message: format!(
                    "`{field}` ({krate}) is Release-stored but never Acquire-loaded — \
                     nothing synchronizes with the store; strengthen the load side or \
                     relax the store"
                ),
                chain: None,
            });
        }
        if has_acquire {
            for &i in sites.iter() {
                let a = &accesses[i];
                if !a.is_relaxed_store() {
                    continue;
                }
                let file = &graph.files[a.file];
                let annotated = file
                    .relaxed_markers
                    .iter()
                    .any(|m| m.covers.contains(&a.line));
                if !annotated {
                    findings.push(Finding {
                        file: file.path.clone(),
                        line: a.line,
                        rule: "atomics-relaxed-store",
                        message: format!(
                            "Relaxed `{}` to `{field}` ({krate}), which is Acquire-loaded \
                             elsewhere — readers may never observe this write's effects in \
                             order; use Release, or annotate with `// LINT: relaxed(reason)`",
                            a.method
                        ),
                        chain: None,
                    });
                }
            }
        }
        for &i in sites.iter() {
            let a = &accesses[i];
            if !a.has_seqcst() {
                continue;
            }
            let file = &graph.files[a.file];
            let annotated = file
                .seqcst_markers
                .iter()
                .any(|m| m.covers.contains(&a.line));
            if !annotated {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: a.line,
                    rule: "atomics-seqcst",
                    message: format!(
                        "SeqCst `{}` on `{field}` ({krate}) without justification — \
                         SeqCst is only needed for store-buffering edges; document the \
                         edge with `// LINT: seqcst(reason)` or weaken the ordering",
                        a.method
                    ),
                    chain: None,
                });
            }
        }
    }

    // Protocol table validation (fatal: rot must not pass silently).
    for p in &cfg.protocols {
        if !cfg.lock_free.contains(&p.krate) {
            return Err(format!(
                "lint.toml:{}: [[atomics.protocol]] `{}` names crate `{}` which is not in \
                 the lock_free tier",
                p.line, p.name, p.krate
            ));
        }
        for field in &p.fields {
            let declared = decls
                .iter()
                .any(|d| graph.files[d.file].crate_name == p.krate && &d.field == field);
            if !declared {
                return Err(format!(
                    "lint.toml:{}: [[atomics.protocol]] `{}` names atomic field `{}` which \
                     is not declared in crate `{}` — remove or fix it (protocol rot)",
                    p.line, p.name, field, p.krate
                ));
            }
        }
        let model_exists = test_fns
            .get(&p.krate)
            .is_some_and(|fns| fns.iter().any(|f| f == &p.model));
        if !model_exists {
            return Err(format!(
                "lint.toml:{}: [[atomics.protocol]] `{}` names model test `{}` which does \
                 not exist in crate `{}` — the protocol is unverified (allowlist rot)",
                p.line, p.name, p.model, p.krate
            ));
        }
    }

    // Protocol membership: every field with real acquire/release edges
    // must belong to a named protocol.
    let mut seen_fields: Vec<(String, String)> = Vec::new();
    for d in &decls {
        let krate = graph.files[d.file].crate_name.clone();
        let key = (krate.clone(), d.field.clone());
        if seen_fields.contains(&key) {
            continue;
        }
        seen_fields.push(key.clone());
        let Some(sites) = groups.get(&key) else {
            continue; // declared but never accessed: dead code, not ours
        };
        let has_edges = sites.iter().any(|&i| accesses[i].is_acquire_load())
            || sites.iter().any(|&i| accesses[i].is_release_store());
        if !has_edges {
            continue; // pure Relaxed counters carry no protocol
        }
        let member = cfg
            .protocols
            .iter()
            .any(|p| p.krate == krate && p.fields.iter().any(|f| f == &d.field));
        if !member {
            findings.push(Finding {
                file: graph.files[d.file].path.clone(),
                line: d.line,
                rule: "atomics-protocol",
                message: format!(
                    "atomic `{}` ({krate}) participates in acquire/release edges but \
                     belongs to no [[atomics.protocol]] — add it to a named protocol in \
                     lint.toml with the model test that verifies it",
                    d.field
                ),
                chain: None,
            });
        }
    }

    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::config::Config;

    fn lock_free_graph(src: &str) -> (CallGraph, Config) {
        let mut g = CallGraph::default();
        crate::callgraph::parse_file(&mut g, "lf", "crates/lf/src/lib.rs", src);
        let cfg = Config {
            lock_free: vec!["lf".to_string()],
            ..Config::default()
        };
        (g, cfg)
    }

    fn run(src: &str) -> Vec<Finding> {
        let (g, cfg) = lock_free_graph(src);
        check(&g, &cfg, &HashMap::new()).unwrap()
    }

    #[test]
    fn paired_acquire_release_is_clean_but_needs_protocol() {
        let f = run("struct S { state: AtomicUsize }\n\
             impl S {\n\
                 fn get(&self) -> usize { self.state.load(Ordering::Acquire) }\n\
                 fn set(&self, v: usize) { self.state.store(v, Ordering::Release); }\n\
             }\n");
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "atomics-protocol");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn acquire_without_release_store_is_unpaired() {
        let f = run("struct S { state: AtomicUsize }\n\
             impl S {\n\
                 fn get(&self) -> usize { self.state.load(Ordering::Acquire) }\n\
                 fn set(&self, v: usize) { self.state.store(v, Ordering::Relaxed); }\n\
             }\n");
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"atomics-unpaired"), "{f:#?}");
        assert!(rules.contains(&"atomics-relaxed-store"), "{f:#?}");
        let unpaired = f.iter().find(|x| x.rule == "atomics-unpaired").unwrap();
        assert_eq!(unpaired.line, 3);
    }

    #[test]
    fn annotated_relaxed_store_is_accepted() {
        let f = run(
            "struct S { state: AtomicUsize, hint: AtomicUsize }\n\
             impl S {\n\
                 fn get(&self) -> usize { self.hint.load(Ordering::Acquire) }\n\
                 fn warm(&self) {\n\
                     self.hint.store(1, Ordering::Release);\n\
                     self.hint.store(0, Ordering::Relaxed); // LINT: relaxed(hint only, re-read with Acquire before use)\n\
                 }\n\
             }\n",
        );
        assert!(
            f.iter().all(|x| x.rule != "atomics-relaxed-store"),
            "{f:#?}"
        );
    }

    #[test]
    fn pure_relaxed_counters_are_exempt() {
        let f = run("struct S { hits: AtomicU64 }\n\
             impl S {\n\
                 fn hit(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
                 fn stats(&self) -> u64 { self.hits.load(Ordering::Relaxed) }\n\
             }\n");
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn seqcst_needs_annotation() {
        let f = run("struct S { idx: AtomicUsize }\n\
             impl S {\n\
                 fn flip(&self) { self.idx.store(1, Ordering::SeqCst); }\n\
                 // LINT: seqcst(store-buffering edge vs. the flip)\n\
                 fn re(&self) -> usize { self.idx.load(Ordering::SeqCst) }\n\
             }\n");
        // Marker above `fn re` covers lines 4-5, not the load on 5...
        // the load sits on line 5 which IS covered (standalone covers
        // own line + next): only the un-annotated store on line 3
        // should fire.
        let seq: Vec<u32> = f
            .iter()
            .filter(|x| x.rule == "atomics-seqcst")
            .map(|x| x.line)
            .collect();
        assert_eq!(seq, vec![3], "{f:#?}");
    }

    #[test]
    fn unused_ordering_markers_are_rot() {
        let f = run("// LINT: seqcst(nothing here any more)\n\
             fn idle() {}\n\
             // LINT: relaxed(stale)\n\
             fn also_idle() {}\n");
        let rot: Vec<u32> = f
            .iter()
            .filter(|x| x.rule == "atomics-unused-marker")
            .map(|x| x.line)
            .collect();
        assert_eq!(rot, vec![3, 1], "{f:#?}");
    }

    #[test]
    fn cas_election_idiom_is_not_a_relaxed_store() {
        let f = run(
            "struct S { state: AtomicUsize }\n\
             impl S {\n\
                 fn probe(&self) -> usize { self.state.load(Ordering::Acquire) }\n\
                 fn claim(&self) -> bool {\n\
                     self.state.compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed).is_ok()\n\
                 }\n\
                 fn publish(&self) { self.state.store(2, Ordering::Release); }\n\
             }\n",
        );
        assert!(
            f.iter().all(|x| x.rule != "atomics-relaxed-store"),
            "{f:#?}"
        );
        assert!(f.iter().all(|x| x.rule != "atomics-unpaired"), "{f:#?}");
    }

    #[test]
    fn receiver_attribution_walks_chains() {
        let f = run(
            "struct Shared { sides: [Side; 2], read_idx: AtomicUsize }\n\
             struct Side { readers: AtomicUsize }\n\
             impl Shared {\n\
                 fn pin(&self) -> usize {\n\
                     let idx = self.read_idx.load(Ordering::Acquire);\n\
                     self.sides[idx].readers.fetch_add(1, Ordering::Release);\n\
                     idx\n\
                 }\n\
                 fn drain(&self, idx: usize) -> usize {\n\
                     self.read_idx.store(idx, Ordering::Release);\n\
                     self.sides[idx].readers.load(Ordering::Acquire)\n\
                 }\n\
             }\n",
        );
        // Both fields are paired; only protocol membership fires.
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert_eq!(
            rules,
            vec!["atomics-protocol", "atomics-protocol"],
            "{f:#?}"
        );
    }

    #[test]
    fn protocol_membership_and_model_linkage() {
        let src = "struct S { state: AtomicUsize }\n\
             impl S {\n\
                 fn get(&self) -> usize { self.state.load(Ordering::Acquire) }\n\
                 fn set(&self, v: usize) { self.state.store(v, Ordering::Release); }\n\
             }\n";
        let (g, mut cfg) = lock_free_graph(src);
        cfg.protocols.push(crate::config::ProtocolEntry {
            name: "demo".to_string(),
            krate: "lf".to_string(),
            fields: vec!["state".to_string()],
            model: "state_handoff_is_race_free".to_string(),
            line: 1,
        });
        // Model test missing: fatal rot.
        let err = check(&g, &cfg, &HashMap::new()).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        // Model present: clean.
        let mut tests = HashMap::new();
        tests.insert(
            "lf".to_string(),
            vec!["state_handoff_is_race_free".to_string()],
        );
        let f = check(&g, &cfg, &tests).unwrap();
        assert!(f.is_empty(), "{f:#?}");
        // Protocol naming an unknown field: fatal rot.
        cfg.protocols[0].fields = vec!["missing".to_string()];
        let err = check(&g, &cfg, &tests).unwrap_err();
        assert!(err.contains("not declared"), "{err}");
    }

    #[test]
    fn test_code_is_exempt() {
        let f = run("#[cfg(test)]\n\
             mod tests {\n\
                 fn t() {\n\
                     let stop = AtomicBool::new(false);\n\
                     stop.store(true, Ordering::SeqCst);\n\
                 }\n\
             }\n");
        assert!(f.is_empty(), "{f:#?}");
    }
}
