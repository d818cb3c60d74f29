//! Durability-protocol checker over the [`crate::callgraph`].
//!
//! The epoch tier's crash-safety argument rests on a narrow protocol:
//! every file mutation flows through a handful of audited *commit
//! funnels* (`write_file_atomic` and the `EpochDir` entry points),
//! each funnel fsyncs before it renames, and no durable-tier code
//! silently discards an `io::Result`. `crashsim` verifies the protocol
//! holds schedule-by-schedule at runtime; this pass pins it statically
//! so a refactor cannot quietly open a new, unverified mutation path.
//!
//! | rule                       | what it rejects |
//! |----------------------------|-----------------|
//! | `durability-funnel`        | `rename` / `create` / `remove_file` / `write_all` reachable from a durability-crate `pub fn` without passing a declared funnel |
//! | `durability-sync`          | a handle `create`d and `write_all`'d, then `rename`d with no `sync_all` in between (torn-publish window) |
//! | `durability-drop`          | `.ok()` / `let _ =` discarding an `io::Result` in durable-tier code, unless annotated `// LINT: lossy(reason)` |
//! | `durability-unused-marker` | a `lossy` marker that justifies no dropped result (annotation rot) |
//! | `durability-lock`          | a second `Mutex` acquired (directly or transitively) while one is held |
//!
//! Scope: `[durability] crates` from `lint.toml`, non-test spans only.
//! The funnel rule generalizes the invariant-funnel discipline from
//! the panic pass: funnels are *absorbing* — reachability stops at
//! them, and their own bodies are exempt, because the funnel body is
//! exactly the audited code `crashsim` enumerates. Funnel entries that
//! match no workspace fn are fatal configuration rot, same as `[taint]
//! sources`: a renamed funnel must not silently disable the policy.

use crate::callgraph::CallGraph;
use crate::lexer::{group_start, ident, is_punct, next_code, prev_code, TokKind, Token};
use crate::rules::{in_spans, Finding};

/// Configuration slice for the durability pass (from `lint.toml`
/// `[durability]`).
#[derive(Debug, Clone, Default)]
pub struct DurabilityConfig {
    /// Crates whose non-test code the rules apply to.
    pub crates: Vec<String>,
    /// Qualified-path suffixes of the commit funnels.
    pub funnels: Vec<String>,
}

/// Call names that mutate the filesystem. Reaching one of these
/// outside a funnel is a new, unaudited commit path.
const MUTATION_CALLS: &[&str] = &["rename", "create", "remove_file", "write_all"];

/// Call names returning `io::Result` whose silent discard loses a
/// write error. `write!` is not in scope: the `!` makes it a macro,
/// not a call site, and durable-tier code does not format to disk.
const IO_RESULT_CALLS: &[&str] = &[
    "write_all",
    "write",
    "sync_all",
    "sync_data",
    "sync_dir",
    "flush",
    "rename",
    "remove_file",
    "create",
    "create_dir_all",
    "remove_dir_all",
    "set_len",
];

/// Lock acquisition call names. `RwLock::read`/`write` are too
/// ambiguous for name-based matching; the durable tier uses `Mutex`.
const LOCK_CALLS: &[&str] = &["lock", "try_lock"];

/// Run the durability pass. `Err` is configuration rot: a `[durability]
/// funnels` suffix naming no workspace fn means a funnel was renamed
/// and the reachability fence silently moved.
pub fn check(graph: &CallGraph, cfg: &DurabilityConfig) -> Result<Vec<Finding>, String> {
    if cfg.crates.is_empty() {
        return Ok(Vec::new());
    }
    let funnel = graph.named("[durability] funnels", &cfg.funnels)?;

    let mut findings = Vec::new();
    findings.extend(funnel_rule(graph, cfg, &funnel));
    findings.extend(sync_rule(graph, cfg));
    findings.extend(drop_rules(graph, cfg));
    findings.extend(lock_rule(graph, cfg));
    Ok(findings)
}

/// The durability crates' `pub fn`s: where the funnel and sync rules'
/// walks start.
fn pub_fns<'g>(
    graph: &'g CallGraph,
    cfg: &'g DurabilityConfig,
) -> impl Iterator<Item = usize> + 'g {
    (0..graph.fns.len()).filter(|&idx| {
        let f = &graph.fns[idx];
        f.is_pub && cfg.crates.contains(&f.crate_name)
    })
}

// ---------------------------------------------------------------------
// durability-funnel
// ---------------------------------------------------------------------

/// Walk from every non-funnel `pub fn` of the durability crates;
/// funnels are absorbing (never entered, bodies exempt). Any visited
/// fn containing a [`MUTATION_CALLS`] call site is a commit path that
/// bypasses the audited funnels.
fn funnel_rule(graph: &CallGraph, cfg: &DurabilityConfig, funnel: &[bool]) -> Vec<Finding> {
    let entries = pub_fns(graph, cfg).filter(|&idx| !funnel[idx]);
    let walk = graph.walk(entries, |_, _, callee| !funnel[callee]);

    let mut findings = Vec::new();
    for (idx, f) in graph.fns.iter().enumerate() {
        if !walk.reached(idx) {
            continue;
        }
        let file = &graph.files[f.file];
        let chain = walk.chain(graph, idx);
        for &ci in &graph.edges[idx] {
            let call = &graph.calls[ci];
            if !MUTATION_CALLS.contains(&call.name.as_str())
                || in_spans(&file.test_spans, call.line)
            {
                continue;
            }
            findings.push(Finding {
                file: file.path.clone(),
                line: call.line,
                rule: "durability-funnel",
                message: format!(
                    "`{}` in `{}` mutates the filesystem outside the declared commit \
                     funnels — route it through a `[durability] funnels` fn (crashsim \
                     only verifies the funnels)",
                    call.name, f.qualified
                ),
                chain: Some(chain.clone()),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// durability-sync
// ---------------------------------------------------------------------

/// One file handle created inside the fn under scan.
struct Handle {
    name: String,
    /// Has an un-`sync_all`'d `write_all` (torn-publish candidate).
    dirty: bool,
}

/// Per-fn token scan: a handle obtained from a `create(...)` call,
/// written with `write_all`, must see `sync_all` on the same handle
/// before any `rename(...)` in the fn — otherwise the rename can
/// publish a name whose bytes never reached the platter.
fn sync_rule(graph: &CallGraph, cfg: &DurabilityConfig) -> Vec<Finding> {
    // Chains for the report: plain reachability from the durability
    // crates' pub fns, funnels *not* absorbing, so a broken funnel body
    // shows the entry path that trusts it.
    let walk = graph.walk(pub_fns(graph, cfg), |_, _, _| true);

    let mut findings = Vec::new();
    for (idx, f) in graph.fns.iter().enumerate() {
        if f.in_test || !cfg.crates.contains(&f.crate_name) {
            continue;
        }
        let file = &graph.files[f.file];
        let toks = &file.toks;
        let end = f.body.1.min(toks.len());
        let mut handles: Vec<Handle> = Vec::new();
        let mut k = f.body.0;
        while k < end {
            let tok = &toks[k];
            if in_spans(&file.test_spans, tok.line) {
                k += 1;
                continue;
            }
            match ident(tok) {
                // `let [mut] h = ... create(...) ...;` registers `h`.
                Some("let") => {
                    let Some(mut j) = next_code(toks, k + 1) else {
                        break;
                    };
                    if ident(&toks[j]) == Some("mut") {
                        let Some(n) = next_code(toks, j + 1) else {
                            break;
                        };
                        j = n;
                    }
                    let Some(name) = ident(&toks[j]) else {
                        k += 1;
                        continue;
                    };
                    if statement_call(toks, j + 1, end, |s| s == "create").is_some() {
                        handles.push(Handle {
                            name: name.to_string(),
                            dirty: false,
                        });
                    }
                    k = j + 1;
                }
                // `h.write_all(` / `h.sync_all(` updates the handle.
                Some(name) if handles.iter().any(|h| h.name == name) => {
                    if let Some(d) = next_code(toks, k + 1) {
                        if is_punct(&toks[d], '.') {
                            if let Some(m) = next_code(toks, d + 1) {
                                let h = handles.iter_mut().find(|h| h.name == name).unwrap();
                                match ident(&toks[m]) {
                                    Some("write_all") | Some("write") => h.dirty = true,
                                    Some("sync_all") | Some("sync_data") => h.dirty = false,
                                    _ => {}
                                }
                            }
                        }
                    }
                    k += 1;
                }
                // `rename(` with a dirty handle in scope is the bug.
                Some("rename") => {
                    let is_call = next_code(toks, k + 1).is_some_and(|p| is_punct(&toks[p], '('))
                        && !prev_code(toks, k).is_some_and(|p| ident(&toks[p]) == Some("fn"));
                    if is_call {
                        for h in handles.iter_mut().filter(|h| h.dirty) {
                            findings.push(Finding {
                                file: file.path.clone(),
                                line: tok.line,
                                rule: "durability-sync",
                                message: format!(
                                    "`rename` in `{}` publishes `{}` without `sync_all` \
                                     after its last write — a crash can surface the new \
                                     name with torn or missing bytes; fsync the handle \
                                     before renaming",
                                    f.qualified, h.name
                                ),
                                chain: walk.reached(idx).then(|| walk.chain(graph, idx)),
                            });
                            // One report per broken pairing, not per
                            // subsequent rename.
                            h.dirty = false;
                        }
                    }
                    k += 1;
                }
                _ => k += 1,
            }
        }
    }
    findings
}

/// The first call `name(...)` whose `name` satisfies `wanted` in the
/// statement from `from` to its `;` at bracket depth 0 (or to `end`).
fn statement_call(
    toks: &[Token],
    from: usize,
    end: usize,
    wanted: impl Fn(&str) -> bool,
) -> Option<&str> {
    let mut depth = 0i32;
    for m in from..end {
        match &toks[m].kind {
            TokKind::Punct('(' | '{' | '[') => depth += 1,
            TokKind::Punct(')' | '}' | ']') => depth -= 1,
            TokKind::Punct(';') if depth <= 0 => return None,
            TokKind::Ident(s)
                if wanted(s) && next_code(toks, m + 1).is_some_and(|p| is_punct(&toks[p], '(')) =>
            {
                return Some(s);
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------
// durability-drop + durability-unused-marker
// ---------------------------------------------------------------------

/// Scan durability-crate files for silently discarded `io::Result`s:
/// `.ok()` directly on an [`IO_RESULT_CALLS`] call, and `let _ =`
/// statements whose initializer contains one. A `// LINT:
/// lossy(reason)` marker covering the line exempts it; markers that
/// exempt nothing are themselves flagged (annotation rot).
fn drop_rules(graph: &CallGraph, cfg: &DurabilityConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &graph.files {
        if !cfg.crates.contains(&file.crate_name) {
            continue;
        }
        let toks = &file.toks;
        let covered = |line: u32| {
            file.lossy_markers
                .iter()
                .find(|m| m.covers.contains(&line))
                .map(|m| m.line)
        };
        let mut used_markers: Vec<u32> = Vec::new();
        let mut drop_site = |line: u32, what: &str, findings: &mut Vec<Finding>| {
            if let Some(marker_line) = covered(line) {
                used_markers.push(marker_line);
                return;
            }
            findings.push(Finding {
                file: file.path.clone(),
                line,
                rule: "durability-drop",
                message: format!(
                    "dropped `io::Result` of `{what}` in durable-tier code — a swallowed \
                     write error is silent data loss; handle it or annotate the line \
                     with `// LINT: lossy(reason)`"
                ),
                chain: None,
            });
        };

        for (i, tok) in toks.iter().enumerate() {
            if in_spans(&file.test_spans, tok.line) {
                continue;
            }
            match ident(tok) {
                // `<io call>(...).ok()`
                Some("ok") => {
                    let Some(open) = next_code(toks, i + 1) else {
                        continue;
                    };
                    let close = next_code(toks, open + 1);
                    if !is_punct(&toks[open], '(')
                        || !close.is_some_and(|c| is_punct(&toks[c], ')'))
                    {
                        continue;
                    }
                    let Some(dot) = prev_code(toks, i) else {
                        continue;
                    };
                    if !is_punct(&toks[dot], '.') {
                        continue;
                    }
                    // The receiver must be a completed call `name(...)`:
                    // match the `)` before the dot back to its `(`.
                    let Some(mut p) = prev_code(toks, dot) else {
                        continue;
                    };
                    // Tolerate `?` between the call and `.ok()`.
                    if is_punct(&toks[p], '?') {
                        let Some(q) = prev_code(toks, p) else {
                            continue;
                        };
                        p = q;
                    }
                    if !is_punct(&toks[p], ')') {
                        continue;
                    }
                    let Some(callee) = prev_code(toks, group_start(toks, p)) else {
                        continue;
                    };
                    if let Some(name) = ident(&toks[callee]) {
                        if IO_RESULT_CALLS.contains(&name) {
                            drop_site(tok.line, name, &mut findings);
                        }
                    }
                }
                // `let _ = <expr containing an io call>;`
                Some("let") => {
                    let Some(u) = next_code(toks, i + 1) else {
                        continue;
                    };
                    if ident(&toks[u]) != Some("_") {
                        continue;
                    }
                    let Some(eq) = next_code(toks, u + 1) else {
                        continue;
                    };
                    if !is_punct(&toks[eq], '=') {
                        continue;
                    }
                    let io_call = |s: &str| IO_RESULT_CALLS.contains(&s);
                    if let Some(name) = statement_call(toks, eq + 1, toks.len(), io_call) {
                        drop_site(tok.line, name, &mut findings);
                    }
                }
                _ => {}
            }
        }

        for marker in &file.lossy_markers {
            if in_spans(&file.test_spans, marker.line) || used_markers.contains(&marker.line) {
                continue;
            }
            findings.push(Finding {
                file: file.path.clone(),
                line: marker.line,
                rule: "durability-unused-marker",
                message: "`LINT: lossy` marker covers no dropped `io::Result` — the code \
                          it justified is gone; remove the stale annotation"
                    .to_string(),
                chain: None,
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// durability-lock
// ---------------------------------------------------------------------

/// From every durability-crate fn that acquires a lock, walk its
/// non-lock call edges; reaching a *different* fn that also acquires
/// one means two `Mutex`es can be held at once — the deadlock shape
/// the poisoning/compaction protocol forbids. Self-loop edges are
/// skipped: broad method resolution maps `guard.append(..)` back onto
/// the caller itself, which holds one lock, not two.
fn lock_rule(graph: &CallGraph, cfg: &DurabilityConfig) -> Vec<Finding> {
    // First lock-acquisition line per fn, outside test spans.
    let acq: Vec<Option<u32>> = graph
        .fns
        .iter()
        .enumerate()
        .map(|(idx, f)| {
            if f.in_test {
                return None;
            }
            let file = &graph.files[f.file];
            graph.edges[idx]
                .iter()
                .map(|&ci| &graph.calls[ci])
                .find(|c| {
                    LOCK_CALLS.contains(&c.name.as_str()) && !in_spans(&file.test_spans, c.line)
                })
                .map(|c| c.line)
        })
        .collect();

    let mut findings = Vec::new();
    for (root, f) in graph.fns.iter().enumerate() {
        let Some(held) = acq[root] else { continue };
        if !cfg.crates.contains(&f.crate_name) {
            continue;
        }
        let walk = graph.walk([root], |at, call, _| {
            // A reached fn that itself acquires is reported and not
            // expanded: code beyond it runs under *its* lock and is
            // analyzed with it as the root.
            (at == root || acq[at].is_none())
                && !LOCK_CALLS.contains(&call.name.as_str())
                // Follow only precisely-resolved edges: bare-`self`
                // methods and free/path calls. Broad method resolution
                // (any same-named in-impl fn) is fine for rare sinks
                // like panics, but lock acquisition hides behind
                // ubiquitous accessor names (`len`, `covers`), and
                // `guard.len()` must not become an edge into every
                // type with a `len`.
                && (!call.is_method || call.self_recv)
        });
        for &at in &walk.order[1..] {
            let Some(line) = acq[at] else { continue };
            let g = &graph.fns[at];
            findings.push(Finding {
                file: graph.files[g.file].path.clone(),
                line,
                rule: "durability-lock",
                message: format!(
                    "`{}` acquires a lock while `{}` (line {held}) already holds one — \
                     nested Mutex acquisition deadlocks under contention; release \
                     the first guard before calling down",
                    g.qualified, f.qualified,
                ),
                chain: Some(walk.chain(graph, at)),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn demo_cfg() -> DurabilityConfig {
        DurabilityConfig {
            crates: vec!["store".to_string()],
            funnels: vec!["disk::commit".to_string()],
        }
    }

    fn graph(store_src: &str) -> CallGraph {
        let mut g = CallGraph::default();
        crate::callgraph::parse_file(&mut g, "store", "crates/store/src/disk.rs", store_src);
        let crates = vec![crate::workspace::CrateInfo {
            name: "store".into(),
            dir: "crates/store".into(),
            deps: vec![],
        }];
        crate::callgraph::resolve(&mut g, &crates);
        g
    }

    const CLEAN_FUNNEL: &str = "\
        pub fn publish(data: &[u8]) -> io::Result<()> { commit(data) }\n\
        fn commit(data: &[u8]) -> io::Result<()> {\n\
            let mut f = fs.create(tmp)?;\n\
            f.write_all(data)?;\n\
            f.sync_all()?;\n\
            fs.rename(tmp, dst)\n\
        }\n";

    #[test]
    fn missing_funnel_is_fatal_rot() {
        let g = graph("pub fn publish() {}");
        let err = check(&g, &demo_cfg()).unwrap_err();
        assert!(err.contains("matches no workspace fn"), "{err}");
    }

    #[test]
    fn clean_funnel_protocol_passes() {
        let g = graph(CLEAN_FUNNEL);
        let f = check(&g, &demo_cfg()).unwrap();
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn rogue_rename_outside_the_funnel_is_flagged_with_chain() {
        let src = "\
            pub fn publish(data: &[u8]) -> io::Result<()> { commit(data) }\n\
            fn commit(data: &[u8]) -> io::Result<()> { fs::rename(a, b) }\n";
        let cfg = DurabilityConfig {
            crates: vec!["store".to_string()],
            funnels: vec!["disk::publish".to_string()],
        };
        // `publish` is the funnel here, so `commit`'s rename is fine —
        // but only when reached through it. Add a second entry that
        // skips the funnel:
        let src2 = format!("{src}pub fn sidedoor() -> io::Result<()> {{ commit(&[]) }}\n");
        let f = check(&graph(src), &cfg).unwrap();
        assert!(f.is_empty(), "{f:#?}");
        let f = check(&graph(&src2), &cfg).unwrap();
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "durability-funnel");
        assert_eq!(f[0].line, 2);
        assert_eq!(
            f[0].chain.as_deref().unwrap(),
            "store::disk::sidedoor -> store::disk::commit"
        );
    }

    #[test]
    fn broken_sync_rename_pairing_is_flagged() {
        let src = "\
            pub fn publish(data: &[u8]) -> io::Result<()> { commit(data) }\n\
            fn commit(data: &[u8]) -> io::Result<()> {\n\
                let mut f = fs.create(tmp)?;\n\
                f.write_all(data)?;\n\
                fs.rename(tmp, dst)\n\
            }\n";
        let f = check(&graph(src), &demo_cfg()).unwrap();
        let sync: Vec<_> = f.iter().filter(|f| f.rule == "durability-sync").collect();
        assert_eq!(sync.len(), 1, "{f:#?}");
        assert_eq!(sync[0].line, 5);
        assert_eq!(
            sync[0].chain.as_deref().unwrap(),
            "store::disk::publish -> store::disk::commit"
        );
    }

    #[test]
    fn dropped_io_results_require_a_lossy_marker() {
        let src = "\
            pub fn publish(data: &[u8]) -> io::Result<()> { commit(data) }\n\
            fn commit(data: &[u8]) -> io::Result<()> {\n\
                let mut f = fs.create(tmp)?;\n\
                f.write_all(data)?;\n\
                f.sync_all()?;\n\
                fs.rename(tmp, dst)?;\n\
                let _ = fs.sync_dir(root);\n\
                fs.remove_file(tmp).ok();\n\
                sync_dir(root).ok(); // LINT: lossy(best effort, reopen adopts)\n\
                Ok(())\n\
            }\n";
        let f = check(&graph(src), &demo_cfg()).unwrap();
        let drops: Vec<_> = f.iter().filter(|f| f.rule == "durability-drop").collect();
        assert_eq!(drops.len(), 2, "{f:#?}");
        assert_eq!(drops[0].line, 7);
        assert_eq!(drops[1].line, 8);
        assert!(!f.iter().any(|f| f.rule == "durability-unused-marker"));
    }

    #[test]
    fn stale_lossy_marker_is_rot() {
        let src = "\
            pub fn publish(data: &[u8]) -> io::Result<()> { commit(data) }\n\
            fn commit(data: &[u8]) -> io::Result<()> {\n\
                // LINT: lossy(this used to cover a sync_dir drop)\n\
                let x = 1;\n\
                let _ = x;\n\
                commit_inner(data)\n\
            }\n\
            fn commit_inner(data: &[u8]) -> io::Result<()> {\n\
                let mut f = fs.create(tmp)?;\n\
                f.write_all(data)?;\n\
                f.sync_all()?;\n\
                fs.rename(tmp, dst)\n\
            }\n";
        let cfg = DurabilityConfig {
            crates: vec!["store".to_string()],
            funnels: vec!["disk::commit".to_string()],
        };
        let f = check(&graph(src), &cfg).unwrap();
        let rot: Vec<_> = f
            .iter()
            .filter(|f| f.rule == "durability-unused-marker")
            .collect();
        assert_eq!(rot.len(), 1, "{f:#?}");
        assert_eq!(rot[0].line, 3);
    }

    #[test]
    fn nested_lock_is_flagged_with_chain() {
        let src = "\
            pub struct A { m: Mutex<u32> }\n\
            impl A {\n\
                pub fn outer(&self) {\n\
                    let g = self.m.lock().unwrap();\n\
                    helper(*g);\n\
                }\n\
            }\n\
            fn helper(v: u32) { inner(v) }\n\
            fn inner(v: u32) {\n\
                let g = OTHER.lock().unwrap();\n\
            }\n";
        let g = graph(src);
        let f = check(&g, &demo_cfg());
        // `disk::commit` funnel is absent in this source; use a cfg
        // with a funnel that exists.
        let cfg = DurabilityConfig {
            crates: vec!["store".to_string()],
            funnels: vec!["disk::helper".to_string()],
        };
        let f = f.err().map(|_| check(&g, &cfg).unwrap()).unwrap();
        let locks: Vec<_> = f.iter().filter(|f| f.rule == "durability-lock").collect();
        assert_eq!(locks.len(), 1, "{f:#?}");
        assert_eq!(locks[0].line, 10);
        assert_eq!(
            locks[0].chain.as_deref().unwrap(),
            "store::disk::A::outer -> store::disk::helper -> store::disk::inner"
        );
    }

    #[test]
    fn single_lock_paths_are_clean() {
        let src = "\
            pub struct A { m: Mutex<u32> }\n\
            impl A {\n\
                pub fn outer(&self) -> u32 { *self.m.lock().unwrap() }\n\
                pub fn twice(&self) -> u32 { self.outer() + self.outer() }\n\
            }\n";
        let cfg = DurabilityConfig {
            crates: vec!["store".to_string()],
            funnels: vec!["A::outer".to_string()],
        };
        let f = check(&graph(src), &cfg).unwrap();
        assert!(f.is_empty(), "{f:#?}");
    }
}
