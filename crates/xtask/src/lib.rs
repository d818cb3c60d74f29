//! `cocolint`: the workspace's static-analysis pass.
//!
//! Zero-dependency by design (the workspace builds offline): a small
//! Rust tokenizer ([`lexer`]), a TOML-subset policy reader ([`config`],
//! for `lint.toml` at the workspace root), a workspace walker
//! ([`workspace`]), and token-level rules ([`rules`]). Run as
//! `cargo run -p xtask -- lint`; CI and `scripts/verify.sh` treat any
//! finding as a failure.
//!
//! Policy overview (details in DESIGN.md, "Static analysis & model
//! checking"):
//! - every `unsafe` block anywhere carries a `// SAFETY:` argument;
//! - the data-plane crates (`lint.toml`'s `data_plane`) are panic-free,
//!   wall-clock-free, and use deterministic hashing in non-test code;
//! - crate roots carry the lint attributes their tier requires;
//! - exemptions live in `lint.toml` `[[allow]]` entries, each with a
//!   mandatory written reason, and an exemption that no longer
//!   suppresses anything is itself an error (allowlists must not rot).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomics;
pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod durability;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod taint;
pub mod workspace;

use rules::Finding;
use std::path::Path;
use std::time::{Duration, Instant};

/// Wall-clock spent in each lint phase, for `--timings` and for
/// keeping `scripts/verify.sh`'s lint budget honest.
#[derive(Debug, Default)]
pub struct PassTimings {
    /// Per-file token rules (safety comments, tier rules, crate attrs),
    /// including reading and tokenizing the `tests/`, `benches/` and
    /// `examples/` files.
    pub per_file: Duration,
    /// Call-graph construction, including reading and tokenizing every
    /// `src/` file (the per-file rules reuse those tokens).
    pub callgraph: Duration,
    /// Interprocedural dataflow (panic/overflow/hot-alloc/markers).
    pub dataflow: Duration,
    /// Atomic-ordering protocol checker.
    pub atomics: Duration,
    /// Untrusted-input taint analysis.
    pub taint: Duration,
    /// Durability-protocol checker (commit funnels, fsync pairing,
    /// dropped `io::Result`s, lock discipline).
    pub durability: Duration,
}

impl PassTimings {
    /// Render one line per phase, `name<TAB>millis`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, d) in [
            ("per-file", self.per_file),
            ("callgraph", self.callgraph),
            ("dataflow", self.dataflow),
            ("atomics", self.atomics),
            ("taint", self.taint),
            ("durability", self.durability),
        ] {
            out.push_str(&format!("{name}\t{:.1}ms\n", d.as_secs_f64() * 1e3));
        }
        out
    }
}

/// Run the full lint over the workspace at `root` (the directory
/// containing `lint.toml` and `crates/`). Returns surviving findings;
/// `Err` is reserved for configuration/IO failures, which must fail
/// the run louder than any finding.
pub fn run_lint(root: &Path) -> Result<Vec<Finding>, String> {
    run_lint_with_timings(root).map(|(f, _)| f)
}

/// [`run_lint`], also reporting per-phase wall-clock timings.
pub fn run_lint_with_timings(root: &Path) -> Result<(Vec<Finding>, PassTimings), String> {
    let cfg_text = std::fs::read_to_string(root.join("lint.toml"))
        .map_err(|e| format!("cannot read lint.toml: {e}"))?;
    let cfg = config::parse(&cfg_text)?;
    let crates = workspace::discover(root)?;

    let known: Vec<&str> = crates.iter().map(|c| c.name.as_str()).collect();
    for tier in [
        &cfg.data_plane,
        &cfg.forbid_unsafe,
        &cfg.deny_unsafe,
        &cfg.lock_free,
        &cfg.durability_crates,
    ] {
        for name in tier {
            if !known.contains(&name.as_str()) {
                return Err(format!(
                    "lint.toml names unknown crate `{name}` (workspace has: {})",
                    known.join(", ")
                ));
            }
        }
    }
    for name in &cfg.forbid_unsafe {
        if cfg.deny_unsafe.contains(name) {
            return Err(format!(
                "lint.toml lists `{name}` in both forbid_unsafe and deny_unsafe"
            ));
        }
    }

    let mut timings = PassTimings::default();
    // The call graph comes first: it reads and tokenizes every `src/`
    // file, once, and the per-file rules below run on its tokens.
    let t0 = Instant::now();
    let (src_files, other_files): (Vec<_>, Vec<_>) = crates
        .iter()
        .map(|krate| workspace::rust_files(root, krate))
        .unzip();
    let graph = callgraph::build(root, &crates, &src_files)?;
    timings.callgraph = t0.elapsed();

    let t0 = Instant::now();
    let mut findings = Vec::new();
    // (file, line) pairs the per-file panic-path rule reports; the
    // transitive rule skips them so one unwrap is never two findings.
    let mut panic_path_sites: Vec<(String, u32)> = Vec::new();
    // crate name -> every fn name in its sources AND tests/benches,
    // for the atomics pass's protocol <-> model-test linkage (loom
    // models live under tests/, which the call graph does not parse).
    let mut test_fns: std::collections::HashMap<String, Vec<String>> =
        std::collections::HashMap::new();
    for (krate, other) in crates.iter().zip(&other_files) {
        let is_data_plane = cfg.data_plane.contains(&krate.name);
        let is_lock_free = cfg.lock_free.contains(&krate.name);
        let parsed: Vec<&callgraph::ParsedFile> = graph
            .files
            .iter()
            .filter(|f| f.crate_name == krate.name)
            .collect();
        let fns = test_fns.entry(krate.name.clone()).or_default();
        for file in &parsed {
            fn_names(&file.toks, fns);
            findings.extend(rules::safety_comment(&file.path, &file.toks));
            if is_data_plane {
                let dp = rules::data_plane_rules(Path::new(&file.path), &file.toks);
                panic_path_sites.extend(
                    dp.iter()
                        .filter(|f| f.rule == "panic-path")
                        .map(|f| (f.file.clone(), f.line)),
                );
                findings.extend(dp);
            }
            if is_lock_free {
                findings.extend(rules::lock_free_rules(Path::new(&file.path), &file.toks));
            }
        }
        for rel in other {
            let toks = lexer::tokenize(&workspace::read_source(root, rel)?);
            fn_names(&toks, fns);
            findings.extend(rules::safety_comment(&workspace::display_path(rel), &toks));
        }
        // Crate-root attributes per tier.
        let root_file = ["src/lib.rs", "src/main.rs"].iter().find_map(|candidate| {
            let name = workspace::display_path(&krate.dir.join(candidate));
            parsed.iter().find(|f| f.path == name)
        });
        if let Some(file) = root_file {
            let mut need: Vec<(&str, &str)> = Vec::new();
            if cfg.forbid_unsafe.contains(&krate.name) {
                need.push(("forbid", "unsafe_code"));
            }
            if cfg.deny_unsafe.contains(&krate.name) {
                need.push(("deny", "unsafe_code"));
            }
            if is_data_plane {
                need.push(("deny", "unsafe_op_in_unsafe_fn"));
                need.push(("warn", "missing_docs"));
            }
            for (level, lint_name) in need {
                findings.extend(rules::require_crate_attr(
                    &file.path, &file.toks, level, lint_name,
                ));
            }
        }
    }
    timings.per_file = t0.elapsed();

    // Interprocedural passes over the graph.
    let df_cfg = dataflow::DataflowConfig {
        data_plane: cfg.data_plane.clone(),
        counters: cfg.overflow_counters.clone(),
        hot_extra: cfg.hot_extra.clone(),
    };
    graph.named("[hot] extra", &cfg.hot_extra)?;
    let covered = |file: &str, line: u32| {
        panic_path_sites
            .iter()
            .any(|(f, l)| f == file && *l == line)
    };
    let t0 = Instant::now();
    findings.extend(dataflow::transitive_panic(&graph, &df_cfg, &covered));
    findings.extend(dataflow::overflow(&graph, &df_cfg));
    findings.extend(dataflow::hot_alloc(&graph, &df_cfg));
    findings.extend(dataflow::marker_errors(&graph));
    timings.dataflow = t0.elapsed();

    // v3 passes: atomic-ordering protocols and untrusted-input taint.
    let t0 = Instant::now();
    findings.extend(atomics::check(&graph, &cfg, &test_fns)?);
    timings.atomics = t0.elapsed();
    let taint_cfg = taint::TaintConfig {
        sources: cfg.taint_sources.clone(),
        sanitizers: cfg.taint_sanitizers.clone(),
        length_idents: cfg.taint_length_idents.clone(),
    };
    let t0 = Instant::now();
    findings.extend(taint::check(&graph, &taint_cfg)?);
    timings.taint = t0.elapsed();

    // v4 pass: durability protocol (commit funnels, fsync-then-rename
    // pairing, dropped io::Results, lock discipline).
    let dur_cfg = durability::DurabilityConfig {
        crates: cfg.durability_crates.clone(),
        funnels: cfg.durability_funnels.clone(),
    };
    let t0 = Instant::now();
    findings.extend(durability::check(&graph, &dur_cfg)?);
    timings.durability = t0.elapsed();

    // Apply the allowlist; every entry must earn its keep. An entry
    // with a `chain` glob only covers findings whose call chain
    // matches it.
    let mut used = vec![false; cfg.allows.len()];
    findings.retain(|f| {
        for (idx, allow) in cfg.allows.iter().enumerate() {
            let chain_ok = allow.chain.is_empty()
                || f.chain
                    .as_deref()
                    .is_some_and(|c| config::glob_match(&allow.chain, c));
            if allow.file == f.file && allow.rule == f.rule && chain_ok {
                used[idx] = true;
                return false;
            }
        }
        true
    });
    for (idx, allow) in cfg.allows.iter().enumerate() {
        if !used[idx] {
            findings.push(Finding {
                file: "lint.toml".to_string(),
                line: allow.line,
                rule: "unused-allow",
                message: format!(
                    "[[allow]] for {} / {} suppresses nothing — remove it",
                    allow.file, allow.rule
                ),
                chain: None,
            });
        }
    }

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok((findings, timings))
}

/// Append the name of every `fn` item in `toks` to `out`.
fn fn_names(toks: &[lexer::Token], out: &mut Vec<String>) {
    for pair in toks.windows(2) {
        if lexer::ident(&pair[0]) == Some("fn") {
            if let Some(name) = lexer::ident(&pair[1]) {
                out.push(name.to_string());
            }
        }
    }
}
