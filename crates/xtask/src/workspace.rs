//! Workspace discovery: find member crates and their Rust sources
//! without depending on cargo metadata (offline, zero deps).

use std::path::{Path, PathBuf};

/// One workspace member.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name from `Cargo.toml` (what `lint.toml` tiers name).
    pub name: String,
    /// Crate directory, relative to the workspace root.
    pub dir: PathBuf,
    /// Direct dependency names from `[dependencies]` (the call-graph
    /// resolver only lets a crate call into crates it depends on).
    pub deps: Vec<String>,
}

/// Discover member crates by globbing `crates/*/Cargo.toml` (the shape
/// this workspace's root manifest declares).
pub fn discover(root: &Path) -> Result<Vec<CrateInfo>, String> {
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let manifest = entry.path().join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
        let name = package_name(&text)
            .ok_or_else(|| format!("{}: no `name = \"...\"` in [package]", manifest.display()))?;
        found.push(CrateInfo {
            name,
            dir: PathBuf::from("crates").join(entry.file_name()),
            deps: dependency_names(&text),
        });
    }
    found.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(found)
}

/// Extract `name = "..."` from a manifest's `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            if key.trim() == "name" {
                let v = value.trim().trim_matches('"');
                return Some(v.to_string());
            }
        }
    }
    None
}

/// Dependency names from every `[dependencies]` /
/// `[dev-dependencies]` / `[build-dependencies]` section of a
/// manifest. Dev-deps are included because the call graph also walks
/// test helpers; over-approximating the dep set only widens candidate
/// resolution, never hides an edge.
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut in_deps = false;
    let mut deps = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]"
                || line == "[dev-dependencies]"
                || line == "[build-dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((key, _)) = line.split_once('=') {
            deps.push(key.trim().trim_matches('"').to_string());
        }
    }
    deps.sort();
    deps.dedup();
    deps
}

/// All `.rs` files of a crate, relative to the workspace root, split
/// into (src, other) where `other` covers `tests/`, `benches/`, and
/// `examples/`. Directories named `fixtures` or `target` are skipped —
/// lint fixtures contain violations on purpose.
pub fn rust_files(root: &Path, krate: &CrateInfo) -> (Vec<PathBuf>, Vec<PathBuf>) {
    let mut src = Vec::new();
    let mut other = Vec::new();
    for (sub, bucket) in [
        ("src", 0usize),
        ("tests", 1),
        ("benches", 1),
        ("examples", 1),
    ] {
        let dir = root.join(&krate.dir).join(sub);
        if dir.is_dir() {
            let mut files = Vec::new();
            walk(&dir, &mut files);
            for f in files {
                let rel = f.strip_prefix(root).unwrap_or(&f).to_path_buf();
                if bucket == 0 {
                    src.push(rel);
                } else {
                    other.push(rel);
                }
            }
        }
    }
    src.sort();
    other.sort();
    (src, other)
}

/// Read the workspace-relative source file `rel`.
pub fn read_source(root: &Path, rel: &Path) -> Result<String, String> {
    std::fs::read_to_string(root.join(rel))
        .map_err(|e| format!("cannot read {}: {e}", rel.display()))
}

/// `rel` with `/` separators: how findings and `[[allow]]` entries
/// name a file on every platform.
pub fn display_path(rel: &Path) -> String {
    rel.to_string_lossy().replace('\\', "/")
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "fixtures" && name != "target" {
                walk(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
