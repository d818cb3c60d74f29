//! Fixture tests for every cocolint rule: each fixture under
//! `tests/fixtures/` marks its expected findings with `// VIOLATION`
//! (`// VIOLATION x2` for two findings on one line), and the tests
//! assert the rule reports exactly those lines — no more, no fewer.
//! Two mini workspaces drive `run_lint` end to end for allowlist and
//! config-error behavior.

use std::path::Path;
use xtask::lexer::tokenize;
use xtask::rules::{self, Finding};

/// 1-based lines tagged `// VIOLATION`, with multiplicity from an
/// optional `xN` suffix.
fn marker_lines(src: &str) -> Vec<u32> {
    let mut lines = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        if let Some(pos) = line.find("// VIOLATION") {
            let rest = line[pos + "// VIOLATION".len()..].trim();
            let count = rest
                .strip_prefix('x')
                .and_then(|n| n.parse::<u32>().ok())
                .unwrap_or(1);
            for _ in 0..count {
                lines.push(idx as u32 + 1);
            }
        }
    }
    lines
}

/// Sorted lines of `findings`, asserting every finding carries `rule`.
fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    for f in findings {
        assert_eq!(f.rule, rule, "unexpected rule in finding: {f}");
    }
    let mut lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    lines.sort_unstable();
    lines
}

#[test]
fn safety_comment_flags_exactly_the_marked_lines() {
    let src = include_str!("fixtures/safety_comment.rs");
    let findings = rules::safety_comment("fixture", &tokenize(src));
    assert_eq!(lines_of(&findings, "safety-comment"), marker_lines(src));
}

#[test]
fn safety_comment_messages_name_the_construct() {
    let src = include_str!("fixtures/safety_comment.rs");
    let findings = rules::safety_comment("fixture", &tokenize(src));
    assert!(
        findings[0].message.contains("unsafe block"),
        "{}",
        findings[0]
    );
    assert!(
        findings[1].message.contains("unsafe impl"),
        "{}",
        findings[1]
    );
}

#[test]
fn panic_path_flags_exactly_the_marked_lines() {
    let src = include_str!("fixtures/panic_path.rs");
    let findings = rules::data_plane_rules(Path::new("fixture"), &tokenize(src));
    assert_eq!(lines_of(&findings, "panic-path"), marker_lines(src));
}

#[test]
fn wall_clock_flags_exactly_the_marked_lines() {
    let src = include_str!("fixtures/wall_clock.rs");
    let findings = rules::data_plane_rules(Path::new("fixture"), &tokenize(src));
    assert_eq!(lines_of(&findings, "wall-clock"), marker_lines(src));
}

#[test]
fn default_hashmap_flags_exactly_the_marked_lines() {
    let src = include_str!("fixtures/default_hashmap.rs");
    let findings = rules::data_plane_rules(Path::new("fixture"), &tokenize(src));
    assert_eq!(lines_of(&findings, "default-hashmap"), marker_lines(src));
}

#[test]
fn lock_free_flags_exactly_the_marked_lines() {
    let src = include_str!("fixtures/lock_free.rs");
    let findings = rules::lock_free_rules(Path::new("fixture"), &tokenize(src));
    assert_eq!(lines_of(&findings, "lock-free"), marker_lines(src));
}

#[test]
fn cfg_test_span_covers_the_whole_module() {
    // The panic-path fixture ends in a #[cfg(test)] mod whose contents
    // would otherwise produce three findings; pin the exact span so
    // the exemption can't silently widen or shrink.
    let src = include_str!("fixtures/panic_path.rs");
    let spans = rules::cfg_test_spans(&tokenize(src));
    let total = src.lines().count() as u32;
    assert_eq!(spans, vec![(total - 12, total)]);
}

#[test]
fn findings_render_as_file_line_rule() {
    let f = Finding {
        file: "crates/engine/src/ring.rs".into(),
        line: 7,
        rule: "safety-comment",
        message: "msg".into(),
        chain: None,
    };
    assert_eq!(
        f.to_string(),
        "crates/engine/src/ring.rs:7: [safety-comment] msg"
    );
}

fn fixture_root(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn run_lint_applies_allowlist_and_reports_unused_entries() {
    let findings = xtask::run_lint(&fixture_root("mini_root")).unwrap();
    let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    // Three findings survive, in sorted order:
    // - the un-allowlisted unwrap in the data-plane crate (the
    //   allowlisted wall-clock on line 7 is suppressed),
    // - the missing forbid(unsafe_code) attr on `util`,
    // - the allow entry that suppressed nothing.
    assert_eq!(rendered.len(), 3, "{rendered:#?}");
    assert!(
        rendered[0].starts_with("crates/dp/src/lib.rs:13: [panic-path]"),
        "{rendered:#?}"
    );
    assert!(
        rendered[1].starts_with("crates/util/src/lib.rs:1: [crate-attrs]"),
        "{rendered:#?}"
    );
    assert!(
        rendered[2].starts_with("lint.toml:12: [unused-allow]"),
        "{rendered:#?}"
    );
    assert!(
        !rendered.iter().any(|r| r.contains("wall-clock")),
        "allowlisted wall-clock finding leaked through: {rendered:#?}"
    );
}

#[test]
fn run_lint_rejects_config_naming_unknown_crates() {
    let err = xtask::run_lint(&fixture_root("mini_bad_root")).unwrap_err();
    assert!(err.contains("unknown crate `ghost`"), "{err}");
}

#[test]
fn dataflow_fixture_pins_file_line_and_chain_per_rule() {
    // One fixture workspace, one finding per interprocedural rule,
    // each pinned to its exact file:line (and call chain where the
    // rule carries one) so the rules cannot silently drift.
    let findings = xtask::run_lint(&fixture_root("mini_dataflow_root")).unwrap();
    let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert_eq!(rendered.len(), 3, "{rendered:#?}");

    assert!(
        rendered[0].starts_with("crates/dp/src/lib.rs:22: [overflow]"),
        "{rendered:#?}"
    );
    assert!(findings[0].chain.is_none());

    assert!(
        rendered[1].starts_with("crates/util/src/lib.rs:6: [transitive-panic]"),
        "{rendered:#?}"
    );
    assert_eq!(
        findings[1].chain.as_deref(),
        Some("dp::entry -> dp::helper -> util::deep"),
        "{rendered:#?}"
    );

    assert!(
        rendered[2].starts_with("crates/util/src/lib.rs:11: [hot-alloc]"),
        "{rendered:#?}"
    );
    assert_eq!(
        findings[2].chain.as_deref(),
        Some("dp::fast -> util::build"),
        "{rendered:#?}"
    );
}

/// Recursively copy `from` into `to` (fixture workspaces are tiny).
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), &dst).unwrap();
        }
    }
}

#[test]
fn mutation_inserting_a_deep_unwrap_is_caught_with_its_chain() {
    // The do-the-rules-actually-fire test: take the fixture workspace,
    // graft a brand-new unwrap two call-levels below a brand-new
    // data-plane pub fn, and require the transitive rule to surface it
    // with the full entry-to-site chain.
    let scratch = std::env::temp_dir().join(format!("cocolint_mutation_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_tree(&fixture_root("mini_dataflow_root"), &scratch);

    let baseline = xtask::run_lint(&scratch).unwrap();

    let dp = scratch.join("crates/dp/src/lib.rs");
    let mut dp_src = std::fs::read_to_string(&dp).unwrap();
    dp_src.push_str(
        "\n/// Mutation: a second entry point over a fresh util chain.\n\
         pub fn entry2(x: u64) -> u64 {\n\
             util::extra(x)\n\
         }\n",
    );
    std::fs::write(&dp, dp_src).unwrap();

    let util = scratch.join("crates/util/src/lib.rs");
    let mut util_src = std::fs::read_to_string(&util).unwrap();
    let unwrap_line = util_src.lines().count() as u32 + 8; // 1-based line of the inserted unwrap
    util_src.push_str(
        "\n/// Mutation: one hop between the entry and the panic.\n\
         pub fn extra(x: u64) -> u64 {\n\
             inner(x)\n\
         }\n\
         \n\
         fn inner(x: u64) -> u64 {\n\
             x.checked_add(1).unwrap()\n\
         }\n",
    );
    std::fs::write(&util, util_src).unwrap();

    let mutated = xtask::run_lint(&scratch).unwrap();
    let _ = std::fs::remove_dir_all(&scratch);

    assert_eq!(mutated.len(), baseline.len() + 1, "{mutated:#?}");
    let new = mutated
        .iter()
        .find(|f| f.rule == "transitive-panic" && f.line == unwrap_line)
        .unwrap_or_else(|| panic!("inserted unwrap not reported: {mutated:#?}"));
    assert_eq!(new.file, "crates/util/src/lib.rs");
    assert!(new.message.contains("`.unwrap()`"), "{new}");
    assert_eq!(
        new.chain.as_deref(),
        Some("dp::entry2 -> util::extra -> util::inner"),
        "{new}"
    );
}

#[test]
fn hot_extra_accepts_an_exact_qualified_name() {
    // `[hot] extra` matches fns like `[taint] sources` and
    // `[durability] funnels` do: a `::`-bounded suffix or the whole
    // qualified name. Naming `util::build` in full makes it a hot root
    // of its own, so its allocation's chain starts there instead of at
    // `dp::fast`.
    let scratch = std::env::temp_dir().join(format!("cocolint_hot_exact_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_tree(&fixture_root("mini_dataflow_root"), &scratch);
    let toml = scratch.join("lint.toml");
    let policy = std::fs::read_to_string(&toml).unwrap();
    assert!(policy.contains("extra = []"), "fixture drifted");
    std::fs::write(
        &toml,
        policy.replace("extra = []", "extra = [\"util::build\"]"),
    )
    .unwrap();

    let result = xtask::run_lint(&scratch);
    let _ = std::fs::remove_dir_all(&scratch);

    let findings = result.unwrap_or_else(|e| panic!("exact name rejected: {e}"));
    let hot: Vec<&Finding> = findings.iter().filter(|f| f.rule == "hot-alloc").collect();
    assert_eq!(hot.len(), 1, "{findings:#?}");
    assert_eq!(
        (hot[0].file.as_str(), hot[0].line),
        ("crates/util/src/lib.rs", 11)
    );
    assert_eq!(hot[0].chain.as_deref(), Some("util::build"), "{}", hot[0]);
}
