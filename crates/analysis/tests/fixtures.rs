//! Each tree under `tests/lint_fixtures/` is a deliberately-bad
//! mini-workspace; the suite pins the *exact* diagnostics (file, line,
//! pass) every rule must produce — no more, no fewer — so a pass can
//! neither go blind nor start flagging neighbouring clean code.

use std::path::PathBuf;

use camp_analysis::lint::{run_all, Diagnostic, Workspace};

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures").join(name);
    let ws = Workspace::load(&root).unwrap_or_else(|e| panic!("loading fixture {name}: {e}"));
    run_all(&ws)
}

/// `(file, line, pass)` triples, in the order camp-lint reports them.
fn keys(diags: &[Diagnostic]) -> Vec<(&str, usize, &str)> {
    diags.iter().map(|d| (d.file.as_str(), d.line, d.pass)).collect()
}

#[test]
fn missing_safety_fixture_flags_both_unjustified_sites() {
    let diags = lint_fixture("missing_safety");
    assert_eq!(
        keys(&diags),
        vec![("src/lib.rs", 4, "safety"), ("src/lib.rs", 7, "safety")],
        "got: {diags:#?}"
    );
}

#[test]
fn undocumented_knob_fixture_flags_the_read_and_the_stale_row() {
    let diags = lint_fixture("undocumented_knob");
    assert_eq!(
        keys(&diags),
        vec![("docs/KNOBS.md", 6, "knobs"), ("src/lib.rs", 5, "knobs")],
        "got: {diags:#?}"
    );
    let stale = &diags[0];
    assert!(stale.message.contains("stale"), "registry-row finding names the cause: {stale}");
}

#[test]
fn unguarded_target_feature_fixture_flags_safe_fn_and_direct_call() {
    let diags = lint_fixture("unguarded_target_feature");
    assert_eq!(
        keys(&diags),
        vec![
            ("crates/gemm/src/host/avx2.rs", 3, "target-feature"),
            ("crates/gemm/src/lib.rs", 7, "target-feature"),
        ],
        "got: {diags:#?}"
    );
}

#[test]
fn avx512_routing_fixture_flags_the_direct_call_but_not_the_dispatch_table() {
    let diags = lint_fixture("avx512_routing");
    assert_eq!(
        keys(&diags),
        vec![("crates/gemm/src/weights.rs", 5, "target-feature")],
        "host/mod.rs may name avx512::, nothing else may — got: {diags:#?}"
    );
    assert!(diags[0].message.contains("avx512::"), "names the tier module: {}", diags[0]);
}

#[test]
fn bare_accumulator_fixture_flags_only_the_integer_bare_add() {
    let diags = lint_fixture("bare_accumulator");
    assert_eq!(
        keys(&diags),
        vec![("crates/gemm/src/host/scalar.rs", 7, "accumulator")],
        "wrapped and f32 variants must stay clean — got: {diags:#?}"
    );
}

#[test]
fn diagnostics_render_as_file_line_pass_message() {
    let diags = lint_fixture("missing_safety");
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("src/lib.rs:4: [safety] "),
        "CI greps this exact shape, got: {rendered}"
    );
}
