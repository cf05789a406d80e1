//! The real workspace must lint clean: this is the same gate CI runs
//! via `cargo run -p camp-analysis --bin camp-lint`, expressed as a
//! test so `cargo test` alone catches regressions.

use std::collections::BTreeSet;
use std::path::PathBuf;

use camp_analysis::lint::{check_knobs, run_all, Workspace};

fn workspace() -> Workspace {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/analysis sits two levels below the workspace root")
        .to_path_buf();
    Workspace::load(&root).expect("workspace loads")
}

#[test]
fn the_workspace_lints_clean() {
    let ws = workspace();
    assert!(ws.files.len() > 50, "walker found the tree ({} files)", ws.files.len());
    let diags = run_all(&ws);
    assert!(
        diags.is_empty(),
        "camp-lint found {} issue(s):\n{}",
        diags.len(),
        diags.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n")
    );
}

/// The environment surface is a reviewed list (docs/KNOBS.md, "Policy"):
/// a new `CAMP_*` read fails here, not only for want of a registry row.
#[test]
fn the_tree_reads_exactly_four_knobs() {
    // against an empty registry the `knobs` pass reports every read
    let mut ws = workspace();
    ws.knobs_md = Some(Vec::new());
    let read: BTreeSet<String> = check_knobs(&ws)
        .iter()
        .map(|d| d.message.split('`').nth(1).expect("the knob is named in backticks").to_owned())
        .collect();
    let want = ["CAMP_FORCE_TIER", "CAMP_MAC_BUDGET", "CAMP_SIM_TRACE", "CAMP_THREADS"];
    assert_eq!(read, want.map(String::from).into());
}
