//! The `figures` binary against its pin, `figures_mac500k.txt`: every
//! figure at `CAMP_MAC_BUDGET=500000`, each after an `== <id>` line. The
//! whole set takes about 20 s in release, so that check is ignored
//! (`cargo test --release -p camp-bench -- --ignored`).

use std::process::{Command, Output};

const PINNED: &str = include_str!("../figures_mac500k.txt");

fn figures(ids: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(ids)
        .env("CAMP_MAC_BUDGET", "500000")
        .output()
        .expect("the figures binary runs")
}

/// The pinned section of figure `id`, its `== <id>` line included.
fn pinned_section(id: &str) -> &'static str {
    let start = PINNED.find(&format!("== {id}\n")).expect("a pinned figure");
    let len = PINNED[start + 1..].find("\n== ").map_or(PINNED.len() - start, |end| end + 2);
    &PINNED[start..start + len]
}

/// Panics naming the first line where `got` leaves `want`, and the
/// figure it belongs to.
fn assert_same_output(want: &str, got: &[u8]) {
    let got = String::from_utf8_lossy(got);
    let (mut want_lines, mut got_lines) = (want.lines(), got.lines());
    let mut section = "";
    for line in 1.. {
        let (w, g) = (want_lines.next(), got_lines.next());
        assert!(w == g, "line {line}, in `== {section}`:\n  pinned:  {w:?}\n  printed: {g:?}");
        match w {
            None => break,
            Some(w) => section = w.strip_prefix("== ").unwrap_or(section),
        }
    }
    assert!(want == got, "the output differs from the pin in its line endings");
}

#[test]
#[ignore = "about 20 s in release; CI runs it with --ignored"]
fn every_figure_prints_its_pinned_output() {
    let out = figures(&[]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_same_output(PINNED, &out.stdout);
}

#[test]
fn named_figures_print_their_pinned_sections_in_the_given_order() {
    let out = figures(&["fig11_area", "fig05_hybrid"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_same_output(
        &(pinned_section("fig11_area").to_owned() + pinned_section("fig05_hybrid")),
        &out.stdout,
    );
}

#[test]
fn an_unknown_id_fails_before_printing_and_names_every_valid_id() {
    let out = figures(&["fig05_hybrid", "nope"]);
    assert!(!out.status.success() && out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`nope`"), "{stderr}");
    for id in PINNED.lines().filter_map(|l| l.strip_prefix("== ")) {
        assert!(stderr.contains(id), "`{id}` missing from: {stderr}");
    }
}
