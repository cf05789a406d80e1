//! `camp-lint`: run the camp-analysis pass suite over the workspace.
//!
//! ```text
//! cargo run -p camp-analysis --bin camp-lint [ROOT]
//! ```
//!
//! `ROOT` defaults to the enclosing workspace (found by walking up from
//! the current directory to a `Cargo.toml` with a `[workspace]` table).
//! Prints one `file:line: [pass] message` per finding and exits
//! non-zero if there are any — CI runs this as a hard gate.

use std::path::PathBuf;
use std::process::ExitCode;

use camp_analysis::lint::{run_all, Workspace};

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(p) => PathBuf::from(p),
        None => match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!("camp-lint: no workspace root found (pass one explicitly)");
                return ExitCode::FAILURE;
            }
        },
    };
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("camp-lint: cannot load {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let diags = run_all(&ws);
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        eprintln!("camp-lint: clean ({} files)", ws.files.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("camp-lint: {} finding(s) across {} files", diags.len(), ws.files.len());
        ExitCode::FAILURE
    }
}
