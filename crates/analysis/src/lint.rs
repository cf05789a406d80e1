//! The `camp-lint` pass suite: lexical/structural static analysis over
//! the workspace's Rust sources (no crates.io dependencies — the build
//! environment is offline, and these rules don't need type inference).
//!
//! Four passes guard the invariants the unsafe/SIMD/serving core was
//! reviewed against, so they stay machine-checked as the tree grows:
//!
//! | pass             | rule                                                             |
//! |------------------|------------------------------------------------------------------|
//! | `safety`         | every `unsafe` block/fn/impl carries a `// SAFETY:` justification |
//! | `target-feature` | `#[target_feature]` fns are `unsafe` and reachable only through the `HostKernel` dispatch table in `host/mod.rs` |
//! | `knobs`          | every `CAMP_*` env knob is registered in `docs/KNOBS.md` (and no registry row is stale) |
//! | `accumulator`    | integer kernels in `gemm/src/host/` use `wrapping_*` arithmetic — no bare `+`/`-`/`*` on accumulators |
//!
//! The passes work on a [`SourceFile`]'s *stripped* view (comments and
//! string literals blanked, so `unsafe` in a doc comment or `"avx2::"`
//! in a message never trips a rule) plus the raw lines (where comment
//! text itself is the subject, as in the `safety` pass).

use std::fmt;
use std::path::{Path, PathBuf};

/// One finding: `file:line: [pass] message`, the format CI greps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the linted root.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Which pass fired.
    pub pass: &'static str,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.pass, self.message)
    }
}

// ---- source model ---------------------------------------------------------

/// A parsed source file: raw lines, a comment/string-stripped shadow
/// (same line numbering, offending regions blanked with spaces), and
/// the string literals encountered while stripping.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the linted root, with `/` separators.
    pub rel: String,
    /// Raw text, split into lines.
    pub raw: Vec<String>,
    /// Stripped text: comments and string/char literals blanked.
    pub code: Vec<String>,
    /// `(line, literal_content)` for every `"…"` literal.
    pub strings: Vec<(usize, String)>,
}

impl SourceFile {
    pub fn parse(rel: String, text: &str) -> SourceFile {
        let raw: Vec<String> = text.lines().map(str::to_owned).collect();
        let (code, strings) = strip(text);
        SourceFile { rel, raw, code, strings }
    }
}

/// Lexer state for [`strip`].
enum St {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(usize),
    Char,
}

/// Blank comments and string/char literals out of `text`, preserving
/// line structure; collect string-literal contents on the side.
fn strip(text: &str) -> (Vec<String>, Vec<(usize, String)>) {
    let b: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut strings = Vec::new();
    let mut cur_lit = String::new();
    let mut line = 1usize;
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            line += 1;
        }
        match st {
            St::Code => match c {
                '/' if b.get(i + 1) == Some(&'/') => {
                    st = St::LineComment;
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '/' if b.get(i + 1) == Some(&'*') => {
                    st = St::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '"' => {
                    // raw string? look back over r / br and hashes
                    st = St::Str;
                    cur_lit.clear();
                    out.push(' ');
                }
                'r' | 'b' => {
                    // r"…", r#"…"#, br"…" open a raw string
                    let mut j = i + 1;
                    if c == 'b' && b.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if (c == 'r' || (c == 'b' && j > i + 1)) && b.get(j) == Some(&'"') {
                        for _ in i..=j {
                            out.push(' ');
                        }
                        cur_lit.clear();
                        st = St::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // char literal vs lifetime: 'x' / '\n' are chars,
                    // 'env is a lifetime (no closing quote)
                    let is_char = match b.get(i + 1) {
                        Some('\\') => true,
                        Some(n) if *n != '\'' => b.get(i + 2) == Some(&'\''),
                        _ => false,
                    };
                    if is_char {
                        st = St::Char;
                        out.push(' ');
                    } else {
                        out.push('\'');
                    }
                }
                _ => out.push(c),
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::BlockComment(d) => {
                if c == '/' && b.get(i + 1) == Some(&'*') {
                    st = St::BlockComment(d + 1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '*' && b.get(i + 1) == Some(&'/') {
                    st = if d == 1 { St::Code } else { St::BlockComment(d - 1) };
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            St::Str => match c {
                '\\' => {
                    cur_lit.push('\\');
                    if let Some(n) = b.get(i + 1) {
                        cur_lit.push(*n);
                        out.push_str("  ");
                        i += 2;
                        continue;
                    }
                    out.push(' ');
                }
                '"' => {
                    strings.push((line, std::mem::take(&mut cur_lit)));
                    st = St::Code;
                    out.push(' ');
                }
                _ => {
                    cur_lit.push(c);
                    out.push(if c == '\n' { '\n' } else { ' ' });
                }
            },
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for h in 0..hashes {
                        if b.get(i + 1 + h) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        strings.push((line, std::mem::take(&mut cur_lit)));
                        st = St::Code;
                        for _ in 0..=hashes {
                            out.push(' ');
                        }
                        i += 1 + hashes;
                        continue;
                    }
                }
                cur_lit.push(c);
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            St::Char => {
                if c == '\\' {
                    if b.get(i + 1).is_some() {
                        out.push_str("  ");
                        i += 2;
                        continue;
                    }
                    out.push(' ');
                } else if c == '\'' {
                    st = St::Code;
                    out.push(' ');
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                }
            }
        }
        i += 1;
    }
    (out.lines().map(str::to_owned).collect(), strings)
}

// ---- workspace model ------------------------------------------------------

/// The linted tree: every `.rs` file under `root` (excluding build
/// output, VCS internals and the lint's own known-bad fixtures) and the
/// knob registry.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
    /// `docs/KNOBS.md` lines, if the registry exists.
    pub knobs_md: Option<Vec<String>>,
}

/// Directory names never descended into. `lint_fixtures` holds
/// deliberately-bad trees (linted *by the fixture tests*, never as part
/// of the real workspace), and `crates/analysis/tests` asserts on
/// knob/pattern literals that would otherwise trip the very passes
/// they test.
const EXCLUDED_DIRS: &[&str] = &["target", ".git", "lint_fixtures", "related"];

impl Workspace {
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let mut entries: Vec<_> =
                std::fs::read_dir(&dir)?.filter_map(Result::ok).map(|e| e.path()).collect();
            entries.sort();
            for path in entries {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if path.is_dir() {
                    if !EXCLUDED_DIRS.contains(&name) {
                        stack.push(path);
                    }
                    continue;
                }
                if name.ends_with(".rs") {
                    let rel = rel_path(root, &path);
                    if rel.starts_with("crates/analysis/tests/") {
                        continue;
                    }
                    let text = std::fs::read_to_string(&path)?;
                    files.push(SourceFile::parse(rel, &text));
                }
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        let knobs_md = std::fs::read_to_string(root.join("docs/KNOBS.md"))
            .ok()
            .map(|t| t.lines().map(str::to_owned).collect());
        Ok(Workspace { root: root.to_path_buf(), files, knobs_md })
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

// ---- pass: safety ---------------------------------------------------------

/// True if `code[idx..]` starts the exact word `word` at a boundary.
fn word_at(code: &str, idx: usize, word: &str) -> bool {
    if !code[idx..].starts_with(word) {
        return false;
    }
    let before_ok = idx == 0
        || !code[..idx].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
    let after = code[idx + word.len()..].chars().next();
    before_ok && !after.is_some_and(|c| c.is_alphanumeric() || c == '_')
}

fn line_has_word(code: &str, word: &str) -> bool {
    code.match_indices(word).any(|(i, _)| word_at(code, i, word))
}

/// Every `unsafe` (block, fn, impl, extern) must be justified by a
/// `// SAFETY:` comment on the same line or in the contiguous
/// comment/attribute block above it (`/// # Safety` sections count for
/// `unsafe fn` declarations).
pub fn check_safety(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, code) in f.code.iter().enumerate() {
        if !line_has_word(code, "unsafe") {
            continue;
        }
        if justified(f, i) {
            continue;
        }
        out.push(Diagnostic {
            file: f.rel.clone(),
            line: i + 1,
            pass: "safety",
            message: "`unsafe` without a `// SAFETY:` justification (add one on the line(s) \
                      above stating why the invariants hold)"
                .into(),
        });
    }
    out
}

fn justified(f: &SourceFile, line_idx: usize) -> bool {
    let accept = |raw: &str| raw.contains("SAFETY:") || raw.contains("# Safety");
    if accept(&f.raw[line_idx]) {
        return true;
    }
    // walk the contiguous comment/attribute block upward
    let mut i = line_idx;
    while i > 0 {
        i -= 1;
        let t = f.raw[i].trim();
        // comments, attributes, and lines that leave a statement open
        // (`let x: T =` above a multi-line `unsafe { … }`) are context
        let is_context = t.starts_with("//")
            || t.starts_with("#[")
            || t.starts_with("#!")
            || t.starts_with(")]")
            || t.ends_with('=')
            || t.ends_with('(')
            || t.ends_with(',');
        if !is_context {
            return false;
        }
        if accept(t) {
            return true;
        }
    }
    false
}

// ---- pass: target-feature -------------------------------------------------

/// SIMD tier modules only the dispatch table may name.
const TIER_MODULES: &[&str] = &["avx2::", "avx512::", "amx::", "neon::"];

/// `#[target_feature(enable = …)]` functions must be declared `unsafe`
/// (callers acknowledge the CPU-feature precondition), and the tier
/// modules must be reachable *only* through `host/mod.rs` — the
/// `HostKernel` dispatch table — never by direct cross-module calls.
pub fn check_target_feature(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, code) in f.code.iter().enumerate() {
        if code.contains("#[target_feature") {
            // the attributed fn follows, past other attrs/blank lines
            let mut ok = false;
            let mut found_fn = false;
            for j in i + 1..(i + 8).min(f.code.len()) {
                let t = f.code[j].trim();
                if t.starts_with("#[") || t.is_empty() {
                    continue;
                }
                if line_has_word(t, "fn") {
                    found_fn = true;
                    ok = line_has_word(t, "unsafe");
                }
                break;
            }
            if !found_fn || !ok {
                out.push(Diagnostic {
                    file: f.rel.clone(),
                    line: i + 1,
                    pass: "target-feature",
                    message: "#[target_feature] function must be declared `unsafe fn` (callers \
                              must acknowledge the CPU-feature precondition)"
                        .into(),
                });
            }
        }
    }
    // dispatch-table discipline: only host/mod.rs names the tier modules
    let is_dispatch_table = f.rel.ends_with("gemm/src/host/mod.rs");
    if !is_dispatch_table {
        for (i, code) in f.code.iter().enumerate() {
            for m in TIER_MODULES {
                if code.contains(m) {
                    out.push(Diagnostic {
                        file: f.rel.clone(),
                        line: i + 1,
                        pass: "target-feature",
                        message: format!(
                            "direct `{m}` reference outside the HostKernel dispatch table \
                             (route SIMD tiers through host/mod.rs so feature detection \
                             stays the single gate)"
                        ),
                    });
                }
            }
        }
    }
    out
}

// ---- pass: knobs ----------------------------------------------------------

/// Extract `CAMP_*` knob names from a string.
fn knob_names(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(pos) = rest.find("CAMP_") {
        let tail = &rest[pos..];
        let end = tail
            .char_indices()
            .position(|(_, c)| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        if end > "CAMP_".len() {
            out.push(tail[..end].to_owned());
        }
        rest = &rest[pos + end.max(1)..];
    }
    out
}

/// Every `CAMP_*` string literal in code (the env-var reads) must have
/// a row in `docs/KNOBS.md` with type/default/validation columns, and
/// every registry row must correspond to a knob still read somewhere.
pub fn check_knobs(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // knob uses: (name, file, line), one per literal occurrence
    let mut used: Vec<(String, &str, usize)> = Vec::new();
    for f in &ws.files {
        for (line, lit) in &f.strings {
            for name in knob_names(lit) {
                if lit == &name {
                    // exact literal — an env read or its documentation
                    used.push((name, &f.rel, *line));
                }
            }
        }
    }
    // registry rows: knob -> line in docs/KNOBS.md
    let mut documented: Vec<(String, usize)> = Vec::new();
    if let Some(md) = &ws.knobs_md {
        for (i, line) in md.iter().enumerate() {
            let t = line.trim();
            if !t.starts_with('|') || t.starts_with("|-") || t.starts_with("| -") {
                continue;
            }
            let names = knob_names(t);
            if names.is_empty() {
                continue;
            }
            let cells = t.split('|').map(str::trim).filter(|c| !c.is_empty()).count();
            if cells < 5 {
                out.push(Diagnostic {
                    file: "docs/KNOBS.md".into(),
                    line: i + 1,
                    pass: "knobs",
                    message: format!(
                        "registry row for `{}` is missing columns (need name, type, default, \
                         clamp/validation, owning module)",
                        names[0]
                    ),
                });
            }
            for n in names {
                documented.push((n, i + 1));
            }
        }
    }
    for (name, file, line) in &used {
        if !documented.iter().any(|(d, _)| d == name) {
            out.push(Diagnostic {
                file: (*file).to_owned(),
                line: *line,
                pass: "knobs",
                message: format!(
                    "env knob `{name}` is not registered in docs/KNOBS.md (add a row with \
                     type, default, clamp rule and owning module)"
                ),
            });
        }
    }
    for (name, line) in &documented {
        if !used.iter().any(|(u, _, _)| u == name) {
            out.push(Diagnostic {
                file: "docs/KNOBS.md".into(),
                line: *line,
                pass: "knobs",
                message: format!(
                    "registry row `{name}` matches no knob read in the tree \
                                  (stale — remove the row or restore the knob)"
                ),
            });
        }
    }
    out
}

// ---- pass: accumulator ----------------------------------------------------

/// Blank the contents of `[…]` index expressions so `a[i * k + l]`
/// never reads as accumulator arithmetic.
fn blank_brackets(line: &str) -> String {
    let mut depth = 0u32;
    line.chars()
        .map(|c| match c {
            '[' => {
                depth += 1;
                '['
            }
            ']' => {
                depth = depth.saturating_sub(1);
                ']'
            }
            _ if depth > 0 => ' ',
            _ => c,
        })
        .collect()
}

/// Function spans of a file: `(first_line, last_line, signature)`,
/// tracked lexically by brace depth.
fn fn_spans(code: &[String]) -> Vec<(usize, usize, String)> {
    let mut spans = Vec::new();
    let mut open: Vec<(usize, u32, String)> = Vec::new(); // (start, entry_depth, sig)
    let mut pending_sig: Option<(usize, String)> = None;
    let mut depth = 0u32;
    for (i, line) in code.iter().enumerate() {
        if pending_sig.is_none() {
            if let Some(pos) = line.match_indices("fn").find(|(p, _)| word_at(line, *p, "fn")) {
                pending_sig = Some((i, line[pos.0..].to_owned()));
            }
        } else if let Some((_, sig)) = &mut pending_sig {
            sig.push(' ');
            sig.push_str(line);
        }
        for c in line.chars() {
            match c {
                '{' => {
                    if let Some((start, sig)) = pending_sig.take() {
                        // body opens: sig text up to this brace
                        let sig = sig.split('{').next().unwrap_or("").to_owned();
                        open.push((start, depth, sig));
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if let Some((start, d, sig)) = open.last().cloned() {
                        if d == depth {
                            open.pop();
                            spans.push((start, i, sig));
                        }
                    }
                }
                ';' if depth == open.last().map_or(0, |(_, d, _)| *d) => {
                    // declaration without body (trait method, extern)
                    pending_sig = None;
                }
                _ => {}
            }
        }
    }
    spans
}

/// In integer kernels under `gemm/src/host/`, accumulators must use
/// `wrapping_*` / exact-product arithmetic: a bare `+`, `-` or `*`
/// with an `acc…` identifier as operand can overflow (and panics in
/// debug builds mid-kernel). Functions whose signature mentions `f32`
/// are the float path and exempt.
pub fn check_accumulator(f: &SourceFile) -> Vec<Diagnostic> {
    if !f.rel.contains("gemm/src/host/") {
        return Vec::new();
    }
    let spans = fn_spans(&f.code);
    let mut out = Vec::new();
    for (i, code) in f.code.iter().enumerate() {
        // innermost enclosing fn decides the dtype context
        let sig = spans
            .iter()
            .filter(|(s, e, _)| *s <= i && i <= *e)
            .min_by_key(|(s, e, _)| e - s)
            .map(|(_, _, sig)| sig.as_str());
        let Some(sig) = sig else { continue };
        if sig.contains("f32") || sig.contains("f64") {
            continue;
        }
        let line = blank_brackets(code);
        if bare_acc_arithmetic(&line) {
            out.push(Diagnostic {
                file: f.rel.clone(),
                line: i + 1,
                pass: "accumulator",
                message: "bare arithmetic on an integer accumulator — use `wrapping_add` / \
                          `wrapping_mul` (exact-product semantics; debug builds panic on \
                          overflow mid-kernel otherwise)"
                    .into(),
            });
        }
    }
    out
}

/// Does the (bracket-blanked) line apply a bare `+`/`-`/`*` to an
/// identifier containing `acc`?
fn bare_acc_arithmetic(line: &str) -> bool {
    let chars: Vec<char> = line.chars().collect();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut i = 0;
    while i < chars.len() {
        if !is_ident(chars[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && is_ident(chars[i]) {
            i += 1;
        }
        let ident: String = chars[start..i].iter().collect();
        if !ident.to_ascii_lowercase().contains("acc") {
            continue;
        }
        // operator after the identifier (past spaces, [, ], ., calls)?
        let mut j = i;
        while j < chars.len() && (chars[j] == ' ' || chars[j] == '[' || chars[j] == ']') {
            j += 1;
        }
        if j < chars.len() && matches!(chars[j], '+' | '*') {
            return true;
        }
        if j < chars.len() && chars[j] == '-' && chars.get(j + 1) != Some(&'>') {
            return true;
        }
        // operator before the identifier (binary use as rhs operand)?
        let mut k = start;
        while k > 0 && chars[k - 1] == ' ' {
            k -= 1;
        }
        if k > 0 && matches!(chars[k - 1], '+' | '*' | '-') {
            // distinguish binary ops from unary minus / deref / &mut:
            // binary has a value (ident, ), ]) on its left
            let mut l = k - 1;
            while l > 0 && chars[l - 1] == ' ' {
                l -= 1;
            }
            if l > 0 && (is_ident(chars[l - 1]) || chars[l - 1] == ')' || chars[l - 1] == ']') {
                return true;
            }
        }
    }
    false
}

// ---- driver ---------------------------------------------------------------

/// Run every pass over the workspace; findings come back sorted by
/// file/line for stable output.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &ws.files {
        out.extend(check_safety(f));
        out.extend(check_target_feature(f));
        out.extend(check_accumulator(f));
    }
    out.extend(check_knobs(ws));
    out.sort_by(|a, b| (&a.file, a.line, a.pass).cmp(&(&b.file, b.line, b.pass)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, text: &str) -> SourceFile {
        SourceFile::parse(rel.into(), text)
    }

    #[test]
    fn stripper_blanks_comments_strings_and_chars() {
        let (code, strings) = strip(
            "let s = \"unsafe { }\"; // unsafe trailing\nlet c = 'x';\nlet l: &'static str = s;",
        );
        assert!(!code[0].contains("unsafe"));
        assert!(!code[1].contains('x'));
        assert!(code[2].contains("'static"), "lifetimes survive: {}", code[2]);
        assert_eq!(strings, vec![(1, "unsafe { }".into())]);
    }

    #[test]
    fn safety_pass_requires_justification() {
        let bad = file("a.rs", "fn f() {\n    unsafe { g() };\n}\n");
        assert_eq!(check_safety(&bad).len(), 1);
        let good = file(
            "a.rs",
            "fn f() {\n    // SAFETY: g has no preconditions\n    unsafe { g() };\n}\n",
        );
        assert!(check_safety(&good).is_empty());
        let doc = file("a.rs", "/// # Safety\n/// caller checks\npub unsafe fn f() {}\n");
        assert!(check_safety(&doc).is_empty());
    }

    #[test]
    fn safety_pass_sees_through_attributes() {
        let good = file(
            "a.rs",
            "// SAFETY: scheduler-enforced exclusivity\n#[allow(dead_code)]\nunsafe impl Send for X {}\n",
        );
        assert!(check_safety(&good).is_empty());
    }

    #[test]
    fn target_feature_fns_must_be_unsafe() {
        let bad = file("k.rs", "#[target_feature(enable = \"avx2\")]\nfn tile() {}\n");
        assert_eq!(check_target_feature(&bad).len(), 1);
        let good = file("k.rs", "#[target_feature(enable = \"avx2\")]\nunsafe fn tile() {}\n");
        assert!(check_target_feature(&good).is_empty());
    }

    #[test]
    fn tier_modules_are_dispatch_table_only() {
        let bad = file("crates/gemm/src/lib.rs", "pub use host::avx2::tile;\n");
        assert_eq!(check_target_feature(&bad).len(), 1);
        let table = file("crates/gemm/src/host/mod.rs", "tile_i8: avx2::tile_i8,\n");
        assert!(check_target_feature(&table).is_empty());
        let comment = file("crates/gemm/src/lib.rs", "// avx2::tile is dispatched\n");
        assert!(check_target_feature(&comment).is_empty(), "comments are stripped");
    }

    #[test]
    fn accumulator_pass_flags_bare_ops_in_integer_fns_only() {
        let bad = file(
            "crates/gemm/src/host/scalar.rs",
            "fn tile_i8(acc: &mut [i32]) {\n    acc[0] += 2 * 3;\n}\n",
        );
        assert_eq!(check_accumulator(&bad).len(), 1);
        let wrapped = file(
            "crates/gemm/src/host/scalar.rs",
            "fn tile_i8(acc: &mut [i32]) {\n    acc[0] = acc[0].wrapping_add(p);\n}\n",
        );
        assert!(check_accumulator(&wrapped).is_empty());
        let float = file(
            "crates/gemm/src/host/scalar.rs",
            "fn tile_f32(acc: &mut [f32]) {\n    acc[0] += 2.0 * x;\n}\n",
        );
        assert!(check_accumulator(&float).is_empty(), "f32 kernels are exempt");
        let index = file(
            "crates/gemm/src/host/scalar.rs",
            "fn tile_i8(acc: &mut [i32]) {\n    let v = a[i * k + l];\n    acc[i] = v;\n}\n",
        );
        assert!(check_accumulator(&index).is_empty(), "index arithmetic is fine");
    }

    #[test]
    fn knob_names_are_extracted_exactly() {
        assert_eq!(
            knob_names("CAMP_THREADS and CAMP_FORCE_TIER!"),
            vec!["CAMP_THREADS", "CAMP_FORCE_TIER"]
        );
        assert!(knob_names("CAMP_ alone").is_empty());
    }
}
