//! `stgnn-lint`: a hand-rolled, lexer-based source-policy checker.
//!
//! No crates.io parser — the shared [`crate::lex`] scanner masks comments,
//! string/char literals and raw strings out of each file (preserving byte
//! offsets and line structure), then plain substring scans over the masked
//! text detect the policy violations. Test code (`#[cfg(test)]` modules,
//! `#[test]` functions, `tests/`/`benches/`/`examples/` trees) is exempt:
//! the policy protects *request and training paths*, not assertions.
//!
//! ## Codes
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `L001` | deny | `.unwrap()` in non-test code |
//! | `L002` | deny | `.expect(...)` in non-test code |
//! | `L003` | deny | `panic!(...)` in non-test code |
//! | `L004` | deny | slice/array indexing `x[...]` in non-test code |
//! | `L006` | deny | raw `File::create` on a persistence path (use `stgnn_faults::fsio::atomic_write`) |
//!
//! ## Escapes
//!
//! * `// lint: allow(L001)` — on the offending line, or alone on the line
//!   directly above it. A one-line invariant after the code is the house
//!   style: `// lint: allow(L001): channel capacity checked above`.
//! * `// lint: allow-file(L004): <invariant>` — anywhere in the file;
//!   grandfathers a whole file for that code. Used by the row-major tensor
//!   kernels, whose indexing is shape-checked up front by `as_matrix`.
//!
//! ## Policy
//!
//! Hot-path crates (`tensor`, `graph`, `serve`, `scale`, `online`) get the
//! full table; persistence crates get `L006` only. Code `L005` (a lock
//! guard held across a `forward`/`predict_horizon` call) is retired: the
//! [`crate::sound`] rule `S002` checks the same property across function
//! calls over the whole workspace.

use crate::diag::Severity;
use crate::lex::{find_from, ident_char, mask};
use std::fmt;
use std::path::{Path, PathBuf};

/// Stable source-lint codes (`L0xx`); tape-validator codes (`A0xx`) live in
/// [`crate::diag::codes`], soundness codes (`S0xx`) in
/// [`crate::sound::codes`].
pub mod codes {
    /// `.unwrap()` on a request/training path.
    pub const UNWRAP: &str = "L001";
    /// `.expect(...)` on a request/training path.
    pub const EXPECT: &str = "L002";
    /// `panic!(...)` on a request/training path.
    pub const PANIC: &str = "L003";
    /// Panicking slice/array indexing on a request/training path.
    pub const INDEX: &str = "L004";
    /// Raw `File::create` on a persistence path: a crash mid-write leaves a
    /// truncated file. `stgnn_faults::fsio::atomic_write` is the sanctioned
    /// writer (temp sibling + fsync + rename).
    pub const RAW_FILE_CREATE: &str = "L006";
}

/// What `stgnn-lint` forbids in one crate.
#[derive(Debug, Clone, Copy, Default)]
pub struct Policy {
    /// Forbid `.unwrap()` (`L001`).
    pub unwrap: bool,
    /// Forbid `.expect(...)` (`L002`).
    pub expect: bool,
    /// Forbid `panic!(...)` (`L003`).
    pub panic: bool,
    /// Forbid slice/array indexing (`L004`).
    pub index: bool,
    /// Forbid raw `File::create` (`L006`).
    pub raw_create: bool,
}

impl Policy {
    /// The full hot-path policy.
    pub fn hot_path() -> Policy {
        Policy {
            unwrap: true,
            expect: true,
            panic: true,
            index: true,
            raw_create: true,
        }
    }

    /// Only the persistence rule (`L006`): crates that write durable
    /// artifacts but whose compute paths are not under the panic policy.
    pub fn persistence() -> Policy {
        Policy {
            raw_create: true,
            ..Policy::default()
        }
    }

    /// The policy for a workspace crate directory name, or `None` when the
    /// crate is not linted. Hot-path crates — the ones a malformed request
    /// or checkpoint reaches — get the full table; crates that persist
    /// state (weights, checkpoints, bench results, the atomic writer
    /// itself) get the `L006` persistence rule.
    pub fn for_crate(name: &str) -> Option<Policy> {
        match name {
            "tensor" | "graph" | "serve" | "scale" | "online" => Some(Policy::hot_path()),
            "core" | "bench" | "faults" => Some(Policy::persistence()),
            _ => None,
        }
    }
}

/// One policy violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable code from [`codes`].
    pub code: &'static str,
    /// Gate level (`Deny` fails the lint run, `Warn` is reported only).
    pub severity: Severity,
    /// File the finding is in (workspace-relative when produced by
    /// [`lint_workspace`]).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable finding.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.file, self.line, self.code, self.severity, self.message
        )
    }
}

/// Lints one file's source under `policy`. `file` is the label used in
/// findings. Returns the violations in source order.
pub fn lint_file(file: &str, src: &str, policy: &Policy) -> Vec<Violation> {
    let m = mask(src);
    let mut out = Vec::new();
    let mut push = |offset: usize, code: &'static str, severity: Severity, message: String| {
        if m.in_test(offset) {
            return;
        }
        let line = m.line_of(offset);
        if m.allows.permits(line, code) {
            return;
        }
        out.push(Violation {
            code,
            severity,
            file: file.to_string(),
            line: line + 1,
            message,
        });
    };

    if policy.unwrap {
        scan_method_call(&m.text, b".unwrap", |offset| {
            push(
                offset,
                codes::UNWRAP,
                Severity::Deny,
                "`.unwrap()` panics on the hot path; return an error or annotate the invariant"
                    .into(),
            );
        });
    }
    if policy.expect {
        scan_method_call(&m.text, b".expect", |offset| {
            push(
                offset,
                codes::EXPECT,
                Severity::Deny,
                "`.expect(...)` panics on the hot path; return an error or annotate the invariant"
                    .into(),
            );
        });
    }
    if policy.panic {
        let mut from = 0usize;
        while let Some(pos) = find_from(&m.text, b"panic!", from) {
            from = pos + 6;
            let before = if pos == 0 { b' ' } else { m.text[pos - 1] };
            if ident_char(before) {
                continue; // e.g. `catch_panic!` or an identifier suffix
            }
            push(
                pos,
                codes::PANIC,
                Severity::Deny,
                "`panic!` kills the worker thread; return an error or annotate the invariant"
                    .into(),
            );
        }
    }
    if policy.index {
        for (pos, &b) in m.text.iter().enumerate() {
            if b != b'[' {
                continue;
            }
            // Indexing iff `[` directly follows an expression: identifier,
            // `)`, or `]`. Attributes (`#[...]`) and macros (`vec![...]`)
            // follow `#`/`!`; literals and generics follow `=`/`(`/`<`/ws;
            // keywords (`&mut [f32]`, `in [..]`, `return [..]`) start a
            // type or expression rather than ending one.
            let mut k = pos;
            let prev = loop {
                if k == 0 {
                    break b' ';
                }
                k -= 1;
                let c = m.text[k];
                if c != b' ' && c != b'\n' {
                    break c;
                }
            };
            let keyword_before = ident_char(prev) && {
                let end = k + 1;
                let mut start = end;
                while start > 0 && ident_char(m.text[start - 1]) {
                    start -= 1;
                }
                matches!(
                    &m.text[start..end],
                    b"mut" | b"const" | b"dyn" | b"in" | b"return" | b"break" | b"else" | b"match"
                )
            };
            if (ident_char(prev) && !keyword_before) || prev == b')' || prev == b']' {
                push(
                    pos,
                    codes::INDEX,
                    Severity::Deny,
                    "slice indexing panics out of bounds; use .get()/.first() or annotate the \
                     invariant"
                        .into(),
                );
            }
        }
    }
    if policy.raw_create {
        let mut from = 0usize;
        while let Some(pos) = find_from(&m.text, b"File::create", from) {
            from = pos + 12;
            let before = if pos == 0 { b' ' } else { m.text[pos - 1] };
            if ident_char(before) {
                continue; // e.g. `MyFile::create`
            }
            let mut k = pos + 12;
            while k < m.text.len() && (m.text[k] == b' ' || m.text[k] == b'\n') {
                k += 1;
            }
            if m.text.get(k) == Some(&b'(') {
                push(
                    pos,
                    codes::RAW_FILE_CREATE,
                    Severity::Deny,
                    "raw `File::create` tears the file on a crash mid-write; persist through \
                     `stgnn_faults::fsio::atomic_write` or annotate the invariant"
                        .into(),
                );
            }
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// `.name` followed by optional whitespace and `(`, with nothing joining
/// the identifier (so `.unwrap_or_default()` never matches `.unwrap`).
pub(crate) fn scan_method_call(masked: &[u8], pat: &[u8], mut hit: impl FnMut(usize)) {
    let mut from = 0usize;
    while let Some(pos) = find_from(masked, pat, from) {
        from = pos + pat.len();
        let mut k = pos + pat.len();
        if k < masked.len() && ident_char(masked[k]) {
            continue;
        }
        while k < masked.len() && (masked[k] == b' ' || masked[k] == b'\n') {
            k += 1;
        }
        if masked.get(k) == Some(&b'(') {
            hit(pos);
        }
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// output. `tests/`, `benches/` and `examples/` subtrees are skipped —
/// the policy exempts test code.
pub(crate) fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if matches!(name, "tests" | "benches" | "examples" | "target") {
                continue;
            }
            rust_sources(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every policied crate under `<root>/crates`, returning the
/// violations plus the number of files scanned.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Violation>, usize)> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for crate_dir in crate_dirs {
        let name = crate_dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some(policy) = Policy::for_crate(name) else {
            continue;
        };
        let src_dir = crate_dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_sources(&src_dir, &mut files)?;
        for path in files {
            scanned += 1;
            let src = std::fs::read_to_string(&path)?;
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            violations.extend(lint_file(&label, &src, &policy));
        }
    }
    Ok((violations, scanned))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deny_codes(src: &str, policy: &Policy) -> Vec<&'static str> {
        lint_file("test.rs", src, policy)
            .into_iter()
            .filter(|v| v.severity == Severity::Deny)
            .map(|v| v.code)
            .collect()
    }

    #[test]
    fn detects_unwrap_expect_panic() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"msg\");\n    panic!(\"boom\");\n}\n";
        let codes = deny_codes(src, &Policy::hot_path());
        assert_eq!(codes, vec![codes::UNWRAP, codes::EXPECT, codes::PANIC]);
    }

    #[test]
    fn unwrap_or_variants_do_not_match() {
        let src = "fn f() {\n    x.unwrap_or_default();\n    x.unwrap_or(0);\n    \
                   x.unwrap_or_else(|| 0);\n    r.expect_err(\"e\");\n}\n";
        assert!(deny_codes(src, &Policy::hot_path()).is_empty());
    }

    #[test]
    fn strings_and_comments_are_masked() {
        let src = "fn f() {\n    let s = \"call .unwrap() and panic!()\";\n    \
                   // a comment mentioning x.unwrap()\n    /* panic!(\"no\") */\n    \
                   let r = r#\"x.unwrap() [0]\"#;\n}\n";
        assert!(deny_codes(src, &Policy::hot_path()).is_empty());
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_derail_the_lexer() {
        let src = "fn f<'a>(x: &'a str) -> char {\n    let c = 'x';\n    let q = '\\'';\n    \
                   y.unwrap();\n    c\n}\n";
        assert_eq!(deny_codes(src, &Policy::hot_path()), vec![codes::UNWRAP]);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn prod() { x.unwrap(); }\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
                   fn t() { y.unwrap(); z.expect(\"in test\"); }\n}\n";
        let v = lint_file("test.rs", src, &Policy::hot_path());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn test_attr_fn_outside_mod_is_exempt() {
        let src = "#[test]\nfn t() { y.unwrap(); }\n\nfn prod() { x.unwrap(); }\n";
        let v = lint_file("test.rs", src, &Policy::hot_path());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn allow_escapes_same_line_and_line_above() {
        let src = "fn f() {\n    x.unwrap(); // lint: allow(L001): checked above\n    \
                   // lint: allow(L001): also fine\n    y.unwrap();\n    z.unwrap();\n}\n";
        let v = lint_file("test.rs", src, &Policy::hot_path());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn multi_line_standalone_allow_reaches_the_next_code_line() {
        let src = "fn f() {\n    // lint: allow(L001): a long invariant that\n    \
                   // spills onto a second comment line\n    x.unwrap();\n}\n";
        assert!(deny_codes(src, &Policy::hot_path()).is_empty());
    }

    #[test]
    fn allow_file_grandfathers_one_code_only() {
        let src = "// lint: allow-file(L004): dense kernels index shape-checked buffers\n\
                   fn f() {\n    let v = buf[i];\n    x.unwrap();\n}\n";
        let codes = deny_codes(src, &Policy::hot_path());
        assert_eq!(codes, vec![codes::UNWRAP]);
    }

    #[test]
    fn indexing_detection_skips_attributes_macros_and_types() {
        let src = "#[derive(Clone)]\nstruct S { a: [f32; 4] }\nfn f(v: &Vec<[f32; 2]>) {\n    \
                   let x = vec![1, 2];\n    let y = v[0];\n    let z = f(a)[1];\n}\n";
        let v = lint_file("test.rs", src, &Policy::hot_path());
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![5, 6], "{v:?}");
        assert!(v.iter().all(|v| v.code == codes::INDEX));
    }

    #[test]
    fn indexing_detection_skips_keywords_before_bracket() {
        // `mut [f32]` is a slice type, `in [...]` / `return [...]` start
        // expressions — none of them index anything.
        let src = "fn f(&mut self) -> &mut [f32] {\n    for x in [1, 2] {}\n    \
                   return [0.0; 4];\n}\n";
        assert!(deny_codes(src, &Policy::hot_path()).is_empty());
    }

    #[test]
    fn raw_file_create_flagged_and_escapable() {
        let src = "fn save() {\n    let f = std::fs::File::create(\"weights.bin\");\n}\n";
        assert_eq!(
            deny_codes(src, &Policy::persistence()),
            vec![codes::RAW_FILE_CREATE]
        );

        let allowed = "fn save() {\n    // lint: allow(L006) — the atomic writer itself\n    \
                       let f = std::fs::File::create(\"weights.bin\");\n}\n";
        assert!(deny_codes(allowed, &Policy::persistence()).is_empty());

        // Not a call, a different type, or test code: all clean.
        let clean = "fn f() { MyFile::create(); }\n#[cfg(test)]\nmod t {\n    fn g() \
                     { std::fs::File::create(\"x\"); }\n}\n";
        assert!(deny_codes(clean, &Policy::persistence()).is_empty());
    }

    #[test]
    fn persistence_policy_skips_the_panic_rules() {
        let src = "fn f() {\n    x.unwrap();\n    panic!(\"boom\");\n}\n";
        assert!(deny_codes(src, &Policy::persistence()).is_empty());
    }

    #[test]
    fn policy_table_covers_hot_path_and_persistence_crates() {
        assert!(Policy::for_crate("tensor").is_some());
        assert!(Policy::for_crate("graph").is_some());
        assert!(Policy::for_crate("serve").is_some());
        assert!(Policy::for_crate("scale").is_some());
        // The online loop swaps models under live traffic: full hot-path
        // policy, same as serve.
        assert!(Policy::for_crate("online").is_some());
        assert!(Policy::for_crate("online").unwrap().unwrap);
        assert!(Policy::for_crate("tensor").unwrap().raw_create);
        // Persistence-only crates get L006 but not the panic policy.
        let core = Policy::for_crate("core").unwrap();
        assert!(core.raw_create && !core.unwrap);
        assert!(Policy::for_crate("bench").is_some());
        assert!(Policy::for_crate("faults").is_some());
        assert!(Policy::for_crate("data").is_none());
    }

    #[test]
    fn source_walk_descends_into_the_plan_module_directory() {
        // The compiler lives in `tensor/src/plan/{ir,passes,exec}.rs`; the
        // hot-path policy must reach those files, not just top-level
        // modules of the crate.
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tensor/src");
        let mut files = Vec::new();
        rust_sources(&src, &mut files).expect("walk tensor src");
        for module in ["ir.rs", "passes.rs", "exec.rs"] {
            assert!(
                files
                    .iter()
                    .any(|p| p.ends_with(Path::new("plan").join(module))),
                "lint walk missed plan/{module}"
            );
        }
    }
}
