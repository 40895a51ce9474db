//! `stgnn-sound`: the workspace's one source analyzer.
//!
//! Four passes over one item/block parse of every crate's sources (see
//! [`parser`]), built on the [`crate::lex`] masked text:
//!
//! | code | pass | finding |
//! |------|------|---------|
//! | `L001` | [`policy`] | `.unwrap()` in non-test code of a hot-path crate |
//! | `L002` | [`policy`] | `.expect(...)` in non-test code of a hot-path crate |
//! | `L003` | [`policy`] | `panic!`/`unreachable!`/`todo!`/`unimplemented!` there |
//! | `L004` | [`policy`] | slice/array indexing `x[...]` there |
//! | `L006` | [`policy`] | raw `File::create` in a hot-path or persistence crate |
//! | `S000` | escapes | malformed `// sound: allow(...)` (no named invariant) |
//! | `S001` | [`locks`] | lock-order cycle in the may-hold-while-acquiring graph |
//! | `S002` | [`locks`] | lock held across a `send`/`failpoint!`/`forward` boundary |
//! | `S003` | [`taint`] | nondeterminism flows into RNG seeding / tensor values |
//! | `S004` | [`taint`] | nondeterminism flows into persisted checkpoint bytes |
//! | `S005` | [`taint`] | wall-clock flows into a `BENCH_*.json` field |
//! | `S006` | [`locks`]+[`panics`] | panic reachable while a lock guard is live |
//!
//! Hot-path crates (`tensor`, `graph`, `serve`, `scale`, `online`) enforce
//! every L-code; persistence crates (`core`, `bench`, `faults`) enforce
//! `L006` only; the S-passes cover every crate. `L005` (a guard held across
//! `forward`) is retired in favour of `S002`.
//!
//! Every finding is deny-level: the `validate_sound` CI gate fails on any
//! active diagnostic. The only way past the gate is an escape comment
//! carrying a **named invariant** —
//!
//! ```text
//! // sound: allow(S002): UNBOUNDED-SEND-NONBLOCKING — respond channels are
//! // unbounded, so send() cannot block under the queue lock.
//! ```
//!
//! — and the full escape inventory (code, site, invariant, whether it
//! suppressed anything) is published in `SOUND_REPORT.json`, so the
//! trusted base is a reviewable list rather than scattered comments.

pub(crate) mod locks;
pub(crate) mod panics;
pub(crate) mod parser;
pub(crate) mod policy;
pub(crate) mod taint;

use crate::lex::{mask, MaskedSource};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Stable source codes: the crate policy (`L0xx`) and the soundness passes
/// (`S0xx`).
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
    /// A `// sound: allow(...)` escape without a named invariant.
    pub const MALFORMED_ESCAPE: &str = "S000";
    /// Lock-order cycle — a deadlock witness.
    pub const LOCK_ORDER_CYCLE: &str = "S001";
    /// Lock held across a blocking/divergence boundary.
    pub const LOCK_ACROSS_BOUNDARY: &str = "S002";
    /// Nondeterminism reaches RNG seeding or tensor construction.
    pub const TAINT_SEED: &str = "S003";
    /// Nondeterminism reaches persisted checkpoint bytes.
    pub const TAINT_CHECKPOINT: &str = "S004";
    /// Wall-clock reaches a `BENCH_*.json` numeric field.
    pub const TAINT_BENCH: &str = "S005";
    /// Panic reachable while a lock guard is live (or a
    /// poison-propagating acquisition).
    pub const PANIC_UNDER_LOCK: &str = "S006";
}

/// A raw pass finding, pre-escape-resolution. `file` indexes the scanned
/// file list; `line` is 0-based; `sites` carries extra provenance (cycle
/// edges) that escapes may also match.
#[derive(Debug, Clone)]
pub(crate) struct Finding {
    pub code: &'static str,
    pub file: usize,
    pub line: usize,
    pub message: String,
    pub sites: Vec<(usize, usize)>,
}

/// An active (deny) diagnostic in the final report.
#[derive(Debug, Clone)]
pub struct SoundDiagnostic {
    /// Stable code from [`codes`].
    pub code: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable finding.
    pub message: String,
}

/// One well-formed escape, published so the trusted base is auditable.
#[derive(Debug, Clone)]
pub struct EscapeRecord {
    /// The code the escape targets.
    pub code: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based annotated line; `None` for `allow-file`.
    pub line: Option<usize>,
    /// The named invariant justifying the escape.
    pub invariant: String,
    /// The escape suppressed at least one finding this run.
    pub used: bool,
}

/// One may-hold-while-acquiring edge, for the report.
#[derive(Debug, Clone)]
pub struct EdgeRecord {
    pub from: String,
    pub to: String,
    /// `file:line` of the witnessing acquisition.
    pub site: String,
}

/// The full analysis result: what `stgnn-sound` prints and what
/// `SOUND_REPORT.json` serializes.
#[derive(Debug, Default)]
pub struct SoundReport {
    pub files_scanned: usize,
    pub functions: usize,
    /// Every lock identity seen (`<file-stem>::<receiver>`), sorted.
    pub locks: Vec<String>,
    /// The deduplicated lock-order graph.
    pub edges: Vec<EdgeRecord>,
    /// Active deny diagnostics, sorted by file/line/code.
    pub diagnostics: Vec<SoundDiagnostic>,
    /// The escape inventory.
    pub escapes: Vec<EscapeRecord>,
}

impl SoundReport {
    /// Count of active denies — nonzero fails the gate.
    pub fn denies(&self) -> usize {
        self.diagnostics.len()
    }

    /// Human-readable summary (the bin's stdout).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(s, "{}:{}: {} [deny] {}", d.file, d.line, d.code, d.message);
        }
        let _ = writeln!(
            s,
            "stgnn-sound: {} files, {} functions, {} locks, {} order edges, {} escapes \
             ({} used), {} denied",
            self.files_scanned,
            self.functions,
            self.locks.len(),
            self.edges.len(),
            self.escapes.len(),
            self.escapes.iter().filter(|e| e.used).count(),
            self.denies(),
        );
        s
    }

    /// Machine-readable report, hand-serialized (the workspace has no
    /// serde; same idiom as the bench JSON emitters).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"stgnn-sound-report/v1\",\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"functions\": {},", self.functions);
        let _ = writeln!(s, "  \"denied\": {},", self.denies());
        let locks: Vec<String> = self
            .locks
            .iter()
            .map(|l| format!("\"{}\"", esc(l)))
            .collect();
        let _ = writeln!(s, "  \"locks\": [{}],", locks.join(", "));
        s.push_str("  \"lock_order_edges\": [\n");
        for (i, e) in self.edges.iter().enumerate() {
            let comma = if i + 1 < self.edges.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"from\": \"{}\", \"to\": \"{}\", \"site\": \"{}\"}}{comma}",
                esc(&e.from),
                esc(&e.to),
                esc(&e.site)
            );
        }
        s.push_str("  ],\n  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            let comma = if i + 1 < self.diagnostics.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "    {{\"code\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{comma}",
                d.code,
                esc(&d.file),
                d.line,
                esc(&d.message)
            );
        }
        s.push_str("  ],\n  \"escapes\": [\n");
        for (i, e) in self.escapes.iter().enumerate() {
            let comma = if i + 1 < self.escapes.len() { "," } else { "" };
            let line = e.line.map_or("null".to_string(), |l| l.to_string());
            let _ = writeln!(
                s,
                "    {{\"code\": \"{}\", \"file\": \"{}\", \"line\": {line}, \"invariant\": \
                 \"{}\", \"used\": {}}}{comma}",
                esc(&e.code),
                esc(&e.file),
                esc(&e.invariant),
                e.used
            );
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Lock keys use the file stem, except `lib.rs`/`mod.rs`/`main.rs`, whose
/// stems collide across crates — those fall back to the parent directory
/// segment (the crate or module name).
fn file_stem(label: &str) -> String {
    let parts: Vec<&str> = label.split('/').collect();
    let base = parts.last().copied().unwrap_or(label);
    let stem = base.strip_suffix(".rs").unwrap_or(base);
    if matches!(stem, "lib" | "mod" | "main") {
        // `plan/mod.rs` → `plan`; `serve/src/lib.rs` → `serve` (the `src`
        // segment never names anything).
        parts
            .iter()
            .rev()
            .skip(1)
            .find(|p| **p != "src")
            .map(|p| p.to_string())
            .unwrap_or_else(|| stem.to_string())
    } else {
        stem.to_string()
    }
}

/// Runs all passes over `(label, source)` pairs. The testable entry point
/// — [`analyze_workspace`] feeds it the real tree, the seeded-defect suite
/// feeds it fixtures.
pub fn analyze_sources(files: &[(String, String)]) -> SoundReport {
    let masks: Vec<MaskedSource> = files.iter().map(|(_, src)| mask(src)).collect();
    let mut fns = Vec::new();
    for (i, (label, _)) in files.iter().enumerate() {
        fns.extend(parser::parse_functions(&masks[i], i, &file_stem(label)));
    }
    let resolver = locks::Resolver::build(&fns);
    let may_panic = panics::may_panic(&fns, &resolver);
    let (mut findings, edges) = locks::analyze_locks(&fns, &resolver, &may_panic);
    findings.extend(locks::lock_order_cycles(&edges));
    let enforced: Vec<&[&str]> = files
        .iter()
        .map(|(label, _)| policy::enforced(policy::crate_of(label)))
        .collect();
    findings.extend(policy::violations(&fns, &enforced));
    let taint_files: Vec<taint::TaintFile<'_>> = files
        .iter()
        .enumerate()
        .map(|(i, (_, src))| taint::TaintFile {
            mask: &masks[i],
            raw: src,
        })
        .collect();
    findings.extend(taint::analyze_taint(&fns, &taint_files, &|n| {
        resolver.resolve(n).is_some()
    }));
    // Malformed escapes are findings themselves: an unnamed escape is an
    // unreviewable one, and must not silently suppress anything.
    for (i, m) in masks.iter().enumerate() {
        for a in m.malformed_sound_allows() {
            findings.push(Finding {
                code: codes::MALFORMED_ESCAPE,
                file: i,
                line: a.at_line,
                message: format!(
                    "escape for {} lacks a named invariant (`// sound: allow({}): \
                     INVARIANT-NAME — why`); it suppresses nothing until named",
                    a.code, a.code
                ),
                sites: Vec::new(),
            });
        }
    }

    // Resolve escapes: a finding is suppressed when its line — or, for
    // cycles, any witnessing site — carries a well-formed escape for its
    // code. S000 itself cannot be escaped.
    let mut used: Vec<Vec<bool>> = masks
        .iter()
        .map(|m| vec![false; m.sound_allows.len()])
        .collect();
    let mut diagnostics = Vec::new();
    for f in &findings {
        let mut suppressed = false;
        if f.code != codes::MALFORMED_ESCAPE {
            let mut sites = vec![(f.file, f.line)];
            sites.extend(f.sites.iter().copied());
            for (fi, line) in sites {
                if let Some(a) = masks[fi].sound_permits(line, f.code) {
                    suppressed = true;
                    if let Some(idx) = masks[fi]
                        .sound_allows
                        .iter()
                        .position(|x| std::ptr::eq(x, a))
                    {
                        used[fi][idx] = true;
                    }
                    break;
                }
            }
        }
        if !suppressed {
            diagnostics.push(SoundDiagnostic {
                code: f.code,
                file: files[f.file].0.clone(),
                line: f.line + 1,
                message: f.message.clone(),
            });
        }
    }
    diagnostics.sort_by(|a, b| {
        (&a.file, a.line, a.code)
            .partial_cmp(&(&b.file, b.line, b.code))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut escapes = Vec::new();
    for (i, m) in masks.iter().enumerate() {
        for (j, a) in m.sound_allows.iter().enumerate() {
            let Some(inv) = &a.invariant else { continue };
            escapes.push(EscapeRecord {
                code: a.code.clone(),
                file: files[i].0.clone(),
                line: (!a.file_level).then(|| a.line + 1),
                invariant: inv.clone(),
                used: used[i][j],
            });
        }
    }

    let lock_set: BTreeSet<String> = fns
        .iter()
        .flat_map(|f| f.events.iter().chain(f.detached.iter().flatten()))
        .filter_map(|e| match e {
            parser::Ev::Acquire { lock, .. } => Some(lock.clone()),
            _ => None,
        })
        .collect();
    let edge_records = edges
        .iter()
        .map(|e| EdgeRecord {
            from: e.from.clone(),
            to: e.to.clone(),
            site: format!("{}:{}", files[e.file].0, e.line + 1),
        })
        .collect();

    SoundReport {
        files_scanned: files.len(),
        functions: fns.len(),
        locks: lock_set.into_iter().collect(),
        edges: edge_records,
        diagnostics,
        escapes,
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// output. `tests/`, `benches/` and `examples/` subtrees are skipped —
/// the policy exempts test code.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
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

/// Scans every crate's `src/` tree under `<root>/crates` (all crates, not
/// just the policed ones — taint flows through `core`, `data` and `bench`
/// too) and runs [`analyze_sources`].
pub fn analyze_workspace(root: &Path) -> std::io::Result<SoundReport> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for crate_dir in crate_dirs {
        let src_dir = crate_dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        rust_sources(&src_dir, &mut paths)?;
        for path in paths {
            let src = std::fs::read_to_string(&path)?;
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push((label, src));
        }
    }
    Ok(analyze_sources(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(label: &str, src: &str) -> SoundReport {
        analyze_sources(&[(label.to_string(), src.to_string())])
    }

    #[test]
    fn escape_with_invariant_suppresses_and_is_recorded() {
        let src = "fn submit(&self) {\n    let q = self.queue.lock();\n    \
                   // sound: allow(S002): UNBOUNDED-SEND-NONBLOCKING — cannot block\n    \
                   req.respond.send(out);\n}\n";
        let r = one("crates/serve/src/batch.rs", src);
        assert_eq!(r.denies(), 0, "{}", r.render());
        assert_eq!(r.escapes.len(), 1);
        assert!(r.escapes[0].used);
        assert_eq!(r.escapes[0].invariant, "UNBOUNDED-SEND-NONBLOCKING");
    }

    #[test]
    fn malformed_escape_is_a_deny_and_suppresses_nothing() {
        let src = "fn submit(&self) {\n    let q = self.queue.lock();\n    \
                   req.respond.send(out); // sound: allow(S002): lowercase only\n}\n";
        let r = one("crates/serve/src/batch.rs", src);
        let codes: Vec<&str> = r.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"S000"), "{codes:?}");
        assert!(codes.contains(&"S002"), "{codes:?}");
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
                "source walk missed plan/{module}"
            );
        }
    }

    #[test]
    fn lib_rs_lock_keys_use_the_crate_directory() {
        assert_eq!(file_stem("crates/serve/src/lib.rs"), "serve");
        assert_eq!(file_stem("crates/tensor/src/plan/mod.rs"), "plan");
        assert_eq!(file_stem("crates/serve/src/batch.rs"), "batch");
    }

    #[test]
    fn report_json_is_well_formed_enough_to_grep() {
        let src = "fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n\
                   fn g(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n";
        let r = one("crates/tensor/src/par.rs", src);
        assert_eq!(r.denies(), 1, "{}", r.render());
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"stgnn-sound-report/v1\""));
        assert!(json.contains("\"code\": \"S001\""));
        assert!(json.contains("\"from\": \"par::alpha\""));
        assert!(json.starts_with('{') && json.ends_with("}\n"));
    }

    #[test]
    fn cycle_edges_span_files() {
        // `alpha` is only ever acquired in a.rs, `beta` only in b.rs; the
        // two files call into each other's unique helpers while holding
        // their own lock, closing a cross-file cycle.
        let a = "fn hold_alpha_then_beta(&self) {\n    let a = self.alpha.lock();\n    \
                 take_beta();\n}\nfn take_alpha(&self) {\n    let a = self.alpha.lock();\n}\n";
        let b = "fn take_beta(&self) {\n    let b = self.beta.lock();\n}\n\
                 fn hold_beta_then_alpha(&self) {\n    let b = self.beta.lock();\n    \
                 take_alpha();\n}\n";
        let r = analyze_sources(&[
            ("crates/x/src/a.rs".into(), a.into()),
            ("crates/x/src/b.rs".into(), b.into()),
        ]);
        let cycles: Vec<_> = r.diagnostics.iter().filter(|d| d.code == "S001").collect();
        assert_eq!(cycles.len(), 1, "{}", r.render());
        assert!(cycles[0].message.contains("a::alpha"));
        assert!(cycles[0].message.contains("b::beta"));
    }
}
