//! Determinism-taint analysis (`S003`–`S005`).
//!
//! The repo's parity theorems (DESIGN.md §9.2: eager ≡ plan bit for bit,
//! deterministic dropout streams) hold only while no
//! nondeterministic value reaches a tensor, an RNG seed, a checkpoint
//! byte, or a benchmark's reported numbers. This pass marks the
//! **sources** textually:
//!
//! * `Instant::now(` / `SystemTime::now(` — wall-clock;
//! * `thread::current(` — thread identity;
//! * `available_parallelism(` — machine shape;
//! * `RandomState` — randomized hashing;
//! * `.iter()`/`.keys()`/`.values()` on a local or field declared
//!   `HashMap`/`HashSet` — iteration order is seed-dependent;
//!
//! propagates them through single-line `let`/assignment bindings inside
//! each function body (plus a bounded interprocedural fixpoint: a call to
//! a uniquely-named workspace function whose *return* is tainted counts as
//! a source), and denies flow into the **sinks**:
//!
//! * `S003` — RNG seeding (`seed(`/`reseed(`/`from_seed(`/`set_seed(`) or
//!   tensor-value construction (`Tensor::from_vec(` etc.);
//! * `S004` — persisted bytes (`atomic_write(`, the sanctioned writer);
//! * `S005` — `format!`/`write!` in a file that builds a `BENCH_*.json`
//!   artifact — wall-clock latency fields are the *point* of a bench
//!   report, so those files carry `// sound: allow-file(S005)` escapes
//!   with a named invariant rather than being skipped silently.
//!
//! Like the lock pass, this is a deliberate under-approximation (no
//! struct-field taint, single-line bindings only); the seeded-defect suite
//! pins what it must catch, and DESIGN.md §13 records what it cannot.

use super::parser::FnInfo;
use super::Finding;
use std::collections::HashSet;

const SOURCES: &[&str] = &[
    "Instant::now(",
    "SystemTime::now(",
    "thread::current(",
    "available_parallelism(",
    "RandomState::new(",
    "RandomState::default(",
];

const SEED_SINKS: &[&str] = &["seed(", "reseed(", "from_seed(", "set_seed("];
const TENSOR_SINKS: &[&str] = &[
    "Tensor::from_vec(",
    "Tensor::full(",
    "Tensor::zeros(",
    "Tensor::ones(",
    "Tensor::new(",
];
const FORMAT_SINKS: &[&str] = &["format!(", "write!(", "writeln!("];

/// Per-file inputs the pass needs beyond the parsed functions.
pub(crate) struct TaintFile<'a> {
    /// Masked lines of the file (strings blanked).
    pub mask: &'a crate::lex::MaskedSource,
    /// Raw source — `BENCH_` lives inside string literals, which the
    /// masked text blanks.
    pub raw: &'a str,
}

/// `word` appears in `line` with non-identifier characters on both sides.
fn contains_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0usize;
    while let Some(p) = line[from..].find(word) {
        let p = from + p;
        from = p + word.len().max(1);
        let before_ok = p == 0 || !crate::lex::ident_char(bytes[p - 1]);
        let after = p + word.len();
        let after_ok = after >= bytes.len() || !crate::lex::ident_char(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// Field names declared `HashMap`/`HashSet` anywhere in the file —
/// `.iter()` on them is a nondeterminism source.
fn hashed_fields(m: &crate::lex::MaskedSource) -> HashSet<String> {
    let mut out = HashSet::new();
    let text = std::str::from_utf8(&m.text).unwrap_or("");
    for pat in [": HashMap<", ": HashSet<"] {
        let mut from = 0usize;
        while let Some(p) = text[from..].find(pat) {
            let p = from + p;
            from = p + pat.len();
            let bytes = text.as_bytes();
            let mut s = p;
            while s > 0 && crate::lex::ident_char(bytes[s - 1]) {
                s -= 1;
            }
            if s < p {
                out.insert(text[s..p].to_string());
            }
        }
    }
    out
}

/// `.iter()`/`.keys()`/`.values()` whose receiver's last path segment is a
/// known `HashMap`/`HashSet` local or field.
fn hashed_iteration(line: &str, hashed: &HashSet<String>) -> bool {
    for pat in [".iter()", ".keys()", ".values()"] {
        let mut from = 0usize;
        while let Some(p) = line[from..].find(pat) {
            let p = from + p;
            from = p + pat.len();
            let bytes = line.as_bytes();
            let mut s = p;
            while s > 0 && crate::lex::ident_char(bytes[s - 1]) {
                s -= 1;
            }
            if s < p && hashed.contains(&line[s..p]) {
                return true;
            }
        }
    }
    false
}

struct ScanResult {
    findings: Vec<Finding>,
    returns_tainted: bool,
}

/// One intraprocedural pass over a function body.
fn scan_fn(
    f: &FnInfo,
    file: &TaintFile<'_>,
    fields: &HashSet<String>,
    derived_sources: &HashSet<String>,
) -> ScanResult {
    let m = file.mask;
    let first = m.line_of(f.body.0);
    let last = m.line_of(f.body.1.saturating_sub(1));
    let bench_file = file.raw.contains("BENCH_");

    let mut tainted: HashSet<String> = HashSet::new();
    let mut hashed: HashSet<String> = fields.clone();
    let mut findings = Vec::new();
    let mut returns_tainted = false;
    let mut tail: Option<(usize, String)> = None;

    for lineno in first..=last {
        let line = m.line_text(lineno).to_string();
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }

        let has_source =
            SOURCES.iter().any(|s| line.contains(s)) || hashed_iteration(&line, &hashed);
        let has_derived = derived_sources
            .iter()
            .any(|d| contains_word(&line, d) && line.contains(&format!("{d}(")));
        let has_tainted_ident = tainted.iter().any(|t| contains_word(&line, t));
        let line_tainted = has_source || has_derived || has_tainted_ident;

        // Track HashMap/HashSet locals for the iteration source.
        if let Some(rest) = trimmed.strip_prefix("let ") {
            let name = rest
                .split(['=', ':'])
                .next()
                .unwrap_or("")
                .trim()
                .trim_start_matches("mut ")
                .trim()
                .to_string();
            let is_hashed = line.contains(": HashMap<")
                || line.contains(": HashSet<")
                || line.contains("HashMap::new(")
                || line.contains("HashSet::new(")
                || line.contains("HashMap::with_capacity(")
                || line.contains("HashSet::with_capacity(");
            if !name.is_empty() && name.bytes().all(crate::lex::ident_char) {
                if is_hashed {
                    hashed.insert(name.clone());
                }
                if line_tainted {
                    tainted.insert(name);
                }
            }
        } else if let Some(eq) = line.find(" = ") {
            // Plain reassignment `name = <tainted rhs>;`.
            let lhs = line[..eq].trim();
            let rhs_tainted = SOURCES.iter().any(|s| line[eq..].contains(s))
                || tainted.iter().any(|t| contains_word(&line[eq..], t));
            if rhs_tainted && !lhs.is_empty() && lhs.bytes().all(crate::lex::ident_char) {
                tainted.insert(lhs.to_string());
            }
        }

        if line_tainted {
            let mut hit = |code: &'static str, message: String| {
                findings.push(Finding {
                    code,
                    file: f.file,
                    line: lineno,
                    message,
                    sites: Vec::new(),
                });
            };
            if SEED_SINKS.iter().any(|s| line.contains(s)) {
                hit(
                    super::codes::TAINT_SEED,
                    format!(
                        "nondeterministic value reaches RNG seeding in {}(); parity \
                         (DESIGN.md \u{a7}4) requires seeds derived from config, not the \
                         environment",
                        f.name
                    ),
                );
            }
            if TENSOR_SINKS.iter().any(|s| line.contains(s)) {
                hit(
                    super::codes::TAINT_SEED,
                    format!(
                        "nondeterministic value reaches tensor construction in {}(); model \
                         inputs must be a pure function of data and config",
                        f.name
                    ),
                );
            }
            if line.contains("atomic_write(") {
                hit(
                    super::codes::TAINT_CHECKPOINT,
                    format!(
                        "nondeterministic value reaches persisted bytes via atomic_write in \
                         {}(); checkpoints must be bit-reproducible",
                        f.name
                    ),
                );
            }
            if bench_file && FORMAT_SINKS.iter().any(|s| line.contains(s)) {
                hit(
                    super::codes::TAINT_BENCH,
                    format!(
                        "wall-clock-derived value formatted into a BENCH_*.json field in \
                         {}(); annotate the invariant if timing is the payload",
                        f.name
                    ),
                );
            }
        }

        if let Some(rest) = trimmed.strip_prefix("return ") {
            if SOURCES.iter().any(|s| rest.contains(s))
                || tainted.iter().any(|t| contains_word(rest, t))
            {
                returns_tainted = true;
            }
        }
        if trimmed != "}" {
            tail = Some((lineno, trimmed.to_string()));
        }
    }
    // Tail-expression return: the last content line, unterminated.
    if let Some((_, t)) = tail {
        if !t.ends_with(';')
            && !t.ends_with('{')
            && !t.ends_with('}')
            && (SOURCES.iter().any(|s| t.contains(s))
                || tainted.iter().any(|x| contains_word(&t, x)))
        {
            returns_tainted = true;
        }
    }
    ScanResult {
        findings,
        returns_tainted,
    }
}

/// Runs the taint pass over every non-test function. `files[i]` must
/// correspond to `FnInfo::file == i`; `resolvable` maps a fn name to
/// itself when unique and off the stoplist (reusing the lock pass's
/// resolver discipline).
pub(crate) fn analyze_taint(
    fns: &[FnInfo],
    files: &[TaintFile<'_>],
    resolvable: &dyn Fn(&str) -> bool,
) -> Vec<Finding> {
    let fields: Vec<HashSet<String>> = files.iter().map(|f| hashed_fields(f.mask)).collect();
    let mut derived: HashSet<String> = HashSet::new();
    // Interprocedural return-taint fixpoint, bounded: each round can only
    // add fn names, and five rounds cover any realistic call depth here.
    for _ in 0..5 {
        let mut next = derived.clone();
        for f in fns.iter().filter(|f| !f.in_test) {
            let r = scan_fn(f, &files[f.file], &fields[f.file], &derived);
            if r.returns_tainted && resolvable(&f.name) {
                next.insert(f.name.clone());
            }
        }
        if next.len() == derived.len() {
            break;
        }
        derived = next;
    }
    let mut out = Vec::new();
    for f in fns.iter().filter(|f| !f.in_test) {
        out.extend(scan_fn(f, &files[f.file], &fields[f.file], &derived).findings);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::mask;
    use crate::sound::parser::parse_functions;

    fn run(src: &str) -> Vec<Finding> {
        let m = mask(src);
        let fns = parse_functions(&m, 0, "fix");
        let unique: HashSet<String> = fns.iter().map(|f| f.name.clone()).collect();
        let files = [TaintFile { mask: &m, raw: src }];
        analyze_taint(&fns, &files, &|n| unique.contains(n))
    }

    #[test]
    fn clock_to_seed_is_denied() {
        let f = run(
            "fn f(rng: &mut StreamRng) {\n    let t = Instant::now();\n    \
             let s = t.elapsed().as_nanos() as u64;\n    rng.reseed(s);\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S003");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn config_seed_is_clean() {
        let f = run("fn f(rng: &mut StreamRng, cfg: &Config) {\n    rng.reseed(cfg.seed);\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn clock_to_checkpoint_bytes_is_denied() {
        let f = run("fn save(&self) {\n    let stamp = SystemTime::now();\n    \
             atomic_write(path, encode(stamp));\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S004");
    }

    #[test]
    fn clock_to_bench_field_only_in_bench_files() {
        let src = "fn report() {\n    let t0 = Instant::now();\n    \
                   let ms = t0.elapsed().as_secs_f64() * 1e3;\n    \
                   let row = format!(\"x\", ms);\n    atomic_write(\"BENCH_x.json\", row);\n}\n";
        let f = run(src);
        assert!(f.iter().any(|f| f.code == "S005"), "{f:?}");
        // The same flow without a BENCH_ artifact in the file is a metrics
        // path — allowed by construction.
        let f = run(&src.replace("BENCH_x.json", "latency.log"));
        assert!(f.iter().all(|f| f.code != "S005"), "{f:?}");
    }

    #[test]
    fn hashmap_iteration_into_tensor_is_denied() {
        let f = run(
            "fn build(&self) {\n    let index: HashMap<u32, f32> = HashMap::new();\n    \
             let vals: Vec<f32> = index.values().copied().collect();\n    \
             let t = Tensor::from_vec(vals, vec![n]);\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S003");
        assert!(f[0].message.contains("tensor construction"));
    }

    #[test]
    fn vec_iteration_is_clean() {
        let f = run(
            "fn build(&self) {\n    let index: Vec<f32> = Vec::new();\n    \
             let vals: Vec<f32> = index.iter().copied().collect();\n    \
             let t = Tensor::from_vec(vals, vec![n]);\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn taint_flows_through_a_unique_helper_return() {
        let f = run(
            "fn wall_nanos() -> u64 {\n    let t = Instant::now();\n    \
             t.elapsed().as_nanos() as u64\n}\n\
             fn f(rng: &mut StreamRng) {\n    let s = wall_nanos();\n    rng.reseed(s);\n}\n",
        );
        assert!(
            f.iter()
                .any(|x| x.code == "S003" && x.message.contains("f()")),
            "{f:?}"
        );
    }

    #[test]
    fn thread_id_and_parallelism_are_sources() {
        let f = run(
            "fn f(rng: &mut R) {\n    let id = thread::current();\n    rng.reseed(id);\n}\n\
             fn g(rng: &mut R) {\n    let n = available_parallelism();\n    rng.seed(n);\n}\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
    }
}
