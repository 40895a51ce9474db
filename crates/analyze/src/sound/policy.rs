//! The crate source policy (`L001`–`L004`, `L006`).
//!
//! A malformed request or checkpoint must come back as an error, not as a
//! panicked worker. So the crates a request or checkpoint reaches forbid
//! the parser's panic and indexing sites in non-test code, and the crates
//! that persist state forbid raw `File::create`. The rules read every
//! event stream of a function — the calling thread's and each detached
//! `spawn` closure's — and ignore the `caught` flag: a `catch_unwind`
//! keeps the process alive, but the request still fails.
//!
//! Indexing outside a function body can only sit in a `const` or `static`
//! initializer, which the compiler evaluates, so reading bodies alone
//! loses no runtime panic.

use super::codes;
use super::parser::{Ev, FnInfo};
use super::Finding;

/// Every L-rule: the crates a malformed request or checkpoint reaches.
const HOT_PATH: &[&str] = &[
    codes::UNWRAP,
    codes::EXPECT,
    codes::PANIC,
    codes::INDEX,
    codes::RAW_FILE_CREATE,
];

/// `L006` only: crates that write durable artifacts (weights, checkpoints,
/// bench results, the atomic writer itself) but whose compute paths are
/// not under the panic policy.
const PERSISTENCE: &[&str] = &[codes::RAW_FILE_CREATE];

/// The L-codes a workspace crate enforces, by its directory name under
/// `crates/`; empty for a crate outside the policy.
pub(crate) fn enforced(crate_name: &str) -> &'static [&'static str] {
    match crate_name {
        "tensor" | "graph" | "serve" | "scale" | "online" => HOT_PATH,
        "core" | "bench" | "faults" => PERSISTENCE,
        _ => &[],
    }
}

/// The crate directory a workspace-relative label sits in:
/// `crates/serve/src/batch.rs` → `serve`.
pub(crate) fn crate_of(label: &str) -> &str {
    label
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

fn message(code: &str) -> &'static str {
    match code {
        codes::UNWRAP => {
            "`.unwrap()` panics on the hot path; return an error or annotate the invariant"
        }
        codes::EXPECT => {
            "`.expect(...)` panics on the hot path; return an error or annotate the invariant"
        }
        codes::PANIC => {
            "`panic!` kills the worker thread; return an error or annotate the invariant"
        }
        codes::INDEX => {
            "slice indexing panics out of bounds; use .get()/.first() or annotate the invariant"
        }
        _ => {
            "raw `File::create` tears the file on a crash mid-write; persist through \
             `stgnn_faults::fsio::atomic_write` or annotate the invariant"
        }
    }
}

fn panic_code(what: &str) -> &'static str {
    match what {
        ".unwrap()" => codes::UNWRAP,
        ".expect(...)" => codes::EXPECT,
        _ => codes::PANIC,
    }
}

/// One finding per policed site in the non-test functions, where
/// `enforced[f.file]` lists the codes `f`'s crate enforces.
pub(crate) fn violations(fns: &[FnInfo], enforced: &[&[&str]]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in fns.iter().filter(|f| !f.in_test) {
        let policy = enforced[f.file];
        let mut push = |code: &'static str, line: usize| {
            if policy.contains(&code) {
                out.push(Finding {
                    code,
                    file: f.file,
                    line,
                    message: message(code).to_string(),
                    sites: Vec::new(),
                });
            }
        };
        for ev in std::iter::once(&f.events).chain(&f.detached).flatten() {
            match ev {
                Ev::Acquire { poison, .. } => {
                    for &(what, line) in poison {
                        push(panic_code(what), line);
                    }
                }
                Ev::Panic { what, line, .. } => push(panic_code(what), *line),
                Ev::Index { line } => push(codes::INDEX, *line),
                Ev::FileCreate { line } => push(codes::RAW_FILE_CREATE, *line),
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_table_covers_hot_path_and_persistence_crates() {
        for name in ["tensor", "graph", "serve", "scale"] {
            assert_eq!(enforced(name), HOT_PATH, "{name}");
        }
        // The online loop swaps models under live traffic: full hot-path
        // policy, same as serve.
        assert!(enforced("online").contains(&codes::UNWRAP));
        assert!(enforced("tensor").contains(&codes::RAW_FILE_CREATE));
        // Persistence-only crates get L006 but not the panic policy.
        let core = enforced("core");
        assert!(core.contains(&codes::RAW_FILE_CREATE) && !core.contains(&codes::UNWRAP));
        assert_eq!(enforced("bench"), PERSISTENCE);
        assert_eq!(enforced("faults"), PERSISTENCE);
        assert!(enforced("data").is_empty());
    }

    #[test]
    fn labels_name_their_crate_directory() {
        assert_eq!(crate_of("crates/serve/src/batch.rs"), "serve");
        assert_eq!(crate_of("crates/tensor/src/plan/exec.rs"), "tensor");
        assert_eq!(crate_of("fixture.rs"), "");
    }
}
