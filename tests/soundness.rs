//! Seeded-defect suite for `stgnn-sound`, the source analyzer.
//!
//! Contract mirrors `crates/analyze/tests/properties.rs` for the tape
//! validator: every stable code (`L001`…`L006`, `S000`…`S006`) must be
//! *demonstrated* — a fixture carrying exactly that defect fires exactly
//! that code at the exact `file:line` — and the real workspace must analyze
//! clean (no false positives), with negative controls proving the gate
//! fails when a lock-order cycle or a hot-path `.unwrap()` is introduced
//! into the real tree.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use stgnn_analyze::{analyze_sources, analyze_workspace, SoundReport};

fn run(files: &[(&str, &str)]) -> SoundReport {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(l, s)| (l.to_string(), s.to_string()))
        .collect();
    analyze_sources(&owned)
}

/// `(code, file, 1-based line)` triples, in the report's sorted order.
fn triples(r: &SoundReport) -> Vec<(String, String, usize)> {
    r.diagnostics
        .iter()
        .map(|d| (d.code.to_string(), d.file.clone(), d.line))
        .collect()
}

// ------------------------------------------ the crate policy (L-codes)

/// A hot-path crate (every L-code) and a persistence crate (`L006` only).
const HOT: &str = "crates/serve/src/fixture.rs";
const PERSIST: &str = "crates/core/src/fixture.rs";

fn codes(label: &str, src: &str) -> Vec<&'static str> {
    run(&[(label, src)])
        .diagnostics
        .iter()
        .map(|d| d.code)
        .collect()
}

fn lines(label: &str, src: &str) -> Vec<usize> {
    run(&[(label, src)])
        .diagnostics
        .iter()
        .map(|d| d.line)
        .collect()
}

fn site(code: &str, line: usize) -> (String, String, usize) {
    (code.into(), HOT.into(), line)
}

const EVERY_L_CODE: &str = "fn save(path: &Path) {\n\
                            \x20   x.unwrap();\n\
                            \x20   y.expect(\"msg\");\n\
                            \x20   panic!(\"boom\");\n\
                            \x20   let v = buf[i];\n\
                            \x20   let f = std::fs::File::create(path);\n\
                            }\n";

#[test]
fn every_l_code_fires_at_its_exact_line_in_a_hot_path_crate() {
    let r = run(&[(HOT, EVERY_L_CODE)]);
    let want = [
        ("L001", 2),
        ("L002", 3),
        ("L003", 4),
        ("L004", 5),
        ("L006", 6),
    ];
    assert_eq!(
        triples(&r),
        want.map(|(c, l)| site(c, l)).to_vec(),
        "{}",
        r.render()
    );
    assert!(r
        .render()
        .contains("crates/serve/src/fixture.rs:2: L001 [deny] `.unwrap()` panics on the hot path"));
}

#[test]
fn l001_to_l004_stay_silent_under_a_persistence_crate() {
    let r = run(&[(PERSIST, EVERY_L_CODE)]);
    assert_eq!(triples(&r), vec![("L006".into(), PERSIST.into(), 6)]);
    // Crates outside the policy enforce nothing.
    assert!(run(&[("crates/data/src/fixture.rs", EVERY_L_CODE)])
        .diagnostics
        .is_empty());
}

#[test]
fn l003_covers_every_panicking_macro() {
    let src = "fn f() {\n    unreachable!();\n    todo!();\n    unimplemented!();\n}\n";
    assert_eq!(lines(HOT, src), vec![2, 3, 4]);
    assert_eq!(codes(HOT, src), vec!["L003"; 3]);
}

#[test]
fn caught_detached_and_lock_suffix_unwraps_still_fire_l001() {
    let src = "fn f(&self) {\n    let r = catch_unwind(AssertUnwindSafe(|| {\n        \
               x.unwrap();\n    }));\n    thread::spawn(move || {\n        y.unwrap();\n    \
               });\n}\nfn g(&self) {\n    let a = self.state.lock().unwrap();\n}\n\
               fn h(&self) {\n    let b = self.state.lock().expect(\"poisoned\");\n}\n";
    let r = run(&[(HOT, src)]);
    // The lock suffixes are also poison-propagating acquisitions (S006).
    let want = [
        ("L001", 3),
        ("L001", 6),
        ("L001", 10),
        ("S006", 10),
        ("L002", 13),
        ("S006", 13),
    ];
    assert_eq!(triples(&r), want.map(|(c, l)| site(c, l)).to_vec());
}

#[test]
fn unwrap_or_variants_do_not_match() {
    let src = "fn f() {\n    x.unwrap_or_default();\n    x.unwrap_or(0);\n    \
               x.unwrap_or_else(|| 0);\n    r.expect_err(\"e\");\n}\n";
    assert!(codes(HOT, src).is_empty());
}

#[test]
fn strings_and_comments_are_masked() {
    let src = "fn f() {\n    let s = \"call .unwrap() and panic!()\";\n    \
               // a comment mentioning x.unwrap()\n    /* panic!(\"no\") */\n    \
               let r = r#\"x.unwrap() [0]\"#;\n}\n";
    assert!(codes(HOT, src).is_empty());
}

#[test]
fn char_literals_and_lifetimes_do_not_derail_the_lexer() {
    let src = "fn f<'a>(x: &'a str) -> char {\n    let c = 'x';\n    let q = '\\'';\n    \
               y.unwrap();\n    c\n}\n";
    assert_eq!(codes(HOT, src), vec!["L001"]);
}

#[test]
fn l_rules_exempt_cfg_test_modules() {
    let src = "fn prod() { x.unwrap(); }\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
               fn t() { y.unwrap(); z.expect(\"in test\"); }\n}\n";
    assert_eq!(lines(HOT, src), vec![1]);
}

#[test]
fn l_rules_exempt_test_fns_outside_a_module() {
    let src = "#[test]\nfn t() { y.unwrap(); }\n\nfn prod() { x.unwrap(); }\n";
    assert_eq!(lines(HOT, src), vec![4]);
}

#[test]
fn allow_escapes_same_line_and_line_above() {
    let src =
        "fn f() {\n    x.unwrap(); // sound: allow(L001): CHECKED-ABOVE — checked above\n    \
               // sound: allow(L001): ALSO-FINE — also fine\n    y.unwrap();\n    z.unwrap();\n}\n";
    let r = run(&[(HOT, src)]);
    assert_eq!(triples(&r), vec![site("L001", 5)]);
    assert!(r.escapes.iter().all(|e| e.used), "{:#?}", r.escapes);
}

#[test]
fn multi_line_standalone_allow_reaches_the_next_code_line() {
    let src = "fn f() {\n    // sound: allow(L001): LONG-INVARIANT — a long invariant that\n    \
               // spills onto a second comment line\n    x.unwrap();\n}\n";
    assert!(codes(HOT, src).is_empty());
}

#[test]
fn allow_file_grandfathers_one_code_only() {
    let src = "// sound: allow-file(L004): SHAPE-CHECKED — dense kernels index checked buffers\n\
               fn f() {\n    let v = buf[i];\n    x.unwrap();\n}\n";
    assert_eq!(codes(HOT, src), vec!["L001"]);
}

#[test]
fn indexing_detection_skips_attributes_macros_and_types() {
    let src = "#[derive(Clone)]\nstruct S { a: [f32; 4] }\nfn f(v: &Vec<[f32; 2]>) {\n    \
               let x = vec![1, 2];\n    let y = v[0];\n    let z = f(a)[1];\n}\n";
    assert_eq!(lines(HOT, src), vec![5, 6]);
    assert!(codes(HOT, src).iter().all(|&c| c == "L004"));
}

#[test]
fn indexing_detection_skips_keywords_before_bracket() {
    // `mut [f32]` is a slice type, `in [...]` / `return [...]` start
    // expressions — none of them index anything.
    let src = "fn f(&mut self) -> &mut [f32] {\n    for x in [1, 2] {}\n    \
               return [0.0; 4];\n}\n";
    assert!(codes(HOT, src).is_empty());
}

#[test]
fn indexing_detection_reads_a_lifetime_as_a_type_position() {
    // Only `v[0]` indexes: `&'static [usize]` and `&'a [u8]` are slice
    // types whose lifetime the lexer leaves in the masked text.
    let src = "fn f() -> &'static [usize] {\n    let s: &'a [u8] = x;\n    v[0]\n}\n";
    assert_eq!(triples(&run(&[(HOT, src)])), vec![site("L004", 3)]);
}

#[test]
fn raw_file_create_flagged_and_escapable() {
    let src = "fn save() {\n    let f = std::fs::File::create(\"weights.bin\");\n}\n";
    assert_eq!(codes(PERSIST, src), vec!["L006"]);
    assert_eq!(lines(PERSIST, src), vec![2]);

    let allowed =
        "fn save() {\n    // sound: allow(L006): ATOMIC-WRITER — the atomic writer itself\n    \
                   let f = std::fs::File::create(\"weights.bin\");\n}\n";
    assert!(codes(PERSIST, allowed).is_empty());

    // Not a call, a different type, or test code: all clean.
    let clean = "fn f() { MyFile::create(); }\n#[cfg(test)]\nmod t {\n    fn g() \
                 { std::fs::File::create(\"x\"); }\n}\n";
    assert!(codes(PERSIST, clean).is_empty());
}

// ---------------------------------------------------------------- S001

const INVERSE_ORDER: &str = "fn submit(&self) {\n\
                             \x20   let q = self.queue.lock();\n\
                             \x20   let s = self.stats.lock();\n\
                             }\n\
                             fn drain(&self) {\n\
                             \x20   let s = self.stats.lock();\n\
                             \x20   let q = self.queue.lock();\n\
                             }\n";

#[test]
fn s001_inverse_lock_orders_fire_at_the_witnessing_acquisition() {
    let r = run(&[("fixture.rs", INVERSE_ORDER)]);
    let t = triples(&r);
    assert_eq!(
        t,
        vec![("S001".into(), "fixture.rs".into(), 3)],
        "{:#?}",
        r.diagnostics
    );
    assert!(r.diagnostics[0]
        .message
        .contains("fixture::queue -> fixture::stats -> fixture::queue"));
    assert_eq!(r.denies(), 1);
}

#[test]
fn s001_interprocedural_cycle_spans_files() {
    // Each lock key is `<file-stem>::<field>`, so a cross-file cycle needs
    // the second acquisition to happen inside a callee that lives with its
    // own lock — exactly how `serve -> scale` coupling would deadlock.
    let a = "fn hold_alpha_then_beta(&self) {\n    let g = self.alpha.lock();\n    \
             self.take_beta();\n}\n\
             fn take_alpha(&self) {\n    let g = self.alpha.lock();\n}\n";
    let b = "fn hold_beta_then_alpha(&self) {\n    let g = self.beta.lock();\n    \
             self.take_alpha();\n}\n\
             fn take_beta(&self) {\n    let g = self.beta.lock();\n}\n";
    let r = run(&[("a.rs", a), ("b.rs", b)]);
    assert!(
        r.diagnostics.iter().any(|d| d.code == "S001"
            && d.message.contains("a::alpha")
            && d.message.contains("b::beta")),
        "{:#?}",
        r.diagnostics
    );
}

// ---------------------------------------------------------------- S002

#[test]
fn s002_channel_send_under_lock_fires_at_the_send() {
    let src = "fn submit(&self) {\n\
               \x20   let q = self.queue.lock();\n\
               \x20   req.respond.send(out);\n\
               }\n";
    let r = run(&[("batcher.rs", src)]);
    assert_eq!(triples(&r), vec![("S002".into(), "batcher.rs".into(), 3)]);
    assert!(r.diagnostics[0].message.contains("batcher::queue"));
}

/// A lock guard held across model inference: S002 fires at the call line
/// when the guard is live across `forward` or `predict_horizon`, and stays
/// silent once the guard is block-scoped, `drop()`ed, or never bound
/// (statement-scoped).
#[test]
fn s002_covers_lock_guards_held_across_model_inference() {
    let held = |call: &str| {
        format!(
            "fn f(&self) {{\n    let guard = self.state.lock();\n    \
             let y = model.{call}(&g, &inputs, false);\n}}\n"
        )
    };
    for call in ["forward", "predict_horizon"] {
        let r = run(&[("worker.rs", &held(call))]);
        assert_eq!(
            triples(&r),
            vec![("S002".into(), "worker.rs".into(), 3)],
            "{call}: {:#?}",
            r.diagnostics
        );
        assert!(r.diagnostics[0].message.contains("worker::state"));
    }

    let scoped = "fn f(&self) {\n    {\n        let guard = self.state.lock();\n        \
                  guard.push(1);\n    }\n    let y = model.forward(&g, &inputs, false);\n}\n";
    let dropped = "fn f(&self) {\n    let guard = self.state.lock();\n    drop(guard);\n    \
                   let y = model.forward(&g, &inputs, false);\n}\n";
    let statement = "fn f(&self) {\n    let n = self.queue.lock().len();\n    \
                     let y = model.forward(&g, &inputs, false);\n}\n";
    for (case, src) in [
        ("scoped", scoped),
        ("dropped", dropped),
        ("statement", statement),
    ] {
        let r = run(&[("worker.rs", src)]);
        assert!(r.diagnostics.is_empty(), "{case}: {:#?}", r.diagnostics);
    }
}

// ---------------------------------------------------------------- S003

#[test]
fn s003_wall_clock_into_rng_seed_fires_at_the_seeding_call() {
    let src = "fn f(rng: &mut StreamRng) {\n\
               \x20   let t = Instant::now();\n\
               \x20   let s = t.elapsed().as_nanos() as u64;\n\
               \x20   rng.reseed(s);\n\
               }\n";
    let r = run(&[("stream.rs", src)]);
    assert_eq!(triples(&r), vec![("S003".into(), "stream.rs".into(), 4)]);
}

// ---------------------------------------------------------------- S004

#[test]
fn s004_wall_clock_into_checkpoint_bytes_fires_at_the_write() {
    let src = "fn save(&self) {\n\
               \x20   let stamp = SystemTime::now();\n\
               \x20   atomic_write(path, encode(stamp));\n\
               }\n";
    let r = run(&[("ckpt.rs", src)]);
    assert_eq!(triples(&r), vec![("S004".into(), "ckpt.rs".into(), 3)]);
}

// ---------------------------------------------------------------- S005

#[test]
fn s005_wall_clock_into_bench_json_fields_fires_at_the_format() {
    let src = "fn report() {\n\
               \x20   let t0 = Instant::now();\n\
               \x20   let ms = t0.elapsed().as_secs_f64() * 1e3;\n\
               \x20   let row = format!(\"x\", ms);\n\
               \x20   atomic_write(\"BENCH_x.json\", row);\n\
               }\n";
    let r = run(&[("steady.rs", src)]);
    assert!(
        triples(&r).contains(&("S005".into(), "steady.rs".into(), 4)),
        "{:#?}",
        r.diagnostics
    );
}

// ---------------------------------------------------------------- S006

#[test]
fn s006_panic_under_live_guard_fires_at_the_panic() {
    let src = "fn f(&self) {\n\
               \x20   let g = self.state.lock();\n\
               \x20   panic!(\"bad\");\n\
               }\n";
    let r = run(&[("pool.rs", src)]);
    assert_eq!(triples(&r), vec![("S006".into(), "pool.rs".into(), 3)]);
    assert!(r.diagnostics[0].message.contains("pool::state"));
}

#[test]
fn s006_is_silent_when_the_panic_is_caught_or_the_guard_is_scoped() {
    let caught = "fn f(&self) {\n    let g = self.state.lock();\n    \
                  let r = std::panic::catch_unwind(|| {\n        panic!(\"bad\");\n    });\n}\n";
    let scoped = "fn f(&self) {\n    {\n        let g = self.state.lock();\n    }\n    \
                  panic!(\"bad\");\n}\n";
    assert!(run(&[("p.rs", caught)]).diagnostics.is_empty());
    assert!(run(&[("p.rs", scoped)]).diagnostics.is_empty());
}

// ------------------------------------------------- escapes and S000

#[test]
fn s000_unnamed_escape_is_itself_a_deny_and_suppresses_nothing() {
    let src = "fn submit(&self) {\n\
               \x20   let q = self.queue.lock();\n\
               \x20   // sound: allow(S002): the send is fine here\n\
               \x20   req.respond.send(out);\n\
               }\n";
    let r = run(&[("batcher.rs", src)]);
    let t = triples(&r);
    assert!(
        t.contains(&("S000".into(), "batcher.rs".into(), 3)),
        "{t:?}"
    );
    assert!(
        t.contains(&("S002".into(), "batcher.rs".into(), 4)),
        "{t:?}"
    );
    assert_eq!(r.denies(), 2);
}

#[test]
fn named_escape_suppresses_exactly_its_code_and_is_inventoried_as_used() {
    let src = "fn submit(&self) {\n\
               \x20   let q = self.queue.lock();\n\
               \x20   // sound: allow(S002): SEND-IS-NONBLOCKING — unbounded channel\n\
               \x20   req.respond.send(out);\n\
               }\n";
    let r = run(&[("batcher.rs", src)]);
    assert!(r.diagnostics.is_empty(), "{:#?}", r.diagnostics);
    assert_eq!(r.escapes.len(), 1);
    let e = &r.escapes[0];
    assert_eq!(
        (e.code.as_str(), e.invariant.as_str(), e.used),
        ("S002", "SEND-IS-NONBLOCKING", true)
    );
}

#[test]
fn escape_for_a_different_code_does_not_suppress() {
    let src = "fn submit(&self) {\n\
               \x20   let q = self.queue.lock();\n\
               \x20   // sound: allow(S006): WRONG-CODE — mismatched annotation\n\
               \x20   req.respond.send(out);\n\
               }\n";
    let r = run(&[("batcher.rs", src)]);
    assert!(triples(&r).contains(&("S002".into(), "batcher.rs".into(), 4)));
    assert!(!r.escapes[0].used);
}

#[test]
fn test_code_is_exempt() {
    let src = "#[test]\nfn f() {\n    let g = STATE.lock();\n    panic!(\"bad\");\n}\n";
    assert!(run(&[("t.rs", src)]).diagnostics.is_empty());
}

// ------------------------------------------ property: order vs cycle

/// Ground truth for the fixture generator: nested acquisition of `seq`
/// makes an edge `u -> v` for every `u` acquired before `v`; the analyzer
/// must report S001 exactly when the union of those edges has a cycle.
fn edges_have_cycle(seqs: &[Vec<usize>]) -> bool {
    let mut adj: HashMap<usize, HashSet<usize>> = HashMap::new();
    for seq in seqs {
        for i in 0..seq.len() {
            for j in i + 1..seq.len() {
                adj.entry(seq[i]).or_default().insert(seq[j]);
            }
        }
    }
    fn dfs(
        n: usize,
        adj: &HashMap<usize, HashSet<usize>>,
        open: &mut HashSet<usize>,
        done: &mut HashSet<usize>,
    ) -> bool {
        if done.contains(&n) {
            return false;
        }
        if !open.insert(n) {
            return true;
        }
        let found = adj
            .get(&n)
            .into_iter()
            .flatten()
            .any(|&m| dfs(m, adj, open, done));
        open.remove(&n);
        done.insert(n);
        found
    }
    let (mut open, mut done) = (HashSet::new(), HashSet::new());
    adj.keys().any(|&n| dfs(n, &adj, &mut open, &mut done))
}

fn fixture_for(seqs: &[Vec<usize>]) -> String {
    const LOCKS: [&str; 4] = ["alpha", "beta", "delta", "gamma"];
    let mut s = String::new();
    for (fi, seq) in seqs.iter().enumerate() {
        s.push_str(&format!("fn acquire_chain_{fi}(&self) {{\n"));
        for (gi, &l) in seq.iter().enumerate() {
            s.push_str(&format!("    let g{gi} = self.{}.lock();\n", LOCKS[l]));
        }
        s.push_str("}\n");
    }
    s
}

proptest! {
    // For any pair of nested acquisition orders over four locks, S001
    // fires iff the pairwise order relation actually has a cycle — no
    // missed inversions, no phantom deadlocks.
    #[test]
    fn s001_fires_iff_an_order_inversion_exists(
        raw_a in proptest::collection::vec(0usize..4, 0..5),
        raw_b in proptest::collection::vec(0usize..4, 0..5),
    ) {
        let dedupe = |raw: &[usize]| {
            let mut seen = HashSet::new();
            raw.iter().copied().filter(|x| seen.insert(*x)).collect::<Vec<_>>()
        };
        let seqs = [dedupe(&raw_a), dedupe(&raw_b)];
        let src = fixture_for(&seqs);
        let r = run(&[("orders.rs", &src)]);
        let fired = r.diagnostics.iter().any(|d| d.code == "S001");
        prop_assert_eq!(fired, edges_have_cycle(&seqs), "fixture:\n{}", src);
    }
}

// --------------------------------------- the real tree, both polarities

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn real_workspace_is_clean_and_every_escape_names_an_invariant() {
    let r = analyze_workspace(&workspace_root()).expect("workspace readable");
    assert_eq!(r.denies(), 0, "{:#?}", r.diagnostics);
    assert!(r.files_scanned > 50, "only {} files", r.files_scanned);
    assert!(r.functions > 500);
    let json = r.to_json();
    assert!(json.contains("stgnn-sound-report/v1"));
    assert!(json.contains("\"denied\": 0"));
}

fn read_workspace_sources(root: &Path) -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for p in paths {
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    let Ok(crates) = fs::read_dir(root.join("crates")) else {
        return Vec::new();
    };
    let mut dirs: Vec<PathBuf> = crates.flatten().map(|e| e.path().join("src")).collect();
    dirs.sort();
    for d in dirs {
        walk(&d, &mut files);
    }
    files
        .into_iter()
        .filter_map(|p| {
            let label = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            fs::read_to_string(&p).ok().map(|src| (label, src))
        })
        .collect()
}

#[test]
fn negative_control_an_introduced_cycle_fails_the_gate() {
    let mut files = read_workspace_sources(&workspace_root());
    assert!(files.len() > 50, "workspace walk found {}", files.len());
    let clean = analyze_sources(&files);
    assert_eq!(clean.denies(), 0, "{:#?}", clean.diagnostics);
    files.push((
        "crates/scale/src/defect.rs".to_string(),
        "fn defect_ab(&self) {\n    let a = self.routing.lock();\n    \
         let b = self.members.lock();\n}\n\
         fn defect_ba(&self) {\n    let b = self.members.lock();\n    \
         let a = self.routing.lock();\n}\n"
            .to_string(),
    ));
    let broken = analyze_sources(&files);
    assert!(
        broken
            .diagnostics
            .iter()
            .any(|d| d.code == "S001" && d.file.ends_with("defect.rs")),
        "{:#?}",
        broken.diagnostics
    );
    assert!(broken.denies() >= 1, "gate must fail on the seeded cycle");
}

#[test]
fn negative_control_a_hot_path_unwrap_fails_the_gate() {
    let files = read_workspace_sources(&workspace_root());
    let defect = "fn defect_parse_slot(s: &str) -> u32 {\n    s.parse().unwrap()\n}\n";
    let with_defect = |label: &str| {
        let mut all = files.clone();
        all.push((label.to_string(), defect.to_string()));
        analyze_sources(&all)
    };
    let hot = with_defect("crates/serve/src/defect.rs");
    assert_eq!(
        triples(&hot),
        vec![("L001".into(), "crates/serve/src/defect.rs".into(), 2)],
        "gate must fail on the seeded unwrap"
    );
    let persistence = with_defect("crates/core/src/defect.rs");
    assert_eq!(persistence.denies(), 0, "{:#?}", persistence.diagnostics);
}
