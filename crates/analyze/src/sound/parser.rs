//! The lightweight item/block parser under the soundness passes.
//!
//! Works on the [`crate::lex`] masked text: finds every `fn` item, then
//! walks each body once, emitting an ordered **event stream** — lock
//! acquisitions (with guard-binding and receiver resolution), `drop(...)`
//! calls, block closes, calls, panic sites, blocking-boundary sites
//! (`.send(`, `failpoint!`, `forward`/`predict_horizon`), indexing `[`s and
//! raw `File::create(` calls. The passes in [`crate::sound::locks`],
//! [`crate::sound::taint`], [`crate::sound::panics`] and
//! [`crate::sound::policy`] interpret the streams; this module only
//! extracts them, so it is the one place that decides what a panic site is.
//!
//! Two region kinds change how events are interpreted and are resolved
//! here, at extraction time:
//!
//! * **detached** — the argument of a `spawn(...)` call runs on another
//!   thread, so its events must not extend the spawning function's
//!   held-lock state. Detached regions are cut out of the main stream and
//!   returned as separate streams, each walked from an empty held-set.
//! * **caught** — the argument of a `catch_unwind(...)` call stops panic
//!   propagation, so panic events (and panics reachable through calls)
//!   inside it are marked `caught` and exempt from `S006`.

use crate::lex::{brace_range, find_from, ident_char, paren_range, MaskedSource};

/// A lock identity: `<file-stem>::<receiver-segment>`, e.g. `batch::queue`
/// for `self.shared.queue.lock()` in `crates/serve/src/batch.rs`. Field
/// names key the graph — two instances of the same field (two replicas'
/// `server`) share a node, which is the conservative direction for order
/// analysis.
pub(crate) type LockKey = String;

/// One event in a function's body, in source order.
#[derive(Debug, Clone)]
pub(crate) enum Ev {
    /// A `.lock()`/`.read()`/`.write()` (empty parens) acquisition.
    Acquire {
        lock: LockKey,
        /// `Some(name)` when the statement is `let name = <recv>.lock()…;`
        /// with a guard-preserving suffix — the guard lives until its block
        /// closes or `drop(name)` runs. `None` for statement temporaries
        /// (`x.lock().take()`), released at the `;`.
        guard: Option<String>,
        /// The chain's `.unwrap()`/`.expect(…)` suffixes with their lines:
        /// each propagates poisoning (`S006`) and is a panic site
        /// (`L001`/`L002`), though not an [`Ev::Panic`].
        poison: Vec<(&'static str, usize)>,
        line: usize,
        depth: usize,
    },
    /// `drop(name)` — ends the named guard early.
    Drop { name: String },
    /// A `}` brought the block depth down to `to_depth`; guards opened
    /// deeper die here.
    Close { to_depth: usize },
    /// A call (free or method) eligible for interprocedural resolution.
    Call {
        name: String,
        line: usize,
        caught: bool,
    },
    /// A blocking/divergence boundary (`S002` when a guard is live).
    Boundary { kind: Boundary, line: usize },
    /// A panic site: `.unwrap()`, `.expect(…)`, or a `panic!`,
    /// `unreachable!`, `todo!` or `unimplemented!` macro (`L001`–`L003`;
    /// `S006` when a guard is live and the site is not in a `catch_unwind`
    /// region).
    Panic {
        what: &'static str,
        line: usize,
        caught: bool,
    },
    /// A `[` that indexes (`L004`).
    Index { line: usize },
    /// A raw `File::create(` call (`L006`).
    FileCreate { line: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Boundary {
    /// Channel `.send(` — unbounded rendezvous under a lock.
    Send,
    /// `failpoint!(` — a fault-injection point that may sleep or panic.
    Failpoint,
    /// `forward(`/`predict_horizon(` — model inference.
    Forward,
}

impl Boundary {
    pub(crate) fn describe(self) -> &'static str {
        match self {
            Boundary::Send => "channel send",
            Boundary::Failpoint => "failpoint!",
            Boundary::Forward => "model forward",
        }
    }
}

/// One parsed function: its name, provenance, and event streams.
#[derive(Debug)]
pub(crate) struct FnInfo {
    pub name: String,
    /// Index into the file list handed to `analyze_sources`.
    pub file: usize,
    /// Byte range of the body braces (for the taint pass's line scan).
    pub body: (usize, usize),
    /// Events on the calling thread.
    pub events: Vec<Ev>,
    /// Event streams of `spawn(...)` closures — each runs on its own
    /// thread and is walked from an empty held-set.
    pub detached: Vec<Vec<Ev>>,
    /// The function is test-only (`#[cfg(test)]`/`#[test]` range).
    pub in_test: bool,
}

const KEYWORDS: &[&str] = &[
    "if",
    "while",
    "for",
    "match",
    "return",
    "fn",
    "loop",
    "let",
    "move",
    "as",
    "in",
    "else",
    "unsafe",
    "pub",
    "impl",
    "struct",
    "enum",
    "trait",
    "use",
    "mod",
    "where",
    "ref",
    "mut",
    "box",
    "dyn",
    "Some",
    "Ok",
    "Err",
    "None",
    "vec",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
];

/// Parses every `fn` item in `m`, extracting event streams. `file` is the
/// caller's index for provenance; `file_stem` prefixes lock keys.
pub(crate) fn parse_functions(m: &MaskedSource, file: usize, file_stem: &str) -> Vec<FnInfo> {
    let text = &m.text;
    // Locate every fn item first so nested fn bodies can be cut out of
    // their parents' walks.
    struct RawFn {
        name: String,
        start: usize,
        body: (usize, usize),
    }
    let mut raw: Vec<RawFn> = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = find_from(text, b"fn ", from) {
        from = pos + 3;
        let before = if pos == 0 { b' ' } else { text[pos - 1] };
        if ident_char(before) {
            continue; // e.g. `eval_fn `
        }
        let mut k = pos + 3;
        while k < text.len() && text[k] == b' ' {
            k += 1;
        }
        let name_start = k;
        while k < text.len() && ident_char(text[k]) {
            k += 1;
        }
        if k == name_start {
            continue;
        }
        let name = String::from_utf8_lossy(&text[name_start..k]).into_owned();
        // Skip generics, find the body `{` before any `;` (trait method
        // signatures have no body).
        let mut angle = 0usize;
        let mut open = None;
        while k < text.len() {
            match text[k] {
                b'<' => angle += 1,
                b'>' => angle = angle.saturating_sub(1),
                b'{' if angle == 0 => {
                    open = Some(k);
                    break;
                }
                b';' if angle == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = open else {
            continue;
        };
        let body = brace_range(text, open);
        raw.push(RawFn {
            name,
            start: pos,
            body,
        });
    }

    let mut out = Vec::new();
    for (i, f) in raw.iter().enumerate() {
        // Bodies of fns nested inside this one are skipped during the walk
        // (they are parsed as their own items).
        let nested: Vec<(usize, usize)> = raw
            .iter()
            .enumerate()
            .filter(|(j, g)| *j != i && g.body.0 > f.body.0 && g.body.1 <= f.body.1)
            .map(|(_, g)| g.body)
            .collect();
        let (events, detached) = extract_events(m, f.body, &nested, file_stem);
        out.push(FnInfo {
            name: f.name.clone(),
            file,
            body: f.body,
            events,
            detached,
            in_test: m.in_test(f.start),
        });
    }
    out
}

/// Regions of `spawn(...)` / `catch_unwind(...)` arguments within `range`.
fn call_arg_regions(text: &[u8], range: (usize, usize), callee: &[u8]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut from = range.0;
    while let Some(pos) = find_from(text, callee, from) {
        if pos >= range.1 {
            break;
        }
        from = pos + callee.len();
        let before = if pos == 0 { b' ' } else { text[pos - 1] };
        if ident_char(before) {
            continue;
        }
        let open = pos + callee.len() - 1; // the '(' is part of the pattern
        if let Some((s, e)) = paren_range(text, open) {
            regions.push((s + 1, e - 1));
            from = e;
        }
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], pos: usize) -> bool {
    regions.iter().any(|&(s, e)| s <= pos && pos < e)
}

/// Walks one body range, emitting the main-thread stream plus one stream
/// per detached (`spawn`) region.
fn extract_events(
    m: &MaskedSource,
    body: (usize, usize),
    nested: &[(usize, usize)],
    file_stem: &str,
) -> (Vec<Ev>, Vec<Vec<Ev>>) {
    let text = &m.text;
    let detached_regions = call_arg_regions(text, body, b"spawn(");
    let caught_regions = call_arg_regions(text, body, b"catch_unwind(");

    let mut main = Vec::new();
    scan_region(
        m,
        body,
        nested,
        &detached_regions,
        &caught_regions,
        file_stem,
        &mut main,
    );
    let mut detached = Vec::new();
    for &region in &detached_regions {
        let mut stream = Vec::new();
        scan_region(
            m,
            region,
            nested,
            &[],
            &caught_regions,
            file_stem,
            &mut stream,
        );
        if !stream.is_empty() {
            detached.push(stream);
        }
    }
    (main, detached)
}

/// The single-pass scanner: byte cursor over `range`, skipping `excluded`
/// (nested fns) and `detached` regions, tracking brace depth, pushing
/// events onto `out`.
fn scan_region(
    m: &MaskedSource,
    range: (usize, usize),
    nested: &[(usize, usize)],
    detached: &[(usize, usize)],
    caught: &[(usize, usize)],
    file_stem: &str,
    out: &mut Vec<Ev>,
) {
    let text = &m.text;
    let mut depth = 0usize;
    let mut i = range.0;
    while i < range.1 {
        if let Some(&(_, e)) = nested.iter().find(|&&(s, _)| s == i) {
            i = e;
            continue;
        }
        if let Some(&(_, e)) = detached.iter().find(|&&(s, _)| s == i) {
            i = e;
            continue;
        }
        let b = text[i];
        match b {
            b'{' => {
                depth += 1;
                i += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                out.push(Ev::Close { to_depth: depth });
                i += 1;
            }
            b'[' => {
                if indexes(text, i) {
                    out.push(Ev::Index { line: m.line_of(i) });
                }
                i += 1;
            }
            b'.' => {
                let (name, after) = ident_after(text, i + 1);
                if name.is_empty() {
                    i += 1;
                    continue;
                }
                let is_call = text.get(after) == Some(&b'(');
                if !is_call {
                    i = after;
                    continue;
                }
                match name.as_str() {
                    "lock" | "read" | "write" => {
                        if let Some(next) = scan_acquisition(m, i, after, file_stem, depth, out) {
                            i = next;
                            continue;
                        }
                        i = after;
                    }
                    "send" => {
                        out.push(Ev::Boundary {
                            kind: Boundary::Send,
                            line: m.line_of(i),
                        });
                        i = after;
                    }
                    "unwrap" | "expect" => {
                        out.push(Ev::Panic {
                            what: unwrap_site(&name),
                            line: m.line_of(i),
                            caught: in_regions(caught, i),
                        });
                        i = after;
                    }
                    "forward" | "predict_horizon" => {
                        out.push(Ev::Boundary {
                            kind: Boundary::Forward,
                            line: m.line_of(i),
                        });
                        i = after;
                    }
                    _ => {
                        out.push(Ev::Call {
                            name,
                            line: m.line_of(i),
                            caught: in_regions(caught, i),
                        });
                        i = after;
                    }
                }
            }
            _ if ident_char(b) && (i == range.0 || !ident_char(text[i - 1])) => {
                let (name, after) = ident_after(text, i);
                let prev = if i == 0 { b' ' } else { text[i - 1] };
                if prev == b'.' || name.is_empty() {
                    i = after.max(i + 1);
                    continue;
                }
                if name == "File" && is_create_call(text, after) {
                    out.push(Ev::FileCreate { line: m.line_of(i) });
                }
                // `x!` macros: `panic!`, `failpoint!`, `unreachable!`.
                if text.get(after) == Some(&b'!') {
                    match name.as_str() {
                        "panic" | "unreachable" | "todo" | "unimplemented" => {
                            out.push(Ev::Panic {
                                what: "panic!",
                                line: m.line_of(i),
                                caught: in_regions(caught, i),
                            });
                        }
                        "failpoint" => {
                            out.push(Ev::Boundary {
                                kind: Boundary::Failpoint,
                                line: m.line_of(i),
                            });
                        }
                        _ => {}
                    }
                    i = after + 1;
                    continue;
                }
                let is_call = text.get(after) == Some(&b'(');
                if !is_call {
                    i = after;
                    continue;
                }
                match name.as_str() {
                    "drop" => {
                        if let Some((s, e)) = paren_range(text, after) {
                            let arg = String::from_utf8_lossy(&text[s + 1..e - 1]);
                            let arg = arg.trim();
                            if !arg.is_empty() && arg.bytes().all(ident_char) {
                                out.push(Ev::Drop {
                                    name: arg.to_string(),
                                });
                            }
                            i = s + 1; // still scan the args
                            continue;
                        }
                        i = after;
                    }
                    "forward" | "predict_horizon" => {
                        out.push(Ev::Boundary {
                            kind: Boundary::Forward,
                            line: m.line_of(i),
                        });
                        i = after;
                    }
                    _ if KEYWORDS.contains(&name.as_str()) => {
                        i = after;
                    }
                    _ => {
                        out.push(Ev::Call {
                            name,
                            line: m.line_of(i),
                            caught: in_regions(caught, i),
                        });
                        i = after;
                    }
                }
            }
            _ => i += 1,
        }
    }
}

/// Whether the `[` at `open` indexes: it directly follows an expression —
/// an identifier, `)` or `]`. Attributes (`#[…]`) and macros (`vec![…]`)
/// follow `#`/`!`; literals and generics follow `=`/`(`/`<`/whitespace;
/// keywords (`&mut [f32]`, `in [..]`, `return [..]`) and lifetimes
/// (`&'a [u8]`) start a type or an expression rather than end one.
fn indexes(text: &[u8], open: usize) -> bool {
    let Some(end) = text[..open].iter().rposition(|&b| b != b' ' && b != b'\n') else {
        return false;
    };
    match text[end] {
        b')' | b']' => true,
        b if ident_char(b) => {
            let start = text[..end].iter().rposition(|&b| !ident_char(b));
            let word = &text[start.map_or(0, |s| s + 1)..=end];
            let lifetime = start.is_some_and(|s| text[s] == b'\'');
            !lifetime
                && !matches!(
                    word,
                    b"mut" | b"const" | b"dyn" | b"in" | b"return" | b"break" | b"else" | b"match"
                )
        }
        _ => false,
    }
}

/// Whether `::create(` (whitespace allowed before the `(`) starts at
/// `pos`, right after a `File` identifier.
fn is_create_call(text: &[u8], pos: usize) -> bool {
    text[pos..]
        .strip_prefix(b"::create")
        .and_then(|rest| rest.iter().find(|&&b| b != b' ' && b != b'\n'))
        == Some(&b'(')
}

/// How a panic site reads for an `.unwrap(` or `.expect(` call.
fn unwrap_site(method: &str) -> &'static str {
    if method == "unwrap" {
        ".unwrap()"
    } else {
        ".expect(...)"
    }
}

/// Reads the identifier starting at `pos`; returns it plus the index after.
fn ident_after(text: &[u8], pos: usize) -> (String, usize) {
    let mut k = pos;
    while k < text.len() && ident_char(text[k]) {
        k += 1;
    }
    (String::from_utf8_lossy(&text[pos..k]).into_owned(), k)
}

/// Handles `<recv>.lock()` at the `.` in `dot`; `open` is the `(` after
/// the method name. Classifies the suffix chain and the enclosing
/// statement, emits the Acquire and returns the resume position, or `None`
/// when this is not an acquisition (non-empty parens: io `read`/`write`
/// take buffers, locks take nothing).
fn scan_acquisition(
    m: &MaskedSource,
    dot: usize,
    open: usize,
    file_stem: &str,
    depth: usize,
    out: &mut Vec<Ev>,
) -> Option<usize> {
    let text = &m.text;
    let (_, close) = paren_range(text, open)?;
    if text[open + 1..close - 1]
        .iter()
        .any(|&b| b != b' ' && b != b'\n')
    {
        return None; // `.read(buf)` — io, not a lock
    }
    let recv = receiver_segment(text, dot)?;
    // Suffix chain after the call: `.unwrap()` / `.expect(…)` propagate
    // poisoning but preserve the guard; `.unwrap_or_else(…)` tolerates it;
    // any other method consumes the guard within the statement.
    let mut k = close;
    let mut poison = Vec::new();
    let mut guard_preserved = true;
    let resume;
    loop {
        while k < text.len() && (text[k] == b' ' || text[k] == b'\n') {
            k += 1;
        }
        match text.get(k) {
            Some(&b'.') => {
                let (name, after) = ident_after(text, k + 1);
                let chained = matches!(name.as_str(), "unwrap" | "expect" | "unwrap_or_else");
                if !chained {
                    guard_preserved = false;
                    resume = k; // let the scanner see the consuming method
                    break;
                }
                if name != "unwrap_or_else" {
                    poison.push((unwrap_site(&name), m.line_of(k)));
                }
                match text.get(after) {
                    Some(&b'(') => match paren_range(text, after) {
                        Some((_, c)) => k = c,
                        None => {
                            resume = after;
                            break;
                        }
                    },
                    _ => {
                        resume = after;
                        break;
                    }
                }
            }
            Some(&b';') => {
                resume = k;
                break;
            }
            _ => {
                guard_preserved = false;
                resume = k.min(text.len());
                break;
            }
        }
    }
    // Guard binding: the statement reads `let <name> = …`.
    let stmt_start = text[..dot]
        .iter()
        .rposition(|&b| b == b';' || b == b'{' || b == b'}')
        .map_or(0, |p| p + 1);
    let stmt = String::from_utf8_lossy(&text[stmt_start..dot]);
    let stmt = stmt.trim_start();
    let guard = if guard_preserved {
        stmt.strip_prefix("let ").and_then(|rest| {
            let name = rest
                .split(['=', ':'])
                .next()
                .unwrap_or("")
                .trim()
                .trim_start_matches("mut ")
                .trim();
            (!name.is_empty() && name.bytes().all(ident_char)).then(|| name.to_string())
        })
    } else {
        None
    };
    out.push(Ev::Acquire {
        lock: format!("{file_stem}::{recv}"),
        guard,
        poison,
        line: m.line_of(dot),
        depth,
    });
    Some(resume)
}

/// The last path segment of the receiver expression before the `.` at
/// `dot`: `self.shared.queue.lock()` → `queue`; `pool().lock()` → `pool`.
fn receiver_segment(text: &[u8], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let prev = text[dot - 1];
    if prev == b')' {
        // Accessor call: match parens backwards, take the ident before.
        let mut bal = 0isize;
        let mut j = dot - 1;
        loop {
            match text[j] {
                b')' => bal += 1,
                b'(' => {
                    bal -= 1;
                    if bal == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        let end = j;
        let mut s = end;
        while s > 0 && ident_char(text[s - 1]) {
            s -= 1;
        }
        (s < end).then(|| String::from_utf8_lossy(&text[s..end]).into_owned())
    } else if ident_char(prev) {
        let end = dot;
        let mut s = end;
        while s > 0 && ident_char(text[s - 1]) {
            s -= 1;
        }
        let name = String::from_utf8_lossy(&text[s..end]).into_owned();
        if KEYWORDS.contains(&name.as_str()) {
            return None;
        }
        Some(name)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::mask;

    fn parse(src: &str) -> Vec<FnInfo> {
        parse_functions(&mask(src), 0, "fix")
    }

    fn acquires(f: &FnInfo) -> Vec<(String, Option<String>)> {
        f.events
            .iter()
            .filter_map(|e| match e {
                Ev::Acquire { lock, guard, .. } => Some((lock.clone(), guard.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn guard_binding_vs_statement_temp() {
        let fns = parse(
            "fn f(&self) {\n    let g = self.state.lock();\n    let n = self.queue.lock().len();\n    \
             if let Some(s) = self.server.lock().take() { s.stop(); }\n}\n",
        );
        let a = acquires(&fns[0]);
        assert_eq!(a[0], ("fix::state".into(), Some("g".into())));
        assert_eq!(a[1], ("fix::queue".into(), None));
        assert_eq!(a[2], ("fix::server".into(), None));
    }

    #[test]
    fn poison_suffixes_preserve_the_guard() {
        let fns = parse(
            "fn f() {\n    let mut inner = pool().lock().unwrap_or_else(PoisonError::into_inner);\n    \
             let g = m.lock().unwrap();\n}\n",
        );
        let evs: Vec<_> = fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Ev::Acquire {
                    lock,
                    guard,
                    poison,
                    ..
                } => Some((lock.clone(), guard.clone(), !poison.is_empty())),
                _ => None,
            })
            .collect();
        assert_eq!(evs[0], ("fix::pool".into(), Some("inner".into()), false));
        assert_eq!(evs[1], ("fix::m".into(), Some("g".into()), true));
        // The suffix `.unwrap()` must not double as a Panic event.
        assert!(!fns[0].events.iter().any(|e| matches!(e, Ev::Panic { .. })));
    }

    #[test]
    fn io_read_write_with_a_buffer_is_not_an_acquisition() {
        let fns = parse(
            "fn f(&self) {\n    file.read(&mut buf);\n    file.write(&buf);\n    \
             let r = self.map.read();\n}\n",
        );
        let a = acquires(&fns[0]);
        assert_eq!(a, vec![("fix::map".into(), Some("r".into()))]);
    }

    #[test]
    fn spawn_closures_are_detached() {
        let fns = parse(
            "fn f(&self) {\n    let g = self.spawned.lock();\n    \
             thread::spawn(move || {\n        worker_loop(&queue);\n    });\n    helper();\n}\n",
        );
        let main_calls: Vec<_> = fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Ev::Call { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert!(main_calls.contains(&"helper".to_string()));
        assert!(!main_calls.contains(&"worker_loop".to_string()));
        assert_eq!(fns[0].detached.len(), 1);
        assert!(fns[0].detached[0]
            .iter()
            .any(|e| matches!(e, Ev::Call { name, .. } if name == "worker_loop")));
    }

    #[test]
    fn catch_unwind_marks_panics_caught() {
        let fns = parse(
            "fn f() {\n    let r = catch_unwind(AssertUnwindSafe(|| {\n        x.unwrap();\n    }));\n    \
             y.unwrap();\n}\n",
        );
        let panics: Vec<bool> = fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Ev::Panic { caught, .. } => Some(*caught),
                _ => None,
            })
            .collect();
        assert_eq!(panics, vec![true, false]);
    }

    #[test]
    fn boundaries_and_drop_and_depth() {
        let fns = parse(
            "fn f(&self) {\n    let q = self.queue.lock();\n    req.respond.send(out);\n    \
             failpoint!(\"serve::x\");\n    drop(q);\n    {\n        let i = self.inflight.lock();\n    }\n}\n",
        );
        let evs = &fns[0].events;
        assert!(evs.iter().any(|e| matches!(
            e,
            Ev::Boundary {
                kind: Boundary::Send,
                ..
            }
        )));
        assert!(evs.iter().any(|e| matches!(
            e,
            Ev::Boundary {
                kind: Boundary::Failpoint,
                ..
            }
        )));
        assert!(evs
            .iter()
            .any(|e| matches!(e, Ev::Drop { name } if name == "q")));
        // The inner block's acquire carries a deeper depth than the outer.
        let depths: Vec<usize> = evs
            .iter()
            .filter_map(|e| match e {
                Ev::Acquire { depth, .. } => Some(*depth),
                _ => None,
            })
            .collect();
        assert_eq!(depths.len(), 2);
        assert!(depths[1] > depths[0]);
    }

    #[test]
    fn nested_fns_are_cut_out_of_the_parent_walk() {
        let fns = parse(
            "fn outer() {\n    fn inner() {\n        a.lock();\n    }\n    let g = b.lock();\n}\n",
        );
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        let a = acquires(outer);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].0, "fix::b");
        let inner = fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(acquires(inner).len(), 1);
    }

    #[test]
    fn test_functions_are_marked() {
        let fns = parse("#[cfg(test)]\nmod t {\n    fn helper() { a.lock(); }\n}\nfn prod() {}\n");
        assert!(fns.iter().find(|f| f.name == "helper").unwrap().in_test);
        assert!(!fns.iter().find(|f| f.name == "prod").unwrap().in_test);
    }
}
