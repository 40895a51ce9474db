//! Lock-order and held-across-boundary analysis (`S001`, `S002`, and the
//! guard-scoped half of `S006`).
//!
//! Every parsed function (and every detached `spawn` closure) is walked as
//! a root with an empty held-set. A `let`-bound guard joins the held-set
//! until its block closes or `drop(guard)` runs; while the set is
//! non-empty, three things are findings:
//!
//! * acquiring another lock adds a **may-hold-while-acquiring** edge; a
//!   cycle in that graph across the whole workspace is a deadlock
//!   witness (`S001`) — two threads entering the cycle from different
//!   nodes block each other forever;
//! * reaching a blocking/divergence boundary — `.send(`, `failpoint!`,
//!   `forward`/`predict_horizon` — directly or through a resolvable call
//!   (`S002`);
//! * reaching an uncaught panic site, directly or through a resolvable
//!   call (`S006`, using [`crate::sound::panics`] summaries).
//!
//! Interprocedural resolution is **name-based and deliberately partial**:
//! a call resolves only to a uniquely-named workspace function whose name
//! is not on [`STOPLIST`] (ubiquitous method names — `insert`, `get`,
//! `send` — would otherwise resolve `map.insert(..)` to some unrelated
//! `cache::insert` and fabricate self-cycles). The trade is documented in
//! DESIGN.md §13: the analysis under-approximates through common names and
//! over-approximates instance identity (all `server` fields share a node).

use super::parser::{Ev, FnInfo, LockKey};
use super::Finding;
use std::collections::{HashMap, HashSet, VecDeque};

/// Method/function names excluded from interprocedural resolution even
/// when a workspace fn of that name is unique: they are overwhelmingly
/// std-library methods at call sites.
pub(crate) const STOPLIST: &[&str] = &[
    "new",
    "get",
    "get_mut",
    "insert",
    "len",
    "clear",
    "clone",
    "take",
    "remove",
    "push",
    "pop",
    "send",
    "wait",
    "wait_timeout",
    "iter",
    "next",
    "fmt",
    "default",
    "from",
    "into",
    "eq",
    "hash",
    "drop",
    "write",
    "read",
    "lock",
    "run",
    "main",
    "is_empty",
    "contains",
    "extend",
    "with_capacity",
    "ok",
    "err",
    "unwrap",
    "expect",
    "min",
    "max",
    "abs",
    "sum",
    "observe",
    "record",
    "set",
    "start",
    "stop",
    "join",
    "recv",
    "flush",
    "close",
    "shutdown",
    "tick",
    "step",
    "index",
    "spawn",
    "notify_all",
    "notify_one",
    "forward",
    "contains_key",
    "entry",
    "keys",
    "values",
    "split",
    "trim",
    "parse",
    "find",
    "map",
    "filter",
    "collect",
    "get_or_init",
];

/// Name-based call resolution over the parsed function set.
pub(crate) struct Resolver {
    unique: HashMap<String, usize>,
}

impl Resolver {
    pub(crate) fn build(fns: &[FnInfo]) -> Resolver {
        let mut counts: HashMap<&str, (usize, usize)> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let e = counts.entry(f.name.as_str()).or_insert((0, i));
            e.0 += 1;
            e.1 = i;
        }
        let unique = counts
            .into_iter()
            .filter(|(name, (n, _))| *n == 1 && !STOPLIST.contains(name))
            .map(|(name, (_, i))| (name.to_string(), i))
            .collect();
        Resolver { unique }
    }

    pub(crate) fn resolve(&self, name: &str) -> Option<usize> {
        self.unique.get(name).copied()
    }
}

/// One may-hold-while-acquiring edge, with the site that witnessed it.
#[derive(Debug, Clone)]
pub(crate) struct Edge {
    pub from: LockKey,
    pub to: LockKey,
    pub file: usize,
    pub line: usize,
}

/// The set of locks a function may acquire on its calling thread,
/// transitively through resolvable calls.
fn acquire_summaries(fns: &[FnInfo], resolver: &Resolver) -> Vec<HashSet<LockKey>> {
    let mut out: Vec<HashSet<LockKey>> = fns
        .iter()
        .map(|f| {
            f.events
                .iter()
                .filter_map(|e| match e {
                    Ev::Acquire { lock, .. } => Some(lock.clone()),
                    _ => None,
                })
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for (i, f) in fns.iter().enumerate() {
            for e in &f.events {
                let Ev::Call { name, .. } = e else { continue };
                let Some(j) = resolver.resolve(name) else {
                    continue;
                };
                if j == i {
                    continue;
                }
                let add: Vec<LockKey> = out[j].difference(&out[i]).cloned().collect();
                if !add.is_empty() {
                    out[i].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    out
}

/// The blocking boundaries a function may reach, transitively.
fn boundary_summaries(
    fns: &[FnInfo],
    resolver: &Resolver,
) -> Vec<HashSet<super::parser::Boundary>> {
    let mut out: Vec<HashSet<super::parser::Boundary>> = fns
        .iter()
        .map(|f| {
            f.events
                .iter()
                .filter_map(|e| match e {
                    Ev::Boundary { kind, .. } => Some(*kind),
                    _ => None,
                })
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for (i, f) in fns.iter().enumerate() {
            for e in &f.events {
                let Ev::Call { name, .. } = e else { continue };
                let Some(j) = resolver.resolve(name) else {
                    continue;
                };
                if j == i {
                    continue;
                }
                let add: Vec<_> = out[j].difference(&out[i]).copied().collect();
                if !add.is_empty() {
                    out[i].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    out
}

struct Held {
    lock: LockKey,
    depth: usize,
    guard: String,
}

/// Walks every function and detached closure, returning the raw findings
/// (S002/S006) and the global edge set for cycle detection.
pub(crate) fn analyze_locks(
    fns: &[FnInfo],
    resolver: &Resolver,
    may_panic: &[Option<(String, usize)>],
) -> (Vec<Finding>, Vec<Edge>) {
    let acquires = acquire_summaries(fns, resolver);
    let boundaries = boundary_summaries(fns, resolver);
    let mut findings = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut edge_seen: HashSet<(LockKey, LockKey)> = HashSet::new();
    let mut finding_seen: HashSet<(usize, usize, &'static str, String)> = HashSet::new();

    let push = |findings: &mut Vec<Finding>,
                seen: &mut HashSet<(usize, usize, &'static str, String)>,
                code: &'static str,
                file: usize,
                line: usize,
                message: String| {
        if seen.insert((file, line, code, message.clone())) {
            findings.push(Finding {
                code,
                file,
                line,
                message,
                sites: Vec::new(),
            });
        }
    };

    for f in fns.iter().filter(|f| !f.in_test) {
        let streams = std::iter::once(&f.events).chain(f.detached.iter());
        for events in streams {
            let mut held: Vec<Held> = Vec::new();
            for ev in events {
                match ev {
                    Ev::Acquire {
                        lock,
                        guard,
                        poison,
                        line,
                        depth,
                    } => {
                        for h in &held {
                            if edge_seen.insert((h.lock.clone(), lock.clone())) {
                                edges.push(Edge {
                                    from: h.lock.clone(),
                                    to: lock.clone(),
                                    file: f.file,
                                    line: *line,
                                });
                            }
                        }
                        if !poison.is_empty() {
                            push(
                                &mut findings,
                                &mut finding_seen,
                                super::codes::PANIC_UNDER_LOCK,
                                f.file,
                                *line,
                                format!(
                                    "`{}` acquisition in {}() propagates poisoning via \
                                     .unwrap()/.expect(); tolerate it with \
                                     `unwrap_or_else(PoisonError::into_inner)` or annotate the \
                                     invariant",
                                    lock, f.name
                                ),
                            );
                        }
                        if let Some(g) = guard {
                            held.push(Held {
                                lock: lock.clone(),
                                depth: *depth,
                                guard: g.clone(),
                            });
                        }
                    }
                    Ev::Drop { name } => held.retain(|h| &h.guard != name),
                    Ev::Close { to_depth } => held.retain(|h| h.depth <= *to_depth),
                    Ev::Boundary { kind, line } => {
                        if !held.is_empty() {
                            let names: Vec<&str> = held.iter().map(|h| h.lock.as_str()).collect();
                            push(
                                &mut findings,
                                &mut finding_seen,
                                super::codes::LOCK_ACROSS_BOUNDARY,
                                f.file,
                                *line,
                                format!(
                                    "{} in {}() while holding [{}]; the lock blocks every \
                                     peer for the boundary's full duration",
                                    kind.describe(),
                                    f.name,
                                    names.join(", ")
                                ),
                            );
                        }
                    }
                    Ev::Panic { what, line, caught } => {
                        if !caught && !held.is_empty() {
                            let names: Vec<&str> = held.iter().map(|h| h.lock.as_str()).collect();
                            push(
                                &mut findings,
                                &mut finding_seen,
                                super::codes::PANIC_UNDER_LOCK,
                                f.file,
                                *line,
                                format!(
                                    "{what} in {}() while holding [{}]; an unwind here \
                                     poisons or abandons the lock mid-mutation",
                                    f.name,
                                    names.join(", ")
                                ),
                            );
                        }
                    }
                    Ev::Call { name, line, caught } => {
                        let Some(j) = resolver.resolve(name) else {
                            continue;
                        };
                        if held.is_empty() {
                            continue;
                        }
                        for h in &held {
                            for l in &acquires[j] {
                                if edge_seen.insert((h.lock.clone(), l.clone())) {
                                    edges.push(Edge {
                                        from: h.lock.clone(),
                                        to: l.clone(),
                                        file: f.file,
                                        line: *line,
                                    });
                                }
                            }
                        }
                        let names: Vec<&str> = held.iter().map(|h| h.lock.as_str()).collect();
                        for kind in &boundaries[j] {
                            push(
                                &mut findings,
                                &mut finding_seen,
                                super::codes::LOCK_ACROSS_BOUNDARY,
                                f.file,
                                *line,
                                format!(
                                    "call to {name}() reaches a {} in {}() while holding \
                                     [{}]",
                                    kind.describe(),
                                    f.name,
                                    names.join(", ")
                                ),
                            );
                        }
                        if !caught {
                            if let Some((what, _)) = &may_panic[j] {
                                push(
                                    &mut findings,
                                    &mut finding_seen,
                                    super::codes::PANIC_UNDER_LOCK,
                                    f.file,
                                    *line,
                                    format!(
                                        "call to {name}() can panic ({what}) in {}() while \
                                         holding [{}]",
                                        f.name,
                                        names.join(", ")
                                    ),
                                );
                            }
                        }
                    }
                    Ev::Index { .. } | Ev::FileCreate { .. } => {}
                }
            }
        }
    }
    (findings, edges)
}

/// Detects cycles in the may-hold-while-acquiring graph; one `S001`
/// finding per distinct cycle node-set, carrying every witnessing site.
pub(crate) fn lock_order_cycles(edges: &[Edge]) -> Vec<Finding> {
    let mut adj: HashMap<&str, Vec<&Edge>> = HashMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut out = Vec::new();
    let mut reported: HashSet<Vec<String>> = HashSet::new();
    for e in edges {
        let cycle_nodes: Option<Vec<String>> = if e.from == e.to {
            Some(vec![e.from.clone()])
        } else {
            // BFS from `to` back to `from` closes the cycle through `e`.
            let mut parent: HashMap<&str, &Edge> = HashMap::new();
            let mut queue = VecDeque::from([e.to.as_str()]);
            let mut found = false;
            while let Some(n) = queue.pop_front() {
                if n == e.from {
                    found = true;
                    break;
                }
                for next in adj.get(n).into_iter().flatten() {
                    if next.to != e.to && !parent.contains_key(next.to.as_str()) {
                        parent.insert(next.to.as_str(), next);
                        queue.push_back(next.to.as_str());
                    }
                }
            }
            found.then(|| {
                let mut path = vec![e.to.clone()];
                let mut cur = e.from.as_str();
                let mut rev = Vec::new();
                while cur != e.to.as_str() {
                    rev.push(cur.to_string());
                    match parent.get(cur) {
                        Some(p) => cur = p.from.as_str(),
                        None => break,
                    }
                }
                path.extend(rev.into_iter().rev());
                path
            })
        };
        let Some(mut nodes) = cycle_nodes else {
            continue;
        };
        let mut key = nodes.clone();
        key.sort();
        if !reported.insert(key.clone()) {
            continue;
        }
        // Render the cycle starting from its smallest node for stability.
        let min_pos = nodes
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        nodes.rotate_left(min_pos);
        let mut ring = nodes.clone();
        ring.push(nodes[0].clone());
        let sites: Vec<(usize, usize)> = edges
            .iter()
            .filter(|ed| key.binary_search(&ed.from).is_ok() && key.binary_search(&ed.to).is_ok())
            .map(|ed| (ed.file, ed.line))
            .collect();
        let (file, line) = sites.first().copied().unwrap_or((e.file, e.line));
        out.push(Finding {
            code: super::codes::LOCK_ORDER_CYCLE,
            file,
            line,
            message: format!(
                "lock-order cycle {}: two threads entering from different nodes deadlock; \
                 impose a single acquisition order or annotate the invariant",
                ring.join(" -> ")
            ),
            sites,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::mask;
    use crate::sound::parser::parse_functions;

    fn run(src: &str) -> (Vec<Finding>, Vec<Edge>, Vec<Finding>) {
        let fns = parse_functions(&mask(src), 0, "fix");
        let resolver = Resolver::build(&fns);
        let mp = super::super::panics::may_panic(&fns, &resolver);
        let (findings, edges) = analyze_locks(&fns, &resolver, &mp);
        let cycles = lock_order_cycles(&edges);
        (findings, edges, cycles)
    }

    #[test]
    fn inverse_orders_make_a_cycle() {
        let (_, edges, cycles) = run(
            "fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n\
             fn g(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n",
        );
        assert_eq!(edges.len(), 2);
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert!(cycles[0]
            .message
            .contains("fix::alpha -> fix::beta -> fix::alpha"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let (findings, edges, cycles) = run(
            "fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n\
             fn g(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n",
        );
        assert_eq!(edges.len(), 1);
        assert!(cycles.is_empty());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn interprocedural_edge_through_unique_callee() {
        let (_, edges, cycles) = run("fn take_beta(&self) {\n    let b = self.beta.lock();\n}\n\
             fn f(&self) {\n    let a = self.alpha.lock();\n    self.take_beta();\n}\n\
             fn g(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n");
        assert!(edges
            .iter()
            .any(|e| e.from == "fix::alpha" && e.to == "fix::beta"));
        assert_eq!(cycles.len(), 1, "{cycles:?}");
    }

    #[test]
    fn detached_spawn_does_not_extend_the_held_set() {
        let (findings, edges, _) = run(
            "fn worker_body(&self) {\n    let j = self.jobs.lock();\n}\n\
             fn ensure(&self) {\n    let s = self.spawned.lock();\n    \
             thread::spawn(move || {\n        worker_body();\n    });\n}\n",
        );
        assert!(edges.is_empty(), "{edges:?}");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn boundary_and_panic_under_guard() {
        let (findings, _, _) = run(
            "fn submit(&self) {\n    let q = self.queue.lock();\n    req.respond.send(out);\n    \
             failpoint!(\"x\");\n    let v = m.forward(&g);\n    x.unwrap();\n}\n",
        );
        let codes: Vec<&str> = findings.iter().map(|f| f.code).collect();
        assert_eq!(codes, vec!["S002", "S002", "S002", "S006"], "{findings:?}");
    }

    #[test]
    fn scoped_and_dropped_guards_are_released() {
        let (findings, _, _) = run(
            "fn f(&self) {\n    {\n        let q = self.queue.lock();\n    }\n    \
             req.respond.send(out);\n    let g = self.state.lock();\n    drop(g);\n    \
             failpoint!(\"x\");\n}\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn transient_acquisition_holds_nothing() {
        let (findings, edges, _) = run(
            "fn crash(&self) {\n    if let Some(s) = replica.server.lock().take() {\n        \
             s.shutdown();\n    }\n    let o = self.other.lock();\n}\n",
        );
        assert!(edges.is_empty(), "{edges:?}");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn poison_propagating_acquisition_is_flagged() {
        let (findings, _, _) = run("fn f(&self) {\n    let g = self.state.lock().unwrap();\n}\n");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "S006");
        assert!(findings[0].message.contains("propagates poisoning"));
    }

    #[test]
    fn interprocedural_panic_under_guard() {
        let (findings, _, _) = run(
            "fn validate_shape(x: usize) {\n    assert_fail(x);\n    panic!(\"bad\");\n}\n\
             fn f(&self) {\n    let g = self.state.lock();\n    validate_shape(3);\n}\n",
        );
        assert!(
            findings
                .iter()
                .any(|f| f.code == "S006" && f.message.contains("validate_shape")),
            "{findings:?}"
        );
    }

    #[test]
    fn same_lock_condvar_wait_makes_no_edges() {
        let (findings, edges, cycles) = run("fn pop(&self) {\n    let mut jobs = self.jobs.lock()\
             .unwrap_or_else(PoisonError::into_inner);\n    \
             while jobs.is_empty() {\n        jobs = self.available.wait(jobs)\
             .unwrap_or_else(PoisonError::into_inner);\n    }\n}\n");
        assert!(edges.is_empty(), "{edges:?}");
        assert!(cycles.is_empty());
        assert!(findings.is_empty(), "{findings:?}");
    }
}
