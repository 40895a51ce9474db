//! # stgnn-faults
//!
//! Deterministic fault injection for the STGNN-DJD stack.
//!
//! Production code marks its fragile seams with **named failpoints**:
//!
//! ```ignore
//! stgnn_faults::failpoint!("serve::forward");          // may panic or delay
//! stgnn_faults::failpoint!("serialize::write", io);    // may `return Err(..)`
//! ```
//!
//! A failpoint does nothing until a [`FaultPlan`] is installed — either
//! programmatically ([`install`] / [`scoped`]) or through the
//! `STGNN_FAULTS` environment variable (read once, lazily, on the first
//! check or install; an explicit plan replaces it, and the end of a
//! [`scoped`] plan reinstalls it). Each plan entry names
//! a site, an action to inject ([`FaultAction`]: an `io::Error`, a panic,
//! or a delay) and a deterministic [`Trigger`] (fire on exactly the Nth
//! hit, the first N hits, every hit, or with a *seeded* probability). The
//! same plan against the same execution always injects the same faults,
//! which is what lets the chaos suite assert exact recovery behaviour
//! instead of "it usually survives".
//!
//! ## Cost when disabled
//!
//! With no plan installed the check is two relaxed atomic loads and a
//! predictable not-taken branch — no lock, no allocation, no site lookup.
//!
//! ## Environment grammar
//!
//! `STGNN_FAULTS` is a `;`-separated list of `site=action[@trigger]`:
//!
//! ```text
//! action  := io[:msg] | panic[:msg] | delay:<ms>
//! trigger := every | hit:<n> | first:<n> | prob:<p>[:<seed>]
//! ```
//!
//! e.g. `STGNN_FAULTS="serialize::write=io@hit:3;serve::forward=delay:5@prob:0.05:7"`.
//!
//! ## Crash-safe persistence
//!
//! The [`fsio`] module carries the [`fsio::atomic_write`] helper (temp
//! file + fsync + rename — a reader can only ever observe the old or the
//! new file, never a torn one), instrumented with failpoints so torn-write
//! scenarios are scriptable. It also holds the one record format that
//! weights, training checkpoints and the online loop's state share
//! ([`fsio::frame`] / [`fsio::unframe`]: a magic line, a [`fsio::crc32`]
//! and length header, then `key value` lines read through
//! [`fsio::Fields`]) and the FNV-1a hash ([`fsio::fnv1a`]) behind ring
//! placement and graph fingerprints.

pub mod fsio;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// What a triggered failpoint injects at its site.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Inject an `io::Error` (`ErrorKind::Other`). Only honoured at
    /// `failpoint!(site, io)` sites; a plain site treats it as a panic so a
    /// misconfigured plan fails loudly instead of silently not firing.
    Io {
        /// Message carried by the injected error.
        message: String,
    },
    /// Panic at the site (exercises `catch_unwind` containment).
    Panic {
        /// Panic payload message.
        message: String,
    },
    /// Sleep at the site (exercises timeouts and deadline degradation).
    Delay {
        /// Sleep duration in milliseconds.
        ms: u64,
    },
}

/// When a configured site actually fires. All triggers are deterministic:
/// hit counting is global per site, and probabilistic triggers draw from a
/// per-site RNG seeded by the plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Fire on every hit.
    EveryHit,
    /// Fire on exactly the `n`th hit (1-based), once.
    OnHit(u64),
    /// Fire on each of the first `n` hits.
    FirstN(u64),
    /// Fire with probability `p` per hit, drawn from a generator seeded
    /// with `seed` — the same seed replays the same fault schedule.
    WithProb {
        /// Per-hit firing probability in `[0, 1]`.
        p: f64,
        /// Seed for the per-site decision stream.
        seed: u64,
    },
}

/// One site's configuration: what to inject and when.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// The injected action.
    pub action: FaultAction,
    /// When the site fires.
    pub trigger: Trigger,
}

impl FaultSpec {
    /// An `io::Error` injection with the given trigger.
    pub fn io(trigger: Trigger) -> Self {
        FaultSpec {
            action: FaultAction::Io {
                message: "injected fault".into(),
            },
            trigger,
        }
    }

    /// A panic injection with the given trigger.
    pub fn panic(trigger: Trigger) -> Self {
        FaultSpec {
            action: FaultAction::Panic {
                message: "injected panic".into(),
            },
            trigger,
        }
    }

    /// A delay injection of `ms` milliseconds with the given trigger.
    pub fn delay(ms: u64, trigger: Trigger) -> Self {
        FaultSpec {
            action: FaultAction::Delay { ms },
            trigger,
        }
    }
}

/// A named set of failpoint configurations, installed with [`install`] or
/// [`scoped`], or parsed from the `STGNN_FAULTS` environment variable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    entries: Vec<(String, FaultSpec)>,
}

impl FaultPlan {
    /// An empty plan (installing it disables every failpoint).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a site configuration (builder-style).
    pub fn with(mut self, site: impl Into<String>, spec: FaultSpec) -> Self {
        self.entries.push((site.into(), spec));
        self
    }

    /// Whether the plan configures no sites.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parses the `STGNN_FAULTS` grammar (see the crate docs).
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for entry in s.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let (site, rest) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry {entry:?} is missing '='"))?;
            let (action_s, trigger_s) = match rest.split_once('@') {
                Some((a, t)) => (a, Some(t)),
                None => (rest, None),
            };
            let action = parse_action(action_s)
                .ok_or_else(|| format!("bad fault action {action_s:?} in {entry:?}"))?;
            let trigger = match trigger_s {
                None => Trigger::EveryHit,
                Some(t) => parse_trigger(t)
                    .ok_or_else(|| format!("bad fault trigger {t:?} in {entry:?}"))?,
            };
            plan = plan.with(site.trim(), FaultSpec { action, trigger });
        }
        Ok(plan)
    }
}

fn parse_action(s: &str) -> Option<FaultAction> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix("io") {
        return match rest.strip_prefix(':') {
            Some(m) => Some(FaultAction::Io { message: m.into() }),
            None if rest.is_empty() => Some(FaultAction::Io {
                message: "injected fault".into(),
            }),
            None => None,
        };
    }
    if let Some(rest) = s.strip_prefix("panic") {
        return match rest.strip_prefix(':') {
            Some(m) => Some(FaultAction::Panic { message: m.into() }),
            None if rest.is_empty() => Some(FaultAction::Panic {
                message: "injected panic".into(),
            }),
            None => None,
        };
    }
    if let Some(rest) = s.strip_prefix("delay:") {
        return rest.parse().ok().map(|ms| FaultAction::Delay { ms });
    }
    None
}

fn parse_trigger(s: &str) -> Option<Trigger> {
    let s = s.trim();
    if s == "every" {
        return Some(Trigger::EveryHit);
    }
    if let Some(n) = s.strip_prefix("hit:") {
        return n.parse().ok().map(Trigger::OnHit);
    }
    if let Some(n) = s.strip_prefix("first:") {
        return n.parse().ok().map(Trigger::FirstN);
    }
    if let Some(rest) = s.strip_prefix("prob:") {
        let (p_s, seed_s) = match rest.split_once(':') {
            Some((p, seed)) => (p, Some(seed)),
            None => (rest, None),
        };
        let p: f64 = p_s.parse().ok()?;
        if !(0.0..=1.0).contains(&p) {
            return None;
        }
        let seed = match seed_s {
            Some(s) => s.parse().ok()?,
            None => 0,
        };
        return Some(Trigger::WithProb { p, seed });
    }
    None
}

/// Per-site runtime state: the spec plus deterministic counters.
struct SiteState {
    spec: FaultSpec,
    hits: u64,
    fired: u64,
    /// Decision stream for [`Trigger::WithProb`], seeded at install time.
    rng: StdRng,
}

#[derive(Default)]
struct Registry {
    sites: HashMap<String, SiteState>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static ENV_PLAN: OnceLock<FaultPlan> = OnceLock::new();
static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
static TEST_GUARD: OnceLock<Mutex<()>> = OnceLock::new();

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock_registry() -> MutexGuard<'static, Registry> {
    // A panic injected *while holding the lock* never happens (the lock is
    // released before the action fires), but a panicking test thread could
    // still poison it through unrelated code — recover rather than cascade.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs `plan`, replacing any previous one and resetting all hit/fired
/// counters. An empty plan disables every failpoint. The `STGNN_FAULTS`
/// plan is loaded first if it has not been yet, so an explicit plan always
/// replaces it, never the other way round.
pub fn install(plan: FaultPlan) {
    load_env_plan();
    replace(plan);
}

/// The `STGNN_FAULTS` plan (empty when the variable is unset or
/// malformed), parsed and installed once per process: on the first check
/// or the first [`install`], whichever comes first. Inlined because
/// [`active`] runs it on every failpoint check, in every crate.
#[inline]
fn load_env_plan() -> &'static FaultPlan {
    ENV_PLAN.get_or_init(|| {
        let plan = match std::env::var("STGNN_FAULTS") {
            Ok(s) => FaultPlan::parse(&s).unwrap_or_else(|e| {
                eprintln!("[stgnn-faults] ignoring STGNN_FAULTS: {e}");
                FaultPlan::new()
            }),
            Err(_) => FaultPlan::new(),
        };
        replace(plan.clone());
        plan
    })
}

fn replace(plan: FaultPlan) {
    let mut reg = lock_registry();
    reg.sites.clear();
    for (site, spec) in plan.entries {
        let seed = match spec.trigger {
            Trigger::WithProb { seed, .. } => seed,
            _ => 0,
        };
        reg.sites.insert(
            site,
            SiteState {
                spec,
                hits: 0,
                fired: 0,
                rng: StdRng::seed_from_u64(seed),
            },
        );
    }
    ACTIVE.store(!reg.sites.is_empty(), Ordering::Release);
}

/// Whether any failpoint is currently configured. The first call (per
/// process) also reads `STGNN_FAULTS` and installs it if present and no
/// plan was installed before, so an externally-scripted chaos run needs no
/// code changes.
#[inline]
pub fn active() -> bool {
    load_env_plan();
    ACTIVE.load(Ordering::Acquire)
}

/// Times a site was reached since the plan was installed (0 if unknown).
pub fn hits(site: &str) -> u64 {
    lock_registry().sites.get(site).map_or(0, |s| s.hits)
}

/// Times a site actually fired since the plan was installed (0 if unknown).
pub fn fired(site: &str) -> u64 {
    lock_registry().sites.get(site).map_or(0, |s| s.fired)
}

/// The action to execute at a site, decided under the registry lock but
/// executed outside it (a delay or panic must not hold the lock).
enum Decision {
    Nothing,
    Io(String),
    Panic(String),
    Delay(Duration),
}

fn decide(site: &str) -> Decision {
    let mut reg = lock_registry();
    let Some(state) = reg.sites.get_mut(site) else {
        return Decision::Nothing;
    };
    state.hits += 1;
    let fire = match state.spec.trigger {
        Trigger::EveryHit => true,
        Trigger::OnHit(n) => state.hits == n,
        Trigger::FirstN(n) => state.hits <= n,
        Trigger::WithProb { p, .. } => state.rng.gen_bool(p),
    };
    if !fire {
        return Decision::Nothing;
    }
    state.fired += 1;
    match &state.spec.action {
        FaultAction::Io { message } => Decision::Io(message.clone()),
        FaultAction::Panic { message } => Decision::Panic(message.clone()),
        FaultAction::Delay { ms } => Decision::Delay(Duration::from_millis(*ms)),
    }
}

/// Evaluates a plain failpoint: fires panics and delays. An `Io` action
/// configured here panics too (loud misconfiguration beats silent no-op).
/// Prefer the [`failpoint!`] macro over calling this directly.
#[inline]
pub fn check(site: &str) {
    if !active() {
        return;
    }
    check_slow(site);
}

#[cold]
fn check_slow(site: &str) {
    match decide(site) {
        Decision::Nothing => {}
        Decision::Delay(d) => std::thread::sleep(d),
        Decision::Panic(msg) => panic!("failpoint {site}: {msg}"),
        Decision::Io(msg) => panic!("failpoint {site}: io fault at a non-io site: {msg}"),
    }
}

/// Evaluates an I/O failpoint: delays fire inline, panics panic, and an
/// `Io` action is returned for the caller (via `failpoint!(site, io)`) to
/// surface as an error on its own path.
#[inline]
pub fn check_io(site: &str) -> Option<io::Error> {
    if !active() {
        return None;
    }
    check_io_slow(site)
}

#[cold]
fn check_io_slow(site: &str) -> Option<io::Error> {
    match decide(site) {
        Decision::Nothing => None,
        Decision::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        Decision::Panic(msg) => panic!("failpoint {site}: {msg}"),
        Decision::Io(msg) => Some(io::Error::other(format!("failpoint {site}: {msg}"))),
    }
}

/// Marks a fault-injection site.
///
/// * `failpoint!("site")` — may panic or delay in place.
/// * `failpoint!("site", io)` — may additionally `return Err(e.into())`
///   from the enclosing function; usable wherever the error type converts
///   `From<io::Error>`.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        $crate::check($site)
    };
    ($site:expr, io) => {
        if let Some(e) = $crate::check_io($site) {
            return Err(e.into());
        }
    };
}

/// RAII guard from [`scoped`]: on drop, reinstalls the `STGNN_FAULTS` plan
/// (an empty plan when the variable is unset) and releases the global test
/// lock.
pub struct ScopedPlan {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for ScopedPlan {
    fn drop(&mut self) {
        // Back to the environment's plan, not to none: a soak run through
        // `STGNN_FAULTS` keeps soaking the tests after a scoped one.
        install(load_env_plan().clone());
    }
}

/// Installs `plan` for the lifetime of the returned guard, holding a global
/// lock so concurrently-running tests cannot see each other's faults. When
/// the guard drops, the `STGNN_FAULTS` plan (or none) is back.
///
/// The registry is process-global state; every test that installs a plan
/// must go through this (or serialise itself some other way).
pub fn scoped(plan: FaultPlan) -> ScopedPlan {
    let guard = TEST_GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        // A panicking chaos test poisons the mutex by design (panic
        // injection); the lock itself protects nothing mutable.
        .unwrap_or_else(PoisonError::into_inner);
    install(plan);
    ScopedPlan { _guard: guard }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_failpoints_do_nothing() {
        let _s = scoped(FaultPlan::new());
        assert!(!active());
        check("nope");
        assert!(check_io("nope").is_none());
    }

    #[test]
    fn on_hit_fires_exactly_once_on_the_nth_hit() {
        let _s = scoped(FaultPlan::new().with("t::site", FaultSpec::io(Trigger::OnHit(3))));
        assert!(check_io("t::site").is_none());
        assert!(check_io("t::site").is_none());
        assert!(check_io("t::site").is_some());
        assert!(check_io("t::site").is_none());
        assert_eq!(hits("t::site"), 4);
        assert_eq!(fired("t::site"), 1);
    }

    #[test]
    fn first_n_fires_on_the_first_n_hits_only() {
        let _s = scoped(FaultPlan::new().with("t::first", FaultSpec::io(Trigger::FirstN(2))));
        assert!(check_io("t::first").is_some());
        assert!(check_io("t::first").is_some());
        assert!(check_io("t::first").is_none());
        assert_eq!(fired("t::first"), 2);
    }

    #[test]
    fn seeded_probability_is_replayable() {
        let schedule = |seed: u64| -> Vec<bool> {
            let _s = scoped(
                FaultPlan::new().with("t::prob", FaultSpec::io(Trigger::WithProb { p: 0.5, seed })),
            );
            (0..32).map(|_| check_io("t::prob").is_some()).collect()
        };
        let a = schedule(7);
        let b = schedule(7);
        let c = schedule(8);
        assert_eq!(a, b, "same seed must replay the same fault schedule");
        assert_ne!(a, c, "different seeds should differ");
        assert!(a.iter().any(|&f| f) && !a.iter().all(|&f| f));
    }

    #[test]
    fn panic_action_panics_with_the_site_name() {
        let _s = scoped(FaultPlan::new().with("t::boom", FaultSpec::panic(Trigger::EveryHit)));
        let err = std::panic::catch_unwind(|| check("t::boom")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("t::boom"), "{msg}");
    }

    #[test]
    fn delay_action_sleeps() {
        let _s = scoped(FaultPlan::new().with("t::slow", FaultSpec::delay(30, Trigger::EveryHit)));
        let t0 = std::time::Instant::now();
        check("t::slow");
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn env_grammar_round_trips() {
        let plan = FaultPlan::parse(
            "serialize::write=io@hit:3; serve::forward=panic:boom@prob:0.25:9;\
             pool::alloc=delay:5; client::connect=io:refused@first:2",
        )
        .unwrap();
        assert_eq!(
            plan,
            FaultPlan::new()
                .with("serialize::write", FaultSpec::io(Trigger::OnHit(3)))
                .with(
                    "serve::forward",
                    FaultSpec {
                        action: FaultAction::Panic {
                            message: "boom".into()
                        },
                        trigger: Trigger::WithProb { p: 0.25, seed: 9 },
                    }
                )
                .with("pool::alloc", FaultSpec::delay(5, Trigger::EveryHit))
                .with(
                    "client::connect",
                    FaultSpec {
                        action: FaultAction::Io {
                            message: "refused".into()
                        },
                        trigger: Trigger::FirstN(2),
                    }
                )
        );
    }

    #[test]
    fn bad_grammar_is_rejected_with_context() {
        for bad in [
            "no-equals",
            "s=explode",
            "s=io@hit:x",
            "s=prob",
            "s=io@prob:1.5",
            "s=delay:abc",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn reinstall_resets_counters() {
        let _s = scoped(FaultPlan::new().with("t::reset", FaultSpec::io(Trigger::EveryHit)));
        assert!(check_io("t::reset").is_some());
        assert_eq!(fired("t::reset"), 1);
        install(FaultPlan::new().with("t::reset", FaultSpec::io(Trigger::OnHit(2))));
        assert_eq!(fired("t::reset"), 0);
        assert!(check_io("t::reset").is_none());
        assert!(check_io("t::reset").is_some());
        // Restore the scoped guard's expectation of clearing on drop.
    }
}
