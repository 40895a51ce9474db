//! Chaos suite: scripted fault scenarios driven end-to-end through the
//! public APIs, each asserting a **named recovery invariant**. The
//! `stgnn-faults` failpoint registry makes every scenario deterministic —
//! the same plan against the same execution injects the same faults, so
//! these tests assert exact recovery behaviour, not "it usually survives".
//!
//! Every test installs its plan through [`faults::scoped`], which holds a
//! process-global lock: scenarios serialise against each other and against
//! any other test that injects faults, and the plan is cleared on drop even
//! when the scenario panics on purpose.
//!
//! Invariants covered here:
//!
//! | Invariant                          | Scenario                          |
//! |------------------------------------|-----------------------------------|
//! | TRAIN-CRASH-RESUME                 | panic mid-epoch, resume, bit-same |
//! | ATOMIC-WRITE-NEVER-TEARS           | torn rename leaves old weights    |
//! | SERVE-PANIC-IS-CONTAINED           | forward panic or replay error →   |
//! |                                    | error reply, live                 |
//! | SWAP-FAULT-KEEPS-OLD-WEIGHTS       | failed hot-swap serves old model  |
//! | DELAY-FAULTS-ARE-SEMANTICALLY-INERT| delay-only plan changes no bits   |
//! | CORRUPT-CHECKPOINT-IS-REJECTED     | damage → typed error, no panic    |
//! | HOSTILE-CHECKPOINT-IS-TYPED        | CRC-valid hostile counts, dims,   |
//! |                                    | moments, mutations → Ok or typed  |
//! | HOSTILE-RECORD-IS-TYPED            | loop state, weights, fault plans: |
//! |                                    | random, cut, flipped, mutated →   |
//! |                                    | Ok or typed; model untouched      |
//! | PROMOTE-CRASH-RESUMES              | kill mid-promotion; registry holds|
//! |                                    | exactly one model, loop resumes   |
//! | POISONED-CANDIDATE-ROLLS-BACK      | RMSE watchdog restores incumbent  |
//! |                                    | bit-identically, zero serve errors|
//! | ONLINE-CRASH-ANY-PHASE-RESUMES     | kill at every `online::*` seam in |
//! |                                    | turn; resume to a named state     |

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stgnn_djd::data::dataset::{BikeDataset, DatasetConfig, Split};
use stgnn_djd::data::error::Error;
use stgnn_djd::data::synthetic::{CityConfig, SyntheticCity};
use stgnn_djd::faults::fsio::RecordError;
use stgnn_djd::faults::{scoped, FaultPlan, FaultSpec, Trigger};
use stgnn_djd::model::{CheckpointError, StgnnConfig, StgnnDjd, TrainCheckpoint, Trainer};
use stgnn_djd::online::{CycleOutcome, LoopState, OnlineConfig, OnlineLoop, Phase};
use stgnn_djd::serve::client;
use stgnn_djd::serve::registry::ModelRegistry;
use stgnn_djd::serve::{MetricsSnapshot, ModelSpec, ServeConfig, Server};

fn dataset(seed: u64) -> BikeDataset {
    let city = SyntheticCity::generate(CityConfig::test_tiny(seed));
    BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap()
}

fn tiny_config() -> StgnnConfig {
    let mut config = StgnnConfig::test_tiny(6, 2);
    config.epochs = 2;
    config.max_batches_per_epoch = Some(4);
    config
}

fn scratch_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stgnn-chaos-{}-{label}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn loss_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn param_bits(model: &StgnnDjd) -> Vec<Vec<u32>> {
    model
        .params()
        .params()
        .iter()
        .map(|p| p.value().data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Named invariant: TRAIN-CRASH-RESUME. A training process killed by a
/// *panic* mid-epoch (the harshest crash we can inject in-process) leaves a
/// valid checkpoint behind, and resuming it in a fresh model reproduces the
/// uninterrupted run's losses bit for bit.
#[test]
fn panic_crash_then_resume_matches_uninterrupted_run() {
    let data = dataset(141);
    let config = tiny_config();

    // Reference: the run that never crashes.
    let mut gold = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    let gold_report = {
        let _quiet = scoped(FaultPlan::new());
        Trainer::new(config.clone())
            .train(&mut gold, &data)
            .unwrap()
    };

    // Crash run: checkpoint every 2 batches, panic at the 6th step (epoch 1,
    // batch 2 — two steps past the last epoch-0 checkpoint).
    let path = scratch_dir("panic-resume").join("train.ckpt");
    let trainer = Trainer::new(config.clone()).with_checkpointing(&path, 2);
    {
        let _chaos =
            scoped(FaultPlan::new().with("trainer::step", FaultSpec::panic(Trigger::OnHit(6))));
        let mut doomed = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        let crash = catch_unwind(AssertUnwindSafe(|| trainer.train(&mut doomed, &data)));
        assert!(crash.is_err(), "the injected panic did not fire");
    }
    assert!(path.exists(), "no checkpoint survived the crash");

    // Recovery: a fresh model (a new process would rebuild it the same way)
    // resumes from the checkpoint and lands exactly where gold did.
    let mut resumed = StgnnDjd::new(config, data.n_stations()).unwrap();
    let report = {
        let _quiet = scoped(FaultPlan::new());
        trainer.resume_from(&path, &mut resumed, &data).unwrap()
    };
    assert!(report.resumed);
    assert_eq!(
        loss_bits(&report.train_losses),
        loss_bits(&gold_report.train_losses)
    );
    assert_eq!(
        loss_bits(&report.val_losses),
        loss_bits(&gold_report.val_losses)
    );
    assert_eq!(param_bits(&gold), param_bits(&resumed));
}

/// Named invariant: ATOMIC-WRITE-NEVER-TEARS. A fault at any stage of a
/// weight save — here the final rename — leaves the previous file byte-
/// identical and litters no temp files; a reader can only ever observe the
/// old weights or the new ones, never a torn mix.
#[test]
fn torn_weight_save_leaves_the_old_checkpoint_intact() {
    let data = dataset(142);
    let config = tiny_config();
    let dir = scratch_dir("torn-save");
    let path = dir.join("weights.bin");

    let old = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    let mut newer_cfg = config.clone();
    newer_cfg.seed = config.seed + 1;
    let newer = StgnnDjd::new(newer_cfg, data.n_stations()).unwrap();
    assert_ne!(old.weights_to_bytes(), newer.weights_to_bytes());

    {
        let _quiet = scoped(FaultPlan::new());
        old.save_weights(&path).unwrap();
    }

    for site in [
        "atomic_write::rename",
        "atomic_write::fsync",
        "atomic_write::write",
    ] {
        let _chaos = scoped(FaultPlan::new().with(site, FaultSpec::io(Trigger::EveryHit)));
        let err = newer.save_weights(&path).unwrap_err();
        assert!(err.to_string().contains(site), "{err}");
        // The visible file still holds the OLD weights, bit for bit.
        let mut reread = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        reread.load_weights(&path).unwrap();
        assert_eq!(
            reread.weights_to_bytes(),
            old.weights_to_bytes(),
            "faulted {site} tore the visible file"
        );
    }
    // No temp-file litter: the failed attempts cleaned up after themselves.
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "temp litter: {leftovers:?}");
}

fn serve_fixture(seed: u64) -> (Arc<BikeDataset>, Server, usize) {
    let city = SyntheticCity::generate(CityConfig::test_tiny(seed));
    let data = Arc::new(BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap());
    let server = Server::start(Arc::clone(&data), ServeConfig::default()).unwrap();
    let mut config = StgnnConfig::test_tiny(6, 2);
    config.seed = 7;
    let spec = ModelSpec::new(config, data.n_stations());
    let bytes = spec.materialize().unwrap().weights_to_bytes();
    server.registry().register("stgnn", spec, bytes).unwrap();
    let t = data.slots(Split::Test)[0];
    (data, server, t)
}

/// Named invariant: SERVE-PANIC-IS-CONTAINED. A panic inside the batched
/// forward pass, or an error from its plan replay, is converted into an
/// error reply for the batch that hit it; the worker thread survives,
/// rebuilds its model copy, and the very next request is served normally.
#[test]
fn forward_pass_panic_fails_one_request_and_the_server_keeps_serving() {
    for (site, spec) in [
        ("serve::forward", FaultSpec::panic(Trigger::OnHit(1))),
        ("plan::replay", FaultSpec::io(Trigger::OnHit(1))),
    ] {
        let _chaos = scoped(FaultPlan::new().with(site, spec));
        let (_data, mut server, t) = serve_fixture(143);
        let addr = server.addr();
        let path = format!("/predict?model=stgnn&slot={t}&deadline_ms=30000");

        let hit = client::get(addr, &path).unwrap();
        assert_eq!(hit.status, 400, "{site}: {}", hit.body);
        assert!(
            hit.body.contains("forward pass failed"),
            "{site}: {}",
            hit.body
        );

        // The worker contained the failure; the retry goes through the full
        // forward path (the failed forward stored nothing in the table).
        let ok = client::get(addr, &path).unwrap();
        assert_eq!(ok.status, 200, "{site}: {}", ok.body);
        assert_eq!(ok.json_field("degraded").unwrap(), "false");

        let s = server.metrics_snapshot();
        // The one failed request counts one error, at the worker that
        // answered it; the successful retry contributes the one forward
        // pass.
        assert_eq!(s.errors, 1, "{site}: snapshot: {s:?}");
        assert_eq!(s.requests, 2, "{site}: snapshot: {s:?}");
        assert_eq!(s.forward_passes, 1, "{site}: snapshot: {s:?}");
        assert_eq!(stgnn_djd::faults::fired(site), 1, "{site}");
        server.shutdown();
    }
}

/// Named invariant: SWAP-FAULT-KEEPS-OLD-WEIGHTS. A fault during hot-swap
/// rejects the swap with a structured error; the registered version does
/// not advance and the old weights answer every subsequent query unchanged.
#[test]
fn failed_hot_swap_keeps_serving_the_old_weights() {
    let _chaos = scoped(FaultPlan::new().with("registry::swap", FaultSpec::io(Trigger::EveryHit)));
    let (data, mut server, t) = serve_fixture(144);
    let addr = server.addr();
    let path = format!("/predict?model=stgnn&slot={t}&deadline_ms=30000");

    let before = client::get(addr, &path).unwrap();
    assert_eq!(before.status, 200, "{}", before.body);
    let baseline = before.json_field("demand").unwrap();

    let mut other = StgnnConfig::test_tiny(6, 2);
    other.seed = 999;
    let candidate = StgnnDjd::new(other, data.n_stations())
        .unwrap()
        .weights_to_bytes();
    let swap = client::post(addr, "/models/stgnn/swap", &candidate).unwrap();
    assert_ne!(
        swap.status, 200,
        "swap should have been rejected: {}",
        swap.body
    );

    let models = client::get(addr, "/models").unwrap();
    assert!(
        models.body.contains(r#""name":"stgnn","version":1"#),
        "version advanced despite the failed swap: {}",
        models.body
    );
    let after = client::get(addr, &path).unwrap();
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(
        after.json_field("demand").unwrap(),
        baseline,
        "answers changed after a swap that reported failure"
    );
    server.shutdown();
}

/// Named invariant: DELAY-FAULTS-ARE-SEMANTICALLY-INERT. A delay-only plan
/// (the plan CI runs the whole suite under) slows execution down but must
/// not change a single bit of any result — training under seeded delays on
/// the hot seams reproduces the undelayed run exactly.
#[test]
fn delay_only_plan_changes_timing_but_not_one_bit_of_the_results() {
    let data = dataset(145);
    let config = tiny_config();

    let mut quiet_model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    let quiet = {
        let _quiet = scoped(FaultPlan::new());
        Trainer::new(config.clone())
            .train(&mut quiet_model, &data)
            .unwrap()
    };

    let mut slow_model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    let slow = {
        let _chaos = scoped(
            FaultPlan::new()
                .with("trainer::step", FaultSpec::delay(2, Trigger::EveryHit))
                .with(
                    "plan::replay",
                    FaultSpec {
                        action: stgnn_djd::faults::FaultAction::Delay { ms: 1 },
                        trigger: Trigger::WithProb { p: 0.25, seed: 7 },
                    },
                )
                .with("pool::alloc", FaultSpec::delay(1, Trigger::OnHit(3))),
        );
        Trainer::new(config).train(&mut slow_model, &data).unwrap()
    };

    assert_eq!(
        loss_bits(&quiet.train_losses),
        loss_bits(&slow.train_losses)
    );
    assert_eq!(loss_bits(&quiet.val_losses), loss_bits(&slow.val_losses));
    assert_eq!(quiet.best_val_loss.to_bits(), slow.best_val_loss.to_bits());
    assert_eq!(param_bits(&quiet_model), param_bits(&slow_model));
}

/// Named invariant: CORRUPT-CHECKPOINT-IS-REJECTED. Every class of on-disk
/// damage — truncation, a flipped bit, a version-skewed header, plain
/// garbage — surfaces as a typed error from `resume_from`; the model being
/// resumed into is never partially loaded and nothing panics.
#[test]
fn damaged_checkpoints_are_rejected_without_touching_the_model() {
    let _quiet = scoped(FaultPlan::new());
    let data = dataset(146);
    let mut config = tiny_config();
    config.epochs = 1;
    let dir = scratch_dir("corrupt");
    let path = dir.join("train.ckpt");

    let trainer = Trainer::new(config.clone()).with_checkpointing(&path, 1);
    let mut model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    trainer.train(&mut model, &data).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    let damage: [(&str, Vec<u8>, &str); 4] = [
        (
            "truncated",
            pristine[..pristine.len() - 16].to_vec(),
            "truncated",
        ),
        (
            "bit-flipped",
            {
                let mut b = pristine.clone();
                let last = b.len() - 2;
                b[last] ^= 0x01;
                b
            },
            "checksum mismatch",
        ),
        (
            "version-skewed",
            {
                let text = String::from_utf8(pristine.clone()).unwrap();
                text.replacen("stgnn-ckpt v2", "stgnn-ckpt v9", 1)
                    .into_bytes()
            },
            "version skew",
        ),
        (
            "garbage",
            b"not a checkpoint at all\n".to_vec(),
            "checkpoint",
        ),
    ];

    for (label, bytes, expect) in damage {
        std::fs::write(&path, bytes).unwrap();
        let mut victim = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        let before = param_bits(&victim);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            trainer.resume_from(&path, &mut victim, &data)
        }));
        let result = outcome.unwrap_or_else(|_| panic!("{label} checkpoint panicked the loader"));
        let err = result.expect_err(label);
        assert!(
            err.to_string().contains(expect),
            "{label}: expected {expect:?} in {err}"
        );
        assert!(
            !matches!(err, Error::Io(_)) || label == "garbage" || label == "truncated",
            "{label} should be a typed rejection, got {err}"
        );
        assert_eq!(before, param_bits(&victim), "{label} partially loaded");
    }

    // The pristine bytes still resume fine — the file itself was never the
    // problem.
    std::fs::write(&path, pristine).unwrap();
    let mut fresh = StgnnDjd::new(config, data.n_stations()).unwrap();
    assert!(trainer.resume_from(&path, &mut fresh, &data).is_ok());
}

/// Frames `payload` as an `stgnn-ckpt v2` file whose CRC and length are
/// correct, so the loader gets past the checksum to the payload parser.
fn framed(payload: &str) -> Vec<u8> {
    framed_as("stgnn-ckpt v2", payload.as_bytes())
}

/// Frames `payload` as a `magic` record whose CRC and length are correct.
fn framed_as(magic: &str, payload: &[u8]) -> Vec<u8> {
    let crc = stgnn_djd::faults::fsio::crc32(payload);
    let mut bytes = format!("{magic}\ncrc32 {crc:08x} len {}\n", payload.len()).into_bytes();
    bytes.extend_from_slice(payload);
    bytes
}

/// A record's payload: everything after its magic and crc32 header lines.
fn payload_of(record: &[u8]) -> String {
    let text = String::from_utf8(record.to_vec()).unwrap();
    text.splitn(3, '\n').nth(2).unwrap().to_string()
}

/// `payload` with line `i` replaced by `f(line)` (or removed on `None`).
fn edit_line(payload: &str, i: usize, f: impl Fn(&str) -> Option<String>) -> String {
    payload
        .lines()
        .enumerate()
        .filter_map(|(k, l)| if k == i { f(l) } else { Some(l.to_string()) })
        .map(|l| l + "\n")
        .collect()
}

/// One seeded mutation of a checkpoint payload: a byte overwritten, a
/// token replaced by a hostile number, a line dropped or doubled, or a cut.
fn mutate(payload: &str, rng: &mut StdRng) -> String {
    const BYTES: &[u8] = b"0123456789abcdef -\nxz";
    const TOKENS: &[&str] = &[
        "0",
        "1",
        "-1",
        "4294967296",
        "18446744073709551615",
        "ffffffff",
        "",
    ];
    let n_lines = payload.lines().count().max(1);
    match rng.gen_range(0..5) {
        0 => {
            let mut b = payload.as_bytes().to_vec();
            let at = rng.gen_range(0..b.len());
            b[at] = BYTES[rng.gen_range(0..BYTES.len())];
            String::from_utf8(b).unwrap()
        }
        1 => {
            let line = rng.gen_range(0..n_lines);
            let token = TOKENS[rng.gen_range(0..TOKENS.len())];
            let pick: usize = rng.gen_range(0..8);
            edit_line(payload, line, |l| {
                let mut words: Vec<&str> = l.split(' ').collect();
                let at = pick % words.len();
                words[at] = token;
                Some(words.join(" "))
            })
        }
        2 => edit_line(payload, rng.gen_range(0..n_lines), |_| None),
        3 => edit_line(payload, rng.gen_range(0..n_lines), |l| {
            Some(format!("{l}\n{l}"))
        }),
        _ => payload[..rng.gen_range(0..payload.len())].to_string(),
    }
}

/// Named invariant: HOSTILE-CHECKPOINT-IS-TYPED. A checkpoint whose CRC and
/// length are correct but whose payload is hostile — counts that would
/// size a huge allocation, tensor dims whose product overflows, moments or
/// a best snapshot that do not fit the model, seeded mutations of a real
/// payload — loads to `Ok` or a typed [`CheckpointError`], never an abort
/// or a panic; and what loads but does not fit is refused by
/// `resume_from` as incompatible before the model is touched.
#[test]
fn hostile_checkpoints_get_a_typed_error_never_a_panic() {
    let _quiet = scoped(FaultPlan::new());
    let data = dataset(147);
    let config = tiny_config();
    let path = scratch_dir("hostile").join("train.ckpt");
    let trainer = Trainer::new(config.clone()).with_checkpointing(&path, 1);
    let mut model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    trainer.train(&mut model, &data).unwrap();
    let file = String::from_utf8(std::fs::read(&path).unwrap()).unwrap();
    let real = file.splitn(3, '\n').nth(2).unwrap().to_string();
    let line_of = |prefix: &str| {
        real.lines()
            .position(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("the real payload has no {prefix:?} line"))
    };
    let load = |label: &str, payload: &str| -> Result<TrainCheckpoint, CheckpointError> {
        std::fs::write(&path, framed(payload)).unwrap();
        catch_unwind(AssertUnwindSafe(|| TrainCheckpoint::load(&path)))
            .unwrap_or_else(|_| panic!("{label}: the checkpoint loader panicked"))
    };
    assert!(load("real", &real).is_ok(), "the real payload must load");

    // Counts that would size an allocation from the file, and tensor dims
    // whose product overflows: malformed, with nothing allocated up front.
    let mut hostile: Vec<(String, String)> = [
        ("adam_params", "1000000000000"),
        ("adam_params", "18446744073709551615"),
        ("params", "18446744073709551615"),
        ("best_snapshot", "18446744073709551615"),
    ]
    .iter()
    .map(|(key, n)| {
        let payload = edit_line(&real, line_of(&format!("{key} ")), |_| {
            Some(format!("{key} {n}"))
        });
        (format!("{key} {n}"), payload)
    })
    .collect();
    hostile.push((
        "m 4294967296 4294967296".into(),
        edit_line(&real, line_of("m "), |_| {
            Some("m 4294967296 4294967296".into())
        }),
    ));
    for (label, payload) in &hostile {
        match load(label, payload) {
            Err(CheckpointError::Record(RecordError::Malformed(_))) => {}
            other => panic!(
                "{label}: expected a malformed-checkpoint error, got {:?}",
                other.map(|_| "a checkpoint")
            ),
        }
    }

    // Payloads that parse but do not fit the model: resume refuses them as
    // incompatible and leaves every parameter untouched.
    let moment = real
        .lines()
        .position(|l| {
            let d: Vec<&str> = l.split(' ').collect();
            d.len() == 3 && d[0] == "m" && d[1] != d[2]
        })
        .expect("a non-square adam moment");
    let adam_params: usize = real
        .lines()
        .nth(line_of("adam_params "))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|n| n.parse().ok())
        .unwrap();
    let snapshot = line_of("best_snapshot ");
    let snapshots: usize = real
        .lines()
        .nth(snapshot)
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|n| n.parse().ok())
        .expect("two epochs leave a best snapshot");
    let without = |lines: std::ops::Range<usize>, count_line: usize, key: &str, n: usize| {
        real.lines()
            .enumerate()
            .filter(|(k, _)| !lines.contains(k))
            .map(|(k, l)| {
                if k == count_line {
                    format!("{key} {}\n", n - 1)
                } else {
                    format!("{l}\n")
                }
            })
            .collect::<String>()
    };
    let params_line = line_of("params ");
    let slots_line = line_of("epoch_slots ");
    let misfits = [
        (
            "permuted moment dims",
            edit_line(&real, moment, |l| {
                let d: Vec<&str> = l.split(' ').collect();
                Some(format!("m {} {}", d[2], d[1]))
            }),
        ),
        (
            "one adam moment pair short",
            without(
                params_line - 4..params_line,
                line_of("adam_params "),
                "adam_params",
                adam_params,
            ),
        ),
        (
            "one best-snapshot tensor short",
            without(
                snapshot + 2 * snapshots - 1..snapshot + 2 * snapshots + 1,
                snapshot,
                "best_snapshot",
                snapshots,
            ),
        ),
        (
            "epoch slot outside the training split",
            edit_line(&real, slots_line, |l| {
                let mut w: Vec<String> = l.split(' ').map(str::to_string).collect();
                w[2] = "999999".into();
                Some(w.join(" "))
            }),
        ),
    ];
    for (label, payload) in &misfits {
        assert!(load(label, payload).is_ok(), "{label}: must parse");
        let mut victim = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        let before = param_bits(&victim);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            trainer.resume_from(&path, &mut victim, &data)
        }));
        let result = outcome.unwrap_or_else(|_| panic!("{label}: resume panicked"));
        let err = result.expect_err(label);
        assert!(
            err.to_string().contains("incompatible checkpoint"),
            "{label}: expected an incompatible-checkpoint error, got {err}"
        );
        assert_eq!(before, param_bits(&victim), "{label}: partially loaded");
    }

    // Seeded mutations of the real payload, CRC recomputed: each loads or
    // fails typed.
    let mut rng = StdRng::seed_from_u64(0x5eed_c4e7);
    let (mut loaded, mut refused) = (0, 0);
    for case in 0..256 {
        match load(&format!("mutation {case}"), &mutate(&real, &mut rng)) {
            Ok(_) => loaded += 1,
            Err(_) => refused += 1,
        }
    }
    assert!(
        refused > 0 && loaded > 0,
        "mutations should both load and fail: {loaded} loaded, {refused} refused"
    );
}

/// Every hostile variant of one real record, as `(label, bytes)`: random
/// bytes, every truncation, 512 seeded single-bit flips, and 256 CRC-valid
/// [`mutate`]d payloads.
fn hostile_variants(real: &[u8], magic: &str, seed: u64) -> Vec<(String, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = Vec::new();
    for i in 0..64 {
        let len = rng.gen_range(0..2 * real.len());
        let bytes = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
        cases.push((format!("random bytes {i}"), bytes));
    }
    for cut in 0..real.len() {
        cases.push((format!("cut at {cut}"), real[..cut].to_vec()));
    }
    for i in 0..512 {
        let mut bytes = real.to_vec();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 1 << rng.gen_range(0..8);
        cases.push((format!("bit flip {i} at byte {at}"), bytes));
    }
    let payload = payload_of(real);
    for i in 0..256 {
        let mutated = mutate(&payload, &mut rng);
        cases.push((
            format!("mutation {i}"),
            framed_as(magic, mutated.as_bytes()),
        ));
    }
    cases
}

/// Whether a [`hostile_variants`] case, or a hand-made hostile edit, must
/// be refused: a bit flip can land on the case of a hex digit and a mutation
/// or random bytes can stay valid, but a cut or an edit cannot.
fn must_fail(label: &str) -> bool {
    !["bit flip", "mutation", "random"]
        .iter()
        .any(|p| label.starts_with(p))
}

/// Named invariant: HOSTILE-RECORD-IS-TYPED. The loop-state and weights
/// records, and the `STGNN_FAULTS` grammar, turn hostile input — random
/// bytes, every truncation of a real file, seeded bit flips, CRC-valid
/// mutations, hostile counts and dims, NaN bit patterns, non-UTF-8 bytes —
/// into `Ok` or a typed error, never a panic or an abort. A weights load
/// that fails leaves every parameter bit-identical; one that succeeds on a
/// bit-flipped file loaded exactly the real weights; a changed value is a
/// checksum mismatch, and a record whose last parameter misfits sets no
/// parameter at all.
#[test]
fn hostile_records_get_a_typed_error_never_a_panic() {
    let _quiet = scoped(FaultPlan::new());
    let data = dataset(148);
    let config = tiny_config();
    let dir = scratch_dir("hostile-record");

    // Loop state: every variant loads to the real state or fails typed.
    let path = dir.join("loop.state");
    let state = LoopState {
        phase: Phase::Promoted,
        cycle: 3,
        day_cursor: 17,
        graph_epoch: 9,
        incumbent_version: 4,
        candidate_version: Some(5),
    };
    state.save(&path).unwrap();
    let real_state = std::fs::read(&path).unwrap();
    let state_payload = payload_of(&real_state);
    let mut cases = hostile_variants(&real_state, "stgnn-online v1", 0x5eed_57a7);
    for (label, payload) in [
        ("overflowing cycle", "cycle 18446744073709551616"),
        ("overflowing day cursor", "day_cursor 18446744073709551616"),
        ("unknown phase", "phase paused"),
        ("NaN cycle", "cycle NaN"),
        ("negative incumbent", "incumbent -1"),
    ] {
        let key = payload.split(' ').next().unwrap();
        let line = state_payload
            .lines()
            .position(|l| l.starts_with(key))
            .unwrap();
        let edited = edit_line(&state_payload, line, |_| Some(payload.to_string()));
        cases.push((
            label.into(),
            framed_as("stgnn-online v1", edited.as_bytes()),
        ));
    }
    let mut non_utf8 = state_payload.clone().into_bytes();
    non_utf8.insert(6, 0xff);
    cases.push(("non-UTF-8".into(), framed_as("stgnn-online v1", &non_utf8)));
    let (mut loaded, mut refused) = (0, 0);
    for (label, bytes) in &cases {
        std::fs::write(&path, bytes).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| LoopState::load(&path)))
            .unwrap_or_else(|_| panic!("{label}: the loop-state loader panicked"));
        match outcome {
            Ok(Some(s)) => {
                loaded += 1;
                assert!(!must_fail(label), "{label}: loaded {s:?}");
                if label.starts_with("bit flip") {
                    assert_eq!(s, state, "{label}: a flipped bit loaded another state");
                }
            }
            Err(stgnn_djd::online::OnlineError::State(_)) => refused += 1,
            other => panic!("{label}: expected a state or a typed state error, got {other:?}"),
        }
    }
    assert!(
        loaded > 0 && refused > 0,
        "{loaded} loaded, {refused} refused"
    );

    // Weights: every variant loads or fails typed, and a failure touches
    // no parameter.
    let model = |seed_offset: u64| {
        let mut c = config.clone();
        c.seed += seed_offset;
        StgnnDjd::new(c, data.n_stations()).unwrap()
    };
    let real = model(0).weights_to_bytes();
    let real_bits = param_bits(&model(0));
    let payload = payload_of(&real);
    let magic = "stgnn-params v2";
    let mut target = model(1);
    assert_ne!(param_bits(&target), real_bits);
    let mut load = |label: &str, bytes: &[u8]| {
        let before = param_bits(&target);
        let outcome = catch_unwind(AssertUnwindSafe(|| target.load_weights_from_reader(bytes)))
            .unwrap_or_else(|_| panic!("{label}: the weights loader panicked"));
        if let Err(e) = &outcome {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{label}: {e}");
            assert_eq!(before, param_bits(&target), "{label}: partially loaded");
        }
        outcome.map(|()| param_bits(&target))
    };
    assert_eq!(load("real", &real).unwrap(), real_bits);

    let mut cases = hostile_variants(&real, magic, 0x5eed_3e16);
    let first_values = 2;
    let nan_row = payload
        .lines()
        .nth(first_values)
        .unwrap()
        .split(' ')
        .map(|_| "7fc00000");
    let first_name = payload.lines().nth(1).unwrap().split(' ').next().unwrap();
    for (label, line, edited) in [
        (
            "hostile count",
            0,
            "params 18446744073709551615".to_string(),
        ),
        (
            "overflowing dims",
            1,
            format!("{first_name} 4294967296 4294967296"),
        ),
        (
            "NaN bit pattern",
            first_values,
            nan_row.collect::<Vec<_>>().join(" "),
        ),
    ] {
        let edited = edit_line(&payload, line, |_| Some(edited.clone()));
        cases.push((label.into(), framed_as(magic, edited.as_bytes())));
    }
    let mut non_utf8 = payload.clone().into_bytes();
    non_utf8.insert(3, 0xff);
    cases.push(("non-UTF-8".into(), framed_as(magic, &non_utf8)));
    let (mut loaded, mut refused) = (0, 0);
    for (label, bytes) in &cases {
        match load(label, bytes) {
            Ok(bits) => {
                loaded += 1;
                assert!(!must_fail(label), "{label}: loaded");
                if label.starts_with("bit flip") {
                    assert_eq!(
                        bits, real_bits,
                        "{label}: a flipped bit loaded other weights"
                    );
                }
            }
            Err(e) => {
                refused += 1;
                assert!(
                    !label.starts_with("NaN") || e.to_string().contains("non-finite"),
                    "{e}"
                );
            }
        }
    }
    assert!(
        loaded > 0 && refused > 0,
        "{loaded} loaded, {refused} refused"
    );

    // One value character changed: a checksum mismatch, not other weights.
    let mut changed = real.clone();
    let at = changed.len() - 2;
    changed[at] = if changed[at] == b'0' { b'1' } else { b'0' };
    let err = load("one value character changed", &changed).unwrap_err();
    assert!(err.to_string().contains("checksum mismatch"), "{err}");

    // A CRC-valid record whose last parameter misfits the model sets no
    // parameter, the first one included.
    let other = model(2);
    load("other weights", &other.weights_to_bytes()).unwrap();
    let last_header = payload.lines().count() - 2;
    let misfit = edit_line(&payload, last_header, |l| {
        let mut words = l.split(' ');
        let name = words.next().unwrap();
        let len: usize = words.map(|d| d.parse::<usize>().unwrap()).product();
        Some(format!("{name} 1 {len}"))
    });
    assert_ne!(
        misfit.lines().nth(last_header),
        payload.lines().nth(last_header)
    );
    let err = load(
        "last parameter misfits",
        &framed_as(magic, misfit.as_bytes()),
    )
    .unwrap_err();
    assert!(err.to_string().contains("shape mismatch"), "{err}");
    assert_eq!(
        param_bits(&target),
        param_bits(&other),
        "a parameter was overwritten"
    );

    // The STGNN_FAULTS grammar: seeded strings of its own tokens parse to a
    // plan or an error string, never a panic.
    const TOKENS: &[&str] = &[
        ";",
        "=",
        "@",
        ":",
        "io",
        "panic",
        "delay",
        "hit",
        "first",
        "prob",
        "every",
        "NaN",
        "-",
        "0",
        "7",
        "1.5",
        "0.25",
        "18446744073709551616",
        "site::x",
    ];
    let mut rng = StdRng::seed_from_u64(0x5eed_fa17);
    let (mut plans, mut errors) = (0, 0);
    for case in 0..4096 {
        let n = rng.gen_range(0..12);
        let spec: String = (0..n)
            .map(|_| TOKENS[rng.gen_range(0..TOKENS.len())])
            .collect();
        match catch_unwind(|| FaultPlan::parse(&spec)) {
            Ok(Ok(_)) => plans += 1,
            Ok(Err(_)) => errors += 1,
            Err(_) => panic!("case {case}: FaultPlan::parse({spec:?}) panicked"),
        }
    }
    assert!(plans > 0 && errors > 0, "{plans} plans, {errors} errors");
}

// ---------------------------------------------------------------------------
// Online-loop chaos: the crash-safe train-while-serving pipeline.
// ---------------------------------------------------------------------------

/// A 12-day seeded city and an [`OnlineConfig`] whose 8-day window gives the
/// per-cycle fine-tune dataset a 6/1/1 day train/val/test split.
fn online_fixture(label: &str, seed: u64) -> (OnlineConfig, SyntheticCity) {
    let mut city = CityConfig::test_tiny(seed);
    city.days = 12;
    let source = SyntheticCity::generate(city);
    let dir = scratch_dir(label);
    let _ = std::fs::remove_file(dir.join("loop.state"));
    let _ = std::fs::remove_file(dir.join("finetune.ckpt"));
    let config = OnlineConfig {
        model_name: "stgnn".into(),
        window_days: 8,
        dataset: DatasetConfig::small(6, 2),
        train: tiny_config(),
        gate: Default::default(),
        watchdog: Default::default(),
        state_path: dir.join("loop.state"),
        checkpoint_path: dir.join("finetune.ckpt"),
        checkpoint_every: 8,
    };
    (config, source)
}

fn idle_metrics() -> MetricsSnapshot {
    MetricsSnapshot {
        requests: 0,
        cache_hits: 0,
        batched: 0,
        forward_passes: 0,
        fallbacks: 0,
        errors: 0,
        swaps: 0,
        shed: 0,
        queue_depth: 0,
        batch_hist: Vec::new(),
        latency_p50_us: 0,
        latency_p99_us: 0,
    }
}

/// Named invariant: PROMOTE-CRASH-RESUMES. The loop is killed (panic) at the
/// promote seam — after the candidate passed every gate, immediately before
/// the hot-swap. The registry must hold exactly the incumbent (never a torn
/// or half-swapped model), live traffic keeps being answered throughout, and
/// a restarted loop resumes from the persisted `Shadowing` phase to the
/// named `Ingesting` state and promotes atomically on its next cycle.
#[test]
fn promotion_crash_leaves_the_registry_untorn_and_the_loop_resumes() {
    // `OnHit(1)`: the first promotion attempt crashes, the post-restart one
    // sails through — one plan covers the whole scenario.
    let _chaos =
        scoped(FaultPlan::new().with("online::promote", FaultSpec::panic(Trigger::OnHit(1))));
    let (config, source) = online_fixture("online-promote-crash", 147);
    let data = Arc::new(BikeDataset::from_city(&source, DatasetConfig::small(6, 2)).unwrap());
    let mut server = Server::start(Arc::clone(&data), ServeConfig::default()).unwrap();
    let registry = Arc::clone(server.registry());
    let spec = ModelSpec::new(config.train.clone(), data.n_stations());
    let bytes_v1 = spec.materialize().unwrap().weights_to_bytes();
    registry.register("stgnn", spec, bytes_v1.clone()).unwrap();
    let addr = server.addr();
    let t = data.slots(Split::Test)[0];
    let path = format!("/predict?model=stgnn&slot={t}&deadline_ms=30000");

    {
        let mut looper = OnlineLoop::new(config.clone(), Arc::clone(&registry), &source).unwrap();
        for day in 0..7 {
            let outcome = looper.run_cycle().unwrap();
            assert!(
                matches!(outcome, CycleOutcome::WindowFilling { .. }),
                "day {day}: {outcome:?}"
            );
        }
        // Day 8 fills the window: fine-tune, gate, shadow — then die at the
        // promote seam.
        let crash = catch_unwind(AssertUnwindSafe(|| looper.run_cycle()));
        assert!(crash.is_err(), "the promote failpoint did not fire");
    }
    assert_eq!(stgnn_djd::faults::fired("online::promote"), 1);

    // Never torn: exactly the incumbent serves — version 1, the registered
    // bytes, no orphaned pin — and a live request succeeds mid-outage.
    let entry = registry.get("stgnn").unwrap();
    assert_eq!(entry.version(), 1, "registry moved despite the crash");
    assert_eq!(entry.checkpoint().bytes, bytes_v1);
    assert!(!entry.is_pinned(), "crash leaked a shadow-phase pin");
    let during = client::get(addr, &path).unwrap();
    assert_eq!(during.status, 200, "{}", during.body);

    // Restart: the persisted phase names where the loop died, recovery
    // resumes it to `Ingesting`, and the next cycle promotes atomically.
    let mut revived = OnlineLoop::new(config.clone(), Arc::clone(&registry), &source).unwrap();
    assert_eq!(revived.resumed_from(), Some(Phase::Shadowing));
    assert_eq!(revived.state().phase, Phase::Ingesting);
    let outcome = revived.run_cycle().unwrap();
    let CycleOutcome::Promoted { version, .. } = outcome else {
        panic!("expected a promotion after recovery, got {outcome:?}");
    };
    assert_eq!(version, 2);
    let entry = registry.get("stgnn").unwrap();
    assert_eq!(entry.version(), 2);
    assert_eq!(entry.previous_version(), Some(1), "rollback handle missing");
    let after = client::get(addr, &path).unwrap();
    assert_eq!(after.status, 200, "{}", after.body);
    let models = client::get(addr, "/models").unwrap();
    assert!(models.body.contains(r#""version":2"#), "{}", models.body);
    server.shutdown();
}

/// Named invariant: POISONED-CANDIDATE-ROLLS-BACK. A candidate is promoted
/// cleanly, then regresses on live traffic (injected live-RMSE spike). The
/// watchdog restores the incumbent **bit-identically** from the retained
/// handle, and the serve fleet answers every request across promotion and
/// rollback with zero errors.
#[test]
fn poisoned_candidate_rolls_back_bit_identically_with_zero_serve_errors() {
    let _quiet = scoped(FaultPlan::new());
    let (config, source) = online_fixture("online-poisoned", 148);
    let data = Arc::new(BikeDataset::from_city(&source, DatasetConfig::small(6, 2)).unwrap());
    let mut server = Server::start(Arc::clone(&data), ServeConfig::default()).unwrap();
    let registry = Arc::clone(server.registry());
    let spec = ModelSpec::new(config.train.clone(), data.n_stations());
    let bytes_v1 = spec.materialize().unwrap().weights_to_bytes();
    registry.register("stgnn", spec, bytes_v1.clone()).unwrap();
    let addr = server.addr();
    let t = data.slots(Split::Test)[0];
    let path = format!("/predict?model=stgnn&slot={t}&deadline_ms=30000");

    let mut looper = OnlineLoop::new(config, Arc::clone(&registry), &source).unwrap();
    let mut promoted = None;
    for _ in 0..9 {
        if let CycleOutcome::Promoted { version, .. } = looper.run_cycle().unwrap() {
            promoted = Some(version);
            break;
        }
    }
    assert_eq!(promoted, Some(2), "loop never promoted a candidate");

    // Load against the promoted candidate.
    for _ in 0..4 {
        let r = client::get(addr, &path).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let baseline = server.metrics_snapshot();

    // The candidate regresses in the wild: inject a live-RMSE spike. The
    // serve-metrics budgets are clean, so it is the RMSE watchdog that fires.
    let now = server.metrics_snapshot();
    let outcome = looper.check_watchdogs(&baseline, &now, 50.0, 1.0).unwrap();
    let CycleOutcome::RolledBack { restored, reason } = outcome else {
        panic!("watchdog did not roll back: {outcome:?}");
    };
    assert_eq!(restored, 1);
    assert!(reason.contains("RMSE watchdog"), "{reason}");

    // Bit-identical restoration: version, bytes, and the consumed handle.
    let entry = registry.get("stgnn").unwrap();
    assert_eq!(entry.version(), 1);
    assert_eq!(
        entry.checkpoint().bytes,
        bytes_v1,
        "rollback must restore the incumbent's exact bytes"
    );
    assert_eq!(entry.previous_version(), None, "handle must be consumed");
    assert_eq!(looper.state().phase, Phase::RolledBack);

    // Traffic keeps flowing across the rollback — not a single error.
    for _ in 0..4 {
        let r = client::get(addr, &path).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let s = server.metrics_snapshot();
    assert_eq!(s.errors, 0, "rollback surfaced serve errors: {s:?}");
    server.shutdown();
}

/// Named invariant: ONLINE-CRASH-ANY-PHASE-RESUMES. For **every** named
/// `online::*` failpoint in turn: kill the loop there, assert the registry
/// holds exactly one coherent model (the incumbent before a promotion, the
/// promoted candidate after — never a torn state), restart, and drive the
/// recovered loop through a full promotion and a watchdog rollback that
/// restores version 1 bit-identically.
#[test]
fn a_crash_at_every_online_failpoint_resumes_to_a_named_state() {
    let sites = [
        "online::ingest",
        "online::refresh",
        "online::finetune",
        "online::gate",
        "online::shadow",
        "online::promote",
        "online::rollback",
    ];
    for site in sites {
        let label = format!("online-{}", site.replace("::", "-"));
        // First hit of the armed seam crashes; the retry after restart
        // passes. All other seams stay live and un-faulted.
        let _chaos = scoped(FaultPlan::new().with(site, FaultSpec::panic(Trigger::OnHit(1))));
        let (mut config, source) = online_fixture(&label, 149);
        // This scenario asserts crash safety, not model quality: lenient
        // gate tolerances make promotion deterministic across seeds (strict
        // gate semantics are covered by the gate unit tests and the
        // POISONED-CANDIDATE scenario).
        config.gate.holdout_tolerance = 10.0;
        config.gate.shadow_tolerance = 10.0;
        let probe = BikeDataset::from_city(&source, config.dataset.clone()).unwrap();
        let registry = Arc::new(ModelRegistry::new(Arc::new(probe)));
        let spec = ModelSpec::new(config.train.clone(), source.registry.len());
        let bytes_v1 = spec.materialize().unwrap().weights_to_bytes();
        registry.register("stgnn", spec, bytes_v1.clone()).unwrap();

        let mut crashed = false;
        {
            let mut looper =
                OnlineLoop::new(config.clone(), Arc::clone(&registry), &source).unwrap();
            for _ in 0..9 {
                match catch_unwind(AssertUnwindSafe(|| looper.run_cycle())) {
                    Ok(Ok(CycleOutcome::Promoted { .. })) => break,
                    Ok(Ok(_)) => continue,
                    Ok(Err(e)) => panic!("{site}: cycle errored instead of crashing: {e}"),
                    Err(_) => {
                        crashed = true;
                        break;
                    }
                }
            }
            if site == "online::rollback" {
                // The rollback seam is only reached via the watchdog after a
                // clean promotion.
                assert!(!crashed, "{site} fired before any rollback");
                let idle = idle_metrics();
                let crash = catch_unwind(AssertUnwindSafe(|| {
                    looper.check_watchdogs(&idle, &idle, 1e9, 1.0)
                }));
                assert!(crash.is_err(), "{site} did not fire");
                crashed = true;
            }
        }
        assert!(crashed, "{site} never crashed the loop");

        // Exactly one coherent model serves: its checkpoint materialises
        // cleanly, and its identity is a named pre/post-promotion version.
        let entry = registry.get("stgnn").unwrap();
        assert!(!entry.is_pinned(), "{site}: crash leaked a pin");
        let ck = entry.checkpoint();
        assert!(
            entry.spec().materialize_with(&ck).is_ok(),
            "{site}: serving checkpoint is torn"
        );
        let expect_promoted = site == "online::rollback";
        assert_eq!(
            entry.version(),
            if expect_promoted { 2 } else { 1 },
            "{site}: unexpected serving version after crash"
        );

        // Restart: recovery lands on the named resume state for the phase
        // the loop died in, and the loop then makes real progress.
        let mut revived = OnlineLoop::new(config, Arc::clone(&registry), &source).unwrap();
        assert!(revived.resumed_from().is_some(), "{site}: state file lost");
        if expect_promoted {
            assert_eq!(revived.state().phase, Phase::Promoted, "{site}");
        } else {
            assert_eq!(revived.state().phase, Phase::Ingesting, "{site}");
            let mut promoted = false;
            let mut outcomes = Vec::new();
            for _ in 0..9 {
                let outcome = revived.run_cycle().unwrap();
                if let CycleOutcome::Promoted { version, .. } = outcome {
                    assert_eq!(version, 2, "{site}");
                    promoted = true;
                    break;
                }
                outcomes.push(format!("{outcome:?}"));
            }
            assert!(
                promoted,
                "{site}: recovered loop never promoted: {outcomes:?}"
            );
        }

        // Finally the watchdog path: rollback restores version 1 with the
        // registered bytes, bit for bit — after a crash at any seam.
        let idle = idle_metrics();
        let outcome = revived.check_watchdogs(&idle, &idle, 1e9, 1.0).unwrap();
        assert!(
            matches!(outcome, CycleOutcome::RolledBack { restored: 1, .. }),
            "{site}: {outcome:?}"
        );
        let entry = registry.get("stgnn").unwrap();
        assert_eq!(entry.version(), 1, "{site}");
        assert_eq!(
            entry.checkpoint().bytes,
            bytes_v1,
            "{site}: rollback not bit-identical"
        );
    }
}
