//! Crash-safe training checkpoints.
//!
//! A [`TrainCheckpoint`] freezes *everything* a training run threads from
//! one batch to the next: the loop's [`RunState`] (epoch/batch cursor, the
//! current epoch's shuffled slot order and partial loss accumulator, the
//! shuffle RNG, the loss histories and the early-stopping state), plus the
//! parameter values, Adam's moment estimates and step counter, and the
//! dropout RNG. Restoring it makes the resumed run **bit-identical** to one
//! that was never interrupted — asserted by the chaos suite down to every
//! parameter gradient.
//!
//! ## On-disk format (`stgnn-ckpt v2`)
//!
//! A record of the shared format (`stgnn_faults::fsio`): the magic line,
//! a `crc32 … len …` header, then a payload of `key value` lines, with the
//! tensors as `stgnn_tensor::serialize` writes them. Truncation, bit-flips,
//! version skew and structural damage each map to a typed
//! [`CheckpointError`] — never a panic, never a partial load. Every float is
//! stored as its IEEE-754 bit pattern in hex (`f32`→8 digits, `f64`→16),
//! because bitwise resume fidelity is the whole point. Files are written
//! via `stgnn_faults::fsio::atomic_write`, so a crash mid-write leaves the
//! previous checkpoint intact.
//!
//! `v2` differs from `v1` only in the fingerprint's graph section, which
//! now hashes each slot's trip-count entries instead of the dense flow
//! matrices. A `v1` file is therefore refused as version skew rather than
//! reported as a refreshed graph.

use rand::rngs::StdRng;
use std::fmt::{self, Write as _};
use std::path::Path;
use stgnn_faults::fsio::{
    atomic_write, decimal, f32_bits, f64_bits, fnv1a, frame, push_list, push_rng, rng_words,
    unframe, Bits, Fields, RecordError, FNV_OFFSET,
};
use stgnn_tensor::optim::AdamState;
use stgnn_tensor::serialize::{parse_params, parse_tensor, push_params, push_tensor};
use stgnn_tensor::Tensor;

const MAGIC: &str = "stgnn-ckpt v2";

/// Why a checkpoint could not be loaded. `resume_from` surfaces these as
/// typed errors so callers (and the corruption tests) can tell apart
/// recoverable situations (retry another file) from operator errors (wrong
/// version / wrong run).
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure reading or writing the file.
    Io(std::io::Error),
    /// The file is not an intact `stgnn-ckpt v2` record: torn, bit-rotted,
    /// another version, or a payload that does not parse.
    Record(RecordError),
    /// A well-formed checkpoint from a *different run*: configuration
    /// fingerprint or parameter structure does not match the model being
    /// resumed.
    Incompatible(String),
    /// Configuration and parameter structure match, but the FCG/PCG graph
    /// topology hashes do not: the data-driven graphs were refreshed after
    /// the checkpoint was taken. Resuming would silently reuse Adam moments
    /// accumulated against the *old* edges — the caller must warm-start
    /// from the weights with a fresh optimizer instead.
    GraphMismatch {
        /// The graph-hash part of the checkpoint's fingerprint.
        expected: String,
        /// The graph-hash part of the resuming run's fingerprint.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Record(e) => write!(f, "checkpoint {e}"),
            CheckpointError::Incompatible(msg) => write!(f, "incompatible checkpoint: {msg}"),
            CheckpointError::GraphMismatch { expected, found } => write!(
                f,
                "graph topology mismatch: checkpoint was taken against {expected}, \
                 current data is {found} — the FCG/PCG edges were refreshed; \
                 warm-start from the weights with a fresh optimizer instead of resuming"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Record(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<RecordError> for CheckpointError {
    fn from(e: RecordError) -> Self {
        CheckpointError::Record(e)
    }
}

impl From<CheckpointError> for stgnn_data::error::Error {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(io) => stgnn_data::error::Error::Io(io),
            other => stgnn_data::error::Error::InvalidConfig(other.to_string()),
        }
    }
}

/// The state the training loop threads from one batch to the next, apart
/// from the model (parameters, dropout RNG) and the optimizer.
/// `Trainer::run` changes it in place; a checkpoint stores a clone of it.
#[derive(Debug, Clone)]
pub struct RunState {
    /// Epoch the run is inside (0-based).
    pub epoch: usize,
    /// Index of the next batch to run within [`Self::epoch_slots`]. 0 with
    /// an empty slot order means "at the top of `epoch`, not yet shuffled".
    pub next_batch: usize,
    /// The epoch's partial loss accumulator (stored as `f64` bits).
    pub epoch_loss: f64,
    /// The current epoch's shuffled (and truncated) slot order.
    pub epoch_slots: Vec<usize>,
    /// The shuffle RNG, advanced past the current epoch's shuffle.
    pub shuffle_rng: StdRng,
    /// Mean training loss of each completed epoch.
    pub train_losses: Vec<f32>,
    /// Validation loss of each completed epoch.
    pub val_losses: Vec<f32>,
    /// Best validation loss so far.
    pub best_val_loss: f32,
    /// Epochs since the best validation loss (patience counter).
    pub epochs_since_best: usize,
    /// The best-validation parameter snapshot, if one exists yet.
    pub best_snapshot: Option<Vec<Tensor>>,
}

/// A complete, restorable snapshot of a training run in flight.
pub struct TrainCheckpoint {
    /// Run identity: must match the resuming trainer/model exactly.
    pub fingerprint: String,
    /// The training loop's state where the run stopped.
    pub state: RunState,
    /// The model's dropout RNG.
    pub dropout_rng: StdRng,
    /// Optimizer state (Adam moments + step counter).
    pub adam: AdamState,
    /// Parameter values in registration order, with their names.
    pub params: Vec<(String, Tensor)>,
}

/// Hashes of the data-driven graph structure a training run is anchored
/// to. The paper's FCG mask and PCG attention are **functions of the flow
/// window** — the FCG edge set derives from the inflow/outflow matrices,
/// the PCG attention from the demand/supply series — so hashing those
/// inputs identifies the graph topology without materialising per-slot
/// edge sets. The matrices go in as each slot's nonzero trip-count entries
/// behind their number, which marks where one slot ends and the next
/// begins: `O(trips)` work, not `O(n²·slots)`.
///
/// Participates in [`fingerprint`]: a checkpoint taken before an online
/// edge refresh no longer matches the refreshed run, and `resume_from`
/// surfaces the difference as the typed
/// [`CheckpointError::GraphMismatch`] instead of silently reusing Adam
/// moments accumulated against the old edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphTopology {
    /// FNV-1a over the flow matrices' entries (FCG edge inputs), slot by
    /// slot, and their dims.
    pub fcg: u64,
    /// FNV-1a over the demand/supply series (PCG attention inputs).
    pub pcg: u64,
}

impl GraphTopology {
    /// Computes both hashes from the dataset the run trains on. Exact: the
    /// counts are hashed as integers and demand/supply as IEEE-754 bit
    /// patterns, so two datasets collide only if their graph-defining
    /// inputs are identical.
    pub fn of(data: &stgnn_data::dataset::BikeDataset) -> GraphTopology {
        let flows = data.flows();
        let n = flows.n_stations();
        let dims = [
            n as u64,
            flows.slots_per_day() as u64,
            flows.num_slots() as u64,
        ];
        let mut fcg = FNV_OFFSET;
        let mut pcg = FNV_OFFSET;
        for d in dims {
            fcg = fnv1a(fcg, &d.to_le_bytes());
            pcg = fnv1a(pcg, &d.to_le_bytes());
        }
        for t in 0..flows.num_slots() {
            for entries in [flows.inflow(t), flows.outflow(t)] {
                fcg = fnv1a(fcg, &(entries.len() as u64).to_le_bytes());
                for word in entries.iter().flat_map(|e| [e.origin, e.dest, e.count]) {
                    fcg = fnv1a(fcg, &word.to_le_bytes());
                }
            }
            for v in flows.demand_at(t).iter().chain(flows.supply_at(t)) {
                pcg = fnv1a(pcg, &v.to_bits().to_le_bytes());
            }
        }
        GraphTopology { fcg, pcg }
    }
}

/// The marker that opens the graph-topology section of a fingerprint; the
/// prefix before it is the configuration/architecture identity.
pub const GRAPH_FINGERPRINT_MARKER: &str = " fcg_topo=";

/// Splits a fingerprint into its (config/architecture, graph-topology)
/// parts. Fingerprints written before the graph section existed split into
/// `(whole, "")`.
pub fn split_fingerprint(fp: &str) -> (&str, &str) {
    match fp.find(GRAPH_FINGERPRINT_MARKER) {
        Some(i) => (&fp[..i], &fp[i..]),
        None => (fp, ""),
    }
}

/// A config/model identity string. Every field that shapes the parameter
/// set or the training trajectory participates; floats go in as bit
/// patterns so the comparison is exact. The trailing
/// `fcg_topo=…/pcg_topo=…` section anchors the run to the data-driven
/// graph topology (see [`GraphTopology`]).
pub fn fingerprint(
    config: &crate::config::StgnnConfig,
    n_stations: usize,
    n_params: usize,
    topology: &GraphTopology,
) -> String {
    format!(
        "k={} d={} fcg={} pcg={} heads={} dropout={:08x} lr={:08x} bs={} epochs={} patience={} mbpe={:?} seed={} flow_conv={} use_fcg={} use_pcg={} fcg_agg={:?} pcg_agg={:?} hidden={:?} horizon={} stations={} params={}{GRAPH_FINGERPRINT_MARKER}{:016x} pcg_topo={:016x}",
        config.k,
        config.d,
        config.fcg_layers,
        config.pcg_layers,
        config.heads,
        config.dropout.to_bits(),
        config.learning_rate.to_bits(),
        config.batch_size,
        config.epochs,
        config.patience,
        config.max_batches_per_epoch,
        config.seed,
        config.use_flow_conv,
        config.use_fcg,
        config.use_pcg,
        config.fcg_aggregator,
        config.pcg_aggregator,
        config.predictor_hidden,
        config.horizon,
        n_stations,
        n_params,
        topology.fcg,
        topology.pcg,
    )
}

impl TrainCheckpoint {
    /// Serialises and writes the checkpoint atomically: the destination
    /// only ever holds the previous complete checkpoint or this one.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        stgnn_faults::failpoint!("checkpoint::write", io);
        let payload = self.to_payload();
        atomic_write(path, |w| frame(w, MAGIC, payload.as_bytes()))?;
        Ok(())
    }

    /// Reads and fully validates a checkpoint file. Any defect — torn
    /// file, bit rot, foreign version, structural damage — is a typed
    /// error; a returned checkpoint is completely parsed.
    pub fn load(path: impl AsRef<Path>) -> Result<TrainCheckpoint, CheckpointError> {
        stgnn_faults::failpoint!("checkpoint::read", io);
        let bytes = std::fs::read(path)?;
        Ok(Self::from_record(unframe(&bytes, MAGIC)?)?)
    }

    fn to_payload(&self) -> String {
        let mut out = String::new();
        let s = &self.state;
        let _ = writeln!(
            out,
            "fingerprint {}\nepoch {}\nnext_batch {}\nepoch_loss {:016x}",
            self.fingerprint,
            s.epoch,
            s.next_batch,
            s.epoch_loss.to_bits()
        );
        push_list(
            &mut out,
            "train_losses",
            s.train_losses.iter().map(|&v| Bits(v)),
        );
        push_list(
            &mut out,
            "val_losses",
            s.val_losses.iter().map(|&v| Bits(v)),
        );
        let _ = writeln!(
            out,
            "best_val {}\nepochs_since_best {}",
            Bits(s.best_val_loss),
            s.epochs_since_best
        );
        push_list(&mut out, "epoch_slots", s.epoch_slots.iter());
        push_rng(&mut out, "shuffle_rng", s.shuffle_rng.state());
        push_rng(&mut out, "dropout_rng", self.dropout_rng.state());
        let _ = writeln!(
            out,
            "adam_t {}\nadam_params {}",
            self.adam.t,
            self.adam.m.len()
        );
        for (m, v) in self.adam.m.iter().zip(&self.adam.v) {
            push_tensor(&mut out, "m", m);
            push_tensor(&mut out, "v", v);
        }
        push_params(
            &mut out,
            self.params
                .iter()
                .map(|(name, t)| (name.as_str(), t.clone())),
        );
        match &s.best_snapshot {
            None => out.push_str("best_snapshot none\n"),
            Some(snap) => {
                let _ = writeln!(out, "best_snapshot {}", snap.len());
                for t in snap {
                    push_tensor(&mut out, "snap", t);
                }
            }
        }
        out
    }

    fn from_record(mut r: Fields<'_>) -> Result<TrainCheckpoint, RecordError> {
        // Struct fields are evaluated as written: in the payload's order,
        // which ends with the best snapshot.
        let mut checkpoint = TrainCheckpoint {
            fingerprint: r.field("fingerprint")?.to_string(),
            state: RunState {
                epoch: r.value("epoch", decimal)?,
                next_batch: r.value("next_batch", decimal)?,
                epoch_loss: r.value("epoch_loss", f64_bits)?,
                train_losses: r.list("train_losses", f32_bits)?,
                val_losses: r.list("val_losses", f32_bits)?,
                best_val_loss: r.value("best_val", f32_bits)?,
                epochs_since_best: r.value("epochs_since_best", decimal)?,
                epoch_slots: r.list("epoch_slots", decimal)?,
                shuffle_rng: StdRng::from_state(r.value("shuffle_rng", rng_words)?),
                best_snapshot: None,
            },
            dropout_rng: StdRng::from_state(r.value("dropout_rng", rng_words)?),
            adam: parse_adam(&mut r)?,
            params: parse_params(&mut r)?,
        };
        checkpoint.state.best_snapshot = parse_snapshot(&mut r)?;
        r.finish()?;
        Ok(checkpoint)
    }
}

// Counts come from the file: nothing is sized from them up front. Each
// entry is parsed from lines that must be present, so a hostile count ends
// the loop at the end of the payload instead.

fn parse_adam(r: &mut Fields<'_>) -> Result<AdamState, RecordError> {
    let t = r.value("adam_t", decimal)?;
    let n: usize = r.value("adam_params", decimal)?;
    let (mut m, mut v) = (Vec::new(), Vec::new());
    for i in 0..n {
        for (key, moments) in [("m", &mut m), ("v", &mut v)] {
            let (name, moment) = parse_tensor(r, &format!("adam {key}[{i}]"))?;
            if name != key {
                return Err(RecordError::Malformed(format!(
                    "expected adam moment {key:?}, found {name:?}"
                )));
            }
            moments.push(moment);
        }
    }
    Ok(AdamState { t, m, v })
}

fn parse_snapshot(r: &mut Fields<'_>) -> Result<Option<Vec<Tensor>>, RecordError> {
    let Some(n) = r.value("best_snapshot", |n| match n {
        "none" => Some(None),
        n => decimal::<usize>(n).map(Some),
    })?
    else {
        return Ok(None);
    };
    let mut snapshot = Vec::new();
    for i in 0..n {
        snapshot.push(parse_tensor(r, &format!("snapshot[{i}]"))?.1);
    }
    Ok(Some(snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgnn_faults::fsio::crc32;
    use stgnn_tensor::shape::Shape;

    fn tmp(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("stgnn-ckpt-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("train.ckpt")
    }

    /// A checkpoint with deliberately awkward float bit patterns: a quiet
    /// NaN payload, negative zero, subnormals — all of which a decimal
    /// round-trip would destroy.
    fn sample() -> TrainCheckpoint {
        let t = |data: Vec<f32>| Tensor::from_vec(Shape::vector(data.len()), data).unwrap();
        TrainCheckpoint {
            fingerprint: "k=6 d=2 test fingerprint".into(),
            state: RunState {
                epoch: 3,
                next_batch: 7,
                epoch_loss: 12.34567890123_f64,
                epoch_slots: vec![9, 2, 14, 0, 5],
                shuffle_rng: StdRng::from_state([1, u64::MAX, 0xdead_beef, 42]),
                train_losses: vec![1.5, f32::from_bits(0x7fc0_0001), -0.0],
                val_losses: vec![1.25, f32::from_bits(1)],
                best_val_loss: 1.25,
                epochs_since_best: 1,
                best_snapshot: Some(vec![t(vec![0.5, 0.25, 0.125])]),
            },
            dropout_rng: StdRng::from_state([7, 8, 9, 10]),
            adam: AdamState {
                t: 99,
                m: vec![t(vec![0.1, -0.2]), t(vec![3.0])],
                v: vec![t(vec![0.01, 0.02]), t(vec![0.5])],
            },
            params: vec![
                ("layer.w".into(), t(vec![1.0, 2.0, -3.5])),
                ("layer.b".into(), t(vec![f32::NEG_INFINITY])),
            ],
        }
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        let (a, b): (Vec<u32>, Vec<u32>) = (
            a.data().iter().map(|v| v.to_bits()).collect(),
            b.data().iter().map(|v| v.to_bits()).collect(),
        );
        assert_eq!(a, b);
    }

    /// `save()` crosses the `checkpoint::write` failpoint; tests that call
    /// it hold the global fault guard (with an empty plan) so they cannot
    /// race a concurrent fault-injecting test in this binary.
    fn no_faults() -> stgnn_faults::ScopedPlan {
        stgnn_faults::scoped(stgnn_faults::FaultPlan::new())
    }

    #[test]
    fn round_trips_bit_for_bit() {
        let _quiet = no_faults();
        let path = tmp("roundtrip");
        let ck = sample();
        ck.save(&path).unwrap();
        let back = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(back.fingerprint, ck.fingerprint);
        let (bs, cs) = (&back.state, &ck.state);
        assert_eq!(bs.epoch, cs.epoch);
        assert_eq!(bs.next_batch, cs.next_batch);
        assert_eq!(bs.epoch_loss.to_bits(), cs.epoch_loss.to_bits());
        assert_eq!(bs.epoch_slots, cs.epoch_slots);
        assert_eq!(bs.shuffle_rng.state(), cs.shuffle_rng.state());
        assert_eq!(back.dropout_rng.state(), ck.dropout_rng.state());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&bs.train_losses), bits(&cs.train_losses));
        assert_eq!(bits(&bs.val_losses), bits(&cs.val_losses));
        assert_eq!(bs.best_val_loss.to_bits(), cs.best_val_loss.to_bits());
        assert_eq!(bs.epochs_since_best, cs.epochs_since_best);
        assert_eq!(back.adam.t, ck.adam.t);
        for (a, b) in back.adam.m.iter().zip(&ck.adam.m) {
            assert_bits_eq(a, b);
        }
        for (a, b) in back.adam.v.iter().zip(&ck.adam.v) {
            assert_bits_eq(a, b);
        }
        for ((an, at), (bn, bt)) in back.params.iter().zip(&ck.params) {
            assert_eq!(an, bn);
            assert_bits_eq(at, bt);
        }
        for (a, b) in bs
            .best_snapshot
            .as_ref()
            .unwrap()
            .iter()
            .zip(cs.best_snapshot.as_ref().unwrap())
        {
            assert_bits_eq(a, b);
        }
    }

    #[test]
    fn save_then_overwrite_keeps_latest() {
        let _quiet = no_faults();
        let path = tmp("overwrite");
        let mut ck = sample();
        ck.save(&path).unwrap();
        ck.state.epoch = 5;
        ck.save(&path).unwrap();
        assert_eq!(TrainCheckpoint::load(&path).unwrap().state.epoch, 5);
    }

    #[test]
    fn truncated_file_is_typed_not_a_panic() {
        let _quiet = no_faults();
        let path = tmp("truncated");
        sample().save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut the payload short while keeping both header lines intact.
        std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
        match TrainCheckpoint::load(&path) {
            Err(CheckpointError::Record(RecordError::Truncated { expected, actual })) => {
                assert!(actual < expected, "{actual} vs {expected}")
            }
            other => panic!("expected Truncated, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn bit_flip_is_checksum_mismatch() {
        let _quiet = no_faults();
        let path = tmp("bitflip");
        sample().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit in the middle of the payload (well past the headers).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(CheckpointError::Record(
                RecordError::ChecksumMismatch { .. }
            ))
        ));
    }

    /// Another version is typed skew. That includes a `v1` file, whose
    /// graph section hashed the dense flow matrices and so can never match a
    /// `v2` run: it is refused before its payload is read, not reported as
    /// a refreshed graph.
    #[test]
    fn version_skew_is_typed() {
        let path = tmp("skew");
        sample().save(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        let v1 = [b"stgnn-ckpt v1".as_slice(), &saved[MAGIC.len()..]].concat();
        let v99 = b"stgnn-ckpt v99\ncrc32 00000000 len 0\n".to_vec();
        for (bytes, magic) in [(v99, "stgnn-ckpt v99"), (v1, "stgnn-ckpt v1")] {
            std::fs::write(&path, bytes).unwrap();
            match TrainCheckpoint::load(&path) {
                Err(CheckpointError::Record(RecordError::VersionSkew { found })) => {
                    assert_eq!(found, magic)
                }
                other => panic!("expected VersionSkew, got {other:?}", other = other.err()),
            }
        }
    }

    #[test]
    fn garbage_and_missing_files_are_typed() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a checkpoint\nmore junk\n").unwrap();
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(CheckpointError::Record(RecordError::Malformed(_)))
        ));
        assert!(matches!(
            TrainCheckpoint::load(tmp("no-such").join("missing")),
            Err(CheckpointError::Io(_))
        ));
    }

    /// A passing checksum over a structurally damaged payload must still be
    /// rejected (Malformed), proving the parser validates structure beyond
    /// the CRC.
    #[test]
    fn structurally_damaged_payload_with_valid_crc_is_malformed() {
        let path = tmp("structural");
        let payload = b"fingerprint x\nepoch notanumber\n";
        let crc = crc32(payload);
        let mut bytes = format!("{MAGIC}\ncrc32 {crc:08x} len {}\n", payload.len()).into_bytes();
        bytes.extend_from_slice(payload);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(CheckpointError::Record(RecordError::Malformed(_)))
        ));
    }

    #[test]
    fn injected_write_fault_propagates_as_io() {
        let _guard = stgnn_faults::scoped(stgnn_faults::FaultPlan::new().with(
            "checkpoint::write",
            stgnn_faults::FaultSpec::io(stgnn_faults::Trigger::EveryHit),
        ));
        let path = tmp("fault");
        assert!(matches!(sample().save(&path), Err(CheckpointError::Io(_))));
    }

    fn tiny_dataset(seed: u64) -> stgnn_data::dataset::BikeDataset {
        use stgnn_data::dataset::{BikeDataset, DatasetConfig};
        use stgnn_data::synthetic::{CityConfig, SyntheticCity};
        let city = SyntheticCity::generate(CityConfig::test_tiny(seed));
        BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap()
    }

    #[test]
    fn graph_topology_is_deterministic_and_flow_sensitive() {
        let a = GraphTopology::of(&tiny_dataset(7));
        let a2 = GraphTopology::of(&tiny_dataset(7));
        assert_eq!(a, a2, "same trips must hash identically");
        let b = GraphTopology::of(&tiny_dataset(8));
        // A different trip stream perturbs both the flow matrices (FCG
        // inputs) and the demand/supply series (PCG inputs).
        assert_ne!(a.fcg, b.fcg);
        assert_ne!(a.pcg, b.pcg);
    }

    /// One trip picked up and returned within a slot, moved to the next
    /// slot, leaves the same entries in the same order; only the per-slot
    /// entry counts tell the two datasets apart.
    #[test]
    fn moving_a_trip_to_the_next_slot_changes_the_fingerprint() {
        use stgnn_data::dataset::{BikeDataset, DatasetConfig};
        use stgnn_data::synthetic::{CityConfig, SyntheticCity};
        use stgnn_data::{FlowSeries, TripRecord};
        let registry = SyntheticCity::generate(CityConfig::test_tiny(7)).registry;
        let n = registry.len();
        let with_trip_at = |start_min: i64| {
            let trip = TripRecord {
                rid: 1,
                origin: 2,
                dest: 3,
                start_min,
                end_min: start_min + 20,
            };
            let flows = FlowSeries::from_trips(&[trip], n, 10, 24).unwrap();
            BikeDataset::new(flows, registry.clone(), DatasetConfig::small(6, 2)).unwrap()
        };
        // Slot 30 (minutes 1800–1859), then slot 31.
        let a = GraphTopology::of(&with_trip_at(1810));
        let b = GraphTopology::of(&with_trip_at(1870));
        assert_ne!(a.fcg, b.fcg);
        let config = crate::config::StgnnConfig::test_tiny(6, 2);
        assert_ne!(
            fingerprint(&config, n, 1, &a),
            fingerprint(&config, n, 1, &b)
        );
    }

    #[test]
    fn fingerprint_carries_the_graph_section_and_splits_cleanly() {
        let config = crate::config::StgnnConfig::test_tiny(6, 2);
        let topo = GraphTopology {
            fcg: 0xdead_beef,
            pcg: 0x0bad_cafe,
        };
        let fp = fingerprint(&config, 10, 42, &topo);
        let (base, graph) = split_fingerprint(&fp);
        assert!(base.ends_with("stations=10 params=42"), "{base}");
        assert_eq!(
            graph,
            " fcg_topo=00000000deadbeef pcg_topo=000000000badcafe"
        );
        // Pre-graph-section fingerprints (older checkpoints) split whole/"".
        let (legacy_base, legacy_graph) = split_fingerprint("k=6 d=2 test fingerprint");
        assert_eq!(legacy_base, "k=6 d=2 test fingerprint");
        assert_eq!(legacy_graph, "");
    }

    #[test]
    fn graph_mismatch_error_names_both_topologies() {
        let e = CheckpointError::GraphMismatch {
            expected: "fcg_topo=aa pcg_topo=bb".into(),
            found: "fcg_topo=cc pcg_topo=dd".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("graph topology mismatch"), "{msg}");
        assert!(msg.contains("fcg_topo=aa"), "{msg}");
        assert!(msg.contains("fcg_topo=cc"), "{msg}");
        assert!(msg.contains("warm-start"), "{msg}");
    }
}
