//! Crash-safe persistence of the loop's phase machine.
//!
//! The loop's observable promise — "a crash in any phase resumes to a
//! well-defined state" — rests on this file. It is written with
//! `fsio::atomic_write` (so the path only ever holds the previous complete
//! state or the new one, never a torn one) as a record of the shared
//! format (`stgnn_faults::fsio`), `stgnn-online v1`: the magic line, a
//! `crc32 … len …` header, then six `key value` lines. Every defect on
//! read — truncation, bit rot, version skew, a bad field — is a typed
//! [`OnlineError::State`].

use crate::{OnlineError, Result};
use std::fmt;
use std::path::Path;
use stgnn_faults::fsio::{atomic_write, decimal, frame, unframe, RecordError};

/// Format magic; bump on any layout change.
const MAGIC: &str = "stgnn-online v1";

/// The loop's phase. Transitions (driven by [`crate::OnlineLoop`]):
///
/// ```text
/// Ingesting ──► Training ──► Shadowing ──► Promoted ──► RolledBack
///     ▲             │             │            │             │
///     └─────────────┴─(gate/shadow reject)─────┴─(healthy)───┘
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Streaming trips into the window; no candidate exists.
    Ingesting,
    /// Fine-tuning a candidate from the latest checkpoint.
    Training,
    /// Candidate passed the static gates and is serving mirrored traffic.
    Shadowing,
    /// Candidate was hot-swapped into the registry; watchdogs armed.
    Promoted,
    /// A watchdog fired and the incumbent was restored.
    RolledBack,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Ingesting => "ingesting",
            Phase::Training => "training",
            Phase::Shadowing => "shadowing",
            Phase::Promoted => "promoted",
            Phase::RolledBack => "rolled-back",
        }
    }

    fn parse(s: &str) -> Option<Phase> {
        use Phase::*;
        [Ingesting, Training, Shadowing, Promoted, RolledBack]
            .into_iter()
            .find(|p| p.as_str() == s)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything the loop needs to resume after a crash: where it was in the
/// phase machine, how far ingestion got, and which registry versions play
/// the incumbent and candidate roles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopState {
    /// Current phase.
    pub phase: Phase,
    /// Completed promotion cycles.
    pub cycle: u64,
    /// Next absolute day index to ingest.
    pub day_cursor: usize,
    /// Graph epoch of the window backing the current/next candidate.
    pub graph_epoch: u64,
    /// Registry version serving as the incumbent.
    pub incumbent_version: u64,
    /// Registry version of the candidate, once one was promoted.
    pub candidate_version: Option<u64>,
}

impl LoopState {
    /// The state of a loop that has never run.
    pub fn fresh() -> Self {
        LoopState {
            phase: Phase::Ingesting,
            cycle: 0,
            day_cursor: 0,
            graph_epoch: 1,
            incumbent_version: 1,
            candidate_version: None,
        }
    }

    fn to_payload(&self) -> String {
        let candidate = self
            .candidate_version
            .map_or_else(|| "none".into(), |v| v.to_string());
        format!(
            "phase {}\ncycle {}\nday_cursor {}\ngraph_epoch {}\nincumbent {}\ncandidate {}\n",
            self.phase,
            self.cycle,
            self.day_cursor,
            self.graph_epoch,
            self.incumbent_version,
            candidate
        )
    }

    /// Atomically persists the state: the file only ever holds the
    /// previous complete state or this one.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let payload = self.to_payload();
        atomic_write(path, |w| frame(w, MAGIC, payload.as_bytes()))?;
        Ok(())
    }

    /// Loads and fully validates a persisted state. `Ok(None)` means no
    /// state file exists (a fresh start); every other defect is typed.
    pub fn load(path: impl AsRef<Path>) -> Result<Option<LoopState>> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(OnlineError::Io(e)),
        };
        Self::from_record(&bytes)
            .map(Some)
            .map_err(|e| OnlineError::State(e.to_string()))
    }

    /// Reads the six fields in the order [`Self::to_payload`] writes them.
    fn from_record(bytes: &[u8]) -> std::result::Result<LoopState, RecordError> {
        let mut r = unframe(bytes, MAGIC)?;
        let state = LoopState {
            phase: r.value("phase", Phase::parse)?,
            cycle: r.value("cycle", decimal)?,
            day_cursor: r.value("day_cursor", decimal)?,
            graph_epoch: r.value("graph_epoch", decimal)?,
            incumbent_version: r.value("incumbent", decimal)?,
            candidate_version: r.value("candidate", |v| match v {
                "none" => Some(None),
                v => decimal(v).map(Some),
            })?,
        };
        r.finish()?;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("stgnn-online-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("loop.state")
    }

    fn no_faults() -> stgnn_faults::ScopedPlan {
        stgnn_faults::scoped(stgnn_faults::FaultPlan::new())
    }

    fn sample() -> LoopState {
        LoopState {
            phase: Phase::Shadowing,
            cycle: 3,
            day_cursor: 17,
            graph_epoch: 9,
            incumbent_version: 4,
            candidate_version: Some(5),
        }
    }

    #[test]
    fn round_trips_every_phase() {
        let _quiet = no_faults();
        let path = tmp("roundtrip");
        for phase in [
            Phase::Ingesting,
            Phase::Training,
            Phase::Shadowing,
            Phase::Promoted,
            Phase::RolledBack,
        ] {
            let mut s = sample();
            s.phase = phase;
            s.candidate_version = if phase == Phase::Ingesting {
                None
            } else {
                Some(5)
            };
            s.save(&path).unwrap();
            assert_eq!(LoopState::load(&path).unwrap().unwrap(), s);
        }
    }

    #[test]
    fn missing_file_is_a_fresh_start() {
        let path = tmp("missing").with_file_name("never-written.state");
        assert!(LoopState::load(path).unwrap().is_none());
        assert_eq!(LoopState::fresh().phase, Phase::Ingesting);
    }

    #[test]
    fn corruption_is_typed_not_a_panic() {
        let _quiet = no_faults();
        let path = tmp("corrupt");
        sample().save(&path).unwrap();

        // Bit flip in the payload → checksum mismatch.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = LoopState::load(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncation.
        sample().save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        let err = LoopState::load(&path).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        // Version skew.
        std::fs::write(&path, b"stgnn-online v999\ncrc32 0 len 0\n").unwrap();
        let err = LoopState::load(&path).unwrap_err();
        assert!(err.to_string().contains("version skew"), "{err}");
    }

    /// An injected fault at the atomic-write seam must surface as Io and
    /// leave the previous state readable — the crash-safety contract.
    #[test]
    fn failed_save_keeps_previous_state() {
        let path = tmp("atomick");
        {
            let _quiet = no_faults();
            sample().save(&path).unwrap();
        }
        let _chaos = stgnn_faults::scoped(stgnn_faults::FaultPlan::new().with(
            "atomic_write::rename",
            stgnn_faults::FaultSpec::io(stgnn_faults::Trigger::EveryHit),
        ));
        let mut next = sample();
        next.cycle = 99;
        assert!(matches!(next.save(&path), Err(OnlineError::Io(_))));
        drop(_chaos);
        let _quiet = no_faults();
        assert_eq!(LoopState::load(&path).unwrap().unwrap(), sample());
    }
}
