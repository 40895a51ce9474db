//! The slot table: the one place that decides whether a prediction is
//! ready, is being computed, or must be computed.
//!
//! A prediction for slot `t` is a pure function of `(model, checkpoint
//! version, t)`: the input windows end strictly before `t`, a server's
//! dataset is fixed when it starts, and the registry never issues one
//! version number twice, so a version names exactly one set of weights.
//! Entries therefore never go stale; a hot-swap changes the version
//! component and abandons the old entries, which eviction then reclaims.
//!
//! Each key maps to `Ready(prediction)` or `Pending(waiters)`. The request
//! that finds a key absent makes it pending and queues the one job that
//! computes it; every later request for the key joins the waiters until
//! the job finishes, then reads the ready prediction. No reply is sent
//! while the table lock is held.

use crate::batch::BatchReply;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use stgnn_data::predictor::Prediction;

/// Table key: model name, checkpoint version, target slot.
pub(crate) type SlotKey = (String, u64, usize);

/// A computed multi-step prediction (element `h` forecasts slot `t + h`).
pub type CachedPrediction = Arc<Vec<Prediction>>;

/// Ready entries the table keeps; pending entries are never evicted.
const CAPACITY: usize = 256;

enum Entry {
    Ready(CachedPrediction),
    Pending(Vec<Sender<BatchReply>>),
}

/// What [`SlotTable::enter`] did with a request.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Entered {
    /// The prediction was ready and has been sent.
    Answered,
    /// The key is being computed; the request joined its waiters.
    Waiting,
    /// The key was absent and is now pending on this request: the caller
    /// must queue the one job that computes it.
    Claimed,
}

/// Map from [`SlotKey`] to a ready prediction or the requests waiting on
/// one, holding at most [`CAPACITY`] ready entries.
#[derive(Default)]
pub(crate) struct SlotTable {
    map: Mutex<HashMap<SlotKey, Entry>>,
}

impl SlotTable {
    /// Routes a request for `key` that is answered on `respond`.
    pub(crate) fn enter(&self, key: &SlotKey, respond: Sender<BatchReply>) -> Entered {
        let ready = {
            let mut map = self.map.lock();
            match map.get_mut(key) {
                Some(Entry::Ready(p)) => Arc::clone(p),
                Some(Entry::Pending(waiters)) => {
                    waiters.push(respond);
                    return Entered::Waiting;
                }
                None => {
                    map.insert(key.clone(), Entry::Pending(vec![respond]));
                    return Entered::Claimed;
                }
            }
        };
        // The requester may have given up (deadline); that is fine.
        let _ = respond.send(Ok(ready));
        Entered::Answered
    }

    /// Ends `key`'s computation: a prediction becomes ready (evicting the
    /// oldest slot, then the lowest version, among the ready entries when
    /// the table is full), an error stores nothing. Returns the key's
    /// waiters, for the caller to answer once the lock has dropped.
    pub(crate) fn finish(&self, key: &SlotKey, reply: &BatchReply) -> Vec<Sender<BatchReply>> {
        let mut map = self.map.lock();
        let waiters = match map.remove(key) {
            Some(Entry::Pending(waiters)) => waiters,
            _ => Vec::new(),
        };
        if let Ok(p) = reply {
            let ready = || {
                map.iter()
                    .filter(|(_, e)| matches!(e, Entry::Ready(_)))
                    .map(|(k, _)| k)
            };
            let victim = (ready().count() >= CAPACITY)
                .then(|| ready().min_by_key(|(_, v, t)| (*t, *v)).cloned())
                .flatten();
            if let Some(victim) = victim {
                map.remove(&victim);
            }
            map.insert(key.clone(), Entry::Ready(Arc::clone(p)));
        }
        waiters
    }

    /// The ready prediction for `key`, if any.
    #[cfg(test)]
    pub(crate) fn ready(&self, key: &SlotKey) -> Option<CachedPrediction> {
        match self.map.lock().get(key) {
            Some(Entry::Ready(p)) => Some(Arc::clone(p)),
            _ => None,
        }
    }

    /// Entries of either kind.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver};

    fn pred(v: f32) -> BatchReply {
        Ok(Arc::new(vec![Prediction {
            demand: vec![v],
            supply: vec![v],
        }]))
    }

    fn key(name: &str, version: u64, slot: usize) -> SlotKey {
        (name.to_string(), version, slot)
    }

    /// Enters a request for `key` and returns what happened and its reply
    /// channel.
    fn enter(table: &SlotTable, key: &SlotKey) -> (Entered, Receiver<BatchReply>) {
        let (tx, rx) = channel();
        (table.enter(key, tx), rx)
    }

    /// Computes `key` for one request and stores `value` for it.
    fn compute(table: &SlotTable, key: &SlotKey, value: f32) {
        assert_eq!(enter(table, key).0, Entered::Claimed);
        assert_eq!(table.finish(key, &pred(value)).len(), 1);
    }

    /// Computes version-1 slots `first..first + count`.
    fn fill(table: &SlotTable, first: usize, count: usize) {
        for t in first..first + count {
            compute(table, &key("m", 1, t), t as f32);
        }
    }

    #[test]
    fn inserts_and_hits_by_exact_key() {
        let table = SlotTable::default();
        compute(&table, &key("m", 1, 100), 1.0);
        let (entered, rx) = enter(&table, &key("m", 1, 100));
        assert_eq!(entered, Entered::Answered);
        assert_eq!(rx.try_recv().unwrap().unwrap()[0].demand[0], 1.0);
        // A different version, slot or model misses.
        for other in [key("m", 2, 100), key("m", 1, 101), key("other", 1, 100)] {
            assert!(table.ready(&other).is_none());
            assert_eq!(enter(&table, &other).0, Entered::Claimed);
        }
    }

    #[test]
    fn eviction_prefers_oldest_slot() {
        let table = SlotTable::default();
        fill(&table, 10, CAPACITY + 1); // the last one evicts slot 10
        assert_eq!(table.len(), CAPACITY);
        assert!(table.ready(&key("m", 1, 10)).is_none());
        assert!(table.ready(&key("m", 1, 11)).is_some());
        assert!(table.ready(&key("m", 1, 10 + CAPACITY)).is_some());
    }

    #[test]
    fn superseded_version_evicted_before_newer() {
        let table = SlotTable::default();
        compute(&table, &key("m", 2, 10), 2.0);
        compute(&table, &key("m", 1, 10), 1.0);
        fill(&table, 11, CAPACITY - 1); // the last one evicts (v1, slot 10)
        assert!(table.ready(&key("m", 1, 10)).is_none());
        assert!(table.ready(&key("m", 2, 10)).is_some());
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let table = SlotTable::default();
        fill(&table, 10, CAPACITY);
        assert!(table.finish(&key("m", 1, 11), &pred(9.0)).is_empty());
        assert_eq!(table.len(), CAPACITY);
        assert_eq!(table.ready(&key("m", 1, 11)).unwrap()[0].demand[0], 9.0);
        assert!(table.ready(&key("m", 1, 10)).is_some());
    }

    #[test]
    fn a_pending_entry_is_never_evicted() {
        let table = SlotTable::default();
        // The pending key holds the oldest slot in the table.
        let pending = key("m", 1, 0);
        assert_eq!(enter(&table, &pending).0, Entered::Claimed);
        fill(&table, 10, CAPACITY + 1);
        // The oldest *ready* slot went instead.
        assert!(table.ready(&key("m", 1, 10)).is_none());
        assert_eq!(enter(&table, &pending).0, Entered::Waiting);
        assert_eq!(table.finish(&pending, &pred(5.0)).len(), 2);
        assert!(table.ready(&pending).is_some());
    }
}
