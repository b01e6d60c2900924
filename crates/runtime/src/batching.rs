//! Admission control: coalescing identical in-flight sat-set requests.
//!
//! When several clients ask for the same `(generation, formula)` while
//! the first request is still being evaluated, only the **leader** (the
//! first arrival) submits work to the pool; every later arrival becomes
//! a **follower** holding a one-shot receiver, and the leader broadcasts
//! its outcome to all of them on completion. Combined with the
//! cross-query [`SatCache`](hpl_core::SatCache) (which serves repeats
//! *after* completion) this bounds the evaluation cost of a thundering
//! herd of identical queries to a single evaluation.
//!
//! The map key is the **folded plan root**
//! ([`QueryPlan::root`](crate::planner::QueryPlan::root)), so requests
//! that differ only by constant clutter (`φ ∧ true` vs `φ`) coalesce
//! too.

use hpl_core::Formula;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};

/// The outcome of admitting a request.
#[derive(Debug)]
pub enum Ticket<T> {
    /// First in-flight arrival: evaluate, then
    /// [`settle`](Admission::settle) with the outcome.
    Leader,
    /// A duplicate of an in-flight request: block on the receiver for
    /// the leader's broadcast. A disconnect (the leader died without
    /// settling) means the follower must evaluate for itself.
    Follower(Receiver<T>),
}

/// The followers waiting on each in-flight `(generation, formula)`.
type Inflight<T> = HashMap<(u64, Formula), Vec<Sender<T>>>;

/// In-flight request coalescing, keyed by `(generation, formula)`.
///
/// `T` is the broadcast outcome type; it must be `Clone` so one
/// leader's result can fan out to every follower.
#[derive(Debug, Default)]
pub struct Admission<T> {
    inflight: Mutex<Inflight<T>>,
    coalesced: AtomicU64,
    led: AtomicU64,
}

impl<T: Clone> Admission<T> {
    /// Creates an empty admission table.
    #[must_use]
    pub fn new() -> Self {
        Admission {
            inflight: Mutex::new(HashMap::new()),
            coalesced: AtomicU64::new(0),
            led: AtomicU64::new(0),
        }
    }

    /// Admits a request for `f` over `generation`: the first in-flight
    /// arrival leads, duplicates follow.
    #[must_use]
    pub fn admit(&self, generation: u64, f: &Formula) -> Ticket<T> {
        // held to function end; nothing under it blocks (the follower
        // channel is created, not received on)
        // analyze:acquire(admission.inflight)
        let mut inflight = self.inflight.lock();
        match inflight.entry((generation, f.clone())) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let (tx, rx) = channel();
                e.get_mut().push(tx);
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                Ticket::Follower(rx)
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Vec::new());
                self.led.fetch_add(1, Ordering::Relaxed);
                Ticket::Leader
            }
        }
    }

    /// Settles a led request: removes the in-flight entry and
    /// broadcasts `outcome` to every follower that joined while it was
    /// evaluating. The leader **must** call this on every path (success
    /// or error) — an unsettled entry would leave followers blocked
    /// until their receivers disconnect.
    pub fn settle(&self, generation: u64, f: &Formula, outcome: &T) {
        // the map guard is a statement temporary — dropped before the
        // broadcast sends below
        // analyze:acquire(admission.inflight) analyze:release(admission.inflight)
        let waiters = self
            .inflight
            .lock()
            .remove(&(generation, f.clone()))
            .unwrap_or_default();
        for w in waiters {
            // a follower that gave up (dropped its receiver) is fine
            let _ = w.send(outcome.clone());
        }
    }

    /// Requests that joined an in-flight leader instead of evaluating.
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Requests that led an evaluation.
    #[must_use]
    pub fn led(&self) -> u64 {
        self.led.load(Ordering::Relaxed)
    }

    /// Number of requests currently in flight (for tests).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.inflight.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_requests_coalesce_until_settled() {
        let adm: Admission<u32> = Admission::new();
        let f = Formula::True;
        assert!(matches!(adm.admit(7, &f), Ticket::Leader));
        let Ticket::Follower(rx) = adm.admit(7, &f) else {
            panic!("second arrival must follow");
        };
        // a different generation is a different request
        assert!(matches!(adm.admit(8, &f), Ticket::Leader));
        assert_eq!(adm.in_flight(), 2);

        adm.settle(7, &f, &41);
        assert_eq!(rx.recv(), Ok(41));
        assert_eq!(adm.in_flight(), 1);
        // after settling, the next identical request leads again
        assert!(matches!(adm.admit(7, &f), Ticket::Leader));
        assert_eq!(adm.coalesced(), 1);
        assert_eq!(adm.led(), 3);
    }
}
