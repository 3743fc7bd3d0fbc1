//! Fault schedules: declarative descriptions of *what goes
//! wrong and when* in a simulated AS.
//!
//! A [`FaultSchedule`] is plain data — faults pushed by hand or read
//! from a scenario file — compiled onto any simulator with
//! [`crate::compile()`]. Its one JSON spelling is the scenario format's
//! fault record (`scenario::schema`). Replaying the same schedule on
//! the same deterministic simulator reproduces the same run event for
//! event, which is what makes resilience experiments comparable across
//! engines (ABRR vs TBRR vs full mesh see the *same* outages).

use bgp_types::{ApId, RouterId};
use netsim::Time;

/// One kind of injected failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The iBGP session between `a` and `b` bounces: down at the fault
    /// time, re-established `down_for` µs later. Both endpoints purge
    /// (RFC 4271 §6) and resync on re-establishment.
    SessionFlap {
        /// One endpoint.
        a: RouterId,
        /// The other endpoint.
        b: RouterId,
        /// Outage length in µs.
        down_for: Time,
    },
    /// The session between `a` and `b` goes down and stays down.
    LinkDown {
        /// One endpoint.
        a: RouterId,
        /// The other endpoint.
        b: RouterId,
    },
    /// A previously-downed session comes back (no-op if it never
    /// existed in the pre-fault session set).
    LinkUp {
        /// One endpoint.
        a: RouterId,
        /// The other endpoint.
        b: RouterId,
    },
    /// The router crashes, losing all RIB state, and restarts
    /// `down_for` µs later. Its sessions are re-established at restart
    /// time; both sides then resync their Adj-RIBs-Out (BGP full-table
    /// re-advertisement).
    RouterCrash {
        /// The crashing router.
        node: RouterId,
        /// Outage length in µs.
        down_for: Time,
    },
    /// A router goes down and stays down (no restart event is ever
    /// scheduled, so quiescence-based measurements stay clean).
    RouterDown {
        /// The failing router.
        node: RouterId,
    },
    /// An ARR fails permanently — the paper's §2.2 redundancy scenario:
    /// clients of every AP the ARR served must keep forwarding via the
    /// AP's surviving ARRs.
    ArrFailure {
        /// The failing ARR.
        arr: RouterId,
    },
    /// Operator reassignment: the ARR set of `ap` becomes `arrs`
    /// (paper §2.2, "the assignment … can be changed when needed").
    /// The new ARRs must already be ARRs so the sessions exist.
    ApReassign {
        /// The reassigned partition.
        ap: ApId,
        /// Its new ARR set.
        arrs: Vec<RouterId>,
    },
}

/// A fault at an absolute simulation time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Injection time, µs.
    pub at: Time,
    /// What happens.
    pub kind: FaultKind,
}

/// A complete, replayable fault scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Seed of the run this schedule belongs to (0 when none);
    /// recorded so experiment output can cite it.
    pub seed: u64,
    /// The faults, in injection order.
    pub faults: Vec<Fault>,
}

impl FaultSchedule {
    /// An empty schedule to push hand-picked faults into.
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault, keeping the list sorted by time (stable for
    /// same-time faults, so insertion order breaks ties
    /// deterministically).
    pub fn push(&mut self, at: Time, kind: FaultKind) -> &mut Self {
        let idx = self.faults.partition_point(|f| f.at <= at);
        self.faults.insert(idx, Fault { at, kind });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    #[test]
    fn push_keeps_time_order() {
        let mut s = FaultSchedule::new(7);
        s.push(
            5_000_000,
            FaultKind::SessionFlap {
                a: r(1),
                b: r(2),
                down_for: 1_000_000,
            },
        );
        s.push(2_000_000, FaultKind::ArrFailure { arr: r(9) });
        s.push(
            9_000_000,
            FaultKind::ApReassign {
                ap: ApId(3),
                arrs: vec![r(4), r(5)],
            },
        );
        s.push(
            9_000_000,
            FaultKind::RouterCrash {
                node: r(6),
                down_for: 30_000_000,
            },
        );
        let times: Vec<Time> = s.faults.iter().map(|f| f.at).collect();
        assert_eq!(times, vec![2_000_000, 5_000_000, 9_000_000, 9_000_000]);
    }
}
