//! Fault schedules: declarative, seeded descriptions of *what goes
//! wrong and when* in a simulated AS.
//!
//! A [`FaultSchedule`] is plain data — it can be generated randomly
//! from a seed or pushed by hand, and compiled onto any simulator with
//! [`crate::compile()`]. Its one JSON spelling is the scenario format's
//! fault record (`scenario::schema`). Replaying the same schedule on
//! the same deterministic simulator reproduces the same run event for
//! event, which is what makes resilience experiments comparable across
//! engines (ABRR vs TBRR vs full mesh see the *same* outages).

use bgp_types::{ApId, RouterId};
use netsim::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    /// Seed this schedule was generated from (0 for hand-written
    /// schedules); recorded so experiment output can cite it.
    pub seed: u64,
    /// The faults, in injection order.
    pub faults: Vec<Fault>,
}

/// Knobs for [`FaultSchedule::random`].
#[derive(Clone, Debug)]
pub struct RandomFaultConfig {
    /// Number of faults to draw.
    pub count: usize,
    /// Faults are placed uniformly in `[start, start + window)`.
    pub start: Time,
    /// Placement window length, µs.
    pub window: Time,
    /// Session-flap outage length range, µs.
    pub flap_down_for: (Time, Time),
    /// Router-crash outage length range, µs.
    pub crash_down_for: (Time, Time),
}

impl Default for RandomFaultConfig {
    fn default() -> Self {
        RandomFaultConfig {
            count: 8,
            start: 0,
            window: 600_000_000,
            flap_down_for: (5_000_000, 60_000_000),
            crash_down_for: (30_000_000, 120_000_000),
        }
    }
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

    /// Draws a random mix of session flaps and router crash-restarts
    /// against the given session set — the generic background-failure
    /// workload. Deterministic in `seed`: the same seed, sessions, and
    /// config produce the same schedule.
    pub fn random(
        seed: u64,
        sessions: &[(RouterId, RouterId)],
        cfg: &RandomFaultConfig,
    ) -> FaultSchedule {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA017);
        let mut s = FaultSchedule::new(seed);
        if sessions.is_empty() {
            return s;
        }
        for _ in 0..cfg.count {
            let at = cfg.start + rng.gen_range(0..cfg.window.max(1));
            let (a, b) = sessions[rng.gen_range(0..sessions.len())];
            let kind = if rng.gen_bool(0.75) {
                let (lo, hi) = cfg.flap_down_for;
                FaultKind::SessionFlap {
                    a,
                    b,
                    down_for: rng.gen_range(lo..hi.max(lo + 1)),
                }
            } else {
                let (lo, hi) = cfg.crash_down_for;
                FaultKind::RouterCrash {
                    node: if rng.gen_bool(0.5) { a } else { b },
                    down_for: rng.gen_range(lo..hi.max(lo + 1)),
                }
            };
            s.push(at, kind);
        }
        s
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

    #[test]
    fn random_is_deterministic_in_seed() {
        let sessions = vec![(r(1), r(2)), (r(2), r(3)), (r(1), r(3))];
        let cfg = RandomFaultConfig::default();
        let a = FaultSchedule::random(42, &sessions, &cfg);
        let b = FaultSchedule::random(42, &sessions, &cfg);
        let c = FaultSchedule::random(43, &sessions, &cfg);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.faults.len(), cfg.count);
        assert!(a.faults.windows(2).all(|w| w[0].at <= w[1].at));
    }
}
