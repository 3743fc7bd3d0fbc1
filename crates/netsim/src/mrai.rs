//! Per-peer MRAI (Minimum Route Advertisement Interval) pacing.
//!
//! RFC 4271 §9.2.1.1: a speaker must not send successive UPDATEs for a
//! common set of destinations to a given peer faster than the MRAI. The
//! paper's convergence argument (§3.5) is that ABRR cuts the number of
//! iBGP hops between border routers from three to two, so fewer MRAI
//! delays accumulate along the propagation path.
//!
//! [`Mrai`] is a small state machine used per (peer) by the protocol
//! engines: updates offered while the peer is "ready" pass through
//! immediately (and start the interval); updates offered during the
//! interval are buffered per key, with later offers for the same key
//! replacing earlier ones (implicit-withdraw coalescing); a flush timer
//! drains the buffer when the interval expires.

use crate::sim::Time;
use std::collections::BTreeMap;

/// What the caller should do with an offered update.
#[derive(Debug, PartialEq, Eq)]
pub enum MraiVerdict<M> {
    /// Send this message immediately; the interval has (re)started.
    SendNow(M),
    /// Buffered. If `need_timer` the caller must schedule a flush timer
    /// at `flush_at` (otherwise one is already pending).
    Deferred {
        /// When the pending buffer becomes sendable.
        flush_at: Time,
        /// Whether the caller must schedule the flush timer.
        need_timer: bool,
    },
}

/// Per-peer MRAI pacing state, generic over the update key (per RFC the
/// "common set of destinations" — the engines key by prefix) and the
/// buffered message payload.
#[derive(Clone, Debug)]
pub struct Mrai<K: Ord, M> {
    interval: Time,
    ready_at: Time,
    pending: BTreeMap<K, M>,
    timer_pending: bool,
}

impl<K: Ord, M> Mrai<K, M> {
    /// Creates a pacer with the given interval. Zero disables pacing.
    pub fn new(interval: Time) -> Self {
        Mrai {
            interval,
            ready_at: 0,
            pending: BTreeMap::new(),
            timer_pending: false,
        }
    }

    /// The configured interval.
    pub fn interval(&self) -> Time {
        self.interval
    }

    /// Offers an update keyed by `key` at time `now`.
    ///
    /// Returns [`MraiVerdict::SendNow`] handing the message back for
    /// immediate transmission, or [`MraiVerdict::Deferred`] when it was
    /// buffered.
    ///
    /// Note: once any update is deferred, later updates for *other* keys
    /// are also deferred until the flush, preserving inter-prefix
    /// ordering to a peer.
    pub fn offer(&mut self, now: Time, key: K, msg: M) -> MraiVerdict<M> {
        if self.interval == 0 || (now >= self.ready_at && self.pending.is_empty()) {
            self.ready_at = now + self.interval;
            return MraiVerdict::SendNow(msg);
        }
        self.pending.insert(key, msg);
        let need_timer = !self.timer_pending;
        self.timer_pending = true;
        MraiVerdict::Deferred {
            flush_at: self.ready_at,
            need_timer,
        }
    }

    /// Drains the pending buffer at flush time: the caller takes the
    /// buffer itself and transmits its updates (iteration is in key
    /// order). Restarts the interval if anything was sent.
    pub fn flush(&mut self, now: Time) -> BTreeMap<K, M> {
        self.timer_pending = false;
        if !self.pending.is_empty() {
            self.ready_at = now + self.interval;
        }
        std::mem::take(&mut self.pending)
    }

    /// Number of buffered updates.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_interval_always_sends() {
        let mut m: Mrai<u32, &str> = Mrai::new(0);
        for i in 0..10 {
            assert_eq!(m.offer(i, i as u32, "x"), MraiVerdict::SendNow("x"));
        }
        assert_eq!(m.pending_len(), 0);
    }

    #[test]
    fn first_send_immediate_then_deferred() {
        let mut m: Mrai<u32, &str> = Mrai::new(100);
        assert_eq!(m.offer(0, 1, "a"), MraiVerdict::SendNow("a"));
        assert_eq!(
            m.offer(10, 2, "b"),
            MraiVerdict::Deferred {
                flush_at: 100,
                need_timer: true
            }
        );
        assert_eq!(
            m.offer(20, 3, "c"),
            MraiVerdict::Deferred {
                flush_at: 100,
                need_timer: false
            }
        );
        let flushed = m.flush(100);
        assert_eq!(flushed, BTreeMap::from([(2, "b"), (3, "c")]));
        // Interval restarted at flush: next offer is deferred again.
        assert!(matches!(m.offer(150, 4, "d"), MraiVerdict::Deferred { .. }));
        // After the new interval expires with an empty buffer...
        let flushed = m.flush(200);
        assert_eq!(flushed, BTreeMap::from([(4, "d")]));
        assert_eq!(m.offer(301, 5, "e"), MraiVerdict::SendNow("e"));
    }

    #[test]
    fn implicit_withdraw_coalescing() {
        let mut m: Mrai<u32, u32> = Mrai::new(100);
        assert_eq!(m.offer(0, 9, 1), MraiVerdict::SendNow(1));
        // Three successive updates for the same prefix: only the last
        // survives the interval.
        m.offer(1, 7, 10);
        m.offer(2, 7, 20);
        m.offer(3, 7, 30);
        assert_eq!(m.pending_len(), 1);
        assert_eq!(m.flush(100), BTreeMap::from([(7, 30)]));
    }

    #[test]
    fn flush_with_empty_buffer_is_noop() {
        let mut m: Mrai<u32, &str> = Mrai::new(100);
        assert!(m.flush(50).is_empty());
        // ready_at must not have been advanced by the empty flush.
        assert_eq!(m.offer(0, 1, "a"), MraiVerdict::SendNow("a"));
    }

    #[test]
    fn ordering_preserved_once_blocked() {
        // If prefix A is deferred, a later update for prefix B must not
        // jump the queue (it would reorder the stream to the peer).
        let mut m: Mrai<u32, &str> = Mrai::new(100);
        assert_eq!(m.offer(0, 1, "first"), MraiVerdict::SendNow("first"));
        m.offer(10, 2, "blocked");
        // Interval conceptually over for... no: ready_at=100, still blocked.
        assert!(matches!(
            m.offer(50, 3, "later"),
            MraiVerdict::Deferred { .. }
        ));
        assert_eq!(m.flush(100).len(), 2);
    }
}
