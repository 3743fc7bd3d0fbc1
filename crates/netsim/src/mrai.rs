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
//!
//! The buffer is a flat `Vec` of sorted runs laid end to end, not a
//! B-tree: a router holds one pacer per session, and at a bulk load's
//! peak their buffers hold more than a hundred thousand deferred
//! updates, which B-tree nodes held at several times the bytes
//! (DESIGN.md §8). Offers do not arrive in key order (a router's
//! batches each restart from their lowest prefix; most inserts at the
//! 20K-prefix scale land mid-buffer), so an insert never shifts the
//! buffer: a key above the last one extends the last run, any other
//! starts a new run, and a run that grows past half its predecessor is
//! merged into it. Runs at least halve in length from one to the next,
//! so a lookup binary-searches O(log n) runs and each update takes part
//! in O(log n) merges.

use crate::sim::Time;

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
    /// The deferred updates, at most one per key: sorted runs laid end
    /// to end.
    pending: Vec<(K, M)>,
    /// Where each run but the first starts in `pending`. Each run is
    /// at least twice as long as the next.
    runs: Vec<usize>,
    timer_pending: bool,
}

impl<K: Ord, M> Mrai<K, M> {
    /// Heap bytes of one deferred update.
    pub const ENTRY_BYTES: usize = size_of::<(K, M)>();

    /// Creates a pacer with the given interval. Zero disables pacing.
    pub fn new(interval: Time) -> Self {
        Mrai {
            interval,
            ready_at: 0,
            pending: Vec::new(),
            runs: Vec::new(),
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
        match self.find(&key) {
            Some(i) => self.pending[i].1 = msg,
            None => self.append(key, msg),
        }
        let need_timer = !self.timer_pending;
        self.timer_pending = true;
        MraiVerdict::Deferred {
            flush_at: self.ready_at,
            need_timer,
        }
    }

    /// Drains the pending buffer at flush time: the caller takes the
    /// buffer itself and transmits its updates, which are in key
    /// order. Restarts the interval if anything was sent.
    pub fn flush(&mut self, now: Time) -> Vec<(K, M)> {
        self.timer_pending = false;
        if !self.pending.is_empty() {
            self.ready_at = now + self.interval;
        }
        if !std::mem::take(&mut self.runs).is_empty() {
            self.pending.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        std::mem::take(&mut self.pending)
    }

    /// Number of buffered updates.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Heap bytes of the pending buffer and its run starts, at
    /// capacity.
    pub fn heap_bytes(&self) -> usize {
        self.pending.capacity() * Self::ENTRY_BYTES + self.runs.capacity() * size_of::<usize>()
    }

    /// The index of `key`'s pending update, if it has one.
    fn find(&self, key: &K) -> Option<usize> {
        let mut start = 0;
        for end in self.runs.iter().copied().chain([self.pending.len()]) {
            if let Ok(i) = self.pending[start..end].binary_search_by(|(k, _)| k.cmp(key)) {
                return Some(start + i);
            }
            start = end;
        }
        None
    }

    /// Adds an update for a key with none pending, then merges the last
    /// run into its predecessor while it is more than half as long.
    fn append(&mut self, key: K, msg: M) {
        if self.pending.last().is_some_and(|(last, _)| *last > key) {
            self.runs.push(self.pending.len());
        }
        self.pending.push((key, msg));
        while let Some(&last) = self.runs.last() {
            let prev = self.runs.len().checked_sub(2).map_or(0, |j| self.runs[j]);
            if 2 * (self.pending.len() - last) <= last - prev {
                break;
            }
            self.runs.pop();
            self.pending[prev..].sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        assert_eq!(flushed, vec![(2, "b"), (3, "c")]);
        // Interval restarted at flush: next offer is deferred again.
        assert!(matches!(m.offer(150, 4, "d"), MraiVerdict::Deferred { .. }));
        // After the new interval expires with an empty buffer...
        let flushed = m.flush(200);
        assert_eq!(flushed, vec![(4, "d")]);
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
        assert_eq!(m.flush(100), vec![(7, 30)]);
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

    /// The pacer as it was when its buffer was a `BTreeMap`: the
    /// oracle the sorted runs must reproduce.
    struct MapMrai {
        interval: Time,
        ready_at: Time,
        pending: BTreeMap<u16, u32>,
        timer_pending: bool,
    }

    impl MapMrai {
        fn offer(&mut self, now: Time, key: u16, msg: u32) -> MraiVerdict<u32> {
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

        fn flush(&mut self, now: Time) -> BTreeMap<u16, u32> {
            self.timer_pending = false;
            if !self.pending.is_empty() {
                self.ready_at = now + self.interval;
            }
            std::mem::take(&mut self.pending)
        }
    }

    /// One step: advance the clock by the first field, then offer
    /// (key, message) or, with `None`, flush. The key is reduced to
    /// the test's key domain.
    fn step() -> impl Strategy<Value = (Time, Option<(u16, u32)>)> {
        // Offers 7 : flushes 1, so buffers grow to many runs.
        (0u64..60, 0u8..8, any::<u16>(), any::<u32>())
            .prop_map(|(dt, kind, key, msg)| (dt, (kind > 0).then_some((key, msg))))
    }

    proptest! {
        /// Verdicts, flushed (key, message) lists in order and the
        /// buffer length all match the map after every step, paced
        /// and unpaced, over eight keys (they repeat) and over 1024
        /// (offers land anywhere in the buffer). Each run stays at
        /// least twice as long as the next, so n updates are in at
        /// most log2(n + 1) runs.
        #[test]
        fn matches_the_btreemap_pacer(
            interval in prop::sample::select(vec![0, 1, 25, 100]),
            keys in prop::sample::select(vec![8u16, 1024]),
            steps in prop::collection::vec(step(), 0..400),
        ) {
            let mut m: Mrai<u16, u32> = Mrai::new(interval);
            let mut model = MapMrai {
                interval,
                ready_at: 0,
                pending: BTreeMap::new(),
                timer_pending: false,
            };
            let mut now = 0;
            for (dt, action) in steps {
                now += dt;
                match action {
                    Some((key, msg)) => {
                        let key = key % keys;
                        prop_assert_eq!(m.offer(now, key, msg), model.offer(now, key, msg));
                    }
                    None => {
                        let want: Vec<_> = model.flush(now).into_iter().collect();
                        prop_assert_eq!(m.flush(now), want);
                    }
                }
                prop_assert_eq!(m.pending_len(), model.pending.len());
                let runs = m.runs.len() + usize::from(!m.pending.is_empty());
                prop_assert!((1 << runs) - 1 <= m.pending.len());
            }
        }
    }
}
