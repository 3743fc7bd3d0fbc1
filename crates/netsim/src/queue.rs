//! The event queue: one heap operation per distinct timestamp, not one
//! per event.
//!
//! Events pop in `(time, id)` order, where the id is a sequence number
//! the queue hands out itself, in push order. That makes every
//! timestamp's events a FIFO — the earliest-pushed pops first — so the
//! queue keeps one singly linked list per pending timestamp, threaded
//! through a slab of nodes, and orders only the timestamps: a hash map
//! from time to the list's `(head, tail)` and a min-heap of the times.
//! A push appends to its time's list. The earliest list is taken out of
//! the map when its first event pops and drained from there, so a pop
//! is a slab read; the heap and the map are touched once per timestamp
//! — on `abrr_churn` once per 4.3 events, on the load workloads once
//! per 100–200 — and the heap holds 8-byte times instead of whole
//! events.
//!
//! Popped nodes go on a free list and are reused, so after warm-up a
//! push allocates nothing; the slab's length is the run's peak queue
//! length.

use crate::sim::Time;
use bgp_types::FxHashMap;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;

/// End of a list (and of the free list).
const NIL: u32 = u32::MAX;

/// One slab cell: a queued event, or a free cell when `ev` is `None`.
struct Node<E> {
    id: u64,
    /// The next node of the same timestamp's list (or of the free list).
    next: u32,
    ev: Option<E>,
}

/// A timestamp's list: its first and last node.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

/// A priority queue of events keyed by `(time, id)`; see the module
/// documentation.
pub(crate) struct EventQueue<E> {
    nodes: Vec<Node<E>>,
    /// Head of the free list of `nodes`.
    free: u32,
    /// The list being drained and its time, out of `lists`; empty when
    /// its head is `NIL`. While it is not empty, its time is a key of
    /// neither `lists` nor `times`.
    front: (Time, List),
    /// Every other pending timestamp's list.
    lists: FxHashMap<Time, List>,
    /// Every key of `lists`, earliest on top.
    times: BinaryHeap<Reverse<Time>>,
    next_id: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            front: (
                0,
                List {
                    head: NIL,
                    tail: NIL,
                },
            ),
            lists: FxHashMap::default(),
            times: BinaryHeap::new(),
            next_id: 0,
            len: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Queued events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Queues `ev` at `at` and returns its id: the number of pushes
    /// before it.
    pub(crate) fn push(&mut self, at: Time, ev: E) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let cell = Node {
            id,
            next: NIL,
            ev: Some(ev),
        };
        let n = if self.free == NIL {
            self.nodes.push(cell);
            // Invariant: the slab is as long as the run's peak queue
            // length; 2^32 queued events would hold over 64 GiB of
            // nodes, so memory runs out long before the index does.
            u32::try_from(self.nodes.len() - 1).expect("event queue outgrew u32 indices")
        } else {
            let n = self.free;
            self.free = std::mem::replace(&mut self.nodes[n as usize], cell).next;
            n
        };
        let list = match &mut self.front {
            (t, list) if *t == at && list.head != NIL => list,
            _ => match self.lists.entry(at) {
                Entry::Occupied(list) => list.into_mut(),
                Entry::Vacant(slot) => {
                    slot.insert(List { head: n, tail: n });
                    self.times.push(Reverse(at));
                    self.len += 1;
                    return id;
                }
            },
        };
        self.nodes[list.tail as usize].next = n;
        list.tail = n;
        self.len += 1;
        id
    }

    /// The front's time, if it holds events.
    fn front_time(&self) -> Option<Time> {
        let (at, list) = self.front;
        (list.head != NIL).then_some(at)
    }

    /// The time of the next event to pop.
    pub(crate) fn peek_time(&self) -> Option<Time> {
        let later = self.times.peek().map(|&Reverse(at)| at);
        match (self.front_time(), later) {
            (Some(front), Some(later)) => Some(front.min(later)),
            (front, later) => front.or(later),
        }
    }

    /// The time and payload of the next event to pop.
    pub(crate) fn peek(&self) -> Option<(Time, &E)> {
        let at = self.peek_time()?;
        let head = match self.front {
            (t, list) if t == at && list.head != NIL => list.head,
            _ => self.lists[&at].head,
        };
        let ev = self.nodes[head as usize].ev.as_ref();
        // Invariant: a list's nodes hold events; only a pop or a
        // `retain` frees a node, and both unlink it first.
        Some((at, ev.expect("queued node is free")))
    }

    /// Removes and returns the earliest `(time, id, event)`.
    pub(crate) fn pop(&mut self) -> Option<(Time, u64, E)> {
        let earlier = |t: Time| self.times.peek().is_some_and(|&Reverse(at)| at < t);
        if self.front_time().is_none_or(earlier) {
            // The earliest list is in the map: make it the front. A
            // front that still holds events goes back first — it can
            // trail only after a push earlier than the last pop.
            let Reverse(at) = self.times.pop()?;
            // Invariant: `times` holds exactly the keys of `lists`:
            // every insert into one pushes to the other, and `retain`
            // drops from `times` what it drops from `lists`.
            let list = self.lists.remove(&at).expect("pending time has no list");
            let (t, old) = std::mem::replace(&mut self.front, (at, list));
            if old.head != NIL {
                self.lists.insert(t, old);
                self.times.push(Reverse(t));
            }
        }
        let (at, list) = &mut self.front;
        let head = list.head;
        let node = &mut self.nodes[head as usize];
        list.head = node.next;
        // Invariant: the front's head is a queued node (the front
        // holds events here), and only a pop or a `retain` frees one.
        let ev = node.ev.take().expect("queued node is free");
        node.next = std::mem::replace(&mut self.free, head);
        self.len -= 1;
        Some((*at, node.id, ev))
    }

    /// Keeps only the events `keep` accepts; the survivors keep their
    /// order and ids. `keep` sees the events in no particular order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&E) -> bool) {
        let EventQueue {
            nodes,
            free,
            front,
            lists,
            len,
            ..
        } = self;
        // Relinks one list around the events it drops; false when it
        // emptied.
        let mut relink = |list: &mut List| {
            let (mut cur, mut last) = (list.head, NIL);
            list.head = NIL;
            while cur != NIL {
                let node = &mut nodes[cur as usize];
                let next = node.next;
                // Invariant: every node reachable from a list holds an
                // event; freed nodes are unlinked before `ev` is cleared.
                if keep(node.ev.as_ref().expect("queued node is free")) {
                    match last {
                        NIL => list.head = cur,
                        _ => nodes[last as usize].next = cur,
                    }
                    last = cur;
                } else {
                    node.ev = None;
                    node.next = std::mem::replace(free, cur);
                    *len -= 1;
                }
                cur = next;
            }
            if last != NIL {
                nodes[last as usize].next = NIL;
                list.tail = last;
            }
            last != NIL
        };
        relink(&mut front.1);
        let before = lists.len();
        lists.retain(|_, list| relink(list));
        if lists.len() != before {
            self.times.retain(|Reverse(at)| self.lists.contains_key(at));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(Time, u64, E)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn equal_times_pop_in_push_order_across_times() {
        let mut q = EventQueue::default();
        for (at, ev) in [(5, 'a'), (3, 'b'), (5, 'c'), (3, 'd'), (9, 'e'), (5, 'f')] {
            q.push(at, ev);
        }
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek(), Some((3, &'b')));
        assert_eq!(
            drain(&mut q),
            vec![
                (3, 1, 'b'),
                (3, 3, 'd'),
                (5, 0, 'a'),
                (5, 2, 'c'),
                (5, 5, 'f'),
                (9, 4, 'e')
            ]
        );
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn a_push_before_the_front_pops_first() {
        let mut q = EventQueue::default();
        q.push(5, 'a');
        q.push(5, 'b');
        assert_eq!(q.pop(), Some((5, 0, 'a')));
        // Earlier than the list being drained, which still holds 'b'.
        q.push(3, 'c');
        q.push(5, 'd');
        assert_eq!(q.peek(), Some((3, &'c')));
        assert_eq!(drain(&mut q), vec![(3, 2, 'c'), (5, 1, 'b'), (5, 3, 'd')]);
    }

    #[test]
    fn retain_relinks_lists_and_reuses_cells() {
        let mut q = EventQueue::default();
        for i in 0..10u64 {
            q.push(i % 3, i);
        }
        // Drop every head, tail and middle of some list.
        q.retain(|&ev| ev % 2 == 1);
        assert_eq!(q.len(), 5);
        let cells = q.nodes.len();
        // A whole timestamp emptied: its time leaves the heap too.
        q.retain(|&ev| ev % 3 != 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.times.len(), q.lists.len());
        q.push(1, 100);
        assert_eq!(q.nodes.len(), cells, "a freed cell was reused");
        let popped: Vec<_> = drain(&mut q).into_iter().map(|(_, _, ev)| ev).collect();
        assert_eq!(popped, vec![3, 9, 100, 5]);
    }

    /// One step of a random interleaving.
    #[derive(Clone, Debug)]
    enum Op {
        /// Push at `now + delay`.
        Push(u64),
        Pop,
        /// Keep the events whose id is not a multiple of the modulus.
        Retain(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Pushes 4 : pops 3 : retains 1, and few distinct delays, so
        // timestamps repeat and lists grow.
        (0u8..8, 0u64..12).prop_map(|(kind, x)| match kind {
            0..=3 => Op::Push(x % 4),
            4..=6 => Op::Pop,
            _ => Op::Retain(2 + x % 3),
        })
    }

    proptest! {
        /// Against a `BinaryHeap` of `(Reverse(at), Reverse(id))`: the
        /// same pop sequence and the same length after every step, with
        /// pushes never earlier than the last pop, as the simulator's.
        #[test]
        fn matches_a_binary_heap(ops in prop::collection::vec(op(), 0..300)) {
            // The payload is the id the push is expected to get, so
            // `retain` can see it.
            let mut q = EventQueue::default();
            let mut reference = BinaryHeap::new();
            let (mut now, mut pushes) = (0, 0u64);
            for op in ops {
                match op {
                    Op::Push(delay) => {
                        prop_assert_eq!(q.push(now + delay, pushes), pushes);
                        reference.push((Reverse(now + delay), Reverse(pushes)));
                        pushes += 1;
                    }
                    Op::Pop => {
                        let got = q.pop().map(|(at, id, ev)| {
                            assert_eq!(id, ev);
                            (at, id)
                        });
                        let want = reference.pop().map(|(Reverse(at), Reverse(id))| (at, id));
                        prop_assert_eq!(got, want);
                        if let Some((at, _)) = got {
                            now = at;
                        }
                    }
                    Op::Retain(m) => {
                        q.retain(|&id| id % m != 0);
                        reference.retain(|&(_, Reverse(id))| id % m != 0);
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
            }
        }
    }
}
