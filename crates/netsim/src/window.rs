//! The parallel engines: one window loop, two scheduling policies.
//!
//! [`Sim::run_engine`] runs [`Engine::Epoch`] and [`Engine::Sharded`] on
//! the same driver: one worker pool and one collect → partition →
//! execute → merge loop, bit-identical to [`Sim::run`]. The loop
//! alternates between two states:
//!
//! * **Fence**: the head event mutates state shared by every node — a
//!   *global* event (session up/down, node crash/restart) or, under the
//!   sharded policy, an external the protocol classifies as
//!   [`ExternalClass::Fence`]. It runs sequentially through the exact
//!   [`Sim::run`] dispatch path, after the previous window has fully
//!   merged.
//! * **Window**: the head is a pure per-node callback (delivery, timer,
//!   prefix-plane external). The engine pops a *window* of pure events
//!   spanning as many timestamps as the lookahead horizon allows,
//!   partitions it by node, runs the per-node tasks concurrently, and
//!   merges the collected actions back in exact sequential order.
//!
//! # Why a window is safe (the determinism argument)
//!
//! The sequential engine processes events in `(time, id)` order, and
//! ids double as tie-breaks *and* trace keys, so equivalence requires
//! replaying the exact id-assignment schedule. Three facts make the
//! callbacks of one window order-independent:
//!
//! 1. **Callbacks only touch their own node.** A [`Protocol`] callback
//!    receives `&mut self` and a [`Ctx`] that *collects* actions; it
//!    cannot read or write another node, the session lists, the event
//!    queue, or the counters.
//! 2. **Same-node events stay ordered.** Events targeting one node are
//!    handled by one task in ascending `(time, id)` order, preserving
//!    per-session FIFO and timer ordering.
//! 3. **No action lands inside the window.** Let `lead(n)` be a lower
//!    bound on how far into the future node `n`'s callbacks can
//!    schedule anything:
//!
//!    ```text
//!    lead(n) = min( min latency of any session incident to n,
//!                   n.timer_lead() )
//!    ```
//!
//!    A callback running at time `t` on node `n` can only push events
//!    at `t' >= t + lead(n)` (sends arrive after session latency; timers
//!    obey the [`Protocol::timer_lead`] promise). The collection loop
//!    maintains `horizon = min over collected events e of (t_e +
//!    lead(node_e))` and admits the next queue head only while `head.at
//!    <= horizon`. For any two window events `e_i`, `e_j`: if `e_j` was
//!    admitted after `e_i` then `t_j <= t_i + lead(node_i)` by the
//!    horizon check, and if before, then `t_i >= t_j` since the queue
//!    pops in nondecreasing time. Either way every push from `e_i`
//!    lands at `t' >= t_j`; and at `t' == t_j` the push's fresh
//!    sequence id is larger than `e_j`'s.
//!
//! So the window is **exactly the next |window| events of the
//! sequential schedule** — no speculation, no rollback — and applying
//! the collected actions in ascending window order (with `now` set to
//! each originating event's time) reproduces the sequential engine's
//! pushes, ids, counters, and trace stamps verbatim. Fact 3 rests on a
//! promise the engine cannot derive, so the merge *checks* it: a push
//! that lands before the window's last event panics, naming the node.
//!
//! # The two policies
//!
//! * **[`Engine::Epoch`]** takes `lead ≡ 0`. The horizon collapses to
//!   the head timestamp, so a window is the maximal run of pure
//!   same-timestamp events — sound for any protocol, including ones
//!   that set same-instant timers, as the corollary of the argument
//!   above. Only global events fence, and tasks go to worker `node id
//!   mod N`.
//! * **[`Engine::Sharded`]** uses the real per-node `lead`. BGP nodes
//!   promise one (processing delay, strictly future MRAI flushes), and
//!   with MRAI off a window stretches to the minimum session latency —
//!   classic conservative-DES lookahead. Protocol fences cover
//!   externals whose handlers rewrite *cross-prefix* routing structure
//!   (a session reset purges and resyncs entire peer state; an AP
//!   reassignment rewrites peer groups and the managed table for every
//!   prefix of the AP; a transition cutover re-evaluates every covered
//!   prefix): the engine drains all workers, applies the change on the
//!   sequential path, and reopens windows against the new structure.
//!   Tasks are routed by the AP affinity hints of [`Protocol::msg_shard`]
//!   / [`ExternalClass::Prefix`], since ABRR's prefix-plane work in
//!   different Address Partitions never interacts.
//!
//! Routing is only ever a locality lever: correctness comes from
//! per-node task serialization plus the canonical merge order, so a
//! spanning prefix or a mis-hinted message costs locality, never
//! determinism.

use crate::sim::{
    Action, Ctx, Engine, Event, ExternalClass, Protocol, RunLimits, RunOutcome, Sim, Slot, Time,
};
use bgp_types::RouterId;
use std::collections::BTreeMap;
use std::sync::mpsc;

/// One pure event routed to a node within a window.
enum NodeEvent<P: Protocol> {
    Msg { from: RouterId, msg: P::Msg },
    Timer { token: u64 },
    External { ev: P::External },
}

/// One popped window event before partitioning: `(node's slot, at, id,
/// event, shard hint)`. The hint is `Some` only under the sharded
/// policy, for deliveries and externals.
type WindowEntry<P> = (usize, Time, u64, NodeEvent<P>, Option<u64>);

/// The unit of work handed to a worker: one node plus all of its
/// events in this window, in ascending `(time, id)` order.
struct Task<P: Protocol> {
    slot: usize,
    /// Index of the node's slot in the simulator's table, where the
    /// node goes back after the window.
    home: usize,
    node_id: RouterId,
    node: P,
    /// `(pos, at, id, event)`: `pos` indexes the window batch for the
    /// merge; `(at, id)` is the entry's canonical dispatch stamp.
    events: Vec<(u32, Time, u64, NodeEvent<P>)>,
    /// Destination worker.
    worker: usize,
}

/// A worker's result: the node moved back, one flat action buffer (a
/// single allocation per task instead of one per callback), and
/// per-event `(pos, at, action count)` bounds for the ordered merge.
struct TaskResult<P: Protocol> {
    slot: usize,
    home: usize,
    node: P,
    actions: Vec<Action<P::Msg>>,
    bounds: Vec<(u32, Time, u32)>,
}

fn execute<P: Protocol>(task: Task<P>) -> TaskResult<P> {
    let task_start = obs::profile::enabled().then(std::time::Instant::now);
    let Task {
        slot,
        home,
        node_id,
        mut node,
        events,
        worker: _,
    } = task;
    let mut actions: Vec<Action<P::Msg>> = Vec::new();
    let mut bounds = Vec::with_capacity(events.len());
    for (pos, at, id, ev) in events {
        let start = actions.len();
        // The same (time, id) stamp the sequential engine would use
        // for this event, so traces merge byte-identically.
        obs::trace::set_dispatch(at, id);
        let mut ctx = Ctx::for_worker(at, node_id, actions);
        match ev {
            NodeEvent::Msg { from, msg } => node.on_message(&mut ctx, from, msg),
            NodeEvent::Timer { token } => node.on_timer(&mut ctx, token),
            NodeEvent::External { ev } => node.on_external(&mut ctx, ev),
        }
        actions = ctx.into_actions();
        bounds.push((pos, at, (actions.len() - start) as u32));
    }
    if let Some(t0) = task_start {
        obs::profile::add_task_ns(t0.elapsed().as_nanos() as u64);
    }
    TaskResult {
        slot,
        home,
        node,
        actions,
        bounds,
    }
}

impl<P: Protocol> Sim<P> {
    /// Runs the event loop under `engine`. Every engine produces
    /// results bit-identical to [`Sim::run`] with the same limits.
    ///
    /// [`Engine::Seq`] *is* [`Sim::run`], and so is a parallel engine
    /// with a single worker — one worker gains nothing from the window
    /// machinery, and `Sim::run` stamps the same dispatch ids, so obs
    /// traces stay byte-identical.
    pub fn run_engine(&mut self, engine: Engine, limits: RunLimits) -> RunOutcome
    where
        P: Send,
        P::Msg: Send,
        P::External: Send,
    {
        let workers = engine.workers();
        if workers <= 1 {
            return self.run(limits);
        }
        // One task channel per worker — the merge thread is the only
        // producer, so shared state reaches a worker only between
        // windows — and one shared result channel back.
        let (task_txs, task_rxs): (Vec<_>, Vec<_>) =
            (0..workers).map(|_| mpsc::channel::<Task<P>>()).unzip();
        let (res_tx, res_rx) = mpsc::channel::<TaskResult<P>>();
        std::thread::scope(|s| {
            for rx in task_rxs {
                let res_tx = res_tx.clone();
                s.spawn(move || {
                    while let Ok(task) = rx.recv() {
                        if res_tx.send(execute(task)).is_err() {
                            break;
                        }
                    }
                    // Flush buffered trace events inside the closure:
                    // the thread-local drop-flush can run after the
                    // scope join observes this worker as finished,
                    // which would race a drain on the main thread.
                    obs::trace::flush_local();
                });
            }
            // Moved into the closure so the senders hang up — and the
            // workers' recv() errors and they exit — when it returns
            // *or unwinds*; the scope joins the workers either way.
            let task_txs = task_txs;
            self.run_windows(engine, &task_txs, &res_rx, limits)
        })
    }

    /// Whether the head event synchronizes: a global event, or (sharded
    /// policy only) an external the receiving protocol classifies as
    /// session-plane.
    fn is_fence(&self, ev: &Event<P>, sharded: bool) -> bool {
        match ev {
            Event::SessionDown { .. }
            | Event::SessionUp { .. }
            | Event::NodeDown { .. }
            | Event::NodeUp { .. } => true,
            Event::External { node, ev } if sharded => self.slot_of(*node).is_some_and(|i| {
                let class = self.slots[i].node().classify_external(ev);
                matches!(class, ExternalClass::Fence)
            }),
            _ => false,
        }
    }

    /// Per-node lookahead bounds, indexed like the slot table:
    /// `min(min incident session latency, timer_lead)` under the
    /// sharded policy, 0 under the epoch policy. Rebuilt after every
    /// fence (the only points where sessions or node liveness change
    /// mid-run).
    fn build_leads(&self, sharded: bool, leads: &mut Vec<Time>) {
        leads.clear();
        let lead = |s: &Slot<P>| {
            let timer = if sharded { s.node().timer_lead() } else { 0 };
            s.sessions
                .iter()
                .map(|&(_, lat)| lat)
                .fold(timer, Time::min)
        };
        leads.extend(self.slots.iter().map(lead));
    }

    /// The window loop. Tasks go out on `task_txs[task.worker]`; their
    /// results come back on `res_rx` in any order.
    fn run_windows(
        &mut self,
        engine: Engine,
        task_txs: &[mpsc::Sender<Task<P>>],
        res_rx: &mpsc::Receiver<TaskResult<P>>,
        limits: RunLimits,
    ) -> RunOutcome {
        let sharded = matches!(engine, Engine::Sharded(_));
        let workers = task_txs.len();
        let profiling = obs::profile::enabled();
        let run_start = profiling.then(std::time::Instant::now);
        if profiling {
            obs::profile::run_started();
        }
        obs::trace::new_run();
        self.start();
        let mut events = 0u64;
        let mut windows = 0u64;
        let mut fences = 0u64;
        let mut max_queue = 0usize;
        let mut max_window_batch = 0usize;
        let mut leads: Vec<Time> = Vec::new();
        let mut leads_stale = true;
        let quiesced = 'run: loop {
            let Some((at, head)) = self.queue.peek() else {
                break 'run true;
            };
            if events >= limits.max_events || at > limits.max_time {
                break 'run false;
            }
            if profiling {
                max_queue = max_queue.max(self.queue.len());
            }
            if self.is_fence(head, sharded) {
                // Every worker has rendezvoused (the previous window
                // fully merged), so mutate shared state on the exact
                // sequential path.
                let (at, id, ev) = self.queue.pop().expect("peeked event vanished");
                self.now = at;
                events += 1;
                fences += 1;
                obs::trace::set_dispatch(at, id);
                self.dispatch_event(ev);
                leads_stale = true;
                continue;
            }
            if leads_stale {
                self.build_leads(sharded, &mut leads);
                leads_stale = false;
            }
            // Collect a window: pure events in queue order while the
            // lookahead horizon allows, replicating the sequential
            // engine's per-event drop bookkeeping (drops count as
            // processed events).
            let mut batch: Vec<WindowEntry<P>> = Vec::new();
            let mut horizon = Time::MAX;
            let mut window_end = at;
            while let Some((t, head)) = self.queue.peek() {
                if t > horizon
                    || t > limits.max_time
                    || events >= limits.max_events
                    || self.is_fence(head, sharded)
                {
                    break;
                }
                let (t, id, ev) = self.queue.pop().expect("peeked event vanished");
                events += 1;
                window_end = t;
                // One lookup per event finds the node, its liveness
                // and its counters. A node that was never added hosts
                // no callbacks, so its events are processed as no-ops.
                let (home, ev) = match ev {
                    Event::Deliver { from, to, msg } => (to, NodeEvent::Msg { from, msg }),
                    Event::Timer { node, token } => (node, NodeEvent::Timer { token }),
                    Event::External { node, ev } => (node, NodeEvent::External { ev }),
                    _ => unreachable!("global event in pure window"),
                };
                let Some(home) = self.slot_of(home) else {
                    continue;
                };
                let slot = &mut self.slots[home];
                if !slot.up {
                    // A crashed node's timers died with it; anything
                    // else addressed to it counts as dropped.
                    if !matches!(ev, NodeEvent::Timer { .. }) {
                        self.dropped += 1;
                    }
                    continue;
                }
                if matches!(ev, NodeEvent::Msg { .. }) {
                    slot.stats.received += 1;
                }
                let host = Some(slot.node()).filter(|_| sharded);
                let hint = match &ev {
                    NodeEvent::Msg { msg, .. } => host.map(|n| n.msg_shard(msg)),
                    NodeEvent::Timer { .. } => None,
                    // Not a fence, so the classification is Prefix.
                    NodeEvent::External { ev } => host.map(|n| match n.classify_external(ev) {
                        ExternalClass::Prefix { shard_hint } => shard_hint,
                        ExternalClass::Fence => 0,
                    }),
                };
                horizon = horizon.min(t.saturating_add(leads[home]));
                batch.push((home, t, id, ev, hint));
            }
            self.now = window_end;
            let n = batch.len();
            if n == 0 {
                continue;
            }
            // Partition by node, preserving ascending event order
            // within each task; the first explicit hint of a node's
            // events picks its worker, falling back to the node id.
            let mut task_of: BTreeMap<usize, usize> = BTreeMap::new();
            let mut tasks: Vec<Task<P>> = Vec::new();
            for (pos, (home, t, id, ev, hint)) in batch.into_iter().enumerate() {
                let slot = *task_of.entry(home).or_insert_with(|| {
                    let node_id = self.ids[home];
                    tasks.push(Task {
                        slot: tasks.len(),
                        home,
                        node_id,
                        node: self.slots[home]
                            .node
                            .take()
                            .expect("node already out on a worker"),
                        events: Vec::new(),
                        worker: (node_id.0 as usize) % workers,
                    });
                    tasks.len() - 1
                });
                if tasks[slot].events.is_empty() {
                    if let Some(h) = hint {
                        tasks[slot].worker = (h as usize) % workers;
                    }
                }
                tasks[slot].events.push((pos as u32, t, id, ev));
            }
            if profiling {
                windows += 1;
                max_window_batch = max_window_batch.max(n);
            }
            let k = tasks.len();
            for task in tasks {
                task_txs[task.worker].send(task).expect("worker hung up");
            }
            // Re-key results by slot, hand the nodes back, and build
            // the pos -> (slot, time, action count) index.
            let mut per_pos: Vec<(u32, Time, u32)> = vec![(0, 0, 0); n];
            let mut iters: Vec<Option<std::vec::IntoIter<Action<P::Msg>>>> =
                (0..k).map(|_| None).collect();
            let mut from_of: Vec<usize> = vec![0; k];
            for _ in 0..k {
                let r = res_rx.recv().expect("worker panicked");
                for &(pos, t, count) in &r.bounds {
                    per_pos[pos as usize] = (r.slot as u32 + 1, t, count);
                }
                self.slots[r.home].node = Some(r.node);
                from_of[r.slot] = r.home;
                iters[r.slot] = Some(r.actions.into_iter());
            }
            // Merge: apply every callback's actions in ascending window
            // order with `now` set to the originating event's time —
            // the exact interleaving (and sequence-id assignment) of
            // the sequential loop.
            for &(slot1, t, count) in per_pos.iter() {
                if slot1 == 0 {
                    continue;
                }
                let slot = (slot1 - 1) as usize;
                let from = from_of[slot];
                self.now = t;
                let it = iters[slot].as_mut().expect("result slot unfilled");
                for _ in 0..count {
                    let action = it.next().expect("action bounds out of sync");
                    let lands = self.apply_action(from, action);
                    // The lookahead promise, checked: anything earlier
                    // belongs before an event this window already ran.
                    assert!(
                        lands.is_none_or(|at| at >= window_end),
                        "node {:?} scheduled an event at t={lands:?} from its callback at \
                         t={t}, inside a window that runs to t={window_end}: its \
                         Protocol::timer_lead() promise of {} us does not hold",
                        self.ids[from],
                        self.slots[from].node().timer_lead()
                    );
                }
            }
            self.now = window_end;
        };
        obs::trace::clear_dispatch();
        self.record_run_metrics(events);
        if let Some(t0) = run_start {
            obs::profile::run_finished(obs::profile::RunProfile {
                engine: engine.name(),
                threads: workers,
                wall_ns: t0.elapsed().as_nanos() as u64,
                events,
                epochs: windows,
                fences,
                max_queue,
                max_epoch_batch: max_window_batch,
                task_ns: 0,
            });
        }
        RunOutcome {
            quiesced,
            events,
            end_time: self.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::NodeStats;

    /// Every Gossip test runs under each of these against `Sim::run`.
    const ENGINES: [Engine; 4] = [
        Engine::Epoch(2),
        Engine::Epoch(8),
        Engine::Sharded(2),
        Engine::Sharded(8),
    ];

    /// Echoes every received number minus one to both ring neighbours,
    /// with same-instant self-timer cascades, to generate deep
    /// same-timestamp fan-out across many nodes. `timer_lead` stays at
    /// the default 0, so the sharded policy's windows degenerate to
    /// per-timestamp epochs too — the sound fallback the loop must get
    /// right before lookahead buys anything.
    struct Gossip {
        peers: Vec<RouterId>,
        sum: u64,
        log: Vec<(RouterId, u32)>,
    }

    impl Protocol for Gossip {
        type Msg = u32;
        type External = u32;

        fn on_message(&mut self, ctx: &mut Ctx<u32>, from: RouterId, msg: u32) {
            self.sum += msg as u64;
            self.log.push((from, msg));
            if msg > 0 {
                for &p in &self.peers {
                    ctx.send(p, msg - 1);
                }
            }
        }

        fn on_external(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
            if ev >= 100 {
                // Start a same-instant self-timer cascade of length
                // `ev - 100`.
                ctx.set_timer(ctx.now(), (ev - 100) as u64);
                return;
            }
            for &p in &self.peers {
                ctx.send(p, ev);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<u32>, token: u64) {
            self.sum += token;
            // Same-timestamp self-timer chain exercises intra-window
            // event creation.
            if token > 0 {
                ctx.set_timer(ctx.now(), token - 1);
            }
        }

        fn on_session_down(&mut self, _ctx: &mut Ctx<u32>, peer: RouterId) {
            self.log.push((peer, u32::MAX));
        }

        fn on_session_up(&mut self, _ctx: &mut Ctx<u32>, peer: RouterId) {
            self.log.push((peer, u32::MAX - 1));
        }

        fn on_restart(&mut self, _ctx: &mut Ctx<u32>) {
            self.sum = 0;
            self.log.clear();
        }

        fn msg_shard(&self, msg: &u32) -> u64 {
            // Deliberately scatter: shard by payload parity to prove
            // routing is a locality lever, not a correctness one.
            (*msg % 2) as u64
        }
    }

    fn ring(n: u32, latency_of: impl Fn(u32) -> Time) -> Sim<Gossip> {
        let mut sim = Sim::new();
        for i in 0..n {
            let peers = vec![RouterId((i + 1) % n), RouterId((i + n - 1) % n)];
            sim.add_node(
                RouterId(i),
                Gossip {
                    peers,
                    sum: 0,
                    log: vec![],
                },
            );
        }
        for i in 0..n {
            let j = (i + 1) % n;
            sim.add_session(RouterId(i), RouterId(j), latency_of(i));
        }
        sim
    }

    type Fingerprint = (
        Vec<(RouterId, u64, Vec<(RouterId, u32)>, NodeStats)>,
        u64,
        Time,
    );

    fn fingerprint(sim: &Sim<Gossip>) -> Fingerprint {
        let nodes = sim
            .nodes()
            .map(|(id, g)| (id, g.sum, g.log.clone(), sim.stats(id)))
            .collect();
        (nodes, sim.dropped_messages(), sim.now())
    }

    fn seed(sim: &mut Sim<Gossip>) {
        sim.schedule_external(0, RouterId(0), 6);
        sim.schedule_external(0, RouterId(3), 6);
        sim.schedule_external(5, RouterId(1), 4);
        // Faults mid-run: fences must interleave correctly.
        sim.schedule_session_down(20, RouterId(0), RouterId(1));
        sim.schedule_node_down(40, RouterId(2));
        sim.schedule_node_up(60, RouterId(2));
        sim.schedule_session_up(70, RouterId(0), RouterId(1), 10);
        sim.schedule_external(80, RouterId(0), 3);
    }

    /// Runs `drive` on a fresh `build()` sim under `Engine::Seq` (which
    /// is `Sim::run`) and under each of [`ENGINES`], requiring identical
    /// outcomes and node state (logs, sums, counters, drops, clock).
    fn assert_engines_match(
        build: impl Fn() -> Sim<Gossip>,
        drive: impl Fn(&mut Sim<Gossip>, Engine) -> RunOutcome,
    ) {
        let mut seq = build();
        let out_seq = drive(&mut seq, Engine::Seq);
        for engine in ENGINES {
            let mut par = build();
            let out_par = drive(&mut par, engine);
            assert_eq!(out_seq, out_par, "outcome differs under {engine:?}");
            assert_eq!(
                fingerprint(&seq),
                fingerprint(&par),
                "state differs under {engine:?}"
            );
        }
    }

    fn seeded_ring(n: u32, latency_of: impl Fn(u32) -> Time) -> Sim<Gossip> {
        let mut sim = ring(n, latency_of);
        seed(&mut sim);
        sim
    }

    #[test]
    fn matches_sequential_uniform_latency() {
        // Uniform latency: large same-timestamp windows.
        assert_engines_match(
            || seeded_ring(8, |_| 10),
            |sim, engine| sim.run_engine(engine, RunLimits::default()),
        );
    }

    #[test]
    fn matches_sequential_skewed_latency() {
        // Distinct latencies: windows shrink to single events — the
        // degenerate case must still match exactly.
        assert_engines_match(
            || seeded_ring(8, |i| 7 + 13 * (i as Time)),
            |sim, engine| sim.run_engine(engine, RunLimits::default()),
        );
    }

    #[test]
    fn respects_event_limit_identically() {
        let limits = RunLimits {
            max_events: 37,
            max_time: Time::MAX,
        };
        assert_engines_match(
            || seeded_ring(6, |_| 5),
            |sim, engine| {
                let out = sim.run_engine(engine, limits);
                assert!(!out.quiesced);
                out
            },
        );
    }

    #[test]
    fn respects_time_limit_identically() {
        let limits = RunLimits {
            max_events: u64::MAX,
            max_time: 45,
        };
        assert_engines_match(
            || seeded_ring(6, |_| 5),
            |sim, engine| sim.run_engine(engine, limits),
        );
    }

    #[test]
    fn same_timestamp_timer_chains_match() {
        // Self-timer cascades at a single instant interleaved with
        // message traffic: events created *during* a window's merge
        // must be drained at the same timestamp in id order.
        assert_engines_match(
            || {
                let mut sim = ring(4, |_| 10);
                sim.schedule_external(0, RouterId(0), 2);
                sim.schedule_external(10, RouterId(1), 105); // cascade of 5 at t=10
                sim.schedule_external(10, RouterId(2), 103); // cascade of 3 at t=10
                sim.schedule_external(15, RouterId(1), 0);
                sim
            },
            |sim, engine| {
                let out = sim.run_engine(engine, RunLimits::default());
                assert!(sim.node(RouterId(1)).sum >= 15);
                out
            },
        );
    }

    #[test]
    fn sequential_run_can_continue_after_engine_run() {
        // The engines share all state; interleaving them mid-stream
        // must behave like one continuous run.
        let limits = RunLimits {
            max_events: 25,
            max_time: Time::MAX,
        };
        assert_engines_match(
            || seeded_ring(8, |_| 10),
            |sim, engine| {
                sim.run_engine(engine, limits);
                sim.run_to_quiescence()
            },
        );
    }

    /// A protocol with a real lookahead promise: every timer it sets is
    /// at least LEAD in the future, and it classifies one external as a
    /// fence. Exercises multi-timestamp windows (distinct per-session
    /// latencies keep events from clustering at one instant) plus the
    /// fence path, against the sequential oracle.
    const LEAD: Time = 4;

    struct Paced {
        peers: Vec<RouterId>,
        fired: Vec<(Time, u64)>,
        got: Vec<(Time, RouterId, u32)>,
        resets: u32,
    }

    enum PacedEv {
        Kick(u32),
        Reset,
    }

    impl Protocol for Paced {
        type Msg = u32;
        type External = PacedEv;

        fn on_message(&mut self, ctx: &mut Ctx<u32>, from: RouterId, msg: u32) {
            self.got.push((ctx.now(), from, msg));
            if msg > 0 {
                // Re-arm a paced retransmit and forward.
                ctx.set_timer(ctx.now() + LEAD + (msg as Time % 3), msg as u64);
                for &p in &self.peers {
                    ctx.send(p, msg - 1);
                }
            }
        }

        fn on_external(&mut self, ctx: &mut Ctx<u32>, ev: PacedEv) {
            match ev {
                PacedEv::Kick(v) => {
                    for &p in &self.peers {
                        ctx.send(p, v);
                    }
                }
                PacedEv::Reset => {
                    self.resets += 1;
                    self.fired.clear();
                    self.got.clear();
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<u32>, token: u64) {
            self.fired.push((ctx.now(), token));
            if token > 1 {
                ctx.set_timer(ctx.now() + LEAD, token - 2);
            }
        }

        fn classify_external(&self, ev: &PacedEv) -> ExternalClass {
            match ev {
                PacedEv::Kick(v) => ExternalClass::Prefix {
                    shard_hint: *v as u64,
                },
                PacedEv::Reset => ExternalClass::Fence,
            }
        }

        fn msg_shard(&self, msg: &u32) -> u64 {
            *msg as u64
        }

        fn timer_lead(&self) -> Time {
            LEAD
        }
    }

    fn paced_ring(n: u32) -> Sim<Paced> {
        let mut sim = Sim::new();
        for i in 0..n {
            let peers = vec![RouterId((i + 1) % n), RouterId((i + n - 1) % n)];
            sim.add_node(
                RouterId(i),
                Paced {
                    peers,
                    fired: vec![],
                    got: vec![],
                    resets: 0,
                },
            );
        }
        for i in 0..n {
            let j = (i + 1) % n;
            // Distinct latencies: no two deliveries share a timestamp,
            // so only genuine lookahead (latency + timer_lead) can
            // batch more than one event per window.
            sim.add_session(RouterId(i), RouterId(j), 5 + (i as Time) * 3);
        }
        sim
    }

    fn seed_paced(sim: &mut Sim<Paced>) {
        sim.schedule_external(0, RouterId(0), PacedEv::Kick(9));
        sim.schedule_external(2, RouterId(4), PacedEv::Kick(7));
        sim.schedule_external(33, RouterId(1), PacedEv::Reset);
        sim.schedule_session_down(50, RouterId(2), RouterId(3));
        sim.schedule_external(60, RouterId(5), PacedEv::Kick(5));
    }

    type PacedPrint = (
        Vec<(RouterId, Vec<(Time, u64)>, Vec<(Time, RouterId, u32)>, u32)>,
        u64,
    );

    fn paced_print(sim: &Sim<Paced>) -> PacedPrint {
        let nodes = sim
            .nodes()
            .map(|(id, p)| (id, p.fired.clone(), p.got.clone(), p.resets))
            .collect();
        (nodes, sim.dropped_messages())
    }

    #[test]
    fn lookahead_windows_match_sequential() {
        let mut seq = paced_ring(7);
        seed_paced(&mut seq);
        let out_seq = seq.run_to_quiescence();
        assert!(out_seq.quiesced);

        for engine in ENGINES {
            let mut par = paced_ring(7);
            seed_paced(&mut par);
            let out_par = par.run_engine(engine, RunLimits::default());
            assert_eq!(out_seq, out_par, "outcome differs under {engine:?}");
            assert_eq!(
                paced_print(&seq),
                paced_print(&par),
                "state differs under {engine:?}"
            );
        }
    }

    #[test]
    fn lookahead_actually_batches_multiple_timestamps() {
        // Sanity that the Paced fixture exercises windows wider than
        // one timestamp (otherwise the test above proves nothing new):
        // profile the run and check a window batched events from more
        // than one instant — fewer windows than non-fence events.
        obs::profile::set_enabled(true);
        obs::profile::take_runs();
        let mut sh = paced_ring(7);
        seed_paced(&mut sh);
        // 5 workers: no other test in this binary runs at 5, so the
        // profile below is unambiguous even if tests race on the
        // global profile store while profiling is enabled.
        sh.run_engine(Engine::Sharded(5), RunLimits::default());
        obs::profile::set_enabled(false);
        let runs = obs::profile::take_runs();
        let prof = runs
            .iter()
            .find(|p| p.engine == "sharded" && p.threads == 5)
            .expect("profile");
        assert!(prof.fences >= 2, "reset + session_down fence: {prof:?}");
        assert!(
            prof.epochs < prof.events - prof.fences,
            "windows never batched: {prof:?}"
        );
    }

    /// Promises a 10 us timer lead and then sets a timer 1 us out.
    struct UnderReports;

    impl Protocol for UnderReports {
        type Msg = ();
        type External = ();

        fn on_message(&mut self, _: &mut Ctx<()>, _: RouterId, _: ()) {}

        fn on_external(&mut self, ctx: &mut Ctx<()>, _: ()) {
            ctx.set_timer(ctx.now() + 1, 0);
        }

        fn timer_lead(&self) -> Time {
            10
        }
    }

    #[test]
    #[should_panic(expected = "Protocol::timer_lead() promise of 10 us does not hold")]
    fn under_reported_lead_panics_instead_of_diverging() {
        let mut sim = Sim::new();
        sim.add_node(RouterId(0), UnderReports);
        sim.add_node(RouterId(1), UnderReports);
        sim.add_session(RouterId(0), RouterId(1), 10);
        // The promised lead puts t=0 and t=5 in one window; node 0's
        // timer then lands at t=1, before the t=5 event that already
        // ran — `Sim::run` would have fired it in between.
        sim.schedule_external(0, RouterId(0), ());
        sim.schedule_external(5, RouterId(1), ());
        sim.run_engine(Engine::Sharded(2), RunLimits::default());
    }
}
