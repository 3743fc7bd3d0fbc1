//! The event loop, sessions, timers, and per-node statistics.

use crate::queue::EventQueue;
use bgp_types::RouterId;

/// Simulated time in microseconds.
pub type Time = u64;

/// How the sharded engine ([`Engine::Sharded`]) treats an external
/// event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExternalClass {
    /// Prefix-plane work (route feeds and withdrawals):
    /// a pure per-node callback the engine batches into windows. The
    /// hint steers the event's node task to a shard worker — events
    /// sharing a hint (e.g. an Address Partition id) land on the same
    /// worker. Hints are a locality lever, never a correctness one.
    Prefix {
        /// Shard-affinity hint (e.g. the AP id covering the prefix).
        shard_hint: u64,
    },
    /// Session-plane work (session resets, role reassignment,
    /// transition cutovers): acts as a synchronization fence — every
    /// in-flight window drains, then the event runs on the sequential
    /// dispatch path before the next window opens.
    Fence,
}

/// How a session carries protocol messages between nodes.
///
/// The simulator itself is transport-agnostic — a [`Protocol`]'s `Msg`
/// type can be an in-memory struct, an encoded byte frame, or a sum of
/// both. This knob names the two session transports the BGP stack
/// supports, so specs, CLIs, and oracles share one vocabulary:
///
/// * [`WireMode::Off`] — sessions carry in-memory structs (the
///   historical behavior; zero codec cost).
/// * [`WireMode::Bytes`] — sessions carry encoded bytes end-to-end;
///   the receiver decodes them before processing, exactly as a real
///   speaker parses its TCP stream. Behavior is bit-identical to `Off`
///   unless the codec is broken, so a run in each mode is the codec's
///   end-to-end oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WireMode {
    /// Sessions carry in-memory structs (no codec on the path).
    #[default]
    Off,
    /// Sessions carry encoded bytes end-to-end.
    Bytes,
}

impl WireMode {
    /// Stable mode name (`"off"`, `"bytes"`).
    pub fn name(self) -> &'static str {
        match self {
            WireMode::Off => "off",
            WireMode::Bytes => "bytes",
        }
    }

    /// Parses a mode name as used by CLI flags (`--wire`).
    pub fn parse(s: &str) -> Option<WireMode> {
        match s {
            "off" => Some(WireMode::Off),
            "bytes" => Some(WireMode::Bytes),
            _ => None,
        }
    }
}

/// Selects one of the execution engines sharing a [`Sim`]'s state
/// ([`Sim::run_engine`]). All three produce bit-identical outcomes,
/// traces, and fingerprints; they differ only in how work is scheduled
/// onto OS threads. The two parallel engines are scheduling policies of
/// one window loop (see [`crate::window`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The sequential oracle loop ([`Sim::run`]).
    Seq,
    /// Conservative per-timestamp epochs on N workers: zero lookahead,
    /// global events as the only fences, tasks routed by node id.
    Epoch(usize),
    /// AP-sharded multi-timestamp windows on N shard workers: per-node
    /// lookahead, protocol-declared fences, AP shard hints.
    Sharded(usize),
}

impl Engine {
    /// Stable engine name (`"seq"`, `"epoch"`, `"sharded"`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Seq => "seq",
            Engine::Epoch(_) => "epoch",
            Engine::Sharded(_) => "sharded",
        }
    }

    /// Worker count (0 for the sequential engine).
    pub fn workers(self) -> usize {
        match self {
            Engine::Seq => 0,
            Engine::Epoch(n) | Engine::Sharded(n) => n,
        }
    }
}

/// A protocol state machine hosted on a simulator node.
///
/// Callbacks receive a [`Ctx`] through which the node sends messages and
/// sets timers; effects are applied by the simulator after the callback
/// returns, keeping the event loop single-owner and deterministic.
pub trait Protocol {
    /// Messages exchanged between nodes over sessions.
    type Msg: Clone;
    /// Events injected from outside the simulated AS (eBGP feeds,
    /// configuration changes).
    type External;

    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Ctx<Self::Msg>) {}
    /// A message arrived from `from` on an established session.
    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: RouterId, msg: Self::Msg);
    /// An external event was injected into this node.
    fn on_external(&mut self, ctx: &mut Ctx<Self::Msg>, ev: Self::External);
    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<Self::Msg>, _token: u64) {}
    /// The session to `peer` went down (scheduled failure or the peer
    /// crashed). Fired exactly once per surviving endpoint, after
    /// in-flight messages on the session have been discarded.
    fn on_session_down(&mut self, _ctx: &mut Ctx<Self::Msg>, _peer: RouterId) {}
    /// A session to `peer` (re-)established via
    /// [`Sim::schedule_session_up`]. Fired once per endpoint.
    fn on_session_up(&mut self, _ctx: &mut Ctx<Self::Msg>, _peer: RouterId) {}
    /// This node restarted after a crash. All soft state (RIBs learned
    /// over sessions, timers) was lost with the crash; the protocol
    /// must reset itself here. Sessions are *not* restored
    /// automatically — re-establishment arrives later as
    /// `on_session_up` callbacks.
    fn on_restart(&mut self, _ctx: &mut Ctx<Self::Msg>) {}

    /// Classifies an external event about to be injected into this node
    /// for the sharded engine ([`Engine::Sharded`]): prefix-plane
    /// events batch freely inside a window; session-plane events fence.
    /// The default treats every external as prefix-plane work with a
    /// neutral shard hint — correct for any protocol, since fencing is
    /// only *required* for events whose handler rewrites cross-prefix
    /// routing structure (see `crate::window`).
    fn classify_external(&self, _ev: &Self::External) -> ExternalClass {
        ExternalClass::Prefix { shard_hint: 0 }
    }

    /// Shard-affinity hint for a message about to be delivered to this
    /// node (e.g. the Address Partition its prefix belongs to). Events
    /// sharing a hint are routed to the same shard worker for locality;
    /// the hint never affects results. Default: everything on hint 0.
    fn msg_shard(&self, _msg: &Self::Msg) -> u64 {
        0
    }

    /// Lower bound on how far in the future this node's callbacks set
    /// timers: returning `d` promises that every `Ctx::set_timer(at, _)`
    /// issued from a callback running at time `t` has `at >= t + d`,
    /// for the whole lifetime of the node. The sharded engine uses the
    /// promise (with session latencies) to widen its lookahead windows
    /// past single timestamps. The default, 0, promises nothing —
    /// windows then degenerate to per-timestamp epochs, which is always
    /// sound. Return [`Time::MAX`] if the node never sets timers.
    fn timer_lead(&self) -> Time {
        0
    }
}

/// Side-effect collector handed to protocol callbacks.
pub struct Ctx<M> {
    now: Time,
    node: RouterId,
    actions: Vec<Action<M>>,
}

pub(crate) enum Action<M> {
    Send { to: RouterId, msg: M },
    SetTimer { at: Time, token: u64 },
}

impl<M> Ctx<M> {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the node this callback runs on.
    pub fn me(&self) -> RouterId {
        self.node
    }

    /// Sends `msg` to `to`. A session between the two nodes must exist
    /// by delivery time; sends without a session are dropped and counted
    /// in [`Sim::dropped_messages`].
    pub fn send(&mut self, to: RouterId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Schedules `on_timer(token)` at absolute time `at` (clamped to be
    /// at least now).
    pub fn set_timer(&mut self, at: Time, token: u64) {
        self.actions.push(Action::SetTimer { at, token });
    }

    /// Builds a context for a window worker, reusing `actions` as the
    /// collection buffer.
    pub(crate) fn for_worker(now: Time, node: RouterId, actions: Vec<Action<M>>) -> Self {
        Ctx { now, node, actions }
    }

    /// Consumes the context, returning the collected actions.
    pub(crate) fn into_actions(self) -> Vec<Action<M>> {
        self.actions
    }
}

pub(crate) enum Event<P: Protocol> {
    Deliver {
        from: RouterId,
        to: RouterId,
        msg: P::Msg,
    },
    Timer {
        node: RouterId,
        token: u64,
    },
    External {
        node: RouterId,
        ev: P::External,
    },
    SessionDown {
        a: RouterId,
        b: RouterId,
    },
    SessionUp {
        a: RouterId,
        b: RouterId,
        latency: Time,
    },
    NodeDown {
        node: RouterId,
    },
    NodeUp {
        node: RouterId,
    },
}

/// Per-node message counters.
///
/// `transmitted` counts messages put on the wire by the node;
/// `received` counts messages delivered to it. "Generated" updates (the
/// expensive RIB-Out recomputations, paper §4.2) are an engine-level
/// concept counted by the protocol implementation itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Messages sent by this node.
    pub transmitted: u64,
    /// Messages delivered to this node.
    pub received: u64,
}

/// Limits for a [`Sim::run`] call.
#[derive(Clone, Copy, Debug)]
pub struct RunLimits {
    /// Stop after this many events (oscillation guard).
    pub max_events: u64,
    /// Stop once simulated time exceeds this.
    pub max_time: Time,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_events: 10_000_000,
            max_time: Time::MAX,
        }
    }
}

/// How to run a scenario: the knob set the scenario DSL's one run
/// entry point (`Loaded::run`) takes, and with it the bench goldens.
/// It runs [`Sim::run`]; choosing an engine is [`Sim::run_engine`]'s
/// business alone. The default is in-memory structs with no caller limit.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Session transport, written into the spec the sim is built from.
    pub wire: WireMode,
    /// Caps on every run segment, on top of whatever budget the
    /// scenario itself declares. The default imposes none — unlike
    /// [`RunLimits::default`], which guards against oscillation.
    pub limits: RunLimits,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            wire: WireMode::Off,
            limits: RunLimits {
                max_events: u64::MAX,
                max_time: Time::MAX,
            },
        }
    }
}

/// The result of a [`Sim::run`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// True when the event queue drained — the network converged. False
    /// means a limit was hit first; with sensible limits this is the
    /// oscillation signal used by the correctness experiments.
    pub quiesced: bool,
    /// Events processed during this call.
    pub events: u64,
    /// Simulated time when the call returned.
    pub end_time: Time,
}

/// Everything the simulator keeps per node, in one place, so an event
/// finds its node, its counters, its liveness and its sessions with one
/// lookup. The node's id lives apart, in [`Sim`]'s `ids`.
pub(crate) struct Slot<P> {
    /// The protocol state, borrowed where it lies by every sequential
    /// callback. `None` only while a window of [`crate::window`] has
    /// the node out on a worker thread.
    pub(crate) node: Option<P>,
    pub(crate) stats: NodeStats,
    /// False between a crash and the matching restart.
    pub(crate) up: bool,
    /// The node's sessions as `(peer, one-way latency)`, sorted by
    /// peer; each session is listed at both ends. A send finds its
    /// latency here, in the sender's own slot.
    pub(crate) sessions: Vec<(RouterId, Time)>,
}

impl<P> Slot<P> {
    /// The latency of the session to `peer`, if there is one.
    pub(crate) fn latency_to(&self, peer: RouterId) -> Option<Time> {
        let i = self.sessions.binary_search_by_key(&peer, |&(p, _)| p);
        i.ok().map(|i| self.sessions[i].1)
    }

    /// Adds the session to `peer`, or re-times it.
    fn connect(&mut self, peer: RouterId, latency: Time) {
        match self.sessions.binary_search_by_key(&peer, |&(p, _)| p) {
            Ok(i) => self.sessions[i].1 = latency,
            Err(i) => self.sessions.insert(i, (peer, latency)),
        }
    }

    /// Removes the session to `peer`; whether there was one.
    fn disconnect(&mut self, peer: RouterId) -> bool {
        let i = self.sessions.binary_search_by_key(&peer, |&(p, _)| p);
        i.map(|i| self.sessions.remove(i)).is_ok()
    }

    /// The node, which is home whenever the sequential path runs.
    pub(crate) fn node(&self) -> &P {
        // Invariant: a window hands back every node it took out.
        self.node.as_ref().expect("node is out on a window worker")
    }

    fn node_mut(&mut self) -> &mut P {
        // Invariant: as in `node`.
        self.node.as_mut().expect("node is out on a window worker")
    }
}

/// The simulator: nodes, sessions, and the event queue.
pub struct Sim<P: Protocol> {
    /// Every node's id, sorted: the binary search an event makes to
    /// find its node reads these 4-byte ids, not the slots.
    pub(crate) ids: Vec<RouterId>,
    /// One slot per node, indexed like `ids`, so in id order for every
    /// iteration.
    pub(crate) slots: Vec<Slot<P>>,
    /// Pending events in `(time, id)` order; the queue numbers them.
    pub(crate) queue: EventQueue<Event<P>>,
    pub(crate) now: Time,
    pub(crate) dropped: u64,
    pub(crate) started: bool,
    /// Pooled action buffer reused across sequential callbacks so the
    /// event loop does not allocate a fresh `Vec` per callback.
    action_buf: Vec<Action<P::Msg>>,
}

impl<P: Protocol> Default for Sim<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Protocol> Sim<P> {
    /// Creates an empty simulator at time 0.
    pub fn new() -> Self {
        Sim {
            ids: Vec::new(),
            slots: Vec::new(),
            queue: EventQueue::default(),
            now: 0,
            dropped: 0,
            started: false,
            action_buf: Vec::new(),
        }
    }

    /// Adds a node. Panics on duplicate ids.
    pub fn add_node(&mut self, id: RouterId, node: P) {
        let Err(at) = self.ids.binary_search(&id) else {
            // Invariant: callers add each id once (`build_sim` dedups).
            panic!("duplicate node {id:?}");
        };
        self.ids.insert(at, id);
        self.slots.insert(
            at,
            Slot {
                node: Some(node),
                stats: NodeStats::default(),
                up: true,
                sessions: Vec::new(),
            },
        );
    }

    /// The index of `id`'s slot.
    pub(crate) fn slot_of(&self, id: RouterId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Establishes a bidirectional session with symmetric one-way
    /// latency. Both endpoints must already exist.
    pub fn add_session(&mut self, a: RouterId, b: RouterId, latency: Time) {
        assert!(a != b, "self-session");
        assert!(self.contains_node(a), "unknown node {a:?}");
        assert!(self.contains_node(b), "unknown node {b:?}");
        for (me, peer) in [(a, b), (b, a)] {
            // Invariant: both ends were asserted present above.
            let i = self.slot_of(me).expect("checked above");
            self.slots[i].connect(peer, latency);
        }
    }

    /// Removes a session (session failure). In-flight messages on the
    /// session are discarded — TCP delivers nothing across a torn-down
    /// connection — and counted in [`Sim::dropped_messages`]. Protocol
    /// hooks do **not** fire; use [`Sim::schedule_session_down`] for a
    /// failure the endpoints react to.
    pub fn remove_session(&mut self, a: RouterId, b: RouterId) {
        let (Some(i), Some(j)) = (self.slot_of(a), self.slot_of(b)) else {
            return;
        };
        if self.slots[i].disconnect(b) {
            self.slots[j].disconnect(a);
            self.drop_in_flight(a, b);
        }
    }

    /// Discards queued `Deliver` events between `a` and `b` (either
    /// direction), counting them as dropped.
    fn drop_in_flight(&mut self, a: RouterId, b: RouterId) {
        let mut dropped = 0u64;
        self.queue.retain(|ev| match ev {
            Event::Deliver { from, to, .. }
                if (*from == a && *to == b) || (*from == b && *to == a) =>
            {
                dropped += 1;
                false
            }
            _ => true,
        });
        self.dropped += dropped;
    }

    /// Discards queued events involving `node`: deliveries to or from
    /// it (in-flight on the wire) and its timers (state lost in the
    /// crash). External events survive — the outside feed does not die
    /// with the router.
    fn drop_node_events(&mut self, node: RouterId) {
        let mut dropped = 0u64;
        self.queue.retain(|ev| match ev {
            Event::Deliver { from, to, .. } if *from == node || *to == node => {
                dropped += 1;
                false
            }
            Event::Timer { node: n, .. } if *n == node => false,
            _ => true,
        });
        self.dropped += dropped;
    }

    /// Whether a session between `a` and `b` exists.
    pub fn has_session(&self, a: RouterId, b: RouterId) -> bool {
        self.slot_of(a)
            .is_some_and(|i| self.slots[i].latency_to(b).is_some())
    }

    /// Number of sessions.
    pub fn num_sessions(&self) -> usize {
        self.slots.iter().map(|s| s.sessions.len()).sum::<usize>() / 2
    }

    /// Iterates `((a, b), latency)` over established sessions, with
    /// `a < b`, in `(a, b)` order.
    pub fn sessions(&self) -> impl Iterator<Item = ((RouterId, RouterId), Time)> + '_ {
        self.ids.iter().zip(&self.slots).flat_map(|(&a, slot)| {
            let later = slot.sessions.iter().filter(move |&&(b, _)| a < b);
            later.map(move |&(b, latency)| ((a, b), latency))
        })
    }

    /// Whether `node` is currently up (not crashed).
    pub fn is_node_up(&self, node: RouterId) -> bool {
        self.slot_of(node).is_none_or(|i| self.slots[i].up)
    }

    /// Injects an external event at absolute time `at`.
    pub fn schedule_external(&mut self, at: Time, node: RouterId, ev: P::External) {
        assert!(self.contains_node(node), "unknown node {node:?}");
        self.queue
            .push(at.max(self.now), Event::External { node, ev });
    }

    /// Schedules a session failure at `at`: in-flight messages are
    /// discarded and both surviving endpoints get `on_session_down`.
    pub fn schedule_session_down(&mut self, at: Time, a: RouterId, b: RouterId) {
        assert!(self.contains_node(a), "unknown node {a:?}");
        assert!(self.contains_node(b), "unknown node {b:?}");
        self.queue
            .push(at.max(self.now), Event::SessionDown { a, b });
    }

    /// Schedules a session (re-)establishment at `at`: the session is
    /// added and both endpoints get `on_session_up`. Ignored if either
    /// endpoint is down at that time.
    pub fn schedule_session_up(&mut self, at: Time, a: RouterId, b: RouterId, latency: Time) {
        assert!(a != b, "self-session");
        assert!(self.contains_node(a), "unknown node {a:?}");
        assert!(self.contains_node(b), "unknown node {b:?}");
        self.queue
            .push(at.max(self.now), Event::SessionUp { a, b, latency });
    }

    /// Schedules a router crash at `at`: every session of the node is
    /// torn down (peers get `on_session_down`), its in-flight messages
    /// and timers are discarded, and events addressed to it are dropped
    /// until a matching [`Sim::schedule_node_up`].
    pub fn schedule_node_down(&mut self, at: Time, node: RouterId) {
        assert!(self.contains_node(node), "unknown node {node:?}");
        self.queue.push(at.max(self.now), Event::NodeDown { node });
    }

    /// Schedules a router restart at `at`: the node comes back with
    /// `on_restart` (its protocol must reset lost state) but no
    /// sessions — schedule those separately.
    pub fn schedule_node_up(&mut self, at: Time, node: RouterId) {
        assert!(self.contains_node(node), "unknown node {node:?}");
        self.queue.push(at.max(self.now), Event::NodeUp { node });
    }

    /// Calls `on_start` on every node (once).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.slots.len() {
            self.with_slot(i, |node, ctx| node.on_start(ctx));
        }
    }

    /// Runs the event loop until quiescence or a limit.
    pub fn run(&mut self, limits: RunLimits) -> RunOutcome {
        let profiling = obs::profile::enabled();
        let run_start = profiling.then(std::time::Instant::now);
        if profiling {
            obs::profile::run_started();
        }
        obs::trace::new_run();
        self.start();
        let mut events = 0u64;
        let mut max_queue = 0usize;
        let mut quiesced = true;
        while let Some(at) = self.queue.peek_time() {
            if events >= limits.max_events || at > limits.max_time {
                quiesced = false;
                break;
            }
            if profiling {
                max_queue = max_queue.max(self.queue.len());
            }
            // Invariant: `peek_time` just found this event.
            let (at, id, ev) = self.queue.pop().expect("peeked event vanished");
            self.now = at;
            events += 1;
            // Stamp the trace dispatch context with this event's
            // (time, id) — the window workers stamp the same pairs,
            // which is what makes merged traces byte-identical.
            obs::trace::set_dispatch(at, id);
            self.dispatch_event(ev);
        }
        obs::trace::clear_dispatch();
        self.record_run_metrics(events);
        if let Some(t0) = run_start {
            obs::profile::run_finished(obs::profile::RunProfile {
                engine: "seq",
                threads: 0,
                wall_ns: t0.elapsed().as_nanos() as u64,
                events,
                max_queue,
                ..Default::default()
            });
        }
        RunOutcome {
            quiesced,
            events,
            end_time: self.now,
        }
    }

    /// Mirrors run-level totals into the metrics registry (one batched
    /// add per run — never per event). Shared by every engine.
    pub(crate) fn record_run_metrics(&self, events: u64) {
        if !obs::metrics::enabled() {
            return;
        }
        static EVENTS: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
        static DROPPED: std::sync::OnceLock<obs::Gauge> = std::sync::OnceLock::new();
        EVENTS
            .get_or_init(|| obs::metrics::counter("netsim.events", None))
            .add(events);
        DROPPED
            .get_or_init(|| obs::metrics::gauge("netsim.msg.dropped", None))
            .set(self.dropped);
    }

    /// Applies a single event at the current time. Shared by the
    /// sequential loop and (for fences) the window loop in
    /// [`crate::window`]. An event addressed to a node that was never
    /// added is a no-op.
    pub(crate) fn dispatch_event(&mut self, ev: Event<P>) {
        match ev {
            Event::Deliver { from, to, msg } => {
                let Some(i) = self.slot_of(to) else { return };
                let slot = &mut self.slots[i];
                if !slot.up {
                    self.dropped += 1;
                    return;
                }
                slot.stats.received += 1;
                self.with_slot(i, |node, ctx| node.on_message(ctx, from, msg));
            }
            Event::Timer { node, token } => {
                let Some(i) = self.slot_of(node) else { return };
                if self.slots[i].up {
                    self.with_slot(i, |n, ctx| n.on_timer(ctx, token));
                }
            }
            Event::External { node, ev } => {
                let Some(i) = self.slot_of(node) else { return };
                if !self.slots[i].up {
                    self.dropped += 1;
                    return;
                }
                self.with_slot(i, |n, ctx| n.on_external(ctx, ev));
            }
            Event::SessionDown { a, b } => {
                if self.has_session(a, b) {
                    obs::event!(Netsim, Info, "netsim.session_down",
                        "a" => a.0, "b" => b.0);
                    self.remove_session(a, b);
                    for (me, peer) in [(a.min(b), a.max(b)), (a.max(b), a.min(b))] {
                        self.with_up_node(me, |n, ctx| n.on_session_down(ctx, peer));
                    }
                }
            }
            Event::SessionUp { a, b, latency } => {
                if self.is_node_up(a) && self.is_node_up(b) && !self.has_session(a, b) {
                    obs::event!(Netsim, Info, "netsim.session_up",
                        "a" => a.0, "b" => b.0, "latency_us" => latency);
                    self.add_session(a, b, latency);
                    for (me, peer) in [(a.min(b), a.max(b)), (a.max(b), a.min(b))] {
                        self.with_up_node(me, |n, ctx| n.on_session_up(ctx, peer));
                    }
                }
            }
            Event::NodeDown { node } => {
                let Some(i) = self.slot_of(node) else { return };
                if std::mem::replace(&mut self.slots[i].up, false) {
                    obs::event!(Netsim, Info, "netsim.node_down", node = node.0);
                    self.drop_node_events(node);
                    // Peer by peer, in id order: each session is gone
                    // at both ends before that peer hears of it.
                    for (peer, _) in std::mem::take(&mut self.slots[i].sessions) {
                        if let Some(j) = self.slot_of(peer) {
                            self.slots[j].disconnect(node);
                        }
                        self.with_up_node(peer, |n, ctx| n.on_session_down(ctx, node));
                    }
                }
            }
            Event::NodeUp { node } => {
                let Some(i) = self.slot_of(node) else { return };
                if !std::mem::replace(&mut self.slots[i].up, true) {
                    obs::event!(Netsim, Info, "netsim.node_up", node = node.0);
                    self.with_slot(i, |n, ctx| n.on_restart(ctx));
                }
            }
        }
    }

    /// Convenience: run with default limits.
    pub fn run_to_quiescence(&mut self) -> RunOutcome {
        self.run(RunLimits::default())
    }

    /// Runs `f` on node `id` if it exists and is up (the session hooks,
    /// which address a node by id rather than by a slot already found).
    fn with_up_node(&mut self, id: RouterId, f: impl FnOnce(&mut P, &mut Ctx<P::Msg>)) {
        if let Some(i) = self.slot_of(id).filter(|&i| self.slots[i].up) {
            self.with_slot(i, f);
        }
    }

    /// Runs one callback on the node in slot `i`, borrowed where it
    /// lies, then applies the actions it collected. The actions wait
    /// for the callback to return: applying one needs the queue and
    /// the sender's sessions and counters while the callback holds the
    /// slot table, and the window engine replays the same collected
    /// form in merge order.
    fn with_slot(&mut self, i: usize, f: impl FnOnce(&mut P, &mut Ctx<P::Msg>)) {
        let mut ctx = Ctx {
            now: self.now,
            node: self.ids[i],
            // The pooled buffer: no allocation per callback.
            actions: std::mem::take(&mut self.action_buf),
        };
        f(self.slots[i].node_mut(), &mut ctx);
        let mut actions = ctx.actions;
        for action in actions.drain(..) {
            self.apply_action(i, action);
        }
        self.action_buf = actions;
    }

    /// Applies one collected action emitted by the node in slot `from`
    /// at `self.now` and returns when the event it pushed fires
    /// (`None`: a send dropped for want of a session). Shared by
    /// [`Sim::with_slot`] and the window merge, which checks the time
    /// against its window.
    pub(crate) fn apply_action(&mut self, slot: usize, action: Action<P::Msg>) -> Option<Time> {
        let from = self.ids[slot];
        match action {
            Action::Send { to, msg } => {
                if let Some(lat) = self.slots[slot].latency_to(to) {
                    self.slots[slot].stats.transmitted += 1;
                    if obs::metrics::enabled() {
                        static SEND_LAT: std::sync::OnceLock<obs::Histogram> =
                            std::sync::OnceLock::new();
                        SEND_LAT
                            .get_or_init(|| {
                                obs::metrics::histogram(
                                    "netsim.send.latency_us",
                                    None,
                                    obs::metrics::LATENCY_BOUNDS_US,
                                )
                            })
                            .record(lat);
                    }
                    let at = self.now + lat;
                    self.queue.push(at, Event::Deliver { from, to, msg });
                    Some(at)
                } else {
                    self.dropped += 1;
                    None
                }
            }
            Action::SetTimer { at, token } => {
                let at = at.max(self.now);
                self.queue.push(at, Event::Timer { node: from, token });
                Some(at)
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    /// Panics for unknown ids; see [`Sim::contains_node`].
    pub fn node(&self, id: RouterId) -> &P {
        // Invariant: callers name a node they added, as documented.
        let i = self.slot_of(id).expect("unknown node");
        self.slots[i].node()
    }

    /// Whether a node with this id exists.
    pub fn contains_node(&self, id: RouterId) -> bool {
        self.slot_of(id).is_some()
    }

    /// Iterates `(id, node)` in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (RouterId, &P)> {
        self.ids
            .iter()
            .zip(&self.slots)
            .map(|(&id, s)| (id, s.node()))
    }

    /// Per-node counters.
    pub fn stats(&self, id: RouterId) -> NodeStats {
        self.slot_of(id)
            .map(|i| self.slots[i].stats)
            .unwrap_or_default()
    }

    /// Messages dropped: sends without a session, in-flight messages
    /// discarded by session failures or crashes, and deliveries or
    /// external events addressed to a crashed node.
    pub fn dropped_messages(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that forwards every received number, decremented, to a
    /// fixed peer until it reaches zero.
    struct Countdown {
        peer: RouterId,
        log: Vec<u32>,
    }

    impl Protocol for Countdown {
        type Msg = u32;
        type External = u32;

        fn on_message(&mut self, ctx: &mut Ctx<u32>, _from: RouterId, msg: u32) {
            self.log.push(msg);
            if msg > 0 {
                ctx.send(self.peer, msg - 1);
            }
        }

        fn on_external(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
            ctx.send(self.peer, ev);
        }
    }

    fn two_node_sim() -> Sim<Countdown> {
        let mut sim = Sim::new();
        sim.add_node(
            RouterId(1),
            Countdown {
                peer: RouterId(2),
                log: vec![],
            },
        );
        sim.add_node(
            RouterId(2),
            Countdown {
                peer: RouterId(1),
                log: vec![],
            },
        );
        sim.add_session(RouterId(1), RouterId(2), 10);
        sim
    }

    #[test]
    fn ping_pong_quiesces() {
        let mut sim = two_node_sim();
        sim.schedule_external(0, RouterId(1), 5);
        let out = sim.run_to_quiescence();
        assert!(out.quiesced);
        // 5 -> r2, 4 -> r1, 3 -> r2, 2 -> r1, 1 -> r2, 0 -> r1: 6 deliveries + 1 external
        assert_eq!(out.events, 7);
        assert_eq!(sim.node(RouterId(2)).log, vec![5, 3, 1]);
        assert_eq!(sim.node(RouterId(1)).log, vec![4, 2, 0]);
        // Time: 6 hops * 10us latency.
        assert_eq!(sim.now(), 60);
        assert_eq!(sim.stats(RouterId(1)).transmitted, 3);
        assert_eq!(sim.stats(RouterId(1)).received, 3);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut sim = two_node_sim();
            sim.schedule_external(0, RouterId(1), 9);
            sim.schedule_external(3, RouterId(2), 4);
            sim.run_to_quiescence();
            (
                sim.node(RouterId(1)).log.clone(),
                sim.node(RouterId(2)).log.clone(),
                sim.now(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn event_limit_reports_non_quiescence() {
        // An infinite ping-pong: message never reaches zero.
        struct Forever {
            peer: RouterId,
        }
        impl Protocol for Forever {
            type Msg = ();
            type External = ();
            fn on_message(&mut self, ctx: &mut Ctx<()>, _from: RouterId, _msg: ()) {
                ctx.send(self.peer, ());
            }
            fn on_external(&mut self, ctx: &mut Ctx<()>, _ev: ()) {
                ctx.send(self.peer, ());
            }
        }
        let mut sim = Sim::new();
        sim.add_node(RouterId(1), Forever { peer: RouterId(2) });
        sim.add_node(RouterId(2), Forever { peer: RouterId(1) });
        sim.add_session(RouterId(1), RouterId(2), 1);
        sim.schedule_external(0, RouterId(1), ());
        let out = sim.run(RunLimits {
            max_events: 100,
            max_time: Time::MAX,
        });
        assert!(!out.quiesced);
        assert_eq!(out.events, 100);
    }

    #[test]
    fn send_without_session_is_dropped() {
        let mut sim = two_node_sim();
        sim.remove_session(RouterId(1), RouterId(2));
        sim.schedule_external(0, RouterId(1), 5);
        let out = sim.run_to_quiescence();
        assert!(out.quiesced);
        assert_eq!(sim.dropped_messages(), 1);
        assert!(sim.node(RouterId(2)).log.is_empty());
    }

    #[test]
    fn per_session_fifo_ordering() {
        struct Collector {
            log: Vec<u32>,
        }
        impl Protocol for Collector {
            type Msg = u32;
            type External = Vec<u32>;
            fn on_message(&mut self, _ctx: &mut Ctx<u32>, _from: RouterId, msg: u32) {
                self.log.push(msg);
            }
            fn on_external(&mut self, ctx: &mut Ctx<u32>, batch: Vec<u32>) {
                for m in batch {
                    ctx.send(RouterId(2), m);
                }
            }
        }
        let mut sim = Sim::new();
        sim.add_node(RouterId(1), Collector { log: vec![] });
        sim.add_node(RouterId(2), Collector { log: vec![] });
        sim.add_session(RouterId(1), RouterId(2), 50);
        sim.schedule_external(0, RouterId(1), vec![1, 2, 3, 4]);
        sim.run_to_quiescence();
        assert_eq!(sim.node(RouterId(2)).log, vec![1, 2, 3, 4]);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Protocol for TimerNode {
            type Msg = ();
            type External = ();
            fn on_message(&mut self, _: &mut Ctx<()>, _: RouterId, _: ()) {}
            fn on_external(&mut self, ctx: &mut Ctx<()>, _: ()) {
                ctx.set_timer(30, 3);
                ctx.set_timer(10, 1);
                ctx.set_timer(20, 2);
            }
            fn on_timer(&mut self, _: &mut Ctx<()>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut sim = Sim::new();
        sim.add_node(RouterId(1), TimerNode { fired: vec![] });
        sim.schedule_external(0, RouterId(1), ());
        sim.run_to_quiescence();
        assert_eq!(sim.node(RouterId(1)).fired, vec![1, 2, 3]);
        assert_eq!(sim.now(), 30);
    }

    /// Records every hook invocation; used by the fault-semantics tests.
    struct HookRecorder {
        peer: RouterId,
        received: Vec<u32>,
        downs: Vec<RouterId>,
        ups: Vec<RouterId>,
        restarts: u32,
    }

    impl HookRecorder {
        fn new(peer: RouterId) -> Self {
            HookRecorder {
                peer,
                received: vec![],
                downs: vec![],
                ups: vec![],
                restarts: 0,
            }
        }
    }

    impl Protocol for HookRecorder {
        type Msg = u32;
        type External = u32;

        fn on_message(&mut self, _ctx: &mut Ctx<u32>, _from: RouterId, msg: u32) {
            self.received.push(msg);
        }

        fn on_external(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
            ctx.send(self.peer, ev);
        }

        fn on_session_down(&mut self, _ctx: &mut Ctx<u32>, peer: RouterId) {
            self.downs.push(peer);
        }

        fn on_session_up(&mut self, _ctx: &mut Ctx<u32>, peer: RouterId) {
            self.ups.push(peer);
        }

        fn on_restart(&mut self, _ctx: &mut Ctx<u32>) {
            self.restarts += 1;
        }
    }

    fn recorder_pair() -> Sim<HookRecorder> {
        let mut sim = Sim::new();
        sim.add_node(RouterId(1), HookRecorder::new(RouterId(2)));
        sim.add_node(RouterId(2), HookRecorder::new(RouterId(1)));
        sim.add_session(RouterId(1), RouterId(2), 100);
        sim
    }

    #[test]
    fn remove_session_drops_in_flight() {
        let mut sim = recorder_pair();
        // Three messages leave node 1 at t=0 with latency 100; the
        // session dies underneath them.
        sim.schedule_external(0, RouterId(1), 7);
        sim.schedule_external(0, RouterId(1), 8);
        sim.schedule_external(0, RouterId(1), 9);
        sim.schedule_session_down(50, RouterId(1), RouterId(2));
        let out = sim.run_to_quiescence();
        assert!(out.quiesced);
        assert!(
            sim.node(RouterId(2)).received.is_empty(),
            "in-flight delivered"
        );
        assert_eq!(sim.dropped_messages(), 3);
        assert!(!sim.has_session(RouterId(1), RouterId(2)));
        assert_eq!(sim.num_sessions(), 0);
    }

    #[test]
    fn session_down_fires_once_per_endpoint() {
        let mut sim = recorder_pair();
        sim.schedule_session_down(10, RouterId(1), RouterId(2));
        // A second down for the same (now absent) session is a no-op.
        sim.schedule_session_down(20, RouterId(2), RouterId(1));
        sim.run_to_quiescence();
        assert_eq!(sim.node(RouterId(1)).downs, vec![RouterId(2)]);
        assert_eq!(sim.node(RouterId(2)).downs, vec![RouterId(1)]);
    }

    #[test]
    fn session_up_restores_delivery_and_fires_hooks() {
        let mut sim = recorder_pair();
        sim.schedule_session_down(10, RouterId(1), RouterId(2));
        sim.schedule_session_up(500, RouterId(1), RouterId(2), 100);
        sim.schedule_external(600, RouterId(1), 42);
        let out = sim.run_to_quiescence();
        assert!(out.quiesced);
        assert_eq!(sim.node(RouterId(1)).ups, vec![RouterId(2)]);
        assert_eq!(sim.node(RouterId(2)).ups, vec![RouterId(1)]);
        assert_eq!(sim.node(RouterId(2)).received, vec![42]);
        assert!(sim.has_session(RouterId(1), RouterId(2)));
        assert_eq!(sim.num_sessions(), 1);
    }

    #[test]
    fn node_crash_tears_sessions_and_restart_resets() {
        let mut sim = recorder_pair();
        sim.schedule_node_down(10, RouterId(2));
        // Delivery addressed to the crashed node and external feed
        // events during the outage are discarded.
        sim.schedule_external(20, RouterId(1), 5);
        sim.schedule_external(30, RouterId(2), 6);
        sim.schedule_node_up(1_000, RouterId(2));
        sim.schedule_session_up(1_100, RouterId(1), RouterId(2), 100);
        sim.schedule_external(1_200, RouterId(1), 77);
        let out = sim.run_to_quiescence();
        assert!(out.quiesced);
        // Peer saw the session die exactly once, then come back.
        assert_eq!(sim.node(RouterId(1)).downs, vec![RouterId(2)]);
        assert_eq!(sim.node(RouterId(1)).ups, vec![RouterId(2)]);
        assert_eq!(sim.node(RouterId(2)).restarts, 1);
        // Only the post-restart message arrived.
        assert_eq!(sim.node(RouterId(2)).received, vec![77]);
        assert!(sim.is_node_up(RouterId(2)));
    }

    /// What a [`Probe`] is told to do from outside.
    enum Poke {
        Send(RouterId, u32),
        Timer(Time),
        Note,
    }

    /// Logs every callback, with its node, into one log shared by the
    /// whole sim, so the log is the dispatch order.
    struct Probe {
        log: std::rc::Rc<std::cell::RefCell<Vec<(u32, &'static str)>>>,
    }

    impl Probe {
        fn note(&self, ctx: &Ctx<u32>, what: &'static str) {
            self.log.borrow_mut().push((ctx.me().0, what));
        }
    }

    impl Protocol for Probe {
        type Msg = u32;
        type External = Poke;

        fn on_message(&mut self, ctx: &mut Ctx<u32>, _from: RouterId, _msg: u32) {
            self.note(ctx, "message");
        }

        fn on_external(&mut self, ctx: &mut Ctx<u32>, ev: Poke) {
            self.note(ctx, "external");
            match ev {
                Poke::Send(to, msg) => ctx.send(to, msg),
                Poke::Timer(at) => ctx.set_timer(at, 0),
                Poke::Note => {}
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<u32>, _token: u64) {
            self.note(ctx, "timer");
        }

        fn on_session_down(&mut self, ctx: &mut Ctx<u32>, _peer: RouterId) {
            self.note(ctx, "session_down");
        }

        fn on_session_up(&mut self, ctx: &mut Ctx<u32>, _peer: RouterId) {
            self.note(ctx, "session_up");
        }

        fn on_restart(&mut self, ctx: &mut Ctx<u32>) {
            self.note(ctx, "restart");
        }
    }

    type Log = std::rc::Rc<std::cell::RefCell<Vec<(u32, &'static str)>>>;

    /// Nodes 1..=n sharing one log.
    fn probes(n: u32) -> (Sim<Probe>, Log) {
        let log = Log::default();
        let mut sim = Sim::new();
        for i in 1..=n {
            sim.add_node(RouterId(i), Probe { log: log.clone() });
        }
        (sim, log)
    }

    #[test]
    fn equal_timestamps_dispatch_in_push_order_across_event_kinds() {
        let (mut sim, log) = probes(4);
        sim.add_session(RouterId(1), RouterId(2), 10);
        sim.add_session(RouterId(2), RouterId(3), 10);
        sim.add_session(RouterId(3), RouterId(4), 10);
        // Scheduled before the run, so pushed first at t=10 ...
        sim.schedule_external(0, RouterId(1), Poke::Send(RouterId(2), 7));
        sim.schedule_session_up(10, RouterId(1), RouterId(3), 5);
        sim.schedule_external(10, RouterId(2), Poke::Note);
        sim.schedule_node_down(10, RouterId(4));
        sim.schedule_session_down(10, RouterId(2), RouterId(3));
        sim.schedule_node_up(10, RouterId(4));
        // ... and the t=0 external's delivery and timer after them.
        sim.schedule_external(0, RouterId(1), Poke::Timer(10));
        assert!(sim.run_to_quiescence().quiesced);
        assert_eq!(
            log.borrow()[2..],
            [
                (1, "session_up"),
                (3, "session_up"),
                (2, "external"),
                (3, "session_down"), // node 4 crashed
                (2, "session_down"),
                (3, "session_down"),
                (4, "restart"),
                (2, "message"),
                (1, "timer"),
            ]
        );
    }

    #[test]
    fn crash_drops_in_flight_both_ways_and_its_timers_uncounted() {
        let (mut sim, log) = probes(3);
        sim.add_session(RouterId(1), RouterId(2), 100);
        sim.add_session(RouterId(1), RouterId(3), 100);
        sim.schedule_external(0, RouterId(1), Poke::Send(RouterId(2), 1));
        sim.schedule_external(0, RouterId(2), Poke::Send(RouterId(1), 2));
        sim.schedule_external(0, RouterId(1), Poke::Send(RouterId(3), 3));
        sim.schedule_external(0, RouterId(2), Poke::Timer(200));
        sim.schedule_node_down(50, RouterId(2));
        // An external for the crashed node is dropped at its time.
        sim.schedule_external(60, RouterId(2), Poke::Note);
        let out = sim.run_to_quiescence();
        assert!(out.quiesced);
        // Two deliveries and the external; the timer died uncounted.
        assert_eq!(sim.dropped_messages(), 3);
        let after_crash: Vec<_> = log.borrow()[4..].to_vec();
        assert_eq!(after_crash, [(1, "session_down"), (3, "message")]);
        assert_eq!(sim.now(), 100);
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn duplicate_node_panics() {
        let mut sim: Sim<Countdown> = Sim::new();
        sim.add_node(
            RouterId(1),
            Countdown {
                peer: RouterId(2),
                log: vec![],
            },
        );
        sim.add_node(
            RouterId(1),
            Countdown {
                peer: RouterId(2),
                log: vec![],
            },
        );
    }
}
