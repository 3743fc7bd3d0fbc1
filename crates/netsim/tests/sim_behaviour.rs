//! Integration-level simulator behaviour: time limits, session
//! lifecycle, external-event clamping, and run-resume semantics.

use bgp_types::RouterId;
use netsim::{Ctx, Engine, Protocol, RunLimits, Sim};

/// Echoes each received number back after a fixed think-time.
struct Echo {
    peer: RouterId,
    think_us: u64,
    log: Vec<(u64, u32)>,
}

impl Protocol for Echo {
    type Msg = u32;
    type External = u32;

    fn on_message(&mut self, ctx: &mut Ctx<u32>, _from: RouterId, msg: u32) {
        self.log.push((ctx.now(), msg));
        if msg > 0 {
            ctx.set_timer(ctx.now() + self.think_us, msg as u64);
        }
    }

    fn on_external(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
        ctx.send(self.peer, ev);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<u32>, token: u64) {
        ctx.send(self.peer, token as u32 - 1);
    }
}

fn echo_pair(think_us: u64) -> Sim<Echo> {
    let mut sim = Sim::new();
    sim.add_node(
        RouterId(1),
        Echo {
            peer: RouterId(2),
            think_us,
            log: vec![],
        },
    );
    sim.add_node(
        RouterId(2),
        Echo {
            peer: RouterId(1),
            think_us,
            log: vec![],
        },
    );
    sim.add_session(RouterId(1), RouterId(2), 100);
    sim
}

#[test]
fn max_time_pauses_and_run_resumes() {
    let mut sim = echo_pair(1_000);
    sim.schedule_external(0, RouterId(1), 10);
    // Pause mid-flight.
    let out1 = sim.run(RunLimits {
        max_events: u64::MAX,
        max_time: 3_000,
    });
    assert!(!out1.quiesced);
    // Resume to completion: nothing is lost.
    let out2 = sim.run(RunLimits {
        max_events: u64::MAX,
        max_time: u64::MAX,
    });
    assert!(out2.quiesced);
    let total: usize = sim.node(RouterId(1)).log.len() + sim.node(RouterId(2)).log.len();
    assert_eq!(
        total, 11,
        "all countdown messages (10..=0) delivered across the pause"
    );
    // Resumed runs never rewind time.
    assert!(out2.end_time >= out1.end_time);
}

#[test]
fn paused_run_outcome_is_consistent_with_event_budget() {
    let mut sim = echo_pair(1_000);
    sim.schedule_external(0, RouterId(1), 10);
    let mut events = 0;
    loop {
        let out = sim.run(RunLimits {
            max_events: 2,
            max_time: u64::MAX,
        });
        events += out.events;
        if out.quiesced {
            break;
        }
        assert_eq!(out.events, 2, "paused runs consume exactly the budget");
    }
    // 1 external + 11 deliveries (10..=0) + 10 timers (for 10..=1).
    assert_eq!(events, 22);
}

#[test]
fn external_events_in_the_past_are_clamped_to_now() {
    let mut sim = echo_pair(0);
    sim.schedule_external(5_000, RouterId(1), 0);
    sim.run(RunLimits {
        max_events: u64::MAX,
        max_time: u64::MAX,
    });
    assert_eq!(sim.now(), 5_100);
    // Scheduling "at 0" now must not rewind time.
    sim.schedule_external(0, RouterId(1), 0);
    let out = sim.run(RunLimits {
        max_events: u64::MAX,
        max_time: u64::MAX,
    });
    assert!(out.quiesced);
    let log = &sim.node(RouterId(2)).log;
    assert!(log.iter().all(|(t, _)| *t >= 5_100), "{log:?}");
}

#[test]
fn session_removal_mid_run_drops_later_sends() {
    let mut sim = echo_pair(1_000);
    sim.schedule_external(0, RouterId(1), 10);
    sim.run(RunLimits {
        max_events: 6,
        max_time: u64::MAX,
    });
    sim.remove_session(RouterId(1), RouterId(2));
    let out = sim.run(RunLimits {
        max_events: u64::MAX,
        max_time: u64::MAX,
    });
    assert!(out.quiesced);
    assert!(sim.dropped_messages() > 0, "post-removal sends are dropped");
    let total = sim.node(RouterId(1)).log.len() + sim.node(RouterId(2)).log.len();
    assert!(
        total < 10,
        "the countdown cannot finish without the session"
    );
}

#[test]
fn stats_track_both_directions() {
    let mut sim = echo_pair(500);
    sim.schedule_external(0, RouterId(1), 4);
    sim.run(RunLimits {
        max_events: u64::MAX,
        max_time: u64::MAX,
    });
    let s1 = sim.stats(RouterId(1));
    let s2 = sim.stats(RouterId(2));
    assert_eq!(s1.transmitted, s2.received);
    assert_eq!(s2.transmitted, s1.received);
    // Messages 4..=0 cross the wire: five transmissions in total.
    assert_eq!(s1.transmitted + s2.transmitted, 5);
}

#[test]
fn contains_node_and_unknown_stats() {
    let sim = echo_pair(0);
    assert!(sim.contains_node(RouterId(1)));
    assert!(!sim.contains_node(RouterId(99)));
    assert_eq!(sim.stats(RouterId(99)), netsim::NodeStats::default());
}

/// A node as large as a real router (a `BgpNode` is 1 384 bytes) that
/// notes where it is every time a callback runs on it.
struct Resident {
    next: RouterId,
    seen_at: std::collections::BTreeSet<usize>,
    calls: u32,
    _bulk: [u8; 1024],
}

impl Resident {
    fn note(&mut self) {
        self.seen_at.insert(self as *const Self as usize);
        self.calls += 1;
    }
}

impl Protocol for Resident {
    type Msg = u32;
    type External = u32;

    fn on_message(&mut self, ctx: &mut Ctx<u32>, _from: RouterId, hops_left: u32) {
        self.note();
        if hops_left > 0 {
            ctx.set_timer(ctx.now() + 1, (hops_left - 1) as u64);
        }
    }

    fn on_external(&mut self, ctx: &mut Ctx<u32>, hops_left: u32) {
        self.note();
        ctx.send(self.next, hops_left);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<u32>, token: u64) {
        self.note();
        ctx.send(self.next, token as u32);
    }
}

/// The sequential engine runs every callback on the node where the
/// simulator keeps it: the address a node sees never changes across
/// events, and it is the address `Sim::node` hands out afterwards. A
/// dispatch that moved the node out and back for the callback would
/// show the callback a temporary instead.
#[test]
fn callbacks_run_in_place() {
    assert!(std::mem::size_of::<Resident>() >= 1024);
    const NODES: u32 = 4;
    let mut sim: Sim<Resident> = Sim::new();
    for i in 0..NODES {
        sim.add_node(
            RouterId(i),
            Resident {
                next: RouterId((i + 1) % NODES),
                seen_at: Default::default(),
                calls: 0,
                _bulk: [0; 1024],
            },
        );
    }
    for i in 0..NODES {
        sim.add_session(RouterId(i), RouterId((i + 1) % NODES), 10);
    }
    sim.schedule_external(0, RouterId(0), 60);
    let out = sim.run_engine(Engine::Seq, RunLimits::default());
    assert!(out.quiesced);
    assert!(out.events >= 100, "only {} events", out.events);
    for (id, node) in sim.nodes() {
        assert!(node.calls >= 25, "{id:?} ran {} callbacks", node.calls);
        let home = node as *const Resident as usize;
        assert_eq!(
            node.seen_at.iter().copied().collect::<Vec<_>>(),
            vec![home],
            "{id:?} ran callbacks somewhere other than its slot"
        );
    }
}
