//! Update-group packing on the byte transport (DESIGN.md §14).
//!
//! A fan-out encodes one wire image per distinct path set and every
//! member sent that set holds the same allocation; members whose set
//! differs (the originator of one of the paths, a suppressed sender)
//! get an image of their own. Every receiver still parses its own
//! bytes, so the run is indistinguishable from struct mode.
//!
//! Sessions are tapped by wrapping each [`BgpNode`] in a [`Protocol`]
//! that records what is delivered to it. Everything lives in one
//! `#[test]` because the obs metrics registry is global state.

use abrr::prelude::*;
use abrr::wire;
use abrr::ClusterSpec;
use netsim::{Ctx, ExternalClass, Protocol, Time, WireMode};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A router that notes every session message delivered to it, then
/// hands it to the real engine.
struct Tap {
    node: BgpNode,
    rx: Vec<(RouterId, SessionMsg)>,
}

impl Protocol for Tap {
    type Msg = SessionMsg;
    type External = ExternalEvent;

    fn on_start(&mut self, ctx: &mut Ctx<SessionMsg>) {
        self.node.on_start(ctx)
    }
    fn on_message(&mut self, ctx: &mut Ctx<SessionMsg>, from: RouterId, msg: SessionMsg) {
        self.rx.push((from, msg.clone()));
        self.node.on_message(ctx, from, msg)
    }
    fn on_external(&mut self, ctx: &mut Ctx<SessionMsg>, ev: ExternalEvent) {
        self.node.on_external(ctx, ev)
    }
    fn on_timer(&mut self, ctx: &mut Ctx<SessionMsg>, token: u64) {
        self.node.on_timer(ctx, token)
    }
    fn on_session_down(&mut self, ctx: &mut Ctx<SessionMsg>, peer: RouterId) {
        self.node.on_session_down(ctx, peer)
    }
    fn on_session_up(&mut self, ctx: &mut Ctx<SessionMsg>, peer: RouterId) {
        self.node.on_session_up(ctx, peer)
    }
    fn on_restart(&mut self, ctx: &mut Ctx<SessionMsg>) {
        self.node.on_restart(ctx)
    }
    fn classify_external(&self, ev: &ExternalEvent) -> ExternalClass {
        self.node.classify_external(ev)
    }
    fn msg_shard(&self, msg: &SessionMsg) -> u64 {
        self.node.msg_shard(msg)
    }
    fn timer_lead(&self) -> Time {
        self.node.timer_lead()
    }
}

fn pfx(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

fn feed(prefix: Ipv4Prefix, peer_as: u32, peer_addr: u32) -> ExternalEvent {
    ExternalEvent::EbgpAnnounce {
        prefix,
        peer_as: Asn(peer_as),
        peer_addr,
        attrs: Arc::new(PathAttributes::ebgp(
            AsPath::sequence([Asn(peer_as)]),
            NextHop(peer_addr),
        )),
    }
}

/// What a struct-mode and a byte-mode run must agree on, per node.
fn fingerprint<'a>(nodes: impl Iterator<Item = (RouterId, &'a BgpNode)>) -> String {
    nodes
        .map(|(id, n)| {
            let sel: Vec<_> = n.selections().collect();
            format!(
                "{id:?} in={} out={} {:?} {sel:?}\n",
                n.rib_in_size(),
                n.rib_out_size(),
                n.counters()
            )
        })
        .collect()
}

/// Runs `feeds` over `spec` twice — struct mode on plain nodes, byte
/// mode on tapped ones with metrics on — checks the two agree, and
/// returns the tapped sim and the metrics snapshot.
fn run_tapped(
    mut spec: NetworkSpec,
    feeds: &[(RouterId, ExternalEvent)],
) -> (Sim<Tap>, obs::MetricsSnapshot) {
    let struct_spec = Arc::new(spec.clone());
    let mut plain = build_sim(struct_spec);
    for (r, ev) in feeds {
        plain.schedule_external(0, *r, ev.clone());
    }
    assert!(plain.run_to_quiescence().quiesced);

    spec.wire_mode = WireMode::Bytes;
    let spec = Arc::new(spec);
    let mut sim: Sim<Tap> = Sim::new();
    for (id, _) in plain.nodes() {
        let node = BgpNode::new(id, spec.clone());
        sim.add_node(
            id,
            Tap {
                node,
                rx: Vec::new(),
            },
        );
    }
    for ((a, b), latency) in plain.sessions() {
        sim.add_session(a, b, latency);
    }
    for (r, ev) in feeds {
        sim.schedule_external(0, *r, ev.clone());
    }
    obs::metrics::reset();
    obs::metrics::set_enabled(true);
    assert!(sim.run_to_quiescence().quiesced);
    let snap = obs::metrics::snapshot();
    obs::metrics::set_enabled(false);

    assert_eq!(
        fingerprint(sim.nodes().map(|(id, t)| (id, &t.node))),
        fingerprint(plain.nodes()),
        "byte mode diverged from struct mode"
    );
    (sim, snap)
}

/// The frames `to` received from `from`, in arrival order.
fn frames(sim: &Sim<Tap>, from: RouterId, to: RouterId) -> Vec<&WireFrame> {
    sim.node(to)
        .rx
        .iter()
        .filter(|(f, _)| *f == from)
        .map(|(_, m)| match m {
            SessionMsg::Wire(f) => f,
            SessionMsg::Struct(_) => panic!("struct message on a byte-mode session"),
        })
        .collect()
}

fn counter(snap: &obs::MetricsSnapshot, name: &str, node: RouterId) -> u64 {
    match snap.get(&(name.to_string(), Some(node.0))) {
        Some(obs::MetricValue::Counter(v)) => *v,
        None => 0,
        other => panic!("{name} is not a counter: {other:?}"),
    }
}

/// For every sender: `core.wire.encoded` counts its sends and
/// `core.wire.images_encoded` the distinct allocations among them (the
/// taps keep every frame alive, so distinct images have distinct
/// addresses). Returns fleet totals `(sends, images)`.
fn check_counters(sim: &Sim<Tap>, snap: &obs::MetricsSnapshot) -> (u64, u64) {
    let mut sent: BTreeMap<RouterId, (u64, BTreeSet<*const Vec<u8>>)> = BTreeMap::new();
    for (_, tap) in sim.nodes() {
        for (from, msg) in &tap.rx {
            if let SessionMsg::Wire(f) = msg {
                let e = sent.entry(*from).or_default();
                e.0 += 1;
                e.1.insert(Arc::as_ptr(&f.bytes));
            }
        }
    }
    let mut totals = (0, 0);
    for (id, _) in sim.nodes() {
        let (sends, images) = sent.remove(&id).unwrap_or_default();
        assert_eq!(counter(snap, "core.wire.encoded", id), sends, "{id:?}");
        assert_eq!(
            counter(snap, "core.wire.images_encoded", id),
            images.len() as u64,
            "{id:?}"
        );
        totals.0 += sends;
        totals.1 += images.len() as u64;
    }
    totals
}

/// One AP served by two ARRs, six other clients, two of which each
/// originate a best-AS-level route for the prefix.
fn arr_fan_out() {
    let view = igp::PopTopologyBuilder::new(2, 4).build();
    let r = view.routers();
    let (arr, arr2) = (r[0], r[4]);
    let mut spec = NetworkSpec::full_mesh(&view.topo, Asn(65000));
    spec.mode = Mode::Abrr;
    spec.ap_map = Some(ApMap::uniform(1));
    spec.arrs.insert(ApId(0), vec![arr, arr2]);
    let p = pfx("10.0.0.0/8");
    let (sim, snap) = run_tapped(
        spec,
        &[(r[1], feed(p, 7018, 9001)), (r[2], feed(p, 3356, 9002))],
    );

    // The ARR's final advertisement: both routes, to everyone.
    let last = |to: RouterId| *frames(&sim, arr, to).last().expect("ARR sent nothing");
    let ids = |f: &WireFrame| -> Vec<u32> {
        let m = wire::decode_frame(f).unwrap();
        m.paths.iter().map(|(id, _)| id.0).collect()
    };
    // Plain receivers hold one allocation between them.
    let full = last(r[3]);
    assert_eq!(ids(full), vec![r[1].0, r[2].0]);
    for to in [r[5], r[6], r[7]] {
        assert!(
            Arc::ptr_eq(&last(to).bytes, &full.bytes),
            "{to:?} was sent its own copy of the full set"
        );
    }
    // An originator gets a different image: the set without its route.
    for (orig, other) in [(r[1], r[2]), (r[2], r[1])] {
        let f = last(orig);
        assert!(!Arc::ptr_eq(&f.bytes, &full.bytes));
        assert_eq!(ids(f), vec![other.0]);
    }
    // A client's advertisement to its two ARRs is one image as well.
    let up = |to: RouterId| *frames(&sim, r[1], to).last().expect("client sent nothing");
    assert!(Arc::ptr_eq(&up(arr).bytes, &up(arr2).bytes));

    let (sends, images) = check_counters(&sim, &snap);
    assert!(images < sends, "{images} images for {sends} sends");
}

/// Single-path TBRR: the reflector does not return the best route to
/// the client it learned it from — that member is sent the withdrawal.
fn suppressed_member() {
    let view = igp::PopTopologyBuilder::new(2, 3).build();
    let r = view.routers();
    let trr = r[0];
    let mut spec = NetworkSpec::full_mesh(&view.topo, Asn(65000));
    spec.mode = Mode::Tbrr { multipath: false };
    spec.routers = r.clone();
    spec.clusters = vec![ClusterSpec {
        id: 1,
        trrs: vec![trr],
        clients: r[1..].to_vec(),
    }];
    let p = pfx("10.0.0.0/8");
    let (sim, snap) = run_tapped(spec, &[(r[1], feed(p, 7018, 9001))]);

    let only = |to: RouterId| {
        let f = frames(&sim, trr, to);
        assert_eq!(f.len(), 1, "{to:?}");
        f[0]
    };
    let reflected = only(r[2]);
    assert_eq!(wire::decode_frame(reflected).unwrap().paths.len(), 1);
    for to in &r[3..] {
        assert!(Arc::ptr_eq(&only(*to).bytes, &reflected.bytes));
    }
    let back = only(r[1]);
    assert!(wire::decode_frame(back).unwrap().paths.is_empty());
    let withdrawal = BgpMsg::withdraw(p, abrr::msg::Plane::Tbrr);
    assert_eq!(back.bytes, wire::encode_frame(&withdrawal).unwrap().bytes);

    // One send from the client; five from the reflector in two images.
    assert_eq!(check_counters(&sim, &snap), (6, 3));
}

#[test]
fn fan_out_shares_one_image_per_distinct_path_set() {
    arr_fan_out();
    suppressed_member();
}
