//! The scenario data model — what a scenario file parses into — and,
//! record by record, the one declaration of the file format.
//!
//! The model is deliberately plain data (no `Arc`s, no computed
//! tables) whose values are already typed: [`crate::parse`] reads it
//! from JSON through these declarations, [`crate::validate`] checks
//! it, [`crate::compile`] turns it into runnable structures, and the
//! shrinker edits it structurally. `ScenarioFile::to_json_pretty`
//! writes it back out through the same declarations, so shrunk
//! counterexamples are themselves valid corpus files.

use crate::parse::{
    defaults, keyword, leaf, read_keyword, record, write_keyword, Field, Obj, Record,
};
use abrr::spec::{AbrrLoopPrevention, ClusterSpec, LatencyModel, Mode};
use bgp_types::{ApId, Ipv4Prefix, NextHop, RouterId};
use std::net::Ipv4Addr;

/// Default event budget when a file does not set one.
pub const DEFAULT_MAX_EVENTS: u64 = 200_000;

record! {
    /// A complete scenario file.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ScenarioFile {
        /// Scenario name (reported in verdict tables).
        pub name: String = req,
        /// Free-form description.
        pub comment: Option<String> = maybe,
        /// The network under test.
        pub network: Network = req,
        /// eBGP feeds, withdrawals, and AP cutovers.
        pub workload: Workload = opt_always(Workload::default()),
        /// Timed faults (compiled through the `faults` crate).
        pub faults: Vec<TimedFault> = opt(Vec::new()),
        /// The invariants to check, one entry per mode run.
        pub checks: Vec<Check> = req,
        /// Run budget.
        pub budget: Budget = opt_always(Budget::default()),
        /// `Pass` for ordinary scenarios; `Fail` for corpus gadgets that
        /// *demonstrate* a violation — the runner asserts the oracle
        /// stack catches them.
        pub expect_verdict: Verdict = opt(Verdict::Pass),
    }
}

/// The network layer of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub enum Network {
    /// An explicit gadget-scale network (links or a PoP grid).
    Gadget(GadgetNetwork),
    /// The paper's synthetic Tier-1 model at a chosen scale.
    Tier1(Tier1Network),
}

/// `{"tier1": {...}}`, or a gadget's keys.
impl Record for Network {
    fn zero() -> Self {
        Network::Gadget(Field::zero())
    }

    fn fields(&mut self, o: &mut Obj) {
        o.one_of(self, &[("tier1", || Network::Tier1(Field::zero()))]);
        match self {
            Network::Gadget(g) => g.fields(o),
            Network::Tier1(t) => o.case(t),
        }
    }
}

record! {
    /// An explicit small network: topology, roles, AP layout, knobs.
    #[derive(Clone, Debug, PartialEq)]
    pub struct GadgetNetwork {
        /// Where the IGP graph comes from.
        pub topology: TopologySource = flat,
        /// Data-plane (border/client) routers. May be empty for
        /// `PopGrid`, meaning "every grid router".
        pub routers: Vec<RouterId> = opt(Vec::new()),
        /// Route reflectors (TRRs under TBRR, ARRs under ABRR).
        pub rrs: Vec<RouterId> = opt_always(Vec::new()),
        /// TBRR cluster layout. Empty means a single cluster of all RRs
        /// over all routers.
        pub clusters: Vec<ClusterSpec> = opt(Vec::new()),
        /// AP layout for ABRR modes. `None` means one AP covering the
        /// whole v4 space.
        pub aps: Option<ApScheme> = maybe,
        /// Per-AP ARR assignment. Empty means every RR serves every AP.
        pub arrs: Vec<ApArrs> = opt(Vec::new()),
        /// Spec tuning knobs.
        pub spec: SpecKnobs = opt(SpecKnobs::default()),
    }
}

/// The IGP graph of a gadget network.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySource {
    /// Explicit weighted links.
    Links(Vec<Link>),
    /// `igp::PopTopologyBuilder::new(pops, routers_per_pop)`.
    PopGrid {
        /// Number of PoPs.
        pops: usize,
        /// Routers per PoP.
        routers_per_pop: usize,
    },
}

impl Record for TopologySource {
    fn zero() -> Self {
        TopologySource::Links(Vec::new())
    }

    fn fields(&mut self, o: &mut Obj) {
        o.one_of(
            self,
            &[
                ("links", || TopologySource::Links(Vec::new())),
                ("pop_grid", || TopologySource::PopGrid {
                    pops: 0,
                    routers_per_pop: 0,
                }),
            ],
        );
        match self {
            TopologySource::Links(links) => o.case(links),
            TopologySource::PopGrid {
                pops,
                routers_per_pop,
            } => o.case_with(|o| {
                o.req("pops", pops);
                o.req("routers_per_pop", routers_per_pop);
            }),
        }
    }
}

/// One weighted IGP link, written `[a, b, metric]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: RouterId,
    /// The other endpoint.
    pub b: RouterId,
    /// IGP metric.
    pub metric: u32,
}

/// One TBRR cluster.
impl Record for ClusterSpec {
    fn zero() -> Self {
        ClusterSpec {
            id: 0,
            trrs: Vec::new(),
            clients: Vec::new(),
        }
    }

    fn fields(&mut self, o: &mut Obj) {
        o.req("id", &mut self.id);
        o.req("trrs", &mut self.trrs);
        o.req("clients", &mut self.clients);
    }
}

/// How the address space splits into APs.
#[derive(Clone, Debug, PartialEq)]
pub enum ApScheme {
    /// `ApMap::uniform(n)`: n equal slices of the v4 space.
    Uniform(u16),
    /// Explicit address ranges.
    Explicit(Vec<ApRange>),
}

impl Record for ApScheme {
    fn zero() -> Self {
        ApScheme::Uniform(0)
    }

    fn fields(&mut self, o: &mut Obj) {
        o.one_of(
            self,
            &[
                ("uniform", || ApScheme::Uniform(0)),
                ("explicit", || ApScheme::Explicit(Vec::new())),
            ],
        );
        match self {
            ApScheme::Uniform(n) => o.case(n),
            ApScheme::Explicit(ranges) => o.case(ranges),
        }
    }
}

record! {
    /// One explicit AP range (inclusive, dotted-quad addresses in JSON).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct ApRange {
        /// AP id.
        pub id: ApId = req,
        /// First covered address.
        pub first: Ipv4Addr = req,
        /// Last covered address (inclusive).
        pub last: Ipv4Addr = req,
    }
}

record! {
    /// ARR assignment for one AP.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ApArrs {
        /// The AP.
        pub ap: ApId = req,
        /// The RRs serving it.
        pub arrs: Vec<RouterId> = req,
    }
}

record! {
    /// Spec tuning knobs (defaults match the canonical Rust gadgets).
    #[derive(Clone, Debug, PartialEq)]
    pub struct SpecKnobs {
        /// Min route advertisement interval, µs.
        pub mrai_us: u64 = opt(0),
        /// Clients retain full ARR advertisement sets (§3.4 trade-off).
        pub clients_keep_backups: bool = opt(false),
        /// ABRR reflection loop-prevention flavor.
        pub loop_prevention: AbrrLoopPrevention = opt(AbrrLoopPrevention::ReflectedBit),
        /// Session latency model.
        pub latency: LatencyModel = opt(LatencyModel::Fixed(1_000)),
        /// RRs also hold the full table as clients.
        pub rrs_are_clients: bool = opt(true),
    }
}

impl Default for SpecKnobs {
    fn default() -> Self {
        defaults()
    }
}

const LOOP_PREVENTION: [(&str, AbrrLoopPrevention); 3] = [
    ("reflected_bit", AbrrLoopPrevention::ReflectedBit),
    ("cluster_list", AbrrLoopPrevention::ClusterList),
    ("none", AbrrLoopPrevention::None),
];

leaf! {
    AbrrLoopPrevention: AbrrLoopPrevention::ReflectedBit,
        |v, path| read_keyword(v, path, &LOOP_PREVENTION, "loop prevention"),
        |lp| write_keyword(lp, &LOOP_PREVENTION);
}

/// `{"fixed_us": n}`, or `{"base_us": b, "per_metric_us": m}`.
impl Record for LatencyModel {
    fn zero() -> Self {
        LatencyModel::Fixed(0)
    }

    fn fields(&mut self, o: &mut Obj) {
        o.one_of(
            self,
            &[
                ("fixed_us", || LatencyModel::Fixed(0)),
                ("base_us", || LatencyModel::IgpProportional {
                    base: 0,
                    per_metric: 0,
                }),
            ],
        );
        match self {
            LatencyModel::Fixed(us) => o.case(us),
            LatencyModel::IgpProportional { base, per_metric } => {
                o.case(base);
                o.req("per_metric_us", per_metric);
            }
        }
    }
}

record! {
    /// The Tier-1 synthetic model, by scale knobs.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Tier1Network {
        /// Total prefixes.
        pub prefixes: usize = req,
        /// Number of PoPs.
        pub pops: usize = opt_always(13),
        /// Routers per PoP.
        pub routers_per_pop: usize = opt_always(8),
        /// Model seed.
        pub seed: u64 = opt_always(20101220),
        /// ABRR layout: number of APs.
        pub aps: usize = opt_always(13),
        /// ABRR layout: ARRs per AP.
        pub arrs_per_ap: usize = opt_always(2),
        /// TBRR layout: TRRs per cluster.
        pub trrs_per_cluster: usize = opt_always(2),
        /// MRAI for the generated specs, µs.
        pub mrai_us: u64 = opt_always(1_000_000),
    }
}

record! {
    /// The scenario's eBGP workload.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct Workload {
        /// eBGP announcements.
        pub feeds: Vec<Feed> = opt(Vec::new()),
        /// eBGP withdrawals.
        pub withdraws: Vec<Withdraw> = opt(Vec::new()),
        /// AP cutovers (Transition mode; broadcast to all nodes).
        pub cutovers: Vec<Cutover> = opt(Vec::new()),
    }
}

record! {
    /// One eBGP announcement.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Feed {
        /// Injection time, µs (0 = initial state).
        pub at: u64 = opt_always(0),
        /// Receiving border router.
        pub router: RouterId = req,
        /// Announced prefix, e.g. `10.0.0.0/8`.
        pub prefix: Ipv4Prefix = req,
        /// Peer AS number.
        pub peer_as: u32 = req,
        /// Peer address, which is also the route's next hop.
        pub peer_addr: NextHop = req,
        /// MED.
        pub med: u32 = opt_always(0),
        /// LOCAL_PREF override (None = protocol default).
        pub local_pref: Option<u32> = maybe,
    }
}

record! {
    /// One eBGP withdrawal.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Withdraw {
        /// Withdrawal time, µs.
        pub at: u64 = req,
        /// The border router whose peer withdraws.
        pub router: RouterId = req,
        /// The withdrawn prefix.
        pub prefix: Ipv4Prefix = req,
        /// The withdrawing peer's address (its feed's next hop).
        pub peer_addr: NextHop = req,
    }
}

record! {
    /// One AP cutover event (Transition mode §2.4).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Cutover {
        /// Cutover time, µs.
        pub at: u64 = req,
        /// The AP being cut over to the ABRR plane.
        pub ap: ApId = req,
    }
}

record! {
    /// One timed fault, compiled through `faults::compile`.
    #[derive(Clone, Debug, PartialEq)]
    pub struct TimedFault {
        /// Fault time, µs.
        pub at: u64 = req,
        /// What fails.
        pub kind: faults::FaultKind = flat,
    }
}

/// `"<kind>": {...}` next to the fault's `at`.
impl Record for faults::FaultKind {
    fn zero() -> Self {
        faults::FaultKind::RouterDown { node: RouterId(0) }
    }

    fn fields(&mut self, o: &mut Obj) {
        use faults::FaultKind::*;
        const R: RouterId = RouterId(0);
        o.one_of(
            self,
            &[
                ("session_flap", || SessionFlap {
                    a: R,
                    b: R,
                    down_for: 0,
                }),
                ("link_down", || LinkDown { a: R, b: R }),
                ("link_up", || LinkUp { a: R, b: R }),
                ("router_crash", || RouterCrash {
                    node: R,
                    down_for: 0,
                }),
                ("router_down", || RouterDown { node: R }),
                ("arr_failure", || ArrFailure { arr: R }),
                ("ap_reassign", || ApReassign {
                    ap: ApId(0),
                    arrs: Vec::new(),
                }),
            ],
        );
        o.case_with(|o| match self {
            SessionFlap { a, b, down_for } => {
                o.req("a", a);
                o.req("b", b);
                o.req("down_for", down_for);
            }
            LinkDown { a, b } | LinkUp { a, b } => {
                o.req("a", a);
                o.req("b", b);
            }
            RouterCrash { node, down_for } => {
                o.req("node", node);
                o.req("down_for", down_for);
            }
            RouterDown { node } => o.req("node", node),
            ArrFailure { arr } => o.req("arr", arr),
            ApReassign { ap, arrs } => {
                o.req("ap", ap);
                o.req("arrs", arrs);
            }
        });
    }
}

const MODES: [(&str, Mode); 5] = [
    ("full_mesh", Mode::FullMesh),
    ("abrr", Mode::Abrr),
    ("tbrr", Mode::Tbrr { multipath: false }),
    ("tbrr_multipath", Mode::Tbrr { multipath: true }),
    ("transition", Mode::Transition),
];

/// The DSL keyword for `mode`.
pub fn mode_keyword(mode: &Mode) -> &'static str {
    keyword(mode, &MODES)
}

leaf! {
    Mode: Mode::FullMesh,
        |v, path| read_keyword(v, path, &MODES, "mode"),
        |m| write_keyword(m, &MODES);
}

record! {
    /// One mode run plus the invariants to check on it.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Check {
        /// The mode to run.
        pub mode: Mode = req,
        /// Expected quiescence (None = don't care).
        pub quiesces: Option<bool> = maybe,
        /// Assert the forwarding-loop auditor finds nothing.
        pub no_loops: bool = opt(false),
        /// Assert no live router blackholes a live prefix.
        pub no_blackholes: bool = opt(false),
        /// Assert exits equal a fault-free full-mesh twin's.
        pub matches_full_mesh: bool = opt(false),
        /// Assert encode-decode-verify wire mode (every session message
        /// round-tripped through the BGP byte codec) is behaviorally
        /// invisible: identical outcomes, selections, and byte-identical
        /// obs traces vs struct mode.
        pub wire: bool = opt(false),
        /// Pinned (router, prefix) → exit expectations.
        pub exits: Vec<ExitExpect> = opt(Vec::new()),
    }
}

record! {
    /// One pinned exit expectation.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ExitExpect {
        /// The router whose selection is pinned.
        pub router: RouterId = req,
        /// The prefix.
        pub prefix: Ipv4Prefix = req,
        /// The expected exit router (`null` = expect no route).
        pub exit: Option<RouterId> = req,
    }
}

record! {
    /// Event/time budget for each run.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Budget {
        /// Max simulated events per run (oscillation cutoff).
        pub max_events: u64 = opt_always(DEFAULT_MAX_EVENTS),
        /// Max simulated time per run, µs.
        pub max_time_us: u64 = opt(u64::MAX),
    }
}

impl Default for Budget {
    fn default() -> Self {
        defaults()
    }
}

/// Expected overall verdict of a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// All checks must pass.
    Pass,
    /// At least one check must fail (the scenario demonstrates a
    /// violation the oracle stack is expected to catch).
    Fail,
}

const VERDICTS: [(&str, Verdict); 2] = [("pass", Verdict::Pass), ("fail", Verdict::Fail)];

leaf! {
    Verdict: Verdict::Pass,
        |v, path| read_keyword(v, path, &VERDICTS, "verdict"),
        |v| write_keyword(v, &VERDICTS);
}
