//! The scenario data model — what a scenario file parses into.
//!
//! The model is deliberately plain data (no `Arc`s, no computed
//! tables): [`crate::parse`] builds it from JSON, [`crate::validate`]
//! checks it, [`crate::compile`] turns it into runnable structures, and
//! the shrinker edits it structurally. `ScenarioFile::to_json_pretty`
//! writes it back out, so shrunk counterexamples are themselves valid
//! corpus files.

use serde::{json, Serialize, Value};

/// Default event budget when a file does not set one.
pub const DEFAULT_MAX_EVENTS: u64 = 200_000;

/// A complete scenario file.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioFile {
    /// Scenario name (reported in verdict tables).
    pub name: String,
    /// Free-form description.
    pub comment: Option<String>,
    /// The network under test.
    pub network: Network,
    /// eBGP feeds, withdrawals, and AP cutovers.
    pub workload: Workload,
    /// Timed faults (compiled through the `faults` crate).
    pub faults: Vec<TimedFault>,
    /// The invariants to check, one entry per mode run.
    pub checks: Vec<Check>,
    /// Run budget.
    pub budget: Budget,
    /// `Pass` for ordinary scenarios; `Fail` for corpus gadgets that
    /// *demonstrate* a violation — the runner asserts the oracle stack
    /// catches them.
    pub expect_verdict: Verdict,
}

/// The network layer of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub enum Network {
    /// An explicit gadget-scale network (links or a PoP grid).
    Gadget(GadgetNetwork),
    /// The paper's synthetic Tier-1 model at a chosen scale.
    Tier1(Tier1Network),
}

/// An explicit small network: topology, roles, AP layout, knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct GadgetNetwork {
    /// Where the IGP graph comes from.
    pub topology: TopologySource,
    /// Data-plane (border/client) routers. May be empty for
    /// `PopGrid`, meaning "every grid router".
    pub routers: Vec<u32>,
    /// Route reflectors (TRRs under TBRR, ARRs under ABRR).
    pub rrs: Vec<u32>,
    /// TBRR cluster layout. Empty means a single cluster of all RRs
    /// over all routers.
    pub clusters: Vec<Cluster>,
    /// AP layout for ABRR modes. `None` means one AP covering the
    /// whole v4 space.
    pub aps: Option<ApScheme>,
    /// Per-AP ARR assignment. Empty means every RR serves every AP.
    pub arrs: Vec<ApArrs>,
    /// Spec tuning knobs.
    pub knobs: SpecKnobs,
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

/// One weighted IGP link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: u32,
    /// The other endpoint.
    pub b: u32,
    /// IGP metric.
    pub metric: u32,
}

/// One TBRR cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct Cluster {
    /// Cluster id.
    pub id: u32,
    /// The cluster's TRRs.
    pub trrs: Vec<u32>,
    /// The cluster's clients.
    pub clients: Vec<u32>,
}

/// How the address space splits into APs.
#[derive(Clone, Debug, PartialEq)]
pub enum ApScheme {
    /// `ApMap::uniform(n)`: n equal slices of the v4 space.
    Uniform(u16),
    /// Explicit address ranges.
    Explicit(Vec<ApRange>),
}

/// One explicit AP range (inclusive, dotted-quad addresses in JSON).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApRange {
    /// AP id.
    pub id: u16,
    /// First covered address.
    pub first: u32,
    /// Last covered address (inclusive).
    pub last: u32,
}

/// ARR assignment for one AP.
#[derive(Clone, Debug, PartialEq)]
pub struct ApArrs {
    /// The AP.
    pub ap: u16,
    /// The RRs serving it.
    pub arrs: Vec<u32>,
}

/// Spec tuning knobs (defaults match the canonical Rust gadgets).
#[derive(Clone, Debug, PartialEq)]
pub struct SpecKnobs {
    /// Min route advertisement interval, µs.
    pub mrai_us: u64,
    /// Clients retain full ARR advertisement sets (§3.4 trade-off).
    pub clients_keep_backups: bool,
    /// ABRR reflection loop-prevention flavor.
    pub loop_prevention: LoopPrevention,
    /// Session latency model.
    pub latency: Latency,
    /// RRs also hold the full table as clients.
    pub rrs_are_clients: bool,
}

impl Default for SpecKnobs {
    fn default() -> Self {
        SpecKnobs {
            mrai_us: 0,
            clients_keep_backups: false,
            loop_prevention: LoopPrevention::ReflectedBit,
            latency: Latency::Fixed(1_000),
            rrs_are_clients: true,
        }
    }
}

/// ABRR loop-prevention flavor (mirrors `abrr::AbrrLoopPrevention`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopPrevention {
    /// Reflected-bit (the paper's mechanism).
    ReflectedBit,
    /// RFC 4456 cluster-list.
    ClusterList,
    /// None (for demonstrating why one is needed).
    None,
}

/// Session latency model (mirrors `abrr::LatencyModel`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Latency {
    /// Fixed per-message latency, µs.
    Fixed(u64),
    /// Base + per-IGP-metric latency, µs.
    Igp {
        /// Base µs.
        base_us: u64,
        /// Per IGP metric unit, µs.
        per_metric_us: u64,
    },
}

/// The Tier-1 synthetic model, by scale knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct Tier1Network {
    /// Total prefixes.
    pub prefixes: usize,
    /// Number of PoPs.
    pub pops: usize,
    /// Routers per PoP.
    pub routers_per_pop: usize,
    /// Model seed.
    pub seed: u64,
    /// ABRR layout: number of APs.
    pub aps: usize,
    /// ABRR layout: ARRs per AP.
    pub arrs_per_ap: usize,
    /// TBRR layout: TRRs per cluster.
    pub trrs_per_cluster: usize,
    /// MRAI for the generated specs, µs.
    pub mrai_us: u64,
}

/// The scenario's eBGP workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Workload {
    /// eBGP announcements.
    pub feeds: Vec<Feed>,
    /// eBGP withdrawals.
    pub withdraws: Vec<Withdraw>,
    /// AP cutovers (Transition mode; broadcast to all nodes).
    pub cutovers: Vec<Cutover>,
}

/// One eBGP announcement.
#[derive(Clone, Debug, PartialEq)]
pub struct Feed {
    /// Injection time, µs (0 = initial state).
    pub at: u64,
    /// Receiving border router.
    pub router: u32,
    /// Announced prefix, e.g. `10.0.0.0/8`.
    pub prefix: String,
    /// Peer AS number.
    pub peer_as: u32,
    /// Peer address (also the route's next hop).
    pub peer_addr: u32,
    /// MED.
    pub med: u32,
    /// LOCAL_PREF override (None = protocol default).
    pub local_pref: Option<u32>,
}

/// One eBGP withdrawal.
#[derive(Clone, Debug, PartialEq)]
pub struct Withdraw {
    /// Withdrawal time, µs.
    pub at: u64,
    /// The border router whose peer withdraws.
    pub router: u32,
    /// The withdrawn prefix.
    pub prefix: String,
    /// The withdrawing peer's address.
    pub peer_addr: u32,
}

/// One AP cutover event (Transition mode §2.4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cutover {
    /// Cutover time, µs.
    pub at: u64,
    /// The AP being cut over to the ABRR plane.
    pub ap: u16,
}

/// One timed fault, compiled through `faults::compile`.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedFault {
    /// Fault time, µs.
    pub at: u64,
    /// What fails.
    pub kind: faults::FaultKind,
}

/// The mode a check runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModeSpec {
    /// Full iBGP mesh.
    FullMesh,
    /// ABRR.
    Abrr,
    /// Single-path TBRR.
    Tbrr,
    /// Multipath (add-paths) TBRR.
    TbrrMultipath,
    /// The §2.4 AP-by-AP transition plane.
    Transition,
}

impl ModeSpec {
    /// The DSL keyword for this mode.
    pub fn keyword(self) -> &'static str {
        match self {
            ModeSpec::FullMesh => "full_mesh",
            ModeSpec::Abrr => "abrr",
            ModeSpec::Tbrr => "tbrr",
            ModeSpec::TbrrMultipath => "tbrr_multipath",
            ModeSpec::Transition => "transition",
        }
    }
}

/// One mode run plus the invariants to check on it.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// The mode to run.
    pub mode: ModeSpec,
    /// Expected quiescence (None = don't care).
    pub quiesces: Option<bool>,
    /// Assert the forwarding-loop auditor finds nothing.
    pub no_loops: bool,
    /// Assert no live router blackholes a live prefix.
    pub no_blackholes: bool,
    /// Assert exits equal a fault-free full-mesh twin's.
    pub matches_full_mesh: bool,
    /// Assert encode-decode-verify wire mode (every session message
    /// round-tripped through the BGP byte codec) is behaviorally
    /// invisible: identical outcomes, selections, and byte-identical
    /// obs traces vs struct mode.
    pub wire: bool,
    /// Pinned (router, prefix) → exit expectations.
    pub exits: Vec<ExitExpect>,
}

impl Check {
    /// A check running `mode` with no assertions.
    pub fn bare(mode: ModeSpec) -> Check {
        Check {
            mode,
            quiesces: None,
            no_loops: false,
            no_blackholes: false,
            matches_full_mesh: false,
            wire: false,
            exits: Vec::new(),
        }
    }
}

/// One pinned exit expectation.
#[derive(Clone, Debug, PartialEq)]
pub struct ExitExpect {
    /// The router whose selection is pinned.
    pub router: u32,
    /// The prefix.
    pub prefix: String,
    /// The expected exit router (None = expect no route).
    pub exit: Option<u32>,
}

/// Event/time budget for each run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Max simulated events per run (oscillation cutoff).
    pub max_events: u64,
    /// Max simulated time per run, µs.
    pub max_time_us: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_events: DEFAULT_MAX_EVENTS,
            max_time_us: u64::MAX,
        }
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

// ---------------------------------------------------------------------
// Serialization back to JSON (the shrinker writes minimal gadgets).
// ---------------------------------------------------------------------

fn s(x: &str) -> Value {
    Value::Str(x.to_string())
}

fn u(x: u64) -> Value {
    Value::U64(x)
}

fn seq(items: Vec<Value>) -> Value {
    Value::Seq(items)
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (Value::Str(k.to_string()), v))
            .collect(),
    )
}

fn dotted(addr: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        addr >> 24,
        (addr >> 16) & 0xff,
        (addr >> 8) & 0xff,
        addr & 0xff
    )
}

fn fault_value(f: &TimedFault) -> Value {
    use faults::FaultKind::*;
    let (key, body) = match &f.kind {
        SessionFlap { a, b, down_for } => (
            "session_flap",
            map(vec![
                ("a", u(a.0 as u64)),
                ("b", u(b.0 as u64)),
                ("down_for", u(*down_for)),
            ]),
        ),
        LinkDown { a, b } => (
            "link_down",
            map(vec![("a", u(a.0 as u64)), ("b", u(b.0 as u64))]),
        ),
        LinkUp { a, b } => (
            "link_up",
            map(vec![("a", u(a.0 as u64)), ("b", u(b.0 as u64))]),
        ),
        RouterCrash { node, down_for } => (
            "router_crash",
            map(vec![("node", u(node.0 as u64)), ("down_for", u(*down_for))]),
        ),
        RouterDown { node } => ("router_down", map(vec![("node", u(node.0 as u64))])),
        ArrFailure { arr } => ("arr_failure", map(vec![("arr", u(arr.0 as u64))])),
        ApReassign { ap, arrs } => (
            "ap_reassign",
            map(vec![
                ("ap", u(ap.0 as u64)),
                ("arrs", seq(arrs.iter().map(|r| u(r.0 as u64)).collect())),
            ]),
        ),
    };
    map(vec![("at", u(f.at)), (key, body)])
}

impl Serialize for ScenarioFile {
    fn to_value(&self) -> Value {
        let mut top: Vec<(&str, Value)> = vec![("name", s(&self.name))];
        if let Some(c) = &self.comment {
            top.push(("comment", s(c)));
        }
        top.push(("network", network_value(&self.network)));
        let w = &self.workload;
        let mut wl: Vec<(&str, Value)> = Vec::new();
        if !w.feeds.is_empty() {
            wl.push((
                "feeds",
                seq(w
                    .feeds
                    .iter()
                    .map(|f| {
                        let mut e = vec![
                            ("at", u(f.at)),
                            ("router", u(f.router as u64)),
                            ("prefix", s(&f.prefix)),
                            ("peer_as", u(f.peer_as as u64)),
                            ("peer_addr", u(f.peer_addr as u64)),
                            ("med", u(f.med as u64)),
                        ];
                        if let Some(lp) = f.local_pref {
                            e.push(("local_pref", u(lp as u64)));
                        }
                        map(e)
                    })
                    .collect()),
            ));
        }
        if !w.withdraws.is_empty() {
            wl.push((
                "withdraws",
                seq(w
                    .withdraws
                    .iter()
                    .map(|x| {
                        map(vec![
                            ("at", u(x.at)),
                            ("router", u(x.router as u64)),
                            ("prefix", s(&x.prefix)),
                            ("peer_addr", u(x.peer_addr as u64)),
                        ])
                    })
                    .collect()),
            ));
        }
        if !w.cutovers.is_empty() {
            wl.push((
                "cutovers",
                seq(w
                    .cutovers
                    .iter()
                    .map(|c| map(vec![("at", u(c.at)), ("ap", u(c.ap as u64))]))
                    .collect()),
            ));
        }
        top.push(("workload", map(wl)));
        if !self.faults.is_empty() {
            top.push(("faults", seq(self.faults.iter().map(fault_value).collect())));
        }
        top.push(("checks", seq(self.checks.iter().map(check_value).collect())));
        let b = &self.budget;
        let mut bv: Vec<(&str, Value)> = vec![("max_events", u(b.max_events))];
        if b.max_time_us != u64::MAX {
            bv.push(("max_time_us", u(b.max_time_us)));
        }
        top.push(("budget", map(bv)));
        if self.expect_verdict == Verdict::Fail {
            top.push(("expect_verdict", s("fail")));
        }
        map(top)
    }
}

fn network_value(n: &Network) -> Value {
    match n {
        Network::Gadget(g) => {
            let mut e: Vec<(&str, Value)> = Vec::new();
            match &g.topology {
                TopologySource::Links(links) => e.push((
                    "links",
                    seq(links
                        .iter()
                        .map(|l| seq(vec![u(l.a as u64), u(l.b as u64), u(l.metric as u64)]))
                        .collect()),
                )),
                TopologySource::PopGrid {
                    pops,
                    routers_per_pop,
                } => e.push((
                    "pop_grid",
                    map(vec![
                        ("pops", u(*pops as u64)),
                        ("routers_per_pop", u(*routers_per_pop as u64)),
                    ]),
                )),
            }
            if !g.routers.is_empty() {
                e.push((
                    "routers",
                    seq(g.routers.iter().map(|r| u(*r as u64)).collect()),
                ));
            }
            e.push(("rrs", seq(g.rrs.iter().map(|r| u(*r as u64)).collect())));
            if !g.clusters.is_empty() {
                e.push((
                    "clusters",
                    seq(g
                        .clusters
                        .iter()
                        .map(|c| {
                            map(vec![
                                ("id", u(c.id as u64)),
                                ("trrs", seq(c.trrs.iter().map(|r| u(*r as u64)).collect())),
                                (
                                    "clients",
                                    seq(c.clients.iter().map(|r| u(*r as u64)).collect()),
                                ),
                            ])
                        })
                        .collect()),
                ));
            }
            match &g.aps {
                None => {}
                Some(ApScheme::Uniform(n)) => e.push(("aps", map(vec![("uniform", u(*n as u64))]))),
                Some(ApScheme::Explicit(ranges)) => e.push((
                    "aps",
                    map(vec![(
                        "explicit",
                        seq(ranges
                            .iter()
                            .map(|r| {
                                map(vec![
                                    ("id", u(r.id as u64)),
                                    ("first", s(&dotted(r.first))),
                                    ("last", s(&dotted(r.last))),
                                ])
                            })
                            .collect()),
                    )]),
                )),
            }
            if !g.arrs.is_empty() {
                e.push((
                    "arrs",
                    seq(g
                        .arrs
                        .iter()
                        .map(|a| {
                            map(vec![
                                ("ap", u(a.ap as u64)),
                                ("arrs", seq(a.arrs.iter().map(|r| u(*r as u64)).collect())),
                            ])
                        })
                        .collect()),
                ));
            }
            let k = &g.knobs;
            let d = SpecKnobs::default();
            let mut kv: Vec<(&str, Value)> = Vec::new();
            if k.mrai_us != d.mrai_us {
                kv.push(("mrai_us", u(k.mrai_us)));
            }
            if k.clients_keep_backups {
                kv.push(("clients_keep_backups", Value::Bool(true)));
            }
            if k.loop_prevention != d.loop_prevention {
                kv.push((
                    "loop_prevention",
                    s(match k.loop_prevention {
                        LoopPrevention::ReflectedBit => "reflected_bit",
                        LoopPrevention::ClusterList => "cluster_list",
                        LoopPrevention::None => "none",
                    }),
                ));
            }
            if k.latency != d.latency {
                kv.push((
                    "latency",
                    match k.latency {
                        Latency::Fixed(us) => map(vec![("fixed_us", u(us))]),
                        Latency::Igp {
                            base_us,
                            per_metric_us,
                        } => map(vec![
                            ("base_us", u(base_us)),
                            ("per_metric_us", u(per_metric_us)),
                        ]),
                    },
                ));
            }
            if !k.rrs_are_clients {
                kv.push(("rrs_are_clients", Value::Bool(false)));
            }
            if !kv.is_empty() {
                e.push(("spec", map(kv)));
            }
            map(e)
        }
        Network::Tier1(t) => map(vec![(
            "tier1",
            map(vec![
                ("prefixes", u(t.prefixes as u64)),
                ("pops", u(t.pops as u64)),
                ("routers_per_pop", u(t.routers_per_pop as u64)),
                ("seed", u(t.seed)),
                ("aps", u(t.aps as u64)),
                ("arrs_per_ap", u(t.arrs_per_ap as u64)),
                ("trrs_per_cluster", u(t.trrs_per_cluster as u64)),
                ("mrai_us", u(t.mrai_us)),
            ]),
        )]),
    }
}

fn check_value(c: &Check) -> Value {
    let mut e: Vec<(&str, Value)> = vec![("mode", s(c.mode.keyword()))];
    if let Some(q) = c.quiesces {
        e.push(("quiesces", Value::Bool(q)));
    }
    if c.no_loops {
        e.push(("no_loops", Value::Bool(true)));
    }
    if c.no_blackholes {
        e.push(("no_blackholes", Value::Bool(true)));
    }
    if c.matches_full_mesh {
        e.push(("matches_full_mesh", Value::Bool(true)));
    }
    if c.wire {
        e.push(("wire", Value::Bool(true)));
    }
    if !c.exits.is_empty() {
        e.push((
            "exits",
            seq(c
                .exits
                .iter()
                .map(|x| {
                    let mut ev = vec![("router", u(x.router as u64)), ("prefix", s(&x.prefix))];
                    match x.exit {
                        Some(r) => ev.push(("exit", u(r as u64))),
                        None => ev.push(("exit", Value::Null)),
                    }
                    map(ev)
                })
                .collect()),
        ));
    }
    map(e)
}

impl ScenarioFile {
    /// Renders the scenario as indented JSON (a valid corpus file).
    pub fn to_json_pretty(&self) -> String {
        let mut text = json::to_string_pretty(self);
        text.push('\n');
        text
    }
}
