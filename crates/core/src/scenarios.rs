//! Canonical scenarios: the oscillation gadgets of §2.3 and small
//! reference topologies, each runnable under any [`Mode`].
//!
//! * [`med_gadget`] — the RFC 3345-style MED oscillation: two clusters,
//!   three border routers, MED values arranged so single-path TBRR
//!   cycles forever while ABRR and full-mesh converge.
//! * [`topology_gadget`] — a cyclic-IGP-preference oscillation: three
//!   clusters whose TRRs each prefer the *next* cluster's exit, so no
//!   stable single-path assignment exists (cf. Griffin & Wilfong; the
//!   paper's §2.3.1 argument is that such oscillations "can only occur
//!   between RRs", which ABRR's single reflection hop eliminates).

use crate::msg::ExternalEvent;
use crate::spec::{AbrrLoopPrevention, ClusterSpec, LatencyModel, Mode, NetworkSpec};
use bgp_rib::DecisionConfig;
use bgp_types::{ApId, ApMap, AsPath, Asn, Ipv4Prefix, NextHop, PathAttributes, RouterId};
use igp::{IgpOracle, Topology};
use netsim::Time;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Spec knobs a scenario may override. Defaults match the historical
/// hardcoded gadget settings (zero MRAI, fixed 1 ms latency, reflected
/// bit, no processing delay), so `ScenarioTuning::default()` preserves
/// the behavior of every pre-existing gadget bit-for-bit.
#[derive(Clone, Debug)]
pub struct ScenarioTuning {
    /// Min route advertisement interval, microseconds.
    pub mrai_us: Time,
    /// Clients retain full ARR advertisement sets for fast reroute.
    pub clients_keep_backups: bool,
    /// ABRR reflection loop-prevention flavor.
    pub abrr_loop_prevention: AbrrLoopPrevention,
    /// Session latency model.
    pub latency: LatencyModel,
    /// RRs also participate as clients (hold the full table).
    pub rrs_are_clients: bool,
    /// Account per-message wire bytes in counters.
    pub account_bytes: bool,
    /// Client processing delay, base microseconds.
    pub proc_delay_base_us: Time,
    /// Client processing delay, deterministic spread.
    pub proc_delay_spread_us: Time,
    /// RR processing delay, base microseconds.
    pub rr_proc_delay_base_us: Time,
    /// RR processing delay, deterministic spread.
    pub rr_proc_delay_spread_us: Time,
}

impl Default for ScenarioTuning {
    fn default() -> Self {
        ScenarioTuning {
            mrai_us: 0,
            clients_keep_backups: false,
            abrr_loop_prevention: AbrrLoopPrevention::ReflectedBit,
            latency: LatencyModel::Fixed(1_000),
            rrs_are_clients: true,
            account_bytes: false,
            proc_delay_base_us: 0,
            proc_delay_spread_us: 0,
            rr_proc_delay_base_us: 0,
            rr_proc_delay_spread_us: 0,
        }
    }
}

/// A reusable scenario: topology, role assignments, and eBGP feeds.
///
/// Historically each scenario was a hand-written Rust function; the
/// `scenario` crate now also compiles declarative scenario files into
/// this same structure, so everything downstream (spec building, the
/// engines, the auditors) is shared between the two sources.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable name.
    pub name: String,
    /// The IGP topology.
    pub topo: Topology,
    /// Data-plane routers.
    pub routers: Vec<RouterId>,
    /// Route reflectors (become TRRs in TBRR mode, ARRs in ABRR mode).
    pub rrs: Vec<RouterId>,
    /// TBRR cluster layout.
    pub clusters: Vec<ClusterSpec>,
    /// eBGP feeds to inject at t=0: `(router, event)`.
    pub feeds: Vec<(RouterId, ExternalEvent)>,
    /// The prefixes the feeds cover.
    pub prefixes: Vec<Ipv4Prefix>,
    /// Address-partition map for ABRR modes. `None` means the single
    /// full-space AP the gadgets historically used.
    pub ap_map: Option<ApMap>,
    /// Per-AP ARR assignment for ABRR modes. Empty means "every RR
    /// serves every AP".
    pub arrs: BTreeMap<ApId, Vec<RouterId>>,
    /// Spec knobs (MRAI, latency, backups, ...).
    pub tuning: ScenarioTuning,
    /// Additional timed external events: `(time, router, event)`.
    /// Unlike `feeds` these fire at their own timestamps — cutovers,
    /// late announcements, withdrawals.
    pub events: Vec<(Time, RouterId, ExternalEvent)>,
}

impl Scenario {
    /// A scenario with the given structure and default tuning — the
    /// constructor all the canonical gadgets use.
    pub fn gadget(
        name: impl Into<String>,
        topo: Topology,
        routers: Vec<RouterId>,
        rrs: Vec<RouterId>,
        clusters: Vec<ClusterSpec>,
        feeds: Vec<(RouterId, ExternalEvent)>,
        prefixes: Vec<Ipv4Prefix>,
    ) -> Scenario {
        Scenario {
            name: name.into(),
            topo,
            routers,
            rrs,
            clusters,
            feeds,
            prefixes,
            ap_map: None,
            arrs: BTreeMap::new(),
            tuning: ScenarioTuning::default(),
            events: Vec::new(),
        }
    }

    /// Builds a [`NetworkSpec`] for this scenario under the given mode.
    /// In ABRR/transition modes the scenario's RRs serve the scenario's
    /// AP map (default: a single AP covering the whole address space).
    pub fn spec(&self, mode: Mode) -> NetworkSpec {
        let ap_map = mode
            .has_abrr()
            .then(|| self.ap_map.clone().unwrap_or_else(|| ApMap::uniform(1)));
        let mut arrs = BTreeMap::new();
        if mode.has_abrr() {
            if self.arrs.is_empty() {
                for p in ap_map.as_ref().unwrap().partitions() {
                    arrs.insert(p.id, self.rrs.clone());
                }
            } else {
                arrs = self.arrs.clone();
            }
        }
        NetworkSpec {
            asn: Asn(65000),
            mode: mode.clone(),
            routers: self.routers.clone(),
            oracle: Arc::new(IgpOracle::compute(&self.topo)),
            decision: DecisionConfig::default(),
            mrai_us: self.tuning.mrai_us,
            ap_map,
            arrs,
            clusters: if mode.has_tbrr() {
                self.clusters.clone()
            } else {
                Vec::new()
            },
            rrs_are_clients: self.tuning.rrs_are_clients,
            account_bytes: self.tuning.account_bytes,
            abrr_loop_prevention: self.tuning.abrr_loop_prevention,
            clients_keep_backups: self.tuning.clients_keep_backups,
            proc_delay_base_us: self.tuning.proc_delay_base_us,
            proc_delay_spread_us: self.tuning.proc_delay_spread_us,
            rr_proc_delay_base_us: self.tuning.rr_proc_delay_base_us,
            rr_proc_delay_spread_us: self.tuning.rr_proc_delay_spread_us,
            latency: self.tuning.latency,
            wire_mode: netsim::WireMode::Off,
        }
    }

    /// Builds, feeds, and runs the scenario under `mode` with the
    /// session wire mode and limits of `cfg`; returns the sim and the
    /// run outcome. Every wire mode produces the same outcome — the
    /// `wire` oracle asserts exactly that — so `cfg.limits.max_events`
    /// is the knob that matters: it bounds oscillations.
    pub fn run(
        &self,
        mode: Mode,
        cfg: netsim::RunConfig,
    ) -> (netsim::Sim<crate::node::BgpNode>, netsim::RunOutcome) {
        let mut spec = self.spec(mode);
        spec.wire_mode = cfg.wire;
        let spec = Arc::new(spec);
        let mut sim = crate::spec::build_sim(spec);
        for (router, ev) in &self.feeds {
            sim.schedule_external(0, *router, ev.clone());
        }
        for (at, router, ev) in &self.events {
            sim.schedule_external(*at, *router, ev.clone());
        }
        let outcome = sim.run(cfg.limits);
        (sim, outcome)
    }
}

fn r(i: u32) -> RouterId {
    RouterId(i)
}

fn ebgp_feed(prefix: Ipv4Prefix, peer_as: u32, peer_addr: u32, med: u32) -> ExternalEvent {
    ExternalEvent::EbgpAnnounce {
        prefix,
        peer_as: Asn(peer_as),
        peer_addr,
        attrs: Arc::new(
            PathAttributes::ebgp(AsPath::sequence([Asn(peer_as)]), NextHop(peer_addr))
                .with_med(med),
        ),
    }
}

/// The MED oscillation gadget (cf. RFC 3345).
///
/// Routers: RR1=1, RR2=2, A=3, B=4, C=5. Clusters: {RR1: A, B},
/// {RR2: C}. AS 200 advertises the prefix at B (MED 1) and C (MED 0);
/// AS 100 advertises at A (MED 0). IGP metrics place B closest to RR1,
/// then A, with C far away — and A closer to RR2 than C.
///
/// Under single-path TBRR the RRs cycle: C's arrival kills B by MED and
/// makes RR1 pick A; RR2 then prefers A, withdraws C; without C, B
/// beats A at RR1; B's arrival re-kills... (period 3, forever).
pub fn med_gadget() -> Scenario {
    let prefix: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
    let mut topo = Topology::new();
    // Metrics chosen so d(RR1,B)=1 < d(RR1,A)=5 < d(RR1,C)=24,
    // and d(RR2,A)=9 < d(RR2,C)=20.
    topo.add_link(r(1), r(4), 1); // RR1 - B
    topo.add_link(r(1), r(3), 5); // RR1 - A
    topo.add_link(r(1), r(2), 4); // RR1 - RR2
    topo.add_link(r(2), r(5), 20); // RR2 - C
    Scenario::gadget(
        "med-gadget",
        topo,
        vec![r(3), r(4), r(5)],
        vec![r(1), r(2)],
        vec![
            ClusterSpec {
                id: 1,
                trrs: vec![r(1)],
                clients: vec![r(3), r(4)],
            },
            ClusterSpec {
                id: 2,
                trrs: vec![r(2)],
                clients: vec![r(5)],
            },
        ],
        vec![
            (r(3), ebgp_feed(prefix, 100, 9100, 0)), // A: AS100, MED 0
            (r(4), ebgp_feed(prefix, 200, 9200, 1)), // B: AS200, MED 1
            (r(5), ebgp_feed(prefix, 200, 9201, 0)), // C: AS200, MED 0
        ],
        vec![prefix],
    )
}

/// The topology-based oscillation gadget: three clusters in a cycle of
/// IGP preference. Each TRR is closer to the *next* cluster's border
/// router than to its own, so no stable single-path assignment exists.
/// (This deliberately violates the "intra-PoP < inter-PoP" metric rule
/// ISPs engineer, §1 — exactly the freedom ABRR restores.)
pub fn topology_gadget() -> Scenario {
    let prefix: Ipv4Prefix = "20.0.0.0/8".parse().unwrap();
    let mut topo = Topology::new();
    // RR1..RR3 = 1..3, C1..C3 = 4..6.
    topo.add_link(r(1), r(4), 10); // RR1 - C1
    topo.add_link(r(2), r(5), 10); // RR2 - C2
    topo.add_link(r(3), r(6), 10); // RR3 - C3
    topo.add_link(r(1), r(5), 5); // RR1 - C2  (prefers next cluster)
    topo.add_link(r(2), r(6), 5); // RR2 - C3
    topo.add_link(r(3), r(4), 5); // RR3 - C1
    Scenario::gadget(
        "topology-gadget",
        topo,
        vec![r(4), r(5), r(6)],
        vec![r(1), r(2), r(3)],
        vec![
            ClusterSpec {
                id: 1,
                trrs: vec![r(1)],
                clients: vec![r(4)],
            },
            ClusterSpec {
                id: 2,
                trrs: vec![r(2)],
                clients: vec![r(5)],
            },
            ClusterSpec {
                id: 3,
                trrs: vec![r(3)],
                clients: vec![r(6)],
            },
        ],
        // Three distinct ASes, equal path length, no MEDs: ties survive
        // to IGP (step 6), where the cyclic preference bites.
        vec![
            (r(4), ebgp_feed(prefix, 101, 9101, 0)),
            (r(5), ebgp_feed(prefix, 102, 9102, 0)),
            (r(6), ebgp_feed(prefix, 103, 9103, 0)),
        ],
        vec![prefix],
    )
}

/// A small well-behaved reference network (no gadget): 3 PoPs × 3
/// routers, engineered metrics, 2 RRs, a handful of prefixes fed from
/// two border routers. Useful for smoke tests and examples.
pub fn small_reference() -> Scenario {
    let view = igp::PopTopologyBuilder::new(3, 3).build();
    let routers: Vec<RouterId> = view.routers();
    let rrs = vec![routers[0], routers[3]]; // first router of PoPs 0 and 1
    let clients: Vec<RouterId> = routers.clone();
    let p1: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
    let p2: Ipv4Prefix = "192.168.0.0/16".parse().unwrap();
    let feeds = vec![
        (routers[2], ebgp_feed(p1, 7018, 9001, 0)),
        (routers[5], ebgp_feed(p1, 3356, 9002, 0)),
        (routers[8], ebgp_feed(p2, 7018, 9003, 0)),
    ];
    Scenario::gadget(
        "small-reference",
        view.topo,
        routers,
        rrs.clone(),
        vec![ClusterSpec {
            id: 1,
            trrs: rrs,
            clients,
        }],
        feeds,
        vec![p1, p2],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit;

    /// Struct mode, 50 000 events to tell oscillation from
    /// convergence.
    fn osc_budget() -> netsim::RunConfig {
        netsim::RunConfig {
            limits: netsim::RunLimits {
                max_events: 50_000,
                max_time: Time::MAX,
            },
            ..Default::default()
        }
    }

    #[test]
    fn med_gadget_oscillates_under_tbrr() {
        let s = med_gadget();
        let (_, outcome) = s.run(Mode::Tbrr { multipath: false }, osc_budget());
        assert!(
            !outcome.quiesced,
            "single-path TBRR must oscillate on the MED gadget (got {} events)",
            outcome.events
        );
    }

    #[test]
    fn med_gadget_converges_under_abrr() {
        let s = med_gadget();
        let (sim, outcome) = s.run(Mode::Abrr, osc_budget());
        assert!(outcome.quiesced, "ABRR must converge on the MED gadget");
        // And picks loop-free paths.
        let spec = s.spec(Mode::Abrr);
        assert_eq!(audit::count_loops(&sim, &spec, &s.prefixes), 0);
    }

    #[test]
    fn med_gadget_converges_under_full_mesh() {
        let s = med_gadget();
        let (_, outcome) = s.run(Mode::FullMesh, osc_budget());
        assert!(outcome.quiesced);
    }

    #[test]
    fn topology_gadget_oscillates_under_tbrr() {
        let s = topology_gadget();
        let (_, outcome) = s.run(Mode::Tbrr { multipath: false }, osc_budget());
        assert!(
            !outcome.quiesced,
            "single-path TBRR must oscillate on the topology gadget"
        );
    }

    #[test]
    fn topology_gadget_converges_under_abrr() {
        let s = topology_gadget();
        let (sim, outcome) = s.run(Mode::Abrr, osc_budget());
        assert!(outcome.quiesced);
        // Every client exits via its IGP-nearest border (C1 stays local
        // etc.; RR1 prefers C2's exit — and that's fine, no loop).
        let spec = s.spec(Mode::Abrr);
        assert_eq!(audit::count_loops(&sim, &spec, &s.prefixes), 0);
    }

    #[test]
    fn topology_gadget_matches_full_mesh_exits() {
        let s = topology_gadget();
        let (abrr_sim, o1) = s.run(Mode::Abrr, osc_budget());
        let (mesh_sim, o2) = s.run(Mode::FullMesh, osc_budget());
        assert!(o1.quiesced && o2.quiesced);
        let spec = s.spec(Mode::Abrr);
        let report = audit::compare_exits(&abrr_sim, &spec, &mesh_sim, &s.routers, &s.prefixes);
        assert!(
            report.is_efficient(),
            "ABRR exits must match full mesh: {:?}",
            report.mismatches
        );
    }

    #[test]
    fn med_gadget_abrr_matches_full_mesh_exits() {
        // Regression: client-side reduction (§3.4 storage optimization)
        // must not drop the set member that MED-eliminates a border
        // router's own eBGP route — border B must exit via A, exactly
        // as under full mesh, not stick to its own MED-looser route.
        let s = med_gadget();
        let (ab, o1) = s.run(Mode::Abrr, osc_budget());
        let (fm, o2) = s.run(Mode::FullMesh, osc_budget());
        assert!(o1.quiesced && o2.quiesced);
        for r in &s.routers {
            assert_eq!(
                ab.node(*r)
                    .selected(&s.prefixes[0])
                    .map(|x| x.exit_router()),
                fm.node(*r)
                    .selected(&s.prefixes[0])
                    .map(|x| x.exit_router()),
                "router {r:?}"
            );
        }
        // Specifically: B (router 4) must NOT select its own exit.
        assert_eq!(
            ab.node(RouterId(4))
                .selected(&s.prefixes[0])
                .map(|x| x.exit_router()),
            Some(RouterId(3)),
            "B's own MED-1 route must be eliminated by C's MED-0 route"
        );
    }

    #[test]
    fn small_reference_all_modes_converge() {
        let s = small_reference();
        for mode in [
            Mode::FullMesh,
            Mode::Abrr,
            Mode::Tbrr { multipath: false },
            Mode::Tbrr { multipath: true },
        ] {
            let (_, outcome) = s.run(mode.clone(), osc_budget());
            assert!(outcome.quiesced, "{mode:?} did not converge");
        }
    }
}
