//! Network specification: who plays which role, how sessions are laid
//! out, and construction of a ready-to-run simulator.

use crate::index::SharedIndex;
use crate::node::{group, BgpNode};
use bgp_rib::DecisionConfig;
use bgp_types::{ApId, ApMap, Asn, RouterId};
use igp::{IgpOracle, Topology};
use netsim::{Sim, Time};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which iBGP scheme the AS runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Full-mesh iBGP: every router peers with every other (the
    /// correctness baseline the paper's ABRR emulates).
    FullMesh,
    /// Address-Based Route Reflection (the paper's contribution).
    Abrr,
    /// Topology-Based Route Reflection; `multipath` selects the paper's
    /// Appendix A.3 variant where TRRs advertise all best AS-level
    /// routes instead of a single best.
    Tbrr {
        /// Advertise all best AS-level routes between/below TRRs.
        multipath: bool,
    },
    /// §2.4 incremental transition: routers run both TBRR and ABRR
    /// session sets, initially accept TBRR routes for every AP, and cut
    /// over AP-by-AP via [`crate::msg::ExternalEvent::CutoverAp`].
    Transition,
}

impl Mode {
    /// Whether ABRR machinery (APs, ARRs) is active.
    pub fn has_abrr(&self) -> bool {
        matches!(self, Mode::Abrr | Mode::Transition)
    }

    /// Whether TBRR machinery (clusters, TRRs) is active.
    pub fn has_tbrr(&self) -> bool {
        matches!(self, Mode::Tbrr { .. } | Mode::Transition)
    }

    /// Whether TRRs advertise multiple paths.
    pub fn tbrr_multipath(&self) -> bool {
        matches!(self, Mode::Tbrr { multipath: true })
    }
}

/// A TBRR cluster: its id, reflectors, and client membership. A client
/// may appear in several clusters (the Tier-1 AS the paper measured has
/// ~20% of clients in two clusters, §4.2 footnote).
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterSpec {
    /// The cluster id carried in CLUSTER_LIST.
    pub id: u32,
    /// The cluster's route reflectors.
    pub trrs: Vec<RouterId>,
    /// The cluster's clients.
    pub clients: Vec<RouterId>,
}

/// ABRR's loop-prevention mechanism (§2.3.2). The paper notes that
/// "either loop-detection mechanism used by route reflectors today, the
/// Cluster List or the Originator ID, can be used to break loops in
/// ABRR", but that both are overkill: "all that is needed ... is a
/// single bit indicating that the update has been reflected by an ARR"
/// — their implementation (and our default) uses an extended-community
/// marker. The alternatives exist for the ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbrrLoopPrevention {
    /// The single-bit extended community (paper's choice). Stops a
    /// reflected update at the *first* mistaken re-reflection.
    ReflectedBit,
    /// RFC 4456-style CLUSTER_LIST (ARR cluster id = router id). A
    /// mistakenly looping update circulates once before the stamping
    /// ARR sees its own id and drops it — correct but later and fatter.
    ClusterList,
    /// No ARR-level prevention (ablation baseline): only the
    /// originator-id check at clients and replace-set deduplication
    /// stand between a misconfiguration and a loop.
    None,
}

/// How session latencies are assigned.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencyModel {
    /// Every session has the same one-way latency (µs).
    Fixed(Time),
    /// Latency grows with IGP distance: `base + per_metric × d` (µs).
    /// This is what creates the cross-cluster race conditions the paper
    /// observes in §4.2.
    IgpProportional {
        /// Fixed per-session component (µs).
        base: Time,
        /// Additional µs per unit of IGP metric.
        per_metric: Time,
    },
}

/// The complete, immutable description of one experimental AS.
#[derive(Clone, Debug)]
pub struct NetworkSpec {
    /// The local AS number.
    pub asn: Asn,
    /// iBGP scheme.
    pub mode: Mode,
    /// Data-plane routers (clients). RRs may be listed here too (then
    /// they are border-capable) or only referenced from `arrs`/
    /// `clusters` (pure control-plane devices).
    pub routers: Vec<RouterId>,
    /// IGP all-pairs state.
    pub oracle: Arc<IgpOracle>,
    /// Decision-process configuration.
    pub decision: DecisionConfig,
    /// MRAI interval in µs (0 disables; paper §3.5 default is 5 s).
    pub mrai_us: Time,
    /// ABRR address partitions (required when `mode.has_abrr()`).
    pub ap_map: Option<ApMap>,
    /// ARRs per AP.
    pub arrs: BTreeMap<ApId, Vec<RouterId>>,
    /// TBRR clusters.
    pub clusters: Vec<ClusterSpec>,
    /// Whether to compute wire-format byte counts on each transmission
    /// (costs CPU; enable for the §4.2 bandwidth experiment).
    pub account_bytes: bool,
    /// ABRR loop-prevention mechanism (§2.3.2 ablation knob).
    pub abrr_loop_prevention: AbrrLoopPrevention,
    /// §3.2/§3.4 extension: clients keep the runner-up route from each
    /// received best-AS-level set alongside their best ("ABRR clients
    /// can choose to store multiple routes for the purposes of traffic
    /// engineering or fast re-route"). Doubles the client-role RIB-In
    /// for multi-path senders; enables instant local repair when the
    /// primary exit dies, without waiting for an ARR round trip.
    pub clients_keep_backups: bool,
    /// Base per-node update-processing delay (µs): received updates are
    /// queued and the queue is drained as a batch after this delay,
    /// modelling the router's BGP work queue. Batching is the mechanism
    /// behind the paper's §4.2 observation that an ARR "will normally
    /// have received most or all of these updates by the time it
    /// actually processes them" and so emits one combined update. Zero
    /// processes each message immediately.
    pub proc_delay_base_us: Time,
    /// Per-node spread added to the base delay (deterministically from
    /// the node id), modelling unequal queue depths.
    pub proc_delay_spread_us: Time,
    /// Processing delay base for route-reflector nodes (ARR/TRR role).
    /// RRs carry far deeper work queues than border routers; the paper
    /// observed the same routing event processed by different TRRs
    /// "at different times (by 100's of ms to several seconds)" — that
    /// skew multiplies TBRR updates (racing TRRs re-advertise) but not
    /// ABRR updates (one ARR is the only decision point per prefix).
    pub rr_proc_delay_base_us: Time,
    /// Processing-delay spread for RR nodes.
    pub rr_proc_delay_spread_us: Time,
    /// Session latency model.
    pub latency: LatencyModel,
    /// Session transport (see [`netsim::WireMode`]): `Off` passes
    /// in-memory structs, `Bytes` carries RFC 4271 bytes end-to-end
    /// (and round-trips each router's OPEN through the codec first).
    pub wire_mode: netsim::WireMode,
}

impl NetworkSpec {
    /// A minimal full-mesh spec over the given topology's routers.
    pub fn full_mesh(topology: &Topology, asn: Asn) -> NetworkSpec {
        NetworkSpec {
            asn,
            mode: Mode::FullMesh,
            routers: topology.routers().collect(),
            oracle: Arc::new(IgpOracle::compute(topology)),
            decision: DecisionConfig::default(),
            mrai_us: 0,
            ap_map: None,
            arrs: BTreeMap::new(),
            clusters: Vec::new(),
            account_bytes: false,
            abrr_loop_prevention: AbrrLoopPrevention::ReflectedBit,
            clients_keep_backups: false,
            proc_delay_base_us: 0,
            proc_delay_spread_us: 0,
            rr_proc_delay_base_us: 0,
            rr_proc_delay_spread_us: 0,
            latency: LatencyModel::Fixed(1_000),
            wire_mode: netsim::WireMode::Off,
        }
    }

    /// The APs for which `r` is an ARR.
    pub fn arr_aps_of(&self, r: RouterId) -> Vec<ApId> {
        self.arrs
            .iter()
            .filter(|(_, v)| v.contains(&r))
            .map(|(ap, _)| *ap)
            .collect()
    }

    /// The APs covering `prefix`, in id order (none without an AP map).
    pub fn aps_covering(&self, prefix: &bgp_types::Ipv4Prefix) -> impl Iterator<Item = ApId> + '_ {
        let prefix = *prefix;
        self.ap_map
            .iter()
            .flat_map(move |m| m.aps_covering(&prefix))
    }

    /// The ARRs responsible for `ap`.
    pub fn arrs_of(&self, ap: ApId) -> &[RouterId] {
        self.arrs.get(&ap).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Whether `r` is an ARR for any AP.
    pub fn is_arr(&self, r: RouterId) -> bool {
        self.arrs.values().any(|v| v.contains(&r))
    }

    /// Cluster ids `r` reflects for.
    pub fn trr_clusters_of(&self, r: RouterId) -> Vec<u32> {
        self.clusters
            .iter()
            .filter(|c| c.trrs.contains(&r))
            .map(|c| c.id)
            .collect()
    }

    /// Whether `r` is a TRR.
    pub fn is_trr(&self, r: RouterId) -> bool {
        self.clusters.iter().any(|c| c.trrs.contains(&r))
    }

    /// The clients of TRR `r` (over all clusters it serves), deduped.
    pub fn clients_of_trr(&self, r: RouterId) -> Vec<RouterId> {
        let mut v: Vec<RouterId> = self
            .clusters
            .iter()
            .filter(|c| c.trrs.contains(&r))
            .flat_map(|c| c.clients.iter().copied())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// The TRRs serving client `r` (over all its clusters), deduped.
    pub fn trrs_of_client(&self, r: RouterId) -> Vec<RouterId> {
        let mut v: Vec<RouterId> = self
            .clusters
            .iter()
            .filter(|c| c.clients.contains(&r))
            .flat_map(|c| c.trrs.iter().copied())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// All TRRs in the AS, deduped.
    pub fn all_trrs(&self) -> Vec<RouterId> {
        let mut v: Vec<RouterId> = self
            .clusters
            .iter()
            .flat_map(|c| c.trrs.iter().copied())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// All ARRs in the AS, deduped.
    pub fn all_arrs(&self) -> Vec<RouterId> {
        let mut v: Vec<RouterId> = self.arrs.values().flatten().copied().collect();
        v.sort();
        v.dedup();
        v
    }

    /// Every node in the AS: routers plus any RR referenced only from
    /// role tables.
    pub fn all_nodes(&self) -> Vec<RouterId> {
        let mut v = self.routers.clone();
        v.extend(self.all_arrs());
        v.extend(self.all_trrs());
        v.sort();
        v.dedup();
        v
    }

    /// The update-processing delay for a node: base plus a
    /// deterministic per-node component in `[0, spread)`. RR-role nodes
    /// use the (typically much larger) RR parameters.
    pub fn proc_delay(&self, node: RouterId) -> Time {
        let (base, spread) = if self.is_arr(node) || self.is_trr(node) {
            (self.rr_proc_delay_base_us, self.rr_proc_delay_spread_us)
        } else {
            (self.proc_delay_base_us, self.proc_delay_spread_us)
        };
        if spread == 0 {
            return base;
        }
        // Cheap deterministic hash of the node id.
        let h = (node.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
        base + h % spread
    }

    /// One-way session latency between two nodes under the configured
    /// model. Unreachable pairs get the base latency (control-plane RRs
    /// may sit outside the measured IGP in synthetic setups).
    pub fn session_latency(&self, a: RouterId, b: RouterId) -> Time {
        match self.latency {
            LatencyModel::Fixed(l) => l,
            LatencyModel::IgpProportional { base, per_metric } => {
                let d = self.oracle.distance(a, b).unwrap_or(0) as Time;
                base + per_metric * d
            }
        }
    }

    /// Validates internal consistency; returns a human-readable list of
    /// problems (empty = OK).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.mode.has_abrr() {
            match &self.ap_map {
                None => problems.push("ABRR mode without an ApMap".into()),
                Some(map) => {
                    for part in map.partitions() {
                        if self.arrs_of(part.id).is_empty() {
                            problems.push(format!("{} has no ARRs", part.id));
                        }
                    }
                }
            }
            for (ap, arrs) in &self.arrs {
                if arrs.is_empty() {
                    problems.push(format!("{ap:?} lists no ARRs"));
                }
            }
        }
        if self.mode.has_tbrr() {
            if self.clusters.is_empty() {
                problems.push("TBRR mode without clusters".into());
            }
            for c in &self.clusters {
                if c.trrs.is_empty() {
                    problems.push(format!("cluster {} has no TRRs", c.id));
                }
            }
            for r in &self.routers {
                if !self.is_trr(*r) && self.trrs_of_client(*r).is_empty() {
                    problems.push(format!("router {r:?} is in no cluster"));
                }
            }
        }
        if let Some(map) = &self.ap_map {
            let outside = |p: &&bgp_types::Partition| u32::from(p.id.0) >= group::AP_STRIDE;
            if let Some(part) = map.partitions().iter().find(outside) {
                problems.push(format!(
                    "{} is outside the peer-group id space (AP ids must be below {})",
                    part.id,
                    group::AP_STRIDE
                ));
            }
        }
        if self.routers.is_empty() {
            problems.push("no routers".into());
        }
        problems
    }
}

/// Builds a ready-to-run simulator from a spec: creates one
/// [`BgpNode`] per AS node, all over one [`SharedIndex`], and the
/// session set implied by the mode (full mesh; ARR↔everyone;
/// client↔its TRRs + TRR mesh; or the union for transition).
pub fn build_sim(spec: Arc<NetworkSpec>) -> Sim<BgpNode> {
    let problems = spec.validate();
    // Invariant: specs are built in code (`workload::specs`) or compiled
    // from an already validated scenario file, so a problem here is a bug.
    assert!(problems.is_empty(), "invalid spec: {problems:?}");
    let mut sim: Sim<BgpNode> = Sim::new();
    // One prefix index for the whole network (`crate::index`).
    let index = SharedIndex::new();
    for id in spec.all_nodes() {
        sim.add_node(id, BgpNode::new(id, spec.clone(), index.clone()));
    }
    let add = |sim: &mut Sim<BgpNode>, a: RouterId, b: RouterId| {
        if a != b && !sim.has_session(a, b) {
            sim.add_session(a, b, spec.session_latency(a, b));
        }
    };
    if spec.mode == Mode::FullMesh {
        let nodes = spec.all_nodes();
        for (i, a) in nodes.iter().enumerate() {
            for b in &nodes[i + 1..] {
                add(&mut sim, *a, *b);
            }
        }
    }
    if spec.mode.has_abrr() {
        // "Every ARR has an iBGP session with every other router" (§3.3).
        let nodes = spec.all_nodes();
        for arr in spec.all_arrs() {
            for n in &nodes {
                add(&mut sim, arr, *n);
            }
        }
    }
    if spec.mode.has_tbrr() {
        for c in &spec.clusters {
            for trr in &c.trrs {
                for client in &c.clients {
                    add(&mut sim, *trr, *client);
                }
            }
        }
        let trrs = spec.all_trrs();
        for (i, a) in trrs.iter().enumerate() {
            for b in &trrs[i + 1..] {
                add(&mut sim, *a, *b);
            }
        }
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use igp::PopTopologyBuilder;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    fn topo4() -> Topology {
        PopTopologyBuilder::new(2, 2).build().topo
    }

    #[test]
    fn full_mesh_sessions() {
        let spec = Arc::new(NetworkSpec::full_mesh(&topo4(), Asn(65000)));
        let sim = build_sim(spec);
        // C(4,2) = 6 sessions.
        assert_eq!(sim.num_sessions(), 6);
    }

    #[test]
    fn abrr_sessions_arr_to_everyone() {
        let topo = topo4();
        let mut spec = NetworkSpec::full_mesh(&topo, Asn(65000));
        spec.mode = Mode::Abrr;
        spec.ap_map = Some(ApMap::uniform(2));
        spec.arrs.insert(ApId(0), vec![r(1)]);
        spec.arrs.insert(ApId(1), vec![r(2)]);
        let sim = build_sim(Arc::new(spec));
        // ARRs 1 and 2 each peer with all 3 other routers; the 1-2
        // session is shared: 3 + 3 - 1 = 5.
        assert_eq!(sim.num_sessions(), 5);
    }

    #[test]
    fn tbrr_sessions_cluster_plus_mesh() {
        let topo = topo4();
        let mut spec = NetworkSpec::full_mesh(&topo, Asn(65000));
        spec.mode = Mode::Tbrr { multipath: false };
        // Routers 1,2 are TRRs; 3,4 their clients.
        spec.routers = vec![r(3), r(4)];
        spec.clusters = vec![
            ClusterSpec {
                id: 1,
                trrs: vec![r(1)],
                clients: vec![r(3)],
            },
            ClusterSpec {
                id: 2,
                trrs: vec![r(2)],
                clients: vec![r(4)],
            },
        ];
        let sim = build_sim(Arc::new(spec));
        // client sessions: 1-3, 2-4; TRR mesh: 1-2.
        assert_eq!(sim.num_sessions(), 3);
    }

    #[test]
    fn spec_role_queries() {
        let topo = topo4();
        let mut spec = NetworkSpec::full_mesh(&topo, Asn(65000));
        spec.mode = Mode::Abrr;
        spec.ap_map = Some(ApMap::uniform(2));
        spec.arrs.insert(ApId(0), vec![r(1), r(2)]);
        spec.arrs.insert(ApId(1), vec![r(2)]);
        assert_eq!(spec.arr_aps_of(r(2)), vec![ApId(0), ApId(1)]);
        assert!(spec.is_arr(r(1)));
        assert!(!spec.is_arr(r(3)));
        assert_eq!(spec.all_arrs(), vec![r(1), r(2)]);
        assert_eq!(spec.arrs_of(ApId(1)), [r(2)]);
        assert!(spec.arrs_of(ApId(2)).is_empty());
    }

    #[test]
    fn validate_catches_missing_arrs() {
        let topo = topo4();
        let mut spec = NetworkSpec::full_mesh(&topo, Asn(65000));
        spec.mode = Mode::Abrr;
        spec.ap_map = Some(ApMap::uniform(2));
        spec.arrs.insert(ApId(0), vec![r(1)]);
        // AP1 has no ARRs.
        assert!(!spec.validate().is_empty());
    }

    #[test]
    fn validate_catches_ap_id_outside_group_space() {
        use bgp_types::{AddressRange, Partition};
        let topo = topo4();
        let mut spec = NetworkSpec::full_mesh(&topo, Asn(65000));
        spec.mode = Mode::Abrr;
        let half = |id, first, last| Partition {
            id: ApId(id),
            ranges: vec![AddressRange::new(first, last)],
        };
        spec.ap_map = Some(ApMap::new(vec![
            half(0, 0, u32::MAX / 2),
            half(1000, u32::MAX / 2 + 1, u32::MAX),
        ]));
        spec.arrs.insert(ApId(0), vec![r(1)]);
        spec.arrs.insert(ApId(1000), vec![r(2)]);
        let problems = spec.validate();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("peer-group id space"));
    }

    #[test]
    fn validate_catches_orphan_client() {
        let topo = topo4();
        let mut spec = NetworkSpec::full_mesh(&topo, Asn(65000));
        spec.mode = Mode::Tbrr { multipath: false };
        spec.clusters = vec![ClusterSpec {
            id: 1,
            trrs: vec![r(1)],
            clients: vec![r(2)],
        }];
        // Routers 3, 4 are in no cluster.
        assert!(!spec.validate().is_empty());
    }

    #[test]
    fn latency_models() {
        let topo = topo4();
        let mut spec = NetworkSpec::full_mesh(&topo, Asn(65000));
        spec.latency = LatencyModel::Fixed(500);
        assert_eq!(spec.session_latency(r(1), r(2)), 500);
        spec.latency = LatencyModel::IgpProportional {
            base: 100,
            per_metric: 10,
        };
        let d = spec.oracle.distance(r(1), r(2)).unwrap() as Time;
        assert_eq!(spec.session_latency(r(1), r(2)), 100 + 10 * d);
    }
}
