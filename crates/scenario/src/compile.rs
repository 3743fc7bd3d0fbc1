//! Compiles a validated [`ScenarioFile`] into runnable structures —
//! the very same [`abrr::scenarios::Scenario`] / [`abrr::NetworkSpec`]
//! the hand-written Rust gadgets produce, so the simulator, the
//! auditors, and the golden fingerprints are shared between declarative
//! and programmatic scenarios.

use crate::parse::{parse_str, ScenarioError};
use crate::schema::*;
use crate::validate::{build_ap_map, validate};
use abrr::msg::ExternalEvent;
use abrr::scenarios::{Scenario, ScenarioTuning};
use abrr::spec::{AbrrLoopPrevention, ClusterSpec, LatencyModel, Mode};
use abrr::{BgpNode, NetworkSpec};
use bgp_types::{ApId, AsPath, Asn, Ipv4Prefix, NextHop, PathAttributes, RouterId};
use netsim::{RunConfig, RunLimits, RunOutcome, Sim, WireMode};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use workload::specs::{self, SpecOptions};
use workload::{churn, regen, Tier1Config, Tier1Model};

/// A loaded, runnable scenario.
pub enum Loaded {
    /// An explicit gadget-scale network.
    Gadget(Box<GadgetLoaded>),
    /// A Tier-1 synthetic model.
    Tier1(Box<Tier1Loaded>),
}

/// A compiled gadget scenario.
pub struct GadgetLoaded {
    /// The source file.
    pub file: ScenarioFile,
    /// The compiled core scenario (feeds at t=0, timed events).
    pub scenario: Scenario,
    /// The compiled fault schedule.
    pub schedule: faults::FaultSchedule,
    /// AP cutovers, broadcast to all nodes at run time (§2.4).
    pub cutovers: Vec<(u64, ApId)>,
}

/// A compiled Tier-1 scenario.
pub struct Tier1Loaded {
    /// The source file.
    pub file: ScenarioFile,
    /// The generated model (deterministic in the seed).
    pub model: Arc<Tier1Model>,
    /// The scale parameters.
    pub params: Tier1Network,
}

/// One mode run of a loaded scenario.
pub struct RunReport {
    /// The spec the sim was built from.
    pub spec: Arc<NetworkSpec>,
    /// The simulator after the run.
    pub sim: Sim<BgpNode>,
    /// Quiescence / event count / end time.
    pub outcome: RunOutcome,
}

/// Maps a DSL mode keyword to the engine mode.
pub fn mode_of(m: ModeSpec) -> Mode {
    match m {
        ModeSpec::FullMesh => Mode::FullMesh,
        ModeSpec::Abrr => Mode::Abrr,
        ModeSpec::Tbrr => Mode::Tbrr { multipath: false },
        ModeSpec::TbrrMultipath => Mode::Tbrr { multipath: true },
        ModeSpec::Transition => Mode::Transition,
    }
}

/// Parses, validates, and compiles scenario JSON text.
pub fn load_str(text: &str) -> Result<Loaded, Vec<ScenarioError>> {
    let file = parse_str(text).map_err(|e| vec![e])?;
    let errs = validate(&file);
    if !errs.is_empty() {
        return Err(errs);
    }
    Ok(compile(file))
}

/// Loads a scenario file from disk.
pub fn load_path(path: &Path) -> Result<Loaded, Vec<ScenarioError>> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        vec![ScenarioError::at(
            "$",
            format!("cannot read {}: {e}", path.display()),
        )]
    })?;
    load_str(&text)
}

/// Compiles an already-validated file. Panics only on files that did
/// not go through [`validate`].
pub fn compile(file: ScenarioFile) -> Loaded {
    match &file.network {
        Network::Gadget(g) => {
            let g = g.clone();
            Loaded::Gadget(Box::new(compile_gadget(file, &g)))
        }
        Network::Tier1(t) => {
            let params = t.clone();
            let cfg = Tier1Config {
                seed: params.seed,
                n_pops: params.pops,
                routers_per_pop: params.routers_per_pop,
                n_prefixes: params.prefixes,
                ..Tier1Config::default()
            };
            let model = Arc::new(Tier1Model::generate(cfg));
            Loaded::Tier1(Box::new(Tier1Loaded {
                file,
                model,
                params,
            }))
        }
    }
}

fn ebgp_attrs(f: &Feed) -> Arc<PathAttributes> {
    let mut attrs = PathAttributes::ebgp(AsPath::sequence([Asn(f.peer_as)]), NextHop(f.peer_addr))
        .with_med(f.med);
    if let Some(lp) = f.local_pref {
        attrs = attrs.with_local_pref(lp);
    }
    Arc::new(attrs)
}

fn compile_gadget(file: ScenarioFile, g: &GadgetNetwork) -> GadgetLoaded {
    let (topo, default_routers) = match &g.topology {
        TopologySource::Links(links) => {
            let mut topo = igp::Topology::new();
            for l in links {
                topo.add_link(RouterId(l.a), RouterId(l.b), l.metric);
            }
            (topo, Vec::new())
        }
        TopologySource::PopGrid {
            pops,
            routers_per_pop,
        } => {
            let view = igp::PopTopologyBuilder::new(*pops, *routers_per_pop).build();
            let routers = view.routers();
            (view.topo, routers)
        }
    };
    let routers: Vec<RouterId> = if g.routers.is_empty() {
        default_routers
    } else {
        g.routers.iter().map(|r| RouterId(*r)).collect()
    };
    let rrs: Vec<RouterId> = g.rrs.iter().map(|r| RouterId(*r)).collect();
    let clusters: Vec<ClusterSpec> = if g.clusters.is_empty() {
        vec![ClusterSpec {
            id: 1,
            trrs: rrs.clone(),
            clients: routers.clone(),
        }]
    } else {
        g.clusters
            .iter()
            .map(|c| ClusterSpec {
                id: c.id,
                trrs: c.trrs.iter().map(|r| RouterId(*r)).collect(),
                clients: c.clients.iter().map(|r| RouterId(*r)).collect(),
            })
            .collect()
    };
    let ap_map = g
        .aps
        .as_ref()
        .map(|_| build_ap_map(g).expect("validated AP scheme"));
    let arrs: BTreeMap<ApId, Vec<RouterId>> = g
        .arrs
        .iter()
        .map(|a| (ApId(a.ap), a.arrs.iter().map(|r| RouterId(*r)).collect()))
        .collect();
    let tuning = ScenarioTuning {
        mrai_us: g.knobs.mrai_us,
        clients_keep_backups: g.knobs.clients_keep_backups,
        abrr_loop_prevention: match g.knobs.loop_prevention {
            LoopPrevention::ReflectedBit => AbrrLoopPrevention::ReflectedBit,
            LoopPrevention::ClusterList => AbrrLoopPrevention::ClusterList,
            LoopPrevention::None => AbrrLoopPrevention::None,
        },
        latency: match g.knobs.latency {
            Latency::Fixed(us) => LatencyModel::Fixed(us),
            Latency::Igp {
                base_us,
                per_metric_us,
            } => LatencyModel::IgpProportional {
                base: base_us,
                per_metric: per_metric_us,
            },
        },
        rrs_are_clients: g.knobs.rrs_are_clients,
        ..ScenarioTuning::default()
    };

    let mut feeds: Vec<(RouterId, ExternalEvent)> = Vec::new();
    let mut events: Vec<(u64, RouterId, ExternalEvent)> = Vec::new();
    let mut prefixes: Vec<Ipv4Prefix> = Vec::new();
    for f in &file.workload.feeds {
        let prefix: Ipv4Prefix = f.prefix.parse().expect("validated prefix");
        if !prefixes.contains(&prefix) {
            prefixes.push(prefix);
        }
        let ev = ExternalEvent::EbgpAnnounce {
            prefix,
            peer_as: Asn(f.peer_as),
            peer_addr: f.peer_addr,
            attrs: ebgp_attrs(f),
        };
        if f.at == 0 {
            feeds.push((RouterId(f.router), ev));
        } else {
            events.push((f.at, RouterId(f.router), ev));
        }
    }
    for w in &file.workload.withdraws {
        let prefix: Ipv4Prefix = w.prefix.parse().expect("validated prefix");
        events.push((
            w.at,
            RouterId(w.router),
            ExternalEvent::EbgpWithdraw {
                prefix,
                peer_addr: w.peer_addr,
            },
        ));
    }
    prefixes.sort();

    let mut schedule = faults::FaultSchedule::new(0);
    for f in &file.faults {
        schedule.push(f.at, f.kind.clone());
    }
    let cutovers: Vec<(u64, ApId)> = file
        .workload
        .cutovers
        .iter()
        .map(|c| (c.at, ApId(c.ap)))
        .collect();

    let scenario = Scenario {
        name: file.name.clone(),
        topo,
        routers,
        rrs,
        clusters,
        feeds,
        prefixes,
        ap_map,
        arrs,
        tuning,
        events,
    };
    GadgetLoaded {
        file,
        scenario,
        schedule,
        cutovers,
    }
}

impl Loaded {
    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.file().name
    }

    /// The source file.
    pub fn file(&self) -> &ScenarioFile {
        match self {
            Loaded::Gadget(g) => &g.file,
            Loaded::Tier1(t) => &t.file,
        }
    }

    /// The routers the auditors walk (data-plane routers).
    pub fn routers(&self) -> Vec<RouterId> {
        match self {
            Loaded::Gadget(g) => g.scenario.routers.clone(),
            Loaded::Tier1(t) => t.model.routers.clone(),
        }
    }

    /// The prefixes the auditors check.
    pub fn prefixes(&self) -> Vec<Ipv4Prefix> {
        match self {
            Loaded::Gadget(g) => g.scenario.prefixes.clone(),
            Loaded::Tier1(t) => t.model.sorted_prefixes(),
        }
    }

    /// Builds the [`NetworkSpec`] for one mode.
    pub fn spec(&self, mode: ModeSpec) -> NetworkSpec {
        match self {
            Loaded::Gadget(g) => g.scenario.spec(mode_of(mode)),
            Loaded::Tier1(t) => {
                let opts = SpecOptions {
                    mrai_us: t.params.mrai_us,
                    ..Default::default()
                };
                match mode {
                    ModeSpec::FullMesh => specs::full_mesh_spec(&t.model, &opts),
                    ModeSpec::Abrr | ModeSpec::Transition => {
                        specs::abrr_spec(&t.model, t.params.aps, t.params.arrs_per_ap, &opts)
                    }
                    ModeSpec::Tbrr => {
                        specs::tbrr_spec(&t.model, t.params.trrs_per_cluster, false, &opts)
                    }
                    ModeSpec::TbrrMultipath => {
                        specs::tbrr_spec(&t.model, t.params.trrs_per_cluster, true, &opts)
                    }
                }
            }
        }
    }

    /// Builds one mode's sim without running it: the spec (sessions in
    /// `wire` mode), the scheduled workload and, with `with_faults`,
    /// the compiled fault schedule. `with_faults: false` builds the
    /// fault-free twin (the full-mesh equivalence oracle).
    /// [`Loaded::run`] is this followed by [`Sim::run`]; the engine
    /// equivalence suite drives the same sim under the window engine.
    pub fn build(
        &self,
        mode: ModeSpec,
        with_faults: bool,
        wire: WireMode,
    ) -> Result<(Arc<NetworkSpec>, Sim<BgpNode>), String> {
        let mut bare = self.spec(mode);
        bare.wire_mode = wire;
        let spec = Arc::new(bare);
        let mut sim = abrr::build_sim(spec.clone());
        match self {
            Loaded::Gadget(g) => {
                for (router, ev) in &g.scenario.feeds {
                    sim.schedule_external(0, *router, ev.clone());
                }
                for (at, router, ev) in &g.scenario.events {
                    sim.schedule_external(*at, *router, ev.clone());
                }
                // §2.4: a cutover is an AS-wide configuration step —
                // every node flips the AP at once. Only the transition
                // plane understands the event.
                if mode == ModeSpec::Transition {
                    for (at, ap) in &g.cutovers {
                        for r in spec.all_nodes() {
                            sim.schedule_external(*at, r, ExternalEvent::CutoverAp(*ap));
                        }
                    }
                }
                if with_faults && !g.schedule.faults.is_empty() {
                    faults::compile(&g.schedule, &spec, &mut sim)
                        .map_err(|e| format!("fault schedule failed to compile: {e:?}"))?;
                }
            }
            Loaded::Tier1(t) => {
                regen::replay(&mut sim, &churn::initial_snapshot(&t.model), 1_000);
            }
        }
        Ok((spec, sim))
    }

    /// The file's run budget, capped by `cap`.
    pub fn limits(&self, cap: RunLimits) -> RunLimits {
        let budget = self.file().budget;
        RunLimits {
            max_events: budget.max_events.min(cap.max_events),
            max_time: budget.max_time_us.min(cap.max_time),
        }
    }

    /// Runs one mode: [`Loaded::build`] in `cfg.wire` mode, then
    /// [`Sim::run`] to the file's budget, capped by `cfg.limits`.
    pub fn run(
        &self,
        mode: ModeSpec,
        with_faults: bool,
        cfg: RunConfig,
    ) -> Result<RunReport, String> {
        let (spec, mut sim) = self.build(mode, with_faults, cfg.wire)?;
        let outcome = sim.run(self.limits(cfg.limits));
        Ok(RunReport { spec, sim, outcome })
    }
}
