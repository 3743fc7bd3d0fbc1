//! Compiles a validated [`ScenarioFile`] into a runnable [`Loaded`]
//! scenario. This is the one place a gadget becomes an
//! [`abrr::NetworkSpec`]: the corpus files under `examples/scenarios/`
//! are the only definition of the §2.3 gadgets and the small reference
//! network, and [`Loaded::build`] / [`Loaded::run`] their only run path.

use crate::parse::{parse_str, ScenarioError};
use crate::schema::*;
use crate::validate::{build_ap_map, validate};
use abrr::msg::ExternalEvent;
use abrr::spec::{ClusterSpec, Mode};
use abrr::{BgpNode, NetworkSpec};
use bgp_types::{ApId, ApMap, AsPath, Asn, Ipv4Prefix, PathAttributes, RouterId};
use netsim::{RunConfig, RunLimits, RunOutcome, Sim, WireMode};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
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
    /// The IGP topology.
    pub topo: igp::Topology,
    /// Data-plane routers.
    pub routers: Vec<RouterId>,
    /// TBRR cluster layout (default: one cluster, every RR serving
    /// every router).
    pub clusters: Vec<ClusterSpec>,
    /// Address partitions for ABRR modes (default: one AP covering the
    /// whole address space).
    pub ap_map: ApMap,
    /// ARRs per AP for ABRR modes (default: every RR serves every AP).
    pub arrs: BTreeMap<ApId, Vec<RouterId>>,
    /// eBGP feeds injected at t=0: `(router, event)`.
    pub feeds: Vec<(RouterId, ExternalEvent)>,
    /// Later external events (announcements, withdrawals), each at its
    /// own time: `(time, router, event)`.
    pub events: Vec<(u64, RouterId, ExternalEvent)>,
    /// The prefixes the feeds cover, sorted.
    pub prefixes: Vec<Ipv4Prefix>,
    /// The spec knobs the file sets.
    pub knobs: SpecKnobs,
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

/// The committed corpus: `examples/scenarios/` at the workspace root.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios")
}

/// Loads the corpus file `<stem>.json` (see [`corpus_dir`]).
pub fn load_corpus(stem: &str) -> Result<Loaded, Vec<ScenarioError>> {
    load_path(&corpus_dir().join(format!("{stem}.json")))
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
    let mut attrs =
        PathAttributes::ebgp(AsPath::sequence([Asn(f.peer_as)]), f.peer_addr).with_med(f.med);
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
                topo.add_link(l.a, l.b, l.metric);
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
        g.routers.clone()
    };
    let clusters: Vec<ClusterSpec> = if g.clusters.is_empty() {
        vec![ClusterSpec {
            id: 1,
            trrs: g.rrs.clone(),
            clients: routers.clone(),
        }]
    } else {
        g.clusters.clone()
    };
    // `validate` rejects every scheme `build_ap_map` refuses; an
    // unvalidated file falls back to the single full-space AP.
    let ap_map = build_ap_map(g).unwrap_or_else(|| ApMap::uniform(1));
    let arrs: BTreeMap<ApId, Vec<RouterId>> = if g.arrs.is_empty() {
        ap_map
            .partitions()
            .iter()
            .map(|p| (p.id, g.rrs.clone()))
            .collect()
    } else {
        g.arrs.iter().map(|a| (a.ap, a.arrs.clone())).collect()
    };

    let mut feeds: Vec<(RouterId, ExternalEvent)> = Vec::new();
    let mut events: Vec<(u64, RouterId, ExternalEvent)> = Vec::new();
    let mut prefixes: Vec<Ipv4Prefix> = Vec::new();
    for f in &file.workload.feeds {
        if !prefixes.contains(&f.prefix) {
            prefixes.push(f.prefix);
        }
        let ev = ExternalEvent::EbgpAnnounce {
            prefix: f.prefix,
            peer_as: Asn(f.peer_as),
            peer_addr: f.peer_addr.0,
            attrs: ebgp_attrs(f),
        };
        if f.at == 0 {
            feeds.push((f.router, ev));
        } else {
            events.push((f.at, f.router, ev));
        }
    }
    for w in &file.workload.withdraws {
        events.push((
            w.at,
            w.router,
            ExternalEvent::EbgpWithdraw {
                prefix: w.prefix,
                peer_addr: w.peer_addr.0,
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
        .map(|c| (c.at, c.ap))
        .collect();

    GadgetLoaded {
        file,
        topo,
        routers,
        clusters,
        ap_map,
        arrs,
        feeds,
        events,
        prefixes,
        knobs: g.spec.clone(),
        schedule,
        cutovers,
    }
}

impl GadgetLoaded {
    /// The gadget's [`NetworkSpec`] under `mode`: the full-mesh
    /// defaults (AS 65000, no MRAI, fixed 1 ms sessions, reflected-bit
    /// loop prevention, no processing delay, no byte accounting) with
    /// the file's routers, its clusters in TBRR modes, its AP map and
    /// ARRs in ABRR modes, and its `clients_keep_backups` knob.
    pub fn spec(&self, mode: Mode) -> NetworkSpec {
        let mut spec = NetworkSpec::full_mesh(&self.topo, Asn(65000));
        spec.routers = self.routers.clone();
        if mode.has_abrr() {
            spec.ap_map = Some(self.ap_map.clone());
            spec.arrs = self.arrs.clone();
        }
        if mode.has_tbrr() {
            spec.clusters = self.clusters.clone();
        }
        spec.mode = mode;
        spec.clients_keep_backups = self.knobs.clients_keep_backups;
        spec
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
            Loaded::Gadget(g) => g.routers.clone(),
            Loaded::Tier1(t) => t.model.routers.clone(),
        }
    }

    /// The prefixes the auditors check.
    pub fn prefixes(&self) -> Vec<Ipv4Prefix> {
        match self {
            Loaded::Gadget(g) => g.prefixes.clone(),
            Loaded::Tier1(t) => t.model.sorted_prefixes(),
        }
    }

    /// Builds the [`NetworkSpec`] for one mode.
    pub fn spec(&self, mode: Mode) -> NetworkSpec {
        match self {
            Loaded::Gadget(g) => g.spec(mode),
            Loaded::Tier1(t) => {
                let opts = SpecOptions {
                    mrai_us: t.params.mrai_us,
                    ..Default::default()
                };
                match mode {
                    Mode::FullMesh => specs::full_mesh_spec(&t.model, &opts),
                    Mode::Abrr | Mode::Transition => {
                        specs::abrr_spec(&t.model, t.params.aps, t.params.arrs_per_ap, &opts)
                    }
                    Mode::Tbrr { multipath } => {
                        specs::tbrr_spec(&t.model, t.params.trrs_per_cluster, multipath, &opts)
                    }
                }
            }
        }
    }

    /// Builds one mode's sim without running it: the spec (sessions in
    /// `wire` mode), the scheduled workload and the compiled fault
    /// schedule. [`Loaded::run`] is this followed by [`Sim::run`]; the
    /// engine equivalence suite drives the same sim under the window
    /// engine.
    pub fn build(
        &self,
        mode: Mode,
        wire: WireMode,
    ) -> Result<(Arc<NetworkSpec>, Sim<BgpNode>), String> {
        let transition = mode == Mode::Transition;
        let mut bare = self.spec(mode);
        bare.wire_mode = wire;
        let spec = Arc::new(bare);
        let mut sim = abrr::build_sim(spec.clone());
        match self {
            Loaded::Gadget(g) => {
                for (router, ev) in &g.feeds {
                    sim.schedule_external(0, *router, ev.clone());
                }
                for (at, router, ev) in &g.events {
                    sim.schedule_external(*at, *router, ev.clone());
                }
                // §2.4: a cutover is an AS-wide configuration step —
                // every node flips the AP at once. Only the transition
                // plane understands the event.
                if transition {
                    for (at, ap) in &g.cutovers {
                        for r in spec.all_nodes() {
                            sim.schedule_external(*at, r, ExternalEvent::CutoverAp(*ap));
                        }
                    }
                }
                if !g.schedule.faults.is_empty() {
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
    pub fn run(&self, mode: Mode, cfg: RunConfig) -> Result<RunReport, String> {
        let (spec, mut sim) = self.build(mode, cfg.wire)?;
        let outcome = sim.run(self.limits(cfg.limits));
        Ok(RunReport { spec, sim, outcome })
    }
}
