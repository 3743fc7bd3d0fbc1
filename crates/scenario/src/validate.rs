//! Semantic validation of a parsed [`ScenarioFile`].
//!
//! Everything here is a *targeted* error with a JSON path — a malformed
//! scenario must never reach the simulator, and must never panic the
//! loader. The checks:
//!
//! * topology: dangling link endpoints, unknown routers/RRs, overlaps
//!   between the router and RR sets;
//! * clusters: unknown TRRs/clients, duplicate ids;
//! * APs: duplicate ids, ids outside the peer-group id space, inverted
//!   or overlapping ranges, ARR assignments naming unknown APs or
//!   non-RR routers;
//! * workload: feeds from unknown routers, withdraws of never-announced
//!   routes, cutovers of unknown APs, and the §2.4 accept-set rule —
//!   a Transition scenario may not strand a spanning prefix with only
//!   *some* of its covering APs cut over;
//! * faults: events referencing unknown nodes, ARR failures of
//!   non-RRs, AP reassignments to non-RRs;
//! * size: networks too large to build ([`MAX_ROUTERS`],
//!   [`MAX_TIER1_PREFIXES`]) are rejected before anything is built.

use crate::parse::{item_path, key_path, ScenarioError};
use crate::schema::*;
use abrr::spec::Mode;
use bgp_types::{AddressRange, ApId, ApMap, Partition, RouterId};
use std::collections::BTreeSet;

/// Most routers a `pop_grid` or `tier1` network may have
/// (`pops × routers_per_pop`): the paper's >1000-router AS fits, a
/// grid whose full mesh would exhaust memory does not.
pub const MAX_ROUTERS: usize = 4_096;

/// Most prefixes a `tier1` network may have: the paper's 416K-prefix
/// table fits, one the model generator cannot hold in memory does not.
pub const MAX_TIER1_PREFIXES: usize = 1 << 20;

/// Builds the effective [`ApMap`] of a gadget network. `None` scheme
/// means the single full-space AP the Rust gadgets use. Returns `None`
/// when the explicit ranges are structurally unusable (duplicate ids,
/// inverted ranges) — the validator reports the details.
pub fn build_ap_map(g: &GadgetNetwork) -> Option<ApMap> {
    match &g.aps {
        None => Some(ApMap::uniform(1)),
        Some(ApScheme::Uniform(0)) => None,
        Some(ApScheme::Uniform(n)) => Some(ApMap::uniform(*n as usize)),
        Some(ApScheme::Explicit(ranges)) => {
            let ids: BTreeSet<ApId> = ranges.iter().map(|r| r.id).collect();
            if ranges.is_empty()
                || ids.len() != ranges.len()
                || ranges.iter().any(|r| r.first > r.last)
            {
                return None;
            }
            Some(ApMap::new(
                ranges
                    .iter()
                    .map(|r| Partition {
                        id: r.id,
                        ranges: vec![AddressRange::new(r.first.into(), r.last.into())],
                    })
                    .collect(),
            ))
        }
    }
}

/// All AP ids of a gadget network's scheme.
pub fn ap_ids(g: &GadgetNetwork) -> BTreeSet<ApId> {
    match &g.aps {
        None => [ApId(0)].into(),
        Some(ApScheme::Uniform(n)) => (0..*n).map(ApId).collect(),
        Some(ApScheme::Explicit(ranges)) => ranges.iter().map(|r| r.id).collect(),
    }
}

/// The router ids a PopGrid topology generates.
pub fn pop_grid_routers(pops: usize, routers_per_pop: usize) -> Vec<RouterId> {
    igp::PopTopologyBuilder::new(pops, routers_per_pop)
        .build()
        .routers()
}

/// Whether `pops × routers_per_pop` routers are at least one and at
/// most [`MAX_ROUTERS`].
fn router_count_ok(pops: usize, routers_per_pop: usize) -> bool {
    pops.checked_mul(routers_per_pop)
        .is_some_and(|n| (1..=MAX_ROUTERS).contains(&n))
}

/// Validates a parsed scenario, collecting every problem found.
pub fn validate(file: &ScenarioFile) -> Vec<ScenarioError> {
    let mut errs = Vec::new();
    if file.name.is_empty() {
        errs.push(ScenarioError::at("$.name", "scenario name is empty"));
    }
    if file.checks.is_empty() {
        errs.push(ScenarioError::at(
            "$.checks",
            "a scenario needs at least one check",
        ));
    }
    match &file.network {
        Network::Gadget(g) => validate_gadget(file, g, &mut errs),
        Network::Tier1(t) => validate_tier1(file, t, &mut errs),
    }
    errs
}

fn validate_gadget(file: &ScenarioFile, g: &GadgetNetwork, errs: &mut Vec<ScenarioError>) {
    // --- topology & roles -------------------------------------------
    let mut routers = g.routers.clone();
    let topo_nodes: BTreeSet<RouterId> = match &g.topology {
        TopologySource::Links(links) => {
            let mut nodes = BTreeSet::new();
            for (i, l) in links.iter().enumerate() {
                if l.a == l.b {
                    errs.push(ScenarioError::at(
                        item_path("$.network.links", i),
                        format!("self-link at router {}", l.a.0),
                    ));
                }
                if l.metric == 0 {
                    errs.push(ScenarioError::at(
                        item_path("$.network.links", i),
                        "IGP metric must be >= 1",
                    ));
                }
                nodes.insert(l.a);
                nodes.insert(l.b);
            }
            nodes
        }
        TopologySource::PopGrid {
            pops,
            routers_per_pop,
        } => {
            if !router_count_ok(*pops, *routers_per_pop) {
                errs.push(ScenarioError::at(
                    "$.network.pop_grid",
                    format!("pops and routers_per_pop must be >= 1, with at most {MAX_ROUTERS} routers in all"),
                ));
                return;
            }
            let grid = pop_grid_routers(*pops, *routers_per_pop);
            if routers.is_empty() {
                // Default: every grid router (RRs may be colocated).
                routers = grid.clone();
            }
            grid.into_iter().collect()
        }
    };
    if routers.is_empty() {
        errs.push(ScenarioError::at(
            "$.network.routers",
            "a scenario needs at least one data-plane router",
        ));
    }
    let mut seen = BTreeSet::new();
    for r in &routers {
        if !seen.insert(*r) {
            errs.push(ScenarioError::at(
                "$.network.routers",
                format!("router {} listed twice", r.0),
            ));
        }
    }
    // RRs may also appear in `routers` (a border router doubling as a
    // reflector, as in the small-reference grid) — only duplicates
    // within the rrs list itself are errors.
    let mut seen = BTreeSet::new();
    for r in &g.rrs {
        if !seen.insert(*r) {
            errs.push(ScenarioError::at(
                "$.network.rrs",
                format!("rr {} listed twice", r.0),
            ));
        }
    }
    let nodes: BTreeSet<RouterId> = routers.iter().chain(g.rrs.iter()).copied().collect();
    for r in &nodes {
        if !topo_nodes.contains(r) {
            errs.push(ScenarioError::at(
                "$.network",
                format!("router {} does not appear in the topology", r.0),
            ));
        }
    }
    if let TopologySource::Links(links) = &g.topology {
        for (i, l) in links.iter().enumerate() {
            for end in [l.a, l.b] {
                if !nodes.contains(&end) {
                    errs.push(ScenarioError::at(
                        item_path("$.network.links", i),
                        format!("dangling link endpoint: router {} is neither a data-plane router nor an RR", end.0),
                    ));
                }
            }
        }
    }

    // --- clusters ----------------------------------------------------
    let mut ids = BTreeSet::new();
    for (i, c) in g.clusters.iter().enumerate() {
        let path = item_path("$.network.clusters", i);
        if !ids.insert(c.id) {
            errs.push(ScenarioError::at(
                &path,
                format!("duplicate cluster id {}", c.id),
            ));
        }
        for t in &c.trrs {
            if !g.rrs.contains(t) {
                errs.push(ScenarioError::at(
                    &path,
                    format!("TRR {} is not in the rrs list", t.0),
                ));
            }
        }
        for cl in &c.clients {
            if !nodes.contains(cl) {
                errs.push(ScenarioError::at(
                    &path,
                    format!("unknown client router {}", cl.0),
                ));
            }
        }
    }

    // --- APs ---------------------------------------------------------
    let uses_abrr = file.checks.iter().any(|c| c.mode.has_abrr());
    if uses_abrr && g.rrs.is_empty() {
        errs.push(ScenarioError::at(
            "$.network.rrs",
            "ABRR/transition checks need at least one RR",
        ));
    }
    // AP ids index per-AP peer-group families of `AP_STRIDE` ids each;
    // a larger id would silently alias another family's group.
    let ap_id_bound = abrr::node::group::AP_STRIDE;
    match g.aps {
        Some(ApScheme::Uniform(0)) => errs.push(ScenarioError::at(
            "$.network.aps.uniform",
            "need at least one AP",
        )),
        Some(ApScheme::Uniform(n)) if u32::from(n) > ap_id_bound => errs.push(ScenarioError::at(
            "$.network.aps.uniform",
            format!("at most {ap_id_bound} APs supported (peer-group id space)"),
        )),
        Some(ApScheme::Explicit(ref ranges)) if ranges.is_empty() => errs.push(ScenarioError::at(
            "$.network.aps.explicit",
            "need at least one AP",
        )),
        _ => {}
    }
    if let Some(ApScheme::Explicit(ranges)) = &g.aps {
        let mut ids = BTreeSet::new();
        for (i, r) in ranges.iter().enumerate() {
            let path = item_path("$.network.aps.explicit", i);
            if !ids.insert(r.id) {
                errs.push(ScenarioError::at(
                    &path,
                    format!("duplicate AP id {}", r.id.0),
                ));
            }
            if u32::from(r.id.0) >= ap_id_bound {
                errs.push(ScenarioError::at(
                    key_path(&path, "id"),
                    format!(
                        "AP id {} is outside the peer-group id space (must be below {ap_id_bound})",
                        r.id.0
                    ),
                ));
            }
            if r.first > r.last {
                errs.push(ScenarioError::at(
                    &path,
                    "range first address is above last",
                ));
            }
        }
        for (i, a) in ranges.iter().enumerate() {
            for (j, b) in ranges.iter().enumerate().skip(i + 1) {
                if a.first <= b.last && b.first <= a.last {
                    errs.push(ScenarioError::at(
                        item_path("$.network.aps.explicit", j),
                        format!(
                            "overlapping AP assignment: AP {} and AP {} both cover addresses {}..={}",
                            a.id.0,
                            b.id.0,
                            u32::from(a.first.max(b.first)),
                            u32::from(a.last.min(b.last)),
                        ),
                    ));
                }
            }
        }
    }
    let known_aps = ap_ids(g);
    let mut seen_aps = BTreeSet::new();
    for (i, a) in g.arrs.iter().enumerate() {
        let path = item_path("$.network.arrs", i);
        if !known_aps.contains(&a.ap) {
            errs.push(ScenarioError::at(&path, format!("unknown AP {}", a.ap.0)));
        }
        if !seen_aps.insert(a.ap) {
            errs.push(ScenarioError::at(
                &path,
                format!("AP {} assigned twice", a.ap.0),
            ));
        }
        if a.arrs.is_empty() {
            errs.push(ScenarioError::at(
                &path,
                format!("AP {} has no ARRs", a.ap.0),
            ));
        }
        for r in &a.arrs {
            if !g.rrs.contains(r) {
                errs.push(ScenarioError::at(
                    &path,
                    format!("ARR {} is not in the rrs list", r.0),
                ));
            }
        }
    }
    if uses_abrr && !g.arrs.is_empty() {
        for ap in &known_aps {
            if !seen_aps.contains(ap) {
                errs.push(ScenarioError::at(
                    "$.network.arrs",
                    format!("AP {} has no ARR assignment", ap.0),
                ));
            }
        }
    }

    // --- workload ----------------------------------------------------
    for (i, f) in file.workload.feeds.iter().enumerate() {
        if !routers.contains(&f.router) {
            errs.push(ScenarioError::at(
                key_path(&item_path("$.workload.feeds", i), "router"),
                format!("feed router {} is not a data-plane router", f.router.0),
            ));
        }
    }
    for (i, w) in file.workload.withdraws.iter().enumerate() {
        let announced = file.workload.feeds.iter().any(|f| {
            f.router == w.router
                && f.prefix == w.prefix
                && f.peer_addr == w.peer_addr
                && f.at < w.at
        });
        if !announced {
            errs.push(ScenarioError::at(
                item_path("$.workload.withdraws", i),
                format!(
                    "withdraws {} at router {} from peer {} but no earlier feed announced it",
                    w.prefix, w.router.0, w.peer_addr.0
                ),
            ));
        }
    }
    for (i, c) in file.workload.cutovers.iter().enumerate() {
        if !known_aps.contains(&c.ap) {
            errs.push(ScenarioError::at(
                key_path(&item_path("$.workload.cutovers", i), "ap"),
                format!("unknown AP {}", c.ap.0),
            ));
        }
    }

    // --- §2.4 accept-set rule ---------------------------------------
    // A router accepts a prefix from the ABRR plane only once *all* the
    // APs covering it are cut over. A Transition scenario that ends
    // with a spanning prefix only partially cut over leaves that prefix
    // in a state the checks cannot reason about — reject it.
    let uses_transition = file.checks.iter().any(|c| c.mode == Mode::Transition);
    if uses_transition && !file.workload.cutovers.is_empty() {
        if let Some(ap_map) = build_ap_map(g) {
            let cut: BTreeSet<u16> = file.workload.cutovers.iter().map(|c| c.ap.0).collect();
            for (i, f) in file.workload.feeds.iter().enumerate() {
                let covering: BTreeSet<u16> = ap_map
                    .aps_for_prefix(&f.prefix)
                    .iter()
                    .map(|id| id.0)
                    .collect();
                let cut_covering: BTreeSet<u16> = covering.intersection(&cut).copied().collect();
                if !cut_covering.is_empty() && cut_covering.len() < covering.len() {
                    errs.push(ScenarioError::at(
                        item_path("$.workload.feeds", i),
                        format!(
                            "spanning-prefix accept-set violation (§2.4): {} is covered by APs {covering:?} but the schedule only cuts over {cut_covering:?}; cut over all covering APs or none",
                            f.prefix
                        ),
                    ));
                }
            }
        }
    }

    // --- faults ------------------------------------------------------
    for (i, f) in file.faults.iter().enumerate() {
        let path = item_path("$.faults", i);
        let check_node = |id: RouterId, what: &str, errs: &mut Vec<ScenarioError>| {
            if !nodes.contains(&id) {
                errs.push(ScenarioError::at(
                    path.clone(),
                    format!("{what} references unknown node {}", id.0),
                ));
            }
        };
        match &f.kind {
            faults::FaultKind::SessionFlap { a, b, .. } => {
                check_node(*a, "session_flap", errs);
                check_node(*b, "session_flap", errs);
            }
            faults::FaultKind::LinkDown { a, b } | faults::FaultKind::LinkUp { a, b } => {
                check_node(*a, "link fault", errs);
                check_node(*b, "link fault", errs);
            }
            faults::FaultKind::RouterCrash { node, .. } => check_node(*node, "router_crash", errs),
            faults::FaultKind::RouterDown { node } => check_node(*node, "router_down", errs),
            faults::FaultKind::ArrFailure { arr } => {
                if !g.rrs.contains(arr) {
                    errs.push(ScenarioError::at(
                        path.clone(),
                        format!("arr_failure targets router {}, which is not an RR", arr.0),
                    ));
                }
            }
            faults::FaultKind::ApReassign { ap, arrs } => {
                if !known_aps.contains(ap) {
                    errs.push(ScenarioError::at(
                        path.clone(),
                        format!("unknown AP {}", ap.0),
                    ));
                }
                for r in arrs {
                    if !g.rrs.contains(r) {
                        errs.push(ScenarioError::at(
                            path.clone(),
                            format!("ap_reassign target {} is not an RR", r.0),
                        ));
                    }
                }
            }
        }
    }

    // --- checks ------------------------------------------------------
    for (i, c) in file.checks.iter().enumerate() {
        let path = item_path("$.checks", i);
        for (j, x) in c.exits.iter().enumerate() {
            if !nodes.contains(&x.router) {
                errs.push(ScenarioError::at(
                    item_path(&key_path(&path, "exits"), j),
                    format!("unknown router {}", x.router.0),
                ));
            }
            if let Some(e) = x.exit {
                if !nodes.contains(&e) {
                    errs.push(ScenarioError::at(
                        item_path(&key_path(&path, "exits"), j),
                        format!("unknown exit router {}", e.0),
                    ));
                }
            }
        }
    }
}

fn validate_tier1(file: &ScenarioFile, t: &Tier1Network, errs: &mut Vec<ScenarioError>) {
    if !(1..=MAX_TIER1_PREFIXES).contains(&t.prefixes)
        || !router_count_ok(t.pops, t.routers_per_pop)
    {
        errs.push(ScenarioError::at(
            "$.network.tier1",
            format!("prefixes, pops, and routers_per_pop must be >= 1, with at most {MAX_TIER1_PREFIXES} prefixes and {MAX_ROUTERS} routers"),
        ));
    }
    if t.aps == 0 || t.arrs_per_ap == 0 || t.trrs_per_cluster == 0 {
        errs.push(ScenarioError::at(
            "$.network.tier1",
            "aps, arrs_per_ap, and trrs_per_cluster must be >= 1",
        ));
    }
    if !file.faults.is_empty() {
        errs.push(ScenarioError::at(
            "$.faults",
            "fault schedules are not supported on tier1 networks (use a gadget network)",
        ));
    }
    let w = &file.workload;
    if !w.feeds.is_empty() || !w.withdraws.is_empty() || !w.cutovers.is_empty() {
        errs.push(ScenarioError::at(
            "$.workload",
            "tier1 networks are fed from the model's initial snapshot; the workload section must be empty",
        ));
    }
    for (i, c) in file.checks.iter().enumerate() {
        if c.mode == Mode::Transition {
            errs.push(ScenarioError::at(
                key_path(&item_path("$.checks", i), "mode"),
                "transition mode is not supported on tier1 networks",
            ));
        }
        if !c.exits.is_empty() {
            errs.push(ScenarioError::at(
                key_path(&item_path("$.checks", i), "exits"),
                "pinned exits are not supported on tier1 networks",
            ));
        }
    }
}
