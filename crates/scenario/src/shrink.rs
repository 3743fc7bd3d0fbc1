//! Greedy structural shrinking of failing scenarios.
//!
//! Given a scenario whose oracle stack reports failures, repeatedly try
//! structure-removing edits — drop a fault, a feed, a link, a router,
//! an RR, a check, an AP — keeping an edit only when the *same* oracle
//! (mode + oracle name) still fails on the reduced scenario. The loop
//! runs to a fixed point (or a run budget), yielding a minimal gadget
//! that still demonstrates the failure; the fuzzer writes it to disk as
//! a ready-to-commit corpus file.

use crate::check::run_checks;
use crate::compile;
use crate::schema::*;
use crate::validate::validate;
use bgp_types::RouterId;
use std::collections::BTreeSet;

/// A failing oracle's identity: (mode keyword, oracle name).
pub type FailureKey = (String, String);

/// The failing (mode, oracle) pairs of a scenario, or `None` when it
/// does not compile/validate (an invalid shrink candidate).
pub fn failure_keys(file: &ScenarioFile) -> Option<BTreeSet<FailureKey>> {
    if !validate(file).is_empty() {
        return None;
    }
    let loaded = compile::compile(file.clone());
    let report = run_checks(&loaded);
    Some(
        report
            .failures
            .iter()
            .map(|f| (mode_keyword(&f.mode).to_string(), f.oracle.clone()))
            .collect(),
    )
}

/// Shrinks `file` while at least one of `targets` keeps failing.
/// `budget` bounds the number of candidate runs.
pub fn shrink(file: &ScenarioFile, budget: usize) -> ScenarioFile {
    let Some(targets) = failure_keys(file) else {
        return file.clone();
    };
    if targets.is_empty() {
        return file.clone();
    }
    let mut best = file.clone();
    let mut runs = 0usize;
    let still_fails = |candidate: &ScenarioFile, runs: &mut usize| -> bool {
        *runs += 1;
        match failure_keys(candidate) {
            Some(keys) => keys.intersection(&targets).next().is_some(),
            None => false,
        }
    };
    loop {
        let mut improved = false;
        for candidate in candidates(&best) {
            if runs >= budget {
                return best;
            }
            if still_fails(&candidate, &mut runs) {
                best = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// All single-step reductions of a scenario, most aggressive first.
fn candidates(file: &ScenarioFile) -> Vec<ScenarioFile> {
    let mut out = Vec::new();
    let Network::Gadget(g) = &file.network else {
        return out; // Tier-1 scenarios are parameterized, not structural.
    };

    // Drop a whole router (and everything referencing it).
    for r in g.routers.iter().chain(g.rrs.iter()) {
        out.extend(drop_router(file, *r));
    }
    // Drop one check (narrows multi-mode scenarios to the failing run).
    if file.checks.len() > 1 {
        for i in 0..file.checks.len() {
            let mut f = file.clone();
            f.checks.remove(i);
            out.push(f);
        }
    }
    // Drop one fault.
    for i in 0..file.faults.len() {
        let mut f = file.clone();
        f.faults.remove(i);
        out.push(f);
    }
    // Drop one feed (keeping at least one).
    if file.workload.feeds.len() > 1 {
        for i in 0..file.workload.feeds.len() {
            let mut f = file.clone();
            f.workload.feeds.remove(i);
            out.push(f);
        }
    }
    // Drop one withdraw / cutover.
    for i in 0..file.workload.withdraws.len() {
        let mut f = file.clone();
        f.workload.withdraws.remove(i);
        out.push(f);
    }
    for i in 0..file.workload.cutovers.len() {
        let mut f = file.clone();
        f.workload.cutovers.remove(i);
        out.push(f);
    }
    // Drop one link (may disconnect — validation rejects dangling ends,
    // `still_fails` filters those out).
    if let TopologySource::Links(links) = &g.topology {
        for i in 0..links.len() {
            let mut f = file.clone();
            if let Network::Gadget(g2) = &mut f.network {
                if let TopologySource::Links(l2) = &mut g2.topology {
                    l2.remove(i);
                }
            }
            out.push(f);
        }
    }
    // Fewer APs.
    if let Some(ApScheme::Uniform(n)) = g.aps {
        if n > 1 {
            let mut f = file.clone();
            if let Network::Gadget(g2) = &mut f.network {
                g2.aps = Some(ApScheme::Uniform(n - 1));
            }
            out.push(f);
        }
    }
    out
}

/// Removes router `r` and every structure that references it; `None`
/// for a Tier-1 file, which has no router list.
fn drop_router(file: &ScenarioFile, r: RouterId) -> Option<ScenarioFile> {
    let mut f = file.clone();
    let Network::Gadget(g2) = &mut f.network else {
        return None;
    };
    g2.routers.retain(|x| *x != r);
    g2.rrs.retain(|x| *x != r);
    if let TopologySource::Links(links) = &mut g2.topology {
        links.retain(|l| l.a != r && l.b != r);
    }
    for c in &mut g2.clusters {
        c.trrs.retain(|x| *x != r);
        c.clients.retain(|x| *x != r);
    }
    g2.clusters.retain(|c| !c.trrs.is_empty());
    for a in &mut g2.arrs {
        a.arrs.retain(|x| *x != r);
    }
    f.workload.feeds.retain(|feed| feed.router != r);
    f.workload.withdraws.retain(|w| w.router != r);
    f.faults.retain(|fault| !fault_touches(&fault.kind, r));
    for c in &mut f.checks {
        c.exits.retain(|x| x.router != r && x.exit != Some(r));
    }
    Some(f)
}

fn fault_touches(kind: &faults::FaultKind, r: RouterId) -> bool {
    use faults::FaultKind::*;
    match kind {
        SessionFlap { a, b, .. } | LinkDown { a, b } | LinkUp { a, b } => *a == r || *b == r,
        RouterCrash { node, .. } | RouterDown { node } => *node == r,
        ArrFailure { arr } => *arr == r,
        ApReassign { arrs, .. } => arrs.contains(&r),
    }
}
