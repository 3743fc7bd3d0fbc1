//! Resilience auditors: what the control plane *costs the data plane*
//! while a fault is being absorbed.
//!
//! The central metric is the **blackhole window**: for each router ×
//! prefix, the total time the router could not deliver traffic for a
//! prefix that was still reachable AS-wide. "Still reachable" is ground
//! truth from the live simulator: some up border router still holds an
//! eBGP (or local) route for the prefix — a converged iBGP layer would
//! then give *every* up router a working route. A router blackholes
//! when it has no selection, or when its selection is *stale*: the
//! chosen exit is down or no longer originates the prefix (traffic
//! dies at the exit).
//!
//! Sampling is time-sliced: the driver steps the simulator in fixed
//! slices and calls [`ResilienceProbe::sample`] after each. Shorter
//! slices tighten the measurement bounds; determinism is unaffected
//! (sampling only reads state).

use abrr::audit::{self, ForwardingOutcome};
use abrr::{BgpNode, NetworkSpec};
use bgp_types::{Ipv4Prefix, RouterId};
use netsim::{Sim, Time};
use std::collections::{BTreeMap, BTreeSet};

/// Accumulates blackhole windows and transient forwarding-loop
/// observations over a time-sliced run.
#[derive(Clone, Debug)]
pub struct ResilienceProbe {
    last_sample: Time,
    /// Accumulated blackhole time per router × prefix, µs.
    pub blackhole_us: BTreeMap<(RouterId, Ipv4Prefix), Time>,
    /// Samples at which at least one forwarding loop existed, and the
    /// total (router, prefix) loop observations across them.
    pub loop_observations: u64,
    /// Peak number of simultaneously blackholed (router, prefix)
    /// pairs seen at any sample.
    pub peak_blackholed: usize,
    /// Blackholed (router, prefix) pairs at the most recent sample.
    pub currently_blackholed: usize,
}

impl ResilienceProbe {
    /// A probe whose first sampling interval starts at `start`.
    pub fn new(start: Time) -> Self {
        ResilienceProbe {
            last_sample: start,
            blackhole_us: BTreeMap::new(),
            loop_observations: 0,
            peak_blackholed: 0,
            currently_blackholed: 0,
        }
    }

    /// Samples the simulator at its current time, charging the elapsed
    /// slice to every (router, prefix) pair that is blackholed *now*.
    /// Routers that are down are skipped (a crashed router blackholes
    /// by definition; the interesting metric is the damage at the
    /// survivors). Also walks the data plane for loop detection when
    /// `check_loops` is set (it is O(routers × prefixes) per sample).
    pub fn sample(&mut self, sim: &Sim<BgpNode>, spec: &NetworkSpec, check_loops: bool) {
        let now = sim.now();
        let dt = now.saturating_sub(self.last_sample);
        self.last_sample = now;

        // Candidate prefixes: anything some up router still selects.
        // (A prefix nobody selects but someone originates cannot occur:
        // purging triggers an immediate recompute at the originator.)
        let mut candidates: BTreeSet<Ipv4Prefix> = BTreeSet::new();
        for r in &spec.routers {
            if !sim.is_node_up(*r) {
                continue;
            }
            for (p, _) in sim.node(*r).selections() {
                candidates.insert(p);
            }
        }
        // Ground-truth reachability: a surviving border router still
        // holds an eBGP/local route.
        let reachable: BTreeSet<Ipv4Prefix> = candidates
            .into_iter()
            .filter(|p| {
                spec.routers
                    .iter()
                    .any(|r| sim.is_node_up(*r) && sim.node(*r).originates(p))
            })
            .collect();

        let mut holes = 0usize;
        for r in &spec.routers {
            if !sim.is_node_up(*r) {
                continue;
            }
            for p in &reachable {
                let blackholed = match sim.node(*r).selected(p) {
                    None => true,
                    Some(sel) => {
                        let exit = sel.exit_router();
                        !sim.contains_node(exit)
                            || !sim.is_node_up(exit)
                            || !sim.node(exit).originates(p)
                    }
                };
                if blackholed {
                    holes += 1;
                    if dt > 0 {
                        *self.blackhole_us.entry((*r, *p)).or_insert(0) += dt;
                    }
                }
            }
        }
        self.currently_blackholed = holes;
        self.peak_blackholed = self.peak_blackholed.max(holes);

        if check_loops {
            for p in &reachable {
                for r in &spec.routers {
                    if !sim.is_node_up(*r) {
                        continue;
                    }
                    if matches!(
                        audit::forwarding_path(sim, spec, *r, p),
                        ForwardingOutcome::Loop(_)
                    ) {
                        self.loop_observations += 1;
                    }
                }
            }
        }
    }

    /// Total blackhole time summed over all router × prefix pairs, µs.
    pub fn total_blackhole_us(&self) -> Time {
        self.blackhole_us.values().sum()
    }
}
