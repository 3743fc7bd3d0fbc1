//! The route regenerator: feeds a trace into a simulator (paper §4's
//! "simple pseudo BGP speaker ... \[that\] uses the MRT-format routing
//! trace to direct BGP feeds towards our implementation").

use crate::churn::{TraceEvent, TraceRecord};
use abrr::{BgpNode, ExternalEvent};
use netsim::Sim;

/// Schedules every record into `sim`, accelerating time by `speedup`
/// (paper §4 replayed both in realtime and ~20× faster and found <3%
/// difference in update counts — a comparison reproduced in the
/// integration tests): trace time `t_us` maps to sim time
/// `now + t_us / speedup`, so `speedup` = 1 preserves trace timing.
pub fn replay(sim: &mut Sim<BgpNode>, records: &[TraceRecord], speedup: u64) {
    let speedup = speedup.max(1);
    let t0 = sim.now();
    for r in records {
        let ev = match &r.event {
            TraceEvent::Announce {
                prefix,
                peer_as,
                peer_addr,
                attrs,
            } => ExternalEvent::EbgpAnnounce {
                prefix: *prefix,
                peer_as: *peer_as,
                peer_addr: *peer_addr,
                attrs: attrs.clone(),
            },
            TraceEvent::Withdraw { prefix, peer_addr } => ExternalEvent::EbgpWithdraw {
                prefix: *prefix,
                peer_addr: *peer_addr,
            },
        };
        sim.schedule_external(t0 + r.t_us / speedup, r.router, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn;
    use crate::specs::{self, SpecOptions};
    use crate::tier1::{Tier1Config, Tier1Model};
    use std::sync::Arc;

    #[test]
    fn replay_reaches_steady_state_with_all_routes() {
        let m = Tier1Model::generate(Tier1Config {
            n_prefixes: 150,
            n_pops: 3,
            routers_per_pop: 3,
            ..Tier1Config::default()
        });
        let opts = SpecOptions {
            mrai_us: 0,
            ..Default::default()
        };
        let spec = Arc::new(specs::abrr_spec(&m, 2, 2, &opts));
        let mut sim = abrr::build_sim(spec.clone());
        replay(&mut sim, &churn::initial_snapshot(&m), 1000);
        assert!(
            sim.run(netsim::RunLimits {
                max_events: 5_000_000,
                max_time: u64::MAX,
            })
            .quiesced
        );
        // Every router selected a route for every prefix.
        for plan in &m.prefixes {
            for r in &m.routers {
                assert!(
                    sim.node(*r).selected(&plan.prefix).is_some(),
                    "router {r:?} missing {}",
                    plan.prefix
                );
            }
        }
    }

    #[test]
    fn abrr_steady_state_is_timing_independent() {
        // ABRR emulates full mesh, whose steady state is unique — so
        // replay speed cannot change the outcome. (Single-path TBRR
        // does NOT have this property: with multiple stable signaling
        // assignments, different message timings can converge to
        // different route choices. That divergence is part of what the
        // paper fixes.)
        let m = Tier1Model::generate(Tier1Config {
            n_prefixes: 80,
            n_pops: 3,
            routers_per_pop: 2,
            ..Tier1Config::default()
        });
        let run = |speedup: u64| {
            let opts = SpecOptions {
                mrai_us: 0,
                ..Default::default()
            };
            let spec = Arc::new(specs::abrr_spec(&m, 3, 2, &opts));
            let mut sim = abrr::build_sim(spec);
            replay(&mut sim, &churn::initial_snapshot(&m), speedup);
            assert!(sim.run_to_quiescence().quiesced);
            let mut sels = Vec::new();
            for plan in &m.prefixes {
                for r in &m.routers {
                    sels.push(sim.node(*r).selected(&plan.prefix).map(|s| s.exit_router()));
                }
            }
            sels
        };
        assert_eq!(run(1), run(20));
        assert_eq!(run(7), run(1000));
    }
}
