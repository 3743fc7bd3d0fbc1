//! BGP churn traces: the two-week update feed of paper §4.
//!
//! A *routing event* affects one (prefix, advertiser AS) pair — e.g. a
//! path change or a flap deeper in the Internet — and manifests as
//! near-simultaneous updates at *all* of that AS's peering points, with
//! per-point arrival jitter of hundreds of milliseconds. That jitter is
//! precisely what the paper finds to cause TBRR's race-condition
//! updates (§4.2: updates for the same event processed by different
//! TRRs "by 100's of ms to several seconds" apart).

use crate::tier1::{PrefixKind, Tier1Model};
use bgp_types::{Asn, Ipv4Prefix, PathAttributes, RouterId};
use netsim::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One trace record: an externally-arriving eBGP event at a router.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival time (µs since trace start).
    pub t_us: Time,
    /// The border router the event arrives at.
    pub router: RouterId,
    /// The event.
    pub event: TraceEvent,
}

/// The eBGP event payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Announce (or re-announce with changed attributes).
    Announce {
        /// Destination prefix.
        prefix: Ipv4Prefix,
        /// Advertising AS.
        peer_as: Asn,
        /// eBGP session address.
        peer_addr: u32,
        /// Attributes.
        attrs: Arc<PathAttributes>,
    },
    /// Withdraw.
    Withdraw {
        /// Destination prefix.
        prefix: Ipv4Prefix,
        /// eBGP session address.
        peer_addr: u32,
    },
}

impl TraceEvent {
    /// The prefix the event concerns.
    pub fn prefix(&self) -> Ipv4Prefix {
        match self {
            TraceEvent::Announce { prefix, .. } | TraceEvent::Withdraw { prefix, .. } => *prefix,
        }
    }
}

/// Churn generation parameters.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// RNG seed.
    pub seed: u64,
    /// Trace duration in µs (paper: two weeks; scale down and record).
    pub duration_us: Time,
    /// Mean routing events per simulated second.
    pub events_per_sec: f64,
    /// Zipf-ish skew: fraction of events hitting the hottest 10% of
    /// prefixes (real BGP churn is heavy-tailed).
    pub hot_fraction: f64,
    /// Max per-peering-point arrival jitter (µs) within one event
    /// (paper: hundreds of ms).
    pub jitter_us: Time,
    /// Probability a routing event is a withdraw+re-announce flap
    /// rather than an attribute change.
    pub flap_probability: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 0xC4A17,
            duration_us: 600_000_000, // 10 simulated minutes by default
            events_per_sec: 2.0,
            hot_fraction: 0.7,
            jitter_us: 150_000,
            flap_probability: 0.3,
        }
    }
}

/// The indices of the model's churn-eligible prefixes. Only peer
/// prefixes churn (customer/static routes are stable at this time
/// scale, and the paper's trace is from peering routers).
fn peer_prefix_indices(model: &Tier1Model) -> Vec<usize> {
    model
        .prefixes
        .iter()
        .enumerate()
        .filter(|(_, p)| p.kind == PrefixKind::Peer)
        .map(|(i, _)| i)
        .collect()
}

/// Draws one routing event at base time `t` and appends its trace
/// records (one per peering point of the affected AS, plus the flap
/// re-announces). The RNG draw order here is part of the trace format:
/// `generate` is golden-pinned, so this body must only ever change
/// together with a golden re-bless.
fn push_event(
    rng: &mut StdRng,
    model: &Tier1Model,
    cfg: &ChurnConfig,
    peer_prefixes: &[usize],
    hot_count: usize,
    t: Time,
    records: &mut Vec<TraceRecord>,
) {
    // Pick a (hot-skewed) prefix.
    let idx = if rng.gen_bool(cfg.hot_fraction) {
        peer_prefixes[rng.gen_range(0..hot_count)]
    } else {
        peer_prefixes[rng.gen_range(0..peer_prefixes.len())]
    };
    let plan = &model.prefixes[idx];
    // Pick the advertiser AS affected by this event.
    let mut ases: Vec<Asn> = plan.routes.iter().map(|r| r.peer_as).collect();
    ases.sort();
    ases.dedup();
    let peer_as = ases[rng.gen_range(0..ases.len())];
    let flap = rng.gen_bool(cfg.flap_probability);
    let prepend = rng.gen_bool(0.5);
    let med_phase = rng.gen_range(0..2);
    for route in plan.routes.iter().filter(|r| r.peer_as == peer_as) {
        let jitter = rng.gen_range(0..cfg.jitter_us.max(1));
        if flap {
            // Withdraw, then re-announce 2–10 s later (+ jitter).
            records.push(TraceRecord {
                t_us: t + jitter,
                router: route.router,
                event: TraceEvent::Withdraw {
                    prefix: plan.prefix,
                    peer_addr: route.peer_addr,
                },
            });
            let back = t + 2_000_000 + rng.gen_range(0..8_000_000u64) + jitter;
            records.push(TraceRecord {
                t_us: back,
                router: route.router,
                event: TraceEvent::Announce {
                    prefix: plan.prefix,
                    peer_as,
                    peer_addr: route.peer_addr,
                    attrs: route.attrs.clone(),
                },
            });
        } else {
            // Attribute change: the advertising AS's route switched
            // deeper in the Internet. Half the time the new path is
            // one hop longer (prepended), half the time it reverts —
            // so the event usually moves the route in or out of the
            // best-AS-level set and flips best-path selections
            // across the AS. This is what makes churn consequential:
            // the paper's TRRs re-generate updates at *every*
            // cluster as such changes ripple through (§4.2), while
            // only the prefix's two ARRs do in ABRR.
            let mut attrs = if prepend {
                route.attrs.with_as_prepended(peer_as)
            } else {
                (*route.attrs).clone()
            };
            attrs.med = Some(bgp_types::Med(med_phase));
            records.push(TraceRecord {
                t_us: t + jitter,
                router: route.router,
                event: TraceEvent::Announce {
                    prefix: plan.prefix,
                    peer_as,
                    peer_addr: route.peer_addr,
                    attrs: Arc::new(attrs),
                },
            });
        }
    }
}

/// Generates a churn trace against a model's peer prefixes. Records are
/// sorted by arrival time.
///
/// The trace is `duration × events_per_sec` routing events whatever the
/// prefix count, so it is materialized: at the largest recorded scale
/// it is well under 1 % of the run's peak RSS (CHANGES.md, PR 15). The
/// output is pinned by the golden fingerprint tests.
pub fn generate(model: &Tier1Model, cfg: &ChurnConfig) -> Vec<TraceRecord> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let peer_prefixes = peer_prefix_indices(model);
    if peer_prefixes.is_empty() {
        return Vec::new();
    }
    let hot_count = (peer_prefixes.len() / 10).max(1);
    let n_events = (cfg.duration_us as f64 / 1e6 * cfg.events_per_sec) as usize;
    let mut records = Vec::new();
    for _ in 0..n_events {
        let t = rng.gen_range(0..cfg.duration_us);
        push_event(
            &mut rng,
            model,
            cfg,
            &peer_prefixes,
            hot_count,
            t,
            &mut records,
        );
    }
    records.sort_by_key(|r| r.t_us);
    records
}

/// The initial RIB snapshot as a list of announce records at t=0
/// (paper §4: "We start our trace by taking a snapshot of the peering
/// routers' RIBs, and generating a series of BGP announcements from our
/// route regenerators").
pub fn initial_snapshot(model: &Tier1Model) -> Vec<TraceRecord> {
    let mut records = Vec::new();
    for plan in &model.prefixes {
        for route in &plan.routes {
            records.push(TraceRecord {
                t_us: 0,
                router: route.router,
                event: TraceEvent::Announce {
                    prefix: plan.prefix,
                    peer_as: route.peer_as,
                    peer_addr: route.peer_addr,
                    attrs: route.attrs.clone(),
                },
            });
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier1::Tier1Config;

    fn model() -> Tier1Model {
        Tier1Model::generate(Tier1Config {
            n_prefixes: 300,
            n_pops: 4,
            routers_per_pop: 3,
            ..Tier1Config::default()
        })
    }

    #[test]
    fn records_sorted_and_bounded() {
        let m = model();
        let cfg = ChurnConfig::default();
        let recs = generate(&m, &cfg);
        assert!(!recs.is_empty());
        for w in recs.windows(2) {
            assert!(w[0].t_us <= w[1].t_us);
        }
        // Flap re-announces can exceed duration by <= ~10s + jitter.
        let max_t = recs.iter().map(|r| r.t_us).max().unwrap();
        assert!(max_t <= cfg.duration_us + 11_000_000);
    }

    #[test]
    fn event_affects_all_peering_points_of_the_as() {
        let m = model();
        let cfg = ChurnConfig {
            events_per_sec: 0.5,
            flap_probability: 0.0,
            ..ChurnConfig::default()
        };
        let recs = generate(&m, &cfg);
        // Group records into events by (prefix, approximate time): each
        // attribute-change event produces one announce per peering
        // point of one AS, i.e. >= 2 records typically.
        let mut by_prefix: std::collections::BTreeMap<Ipv4Prefix, usize> =
            std::collections::BTreeMap::new();
        for r in &recs {
            *by_prefix.entry(r.event.prefix()).or_default() += 1;
        }
        assert!(by_prefix.values().any(|&c| c >= 2));
    }

    #[test]
    fn deterministic() {
        let m = model();
        let cfg = ChurnConfig::default();
        assert_eq!(generate(&m, &cfg), generate(&m, &cfg));
    }

    #[test]
    fn snapshot_covers_every_route() {
        let m = model();
        let snap = initial_snapshot(&m);
        let planned: usize = m.prefixes.iter().map(|p| p.routes.len()).sum();
        assert_eq!(snap.len(), planned);
        assert!(snap.iter().all(|r| r.t_us == 0));
    }

    #[test]
    fn jitter_spreads_arrivals_within_event() {
        let m = model();
        let cfg = ChurnConfig {
            events_per_sec: 0.05, // few, well-separated events
            flap_probability: 0.0,
            ..ChurnConfig::default()
        };
        let recs = generate(&m, &cfg);
        // Find two records of the same event (same prefix, close times)
        // with different arrival times.
        let mut found_jitter = false;
        for w in recs.windows(2) {
            if w[0].event.prefix() == w[1].event.prefix()
                && w[1].t_us - w[0].t_us < cfg.jitter_us
                && w[1].t_us != w[0].t_us
            {
                found_jitter = true;
                break;
            }
        }
        assert!(found_jitter, "peering points should see jittered arrivals");
    }
}
