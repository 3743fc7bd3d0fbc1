//! The BGP best-path decision process (RFC 4271 §9.1.2.2; paper Table 2).

use bgp_types::{Asn, NextHop, PathAttributes, RouteSource, RouterId};
use std::sync::Arc;

/// MED comparison scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MedMode {
    /// RFC 4271 default: MEDs are comparable only between routes learned
    /// from the same neighbouring AS.
    SameNeighborAs,
    /// The `always-compare-med` vendor knob: compare MEDs globally.
    AlwaysCompare,
}

/// Decision-process configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionConfig {
    /// MED comparison scope (step 4).
    pub med: MedMode,
    /// Whether to apply the RFC 4456 §9 tie-break "prefer the route with
    /// the shorter CLUSTER_LIST" between steps 6 and 7.
    pub use_cluster_list_len: bool,
}

impl Default for DecisionConfig {
    fn default() -> Self {
        DecisionConfig {
            med: MedMode::SameNeighborAs,
            use_cluster_list_len: true,
        }
    }
}

/// A route candidate entering the decision process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The route's path attributes (shared, cheap to clone).
    pub attrs: Arc<PathAttributes>,
    /// Provenance: eBGP / iBGP (drives steps 5 and 8).
    pub source: RouteSource,
    /// BGP Identifier of the advertising speaker, used in step 7 when no
    /// ORIGINATOR_ID is present.
    pub neighbor_id: u32,
}

impl Candidate {
    /// This candidate as the decision process reads it.
    pub fn route(&self) -> RouteRef<'_> {
        RouteRef {
            attrs: &self.attrs,
            source: self.source,
            neighbor_id: self.neighbor_id,
        }
    }
}

/// A route as the decision process reads it, borrowed from wherever it
/// is stored: a [`Candidate`] ([`Candidate::route`]) or a table entry
/// ([`RouteRef::ibgp`]). Deciding over these builds no candidate list
/// and touches no reference count; the winner's `attrs` can still be
/// cloned out.
#[derive(Clone, Copy, Debug)]
pub struct RouteRef<'a> {
    /// The route's path attributes.
    pub attrs: &'a Arc<PathAttributes>,
    /// Provenance: eBGP / iBGP (drives steps 5 and 8).
    pub source: RouteSource,
    /// BGP Identifier of the advertising speaker (see
    /// [`Candidate::neighbor_id`]).
    pub neighbor_id: u32,
}

impl<'a> RouteRef<'a> {
    /// A route learned over iBGP from `peer`.
    pub fn ibgp(peer: RouterId, attrs: &'a Arc<PathAttributes>) -> RouteRef<'a> {
        RouteRef {
            attrs,
            source: RouteSource::Ibgp { peer },
            neighbor_id: peer.0,
        }
    }

    fn effective_router_id(&self) -> u32 {
        self.attrs
            .originator_id
            .map(|o| o.0)
            .unwrap_or(self.neighbor_id)
    }

    fn peer_addr(&self) -> u32 {
        match self.source {
            RouteSource::Ebgp { peer_addr, .. } => peer_addr,
            RouteSource::Ibgp { peer } => peer.0,
        }
    }
}

/// An IGP metric oracle: metric from the deciding router to a BGP next
/// hop. `None` means the next hop is unreachable, which (per RFC 4271
/// §9.1.2) excludes the route from consideration.
pub trait IgpMetric {
    /// The metric to `next_hop`, or `None` if unreachable.
    fn metric(&self, next_hop: NextHop) -> Option<u32>;
}

impl<F: Fn(NextHop) -> Option<u32>> IgpMetric for F {
    fn metric(&self, next_hop: NextHop) -> Option<u32> {
        self(next_hop)
    }
}

/// Sets of at most this many routes decide in a small stack array ...
const SMALL_KEYS: usize = 8;
/// ... and sets of at most this many in a larger one; a longer set
/// decides in one heap buffer. A set initialises only the array of its
/// size class, so the common two- to four-route set does not fill 32
/// keys it never reads.
const INLINE_KEYS: usize = 32;

/// Everything the decision process reads of one route, extracted once
/// so the elimination compares plain integers side by side instead of
/// chasing a `PathAttributes` per step: steps 1–3 are one integer and
/// steps 5–8 two, each ordered so that smaller is better. The two
/// lengths saturate far above anything BGP can carry: one 65 535-byte
/// attribute holds at most 16 383 ASNs or cluster ids.
#[derive(Clone, Copy, Default)]
struct Key<'a> {
    /// Steps 1–3: LOCAL_PREF inverted in the top 32 bits, the AS_PATH
    /// length (saturated at 2^24 − 1) in the next 24, ORIGIN's wire
    /// code — which orders as the decision does — in the low 8.
    as_level: u64,
    /// Steps 5–6.5: iBGP-learned in the top bit, the IGP metric in the
    /// next 32, the CLUSTER_LIST length (saturated at 2^31 − 1; 0 when
    /// the step is off) in the low 31.
    exit: u64,
    /// Steps 7–8: router id (ORIGINATOR_ID substitutes) in the top 32
    /// bits, peer address in the low 32.
    tie: u64,
    /// Where step 4 finds the MED group (the AS_PATH), if it needs one
    /// (`None` only in an unwritten buffer slot).
    attrs: Option<&'a PathAttributes>,
    /// The neighbouring AS whose MEDs this one is comparable with
    /// (`None` for an empty path), filled in by step 4 only when MEDs
    /// differ: the leftmost AS is one more pointer away than anything
    /// else the decision reads.
    med_group: Option<Asn>,
    med: u32,
    /// Position in the caller's sequence.
    index: u32,
    /// Step 4's verdict within the group, once its minimum is known.
    med_keep: Option<bool>,
}

impl<'a> Key<'a> {
    fn new(route: &RouteRef<'a>, igp_metric: u32, cfg: &DecisionConfig, index: usize) -> Key<'a> {
        let a: &'a PathAttributes = route.attrs;
        let path_len = a.as_path_len().min((1 << 24) - 1) as u64;
        let cluster_len = if cfg.use_cluster_list_len {
            a.cluster_list().len().min((1 << 31) - 1) as u64
        } else {
            0
        };
        let ibgp = !route.source.is_other_learned() as u64;
        Key {
            as_level: (!a.effective_local_pref().0 as u64) << 32
                | path_len << 8
                | a.origin.code() as u64,
            exit: ibgp << 63 | (igp_metric as u64) << 31 | cluster_len,
            tie: (route.effective_router_id() as u64) << 32 | route.peer_addr() as u64,
            attrs: Some(a),
            med_group: None,
            med: a.effective_med().0,
            index: index as u32,
            med_keep: None,
        }
    }
}

/// Extracts the keys of the routes with a reachable next hop (RFC 4271
/// §9.1.2: the rest never enter the decision), in input order, asking
/// `igp` once per route, runs steps 1–4 on them and hands the
/// survivors, still in input order, to `decide`.
fn decide_as_level<'a, R>(
    routes: impl IntoIterator<Item = RouteRef<'a>>,
    cfg: &DecisionConfig,
    igp: &impl IgpMetric,
    decide: impl FnOnce(&mut [Key<'a>]) -> R,
) -> R {
    let routes = routes.into_iter();
    let (at_least, at_most) = routes.size_hint();
    let keys = routes.enumerate().filter_map(|(index, route)| {
        let metric = igp.metric(route.attrs.next_hop)?;
        Some(Key::new(&route, metric, cfg, index))
    });
    // Only the buffer of the set's size class is initialised.
    let (mut small, mut inline, mut spill);
    let keys: &mut [Key<'a>] = match at_most {
        Some(n) if n <= SMALL_KEYS => {
            small = [Key::default(); SMALL_KEYS];
            fill(&mut small, keys)
        }
        Some(n) if n <= INLINE_KEYS => {
            inline = [Key::default(); INLINE_KEYS];
            fill(&mut inline, keys)
        }
        _ => {
            spill = Vec::with_capacity(at_least);
            spill.extend(keys);
            &mut spill
        }
    };
    decide(as_level_steps(keys, cfg))
}

/// Writes `keys` to the front of `buf`, which the iterator's upper size
/// bound says they fit, and returns that front. Internal iteration, so
/// a chain of sources runs as one loop per source.
fn fill<'k, 'a>(buf: &'k mut [Key<'a>], keys: impl Iterator<Item = Key<'a>>) -> &'k mut [Key<'a>] {
    let n = keys.fold(0, |n, key| {
        buf[n] = key;
        n + 1
    });
    &mut buf[..n]
}

/// Decision steps 1–4 over extracted keys: steps 1–3 (highest
/// LOCAL_PREF, shortest AS_PATH, lowest ORIGIN) as one minimum of
/// `as_level`, then step 4 (lowest MED within the configured scope). The
/// survivors are the returned front of `keys`, in input order.
fn as_level_steps<'k, 'a>(keys: &'k mut [Key<'a>], cfg: &DecisionConfig) -> &'k mut [Key<'a>] {
    if keys.len() <= 1 {
        return keys;
    }
    let best = keys.iter().map(|k| k.as_level).min();
    let keys = retain(keys, |k| Some(k.as_level) == best);
    if keys.len() <= 1 {
        return keys;
    }
    match cfg.med {
        MedMode::AlwaysCompare => {
            let lowest = keys.iter().map(|k| k.med).min();
            retain(keys, |k| Some(k.med) == lowest)
        }
        MedMode::SameNeighborAs => {
            // Deterministic-MED style: within each neighbour-AS group
            // only routes tying for the group's lowest MED survive
            // (empty paths, which have no group, are never
            // MED-eliminated). Equal MEDs eliminate nothing, whatever
            // the groups, so the groups are looked up only when MEDs
            // differ. Each group is then settled the first time one of
            // its members comes up: one scan for its minimum, one to
            // mark its members — two passes per distinct group, and no
            // map to hold the minima.
            if keys.iter().all(|k| k.med == keys[0].med) {
                return keys;
            }
            for k in keys.iter_mut() {
                k.med_group = k.attrs.and_then(|a| a.as_path().first_as());
            }
            for i in 0..keys.len() {
                let (Some(group), None) = (keys[i].med_group, keys[i].med_keep) else {
                    continue;
                };
                let in_group = |k: &Key| k.med_group == Some(group);
                let lowest = keys[i..]
                    .iter()
                    .filter(|k| in_group(k))
                    .map(|k| k.med)
                    .min();
                for k in keys[i..].iter_mut().filter(|k| in_group(k)) {
                    k.med_keep = Some(Some(k.med) == lowest);
                }
            }
            retain(keys, |k| k.med_keep != Some(false))
        }
    }
}

/// Keeps the keys `keep` accepts at the front of `keys`, in order, and
/// returns that front.
fn retain<'k, 'a>(keys: &'k mut [Key<'a>], keep: impl Fn(&Key) -> bool) -> &'k mut [Key<'a>] {
    let mut kept = 0;
    for i in 0..keys.len() {
        if keep(&keys[i]) {
            keys[kept] = keys[i];
            kept += 1;
        }
    }
    &mut keys[..kept]
}

/// Computes the *best AS-level routes*: the survivors of decision steps
/// 1–4 (paper §2.1, Table 2). Returns indices into `cands`, in input
/// order. This is the route set an ARR advertises to every client.
pub fn best_as_level(cands: &[Candidate], cfg: &DecisionConfig) -> Vec<usize> {
    best_as_level_of(cands.iter().map(Candidate::route), cfg)
}

/// [`best_as_level`] over borrowed routes: returns positions in the
/// sequence `routes` yields, in order.
pub fn best_as_level_of<'a>(
    routes: impl IntoIterator<Item = RouteRef<'a>>,
    cfg: &DecisionConfig,
) -> Vec<usize> {
    // Steps 1–4 never look at the IGP: every next hop counts as reachable.
    let everywhere = |_: NextHop| Some(0);
    decide_as_level(routes, cfg, &everywhere, |survivors| {
        survivors.iter().map(|k| k.index as usize).collect()
    })
}

/// Runs the full decision process (steps 1–8) and returns the index of
/// the best candidate, or `None` when no candidate has a reachable next
/// hop.
///
/// Step order (paper Table 2):
/// 1. highest LOCAL_PREF, 2. shortest AS_PATH, 3. lowest ORIGIN,
///    4. lowest MED, 5. eBGP over iBGP, 6. lowest IGP metric to next
///    hop, (6.5 RFC 4456: shorter CLUSTER_LIST, if configured),
///    7. lowest router id (ORIGINATOR_ID substitutes), 8. lowest peer
///    address.
///
/// Allocates nothing for up to 32 candidates, and one buffer beyond.
pub fn best_path(cands: &[Candidate], cfg: &DecisionConfig, igp: &impl IgpMetric) -> Option<usize> {
    best_path_of(cands.iter().map(Candidate::route), cfg, igp)
}

/// [`best_path`] over borrowed routes: returns a position in the
/// sequence `routes` yields. The buffer is sized by the sequence's
/// upper size bound, so an iterator without one decides on the heap.
pub fn best_path_of<'a>(
    routes: impl IntoIterator<Item = RouteRef<'a>>,
    cfg: &DecisionConfig,
    igp: &impl IgpMetric,
) -> Option<usize> {
    decide_as_level(routes, cfg, igp, |survivors| {
        // Steps 5–8 as one lexicographic minimum; the earliest
        // candidate breaks a full tie.
        let best = survivors.iter().min_by_key(|k| (k.exit, k.tie));
        best.map(|k| k.index as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, Med, Origin, RouteSource, RouterId};

    fn ebgp(as_path: AsPath, nh: u32, peer_as: u32, peer_addr: u32) -> Candidate {
        Candidate {
            attrs: Arc::new(PathAttributes::ebgp(as_path, NextHop(nh))),
            source: RouteSource::Ebgp {
                peer_as: Asn(peer_as),
                peer_addr,
            },
            neighbor_id: peer_addr,
        }
    }

    fn ibgp(as_path: AsPath, nh: u32, from: u32) -> Candidate {
        let mut c = Candidate {
            attrs: Arc::new(PathAttributes::ebgp(as_path, NextHop(nh))),
            source: RouteSource::Ibgp {
                peer: RouterId(from),
            },
            neighbor_id: from,
        };
        Arc::make_mut(&mut c.attrs).local_pref = Some(bgp_types::LocalPref(100));
        c
    }

    /// Flat IGP: every next hop reachable at metric = next-hop value
    /// (so lower-numbered exits are closer).
    fn flat_igp(nh: NextHop) -> Option<u32> {
        Some(nh.0)
    }

    #[test]
    fn step1_local_pref_wins() {
        let mut a = ebgp(AsPath::sequence([Asn(1)]), 10, 1, 10);
        Arc::make_mut(&mut a.attrs).local_pref = Some(bgp_types::LocalPref(200));
        let b = ebgp(AsPath::empty(), 5, 2, 5); // shorter path but lp=100
        let cands = vec![a, b];
        assert_eq!(
            best_path(&cands, &DecisionConfig::default(), &flat_igp),
            Some(0)
        );
        assert_eq!(best_as_level(&cands, &DecisionConfig::default()), vec![0]);
    }

    #[test]
    fn step2_shorter_as_path() {
        let a = ebgp(AsPath::sequence([Asn(1), Asn(2)]), 1, 1, 1);
        let b = ebgp(AsPath::sequence([Asn(3)]), 2, 3, 2);
        let cands = vec![a, b];
        assert_eq!(
            best_path(&cands, &DecisionConfig::default(), &flat_igp),
            Some(1)
        );
    }

    #[test]
    fn step3_lowest_origin() {
        let mut a = ebgp(AsPath::sequence([Asn(1)]), 1, 1, 1);
        Arc::make_mut(&mut a.attrs).origin = Origin::Incomplete;
        let mut b = ebgp(AsPath::sequence([Asn(2)]), 2, 2, 2);
        Arc::make_mut(&mut b.attrs).origin = Origin::Igp;
        let cands = vec![a, b];
        assert_eq!(
            best_path(&cands, &DecisionConfig::default(), &flat_igp),
            Some(1)
        );
    }

    #[test]
    fn step4_med_same_as_only() {
        // Same neighbour AS: MED decides.
        let a = {
            let mut c = ebgp(AsPath::sequence([Asn(1)]), 1, 1, 1);
            Arc::make_mut(&mut c.attrs).med = Some(Med(10));
            c
        };
        let b = {
            let mut c = ebgp(AsPath::sequence([Asn(1)]), 2, 1, 2);
            Arc::make_mut(&mut c.attrs).med = Some(Med(5));
            c
        };
        // Different AS: MED ignored between (a,b) and c.
        let c = {
            let mut c = ebgp(AsPath::sequence([Asn(2)]), 3, 2, 3);
            Arc::make_mut(&mut c.attrs).med = Some(Med(100));
            c
        };
        let cands = vec![a, b, c];
        let cfg = DecisionConfig::default();
        let surv = best_as_level(&cands, &cfg);
        assert_eq!(surv, vec![1, 2], "a loses to b within AS1; c survives");
        // Full decision: among survivors, IGP metric picks b (nh 2 < 3).
        assert_eq!(best_path(&cands, &cfg, &flat_igp), Some(1));
    }

    #[test]
    fn step4_always_compare() {
        let a = {
            let mut c = ebgp(AsPath::sequence([Asn(1)]), 1, 1, 1);
            Arc::make_mut(&mut c.attrs).med = Some(Med(10));
            c
        };
        let b = {
            let mut c = ebgp(AsPath::sequence([Asn(2)]), 2, 2, 2);
            Arc::make_mut(&mut c.attrs).med = Some(Med(5));
            c
        };
        let cfg = DecisionConfig {
            med: MedMode::AlwaysCompare,
            ..DecisionConfig::default()
        };
        assert_eq!(best_as_level(&[a, b], &cfg), vec![1]);
    }

    #[test]
    fn step5_ebgp_over_ibgp() {
        let a = ibgp(AsPath::sequence([Asn(1)]), 1, 50);
        let b = ebgp(AsPath::sequence([Asn(2)]), 100, 2, 100);
        let cands = vec![a, b];
        // Despite a's far better IGP metric (1 vs 100), eBGP wins.
        assert_eq!(
            best_path(&cands, &DecisionConfig::default(), &flat_igp),
            Some(1)
        );
        // But both survive AS-level steps (step 5 is not AS-level).
        assert_eq!(best_as_level(&cands, &DecisionConfig::default()).len(), 2);
    }

    #[test]
    fn step6_igp_metric() {
        let a = ibgp(AsPath::sequence([Asn(1)]), 30, 1);
        let b = ibgp(AsPath::sequence([Asn(2)]), 20, 2);
        let cands = vec![a, b];
        assert_eq!(
            best_path(&cands, &DecisionConfig::default(), &flat_igp),
            Some(1)
        );
    }

    #[test]
    fn step7_router_id_with_originator_override() {
        let a = ibgp(AsPath::sequence([Asn(1)]), 5, 10);
        let mut b = ibgp(AsPath::sequence([Asn(2)]), 5, 20);
        // b's originator id (2) beats a's neighbor id (10).
        Arc::make_mut(&mut b.attrs).originator_id = Some(bgp_types::OriginatorId(2));
        let cands = vec![a, b];
        assert_eq!(
            best_path(&cands, &DecisionConfig::default(), &flat_igp),
            Some(1)
        );
    }

    #[test]
    fn step8_lowest_peer_addr() {
        let a = ibgp(AsPath::sequence([Asn(1)]), 5, 9);
        let b = ibgp(AsPath::sequence([Asn(2)]), 5, 7);
        // Force equal router ids via originator id.
        let mut a = a;
        let mut b = b;
        Arc::make_mut(&mut a.attrs).originator_id = Some(bgp_types::OriginatorId(1));
        Arc::make_mut(&mut b.attrs).originator_id = Some(bgp_types::OriginatorId(1));
        let cands = vec![a, b];
        assert_eq!(
            best_path(&cands, &DecisionConfig::default(), &flat_igp),
            Some(1)
        );
    }

    #[test]
    fn cluster_list_tiebreak() {
        let mut a = ibgp(AsPath::sequence([Asn(1)]), 5, 5);
        a.attrs = Arc::new(
            a.attrs
                .with_clusters_prepended([bgp_types::ClusterId(1), bgp_types::ClusterId(2)]),
        );
        Arc::make_mut(&mut a.attrs).originator_id = Some(bgp_types::OriginatorId(1));
        let mut b = ibgp(AsPath::sequence([Asn(2)]), 5, 9);
        b.attrs = Arc::new(b.attrs.with_clusters_prepended([bgp_types::ClusterId(1)]));
        Arc::make_mut(&mut b.attrs).originator_id = Some(bgp_types::OriginatorId(1));
        let cands = vec![a.clone(), b.clone()];
        let cfg = DecisionConfig::default();
        assert_eq!(best_path(&cands, &cfg, &flat_igp), Some(1));
        // Disabled: falls through to peer address; a (5) beats b (9).
        let cfg_off = DecisionConfig {
            use_cluster_list_len: false,
            ..cfg
        };
        assert_eq!(best_path(&cands, &cfg_off, &flat_igp), Some(0));
    }

    #[test]
    fn unreachable_next_hop_excluded() {
        let igp = |nh: NextHop| if nh.0 == 1 { Some(1) } else { None };
        let a = ebgp(AsPath::sequence([Asn(1)]), 1, 1, 1);
        let b = ebgp(AsPath::empty(), 2, 2, 2); // better path, dead next hop
        let cands = vec![a, b];
        assert_eq!(best_path(&cands, &DecisionConfig::default(), &igp), Some(0));
        let dead = |_: NextHop| -> Option<u32> { None };
        assert_eq!(best_path(&cands, &DecisionConfig::default(), &dead), None);
    }

    #[test]
    fn empty_candidates() {
        assert_eq!(best_path(&[], &DecisionConfig::default(), &flat_igp), None);
        assert!(best_as_level(&[], &DecisionConfig::default()).is_empty());
    }

    #[test]
    fn local_route_never_med_eliminated() {
        let local = Candidate {
            attrs: Arc::new(PathAttributes::local(NextHop(1)).with_med(1000)),
            source: RouteSource::Ebgp {
                peer_as: Asn(1),
                peer_addr: 1,
            },
            neighbor_id: 1,
        };
        let e = {
            let mut c = ebgp(AsPath::empty(), 2, 1, 2);
            Arc::make_mut(&mut c.attrs).med = Some(Med(0));
            c
        };
        // Both have empty AS paths... but the local route has no first
        // AS, so no MED group; both survive AS-level.
        let surv = best_as_level(&[local, e], &DecisionConfig::default());
        assert_eq!(surv.len(), 2);
    }

    #[test]
    fn best_as_level_ignores_igp_and_ebgp_pref() {
        // Paper §2.1: the best AS-level set is independent of who
        // computes it — no IGP, no eBGP-vs-iBGP.
        let a = ibgp(AsPath::sequence([Asn(1)]), 1000, 1);
        let b = ebgp(AsPath::sequence([Asn(2)]), 1, 2, 1);
        let surv = best_as_level(&[a, b], &DecisionConfig::default());
        assert_eq!(surv.len(), 2);
    }

    #[test]
    fn med_elimination_can_leave_multiple_per_group() {
        // Two routes from AS1 with equal MED both survive.
        let mk = |med, addr| {
            let mut c = ebgp(AsPath::sequence([Asn(1)]), addr, 1, addr);
            Arc::make_mut(&mut c.attrs).med = Some(Med(med));
            c
        };
        let cands = vec![mk(5, 1), mk(5, 2), mk(9, 3)];
        let surv = best_as_level(&cands, &DecisionConfig::default());
        assert_eq!(surv, vec![0, 1]);
    }
}
