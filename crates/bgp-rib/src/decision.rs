//! The BGP best-path decision process (RFC 4271 §9.1.2.2; paper Table 2).

use bgp_types::{Asn, NextHop, PathAttributes, RouteSource, RouterId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// MED comparison scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MedMode {
    /// RFC 4271 default: MEDs are comparable only between routes learned
    /// from the same neighbouring AS.
    SameNeighborAs,
    /// The `always-compare-med` vendor knob: compare MEDs globally.
    AlwaysCompare,
}

/// Decision-process configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Provenance: eBGP / iBGP / local (drives steps 5 and 8).
    pub source: RouteSource,
    /// BGP Identifier of the advertising speaker, used in step 7 when no
    /// ORIGINATOR_ID is present. For a local route, the router's own id.
    pub neighbor_id: u32,
}

impl Candidate {
    /// A route learned over iBGP from `peer`.
    pub fn ibgp(peer: RouterId, attrs: &Arc<PathAttributes>) -> Candidate {
        Candidate {
            attrs: attrs.clone(),
            source: RouteSource::Ibgp { peer },
            neighbor_id: peer.0,
        }
    }

    /// The neighbouring AS for MED grouping: the leftmost AS of AS_PATH.
    /// `None` for locally-originated routes (empty path), which are
    /// never MED-compared against anything.
    pub fn med_group(&self) -> Option<Asn> {
        self.attrs.as_path.first_as()
    }

    /// Effective router id for step 7: ORIGINATOR_ID if present
    /// (RFC 4456 §9), else the advertising neighbor's BGP Identifier.
    pub fn effective_router_id(&self) -> u32 {
        self.attrs
            .originator_id
            .map(|o| o.0)
            .unwrap_or(self.neighbor_id)
    }

    /// Peer address for step 8. Local routes use the router's own id
    /// (they are in practice selected long before this step).
    pub fn peer_addr(&self) -> u32 {
        match self.source {
            RouteSource::Ebgp { peer_addr, .. } => peer_addr,
            RouteSource::Ibgp { peer } => peer.0,
            RouteSource::Local => self.neighbor_id,
        }
    }

    /// Whether step 5 treats this as eBGP-learned. Locally-originated
    /// routes rank with eBGP (they never lose step 5 to an iBGP route).
    pub fn ranks_as_ebgp(&self) -> bool {
        self.source.is_other_learned()
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

/// How many candidates' keys fit on the stack; a longer set spills to
/// one heap buffer and runs the same elimination there.
const INLINE_KEYS: usize = 32;

/// Everything the decision process reads of one candidate, extracted
/// once so the elimination compares plain integers side by side
/// instead of chasing an `Arc<PathAttributes>` per step.
#[derive(Clone, Copy, Default)]
struct Key {
    local_pref: u32,
    path_len: usize,
    /// ORIGIN's wire code, which orders as the decision does.
    origin: u8,
    med: u32,
    /// The neighbouring AS whose MEDs this one is comparable with.
    med_group: Option<Asn>,
    /// Step 4's verdict within `med_group`, once its minimum is known.
    med_keep: Option<bool>,
    ebgp: bool,
    igp_metric: u32,
    cluster_len: usize,
    router_id: u32,
    peer_addr: u32,
    /// Position in the caller's slice.
    index: usize,
}

/// Extracts the keys of every candidate with a reachable next hop (RFC
/// 4271 §9.1.2: the rest never enter the decision), in input order,
/// asking `igp` once per candidate, and hands them to `decide`.
fn with_keys<R>(
    cands: &[Candidate],
    igp: &impl IgpMetric,
    decide: impl FnOnce(&mut [Key]) -> R,
) -> R {
    let mut inline = [Key::default(); INLINE_KEYS];
    let mut spill = Vec::new();
    let keys = if cands.len() <= INLINE_KEYS {
        &mut inline[..]
    } else {
        spill.resize(cands.len(), Key::default());
        &mut spill[..]
    };
    let mut n = 0;
    for (index, c) in cands.iter().enumerate() {
        let Some(igp_metric) = igp.metric(c.attrs.next_hop) else {
            continue;
        };
        keys[n] = Key {
            local_pref: c.attrs.effective_local_pref().0,
            path_len: c.attrs.as_path.path_len(),
            origin: c.attrs.origin.code(),
            med: c.attrs.effective_med().0,
            med_group: c.med_group(),
            med_keep: None,
            ebgp: c.ranks_as_ebgp(),
            igp_metric,
            cluster_len: c.attrs.cluster_list.len(),
            router_id: c.effective_router_id(),
            peer_addr: c.peer_addr(),
            index,
        };
        n += 1;
    }
    decide(&mut keys[..n])
}

/// Keeps the keys `keep` accepts at the front of `keys`, in order, and
/// returns that front.
fn retain(keys: &mut [Key], keep: impl Fn(&Key) -> bool) -> &mut [Key] {
    let mut kept = 0;
    for i in 0..keys.len() {
        if keep(&keys[i]) {
            keys[kept] = keys[i];
            kept += 1;
        }
    }
    &mut keys[..kept]
}

/// One elimination step: keeps the keys tying for the lowest `rank`.
fn keep_lowest<T: Ord>(keys: &mut [Key], rank: impl Fn(&Key) -> T) -> &mut [Key] {
    if keys.len() <= 1 {
        return keys;
    }
    let best = keys.iter().map(&rank).min().expect("non-empty");
    retain(keys, |k| rank(k) == best)
}

/// Decision steps 1–4 (highest LOCAL_PREF, shortest AS_PATH, lowest
/// ORIGIN, lowest MED within the configured scope) over extracted
/// keys; the survivors are the returned front of `keys`, in input order.
fn as_level_steps<'k>(keys: &'k mut [Key], cfg: &DecisionConfig) -> &'k mut [Key] {
    let keys = keep_lowest(keys, |k| std::cmp::Reverse(k.local_pref));
    let keys = keep_lowest(keys, |k| k.path_len);
    let keys = keep_lowest(keys, |k| k.origin);
    match cfg.med {
        MedMode::AlwaysCompare => keep_lowest(keys, |k| k.med),
        MedMode::SameNeighborAs => {
            // Deterministic-MED style: within each neighbour-AS group
            // only routes tying for the group's lowest MED survive
            // (local routes, which have no group, are never
            // MED-eliminated). Each group is settled the first time one
            // of its members comes up: one scan for its minimum, one to
            // mark its members — two passes per distinct group, and no
            // map to hold the minima.
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

/// Computes the *best AS-level routes*: the survivors of decision steps
/// 1–4 (paper §2.1, Table 2). Returns indices into `cands`, in input
/// order. This is the route set an ARR advertises to every client.
pub fn best_as_level(cands: &[Candidate], cfg: &DecisionConfig) -> Vec<usize> {
    // Steps 1–4 never look at the IGP: every next hop counts as reachable.
    let everywhere = |_: NextHop| Some(0);
    with_keys(cands, &everywhere, |keys| {
        let survivors = as_level_steps(keys, cfg);
        survivors.iter().map(|k| k.index).collect()
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
    with_keys(cands, igp, |keys| {
        let keys = as_level_steps(keys, cfg);
        // Step 5: eBGP-learned over iBGP-learned.
        let keys = keep_lowest(keys, |k| !k.ebgp);
        // Step 6: lowest IGP metric to next hop.
        let mut keys = keep_lowest(keys, |k| k.igp_metric);
        // Step 6.5 (RFC 4456 §9): shorter CLUSTER_LIST.
        if cfg.use_cluster_list_len {
            keys = keep_lowest(keys, |k| k.cluster_len);
        }
        // Step 7: lowest router id (ORIGINATOR_ID substitutes); step 8:
        // lowest peer address; the earliest candidate breaks a full tie.
        let best = keys.iter().min_by_key(|k| (k.router_id, k.peer_addr));
        best.map(|k| k.index)
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
        Arc::make_mut(&mut a.attrs).cluster_list =
            vec![bgp_types::ClusterId(1), bgp_types::ClusterId(2)];
        Arc::make_mut(&mut a.attrs).originator_id = Some(bgp_types::OriginatorId(1));
        let mut b = ibgp(AsPath::sequence([Asn(2)]), 5, 9);
        Arc::make_mut(&mut b.attrs).cluster_list = vec![bgp_types::ClusterId(1)];
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
            source: RouteSource::Local,
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
