//! A reflector's rewrite of a route, stated once: one description both
//! recognises a reflection already stored and builds a new one.

use bgp_types::{
    intern, ClusterId, ExtCommunity, LocalPref, OriginatorId, Parts, PathAttributes, PathId,
};
use std::sync::Arc;

/// The reflection of `base`: every attribute as in `base`, but LOCAL_PREF
/// `local_pref`, ORIGINATOR_ID `originator`, `clusters` prepended to the
/// CLUSTER_LIST and `marker`, if any, appended to the ext communities.
/// It is filed under the originator's path id.
pub(super) struct Reflection<'a> {
    pub(super) base: &'a PathAttributes,
    pub(super) local_pref: Option<LocalPref>,
    pub(super) originator: OriginatorId,
    pub(super) clusters: &'a [u32],
    pub(super) marker: Option<ExtCommunity>,
}

impl Reflection<'_> {
    /// Whether `stored` is this reflection: the head fields compared,
    /// then its CLUSTER_LIST and ext communities split against `base`'s.
    /// `stored`'s parts are destructured, so a new attribute fails to
    /// compile here until it is compared.
    pub(super) fn matches(&self, stored: &PathAttributes) -> bool {
        let Parts {
            origin,
            as_path,
            next_hop,
            med,
            local_pref,
            communities,
            ext_communities,
            originator_id,
            cluster_list,
        } = stored.parts();
        let base = self.base;
        let ours = self.clusters;
        let theirs = base.ext_communities();
        originator_id == Some(self.originator)
            && next_hop == base.next_hop
            && origin == base.origin
            && med == base.med
            && local_pref == self.local_pref
            && cluster_list
                .split_at(ours.len())
                .is_some_and(|(head, rest)| {
                    head.iter().map(|c| c.0).eq(ours.iter().copied()) && rest == base.cluster_list()
                })
            && as_path == base.as_path()
            && communities == base.communities()
            && ext_communities
                .split_at(theirs.len())
                .is_some_and(|(head, mark)| head == theirs && mark.iter().eq(self.marker))
    }

    /// The reflection, its tail written once.
    pub(super) fn build(&self) -> PathAttributes {
        let base = self.base;
        let clusters = self.clusters.iter().map(|&c| ClusterId(c));
        let mut out = base.with_lists(
            base.as_path(),
            base.communities(),
            base.ext_communities().iter().chain(self.marker),
            clusters.chain(base.cluster_list()),
        );
        out.local_pref = self.local_pref;
        out.originator_id = Some(self.originator);
        out
    }

    /// The reflection under its path id, as the interner's `Arc`: the
    /// set under that id in `known` (what the reflector last advertised,
    /// or built earlier in the same call) if it [`Reflection::matches`],
    /// else the new set, interned. A stored reflection came from
    /// [`intern`] and stays its canonical copy while it lives, so both
    /// ways give the `Arc` `intern` would.
    pub(super) fn interned(
        &self,
        known: &[&[(PathId, Arc<PathAttributes>)]],
    ) -> (PathId, Arc<PathAttributes>) {
        let id = PathId(self.originator.0);
        let reused = known
            .iter()
            .flat_map(|set| set.iter())
            .find(|(p, stored)| *p == id && self.matches(stored));
        match reused {
            Some((_, stored)) => (id, stored.clone()),
            None => (id, intern(self.build())),
        }
    }
}
