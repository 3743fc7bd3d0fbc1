//! Routes: path attributes plus provenance.

use crate::asn::{AsPath, Asn};
use crate::attrs::{
    ClusterId, Community, ExtCommunity, LocalPref, Med, NextHop, Origin, OriginatorId,
};
use std::fmt;

/// A router identity — the 32-bit BGP Identifier from the OPEN message.
/// In this reproduction a router's ID doubles as its loopback address,
/// so `RouterId` values also appear as [`NextHop`]s and peer addresses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouterId(pub u32);

impl fmt::Debug for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An add-paths path identifier (draft-ietf-idr-add-paths, now RFC 7911):
/// disambiguates multiple routes for the same prefix on one session.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PathId(pub u32);

/// The set of path attributes attached to a route. Only the attributes
/// the paper's protocols manipulate are modelled.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PathAttributes {
    /// ORIGIN (mandatory).
    pub origin: Origin,
    /// AS_PATH (mandatory; empty for locally-originated routes).
    pub as_path: AsPath,
    /// NEXT_HOP (mandatory).
    pub next_hop: NextHop,
    /// MULTI_EXIT_DISC (optional non-transitive).
    pub med: Option<Med>,
    /// LOCAL_PREF (present on iBGP sessions).
    pub local_pref: Option<LocalPref>,
    /// Standard communities.
    pub communities: Vec<Community>,
    /// Extended communities (carries the ABRR reflected marker).
    pub ext_communities: Vec<ExtCommunity>,
    /// ORIGINATOR_ID (set by route reflectors, RFC 4456).
    pub originator_id: Option<OriginatorId>,
    /// CLUSTER_LIST (prepended to by route reflectors, RFC 4456).
    pub cluster_list: Vec<ClusterId>,
}

impl PathAttributes {
    /// Attributes for a locally-originated route with sensible defaults.
    pub fn local(next_hop: NextHop) -> Self {
        PathAttributes {
            origin: Origin::Igp,
            as_path: AsPath::empty(),
            next_hop,
            med: None,
            local_pref: Some(LocalPref::DEFAULT),
            communities: Vec::new(),
            ext_communities: Vec::new(),
            originator_id: None,
            cluster_list: Vec::new(),
        }
    }

    /// Attributes for an eBGP-learned route.
    pub fn ebgp(as_path: AsPath, next_hop: NextHop) -> Self {
        PathAttributes {
            origin: Origin::Igp,
            as_path,
            next_hop,
            med: None,
            local_pref: None,
            communities: Vec::new(),
            ext_communities: Vec::new(),
            originator_id: None,
            cluster_list: Vec::new(),
        }
    }

    /// Effective LOCAL_PREF for the decision process.
    pub fn effective_local_pref(&self) -> LocalPref {
        self.local_pref.unwrap_or(LocalPref::DEFAULT)
    }

    /// Effective MED: a missing MED is treated as the lowest (0),
    /// the common vendor default.
    pub fn effective_med(&self) -> Med {
        self.med.unwrap_or(Med(0))
    }

    /// Whether the ABRR reflected marker is present (paper §2.3.2).
    pub fn is_abrr_reflected(&self) -> bool {
        self.ext_communities.iter().any(|c| c.is_abrr_reflected())
    }

    /// Returns a copy with the ABRR reflected marker added (idempotent).
    pub fn with_abrr_reflected(&self) -> PathAttributes {
        let mut out = self.clone();
        if !out.is_abrr_reflected() {
            out.ext_communities.push(ExtCommunity::ABRR_REFLECTED);
        }
        out
    }

    /// Builder-style MED setter.
    pub fn with_med(mut self, med: u32) -> Self {
        self.med = Some(Med(med));
        self
    }

    /// Builder-style LOCAL_PREF setter.
    pub fn with_local_pref(mut self, lp: u32) -> Self {
        self.local_pref = Some(LocalPref(lp));
        self
    }
}

impl fmt::Debug for PathAttributes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?} nh={:?} lp={:?} med={:?}",
            self.as_path,
            self.next_hop,
            self.local_pref.map(|l| l.0),
            self.med.map(|m| m.0),
        )?;
        if let Some(oid) = self.originator_id {
            write!(f, " orig={}", oid.0)?;
        }
        if !self.cluster_list.is_empty() {
            write!(
                f,
                " clist={:?}",
                self.cluster_list.iter().map(|c| c.0).collect::<Vec<_>>()
            )?;
        }
        if self.is_abrr_reflected() {
            write!(f, " reflected")?;
        }
        write!(f, "]")
    }
}

/// Where a route was learned from. This is receiver-side provenance used
/// by the decision process (step 5: eBGP over iBGP; step 8: lowest peer
/// address) and by the advertisement rules in paper Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RouteSource {
    /// Learned over an eBGP session from `peer_as` at `peer_addr`.
    Ebgp {
        /// The neighbouring AS.
        peer_as: Asn,
        /// The eBGP peer's address.
        peer_addr: u32,
    },
    /// Learned over an iBGP session from `peer` (an ARR, TRR, or
    /// full-mesh neighbour).
    Ibgp {
        /// The iBGP peer the route arrived from.
        peer: RouterId,
    },
}

impl RouteSource {
    /// True when the route is eBGP-learned — what the paper calls an
    /// "other-learned" route (§2.2); only such routes may be advertised
    /// into iBGP.
    pub fn is_other_learned(&self) -> bool {
        !matches!(self, RouteSource::Ibgp { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_attrs_have_default_local_pref() {
        let a = PathAttributes::local(NextHop(1));
        assert_eq!(a.effective_local_pref(), LocalPref::DEFAULT);
        assert!(a.as_path.is_empty());
    }

    #[test]
    fn ebgp_attrs_have_no_local_pref() {
        let a = PathAttributes::ebgp(AsPath::sequence([Asn(1)]), NextHop(2));
        assert!(a.local_pref.is_none());
        assert_eq!(a.effective_local_pref(), LocalPref::DEFAULT);
    }

    #[test]
    fn effective_med_defaults_to_zero() {
        let a = PathAttributes::ebgp(AsPath::sequence([Asn(1)]), NextHop(2));
        assert_eq!(a.effective_med(), Med(0));
        assert_eq!(a.with_med(7).effective_med(), Med(7));
    }

    #[test]
    fn reflected_marker_is_idempotent() {
        let a = PathAttributes::local(NextHop(1));
        assert!(!a.is_abrr_reflected());
        let b = a.with_abrr_reflected();
        assert!(b.is_abrr_reflected());
        let c = b.with_abrr_reflected();
        assert_eq!(b, c);
        assert_eq!(c.ext_communities.len(), 1);
    }

    #[test]
    fn other_learned_classification() {
        assert!(RouteSource::Ebgp {
            peer_as: Asn(1),
            peer_addr: 9
        }
        .is_other_learned());
        assert!(!RouteSource::Ibgp { peer: RouterId(3) }.is_other_learned());
    }
}
