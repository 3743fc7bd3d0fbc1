//! Scalar path-attribute value types.

use std::fmt;

/// The ORIGIN attribute (RFC 4271 §4.3). The ordering used by the
/// decision process is IGP < EGP < Incomplete ("lowest origin type wins",
/// decision step 3 in paper Table 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Origin {
    /// Route originated by an IGP (`0`).
    Igp,
    /// Route originated by EGP (`1`).
    Egp,
    /// Origin unknown (`2`).
    Incomplete,
}

impl Origin {
    /// Wire value.
    pub fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    /// Parses the wire value.
    pub fn from_code(c: u8) -> Option<Origin> {
        match c {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

/// The MULTI_EXIT_DISC attribute. Lower is preferred; only comparable
/// between routes learned from the same neighbouring AS unless
/// "always-compare-med" is configured.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Med(pub u32);

/// The LOCAL_PREF attribute. Higher is preferred. iBGP-only.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LocalPref(pub u32);

impl LocalPref {
    /// The conventional default used when a route carries no LOCAL_PREF.
    pub const DEFAULT: LocalPref = LocalPref(100);
}

/// The BGP NEXT_HOP attribute — an IPv4 address identifying the exit
/// point. In this reproduction next hops name border routers, and IGP
/// metrics to them drive decision step 6.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NextHop(pub u32);

impl fmt::Debug for NextHop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl fmt::Display for NextHop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A standard 32-bit community value (RFC 1997).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Community(pub u32);

impl Community {
    /// Builds a community from the conventional `asn:value` notation.
    pub fn new(asn: u16, value: u16) -> Self {
        Community(((asn as u32) << 16) | value as u32)
    }
}

impl fmt::Debug for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.0 >> 16, self.0 & 0xFFFF)
    }
}

/// An 8-byte extended community (RFC 4360).
///
/// ABRR uses a single experimental extended community as its loop-
/// prevention marker: paper §2.3.2 observes that the Cluster List /
/// Originator ID mechanisms are overkill for ABRR, and "all that is
/// needed to break the loop is a single bit indicating that the update
/// has been reflected by an ARR. In our implementation, we use this
/// approach implemented as an extended community attribute."
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExtCommunity(pub [u8; 8]);

impl ExtCommunity {
    /// The ABRR "reflected by an ARR" marker (experimental type 0x80,
    /// subtype 0xAB, payload "ABRR" + reserved).
    pub const ABRR_REFLECTED: ExtCommunity =
        ExtCommunity([0x80, 0xAB, b'A', b'B', b'R', b'R', 0x00, 0x01]);

    /// Whether this is the ABRR reflected marker.
    pub fn is_abrr_reflected(&self) -> bool {
        *self == Self::ABRR_REFLECTED
    }
}

impl fmt::Debug for ExtCommunity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_abrr_reflected() {
            write!(f, "abrr-reflected")
        } else {
            write!(
                f,
                "ext:{:02x}{:02x}:{:02x}{:02x}{:02x}{:02x}{:02x}{:02x}",
                self.0[0],
                self.0[1],
                self.0[2],
                self.0[3],
                self.0[4],
                self.0[5],
                self.0[6],
                self.0[7]
            )
        }
    }
}

/// The ORIGINATOR_ID attribute (RFC 4456 §8): router ID of the router
/// that injected the route into the AS, set by the first reflector.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct OriginatorId(pub u32);

/// A cluster ID as carried in the CLUSTER_LIST attribute (RFC 4456 §8).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ClusterId(pub u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_ordering_matches_rfc() {
        assert!(Origin::Igp < Origin::Egp);
        assert!(Origin::Egp < Origin::Incomplete);
    }

    #[test]
    fn origin_codes_roundtrip() {
        for o in [Origin::Igp, Origin::Egp, Origin::Incomplete] {
            assert_eq!(Origin::from_code(o.code()), Some(o));
        }
        assert_eq!(Origin::from_code(3), None);
    }

    #[test]
    fn community_notation() {
        let c = Community::new(7018, 300);
        assert_eq!(format!("{c:?}"), "7018:300");
        assert_eq!(c.0, (7018u32 << 16) | 300);
    }

    #[test]
    fn abrr_reflected_marker() {
        assert!(ExtCommunity::ABRR_REFLECTED.is_abrr_reflected());
        assert!(!ExtCommunity([0; 8]).is_abrr_reflected());
        assert_eq!(
            format!("{:?}", ExtCommunity::ABRR_REFLECTED),
            "abrr-reflected"
        );
    }

    #[test]
    fn next_hop_display() {
        assert_eq!(NextHop(0x0A000001).to_string(), "10.0.0.1");
    }
}
