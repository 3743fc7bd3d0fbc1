//! iBGP messages and external (eBGP/operator) events.

use bgp_rib::PathSet;
use bgp_types::{ApId, Asn, Ipv4Prefix, PathAttributes, PathId};
use bgp_wire::{CodecConfig, Nlri, WireError};
use std::sync::Arc;

/// Which iBGP plane a message belongs to. During the §2.4 transition a
/// router runs both TBRR and ABRR concurrently — on real routers these
/// are distinct BGP sessions, so the receiver always knows which plane
/// an update arrived on. The tag models that session separation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Plane {
    /// Full-mesh iBGP.
    Mesh,
    /// The ABRR session set (client↔ARR).
    Abrr,
    /// The TBRR session set (client↔TRR, TRR↔TRR).
    Tbrr,
}

/// An iBGP update with *replace-set* semantics: `paths` is the complete
/// set of routes the sender now advertises to the receiver for
/// `prefix`; an empty set is a withdrawal.
///
/// This matches the paper's §3.4 contract ("should there be a change in
/// the set of best AS-level routes, the ARRs will convey all such
/// routes to the clients with each update") and the add-paths encoding:
/// each element carries its own path id. Single-path sessions (TBRR,
/// full-mesh) are the ≤1-element special case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BgpMsg {
    /// Destination prefix the update is about.
    pub prefix: Ipv4Prefix,
    /// The complete new path set; empty = withdraw. Shared: a fan-out
    /// hands every member that receives the same set the same `Arc`
    /// (paper §3.3: generating an update is the expensive part,
    /// transmitting it is cheap), and the byte transport keys its
    /// one-image-per-set packing on that identity
    /// (`Chassis::advertise_group`).
    pub paths: Arc<PathSet>,
    /// The session plane this update travels on.
    pub plane: Plane,
}

impl BgpMsg {
    /// A withdrawal for `prefix` on `plane`.
    pub fn withdraw(prefix: Ipv4Prefix, plane: Plane) -> Self {
        BgpMsg {
            prefix,
            paths: Arc::new(Vec::new()),
            plane,
        }
    }

    /// Size of this logical update on the wire, in bytes, for the
    /// paper's §4.2 bandwidth accounting.
    ///
    /// Paths sharing an attribute object are coalesced into one UPDATE
    /// (multiple add-paths NLRI); distinct attribute sets need separate
    /// UPDATEs, as on a real wire. A withdrawal is a single UPDATE with
    /// one withdrawn NLRI.
    pub fn wire_bytes(&self, add_paths: bool) -> usize {
        let cfg = CodecConfig { add_paths };
        self.updates(add_paths)
            .iter()
            .map(|u| u.encoded_len(cfg))
            .sum()
    }

    /// The UPDATEs this logical update becomes on the wire — the one
    /// walk both the accounting above and [`crate::wire::encode_frame`]
    /// take. A withdrawal is one UPDATE with one withdrawn NLRI (path
    /// id 0 under add-paths); an announcement is one UPDATE per
    /// distinct attribute object, in first-occurrence order.
    pub(crate) fn updates(&self, add_paths: bool) -> Vec<UpdateParts<'_>> {
        let nlri = |id: PathId| {
            if add_paths {
                Nlri::with_path_id(self.prefix, id)
            } else {
                Nlri::plain(self.prefix)
            }
        };
        if self.paths.is_empty() {
            return vec![UpdateParts {
                attrs: None,
                nlri: vec![nlri(PathId(0))],
            }];
        }
        let mut groups: Vec<UpdateParts<'_>> = Vec::new();
        for (id, attrs) in self.paths.iter() {
            match groups.iter_mut().find(|g| g.attrs == Some(attrs)) {
                Some(g) => g.nlri.push(nlri(*id)),
                None => groups.push(UpdateParts {
                    attrs: Some(attrs),
                    nlri: vec![nlri(*id)],
                }),
            }
        }
        groups
    }
}

/// One UPDATE of a [`BgpMsg`]'s wire image, still borrowing the
/// message's attributes: `attrs` is `None` for the withdrawal UPDATE,
/// whose `nlri` is then the withdrawn-routes block.
pub(crate) struct UpdateParts<'a> {
    attrs: Option<&'a Arc<PathAttributes>>,
    nlri: Vec<Nlri>,
}

impl UpdateParts<'_> {
    /// The UPDATE's (withdrawn, attributes, announced) blocks.
    fn blocks(&self) -> (&[Nlri], Option<&PathAttributes>, &[Nlri]) {
        match self.attrs {
            Some(a) => (&[], Some(a), &self.nlri),
            None => (&self.nlri, None, &[]),
        }
    }

    /// Encoded length, header included, without building the message.
    pub(crate) fn encoded_len(&self, cfg: CodecConfig) -> usize {
        let (withdrawn, attrs, nlri) = self.blocks();
        bgp_wire::HEADER_LEN + bgp_wire::update::body_len(withdrawn, attrs, nlri, cfg)
    }

    /// Appends the encoded UPDATE (header included) to `out`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>, cfg: CodecConfig) -> Result<(), WireError> {
        let (withdrawn, attrs, nlri) = self.blocks();
        bgp_wire::update::encode(out, withdrawn, attrs, nlri, cfg)
    }
}

/// An encoded iBGP update burst: the RFC 4271 byte image of one
/// [`BgpMsg`] (one UPDATE per distinct attribute set, concatenated as
/// they would appear back-to-back in the session's TCP stream).
///
/// `prefix` and `plane` ride along as session/transport metadata — the
/// plane models which BGP session the bytes arrived on (a real router
/// knows this from the TCP connection), and the prefix is the shard
/// key the engines need *before* parsing (a real sharded speaker would
/// peek the NLRI; [`crate::wire::decode_frame`] rejects a burst whose
/// NLRI is another prefix as a contract fault).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFrame {
    /// Destination prefix the burst is about (shard/delivery metadata).
    pub prefix: Ipv4Prefix,
    /// The session plane the burst travels on.
    pub plane: Plane,
    /// Concatenated encoded UPDATE messages (headers included). Shared:
    /// every member of a fan-out that is sent the same path set holds
    /// this same allocation (update-group packing); each receiver
    /// still parses it for itself.
    pub bytes: Arc<Vec<u8>>,
}

/// What a session actually carries, by [`netsim::WireMode`]:
/// in-memory structs (`Off` mode) or encoded byte bursts (`Bytes`
/// mode). The two variants never mix within one run — the
/// spec's wire mode is global.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionMsg {
    /// An in-memory replace-set (struct transport).
    Struct(BgpMsg),
    /// An encoded byte burst (byte transport).
    Wire(WireFrame),
}

impl SessionMsg {
    /// The prefix this session message is about (both transports carry
    /// it — see [`WireFrame::prefix`]).
    pub fn prefix(&self) -> &Ipv4Prefix {
        match self {
            SessionMsg::Struct(m) => &m.prefix,
            SessionMsg::Wire(f) => &f.prefix,
        }
    }
}

/// Events injected into a node from outside the simulated iBGP mesh.
#[derive(Clone, Debug)]
pub enum ExternalEvent {
    /// An eBGP announcement arrived from `peer_as` at session address
    /// `peer_addr`. The node applies next-hop-self before any iBGP
    /// propagation. LOCAL_PREF in `attrs` models ingress policy
    /// (customer > peer), applied at the border as the paper assumes
    /// ("policies are deployed at clients", §2.1).
    EbgpAnnounce {
        /// Destination prefix.
        prefix: Ipv4Prefix,
        /// Neighbouring AS.
        peer_as: Asn,
        /// eBGP session address (unique per session).
        peer_addr: u32,
        /// Received attributes.
        attrs: Arc<PathAttributes>,
    },
    /// The eBGP session `peer_addr` withdrew `prefix`.
    EbgpWithdraw {
        /// Destination prefix.
        prefix: Ipv4Prefix,
        /// eBGP session address.
        peer_addr: u32,
    },
    /// Transition (§2.4): start accepting ABRR routes for this AP
    /// (while still accepting TBRR routes for APs not yet cut over).
    CutoverAp(ApId),
    /// Operator/controller action (§2.2: the AP→ARR assignment "can be
    /// changed when needed"): the ARRs responsible for `ap` become
    /// `arrs`. Broadcast to every node at the same instant so the AS
    /// switches consistently. The new ARRs should already hold ARR
    /// sessions — ABRR wires every ARR to every node, so reassigning
    /// among existing ARRs needs no new sessions.
    ReassignAp {
        /// The reassigned address partition.
        ap: ApId,
        /// Its new ARR set.
        arrs: Vec<bgp_types::RouterId>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, NextHop, PathId};

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn attrs(seed: u32) -> Arc<PathAttributes> {
        Arc::new(PathAttributes::ebgp(
            AsPath::sequence([Asn(seed)]),
            NextHop(seed),
        ))
    }

    #[test]
    fn withdraw_roundtrip_flag() {
        let m = BgpMsg::withdraw(pfx("10.0.0.0/8"), Plane::Abrr);
        assert!(m.paths.is_empty());
        assert!(m.wire_bytes(true) >= bgp_wire::HEADER_LEN + 4);
    }

    #[test]
    fn multi_path_update_is_longer_but_sublinear_when_attrs_shared() {
        let shared = attrs(1);
        let one = BgpMsg {
            prefix: pfx("10.0.0.0/8"),
            paths: Arc::new(vec![(PathId(1), shared.clone())]),
            plane: Plane::Abrr,
        };
        let many_shared = BgpMsg {
            prefix: pfx("10.0.0.0/8"),
            paths: Arc::new((1..=10).map(|i| (PathId(i), shared.clone())).collect()),
            plane: Plane::Abrr,
        };
        let many_distinct = BgpMsg {
            prefix: pfx("10.0.0.0/8"),
            paths: Arc::new((1..=10).map(|i| (PathId(i), attrs(i))).collect()),
            plane: Plane::Abrr,
        };
        let b1 = one.wire_bytes(true);
        let bs = many_shared.wire_bytes(true);
        let bd = many_distinct.wire_bytes(true);
        assert!(b1 < bs);
        assert!(bs < bd, "shared attrs coalesce into one UPDATE");
        // Distinct attrs: ten separate UPDATEs, each with its own header.
        assert!(bd >= 10 * bgp_wire::HEADER_LEN);
    }

    #[test]
    fn plain_vs_add_paths_bytes() {
        let m = BgpMsg {
            prefix: pfx("10.0.0.0/8"),
            paths: Arc::new(vec![(PathId(1), attrs(1))]),
            plane: Plane::Abrr,
        };
        assert_eq!(m.wire_bytes(true), m.wire_bytes(false) + 4);
    }
}
