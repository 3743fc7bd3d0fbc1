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
    /// one withdrawn NLRI. A message carries one prefix, so every
    /// announced NLRI has one length, and the image is its UPDATEs
    /// without their NLRI plus one NLRI per path: no UPDATE's NLRI group
    /// is walked.
    pub fn wire_bytes(&self, add_paths: bool) -> usize {
        let cfg = CodecConfig { add_paths };
        let nlri = Nlri::plain(self.prefix).encoded_len(add_paths);
        let heads: usize = self.updates(add_paths).map(|u| u.head_len(cfg)).sum();
        heads + self.paths.len() * nlri
    }

    /// The UPDATEs this logical update becomes on the wire — the one
    /// walk both the accounting above and [`crate::wire::encode_frame`]
    /// take. A withdrawal is one UPDATE with one withdrawn NLRI (path
    /// id 0 under add-paths); an announcement is one UPDATE per
    /// distinct attribute set, in first-occurrence order. Each UPDATE
    /// borrows the message and walks its NLRI on demand, so nothing is
    /// built.
    pub(crate) fn updates(&self, add_paths: bool) -> impl Iterator<Item = UpdateParts<'_>> {
        let withdrawal = self.paths.is_empty().then_some(UpdateParts {
            msg: self,
            add_paths,
            first: None,
        });
        let announcements = self
            .paths
            .iter()
            .enumerate()
            .filter_map(move |(i, (_, a))| {
                let seen = self.paths[..i].iter().any(|(_, b)| b == a);
                (!seen).then_some(UpdateParts {
                    msg: self,
                    add_paths,
                    first: Some(i),
                })
            });
        withdrawal.into_iter().chain(announcements)
    }
}

/// An empty NLRI block.
const NO_NLRI: [Nlri; 0] = [];

/// One UPDATE of a [`BgpMsg`]'s wire image, borrowing the message:
/// `first` is the index of the first path with the UPDATE's attribute
/// set, whose NLRI are that path and every later one with an equal
/// set; `None` is the withdrawal UPDATE.
pub(crate) struct UpdateParts<'a> {
    msg: &'a BgpMsg,
    add_paths: bool,
    first: Option<usize>,
}

impl<'a> UpdateParts<'a> {
    fn nlri(&self, id: PathId) -> Nlri {
        if self.add_paths {
            Nlri::with_path_id(self.msg.prefix, id)
        } else {
            Nlri::plain(self.msg.prefix)
        }
    }

    /// The attribute set and the NLRI announced with it.
    fn announced(&self, first: usize) -> (&'a PathAttributes, impl Iterator<Item = Nlri> + '_) {
        let (_, attrs) = &self.msg.paths[first];
        let ids = self.msg.paths[first..]
            .iter()
            .filter(move |(_, a)| a == attrs);
        (attrs, ids.map(|(id, _)| self.nlri(*id)))
    }

    /// Encoded length, header included, of all but the announced NLRI,
    /// without building the message.
    fn head_len(&self, cfg: CodecConfig) -> usize {
        let body = match self.first {
            None => bgp_wire::update::body_len([self.nlri(PathId(0))], None, NO_NLRI, cfg),
            Some(first) => {
                let (_, attrs) = &self.msg.paths[first];
                bgp_wire::update::body_len(NO_NLRI, Some(&**attrs), NO_NLRI, cfg)
            }
        };
        bgp_wire::HEADER_LEN + body
    }

    /// Appends the encoded UPDATE (header included) to `out`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>, cfg: CodecConfig) -> Result<(), WireError> {
        match self.first {
            None => bgp_wire::update::encode(out, [self.nlri(PathId(0))], None, NO_NLRI, cfg),
            Some(first) => {
                let (attrs, nlri) = self.announced(first);
                bgp_wire::update::encode(out, NO_NLRI, Some(attrs), nlri, cfg)
            }
        }
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
