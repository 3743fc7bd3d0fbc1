//! Session-boundary codec bridge: [`BgpMsg`] ⇄ RFC 4271 bytes.
//!
//! In [`netsim::WireMode::Bytes`] every iBGP update crosses this
//! module at the sending router's egress (encode) and at the receiving
//! router's ingress (decode), and the receiver acts on what it decoded.
//! The encoder checks each image's length against the §4.2 accounting
//! in [`BgpMsg::wire_bytes`]; a run in bytes mode must match the same
//! run with structs, which is the codec's end-to-end oracle.
//!
//! The encoding mirrors `BgpMsg::wire_bytes` exactly: a withdrawal is
//! one UPDATE with a single withdrawn NLRI; an announcement is one
//! UPDATE per distinct attribute object (paths sharing an
//! `Arc<PathAttributes>` coalesce into add-paths NLRI of one UPDATE),
//! in first-occurrence order. All sessions negotiate add-paths — the
//! paper's ABRR plane requires it and the baselines tolerate it.
//!
//! Decoding restores a `BgpMsg` whose path set is sorted by path id.
//! That is the *canonical* form: `bgp_rib::normalize` sorts every
//! stored path set the same way, so delivering the canonical form is
//! behaviour-identical to delivering the original (see
//! `RibInColumn::set_paths`, which every receiving role stores
//! through).

use crate::msg::{BgpMsg, WireFrame};
use bgp_rib::PathSet;
use bgp_types::RouterId;
use bgp_wire::{AddPathMode, CodecConfig, Message, OpenMessage, WireError};
use std::sync::Arc;

/// Why a frame could not be encoded, or a received frame was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFault {
    /// The codec itself failed (truncated, malformed, oversized…).
    Codec(WireError),
    /// Bytes parsed, but their meaning broke the session contract
    /// (wrong prefix, unexpected message type, withdraw mixed with
    /// announce…), or an image's length disagrees with
    /// [`BgpMsg::wire_bytes`].
    Contract(&'static str),
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireFault::Codec(e) => write!(f, "codec error: {e}"),
            WireFault::Contract(m) => write!(f, "contract violation: {m}"),
        }
    }
}

impl From<WireError> for WireFault {
    fn from(e: WireError) -> Self {
        WireFault::Codec(e)
    }
}

/// The codec config every in-mesh session runs: add-paths both ways
/// (negotiated via the OPEN oracle in [`open_roundtrip`]).
pub fn session_codec() -> CodecConfig {
    CodecConfig::with_add_paths()
}

/// Encodes one logical update into its wire image: the concatenated
/// RFC 4271 UPDATE burst described in [`WireFrame`] — the UPDATEs
/// [`BgpMsg::wire_bytes`] measures, encoded. The image must be as long
/// as that accounting (the sum of the UPDATEs' `encoded_len`, which
/// sizes the buffer); an encoder that writes another length is a
/// contract fault.
pub fn encode_frame(msg: &BgpMsg) -> Result<WireFrame, WireFault> {
    let cfg = session_codec();
    let updates = msg.updates(cfg.add_paths);
    let len = updates.iter().map(|u| u.encoded_len(cfg)).sum();
    let mut out = Vec::with_capacity(len);
    for u in &updates {
        u.encode(&mut out, cfg)?;
    }
    if out.len() != len {
        return Err(WireFault::Contract(
            "encoded length != wire_bytes accounting",
        ));
    }
    Ok(WireFrame {
        prefix: msg.prefix,
        plane: msg.plane,
        bytes: Arc::new(out),
    })
}

/// Decodes a wire frame back into a logical update. Attributes are
/// re-interned ([`bgp_types::intern()`]) so byte-mode runs share
/// attribute storage exactly like struct-mode runs, and the resulting
/// path set is sorted by path id (canonical form — see module docs).
pub fn decode_frame(frame: &WireFrame) -> Result<BgpMsg, WireFault> {
    let cfg = session_codec();
    let mut buf: &[u8] = &frame.bytes;
    let mut paths: PathSet = Vec::new();
    let mut withdrawn = false;
    let mut saw_update = false;
    while let Some(m) = Message::decode(&mut buf, cfg)? {
        let u = match m {
            Message::Update(u) => u,
            _ => return Err(WireFault::Contract("non-UPDATE message in session burst")),
        };
        saw_update = true;
        if !u.withdrawn.is_empty() {
            if !u.nlri.is_empty() || u.withdrawn.len() != 1 {
                return Err(WireFault::Contract("withdraw burst must be a single NLRI"));
            }
            if u.withdrawn[0].prefix != frame.prefix {
                return Err(WireFault::Contract("withdrawn NLRI prefix != frame prefix"));
            }
            withdrawn = true;
            continue;
        }
        let attrs = match u.attrs {
            Some(a) => bgp_types::intern(a),
            None => return Err(WireFault::Contract("announce UPDATE without attributes")),
        };
        if u.nlri.is_empty() {
            return Err(WireFault::Contract("announce UPDATE without NLRI"));
        }
        for n in u.nlri {
            if n.prefix != frame.prefix {
                return Err(WireFault::Contract("announced NLRI prefix != frame prefix"));
            }
            let id = n
                .path_id
                .ok_or(WireFault::Contract("missing add-paths path id"))?;
            paths.push((id, attrs.clone()));
        }
    }
    if !buf.is_empty() {
        return Err(WireFault::Codec(WireError::Truncated {
            what: "trailing partial message",
            needed: bgp_wire::HEADER_LEN,
            have: buf.len(),
        }));
    }
    if !saw_update {
        return Err(WireFault::Contract("empty session burst"));
    }
    if withdrawn && !paths.is_empty() {
        return Err(WireFault::Contract("withdraw mixed with announce in burst"));
    }
    Ok(BgpMsg {
        prefix: frame.prefix,
        paths: Arc::new(bgp_rib::normalize(paths)),
        plane: frame.plane,
    })
}

/// OPEN-message oracle, run once per session endpoint when wire mode
/// is on: build the OPEN this router would send (4-octet AS + add-paths
/// both directions), round-trip it through the codec, and check the
/// negotiated capabilities survive. Models the session-establishment
/// handshake the UPDATE path depends on.
pub fn open_roundtrip(asn: u32, router: RouterId) -> Result<(), WireFault> {
    let open = OpenMessage::new(asn, 180, router.0, Some(AddPathMode::Both));
    let msg = Message::Open(open.clone());
    let mut bytes = Vec::new();
    msg.encode(&mut bytes, session_codec())?;
    let mut buf = &bytes[..];
    let back = Message::decode(&mut buf, session_codec())?
        .ok_or(WireFault::Contract("OPEN did not frame"))?;
    if !buf.is_empty() {
        return Err(WireFault::Contract("trailing bytes after OPEN"));
    }
    let decoded = match back {
        Message::Open(o) => o,
        _ => return Err(WireFault::Contract("OPEN decoded as non-OPEN")),
    };
    if decoded != open {
        return Err(WireFault::Contract("OPEN round-trip differs"));
    }
    if decoded.add_paths_mode() != Some(AddPathMode::Both) {
        return Err(WireFault::Contract("add-paths capability lost in OPEN"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Plane;
    use bgp_types::{AsPath, Asn, Ipv4Prefix, NextHop, PathAttributes, PathId};

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn attrs(seed: u32) -> Arc<PathAttributes> {
        bgp_types::intern(PathAttributes::ebgp(
            AsPath::sequence([Asn(seed)]),
            NextHop(seed),
        ))
    }

    /// The canonical (path-id-sorted, deduplicated) form of a message —
    /// what [`decode_frame`] reconstructs and what receivers store.
    fn canonical(msg: &BgpMsg) -> BgpMsg {
        BgpMsg {
            prefix: msg.prefix,
            paths: Arc::new(bgp_rib::normalize((*msg.paths).clone())),
            plane: msg.plane,
        }
    }

    fn msg(paths: PathSet) -> BgpMsg {
        BgpMsg {
            prefix: pfx("10.0.0.0/8"),
            paths: Arc::new(paths),
            plane: Plane::Abrr,
        }
    }

    #[test]
    fn announce_roundtrip_canonical() {
        let shared = attrs(7);
        // Deliberately out of path-id order and interleaved attrs.
        let m = msg(vec![
            (PathId(3), shared.clone()),
            (PathId(1), attrs(9)),
            (PathId(2), shared),
        ]);
        let frame = encode_frame(&m).unwrap();
        assert_eq!(frame.bytes.len(), m.wire_bytes(true));
        let d = decode_frame(&frame).unwrap();
        assert_eq!(d, canonical(&m));
        let ids: Vec<u32> = d.paths.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 2, 3], "decode sorts by path id");
    }

    #[test]
    fn withdraw_roundtrip() {
        let m = BgpMsg::withdraw(pfx("10.0.0.0/8"), Plane::Tbrr);
        let frame = encode_frame(&m).unwrap();
        let d = decode_frame(&frame).unwrap();
        assert!(d.paths.is_empty());
        assert_eq!(d.plane, Plane::Tbrr);
    }

    /// Every message shape decodes to the canonical form of what was
    /// sent, at the length the §4.2 accounting states: one path, shared
    /// and distinct attributes out of path-id order, a 16-path set, and
    /// the withdrawal.
    #[test]
    fn every_shape_round_trips_to_canonical() {
        let shared = attrs(1);
        for paths in [
            vec![(PathId(1), shared.clone())],
            vec![(PathId(2), shared.clone()), (PathId(1), attrs(2))],
            (1..=16).map(|i| (PathId(i), attrs(i % 3))).collect(),
            Vec::new(),
        ] {
            let m = msg(paths);
            let frame = encode_frame(&m).unwrap();
            assert_eq!(frame.bytes.len(), m.wire_bytes(true));
            assert_eq!(decode_frame(&frame).unwrap(), canonical(&m));
        }
    }

    #[test]
    fn wrong_prefix_rejected() {
        let m = msg(vec![(PathId(1), attrs(1))]);
        let mut frame = encode_frame(&m).unwrap();
        frame.prefix = pfx("11.0.0.0/8");
        assert!(matches!(decode_frame(&frame), Err(WireFault::Contract(_))));
    }

    #[test]
    fn truncated_frame_rejected() {
        let m = msg(vec![(PathId(1), attrs(1))]);
        let frame = encode_frame(&m).unwrap();
        let cut = WireFrame {
            prefix: frame.prefix,
            plane: frame.plane,
            bytes: Arc::new(frame.bytes[..frame.bytes.len() - 3].to_vec()),
        };
        assert!(matches!(decode_frame(&cut), Err(WireFault::Codec(_))));
    }

    #[test]
    fn garbage_frame_rejected_not_panicking() {
        let junk = WireFrame {
            prefix: pfx("10.0.0.0/8"),
            plane: Plane::Mesh,
            bytes: Arc::new(vec![0xAB; 37]),
        };
        assert!(decode_frame(&junk).is_err());
    }

    #[test]
    fn keepalive_in_burst_is_contract_violation() {
        let mut buf = Vec::new();
        Message::Keepalive
            .encode(&mut buf, session_codec())
            .unwrap();
        let f = WireFrame {
            prefix: pfx("10.0.0.0/8"),
            plane: Plane::Mesh,
            bytes: Arc::new(buf),
        };
        assert!(matches!(decode_frame(&f), Err(WireFault::Contract(_))));
    }

    #[test]
    fn open_oracle_passes_for_2_and_4_octet_asn() {
        open_roundtrip(65000, RouterId(4)).unwrap();
        open_roundtrip(4_200_000_000, RouterId(9)).unwrap();
    }

    /// Attribute sets across the encoder's size boundaries (empty
    /// segments and segments past 255 ASes, `EXT_LEN` on and off, every
    /// optional attribute present or absent), small enough that an
    /// UPDATE still fits.
    fn arb_attrs() -> impl proptest::Strategy<Value = Arc<PathAttributes>> {
        use bgp_types::{AsSegment, ClusterId, Community, ExtCommunity, LocalPref, Med};
        use proptest::prelude::*;
        (
            prop::collection::vec(
                (
                    any::<bool>(),
                    prop::sample::select(vec![0usize, 1, 5, 63, 64, 255, 256, 300]),
                    any::<u32>(),
                ),
                0..3,
            ),
            any::<u32>(),
            prop::option::of(any::<u32>()),
            prop::option::of(any::<u32>()),
            prop::option::of(any::<u32>()),
            prop::collection::vec(any::<u32>(), 0..70),
            prop::collection::vec(any::<u32>(), 0..70),
            prop::collection::vec(any::<[u8; 8]>(), 0..40),
        )
            .prop_map(|(segs, nh, med, lp, oid, comms, clist, ext)| {
                let segments = segs
                    .into_iter()
                    .map(|(is_set, n, base)| {
                        let asns = (0..n as u32).map(|i| Asn(base.wrapping_add(i))).collect();
                        if is_set {
                            AsSegment::Set(asns)
                        } else {
                            AsSegment::Sequence(asns)
                        }
                    })
                    .collect();
                let mut a = PathAttributes::ebgp(AsPath { segments }, NextHop(nh));
                a.med = med.map(Med);
                a.local_pref = lp.map(LocalPref);
                a.originator_id = oid.map(bgp_types::OriginatorId);
                a.communities = comms.into_iter().map(Community).collect();
                a.cluster_list = clist.into_iter().map(ClusterId).collect();
                a.ext_communities = ext.into_iter().map(ExtCommunity).collect();
                Arc::new(a)
            })
    }

    proptest::proptest! {
        /// The §4.2 accounting is arithmetic; it must equal the length
        /// of the image the encoder produces, for any path set —
        /// shared and distinct attribute objects, and the withdrawal.
        #[test]
        fn wire_bytes_is_the_encoded_length(
            pool in proptest::collection::vec(arb_attrs(), 1..4),
            picks in proptest::collection::vec(proptest::any::<u32>(), 0..8),
        ) {
            let paths = picks
                .iter()
                .enumerate()
                .map(|(i, k)| (PathId(i as u32), pool[*k as usize % pool.len()].clone()))
                .collect();
            let m = msg(paths);
            let frame = encode_frame(&m).unwrap();
            assert_eq!(m.wire_bytes(true), frame.bytes.len());
            assert_eq!(decode_frame(&frame).unwrap().paths.len(), m.paths.len());
        }
    }

    #[test]
    fn interned_attrs_are_shared_after_decode() {
        let shared = attrs(5);
        let m = msg(vec![(PathId(1), shared.clone()), (PathId(2), shared)]);
        let d = decode_frame(&encode_frame(&m).unwrap()).unwrap();
        assert!(Arc::ptr_eq(&d.paths[0].1, &d.paths[1].1));
    }
}
