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
use bgp_wire::{
    AddPathMode, CodecConfig, Message, MessageType, Nlri, OpenMessage, UpdateView, WireError,
};
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
/// as that accounting, which sizes the buffer; an encoder that writes
/// another length is a contract fault.
pub fn encode_frame(msg: &BgpMsg) -> Result<WireFrame, WireFault> {
    let cfg = session_codec();
    let len = msg.wire_bytes(cfg.add_paths);
    let mut out = Vec::with_capacity(len);
    for u in msg.updates(cfg.add_paths) {
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

/// Decodes a wire frame with a decoder of its own: [`Decoder::decode`]
/// for a caller that keeps none.
pub fn decode_frame(frame: &WireFrame) -> Result<BgpMsg, WireFault> {
    Decoder::default().decode(frame)
}

/// A receiver's byte ingress: the buffers it parses every burst into,
/// kept across bursts so that a parse allocates only what it returns.
#[derive(Debug, Default)]
pub struct Decoder {
    /// The attribute parser's buffers.
    attrs: bgp_wire::attr::Scratch,
    /// The UPDATE's announced routes, read before its attributes.
    nlri: Vec<Nlri>,
    /// The paths read so far, before they move into the returned set.
    paths: PathSet,
    /// A registered set re-encoded, to compare with a received block.
    reencoded: Vec<u8>,
    /// The set every decoded withdrawal shares.
    empty: Arc<PathSet>,
}

impl Decoder {
    /// Decodes a wire frame back into a logical update, parsing each
    /// UPDATE in place. An announcement's attribute block that encodes
    /// a live set byte for byte is that set, found by the block's hash
    /// without a parse ([`bgp_types::intern::find_encoded`]); any other
    /// block is parsed and its set interned from its view
    /// ([`bgp_types::intern_view`]), so byte-mode runs
    /// share attribute storage exactly like struct-mode runs and a set
    /// already live costs no allocation. The path set is sorted by path
    /// id (canonical form — see module docs) and built at its final
    /// size: a decode allocates the set and its `Arc`, plus each set the
    /// interner did not hold; a withdrawal allocates nothing.
    pub fn decode(&mut self, frame: &WireFrame) -> Result<BgpMsg, WireFault> {
        self.decode_in(frame, true)
    }

    /// [`Decoder::decode`], looking attribute blocks up by their bytes
    /// when `by_bytes` holds and parsing every one when it does not
    /// (a cold index, for the tests).
    fn decode_in(&mut self, frame: &WireFrame, by_bytes: bool) -> Result<BgpMsg, WireFault> {
        let cfg = session_codec();
        let Decoder {
            attrs: scratch,
            nlri,
            paths,
            reencoded,
            empty,
        } = self;
        paths.clear();
        let mut buf: &[u8] = &frame.bytes;
        let mut withdrawn = false;
        let mut saw_update = false;
        while let Some((ty, body)) = Message::split(&mut buf)? {
            if ty != MessageType::Update {
                // Decoded all the same, so a malformed one is a codec fault.
                Message::decode_body(ty, body, cfg)?;
                return Err(WireFault::Contract("non-UPDATE message in session burst"));
            }
            let u = UpdateView::parse(body, cfg)?;
            // The blocks in the owned parser's order, so that a burst
            // fails with the error it always has: the withdrawn routes,
            // the announced ones, then the attributes.
            let (mut gone, mut first_gone) = (0, None);
            for w in u.withdrawn() {
                first_gone.get_or_insert(w?);
                gone += 1;
            }
            nlri.clear();
            for n in u.nlri() {
                nlri.push(n?);
            }
            // A block that re-encodes the set found under its hash is
            // that set's encoding, which parses without error to the
            // set: skipping its parse changes no result.
            let block = u.attr_block();
            let hash = bgp_types::intern::encoded_hash(block);
            let known = (by_bytes && first_gone.is_none())
                .then(|| {
                    bgp_types::intern::find_encoded(hash, |set| {
                        reencoded.clear();
                        bgp_wire::attr::encode_attrs(set, reencoded);
                        reencoded[..] == *block
                    })
                })
                .flatten();
            let parsed = match known {
                Some(_) => None,
                None => u.attrs(scratch)?,
            };
            saw_update = true;
            if let Some(w) = first_gone {
                if !nlri.is_empty() || gone != 1 {
                    return Err(WireFault::Contract("withdraw burst must be a single NLRI"));
                }
                if w.prefix != frame.prefix {
                    return Err(WireFault::Contract("withdrawn NLRI prefix != frame prefix"));
                }
                withdrawn = true;
                continue;
            }
            let attrs = match (known, parsed) {
                (Some(set), _) => set,
                (None, Some(a)) => bgp_types::intern_view(a, hash),
                (None, None) => {
                    return Err(WireFault::Contract("announce UPDATE without attributes"))
                }
            };
            let Some((last, rest)) = nlri.split_last() else {
                return Err(WireFault::Contract("announce UPDATE without NLRI"));
            };
            let path_id = |n: &Nlri| {
                if n.prefix != frame.prefix {
                    return Err(WireFault::Contract("announced NLRI prefix != frame prefix"));
                }
                n.path_id
                    .ok_or(WireFault::Contract("missing add-paths path id"))
            };
            for n in rest {
                paths.push((path_id(n)?, attrs.clone()));
            }
            // The last path takes the interner's reference itself.
            paths.push((path_id(last)?, attrs));
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
        let paths = if withdrawn {
            Arc::clone(empty)
        } else {
            *paths = bgp_rib::normalize(std::mem::take(paths));
            let mut set = Vec::with_capacity(paths.len());
            set.append(paths);
            Arc::new(set)
        };
        Ok(BgpMsg {
            prefix: frame.prefix,
            paths,
            plane: frame.plane,
        })
    }
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
        use bgp_types::{ClusterId, Community, ExtCommunity, LocalPref, Med, SegmentKind};
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
                let mut path = AsPath::empty();
                for (is_set, n, base) in segs {
                    let kind = if is_set {
                        SegmentKind::Set
                    } else {
                        SegmentKind::Sequence
                    };
                    path.push_segment(kind, (0..n as u32).map(|i| Asn(base.wrapping_add(i))));
                }
                let mut a = PathAttributes::ebgp(path, NextHop(nh));
                a.med = med.map(Med);
                a.local_pref = lp.map(LocalPref);
                a.originator_id = oid.map(bgp_types::OriginatorId);
                let a = a.with_lists(
                    a.as_path(),
                    comms.into_iter().map(Community),
                    ext.into_iter().map(ExtCommunity),
                    clist.into_iter().map(ClusterId),
                );
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

    proptest::proptest! {
        /// The borrowed parser is the owned one: for every set, the
        /// owned decode of its encoding is the set, the set hashes as
        /// its view does, and interning the view the parser reads
        /// returns the set's own interned `Arc`.
        #[test]
        fn the_parsed_view_is_the_owned_set(a in arb_attrs()) {
            use bgp_types::FxHasher;
            use std::hash::{Hash, Hasher};
            let mut block = Vec::new();
            bgp_wire::attr::encode_attrs(&a, &mut block);
            proptest::prop_assert_eq!(&bgp_wire::attr::decode_attrs(&block).unwrap(), &*a);
            let fx = |x: &dyn Fn(&mut FxHasher)| {
                let mut h = FxHasher::default();
                x(&mut h);
                h.finish()
            };
            proptest::prop_assert_eq!(fx(&|h| a.hash(h)), fx(&|h| a.view().hash(h)));
            let canonical = bgp_types::intern((*a).clone());
            let mut scratch = bgp_wire::attr::Scratch::default();
            let view = bgp_wire::attr::decode_attrs_view(&block, &mut scratch).unwrap();
            proptest::prop_assert_eq!(view, a.view());
            let hash = bgp_types::intern::encoded_hash(&block);
            proptest::prop_assert!(Arc::ptr_eq(&bgp_types::intern_view(view, hash), &canonical));
        }
    }

    /// What a cold index — every block parsed — makes of `frame`.
    fn cold(frame: &WireFrame) -> Result<BgpMsg, WireFault> {
        Decoder::default().decode_in(frame, false)
    }

    /// The attribute blocks of the UPDATEs a burst frames, as far as it
    /// frames.
    fn blocks(mut bytes: &[u8]) -> Vec<&[u8]> {
        let mut out = Vec::new();
        while let Ok(Some((MessageType::Update, body))) = Message::split(&mut bytes) {
            if let Ok(u) = UpdateView::parse(body, session_codec()) {
                out.push(u.attr_block());
            }
        }
        out
    }

    proptest::proptest! {
        /// Every cut and every single-byte flip of a burst decodes with
        /// a warm index exactly as with a cold one: to the same paths,
        /// each sharing the interned set, or to the same typed error.
        /// Before each decode, every block the variant frames is
        /// registered to a live set it is not the encoding of, so only
        /// the byte-for-byte check stands between a stale entry and
        /// the result.
        #[test]
        fn a_warm_index_decodes_every_cut_and_flip_as_a_cold_one(
            pool in proptest::collection::vec(arb_attrs(), 1..3),
            picks in proptest::collection::vec(proptest::any::<u32>(), 1..4),
            flip in 1u8..=255,
        ) {
            let paths: PathSet = picks
                .iter()
                .enumerate()
                .map(|(i, k)| (PathId(i as u32), pool[*k as usize % pool.len()].clone()))
                .collect();
            let sent = msg(paths);
            let frame = encode_frame(&sent).unwrap();
            let mut warm = Decoder::default();
            let whole = warm.decode(&frame).unwrap();
            proptest::prop_assert_eq!(&whole, &canonical(&sent));
            for (_, a) in whole.paths.iter() {
                proptest::prop_assert!(Arc::ptr_eq(a, &bgp_types::intern((**a).clone())));
            }
            // Something live that no variant's block encodes, unless the
            // block is that set's own encoding.
            let stale = bgp_types::intern(PathAttributes::ebgp(
                AsPath::sequence([Asn(64_512)]),
                NextHop(0x0A0B_0C0D),
            ));
            let len = frame.bytes.len();
            let variants = (0..len)
                .map(|cut| frame.bytes[..cut].to_vec())
                .chain((0..len).map(|at| {
                    let mut b = frame.bytes.to_vec();
                    b[at] ^= flip;
                    b
                }));
            for bytes in variants {
                let variant = WireFrame {
                    bytes: Arc::new(bytes),
                    ..frame.clone()
                };
                let expected = cold(&variant);
                for block in blocks(&variant.bytes) {
                    let h = bgp_types::intern::encoded_hash(block);
                    drop(bgp_types::intern_view(stale.view(), h));
                }
                let got = warm.decode(&variant);
                proptest::prop_assert_eq!(&got, &expected);
                if let (Ok(got), Ok(expected)) = (&got, &expected) {
                    for ((_, g), (_, e)) in got.paths.iter().zip(expected.paths.iter()) {
                        proptest::prop_assert!(Arc::ptr_eq(g, e));
                    }
                }
            }
        }
    }

    /// A multi-UPDATE burst cut at every point: a cut inside a message
    /// is a typed codec error, a cut between messages decodes the
    /// UPDATEs before it, and nothing panics.
    #[test]
    fn a_burst_truncated_at_every_point_is_a_typed_error() {
        let m = msg(vec![
            (PathId(1), attrs(1)),
            (PathId(2), attrs(2)),
            (PathId(3), attrs(1)),
            (PathId(4), attrs(3)),
        ]);
        let frame = encode_frame(&m).unwrap();
        let mut ends = Vec::new();
        let mut rest = &frame.bytes[..];
        while Message::split(&mut rest).unwrap().is_some() {
            ends.push(frame.bytes.len() - rest.len());
        }
        assert_eq!(ends.len(), 3, "one UPDATE per distinct set");
        let mut decoder = Decoder::default();
        for cut in 0..frame.bytes.len() {
            let cut_frame = WireFrame {
                bytes: Arc::new(frame.bytes[..cut].to_vec()),
                ..frame.clone()
            };
            match decoder.decode(&cut_frame) {
                Ok(d) => {
                    let whole = ends.iter().filter(|&&e| e <= cut).count();
                    assert!(ends.contains(&cut), "cut at {cut} decoded");
                    assert_eq!(d.paths.len(), [2, 3, 4][whole - 1], "cut at {cut}");
                }
                Err(WireFault::Codec(WireError::Truncated { .. })) => {
                    assert!(!ends.contains(&cut), "cut at {cut}");
                }
                Err(WireFault::Contract("empty session burst")) => assert_eq!(cut, 0),
                Err(e) => panic!("cut at {cut}: {e}"),
            }
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
