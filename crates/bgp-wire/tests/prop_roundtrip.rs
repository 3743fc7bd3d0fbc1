//! Property tests: every structured message round-trips through the
//! wire codec byte-exactly.

use bgp_types::{
    AsPath, Asn, ClusterId, Community, ExtCommunity, Ipv4Prefix, LocalPref, Med, NextHop, Origin,
    OriginatorId, PathAttributes, PathId, SegmentKind,
};
use bgp_wire::update::body_len;
use bgp_wire::{CodecConfig, Message, Nlri, UpdateMessage};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Ipv4Prefix::new(a, l))
}

/// The path of `segments`, each an AS_SET when its flag is set.
fn path_of(segments: impl IntoIterator<Item = (bool, Vec<Asn>)>) -> AsPath {
    let mut path = AsPath::empty();
    for (is_set, asns) in segments {
        let kind = if is_set {
            SegmentKind::Set
        } else {
            SegmentKind::Sequence
        };
        path.push_segment(kind, asns);
    }
    path
}

fn arb_as_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(
        (any::<bool>(), prop::collection::vec(1u32..1_000_000, 1..8)),
        0..4,
    )
    .prop_map(|segs| {
        path_of(
            segs.into_iter()
                .map(|(is_set, asns)| (is_set, asns.into_iter().map(Asn).collect())),
        )
    })
}

/// AS paths the round-trip generator avoids because the encoder does
/// not preserve their shape: empty segments, segments past the 255-AS
/// limit (split on the wire), and the sizes either side of the
/// 255-byte body where `EXT_LEN` switches on (63 / 64 ASes).
fn arb_extreme_as_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(
        (
            any::<bool>(),
            prop::sample::select(vec![0usize, 1, 2, 63, 64, 254, 255, 256, 300, 510, 511]),
            any::<u32>(),
        ),
        0..4,
    )
    .prop_map(|segs| {
        path_of(segs.into_iter().map(|(is_set, n, base)| {
            let asns = (0..n as u32).map(|i| Asn(base.wrapping_add(i))).collect();
            (is_set, asns)
        }))
    })
}

fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
    arb_attrs_with(arb_as_path(), 4)
}

/// Every optional attribute present or absent, list attributes up to
/// `max_list` elements long.
fn arb_attrs_with(
    as_path: impl Strategy<Value = AsPath>,
    max_list: usize,
) -> impl Strategy<Value = PathAttributes> {
    (
        0u8..3,
        as_path,
        any::<u32>(),
        prop::option::of(any::<u32>()),
        prop::option::of(any::<u32>()),
        prop::collection::vec(any::<u32>(), 0..max_list),
        prop::collection::vec(any::<[u8; 8]>(), 0..max_list),
        prop::option::of(any::<u32>()),
        prop::collection::vec(any::<u32>(), 0..max_list),
    )
        .prop_map(|(origin, as_path, nh, med, lp, comms, ext, oid, clist)| {
            let mut a = PathAttributes::ebgp(as_path, NextHop(nh));
            a.origin = Origin::from_code(origin).unwrap();
            a.med = med.map(Med);
            a.local_pref = lp.map(LocalPref);
            a.originator_id = oid.map(OriginatorId);
            a.with_lists(
                a.as_path(),
                comms.into_iter().map(Community),
                ext.into_iter().map(ExtCommunity),
                clist.into_iter().map(ClusterId),
            )
        })
}

fn arb_nlri(add_paths: bool) -> impl Strategy<Value = Nlri> {
    (arb_prefix(), any::<u32>()).prop_map(move |(p, id)| {
        if add_paths {
            Nlri::with_path_id(p, PathId(id))
        } else {
            Nlri::plain(p)
        }
    })
}

proptest! {
    #[test]
    fn attrs_roundtrip(attrs in arb_attrs()) {
        let mut b = Vec::new();
        bgp_wire::attr::encode_attrs(&attrs, &mut b);
        let d = bgp_wire::attr::decode_attrs(&b).unwrap();
        prop_assert_eq!(d, attrs);
    }

    /// `encoded_attrs_len` is arithmetic; it must agree with the
    /// encoder on every attribute set, including the AS paths and list
    /// lengths that cross the 255-AS and `EXT_LEN` boundaries.
    #[test]
    fn attrs_len_matches_encoder(attrs in arb_attrs_with(arb_extreme_as_path(), 72)) {
        let mut b = Vec::new();
        bgp_wire::attr::encode_attrs(&attrs, &mut b);
        prop_assert_eq!(bgp_wire::attr::encoded_attrs_len(&attrs), b.len());
    }

    #[test]
    fn update_roundtrip_plain(
        attrs in arb_attrs(),
        withdrawn in prop::collection::vec(arb_nlri(false), 0..10),
        nlri in prop::collection::vec(arb_nlri(false), 0..10),
    ) {
        let u = UpdateMessage {
            withdrawn,
            attrs: Some(attrs),
            nlri,
        };
        let cfg = CodecConfig::plain();
        let mut b = Vec::new();
        u.encode_body(&mut b, cfg).unwrap();
        prop_assert_eq!(body_len(&u.withdrawn, u.attrs.as_ref(), &u.nlri, cfg), b.len());
        let d = UpdateMessage::decode_body(&b, cfg).unwrap();
        prop_assert_eq!(d, u);
    }

    #[test]
    fn update_roundtrip_add_paths(
        attrs in arb_attrs(),
        withdrawn in prop::collection::vec(arb_nlri(true), 0..10),
        nlri in prop::collection::vec(arb_nlri(true), 0..10),
    ) {
        let u = UpdateMessage {
            withdrawn,
            attrs: Some(attrs),
            nlri,
        };
        let cfg = CodecConfig::with_add_paths();
        let mut b = Vec::new();
        u.encode_body(&mut b, cfg).unwrap();
        prop_assert_eq!(body_len(&u.withdrawn, u.attrs.as_ref(), &u.nlri, cfg), b.len());
        let d = UpdateMessage::decode_body(&b, cfg).unwrap();
        prop_assert_eq!(d, u);
    }

    /// Framed messages decode from a concatenated stream in order, and a
    /// truncated tail never produces a message or an error.
    #[test]
    fn framed_stream_roundtrip(
        attrs in arb_attrs(),
        nlri in prop::collection::vec(arb_nlri(false), 1..6),
        cut in 1usize..19,
    ) {
        let cfg = CodecConfig::plain();
        let msgs = vec![
            Message::Keepalive,
            Message::Update(UpdateMessage::announce(attrs, nlri)),
            Message::Notification { code: 6, subcode: 0, data: vec![] },
        ];
        let mut b = Vec::new();
        for m in &msgs {
            m.encode(&mut b, cfg).unwrap();
        }
        // Truncate the stream mid-final-message.
        let keep = b.len() - cut.min(18);
        let mut stream = &b[..keep];
        let mut decoded = Vec::new();
        while let Some(m) = Message::decode(&mut stream, cfg).unwrap() {
            decoded.push(m);
        }
        prop_assert_eq!(decoded.len(), 2);
        prop_assert_eq!(&decoded[0], &msgs[0]);
        prop_assert_eq!(&decoded[1], &msgs[1]);
    }

    /// decode never panics on arbitrary bytes.
    #[test]
    fn decode_never_panics(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Message::decode(&mut &data[..], CodecConfig::plain());
        let _ = Message::decode(&mut &data[..], CodecConfig::with_add_paths());
        let _ = UpdateMessage::decode_body(&data, CodecConfig::plain());
        let _ = bgp_wire::attr::decode_attrs(&data);
    }
}
