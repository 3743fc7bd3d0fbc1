//! Codec corner cases (DESIGN.md §14): the inputs a differential wire
//! mode must survive but ordinary round-trip tests rarely reach.
//!
//! Complements `prop_roundtrip.rs` (uniform round-trips, short random
//! byte sweeps) with the structured extremes:
//!
//! * NLRI packing right up against `MAX_MESSAGE_LEN` (4096), and the
//!   typed `TooLong` error one element past it;
//! * exhaustive attribute flag permutations — all 16 combinations of
//!   OPTIONAL/TRANSITIVE/PARTIAL/EXT_LEN against recognized codes,
//!   with RFC 4271 §6.3 category enforcement;
//! * withdrawn + reachable NLRI in one UPDATE, plain and add-paths;
//! * 4-octet AS numbers (> 65535) throughout the AS_PATH;
//! * truncation at *every* cut point of a valid body, and single-byte
//!   mutation of valid framed messages: typed errors, never panics;
//! * the message parser's result and the bytes it consumes — a whole
//!   message or nothing — at every truncation point of a multi-UPDATE
//!   burst, at every framing-error boundary, and on arbitrary bytes;
//! * the in-place parse (`Message::split`, `UpdateView`) against the
//!   owned one at every truncation point of each message of a burst.

use bgp_types::{
    intern, AsPath, Asn, ClusterId, Community, ExtCommunity, Ipv4Prefix, LocalPref, Med, NextHop,
    Origin, OriginatorId, PathAttributes, PathId, SegmentKind,
};
use bgp_wire::attr::{self, code, flags};
use bgp_wire::{
    CodecConfig, Message, MessageType, Nlri, UpdateMessage, UpdateView, WireError, MAX_MESSAGE_LEN,
};
use proptest::prelude::*;
use std::sync::Arc;

fn pfx(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

fn base_attrs() -> PathAttributes {
    PathAttributes::ebgp(
        AsPath::sequence([Asn(7018), Asn(3356)]),
        NextHop(0x0A000001),
    )
}

// ---------------------------------------------------------------- packing

/// Fills an UPDATE with distinct /32 add-paths NLRI until the framed
/// message no longer fits in `MAX_MESSAGE_LEN`, asserting an exact
/// round-trip at the densest packing that fits and a typed `TooLong`
/// one element past it.
#[test]
fn nlri_packs_to_max_message_len_then_too_long() {
    let cfg = CodecConfig::with_add_paths();
    let mut nlri: Vec<Nlri> = Vec::new();
    let mut last_fit: Option<(UpdateMessage, usize)> = None;
    for i in 0u32.. {
        nlri.push(Nlri::with_path_id(Ipv4Prefix::new(i, 32), PathId(i)));
        let u = UpdateMessage::announce(base_attrs(), nlri.clone());
        let mut b = Vec::new();
        match Message::Update(u.clone()).encode(&mut b, cfg) {
            Ok(()) => {
                assert!(b.len() <= MAX_MESSAGE_LEN);
                last_fit = Some((u, b.len()));
            }
            Err(e) => {
                assert!(
                    matches!(e, WireError::TooLong("message")),
                    "expected TooLong past the ceiling, got {e:?}"
                );
                break;
            }
        }
    }
    let (u, len) = last_fit.expect("at least one UPDATE must fit");
    // Each add-paths /32 NLRI is 9 bytes: the densest fit is within one
    // element of the ceiling, not stopped early.
    assert!(
        len > MAX_MESSAGE_LEN - 9,
        "densest packing stopped {} bytes short of the ceiling",
        MAX_MESSAGE_LEN - len
    );
    let mut b = Vec::new();
    Message::Update(u.clone()).encode(&mut b, cfg).unwrap();
    let d = Message::decode(&mut &b[..], cfg).unwrap().unwrap();
    assert_eq!(d, Message::Update(u));
}

/// A withdrawn block longer than its 16-bit length field is a typed
/// encode error, not a silent wrap.
#[test]
fn oversized_withdrawn_block_is_too_long() {
    let withdrawn: Vec<Nlri> = (0..14_000u32)
        .map(|i| Nlri::plain(Ipv4Prefix::new(i << 8, 32)))
        .collect();
    let u = UpdateMessage::withdraw(withdrawn);
    let mut b = Vec::new();
    assert!(matches!(
        u.encode_body(&mut b, CodecConfig::plain()),
        Err(WireError::TooLong("withdrawn routes"))
    ));
}

// ---------------------------------------------------- flag permutations

/// Hand-encodes one attribute with an explicit flag byte, honouring
/// the EXT_LEN bit's two-byte length field.
fn raw_attr(out: &mut Vec<u8>, flag: u8, ty: u8, body: &[u8]) {
    out.push(flag);
    out.push(ty);
    if flag & flags::EXT_LEN != 0 {
        out.extend_from_slice(&(body.len() as u16).to_be_bytes());
    } else {
        out.push(body.len() as u8);
    }
    out.extend_from_slice(body);
}

/// A minimal valid attribute block (the three mandatory attributes),
/// to which a test attribute can be appended.
fn mandatory_block() -> Vec<u8> {
    let mut b = Vec::new();
    attr::encode_attrs(
        &PathAttributes::ebgp(AsPath::sequence([Asn(1)]), NextHop(1)),
        &mut b,
    );
    b
}

/// All 16 flag-bit combinations against every recognized attribute
/// code: decoding succeeds exactly when the OPTIONAL/TRANSITIVE bits
/// match the attribute's RFC category (PARTIAL and EXT_LEN never
/// matter), and fails with the typed `BadAttributeFlags` otherwise.
#[test]
fn attribute_flag_permutations_enforce_category() {
    // (code, category bits, a valid body)
    let cases: &[(u8, u8, &[u8])] = &[
        (code::MED, flags::OPTIONAL, &50u32.to_be_bytes()),
        (code::ORIGINATOR_ID, flags::OPTIONAL, &7u32.to_be_bytes()),
        (code::CLUSTER_LIST, flags::OPTIONAL, &9u32.to_be_bytes()),
        (code::LOCAL_PREF, flags::TRANSITIVE, &200u32.to_be_bytes()),
        (
            code::COMMUNITIES,
            flags::OPTIONAL | flags::TRANSITIVE,
            &0x1B9B0064u32.to_be_bytes(),
        ),
        (
            code::EXT_COMMUNITIES,
            flags::OPTIONAL | flags::TRANSITIVE,
            &[0, 2, 0, 1, 0, 0, 0, 1],
        ),
        (
            code::AGGREGATOR,
            flags::OPTIONAL | flags::TRANSITIVE,
            &[0, 0, 0, 1, 10, 0, 0, 1],
        ),
        (code::ATOMIC_AGGREGATE, flags::TRANSITIVE, &[]),
    ];
    let bits = [
        flags::OPTIONAL,
        flags::TRANSITIVE,
        flags::PARTIAL,
        flags::EXT_LEN,
    ];
    for &(ty, want, body) in cases {
        for mask in 0u8..16 {
            let flag: u8 = (0..4)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| bits[i])
                .fold(0, |acc, b| acc | b);
            let mut b = mandatory_block();
            raw_attr(&mut b, flag, ty, body);
            let got = attr::decode_attrs(&b);
            if flag & (flags::OPTIONAL | flags::TRANSITIVE) == want {
                assert!(
                    got.is_ok(),
                    "code {ty} flags {flag:#04x}: expected Ok, got {got:?}"
                );
            } else {
                assert_eq!(
                    got,
                    Err(WireError::BadAttributeFlags {
                        code: ty,
                        flags: flag
                    }),
                    "code {ty} flags {flag:#04x}: category must be enforced"
                );
            }
        }
    }
}

/// Unrecognized codes have no category: any flag combination decodes
/// when OPTIONAL is set (attribute skipped) and is the typed
/// `UnrecognizedWellKnown` error when it is clear.
#[test]
fn unrecognized_codes_hinge_on_the_optional_bit() {
    for ty in [11u8, 32, 128, 255] {
        for mask in 0u8..16 {
            let bits = [
                flags::OPTIONAL,
                flags::TRANSITIVE,
                flags::PARTIAL,
                flags::EXT_LEN,
            ];
            let flag: u8 = (0..4)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| bits[i])
                .fold(0, |acc, b| acc | b);
            let mut b = mandatory_block();
            raw_attr(&mut b, flag, ty, &[0xDE, 0xAD]);
            let got = attr::decode_attrs(&b);
            if flag & flags::OPTIONAL != 0 {
                assert!(
                    got.is_ok(),
                    "optional unknown {ty} flags {flag:#04x}: {got:?}"
                );
            } else {
                assert_eq!(got, Err(WireError::UnrecognizedWellKnown(ty)));
            }
        }
    }
}

/// EXT_LEN on a short body is legal on the wire: a two-byte length
/// field holding a small value must decode identically to the compact
/// form.
#[test]
fn ext_len_with_short_body_decodes() {
    let mut b = mandatory_block();
    raw_attr(
        &mut b,
        flags::OPTIONAL | flags::EXT_LEN,
        code::MED,
        &50u32.to_be_bytes(),
    );
    let d = attr::decode_attrs(&b).unwrap();
    assert_eq!(d.med, Some(Med(50)));
}

// ------------------------------------------- mixed + 4-octet AS paths

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(addr, len))
}

/// AS paths drawn entirely from the 4-octet range (> 65535), including
/// the top of the 32-bit space — RFC 6793 paths that a 2-octet codec
/// would destroy.
fn arb_wide_as_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(
        (
            any::<bool>(),
            prop::collection::vec((65_536u32..=u32::MAX).prop_map(Asn), 1..6),
        ),
        1..4,
    )
    .prop_map(|segs| {
        let mut path = AsPath::empty();
        for (is_set, asns) in segs {
            let kind = if is_set {
                SegmentKind::Set
            } else {
                SegmentKind::Sequence
            };
            path.push_segment(kind, asns);
        }
        path
    })
}

proptest! {
    /// One UPDATE carrying withdrawn routes *and* reachable NLRI (with
    /// attributes) round-trips through full framing in both codec
    /// configurations.
    #[test]
    fn withdrawn_and_reachable_in_one_message(
        as_path in arb_wide_as_path(),
        withdrawn in prop::collection::vec(arb_prefix(), 1..12),
        announced in prop::collection::vec(arb_prefix(), 1..12),
        med in prop::option::of(any::<u32>().prop_map(Med)),
        lp in prop::option::of(any::<u32>().prop_map(LocalPref)),
    ) {
        let mut attrs = PathAttributes::ebgp(as_path, NextHop(0x0A0A0A0A));
        attrs.origin = Origin::Incomplete;
        attrs.med = med;
        attrs.local_pref = lp;
        attrs.originator_id = Some(OriginatorId(0x0A0000FF));
        let attrs = attrs.with_lists(
            attrs.as_path(),
            [Community::new(65_001, 9)],
            [],
            [ClusterId(1), ClusterId(2)],
        );
        for cfg in [CodecConfig::plain(), CodecConfig::with_add_paths()] {
            let tag = |i: usize, p: Ipv4Prefix| {
                if cfg.add_paths {
                    Nlri::with_path_id(p, PathId(i as u32))
                } else {
                    Nlri::plain(p)
                }
            };
            let u = UpdateMessage {
                withdrawn: withdrawn.iter().enumerate().map(|(i, &p)| tag(i, p)).collect(),
                attrs: Some(attrs.clone()),
                nlri: announced.iter().enumerate().map(|(i, &p)| tag(i, p)).collect(),
            };
            let mut b = Vec::new();
            Message::Update(u.clone()).encode(&mut b, cfg).unwrap();
            let mut rest = &b[..];
            let d = Message::decode(&mut rest, cfg).unwrap().unwrap();
            prop_assert_eq!(d, Message::Update(u));
            prop_assert!(rest.is_empty());
        }
    }

    /// 4-octet ASNs survive the codec bit-exactly; every ASN occupies
    /// four bytes on the wire (the segment body is 2 + 4·count).
    #[test]
    fn four_octet_as_paths_roundtrip(as_path in arb_wide_as_path()) {
        let attrs = PathAttributes::ebgp(as_path.clone(), NextHop(1));
        let mut b = Vec::new();
        attr::encode_attrs(&attrs, &mut b);
        let d = attr::decode_attrs(&b).unwrap();
        prop_assert_eq!(d.as_path(), as_path.borrowed());
        let segments = as_path.borrowed().segments();
        let n_asns: usize = segments.clone().map(|s| s.asns().len()).sum();
        // ORIGIN (4) + AS_PATH header (3) + segment headers (2 each)
        // + NEXT_HOP (7) + 4 bytes per ASN.
        let expect = 4 + 3 + 2 * segments.count() + 4 * n_asns + 7;
        prop_assert_eq!(b.len(), expect);
    }

    /// Sets with AS_SET segments, empty paths and segments, segments past
    /// 255 ASes and all four lists round-trip through the attribute
    /// codec as built: a path holds a segment past 255 ASes as the wire
    /// carries it, so there is one shape. A decoded set interns to the
    /// same `Arc` as its struct-built twin.
    #[test]
    fn decoded_sets_are_the_sets_built_in_struct_mode(
        segs in prop::collection::vec(
            (
                any::<bool>(),
                prop::sample::select(vec![0usize, 1, 3, 255, 256, 300]),
                any::<u32>(),
            ),
            0..4,
        ),
        comms in prop::collection::vec(any::<u32>(), 0..4),
        ext in prop::collection::vec(any::<[u8; 8]>(), 0..3),
        clist in prop::collection::vec(any::<u32>(), 0..4),
        marked in any::<bool>(),
        med in prop::option::of(any::<u32>()),
    ) {
        let built = {
            let mut path = AsPath::empty();
            for &(is_set, n, base) in &segs {
                let kind = if is_set {
                    SegmentKind::Set
                } else {
                    SegmentKind::Sequence
                };
                path.push_segment(kind, (0..n as u32).map(|i| Asn(base.wrapping_add(i))));
            }
            let mut a = PathAttributes::ebgp(path, NextHop(7));
            a.med = med.map(Med);
            a.originator_id = Some(OriginatorId(3));
            let ext = ext.iter().map(|&e| ExtCommunity(e));
            a.with_lists(
                a.as_path(),
                comms.iter().map(|&c| Community(c)),
                ext.chain(marked.then_some(ExtCommunity::ABRR_REFLECTED)),
                clist.iter().map(|&c| ClusterId(c)),
            )
        };
        let mut b = Vec::new();
        attr::encode_attrs(&built, &mut b);
        prop_assert_eq!(b.len(), attr::encoded_attrs_len(&built));
        let decoded = attr::decode_attrs(&b).unwrap();
        prop_assert_eq!(&decoded, &built);
        let held = intern(built);
        prop_assert!(Arc::ptr_eq(&held, &intern(decoded)));
    }
}

// -------------------------------------------- the parser's framing

/// One decode step of the message parser, returning the result and the
/// bytes consumed. Whatever the input, it consumes a whole message (the
/// length its header declares) or nothing: all of a message it
/// decodes, none of a partial one.
fn decode_one(data: &[u8], cfg: CodecConfig) -> (Result<Option<Message>, WireError>, usize) {
    let mut rest = data;
    let got = Message::decode(&mut rest, cfg);
    let used = data.len() - rest.len();
    let declared = match data.get(16..18) {
        Some(&[hi, lo]) => u16::from_be_bytes([hi, lo]) as usize,
        _ => 0,
    };
    match &got {
        Ok(Some(_)) => assert_eq!(used, declared, "a decoded message is consumed whole"),
        Ok(None) => assert_eq!(used, 0, "a partial message is left in place"),
        Err(e) => assert!(
            used == 0 || used == declared,
            "{e:?} consumed {used} bytes of a {declared}-byte message"
        ),
    }
    (got, used)
}

/// A session burst as `core::wire` builds one — UPDATEs back to back —
/// with the offset at which each message ends.
fn burst(cfg: CodecConfig) -> (Vec<Message>, Vec<u8>, Vec<usize>) {
    let rich = rich_update(cfg);
    let msgs = vec![
        Message::Update(rich.clone()),
        Message::Update(UpdateMessage::withdraw(rich.withdrawn.clone())),
        Message::Update(UpdateMessage::announce(base_attrs(), rich.nlri)),
    ];
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for m in &msgs {
        m.encode(&mut bytes, cfg).unwrap();
        ends.push(bytes.len());
    }
    (msgs, bytes, ends)
}

/// Cutting a multi-UPDATE burst at *every* point: the messages wholly
/// before the cut decode in order, the partial tail is `Ok(None)` with
/// nothing consumed (stream framing — never an error).
#[test]
fn burst_truncated_at_every_point_frames_identically() {
    for cfg in [CodecConfig::plain(), CodecConfig::with_add_paths()] {
        let (msgs, bytes, ends) = burst(cfg);
        for cut in 0..=bytes.len() {
            let mut data = &bytes[..cut];
            let whole = ends.iter().filter(|&&e| e <= cut).count();
            for m in &msgs[..whole] {
                let (got, used) = decode_one(data, cfg);
                assert_eq!(got, Ok(Some(m.clone())), "cut at {cut}");
                data = &data[used..];
            }
            assert_eq!(decode_one(data, cfg), (Ok(None), 0), "cut at {cut}");
        }
    }
}

/// The borrowed parse is the owned one at every truncation point of a
/// multi-UPDATE burst: splitting off each message and parsing its body
/// in place, into one attribute scratch reused across every parse as a
/// receiver reuses it, gives the message the owned parser decodes, or
/// the same typed error, cut by cut and message by message.
#[test]
fn burst_parsed_in_place_equals_the_owned_parse_at_every_cut() {
    let in_place = |body: &[u8], cfg, scratch: &mut attr::Scratch| {
        let u = UpdateView::parse(body, cfg)?;
        let withdrawn = u.withdrawn().collect::<Result<_, _>>()?;
        let nlri = u.nlri().collect::<Result<_, _>>()?;
        let attrs = u.attrs(scratch)?.map(PathAttributes::from);
        Ok(UpdateMessage {
            withdrawn,
            attrs,
            nlri,
        })
    };
    let mut scratch = attr::Scratch::default();
    for cfg in [CodecConfig::plain(), CodecConfig::with_add_paths()] {
        let (msgs, bytes, _) = burst(cfg);
        let mut rest = &bytes[..];
        for m in &msgs {
            let mut framed = rest;
            let (ty, body) = Message::split(&mut framed).unwrap().unwrap();
            assert_eq!(ty, MessageType::Update);
            assert_eq!(Message::decode(&mut rest, cfg), Ok(Some(m.clone())));
            assert_eq!(framed.len(), rest.len(), "split consumes what decode does");
            for cut in 0..=body.len() {
                let owned = UpdateMessage::decode_body(&body[..cut], cfg);
                let borrowed = in_place(&body[..cut], cfg, &mut scratch);
                assert_eq!(borrowed, owned, "cut at {cut} of {m:?}");
            }
        }
    }
}

/// Where each framing error fires and what it consumes: a header error
/// (marker, length, type) leaves the buffer untouched; a malformed body
/// consumes exactly its own message, so the next one still decodes.
#[test]
fn framing_errors_fire_at_fixed_boundaries() {
    let cfg = CodecConfig::with_add_paths();
    let (msgs, bytes, ends) = burst(cfg);
    let second = ends[0];
    let mutated = |at: usize, with: &[u8]| {
        let mut v = bytes.to_vec();
        v[second + at..second + at + with.len()].copy_from_slice(with);
        v
    };
    for (bad, want) in [
        (mutated(3, &[0]), WireError::BadMarker),
        (mutated(16, &18u16.to_be_bytes()), WireError::BadLength(18)),
        (
            mutated(16, &4097u16.to_be_bytes()),
            WireError::BadLength(4097),
        ),
        (mutated(18, &[9]), WireError::BadMessageType(9)),
    ] {
        assert_eq!(decode_one(&bad, cfg), (Ok(Some(msgs[0].clone())), second));
        assert_eq!(decode_one(&bad[second..], cfg), (Err(want), 0));
    }
    // The withdrawn-routes length of the second message overruns its body.
    let bad = mutated(19, &0xFFFFu16.to_be_bytes());
    let body = ends[1] - second - 19;
    assert_eq!(
        decode_one(&bad[second..], cfg),
        (
            Err(WireError::Truncated {
                what: "withdrawn block",
                needed: 0xFFFF,
                have: body - 2
            }),
            ends[1] - second
        )
    );
    assert_eq!(
        decode_one(&bad[ends[1]..], cfg),
        (Ok(Some(msgs[2].clone())), ends[2] - ends[1])
    );
}

// --------------------------------------- truncation + mutation sweeps

/// A representative UPDATE exercising every block: withdrawn routes,
/// a full attribute set, and multiple NLRI.
fn rich_update(cfg: CodecConfig) -> UpdateMessage {
    let mut attrs = base_attrs();
    attrs.med = Some(Med(50));
    attrs.local_pref = Some(LocalPref(200));
    attrs.originator_id = Some(OriginatorId(0x0A0000FF));
    let attrs = attrs.with_lists(
        attrs.as_path(),
        [Community::new(7018, 100)],
        [],
        [ClusterId(1)],
    );
    let tag = |i: u32, p: Ipv4Prefix| {
        if cfg.add_paths {
            Nlri::with_path_id(p, PathId(i))
        } else {
            Nlri::plain(p)
        }
    };
    UpdateMessage {
        withdrawn: vec![tag(1, pfx("9.0.0.0/8")), tag(2, pfx("9.64.0.0/10"))],
        attrs: Some(attrs),
        nlri: vec![
            tag(3, pfx("10.0.0.0/8")),
            tag(4, pfx("10.128.0.0/9")),
            tag(5, pfx("1.2.3.4/32")),
        ],
    }
}

/// Truncating a valid UPDATE body at *every* cut point yields a typed
/// error or a strictly different message — never a panic, never a
/// silent equal decode of partial bytes.
#[test]
fn truncation_at_every_cut_point_is_typed() {
    for cfg in [CodecConfig::plain(), CodecConfig::with_add_paths()] {
        let u = rich_update(cfg);
        let mut b = Vec::new();
        u.encode_body(&mut b, cfg).unwrap();
        for cut in 0..b.len() {
            match UpdateMessage::decode_body(&b[..cut], cfg) {
                // A cut on an NLRI boundary is a well-formed shorter
                // message; it must not masquerade as the original.
                Ok(d) => assert_ne!(d, u, "cut at {cut} decoded as the full message"),
                Err(e) => {
                    assert!(
                        matches!(
                            e,
                            WireError::Truncated { .. }
                                | WireError::MalformedAttributes(_)
                                | WireError::InvalidNlri(_)
                        ),
                        "cut at {cut}: unexpected error class {e:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    /// Flipping one byte anywhere in a valid framed message decodes to
    /// a typed result — `Ok` (the flip landed somewhere benign) or a
    /// `WireError` — and never panics. Mutating valid frames reaches
    /// decoder states that uniform random bytes (which die on the
    /// marker check) cannot.
    #[test]
    fn single_byte_mutation_never_panics(
        pos_seed in any::<u32>(),
        xor in 1u8..=255,
        add_paths in any::<bool>(),
    ) {
        let cfg = if add_paths { CodecConfig::with_add_paths() } else { CodecConfig::plain() };
        let mut b = Vec::new();
        Message::Update(rich_update(cfg)).encode(&mut b, cfg).unwrap();
        let pos = pos_seed as usize % b.len();
        b[pos] ^= xor;
        let _ = decode_one(&b, cfg);
        // The opposite codec config on the same mutated bytes.
        let other = if add_paths { CodecConfig::plain() } else { CodecConfig::with_add_paths() };
        let _ = decode_one(&b, other);
    }

    /// Arbitrary bytes behind a plausible header (uniform bytes die on
    /// the marker check): whatever the parser makes of them, it
    /// consumes a whole message or nothing.
    #[test]
    fn arbitrary_bytes_frame_whole_messages_or_nothing(
        marker_ok in any::<bool>(),
        len in 0u16..600,
        ty in 0u8..6,
        data in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut b = Vec::new();
        b.extend_from_slice(&[if marker_ok { 0xFF } else { 0xFE }; 16]);
        b.extend_from_slice(&len.to_be_bytes());
        b.push(ty);
        b.extend_from_slice(&data);
        for cfg in [CodecConfig::plain(), CodecConfig::with_add_paths()] {
            let mut rest = &b[..];
            // Walk the stream the way a session does, until it stalls.
            while let (Ok(Some(_)), used) = decode_one(rest, cfg) {
                rest = &rest[used..];
            }
            let _ = decode_one(&data, cfg);
        }
    }

    /// Arbitrary bytes through the body-level entry points (below the
    /// framing layer, which `prop_roundtrip` already sweeps): typed
    /// errors only, no panics.
    #[test]
    fn arbitrary_bytes_through_body_decoders_never_panic(
        data in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        for cfg in [CodecConfig::plain(), CodecConfig::with_add_paths()] {
            let _ = UpdateMessage::decode_body(&data, cfg);
            let _ = Nlri::iter(&data, cfg.add_paths).collect::<Result<Vec<_>, _>>();
        }
        let _ = attr::decode_attrs(&data);
    }
}
