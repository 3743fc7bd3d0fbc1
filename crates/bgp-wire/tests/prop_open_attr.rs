//! Property tests: OPEN messages round-trip through the wire codec,
//! and the attribute-flag error paths of RFC 4271 §6.3 fire exactly
//! when they should.

use bgp_types::{AsPath, Asn, NextHop, PathAttributes};
use bgp_wire::attr::{self, code, flags};
use bgp_wire::{AddPathMode, Capability, OpenMessage, WireError};
use proptest::prelude::*;

fn arb_mode() -> impl Strategy<Value = AddPathMode> {
    prop::sample::select(vec![
        AddPathMode::Receive,
        AddPathMode::Send,
        AddPathMode::Both,
    ])
}

fn arb_capability() -> impl Strategy<Value = Capability> {
    (
        0u8..4,
        any::<u32>(),
        arb_mode(),
        // Unknown capabilities use codes above the ones this codec
        // recognizes, so the decoder cannot reinterpret them.
        128u8..=255,
        prop::collection::vec(any::<u8>(), 0..8),
    )
        .prop_map(|(which, asn, mode, other_code, other_val)| match which {
            0 => Capability::MultiprotocolIpv4Unicast,
            1 => Capability::FourOctetAs(asn),
            2 => Capability::AddPathsIpv4Unicast(mode),
            _ => Capability::Other(other_code, other_val),
        })
}

fn arb_open() -> impl Strategy<Value = OpenMessage> {
    (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        prop::collection::vec(arb_capability(), 0..6),
    )
        .prop_map(|(my_as, hold_time, bgp_id, capabilities)| OpenMessage {
            version: 4,
            my_as,
            hold_time,
            bgp_id,
            capabilities,
        })
}

/// A raw path attribute with caller-controlled flag byte.
fn raw_attr(flag: u8, ty: u8, body: &[u8]) -> Vec<u8> {
    let mut out = vec![flag, ty, body.len() as u8];
    out.extend_from_slice(body);
    out
}

fn minimal_attrs() -> (PathAttributes, Vec<u8>) {
    let a = PathAttributes::ebgp(AsPath::sequence([Asn(7018)]), NextHop(0x0A000001));
    let mut b = Vec::new();
    attr::encode_attrs(&a, &mut b);
    (a, b)
}

/// Every recognized attribute code and its required
/// OPTIONAL/TRANSITIVE category bits.
const CATEGORIES: &[(u8, u8)] = &[
    (code::ORIGIN, flags::TRANSITIVE),
    (code::AS_PATH, flags::TRANSITIVE),
    (code::NEXT_HOP, flags::TRANSITIVE),
    (code::MED, flags::OPTIONAL),
    (code::LOCAL_PREF, flags::TRANSITIVE),
    (code::ATOMIC_AGGREGATE, flags::TRANSITIVE),
    (code::AGGREGATOR, flags::OPTIONAL | flags::TRANSITIVE),
    (code::COMMUNITIES, flags::OPTIONAL | flags::TRANSITIVE),
    (code::ORIGINATOR_ID, flags::OPTIONAL),
    (code::CLUSTER_LIST, flags::OPTIONAL),
    (code::EXT_COMMUNITIES, flags::OPTIONAL | flags::TRANSITIVE),
];

proptest! {
    /// Any structurally valid OPEN — including unknown capabilities —
    /// round-trips byte-exactly through encode/decode.
    #[test]
    fn open_roundtrip(o in arb_open()) {
        let mut b = Vec::new();
        o.encode_body(&mut b);
        let d = OpenMessage::decode_body(&b).unwrap();
        prop_assert_eq!(d, o);
    }

    /// The constructor's negotiated values (4-octet AS, add-paths
    /// mode) survive the wire, for any AS including ones that do not
    /// fit the 2-octet field.
    #[test]
    fn open_constructor_roundtrip(
        asn in any::<u32>(),
        hold in any::<u16>(),
        bgp_id in any::<u32>(),
        mode in prop::option::of(arb_mode()),
    ) {
        let o = OpenMessage::new(asn, hold, bgp_id, mode);
        let mut b = Vec::new();
        o.encode_body(&mut b);
        let d = OpenMessage::decode_body(&b).unwrap();
        prop_assert_eq!(&d, &o);
        prop_assert_eq!(d.asn(), asn);
        prop_assert_eq!(d.add_paths_mode(), mode);
    }

    /// Truncating an OPEN body anywhere yields an error, never a
    /// panic or a silently short message.
    #[test]
    fn truncated_open_is_error(o in arb_open(), cut in 0usize..1000) {
        let mut b = Vec::new();
        o.encode_body(&mut b);
        let keep = cut % b.len();
        prop_assert!(OpenMessage::decode_body(&b[..keep]).is_err());
    }

    /// A recognized attribute whose OPTIONAL/TRANSITIVE bits do not
    /// match its category is rejected with `BadAttributeFlags`
    /// carrying that attribute's code (RFC 4271 §6.3).
    #[test]
    fn attr_flag_category_mismatch_is_rejected(
        which in 0usize..CATEGORIES.len(),
        wrong in 0u8..4,
        partial in any::<bool>(),
    ) {
        let (ty, want) = CATEGORIES[which];
        let bits = if wrong & 1 != 0 { flags::OPTIONAL } else { 0 }
            | if wrong & 2 != 0 { flags::TRANSITIVE } else { 0 };
        if bits == want {
            return Ok(()); // correct flags: not this test's subject
        }
        let flag = bits | if partial { flags::PARTIAL } else { 0 };
        let block = raw_attr(flag, ty, &[]);
        match attr::decode_attrs(&block) {
            Err(WireError::BadAttributeFlags { code: c, flags: f }) => {
                prop_assert_eq!(c, ty);
                prop_assert_eq!(f, flag);
            }
            other => prop_assert!(false, "expected BadAttributeFlags, got {other:?}"),
        }
    }

    /// The PARTIAL bit never affects decoding of a correctly
    /// categorized attribute.
    #[test]
    fn partial_bit_is_tolerated(comm in any::<u32>()) {
        let (a, mut b) = minimal_attrs();
        b.extend_from_slice(&raw_attr(
            flags::OPTIONAL | flags::TRANSITIVE | flags::PARTIAL,
            code::COMMUNITIES,
            &comm.to_be_bytes(),
        ));
        let d = attr::decode_attrs(&b).unwrap();
        prop_assert!(d.communities().iter().eq([bgp_types::Community(comm)]));
        prop_assert_eq!(d.as_path(), a.as_path());
    }

    /// EXT_LEN with a two-byte length field is accepted even for
    /// attributes short enough for the compact form.
    #[test]
    fn ext_len_encoding_is_accepted(origin_code in 0u8..3) {
        let (a, _) = minimal_attrs();
        let mut block = vec![
            flags::TRANSITIVE | flags::EXT_LEN,
            code::ORIGIN,
            0,
            1,
            origin_code,
        ];
        // Mandatory AS_PATH + NEXT_HOP in compact form.
        block.extend_from_slice(&raw_attr(flags::TRANSITIVE, code::AS_PATH, &{
            let mut seg = vec![2u8, 1];
            seg.extend_from_slice(&7018u32.to_be_bytes());
            seg
        }));
        block.extend_from_slice(&raw_attr(
            flags::TRANSITIVE,
            code::NEXT_HOP,
            &0x0A000001u32.to_be_bytes(),
        ));
        let d = attr::decode_attrs(&block).unwrap();
        prop_assert_eq!(d.origin.code(), origin_code);
        prop_assert_eq!(d.as_path(), a.as_path());
        prop_assert_eq!(d.next_hop, a.next_hop);
    }

    /// Unrecognized attributes: the OPTIONAL bit alone decides —
    /// optional is skipped intact, well-known is a session error.
    #[test]
    fn unrecognized_attr_honors_optional_bit(
        ty in 17u8..=255,
        body in prop::collection::vec(any::<u8>(), 0..16),
        transitive in any::<bool>(),
    ) {
        let tbit = if transitive { flags::TRANSITIVE } else { 0 };
        let (a, encoded) = minimal_attrs();

        let mut skipped = encoded.to_vec();
        skipped.extend_from_slice(&raw_attr(flags::OPTIONAL | tbit, ty, &body));
        prop_assert_eq!(attr::decode_attrs(&skipped).unwrap(), a);

        let mut fatal = encoded.to_vec();
        fatal.extend_from_slice(&raw_attr(tbit, ty, &body));
        prop_assert!(matches!(
            attr::decode_attrs(&fatal),
            Err(WireError::UnrecognizedWellKnown(c)) if c == ty
        ));
    }
}
