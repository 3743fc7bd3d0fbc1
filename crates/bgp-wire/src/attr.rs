//! Path-attribute encode/decode (RFC 4271 §4.3, §5).
//!
//! AS_PATH is encoded with 4-octet AS numbers (RFC 6793 "NEW_AS_PATH
//! everywhere" style, as negotiated by the 4-octet-AS capability).

use crate::error::WireError;
use crate::read::{take, take_array, take_u16};
use bgp_types::{
    AsPath, AsPathRef, Asn, AttrsView, ClusterId, Community, ExtCommunity, LocalPref, Med, NextHop,
    Origin, OriginatorId, Parts, PathAttributes, SegmentKind, MAX_SEGMENT_ASNS,
};

/// Attribute type codes used by this codec.
pub mod code {
    /// ORIGIN (well-known mandatory).
    pub const ORIGIN: u8 = 1;
    /// AS_PATH (well-known mandatory).
    pub const AS_PATH: u8 = 2;
    /// NEXT_HOP (well-known mandatory).
    pub const NEXT_HOP: u8 = 3;
    /// MULTI_EXIT_DISC (optional non-transitive).
    pub const MED: u8 = 4;
    /// LOCAL_PREF (well-known, iBGP).
    pub const LOCAL_PREF: u8 = 5;
    /// ATOMIC_AGGREGATE (well-known discretionary) — parsed and ignored.
    pub const ATOMIC_AGGREGATE: u8 = 6;
    /// AGGREGATOR (optional transitive) — parsed and ignored.
    pub const AGGREGATOR: u8 = 7;
    /// COMMUNITIES (RFC 1997, optional transitive).
    pub const COMMUNITIES: u8 = 8;
    /// ORIGINATOR_ID (RFC 4456, optional non-transitive).
    pub const ORIGINATOR_ID: u8 = 9;
    /// CLUSTER_LIST (RFC 4456, optional non-transitive).
    pub const CLUSTER_LIST: u8 = 10;
    /// EXTENDED COMMUNITIES (RFC 4360, optional transitive).
    pub const EXT_COMMUNITIES: u8 = 16;
}

/// Attribute flag bits.
pub mod flags {
    /// Attribute is optional.
    pub const OPTIONAL: u8 = 0x80;
    /// Attribute is transitive.
    pub const TRANSITIVE: u8 = 0x40;
    /// Partial bit.
    pub const PARTIAL: u8 = 0x20;
    /// Two-byte length field follows.
    pub const EXT_LEN: u8 = 0x10;
}

/// Writes an attribute's flag, type and length octets; the caller
/// appends exactly `len` body bytes.
fn put_attr_header(out: &mut Vec<u8>, flag: u8, code: u8, len: usize) {
    if len > 255 {
        out.extend_from_slice(&[flag | flags::EXT_LEN, code]);
        out.extend_from_slice(&(len as u16).to_be_bytes());
    } else {
        out.extend_from_slice(&[flag, code, len as u8]);
    }
}

/// Encoded size of an attribute with a `len`-byte body.
fn attr_len(len: usize) -> usize {
    (if len > 255 { 4 } else { 3 }) + len
}

fn put_attr(out: &mut Vec<u8>, flag: u8, code: u8, body: &[u8]) {
    put_attr_header(out, flag, code, body.len());
    out.extend_from_slice(body);
}

/// Encoded size of an AS_PATH attribute body: per segment a two-octet
/// header, even when it is empty, and four octets per AS.
fn as_path_len(path: AsPathRef<'_>) -> usize {
    path.segments().map(|seg| 2 + 4 * seg.asns().len()).sum()
}

/// Writes each segment as it is held: `AsPath` already caps a segment
/// at the 255 ASes its one-octet count can carry
/// ([`bgp_types::MAX_SEGMENT_ASNS`]).
fn put_as_path(out: &mut Vec<u8>, path: AsPathRef<'_>) {
    for seg in path.segments() {
        let ty = match seg.kind() {
            SegmentKind::Set => 1u8,
            SegmentKind::Sequence => 2u8,
        };
        debug_assert!(seg.asns().len() <= MAX_SEGMENT_ASNS);
        out.extend_from_slice(&[ty, seg.asns().len() as u8]);
        for a in seg.asns() {
            out.extend_from_slice(&a.0.to_be_bytes());
        }
    }
}

/// `body` as its `N`-octet elements; `what` names the attribute whose
/// length is malformed when they do not tile it.
fn elements<'a, const N: usize>(
    body: &'a [u8],
    what: &'static str,
) -> Result<&'a [[u8; N]], WireError> {
    match body.as_chunks::<N>() {
        (elems, []) => Ok(elems),
        _ => Err(WireError::MalformedAttributes(what)),
    }
}

/// A four-octet attribute body as a `u32`.
fn four_octets(body: &[u8], what: &'static str) -> Result<u32, WireError> {
    body.try_into()
        .map(u32::from_be_bytes)
        .map_err(|_| WireError::MalformedAttributes(what))
}

/// Reads an AS_PATH body into `path`, which it clears first.
fn decode_as_path(mut body: &[u8], path: &mut AsPath) -> Result<(), WireError> {
    path.clear();
    while !body.is_empty() {
        let [ty, count] = take_array(&mut body, "as-path segment header")?;
        let raw = take(&mut body, count as usize * 4, "as-path segment body")?;
        let kind = match ty {
            1 => SegmentKind::Set,
            2 => SegmentKind::Sequence,
            _ => return Err(WireError::MalformedAttributes("bad AS_PATH segment type")),
        };
        let asns = raw.as_chunks::<4>().0.iter();
        path.push_segment(kind, asns.map(|a| Asn(u32::from_be_bytes(*a))));
    }
    Ok(())
}

/// RFC 4271 §6.3 (Attribute Flags Error): for recognized attributes,
/// the OPTIONAL and TRANSITIVE flag bits must match the attribute's
/// category. Returns the required bits, or `None` for unrecognized
/// codes (whose handling depends only on the OPTIONAL bit).
fn category_bits(ty: u8) -> Option<u8> {
    Some(match ty {
        code::ORIGIN
        | code::AS_PATH
        | code::NEXT_HOP
        | code::LOCAL_PREF
        | code::ATOMIC_AGGREGATE => flags::TRANSITIVE,
        code::MED | code::ORIGINATOR_ID | code::CLUSTER_LIST => flags::OPTIONAL,
        code::AGGREGATOR | code::COMMUNITIES | code::EXT_COMMUNITIES => {
            flags::OPTIONAL | flags::TRANSITIVE
        }
        _ => return None,
    })
}

/// Encodes the full attribute block (without the two-byte total-length
/// field, which belongs to the UPDATE message) straight into `out`:
/// every body length is arithmetic, so nothing is staged.
pub fn encode_attrs(attrs: &PathAttributes, out: &mut Vec<u8>) {
    // Destructured, so a new attribute fails to compile here until it
    // is encoded.
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
    } = attrs.parts();
    put_attr(out, flags::TRANSITIVE, code::ORIGIN, &[origin.code()]);
    put_attr_header(out, flags::TRANSITIVE, code::AS_PATH, as_path_len(as_path));
    put_as_path(out, as_path);
    put_attr(
        out,
        flags::TRANSITIVE,
        code::NEXT_HOP,
        &next_hop.0.to_be_bytes(),
    );
    if let Some(Med(m)) = med {
        put_attr(out, flags::OPTIONAL, code::MED, &m.to_be_bytes());
    }
    if let Some(LocalPref(lp)) = local_pref {
        put_attr(out, flags::TRANSITIVE, code::LOCAL_PREF, &lp.to_be_bytes());
    }
    if !communities.is_empty() {
        put_attr_header(
            out,
            flags::OPTIONAL | flags::TRANSITIVE,
            code::COMMUNITIES,
            communities.len() * 4,
        );
        for c in communities {
            out.extend_from_slice(&c.0.to_be_bytes());
        }
    }
    if let Some(OriginatorId(oid)) = originator_id {
        put_attr(
            out,
            flags::OPTIONAL,
            code::ORIGINATOR_ID,
            &oid.to_be_bytes(),
        );
    }
    if !cluster_list.is_empty() {
        put_attr_header(
            out,
            flags::OPTIONAL,
            code::CLUSTER_LIST,
            cluster_list.len() * 4,
        );
        for c in cluster_list {
            out.extend_from_slice(&c.0.to_be_bytes());
        }
    }
    if !ext_communities.is_empty() {
        put_attr_header(
            out,
            flags::OPTIONAL | flags::TRANSITIVE,
            code::EXT_COMMUNITIES,
            ext_communities.len() * 8,
        );
        for c in ext_communities {
            out.extend_from_slice(&c.0);
        }
    }
}

/// Size in bytes [`encode_attrs`] would produce. Pure arithmetic — the
/// §4.2 byte accounting calls this on every transmitted update.
pub fn encoded_attrs_len(attrs: &PathAttributes) -> usize {
    let fixed4 = |present: bool| if present { attr_len(4) } else { 0 };
    let list = |n: usize, width: usize| if n == 0 { 0 } else { attr_len(n * width) };
    attr_len(1)
        + attr_len(as_path_len(attrs.as_path()))
        + attr_len(4)
        + fixed4(attrs.med.is_some())
        + fixed4(attrs.local_pref.is_some())
        + list(attrs.communities().len(), 4)
        + fixed4(attrs.originator_id.is_some())
        + list(attrs.cluster_list().len(), 4)
        + list(attrs.ext_communities().len(), 8)
}

/// The buffers the attribute parser reads a set into, kept by a
/// receiver and reused for every set it reads: the AS_PATH as it is
/// read, and the set's tail, laid out as [`PathAttributes`] lays it out.
/// Once they have grown to a session's largest set, a parse allocates
/// nothing.
#[derive(Debug, Default)]
pub struct Scratch {
    path: AsPath,
    tail: Vec<u32>,
}

/// Decodes an attribute block into an owned [`PathAttributes`]: the
/// view [`decode_attrs_view`] reads, copied out.
pub fn decode_attrs(buf: &[u8]) -> Result<PathAttributes, WireError> {
    decode_attrs_view(buf, &mut Scratch::default()).map(PathAttributes::from)
}

/// The attribute parser: decodes an attribute block into `scratch` and
/// returns the set as a view of it, which hashes and compares exactly
/// as the owned set ([`bgp_types::intern_view`] interns it as it is).
///
/// Unknown optional attributes are skipped; unknown well-known
/// attributes are an error, per RFC 4271 §6.3. A block is at most
/// 65 535 octets (the UPDATE's two-octet length), which keeps every
/// list under the 65 536 words a set can hold.
pub fn decode_attrs_view<'s>(
    mut buf: &[u8],
    scratch: &'s mut Scratch,
) -> Result<AttrsView<'s>, WireError> {
    if buf.len() > usize::from(u16::MAX) {
        return Err(WireError::MalformedAttributes("attribute block length"));
    }
    let mut origin = None;
    let mut as_path = false;
    let mut next_hop = None;
    let mut med = None;
    let mut local_pref = None;
    // The list attributes' elements, borrowed from the block until the
    // tail is written.
    let mut communities: &[[u8; 4]] = &[];
    let mut ext_communities: &[[u8; 8]] = &[];
    let mut originator_id = None;
    let mut cluster_list: &[[u8; 4]] = &[];
    // The known codes already read: every known code is below 64.
    let mut seen = 0u64;

    while !buf.is_empty() {
        let [flag, code] = take_array(&mut buf, "attribute header")?;
        if let Some(want) = category_bits(code) {
            if flag & (flags::OPTIONAL | flags::TRANSITIVE) != want {
                return Err(WireError::BadAttributeFlags { code, flags: flag });
            }
        }
        let len = if flag & flags::EXT_LEN != 0 {
            take_u16(&mut buf, "attribute ext length")? as usize
        } else {
            let [len] = take_array(&mut buf, "attribute length")?;
            len as usize
        };
        let body = take(&mut buf, len, "attribute body")?;
        // RFC 7606 §3(g): a repeated attribute keeps its first
        // occurrence; the others are discarded unread.
        if category_bits(code).is_some() {
            if seen & 1 << code != 0 {
                continue;
            }
            seen |= 1 << code;
        }

        match code {
            code::ORIGIN => {
                let &[value] = body else {
                    return Err(WireError::MalformedAttributes("ORIGIN length"));
                };
                origin = Some(
                    Origin::from_code(value)
                        .ok_or(WireError::MalformedAttributes("ORIGIN value"))?,
                );
            }
            code::AS_PATH => {
                decode_as_path(body, &mut scratch.path)?;
                as_path = true;
            }
            code::NEXT_HOP => next_hop = Some(NextHop(four_octets(body, "NEXT_HOP length")?)),
            code::MED => med = Some(Med(four_octets(body, "MED length")?)),
            code::LOCAL_PREF => {
                local_pref = Some(LocalPref(four_octets(body, "LOCAL_PREF length")?));
            }
            code::ATOMIC_AGGREGATE | code::AGGREGATOR => {
                // Parsed and ignored: not used by any engine in this repo.
            }
            code::COMMUNITIES => communities = elements(body, "COMMUNITIES length")?,
            code::ORIGINATOR_ID => {
                originator_id = Some(OriginatorId(four_octets(body, "ORIGINATOR_ID length")?));
            }
            code::CLUSTER_LIST => cluster_list = elements(body, "CLUSTER_LIST length")?,
            code::EXT_COMMUNITIES => {
                ext_communities = elements(body, "EXT_COMMUNITIES length")?;
            }
            other => {
                if flag & flags::OPTIONAL == 0 {
                    return Err(WireError::UnrecognizedWellKnown(other));
                }
                // Unknown optional attribute: skipped (body already consumed).
            }
        }
    }

    let origin = origin.ok_or(WireError::MalformedAttributes("missing ORIGIN"))?;
    if !as_path {
        return Err(WireError::MalformedAttributes("missing AS_PATH"));
    }
    let next_hop = next_hop.ok_or(WireError::MalformedAttributes("missing NEXT_HOP"))?;
    // The scalars, with no tail: an empty path allocates nothing.
    let mut head = PathAttributes::ebgp(AsPath::empty(), next_hop);
    head.origin = origin;
    head.med = med;
    head.local_pref = local_pref;
    head.originator_id = originator_id;
    let Scratch { path, tail } = scratch;
    Ok(head.view_in(
        tail,
        path.borrowed(),
        communities
            .iter()
            .map(|c| Community(u32::from_be_bytes(*c))),
        ext_communities.iter().map(|c| ExtCommunity(*c)),
        cluster_list
            .iter()
            .map(|c| ClusterId(u32::from_be_bytes(*c))),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::AsPath;

    fn sample_attrs() -> PathAttributes {
        let mut a = PathAttributes::ebgp(
            AsPath::sequence([Asn(7018), Asn(3356)]),
            NextHop(0x0A000001),
        );
        a.med = Some(Med(50));
        a.local_pref = Some(LocalPref(200));
        a.originator_id = Some(OriginatorId(0x0A0000FF));
        a.with_lists(
            a.as_path(),
            [Community::new(7018, 100)],
            [ExtCommunity::ABRR_REFLECTED],
            [ClusterId(1), ClusterId(2)],
        )
    }

    #[test]
    fn roundtrip_full() {
        let a = sample_attrs();
        let mut b = Vec::new();
        encode_attrs(&a, &mut b);
        let d = decode_attrs(&b).unwrap();
        assert_eq!(d, a);
    }

    #[test]
    fn roundtrip_minimal() {
        let a = PathAttributes::ebgp(AsPath::empty(), NextHop(1));
        let mut b = Vec::new();
        encode_attrs(&a, &mut b);
        let d = decode_attrs(&b).unwrap();
        assert_eq!(d, a);
    }

    #[test]
    fn missing_mandatory_is_error() {
        // Encode only an ORIGIN attribute.
        let mut b = Vec::new();
        put_attr(&mut b, flags::TRANSITIVE, code::ORIGIN, &[0]);
        assert!(matches!(
            decode_attrs(&b),
            Err(WireError::MalformedAttributes("missing AS_PATH"))
        ));
    }

    #[test]
    fn unknown_optional_is_skipped() {
        let a = PathAttributes::ebgp(AsPath::sequence([Asn(1)]), NextHop(1));
        let mut b = Vec::new();
        encode_attrs(&a, &mut b);
        // Append an unknown optional attribute (type 200).
        put_attr(&mut b, flags::OPTIONAL, 200, &[1, 2, 3]);
        let d = decode_attrs(&b).unwrap();
        assert_eq!(d, a);
    }

    #[test]
    fn unknown_well_known_is_error() {
        let a = PathAttributes::ebgp(AsPath::sequence([Asn(1)]), NextHop(1));
        let mut b = Vec::new();
        encode_attrs(&a, &mut b);
        put_attr(&mut b, flags::TRANSITIVE, 99, &[0]);
        assert!(matches!(
            decode_attrs(&b),
            Err(WireError::UnrecognizedWellKnown(99))
        ));
    }

    #[test]
    fn long_as_path_uses_extended_length() {
        // 300 ASes => body > 255 bytes => EXT_LEN path must round-trip.
        let path = AsPath::sequence((0..300).map(Asn));
        let a = PathAttributes::ebgp(path.clone(), NextHop(1));
        let mut b = Vec::new();
        encode_attrs(&a, &mut b);
        let d = decode_attrs(&b).unwrap();
        // The path is held as segments of 255 and 45 ASes, and decodes
        // as it was built.
        assert_eq!(d, a);
        assert_eq!(d.as_path().path_len(), 300);
        assert_eq!(d.as_path_len(), 300);
        let lens: Vec<usize> = d.as_path().segments().map(|s| s.asns().len()).collect();
        assert_eq!(lens, [255, 45]);
        let all: Vec<Asn> = d.as_path().segments().flat_map(|s| s.asns()).collect();
        assert_eq!(all, (0..300).map(Asn).collect::<Vec<_>>());
    }

    /// RFC 7606 §3(g): a second AS_PATH, COMMUNITIES, CLUSTER_LIST or
    /// EXT_COMMUNITIES is discarded; the first of each is kept whole.
    #[test]
    fn repeated_attributes_keep_the_first() {
        let a = sample_attrs();
        let mut b = Vec::new();
        encode_attrs(&a, &mut b);
        let mut path = Vec::new();
        put_as_path(&mut path, AsPath::sequence([Asn(9), Asn(9)]).borrowed());
        put_attr(&mut b, flags::TRANSITIVE, code::AS_PATH, &path);
        let both = flags::OPTIONAL | flags::TRANSITIVE;
        put_attr(&mut b, both, code::COMMUNITIES, &[0, 9, 0, 9]);
        put_attr(&mut b, flags::OPTIONAL, code::CLUSTER_LIST, &[0, 0, 0, 9]);
        put_attr(&mut b, both, code::EXT_COMMUNITIES, &[9; 8]);
        assert_eq!(decode_attrs(&b).unwrap(), a);
    }

    #[test]
    fn wrong_category_flags_are_error() {
        // MED is optional non-transitive; marking it well-known
        // (OPTIONAL bit clear) is an Attribute Flags Error.
        let mut b = Vec::new();
        encode_attrs(
            &PathAttributes::ebgp(AsPath::sequence([Asn(1)]), NextHop(1)),
            &mut b,
        );
        put_attr(&mut b, flags::TRANSITIVE, code::MED, &50u32.to_be_bytes());
        assert!(matches!(
            decode_attrs(&b),
            Err(WireError::BadAttributeFlags {
                code: code::MED,
                flags: 0x40
            })
        ));
    }

    #[test]
    fn truncated_attr_is_error() {
        let a = sample_attrs();
        let mut b = Vec::new();
        encode_attrs(&a, &mut b);
        let cut = &b[..b.len() - 1];
        assert!(decode_attrs(cut).is_err());
    }
}
