//! Wire-level walkthrough: an ARR and a client exchange OPENs carrying
//! the 4-octet-AS and add-paths capabilities as real RFC 4271 bytes,
//! then an ARR-style best-AS-level route set crosses the session as
//! genuine add-paths UPDATE bytes — the paper's "no new BGP message
//! formats, though it does require ... add-paths" claim (§1),
//! demonstrated on the codec alone.
//!
//! Run with: `cargo run --example wire_session`

use bgp_types::{AsPath, Asn, Ipv4Prefix, NextHop, OriginatorId, PathAttributes, PathId};
use bgp_wire::{AddPathMode, CodecConfig, Message, Nlri, OpenMessage, UpdateMessage};

/// Encodes `msg`, prints its wire size, and decodes it on the far side
/// (a crude in-memory TCP: exactly one message per buffer). Returns
/// the decoded message and the bytes it cost.
fn across_the_wire(msg: &Message, cfg: CodecConfig) -> (Message, usize) {
    let mut bytes = Vec::new();
    msg.encode(&mut bytes, cfg).expect("encodable message");
    let len = bytes.len();
    println!("  --> {:?} ({len} bytes on the wire)", msg.message_type());
    let mut rest = &bytes[..];
    let back = Message::decode(&mut rest, cfg)
        .expect("well-formed bytes")
        .expect("one whole message");
    assert!(rest.is_empty(), "no trailing bytes");
    (back, len)
}

fn main() {
    println!("[1] capability exchange");
    // An ARR (id 1) and a client (id 9) in a 4-octet AS, both
    // advertising add-paths in both directions. OPENs are parsed before
    // anything is negotiated, hence the plain codec.
    const ASN: u32 = 4_200_000_000;
    let received: Vec<OpenMessage> = [1u32, 9]
        .into_iter()
        .map(|bgp_id| {
            let open = OpenMessage::new(ASN, 180, bgp_id, Some(AddPathMode::Both));
            let (Message::Open(peer), _) =
                across_the_wire(&Message::Open(open), CodecConfig::plain())
            else {
                panic!("OPEN decoded as another message type");
            };
            println!(
                "  <-- OPEN from id {}: AS{}, hold {}s, add-paths {:?}",
                peer.bgp_id,
                peer.asn(),
                peer.hold_time,
                peer.add_paths_mode()
            );
            assert_eq!(peer.asn(), ASN, "4-octet AS survives AS_TRANS");
            peer
        })
        .collect();
    // Add-paths NLRI is used only if both ends offered send + receive.
    let codec = if received
        .iter()
        .all(|o| o.add_paths_mode() == Some(AddPathMode::Both))
    {
        CodecConfig::with_add_paths()
    } else {
        CodecConfig::plain()
    };
    assert!(codec.add_paths, "ABRR requires add-paths (§1)");

    println!("\n[2] the ARR sends its best AS-level route set (3 exits)");
    let prefix: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
    // Three routes tying on AS-level criteria, one per originating
    // border router; path id = originator (the engine's convention).
    let mk = |originator: u32| {
        let mut a = PathAttributes::ebgp(
            AsPath::sequence([Asn(7018), Asn(64999)]),
            NextHop(originator),
        );
        a.local_pref = Some(bgp_types::LocalPref(100));
        a.originator_id = Some(OriginatorId(originator));
        a.with_abrr_reflected()
    };
    // One UPDATE per distinct attribute set, sharing the session.
    let mut total_bytes = 0usize;
    for originator in [11u32, 12, 13] {
        let update = UpdateMessage::announce(
            mk(originator),
            vec![Nlri::with_path_id(prefix, PathId(originator))],
        );
        let (Message::Update(u), len) = across_the_wire(&Message::Update(update), codec) else {
            panic!("UPDATE decoded as another message type");
        };
        total_bytes += len;
        let nlri = &u.nlri[0];
        let attrs = u.attrs.as_ref().expect("announce carries attributes");
        println!(
            "  <-- delivered path id {:?} for {} via {:?} (reflected={})",
            nlri.path_id.expect("add-paths NLRI carries a path id"),
            nlri.prefix,
            attrs.next_hop,
            attrs.is_abrr_reflected(),
        );
    }
    println!("  total wire cost for the 3-route set: {total_bytes} bytes");
}
