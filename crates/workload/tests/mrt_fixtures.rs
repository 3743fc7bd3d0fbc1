//! RFC 6396 MRT reader tests against checked-in fixture files.
//!
//! Each fixture is built byte-by-byte by a builder function below, so
//! the expected structure is explicit in the test; the checked-in file
//! under `tests/fixtures/` must be byte-identical to the builder's
//! output (regenerate with `GOLDEN_BLESS=1 cargo test -p workload`).
//! This both pins the on-disk format and documents it.

use bgp_types::{AsPath, Asn, NextHop, PathAttributes, RouterId};
use bgp_wire::{CodecConfig, Message, Nlri, UpdateMessage};
use workload::churn::TraceEvent;
use workload::mrt::{
    read_mrt, MrtError, MrtImportConfig, BGP4MP_MESSAGE, BGP4MP_MESSAGE_AS4, TDV2_PEER_INDEX_TABLE,
    TDV2_RIB_IPV4_UNICAST, TYPE_BGP4MP, TYPE_BGP4MP_ET, TYPE_TABLE_DUMP_V2,
};

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `built` against the checked-in fixture, blessing when
/// `GOLDEN_BLESS=1`.
fn check_fixture(name: &str, built: &[u8]) {
    let path = fixture_path(name);
    if std::env::var("GOLDEN_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, built).expect("write fixture");
        return;
    }
    let on_disk = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing fixture {name} ({e}); bless with GOLDEN_BLESS=1"));
    assert_eq!(
        on_disk, built,
        "fixture {name} differs from builder output; re-bless if intentional"
    );
}

fn mrt_header(out: &mut Vec<u8>, ts: u32, typ: u16, subtype: u16, len: usize) {
    out.extend_from_slice(&ts.to_be_bytes());
    out.extend_from_slice(&typ.to_be_bytes());
    out.extend_from_slice(&subtype.to_be_bytes());
    out.extend_from_slice(&(len as u32).to_be_bytes());
}

fn attrs(asn: u32, next_hop: u32) -> PathAttributes {
    PathAttributes::ebgp(AsPath::sequence([Asn(asn)]), NextHop(next_hop))
}

fn bgp_update(attrs: Option<&PathAttributes>, announce: &[&str], withdraw: &[&str]) -> Vec<u8> {
    let u = UpdateMessage {
        withdrawn: withdraw
            .iter()
            .map(|p| Nlri::plain(p.parse().unwrap()))
            .collect(),
        attrs: attrs.cloned(),
        nlri: announce
            .iter()
            .map(|p| Nlri::plain(p.parse().unwrap()))
            .collect(),
    };
    let mut b = Vec::new();
    Message::Update(u)
        .encode(&mut b, CodecConfig::plain())
        .unwrap();
    b
}

/// A BGP4MP mixed-subtype update trace: one AS4 record with a µs
/// timestamp, one classic 2-octet-AS record, one KEEPALIVE (counted
/// as unsupported), one withdraw.
fn build_bgp4mp_fixture() -> Vec<u8> {
    let mut f = Vec::new();

    // t=100s + 250000µs, AS4, peer 7018 announces 10.0.0.0/8.
    let msg = bgp_update(Some(&attrs(7018, 9001)), &["10.0.0.0/8"], &[]);
    let body_len = 4 + 12 + 8 + msg.len();
    mrt_header(&mut f, 100, TYPE_BGP4MP_ET, BGP4MP_MESSAGE_AS4, body_len);
    f.extend_from_slice(&250_000u32.to_be_bytes()); // µs
    f.extend_from_slice(&7018u32.to_be_bytes()); // peer AS (4 octets)
    f.extend_from_slice(&65000u32.to_be_bytes()); // local AS
    f.extend_from_slice(&0u16.to_be_bytes()); // ifindex
    f.extend_from_slice(&1u16.to_be_bytes()); // AFI IPv4
    f.extend_from_slice(&0x0A010101u32.to_be_bytes()); // peer IP 10.1.1.1
    f.extend_from_slice(&3u32.to_be_bytes()); // local IP = router 3
    f.extend_from_slice(&msg);

    // t=101s, classic 2-octet subtype, peer 3356 announces 11.0.0.0/8.
    let msg = bgp_update(Some(&attrs(3356, 9002)), &["11.0.0.0/8"], &[]);
    let body_len = 8 + 8 + msg.len();
    mrt_header(&mut f, 101, TYPE_BGP4MP, BGP4MP_MESSAGE, body_len);
    f.extend_from_slice(&3356u16.to_be_bytes()); // peer AS (2 octets)
    f.extend_from_slice(&65000u16.to_be_bytes()); // local AS
    f.extend_from_slice(&0u16.to_be_bytes());
    f.extend_from_slice(&1u16.to_be_bytes());
    f.extend_from_slice(&0x0A010102u32.to_be_bytes()); // peer IP 10.1.1.2
    f.extend_from_slice(&4u32.to_be_bytes()); // local IP = router 4
    f.extend_from_slice(&msg);

    // t=102s, a KEEPALIVE — well-formed, not replayable.
    let mut ka = Vec::new();
    Message::Keepalive
        .encode(&mut ka, CodecConfig::plain())
        .unwrap();
    let body_len = 4 + 12 + 8 + ka.len();
    mrt_header(&mut f, 102, TYPE_BGP4MP_ET, BGP4MP_MESSAGE_AS4, body_len);
    f.extend_from_slice(&0u32.to_be_bytes());
    f.extend_from_slice(&7018u32.to_be_bytes());
    f.extend_from_slice(&65000u32.to_be_bytes());
    f.extend_from_slice(&0u16.to_be_bytes());
    f.extend_from_slice(&1u16.to_be_bytes());
    f.extend_from_slice(&0x0A010101u32.to_be_bytes());
    f.extend_from_slice(&3u32.to_be_bytes());
    f.extend_from_slice(&ka);

    // t=103s, peer 7018 withdraws 10.0.0.0/8.
    let msg = bgp_update(None, &[], &["10.0.0.0/8"]);
    let body_len = 4 + 12 + 8 + msg.len();
    mrt_header(&mut f, 103, TYPE_BGP4MP_ET, BGP4MP_MESSAGE_AS4, body_len);
    f.extend_from_slice(&500_000u32.to_be_bytes());
    f.extend_from_slice(&7018u32.to_be_bytes());
    f.extend_from_slice(&65000u32.to_be_bytes());
    f.extend_from_slice(&0u16.to_be_bytes());
    f.extend_from_slice(&1u16.to_be_bytes());
    f.extend_from_slice(&0x0A010101u32.to_be_bytes());
    f.extend_from_slice(&3u32.to_be_bytes());
    f.extend_from_slice(&msg);

    f
}

/// A TABLE_DUMP_V2 snapshot: a peer index table with a 2-octet-AS and
/// a 4-octet-AS peer, then two RIB_IPV4_UNICAST prefixes.
fn build_table_dump_fixture() -> Vec<u8> {
    let mut f = Vec::new();

    // PEER_INDEX_TABLE: collector id, view "test", 2 peers.
    let mut pit = Vec::new();
    pit.extend_from_slice(&0xC0000201u32.to_be_bytes()); // collector BGP id
    pit.extend_from_slice(&4u16.to_be_bytes());
    pit.extend_from_slice(b"test");
    pit.extend_from_slice(&2u16.to_be_bytes());
    // Peer 0: IPv4, 2-octet AS 7018, IP 10.1.1.1.
    pit.push(0x00);
    pit.extend_from_slice(&0x0A010101u32.to_be_bytes()); // BGP id
    pit.extend_from_slice(&0x0A010101u32.to_be_bytes()); // IP
    pit.extend_from_slice(&7018u16.to_be_bytes());
    // Peer 1: IPv4, 4-octet AS 4200000000, IP 10.1.1.2.
    pit.push(0x02);
    pit.extend_from_slice(&0x0A010102u32.to_be_bytes());
    pit.extend_from_slice(&0x0A010102u32.to_be_bytes());
    pit.extend_from_slice(&4_200_000_000u32.to_be_bytes());
    mrt_header(
        &mut f,
        200,
        TYPE_TABLE_DUMP_V2,
        TDV2_PEER_INDEX_TABLE,
        pit.len(),
    );
    f.extend_from_slice(&pit);

    // RIB_IPV4_UNICAST for 10.0.0.0/8: entries from both peers.
    let a0 = {
        let mut b = Vec::new();
        bgp_wire::attr::encode_attrs(&attrs(7018, 9001), &mut b);
        b
    };
    let a1 = {
        let mut b = Vec::new();
        bgp_wire::attr::encode_attrs(&attrs(4_200_000_000, 9002), &mut b);
        b
    };
    let mut rib = Vec::new();
    rib.extend_from_slice(&0u32.to_be_bytes()); // sequence
    rib.push(8); // prefix len
    rib.push(10); // prefix bytes (1 for /8)
    rib.extend_from_slice(&2u16.to_be_bytes()); // entry count
    rib.extend_from_slice(&0u16.to_be_bytes()); // peer index 0
    rib.extend_from_slice(&200u32.to_be_bytes()); // originated time
    rib.extend_from_slice(&(a0.len() as u16).to_be_bytes());
    rib.extend_from_slice(&a0);
    rib.extend_from_slice(&1u16.to_be_bytes()); // peer index 1
    rib.extend_from_slice(&200u32.to_be_bytes());
    rib.extend_from_slice(&(a1.len() as u16).to_be_bytes());
    rib.extend_from_slice(&a1);
    mrt_header(
        &mut f,
        200,
        TYPE_TABLE_DUMP_V2,
        TDV2_RIB_IPV4_UNICAST,
        rib.len(),
    );
    f.extend_from_slice(&rib);

    // RIB_IPV4_UNICAST for 192.168.0.0/16 from peer 0 only.
    let mut rib = Vec::new();
    rib.extend_from_slice(&1u32.to_be_bytes());
    rib.push(16);
    rib.extend_from_slice(&[192, 168]);
    rib.extend_from_slice(&1u16.to_be_bytes());
    rib.extend_from_slice(&0u16.to_be_bytes());
    rib.extend_from_slice(&200u32.to_be_bytes());
    rib.extend_from_slice(&(a0.len() as u16).to_be_bytes());
    rib.extend_from_slice(&a0);
    mrt_header(
        &mut f,
        200,
        TYPE_TABLE_DUMP_V2,
        TDV2_RIB_IPV4_UNICAST,
        rib.len(),
    );
    f.extend_from_slice(&rib);

    f
}

/// The BGP4MP fixture with a garbage record spliced into the middle
/// and a truncated tail: reader must skip-and-count, not fail.
fn build_malformed_fixture() -> Vec<u8> {
    let good = build_bgp4mp_fixture();
    // The first record's total length: 12 + body.
    let first_len = 12 + u32::from_be_bytes(good[8..12].try_into().unwrap()) as usize;
    let mut f = Vec::new();
    f.extend_from_slice(&good[..first_len]);
    // A framed record whose body is garbage (valid header, junk BGP).
    let mut hdr = Vec::new();
    mrt_header(
        &mut hdr,
        100,
        TYPE_BGP4MP_ET,
        BGP4MP_MESSAGE_AS4,
        4 + 12 + 8 + 7,
    );
    f.extend_from_slice(&hdr);
    f.extend_from_slice(&[0; 4]); // µs
    f.extend_from_slice(&[0; 12]); // AS4 header (AFI 0 would skip; make AFI 1)
    let l = f.len();
    f[l - 1] = 1; // AFI = 1
    f.extend_from_slice(&[0; 8]); // addresses
    f.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22]); // junk "BGP message"
                                                                      // The rest of the good records.
    f.extend_from_slice(&good[first_len..]);
    // A truncated header at the tail.
    f.extend_from_slice(&[0, 0, 0, 99, 0, 16]);
    f
}

#[test]
fn bgp4mp_fixture_parses() {
    let built = build_bgp4mp_fixture();
    check_fixture("updates.mrt", &built);
    let imp = read_mrt(&mut &built[..], &MrtImportConfig::default()).unwrap();
    assert_eq!(imp.stats.records_read, 4);
    assert_eq!(imp.stats.updates, 3);
    assert_eq!(imp.stats.skipped_unsupported, 1, "the KEEPALIVE");
    assert_eq!(imp.stats.skipped_malformed, 0);
    assert_eq!(imp.records.len(), 3);

    // Empty-router-list import trusts local IP as the router id.
    assert_eq!(imp.records[0].router, RouterId(3));
    assert_eq!(imp.records[1].router, RouterId(4));
    // Times are relative to the first update (100s + 250000µs).
    assert_eq!(imp.records[0].t_us, 0);
    assert_eq!(imp.records[1].t_us, 750_000);
    assert_eq!(imp.records[2].t_us, 3_250_000);
    match &imp.records[0].event {
        TraceEvent::Announce {
            prefix, peer_as, ..
        } => {
            assert_eq!(prefix.to_string(), "10.0.0.0/8");
            assert_eq!(*peer_as, Asn(7018));
        }
        e => panic!("expected announce, got {e:?}"),
    }
    assert!(matches!(imp.records[2].event, TraceEvent::Withdraw { .. }));
}

#[test]
fn table_dump_v2_fixture_parses() {
    let built = build_table_dump_fixture();
    check_fixture("snapshot.mrt", &built);
    let cfg = MrtImportConfig {
        routers: vec![RouterId(1), RouterId(2)],
    };
    let imp = read_mrt(&mut &built[..], &cfg).unwrap();
    assert_eq!(imp.stats.records_read, 3);
    assert_eq!(imp.stats.rib_entries, 3);
    assert_eq!(imp.stats.skipped_malformed, 0);
    assert_eq!(imp.records.len(), 3);
    // All snapshot entries land at t = 0.
    assert!(imp.records.iter().all(|r| r.t_us == 0));
    // Peers round-robin onto the configured border routers.
    assert_eq!(imp.records[0].router, RouterId(1));
    assert_eq!(imp.records[1].router, RouterId(2));
    assert_eq!(imp.records[2].router, RouterId(1));
    // The 4-octet peer AS survives.
    match &imp.records[1].event {
        TraceEvent::Announce { peer_as, .. } => assert_eq!(*peer_as, Asn(4_200_000_000)),
        e => panic!("expected announce, got {e:?}"),
    }
}

#[test]
fn malformed_records_skip_and_count() {
    let built = build_malformed_fixture();
    check_fixture("malformed.mrt", &built);
    let imp = read_mrt(&mut &built[..], &MrtImportConfig::default()).unwrap();
    // Garbage body + truncated tail are counted, good records survive.
    assert_eq!(imp.stats.updates, 3);
    assert_eq!(imp.stats.skipped_malformed, 2);
    assert_eq!(imp.records.len(), 3);
}

#[test]
fn rib_before_index_table_is_fatal() {
    // A RIB record with no preceding PEER_INDEX_TABLE cannot resolve
    // peers — that is a Format error, not a skip.
    let full = build_table_dump_fixture();
    let pit_len = 12 + u32::from_be_bytes(full[8..12].try_into().unwrap()) as usize;
    let headless = &full[pit_len..];
    assert!(matches!(
        read_mrt(&mut &headless[..], &MrtImportConfig::default()),
        Err(MrtError::Format { offset: 0, .. })
    ));
    // Behind a record the reader skips, the error points past it.
    let mut skipped = Vec::new();
    mrt_header(&mut skipped, 0, 11, 0, 5);
    skipped.extend_from_slice(&[0; 5]);
    skipped.extend_from_slice(headless);
    assert!(matches!(
        read_mrt(&mut &skipped[..], &MrtImportConfig::default()),
        Err(MrtError::Format { offset: 17, .. })
    ));
}

#[test]
fn replays_through_tier1_pipeline() {
    // An MRT snapshot + update trace drives the same sim entry point
    // as generated churn (regen::replay) — the workload alternative
    // the paper's §4 testbed used.
    use abrr::prelude::*;
    use std::sync::Arc;

    let built = build_bgp4mp_fixture();
    let imp = read_mrt(&mut &built[..], &MrtImportConfig::default()).unwrap();
    let view = igp::PopTopologyBuilder::new(2, 3).build();
    let spec = Arc::new(NetworkSpec::full_mesh(&view.topo, Asn(65000)));
    let mut sim = build_sim(spec);
    workload::regen::replay(&mut sim, &imp.records, 1);
    let outcome = sim.run_to_quiescence();
    assert!(outcome.quiesced);
    // 10.0.0.0/8 was withdrawn at the end; 11.0.0.0/8 stays selected
    // everywhere with exit router 4 (the record's local IP).
    let p11: Ipv4Prefix = "11.0.0.0/8".parse().unwrap();
    let p10: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
    for (id, node) in sim.nodes() {
        assert!(node.selected(&p10).is_none(), "router {id:?}");
        let sel = node.selected(&p11).expect("11/8 selected");
        assert_eq!(sel.exit_router(), RouterId(4), "router {id:?}");
    }
}
