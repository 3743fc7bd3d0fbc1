//! The RFC 6396 MRT reader faces files from outside: whatever bytes it
//! is given, `read_mrt` must return `Ok` or an `MrtError` — never
//! panic. Swept over arbitrary bytes, over MRT-shaped records with
//! random bodies, and over mutations of the three checked-in fixtures:
//! every single-byte overwrite with 0x00 / 0x80 / 0xff, random
//! multi-byte edits, and each record's MRT length field set to 0 and
//! to `u32::MAX`. Each input is read both with an empty router list
//! (local IP as router id) and with a non-empty one (round-robin peer
//! assignment), and every format error's byte offset must lie within
//! the input.

use bgp_types::RouterId;
use proptest::prelude::*;
use proptest::TestRng;
use workload::mrt::{
    read_mrt, MrtError, MrtImportConfig, BGP4MP_MESSAGE, BGP4MP_MESSAGE_AS4, TDV2_PEER_INDEX_TABLE,
    TDV2_RIB_IPV4_UNICAST, TYPE_BGP4MP, TYPE_BGP4MP_ET, TYPE_TABLE_DUMP_V2,
};

/// Reads `bytes` under both peer-mapping configurations. Returning at
/// all — `Ok` or `Err(MrtError)` — is the contract; a panic fails the
/// test. A format error must point at a byte of the input (at 0 for
/// an empty one).
fn read(bytes: &[u8]) {
    for routers in [vec![], vec![RouterId(1), RouterId(2), RouterId(3)]] {
        let read = read_mrt(&mut &bytes[..], &MrtImportConfig { routers });
        if let Err(MrtError::Format { offset, reason }) = read {
            assert!(
                offset < bytes.len().max(1),
                "{reason}: offset {offset} outside {} input bytes",
                bytes.len()
            );
        }
    }
}

fn fixtures() -> Vec<(String, Vec<u8>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    ["malformed.mrt", "snapshot.mrt", "updates.mrt"]
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(name)).expect("read fixture");
            (name.to_string(), bytes)
        })
        .collect()
}

/// The byte offsets of each record's 4-byte MRT length field, walking
/// the headers as the reader does.
fn length_fields(bytes: &[u8]) -> Vec<usize> {
    let mut fields = Vec::new();
    let mut at = 0;
    while at + 12 <= bytes.len() {
        fields.push(at + 8);
        let len = u32::from_be_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
        at += 12 + len;
    }
    fields
}

/// (type, subtype) pairs the reader dispatches on, plus one it skips.
const RECORD_KINDS: [(u16, u16); 7] = [
    (TYPE_BGP4MP, BGP4MP_MESSAGE),
    (TYPE_BGP4MP, BGP4MP_MESSAGE_AS4),
    (TYPE_BGP4MP_ET, BGP4MP_MESSAGE),
    (TYPE_BGP4MP_ET, BGP4MP_MESSAGE_AS4),
    (TYPE_TABLE_DUMP_V2, TDV2_PEER_INDEX_TABLE),
    (TYPE_TABLE_DUMP_V2, TDV2_RIB_IPV4_UNICAST),
    (11, 0),
];

proptest! {
    #[test]
    fn arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        read(&bytes);
    }

    /// Well-framed records of every kind the reader parses, with random
    /// bodies, so the sweep gets past the header into the body parsers.
    #[test]
    fn mrt_shaped_records(
        records in prop::collection::vec(
            (prop::sample::select(RECORD_KINDS.to_vec()), prop::collection::vec(any::<u8>(), 0..96)),
            1..8,
        )
    ) {
        let mut bytes = Vec::new();
        for (i, ((typ, subtype), body)) in records.iter().enumerate() {
            bytes.extend_from_slice(&(i as u32).to_be_bytes());
            bytes.extend_from_slice(&typ.to_be_bytes());
            bytes.extend_from_slice(&subtype.to_be_bytes());
            bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
            bytes.extend_from_slice(body);
        }
        read(&bytes);
    }
}

#[test]
fn every_single_byte_overwrite_of_every_fixture() {
    for (_, bytes) in fixtures() {
        for at in 0..bytes.len() {
            for value in [0x00, 0x80, 0xff] {
                let mut edited = bytes.clone();
                edited[at] = value;
                read(&edited);
            }
        }
    }
}

/// Edit rounds per fixture.
const MULTI_EDITS: usize = 300;

#[test]
fn random_multi_byte_edits_of_every_fixture() {
    for (name, bytes) in fixtures() {
        let mut rng = TestRng::seed(proptest::seed_of(&name));
        for _ in 0..MULTI_EDITS {
            let mut edited = bytes.clone();
            for _ in 0..2 + rng.below(7) {
                let at = rng.below(edited.len() as u64 + 1) as usize;
                let byte = rng.below(256) as u8;
                match rng.below(3) {
                    0 if at < edited.len() => edited[at] = byte,
                    1 if at < edited.len() => {
                        edited.remove(at);
                    }
                    _ => edited.insert(at, byte),
                }
            }
            read(&edited);
        }
    }
}

#[test]
fn each_mrt_length_field_at_zero_and_max() {
    for (name, bytes) in fixtures() {
        let fields = length_fields(&bytes);
        assert!(fields.len() >= 2, "{name}: expected several records");
        for at in fields {
            for len in [0, u32::MAX] {
                let mut edited = bytes.clone();
                edited[at..at + 4].copy_from_slice(&len.to_be_bytes());
                read(&edited);
            }
        }
    }
}
