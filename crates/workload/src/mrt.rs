//! RFC 6396 MRT routing-information export format: reader and writer.
//!
//! The paper replays "MRT-format routing trace" files through route
//! regenerators (§4). This module parses the two record families such
//! a trace actually contains — exactly what a RouteViews / RIPE-RIS
//! collector emits — and maps them onto [`TraceRecord`]s for
//! [`crate::regen::replay`]:
//!
//! * **BGP4MP** (type 16; `_ET` variant type 17) `MESSAGE` /
//!   `MESSAGE_AS4` records each carry one raw RFC 4271 BGP message.
//!   UPDATEs become [`TraceEvent::Announce`]/[`TraceEvent::Withdraw`]
//!   records timed relative to the first update's timestamp;
//!   KEEPALIVE/OPEN/NOTIFICATION records are counted and dropped.
//! * **TABLE_DUMP_V2** (type 13) `PEER_INDEX_TABLE` + `RIB_IPV4_UNICAST`
//!   records describe a RIB snapshot; every RIB entry becomes a `t = 0`
//!   announcement (the replay's initial table, standing in for the
//!   session-establishment full feed).
//!
//! MRT has no notion of *which of our routers* a feed targets (a
//! collector is a single vantage point), so the importer assigns each
//! distinct peer to a border router: round-robin over
//! [`MrtImportConfig::routers`] in order of first appearance — or,
//! when that list is empty, the record's *local IP* is trusted as a
//! router id (the convention [`write_mrt`] uses, making
//! export → import lossless for self-produced files).
//!
//! Malformed records are *skipped and counted*, never fatal: the MRT
//! common header's length field frames each record, so one corrupt
//! body cannot desynchronize the stream (a trace collected over weeks
//! routinely has a few). Only a corrupt header (truncated mid-record)
//! ends the read early, also counted.

use crate::churn::{TraceEvent, TraceRecord};
use bgp_types::{Asn, Ipv4Prefix, PathAttributes, RouterId};
use bgp_wire::{CodecConfig, Message, UpdateMessage};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};

/// MRT type: BGP4MP (RFC 6396 §4.4).
pub const TYPE_BGP4MP: u16 = 16;
/// MRT type: BGP4MP_ET — BGP4MP with an extended (µs) timestamp.
pub const TYPE_BGP4MP_ET: u16 = 17;
/// MRT type: TABLE_DUMP_V2 (RFC 6396 §4.3).
pub const TYPE_TABLE_DUMP_V2: u16 = 13;
/// BGP4MP subtype: BGP message with 2-octet AS fields.
pub const BGP4MP_MESSAGE: u16 = 1;
/// BGP4MP subtype: BGP message with 4-octet AS fields.
pub const BGP4MP_MESSAGE_AS4: u16 = 4;
/// TABLE_DUMP_V2 subtype: the peer index table.
pub const TDV2_PEER_INDEX_TABLE: u16 = 1;
/// TABLE_DUMP_V2 subtype: one IPv4 unicast RIB prefix.
pub const TDV2_RIB_IPV4_UNICAST: u16 = 2;

/// Errors that end an MRT read (per-record corruption does NOT — see
/// module docs; it is skipped and counted in [`MrtStats`]).
#[derive(Debug)]
pub enum MrtError {
    /// I/O failure.
    Io(io::Error),
    /// The file cannot be a usable trace at all (e.g. empty, or a RIB
    /// entry references a peer index with no preceding index table).
    Format {
        /// Byte offset, in the input (or, when writing, the output), of
        /// the record that failed.
        offset: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl From<io::Error> for MrtError {
    fn from(e: io::Error) -> Self {
        MrtError::Io(e)
    }
}

impl std::fmt::Display for MrtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrtError::Io(e) => write!(f, "MRT I/O error: {e}"),
            MrtError::Format { offset, reason } => {
                write!(f, "MRT format error at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for MrtError {}

/// How MRT peers map onto simulated border routers.
#[derive(Clone, Debug, Default)]
pub struct MrtImportConfig {
    /// Border routers to spread the collector's peers over,
    /// round-robin in order of first appearance. Empty = trust the
    /// record's local IP as a literal router id (self-produced files).
    pub routers: Vec<RouterId>,
}

/// Per-read accounting, including the skip-and-count tallies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MrtStats {
    /// MRT records whose header was read.
    pub records_read: u64,
    /// BGP4MP UPDATE messages converted to trace records.
    pub updates: u64,
    /// TABLE_DUMP_V2 RIB entries converted to `t = 0` announcements.
    pub rib_entries: u64,
    /// Records with parseable headers but unusable bodies (bad BGP
    /// message, bad attribute block, truncated fields) — skipped.
    pub skipped_malformed: u64,
    /// Well-formed records of types/subtypes we do not replay
    /// (KEEPALIVEs, OSPF records, IPv6 RIBs…) — skipped.
    pub skipped_unsupported: u64,
}

/// The result of [`read_mrt`]: replayable records plus accounting.
#[derive(Clone, Debug)]
pub struct MrtImport {
    /// Records in file order, timed for [`crate::regen::replay`]
    /// (RIB-snapshot entries at `t = 0`, updates relative to the first
    /// update's timestamp).
    pub records: Vec<TraceRecord>,
    /// What was read, converted, and skipped.
    pub stats: MrtStats,
}

/// One peer learned from a PEER_INDEX_TABLE or a BGP4MP header.
#[derive(Clone, Copy, Debug)]
struct Peer {
    asn: Asn,
    addr: u32,
}

/// Deterministic peer→router assignment (see module docs).
struct PeerMap<'a> {
    cfg: &'a MrtImportConfig,
    assigned: BTreeMap<u32, RouterId>,
}

impl<'a> PeerMap<'a> {
    fn new(cfg: &'a MrtImportConfig) -> Self {
        PeerMap {
            cfg,
            assigned: BTreeMap::new(),
        }
    }

    fn router_for(&mut self, peer_addr: u32, local_ip: u32) -> RouterId {
        if self.cfg.routers.is_empty() {
            return RouterId(local_ip);
        }
        let next = self.cfg.routers[self.assigned.len() % self.cfg.routers.len()];
        *self.assigned.entry(peer_addr).or_insert(next)
    }
}

fn take<'a>(buf: &mut &'a [u8], n: usize, what: &'static str) -> Result<&'a [u8], String> {
    if buf.len() < n {
        return Err(format!("truncated {what}: need {n}, have {}", buf.len()));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// A big-endian `u16` taken off the front of `buf`.
fn take_u16(buf: &mut &[u8], what: &'static str) -> Result<u16, String> {
    let b = take(buf, 2, what)?;
    Ok(u16::from_be_bytes([b[0], b[1]]))
}

/// Parses one BGP4MP(_ET) body into trace records.
fn parse_bgp4mp(
    mut body: &[u8],
    subtype: u16,
    t_us: u64,
    peers: &mut PeerMap<'_>,
    out: &mut Vec<TraceRecord>,
    stats: &mut MrtStats,
) -> Result<(), String> {
    let buf = &mut body;
    // Both layouts are `peer AS | local AS | ifindex u16 | AFI u16`
    // with 2-octet (MESSAGE) or 4-octet (MESSAGE_AS4) AS fields.
    let (peer_as, afi) = match subtype {
        BGP4MP_MESSAGE => {
            let h = take(buf, 8, "BGP4MP header")?;
            (
                Asn(u16::from_be_bytes([h[0], h[1]]) as u32),
                u16::from_be_bytes([h[6], h[7]]),
            )
        }
        BGP4MP_MESSAGE_AS4 => {
            let h = take(buf, 12, "BGP4MP_AS4 header")?;
            (
                Asn(u32::from_be_bytes([h[0], h[1], h[2], h[3]])),
                u16::from_be_bytes([h[10], h[11]]),
            )
        }
        _ => return Err(format!("BGP4MP subtype {subtype}")),
    };
    if afi != 1 {
        // IPv6 session: structurally fine, not replayable here.
        stats.skipped_unsupported += 1;
        return Ok(());
    }
    let addrs = take(buf, 8, "BGP4MP addresses")?;
    let peer_ip = u32::from_be_bytes([addrs[0], addrs[1], addrs[2], addrs[3]]);
    let local_ip = u32::from_be_bytes([addrs[4], addrs[5], addrs[6], addrs[7]]);
    let router = peers.router_for(peer_ip, local_ip);

    // The rest is one raw BGP message; frame and parse it in place.
    let msg = match Message::decode(buf, CodecConfig::plain()) {
        Ok(Some(m)) => m,
        Ok(None) | Err(_) => {
            stats.skipped_malformed += 1;
            return Ok(());
        }
    };
    let u: UpdateMessage = match msg {
        Message::Update(u) => u,
        // Session-management messages are valid but not replayable.
        _ => {
            stats.skipped_unsupported += 1;
            return Ok(());
        }
    };
    let attrs = u.attrs.map(bgp_types::intern);
    for n in &u.withdrawn {
        out.push(TraceRecord {
            t_us,
            router,
            event: TraceEvent::Withdraw {
                prefix: n.prefix,
                peer_addr: peer_ip,
            },
        });
    }
    if !u.nlri.is_empty() {
        let attrs = match &attrs {
            Some(a) => a,
            None => {
                stats.skipped_malformed += 1;
                return Ok(());
            }
        };
        for n in &u.nlri {
            out.push(TraceRecord {
                t_us,
                router,
                event: TraceEvent::Announce {
                    prefix: n.prefix,
                    peer_as,
                    peer_addr: peer_ip,
                    attrs: attrs.clone(),
                },
            });
        }
    }
    stats.updates += 1;
    Ok(())
}

/// Parses a PEER_INDEX_TABLE body into the peer vector.
fn parse_peer_index(mut body: &[u8]) -> Result<Vec<Peer>, String> {
    let buf = &mut body;
    let _collector = take(buf, 4, "collector id")?;
    let nlen = take_u16(buf, "view name len")? as usize;
    let _name = take(buf, nlen, "view name")?;
    let count = take_u16(buf, "peer count")? as usize;
    let mut peers = Vec::with_capacity(count);
    for _ in 0..count {
        let ptype = take(buf, 1, "peer type")?[0];
        let ipv6 = ptype & 0x01 != 0;
        let as4 = ptype & 0x02 != 0;
        let _bgp_id = take(buf, 4, "peer BGP id")?;
        let ip = take(buf, if ipv6 { 16 } else { 4 }, "peer IP")?;
        let asn = if as4 {
            let a = take(buf, 4, "peer AS")?;
            Asn(u32::from_be_bytes([a[0], a[1], a[2], a[3]]))
        } else {
            let a = take(buf, 2, "peer AS")?;
            Asn(u16::from_be_bytes([a[0], a[1]]) as u32)
        };
        let addr = if ipv6 {
            // IPv6 peers cannot originate IPv4 sessions here; key them
            // by the low 32 bits so indices still resolve.
            u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]])
        } else {
            u32::from_be_bytes([ip[0], ip[1], ip[2], ip[3]])
        };
        peers.push(Peer { asn, addr });
    }
    Ok(peers)
}

/// Parses one RIB_IPV4_UNICAST body into `t = 0` announcements.
fn parse_rib_entry(
    mut body: &[u8],
    index: &[Peer],
    peers: &mut PeerMap<'_>,
    out: &mut Vec<TraceRecord>,
    stats: &mut MrtStats,
) -> Result<(), String> {
    let buf = &mut body;
    let _seq = take(buf, 4, "RIB sequence")?;
    let plen = take(buf, 1, "RIB prefix len")?[0];
    if plen > 32 {
        return Err(format!("RIB prefix length {plen}"));
    }
    let nbytes = (plen as usize).div_ceil(8);
    let praw = take(buf, nbytes, "RIB prefix")?;
    let mut octets = [0u8; 4];
    octets[..nbytes].copy_from_slice(praw);
    let prefix = Ipv4Prefix::new(u32::from_be_bytes(octets), plen);
    let count = take_u16(buf, "RIB entry count")? as usize;
    for _ in 0..count {
        let h = take(buf, 8, "RIB entry header")?;
        let peer_idx = u16::from_be_bytes([h[0], h[1]]) as usize;
        let alen = u16::from_be_bytes([h[6], h[7]]) as usize;
        let ablock = take(buf, alen, "RIB entry attributes")?;
        let Some(peer) = index.get(peer_idx) else {
            return Err(format!("peer index {peer_idx} out of range"));
        };
        let attrs: PathAttributes = match bgp_wire::attr::decode_attrs(ablock) {
            Ok(a) => a,
            Err(_) => {
                stats.skipped_malformed += 1;
                continue;
            }
        };
        let router = peers.router_for(peer.addr, peer.addr);
        out.push(TraceRecord {
            t_us: 0,
            router,
            event: TraceEvent::Announce {
                prefix,
                peer_as: peer.asn,
                peer_addr: peer.addr,
                attrs: bgp_types::intern(attrs),
            },
        });
        stats.rib_entries += 1;
    }
    Ok(())
}

/// Reads an RFC 6396 MRT file into replayable [`TraceRecord`]s.
/// Per-record corruption is skipped and counted (see module docs).
pub fn read_mrt(input: &mut impl Read, cfg: &MrtImportConfig) -> Result<MrtImport, MrtError> {
    let mut raw = Vec::new();
    input.read_to_end(&mut raw)?;
    let mut buf = &raw[..];
    let mut stats = MrtStats::default();
    let mut records = Vec::new();
    let mut peers = PeerMap::new(cfg);
    let mut index: Vec<Peer> = Vec::new();
    // Base timestamp of the first BGP4MP record: updates replay
    // relative to it so traces start at t = 0 like generated churn.
    let mut base_ts: Option<u64> = None;

    while !buf.is_empty() {
        // Where this record starts, for a fatal error's offset.
        let at = raw.len() - buf.len();
        let Some((header, rest)) = buf.split_first_chunk::<12>() else {
            // Corrupt tail: header cut mid-record.
            stats.skipped_malformed += 1;
            break;
        };
        let [t0, t1, t2, t3, y0, y1, s0, s1, l0, l1, l2, l3] = *header;
        let ts = u32::from_be_bytes([t0, t1, t2, t3]) as u64;
        let typ = u16::from_be_bytes([y0, y1]);
        let subtype = u16::from_be_bytes([s0, s1]);
        let len = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
        buf = rest;
        if buf.len() < len {
            stats.skipped_malformed += 1;
            break;
        }
        let (body, rest) = buf.split_at(len);
        buf = rest;
        stats.records_read += 1;

        match (typ, subtype) {
            (TYPE_BGP4MP | TYPE_BGP4MP_ET, BGP4MP_MESSAGE | BGP4MP_MESSAGE_AS4) => {
                // BGP4MP_ET carries an extra µs field before the body.
                let (us, body) = if typ == TYPE_BGP4MP_ET {
                    let Some((us, body)) = body.split_first_chunk::<4>() else {
                        stats.skipped_malformed += 1;
                        continue;
                    };
                    (u32::from_be_bytes(*us) as u64, body)
                } else {
                    (0, body)
                };
                let abs_us = ts * 1_000_000 + us;
                let base = *base_ts.get_or_insert(abs_us);
                let t_us = abs_us.saturating_sub(base);
                if parse_bgp4mp(body, subtype, t_us, &mut peers, &mut records, &mut stats).is_err()
                {
                    stats.skipped_malformed += 1;
                }
            }
            (TYPE_TABLE_DUMP_V2, TDV2_PEER_INDEX_TABLE) => match parse_peer_index(body) {
                Ok(p) => index = p,
                Err(_) => stats.skipped_malformed += 1,
            },
            (TYPE_TABLE_DUMP_V2, TDV2_RIB_IPV4_UNICAST) => {
                if index.is_empty() {
                    return Err(MrtError::Format {
                        offset: at,
                        reason: "RIB_IPV4_UNICAST before PEER_INDEX_TABLE".into(),
                    });
                }
                if parse_rib_entry(body, &index, &mut peers, &mut records, &mut stats).is_err() {
                    stats.skipped_malformed += 1;
                }
            }
            _ => stats.skipped_unsupported += 1,
        }
    }
    if stats.records_read == 0 {
        // Nothing framed a record, so the first one, at 0, failed.
        return Err(MrtError::Format {
            offset: 0,
            reason: "no MRT records".into(),
        });
    }
    Ok(MrtImport { records, stats })
}

/// Writes `records` as BGP4MP_ET MESSAGE_AS4 records (one UPDATE per
/// trace record), encoding the target router id as the local IP so
/// [`read_mrt`] with an empty router list round-trips losslessly.
/// Used to build fixtures and to export generated churn for external
/// MRT tooling.
pub fn write_mrt(out: &mut impl Write, records: &[TraceRecord]) -> Result<(), MrtError> {
    let mut file = Vec::new();
    for r in records {
        let (peer_as, peer_addr, update) = match &r.event {
            TraceEvent::Announce {
                prefix,
                peer_as,
                peer_addr,
                attrs,
            } => (
                *peer_as,
                *peer_addr,
                UpdateMessage::announce((**attrs).clone(), vec![bgp_wire::Nlri::plain(*prefix)]),
            ),
            TraceEvent::Withdraw { prefix, peer_addr } => (
                Asn(0),
                *peer_addr,
                UpdateMessage::withdraw(vec![bgp_wire::Nlri::plain(*prefix)]),
            ),
        };
        let mut msg = Vec::new();
        Message::Update(update)
            .encode(&mut msg, CodecConfig::plain())
            .map_err(|e| MrtError::Format {
                offset: file.len(),
                reason: format!("unencodable record: {e}"),
            })?;
        let body_len = 4 + 12 + 8 + msg.len(); // µs + AS4 header + addresses + message
        file.extend_from_slice(&((r.t_us / 1_000_000) as u32).to_be_bytes());
        file.extend_from_slice(&TYPE_BGP4MP_ET.to_be_bytes());
        file.extend_from_slice(&BGP4MP_MESSAGE_AS4.to_be_bytes());
        file.extend_from_slice(&(body_len as u32).to_be_bytes());
        file.extend_from_slice(&((r.t_us % 1_000_000) as u32).to_be_bytes());
        file.extend_from_slice(&peer_as.0.to_be_bytes()); // peer AS
        file.extend_from_slice(&65000u32.to_be_bytes()); // local AS
        file.extend_from_slice(&0u16.to_be_bytes()); // interface index
        file.extend_from_slice(&1u16.to_be_bytes()); // AFI: IPv4
        file.extend_from_slice(&peer_addr.to_be_bytes()); // peer IP
        file.extend_from_slice(&r.router.0.to_be_bytes()); // local IP = router id (see docs)
        file.extend_from_slice(&msg);
    }
    out.write_all(&file)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, NextHop};

    fn rec_announce(t_us: u64, router: u32, prefix: &str, asn: u32) -> TraceRecord {
        TraceRecord {
            t_us,
            router: RouterId(router),
            event: TraceEvent::Announce {
                prefix: prefix.parse().unwrap(),
                peer_as: Asn(asn),
                peer_addr: 9000 + asn,
                attrs: bgp_types::intern(PathAttributes::ebgp(
                    AsPath::sequence([Asn(asn)]),
                    NextHop(9000 + asn),
                )),
            },
        }
    }

    #[test]
    fn export_import_roundtrip() {
        let recs = vec![
            rec_announce(0, 3, "10.0.0.0/8", 7018),
            rec_announce(1_500_000, 4, "11.0.0.0/8", 3356),
            TraceRecord {
                t_us: 2_000_001,
                router: RouterId(3),
                event: TraceEvent::Withdraw {
                    prefix: "10.0.0.0/8".parse().unwrap(),
                    peer_addr: 9000 + 7018,
                },
            },
        ];
        let mut file = Vec::new();
        write_mrt(&mut file, &recs).unwrap();
        let imp = read_mrt(&mut &file[..], &MrtImportConfig::default()).unwrap();
        assert_eq!(imp.stats.updates, 3);
        assert_eq!(imp.stats.skipped_malformed, 0);
        assert_eq!(imp.records.len(), 3);
        for (a, b) in recs.iter().zip(&imp.records) {
            assert_eq!(a.t_us, b.t_us);
            assert_eq!(a.router, b.router);
            assert_eq!(a.event.prefix(), b.event.prefix());
        }
    }

    #[test]
    fn round_robin_peer_mapping() {
        let recs = vec![
            rec_announce(0, 99, "10.0.0.0/8", 1),
            rec_announce(0, 99, "11.0.0.0/8", 2),
            rec_announce(1, 99, "12.0.0.0/8", 1),
        ];
        let mut file = Vec::new();
        write_mrt(&mut file, &recs).unwrap();
        let cfg = MrtImportConfig {
            routers: vec![RouterId(5), RouterId(6)],
        };
        let imp = read_mrt(&mut &file[..], &cfg).unwrap();
        // Peer 9001 → router 5, peer 9002 → router 6, 9001 again → 5.
        let routers: Vec<u32> = imp.records.iter().map(|r| r.router.0).collect();
        assert_eq!(routers, vec![5, 6, 5]);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(matches!(
            read_mrt(&mut &[][..], &MrtImportConfig::default()),
            Err(MrtError::Format { offset: 0, .. })
        ));
    }
}
