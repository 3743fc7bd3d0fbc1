//! Deterministic pcap capture of wire-mode session traffic.
//!
//! When enabled, every encoded session burst the engines emit (one
//! call to [`record`] per [`crate::Subsystem::Wire`] egress) is buffered with
//! the same `(t, phase, seq, k)` dispatch key the trace facility uses
//! — see `trace.rs` for the determinism argument. [`drain_file`] sorts
//! by that key and renders a classic pcap file (libpcap magic
//! `0xa1b2c3d4`, LINKTYPE_ETHERNET) with *synthetic* link/network/
//! transport headers:
//!
//! * timestamps are simulated microseconds (`sec = t / 1e6`,
//!   `usec = t % 1e6`) — no wall clock anywhere;
//! * MAC (`02:00:00:00:hi:lo`) and IPv4 (`10.0.hi.lo`) addresses are
//!   derived from router ids;
//! * TCP flows run to port 179 with per-flow sequence numbers assigned
//!   *at drain time*, after the deterministic sort, so byte streams
//!   are reconstructible and the whole file is goldenable: the same
//!   scenario produces a byte-identical dump on every run and engine.
//!
//! Cost when disabled: one relaxed atomic load per [`record`] call —
//! crucially, a disabled recorder consumes no dispatch sub-key, so
//! enabling/disabling pcap never perturbs trace event keys of *other*
//! subsystems... it doesn't touch them at all.

use crate::trace;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// One captured session burst, keyed for the deterministic merge.
struct Packet {
    t: u64,
    phase: u8,
    seq: u64,
    k: u32,
    src: u32,
    dst: u32,
    payload: Vec<u8>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn sink() -> &'static Mutex<Vec<Packet>> {
    static SINK: OnceLock<Mutex<Vec<Packet>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// Flush the thread-local buffer into the sink at this many packets.
const FLUSH_AT: usize = 64;

struct LocalBuf {
    packets: RefCell<Vec<Packet>>,
}

impl LocalBuf {
    fn flush(&self) {
        let mut packets = self.packets.borrow_mut();
        if !packets.is_empty() {
            sink()
                .lock()
                // Invariant: no section under this lock can panic (each pushes,
                // extends, takes, clears or measures a `Vec`): it never poisons.
                .expect("pcap sink poisoned")
                .extend(packets.drain(..));
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        let packets = self.packets.get_mut();
        if !packets.is_empty() {
            if let Ok(mut s) = sink().lock() {
                s.extend(packets.drain(..));
            }
        }
    }
}

thread_local! {
    static LOCAL: LocalBuf = const { LocalBuf { packets: RefCell::new(Vec::new()) } };
}

/// Turns capture on (typically right before a run).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether capture is on (one relaxed load — the [`record`] fast path).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Captures one session burst sent `src → dst` at simulated time `t`.
/// No-op (and no dispatch sub-key consumed) when capture is off.
pub fn record(t: u64, src: u32, dst: u32, payload: &[u8]) {
    if !enabled() {
        return;
    }
    // Share the trace facility's dispatch stamp so packets sort
    // identically under the sequential and parallel engines.
    let (kt, phase, seq, k) = trace::next_key();
    // Inside a callback the stamp's time equals the dispatch time; use
    // it (rather than `t`) for phase-0 fallback consistency.
    let t = if phase == 1 { kt } else { t };
    let pkt = Packet {
        t,
        phase,
        seq,
        k,
        src,
        dst,
        payload: payload.to_vec(),
    };
    LOCAL.with(|l| {
        let mut packets = l.packets.borrow_mut();
        packets.push(pkt);
        if packets.len() >= FLUSH_AT {
            drop(packets);
            l.flush();
        }
    });
}

/// Flushes the calling thread's buffered packets into the shared sink.
/// Worker threads must call this before their closure returns (same
/// contract as [`trace::flush_local`], which calls this too).
pub fn flush_local() {
    LOCAL.with(|l| l.flush());
}

/// Number of buffered packets (calling thread + sink), no drain.
pub fn pending_packets() -> usize {
    let local = LOCAL.with(|l| l.packets.borrow().len());
    // Invariant: no section under this lock can panic (each pushes,
    // extends, takes, clears or measures a `Vec`): it never poisons.
    local + sink().lock().expect("pcap sink poisoned").len()
}

/// Test/run isolation: discards buffered packets and disables capture.
pub fn reset() {
    ENABLED.store(false, Ordering::Relaxed);
    LOCAL.with(|l| l.packets.borrow_mut().clear());
    // Invariant: no section under this lock can panic (each pushes,
    // extends, takes, clears or measures a `Vec`): it never poisons.
    sink().lock().expect("pcap sink poisoned").clear();
}

const ETH_LEN: usize = 14;
const IP_LEN: usize = 20;
const TCP_LEN: usize = 20;
/// BGP's well-known TCP port.
const BGP_PORT: u16 = 179;

fn mac(id: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(&[0x02, 0, 0, 0, (id >> 8) as u8, id as u8]);
}

fn ip(id: u32) -> [u8; 4] {
    [10, 0, (id >> 8) as u8, id as u8]
}

fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for pair in header.chunks(2) {
        sum += u32::from(u16::from_be_bytes([pair[0], *pair.get(1).unwrap_or(&0)]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Flushes the calling thread, drains the sink, sorts by the
/// deterministic key, and renders a classic pcap file. An empty
/// capture yields just the 24-byte global header.
pub fn drain_file() -> Vec<u8> {
    flush_local();
    // Invariant: no section under this lock can panic (each pushes,
    // extends, takes, clears or measures a `Vec`): it never poisons.
    let mut packets: Vec<Packet> = std::mem::take(&mut *sink().lock().expect("pcap sink poisoned"));
    packets.sort_by_key(|p| (p.t, p.phase, p.seq, p.k));

    let mut out = Vec::with_capacity(24 + packets.len() * 96);
    // Global header, big-endian (readers detect byte order from magic).
    out.extend_from_slice(&0xa1b2c3d4u32.to_be_bytes());
    out.extend_from_slice(&2u16.to_be_bytes()); // version major
    out.extend_from_slice(&4u16.to_be_bytes()); // version minor
    out.extend_from_slice(&0u32.to_be_bytes()); // thiszone
    out.extend_from_slice(&0u32.to_be_bytes()); // sigfigs
    out.extend_from_slice(&65535u32.to_be_bytes()); // snaplen
    out.extend_from_slice(&1u32.to_be_bytes()); // LINKTYPE_ETHERNET

    // Per-flow TCP sequence numbers, assigned post-sort so the byte
    // stream of each (src, dst) session is contiguous and the file is
    // identical however the packets were buffered.
    let mut flow_seq: std::collections::BTreeMap<(u32, u32), u32> =
        std::collections::BTreeMap::new();
    for p in &packets {
        let caplen = (ETH_LEN + IP_LEN + TCP_LEN + p.payload.len()) as u32;
        out.extend_from_slice(&((p.t / 1_000_000) as u32).to_be_bytes());
        out.extend_from_slice(&((p.t % 1_000_000) as u32).to_be_bytes());
        out.extend_from_slice(&caplen.to_be_bytes());
        out.extend_from_slice(&caplen.to_be_bytes());
        // Ethernet.
        mac(p.dst, &mut out);
        mac(p.src, &mut out);
        out.extend_from_slice(&0x0800u16.to_be_bytes());
        // IPv4.
        let total = (IP_LEN + TCP_LEN + p.payload.len()) as u16;
        let mut iph = Vec::with_capacity(IP_LEN);
        iph.extend_from_slice(&[0x45, 0]);
        iph.extend_from_slice(&total.to_be_bytes());
        iph.extend_from_slice(&[0, 0, 0x40, 0, 64, 6, 0, 0]); // id/frag DF/ttl/proto/cksum
        iph.extend_from_slice(&ip(p.src));
        iph.extend_from_slice(&ip(p.dst));
        let ck = ipv4_checksum(&iph);
        iph[10..12].copy_from_slice(&ck.to_be_bytes());
        out.extend_from_slice(&iph);
        // TCP: both ends use the BGP port; per-flow cumulative seq.
        let seq = flow_seq.entry((p.src, p.dst)).or_insert(1);
        out.extend_from_slice(&BGP_PORT.to_be_bytes());
        out.extend_from_slice(&BGP_PORT.to_be_bytes());
        out.extend_from_slice(&seq.to_be_bytes());
        out.extend_from_slice(&0u32.to_be_bytes()); // ack
        out.extend_from_slice(&[0x50, 0x18]); // data offset 5, PSH|ACK
        out.extend_from_slice(&65535u16.to_be_bytes());
        out.extend_from_slice(&0u32.to_be_bytes()); // checksum + urgent
        *seq = seq.wrapping_add(p.payload.len() as u32);
        out.extend_from_slice(&p.payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        reset();
        record(5, 1, 2, &[1, 2, 3]);
        assert_eq!(pending_packets(), 0);
        assert_eq!(drain_file().len(), 24);
    }

    #[test]
    fn deterministic_across_buffering_orders() {
        let _g = guard();
        reset();
        enable();
        trace::set_dispatch(10, 3);
        record(10, 1, 2, b"abc");
        trace::set_dispatch(5, 1);
        record(5, 2, 1, b"xy");
        trace::clear_dispatch();
        let a = drain_file();
        // Same packets, recorded in the other order.
        enable();
        trace::set_dispatch(5, 1);
        record(5, 2, 1, b"xy");
        trace::set_dispatch(10, 3);
        record(10, 1, 2, b"abc");
        trace::clear_dispatch();
        let b = drain_file();
        assert_eq!(a, b);
        assert_ne!(a.len(), 24);
        reset();
        trace::reset();
    }

    #[test]
    fn file_structure_parses() {
        let _g = guard();
        reset();
        enable();
        record(1_500_000, 3, 4, &[0xFF; 23]);
        record(1_500_000, 3, 4, &[0xEE; 19]);
        let f = drain_file();
        assert_eq!(&f[0..4], &0xa1b2c3d4u32.to_be_bytes());
        // First record header starts at 24.
        let sec = u32::from_be_bytes(f[24..28].try_into().unwrap());
        let usec = u32::from_be_bytes(f[28..32].try_into().unwrap());
        assert_eq!((sec, usec), (1, 500_000));
        let caplen = u32::from_be_bytes(f[32..36].try_into().unwrap()) as usize;
        assert_eq!(caplen, 14 + 20 + 20 + 23);
        // Second packet's TCP seq continues the flow byte stream.
        let p2 = 24 + 16 + caplen + 16;
        let tcp2 = p2 + 14 + 20;
        let seq2 = u32::from_be_bytes(f[tcp2 + 4..tcp2 + 8].try_into().unwrap());
        assert_eq!(seq2, 1 + 23);
        reset();
    }
}
