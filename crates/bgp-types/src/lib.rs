//! Core BGP data types shared by every crate in the ABRR reproduction.
//!
//! This crate is deliberately dependency-light: it defines the value types
//! that flow through the wire codec (`bgp-wire`), the RIBs and decision
//! process (`bgp-rib`), the simulator (`netsim`) and the protocol
//! engines (`abrr`).
//!
//! The major pieces are:
//!
//! * [`Ipv4Prefix`] / [`AddressRange`] — IPv4 prefixes and contiguous
//!   address ranges.
//! * [`ApMap`] — *Address Partitions*: the mapping from address ranges to
//!   the ARRs responsible for them, the heart of ABRR (paper §2.1).
//! * [`Asn`] / [`AsPath`] — autonomous-system numbers and AS_PATH values.
//! * [`PathAttributes`] — the BGP path attributes relevant to the paper
//!   (ORIGIN, AS_PATH, NEXT_HOP, MED, LOCAL_PREF, communities, extended
//!   communities, ORIGINATOR_ID, CLUSTER_LIST).
//! * [`Route`] — a prefix plus its attributes plus provenance.
//! * [`PrefixTable`] — the one prefix-keyed table under every RIB
//!   table: a [`PrefixMap`] (hashed with [`PrefixHasher`], whose every
//!   output bit depends on every bit of the prefix) plus the mask of the
//!   prefix lengths present, for longest-prefix match. Order comes from
//!   a sort, never from the hash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asn;
pub mod attrs;
pub mod fxhash;
pub mod intern;
pub mod partition;
pub mod prefix;
pub mod route;
pub mod trie;

pub use asn::{AsPath, AsSegment, Asn};
pub use attrs::{
    ClusterId, Community, ExtCommunity, LocalPref, Med, NextHop, Origin, OriginatorId,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher, PrefixHasher, PrefixMap};
pub use intern::{intern, intern_arc, intern_str, resolve_symbol, InternStats, Symbol};
pub use partition::{ApId, ApMap, Partition};
pub use prefix::{AddressRange, Ipv4Prefix, PrefixParseError};
pub use route::{PathAttributes, PathId, Route, RouteSource, RouterId};
pub use trie::{PrefixTable, PrefixTrie};
