//! The prefix index a simulated network shares.
//!
//! Every full table of a router — its Loc-RIB and each role's
//! Adj-RIB-In — is a column over a [`PrefixIndex`] (prefix → dense
//! [`PrefixId`]). The routers of one network hear of the same prefixes,
//! so [`crate::spec::build_sim`] creates *one* index and hands every
//! [`crate::BgpNode`] a [`SharedIndex`] to it: the index costs bytes per
//! distinct prefix per network, not per prefix per router.
//!
//! # Ids
//!
//! An id is handed out the first time any router of the network
//! resolves its prefix, and is never recycled: a router restart clears
//! the router's rows and keeps every id. Under the sharded engine the
//! order of first sight, and so the ids, follows thread interleaving.
//! Ids therefore must never reach observable output: every ordered walk
//! sorts by prefix and filters on the column (`bgp_rib::store`'s
//! determinism contract).
//!
//! # Lock discipline
//!
//! The window engine runs nodes on worker threads, so the index sits
//! behind one `Mutex`. It is held for one probe (`SharedIndex::resolve`,
//! `SharedIndex::id`) or one walk (`SharedIndex::read`) at a time.
//! A walk's closure is handed the `&PrefixIndex` alone and reads it
//! with the tables over it (a column's ordered walk, a role's
//! `known_prefixes_in` or `drop_peer`). Nothing a walk runs can reach a
//! [`SharedIndex`], the interner, the obs registry or the simulator, so
//! the lock is never held while anything that could take it again runs.

use bgp_rib::{PrefixId, PrefixIndex};
use bgp_types::Ipv4Prefix;
use std::sync::{Arc, Mutex, MutexGuard};

/// A handle to the one prefix index of a simulated network; clones
/// share it.
#[derive(Clone, Default)]
pub struct SharedIndex(Arc<Mutex<PrefixIndex>>);

impl SharedIndex {
    /// A new, empty index: one per network.
    pub fn new() -> Self {
        SharedIndex::default()
    }

    fn lock(&self) -> MutexGuard<'_, PrefixIndex> {
        // Invariant: the lock is poisoned only by a panic inside a probe
        // or walk, which is a bug that has already failed the run.
        self.0.lock().expect("prefix index lock poisoned")
    }

    /// The id of `prefix`, handing out the next one on first sight in
    /// the network ([`PrefixIndex::resolve`]).
    pub(crate) fn resolve(&self, prefix: Ipv4Prefix) -> PrefixId {
        self.lock().resolve(prefix)
    }

    /// The id of `prefix` if some router ever resolved it.
    pub(crate) fn id(&self, prefix: &Ipv4Prefix) -> Option<PrefixId> {
        self.lock().id(prefix)
    }

    /// Runs one walk over the index under the lock (see the module
    /// docs for what `walk` may call).
    pub(crate) fn read<R>(&self, walk: impl FnOnce(&PrefixIndex) -> R) -> R {
        walk(&self.lock())
    }

    /// Whether `self` and `other` are handles to the same index.
    #[cfg(test)]
    pub(crate) fn same(&self, other: &SharedIndex) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}
