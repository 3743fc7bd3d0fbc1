//! What only the benchmark package still names: two prefix-keyed
//! stand-alone tables and a reusable decision batch, each a thin
//! wrapper over the code routers run, cut to exactly the calls
//! `benchmark/src/kernels.rs` makes. Nothing under `crates/` uses this
//! module. It goes when the kernels move to [`PrefixIndex`] + columns
//! and to [`best_as_level`] (ROADMAP item 3).

use crate::decision::{best_as_level, Candidate, DecisionConfig};
use crate::rib::{LocColumn, PathSet, RibInColumn};
use crate::store::{PrefixId, PrefixIndex};
use bgp_types::{Ipv4Prefix, PathAttributes, PathId, RouterId};
use std::sync::Arc;

/// An Adj-RIB-In keyed by prefix: a private index and one
/// [`RibInColumn`] over it.
#[derive(Default)]
pub struct AdjRibIn {
    index: PrefixIndex,
    column: RibInColumn,
}

impl AdjRibIn {
    /// An empty table.
    pub fn new() -> Self {
        AdjRibIn::default()
    }

    /// [`RibInColumn::set_paths`] on `prefix`'s row.
    pub fn set_paths(&mut self, peer: RouterId, prefix: Ipv4Prefix, paths: PathSet) -> bool {
        let id = self.index.resolve(prefix);
        self.column.set_paths(peer, id, paths)
    }

    /// [`RibInColumn::num_entries`].
    pub fn num_entries(&self) -> usize {
        self.column.num_entries()
    }

    /// [`RibInColumn::all_paths`] on `prefix`'s row; nothing for a
    /// prefix never set.
    #[inline]
    pub fn all_paths(
        &self,
        prefix: &Ipv4Prefix,
    ) -> impl Iterator<Item = (RouterId, PathId, &Arc<PathAttributes>)> + '_ {
        let id = self.index.id(prefix).unwrap_or(PrefixId::MAX);
        self.column.all_paths(id)
    }
}

/// A Loc-RIB keyed by prefix: a private index and one [`LocColumn`]
/// over it.
pub struct LocRib<T> {
    index: PrefixIndex,
    column: LocColumn<T>,
}

impl<T> Default for LocRib<T> {
    fn default() -> Self {
        LocRib {
            index: PrefixIndex::new(),
            column: LocColumn::default(),
        }
    }
}

impl<T: Clone + PartialEq> LocRib<T> {
    /// An empty table.
    pub fn new() -> Self {
        LocRib::default()
    }

    /// [`LocColumn::set`] on `prefix`'s row.
    pub fn set(&mut self, prefix: Ipv4Prefix, value: Option<T>) -> bool {
        let id = self.index.resolve(prefix);
        self.column.set(id, value)
    }

    /// [`LocColumn::lookup`].
    pub fn lookup(&self, addr: u32) -> Option<(Ipv4Prefix, &T)> {
        self.column.lookup(&self.index, addr)
    }
}

/// A reusable copy of one candidate set, decided by [`best_as_level`].
#[derive(Default)]
pub struct CandidateBatch {
    cands: Vec<Candidate>,
}

impl CandidateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        CandidateBatch::default()
    }

    /// Replaces the held set with a copy of `cands`, reusing capacity.
    pub fn load(&mut self, cands: &[Candidate]) {
        self.cands.clear();
        self.cands.extend_from_slice(cands);
    }

    /// [`best_as_level`] on the held set: surviving indices, in input
    /// order.
    pub fn survivors(&self, cfg: &DecisionConfig) -> Vec<usize> {
        best_as_level(&self.cands, cfg)
    }
}
