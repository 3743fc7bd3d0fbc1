//! Hash-consed interning of [`PathAttributes`].
//!
//! A Tier-1-scale RIB holds hundreds of thousands of prefixes, but the
//! distinct attribute sets among them number only in the tens of
//! thousands: entire customer cones share one AS_PATH/next-hop, and
//! every route a reflector re-advertises to a peer group carries the
//! same rewritten attributes. Before this module, each allocation site
//! (`prep_for_ibgp`, ARR reflection, eBGP ingestion) built a fresh
//! `Arc<PathAttributes>` per route, so identical attribute sets were
//! duplicated once per (prefix, peer) pair.
//!
//! [`intern`] deduplicates by content: it returns a shared `Arc` for any
//! attribute set already live anywhere in the process, allocating only
//! on first sight. The registry holds `Weak` references, so interning
//! never keeps attributes alive — once every RIB entry referencing a set
//! drops its `Arc`, the registry entry is dead and is reclaimed by the
//! periodic sweep (or eagerly via [`purge`]).
//!
//! Determinism: interning is content-addressed and nothing in the
//! simulator observes pointer identity, so replacing `Arc::new(a)` with
//! `intern(a)` cannot change any computed result — only the allocation
//! count and peak RSS.

use crate::fxhash::{FxHashMap, FxHasher};
use crate::route::PathAttributes;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, Weak};

// ---------------------------------------------------------------------------
// String interning (metric keys, trace names)
// ---------------------------------------------------------------------------

/// A process-wide interned string, represented as a dense `u32` id.
///
/// Symbols are the key type of the observability metrics registry: a
/// metric is recorded thousands of times but named once, so the hot
/// path carries a copyable 4-byte id instead of a `String`, and key
/// comparison is an integer compare. Ids are assigned in first-intern
/// order and are stable for the lifetime of the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

struct SymbolTable {
    by_name: FxHashMap<String, u32>,
    names: Vec<Arc<str>>,
}

fn symbol_table() -> &'static Mutex<SymbolTable> {
    static TABLE: OnceLock<Mutex<SymbolTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        Mutex::new(SymbolTable {
            by_name: FxHashMap::default(),
            names: Vec::new(),
        })
    })
}

/// Interns `name`, returning its process-wide [`Symbol`]. Two calls
/// with equal strings return equal symbols.
pub fn intern_str(name: &str) -> Symbol {
    let mut tab = symbol_table().lock().expect("symbol table poisoned");
    if let Some(&id) = tab.by_name.get(name) {
        return Symbol(id);
    }
    let id = tab.names.len() as u32;
    tab.names.push(Arc::from(name));
    tab.by_name.insert(name.to_string(), id);
    Symbol(id)
}

/// Resolves a [`Symbol`] back to its string (shared, zero-copy).
///
/// # Panics
/// Panics if `sym` was not produced by [`intern_str`] in this process.
pub fn resolve_symbol(sym: Symbol) -> Arc<str> {
    let tab = symbol_table().lock().expect("symbol table poisoned");
    tab.names[sym.0 as usize].clone()
}

/// How many interning operations between lazy sweeps of dead entries.
const SWEEP_EVERY: u64 = 4096;

/// The registry is keyed by the attribute set's hash, with the rare
/// collisions held in a per-hash bucket. Keying by hash instead of by a
/// `PathAttributes` clone matters for the module's whole purpose: a
/// cloned key would re-duplicate every unique attribute set (AS_PATH
/// vector included) inside the registry itself, giving back most of the
/// memory interning saves.
struct Registry {
    table: FxHashMap<u64, Vec<Weak<PathAttributes>>>,
    ops_since_sweep: u64,
    hits: u64,
    misses: u64,
}

fn hash_of(attrs: &PathAttributes) -> u64 {
    let mut h = FxHasher::default();
    attrs.hash(&mut h);
    h.finish()
}

impl Registry {
    fn sweep(&mut self) {
        self.table.retain(|_, bucket| {
            bucket.retain(|w| w.strong_count() > 0);
            !bucket.is_empty()
        });
        self.ops_since_sweep = 0;
    }

    /// Upgrades a live entry equal to `attrs`, if any.
    fn lookup(&self, h: u64, attrs: &PathAttributes) -> Option<Arc<PathAttributes>> {
        self.table
            .get(&h)?
            .iter()
            .filter_map(Weak::upgrade)
            .find(|a| **a == *attrs)
    }

    fn live_entries(&self) -> usize {
        self.table
            .values()
            .flatten()
            .filter(|w| w.strong_count() > 0)
            .count()
    }
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            table: FxHashMap::default(),
            ops_since_sweep: 0,
            hits: 0,
            misses: 0,
        })
    })
}

/// Returns a shared `Arc` for `attrs`, deduplicated process-wide by
/// content. Two calls with equal attribute sets return `Arc`s to the
/// same allocation (while at least one strong reference stays alive
/// between them).
pub fn intern(attrs: PathAttributes) -> Arc<PathAttributes> {
    let mut reg = registry().lock().expect("attr interner poisoned");
    reg.ops_since_sweep += 1;
    if reg.ops_since_sweep >= SWEEP_EVERY {
        reg.sweep();
    }
    let h = hash_of(&attrs);
    if let Some(existing) = reg.lookup(h, &attrs) {
        reg.hits += 1;
        return existing;
    }
    reg.misses += 1;
    let arc = Arc::new(attrs);
    reg.table.entry(h).or_default().push(Arc::downgrade(&arc));
    arc
}

/// Interns an already-`Arc`ed attribute set: returns the canonical
/// shared `Arc` if one exists, otherwise registers this one.
pub fn intern_arc(attrs: Arc<PathAttributes>) -> Arc<PathAttributes> {
    let mut reg = registry().lock().expect("attr interner poisoned");
    reg.ops_since_sweep += 1;
    if reg.ops_since_sweep >= SWEEP_EVERY {
        reg.sweep();
    }
    let h = hash_of(&attrs);
    if let Some(existing) = reg.lookup(h, &attrs) {
        reg.hits += 1;
        return existing;
    }
    reg.misses += 1;
    reg.table.entry(h).or_default().push(Arc::downgrade(&attrs));
    attrs
}

/// Eagerly drops registry entries whose attribute sets are no longer
/// referenced anywhere. Returns the number of live entries remaining.
pub fn purge() -> usize {
    let mut reg = registry().lock().expect("attr interner poisoned");
    reg.sweep();
    reg.live_entries()
}

/// Interner counters, for benchmarks and memory accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InternStats {
    /// Calls that found a live entry and returned a shared `Arc`.
    pub hits: u64,
    /// Calls that allocated (first sight, or all prior refs dropped).
    pub misses: u64,
    /// Live (upgradable) registry entries at the time of the call.
    pub entries: usize,
}

/// Snapshot of the interner counters.
pub fn stats() -> InternStats {
    let reg = registry().lock().expect("attr interner poisoned");
    InternStats {
        hits: reg.hits,
        misses: reg.misses,
        entries: reg.live_entries(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::{AsPath, Asn};
    use crate::attrs::NextHop;

    #[test]
    fn symbols_dedup_and_resolve() {
        let a = intern_str("obs.test.metric");
        let b = intern_str("obs.test.metric");
        assert_eq!(a, b);
        let c = intern_str("obs.test.other");
        assert_ne!(a, c);
        assert_eq!(&*resolve_symbol(a), "obs.test.metric");
        assert_eq!(&*resolve_symbol(c), "obs.test.other");
    }

    fn attrs(nh: u32) -> PathAttributes {
        PathAttributes::ebgp(AsPath::sequence([Asn(100), Asn(200)]), NextHop(nh))
    }

    #[test]
    fn dedups_equal_attribute_sets() {
        let a = intern(attrs(1001));
        let b = intern(attrs(1001));
        assert!(Arc::ptr_eq(&a, &b), "equal sets must share one Arc");
        let c = intern(attrs(1002));
        assert!(!Arc::ptr_eq(&a, &c), "distinct sets must not be merged");
    }

    #[test]
    fn interned_value_equals_input() {
        // Hash/eq consistency: the Arc's content is the input, and the
        // registry key round-trips through HashMap lookup correctly.
        let input = attrs(2001).with_med(9).with_local_pref(150);
        let arc = intern(input.clone());
        assert_eq!(*arc, input);
        let again = intern(input.clone());
        assert!(Arc::ptr_eq(&arc, &again));
    }

    #[test]
    fn intern_arc_canonicalizes() {
        let canonical = intern(attrs(3001));
        let private = Arc::new(attrs(3001));
        assert!(!Arc::ptr_eq(&canonical, &private));
        let merged = intern_arc(private);
        assert!(Arc::ptr_eq(&canonical, &merged));
    }

    #[test]
    fn dropped_entries_are_reclaimed() {
        // Use an attribute set unique to this test so parallel tests
        // can't hold it alive.
        let unique = attrs(0xDEAD_0001).with_med(424_242);
        let a = intern(unique.clone());
        assert_eq!(Arc::strong_count(&a), 1);
        drop(a);
        purge();
        // After the purge the next intern must re-allocate (miss), not
        // resurrect a dead weak reference. The miss counter is global,
        // so parallel tests may add their own misses on top of ours.
        let before = stats().misses;
        let b = intern(unique);
        assert!(stats().misses > before);
        assert_eq!(Arc::strong_count(&b), 1);
    }

    #[test]
    fn registry_does_not_leak_dead_entries() {
        for i in 0..64u32 {
            drop(intern(attrs(0xBEEF_0000 + i).with_med(777)));
        }
        let live = purge();
        // None of the 64 one-off sets should survive the purge. Other
        // tests may hold live entries, so just bound the count.
        let reg_after = stats().entries;
        assert_eq!(live, reg_after);
        for i in 0..64u32 {
            let probe = attrs(0xBEEF_0000 + i).with_med(777);
            let arc = intern(probe);
            assert_eq!(Arc::strong_count(&arc), 1, "entry {i} was resurrected");
        }
    }
}
