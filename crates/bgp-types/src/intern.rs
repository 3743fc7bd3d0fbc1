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
//! drops its `Arc`, the registry entry is dead.
//!
//! Layout: one flat slot per content hash, holding one inline `Weak`.
//! The rare set whose hash equals a different live set's goes to a
//! small collision list that every lookup also checks. A miss on a
//! dead slot reuses it in place. Other dead slots are dropped by a
//! sweep (or eagerly via [`purge`]) that runs once the calls since the
//! last one reach the slot count it left, and at least 4 096: a sweep
//! then costs about one slot visit per call, however many sets are
//! live, and since a call adds at most one slot, the slots never exceed
//! the `S` live ones the last sweep left plus `max(4 096, S)`. A
//! lookup's result depends only on the live entries, never on when the
//! last sweep ran.
//!
//! A second table indexes sets by the attribute block a codec decoded
//! them from ([`find_encoded`], [`intern_view`]): one `Weak` per
//! block hash, under the same lock and swept by the same sweep. An entry
//! is only a candidate. The codec's check, that the set encodes to the
//! block byte for byte, decides whether it is returned, so the module
//! stays codec-agnostic and never trusts a hash.
//!
//! Determinism: interning is content-addressed and nothing in the
//! simulator observes pointer identity, so replacing `Arc::new(a)` with
//! `intern(a)` cannot change any computed result — only the allocation
//! count and peak RSS.

use crate::fxhash::{table_bytes, FxHasher, PrefixHasher};
use crate::route::{AttrsView, PathAttributes};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};

/// The fewest interning calls between two sweeps of dead slots.
const SWEEP_EVERY: usize = 4096;

/// The registry: one slot per attribute-set hash, holding a `Weak` to
/// the set interned under it. Keying by hash instead of by a
/// `PathAttributes` clone matters for the module's whole purpose: a
/// cloned key would re-duplicate every unique attribute set (AS_PATH
/// vector included) inside the registry itself, giving back most of the
/// memory interning saves. The hash is an Fx digest, whose low bits are
/// weak, so the table rehashes it with [`PrefixHasher`]'s finalizer.
struct Registry {
    slots: HashMap<u64, Weak<PathAttributes>, BuildHasherDefault<PrefixHasher>>,
    /// Sets whose hash's slot already held a different live set.
    collided: Vec<(u64, Weak<PathAttributes>)>,
    /// Sets by the [`encoded_hash`] of an attribute block they were
    /// interned from: the last one registered under each hash.
    encoded: HashMap<u64, Weak<PathAttributes>, BuildHasherDefault<PrefixHasher>>,
    /// Calls left until the next sweep.
    until_sweep: usize,
    hits: u64,
    misses: u64,
}

fn hash_of(attrs: AttrsView<'_>) -> u64 {
    let mut h = FxHasher::default();
    attrs.hash(&mut h);
    h.finish()
}

/// What a set is looked up by: an owned set, an `Arc`ed one or a view.
/// Each is hashed and compared through its view, and becomes the
/// registered `Arc` only on a miss, so a view that hits owns nothing.
trait Key {
    fn view(&self) -> AttrsView<'_>;
    fn into_arc(self) -> Arc<PathAttributes>;
}

impl Key for PathAttributes {
    fn view(&self) -> AttrsView<'_> {
        PathAttributes::view(self)
    }
    fn into_arc(self) -> Arc<PathAttributes> {
        Arc::new(self)
    }
}

impl Key for Arc<PathAttributes> {
    fn view(&self) -> AttrsView<'_> {
        PathAttributes::view(self)
    }
    fn into_arc(self) -> Arc<PathAttributes> {
        self
    }
}

impl Key for AttrsView<'_> {
    fn view(&self) -> AttrsView<'_> {
        *self
    }
    fn into_arc(self) -> Arc<PathAttributes> {
        Arc::new(self.into())
    }
}

impl Registry {
    fn new() -> Self {
        Registry {
            slots: HashMap::default(),
            collided: Vec::new(),
            encoded: HashMap::default(),
            until_sweep: SWEEP_EVERY,
            hits: 0,
            misses: 0,
        }
    }

    /// Live plus dead entries.
    fn slot_count(&self) -> usize {
        self.slots.len() + self.collided.len()
    }

    /// Drops the dead entries of both tables, then waits as many calls
    /// as there are slots left (at least [`SWEEP_EVERY`]) before
    /// sweeping again, so a call pays for about one slot visit however
    /// many sets are live (a decoded set has about one block entry).
    fn sweep(&mut self) {
        self.slots.retain(|_, w| w.strong_count() > 0);
        self.collided.retain(|(_, w)| w.strong_count() > 0);
        self.encoded.retain(|_, w| w.strong_count() > 0);
        self.until_sweep = SWEEP_EVERY.max(self.slot_count());
    }

    /// Counts one call toward the next sweep, and sweeps when it is due.
    fn tick(&mut self) {
        self.until_sweep -= 1;
        if self.until_sweep == 0 {
            self.sweep();
        }
    }

    /// The shared `Arc` for the live set equal to `attrs`, hashed to
    /// `h`; or, on a miss, `attrs` as an `Arc`, registered in `h`'s slot
    /// when that slot is free or dead, and in the collision list
    /// otherwise.
    fn lookup_or_insert(&mut self, h: u64, attrs: impl Key) -> Arc<PathAttributes> {
        self.tick();
        let key = attrs.view();
        let equal = |w: &Weak<PathAttributes>| w.upgrade().filter(|a| a.view() == key);
        let slot = self.slots.entry(h);
        let held = match &slot {
            Entry::Occupied(s) => s.get().upgrade(),
            Entry::Vacant(_) => None,
        };
        let held_live = held.is_some();
        let found = held.filter(|a| a.view() == key).or_else(|| {
            self.collided
                .iter()
                .filter(|(ch, _)| *ch == h)
                .find_map(|(_, w)| equal(w))
        });
        if let Some(shared) = found {
            self.hits += 1;
            return shared;
        }
        self.misses += 1;
        let arc = attrs.into_arc();
        let weak = Arc::downgrade(&arc);
        if held_live {
            self.collided.push((h, weak));
        } else {
            slot.insert_entry(weak);
        }
        arc
    }

    /// The live set registered under the block hash `h`, if `encodes`
    /// accepts it, counted as one hit; `None` counts only the call.
    fn find_encoded(
        &mut self,
        h: u64,
        encodes: impl FnOnce(&PathAttributes) -> bool,
    ) -> Option<Arc<PathAttributes>> {
        self.tick();
        let found = self.encoded.get(&h)?.upgrade().filter(|a| encodes(a))?;
        self.hits += 1;
        Some(found)
    }

    /// Registers `set` under the block hash `h`, in place of whatever
    /// was registered there.
    fn register_encoded(&mut self, h: u64, set: &Arc<PathAttributes>) {
        self.encoded.insert(h, Arc::downgrade(set));
    }

    fn live_entries(&self) -> usize {
        let live = |w: &Weak<PathAttributes>| w.strong_count() > 0;
        self.slots.values().filter(|w| live(w)).count()
            + self.collided.iter().filter(|(_, w)| live(w)).count()
    }

    /// The tables and the collision list at capacity, the `ArcInner`
    /// each slot's `Weak` keeps allocated — a dead slot's too, until the
    /// sweep drops it — and each live set's tail. A block entry's `Weak`
    /// shares a slot's `ArcInner` (unless a miss reused that slot while
    /// it was dead), so it adds only its table.
    fn heap_bytes(&self) -> usize {
        const ARC_INNER: usize = 2 * size_of::<usize>() + size_of::<PathAttributes>();
        let tail = |w: &Weak<PathAttributes>| w.upgrade().map_or(0, |a| a.tail_bytes());
        table_bytes(&self.slots)
            + table_bytes(&self.encoded)
            + self.collided.capacity() * size_of::<(u64, Weak<PathAttributes>)>()
            + self.slot_count() * ARC_INNER
            + self.slots.values().map(tail).sum::<usize>()
            + self.collided.iter().map(|(_, w)| tail(w)).sum::<usize>()
    }
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::new()))
        .lock()
        // Invariant: nothing panics while the guard is held (the code
        // under it compares, hashes and allocates, and `find_encoded`'s
        // check encodes and compares), so it never poisons.
        .expect("attr interner poisoned")
}

/// The lookup-or-insert path behind [`intern`] and [`intern_arc`], which
/// [`intern_view`] takes too under the lock it registers in. The hash is
/// taken before the lock.
fn canonical(attrs: impl Key) -> Arc<PathAttributes> {
    let h = hash_of(attrs.view());
    let mut reg = registry();
    reg.lookup_or_insert(h, attrs)
}

/// Returns a shared `Arc` for `attrs`, deduplicated process-wide by
/// content. Two calls with equal attribute sets return `Arc`s to the
/// same allocation (while at least one strong reference stays alive
/// between them).
pub fn intern(attrs: PathAttributes) -> Arc<PathAttributes> {
    canonical(attrs)
}

/// Interns an already-`Arc`ed attribute set: returns the canonical
/// shared `Arc` if one exists, otherwise registers this one.
pub fn intern_arc(attrs: Arc<PathAttributes>) -> Arc<PathAttributes> {
    canonical(attrs)
}

/// Returns the shared `Arc` for the set `view` shows, as [`intern`] does
/// for an owned set; the owned set is built only on a miss. A parser
/// that reads a set into a reusable buffer interns it from there, so a
/// set already live costs no allocation. Under the same lock, the set
/// is registered for [`find_encoded`] under `block_hash`, the
/// [`encoded_hash`] of the attribute block the view was parsed from.
pub fn intern_view(view: AttrsView<'_>, block_hash: u64) -> Arc<PathAttributes> {
    let h = hash_of(view);
    let mut reg = registry();
    let set = reg.lookup_or_insert(h, view);
    reg.register_encoded(block_hash, &set);
    set
}

/// The hash [`find_encoded`] and [`intern_view`] key an
/// attribute block by: its length, then each eight-octet word (the last
/// one zero-padded), folded in by a 64 × 64 → 128-bit multiply whose two
/// halves are xored. Fx, which the content table uses, is too weak
/// for raw octets: a word's top octet reaches the low bits only five
/// bits a step, so a change there cancels against one in the next
/// word's bottom octet. Blocks that differed only in the two octets
/// either side of a word boundary collided so: 466 pairs among the
/// 90 502 sets of a 3 000-prefix model, where this hash has none.
pub fn encoded_hash(block: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let fold = |h: u64, word: u64| {
        let p = u128::from(h ^ word) * u128::from(K);
        (p as u64) ^ (p >> 64) as u64
    };
    let (words, rest) = block.as_chunks::<8>();
    let mut last = [0; 8];
    last[..rest.len()].copy_from_slice(rest);
    let h = fold(K, block.len() as u64);
    let h = words.iter().fold(h, |h, w| fold(h, u64::from_le_bytes(*w)));
    fold(h, u64::from_le_bytes(last))
}

/// The live set last interned from an attribute block of hash `hash`
/// ([`intern_view`]), if `encodes` accepts it. A codec passes a
/// check that the set encodes to that block byte for byte, so that a
/// colliding hash or a block that merely decodes to the set is never
/// answered from here. A set returned counts as one hit, as interning
/// the block's parse would; `None` counts neither a hit nor a miss, and
/// the caller parses the block and interns it with [`intern_view`].
/// Either way the call counts toward the next sweep.
///
/// `encodes` runs under the registry's lock: it must not panic, and
/// must not call back into this module.
pub fn find_encoded(
    hash: u64,
    encodes: impl FnOnce(&PathAttributes) -> bool,
) -> Option<Arc<PathAttributes>> {
    registry().find_encoded(hash, encodes)
}

/// Eagerly drops registry entries whose attribute sets are no longer
/// referenced anywhere. Returns the number of live entries remaining.
pub fn purge() -> usize {
    let mut reg = registry();
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
    /// Registry slots, live plus dead: `entries` plus what the next
    /// sweep drops.
    pub slots: usize,
    /// Bytes the registry and the sets in it keep allocated: its two
    /// tables (by content and by attribute block) and collision list at
    /// capacity, one `ArcInner<PathAttributes>` per slot (a dead slot's
    /// `Weak` keeps that allocation), and each live set's tail — its
    /// list attributes, the only heap a set owns.
    pub heap_bytes: usize,
}

/// Snapshot of the interner counters.
pub fn stats() -> InternStats {
    let reg = registry();
    InternStats {
        hits: reg.hits,
        misses: reg.misses,
        entries: reg.live_entries(),
        slots: reg.slot_count(),
        heap_bytes: reg.heap_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::{AsPath, Asn};
    use crate::attrs::NextHop;

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

    // The tests below drive a private `Registry` and pass the hash in,
    // so they can force collisions and count slots exactly.

    #[test]
    fn colliding_sets_are_both_found_and_stay_distinct() {
        let mut reg = Registry::new();
        let a = reg.lookup_or_insert(7, attrs(1));
        let b = reg.lookup_or_insert(7, attrs(2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((reg.slots.len(), reg.collided.len()), (1, 1));
        assert!(Arc::ptr_eq(&reg.lookup_or_insert(7, attrs(1)), &a));
        assert!(Arc::ptr_eq(
            &reg.lookup_or_insert(7, Arc::new(attrs(2))),
            &b
        ));
        assert_eq!((&*a, &*b), (&attrs(1), &attrs(2)));
        assert_eq!((reg.hits, reg.misses), (2, 2));
    }

    #[test]
    fn a_dead_slot_is_reused() {
        let mut reg = Registry::new();
        drop(reg.lookup_or_insert(9, attrs(1)));
        let b = reg.lookup_or_insert(9, attrs(2));
        assert_eq!(*b, attrs(2));
        assert_eq!((reg.slots.len(), reg.collided.len()), (1, 0));
        assert!(Arc::ptr_eq(&reg.lookup_or_insert(9, attrs(2)), &b));
    }

    #[test]
    fn a_sweep_drops_dead_collision_entries_and_never_a_live_one() {
        let mut reg = Registry::new();
        // attrs(0) takes the slot, the rest collide with it.
        let sets: Vec<_> = (0..4).map(|i| reg.lookup_or_insert(5, attrs(i))).collect();
        assert_eq!((reg.slots.len(), reg.collided.len()), (1, 3));
        // Keep 1 and 3; the slot's own set (0) dies with 2.
        let kept = [sets[1].clone(), sets[3].clone()];
        drop(sets);
        reg.sweep();
        assert_eq!((reg.slots.len(), reg.collided.len()), (0, 2));
        assert_eq!(reg.live_entries(), 2);
        assert!(Arc::ptr_eq(&reg.lookup_or_insert(5, attrs(1)), &kept[0]));
        assert!(Arc::ptr_eq(&reg.lookup_or_insert(5, attrs(3)), &kept[1]));
        // A new set under the hash takes the freed slot.
        let fresh = reg.lookup_or_insert(5, attrs(4));
        assert_eq!((reg.slots.len(), reg.collided.len()), (1, 2));
        assert_eq!(*fresh, attrs(4));
    }

    #[test]
    fn slots_stay_within_live_plus_the_sweep_period() {
        let mut reg = Registry::new();
        let long = SWEEP_EVERY;
        let bound = long + SWEEP_EVERY.max(2 * long);
        let step = |reg: &mut Registry, a: PathAttributes| {
            let arc = reg.lookup_or_insert(hash_of(a.view()), a);
            assert!(reg.slot_count() <= bound, "{} slots", reg.slot_count());
            arc
        };
        let kept: Vec<_> = (0..long as u32).map(|i| step(&mut reg, attrs(i))).collect();
        for i in 0..4 * long as u32 {
            drop(step(&mut reg, attrs(0x1000_0000 + i)));
        }
        assert_eq!(reg.misses, 5 * long as u64);
        for a in &kept {
            assert!(Arc::ptr_eq(&step(&mut reg, (**a).clone()), a));
        }
    }

    #[test]
    fn heap_bytes_grow_with_the_slots() {
        let mut reg = Registry::new();
        let mut kept = Vec::new();
        let mut last = reg.heap_bytes();
        for n in [1u32, 100, 1_000] {
            kept.extend(
                (kept.len() as u32..n).map(|i| reg.lookup_or_insert(u64::from(i), attrs(i))),
            );
            let bytes = reg.heap_bytes();
            assert!(bytes > last, "{bytes} bytes at {n} slots, {last} before");
            assert!(bytes >= n as usize * size_of::<PathAttributes>());
            last = bytes;
        }
    }

    #[test]
    fn a_block_lookup_returns_only_a_set_its_check_accepts() {
        let mut reg = Registry::new();
        let a = reg.lookup_or_insert(1, attrs(1));
        let b = reg.lookup_or_insert(2, attrs(2));
        // Two blocks that hash alike: the later registration holds it.
        reg.register_encoded(7, &a);
        reg.register_encoded(7, &b);
        let is = |want: &Arc<PathAttributes>| {
            let want = Arc::clone(want);
            move |s: &PathAttributes| std::ptr::eq(s, &*want)
        };
        let hits = reg.hits;
        let found = reg.find_encoded(7, is(&a));
        assert!(
            found.as_ref().is_none_or(|s| Arc::ptr_eq(s, &a)),
            "{found:?}"
        );
        assert!(reg.find_encoded(7, |_| false).is_none());
        assert!(reg.find_encoded(8, |_| true).is_none());
        assert!(Arc::ptr_eq(&reg.find_encoded(7, is(&b)).unwrap(), &b));
        assert_eq!(reg.hits, hits + u64::from(found.is_some()) + 1);
        assert_eq!(reg.misses, 2, "a block lookup never counts a miss");
    }

    #[test]
    fn a_dead_sets_block_misses_after_a_purge() {
        let unique = attrs(0xB10C_0001).with_med(515_151);
        let block = [0xB1, 0x0C, 0x00, 0x01];
        let h = encoded_hash(&block);
        let a = intern_view(unique.view(), h);
        let found = find_encoded(h, |s| *s == unique).expect("registered");
        assert!(Arc::ptr_eq(&found, &a));
        drop((a, found));
        purge();
        assert!(find_encoded(h, |_| true).is_none());
    }

    #[test]
    fn heap_bytes_count_the_block_table() {
        let mut reg = Registry::new();
        let kept: Vec<_> = (0..100u32)
            .map(|i| reg.lookup_or_insert(u64::from(i), attrs(i)))
            .collect();
        let unindexed = reg.heap_bytes();
        for (i, a) in kept.iter().enumerate() {
            reg.register_encoded(1_000 + i as u64, a);
        }
        assert_eq!(reg.heap_bytes(), unindexed + table_bytes(&reg.encoded));
        assert!(table_bytes(&reg.encoded) >= 100 * size_of::<(u64, Weak<PathAttributes>)>());
        drop(kept);
        reg.sweep();
        assert!(reg.encoded.is_empty());
    }

    use proptest::prelude::*;

    proptest! {
        /// Random intern / drop / purge runs under a hash with four
        /// values, against a model of the handles held: equal live
        /// contents share one `Arc`, a returned set equals its input,
        /// and a purge leaves exactly the live sets.
        #[test]
        fn registry_matches_a_model_under_a_weak_hash(
            ops in prop::collection::vec((0u8..10, 0u32..12, 0usize..64), 1..120),
        ) {
            let mut reg = Registry::new();
            let mut held: Vec<(u32, Arc<PathAttributes>)> = Vec::new();
            for (op, key, pick) in ops {
                match op {
                    0..=5 => {
                        let a = attrs(key);
                        let arc = reg.lookup_or_insert(hash_of(a.view()) % 4, a.clone());
                        prop_assert_eq!(&*arc, &a);
                        if let Some((_, same)) = held.iter().find(|(k, _)| *k == key) {
                            prop_assert!(Arc::ptr_eq(same, &arc));
                        }
                        held.push((key, arc));
                    }
                    6..=8 if !held.is_empty() => {
                        held.swap_remove(pick % held.len());
                    }
                    _ => {
                        reg.sweep();
                        let mut live: Vec<u32> = held.iter().map(|(k, _)| *k).collect();
                        live.sort_unstable();
                        live.dedup();
                        prop_assert_eq!(reg.live_entries(), live.len());
                        prop_assert_eq!(reg.slot_count(), live.len());
                    }
                }
            }
        }
    }
}
