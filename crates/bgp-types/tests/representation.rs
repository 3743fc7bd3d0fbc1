//! The representation of a set of path attributes: a small head and one
//! exact-size word tail holding the AS_PATH, the communities, the ext
//! communities and the CLUSTER_LIST.
//!
//! * the head's size, and what a set allocates (a counting allocator);
//! * built sets read back exactly what they were built from, through
//!   every builder;
//! * `Eq` and `Hash` see where one list ends and the next begins;
//! * `Debug` renders as a reference renderer of the format fingerprints
//!   and golden files hold.

use bgp_types::{
    AsPath, Asn, ClusterId, Community, ExtCommunity, LocalPref, Med, NextHop, Origin, OriginatorId,
    PathAttributes, SegmentKind, MAX_SEGMENT_ASNS,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::Arc;

thread_local! {
    /// Allocations this thread has made, and their bytes. Per thread,
    /// so tests running side by side do not see each other's.
    static ALLOCS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = ALLOCS.try_with(|c| {
        let (n, total) = c.get();
        c.set((n + 1, total + bytes));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches no allocator
// state and does not allocate (a `const` thread-local `Cell`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result, and the allocations (count, bytes) it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    let (n0, b0) = ALLOCS.with(Cell::get);
    let out = f();
    let (n1, b1) = ALLOCS.with(Cell::get);
    (out, (n1 - n0, b1 - b0))
}

/// The `ArcInner` an interned set lives in: two counters and the head.
const ARC_INNER: usize = 2 * size_of::<usize>() + size_of::<PathAttributes>();

#[test]
fn the_head_is_at_most_56_bytes() {
    // Checked when the test compiles.
    const { assert!(size_of::<PathAttributes>() <= 56) };
    const { assert!(ARC_INNER <= 72) };
}

#[test]
fn a_set_with_no_lists_allocates_only_its_arc() {
    let (a, allocs) = allocations(|| {
        let mut a = PathAttributes::local(NextHop(1)).with_med(5);
        a.originator_id = Some(OriginatorId(2));
        a
    });
    assert_eq!(allocs, (0, 0));
    let (arc, allocs) = allocations(|| Arc::new(a.clone()));
    assert_eq!(allocs, (1, ARC_INNER));
    assert_eq!(*arc, a);
    // Building empty lists into it allocates nothing either.
    let (b, allocs) = allocations(|| a.with_lists(a.as_path(), [], [], []));
    assert_eq!((b, allocs), (a, (0, 0)));
}

#[test]
fn a_builder_allocates_one_exact_tail() {
    let a = PathAttributes::ebgp(AsPath::sequence([Asn(1), Asn(2)]), NextHop(1));
    // Seven words: the path's header and two ASNs, one community, the
    // marker's two words and one cluster id; eight with one prepended.
    let (b, allocs) = allocations(|| {
        a.with_lists(
            a.as_path(),
            [Community(7)],
            [ExtCommunity::ABRR_REFLECTED],
            [ClusterId(1)],
        )
    });
    assert_eq!(allocs, (1, 4 * 7));
    let (_, allocs) = allocations(|| {
        let clusters = [ClusterId(9)].into_iter().chain(b.cluster_list());
        b.with_lists(b.as_path(), b.communities(), b.ext_communities(), clusters)
    });
    assert_eq!(allocs, (1, 4 * 8));
    let (_, allocs) = allocations(|| b.without_reflection());
    assert!(allocs.0 <= 2, "{allocs:?}");
}

/// One drawn set: its scalars and lists, kept apart so the test can
/// say what the built set must read back.
#[derive(Clone, Debug)]
struct Drawn {
    origin: Origin,
    segments: Vec<(SegmentKind, Vec<u32>)>,
    next_hop: u32,
    med: Option<u32>,
    local_pref: Option<u32>,
    communities: Vec<u32>,
    ext_communities: Vec<[u8; 8]>,
    originator_id: Option<u32>,
    cluster_list: Vec<u32>,
}

impl Drawn {
    fn path(&self) -> AsPath {
        let mut path = AsPath::empty();
        for (kind, asns) in &self.segments {
            path.push_segment(*kind, asns.iter().map(|&a| Asn(a)));
        }
        path
    }

    fn build(&self) -> PathAttributes {
        let mut head = PathAttributes::ebgp(AsPath::empty(), NextHop(self.next_hop));
        head.origin = self.origin;
        head.med = self.med.map(Med);
        head.local_pref = self.local_pref.map(LocalPref);
        head.originator_id = self.originator_id.map(OriginatorId);
        head.with_lists(
            self.path().borrowed(),
            self.communities.iter().map(|&c| Community(c)),
            self.ext_communities.iter().map(|&e| ExtCommunity(e)),
            self.cluster_list.iter().map(|&c| ClusterId(c)),
        )
    }

    /// RFC 4271 §9.1.2.2(a): a sequence counts its ASes, a set one.
    fn path_len(&self) -> usize {
        let len = |(kind, asns): &(SegmentKind, Vec<u32>)| match kind {
            SegmentKind::Sequence => asns.len(),
            SegmentKind::Set => 1,
        };
        self.segments.iter().map(len).sum()
    }
}

fn arb_drawn() -> impl Strategy<Value = Drawn> {
    // Empty, short and long segments: a run past 255 ASes is drawn as
    // the segments of 255 and fewer a path holds it in.
    let segment = (
        prop::sample::select(vec![SegmentKind::Set, SegmentKind::Sequence]),
        prop::sample::select(vec![0u32, 1, 2, 3, 255, 300]),
        any::<u32>(),
    )
        .prop_map(|(kind, n, base)| {
            let asns: Vec<u32> = (0..n).map(|i| base.wrapping_add(i)).collect();
            let runs: Vec<&[u32]> = if asns.is_empty() {
                vec![&[]]
            } else {
                asns.chunks(MAX_SEGMENT_ASNS).collect()
            };
            runs.into_iter()
                .map(|r| (kind, r.to_vec()))
                .collect::<Vec<_>>()
        });
    let ext = (any::<bool>(), any::<[u8; 8]>()).prop_map(|(mark, e)| {
        if mark {
            ExtCommunity::ABRR_REFLECTED.0
        } else {
            e
        }
    });
    (
        prop::sample::select(vec![Origin::Igp, Origin::Egp, Origin::Incomplete]),
        prop::collection::vec(segment, 0..4).prop_map(|s| s.concat()),
        any::<u32>(),
        prop::option::of(any::<u32>()),
        prop::option::of(any::<u32>()),
        prop::collection::vec(any::<u32>(), 0..5),
        prop::collection::vec(ext, 0..4),
        prop::option::of(any::<u32>()),
        prop::collection::vec(any::<u32>(), 0..5),
    )
        .prop_map(
            |(origin, segments, next_hop, med, local_pref, comms, ext, oid, clist)| Drawn {
                origin,
                segments,
                next_hop,
                med,
                local_pref,
                communities: comms,
                ext_communities: ext,
                originator_id: oid,
                cluster_list: clist,
            },
        )
}

/// Checks that `a` reads back as `d` says, list by list and scalar by
/// scalar, and that its cached path length is the one its words give.
fn reads_back(a: &PathAttributes, d: &Drawn) {
    let segments: Vec<(SegmentKind, Vec<u32>)> = a
        .as_path()
        .segments()
        .map(|s| (s.kind(), s.asns().map(|x| x.0).collect()))
        .collect();
    prop_assert_eq!(&segments, &d.segments);
    prop_assert_eq!(a.as_path(), d.path().borrowed());
    prop_assert_eq!(a.as_path_len(), d.path_len());
    prop_assert_eq!(a.as_path().path_len(), d.path_len());
    let comms: Vec<u32> = a.communities().iter().map(|c| c.0).collect();
    prop_assert_eq!(&comms, &d.communities);
    let ext: Vec<[u8; 8]> = a.ext_communities().iter().map(|e| e.0).collect();
    prop_assert_eq!(&ext, &d.ext_communities);
    let clusters: Vec<u32> = a.cluster_list().iter().map(|c| c.0).collect();
    prop_assert_eq!(&clusters, &d.cluster_list);
    prop_assert_eq!(a.origin, d.origin);
    prop_assert_eq!(a.next_hop, NextHop(d.next_hop));
    prop_assert_eq!(a.med, d.med.map(Med));
    prop_assert_eq!(a.local_pref, d.local_pref.map(LocalPref));
    prop_assert_eq!(a.originator_id, d.originator_id.map(OriginatorId));
}

/// The `Debug` text of a set as the format pins it, rendered from the
/// accessors the old way: the path's segments joined by spaces (a
/// sequence's ASes by spaces, a set's by commas in braces, `<empty>`
/// for no segment), then next hop, LOCAL_PREF and MED, ORIGINATOR_ID
/// and CLUSTER_LIST when present, and `reflected` when marked.
fn reference_debug(a: &PathAttributes) -> String {
    let segments: Vec<String> = a
        .as_path()
        .segments()
        .map(|s| {
            let asns: Vec<String> = s.asns().map(|x| x.0.to_string()).collect();
            match s.kind() {
                SegmentKind::Sequence => asns.join(" "),
                SegmentKind::Set => format!("{{{}}}", asns.join(",")),
            }
        })
        .collect();
    let path = if segments.is_empty() {
        "<empty>".to_string()
    } else {
        segments.join(" ")
    };
    let o = a.next_hop.0.to_be_bytes();
    let mut s = format!(
        "[{path} nh={}.{}.{}.{} lp={:?} med={:?}",
        o[0],
        o[1],
        o[2],
        o[3],
        a.local_pref.map(|l| l.0),
        a.med.map(|m| m.0)
    );
    if let Some(oid) = a.originator_id {
        s += &format!(" orig={}", oid.0);
    }
    let clusters: Vec<u32> = a.cluster_list().iter().map(|c| c.0).collect();
    if !clusters.is_empty() {
        s += &format!(" clist={clusters:?}");
    }
    if a.ext_communities()
        .iter()
        .any(|e| e == ExtCommunity::ABRR_REFLECTED)
    {
        s += " reflected";
    }
    s + "]"
}

fn hash_of(a: &PathAttributes) -> u64 {
    let mut h = DefaultHasher::new();
    a.hash(&mut h);
    h.finish()
}

proptest! {
    /// A built set reads back exactly, and so does what each builder
    /// makes of it.
    #[test]
    fn built_sets_read_back_exactly(d in arb_drawn(), asn in any::<u32>(), ids in prop::collection::vec(any::<u32>(), 0..3)) {
        let a = d.build();
        reads_back(&a, &d);

        let mut prepended = d.clone();
        match prepended.segments.first_mut() {
            Some((SegmentKind::Sequence, asns)) if asns.len() < MAX_SEGMENT_ASNS => {
                asns.insert(0, asn)
            }
            _ => prepended.segments.insert(0, (SegmentKind::Sequence, vec![asn])),
        }
        reads_back(&a.with_as_prepended(Asn(asn)), &prepended);

        let mut reflected = d.clone();
        reflected.cluster_list.splice(0..0, ids.iter().copied());
        let clusters = ids.iter().map(|&c| ClusterId(c)).chain(a.cluster_list());
        reads_back(&a.with_lists(a.as_path(), a.communities(), a.ext_communities(), clusters), &reflected);

        let mut marked = d.clone();
        if !marked.ext_communities.contains(&ExtCommunity::ABRR_REFLECTED.0) {
            marked.ext_communities.push(ExtCommunity::ABRR_REFLECTED.0);
        }
        reads_back(&a.with_abrr_reflected(), &marked);

        let mut scrubbed = d.clone();
        scrubbed.ext_communities.retain(|e| *e != ExtCommunity::ABRR_REFLECTED.0);
        scrubbed.cluster_list.clear();
        scrubbed.originator_id = None;
        reads_back(&a.without_reflection(), &scrubbed);
    }

    /// `Debug` renders every set as the reference renderer does.
    #[test]
    fn debug_is_the_pinned_format(d in arb_drawn()) {
        let a = d.build();
        prop_assert_eq!(format!("{a:?}"), reference_debug(&a));
        let path = a.as_path();
        let expect = reference_debug(&a);
        let rendered = &expect[1..expect.find(" nh=").unwrap()];
        prop_assert_eq!(format!("{path:?}"), rendered);
        prop_assert_eq!(path.to_string(), rendered);
        prop_assert_eq!(format!("{:?}", d.path()), rendered);
    }

    /// Equal sets hash equal, and sets that differ anywhere differ.
    #[test]
    fn eq_and_hash_follow_the_content(d in arb_drawn(), e in arb_drawn()) {
        let (a, b) = (d.build(), e.build());
        prop_assert_eq!(a == b, format!("{d:?}") == format!("{e:?}"));
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
        prop_assert_eq!(hash_of(&a), hash_of(&a.clone()));
    }
}

/// Sets whose tail words are the same but split into lists
/// differently are different sets, and hash apart.
#[test]
fn eq_and_hash_see_the_list_boundaries() {
    let base = PathAttributes::local(NextHop(1));
    let set = |path: &[u32], comms: &[u32], ext: &[[u8; 8]], clusters: &[u32]| {
        base.with_lists(
            AsPath::sequence(path.iter().map(|&a| Asn(a))).borrowed(),
            comms.iter().map(|&c| Community(c)),
            ext.iter().map(|&e| ExtCommunity(e)),
            clusters.iter().map(|&c| ClusterId(c)),
        )
    };
    let e = [0, 0, 0, 2, 0, 0, 0, 3];
    let pairs = [
        // Path [1, 2] + clusters [3] against path [1] + clusters [2, 3].
        (set(&[1, 2], &[], &[], &[3]), set(&[1], &[], &[], &[2, 3])),
        // The same words: one community, or one cluster id.
        (set(&[1], &[5], &[], &[]), set(&[1], &[], &[], &[5])),
        // Two communities, one ext community, or two cluster ids.
        (set(&[1], &[2, 3], &[], &[]), set(&[1], &[], &[e], &[])),
        (set(&[1], &[], &[e], &[]), set(&[1], &[], &[], &[2, 3])),
        // One cluster id and one community moved into an ext community.
        (set(&[1], &[2], &[], &[3, 4]), set(&[1], &[], &[e], &[4])),
    ];
    for (a, b) in pairs {
        assert_ne!(a, b);
        assert_ne!(hash_of(&a), hash_of(&b), "{a:?} / {b:?}");
    }
}

#[test]
fn debug_of_a_typical_reflection() {
    let mut path = AsPath::sequence([Asn(7018), Asn(3356)]);
    path.push_segment(SegmentKind::Set, [Asn(1), Asn(2)]);
    let mut a = PathAttributes::ebgp(path, NextHop(0x0A00_0001)).with_local_pref(200);
    a.originator_id = Some(OriginatorId(4));
    let clusters = [ClusterId(1), ClusterId(2)];
    let a = a
        .with_lists(a.as_path(), a.communities(), a.ext_communities(), clusters)
        .with_abrr_reflected();
    assert_eq!(
        format!("{a:?}"),
        "[7018 3356 {1,2} nh=10.0.0.1 lp=Some(200) med=None orig=4 clist=[1, 2] reflected]"
    );
    assert_eq!(
        format!("{:?}", PathAttributes::local(NextHop(1))),
        "[<empty> nh=0.0.0.1 lp=Some(100) med=None]"
    );
}
