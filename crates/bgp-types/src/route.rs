//! Routes: path attributes plus provenance.

use crate::asn::{AsPath, AsPathRef, Asn};
use crate::attrs::{
    ClusterId, Community, ExtCommunity, LocalPref, Med, NextHop, Origin, OriginatorId,
};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::slice::ChunksExact;

/// A router identity — the 32-bit BGP Identifier from the OPEN message.
/// In this reproduction a router's ID doubles as its loopback address,
/// so `RouterId` values also appear as [`NextHop`]s and peer addresses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouterId(pub u32);

impl fmt::Debug for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An add-paths path identifier (draft-ietf-idr-add-paths, now RFC 7911):
/// disambiguates multiple routes for the same prefix on one session.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PathId(pub u32);

/// A list attribute's value as a set's tail keeps it: `WORDS` 32-bit
/// words.
pub trait TailValue: Copy {
    /// Words per value.
    const WORDS: usize;
    /// The value that `words` (`WORDS` long) hold.
    fn from_words(words: &[u32]) -> Self;
    /// Appends the value's words to `tail`.
    fn push_words(self, tail: &mut Vec<u32>);
}

impl TailValue for Community {
    const WORDS: usize = 1;
    fn from_words(words: &[u32]) -> Self {
        Community(words[0])
    }
    fn push_words(self, tail: &mut Vec<u32>) {
        tail.push(self.0);
    }
}

impl TailValue for ClusterId {
    const WORDS: usize = 1;
    fn from_words(words: &[u32]) -> Self {
        ClusterId(words[0])
    }
    fn push_words(self, tail: &mut Vec<u32>) {
        tail.push(self.0);
    }
}

/// The eight octets as two big-endian words, first octets first.
impl TailValue for ExtCommunity {
    const WORDS: usize = 2;
    fn from_words(words: &[u32]) -> Self {
        let mut octets = [0; 8];
        octets[..4].copy_from_slice(&words[0].to_be_bytes());
        octets[4..].copy_from_slice(&words[1].to_be_bytes());
        ExtCommunity(octets)
    }
    fn push_words(self, tail: &mut Vec<u32>) {
        let o = self.0;
        tail.push(u32::from_be_bytes([o[0], o[1], o[2], o[3]]));
        tail.push(u32::from_be_bytes([o[4], o[5], o[6], o[7]]));
    }
}

/// The values of an [`AttrList`], in order.
pub type Values<'a, T> = std::iter::Map<ChunksExact<'a, u32>, fn(&[u32]) -> T>;

/// A list attribute of a set (communities, ext communities or the
/// CLUSTER_LIST), borrowed from its tail. Two lists are equal when
/// their values are.
pub struct AttrList<'a, T> {
    words: &'a [u32],
    of: PhantomData<T>,
}

impl<T> Clone for AttrList<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for AttrList<'_, T> {}

impl<T> PartialEq for AttrList<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl<T> Eq for AttrList<'_, T> {}

impl<'a, T: TailValue> AttrList<'a, T> {
    fn new(words: &'a [u32]) -> Self {
        AttrList {
            words,
            of: PhantomData,
        }
    }

    /// Number of values.
    pub fn len(self) -> usize {
        self.words.len() / T::WORDS
    }

    /// Whether the list holds no value.
    pub fn is_empty(self) -> bool {
        self.words.is_empty()
    }

    /// The values, in order.
    pub fn iter(self) -> Values<'a, T> {
        self.words.chunks_exact(T::WORDS).map(T::from_words)
    }

    /// Whether `value` is in the list.
    pub fn contains(self, value: T) -> bool
    where
        T: PartialEq,
    {
        self.iter().any(|v| v == value)
    }

    /// The first `n` values and the rest, or `None` past the end.
    pub fn split_at(self, n: usize) -> Option<(Self, Self)> {
        let (head, rest) = self.words.split_at_checked(n.checked_mul(T::WORDS)?)?;
        Some((AttrList::new(head), AttrList::new(rest)))
    }
}

impl<'a, T: TailValue> IntoIterator for AttrList<'a, T> {
    type Item = T;
    type IntoIter = Values<'a, T>;

    fn into_iter(self) -> Values<'a, T> {
        self.iter()
    }
}

impl<T: TailValue + fmt::Debug> fmt::Debug for AttrList<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The set of path attributes attached to a route. Only the attributes
/// the paper's protocols manipulate are modelled.
///
/// The scalar attributes are public fields. The four list attributes
/// share one exact-size word slice, the *tail*, in this order: the
/// AS_PATH's words (see [`crate::asn`]), the communities (one word
/// each), the ext communities (two each) and the CLUSTER_LIST (one
/// each). The head counts the words of every list but the ext
/// communities, which are the rest, and caches the AS_PATH's decision
/// length, so the decision process reads no tail word; a count is 16
/// bits, so a list holds fewer than 2^16 words. A set without lists
/// allocates no tail. Lists are read through accessors and set through
/// builders, each of which writes a new tail once.
///
/// `Eq` and `Hash` are those of the set's [`AttrsView`], so a set and
/// a view of equal content hash and compare alike.
#[derive(Clone)]
pub struct PathAttributes {
    /// ORIGIN (mandatory).
    pub origin: Origin,
    /// NEXT_HOP (mandatory).
    pub next_hop: NextHop,
    /// MULTI_EXIT_DISC (optional non-transitive).
    pub med: Option<Med>,
    /// LOCAL_PREF (present on iBGP sessions).
    pub local_pref: Option<LocalPref>,
    /// ORIGINATOR_ID (set by route reflectors, RFC 4456).
    pub originator_id: Option<OriginatorId>,
    counts: Counts,
    tail: Box<[u32]>,
}

/// What a set's head keeps of its tail: the AS_PATH's decision length
/// and the words of the AS_PATH, the communities and the CLUSTER_LIST.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Counts {
    path_len: u16,
    path_words: u16,
    communities: u16,
    clusters: u16,
}

/// A set of path attributes, borrowed: the head by value and the tail
/// by reference, laid out as [`PathAttributes`] lays them out. A set
/// hashes and compares through its view ([`PathAttributes::view`]), so
/// a view hashes and compares exactly as the owned set of equal
/// content, and the interner can look a set up by view
/// ([`crate::intern::intern_view`]) before anything is owned. A parser
/// writes one into a buffer it reuses ([`PathAttributes::view_in`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttrsView<'a> {
    origin: Origin,
    next_hop: NextHop,
    med: Option<Med>,
    local_pref: Option<LocalPref>,
    originator_id: Option<OriginatorId>,
    counts: Counts,
    tail: &'a [u32],
}

/// The owned set: the view's tail copied into one exact-size slice.
impl From<AttrsView<'_>> for PathAttributes {
    fn from(v: AttrsView<'_>) -> Self {
        PathAttributes {
            origin: v.origin,
            next_hop: v.next_hop,
            med: v.med,
            local_pref: v.local_pref,
            originator_id: v.originator_id,
            counts: v.counts,
            tail: v.tail.into(),
        }
    }
}

impl fmt::Debug for AttrsView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&PathAttributes::from(*self), f)
    }
}

impl PartialEq for PathAttributes {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for PathAttributes {}

impl Hash for PathAttributes {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state)
    }
}

/// Writes a set's lists into `tail`, which is empty, in tail order, and
/// returns the head's counts of them.
fn write_tail<C, E, K>(tail: &mut Vec<u32>, as_path: AsPathRef<'_>, c: C, e: E, k: K) -> Counts
where
    C: Iterator<Item = Community>,
    E: Iterator<Item = ExtCommunity>,
    K: Iterator<Item = ClusterId>,
{
    let path = as_path.words();
    tail.extend_from_slice(path);
    c.for_each(|v| v.push_words(tail));
    let communities = tail.len() - path.len();
    e.for_each(|v| v.push_words(tail));
    let ext_end = tail.len();
    k.for_each(|v| v.push_words(tail));
    Counts {
        path_len: head_count(as_path.path_len()),
        path_words: head_count(path.len()),
        communities: head_count(communities),
        clusters: head_count(tail.len() - ext_end),
    }
}

/// A list's word count as the head keeps it.
fn head_count(words: usize) -> u16 {
    let count = u16::try_from(words).ok();
    // Invariant: every list is under 2^16 words. A decoded set
    // comes from an attribute block under 2^16 bytes, two or more bytes
    // a word; the model's paths hold a few ASes; and a reflector or an
    // eBGP hop adds a word or two, once per hop of a loop-free route.
    count.expect("attribute list of 2^16 words or more")
}

/// Every attribute of a set, borrowed. Code that must handle each
/// attribute (a reflection check, the encoder) destructures it, so a
/// new attribute fails to compile there until it is handled.
#[derive(Clone, Copy)]
pub struct Parts<'a> {
    /// ORIGIN.
    pub origin: Origin,
    /// AS_PATH.
    pub as_path: AsPathRef<'a>,
    /// NEXT_HOP.
    pub next_hop: NextHop,
    /// MULTI_EXIT_DISC.
    pub med: Option<Med>,
    /// LOCAL_PREF.
    pub local_pref: Option<LocalPref>,
    /// Standard communities.
    pub communities: AttrList<'a, Community>,
    /// Extended communities.
    pub ext_communities: AttrList<'a, ExtCommunity>,
    /// ORIGINATOR_ID.
    pub originator_id: Option<OriginatorId>,
    /// CLUSTER_LIST.
    pub cluster_list: AttrList<'a, ClusterId>,
}

impl PathAttributes {
    /// Attributes for a locally-originated route with sensible defaults.
    pub fn local(next_hop: NextHop) -> Self {
        PathAttributes {
            local_pref: Some(LocalPref::DEFAULT),
            ..PathAttributes::ebgp(AsPath::empty(), next_hop)
        }
    }

    /// Attributes for an eBGP-learned route. The path's words become
    /// the tail as they are.
    pub fn ebgp(as_path: AsPath, next_hop: NextHop) -> Self {
        let path_len = head_count(as_path.borrowed().path_len());
        let words = as_path.into_words();
        PathAttributes {
            origin: Origin::Igp,
            next_hop,
            med: None,
            local_pref: None,
            originator_id: None,
            counts: Counts {
                path_len,
                path_words: head_count(words.len()),
                communities: 0,
                clusters: 0,
            },
            tail: words.into_boxed_slice(),
        }
    }

    /// This set's scalar attributes with the given lists, written into
    /// one new tail.
    pub fn with_lists<C, E, K>(
        &self,
        as_path: AsPathRef<'_>,
        communities: C,
        ext_communities: E,
        cluster_list: K,
    ) -> Self
    where
        C: IntoIterator<Item = Community>,
        E: IntoIterator<Item = ExtCommunity>,
        K: IntoIterator<Item = ClusterId>,
    {
        let (c, e, k) = (
            communities.into_iter(),
            ext_communities.into_iter(),
            cluster_list.into_iter(),
        );
        // The lists and chains the builders pass give their lengths as
        // lower bounds, so the tail is allocated once, exactly.
        let mut tail = Vec::with_capacity(
            as_path.words().len() + c.size_hint().0 + 2 * e.size_hint().0 + k.size_hint().0,
        );
        let counts = write_tail(&mut tail, as_path, c, e, k);
        PathAttributes {
            counts,
            tail: tail.into_boxed_slice(),
            ..*self
        }
    }

    /// This set's scalar attributes with the given lists, as a view
    /// whose tail is written into `buf` (cleared first): what
    /// [`PathAttributes::with_lists`] builds, with no allocation once
    /// `buf` has grown to the set's size. A parser reuses one `buf`
    /// for every set it reads.
    pub fn view_in<'b, C, E, K>(
        &self,
        buf: &'b mut Vec<u32>,
        as_path: AsPathRef<'_>,
        communities: C,
        ext_communities: E,
        cluster_list: K,
    ) -> AttrsView<'b>
    where
        C: IntoIterator<Item = Community>,
        E: IntoIterator<Item = ExtCommunity>,
        K: IntoIterator<Item = ClusterId>,
    {
        buf.clear();
        let counts = write_tail(
            buf,
            as_path,
            communities.into_iter(),
            ext_communities.into_iter(),
            cluster_list.into_iter(),
        );
        AttrsView {
            counts,
            tail: buf,
            ..self.view()
        }
    }

    /// The set, borrowed.
    #[inline]
    pub fn view(&self) -> AttrsView<'_> {
        AttrsView {
            origin: self.origin,
            next_hop: self.next_hop,
            med: self.med,
            local_pref: self.local_pref,
            originator_id: self.originator_id,
            counts: self.counts,
            tail: &self.tail,
        }
    }

    /// A copy with `asn` prepended to the AS_PATH (an eBGP hop).
    pub fn with_as_prepended(&self, asn: Asn) -> Self {
        self.with_lists(
            self.as_path().prepend(asn).borrowed(),
            self.communities(),
            self.ext_communities(),
            self.cluster_list(),
        )
    }

    /// A copy with `clusters` prepended to the CLUSTER_LIST, in order
    /// (RFC 4456 reflection).
    pub fn with_clusters_prepended(&self, clusters: impl IntoIterator<Item = ClusterId>) -> Self {
        let cluster_list = clusters.into_iter().chain(self.cluster_list());
        self.with_lists(
            self.as_path(),
            self.communities(),
            self.ext_communities(),
            cluster_list,
        )
    }

    /// A copy as it was before any reflector handled it: no
    /// ORIGINATOR_ID, no CLUSTER_LIST and no ABRR reflected marker —
    /// the iBGP-internal attributes a border strips from a route learned
    /// over eBGP.
    pub fn without_reflection(&self) -> Self {
        let ext = self.ext_communities().iter();
        let mut out = self.with_lists(
            self.as_path(),
            self.communities(),
            ext.filter(|c| !c.is_abrr_reflected()),
            [],
        );
        out.originator_id = None;
        out
    }

    /// The AS_PATH.
    pub fn as_path(&self) -> AsPathRef<'_> {
        AsPathRef::from_words(&self.tail[..usize::from(self.counts.path_words)])
    }

    /// The AS_PATH's length for the decision process (AS_SET counts
    /// one), kept in the head.
    pub fn as_path_len(&self) -> usize {
        usize::from(self.counts.path_len)
    }

    /// Standard communities.
    pub fn communities(&self) -> AttrList<'_, Community> {
        let start = usize::from(self.counts.path_words);
        AttrList::new(&self.tail[start..start + usize::from(self.counts.communities)])
    }

    /// Extended communities (carries the ABRR reflected marker).
    pub fn ext_communities(&self) -> AttrList<'_, ExtCommunity> {
        let start = usize::from(self.counts.path_words) + usize::from(self.counts.communities);
        AttrList::new(&self.tail[start..self.tail.len() - usize::from(self.counts.clusters)])
    }

    /// CLUSTER_LIST (prepended to by route reflectors, RFC 4456). Its
    /// length is known from the head alone.
    pub fn cluster_list(&self) -> AttrList<'_, ClusterId> {
        AttrList::new(&self.tail[self.tail.len() - usize::from(self.counts.clusters)..])
    }

    /// Every attribute, borrowed.
    pub fn parts(&self) -> Parts<'_> {
        // Destructured, so a new field fails to compile here until
        // `Parts` carries it.
        let PathAttributes {
            origin,
            next_hop,
            med,
            local_pref,
            originator_id,
            counts: _,
            tail: _,
        } = *self;
        Parts {
            origin,
            as_path: self.as_path(),
            next_hop,
            med,
            local_pref,
            communities: self.communities(),
            ext_communities: self.ext_communities(),
            originator_id,
            cluster_list: self.cluster_list(),
        }
    }

    /// Bytes the tail takes on the heap.
    pub(crate) fn tail_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.tail)
    }

    /// Effective LOCAL_PREF for the decision process.
    pub fn effective_local_pref(&self) -> LocalPref {
        self.local_pref.unwrap_or(LocalPref::DEFAULT)
    }

    /// Effective MED: a missing MED is treated as the lowest (0),
    /// the common vendor default.
    pub fn effective_med(&self) -> Med {
        self.med.unwrap_or(Med(0))
    }

    /// Whether the ABRR reflected marker is present (paper §2.3.2).
    pub fn is_abrr_reflected(&self) -> bool {
        self.ext_communities()
            .contains(ExtCommunity::ABRR_REFLECTED)
    }

    /// Returns a copy with the ABRR reflected marker added (idempotent).
    pub fn with_abrr_reflected(&self) -> PathAttributes {
        if self.is_abrr_reflected() {
            return self.clone();
        }
        let ext = self.ext_communities().iter();
        self.with_lists(
            self.as_path(),
            self.communities(),
            ext.chain([ExtCommunity::ABRR_REFLECTED]),
            self.cluster_list(),
        )
    }

    /// Builder-style MED setter.
    pub fn with_med(mut self, med: u32) -> Self {
        self.med = Some(Med(med));
        self
    }

    /// Builder-style LOCAL_PREF setter.
    pub fn with_local_pref(mut self, lp: u32) -> Self {
        self.local_pref = Some(LocalPref(lp));
        self
    }
}

/// `[path nh=… lp=… med=…]`, then ` orig=…` and ` clist=[…]` when
/// present and ` reflected` when marked. Communities are not shown.
/// Fingerprints and golden files hold this text: it must not change.
impl fmt::Debug for PathAttributes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?} nh={:?} lp={:?} med={:?}",
            self.as_path(),
            self.next_hop,
            self.local_pref.map(|l| l.0),
            self.med.map(|m| m.0),
        )?;
        if let Some(oid) = self.originator_id {
            write!(f, " orig={}", oid.0)?;
        }
        let clusters = self.cluster_list();
        if !clusters.is_empty() {
            let ids: Vec<u32> = clusters.iter().map(|c| c.0).collect();
            write!(f, " clist={ids:?}")?;
        }
        if self.is_abrr_reflected() {
            write!(f, " reflected")?;
        }
        write!(f, "]")
    }
}

/// Where a route was learned from. This is receiver-side provenance used
/// by the decision process (step 5: eBGP over iBGP; step 8: lowest peer
/// address) and by the advertisement rules in paper Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RouteSource {
    /// Learned over an eBGP session from `peer_as` at `peer_addr`.
    Ebgp {
        /// The neighbouring AS.
        peer_as: Asn,
        /// The eBGP peer's address.
        peer_addr: u32,
    },
    /// Learned over an iBGP session from `peer` (an ARR, TRR, or
    /// full-mesh neighbour).
    Ibgp {
        /// The iBGP peer the route arrived from.
        peer: RouterId,
    },
}

impl RouteSource {
    /// True when the route is eBGP-learned — what the paper calls an
    /// "other-learned" route (§2.2); only such routes may be advertised
    /// into iBGP.
    pub fn is_other_learned(&self) -> bool {
        !matches!(self, RouteSource::Ibgp { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_attrs_have_default_local_pref() {
        let a = PathAttributes::local(NextHop(1));
        assert_eq!(a.effective_local_pref(), LocalPref::DEFAULT);
        assert_eq!(a.as_path().path_len(), 0);
    }

    #[test]
    fn ebgp_attrs_have_no_local_pref() {
        let a = PathAttributes::ebgp(AsPath::sequence([Asn(1)]), NextHop(2));
        assert!(a.local_pref.is_none());
        assert_eq!(a.effective_local_pref(), LocalPref::DEFAULT);
    }

    #[test]
    fn effective_med_defaults_to_zero() {
        let a = PathAttributes::ebgp(AsPath::sequence([Asn(1)]), NextHop(2));
        assert_eq!(a.effective_med(), Med(0));
        assert_eq!(a.with_med(7).effective_med(), Med(7));
    }

    #[test]
    fn reflected_marker_is_idempotent() {
        let a = PathAttributes::local(NextHop(1));
        assert!(!a.is_abrr_reflected());
        let b = a.with_abrr_reflected();
        assert!(b.is_abrr_reflected());
        let c = b.with_abrr_reflected();
        assert_eq!(b, c);
        assert_eq!(c.ext_communities().len(), 1);
    }

    #[test]
    fn other_learned_classification() {
        assert!(RouteSource::Ebgp {
            peer_as: Asn(1),
            peer_addr: 9
        }
        .is_other_learned());
        assert!(!RouteSource::Ibgp { peer: RouterId(3) }.is_other_learned());
    }
}
