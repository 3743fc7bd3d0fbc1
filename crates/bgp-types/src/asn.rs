//! Autonomous-system numbers and AS_PATH values.
//!
//! An AS_PATH is one run of 32-bit words: each segment is a header word
//! (its kind in the top bit, its AS count below) followed by its ASNs.
//! [`AsPath`] owns such a run while a path is being built; a set of
//! [`PathAttributes`](crate::PathAttributes) keeps it at the front of its
//! one word tail, and lends it out as an [`AsPathRef`].

use std::fmt;

/// A 4-byte autonomous-system number (RFC 6793).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// The kind of an AS_PATH segment (RFC 4271 §4.3 / §5.1.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SegmentKind {
    /// An unordered set of ASes (`AS_SET`), produced by aggregation.
    Set,
    /// An ordered sequence of ASes (`AS_SEQUENCE`).
    Sequence,
}

/// A header word's kind bit; the bits below it count the segment's ASes.
const SET_BIT: u32 = 1 << 31;

/// The most ASes one segment holds: RFC 4271 §4.3 counts a segment's
/// ASes in one octet. [`AsPath::push_segment`] and
/// [`AsPathRef::prepend`] start a new segment rather than grow one past
/// it, so a path has one shape, in struct mode and on the wire alike.
pub const MAX_SEGMENT_ASNS: usize = 255;

fn header(kind: SegmentKind, asns: usize) -> u32 {
    debug_assert!(asns <= MAX_SEGMENT_ASNS);
    match kind {
        SegmentKind::Set => asns as u32 | SET_BIT,
        SegmentKind::Sequence => asns as u32,
    }
}

/// One segment of an AS_PATH, borrowed from its words.
#[derive(Clone, Copy)]
pub struct AsSegment<'a> {
    kind: SegmentKind,
    asns: &'a [u32],
}

impl<'a> AsSegment<'a> {
    /// Whether the segment is an `AS_SET` or an `AS_SEQUENCE`.
    pub fn kind(&self) -> SegmentKind {
        self.kind
    }

    /// The ASes contained in the segment, in stored order.
    pub fn asns(&self) -> impl ExactSizeIterator<Item = Asn> + Clone + 'a {
        self.asns.iter().map(|&a| Asn(a))
    }

    /// Contribution of this segment to AS_PATH length for the decision
    /// process: a sequence counts each AS, a set counts as one
    /// (RFC 4271 §9.1.2.2(a)).
    pub fn path_len(&self) -> usize {
        match self.kind {
            SegmentKind::Sequence => self.asns.len(),
            SegmentKind::Set => 1,
        }
    }
}

impl fmt::Debug for AsSegment<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.asns.iter().map(u32::to_string).collect();
        match self.kind {
            SegmentKind::Sequence => write!(f, "{}", parts.join(" ")),
            SegmentKind::Set => write!(f, "{{{}}}", parts.join(",")),
        }
    }
}

/// The segments of an AS_PATH, first segment nearest to the receiver.
#[derive(Clone)]
struct Segments<'a> {
    words: &'a [u32],
}

impl<'a> Iterator for Segments<'a> {
    type Item = AsSegment<'a>;

    fn next(&mut self) -> Option<AsSegment<'a>> {
        let (&head, rest) = self.words.split_first()?;
        let kind = if head & SET_BIT == 0 {
            SegmentKind::Sequence
        } else {
            SegmentKind::Set
        };
        // Words are written only by `AsPath::push_segment`, so a header
        // never counts past the end; if one did, the path would end here.
        let (asns, rest) = rest.split_at_checked((head & !SET_BIT) as usize)?;
        self.words = rest;
        Some(AsSegment { kind, asns })
    }
}

/// An AS_PATH attribute value, borrowed: from an [`AsPath`] or from a
/// set of path attributes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AsPathRef<'a> {
    words: &'a [u32],
}

impl<'a> AsPathRef<'a> {
    /// The path whose words are `words`, as [`AsPath`] writes them.
    pub(crate) fn from_words(words: &'a [u32]) -> Self {
        AsPathRef { words }
    }

    /// The path's words: segment headers and ASNs.
    pub(crate) fn words(self) -> &'a [u32] {
        self.words
    }

    /// The path segments, first segment nearest to the receiver.
    pub fn segments(self) -> impl Iterator<Item = AsSegment<'a>> + Clone + 'a {
        Segments { words: self.words }
    }

    /// AS_PATH length for the decision process (AS_SET counts one).
    pub fn path_len(self) -> usize {
        self.segments().map(|s| s.path_len()).sum()
    }

    /// The neighbouring AS, i.e. the leftmost AS of the first
    /// segment. This is the AS whose MEDs are comparable
    /// (RFC 4271 §9.1.2.2(c)).
    pub fn first_as(self) -> Option<Asn> {
        self.segments().next()?.asns().next()
    }

    /// Returns a new path with `asn` prepended, as done when a route is
    /// advertised over an eBGP session: into the first segment if it is
    /// an AS_SEQUENCE with room ([`MAX_SEGMENT_ASNS`]), else as a new
    /// one-AS sequence in front.
    pub fn prepend(self, asn: Asn) -> AsPath {
        let mut words = Vec::with_capacity(self.words.len() + 2);
        match self.segments().next() {
            Some(first)
                if first.kind == SegmentKind::Sequence && first.asns.len() < MAX_SEGMENT_ASNS =>
            {
                words.extend([header(SegmentKind::Sequence, first.asns.len() + 1), asn.0]);
                words.extend_from_slice(&self.words[1..]);
            }
            _ => {
                words.extend([header(SegmentKind::Sequence, 1), asn.0]);
                words.extend_from_slice(self.words);
            }
        }
        AsPath { words }
    }
}

impl fmt::Debug for AsPathRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.words.is_empty() {
            return write!(f, "<empty>");
        }
        let parts: Vec<String> = self.segments().map(|s| format!("{s:?}")).collect();
        write!(f, "{}", parts.join(" "))
    }
}

impl fmt::Display for AsPathRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An AS_PATH attribute value, owned: one run of words, segment by
/// segment. Read it through [`AsPath::borrowed`].
///
/// ```
/// use bgp_types::{AsPath, Asn};
/// let p = AsPath::sequence([Asn(7018), Asn(3356), Asn(15169)]);
/// assert_eq!(p.borrowed().path_len(), 3);
/// assert_eq!(p.borrowed().first_as(), Some(Asn(7018)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct AsPath {
    words: Vec<u32>,
}

impl AsPath {
    /// An empty path (a route originated in the local AS).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// Builds a path consisting of a single AS_SEQUENCE.
    pub fn sequence(asns: impl IntoIterator<Item = Asn>) -> Self {
        let mut path = AsPath::empty();
        path.push_segment(SegmentKind::Sequence, asns);
        path
    }

    /// Appends `asns` as a segment of `kind`, after the others: as
    /// several segments of `kind` of at most [`MAX_SEGMENT_ASNS`] each
    /// when there are more, as the wire carries them. So an AS_SET of
    /// 300 ASes is two sets and counts 2 in the decision's path length.
    /// The words are reserved exactly when `asns` knows its length and
    /// fits one segment.
    pub fn push_segment(&mut self, kind: SegmentKind, asns: impl IntoIterator<Item = Asn>) {
        let asns = asns.into_iter();
        self.words.reserve_exact(1 + asns.size_hint().0);
        let at = self.words.len();
        self.words.push(0);
        self.words.extend(asns.map(|a| a.0));
        let n = self.words.len() - at - 1;
        if n <= MAX_SEGMENT_ASNS {
            self.words[at] = header(kind, n);
            return;
        }
        // Past the cap: one segment per run of at most the cap.
        let run = self.words.split_off(at);
        for asns in run[1..].chunks(MAX_SEGMENT_ASNS) {
            self.words.push(header(kind, asns.len()));
            self.words.extend_from_slice(asns);
        }
    }

    /// Empties the path, keeping its buffer for the next one.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// The path, borrowed.
    pub fn borrowed(&self) -> AsPathRef<'_> {
        AsPathRef { words: &self.words }
    }

    /// The path's words, for a set's tail.
    pub(crate) fn into_words(self) -> Vec<u32> {
        self.words
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.borrowed(), f)
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(segments: &[(SegmentKind, &[u32])]) -> AsPath {
        let mut p = AsPath::empty();
        for (kind, asns) in segments {
            p.push_segment(*kind, asns.iter().map(|&a| Asn(a)));
        }
        p
    }

    #[test]
    fn path_len_counts_set_as_one() {
        let p = path(&[
            (SegmentKind::Sequence, &[1, 2]),
            (SegmentKind::Set, &[3, 4, 5]),
        ]);
        assert_eq!(p.borrowed().path_len(), 3);
        // An empty set still counts one, as a segment.
        assert_eq!(path(&[(SegmentKind::Set, &[])]).borrowed().path_len(), 1);
    }

    #[test]
    fn first_as_is_the_first_segments_first() {
        let p = AsPath::sequence([Asn(10), Asn(20), Asn(30)]);
        assert_eq!(p.borrowed().first_as(), Some(Asn(10)));
        assert_eq!(AsPath::empty().borrowed().first_as(), None);
        // Only the first segment is looked at.
        let q = path(&[(SegmentKind::Sequence, &[]), (SegmentKind::Set, &[7])]);
        assert_eq!(q.borrowed().first_as(), None);
    }

    /// A run past 255 ASes is held as the wire carries it: segments of
    /// 255 and the rest, of its kind, whatever builds it.
    #[test]
    fn long_segments_are_held_as_the_wire_carries_them() {
        let shape = |p: &AsPath| -> Vec<(SegmentKind, usize)> {
            let segments = p.borrowed().segments();
            segments.map(|s| (s.kind(), s.asns().len())).collect()
        };
        let set = path(&[(SegmentKind::Set, &(0..300).collect::<Vec<_>>())]);
        assert_eq!(
            shape(&set),
            [(SegmentKind::Set, 255), (SegmentKind::Set, 45)]
        );
        assert_eq!(set.borrowed().path_len(), 2);
        let full = AsPath::sequence((0..255).map(Asn));
        assert_eq!(shape(&full), [(SegmentKind::Sequence, 255)]);
        let longer = full.borrowed().prepend(Asn(7));
        let want = [(SegmentKind::Sequence, 1), (SegmentKind::Sequence, 255)];
        assert_eq!(shape(&longer), want);
        assert_eq!(longer.borrowed().path_len(), 256);
    }

    #[test]
    fn prepend_extends_first_sequence() {
        let p = AsPath::sequence([Asn(20)]).borrowed().prepend(Asn(10));
        assert_eq!(p, AsPath::sequence([Asn(10), Asn(20)]));
        // Prepending onto a set-first path creates a new sequence segment.
        let q = path(&[(SegmentKind::Set, &[5])])
            .borrowed()
            .prepend(Asn(10));
        assert_eq!(q.borrowed().segments().count(), 2);
        assert_eq!(q.borrowed().first_as(), Some(Asn(10)));
        assert_eq!(q.borrowed().path_len(), 2);
        // And onto an empty path, the first segment.
        assert_eq!(
            AsPath::empty().borrowed().prepend(Asn(3)),
            AsPath::sequence([Asn(3)])
        );
    }

    #[test]
    fn empty_path_is_local() {
        assert_eq!(AsPath::empty().borrowed().segments().count(), 0);
        assert_eq!(AsPath::empty().borrowed().path_len(), 0);
        assert_eq!(
            path(&[(SegmentKind::Sequence, &[])]).borrowed().path_len(),
            0
        );
    }

    #[test]
    fn debug_renders_segments() {
        let p = path(&[
            (SegmentKind::Sequence, &[1, 2]),
            (SegmentKind::Set, &[3, 4]),
        ]);
        assert_eq!(format!("{p:?}"), "1 2 {3,4}");
        assert_eq!(format!("{}", p.borrowed()), "1 2 {3,4}");
        assert_eq!(format!("{:?}", AsPath::empty()), "<empty>");
        assert_eq!(format!("{:?}", path(&[(SegmentKind::Set, &[])])), "{}");
    }
}
