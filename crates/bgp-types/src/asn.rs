//! Autonomous-system numbers and AS_PATH values.

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

/// One segment of an AS_PATH (RFC 4271 §4.3 / §5.1.2).
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum AsSegment {
    /// An ordered sequence of ASes (`AS_SEQUENCE`).
    Sequence(Vec<Asn>),
    /// An unordered set of ASes (`AS_SET`), produced by aggregation.
    Set(Vec<Asn>),
}

impl AsSegment {
    /// Contribution of this segment to AS_PATH length for the decision
    /// process: a sequence counts each AS, a set counts as one
    /// (RFC 4271 §9.1.2.2(a)).
    pub fn path_len(&self) -> usize {
        match self {
            AsSegment::Sequence(v) => v.len(),
            AsSegment::Set(_) => 1,
        }
    }

    /// The ASes contained in the segment, in stored order.
    pub fn asns(&self) -> &[Asn] {
        match self {
            AsSegment::Sequence(v) | AsSegment::Set(v) => v,
        }
    }
}

impl fmt::Debug for AsSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsSegment::Sequence(v) => {
                let parts: Vec<String> = v.iter().map(|a| a.0.to_string()).collect();
                write!(f, "{}", parts.join(" "))
            }
            AsSegment::Set(v) => {
                let parts: Vec<String> = v.iter().map(|a| a.0.to_string()).collect();
                write!(f, "{{{}}}", parts.join(","))
            }
        }
    }
}

/// An AS_PATH attribute value: a list of segments.
///
/// ```
/// use bgp_types::{AsPath, Asn};
/// let p = AsPath::sequence([Asn(7018), Asn(3356), Asn(15169)]);
/// assert_eq!(p.path_len(), 3);
/// assert_eq!(p.first_as(), Some(Asn(7018)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct AsPath {
    /// The path segments, first segment nearest to the receiver.
    pub segments: Vec<AsSegment>,
}

impl AsPath {
    /// An empty path (a route originated in the local AS).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// Builds a path consisting of a single AS_SEQUENCE.
    pub fn sequence(asns: impl IntoIterator<Item = Asn>) -> Self {
        AsPath {
            segments: vec![AsSegment::Sequence(asns.into_iter().collect())],
        }
    }

    /// AS_PATH length for the decision process (AS_SET counts one).
    pub fn path_len(&self) -> usize {
        self.segments.iter().map(|s| s.path_len()).sum()
    }

    /// The neighbouring AS, i.e. the leftmost AS of the first
    /// AS_SEQUENCE segment. This is the AS whose MEDs are comparable
    /// (RFC 4271 §9.1.2.2(c)).
    pub fn first_as(&self) -> Option<Asn> {
        match self.segments.first() {
            Some(AsSegment::Sequence(v)) => v.first().copied(),
            Some(AsSegment::Set(v)) => v.first().copied(),
            None => None,
        }
    }

    /// The origin AS (rightmost AS of the last segment), if any.
    pub fn origin_as(&self) -> Option<Asn> {
        match self.segments.last() {
            Some(AsSegment::Sequence(v)) => v.last().copied(),
            Some(AsSegment::Set(v)) => v.last().copied(),
            None => None,
        }
    }

    /// Whether the path is empty (locally originated).
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.asns().is_empty())
    }

    /// Whether `asn` appears anywhere in the path (eBGP loop detection).
    pub fn contains(&self, asn: Asn) -> bool {
        self.segments.iter().any(|s| s.asns().contains(&asn))
    }

    /// Returns a new path with `asn` prepended, as done when a route is
    /// advertised over an eBGP session.
    pub fn prepend(&self, asn: Asn) -> AsPath {
        let mut segments = self.segments.clone();
        match segments.first_mut() {
            Some(AsSegment::Sequence(v)) => v.insert(0, asn),
            _ => segments.insert(0, AsSegment::Sequence(vec![asn])),
        }
        AsPath { segments }
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segments.is_empty() {
            return write!(f, "<empty>");
        }
        let parts: Vec<String> = self.segments.iter().map(|s| format!("{s:?}")).collect();
        write!(f, "{}", parts.join(" "))
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

    #[test]
    fn path_len_counts_set_as_one() {
        let p = AsPath {
            segments: vec![
                AsSegment::Sequence(vec![Asn(1), Asn(2)]),
                AsSegment::Set(vec![Asn(3), Asn(4), Asn(5)]),
            ],
        };
        assert_eq!(p.path_len(), 3);
    }

    #[test]
    fn first_and_origin_as() {
        let p = AsPath::sequence([Asn(10), Asn(20), Asn(30)]);
        assert_eq!(p.first_as(), Some(Asn(10)));
        assert_eq!(p.origin_as(), Some(Asn(30)));
        assert_eq!(AsPath::empty().first_as(), None);
    }

    #[test]
    fn prepend_extends_first_sequence() {
        let p = AsPath::sequence([Asn(20)]).prepend(Asn(10));
        assert_eq!(p, AsPath::sequence([Asn(10), Asn(20)]));
        // Prepending onto a set-first path creates a new sequence segment.
        let q = AsPath {
            segments: vec![AsSegment::Set(vec![Asn(5)])],
        }
        .prepend(Asn(10));
        assert_eq!(q.segments.len(), 2);
        assert_eq!(q.first_as(), Some(Asn(10)));
        assert_eq!(q.path_len(), 2);
    }

    #[test]
    fn loop_detection() {
        let p = AsPath::sequence([Asn(1), Asn(2), Asn(3)]);
        assert!(p.contains(Asn(2)));
        assert!(!p.contains(Asn(4)));
    }

    #[test]
    fn empty_path_is_local() {
        assert!(AsPath::empty().is_empty());
        assert_eq!(AsPath::empty().path_len(), 0);
    }
}
