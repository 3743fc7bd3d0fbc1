//! NLRI encoding: `<length, prefix>` per RFC 4271 §4.3, optionally
//! preceded by a 4-octet path identifier per RFC 7911 §3.

use crate::error::WireError;
use crate::read::{take, take_array, take_u32};
use bgp_types::{Ipv4Prefix, PathId};

/// One NLRI element: a prefix, optionally tagged with an add-paths
/// path identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Nlri {
    /// Path identifier; present iff add-paths was negotiated.
    pub path_id: Option<PathId>,
    /// The destination prefix.
    pub prefix: Ipv4Prefix,
}

impl Nlri {
    /// Plain NLRI without a path id.
    pub fn plain(prefix: Ipv4Prefix) -> Self {
        Nlri {
            path_id: None,
            prefix,
        }
    }

    /// Add-paths NLRI.
    pub fn with_path_id(prefix: Ipv4Prefix, id: PathId) -> Self {
        Nlri {
            path_id: Some(id),
            prefix,
        }
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self, add_paths: bool) -> usize {
        let prefix_bytes = (self.prefix.len() as usize).div_ceil(8);
        (if add_paths { 4 } else { 0 }) + 1 + prefix_bytes
    }

    /// Appends the wire form to `out`. When `add_paths` is set, an NLRI
    /// without a path id is encoded with path id 0.
    pub fn encode(&self, out: &mut Vec<u8>, add_paths: bool) {
        if add_paths {
            out.extend_from_slice(&self.path_id.map_or(0, |p| p.0).to_be_bytes());
        }
        out.push(self.prefix.len());
        let octets = self.prefix.addr_octets();
        let nbytes = (self.prefix.len() as usize).div_ceil(8);
        out.extend_from_slice(&octets[..nbytes]);
    }

    /// Decodes one NLRI element from the front of `buf`, advancing it.
    pub fn decode(buf: &mut &[u8], add_paths: bool) -> Result<Nlri, WireError> {
        let path_id = if add_paths {
            Some(PathId(take_u32(buf, "nlri path-id")?))
        } else {
            None
        };
        let [len] = take_array(buf, "nlri length")?;
        if len > 32 {
            return Err(WireError::InvalidNlri("prefix length > 32"));
        }
        let raw = take(buf, (len as usize).div_ceil(8), "nlri prefix")?;
        let mut octets = [0u8; 4];
        octets[..raw.len()].copy_from_slice(raw);
        let addr = u32::from_be_bytes(octets);
        Ok(Nlri {
            path_id,
            prefix: Ipv4Prefix::new(addr, len),
        })
    }

    /// Zero-copy iteration over an NLRI block: elements are decoded
    /// lazily straight off the borrowed slice, with no intermediate
    /// `Vec` — the hot path for byte-mode sessions. [`Nlri`] is
    /// `Copy`, so each yielded element is a pair of machine words,
    /// never an allocation.
    pub fn iter(block: &[u8], add_paths: bool) -> NlriIter<'_> {
        NlriIter {
            rest: block,
            add_paths,
        }
    }
}

/// Lazy decoder over a borrowed NLRI block (see [`Nlri::iter`]).
/// Yields `Err` once on the first malformed element, then stops.
#[derive(Clone, Debug)]
pub struct NlriIter<'a> {
    rest: &'a [u8],
    add_paths: bool,
}

impl Iterator for NlriIter<'_> {
    type Item = Result<Nlri, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        match Nlri::decode(&mut self.rest, self.add_paths) {
            Ok(n) => Some(Ok(n)),
            Err(e) => {
                self.rest = &[];
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn plain_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/15", "1.2.3.4/32"] {
            let n = Nlri::plain(pfx(s));
            let mut b = Vec::new();
            n.encode(&mut b, false);
            assert_eq!(b.len(), n.encoded_len(false));
            let d = Nlri::decode(&mut &b[..], false).unwrap();
            assert_eq!(d, n);
        }
    }

    #[test]
    fn add_paths_roundtrip() {
        let n = Nlri::with_path_id(pfx("10.0.0.0/9"), PathId(77));
        let mut b = Vec::new();
        n.encode(&mut b, true);
        assert_eq!(b.len(), 4 + 1 + 2);
        let d = Nlri::decode(&mut &b[..], true).unwrap();
        assert_eq!(d, n);
    }

    #[test]
    fn minimal_byte_count() {
        // /0 = 1 byte, /1../8 = 2 bytes, /9../16 = 3, etc.
        assert_eq!(Nlri::plain(pfx("0.0.0.0/0")).encoded_len(false), 1);
        assert_eq!(Nlri::plain(pfx("10.0.0.0/8")).encoded_len(false), 2);
        assert_eq!(Nlri::plain(pfx("10.128.0.0/9")).encoded_len(false), 3);
        assert_eq!(Nlri::plain(pfx("1.2.3.4/32")).encoded_len(false), 5);
    }

    #[test]
    fn rejects_overlong_prefix() {
        let raw: &[u8] = &[33, 0, 0, 0, 0, 0];
        let mut buf = raw;
        assert!(matches!(
            Nlri::decode(&mut buf, false),
            Err(WireError::InvalidNlri(_))
        ));
    }

    #[test]
    fn rejects_truncation() {
        let raw: &[u8] = &[24, 10, 0]; // /24 needs 3 prefix bytes, only 2 given
        let mut buf = raw;
        assert!(matches!(
            Nlri::decode(&mut buf, false),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn iter_consumes_everything() {
        let mut b = Vec::new();
        Nlri::plain(pfx("10.0.0.0/8")).encode(&mut b, false);
        Nlri::plain(pfx("11.0.0.0/8")).encode(&mut b, false);
        let v: Vec<Nlri> = Nlri::iter(&b, false).collect::<Result<_, _>>().unwrap();
        assert_eq!(v.len(), 2);
    }
}
