//! IPv4 prefixes and contiguous address ranges.

use std::fmt;
use std::str::FromStr;

/// An IPv4 prefix: a network address and a mask length.
///
/// The address is always stored in *canonical* form, i.e. host bits below
/// the mask length are zero. Construction through [`Ipv4Prefix::new`]
/// enforces this by masking.
///
/// ```
/// use bgp_types::Ipv4Prefix;
/// let p: Ipv4Prefix = "10.1.2.0/24".parse().unwrap();
/// assert!(p.contains_addr(0x0A010203));
/// assert_eq!(p.to_string(), "10.1.2.0/24");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Prefix {
    addr: u32,
    len: u8,
}

// `len` is the prefix length in bits, not a container size.
#[allow(clippy::len_without_is_empty)]
impl Ipv4Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix { addr: 0, len: 0 };

    /// Creates a prefix, masking off any host bits below `len`.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} out of range");
        Ipv4Prefix {
            addr: addr & Self::mask(len),
            len,
        }
    }

    /// The network mask for a given prefix length.
    #[inline]
    pub fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The (canonical) network address.
    #[inline]
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// The prefix length in bits.
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The first address covered by the prefix.
    #[inline]
    pub fn first_addr(&self) -> u32 {
        self.addr
    }

    /// The last address covered by the prefix.
    #[inline]
    pub fn last_addr(&self) -> u32 {
        self.addr | !Self::mask(self.len)
    }

    /// Whether `addr` falls inside this prefix.
    #[inline]
    pub fn contains_addr(&self, addr: u32) -> bool {
        addr & Self::mask(self.len) == self.addr
    }

    /// Whether `other` is fully covered by `self` (equal or more specific).
    pub fn contains(&self, other: &Ipv4Prefix) -> bool {
        other.len >= self.len && self.contains_addr(other.addr)
    }

    /// Whether the two prefixes share any address.
    pub fn overlaps(&self, other: &Ipv4Prefix) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// The covered address range.
    pub fn range(&self) -> AddressRange {
        AddressRange::new(self.first_addr(), self.last_addr())
    }

    /// The number of addresses covered (as u64 so /0 fits).
    pub fn num_addrs(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// The immediate parent prefix (one bit shorter), or `None` for /0.
    pub fn parent(&self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Ipv4Prefix::new(self.addr, self.len - 1))
        }
    }

    /// Formats the address in dotted-quad notation.
    pub fn addr_octets(&self) -> [u8; 4] {
        self.addr.to_be_bytes()
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.addr_octets();
        write!(f, "{}.{}.{}.{}/{}", o[0], o[1], o[2], o[3], self.len)
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error returned when parsing a prefix from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError(pub String);

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 prefix: {}", self.0)
    }
}

impl std::error::Error for PrefixParseError {}

impl FromStr for Ipv4Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_part, len_part) = s
            .split_once('/')
            .ok_or_else(|| PrefixParseError(s.to_string()))?;
        let len: u8 = len_part
            .parse()
            .map_err(|_| PrefixParseError(s.to_string()))?;
        if len > 32 {
            return Err(PrefixParseError(s.to_string()));
        }
        let mut addr: u32 = 0;
        let mut count = 0;
        for oct in addr_part.split('.') {
            let v: u8 = oct.parse().map_err(|_| PrefixParseError(s.to_string()))?;
            addr = (addr << 8) | v as u32;
            count += 1;
        }
        if count != 4 {
            return Err(PrefixParseError(s.to_string()));
        }
        Ok(Ipv4Prefix::new(addr, len))
    }
}

/// A contiguous, inclusive range of IPv4 addresses `[start, end]`.
///
/// Address Partitions (paper §2.1) are defined as address ranges; a range
/// need not align to a prefix boundary.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AddressRange {
    start: u32,
    end: u32,
}

impl AddressRange {
    /// The full IPv4 address space.
    pub const FULL: AddressRange = AddressRange {
        start: 0,
        end: u32::MAX,
    };

    /// Creates a range. `start` must be `<= end`.
    ///
    /// # Panics
    /// Panics if `start > end`.
    pub fn new(start: u32, end: u32) -> Self {
        assert!(start <= end, "empty address range");
        AddressRange { start, end }
    }

    /// First address in the range.
    #[inline]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Last address in the range (inclusive).
    #[inline]
    pub fn end(&self) -> u32 {
        self.end
    }

    /// Number of addresses covered.
    pub fn num_addrs(&self) -> u64 {
        (self.end - self.start) as u64 + 1
    }

    /// Whether `addr` falls in the range.
    #[inline]
    pub fn contains_addr(&self, addr: u32) -> bool {
        self.start <= addr && addr <= self.end
    }

    /// Whether the prefix overlaps the range at all.
    pub fn overlaps_prefix(&self, p: &Ipv4Prefix) -> bool {
        p.first_addr() <= self.end && p.last_addr() >= self.start
    }

    /// Splits the full address space into `n` equal-size ranges (the
    /// "uniform address ranges" configuration of paper §4).
    pub fn split_uniform(n: usize) -> Vec<AddressRange> {
        assert!(n > 0);
        let total: u64 = 1 << 32;
        let chunk = total / n as u64;
        let mut out = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let start = (i * chunk) as u32;
            let end = if i == n as u64 - 1 {
                u32::MAX
            } else {
                ((i + 1) * chunk - 1) as u32
            };
            out.push(AddressRange::new(start, end));
        }
        out
    }
}

impl fmt::Display for AddressRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.start.to_be_bytes();
        let e = self.end.to_be_bytes();
        write!(
            f,
            "{}.{}.{}.{}-{}.{}.{}.{}",
            s[0], s[1], s[2], s[3], e[0], e[1], e[2], e[3]
        )
    }
}

impl fmt::Debug for AddressRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalizes_host_bits() {
        let p = Ipv4Prefix::new(0x0A01_02FF, 24);
        assert_eq!(p.addr(), 0x0A01_0200);
        assert_eq!(p.to_string(), "10.1.2.0/24");
    }

    #[test]
    fn parse_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.128/25", "1.2.3.4/32"] {
            let p: Ipv4Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.256/8".parse::<Ipv4Prefix>().is_err());
        assert!("a.b.c.d/8".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn containment() {
        let p8: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let p24: Ipv4Prefix = "10.1.2.0/24".parse().unwrap();
        let other: Ipv4Prefix = "11.0.0.0/8".parse().unwrap();
        assert!(p8.contains(&p24));
        assert!(!p24.contains(&p8));
        assert!(p8.overlaps(&p24));
        assert!(!p8.overlaps(&other));
        assert!(p8.contains(&p8));
    }

    #[test]
    fn first_last_addr() {
        let p: Ipv4Prefix = "10.1.2.0/24".parse().unwrap();
        assert_eq!(p.first_addr(), 0x0A010200);
        assert_eq!(p.last_addr(), 0x0A0102FF);
        assert_eq!(p.num_addrs(), 256);
        let d = Ipv4Prefix::DEFAULT;
        assert_eq!(d.first_addr(), 0);
        assert_eq!(d.last_addr(), u32::MAX);
        assert_eq!(d.num_addrs(), 1 << 32);
    }

    #[test]
    fn parent_chain() {
        let p: Ipv4Prefix = "10.1.2.0/24".parse().unwrap();
        let parent = p.parent().unwrap();
        assert_eq!(parent.len(), 23);
        assert!(parent.contains(&p));
        assert!(Ipv4Prefix::DEFAULT.parent().is_none());
    }

    #[test]
    fn uniform_split_covers_space() {
        for n in [1usize, 2, 3, 7, 16, 32] {
            let ranges = AddressRange::split_uniform(n);
            assert_eq!(ranges.len(), n);
            assert_eq!(ranges[0].start(), 0);
            assert_eq!(ranges[n - 1].end(), u32::MAX);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end() + 1, w[1].start());
            }
            let total: u64 = ranges.iter().map(|r| r.num_addrs()).sum();
            assert_eq!(total, 1 << 32);
        }
    }

    #[test]
    fn range_prefix_relations() {
        let r = AddressRange::new(0x0A000000, 0x0AFFFFFF); // 10/8
        let inside: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
        let outside: Ipv4Prefix = "11.0.0.0/16".parse().unwrap();
        let spanning: Ipv4Prefix = "10.0.0.0/7".parse().unwrap();
        assert!(r.overlaps_prefix(&inside));
        assert!(r.overlaps_prefix(&spanning));
        assert!(!r.overlaps_prefix(&outside));
    }
}
