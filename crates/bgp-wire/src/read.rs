//! The decoders' slice readers. Each splits what it reads off the
//! front of `buf` and reports an underrun as [`WireError::Truncated`],
//! so no decoder reads past its input.

use crate::error::WireError;

/// Splits `n` bytes off the front of `buf`.
pub(crate) fn take<'a>(
    buf: &mut &'a [u8],
    n: usize,
    what: &'static str,
) -> Result<&'a [u8], WireError> {
    let Some((head, rest)) = buf.split_at_checked(n) else {
        return Err(WireError::Truncated {
            what,
            needed: n,
            have: buf.len(),
        });
    };
    *buf = rest;
    Ok(head)
}

/// Splits `N` bytes off the front of `buf`, as an array.
pub(crate) fn take_array<const N: usize>(
    buf: &mut &[u8],
    what: &'static str,
) -> Result<[u8; N], WireError> {
    let Some((head, rest)) = buf.split_first_chunk::<N>() else {
        return Err(WireError::Truncated {
            what,
            needed: N,
            have: buf.len(),
        });
    };
    *buf = rest;
    Ok(*head)
}

/// A big-endian `u16` off the front of `buf`.
pub(crate) fn take_u16(buf: &mut &[u8], what: &'static str) -> Result<u16, WireError> {
    take_array(buf, what).map(u16::from_be_bytes)
}

/// A big-endian `u32` off the front of `buf`.
pub(crate) fn take_u32(buf: &mut &[u8], what: &'static str) -> Result<u32, WireError> {
    take_array(buf, what).map(u32::from_be_bytes)
}
