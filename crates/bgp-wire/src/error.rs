//! Codec errors, aligned with RFC 4271 §6 notification codes.

use std::fmt;

/// An error raised while encoding or decoding a BGP message.
///
/// Variants carry the RFC 4271 §6 error code / subcode where one exists,
/// so a real speaker could translate them into NOTIFICATION messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than required were available.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// The 16-byte marker was not all-ones (Message Header Error /
    /// Connection Not Synchronized).
    BadMarker,
    /// Header length field out of `[19, 4096]` or inconsistent
    /// (Message Header Error / Bad Message Length).
    BadLength(u16),
    /// Unknown message type (Message Header Error / Bad Message Type).
    BadMessageType(u8),
    /// OPEN: unsupported version (OPEN Message Error / Unsupported
    /// Version Number).
    UnsupportedVersion(u8),
    /// UPDATE: malformed attribute list (UPDATE Message Error).
    MalformedAttributes(&'static str),
    /// UPDATE: an unrecognized well-known attribute was seen.
    UnrecognizedWellKnown(u8),
    /// UPDATE: attribute flags inconsistent with the attribute type.
    BadAttributeFlags {
        /// Attribute type code.
        code: u8,
        /// Observed flag byte.
        flags: u8,
    },
    /// UPDATE: invalid NLRI encoding (UPDATE Message Error / Invalid
    /// Network Field).
    InvalidNlri(&'static str),
    /// A value did not fit the field it must be encoded into.
    TooLong(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what, needed, have } => {
                write!(f, "truncated {what}: need {needed} bytes, have {have}")
            }
            WireError::BadMarker => write!(f, "header marker is not all-ones"),
            WireError::BadLength(l) => write!(f, "bad message length {l}"),
            WireError::BadMessageType(t) => write!(f, "bad message type {t}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported BGP version {v}"),
            WireError::MalformedAttributes(w) => write!(f, "malformed attributes: {w}"),
            WireError::UnrecognizedWellKnown(c) => {
                write!(f, "unrecognized well-known attribute {c}")
            }
            WireError::BadAttributeFlags { code, flags } => {
                write!(f, "bad flags {flags:#04x} for attribute {code}")
            }
            WireError::InvalidNlri(w) => write!(f, "invalid NLRI: {w}"),
            WireError::TooLong(w) => write!(f, "value too long to encode: {w}"),
        }
    }
}

impl std::error::Error for WireError {}
