//! BGP-4 wire codec (RFC 4271) with add-paths NLRI (RFC 7911).
//!
//! The paper's claim that "ABRR can operate with no new BGP message
//! formats, though it does require multi-path capability as defined in
//! the add-paths draft" (§1) is made concrete here: every message the
//! ABRR/TBRR engines exchange in the simulator can be serialized to
//! standard BGP wire format through this crate, and the §4.2 bandwidth
//! accounting (bytes transmitted per update) is computed from these
//! encodings.
//!
//! Supported messages: OPEN (with capability negotiation: 4-octet AS,
//! add-paths), UPDATE (withdrawn routes, path attributes, NLRI; with or
//! without add-path path identifiers), KEEPALIVE, NOTIFICATION.
//!
//! AS_PATH is always encoded with 4-octet AS numbers; the OPEN
//! capability exchange in [`open`] advertises this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod error;
pub mod message;
pub mod nlri;
pub mod open;
mod read;
pub mod update;

pub use error::WireError;
pub use message::{Message, MessageType, HEADER_LEN, MARKER, MAX_MESSAGE_LEN};
pub use nlri::Nlri;
pub use open::{AddPathMode, Capability, OpenMessage};
pub use update::{UpdateMessage, UpdateView};

/// Session-level codec options negotiated via OPEN capabilities.
///
/// Both sides of a session must agree on these before UPDATE messages
/// can be parsed, because add-paths changes the NLRI encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CodecConfig {
    /// Whether add-path identifiers are carried in NLRI (RFC 7911).
    pub add_paths: bool,
}

impl CodecConfig {
    /// Codec for a plain RFC 4271 session.
    pub fn plain() -> Self {
        CodecConfig { add_paths: false }
    }

    /// Codec for a session with add-paths negotiated both ways.
    pub fn with_add_paths() -> Self {
        CodecConfig { add_paths: true }
    }
}
