//! Top-level message framing: the 19-byte common header plus body
//! (RFC 4271 §4.1).

use crate::error::{need, WireError};
use crate::open::OpenMessage;
use crate::update::UpdateMessage;
use crate::CodecConfig;
use bytes::{Buf, BufMut, BytesMut};

/// The all-ones 16-byte header marker.
pub const MARKER: [u8; 16] = [0xFF; 16];
/// Length of the common header.
pub const HEADER_LEN: usize = 19;
/// Maximum BGP message length.
pub const MAX_MESSAGE_LEN: usize = 4096;

/// BGP message type codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageType {
    /// OPEN (1).
    Open,
    /// UPDATE (2).
    Update,
    /// NOTIFICATION (3).
    Notification,
    /// KEEPALIVE (4).
    Keepalive,
}

impl MessageType {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            MessageType::Open => 1,
            MessageType::Update => 2,
            MessageType::Notification => 3,
            MessageType::Keepalive => 4,
        }
    }

    /// Parses the wire code.
    pub fn from_code(c: u8) -> Option<Self> {
        match c {
            1 => Some(MessageType::Open),
            2 => Some(MessageType::Update),
            3 => Some(MessageType::Notification),
            4 => Some(MessageType::Keepalive),
            _ => None,
        }
    }
}

/// A framed BGP message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// An OPEN message.
    Open(OpenMessage),
    /// An UPDATE message.
    Update(UpdateMessage),
    /// A NOTIFICATION: error code, subcode, data.
    Notification {
        /// RFC 4271 §6 error code.
        code: u8,
        /// Error subcode.
        subcode: u8,
        /// Diagnostic data.
        data: Vec<u8>,
    },
    /// A KEEPALIVE (no body).
    Keepalive,
}

impl Message {
    /// The message's type code.
    pub fn message_type(&self) -> MessageType {
        match self {
            Message::Open(_) => MessageType::Open,
            Message::Update(_) => MessageType::Update,
            Message::Notification { .. } => MessageType::Notification,
            Message::Keepalive => MessageType::Keepalive,
        }
    }

    /// Encodes the message with header into `out`; `out` is left as it
    /// was on error.
    pub fn encode(&self, out: &mut BytesMut, cfg: CodecConfig) -> Result<(), WireError> {
        frame(out, self.message_type(), |out| {
            match self {
                Message::Open(o) => o.encode_body(out),
                Message::Update(u) => u.encode_body(out, cfg)?,
                Message::Notification {
                    code,
                    subcode,
                    data,
                } => {
                    out.put_u8(*code);
                    out.put_u8(*subcode);
                    out.put_slice(data);
                }
                Message::Keepalive => {}
            }
            Ok(())
        })
    }

    /// Decodes one message from the front of `buf`, advancing it.
    /// Returns `Ok(None)` when the buffer holds less than a full
    /// message (stream framing).
    pub fn decode(buf: &mut BytesMut, cfg: CodecConfig) -> Result<Option<Message>, WireError> {
        let mut rest: &[u8] = buf;
        let res = Message::decode_slice(&mut rest, cfg);
        let used = buf.len() - rest.len();
        buf.advance(used);
        res
    }

    /// The message parser: [`Message::decode`] over a borrowed slice,
    /// for callers that already hold the whole burst. Nothing is
    /// copied; `buf` is advanced past a message as soon as its header
    /// checks out, so it is consumed even when its body is malformed.
    pub fn decode_slice(buf: &mut &[u8], cfg: CodecConfig) -> Result<Option<Message>, WireError> {
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        if buf[..16] != MARKER {
            return Err(WireError::BadMarker);
        }
        let total = u16::from_be_bytes([buf[16], buf[17]]) as usize;
        if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&total) {
            return Err(WireError::BadLength(total as u16));
        }
        if buf.len() < total {
            return Ok(None);
        }
        let ty = MessageType::from_code(buf[18]).ok_or(WireError::BadMessageType(buf[18]))?;
        let (msg, rest) = buf.split_at(total);
        *buf = rest;
        let body = &msg[HEADER_LEN..];
        let msg = match ty {
            MessageType::Open => Message::Open(OpenMessage::decode_body(body)?),
            MessageType::Update => Message::Update(UpdateMessage::decode_body(body, cfg)?),
            MessageType::Notification => {
                need("notification body", body.len(), 2)?;
                Message::Notification {
                    code: body[0],
                    subcode: body[1],
                    data: body[2..].to_vec(),
                }
            }
            MessageType::Keepalive => {
                if !body.is_empty() {
                    return Err(WireError::BadLength(total as u16));
                }
                Message::Keepalive
            }
        };
        Ok(Some(msg))
    }
}

/// Appends the common header for `ty` with the length left open, runs
/// `body`, then patches the total length in. On error — from `body` or
/// because the message outgrew [`MAX_MESSAGE_LEN`] — `out` is rolled
/// back to where it started.
pub(crate) fn frame(
    out: &mut BytesMut,
    ty: MessageType,
    body: impl FnOnce(&mut BytesMut) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let start = out.len();
    out.put_slice(&MARKER);
    out.put_u16(0);
    out.put_u8(ty.code());
    let res = body(out).and_then(|()| {
        let total = out.len() - start;
        if total > MAX_MESSAGE_LEN {
            return Err(WireError::TooLong("message"));
        }
        out[start + 16..start + 18].copy_from_slice(&(total as u16).to_be_bytes());
        Ok(())
    });
    if res.is_err() {
        out.truncate(start);
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nlri::Nlri;
    use crate::open::AddPathMode;
    use bgp_types::{AsPath, Asn, Ipv4Prefix, NextHop, PathAttributes};

    fn update() -> Message {
        Message::Update(UpdateMessage::announce(
            PathAttributes::ebgp(AsPath::sequence([Asn(1)]), NextHop(7)),
            vec![Nlri::plain("10.0.0.0/8".parse::<Ipv4Prefix>().unwrap())],
        ))
    }

    #[test]
    fn keepalive_is_19_bytes() {
        let mut b = BytesMut::new();
        Message::Keepalive
            .encode(&mut b, CodecConfig::plain())
            .unwrap();
        assert_eq!(b.len(), 19);
        let d = Message::decode(&mut b, CodecConfig::plain())
            .unwrap()
            .unwrap();
        assert_eq!(d, Message::Keepalive);
    }

    #[test]
    fn stream_framing_two_messages() {
        let cfg = CodecConfig::plain();
        let mut b = BytesMut::new();
        Message::Keepalive.encode(&mut b, cfg).unwrap();
        update().encode(&mut b, cfg).unwrap();
        let m1 = Message::decode(&mut b, cfg).unwrap().unwrap();
        let m2 = Message::decode(&mut b, cfg).unwrap().unwrap();
        assert_eq!(m1, Message::Keepalive);
        assert_eq!(m2, update());
        assert!(Message::decode(&mut b, cfg).unwrap().is_none());
        assert!(b.is_empty());
    }

    #[test]
    fn partial_message_returns_none() {
        let cfg = CodecConfig::plain();
        let mut b = BytesMut::new();
        update().encode(&mut b, cfg).unwrap();
        let full = b.clone();
        let mut partial = BytesMut::from(&full[..full.len() - 3]);
        assert!(Message::decode(&mut partial, cfg).unwrap().is_none());
        // Buffer untouched by a partial decode.
        assert_eq!(partial.len(), full.len() - 3);
    }

    #[test]
    fn bad_marker_is_error() {
        let cfg = CodecConfig::plain();
        let mut b = BytesMut::new();
        Message::Keepalive.encode(&mut b, cfg).unwrap();
        b[0] = 0;
        assert!(matches!(
            Message::decode(&mut b, cfg),
            Err(WireError::BadMarker)
        ));
    }

    #[test]
    fn bad_type_is_error() {
        let cfg = CodecConfig::plain();
        let mut b = BytesMut::new();
        Message::Keepalive.encode(&mut b, cfg).unwrap();
        b[18] = 9;
        assert!(matches!(
            Message::decode(&mut b, cfg),
            Err(WireError::BadMessageType(9))
        ));
    }

    #[test]
    fn open_roundtrip_through_framing() {
        let cfg = CodecConfig::plain();
        let o = Message::Open(OpenMessage::new(64512, 180, 42, Some(AddPathMode::Both)));
        let mut b = BytesMut::new();
        o.encode(&mut b, cfg).unwrap();
        let d = Message::decode(&mut b, cfg).unwrap().unwrap();
        assert_eq!(d, o);
    }

    #[test]
    fn notification_roundtrip() {
        let cfg = CodecConfig::plain();
        let n = Message::Notification {
            code: 6,
            subcode: 2,
            data: vec![1, 2, 3],
        };
        let mut b = BytesMut::new();
        n.encode(&mut b, cfg).unwrap();
        let d = Message::decode(&mut b, cfg).unwrap().unwrap();
        assert_eq!(d, n);
    }
}
