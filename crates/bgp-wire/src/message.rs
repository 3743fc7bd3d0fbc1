//! Top-level message framing: the 19-byte common header plus body
//! (RFC 4271 §4.1).

use crate::error::WireError;
use crate::open::OpenMessage;
use crate::read::take_array;
use crate::update::UpdateMessage;
use crate::CodecConfig;

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
    pub fn encode(&self, out: &mut Vec<u8>, cfg: CodecConfig) -> Result<(), WireError> {
        frame(out, self.message_type(), |out| {
            match self {
                Message::Open(o) => o.encode_body(out),
                Message::Update(u) => u.encode_body(out, cfg)?,
                Message::Notification {
                    code,
                    subcode,
                    data,
                } => {
                    out.push(*code);
                    out.push(*subcode);
                    out.extend_from_slice(data);
                }
                Message::Keepalive => {}
            }
            Ok(())
        })
    }

    /// Decodes one message from the front of `buf` into owned parts:
    /// [`Message::split`], then [`Message::decode_body`]. Returns
    /// `Ok(None)` when `buf` holds less than a full message (stream
    /// framing), leaving it untouched.
    pub fn decode(buf: &mut &[u8], cfg: CodecConfig) -> Result<Option<Message>, WireError> {
        match Message::split(buf)? {
            Some((ty, body)) => Message::decode_body(ty, body, cfg).map(Some),
            None => Ok(None),
        }
    }

    /// The framing parser: splits one message off the front of `buf`
    /// and returns its type and body, borrowed. Returns `Ok(None)` when
    /// `buf` holds less than a full message, leaving it untouched.
    /// Nothing is copied; `buf` is advanced past a message as soon as
    /// its header checks out, so it is consumed even when its body is
    /// malformed.
    pub fn split<'a>(buf: &mut &'a [u8]) -> Result<Option<(MessageType, &'a [u8])>, WireError> {
        let Some(&[marker @ .., l0, l1, type_code]) = buf.first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        if marker != MARKER {
            return Err(WireError::BadMarker);
        }
        let total = u16::from_be_bytes([l0, l1]) as usize;
        if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&total) {
            return Err(WireError::BadLength(total as u16));
        }
        let Some((msg, rest)) = buf.split_at_checked(total) else {
            return Ok(None);
        };
        let ty = MessageType::from_code(type_code).ok_or(WireError::BadMessageType(type_code))?;
        *buf = rest;
        Ok(Some((ty, &msg[HEADER_LEN..])))
    }

    /// Decodes the body of a message of type `ty` that
    /// [`Message::split`] framed.
    pub fn decode_body(
        ty: MessageType,
        body: &[u8],
        cfg: CodecConfig,
    ) -> Result<Message, WireError> {
        Ok(match ty {
            MessageType::Open => Message::Open(OpenMessage::decode_body(body)?),
            MessageType::Update => Message::Update(UpdateMessage::decode_body(body, cfg)?),
            MessageType::Notification => {
                let mut body = body;
                let [code, subcode] = take_array(&mut body, "notification body")?;
                Message::Notification {
                    code,
                    subcode,
                    data: body.to_vec(),
                }
            }
            MessageType::Keepalive => {
                if !body.is_empty() {
                    return Err(WireError::BadLength((HEADER_LEN + body.len()) as u16));
                }
                Message::Keepalive
            }
        })
    }
}

/// Appends the common header for `ty` with the length left open, runs
/// `body`, then patches the total length in. On error — from `body` or
/// because the message outgrew [`MAX_MESSAGE_LEN`] — `out` is rolled
/// back to where it started.
pub(crate) fn frame(
    out: &mut Vec<u8>,
    ty: MessageType,
    body: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let start = out.len();
    out.extend_from_slice(&MARKER);
    out.extend_from_slice(&[0, 0, ty.code()]);
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
        let mut b = Vec::new();
        Message::Keepalive
            .encode(&mut b, CodecConfig::plain())
            .unwrap();
        assert_eq!(b.len(), 19);
        let d = Message::decode(&mut &b[..], CodecConfig::plain())
            .unwrap()
            .unwrap();
        assert_eq!(d, Message::Keepalive);
    }

    #[test]
    fn stream_framing_two_messages() {
        let cfg = CodecConfig::plain();
        let mut b = Vec::new();
        Message::Keepalive.encode(&mut b, cfg).unwrap();
        update().encode(&mut b, cfg).unwrap();
        let mut buf = &b[..];
        let m1 = Message::decode(&mut buf, cfg).unwrap().unwrap();
        let m2 = Message::decode(&mut buf, cfg).unwrap().unwrap();
        assert_eq!(m1, Message::Keepalive);
        assert_eq!(m2, update());
        assert!(Message::decode(&mut buf, cfg).unwrap().is_none());
        assert!(buf.is_empty());
    }

    #[test]
    fn partial_message_returns_none() {
        let cfg = CodecConfig::plain();
        let mut b = Vec::new();
        update().encode(&mut b, cfg).unwrap();
        let mut partial = &b[..b.len() - 3];
        assert!(Message::decode(&mut partial, cfg).unwrap().is_none());
        // Buffer untouched by a partial decode.
        assert_eq!(partial.len(), b.len() - 3);
    }

    #[test]
    fn bad_marker_is_error() {
        let cfg = CodecConfig::plain();
        let mut b = Vec::new();
        Message::Keepalive.encode(&mut b, cfg).unwrap();
        b[0] = 0;
        assert!(matches!(
            Message::decode(&mut &b[..], cfg),
            Err(WireError::BadMarker)
        ));
    }

    #[test]
    fn bad_type_is_error() {
        let cfg = CodecConfig::plain();
        let mut b = Vec::new();
        Message::Keepalive.encode(&mut b, cfg).unwrap();
        b[18] = 9;
        assert!(matches!(
            Message::decode(&mut &b[..], cfg),
            Err(WireError::BadMessageType(9))
        ));
    }

    #[test]
    fn open_roundtrip_through_framing() {
        let cfg = CodecConfig::plain();
        let o = Message::Open(OpenMessage::new(64512, 180, 42, Some(AddPathMode::Both)));
        let mut b = Vec::new();
        o.encode(&mut b, cfg).unwrap();
        let d = Message::decode(&mut &b[..], cfg).unwrap().unwrap();
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
        let mut b = Vec::new();
        n.encode(&mut b, cfg).unwrap();
        let d = Message::decode(&mut &b[..], cfg).unwrap().unwrap();
        assert_eq!(d, n);
    }
}
