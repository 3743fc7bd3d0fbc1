//! UPDATE message (RFC 4271 §4.3), add-paths aware.

use crate::attr::{self, Scratch};
use crate::error::WireError;
use crate::message::{frame, MessageType};
use crate::nlri::{Nlri, NlriIter};
use crate::read::{take, take_u16};
use crate::CodecConfig;
use bgp_types::{AttrsView, PathAttributes};
use std::borrow::Borrow;

/// A BGP UPDATE: withdrawn routes, attributes, and announced NLRI.
///
/// One UPDATE carries at most one attribute set; announcing routes with
/// different attributes requires multiple UPDATEs. With add-paths, a
/// single UPDATE can carry several paths *for the same prefix* only when
/// they share attributes, so the engines emit one UPDATE per distinct
/// attribute set — exactly how the §4.2 update counting works.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateMessage {
    /// Withdrawn routes.
    pub withdrawn: Vec<Nlri>,
    /// Path attributes; required when `nlri` is non-empty.
    pub attrs: Option<PathAttributes>,
    /// Announced routes sharing `attrs`.
    pub nlri: Vec<Nlri>,
}

impl UpdateMessage {
    /// A pure withdrawal.
    pub fn withdraw(withdrawn: Vec<Nlri>) -> Self {
        UpdateMessage {
            withdrawn,
            attrs: None,
            nlri: Vec::new(),
        }
    }

    /// An announcement of `nlri` with shared `attrs`.
    pub fn announce(attrs: PathAttributes, nlri: Vec<Nlri>) -> Self {
        UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(attrs),
            nlri,
        }
    }

    /// Encodes the UPDATE body (after the common header). On error
    /// `out` may hold part of it; [`encode`] rolls the message back.
    pub fn encode_body(&self, out: &mut Vec<u8>, cfg: CodecConfig) -> Result<(), WireError> {
        encode_body(out, &self.withdrawn, self.attrs.as_ref(), &self.nlri, cfg)
    }

    /// Decodes an UPDATE body into owned parts: [`UpdateView::parse`],
    /// then each block read out in [`UpdateView`]'s order.
    pub fn decode_body(buf: &[u8], cfg: CodecConfig) -> Result<UpdateMessage, WireError> {
        let u = UpdateView::parse(buf, cfg)?;
        let withdrawn = u.withdrawn().collect::<Result<_, _>>()?;
        let nlri = u.nlri().collect::<Result<_, _>>()?;
        let attrs = u.attrs(&mut Scratch::default())?.map(PathAttributes::from);
        Ok(UpdateMessage {
            withdrawn,
            attrs,
            nlri,
        })
    }
}

/// An UPDATE body split into its three blocks, borrowed from the
/// message: the one UPDATE parser, which [`UpdateMessage::decode_body`]
/// reads out into owned parts and a receiver reads in place. Splitting
/// checks the block lengths; each block is read when it is walked or
/// asked for, and reports its own errors then. A reader that must fail
/// as RFC 4271's field order does — and as the owned parser does —
/// reads the withdrawn routes, then the announced ones, then the
/// attributes.
#[derive(Clone, Copy, Debug)]
pub struct UpdateView<'a> {
    withdrawn: &'a [u8],
    attrs: &'a [u8],
    nlri: &'a [u8],
    add_paths: bool,
}

impl<'a> UpdateView<'a> {
    /// Splits an UPDATE body into its blocks.
    pub fn parse(mut body: &'a [u8], cfg: CodecConfig) -> Result<Self, WireError> {
        let wlen = take_u16(&mut body, "withdrawn length")?;
        let withdrawn = take(&mut body, wlen as usize, "withdrawn block")?;
        let alen = take_u16(&mut body, "attributes length")?;
        let attrs = take(&mut body, alen as usize, "attributes block")?;
        // The NLRI block runs to the end of the message.
        Ok(UpdateView {
            withdrawn,
            attrs,
            nlri: body,
            add_paths: cfg.add_paths,
        })
    }

    /// The withdrawn routes, read lazily ([`Nlri::iter`]).
    pub fn withdrawn(&self) -> NlriIter<'a> {
        Nlri::iter(self.withdrawn, self.add_paths)
    }

    /// The announced routes, read lazily ([`Nlri::iter`]).
    pub fn nlri(&self) -> NlriIter<'a> {
        Nlri::iter(self.nlri, self.add_paths)
    }

    /// The path-attribute block as received, unparsed: what a receiver
    /// that recognises a block it has already decoded looks up.
    pub fn attr_block(&self) -> &'a [u8] {
        self.attrs
    }

    /// The path attributes, decoded into `scratch`; `None` when the
    /// UPDATE carries none, which is an error when it announces routes.
    pub fn attrs<'s>(&self, scratch: &'s mut Scratch) -> Result<Option<AttrsView<'s>>, WireError> {
        if !self.attrs.is_empty() {
            return attr::decode_attrs_view(self.attrs, scratch).map(Some);
        }
        if !self.nlri.is_empty() {
            return Err(WireError::MalformedAttributes("NLRI without attributes"));
        }
        Ok(None)
    }
}

/// The UPDATE encoder: one whole message (header included) appended to
/// `out` from borrowed parts, in a single pass. The NLRI blocks are
/// read from iterators, so a caller that derives them from its own
/// state builds no list. `out` is left as it was on error.
pub fn encode(
    out: &mut Vec<u8>,
    withdrawn: impl IntoIterator<Item = impl Borrow<Nlri>>,
    attrs: Option<&PathAttributes>,
    nlri: impl IntoIterator<Item = impl Borrow<Nlri>>,
    cfg: CodecConfig,
) -> Result<(), WireError> {
    frame(out, MessageType::Update, |out| {
        encode_body(out, withdrawn, attrs, nlri, cfg)
    })
}

/// Writes a two-octet length placeholder, runs `block`, then patches in
/// the number of bytes `block` appended.
fn length_prefixed(
    out: &mut Vec<u8>,
    what: &'static str,
    block: impl FnOnce(&mut Vec<u8>),
) -> Result<(), WireError> {
    let at = out.len();
    out.extend_from_slice(&[0, 0]);
    block(out);
    let len = u16::try_from(out.len() - at - 2).map_err(|_| WireError::TooLong(what))?;
    out[at..at + 2].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

fn encode_body(
    out: &mut Vec<u8>,
    withdrawn: impl IntoIterator<Item = impl Borrow<Nlri>>,
    attrs: Option<&PathAttributes>,
    nlri: impl IntoIterator<Item = impl Borrow<Nlri>>,
    cfg: CodecConfig,
) -> Result<(), WireError> {
    let mut nlri = nlri.into_iter().peekable();
    if attrs.is_none() && nlri.peek().is_some() {
        return Err(WireError::MalformedAttributes("NLRI without attributes"));
    }
    length_prefixed(out, "withdrawn routes", |out| {
        for n in withdrawn {
            n.borrow().encode(out, cfg.add_paths);
        }
    })?;
    length_prefixed(out, "path attributes", |out| {
        if let Some(attrs) = attrs {
            attr::encode_attrs(attrs, out);
        }
    })?;
    // NLRI block runs to end of message.
    for n in nlri {
        n.borrow().encode(out, cfg.add_paths);
    }
    Ok(())
}

/// Size in bytes of the body [`encode`] would write after the header —
/// the paper's §4.2 transmission-bandwidth accounting. Pure arithmetic:
/// nothing is encoded.
pub fn body_len(
    withdrawn: impl IntoIterator<Item = impl Borrow<Nlri>>,
    attrs: Option<&PathAttributes>,
    nlri: impl IntoIterator<Item = impl Borrow<Nlri>>,
    cfg: CodecConfig,
) -> usize {
    let alen = attrs.map(attr::encoded_attrs_len).unwrap_or(0);
    2 + block_len(withdrawn, cfg) + 2 + alen + block_len(nlri, cfg)
}

/// Encoded size of an NLRI block.
fn block_len(ns: impl IntoIterator<Item = impl Borrow<Nlri>>, cfg: CodecConfig) -> usize {
    ns.into_iter()
        .map(|n| n.borrow().encoded_len(cfg.add_paths))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, Asn, Ipv4Prefix, NextHop, PathId};

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn attrs() -> PathAttributes {
        PathAttributes::ebgp(AsPath::sequence([Asn(1), Asn(2)]), NextHop(0x0A000001))
    }

    #[test]
    fn roundtrip_announce_plain() {
        let u = UpdateMessage::announce(attrs(), vec![Nlri::plain(pfx("10.0.0.0/8"))]);
        let mut b = Vec::new();
        u.encode_body(&mut b, CodecConfig::plain()).unwrap();
        let d = UpdateMessage::decode_body(&b, CodecConfig::plain()).unwrap();
        assert_eq!(d, u);
    }

    #[test]
    fn roundtrip_announce_add_paths() {
        let u = UpdateMessage::announce(
            attrs(),
            vec![
                Nlri::with_path_id(pfx("10.0.0.0/8"), PathId(1)),
                Nlri::with_path_id(pfx("10.0.0.0/8"), PathId(2)),
            ],
        );
        let mut b = Vec::new();
        u.encode_body(&mut b, CodecConfig::with_add_paths())
            .unwrap();
        let d = UpdateMessage::decode_body(&b, CodecConfig::with_add_paths()).unwrap();
        assert_eq!(d, u);
    }

    #[test]
    fn roundtrip_withdraw() {
        let u = UpdateMessage::withdraw(vec![Nlri::plain(pfx("10.0.0.0/8"))]);
        let mut b = Vec::new();
        u.encode_body(&mut b, CodecConfig::plain()).unwrap();
        let d = UpdateMessage::decode_body(&b, CodecConfig::plain()).unwrap();
        assert_eq!(d, u);
        assert!(d.attrs.is_none());
    }

    #[test]
    fn mixed_update() {
        let u = UpdateMessage {
            withdrawn: vec![Nlri::plain(pfx("9.0.0.0/8"))],
            attrs: Some(attrs()),
            nlri: vec![
                Nlri::plain(pfx("10.0.0.0/8")),
                Nlri::plain(pfx("11.0.0.0/8")),
            ],
        };
        let mut b = Vec::new();
        u.encode_body(&mut b, CodecConfig::plain()).unwrap();
        let d = UpdateMessage::decode_body(&b, CodecConfig::plain()).unwrap();
        assert_eq!(d, u);
    }

    #[test]
    fn nlri_without_attrs_rejected() {
        let u = UpdateMessage {
            withdrawn: vec![],
            attrs: None,
            nlri: vec![Nlri::plain(pfx("10.0.0.0/8"))],
        };
        let mut b = Vec::new();
        assert!(u.encode_body(&mut b, CodecConfig::plain()).is_err());
    }

    #[test]
    fn codec_mismatch_garbles_but_errors_or_differs() {
        // Encoding with add-paths and decoding plain must not silently
        // produce the same message.
        let u = UpdateMessage::announce(
            attrs(),
            vec![Nlri::with_path_id(pfx("10.0.0.0/8"), PathId(1))],
        );
        let mut b = Vec::new();
        u.encode_body(&mut b, CodecConfig::with_add_paths())
            .unwrap();
        if let Ok(d) = UpdateMessage::decode_body(&b, CodecConfig::plain()) {
            assert_ne!(d, u);
        }
    }

    #[test]
    fn add_paths_update_is_longer() {
        // The §4.2 bandwidth argument: an ABRR update carrying k paths is
        // roughly k times longer in NLRI but shares one attribute block.
        let one = UpdateMessage::announce(
            attrs(),
            vec![Nlri::with_path_id(pfx("10.0.0.0/8"), PathId(1))],
        );
        let many = UpdateMessage::announce(
            attrs(),
            (1..=10)
                .map(|i| Nlri::with_path_id(pfx("10.0.0.0/8"), PathId(i)))
                .collect(),
        );
        let cfg = CodecConfig::with_add_paths();
        let len = |u: &UpdateMessage| body_len(&u.withdrawn, u.attrs.as_ref(), &u.nlri, cfg);
        assert!(len(&many) > len(&one));
        assert_eq!(
            len(&many) - len(&one),
            9 * (4 + 1 + 1) // 9 extra NLRI of (path-id + len + 1 prefix byte)
        );
    }
}
