//! OPEN message with capability negotiation (RFC 4271 §4.2, RFC 5492).
//!
//! Two capabilities matter to the paper: 4-octet AS numbers (RFC 6793),
//! which this codec always assumes for AS_PATH, and add-paths
//! (RFC 7911), which ABRR requires so ARRs can advertise all best
//! AS-level routes (paper §1, §2.1).

use crate::error::WireError;
use crate::read::{take, take_array};

/// Add-paths send/receive mode (RFC 7911 §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddPathMode {
    /// Can receive multiple paths.
    Receive,
    /// Can send multiple paths.
    Send,
    /// Both directions.
    Both,
}

impl AddPathMode {
    fn code(self) -> u8 {
        match self {
            AddPathMode::Receive => 1,
            AddPathMode::Send => 2,
            AddPathMode::Both => 3,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        match c {
            1 => Some(AddPathMode::Receive),
            2 => Some(AddPathMode::Send),
            3 => Some(AddPathMode::Both),
            _ => None,
        }
    }
}

/// A BGP capability (RFC 5492). Unknown capabilities are preserved
/// opaquely so they survive a decode/encode round trip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Capability {
    /// Multiprotocol extensions for IPv4 unicast (AFI 1, SAFI 1).
    MultiprotocolIpv4Unicast,
    /// 4-octet AS number support, carrying the speaker's AS.
    FourOctetAs(u32),
    /// Add-paths for IPv4 unicast with the given mode.
    AddPathsIpv4Unicast(AddPathMode),
    /// Any other capability: `(code, raw value)`.
    Other(u8, Vec<u8>),
}

impl Capability {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            // Code 1, length 4: AFI IPv4, reserved, SAFI unicast.
            Capability::MultiprotocolIpv4Unicast => out.extend_from_slice(&[1, 4, 0, 1, 0, 1]),
            Capability::FourOctetAs(asn) => {
                out.extend_from_slice(&[65, 4]);
                out.extend_from_slice(&asn.to_be_bytes());
            }
            // Code 69, length 4: AFI IPv4, SAFI unicast, send/receive.
            Capability::AddPathsIpv4Unicast(mode) => {
                out.extend_from_slice(&[69, 4, 0, 1, 1, mode.code()])
            }
            Capability::Other(code, val) => {
                out.extend_from_slice(&[*code, val.len() as u8]);
                out.extend_from_slice(val);
            }
        }
    }

    fn decode(code: u8, val: &[u8]) -> Result<Capability, WireError> {
        Ok(match (code, val) {
            (1, [0, 1, 0, 1]) => Capability::MultiprotocolIpv4Unicast,
            (65, &[a, b, c, d]) => Capability::FourOctetAs(u32::from_be_bytes([a, b, c, d])),
            (69, &[0, 1, 1, mode]) => {
                let mode = AddPathMode::from_code(mode)
                    .ok_or(WireError::MalformedAttributes("add-paths mode"))?;
                Capability::AddPathsIpv4Unicast(mode)
            }
            _ => Capability::Other(code, val.to_vec()),
        })
    }
}

/// A BGP OPEN message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpenMessage {
    /// BGP version; always 4.
    pub version: u8,
    /// The 2-octet "My Autonomous System" field; `AS_TRANS` (23456)
    /// when the real AS needs 4 octets.
    pub my_as: u16,
    /// Hold time in seconds.
    pub hold_time: u16,
    /// BGP identifier (router id).
    pub bgp_id: u32,
    /// Capabilities carried in the optional-parameters block.
    pub capabilities: Vec<Capability>,
}

/// The 2-octet AS used when the speaker's AS does not fit (RFC 6793).
pub const AS_TRANS: u16 = 23456;

impl OpenMessage {
    /// A typical OPEN for this repo's engines: version 4, 4-octet AS,
    /// IPv4 unicast, optional add-paths.
    pub fn new(asn: u32, hold_time: u16, bgp_id: u32, add_paths: Option<AddPathMode>) -> Self {
        let my_as = u16::try_from(asn).unwrap_or(AS_TRANS);
        let mut capabilities = vec![
            Capability::MultiprotocolIpv4Unicast,
            Capability::FourOctetAs(asn),
        ];
        if let Some(mode) = add_paths {
            capabilities.push(Capability::AddPathsIpv4Unicast(mode));
        }
        OpenMessage {
            version: 4,
            my_as,
            hold_time,
            bgp_id,
            capabilities,
        }
    }

    /// The negotiated add-paths mode, if the capability is present.
    pub fn add_paths_mode(&self) -> Option<AddPathMode> {
        self.capabilities.iter().find_map(|c| match c {
            Capability::AddPathsIpv4Unicast(m) => Some(*m),
            _ => None,
        })
    }

    /// The 4-octet AS if advertised, else the 2-octet field.
    pub fn asn(&self) -> u32 {
        self.capabilities
            .iter()
            .find_map(|c| match c {
                Capability::FourOctetAs(a) => Some(*a),
                _ => None,
            })
            .unwrap_or(self.my_as as u32)
    }

    /// Encodes the OPEN body (everything after the common header).
    pub fn encode_body(&self, out: &mut Vec<u8>) {
        out.push(self.version);
        out.extend_from_slice(&self.my_as.to_be_bytes());
        out.extend_from_slice(&self.hold_time.to_be_bytes());
        out.extend_from_slice(&self.bgp_id.to_be_bytes());
        // Optional parameters: one parameter of type 2 (capabilities).
        let mut caps = Vec::new();
        for c in &self.capabilities {
            c.encode(&mut caps);
        }
        if caps.is_empty() {
            out.push(0);
        } else {
            // Parameter length, param type 2 (capabilities), its length.
            out.extend_from_slice(&[(caps.len() + 2) as u8, 2, caps.len() as u8]);
            out.extend_from_slice(&caps);
        }
    }

    /// Decodes an OPEN body.
    pub fn decode_body(mut buf: &[u8]) -> Result<OpenMessage, WireError> {
        let [version, a0, a1, h0, h1, i0, i1, i2, i3, opt_len] =
            take_array(&mut buf, "open fixed fields")?;
        if version != 4 {
            return Err(WireError::UnsupportedVersion(version));
        }
        let my_as = u16::from_be_bytes([a0, a1]);
        let hold_time = u16::from_be_bytes([h0, h1]);
        let bgp_id = u32::from_be_bytes([i0, i1, i2, i3]);
        let mut params = take(&mut buf, opt_len as usize, "open optional params")?;
        let mut capabilities = Vec::new();
        while !params.is_empty() {
            let [ptype, plen] = take_array(&mut params, "opt param header")?;
            let mut caps = take(&mut params, plen as usize, "opt param body")?;
            if ptype != 2 {
                continue; // non-capability parameter: ignore
            }
            while !caps.is_empty() {
                let [code, clen] = take_array(&mut caps, "capability header")?;
                let cbody = take(&mut caps, clen as usize, "capability body")?;
                capabilities.push(Capability::decode(code, cbody)?);
            }
        }
        Ok(OpenMessage {
            version,
            my_as,
            hold_time,
            bgp_id,
            capabilities,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_add_paths() {
        let o = OpenMessage::new(64512, 180, 0x0A000001, Some(AddPathMode::Both));
        let mut b = Vec::new();
        o.encode_body(&mut b);
        let d = OpenMessage::decode_body(&b).unwrap();
        assert_eq!(d, o);
        assert_eq!(d.add_paths_mode(), Some(AddPathMode::Both));
        assert_eq!(d.asn(), 64512);
    }

    #[test]
    fn as_trans_for_large_as() {
        let o = OpenMessage::new(4_200_000_000, 180, 1, None);
        assert_eq!(o.my_as, AS_TRANS);
        assert_eq!(o.asn(), 4_200_000_000);
        let mut b = Vec::new();
        o.encode_body(&mut b);
        assert_eq!(OpenMessage::decode_body(&b).unwrap().asn(), 4_200_000_000);
    }

    #[test]
    fn rejects_wrong_version() {
        let o = OpenMessage::new(1, 180, 1, None);
        let mut b = Vec::new();
        o.encode_body(&mut b);
        let mut raw = b.to_vec();
        raw[0] = 3;
        assert!(matches!(
            OpenMessage::decode_body(&raw),
            Err(WireError::UnsupportedVersion(3))
        ));
    }

    #[test]
    fn unknown_capability_survives_roundtrip() {
        let mut o = OpenMessage::new(1, 90, 1, None);
        o.capabilities.push(Capability::Other(200, vec![9, 9]));
        let mut b = Vec::new();
        o.encode_body(&mut b);
        let d = OpenMessage::decode_body(&b).unwrap();
        assert!(d.capabilities.contains(&Capability::Other(200, vec![9, 9])));
    }

    #[test]
    fn no_capabilities_encodes_zero_opt_len() {
        let o = OpenMessage {
            version: 4,
            my_as: 100,
            hold_time: 0,
            bgp_id: 5,
            capabilities: vec![],
        };
        let mut b = Vec::new();
        o.encode_body(&mut b);
        assert_eq!(b.len(), 10);
        assert_eq!(OpenMessage::decode_body(&b).unwrap(), o);
    }
}
