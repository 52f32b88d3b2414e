//! The NetRS packet formats of §IV-A (Fig. 2), byte-exact.
//!
//! NetRS packets ride in the payload of UDP datagrams (the paper targets
//! UDP-based key-value protocols, as production stores do for reads). The
//! two formats share a fixed prefix and diverge after it:
//!
//! ```text
//! request :  RID(2) MF(6) RV(2) RGID(3)            | application payload
//! response:  RID(2) MF(6) RV(2) SM(4) SSL(2) SS(n) | application payload
//! ```
//!
//! * **RID** — RSNode ID: the NetRS operator responsible for this packet.
//! * **MF** — magic field: a 6-byte label switches match to classify the
//!   packet; the invertible function `f` over magic fields implements the
//!   request→response labelling handshake of §IV-C.
//! * **RV** — retaining value: set by the RSNode on the request, echoed by
//!   the server on the response (e.g. a send timestamp for RTT tracking).
//! * **RGID** — replica group ID (3 bytes): key to the replica-group
//!   database on the accelerator, keeping headers fixed-size regardless of
//!   the replication factor.
//! * **SM** — source marker (pod, rack) stamped by the server-side ToR so
//!   monitors can classify the response's tier.
//! * **SSL/SS** — length-prefixed piggybacked server status for the
//!   replica-selection algorithm.
//!
//! All multi-byte integers are big-endian (network order).
//!
//! # Examples
//!
//! ```
//! use netrs_wire::{MagicField, RequestHeader, Rgid, RsnodeId};
//!
//! let hdr = RequestHeader {
//!     rid: RsnodeId(7),
//!     magic: MagicField::REQUEST,
//!     rv: 0x1234,
//!     rgid: Rgid::new(99)?,
//! };
//! let wire = hdr.encode(b"GET k");
//! let (back, payload) = RequestHeader::decode(&wire)?;
//! assert_eq!(back, hdr);
//! assert_eq!(payload, b"GET k");
//! # Ok::<(), netrs_wire::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use serde::{Deserialize, Serialize};

/// Length of the fixed request header (RID + MF + RV + RGID).
pub const REQUEST_HEADER_LEN: usize = 2 + 6 + 2 + 3;
/// Length of the fixed part of the response header (RID + MF + RV + SM +
/// SSL); the variable-length SS segment follows.
pub const RESPONSE_FIXED_LEN: usize = 2 + 6 + 2 + 4 + 2;
/// Byte offset of the magic field in both formats.
pub const MAGIC_OFFSET: usize = 2;
/// Opcode byte opening a `SET` application payload.
pub const OP_SET: u8 = 0x53; // 'S'
/// Length of the fixed part of a `SET` frame (OP + KEY + VLEN); the
/// value follows.
pub const SET_FIXED_LEN: usize = 1 + 8 + 4;

/// The ID of a NetRS operator acting as RSNode, carried in the RID segment.
///
/// The controller assigns positive IDs; [`RsnodeId::ILLEGAL`] marks a
/// packet whose traffic group is under Degraded Replica Selection (§III-C:
/// "the NetRS controller just tells the corresponding NetRS operator to set
/// an illegal RSNode ID").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RsnodeId(pub u16);

impl RsnodeId {
    /// The illegal ID used to flag Degraded Replica Selection.
    pub const ILLEGAL: RsnodeId = RsnodeId(u16::MAX);

    /// Whether this is a legal (assignable) RSNode ID.
    #[must_use]
    pub fn is_legal(self) -> bool {
        self != Self::ILLEGAL
    }
}

impl fmt::Display for RsnodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_legal() {
            write!(f, "rsn{}", self.0)
        } else {
            write!(f, "rsn-illegal")
        }
    }
}

/// A replica group ID: a 3-byte key into the accelerator-local replica
/// group database.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Rgid(u32);

impl Rgid {
    /// Largest encodable group ID (24 bits).
    pub const MAX: u32 = 0x00FF_FFFF;

    /// Creates a replica group ID.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::RgidOutOfRange`] if `id` does not fit in 3
    /// bytes.
    pub fn new(id: u32) -> Result<Self, WireError> {
        if id > Self::MAX {
            Err(WireError::RgidOutOfRange(id))
        } else {
            Ok(Rgid(id))
        }
    }

    /// The numeric value.
    #[must_use]
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Rgid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rg{}", self.0)
    }
}

/// The 6-byte magic field used by switches to classify packets.
///
/// §IV-C requires an invertible function `f` over magic fields with
/// `f(M_RESP) ∉ {M_REQ, M_RESP}`. We use an involution (XOR with a fixed
/// key), so `f` is its own inverse — servers can compute `f⁻¹` with the
/// same operation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct MagicField(pub [u8; 6]);

impl MagicField {
    /// Labels a NetRS request awaiting replica selection (`M_req`).
    pub const REQUEST: MagicField = MagicField(*b"NRSREQ");
    /// Labels a NetRS response (`M_resp`).
    pub const RESPONSE: MagicField = MagicField(*b"NRSRSP");
    /// Labels a non-NetRS packet that monitors should still count
    /// (`M_mon`).
    pub const MONITORED: MagicField = MagicField(*b"NRSMON");

    const F_KEY: [u8; 6] = [0xA5, 0x3C, 0x5A, 0xC3, 0x69, 0x96];

    /// The invertible transform `f` (an involution: `f(f(m)) == m`).
    #[must_use]
    pub fn f(self) -> MagicField {
        let mut out = self.0;
        for (b, k) in out.iter_mut().zip(Self::F_KEY) {
            *b ^= k;
        }
        MagicField(out)
    }

    /// The inverse transform `f⁻¹` (identical to [`MagicField::f`] because
    /// `f` is an involution).
    #[must_use]
    pub fn f_inv(self) -> MagicField {
        self.f()
    }

    /// Classifies a magic field the way the switch ingress pipeline does.
    #[must_use]
    pub fn kind(self) -> PacketKind {
        if self == Self::REQUEST {
            PacketKind::NetRsRequest
        } else if self == Self::RESPONSE {
            PacketKind::NetRsResponse
        } else if self == Self::MONITORED {
            PacketKind::Monitored
        } else {
            PacketKind::Other
        }
    }
}

impl fmt::Display for MagicField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Packet classes distinguished by the switch pipeline (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketKind {
    /// A key-value read request that NetRS must select a replica for.
    NetRsRequest,
    /// A key-value response carrying piggybacked server status.
    NetRsResponse,
    /// A packet NetRS no longer processes but monitors still count
    /// (magic == `M_mon`).
    Monitored,
    /// Any other traffic: forwarded by the regular pipeline untouched.
    Other,
}

/// The source marker (SM segment): the network location a response comes
/// from, stamped by the server-side ToR switch (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct SourceMarker {
    /// Pod ID of the sending host.
    pub pod: u16,
    /// Global rack (ToR) ID of the sending host.
    pub rack: u16,
}

impl SourceMarker {
    /// Whether the marker names the same pod as `other`.
    #[must_use]
    pub fn same_pod(self, other: SourceMarker) -> bool {
        self.pod == other.pod
    }

    /// Whether the marker names the same rack as `other`.
    #[must_use]
    pub fn same_rack(self, other: SourceMarker) -> bool {
        self.rack == other.rack
    }
}

/// Errors decoding NetRS packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the format requires.
    Truncated {
        /// Bytes required by the fixed header (plus declared SS length).
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A replica group ID does not fit in the 3-byte RGID segment.
    RgidOutOfRange(u32),
    /// The magic field does not label the packet as the expected kind.
    UnexpectedMagic(MagicField),
    /// An application payload opens with an opcode the decoder does not
    /// recognize.
    UnexpectedOpcode(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "packet truncated: needed {needed} bytes, got {got}")
            }
            WireError::RgidOutOfRange(id) => {
                write!(f, "replica group id {id} exceeds 3-byte range")
            }
            WireError::UnexpectedMagic(m) => write!(f, "unexpected magic field {m}"),
            WireError::UnexpectedOpcode(op) => write!(f, "unexpected opcode byte {op:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The fixed header of a NetRS request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RequestHeader {
    /// RSNode ID (RID segment).
    pub rid: RsnodeId,
    /// Magic field (MF segment).
    pub magic: MagicField,
    /// Retaining value (RV segment).
    pub rv: u16,
    /// Replica group ID (RGID segment).
    pub rgid: Rgid,
}

impl RequestHeader {
    /// Serializes the header followed by the application payload.
    #[must_use]
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(REQUEST_HEADER_LEN + payload.len());
        buf.extend_from_slice(&self.rid.0.to_be_bytes());
        buf.extend_from_slice(&self.magic.0);
        buf.extend_from_slice(&self.rv.to_be_bytes());
        buf.extend_from_slice(&self.rgid.0.to_be_bytes()[1..]);
        buf.extend_from_slice(payload);
        buf
    }

    /// Parses a request, returning the header and the application payload
    /// (borrowed from `buf`).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if the buffer is too short.
    pub fn decode(buf: &[u8]) -> Result<(RequestHeader, &[u8]), WireError> {
        if buf.len() < REQUEST_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: REQUEST_HEADER_LEN,
                got: buf.len(),
            });
        }
        let rid = RsnodeId(u16::from_be_bytes([buf[0], buf[1]]));
        let mut magic = [0u8; 6];
        magic.copy_from_slice(&buf[2..8]);
        let rv = u16::from_be_bytes([buf[8], buf[9]]);
        let rgid = Rgid(u32::from_be_bytes([0, buf[10], buf[11], buf[12]]));
        Ok((
            RequestHeader {
                rid,
                magic: MagicField(magic),
                rv,
                rgid,
            },
            &buf[REQUEST_HEADER_LEN..],
        ))
    }
}

/// The header of a NetRS response, including the piggybacked server status
/// (SS segment, with its SSL length prefix).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponseHeader {
    /// RSNode ID copied from the corresponding request.
    pub rid: RsnodeId,
    /// Magic field (`f⁻¹` of the request's magic, per §IV-C).
    pub magic: MagicField,
    /// Retaining value echoed from the request.
    pub rv: u16,
    /// Source marker stamped by the server-side ToR.
    pub sm: SourceMarker,
    /// Piggybacked server status (SS segment).
    pub status: Vec<u8>,
}

impl ResponseHeader {
    /// Serializes the header followed by the application payload.
    ///
    /// # Panics
    ///
    /// Panics if the status segment exceeds the 2-byte SSL range
    /// (65535 bytes) — server status is a few bytes by design.
    #[must_use]
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let ssl = u16::try_from(self.status.len()).expect("server status too large for SSL");
        let mut buf = Vec::with_capacity(RESPONSE_FIXED_LEN + self.status.len() + payload.len());
        buf.extend_from_slice(&self.rid.0.to_be_bytes());
        buf.extend_from_slice(&self.magic.0);
        buf.extend_from_slice(&self.rv.to_be_bytes());
        buf.extend_from_slice(&self.sm.pod.to_be_bytes());
        buf.extend_from_slice(&self.sm.rack.to_be_bytes());
        buf.extend_from_slice(&ssl.to_be_bytes());
        buf.extend_from_slice(&self.status);
        buf.extend_from_slice(payload);
        buf
    }

    /// Parses a response, returning the header and the application
    /// payload (borrowed from `buf`).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if the buffer is shorter than the
    /// fixed header plus the declared SS length.
    pub fn decode(buf: &[u8]) -> Result<(ResponseHeader, &[u8]), WireError> {
        if buf.len() < RESPONSE_FIXED_LEN {
            return Err(WireError::Truncated {
                needed: RESPONSE_FIXED_LEN,
                got: buf.len(),
            });
        }
        let rid = RsnodeId(u16::from_be_bytes([buf[0], buf[1]]));
        let mut magic = [0u8; 6];
        magic.copy_from_slice(&buf[2..8]);
        let rv = u16::from_be_bytes([buf[8], buf[9]]);
        let sm = SourceMarker {
            pod: u16::from_be_bytes([buf[10], buf[11]]),
            rack: u16::from_be_bytes([buf[12], buf[13]]),
        };
        let ssl = usize::from(u16::from_be_bytes([buf[14], buf[15]]));
        let total = RESPONSE_FIXED_LEN + ssl;
        if buf.len() < total {
            return Err(WireError::Truncated {
                needed: total,
                got: buf.len(),
            });
        }
        Ok((
            ResponseHeader {
                rid,
                magic: MagicField(magic),
                rv,
                sm,
                status: buf[RESPONSE_FIXED_LEN..total].to_vec(),
            },
            &buf[total..],
        ))
    }
}

/// A `SET` command as framed in the application payload of a request.
///
/// Writes ride the same NetRS request header as reads — the switch
/// pipeline classifies on the magic field and never inspects payloads —
/// so the `SET` frame is purely an end-host (and future emu/serving
/// path) contract:
///
/// ```text
/// SET frame: OP(1)=0x53 KEY(8) VLEN(4) VALUE(vlen) | trailing bytes
/// ```
///
/// The value is length-prefixed rather than delimiter-terminated so a
/// frame can be followed by further application data (e.g. a pipelined
/// command) without a schema break.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SetCommand {
    /// The 64-bit key hash being written.
    pub key: u64,
    /// The value bytes.
    pub value: Vec<u8>,
}

impl SetCommand {
    /// Serializes the frame.
    ///
    /// # Panics
    ///
    /// Panics if the value exceeds the 4-byte VLEN range — a single
    /// key-value write is megabytes at most by design.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let vlen = u32::try_from(self.value.len()).expect("SET value too large for VLEN");
        let mut buf = Vec::with_capacity(SET_FIXED_LEN + self.value.len());
        buf.push(OP_SET);
        buf.extend_from_slice(&self.key.to_be_bytes());
        buf.extend_from_slice(&vlen.to_be_bytes());
        buf.extend_from_slice(&self.value);
        buf
    }

    /// Parses a `SET` frame, returning the command and any trailing
    /// bytes after the value (borrowed from `buf`).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedOpcode`] if the first byte is not
    /// [`OP_SET`], or [`WireError::Truncated`] if the buffer is shorter
    /// than the fixed frame plus the declared value length.
    pub fn decode(buf: &[u8]) -> Result<(SetCommand, &[u8]), WireError> {
        if buf.len() < SET_FIXED_LEN {
            return Err(WireError::Truncated {
                needed: SET_FIXED_LEN,
                got: buf.len(),
            });
        }
        if buf[0] != OP_SET {
            return Err(WireError::UnexpectedOpcode(buf[0]));
        }
        let key = u64::from_be_bytes(buf[1..9].try_into().expect("length checked"));
        let vlen = u32::from_be_bytes(buf[9..13].try_into().expect("length checked")) as usize;
        let total = SET_FIXED_LEN + vlen;
        if buf.len() < total {
            return Err(WireError::Truncated {
                needed: total,
                got: buf.len(),
            });
        }
        Ok((
            SetCommand {
                key,
                value: buf[SET_FIXED_LEN..total].to_vec(),
            },
            &buf[total..],
        ))
    }
}

/// Reads only the magic field of a packet and classifies it, as the first
/// match stage of the switch pipeline does. Buffers too short to carry a
/// magic field classify as [`PacketKind::Other`].
#[must_use]
pub fn classify(buf: &[u8]) -> PacketKind {
    if buf.len() < MAGIC_OFFSET + 6 {
        return PacketKind::Other;
    }
    let mut magic = [0u8; 6];
    magic.copy_from_slice(&buf[MAGIC_OFFSET..MAGIC_OFFSET + 6]);
    MagicField(magic).kind()
}

/// Reads only the RID segment of a NetRS packet (both formats place it
/// first), as the second match stage of the switch pipeline does.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] on buffers shorter than 2 bytes.
pub fn peek_rid(buf: &[u8]) -> Result<RsnodeId, WireError> {
    if buf.len() < 2 {
        return Err(WireError::Truncated {
            needed: 2,
            got: buf.len(),
        });
    }
    Ok(RsnodeId(u16::from_be_bytes([buf[0], buf[1]])))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let hdr = RequestHeader {
            rid: RsnodeId(300),
            magic: MagicField::REQUEST,
            rv: 0xBEEF,
            rgid: Rgid::new(Rgid::MAX).unwrap(),
        };
        let wire = hdr.encode(b"payload bytes");
        assert_eq!(wire.len(), REQUEST_HEADER_LEN + 13);
        let (back, payload) = RequestHeader::decode(&wire).unwrap();
        assert_eq!(back, hdr);
        assert_eq!(payload, b"payload bytes");
    }

    #[test]
    fn response_round_trip_with_status() {
        let hdr = ResponseHeader {
            rid: RsnodeId(7),
            magic: MagicField::RESPONSE,
            rv: 0x1234,
            sm: SourceMarker { pod: 3, rack: 25 },
            status: vec![1, 2, 3, 4, 5],
        };
        let wire = hdr.encode(b"value!");
        let (back, payload) = ResponseHeader::decode(&wire).unwrap();
        assert_eq!(back, hdr);
        assert_eq!(payload, b"value!");
    }

    #[test]
    fn response_round_trip_empty_status_and_payload() {
        let hdr = ResponseHeader {
            rid: RsnodeId(0),
            magic: MagicField::MONITORED,
            rv: 0,
            sm: SourceMarker::default(),
            status: Vec::new(),
        };
        let wire = hdr.encode(b"");
        assert_eq!(wire.len(), RESPONSE_FIXED_LEN);
        let (back, payload) = ResponseHeader::decode(&wire).unwrap();
        assert_eq!(back, hdr);
        assert!(payload.is_empty());
    }

    #[test]
    fn truncated_buffers_are_rejected_with_sizes() {
        let err = RequestHeader::decode(&[0u8; 5]).unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                needed: REQUEST_HEADER_LEN,
                got: 5
            }
        );
        // A response whose SSL claims more status bytes than present.
        let hdr = ResponseHeader {
            rid: RsnodeId(1),
            magic: MagicField::RESPONSE,
            rv: 0,
            sm: SourceMarker { pod: 0, rack: 0 },
            status: vec![9; 10],
        };
        let wire = hdr.encode(b"");
        let cut = &wire[..wire.len() - 3];
        let err = ResponseHeader::decode(cut).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn rgid_range_is_enforced() {
        assert!(Rgid::new(Rgid::MAX).is_ok());
        assert_eq!(
            Rgid::new(Rgid::MAX + 1),
            Err(WireError::RgidOutOfRange(Rgid::MAX + 1))
        );
    }

    #[test]
    fn magic_f_is_an_involution_with_required_separation() {
        for m in [
            MagicField::REQUEST,
            MagicField::RESPONSE,
            MagicField::MONITORED,
        ] {
            assert_eq!(m.f().f_inv(), m);
            assert_ne!(m.f(), m);
        }
        // §IV-C: f(M_resp) must differ from both M_req and M_resp.
        let f_resp = MagicField::RESPONSE.f();
        assert_ne!(f_resp, MagicField::REQUEST);
        assert_ne!(f_resp, MagicField::RESPONSE);
        assert_ne!(f_resp, MagicField::MONITORED);
        // And the transformed labels must all be "Other" to switches.
        assert_eq!(f_resp.kind(), PacketKind::Other);
        assert_eq!(MagicField::MONITORED.f().kind(), PacketKind::Other);
    }

    #[test]
    fn selector_server_handshake_recovers_labels() {
        // Selector rewrites a request's magic to f(M_resp); the server
        // answers with f⁻¹ of what it saw — which must be M_resp.
        let at_server = MagicField::RESPONSE.f();
        assert_eq!(at_server.f_inv(), MagicField::RESPONSE);
        // Under DRS the ToR stamps f(M_mon); the response surfaces M_mon.
        let drs = MagicField::MONITORED.f();
        assert_eq!(drs.f_inv(), MagicField::MONITORED);
    }

    #[test]
    fn classify_reads_only_the_magic() {
        let req = RequestHeader {
            rid: RsnodeId(9),
            magic: MagicField::REQUEST,
            rv: 1,
            rgid: Rgid::new(5).unwrap(),
        }
        .encode(b"x");
        assert_eq!(classify(&req), PacketKind::NetRsRequest);

        let resp = ResponseHeader {
            rid: RsnodeId(9),
            magic: MagicField::RESPONSE,
            rv: 1,
            sm: SourceMarker { pod: 1, rack: 2 },
            status: Vec::new(),
        }
        .encode(b"y");
        assert_eq!(classify(&resp), PacketKind::NetRsResponse);

        assert_eq!(classify(b"tiny"), PacketKind::Other);
        assert_eq!(classify(&[0u8; 64]), PacketKind::Other);
    }

    #[test]
    fn peek_rid_matches_decode() {
        let hdr = RequestHeader {
            rid: RsnodeId(4242),
            magic: MagicField::REQUEST,
            rv: 0,
            rgid: Rgid::new(1).unwrap(),
        };
        let wire = hdr.encode(b"");
        assert_eq!(peek_rid(&wire).unwrap(), RsnodeId(4242));
        assert!(peek_rid(&[1]).is_err());
    }

    #[test]
    fn illegal_rid_round_trips() {
        let hdr = RequestHeader {
            rid: RsnodeId::ILLEGAL,
            magic: MagicField::REQUEST,
            rv: 0,
            rgid: Rgid::new(0).unwrap(),
        };
        let (back, _) = RequestHeader::decode(&hdr.encode(b"")).unwrap();
        assert!(!back.rid.is_legal());
        assert_eq!(RsnodeId::ILLEGAL.to_string(), "rsn-illegal");
    }

    #[test]
    fn source_marker_comparisons() {
        let a = SourceMarker { pod: 1, rack: 10 };
        let b = SourceMarker { pod: 1, rack: 11 };
        let c = SourceMarker { pod: 2, rack: 20 };
        assert!(a.same_pod(b) && !a.same_rack(b));
        assert!(!a.same_pod(c) && !a.same_rack(c));
        assert!(a.same_pod(a) && a.same_rack(a));
    }

    #[test]
    fn set_frame_round_trips_with_trailing_bytes() {
        let cmd = SetCommand {
            key: 0xDEAD_BEEF_CAFE_F00D,
            value: b"hello".to_vec(),
        };
        let mut wire = cmd.encode();
        wire.extend_from_slice(b"next");
        let (back, rest) = SetCommand::decode(&wire).unwrap();
        assert_eq!(back, cmd);
        assert_eq!(rest, b"next");
    }

    #[test]
    fn set_frame_is_byte_exact() {
        let cmd = SetCommand {
            key: 0x0102_0304_0506_0708,
            value: vec![0xAA, 0xBB],
        };
        let wire = cmd.encode();
        assert_eq!(wire.len(), SET_FIXED_LEN + 2);
        assert_eq!(wire[0], OP_SET);
        assert_eq!(&wire[1..9], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(&wire[9..13], &[0, 0, 0, 2], "VLEN is big-endian");
        assert_eq!(&wire[13..], &[0xAA, 0xBB]);
    }

    #[test]
    fn set_frame_rejects_bad_opcode_and_truncation() {
        let err = SetCommand::decode(&[0u8; 5]).unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                needed: SET_FIXED_LEN,
                got: 5
            }
        );
        let mut wire = SetCommand {
            key: 1,
            value: b"v".to_vec(),
        }
        .encode();
        wire[0] = 0x47;
        let err = SetCommand::decode(&wire).unwrap_err();
        assert_eq!(err, WireError::UnexpectedOpcode(0x47));
        assert!(err.to_string().contains("opcode"));
        // VLEN promises more value bytes than the buffer carries.
        let cut = SetCommand {
            key: 1,
            value: vec![7; 10],
        }
        .encode();
        let err = SetCommand::decode(&cut[..cut.len() - 3]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    #[test]
    fn headers_are_big_endian() {
        // Byte-exact, not a round trip: an encoder and decoder that agreed
        // on the wrong byte order would still round-trip.
        let req = RequestHeader {
            rid: RsnodeId(0x0102),
            magic: MagicField::REQUEST,
            rv: 0x0304,
            rgid: Rgid::new(0x05_0607).unwrap(),
        }
        .encode(b"p");
        assert_eq!(
            req,
            [&[1, 2][..], b"NRSREQ", &[3, 4, 5, 6, 7], b"p"].concat()
        );
        let resp = ResponseHeader {
            rid: RsnodeId(0x0102),
            magic: MagicField::RESPONSE,
            rv: 0x0304,
            sm: SourceMarker {
                pod: 0x0506,
                rack: 0x0708,
            },
            status: vec![0xAA],
        }
        .encode(b"p");
        assert_eq!(
            resp,
            [
                &[1, 2][..],
                b"NRSRSP",
                &[3, 4, 5, 6, 7, 8, 0, 1, 0xAA],
                b"p"
            ]
            .concat()
        );
    }

    #[test]
    fn header_lengths_match_paper_segments() {
        // Request: 2 + 6 + 2 + 3 = 13 bytes of NetRS header.
        assert_eq!(REQUEST_HEADER_LEN, 13);
        // Response fixed part: 2 + 6 + 2 + 4 + 2 = 16 bytes.
        assert_eq!(RESPONSE_FIXED_LEN, 16);
    }
}
