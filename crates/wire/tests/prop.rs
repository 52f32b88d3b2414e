//! Property-based tests for the NetRS wire formats.

use netrs_wire::{
    classify, peek_rid, MagicField, PacketKind, RequestHeader, ResponseHeader, Rgid, RsnodeId,
    SetCommand, SourceMarker, WireError, OP_SET, SET_FIXED_LEN,
};
use proptest::prelude::*;

fn arb_magic() -> impl Strategy<Value = MagicField> {
    any::<[u8; 6]>().prop_map(MagicField)
}

proptest! {
    /// Any request header round-trips through the wire format.
    #[test]
    fn request_round_trips(
        rid in any::<u16>(),
        magic in arb_magic(),
        rv in any::<u16>(),
        rgid in 0u32..=Rgid::MAX,
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let hdr = RequestHeader {
            rid: RsnodeId(rid),
            magic,
            rv,
            rgid: Rgid::new(rgid).unwrap(),
        };
        let wire = hdr.encode(&payload);
        let (back, body) = RequestHeader::decode(&wire).unwrap();
        prop_assert_eq!(back, hdr);
        prop_assert_eq!(body, &payload[..]);
    }

    /// Any response header round-trips through the wire format.
    #[test]
    fn response_round_trips(
        rid in any::<u16>(),
        magic in arb_magic(),
        rv in any::<u16>(),
        pod in any::<u16>(),
        rack in any::<u16>(),
        status in proptest::collection::vec(any::<u8>(), 0..64),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let hdr = ResponseHeader {
            rid: RsnodeId(rid),
            magic,
            rv,
            sm: SourceMarker { pod, rack },
            status,
        };
        let wire = hdr.encode(&payload);
        let (back, body) = ResponseHeader::decode(&wire).unwrap();
        prop_assert_eq!(back, hdr);
        prop_assert_eq!(body, &payload[..]);
    }

    /// Any SET frame round-trips byte-exactly, trailing bytes included.
    #[test]
    fn set_round_trips(
        key in any::<u64>(),
        value in proptest::collection::vec(any::<u8>(), 0..256),
        trailing in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let cmd = SetCommand { key, value: value.clone() };
        let mut wire = cmd.encode();
        prop_assert_eq!(wire.len(), SET_FIXED_LEN + value.len());
        prop_assert_eq!(wire[0], OP_SET);
        wire.extend_from_slice(&trailing);
        let (back, rest) = SetCommand::decode(&wire).unwrap();
        prop_assert_eq!(back, cmd);
        prop_assert_eq!(rest, &trailing[..]);
    }

    /// Decoding never panics on arbitrary bytes; it either parses or
    /// returns a structured error.
    #[test]
    fn decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        match RequestHeader::decode(&bytes) {
            Ok(_) => prop_assert!(bytes.len() >= netrs_wire::REQUEST_HEADER_LEN),
            Err(WireError::Truncated { got, .. }) => prop_assert_eq!(got, bytes.len()),
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
        let _ = ResponseHeader::decode(&bytes);
        let _ = classify(&bytes);
        let _ = peek_rid(&bytes);
        match SetCommand::decode(&bytes) {
            Ok((cmd, rest)) => {
                prop_assert_eq!(SET_FIXED_LEN + cmd.value.len() + rest.len(), bytes.len());
            }
            Err(WireError::Truncated { got, .. }) => prop_assert_eq!(got, bytes.len()),
            Err(WireError::UnexpectedOpcode(op)) => prop_assert_eq!(op, bytes[0]),
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// The magic-field transform is a self-inverse bijection.
    #[test]
    fn f_is_involution(magic in arb_magic()) {
        prop_assert_eq!(magic.f().f(), magic);
        prop_assert_ne!(magic.f(), magic); // key has no zero byte
    }

    /// classify agrees with full decoding for well-formed requests.
    #[test]
    fn classify_agrees_with_headers(rid in any::<u16>(), rgid in 0u32..=Rgid::MAX) {
        let req = RequestHeader {
            rid: RsnodeId(rid),
            magic: MagicField::REQUEST,
            rv: 0,
            rgid: Rgid::new(rgid).unwrap(),
        }.encode(b"k");
        prop_assert_eq!(classify(&req), PacketKind::NetRsRequest);
        prop_assert_eq!(peek_rid(&req).unwrap(), RsnodeId(rid));
    }
}
