//! The piggybacked server status carried in the SS segment of NetRS
//! responses.
//!
//! C3 (the selector the paper uses throughout) needs two numbers from each
//! server: its pending-request count ("queue size") and its service-time
//! estimate. The paper's packet format reserves the variable-length SS
//! segment for exactly this; our canonical encoding is 12 bytes.

use serde::{Deserialize, Serialize};

/// Server status piggybacked on every response (§IV-A, SS segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct ServerStatus {
    /// Pending requests at the server: waiting plus in service.
    pub queue_len: u32,
    /// The server's smoothed estimate of its own service time, in
    /// nanoseconds.
    pub service_time_ns: u64,
}

/// Encoded length of [`ServerStatus`] on the wire.
pub const STATUS_WIRE_LEN: usize = 12;

impl ServerStatus {
    /// The service-time estimate as a duration.
    #[must_use]
    pub fn service_time(&self) -> netrs_simcore::SimDuration {
        netrs_simcore::SimDuration::from_nanos(self.service_time_ns)
    }

    /// Encodes the status into the SS byte layout (big-endian `queue_len`
    /// then `service_time_ns`).
    #[must_use]
    pub fn encode(&self) -> [u8; STATUS_WIRE_LEN] {
        let mut buf = [0u8; STATUS_WIRE_LEN];
        buf[..4].copy_from_slice(&self.queue_len.to_be_bytes());
        buf[4..].copy_from_slice(&self.service_time_ns.to_be_bytes());
        buf
    }

    /// Decodes a status from an SS segment.
    ///
    /// # Errors
    ///
    /// Returns an error when the segment is not exactly
    /// [`STATUS_WIRE_LEN`] bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, StatusError> {
        if buf.len() != STATUS_WIRE_LEN {
            return Err(StatusError::BadLength(buf.len()));
        }
        Ok(ServerStatus {
            queue_len: u32::from_be_bytes(buf[0..4].try_into().expect("length checked")),
            service_time_ns: u64::from_be_bytes(buf[4..12].try_into().expect("length checked")),
        })
    }
}

/// Errors decoding a [`ServerStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusError {
    /// The SS segment had the wrong length.
    BadLength(usize),
}

impl std::fmt::Display for StatusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatusError::BadLength(n) => {
                write!(f, "server status must be {STATUS_WIRE_LEN} bytes, got {n}")
            }
        }
    }
}

impl std::error::Error for StatusError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_round_trips() {
        let s = ServerStatus {
            queue_len: 17,
            service_time_ns: 3_987_654,
        };
        let wire = s.encode();
        assert_eq!(
            wire,
            [0, 0, 0, 17, 0, 0, 0, 0, 0, 0x3C, 0xD8, 0xC6],
            "big-endian"
        );
        assert_eq!(ServerStatus::decode(&wire).unwrap(), s);
    }

    #[test]
    fn wrong_length_is_rejected() {
        assert_eq!(
            ServerStatus::decode(&[0u8; 5]).unwrap_err(),
            StatusError::BadLength(5)
        );
        assert_eq!(
            ServerStatus::decode(&[0u8; 16]).unwrap_err(),
            StatusError::BadLength(16)
        );
        assert!(StatusError::BadLength(5).to_string().contains("12"));
    }

    #[test]
    fn extreme_values_round_trip() {
        let s = ServerStatus {
            queue_len: u32::MAX,
            service_time_ns: u64::MAX,
        };
        assert_eq!(ServerStatus::decode(&s.encode()).unwrap(), s);
        let zero = ServerStatus::default();
        assert_eq!(ServerStatus::decode(&zero.encode()).unwrap(), zero);
    }
}
