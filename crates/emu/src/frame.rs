//! The emulation's link-layer frame: addressing plus an SDN-style source
//! route, wrapping a byte-exact NetRS packet.
//!
//! ```text
//! frame := src_host(4) dst_host(4) route_len(1) route(2·len) body(...)
//! ```
//!
//! The route is the ordered list of switch IDs the frame still has to
//! traverse; each switch pops itself off the head and forwards to the
//! next entry (or delivers to `dst_host` when the route is exhausted).
//! ToRs and selectors rewrite the route exactly where the paper's SDN
//! rules would re-steer a packet.

/// Maximum route length (a fat-tree via-path is at most 10 switches).
pub const MAX_ROUTE: usize = 16;

/// A link-layer frame of the UDP emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmuFrame {
    /// Sending host.
    pub src: u32,
    /// Destination host.
    pub dst: u32,
    /// Remaining switch hops (front = next).
    pub route: Vec<u16>,
    /// The NetRS packet (or arbitrary payload) carried.
    pub body: Vec<u8>,
}

/// Frame decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the fixed header requires.
    Truncated,
    /// The declared route exceeds [`MAX_ROUTE`].
    RouteTooLong(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::RouteTooLong(n) => write!(f, "route of {n} hops exceeds {MAX_ROUTE}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl EmuFrame {
    /// Serializes the frame.
    ///
    /// # Panics
    ///
    /// Panics if the route exceeds [`MAX_ROUTE`] hops.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.route.len() <= MAX_ROUTE, "route too long");
        let mut buf = Vec::with_capacity(9 + 2 * self.route.len() + self.body.len());
        buf.extend_from_slice(&self.src.to_be_bytes());
        buf.extend_from_slice(&self.dst.to_be_bytes());
        buf.push(self.route.len() as u8);
        for &hop in &self.route {
            buf.extend_from_slice(&hop.to_be_bytes());
        }
        buf.extend_from_slice(&self.body);
        buf
    }

    /// Parses a frame.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on short buffers or oversized routes.
    pub fn decode(buf: &[u8]) -> Result<Self, FrameError> {
        if buf.len() < 9 {
            return Err(FrameError::Truncated);
        }
        let src = u32::from_be_bytes(buf[0..4].try_into().expect("length checked"));
        let dst = u32::from_be_bytes(buf[4..8].try_into().expect("length checked"));
        let len = buf[8] as usize;
        if len > MAX_ROUTE {
            return Err(FrameError::RouteTooLong(len));
        }
        let need = 9 + 2 * len;
        if buf.len() < need {
            return Err(FrameError::Truncated);
        }
        let route = (0..len)
            .map(|i| u16::from_be_bytes(buf[9 + 2 * i..11 + 2 * i].try_into().expect("checked")))
            .collect();
        Ok(EmuFrame {
            src,
            dst,
            route,
            body: buf[need..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Decoding is total: arbitrary bytes give `Ok` or `Err`, never a
        /// panic, and every `Ok` re-encodes to the bytes it came from.
        /// `route_len` overwrites the length byte half the time, so short
        /// routes (and hence `Ok`s) are common rather than 1 in 15, and
        /// buffers one byte short of a declared route are drawn too.
        #[test]
        fn decode_is_total(
            bytes in proptest::collection::vec(any::<u8>(), 0..48),
            route_len in 0u8..=(MAX_ROUTE as u8 + 2),
            patch in any::<bool>(),
        ) {
            let mut bytes = bytes;
            if patch && bytes.len() > 8 {
                bytes[8] = route_len;
            }
            match EmuFrame::decode(&bytes) {
                Ok(frame) => prop_assert_eq!(frame.encode(), bytes),
                Err(FrameError::Truncated) => {
                    prop_assert!(bytes.len() < 9 + 2 * usize::from(bytes.get(8).copied().unwrap_or(0)));
                }
                Err(FrameError::RouteTooLong(n)) => {
                    prop_assert!(n > MAX_ROUTE);
                    prop_assert_eq!(n, usize::from(bytes[8]));
                }
            }
        }
    }

    #[test]
    fn frame_round_trips() {
        let f = EmuFrame {
            src: 3,
            dst: 900,
            route: vec![1, 130, 260, 140, 56],
            body: b"netrs packet bytes".to_vec(),
        };
        let wire = f.encode();
        assert_eq!(EmuFrame::decode(&wire).unwrap(), f);
    }

    #[test]
    fn empty_route_and_body() {
        let f = EmuFrame {
            src: 0,
            dst: 1,
            route: vec![],
            body: Vec::new(),
        };
        assert_eq!(EmuFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn truncation_detected() {
        assert_eq!(
            EmuFrame::decode(&[0u8; 4]).unwrap_err(),
            FrameError::Truncated
        );
        let f = EmuFrame {
            src: 1,
            dst: 2,
            route: vec![7, 8],
            body: Vec::new(),
        };
        let wire = f.encode();
        assert_eq!(
            EmuFrame::decode(&wire[..wire.len() - 1]).unwrap_err(),
            FrameError::Truncated
        );
    }

    #[test]
    fn oversized_route_rejected() {
        let mut bytes = vec![0u8; 9];
        bytes[8] = (MAX_ROUTE + 1) as u8;
        assert_eq!(
            EmuFrame::decode(&bytes).unwrap_err(),
            FrameError::RouteTooLong(MAX_ROUTE + 1)
        );
    }

    #[test]
    #[should_panic(expected = "route too long")]
    fn encoding_oversized_route_panics() {
        let f = EmuFrame {
            src: 0,
            dst: 0,
            route: vec![0; MAX_ROUTE + 1],
            body: Vec::new(),
        };
        let _ = f.encode();
    }
}
