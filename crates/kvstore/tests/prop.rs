//! Property-based tests of the key-value substrate.

use netrs_kvstore::{
    Arrival, Ring, Server, ServerConfig, ServerId, ServerStatus, StatusError, STATUS_WIRE_LEN,
};
use netrs_simcore::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// Consistent hashing: replica sets always have exactly RF distinct
    /// members, and the group database agrees with direct lookup.
    #[test]
    fn ring_invariants(
        servers in 3u32..40,
        vnodes in 1u32..32,
        rf in 1u32..=3,
        seed in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 1..50),
    ) {
        let ring = Ring::new(servers, vnodes, rf, seed).unwrap();
        for key in keys {
            let reps = ring.replicas_for_key(key);
            prop_assert_eq!(reps.len(), rf as usize);
            let mut sorted = reps.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), rf as usize, "duplicate replicas");
            prop_assert!(reps.iter().all(|s| s.0 < servers));
            let gid = ring.group_of_key(key);
            prop_assert_eq!(ring.groups().replicas(gid), reps);
        }
    }

    /// The server model conserves requests: arrivals = completions +
    /// in-service + queued, in any interleaving of arrivals and
    /// completions; and the queue-length report always matches.
    #[test]
    fn server_conserves_requests(
        seed in any::<u64>(),
        slots in 1u32..6,
        ops in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let cfg = ServerConfig { slots, ..ServerConfig::default() };
        let mut server: Server<u32> = Server::new(ServerId(0), cfg, SimRng::from_seed(seed));
        let mut now = SimTime::ZERO;
        let mut arrived = 0u32;
        let mut completed = 0u32;
        let mut scheduled: u32 = 0; // copies currently in service
        for (i, arrive) in ops.into_iter().enumerate() {
            now += SimDuration::from_micros(10);
            if arrive {
                match server.arrive(i as u32, now) {
                    Arrival::Started { finish_at } => {
                        prop_assert!(finish_at >= now);
                        scheduled += 1;
                    }
                    Arrival::Queued => {}
                }
                arrived += 1;
            } else if scheduled > 0 {
                let comp = server.complete(now);
                completed += 1;
                scheduled -= 1;
                if let Some((_, finish_at)) = comp.next {
                    prop_assert!(finish_at >= now);
                    scheduled += 1;
                }
            }
            prop_assert_eq!(server.in_service(), scheduled);
            prop_assert!(server.in_service() <= slots);
            prop_assert_eq!(
                server.queue_len(),
                arrived - completed,
                "queue_len must count waiting + in-service"
            );
        }
        prop_assert_eq!(server.stats().arrived, u64::from(arrived));
        prop_assert_eq!(server.stats().completed, u64::from(completed));
    }

    /// Status piggyback round-trips through its wire encoding for any
    /// value.
    #[test]
    fn status_roundtrip(queue_len in any::<u32>(), service in any::<u64>()) {
        let s = ServerStatus { queue_len, service_time_ns: service };
        prop_assert_eq!(ServerStatus::decode(&s.encode()).unwrap(), s);
    }

    /// Decoding is total: arbitrary bytes give `Ok` or `Err`, never a
    /// panic, and every `Ok` re-encodes to the bytes it came from.
    #[test]
    fn status_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..2 * STATUS_WIRE_LEN)) {
        match ServerStatus::decode(&bytes) {
            Ok(s) => prop_assert_eq!(&s.encode()[..], &bytes[..]),
            Err(StatusError::BadLength(n)) => {
                prop_assert_eq!(n, bytes.len());
                prop_assert!(n != STATUS_WIRE_LEN);
            }
        }
    }

    /// Fluctuation only ever produces the two configured modes.
    #[test]
    fn fluctuation_is_bimodal(seed in any::<u64>(), d in 1.0f64..8.0) {
        let cfg = ServerConfig { fluctuation_range: d, ..ServerConfig::default() };
        let base = cfg.base_service_time;
        let fast = base.mul_f64(1.0 / d);
        let mut server: Server<u32> = Server::new(ServerId(1), cfg, SimRng::from_seed(seed));
        for _ in 0..50 {
            server.fluctuate();
            let m = server.current_mean();
            prop_assert!(m == base || m == fast, "unexpected mode {m:?}");
        }
    }
}
