//! Property-based tests of the replica selectors.

use netrs_kvstore::ServerId;
use netrs_selection::{C3Config, C3Selector, C3Table, Feedback, ReplicaSelector};
use netrs_simcore::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

fn arb_feedback() -> impl Strategy<Value = Feedback> {
    (0u32..16, 0u32..50, 1u64..20_000, 1u64..200_000).prop_map(|(s, q, svc_us, lat_us)| Feedback {
        server: ServerId(s),
        queue_len: q,
        service_time: SimDuration::from_micros(svc_us),
        latency: SimDuration::from_micros(lat_us),
    })
}

/// One call on a C3 selector, for the differential test below.
#[derive(Debug, Clone)]
enum C3Op {
    Send(u32),
    Response(Feedback),
    Timeout(u32),
    Select(Vec<u32>),
    Rank(Vec<u32>),
}

fn arb_c3_op() -> impl Strategy<Value = C3Op> {
    let candidates = || proptest::collection::vec(0u32..16, 1..5);
    prop_oneof![
        (0u32..16).prop_map(C3Op::Send),
        arb_feedback().prop_map(C3Op::Response),
        (0u32..16).prop_map(C3Op::Timeout),
        candidates().prop_map(C3Op::Select),
        candidates().prop_map(C3Op::Rank),
    ]
}

fn ids(servers: &[u32]) -> Vec<ServerId> {
    servers.iter().copied().map(ServerId).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// There is one C3 implementation: a `C3Selector` is a one-row
    /// `C3Table`, and row `row` of a many-row table driven by the same
    /// calls (with every other row busy on calls of its own) agrees with it
    /// on every pick and rank, every count, and the next jitter draw —
    /// including timeout penalties a response clears, servers past either
    /// side's initial width, and an exponent other than the cube.
    #[test]
    fn c3_table_row_matches_one_row_selector(
        seed in any::<u64>(),
        rows in 1usize..6,
        row_pick in any::<usize>(),
        width in 0u32..12,
        one_width in 0u32..12,
        exponent in prop_oneof![Just(3.0), 1.0f64..5.0],
        ops in proptest::collection::vec(arb_c3_op(), 1..200),
    ) {
        let cfg = C3Config { exponent, ..C3Config::default() };
        let row = row_pick % rows;
        let mut one = C3Selector::with_servers(cfg, SimRng::from_seed(seed), one_width);
        one.set_concurrency(4.0);
        let rngs = (0..rows)
            .map(|r| SimRng::from_seed(if r == row { seed } else { seed ^ (r as u64 + 1) }))
            .collect();
        let mut table = C3Table::new(cfg, 4.0, rngs, width);
        let now = SimTime::ZERO;
        for (i, op) in ops.iter().enumerate() {
            // Another row gets the previous call, so rows that share the
            // table but not the calls must not leak into `row`.
            let other = (row + 1 + i) % rows;
            if other != row {
                match &ops[i.saturating_sub(1)] {
                    C3Op::Send(s) => table.on_send(other, ServerId(*s)),
                    C3Op::Response(fb) => table.on_response(other, fb),
                    C3Op::Timeout(s) => table.on_timeout(other, ServerId(*s)),
                    C3Op::Select(c) | C3Op::Rank(c) => {
                        let _ = table.select(other, &ids(c));
                    }
                }
            }
            match op {
                C3Op::Send(s) => {
                    one.on_send(ServerId(*s), now);
                    table.on_send(row, ServerId(*s));
                }
                C3Op::Response(fb) => {
                    one.on_response(fb, now);
                    table.on_response(row, fb);
                }
                C3Op::Timeout(s) => {
                    one.on_timeout(ServerId(*s), now);
                    table.on_timeout(row, ServerId(*s));
                }
                C3Op::Select(c) => {
                    let c = ids(c);
                    prop_assert_eq!(one.select(&c, now), table.select(row, &c));
                }
                C3Op::Rank(c) => {
                    let c = ids(c);
                    prop_assert_eq!(one.rank(&c, now), table.rank(row, &c));
                }
            }
            for s in (0..16).map(ServerId) {
                prop_assert_eq!(one.outstanding(s), table.outstanding(row, s));
                prop_assert_eq!(one.responses_seen(s), table.responses_seen(row, s));
                prop_assert_eq!(one.score(s).to_bits(), table.score(row, s).to_bits());
            }
        }
        prop_assert_eq!(one.rng().clone().next_u64(), table.rng(row).clone().next_u64());
    }
}

proptest! {
    /// Rank is always a permutation of the candidates, select is its
    /// head, and outstanding counters never underflow, across arbitrary
    /// interleavings of events.
    #[test]
    fn selectors_are_well_behaved(
        seed in any::<u64>(),
        events in proptest::collection::vec(prop_oneof![
            arb_feedback().prop_map(Some),
            Just(None), // None = a select+send round
        ], 1..100),
    ) {
        let mut sel = C3Selector::new(C3Config::default(), SimRng::from_seed(seed));
        let candidates: Vec<ServerId> = (0..8).map(ServerId).collect();
        let now = SimTime::ZERO;
        for ev in events {
            match ev {
                Some(fb) => sel.on_response(&fb, now),
                None => {
                    let ranked = sel.rank(&candidates, now);
                    let mut sorted = ranked.clone();
                    sorted.sort_unstable();
                    prop_assert_eq!(&sorted, &candidates, "rank must permute");
                    let pick = ranked[0];
                    sel.on_send(pick, now);
                }
            }
            for &s in &candidates {
                // Accessing outstanding never panics; its value is
                // bounded by the number of sends (<= events).
                prop_assert!(sel.outstanding(s) <= 100);
            }
        }
    }

    /// C3 score is monotone in the queue estimate: more queue, higher
    /// (worse) score, all else equal.
    #[test]
    fn c3_score_monotone_in_queue(q1 in 0u32..100, q2 in 0u32..100, svc_us in 100u64..10_000) {
        prop_assume!(q1 < q2);
        let mk = |q: u32| {
            let mut sel = C3Selector::new(C3Config::default(), SimRng::from_seed(1));
            sel.on_response(&Feedback {
                server: ServerId(0),
                queue_len: q,
                service_time: SimDuration::from_micros(svc_us),
                latency: SimDuration::from_millis(5),
            }, SimTime::ZERO);
            sel.score(ServerId(0))
        };
        prop_assert!(mk(q1) < mk(q2));
    }

    /// C3 score is monotone in observed latency.
    #[test]
    fn c3_score_monotone_in_latency(l1 in 1u64..100_000, l2 in 1u64..100_000) {
        prop_assume!(l1 < l2);
        let mk = |lat: u64| {
            let mut sel = C3Selector::new(C3Config::default(), SimRng::from_seed(1));
            sel.on_response(&Feedback {
                server: ServerId(0),
                queue_len: 3,
                service_time: SimDuration::from_millis(2),
                latency: SimDuration::from_micros(lat),
            }, SimTime::ZERO);
            sel.score(ServerId(0))
        };
        prop_assert!(mk(l1) < mk(l2));
    }
}
