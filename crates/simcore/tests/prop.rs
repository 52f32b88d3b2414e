//! Property-based tests for the simulation core.

use netrs_simcore::{
    round_to_u64, Engine, EventQueue, Histogram, SimDuration, SimRng, SimTime, World, Zipf,
};
use proptest::prelude::*;

struct Collector {
    order: Vec<u64>,
}

impl World for Collector {
    type Event = u64;
    fn handle(&mut self, now: SimTime, _ev: u64, _q: &mut EventQueue<u64>) {
        self.order.push(now.as_nanos());
    }
}

proptest! {
    /// The libm-free rounding is `round` followed by the saturating cast,
    /// on arbitrary bit patterns (NaNs, infinities, subnormals, negatives)
    /// and on the nanosecond magnitudes the simulator feeds it.
    #[test]
    fn round_to_u64_matches_round_then_cast(bits in any::<u64>(), ns in 0.0f64..1e13) {
        let x = f64::from_bits(bits);
        prop_assert_eq!(round_to_u64(x), x.round() as u64, "x = {:e}", x);
        prop_assert_eq!(round_to_u64(ns), ns.round() as u64, "x = {:e}", ns);
    }

    /// The engine always delivers events in non-decreasing time order,
    /// regardless of insertion order.
    #[test]
    fn events_always_in_time_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut engine = Engine::new(Collector { order: Vec::new() });
        for &t in &times {
            engine.queue_mut().schedule_at(SimTime::from_nanos(t), t);
        }
        engine.run();
        let order = &engine.world().order;
        prop_assert_eq!(order.len(), times.len());
        prop_assert!(order.windows(2).all(|w| w[0] <= w[1]));
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(order, &sorted);
    }

    /// Pop order equals a sorted `(at, seq)` reference model under
    /// arbitrary interleavings of schedules and pops. Each op is either
    /// a schedule at one of a few clustered times (forcing ties) or a
    /// pop; the queue must agree with a stable sort of the not-yet-
    /// popped schedules by `(time, insertion sequence)`.
    #[test]
    fn pop_order_matches_sorted_reference_model(
        ops in proptest::collection::vec((0u8..4, 0u64..8), 1..300),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (at, seq), sorted on pop
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for &(op, slot) in &ops {
            if op == 0 && !model.is_empty() {
                // Reference: earliest (at, seq) not yet popped.
                let best = *model.iter().min().unwrap();
                model.retain(|&e| e != best);
                expected.push(best);
                let (at, id) = q.pop().unwrap();
                popped.push((at.as_nanos(), id));
            } else {
                // Cluster times into 8 slots at or after `now` so ties
                // are common and the past-schedule guard never trips.
                let at = q.now().as_nanos() + slot;
                q.schedule_at(SimTime::from_nanos(at), seq);
                model.push((at, seq));
                seq += 1;
            }
        }
        while let Some((at, id)) = q.pop() {
            let best = *model.iter().min().unwrap();
            model.retain(|&e| e != best);
            expected.push(best);
            popped.push((at.as_nanos(), id));
        }
        prop_assert!(model.is_empty());
        prop_assert_eq!(popped, expected);
    }

    /// Histogram quantiles are monotone in q, bracketed by min/max, and the
    /// quantization error of any quantile is below 1% relative.
    #[test]
    fn histogram_quantiles_are_sane(values in proptest::collection::vec(1u64..10_000_000_000, 1..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record_nanos(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let mut last = 0u64;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let got = h.value_at_quantile(q).as_nanos();
            prop_assert!(got >= last, "quantiles must be monotone");
            last = got;
            prop_assert!(got >= *sorted.first().unwrap());
            prop_assert!(got <= *sorted.last().unwrap());
        }
        // Cross-check p50 against the exact order statistic.
        let exact = sorted[(values.len() - 1) / 2];
        let got = h.value_at_quantile(0.5).as_nanos();
        // The histogram returns a bucket upper bound >= the exact order
        // statistic it covers, within 1/128 relative error.
        prop_assert!(got as f64 >= exact as f64 * 0.99, "got {got}, exact {exact}");
        prop_assert!(got as f64 <= *sorted.last().unwrap() as f64 * (1.0 + 1.0 / 128.0));
    }

    /// Merging two histograms is equivalent to recording the union.
    #[test]
    fn histogram_merge_is_union(
        a in proptest::collection::vec(1u64..1_000_000, 0..200),
        b in proptest::collection::vec(1u64..1_000_000, 0..200),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hu = Histogram::new();
        for &v in &a { ha.record_nanos(v); hu.record_nanos(v); }
        for &v in &b { hb.record_nanos(v); hu.record_nanos(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.summary(), hu.summary());
    }

    /// Zipf samples always stay in the declared support.
    #[test]
    fn zipf_support(n in 1u64..100_000, s in 0.1f64..3.0, seed in any::<u64>()) {
        let zipf = Zipf::new(n, s);
        let mut rng = SimRng::from_seed(seed);
        for _ in 0..200 {
            let k = zipf.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
        }
    }

    /// Exponential draws are positive and reproducible per seed.
    #[test]
    fn exp_draws_reproducible(seed in any::<u64>(), mean_us in 1u64..100_000) {
        let mean = SimDuration::from_micros(mean_us);
        let mut r1 = SimRng::from_seed(seed);
        let mut r2 = SimRng::from_seed(seed);
        for _ in 0..50 {
            let a = r1.exp_duration(mean);
            let b = r2.exp_duration(mean);
            prop_assert_eq!(a, b);
        }
    }
}
