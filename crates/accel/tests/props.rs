//! Property-based tests for the accelerator simulator.

use accel::dsp::{DspOp, DspSlice};
use std::ops::Range;

use accel::executor::{
    infer_with_faults, infer_with_faults_naive, FixedRateHook, MacHook, NoFaults,
};
use accel::fault::{DspTiming, FaultModel, MacFault};
use accel::schedule::{AccelConfig, Schedule};
use dnn::fixed::QFormat;
use dnn::layers::{Conv2d, Dense, MaxPool2d, Tanh};
use dnn::network::Sequential;
use dnn::quant::QuantizedNetwork;
use dnn::tensor::Tensor;
use pdn::delay::DelayModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Fault probabilities are a valid, voltage-monotone distribution for
    /// any physically sensible timing parameters.
    #[test]
    fn probabilities_valid_and_monotone(
        stage in 2_000.0f64..4_800.0,
        window in 0.01f64..0.3,
        jitter in 0.02f64..0.3,
        v in 0.5f64..1.1,
    ) {
        let m = FaultModel::new(
            DspTiming { stage_delay_ps: stage, budget_ps: 5_000.0, window_frac: window, jitter_frac: jitter },
            DelayModel::default(),
        );
        let p = m.probabilities(v);
        prop_assert!(p.duplicate >= 0.0 && p.random >= 0.0);
        prop_assert!(p.total() <= 1.0 + 1e-12);
        let deeper = m.probabilities(v - 0.05);
        prop_assert!(deeper.total() >= p.total() - 1e-12);
    }

    /// Sampling at nominal voltage never faults for any op inputs.
    #[test]
    fn nominal_ops_never_fault(a in -128i32..128, b in -128i32..128, d in -128i32..128) {
        let mut dsp = DspSlice::new(FaultModel::paper());
        let mut rng = StdRng::seed_from_u64(7);
        dsp.issue(DspOp { a, b, d });
        let results = dsp.drain(1.0, &mut rng);
        prop_assert_eq!(results.len(), 1);
        prop_assert!(results[0].is_correct());
        prop_assert_eq!(results[0].value, (i64::from(a) + i64::from(d)) * i64::from(b));
    }

    /// Schedule windows are disjoint, ordered and cover every op exactly
    /// once, for arbitrary small conv architectures.
    #[test]
    fn schedule_invariants(
        out1 in 1usize..6,
        k1 in 1usize..4,
        hidden in 1usize..40,
        stall in 1u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::new("t");
        net.push(Box::new(Conv2d::new("conv1", 1, out1, k1, &mut rng)));
        net.push(Box::new(Tanh::new("t1")));
        net.push(Box::new(MaxPool2d::new("pool1", 2)));
        let side = (12 - k1).div_ceil(2);
        net.push(Box::new(Dense::new("fc1", out1 * side * side, hidden, &mut rng)));
        net.push(Box::new(Dense::new("fc2", hidden, 10, &mut rng)));
        // Pool needs even input: only keep cases where 12-k1+1 is even.
        prop_assume!((12 - k1 + 1) % 2 == 0);
        let q = QuantizedNetwork::from_sequential(&net, &[1, 12, 12], QFormat::paper()).unwrap();
        let schedule = Schedule::for_network(
            &q,
            &AccelConfig { stall_cycles: stall, ..AccelConfig::default() },
        );
        let mut prev_end = 0u64;
        for w in schedule.windows() {
            prop_assert_eq!(w.start_cycle, prev_end + stall);
            prop_assert!(w.cycles >= 1);
            prop_assert!(w.ops >= w.outputs);
            prev_end = w.end_cycle();
        }
        prop_assert_eq!(schedule.total_cycles(), prev_end + stall);
        // cycle_of_op stays in range for boundary ops of every window.
        for w in schedule.windows() {
            for op in [0, w.ops - 1] {
                prop_assert!(w.contains(w.cycle_of_op(op)));
            }
        }
    }

    /// The executor's fault tally equals what the hook injected.
    #[test]
    fn executor_counts_what_the_hook_injects(dup in 0.0f64..0.2, rnd in 0.0f64..0.2, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new("t");
        net.push(Box::new(Dense::new("fc1", 64, 16, &mut StdRng::seed_from_u64(2))));
        net.push(Box::new(Tanh::new("t1")));
        net.push(Box::new(Dense::new("fc2", 16, 4, &mut StdRng::seed_from_u64(3))));
        let q = QuantizedNetwork::from_sequential(&net, &[1, 8, 8], QFormat::paper()).unwrap();
        let x = Tensor::full(&[1, 8, 8], 0.3);
        let mut hook = FixedRateHook { duplicate: dup, random: rnd, rng: StdRng::seed_from_u64(seed) };
        let (_, tally) = infer_with_faults(&q, &x, &mut hook, &mut rng);
        let total_ops = (64 * 16 + 16 * 4) as f64;
        let expected = (dup + rnd) * total_ops;
        // Binomial tolerance: 5 sigma.
        let sigma = (total_ops * (dup + rnd) * (1.0 - dup - rnd).max(0.01)).sqrt();
        prop_assert!(
            (tally.total() as f64 - expected).abs() <= 5.0 * sigma + 3.0,
            "tally {} vs expected {expected}",
            tally.total()
        );
    }

    /// Fault-free execution matches the reference for random inputs.
    #[test]
    fn clean_execution_matches_reference(fill in 0.0f32..1.0, seed in 0u64..50) {
        let net = dnn::zoo::mlp(&mut StdRng::seed_from_u64(seed));
        let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap();
        let x = Tensor::full(&[1, 28, 28], fill);
        let mut rng = StdRng::seed_from_u64(0);
        let (logits, _) = infer_with_faults(&q, &x, &mut NoFaults, &mut rng);
        prop_assert_eq!(logits, q.infer_logits(&x));
    }
}

/// A hook that draws randomness only inside its live op ranges and
/// answers every other op with a draw-free `MacFault::None` — the contract
/// `MacHook::live_ops` lets the fast executor exploit.
struct RangedHook {
    live: Vec<Vec<Range<u64>>>,
    inner: FixedRateHook<StdRng>,
}

impl MacHook for RangedHook {
    fn fault(&mut self, stage: usize, op: u64, w: i8, x: i8) -> MacFault {
        match self.live.get(stage) {
            Some(ranges) if ranges.iter().any(|r| r.contains(&op)) => {
                self.inner.fault(stage, op, w, x)
            }
            _ => MacFault::None,
        }
    }

    fn live_ops(&self, stage: usize) -> Vec<Range<u64>> {
        self.live.get(stage).cloned().unwrap_or_default()
    }
}

/// conv(1→3, k3) → tanh → pool 2 → fc(48→12) → tanh → fc(12→10) on a
/// 10×10 input: both MAC addressings, a pooling stage in between, and a
/// dense stage that is not the last.
fn small_cnn() -> QuantizedNetwork {
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = Sequential::new("cnn");
    net.push(Box::new(Conv2d::new("conv1", 1, 3, 3, &mut rng)));
    net.push(Box::new(Tanh::new("t1")));
    net.push(Box::new(MaxPool2d::new("pool1", 2)));
    net.push(Box::new(Dense::new("fc1", 48, 12, &mut rng)));
    net.push(Box::new(Tanh::new("t2")));
    net.push(Box::new(Dense::new("fc2", 12, 10, &mut rng)));
    QuantizedNetwork::from_sequential(&net, &[1, 10, 10], QFormat::paper()).unwrap()
}

/// Sorted, disjoint ranges from arbitrary cut points (some past `ops`,
/// which the executor must clip).
fn ranges_from(mut cuts: Vec<u64>) -> Vec<Range<u64>> {
    cuts.sort_unstable();
    cuts.dedup();
    cuts.chunks_exact(2).map(|pair| pair[0]..pair[1]).collect()
}

proptest! {
    /// Visiting only the live ops gives the same logits, tally and
    /// `mac_fault` events as consulting the hook on every multiply —
    /// including duplications that re-capture a PE's product from before
    /// the range (or before the stage's first op) and random faults
    /// drawing from the executor's RNG.
    #[test]
    fn live_op_executor_matches_per_mac_oracle(
        conv_cuts in prop::collection::vec(0u64..1_800, 0..10),
        fc1_cuts in prop::collection::vec(0u64..600, 0..10),
        fc2_cuts in prop::collection::vec(0u64..130, 0..6),
        dup in 0.0f64..0.6,
        rnd in 0.0f64..0.3,
        fill in 0.0f32..1.0,
        seed in 0u64..1_000,
    ) {
        let q = small_cnn();
        let x = Tensor::from_vec(
            (0..100).map(|i| ((i as f32 * 0.37 + fill) % 1.0) * 2.0 - 1.0).collect(),
            &[1, 10, 10],
        );
        let live = vec![
            ranges_from(conv_cuts),
            Vec::new(),
            ranges_from(fc1_cuts),
            ranges_from(fc2_cuts),
        ];
        let hook = |live: &Vec<Vec<Range<u64>>>| RangedHook {
            live: live.clone(),
            inner: FixedRateHook { duplicate: dup, random: rnd, rng: StdRng::seed_from_u64(seed) },
        };
        let (fast, fast_log) = trace::capture(1 << 16, || {
            infer_with_faults(&q, &x, &mut hook(&live), &mut StdRng::seed_from_u64(seed ^ 1))
        });
        let (naive, naive_log) = trace::capture(1 << 16, || {
            infer_with_faults_naive(&q, &x, &mut hook(&live), &mut StdRng::seed_from_u64(seed ^ 1))
        });
        prop_assert_eq!(&fast, &naive);
        prop_assert_eq!(fast_log, naive_log);
        // With every op live (the default), the two paths agree too.
        let mut all = FixedRateHook { duplicate: dup, random: rnd, rng: StdRng::seed_from_u64(seed) };
        let every = infer_with_faults(&q, &x, &mut all, &mut StdRng::seed_from_u64(seed ^ 1));
        let mut all = FixedRateHook { duplicate: dup, random: rnd, rng: StdRng::seed_from_u64(seed) };
        let oracle = infer_with_faults_naive(&q, &x, &mut all, &mut StdRng::seed_from_u64(seed ^ 1));
        prop_assert_eq!(every, oracle);
    }
}
