//! Fault-aware integer inference.
//!
//! This executor replays the exact MAC-level arithmetic of
//! [`dnn::quant::QuantizedNetwork`] (the two agree bit-for-bit when no
//! faults fire — see the integration tests) while consulting a [`MacHook`]
//! on every multiply the hook marks live. The hook decides, per op,
//! whether the DSP captured the correct product, a stale one (duplication
//! fault) or garbage (random fault); the attack crate supplies hooks driven
//! by its strike schedule, and tests use [`FixedRateHook`].
//!
//! Fault semantics follow §IV-A of the paper:
//!
//! * **Duplication** — the accumulator receives the *previous* product the
//!   PE computed; the correct product lands next cycle and is "absorbed by
//!   more serial summations" (so long dense accumulations shrug it off,
//!   which is why FC1 suffers much less than CONV2).
//! * **Random** — the product is XOR-corrupted in its low bits, which after
//!   `tanh` saturation ruins that output element.
//!
//! Pooling runs in fabric LUTs with large timing slack; it only faults at
//! droops far deeper than the striker produces (see
//! [`pool_fault_model`]), so strikes timed into `pool1` mostly waste
//! themselves — visible in the reproduced Fig. 5b.

use std::ops::Range;

use dnn::quant::{argmax, CodeMap, QConv, QDense, QLayer, QuantizedNetwork};
use dnn::tensor::Tensor;
use rand::Rng;

use crate::fault::{DspTiming, FaultModel, MacFault};

/// Per-MAC fault decision callback.
pub trait MacHook {
    /// Decides the fate of op `op_index` (0-based within the stage) of
    /// stage `stage_index` (0-based within the network), given the weight
    /// and activation codes it multiplies — small products exercise less
    /// of the DSP's critical path (see
    /// [`FaultModel::path_scale`](crate::fault::FaultModel::path_scale)).
    fn fault(&mut self, stage_index: usize, op_index: u64, weight: i8, activation: i8) -> MacFault;

    /// The ops of stage `stage_index` that [`infer_with_faults`] consults
    /// [`Self::fault`] for, as sorted, disjoint, half-open op ranges
    /// (clipped to the stage's op count). Leaving an op out must be
    /// indistinguishable from asking about it: the hook would have
    /// answered [`MacFault::None`] without touching its own state. The
    /// default is every op.
    fn live_ops(&self, stage_index: usize) -> Vec<Range<u64>> {
        let _ = stage_index;
        std::iter::once(0..u64::MAX).collect()
    }
}

/// A hook that never faults (reference behaviour).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl MacHook for NoFaults {
    fn fault(&mut self, _stage: usize, _op: u64, _w: i8, _x: i8) -> MacFault {
        MacFault::None
    }
}

/// A hook applying fixed per-op fault probabilities to every stage —
/// useful for tests and for the paper's "blind attack" baseline arithmetic.
#[derive(Debug, Clone)]
pub struct FixedRateHook<R: Rng> {
    /// Probability of a duplication fault per op.
    pub duplicate: f64,
    /// Probability of a random fault per op.
    pub random: f64,
    /// RNG for sampling.
    pub rng: R,
}

impl<R: Rng> MacHook for FixedRateHook<R> {
    fn fault(&mut self, _stage: usize, _op: u64, _w: i8, _x: i8) -> MacFault {
        let x: f64 = self.rng.gen();
        if x < self.random {
            MacFault::Random
        } else if x < self.random + self.duplicate {
            MacFault::Duplicate
        } else {
            MacFault::None
        }
    }
}

/// The timing of the fabric pooling comparators: single data rate with a
/// short LUT path, so slack is huge and the striker cannot realistically
/// reach its fault threshold (≈ 0.63 V).
pub fn pool_fault_model() -> FaultModel {
    FaultModel::new(
        DspTiming {
            stage_delay_ps: 3000.0,
            budget_ps: 10_000.0,
            window_frac: 0.12,
            jitter_frac: 0.10,
        },
        pdn::delay::DelayModel::default(),
    )
}

/// Counts of faults the executor actually applied during one inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppliedFaults {
    /// Duplication faults applied.
    pub duplicate: u64,
    /// Random faults applied.
    pub random: u64,
}

impl AppliedFaults {
    /// Total faults applied.
    pub fn total(&self) -> u64 {
        self.duplicate + self.random
    }
}

/// Runs one inference with fault injection; returns the final-stage
/// accumulators (full-precision logits) and the applied-fault tally.
///
/// Each DSP stage computes its clean accumulators, then visits only the
/// hook's [live ops](MacHook::live_ops), in op order, adding each fault's
/// correction to the output it lands in. Because a skipped op is one the
/// hook answers with [`MacFault::None`] without drawing, and the i32 sums
/// are exact, the result is bit-identical to consulting the hook on every
/// multiply (the per-MAC [`infer_with_faults_naive`] oracle), including the
/// order of `mac_fault` trace events.
///
/// # Panics
///
/// Panics if `input` does not match the network's input shape.
pub fn infer_with_faults(
    net: &QuantizedNetwork,
    input: &Tensor,
    hook: &mut dyn MacHook,
    rng: &mut impl Rng,
) -> (Vec<i32>, AppliedFaults) {
    let mut map = net.quantize_input(input);
    let mut tally = AppliedFaults::default();
    let last = net.layers().len() - 1;
    for (stage_index, stage) in net.layers().iter().enumerate() {
        let (mut accs, shape, activation, macs) = match stage {
            // Pool comparators do not share the DSP timing; strikes at
            // attack-level droop cannot fault them, so the hook is not
            // consulted (see `pool_fault_model` for the margin).
            QLayer::MaxPool { .. } => {
                map = net.run_stage(stage, &map);
                continue;
            }
            QLayer::Conv(c) => (
                c.accumulate(&map),
                c.output_shape(&map.shape).to_vec(),
                c.activation,
                Macs::conv(c, &map),
            ),
            QLayer::Dense(d) => {
                (d.accumulate(&map), vec![d.outputs], d.activation, Macs::dense(d, &map))
            }
        };
        patch_live_ops(stage_index, &macs, &mut accs, hook, rng, &mut tally);
        if stage_index == last && matches!(stage, QLayer::Dense(_)) {
            return (accs, tally);
        }
        let codes = accs.into_iter().map(|acc| net.activate(acc, activation)).collect();
        map = CodeMap { shape, codes };
    }
    (map.codes.iter().map(|&c| i32::from(c)).collect(), tally)
}

/// DSPs the stage's ops are issued to round-robin; matches
/// [`crate::schedule::AccelConfig::default`]'s `pe_count`. A duplication
/// fault on op `i` re-captures the P register of the PE that issued it,
/// which still holds the clean product of op `i − PE_COUNT` (zero before
/// the PE's first op).
const PE_COUNT: u64 = 8;

/// Operand addressing of one DSP stage's MAC stream, in issue order: the
/// ops of output `o` are consecutive, conv outputs run `oc, oy, ox` and
/// their ops `ic, ky, kx` (innermost last), dense outputs run `o` and
/// their ops `k`.
struct Macs<'a> {
    weights: &'a [i8],
    codes: &'a [i8],
    /// Input-code offset of each of an output's ops, relative to the
    /// output's first input code.
    offsets: Vec<usize>,
    /// Conv geometry: output pixels per channel, output width, input
    /// width. `None` for dense stages.
    conv: Option<(usize, usize, usize)>,
}

impl<'a> Macs<'a> {
    fn conv(c: &'a QConv, input: &'a CodeMap) -> Self {
        let (h, w) = (input.shape[1], input.shape[2]);
        let [_, oh, ow] = c.output_shape(&input.shape);
        let k = c.kernel;
        let offsets = (0..c.in_channels)
            .flat_map(|ic| (0..k).flat_map(move |ky| (0..k).map(move |kx| (ic * h + ky) * w + kx)))
            .collect();
        Macs { weights: &c.weights, codes: &input.codes, offsets, conv: Some((oh * ow, ow, w)) }
    }

    fn dense(d: &'a QDense, input: &'a CodeMap) -> Self {
        Macs {
            weights: &d.weights,
            codes: &input.codes,
            offsets: (0..d.inputs).collect(),
            conv: None,
        }
    }

    /// Ops per output element.
    fn per_output(&self) -> usize {
        self.offsets.len()
    }

    /// Ops in the stage.
    fn ops(&self) -> u64 {
        match self.conv {
            Some((pixels, _, _)) => (self.weights.len() * pixels) as u64,
            None => self.weights.len() as u64,
        }
    }

    /// The weight row and the input codes (from the output's first one)
    /// that output `output`'s ops multiply.
    fn output_operands(&self, output: usize) -> (&'a [i8], &'a [i8]) {
        let per_output = self.per_output();
        let (row, first_code) = match self.conv {
            Some((pixels, ow, w)) => {
                let (oc, pixel) = (output / pixels, output % pixels);
                (oc, pixel / ow * w + pixel % ow)
            }
            None => (output, 0),
        };
        (&self.weights[row * per_output..(row + 1) * per_output], &self.codes[first_code..])
    }

    /// The clean product of op `op`.
    fn product(&self, op: u64) -> i32 {
        let per_output = self.per_output() as u64;
        let (weights, codes) = self.output_operands((op / per_output) as usize);
        let r = (op % per_output) as usize;
        i32::from(weights[r]) * i32::from(codes[self.offsets[r]])
    }

    /// Whether a late product of the `r`-th op of an output still lands in
    /// its sum. Dense stages accumulate serially on one DSP: a late product
    /// lands next cycle ("absorbed by more serial summations"), so only a
    /// duplication at the fetch deadline (the chain's last op) leaves a
    /// stale value. Conv engines sum through adder trees: a late product
    /// misses its slot, so duplication corrupts conv outputs
    /// unconditionally.
    fn absorbs(&self, r: usize) -> bool {
        self.conv.is_none() && r + 1 < self.per_output()
    }
}

/// Visits the hook's live ops of one DSP stage in op order and adds each
/// fault's correction to the accumulator of the output it lands in.
fn patch_live_ops(
    stage_index: usize,
    macs: &Macs<'_>,
    accs: &mut [i32],
    hook: &mut dyn MacHook,
    rng: &mut impl Rng,
    tally: &mut AppliedFaults,
) {
    let per_output = macs.per_output() as u64;
    for range in hook.live_ops(stage_index) {
        let end = range.end.min(macs.ops());
        // Clean products of the range's ops so far, by issuing PE: a
        // duplication re-captures the product of op `i − PE_COUNT`, which
        // is still in here once the range is PE_COUNT ops deep.
        let mut ring = [0i32; PE_COUNT as usize];
        let mut chain_start = range.start;
        while chain_start < end {
            let output = chain_start / per_output;
            let (weights, codes) = macs.output_operands(output as usize);
            let chain_end = end.min((output + 1) * per_output);
            for op in chain_start..chain_end {
                let r = (op - output * per_output) as usize;
                let (weight, activation) = (weights[r], codes[macs.offsets[r]]);
                let product = i32::from(weight) * i32::from(activation);
                let fault = hook.fault(stage_index, op, weight, activation);
                let pe = (op % PE_COUNT) as usize;
                if fault != MacFault::None {
                    let stale = || match op.checked_sub(PE_COUNT) {
                        Some(prev) if prev >= range.start => ring[pe],
                        Some(prev) => macs.product(prev),
                        None => 0,
                    };
                    let faulty = apply_fault(
                        product,
                        fault,
                        macs.absorbs(r),
                        stale,
                        rng,
                        tally,
                        stage_index,
                        op,
                    );
                    accs[output as usize] += faulty - product;
                }
                ring[pe] = product;
            }
            chain_start = chain_end;
        }
    }
}

/// Applies one fault decision to a product inside an accumulation chain
/// and returns the value the accumulator receives.
///
/// Duplication faults are the "result arrives one cycle late" species:
/// an `absorbed` one (see [`Macs::absorbs`]) leaves the sum unharmed,
/// otherwise the PE's `stale` previous product is summed instead. Random
/// faults corrupt unconditionally.
#[allow(clippy::too_many_arguments)]
fn apply_fault(
    product: i32,
    fault: MacFault,
    absorbed: bool,
    stale: impl FnOnce() -> i32,
    rng: &mut impl Rng,
    tally: &mut AppliedFaults,
    stage_index: usize,
    op_index: u64,
) -> i32 {
    if fault != MacFault::None {
        trace::emit(|| trace::Event::MacFault {
            stage: stage_index as u32,
            op: op_index,
            kind: match fault {
                MacFault::Random => trace::FaultKind::Random,
                _ => trace::FaultKind::Duplicate,
            },
        });
    }
    match fault {
        MacFault::None => product,
        MacFault::Duplicate => {
            tally.duplicate += 1;
            if absorbed {
                product
            } else {
                stale()
            }
        }
        MacFault::Random => {
            tally.random += 1;
            product ^ rng.gen_range(1i32..(1 << 16))
        }
    }
}

/// Test oracle for [`infer_with_faults`]: the per-MAC loop nest, which
/// consults the hook on every multiply regardless of
/// [`MacHook::live_ops`] and keeps each PE's last product in a ring.
#[doc(hidden)]
pub fn infer_with_faults_naive(
    net: &QuantizedNetwork,
    input: &Tensor,
    hook: &mut dyn MacHook,
    rng: &mut impl Rng,
) -> (Vec<i32>, AppliedFaults) {
    let mut map = net.quantize_input(input);
    let mut tally = AppliedFaults::default();
    let last = net.layers().len() - 1;
    for (stage_index, stage) in net.layers().iter().enumerate() {
        let mut ring = [0i32; PE_COUNT as usize];
        let mut op = 0u64;
        let mut mac = |product: i32, absorbed: bool, fault: MacFault, op: u64| {
            let stale = std::mem::replace(&mut ring[(op % PE_COUNT) as usize], product);
            apply_fault(product, fault, absorbed, || stale, rng, &mut tally, stage_index, op)
        };
        match stage {
            QLayer::Conv(c) => {
                let (h, w) = (map.shape[1], map.shape[2]);
                let [channels, oh, ow] = c.output_shape(&map.shape);
                let k = c.kernel;
                let mut codes = vec![0i8; channels * oh * ow];
                for oc in 0..channels {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc: i32 = c.bias[oc];
                            for ic in 0..c.in_channels {
                                for ky in 0..k {
                                    for kx in 0..k {
                                        let wv = c.weights
                                            [((oc * c.in_channels + ic) * k + ky) * k + kx];
                                        let xv = map.codes[(ic * h + oy + ky) * w + ox + kx];
                                        let fault = hook.fault(stage_index, op, wv, xv);
                                        acc += mac(i32::from(wv) * i32::from(xv), false, fault, op);
                                        op += 1;
                                    }
                                }
                            }
                            codes[(oc * oh + oy) * ow + ox] = net.activate(acc, c.activation);
                        }
                    }
                }
                map = CodeMap { shape: vec![channels, oh, ow], codes };
            }
            QLayer::MaxPool { .. } => map = net.run_stage(stage, &map),
            QLayer::Dense(d) => {
                let mut accs = vec![0i32; d.outputs];
                for (o, acc_out) in accs.iter_mut().enumerate() {
                    let mut acc: i32 = d.bias[o];
                    let row = &d.weights[o * d.inputs..(o + 1) * d.inputs];
                    for (k, (wv, xv)) in row.iter().zip(&map.codes).enumerate() {
                        let fault = hook.fault(stage_index, op, *wv, *xv);
                        acc += mac(i32::from(*wv) * i32::from(*xv), k + 1 < d.inputs, fault, op);
                        op += 1;
                    }
                    *acc_out = acc;
                }
                if stage_index == last {
                    return (accs, tally);
                }
                let codes = accs.iter().map(|&acc| net.activate(acc, d.activation)).collect();
                map = CodeMap { shape: vec![d.outputs], codes };
            }
        }
    }
    (map.codes.iter().map(|&c| i32::from(c)).collect(), tally)
}

/// Classification with fault injection: argmax of faulty logits.
pub fn predict_with_faults(
    net: &QuantizedNetwork,
    input: &Tensor,
    hook: &mut dyn MacHook,
    rng: &mut impl Rng,
) -> usize {
    argmax(&infer_with_faults(net, input, hook, rng).0)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dnn::fixed::QFormat;
    use dnn::lenet::lenet5;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn qnet(seed: u64) -> QuantizedNetwork {
        let net = lenet5(&mut StdRng::seed_from_u64(seed));
        QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap()
    }

    #[test]
    fn no_faults_matches_reference_bit_for_bit() {
        let q = qnet(3);
        let mut rng = StdRng::seed_from_u64(0);
        for k in 0..5 {
            let x = Tensor::full(&[1, 28, 28], 0.1 + 0.15 * k as f32);
            let (logits, tally) = infer_with_faults(&q, &x, &mut NoFaults, &mut rng);
            assert_eq!(logits, q.infer_logits(&x), "divergence on input {k}");
            assert_eq!(tally.total(), 0);
        }
    }

    #[test]
    fn full_random_faulting_changes_logits() {
        let q = qnet(4);
        let x = Tensor::full(&[1, 28, 28], 0.4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut hook = FixedRateHook { duplicate: 0.0, random: 1.0, rng: StdRng::seed_from_u64(2) };
        let (logits, tally) = infer_with_faults(&q, &x, &mut hook, &mut rng);
        assert_ne!(logits, q.infer_logits(&x));
        assert!(tally.random > 100_000, "every DSP op faulted: {}", tally.random);
        assert_eq!(tally.duplicate, 0);
    }

    #[test]
    fn duplication_is_much_gentler_than_random() {
        // Same fault count, different species: random corrupts logits far
        // more than duplication — the paper's CONV2-vs-FC1 explanation.
        let q = qnet(5);
        let x = Tensor::full(&[1, 28, 28], 0.35);
        let clean = q.infer_logits(&x);
        let l1 = |a: &[i32], b: &[i32]| -> i64 {
            a.iter().zip(b).map(|(x, y)| i64::from((x - y).abs())).sum()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut dup_hook =
            FixedRateHook { duplicate: 0.3, random: 0.0, rng: StdRng::seed_from_u64(4) };
        let (dup_logits, dup_tally) = infer_with_faults(&q, &x, &mut dup_hook, &mut rng);
        let mut rnd_hook =
            FixedRateHook { duplicate: 0.0, random: 0.3, rng: StdRng::seed_from_u64(4) };
        let (rnd_logits, rnd_tally) = infer_with_faults(&q, &x, &mut rnd_hook, &mut rng);
        assert!(dup_tally.duplicate > 0 && rnd_tally.random > 0);
        let dup_err = l1(&dup_logits, &clean);
        let rnd_err = l1(&rnd_logits, &clean);
        assert!(
            rnd_err > dup_err * 3,
            "random error {rnd_err} must dwarf duplication error {dup_err}"
        );
    }

    #[test]
    fn hook_sees_correct_stage_indices_and_op_counts() {
        struct Recorder {
            per_stage: Vec<u64>,
        }
        impl MacHook for Recorder {
            fn fault(&mut self, stage_index: usize, _op: u64, _w: i8, _x: i8) -> MacFault {
                if self.per_stage.len() <= stage_index {
                    self.per_stage.resize(stage_index + 1, 0);
                }
                self.per_stage[stage_index] += 1;
                MacFault::None
            }
        }
        let q = qnet(6);
        let x = Tensor::zeros(&[1, 28, 28]);
        let mut rec = Recorder { per_stage: Vec::new() };
        let mut rng = StdRng::seed_from_u64(0);
        infer_with_faults(&q, &x, &mut rec, &mut rng);
        // Stages: conv1(0), pool1(1, no hook), conv2(2), fc1(3), fc2(4).
        assert_eq!(rec.per_stage.len(), 5);
        assert_eq!(rec.per_stage[0], 6 * 24 * 24 * 25);
        assert_eq!(rec.per_stage[1], 0, "pool never consults the hook");
        assert_eq!(rec.per_stage[2], 16 * 8 * 8 * 150);
        assert_eq!(rec.per_stage[3], 1024 * 120);
        assert_eq!(rec.per_stage[4], 120 * 10);
    }

    #[test]
    fn pool_fault_model_needs_extreme_droop() {
        let m = pool_fault_model();
        assert_eq!(m.probabilities(0.80).total(), 0.0, "striker-level droop is harmless");
        assert!(m.probabilities(0.55).total() > 0.0, "but deep brown-out still faults");
    }

    #[test]
    fn predict_with_faults_matches_reference_when_clean() {
        let q = qnet(7);
        let x = Tensor::full(&[1, 28, 28], 0.25);
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(predict_with_faults(&q, &x, &mut NoFaults, &mut rng), q.predict(&x));
    }
}
