//! End-to-end attack campaign (§III-D summary + §IV evaluation).
//!
//! The three steps of the paper:
//!
//! 1. **Profile** — run the victim while recording the TDC stream, segment
//!    it into layer executions and learn the per-layer signatures
//!    ([`profile_victim`]).
//! 2. **Plan** — pick a target layer; compile an attack scheme whose
//!    *attack delay* spans the time from the detector trigger to the
//!    target layer's start and whose strikes tile the layer's window
//!    ([`plan_attack`]).
//! 3. **Launch** — arm the scheduler, run inferences, and score the
//!    classification accuracy under fault injection ([`evaluate_attack`]).
//!
//! The *blind* baseline (paper Fig. 5b, top curve) sprays the same number
//! of strikes uniformly over the whole inference instead of into the
//! target layer ([`plan_blind`]).

use std::ops::Range;

use accel::executor::{infer_with_faults, infer_with_faults_naive, AppliedFaults, MacHook};
use accel::fault::{FaultModel, MacFault};
use accel::schedule::{LayerWindow, Schedule, StageKind};
use dnn::quant::{argmax, QLayer, QuantizedNetwork};
use dnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cosim::{CloudFpga, InferenceRun};
use crate::error::{DeepStrikeError, Result};
use crate::profile::{segment_trace, SegmenterConfig, SignatureLibrary};
use crate::signal_ram::AttackScheme;

/// TDC samples per victim cycle (200 MHz sensor vs 100 MHz victim clock).
pub const SAMPLES_PER_CYCLE: u64 = 2;

/// What profiling learned about the victim.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimProfile {
    /// Layer signatures keyed by name.
    pub library: SignatureLibrary,
    /// Per-layer `(name, start_cycle, len_cycles)` as seen by the sensor.
    pub layer_windows: Vec<(String, u64, u64)>,
    /// Victim cycle at which the detector is expected to latch.
    pub trigger_cycle: u64,
}

impl VictimProfile {
    /// Window of a named layer.
    pub fn window(&self, name: &str) -> Option<(u64, u64)> {
        self.layer_windows.iter().find(|(n, _, _)| n == name).map(|(_, s, l)| (*s, *l))
    }
}

/// Profiles the victim over `runs` unarmed inferences.
///
/// The attacker knows the architecture *family* it is hunting (the paper's
/// library is "for different types of DNN layers at different sizes"), so
/// segments are labelled by `layer_names` in execution order.
///
/// # Errors
///
/// Returns [`DeepStrikeError::LayerNotFound`] if segmentation does not
/// produce one segment per expected layer.
pub fn profile_victim(
    fpga: &mut CloudFpga,
    layer_names: &[&str],
    runs: usize,
) -> Result<VictimProfile> {
    let traces: Vec<Vec<u8>> = (0..runs.max(1)).map(|_| fpga.run_inference().tdc_trace).collect();
    profile_from_traces(&traces, layer_names)
}

/// Profiles the victim from already-captured TDC traces, one per unarmed
/// inference. This is [`profile_victim`] with the platform access factored
/// out: the remote driver ([`crate::remote`]) streams the same bytes over
/// the UART link and must land on bit-identical windows.
///
/// # Errors
///
/// Returns [`DeepStrikeError::LayerNotFound`] if segmentation does not
/// produce one segment per expected layer, and
/// [`DeepStrikeError::InvalidConfig`] when `traces` is empty.
pub fn profile_from_traces(traces: &[Vec<u8>], layer_names: &[&str]) -> Result<VictimProfile> {
    if traces.is_empty() {
        return Err(DeepStrikeError::InvalidConfig("at least one trace required".into()));
    }
    let mut library = SignatureLibrary::new();
    let mut sums: Vec<(u64, u64)> = vec![(0, 0); layer_names.len()];
    let mut trigger_sum = 0u64;
    let seg_config = SegmenterConfig::default();
    for tdc_trace in traces {
        let segments = segment_trace(tdc_trace, &seg_config);
        if segments.len() != layer_names.len() {
            return Err(DeepStrikeError::LayerNotFound(format!(
                "expected {} execution segments, found {}",
                layer_names.len(),
                segments.len()
            )));
        }
        for (name, seg) in layer_names.iter().zip(&segments) {
            library.learn(name, seg);
        }
        for (i, seg) in segments.iter().enumerate() {
            sums[i].0 += seg.start as u64 / SAMPLES_PER_CYCLE;
            sums[i].1 += seg.len as u64 / SAMPLES_PER_CYCLE;
        }
        // The detector latches `debounce` samples into the first layer.
        trigger_sum += segments[0].start as u64 / SAMPLES_PER_CYCLE + 2;
    }
    let n = traces.len() as u64;
    Ok(VictimProfile {
        library,
        layer_windows: layer_names
            .iter()
            .zip(&sums)
            .map(|(name, &(s, l))| (name.to_string(), s / n, l / n))
            .collect(),
        trigger_cycle: trigger_sum / n,
    })
}

/// Compiles a guided attack scheme: wait from the trigger until `target`
/// starts, then tile its window with `strikes` one-cycle strikes.
///
/// # Errors
///
/// Returns [`DeepStrikeError::LayerNotFound`] for an unknown target, and
/// [`DeepStrikeError::InvalidConfig`] if `strikes` cannot fit the window.
pub fn plan_attack(profile: &VictimProfile, target: &str, strikes: u32) -> Result<AttackScheme> {
    let (start, len) =
        profile.window(target).ok_or_else(|| DeepStrikeError::LayerNotFound(target.to_string()))?;
    if strikes == 0 {
        return Err(DeepStrikeError::InvalidConfig("at least one strike required".into()));
    }
    let delay = start.saturating_sub(profile.trigger_cycle) as u32;
    // One on-cycle plus a gap chosen so the strikes span the window.
    let per_strike = (len / u64::from(strikes)).max(2);
    let gap = (per_strike - 1) as u32;
    if u64::from(strikes) * per_strike > len + per_strike {
        return Err(DeepStrikeError::InvalidConfig(format!(
            "{strikes} strikes cannot fit a {len}-cycle window"
        )));
    }
    let scheme = AttackScheme { delay_cycles: delay, strikes, strike_cycles: 1, gap_cycles: gap };
    emit_planned(&scheme);
    Ok(scheme)
}

fn emit_planned(scheme: &AttackScheme) {
    trace::emit(|| trace::Event::AttackPlanned {
        delay_cycles: u64::from(scheme.delay_cycles),
        strikes: scheme.strikes,
        strike_cycles: scheme.strike_cycles,
        gap_cycles: scheme.gap_cycles,
    });
}

/// Compiles a multi-target program: after the trigger, strike each named
/// layer in turn with its own strike budget ("dynamically target at
/// different DNN layers", §III-D). Targets must be given in execution
/// order.
///
/// # Errors
///
/// Returns [`DeepStrikeError::LayerNotFound`] for unknown targets,
/// [`DeepStrikeError::InvalidConfig`] for zero strikes, out-of-order
/// targets, or budgets that do not fit their windows.
pub fn plan_multi_attack(
    profile: &VictimProfile,
    targets: &[(&str, u32)],
) -> Result<crate::signal_ram::SchemeProgram> {
    if targets.is_empty() {
        return Err(DeepStrikeError::InvalidConfig("at least one target required".into()));
    }
    let mut phases = Vec::with_capacity(targets.len());
    // Each phase's delay counts from the end of the previous phase.
    let mut elapsed = profile.trigger_cycle;
    for &(target, strikes) in targets {
        let (start, len) = profile
            .window(target)
            .ok_or_else(|| DeepStrikeError::LayerNotFound(target.to_string()))?;
        if strikes == 0 {
            return Err(DeepStrikeError::InvalidConfig("at least one strike required".into()));
        }
        // The trigger latches a couple of cycles into the first layer, so
        // tolerate a program that reaches a target slightly late — but not
        // one whose window has mostly passed (out-of-order targets).
        if elapsed > start + len / 2 {
            return Err(DeepStrikeError::InvalidConfig(format!(
                "target {target} starts at cycle {start}, before the program reaches it \
                 (cycle {elapsed}); list targets in execution order"
            )));
        }
        let per_strike = (len / u64::from(strikes)).max(2);
        if u64::from(strikes) * per_strike > len + per_strike {
            return Err(DeepStrikeError::InvalidConfig(format!(
                "{strikes} strikes cannot fit {target}'s {len}-cycle window"
            )));
        }
        let phase = AttackScheme {
            delay_cycles: start.saturating_sub(elapsed) as u32,
            strikes,
            strike_cycles: 1,
            gap_cycles: (per_strike - 1) as u32,
        };
        elapsed += phase.total_bits() as u64;
        emit_planned(&phase);
        phases.push(phase);
    }
    Ok(crate::signal_ram::SchemeProgram::new(phases))
}

/// The blind baseline: the same strike count spread over the entire
/// inference, launched immediately (no TDC guidance).
pub fn plan_blind(schedule: &Schedule, strikes: u32) -> AttackScheme {
    plan_blind_cycles(schedule.total_cycles(), strikes)
}

/// [`plan_blind`] against a *cycle estimate* instead of the real schedule —
/// what a remote attacker who never managed to profile must fall back to
/// (it only knows roughly how long an inference lasts).
pub fn plan_blind_cycles(total_cycles: u64, strikes: u32) -> AttackScheme {
    let per_strike = (total_cycles / u64::from(strikes.max(1))).max(2);
    let scheme = AttackScheme {
        delay_cycles: 0,
        strikes,
        strike_cycles: 1,
        gap_cycles: (per_strike - 1) as u32,
    };
    emit_planned(&scheme);
    scheme
}

/// What one recorded run can do to the victim's MACs, priced once per
/// scoring call and shared by every image's [`StrikeHook`].
///
/// An op whose in-flight window cannot violate timing — capture voltage at
/// or above [`FaultModel::safe_voltage`] and the flight minimum at or above
/// the early stage's — is answered [`MacFault::None`] without a draw. The
/// plan marks the other cycles *hot* and keeps their two delay factors, so
/// sampling evaluates the voltage→delay law once per cycle, not per op.
/// The ops of DSP stages that fall in hot cycles are the *live* ops: the
/// only ones [`infer_with_faults`] asks the hook about. Live ops after the
/// last one that can fault at all (see [`FaultModel::may_fault`]) are cut:
/// their draws would never be read.
#[derive(Debug)]
pub struct FaultPlan<'a> {
    schedule: &'a Schedule,
    fault_model: FaultModel,
    /// The hot cycles, in cycle order.
    hot: Vec<HotCycle>,
    /// Per network stage: merged live op ranges in op order.
    live: Vec<Vec<Range<u64>>>,
}

/// A victim cycle whose ops can violate timing, with the delay factors of
/// its capture voltage and in-flight minimum.
#[derive(Debug)]
struct HotCycle {
    cycle: u64,
    capture: f64,
    early: f64,
}

impl<'a> FaultPlan<'a> {
    /// Prices the recorded run `run` of `net` under `schedule`.
    pub fn new(
        net: &QuantizedNetwork,
        schedule: &'a Schedule,
        run: &InferenceRun,
        fault_model: FaultModel,
    ) -> Self {
        let latency = StrikeHook::LATENCY;
        let safe_voltage = fault_model.safe_voltage();
        let early_safe_voltage = fault_model.early_stage().safe_voltage();
        let delay = fault_model.delay();
        let volts = &run.victim_voltage;
        let hot: Vec<HotCycle> = (0..volts.len())
            .filter_map(|c| {
                let v_capture = volts[(c + latency as usize).min(volts.len() - 1)];
                let v_min = run.min_voltage_in_flight(c as u64, latency);
                // Fast path: nothing in the op's flight can violate timing.
                let safe = v_capture >= safe_voltage && v_min >= early_safe_voltage;
                (!safe).then(|| HotCycle {
                    cycle: c as u64,
                    capture: delay.factor(v_capture),
                    early: delay.factor(v_min),
                })
            })
            .collect();
        // The windows of the stages the executor consults the hook for,
        // with each one's hot cycles and largest path scale.
        let stages: Vec<Option<(&LayerWindow, &[HotCycle], f64)>> = net
            .layers()
            .iter()
            .enumerate()
            .map(|(stage, layer)| {
                let window = match (layer, schedule.windows().get(stage)) {
                    (QLayer::Conv(_) | QLayer::Dense(_), Some(window)) => window,
                    _ => return None,
                };
                let first = hot.partition_point(|h| h.cycle < window.start_cycle);
                let end = hot.partition_point(|h| h.cycle < window.end_cycle());
                let max_scale = match window.kind {
                    StageKind::Dense => StrikeHook::DENSE_PATH_SCALE,
                    _ => 1.0,
                };
                Some((window, &hot[first..end], max_scale))
            })
            .collect();
        // Draws after the last hot cycle where some op can fault are never
        // read: that is where the live ops end.
        let cut = stages.iter().enumerate().rev().find_map(|(stage, entry)| {
            let (_, cycles, max_scale) = (*entry)?;
            let last = cycles
                .iter()
                .rev()
                .find(|h| fault_model.may_fault(h.capture, h.early, max_scale))?;
            Some((stage, last.cycle))
        });
        let live = stages
            .iter()
            .enumerate()
            .map(|(stage, entry)| {
                let mut merged: Vec<Range<u64>> = Vec::new();
                let (Some((window, cycles, _)), Some((cut_stage, cut_cycle))) = (entry, cut) else {
                    return merged;
                };
                if stage > cut_stage {
                    return merged;
                }
                for h in cycles.iter().take_while(|h| stage < cut_stage || h.cycle <= cut_cycle) {
                    let ops = ops_in_cycle(window, h.cycle);
                    match merged.last_mut() {
                        Some(prev) if prev.end == ops.start => prev.end = ops.end,
                        _ if ops.is_empty() => {}
                        _ => merged.push(ops),
                    }
                }
                merged
            })
            .collect();
        FaultPlan { schedule, fault_model, hot, live }
    }

    /// Live op ranges of stage `stage_index` (empty for pooling stages).
    fn live_ops(&self, stage_index: usize) -> &[Range<u64>] {
        self.live.get(stage_index).map_or(&[], Vec::as_slice)
    }

    /// Whether no op can fault: every image then scores its clean verdict
    /// with zero faults.
    pub fn is_inert(&self) -> bool {
        self.live.iter().all(Vec::is_empty)
    }

    /// `(capture, early)` delay factors of `cycle` if it is hot.
    fn factors(&self, cycle: u64) -> Option<(f64, f64)> {
        let i = self.hot.binary_search_by_key(&cycle, |h| h.cycle).ok()?;
        Some((self.hot[i].capture, self.hot[i].early))
    }
}

/// The ops of `window` that execute in `cycle` (see
/// [`LayerWindow::cycle_of_op`]): op `i` runs at
/// `start + ⌊i·cycles/ops⌋`, so relative cycle `r` holds ops
/// `⌈r·ops/cycles⌉ .. ⌈(r+1)·ops/cycles⌉`.
fn ops_in_cycle(window: &LayerWindow, cycle: u64) -> Range<u64> {
    let first = |r: u64| (r * window.ops).div_ceil(window.cycles).min(window.ops);
    let r = cycle - window.start_cycle;
    first(r)..first(r + 1)
}

/// A [`MacHook`] that turns a [`FaultPlan`] into per-op fault decisions:
/// an op faults according to the worst rail voltage it would have seen
/// while in flight. Each image gets its own hook, seeded per image.
#[derive(Debug)]
pub struct StrikeHook<'a> {
    plan: &'a FaultPlan<'a>,
    rng: StdRng,
    /// Stage, op range and hot-cycle factors of the cycle last looked up:
    /// the ops of one cycle arrive together, so only the first of them
    /// pays for the op → cycle division and the hot-cycle search.
    last_cycle: (usize, Range<u64>, Option<(f64, f64)>),
}

impl<'a> StrikeHook<'a> {
    /// DSP pipeline latency assumed for the in-flight window, in cycles.
    pub const LATENCY: u64 = 5;

    /// Path-length scale of accumulate-dominated (dense) DSP ops.
    pub const DENSE_PATH_SCALE: f64 = 0.85;

    /// A hook sampling `plan` with its own `seed`.
    pub fn new(plan: &'a FaultPlan<'a>, seed: u64) -> Self {
        StrikeHook { plan, rng: StdRng::seed_from_u64(seed), last_cycle: (usize::MAX, 0..0, None) }
    }
}

impl MacHook for StrikeHook<'_> {
    fn fault(&mut self, stage_index: usize, op_index: u64, weight: i8, activation: i8) -> MacFault {
        let Some(window) = self.plan.schedule.windows().get(stage_index) else {
            return MacFault::None;
        };
        if op_index >= window.ops {
            return MacFault::None;
        }
        if self.last_cycle.0 != stage_index || !self.last_cycle.1.contains(&op_index) {
            let cycle = window.cycle_of_op(op_index);
            self.last_cycle = (stage_index, ops_in_cycle(window, cycle), self.plan.factors(cycle));
        }
        let Some((capture, early)) = self.last_cycle.2 else {
            return MacFault::None;
        };
        let scale = strike_path_scale(window.kind, weight, activation);
        self.plan.fault_model.sample_pipelined_factors(capture, early, scale, &mut self.rng)
    }

    fn live_ops(&self, stage_index: usize) -> Vec<Range<u64>> {
        self.plan.live_ops(stage_index).to_vec()
    }
}

/// Convolution ops exercise the full multiplier array (path length grows
/// with the product width); fully connected stages are
/// accumulate-dominated — "only adds k×k prior multiplication results"
/// (§IV) — so their critical path is the short ALU add.
fn strike_path_scale(kind: StageKind, weight: i8, activation: i8) -> f64 {
    match kind {
        StageKind::Dense => StrikeHook::DENSE_PATH_SCALE,
        _ => FaultModel::path_scale(i32::from(weight) * i32::from(activation)),
    }
}

/// The per-MAC reference of [`StrikeHook`]: builds its voltage tables
/// from the run and prices every op from scratch. Drives the
/// [`evaluate_attack_naive`] oracle.
struct ReferenceHook<'a> {
    schedule: &'a Schedule,
    capture_voltage: Vec<f64>,
    in_flight_voltage: Vec<f64>,
    fault_model: FaultModel,
    safe_voltage: f64,
    early_safe_voltage: f64,
    rng: StdRng,
}

impl<'a> ReferenceHook<'a> {
    fn new(schedule: &'a Schedule, run: &InferenceRun, fault_model: FaultModel, seed: u64) -> Self {
        let n = run.victim_voltage.len();
        let latency = StrikeHook::LATENCY;
        ReferenceHook {
            schedule,
            capture_voltage: (0..n)
                .map(|c| run.victim_voltage[(c + latency as usize).min(n.saturating_sub(1))])
                .collect(),
            in_flight_voltage: (0..n as u64)
                .map(|c| run.min_voltage_in_flight(c, latency))
                .collect(),
            fault_model,
            safe_voltage: fault_model.safe_voltage(),
            early_safe_voltage: fault_model.early_stage().safe_voltage(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl MacHook for ReferenceHook<'_> {
    fn fault(&mut self, stage_index: usize, op_index: u64, weight: i8, activation: i8) -> MacFault {
        let Some(window) = self.schedule.windows().get(stage_index) else {
            return MacFault::None;
        };
        if op_index >= window.ops {
            return MacFault::None;
        }
        let cycle = window.cycle_of_op(op_index) as usize;
        let (v_capture, v_min) =
            match (self.capture_voltage.get(cycle), self.in_flight_voltage.get(cycle)) {
                (Some(&a), Some(&b)) => (a, b),
                _ => return MacFault::None,
            };
        if v_capture >= self.safe_voltage && v_min >= self.early_safe_voltage {
            return MacFault::None;
        }
        let scale = strike_path_scale(window.kind, weight, activation);
        self.fault_model.sample_pipelined_scaled(v_capture, v_min, scale, &mut self.rng)
    }
}

/// Outcome of one attack evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackOutcome {
    /// Accuracy of the untampered deployment on the same images.
    pub clean_accuracy: f64,
    /// Accuracy under the attack.
    pub attacked_accuracy: f64,
    /// Strikes actually fired during the recorded run.
    pub strikes_fired: usize,
    /// Mean MAC faults applied per image.
    pub mean_faults_per_image: f64,
    /// Mean duplication faults per image.
    pub mean_duplicate_per_image: f64,
    /// Mean random faults per image.
    pub mean_random_per_image: f64,
}

impl AttackOutcome {
    /// Accuracy lost to the attack, in percentage points.
    pub fn accuracy_drop(&self) -> f64 {
        (self.clean_accuracy - self.attacked_accuracy) * 100.0
    }
}

/// Scores an attack: runs the recorded fault pattern over a test set.
///
/// The recorded run's voltage waveform is input-independent (the
/// accelerator's schedule is static), so one co-simulated run prices the
/// fault distribution — a [`FaultPlan`], built once per call — and each
/// image samples it independently (DESIGN.md §4). When the plan has no
/// live op, every image keeps its clean verdict with zero faults.
///
/// Images are scored on the [`par`] worker pool: image `i`'s random
/// faults draw from an `StdRng` seeded by `par::seed_for(seed ^ 0xD5, i)`
/// and its [`StrikeHook`] samples from one seeded by `seed + i`, so the
/// outcome is a pure function of `(inputs, seed)` — bit-identical at any
/// thread count, including `DEEPSTRIKE_THREADS=1`.
pub fn evaluate_attack<'a>(
    net: &QuantizedNetwork,
    schedule: &Schedule,
    run: &InferenceRun,
    samples: impl Iterator<Item = (&'a Tensor, usize)>,
    fault_model: FaultModel,
    seed: u64,
) -> AttackOutcome {
    evaluate_attack_impl(net, schedule, run, &samples.collect::<Vec<_>>(), fault_model, seed, None)
}

/// Precomputes the per-image clean verdicts `evaluate_attack` derives
/// internally (`net.predict(x) == y`). The clean pass is candidate-
/// independent, so a campaign sweeping hundreds of schemes over one test
/// set computes it once and passes it to
/// [`evaluate_attack_cached`], which then scores bit-identically to
/// [`evaluate_attack`] while skipping the redundant clean inference per
/// image per candidate.
pub fn clean_predictions<'a>(
    net: &QuantizedNetwork,
    samples: impl Iterator<Item = (&'a Tensor, usize)>,
) -> Vec<bool> {
    let samples: Vec<(&Tensor, usize)> = samples.collect();
    par::map_items(&samples, |&(x, y)| net.predict(x) == y)
}

/// [`evaluate_attack`] with the clean verdicts precomputed by
/// [`clean_predictions`] over the *same* samples in the same order.
/// Bit-identical to the uncached path: the verdicts are deterministic
/// booleans, so substituting them changes no sampled value.
pub fn evaluate_attack_cached<'a>(
    net: &QuantizedNetwork,
    schedule: &Schedule,
    run: &InferenceRun,
    samples: impl Iterator<Item = (&'a Tensor, usize)>,
    fault_model: FaultModel,
    seed: u64,
    clean: &[bool],
) -> AttackOutcome {
    let samples: Vec<(&Tensor, usize)> = samples.collect();
    assert_eq!(samples.len(), clean.len(), "clean verdicts must cover the sample set");
    evaluate_attack_impl(net, schedule, run, &samples, fault_model, seed, Some(clean))
}

fn evaluate_attack_impl(
    net: &QuantizedNetwork,
    schedule: &Schedule,
    run: &InferenceRun,
    samples: &[(&Tensor, usize)],
    fault_model: FaultModel,
    seed: u64,
    clean: Option<&[bool]>,
) -> AttackOutcome {
    let plan = FaultPlan::new(net, schedule, run, fault_model);
    score_images(run, samples.len(), seed, |i, rng| {
        let (x, y) = samples[i];
        let attacked = (!plan.is_inert()).then(|| {
            let mut hook = StrikeHook::new(&plan, seed.wrapping_add(i as u64));
            let (logits, tally) = infer_with_faults(net, x, &mut hook, rng);
            (argmax(&logits) == y, tally)
        });
        let clean_ok = match clean {
            Some(c) => c[i],
            None => net.predict(x) == y,
        };
        let (attacked_ok, tally) = attacked.unwrap_or((clean_ok, AppliedFaults::default()));
        (clean_ok, attacked_ok, tally)
    })
}

/// Test oracle for [`evaluate_attack`]: scores every image through the
/// per-MAC [`infer_with_faults_naive`] loop with a hook that builds its
/// voltage tables per image and prices every op from scratch — no plan,
/// no live ops, no inert shortcut. Same seeding, same trace events.
#[doc(hidden)]
pub fn evaluate_attack_naive<'a>(
    net: &QuantizedNetwork,
    schedule: &Schedule,
    run: &InferenceRun,
    samples: impl Iterator<Item = (&'a Tensor, usize)>,
    fault_model: FaultModel,
    seed: u64,
) -> AttackOutcome {
    let samples: Vec<(&Tensor, usize)> = samples.collect();
    score_images(run, samples.len(), seed, |i, rng| {
        let (x, y) = samples[i];
        let mut hook = ReferenceHook::new(schedule, run, fault_model, seed.wrapping_add(i as u64));
        let (logits, tally) = infer_with_faults_naive(net, x, &mut hook, rng);
        let attacked_ok = argmax(&logits) == y;
        (net.predict(x) == y, attacked_ok, tally)
    })
}

/// Scores `n` images on the [`par`] pool — `image(i, rng)` returns image
/// `i`'s clean and attacked verdicts and fault tally — emitting one
/// `image_scored` event each, and averages them into an outcome.
fn score_images(
    run: &InferenceRun,
    n: usize,
    seed: u64,
    image: impl Fn(usize, &mut StdRng) -> (bool, bool, AppliedFaults) + Sync,
) -> AttackOutcome {
    let scores = par::map_seeded(n, seed ^ 0xD5, |i, rng| {
        let (clean_ok, attacked_ok, tally) = image(i, rng);
        trace::emit(|| trace::Event::ImageScored {
            index: i as u64,
            clean_ok,
            attacked_ok,
            duplicate: tally.duplicate,
            random: tally.random,
        });
        (clean_ok, attacked_ok, tally)
    });
    let clean_correct = scores.iter().filter(|s| s.0).count();
    let attacked_correct = scores.iter().filter(|s| s.1).count();
    let dup_sum: u64 = scores.iter().map(|s| s.2.duplicate).sum();
    let rand_sum: u64 = scores.iter().map(|s| s.2.random).sum();
    let denom = n.max(1) as f64;
    AttackOutcome {
        clean_accuracy: clean_correct as f64 / denom,
        attacked_accuracy: attacked_correct as f64 / denom,
        strikes_fired: run.strike_cycles.len(),
        mean_faults_per_image: (dup_sum + rand_sum) as f64 / denom,
        mean_duplicate_per_image: dup_sum as f64 / denom,
        mean_random_per_image: rand_sum as f64 / denom,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cosim::CosimConfig;
    use accel::schedule::AccelConfig;
    use dnn::digits::{Dataset, RenderParams};
    use dnn::fixed::QFormat;
    use dnn::zoo::mlp;
    use rand::rngs::StdRng;

    fn small_victim() -> QuantizedNetwork {
        let net = mlp(&mut StdRng::seed_from_u64(0));
        QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap()
    }

    fn accel_config() -> AccelConfig {
        AccelConfig { weight_bandwidth: 16, stall_cycles: 150, ..AccelConfig::default() }
    }

    fn platform(cells: usize, q: &QuantizedNetwork) -> CloudFpga {
        let mut fpga = CloudFpga::new(
            q,
            &accel_config(),
            cells,
            CosimConfig { pdn_substeps: 4, ..CosimConfig::default() },
        )
        .unwrap();
        fpga.settle(50);
        fpga
    }

    #[test]
    fn profiling_finds_all_dense_layers() {
        let q = small_victim();
        let mut fpga = platform(8_000, &q);
        let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 2).unwrap();
        assert_eq!(profile.layer_windows.len(), 3);
        let (s1, l1) = profile.window("fc1").unwrap();
        let w1 = fpga.schedule().window("fc1").unwrap();
        // Sensor-side estimate within 15% of ground truth.
        assert!(
            (s1 as f64 - w1.start_cycle as f64).abs() < 0.15 * w1.start_cycle as f64 + 40.0,
            "start estimate {s1} vs truth {}",
            w1.start_cycle
        );
        assert!(
            (l1 as f64 - w1.cycles as f64).abs() < 0.25 * w1.cycles as f64,
            "length estimate {l1} vs truth {}",
            w1.cycles
        );
        assert!(profile.trigger_cycle >= w1.start_cycle.saturating_sub(40));
        assert!(profile.library.signature("fc1").unwrap().observations == 2);
    }

    #[test]
    fn wrong_layer_count_is_reported() {
        let q = small_victim();
        let mut fpga = platform(8_000, &q);
        let err = profile_victim(&mut fpga, &["a", "b", "c", "d", "e"], 1).unwrap_err();
        assert!(matches!(err, DeepStrikeError::LayerNotFound(_)));
    }

    #[test]
    fn plan_places_strikes_inside_the_target_window() {
        let q = small_victim();
        let mut fpga = platform(10_000, &q);
        let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 1).unwrap();
        let scheme = plan_attack(&profile, "fc1", 40).unwrap();
        fpga.scheduler_mut().load_scheme(&scheme).unwrap();
        fpga.scheduler_mut().arm(true).unwrap();
        let run = fpga.run_inference();
        assert_eq!(run.strike_cycles.len(), 40);
        let w = fpga.schedule().window("fc1").unwrap();
        let inside =
            run.strike_cycles.iter().filter(|&&c| c >= w.start_cycle && c < w.end_cycle()).count();
        assert!(
            inside as f64 >= 0.8 * 40.0,
            "only {inside}/40 strikes landed in fc1 ({}..{})",
            w.start_cycle,
            w.end_cycle()
        );
    }

    #[test]
    fn plan_rejects_bad_targets() {
        let profile = VictimProfile {
            library: SignatureLibrary::new(),
            layer_windows: vec![("fc1".into(), 100, 50)],
            trigger_cycle: 90,
        };
        assert!(matches!(
            plan_attack(&profile, "nope", 10),
            Err(DeepStrikeError::LayerNotFound(_))
        ));
        assert!(plan_attack(&profile, "fc1", 0).is_err());
        assert!(plan_attack(&profile, "fc1", 500).is_err(), "window too small");
    }

    #[test]
    fn guided_strikes_concentrate_where_blind_strikes_scatter() {
        // Target the *small* fc2 window: TDC guidance lands nearly every
        // strike inside it, while the blind spray mostly misses — the
        // mechanism behind Fig. 5b's guided-vs-blind gap. (The accuracy
        // impact comparison runs on LeNet in the fig5b bench, where the
        // target layer is a minority of the runtime.)
        let q = small_victim();
        let strikes = 50u32;

        let mut fpga = platform(14_000, &q);
        let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 1).unwrap();
        let scheme = plan_attack(&profile, "fc2", strikes).unwrap();
        fpga.scheduler_mut().load_scheme(&scheme).unwrap();
        fpga.scheduler_mut().arm(true).unwrap();
        let guided_run = fpga.run_inference();

        let mut fpga_b = platform(14_000, &q);
        let blind_scheme = plan_blind(fpga_b.schedule(), strikes);
        fpga_b.scheduler_mut().load_scheme(&blind_scheme).unwrap();
        fpga_b.scheduler_mut().arm(true).unwrap();
        fpga_b.scheduler_mut().force_start();
        let blind_run = fpga_b.run_inference();

        let w = fpga.schedule().window("fc2").unwrap().clone();
        let inside = |cycles: &[u64]| {
            cycles.iter().filter(|&&c| c >= w.start_cycle && c < w.end_cycle()).count() as f64
                / cycles.len().max(1) as f64
        };
        let guided_frac = inside(&guided_run.strike_cycles);
        let blind_frac = inside(&blind_run.strike_cycles);
        assert!(guided_frac > 0.7, "guided hit rate {guided_frac}");
        assert!(blind_frac < 0.3, "blind hit rate {blind_frac}");
        assert!(!blind_run.strike_cycles.is_empty(), "blind must actually strike");

        // And the guided strikes actually cause faults in the evaluation.
        let mut rng = StdRng::seed_from_u64(77);
        let images = Dataset::generate(80, &RenderParams::default(), &mut rng);
        let guided = evaluate_attack(
            &q,
            fpga.schedule(),
            &guided_run,
            images.iter(),
            FaultModel::paper(),
            1,
        );
        // The victim here is an *untrained* random MLP (clean accuracy sits
        // at the 10-class chance level), so "attacked ≤ clean" would be a
        // coin flip — the accuracy-drop claim is tested on trained LeNet in
        // the fig5b bench. What must hold here: guided strikes fault the
        // target layer heavily, and the faulted accuracy stays at chance.
        assert!(
            guided.mean_faults_per_image > 10.0,
            "guided strikes must fault the window heavily: {} faults/img",
            guided.mean_faults_per_image
        );
        assert!(
            guided.attacked_accuracy < 0.35,
            "faulted random net must stay near chance: {}",
            guided.attacked_accuracy
        );
    }

    #[test]
    fn multi_target_program_strikes_both_layers() {
        let q = small_victim();
        let mut fpga = platform(12_000, &q);
        let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 1).unwrap();
        let program = plan_multi_attack(&profile, &[("fc1", 30), ("fc3", 5)]).unwrap();
        assert_eq!(program.total_strikes(), 35);
        fpga.scheduler_mut().load_program(&program).unwrap();
        fpga.scheduler_mut().arm(true).unwrap();
        let run = fpga.run_inference();
        assert_eq!(run.strike_cycles.len(), 35);
        let w1 = fpga.schedule().window("fc1").unwrap().clone();
        let w3 = fpga.schedule().window("fc3").unwrap().clone();
        let in1 = run.strike_cycles.iter().filter(|&&c| w1.contains(c)).count();
        let in3 = run.strike_cycles.iter().filter(|&&c| w3.contains(c)).count();
        assert!(in1 >= 24, "fc1 phase landed {in1}/30");
        assert!(in3 >= 3, "fc3 phase landed {in3}/5");
    }

    #[test]
    fn multi_target_rejects_out_of_order_and_unknown() {
        let profile = VictimProfile {
            library: SignatureLibrary::new(),
            layer_windows: vec![("a".into(), 100, 50), ("b".into(), 300, 50)],
            trigger_cycle: 90,
        };
        assert!(plan_multi_attack(&profile, &[]).is_err());
        assert!(plan_multi_attack(&profile, &[("zz", 1)]).is_err());
        assert!(
            plan_multi_attack(&profile, &[("b", 5), ("a", 5)]).is_err(),
            "out-of-order targets must be rejected"
        );
        assert!(plan_multi_attack(&profile, &[("a", 5), ("b", 5)]).is_ok());
        assert!(plan_multi_attack(&profile, &[("a", 0)]).is_err());
    }

    #[test]
    fn ops_in_cycle_inverts_cycle_of_op() {
        for (cycles, ops) in [(1, 1), (3, 10), (10, 3), (7, 7), (13, 1_000), (5_400, 86_400)] {
            let window = LayerWindow {
                name: "w".into(),
                kind: StageKind::Conv,
                start_cycle: 40,
                cycles,
                ops,
                outputs: 1,
            };
            let mut next = 0;
            for cycle in window.start_cycle..window.end_cycle() {
                let range = ops_in_cycle(&window, cycle);
                assert_eq!(range.start, next, "cycles {cycles}, ops {ops}");
                assert!(range.clone().all(|op| window.cycle_of_op(op) == cycle));
                next = range.end;
            }
            assert_eq!(next, ops, "every op lands in exactly one cycle");
        }
    }

    /// A run held at `v` for its whole length.
    fn flat_run(schedule: &Schedule, v: f64) -> InferenceRun {
        InferenceRun {
            tdc_trace: Vec::new(),
            victim_voltage: vec![v; schedule.total_cycles() as usize],
            strike_cycles: Vec::new(),
            triggered_cycle: None,
            final_temp_c: 25.0,
        }
    }

    #[test]
    fn droop_that_only_conv_ops_feel_leaves_a_dense_victim_inert() {
        let q = small_victim();
        let schedule = Schedule::for_network(&q, &accel_config());
        let model = FaultModel::paper();
        // Bisect for the voltage whose delay factor is 1.45: full-scale
        // (conv) ops can fault there, dense ops (path scale 0.85) cannot.
        let (mut lo, mut hi) = (0.5, 1.0);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if model.delay().factor(mid) > 1.45 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (factor, deeper) = (model.delay().factor(hi), model.delay().factor(hi - 0.1));
        assert!(model.may_fault(factor, factor, 1.0));
        assert!(!model.may_fault(factor, factor, StrikeHook::DENSE_PATH_SCALE));
        assert!(model.may_fault(deeper, deeper, StrikeHook::DENSE_PATH_SCALE));

        let mut rng = StdRng::seed_from_u64(3);
        let images = Dataset::generate(6, &RenderParams::default(), &mut rng);
        for (v, inert) in [(1.0, true), (hi, true), (hi - 0.1, false)] {
            let run = flat_run(&schedule, v);
            let plan = FaultPlan::new(&q, &schedule, &run, model);
            assert_eq!(plan.is_inert(), inert, "v {v}");
            let fast = evaluate_attack(&q, &schedule, &run, images.iter(), model, 9);
            let naive = evaluate_attack_naive(&q, &schedule, &run, images.iter(), model, 9);
            assert_eq!(fast, naive, "v {v}");
            assert_eq!(fast.mean_faults_per_image == 0.0, inert, "v {v}");
        }
    }

    #[test]
    fn outcome_accuracy_drop() {
        let o = AttackOutcome {
            clean_accuracy: 0.96,
            attacked_accuracy: 0.82,
            strikes_fired: 100,
            mean_faults_per_image: 5.0,
            mean_duplicate_per_image: 4.0,
            mean_random_per_image: 1.0,
        };
        assert!((o.accuracy_drop() - 14.0).abs() < 1e-9);
    }
}
