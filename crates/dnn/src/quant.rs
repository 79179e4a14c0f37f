//! Post-training quantisation and integer reference inference.
//!
//! Deployment follows the paper: parameters and activations are 8-bit
//! fixed point ([`QFormat::paper`]); MAC accumulation happens on the raw
//! integer codes exactly as a DSP48 does it, so the `accel` crate can
//! re-execute the same arithmetic cycle by cycle with fault hooks and a
//! fault-free run provably agrees with the reference here.
//!
//! Scale conventions (for the 5-fraction-bit format):
//!
//! * activation/weight codes are `i8` with value `code / 32`;
//! * products and accumulators are `i32` at scale `1/1024` (Q·10);
//! * biases are pre-scaled to the accumulator scale;
//! * `tanh` is applied on the dequantised accumulator and re-quantised —
//!   on the FPGA this is a block-RAM lookup table, with identical results.

use crate::fixed::QFormat;
use crate::layers::LayerKind;
use crate::network::Sequential;
use crate::tensor::Tensor;

use std::error::Error;
use std::fmt;

/// Errors from quantised-model construction and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuantError {
    /// The float network has a structure the quantiser cannot map.
    UnsupportedStructure(String),
    /// Encoded model bytes are truncated or malformed.
    MalformedModel(String),
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::UnsupportedStructure(msg) => write!(f, "unsupported structure: {msg}"),
            QuantError::MalformedModel(msg) => write!(f, "malformed model: {msg}"),
        }
    }
}

impl Error for QuantError {}

/// Whether a compute stage applies `tanh` to its accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Re-quantised `tanh` (hidden stages).
    Tanh,
    /// Raw accumulator passes through as a logit (final stage).
    None,
}

/// A quantised convolution stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QConv {
    /// Stage name (e.g. `conv1`).
    pub name: String,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel side.
    pub kernel: usize,
    /// Weight codes, layout `[out, in, k, k]` row-major.
    pub weights: Vec<i8>,
    /// Bias at accumulator scale, one per output channel.
    pub bias: Vec<i32>,
    /// Activation applied to each accumulator.
    pub activation: Activation,
}

/// A quantised fully connected stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QDense {
    /// Stage name (e.g. `fc1`).
    pub name: String,
    /// Flattened input size.
    pub inputs: usize,
    /// Output size.
    pub outputs: usize,
    /// Weight codes, layout `[out, in]` row-major.
    pub weights: Vec<i8>,
    /// Bias at accumulator scale.
    pub bias: Vec<i32>,
    /// Activation applied to each accumulator.
    pub activation: Activation,
}

/// One stage of the quantised pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QLayer {
    /// Convolution (+ optional tanh).
    Conv(QConv),
    /// Non-overlapping max pooling on codes.
    MaxPool {
        /// Stage name (e.g. `pool1`).
        name: String,
        /// Window side.
        window: usize,
    },
    /// Fully connected (+ optional tanh).
    Dense(QDense),
}

impl QLayer {
    /// Stage name.
    pub fn name(&self) -> &str {
        match self {
            QLayer::Conv(c) => &c.name,
            QLayer::MaxPool { name, .. } => name,
            QLayer::Dense(d) => &d.name,
        }
    }
}

impl QConv {
    /// Output shape `[out_channels, oh, ow]` for an input map of shape
    /// `[in_channels, h, w]` (valid convolution, stride 1).
    pub fn output_shape(&self, input_shape: &[usize]) -> [usize; 3] {
        let (h, w) = (input_shape[1], input_shape[2]);
        [self.out_channels, h - self.kernel + 1, w - self.kernel + 1]
    }

    /// Pre-activation accumulators (bias plus every product), layout
    /// `[out, oh, ow]` row-major.
    ///
    /// Weight-stationary: each weight is broadcast over a whole output
    /// row at a time, so the inner loop is a contiguous, vectorisable
    /// multiply-add. Integer sums are exact, so the result equals the
    /// per-output loop nest's (the fault-injecting executor's oracle).
    ///
    /// # Panics
    ///
    /// Panics if `input` does not have `in_channels` channels.
    pub fn accumulate(&self, input: &CodeMap) -> Vec<i32> {
        assert_eq!(input.shape[0], self.in_channels, "conv input channels");
        let (h, w) = (input.shape[1], input.shape[2]);
        let [_, oh, ow] = self.output_shape(&input.shape);
        let k = self.kernel;
        let mut accs: Vec<i32> =
            self.bias.iter().flat_map(|&b| std::iter::repeat_n(b, oh * ow)).collect();
        let taps = self.in_channels * k * k;
        for (plane, kernel) in accs.chunks_exact_mut(oh * ow).zip(self.weights.chunks_exact(taps)) {
            for (tap, &wv) in kernel.iter().enumerate() {
                let (ic, ky, kx) = (tap / (k * k), tap / k % k, tap % k);
                let wv = i32::from(wv);
                for (oy, out_row) in plane.chunks_exact_mut(ow).enumerate() {
                    let in_row = &input.codes[(ic * h + oy + ky) * w + kx..][..ow];
                    for (acc, &xv) in out_row.iter_mut().zip(in_row) {
                        *acc += wv * i32::from(xv);
                    }
                }
            }
        }
        accs
    }
}

impl QDense {
    /// Pre-activation accumulators (bias plus every product).
    ///
    /// # Panics
    ///
    /// Panics if `input` does not hold `inputs` codes.
    pub fn accumulate(&self, input: &CodeMap) -> Vec<i32> {
        assert_eq!(input.codes.len(), self.inputs, "dense input size");
        (0..self.outputs)
            .map(|o| {
                let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
                row.iter()
                    .zip(&input.codes)
                    .fold(self.bias[o], |acc, (wv, xv)| acc + i32::from(*wv) * i32::from(*xv))
            })
            .collect()
    }
}

/// Index of the largest logit; ties go to the lowest index.
///
/// # Panics
///
/// Panics if `logits` is empty.
pub fn argmax(logits: &[i32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by_key(|(i, &v)| (v, std::cmp::Reverse(*i)))
        .map(|(i, _)| i)
        .expect("non-empty logits")
}

/// A fully quantised feed-forward network.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedNetwork {
    format: QFormat,
    input_shape: Vec<usize>,
    layers: Vec<QLayer>,
}

/// Activation codes plus their feature-map shape, flowing between stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeMap {
    /// Shape (`[c, h, w]` for maps, `[n]` for vectors).
    pub shape: Vec<usize>,
    /// Row-major activation codes.
    pub codes: Vec<i8>,
}

impl QuantizedNetwork {
    /// Quantises a trained float network.
    ///
    /// The float network must be a strict alternation of parameterised /
    /// pooling stages with optional `Tanh` layers after conv/dense stages
    /// (which LeNet-5 and everything in [`crate::zoo`] satisfies).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedStructure`] otherwise.
    pub fn from_sequential(
        net: &Sequential,
        input_shape: &[usize],
        format: QFormat,
    ) -> Result<Self, QuantError> {
        let scale = format.scale();
        let acc_scale = scale * scale;
        let quant_w = |t: &Tensor| -> Vec<i8> {
            t.data().iter().map(|&v| format.quantize(v).code() as i8).collect()
        };
        let quant_b = |t: &Tensor| -> Vec<i32> {
            t.data().iter().map(|&v| (v * acc_scale).round() as i32).collect()
        };

        let layers_f = net.layers();
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < layers_f.len() {
            let layer = &layers_f[i];
            // Peek for a following Tanh.
            let followed_by_tanh =
                matches!(layers_f.get(i + 1).map(|l| l.kind()), Some(LayerKind::Tanh));
            match layer.kind() {
                LayerKind::Conv { in_channels, out_channels, kernel } => {
                    let p = layer.params().ok_or_else(|| {
                        QuantError::UnsupportedStructure(format!(
                            "conv {} has no parameters",
                            layer.name()
                        ))
                    })?;
                    out.push(QLayer::Conv(QConv {
                        name: layer.name().to_string(),
                        in_channels,
                        out_channels,
                        kernel,
                        weights: quant_w(&p.weights),
                        bias: quant_b(&p.bias),
                        activation: if followed_by_tanh {
                            Activation::Tanh
                        } else {
                            Activation::None
                        },
                    }));
                    i += if followed_by_tanh { 2 } else { 1 };
                }
                LayerKind::Dense { inputs, outputs } => {
                    let p = layer.params().ok_or_else(|| {
                        QuantError::UnsupportedStructure(format!(
                            "dense {} has no parameters",
                            layer.name()
                        ))
                    })?;
                    out.push(QLayer::Dense(QDense {
                        name: layer.name().to_string(),
                        inputs,
                        outputs,
                        weights: quant_w(&p.weights),
                        bias: quant_b(&p.bias),
                        activation: if followed_by_tanh {
                            Activation::Tanh
                        } else {
                            Activation::None
                        },
                    }));
                    i += if followed_by_tanh { 2 } else { 1 };
                }
                LayerKind::MaxPool { window } => {
                    out.push(QLayer::MaxPool { name: layer.name().to_string(), window });
                    i += 1;
                }
                LayerKind::Tanh => {
                    return Err(QuantError::UnsupportedStructure(format!(
                        "stray activation {} not preceded by conv/dense",
                        layer.name()
                    )));
                }
            }
        }
        Ok(QuantizedNetwork { format, input_shape: input_shape.to_vec(), layers: out })
    }

    /// The quantisation format.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Expected input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// The stage pipeline.
    pub fn layers(&self) -> &[QLayer] {
        &self.layers
    }

    /// Names of the compute stages in order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Quantises an input tensor into activation codes.
    ///
    /// # Panics
    ///
    /// Panics if the tensor shape does not match [`Self::input_shape`].
    pub fn quantize_input(&self, input: &Tensor) -> CodeMap {
        assert_eq!(input.shape(), self.input_shape.as_slice(), "input shape mismatch");
        CodeMap {
            shape: input.shape().to_vec(),
            codes: input.data().iter().map(|&v| self.format.quantize(v).code() as i8).collect(),
        }
    }

    /// Requantises an accumulator through `tanh` (the BRAM LUT on the FPGA).
    pub fn tanh_code(&self, acc: i32) -> i8 {
        let acc_scale = self.format.scale() * self.format.scale();
        let v = (acc as f32 / acc_scale).tanh();
        self.format.quantize(v).code() as i8
    }

    /// Reference (fault-free) execution of one stage.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the stage's expected geometry.
    pub fn run_stage(&self, stage: &QLayer, input: &CodeMap) -> CodeMap {
        match stage {
            QLayer::Conv(c) => self.run_conv(c, input),
            QLayer::MaxPool { window, .. } => run_pool(*window, input),
            QLayer::Dense(d) => self.run_dense(d, input),
        }
    }

    fn run_conv(&self, c: &QConv, input: &CodeMap) -> CodeMap {
        let codes = c.accumulate(input).into_iter().map(|acc| self.activate(acc, c.activation));
        CodeMap { shape: c.output_shape(&input.shape).to_vec(), codes: codes.collect() }
    }

    fn run_dense(&self, d: &QDense, input: &CodeMap) -> CodeMap {
        let codes = d.accumulate(input).into_iter().map(|acc| self.activate(acc, d.activation));
        CodeMap { shape: vec![d.outputs], codes: codes.collect() }
    }

    /// Accumulator → activation code. For `Activation::None` the saturated
    /// accumulator is rescaled to code range; logits should instead be read
    /// through [`Self::infer_logits`], which keeps full precision.
    pub fn activate(&self, acc: i32, act: Activation) -> i8 {
        match act {
            Activation::Tanh => self.tanh_code(acc),
            Activation::None => {
                let scale = self.format.scale();
                (acc as f32 / scale).round().clamp(-128.0, 127.0) as i8
            }
        }
    }

    /// Full-precision logits for one input (final-stage accumulators at
    /// accumulator scale).
    ///
    /// # Panics
    ///
    /// Panics on input shape mismatch.
    pub fn infer_logits(&self, input: &Tensor) -> Vec<i32> {
        let mut map = self.quantize_input(input);
        for (idx, stage) in self.layers.iter().enumerate() {
            let last = idx + 1 == self.layers.len();
            if last {
                // Keep the final accumulators at full precision.
                return match stage {
                    QLayer::Dense(d) => d.accumulate(&map),
                    _ => {
                        let out = self.run_stage(stage, &map);
                        out.codes.iter().map(|&c| i32::from(c)).collect()
                    }
                };
            }
            map = self.run_stage(stage, &map);
        }
        map.codes.iter().map(|&c| i32::from(c)).collect()
    }

    /// Predicted class for one input.
    pub fn predict(&self, input: &Tensor) -> usize {
        let predicted = argmax(&self.infer_logits(input));
        trace::emit(|| trace::Event::Inference { predicted: predicted as u32 });
        predicted
    }

    /// Classification accuracy over `(image, label)` pairs.
    pub fn accuracy<'a>(&self, samples: impl Iterator<Item = (&'a Tensor, usize)>) -> f64 {
        let mut total = 0usize;
        let mut correct = 0usize;
        for (x, y) in samples {
            total += 1;
            if self.predict(x) == y {
                correct += 1;
            }
        }
        if total == 0 {
            return 0.0;
        }
        correct as f64 / total as f64
    }
}

fn run_pool(window: usize, input: &CodeMap) -> CodeMap {
    let (c, h, w) = (input.shape[0], input.shape[1], input.shape[2]);
    assert!(h % window == 0 && w % window == 0, "pool input not divisible");
    let (oh, ow) = (h / window, w / window);
    let mut codes = vec![0i8; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = i8::MIN;
                for ky in 0..window {
                    for kx in 0..window {
                        let v = input.codes[(ch * h + oy * window + ky) * w + ox * window + kx];
                        best = best.max(v);
                    }
                }
                codes[(ch * oh + oy) * ow + ox] = best;
            }
        }
    }
    CodeMap { shape: vec![c, oh, ow], codes }
}

// ---------------------------------------------------------------------------
// Binary model codec (for caching trained models between runs).
// ---------------------------------------------------------------------------

const MODEL_MAGIC: &[u8; 4] = b"DSQ1";

impl QuantizedNetwork {
    /// Serialises the model to a compact binary blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MODEL_MAGIC);
        out.push(u8::from(self.format.is_signed()));
        out.push(self.format.frac_bits());
        push_usize(&mut out, self.input_shape.len());
        for &d in &self.input_shape {
            push_usize(&mut out, d);
        }
        push_usize(&mut out, self.layers.len());
        for layer in &self.layers {
            match layer {
                QLayer::Conv(c) => {
                    out.push(0);
                    push_str(&mut out, &c.name);
                    push_usize(&mut out, c.in_channels);
                    push_usize(&mut out, c.out_channels);
                    push_usize(&mut out, c.kernel);
                    out.push(u8::from(c.activation == Activation::Tanh));
                    push_i8s(&mut out, &c.weights);
                    push_i32s(&mut out, &c.bias);
                }
                QLayer::MaxPool { name, window } => {
                    out.push(1);
                    push_str(&mut out, name);
                    push_usize(&mut out, *window);
                }
                QLayer::Dense(d) => {
                    out.push(2);
                    push_str(&mut out, &d.name);
                    push_usize(&mut out, d.inputs);
                    push_usize(&mut out, d.outputs);
                    out.push(u8::from(d.activation == Activation::Tanh));
                    push_i8s(&mut out, &d.weights);
                    push_i32s(&mut out, &d.bias);
                }
            }
        }
        out
    }

    /// Decodes a model serialised with [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::MalformedModel`] on truncation, bad magic or
    /// inconsistent geometry.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, QuantError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != MODEL_MAGIC {
            return Err(QuantError::MalformedModel("bad magic".into()));
        }
        let signed = r.u8()? != 0;
        let frac = r.u8()?;
        if frac >= 8 {
            return Err(QuantError::MalformedModel("bad format".into()));
        }
        let format = QFormat::new(signed, frac);
        let rank = r.usize_()?;
        let mut input_shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            input_shape.push(r.usize_()?);
        }
        let n_layers = r.usize_()?;
        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            match r.u8()? {
                0 => {
                    let name = r.string()?;
                    let in_channels = r.usize_()?;
                    let out_channels = r.usize_()?;
                    let kernel = r.usize_()?;
                    let activation = if r.u8()? != 0 { Activation::Tanh } else { Activation::None };
                    let weights = r.i8s()?;
                    let bias = r.i32s()?;
                    if weights.len() != out_channels * in_channels * kernel * kernel
                        || bias.len() != out_channels
                    {
                        return Err(QuantError::MalformedModel("conv geometry".into()));
                    }
                    layers.push(QLayer::Conv(QConv {
                        name,
                        in_channels,
                        out_channels,
                        kernel,
                        weights,
                        bias,
                        activation,
                    }));
                }
                1 => {
                    let name = r.string()?;
                    let window = r.usize_()?;
                    layers.push(QLayer::MaxPool { name, window });
                }
                2 => {
                    let name = r.string()?;
                    let inputs = r.usize_()?;
                    let outputs = r.usize_()?;
                    let activation = if r.u8()? != 0 { Activation::Tanh } else { Activation::None };
                    let weights = r.i8s()?;
                    let bias = r.i32s()?;
                    if weights.len() != inputs * outputs || bias.len() != outputs {
                        return Err(QuantError::MalformedModel("dense geometry".into()));
                    }
                    layers.push(QLayer::Dense(QDense {
                        name,
                        inputs,
                        outputs,
                        weights,
                        bias,
                        activation,
                    }));
                }
                tag => {
                    return Err(QuantError::MalformedModel(format!("unknown layer tag {tag}")));
                }
            }
        }
        Ok(QuantizedNetwork { format, input_shape, layers })
    }
}

fn push_usize(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn push_i8s(out: &mut Vec<u8>, v: &[i8]) {
    push_usize(out, v.len());
    out.extend(v.iter().map(|&b| b as u8));
}

fn push_i32s(out: &mut Vec<u8>, v: &[i32]) {
    push_usize(out, v.len());
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], QuantError> {
        if self.pos + n > self.bytes.len() {
            return Err(QuantError::MalformedModel("truncated".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, QuantError> {
        Ok(self.take(1)?[0])
    }

    fn usize_(&mut self) -> Result<usize, QuantError> {
        let b = self.take(8)?;
        let v = u64::from_le_bytes(b.try_into().expect("len 8"));
        usize::try_from(v).map_err(|_| QuantError::MalformedModel("size overflow".into()))
    }

    fn string(&mut self) -> Result<String, QuantError> {
        let n = self.usize_()?;
        if n > 1 << 20 {
            return Err(QuantError::MalformedModel("name too long".into()));
        }
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| QuantError::MalformedModel("bad utf8".into()))
    }

    fn i8s(&mut self) -> Result<Vec<i8>, QuantError> {
        let n = self.usize_()?;
        if n > 1 << 28 {
            return Err(QuantError::MalformedModel("blob too long".into()));
        }
        Ok(self.take(n)?.iter().map(|&b| b as i8).collect())
    }

    fn i32s(&mut self) -> Result<Vec<i32>, QuantError> {
        let n = self.usize_()?;
        if n > 1 << 26 {
            return Err(QuantError::MalformedModel("blob too long".into()));
        }
        let b = self.take(n * 4)?;
        Ok(b.chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().expect("len 4"))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lenet::lenet5;
    use crate::network::Sequential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quantized_lenet(seed: u64) -> (Sequential, QuantizedNetwork) {
        let net = lenet5(&mut StdRng::seed_from_u64(seed));
        let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap();
        (net, q)
    }

    #[test]
    fn structure_mapping() {
        let (_, q) = quantized_lenet(0);
        let names = q.stage_names();
        assert_eq!(names, vec!["conv1", "pool1", "conv2", "fc1", "fc2"]);
        match &q.layers()[0] {
            QLayer::Conv(c) => {
                assert_eq!(c.activation, Activation::Tanh);
                assert_eq!(c.weights.len(), 6 * 25);
            }
            other => panic!("expected conv, got {other:?}"),
        }
        match &q.layers()[4] {
            QLayer::Dense(d) => assert_eq!(d.activation, Activation::None),
            other => panic!("expected dense, got {other:?}"),
        }
    }

    #[test]
    fn quantized_agrees_with_float_on_most_predictions() {
        let (mut net, q) = quantized_lenet(7);
        let mut rng = StdRng::seed_from_u64(123);
        let ds =
            crate::digits::Dataset::generate(40, &crate::digits::RenderParams::default(), &mut rng);
        let mut agree = 0usize;
        for (x, _) in ds.iter() {
            if net.predict(x) == q.predict(x) {
                agree += 1;
            }
        }
        // Untrained nets have near-arbitrary logits; quantisation noise can
        // flip close calls, but the two pipelines must broadly agree.
        assert!(agree >= 28, "agreement too low: {agree}/40");
    }

    #[test]
    fn codec_round_trip() {
        let (_, q) = quantized_lenet(5);
        let bytes = q.to_bytes();
        let q2 = QuantizedNetwork::from_bytes(&bytes).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn codec_rejects_corruption() {
        let (_, q) = quantized_lenet(5);
        let bytes = q.to_bytes();
        assert!(QuantizedNetwork::from_bytes(&bytes[..10]).is_err(), "truncated");
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(QuantizedNetwork::from_bytes(&bad_magic).is_err(), "magic");
        assert!(QuantizedNetwork::from_bytes(&[]).is_err(), "empty");
    }

    #[test]
    fn tanh_code_saturates_and_is_monotone() {
        let (_, q) = quantized_lenet(1);
        assert_eq!(q.tanh_code(1_000_000), q.format().quantize(1.0).code() as i8);
        assert_eq!(q.tanh_code(-1_000_000), q.format().quantize(-1.0).code() as i8);
        let mut prev = i8::MIN;
        for acc in (-4096..4096).step_by(64) {
            let c = q.tanh_code(acc);
            assert!(c >= prev, "tanh code must be monotone");
            prev = c;
        }
    }

    #[test]
    fn conv_accumulate_matches_the_per_output_loop_nest() {
        let (_, q) = quantized_lenet(4);
        let QLayer::Conv(c) = &q.layers()[2] else { panic!("conv2 is stage 2") };
        let (h, w) = (12, 12);
        let codes: Vec<i8> = (0..c.in_channels * h * w).map(|i| (i * 37 % 255) as i8).collect();
        let input = CodeMap { shape: vec![c.in_channels, h, w], codes };
        let [oc_n, oh, ow] = c.output_shape(&input.shape);
        let k = c.kernel;
        let mut expected = Vec::new();
        for oc in 0..oc_n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = c.bias[oc];
                    for ic in 0..c.in_channels {
                        for ky in 0..k {
                            for kx in 0..k {
                                let wv = c.weights[((oc * c.in_channels + ic) * k + ky) * k + kx];
                                let xv = input.codes[(ic * h + oy + ky) * w + ox + kx];
                                acc += i32::from(wv) * i32::from(xv);
                            }
                        }
                    }
                    expected.push(acc);
                }
            }
        }
        assert_eq!(c.accumulate(&input), expected);
    }

    #[test]
    fn pool_on_codes_matches_semantics() {
        let input = CodeMap { shape: vec![1, 2, 2], codes: vec![-5, 3, 2, -1] };
        let out = run_pool(2, &input);
        assert_eq!(out.codes, vec![3]);
        assert_eq!(out.shape, vec![1, 1, 1]);
    }

    #[test]
    fn logits_have_full_precision() {
        let (_, q) = quantized_lenet(2);
        let x = crate::tensor::Tensor::full(&[1, 28, 28], 0.3);
        let logits = q.infer_logits(&x);
        assert_eq!(logits.len(), 10);
        // At accumulator scale, non-trivial logits are way beyond i8 range.
        assert!(logits.iter().any(|&v| v.abs() > 127), "{logits:?}");
    }

    #[test]
    fn accuracy_counts() {
        let (_, q) = quantized_lenet(3);
        let mut rng = StdRng::seed_from_u64(4);
        let ds =
            crate::digits::Dataset::generate(20, &crate::digits::RenderParams::default(), &mut rng);
        let acc = q.accuracy(ds.iter());
        assert!((0.0..=1.0).contains(&acc));
        assert_eq!(q.accuracy(std::iter::empty()), 0.0);
    }
}
