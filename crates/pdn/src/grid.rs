//! Spatial RC mesh on top of the lumped supply.
//!
//! The lumped model in [`crate::rlc`] captures the *global* droop every
//! tenant sees; this mesh adds the *local* gradient: a current transient
//! injected at the attacker's grid node droops nearby nodes more than
//! distant ones. The victim-vs-attacker floorplan distance therefore
//! modulates attack strength, as in the paper's Fig. 6a placement.
//!
//! Numerically, the node voltage is decomposed as
//! `v_node = v_die(t) + δ_node`: the *common-mode* component `v_die` comes
//! from the lumped transient model (global droop reaches every node within
//! one step, as it does physically through the power planes), while the
//! *local deviation* field `δ` solves the resistive mesh around the
//! injected currents. `δ` is quasi-static relative to the 1 ns step and is
//! relaxed by a few warm-started Gauss–Seidel sweeps per step — injections
//! only change at cycle boundaries, so a handful of sweeps suffices.

use crate::error::{PdnError, Result};
use crate::rlc::LumpedPdn;

/// Parameters of the spatial mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridParams {
    /// Nodes in x.
    pub nx: usize,
    /// Nodes in y.
    pub ny: usize,
    /// Conductance from each node up to the die-level rail, in siemens.
    pub g_supply: f64,
    /// Conductance between neighbouring nodes, in siemens.
    pub g_mesh: f64,
    /// Gauss–Seidel sweeps per step.
    pub sweeps: usize,
}

impl Default for GridParams {
    fn default() -> Self {
        // λ = √(g_mesh/g_supply) ≈ 5 node spacings: local droop decays to
        // ~1/e five nodes away, so cross-die placement attenuates the local
        // component substantially while the global droop is fully shared.
        GridParams { nx: 16, ny: 10, g_supply: 5.0, g_mesh: 125.0, sweeps: 8 }
    }
}

impl GridParams {
    /// Validates geometry and conductances.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] or [`PdnError::OutOfRange`].
    pub fn validate(&self) -> Result<()> {
        if self.nx == 0 || self.ny == 0 {
            return Err(PdnError::OutOfRange("grid dimensions".into()));
        }
        for (name, value) in [("g_supply", self.g_supply), ("g_mesh", self.g_mesh)] {
            if !(value.is_finite() && value > 0.0) {
                return Err(PdnError::InvalidParameter { name, value });
            }
        }
        if self.sweeps == 0 {
            return Err(PdnError::OutOfRange("sweeps".into()));
        }
        Ok(())
    }

    /// Characteristic attenuation length of local droop, in node spacings.
    pub fn attenuation_length(&self) -> f64 {
        (self.g_mesh / self.g_supply).sqrt()
    }
}

/// A node coordinate on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId {
    /// Column.
    pub x: usize,
    /// Row.
    pub y: usize,
}

/// A mesh node resolved to its storage index by [`SpatialPdn::probe`].
/// Valid on the mesh it was resolved on and on its clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Probe(usize);

/// Substeps [`SpatialPdn::step_cycle`] relaxes per wavefront; their probe
/// voltages are buffered on the stack.
const SUBSTEP_CHUNK: usize = 16;

/// Sweeps per wavefront batch: one `u64` holds their changed flags.
const CHANGED_BITS: usize = 64;

/// One time step of the relaxation wavefront: updates node `i` (column
/// `x`) for the first of `sweeps`, node `i - (nx + 1)` for the next, and
/// so on. Returns the sweeps' changed flags, bit `k` for sweep `k`.
///
/// Each update is the sequential Gauss–Seidel one: neighbour current in
/// left/right/up/down order (see [`edge_flow`] for mesh-edge nodes), then
/// `(flow − i_inj) / g_sum`.
fn wavefront_step(
    delta: &mut [f64],
    inj: &[f64],
    g_sum: &[f64],
    (mut i, mut x): (usize, usize),
    sweeps: std::ops::Range<usize>,
    nx: usize,
    gm: f64,
) -> u64 {
    let n = delta.len();
    let (inj, g_sum) = (&inj[..n], &g_sum[..n]);
    // Interior nodes: columns 1..nx-1 of rows 1..ny-1.
    let (inner_cols, inner_span) = (nx.saturating_sub(2), n.saturating_sub(2 * nx));
    let mut changed = 0u64;
    for k in sweeps {
        let flow = if x.wrapping_sub(1) < inner_cols && i.wrapping_sub(nx) < inner_span {
            let w = &delta[i - nx..=i + nx];
            gm * w[nx - 1] + gm * w[nx + 1] + gm * w[0] + gm * w[2 * nx]
        } else {
            edge_flow(delta, i, x, nx, gm)
        };
        let v = (flow - inj[i]) / g_sum[i];
        changed |= u64::from(v.to_bits() != delta[i].to_bits()) << k;
        delta[i] = v;
        i = i.wrapping_sub(nx + 1);
        x = if x == 0 { nx - 1 } else { x - 1 };
    }
    changed
}

/// Neighbour current into mesh-edge node `i` (column `x`): `0.0 +` each
/// present neighbour in left/right/up/down order. Interior nodes skip the
/// leading `0.0 +`; the two forms are bit-identical, as the
/// `reference_relax` oracle test checks.
fn edge_flow(delta: &[f64], i: usize, x: usize, nx: usize, gm: f64) -> f64 {
    let mut flow = 0.0;
    if x > 0 {
        flow += gm * delta[i - 1];
    }
    if x + 1 < nx {
        flow += gm * delta[i + 1];
    }
    if i >= nx {
        flow += gm * delta[i - nx];
    }
    if i + nx < delta.len() {
        flow += gm * delta[i + nx];
    }
    flow
}

/// Spatial PDN: lumped transient backbone + resistive mesh.
///
/// # Example
///
/// ```
/// use pdn::grid::{GridParams, NodeId, SpatialPdn};
/// use pdn::rlc::LumpedPdn;
///
/// let mut g = SpatialPdn::new(LumpedPdn::zynq_like(), GridParams::default())?;
/// let attacker = NodeId { x: 1, y: 1 };
/// let victim = NodeId { x: 14, y: 8 };
/// g.inject(attacker, 6.0)?;
/// for _ in 0..20 { g.step(1e-9); }
/// assert!(g.voltage_at(attacker)? < g.voltage_at(victim)?);
/// # Ok::<(), pdn::PdnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialPdn {
    lumped: LumpedPdn,
    params: GridParams,
    /// Local deviation below the die rail, per node.
    delta: Vec<f64>,
    i_inj: Vec<f64>,
    /// Precomputed per-node total conductance (supply + present
    /// neighbours) — the Gauss–Seidel denominator, constant per geometry.
    g_sum: Vec<f64>,
}

impl SpatialPdn {
    /// Creates a mesh at the unloaded operating point.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] / [`PdnError::OutOfRange`] for
    /// bad parameters.
    pub fn new(lumped: LumpedPdn, params: GridParams) -> Result<Self> {
        params.validate()?;
        lumped.params().validate()?;
        let n = params.nx * params.ny;
        // Stencil denominators, accumulated in the same left/right/up/down
        // order the relaxation visits neighbours in.
        let g_sum = (0..n)
            .map(|i| {
                let (x, y) = (i % params.nx, i / params.nx);
                let mut g = params.g_supply;
                if x > 0 {
                    g += params.g_mesh;
                }
                if x + 1 < params.nx {
                    g += params.g_mesh;
                }
                if y > 0 {
                    g += params.g_mesh;
                }
                if y + 1 < params.ny {
                    g += params.g_mesh;
                }
                g
            })
            .collect();
        Ok(SpatialPdn { lumped, params, delta: vec![0.0; n], i_inj: vec![0.0; n], g_sum })
    }

    /// Convenience constructor with default mesh over a Zynq-like supply.
    pub fn zynq_like() -> Self {
        // Invariant: `GridParams::default()` and the zynq parameters are
        // static, in-range literals, so validation cannot fail.
        SpatialPdn::new(LumpedPdn::zynq_like(), GridParams::default())
            .expect("default parameters are valid")
    }

    /// Mesh parameters.
    pub fn params(&self) -> &GridParams {
        &self.params
    }

    /// The lumped backbone (for inspecting the global state).
    pub fn lumped(&self) -> &LumpedPdn {
        &self.lumped
    }

    fn index(&self, node: NodeId) -> Result<usize> {
        if node.x >= self.params.nx || node.y >= self.params.ny {
            return Err(PdnError::OutOfRange(format!("node ({}, {})", node.x, node.y)));
        }
        Ok(node.y * self.params.nx + node.x)
    }

    /// Sets the current drawn at `node` (amps); replaces any previous value
    /// for that node.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::OutOfRange`] for coordinates off the mesh and
    /// [`PdnError::InvalidParameter`] for negative or non-finite current.
    pub fn inject(&mut self, node: NodeId, amps: f64) -> Result<()> {
        if !(amps.is_finite() && amps >= 0.0) {
            return Err(PdnError::InvalidParameter { name: "amps", value: amps });
        }
        let at = self.probe(node)?;
        self.set_load(at, amps);
        Ok(())
    }

    /// Clears all injected currents.
    pub fn clear_loads(&mut self) {
        self.i_inj.iter_mut().for_each(|i| *i = 0.0);
    }

    /// Total injected current in amps.
    pub fn total_load(&self) -> f64 {
        self.i_inj.iter().sum()
    }

    /// Resolves `node` to a [`Probe`] once, so per-cycle loads and
    /// readouts skip the coordinate check.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::OutOfRange`] for coordinates off the mesh.
    pub fn probe(&self, node: NodeId) -> Result<Probe> {
        self.index(node).map(Probe)
    }

    /// Sets the current drawn at a resolved node (amps); replaces any
    /// previous value for that node. `amps` must be finite and
    /// non-negative: [`SpatialPdn::inject`] is the checked form for
    /// untrusted values.
    pub fn set_load(&mut self, at: Probe, amps: f64) {
        debug_assert!(amps.is_finite() && amps >= 0.0, "load current {amps} A");
        self.i_inj[at.0] = amps;
    }

    /// Local deviation `δ` at a resolved node in volts (negative where
    /// the mesh droops below the die rail).
    pub fn deviation(&self, at: Probe) -> f64 {
        self.delta[at.0]
    }

    /// Voltage at a resolved node in volts (`v_die + δ_node`).
    pub fn probe_voltage(&self, at: Probe) -> f64 {
        self.lumped.voltage() + self.delta[at.0]
    }

    /// Advances the lumped backbone one step and relaxes the local
    /// deviation field. Returns the die-level (lumped) voltage.
    pub fn step(&mut self, dt: f64) -> f64 {
        self.step_cycle(dt, 1, [], |_, _| {})
    }

    /// Advances one victim cycle of `substeps` steps of `dt` under the
    /// present loads, calling `each(s, volts)` with the voltage at each of
    /// `probes` after substep `s`, in order. Returns the die-level
    /// voltage at the end of the cycle.
    ///
    /// Bit-identical to `substeps` calls of [`SpatialPdn::step`] with a
    /// [`SpatialPdn::probe_voltage`] read after each. Loads are constant
    /// within the call and `δ` depends on neither `dt` nor the lumped
    /// state, so the backbone steps first and the Gauss–Seidel sweeps of
    /// up to 16 substeps then run as one pipelined wavefront (see
    /// `relax`). Allocates nothing.
    pub fn step_cycle<const P: usize>(
        &mut self,
        dt: f64,
        substeps: usize,
        probes: [Probe; P],
        mut each: impl FnMut(usize, [f64; P]),
    ) -> f64 {
        let total = self.total_load();
        let mut volts = [[0.0; P]; SUBSTEP_CHUNK];
        let mut done = 0;
        while done < substeps {
            let chunk = &mut volts[..(substeps - done).min(SUBSTEP_CHUNK)];
            for v in chunk.iter_mut() {
                let v_die = self.lumped.step(total, dt);
                *v = [v_die; P];
            }
            self.relax(probes, chunk);
            for (s, &v) in chunk.iter().enumerate() {
                each(done + s, v);
            }
            done += chunk.len();
        }
        self.lumped.voltage()
    }

    /// [`SpatialPdn::step`] with divergence detection and step-halving
    /// recovery on the lumped backbone (see [`LumpedPdn::try_step`]),
    /// plus a finiteness check on the relaxed deviation field.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] for a bad `dt` and
    /// [`PdnError::SolverDiverged`] when recovery gives up or the local
    /// field turns non-finite.
    pub fn try_step(&mut self, dt: f64) -> Result<f64> {
        let total = self.total_load();
        let v_die = self.lumped.try_step(total, dt)?;
        self.relax([], &mut [[]]);
        if let Some(bad) = self.delta.iter().copied().find(|d| !d.is_finite()) {
            return Err(PdnError::SolverDiverged { dt, value: bad });
        }
        Ok(v_die)
    }

    /// Gauss–Seidel relaxation of the local deviation field `δ` around the
    /// injected currents (`δ = 0` where nothing is drawn): `sweeps`
    /// sweeps for each of the `out.len()` substeps, adding each
    /// substep's `δ` at `probes` onto the die voltage already in `out`.
    ///
    /// The sweeps run as one wavefront: sweep `k + 1` trails sweep `k`
    /// by `nx + 1` nodes, so when it updates node `i`, sweep `k` has just
    /// written `i + nx` and sweep `k + 2` has not yet reached `i - 1`.
    /// Each update thus reads exactly what the sequential sweep reads
    /// (sweep-`k` values right and below, sweep-`k + 1` values left and
    /// above) and does the same float operations on the same bits, while
    /// the ~`nx·ny / (nx + 1)` sweeps in flight overlap their divides.
    ///
    /// The loop stops once a completed sweep leaves every node
    /// bit-unchanged: a sweep is a deterministic map, so every later
    /// sweep would be the identity too (the partial sweeps behind it
    /// already rewrote the same bits), and the remaining substeps read
    /// that fixed point. When the first sweep has changed nothing by the
    /// time the second would start, the second is held back (any lag of
    /// at least `nx + 1` is exact) and the first finishes alone, so a
    /// warm-started steady state pays for one sweep, not also for the
    /// partial sweeps behind it.
    fn relax<const P: usize>(&mut self, probes: [Probe; P], out: &mut [[f64; P]]) {
        let GridParams { nx, ny, g_mesh: gm, sweeps, .. } = self.params;
        let n = nx * ny;
        debug_assert_eq!(self.delta.len(), n);
        let lag = nx + 1;
        let total = out.len() * sweeps;
        let delta = &mut self.delta[..n];
        let (inj, g_sum) = (&self.i_inj[..n], &self.g_sum[..n]);
        // Time step at which the sweep ending substep `s` writes `probe`,
        // if that sweep is in the batch of `batch` sweeps from `first`.
        let record_time = |probe: Probe, s: usize, first: usize, batch: usize| {
            let k = (s + 1) * sweeps - 1;
            if k < first + batch {
                probe.0 + (k - first) * lag
            } else {
                usize::MAX
            }
        };
        // The next substep each probe records.
        let mut next_sub = [0usize; P];
        let mut first = 0;
        while first < total {
            let mut batch = (total - first).min(CHANGED_BITS);
            let mut record_at: [usize; P] =
                std::array::from_fn(|j| record_time(probes[j], next_sub[j], first, batch));
            let mut changed = 0u64;
            // Batch sweeps `lead..started` are in flight; sweep `lead` is
            // at node `t - lead_at` with column `lead_x`.
            let (mut t, mut lead, mut started, mut lead_at, mut lead_x) = (0, 0, 0, 0, 0usize);
            while lead < batch {
                if started < batch && t == started * lag {
                    if started == 1 && changed == 0 {
                        // Likely a fixed point: the first sweep finishes
                        // alone and the next batch starts after it.
                        batch = 1;
                        record_at =
                            std::array::from_fn(|j| record_time(probes[j], next_sub[j], first, 1));
                    } else {
                        started += 1;
                    }
                }
                changed |= wavefront_step(
                    delta,
                    inj,
                    g_sum,
                    (t.wrapping_sub(lead_at), lead_x),
                    lead..started,
                    nx,
                    gm,
                );
                for j in 0..P {
                    if t == record_at[j] {
                        out[next_sub[j]][j] += delta[probes[j].0];
                        next_sub[j] += 1;
                        record_at[j] = record_time(probes[j], next_sub[j], first, batch);
                    }
                }
                if t == lead_at + n - 1 {
                    if changed & (1u64 << lead) == 0 {
                        // Fixed point: every remaining substep reads it.
                        for (j, probe) in probes.iter().enumerate() {
                            for volts in &mut out[next_sub[j]..] {
                                volts[j] += delta[probe.0];
                            }
                        }
                        return;
                    }
                    lead += 1;
                    lead_at += lag;
                    // `lag ≡ 1 (mod nx)`: the next sweep sits one column left.
                    lead_x = if lead_x == 0 { nx - 1 } else { lead_x - 1 };
                }
                lead_x = if lead_x + 1 == nx { 0 } else { lead_x + 1 };
                t += 1;
            }
            first += batch;
        }
    }

    /// Voltage at a mesh node in volts (`v_die + δ_node`).
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::OutOfRange`] for coordinates off the mesh.
    pub fn voltage_at(&self, node: NodeId) -> Result<f64> {
        Ok(self.probe_voltage(self.probe(node)?))
    }

    /// Maps a normalised floorplan position (`0..=1` in both axes) to the
    /// nearest mesh node.
    pub fn node_at_fraction(&self, fx: f64, fy: f64) -> NodeId {
        let x = ((fx.clamp(0.0, 1.0)) * (self.params.nx - 1) as f64).round() as usize;
        let y = ((fy.clamp(0.0, 1.0)) * (self.params.ny - 1) as f64).round() as usize;
        NodeId { x, y }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn settled_grid() -> SpatialPdn {
        let mut g = SpatialPdn::zynq_like();
        for _ in 0..5000 {
            g.step(1e-9);
        }
        g
    }

    #[test]
    fn validates_parameters() {
        let bad = GridParams { nx: 0, ..GridParams::default() };
        assert!(SpatialPdn::new(LumpedPdn::zynq_like(), bad).is_err());
        let bad = GridParams { g_mesh: -1.0, ..GridParams::default() };
        assert!(SpatialPdn::new(LumpedPdn::zynq_like(), bad).is_err());
        let bad = GridParams { sweeps: 0, ..GridParams::default() };
        assert!(SpatialPdn::new(LumpedPdn::zynq_like(), bad).is_err());
    }

    #[test]
    fn validate_rejects_each_bad_field() {
        let good = GridParams::default();
        assert!(good.validate().is_ok());
        assert!(GridParams { nx: 0, ..good }.validate().is_err(), "nx = 0");
        assert!(GridParams { ny: 0, ..good }.validate().is_err(), "ny = 0");
        assert!(GridParams { sweeps: 0, ..good }.validate().is_err(), "sweeps = 0");
        for bad in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
            assert!(GridParams { g_supply: bad, ..good }.validate().is_err(), "g_supply {bad}");
            assert!(GridParams { g_mesh: bad, ..good }.validate().is_err(), "g_mesh {bad}");
        }
    }

    #[test]
    fn construction_rejects_bad_rlc_backbone_params() {
        let good = *LumpedPdn::zynq_like().params();
        assert!(good.validate().is_ok());
        // Non-finite or non-positive capacitance/inductance (and the rest
        // of the RLC backbone) must never reach the mesh solver.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1e-9] {
            for field in 0..4 {
                let mut p = good;
                match field {
                    0 => p.vdd = bad,
                    1 => p.r = bad,
                    2 => p.l = bad,
                    _ => p.c = bad,
                }
                assert!(p.validate().is_err(), "field {field} = {bad}");
                assert!(LumpedPdn::new(p).is_err(), "LumpedPdn must reject field {field}");
            }
        }
    }

    /// The original, unoptimised Gauss–Seidel sweep: always runs all
    /// `sweeps` passes, recomputing the stencil denominator per node.
    fn reference_relax(g: &mut SpatialPdn) {
        let (nx, ny) = (g.params.nx, g.params.ny);
        let gs = g.params.g_supply;
        let gm = g.params.g_mesh;
        for _ in 0..g.params.sweeps {
            for y in 0..ny {
                for x in 0..nx {
                    let i = y * nx + x;
                    let mut g_sum = gs;
                    let mut flow = 0.0;
                    if x > 0 {
                        g_sum += gm;
                        flow += gm * g.delta[i - 1];
                    }
                    if x + 1 < nx {
                        g_sum += gm;
                        flow += gm * g.delta[i + 1];
                    }
                    if y > 0 {
                        g_sum += gm;
                        flow += gm * g.delta[i - nx];
                    }
                    if y + 1 < ny {
                        g_sum += gm;
                        flow += gm * g.delta[i + nx];
                    }
                    g.delta[i] = (flow - g.i_inj[i]) / g_sum;
                }
            }
        }
    }

    /// Asserts two meshes hold bitwise-equal lumped and local state.
    fn assert_same_bits(a: &SpatialPdn, b: &SpatialPdn, what: &str) {
        let lumped =
            |g: &SpatialPdn| (g.lumped.voltage().to_bits(), g.lumped.inductor_current().to_bits());
        assert!(lumped(a) == lumped(b), "{what}: lumped state differs");
        for (i, (x, y)) in a.delta.iter().zip(&b.delta).enumerate() {
            assert!(x.to_bits() == y.to_bits(), "{what} node {i}: {x:e} vs {y:e}");
        }
    }

    #[test]
    fn fast_relax_is_bit_identical_to_reference() {
        // Transient, steady-state (early-exit) and post-load-change
        // phases must all match the always-8-sweeps reference exactly,
        // on the default mesh and on degenerate 1-wide/1-tall meshes —
        // both one substep at a time (`step`) and batched per cycle
        // (`step_cycle`, probes on opposite corners).
        const SUBSTEPS: usize = 20;
        for params in [
            GridParams::default(),
            GridParams { nx: 1, ny: 7, ..GridParams::default() },
            GridParams { nx: 7, ny: 1, ..GridParams::default() },
            GridParams { nx: 2, ny: 2, ..GridParams::default() },
        ] {
            let mut fast = SpatialPdn::new(LumpedPdn::zynq_like(), params).unwrap();
            let node = NodeId { x: 0, y: params.ny - 1 };
            fast.inject(node, 2.5).unwrap();
            let mut reference = fast.clone();
            let mut cycle = fast.clone();
            let probes = [node, NodeId { x: params.nx - 1, y: 0 }].map(|p| fast.probe(p).unwrap());
            let mut volts = Vec::new();
            for step in 0..600 {
                let what = format!("nx={} ny={} step {step}", params.nx, params.ny);
                if step == 400 {
                    // Mid-run load change re-excites the field.
                    fast.clear_loads();
                    reference.clear_loads();
                    cycle.clear_loads();
                }
                let s = step % SUBSTEPS;
                if s == 0 {
                    volts.clear();
                    cycle.step_cycle(1e-9, SUBSTEPS, probes, |_, v| volts.push(v));
                }
                fast.step(1e-9);
                let v = reference.lumped.step(reference.total_load(), 1e-9);
                reference_relax(&mut reference);
                assert!(v.to_bits() == fast.lumped.voltage().to_bits());
                assert_same_bits(&fast, &reference, &what);
                for (j, &p) in probes.iter().enumerate() {
                    let want = reference.probe_voltage(p);
                    assert!(volts[s][j].to_bits() == want.to_bits(), "{what} probe {j}");
                }
                if s == SUBSTEPS - 1 {
                    assert_same_bits(&cycle, &reference, &what);
                }
            }
        }
    }

    #[test]
    fn unloaded_mesh_sits_at_rail() {
        let g = settled_grid();
        for y in 0..g.params().ny {
            for x in 0..g.params().nx {
                let v = g.voltage_at(NodeId { x, y }).unwrap();
                assert!((v - 1.0).abs() < 1e-3, "node ({x},{y}) at {v}");
            }
        }
    }

    #[test]
    fn local_injection_droops_near_more_than_far() {
        let mut g = settled_grid();
        let near = NodeId { x: 1, y: 1 };
        let mid = NodeId { x: 8, y: 5 };
        let far = NodeId { x: 15, y: 9 };
        g.inject(near, 6.0).unwrap();
        for _ in 0..50 {
            g.step(1e-9);
        }
        let vn = g.voltage_at(near).unwrap();
        let vm = g.voltage_at(mid).unwrap();
        let vf = g.voltage_at(far).unwrap();
        assert!(vn < vm && vm < vf, "monotone decay violated: {vn} {vm} {vf}");
        // Everyone shares the global droop.
        assert!(vf < 1.0 - 0.01, "far node must still see global droop: {vf}");
    }

    #[test]
    fn injection_bookkeeping() {
        let mut g = SpatialPdn::zynq_like();
        g.inject(NodeId { x: 0, y: 0 }, 1.0).unwrap();
        g.inject(NodeId { x: 2, y: 3 }, 2.5).unwrap();
        assert!((g.total_load() - 3.5).abs() < 1e-12);
        g.inject(NodeId { x: 0, y: 0 }, 0.25).unwrap();
        assert!((g.total_load() - 2.75).abs() < 1e-12, "inject replaces");
        g.clear_loads();
        assert_eq!(g.total_load(), 0.0);
    }

    #[test]
    fn bad_injections_rejected() {
        let mut g = SpatialPdn::zynq_like();
        assert!(g.inject(NodeId { x: 99, y: 0 }, 1.0).is_err());
        assert!(g.inject(NodeId { x: 0, y: 0 }, -1.0).is_err());
        assert!(g.inject(NodeId { x: 0, y: 0 }, f64::NAN).is_err());
        assert!(g.voltage_at(NodeId { x: 0, y: 99 }).is_err());
    }

    #[test]
    fn fraction_mapping_hits_corners() {
        let g = SpatialPdn::zynq_like();
        assert_eq!(g.node_at_fraction(0.0, 0.0), NodeId { x: 0, y: 0 });
        assert_eq!(g.node_at_fraction(1.0, 1.0), NodeId { x: 15, y: 9 });
        assert_eq!(g.node_at_fraction(-3.0, 7.0), NodeId { x: 0, y: 9 }, "clamped");
    }

    #[test]
    fn attenuation_length_is_in_design_band() {
        let p = GridParams::default();
        let lambda = p.attenuation_length();
        assert!((3.0..8.0).contains(&lambda), "λ = {lambda}");
    }

    #[test]
    fn try_step_matches_step_and_surfaces_divergence_typed() {
        let mut a = settled_grid();
        let mut b = a.clone();
        a.inject(NodeId { x: 1, y: 1 }, 6.0).unwrap();
        b.inject(NodeId { x: 1, y: 1 }, 6.0).unwrap();
        for k in 0..50 {
            let va = a.step(1e-9);
            let vb = b.try_step(1e-9).expect("stable grid step succeeds");
            assert_eq!(va.to_bits(), vb.to_bits(), "divergence at step {k}");
        }
        for (da, db) in a.delta.iter().zip(&b.delta) {
            assert_eq!(da.to_bits(), db.to_bits());
        }
        // A pathological injection diverges as a typed error, no panic.
        let mut g = settled_grid();
        g.inject(NodeId { x: 0, y: 0 }, 1e300).unwrap();
        assert!(matches!(g.try_step(1e-9), Err(PdnError::SolverDiverged { .. })));
    }
}
