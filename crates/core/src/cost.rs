//! The Qlosure SWAP-cost heuristic `M(s)` (paper Eq. 2).

use crate::layout::Layout;
use topology::DistanceMatrix;

/// Which cost components are active — the axes of the paper's §VI-E
/// ablation study.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CostVariant {
    /// Distance of front-layer gates only (ablation baseline (a)).
    DistanceOnly,
    /// Layer discount `1/ℓ` and per-layer normalization, unit gate weights
    /// (ablation (b)).
    LayerAdjusted,
    /// Full Eq. (2): transitive dependence weights `ω` on top of the layer
    /// machinery (ablation (c); the Qlosure default).
    #[default]
    DependencyWeighted,
}

/// One look-ahead gate with everything `M` needs to score it.
#[derive(Clone, Copy, Debug)]
pub struct ScoredGate {
    /// Logical operands.
    pub q1: u32,
    /// Logical operands.
    pub q2: u32,
    /// Transitive dependence weight `ω` of the gate.
    pub omega: u64,
    /// Dependence-distance layer `ℓ >= 1` (1 = front layer).
    pub layer: u32,
}

/// How the raw transitive-successor count enters the cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OmegaScaling {
    /// Use `ω` as-is (the paper's Eq. 2 verbatim).
    #[default]
    Linear,
    /// Use `√ω` — compresses the dominance of early high-criticality
    /// gates.
    Sqrt,
    /// Use `ln(1 + ω)`.
    Log,
}

/// Evaluator for the composite cost
/// `M(s) = max(δ_{p1}, δ_{p2}) · Σ_ℓ Γ_ℓ / |G_ℓ|` with
/// `Γ_ℓ = Σ_{g ∈ G_ℓ} ω_g · D[φ_s(g_{q1}), φ_s(g_{q2})] / ℓ`.
///
/// Gate weights are smoothed to `ω + smoothing` so that gates with no
/// transitive dependents (the tail of the circuit) still exert distance
/// pressure; `smoothing = 1` by default, set it to 0 (with
/// [`OmegaScaling::Linear`]) to evaluate the paper's formula verbatim.
///
/// The evaluation is exact up to one shared float fold. Each gate's
/// weight is an integer (`ω + smoothing` under [`OmegaScaling::Linear`],
/// 1 under the ablation variants that ignore ω), so each layer's
/// `ℓ · Γ_ℓ = S_ℓ = Σ w_g · D[g]` is an exact `u64`, and the cost is
/// `decay · Σ_ℓ fw_ℓ · (S_ℓ / ℓ) / |G_ℓ|` over those sums (`fw_1 = 1`,
/// the future weight beyond). [`OmegaScaling::Sqrt`] and
/// [`OmegaScaling::Log`] weights are fixed point, `round(f(ω + smoothing)
/// · 2¹⁶)`, and the fold applies the `2⁻¹⁶`; that keeps the cost within
/// `2⁻¹⁶` relative of the real-valued formula. The router's batched
/// scorer adjusts the same sums by exact integer deltas and calls the same
/// fold, so it agrees with [`SwapCost::score`] bit for bit.
#[derive(Clone, Debug)]
pub struct SwapCost {
    variant: CostVariant,
    smoothing: u64,
    scaling: OmegaScaling,
    future_weight: f64,
}

/// Fixed-point scale of the [`OmegaScaling::Sqrt`] and
/// [`OmegaScaling::Log`] gate weights.
const FIXED_ONE: f64 = (1u64 << 16) as f64;

impl SwapCost {
    /// Creates an evaluator with the default ω scaling and future weight.
    pub fn new(variant: CostVariant, smoothing: u64) -> Self {
        SwapCost {
            variant,
            smoothing,
            scaling: OmegaScaling::default(),
            future_weight: 1.0,
        }
    }

    /// Creates an evaluator with an explicit ω scaling and a weight on the
    /// non-front layers (`ℓ >= 2`); `future_weight = 1.0` evaluates
    /// Eq. (2) verbatim, smaller values re-balance toward the front layer
    /// (needed when look-ahead layers are singletons, e.g. sequential
    /// kernels, where the harmonic sum of `1/ℓ` would otherwise outweigh
    /// the blocked gate itself).
    pub fn with_scaling(
        variant: CostVariant,
        smoothing: u64,
        scaling: OmegaScaling,
        future_weight: f64,
    ) -> Self {
        SwapCost {
            variant,
            smoothing,
            scaling,
            future_weight,
        }
    }

    /// The active variant.
    pub fn variant(&self) -> CostVariant {
        self.variant
    }

    /// The integer weight `w` of a gate with dependence weight `omega`.
    pub(crate) fn gate_weight(&self, omega: u64) -> u64 {
        if self.variant != CostVariant::DependencyWeighted {
            return 1;
        }
        let raw = omega + self.smoothing;
        let f = match self.scaling {
            OmegaScaling::Linear => return raw,
            OmegaScaling::Sqrt => (raw as f64).sqrt(),
            OmegaScaling::Log => (raw as f64).ln_1p(),
        };
        (f * FIXED_ONE).round() as u64
    }

    /// Folds per-layer sums `S_ℓ = Σ w · D` and sizes `|G_ℓ|` into the
    /// cost `decay · Σ_ℓ fw_ℓ · (S_ℓ · disc_ℓ) / |G_ℓ|`, with the layer
    /// discount `disc_ℓ = 1/ℓ` (1 under [`CostVariant::DistanceOnly`]).
    /// The one float step of both [`SwapCost::score`] and the router's
    /// batched scorer.
    pub(crate) fn fold(&self, sums: &[u64], sizes: &[u32], decay: f64) -> f64 {
        let unit = match (self.variant, self.scaling) {
            (CostVariant::DependencyWeighted, OmegaScaling::Sqrt | OmegaScaling::Log) => {
                FIXED_ONE.recip()
            }
            _ => 1.0,
        };
        let sum: f64 = sums
            .iter()
            .zip(sizes)
            .enumerate()
            .filter(|&(_, (_, &n))| n > 0)
            .map(|(i, (&s, &n))| {
                let fw = if i == 0 { 1.0 } else { self.future_weight };
                let disc = match self.variant {
                    CostVariant::DistanceOnly => 1.0,
                    _ => 1.0 / (i + 1) as f64,
                };
                fw * (s as f64 * unit * disc) / n as f64
            })
            .sum();
        decay * sum
    }

    /// Scores the tentative layout `φs` (the layout *after* the candidate
    /// swap) against the layered look-ahead window.
    ///
    /// Layers are taken from each gate's `layer` (0 counts as 1); only
    /// layer 1 is consulted by [`CostVariant::DistanceOnly`].
    pub fn score(
        &self,
        gates: &[ScoredGate],
        layout: &Layout,
        dist: &DistanceMatrix,
        decay: f64,
    ) -> f64 {
        let mut sums: Vec<u64> = Vec::new();
        let mut sizes: Vec<u32> = Vec::new();
        for g in gates {
            let layer = g.layer.max(1) as usize;
            if self.variant == CostVariant::DistanceOnly && layer > 1 {
                continue;
            }
            if sums.len() < layer {
                sums.resize(layer, 0);
                sizes.resize(layer, 0);
            }
            let d = dist.get(layout.phys(g.q1), layout.phys(g.q2));
            sums[layer - 1] += self.gate_weight(g.omega) * u64::from(d);
            sizes[layer - 1] += 1;
        }
        self.fold(&sums, &sizes, decay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::backends;

    fn line_ctx(n: usize) -> (topology::CouplingGraph, DistanceMatrix) {
        let g = backends::line(n);
        let d = g.distances();
        (g, d)
    }

    fn sg(q1: u32, q2: u32, omega: u64, layer: u32) -> ScoredGate {
        ScoredGate {
            q1,
            q2,
            omega,
            layer,
        }
    }

    #[test]
    fn distance_only_scores_front_distance() {
        let (_, d) = line_ctx(6);
        let layout = Layout::identity(6, 6);
        let cost = SwapCost::new(CostVariant::DistanceOnly, 1);
        // Front gate (0, 4): distance 4. Deeper layers ignored.
        let gates = [sg(0, 4, 10, 1), sg(1, 5, 99, 2)];
        let score = cost.score(&gates, &layout, &d, 1.0);
        assert!((score - 4.0).abs() < 1e-9);
    }

    #[test]
    fn layer_adjusted_discounts_deeper_layers() {
        let (_, d) = line_ctx(8);
        let layout = Layout::identity(8, 8);
        let cost = SwapCost::new(CostVariant::LayerAdjusted, 1);
        // Same distance in layer 1 vs layer 2: layer 2 contributes half.
        let l1 = cost.score(&[sg(0, 3, 0, 1)], &layout, &d, 1.0);
        let l2 = cost.score(&[sg(0, 3, 0, 2)], &layout, &d, 1.0);
        assert!((l1 - 3.0).abs() < 1e-9);
        assert!((l2 - 1.5).abs() < 1e-9);
    }

    #[test]
    fn dependency_weighting_prefers_freeing_low_omega_gates() {
        let (_, d) = line_ctx(8);
        let cost = SwapCost::new(CostVariant::DependencyWeighted, 1);
        // Two candidate layouts; the gate with high omega dominates the
        // score, so the layout shortening *its* distance wins.
        let heavy = sg(0, 4, 50, 1);
        let light = sg(5, 7, 0, 1);
        // Layout A: identity — heavy at distance 4, light at 2.
        let a = Layout::identity(8, 8);
        // Layout B: swap(1, 2)-like permutation bringing heavy closer:
        let b = Layout::from_assignment(&[1, 0, 2, 3, 4, 5, 6, 7], 8);
        let score_a = cost.score(&[heavy, light], &a, &d, 1.0);
        let score_b = cost.score(&[heavy, light], &b, &d, 1.0);
        assert!(score_b < score_a);
    }

    #[test]
    fn normalization_divides_by_layer_size() {
        let (_, d) = line_ctx(10);
        let layout = Layout::identity(10, 10);
        let cost = SwapCost::new(CostVariant::LayerAdjusted, 1);
        // One gate at distance 2 vs two gates at distance 2 each: same
        // normalized contribution.
        let one = cost.score(&[sg(0, 2, 0, 1)], &layout, &d, 1.0);
        let two = cost.score(&[sg(0, 2, 0, 1), sg(4, 6, 0, 1)], &layout, &d, 1.0);
        assert!((one - two).abs() < 1e-9);
    }

    #[test]
    fn decay_scales_multiplicatively() {
        let (_, d) = line_ctx(4);
        let layout = Layout::identity(4, 4);
        let cost = SwapCost::new(CostVariant::DependencyWeighted, 1);
        let gates = [sg(0, 3, 2, 1)];
        let base = cost.score(&gates, &layout, &d, 1.0);
        let decayed = cost.score(&gates, &layout, &d, 1.002);
        assert!((decayed / base - 1.002).abs() < 1e-9);
    }

    #[test]
    fn smoothing_keeps_terminal_gates_visible() {
        let (_, d) = line_ctx(6);
        let layout = Layout::identity(6, 6);
        let smoothed = SwapCost::new(CostVariant::DependencyWeighted, 1);
        let verbatim = SwapCost::new(CostVariant::DependencyWeighted, 0);
        let gates = [sg(0, 4, 0, 1)]; // terminal gate, ω = 0
        assert!(smoothed.score(&gates, &layout, &d, 1.0) > 0.0);
        assert_eq!(verbatim.score(&gates, &layout, &d, 1.0), 0.0);
    }

    #[test]
    fn linear_weights_are_exactly_omega_plus_smoothing() {
        for smoothing in [0, 1, 7] {
            let cost = SwapCost::new(CostVariant::DependencyWeighted, smoothing);
            for omega in [0, 1, 2, 1000, u64::from(u32::MAX)] {
                assert_eq!(cost.gate_weight(omega), omega + smoothing);
            }
        }
        for variant in [CostVariant::DistanceOnly, CostVariant::LayerAdjusted] {
            assert_eq!(SwapCost::new(variant, 1).gate_weight(99), 1);
        }
    }

    #[test]
    fn fixed_point_scalings_stay_within_two_to_the_minus_16_of_the_real_fold() {
        // The real-valued Eq. (2) with f64 weights √(ω+s) or ln(1+ω+s),
        // accumulated per layer as (w · D) / ℓ, future weight 0.5.
        fn real(
            scaling: OmegaScaling,
            smoothing: u64,
            gates: &[ScoredGate],
            layout: &Layout,
            d: &DistanceMatrix,
        ) -> f64 {
            let mut gamma = [0.0f64; 4];
            let mut sizes = [0u32; 4];
            for g in gates {
                let raw = (g.omega + smoothing) as f64;
                let w = match scaling {
                    OmegaScaling::Sqrt => raw.sqrt(),
                    _ => raw.ln_1p(),
                };
                let l = g.layer as usize;
                let dist = f64::from(d.get(layout.phys(g.q1), layout.phys(g.q2)));
                gamma[l - 1] += w * dist / l as f64;
                sizes[l - 1] += 1;
            }
            (0..4)
                .filter(|&i| sizes[i] > 0)
                .map(|i| if i == 0 { 1.0 } else { 0.5 } * gamma[i] / f64::from(sizes[i]))
                .sum()
        }
        let (_, d) = line_ctx(12);
        let layout = Layout::from_assignment(&[3, 11, 0, 7, 5, 1, 9, 2, 10, 4, 8, 6], 12);
        let gates = [
            sg(0, 1, 0, 1),
            sg(2, 3, 5, 1),
            sg(4, 5, 1, 2),
            sg(6, 7, 40, 2),
            sg(8, 9, 3, 3),
            sg(10, 11, 1234, 4),
            sg(1, 8, 2, 4),
        ];
        for scaling in [OmegaScaling::Sqrt, OmegaScaling::Log] {
            for smoothing in [0, 1] {
                let cost = SwapCost::with_scaling(
                    CostVariant::DependencyWeighted,
                    smoothing,
                    scaling,
                    0.5,
                );
                let fixed = cost.score(&gates, &layout, &d, 1.0);
                let exact = real(scaling, smoothing, &gates, &layout, &d);
                assert!(exact > 0.0);
                let rel = ((fixed - exact) / exact).abs();
                assert!(
                    rel <= 1.0 / 65536.0,
                    "{scaling:?} smoothing {smoothing}: {fixed} vs {exact} (rel {rel:e})"
                );
            }
        }
    }
}
