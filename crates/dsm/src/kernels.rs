//! The five applications' inner loops, and the one switch they honor.
//!
//! Every kernel has one body under its undecorated name, performing
//! exactly the operations, in exactly the order, of the loop it replaced
//! in the seed engines, so every engine stays bit-identical to serial.
//!
//! The one sanctioned exception is opt-in per run through [`MathMode`],
//! and it touches only the two reassociating reductions, [`dot`] and
//! [`gather_sum`]:
//!
//! - [`MathMode::Exact`] (the default) runs [`dot_serial`] /
//!   [`gather_sum_serial`]: a left-to-right fold from zero.
//! - [`MathMode::FastMath`] runs [`dot_lanes`] / [`gather_sum_lanes`]:
//!   [`LANES`] independent accumulators over `chunks_exact(LANES)`, the
//!   remainder (`len % LANES` elements) folded serially, and the lanes
//!   combined by a fixed-shape pairwise fold. Under
//!   `#[forbid(unsafe_code)]` and the stable toolchain this is the shape
//!   the compiler reliably lowers to SIMD. The results are deterministic
//!   run to run but associated differently from serial, so they are
//!   validated by convergence-equivalence tests rather than
//!   bit-identity. Lengths `< LANES` have no full chunk and degrade to
//!   the serial sum.
//!
//! There is no compile-time kernel switch: every build honors both
//! modes. The order-preserving kernels have no lane variant: measured
//! against the serial bodies, none moved an end-to-end run
//! (EXPERIMENTS.md, "Exact vs FastMath kernels").

use crate::element::Float;

/// Lane width of the FastMath reductions. Eight 32-bit lanes fill a
/// 256-bit vector; on 128-bit-only targets the compiler splits each
/// chunk into two operations, which still breaks the serial dependence
/// chain.
pub const LANES: usize = 8;

/// Floating-point contract for reassociating reductions, carried by the
/// Driver and opted into per run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MathMode {
    /// Reductions run in serial order: results are bit-identical to the
    /// seed engines. The default.
    #[default]
    Exact,
    /// Reductions reassociate into [`LANES`] independent partial sums
    /// (deterministic, but not bit-identical to serial).
    FastMath,
}

// ---------------------------------------------------------------------------
// Reductions (reassociating under FastMath)
// ---------------------------------------------------------------------------

/// Serial dot product: `sum(a[i] * b[i])` folded left-to-right from zero,
/// truncating to the shorter slice. Bit-identical to
/// `a.iter().zip(b).map(|(x, y)| x * y).sum()`.
pub fn dot_serial<T: Float>(a: &[T], b: &[T]) -> T {
    let mut acc = T::NEG_ZERO;
    for (x, y) in a.iter().zip(b) {
        acc += *x * *y;
    }
    acc
}

/// Lane dot product: [`LANES`] independent accumulators over exact
/// chunks, a serial remainder, then a fixed-shape pairwise lane fold.
/// Deterministic but reassociated relative to [`dot_serial`].
pub fn dot_lanes<T: Float>(a: &[T], b: &[T]) -> T {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [T::ZERO; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..LANES {
            acc[j] += xa[j] * xb[j];
        }
    }
    let mut tail = T::NEG_ZERO;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += *x * *y;
    }
    fold_lanes(acc) + tail
}

/// Dispatching dot product (sgd_mf prediction, serving scores): serial
/// under [`MathMode::Exact`], lanes under [`MathMode::FastMath`].
/// Inlined so call sites passing a constant mode fold the branch away.
#[inline]
pub fn dot<T: Float>(a: &[T], b: &[T], mode: MathMode) -> T {
    match mode {
        MathMode::Exact => dot_serial(a, b),
        MathMode::FastMath => dot_lanes(a, b),
    }
}

/// Serial gather-sum (slr margin): `sum(get(idx[i]))` folded
/// left-to-right from zero. Bit-identical to
/// `idx.iter().map(|&f| get(f)).sum()`.
pub fn gather_sum_serial<T: Float>(idx: &[u32], mut get: impl FnMut(u32) -> T) -> T {
    let mut acc = T::NEG_ZERO;
    for &f in idx {
        acc += get(f);
    }
    acc
}

/// Lane gather-sum: gathers [`LANES`] values per chunk into independent
/// accumulators, then pairwise-folds. Reassociated relative to
/// [`gather_sum_serial`]; `get` is still called in ascending index
/// order.
pub fn gather_sum_lanes<T: Float>(idx: &[u32], mut get: impl FnMut(u32) -> T) -> T {
    let mut acc = [T::ZERO; LANES];
    let mut chunks = idx.chunks_exact(LANES);
    for chunk in &mut chunks {
        for j in 0..LANES {
            acc[j] += get(chunk[j]);
        }
    }
    let mut tail = T::NEG_ZERO;
    for &f in chunks.remainder() {
        tail += get(f);
    }
    fold_lanes(acc) + tail
}

/// Dispatching gather-sum (the slr margin, sparse serving scores).
/// Inlined so call sites passing a constant mode fold the branch away.
#[inline]
pub fn gather_sum<T: Float>(idx: &[u32], get: impl FnMut(u32) -> T, mode: MathMode) -> T {
    match mode {
        MathMode::Exact => gather_sum_serial(idx, get),
        MathMode::FastMath => gather_sum_lanes(idx, get),
    }
}

/// Fixed-shape pairwise fold of the lane accumulators:
/// width 8 → 4 → 2 → 1. The shape never depends on input length, so
/// FastMath results are reproducible run to run.
fn fold_lanes<T: Float>(mut acc: [T; LANES]) -> T {
    let mut width = LANES / 2;
    while width > 0 {
        for j in 0..width {
            acc[j] += acc[j + width];
        }
        width /= 2;
    }
    acc[0]
}

/// Three-way product sum (tensor_cp prediction):
/// `sum(u[c] * v[c] * s[c])` folded left-to-right from zero.
pub fn cp_predict<T: Float>(u: &[T], v: &[T], s: &[T]) -> T {
    let n = u.len().min(v.len()).min(s.len());
    let mut acc = T::NEG_ZERO;
    for c in 0..n {
        acc += u[c] * v[c] * s[c];
    }
    acc
}

// ---------------------------------------------------------------------------
// Order-preserving kernels (bit-identical in every mode)
// ---------------------------------------------------------------------------

/// Paired row update (sgd_mf): with `coef = step · 2 · diff`, performs
/// the simultaneous update `w[i] = w[i] + coef * h[i]`,
/// `h[i] = h[i] + coef * w_old[i]`, truncating to the shorter slice.
pub fn mf_update_rows<T: Float>(w: &mut [T], h: &mut [T], coef: T) {
    for (wx, hx) in w.iter_mut().zip(h.iter_mut()) {
        let (w0, h0) = (*wx, *hx);
        *wx = w0 + coef * h0;
        *hx = h0 + coef * w0;
    }
}

/// The full sgd_mf cell body: predict (reduction, mode-dispatched),
/// compute the gradient coefficient, apply the paired row update
/// (order-preserving), and return the squared residual.
pub fn mf_row_update<T: Float>(w: &mut [T], h: &mut [T], v: T, step: T, mode: MathMode) -> f64 {
    let pred = dot(w, h, mode);
    let diff = v - pred;
    let coef = step * T::TWO * diff;
    mf_update_rows(w, h, coef);
    diff.to_f64().powi(2)
}

/// Tensor_cp row update: with gradient coefficient `g`, updates `u` and
/// `v` in place and emits the third-mode delta `g · u0 · v0` for each
/// column `c` through `emit` (in ascending `c` order — the caller routes
/// these into a [`DistArrayBuffer`](crate::DistArrayBuffer)).
pub fn cp_update_rows<T: Float>(
    u: &mut [T],
    v: &mut [T],
    s: &[T],
    g: T,
    mut emit: impl FnMut(usize, T),
) {
    let n = u.len().min(v.len()).min(s.len());
    for c in 0..n {
        let (u0, v0, s0) = (u[c], v[c], s[c]);
        u[c] = u0 + g * v0 * s0;
        v[c] = v0 + g * u0 * s0;
        emit(c, g * u0 * v0);
    }
}

/// LDA topic CDF (the count-histogram weight loop of a Gibbs cell):
/// writes the running cumulative weight
/// `w_t = (dt[t] + α)(wt[t] + β) / (max(ts[t], 0) + Vβ)` into
/// `weights[t]` and returns the total mass.
pub fn topic_cdf<T: Float>(
    dt: &[u32],
    wt: &[u32],
    ts: &[i64],
    alpha: T,
    beta: T,
    vbeta: T,
    weights: &mut [T],
) -> T {
    let k = dt.len().min(wt.len()).min(ts.len()).min(weights.len());
    let mut total = T::ZERO;
    for t in 0..k {
        let w = (T::from_f64(dt[t] as f64) + alpha) * (T::from_f64(wt[t] as f64) + beta)
            / (T::from_f64(ts[t].max(0) as f64) + vbeta);
        total += w;
        weights[t] = total;
    }
    total
}

/// One gradient-histogram bin: the gradient sum (kept at the gradient's
/// own precision — no silent narrowing) and the sample count.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BinStat<G: Float> {
    /// Sum of gradients landing in this bin.
    pub sum: G,
    /// Number of samples landing in this bin.
    pub count: u64,
}

/// Gbt feature histogram: for feature `feature`, quantizes every
/// sample's value into one of `n_bins` buckets and accumulates its
/// gradient into `hist[slot * n_bins + bin]` in ascending sample order,
/// skipping samples whose node maps to `no_slot`. `F` is the feature
/// dtype, `G` the gradient dtype; they are independent so f64 gradients
/// never narrow through a f32 feature array.
#[allow(clippy::too_many_arguments)]
pub fn feature_histogram<F: Float, G: Float>(
    feature: usize,
    n_samples: usize,
    n_features: usize,
    n_bins: usize,
    features: &[F],
    slot_of_node: &[usize],
    assign: &[usize],
    grads: &[G],
    no_slot: usize,
    hist: &mut [BinStat<G>],
) {
    let nb = F::from_f64(n_bins as f64);
    for i in 0..n_samples {
        let slot = slot_of_node[assign[i]];
        if slot == no_slot {
            continue;
        }
        let bin = ((features[i * n_features + feature] * nb).to_f64() as usize).min(n_bins - 1);
        let s = &mut hist[slot * n_bins + bin];
        s.sum += grads[i];
        s.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32) * 0.25 - 3.0).collect()
    }

    #[test]
    fn dot_serial_matches_iterator_sum() {
        for n in 0..20 {
            let a = ramp(n);
            let b: Vec<f32> = a.iter().map(|x| x * 0.5 + 1.0).collect();
            let want: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert_eq!(dot_serial(&a, &b).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn dot_lanes_close_to_serial() {
        let a = ramp(1003);
        let b: Vec<f32> = a.iter().map(|x| x * -0.125).collect();
        let s = dot_serial(&a, &b) as f64;
        let l = dot_lanes(&a, &b) as f64;
        assert!((s - l).abs() <= s.abs().max(1.0) * 1e-4, "{s} vs {l}");
    }

    #[test]
    fn math_mode_selects_the_reduction_order() {
        let a = ramp(100);
        let b: Vec<f32> = a.iter().map(|x| x * 0.3 + 0.1).collect();
        let exact = dot(&a, &b, MathMode::Exact);
        assert_eq!(exact.to_bits(), dot_serial(&a, &b).to_bits());
        let fast = dot(&a, &b, MathMode::FastMath);
        assert_eq!(fast.to_bits(), dot_lanes(&a, &b).to_bits());
        // The fixture is long enough for the lane fold to reassociate:
        // FastMath is a different sum, not the serial one relabelled.
        assert_ne!(fast.to_bits(), exact.to_bits());

        let idx: Vec<u32> = (0..100).collect();
        let get = |f: u32| a[f as usize];
        let gexact = gather_sum(&idx, get, MathMode::Exact);
        assert_eq!(gexact.to_bits(), gather_sum_serial(&idx, get).to_bits());
        let gfast = gather_sum(&idx, get, MathMode::FastMath);
        assert_eq!(gfast.to_bits(), gather_sum_lanes(&idx, get).to_bits());
    }
}
