//! One-dimensional Gaussian kernel density estimation.
//!
//! k-Graph creates graph nodes at the *local maxima of the radial density*
//! inside each angular sector of the PCA projection. [`Kde`] estimates the
//! density of the radial distances; [`Kde::local_maxima_on_grid`] extracts
//! the modes that become nodes.
//!
//! # Grid evaluation by Gaussian recurrence
//!
//! [`Kde::density`] is exact: one `exp` per sample point. Evaluating it at
//! every cell of an `n`-cell grid would cost `n` `exp` calls per point,
//! which made node extraction the largest k-Graph fit stage.
//! [`Kde::evaluate_grid`] instead walks each point outward from its nearest
//! cell `j0` and uses the fact that, on a uniform grid, consecutive kernel
//! values form a Gaussian recurrence. With `d = step / h` and
//! `u = (x − p) / h` at the anchor cell,
//!
//! ```text
//! g_{k+1} = g_k · q_k,   q_{k+1} = q_k · c,   c = exp(−d²),
//! g_0 = exp(−u²/2),      q_0 = exp(∓u·d − d²/2)  (∓ for right/left).
//! ```
//!
//! That is three `exp` calls per point (`g_0` and one `q_0` per direction)
//! plus one `c` per grid; the rest are multiplies. Two details keep it
//! safe and exact:
//!
//! * **No overflow.** `q_0` is one `exp` of an exponent that is `≤ 0`
//!   whenever the walk moves away from the point (the anchor is the nearest
//!   cell, so `|u| ≤ d/2`, or the point lies outside the grid on the side
//!   the walk leaves). Splitting it as `exp(∓u·d) · exp(−d²/2)` would
//!   overflow to `inf · 0 = NaN` once `d` is in the hundreds, which a
//!   near-constant sector with a floored bandwidth reaches. A direction
//!   stops once `g` falls below [`UNDERFLOW`].
//! * **Error bound.** The recurrence runs on the ideal lattice
//!   `û = u + k·d`. The stored grid value `lo + step·j` is rounded, which
//!   moves a kernel value by about `|u|·δ` of the point's peak, where `δ`
//!   is the rounding in bandwidths: at most about `ε·(|lo| + |hi|)/h`
//!   (`ε` the `f64` epsilon). While `δ` is below [`ROUNDING_FLOOR`] that
//!   shift is ignored; above it, each cell is moved to the stored value by
//!   the factor `exp(−(u_j² − û_j²)/2)`, taken to first order while the
//!   exponent is below `1e-7` and exactly otherwise, so the result tracks
//!   [`Kde::density`] at the returned grid points even far from zero. The
//!   rounding of `c` is raised to the power `k(k−1)/2` after `k` steps;
//!   weighted by the kernel value that is at most about `ε / (e·d²)` of
//!   the point's peak. For fine grids (`d < 1/16`) the walk re-anchors with
//!   two exact `exp` calls every [`REANCHOR_STEPS`] cells, which caps the
//!   term at `ε·REANCHOR_STEPS²/2 ≈ 6e-14`. Every grid value is therefore
//!   within about `1e-13 ×` the grid's peak of pointwise [`Kde::density`];
//!   the unit tests hold it to `1e-12 ×` peak against the old per-cell
//!   loop.
//!
//! Each cell still sums the points in sample order and applies the
//! normalisation once, exactly like [`Kde::density`].

/// Kernel values below this end a walk: the Gaussian only shrinks further
/// from the point, and such terms are far below any grid peak.
const UNDERFLOW: f64 = 1e-300;

/// Below this many bandwidths of rounding in the stored grid values
/// (`ε·(|lo| + |hi|) / h`), the kernel values on the ideal lattice are
/// within about `0.6 × ROUNDING_FLOOR` of their peak of those at the stored
/// values and need no per-cell correction. k-Graph's sectors sit far below
/// it; a near-constant sector with a floored bandwidth does not.
const ROUNDING_FLOOR: f64 = 1e-13;

/// On grids finer than `d = 1/16` bandwidths per cell, the recurrence is
/// re-anchored with exact `exp` calls every this many cells to bound the
/// growth of the rounding error of `c = exp(−d²)`.
const REANCHOR_STEPS: usize = 32;

/// A 1-D Gaussian KDE over a sample of points.
#[derive(Debug, Clone)]
pub struct Kde {
    points: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    /// Creates a KDE with an explicit bandwidth (> 0).
    pub fn with_bandwidth(points: Vec<f64>, bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "KDE bandwidth must be positive");
        Kde { points, bandwidth }
    }

    /// Creates a KDE with Silverman's rule-of-thumb bandwidth:
    /// `0.9 · min(σ̂, IQR/1.34) · n^{−1/5}` (floored to a small epsilon so
    /// near-constant samples still work).
    pub fn silverman(points: Vec<f64>) -> Self {
        let bw = silverman_bandwidth(&points).max(1e-6);
        Kde {
            points,
            bandwidth: bw,
        }
    }

    /// The sample the KDE was built from.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Density estimate at `x`.
    pub fn density(&self, x: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let h = self.bandwidth;
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * self.points.len() as f64);
        self.points
            .iter()
            .map(|&p| {
                let u = (x - p) / h;
                (-0.5 * u * u).exp()
            })
            .sum::<f64>()
            * norm
    }

    /// Evaluates the density on `n` equally spaced points of `[lo, hi]`.
    ///
    /// Returns `(grid, densities)`. The densities come from the Gaussian
    /// recurrence described in the module docs: about three `exp` calls per
    /// sample point instead of one per point per cell, within about `1e-13 ×`
    /// the grid's peak of [`Self::density`] at every grid point.
    pub fn evaluate_grid(&self, lo: f64, hi: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
        if n == 0 || hi < lo {
            return (Vec::new(), Vec::new());
        }
        if n == 1 {
            let x = (lo + hi) / 2.0;
            return (vec![x], vec![self.density(x)]);
        }
        let step = (hi - lo) / (n - 1) as f64;
        let grid: Vec<f64> = (0..n).map(|i| lo + step * i as f64).collect();
        let mut dens = vec![0.0; n];
        if self.points.is_empty() {
            return (grid, dens);
        }
        let h = self.bandwidth;
        let walk = Walk::new(lo, hi, h, step / h);
        for &p in &self.points {
            let j0 = ((p - lo) / step).round().clamp(0.0, (n - 1) as f64) as usize;
            let u0 = (grid[j0] - p) / h;
            let g0 = (-0.5 * u0 * u0).exp();
            if g0 < UNDERFLOW {
                // The nearest cell carries the point's largest kernel value.
                continue;
            }
            dens[j0] += g0;
            let (left, right) = dens.split_at_mut(j0);
            let (left_x, right_x) = grid.split_at(j0);
            let right = right[1..].iter_mut().zip(&right_x[1..]);
            let left = left.iter_mut().rev().zip(left_x.iter().rev());
            walk.add(right, p, u0, g0, 1.0);
            walk.add(left, p, u0, g0, -1.0);
        }
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * self.points.len() as f64);
        for v in &mut dens {
            *v *= norm;
        }
        (grid, dens)
    }

    /// Finds local maxima of the density on a grid over the sample range
    /// (padded by one bandwidth on each side).
    ///
    /// A grid point is a local maximum when its density is strictly greater
    /// than both neighbours (plateaus report their left edge) and at least
    /// `min_density_ratio` times the global peak. Returns the mode
    /// locations, most prominent first.
    pub fn local_maxima_on_grid(&self, grid_size: usize, min_density_ratio: f64) -> Vec<f64> {
        if self.points.is_empty() || grid_size < 3 {
            return Vec::new();
        }
        let (lo, hi) = self.padded_range();
        let (grid, dens) = self.evaluate_grid(lo, hi, grid_size);
        grid_maxima(&grid, &dens, min_density_ratio)
    }

    /// The sample range padded by one bandwidth on each side.
    fn padded_range(&self) -> (f64, f64) {
        let lo = self.points.iter().cloned().fold(f64::INFINITY, f64::min) - self.bandwidth;
        let hi = self
            .points
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
            + self.bandwidth;
        (lo, hi)
    }
}

/// The local maxima of `dens` over `grid` that reach `min_density_ratio`
/// of the peak, most prominent first (see [`Kde::local_maxima_on_grid`]).
fn grid_maxima(grid: &[f64], dens: &[f64], min_density_ratio: f64) -> Vec<f64> {
    let peak = dens.iter().cloned().fold(0.0f64, f64::max);
    if peak <= 0.0 {
        return Vec::new();
    }
    let threshold = peak * min_density_ratio.clamp(0.0, 1.0);
    let mut maxima: Vec<(f64, f64)> = Vec::new();
    for i in 1..grid.len() - 1 {
        if dens[i] >= dens[i - 1] && dens[i] > dens[i + 1] && dens[i] >= threshold {
            // Skip plateau interiors: require a strict rise somewhere
            // to the left.
            let mut j = i;
            while j > 0 && dens[j - 1] == dens[i] {
                j -= 1;
            }
            if j == 0 || dens[j - 1] < dens[i] {
                maxima.push((grid[i], dens[i]));
            }
        }
    }
    // Interior-free edge case: single-mode density can peak at an
    // endpoint of the padded grid only if the pad is too small; with a
    // 1-bandwidth pad the Gaussian tails guarantee interior maxima.
    maxima.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN density"));
    maxima.into_iter().map(|(x, _)| x).collect()
}

/// The per-grid constants of the Gaussian recurrence, and one point's walk
/// from its anchor cell towards one end of the grid.
struct Walk {
    h: f64,
    /// Grid step in bandwidths.
    d: f64,
    /// `exp(−d²)`: the factor between consecutive step ratios.
    c: f64,
    /// Cells between exact re-anchors (`usize::MAX`: never).
    reanchor: usize,
    /// Whether the stored grid values stray far enough from the ideal
    /// lattice (in bandwidths) that each cell needs [`Walk::on_grid`].
    fix_rounding: bool,
}

impl Walk {
    fn new(lo: f64, hi: f64, h: f64, d: f64) -> Self {
        Walk {
            h,
            d,
            c: (-d * d).exp(),
            reanchor: if d < 1.0 / 16.0 {
                REANCHOR_STEPS
            } else {
                usize::MAX
            },
            fix_rounding: f64::EPSILON * (lo.abs() + hi.abs()) / h > ROUNDING_FLOOR,
        }
    }

    /// Adds point `p`'s kernel values to the `(density, grid value)` cells,
    /// which step away from an anchor cell (kernel value `g`,
    /// `u = u_anchor`) in direction `dir` (`+1.0` right, `-1.0` left).
    fn add<'a>(
        &self,
        cells: impl Iterator<Item = (&'a mut f64, &'a f64)>,
        p: f64,
        mut u_anchor: f64,
        mut g: f64,
        dir: f64,
    ) {
        let d = self.d;
        // One exp of an exponent ≤ 0 while the walk moves away from `p`.
        let first_ratio = |u: f64| (-(dir * u) * d - 0.5 * d * d).exp();
        let mut q = first_ratio(u_anchor);
        let mut k = 0usize;
        for (dens, &x) in cells {
            k += 1;
            if k == self.reanchor {
                k = 0;
                u_anchor = (x - p) / self.h;
                g = (-0.5 * u_anchor * u_anchor).exp();
                q = first_ratio(u_anchor);
                if g < UNDERFLOW {
                    break;
                }
                *dens += g;
                continue;
            }
            g *= q;
            q *= self.c;
            if g < UNDERFLOW {
                break;
            }
            *dens += if self.fix_rounding {
                self.on_grid(g, x, p, u_anchor + dir * d * k as f64)
            } else {
                g
            };
        }
    }

    /// Moves the kernel value `g` at the lattice point `u_ideal` to the
    /// stored grid value `x`, which its rounding shifted to `u`: a factor
    /// `exp(−(u² − u_ideal²)/2)`, to first order unless the shift is large.
    fn on_grid(&self, g: f64, x: f64, p: f64, u_ideal: f64) -> f64 {
        let u = (x - p) / self.h;
        let gap = 0.5 * (u - u_ideal) * (u + u_ideal);
        if gap.abs() < 1e-7 {
            g - g * gap
        } else {
            (-0.5 * u * u).exp()
        }
    }
}

/// Silverman's rule-of-thumb bandwidth for a 1-D sample.
pub fn silverman_bandwidth(points: &[f64]) -> f64 {
    let n = points.len();
    if n < 2 {
        return 1.0;
    }
    let mean = points.iter().sum::<f64>() / n as f64;
    let var = points.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n as f64;
    let sd = var.sqrt();
    let mut sorted = points.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in KDE sample"));
    let q = |f: f64| {
        let h = f * (n - 1) as f64;
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        }
    };
    let iqr = q(0.75) - q(0.25);
    let spread = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
    0.9 * spread.max(f64::MIN_POSITIVE) * (n as f64).powf(-0.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The exact grid path the recurrence replaced: pointwise
    /// [`Kde::density`] at every cell. The parity oracle.
    fn exact_grid(kde: &Kde, lo: f64, hi: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
        if n == 0 || hi < lo {
            return (Vec::new(), Vec::new());
        }
        if n == 1 {
            let x = (lo + hi) / 2.0;
            return (vec![x], vec![kde.density(x)]);
        }
        let step = (hi - lo) / (n - 1) as f64;
        let grid: Vec<f64> = (0..n).map(|i| lo + step * i as f64).collect();
        let dens: Vec<f64> = grid.iter().map(|&x| kde.density(x)).collect();
        (grid, dens)
    }

    /// [`Kde::local_maxima_on_grid`] over the exact grid.
    fn exact_maxima(kde: &Kde, grid_size: usize, min_density_ratio: f64) -> Vec<f64> {
        if kde.points.is_empty() || grid_size < 3 {
            return Vec::new();
        }
        let (lo, hi) = kde.padded_range();
        let (grid, dens) = exact_grid(kde, lo, hi, grid_size);
        grid_maxima(&grid, &dens, min_density_ratio)
    }

    /// Largest `|fast − exact|` over the grid, relative to the exact peak;
    /// panics if the grids differ or the fast path produced NaN.
    fn grid_error(kde: &Kde, lo: f64, hi: f64, n: usize) -> f64 {
        let (grid, fast) = kde.evaluate_grid(lo, hi, n);
        let (exact_cells, exact) = exact_grid(kde, lo, hi, n);
        assert_eq!(grid, exact_cells, "grid cells moved");
        assert!(fast.iter().all(|v| !v.is_nan()), "NaN in grid {fast:?}");
        let peak = exact.iter().cloned().fold(0.0f64, f64::max);
        let worst = fast
            .iter()
            .zip(&exact)
            .map(|(f, e)| (f - e).abs())
            .fold(0.0f64, f64::max);
        if peak > 0.0 {
            worst / peak
        } else {
            worst
        }
    }

    #[test]
    fn recurrence_survives_steps_of_thousands_of_bandwidths() {
        // 100 radii within 1e-10 plus one outlier at 1: Silverman floors the
        // bandwidth to 1e-6, so the 128-cell grid step is ~7,900
        // bandwidths. Splitting the first ratio into exp(−u·d)·exp(−d²/2)
        // overflows to inf·0 = NaN here.
        let mut pts: Vec<f64> = (0..100).map(|i| i as f64 * 1e-12).collect();
        pts.push(1.0);
        let kde = Kde::silverman(pts);
        assert_eq!(kde.bandwidth(), 1e-6);
        let (lo, hi) = kde.padded_range();
        let d = (hi - lo) / 127.0 / kde.bandwidth();
        assert!(d > 7000.0, "step is {d} bandwidths");
        let err = grid_error(&kde, lo, hi, 128);
        assert!(err <= 1e-12, "grid error {err:e} × peak");
        assert_eq!(
            kde.local_maxima_on_grid(128, 0.05),
            exact_maxima(&kde, 128, 0.05)
        );
    }

    #[test]
    fn points_outside_the_grid_match_the_oracle() {
        let kde = Kde::with_bandwidth(vec![-4.0, 0.3, 0.31, 2.0, 9.5], 0.7);
        for (lo, hi, n) in [
            (0.0, 1.0, 64),
            (-1.0, 3.0, 2),
            (5.0, 5.0, 7),
            (1.0, 1.5, 300),
        ] {
            let err = grid_error(&kde, lo, hi, n);
            assert!(err <= 1e-12, "[{lo}, {hi}] × {n}: error {err:e} × peak");
        }
    }

    #[test]
    fn grid_rounding_far_from_zero_is_corrected() {
        // At 1e5 the grid values are rounded to ~1.5e-11, i.e. ~1e-5
        // bandwidths: far from the ideal lattice the recurrence runs on.
        for (offset, h) in [(3.0, 1e-6), (1e5, 1e-6), (1e5, 0.01)] {
            let pts: Vec<f64> = (0..40).map(|i| offset + (i % 7) as f64 * 0.4 * h).collect();
            let kde = Kde::with_bandwidth(pts, h);
            let (lo, hi) = kde.padded_range();
            for n in [16, 128, 500] {
                let err = grid_error(&kde, lo, hi, n);
                assert!(
                    err <= 1e-12,
                    "offset {offset}, h {h}, {n} cells: {err:e} × peak"
                );
                assert_eq!(
                    kde.local_maxima_on_grid(n, 0.05),
                    exact_maxima(&kde, n, 0.05)
                );
            }
        }
    }

    /// A deterministic sample of `n` points in one of three layouts
    /// (clustered, heavy-tailed, constant), offset by `offset` and scaled
    /// by the bandwidth `h`.
    fn layout_sample(layout: usize, n: usize, h: f64, offset: f64, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        match layout {
            0 => {
                let centres: Vec<f64> = (0..1 + n % 4).map(|_| unit() * 40.0 * h).collect();
                (0..n)
                    .map(|i| offset + centres[i % centres.len()] + (unit() - 0.5) * h)
                    .collect()
            }
            1 => (0..n)
                .map(|_| {
                    let t = (std::f64::consts::PI * (unit() - 0.5)).tan();
                    offset + 3.0 * h * t.clamp(-1e4, 1e4)
                })
                .collect(),
            _ => vec![offset; n],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn grid_matches_pointwise_density(
            shape in (0usize..3, 1usize..=400, -6.0..0.48f64, 3usize..=512),
            place in (0.0..10.0f64, -0.5..3.0f64, -0.5..3.0f64, 0u64..u64::MAX),
        ) {
            let (layout, n_points, log_h, cells) = shape;
            let (offset, pad_lo, pad_hi, seed) = place;
            let h = 10f64.powf(log_h);
            let pts = layout_sample(layout, n_points, h, offset, seed);
            let lo = pts.iter().cloned().fold(f64::INFINITY, f64::min) - pad_lo * h;
            let hi = pts.iter().cloned().fold(f64::NEG_INFINITY, f64::max) + pad_hi * h;
            let kde = Kde::with_bandwidth(pts, h);
            let err = grid_error(&kde, lo, hi, cells);
            prop_assert!(
                err <= 1e-12,
                "layout {layout}, {n_points} points, h {h:e}, {cells} cells: error {err:e} × peak"
            );
        }
    }

    #[test]
    fn modes_match_the_oracle_on_every_kgraph_sector() {
        use std::f64::consts::TAU;
        // `kgraph::nodes::radial_scan` under the default configuration:
        // 24 sectors around the projection's centroid, a 128-cell grid,
        // modes at 5% of the sector peak.
        let cfg = kgraph::KGraphConfig::new(3);
        let mut sectors = 0;
        for ds in [
            datasets::cbf::cbf(50, 256, 8),
            datasets::cbf::cbf(150, 64, 8),
        ] {
            for len in cfg.resolve_lengths(ds.min_len()) {
                let proj =
                    kgraph::embed::project_subsequences(&ds, len, cfg.stride, cfg.pca_sample);
                let n = proj.points.len() as f64;
                let cx = proj.points.iter().map(|p| p.0).sum::<f64>() / n;
                let cy = proj.points.iter().map(|p| p.1).sum::<f64>() / n;
                let mut radii = vec![Vec::new(); cfg.psi];
                for &(x, y) in &proj.points {
                    let (dx, dy) = (x - cx, y - cy);
                    let mut theta = dy.atan2(dx);
                    if theta < 0.0 {
                        theta += TAU;
                    }
                    let s = ((theta / TAU * cfg.psi as f64) as usize).min(cfg.psi - 1);
                    radii[s].push((dx * dx + dy * dy).sqrt());
                }
                for r in radii.into_iter().filter(|r| r.len() >= 3) {
                    let kde = Kde::silverman(r);
                    let (lo, hi) = kde.padded_range();
                    let err = grid_error(&kde, lo, hi, cfg.kde_grid);
                    assert!(err <= 1e-12, "ℓ = {len}: grid error {err:e} × peak");
                    assert_eq!(
                        kde.local_maxima_on_grid(cfg.kde_grid, cfg.min_density_ratio),
                        exact_maxima(&kde, cfg.kde_grid, cfg.min_density_ratio),
                        "ℓ = {len}"
                    );
                    sectors += 1;
                }
            }
        }
        assert!(sectors >= 200, "only {sectors} sectors scanned");
    }

    #[test]
    fn density_integrates_to_one() {
        let kde = Kde::with_bandwidth(vec![0.0, 1.0, 2.0, 1.5, 0.5], 0.3);
        let (grid, dens) = kde.evaluate_grid(-3.0, 5.0, 2001);
        let step = grid[1] - grid[0];
        let integral: f64 = dens.iter().sum::<f64>() * step;
        assert!((integral - 1.0).abs() < 1e-3, "integral {integral}");
    }

    #[test]
    fn density_peaks_near_data() {
        let kde = Kde::with_bandwidth(vec![5.0; 10], 0.5);
        assert!(kde.density(5.0) > kde.density(6.0));
        assert!(kde.density(5.0) > kde.density(4.0));
    }

    #[test]
    fn bimodal_sample_has_two_modes() {
        let mut pts = Vec::new();
        for i in 0..50 {
            pts.push(0.0 + (i % 5) as f64 * 0.01);
            pts.push(10.0 + (i % 5) as f64 * 0.01);
        }
        let kde = Kde::with_bandwidth(pts, 0.5);
        let modes = kde.local_maxima_on_grid(512, 0.1);
        assert_eq!(modes.len(), 2, "expected 2 modes, got {modes:?}");
        let mut sorted = modes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((sorted[0] - 0.02).abs() < 0.5);
        assert!((sorted[1] - 10.02).abs() < 0.5);
    }

    #[test]
    fn unimodal_sample_has_one_mode() {
        let pts: Vec<f64> = (0..100).map(|i| (i as f64 - 50.0) / 25.0).collect();
        let kde = Kde::silverman(pts);
        let modes = kde.local_maxima_on_grid(512, 0.1);
        assert_eq!(modes.len(), 1, "got {modes:?}");
        assert!(modes[0].abs() < 0.5);
    }

    #[test]
    fn min_density_ratio_filters_small_bumps() {
        let mut pts = vec![0.0; 100];
        pts.extend(std::iter::repeat_n(8.0, 3)); // tiny side bump
        let kde = Kde::with_bandwidth(pts, 0.4);
        let strict = kde.local_maxima_on_grid(512, 0.5);
        assert_eq!(strict.len(), 1);
        let lax = kde.local_maxima_on_grid(512, 0.0);
        assert_eq!(lax.len(), 2);
    }

    #[test]
    fn modes_sorted_by_prominence() {
        let mut pts = vec![0.0; 60];
        pts.extend(std::iter::repeat_n(5.0, 20));
        let kde = Kde::with_bandwidth(pts, 0.4);
        let modes = kde.local_maxima_on_grid(512, 0.0);
        assert_eq!(modes.len(), 2);
        assert!(modes[0].abs() < 0.5, "biggest mode first: {modes:?}");
    }

    #[test]
    fn degenerate_inputs() {
        let empty = Kde::with_bandwidth(Vec::new(), 1.0);
        assert_eq!(empty.density(0.0), 0.0);
        assert!(empty.local_maxima_on_grid(128, 0.1).is_empty());
        let (g, d) = empty.evaluate_grid(0.0, 1.0, 0);
        assert!(g.is_empty() && d.is_empty());
        let kde = Kde::silverman(vec![1.0]);
        assert!(kde.bandwidth() > 0.0);
        assert!(kde.density(1.0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_panics() {
        Kde::with_bandwidth(vec![1.0], 0.0);
    }

    #[test]
    fn silverman_scales_with_spread() {
        let tight: Vec<f64> = (0..100).map(|i| (i % 10) as f64 * 0.01).collect();
        let wide: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        assert!(silverman_bandwidth(&wide) > silverman_bandwidth(&tight));
        assert_eq!(silverman_bandwidth(&[1.0]), 1.0);
    }
}
