//! Eigendecomposition of symmetric matrices.
//!
//! [`symmetric_eigen`] is the EISPACK `tred2`/`tql2` pair (as in JAMA):
//! Householder reduction to tridiagonal form, then the implicit-shift QL
//! method on the tridiagonal matrix, accumulating every transformation into
//! the eigenvectors. It costs about 9n³ flops for all eigenpairs, a fraction
//! of cyclic Jacobi's 6n³ per sweep over several sweeps (Jacobi stays in
//! the tests as the parity oracle). It serves both hot callers: PCA of
//! ℓ × ℓ subsequence covariances and spectral clustering of n × n consensus
//! Laplacians. Both phases work on the *transpose* of the eigenvector
//! matrix, so every O(n³) inner loop walks one contiguous row.
//!
//! The input must be finite (checked on entry), QL gets at most 30
//! iterations per eigenvalue, and eigenvector signs follow a fixed rule
//! (see [`EigenDecomposition`]); [`symmetric_eigen`] panics on the first
//! two.

use crate::matrix::Matrix;

/// QL iterations allowed per eigenvalue before the solver gives up (the
/// cap EISPACK and LAPACK use).
const MAX_QL_ITERATIONS: usize = 30;

/// Result of a symmetric eigendecomposition.
///
/// Eigenpairs are sorted by **descending** eigenvalue. `vectors` holds the
/// eigenvectors as *columns*: `vectors[(i, j)]` is component `i` of the
/// eigenvector for `values[j]`.
///
/// Signs are deterministic: each eigenvector is oriented so that its
/// largest-magnitude component (the lowest index on ties) is positive. The
/// PCA axes and spectral embeddings built from it therefore depend on the
/// data alone, not on how the solver happened to converge.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column, same order as `values`.
    pub vectors: Matrix,
}

impl EigenDecomposition {
    /// The eigenvector for `values[j]` as an owned vector.
    pub fn vector(&self, j: usize) -> Vec<f64> {
        self.vectors.col(j)
    }
}

/// All eigenpairs of a symmetric matrix: Householder tridiagonalisation
/// followed by implicit-shift QL, about 9n³ flops.
///
/// Symmetry is assumed, not checked: only the upper triangle is read.
/// Eigenvalues come back descending, with orthonormal eigenvectors as the
/// columns of `vectors`, signed by the rule documented on
/// [`EigenDecomposition`]; equal eigenvalues keep the order QL found them
/// in.
///
/// Panics if the matrix is not square, if any entry is non-finite (NaN or
/// ±∞ would otherwise make QL spin or return garbage), or if an eigenvalue
/// has not converged after [`MAX_QL_ITERATIONS`] QL iterations.
pub fn symmetric_eigen(m: &Matrix) -> EigenDecomposition {
    assert_eq!(
        m.rows(),
        m.cols(),
        "symmetric_eigen requires a square matrix"
    );
    assert!(
        m.as_slice().iter().all(|x| x.is_finite()),
        "symmetric_eigen: non-finite matrix entry"
    );
    let n = m.rows();
    if n == 0 {
        return EigenDecomposition {
            values: Vec::new(),
            vectors: Matrix::zeros(0, 0),
        };
    }

    // `w` is the transpose of the eigenvector matrix: row j ends up holding
    // the eigenvector of `d[j]`. It starts as the input itself.
    let mut w = m.as_slice().to_vec();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tridiagonalize(&mut w, n, &mut d, &mut e);
    tridiagonal_ql(&mut w, n, &mut d, &mut e);

    // Descending by eigenvalue; the stable sort keeps ties in QL's order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (col, &src) in order.iter().enumerate() {
        let v = &w[src * n..(src + 1) * n];
        // Largest |component|, lowest index on ties, made positive.
        let pivot = v.iter().enumerate().fold(
            0,
            |best, (i, x)| if x.abs() > v[best].abs() { i } else { best },
        );
        let sign = if v[pivot] < 0.0 { -1.0 } else { 1.0 };
        for (r, &x) in v.iter().enumerate() {
            vectors[(r, col)] = sign * x;
        }
    }
    EigenDecomposition { values, vectors }
}

/// Householder reduction of the symmetric matrix held in `w` (row-major,
/// n × n, upper triangle read) to tridiagonal form (`tred2`).
///
/// On return `d` is the diagonal, `e[1..]` the subdiagonal (`e[0] = 0`) and
/// `w` the transpose of the accumulated orthogonal transformation.
fn tridiagonalize(w: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
    }
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
                w[i * n + j] = 0.0;
            }
        } else {
            // Householder vector, scaled against under/overflow.
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);

            // p = A u, from the upper triangle only.
            for j in 0..i {
                let f = d[j];
                w[i * n + j] = f;
                let row = &w[j * n..j * n + i];
                let mut g = e[j] + row[j] * f;
                for k in j + 1..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for (ej, dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej /= h;
                f += *ej * dj;
            }
            let hh = f / (h + h);
            for (ej, dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej -= hh * dj;
            }

            // A ← A − u qᵀ − q uᵀ on the upper triangle.
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut w[j * n..j * n + i];
                for k in j..i {
                    row[k] -= f * e[k] + g * d[k];
                }
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate the Householder reflections.
    for i in 0..n - 1 {
        w[i * n + n - 1] = w[i * n + i];
        w[i * n + i] = 1.0;
        let h = d[i + 1];
        let (head, tail) = w.split_at_mut((i + 1) * n);
        let u = &mut tail[..=i];
        if h != 0.0 {
            for (dk, uk) in d[..=i].iter_mut().zip(u.iter()) {
                *dk = uk / h;
            }
            for j in 0..=i {
                let row = &mut head[j * n..=j * n + i];
                let g: f64 = u.iter().zip(row.iter()).map(|(a, b)| a * b).sum();
                for (x, dk) in row.iter_mut().zip(&d[..=i]) {
                    *x -= g * dk;
                }
            }
        }
        u.fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
        w[j * n + n - 1] = 0.0;
    }
    w[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal matrix (`d`, `e[1..]`) from
/// [`tridiagonalize`] (`tql2`). On return `d` holds the eigenvalues, in no
/// particular order, and row j of `w` the eigenvector of `d[j]`.
///
/// Panics when an eigenvalue needs more than [`MAX_QL_ITERATIONS`].
fn tridiagonal_ql(w: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut shift = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        // Split off at the first negligible subdiagonal entry.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m + 1 < n && e[m].abs() > f64::EPSILON * tst1 {
            m += 1;
        }
        if m > l {
            let converged = (0..MAX_QL_ITERATIONS).any(|_| {
                shift += ql_step(w, n, d, e, l, m);
                e[l].abs() <= f64::EPSILON * tst1
            });
            assert!(
                converged,
                "symmetric_eigen: QL did not converge within {MAX_QL_ITERATIONS} iterations"
            );
        }
        d[l] += shift;
        e[l] = 0.0;
    }
}

/// One implicit QL step on the unreduced block `l..=m`: shifts by the
/// eigenvalue of the leading 2 × 2 block nearer `d[l]`, then chases the
/// bulge with Givens rotations from the bottom up, applying each to rows
/// `i` and `i + 1` of `w`. Returns the shift subtracted from the block.
fn ql_step(w: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64], l: usize, m: usize) -> f64 {
    let g = d[l];
    let mut p = (d[l + 1] - g) / (2.0 * e[l]);
    let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
    d[l] = e[l] / (p + r);
    d[l + 1] = e[l] * (p + r);
    let dl1 = d[l + 1];
    let shift = g - d[l];
    for x in &mut d[l + 2..] {
        *x -= shift;
    }

    p = d[m];
    let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
    let el1 = e[l + 1];
    let (mut s, mut s2) = (0.0, 0.0);
    for i in (l..m).rev() {
        c3 = c2;
        c2 = c;
        s2 = s;
        let g = c * e[i];
        let h = c * p;
        let r = p.hypot(e[i]);
        e[i + 1] = s * r;
        s = e[i] / r;
        c = p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        let (lo, hi) = w.split_at_mut((i + 1) * n);
        for (a, b) in lo[i * n..].iter_mut().zip(&mut hi[..n]) {
            let t = *b;
            *b = s * *a + c * t;
            *a = c * *a - s * t;
        }
    }
    p = -s * s2 * c3 * el1 * e[l] / dl1;
    e[l] = s * p;
    d[l] = c * p;
    shift
}

/// Power iteration for the dominant eigenvector of a symmetric matrix.
///
/// Cheap when only the top eigenpair is needed (k-Shape's shape extraction).
/// Deterministic: starts from an all-ones vector (falling back to a basis
/// vector if that lies in the nullspace). Returns `(eigenvalue, vector)`.
pub fn power_iteration(m: &Matrix, max_iter: usize, tol: f64) -> (f64, Vec<f64>) {
    assert_eq!(
        m.rows(),
        m.cols(),
        "power_iteration requires a square matrix"
    );
    let n = m.rows();
    if n == 0 {
        return (0.0, Vec::new());
    }
    let mut v = vec![1.0 / (n as f64).sqrt(); n];
    let mut lambda = 0.0;
    for it in 0..max_iter {
        let mut w = m.matvec(&v);
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm <= f64::MIN_POSITIVE {
            // v was (numerically) in the nullspace; restart from e_{it % n}.
            v = vec![0.0; n];
            v[it % n] = 1.0;
            continue;
        }
        for x in &mut w {
            *x /= norm;
        }
        let new_lambda: f64 = {
            let mv = m.matvec(&w);
            w.iter().zip(&mv).map(|(a, b)| a * b).sum()
        };
        let delta: f64 = w
            .iter()
            .zip(&v)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        v = w;
        // Sign flips (eigenvalue < 0) make `delta` oscillate; compare λ too.
        if delta < tol || (new_lambda - lambda).abs() < tol * lambda.abs().max(1.0) {
            lambda = new_lambda;
            break;
        }
        lambda = new_lambda;
    }
    (lambda, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cyclic Jacobi, the solver `symmetric_eigen` replaced, kept as the
    /// parity oracle: converges when the off-diagonal Frobenius mass drops
    /// below `1e-12` relative to the matrix norm, or after 100 sweeps.
    fn jacobi(m: &Matrix) -> EigenDecomposition {
        let n = m.rows();
        let mut a = m.clone();
        let mut v = Matrix::identity(n);
        if n <= 1 {
            return EigenDecomposition {
                values: (0..n).map(|i| a[(i, i)]).collect(),
                vectors: v,
            };
        }

        let norm = a.frobenius().max(f64::MIN_POSITIVE);
        let tol = 1e-12 * norm;
        for _sweep in 0..100 {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += a[(i, j)] * a[(i, j)];
                }
            }
            if off.sqrt() <= tol {
                break;
            }
            for p in 0..n - 1 {
                for q in (p + 1)..n {
                    let apq = a[(p, q)];
                    if apq.abs() <= tol / (n as f64) {
                        continue;
                    }
                    let app = a[(p, p)];
                    let aqq = a[(q, q)];
                    // Classic Jacobi rotation computation.
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Update A = Jᵀ A J, touching only rows/cols p and q.
                    for k in 0..n {
                        let akp = a[(k, p)];
                        let akq = a[(k, q)];
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[(p, k)];
                        let aqk = a[(q, k)];
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    // Accumulate rotations into the eigenvector matrix.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }

        // Sort eigenpairs by descending eigenvalue.
        let mut order: Vec<usize> = (0..n).collect();
        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).expect("NaN eigenvalue"));

        let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (new_col, &old_col) in order.iter().enumerate() {
            for r in 0..n {
                vectors[(r, new_col)] = v[(r, old_col)];
            }
        }
        EigenDecomposition { values, vectors }
    }

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn eigen_of_diagonal() {
        let m = Matrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let e = symmetric_eigen(&m);
        assert_close(e.values[0], 3.0, 1e-10);
        assert_close(e.values[1], 2.0, 1e-10);
        assert_close(e.values[2], 1.0, 1e-10);
    }

    #[test]
    fn eigen_known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = symmetric_eigen(&m);
        assert_close(e.values[0], 3.0, 1e-10);
        assert_close(e.values[1], 1.0, 1e-10);
        // Eigenvector for 3 is (1,1)/√2 up to sign.
        let v = e.vector(0);
        assert_close(v[0].abs(), 1.0 / 2f64.sqrt(), 1e-8);
        assert_close(v[1].abs(), 1.0 / 2f64.sqrt(), 1e-8);
        assert!(v[0] * v[1] > 0.0);
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 1.0],
        ]);
        let e = symmetric_eigen(&m);
        for i in 0..3 {
            for j in 0..3 {
                let dot: f64 = e
                    .vector(i)
                    .iter()
                    .zip(e.vector(j))
                    .map(|(a, b)| a * b)
                    .sum();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert_close(dot, expected, 1e-8);
            }
        }
    }

    #[test]
    fn reconstruction() {
        let m = Matrix::from_rows(&[
            vec![5.0, 2.0, 1.0],
            vec![2.0, 4.0, 0.0],
            vec![1.0, 0.0, 3.0],
        ]);
        let e = symmetric_eigen(&m);
        // A = V Λ Vᵀ
        let mut lam = Matrix::zeros(3, 3);
        for i in 0..3 {
            lam[(i, i)] = e.values[i];
        }
        let rec = e.vectors.matmul(&lam).matmul(&e.vectors.transpose());
        assert!(rec.sub(&m).frobenius() < 1e-8);
    }

    #[test]
    fn eigen_trivial_sizes() {
        let e0 = symmetric_eigen(&Matrix::zeros(0, 0));
        assert!(e0.values.is_empty());
        let e1 = symmetric_eigen(&Matrix::from_rows(&[vec![7.0]]));
        assert_eq!(e1.values, vec![7.0]);
    }

    #[test]
    fn eigen_handles_negative_eigenvalues() {
        // [[0, 1], [1, 0]] has eigenvalues 1 and −1.
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let e = symmetric_eigen(&m);
        assert_close(e.values[0], 1.0, 1e-10);
        assert_close(e.values[1], -1.0, 1e-10);
    }

    #[test]
    fn power_iteration_matches_full_solve() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let full = symmetric_eigen(&m);
        let (lambda, v) = power_iteration(&m, 1000, 1e-12);
        assert_close(lambda, full.values[0], 1e-6);
        // Same direction up to sign.
        let reference = full.vector(0);
        let dot: f64 = v.iter().zip(&reference).map(|(a, b)| a * b).sum();
        assert_close(dot.abs(), 1.0, 1e-5);
    }

    #[test]
    fn power_iteration_zero_matrix() {
        let (lambda, v) = power_iteration(&Matrix::zeros(3, 3), 50, 1e-10);
        assert!(lambda.abs() < 1e-12 || lambda == 0.0);
        assert_eq!(v.len(), 3);
        let (l0, v0) = power_iteration(&Matrix::zeros(0, 0), 10, 1e-10);
        assert_eq!(l0, 0.0);
        assert!(v0.is_empty());
    }

    /// Deterministic symmetric matrix with entries in [-1, 1) (an LCG, so
    /// no RNG dependency).
    fn lcg_symmetric(n: usize, seed: u64) -> Matrix {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
                m[(i, j)] = x;
                m[(j, i)] = x;
            }
        }
        m
    }

    /// The co-association matrix k-Graph's consensus builds: the share of
    /// `m` partitions of `n` items that put two items together. Labels come
    /// from an LCG, with runs of items sharing all their labels, so the
    /// matrix is rank-deficient and block-structured.
    fn consensus_like(n: usize, m: usize, k: usize) -> Matrix {
        let mut state = 7u64;
        let partitions: Vec<Vec<usize>> = (0..m)
            .map(|_| {
                (0..n)
                    .map(|i| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        // Mostly the item's block, sometimes a random cluster.
                        if (state >> 60) < 12 {
                            i * k / n
                        } else {
                            (state >> 33) as usize % k
                        }
                    })
                    .collect()
            })
            .collect();
        Matrix::from_fn(n, n, |i, j| {
            let agree = partitions.iter().filter(|p| p[i] == p[j]).count();
            agree as f64 / m as f64
        })
    }

    /// `‖AV − VΛ‖_F` and `‖VᵀV − I‖_F`.
    fn residual_and_orthogonality(a: &Matrix, e: &EigenDecomposition) -> (f64, f64) {
        let n = a.rows();
        let av = a.matmul(&e.vectors);
        let mut vl = e.vectors.clone();
        for r in 0..n {
            for c in 0..n {
                vl[(r, c)] *= e.values[c];
            }
        }
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        (
            av.sub(&vl).frobenius(),
            vtv.sub(&Matrix::identity(n)).frobenius(),
        )
    }

    /// Every column's largest-magnitude component (lowest index on ties) is
    /// positive.
    fn assert_sign_rule(e: &EigenDecomposition) {
        for j in 0..e.values.len() {
            let v = e.vector(j);
            let mut pivot = 0;
            for (i, x) in v.iter().enumerate() {
                if x.abs() > v[pivot].abs() {
                    pivot = i;
                }
            }
            assert!(v[pivot] > 0.0, "column {j} pivot {pivot} is {}", v[pivot]);
        }
    }

    /// QL against the Jacobi oracle: eigenvalues within 1e-10·‖A‖_F, and
    /// eigenvectors aligned to |dot| ≥ 1 − 1e-10 wherever the eigengap
    /// exceeds 1e-6·‖A‖_F.
    fn assert_parity(a: &Matrix) {
        let n = a.rows();
        let norm = a.frobenius();
        let ql = symmetric_eigen(a);
        let oracle = jacobi(a);
        for (j, (x, y)) in ql.values.iter().zip(&oracle.values).enumerate() {
            assert!((x - y).abs() <= 1e-10 * norm, "n={n} value {j}: {x} vs {y}");
        }
        for j in 0..n {
            let v = &oracle.values;
            let gap = [j.checked_sub(1), Some(j + 1).filter(|&i| i < n)]
                .into_iter()
                .flatten()
                .map(|i| (v[i] - v[j]).abs())
                .fold(f64::INFINITY, f64::min);
            if gap > 1e-6 * norm {
                let (ours, theirs) = (ql.vector(j), oracle.vector(j));
                let d = ours.iter().zip(&theirs).map(|(x, y)| x * y).sum::<f64>();
                let d = d.abs();
                assert!(d >= 1.0 - 1e-10, "n={n} vector {j}: |dot| {d}, gap {gap}");
            }
        }
        let (res, orth) = residual_and_orthogonality(a, &ql);
        assert!(
            res <= 1e-10 * n as f64 * norm.max(1.0),
            "n={n} residual {res}"
        );
        assert!(orth <= 1e-10 * n as f64, "n={n} orthogonality {orth}");
        assert_sign_rule(&ql);
    }

    #[test]
    fn parity_with_jacobi_on_random_matrices() {
        for (n, seed) in [(1, 1), (2, 2), (3, 3), (26, 26), (128, 128), (150, 150)] {
            assert_parity(&lcg_symmetric(n, seed));
        }
    }

    #[test]
    fn parity_with_jacobi_on_consensus_matrix() {
        let mc = consensus_like(90, 6, 3);
        assert_parity(&mc);
        // And on the normalised Laplacian spectral clustering solves.
        let n = mc.rows();
        let deg: Vec<f64> = (0..n).map(|i| mc.row(i).iter().sum()).collect();
        let lap = Matrix::from_fn(n, n, |i, j| {
            let v = -mc[(i, j)] / (deg[i] * deg[j]).sqrt();
            if i == j {
                1.0 + v
            } else {
                v
            }
        });
        assert_parity(&lap);
    }

    #[test]
    fn repeated_eigenvalues_give_an_orthonormal_eigenbasis() {
        // Any basis of a repeated eigenvalue's eigenspace is valid, so these
        // check the decomposition itself rather than parity.
        let block = lcg_symmetric(5, 9);
        let two_blocks = Matrix::from_fn(10, 10, |i, j| {
            if i / 5 == j / 5 {
                block[(i % 5, j % 5)]
            } else {
                0.0
            }
        });
        for a in [Matrix::zeros(7, 7), Matrix::identity(7), two_blocks] {
            let n = a.rows();
            let e = symmetric_eigen(&a);
            let (res, orth) = residual_and_orthogonality(&a, &e);
            assert!(res <= 1e-10 * n as f64, "n={n} residual {res}");
            assert!(orth <= 1e-10 * n as f64, "n={n} orthogonality {orth}");
            assert!(e.values.windows(2).all(|w| w[0] >= w[1]));
            assert_sign_rule(&e);
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_entry_panics() {
        let mut m = lcg_symmetric(3, 4);
        m[(1, 1)] = f64::NAN;
        symmetric_eigen(&m);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn infinite_entry_panics() {
        // Jacobi returned the diagonal [3, 2, 1] for this matrix.
        let m = Matrix::from_rows(&[
            vec![2.0, f64::INFINITY, 0.5],
            vec![f64::INFINITY, 1.0, 0.2],
            vec![0.5, 0.2, 3.0],
        ]);
        symmetric_eigen(&m);
    }
}
