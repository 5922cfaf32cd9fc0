//! Property-based tests for the linalg substrate.

use linalg::fft::{cross_correlation_fft, fft_inplace, next_pow2, Complex};
use linalg::matrix::Matrix;
use linalg::pca::Pca;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_associative_on_small_matrices(
        a in proptest::collection::vec(-3.0..3.0f64, 4..=4),
        b in proptest::collection::vec(-3.0..3.0f64, 4..=4),
        c in proptest::collection::vec(-3.0..3.0f64, 4..=4),
    ) {
        let ma = Matrix::from_vec(2, 2, a);
        let mb = Matrix::from_vec(2, 2, b);
        let mc = Matrix::from_vec(2, 2, c);
        let left = ma.matmul(&mb).matmul(&mc);
        let right = ma.matmul(&mb.matmul(&mc));
        prop_assert!(left.sub(&right).frobenius() < 1e-9);
    }

    #[test]
    fn transpose_involution(vals in proptest::collection::vec(-5.0..5.0f64, 12..=12)) {
        let m = Matrix::from_vec(3, 4, vals);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn covariance_psd_diagonal(
        rows in proptest::collection::vec(
            proptest::collection::vec(-10.0..10.0f64, 3..=3),
            2..20,
        ),
    ) {
        let m = Matrix::from_rows(&rows);
        let cov = m.covariance();
        prop_assert!(cov.is_symmetric(1e-9));
        for i in 0..3 {
            prop_assert!(cov[(i, i)] >= -1e-9, "negative variance {}", cov[(i, i)]);
        }
    }

    #[test]
    fn eigenvalues_sum_to_trace(
        n in 1usize..=8,
        vals in proptest::collection::vec(-4.0..4.0f64, 36..=36),
    ) {
        // Build an n x n symmetric matrix from the first n(n+1)/2 entries.
        let mut m = Matrix::zeros(n, n);
        let mut it = vals.into_iter();
        for i in 0..n {
            for j in i..n {
                let v = it.next().unwrap();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        let trace: f64 = (0..n).map(|i| m[(i, i)]).sum();
        let e = linalg::symmetric_eigen(&m);
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8, "trace {trace} vs eigsum {sum}");
        // Sorted descending.
        prop_assert!(e.values.windows(2).all(|w| w[0] >= w[1] - 1e-12));
        // A V = V Λ and Vᵀ V = I.
        let mut vl = e.vectors.clone();
        for r in 0..n {
            for c in 0..n {
                vl[(r, c)] *= e.values[c];
            }
        }
        let residual = m.matmul(&e.vectors).sub(&vl).frobenius();
        prop_assert!(residual < 1e-10 * n as f64 * m.frobenius().max(1.0), "residual {residual}");
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        let orth = vtv.sub(&Matrix::identity(n)).frobenius();
        prop_assert!(orth < 1e-10 * n as f64, "orthogonality {orth}");
    }

    #[test]
    fn fft_parseval(signal in proptest::collection::vec(-5.0..5.0f64, 1..32)) {
        let size = next_pow2(signal.len());
        let mut buf: Vec<Complex> = signal
            .iter()
            .map(|&x| Complex::new(x, 0.0))
            .chain(std::iter::repeat(Complex::zero()))
            .take(size)
            .collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        fft_inplace(&mut buf, false);
        let freq_energy: f64 =
            buf.iter().map(|c| c.re * c.re + c.im * c.im).sum::<f64>() / size as f64;
        prop_assert!((time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy));
    }

    #[test]
    fn cross_correlation_zero_shift_is_dot_product(
        a in proptest::collection::vec(-5.0..5.0f64, 2..24),
    ) {
        let b: Vec<f64> = a.iter().map(|x| x * 0.5 + 1.0).collect();
        let cc = cross_correlation_fft(&a, &b);
        let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let centre = a.len() - 1;
        prop_assert!((cc[centre] - dot).abs() < 1e-6, "{} vs {}", cc[centre], dot);
    }

    #[test]
    fn pca_projection_dims_and_finiteness(
        rows in proptest::collection::vec(
            proptest::collection::vec(-10.0..10.0f64, 5..=5),
            3..20,
        ),
    ) {
        let m = Matrix::from_rows(&rows);
        let (pca, proj) = Pca::fit_transform(&m, 2);
        prop_assert_eq!(proj.shape(), (rows.len(), 2));
        prop_assert!(proj.as_slice().iter().all(|v| v.is_finite()));
        // Explained variance is non-negative and ratios ≤ 1.
        for r in pca.explained_variance_ratio() {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&r));
        }
    }

    #[test]
    fn kde_density_symmetric_around_lonely_point(x0 in -10.0..10.0f64, h in 0.1..3.0f64) {
        let kde = linalg::kde::Kde::with_bandwidth(vec![x0], h);
        let left = kde.density(x0 - 1.3);
        let right = kde.density(x0 + 1.3);
        prop_assert!((left - right).abs() < 1e-12);
        prop_assert!(kde.density(x0) >= left);
    }
}
