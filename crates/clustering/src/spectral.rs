//! Spectral clustering (Ng–Jordan–Weiss normalised variant).
//!
//! k-Graph's Consensus Clustering step runs spectral clustering on the
//! consensus matrix (treated as a precomputed affinity); the Benchmark frame
//! also uses it as a raw baseline with an RBF affinity.

use crate::kmeans::KMeans;
use linalg::eigen::symmetric_eigen;
use linalg::matrix::Matrix;

/// Options for [`spectral_clustering`].
#[derive(Debug, Clone, Copy)]
pub struct SpectralOptions {
    /// Number of clusters.
    pub k: usize,
    /// Seed for the k-Means step on the spectral embedding.
    pub seed: u64,
    /// Restarts for the k-Means step.
    pub n_init: usize,
}

impl SpectralOptions {
    /// Default options for `k` clusters.
    pub fn new(k: usize, seed: u64) -> Self {
        SpectralOptions {
            k,
            seed,
            n_init: 10,
        }
    }
}

/// Spectral clustering on a precomputed symmetric affinity matrix.
///
/// Pipeline: symmetric normalised Laplacian `L = I − D^{-1/2} A D^{-1/2}`,
/// bottom-k eigenvectors, row-normalised spectral embedding, k-Means.
///
/// Panics if the affinity is not square or `k == 0`. Negative affinities are
/// clamped to zero; isolated rows (zero degree) are tolerated.
pub fn spectral_clustering(affinity: &Matrix, opts: SpectralOptions) -> Vec<usize> {
    assert!(opts.k > 0, "k must be > 0");
    assert_eq!(affinity.rows(), affinity.cols(), "affinity must be square");
    let n = affinity.rows();
    if n == 0 {
        return Vec::new();
    }
    if opts.k == 1 {
        return vec![0; n];
    }

    // Degree vector (clamping negatives keeps the Laplacian PSD-ish).
    let mut degrees = vec![0.0f64; n];
    for i in 0..n {
        for j in 0..n {
            degrees[i] += affinity[(i, j)].max(0.0);
        }
    }
    let inv_sqrt: Vec<f64> = degrees
        .iter()
        .map(|&d| if d > 1e-12 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();

    // L_sym = I − D^{-1/2} A D^{-1/2}
    let mut lap = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let a = affinity[(i, j)].max(0.0);
            let v = -inv_sqrt[i] * a * inv_sqrt[j];
            lap[(i, j)] = if i == j { 1.0 + v } else { v };
        }
    }

    // Bottom-k eigenvectors = last k columns (values sort descending).
    let eig = symmetric_eigen(&lap);
    let k = opts.k.min(n);
    let mut embedding = vec![vec![0.0f64; k]; n];
    for (c, col) in (n - k..n).rev().enumerate() {
        // col iterates the smallest eigenvalues; order within the embedding
        // does not matter for k-Means.
        for (i, e_row) in embedding.iter_mut().enumerate() {
            e_row[c] = eig.vectors[(i, col)];
        }
    }
    // Row-normalise (NJW).
    for row in &mut embedding {
        let norm = row.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for x in row.iter_mut() {
                *x /= norm;
            }
        }
    }

    KMeans {
        k: opts.k,
        max_iter: 200,
        n_init: opts.n_init,
        seed: opts.seed,
    }
    .fit(&embedding)
    .labels
}

/// Gaussian (RBF) affinity between rows: `exp(−‖x−y‖² / (2σ²))`.
///
/// `sigma = None` uses the median pairwise distance (a robust default).
pub fn rbf_affinity(rows: &[Vec<f64>], sigma: Option<f64>) -> Matrix {
    let n = rows.len();
    let mut d2 = Matrix::zeros(n, n);
    let mut all: Vec<f64> = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            let d: f64 = rows[i]
                .iter()
                .zip(&rows[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            d2[(i, j)] = d;
            d2[(j, i)] = d;
            all.push(d.sqrt());
        }
    }
    let sigma = sigma.unwrap_or_else(|| {
        if all.is_empty() {
            1.0
        } else {
            all.sort_by(|a, b| a.partial_cmp(b).expect("NaN distance"));
            let med = all[all.len() / 2];
            if med > 1e-12 {
                med
            } else {
                1.0
            }
        }
    });
    let denom = 2.0 * sigma * sigma;
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            1.0
        } else {
            (-d2[(i, j)] / denom).exp()
        }
    })
}

/// k-nearest-neighbour affinity (symmetrised: edge if either side lists the
/// other among its `k` nearest).
pub fn knn_affinity(rows: &[Vec<f64>], k: usize) -> Matrix {
    let n = rows.len();
    let mut aff = Matrix::zeros(n, n);
    for i in 0..n {
        let mut dists: Vec<(usize, f64)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| {
                let d: f64 = rows[i]
                    .iter()
                    .zip(&rows[j])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                (j, d)
            })
            .collect();
        dists.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN distance"));
        for &(j, _) in dists.iter().take(k) {
            aff[(i, j)] = 1.0;
            aff[(j, i)] = 1.0;
        }
    }
    aff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adjusted_rand_index;

    fn two_blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for i in 0..15 {
            rows.push(vec![0.0 + (i % 4) as f64 * 0.1, (i % 3) as f64 * 0.1]);
            truth.push(0);
            rows.push(vec![
                10.0 + (i % 4) as f64 * 0.1,
                10.0 + (i % 3) as f64 * 0.1,
            ]);
            truth.push(1);
        }
        (rows, truth)
    }

    #[test]
    fn block_diagonal_affinity_recovers_blocks() {
        // Perfect consensus-style matrix: 1 within blocks, 0 across.
        let n = 12;
        let aff = Matrix::from_fn(n, n, |i, j| if (i < 6) == (j < 6) { 1.0 } else { 0.0 });
        let labels = spectral_clustering(&aff, SpectralOptions::new(2, 0));
        let truth: Vec<usize> = (0..n).map(|i| usize::from(i >= 6)).collect();
        assert!((adjusted_rand_index(&truth, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn three_blocks() {
        let n = 15;
        let block = |i: usize| i / 5;
        let aff = Matrix::from_fn(n, n, |i, j| if block(i) == block(j) { 0.9 } else { 0.02 });
        let labels = spectral_clustering(&aff, SpectralOptions::new(3, 1));
        let truth: Vec<usize> = (0..n).map(block).collect();
        assert!((adjusted_rand_index(&truth, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rbf_affinity_then_spectral_separates_blobs() {
        let (rows, truth) = two_blobs();
        let aff = rbf_affinity(&rows, None);
        let labels = spectral_clustering(&aff, SpectralOptions::new(2, 0));
        assert!((adjusted_rand_index(&truth, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn knn_affinity_symmetric() {
        let (rows, _) = two_blobs();
        let aff = knn_affinity(&rows, 3);
        assert!(aff.is_symmetric(1e-12));
        // Every node has at least k neighbours marked.
        for i in 0..rows.len() {
            let row_sum: f64 = (0..rows.len()).map(|j| aff[(i, j)]).sum();
            assert!(row_sum >= 3.0);
        }
    }

    #[test]
    fn k_one_trivial() {
        let aff = Matrix::identity(5);
        let labels = spectral_clustering(&aff, SpectralOptions::new(1, 0));
        assert_eq!(labels, vec![0; 5]);
    }

    #[test]
    fn empty_affinity() {
        let labels = spectral_clustering(&Matrix::zeros(0, 0), SpectralOptions::new(2, 0));
        assert!(labels.is_empty());
    }

    #[test]
    fn isolated_nodes_tolerated() {
        // Node 4 has zero affinity to everyone.
        let mut aff = Matrix::zeros(5, 5);
        for i in 0..4 {
            for j in 0..4 {
                aff[(i, j)] = if (i < 2) == (j < 2) { 1.0 } else { 0.0 };
            }
        }
        let labels = spectral_clustering(&aff, SpectralOptions::new(2, 0));
        assert_eq!(labels.len(), 5);
        assert!(labels.iter().all(|&l| l < 2));
    }

    #[test]
    fn rbf_degenerate_identical_points() {
        let rows = vec![vec![1.0, 1.0]; 4];
        let aff = rbf_affinity(&rows, None);
        // All affinities 1 (distance 0, sigma fallback 1).
        for i in 0..4 {
            for j in 0..4 {
                assert!((aff[(i, j)] - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_affinity_panics() {
        spectral_clustering(&Matrix::zeros(2, 3), SpectralOptions::new(2, 0));
    }

    #[test]
    fn deterministic() {
        let (rows, _) = two_blobs();
        let aff = rbf_affinity(&rows, Some(2.0));
        let a = spectral_clustering(&aff, SpectralOptions::new(2, 5));
        let b = spectral_clustering(&aff, SpectralOptions::new(2, 5));
        assert_eq!(a, b);
    }
}
