//! The Chu & Ghahramani preference GP with Laplace approximation.
//!
//! Latent utilities `g` over the distinct compared items get a GP prior
//! `g ~ N(0, K)`; each comparison contributes the probit likelihood of
//! paper Eq. 9, `p(y⁽¹⁾ ≻ y⁽²⁾ | g) = Φ((g₁ - g₂)/(√2 λ))`. The
//! posterior mode `ĝ` is found by damped Newton iterations and the
//! posterior is approximated as `N(ĝ, (K⁻¹ + Λ)⁻¹)` with `Λ` the
//! likelihood curvature (Laplace).

use std::cell::RefCell;

use eva_gp::Kernel;
use eva_linalg::{solve, vecops, Cholesky, Mat};
use eva_stats::norm_cdf;

use crate::dataset::PreferenceDataset;

/// Errors from preference-model fitting or prediction.
#[derive(Debug, Clone)]
pub enum PrefError {
    /// Not enough data to fit (no comparisons).
    Empty,
    /// Dimension mismatch between items and kernel.
    BadDim { item_dim: usize, kernel_dim: usize },
    /// Newton iterations failed to converge.
    NoConvergence { iterations: usize },
    /// Underlying linear-algebra failure.
    Linalg(eva_linalg::LinalgError),
}

impl std::fmt::Display for PrefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrefError::Empty => write!(f, "no comparisons to fit"),
            PrefError::BadDim {
                item_dim,
                kernel_dim,
            } => write!(f, "item dim {item_dim} != kernel dim {kernel_dim}"),
            PrefError::NoConvergence { iterations } => {
                write!(f, "Laplace Newton failed to converge in {iterations} iters")
            }
            PrefError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for PrefError {}

impl From<eva_linalg::LinalgError> for PrefError {
    fn from(e: eva_linalg::LinalgError) -> Self {
        PrefError::Linalg(e)
    }
}

/// Maximum Newton iterations for the Laplace mode search.
const MAX_NEWTON: usize = 100;
/// Convergence threshold on the gradient inf-norm.
const GRAD_TOL: f64 = 1e-8;

/// A fitted preference model: latent utility posterior `g | P_V`.
#[derive(Debug, Clone)]
pub struct PreferenceModel {
    items: Vec<Vec<f64>>,
    kernel: Kernel,
    lambda: f64,
    /// MAP latent utilities at the items.
    g_map: Vec<f64>,
    /// Cholesky of `K + jitter`.
    k_chol: Cholesky,
    /// `K⁻¹ ĝ` — predictive mean weights.
    alpha: Vec<f64>,
    /// Posterior covariance at the items, `(K⁻¹ + Λ)⁻¹`.
    sigma: Mat,
}

impl PreferenceModel {
    /// Fit by Laplace approximation. `lambda` is the comparison-noise
    /// scale of Eq. 9 (must be positive; it also regularizes the probit
    /// slope for deterministic decision makers).
    pub fn fit(data: &PreferenceDataset, kernel: Kernel, lambda: f64) -> Result<Self, PrefError> {
        if data.is_empty() {
            return Err(PrefError::Empty);
        }
        assert!(lambda > 0.0, "PreferenceModel: lambda must be positive");
        let items = data.items().to_vec();
        let item_dim = items[0].len();
        if item_dim != kernel.dim() {
            return Err(PrefError::BadDim {
                item_dim,
                kernel_dim: kernel.dim(),
            });
        }
        let n = items.len();
        let mut k = kernel.matrix(&items);
        k.add_diag(1e-8 * kernel.signal_var());
        let k_chol = Cholesky::decompose_jittered(&k)?;
        let c = std::f64::consts::SQRT_2 * lambda;

        // Damped Newton on the log posterior.
        let mut g = vec![0.0; n];
        let mut log_post = log_posterior(&g, data, &k_chol, c)?;
        let mut converged = false;
        for _ in 0..MAX_NEWTON {
            let (grad_lik, lambda_mat) = likelihood_derivatives(&g, data, n, c);
            // grad = grad_lik - K⁻¹ g
            let kinv_g = k_chol.solve(&g)?;
            let grad = vecops::sub(&grad_lik, &kinv_g);
            let gnorm = grad.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            if gnorm < GRAD_TOL {
                converged = true;
                break;
            }
            // H = Λ + K⁻¹ (SPD); solve H Δ = grad.
            let kinv = k_chol.inverse()?;
            let mut h = lambda_mat.add(&kinv)?;
            h.symmetrize();
            let h_chol = Cholesky::decompose_jittered(&h)?;
            let delta = h_chol.solve(&grad)?;
            // Backtracking line search.
            let mut step = 1.0;
            let mut improved = false;
            for _ in 0..30 {
                let trial: Vec<f64> = g
                    .iter()
                    .zip(&delta)
                    .map(|(&gi, &di)| gi + step * di)
                    .collect();
                let lp = log_posterior(&trial, data, &k_chol, c)?;
                if lp > log_post {
                    g = trial;
                    log_post = lp;
                    improved = true;
                    break;
                }
                step *= 0.5;
            }
            if !improved {
                // Gradient is small enough that no step helps: accept.
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(PrefError::NoConvergence {
                iterations: MAX_NEWTON,
            });
        }

        // Posterior covariance Σ = (K⁻¹ + Λ)⁻¹ at the mode.
        let (_, lambda_mat) = likelihood_derivatives(&g, data, n, c);
        let kinv = k_chol.inverse()?;
        let mut h = lambda_mat.add(&kinv)?;
        h.symmetrize();
        let sigma = Cholesky::decompose_jittered(&h)?.inverse()?;
        let alpha = k_chol.solve(&g)?;

        Ok(PreferenceModel {
            items,
            kernel,
            lambda,
            g_map: g,
            k_chol,
            alpha,
            sigma,
        })
    }

    /// Comparison-noise scale `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// MAP latent utilities at the training items.
    pub fn map_utilities(&self) -> &[f64] {
        &self.g_map
    }

    /// The distinct items the model was trained on.
    pub fn items(&self) -> &[Vec<f64>] {
        &self.items
    }

    /// Posterior mean and variance of the latent utility at `y`.
    ///
    /// A single-point posterior cannot fail after a successful fit; in
    /// the impossible event that it does, fall back to the prior
    /// (mean 0, full kernel variance).
    ///
    /// This is the one-point case of [`PreferenceModel::posterior_joint`]
    /// computed in per-thread scratch buffers instead of a dozen `Mat`s:
    /// the same kernel calls, the same two triangular solves and the
    /// same one-column products (sequential sums that skip zero factors,
    /// as the blocked GEMM does), so the result is bit-identical. The
    /// MC acquisition calls this once per sample row per candidate.
    pub fn predict_utility(&self, y: &[f64]) -> (f64, f64) {
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let PredictScratch { kx, w, sw } = &mut *scratch;
            self.predict_utility_in(y, kx, w, sw)
                .unwrap_or_else(|| (0.0, self.kernel.eval(y, y).max(0.0)))
        })
    }

    /// The body of [`PreferenceModel::predict_utility`]; `None` where
    /// `posterior_joint` would fail (a singular factor).
    fn predict_utility_in(
        &self,
        y: &[f64],
        kx: &mut Vec<f64>,
        w: &mut Vec<f64>,
        sw: &mut Vec<f64>,
    ) -> Option<(f64, f64)> {
        let n = self.items.len();
        kx.clear();
        kx.extend(self.items.iter().map(|item| self.kernel.eval(item, y)));
        let mean = vecops::dot(kx, &self.alpha);
        let kqq = self.kernel.eval(y, y);
        // w = K⁻¹ k* by the Cholesky solve's two substitutions.
        w.clear();
        w.resize(n, 0.0);
        let l = self.k_chol.l();
        solve::forward_substitution_into(l, kx, w).ok()?;
        solve::backward_substitution_transposed_in_place(l, w).ok()?;
        let reduction = one_column_product(kx, w);
        sw.clear();
        sw.extend((0..n).map(|i| one_column_product(self.sigma.row(i), w)));
        let middle = one_column_product(w, sw);
        Some((mean, (kqq - reduction + middle).max(0.0)))
    }

    /// Joint posterior (mean, covariance) of the latent utility at a set
    /// of query outcome vectors.
    pub fn posterior_joint(&self, ys: &[Vec<f64>]) -> Result<(Vec<f64>, Mat), PrefError> {
        let kxq = self.kernel.cross_matrix(&self.items, ys); // n x q
        let mean: Vec<f64> = (0..ys.len())
            .map(|j| vecops::dot(&kxq.col(j), &self.alpha))
            .collect();
        // cov = K** − K*ᵀK⁻¹K* + K*ᵀK⁻¹ Σ K⁻¹K*
        let kqq = self.kernel.matrix(ys);
        let w = self.k_chol.solve_mat(&kxq)?; // K⁻¹ K*, n x q
        let reduction = kxq.transpose().matmul(&w)?;
        let middle = w.transpose().matmul(&self.sigma.matmul(&w)?)?;
        let mut cov = kqq.sub(&reduction)?.add(&middle)?;
        cov.symmetrize();
        for i in 0..cov.rows() {
            if cov[(i, i)] < 0.0 {
                cov[(i, i)] = 0.0;
            }
        }
        Ok((mean, cov))
    }

    /// Probability that `a ≻ b` under the posterior (integrating both
    /// the latent uncertainty and the probit response noise).
    pub fn prob_prefers(&self, a: &[f64], b: &[f64]) -> f64 {
        // A failed posterior (impossible after a successful fit) means
        // total ignorance: 50/50.
        let Ok((mean, cov)) = self.posterior_joint(&[a.to_vec(), b.to_vec()]) else {
            return 0.5;
        };
        let mu = mean[0] - mean[1];
        let var = (cov[(0, 0)] + cov[(1, 1)] - 2.0 * cov[(0, 1)]).max(0.0);
        let c = std::f64::consts::SQRT_2 * self.lambda;
        norm_cdf(mu / (var + c * c).sqrt())
    }
}

/// Reusable buffers of [`PreferenceModel::predict_utility`].
#[derive(Default)]
struct PredictScratch {
    kx: Vec<f64>,
    w: Vec<f64>,
    sw: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<PredictScratch> = RefCell::new(PredictScratch::default());
}

/// `aᵀb` summed the way [`Mat::matmul`] forms a one-column product:
/// sequentially from zero, skipping terms whose left factor is zero.
fn one_column_product(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&ai, &bi) in a.iter().zip(b) {
        if ai != 0.0 {
            acc += ai * bi;
        }
    }
    acc
}

/// Log posterior (up to a constant): Σ log Φ(u_v) − ½ gᵀK⁻¹g.
fn log_posterior(
    g: &[f64],
    data: &PreferenceDataset,
    k_chol: &Cholesky,
    c: f64,
) -> Result<f64, PrefError> {
    let mut ll = 0.0;
    for cmp in data.comparisons() {
        let u = (g[cmp.winner] - g[cmp.loser]) / c;
        ll += eva_stats::normal::log_norm_cdf(u);
    }
    let quad = k_chol.quad_form(g)?;
    Ok(ll - 0.5 * quad)
}

/// Gradient of the log likelihood w.r.t. `g`, and the curvature matrix
/// `Λ = −∇² log lik` (PSD).
fn likelihood_derivatives(
    g: &[f64],
    data: &PreferenceDataset,
    n: usize,
    c: f64,
) -> (Vec<f64>, Mat) {
    let mut grad = vec![0.0; n];
    let mut lam = Mat::zeros(n, n);
    for cmp in data.comparisons() {
        let (a, b) = (cmp.winner, cmp.loser);
        let u = (g[a] - g[b]) / c;
        // v = φ/Φ (inverse Mills), w = v (u + v) > 0.
        let v = eva_stats::normal::mills_ratio_inv(u);
        let w = v * (u + v);
        grad[a] += v / c;
        grad[b] -= v / c;
        let wcc = w / (c * c);
        lam[(a, a)] += wcc;
        lam[(b, b)] += wcc;
        lam[(a, b)] -= wcc;
        lam[(b, a)] -= wcc;
    }
    (grad, lam)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::FunctionOracle;
    use eva_gp::KernelType;
    use eva_stats::rng::seeded;
    use rand::Rng;

    fn default_kernel(dim: usize) -> Kernel {
        Kernel::isotropic(KernelType::Rbf, dim, 0.5, 1.0)
    }

    /// Build a dataset of `n` random comparisons in [0,1]^dim, answered
    /// by the given utility.
    fn random_dataset(
        utility: impl Fn(&[f64]) -> f64 + Copy,
        dim: usize,
        n: usize,
        seed: u64,
    ) -> PreferenceDataset {
        let mut rng = seeded(seed);
        let mut data = PreferenceDataset::new();
        let mut oracle = FunctionOracle::new(utility);
        for _ in 0..n {
            let a: Vec<f64> = (0..dim).map(|_| rng.gen()).collect();
            let b: Vec<f64> = (0..dim).map(|_| rng.gen()).collect();
            data.query(&mut oracle, &a, &b);
        }
        data
    }

    #[test]
    fn map_utilities_respect_observed_order() {
        let data = random_dataset(|y| -y[0], 1, 15, 1);
        let model = PreferenceModel::fit(&data, default_kernel(1), 0.1).unwrap();
        // Every training comparison should be reproduced at the mode.
        for cmp in data.comparisons() {
            assert!(
                model.map_utilities()[cmp.winner] > model.map_utilities()[cmp.loser],
                "MAP order violates training comparison {cmp:?}"
            );
        }
    }

    #[test]
    fn predicts_held_out_comparisons_linear_utility() {
        let utility = |y: &[f64]| -(y[0] + 2.0 * y[1]);
        let data = random_dataset(utility, 2, 40, 2);
        let model = PreferenceModel::fit(&data, default_kernel(2), 0.1).unwrap();
        let mut rng = seeded(3);
        let mut correct = 0;
        let trials = 200;
        for _ in 0..trials {
            let a: Vec<f64> = vec![rng.gen(), rng.gen()];
            let b: Vec<f64> = vec![rng.gen(), rng.gen()];
            let (ua, _) = model.predict_utility(&a);
            let (ub, _) = model.predict_utility(&b);
            if (ua > ub) == (utility(&a) > utility(&b)) {
                correct += 1;
            }
        }
        let acc = correct as f64 / trials as f64;
        assert!(acc > 0.85, "held-out accuracy {acc}");
    }

    #[test]
    fn accuracy_improves_with_more_comparisons() {
        // The Fig. 9 mechanism in miniature.
        let utility = |y: &[f64]| -(0.5 * y[0] + 1.5 * y[1] + y[2]);
        let eval = |n: usize| -> f64 {
            let data = random_dataset(utility, 3, n, 4);
            let model = PreferenceModel::fit(&data, default_kernel(3), 0.1).unwrap();
            let mut rng = seeded(5);
            let trials = 300;
            let mut correct = 0;
            for _ in 0..trials {
                let a: Vec<f64> = (0..3).map(|_| rng.gen()).collect();
                let b: Vec<f64> = (0..3).map(|_| rng.gen()).collect();
                let (ua, _) = model.predict_utility(&a);
                let (ub, _) = model.predict_utility(&b);
                if (ua > ub) == (utility(&a) > utility(&b)) {
                    correct += 1;
                }
            }
            correct as f64 / trials as f64
        };
        let acc_small = eval(3);
        let acc_large = eval(30);
        assert!(
            acc_large > acc_small,
            "no improvement: {acc_small} -> {acc_large}"
        );
        assert!(acc_large > 0.85, "large-sample accuracy {acc_large}");
    }

    #[test]
    fn posterior_variance_shrinks_near_observed_items() {
        let data = random_dataset(|y| -y[0], 1, 25, 6);
        let model = PreferenceModel::fit(&data, default_kernel(1), 0.1).unwrap();
        let seen = data.items()[0].clone();
        let (_, var_seen) = model.predict_utility(&seen);
        let (_, var_far) = model.predict_utility(&[50.0]);
        assert!(var_far > var_seen, "{var_far} vs {var_seen}");
    }

    #[test]
    fn prob_prefers_is_calibrated_in_direction() {
        let data = random_dataset(|y| -y[0], 1, 30, 7);
        let model = PreferenceModel::fit(&data, default_kernel(1), 0.1).unwrap();
        let p_good = model.prob_prefers(&[0.1], &[0.9]);
        let p_bad = model.prob_prefers(&[0.9], &[0.1]);
        assert!(p_good > 0.7, "p_good = {p_good}");
        assert!((p_good + p_bad - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_dataset_rejected() {
        let data = PreferenceDataset::new();
        assert!(matches!(
            PreferenceModel::fit(&data, default_kernel(1), 0.1),
            Err(PrefError::Empty)
        ));
    }

    #[test]
    fn dim_mismatch_rejected() {
        let mut data = PreferenceDataset::new();
        data.add(&[0.0, 1.0], &[1.0, 0.0]);
        assert!(matches!(
            PreferenceModel::fit(&data, default_kernel(3), 0.1),
            Err(PrefError::BadDim { .. })
        ));
    }

    #[test]
    fn single_comparison_fits() {
        let mut data = PreferenceDataset::new();
        data.add(&[0.0], &[1.0]);
        let model = PreferenceModel::fit(&data, default_kernel(1), 0.1).unwrap();
        let (u0, _) = model.predict_utility(&[0.0]);
        let (u1, _) = model.predict_utility(&[1.0]);
        assert!(u0 > u1);
    }

    #[test]
    fn contradictory_comparisons_average_out() {
        // a ≻ b and b ≻ a: utilities should stay close to each other.
        let mut data = PreferenceDataset::new();
        data.add(&[0.0], &[1.0]);
        data.add(&[1.0], &[0.0]);
        let model = PreferenceModel::fit(&data, default_kernel(1), 0.1).unwrap();
        let g = model.map_utilities();
        assert!((g[0] - g[1]).abs() < 0.2, "{g:?}");
    }
}
