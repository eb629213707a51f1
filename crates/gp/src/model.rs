//! Exact GP regression: posterior means, variances, joint covariance
//! and posterior sampling.

use std::sync::atomic::{AtomicU64, Ordering};

use eva_linalg::{solve, vecops, Cholesky, Mat};
use rand::Rng;

use crate::{GpError, Kernel, Result};

/// An exact Gaussian-process regression model.
///
/// Targets are standardized internally (zero mean, unit variance) so the
/// hyperparameter priors/bounds in [`crate::fit`] transfer across
/// outcome scales — the five EVA objectives span six orders of magnitude
/// (seconds vs. TFLOPs).
#[derive(Debug, Clone)]
pub struct GpModel {
    kernel: Kernel,
    noise_var: f64,
    x: Vec<Vec<f64>>,
    y_raw: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    chol: Cholesky,
    /// `(K + σ² I)^{-1} z` where `z` is the standardized target vector.
    alpha: Vec<f64>,
    /// Provenance of each row of the Cholesky factor: the id of the
    /// factorization or extension that computed it (see
    /// [`GpModel::factor_ids`]).
    factor_ids: Vec<u64>,
}

/// Source of factor ids; every factorization and every extension draws
/// a fresh one.
static NEXT_FACTOR_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_factor_id() -> u64 {
    NEXT_FACTOR_ID.fetch_add(1, Ordering::Relaxed)
}

/// Joint latent posterior at a set of query points.
#[derive(Debug, Clone)]
pub struct GpPosterior {
    /// Posterior mean per query point (original target units).
    pub mean: Vec<f64>,
    /// Posterior covariance (original target units squared).
    pub cov: Mat,
}

impl GpModel {
    /// Build a GP from training data. `noise_var` is the observation
    /// noise variance **in standardized target units** (the scale
    /// [`crate::fit`] optimizes on).
    pub fn new(kernel: Kernel, noise_var: f64, x: Vec<Vec<f64>>, y: Vec<f64>) -> Result<Self> {
        if x.is_empty() {
            return Err(GpError::BadData("no training points".into()));
        }
        if x.len() != y.len() {
            return Err(GpError::BadData(format!(
                "{} inputs vs {} targets",
                x.len(),
                y.len()
            )));
        }
        if x.iter().any(|p| p.len() != kernel.dim()) {
            return Err(GpError::BadData(format!(
                "input dim != kernel dim {}",
                kernel.dim()
            )));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // also rejects NaN
        if !(noise_var > 0.0) {
            return Err(GpError::BadData("noise_var must be positive".into()));
        }
        let (y_mean, y_std) = standardization_of(&y);
        Self::build(kernel, noise_var, x, y, y_mean, y_std)
    }

    /// Build a GP with an *explicitly given* target standardization
    /// instead of deriving it from `y`. This is the from-scratch
    /// reference path for conditioning with fixed hyperparameters:
    /// `noise_var` was fitted in a particular standardized scale, so
    /// updates must keep `y_mean`/`y_std` frozen or the noise silently
    /// changes meaning in original units (see [`GpModel::with_added`]).
    pub fn with_standardization(
        kernel: Kernel,
        noise_var: f64,
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        y_mean: f64,
        y_std: f64,
    ) -> Result<Self> {
        if x.is_empty() || x.len() != y.len() {
            return Err(GpError::BadData(format!(
                "{} inputs vs {} targets",
                x.len(),
                y.len()
            )));
        }
        if x.iter().any(|p| p.len() != kernel.dim()) {
            return Err(GpError::BadData(format!(
                "input dim != kernel dim {}",
                kernel.dim()
            )));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // also rejects NaN
        if !(noise_var > 0.0) {
            return Err(GpError::BadData("noise_var must be positive".into()));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(y_std > 0.0) || !y_mean.is_finite() {
            return Err(GpError::BadData(format!(
                "bad standardization: mean {y_mean}, std {y_std}"
            )));
        }
        Self::build(kernel, noise_var, x, y, y_mean, y_std)
    }

    fn build(
        kernel: Kernel,
        noise_var: f64,
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        y_mean: f64,
        y_std: f64,
    ) -> Result<Self> {
        let z: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();
        let mut k = kernel.matrix(&x);
        k.add_diag(noise_var);
        let chol = Cholesky::decompose_jittered(&k)?;
        let alpha = chol.solve(&z)?;
        let factor_ids = vec![fresh_factor_id(); x.len()];
        Ok(GpModel {
            kernel,
            noise_var,
            x,
            y_raw: y,
            y_mean,
            y_std,
            chol,
            alpha,
            factor_ids,
        })
    }

    /// Number of training points.
    pub fn n(&self) -> usize {
        self.x.len()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.kernel.dim()
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Observation noise variance (standardized units).
    pub fn noise_var(&self) -> f64 {
        self.noise_var
    }

    /// Training inputs.
    pub fn train_x(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// Training targets (original units).
    pub fn train_y(&self) -> &[f64] {
        &self.y_raw
    }

    /// Predictive mean and *latent* variance at one point, in original
    /// target units. Add `noise_var * y_std²` for an observation.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        debug_assert_eq!(x.len(), self.dim(), "predict: dim mismatch");
        let kx: Vec<f64> = self.x.iter().map(|xi| self.kernel.eval(xi, x)).collect();
        let mean_z = vecops::dot(&kx, &self.alpha);
        // var = k(x,x) - kx^T (K+σ²I)^{-1} kx. The factorization
        // dimension is consistent by construction; if it ever were not,
        // fall back to the (conservative) prior variance.
        let v = self.chol.quad_form(&kx).unwrap_or(0.0);
        let var_z = (self.kernel.eval(x, x) - v).max(0.0);
        (
            self.y_mean + self.y_std * mean_z,
            self.y_std * self.y_std * var_z,
        )
    }

    /// Predictive mean at one point (original units).
    pub fn predict_mean(&self, x: &[f64]) -> f64 {
        self.predict(x).0
    }

    /// Vectorized [`GpModel::predict`] over many points: builds the
    /// q×n cross-kernel matrix once (query-major, so each query's
    /// kernel row is a contiguous slice) and reuses one triangular-solve
    /// scratch buffer across queries instead of allocating per call.
    /// Per-point results are bit-identical to [`GpModel::predict`] —
    /// each row sees the same kernel evaluations (the scaled squared
    /// distance is exactly symmetric), the same dot order, and the same
    /// substitution.
    pub fn predict_many(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        if xs.is_empty() {
            return Vec::new();
        }
        debug_assert!(
            xs.iter().all(|x| x.len() == self.dim()),
            "predict_many: dim mismatch"
        );
        let kqx = self.kernel.cross_matrix(xs, &self.x); // q x n
        let s2 = self.y_std * self.y_std;
        let mut scratch = vec![0.0; self.x.len()];
        (0..xs.len())
            .map(|j| {
                let kx = kqx.row(j);
                let mean_z = vecops::dot(kx, &self.alpha);
                let v = self.chol.quad_form_into(kx, &mut scratch).unwrap_or(0.0);
                let var_z = (self.kernel.eval(&xs[j], &xs[j]) - v).max(0.0);
                (self.y_mean + self.y_std * mean_z, s2 * var_z)
            })
            .collect()
    }

    /// A model over the *same inputs and hyperparameters* but fresh
    /// targets: reuses this model's cached Cholesky factor (the Gram
    /// matrix depends only on the inputs, kernel, and noise) and only
    /// re-solves for the weight vector. Bit-identical to
    /// `GpModel::new(kernel, noise_var, x, y)` on the same inputs, at
    /// O(n²) instead of O(n³) — the shared-profiling-design fit path
    /// builds one factor per objective and reuses it across all cameras.
    pub fn with_targets(&self, y: Vec<f64>) -> Result<GpModel> {
        if y.len() != self.x.len() {
            return Err(GpError::BadData(format!(
                "with_targets: {} targets vs {} inputs",
                y.len(),
                self.x.len()
            )));
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::BadData("with_targets: non-finite target".into()));
        }
        let (y_mean, y_std) = standardization_of(&y);
        let z: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();
        let alpha = self.chol.solve(&z)?;
        Ok(GpModel {
            kernel: self.kernel.clone(),
            noise_var: self.noise_var,
            x: self.x.clone(),
            y_raw: y,
            y_mean,
            y_std,
            chol: self.chol.clone(),
            alpha,
            factor_ids: self.factor_ids.clone(),
        })
    }

    /// Observation-noise variance in original units.
    pub fn observation_noise(&self) -> f64 {
        self.noise_var * self.y_std * self.y_std
    }

    /// Joint latent posterior (mean vector + full covariance) at `xs`.
    pub fn posterior(&self, xs: &[Vec<f64>]) -> Result<GpPosterior> {
        if xs.is_empty() {
            return Err(GpError::BadData("posterior: empty query set".into()));
        }
        let kxq = self.kernel.cross_matrix(&self.x, xs); // n x q
        let mean: Vec<f64> = (0..xs.len())
            .map(|j| {
                let col = kxq.col(j);
                self.y_mean + self.y_std * vecops::dot(&col, &self.alpha)
            })
            .collect();
        // cov = K(Q,Q) - Kxq^T (K+σ²I)^{-1} Kxq
        let kqq = self.kernel.matrix(xs);
        let w = self.chol.solve_mat(&kxq)?; // n x q
        let reduction = kxq.transpose().matmul(&w)?; // q x q
        let mut cov = kqq.sub(&reduction)?;
        cov.symmetrize();
        // Clamp round-off negatives on the diagonal.
        for i in 0..cov.rows() {
            if cov[(i, i)] < 0.0 {
                cov[(i, i)] = 0.0;
            }
        }
        let s2 = self.y_std * self.y_std;
        Ok(GpPosterior {
            mean,
            cov: cov.scale(s2),
        })
    }

    /// Log marginal likelihood of the training data under the current
    /// hyperparameters, computed on the standardized scale (the quantity
    /// [`crate::fit`] maximizes).
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.n() as f64;
        let z: Vec<f64> = self
            .y_raw
            .iter()
            .map(|&v| (v - self.y_mean) / self.y_std)
            .collect();
        let data_fit = vecops::dot(&z, &self.alpha);
        -0.5 * data_fit - 0.5 * self.chol.log_det() - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    /// Target standardization `(y_mean, y_std)` this model predicts in.
    pub fn standardization(&self) -> (f64, f64) {
        (self.y_mean, self.y_std)
    }

    /// Condition on additional observations, keeping hyperparameters
    /// fixed (the BO inner loop re-fits hyperparameters only every few
    /// iterations; this is the cheap between-refit update).
    ///
    /// The target standardization is **frozen**: `noise_var` was fitted
    /// in the original `y_std` scale, so re-deriving the standardization
    /// from the grown target vector would silently re-scale the noise in
    /// original units. This rebuilds the factorization from scratch —
    /// it is the O(n³) reference path that [`GpModel::condition`] must
    /// match.
    pub fn with_added(&self, x_new: &[Vec<f64>], y_new: &[f64]) -> Result<GpModel> {
        if x_new.len() != y_new.len() {
            return Err(GpError::BadData("with_added: length mismatch".into()));
        }
        let mut x = self.x.clone();
        x.extend(x_new.iter().cloned());
        let mut y = self.y_raw.clone();
        y.extend_from_slice(y_new);
        GpModel::with_standardization(
            self.kernel.clone(),
            self.noise_var,
            x,
            y,
            self.y_mean,
            self.y_std,
        )
    }

    /// Incremental version of [`GpModel::with_added`]: extends the cached
    /// Cholesky factor by the `k` new rows via [`Cholesky::extend`]
    /// (O(k·n²) instead of O(n³)) and reuses the frozen standardization.
    ///
    /// Falls back to the from-scratch rebuild when the extension is not
    /// numerically positive definite (e.g. a new point that duplicates a
    /// training point while the old factor carries jitter the new block
    /// can't absorb) — correctness never depends on the fast path.
    pub fn condition(&self, x_new: &[Vec<f64>], y_new: &[f64]) -> Result<GpModel> {
        if x_new.len() != y_new.len() {
            return Err(GpError::BadData("condition: length mismatch".into()));
        }
        if x_new.is_empty() {
            return Ok(self.clone());
        }
        if x_new.iter().any(|p| p.len() != self.dim()) {
            return Err(GpError::BadData(format!(
                "condition: input dim != kernel dim {}",
                self.dim()
            )));
        }
        if y_new.iter().any(|v| !v.is_finite()) {
            return Err(GpError::BadData("condition: non-finite target".into()));
        }
        let cross = self.kernel.cross_matrix(&self.x, x_new); // n x k
        let mut corner = self.kernel.matrix(x_new); // k x k
        corner.add_diag(self.noise_var);
        let chol = match self.chol.extend(&cross, &corner) {
            Ok(c) => c,
            Err(_) => return self.with_added(x_new, y_new),
        };
        let mut x = self.x.clone();
        x.extend(x_new.iter().cloned());
        let mut y = self.y_raw.clone();
        y.extend_from_slice(y_new);
        let z: Vec<f64> = y.iter().map(|&v| (v - self.y_mean) / self.y_std).collect();
        let alpha = chol.solve(&z)?;
        let mut factor_ids = Vec::with_capacity(x.len());
        factor_ids.extend_from_slice(&self.factor_ids);
        factor_ids.resize(x.len(), fresh_factor_id());
        Ok(GpModel {
            kernel: self.kernel.clone(),
            noise_var: self.noise_var,
            x,
            y_raw: y,
            y_mean: self.y_mean,
            y_std: self.y_std,
            chol,
            alpha,
            factor_ids,
        })
    }

    /// Provenance of each row of the Cholesky factor (and of the
    /// training input it factors): the id of the from-scratch
    /// factorization or the [`GpModel::condition`] extension that
    /// computed it. Ids are process-unique and rows are only ever
    /// copied from parent to child, so two models whose ids agree at
    /// row `i` hold bitwise-equal factor rows and training inputs at
    /// `..=i` — the validity rule of [`crate::PosteriorCache`]. The
    /// leading run of equal ids is the *origin*: the factorization every
    /// [`GpModel::with_targets`] sibling shares.
    pub fn factor_ids(&self) -> &[u64] {
        &self.factor_ids
    }

    /// Number of leading factor rows computed by the origin
    /// factorization (see [`GpModel::factor_ids`]).
    pub(crate) fn origin_rows(&self) -> usize {
        let origin = self.factor_ids.first().copied();
        self.factor_ids
            .iter()
            .take_while(|&&id| Some(id) == origin)
            .count()
    }

    /// Rows `rows` of the cross-kernel vector `kx[i] = k(x, xᵢ)`, as
    /// [`GpModel::predict_many`] evaluates them.
    pub(crate) fn cross_rows(&self, x: &[f64], kx: &mut [f64], rows: std::ops::Range<usize>) {
        for i in rows {
            kx[i] = self.kernel.eval(x, &self.x[i]);
        }
    }

    /// Rows `rows` of `kx` and of its forward solve `y = L⁻¹ kx`, with
    /// `kx`/`y` already filled below `rows.start`: the per-row arithmetic
    /// of [`GpModel::predict_many`], resumable as the factor grows.
    pub(crate) fn cross_solve_rows(
        &self,
        x: &[f64],
        kx: &mut [f64],
        y: &mut [f64],
        rows: std::ops::Range<usize>,
    ) -> Result<()> {
        self.cross_rows(x, kx, rows.clone());
        solve::forward_substitution_rows(self.chol.l(), kx, y, rows)?;
        Ok(())
    }

    /// Posterior `(mean, latent variance)` from a query's full
    /// cross-kernel vector `kx`, its forward solve `y` and `kxx =
    /// k(x, x)` — the final step of [`GpModel::predict_many`].
    pub(crate) fn posterior_from_rows(&self, kx: &[f64], y: &[f64], kxx: f64) -> (f64, f64) {
        let mean_z = vecops::dot(kx, &self.alpha);
        let v = vecops::dot(y, y);
        let var_z = (kxx - v).max(0.0);
        (
            self.y_mean + self.y_std * mean_z,
            self.y_std * self.y_std * var_z,
        )
    }
}

/// Standardization `(mean, std)` derived from a target vector; the std
/// falls back to 1.0 for (near-)constant targets.
pub(crate) fn standardization_of(y: &[f64]) -> (f64, f64) {
    let y_mean = vecops::mean(y);
    let centered: Vec<f64> = y.iter().map(|&v| v - y_mean).collect();
    let var = vecops::dot(&centered, &centered) / y.len().max(1) as f64;
    let y_std = if var > 1e-24 { var.sqrt() } else { 1.0 };
    (y_mean, y_std)
}

impl GpPosterior {
    /// Number of query points.
    pub fn len(&self) -> usize {
        self.mean.len()
    }

    /// True when there are no query points (unreachable by construction,
    /// provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.mean.is_empty()
    }

    /// Draw `n_samples` joint samples; returns an `n_samples x q` matrix.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, n_samples: usize) -> Result<Mat> {
        let q = self.len();
        let mut cov = self.cov.clone();
        // Sampling jitter: tiny relative to outcome scales, stabilizes
        // the factorization of nearly singular posteriors.
        cov.add_diag(1e-12 + 1e-9 * mean_diag(&self.cov));
        let chol = Cholesky::decompose_jittered(&cov)?;
        let mut out = Mat::zeros(n_samples, q);
        for s in 0..n_samples {
            let eps = eva_stats::rng::standard_normal_vec(rng, q);
            let correlated = chol.l().matvec(&eps)?;
            for j in 0..q {
                out[(s, j)] = self.mean[j] + correlated[j];
            }
        }
        Ok(out)
    }

    /// Draw joint samples using *given* standard-normal inputs (common
    /// random numbers for acquisition-function comparison). `eps` must be
    /// `n_samples x q`.
    pub fn sample_with(&self, eps: &Mat) -> Result<Mat> {
        let q = self.len();
        if eps.cols() != q {
            return Err(GpError::BadData(format!(
                "sample_with: eps has {} cols, posterior has {q} points",
                eps.cols()
            )));
        }
        let mut cov = self.cov.clone();
        cov.add_diag(1e-12 + 1e-9 * mean_diag(&self.cov));
        let chol = Cholesky::decompose_jittered(&cov)?;
        let mut out = Mat::zeros(eps.rows(), q);
        for s in 0..eps.rows() {
            let correlated = chol.l().matvec(eps.row(s))?;
            for j in 0..q {
                out[(s, j)] = self.mean[j] + correlated[j];
            }
        }
        Ok(out)
    }
}

fn mean_diag(m: &Mat) -> f64 {
    let n = m.rows().max(1);
    (0..m.rows()).map(|i| m[(i, i)].abs()).sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelType;
    use eva_stats::rng::seeded;

    fn toy_model() -> GpModel {
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 * 0.4]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 2.0).sin() * 3.0 + 5.0).collect();
        let kernel = Kernel::isotropic(KernelType::Matern52, 1, 0.6, 1.0);
        GpModel::new(kernel, 1e-4, x, y).unwrap()
    }

    #[test]
    fn interpolates_training_points_with_small_noise() {
        let m = toy_model();
        for (xi, &yi) in m.train_x().to_vec().iter().zip(m.train_y().to_vec().iter()) {
            let (mean, var) = m.predict(xi);
            assert!((mean - yi).abs() < 0.05, "mean {mean} vs {yi}");
            assert!(var < 0.05, "var {var}");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let m = toy_model();
        let (_, var_near) = m.predict(&[1.0]);
        let (_, var_far) = m.predict(&[10.0]);
        assert!(var_far > var_near * 10.0, "{var_far} vs {var_near}");
        // Far from data, mean reverts toward the target mean.
        let (mean_far, _) = m.predict(&[100.0]);
        let avg = eva_linalg::vecops::mean(m.train_y());
        assert!((mean_far - avg).abs() < 0.3);
    }

    #[test]
    fn posterior_diag_matches_pointwise_variance() {
        let m = toy_model();
        let qs: Vec<Vec<f64>> = vec![vec![0.3], vec![1.7], vec![5.0]];
        let post = m.posterior(&qs).unwrap();
        for (j, q) in qs.iter().enumerate() {
            let (mean, var) = m.predict(q);
            assert!((post.mean[j] - mean).abs() < 1e-9);
            assert!((post.cov[(j, j)] - var).abs() < 1e-8);
        }
    }

    #[test]
    fn posterior_samples_match_moments() {
        let m = toy_model();
        let qs: Vec<Vec<f64>> = vec![vec![0.5], vec![2.5]];
        let post = m.posterior(&qs).unwrap();
        let samples = post.sample(&mut seeded(3), 20_000).unwrap();
        for j in 0..2 {
            let col: Vec<f64> = (0..samples.rows()).map(|s| samples[(s, j)]).collect();
            let mean = eva_linalg::vecops::mean(&col);
            let var = col.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
            assert!((mean - post.mean[j]).abs() < 0.05, "mean j={j}");
            assert!(
                (var - post.cov[(j, j)]).abs() < 0.1 * post.cov[(j, j)].max(0.01),
                "var j={j}: {var} vs {}",
                post.cov[(j, j)]
            );
        }
    }

    #[test]
    fn sample_with_is_deterministic_given_eps() {
        let m = toy_model();
        let qs: Vec<Vec<f64>> = vec![vec![0.5], vec![2.5]];
        let post = m.posterior(&qs).unwrap();
        let eps = Mat::from_rows(&[&[0.3, -1.2], &[0.0, 0.7]]);
        let a = post.sample_with(&eps).unwrap();
        let b = post.sample_with(&eps).unwrap();
        assert!(a.max_abs_diff(&b) < 1e-15);
    }

    #[test]
    fn standardization_is_scale_invariant() {
        // Fitting y and 1000*y + 7 must give identical standardized
        // structure -> R² of predictions identical.
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.3]).collect();
        let y1: Vec<f64> = x.iter().map(|p| p[0].cos()).collect();
        let y2: Vec<f64> = y1.iter().map(|&v| 1000.0 * v + 7.0).collect();
        let kernel = Kernel::isotropic(KernelType::Rbf, 1, 0.8, 1.0);
        let m1 = GpModel::new(kernel.clone(), 1e-4, x.clone(), y1).unwrap();
        let m2 = GpModel::new(kernel, 1e-4, x, y2).unwrap();
        let q = vec![1.25];
        let (a, va) = m1.predict(&q);
        let (b, vb) = m2.predict(&q);
        assert!((b - (1000.0 * a + 7.0)).abs() < 1e-6);
        assert!((vb - 1e6 * va).abs() < 1e-3);
    }

    #[test]
    fn observation_noise_is_pinned_across_updates() {
        // Regression: with_added used to re-standardize targets on every
        // update, so noise_var (fitted in the old standardized units)
        // silently drifted in original units as y_std moved. Feed updates
        // whose targets massively widen the spread and pin the noise.
        let m = toy_model();
        let pinned = m.observation_noise();
        let (mean0, std0) = m.standardization();
        let m2 = m.with_added(&[vec![4.1]], &[250.0]).unwrap();
        let m3 = m2.with_added(&[vec![4.3]], &[-300.0]).unwrap();
        assert_eq!(m3.observation_noise(), pinned);
        assert_eq!(m3.standardization(), (mean0, std0));
        let m4 = m
            .condition(&[vec![4.1], vec![4.3]], &[250.0, -300.0])
            .unwrap();
        assert_eq!(m4.observation_noise(), pinned);
    }

    #[test]
    fn condition_matches_from_scratch_rebuild() {
        let m = toy_model();
        let x_new = vec![vec![0.9], vec![2.1], vec![3.3]];
        let y_new = vec![4.2, 6.8, 5.1];
        let fast = m.condition(&x_new, &y_new).unwrap();
        let slow = m.with_added(&x_new, &y_new).unwrap();
        for q in [vec![0.0], vec![1.5], vec![2.9], vec![8.0]] {
            let (mf, vf) = fast.predict(&q);
            let (ms, vs) = slow.predict(&q);
            assert!((mf - ms).abs() < 1e-8, "mean {mf} vs {ms} at {q:?}");
            assert!((vf - vs).abs() < 1e-8, "var {vf} vs {vs} at {q:?}");
        }
        assert!((fast.log_marginal_likelihood() - slow.log_marginal_likelihood()).abs() < 1e-8);
    }

    #[test]
    fn condition_falls_back_on_degenerate_updates() {
        // Conditioning on an exact duplicate of a training point is the
        // worst case for the Schur complement; the result must still be
        // usable (fast path or fallback, transparently).
        let m = toy_model();
        let dup = m.train_x()[3].clone();
        let m2 = m
            .condition(std::slice::from_ref(&dup), &[m.train_y()[3]])
            .unwrap();
        let (mean, var) = m2.predict(&dup);
        assert!(mean.is_finite() && var.is_finite());
        assert!(var >= 0.0);
    }

    #[test]
    fn condition_rejects_bad_inputs() {
        let m = toy_model();
        assert!(m.condition(&[vec![1.0]], &[1.0, 2.0]).is_err());
        assert!(m.condition(&[vec![1.0, 2.0]], &[1.0]).is_err());
        assert!(m.condition(&[vec![1.0]], &[f64::NAN]).is_err());
        // Empty update is the identity.
        let same = m.condition(&[], &[]).unwrap();
        assert_eq!(same.n(), m.n());
    }

    #[test]
    fn with_added_shrinks_uncertainty() {
        let m = toy_model();
        let q = vec![5.0];
        let (_, var_before) = m.predict(&q);
        let m2 = m.with_added(std::slice::from_ref(&q), &[4.0]).unwrap();
        let (mean_after, var_after) = m2.predict(&q);
        assert!(var_after < var_before / 10.0);
        assert!((mean_after - 4.0).abs() < 0.1);
    }

    #[test]
    fn predict_many_is_bit_identical_to_predict() {
        let m = toy_model();
        let qs: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64 * 0.55 - 0.4]).collect();
        let batch = m.predict_many(&qs);
        assert_eq!(batch.len(), qs.len());
        for (q, &(mean_b, var_b)) in qs.iter().zip(&batch) {
            let (mean, var) = m.predict(q);
            assert_eq!(mean.to_bits(), mean_b.to_bits(), "mean at {q:?}");
            assert_eq!(var.to_bits(), var_b.to_bits(), "var at {q:?}");
        }
        assert!(m.predict_many(&[]).is_empty());
    }

    #[test]
    fn with_targets_matches_fresh_build() {
        let m = toy_model();
        let y2: Vec<f64> = m.train_x().iter().map(|p| p[0] * 0.7 - 2.0).collect();
        let fast = m.with_targets(y2.clone()).unwrap();
        let slow = GpModel::new(
            m.kernel().clone(),
            m.noise_var(),
            m.train_x().to_vec(),
            y2.clone(),
        )
        .unwrap();
        assert_eq!(fast.standardization(), slow.standardization());
        for q in [vec![0.1], vec![1.3], vec![2.9]] {
            let (mf, vf) = fast.predict(&q);
            let (ms, vs) = slow.predict(&q);
            assert_eq!(mf.to_bits(), ms.to_bits(), "mean at {q:?}");
            assert_eq!(vf.to_bits(), vs.to_bits(), "var at {q:?}");
        }
        // Length mismatch and non-finite targets are rejected.
        assert!(m.with_targets(vec![1.0]).is_err());
        let mut bad = y2;
        bad[0] = f64::NAN;
        assert!(m.with_targets(bad).is_err());
    }

    #[test]
    fn log_marginal_likelihood_prefers_good_lengthscale() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.25]).collect();
        let y: Vec<f64> = x.iter().map(|p| p[0].sin()).collect();
        let lml = |ls: f64| {
            let kernel = Kernel::isotropic(KernelType::Rbf, 1, ls, 1.0);
            GpModel::new(kernel, 1e-4, x.clone(), y.clone())
                .unwrap()
                .log_marginal_likelihood()
        };
        // A sensible lengthscale beats badly mis-specified ones.
        assert!(lml(1.0) > lml(0.01));
        assert!(lml(1.0) > lml(100.0));
    }

    #[test]
    fn rejects_bad_inputs() {
        let kernel = Kernel::isotropic(KernelType::Rbf, 1, 1.0, 1.0);
        assert!(GpModel::new(kernel.clone(), 1e-4, vec![], vec![]).is_err());
        assert!(GpModel::new(kernel.clone(), 1e-4, vec![vec![0.0]], vec![1.0, 2.0]).is_err());
        assert!(GpModel::new(kernel.clone(), 0.0, vec![vec![0.0]], vec![1.0]).is_err());
        assert!(GpModel::new(kernel, 1e-4, vec![vec![0.0, 1.0]], vec![1.0]).is_err());
    }

    #[test]
    fn constant_targets_are_handled() {
        let x: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let y = vec![3.0; 5];
        let kernel = Kernel::isotropic(KernelType::Matern32, 1, 1.0, 1.0);
        let m = GpModel::new(kernel, 1e-4, x, y).unwrap();
        let (mean, _) = m.predict(&[2.5]);
        assert!((mean - 3.0).abs() < 1e-6);
    }
}
