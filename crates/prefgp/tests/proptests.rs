//! Property tests for preference learning.

use eva_gp::{Kernel, KernelType};
use eva_prefgp::{FunctionOracle, PreferenceDataset, PreferenceModel};
use eva_stats::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

/// Random linear utilities over [0,1]²; weights bounded away from zero
/// so comparisons are informative.
fn weights_strategy() -> impl Strategy<Value = (f64, f64)> {
    (0.3f64..3.0, 0.3f64..3.0)
}

fn build_dataset(w: (f64, f64), n: usize, seed: u64) -> PreferenceDataset {
    let mut rng = seeded(seed);
    let mut data = PreferenceDataset::new();
    let mut oracle = FunctionOracle::new(move |y: &[f64]| -(w.0 * y[0] + w.1 * y[1]));
    for _ in 0..n {
        let a: Vec<f64> = vec![rng.gen(), rng.gen()];
        let b: Vec<f64> = vec![rng.gen(), rng.gen()];
        data.query(&mut oracle, &a, &b);
    }
    data
}

fn fit(data: &PreferenceDataset) -> PreferenceModel {
    let kernel = Kernel::isotropic(KernelType::Rbf, 2, 0.5, 1.0);
    PreferenceModel::fit(data, kernel, 0.1).expect("Laplace fit")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The MAP utilities always reproduce every *consistent* training
    /// comparison's order.
    #[test]
    fn map_respects_training_data(w in weights_strategy(), seed in 0u64..500) {
        let data = build_dataset(w, 12, seed);
        let model = fit(&data);
        for cmp in data.comparisons() {
            let gw = model.map_utilities()[cmp.winner];
            let gl = model.map_utilities()[cmp.loser];
            prop_assert!(gw > gl - 1e-6, "winner {gw} vs loser {gl}");
        }
    }

    /// prob_prefers is a proper complement: P(a ≻ b) + P(b ≻ a) = 1.
    #[test]
    fn preference_probability_is_complementary(w in weights_strategy(), seed in 0u64..500) {
        let data = build_dataset(w, 8, seed);
        let model = fit(&data);
        let mut rng = seeded(seed ^ 0xf00d);
        for _ in 0..10 {
            let a: Vec<f64> = vec![rng.gen(), rng.gen()];
            let b: Vec<f64> = vec![rng.gen(), rng.gen()];
            let pab = model.prob_prefers(&a, &b);
            let pba = model.prob_prefers(&b, &a);
            prop_assert!((pab + pba - 1.0).abs() < 1e-9);
            prop_assert!((0.0..=1.0).contains(&pab));
        }
    }

    /// Posterior utility variance is nonnegative and finite everywhere.
    #[test]
    fn utility_variance_is_sane(w in weights_strategy(), seed in 0u64..500,
                                qx in 0.0f64..1.0, qy in 0.0f64..1.0) {
        let data = build_dataset(w, 10, seed);
        let model = fit(&data);
        let (mu, var) = model.predict_utility(&[qx, qy]);
        prop_assert!(mu.is_finite());
        prop_assert!(var.is_finite() && var >= 0.0);
    }

    /// `predict_utility` (the scratch-buffer path) is bit-identical to
    /// the one-point joint posterior it replaces, on random fitted
    /// models of random dimension and kernel family. Far-off queries
    /// underflow kernel entries to exactly zero, which exercises the
    /// zero-skipping sums.
    #[test]
    fn predict_utility_equals_one_point_posterior(
        dim in 1usize..6,
        n_cmp in 1usize..20,
        family in 0usize..3,
        lengthscale in 0.2f64..2.0,
        seed in 0u64..1000,
    ) {
        let family = [KernelType::Rbf, KernelType::Matern32, KernelType::Matern52][family];
        let mut rng = seeded(seed);
        let weights: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.2..3.0)).collect();
        let mut oracle = FunctionOracle::new(move |y: &[f64]| {
            -y.iter().zip(&weights).map(|(v, w)| v * w).sum::<f64>()
        });
        let mut data = PreferenceDataset::new();
        for _ in 0..n_cmp {
            let a: Vec<f64> = (0..dim).map(|_| rng.gen()).collect();
            let b: Vec<f64> = (0..dim).map(|_| rng.gen()).collect();
            data.query(&mut oracle, &a, &b);
        }
        let kernel = Kernel::isotropic(family, dim, lengthscale, rng.gen_range(0.5..2.0));
        let model = PreferenceModel::fit(&data, kernel, 0.1).expect("Laplace fit");
        let mut queries: Vec<Vec<f64>> = (0..12)
            .map(|_| (0..dim).map(|_| rng.gen_range(-0.5..1.5)).collect())
            .collect();
        queries.push(data.items()[0].clone());
        queries.push(vec![60.0; dim]);
        for q in &queries {
            let (mu, var) = model.predict_utility(q);
            let (mean, cov) = model
                .posterior_joint(std::slice::from_ref(q))
                .expect("one-point posterior");
            prop_assert_eq!(mu.to_bits(), mean[0].to_bits(), "mean at {:?}", q);
            prop_assert_eq!(var.to_bits(), cov[(0, 0)].max(0.0).to_bits(), "var at {:?}", q);
        }
    }

    /// Preference learning is label-scale free: the oracle's utility
    /// can be rescaled arbitrarily without changing the comparisons,
    /// hence the fitted model.
    #[test]
    fn invariant_to_utility_scaling(w in weights_strategy(), seed in 0u64..200,
                                    scale in 0.1f64..10.0) {
        let data1 = build_dataset(w, 10, seed);
        let data2 = build_dataset((w.0 * scale, w.1 * scale), 10, seed);
        // Same seed + same *ordering* utility => identical datasets.
        prop_assert_eq!(data1.comparisons(), data2.comparisons());
        prop_assert_eq!(data1.items(), data2.items());
    }
}
