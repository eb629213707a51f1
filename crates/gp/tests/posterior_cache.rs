//! The posterior cache returns exactly what `GpModel::predict_many`
//! returns, bit for bit, whatever sequence of models it is asked about.

use eva_gp::{GpModel, Kernel, KernelType, PosteriorCache};
use eva_stats::rng::seeded;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

const FAMILIES: [KernelType; 3] = [KernelType::Rbf, KernelType::Matern32, KernelType::Matern52];

fn point(rng: &mut StdRng, dim: usize) -> Vec<f64> {
    (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()
}

/// One random step from `parent`: conditioning on 1-3 points (sometimes
/// an exact duplicate of a training input, the case that can force the
/// rebuild fallback) or the from-scratch `with_added` rebuild.
fn child(parent: &GpModel, rng: &mut StdRng) -> GpModel {
    let dim = parent.dim();
    let k = rng.gen_range(1..4);
    let xs: Vec<Vec<f64>> = (0..k)
        .map(|_| {
            if rng.gen_range(0..5) == 0 {
                let i = rng.gen_range(0..parent.n());
                parent.train_x()[i].clone()
            } else {
                point(rng, dim)
            }
        })
        .collect();
    let ys: Vec<f64> = (0..k).map(|_| rng.gen_range(-2.0..2.0)).collect();
    if rng.gen_range(0..6) == 0 {
        parent.with_added(&xs, &ys).expect("rebuild")
    } else {
        parent.condition(&xs, &ys).expect("condition")
    }
}

fn assert_bits(cache: &mut PosteriorCache, block: usize, model: &GpModel, queries: &[Vec<f64>]) {
    let got = cache.predict_many(block, model, queries);
    let want = model.predict_many(queries);
    assert_eq!(got.len(), want.len());
    for (q, (g, w)) in queries.iter().zip(got.iter().zip(&want)) {
        assert_eq!(g.0.to_bits(), w.0.to_bits(), "mean at {q:?}");
        assert_eq!(g.1.to_bits(), w.1.to_bits(), "variance at {q:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random `condition` chains (with rebuilds mixed in) grown from two
    /// `with_targets` siblings, queried in a random order through a few
    /// shared blocks: longer models after shorter ones, ancestors after
    /// descendants, diverging children of one base, and query sets that
    /// repeat, overlap and grow.
    #[test]
    fn cached_posterior_equals_predict_many(
        dim in 1usize..4,
        n0 in 3usize..10,
        family in 0usize..3,
        steps in 2usize..10,
        seed in 0u64..100_000,
    ) {
        let mut rng = seeded(seed);
        let xs: Vec<Vec<f64>> = (0..n0).map(|_| point(&mut rng, dim)).collect();
        let ys: Vec<f64> = (0..n0).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let lengthscales: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.2..1.5)).collect();
        let kernel = Kernel::new(FAMILIES[family], lengthscales, rng.gen_range(0.5..2.0));
        let base = GpModel::new(kernel, 1e-3, xs, ys).expect("base model");
        let sibling = base
            .with_targets((0..n0).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .expect("sibling");

        let mut models = vec![base, sibling];
        for _ in 0..steps {
            let parent = &models[rng.gen_range(0..models.len())];
            let next = child(parent, &mut rng);
            models.push(next);
        }

        let pool: Vec<Vec<f64>> = (0..8).map(|_| point(&mut rng, dim)).collect();
        let mut cache = PosteriorCache::new();
        for _ in 0..3 * models.len() {
            let model = &models[rng.gen_range(0..models.len())];
            let mut queries: Vec<Vec<f64>> = (0..rng.gen_range(0..6))
                .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                .collect();
            if rng.gen_range(0..3) == 0 {
                queries.push(point(&mut rng, dim));
            }
            assert_bits(&mut cache, rng.gen_range(0..3), model, &queries);
        }
    }
}

/// The named orders, spelled out: two diverging children of one base
/// through the same block, then an older, shorter model after a longer
/// one, then a rebuild.
#[test]
fn diverging_children_and_ancestors_share_a_block() {
    let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 0.2, 0.5]).collect();
    let ys: Vec<f64> = xs.iter().map(|p| (p[0] * 3.0).sin()).collect();
    let kernel = Kernel::isotropic(KernelType::Matern52, 2, 0.4, 1.0);
    let base = GpModel::new(kernel, 1e-3, xs, ys).expect("base");
    let a1 = base.condition(&[vec![0.15, 0.4]], &[0.3]).expect("a1");
    let a2 = a1
        .condition(&[vec![0.55, 0.6], vec![0.9, 0.1]], &[-0.2, 0.8])
        .expect("a2");
    let b1 = base.condition(&[vec![0.75, 0.2]], &[0.1]).expect("b1");
    let rebuilt = a2.with_added(&[vec![0.3, 0.3]], &[0.0]).expect("rebuild");
    let queries: Vec<Vec<f64>> = vec![vec![0.1, 0.5], vec![0.45, 0.45], vec![0.1, 0.5]];
    let mut cache = PosteriorCache::new();
    for model in [&a2, &b1, &a2, &a1, &base, &a2, &rebuilt, &a1] {
        assert_bits(&mut cache, 0, model, &queries);
    }
}

/// Storage is sized exactly: a head holds `2·n₀ + d + 1` floats per
/// distinct query, shared by every `with_targets` sibling; a block
/// holds `S·t` floats for its S distinct queries and the t rows past
/// the origin, and follows the model when it grows.
#[test]
fn storage_is_sized_exactly() {
    let (n0, dim) = (6, 2);
    let xs: Vec<Vec<f64>> = (0..n0).map(|i| vec![i as f64 * 0.15, 0.3]).collect();
    let ys: Vec<f64> = xs.iter().map(|p| p[0].cos()).collect();
    let kernel = Kernel::isotropic(KernelType::Rbf, dim, 0.5, 1.0);
    let base = GpModel::new(kernel, 1e-3, xs, ys.clone()).expect("base");
    let sibling = base
        .with_targets(ys.iter().map(|v| v * 2.0).collect())
        .expect("sibling");
    let child = base
        .condition(
            &[vec![0.2, 0.1], vec![0.5, 0.9], vec![0.8, 0.4]],
            &[0.1, 0.2, 0.3],
        )
        .expect("child");
    let grandchild = child
        .condition(&[vec![0.35, 0.6], vec![0.65, 0.2]], &[0.0, -0.1])
        .expect("grandchild");
    // Four distinct queries, two of them repeated.
    let queries: Vec<Vec<f64>> = [[0.1, 0.1], [0.4, 0.5], [0.1, 0.1], [0.7, 0.7], [0.9, 0.2]]
        .iter()
        .chain(&[[0.4, 0.5]])
        .map(|q| q.to_vec())
        .collect();
    let head_floats = 4 * (2 * n0 + dim + 1);

    let mut cache = PosteriorCache::new();
    cache.predict_many(0, &child, &queries);
    assert_eq!(cache.floats(), (head_floats, 4 * 3));
    cache.predict_many(0, &grandchild, &queries);
    assert_eq!(cache.floats(), (head_floats, 4 * 5));
    // The sibling shares the origin rows, and has none past them.
    cache.predict_many(1, &sibling, &queries);
    assert_eq!(cache.floats(), (head_floats, 4 * 5));
}
