//! Answer once, price many: an [`AnswerTable`] must reproduce
//! `Predictor::predict_batch` exactly. For every predictor shape (a single
//! pipeline of every fitted-model kind behind imputer, scaler, SelectKBest
//! and PCA chains; a weighted ensemble; bagged stacks with and without a
//! second layer, hand-built and fitted by AutoGluon; a constant) and
//! seeded batches of 1..=`MAX_BATCH` pool rows with duplicates, pricing a
//! batch from the table must return `predict_batch`'s labels, record the
//! same charge sequence, and leave a bit-identical `Measurement`, on the
//! CPU testbed and on the GPU node.

use green_automl::energy::hash::fnv1a;
use green_automl::energy::{ChargeRec, SplitMix64};
use green_automl::ml::matrix::encode;
use green_automl::ml::preprocess::FittedPreproc;
use green_automl::ml::{
    AttentionParams, FittedModel, FittedPipeline, ForestParams, GbParams, KnnParams,
    LogisticParams, Matrix, MlpParams, SvmParams, TreeParams,
};
use green_automl::prelude::*;
use green_automl::serve::fleet::MAX_BATCH;
use green_automl::systems::ensemble::BaggedModel;
use green_automl::systems::{AnswerTable, StackedEnsemble, WeightedEnsemble};

const K: usize = 3;

fn data() -> (Dataset, Dataset) {
    let mut spec = TaskSpec::new("answers", 200, 6, K);
    spec.categorical_frac = 0.3;
    spec.missing_frac = 0.05;
    let ds = spec.generate().with_scales(2.5, 1.5);
    train_test_split(&ds, 0.2, 3)
}

fn tracker(device: Device) -> CostTracker {
    CostTracker::new(device, 1)
}

fn forest(n_trees: usize) -> ForestParams {
    ForestParams {
        n_trees,
        ..ForestParams::default()
    }
}

/// One pipeline per fitted-model kind, each behind a preprocessor chain.
fn pipelines(train: &Dataset) -> Vec<(&'static str, FittedPipeline)> {
    use PreprocSpec::{MinMaxScaler, Pca, SelectKBest, StandardScaler};
    let specs = [
        (
            "tree",
            vec![],
            ModelSpec::DecisionTree(TreeParams::default()),
        ),
        (
            "random_forest",
            vec![StandardScaler],
            ModelSpec::RandomForest(forest(6)),
        ),
        (
            "extra_trees",
            vec![SelectKBest { frac: 0.6 }],
            ModelSpec::ExtraTrees(forest(5)),
        ),
        (
            "boosting",
            vec![MinMaxScaler, Pca { frac: 0.7 }],
            ModelSpec::GradientBoosting(GbParams {
                n_rounds: 6,
                ..GbParams::default()
            }),
        ),
        (
            "knn",
            vec![Pca { frac: 0.5 }],
            ModelSpec::Knn(KnnParams::default()),
        ),
        (
            "logistic",
            vec![StandardScaler],
            ModelSpec::Logistic(LogisticParams {
                epochs: 4,
                ..LogisticParams::default()
            }),
        ),
        (
            "linear_svm",
            vec![SelectKBest { frac: 0.5 }],
            ModelSpec::LinearSvm(SvmParams {
                epochs: 4,
                ..SvmParams::default()
            }),
        ),
        ("naive_bayes", vec![], ModelSpec::GaussianNb),
        (
            "mlp",
            vec![StandardScaler],
            ModelSpec::Mlp(MlpParams {
                epochs: 3,
                ..MlpParams::default()
            }),
        ),
        (
            "attention",
            vec![],
            ModelSpec::InContextAttention(AttentionParams::default()),
        ),
    ];
    let mut t = tracker(Device::xeon_gold_6132());
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (name, chain, model))| {
            (
                name,
                Pipeline::new(chain, model).fit(train, &mut t, i as u64),
            )
        })
        .collect()
}

/// Bagged stacks over an imputer + scaler chain: layer 1 only, and layer 1
/// feeding a stacking layer 2.
fn stacks(train: &Dataset) -> [StackedEnsemble; 2] {
    let mut t = tracker(Device::xeon_gold_6132());
    let x = encode(train, &mut t);
    let y = &train.labels;
    let imputer = PreprocSpec::MeanImputer.fit(&x, y, K, &mut t);
    let x = imputer.transform(&x, &mut t);
    let scaler = PreprocSpec::StandardScaler.fit(&x, y, K, &mut t);
    let x = scaler.transform(&x, &mut t);
    let chain: Vec<FittedPreproc> = vec![imputer, scaler];
    let bag = |x: &Matrix, specs: &[ModelSpec], t: &mut CostTracker| {
        let folds: Vec<FittedModel> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| s.fit(x, y, K, t, 11 + i as u64))
            .collect();
        BaggedModel::new(folds, K)
    };
    let tree = ModelSpec::DecisionTree(TreeParams::default());
    let layer1 = vec![
        bag(&x, &[tree.clone(), tree.clone()], &mut t),
        bag(&x, &[ModelSpec::RandomForest(forest(4))], &mut t),
        bag(&x, &[ModelSpec::Knn(KnnParams::default())], &mut t),
        bag(
            &x,
            &[ModelSpec::GradientBoosting(GbParams {
                n_rounds: 4,
                ..GbParams::default()
            })],
            &mut t,
        ),
    ];
    let flat = StackedEnsemble::new(
        chain.clone(),
        layer1.clone(),
        vec![],
        vec![0.4, 0.3, 0.2, 0.1],
        K,
        x.cols(),
    );
    let aug = flat.augment(&x, &mut t);
    let layer2 = vec![
        bag(
            &aug,
            &[ModelSpec::Logistic(LogisticParams::default())],
            &mut t,
        ),
        bag(&aug, &[tree.clone(), tree], &mut t),
    ];
    let deep = StackedEnsemble::new(chain, layer1, layer2, vec![0.6, 0.4], K, x.cols());
    [flat, deep]
}

fn measurement_bits(m: &Measurement) -> [u64; 8] {
    [
        m.duration_s.to_bits(),
        m.energy.package_j.to_bits(),
        m.energy.dram_j.to_bits(),
        m.energy.gpu_j.to_bits(),
        m.ops.scalar_flops.to_bits(),
        m.ops.matmul_flops.to_bits(),
        m.ops.tree_steps.to_bits(),
        m.ops.mem_bytes.to_bits(),
    ]
}

/// Labels, recorded charges and measurement bits of one pricing run.
fn recorded(
    device: Device,
    run: impl FnOnce(&mut CostTracker) -> Vec<u32>,
) -> (Vec<u32>, Vec<ChargeRec>, [u64; 8]) {
    let mut t = tracker(device);
    t.start_recording();
    let labels = run(&mut t);
    let charges = t.finish_recording();
    (labels, charges, measurement_bits(&t.measurement()))
}

/// Seeded batches of 1..=`MAX_BATCH` rows of `0..pool_rows`, drawn with
/// replacement (so rows repeat within a batch).
fn batches(pool_rows: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out: Vec<Vec<usize>> = (0..10)
        .map(|_| {
            let len = rng.gen_range(1..MAX_BATCH + 1);
            (0..len).map(|_| rng.gen_range(0..pool_rows)).collect()
        })
        .collect();
    out.push(vec![0]);
    out.push(vec![pool_rows - 1; MAX_BATCH]);
    out
}

fn assert_tables_price_like_predict_batch(name: &str, predictor: &Predictor, pool: &Dataset) {
    let table = AnswerTable::new(predictor, pool);
    for device in [Device::xeon_gold_6132(), Device::gpu_node()] {
        for rows in batches(pool.n_rows(), fnv1a(name.bytes())) {
            let batch = pool.take_rows(&rows);
            let direct = recorded(device, |t| predictor.predict_batch(&batch, t));
            let priced = recorded(device, |t| table.price(&rows, t));
            assert_eq!(priced.0, direct.0, "{name}: labels of {rows:?}");
            assert_eq!(priced.1, direct.1, "{name}: charges of {rows:?}");
            assert_eq!(priced.2, direct.2, "{name}: measurement of {rows:?}");
        }
    }
}

#[test]
fn every_pipeline_kind_prices_like_predict_batch() {
    let (train, pool) = data();
    for (name, p) in pipelines(&train) {
        assert_tables_price_like_predict_batch(name, &Predictor::Single(p), &pool);
    }
}

#[test]
fn ensembles_and_stacks_price_like_predict_batch() {
    let (train, pool) = data();
    let members: Vec<FittedPipeline> = pipelines(&train)
        .into_iter()
        .filter(|(name, _)| ["tree", "random_forest", "naive_bayes"].contains(name))
        .map(|(_, p)| p)
        .collect();
    let ensemble = WeightedEnsemble::new(members, &[0.5, 0.3, 0.2], K);
    assert_tables_price_like_predict_batch("ensemble", &Predictor::Ensemble(ensemble), &pool);
    let [flat, deep] = stacks(&train);
    assert!(flat.layer2.is_empty() && !deep.layer2.is_empty());
    assert_tables_price_like_predict_batch("flat stack", &Predictor::Stacked(flat), &pool);
    assert_tables_price_like_predict_batch("deep stack", &Predictor::Stacked(deep), &pool);
    let constant = Predictor::Constant {
        class: 2,
        n_classes: K,
    };
    assert_tables_price_like_predict_batch("constant", &constant, &pool);
}

#[test]
fn fitted_system_predictors_price_like_predict_batch() {
    let (train, pool) = data();
    let spec = RunSpec::single_core(10.0, 4);
    let systems: [(&str, Box<dyn AutoMlSystem>, f64); 3] = [
        ("autogluon", Box::new(AutoGluon::default()), 10.0),
        (
            "autogluon refit",
            Box::new(AutoGluon {
                quality: AutoGluonQuality::FasterInferenceRefit,
            }),
            10.0,
        ),
        ("askl", Box::new(AutoSklearn1::default()), 30.0),
    ];
    for (name, system, budget_s) in systems {
        let predictor = system.fit(&train, &RunSpec { budget_s, ..spec }).predictor;
        assert!(
            matches!(predictor, Predictor::Stacked(_) | Predictor::Ensemble(_)),
            "{name}"
        );
        assert_tables_price_like_predict_batch(name, &predictor, &pool);
    }
}
