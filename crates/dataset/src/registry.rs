//! The benchmark dataset registries.
//!
//! [`amlb39`] reproduces the paper's Table 2 verbatim — the 39 AMLB datasets
//! (Gijsbers et al. 2019) with their OpenML ids and nominal instance /
//! feature / class counts. [`dev_binary_pool`] generates the pool of 124
//! binary classification datasets used by the development-stage tuning
//! experiments (§3.7).
//!
//! Without OpenML access, each entry is materialised from a synthetic
//! [`TaskSpec`] whose difficulty knobs are derived deterministically from
//! the dataset's metadata (seeded by its OpenML id), and whose materialised
//! size may be capped — the nominal-to-materialised ratio becomes the
//! dataset's logical-size charging factor ([`Dataset::scale`]).

use crate::synth::TaskSpec;
use crate::table::Dataset;
use green_automl_energy::rng::SplitMix64;

/// Metadata of one benchmark dataset (one row of the paper's Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetMeta {
    /// Dataset name.
    pub name: &'static str,
    /// OpenML dataset id.
    pub openml_id: u32,
    /// Nominal number of instances.
    pub instances: usize,
    /// Nominal number of features.
    pub features: usize,
    /// Number of classes.
    pub classes: usize,
}

/// The 39 AMLB test datasets — the paper's Table 2, in its row order.
pub fn amlb39() -> Vec<DatasetMeta> {
    const T: &[(&str, u32, usize, usize, usize)] = &[
        ("robert", 41165, 10_000, 7200, 10),
        ("riccardo", 41161, 20_000, 4296, 2),
        ("guillermo", 41159, 20_000, 4296, 2),
        ("dilbert", 41163, 10_000, 2000, 5),
        ("christine", 41142, 5_418, 1636, 2),
        ("cnae-9", 1468, 1_080, 856, 9),
        ("fabert", 41164, 8_237, 800, 7),
        ("Fashion-MNIST", 40996, 70_000, 784, 10),
        ("KDDCup09_appetency", 1111, 50_000, 230, 2),
        ("mfeat-factors", 12, 2_000, 216, 10),
        ("volkert", 41166, 58_310, 180, 10),
        ("APSFailure", 41138, 76_000, 170, 2),
        ("jasmine", 41143, 2_984, 144, 2),
        ("nomao", 1486, 34_465, 118, 2),
        ("albert", 41147, 425_240, 78, 2),
        ("dionis", 41167, 416_188, 60, 355),
        ("jannis", 41168, 83_733, 54, 4),
        ("covertype", 1596, 581_012, 54, 7),
        ("MiniBooNE", 41150, 130_064, 50, 2),
        ("connect-4", 40668, 67_557, 42, 3),
        ("kr-vs-kp", 3, 3_196, 36, 2),
        ("higgs", 23512, 98_050, 28, 2),
        ("helena", 41169, 65_196, 27, 100),
        ("kc1", 1067, 2_109, 21, 2),
        ("numerai28.6", 23517, 96_320, 21, 2),
        ("credit-g", 31, 1_000, 20, 2),
        ("sylvine", 41146, 5_124, 20, 2),
        ("segment", 40984, 2_310, 16, 7),
        ("vehicle", 54, 846, 18, 4),
        ("bank-marketing", 1461, 45_211, 16, 2),
        ("Australian", 40981, 690, 14, 2),
        ("adult", 1590, 48_842, 14, 2),
        ("Amazon_employee_access", 4135, 32_769, 9, 2),
        ("shuttle", 40685, 58_000, 9, 7),
        ("airlines", 1169, 539_383, 7, 2),
        ("car", 40975, 1_728, 6, 4),
        (
            "jungle_chess_2pcs_raw_endgame_complete",
            41027,
            44_819,
            6,
            3,
        ),
        ("phoneme", 1489, 5_404, 5, 2),
        ("blood-transfusion-service-center", 1464, 748, 4, 2),
    ];
    T.iter()
        .map(
            |&(name, openml_id, instances, features, classes)| DatasetMeta {
                name,
                openml_id,
                instances,
                features,
                classes,
            },
        )
        .collect()
}

/// The pool of 124 binary classification datasets used for development-stage
/// tuning (paper §3.7). Sizes are spread log-uniformly over the ranges the
/// AMLB pool covers; ids start at 900 000 to avoid clashing with real
/// OpenML ids.
pub fn dev_binary_pool() -> Vec<DatasetMeta> {
    // Names must live for 'static: generate deterministic sizes, leak the
    // names once (the pool is a process-wide fixture).
    static NAMES: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
    let names = NAMES.get_or_init(|| {
        (0..124)
            .map(|i| &*Box::leak(format!("dev-{i:03}").into_boxed_str()))
            .collect()
    });
    let mut rng = SplitMix64::seed_from_u64(0xdecade);
    (0..124)
        .map(|i| {
            let instances = (10f64.powf(rng.gen_range(2.7..5.3))) as usize;
            let features = (10f64.powf(rng.gen_range(0.6..2.7))) as usize;
            DatasetMeta {
                name: names[i],
                openml_id: 900_000 + i as u32,
                instances: instances.max(100),
                features: features.max(3),
                classes: 2,
            }
        })
        .collect()
}

/// Controls how a [`DatasetMeta`] is materialised into a synthetic
/// [`Dataset`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaterializeOptions {
    /// Row cap for the materialised data (nominal rows beyond this are
    /// represented by the charging factor).
    pub max_rows: usize,
    /// Guarantee at least this many materialised rows per class.
    pub min_rows_per_class: usize,
    /// Feature-column cap.
    pub max_features: usize,
    /// Materialise at most this fraction of the nominal rows (subject to
    /// the per-class minimum). Values below 1 guarantee even small datasets
    /// carry a row charging factor, which keeps real compute a fraction of
    /// the virtual budget being simulated.
    pub max_row_frac: f64,
    /// Extra seed mixed into the per-dataset generator seed, so repeated
    /// runs (the paper's 10 repetitions) see different samples.
    pub seed: u64,
}

impl Default for MaterializeOptions {
    fn default() -> Self {
        MaterializeOptions {
            max_rows: 900,
            min_rows_per_class: 8,
            max_features: 96,
            max_row_frac: 1.0,
            seed: 0,
        }
    }
}

impl MaterializeOptions {
    /// Options for quick tests: tiny materialisations.
    pub fn tiny() -> Self {
        MaterializeOptions {
            max_rows: 120,
            min_rows_per_class: 4,
            max_features: 16,
            max_row_frac: 1.0,
            seed: 0,
        }
    }

    /// The benchmark-experiment profile: small materialisations with a
    /// guaranteed row charging factor (≥ ~6x), so simulated search budgets
    /// cost far less real compute than the virtual time they represent.
    pub fn benchmark() -> Self {
        MaterializeOptions {
            max_rows: 420,
            min_rows_per_class: 3,
            max_features: 64,
            max_row_frac: 0.16,
            seed: 0,
        }
    }
}

impl DatasetMeta {
    /// Derive the synthetic task specification for this dataset.
    ///
    /// Difficulty knobs are drawn from an RNG seeded by the OpenML id, so
    /// every dataset has a stable personality across runs; the
    /// materialisation seed only affects the sampled rows.
    pub fn spec(&self, opts: &MaterializeOptions) -> TaskSpec {
        let mut knobs = SplitMix64::seed_from_u64(self.openml_id as u64 ^ 0xf005_ba11);
        let frac_cap = ((self.instances as f64 * opts.max_row_frac) as usize).max(16);
        let rows = self.instances.min(
            opts.max_rows
                .min(frac_cap)
                .max(self.classes * opts.min_rows_per_class),
        );
        let features = self.features.min(opts.max_features);

        let mut spec = TaskSpec::new(self.name, rows, features, self.classes)
            .with_seed(self.openml_id as u64 ^ opts.seed.rotate_left(17));
        spec.categorical_frac = knobs.gen_range(0.0..0.55f64);
        // Wide datasets carry proportionally less informative signal.
        spec.informative_frac = if self.features > 500 {
            knobs.gen_range(0.05..0.25)
        } else {
            knobs.gen_range(0.35..0.75)
        };
        spec.redundant_frac = (1.0 - spec.informative_frac).min(knobs.gen_range(0.1..0.3));
        spec.label_noise = knobs.gen_range(0.0..0.14);
        spec.imbalance = if knobs.gen_bool(0.3) {
            knobs.gen_range(0.3..0.8)
        } else {
            0.0
        };
        spec.cluster_sep = knobs.gen_range(1.1..2.4);
        spec.clusters_per_class = knobs.gen_range(1..=3usize);
        spec.missing_frac = if knobs.gen_bool(0.25) {
            knobs.gen_range(0.01..0.1)
        } else {
            0.0
        };
        spec
    }

    /// Materialise this dataset with logical-size charging.
    pub fn materialize(&self, opts: &MaterializeOptions) -> Dataset {
        let spec = self.spec(opts);
        let row_scale = (self.instances as f64 / spec.rows as f64).max(1.0);
        let feat_scale = (self.features as f64 / spec.features as f64).max(1.0);
        spec.generate().with_scales(row_scale, feat_scale)
    }
}

// Materialised datasets are shared via `Arc` across benchmark worker
// threads; a non-`Send + Sync` field sneaking into `Dataset` would break
// that silently, so pin it down at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Dataset>();
    assert_send_sync::<DatasetMeta>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_is_complete_and_exact() {
        let all = amlb39();
        assert_eq!(all.len(), 39);
        // Spot-check rows against the paper's Table 2.
        let robert = &all[0];
        assert_eq!(
            (
                robert.name,
                robert.openml_id,
                robert.instances,
                robert.features,
                robert.classes
            ),
            ("robert", 41165, 10_000, 7200, 10)
        );
        let covertype = all.iter().find(|m| m.name == "covertype").unwrap();
        assert_eq!(covertype.instances, 581_012);
        assert_eq!(covertype.classes, 7);
        let dionis = all.iter().find(|m| m.name == "dionis").unwrap();
        assert_eq!(dionis.classes, 355);
        let blood = all.last().unwrap();
        assert_eq!(blood.openml_id, 1464);
        assert_eq!(blood.features, 4);
    }

    #[test]
    fn ids_are_unique() {
        let all = amlb39();
        let mut ids: Vec<u32> = all.iter().map(|m| m.openml_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 39);
    }

    #[test]
    fn dev_pool_is_124_binary_datasets() {
        let pool = dev_binary_pool();
        assert_eq!(pool.len(), 124);
        assert!(pool.iter().all(|m| m.classes == 2));
        assert!(pool.iter().all(|m| m.instances >= 100 && m.features >= 3));
        // Deterministic across calls.
        assert_eq!(pool, dev_binary_pool());
    }

    #[test]
    fn small_datasets_materialise_at_full_size() {
        let all = amlb39();
        let credit = all.iter().find(|m| m.name == "credit-g").unwrap();
        let d = credit.materialize(&MaterializeOptions::default());
        assert_eq!(d.n_rows(), 900); // capped at max_rows < 1000 instances
        let blood = all
            .iter()
            .find(|m| m.name == "blood-transfusion-service-center")
            .unwrap();
        let d = blood.materialize(&MaterializeOptions::default());
        assert_eq!(d.n_rows(), 748);
        assert_eq!(d.n_features(), 4);
        assert_eq!(d.scale(), 1.0);
    }

    #[test]
    fn large_datasets_get_charging_factor() {
        let all = amlb39();
        let covertype = all.iter().find(|m| m.name == "covertype").unwrap();
        let d = covertype.materialize(&MaterializeOptions::default());
        assert_eq!(d.n_rows(), 900);
        assert!(d.scale() > 500.0, "expected large scale, got {}", d.scale());
        let robert = all.iter().find(|m| m.name == "robert").unwrap();
        let d = robert.materialize(&MaterializeOptions::default());
        assert_eq!(d.n_features(), 96);
        assert!(d.scale() > 100.0);
    }

    #[test]
    fn many_class_datasets_keep_all_classes() {
        let all = amlb39();
        let dionis = all.iter().find(|m| m.name == "dionis").unwrap();
        let d = dionis.materialize(&MaterializeOptions::default());
        assert_eq!(d.n_classes, 355);
        assert_eq!(d.n_rows(), 355 * 8);
        assert!(d.class_counts().iter().all(|&c| c > 0));
    }

    #[test]
    fn materialisation_is_deterministic_per_seed() {
        let meta = amlb39()[25]; // credit-g
        let a = meta.materialize(&MaterializeOptions::default());
        let b = meta.materialize(&MaterializeOptions::default());
        assert_eq!(a, b);
        let c = meta.materialize(&MaterializeOptions {
            seed: 1,
            ..Default::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn dataset_personalities_differ() {
        // Difficulty knobs must vary across datasets, otherwise the
        // benchmark collapses to one task repeated 39 times.
        let opts = MaterializeOptions::default();
        let specs: Vec<_> = amlb39().iter().map(|m| m.spec(&opts)).collect();
        let seps: std::collections::BTreeSet<u64> =
            specs.iter().map(|s| s.cluster_sep.to_bits()).collect();
        assert!(seps.len() > 30);
    }
}
