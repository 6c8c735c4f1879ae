//! Gradient-boosted regression trees (a small, faithful XGBoost stand-in).

use crate::error::FitError;
use crate::flat::{FlatForest, MAX_FOREST_DEPTH};
use crate::matrix::Matrix;
use crate::tree::{RegressionTree, TreeParams};
use crate::{validate_matrix_training_set, validate_training_set, Regressor};
use autopower_codec::{Codec, CodecError, Reader, Writer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters of the gradient-boosting model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtParams {
    /// Number of boosting rounds (trees).
    pub n_estimators: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Maximum depth of each tree, at most [`MAX_FOREST_DEPTH`].
    pub max_depth: usize,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
    /// L2 regularisation on leaf weights.
    pub lambda: f64,
    /// Minimum gain to split.
    pub gamma: f64,
    /// Row subsampling fraction per round (1.0 disables subsampling).
    pub subsample: f64,
    /// Column subsampling fraction per round (1.0 disables subsampling).
    pub colsample: f64,
    /// Seed of the subsampling RNG.
    pub seed: u64,
}

impl Default for GbdtParams {
    /// Defaults tuned for the paper's regime: few samples (tens), few features (tens).
    fn default() -> Self {
        Self {
            n_estimators: 120,
            learning_rate: 0.08,
            max_depth: 3,
            min_child_weight: 1.0,
            lambda: 1.0,
            gamma: 0.0,
            subsample: 1.0,
            colsample: 1.0,
            seed: 7,
        }
    }
}

impl GbdtParams {
    /// Validates the hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if a fraction is outside `(0, 1]`, a count is zero, or
    /// `max_depth` exceeds [`MAX_FOREST_DEPTH`].
    pub fn validate(&self) {
        assert!(self.n_estimators > 0, "need at least one boosting round");
        assert!(
            self.max_depth <= MAX_FOREST_DEPTH,
            "max_depth must be at most {MAX_FOREST_DEPTH}"
        );
        assert!(
            self.learning_rate > 0.0 && self.learning_rate <= 1.0,
            "learning rate must be in (0, 1]"
        );
        assert!(
            self.subsample > 0.0 && self.subsample <= 1.0,
            "subsample must be in (0, 1]"
        );
        assert!(
            self.colsample > 0.0 && self.colsample <= 1.0,
            "colsample must be in (0, 1]"
        );
        assert!(
            self.lambda >= 0.0 && self.gamma >= 0.0,
            "regularisers must be non-negative"
        );
    }
}

/// Gradient-boosted trees with squared-error objective.
///
/// This is the stand-in for XGBoost, which the paper uses for the effective-active-rate,
/// SRAM-activity, register-activity and combinational-variation sub-models as well as
/// for the McPAT-Calib baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoosting {
    params: GbdtParams,
    base_score: f64,
    /// The fit and on-disk representation: one boxed-node tree per boosting
    /// round.
    trees: Vec<RegressionTree>,
    /// The inference representation: `trees` compiled into a threshold
    /// dictionary and complete trees of dictionary ids with pre-shrunk leaves
    /// (see [`FlatForest`]), at fit and decode time (empty while unfitted).
    /// Never serialized — `trees` is canonical.
    flat: FlatForest,
}

impl GradientBoosting {
    /// Creates an unfitted model.
    pub fn new(params: GbdtParams) -> Self {
        params.validate();
        Self {
            params,
            base_score: 0.0,
            trees: Vec::new(),
            flat: FlatForest::default(),
        }
    }

    /// The hyper-parameters.
    pub fn params(&self) -> &GbdtParams {
        &self.params
    }

    /// Number of fitted trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Width of the rows the ensemble was fitted on (`None` before fitting):
    /// every prediction must get a row of exactly this many features.
    pub fn n_features(&self) -> Option<usize> {
        self.trees.first().map(RegressionTree::n_features)
    }

    /// Whether the model has been fitted.
    pub fn is_fitted(&self) -> bool {
        !self.trees.is_empty() || self.base_score != 0.0
    }

    /// The compiled flat forest serving this model's predictions.
    ///
    /// Use [`FlatForest::predict_into`] for batched scoring of a whole
    /// feature matrix.
    pub fn forest(&self) -> &FlatForest {
        &self.flat
    }

    /// Fits on a flat row-major feature matrix (the allocation-friendly twin
    /// of [`Regressor::fit`]).
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if the data is empty, non-finite, or the target
    /// length does not match, and [`FitError::ForestTooLarge`] if the fitted
    /// ensemble has more distinct split thresholds than the compiled forest
    /// addresses.
    pub fn fit_matrix(&mut self, x: &Matrix, y: &[f64]) -> Result<(), FitError> {
        let width = validate_matrix_training_set(x, y)?;
        let n = x.rows();
        let mut rng = StdRng::seed_from_u64(self.params.seed);

        self.base_score = y.iter().sum::<f64>() / n as f64;
        self.trees.clear();
        self.flat = FlatForest::default();
        let mut predictions = vec![self.base_score; n];

        let tree_params = TreeParams {
            max_depth: self.params.max_depth,
            min_child_weight: self.params.min_child_weight,
            lambda: self.params.lambda,
            gamma: self.params.gamma,
        };

        let all_rows: Vec<usize> = (0..n).collect();
        let all_cols: Vec<usize> = (0..width).collect();
        let row_sample = ((n as f64 * self.params.subsample).ceil() as usize).clamp(1, n);
        let col_sample = ((width as f64 * self.params.colsample).ceil() as usize).clamp(1, width);

        // Hoisted per-round buffers: gradients are overwritten in place,
        // hessians are the constant 1 of squared loss, and the subsample
        // scratch vectors are reshuffled instead of recloned.
        let mut gradients = vec![0.0; n];
        let hessians = vec![1.0; n];
        let mut row_scratch = all_rows.clone();
        let mut col_scratch = all_cols.clone();
        let mut tree_scratch = crate::tree::FitScratch::new();

        // Without row subsampling every round trains on the same rows in the
        // same order, so the per-feature pre-sort can be hoisted out of the
        // boosting loop entirely: sort once, hand every tree a copy.  (Row
        // subsampling changes the row set *and* the stable-tie order, so those
        // runs keep the per-tree sort.)
        let master_sorted: Option<Vec<usize>> = (row_sample == n).then(|| {
            let mut master = vec![0usize; width * n];
            for feature in 0..width {
                let seg = &mut master[feature * n..(feature + 1) * n];
                seg.copy_from_slice(&all_rows);
                seg.sort_by(|&a, &b| {
                    x.at(a, feature)
                        .partial_cmp(&x.at(b, feature))
                        .expect("finite features")
                });
            }
            master
        });

        for _ in 0..self.params.n_estimators {
            // Squared loss: gradient = prediction - target, hessian = 1.
            for (g, (p, t)) in gradients.iter_mut().zip(predictions.iter().zip(y)) {
                *g = p - t;
            }

            let rows: &[usize] = if row_sample == n {
                &all_rows
            } else {
                row_scratch.copy_from_slice(&all_rows);
                row_scratch.shuffle(&mut rng);
                &row_scratch[..row_sample]
            };
            let cols: &[usize] = if col_sample == width {
                &all_cols
            } else {
                col_scratch.copy_from_slice(&all_cols);
                col_scratch.shuffle(&mut rng);
                &col_scratch[..col_sample]
            };

            let mut tree = RegressionTree::new(tree_params);
            tree.fit_gradients_scratch(
                x,
                &gradients,
                &hessians,
                rows,
                cols,
                master_sorted.as_deref(),
                &mut tree_scratch,
            )?;
            for (i, prediction) in predictions.iter_mut().enumerate() {
                *prediction += self.params.learning_rate * tree.predict(x.row(i));
            }
            self.trees.push(tree);
        }
        self.flat = FlatForest::compile(self.base_score, self.params.learning_rate, &self.trees)?;
        Ok(())
    }

    /// The recursive reference prediction over the boxed-node trees.
    ///
    /// [`Regressor::predict`] serves from the compiled [`FlatForest`]; this
    /// path is retained as the bit-parity oracle the flat traversal is tested
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful fit.
    pub fn predict_recursive(&self, x: &[f64]) -> f64 {
        assert!(
            self.is_fitted(),
            "predict called before fit on the boosting model"
        );
        self.base_score
            + self
                .trees
                .iter()
                .map(|t| self.params.learning_rate * t.predict(x))
                .sum::<f64>()
    }
}

impl Default for GradientBoosting {
    fn default() -> Self {
        Self::new(GbdtParams::default())
    }
}

impl Codec for GbdtParams {
    fn encode(&self, w: &mut Writer) {
        w.begin("gbdt-params");
        w.u64("n_estimators", self.n_estimators as u64);
        w.f64("learning_rate", self.learning_rate);
        w.u64("max_depth", self.max_depth as u64);
        w.f64("min_child_weight", self.min_child_weight);
        w.f64("lambda", self.lambda);
        w.f64("gamma", self.gamma);
        w.f64("subsample", self.subsample);
        w.f64("colsample", self.colsample);
        w.u64("seed", self.seed);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("gbdt-params")?;
        let params = Self {
            n_estimators: r.u64("n_estimators")? as usize,
            learning_rate: r.f64("learning_rate")?,
            max_depth: r.u64("max_depth")? as usize,
            min_child_weight: r.f64("min_child_weight")?,
            lambda: r.f64("lambda")?,
            gamma: r.f64("gamma")?,
            subsample: r.f64("subsample")?,
            colsample: r.f64("colsample")?,
            seed: r.u64("seed")?,
        };
        r.end()?;
        if params.n_estimators == 0
            || params.max_depth > MAX_FOREST_DEPTH
            || !(params.learning_rate > 0.0 && params.learning_rate <= 1.0)
            || !(params.subsample > 0.0 && params.subsample <= 1.0)
            || !(params.colsample > 0.0 && params.colsample <= 1.0)
            || !(params.lambda >= 0.0 && params.gamma >= 0.0)
        {
            return Err(CodecError::new(
                r.offset(),
                "gbdt-params fail hyper-parameter validation",
            ));
        }
        Ok(params)
    }
}

impl Codec for GradientBoosting {
    fn encode(&self, w: &mut Writer) {
        w.begin("gbdt");
        self.params.encode(w);
        w.f64("base_score", self.base_score);
        w.begin_list("trees", self.trees.len());
        for tree in &self.trees {
            tree.encode(w);
        }
        w.end();
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("gbdt")?;
        let params = GbdtParams::decode(r)?;
        let base_score = r.f64("base_score")?;
        let len = r.begin_list("trees")?;
        let mut trees = Vec::with_capacity(len);
        for _ in 0..len {
            let at = r.offset();
            let tree = RegressionTree::decode(r)?;
            // Every tree reads the rows the ensemble was fitted on, so one
            // width (`n_features`) describes the whole ensemble.
            if let Some(first) = trees.first().map(RegressionTree::n_features) {
                if tree.n_features() != first {
                    return Err(CodecError::new(
                        at,
                        format!(
                            "tree reads {} features but the ensemble's first tree reads {first}",
                            tree.n_features()
                        ),
                    ));
                }
            }
            // A tree decodes only within its own `max_depth`, and that may not
            // exceed the ensemble's (which `GbdtParams` caps): the compiled
            // forest never meets a tree deeper than `MAX_FOREST_DEPTH`.
            if tree.params().max_depth > params.max_depth {
                return Err(CodecError::new(
                    at,
                    format!(
                        "tree max_depth {} exceeds the ensemble's {}",
                        tree.params().max_depth,
                        params.max_depth
                    ),
                ));
            }
            trees.push(tree);
        }
        r.end()?;
        r.end()?;
        // Loaded models serve predictions from the same compiled forest as
        // freshly trained ones.
        let flat = FlatForest::compile(base_score, params.learning_rate, &trees)
            .map_err(|e| CodecError::new(r.offset(), e.to_string()))?;
        Ok(Self {
            params,
            base_score,
            trees,
            flat,
        })
    }
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), FitError> {
        validate_training_set(x, y)?;
        self.fit_matrix(&Matrix::from_rows(x), y)
    }

    fn predict(&self, x: &[f64]) -> f64 {
        assert!(
            self.is_fitted(),
            "predict called before fit on the boosting model"
        );
        self.flat.predict_row(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn nonlinear_target(r: &[f64]) -> f64 {
        3.0 * r[0] + (r[1] * 0.5).sin() * 10.0 + if r[0] > 5.0 { 8.0 } else { 0.0 }
    }

    #[test]
    fn fits_a_nonlinear_function_well_in_sample() {
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 12) as f64, (i / 12) as f64 * 2.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| nonlinear_target(r)).collect();
        let mut m = GradientBoosting::default();
        m.fit(&x, &y).unwrap();
        let pred = m.predict_batch(&x);
        let r2 = metrics::r_squared(&y, &pred);
        assert!(r2 > 0.97, "in-sample R2 {r2}");
    }

    #[test]
    fn generalises_on_held_out_grid_points() {
        let train: Vec<Vec<f64>> = (0..80)
            .filter(|i| i % 5 != 0)
            .map(|i| vec![(i % 16) as f64, (i / 16) as f64])
            .collect();
        let test: Vec<Vec<f64>> = (0..80)
            .filter(|i| i % 5 == 0)
            .map(|i| vec![(i % 16) as f64, (i / 16) as f64])
            .collect();
        let y_train: Vec<f64> = train.iter().map(|r| nonlinear_target(r)).collect();
        let y_test: Vec<f64> = test.iter().map(|r| nonlinear_target(r)).collect();
        let mut m = GradientBoosting::default();
        m.fit(&train, &y_train).unwrap();
        let pred = m.predict_batch(&test);
        assert!(metrics::r_squared(&y_test, &pred) > 0.8);
    }

    #[test]
    fn deterministic_given_the_same_seed() {
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, (i * 3 % 7) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * r[1]).collect();
        let mut a = GradientBoosting::default();
        let mut b = GradientBoosting::default();
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        for row in &x {
            assert_eq!(a.predict(row), b.predict(row));
        }
        // With subsampling enabled, different seeds generally give different predictions.
        let subsampled = |seed: u64| {
            let mut m = GradientBoosting::new(GbdtParams {
                subsample: 0.6,
                colsample: 0.6,
                seed,
                ..GbdtParams::default()
            });
            m.fit(&x, &y).unwrap();
            m
        };
        let c = subsampled(99);
        let d = subsampled(100);
        let differs = x
            .iter()
            .any(|row| (c.predict(row) - d.predict(row)).abs() > 1e-12);
        assert!(differs);
    }

    #[test]
    fn handles_tiny_few_shot_datasets() {
        // 16 samples (2 configurations x 8 workloads) is the paper's smallest regime.
        let x: Vec<Vec<f64>> = (0..16)
            .map(|i| vec![(i % 2) as f64 * 4.0, i as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 1.0 + 0.2 * r[0] + 0.05 * r[1]).collect();
        let mut m = GradientBoosting::default();
        m.fit(&x, &y).unwrap();
        let pred = m.predict_batch(&x);
        assert!(metrics::mape(&y, &pred) < 0.05);
    }

    #[test]
    fn constant_target_predicts_the_constant() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![4.2; 10];
        let mut m = GradientBoosting::default();
        m.fit(&x, &y).unwrap();
        assert!((m.predict(&[100.0]) - 4.2).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn invalid_params_rejected() {
        let _ = GradientBoosting::new(GbdtParams {
            learning_rate: 0.0,
            ..GbdtParams::default()
        });
    }

    #[test]
    fn fit_error_propagates() {
        let mut m = GradientBoosting::default();
        assert!(m.fit(&[], &[]).is_err());
    }

    /// A one-tree model whose ensemble and tree declare `ensemble_depth` and
    /// `tree_depth` as their `max_depth`, whose tree declares `n_features`
    /// features and nests `nest` splits on `feature` down its left side,
    /// with a valid checksum.
    fn tree_stream(
        ensemble_depth: usize,
        tree_depth: usize,
        n_features: u64,
        feature: u64,
        nest: usize,
    ) -> Vec<u8> {
        fn split(w: &mut Writer, feature: u64, nest: usize) {
            if nest == 0 {
                w.begin("leaf");
                w.f64("weight", 1.0);
                w.end();
                return;
            }
            w.begin("split");
            w.u64("feature", feature);
            w.f64("threshold", 0.5);
            split(w, feature, nest - 1);
            split(w, feature, 0);
            w.end();
        }
        let mut w = Writer::new();
        w.begin("gbdt");
        GbdtParams {
            max_depth: ensemble_depth,
            ..GbdtParams::default()
        }
        .encode(&mut w);
        w.f64("base_score", 1.0);
        w.begin_list("trees", 1);
        w.begin("tree");
        TreeParams {
            max_depth: tree_depth,
            ..TreeParams::default()
        }
        .encode(&mut w);
        w.u64("n_features", n_features);
        w.bool("fitted", true);
        split(&mut w, feature, nest);
        w.end();
        w.end();
        w.end();
        w.finish()
    }

    /// [`tree_stream`] for a depth-3 ensemble holding one single-split tree.
    fn one_split_stream(n_features: u64, feature: u64) -> Vec<u8> {
        tree_stream(3, 3, n_features, feature, 1)
    }

    fn decode(bytes: &[u8]) -> Result<GradientBoosting, CodecError> {
        GradientBoosting::decode(&mut Reader::new(bytes).unwrap())
    }

    #[test]
    fn decode_refuses_split_features_outside_the_tree_width() {
        let ok = decode(&one_split_stream(3, 2)).unwrap();
        assert_eq!(
            ok.predict(&[0.0, 0.0, 1.0]),
            ok.predict_recursive(&[0.0, 0.0, 1.0])
        );
        // Past the row (would panic at predict), at and past `u32` (the
        // threshold dictionary's feature index), and a width no `u32` index
        // can address.
        for (n_features, feature) in [
            (3, 1000),
            (3, u64::from(u32::MAX)),
            (3, 1 << 32),
            (1 << 33, 1 << 32),
        ] {
            let err = decode(&one_split_stream(n_features, feature)).unwrap_err();
            assert!(err.message.contains("feature"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "max_depth")]
    fn validate_refuses_depths_past_the_forest_cap() {
        let _ = GradientBoosting::new(GbdtParams {
            max_depth: MAX_FOREST_DEPTH + 1,
            ..GbdtParams::default()
        });
    }

    #[test]
    fn decode_refuses_trees_past_their_depth_or_the_forest_cap() {
        let cap = MAX_FOREST_DEPTH;
        // A tree as deep as the cap allows decodes and walks like the oracle.
        let deepest = decode(&tree_stream(cap, cap, 2, 1, cap)).unwrap();
        for row in [[0.0, 0.0], [0.0, 1.0], [0.0, f64::NAN]] {
            assert_eq!(
                deepest.predict(&row).to_bits(),
                deepest.predict_recursive(&row).to_bits()
            );
        }
        for (bytes, needle) in [
            // The ensemble's own max_depth past the cap.
            (tree_stream(cap + 1, cap + 1, 2, 1, 1), "hyper-parameter"),
            // A tree nesting deeper than its own max_depth.
            (tree_stream(3, 3, 2, 1, 4), "deeper"),
            (tree_stream(cap, cap, 2, 1, cap + 1), "deeper"),
            // A tree whose max_depth exceeds the ensemble's.
            (tree_stream(3, cap, 2, 1, 4), "exceeds"),
        ] {
            let err = decode(&bytes).unwrap_err();
            assert!(err.message.contains(needle), "{err}");
        }
    }
}
