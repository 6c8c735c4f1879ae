//! Accuracy evaluation helpers: the MAPE / R² / Pearson-R summaries the paper reports.

use crate::dataset::RunData;
use crate::error::AutoPowerError;
use autopower_config::{ConfigId, Workload};
use autopower_ml::metrics;

/// One (truth, prediction) pair with its provenance, used for scatter plots (Figs. 4/5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionPair {
    /// The evaluated configuration.
    pub config: ConfigId,
    /// The executed workload.
    pub workload: Workload,
    /// Golden power in mW.
    pub truth: f64,
    /// Predicted power in mW.
    pub prediction: f64,
}

/// Accuracy summary over a set of prediction pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracySummary {
    /// Mean absolute percentage error (fraction, not percent).
    pub mape: f64,
    /// Coefficient of determination R².
    pub r_squared: f64,
    /// Pearson correlation coefficient R.
    pub pearson: f64,
    /// The underlying pairs (one per test run).
    pub pairs: Vec<PredictionPair>,
}

impl AccuracySummary {
    /// Builds a summary from pairs, failing on empty input.
    ///
    /// A test split filtered down to nothing (e.g. every configuration ended
    /// up in the training set) is a caller mistake that deserves an error
    /// message, not a panic deep inside metric code.
    ///
    /// # Errors
    ///
    /// Returns [`AutoPowerError::EmptyEvaluation`] if `pairs` is empty.
    pub fn try_from_pairs(pairs: Vec<PredictionPair>) -> Result<Self, AutoPowerError> {
        if pairs.is_empty() {
            return Err(AutoPowerError::EmptyEvaluation);
        }
        let truth: Vec<f64> = pairs.iter().map(|p| p.truth).collect();
        let pred: Vec<f64> = pairs.iter().map(|p| p.prediction).collect();
        Ok(Self {
            mape: metrics::mape(&truth, &pred),
            r_squared: metrics::r_squared(&truth, &pred),
            pearson: metrics::pearson(&truth, &pred),
            pairs,
        })
    }

    /// Builds a summary from pairs.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty; use [`AccuracySummary::try_from_pairs`] to
    /// handle that case gracefully.
    pub fn from_pairs(pairs: Vec<PredictionPair>) -> Self {
        Self::try_from_pairs(pairs).expect("need at least one prediction pair")
    }

    /// MAPE in percent (the unit the paper prints).
    pub fn mape_percent(&self) -> f64 {
        self.mape * 100.0
    }
}

/// Evaluates a total-power predictor over a set of runs against the golden totals,
/// failing on an empty run set.
///
/// # Errors
///
/// Returns [`AutoPowerError::EmptyEvaluation`] if `runs` is empty.
pub fn try_evaluate_totals<F>(
    runs: &[&RunData],
    mut predict: F,
) -> Result<AccuracySummary, AutoPowerError>
where
    F: FnMut(&RunData) -> f64,
{
    let pairs: Vec<PredictionPair> = runs
        .iter()
        .map(|run| PredictionPair {
            config: run.config.id,
            workload: run.workload,
            truth: run.golden.total_mw(),
            prediction: predict(run),
        })
        .collect();
    AccuracySummary::try_from_pairs(pairs)
}

/// Evaluates a total-power predictor over a set of runs against the golden totals.
///
/// # Panics
///
/// Panics if `runs` is empty; use [`try_evaluate_totals`] to handle that case
/// gracefully.
pub fn evaluate_totals<F>(runs: &[&RunData], predict: F) -> AccuracySummary
where
    F: FnMut(&RunData) -> f64,
{
    try_evaluate_totals(runs, predict).expect("need at least one prediction pair")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(truth: f64, prediction: f64) -> PredictionPair {
        PredictionPair {
            config: ConfigId::new(2),
            workload: Workload::Qsort,
            truth,
            prediction,
        }
    }

    #[test]
    fn summary_metrics_match_direct_computation() {
        let s = AccuracySummary::from_pairs(vec![pair(100.0, 110.0), pair(200.0, 190.0)]);
        assert!((s.mape - 0.075).abs() < 1e-12);
        assert!((s.mape_percent() - 7.5).abs() < 1e-12);
        assert!(s.pearson > 0.99);
    }

    #[test]
    fn perfect_predictions_summarise_perfectly() {
        let s = AccuracySummary::from_pairs(vec![
            pair(50.0, 50.0),
            pair(75.0, 75.0),
            pair(100.0, 100.0),
        ]);
        assert_eq!(s.mape, 0.0);
        assert!((s.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one prediction pair")]
    fn empty_pairs_panic() {
        let _ = AccuracySummary::from_pairs(Vec::new());
    }

    #[test]
    fn try_from_pairs_reports_empty_input_as_an_error() {
        use crate::error::AutoPowerError;
        assert!(matches!(
            AccuracySummary::try_from_pairs(Vec::new()),
            Err(AutoPowerError::EmptyEvaluation)
        ));
        assert!(matches!(
            try_evaluate_totals(&[], |_| 0.0),
            Err(AutoPowerError::EmptyEvaluation)
        ));
        let ok = AccuracySummary::try_from_pairs(vec![pair(10.0, 11.0)]).unwrap();
        assert_eq!(ok, AccuracySummary::from_pairs(vec![pair(10.0, 11.0)]));
    }
}
