//! The scaling-pattern-based SRAM Block hardware model.
//!
//! The model's insight (Section II-B): SRAM Blocks scale with hardware parameters in two
//! general patterns — *capacity scaling* (total bits grow linearly with some parameter
//! product) and *throughput scaling* (width × count grows linearly with some parameter
//! product).  To find the pattern, the model tries every combination of the component's
//! hardware parameters, fits a directly-proportional function on the known
//! configurations, and keeps the combination with minimal error (Table I walks through
//! the IFU metadata-table example).

use crate::dataset::Corpus;
use crate::error::AutoPowerError;
use crate::serialize::{decode_hw_param, decode_position, encode_hw_param, encode_position};
use autopower_codec::{Codec, CodecError, Reader, Writer};
use autopower_config::{ConfigId, CpuConfig, HwParam, SramPositionId};

/// A fitted directly-proportional scaling rule: `target ≈ coefficient · Π params`.
///
/// An empty parameter list models a constant target (the product over an empty set is 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRule {
    /// The hardware parameters whose product the target scales with.
    pub params: Vec<HwParam>,
    /// The proportionality coefficient `k`.
    pub coefficient: f64,
    /// Maximum relative error over the training configurations.
    pub relative_error: f64,
}

impl ScalingRule {
    /// Evaluates the rule for a configuration.
    pub fn predict(&self, config: &CpuConfig) -> f64 {
        let product: f64 = self
            .params
            .iter()
            .map(|&p| config.params.value(p) as f64)
            .product();
        self.coefficient * product
    }

    /// Fits one candidate combination on `(config, target)` samples.
    fn fit_combo(combo: &[HwParam], samples: &[(&CpuConfig, f64)]) -> ScalingRule {
        // Least-squares through the origin on the products: k = Σ x·y / Σ x².
        let mut num = 0.0;
        let mut den = 0.0;
        for (config, target) in samples {
            let x: f64 = combo
                .iter()
                .map(|&p| config.params.value(p) as f64)
                .product();
            num += x * target;
            den += x * x;
        }
        let coefficient = if den > 0.0 { num / den } else { 0.0 };
        let relative_error = samples
            .iter()
            .map(|(config, target)| {
                let x: f64 = combo
                    .iter()
                    .map(|&p| config.params.value(p) as f64)
                    .product();
                if *target != 0.0 {
                    ((coefficient * x - target) / target).abs()
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max);
        ScalingRule {
            params: combo.to_vec(),
            coefficient,
            relative_error,
        }
    }

    /// Fits the best scaling rule over all non-empty combinations of `candidates`.
    ///
    /// Combinations are tried in order of increasing size and, within a size, in the
    /// order the parameters appear in the component's Table III list; the first
    /// combination achieving the minimal error wins, so simpler rules are preferred.
    pub fn fit_best(candidates: &[HwParam], samples: &[(&CpuConfig, f64)]) -> Option<ScalingRule> {
        if candidates.is_empty() || samples.is_empty() {
            return None;
        }
        // The empty combination models a constant target (e.g. a fixed tag width); it is
        // the simplest candidate and is tried first.
        let mut combos: Vec<Vec<HwParam>> = vec![Vec::new()];
        let n = candidates.len();
        for mask in 1u32..(1 << n) {
            let combo: Vec<HwParam> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| candidates[i])
                .collect();
            combos.push(combo);
        }
        combos.sort_by_key(|c| c.len());
        let mut best: Option<ScalingRule> = None;
        for combo in combos {
            let rule = Self::fit_combo(&combo, samples);
            let better = match &best {
                None => true,
                Some(b) => rule.relative_error < b.relative_error - 1e-9,
            };
            if better {
                best = Some(rule);
            }
        }
        best
    }
}

impl Codec for ScalingRule {
    fn encode(&self, w: &mut Writer) {
        w.begin("scaling-rule");
        w.begin_list("params", self.params.len());
        for &param in &self.params {
            encode_hw_param(w, param);
        }
        w.end();
        w.f64("coefficient", self.coefficient);
        w.f64("relative_error", self.relative_error);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("scaling-rule")?;
        let len = r.begin_list("params")?;
        let mut params = Vec::with_capacity(len);
        for _ in 0..len {
            params.push(decode_hw_param(r)?);
        }
        r.end()?;
        let coefficient = r.f64("coefficient")?;
        let relative_error = r.f64("relative_error")?;
        r.end()?;
        Ok(Self {
            params,
            coefficient,
            relative_error,
        })
    }
}

/// Predicted shape of the SRAM Blocks of one position for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictedBlock {
    /// Predicted block width in bits.
    pub width: u32,
    /// Predicted block depth in words.
    pub depth: u32,
    /// Predicted number of identical blocks.
    pub count: u32,
}

impl PredictedBlock {
    /// Predicted capacity in bits.
    pub fn bits(&self) -> u64 {
        self.width as u64 * self.depth as u64 * self.count as u64
    }
}

/// The hardware model of one SRAM Position: fitted scaling rules for capacity,
/// throughput and width, from which width/depth/count are derived.
#[derive(Debug, Clone, PartialEq)]
pub struct PositionHardwareModel {
    position: SramPositionId,
    /// Rule for the total capacity (width × depth × count).
    pub capacity: ScalingRule,
    /// Rule for the throughput (width × count).
    pub throughput: ScalingRule,
    /// Rule for the block width.
    pub width: ScalingRule,
}

impl PositionHardwareModel {
    /// Fits the hardware model of `position` from the training configurations' netlists.
    ///
    /// # Errors
    ///
    /// Returns [`AutoPowerError::NoScalingRule`] if no rule can be fitted (no training
    /// configurations or the position has no blocks).
    pub fn fit(
        position: SramPositionId,
        corpus: &Corpus,
        train_configs: &[ConfigId],
    ) -> Result<Self, AutoPowerError> {
        let mut capacity_samples = Vec::new();
        let mut throughput_samples = Vec::new();
        let mut width_samples = Vec::new();
        for &id in train_configs {
            let runs = corpus.runs_for(id);
            let Some(run) = runs.first() else { continue };
            let Some(block) = run
                .netlist
                .component(position.component)
                .blocks_of(position)
            else {
                continue;
            };
            capacity_samples.push((&run.config, block.bits() as f64));
            throughput_samples.push((&run.config, block.throughput_bits() as f64));
            width_samples.push((&run.config, block.width as f64));
        }
        let candidates = position.component.hw_params();
        let capacity = ScalingRule::fit_best(candidates, &capacity_samples)
            .ok_or(AutoPowerError::NoScalingRule(position))?;
        let throughput = ScalingRule::fit_best(candidates, &throughput_samples)
            .ok_or(AutoPowerError::NoScalingRule(position))?;
        let width = ScalingRule::fit_best(candidates, &width_samples)
            .ok_or(AutoPowerError::NoScalingRule(position))?;
        Ok(Self {
            position,
            capacity,
            throughput,
            width,
        })
    }

    /// The position this model describes.
    pub fn position(&self) -> SramPositionId {
        self.position
    }

    /// Predicts the block shape for a configuration.
    ///
    /// Count is the throughput divided by the width, depth is the capacity divided by
    /// the throughput (as in the paper's Table I walk-through); all three are rounded to
    /// the nearest positive integer.
    pub fn predict_block(&self, config: &CpuConfig) -> PredictedBlock {
        let capacity = self.capacity.predict(config).max(1.0);
        let throughput = self.throughput.predict(config).max(1.0);
        let width = self.width.predict(config).max(1.0);
        let count = (throughput / width).round().max(1.0);
        let depth = (capacity / throughput).round().max(1.0);
        PredictedBlock {
            width: width.round().max(1.0) as u32,
            depth: depth as u32,
            count: count as u32,
        }
    }
}

impl Codec for PositionHardwareModel {
    fn encode(&self, w: &mut Writer) {
        w.begin("position-hardware");
        encode_position(w, self.position);
        self.capacity.encode(w);
        self.throughput.encode(w);
        self.width.encode(w);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("position-hardware")?;
        let position = decode_position(r)?;
        let capacity = ScalingRule::decode(r)?;
        let throughput = ScalingRule::decode(r)?;
        let width = ScalingRule::decode(r)?;
        r.end()?;
        Ok(Self {
            position,
            capacity,
            throughput,
            width,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CorpusSpec;
    use autopower_config::{boom_configs, Component, Workload};

    #[test]
    fn fit_best_reproduces_the_table_i_example() {
        // Table I: metadata table of the IFU; known configurations C1 and C15.
        let cfgs = boom_configs();
        let c1 = cfgs[0];
        let c15 = cfgs[14];
        // Capacities: width*depth*count with width = 30*FW, depth = 8*DW.
        let samples = vec![(&c1, 120.0 * 8.0), (&c15, 240.0 * 40.0)];
        let rule = ScalingRule::fit_best(Component::Ifu.hw_params(), &samples).unwrap();
        // The capacity scales with FetchWidth * DecodeWidth with coefficient 240.
        assert_eq!(rule.params, vec![HwParam::FetchWidth, HwParam::DecodeWidth]);
        assert!((rule.coefficient - 240.0).abs() < 1e-9);
        assert!(rule.relative_error < 1e-9);
    }

    #[test]
    fn simpler_combinations_win_ties() {
        let cfgs = boom_configs();
        // A target proportional to FetchWidth alone; {FetchWidth} and any superset fit
        // with zero error, the single-parameter rule must be chosen.
        let samples: Vec<(&autopower_config::CpuConfig, f64)> =
            vec![(&cfgs[0], 4.0 * 7.0), (&cfgs[14], 8.0 * 7.0)];
        let rule =
            ScalingRule::fit_best(&[HwParam::FetchWidth, HwParam::DecodeWidth], &samples).unwrap();
        assert_eq!(rule.params, vec![HwParam::FetchWidth]);
    }

    #[test]
    fn hardware_model_generalises_across_the_design_space() {
        // With three known configurations every scaling ambiguity of the evaluated design
        // space resolves and the model recovers every block capacity exactly; with only
        // two, positions whose candidate parameters are identical on both training
        // configurations (e.g. IntPhyRegister vs FpPhyRegister on C1/C15) stay within a
        // small relative error.
        let cfgs = boom_configs();
        let corpus = Corpus::generate(
            &[cfgs[0], cfgs[4], cfgs[7], cfgs[14]],
            &[Workload::Dhrystone],
            &CorpusSpec::fast(),
        );
        let run = corpus.run(ConfigId::new(8), Workload::Dhrystone).unwrap();
        let three = [ConfigId::new(1), ConfigId::new(5), ConfigId::new(15)];
        let two = [ConfigId::new(1), ConfigId::new(15)];
        for position in autopower_config::sram_positions() {
            let truth = run
                .netlist
                .component(position.id.component)
                .blocks_of(position.id)
                .unwrap();
            let model3 = PositionHardwareModel::fit(position.id, &corpus, &three).unwrap();
            assert_eq!(
                model3.predict_block(&run.config).bits(),
                truth.bits(),
                "{}",
                position.id
            );
            let model2 = PositionHardwareModel::fit(position.id, &corpus, &two).unwrap();
            let predicted = model2.predict_block(&run.config).bits() as f64;
            let rel = (predicted - truth.bits() as f64).abs() / truth.bits() as f64;
            assert!(rel < 0.2, "{}: relative capacity error {rel}", position.id);
        }
    }

    #[test]
    fn missing_training_data_is_an_error() {
        let cfgs = boom_configs();
        let corpus = Corpus::generate(&[cfgs[0]], &[Workload::Dhrystone], &CorpusSpec::fast());
        let pos = autopower_config::sram_positions()[0].id;
        let err = PositionHardwareModel::fit(pos, &corpus, &[]);
        assert!(matches!(err, Err(AutoPowerError::NoScalingRule(_))));
    }

    #[test]
    fn predicted_blocks_are_always_positive() {
        let cfgs = boom_configs();
        let corpus = Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone],
            &CorpusSpec::fast(),
        );
        let train = [ConfigId::new(1), ConfigId::new(15)];
        for position in autopower_config::sram_positions() {
            let model = PositionHardwareModel::fit(position.id, &corpus, &train).unwrap();
            for cfg in &boom_configs() {
                let b = model.predict_block(cfg);
                assert!(b.width >= 1 && b.depth >= 1 && b.count >= 1);
            }
        }
    }
}
