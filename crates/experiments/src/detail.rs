//! Per-group detail experiments: Fig. 7 (clock) and Fig. 8 (SRAM).
//!
//! Both figures loop over **every component-resolving registry model**
//! ([`ModelKind::component_resolving`]) through the trait-level
//! [`predict_components`](autopower::PowerModel::predict_components) view:
//!
//! * the per-group tables (the paper's Figs. 7/8) compare every model that
//!   splits components into groups (AutoPower, AutoPower−);
//! * a per-component *total power* table covers all component-resolving
//!   models, including McPAT-Calib + Component, whose breakdown carries
//!   component totals but no group split — its group cells print `n/a`
//!   instead of a parked number.

use crate::report::{format_table, percent};
use crate::Experiments;
use autopower::{ClockPowerModel, FeatureScratch, ModelKind, PowerModel};
use autopower_config::{Component, ConfigId};
use autopower_ml::metrics;
use std::fmt;

/// Accuracy of the clock sub-models (register count and gating rate), reported in
/// Section III-B.3 of the paper (6.93 % MAPE with two known configurations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubModelAccuracy {
    /// MAPE of the register-count prediction over components and test configurations.
    pub register_count_mape: f64,
    /// MAPE of the gating-rate prediction over components and test configurations.
    pub gating_rate_mape: f64,
}

/// One per-component row of a detail experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentDetailRow {
    /// The component.
    pub component: Component,
    /// Group-power MAPE per participating model (in [`GroupDetailResult::models`]
    /// order); `None` when the model does not split this component into groups.
    pub group_mape: Vec<Option<f64>>,
    /// Component-total-power MAPE per participating model (always available —
    /// every component-resolving model predicts component totals).
    pub total_mape: Vec<f64>,
    /// Mean golden group power over the test runs, in mW.
    pub mean_golden_mw: f64,
    /// Mean golden *total* component power over the test runs, in mW (the
    /// reference of the component-total table).
    pub mean_golden_total_mw: f64,
}

/// Result of one per-group detail experiment.
#[derive(Debug, Clone)]
pub struct GroupDetailResult {
    /// Power group name (`"clock"` or `"SRAM"`).
    pub group: &'static str,
    /// The training configurations.
    pub train_configs: Vec<ConfigId>,
    /// Every component-resolving registry model, in [`ModelKind::ALL`] order.
    pub models: Vec<ModelKind>,
    /// One row per evaluated component.
    pub per_component: Vec<ComponentDetailRow>,
    /// Core-level group power `(MAPE, Pearson R)` per model, in `models`
    /// order; `None` for models without a group view.
    pub core_level: Vec<Option<(f64, f64)>>,
    /// Clock sub-model accuracy (only set for the clock experiment).
    pub sub_models: Option<SubModelAccuracy>,
}

impl GroupDetailResult {
    /// The column index of one model.
    ///
    /// # Panics
    ///
    /// Panics if `kind` does not resolve components.
    pub fn model_index(&self, kind: ModelKind) -> usize {
        self.models
            .iter()
            .position(|&k| k == kind)
            .unwrap_or_else(|| panic!("{kind} is not part of the detail experiment"))
    }

    /// Number of components for which AutoPower's group prediction is at
    /// least as accurate as `other`'s (components where either model lacks a
    /// group view are skipped).
    pub fn components_won_against(&self, other: ModelKind) -> usize {
        let ours = self.model_index(ModelKind::AutoPower);
        let theirs = self.model_index(other);
        self.per_component
            .iter()
            .filter(|row| match (row.group_mape[ours], row.group_mape[theirs]) {
                (Some(a), Some(b)) => a <= b,
                _ => false,
            })
            .count()
    }

    /// Number of components for which AutoPower beats the AutoPower− ablation
    /// (the paper's headline reading of Figs. 7/8).
    pub fn components_won(&self) -> usize {
        self.components_won_against(ModelKind::AutoPowerMinus)
    }

    /// Core-level `(MAPE, Pearson R)` of one model's group prediction.
    ///
    /// # Panics
    ///
    /// Panics if `kind` does not resolve components.
    pub fn core_level_of(&self, kind: ModelKind) -> Option<(f64, f64)> {
        self.core_level[self.model_index(kind)]
    }
}

fn mape_cell(value: Option<f64>) -> String {
    match value {
        Some(v) => percent(v),
        None => "n/a".to_owned(),
    }
}

impl fmt::Display for GroupDetailResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} power detail — every component-resolving registry model \
             ({} training configurations)",
            self.group,
            self.train_configs.len()
        )?;

        // Per-component group MAPE, one column per model.
        let mut header: Vec<String> = vec!["component".to_owned()];
        header.extend(
            self.models
                .iter()
                .map(|m| format!("{} MAPE", m.paper_name())),
        );
        header.push("mean golden (mW)".to_owned());
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = self
            .per_component
            .iter()
            .map(|row| {
                let mut cells = vec![row.component.to_string()];
                cells.extend(row.group_mape.iter().map(|&v| mape_cell(v)));
                cells.push(format!("{:.3}", row.mean_golden_mw));
                cells
            })
            .collect();
        writeln!(f, "{}", format_table(&header_refs, &rows))?;

        // Per-component total power MAPE — the table where every
        // component-resolving model (incl. McPAT-Calib + Component) competes.
        writeln!(f, "per-component total power")?;
        let mut total_header = header.clone();
        *total_header.last_mut().expect("header has columns") = "mean golden total (mW)".to_owned();
        let total_header_refs: Vec<&str> = total_header.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = self
            .per_component
            .iter()
            .map(|row| {
                let mut cells = vec![row.component.to_string()];
                cells.extend(row.total_mape.iter().map(|&v| percent(v)));
                cells.push(format!("{:.3}", row.mean_golden_total_mw));
                cells
            })
            .collect();
        writeln!(f, "{}", format_table(&total_header_refs, &rows))?;

        let core: Vec<String> = self
            .models
            .iter()
            .zip(&self.core_level)
            .map(|(kind, level)| match level {
                Some((mape, pearson)) => format!(
                    "{} MAPE {} (R {:.3})",
                    kind.paper_name(),
                    percent(*mape),
                    pearson
                ),
                None => format!("{} n/a (no group view)", kind.paper_name()),
            })
            .collect();
        writeln!(f, "core-level {}: {}", self.group, core.join(", "))?;
        if let Some(sub) = self.sub_models {
            writeln!(
                f,
                "sub-models: register count MAPE {}, gating rate MAPE {}",
                percent(sub.register_count_mape),
                percent(sub.gating_rate_mape)
            )?;
        }
        Ok(())
    }
}

/// Which power group a detail experiment extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    Clock,
    Sram,
}

impl Experiments {
    fn group_detail(&self, group: Group) -> GroupDetailResult {
        let corpus = self.average_corpus();
        let train = self.settings().train_two.clone();
        let kinds = ModelKind::component_resolving();
        let models: Vec<Box<dyn PowerModel>> = kinds
            .iter()
            .map(|kind| {
                kind.train(&corpus, &train)
                    .expect("component-resolving model trains")
            })
            .collect();
        let test_runs = corpus.test_runs(&train);

        let components: Vec<Component> = match group {
            Group::Clock => Component::ALL.to_vec(),
            Group::Sram => Component::ALL
                .iter()
                .copied()
                .filter(|c| c.has_sram())
                .collect(),
        };
        let golden_group = |run: &autopower::RunData, c: Component| match group {
            Group::Clock => run.golden.component(c).clock,
            Group::Sram => run.golden.component(c).sram,
        };

        // One breakdown per (model, test run), computed once through the
        // trait-level per-component view.
        let breakdowns: Vec<Vec<autopower::ComponentBreakdown>> = models
            .iter()
            .map(|model| {
                test_runs
                    .iter()
                    .map(|run| {
                        model
                            .predict_run_components(run)
                            .expect("component-resolving model answers predict_components")
                    })
                    .collect()
            })
            .collect();

        let mut per_component = Vec::new();
        for &component in &components {
            let golden_groups: Vec<f64> = test_runs
                .iter()
                .map(|r| golden_group(r, component))
                .collect();
            let golden_totals: Vec<f64> = test_runs
                .iter()
                .map(|r| r.golden.component(component).total())
                .collect();
            let mut group_mape = Vec::with_capacity(models.len());
            let mut total_mape = Vec::with_capacity(models.len());
            for per_run in &breakdowns {
                let entries: Vec<autopower::ComponentPower> =
                    per_run.iter().map(|b| b.component(component)).collect();
                group_mape.push(
                    entries
                        .iter()
                        .map(|e| {
                            e.groups.map(|g| match group {
                                Group::Clock => g.clock,
                                Group::Sram => g.sram,
                            })
                        })
                        .collect::<Option<Vec<f64>>>()
                        .map(|predicted| metrics::mape(&golden_groups, &predicted)),
                );
                let predicted_totals: Vec<f64> = entries.iter().map(|e| e.total).collect();
                total_mape.push(metrics::mape(&golden_totals, &predicted_totals));
            }
            per_component.push(ComponentDetailRow {
                component,
                group_mape,
                total_mape,
                mean_golden_mw: golden_groups.iter().sum::<f64>() / golden_groups.len() as f64,
                mean_golden_total_mw: golden_totals.iter().sum::<f64>()
                    / golden_totals.len() as f64,
            });
        }

        // Core-level group power: the per-component group predictions summed
        // over every component, per test run.
        let core_truth: Vec<f64> = test_runs
            .iter()
            .map(|run| Component::ALL.iter().map(|&c| golden_group(run, c)).sum())
            .collect();
        let core_level: Vec<Option<(f64, f64)>> = breakdowns
            .iter()
            .map(|per_run| {
                per_run
                    .iter()
                    .map(|b| {
                        b.groups().map(|g| match group {
                            Group::Clock => g.clock,
                            Group::Sram => g.sram,
                        })
                    })
                    .collect::<Option<Vec<f64>>>()
                    .map(|predicted| {
                        (
                            metrics::mape(&core_truth, &predicted),
                            metrics::pearson(&core_truth, &predicted),
                        )
                    })
            })
            .collect();

        let sub_models = match group {
            Group::Clock => {
                // The structural sub-model figures need AutoPower's clock
                // model internals; train it directly (same corpus, same
                // training set, deterministic — identical to the registry
                // model's clock part).
                let clock = ClockPowerModel::train(&corpus, &train)
                    .expect("clock model trains on the detail corpus");
                let mut reg_truth = Vec::new();
                let mut reg_pred = Vec::new();
                let mut gate_truth = Vec::new();
                let mut gate_pred = Vec::new();
                let mut seen = Vec::new();
                let mut scratch = FeatureScratch::new();
                for run in &test_runs {
                    if seen.contains(&run.config.id) {
                        continue;
                    }
                    seen.push(run.config.id);
                    for c in Component::ALL {
                        let netlist = run.netlist.component(c);
                        reg_truth.push(netlist.registers as f64);
                        reg_pred.push(clock.predict_register_count_with(
                            c,
                            &run.config,
                            &mut scratch,
                        ));
                        gate_truth.push(netlist.gating_rate());
                        gate_pred.push(clock.predict_gating_rate_with(
                            c,
                            &run.config,
                            &mut scratch,
                        ));
                    }
                }
                Some(SubModelAccuracy {
                    register_count_mape: metrics::mape(&reg_truth, &reg_pred),
                    gating_rate_mape: metrics::mape(&gate_truth, &gate_pred),
                })
            }
            Group::Sram => None,
        };

        GroupDetailResult {
            group: match group {
                Group::Clock => "clock",
                Group::Sram => "SRAM",
            },
            train_configs: train,
            models: kinds,
            per_component,
            core_level,
            sub_models,
        }
    }

    /// Fig. 7: clock power detail over every component-resolving registry model.
    pub fn fig7_clock_detail(&self) -> GroupDetailResult {
        self.group_detail(Group::Clock)
    }

    /// Fig. 8: SRAM power detail over every component-resolving registry model.
    pub fn fig8_sram_detail(&self) -> GroupDetailResult {
        self.group_detail(Group::Sram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_detail_covers_every_component_resolving_model() {
        let exp = Experiments::fast();
        let r = exp.fig7_clock_detail();
        assert_eq!(r.models, ModelKind::component_resolving());
        assert_eq!(r.per_component.len(), Component::ALL.len());
        for row in &r.per_component {
            assert_eq!(row.group_mape.len(), r.models.len());
            assert_eq!(row.total_mape.len(), r.models.len());
            for (i, kind) in r.models.iter().enumerate() {
                // Group cells exist exactly for group-resolving models; the
                // component-total column is populated for every model.
                assert_eq!(
                    row.group_mape[i].is_some(),
                    kind.resolves_groups(),
                    "{kind}"
                );
                assert!(row.total_mape[i].is_finite(), "{kind}");
            }
        }
        // AutoPower's structural clock model should beat the direct ML
        // ablation for the majority of components and at the core level.
        assert!(r.components_won() * 2 >= r.per_component.len());
        let (ours, _) = r.core_level_of(ModelKind::AutoPower).unwrap();
        let (minus, _) = r.core_level_of(ModelKind::AutoPowerMinus).unwrap();
        assert!(ours <= minus + 0.02);
        assert!(r.core_level_of(ModelKind::McpatCalibComponent).is_none());
        let sub = r
            .sub_models
            .expect("clock detail reports sub-model accuracy");
        assert!(sub.register_count_mape < 0.2);
        assert!(sub.gating_rate_mape < 0.2);
    }

    #[test]
    fn sram_detail_only_covers_sram_components() {
        let exp = Experiments::fast();
        let r = exp.fig8_sram_detail();
        assert!(r.per_component.iter().all(|row| row.component.has_sram()));
        assert!(r.sub_models.is_none());
        let (_, pearson) = r.core_level_of(ModelKind::AutoPower).unwrap();
        assert!(pearson > 0.5, "core-level SRAM Pearson R {pearson}");
        let text = r.to_string();
        assert!(text.contains("SRAM power detail"));
        // Every component-resolving model appears, with n/a (not a parked
        // number) for the group cells of the total-only-per-component model.
        assert!(text.contains("McPAT-Calib + Component"));
        assert!(text.contains("n/a"));
        assert!(text.contains("per-component total power"));
    }
}
