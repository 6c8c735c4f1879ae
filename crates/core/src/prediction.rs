//! The typed prediction value: a total plus an explicit [`Resolution`].
//!
//! Historically `PowerModel::predict` returned a bare
//! [`PowerGroups`](autopower_powersim::PowerGroups) for *every* model, and
//! total-only models (McPAT-Calib) parked their scalar in the
//! `combinational` slot — a documented hack guarded by an out-of-band
//! `resolves_groups()` flag.  This module encodes the structural depth of a
//! prediction in the type instead:
//!
//! * [`Resolution::TotalOnly`] — the model predicts one scalar (McPAT-Calib).
//! * [`Resolution::Grouped`] — the model predicts the paper's four power
//!   groups at the core level (AutoPower's canonical output).
//! * [`Resolution::PerComponent`] — the model predicts per-component power,
//!   each component carrying a total and, when the model splits it, the
//!   per-component groups (AutoPower−, McPAT-Calib + Component).
//!
//! The constructors derive the total from the richest structure available, in
//! one fixed summation order, so totals are bit-identical to the goldens
//! pinned in `tests/training_parity.rs`.

use autopower_config::Component;
use autopower_powersim::PowerGroups;

/// Predicted power of one component: a total and, when the model splits the
/// component into groups, the per-group view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentPower {
    /// Predicted total power of the component in mW.
    pub total: f64,
    /// Per-group split of the component, for models that resolve it.
    pub groups: Option<PowerGroups>,
}

impl ComponentPower {
    /// A component whose groups are resolved; the total is the group sum.
    pub fn grouped(groups: PowerGroups) -> Self {
        Self {
            total: groups.total(),
            groups: Some(groups),
        }
    }

    /// A component predicted as one scalar.
    pub fn total_only(total: f64) -> Self {
        Self {
            total,
            groups: None,
        }
    }
}

/// Per-component prediction: one [`ComponentPower`] per [`Component::ALL`]
/// entry, in that order.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentBreakdown {
    entries: Vec<ComponentPower>,
}

impl ComponentBreakdown {
    /// Wraps one entry per component.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one entry per [`Component::ALL`] member is given.
    pub fn new(entries: Vec<ComponentPower>) -> Self {
        assert_eq!(
            entries.len(),
            Component::ALL.len(),
            "a breakdown carries one entry per component"
        );
        Self { entries }
    }

    /// Builds a fully group-resolved breakdown from a per-component predictor.
    pub fn from_groups(mut predict: impl FnMut(Component) -> PowerGroups) -> Self {
        Self::new(
            Component::ALL
                .iter()
                .map(|&c| ComponentPower::grouped(predict(c)))
                .collect(),
        )
    }

    /// Builds a total-only breakdown from a per-component scalar predictor.
    pub fn from_totals(mut predict: impl FnMut(Component) -> f64) -> Self {
        Self::new(
            Component::ALL
                .iter()
                .map(|&c| ComponentPower::total_only(predict(c)))
                .collect(),
        )
    }

    /// The entry of one component.
    pub fn component(&self, component: Component) -> ComponentPower {
        self.entries[component.index()]
    }

    /// Every `(component, entry)` pair, in [`Component::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Component, ComponentPower)> + '_ {
        Component::ALL
            .iter()
            .copied()
            .zip(self.entries.iter().copied())
    }

    /// Whether every component carries a per-group split.
    pub fn resolves_groups(&self) -> bool {
        self.entries.iter().all(|e| e.groups.is_some())
    }

    /// Core-level groups: the component groups summed in [`Component::ALL`]
    /// order, or `None` if any component lacks a group split.
    pub fn groups(&self) -> Option<PowerGroups> {
        let mut sum = PowerGroups::default();
        for entry in &self.entries {
            sum += entry.groups?;
        }
        Some(sum)
    }

    /// Core-level total: the group-summed total when every component resolves
    /// groups (matching the group-wise accumulation the group-resolving
    /// models have always used), otherwise the sum of the component totals.
    pub fn total(&self) -> f64 {
        match self.groups() {
            Some(groups) => groups.total(),
            None => self.entries.iter().map(|e| e.total).sum(),
        }
    }
}

/// How much structure a [`Prediction`] carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Resolution {
    /// One scalar; no group or component structure.
    TotalOnly,
    /// The paper's four power groups at the core level.
    Grouped(PowerGroups),
    /// Per-component power (with per-component groups where the model
    /// resolves them).
    PerComponent(ComponentBreakdown),
}

impl Resolution {
    /// Short stable name for reports (`total-only` / `grouped` /
    /// `per-component`).
    pub fn name(&self) -> &'static str {
        match self {
            Resolution::TotalOnly => "total-only",
            Resolution::Grouped(_) => "grouped",
            Resolution::PerComponent(_) => "per-component",
        }
    }
}

/// A typed power prediction: the total in mW plus the structural
/// [`Resolution`] it was derived from.
///
/// The total is always present and always meaningful; [`Prediction::groups`]
/// and [`Prediction::components`] surface the richer views only when the
/// model actually resolved them — there is no slot-parking and nothing to
/// misread.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    total: f64,
    resolution: Resolution,
}

impl Prediction {
    /// A total-only prediction.
    pub fn total_only(total: f64) -> Self {
        Self {
            total,
            resolution: Resolution::TotalOnly,
        }
    }

    /// A group-resolved prediction; the total is the group sum.
    pub fn grouped(groups: PowerGroups) -> Self {
        Self {
            total: groups.total(),
            resolution: Resolution::Grouped(groups),
        }
    }

    /// A component-resolved prediction; the total is the breakdown's
    /// core-level total (see [`ComponentBreakdown::total`]).
    pub fn per_component(breakdown: ComponentBreakdown) -> Self {
        Self {
            total: breakdown.total(),
            resolution: Resolution::PerComponent(breakdown),
        }
    }

    /// Predicted total power in mW.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The structural resolution of the prediction.
    pub fn resolution(&self) -> &Resolution {
        &self.resolution
    }

    /// Core-level per-group power, if the model resolves groups (directly or
    /// by summing a fully group-resolved component breakdown).
    pub fn groups(&self) -> Option<PowerGroups> {
        match &self.resolution {
            Resolution::TotalOnly => None,
            Resolution::Grouped(groups) => Some(*groups),
            Resolution::PerComponent(breakdown) => breakdown.groups(),
        }
    }

    /// The per-component breakdown, if the model resolves components.
    pub fn components(&self) -> Option<&ComponentBreakdown> {
        match &self.resolution {
            Resolution::PerComponent(breakdown) => Some(breakdown),
            _ => None,
        }
    }

    /// `true` if the total (and every resolved group) is finite and
    /// non-negative.
    pub fn is_physical(&self) -> bool {
        let total_ok = self.total.is_finite() && self.total >= 0.0;
        total_ok && self.groups().is_none_or(|g| g.is_physical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups(scale: f64) -> PowerGroups {
        PowerGroups {
            clock: 2.0 * scale,
            sram: 1.5 * scale,
            register: 0.5 * scale,
            combinational: 1.0 * scale,
        }
    }

    #[test]
    fn total_only_carries_no_structure() {
        let p = Prediction::total_only(97.25);
        assert_eq!(p.total(), 97.25);
        assert_eq!(p.groups(), None);
        assert!(p.components().is_none());
        assert_eq!(p.resolution().name(), "total-only");
        assert!(p.is_physical());
        assert!(!Prediction::total_only(f64::NAN).is_physical());
        assert!(!Prediction::total_only(-1.0).is_physical());
    }

    #[test]
    fn grouped_total_is_the_group_sum_bit_for_bit() {
        let g = groups(7.3);
        let p = Prediction::grouped(g);
        assert_eq!(p.total().to_bits(), g.total().to_bits());
        assert_eq!(p.groups(), Some(g));
        assert_eq!(p.resolution().name(), "grouped");
    }

    #[test]
    fn per_component_with_groups_sums_group_wise() {
        let b = ComponentBreakdown::from_groups(|c| groups((c.index() + 1) as f64));
        assert!(b.resolves_groups());
        // The core-level groups are the component groups accumulated in
        // Component::ALL order — the exact loop the group-resolving models
        // have always run.
        let mut expected = PowerGroups::default();
        for c in Component::ALL {
            expected += groups((c.index() + 1) as f64);
        }
        assert_eq!(b.groups(), Some(expected));
        let p = Prediction::per_component(b.clone());
        assert_eq!(p.total().to_bits(), expected.total().to_bits());
        assert_eq!(p.groups(), Some(expected));
        assert_eq!(p.components(), Some(&b));
        assert_eq!(p.resolution().name(), "per-component");
    }

    #[test]
    fn per_component_without_groups_sums_scalars() {
        let b = ComponentBreakdown::from_totals(|c| c.index() as f64 + 0.5);
        assert!(!b.resolves_groups());
        assert_eq!(b.groups(), None);
        let expected: f64 = Component::ALL.iter().map(|c| c.index() as f64 + 0.5).sum();
        let p = Prediction::per_component(b);
        assert_eq!(p.total().to_bits(), expected.to_bits());
        assert_eq!(p.groups(), None);
        assert!(p.components().is_some());
    }

    #[test]
    fn breakdown_entries_are_addressable_by_component() {
        let b = ComponentBreakdown::from_totals(|c| c.index() as f64);
        for (i, c) in Component::ALL.into_iter().enumerate() {
            assert_eq!(b.component(c).total, i as f64);
        }
        assert_eq!(b.iter().count(), Component::ALL.len());
    }

    #[test]
    #[should_panic(expected = "one entry per component")]
    fn short_breakdowns_are_rejected() {
        let _ = ComponentBreakdown::new(vec![ComponentPower::total_only(1.0)]);
    }
}
