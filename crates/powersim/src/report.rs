//! Whole-run golden power reports.

use crate::groups::PowerGroups;
use autopower_config::{Component, ConfigId, Workload};

/// Golden power of one component, split into groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentPower {
    /// The component.
    pub component: Component,
    /// Its per-group power, in mW.
    pub groups: PowerGroups,
}

/// Golden power report of one `(configuration, workload)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// The evaluated configuration.
    pub config: ConfigId,
    /// The executed workload.
    pub workload: Workload,
    /// Per-component power, in [`Component::ALL`] order.
    pub components: Vec<ComponentPower>,
    /// Core-level totals (sum over components).
    pub total: PowerGroups,
}

impl PowerReport {
    /// Builds a report from per-component powers, computing the totals.
    ///
    /// # Panics
    ///
    /// Panics if `components` is not the full 22-component list in canonical order.
    pub fn new(config: ConfigId, workload: Workload, components: Vec<ComponentPower>) -> Self {
        assert_eq!(
            components.len(),
            Component::ALL.len(),
            "need all components"
        );
        for (i, c) in components.iter().enumerate() {
            assert_eq!(
                c.component.index(),
                i,
                "components must be in canonical order"
            );
        }
        let mut total = PowerGroups::default();
        for c in &components {
            total += c.groups;
        }
        Self {
            config,
            workload,
            components,
            total,
        }
    }

    /// Power of one component.
    pub fn component(&self, component: Component) -> PowerGroups {
        self.components[component.index()].groups
    }

    /// Total core power in mW.
    pub fn total_mw(&self) -> f64 {
        self.total.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_components(mw: f64) -> Vec<ComponentPower> {
        Component::ALL
            .iter()
            .map(|&component| ComponentPower {
                component,
                groups: PowerGroups {
                    clock: mw,
                    sram: mw / 2.0,
                    register: mw / 4.0,
                    combinational: mw / 4.0,
                },
            })
            .collect()
    }

    #[test]
    fn totals_sum_over_components() {
        let r = PowerReport::new(ConfigId::new(3), Workload::Qsort, uniform_components(1.0));
        assert!((r.total.clock - 22.0).abs() < 1e-9);
        assert!((r.total_mw() - 44.0).abs() < 1e-9);
        assert!((r.component(Component::Rob).total() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "need all components")]
    fn missing_components_rejected() {
        let mut comps = uniform_components(1.0);
        comps.pop();
        let _ = PowerReport::new(ConfigId::new(1), Workload::Vvadd, comps);
    }

    #[test]
    #[should_panic(expected = "canonical order")]
    fn shuffled_components_rejected() {
        let mut comps = uniform_components(1.0);
        comps.swap(0, 1);
        let _ = PowerReport::new(ConfigId::new(1), Workload::Vvadd, comps);
    }
}
