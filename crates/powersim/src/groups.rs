//! The four power groups of the paper's decomposition.

use std::ops::{Add, AddAssign};

/// Power split into the paper's groups, in mW.
///
/// The paper decouples power into clock, SRAM and logic, and further splits logic into
/// register (non-clock-pin) power and combinational power; this struct keeps the finer
/// four-way split and exposes [`PowerGroups::logic`] for the coarser view.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerGroups {
    /// Clock power: register clock pins + clock-gating cells, in mW.
    pub clock: f64,
    /// SRAM macro power (read/write energy, leakage, pin toggling), in mW.
    pub sram: f64,
    /// Register power excluding clock pins, in mW.
    pub register: f64,
    /// Combinational logic power, in mW.
    pub combinational: f64,
}

impl PowerGroups {
    /// Total power over all groups, in mW.
    pub fn total(&self) -> f64 {
        self.clock + self.sram + self.register + self.combinational
    }

    /// Logic power (register + combinational), in mW — the paper's third group.
    pub fn logic(&self) -> f64 {
        self.register + self.combinational
    }

    /// Fraction of the total contributed by the clock group.
    pub fn clock_fraction(&self) -> f64 {
        self.fraction(self.clock)
    }

    /// Fraction of the total contributed by the SRAM group.
    pub fn sram_fraction(&self) -> f64 {
        self.fraction(self.sram)
    }

    /// Fraction of the total contributed by the logic group.
    pub fn logic_fraction(&self) -> f64 {
        self.fraction(self.logic())
    }

    fn fraction(&self, part: f64) -> f64 {
        let t = self.total();
        if t <= 0.0 {
            0.0
        } else {
            part / t
        }
    }

    /// Element-wise scaling (useful for averaging).
    pub fn scaled(&self, factor: f64) -> PowerGroups {
        PowerGroups {
            clock: self.clock * factor,
            sram: self.sram * factor,
            register: self.register * factor,
            combinational: self.combinational * factor,
        }
    }

    /// `true` if every group is finite and non-negative.
    pub fn is_physical(&self) -> bool {
        [self.clock, self.sram, self.register, self.combinational]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0)
    }
}

impl Add for PowerGroups {
    type Output = PowerGroups;

    fn add(self, rhs: PowerGroups) -> PowerGroups {
        PowerGroups {
            clock: self.clock + rhs.clock,
            sram: self.sram + rhs.sram,
            register: self.register + rhs.register,
            combinational: self.combinational + rhs.combinational,
        }
    }
}

impl AddAssign for PowerGroups {
    fn add_assign(&mut self, rhs: PowerGroups) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PowerGroups {
        PowerGroups {
            clock: 20.0,
            sram: 15.0,
            register: 5.0,
            combinational: 10.0,
        }
    }

    #[test]
    fn totals_and_fractions() {
        let p = sample();
        assert!((p.total() - 50.0).abs() < 1e-12);
        assert!((p.logic() - 15.0).abs() < 1e-12);
        assert!((p.clock_fraction() - 0.4).abs() < 1e-12);
        assert!((p.sram_fraction() - 0.3).abs() < 1e-12);
        assert!((p.logic_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn add_and_scale() {
        let p = sample() + sample();
        assert!((p.total() - 100.0).abs() < 1e-12);
        let h = p.scaled(0.5);
        assert!((h.total() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn zero_total_has_zero_fractions() {
        let p = PowerGroups::default();
        assert_eq!(p.clock_fraction(), 0.0);
        assert!(p.is_physical());
    }

    #[test]
    fn negative_power_is_unphysical() {
        let mut p = sample();
        p.sram = -1.0;
        assert!(!p.is_physical());
    }
}
