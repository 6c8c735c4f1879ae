//! Standard-cell parameters of the synthetic library.

/// Per-cell power/energy figures of the standard-cell library.
///
/// The clock power model of the paper (Eq. 7) looks `p_reg` up "from the library file of
/// the technology node adopted for the VLSI flow"; the other figures are used by the
/// golden power evaluator (the PrimePower substitute) and by nothing else — the
/// architecture-level model never sees them directly.
#[derive(Debug, Clone, PartialEq)]
pub struct CellParams {
    /// Clock-pin power of one register whose clock is active every cycle, in mW
    /// (`p_reg` of Eq. 2).
    pub register_clock_pin_mw: f64,
    /// Clock-pin power of the latch inside one integrated clock-gating cell, in mW
    /// (`p_latch` of Eq. 4).
    pub gating_cell_latch_mw: f64,
    /// Internal + switching energy of one register data toggle (excluding the clock pin),
    /// in pJ.
    pub register_toggle_pj: f64,
    /// Leakage power of one register, in mW.
    pub register_leakage_mw: f64,
    /// Dynamic power of one gate-equivalent of combinational logic at 100 % input
    /// activity, in mW.
    pub comb_dynamic_mw_per_gate: f64,
    /// Leakage power of one gate-equivalent of combinational logic, in mW.
    pub comb_leakage_mw_per_gate: f64,
    /// Average fan-out of an integrated clock-gating cell: how many gated registers share
    /// one gating cell.  The ratio `r` between gating cells and registers of Eq. 4 is the
    /// reciprocal of this figure.
    pub gating_cell_fanout: f64,
}

impl CellParams {
    /// Representative values for a 40 nm-class node at 1 GHz / 0.9 V.
    pub fn default_40nm() -> Self {
        Self {
            // ~2.4 uW per always-on flop clock pin at 1 GHz (clock pin + local clock net).
            register_clock_pin_mw: 2.4e-3,
            // The gating-cell latch clock pin is slightly larger than a flop clock pin.
            gating_cell_latch_mw: 3.1e-3,
            // A full flop data toggle costs a few fJ; 2.2 fJ internal + local net.
            register_toggle_pj: 2.2e-3,
            register_leakage_mw: 2.0e-5,
            comb_dynamic_mw_per_gate: 4.5e-4,
            comb_leakage_mw_per_gate: 6.0e-6,
            gating_cell_fanout: 18.0,
        }
    }

    /// The ratio `r` between clock-gating cells and gated registers (Eq. 4), i.e.
    /// `1 / gating_cell_fanout`.
    pub fn gating_cell_ratio(&self) -> f64 {
        1.0 / self.gating_cell_fanout
    }

    /// Checks that every figure is finite and positive.
    ///
    /// Returns `false` for a physically meaningless parameter set; callers that accept
    /// user-provided libraries should reject such sets.
    pub fn is_physical(&self) -> bool {
        [
            self.register_clock_pin_mw,
            self.gating_cell_latch_mw,
            self.register_toggle_pj,
            self.register_leakage_mw,
            self.comb_dynamic_mw_per_gate,
            self.comb_leakage_mw_per_gate,
            self.gating_cell_fanout,
        ]
        .iter()
        .all(|v| v.is_finite() && *v > 0.0)
    }
}

impl Default for CellParams {
    fn default() -> Self {
        Self::default_40nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cells_are_physical() {
        assert!(CellParams::default_40nm().is_physical());
    }

    #[test]
    fn gating_latch_costs_more_than_flop_clock_pin() {
        // The paper's Eq. 4/5 only makes sense if a gating cell has a non-trivial cost
        // relative to a register clock pin; keep the library in that regime.
        let c = CellParams::default_40nm();
        assert!(c.gating_cell_latch_mw > c.register_clock_pin_mw);
        assert!(c.gating_cell_latch_mw < 10.0 * c.register_clock_pin_mw);
    }

    #[test]
    fn gating_ratio_is_reciprocal_of_fanout() {
        let c = CellParams::default_40nm();
        let r = c.gating_cell_ratio();
        assert!((r * c.gating_cell_fanout - 1.0).abs() < 1e-12);
        assert!(r < 1.0);
    }

    #[test]
    fn non_physical_detected() {
        let mut c = CellParams::default_40nm();
        c.register_clock_pin_mw = 0.0;
        assert!(!c.is_physical());
        c.register_clock_pin_mw = f64::NAN;
        assert!(!c.is_physical());
    }
}
