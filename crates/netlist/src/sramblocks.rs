//! SRAM Block shapes of every SRAM Position.
//!
//! The RTL generator of a parameterised core derives the shape of every SRAM block
//! deterministically from the configuration; there is no synthesis noise here.  The
//! shapes follow the two scaling patterns the paper identifies (capacity scaling and
//! throughput scaling), which is what allows AutoPower's scaling-pattern hardware model
//! to recover them exactly from two known configurations.

use autopower_config::{sram_positions_for, Component, CpuConfig, HwParam, SramPositionId};

/// The SRAM Blocks implementing one SRAM Position for one configuration.
///
/// A position is implemented by `count` identical blocks of `width × depth` bits
/// (a multi-bank structure when `count > 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramBlock {
    /// The SRAM Position these blocks implement.
    pub position: SramPositionId,
    /// Word width of each block in bits.
    pub width: u32,
    /// Number of words of each block.
    pub depth: u32,
    /// Number of identical blocks (banks).
    pub count: u32,
    /// Number of write-mask sectors (copied from the position catalogue).
    pub mask_sectors: u32,
}

impl SramBlock {
    /// Total capacity of the position in bits (`width × depth × count`).
    pub fn bits(&self) -> u64 {
        self.width as u64 * self.depth as u64 * self.count as u64
    }

    /// Throughput of the position in bits per access (`width × count`).
    pub fn throughput_bits(&self) -> u64 {
        self.width as u64 * self.count as u64
    }
}

/// Shape rule of one SRAM Position: `(width, depth, count)` as a function of the
/// configuration.
fn block_shape(position: SramPositionId, config: &CpuConfig) -> (u32, u32, u32) {
    use HwParam::*;
    let v = |p: HwParam| config.params.value(p);
    let fetch = v(FetchWidth);
    let decode = v(DecodeWidth);
    let branch = v(BranchCount);
    match (position.component, position.name) {
        // Branch predictor: capacity scales with BranchCount, throughput with FetchWidth.
        (Component::BpTage, "tage_table") => (4 * fetch, 64 * branch, 1),
        (Component::BpTage, "tage_meta") => (2 * fetch, 32 * branch, 1),
        (Component::BpBtb, "btb_data") => (40, 8 * branch, fetch / 4),
        (Component::BpBtb, "btb_tag") => (20, 8 * branch, fetch / 4),
        // Instruction cache: count scales with associativity (throughput pattern),
        // width with the fetch bytes (capacity pattern).
        (Component::ICacheTagArray, "itag") => (24, 64, v(CacheWay)),
        (Component::ICacheDataArray, "idata") => (64 * v(ICacheFetchBytes), 128, v(CacheWay)),
        // Data cache: banked for the memory issue width.
        (Component::DCacheTagArray, "dtag") => (24, 64, v(CacheWay)),
        (Component::DCacheDataArray, "ddata") => {
            (128, 64, v(CacheWay) * config.params.mem_issue_width())
        }
        // ROB payload: width scales with DecodeWidth, depth with RobEntry / DecodeWidth —
        // the paper's example of a position whose width/depth do NOT scale linearly with
        // a single parameter even though its capacity does.
        (Component::Rob, "rob_meta") => (40 * decode, v(RobEntry) / decode, 1),
        // Register files: capacity scales with the physical register counts.
        (Component::Regfile, "int_rf") => (64, v(IntPhyRegister), 1),
        (Component::Regfile, "fp_rf") => (65, v(FpPhyRegister), 1),
        // TLBs.
        (Component::ITlb, "itlb_array") => (48, config.params.itlb_entries(), 1),
        (Component::DTlb, "dtlb_array") => (56, v(DtlbEntry), 1),
        // MSHR payload.
        (Component::DCacheMshr, "mshr_table") => (96, 8 * v(MshrEntry), 1),
        // Load/store queues: banked by memory issue width.
        (Component::Lsu, "ldq_data") => (80, v(LdqStqEntry), config.params.mem_issue_width()),
        (Component::Lsu, "stq_data") => (96, v(LdqStqEntry), config.params.mem_issue_width()),
        // IFU structures. `ftq_meta` reproduces Table I of the paper exactly:
        // width = 30·FetchWidth, depth = 8·DecodeWidth, count = 1.
        (Component::Ifu, "ftq_ghist") => (16 * fetch, 4 * v(FetchBufferEntry), 1),
        (Component::Ifu, "ftq_meta") => (30 * fetch, 8 * decode, 1),
        (Component::Ifu, "fetch_buffer") => (48, v(FetchBufferEntry), fetch / 4),
        _ => unreachable!("no shape rule for SRAM position {position}"),
    }
}

/// Generates the SRAM blocks of every SRAM Position of one component.
pub fn blocks_for_component(component: Component, config: &CpuConfig) -> Vec<SramBlock> {
    sram_positions_for(component)
        .into_iter()
        .map(|pos| {
            let (width, depth, count) = block_shape(pos.id, config);
            assert!(
                width > 0 && depth > 0 && count > 0,
                "degenerate SRAM block for {}",
                pos.id
            );
            SramBlock {
                position: pos.id,
                width,
                depth,
                count,
                mask_sectors: pos.mask_sectors,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopower_config::{boom_configs, sram_positions};
    use proptest::prelude::*;

    #[test]
    fn table_i_example_is_reproduced_exactly() {
        // Table I of the paper: the IFU metadata table (`ftq_meta`).
        let cfgs = boom_configs();
        let ifu_meta = |cfg_idx: usize| {
            blocks_for_component(Component::Ifu, &cfgs[cfg_idx])
                .into_iter()
                .find(|b| b.position.name == "ftq_meta")
                .expect("ftq_meta exists")
        };
        let c1 = ifu_meta(0);
        assert_eq!((c1.width, c1.depth, c1.count), (120, 8, 1));
        let c15 = ifu_meta(14);
        assert_eq!((c15.width, c15.depth, c15.count), (240, 40, 1));
    }

    #[test]
    fn every_position_gets_exactly_one_block_spec_per_config() {
        for cfg in boom_configs() {
            let mut total = 0;
            for c in Component::ALL {
                total += blocks_for_component(c, &cfg).len();
            }
            assert_eq!(total, sram_positions().len());
        }
    }

    #[test]
    fn capacity_scaling_positions_scale_with_their_parameter() {
        let cfgs = boom_configs();
        // int_rf capacity is proportional to IntPhyRegister.
        let cap = |idx: usize| {
            blocks_for_component(Component::Regfile, &cfgs[idx])
                .iter()
                .find(|b| b.position.name == "int_rf")
                .unwrap()
                .bits() as f64
        };
        let ratio = cap(14) / cap(0);
        let param_ratio = cfgs[14].params.value(HwParam::IntPhyRegister) as f64
            / cfgs[0].params.value(HwParam::IntPhyRegister) as f64;
        assert!((ratio - param_ratio).abs() < 1e-9);
    }

    #[test]
    fn throughput_scaling_positions_scale_bank_count() {
        let cfgs = boom_configs();
        let banks =
            |idx: usize| blocks_for_component(Component::DCacheDataArray, &cfgs[idx])[0].count;
        // C1: 2 ways x 1 mem issue = 2 banks; C15: 8 ways x 2 mem issue = 16 banks.
        assert_eq!(banks(0), 2);
        assert_eq!(banks(14), 16);
    }

    #[test]
    fn rob_capacity_proportional_to_rob_entries() {
        let cfgs = boom_configs();
        let bits = |idx: usize| blocks_for_component(Component::Rob, &cfgs[idx])[0].bits() as f64;
        let r = |idx: usize| cfgs[idx].params.value(HwParam::RobEntry) as f64;
        // capacity / RobEntry is the same constant for every configuration.
        let k0 = bits(0) / r(0);
        for idx in 1..15 {
            assert!((bits(idx) / r(idx) - k0).abs() < 1e-9, "config {idx}");
        }
    }

    proptest! {
        /// Block shapes are always positive and deterministic across the design space.
        #[test]
        fn shapes_positive_everywhere(idx in 0usize..15) {
            let cfg = boom_configs()[idx];
            for c in Component::ALL {
                for b in blocks_for_component(c, &cfg) {
                    prop_assert!(b.width > 0 && b.depth > 0 && b.count > 0);
                    prop_assert_eq!(blocks_for_component(c, &cfg)
                        .iter()
                        .find(|x| x.position == b.position)
                        .copied()
                        .unwrap(), b);
                }
            }
        }
    }
}
