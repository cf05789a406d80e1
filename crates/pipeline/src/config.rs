//! Core timing configurations (Table 2 and §5.1 of the paper).

use camp_cache::HierarchyConfig;
use camp_isa::inst::{ElemType, Inst, InstClass, VOp};

/// Functional-unit kinds used for binding and busy-rate accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Scalar ALU (also executes branches).
    ScalarAlu,
    /// Vector simple ALU (adds, dups, zips, packs, extends).
    VAlu,
    /// Vector multiplier pipeline (mul/mla/mull/smmla, f32 FMA).
    VMul,
    /// The CAMP unit.
    Camp,
    /// Load port (scalar and vector loads).
    LoadPort,
    /// Store port (scalar and vector stores).
    StorePort,
}

/// Number of FU kinds (array sizing).
pub const NUM_FU_KINDS: usize = 6;

impl FuKind {
    /// Dense index for array-based bookkeeping.
    pub fn index(self) -> usize {
        match self {
            FuKind::ScalarAlu => 0,
            FuKind::VAlu => 1,
            FuKind::VMul => 2,
            FuKind::Camp => 3,
            FuKind::LoadPort => 4,
            FuKind::StorePort => 5,
        }
    }

    /// All kinds, in index order.
    pub fn all() -> [FuKind; NUM_FU_KINDS] {
        [
            FuKind::ScalarAlu,
            FuKind::VAlu,
            FuKind::VMul,
            FuKind::Camp,
            FuKind::LoadPort,
            FuKind::StorePort,
        ]
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            FuKind::ScalarAlu => "scalar",
            FuKind::VAlu => "valu",
            FuKind::VMul => "vmul",
            FuKind::Camp => "camp",
            FuKind::LoadPort => "load",
            FuKind::StorePort => "store",
        }
    }
}

/// Description of one FU pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuDesc {
    /// Number of identical units (at most 8; `Simulator::new` panics
    /// above).
    pub count: u32,
    /// Result latency in cycles.
    pub latency: u32,
    /// Initiation interval (cycles a unit stays busy per op).
    pub ii: u32,
}

/// Pipeline discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreKind {
    /// Single-issue-style in-order core with blocking misses
    /// (Sargantana-like edge RISC-V).
    InOrder,
    /// Superscalar out-of-order core (A64FX-like).
    OutOfOrder,
}

/// Full core + memory configuration.
#[derive(Debug, Clone, Copy)]
pub struct CoreConfig {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Clock frequency in GHz (GOPS accounting).
    pub freq_ghz: f64,
    /// Pipeline discipline.
    pub kind: CoreKind,
    /// Instructions dispatched per cycle.
    pub dispatch_width: u32,
    /// Reorder-window entries (OoO only; ignored in order).
    pub rob_size: u32,
    /// Scalar ALU pool.
    pub scalar_alu: FuDesc,
    /// Vector simple-ALU pool.
    pub valu: FuDesc,
    /// Vector multiplier pool.
    pub vmul: FuDesc,
    /// CAMP unit pool.
    pub camp: FuDesc,
    /// Load ports (at most 8, like a [`FuDesc::count`]).
    pub load_ports: u32,
    /// Store ports (at most 8).
    pub store_ports: u32,
    /// Beats per 512-bit vector memory access (1 = full-width bus,
    /// 4 = 128-bit edge path).
    pub vmem_beats: u32,
    /// Store-buffer entries.
    pub store_buffer: u32,
    /// Cycles between store-buffer drains to the cache.
    pub store_drain_interval: u32,
    /// Branch mispredict penalty in cycles.
    pub mispredict_penalty: u32,
    /// Whether a load miss blocks the pipeline until fill (edge core).
    pub blocking_misses: bool,
    /// Memory hierarchy.
    pub hierarchy: HierarchyConfig,
}

impl CoreConfig {
    /// The A64FX-like OoO SVE core of Table 2: 2.0 GHz, dispatch 4,
    /// 128-entry window, two vector pipes, two load ports, one store
    /// port, full-width (512-bit) L1 bus, CAMP unit with II = 1.
    pub fn a64fx() -> Self {
        CoreConfig {
            name: "a64fx-sve",
            freq_ghz: 2.0,
            kind: CoreKind::OutOfOrder,
            dispatch_width: 4,
            rob_size: 128,
            scalar_alu: FuDesc { count: 2, latency: 1, ii: 1 },
            valu: FuDesc { count: 2, latency: 4, ii: 1 },
            vmul: FuDesc { count: 2, latency: 6, ii: 1 },
            camp: FuDesc { count: 1, latency: 6, ii: 1 },
            load_ports: 2,
            store_ports: 1,
            vmem_beats: 1,
            store_buffer: 24,
            store_drain_interval: 1,
            mispredict_penalty: 7,
            blocking_misses: false,
            hierarchy: HierarchyConfig::a64fx(),
        }
    }

    /// The Sargantana-like edge RISC-V SoC of §5.1: 1 GHz, in-order,
    /// single-issue, 128-bit memory path (512-bit vector ops take 4
    /// beats), blocking misses, CAMP unit micro-sequenced over 4 beats.
    pub fn edge_riscv() -> Self {
        CoreConfig {
            name: "edge-riscv",
            freq_ghz: 1.0,
            kind: CoreKind::InOrder,
            dispatch_width: 1,
            rob_size: 1,
            scalar_alu: FuDesc { count: 1, latency: 1, ii: 1 },
            valu: FuDesc { count: 1, latency: 4, ii: 4 },
            vmul: FuDesc { count: 1, latency: 6, ii: 4 },
            camp: FuDesc { count: 1, latency: 8, ii: 4 },
            load_ports: 1,
            store_ports: 1,
            vmem_beats: 4,
            store_buffer: 4,
            store_drain_interval: 1,
            mispredict_penalty: 3,
            blocking_misses: true,
            hierarchy: HierarchyConfig::edge_riscv(),
        }
    }

    /// FU pool for a kind.
    pub fn fu(&self, kind: FuKind) -> FuDesc {
        match kind {
            FuKind::ScalarAlu => self.scalar_alu,
            FuKind::VAlu => self.valu,
            FuKind::VMul => self.vmul,
            FuKind::Camp => self.camp,
            FuKind::LoadPort => FuDesc { count: self.load_ports, latency: 0, ii: self.vmem_beats },
            FuKind::StorePort => {
                FuDesc { count: self.store_ports, latency: 1, ii: self.vmem_beats }
            }
        }
    }

    /// Bind an instruction to its FU kind.
    pub fn fu_kind(&self, inst: &Inst) -> FuKind {
        match inst.class() {
            InstClass::ScalarAlu | InstClass::Branch => FuKind::ScalarAlu,
            InstClass::VAlu => FuKind::VAlu,
            InstClass::VMul => FuKind::VMul,
            InstClass::Camp => FuKind::Camp,
            InstClass::VLoad | InstClass::VStore | InstClass::ScalarMem => {
                if matches!(inst, Inst::StoreS { .. } | Inst::VStore { .. }) {
                    FuKind::StorePort
                } else {
                    FuKind::LoadPort
                }
            }
        }
    }

    /// Execution latency for non-memory instructions (f32 multiply-class
    /// ops run a longer FMA pipeline than integer ops).
    pub fn exec_latency(&self, inst: &Inst) -> u32 {
        match inst {
            Inst::VBin { op: VOp::Mla | VOp::Mul, ty: ElemType::F32, .. } => self.vmul.latency + 3,
            _ => {
                let kind = self.fu_kind(inst);
                self.fu(kind).latency
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_isa::reg::{S, V};

    #[test]
    fn fu_kind_binding() {
        let c = CoreConfig::a64fx();
        assert_eq!(c.fu_kind(&Inst::Nop), FuKind::ScalarAlu);
        assert_eq!(c.fu_kind(&Inst::VLoad { vd: V(0), base: S(1), offset: 0 }), FuKind::LoadPort);
        assert_eq!(c.fu_kind(&Inst::VStore { vs: V(0), base: S(1), offset: 0 }), FuKind::StorePort);
        assert_eq!(
            c.fu_kind(&Inst::StoreS { rs: S(1), base: S(2), offset: 0, width: 4 }),
            FuKind::StorePort
        );
        assert_eq!(
            c.fu_kind(&Inst::LoadS { rd: S(1), base: S(2), offset: 0, width: 4 }),
            FuKind::LoadPort
        );
    }

    #[test]
    fn fp_fma_is_slower_than_int_mla() {
        let c = CoreConfig::a64fx();
        let fma = Inst::VBin { op: VOp::Mla, ty: ElemType::F32, vd: V(0), vs1: V(1), vs2: V(2) };
        let mla = Inst::VBin { op: VOp::Mla, ty: ElemType::I32, vd: V(0), vs1: V(1), vs2: V(2) };
        assert!(c.exec_latency(&fma) > c.exec_latency(&mla));
    }

    #[test]
    fn presets_are_distinct() {
        let a = CoreConfig::a64fx();
        let e = CoreConfig::edge_riscv();
        assert_eq!(a.kind, CoreKind::OutOfOrder);
        assert_eq!(e.kind, CoreKind::InOrder);
        assert!(a.dispatch_width > e.dispatch_width);
        assert!(e.vmem_beats > a.vmem_beats);
    }

    #[test]
    fn fu_index_roundtrip() {
        for (i, k) in FuKind::all().iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(!k.name().is_empty());
        }
    }
}
