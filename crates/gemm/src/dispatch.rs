//! Kernel-dispatch layer: one descriptor per GeMM implementation.
//!
//! Every method of the §5.3 experiment matrix is described by a
//! [`MicroKernel`] — its register-tile geometry, element/accumulator
//! types, packing programs and macro-kernel builder — so the blocked
//! driver ([`crate::driver`]) is a single generic skeleton that never
//! matches on the method. Adding an 8th kernel means implementing this
//! trait (plus its packing/macro programs in [`crate::pack`] /
//! [`crate::kernels`]) and listing it in [`Method::all`]; the driver,
//! verification, staging and blocking logic pick the new kernel up
//! unchanged. See the README's "kernel dispatch layer" section for a
//! walkthrough.
//!
//! The host-speed engine has the same seam one layer down: a
//! [`HostKernel`] is the native-silicon analogue of a [`MicroKernel`]
//! descriptor — a table of micro-kernel function pointers per tier
//! (scalar / AVX2 / AVX-512 / NEON), selected once at engine construction from a
//! [`CpuFeatures`] runtime probe instead of a `Method` flag. Both
//! descriptors feed the same blocked-loop skeleton in
//! [`crate::loops`]; see `docs/HOST_KERNELS.md` for the dispatch
//! story. The types are re-exported here so the two kernel seams read
//! side by side.

pub use crate::host::{CpuFeatures, HostKernel, HostTier};

use crate::kernels;
use crate::pack;
use camp_isa::inst::{CampMode, Program};
use camp_isa::reg::S;
use camp_pipeline::{CoreKind, Simulator};

/// Cycle budget for any single simulated program invocation.
pub(crate) const RUN_BUDGET: u64 = 4_000_000_000;

/// Storage type of the A/B operands in (simulated) main memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemKind {
    /// One byte per element.
    I8,
    /// Two elements per byte (4-bit data stored nibble-packed).
    I4Nibble,
    /// Four bytes per element, integer.
    I32,
    /// Four bytes per element, float.
    F32,
}

impl ElemKind {
    /// Bytes occupied by `cols` consecutive row elements.
    pub fn row_bytes(self, cols: usize) -> usize {
        match self {
            ElemKind::I8 => cols,
            ElemKind::I4Nibble => cols / 2,
            ElemKind::I32 | ElemKind::F32 => cols * 4,
        }
    }

    /// `row_bytes` over a u64 element offset (for address arithmetic).
    pub fn col_offset(self, col: u64) -> u64 {
        match self {
            ElemKind::I8 => col,
            ElemKind::I4Nibble => col / 2,
            ElemKind::I32 | ElemKind::F32 => col * 4,
        }
    }
}

/// Accumulator/result type in C, selecting the verification reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccKind {
    /// i32 accumulation (wrapping) — checked against `gemm_i32_ref`.
    I32,
    /// Wrapping i8 accumulation (the overflow-unsafe baseline) —
    /// checked against `gemm_i8_wrapping_ref`.
    I8Wrapping,
    /// f32 accumulation — checked against `gemm_f32_ref`.
    F32,
}

impl AccKind {
    /// Bytes per element of C.
    pub fn c_elem_bytes(self) -> usize {
        match self {
            AccKind::I8Wrapping => 1,
            AccKind::I32 | AccKind::F32 => 4,
        }
    }
}

/// Register-tile geometry and data types of one micro-kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelGeometry {
    /// Register-tile rows.
    pub mr: usize,
    /// Register-tile columns.
    pub nr: usize,
    /// k values consumed per micro-kernel primitive (one `camp`, one
    /// MLA column, one `smmla` octet, ...).
    pub k_step: usize,
    /// k values consumed per macro-kernel loop iteration (k-step ×
    /// unroll factor); k is padded to a multiple of this.
    pub k_unit: usize,
    /// A/B storage type.
    pub elem: ElemKind,
    /// Accumulator type.
    pub acc: AccKind,
}

impl KernelGeometry {
    /// Packed-A panel bytes for a kc-deep block (mR rows × kc columns).
    pub fn a_panel_bytes(&self, kc: usize) -> usize {
        self.elem.row_bytes(kc) * self.mr
    }

    /// Packed-B panel bytes for a kc-deep block (kc rows × nR columns).
    pub fn b_panel_bytes(&self, kc: usize) -> usize {
        self.elem.row_bytes(self.nr) * kc
    }

    /// Packed-A panel bytes contributed by one k-column.
    pub fn a_panel_bytes_per_kcol(&self) -> usize {
        match self.elem {
            ElemKind::I4Nibble => self.mr / 2,
            _ => self.elem.row_bytes(1) * self.mr,
        }
    }
}

/// The A-block packing recipe of a kernel: a scalar gather program
/// (covering any k tail) and an optional vectorized bulk program, as
/// optimized BLAS packs use.
pub struct PackAPlan {
    /// Scalar gather packer; row pointers in `x20..`, destination
    /// `x11`, iteration count `x12`.
    pub scalar: Program,
    /// k-columns consumed per scalar-program iteration.
    pub scalar_cols_per_iter: usize,
    /// Vectorized bulk packer and the k-columns it consumes per chunk.
    pub vector: Option<(Program, usize)>,
}

/// Addresses and block coordinates handed to a kernel's B-block packer.
#[derive(Debug, Clone, Copy)]
pub struct PackBCtx {
    /// Base address of B in simulated memory.
    pub b_base: u64,
    /// Base address of the packed-B buffer.
    pub bpack: u64,
    /// B row stride in bytes.
    pub ldb: u64,
    /// First column of the block.
    pub jc: usize,
    /// Block width in elements.
    pub ncb: usize,
    /// First k-row of the block.
    pub pc: usize,
    /// Block depth in k-values.
    pub kcb: usize,
}

/// A B-block packing routine with its programs pre-assembled; built
/// once per GeMM by [`MicroKernel::pack_b_packer`].
pub type BPacker = Box<dyn Fn(&mut Simulator, &PackBCtx)>;

/// A GeMM implementation, described declaratively: the blocked driver
/// consumes this trait and nothing else.
pub trait MicroKernel: Sync {
    /// Display name matching the paper's legends.
    fn name(&self) -> &'static str;

    /// Register-tile geometry and data types.
    fn geometry(&self) -> KernelGeometry;

    /// Build the macro-kernel program (GotoBLAS loops 1–2 plus the
    /// micro-kernel) for this method.
    fn macro_program(&self) -> Program;

    /// Build the A-block packing recipe.
    fn pack_a_plan(&self) -> PackAPlan;

    /// Build this kernel's B-block packer. Called once per GeMM so the
    /// packing programs are assembled once; the returned closure runs
    /// them for each (jc, pc) block described by a [`PackBCtx`].
    fn pack_b_packer(&self) -> BPacker;

    /// Default kc blocking for a core kind: kc is sized so the packed
    /// A and B panels fit in L1 (Fig. 3's constraint). Byte-sized
    /// operands allow much deeper panels than f32; the CAMP
    /// micro-kernel in particular accumulates the whole k extent in the
    /// auxiliary register whenever it fits (Fig. 9).
    fn default_kc(&self, kind: CoreKind) -> usize;
}

// ---- shared B-pack shapes -------------------------------------------------

/// Row-copy B pack: panels whose source rows are contiguous; one
/// program run per nR-column panel (`x10` source, `x11` destination,
/// `x12` k-rows, `x13` row stride).
fn pack_b_row_copy(sim: &mut Simulator, ctx: &PackBCtx, geo: &KernelGeometry, prog: &Program) {
    let panel_bytes = geo.b_panel_bytes(ctx.kcb) as u64;
    for p in 0..ctx.ncb / geo.nr {
        let col = (ctx.jc + p * geo.nr) as u64;
        let mm = sim.machine_mut();
        mm.set_x(S(10), ctx.b_base + ctx.pc as u64 * ctx.ldb + geo.elem.col_offset(col));
        mm.set_x(S(11), ctx.bpack + p as u64 * panel_bytes);
        mm.set_x(S(12), ctx.kcb as u64);
        mm.set_x(S(13), ctx.ldb);
        sim.run(prog, RUN_BUDGET).expect("pack B");
    }
}

/// Gather B pack: `rows` parallel source-row pointers in `x20..`,
/// advancing by `x14 = rows·ldb`; `x12` counts row groups
/// (`kcb / rows`). Used by the narrow CAMP panels and the MMLA octet
/// transpose.
fn pack_b_gather_rows(
    sim: &mut Simulator,
    ctx: &PackBCtx,
    geo: &KernelGeometry,
    prog: &Program,
    rows: usize,
) {
    let panel_bytes = geo.b_panel_bytes(ctx.kcb) as u64;
    for p in 0..ctx.ncb / geo.nr {
        let col = (ctx.jc + p * geo.nr) as u64;
        let mm = sim.machine_mut();
        for t in 0..rows as u8 {
            mm.set_x(
                S(20 + t),
                ctx.b_base + (ctx.pc as u64 + t as u64) * ctx.ldb + geo.elem.col_offset(col),
            );
        }
        mm.set_x(S(11), ctx.bpack + p as u64 * panel_bytes);
        mm.set_x(S(12), (ctx.kcb / rows) as u64);
        mm.set_x(S(14), rows as u64 * ctx.ldb);
        sim.run(prog, RUN_BUDGET).expect("pack B");
    }
}

// ---- the seven kernels ----------------------------------------------------

/// CAMP with 8-bit operands (`camp.s8`).
pub struct Camp8Kernel;

impl MicroKernel for Camp8Kernel {
    fn name(&self) -> &'static str {
        "CAMP-8bit"
    }

    fn geometry(&self) -> KernelGeometry {
        KernelGeometry {
            mr: 4,
            nr: 4,
            k_step: 16,
            k_unit: 128, // 16 × unroll 8
            elem: ElemKind::I8,
            acc: AccKind::I32,
        }
    }

    fn macro_program(&self) -> Program {
        kernels::macro_camp(CampMode::I8)
    }

    fn pack_a_plan(&self) -> PackAPlan {
        PackAPlan {
            scalar: pack::pack_a_rows(4, 1),
            scalar_cols_per_iter: 1,
            vector: Some((pack::pack_a_transpose4(1), 64)),
        }
    }

    fn pack_b_packer(&self) -> BPacker {
        let geo = self.geometry();
        let prog = pack::pack_b_rows4(4);
        Box::new(move |sim, ctx| pack_b_gather_rows(sim, ctx, &geo, &prog, 4))
    }

    fn default_kc(&self, kind: CoreKind) -> usize {
        match kind {
            CoreKind::OutOfOrder => 4096,
            CoreKind::InOrder => 2048,
        }
    }
}

/// CAMP with 4-bit operands (`camp.s4`), nibble-packed in memory.
pub struct Camp4Kernel;

impl MicroKernel for Camp4Kernel {
    fn name(&self) -> &'static str {
        "CAMP-4bit"
    }

    fn geometry(&self) -> KernelGeometry {
        KernelGeometry {
            mr: 4,
            nr: 4,
            k_step: 32,
            k_unit: 128, // 32 × unroll 4
            elem: ElemKind::I4Nibble,
            acc: AccKind::I32,
        }
    }

    fn macro_program(&self) -> Program {
        kernels::macro_camp(CampMode::I4)
    }

    fn pack_a_plan(&self) -> PackAPlan {
        PackAPlan {
            scalar: pack::pack_a_camp4(),
            scalar_cols_per_iter: 2,
            vector: Some((pack::pack_a_camp4_vec(), 128)),
        }
    }

    fn pack_b_packer(&self) -> BPacker {
        let geo = self.geometry();
        let prog = pack::pack_b_rows4(2);
        Box::new(move |sim, ctx| pack_b_gather_rows(sim, ctx, &geo, &prog, 4))
    }

    fn default_kc(&self, kind: CoreKind) -> usize {
        match kind {
            CoreKind::OutOfOrder => 4096,
            CoreKind::InOrder => 2048,
        }
    }
}

/// Hand-vectorized 32-bit integer ulmBLAS (also the edge BLIS-int32
/// baseline).
pub struct HandvInt32Kernel;

impl MicroKernel for HandvInt32Kernel {
    fn name(&self) -> &'static str {
        "handv-int32"
    }

    fn geometry(&self) -> KernelGeometry {
        KernelGeometry {
            mr: 4,
            nr: 16,
            k_step: 1,
            k_unit: 2,
            elem: ElemKind::I32,
            acc: AccKind::I32,
        }
    }

    fn macro_program(&self) -> Program {
        kernels::macro_handv_int32()
    }

    fn pack_a_plan(&self) -> PackAPlan {
        PackAPlan {
            scalar: pack::pack_a_rows(4, 4),
            scalar_cols_per_iter: 1,
            vector: Some((pack::pack_a_transpose4(4), 16)),
        }
    }

    fn pack_b_packer(&self) -> BPacker {
        let geo = self.geometry();
        let prog = pack::pack_b_rows(64);
        Box::new(move |sim, ctx| pack_b_row_copy(sim, ctx, &geo, &prog))
    }

    fn default_kc(&self, kind: CoreKind) -> usize {
        match kind {
            CoreKind::OutOfOrder => 256,
            CoreKind::InOrder => 128,
        }
    }
}

/// Hand-vectorized 8-bit integer kernel with wrapping 8-bit
/// accumulators (overflow-unsafe, as in the paper).
pub struct HandvInt8Kernel;

impl MicroKernel for HandvInt8Kernel {
    fn name(&self) -> &'static str {
        "handv-int8"
    }

    fn geometry(&self) -> KernelGeometry {
        KernelGeometry {
            mr: 4,
            nr: 64,
            k_step: 1,
            k_unit: 2,
            elem: ElemKind::I8,
            acc: AccKind::I8Wrapping,
        }
    }

    fn macro_program(&self) -> Program {
        kernels::macro_handv_int8()
    }

    fn pack_a_plan(&self) -> PackAPlan {
        PackAPlan {
            scalar: pack::pack_a_rows(4, 1),
            scalar_cols_per_iter: 1,
            vector: Some((pack::pack_a_transpose4(1), 64)),
        }
    }

    fn pack_b_packer(&self) -> BPacker {
        let geo = self.geometry();
        let prog = pack::pack_b_rows(64);
        Box::new(move |sim, ctx| pack_b_row_copy(sim, ctx, &geo, &prog))
    }

    fn default_kc(&self, kind: CoreKind) -> usize {
        match kind {
            CoreKind::OutOfOrder => 512,
            CoreKind::InOrder => 256,
        }
    }
}

/// gemmlowp-like widening int8 kernel (k-pair interleaved panels).
pub struct GemmlowpKernel;

impl MicroKernel for GemmlowpKernel {
    fn name(&self) -> &'static str {
        "gemmlowp"
    }

    fn geometry(&self) -> KernelGeometry {
        KernelGeometry {
            mr: 4,
            nr: 32,
            k_step: 2,
            k_unit: 2,
            elem: ElemKind::I8,
            acc: AccKind::I32,
        }
    }

    fn macro_program(&self) -> Program {
        kernels::macro_gemmlowp()
    }

    fn pack_a_plan(&self) -> PackAPlan {
        PackAPlan {
            scalar: pack::pack_a_gemmlowp(),
            scalar_cols_per_iter: 2,
            vector: Some((pack::pack_a_transpose4(2), 64)),
        }
    }

    fn pack_b_packer(&self) -> BPacker {
        // The vectorized pair-interleave covers two 32-column panels per
        // pass; a lone trailing panel falls back to the scalar packer.
        let geo = self.geometry();
        let vec_prog = pack::pack_b_gemmlowp_vec();
        let scalar_prog = pack::pack_b_gemmlowp(32);
        Box::new(move |sim, ctx| {
            let panel_bytes = geo.b_panel_bytes(ctx.kcb) as u64;
            let panels = ctx.ncb / geo.nr;
            let mut p = 0;
            while p < panels {
                let col = (ctx.jc + p * geo.nr) as u64;
                let dst = ctx.bpack + p as u64 * panel_bytes;
                let mm = sim.machine_mut();
                mm.set_x(S(20), ctx.b_base + ctx.pc as u64 * ctx.ldb + col);
                mm.set_x(S(21), ctx.b_base + (ctx.pc as u64 + 1) * ctx.ldb + col);
                mm.set_x(S(11), dst);
                mm.set_x(S(12), (ctx.kcb / 2) as u64);
                mm.set_x(S(14), 2 * ctx.ldb);
                if p + 1 < panels {
                    mm.set_x(S(15), dst + panel_bytes);
                    sim.run(&vec_prog, RUN_BUDGET).expect("pack B (vector)");
                    p += 2;
                } else {
                    sim.run(&scalar_prog, RUN_BUDGET).expect("pack B");
                    p += 1;
                }
            }
        })
    }

    fn default_kc(&self, kind: CoreKind) -> usize {
        match kind {
            CoreKind::OutOfOrder => 512,
            CoreKind::InOrder => 256,
        }
    }
}

/// OpenBLAS-SGEMM-like f32 kernel (the normalization baseline).
pub struct OpenblasF32Kernel;

impl MicroKernel for OpenblasF32Kernel {
    fn name(&self) -> &'static str {
        "OpenBLAS"
    }

    fn geometry(&self) -> KernelGeometry {
        KernelGeometry {
            mr: 8,
            nr: 32,
            k_step: 1,
            k_unit: 1,
            elem: ElemKind::F32,
            acc: AccKind::F32,
        }
    }

    fn macro_program(&self) -> Program {
        kernels::macro_openblas_f32()
    }

    fn pack_a_plan(&self) -> PackAPlan {
        PackAPlan {
            scalar: pack::pack_a_rows(8, 4),
            scalar_cols_per_iter: 1,
            vector: Some((pack::pack_a_transpose8_words(), 16)),
        }
    }

    fn pack_b_packer(&self) -> BPacker {
        let geo = self.geometry();
        let prog = pack::pack_b_rows(128);
        Box::new(move |sim, ctx| pack_b_row_copy(sim, ctx, &geo, &prog))
    }

    fn default_kc(&self, kind: CoreKind) -> usize {
        match kind {
            CoreKind::OutOfOrder => 256,
            CoreKind::InOrder => 128,
        }
    }
}

/// Arm FEAT_I8MM `smmla` kernel (§7.2 comparison).
pub struct MmlaKernel;

impl MicroKernel for MmlaKernel {
    fn name(&self) -> &'static str {
        "MMLA"
    }

    fn geometry(&self) -> KernelGeometry {
        KernelGeometry { mr: 8, nr: 8, k_step: 8, k_unit: 8, elem: ElemKind::I8, acc: AccKind::I32 }
    }

    fn macro_program(&self) -> Program {
        kernels::macro_mmla()
    }

    fn pack_a_plan(&self) -> PackAPlan {
        PackAPlan { scalar: pack::pack_a_rows(8, 8), scalar_cols_per_iter: 8, vector: None }
    }

    fn pack_b_packer(&self) -> BPacker {
        let geo = self.geometry();
        let prog = pack::pack_b_mmla();
        Box::new(move |sim, ctx| pack_b_gather_rows(sim, ctx, &geo, &prog, 8))
    }

    fn default_kc(&self, kind: CoreKind) -> usize {
        match kind {
            CoreKind::OutOfOrder => 512,
            CoreKind::InOrder => 256,
        }
    }
}

// ---- the method enum ------------------------------------------------------

static CAMP8: Camp8Kernel = Camp8Kernel;
static CAMP4: Camp4Kernel = Camp4Kernel;
static HANDV_INT32: HandvInt32Kernel = HandvInt32Kernel;
static HANDV_INT8: HandvInt8Kernel = HandvInt8Kernel;
static GEMMLOWP: GemmlowpKernel = GemmlowpKernel;
static OPENBLAS_F32: OpenblasF32Kernel = OpenblasF32Kernel;
static MMLA: MmlaKernel = MmlaKernel;

/// GeMM implementation under test (the §5.3 experiment matrix). A thin
/// enum: every kernel-specific fact lives in the [`MicroKernel`] the
/// method resolves to via [`Method::dispatcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// CAMP with 8-bit operands (`camp.s8`).
    Camp8,
    /// CAMP with 4-bit operands (`camp.s4`).
    Camp4,
    /// Hand-vectorized 32-bit integer ulmBLAS (also the edge BLIS-int32
    /// baseline).
    HandvInt32,
    /// Hand-vectorized 8-bit integer kernel with wrapping 8-bit
    /// accumulators (overflow-unsafe, as in the paper).
    HandvInt8,
    /// gemmlowp-like widening int8 kernel.
    Gemmlowp,
    /// OpenBLAS-SGEMM-like f32 kernel (the normalization baseline).
    OpenblasF32,
    /// Arm FEAT_I8MM `smmla` kernel (§7.2 comparison).
    Mmla,
}

impl Method {
    /// All methods, CAMP first.
    pub fn all() -> [Method; 7] {
        [
            Method::Camp8,
            Method::Camp4,
            Method::HandvInt32,
            Method::HandvInt8,
            Method::Gemmlowp,
            Method::OpenblasF32,
            Method::Mmla,
        ]
    }

    /// The camp method a host-engine [`crate::weights::DType`] runs
    /// under — the mapping `CampBackend::execute_batch` applies per
    /// request, mirrored by the simulated batch driver.
    pub fn for_dtype(dtype: crate::weights::DType) -> Method {
        match dtype {
            crate::weights::DType::I8 => Method::Camp8,
            crate::weights::DType::I4 => Method::Camp4,
        }
    }

    /// Resolve to the kernel descriptor the driver consumes.
    pub fn dispatcher(self) -> &'static dyn MicroKernel {
        match self {
            Method::Camp8 => &CAMP8,
            Method::Camp4 => &CAMP4,
            Method::HandvInt32 => &HANDV_INT32,
            Method::HandvInt8 => &HANDV_INT8,
            Method::Gemmlowp => &GEMMLOWP,
            Method::OpenblasF32 => &OPENBLAS_F32,
            Method::Mmla => &MMLA,
        }
    }

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        self.dispatcher().name()
    }

    /// Micro-kernel register-tile rows.
    pub fn mr(self) -> usize {
        self.dispatcher().geometry().mr
    }

    /// Micro-kernel register-tile columns.
    pub fn nr(self) -> usize {
        self.dispatcher().geometry().nr
    }

    /// k values consumed per micro-kernel primitive.
    pub fn k_step(self) -> usize {
        self.dispatcher().geometry().k_step
    }

    /// k values consumed per macro-kernel loop iteration.
    pub fn k_unit(self) -> usize {
        self.dispatcher().geometry().k_unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_the_paper_table() {
        // the §5.3 table in the crate docs
        let geos: Vec<(Method, usize, usize, usize)> =
            Method::all().into_iter().map(|m| (m, m.mr(), m.nr(), m.k_step())).collect();
        assert_eq!(
            geos,
            vec![
                (Method::Camp8, 4, 4, 16),
                (Method::Camp4, 4, 4, 32),
                (Method::HandvInt32, 4, 16, 1),
                (Method::HandvInt8, 4, 64, 1),
                (Method::Gemmlowp, 4, 32, 2),
                (Method::OpenblasF32, 8, 32, 1),
                (Method::Mmla, 8, 8, 8),
            ]
        );
    }

    #[test]
    fn panel_bytes_match_layout_formulas() {
        for m in Method::all() {
            let geo = m.dispatcher().geometry();
            let kc = 256;
            let (a_expect, b_expect) = match m {
                Method::Camp8 => (4 * kc, 4 * kc),
                Method::Camp4 => (2 * kc, 2 * kc),
                Method::HandvInt32 => (16 * kc, 64 * kc),
                Method::HandvInt8 => (4 * kc, 64 * kc),
                Method::Gemmlowp => (4 * kc, 32 * kc),
                Method::OpenblasF32 => (32 * kc, 128 * kc),
                Method::Mmla => (8 * kc, 8 * kc),
            };
            assert_eq!(geo.a_panel_bytes(kc), a_expect, "{} A panel", m.name());
            assert_eq!(geo.b_panel_bytes(kc), b_expect, "{} B panel", m.name());
        }
    }

    #[test]
    fn k_unit_is_a_multiple_of_k_step() {
        for m in Method::all() {
            let geo = m.dispatcher().geometry();
            assert_eq!(geo.k_unit % geo.k_step, 0, "{}", m.name());
        }
    }

    #[test]
    fn all_macro_programs_assemble() {
        for m in Method::all() {
            let p = m.dispatcher().macro_program();
            assert!(!p.insts().is_empty(), "{}", m.name());
        }
    }

    #[test]
    fn pack_plans_cover_any_tail() {
        // the scalar packer must be able to finish what the vector
        // packer leaves: its per-iteration column count divides both the
        // vector chunk and the k-unit
        for m in Method::all() {
            let plan = m.dispatcher().pack_a_plan();
            let geo = m.dispatcher().geometry();
            assert_eq!(geo.k_unit % plan.scalar_cols_per_iter, 0, "{}", m.name());
            if let Some((_, chunk)) = plan.vector {
                assert_eq!(chunk % plan.scalar_cols_per_iter, 0, "{}", m.name());
            }
        }
    }
}
