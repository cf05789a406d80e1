//! The §5.3 experiment matrix: one [`Method`] per GeMM implementation,
//! and every per-method fact the simulated driver ([`crate::driver`])
//! needs as a `match` on it — register-tile geometry and data types
//! ([`Method::geometry`]), default kc ([`Method::default_kc`]) and the
//! simulated programs that pack and multiply ([`Method::programs`]).
//!
//! The driver itself never matches on the method. Adding an 8th kernel
//! means adding a variant, filling in the arms the compiler flags (plus
//! its packing/macro programs in [`crate::pack`] / [`crate::kernels`])
//! and listing it in [`Method::all`]; staging, blocking, the unit
//! decomposition and verification pick the new kernel up unchanged. See
//! the README's "The simulated kernel table" section for a walkthrough.

use crate::kernels;
use crate::pack;
use camp_isa::inst::{CampMode, Program};
use camp_isa::machine::{sext_nibbles, CampTile};
use camp_isa::reg::S;
use camp_pipeline::{CoreKind, Simulator};

/// Cycle budget for any single simulated program invocation.
pub(crate) const RUN_BUDGET: u64 = 4_000_000_000;

/// Run `prog` on `sim` through the timing model when `timed`, otherwise
/// on the functional machine alone: the same registers and memory, but
/// no cycles, cache traffic or statistics.
///
/// # Panics
/// Panics, naming `what`, if the machine faults.
pub(crate) fn run_program(sim: &mut Simulator, prog: &Program, timed: bool, what: &str) {
    if timed {
        sim.run(prog, RUN_BUDGET)
    } else {
        sim.machine_mut().run(prog, RUN_BUDGET).map(drop)
    }
    .expect(what)
}

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

/// The B-block packing recipe of a kernel, one variant per packing
/// shape, its programs assembled.
pub enum PackB {
    /// Panels whose source rows are contiguous: one program run per
    /// nR-column panel (`x10` source, `x11` destination, `x12` k-rows,
    /// `x13` row stride).
    RowCopy(Program),
    /// `rows` parallel source-row pointers in `x20..`, advancing by
    /// `x14 = rows·ldb`; `x12` counts row groups (`kcb / rows`). The
    /// narrow CAMP panels (4 rows) and the MMLA octet transpose (8).
    GatherRows {
        /// The gather program.
        prog: Program,
        /// Source rows read per group.
        rows: usize,
    },
    /// gemmlowp's k-pair interleave: the vectorized program covers two
    /// panels per pass (second destination in `x15`); a lone trailing
    /// panel falls back to the scalar one.
    PairInterleave {
        /// Two-panel vectorized program.
        vector: Program,
        /// One-panel scalar program.
        tail: Program,
    },
}

impl PackB {
    /// Pack the (jc, pc) block `ctx` describes into `ctx.bpack`, one
    /// `geo.b_panel_bytes(kcb)` panel per `geo.nr` columns: through the
    /// timing model when `timed`, otherwise on the functional machine
    /// alone — the same registers and packed bytes, but no cycles, cache
    /// traffic or statistics.
    pub fn run(&self, sim: &mut Simulator, ctx: &PackBCtx, geo: &KernelGeometry, timed: bool) {
        let exec = |sim: &mut Simulator, prog: &Program| run_program(sim, prog, timed, "pack B");
        let panel_bytes = geo.b_panel_bytes(ctx.kcb) as u64;
        let panels = ctx.ncb / geo.nr;
        // address of k-row `pc + r` at the first column of panel `p`
        let src = |r: usize, p: usize| {
            ctx.b_base
                + (ctx.pc + r) as u64 * ctx.ldb
                + geo.elem.col_offset((ctx.jc + p * geo.nr) as u64)
        };
        match self {
            PackB::RowCopy(prog) => {
                for p in 0..panels {
                    let mm = sim.machine_mut();
                    mm.set_x(S(10), src(0, p));
                    mm.set_x(S(11), ctx.bpack + p as u64 * panel_bytes);
                    mm.set_x(S(12), ctx.kcb as u64);
                    mm.set_x(S(13), ctx.ldb);
                    exec(sim, prog);
                }
            }
            PackB::GatherRows { prog, rows } => {
                for p in 0..panels {
                    let mm = sim.machine_mut();
                    for t in 0..*rows {
                        mm.set_x(S(20 + t as u8), src(t, p));
                    }
                    mm.set_x(S(11), ctx.bpack + p as u64 * panel_bytes);
                    mm.set_x(S(12), (ctx.kcb / rows) as u64);
                    mm.set_x(S(14), *rows as u64 * ctx.ldb);
                    exec(sim, prog);
                }
            }
            PackB::PairInterleave { vector, tail } => {
                let mut p = 0;
                while p < panels {
                    let dst = ctx.bpack + p as u64 * panel_bytes;
                    let mm = sim.machine_mut();
                    mm.set_x(S(20), src(0, p));
                    mm.set_x(S(21), src(1, p));
                    mm.set_x(S(11), dst);
                    mm.set_x(S(12), (ctx.kcb / 2) as u64);
                    mm.set_x(S(14), 2 * ctx.ldb);
                    if p + 1 < panels {
                        mm.set_x(S(15), dst + panel_bytes);
                        exec(sim, vector);
                        p += 2;
                    } else {
                        exec(sim, tail);
                        p += 1;
                    }
                }
            }
        }
    }
}

/// A method's simulated programs, assembled by [`Method::programs`]
/// once per `SimSession` and shared by all of its problems' block
/// units.
pub struct Programs {
    /// The macro-kernel: GotoBLAS loops 1–2 plus the micro-kernel.
    pub macro_kernel: Program,
    /// The A-block packing recipe.
    pub pack_a: PackAPlan,
    /// The B-block packing recipe.
    pub pack_b: PackB,
}

/// The CAMP macro-kernel computed on the host, for a count-memo hit:
/// the machine has packed the unit's B panels and a row strip's A
/// panels, and one [`CampTile`] call per (A panel, B panel) pair covers
/// the whole unit depth — the sum of the program's 16- or 32-deep
/// `camp`s, since wrapping i32 adds commute. Holds the tile and the
/// panels read out of machine memory as i8 (i4 nibbles sign-extended by
/// [`sext_nibbles`]), in buffers kept from unit to unit.
pub(crate) struct HostMacroKernel {
    tile: CampTile,
    /// One unit's packed B panels.
    b: Vec<i8>,
    /// One row strip's packed A panels.
    a: Vec<i8>,
}

impl HostMacroKernel {
    /// A host macro-kernel multiplying with `tile`.
    pub(crate) fn new(tile: CampTile) -> Self {
        HostMacroKernel { tile, b: Vec::new(), a: Vec::new() }
    }

    /// Read the B panels `method`'s pack B wrote, `packed` in machine
    /// memory.
    ///
    /// # Panics
    /// Panics unless `method` is a camp kernel: only their units can
    /// hit the count memo (every baseline runs on a fresh session).
    pub(crate) fn load_b(&mut self, method: Method, packed: &[u8]) {
        widen(method, packed, &mut self.b);
    }

    /// Read a row strip's A panels like [`HostMacroKernel::load_b`].
    pub(crate) fn load_a(&mut self, method: Method, packed: &[u8]) {
        widen(method, packed, &mut self.a);
    }

    /// Add the loaded A panels times the loaded B panels, each `kcb`
    /// deep, into `c` (row stride `ldc`, element (0, 0) the strip's first
    /// row at the unit's first column), wrapping: what the macro-kernel
    /// program adds into the unit's zeroed C block.
    pub(crate) fn multiply(&self, kcb: usize, c: &mut [i32], ldc: usize) {
        let depth = 4 * kcb;
        for (p, pa) in self.a.chunks_exact(depth).enumerate() {
            for (q, pb) in self.b.chunks_exact(depth).enumerate() {
                let mut acc = [[0; 4]; 4];
                (self.tile)(pa, pb, &mut acc);
                for (i, row) in acc.iter().enumerate() {
                    let dst = &mut c[(p * 4 + i) * ldc + q * 4..][..4];
                    for (d, &v) in dst.iter_mut().zip(row) {
                        *d = d.wrapping_add(v);
                    }
                }
            }
        }
    }
}

/// `packed` as the i8 values a camp kernel's `camp` reads from it, into
/// `out` (its allocation kept).
fn widen(method: Method, packed: &[u8], out: &mut Vec<i8>) {
    out.clear();
    match method {
        Method::Camp8 => out.extend(packed.iter().map(|&b| b as i8)),
        Method::Camp4 => {
            out.resize(2 * packed.len(), 0);
            sext_nibbles(packed, out);
        }
        _ => panic!("{} has no host macro-kernel: only camp units hit", method.name()),
    }
}

/// GeMM implementation under test (the §5.3 experiment matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// CAMP with 8-bit operands (`camp.s8`).
    Camp8,
    /// CAMP with 4-bit operands (`camp.s4`), nibble-packed in memory.
    Camp4,
    /// Hand-vectorized 32-bit integer ulmBLAS (also the edge BLIS-int32
    /// baseline).
    HandvInt32,
    /// Hand-vectorized 8-bit integer kernel with wrapping 8-bit
    /// accumulators (overflow-unsafe, as in the paper).
    HandvInt8,
    /// gemmlowp-like widening int8 kernel (k-pair interleaved panels).
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

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Method::Camp8 => "CAMP-8bit",
            Method::Camp4 => "CAMP-4bit",
            Method::HandvInt32 => "handv-int32",
            Method::HandvInt8 => "handv-int8",
            Method::Gemmlowp => "gemmlowp",
            Method::OpenblasF32 => "OpenBLAS",
            Method::Mmla => "MMLA",
        }
    }

    /// Register-tile geometry and data types.
    pub fn geometry(self) -> KernelGeometry {
        use AccKind as A;
        use ElemKind as E;
        let (mr, nr, k_step, k_unit, elem, acc) = match self {
            Method::Camp8 => (4, 4, 16, 128, E::I8, A::I32), // k_unit: 16 × unroll 8
            Method::Camp4 => (4, 4, 32, 128, E::I4Nibble, A::I32), // k_unit: 32 × unroll 4
            Method::HandvInt32 => (4, 16, 1, 2, E::I32, A::I32),
            Method::HandvInt8 => (4, 64, 1, 2, E::I8, A::I8Wrapping),
            Method::Gemmlowp => (4, 32, 2, 2, E::I8, A::I32),
            Method::OpenblasF32 => (8, 32, 1, 1, E::F32, A::F32),
            Method::Mmla => (8, 8, 8, 8, E::I8, A::I32),
        };
        KernelGeometry { mr, nr, k_step, k_unit, elem, acc }
    }

    /// Default kc blocking for a core kind: kc is sized so the packed
    /// A and B panels fit in L1 (Fig. 3's constraint), and the in-order
    /// edge core takes half the out-of-order depth. Byte-sized operands
    /// allow much deeper panels than f32; the CAMP micro-kernel in
    /// particular accumulates the whole k extent in the auxiliary
    /// register whenever it fits (Fig. 9).
    pub fn default_kc(self, kind: CoreKind) -> usize {
        let out_of_order = match self {
            Method::Camp8 | Method::Camp4 => 4096,
            Method::HandvInt8 | Method::Gemmlowp | Method::Mmla => 512,
            Method::HandvInt32 | Method::OpenblasF32 => 256,
        };
        match kind {
            CoreKind::OutOfOrder => out_of_order,
            CoreKind::InOrder => out_of_order / 2,
        }
    }

    /// Assemble this method's macro-kernel and packing programs.
    pub fn programs(self) -> Programs {
        let (macro_kernel, pack_a, pack_b) = match self {
            Method::Camp8 => (
                kernels::macro_camp(CampMode::I8),
                PackAPlan {
                    scalar: pack::pack_a_rows(4, 1),
                    scalar_cols_per_iter: 1,
                    vector: Some((pack::pack_a_transpose4(1), 64)),
                },
                PackB::GatherRows { prog: pack::pack_b_rows4(4), rows: 4 },
            ),
            Method::Camp4 => (
                kernels::macro_camp(CampMode::I4),
                PackAPlan {
                    scalar: pack::pack_a_camp4(),
                    scalar_cols_per_iter: 2,
                    vector: Some((pack::pack_a_camp4_vec(), 128)),
                },
                PackB::GatherRows { prog: pack::pack_b_rows4(2), rows: 4 },
            ),
            Method::HandvInt32 => (
                kernels::macro_handv_int32(),
                PackAPlan {
                    scalar: pack::pack_a_rows(4, 4),
                    scalar_cols_per_iter: 1,
                    vector: Some((pack::pack_a_transpose4(4), 16)),
                },
                PackB::RowCopy(pack::pack_b_rows(64)),
            ),
            Method::HandvInt8 => (
                kernels::macro_handv_int8(),
                PackAPlan {
                    scalar: pack::pack_a_rows(4, 1),
                    scalar_cols_per_iter: 1,
                    vector: Some((pack::pack_a_transpose4(1), 64)),
                },
                PackB::RowCopy(pack::pack_b_rows(64)),
            ),
            Method::Gemmlowp => (
                kernels::macro_gemmlowp(),
                PackAPlan {
                    scalar: pack::pack_a_gemmlowp(),
                    scalar_cols_per_iter: 2,
                    vector: Some((pack::pack_a_transpose4(2), 64)),
                },
                PackB::PairInterleave {
                    vector: pack::pack_b_gemmlowp_vec(),
                    tail: pack::pack_b_gemmlowp(32),
                },
            ),
            Method::OpenblasF32 => (
                kernels::macro_openblas_f32(),
                PackAPlan {
                    scalar: pack::pack_a_rows(8, 4),
                    scalar_cols_per_iter: 1,
                    vector: Some((pack::pack_a_transpose8_words(), 16)),
                },
                PackB::RowCopy(pack::pack_b_rows(128)),
            ),
            Method::Mmla => (
                kernels::macro_mmla(),
                PackAPlan {
                    scalar: pack::pack_a_rows(8, 8),
                    scalar_cols_per_iter: 8,
                    vector: None,
                },
                PackB::GatherRows { prog: pack::pack_b_mmla(), rows: 8 },
            ),
        };
        Programs { macro_kernel, pack_a, pack_b }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostKernel;
    use crate::reference::SplitMix64;
    use camp_isa::machine::{ExecError, Machine};
    use camp_isa::reg::V;
    use camp_isa::VLEN_BYTES;

    /// Every program `programs` holds.
    fn each_program(programs: &Programs) -> Vec<&Program> {
        let mut all = vec![&programs.macro_kernel, &programs.pack_a.scalar];
        all.extend(programs.pack_a.vector.as_ref().map(|(prog, _)| prog));
        match &programs.pack_b {
            PackB::RowCopy(prog) | PackB::GatherRows { prog, .. } => all.push(prog),
            PackB::PairInterleave { vector, tail } => all.extend([vector, tail]),
        }
        all
    }

    /// `Machine::run`'s contract spelled out on `Machine::step` (the
    /// loop `run` was before it had its own): start at instruction 0,
    /// stop when the PC leaves the program, and fail with `StepLimit`
    /// when `max_steps` retire without reaching the end.
    fn run_by_steps(m: &mut Machine, prog: &Program, max_steps: u64) -> Result<u64, ExecError> {
        m.rewind();
        let mut steps = 0;
        while steps < max_steps {
            if m.step(prog)?.is_none() {
                return Ok(steps);
            }
            steps += 1;
        }
        if (m.pc() as usize) < prog.len() {
            Err(ExecError::StepLimit)
        } else {
            Ok(steps)
        }
    }

    /// A machine with random memory and random registers. When `small`,
    /// the scalar registers stay in 1..=8, so that loop counts are short
    /// and every pointer, stride and offset lands in memory; otherwise
    /// they take any value, and the first access faults.
    fn random_machine(seed: u64, small: bool) -> Machine {
        let mut rng = SplitMix64::new(seed);
        let mut m = Machine::new(1 << 18);
        for chunk in m.mem_mut(0, 1 << 18).chunks_exact_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        for r in 1..32 {
            let x = rng.next_u64();
            m.set_x(S(r), if small { 1 + x % 8 } else { x });
        }
        for r in 0..32 {
            let mut v = [0u8; VLEN_BYTES];
            for chunk in v.chunks_exact_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            m.set_v(V(r), v);
        }
        m
    }

    #[test]
    fn run_matches_a_step_loop_on_every_program() {
        // `run` and `step` share one instruction body; this holds the
        // functional loop around it to the timed one: same registers,
        // memory, PC and retired count (or fault) from the same start
        for method in Method::all() {
            for (p, prog) in each_program(&method.programs()).into_iter().enumerate() {
                for (seed, small) in [(0, true), (1, true), (2, true), (3, false)] {
                    let mut by_run = random_machine(seed, small);
                    let mut by_step = by_run.clone();
                    let retired = by_run.run(prog, 1 << 20);
                    let stepped = run_by_steps(&mut by_step, prog, 1 << 20);
                    let what =
                        format!("{} program {p} ({}), seed {seed}", method.name(), prog.name());
                    if small {
                        assert!(matches!(retired, Ok(n) if n > 0), "{what}: {retired:?}");
                    } else {
                        let fault = matches!(retired, Err(ExecError::OutOfBounds { .. }));
                        assert!(fault, "{what}: {retired:?}");
                    }
                    assert_eq!(retired, stepped, "{what}: retired");
                    assert_same_state(&by_run, &by_step, &what);
                }
            }
        }
    }

    fn assert_same_state(by_run: &Machine, by_step: &Machine, what: &str) {
        assert_eq!(by_run.pc(), by_step.pc(), "{what}: pc");
        for r in 0..32 {
            assert_eq!(by_run.x(S(r)), by_step.x(S(r)), "{what}: x{r}");
            assert_eq!(by_run.v(V(r)), by_step.v(V(r)), "{what}: v{r}");
        }
        assert!(by_run.mem(0, 1 << 18) == by_step.mem(0, 1 << 18), "{what}: memory");
    }

    /// The i32 lanes of a vector register.
    fn lanes(v: &[u8; VLEN_BYTES]) -> Vec<i32> {
        v.chunks_exact(4).map(|b| i32::from_le_bytes(b.try_into().unwrap())).collect()
    }

    #[test]
    fn the_machines_camp_is_the_reference_on_every_tier() {
        // a simulator's machine computes `camp` with the host engine's
        // tile (`SimSession::new`): on every tier this CPU runs, one
        // `camp` must add exactly `camp_outer_product` into vd, wrapping
        let mut rng = SplitMix64::new(34);
        let mut random = || -> [u8; VLEN_BYTES] { std::array::from_fn(|_| rng.next_u64() as u8) };
        // 0x80 / 0x7f: i8 -128 / 127, nibbles (0, -8) / (-1, 7);
        // 0x88 / 0x77: nibbles -8 / 7 in both halves
        let extremes = [0x80u8, 0x7f, 0x88, 0x77].map(|b| [b; VLEN_BYTES]);
        let mut pairs: Vec<_> = (0..4).map(|_| (random(), random())).collect();
        for a in extremes {
            pairs.extend(extremes.map(|b| (a, b)));
        }
        let near = |base: i32| -> [u8; VLEN_BYTES] {
            let mut v = [0u8; VLEN_BYTES];
            for (i, lane) in v.chunks_exact_mut(4).enumerate() {
                lane.copy_from_slice(&base.wrapping_add(i as i32 * 7 - 50).to_le_bytes());
            }
            v
        };
        // near i32::MAX / MIN the extremes' products wrap the accumulate
        let accs = [[0u8; VLEN_BYTES], random(), near(i32::MAX), near(i32::MIN)];
        for hk in HostKernel::available() {
            for mode in [CampMode::I8, CampMode::I4] {
                let mut a = camp_isa::Assembler::new("camp");
                a.camp(mode, V(2), V(0), V(1));
                let prog = a.finish();
                for (x, y) in &pairs {
                    let tile = camp_isa::machine::camp_outer_product(mode, x, y);
                    for d in &accs {
                        let mut m = Machine::new(0);
                        m.set_camp_tile(hk.tile_i8);
                        m.set_v(V(0), *x);
                        m.set_v(V(1), *y);
                        m.set_v(V(2), *d);
                        m.run(&prog, 1).unwrap();
                        let want: Vec<i32> = lanes(d)
                            .iter()
                            .zip(tile.as_flattened())
                            .map(|(d, t)| d.wrapping_add(*t))
                            .collect();
                        let what = format!(
                            "{} {mode:?} a={:#04x} b={:#04x}",
                            hk.tier().name(),
                            x[0],
                            y[0]
                        );
                        assert_eq!(lanes(&m.v(V(2))), want, "{what} d={:?}", &lanes(d)[..2]);
                    }
                }
            }
            // the camp kernels under the tier's tile: the functional loop
            // and the timed one agree
            for method in [Method::Camp8, Method::Camp4] {
                for (p, prog) in each_program(&method.programs()).into_iter().enumerate() {
                    let mut by_run = random_machine(4, true);
                    by_run.set_camp_tile(hk.tile_i8);
                    let mut by_step = by_run.clone();
                    let retired = by_run.run(prog, 1 << 20);
                    let what = format!("{} {} program {p}", hk.tier().name(), method.name());
                    assert!(matches!(retired, Ok(n) if n > 0), "{what}: {retired:?}");
                    assert_eq!(retired, run_by_steps(&mut by_step, prog, 1 << 20), "{what}");
                    assert_same_state(&by_run, &by_step, &what);
                }
            }
        }
    }

    #[test]
    fn geometry_matches_the_paper_table() {
        // the §5.3 table in the crate docs
        let geos: Vec<(Method, usize, usize, usize)> = Method::all()
            .into_iter()
            .map(|m| {
                let g = m.geometry();
                (m, g.mr, g.nr, g.k_step)
            })
            .collect();
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
            let geo = m.geometry();
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
            let geo = m.geometry();
            assert_eq!(geo.k_unit % geo.k_step, 0, "{}", m.name());
        }
    }

    #[test]
    fn all_macro_programs_assemble() {
        for m in Method::all() {
            let p = m.programs().macro_kernel;
            assert!(!p.insts().is_empty(), "{}", m.name());
        }
    }

    #[test]
    fn pack_plans_cover_any_tail() {
        // the scalar packer must be able to finish what the vector
        // packer leaves: its per-iteration column count divides both the
        // vector chunk and the k-unit
        for m in Method::all() {
            let plan = m.programs().pack_a;
            let geo = m.geometry();
            assert_eq!(geo.k_unit % plan.scalar_cols_per_iter, 0, "{}", m.name());
            if let Some((_, chunk)) = plan.vector {
                assert_eq!(chunk % plan.scalar_cols_per_iter, 0, "{}", m.name());
            }
        }
    }
}
