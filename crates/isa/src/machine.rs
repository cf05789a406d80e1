//! Functional execution of VVA programs.
//!
//! [`Machine`] holds the architectural state (scalar/vector register files
//! and a flat byte-addressed memory) and executes instructions one at a
//! time. Timing is *not* modeled here — `camp-pipeline` wraps the machine
//! and assigns cycles to each retired instruction.

use crate::inst::{BranchCond, CampMode, ElemType, Inst, Program, VOp};
use crate::reg::{ScalarReg, VectorReg};
use crate::VLEN_BYTES;
use std::fmt;

/// A single architectural memory access, reported to the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address of the first byte touched.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u32,
    /// True for stores.
    pub is_store: bool,
}

/// Result of executing one instruction.
#[derive(Debug, Clone, Copy)]
pub struct StepOut {
    /// Index of the executed instruction in the program.
    pub index: u32,
    /// The instruction itself (copied out for the timing model).
    pub inst: Inst,
    /// Memory access performed, if any.
    pub mem: Option<MemAccess>,
    /// True if a branch was taken.
    pub branch_taken: bool,
}

/// What executing one instruction did besides writing registers and
/// memory: where control goes next, the access it made and whether it
/// took a branch.
struct Executed {
    next: u32,
    mem: Option<MemAccess>,
    branch_taken: bool,
}

/// Execution error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// A memory access fell outside the machine's memory.
    OutOfBounds {
        /// Offending byte address.
        addr: u64,
        /// Access size in bytes.
        size: u32,
    },
    /// The step budget was exhausted before the program ended.
    StepLimit,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds { addr, size } => {
                write!(f, "memory access out of bounds: addr={addr:#x} size={size}")
            }
            ExecError::StepLimit => f.write_str("step limit exhausted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The architectural machine: 32 scalar regs, 32 vector regs, flat memory.
#[derive(Clone)]
pub struct Machine {
    x: [u64; 32],
    /// Vector registers as i8, so `camp` hands its sources to the tile
    /// in place; every other instruction reads and writes bytes
    /// ([`Machine::v`] / [`Machine::set_v`]).
    v: [[i8; VLEN_BYTES]; 32],
    mem: Vec<u8>,
    pc: u32,
    /// What `camp` computes its product with.
    tile: CampTile,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.pc)
            .field("mem_bytes", &self.mem.len())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Create a machine with `mem_bytes` of zeroed memory.
    pub fn new(mem_bytes: usize) -> Self {
        Machine {
            x: [0; 32],
            v: [[0; VLEN_BYTES]; 32],
            mem: vec![0; mem_bytes],
            pc: 0,
            tile: camp_tile_ref,
        }
    }

    /// Execute `camp` through `tile` from now on (a new machine uses
    /// [`camp_tile_ref`]); [`Machine::reset`] keeps it. `tile` must
    /// compute exactly what [`camp_tile_ref`] does at depths 16 and 32.
    pub fn set_camp_tile(&mut self, tile: CampTile) {
        self.tile = tile;
    }

    /// Reset the program counter (registers and memory are preserved so
    /// successive programs can share state, as the blocked-GeMM driver
    /// requires).
    pub fn rewind(&mut self) {
        self.pc = 0;
    }

    /// Return to the state of `Machine::new(mem_bytes)` — zero
    /// registers, PC 0, `mem_bytes` of zeroed memory — keeping the
    /// memory allocation when it is large enough, and the installed
    /// [`CampTile`].
    pub fn reset(&mut self, mem_bytes: usize) {
        self.x = [0; 32];
        self.v = [[0; VLEN_BYTES]; 32];
        self.pc = 0;
        self.mem.clear();
        self.mem.resize(mem_bytes, 0);
    }

    /// Current program counter (instruction index).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Memory size in bytes.
    pub fn mem_len(&self) -> usize {
        self.mem.len()
    }

    /// Read a scalar register. `x0` reads as zero: no write leaves
    /// anything else in it (see [`Machine::set_x`]).
    #[inline]
    pub fn x(&self, r: ScalarReg) -> u64 {
        self.x[r.index()]
    }

    /// Write a scalar register (writes to `x0` are ignored): the write
    /// lands, then `x0` is zeroed again, so neither this nor a read has
    /// to branch on the register.
    #[inline]
    pub fn set_x(&mut self, r: ScalarReg, val: u64) {
        self.x[r.index()] = val;
        self.x[0] = 0;
    }

    /// Read a vector register's bytes.
    #[inline(always)]
    pub fn v(&self, r: VectorReg) -> [u8; VLEN_BYTES] {
        self.v[r.index()].map(|b| b as u8)
    }

    /// Write a vector register's bytes.
    #[inline(always)]
    pub fn set_v(&mut self, r: VectorReg, val: [u8; VLEN_BYTES]) {
        self.v[r.index()] = val.map(|b| b as i8);
    }

    // ---- memory helpers (host-side setup / inspection) ----

    /// The `N` bytes at `addr`: a fixed-width copy, no runtime-length
    /// `memcpy`, and one bounds check.
    #[inline(always)]
    fn load<const N: usize>(&self, addr: u64) -> Result<[u8; N], ExecError> {
        match self.mem.get(addr as usize..).and_then(<[u8]>::first_chunk) {
            Some(bytes) => Ok(*bytes),
            None => Err(ExecError::OutOfBounds { addr, size: N as u32 }),
        }
    }

    /// Write `bytes` at `addr` (fixed width, like [`Machine::load`]).
    #[inline(always)]
    fn store<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) -> Result<(), ExecError> {
        match self.mem.get_mut(addr as usize..).and_then(<[u8]>::first_chunk_mut) {
            Some(dst) => {
                *dst = bytes;
                Ok(())
            }
            None => Err(ExecError::OutOfBounds { addr, size: N as u32 }),
        }
    }

    /// Borrow a memory range.
    ///
    /// # Panics
    /// Panics if out of bounds (host-side setup API).
    pub fn mem(&self, addr: u64, len: usize) -> &[u8] {
        &self.mem[addr as usize..addr as usize + len]
    }

    /// Mutably borrow a memory range.
    ///
    /// # Panics
    /// Panics if out of bounds (host-side setup API).
    pub fn mem_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        &mut self.mem[addr as usize..addr as usize + len]
    }

    /// Write raw bytes at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        self.mem_mut(addr, bytes.len()).copy_from_slice(bytes);
    }

    /// Write an i8.
    pub fn write_i8(&mut self, addr: u64, val: i8) {
        self.mem[addr as usize] = val as u8;
    }
    /// Read an i8.
    pub fn read_i8(&self, addr: u64) -> i8 {
        self.mem[addr as usize] as i8
    }
    /// Write an i32 (little-endian).
    pub fn write_i32(&mut self, addr: u64, val: i32) {
        self.write_bytes(addr, &val.to_le_bytes());
    }
    /// Read an i32 (little-endian).
    pub fn read_i32(&self, addr: u64) -> i32 {
        i32::from_le_bytes(self.mem(addr, 4).try_into().expect("4 bytes"))
    }
    /// Write an f32 (little-endian).
    pub fn write_f32(&mut self, addr: u64, val: f32) {
        self.write_bytes(addr, &val.to_le_bytes());
    }
    /// Read an f32 (little-endian).
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_le_bytes(self.mem(addr, 4).try_into().expect("4 bytes"))
    }

    // ---- execution ----

    /// Execute the instruction at the current PC.
    ///
    /// Returns `Ok(None)` when the PC has run off the end of the program
    /// (normal termination).
    ///
    /// # Errors
    /// [`ExecError::OutOfBounds`] on a bad memory access.
    ///
    /// # Panics
    /// Panics on a scalar load/store whose `width` is not 1, 2, 4 or 8
    /// (the assembler never produces one).
    #[inline]
    pub fn step(&mut self, prog: &Program) -> Result<Option<StepOut>, ExecError> {
        let idx = self.pc;
        let Some(&inst) = prog.insts().get(idx as usize) else {
            return Ok(None);
        };
        let done = self.exec(idx, inst)?;
        self.pc = done.next;
        Ok(Some(StepOut { index: idx, inst, mem: done.mem, branch_taken: done.branch_taken }))
    }

    /// The semantics of every instruction: execute `inst`, the program's
    /// instruction `idx`, and say where control goes next. The one body
    /// behind [`Machine::step`] (which reports the access and the branch
    /// to the timing model) and [`Machine::run`] (which drops them).
    #[inline(always)]
    fn exec(&mut self, idx: u32, inst: Inst) -> Result<Executed, ExecError> {
        let mut mem = None;
        let mut branch_taken = false;
        let mut next = idx + 1;

        match inst {
            Inst::Li { rd, imm } => self.set_x(rd, imm as u64),
            Inst::Addi { rd, rs, imm } => {
                let v = self.x(rs).wrapping_add(imm as u64);
                self.set_x(rd, v);
            }
            Inst::Add { rd, rs1, rs2 } => {
                let v = self.x(rs1).wrapping_add(self.x(rs2));
                self.set_x(rd, v);
            }
            Inst::Sub { rd, rs1, rs2 } => {
                let v = self.x(rs1).wrapping_sub(self.x(rs2));
                self.set_x(rd, v);
            }
            Inst::Mul { rd, rs1, rs2 } => {
                let v = self.x(rs1).wrapping_mul(self.x(rs2));
                self.set_x(rd, v);
            }
            Inst::Slli { rd, rs, sh } => {
                let v = self.x(rs) << sh;
                self.set_x(rd, v);
            }
            Inst::Srli { rd, rs, sh } => {
                let v = self.x(rs) >> sh;
                self.set_x(rd, v);
            }
            Inst::Andi { rd, rs, imm } => {
                let v = self.x(rs) & imm as u64;
                self.set_x(rd, v);
            }
            Inst::Nop => {}
            Inst::Branch { cond, rs1, rs2, target } => {
                let a = self.x(rs1) as i64;
                let b = self.x(rs2) as i64;
                let take = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => a < b,
                    BranchCond::Ge => a >= b,
                };
                if take {
                    next = target;
                    branch_taken = true;
                }
            }
            Inst::LoadS { rd, base, offset, width } => {
                let addr = self.x(base).wrapping_add(offset as u64);
                // signed-to-u64 casts sign-extend
                let val = match width {
                    1 => i8::from_le_bytes(self.load(addr)?) as u64,
                    2 => i16::from_le_bytes(self.load(addr)?) as u64,
                    4 => i32::from_le_bytes(self.load(addr)?) as u64,
                    8 => u64::from_le_bytes(self.load(addr)?),
                    w => panic!("scalar load width {w} is not 1, 2, 4 or 8"),
                };
                self.set_x(rd, val);
                mem = Some(MemAccess { addr, size: width as u32, is_store: false });
            }
            Inst::StoreS { rs, base, offset, width } => {
                let addr = self.x(base).wrapping_add(offset as u64);
                let v = self.x(rs);
                match width {
                    1 => self.store(addr, (v as u8).to_le_bytes())?,
                    2 => self.store(addr, (v as u16).to_le_bytes())?,
                    4 => self.store(addr, (v as u32).to_le_bytes())?,
                    8 => self.store(addr, v.to_le_bytes())?,
                    w => panic!("scalar store width {w} is not 1, 2, 4 or 8"),
                }
                mem = Some(MemAccess { addr, size: width as u32, is_store: true });
            }
            Inst::VLoad { vd, base, offset } => {
                let addr = self.x(base).wrapping_add(offset as u64);
                self.set_v(vd, self.load(addr)?);
                mem = Some(MemAccess { addr, size: VLEN_BYTES as u32, is_store: false });
            }
            Inst::VStore { vs, base, offset } => {
                let addr = self.x(base).wrapping_add(offset as u64);
                self.store(addr, self.v(vs))?;
                mem = Some(MemAccess { addr, size: VLEN_BYTES as u32, is_store: true });
            }
            Inst::VLoadRep { ty, vd, base, offset } => {
                let addr = self.x(base).wrapping_add(offset as u64);
                let w = ty.bytes();
                let mut elem = [0u8; 4];
                match w {
                    1 => elem[..1].copy_from_slice(&self.load::<1>(addr)?),
                    2 => elem[..2].copy_from_slice(&self.load::<2>(addr)?),
                    _ => elem = self.load(addr)?,
                }
                let mut out = [0u8; VLEN_BYTES];
                for c in out.chunks_exact_mut(w) {
                    c.copy_from_slice(&elem[..w]);
                }
                self.set_v(vd, out);
                mem = Some(MemAccess { addr, size: w as u32, is_store: false });
            }
            Inst::VDup { .. }
            | Inst::VZero { .. }
            | Inst::VBin { .. }
            | Inst::VMull { .. }
            | Inst::VAdalp { .. }
            | Inst::VSxtl { .. }
            | Inst::VZip { .. }
            | Inst::VPack4 { .. }
            | Inst::VUnpack4 { .. }
            | Inst::Smmla { .. }
            | Inst::Camp { .. } => self.exec_vreg(inst),
        }

        Ok(Executed { next, mem, branch_taken })
    }

    /// The instructions that only read and write registers, apart from
    /// the scalar ones: out of line, so that the scalar loop
    /// [`Machine::exec`] inlines into stays small.
    #[inline(never)]
    fn exec_vreg(&mut self, inst: Inst) {
        match inst {
            Inst::VDup { ty, vd, rs } => {
                let s = self.x(rs);
                let mut out = [0u8; VLEN_BYTES];
                match ty {
                    ElemType::I8 => out.fill(s as u8),
                    ElemType::I16 => {
                        for c in out.chunks_exact_mut(2) {
                            c.copy_from_slice(&(s as u16).to_le_bytes());
                        }
                    }
                    ElemType::I32 | ElemType::F32 => {
                        for c in out.chunks_exact_mut(4) {
                            c.copy_from_slice(&(s as u32).to_le_bytes());
                        }
                    }
                }
                self.set_v(vd, out);
            }
            Inst::VZero { vd } => self.set_v(vd, [0u8; VLEN_BYTES]),
            Inst::VBin { op, ty, vd, vs1, vs2 } => self.exec_vbin(op, ty, vd, vs1, vs2),
            Inst::VMull { vd, vs1, vs2, hi } => {
                let a = self.v(vs1);
                let b = self.v(vs2);
                let base = if hi { 32 } else { 0 };
                let mut out = [0u8; VLEN_BYTES];
                for i in 0..32 {
                    let p = (a[base + i] as i8 as i16).wrapping_mul(b[base + i] as i8 as i16);
                    out[i * 2..i * 2 + 2].copy_from_slice(&p.to_le_bytes());
                }
                self.set_v(vd, out);
            }
            Inst::VAdalp { vd, vs } => {
                let s = self.v(vs);
                let mut d = self.v(vd);
                for i in 0..16 {
                    let lo = i16::from_le_bytes([s[i * 4], s[i * 4 + 1]]) as i32;
                    let hi = i16::from_le_bytes([s[i * 4 + 2], s[i * 4 + 3]]) as i32;
                    let acc = i32::from_le_bytes(d[i * 4..i * 4 + 4].try_into().expect("4"));
                    let r = acc.wrapping_add(lo).wrapping_add(hi);
                    d[i * 4..i * 4 + 4].copy_from_slice(&r.to_le_bytes());
                }
                self.set_v(vd, d);
            }
            Inst::VSxtl { vd, vs, part } => {
                let s = self.v(vs);
                let mut out = [0u8; VLEN_BYTES];
                let base = part as usize * 16;
                for i in 0..16 {
                    let v = s[base + i] as i8 as i32;
                    out[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
                }
                self.set_v(vd, out);
            }
            Inst::VZip { vd, vs1, vs2, granule, hi } => {
                let (a, b) = (&self.v(vs1), &self.v(vs2));
                // a constant granule per arm: fixed-size chunk copies
                let out = match granule {
                    1 => zip(a, b, 1, hi),
                    2 => zip(a, b, 2, hi),
                    4 => zip(a, b, 4, hi),
                    8 => zip(a, b, 8, hi),
                    16 => zip(a, b, 16, hi),
                    g => zip(a, b, g as usize, hi),
                };
                self.set_v(vd, out);
            }
            Inst::VPack4 { vd, vs1, vs2 } => {
                let a = self.v(vs1);
                let b = self.v(vs2);
                let mut out = [0u8; VLEN_BYTES];
                for i in 0..32 {
                    out[i] = (a[2 * i] & 0x0f) | (a[2 * i + 1] << 4);
                    out[32 + i] = (b[2 * i] & 0x0f) | (b[2 * i + 1] << 4);
                }
                self.set_v(vd, out);
            }
            Inst::VUnpack4 { vd, vs, hi } => {
                let s = self.v(vs);
                let off = if hi { VLEN_BYTES / 2 } else { 0 };
                sext_nibbles(&s[off..off + VLEN_BYTES / 2], &mut self.v[vd.index()]);
            }
            Inst::Smmla { vd, vs1, vs2 } => {
                let a = self.v(vs1);
                let b = self.v(vs2);
                let mut d = self.v(vd);
                for seg in 0..4 {
                    let s = seg * 16;
                    for i in 0..2 {
                        for j in 0..2 {
                            let mut acc = 0i32;
                            for k in 0..8 {
                                let av = a[s + i * 8 + k] as i8 as i32;
                                let bv = b[s + j * 8 + k] as i8 as i32;
                                acc = acc.wrapping_add(av.wrapping_mul(bv));
                            }
                            let o = s + (i * 2 + j) * 4;
                            let prev = i32::from_le_bytes(d[o..o + 4].try_into().expect("4"));
                            let r = prev.wrapping_add(acc);
                            d[o..o + 4].copy_from_slice(&r.to_le_bytes());
                        }
                    }
                }
                self.set_v(vd, d);
            }
            Inst::Camp { mode, vd, vs1, vs2 } => {
                let (a, b) = (&self.v[vs1.index()], &self.v[vs2.index()]);
                let mut acc = tile_of(&self.v(vd));
                match mode {
                    CampMode::I8 => (self.tile)(a, b, &mut acc),
                    CampMode::I4 => {
                        let (a, b) = (a.map(|x| x as u8), b.map(|x| x as u8));
                        (self.tile)(&unpack_i4(&a), &unpack_i4(&b), &mut acc)
                    }
                }
                self.set_v(vd, tile_bytes(&acc));
            }
            _ => unreachable!("{inst:?} is not a register-only vector instruction"),
        }
    }

    fn exec_vbin(&mut self, op: VOp, ty: ElemType, vd: VectorReg, vs1: VectorReg, vs2: VectorReg) {
        let a = self.v(vs1);
        let b = self.v(vs2);
        let mut d = self.v(vd);
        match ty {
            ElemType::I8 => {
                for i in 0..VLEN_BYTES {
                    let x = a[i] as i8;
                    let y = b[i] as i8;
                    let acc = d[i] as i8;
                    d[i] = apply_int(op, x as i64, y as i64, acc as i64) as u8;
                }
            }
            ElemType::I16 => {
                for i in 0..32 {
                    let x = i16::from_le_bytes([a[i * 2], a[i * 2 + 1]]) as i64;
                    let y = i16::from_le_bytes([b[i * 2], b[i * 2 + 1]]) as i64;
                    let acc = i16::from_le_bytes([d[i * 2], d[i * 2 + 1]]) as i64;
                    let r = apply_int(op, x, y, acc) as i16;
                    d[i * 2..i * 2 + 2].copy_from_slice(&r.to_le_bytes());
                }
            }
            ElemType::I32 => {
                for i in 0..16 {
                    let x = i32::from_le_bytes(a[i * 4..i * 4 + 4].try_into().expect("4")) as i64;
                    let y = i32::from_le_bytes(b[i * 4..i * 4 + 4].try_into().expect("4")) as i64;
                    let acc = i32::from_le_bytes(d[i * 4..i * 4 + 4].try_into().expect("4")) as i64;
                    let r = apply_int(op, x, y, acc) as i32;
                    d[i * 4..i * 4 + 4].copy_from_slice(&r.to_le_bytes());
                }
            }
            ElemType::F32 => {
                for i in 0..16 {
                    let x = f32::from_le_bytes(a[i * 4..i * 4 + 4].try_into().expect("4"));
                    let y = f32::from_le_bytes(b[i * 4..i * 4 + 4].try_into().expect("4"));
                    let acc = f32::from_le_bytes(d[i * 4..i * 4 + 4].try_into().expect("4"));
                    let r = match op {
                        VOp::Add => x + y,
                        VOp::Sub => x - y,
                        VOp::Mul => x * y,
                        VOp::Mla => acc + x * y,
                    };
                    d[i * 4..i * 4 + 4].copy_from_slice(&r.to_le_bytes());
                }
            }
        }
        self.set_v(vd, d);
    }

    /// Run `prog` from its first instruction until completion or `max_steps`.
    ///
    /// Returns the number of instructions retired. The functional loop:
    /// the instruction body of [`Machine::step`], with no [`StepOut`]
    /// built. On an error the PC is left at the instruction that did not
    /// execute.
    ///
    /// # Errors
    /// [`ExecError::StepLimit`] if the budget is exhausted;
    /// [`ExecError::OutOfBounds`] on a bad access.
    pub fn run(&mut self, prog: &Program, max_steps: u64) -> Result<u64, ExecError> {
        let insts = prog.insts();
        let mut pc = 0;
        let mut steps = 0;
        let end = loop {
            let Some(&inst) = insts.get(pc as usize) else {
                break Ok(steps);
            };
            if steps == max_steps {
                break Err(ExecError::StepLimit);
            }
            match self.exec(pc, inst) {
                Ok(done) => pc = done.next,
                Err(e) => break Err(e),
            }
            steps += 1;
        };
        self.pc = pc;
        end
    }
}

/// Interleave the `g`-byte chunks of one half of `a` and `b` (the upper
/// half when `hi`): `vzip`'s semantics.
#[inline(always)]
fn zip(a: &[u8; VLEN_BYTES], b: &[u8; VLEN_BYTES], g: usize, hi: bool) -> [u8; VLEN_BYTES] {
    let half_chunks = VLEN_BYTES / g / 2;
    let off = if hi { half_chunks } else { 0 };
    let mut out = [0u8; VLEN_BYTES];
    for i in 0..half_chunks {
        let src = (off + i) * g;
        out[2 * i * g..2 * i * g + g].copy_from_slice(&a[src..src + g]);
        out[(2 * i + 1) * g..(2 * i + 1) * g + g].copy_from_slice(&b[src..src + g]);
    }
    out
}

#[inline]
fn apply_int(op: VOp, x: i64, y: i64, acc: i64) -> i64 {
    match op {
        VOp::Add => x.wrapping_add(y),
        VOp::Sub => x.wrapping_sub(y),
        VOp::Mul => x.wrapping_mul(y),
        VOp::Mla => acc.wrapping_add(x.wrapping_mul(y)),
    }
}

/// A `camp` tile function: `acc[i][j] += Σ_l a[l*4 + i]·b[l*4 + j]`
/// (wrapping i32) over a 4-row A panel and a 4-column B panel of equal
/// depth — the signature of the host engine's `HostKernel::tile_i8`.
/// The machine executes `camp` through one ([`Machine::set_camp_tile`]);
/// any tile computes the same bits, so which one runs changes nothing
/// but host speed.
pub type CampTile = fn(&[i8], &[i8], &mut [[i32; 4]; 4]);

/// The reference [`CampTile`]: a fresh machine's, and the body of
/// [`camp_outer_product`].
///
/// # Panics
/// Panics if the panels' depths differ or are not whole.
pub fn camp_tile_ref(a: &[i8], b: &[i8], acc: &mut [[i32; 4]; 4]) {
    assert!(a.len() == b.len() && a.len().is_multiple_of(4), "panels of unequal depth");
    for (av, bv) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        for (row, &x) in acc.iter_mut().zip(av) {
            for (s, &y) in row.iter_mut().zip(bv) {
                *s = s.wrapping_add(i32::from(x) * i32::from(y));
            }
        }
    }
}

/// Compute the CAMP outer-product tile for one register pair.
///
/// `a` is the 4×`k` column-major block (k = 16 for i8, 32 for i4; in i4
/// mode element `n` is the nibble `n`, low nibble of each byte first);
/// `b` is the `k`×4 row-major block. Returns the 4×4 i32 product (not
/// yet accumulated). This is the architectural semantics of the
/// hardware in Fig. 8 of the paper and the workspace's one model of it:
/// the [`camp_tile_ref`] product of the sign-extended elements, which
/// the machine's `camp` computes through its installed [`CampTile`] and
/// adds into `vd` (wrapping). `tests/proptests.rs`
/// (`camp_outer_product_matches_gemm_i32_ref`) checks it against the
/// reference GeMM in both modes.
pub fn camp_outer_product(
    mode: CampMode,
    a: &[u8; VLEN_BYTES],
    b: &[u8; VLEN_BYTES],
) -> [[i32; 4]; 4] {
    let mut tile = [[0i32; 4]; 4];
    match mode {
        CampMode::I8 => camp_tile_ref(&a.map(|x| x as i8), &b.map(|x| x as i8), &mut tile),
        CampMode::I4 => camp_tile_ref(&unpack_i4(a), &unpack_i4(b), &mut tile),
    }
    tile
}

/// A `camp` accumulator register as its 4×4 tile: lane `i*4 + j` is
/// element (i, j).
#[inline(always)]
fn tile_of(v: &[u8; VLEN_BYTES]) -> [[i32; 4]; 4] {
    let mut t = [[0i32; 4]; 4];
    for (x, b) in t.as_flattened_mut().iter_mut().zip(v.chunks_exact(4)) {
        *x = i32::from_le_bytes(b.try_into().expect("4"));
    }
    t
}

/// [`tile_of`]'s inverse.
#[inline(always)]
fn tile_bytes(t: &[[i32; 4]; 4]) -> [u8; VLEN_BYTES] {
    let mut v = [0u8; VLEN_BYTES];
    for (b, x) in v.chunks_exact_mut(4).zip(t.as_flattened()) {
        b.copy_from_slice(&x.to_le_bytes());
    }
    v
}

/// Sign-extend nibble-packed 4-bit values, low nibble of each byte
/// first: `out[2*i]` and `out[2*i + 1]` are the low and high nibble of
/// `packed[i]`. Branch-free, two outputs per byte. The workspace's one
/// definition of how i4 data unpacks: `camp`'s i4 mode, `vunpack4` and
/// the simulated driver's host macro-kernel all call it.
///
/// # Panics
/// Panics unless `out` holds exactly two values per packed byte.
#[inline(always)]
pub fn sext_nibbles(packed: &[u8], out: &mut [i8]) {
    assert_eq!(out.len(), 2 * packed.len(), "two nibbles per byte");
    for (o, &b) in out.chunks_exact_mut(2).zip(packed) {
        let b = b as i8;
        o[0] = (b << 4) >> 4;
        o[1] = b >> 4;
    }
}

/// The 128 nibbles of an i4 `camp` source register, sign-extended.
#[inline(always)]
fn unpack_i4(v: &[u8; VLEN_BYTES]) -> [i8; 2 * VLEN_BYTES] {
    let mut out = [0i8; 2 * VLEN_BYTES];
    sext_nibbles(v, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::reg::{S, V};

    fn machine() -> Machine {
        Machine::new(1 << 16)
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut m = machine();
        m.set_x(S(0), 99);
        assert_eq!(m.x(S(0)), 0);
        // every instruction form with a scalar destination, aimed at x0
        // with a non-zero result, each followed by a copy of x0 into
        // x10.. — on the functional loop and on the timed step alike
        let mut a = Assembler::new("x0");
        a.li(S(1), 0b1011);
        a.li(S(2), 8);
        let forms: [fn(&mut Assembler); 9] = [
            |a| a.li(S(0), 7),
            |a| a.addi(S(0), S(1), 1),
            |a| a.add(S(0), S(1), S(1)),
            |a| a.sub(S(0), S(1), S(2)),
            |a| a.mul(S(0), S(1), S(1)),
            |a| a.slli(S(0), S(1), 4),
            |a| a.srli(S(0), S(1), 1),
            |a| a.andi(S(0), S(1), 0xf),
            |a| a.lb(S(0), S(2), 0),
        ];
        for (i, form) in forms.iter().enumerate() {
            form(&mut a);
            a.add(S(10 + i as u8), S(0), S(0));
        }
        let p = a.finish();
        let mut stepped = machine();
        for m in [&mut m, &mut stepped] {
            m.write_i8(8, -5);
        }
        m.run(&p, 100).unwrap();
        while stepped.step(&p).unwrap().is_some() {}
        for m in [&m, &stepped] {
            assert_eq!(m.x(S(0)), 0);
            for i in 0..forms.len() as u8 {
                assert_eq!(m.x(S(10 + i)), 0, "form {i} left a value in x0");
            }
        }
    }

    #[test]
    fn scalar_arith_loop() {
        // sum 1..=10 via a loop
        let mut a = Assembler::new("sum");
        a.li(S(1), 0); // acc
        a.li(S(2), 1); // i
        a.li(S(3), 11); // bound
        a.label("top");
        a.add(S(1), S(1), S(2));
        a.addi(S(2), S(2), 1);
        a.bne(S(2), S(3), "top");
        let p = a.finish();
        let mut m = machine();
        m.run(&p, 1000).unwrap();
        assert_eq!(m.x(S(1)), 55);
    }

    #[test]
    fn shifts_and_masks() {
        let mut a = Assembler::new("t");
        a.li(S(1), 0b1011);
        a.slli(S(2), S(1), 4);
        a.srli(S(3), S(2), 2);
        a.andi(S(4), S(3), 0xf);
        let p = a.finish();
        let mut m = machine();
        m.run(&p, 100).unwrap();
        assert_eq!(m.x(S(2)), 0b1011_0000);
        assert_eq!(m.x(S(3)), 0b10_1100);
        assert_eq!(m.x(S(4)), 0b1100);
    }

    #[test]
    fn scalar_load_sign_extends() {
        let mut m = machine();
        m.write_i8(8, -5);
        let mut a = Assembler::new("t");
        a.li(S(1), 8);
        a.lb(S(2), S(1), 0);
        let p = a.finish();
        m.run(&p, 10).unwrap();
        assert_eq!(m.x(S(2)) as i64, -5);
    }

    #[test]
    fn scalar_store_width() {
        let mut m = machine();
        let mut a = Assembler::new("t");
        a.li(S(1), 0x11223344_i64);
        a.li(S(2), 16);
        a.store_s(S(1), S(2), 0, 2);
        let p = a.finish();
        m.run(&p, 10).unwrap();
        assert_eq!(m.mem(16, 4), &[0x44, 0x33, 0x00, 0x00]);
    }

    #[test]
    fn vector_roundtrip_and_add() {
        let mut m = machine();
        for i in 0..16 {
            m.write_i32(i as u64 * 4, i + 1);
        }
        let mut a = Assembler::new("t");
        a.vload(V(0), S(0), 0);
        a.vadd_i32(V(1), V(0), V(0));
        a.vstore(V(1), S(0), 128);
        let p = a.finish();
        m.run(&p, 10).unwrap();
        for i in 0..16 {
            assert_eq!(m.read_i32(128 + i as u64 * 4), 2 * (i + 1));
        }
    }

    #[test]
    fn vdup_and_mla_i32() {
        let mut m = machine();
        for i in 0..16 {
            m.write_i32(i as u64 * 4, i);
        }
        let mut a = Assembler::new("t");
        a.vload(V(0), S(0), 0);
        a.vzero(V(2));
        a.li(S(1), 3);
        a.vdup(ElemType::I32, V(1), S(1));
        a.vmla_i32(V(2), V(0), V(1));
        a.vmla_i32(V(2), V(0), V(1));
        a.vstore(V(2), S(0), 256);
        let p = a.finish();
        m.run(&p, 20).unwrap();
        for i in 0..16 {
            assert_eq!(m.read_i32(256 + i as u64 * 4), 6 * i);
        }
    }

    #[test]
    fn i8_mla_truncates_like_handv_int8() {
        // 100 * 100 = 10000 -> wraps in i8: this is the documented
        // overflow-unsafe baseline behaviour.
        let mut m = machine();
        let mut a = Assembler::new("t");
        a.li(S(1), 100);
        a.vdup(ElemType::I8, V(0), S(1));
        a.vzero(V(1));
        a.vmla_i8(V(1), V(0), V(0));
        let p = a.finish();
        m.run(&p, 10).unwrap();
        assert_eq!(m.v(V(1))[0] as i8, ((10000i32 & 0xff) as i8));
    }

    #[test]
    fn f32_fma() {
        let mut m = machine();
        for i in 0..16 {
            m.write_f32(i as u64 * 4, i as f32);
        }
        let mut a = Assembler::new("t");
        a.vload(V(0), S(0), 0);
        a.vzero(V(1));
        a.vfma_f32(V(1), V(0), V(0));
        a.vstore(V(1), S(0), 512);
        let p = a.finish();
        m.run(&p, 10).unwrap();
        for i in 0..16 {
            assert_eq!(m.read_f32(512 + i as u64 * 4), (i * i) as f32);
        }
    }

    #[test]
    fn vmull_widens() {
        let mut m = machine();
        let mut a = [0u8; VLEN_BYTES];
        let mut b = [0u8; VLEN_BYTES];
        a[0] = (-7i8) as u8;
        b[0] = 9;
        a[33] = 11; // high half, lane 1
        b[33] = (-12i8) as u8;
        m.set_v(V(0), a);
        m.set_v(V(1), b);
        let mut asm = Assembler::new("t");
        asm.vmull(V(2), V(0), V(1), false);
        asm.vmull(V(3), V(0), V(1), true);
        let p = asm.finish();
        m.run(&p, 10).unwrap();
        let lo = i16::from_le_bytes([m.v(V(2))[0], m.v(V(2))[1]]);
        assert_eq!(lo, -63);
        let hi = i16::from_le_bytes([m.v(V(3))[2], m.v(V(3))[3]]);
        assert_eq!(hi, -132);
    }

    #[test]
    fn vadalp_pairwise_accumulate() {
        let mut m = machine();
        let mut s = [0u8; VLEN_BYTES];
        // i16 lanes 0,1 = 5, -3 -> i32 lane 0 += 2
        s[0..2].copy_from_slice(&5i16.to_le_bytes());
        s[2..4].copy_from_slice(&(-3i16).to_le_bytes());
        m.set_v(V(0), s);
        let mut d = [0u8; VLEN_BYTES];
        d[0..4].copy_from_slice(&100i32.to_le_bytes());
        m.set_v(V(1), d);
        let mut asm = Assembler::new("t");
        asm.vadalp(V(1), V(0));
        let p = asm.finish();
        m.run(&p, 10).unwrap();
        let r = i32::from_le_bytes(m.v(V(1))[0..4].try_into().unwrap());
        assert_eq!(r, 102);
    }

    #[test]
    fn vsxtl_parts() {
        let mut m = machine();
        let mut s = [0u8; VLEN_BYTES];
        s[16] = (-2i8) as u8; // part 1, lane 0
        m.set_v(V(0), s);
        let mut asm = Assembler::new("t");
        asm.vsxtl(V(1), V(0), 1);
        let p = asm.finish();
        m.run(&p, 10).unwrap();
        assert_eq!(i32::from_le_bytes(m.v(V(1))[0..4].try_into().unwrap()), -2);
    }

    #[test]
    fn vzip_interleaves_bytes() {
        let mut m = machine();
        let mut a = [0u8; VLEN_BYTES];
        let mut b = [0u8; VLEN_BYTES];
        for i in 0..VLEN_BYTES {
            a[i] = i as u8;
            b[i] = 100 + i as u8;
        }
        m.set_v(V(0), a);
        m.set_v(V(1), b);
        let mut asm = Assembler::new("t");
        asm.vzip(V(2), V(0), V(1), 1, false);
        asm.vzip(V(3), V(0), V(1), 1, true);
        let p = asm.finish();
        m.run(&p, 10).unwrap();
        assert_eq!(m.v(V(2))[0], 0);
        assert_eq!(m.v(V(2))[1], 100);
        assert_eq!(m.v(V(2))[2], 1);
        assert_eq!(m.v(V(3))[0], 32);
        assert_eq!(m.v(V(3))[1], 132);
    }

    #[test]
    fn pack_unpack_nibbles_roundtrip() {
        let mut m = machine();
        let mut a = [0u8; VLEN_BYTES];
        let mut b = [0u8; VLEN_BYTES];
        for i in 0..VLEN_BYTES {
            a[i] = ((i as i32 % 16) - 8) as i8 as u8;
            b[i] = (7 - (i as i32 % 16)) as i8 as u8;
        }
        m.set_v(V(0), a);
        m.set_v(V(1), b);
        let mut asm = Assembler::new("t");
        asm.vpack4(V(2), V(0), V(1));
        asm.vunpack4(V(3), V(2), false);
        asm.vunpack4(V(4), V(2), true);
        let p = asm.finish();
        m.run(&p, 10).unwrap();
        assert_eq!(m.v(V(3)), m.v(V(0)));
        assert_eq!(m.v(V(4)), m.v(V(1)));
    }

    #[test]
    fn smmla_matches_reference() {
        let mut m = machine();
        let mut a = [0u8; VLEN_BYTES];
        let mut b = [0u8; VLEN_BYTES];
        for i in 0..VLEN_BYTES {
            a[i] = ((i as i32 * 7 % 256) - 128) as i8 as u8;
            b[i] = ((i as i32 * 13 % 256) - 128) as i8 as u8;
        }
        m.set_v(V(0), a);
        m.set_v(V(1), b);
        m.set_v(V(2), [0u8; VLEN_BYTES]);
        let mut asm = Assembler::new("t");
        asm.smmla(V(2), V(0), V(1));
        let p = asm.finish();
        m.run(&p, 10).unwrap();
        // reference for segment 0, i=1, j=0
        let mut acc = 0i32;
        for k in 0..8 {
            acc += (a[8 + k] as i8 as i32) * (b[k] as i8 as i32);
        }
        let got = i32::from_le_bytes(m.v(V(2))[8..12].try_into().unwrap());
        assert_eq!(got, acc);
    }

    #[test]
    fn camp_i8_matches_reference_matmul() {
        let mut m = machine();
        let mut a = [0u8; VLEN_BYTES];
        let mut b = [0u8; VLEN_BYTES];
        for i in 0..VLEN_BYTES {
            a[i] = ((i as i32 * 31 % 256) - 128) as i8 as u8;
            b[i] = ((i as i32 * 17 % 256) - 128) as i8 as u8;
        }
        m.set_v(V(0), a);
        m.set_v(V(1), b);
        m.set_v(V(2), [0u8; VLEN_BYTES]);
        let mut asm = Assembler::new("t");
        asm.camp(CampMode::I8, V(2), V(0), V(1));
        asm.camp(CampMode::I8, V(2), V(0), V(1)); // accumulate twice
        let p = asm.finish();
        m.run(&p, 10).unwrap();
        // reference: C[i][j] = 2 * sum_l A[i][l] * B[l][j]
        for i in 0..4 {
            for j in 0..4 {
                let mut acc = 0i32;
                for l in 0..16 {
                    acc += (a[l * 4 + i] as i8 as i32) * (b[l * 4 + j] as i8 as i32);
                }
                let got = i32::from_le_bytes(
                    m.v(V(2))[(i * 4 + j) * 4..(i * 4 + j) * 4 + 4].try_into().unwrap(),
                );
                assert_eq!(got, 2 * acc, "tile ({i},{j})");
            }
        }
    }

    #[test]
    fn camp_i4_matches_reference_matmul() {
        let mut m = machine();
        let mut a = [0u8; VLEN_BYTES];
        let mut b = [0u8; VLEN_BYTES];
        for i in 0..VLEN_BYTES {
            a[i] = (i as u32 * 39 % 256) as u8;
            b[i] = (i as u32 * 91 % 256) as u8;
        }
        m.set_v(V(0), a);
        m.set_v(V(1), b);
        m.set_v(V(2), [0u8; VLEN_BYTES]);
        let mut asm = Assembler::new("t");
        asm.camp(CampMode::I4, V(2), V(0), V(1));
        let p = asm.finish();
        m.run(&p, 10).unwrap();
        let tile = camp_outer_product(CampMode::I4, &a, &b);
        for i in 0..4 {
            for j in 0..4 {
                let got = i32::from_le_bytes(
                    m.v(V(2))[(i * 4 + j) * 4..(i * 4 + j) * 4 + 4].try_into().unwrap(),
                );
                assert_eq!(got, tile[i][j]);
            }
        }
    }

    #[test]
    fn reset_keeps_the_installed_camp_tile() {
        // a tile that marks its work, so the test can see which one ran
        fn marked(a: &[i8], b: &[i8], acc: &mut [[i32; 4]; 4]) {
            camp_tile_ref(a, b, acc);
            acc[3][3] = acc[3][3].wrapping_add(1000);
        }
        let mut asm = Assembler::new("t");
        asm.camp(CampMode::I8, V(2), V(0), V(1));
        asm.camp(CampMode::I4, V(3), V(0), V(1));
        let p = asm.finish();
        let mut m = machine();
        m.set_camp_tile(marked);
        m.reset(1 << 12);
        m.set_v(V(0), [0x11; VLEN_BYTES]);
        m.set_v(V(1), [0x22; VLEN_BYTES]);
        m.run(&p, 10).unwrap();
        let lane = |r, i: usize| i32::from_le_bytes(m.v(r)[i * 4..i * 4 + 4].try_into().unwrap());
        assert_eq!(lane(V(2), 0), 16 * 0x11 * 0x22);
        assert_eq!(lane(V(2), 15), 16 * 0x11 * 0x22 + 1000);
        assert_eq!(lane(V(3), 0), 32 * 2);
        assert_eq!(lane(V(3), 15), 32 * 2 + 1000);
    }

    #[test]
    fn out_of_bounds_load_is_error() {
        let mut m = Machine::new(64);
        let mut asm = Assembler::new("t");
        asm.li(S(1), 32);
        asm.vload(V(0), S(1), 0); // 32+64 > 64
        let p = asm.finish();
        let err = m.run(&p, 10).unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { .. }));
    }

    #[test]
    fn step_limit_is_error() {
        let mut asm = Assembler::new("t");
        asm.label("spin");
        asm.beq(S(0), S(0), "spin");
        let p = asm.finish();
        let mut m = machine();
        assert_eq!(m.run(&p, 5).unwrap_err(), ExecError::StepLimit);
    }

    #[test]
    fn branch_ge_and_lt() {
        let mut asm = Assembler::new("t");
        asm.li(S(1), -3);
        asm.li(S(2), 2);
        asm.li(S(3), 0);
        asm.blt(S(1), S(2), "took");
        asm.li(S(3), 111); // skipped
        asm.label("took");
        asm.bge(S(2), S(1), "end");
        asm.li(S(3), 222); // skipped
        asm.label("end");
        let p = asm.finish();
        let mut m = machine();
        m.run(&p, 100).unwrap();
        assert_eq!(m.x(S(3)), 0);
    }

    #[test]
    fn rewind_preserves_state() {
        let mut asm = Assembler::new("t");
        asm.addi(S(1), S(1), 5);
        let p = asm.finish();
        let mut m = machine();
        m.run(&p, 10).unwrap();
        m.run(&p, 10).unwrap();
        assert_eq!(m.x(S(1)), 10);
    }
}
