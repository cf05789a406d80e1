//! # camp-isa — a virtual vector ISA for architecture simulation
//!
//! This crate defines the "VVA" (Virtual Vector Architecture) instruction
//! set used throughout the CAMP reproduction. It plays the role that the
//! ARM SVE ISA (plus the paper's custom `camp` instruction) and the RISC-V
//! vector subset play in the original work: a compact assembly-level
//! language in which every evaluated GeMM kernel is written, executed
//! functionally by [`machine::Machine`], and timed by the models in
//! `camp-pipeline`. A program is a vector of [`Inst`] values, which the
//! machine and the timing model read directly: the ISA has no binary
//! encoding.
//!
//! The ISA is deliberately small but complete enough to express all the
//! kernels evaluated in the paper:
//!
//! * scalar ALU, scalar memory and branch instructions (loop control,
//!   address arithmetic),
//! * unit-stride 512-bit vector loads/stores,
//! * element-wise vector arithmetic at i8/i16/i32/f32 granularity,
//!   including multiply-accumulate,
//! * widening multiplies and extensions (`vmull`, `vsxtl`) used by the
//!   gemmlowp-style baseline,
//! * Arm-style `smmla` (2×8 × 8×2 int8 matrix multiply-accumulate per
//!   128-bit segment),
//! * the paper's `camp` instruction in 8-bit and 4-bit modes, and
//! * nibble pack/unpack helpers for sub-byte data movement studies.
//!
//! # Example
//!
//! ```
//! use camp_isa::asm::Assembler;
//! use camp_isa::machine::Machine;
//! use camp_isa::reg::{S, V};
//!
//! let mut a = Assembler::new("double-words");
//! a.li(S(1), 0);          // base address
//! a.vload(V(0), S(1), 0); // v0 <- mem[0..64]
//! a.vadd_i32(V(1), V(0), V(0));
//! a.vstore(V(1), S(1), 64);
//! let prog = a.finish();
//!
//! let mut m = Machine::new(1 << 12);
//! m.write_i32(0, 21);
//! m.run(&prog, 1_000).unwrap();
//! assert_eq!(m.read_i32(64), 42);
//! ```

pub mod asm;
pub mod inst;
pub mod machine;
pub mod reg;

pub use asm::Assembler;
pub use inst::{CampMode, ElemType, Inst, InstClass, Program, VOp};
pub use machine::{ExecError, Machine, MemAccess, StepOut};
pub use reg::{ScalarReg, VectorReg, S, V};

/// Vector length in bits. The paper evaluates SVE at VL = 512 and a CAMP
/// block whose natural operand size is one 512-bit register, so the whole
/// reproduction fixes VL = 512.
pub const VLEN_BITS: usize = 512;
/// Vector length in bytes (64).
pub const VLEN_BYTES: usize = VLEN_BITS / 8;
/// Number of 64-bit lanes in the CAMP datapath (8 lanes of 64 bits).
pub const LANES: usize = VLEN_BITS / 64;
