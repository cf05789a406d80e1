//! # camp-pipeline — timing models over the virtual vector ISA
//!
//! Plays the role of gem5 (for the A64FX-like ARM SVE system) and the
//! bare-metal RTL simulation (for the edge RISC-V SoC) in the paper's
//! methodology (§5.1). The timing skeleton is the same for both cores —
//! a *dataflow + resources* model:
//!
//! * instructions dispatch in program order through a configurable-width
//!   front end, bounded by a reorder window (ROB) for the OoO core;
//! * each instruction starts when its sources are ready and a functional
//!   unit of its class is free;
//! * loads get their latency from the `camp-cache` hierarchy; vector
//!   memory operations may be micro-sequenced into multiple beats on the
//!   edge core's narrow (128-bit) memory path;
//! * stores drain through a finite store buffer;
//! * the binding constraint of every instruction is recorded as its stall
//!   cause — **FU**, **Read** (load data / load port) or **Write** (store
//!   buffer / store port) — which reproduces the taxonomy of Fig. 15.
//!
//! The in-order core additionally enforces in-order issue and blocking
//! misses; the OoO core lets independent instructions overlap within its
//! window.
//!
//! # Example
//!
//! ```
//! use camp_isa::asm::Assembler;
//! use camp_isa::reg::{S, V};
//! use camp_pipeline::{CoreConfig, Simulator};
//!
//! let mut a = Assembler::new("axpy-ish");
//! a.li(S(1), 0);
//! a.vload(V(0), S(1), 0);
//! a.vadd_i32(V(1), V(0), V(0));
//! a.vstore(V(1), S(1), 64);
//! let prog = a.finish();
//!
//! let mut sim = Simulator::new(CoreConfig::a64fx(), 1 << 12);
//! sim.run(&prog, 1_000)?;
//! assert!(sim.stats().cycles > 0);
//! # Ok::<(), camp_isa::machine::ExecError>(())
//! ```

mod config;
mod sim;
mod stats;

pub use config::NUM_FU_KINDS;
pub use config::{CoreConfig, CoreKind, FuDesc, FuKind};
pub use sim::Simulator;
pub use stats::SimStats;
