//! The execution-driven timing simulator.

use crate::config::{CoreConfig, CoreKind, FuKind, NUM_FU_KINDS};
use crate::stats::{class_index, SimStats};
use camp_cache::Hierarchy;
use camp_isa::inst::{CampMode, Inst, InstClass, Program, VOp};
use camp_isa::machine::{ExecError, Machine, StepOut};
use camp_isa::reg::{ScalarReg, VectorReg};
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Units a functional-unit pool may have (`FuDesc::count`, and the
/// load and store port counts).
const MAX_UNITS: usize = 8;

/// Readiness slots: `xN` is slot `N`, `vN` is slot `32 + N`, and
/// [`SINK`] takes the writes of instructions without a destination.
const SLOTS: usize = 65;
const SINK: u8 = 64;

/// Whether `CAMP_SIM_TRACE` is set, read once per process.
fn trace_enabled() -> bool {
    static TRACE: OnceLock<bool> = OnceLock::new();
    *TRACE.get_or_init(|| std::env::var_os("CAMP_SIM_TRACE").is_some())
}

/// What the timing model needs of one static instruction, decoded once
/// per [`Simulator::run`].
#[derive(Clone, Copy)]
struct Decoded {
    class: InstClass,
    /// The unit pool; the load and store ports mark memory instructions.
    kind: FuKind,
    /// Cycles the instruction holds its unit.
    occupancy: u32,
    /// Execution latency; for a load, the beats after the first (added
    /// to the hierarchy's latency); for a store, 1 (the buffer hides the
    /// rest; occupancy is the port time).
    latency: u32,
    /// Source slots in scan order: the first source with the latest
    /// ready time decides whether a stall waited on a load. Padded with
    /// `x0`, which is never written, so it is always ready at cycle 0
    /// and never wins the scan's strict `>`.
    srcs: [u8; 3],
    /// Destination slot ([`SINK`] for none, and for `x0`).
    dest: u8,
    /// The mode of a `camp` issue.
    camp: Option<CampMode>,
    /// A branch's static prediction: backward taken, forward not.
    predict_taken: Option<bool>,
    macs: u64,
}

impl Decoded {
    fn new(cfg: &CoreConfig, index: usize, inst: &Inst) -> Self {
        let class = inst.class();
        let kind = cfg.fu_kind(inst);
        let beats = if class.is_vector() { cfg.vmem_beats } else { 1 };
        let (srcs, dest) = operands(inst);
        Decoded {
            class,
            kind,
            occupancy: match kind {
                FuKind::LoadPort | FuKind::StorePort => beats,
                _ => cfg.fu(kind).ii,
            },
            latency: match kind {
                FuKind::LoadPort => beats - 1,
                FuKind::StorePort => 1,
                _ => cfg.exec_latency(inst),
            },
            srcs,
            dest,
            camp: match *inst {
                Inst::Camp { mode, .. } => Some(mode),
                _ => None,
            },
            predict_taken: match *inst {
                Inst::Branch { target, .. } => Some(target as usize <= index),
                _ => None,
            },
            macs: inst.macs(),
        }
    }
}

/// The source slots (see [`Decoded::srcs`]) and destination slot of
/// `inst`.
fn operands(inst: &Inst) -> ([u8; 3], u8) {
    let x = |r: ScalarReg| r.0;
    let xd = |r: ScalarReg| if r.0 == 0 { SINK } else { r.0 };
    let v = |r: VectorReg| 32 + r.0;
    match *inst {
        Inst::Nop => ([0; 3], SINK),
        Inst::Li { rd, .. } => ([0; 3], xd(rd)),
        Inst::Addi { rd, rs, .. }
        | Inst::Slli { rd, rs, .. }
        | Inst::Srli { rd, rs, .. }
        | Inst::Andi { rd, rs, .. } => ([x(rs), 0, 0], xd(rd)),
        Inst::Add { rd, rs1, rs2 } | Inst::Sub { rd, rs1, rs2 } | Inst::Mul { rd, rs1, rs2 } => {
            ([x(rs1), x(rs2), 0], xd(rd))
        }
        Inst::Branch { rs1, rs2, .. } => ([x(rs1), x(rs2), 0], SINK),
        Inst::LoadS { rd, base, .. } => ([x(base), 0, 0], xd(rd)),
        Inst::StoreS { rs, base, .. } => ([x(rs), x(base), 0], SINK),
        Inst::VLoad { vd, base, .. } | Inst::VLoadRep { vd, base, .. } => ([x(base), 0, 0], v(vd)),
        Inst::VStore { vs, base, .. } => ([x(base), v(vs), 0], SINK),
        Inst::VDup { vd, rs, .. } => ([x(rs), 0, 0], v(vd)),
        Inst::VZero { vd } => ([0; 3], v(vd)),
        Inst::VBin { op: VOp::Mla, vd, vs1, vs2, .. } => ([v(vs1), v(vs2), v(vd)], v(vd)),
        Inst::VBin { vd, vs1, vs2, .. }
        | Inst::VMull { vd, vs1, vs2, .. }
        | Inst::VZip { vd, vs1, vs2, .. }
        | Inst::VPack4 { vd, vs1, vs2 } => ([v(vs1), v(vs2), 0], v(vd)),
        Inst::VAdalp { vd, vs } => ([v(vd), v(vs), 0], v(vd)),
        Inst::VSxtl { vd, vs, .. } | Inst::VUnpack4 { vd, vs, .. } => ([v(vs), 0, 0], v(vd)),
        // smmla accumulates into vd; a camp's vd participates through
        // the auxiliary-register chain, whose readiness is tracked at II
        // granularity
        Inst::Smmla { vd, vs1, vs2 } | Inst::Camp { vd, vs1, vs2, .. } => {
            ([v(vd), v(vs1), v(vs2)], v(vd))
        }
    }
}

/// Per-program timing state, reset at each [`Simulator::run`] (caches
/// and architectural state persist); the queues keep their capacity.
struct Timing {
    disp_cycle: u64,
    slot_used: u32,
    ready: [u64; SLOTS],
    from_load: [bool; SLOTS],
    unit_free: [[u64; MAX_UNITS]; NUM_FU_KINDS],
    rob: VecDeque<u64>,
    last_retire: u64,
    store_buf: VecDeque<u64>,
    last_drain: u64,
    max_finish: u64,
}

impl Timing {
    fn new() -> Self {
        Timing {
            disp_cycle: 0,
            slot_used: 0,
            ready: [0; SLOTS],
            from_load: [false; SLOTS],
            unit_free: [[0; MAX_UNITS]; NUM_FU_KINDS],
            rob: VecDeque::new(),
            last_retire: 0,
            store_buf: VecDeque::new(),
            last_drain: 0,
            max_finish: 0,
        }
    }

    fn reset(&mut self) {
        let (mut rob, mut store_buf) =
            (std::mem::take(&mut self.rob), std::mem::take(&mut self.store_buf));
        rob.clear();
        store_buf.clear();
        *self = Timing { rob, store_buf, ..Timing::new() };
    }

    /// The first of the `units` units of pool `kind` to come free, and
    /// when.
    fn min_free(&self, kind: usize, units: usize) -> (usize, u64) {
        let units = &self.unit_free[kind][..units];
        let mut best = 0;
        for (i, &f) in units.iter().enumerate() {
            if f < units[best] {
                best = i;
            }
        }
        (best, units[best])
    }
}

enum StallCause {
    None,
    Fu,
    Read,
    Write,
}

/// Execution-driven simulator: functional machine + cache hierarchy +
/// core timing model.
///
/// Architectural state (registers, memory) and cache contents persist
/// across [`run`](Simulator::run) calls so a host-side driver can execute
/// packing programs and macro-kernels back to back, the way the paper's
/// blocked GeMM executes; statistics accumulate into [`stats`](Simulator::stats)
/// (cycle spans add up).
///
/// A `Simulator` owns all of its state and shares nothing, which is the
/// foundation of the blocked driver: each (jc, pc) block unit starts
/// from the freshly built state (the driver [`reset`](Simulator::reset)s
/// one simulator between units: zeroed memory, cold caches), runs
/// deterministically, and its [`SimStats`] are folded afterwards with
/// [`SimStats::merge`] (everything adds: one core running the units
/// back to back). See `docs/SIMULATOR.md` for the merge contract.
pub struct Simulator {
    cfg: CoreConfig,
    machine: Machine,
    hier: Hierarchy,
    stats: SimStats,
    /// Units per pool, by [`FuKind::index`].
    units: [usize; NUM_FU_KINDS],
    /// The running program, one entry per static instruction.
    decoded: Vec<Decoded>,
    timing: Timing,
    trace: bool,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator").field("core", &self.cfg.name).finish_non_exhaustive()
    }
}

impl Simulator {
    /// Create a simulator with `mem_bytes` of machine memory.
    ///
    /// # Panics
    /// Panics if a functional-unit pool of `cfg` has more than 8 units.
    pub fn new(cfg: CoreConfig, mem_bytes: usize) -> Self {
        let units = FuKind::all().map(|k| cfg.fu(k).count.max(1) as usize);
        for (k, &n) in FuKind::all().iter().zip(&units) {
            assert!(n <= MAX_UNITS, "{} pool has {n} units, more than {MAX_UNITS}", k.name());
        }
        Simulator {
            hier: Hierarchy::new(cfg.hierarchy),
            cfg,
            machine: Machine::new(mem_bytes),
            stats: SimStats::default(),
            units,
            decoded: Vec::new(),
            timing: Timing::new(),
            trace: trace_enabled(),
        }
    }

    /// Return to the state of `Simulator::new(cfg, mem_bytes)` with this
    /// simulator's configuration: zeroed memory, zero registers, cold
    /// caches, untrained prefetchers and zero statistics. Keeps the
    /// allocations, which is what it is for: a driver reuses one
    /// simulator for many independent runs. Keeps the machine's `camp`
    /// tile too ([`Machine::set_camp_tile`]): it changes no result.
    pub fn reset(&mut self, mem_bytes: usize) {
        self.machine.reset(mem_bytes);
        self.hier.clear();
        self.stats = SimStats::default();
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Mutable access to the architectural machine (workload setup and
    /// result inspection).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The architectural machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Reset accumulated statistics (cache contents and architectural
    /// state are preserved, so this discards warmup).
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
        self.hier.reset_stats();
    }

    fn time_step(&mut self, out: &StepOut) {
        let d = self.decoded[out.index as usize];
        let cfg = &self.cfg;
        let t = &mut self.timing;
        let in_order = matches!(cfg.kind, CoreKind::InOrder);
        let is_load = d.kind == FuKind::LoadPort;
        let is_store = d.kind == FuKind::StorePort;

        // ---- dispatch slot ----
        let mut disp = t.disp_cycle;
        if !in_order && t.rob.len() >= cfg.rob_size as usize {
            if let Some(oldest) = t.rob.pop_front() {
                disp = disp.max(oldest);
            }
        }

        // ---- constraints ----
        let (mut src_ready, mut src_from_load) = (0u64, false);
        for &s in &d.srcs {
            let ready = t.ready[s as usize];
            if ready > src_ready {
                src_ready = ready;
                src_from_load = t.from_load[s as usize];
            }
        }

        // Functional units are modeled as pipelined bandwidth: each op
        // consumes one issue slot (of `occupancy` cycles) on the least-
        // loaded unit, allocated no earlier than dispatch. Execution
        // start additionally waits for source operands. (Booking the
        // slot at the dependence-delayed start instead would let one
        // late consumer idle the unit for all younger independent ops.)
        let kind = d.kind.index();
        let (unit_idx, unit_free) = t.min_free(kind, self.units[kind]);
        let slot = unit_free.max(disp);
        t.unit_free[kind][unit_idx] = slot + d.occupancy as u64;
        self.stats.fu_busy[kind] += d.occupancy as u64;
        let fu_free = slot;

        let mut start = disp.max(src_ready).max(fu_free);

        // store buffer: drain completed entries, wait if full
        let mut sb_bound = 0u64;
        if is_store {
            while t.store_buf.front().is_some_and(|&drain| drain <= start) {
                t.store_buf.pop_front();
            }
            if t.store_buf.len() >= cfg.store_buffer as usize {
                if let Some(&front) = t.store_buf.front() {
                    sb_bound = front;
                    start = start.max(front);
                    while t.store_buf.front().is_some_and(|&drain| drain <= start) {
                        t.store_buf.pop_front();
                    }
                }
            }
        }

        // ---- stall attribution ----
        let cause = if start <= disp {
            StallCause::None
        } else if sb_bound == start {
            StallCause::Write
        } else if fu_free == start {
            match d.kind {
                FuKind::LoadPort => StallCause::Read,
                FuKind::StorePort => StallCause::Write,
                _ => StallCause::Fu,
            }
        } else if src_from_load {
            StallCause::Read
        } else {
            StallCause::Fu
        };
        let stall = start.saturating_sub(disp);
        match cause {
            StallCause::None => {}
            StallCause::Fu => self.stats.stall_fu += stall,
            StallCause::Read => self.stats.stall_read += stall,
            StallCause::Write => self.stats.stall_write += stall,
        }

        // ---- latency ----
        let mut l1_missed = false;
        let latency = if is_load || is_store {
            let acc = out.mem.expect("memory instruction reports an access");
            let res = self.hier.access(acc.addr, acc.size, acc.is_store, out.index as u64);
            l1_missed = !res.l1_hit;
            if is_store {
                d.latency
            } else {
                res.latency + d.latency
            }
        } else {
            d.latency
        };
        let finish = start + latency as u64;

        // ---- resource updates ----
        if is_store {
            let drain = t.last_drain.max(start) + cfg.store_drain_interval as u64;
            t.store_buf.push_back(drain);
            t.last_drain = drain;
        }

        // ---- destination readiness ----
        // The CAMP auxiliary register accepts a new accumulation every
        // II cycles; only a non-camp consumer needs the final value,
        // which the driver reads once per tile.
        t.ready[d.dest as usize] =
            if d.camp.is_some() { start + d.occupancy as u64 } else { finish };
        t.from_load[d.dest as usize] = is_load;

        // ---- retirement window ----
        if !in_order {
            let retire = t.last_retire.max(finish);
            t.rob.push_back(retire);
            t.last_retire = retire;
        }

        // ---- dispatch cursor ----
        t.slot_used += 1;
        if t.slot_used >= cfg.dispatch_width {
            t.disp_cycle += 1;
            t.slot_used = 0;
        }
        if in_order && start > t.disp_cycle {
            // in-order issue: later instructions cannot issue earlier
            t.disp_cycle = start;
            t.slot_used = 0;
        }
        if in_order && cfg.blocking_misses && l1_missed && !is_store {
            // blocking cache: the pipeline waits for the fill
            let resume = finish;
            if resume > t.disp_cycle {
                self.stats.stall_read += resume - t.disp_cycle;
                t.disp_cycle = resume;
                t.slot_used = 0;
            }
        }

        // ---- branches ----
        if let Some(predicted_taken) = d.predict_taken {
            if out.branch_taken != predicted_taken {
                self.stats.mispredicts += 1;
                let resume = start + 1 + cfg.mispredict_penalty as u64;
                if resume > t.disp_cycle {
                    t.disp_cycle = resume;
                    t.slot_used = 0;
                }
            }
        }

        if self.trace && self.stats.insts < 400 {
            eprintln!(
                "[trace] #{:<4} idx={:<4} {:?} disp={} src={} fu={} start={} fin={}",
                self.stats.insts, out.index, d.class, disp, src_ready, fu_free, start, finish
            );
        }

        // ---- bookkeeping ----
        self.stats.insts += 1;
        self.stats.class_counts[class_index(d.class)] += 1;
        self.stats.macs += d.macs;
        match d.camp {
            Some(CampMode::I8) => self.stats.camp_issues_i8 += 1,
            Some(CampMode::I4) => self.stats.camp_issues_i4 += 1,
            None => {}
        }
        t.max_finish = t.max_finish.max(finish);
    }

    /// Execute `prog` to completion, accumulating statistics.
    ///
    /// # Errors
    /// Propagates [`ExecError`] from the functional machine, including
    /// `StepLimit` if `max_steps` is exhausted.
    pub fn run(&mut self, prog: &Program, max_steps: u64) -> Result<(), ExecError> {
        self.machine.rewind();
        self.timing.reset();
        let cfg = &self.cfg;
        self.decoded.clear();
        self.decoded.extend(prog.insts().iter().enumerate().map(|(i, x)| Decoded::new(cfg, i, x)));
        let mut steps: u64 = 0;
        while let Some(out) = self.machine.step(prog)? {
            steps += 1;
            if steps > max_steps {
                return Err(ExecError::StepLimit);
            }
            self.time_step(&out);
        }
        self.stats.cycles += self.timing.max_finish;
        // snapshot cache state (totals, not deltas)
        self.stats.l1d = *self.hier.l1d().stats();
        self.stats.l2 = *self.hier.l2().stats();
        self.stats.mem_reads = self.hier.mem_reads();
        self.stats.mem_writes = self.hier.mem_writes();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_isa::asm::Assembler;
    use camp_isa::inst::{CampMode, ElemType};
    use camp_isa::reg::{S, V};

    fn run_on(cfg: CoreConfig, prog: &Program) -> SimStats {
        let mut sim = Simulator::new(cfg, 1 << 20);
        sim.run(prog, 10_000_000).unwrap();
        *sim.stats()
    }

    #[test]
    fn empty_program_costs_nothing() {
        let prog = Assembler::new("empty").finish();
        let s = run_on(CoreConfig::a64fx(), &prog);
        assert_eq!(s.cycles, 0);
        assert_eq!(s.insts, 0);
    }

    #[test]
    fn single_issue_inorder_is_at_least_one_cycle_per_inst() {
        let mut a = Assembler::new("t");
        for _ in 0..100 {
            a.nop();
        }
        let s = run_on(CoreConfig::edge_riscv(), &a.finish());
        assert!(s.cycles >= 99, "got {}", s.cycles);
    }

    #[test]
    fn ooo_overlaps_independent_work() {
        // 64 independent vector adds: the OoO core with 2 VALU pipes
        // should finish much faster than 64 serial latencies.
        let mut a = Assembler::new("t");
        a.vzero(V(0));
        for i in 0..8 {
            for _ in 0..8 {
                a.vbin(camp_isa::inst::VOp::Add, ElemType::I32, V(1 + i), V(0), V(0));
            }
        }
        let s = run_on(CoreConfig::a64fx(), &a.finish());
        // 64 adds / 2 pipes = 32 cycles + latency tail
        assert!(s.cycles < 64, "OoO too slow: {}", s.cycles);
    }

    #[test]
    fn dependent_chain_is_latency_bound() {
        let mut a = Assembler::new("t");
        a.vzero(V(0));
        a.vzero(V(1));
        for _ in 0..32 {
            a.vmla_i32(V(1), V(1), V(0)); // vd is also a source: serial chain
        }
        let s = run_on(CoreConfig::a64fx(), &a.finish());
        let lat = CoreConfig::a64fx().vmul.latency as u64;
        assert!(s.cycles >= 32 * (lat - 1), "chain not serialized: {}", s.cycles);
    }

    #[test]
    fn camp_back_to_back_has_unit_ii() {
        let mut a = Assembler::new("t");
        a.vzero(V(0));
        a.vzero(V(1));
        a.vzero(V(2));
        for _ in 0..128 {
            a.camp(CampMode::I8, V(2), V(0), V(1));
        }
        let s = run_on(CoreConfig::a64fx(), &a.finish());
        // II=1 accumulation chain: ~128 cycles, NOT 128×latency
        assert!(s.cycles < 200, "aux-register chaining broken: {}", s.cycles);
        assert_eq!(s.camp_issues_i8, 128);
    }

    #[test]
    fn load_misses_block_the_edge_core() {
        let mut a = Assembler::new("t");
        a.li(S(1), 0);
        for i in 0..8 {
            a.vload(V(i), S(1), (i as i64) * 4096); // all cold misses
        }
        let s = run_on(CoreConfig::edge_riscv(), &a.finish());
        // each miss costs ~ 2+12+80 cycles, serialized
        assert!(s.cycles > 8 * 80, "blocking misses not modeled: {}", s.cycles);
        assert!(s.stall_read > 0);
    }

    #[test]
    fn store_pressure_attributes_write_stalls() {
        let cfg = CoreConfig { store_buffer: 2, store_drain_interval: 8, ..CoreConfig::a64fx() };
        let mut a = Assembler::new("t");
        a.li(S(1), 0);
        a.vzero(V(0));
        for i in 0..64 {
            a.vstore(V(0), S(1), i * 64);
        }
        let mut sim = Simulator::new(cfg, 1 << 20);
        sim.run(&a.finish(), 100_000).unwrap();
        assert!(sim.stats().stall_write > 0, "no write stalls recorded");
    }

    #[test]
    fn fu_busy_rate_saturates_on_mla_loop() {
        let mut a = Assembler::new("t");
        a.vzero(V(0));
        for i in 1..=16 {
            a.vzero(V(i));
        }
        for _ in 0..64 {
            for i in 0..16 {
                a.vmla_i32(V(1 + i), V(0), V(0));
            }
        }
        let s = run_on(CoreConfig::a64fx(), &a.finish());
        let rate = s.fu_busy_rate(FuKind::VMul, 2);
        assert!(rate > 0.8, "vmul should be saturated, rate {rate}");
    }

    #[test]
    fn loop_exit_counts_one_mispredict() {
        let mut a = Assembler::new("t");
        a.li(S(1), 10);
        a.label("top");
        a.addi(S(1), S(1), -1);
        a.bne(S(1), S(0), "top");
        let s = run_on(CoreConfig::a64fx(), &a.finish());
        assert_eq!(s.mispredicts, 1);
    }

    #[test]
    fn stats_accumulate_across_runs() {
        let mut a = Assembler::new("t");
        a.nop();
        a.nop();
        let p = a.finish();
        let mut sim = Simulator::new(CoreConfig::a64fx(), 1 << 12);
        sim.run(&p, 100).unwrap();
        let c1 = sim.stats().insts;
        sim.run(&p, 100).unwrap();
        assert_eq!(sim.stats().insts, c1 * 2);
    }

    #[test]
    fn reset_stats_clears() {
        let mut a = Assembler::new("t");
        a.nop();
        let p = a.finish();
        let mut sim = Simulator::new(CoreConfig::a64fx(), 1 << 12);
        sim.run(&p, 100).unwrap();
        sim.reset_stats();
        assert_eq!(sim.stats().insts, 0);
        assert_eq!(sim.stats().l1d.accesses, 0);
    }

    #[test]
    fn functional_results_survive_timing() {
        // timing must not disturb architectural results
        let mut a = Assembler::new("t");
        a.li(S(1), 0);
        a.li(S(2), 7);
        a.vdup(ElemType::I32, V(0), S(2));
        a.vmla_i32(V(1), V(0), V(0));
        a.vstore(V(1), S(1), 0);
        let p = a.finish();
        let mut sim = Simulator::new(CoreConfig::edge_riscv(), 1 << 12);
        sim.run(&p, 1000).unwrap();
        assert_eq!(sim.machine().read_i32(0), 49);
    }

    /// `rows` iterations over `stride`-spaced rows from `base` — a scalar
    /// and a vector load and store each, accumulating into registers the
    /// program never initialises — then both accumulators stored at
    /// fixed addresses. Stale memory, registers, cache lines, prefetcher
    /// strides or store-buffer entries all change what a run reports.
    fn strided(base: i64, stride: i64, rows: i64) -> Program {
        let mut a = Assembler::new("strided");
        a.li(S(1), base);
        a.li(S(2), rows);
        a.label("top");
        a.load_s(S(3), S(1), 64, 4);
        a.add(S(5), S(5), S(3));
        a.store_s(S(5), S(1), 128, 8);
        a.vload(V(1), S(1), 64);
        a.vadd_i32(V(2), V(2), V(1));
        a.vstore(V(2), S(1), 0);
        a.addi(S(1), S(1), stride);
        a.addi(S(2), S(2), -1);
        a.bne(S(2), S(0), "top");
        a.store_s(S(5), S(0), 0x7f00, 8);
        a.vstore(V(2), S(0), 0x7f40);
        a.finish()
    }

    #[test]
    fn reset_restores_the_freshly_built_state() {
        // P2 continues P1's stride, so a stale prefetcher would fire early
        let (p1, p2) = (strided(0, 256, 24), strided(24 * 256, 256, 20));
        let store_pressure =
            CoreConfig { store_buffer: 2, store_drain_interval: 8, ..CoreConfig::a64fx() };
        // every access misses L1, so the L2 prefetcher trains
        let mut l2_prefetch = CoreConfig::a64fx();
        l2_prefetch.hierarchy.l1d.prefetch = false;
        for cfg in [CoreConfig::a64fx(), CoreConfig::edge_riscv(), store_pressure, l2_prefetch] {
            let mut used = Simulator::new(cfg, 1 << 16);
            used.machine_mut().mem_mut(0, 1 << 16).fill(0x5a);
            used.run(&p1, 100_000).unwrap();
            used.reset(1 << 15);
            used.run(&p2, 100_000).unwrap();
            let mut fresh = Simulator::new(cfg, 1 << 15);
            fresh.run(&p2, 100_000).unwrap();
            assert_eq!(used.stats(), fresh.stats(), "{}: stats after reset", cfg.name);
            assert_eq!(used.machine().mem_len(), 1 << 15);
            assert!(
                used.machine().mem(0, 1 << 15) == fresh.machine().mem(0, 1 << 15),
                "{}: memory after reset",
                cfg.name
            );
        }
        // the store-buffer config really waits on it
        let mut sim = Simulator::new(store_pressure, 1 << 15);
        sim.run(&p2, 100_000).unwrap();
        assert!(sim.stats().stall_write > 0);
    }

    #[test]
    fn reset_keeps_the_machines_camp_tile() {
        // a tile that marks its work, so the test can see which one ran
        fn marked(a: &[i8], b: &[i8], acc: &mut [[i32; 4]; 4]) {
            camp_isa::machine::camp_tile_ref(a, b, acc);
            acc[0][0] = acc[0][0].wrapping_add(1000);
        }
        let mut a = Assembler::new("t");
        a.camp(CampMode::I8, V(2), V(0), V(1));
        let p = a.finish();
        let mut sim = Simulator::new(CoreConfig::a64fx(), 1 << 12);
        sim.machine_mut().set_camp_tile(marked);
        sim.reset(1 << 12);
        sim.run(&p, 10).unwrap();
        assert_eq!(sim.machine().v(V(2))[..4], 1000i32.to_le_bytes());
    }

    #[test]
    fn step_limit_reported() {
        let mut a = Assembler::new("t");
        a.label("spin");
        a.beq(S(0), S(0), "spin");
        let p = a.finish();
        let mut sim = Simulator::new(CoreConfig::a64fx(), 1 << 12);
        assert!(matches!(sim.run(&p, 10), Err(ExecError::StepLimit)));
    }
}
