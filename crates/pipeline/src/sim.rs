//! The execution-driven timing simulator.

use crate::config::{CoreConfig, CoreKind, FuKind};
use crate::stats::{class_index, SimStats};
use camp_cache::Hierarchy;
use camp_isa::inst::{CampMode, Inst, InstClass, Program};
use camp_isa::machine::{ExecError, Machine, StepOut};
use camp_isa::reg::{ScalarReg, VectorReg};
use std::collections::VecDeque;

/// Per-program timing state (reset at each [`Simulator::run`]; caches and
/// architectural state persist).
struct Timing {
    disp_cycle: u64,
    slot_used: u32,
    ready_x: [u64; 32],
    ready_v: [u64; 32],
    x_from_load: [bool; 32],
    v_from_load: [bool; 32],
    unit_free: Vec<Vec<u64>>,
    rob: VecDeque<u64>,
    last_retire: u64,
    store_buf: VecDeque<u64>,
    last_drain: u64,
    max_finish: u64,
}

impl Timing {
    fn new(cfg: &CoreConfig) -> Self {
        let unit_free =
            FuKind::all().iter().map(|&k| vec![0u64; cfg.fu(k).count.max(1) as usize]).collect();
        Timing {
            disp_cycle: 0,
            slot_used: 0,
            ready_x: [0; 32],
            ready_v: [0; 32],
            x_from_load: [false; 32],
            v_from_load: [false; 32],
            unit_free,
            rob: VecDeque::new(),
            last_retire: 0,
            store_buf: VecDeque::new(),
            last_drain: 0,
            max_finish: 0,
        }
    }

    fn min_free(&self, kind: FuKind) -> (usize, u64) {
        let units = &self.unit_free[kind.index()];
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
/// foundation of the blocked driver: each (jc, pc) block unit
/// instantiates its own simulator (own memory, own cold caches), runs
/// deterministically, and its [`SimStats`] are folded afterwards with
/// [`SimStats::merge`] (everything adds: one core running the units
/// back to back). See `docs/SIMULATOR.md` for the merge contract.
pub struct Simulator {
    cfg: CoreConfig,
    machine: Machine,
    hier: Hierarchy,
    stats: SimStats,
    trace: bool,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator").field("core", &self.cfg.name).finish_non_exhaustive()
    }
}

impl Simulator {
    /// Create a simulator with `mem_bytes` of machine memory.
    pub fn new(cfg: CoreConfig, mem_bytes: usize) -> Self {
        Simulator {
            hier: Hierarchy::new(cfg.hierarchy),
            cfg,
            machine: Machine::new(mem_bytes),
            stats: SimStats::default(),
            trace: std::env::var_os("CAMP_SIM_TRACE").is_some(),
        }
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

    fn sources(inst: &Inst, t: &Timing) -> (u64, bool) {
        let mut ready = 0u64;
        let mut from_load = false;
        let mut upd_x = |r: ScalarReg| {
            let rd = t.ready_x[r.index()];
            if rd > ready {
                ready = rd;
                from_load = t.x_from_load[r.index()];
            }
        };
        // (separate closure borrows are fine because we only borrow t)
        match *inst {
            Inst::Li { .. } | Inst::Nop => {}
            Inst::Addi { rs, .. }
            | Inst::Slli { rs, .. }
            | Inst::Srli { rs, .. }
            | Inst::Andi { rs, .. } => upd_x(rs),
            Inst::Add { rs1, rs2, .. }
            | Inst::Sub { rs1, rs2, .. }
            | Inst::Mul { rs1, rs2, .. } => {
                upd_x(rs1);
                upd_x(rs2);
            }
            Inst::Branch { rs1, rs2, .. } => {
                upd_x(rs1);
                upd_x(rs2);
            }
            Inst::LoadS { base, .. } => upd_x(base),
            Inst::StoreS { rs, base, .. } => {
                upd_x(rs);
                upd_x(base);
            }
            Inst::VLoad { base, .. } | Inst::VLoadRep { base, .. } => upd_x(base),
            Inst::VStore { vs, base, .. } => {
                upd_x(base);
                let rd = t.ready_v[vs.index()];
                if rd > ready {
                    ready = rd;
                    from_load = t.v_from_load[vs.index()];
                }
            }
            Inst::VDup { rs, .. } => upd_x(rs),
            Inst::VZero { .. } => {}
            Inst::VBin { vd, vs1, vs2, op, .. } => {
                let mut srcs = vec![vs1, vs2];
                if matches!(op, camp_isa::inst::VOp::Mla) {
                    srcs.push(vd);
                }
                for v in srcs {
                    let rd = t.ready_v[v.index()];
                    if rd > ready {
                        ready = rd;
                        from_load = t.v_from_load[v.index()];
                    }
                }
            }
            Inst::VMull { vs1, vs2, .. }
            | Inst::VZip { vs1, vs2, .. }
            | Inst::VPack4 { vs1, vs2, .. } => {
                for v in [vs1, vs2] {
                    let rd = t.ready_v[v.index()];
                    if rd > ready {
                        ready = rd;
                        from_load = t.v_from_load[v.index()];
                    }
                }
            }
            Inst::VAdalp { vd, vs } => {
                for v in [vd, vs] {
                    let rd = t.ready_v[v.index()];
                    if rd > ready {
                        ready = rd;
                        from_load = t.v_from_load[v.index()];
                    }
                }
            }
            Inst::VSxtl { vs, .. } | Inst::VUnpack4 { vs, .. } => {
                let rd = t.ready_v[vs.index()];
                if rd > ready {
                    ready = rd;
                    from_load = t.v_from_load[vs.index()];
                }
            }
            Inst::Smmla { vd, vs1, vs2 } => {
                for v in [vd, vs1, vs2] {
                    let rd = t.ready_v[v.index()];
                    if rd > ready {
                        ready = rd;
                        from_load = t.v_from_load[v.index()];
                    }
                }
            }
            Inst::Camp { vd, vs1, vs2, .. } => {
                // vd participates through the auxiliary-register chain,
                // whose readiness is already tracked at II granularity.
                for v in [vd, vs1, vs2] {
                    let rd = t.ready_v[v.index()];
                    if rd > ready {
                        ready = rd;
                        from_load = t.v_from_load[v.index()];
                    }
                }
            }
        }
        (ready, from_load)
    }

    fn dest(inst: &Inst) -> (Option<ScalarReg>, Option<VectorReg>) {
        match *inst {
            Inst::Li { rd, .. }
            | Inst::Addi { rd, .. }
            | Inst::Add { rd, .. }
            | Inst::Sub { rd, .. }
            | Inst::Mul { rd, .. }
            | Inst::Slli { rd, .. }
            | Inst::Srli { rd, .. }
            | Inst::Andi { rd, .. }
            | Inst::LoadS { rd, .. } => (Some(rd), None),
            Inst::VLoad { vd, .. }
            | Inst::VLoadRep { vd, .. }
            | Inst::VDup { vd, .. }
            | Inst::VZero { vd }
            | Inst::VBin { vd, .. }
            | Inst::VMull { vd, .. }
            | Inst::VAdalp { vd, .. }
            | Inst::VSxtl { vd, .. }
            | Inst::VZip { vd, .. }
            | Inst::VPack4 { vd, .. }
            | Inst::VUnpack4 { vd, .. }
            | Inst::Smmla { vd, .. }
            | Inst::Camp { vd, .. } => (None, Some(vd)),
            Inst::Branch { .. } | Inst::StoreS { .. } | Inst::VStore { .. } | Inst::Nop => {
                (None, None)
            }
        }
    }

    fn time_step(&mut self, t: &mut Timing, out: &StepOut) {
        let inst = &out.inst;
        let class = inst.class();
        let kind = self.cfg.fu_kind(inst);
        let fu = self.cfg.fu(kind);
        let in_order = matches!(self.cfg.kind, CoreKind::InOrder);

        // ---- dispatch slot ----
        let mut disp = t.disp_cycle;
        if !in_order && t.rob.len() >= self.cfg.rob_size as usize {
            if let Some(oldest) = t.rob.pop_front() {
                disp = disp.max(oldest);
            }
        }

        // ---- constraints ----
        let (src_ready, src_from_load) = Self::sources(inst, t);

        // Functional units are modeled as pipelined bandwidth: each op
        // consumes one issue slot (of `occupancy` cycles) on the least-
        // loaded unit, allocated no earlier than dispatch. Execution
        // start additionally waits for source operands. (Booking the
        // slot at the dependence-delayed start instead would let one
        // late consumer idle the unit for all younger independent ops.)
        let beats = if class.is_vector() { self.cfg.vmem_beats } else { 1 };
        let occupancy = match class {
            InstClass::VLoad | InstClass::VStore | InstClass::ScalarMem => beats,
            _ => fu.ii,
        };
        let (unit_idx, unit_free) = t.min_free(kind);
        let slot = unit_free.max(disp);
        t.unit_free[kind.index()][unit_idx] = slot + occupancy as u64;
        self.stats.fu_busy[kind.index()] += occupancy as u64;
        let fu_free = slot;

        let is_store = matches!(inst, Inst::StoreS { .. } | Inst::VStore { .. });
        let mut start = disp.max(src_ready).max(fu_free);

        // store buffer: drain completed entries, wait if full
        let mut sb_bound = 0u64;
        if is_store {
            while t.store_buf.front().is_some_and(|&d| d <= start) {
                t.store_buf.pop_front();
            }
            if t.store_buf.len() >= self.cfg.store_buffer as usize {
                if let Some(&front) = t.store_buf.front() {
                    sb_bound = front;
                    start = start.max(front);
                    while t.store_buf.front().is_some_and(|&d| d <= start) {
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
            match kind {
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
        let (latency, l1_missed) = match class {
            InstClass::VLoad | InstClass::VStore | InstClass::ScalarMem => {
                let acc = out.mem.expect("memory instruction reports an access");
                let res = self.hier.access(acc.addr, acc.size, acc.is_store, out.index as u64);
                if acc.is_store {
                    // Store latency is hidden by the buffer; occupancy is
                    // the port time.
                    (1, !res.l1_hit)
                } else {
                    (res.latency + (beats - 1), !res.l1_hit)
                }
            }
            _ => (self.cfg.exec_latency(inst), false),
        };
        let finish = start + latency as u64;

        // ---- resource updates ----
        if is_store {
            let drain = t.last_drain.max(start) + self.cfg.store_drain_interval as u64;
            t.store_buf.push_back(drain);
            t.last_drain = drain;
        }

        // ---- destination readiness ----
        let (xd, vd) = Self::dest(inst);
        let is_load = matches!(class, InstClass::VLoad) || matches!(inst, Inst::LoadS { .. });
        if let Some(r) = xd {
            if r.index() != 0 {
                t.ready_x[r.index()] = finish;
                t.x_from_load[r.index()] = is_load;
            }
        }
        if let Some(v) = vd {
            // The CAMP auxiliary register accepts a new accumulation
            // every II cycles; only a non-camp consumer needs the final
            // value, which the driver reads once per tile.
            let ready =
                if matches!(inst, Inst::Camp { .. }) { start + fu.ii as u64 } else { finish };
            t.ready_v[v.index()] = ready;
            t.v_from_load[v.index()] = is_load;
        }

        // ---- retirement window ----
        if !in_order {
            let retire = t.last_retire.max(finish);
            t.rob.push_back(retire);
            t.last_retire = retire;
        }

        // ---- dispatch cursor ----
        t.slot_used += 1;
        if t.slot_used >= self.cfg.dispatch_width {
            t.disp_cycle += 1;
            t.slot_used = 0;
        }
        if in_order && start > t.disp_cycle {
            // in-order issue: later instructions cannot issue earlier
            t.disp_cycle = start;
            t.slot_used = 0;
        }
        if in_order && self.cfg.blocking_misses && l1_missed && !is_store {
            // blocking cache: the pipeline waits for the fill
            let resume = finish;
            if resume > t.disp_cycle {
                self.stats.stall_read += resume - t.disp_cycle;
                t.disp_cycle = resume;
                t.slot_used = 0;
            }
        }

        // ---- branches ----
        if let Inst::Branch { target, .. } = inst {
            let predicted_taken = (*target as u64) <= out.index as u64;
            if out.branch_taken != predicted_taken {
                self.stats.mispredicts += 1;
                let resume = start + 1 + self.cfg.mispredict_penalty as u64;
                if resume > t.disp_cycle {
                    t.disp_cycle = resume;
                    t.slot_used = 0;
                }
            }
        }

        if self.trace && self.stats.insts < 400 {
            eprintln!(
                "[trace] #{:<4} idx={:<4} {:?} disp={} src={} fu={} start={} fin={}",
                self.stats.insts,
                out.index,
                inst.class(),
                disp,
                src_ready,
                fu_free,
                start,
                finish
            );
        }

        // ---- bookkeeping ----
        self.stats.insts += 1;
        self.stats.class_counts[class_index(class)] += 1;
        self.stats.macs += inst.macs();
        if let Inst::Camp { mode, .. } = inst {
            match mode {
                CampMode::I8 => self.stats.camp_issues_i8 += 1,
                CampMode::I4 => self.stats.camp_issues_i4 += 1,
            }
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
        let mut t = Timing::new(&self.cfg);
        let mut steps: u64 = 0;
        while let Some(out) = self.machine.step(prog)? {
            steps += 1;
            if steps > max_steps {
                return Err(ExecError::StepLimit);
            }
            self.time_step(&mut t, &out);
        }
        self.stats.cycles += t.max_finish;
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
