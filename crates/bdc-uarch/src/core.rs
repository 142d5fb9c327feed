//! The cycle-level out-of-order superscalar core.
//!
//! An execute-at-issue model with ROB-based renaming: values live in ROB
//! entries, the map table points architectural registers at in-flight
//! producers, and retirement drains into the architectural register file.
//! The model is *value-accurate* — every retired instruction's effects are
//! the real ISA semantics, which lets the test suite lock-step it against
//! the in-order golden model.
//!
//! Timing behaviour relevant to the paper's experiments:
//!
//! * branch mispredictions flush and refetch, paying the full front-end
//!   depth ([`crate::config::StagePlan::front_latency`]) plus issue/regread stages — the
//!   IPC cost of deeper pipelines (§5.3);
//! * issue bandwidth is limited by the execution pipes (1 memory, 1
//!   control, N ALU) — the IPC benefit of wider back ends (§5.4);
//! * fetch/dispatch bandwidth is the front-end width.

use std::collections::VecDeque;

use crate::asm::Program;
use crate::bpred::{Bpred, Prediction};
use crate::config::CoreConfig;
use crate::func::execute;
use crate::isa::{Instr, Op, Reg};
use crate::mem::{Cache, Memory};
use crate::stats::SimStats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exec {
    Waiting,
    Executing,
    Done,
}

#[derive(Debug, Clone)]
struct RobEntry {
    seq: u64,
    pc: u32,
    instr: Instr,
    state: Exec,
    /// Producer seq per source register, captured at rename.
    producers: [Option<u64>; 2],
    /// Destination value once executed.
    value: Option<u32>,
    /// Store address/data once the store executes.
    store: Option<(u32, u32)>,
    /// Next PC resolved at issue (read for control instructions).
    actual_next: u32,
    /// Cycle the result becomes visible.
    complete_at: u64,
    /// Predicted next PC (for control instructions).
    pred_next: u32,
    /// PHT index used by the prediction, for aligned training.
    pht_index: Option<usize>,
    in_iq: bool,
}

#[derive(Debug, Clone)]
struct FrontEntry {
    pc: u32,
    instr: Instr,
    pred_next: u32,
    pht_index: Option<usize>,
    ready_at: u64,
}

/// The out-of-order core simulator.
#[derive(Debug)]
pub struct OooCore {
    cfg: CoreConfig,
    code: Vec<Instr>,
    mem: Memory,
    arch_regs: [u32; 16],
    bpred: Bpred,
    icache: Cache,
    dcache: Cache,

    cycle: u64,
    next_seq: u64,
    fetch_pc: u32,
    fetch_stall_until: u64,
    fetch_stopped: bool,
    front: VecDeque<FrontEntry>,
    rob: VecDeque<RobEntry>,
    head_seq: u64,
    map: [Option<u64>; 16],
    /// Busy-until cycle per pipe: [mem, ctrl, alu0, alu1, …].
    pipe_busy: Vec<u64>,
    /// ROB entries still in the issue queue (`in_iq`).
    iq_len: usize,
    /// Memory ops in the ROB that are not yet `Done`.
    lsq_len: usize,
    /// Lower bound on `complete_at` over `Executing` entries.
    next_complete: u64,
    /// Something may have become issuable since the last issue scan.
    wake: bool,
    halted: bool,
    stats: SimStats,
}

impl OooCore {
    /// Builds a core for `program` with `mem_words` of memory.
    pub fn new(program: &Program, cfg: CoreConfig, mem_words: usize) -> Self {
        let pipes = 2 + cfg.alu_pipes;
        OooCore {
            code: program.code.clone(),
            mem: Memory::for_program(program, mem_words),
            arch_regs: [0; 16],
            bpred: Bpred::new(cfg.bpred),
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            cycle: 0,
            next_seq: 0,
            fetch_pc: 0,
            fetch_stall_until: 0,
            fetch_stopped: false,
            front: VecDeque::new(),
            rob: VecDeque::new(),
            head_seq: 0,
            map: [None; 16],
            pipe_busy: vec![0; pipes],
            iq_len: 0,
            lsq_len: 0,
            next_complete: u64::MAX,
            wake: false,
            halted: false,
            cfg,
            stats: SimStats::default(),
        }
    }

    /// Architectural register state (for test comparison).
    pub fn arch_regs(&self) -> &[u32; 16] {
        &self.arch_regs
    }

    /// Data memory (for test comparison).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Has HALT retired?
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Runs until HALT retires or `max_instructions` retire (or a safety
    /// cycle cap of 200× the instruction budget). Returns statistics.
    pub fn run(&mut self, max_instructions: u64) -> SimStats {
        let cycle_cap = self.cycle + max_instructions.saturating_mul(200) + 10_000;
        let target = self.stats.instructions + max_instructions;
        while !self.halted && self.stats.instructions < target && self.cycle < cycle_cap {
            self.tick();
        }
        self.stats.icache = self.icache.stats();
        self.stats.dcache = self.dcache.stats();
        self.stats
    }

    /// Statistics so far.
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.icache = self.icache.stats();
        s.dcache = self.dcache.stats();
        s
    }

    fn rob_index(&self, seq: u64) -> Option<usize> {
        if seq < self.head_seq {
            return None;
        }
        let idx = (seq - self.head_seq) as usize;
        (idx < self.rob.len()).then_some(idx)
    }

    fn tick(&mut self) {
        self.complete();
        self.retire();
        self.issue();
        self.dispatch();
        self.fetch();
        self.cycle += 1;
        self.stats.cycles = self.cycle;
    }

    // ---- writeback / branch resolution -------------------------------------

    fn complete(&mut self) {
        let cycle = self.cycle;
        if cycle < self.next_complete {
            return;
        }
        // Collect completions in age order to resolve the oldest mispredict.
        let mut flush_after: Option<(u64, u32)> = None;
        let mut next_complete = u64::MAX;
        for i in 0..self.rob.len() {
            let e = &mut self.rob[i];
            if e.state != Exec::Executing {
                continue;
            }
            if e.complete_at > cycle {
                next_complete = next_complete.min(e.complete_at);
                continue;
            }
            e.state = Exec::Done;
            self.wake = true;
            if e.instr.op.is_mem() {
                self.lsq_len -= 1;
            }
            if e.instr.op.is_control() {
                let actual_next = e.actual_next;
                let taken = actual_next != e.pc.wrapping_add(1);
                let mispredicted = actual_next != e.pred_next;
                let (pc, op, pht, seq) = (e.pc, e.instr.op, e.pht_index, e.seq);
                self.bpred
                    .update(pc, op, taken, actual_next, mispredicted, pht);
                if mispredicted {
                    self.stats.mispredicts += 1;
                    if flush_after.is_none_or(|(s, _)| seq < s) {
                        flush_after = Some((seq, actual_next));
                    }
                }
            }
        }
        self.next_complete = next_complete;
        if let Some((seq, correct_pc)) = flush_after {
            self.flush_younger_than(seq, correct_pc);
        }
    }

    fn flush_younger_than(&mut self, seq: u64, correct_pc: u32) {
        self.stats.flushes += 1;
        while let Some(back) = self.rob.back() {
            if back.seq <= seq {
                break;
            }
            self.iq_len -= usize::from(back.in_iq);
            self.lsq_len -= usize::from(back.instr.op.is_mem() && back.state != Exec::Done);
            self.rob.pop_back();
        }
        // Keep ROB seqs contiguous: squashed sequence numbers are reused.
        self.next_seq = seq + 1;
        self.front.clear();
        self.fetch_pc = correct_pc;
        self.fetch_stopped = correct_pc as usize >= self.code.len();
        self.fetch_stall_until = 0;
        // Rebuild the map table from surviving producers.
        self.map = [None; 16];
        for e in &self.rob {
            if let Some(rd) = e.instr.dest() {
                self.map[rd.0 as usize] = Some(e.seq);
            }
        }
    }

    // ---- retire -------------------------------------------------------------

    fn retire(&mut self) {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            if head.state != Exec::Done {
                break;
            }
            let e = self.rob.pop_front().expect("head exists");
            self.head_seq = e.seq + 1;
            self.stats.instructions += 1;
            match e.instr.op {
                Op::Sw => {
                    let (addr, data) = e.store.expect("store executed");
                    self.mem.write(addr, data);
                    self.dcache.access(addr);
                    self.stats.stores += 1;
                }
                Op::Lw => self.stats.loads += 1,
                Op::Halt => {
                    self.halted = true;
                    return;
                }
                op if op.is_branch() => self.stats.branches += 1,
                _ => {}
            }
            if let Some(rd) = e.instr.dest() {
                self.arch_regs[rd.0 as usize] = e.value.expect("dest value present");
                // Free the mapping if it still points at this instruction.
                if self.map[rd.0 as usize] == Some(e.seq) {
                    self.map[rd.0 as usize] = None;
                }
            }
        }
    }

    // ---- issue / execute ----------------------------------------------------

    /// Reads a source value: from the producer's ROB entry when in flight,
    /// else from the architectural file.
    fn source_value(&self, reg: Reg, producer: Option<u64>) -> u32 {
        if let Some(seq) = producer {
            if let Some(idx) = self.rob_index(seq) {
                return self.rob[idx].value.expect("producer done before issue");
            }
        }
        self.arch_regs[reg.0 as usize]
    }

    fn producer_ready(&self, producer: Option<u64>) -> bool {
        match producer {
            None => true,
            Some(seq) => match self.rob_index(seq) {
                None => true, // retired
                Some(idx) => self.rob[idx].state == Exec::Done,
            },
        }
    }

    /// Issues ready entries oldest first. The scan runs only after a wake:
    /// an entry reached `Done`, dispatch added an IQ entry, or a ready
    /// entry found its pipes busy. Flush and retire remove only younger or
    /// `Done` entries, so neither can make a waiting entry issuable.
    fn issue(&mut self) {
        if !self.wake {
            return;
        }
        self.wake = false;
        // An older store has not issued, so its address is still unknown.
        let mut store_pending = false;
        for i in 0..self.rob.len() {
            let e = &self.rob[i];
            if e.state != Exec::Waiting || !e.in_iq {
                continue;
            }
            let is_store = e.instr.op == Op::Sw;
            let issued = self.try_issue(i, store_pending);
            store_pending |= is_store && !issued;
        }
    }

    /// Issues the waiting entry at `i` if its sources are ready, a load
    /// has no older unresolved store, and a pipe is free.
    fn try_issue(&mut self, i: usize, store_pending: bool) -> bool {
        let cycle = self.cycle;
        let (instr, producers) = (self.rob[i].instr, self.rob[i].producers);
        // A missing source has no producer, so it is always ready.
        if !producers.iter().all(|&p| self.producer_ready(p)) {
            return false;
        }
        // Loads additionally wait for all older stores to resolve.
        if instr.op == Op::Lw && store_pending {
            return false;
        }
        let Some(pipe) = self.find_pipe(instr.op, cycle) else {
            // Ready but every pipe is busy: pipes free up as the clock runs.
            self.wake = true;
            return false;
        };

        // Capture operand values.
        let mut regs = [0u32; 16];
        for (k, &r) in instr.sources().iter().enumerate() {
            regs[r.0 as usize] = self.source_value(r, producers[k]);
        }

        let pc = self.rob[i].pc;
        let (latency, value, store, next_pc) = self.execute_op(instr, pc, &regs, i);
        let occupy = if instr.op == Op::Div || instr.op == Op::Rem {
            latency // unpipelined divider
        } else {
            1
        };
        self.pipe_busy[pipe] = cycle + occupy;
        let complete_at = cycle + self.cfg.stages.issue_to_execute() + latency;
        self.next_complete = self.next_complete.min(complete_at);
        self.iq_len -= 1;
        let e = &mut self.rob[i];
        e.state = Exec::Executing;
        e.complete_at = complete_at;
        e.value = value;
        e.store = store;
        e.actual_next = next_pc;
        e.in_iq = false;
        true
    }

    fn find_pipe(&self, op: Op, cycle: u64) -> Option<usize> {
        let mut candidates = if op.is_mem() {
            0..1
        } else if op.is_control() {
            1..2
        } else {
            // ALU and mul/div ops share pipes 2..: every ALU pipe has a
            // mul/div unit.
            2..self.pipe_busy.len()
        };
        candidates.find(|&p| self.pipe_busy[p] <= cycle)
    }

    /// Executes the operation functionally and returns
    /// `(latency, dest value, store addr/data, next pc)`. `idx` is the
    /// issuing instruction's ROB position: store-to-load forwarding
    /// searches only the older entries before it.
    fn execute_op(
        &mut self,
        instr: Instr,
        pc: u32,
        regs: &[u32; 16],
        idx: usize,
    ) -> (u64, Option<u32>, Option<(u32, u32)>, u32) {
        match instr.op {
            Op::Sw => {
                let addr = regs[instr.rs1.0 as usize].wrapping_add(instr.imm as u32);
                let data = regs[instr.rs2.0 as usize];
                (1, None, Some((addr, data)), pc.wrapping_add(1))
            }
            Op::Lw => {
                let addr = regs[instr.rs1.0 as usize].wrapping_add(instr.imm as u32);
                // Forward from the youngest older in-flight store.
                let fwd = self
                    .rob
                    .range(..idx)
                    .rev()
                    .find(|e| e.instr.op == Op::Sw && e.store.is_some_and(|(a, _)| a == addr))
                    .and_then(|e| e.store.map(|(_, d)| d));
                match fwd {
                    Some(d) => (self.dcache.hit_latency(), Some(d), None, pc.wrapping_add(1)),
                    None => {
                        let hit = self.dcache.access(addr);
                        let lat = if hit {
                            self.dcache.hit_latency()
                        } else {
                            self.dcache.hit_latency() + self.cfg.mem_latency
                        };
                        (lat, Some(self.mem.read(addr)), None, pc.wrapping_add(1))
                    }
                }
            }
            Op::Mul => {
                let (next, wrote) = execute(instr, pc, regs, &mut self.mem);
                (self.cfg.mul_latency, wrote.map(|(_, v)| v), None, next)
            }
            Op::Div | Op::Rem => {
                let (next, wrote) = execute(instr, pc, regs, &mut self.mem);
                (self.cfg.div_latency, wrote.map(|(_, v)| v), None, next)
            }
            Op::Halt => (1, None, None, pc),
            _ => {
                let (next, wrote) = execute(instr, pc, regs, &mut self.mem);
                (1, wrote.map(|(_, v)| v), None, next)
            }
        }
    }

    // ---- dispatch -----------------------------------------------------------

    fn dispatch(&mut self) {
        let cycle = self.cycle;
        for _ in 0..self.cfg.fetch_width {
            let Some(fe) = self.front.front() else { break };
            if fe.ready_at > cycle {
                break;
            }
            if self.rob.len() >= self.cfg.rob_size {
                break;
            }
            if self.iq_len >= self.cfg.iq_size {
                break;
            }
            let is_mem = fe.instr.op.is_mem();
            if is_mem && self.lsq_len >= self.cfg.lsq_size {
                break;
            }
            let fe = self.front.pop_front().expect("peeked");
            let seq = self.next_seq;
            self.next_seq += 1;
            let srcs = fe.instr.sources();
            let mut producers = [None, None];
            for (k, r) in srcs.iter().enumerate() {
                producers[k] = self.map[r.0 as usize];
            }
            if let Some(rd) = fe.instr.dest() {
                self.map[rd.0 as usize] = Some(seq);
            }
            let state = if fe.instr.op == Op::Halt {
                Exec::Done
            } else {
                Exec::Waiting
            };
            self.iq_len += usize::from(state == Exec::Waiting);
            self.wake |= state == Exec::Waiting;
            self.lsq_len += usize::from(is_mem);
            self.rob.push_back(RobEntry {
                seq,
                pc: fe.pc,
                instr: fe.instr,
                state,
                producers,
                value: None,
                store: None,
                actual_next: 0,
                complete_at: cycle,
                pred_next: fe.pred_next,
                pht_index: fe.pht_index,
                in_iq: state == Exec::Waiting,
            });
        }
    }

    // ---- fetch --------------------------------------------------------------

    fn fetch(&mut self) {
        if self.fetch_stopped || self.cycle < self.fetch_stall_until {
            return;
        }
        let cap = self.cfg.fetch_width * (self.cfg.stages.front_latency() as usize + 2);
        if self.front.len() >= cap {
            return;
        }
        // One icache access for the fetch group.
        if (self.fetch_pc as usize) < self.code.len() {
            let hit = self.icache.access(self.fetch_pc);
            if !hit {
                self.fetch_stall_until =
                    self.cycle + self.icache.hit_latency() + self.cfg.mem_latency;
                return;
            }
        }
        let ready_at = self.cycle + self.cfg.stages.front_latency();
        for _ in 0..self.cfg.fetch_width {
            let pc = self.fetch_pc;
            if pc as usize >= self.code.len() {
                self.fetch_stopped = true;
                break;
            }
            let instr = self.code[pc as usize];
            let (pred_next, pred_taken, pht_index) = if instr.op.is_control() {
                let p: Prediction = self.bpred.predict(pc, instr.op, instr.rd, instr.rs1);
                (p.target, p.taken, p.pht_index)
            } else {
                (pc + 1, false, None)
            };
            self.front.push_back(FrontEntry {
                pc,
                instr,
                pred_next,
                pht_index,
                ready_at,
            });
            if instr.op == Op::Halt {
                self.fetch_stopped = true;
                break;
            }
            self.fetch_pc = pred_next;
            if pred_taken {
                break; // taken control ends the fetch group
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::func::Interp;

    fn sum_program(n: i32) -> Program {
        let mut a = Asm::new();
        let top = a.label();
        a.li(Reg(1), 1);
        a.li(Reg(2), 0);
        a.li(Reg(3), n + 1);
        a.bind(top);
        a.add(Reg(2), Reg(2), Reg(1));
        a.addi(Reg(1), Reg(1), 1);
        a.blt(Reg(1), Reg(3), top);
        a.halt();
        a.assemble()
    }

    #[test]
    fn matches_golden_model_on_loop() {
        let p = sum_program(100);
        let mut gold = Interp::new(&p, 4096);
        gold.run(10_000);
        let mut core = OooCore::new(&p, CoreConfig::baseline(), 4096);
        let stats = core.run(10_000);
        assert!(core.halted());
        assert_eq!(core.arch_regs()[2], gold.regs[2]);
        assert_eq!(stats.instructions, gold.icount);
    }

    #[test]
    fn ipc_is_positive_and_bounded() {
        let p = sum_program(500);
        let mut core = OooCore::new(&p, CoreConfig::baseline(), 4096);
        let stats = core.run(100_000);
        let ipc = stats.ipc();
        assert!(
            ipc > 0.1 && ipc <= 1.0 + 1e-9,
            "baseline single-issue IPC = {ipc}"
        );
    }

    #[test]
    fn wider_backend_improves_ilp_workload() {
        // Independent ALU chains benefit from more pipes.
        let mut a = Asm::new();
        let top = a.label();
        a.li(Reg(1), 0);
        a.li(Reg(2), 0);
        a.li(Reg(3), 0);
        a.li(Reg(4), 0);
        a.li(Reg(5), 1000);
        a.li(Reg(6), 0);
        a.bind(top);
        for _ in 0..4 {
            a.addi(Reg(1), Reg(1), 1);
            a.addi(Reg(2), Reg(2), 2);
            a.addi(Reg(3), Reg(3), 3);
            a.addi(Reg(4), Reg(4), 4);
        }
        a.addi(Reg(6), Reg(6), 1);
        a.blt(Reg(6), Reg(5), top);
        a.halt();
        let p = a.assemble();

        let narrow = OooCore::new(&p, CoreConfig::with_widths(1, 3), 1 << 14).run(200_000);
        let wide = OooCore::new(&p, CoreConfig::with_widths(4, 6), 1 << 14).run(200_000);
        assert!(
            wide.ipc() > 1.6 * narrow.ipc(),
            "wide {:.2} vs narrow {:.2}",
            wide.ipc(),
            narrow.ipc()
        );
    }

    /// A data-dependent (hard-to-predict) branch pattern.
    fn branchy_program() -> Program {
        let mut a = Asm::new();
        let top = a.label();
        let skip = a.label();
        a.li(Reg(1), 0); // i
        a.li(Reg(2), 3000); // limit
        a.li(Reg(3), 0x55AA); // lfsr-ish state
        a.li(Reg(4), 0);
        a.bind(top);
        // state = state * 1103515245-ish mixing (cheap): state ^= state << 3; state ^= state >> 5
        a.li(Reg(5), 3);
        a.sll(Reg(6), Reg(3), Reg(5));
        a.xor(Reg(3), Reg(3), Reg(6));
        a.li(Reg(5), 5);
        a.srl(Reg(6), Reg(3), Reg(5));
        a.xor(Reg(3), Reg(3), Reg(6));
        a.andi(Reg(7), Reg(3), 1);
        a.beq(Reg(7), Reg(0), skip);
        a.addi(Reg(4), Reg(4), 1);
        a.bind(skip);
        a.addi(Reg(1), Reg(1), 1);
        a.blt(Reg(1), Reg(2), top);
        a.halt();
        a.assemble()
    }

    #[test]
    fn deeper_frontend_hurts_branchy_code() {
        let p = branchy_program();
        let shallow = OooCore::new(&p, CoreConfig::baseline(), 1 << 14).run(300_000);
        let mut deep_cfg = CoreConfig::baseline();
        for _ in 0..6 {
            deep_cfg.stages = deep_cfg.stages.split("fetch");
        }
        assert_eq!(deep_cfg.total_stages(), 15);
        let deep = OooCore::new(&p, deep_cfg, 1 << 14).run(300_000);
        assert!(
            deep.ipc() < 0.92 * shallow.ipc(),
            "deep {:.3} vs shallow {:.3}",
            deep.ipc(),
            shallow.ipc()
        );
        assert!(
            shallow.mispredict_rate() > 0.05,
            "branch pattern should be hard"
        );
    }

    /// Stores followed by loads of the same word, forwarded in flight.
    fn forwarding_program() -> Program {
        let mut a = Asm::new();
        a.li(Reg(1), 64);
        a.li(Reg(2), 123);
        a.sw(Reg(2), Reg(1), 0);
        a.lw(Reg(3), Reg(1), 0);
        a.addi(Reg(3), Reg(3), 1);
        a.sw(Reg(3), Reg(1), 0);
        a.lw(Reg(4), Reg(1), 0);
        a.halt();
        a.assemble()
    }

    #[test]
    fn store_load_forwarding_is_correct() {
        let p = forwarding_program();
        let mut core = OooCore::new(&p, CoreConfig::with_widths(4, 6), 4096);
        core.run(1000);
        assert_eq!(core.arch_regs()[3], 124);
        assert_eq!(core.arch_regs()[4], 124);
        assert_eq!(core.memory().read(64), 124);
    }

    /// Ticks `core` until HALT retires or `max_cycles` pass, and after
    /// every tick checks the occupancy counters and the completion bound
    /// against a full recount of the ROB.
    fn tick_checking_counters(core: &mut OooCore, max_cycles: u64) {
        while !core.halted && core.cycle < max_cycles {
            core.tick();
            let iq = core.rob.iter().filter(|e| e.in_iq).count();
            let lsq = core
                .rob
                .iter()
                .filter(|e| e.instr.op.is_mem() && e.state != Exec::Done)
                .count();
            let earliest = core
                .rob
                .iter()
                .filter(|e| e.state == Exec::Executing)
                .map(|e| e.complete_at)
                .min()
                .unwrap_or(u64::MAX);
            let at = core.cycle;
            assert_eq!(core.iq_len, iq, "iq_len at cycle {at}");
            assert_eq!(core.lsq_len, lsq, "lsq_len at cycle {at}");
            assert!(
                core.next_complete <= earliest,
                "next_complete {} > earliest completion {earliest} at cycle {at}",
                core.next_complete
            );
        }
    }

    #[test]
    fn counters_agree_with_a_rob_recount_every_tick() {
        use crate::workloads::{build_workload, Workload};
        let mut small_queues = CoreConfig::with_widths(4, 6);
        small_queues.iq_size = 4;
        small_queues.lsq_size = 2;
        let configs = [
            CoreConfig::baseline(),
            CoreConfig::with_widths(6, 7),
            small_queues,
        ];
        let mut programs: Vec<(Program, usize)> = Workload::all()
            .into_iter()
            .map(|w| (build_workload(w, 20), w.memory_words()))
            .collect();
        programs.push((branchy_program(), 1 << 14));
        programs.push((forwarding_program(), 4096));
        for cfg in &configs {
            for (p, words) in &programs {
                let mut core = OooCore::new(p, cfg.clone(), *words);
                tick_checking_counters(&mut core, 20_000);
                assert!(core.stats.instructions > 0);
            }
        }
        // The branchy program must actually exercise the flush path.
        let mut core = OooCore::new(&programs[7].0, CoreConfig::baseline(), 1 << 14);
        tick_checking_counters(&mut core, 20_000);
        assert!(core.stats.flushes > 100, "flushes {}", core.stats.flushes);
    }

    /// Back-to-back divides that serialize on an unpipelined divider.
    fn divider_program() -> Program {
        let mut a = Asm::new();
        let top = a.label();
        a.li(Reg(1), 1000);
        a.li(Reg(2), 7);
        a.li(Reg(3), 0);
        a.li(Reg(4), 300);
        a.bind(top);
        a.div(Reg(5), Reg(1), Reg(2));
        a.div(Reg(6), Reg(1), Reg(2));
        a.addi(Reg(3), Reg(3), 1);
        a.blt(Reg(3), Reg(4), top);
        a.halt();
        a.assemble()
    }

    /// Whether a full issue scan would issue anything now, checked without
    /// side effects and with the per-load older-store search: some waiting
    /// entry has ready sources, no older unresolved store if it is a load,
    /// and a free pipe.
    fn scan_would_issue(core: &OooCore) -> bool {
        (0..core.rob.len()).any(|i| {
            let e = &core.rob[i];
            let store_blocked = e.instr.op == Op::Lw
                && core
                    .rob
                    .iter()
                    .take(i)
                    .any(|o| o.instr.op == Op::Sw && o.store.is_none());
            e.state == Exec::Waiting
                && e.in_iq
                && e.producers.iter().all(|&p| core.producer_ready(p))
                && !store_blocked
                && core.find_pipe(e.instr.op, core.cycle).is_some()
        })
    }

    /// Ticks `core` as `OooCore::tick` does until HALT retires or
    /// `max_cycles` pass, and on every tick whose issue scan is skipped
    /// checks that a full scan would have issued nothing. Returns the
    /// number of skipped scans.
    fn tick_checking_wake(core: &mut OooCore, max_cycles: u64) -> u64 {
        let mut skipped = 0;
        while !core.halted && core.cycle < max_cycles {
            core.complete();
            core.retire();
            if !core.wake {
                skipped += 1;
                assert!(
                    !scan_would_issue(core),
                    "skipped an issue scan that would issue at cycle {}",
                    core.cycle
                );
            }
            core.issue();
            core.dispatch();
            core.fetch();
            core.cycle += 1;
            core.stats.cycles = core.cycle;
        }
        skipped
    }

    #[test]
    fn skipped_issue_scans_would_issue_nothing() {
        use crate::workloads::{build_workload, Workload};
        let mut small_queues = CoreConfig::with_widths(4, 6);
        small_queues.iq_size = 4;
        small_queues.lsq_size = 2;
        let mut deep_issue = CoreConfig::baseline();
        deep_issue.stages = deep_issue.stages.split("issue").split("regread");
        let configs = [
            CoreConfig::baseline(),
            CoreConfig::with_widths(6, 7),
            small_queues,
            deep_issue,
        ];
        let mut programs: Vec<(Program, usize)> = Workload::all()
            .into_iter()
            .map(|w| (build_workload(w, 20), w.memory_words()))
            .collect();
        programs.push((branchy_program(), 1 << 14));
        programs.push((forwarding_program(), 4096));
        programs.push((divider_program(), 4096));
        let mut skipped = 0;
        for cfg in &configs {
            for (p, words) in &programs {
                let mut core = OooCore::new(p, cfg.clone(), *words);
                skipped += tick_checking_wake(&mut core, 20_000);
                // The hand-rolled tick above is `tick` itself.
                let mut plain = OooCore::new(p, cfg.clone(), *words);
                while !plain.halted && plain.cycle < 20_000 {
                    plain.tick();
                }
                assert_eq!(core.stats(), plain.stats());
                assert_eq!(core.arch_regs, plain.arch_regs);
            }
        }
        assert!(skipped > 10_000, "only {skipped} scans skipped");
    }

    #[test]
    fn unpipelined_divider_blocks_its_pipe() {
        // Back-to-back divides serialize on the divider; independent adds
        // on other pipes keep flowing.
        let p = divider_program();
        let narrow = OooCore::new(&p, CoreConfig::with_widths(2, 3), 4096).run(50_000);
        let wide = OooCore::new(&p, CoreConfig::with_widths(2, 5), 4096).run(50_000);
        // With one ALU pipe the two divides serialize (24+ cycles/iter);
        // with three pipes they overlap.
        assert!(
            wide.ipc() > 1.35 * narrow.ipc(),
            "wide {:.3} vs narrow {:.3}",
            wide.ipc(),
            narrow.ipc()
        );
    }

    #[test]
    fn icache_misses_stall_fetch() {
        // A huge straight-line program (> L1I) streams through the icache.
        let mut a = Asm::new();
        for i in 0..6000 {
            a.addi(Reg(1), Reg(1), i % 7);
        }
        a.halt();
        let p = a.assemble();
        let stats = OooCore::new(&p, CoreConfig::with_widths(4, 6), 1 << 15).run(100_000);
        let (h, m) = stats.icache;
        assert!(m > 100, "icache misses {m} (hits {h})");
        // Straight-line ILP-1-chain code: IPC limited by the dependency
        // chain anyway, but fetch stalls must show up as cycles.
        assert!(stats.cycles > stats.instructions);
    }

    #[test]
    fn commit_width_caps_retirement() {
        // Fully independent ops on a wide machine: IPC approaches but never
        // exceeds the commit width.
        let mut a = Asm::new();
        let top = a.label();
        a.li(Reg(12), 2000);
        a.li(Reg(11), 0);
        a.bind(top);
        for k in 1..=8 {
            a.addi(Reg(k), Reg(k), 1);
        }
        a.addi(Reg(11), Reg(11), 1);
        a.blt(Reg(11), Reg(12), top);
        a.halt();
        let p = a.assemble();
        let cfg = CoreConfig::with_widths(6, 7);
        let commit = cfg.commit_width;
        let stats = OooCore::new(&p, cfg, 4096).run(100_000);
        assert!(stats.ipc() <= commit as f64 + 1e-9);
        assert!(
            stats.ipc() > 0.5 * commit as f64,
            "IPC {:.2} of {commit}",
            stats.ipc()
        );
    }

    #[test]
    fn memory_bound_code_has_low_ipc() {
        // Pointer chase across a footprint much larger than L1D.
        let mut a = Asm::new();
        let n = 8192; // words, 32 KiB > 8 KiB L1D
                      // Build a stride-17 cycle through the array.
        for i in 0..n {
            a.data_word(
                1000 + i,
                (1000 + ((i as i64 + 17) % n as i64) as u32 as i64) as u32,
            );
        }
        let top = a.label();
        a.li(Reg(1), 1000);
        a.li(Reg(2), 0);
        a.li(Reg(3), 4000);
        a.bind(top);
        a.lw(Reg(1), Reg(1), 0);
        a.addi(Reg(2), Reg(2), 1);
        a.blt(Reg(2), Reg(3), top);
        a.halt();
        let p = a.assemble();
        let stats = OooCore::new(&p, CoreConfig::baseline(), 1 << 16).run(100_000);
        assert!(stats.ipc() < 0.4, "pointer chase IPC = {:.3}", stats.ipc());
        assert!(
            stats.dcache_miss_rate() > 0.3,
            "miss rate {:.3}",
            stats.dcache_miss_rate()
        );
    }
}
