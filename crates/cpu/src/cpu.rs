//! The fetch/decode/execute loop with ARM7-class cycle accounting.

use proteus_isa::{BlockOp, Cond, DpOp, Instr, MemOp, Reg};

use crate::alu::{self, Cpsr};
use crate::coproc::{CoprocResult, Coprocessor};
use crate::lower::{Op, Uop};
use crate::memory::{MemError, Memory};

/// Why [`Cpu::run`] returned. The kernel model dispatches on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The cycle limit was reached (the scheduling-timer interrupt).
    /// A custom instruction in flight has been suspended via the
    /// status-register mechanism and will resume on reissue.
    Quantum,
    /// A software interrupt was executed; `pc` has advanced past it.
    Swi {
        /// The 24-bit SWI number.
        imm: u32,
    },
    /// A `pfu` instruction found no `(PID, CID)` mapping in either
    /// dispatch TLB. `pc` still points *at* the instruction so the OS can
    /// load the circuit (or map the software alternative) and reissue.
    CustomFault {
        /// The faulting Circuit ID.
        cid: u8,
        /// Address of the faulting instruction.
        pc: u32,
    },
    /// Undefined instruction.
    Undefined {
        /// The raw word.
        word: u32,
        /// Its address.
        pc: u32,
    },
    /// Data abort.
    MemFault {
        /// The underlying access error.
        err: MemError,
        /// Address of the faulting instruction.
        pc: u32,
    },
}

/// A saved register context (what the kernel stores in a PCB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Context {
    /// The sixteen core registers.
    pub regs: [u32; 16],
    /// Packed CPSR flags.
    pub cpsr: u32,
    /// Nesting depth of in-flight software-dispatch handlers (between a
    /// dispatch and its `retsd`). Saved with the context so cycle
    /// attribution survives a mid-handler pre-emption.
    pub soft_depth: u32,
}

/// Attribution of the cycles a [`Cpu::run`] span executed, drained per
/// span via [`Cpu::take_exec_mix`]. Whatever is in neither bucket is
/// plain user compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecMix {
    /// Cycles clocking PFU circuits (custom-instruction execute),
    /// outside software-dispatch handlers.
    pub custom: u64,
    /// Cycles inside software-dispatch handlers: the dispatching `pfu`
    /// issue, every handler instruction, nested custom issues, and the
    /// closing `retsd`.
    pub soft_dispatch: u64,
}

/// Cycle cost table (ARM7TDMI-flavoured; see DESIGN.md §5).
pub mod cost {
    /// Data-processing instruction.
    pub const DP: u64 = 1;
    /// Extra cycles when an instruction writes the PC (pipeline refill).
    pub const PC_WRITE: u64 = 2;
    /// Multiply.
    pub const MUL: u64 = 4;
    /// Multiply-accumulate.
    pub const MLA: u64 = 5;
    /// Word/byte load.
    pub const LDR: u64 = 3;
    /// Word/byte store.
    pub const STR: u64 = 2;
    /// Block transfer base (plus one per register).
    pub const LDM_BASE: u64 = 2;
    /// Store-multiple base (plus one per register).
    pub const STM_BASE: u64 = 1;
    /// Taken branch.
    pub const BRANCH_TAKEN: u64 = 3;
    /// Software interrupt entry.
    pub const SWI: u64 = 3;
    /// Issue overhead of a `pfu` instruction (decode + dispatch TLB).
    pub const PFU_ISSUE: u64 = 1;
    /// Coprocessor register move.
    pub const CP_MOVE: u64 = 1;
    /// Return from software dispatch (branch-like).
    pub const RETSD: u64 = 3;
    /// Condition-failed instruction.
    pub const COND_FAIL: u64 = 1;
}

/// The ProteanARM core.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u32; 16],
    cpsr: Cpsr,
    cycles: u64,
    soft_depth: u32,
    mix: ExecMix,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// A core reset to zeroed registers at PC 0.
    pub fn new() -> Self {
        Self {
            regs: [0; 16],
            cpsr: Cpsr::default(),
            cycles: 0,
            soft_depth: 0,
            mix: ExecMix::default(),
        }
    }

    /// Read a register (architectural view: `r15` is the PC).
    pub fn reg(&self, index: usize) -> u32 {
        self.regs[index]
    }

    /// Write a register.
    pub fn set_reg(&mut self, index: usize, value: u32) {
        self.regs[index] = value;
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.regs[15]
    }

    /// Jump.
    pub fn set_pc(&mut self, pc: u32) {
        self.regs[15] = pc;
    }

    /// Total cycles executed on this core.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Charge `n` cycles of externally-imposed work (kernel overhead,
    /// configuration transfers) to this core's clock.
    pub fn add_cycles(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Current flags.
    pub fn cpsr(&self) -> Cpsr {
        self.cpsr
    }

    /// Capture the register context (for a PCB).
    pub fn save_context(&self) -> Context {
        Context { regs: self.regs, cpsr: self.cpsr.to_word(), soft_depth: self.soft_depth }
    }

    /// Restore a register context.
    pub fn restore_context(&mut self, ctx: &Context) {
        self.regs = ctx.regs;
        self.cpsr = Cpsr::from_word(ctx.cpsr);
        self.soft_depth = ctx.soft_depth;
    }

    /// The execution-mix attribution accumulated since the last
    /// [`Cpu::take_exec_mix`].
    pub fn exec_mix(&self) -> ExecMix {
        self.mix
    }

    /// Drain the execution mix (the kernel calls this once per run
    /// span, turning it into a `Compute` event).
    pub fn take_exec_mix(&mut self) -> ExecMix {
        std::mem::take(&mut self.mix)
    }

    /// Charge `n` cycles of instruction cost to the core clock.
    #[inline(always)]
    fn charge(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Run until `until_cycle` is reached or an exception stops execution.
    ///
    /// The caller (kernel model) owns exception handling: on
    /// [`Stop::Swi`] the PC has advanced, on [`Stop::CustomFault`] /
    /// [`Stop::Undefined`] / [`Stop::MemFault`] it has not, and on
    /// [`Stop::Quantum`] execution may simply be resumed later.
    ///
    /// The quantum bound is the only per-instruction check: the kernel
    /// computes the span's stop cycle once and passes it down, so the
    /// loop compares a single counter against a constant. Generic over
    /// the coprocessor so a concrete RFU's issue path inlines; a
    /// `&mut dyn Coprocessor` still works.
    pub fn run<C: Coprocessor + ?Sized>(
        &mut self,
        mem: &mut Memory,
        coproc: &mut C,
        until_cycle: u64,
    ) -> Stop {
        loop {
            if self.cycles >= until_cycle {
                return Stop::Quantum;
            }
            // Any instruction executed inside a software-dispatch
            // handler is soft-dispatch time (the dispatching issue
            // itself is attributed by `issue`, the closing `retsd` by
            // this wrapper).
            let stop = if self.soft_depth > 0 {
                let span_start = self.cycles;
                let stop = self.step(mem, coproc, until_cycle);
                self.mix.soft_dispatch += self.cycles - span_start;
                stop
            } else {
                self.step(mem, coproc, until_cycle)
            };
            if let Some(stop) = stop {
                return stop;
            }
        }
    }

    /// Execute one instruction. Returns `Some(stop)` if it raised an
    /// exception (see [`Cpu::run`] for PC conventions).
    ///
    /// Force-inlined into [`Cpu::run`]: the per-instruction call and the
    /// `Option<Stop>` return shuffle are measurable at interpreter speed.
    #[inline(always)]
    pub fn step<C: Coprocessor + ?Sized>(
        &mut self,
        mem: &mut Memory,
        coproc: &mut C,
        until_cycle: u64,
    ) -> Option<Stop> {
        let pc = self.regs[15];
        // Infallible decode-cache lane: dense program text hits here
        // with no `Result`/`Option` juggling; first fetches, undefined
        // words and fetch faults all take the cold fallback.
        let op = match mem.cached_op(pc) {
            Some(op) => op,
            None => match mem.fetch_op(pc) {
                Ok((_, Some(op))) => op,
                Ok((word, None)) => return Some(Stop::Undefined { word, pc }),
                Err(err) => return Some(Stop::MemFault { err, pc }),
            },
        };
        self.exec(op, pc, mem, coproc, until_cycle)
    }

    /// Execute `op`, the lowered instruction at `pc`: one flat match
    /// over the micro-ops. The specialised arms never touch `r15`, so
    /// they index the register file directly.
    #[inline(always)]
    fn exec<C: Coprocessor + ?Sized>(
        &mut self,
        op: Op,
        pc: u32,
        mem: &mut Memory,
        coproc: &mut C,
        until_cycle: u64,
    ) -> Option<Stop> {
        let Cpsr { n, z, c, v } = self.cpsr;
        if op.cond != Cond::Al && !op.cond.passes(n, z, c, v) {
            self.charge(cost::COND_FAIL);
            self.regs[15] = pc.wrapping_add(4);
            return None;
        }
        // The mask is free and drops the register-file bounds checks.
        let r = |i: u8| usize::from(i & 0xF);
        let mut next_pc = pc.wrapping_add(4);
        match op.uop {
            Uop::DpImm { op, rd, rn, imm } => {
                self.charge(cost::DP);
                let (value, writes_rd) = alu::exec_dp_value(op, self.regs[r(rn)], imm, self.cpsr.c);
                if writes_rd {
                    self.regs[r(rd)] = value;
                }
            }
            Uop::DpReg { op, rd, rn, rm } => {
                self.charge(cost::DP);
                let (value, writes_rd) =
                    alu::exec_dp_value(op, self.regs[r(rn)], self.regs[r(rm)], self.cpsr.c);
                if writes_rd {
                    self.regs[r(rd)] = value;
                }
            }
            Uop::DpShift { op, rd, rn, rm, shift } => {
                self.charge(cost::DP);
                let (op2, _) = alu::barrel_shift(self.regs[r(rm)], shift, self.cpsr.c);
                let (value, writes_rd) = alu::exec_dp_value(op, self.regs[r(rn)], op2, self.cpsr.c);
                if writes_rd {
                    self.regs[r(rd)] = value;
                }
            }
            Uop::SubsImm { rd, rn, imm } => {
                self.charge(cost::DP);
                let res = alu::exec_dp(DpOp::Sub, self.regs[r(rn)], imm, false, self.cpsr);
                self.cpsr = res.flags;
                self.regs[r(rd)] = res.value;
            }
            Uop::CmpImm { rn, imm } => {
                self.charge(cost::DP);
                self.cpsr = alu::exec_dp(DpOp::Cmp, self.regs[r(rn)], imm, false, self.cpsr).flags;
            }
            Uop::CmpReg { rn, rm } => {
                self.charge(cost::DP);
                let (a, b) = (self.regs[r(rn)], self.regs[r(rm)]);
                self.cpsr = alu::exec_dp(DpOp::Cmp, a, b, false, self.cpsr).flags;
            }
            Uop::Ldr { rd, rn, off } => {
                self.charge(cost::LDR);
                match mem.read_word(self.regs[r(rn)].wrapping_add(off)) {
                    Ok(v) => self.regs[r(rd)] = v,
                    Err(err) => return Some(Stop::MemFault { err, pc }),
                }
            }
            Uop::LdrPost { rd, rn, off } => {
                self.charge(cost::LDR);
                let base = self.regs[r(rn)];
                match mem.read_word(base) {
                    Ok(v) => {
                        self.regs[r(rn)] = base.wrapping_add(off);
                        self.regs[r(rd)] = v;
                    }
                    Err(err) => return Some(Stop::MemFault { err, pc }),
                }
            }
            Uop::Str { rd, rn, off } => {
                self.charge(cost::STR);
                if let Err(err) = mem.write_word(self.regs[r(rn)].wrapping_add(off), self.regs[r(rd)]) {
                    return Some(Stop::MemFault { err, pc });
                }
            }
            Uop::StrPost { rd, rn, off } => {
                self.charge(cost::STR);
                let base = self.regs[r(rn)];
                if let Err(err) = mem.write_word(base, self.regs[r(rd)]) {
                    return Some(Stop::MemFault { err, pc });
                }
                self.regs[r(rn)] = base.wrapping_add(off);
            }
            Uop::B { target } => {
                self.charge(cost::BRANCH_TAKEN);
                next_pc = target;
            }
            Uop::Bl { target } => {
                self.charge(cost::BRANCH_TAKEN);
                self.regs[14] = next_pc;
                next_pc = target;
            }
            Uop::Pfu { cid, rd, rn, rm } => {
                let (op_a, op_b) = (self.regs[r(rn)], self.regs[r(rm)]);
                match self.issue(coproc, cid, r(rd), op_a, op_b, pc, until_cycle) {
                    Ok(target) => next_pc = target,
                    Err(stop) => return Some(stop),
                }
            }
            Uop::General(instr) => return self.exec_general(instr, pc, mem, coproc, until_cycle),
        }
        self.regs[15] = next_pc;
        None
    }

    /// Issue custom instruction `cid` on resolved operands; the `pfu`
    /// at `pc` writes `rd`. Returns the next PC, or the stop it raised.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn issue<C: Coprocessor + ?Sized>(
        &mut self,
        coproc: &mut C,
        cid: u8,
        rd: usize,
        op_a: u32,
        op_b: u32,
        pc: u32,
        until_cycle: u64,
    ) -> Result<u32, Stop> {
        self.charge(cost::PFU_ISSUE);
        let next_pc = pc.wrapping_add(4);
        let budget = until_cycle.saturating_sub(self.cycles);
        // PID register: workstation-class processors hold the current
        // PID (§4.2); we model it in coprocessor register 15 by kernel
        // convention, but pass it explicitly.
        let pid = coproc.read_reg(15);
        match coproc.exec_custom(pid, cid, op_a, op_b, rd as u8, next_pc, budget) {
            CoprocResult::Done { value, cycles } => {
                self.charge(cycles);
                if self.soft_depth == 0 {
                    self.mix.custom += cycles;
                }
                self.regs[rd] = value;
                Ok(next_pc)
            }
            CoprocResult::Interrupted { cycles } => {
                self.charge(cycles);
                if self.soft_depth == 0 {
                    self.mix.custom += cycles;
                }
                // Do not advance PC: the instruction is reissued after
                // the interrupt, resuming via the status-register
                // mechanism (§4.4).
                Err(Stop::Quantum)
            }
            CoprocResult::SoftwareDispatch { target, cycles } => {
                self.charge(cycles + cost::BRANCH_TAKEN);
                if self.soft_depth == 0 {
                    // Entering a handler from user code: the dispatching
                    // issue is soft-dispatch time. (Nested dispatches are
                    // covered by the `run` wrapper.)
                    self.mix.soft_dispatch += cost::PFU_ISSUE + cycles + cost::BRANCH_TAKEN;
                }
                self.soft_depth += 1;
                self.regs[14] = next_pc;
                Ok(target)
            }
            CoprocResult::Fault => Err(Stop::CustomFault { cid, pc }),
        }
    }

    /// Execute a form with no specialised micro-op (anything touching
    /// `r15`, flag-setting data processing, multiplies, byte and
    /// register-offset transfers, block transfers and the coprocessor
    /// moves). The condition has already passed.
    #[inline(never)]
    fn exec_general<C: Coprocessor + ?Sized>(
        &mut self,
        instr: Instr,
        pc: u32,
        mem: &mut Memory,
        coproc: &mut C,
        until_cycle: u64,
    ) -> Option<Stop> {
        let mut next_pc = pc.wrapping_add(4);
        match instr {
            Instr::DataProc { op, s, rd, rn, op2, .. } => {
                let (op2_val, shifter_carry) =
                    alu::eval_op2(op2, |i| arch_read(&self.regs, pc, i), self.cpsr.c);
                let rn_val = arch_read(&self.regs, pc, rn.index());
                self.charge(cost::DP);
                // `S`-clear is the common case; skip the flag circuitry.
                let (value, writes_rd) = if s {
                    let r = alu::exec_dp(op, rn_val, op2_val, shifter_carry, self.cpsr);
                    self.cpsr = r.flags;
                    (r.value, r.writes_rd)
                } else {
                    alu::exec_dp_value(op, rn_val, op2_val, self.cpsr.c)
                };
                if writes_rd {
                    if rd == Reg::PC {
                        next_pc = value;
                        self.charge(cost::PC_WRITE);
                    } else {
                        self.regs[rd.index()] = value;
                    }
                }
            }
            Instr::Mul { s, rd, rm, rs, acc, .. } => {
                let mut v = arch_read(&self.regs, pc, rm.index())
                    .wrapping_mul(arch_read(&self.regs, pc, rs.index()));
                self.charge(match acc {
                    Some(rn) => {
                        v = v.wrapping_add(arch_read(&self.regs, pc, rn.index()));
                        cost::MLA
                    }
                    None => cost::MUL,
                });
                self.regs[rd.index()] = v;
                if s {
                    self.cpsr.n = v >> 31 & 1 == 1;
                    self.cpsr.z = v == 0;
                }
            }
            Instr::Mem { op, byte, rd, rn, offset, up, pre, writeback, .. } => {
                let base = arch_read(&self.regs, pc, rn.index());
                let off = match offset {
                    proteus_isa::instr::MemOffset::Imm(i) => u32::from(i),
                    proteus_isa::instr::MemOffset::Reg(rm, sh) => {
                        alu::barrel_shift(arch_read(&self.regs, pc, rm.index()), sh, self.cpsr.c).0
                    }
                };
                let offsetted = if up { base.wrapping_add(off) } else { base.wrapping_sub(off) };
                let addr = if pre { offsetted } else { base };
                let result = match op {
                    MemOp::Ldr => {
                        self.charge(cost::LDR);
                        let r = if byte {
                            mem.read_byte(addr).map(u32::from)
                        } else {
                            mem.read_word(addr)
                        };
                        match r {
                            Ok(v) => Some(v),
                            Err(err) => return Some(Stop::MemFault { err, pc }),
                        }
                    }
                    MemOp::Str => {
                        self.charge(cost::STR);
                        let v = arch_read(&self.regs, pc, rd.index());
                        let r = if byte {
                            mem.write_byte(addr, (v & 0xFF) as u8)
                        } else {
                            mem.write_word(addr, v)
                        };
                        if let Err(err) = r {
                            return Some(Stop::MemFault { err, pc });
                        }
                        None
                    }
                };
                if writeback || !pre {
                    self.regs[rn.index()] = offsetted;
                }
                if let Some(v) = result {
                    if rd == Reg::PC {
                        next_pc = v;
                        self.charge(cost::PC_WRITE);
                    } else {
                        self.regs[rd.index()] = v;
                    }
                }
            }
            Instr::Block { op, rn, regs, before, up, writeback, .. } => {
                let count = regs.count_ones();
                let base = arch_read(&self.regs, pc, rn.index());
                let span = count * 4;
                // Lowest register always occupies the lowest address.
                let lowest = if up { base } else { base.wrapping_sub(span) };
                let start = match (up, before) {
                    (true, false) => lowest,                   // IA
                    (true, true) => lowest.wrapping_add(4),    // IB
                    (false, false) => lowest.wrapping_add(4),  // DA
                    (false, true) => lowest,                   // DB
                };
                let final_base = if up { base.wrapping_add(span) } else { base.wrapping_sub(span) };
                let mut addr = start;
                let mut loaded_pc = None;
                for i in 0..16u16 {
                    if regs >> i & 1 == 0 {
                        continue;
                    }
                    match op {
                        BlockOp::Ldm => match mem.read_word(addr) {
                            Ok(v) => {
                                if i == 15 {
                                    loaded_pc = Some(v);
                                } else {
                                    self.regs[i as usize] = v;
                                }
                            }
                            Err(err) => return Some(Stop::MemFault { err, pc }),
                        },
                        BlockOp::Stm => {
                            let v = arch_read(&self.regs, pc, i as usize);
                            if let Err(err) = mem.write_word(addr, v) {
                                return Some(Stop::MemFault { err, pc });
                            }
                        }
                    }
                    addr = addr.wrapping_add(4);
                }
                self.charge(match op {
                    BlockOp::Ldm => cost::LDM_BASE + u64::from(count),
                    BlockOp::Stm => cost::STM_BASE + u64::from(count),
                });
                if writeback {
                    self.regs[rn.index()] = final_base;
                }
                if let Some(v) = loaded_pc {
                    next_pc = v;
                    self.charge(cost::PC_WRITE);
                }
            }
            Instr::Branch { link, offset, .. } => {
                if link {
                    self.regs[14] = pc.wrapping_add(4);
                }
                next_pc = pc.wrapping_add(4).wrapping_add((offset as u32).wrapping_mul(4));
                self.charge(cost::BRANCH_TAKEN);
            }
            Instr::Swi { imm, .. } => {
                self.charge(cost::SWI);
                self.regs[15] = next_pc;
                return Some(Stop::Swi { imm });
            }
            Instr::Pfu { cid, rd, rn, rm, .. } => {
                let op_a = arch_read(&self.regs, pc, rn.index());
                let op_b = arch_read(&self.regs, pc, rm.index());
                match self.issue(coproc, cid, rd.index(), op_a, op_b, pc, until_cycle) {
                    Ok(target) => next_pc = target,
                    Err(stop) => return Some(stop),
                }
            }
            Instr::Mcr { rfu, rs, .. } => {
                self.charge(cost::CP_MOVE);
                coproc.write_reg(rfu, arch_read(&self.regs, pc, rs.index()));
            }
            Instr::Mrc { rd, rfu, .. } => {
                self.charge(cost::CP_MOVE);
                self.regs[rd.index()] = coproc.read_reg(rfu);
            }
            Instr::LdOp { rd, sel, .. } => {
                self.charge(cost::CP_MOVE);
                self.regs[rd.index()] = coproc.read_operand(sel);
            }
            Instr::StRes { rs, .. } => {
                self.charge(cost::CP_MOVE);
                coproc.write_result(arch_read(&self.regs, pc, rs.index()));
            }
            Instr::RetSd { .. } => {
                self.charge(cost::RETSD);
                self.soft_depth = self.soft_depth.saturating_sub(1);
                let info = coproc.return_from_software();
                self.regs[info.rd as usize & 0xF] = info.result;
                next_pc = info.ret_addr;
            }
            Instr::McrO { field, rs, .. } => {
                self.charge(cost::CP_MOVE);
                coproc.write_operand_field(field, arch_read(&self.regs, pc, rs.index()));
            }
            Instr::MrcO { rd, field, .. } => {
                self.charge(cost::CP_MOVE);
                self.regs[rd.index()] = coproc.read_operand_field(field);
            }
        }
        self.regs[15] = next_pc;
        None
    }
}

/// Architectural register read used by the execute stage: `r15` reads as
/// the fetch address plus 4, every other index reads the register file.
/// Free function (not a per-step closure) so the hot loop builds no
/// captures.
#[inline(always)]
fn arch_read(regs: &[u32; 16], pc: u32, i: usize) -> u32 {
    if i == 15 {
        pc.wrapping_add(4)
    } else {
        regs[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coproc::{NullCoprocessor, OperandBlock, RetInfo};
    use crate::lower::{lower, lower_general};
    use proptest::prelude::*;
    use proteus_isa::{assemble, OperandSel};

    fn run_asm(src: &str) -> (Cpu, Memory) {
        let p = assemble(src).unwrap_or_else(|e| panic!("{e}"));
        let mut mem = Memory::new(64 * 1024);
        mem.load_program(&p).expect("load");
        let mut cpu = Cpu::new();
        cpu.set_reg(13, 60 * 1024); // stack
        let stop = cpu.run(&mut mem, &mut NullCoprocessor, 10_000_000);
        assert!(matches!(stop, Stop::Swi { imm: 0 }), "unexpected stop {stop:?}");
        (cpu, mem)
    }

    #[test]
    fn factorial_loop() {
        let (cpu, _) = run_asm(
            "mov r0, #1\n\
             mov r1, #6\n\
             loop: mul r0, r0, r1\n\
             subs r1, r1, #1\n\
             bne loop\n\
             swi #0\n",
        );
        assert_eq!(cpu.reg(0), 720);
    }

    #[test]
    fn memory_store_and_load() {
        let (cpu, mem) = run_asm(
            "ldr r0, =buf\n\
             ldr r1, =0xCAFEBABE\n\
             str r1, [r0]\n\
             ldr r2, [r0]\n\
             ldrb r3, [r0, #1]\n\
             swi #0\n\
             buf: .space 8\n",
        );
        assert_eq!(cpu.reg(2), 0xCAFE_BABE);
        assert_eq!(cpu.reg(3), 0xBA);
        let buf = cpu.reg(0);
        assert_eq!(mem.read_word(buf).expect("read"), 0xCAFE_BABE);
    }

    #[test]
    fn post_index_walks_array() {
        let (cpu, _) = run_asm(
            "ldr r0, =data\n\
             mov r2, #0\n\
             mov r3, #4\n\
             loop: ldr r1, [r0], #4\n\
             add r2, r2, r1\n\
             subs r3, r3, #1\n\
             bne loop\n\
             swi #0\n\
             data: .word 10, 20, 30, 40\n",
        );
        assert_eq!(cpu.reg(2), 100);
    }

    #[test]
    fn function_call_and_stack() {
        let (cpu, _) = run_asm(
            "mov r0, #5\n\
             bl double\n\
             bl double\n\
             swi #0\n\
             double: push {r4, lr}\n\
             mov r4, r0\n\
             add r0, r4, r4\n\
             pop {r4, pc}\n",
        );
        assert_eq!(cpu.reg(0), 20);
    }

    #[test]
    fn conditional_execution_costs_one_cycle() {
        let p = assemble("cmp r0, #1\n moveq r1, #5\n swi #0\n").expect("asm");
        let mut mem = Memory::new(1024);
        mem.load_program(&p).expect("load");
        let mut cpu = Cpu::new();
        cpu.run(&mut mem, &mut NullCoprocessor, u64::MAX);
        assert_eq!(cpu.reg(1), 0, "moveq must be skipped");
        // cmp(1) + skipped(1) + swi(3)
        assert_eq!(cpu.cycles(), 5);
    }

    #[test]
    fn quantum_preempts_execution() {
        let p = assemble("loop: add r0, r0, #1\n b loop\n").expect("asm");
        let mut mem = Memory::new(1024);
        mem.load_program(&p).expect("load");
        let mut cpu = Cpu::new();
        let stop = cpu.run(&mut mem, &mut NullCoprocessor, 1000);
        assert_eq!(stop, Stop::Quantum);
        assert!(cpu.cycles() >= 1000 && cpu.cycles() < 1010);
        // Resumable.
        let stop = cpu.run(&mut mem, &mut NullCoprocessor, 2000);
        assert_eq!(stop, Stop::Quantum);
        assert!(cpu.reg(0) > 0);
    }

    #[test]
    fn pfu_faults_without_mapping() {
        let p = assemble("mov r0, #1\n pfu 3, r2, r0, r0\n swi #0\n").expect("asm");
        let mut mem = Memory::new(1024);
        mem.load_program(&p).expect("load");
        let mut cpu = Cpu::new();
        let stop = cpu.run(&mut mem, &mut NullCoprocessor, u64::MAX);
        match stop {
            Stop::CustomFault { cid: 3, pc } => assert_eq!(pc, 4, "PC stays at the pfu"),
            other => panic!("unexpected stop {other:?}"),
        }
        assert_eq!(cpu.pc(), 4);
    }

    #[test]
    fn self_modifying_code_sees_the_new_instruction() {
        // Execute `target` once (priming the decode cache), store a new
        // encoding over it, then re-execute: the store must invalidate
        // the cached entry so the patched instruction runs.
        let (cpu, _) = run_asm(
            "mov r0, #0\n\
             b start\n\
             patchsrc: mov r1, #2\n\
             start: ldr r2, =patchsrc\n\
             ldr r2, [r2]\n\
             ldr r3, =target\n\
             target: mov r1, #1\n\
             cmp r0, #1\n\
             beq done\n\
             mov r4, r1\n\
             str r2, [r3]\n\
             mov r0, #1\n\
             b target\n\
             done: swi #0\n",
        );
        assert_eq!(cpu.reg(4), 1, "first pass must run the original instruction");
        assert_eq!(cpu.reg(1), 2, "second pass must run the patched instruction");
    }

    #[test]
    fn undefined_instruction_stops() {
        let mut mem = Memory::new(1024);
        mem.write_word(0, 0xFFFF_FFFF).expect("write");
        let mut cpu = Cpu::new();
        let stop = cpu.run(&mut mem, &mut NullCoprocessor, u64::MAX);
        assert!(matches!(stop, Stop::Undefined { pc: 0, .. }));
    }

    #[test]
    fn mem_fault_reports_pc() {
        let p = assemble("ldr r0, =0xFFFFFF0\n ldr r1, [r0]\n").expect("asm");
        let mut mem = Memory::new(1024);
        mem.load_program(&p).expect("load");
        let mut cpu = Cpu::new();
        let stop = cpu.run(&mut mem, &mut NullCoprocessor, u64::MAX);
        assert!(matches!(stop, Stop::MemFault { pc: 4, .. }), "{stop:?}");
    }

    #[test]
    fn context_save_restore_roundtrip() {
        let (cpu, _) = run_asm("mov r0, #42\n cmp r0, #42\n swi #0\n");
        let ctx = cpu.save_context();
        let mut cpu2 = Cpu::new();
        cpu2.restore_context(&ctx);
        assert_eq!(cpu2.reg(0), 42);
        assert!(cpu2.cpsr().z);
        assert_eq!(cpu2.pc(), cpu.pc());
    }

    /// A coprocessor that replays one scripted issue outcome and keeps
    /// every call's effect in comparable state.
    #[derive(Debug, Clone, PartialEq)]
    struct Scripted {
        result: CoprocResult,
        ret: RetInfo,
        regs: [u32; 16],
        block: OperandBlock,
        issues: Vec<(u32, u8, u32, u32, u8, u32, u64)>,
    }

    impl Coprocessor for Scripted {
        fn exec_custom(&mut self, pid: u32, cid: u8, a: u32, b: u32, rd: u8, ret: u32, budget: u64)
            -> CoprocResult {
            self.issues.push((pid, cid, a, b, rd, ret, budget));
            self.result
        }

        fn write_reg(&mut self, index: u8, value: u32) {
            self.regs[usize::from(index & 0xF)] = value;
        }

        fn read_reg(&self, index: u8) -> u32 {
            self.regs[usize::from(index & 0xF)]
        }

        fn read_operand(&self, sel: OperandSel) -> u32 {
            self.block.field(sel.bits() as u8)
        }

        fn write_result(&mut self, value: u32) {
            self.block.result = value;
        }

        fn return_from_software(&mut self) -> RetInfo {
            self.ret
        }

        fn write_operand_field(&mut self, field: u8, value: u32) {
            self.block.set_field(field, value);
        }

        fn read_operand_field(&self, field: u8) -> u32 {
            self.block.field(field)
        }
    }

    /// Words of every encoding class, half of them unconditional, with
    /// one register field often forced to `r15` or the bits-19:16 field
    /// aliased to bits 15:12 (`rd == rn` for transfers); plus arbitrary
    /// words.
    fn arb_word() -> impl Strategy<Value = u32> {
        let cond = prop_oneof![Just(Cond::Al as u32), 0u32..15];
        let pc_field = prop_oneof![
            Just(0u32),
            Just(0xF << 16),
            Just(0xF << 12),
            Just(0xF << 8),
            Just(0xF << 7),
            Just(0xF)
        ];
        let structured = (cond, 0u32..11, any::<u32>(), pc_field, any::<bool>()).prop_map(
            |(cond, class, body, pc, alias)| {
                let body = if alias { body & !(0xF << 16) | (body >> 12 & 0xF) << 16 } else { body };
                cond << 28 | class << 24 | (body | pc) & 0xFF_FFFF
            },
        );
        prop_oneof![structured, any::<u32>()]
    }

    /// Register values: word addresses inside the 256-byte test memory,
    /// unaligned or straddling its end, or anything.
    fn arb_value() -> impl Strategy<Value = u32> {
        prop_oneof![(0u32..64).prop_map(|w| w * 4), 0u32..264, any::<u32>()]
    }

    fn arb_coproc() -> impl Strategy<Value = Scripted> {
        let result = prop_oneof![
            (any::<u32>(), 1u64..40).prop_map(|(value, cycles)| CoprocResult::Done { value, cycles }),
            (1u64..40).prop_map(|cycles| CoprocResult::Interrupted { cycles }),
            (arb_value(), 0u64..8)
                .prop_map(|(target, cycles)| CoprocResult::SoftwareDispatch { target, cycles }),
            Just(CoprocResult::Fault),
        ];
        let ret = (0u8..16, any::<u32>(), arb_value())
            .prop_map(|(rd, result, ret_addr)| RetInfo { rd, result, ret_addr });
        let regs = proptest::collection::vec(any::<u32>(), 16..17);
        let fields = proptest::collection::vec(any::<u32>(), 5..6);
        (result, ret, regs, fields).prop_map(|(result, ret, regs, fields)| {
            let mut block = OperandBlock::default();
            for (i, v) in fields.into_iter().enumerate() {
                block.set_field(i as u8, v);
            }
            let regs = regs.try_into().expect("16 registers");
            Scripted { result, ret, regs, block, issues: Vec::new() }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16384))]

        /// The specialised micro-ops against the reference lane: the
        /// same word from the same state, lowered by `lower` and by
        /// `lower_general`, must leave identical registers, flags,
        /// cycles, execution mix, memory, coprocessor and stop.
        #[test]
        fn lowered_ops_match_the_general_lane(
            word in arb_word(),
            regs in proptest::collection::vec(arb_value(), 16..17),
            (nzcv, soft_depth, start, budget) in (0u32..16, 0u32..3, 0u64..1000, 0u64..64),
            pc in prop_oneof![(0u32..64).prop_map(|w| w * 4), any::<u32>().prop_map(|a| a & !3)],
            bytes in proptest::collection::vec(any::<u8>(), 256..257),
            coproc in arb_coproc(),
        ) {
            let Ok(instr) = proteus_isa::decode(word) else {
                return Ok(());
            };
            let regs = regs.try_into().expect("16 registers");
            let mut ctx = Context { regs, cpsr: nzcv << 28, soft_depth };
            ctx.regs[15] = pc;
            let mut mem = Memory::new(256);
            mem.write_bytes(0, &bytes).expect("fits");
            let run = |op: Op| {
                let mut cpu = Cpu::new();
                cpu.restore_context(&ctx);
                cpu.add_cycles(start);
                let (mut mem, mut coproc) = (mem.clone(), coproc.clone());
                let stop = cpu.exec(op, pc, &mut mem, &mut coproc, start + budget);
                (stop, cpu.save_context(), cpu.cycles(), cpu.exec_mix(), mem, coproc)
            };
            let (lowered, general) = (run(lower(instr, pc)), run(lower_general(instr)));
            prop_assert_eq!(lowered, general, "{:#010x} {}", word, instr);
        }
    }

    #[test]
    fn block_transfer_roundtrip() {
        let (cpu, _) = run_asm(
            "mov r0, #1\n mov r1, #2\n mov r2, #3\n\
             push {r0-r2}\n\
             mov r0, #0\n mov r1, #0\n mov r2, #0\n\
             pop {r0-r2}\n\
             swi #0\n",
        );
        assert_eq!((cpu.reg(0), cpu.reg(1), cpu.reg(2)), (1, 2, 3));
    }
}
