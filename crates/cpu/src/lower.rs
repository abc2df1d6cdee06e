//! Lowering: decoded instructions to operand-resolved micro-ops.
//!
//! The decode cache in [`crate::memory::Memory`] stores one [`Op`] per
//! word. [`lower`] runs once, when an entry is filled, and does every
//! piece of work that does not depend on register values: immediates
//! are pre-rotated, branch targets are made absolute, register indices
//! become bare `u8`s, and the hot shapes get their own [`Uop`] variant,
//! which [`crate::cpu::Cpu::run`] reaches with one jump and no field
//! unpacking. No specialised variant reads or writes `r15`, so their
//! arms index the register file directly; every other form keeps its
//! decoded [`Instr`] in [`Uop::General`].

use proteus_isa::instr::MemOffset;
use proteus_isa::{Cond, DpOp, Instr, MemOp, Operand2, Reg, Shift};

/// One decode-cache entry: the condition and the micro-op it guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Op {
    /// Condition tested before the micro-op runs.
    pub(crate) cond: Cond,
    /// What runs when the condition passes.
    pub(crate) uop: Uop,
}

/// An operand-resolved micro-op. Register fields are indices 0–14:
/// shapes that touch `r15` lower to [`Uop::General`]. Immediates are
/// already rotated and transfer offsets are signed wrapping addends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Uop {
    /// `S`-clear data processing: `rd = rn op imm`.
    DpImm { op: DpOp, rd: u8, rn: u8, imm: u32 },
    /// `S`-clear data processing: `rd = rn op rm`.
    DpReg { op: DpOp, rd: u8, rn: u8, rm: u8 },
    /// `S`-clear data processing: `rd = rn op (rm shift)`, the shift
    /// amount never zero.
    DpShift { op: DpOp, rd: u8, rn: u8, rm: u8, shift: Shift },
    /// `subs rd, rn, #imm`.
    SubsImm { rd: u8, rn: u8, imm: u32 },
    /// `cmp rn, #imm`.
    CmpImm { rn: u8, imm: u32 },
    /// `cmp rn, rm`.
    CmpReg { rn: u8, rm: u8 },
    /// `ldr rd, [rn, #off]`.
    Ldr { rd: u8, rn: u8, off: u32 },
    /// `ldr rd, [rn], #off`.
    LdrPost { rd: u8, rn: u8, off: u32 },
    /// `str rd, [rn, #off]`.
    Str { rd: u8, rn: u8, off: u32 },
    /// `str rd, [rn], #off`.
    StrPost { rd: u8, rn: u8, off: u32 },
    /// Branch to an absolute target.
    B { target: u32 },
    /// Branch with link to an absolute target.
    Bl { target: u32 },
    /// `pfu cid, rd, rn, rm`.
    Pfu { cid: u8, rd: u8, rn: u8, rm: u8 },
    /// Every other form, executed from its decoded instruction.
    General(Instr),
}

/// Lower `instr`, fetched from address `pc`. Total: a form without a
/// specialised micro-op becomes [`Uop::General`].
pub(crate) fn lower(instr: Instr, pc: u32) -> Op {
    let low = |r: Reg| (r != Reg::PC).then_some(r.index() as u8);
    let uop = match instr {
        Instr::DataProc { op, s: false, rd, rn, op2, .. } => match (low(rd), low(rn), op2) {
            (Some(rd), Some(rn), Operand2::Imm { value, rot }) => {
                Some(Uop::DpImm { op, rd, rn, imm: Operand2::imm_value(value, rot) })
            }
            (Some(rd), Some(rn), Operand2::Reg { reg, shift }) => low(reg).map(|rm| {
                if shift.amount == 0 {
                    Uop::DpReg { op, rd, rn, rm }
                } else {
                    Uop::DpShift { op, rd, rn, rm, shift }
                }
            }),
            _ => None,
        },
        Instr::DataProc {
            op: DpOp::Sub, s: true, rd, rn, op2: Operand2::Imm { value, rot }, ..
        } => match (low(rd), low(rn)) {
            (Some(rd), Some(rn)) => Some(Uop::SubsImm { rd, rn, imm: Operand2::imm_value(value, rot) }),
            _ => None,
        },
        Instr::DataProc { op: DpOp::Cmp, rn, op2, .. } => match (low(rn), op2) {
            (Some(rn), Operand2::Imm { value, rot }) => {
                Some(Uop::CmpImm { rn, imm: Operand2::imm_value(value, rot) })
            }
            (Some(rn), Operand2::Reg { reg, shift: Shift { amount: 0, .. } }) => {
                low(reg).map(|rm| Uop::CmpReg { rn, rm })
            }
            _ => None,
        },
        Instr::Mem {
            op, byte: false, rd, rn, offset: MemOffset::Imm(imm), up, pre, writeback, ..
        } => {
            let off = if up { u32::from(imm) } else { u32::from(imm).wrapping_neg() };
            match (low(rd), low(rn), op, pre, writeback) {
                (Some(rd), Some(rn), MemOp::Ldr, true, false) => Some(Uop::Ldr { rd, rn, off }),
                (Some(rd), Some(rn), MemOp::Ldr, false, _) => Some(Uop::LdrPost { rd, rn, off }),
                (Some(rd), Some(rn), MemOp::Str, true, false) => Some(Uop::Str { rd, rn, off }),
                (Some(rd), Some(rn), MemOp::Str, false, _) => Some(Uop::StrPost { rd, rn, off }),
                _ => None,
            }
        }
        Instr::Branch { link, offset, .. } => {
            let target = pc.wrapping_add(4).wrapping_add((offset as u32).wrapping_mul(4));
            Some(if link { Uop::Bl { target } } else { Uop::B { target } })
        }
        Instr::Pfu { cid, rd, rn, rm, .. } => match (low(rd), low(rn), low(rm)) {
            (Some(rd), Some(rn), Some(rm)) => Some(Uop::Pfu { cid, rd, rn, rm }),
            _ => None,
        },
        _ => None,
    };
    Op { cond: instr.cond(), uop: uop.unwrap_or(Uop::General(instr)) }
}

/// The reference lowering: never specialises, so every word runs
/// through [`Uop::General`]. Differential tests execute both lanes.
#[cfg(test)]
pub(crate) fn lower_general(instr: Instr) -> Op {
    Op { cond: instr.cond(), uop: Uop::General(instr) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_isa::{assemble, decode};

    fn lowered(src: &str) -> Uop {
        let p = assemble(&format!(".org 0x100\n{src}\n")).expect("asm");
        lower(decode(p.words()[0]).expect("decodes"), 0x100).uop
    }

    #[test]
    fn hot_shapes_specialise_and_r15_stays_general() {
        assert_eq!(
            lowered("add r2, r2, #0x3F0"),
            Uop::DpImm { op: DpOp::Add, rd: 2, rn: 2, imm: 0x3F0 }
        );
        assert_eq!(
            lowered("ldr r3, [r0], #-4"),
            Uop::LdrPost { rd: 3, rn: 0, off: 4u32.wrapping_neg() }
        );
        assert_eq!(lowered("subs r1, r1, #1"), Uop::SubsImm { rd: 1, rn: 1, imm: 1 });
        assert_eq!(lowered("here: b here"), Uop::B { target: 0x100 });
        assert_eq!(lowered("bl next\n next:"), Uop::Bl { target: 0x104 });
        assert_eq!(lowered("pfu 2, r5, r3, r4"), Uop::Pfu { cid: 2, rd: 5, rn: 3, rm: 4 });
        for src in
            ["add r0, pc, #4", "mov pc, r1", "ldr r0, [pc, #8]", "ldr r0, [r1, #4]!", "ldrb r0, [r1]"]
        {
            assert!(matches!(lowered(src), Uop::General(_)), "{src} must stay general");
        }
    }
}
