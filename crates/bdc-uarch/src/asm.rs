//! A programmatic assembler for Org32.
//!
//! Workload kernels are built in Rust with labels and convenience
//! mnemonics; `assemble` resolves branch/jump offsets and produces a
//! [`Program`].

use crate::isa::{Instr, Op, Reg};

/// A label handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// An assembled program: code plus initial data image.
#[derive(Debug, Clone)]
pub struct Program {
    /// Instruction words, starting at PC 0.
    pub code: Vec<Instr>,
    /// Initial memory contents: `(word_address, value)`.
    pub data: Vec<(u32, u32)>,
}

impl Program {
    /// Program length in instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

enum Pending {
    Ready(Instr),
    Branch {
        op: Op,
        rs1: Reg,
        rs2: Reg,
        target: Label,
    },
    Jal {
        rd: Reg,
        target: Label,
    },
}

/// The assembler.
#[derive(Default)]
pub struct Asm {
    items: Vec<Pending>,
    labels: Vec<Option<usize>>,
    data: Vec<(u32, u32)>,
}

impl std::fmt::Debug for Asm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Asm({} instrs, {} labels)",
            self.items.len(),
            self.labels.len()
        )
    }
}

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Asm::default()
    }

    /// Allocates an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.items.len());
    }

    /// Current instruction index.
    pub fn here(&self) -> usize {
        self.items.len()
    }

    /// Seeds a word of initial memory.
    pub fn data_word(&mut self, word_addr: u32, value: u32) {
        self.data.push((word_addr, value));
    }

    fn push(&mut self, i: Instr) {
        self.items.push(Pending::Ready(i));
    }

    // ---- mnemonics ---------------------------------------------------------

    /// rd = rs1 + rs2
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Instr {
            op: Op::Add,
            rd,
            rs1,
            rs2,
            imm: 0,
        });
    }

    /// rd = rs1 - rs2
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Instr {
            op: Op::Sub,
            rd,
            rs1,
            rs2,
            imm: 0,
        });
    }

    /// rd = rs1 & rs2
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Instr {
            op: Op::And,
            rd,
            rs1,
            rs2,
            imm: 0,
        });
    }

    /// rd = rs1 | rs2
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Instr {
            op: Op::Or,
            rd,
            rs1,
            rs2,
            imm: 0,
        });
    }

    /// rd = rs1 ^ rs2
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Instr {
            op: Op::Xor,
            rd,
            rs1,
            rs2,
            imm: 0,
        });
    }

    /// rd = (rs1 < rs2) signed
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Instr {
            op: Op::Slt,
            rd,
            rs1,
            rs2,
            imm: 0,
        });
    }

    /// rd = rs1 << rs2
    pub fn sll(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Instr {
            op: Op::Sll,
            rd,
            rs1,
            rs2,
            imm: 0,
        });
    }

    /// rd = rs1 >> rs2 (logical)
    pub fn srl(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Instr {
            op: Op::Srl,
            rd,
            rs1,
            rs2,
            imm: 0,
        });
    }

    /// rd = rs1 >> rs2 (arithmetic)
    pub fn sra(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Instr {
            op: Op::Sra,
            rd,
            rs1,
            rs2,
            imm: 0,
        });
    }

    /// rd = rs1 * rs2
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Instr {
            op: Op::Mul,
            rd,
            rs1,
            rs2,
            imm: 0,
        });
    }

    /// rd = rs1 / rs2
    pub fn div(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Instr {
            op: Op::Div,
            rd,
            rs1,
            rs2,
            imm: 0,
        });
    }

    /// rd = rs1 % rs2
    pub fn rem(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Instr {
            op: Op::Rem,
            rd,
            rs1,
            rs2,
            imm: 0,
        });
    }

    /// rd = rs1 + imm
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.push(Instr {
            op: Op::Addi,
            rd,
            rs1,
            rs2: Reg::ZERO,
            imm,
        });
    }

    /// rd = rs1 & imm
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.push(Instr {
            op: Op::Andi,
            rd,
            rs1,
            rs2: Reg::ZERO,
            imm,
        });
    }

    /// rd = rs1 | imm
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.push(Instr {
            op: Op::Ori,
            rd,
            rs1,
            rs2: Reg::ZERO,
            imm,
        });
    }

    /// rd = rs1 ^ imm
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.push(Instr {
            op: Op::Xori,
            rd,
            rs1,
            rs2: Reg::ZERO,
            imm,
        });
    }

    /// rd = (rs1 < imm) signed
    pub fn slti(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.push(Instr {
            op: Op::Slti,
            rd,
            rs1,
            rs2: Reg::ZERO,
            imm,
        });
    }

    /// rd = imm << 13
    pub fn lui(&mut self, rd: Reg, imm: i32) {
        self.push(Instr {
            op: Op::Lui,
            rd,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm,
        });
    }

    /// Loads a constant via ADDI or LUI + ORI.
    ///
    /// # Panics
    /// Panics if `value` needs more than 26 significant bits
    /// (±2²⁶ — comfortably beyond any workload constant).
    pub fn li(&mut self, rd: Reg, value: i32) {
        if (-(1 << 13)..(1 << 13)).contains(&value) {
            self.addi(rd, Reg::ZERO, value);
            return;
        }
        assert!(
            (-(1 << 26)..(1 << 26)).contains(&value),
            "li constant {value} out of range"
        );
        let hi = value >> 13;
        let lo = (value as u32 & 0x1FFF) as i32;
        self.lui(rd, hi);
        if lo != 0 {
            self.ori(rd, rd, lo);
        }
    }

    /// rd = mem[rs1 + imm]
    pub fn lw(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.push(Instr {
            op: Op::Lw,
            rd,
            rs1,
            rs2: Reg::ZERO,
            imm,
        });
    }

    /// mem[rs1 + imm] = rs2
    pub fn sw(&mut self, rs2: Reg, rs1: Reg, imm: i32) {
        self.push(Instr {
            op: Op::Sw,
            rd: Reg::ZERO,
            rs1,
            rs2,
            imm,
        });
    }

    /// if rs1 == rs2 goto target
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.items.push(Pending::Branch {
            op: Op::Beq,
            rs1,
            rs2,
            target,
        });
    }

    /// if rs1 != rs2 goto target
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.items.push(Pending::Branch {
            op: Op::Bne,
            rs1,
            rs2,
            target,
        });
    }

    /// if rs1 < rs2 (signed) goto target
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.items.push(Pending::Branch {
            op: Op::Blt,
            rs1,
            rs2,
            target,
        });
    }

    /// if rs1 >= rs2 (signed) goto target
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.items.push(Pending::Branch {
            op: Op::Bge,
            rs1,
            rs2,
            target,
        });
    }

    /// rd = return address; goto target
    pub fn jal(&mut self, rd: Reg, target: Label) {
        self.items.push(Pending::Jal { rd, target });
    }

    /// Unconditional jump (JAL with r0 destination).
    pub fn j(&mut self, target: Label) {
        self.jal(Reg::ZERO, target);
    }

    /// rd = return address; pc = rs1 + imm (function return: `jalr r0, ra, 0`)
    pub fn jalr(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.push(Instr {
            op: Op::Jalr,
            rd,
            rs1,
            rs2: Reg::ZERO,
            imm,
        });
    }

    /// Function return.
    pub fn ret(&mut self) {
        self.jalr(Reg::ZERO, Reg::RA, 0);
    }

    /// Stop the simulation.
    pub fn halt(&mut self) {
        self.push(Instr {
            op: Op::Halt,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: 0,
        });
    }

    /// Resolves labels and produces the program.
    ///
    /// # Panics
    /// Panics on unbound labels or out-of-range offsets.
    pub fn assemble(self) -> Program {
        let resolve = |l: Label| -> usize { self.labels[l.0].expect("unbound label") };
        let code = self
            .items
            .iter()
            .enumerate()
            .map(|(pc, item)| match item {
                Pending::Ready(i) => *i,
                Pending::Branch {
                    op,
                    rs1,
                    rs2,
                    target,
                } => {
                    let off = resolve(*target) as i64 - pc as i64;
                    Instr {
                        op: *op,
                        rd: Reg::ZERO,
                        rs1: *rs1,
                        rs2: *rs2,
                        imm: i32::try_from(off).expect("branch offset fits"),
                    }
                }
                Pending::Jal { rd, target } => {
                    let off = resolve(*target) as i64 - pc as i64;
                    Instr {
                        op: Op::Jal,
                        rd: *rd,
                        rs1: Reg::ZERO,
                        rs2: Reg::ZERO,
                        imm: i32::try_from(off).expect("jump offset fits"),
                    }
                }
            })
            .collect();
        Program {
            code,
            data: self.data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Asm::new();
        let top = a.label();
        let done = a.label();
        a.bind(top);
        a.addi(Reg(1), Reg(1), 1);
        a.beq(Reg(1), Reg(2), done);
        a.j(top);
        a.bind(done);
        a.halt();
        let p = a.assemble();
        assert_eq!(p.code.len(), 4);
        // beq at pc 1 targets pc 3: offset +2.
        assert_eq!(p.code[1].imm, 2);
        // j at pc 2 targets pc 0: offset -2.
        assert_eq!(p.code[2].imm, -2);
    }

    #[test]
    fn li_handles_large_and_small_constants() {
        let mut a = Asm::new();
        a.li(Reg(1), 5);
        a.li(Reg(2), -3);
        a.li(Reg(3), 1_000_000);
        a.halt();
        let p = a.assemble();
        // small constants are a single addi.
        assert_eq!(p.code[0].op, Op::Addi);
        assert_eq!(p.code[1].op, Op::Addi);
        assert_eq!(p.code[1].imm, -3);
        // large constant uses lui+ori.
        assert_eq!(p.code[2].op, Op::Lui);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.j(l);
        let _ = a.assemble();
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }

    #[test]
    fn data_words_carried_through() {
        let mut a = Asm::new();
        a.data_word(100, 42);
        a.halt();
        let p = a.assemble();
        assert_eq!(p.data, vec![(100, 42)]);
    }
}
