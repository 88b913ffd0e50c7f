//! # raindrop-machine
//!
//! The machine substrate of the *raindrop* reproduction ("Hiding in the
//! Particles: When Return-Oriented Programming Meets Program Obfuscation",
//! DSN 2021): a small x86-64-shaped ISA called **RM64**, with everything the
//! ROP obfuscator and its attackers need from a real machine:
//!
//! * a register file with a stack pointer that doubles as the ROP virtual
//!   program counter ([`Reg`], [`RegSet`]);
//! * condition flags with x86-64 semantics for the `neg`/`adc` flag-leak
//!   idiom ([`Flags`], [`Cond`]);
//! * a variable-length byte encoding where `ret` is a single byte and any
//!   offset can be speculatively decoded ([`mod@encode`], [`decode`]);
//! * a two-pass [`Assembler`] and linkable [`Image`]s with `.text`/`.data`
//!   sections and a symbol table;
//! * an [`Emulator`] with cycle accounting, tracing and snapshots.
//!
//! # Example
//!
//! ```
//! use raindrop_machine::{Assembler, Emulator, ImageBuilder, Inst, Reg, AluOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut asm = Assembler::new();
//! asm.inst(Inst::MovRR(Reg::Rax, Reg::Rdi))
//!     .inst(Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rsi))
//!     .inst(Inst::Ret);
//! let mut builder = ImageBuilder::new();
//! builder.add_function("add", asm);
//! let image = builder.build()?;
//! let mut emu = Emulator::new(&image);
//! assert_eq!(emu.call_named(&image, "add", &[2, 40])?, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod emu;
pub mod encode;
pub mod flags;
pub mod hash;
mod icache;
pub mod image;
pub mod inst;
pub mod mem;
pub mod reg;
pub mod trace;

pub use asm::{AsmError, AsmItem, Assembler, Label, NoSymbols, SymbolResolver};
pub use emu::{Cpu, EmuError, Emulator, ExecStats, RunExit, Snapshot, DEFAULT_BUDGET};
pub use encode::{decode, decode_all, encode, encode_all, encoded_len, DecodeError, OP_RET};
pub use flags::{Cond, Flags};
pub use image::{
    FuncSym, Image, ImageBuilder, ImageError, DATA_BASE, HEAP_BASE, HEAP_SIZE, RETURN_SENTINEL,
    STACK_SIZE, STACK_TOP, TEXT_BASE,
};
pub use inst::{AluOp, Inst, Mem};
pub use mem::{page_key, page_offset, Memory, PAGE_SHIFT, PAGE_SIZE};
pub use reg::{Reg, RegSet};
pub use trace::{MemAccess, Trace, TraceEntry};
