//! The RM64 emulator.
//!
//! The emulator is the testbed of the whole reproduction: the same machine
//! runs the original compiled functions, the ROP-rewritten chains (which are
//! *data* driven through `ret`), the VM-obfuscated interpreters and the
//! concrete side of the concolic attacker. It counts instructions and an
//! abstract cycle cost, optionally records a full [`Trace`], and can snapshot
//! and restore its state (used by the multi-path attack tools).
//!
//! One generic `step_inner::<TRACING>` body defines every instruction; the
//! trace bookkeeping is compiled out of its non-tracing copy.
//! [`Emulator::run`] picks the copy once per run and loops over it with
//! instruction fetch inlined, so the hot loop makes no per-step call and no
//! per-step trace check. Fetch resolves `rip` through the memory's fetch TLB
//! to a page slot and serves the predecoded instruction from the icache
//! tables of that slot. [`Emulator::step`] executes the same body one
//! instruction at a time for callers that interleave their own analysis.

use crate::flags::Flags;
use crate::icache::ICache;
use crate::image::{Image, HEAP_BASE, HEAP_SIZE, RETURN_SENTINEL, STACK_TOP};
use crate::inst::{AluOp, Inst, Mem};
use crate::mem::{page_offset, Memory, PAGE_SIZE};
use crate::reg::Reg;
use crate::trace::{MemAccess, Trace, TraceEntry};
use crate::{decode, DecodeError};
use std::fmt;

/// Bytes the fetch path presents to the decoder (an upper bound on the
/// encoded length of any instruction).
const FETCH_WINDOW: usize = 20;

/// Default instruction budget for a single run.
pub const DEFAULT_BUDGET: u64 = 200_000_000;

/// Execution statistics kept by the emulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Abstract cycle count (memory traffic and slow ops weighted).
    pub cycles: u64,
    /// 64-bit or byte loads performed (excluding instruction fetch).
    pub mem_reads: u64,
    /// 64-bit or byte stores performed.
    pub mem_writes: u64,
    /// `ret` instructions executed.
    pub rets: u64,
    /// `call` instructions executed.
    pub calls: u64,
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Control returned to the sentinel return address; value of `rax`.
    Returned(u64),
    /// A `hlt` instruction was executed.
    Halted,
}

/// Errors the emulator can raise.
#[derive(Debug, Clone, PartialEq)]
pub enum EmuError {
    /// The bytes at `addr` did not decode to an instruction.
    Decode {
        /// Fetch address.
        addr: u64,
        /// Underlying decoder error.
        source: DecodeError,
    },
    /// The instruction budget was exhausted.
    BudgetExceeded {
        /// Instructions executed before giving up.
        executed: u64,
    },
    /// Division by zero.
    DivideByZero {
        /// Address of the faulting instruction.
        addr: u64,
    },
    /// The guest heap is exhausted: an allocation would move the break past
    /// the end of the heap region, into the chain/stack space above it.
    HeapExhausted {
        /// Requested allocation size in bytes.
        requested: u64,
        /// Heap break at the time of the request.
        brk: u64,
    },
    /// [`Emulator::call_named`] was given a name the image does not define.
    UnknownFunction(String),
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::Decode { addr, source } => write!(f, "decode fault at {addr:#x}: {source}"),
            EmuError::BudgetExceeded { executed } => {
                write!(f, "instruction budget exhausted after {executed} instructions")
            }
            EmuError::DivideByZero { addr } => write!(f, "division by zero at {addr:#x}"),
            EmuError::HeapExhausted { requested, brk } => {
                write!(f, "guest heap exhausted: {requested} bytes requested at break {brk:#x}")
            }
            EmuError::UnknownFunction(name) => write!(f, "function `{name}` not found in image"),
        }
    }
}

impl std::error::Error for EmuError {}

/// CPU register file, program counter and flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    /// The sixteen general-purpose registers.
    pub regs: [u64; 16],
    /// Program counter.
    pub rip: u64,
    /// Condition flags.
    pub flags: Flags,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu { regs: [0; 16], rip: 0, flags: Flags::cleared() }
    }
}

impl Cpu {
    /// Reads a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }
}

/// A resumable snapshot of the full machine state.
///
/// Snapshots power two multi-path idioms: the batched differential verifier
/// restores a pristine post-load state between test cases, and the DSE
/// fork-point explorer captures one at every symbolic branch so a flipped
/// branch can resume from the fork instead of re-running the whole prefix.
#[derive(Debug, Clone)]
pub struct Snapshot {
    cpu: Cpu,
    mem: Memory,
    stats: ExecStats,
    heap_break: u64,
}

impl Snapshot {
    /// Execution statistics at capture time. A run resumed from this
    /// snapshot continues counting from here, so instruction accounting
    /// (and budget exhaustion) stays identical to a run that executed the
    /// whole prefix — only the wall-clock cost of the prefix is skipped.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Program counter at capture time.
    pub fn rip(&self) -> u64 {
        self.cpu.rip
    }
}

/// The RM64 emulator.
#[derive(Debug, Clone)]
pub struct Emulator {
    /// CPU state.
    pub cpu: Cpu,
    /// Guest memory.
    pub mem: Memory,
    stats: ExecStats,
    budget: u64,
    trace: Option<Trace>,
    heap_break: u64,
    icache: ICache,
    icache_enabled: bool,
}

impl Emulator {
    /// Creates an emulator with the image loaded at its stated bases and an
    /// empty stack.
    pub fn new(image: &Image) -> Emulator {
        let mut mem = Memory::new();
        mem.write_bytes(image.text_base, &image.text);
        mem.write_bytes(image.data_base, &image.data);
        let mut cpu = Cpu::default();
        cpu.set_reg(Reg::Rsp, STACK_TOP);
        Emulator {
            cpu,
            mem,
            stats: ExecStats::default(),
            budget: DEFAULT_BUDGET,
            trace: None,
            heap_break: HEAP_BASE,
            icache: ICache::default(),
            icache_enabled: true,
        }
    }

    /// Sets the per-run instruction budget.
    pub fn set_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    /// Enables or disables the predecoded instruction cache. Disabled, the
    /// emulator re-decodes every fetch — the reference slow path that the
    /// differential stepper tests (and the `emu_dispatch` bench baseline)
    /// compare the cached fast path against. Results are bit-identical
    /// either way; only the speed differs.
    pub fn set_icache_enabled(&mut self, enabled: bool) {
        self.icache_enabled = enabled;
    }

    /// Enables or disables trace recording (starts a fresh trace).
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace = if enabled { Some(Trace::new()) } else { None };
    }

    /// Takes the recorded trace, leaving tracing enabled with a fresh trace.
    pub fn take_trace(&mut self) -> Trace {
        match self.trace.as_mut() {
            Some(t) => std::mem::take(t),
            None => Trace::new(),
        }
    }

    /// Execution statistics since construction (or the last [`Emulator::reset_stats`]).
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Clears the execution statistics.
    pub fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.cpu.reg(r)
    }

    /// Writes a register.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.cpu.set_reg(r, v);
    }

    /// Captures a snapshot that [`Emulator::restore`] can later return to.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cpu: self.cpu.clone(),
            mem: self.mem.clone(),
            stats: self.stats,
            heap_break: self.heap_break,
        }
    }

    /// Restores a snapshot taken with [`Emulator::snapshot`].
    ///
    /// Resident pages are reverted in place rather than re-cloned, so a
    /// restore of a mostly-unchanged memory (the batched differential
    /// verifier restores between every test case) costs comparisons, not
    /// allocations — and pages whose contents did not diverge keep their
    /// write generation, which keeps the predecoded instruction cache warm
    /// across restores.
    pub fn restore(&mut self, snap: &Snapshot) {
        self.cpu = snap.cpu.clone();
        self.mem.restore_from(&snap.mem);
        self.stats = snap.stats;
        self.heap_break = snap.heap_break;
    }

    /// Forks a warm copy of this emulator, sharing nothing.
    ///
    /// Cloning is cheap relative to `Emulator::new` + first-touch execution:
    /// the resident pages are copied as flat slices and the predecoded
    /// instruction cache comes along warm (per-page write generations
    /// match), so a forked emulator starts at full dispatch speed. Attack
    /// fleets use this to stamp out per-worker emulators from one warmed-up
    /// instance.
    pub fn fork(&self) -> Emulator {
        self.clone()
    }

    /// A simple `sbrk`-style guest heap allocator used by runtime helpers.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::HeapExhausted`] when the allocation would move
    /// the break past the end of the heap region — continuing would silently
    /// corrupt the chain/stack space above it.
    pub fn heap_alloc(&mut self, size: u64) -> Result<u64, EmuError> {
        let addr = (self.heap_break + 15) & !15;
        match addr.checked_add(size) {
            Some(new_break) if new_break <= HEAP_BASE + HEAP_SIZE => {
                self.heap_break = new_break;
                Ok(addr)
            }
            _ => Err(EmuError::HeapExhausted { requested: size, brk: self.heap_break }),
        }
    }

    fn effective_addr(&self, m: Mem) -> u64 {
        let mut a = m.disp as i64 as u64;
        if let Some(b) = m.base {
            a = a.wrapping_add(self.cpu.reg(b));
        }
        if let Some(i) = m.index {
            a = a.wrapping_add(self.cpu.reg(i).wrapping_mul(m.scale as u64));
        }
        a
    }

    /// Fetches and decodes the instruction at `rip`, through the predecoded
    /// cache when enabled.
    #[inline(always)]
    fn fetch(&mut self) -> Result<(Inst, usize), EmuError> {
        let rip = self.cpu.rip;
        let off = page_offset(rip);
        let page = self.mem.fetch_slot(rip);
        let cached = page.filter(|_| self.icache_enabled);
        if let Some((slot, gen, _)) = cached {
            if let Some((inst, len)) = self.icache.lookup(slot, off, gen) {
                return Ok((inst, len as usize));
            }
        }
        let decoded = match page {
            // The fast path decodes straight from the resident page slice.
            Some((_, _, bytes)) if PAGE_SIZE - off >= FETCH_WINDOW => decode(&bytes[off..]),
            // Near a page boundary (or on an untouched page, which reads as
            // zeros) compose the window byte-buffer across pages.
            _ => {
                let mut buf = [0u8; FETCH_WINDOW];
                self.mem.read_bytes(rip, &mut buf);
                decode(&buf)
            }
        };
        let (inst, len) = decoded.map_err(|source| EmuError::Decode { addr: rip, source })?;
        if let Some((slot, gen, _)) = cached.filter(|_| off + len <= PAGE_SIZE) {
            self.icache.insert(slot, off, gen, inst, len as u8);
        }
        Ok((inst, len))
    }

    /// Decodes (without executing) the instruction at the current `rip`,
    /// through the predecoded cache. Attack tools that interleave shadow
    /// analyses with stepping use this instead of re-reading and re-decoding
    /// the fetch window themselves.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::Decode`] when the bytes at `rip` are not an
    /// instruction.
    pub fn peek_inst(&mut self) -> Result<(Inst, usize), EmuError> {
        self.fetch()
    }

    fn cost(inst: &Inst) -> u64 {
        let mut c = 1;
        if inst.touches_memory() {
            c += 2;
        }
        match inst {
            Inst::Mul(..) | Inst::MulI(..) => c += 2,
            Inst::Div(..) | Inst::Rem(..) => c += 20,
            Inst::Call(_) | Inst::CallReg(_) | Inst::Ret => c += 1,
            _ => {}
        }
        c
    }

    /// Executes a single instruction.
    ///
    /// Returns `Some(exit)` when the machine reached the return sentinel or a
    /// `hlt`.
    ///
    /// # Errors
    ///
    /// Propagates decode faults, division by zero and budget exhaustion.
    pub fn step(&mut self) -> Result<Option<RunExit>, EmuError> {
        if self.trace.is_some() {
            self.step_inner::<true>()
        } else {
            self.step_inner::<false>()
        }
    }

    #[inline(always)]
    fn step_inner<const TRACING: bool>(&mut self) -> Result<Option<RunExit>, EmuError> {
        if self.cpu.rip == RETURN_SENTINEL {
            return Ok(Some(RunExit::Returned(self.cpu.reg(Reg::Rax))));
        }
        if self.stats.instructions >= self.budget {
            return Err(EmuError::BudgetExceeded { executed: self.stats.instructions });
        }
        let addr = self.cpu.rip;
        let (inst, len) = self.fetch()?;
        let rsp_before = self.cpu.reg(Reg::Rsp);
        let mut mem_log: Vec<MemAccess> = Vec::new();
        let mut reg_log: Vec<(Reg, u64)> = Vec::new();
        let mut branch_taken = None;

        self.stats.instructions += 1;
        self.stats.cycles += Self::cost(&inst);

        let next = addr.wrapping_add(len as u64);
        self.cpu.rip = next;

        macro_rules! read64 {
            ($a:expr) => {{
                let a = $a;
                let v = self.mem.read_u64(a);
                self.stats.mem_reads += 1;
                if TRACING {
                    mem_log.push(MemAccess { addr: a, value: v, size: 8, is_write: false });
                }
                v
            }};
        }
        macro_rules! write64 {
            ($a:expr, $v:expr) => {{
                let a = $a;
                let v = $v;
                self.mem.write_u64(a, v);
                self.stats.mem_writes += 1;
                if TRACING {
                    mem_log.push(MemAccess { addr: a, value: v, size: 8, is_write: true });
                }
            }};
        }
        macro_rules! setreg {
            ($r:expr, $v:expr) => {{
                let r = $r;
                let v = $v;
                self.cpu.set_reg(r, v);
                if TRACING {
                    reg_log.push((r, v));
                }
            }};
        }

        let mut halted = false;
        match inst {
            Inst::Nop => {}
            Inst::Hlt => halted = true,
            Inst::MovRR(d, s) => setreg!(d, self.cpu.reg(s)),
            Inst::MovRI(d, i) => setreg!(d, i as u64),
            Inst::Load(d, m) => {
                let a = self.effective_addr(m);
                setreg!(d, read64!(a));
            }
            Inst::Store(m, s) => {
                let a = self.effective_addr(m);
                write64!(a, self.cpu.reg(s));
            }
            Inst::StoreI(m, i) => {
                let a = self.effective_addr(m);
                write64!(a, i as i64 as u64);
            }
            Inst::LoadB(d, m) => {
                let a = self.effective_addr(m);
                let v = self.mem.read_u8(a) as u64;
                self.stats.mem_reads += 1;
                if TRACING {
                    mem_log.push(MemAccess { addr: a, value: v, size: 1, is_write: false });
                }
                setreg!(d, v);
            }
            Inst::LoadSxB(d, m) => {
                let a = self.effective_addr(m);
                let v = self.mem.read_u8(a) as i8 as i64 as u64;
                self.stats.mem_reads += 1;
                if TRACING {
                    mem_log.push(MemAccess { addr: a, value: v, size: 1, is_write: false });
                }
                setreg!(d, v);
            }
            Inst::StoreB(m, s) => {
                let a = self.effective_addr(m);
                let v = self.cpu.reg(s) as u8;
                self.mem.write_u8(a, v);
                self.stats.mem_writes += 1;
                if TRACING {
                    mem_log.push(MemAccess { addr: a, value: v as u64, size: 1, is_write: true });
                }
            }
            Inst::Lea(d, m) => setreg!(d, self.effective_addr(m)),
            Inst::Push(r) => {
                let sp = self.cpu.reg(Reg::Rsp).wrapping_sub(8);
                self.cpu.set_reg(Reg::Rsp, sp);
                write64!(sp, self.cpu.reg(r));
            }
            Inst::PushI(i) => {
                let sp = self.cpu.reg(Reg::Rsp).wrapping_sub(8);
                self.cpu.set_reg(Reg::Rsp, sp);
                write64!(sp, i as i64 as u64);
            }
            Inst::Pop(r) => {
                let sp = self.cpu.reg(Reg::Rsp);
                let v = read64!(sp);
                self.cpu.set_reg(Reg::Rsp, sp.wrapping_add(8));
                setreg!(r, v);
            }
            Inst::Alu(op, d, s) => {
                let v = self.alu(op, self.cpu.reg(d), self.cpu.reg(s));
                setreg!(d, v);
            }
            Inst::AluI(op, d, i) => {
                let v = self.alu(op, self.cpu.reg(d), i as i64 as u64);
                setreg!(d, v);
            }
            Inst::AluM(op, d, m) => {
                let a = self.effective_addr(m);
                let rhs = read64!(a);
                let v = self.alu(op, self.cpu.reg(d), rhs);
                setreg!(d, v);
            }
            Inst::AluStore(op, m, s) => {
                let a = self.effective_addr(m);
                let lhs = read64!(a);
                let v = self.alu(op, lhs, self.cpu.reg(s));
                write64!(a, v);
            }
            Inst::Neg(r) => {
                let v = self.cpu.flags.set_neg(self.cpu.reg(r));
                setreg!(r, v);
            }
            Inst::Not(r) => {
                // x86 `not` leaves the flags untouched.
                setreg!(r, !self.cpu.reg(r));
            }
            Inst::Mul(d, s) => {
                let a = self.cpu.reg(d) as i64 as i128;
                let b = self.cpu.reg(s) as i64 as i128;
                let full = a * b;
                let r = full as u64;
                let over = full != (r as i64 as i128);
                self.cpu.flags.cf = over;
                self.cpu.flags.of = over;
                self.cpu.flags.zf = r == 0;
                self.cpu.flags.sf = (r as i64) < 0;
                setreg!(d, r);
            }
            Inst::MulI(d, s, i) => {
                let a = self.cpu.reg(s) as i64 as i128;
                let b = i as i128;
                let full = a * b;
                let r = full as u64;
                let over = full != (r as i64 as i128);
                self.cpu.flags.cf = over;
                self.cpu.flags.of = over;
                self.cpu.flags.zf = r == 0;
                self.cpu.flags.sf = (r as i64) < 0;
                setreg!(d, r);
            }
            Inst::Div(d, s) => {
                let b = self.cpu.reg(s);
                if b == 0 {
                    return Err(EmuError::DivideByZero { addr });
                }
                setreg!(d, self.cpu.reg(d) / b);
            }
            Inst::Rem(d, s) => {
                let b = self.cpu.reg(s);
                if b == 0 {
                    return Err(EmuError::DivideByZero { addr });
                }
                setreg!(d, self.cpu.reg(d) % b);
            }
            Inst::Shl(r, i) => {
                let v = self.shift(self.cpu.reg(r), i as u64, ShiftKind::Left);
                setreg!(r, v);
            }
            Inst::Shr(r, i) => {
                let v = self.shift(self.cpu.reg(r), i as u64, ShiftKind::LogicalRight);
                setreg!(r, v);
            }
            Inst::Sar(r, i) => {
                let v = self.shift(self.cpu.reg(r), i as u64, ShiftKind::ArithmeticRight);
                setreg!(r, v);
            }
            Inst::ShlR(d, s) => {
                let v = self.shift(self.cpu.reg(d), self.cpu.reg(s), ShiftKind::Left);
                setreg!(d, v);
            }
            Inst::ShrR(d, s) => {
                let v = self.shift(self.cpu.reg(d), self.cpu.reg(s), ShiftKind::LogicalRight);
                setreg!(d, v);
            }
            Inst::Cmp(a, b) => {
                self.cpu.flags.set_sub(self.cpu.reg(a), self.cpu.reg(b), false);
            }
            Inst::CmpI(a, i) => {
                self.cpu.flags.set_sub(self.cpu.reg(a), i as i64 as u64, false);
            }
            Inst::CmpMI(m, i) => {
                let a = self.effective_addr(m);
                let lhs = read64!(a);
                self.cpu.flags.set_sub(lhs, i as i64 as u64, false);
            }
            Inst::Test(a, b) => {
                let v = self.cpu.reg(a) & self.cpu.reg(b);
                self.cpu.flags.set_logic(v);
            }
            Inst::TestI(a, i) => {
                let v = self.cpu.reg(a) & (i as i64 as u64);
                self.cpu.flags.set_logic(v);
            }
            Inst::Cmov(c, d, s) => {
                if c.eval(self.cpu.flags) {
                    setreg!(d, self.cpu.reg(s));
                }
            }
            Inst::Set(c, d) => setreg!(d, c.eval(self.cpu.flags) as u64),
            Inst::Jmp(rel) => {
                self.cpu.rip = next.wrapping_add(rel as i64 as u64);
            }
            Inst::JmpReg(r) => {
                self.cpu.rip = self.cpu.reg(r);
            }
            Inst::JmpMem(m) => {
                let a = self.effective_addr(m);
                self.cpu.rip = read64!(a);
            }
            Inst::Jcc(c, rel) => {
                let taken = c.eval(self.cpu.flags);
                branch_taken = Some(taken);
                if taken {
                    self.cpu.rip = next.wrapping_add(rel as i64 as u64);
                }
            }
            Inst::Call(rel) => {
                self.stats.calls += 1;
                let sp = self.cpu.reg(Reg::Rsp).wrapping_sub(8);
                self.cpu.set_reg(Reg::Rsp, sp);
                write64!(sp, next);
                self.cpu.rip = next.wrapping_add(rel as i64 as u64);
            }
            Inst::CallReg(r) => {
                self.stats.calls += 1;
                let target = self.cpu.reg(r);
                let sp = self.cpu.reg(Reg::Rsp).wrapping_sub(8);
                self.cpu.set_reg(Reg::Rsp, sp);
                write64!(sp, next);
                self.cpu.rip = target;
            }
            Inst::Ret => {
                self.stats.rets += 1;
                let sp = self.cpu.reg(Reg::Rsp);
                let target = read64!(sp);
                self.cpu.set_reg(Reg::Rsp, sp.wrapping_add(8));
                self.cpu.rip = target;
            }
            Inst::Leave => {
                let bp = self.cpu.reg(Reg::Rbp);
                self.cpu.set_reg(Reg::Rsp, bp);
                let v = read64!(bp);
                self.cpu.set_reg(Reg::Rsp, bp.wrapping_add(8));
                setreg!(Reg::Rbp, v);
            }
            Inst::XchgRR(a, b) => {
                let va = self.cpu.reg(a);
                let vb = self.cpu.reg(b);
                setreg!(a, vb);
                setreg!(b, va);
            }
            Inst::XchgRM(r, m) => {
                let a = self.effective_addr(m);
                let mv = read64!(a);
                let rv = self.cpu.reg(r);
                write64!(a, rv);
                setreg!(r, mv);
            }
        }

        if TRACING {
            if let Some(trace) = self.trace.as_mut() {
                trace.entries.push(TraceEntry {
                    index: self.stats.instructions - 1,
                    addr,
                    inst,
                    rsp_before,
                    rsp_after: self.cpu.reg(Reg::Rsp),
                    flags_after: self.cpu.flags,
                    reg_writes: reg_log,
                    mem: mem_log,
                    branch_taken,
                });
            }
        }

        if halted {
            return Ok(Some(RunExit::Halted));
        }
        if self.cpu.rip == RETURN_SENTINEL {
            return Ok(Some(RunExit::Returned(self.cpu.reg(Reg::Rax))));
        }
        Ok(None)
    }

    fn alu(&mut self, op: AluOp, a: u64, b: u64) -> u64 {
        let f = &mut self.cpu.flags;
        match op {
            AluOp::Add => f.set_add(a, b, false),
            AluOp::Adc => {
                let carry = f.cf;
                f.set_add(a, b, carry)
            }
            AluOp::Sub => f.set_sub(a, b, false),
            AluOp::Sbb => {
                let borrow = f.cf;
                f.set_sub(a, b, borrow)
            }
            AluOp::And => {
                let r = a & b;
                f.set_logic(r);
                r
            }
            AluOp::Or => {
                let r = a | b;
                f.set_logic(r);
                r
            }
            AluOp::Xor => {
                let r = a ^ b;
                f.set_logic(r);
                r
            }
        }
    }

    fn shift(&mut self, value: u64, count: u64, kind: ShiftKind) -> u64 {
        let count = count & 63;
        if count == 0 {
            return value;
        }
        let (result, last_out) = match kind {
            ShiftKind::Left => (value << count, (value >> (64 - count)) & 1),
            ShiftKind::LogicalRight => (value >> count, (value >> (count - 1)) & 1),
            ShiftKind::ArithmeticRight => {
                (((value as i64) >> count) as u64, (value >> (count - 1)) & 1)
            }
        };
        self.cpu.flags.set_logic(result);
        self.cpu.flags.cf = last_out != 0;
        result
    }

    /// Runs until the sentinel return, a halt, an error or budget exhaustion.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Emulator::step`].
    pub fn run(&mut self) -> Result<RunExit, EmuError> {
        if self.trace.is_some() {
            self.run_inner::<true>()
        } else {
            self.run_inner::<false>()
        }
    }

    fn run_inner<const TRACING: bool>(&mut self) -> Result<RunExit, EmuError> {
        loop {
            if let Some(exit) = self.step_inner::<TRACING>()? {
                return Ok(exit);
            }
        }
    }

    /// Calls the function at `addr` with up to six integer arguments, using
    /// the SysV-like ABI (`rdi, rsi, rdx, rcx, r8, r9`), and runs it to
    /// completion. Returns `rax`.
    ///
    /// The stack pointer is reset to the top of the stack region before the
    /// call; registers other than the arguments keep their previous values.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Emulator::run`].
    pub fn call(&mut self, addr: u64, args: &[u64]) -> Result<u64, EmuError> {
        assert!(args.len() <= Reg::ARGS.len(), "at most 6 register arguments supported");
        self.cpu.set_reg(Reg::Rsp, STACK_TOP);
        for (r, v) in Reg::ARGS.iter().zip(args) {
            self.cpu.set_reg(*r, *v);
        }
        // Push the sentinel return address.
        let sp = self.cpu.reg(Reg::Rsp) - 8;
        self.cpu.set_reg(Reg::Rsp, sp);
        self.mem.write_u64(sp, RETURN_SENTINEL);
        self.cpu.rip = addr;
        match self.run()? {
            RunExit::Returned(v) => Ok(v),
            RunExit::Halted => Ok(self.cpu.reg(Reg::Rax)),
        }
    }

    /// Convenience wrapper: looks a function up by name in `image` and calls
    /// it. The image must be the one the emulator was created from (or one
    /// with identical layout).
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::UnknownFunction`] if `image` has no function
    /// `name`, and propagates any error from [`Emulator::call`].
    pub fn call_named(&mut self, image: &Image, name: &str, args: &[u64]) -> Result<u64, EmuError> {
        let f = image.function(name).map_err(|_| EmuError::UnknownFunction(name.to_string()))?;
        self.call(f.addr, args)
    }
}

#[derive(Clone, Copy)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithmeticRight,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::flags::Cond;
    use crate::image::ImageBuilder;

    fn build_and_run(f: impl FnOnce(&mut Assembler), args: &[u64]) -> u64 {
        let mut asm = Assembler::new();
        f(&mut asm);
        let mut b = ImageBuilder::new();
        b.add_function("f", asm);
        let img = b.build().unwrap();
        let mut emu = Emulator::new(&img);
        emu.call_named(&img, "f", args).unwrap()
    }

    #[test]
    fn simple_arithmetic_function() {
        // f(a, b) = a * 2 + b
        let r = build_and_run(
            |a| {
                a.inst(Inst::MovRR(Reg::Rax, Reg::Rdi))
                    .inst(Inst::Shl(Reg::Rax, 1))
                    .inst(Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rsi))
                    .inst(Inst::Ret);
            },
            &[21, 5],
        );
        assert_eq!(r, 47);
    }

    #[test]
    fn conditional_branch_and_loop() {
        // f(n) = sum of 1..=n
        let r = build_and_run(
            |a| {
                let top = a.new_label();
                let done = a.new_label();
                a.inst(Inst::MovRI(Reg::Rax, 0));
                a.bind(top);
                a.inst(Inst::CmpI(Reg::Rdi, 0));
                a.jcc(Cond::E, done);
                a.inst(Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rdi));
                a.inst(Inst::AluI(AluOp::Sub, Reg::Rdi, 1));
                a.jmp(top);
                a.bind(done);
                a.inst(Inst::Ret);
            },
            &[10],
        );
        assert_eq!(r, 55);
    }

    #[test]
    fn stack_frame_and_memory() {
        // Store the argument in a local, reload it, double it.
        let r = build_and_run(
            |a| {
                a.inst(Inst::Push(Reg::Rbp))
                    .inst(Inst::MovRR(Reg::Rbp, Reg::Rsp))
                    .inst(Inst::AluI(AluOp::Sub, Reg::Rsp, 16))
                    .inst(Inst::Store(Mem::base_disp(Reg::Rbp, -8), Reg::Rdi))
                    .inst(Inst::Load(Reg::Rax, Mem::base_disp(Reg::Rbp, -8)))
                    .inst(Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rax))
                    .inst(Inst::Leave)
                    .inst(Inst::Ret);
            },
            &[33],
        );
        assert_eq!(r, 66);
    }

    #[test]
    fn neg_adc_flag_leak_idiom() {
        // The paper's Figure 1 idiom: rcx = (rax != 0) ? 1 : 0 via neg + adc.
        for (input, expected) in [(0u64, 0u64), (7, 1), (u64::MAX, 1)] {
            let r = build_and_run(
                |a| {
                    a.inst(Inst::MovRI(Reg::Rcx, 0))
                        .inst(Inst::MovRR(Reg::Rax, Reg::Rdi))
                        .inst(Inst::Neg(Reg::Rax))
                        .inst(Inst::Alu(AluOp::Adc, Reg::Rcx, Reg::Rcx))
                        .inst(Inst::MovRR(Reg::Rax, Reg::Rcx))
                        .inst(Inst::Ret);
                },
                &[input],
            );
            assert_eq!(r, expected, "input {input}");
        }
    }

    #[test]
    fn call_and_return_between_functions() {
        let mut callee = Assembler::new();
        callee
            .inst(Inst::MovRR(Reg::Rax, Reg::Rdi))
            .inst(Inst::MulI(Reg::Rax, Reg::Rdi, 3))
            .inst(Inst::Ret);
        let mut caller = Assembler::new();
        caller
            .inst(Inst::AluI(AluOp::Add, Reg::Rdi, 1))
            .call_sym("callee")
            .inst(Inst::AluI(AluOp::Add, Reg::Rax, 100))
            .inst(Inst::Ret);
        let mut b = ImageBuilder::new();
        b.add_function("callee", callee);
        b.add_function("caller", caller);
        let img = b.build().unwrap();
        let mut emu = Emulator::new(&img);
        assert_eq!(emu.call_named(&img, "caller", &[4]).unwrap(), 115);
        assert_eq!(emu.stats().calls, 1);
        assert_eq!(emu.stats().rets, 2);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut asm = Assembler::new();
        let top = asm.new_label();
        asm.bind(top);
        asm.jmp(top);
        let mut b = ImageBuilder::new();
        b.add_function("spin", asm);
        let img = b.build().unwrap();
        let mut emu = Emulator::new(&img);
        emu.set_budget(1000);
        let err = emu.call_named(&img, "spin", &[]).unwrap_err();
        assert!(matches!(err, EmuError::BudgetExceeded { .. }));
    }

    #[test]
    fn unknown_function_is_a_typed_error() {
        let mut asm = Assembler::new();
        asm.inst(Inst::Ret);
        let mut b = ImageBuilder::new();
        b.add_function("f", asm);
        let img = b.build().unwrap();
        let mut emu = Emulator::new(&img);
        let err = emu.call_named(&img, "missing", &[]).unwrap_err();
        assert_eq!(err, EmuError::UnknownFunction("missing".into()));
        assert_eq!(err.to_string(), "function `missing` not found in image");
        assert_eq!(emu.stats(), ExecStats::default(), "nothing ran");
    }

    #[test]
    fn divide_by_zero_faults() {
        let mut asm = Assembler::new();
        asm.inst(Inst::Div(Reg::Rdi, Reg::Rsi))
            .inst(Inst::MovRR(Reg::Rax, Reg::Rdi))
            .inst(Inst::Ret);
        let mut b = ImageBuilder::new();
        b.add_function("div", asm);
        let img = b.build().unwrap();
        let mut emu = Emulator::new(&img);
        assert!(matches!(emu.call_named(&img, "div", &[1, 0]), Err(EmuError::DivideByZero { .. })));
        let mut emu2 = Emulator::new(&img);
        assert_eq!(emu2.call_named(&img, "div", &[10, 3]).unwrap(), 3);
    }

    #[test]
    fn trace_records_rets_and_branches() {
        let mut asm = Assembler::new();
        let skip = asm.new_label();
        asm.inst(Inst::CmpI(Reg::Rdi, 0));
        asm.jcc(Cond::E, skip);
        asm.inst(Inst::MovRI(Reg::Rax, 1));
        asm.bind(skip);
        asm.inst(Inst::Ret);
        let mut b = ImageBuilder::new();
        b.add_function("f", asm);
        let img = b.build().unwrap();
        let mut emu = Emulator::new(&img);
        emu.set_tracing(true);
        emu.call_named(&img, "f", &[5]).unwrap();
        let trace = emu.take_trace();
        assert_eq!(trace.ret_indices().len(), 1);
        let branch = trace.iter().find(|e| matches!(e.inst, Inst::Jcc(..))).unwrap();
        assert_eq!(branch.branch_taken, Some(false));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut asm = Assembler::new();
        asm.inst(Inst::AluI(AluOp::Add, Reg::Rdi, 1))
            .inst(Inst::MovRR(Reg::Rax, Reg::Rdi))
            .inst(Inst::Ret);
        let mut b = ImageBuilder::new();
        b.add_function("f", asm);
        let img = b.build().unwrap();
        let mut emu = Emulator::new(&img);
        let snap = emu.snapshot();
        assert_eq!(emu.call_named(&img, "f", &[1]).unwrap(), 2);
        emu.restore(&snap);
        assert_eq!(emu.stats().instructions, 0);
        assert_eq!(emu.call_named(&img, "f", &[10]).unwrap(), 11);
    }

    #[test]
    fn xchg_rsp_with_memory_switches_stacks() {
        // A miniature stack pivot: save rsp to a cell, load a new stack from
        // the cell's neighbour, then swap back.
        let mut b = ImageBuilder::new();
        let cell = b.add_bss("cell", 16);
        let mut asm = Assembler::new();
        asm.inst(Inst::MovRI(Reg::Rax, cell as i64))
            .inst(Inst::XchgRM(Reg::Rsp, Mem::base(Reg::Rax)))
            .inst(Inst::XchgRM(Reg::Rsp, Mem::base(Reg::Rax)))
            .inst(Inst::MovRR(Reg::Rax, Reg::Rsp))
            .inst(Inst::Ret);
        b.add_function("pivot", asm);
        let img = b.build().unwrap();
        let mut emu = Emulator::new(&img);
        let ret = emu.call_named(&img, "pivot", &[]).unwrap();
        assert_eq!(ret, STACK_TOP - 8, "rsp preserved after double swap");
    }
}
