//! Differential stepper: the icache-backed fast path must be bit-identical
//! to the reference slow path (icache disabled, re-decode every fetch) —
//! same [`ExecStats`], same [`Trace`] contents, same [`RunExit`] — over
//! corpus workloads, both native and ROP-rewritten.
//!
//! The step loop is the reference for [`Emulator::run`] and
//! [`Emulator::call_named`] too: they drive their own inlined dispatch loop,
//! so each is checked to stop with the same exit or error, the same
//! statistics and the same final registers as stepping, including when the
//! budget runs out mid-chain and when a division faults partway through.

use raindrop::{Rewriter, RopConfig};
use raindrop_machine::{Cpu, EmuError, Emulator, ExecStats, Image, Reg, RunExit};
use raindrop_synth::{codegen, workloads};

/// Budget of every leg unless a test sets its own.
const BUDGET: u64 = 50_000_000;

/// How a leg drives the emulator once the call is set up.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Drive {
    /// `step()` until an exit or error.
    Step,
    /// One `run()`.
    Run,
    /// `call_named`, which sets the call up itself and then runs.
    CallNamed,
}

/// Where a leg stopped: the exit or error, the statistics and the CPU.
/// `call_named` reports `rax` rather than a [`RunExit`], so every exit is
/// normalised to the value the call would return.
type Outcome = (Result<u64, EmuError>, ExecStats, Cpu);

/// Calls `entry(args)` with the given icache, tracing, budget and driver.
fn outcome(
    image: &Image,
    entry: &str,
    args: &[u64],
    (icache, tracing, budget): (bool, bool, u64),
    drive: Drive,
) -> Outcome {
    let mut emu = Emulator::new(image);
    emu.set_icache_enabled(icache);
    emu.set_tracing(tracing);
    emu.set_budget(budget);
    let result = if drive == Drive::CallNamed {
        emu.call_named(image, entry, args)
    } else {
        set_up_call(&mut emu, image, entry, args);
        let exit = if drive == Drive::Run {
            emu.run()
        } else {
            loop {
                match emu.step() {
                    Ok(Some(exit)) => break Ok(exit),
                    Ok(None) => {}
                    Err(e) => break Err(e),
                }
            }
        };
        exit.map(|e| match e {
            RunExit::Returned(v) => v,
            RunExit::Halted => emu.reg(Reg::Rax),
        })
    };
    (result, emu.stats(), emu.cpu.clone())
}

/// Asserts that `run()` and `call_named`, with and without the icache and
/// tracing, stop exactly where the reference step loop (icache off) does.
fn assert_run_matches_step(image: &Image, entry: &str, args: &[u64], budget: u64, label: &str) {
    let reference = outcome(image, entry, args, (false, false, budget), Drive::Step);
    for drive in [Drive::Step, Drive::Run, Drive::CallNamed] {
        for icache in [true, false] {
            for tracing in [true, false] {
                let got = outcome(image, entry, args, (icache, tracing, budget), drive);
                let leg = format!("{label}: {drive:?} icache={icache} tracing={tracing}");
                assert_eq!(got.0, reference.0, "{leg}: exit diverged");
                assert_eq!(got.1, reference.1, "{leg}: ExecStats diverged");
                assert_eq!(got.2, reference.2, "{leg}: final CPU diverged");
            }
        }
    }
}

/// Points `emu` at `entry(args)` exactly like [`Emulator::call`] does.
fn set_up_call(emu: &mut Emulator, image: &Image, entry: &str, args: &[u64]) {
    let f = image.function(entry).expect("entry exists").addr;
    emu.cpu.set_reg(Reg::Rsp, raindrop_machine::STACK_TOP);
    for (r, v) in Reg::ARGS.iter().zip(args) {
        emu.cpu.set_reg(*r, *v);
    }
    let sp = emu.cpu.reg(Reg::Rsp) - 8;
    emu.cpu.set_reg(Reg::Rsp, sp);
    emu.mem.write_u64(sp, raindrop_machine::RETURN_SENTINEL);
    emu.cpu.rip = f;
}

/// Runs `entry(args)` to completion and returns (exit, stats, trace).
fn run_mode(
    image: &Image,
    entry: &str,
    args: &[u64],
    icache: bool,
    tracing: bool,
) -> (RunExit, raindrop_machine::ExecStats, raindrop_machine::Trace) {
    let mut emu = Emulator::new(image);
    emu.set_icache_enabled(icache);
    emu.set_tracing(tracing);
    emu.set_budget(BUDGET);
    // Drive the run through step() directly (not run()) so the comparison
    // covers the exact per-step dispatch the attacks and verifier use.
    set_up_call(&mut emu, image, entry, args);
    let exit = loop {
        if let Some(exit) = emu.step().expect("workload steps cleanly") {
            break exit;
        }
    };
    (exit, emu.stats(), emu.take_trace())
}

/// Asserts fast/reference agreement for one image+entry in all four
/// icache × tracing combinations.
fn assert_identical(image: &Image, entry: &str, args: &[u64], label: &str) {
    let (exit_ref, stats_ref, trace_ref) = run_mode(image, entry, args, false, true);
    let (exit_fast, stats_fast, trace_fast) = run_mode(image, entry, args, true, true);
    assert_eq!(exit_fast, exit_ref, "{label}: RunExit diverged");
    assert_eq!(stats_fast, stats_ref, "{label}: ExecStats diverged");
    assert_eq!(trace_fast.len(), trace_ref.len(), "{label}: trace length diverged");
    for (a, b) in trace_fast.iter().zip(trace_ref.iter()) {
        assert_eq!(a, b, "{label}: trace entry {} diverged", a.index);
    }

    // Non-tracing runs retire the identical instruction stream.
    let (exit_nt, stats_nt, trace_nt) = run_mode(image, entry, args, true, false);
    assert_eq!(exit_nt, exit_ref, "{label}: non-tracing RunExit diverged");
    assert_eq!(stats_nt, stats_ref, "{label}: non-tracing ExecStats diverged");
    assert!(trace_nt.is_empty(), "{label}: non-tracing run recorded a trace");
    let (exit_nt_ref, stats_nt_ref, _) = run_mode(image, entry, args, false, false);
    assert_eq!(exit_nt, exit_nt_ref, "{label}: non-tracing modes diverged");
    assert_eq!(stats_nt, stats_nt_ref, "{label}: non-tracing stats diverged");

    assert_run_matches_step(image, entry, args, BUDGET, label);
}

#[test]
fn native_corpus_workloads_are_bit_identical() {
    for (w, args) in [
        (workloads::fannkuch(), vec![7u64]),
        (workloads::pidigits(), vec![30]),
        (workloads::fasta(), vec![200]),
    ] {
        let image = codegen::compile(&w.program).expect("compiles");
        assert_identical(&image, &w.entry, &args, &w.name);
    }
}

#[test]
fn rop_rewritten_chain_is_bit_identical() {
    // The ROP chain is the icache's worst case: unaligned gadget decodes,
    // dense `ret` dispatch, stack-pivot xchg traffic.
    let (obf, entry) = pidigits_rop();
    assert_identical(&obf, &entry, &[20], "pidigits-rop-full");
}

#[test]
fn halted_exit_is_bit_identical() {
    // `hlt` exits through a different path than the return sentinel; pin it.
    use raindrop_machine::{Assembler, ImageBuilder, Inst};
    let mut asm = Assembler::new();
    asm.inst(Inst::MovRI(Reg::Rax, 77)).inst(Inst::Hlt);
    let mut b = ImageBuilder::new();
    b.add_function("stop", asm);
    let img = b.build().unwrap();
    assert_identical(&img, "stop", &[], "hlt-exit");
    let (exit, _, _) = run_mode(&img, "stop", &[], true, false);
    assert_eq!(exit, RunExit::Halted);
}

/// The pidigits entry ROP-rewritten at full strength: the chain-dispatch
/// stress image shared by the chain tests.
fn pidigits_rop() -> (Image, String) {
    let w = workloads::pidigits();
    let image = codegen::compile(&w.program).expect("compiles");
    let mut obf = image.clone();
    let mut rw = Rewriter::new(RopConfig::full().with_seed(7));
    for f in &w.obfuscate {
        rw.rewrite_function(&mut obf, f).expect("rewrites");
    }
    (obf, w.entry)
}

#[test]
fn budget_exhausted_mid_chain_is_identical_in_every_mode() {
    let (obf, entry) = pidigits_rop();
    let (full, stats, _) = outcome(&obf, &entry, &[20], (true, false, BUDGET), Drive::Run);
    full.expect("the unbounded run completes");
    // Stop the chain well inside its dispatch, at an arbitrary odd count.
    let budget = stats.instructions / 3 + 1;
    let (cut, ..) = outcome(&obf, &entry, &[20], (false, false, budget), Drive::Step);
    assert_eq!(cut, Err(EmuError::BudgetExceeded { executed: budget }));
    assert_run_matches_step(&obf, &entry, &[20], budget, "pidigits-rop-budget");
}

#[test]
fn divide_by_zero_partway_is_identical_in_every_mode() {
    // f(n, d) = (1 + 2 + ... + n) / d after a loop of n iterations, so the
    // fault lands after real work has been counted.
    use raindrop_machine::{AluOp, Assembler, Cond, ImageBuilder, Inst};
    let mut asm = Assembler::new();
    let top = asm.new_label();
    let done = asm.new_label();
    asm.inst(Inst::MovRI(Reg::Rax, 0));
    asm.bind(top);
    asm.inst(Inst::CmpI(Reg::Rdi, 0));
    asm.jcc(Cond::E, done);
    asm.inst(Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rdi));
    asm.inst(Inst::AluI(AluOp::Sub, Reg::Rdi, 1));
    asm.jmp(top);
    asm.bind(done);
    asm.inst(Inst::Div(Reg::Rax, Reg::Rsi)).inst(Inst::Ret);
    let mut b = ImageBuilder::new();
    b.add_function("sumdiv", asm);
    let img = b.build().unwrap();

    let (ok, ..) = outcome(&img, "sumdiv", &[100, 7], (true, false, BUDGET), Drive::Run);
    assert_eq!(ok, Ok(5050 / 7));
    let (fault, stats, _) = outcome(&img, "sumdiv", &[100, 0], (true, false, BUDGET), Drive::Run);
    assert!(matches!(fault, Err(EmuError::DivideByZero { .. })), "{fault:?}");
    assert!(stats.instructions > 400, "the fault comes after the loop");
    assert_run_matches_step(&img, "sumdiv", &[100, 0], BUDGET, "sumdiv-by-zero");
}
