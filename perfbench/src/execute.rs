//! `execute`: protected programs run on the RM64 emulator, one at a time.
//!
//! Set-up protects every corpus program under ROP1.00, 1VM and
//! ROP1.00-over-1VM. Each pass of the measured loop loads every image into a
//! fresh `Emulator` and calls its entry on the canonical argument, in an
//! order drawn from `--seed`. Every result must equal the value the MiniC
//! reference interpreter computes for that argument.
//!
//! One operation is one whole pass. Single runs span four orders of
//! magnitude (0.2 ms to 2 s), so a percentile over them would jump between
//! programs; a pass always holds the same mix. Each image's load-and-call
//! time is also kept per image, so the pass latency percentiles are read
//! image by image (see `Outcome::parts_ms`).

use crate::probe::{configs, pin_rop_counts, pipeline_layers, reference, PROTECT_SEED};
use crate::trace::Tracer;
use crate::{Args, Orders, Outcome, CORPUS_SEED};
use raindrop_machine::{Emulator, Image};
use raindrop_server::ProtectRequest;
use std::time::{Duration, Instant};

struct Target {
    label: String,
    /// Index into [`configs`]: 0 ROP1.00, 1 1VM, 2 ROP1.00-over-1VM.
    config: usize,
    image: Image,
    entry: String,
    args: Vec<u64>,
    expected: u64,
}

/// Guest work of one configuration, summed over a run.
#[derive(Default, Clone, Copy)]
struct Work {
    instructions: u64,
    rets: u64,
    mem_ops: u64,
    cycles: u64,
    exec: Duration,
}

pub fn run(args: &Args, tr: &mut Tracer, out: &mut Outcome) {
    let corpus = raindrop_synth::classes::generate_all(CORPUS_SEED);
    let items: Vec<(usize, usize, ProtectRequest)> = corpus
        .iter()
        .enumerate()
        .flat_map(|(p, cp)| {
            configs().into_iter().enumerate().map(move |(c, config)| {
                let req = ProtectRequest {
                    program: cp.workload.program.clone(),
                    targets: cp.workload.obfuscate.clone(),
                    config,
                    seed: PROTECT_SEED,
                };
                (p, c, req)
            })
        })
        .collect();
    let mut setup_failures = Vec::new();
    let (targets, reports) = out.setup(|| {
        setup_failures.clear();
        let expected: Vec<u64> =
            corpus.iter().map(|cp| cp.reference_value_for(cp.workload.args[0])).collect();
        let mut targets = Vec::new();
        let mut reports = Vec::new();
        for (p, c, req) in &items {
            let w = &corpus[*p].workload;
            match reference(req) {
                Ok((image, report)) => {
                    reports.push(report);
                    targets.push(Target {
                        label: format!("{}/{}", w.name, req.config.label()),
                        config: *c,
                        image,
                        entry: w.entry.clone(),
                        args: w.args.clone(),
                        expected: expected[*p],
                    });
                }
                Err(e) => setup_failures.push(format!("{}: protection failed: {e}", w.name)),
            }
        }
        (targets, reports)
    });
    pin_rop_counts(out, &reports);
    out.failures.append(&mut setup_failures);

    let mut orders = Orders::new(targets.len(), args.seed);
    let mut work = [Work::default(); 3];
    let budget = Duration::from_secs_f64(args.seconds);
    let mut passes = 0u64;
    out.parts_ms = vec![Vec::new(); targets.len()];
    while passes == 0 || Duration::from_secs_f64(out.window_s) < budget {
        let mut pass_instructions = 0;
        let pass_start = Instant::now();
        for i in orders.next_pass() {
            let t = &targets[i];
            let g = i as u64;
            let started = Instant::now();
            let mut emu = tr.span("machine.load", g, |_| Emulator::new(&t.image));
            let called = Instant::now();
            let result =
                tr.span("machine.exec", g, |_| emu.call_named(&t.image, &t.entry, &t.args));
            let done = Instant::now();
            out.parts_ms[i].push((done - started).as_secs_f64() * 1e3);
            out.attempted += 1;
            let s = emu.stats();
            let w = &mut work[t.config];
            w.instructions += s.instructions;
            w.rets += s.rets;
            w.mem_ops += s.mem_reads + s.mem_writes;
            w.cycles += s.cycles;
            w.exec += done - called;
            pass_instructions += s.instructions;
            match result {
                Ok(v) => out.check(v == t.expected, || {
                    format!(
                        "{}: returned {v:#x}, the reference interpreter says {:#x}",
                        t.label, t.expected
                    )
                }),
                Err(e) => out.failures.push(format!("{}: emulation failed: {e:?}", t.label)),
            }
        }
        let wall = pass_start.elapsed();
        out.latencies_ms.push(wall.as_secs_f64() * 1e3);
        out.end_pass(wall);
        out.pin("machine.guest_instructions", pass_instructions);
        passes += 1;
    }

    if tr.on() {
        let total = work.iter().fold(Work::default(), |a, w| Work {
            instructions: a.instructions + w.instructions,
            rets: a.rets + w.rets,
            mem_ops: a.mem_ops + w.mem_ops,
            cycles: a.cycles + w.cycles,
            exec: a.exec + w.exec,
        });
        let mips = |w: &Work| w.instructions as f64 / w.exec.as_secs_f64().max(1e-9) / 1e6;
        let kinstr = total.instructions.max(1) as f64 / 1e3;
        out.layers.insert("machine.guest_instructions", (total.instructions / passes) as f64);
        out.layers.insert("machine.guest_mips.rop", mips(&work[0]));
        out.layers.insert("machine.guest_mips.vm", mips(&work[1]));
        out.layers.insert("machine.guest_mips.rop_over_vm", mips(&work[2]));
        out.layers.insert("machine.rets_per_kinstr", total.rets as f64 / kinstr);
        out.layers.insert("machine.mem_ops_per_kinstr", total.mem_ops as f64 / kinstr);
        out.layer_means(
            tr,
            &[("machine.exec_ms", "machine.exec"), ("machine.load_ms", "machine.load")],
        );
        // Overhead: guest cycles of the protected runs over the native run
        // of the same program, summed over every (program, configuration).
        let protected = total.cycles / passes;
        let mut native = 0u64;
        for cp in &corpus {
            let w = &cp.workload;
            match raindrop_synth::compile(&w.program) {
                Ok(image) => {
                    let mut emu = Emulator::new(&image);
                    match emu.call_named(&image, &w.entry, &w.args) {
                        Ok(_) => native += emu.stats().cycles * configs().len() as u64,
                        Err(e) => {
                            out.failures.push(format!("{}: native run failed: {e:?}", w.name))
                        }
                    }
                }
                Err(e) => out.failures.push(format!("{}: native compile failed: {e}", w.name)),
            }
        }
        out.layers.insert("core.overhead_x", protected as f64 / native.max(1) as f64);
        let reqs: Vec<ProtectRequest> = items.into_iter().map(|(_, _, r)| r).collect();
        pipeline_layers(tr, out, &reqs);
    }
}
