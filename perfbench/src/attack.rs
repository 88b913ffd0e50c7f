//! `attack`: one checkpointed DSE `Campaign` over a fixed job list.
//!
//! The jobs are the corpus point-test wrappers under NATIVE and ROP1.00
//! (secret finding) plus the `dse_speed_suite` randomfun jobs (secret and
//! coverage), all with work-bounded budgets: the wall limit is set far above
//! any job's run time, so a job that ends on it counts as failed. Each
//! measured operation is one `Campaign::run` over the whole list, in an
//! order drawn from `--seed`, on 2 workers with the default slice. One
//! campaign runs before the measured ones as a warm-up: its outputs are
//! checked like the others, its time is not measured. Every
//! job's `(success, exhausted)` must equal the frozen verdict in
//! `attack_verdicts.txt`, and every witness must make the unprotected image
//! return the wanted value.

use crate::probe::{configs, pin_rop_counts, pipeline_layers, reference, PROTECT_SEED};
use crate::trace::Tracer;
use crate::{quantile, Args, Orders, Outcome, CORPUS_SEED};
use raindrop_attacks::campaign::{Campaign, CampaignConfig, CampaignReport};
use raindrop_attacks::concolic::{
    DseAttack, DseBudget, DseExhaustion, DseOutcome, Goal, InputSpec,
};
use raindrop_attacks::fleet::DseJob;
use raindrop_machine::{Emulator, Image};
use raindrop_server::ProtectRequest;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Frozen verdicts, one job per line: `<label> <success> <exhausted>`.
const VERDICTS: &str = include_str!("../attack_verdicts.txt");

/// Campaign workers.
const WORKERS: usize = 2;

/// A wall limit no job comes near, so every job ends on work.
const WALL_LIMIT: Duration = Duration::from_secs(600);

struct Job {
    label: String,
    image: Image,
    /// The unprotected image the witness is replayed on.
    native: Image,
    func: String,
    spec: InputSpec,
    goal: Goal,
}

fn budget() -> DseBudget {
    DseBudget { max_wall: WALL_LIMIT, ..raindrop_bench::dse_speed_budget(false) }
}

fn dse_job(job: &Job) -> DseJob {
    DseJob::new(
        job.label.clone(),
        job.image.clone(),
        job.func.clone(),
        job.spec.clone(),
        budget(),
        job.goal,
    )
}

/// Builds the job list and the ROP1.00 protections behind it.
fn jobs(
    failures: &mut Vec<String>,
) -> (Vec<Job>, Vec<ProtectRequest>, Vec<raindrop::pipeline::ObfReport>) {
    let rop = configs()[0].clone();
    let mut jobs = Vec::new();
    let mut reqs = Vec::new();
    let mut reports = Vec::new();
    for cp in raindrop_synth::classes::generate_all(CORPUS_SEED) {
        let w = &cp.workload;
        let native = match raindrop_synth::compile(&w.program) {
            Ok(image) => image,
            Err(e) => {
                failures.push(format!("{}: compile failed: {e}", w.name));
                continue;
            }
        };
        let req = ProtectRequest {
            program: w.program.clone(),
            targets: w.obfuscate.clone(),
            config: rop.clone(),
            seed: PROTECT_SEED,
        };
        let protected = match reference(&req) {
            Ok((image, report)) => {
                reports.push(report);
                image
            }
            Err(e) => {
                failures.push(format!("{}: protection failed: {e}", w.name));
                continue;
            }
        };
        reqs.push(req);
        for (config, image) in [("native", native.clone()), ("rop1.00", protected)] {
            jobs.push(Job {
                label: format!("{}/{}/{config}", cp.class.name(), w.name),
                image,
                native: native.clone(),
                func: cp.check_entry.clone(),
                spec: InputSpec::RegisterArg { size_bytes: 1 },
                goal: Goal::Secret { want: 1 },
            });
        }
    }
    let suite = raindrop_bench::dse_speed_suite(false);
    let natives: BTreeMap<String, Image> = suite
        .iter()
        .filter_map(|j| j.label.strip_suffix("/native").map(|p| (p.to_string(), j.image.clone())))
        .collect();
    for j in suite {
        let prefix = j.label.rsplit_once('/').map_or("", |(p, _)| p);
        let Some(native) = natives.get(prefix).cloned() else {
            failures.push(format!("{}: no native sibling in the suite", j.label));
            continue;
        };
        jobs.push(Job {
            label: format!("dse/{}", j.label),
            image: j.image,
            native,
            func: j.func,
            spec: j.spec,
            goal: j.goal,
        });
    }
    (jobs, reqs, reports)
}

fn exhausted_name(e: Option<DseExhaustion>) -> String {
    e.map_or("none".to_string(), |e| format!("{e:?}"))
}

/// Checks one finished job: a work-bounded end, its frozen verdict, and its
/// witness replayed on the unprotected image.
fn check_job(out: &mut Outcome, frozen: &BTreeMap<&str, (bool, &str)>, job: &Job, o: &DseOutcome) {
    out.attempted += 1;
    out.check(o.exhausted != Some(DseExhaustion::Wall), || {
        format!("{}: ended on the wall limit, not on work", job.label)
    });
    let seen = (o.success, exhausted_name(o.exhausted));
    match frozen.get(job.label.as_str()) {
        Some(&(success, exhausted)) => out.check(seen.0 == success && seen.1 == exhausted, || {
            format!("{}: verdict {} {}, frozen {success} {exhausted}", job.label, seen.0, seen.1)
        }),
        None => {
            out.failures.push(format!("no frozen verdict: {} {} {}", job.label, seen.0, seen.1))
        }
    }
    if let (Goal::Secret { want }, Some(witness)) = (job.goal, &o.witness) {
        let mut emu = Emulator::new(&job.native);
        let got = emu.call_named(&job.native, &job.func, witness);
        out.check(matches!(got, Ok(v) if v == want), || {
            format!(
                "{}: witness {witness:?} gives {got:?} on the native image, wanted {want}",
                job.label
            )
        });
    }
}

pub fn run(args: &Args, scratch: &Path, tr: &mut Tracer, out: &mut Outcome) {
    let frozen: BTreeMap<&str, (bool, &str)> = VERDICTS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?, (f.next()? == "true", f.next()?)))
        })
        .collect();
    let mut setup_failures = Vec::new();
    let (jobs, reqs, reports) = out.setup(|| {
        setup_failures.clear();
        jobs(&mut setup_failures)
    });
    pin_rop_counts(out, &reports);
    out.failures.append(&mut setup_failures);

    let mut orders = Orders::new(jobs.len(), args.seed);
    let config = CampaignConfig { workers: WORKERS, ..CampaignConfig::default() };
    let budget_window = Duration::from_secs_f64(args.seconds);
    let mut last: Option<CampaignReport> = None;
    let mut write_ms = Vec::new();
    let mut warm = false;
    while out.latencies_ms.is_empty() || Duration::from_secs_f64(out.window_s) < budget_window {
        let run = out.latencies_ms.len() + usize::from(warm);
        let order = orders.next_pass();
        let dir = scratch.join(format!("campaign-{run}"));
        let start = Instant::now();
        let report = tr.span("campaign.run", run as u64, |_| {
            Campaign::open(&dir, config.clone())
                .and_then(|c| c.run(order.iter().map(|&i| dse_job(&jobs[i])).collect()))
        });
        let wall = start.elapsed();
        let _ = std::fs::remove_dir_all(&dir);
        if warm {
            out.latencies_ms.push(wall.as_secs_f64() * 1e3);
            out.end_pass(wall);
        }
        warm = true;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.failures.push(format!("campaign failed: {e}"));
                return;
            }
        };
        out.check(report.completed(), || "campaign did not complete".into());
        let mut totals = [0u64; 3];
        for (job_report, &i) in report.jobs.iter().zip(&order) {
            let job = &jobs[i];
            out.check(job_report.label == job.label, || {
                format!("report order: {}", job_report.label)
            });
            match job_report.outcome() {
                Some(o) => {
                    check_job(out, &frozen, job, o);
                    totals[0] += o.paths as u64;
                    totals[1] += o.solver_calls;
                    totals[2] += o.emulated_instructions;
                }
                None => out.failures.push(format!("{}: job did not finish", job.label)),
            }
        }
        out.pin("attacks.paths", totals[0]);
        out.pin("attacks.solver_calls", totals[1]);
        out.pin("attacks.emulated_instructions", totals[2]);
        out.pin("campaign.checkpoint_bytes", report.stats.checkpoint_bytes);
        write_ms.push(report.stats.checkpoint_write_wall.as_secs_f64() * 1e3);
        last = Some(report);
    }

    if let (true, Some(report)) = (tr.on(), last) {
        let outcomes: Vec<&DseOutcome> = report.jobs.iter().filter_map(|j| j.outcome()).collect();
        let sum =
            |f: &dyn Fn(&DseOutcome) -> u64| outcomes.iter().map(|o| f(o)).sum::<u64>() as f64;
        let solver_calls = sum(&|o| o.solver_calls);
        let cache_hits = sum(&|o| o.solve_cache_hits);
        out.layers.insert("attacks.paths", sum(&|o| o.paths as u64));
        out.layers.insert("attacks.emulated_instructions", sum(&|o| o.emulated_instructions));
        out.layers.insert("attacks.resumed_paths", sum(&|o| o.resumed_paths as u64));
        out.layers.insert("attacks.solver_calls", solver_calls);
        out.layers.insert(
            "attacks.solve_cache_hit_ratio",
            cache_hits / (cache_hits + solver_calls).max(1.0),
        );
        out.layers.insert("campaign.checkpoints", report.stats.checkpoints_written as f64);
        out.layers.insert("campaign.checkpoint_bytes", report.stats.checkpoint_bytes as f64);
        out.layers.insert("campaign.checkpoint_write_ms", quantile(&write_ms, 0.5));

        // The same jobs run directly, one at a time, without orchestration.
        let (mut direct_s, mut emulated) = (0.0, 0u64);
        for (g, job) in jobs.iter().enumerate() {
            let start = Instant::now();
            let o = tr.span("attacks.dse_job", g as u64, |_| {
                DseAttack::new(&job.image, &job.func, job.spec.clone(), budget()).run(job.goal)
            });
            direct_s += start.elapsed().as_secs_f64();
            emulated += o.emulated_instructions;
        }
        out.layer_means(tr, &[("attacks.dse_job_ms", "attacks.dse_job")]);
        out.layers.insert("attacks.dse_guest_mips", emulated as f64 / direct_s.max(1e-9) / 1e6);
        out.layers.insert(
            "campaign.over_direct",
            quantile(&out.latencies_ms, 0.5) / 1e3 / direct_s.max(1e-9),
        );
        pipeline_layers(tr, out, &reqs);
    }
}
