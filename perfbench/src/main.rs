//! `perfbench` — the repository benchmark.
//!
//! One binary runs one workload for a fixed time and prints, as its last
//! line, one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). Every output is checked against an
//! oracle that does not share code with the layer under test; a failed
//! check counts as a failed operation and makes the process exit 1.
//!
//! ```text
//! perfbench --workload <protect-cold|protect-warm|execute|attack>
//!           --seed <n> --seconds <s> --trace <0|1> --state-dir <dir> [--rev <git rev>]
//! ```
//!
//! The program set is fixed (`classes::generate_all(CORPUS_SEED)`), so the
//! work of a run does not depend on `--seed`: the seed permutes the order in
//! which requests, programs and attack jobs are issued. That keeps the exact
//! counts comparable across runs (see [`Outcome::pin`]) and the timings
//! comparable across seeds. `perfbench/README.md` records why each workload
//! was chosen and which end-to-end metric each layer should move.

#![forbid(unsafe_code)]

mod attack;
mod execute;
mod probe;
mod protect;
mod trace;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Seed of the program corpus every workload draws from.
pub const CORPUS_SEED: u64 = 1;

/// Operations per block: throughput and latency percentiles are computed
/// per block and the median over blocks is reported, so a few seconds of a
/// slow host do not set a whole run's tail. 1000 leaves ten samples beyond
/// each block's p99.
const BLOCK_OPS: usize = 1000;

/// Set-up is repeated at least this many times per run, and until
/// [`SETUP_MIN_S`] has passed; `setup_s` is the median of the repeats.
const SETUP_REPEATS: usize = 5;

/// Set-ups shorter than this in total are repeated further (at most
/// [`SETUP_MAX_REPEATS`] times), so a set-up of a few milliseconds is not
/// read from five samples.
const SETUP_MIN_S: f64 = 1.0;

/// Upper limit on set-up repeats.
const SETUP_MAX_REPEATS: usize = 50;

/// The end-to-end metrics every run reports with tracing off: name, unit.
/// What an "operation" is depends on the workload (see the README). The
/// gated tail is p90: on `protect-warm` the p99 moves by up to 1.8× with the
/// host's memory load for seconds at a time, while p90 moves by a few
/// percent. Traced runs still report p99.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports: name, unit. A layer a
/// workload does not exercise reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("machine.exec_ms", "ms"),
    ("machine.load_ms", "ms"),
    ("machine.guest_instructions", "count"),
    ("machine.guest_mips.rop", "Minstr/s"),
    ("machine.guest_mips.vm", "Minstr/s"),
    ("machine.guest_mips.rop_over_vm", "Minstr/s"),
    ("machine.rets_per_kinstr", "count"),
    ("machine.mem_ops_per_kinstr", "count"),
    ("synth.compile_ms", "ms"),
    ("obfvm.pass_ms", "ms"),
    ("obfvm.bytecode_bytes", "bytes"),
    ("gadgets.scan_ms", "ms"),
    ("gadgets.found", "count"),
    ("analysis.cfg_ms", "ms"),
    ("analysis.liveness_ms", "ms"),
    ("analysis.dataflow_ms", "ms"),
    ("analysis.program_points", "count"),
    ("core.rop_pass_ms", "ms"),
    ("core.chain_resolve_ms", "ms"),
    ("core.p3_sites", "count"),
    ("core.gadget_slots", "count"),
    ("core.chain_bytes", "bytes"),
    ("core.overhead_x", "x"),
    ("server.source_hash_ms", "ms"),
    ("server.config_hash_ms", "ms"),
    ("server.store_put_ms", "ms"),
    ("server.store_get_ms", "ms"),
    ("server.artifact_bytes", "bytes"),
    ("server.cache_hits", "count"),
    ("server.pipeline_runs", "count"),
    ("sched.queue_wait_ms", "ms"),
    ("sched.stolen", "count"),
    ("attacks.dse_job_ms", "ms"),
    ("attacks.dse_guest_mips", "Minstr/s"),
    ("attacks.paths", "count"),
    ("attacks.emulated_instructions", "count"),
    ("attacks.resumed_paths", "count"),
    ("attacks.solver_calls", "count"),
    ("attacks.solve_cache_hit_ratio", "ratio"),
    ("campaign.checkpoints", "count"),
    ("campaign.checkpoint_bytes", "bytes"),
    ("campaign.checkpoint_write_ms", "ms"),
    ("campaign.over_direct", "x"),
    ("trace.spans", "count"),
    ("trace.cost_ms", "ms"),
    ("traced.ops_per_s", "1/s"),
    ("traced.op_p50_ms", "ms"),
    ("traced.op_p90_ms", "ms"),
    ("traced.op_p99_ms", "ms"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy)]
pub enum Workload {
    ProtectCold,
    ProtectWarm,
    Execute,
    Attack,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "protect-cold" => Some(Workload::ProtectCold),
            "protect-warm" => Some(Workload::ProtectWarm),
            "execute" => Some(Workload::Execute),
            "attack" => Some(Workload::Attack),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ProtectCold => "protect-cold",
            Workload::ProtectWarm => "protect-warm",
            Workload::Execute => "execute",
            Workload::Attack => "attack",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub state_dir: PathBuf,
    pub rev: String,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut flags: BTreeMap<String, String> = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.insert(flag, value);
        }
        let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing {name}"));
        let workload = take("--workload")?;
        let workload =
            Workload::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
        let seed = take("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
        let seconds = take("--seconds")?.parse::<u32>().map_err(|e| format!("--seconds: {e}"))?;
        if !(1..=60).contains(&seconds) {
            return Err("--seconds must be in 1..=60".into());
        }
        let trace = match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        };
        let state_dir = PathBuf::from(take("--state-dir")?);
        let rev = take("--rev").unwrap_or_else(|_| "unknown".into());
        if let Some(flag) = flags.keys().next() {
            return Err(format!("unknown flag {flag}"));
        }
        Ok(Args { workload, seed, seconds: f64::from(seconds), trace, state_dir, rev })
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations (and standalone checks) attempted.
    pub attempted: u64,
    /// One entry per failed check.
    pub failures: Vec<String>,
    /// Wall seconds of each set-up repeat.
    pub setup_s: Vec<f64>,
    /// Latency of every measured operation, in ms.
    pub latencies_ms: Vec<f64>,
    /// When every operation is the same fixed sequence of parts (an execute
    /// pass runs each image once), the latency of each part in every
    /// operation, in ms, one list per part. Latency percentiles are then
    /// estimated part by part (see [`part_quantile`]).
    pub parts_ms: Vec<Vec<f64>>,
    /// Wall seconds of the measured window.
    pub window_s: f64,
    /// `(operations completed, wall seconds)` of every measured pass.
    pub passes: Vec<(usize, f64)>,
    /// Counts that must repeat exactly in every run of the workload.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-layer metrics gathered by a traced run.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Pins an exact count: every pass of a run, and every run of the
    /// workload, must produce the same value.
    pub fn pin(&mut self, name: &'static str, value: u64) {
        match self.counts.get(name) {
            Some(&seen) if seen != value => self
                .failures
                .push(format!("count {name} changed within the run: {seen} then {value}")),
            _ => {
                self.counts.insert(name, value);
            }
        }
    }

    /// Sets each `(metric, span)` metric to the mean duration of the span.
    pub fn layer_means(&mut self, tr: &Tracer, metrics: &[(&'static str, &str)]) {
        for &(metric, span) in metrics {
            if let Some(ms) = tr.mean_ms(span) {
                self.layers.insert(metric, ms);
            }
        }
    }

    /// Closes a measured pass that took `wall` and completed the operations
    /// recorded since the previous pass.
    pub fn end_pass(&mut self, wall: Duration) {
        let before: usize = self.passes.iter().map(|p| p.0).sum();
        self.passes.push((self.latencies_ms.len() - before, wall.as_secs_f64()));
        self.window_s += wall.as_secs_f64();
    }

    /// Runs `setup` at least [`SETUP_REPEATS`] times and until
    /// [`SETUP_MIN_S`] has passed, timing each, and keeps the last result.
    pub fn setup<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        while self.setup_s.len() < SETUP_REPEATS
            || (self.setup_s.iter().sum::<f64>() < SETUP_MIN_S
                && self.setup_s.len() < SETUP_MAX_REPEATS)
        {
            let start = Instant::now();
            last = Some(std::hint::black_box(setup()));
            self.setup_s.push(start.elapsed().as_secs_f64());
        }
        last.expect("set-up runs at least once")
    }
}

/// Issue orders drawn from `--seed`: a fresh permutation of `0..n` for
/// every pass, so a run averages over many orders rather than repeating one.
pub struct Orders {
    rng: ChaCha8Rng,
    n: usize,
}

impl Orders {
    pub fn new(n: usize, seed: u64) -> Orders {
        Orders { rng: ChaCha8Rng::seed_from_u64(seed), n }
    }

    /// The order of the next pass.
    pub fn next_pass(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n).collect();
        for i in (1..self.n).rev() {
            order.swap(i, self.rng.gen_range(0..i + 1));
        }
        order
    }
}

/// The `q`-quantile of `values`, interpolated linearly between the two
/// nearest ranks (as `statistics.quantiles(..., method="inclusive")`); 0
/// when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match sorted.get(lo + 1) {
        Some(&hi) => sorted[lo] + frac * (hi - sorted[lo]),
        None => sorted[lo],
    }
}

/// The `q`-quantile of an operation that is a fixed sequence of parts,
/// estimated as the sum over parts of each part's own `q`-quantile.
///
/// A run holds only a handful of such operations (an execute pass takes
/// seconds), and the host's speed drifts for seconds at a time, so the
/// quantile of a few whole-operation latencies depends on which operation
/// a slow stretch fell in. Each part's quantile is read from all of its
/// runs, so one slow stretch moves only the parts that ran in it. For
/// `q` = 0.5 this estimates the median operation; for higher `q` it is an
/// upper estimate of the operation's tail, since every part is taken at its
/// own tail at once.
fn part_quantile(parts: &[Vec<f64>], q: f64) -> f64 {
    parts.iter().map(|p| quantile(p, q)).sum()
}

/// A block of measured operations: `(wall seconds, latencies in ms)`.
type Block = (f64, Vec<f64>);

/// Whole passes grouped into blocks of at least [`BLOCK_OPS`] operations;
/// passes left over at the end join the last block. A run with fewer
/// operations is one block.
fn blocks(out: &Outcome) -> Vec<Block> {
    let mut blocks: Vec<Block> = Vec::new();
    let mut open = (0.0, Vec::new());
    let mut next = 0;
    for &(ops, wall) in &out.passes {
        open.0 += wall;
        open.1.extend_from_slice(&out.latencies_ms[next..next + ops]);
        next += ops;
        if open.1.len() >= BLOCK_OPS {
            blocks.push(std::mem::take(&mut open));
        }
    }
    match blocks.last_mut() {
        Some(last) if !open.1.is_empty() => {
            last.0 += open.0;
            last.1.append(&mut open.1);
        }
        None => blocks.push(open),
        _ => {}
    }
    blocks
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Compares this run's pinned counts with the first run of the workload in
/// this state directory, recording them when there is none yet.
fn check_counts_across_runs(dir: &Path, workload: Workload, out: &mut Outcome) {
    let path = dir.join(format!("counts-{}.txt", workload.name()));
    let mine: String = out.counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(first) => {
            out.attempted += 1;
            out.check(first == mine, || {
                format!(
                    "exact counts differ from the first run ({}):\n{first}vs\n{mine}",
                    path.display()
                )
            });
        }
        Err(_) => {
            if let Err(e) = std::fs::write(&path, &mine) {
                out.failures.push(format!("cannot record counts in {}: {e}", path.display()));
            }
        }
    }
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let mut s = String::from("{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    s.push('}');
    s
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = args.state_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let mut tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    match args.workload {
        Workload::ProtectCold => protect::run(&args, &scratch, &mut tracer, &mut out, false),
        Workload::ProtectWarm => protect::run(&args, &scratch, &mut tracer, &mut out, true),
        Workload::Execute => execute::run(&args, &mut tracer, &mut out),
        Workload::Attack => attack::run(&args, &scratch, &mut tracer, &mut out),
    }
    let _ = std::fs::remove_dir_all(&scratch);
    check_counts_across_runs(&args.state_dir, args.workload, &mut out);

    let ops = out.latencies_ms.len();
    let blocks = blocks(&out);
    let per_block =
        |f: &dyn Fn(&Block) -> f64| quantile(&blocks.iter().map(f).collect::<Vec<_>>(), 0.5);
    let ops_per_s = per_block(&|b| if b.0 > 0.0 { b.1.len() as f64 / b.0 } else { 0.0 });
    let op_quantile = |q: f64| {
        if out.parts_ms.is_empty() {
            per_block(&|b| quantile(&b.1, q))
        } else {
            part_quantile(&out.parts_ms, q)
        }
    };
    let (p50, p90, p99) = (op_quantile(0.50), op_quantile(0.90), op_quantile(0.99));
    let rss = peak_rss_mb().unwrap_or_else(|| {
        out.failures.push("peak RSS unavailable: /proc/self/status has no VmHWM".into());
        0.0
    });
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let cost = trace::span_cost_ms() * tracer.len() as f64;
        out.layers.insert("trace.spans", tracer.len() as f64);
        out.layers.insert("trace.cost_ms", cost);
        out.layers.insert("traced.ops_per_s", ops_per_s);
        out.layers.insert("traced.op_p50_ms", p50);
        out.layers.insert("traced.op_p90_ms", p90);
        out.layers.insert("traced.op_p99_ms", p99);
        PER_LAYER.iter().map(|&(n, u)| (n, u, out.layers.get(n).copied().unwrap_or(0.0))).collect()
    } else {
        let values = [quantile(&out.setup_s, 0.5), ops_per_s, p50, p90, rss];
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect()
    };
    for (name, _, v) in &metrics {
        out.check(v.is_finite(), || format!("metric {name} is not finite"));
    }
    let failed = out.failures.len() as u64;
    let attempted = out.attempted.max(failed).max(1);

    // The table and the result file are printed from the same metric list.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workload = args.workload.name();
    println!(
        "perfbench {workload} seed={} trace={} rev={} nproc={nproc} ops={ops} blocks={} window_s={:.3}",
        args.seed,
        u8::from(args.trace),
        args.rev,
        blocks.len(),
        out.window_s
    );
    for (name, unit, v) in &metrics {
        println!("  {name:<34} {v:>16.4} {unit}");
    }
    let error_rate = failed as f64 / attempted as f64;
    println!("  {:<34} {error_rate:>16.4} ({failed} failed of {attempted})", "error_rate");
    for f in out.failures.iter().take(20) {
        eprintln!("perfbench: check failed: {f}");
    }
    let counts: String =
        out.counts.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect::<Vec<_>>().join(", ");
    let failures = &out.failures;
    let record = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \"rev\": \"{}\", \"nproc\": {nproc}, \"attempted\": {attempted}, \"failed\": {failed}, \"error_rate\": {error_rate}, \"counts\": {{{counts}}}, \"failures\": {failures:?}, \"metrics\": {}, \"spans\": {}}}\n",
        args.seed,
        args.trace,
        args.rev,
        json_metrics(&metrics),
        tracer.spans_json()
    );
    let record_path = args.state_dir.join(format!(
        "result-{workload}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&record_path, record) {
        eprintln!("perfbench: cannot write {}: {e}", record_path.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    );
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
