//! `exp_serve` — protection-as-a-service throughput under concurrent load.
//!
//! Measures `raindrop-server` end to end: a batch of mixed
//! [`ProtectRequest`]s (two programs × three configurations × several
//! seeds) is submitted to a running server and awaited, once against an
//! empty artifact store (**cold** — every request runs the pipeline) and
//! once more against the now-populated store (**warm** — every request is
//! a cache hit), for each worker count. The report is protections/sec per
//! `(workers, phase)` cell, plus the cache speedup, written to
//! `BENCH_serve.json` (`scripts/regen_bench_serve.sh` wraps this). The report
//! records the git revision and host it was measured on, and embeds a frozen
//! baseline of the commit before the allocation-free chain crafter, measured
//! on the same host.
//!
//! `--smoke` runs a CI-sized subset and additionally *asserts* the service
//! contract: the duplicate request in the batch is served from the store
//! (no pipeline re-execution), warm results are byte-identical to cold
//! ones, server stats add up, and shutdown drains cleanly. The JSON is not
//! rewritten in smoke mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use raindrop::pipeline::ObfConfig;
use raindrop::RopConfig;
use raindrop_bench::{git_rev, host, write_json};
use raindrop_obfvm::VmConfig;
use raindrop_server::{ProtectRequest, Server, StoreConfig};
use raindrop_synth::minic::{BinOp, Expr, Function, Program, Stmt};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// One measured `(workers, phase)` cell.
#[derive(Debug, Clone, Serialize)]
struct Cell {
    /// Protection workers in the pool.
    workers: usize,
    /// `cold` (empty store) or `warm` (fully populated store).
    phase: String,
    /// Requests served.
    requests: u64,
    /// Requests that executed the pipeline.
    pipeline_runs: u64,
    /// Requests served from the artifact store.
    cache_hits: u64,
    /// Total wall-clock seconds from first submit to last wait.
    wall_seconds: f64,
    /// Requests per second.
    protections_per_sec: f64,
}

/// A frozen `(workers, phase)` throughput of an earlier commit.
#[derive(Debug, Clone, Serialize)]
struct BaselineCell {
    /// Protection workers in the pool.
    workers: usize,
    /// `cold` or `warm`.
    phase: String,
    /// Requests per second.
    protections_per_sec: f64,
}

/// A frozen measurement of an earlier commit on the host of `measured`.
#[derive(Debug, Clone, Serialize)]
struct SameHostBaseline {
    /// What the entry describes.
    label: String,
    /// Commit the numbers were measured at.
    git: String,
    /// Host the numbers were measured on.
    host: String,
    /// Protections/sec per `(workers, phase)` cell.
    measured: Vec<BaselineCell>,
}

/// Top-level report written to `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize)]
struct Report {
    schema: String,
    /// Commit `measured` was taken at (`git rev-parse --short HEAD`).
    git: String,
    /// Host `measured` was taken on: logical CPUs and CPU model.
    host: String,
    /// The commit before the allocation-free chain crafter, frozen, on the
    /// same host as `measured`.
    same_host_baseline: SameHostBaseline,
    /// Distinct artifacts in the batch (the duplicate collapses onto one).
    unique_requests: usize,
    /// Requests per batch including the duplicate.
    batch_requests: usize,
    measured: Vec<Cell>,
    /// `(workers, warm/cold speedup)` — what the cache buys at each size.
    cache_speedup: Vec<(usize, f64)>,
}

/// g(x) = ((x + c) ^ (x >> 1)) * 3, parameterized by `c` so the corpus
/// spans distinct source hashes.
fn program(c: u64) -> Program {
    Program::new().with_function(Function {
        name: "g".into(),
        params: 1,
        locals: 0,
        body: vec![Stmt::Return(Expr::bin(
            BinOp::Mul,
            Expr::bin(
                BinOp::Xor,
                Expr::bin(BinOp::Add, Expr::Arg(0), Expr::c(c as i64)),
                Expr::bin(BinOp::Shr, Expr::Arg(0), Expr::c(1)),
            ),
            Expr::c(3),
        ))],
    })
}

/// The mixed request batch: programs × configurations × seeds, plus one
/// deliberate duplicate of the first request (must be a cache hit even
/// within a cold batch).
fn batch(seeds: u64) -> Vec<ProtectRequest> {
    let configs = [
        ObfConfig::new().rop(RopConfig::ropk(0.25)),
        ObfConfig::new().vm(VmConfig::plain(1)),
        ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(1.0)),
    ];
    let mut out = Vec::new();
    for c in [3u64, 17] {
        for config in &configs {
            for seed in 0..seeds {
                out.push(ProtectRequest {
                    program: program(c),
                    targets: vec!["g".into()],
                    config: config.clone(),
                    seed,
                });
            }
        }
    }
    let duplicate = out[0].clone();
    out.push(duplicate);
    out
}

/// The commit before the allocation-free chain crafter: every gadget request
/// collected its candidates into a fresh `Vec`, SipHashed the operation and
/// cloned the chosen gadget. Medians of six runs of this driver,
/// interleaved with as many runs of the commit that introduced the new
/// crafter, on the host named here.
fn same_host_baseline() -> SameHostBaseline {
    let cell = |workers, phase: &str, protections_per_sec| BaselineCell {
        workers,
        phase: phase.into(),
        protections_per_sec,
    };
    SameHostBaseline {
        label: "per-request candidate Vec, SipHashed op index, cloned Gadget per chain slot".into(),
        git: "6d77025".into(),
        host: "2 logical CPUs, Intel(R) Xeon(R) Processor".into(),
        measured: vec![
            cell(1, "cold", 678.8),
            cell(1, "warm", 6465.7),
            cell(4, "cold", 1268.4),
            cell(4, "warm", 6566.9),
        ],
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("raindrop-exp-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let worker_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 4] };
    let seeds = if smoke { 2 } else { 16 };
    // Cache hits are orders of magnitude faster than pipeline runs, so the
    // warm phase replays the batch several times to get out of
    // single-millisecond timing noise.
    let warm_rounds = if smoke { 1 } else { 8 };
    let requests = batch(seeds);
    let unique = requests.len() - 1;
    println!(
        "[exp_serve] batch: {} requests ({} unique), workers {:?}{}",
        requests.len(),
        unique,
        worker_counts,
        if smoke { ", smoke" } else { "" }
    );

    let mut measured: Vec<Cell> = Vec::new();
    let mut cache_speedup = Vec::new();
    for &workers in worker_counts {
        let dir = fresh_dir(&format!("w{workers}"));
        let mut cold_images = Vec::new();
        let mut phase_cells = Vec::new();
        for phase in ["cold", "warm"] {
            // One server lifetime per phase: the warm phase reopens the
            // store cold runs populated, so hits also pay the reopen path.
            let server = Server::start(workers, &dir, StoreConfig::default()).expect("store opens");
            let rounds = if phase == "cold" { 1 } else { warm_rounds };
            let start = Instant::now();
            let mut results = Vec::new();
            for _ in 0..rounds {
                let handles: Vec<_> = requests.iter().cloned().map(|r| server.submit(r)).collect();
                results = handles
                    .into_iter()
                    .map(|h| h.wait().expect_completed().expect("protection succeeds"))
                    .collect();
            }
            let wall = start.elapsed().as_secs_f64();
            let served = (requests.len() * rounds) as u64;
            let stats = server.stats();
            server.shutdown(); // drains + joins; clean-exit assertion below

            match phase {
                "cold" => {
                    cold_images = results.iter().map(|r| r.image.clone()).collect();
                    // The duplicate must hit even in the cold batch once its
                    // twin has landed — unless both raced cold, which the
                    // sequential smoke sizes make impossible for workers=1.
                    assert_eq!(
                        stats.pipeline_runs + stats.cache_hits,
                        requests.len() as u64,
                        "every request is a run or a hit: {stats:?}"
                    );
                }
                _ => {
                    assert_eq!(
                        stats.cache_hits, served,
                        "warm phase must be all cache hits: {stats:?}"
                    );
                    assert_eq!(stats.pipeline_runs, 0, "warm phase re-ran the pipeline");
                    for (i, (w, c)) in results.iter().zip(&cold_images).enumerate() {
                        assert!(w.cache_hit, "warm request {i} missed");
                        assert_eq!(&w.image, c, "warm request {i} not byte-identical");
                    }
                }
            }
            let cell = Cell {
                workers,
                phase: phase.to_string(),
                requests: stats.requests,
                pipeline_runs: stats.pipeline_runs,
                cache_hits: stats.cache_hits,
                wall_seconds: wall,
                protections_per_sec: served as f64 / wall.max(1e-9),
            };
            println!(
                "workers={:<2} {:<5} {:>4} reqs  {:>3} runs  {:>3} hits  {:>8.3}s  {:>10.1} prot/s",
                cell.workers,
                cell.phase,
                cell.requests,
                cell.pipeline_runs,
                cell.cache_hits,
                cell.wall_seconds,
                cell.protections_per_sec
            );
            phase_cells.push(cell);
        }
        let speedup =
            phase_cells[1].protections_per_sec / phase_cells[0].protections_per_sec.max(1e-9);
        println!("workers={workers}: warm/cold speedup {speedup:.1}x");
        cache_speedup.push((workers, speedup));
        measured.extend(phase_cells);
        let _ = std::fs::remove_dir_all(&dir);
    }

    if smoke {
        // The worker sweep itself is the 1-vs-N determinism check in
        // miniature: cold images at every worker count must agree (the
        // dedicated test pins this; here we just smoke the whole service).
        println!("[exp_serve] smoke run passed: BENCH_serve.json left untouched");
        return;
    }
    let report = Report {
        schema: "bench_serve/v2".into(),
        git: git_rev(),
        host: host(),
        same_host_baseline: same_host_baseline(),
        unique_requests: unique,
        batch_requests: requests.len(),
        measured,
        cache_speedup,
    };
    write_json("BENCH_serve", &report);
}
