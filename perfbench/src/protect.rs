//! `protect-cold` and `protect-warm`: a closed loop of protection requests
//! against a running `Server`.
//!
//! [`IN_FLIGHT`] client threads each keep one request outstanding and
//! submit the next as soon as theirs completes, so the server always has
//! one request per worker in flight. The request list is fixed:
//! every corpus program × ROP1.00, 1VM, ROP1.00-over-1VM × [`SEEDS`]
//! protection seeds, issued in an order drawn from `--seed`. On
//! `protect-cold` each pass over the list goes to a server on a fresh empty
//! store, so every request runs the pipeline; on `protect-warm` one server
//! serves every pass from the store set-up populated, so every request is a
//! hit. Each served artifact must be byte-identical to the reference run
//! set-up made with a direct `Pipeline` under the static audit.

use crate::probe::{configs, pin_rop_counts, pipeline_layers, reference, store_layers};
use crate::trace::Tracer;
use crate::{Args, Orders, Outcome, CORPUS_SEED};
use raindrop_machine::Image;
use raindrop_sched::JobOutcome;
use raindrop_server::{
    ArtifactStore, ProtectError, ProtectRequest, Protected, Server, StoreConfig,
};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests outstanding at once: one per protection worker.
const IN_FLIGHT: usize = 2;
/// Protection workers of the server.
const WORKERS: usize = 2;
/// Protection seeds per (program, configuration).
const SEEDS: u64 = 4;
/// Requests a run must complete, so that its p99 has ten samples beyond it.
const MIN_REQUESTS: usize = 1000;

fn requests() -> Vec<ProtectRequest> {
    let mut out = Vec::new();
    for cp in raindrop_synth::classes::generate_all(CORPUS_SEED) {
        for config in configs() {
            for seed in 0..SEEDS {
                out.push(ProtectRequest {
                    program: cp.workload.program.clone(),
                    targets: cp.workload.obfuscate.clone(),
                    config: config.clone(),
                    seed,
                });
            }
        }
    }
    out
}

struct Pass {
    wall: Duration,
    queue_wait: Vec<f64>,
    hits: u64,
    runs: u64,
}

/// One served request, as its client thread saw it.
struct Served {
    index: usize,
    submitted: Instant,
    finished: Instant,
    outcome: JobOutcome<Result<Protected, ProtectError>>,
}

/// Sends one pass of the request list through `server` in `order` from
/// [`IN_FLIGHT`] closed-loop client threads, and checks each artifact
/// against its reference and the pass's hit and pipeline-run counts against
/// the workload. The clients only submit and wait: requests are cloned
/// before, and artifacts compared after, the timed pass.
fn serve(
    server: &Server,
    reqs: &[ProtectRequest],
    refs: &[Option<Image>],
    order: &[usize],
    warm: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Pass {
    let before = server.stats();
    let queue =
        Mutex::new(order.iter().map(|&i| (i, reqs[i].clone())).collect::<Vec<_>>().into_iter());
    let client = || {
        let mut served = Vec::new();
        loop {
            // Take the next request and release the queue before serving it.
            let next = queue.lock().expect("request queue lock").next();
            let Some((index, req)) = next else { break };
            let submitted = Instant::now();
            let outcome = server.submit(req).wait().outcome;
            served.push(Served { index, submitted, finished: Instant::now(), outcome });
        }
        served
    };
    let start = Instant::now();
    let served: Vec<Served> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..IN_FLIGHT).map(|_| s.spawn(client)).collect();
        clients.into_iter().flat_map(|c| c.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed();
    let mut queue_wait = Vec::with_capacity(served.len());
    for Served { index: i, submitted, finished, outcome } in served {
        let latency = finished - submitted;
        out.attempted += 1;
        out.latencies_ms.push(latency.as_secs_f64() * 1e3);
        tr.record("server.request", i as u64, submitted, finished);
        match outcome {
            JobOutcome::Completed(Ok(p)) => {
                queue_wait.push(latency.saturating_sub(p.wall).as_secs_f64() * 1e3);
                out.check(p.cache_hit == warm, || {
                    format!("request {i}: cache_hit={}, warm={warm}", p.cache_hit)
                });
                out.check(refs[i].as_ref() == Some(&p.image), || {
                    format!("request {i}: artifact differs from the direct pipeline reference")
                });
            }
            JobOutcome::Completed(Err(e)) => out.failures.push(format!("request {i}: {e}")),
            other => out.failures.push(format!("request {i}: job ended {other:?}")),
        }
    }
    let after = server.stats();
    let hits = after.cache_hits - before.cache_hits;
    let runs = after.pipeline_runs - before.pipeline_runs;
    out.pin("server.cache_hits", hits);
    out.attempted += 1;
    let n = order.len() as u64;
    let expected = if warm { (n, 0) } else { (0, n) };
    out.check((hits, runs) == expected, || {
        format!("a pass made {hits} hits and {runs} pipeline runs, wanted {expected:?}")
    });
    Pass { wall, queue_wait, hits, runs }
}

pub fn run(args: &Args, scratch: &Path, tr: &mut Tracer, out: &mut Outcome, warm: bool) {
    let reqs = requests();
    let warm_dir = scratch.join("warm-store");
    let mut setup_failures = Vec::new();
    let (refs, reports) = out.setup(|| {
        setup_failures.clear();
        let mut reports = Vec::new();
        let mut refs = Vec::new();
        for req in &reqs {
            match reference(req) {
                Ok((image, report)) => {
                    refs.push(Some(image));
                    reports.push(report);
                }
                Err(e) => {
                    setup_failures.push(format!("reference protection failed: {e}"));
                    refs.push(None);
                }
            }
        }
        if warm {
            // Populate the store the measured server will read from, under
            // the keys the server derives from each request.
            let _ = std::fs::remove_dir_all(&warm_dir);
            match ArtifactStore::open(&warm_dir, StoreConfig::default()) {
                Ok(mut store) => {
                    for (req, image) in reqs.iter().zip(&refs) {
                        if let Some(image) = image {
                            if let Err(e) = store.put(&req.key(), image) {
                                setup_failures.push(format!("populating the store failed: {e}"));
                            }
                        }
                    }
                }
                Err(e) => setup_failures.push(format!("store does not open: {e}")),
            }
        }
        (refs, reports)
    });
    pin_rop_counts(out, &reports);
    out.failures.append(&mut setup_failures);

    let mut orders = Orders::new(reqs.len(), args.seed);
    let warm_server = if warm {
        match Server::start(WORKERS, &warm_dir, StoreConfig::default()) {
            Ok(s) => Some(s),
            Err(e) => {
                out.failures.push(format!("warm store does not reopen: {e}"));
                return;
            }
        }
    } else {
        None
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let (mut passes, mut stolen, mut runs, mut hits) = (0u64, 0u64, 0u64, 0u64);
    let mut queue_wait = Vec::new();
    while Duration::from_secs_f64(out.window_s) < budget || out.latencies_ms.len() < MIN_REQUESTS {
        let order = orders.next_pass();
        let pass = match &warm_server {
            Some(server) => serve(server, &reqs, &refs, &order, warm, tr, out),
            None => {
                let dir = scratch.join(format!("cold-store-{passes}"));
                let server = match Server::start(WORKERS, &dir, StoreConfig::default()) {
                    Ok(s) => s,
                    Err(e) => {
                        out.failures.push(format!("cold store does not open: {e}"));
                        return;
                    }
                };
                let pass = serve(&server, &reqs, &refs, &order, warm, tr, out);
                stolen += server.stats().scheduler.stolen;
                server.shutdown();
                let _ = std::fs::remove_dir_all(&dir);
                pass
            }
        };
        out.end_pass(pass.wall);
        queue_wait.extend(pass.queue_wait);
        hits += pass.hits;
        runs += pass.runs;
        passes += 1;
    }
    if let Some(server) = warm_server {
        stolen += server.stats().scheduler.stolen;
        server.shutdown();
    }

    if tr.on() {
        let n = passes.max(1) as f64;
        out.layers.insert("server.cache_hits", hits as f64 / n);
        out.layers.insert("server.pipeline_runs", runs as f64 / n);
        out.layers.insert("sched.stolen", stolen as f64 / n);
        out.layers.insert("sched.queue_wait_ms", crate::quantile(&queue_wait, 0.5));
        pipeline_layers(tr, out, &reqs);
        let artifacts: Vec<_> =
            reqs.iter().zip(&refs).filter_map(|(r, i)| Some((r.clone(), i.clone()?))).collect();
        store_layers(tr, out, &scratch.join("probe-store"), &artifacts);
    }
}
