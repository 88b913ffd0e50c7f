//! Protection: the three configurations, the reference pipeline run, and
//! the layer probe a traced run makes over a list of protection requests.

use crate::trace::Tracer;
use crate::Outcome;
use raindrop::chain::{ChainScratch, ResolvedChain};
use raindrop::pipeline::{ObfConfig, ObfReport, PassSpec, VerifyPolicy};
use raindrop::RopConfig;
use raindrop_analysis::{cfg, dataflow, liveness};
use raindrop_gadgets::scan::{scan_image, ScanConfig};
use raindrop_machine::{Image, Reg, RegSet};
use raindrop_obfvm::VmConfig;
use raindrop_server::{source_hash, ArtifactStore, ProtectRequest, StoreConfig};
use std::path::Path;

/// The protection seed of images prepared in set-up (execute, attack).
pub const PROTECT_SEED: u64 = 1;

/// ROP1.00, 1VM and ROP1.00-over-1VM.
pub fn configs() -> [ObfConfig; 3] {
    [
        ObfConfig::new().rop(RopConfig::ropk(1.0)),
        ObfConfig::new().vm(VmConfig::plain(1)),
        ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(1.0)),
    ]
}

/// The reference protection of a request: a direct pipeline run under the
/// static audit, which must come back clean and without failures.
pub fn reference(req: &ProtectRequest) -> Result<(Image, ObfReport), String> {
    let run = req
        .config
        .pipeline(req.seed)
        .verify(VerifyPolicy::Static)
        .run_program(&req.program, &req.targets)
        .map_err(|e| e.to_string())?;
    if let Some(d) = run.report.audit_diagnostics().next() {
        return Err(format!("static audit is not clean: {d:?}"));
    }
    run.into_strict().map_err(|e| e.to_string())
}

/// Pins the crafting counts of a set of reference reports.
pub fn pin_rop_counts<'a>(out: &mut Outcome, reports: impl IntoIterator<Item = &'a ObfReport>) {
    let (mut p3, mut slots, mut bytes) = (0, 0, 0);
    for report in reports {
        for rop in report.rop_passes() {
            for rw in &rop.rewritten {
                p3 += rw.stats.p3_sites;
                slots += rw.stats.gadget_slots;
                bytes += rw.chain_len as u64;
            }
        }
    }
    out.pin("core.p3_sites", p3);
    out.pin("core.chain_bytes", bytes);
    out.layers.insert("core.p3_sites", p3 as f64);
    out.layers.insert("core.gadget_slots", slots as f64);
    out.layers.insert("core.chain_bytes", bytes as f64);
}

/// The config made of the passes before the first ROP pass: what the ROP
/// pass of `config` rewrites.
fn before_rop(config: &ObfConfig) -> Option<ObfConfig> {
    let rop = config.passes.iter().position(|p| matches!(p, PassSpec::Rop(_)))?;
    Some(ObfConfig {
        passes: config.passes[..rop].to_vec(),
        pass_targets: config.pass_targets.iter().take(rop).cloned().collect(),
    })
}

/// Times each layer the protection of `items` goes through, one call at a
/// time: hashing, compilation, the VM and ROP passes, and — on the image
/// the ROP pass rewrites — gadget scanning, CFG reconstruction, liveness,
/// input-derived dataflow and chain resolution.
pub fn pipeline_layers(tr: &mut Tracer, out: &mut Outcome, items: &[ProtectRequest]) {
    let (mut bytecode, mut found, mut points) = (0u64, 0u64, 0u64);
    let mut scratch = ChainScratch::default();
    let mut resolved = ResolvedChain::default();
    for (g, req) in items.iter().enumerate() {
        let g = g as u64;
        tr.span("server.source_hash", g, |_| source_hash(&req.program, &req.targets));
        tr.span("server.config_hash", g, |_| req.config.config_hash());
        let compiled = tr.span("synth.compile", g, |_| raindrop_synth::compile(&req.program));
        let Ok(compiled) = compiled else {
            out.failures.push(format!("probe: compile failed: {compiled:?}"));
            continue;
        };
        let (_, report) = match reference(req) {
            Ok(r) => r,
            Err(e) => {
                out.failures.push(format!("probe: protection failed: {e}"));
                continue;
            }
        };
        for pass in &report.passes {
            if let Some(vm) = pass.vm() {
                tr.sample("obfvm.pass", pass.wall);
                bytecode += vm.functions.iter().flat_map(|(_, l)| l).sum::<usize>() as u64;
            }
            if let Some(rop) = pass.rop() {
                tr.sample("core.rop_pass", pass.wall);
                for rw in &rop.rewritten {
                    let r = tr.span("core.chain_resolve", g, |_| {
                        rw.chain.resolve_into(&mut scratch, &mut resolved)
                    });
                    out.check(r.is_ok(), || {
                        format!("probe: chain of {} does not resolve", rw.name)
                    });
                }
            }
        }
        let Some(prefix) = before_rop(&req.config) else { continue };
        let image = if prefix.passes.is_empty() {
            compiled
        } else {
            match prefix.pipeline(req.seed).run_program(&req.program, &req.targets) {
                Ok(run) => run.image,
                Err(e) => {
                    out.failures.push(format!("probe: pre-ROP protection failed: {e}"));
                    continue;
                }
            }
        };
        found +=
            tr.span("gadgets.scan", g, |_| scan_image(&image, ScanConfig::default())).len() as u64;
        for target in &req.targets {
            let graph = match tr.span("analysis.cfg", g, |_| cfg::reconstruct(&image, target)) {
                Ok(graph) => graph,
                Err(e) => {
                    out.failures.push(format!("probe: no CFG for {target}: {e}"));
                    continue;
                }
            };
            points += graph.inst_count() as u64;
            tr.span("analysis.liveness", g, |_| liveness::analyze(&graph));
            tr.span("analysis.dataflow", g, |_| {
                dataflow::input_derived(&graph, RegSet::from_regs(Reg::ARGS))
            });
        }
    }
    out.layer_means(
        tr,
        &[
            ("server.source_hash_ms", "server.source_hash"),
            ("server.config_hash_ms", "server.config_hash"),
            ("synth.compile_ms", "synth.compile"),
            ("obfvm.pass_ms", "obfvm.pass"),
            ("core.rop_pass_ms", "core.rop_pass"),
            ("core.chain_resolve_ms", "core.chain_resolve"),
            ("gadgets.scan_ms", "gadgets.scan"),
            ("analysis.cfg_ms", "analysis.cfg"),
            ("analysis.liveness_ms", "analysis.liveness"),
            ("analysis.dataflow_ms", "analysis.dataflow"),
        ],
    );
    out.layers.insert("obfvm.bytecode_bytes", bytecode as f64);
    out.layers.insert("gadgets.found", found as f64);
    out.layers.insert("analysis.program_points", points as f64);
}

/// Times `ArtifactStore::put` and `get` directly, one artifact at a time,
/// on a fresh store under `dir`.
pub fn store_layers(
    tr: &mut Tracer,
    out: &mut Outcome,
    dir: &Path,
    images: &[(ProtectRequest, Image)],
) {
    let mut store = match ArtifactStore::open(dir, StoreConfig::default()) {
        Ok(store) => store,
        Err(e) => {
            out.failures.push(format!("probe: store does not open: {e}"));
            return;
        }
    };
    let keys: Vec<_> = images.iter().map(|(req, _)| req.key()).collect();
    for (g, ((_, image), key)) in images.iter().zip(&keys).enumerate() {
        let r = tr.span("server.store_put", g as u64, |_| store.put(key, image));
        out.check(r.is_ok(), || format!("probe: store put failed: {r:?}"));
    }
    let mut bytes = 0;
    for (g, ((_, image), key)) in images.iter().zip(&keys).enumerate() {
        let got = tr.span("server.store_get", g as u64, |_| store.get(key));
        bytes += raindrop_server::encode_image(image).len() as u64;
        out.check(matches!(&got, Ok(Some(i)) if i == image), || "probe: store get differs".into());
    }
    out.layer_means(
        tr,
        &[("server.store_put_ms", "server.store_put"), ("server.store_get_ms", "server.store_get")],
    );
    out.layers.insert("server.artifact_bytes", bytes as f64 / images.len().max(1) as f64);
}
