//! The composable obfuscation pipeline: one builder API for ROP rewriting,
//! VM layering, materialization and differential verification.
//!
//! The paper's experiments are all *compositions* — `ROPk` rewriting, `nVM`
//! interpreter stacks, and mixtures of the two — but each building block
//! lives at a different level: VM virtualization transforms MiniC source,
//! ROP rewriting transforms the compiled image. A [`Pipeline`] accepts any
//! sequence of [`ObfPass`]es in *nesting order* (the first pass is the
//! innermost protection layer), plans where each one runs, compiles the
//! program at the source→image boundary, threads one RNG seed through every
//! pass, and differentially verifies the result against the unobfuscated
//! baseline through [`verify_batch`].
//!
//! Cross-level orders compose too:
//!
//! * **ROP over VM** (`VmPass` then `RopPass`): the function is virtualized
//!   first and the generated interpreter is then rewritten into a ROP chain.
//! * **VM over ROP** (`RopPass` then `VmPass`): the pipeline splits the
//!   target — the original body moves to an inner function
//!   ([`rop_inner_name`]) that the ROP pass rewrites in the image, while a
//!   wrapper with the public name forwards to it and is what the VM pass
//!   virtualizes. The VM interpreter then dispatches into the ROP chain.
//!
//! # Example
//!
//! ```
//! use raindrop::pipeline::{Pipeline, RopPass, VerifyPolicy, VmPass};
//! use raindrop_synth::minic::{BinOp, Expr, Function, Program, Stmt};
//!
//! # fn main() -> Result<(), raindrop::PipelineError> {
//! // f(x) = 3*x + 1, as MiniC source.
//! let program = Program::new().with_function(Function {
//!     name: "f".into(),
//!     params: 1,
//!     locals: 0,
//!     body: vec![Stmt::Return(Expr::bin(
//!         BinOp::Add,
//!         Expr::bin(BinOp::Mul, Expr::c(3), Expr::Arg(0)),
//!         Expr::c(1),
//!     ))],
//! });
//!
//! // ROP over VM: virtualize f, then ROP-rewrite the interpreter.
//! let run = Pipeline::new()
//!     .pass(VmPass::plain(1))
//!     .pass(RopPass::full())
//!     .seed(7)
//!     .verify(VerifyPolicy::Batch)
//!     .run_program(&program, &["f"])?;
//!
//! assert!(run.report.failures.is_empty());
//! assert!(run.report.all_verified(), "pipeline output matches the baseline");
//! let mut emu = raindrop_machine::Emulator::new(&run.image);
//! assert_eq!(emu.call_named(&run.image, "f", &[5]).unwrap(), 16);
//! # Ok(())
//! # }
//! ```

use crate::config::{P3Variant, RopConfig};
use crate::lint::{lint_program, RewriteLint};
use crate::materialize::MaterializeCtx;
use crate::rewriter::{ImageReport, Rewriter};
use crate::stable::{FieldBag, StableHasher};
use crate::verify::{
    audit_rop_image, audit_symbols, audit_vm_code, verify_batch, StaticDiagnostic, TestCase,
    Verdict,
};
use raindrop_machine::{AsmError, Image};
use raindrop_obfvm::{ImplicitAt, VmConfig};
use raindrop_synth::codegen;
use raindrop_synth::minic::{Expr, Function, Program, Stmt};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Which lowering level a pass transforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Transforms the MiniC [`Program`] before compilation.
    Source,
    /// Transforms the compiled [`Image`].
    Image,
}

/// Errors that abort a whole pipeline run (per-target obfuscation failures
/// are collected in [`ObfReport::failures`] instead).
#[derive(Debug)]
pub enum PipelineError {
    /// A requested target function does not exist in the input.
    UnknownTarget(String),
    /// The same target function was requested twice (the wrapper split
    /// would produce colliding inner names).
    DuplicateTarget(String),
    /// A source-level pass was scheduled on an image-only input
    /// ([`Pipeline::run_image`] cannot go back to source).
    SourcePassOnImage {
        /// Label of the offending pass.
        pass: String,
    },
    /// A pass was invoked at a stage it does not implement.
    WrongStage {
        /// Label of the offending pass.
        pass: String,
    },
    /// Compiling the (transformed) program failed.
    Codegen(AsmError),
    /// Strict-mode summary of a per-target failure (see
    /// [`PipelineRun::into_strict`]).
    TargetFailed {
        /// The public name of the function that failed.
        function: String,
        /// The recorded failure reason.
        reason: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::UnknownTarget(n) => write!(f, "unknown target function `{n}`"),
            PipelineError::DuplicateTarget(n) => {
                write!(f, "target function `{n}` was requested more than once")
            }
            PipelineError::SourcePassOnImage { pass } => {
                write!(f, "source-level pass `{pass}` cannot run on an image-only input")
            }
            PipelineError::WrongStage { pass } => {
                write!(f, "pass `{pass}` invoked at a stage it does not implement")
            }
            PipelineError::Codegen(e) => write!(f, "code generation failed: {e}"),
            PipelineError::TargetFailed { function, reason } => {
                write!(f, "obfuscating `{function}` failed: {reason}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Context handed to [`ObfPass::run_source`].
pub struct SourceCtx<'a> {
    /// The pipeline seed, if one was set with [`Pipeline::seed`].
    pub seed: Option<u64>,
    /// Public names of the functions this pass must transform.
    pub targets: &'a [String],
    /// Virtualization layers already applied per public target name; a
    /// virtualizing pass must read its base layer from here and bump it, so
    /// stacked VM passes never collide on per-layer symbols.
    pub vm_layers: &'a mut BTreeMap<String, usize>,
    /// Per-target failures (target name, reason). Recording a failure drops
    /// the target from all subsequent passes.
    pub failures: &'a mut Vec<(String, String)>,
}

/// Context handed to [`ObfPass::run_image`].
pub struct ImageCtx<'a> {
    /// The pipeline seed, if one was set with [`Pipeline::seed`].
    pub seed: Option<u64>,
    /// Names of the functions this pass must transform in the image. These
    /// are *stage names*: when the pipeline split a target for a later
    /// source pass, the inner ([`rop_inner_name`]) function appears here.
    pub targets: &'a [String],
    /// Per-target failures (stage name, reason).
    pub failures: &'a mut Vec<(String, String)>,
    /// Warm materialization buffers shared across passes and — through
    /// [`Pipeline::run_program_with`] — across whole pipeline runs. Passes
    /// that materialize chains should route through this instead of
    /// allocating fresh scratch; reuse never changes output bytes.
    pub mat: &'a mut MaterializeCtx,
}

/// Reusable scratch state threaded through pipeline runs.
///
/// A `PipelineWarm` owns the allocation-heavy buffers a run needs (today:
/// the [`MaterializeCtx`] behind every ROP pass). One-shot callers never
/// see it — [`Pipeline::run_program`] creates a fresh one per run — but a
/// long-running service holds one per worker and passes it to
/// [`Pipeline::run_program_with`] so consecutive protection jobs reuse warm
/// buffers. Reuse is invisible in the output: runs with a warm state are
/// bit-identical to fresh runs (pinned by `warm_state_reuse_is_invisible`).
#[derive(Debug, Default)]
pub struct PipelineWarm {
    mat: MaterializeCtx,
}

impl PipelineWarm {
    /// Fresh (cold) scratch state.
    pub fn new() -> PipelineWarm {
        PipelineWarm::default()
    }
}

/// What a pass did, for the [`ObfReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum PassDetail {
    /// ROP rewriting: the full per-image report (per-function coverage,
    /// chain/materialize sizes, gadget statistics).
    Rop(ImageReport),
    /// VM virtualization: layers and per-function bytecode sizes.
    Vm(VmReport),
    /// A custom [`ObfPass`] implementation without structured statistics.
    Custom,
    /// The pass was skipped — either every one of its targets had already
    /// failed an earlier pass, or a per-pass restriction
    /// ([`Pipeline::only`]) excluded every target of this run. The image
    /// was left untouched by it.
    Skipped,
}

/// Statistics of one VM pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VmReport {
    /// Layers this pass applied.
    pub layers: usize,
    /// Per-function results: `(public name, bytecode bytes per layer,
    /// innermost first)`.
    pub functions: Vec<(String, Vec<usize>)>,
    /// The effective seed the pass virtualized with (drives each layer's
    /// opcode shuffle; the static audit re-derives the assignment from it).
    pub seed: u64,
    /// Snapshot of every bytecode blob the pass emitted, so the static
    /// audit can byte-compare and re-decode them in the final image.
    pub code: Vec<VmCode>,
}

/// One bytecode blob a [`VmPass`] emitted (see [`VmReport::code`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VmCode {
    /// Public name of the virtualized function.
    pub function: String,
    /// Absolute layer number (accounts for layers stacked by earlier
    /// passes).
    pub layer: usize,
    /// The blob's `.data` symbol (`__vm<layer>_<func>_code`).
    pub symbol: String,
    /// The bytecode bytes as compiled.
    pub bytes: Vec<u8>,
}

/// One entry of [`ObfReport::passes`].
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// The pass label ([`ObfPass::label`]).
    pub label: String,
    /// The stage the pass ran at.
    pub stage: Stage,
    /// Wall-clock time spent in the pass.
    pub wall: Duration,
    /// Structured statistics.
    pub detail: PassDetail,
}

impl PassReport {
    /// The ROP rewriting report, when this pass was a [`RopPass`].
    pub fn rop(&self) -> Option<&ImageReport> {
        match &self.detail {
            PassDetail::Rop(r) => Some(r),
            _ => None,
        }
    }

    /// The VM report, when this pass was a [`VmPass`].
    pub fn vm(&self) -> Option<&VmReport> {
        match &self.detail {
            PassDetail::Vm(r) => Some(r),
            _ => None,
        }
    }
}

/// Differential verification result for one target.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyOutcome {
    /// The public target name.
    pub function: String,
    /// Per-case verdicts, in case order.
    pub verdicts: Vec<Verdict>,
}

impl VerifyOutcome {
    /// Whether every case matched.
    pub fn all_match(&self) -> bool {
        self.verdicts.iter().all(Verdict::is_match)
    }
}

/// Static-audit findings of one pass (see [`Pipeline::static_audit`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEntry {
    /// The audited pass's label (or `"image"` for the whole-image symbol
    /// audit appended after the per-pass entries).
    pub pass: String,
    /// Diagnostics the audit raised (empty on a healthy image).
    pub diagnostics: Vec<StaticDiagnostic>,
}

/// The unified report of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObfReport {
    /// Per-pass reports, in declared (nesting) order.
    pub passes: Vec<PassReport>,
    /// Per-target failures, keyed by *public* target name. Targets listed
    /// here were skipped by later passes and excluded from verification.
    pub failures: Vec<(String, String)>,
    /// Differential verification outcomes (empty under
    /// [`VerifyPolicy::None`]).
    pub verify: Vec<VerifyOutcome>,
    /// Static-audit findings, one entry per pass plus a final `"image"`
    /// entry (populated under [`VerifyPolicy::Static`], empty otherwise).
    pub audit: Vec<AuditEntry>,
    /// Pre-flight source lints on the rewrite targets (populated under
    /// [`VerifyPolicy::Static`] when the input was a program). Lints are
    /// advisory — they predict per-target rewrite failures, they do not
    /// make [`ObfReport::audit_clean`] false.
    pub lints: Vec<RewriteLint>,
    /// Wall-clock time of the source→image compilation step (zero when the
    /// input was already an image).
    pub compile_wall: Duration,
    /// Wall-clock time of the verification step.
    pub verify_wall: Duration,
    /// Wall-clock time of the whole run.
    pub total_wall: Duration,
}

impl ObfReport {
    /// The ROP pass reports, in declared order.
    pub fn rop_passes(&self) -> Vec<&ImageReport> {
        self.passes.iter().filter_map(PassReport::rop).collect()
    }

    /// Whether verification ran and every target matched on every case.
    pub fn all_verified(&self) -> bool {
        !self.verify.is_empty() && self.verify.iter().all(VerifyOutcome::all_match)
    }

    /// Whether the static audit ran and raised no diagnostic.
    pub fn audit_clean(&self) -> bool {
        !self.audit.is_empty() && self.audit.iter().all(|e| e.diagnostics.is_empty())
    }

    /// Every static-audit diagnostic, across all passes.
    pub fn audit_diagnostics(&self) -> impl Iterator<Item = &StaticDiagnostic> {
        self.audit.iter().flat_map(|e| e.diagnostics.iter())
    }
}

/// Result of a pipeline run: the obfuscated image plus the unified report.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineRun {
    /// The final (obfuscated) image.
    pub image: Image,
    /// The unified report.
    pub report: ObfReport,
}

impl PipelineRun {
    /// Strict-mode accessor: the final image, or the first per-target
    /// failure promoted to a [`PipelineError::TargetFailed`].
    ///
    /// # Errors
    ///
    /// Fails when any target failed in any pass.
    pub fn into_strict(self) -> Result<(Image, ObfReport), PipelineError> {
        if let Some((function, reason)) = self.report.failures.first() {
            return Err(PipelineError::TargetFailed {
                function: function.clone(),
                reason: reason.clone(),
            });
        }
        Ok((self.image, self.report))
    }
}

/// One obfuscating transformation, composable through [`Pipeline::pass`].
///
/// Implementations run at exactly one [`Stage`] and override the matching
/// `run_*` hook; the other hook's default returns
/// [`PipelineError::WrongStage`]. Per-target problems belong in the
/// context's `failures` list (the pipeline then drops the target from later
/// passes); returning `Err` aborts the whole run.
pub trait ObfPass {
    /// Human-readable pass label used in reports and error messages.
    fn label(&self) -> String;

    /// The stage this pass transforms.
    fn stage(&self) -> Stage;

    /// Transforms the MiniC program (source-stage passes).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::WrongStage`] unless overridden.
    fn run_source(
        &self,
        _program: &mut Program,
        _cx: &mut SourceCtx<'_>,
    ) -> Result<PassDetail, PipelineError> {
        Err(PipelineError::WrongStage { pass: self.label() })
    }

    /// Transforms the compiled image (image-stage passes).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::WrongStage`] unless overridden.
    fn run_image(
        &self,
        _image: &mut Image,
        _cx: &mut ImageCtx<'_>,
    ) -> Result<PassDetail, PipelineError> {
        Err(PipelineError::WrongStage { pass: self.label() })
    }

    /// Statically audits what this pass emitted into the final `image`,
    /// given the [`PassDetail`] its `run_*` hook returned. Runs under
    /// [`VerifyPolicy::Static`] (and via [`Pipeline::static_audit`]); the
    /// default has nothing to check.
    fn static_audit(&self, _image: &Image, _detail: &PassDetail) -> Vec<StaticDiagnostic> {
        Vec::new()
    }
}

/// ROP rewriting as a pipeline pass (wraps [`Rewriter`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RopPass {
    config: RopConfig,
    explicit_seed: bool,
}

impl RopPass {
    /// A pass with an explicit configuration; its seed is *not* overridden
    /// by [`Pipeline::seed`].
    pub fn new(config: RopConfig) -> RopPass {
        RopPass { config, explicit_seed: true }
    }

    /// The `ROPk` configuration of Table I ([`RopConfig::ropk`]).
    pub fn ropk(k: f64) -> RopPass {
        RopPass { config: RopConfig::ropk(k), explicit_seed: false }
    }

    /// The plain encoding with all predicates off ([`RopConfig::plain`]).
    pub fn plain() -> RopPass {
        RopPass { config: RopConfig::plain(), explicit_seed: false }
    }

    /// Full strength: P1 + P2 + P3 everywhere + gadget confusion
    /// ([`RopConfig::full`]).
    pub fn full() -> RopPass {
        RopPass { config: RopConfig::full(), explicit_seed: false }
    }

    /// Pins the pass to a specific seed, shielding it from
    /// [`Pipeline::seed`].
    pub fn with_seed(mut self, seed: u64) -> RopPass {
        self.config.seed = seed;
        self.explicit_seed = true;
        self
    }

    /// The configuration this pass will run with under `pipeline_seed`.
    pub fn effective_config(&self, pipeline_seed: Option<u64>) -> RopConfig {
        match pipeline_seed {
            Some(seed) if !self.explicit_seed => self.config.clone().with_seed(seed),
            _ => self.config.clone(),
        }
    }
}

impl ObfPass for RopPass {
    fn label(&self) -> String {
        if self.config.p1.is_none() && self.config.p3_fraction == 0.0 {
            "ROPplain".to_string()
        } else {
            format!("ROP{:.2}", self.config.p3_fraction)
        }
    }

    fn stage(&self) -> Stage {
        Stage::Image
    }

    fn run_image(
        &self,
        image: &mut Image,
        cx: &mut ImageCtx<'_>,
    ) -> Result<PassDetail, PipelineError> {
        let mut rewriter =
            Rewriter::new(self.effective_config(cx.seed)).with_mat_ctx(std::mem::take(cx.mat));
        let report = rewriter.rewrite_functions(image, cx.targets.iter().map(String::as_str));
        *cx.mat = rewriter.take_mat_ctx();
        cx.failures.extend(report.failures.iter().cloned());
        Ok(PassDetail::Rop(report))
    }

    fn static_audit(&self, image: &Image, detail: &PassDetail) -> Vec<StaticDiagnostic> {
        match detail {
            PassDetail::Rop(report) => audit_rop_image(image, report),
            _ => Vec::new(),
        }
    }
}

/// VM virtualization as a pipeline pass (wraps
/// [`raindrop_obfvm::apply_layers`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VmPass {
    config: VmConfig,
    explicit_seed: bool,
}

impl VmPass {
    /// A pass with an explicit configuration; its seed is *not* overridden
    /// by [`Pipeline::seed`].
    pub fn new(config: VmConfig) -> VmPass {
        VmPass { config, explicit_seed: true }
    }

    /// `nVM` — `layers` nested layers, no implicit flows.
    pub fn plain(layers: usize) -> VmPass {
        VmPass { config: VmConfig::plain(layers), explicit_seed: false }
    }

    /// `nVM-IMPx` — `layers` nested layers with implicit-VPC placement.
    pub fn with_implicit(layers: usize, implicit: ImplicitAt) -> VmPass {
        VmPass { config: VmConfig::with_implicit(layers, implicit), explicit_seed: false }
    }

    /// Pins the pass to a specific seed, shielding it from
    /// [`Pipeline::seed`].
    pub fn with_seed(mut self, seed: u64) -> VmPass {
        self.config.seed = seed;
        self.explicit_seed = true;
        self
    }

    /// The configuration this pass will run with under `pipeline_seed`.
    pub fn effective_config(&self, pipeline_seed: Option<u64>) -> VmConfig {
        match pipeline_seed {
            Some(seed) if !self.explicit_seed => VmConfig { seed, ..self.config },
            _ => self.config,
        }
    }
}

impl ObfPass for VmPass {
    fn label(&self) -> String {
        self.config.label()
    }

    fn stage(&self) -> Stage {
        Stage::Source
    }

    fn run_source(
        &self,
        program: &mut Program,
        cx: &mut SourceCtx<'_>,
    ) -> Result<PassDetail, PipelineError> {
        let config = self.effective_config(cx.seed);
        let mut report = VmReport {
            layers: config.layers,
            functions: Vec::new(),
            seed: config.seed,
            code: Vec::new(),
        };
        for target in cx.targets {
            let base = cx.vm_layers.get(target).copied().unwrap_or(0);
            match raindrop_obfvm::apply_layers(program, target, config, base) {
                Ok(applied) => {
                    for l in 0..config.layers {
                        let symbol = raindrop_obfvm::vm_code_symbol(base + l, target);
                        if let Some(g) = applied.program.globals.iter().find(|g| g.name == symbol) {
                            report.code.push(VmCode {
                                function: target.clone(),
                                layer: base + l,
                                symbol,
                                bytes: g.bytes.clone(),
                            });
                        }
                    }
                    *program = applied.program;
                    *cx.vm_layers.entry(target.clone()).or_insert(0) += config.layers;
                    report.functions.push((target.clone(), applied.bytecode_lens));
                }
                Err(e) => {
                    cx.failures.push((target.clone(), format!("vm obfuscation failed: {e}")));
                }
            }
        }
        Ok(PassDetail::Vm(report))
    }

    fn static_audit(&self, image: &Image, detail: &PassDetail) -> Vec<StaticDiagnostic> {
        match detail {
            PassDetail::Vm(report) => report
                .code
                .iter()
                .flat_map(|c| audit_vm_code(image, &c.symbol, &c.bytes, report.seed, c.layer))
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// How a pipeline run verifies its output against the unobfuscated
/// baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum VerifyPolicy {
    /// No verification.
    #[default]
    None,
    /// Differential verification over [`default_verify_cases`] via
    /// [`verify_batch`].
    Batch,
    /// Differential verification over caller-provided cases.
    Cases(Vec<TestCase>),
    /// Zero-emulation static audit: every emitted chain is re-resolved and
    /// checked gadget-by-gadget, every VM bytecode blob byte-compared and
    /// re-decoded, and the symbol table bounds-checked — populating
    /// [`ObfReport::audit`] (and, for program inputs, pre-flight
    /// [`ObfReport::lints`]) instead of running test cases. See
    /// [`ObfReport::audit_clean`].
    Static,
}

/// The register-argument corner cases [`VerifyPolicy::Batch`] runs: zero,
/// small values, a byte pattern and the full 64-bit width.
pub fn default_verify_cases() -> Vec<TestCase> {
    [0u64, 1, 5, 0xAB, u64::MAX].iter().map(|v| TestCase::args(&[*v])).collect()
}

/// Name of the inner function an image-stage pass at `pass_index` rewrites
/// when later source passes forced a wrapper split (see the module docs on
/// VM-over-ROP).
pub fn rop_inner_name(pass_index: usize, func: &str) -> String {
    format!("__pipeline_rop{pass_index}_{func}")
}

/// Moves `func`'s body to a new function named `inner` and replaces `func`
/// with a thin wrapper forwarding its arguments to `inner`. This is the
/// source-level split the pipeline applies so an image-stage pass can end up
/// *underneath* later source-stage passes; it is public so direct-call
/// sequences (and the differential tests pinning them) can reproduce
/// pipeline output exactly.
///
/// # Errors
///
/// Fails when `func` does not exist in the program.
pub fn wrap_rop_target(
    program: &mut Program,
    func: &str,
    inner: &str,
) -> Result<(), PipelineError> {
    let idx = program
        .functions
        .iter()
        .position(|f| f.name == func)
        .ok_or_else(|| PipelineError::UnknownTarget(func.to_string()))?;
    let params = program.functions[idx].params;
    program.functions[idx].name = inner.to_string();
    program.functions.push(Function {
        name: func.to_string(),
        params,
        locals: 0,
        body: vec![Stmt::Return(Expr::Call(
            inner.to_string(),
            (0..params).map(Expr::Arg).collect(),
        ))],
    });
    Ok(())
}

/// One pass of a declarative [`ObfConfig`] chain.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum PassSpec {
    /// ROP rewriting with this configuration.
    Rop(RopConfig),
    /// VM virtualization with this configuration.
    Vm(VmConfig),
}

impl PassSpec {
    /// Table I-style label of this pass.
    pub fn label(&self) -> String {
        match self {
            PassSpec::Rop(cfg) => RopPass::new(cfg.clone()).label(),
            PassSpec::Vm(cfg) => cfg.label(),
        }
    }

    /// The canonical field bag this pass hashes to. Per-pass RNG seeds are
    /// deliberately excluded: the artifact key carries the seed as its own
    /// component, so two requests differing only in seed share a config
    /// hash (and still get distinct artifacts).
    fn fields(&self) -> FieldBag {
        let mut bag = FieldBag::new();
        match self {
            PassSpec::Rop(cfg) => {
                bag.put_str("kind", "rop");
                bag.put_f64("p3_fraction", cfg.p3_fraction);
                bag.put_str(
                    "p3_variant",
                    match cfg.p3_variant {
                        P3Variant::ForLoop => "for_loop",
                        P3Variant::ArrayUpdate => "array_update",
                        P3Variant::Mixed => "mixed",
                    },
                );
                let p1 = cfg.p1.map(|p1| {
                    let mut b = FieldBag::new();
                    b.put_u64("n", p1.n as u64)
                        .put_u64("s", p1.s as u64)
                        .put_u64("p", p1.p as u64)
                        .put_u64("m", p1.m);
                    b
                });
                bag.put_opt_bag("p1", p1.as_ref());
                bag.put_bool("p2", cfg.p2);
                bag.put_bool("gadget_confusion", cfg.gadget_confusion);
                let mut catalog = FieldBag::new();
                catalog
                    .put_f64("diversity", cfg.catalog.diversity)
                    .put_u64("max_variants_per_op", cfg.catalog.max_variants_per_op as u64)
                    .put_u64("scan_max_insts", cfg.catalog.scan.max_insts as u64)
                    .put_u64("scan_max_lookback", cfg.catalog.scan.max_lookback as u64)
                    .put_u64("synth_max_junk", cfg.catalog.synth.max_junk as u64)
                    .put_f64("synth_junk_prob", cfg.catalog.synth.junk_prob);
                bag.put_bag("catalog", &catalog);
                bag.put_u64("max_rop_depth", cfg.max_rop_depth as u64);
                bag.put_u64("spill_slots", cfg.spill_slots as u64);
            }
            PassSpec::Vm(cfg) => {
                bag.put_str("kind", "vm");
                bag.put_u64("layers", cfg.layers as u64);
                bag.put_str(
                    "implicit",
                    match cfg.implicit {
                        ImplicitAt::None => "none",
                        ImplicitAt::First => "first",
                        ImplicitAt::Last => "last",
                        ImplicitAt::All => "all",
                    },
                );
            }
        }
        bag
    }
}

/// A declarative, *hashable* pipeline configuration: the pass chain in
/// nesting order (innermost first), without seeds.
///
/// This is the serializable half of a protection request — what the server
/// stores, hashes into artifact keys and turns into an executable
/// [`Pipeline`] with [`ObfConfig::pipeline`]. [`ObfConfig::config_hash`]
/// is *stable*: derived from a canonical name-sorted field encoding (see
/// [`crate::stable`]), so struct-field reordering can never silently remap
/// stored artifacts, while any semantic change to a knob does.
///
/// # Example
///
/// ```
/// use raindrop::pipeline::ObfConfig;
/// use raindrop::RopConfig;
/// use raindrop_obfvm::VmConfig;
///
/// // ROP over 1VM, declared innermost-first.
/// let config = ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(0.25));
/// assert_eq!(config.label(), "ROP0.25-over-1VM");
/// // The hash ignores per-pass seeds: the request seed is keyed separately.
/// let reseeded =
///     ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(0.25).with_seed(99));
/// assert_eq!(config.config_hash(), reseeded.config_hash());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ObfConfig {
    /// Passes in nesting order: the first pass is the innermost layer.
    pub passes: Vec<PassSpec>,
    /// Per-pass target restrictions, parallel to `passes` (shorter vectors
    /// are padded with `None`). `None` applies the pass to the whole run
    /// target list; `Some(set)` intersects with it — see
    /// [`ObfConfig::only`]. Restrictions are set semantics and participate
    /// in [`ObfConfig::config_hash`] only when present, so unrestricted
    /// configurations keep their historical hashes.
    pub pass_targets: Vec<Option<Vec<String>>>,
}

impl ObfConfig {
    /// An empty configuration (protecting with it is the identity).
    pub fn new() -> ObfConfig {
        ObfConfig::default()
    }

    /// Appends a ROP pass (builder style; its `seed` field is ignored by
    /// [`ObfConfig::pipeline`] and [`ObfConfig::config_hash`]).
    pub fn rop(mut self, cfg: RopConfig) -> ObfConfig {
        self.passes.push(PassSpec::Rop(cfg));
        self.pass_targets.push(None);
        self
    }

    /// Appends a VM pass (builder style; its `seed` field is ignored by
    /// [`ObfConfig::pipeline`] and [`ObfConfig::config_hash`]).
    pub fn vm(mut self, cfg: VmConfig) -> ObfConfig {
        self.passes.push(PassSpec::Vm(cfg));
        self.pass_targets.push(None);
        self
    }

    /// Restricts the most recently appended pass to `targets`, so one run
    /// can protect disjoint function subsets with different configurations
    /// (e.g. VM-virtualize `f` while ROP-rewriting `g`). Set semantics:
    /// order and duplicates are ignored; names absent from a run's target
    /// list simply never match. A pass whose restriction excludes every run
    /// target is recorded as [`PassDetail::Skipped`].
    ///
    /// # Panics
    ///
    /// Panics when no pass has been appended yet.
    pub fn only<S: AsRef<str>>(mut self, targets: &[S]) -> ObfConfig {
        let slot = self.pass_targets.last_mut().expect("`only` must follow a pass");
        *slot = Some(normalize_targets(targets));
        self
    }

    /// Builds the executable [`Pipeline`], threading `seed` into every
    /// pass (per-pass seed fields in the specs are overridden — the seed is
    /// an artifact-key component, not part of the configuration) and
    /// carrying over per-pass target restrictions.
    pub fn pipeline(&self, seed: u64) -> Pipeline {
        let mut p = Pipeline::new().seed(seed);
        for (i, spec) in self.passes.iter().enumerate() {
            p = match spec {
                PassSpec::Rop(cfg) => p.pass(RopPass::new(cfg.clone().with_seed(seed))),
                PassSpec::Vm(cfg) => p.pass(VmPass::new(VmConfig { seed, ..*cfg })),
            };
            if let Some(only) = self.pass_targets.get(i).and_then(Option::as_ref) {
                p = p.only(only);
            }
        }
        p
    }

    /// Outer-first composition label (`ROP0.25-over-1VM`, `NATIVE` when
    /// empty), matching the experiment drivers' row labels.
    pub fn label(&self) -> String {
        if self.passes.is_empty() {
            return "NATIVE".to_string();
        }
        let outer_first: Vec<String> = self.passes.iter().rev().map(PassSpec::label).collect();
        outer_first.join("-over-")
    }

    /// The stable 128-bit configuration hash — one third of the artifact
    /// store key. Pass *order* is semantic (nesting) and therefore part of
    /// the hash; per-pass seeds are not (see [`PassSpec`]).
    pub fn config_hash(&self) -> u128 {
        let mut h = StableHasher::new();
        h.write(b"obfconfig/v1;");
        for (i, spec) in self.passes.iter().enumerate() {
            h.write(format!("pass={:032x};", spec.fields().digest()).as_bytes());
            // A restriction is part of the configuration (the same pass
            // chain over different subsets produces different artifacts),
            // but an *absent* restriction hashes to nothing so historical
            // unrestricted hashes stay valid.
            if let Some(only) = self.pass_targets.get(i).and_then(Option::as_ref) {
                h.write(format!("only={};", normalize_targets(only).join(",")).as_bytes());
            }
        }
        h.finish()
    }
}

/// Canonicalizes a target-restriction list: sorted, deduplicated.
fn normalize_targets<S: AsRef<str>>(targets: &[S]) -> Vec<String> {
    let mut list: Vec<String> = targets.iter().map(|s| s.as_ref().to_string()).collect();
    list.sort();
    list.dedup();
    list
}

/// The pipeline builder: passes in nesting order, one seed, one verify
/// policy. See the [module docs](self) for the execution model.
#[derive(Default)]
pub struct Pipeline {
    passes: Vec<Box<dyn ObfPass>>,
    /// Per-pass target restrictions, parallel to `passes` (see
    /// [`Pipeline::only`]).
    restrictions: Vec<Option<Vec<String>>>,
    seed: Option<u64>,
    verify: VerifyPolicy,
}

/// Queued image-stage work for one pass: which stage names it transforms,
/// and whether the run had any live targets when the job was planned (a
/// requested-but-empty job is reported [`PassDetail::Skipped`] instead of
/// invoking the pass).
struct ImageJob {
    index: usize,
    targets: Vec<String>,
    requested: bool,
}

impl Pipeline {
    /// An empty pipeline (running it just compiles / clones the input).
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Appends a pass. Passes apply in nesting order: the first pass is the
    /// innermost protection layer.
    ///
    /// Two image-stage passes may target the same function only when a
    /// source-stage pass sits between them (the wrapper split then gives
    /// each its own body): ROP-rewriting a function that an earlier image
    /// pass already replaced with a pivot stub is meaningless and records a
    /// per-target failure.
    pub fn pass(mut self, pass: impl ObfPass + 'static) -> Pipeline {
        self.passes.push(Box::new(pass));
        self.restrictions.push(None);
        self
    }

    /// Appends an already-boxed pass (useful when composing dynamically).
    pub fn boxed_pass(mut self, pass: Box<dyn ObfPass>) -> Pipeline {
        self.passes.push(pass);
        self.restrictions.push(None);
        self
    }

    /// Restricts the most recently appended pass to `targets`: when the
    /// pipeline runs, that pass only touches the run targets also named
    /// here. Set semantics — order and duplicates are ignored, and names
    /// absent from the run's target list simply never match. A pass whose
    /// restriction excludes every run target is recorded as
    /// [`PassDetail::Skipped`] and leaves the program/image untouched.
    ///
    /// # Panics
    ///
    /// Panics when no pass has been appended yet.
    pub fn only<S: AsRef<str>>(mut self, targets: &[S]) -> Pipeline {
        let slot = self.restrictions.last_mut().expect("`only` must follow a pass");
        *slot = Some(normalize_targets(targets));
        self
    }

    /// The subset of `list` the pass at `index` may touch under its
    /// restriction (all of it when unrestricted).
    fn restricted(&self, index: usize, list: &[String]) -> Vec<String> {
        match self.restrictions.get(index).and_then(Option::as_ref) {
            Some(only) => list.iter().filter(|t| only.contains(*t)).cloned().collect(),
            None => list.to_vec(),
        }
    }

    /// Threads one seed deterministically through every pass that was not
    /// explicitly seeded.
    pub fn seed(mut self, seed: u64) -> Pipeline {
        self.seed = Some(seed);
        self
    }

    /// Sets the verification policy (default: [`VerifyPolicy::None`]).
    pub fn verify(mut self, policy: VerifyPolicy) -> Pipeline {
        self.verify = policy;
        self
    }

    /// Runs the pipeline on MiniC source, compiling at the source→image
    /// boundary. `targets` are the functions to obfuscate.
    ///
    /// # Errors
    ///
    /// Fails when a target is unknown, compilation fails, or a pass aborts;
    /// per-target obfuscation failures are collected in
    /// [`ObfReport::failures`] instead.
    pub fn run_program<S: AsRef<str>>(
        &self,
        program: &Program,
        targets: &[S],
    ) -> Result<PipelineRun, PipelineError> {
        self.run_program_with(program, targets, &mut PipelineWarm::new())
    }

    /// [`run_program`](Pipeline::run_program) with caller-owned warm
    /// scratch state, for services that run many pipelines and want to
    /// amortize buffer allocations across runs. Output is bit-identical to
    /// a cold run.
    ///
    /// # Errors
    ///
    /// Same contract as [`run_program`](Pipeline::run_program).
    pub fn run_program_with<S: AsRef<str>>(
        &self,
        program: &Program,
        targets: &[S],
        warm: &mut PipelineWarm,
    ) -> Result<PipelineRun, PipelineError> {
        let total_start = Instant::now();
        let targets: Vec<String> = targets.iter().map(|s| s.as_ref().to_string()).collect();
        for (i, t) in targets.iter().enumerate() {
            if program.function(t).is_none() {
                return Err(PipelineError::UnknownTarget(t.clone()));
            }
            if targets[..i].contains(t) {
                return Err(PipelineError::DuplicateTarget(t.clone()));
            }
        }

        // Pre-flight lint under the static policy: flag target shapes the
        // rewriter is known to mishandle before any pass runs.
        let lints = match self.verify {
            VerifyPolicy::Static => lint_program(program, &targets),
            _ => Vec::new(),
        };

        let mut working = program.clone();
        let mut failures: Vec<(String, String)> = Vec::new();
        let mut vm_layers: BTreeMap<String, usize> = BTreeMap::new();
        // Maps stage names (e.g. split inner functions) back to the public
        // target name for reporting.
        let mut public_of: BTreeMap<String, String> = BTreeMap::new();
        let mut active: Vec<String> = targets.clone();
        let mut image_jobs: Vec<ImageJob> = Vec::new();
        let mut source_mutated = false;
        let mut reports: Vec<Option<PassReport>> = Vec::new();
        reports.resize_with(self.passes.len(), || None);

        // Phase A: walk passes in nesting order, applying source transforms
        // (including wrapper splits for image passes that must end up below
        // later source passes) and queueing image-stage work. Each pass sees
        // only the still-active targets its restriction admits.
        for (i, pass) in self.passes.iter().enumerate() {
            match pass.stage() {
                Stage::Source => {
                    let snapshot = self.restricted(i, &active);
                    if snapshot.is_empty() && !active.is_empty() {
                        // The restriction excluded every live target: do not
                        // run the pass (it could still mutate the program)
                        // and do not force a baseline recompile.
                        reports[i] = Some(PassReport {
                            label: pass.label(),
                            stage: Stage::Source,
                            wall: Duration::ZERO,
                            detail: PassDetail::Skipped,
                        });
                        continue;
                    }
                    source_mutated = true;
                    let before = failures.len();
                    let start = Instant::now();
                    let mut cx = SourceCtx {
                        seed: self.seed,
                        targets: &snapshot,
                        vm_layers: &mut vm_layers,
                        failures: &mut failures,
                    };
                    let detail = pass.run_source(&mut working, &mut cx)?;
                    reports[i] = Some(PassReport {
                        label: pass.label(),
                        stage: Stage::Source,
                        wall: start.elapsed(),
                        detail,
                    });
                    let failed: Vec<String> =
                        failures[before..].iter().map(|(n, _)| n.clone()).collect();
                    active.retain(|t| !failed.contains(t));
                }
                Stage::Image => {
                    let pass_active = self.restricted(i, &active);
                    let needs_split =
                        self.passes[i + 1..].iter().any(|p| p.stage() == Stage::Source);
                    let stage_targets = if needs_split {
                        let mut inner_names = Vec::with_capacity(pass_active.len());
                        for t in &pass_active {
                            let inner = rop_inner_name(i, t);
                            wrap_rop_target(&mut working, t, &inner)?;
                            public_of.insert(inner.clone(), t.clone());
                            inner_names.push(inner);
                        }
                        source_mutated = source_mutated || !inner_names.is_empty();
                        inner_names
                    } else {
                        pass_active
                    };
                    image_jobs.push(ImageJob {
                        index: i,
                        targets: stage_targets,
                        requested: !active.is_empty(),
                    });
                }
            }
        }

        // Phase B: compile once, then run the queued image passes in order.
        let compile_start = Instant::now();
        let mut image = codegen::compile(&working).map_err(PipelineError::Codegen)?;
        let compile_wall = compile_start.elapsed();
        // When no source pass (and no wrapper split) touched the program,
        // the boundary compile *is* the unobfuscated baseline — keep it and
        // skip the second codegen at verification time.
        let pristine = match (&self.verify, source_mutated) {
            (VerifyPolicy::None, _) | (_, true) => None,
            (_, false) => Some(image.clone()),
        };
        self.run_image_jobs(&mut image, image_jobs, &public_of, &mut failures, &mut reports, warm)?;

        // Map stage-name failures back to public names.
        let failures: Vec<(String, String)> = failures
            .into_iter()
            .map(|(name, reason)| (public_of.get(&name).cloned().unwrap_or(name), reason))
            .collect();

        // Phase C: differential verification against the unobfuscated
        // baseline (compiled from the *original* program).
        let verify_start = Instant::now();
        let verify = match self.verify_cases() {
            Some(cases) => {
                let baseline = match pristine {
                    Some(b) => b,
                    None => codegen::compile(program).map_err(PipelineError::Codegen)?,
                };
                self.run_verification(&baseline, &image, &targets, &failures, &cases)
            }
            None => Vec::new(),
        };
        let verify_wall = verify_start.elapsed();

        let mut report = ObfReport {
            passes: reports.into_iter().flatten().collect(),
            failures,
            verify,
            audit: Vec::new(),
            lints,
            compile_wall,
            verify_wall,
            total_wall: Duration::ZERO,
        };
        if matches!(self.verify, VerifyPolicy::Static) {
            report.audit = self.static_audit(&image, &report);
        }
        report.total_wall = total_start.elapsed();
        Ok(PipelineRun { image, report })
    }

    /// Runs the pipeline on an already-compiled image. Source-stage passes
    /// are rejected: an image cannot be lifted back to MiniC.
    ///
    /// # Errors
    ///
    /// Fails when the pipeline contains a source-stage pass, a target is
    /// unknown, or a pass aborts.
    pub fn run_image<S: AsRef<str>>(
        &self,
        image: &Image,
        targets: &[S],
    ) -> Result<PipelineRun, PipelineError> {
        self.run_image_with(image, targets, &mut PipelineWarm::new())
    }

    /// [`run_image`](Pipeline::run_image) with caller-owned warm scratch
    /// state (see [`Pipeline::run_program_with`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`run_image`](Pipeline::run_image).
    pub fn run_image_with<S: AsRef<str>>(
        &self,
        image: &Image,
        targets: &[S],
        warm: &mut PipelineWarm,
    ) -> Result<PipelineRun, PipelineError> {
        let total_start = Instant::now();
        if let Some(pass) = self.passes.iter().find(|p| p.stage() == Stage::Source) {
            return Err(PipelineError::SourcePassOnImage { pass: pass.label() });
        }
        let targets: Vec<String> = targets.iter().map(|s| s.as_ref().to_string()).collect();
        for (i, t) in targets.iter().enumerate() {
            if image.function(t).is_err() {
                return Err(PipelineError::UnknownTarget(t.clone()));
            }
            if targets[..i].contains(t) {
                return Err(PipelineError::DuplicateTarget(t.clone()));
            }
        }

        let mut working = image.clone();
        let mut failures: Vec<(String, String)> = Vec::new();
        let mut reports: Vec<Option<PassReport>> = Vec::new();
        reports.resize_with(self.passes.len(), || None);
        let image_jobs: Vec<ImageJob> = (0..self.passes.len())
            .map(|i| ImageJob {
                index: i,
                targets: self.restricted(i, &targets),
                requested: !targets.is_empty(),
            })
            .collect();
        self.run_image_jobs(
            &mut working,
            image_jobs,
            &BTreeMap::new(),
            &mut failures,
            &mut reports,
            warm,
        )?;

        let verify_start = Instant::now();
        let verify = match self.verify_cases() {
            Some(cases) => self.run_verification(image, &working, &targets, &failures, &cases),
            None => Vec::new(),
        };
        let verify_wall = verify_start.elapsed();

        let mut report = ObfReport {
            passes: reports.into_iter().flatten().collect(),
            failures,
            verify,
            audit: Vec::new(),
            lints: Vec::new(),
            compile_wall: Duration::ZERO,
            verify_wall,
            total_wall: Duration::ZERO,
        };
        if matches!(self.verify, VerifyPolicy::Static) {
            report.audit = self.static_audit(&working, &report);
        }
        report.total_wall = total_start.elapsed();
        Ok(PipelineRun { image: working, report })
    }

    fn run_image_jobs(
        &self,
        image: &mut Image,
        jobs: Vec<ImageJob>,
        public_of: &BTreeMap<String, String>,
        failures: &mut Vec<(String, String)>,
        reports: &mut [Option<PassReport>],
        warm: &mut PipelineWarm,
    ) -> Result<(), PipelineError> {
        let public = |name: &String| public_of.get(name).unwrap_or(name).clone();
        for ImageJob { index: i, targets: stage_targets, requested } in jobs {
            // Drop targets that already failed (under any stage name mapping
            // to the same public function) in an earlier pass, so one
            // failure never cascades into duplicate entries.
            let failed: Vec<String> = failures.iter().map(|(n, _)| public(n)).collect();
            let stage_targets: Vec<String> =
                stage_targets.into_iter().filter(|t| !failed.contains(&public(t))).collect();
            if stage_targets.is_empty() && requested {
                // The run had targets but none survive for this pass (all
                // failed earlier, or the pass restriction excluded them):
                // invoking the pass anyway would still mutate the image
                // (e.g. a RopPass installs its runtime on attach),
                // diverging from the direct sequence.
                reports[i] = Some(PassReport {
                    label: self.passes[i].label(),
                    stage: Stage::Image,
                    wall: Duration::ZERO,
                    detail: PassDetail::Skipped,
                });
                continue;
            }
            let start = Instant::now();
            let mut cx =
                ImageCtx { seed: self.seed, targets: &stage_targets, failures, mat: &mut warm.mat };
            let detail = self.passes[i].run_image(image, &mut cx)?;
            reports[i] = Some(PassReport {
                label: self.passes[i].label(),
                stage: Stage::Image,
                wall: start.elapsed(),
                detail,
            });
        }
        Ok(())
    }

    fn verify_cases(&self) -> Option<Vec<TestCase>> {
        match &self.verify {
            VerifyPolicy::None | VerifyPolicy::Static => None,
            VerifyPolicy::Batch => Some(default_verify_cases()),
            VerifyPolicy::Cases(cases) => Some(cases.clone()),
        }
    }

    /// Statically audits `image` against a run's report: each pass checks
    /// what it emitted (chains, bytecode) via [`ObfPass::static_audit`],
    /// plus a final whole-image symbol audit. This is what
    /// [`VerifyPolicy::Static`] runs; it is public so callers can re-audit
    /// an image later (e.g. after deserializing it, or to pin that a
    /// deliberately corrupted copy is flagged).
    pub fn static_audit(&self, image: &Image, report: &ObfReport) -> Vec<AuditEntry> {
        let mut out = Vec::new();
        for (pass, pr) in self.passes.iter().zip(&report.passes) {
            out.push(AuditEntry {
                pass: pr.label.clone(),
                diagnostics: pass.static_audit(image, &pr.detail),
            });
        }
        out.push(AuditEntry { pass: "image".to_string(), diagnostics: audit_symbols(image) });
        out
    }

    fn run_verification(
        &self,
        baseline: &Image,
        obfuscated: &Image,
        targets: &[String],
        failures: &[(String, String)],
        cases: &[TestCase],
    ) -> Vec<VerifyOutcome> {
        targets
            .iter()
            .filter(|t| !failures.iter().any(|(f, _)| f == *t))
            .map(|t| VerifyOutcome {
                function: t.clone(),
                verdicts: verify_batch(baseline, obfuscated, t, cases),
            })
            .collect()
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("passes", &self.passes.iter().map(|p| p.label()).collect::<Vec<_>>())
            .field("restrictions", &self.restrictions)
            .field("seed", &self.seed)
            .field("verify", &self.verify)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raindrop_machine::Emulator;
    use raindrop_synth::minic::BinOp;

    /// f(x) = (x ^ 0x5A) * 3 + 7, compiled-function shaped through codegen.
    fn sample_program() -> Program {
        Program::new().with_function(Function {
            name: "f".into(),
            params: 1,
            locals: 1,
            body: vec![
                Stmt::Assign(0, Expr::bin(BinOp::Xor, Expr::Arg(0), Expr::c(0x5A))),
                Stmt::Return(Expr::bin(
                    BinOp::Add,
                    Expr::bin(BinOp::Mul, Expr::Var(0), Expr::c(3)),
                    Expr::c(7),
                )),
            ],
        })
    }

    fn reference(x: u64) -> u64 {
        (x ^ 0x5A).wrapping_mul(3).wrapping_add(7)
    }

    fn run_f(image: &Image, x: u64) -> u64 {
        let mut emu = Emulator::new(image);
        emu.set_budget(2_000_000_000);
        emu.call_named(image, "f", &[x]).unwrap()
    }

    #[test]
    fn empty_pipeline_just_compiles() {
        let p = sample_program();
        let run = Pipeline::new().run_program(&p, &["f"]).unwrap();
        assert_eq!(run.image, codegen::compile(&p).unwrap());
        assert!(run.report.passes.is_empty());
    }

    #[test]
    fn rop_over_vm_and_vm_over_rop_both_preserve_semantics() {
        let p = sample_program();
        for (label, pipeline) in [
            ("rop-over-vm", Pipeline::new().pass(VmPass::plain(1)).pass(RopPass::full()).seed(3)),
            ("vm-over-rop", Pipeline::new().pass(RopPass::full()).pass(VmPass::plain(1)).seed(3)),
        ] {
            let run = pipeline.verify(VerifyPolicy::Batch).run_program(&p, &["f"]).unwrap();
            assert!(run.report.failures.is_empty(), "{label}: {:?}", run.report.failures);
            assert!(run.report.all_verified(), "{label}");
            for x in [0u64, 9, 1000] {
                assert_eq!(run_f(&run.image, x), reference(x), "{label} f({x})");
            }
        }
    }

    #[test]
    fn vm_over_rop_keeps_the_rop_chain_underneath() {
        let p = sample_program();
        let run = Pipeline::new()
            .pass(RopPass::full())
            .pass(VmPass::plain(1))
            .seed(11)
            .run_program(&p, &["f"])
            .unwrap();
        // The inner function was ROP-rewritten: its chain lives in .data.
        let inner = rop_inner_name(0, "f");
        assert!(run.image.symbol(&format!("__rop_chain_{inner}")).is_ok());
        // And the public entry is the VM interpreter (bytecode global).
        assert!(run.image.symbol("__vm0_f_code").is_ok());
    }

    #[test]
    fn static_policy_audits_cross_layer_runs_clean() {
        let p = sample_program();
        for (label, pipeline) in [
            ("rop", Pipeline::new().pass(RopPass::full()).seed(5)),
            ("rop-over-vm", Pipeline::new().pass(VmPass::plain(1)).pass(RopPass::full()).seed(5)),
            ("vm-over-rop", Pipeline::new().pass(RopPass::full()).pass(VmPass::plain(1)).seed(5)),
        ] {
            let run = pipeline.verify(VerifyPolicy::Static).run_program(&p, &["f"]).unwrap();
            assert!(run.report.failures.is_empty(), "{label}: {:?}", run.report.failures);
            assert!(run.report.verify.is_empty(), "{label}: static policy never emulates");
            assert!(
                run.report.audit_clean(),
                "{label}: {:?}",
                run.report.audit_diagnostics().collect::<Vec<_>>()
            );
            assert!(run.report.lints.is_empty(), "{label}");
        }
    }

    #[test]
    fn static_audit_flags_flipped_bytecode_and_chain_words() {
        let p = sample_program();
        let pipeline = Pipeline::new()
            .pass(VmPass::plain(1))
            .pass(RopPass::full())
            .seed(5)
            .verify(VerifyPolicy::Static);
        let run = pipeline.run_program(&p, &["f"]).unwrap();
        assert!(run.report.audit_clean());

        // Flip one byte of the VM bytecode blob.
        let mut corrupted = run.image.clone();
        let code_addr = corrupted.symbol("__vm0_f_code").unwrap();
        let off = (code_addr - corrupted.data_base) as usize;
        corrupted.data[off] ^= 0xFF;
        let audit = pipeline.static_audit(&corrupted, &run.report);
        assert!(
            audit.iter().flat_map(|e| &e.diagnostics).any(|d| matches!(
                d,
                StaticDiagnostic::BytecodeMismatch { .. } | StaticDiagnostic::BytecodeDecode { .. }
            )),
            "{audit:?}"
        );

        // Flip one word of the ROP chain.
        let mut corrupted = run.image.clone();
        let chain_addr = corrupted.symbol("__rop_chain_f").unwrap();
        let off = (chain_addr - corrupted.data_base) as usize;
        corrupted.data[off] ^= 0x04;
        let audit = pipeline.static_audit(&corrupted, &run.report);
        assert!(
            audit
                .iter()
                .flat_map(|e| &e.diagnostics)
                .any(|d| matches!(d, StaticDiagnostic::ChainBytesMismatch { .. })),
            "{audit:?}"
        );
    }

    #[test]
    fn static_policy_lints_zero_arg_call_targets() {
        let mut p = sample_program();
        p = p.with_function(Function {
            name: "zero".into(),
            params: 0,
            locals: 0,
            body: vec![Stmt::Return(Expr::c(3))],
        });
        p = p.with_function(Function {
            name: "caller".into(),
            params: 1,
            locals: 0,
            body: vec![Stmt::Return(Expr::Call("zero".into(), vec![]))],
        });
        let run = Pipeline::new()
            .pass(RopPass::plain())
            .seed(1)
            .verify(VerifyPolicy::Static)
            .run_program(&p, &["caller"])
            .unwrap();
        assert_eq!(
            run.report.lints,
            vec![crate::lint::RewriteLint::ZeroArgCall {
                function: "caller".into(),
                callee: "zero".into(),
                sites: 1,
            }]
        );
        // The lint predicted the mid-rewrite failure.
        assert!(!run.report.failures.is_empty());
    }

    #[test]
    fn pipeline_seed_reaches_unseeded_passes_only() {
        let rop = RopPass::full();
        assert_eq!(rop.effective_config(Some(9)).seed, 9);
        let pinned = RopPass::full().with_seed(5);
        assert_eq!(pinned.effective_config(Some(9)).seed, 5);
        let vm = VmPass::plain(2);
        assert_eq!(vm.effective_config(Some(9)).seed, 9);
        let vm_pinned = VmPass::plain(2).with_seed(4);
        assert_eq!(vm_pinned.effective_config(Some(9)).seed, 4);
        let explicit = RopPass::new(RopConfig::full());
        assert_eq!(explicit.effective_config(Some(9)).seed, RopConfig::full().seed);
    }

    #[test]
    fn unknown_targets_and_source_passes_on_images_are_rejected() {
        let p = sample_program();
        assert!(matches!(
            Pipeline::new().run_program(&p, &["nope"]),
            Err(PipelineError::UnknownTarget(_))
        ));
        assert!(matches!(
            Pipeline::new().run_program(&p, &["f", "f"]),
            Err(PipelineError::DuplicateTarget(_))
        ));
        let image = codegen::compile(&p).unwrap();
        assert!(matches!(
            Pipeline::new().pass(VmPass::plain(1)).run_image(&image, &["f"]),
            Err(PipelineError::SourcePassOnImage { .. })
        ));
    }

    #[test]
    fn per_target_failures_are_collected_not_fatal() {
        // A function too short to hold the pivot stub: the ROP pass records
        // a failure, the run still succeeds, verification skips the target.
        let tiny = Program::new().with_function(Function {
            name: "tiny".into(),
            params: 0,
            locals: 0,
            body: vec![Stmt::Return(Expr::c(1))],
        });
        let image = codegen::compile(&tiny).unwrap();
        let run = Pipeline::new()
            .pass(RopPass::plain())
            .verify(VerifyPolicy::Batch)
            .run_image(&image, &["tiny"])
            .unwrap();
        assert_eq!(run.report.failures.len(), 1);
        assert!(run.report.verify.is_empty());
        assert!(run.into_strict().is_err());
    }

    #[test]
    fn a_failed_target_is_skipped_by_later_image_passes() {
        // A ROP∘VM∘ROP sandwich (two image passes, split by the source
        // pass): "tiny" fails the inner ROP pass (too short for the pivot
        // stub), so the outer ROP pass must skip it — one failure entry,
        // no retry on the failed target — while "f" flows through the full
        // three-layer composition.
        let mut p = sample_program();
        p = p.with_function(Function {
            name: "tiny".into(),
            params: 0,
            locals: 0,
            body: vec![Stmt::Return(Expr::c(1))],
        });
        let run = Pipeline::new()
            .pass(RopPass::plain())
            .pass(VmPass::plain(1))
            .pass(RopPass::full())
            .seed(8)
            .run_program(&p, &["f", "tiny"])
            .unwrap();
        assert_eq!(run.report.failures.len(), 1, "{:?}", run.report.failures);
        assert_eq!(run.report.failures[0].0, "tiny");
        let rop = run.report.rop_passes();
        assert_eq!(rop[0].rewritten.len(), 1, "inner pass rewrote f's split body only");
        assert_eq!(rop[1].rewritten.len(), 1, "outer pass rewrote f's interpreter only");
        for x in [1u64, 77] {
            assert_eq!(run_f(&run.image, x), reference(x));
        }
    }

    #[test]
    fn report_carries_pass_structure_and_stats() {
        let p = sample_program();
        let run = Pipeline::new()
            .pass(VmPass::plain(1))
            .pass(RopPass::ropk(1.0))
            .seed(2)
            .verify(VerifyPolicy::Batch)
            .run_program(&p, &["f"])
            .unwrap();
        let report = &run.report;
        assert_eq!(report.passes.len(), 2);
        assert_eq!(report.passes[0].label, "1VM");
        assert_eq!(report.passes[1].label, "ROP1.00");
        let vm = report.passes[0].vm().expect("vm detail");
        assert_eq!(vm.functions.len(), 1);
        assert!(vm.functions[0].1[0] > 0, "bytecode produced");
        let rop = report.passes[1].rop().expect("rop detail");
        assert_eq!(rop.rewritten.len(), 1);
        assert!(rop.rewritten[0].chain_len > 0);
        assert!(rop.gadgets.total_used > 0);
        assert!(report.all_verified());
        assert!(report.total_wall >= report.compile_wall);
    }

    #[test]
    fn rop_phase_walls_fit_inside_the_pass_wall() {
        let p = sample_program();
        let run = Pipeline::new()
            .pass(VmPass::plain(1))
            .pass(RopPass::ropk(1.0))
            .seed(2)
            .run_program(&p, &["f"])
            .unwrap();
        let pass = &run.report.passes[1];
        let phases = pass.rop().expect("rop detail").phases;
        assert!(phases.analysis > Duration::ZERO, "{phases:?}");
        assert!(phases.craft > Duration::ZERO, "{phases:?}");
        assert!(phases.materialize > Duration::ZERO, "{phases:?}");
        let sum = phases.analysis + phases.craft + phases.materialize;
        assert!(sum <= pass.wall, "{phases:?} exceeds the pass wall {:?}", pass.wall);
    }

    #[test]
    fn obf_config_hash_ignores_seeds_but_not_knobs_or_order() {
        let base = ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(0.25));

        // Per-pass seeds are key components, not configuration.
        let reseeded = ObfConfig::new()
            .vm(VmConfig { seed: 0xDEAD, ..VmConfig::plain(1) })
            .rop(RopConfig::ropk(0.25).with_seed(0xBEEF));
        assert_eq!(base.config_hash(), reseeded.config_hash());

        // Every semantic knob must perturb the hash.
        let k = ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(0.5));
        assert_ne!(base.config_hash(), k.config_hash());
        let layers = ObfConfig::new().vm(VmConfig::plain(2)).rop(RopConfig::ropk(0.25));
        assert_ne!(base.config_hash(), layers.config_hash());
        let implicit = ObfConfig::new()
            .vm(VmConfig::with_implicit(1, ImplicitAt::Last))
            .rop(RopConfig::ropk(0.25));
        assert_ne!(base.config_hash(), implicit.config_hash());

        // Nesting order is semantic: ROP-over-VM != VM-over-ROP.
        let swapped = ObfConfig::new().rop(RopConfig::ropk(0.25)).vm(VmConfig::plain(1));
        assert_ne!(base.config_hash(), swapped.config_hash());

        // And the hash itself is pinned, so a format change (which would
        // silently remap every stored artifact) fails loudly here.
        assert_eq!(base.config_hash(), 0x0719_f939_7885_37ff_bc78_3fad_7764_900b_u128);
    }

    #[test]
    fn obf_config_labels_match_driver_naming() {
        assert_eq!(ObfConfig::new().label(), "NATIVE");
        let c = ObfConfig::new().vm(VmConfig::plain(2)).rop(RopConfig::ropk(0.25));
        assert_eq!(c.label(), "ROP0.25-over-2VM");
        let v = ObfConfig::new().rop(RopConfig::full()).vm(VmConfig::plain(1));
        assert_eq!(v.label(), "1VM-over-ROP1.00");
    }

    #[test]
    fn obf_config_pipeline_matches_hand_built_pipeline() {
        let p = sample_program();
        let config = ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(0.25));
        let via_config = config.pipeline(9).run_program(&p, &["f"]).unwrap();
        let via_hand = Pipeline::new()
            .pass(VmPass::new(VmConfig { seed: 9, ..VmConfig::plain(1) }))
            .pass(RopPass::new(RopConfig::ropk(0.25).with_seed(9)))
            .seed(9)
            .run_program(&p, &["f"])
            .unwrap();
        assert_eq!(via_config.image, via_hand.image, "identical images byte for byte");
    }

    #[test]
    fn warm_state_reuse_is_invisible() {
        // The server's per-worker warm state must be undetectable in the
        // output: a pipeline run through a context that already protected
        // other programs is bit-identical to a cold run.
        let p = sample_program();
        let config = ObfConfig::new().rop(RopConfig::full());

        let cold = config.pipeline(5).run_program(&p, &["f"]).unwrap();

        let mut warm = PipelineWarm::new();
        // Dirty the warm state on different programs/configs first.
        let other = ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(1.0));
        other.pipeline(11).run_program_with(&p, &["f"], &mut warm).unwrap();
        config.pipeline(3).run_program_with(&p, &["f"], &mut warm).unwrap();

        let reused = config.pipeline(5).run_program_with(&p, &["f"], &mut warm).unwrap();
        assert_eq!(cold.image, reused.image, "warm context changed the output image");
    }

    /// Two independent functions: `f` as in [`sample_program`], plus
    /// `g(x) = (x + 11) ^ 0x21`.
    fn two_function_program() -> Program {
        sample_program().with_function(Function {
            name: "g".into(),
            params: 1,
            locals: 0,
            body: vec![Stmt::Return(Expr::bin(
                BinOp::Xor,
                Expr::bin(BinOp::Add, Expr::Arg(0), Expr::c(11)),
                Expr::c(0x21),
            ))],
        })
    }

    fn reference_g(x: u64) -> u64 {
        x.wrapping_add(11) ^ 0x21
    }

    #[test]
    fn per_pass_restrictions_protect_disjoint_subsets() {
        // One run, two disjoint protections: virtualize `f`, ROP-rewrite
        // `g`. Each pass must touch only its own subset.
        let p = two_function_program();
        let run = Pipeline::new()
            .pass(VmPass::plain(1))
            .only(&["f"])
            .pass(RopPass::ropk(1.0))
            .only(&["g"])
            .seed(3)
            .verify(VerifyPolicy::Batch)
            .run_program(&p, &["f", "g"])
            .unwrap();
        assert!(run.report.failures.is_empty(), "{:?}", run.report.failures);
        assert!(run.report.all_verified());
        let vm = run.report.passes[0].vm().expect("vm detail");
        let vm_targets: Vec<&str> = vm.functions.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(vm_targets, ["f"], "VM pass touched exactly its subset");
        let rop = run.report.passes[1].rop().expect("rop detail");
        let rop_targets: Vec<&str> = rop.rewritten.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(rop_targets, ["g"], "ROP pass touched exactly its subset");
        for x in [0u64, 9, 1000] {
            assert_eq!(run_f(&run.image, x), reference(x), "f({x})");
            let mut emu = Emulator::new(&run.image);
            emu.set_budget(2_000_000_000);
            assert_eq!(emu.call_named(&run.image, "g", &[x]).unwrap(), reference_g(x), "g({x})");
        }
    }

    #[test]
    fn restriction_excluding_every_target_skips_the_pass() {
        let p = sample_program();
        // Image-stage pass restricted to a function this run never targets:
        // skipped, and the output is the plain compile.
        let run = Pipeline::new()
            .pass(RopPass::ropk(1.0))
            .only(&["g"])
            .seed(1)
            .run_program(&p, &["f"])
            .unwrap();
        assert_eq!(run.report.passes[0].detail, PassDetail::Skipped);
        assert_eq!(run.image, codegen::compile(&p).unwrap(), "image untouched");

        // Source-stage pass likewise — and the skip must not force a
        // wrapper split or baseline recompile.
        let run = Pipeline::new()
            .pass(VmPass::plain(1))
            .only(&["g"])
            .seed(1)
            .run_program(&p, &["f"])
            .unwrap();
        assert_eq!(run.report.passes[0].detail, PassDetail::Skipped);
        assert_eq!(run.image, codegen::compile(&p).unwrap(), "program untouched");
    }

    #[test]
    fn obf_config_restrictions_hash_and_thread_into_pipelines() {
        let base = ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(0.25));
        let restricted = ObfConfig::new()
            .vm(VmConfig::plain(1))
            .only(&["f"])
            .rop(RopConfig::ropk(0.25))
            .only(&["g"]);

        // A restriction is semantic: same chain over different subsets
        // yields different artifacts.
        assert_ne!(base.config_hash(), restricted.config_hash());
        // ...and which pass carries which subset matters.
        let swapped = ObfConfig::new()
            .vm(VmConfig::plain(1))
            .only(&["g"])
            .rop(RopConfig::ropk(0.25))
            .only(&["f"]);
        assert_ne!(restricted.config_hash(), swapped.config_hash());

        // Restrictions are sets: order and duplicates are not semantic.
        let a = ObfConfig::new().rop(RopConfig::ropk(0.25)).only(&["b", "a"]);
        let b = ObfConfig::new().rop(RopConfig::ropk(0.25)).only(&["a", "b", "a"]);
        assert_eq!(a.config_hash(), b.config_hash());

        // pipeline() threads the restrictions: config-driven equals
        // hand-built, byte for byte.
        let p = two_function_program();
        let config = ObfConfig::new()
            .vm(VmConfig::plain(1))
            .only(&["f"])
            .rop(RopConfig::ropk(1.0))
            .only(&["g"]);
        let via_config = config.pipeline(9).run_program(&p, &["f", "g"]).unwrap();
        let via_hand = Pipeline::new()
            .pass(VmPass::new(VmConfig { seed: 9, ..VmConfig::plain(1) }))
            .only(&["f"])
            .pass(RopPass::new(RopConfig::ropk(1.0).with_seed(9)))
            .only(&["g"])
            .seed(9)
            .run_program(&p, &["f", "g"])
            .unwrap();
        assert_eq!(via_config.image, via_hand.image, "identical images byte for byte");
    }
}
