//! The runner's calls into each layer.
//!
//! With the tracer off, compilation and recorded runs go through
//! `Experiment` exactly as a user calls it. With the tracer on, the same
//! work is decomposed into each layer's public functions — selection,
//! per-function allocation and emission, module finish, assembly, each
//! verify gate — with a span around every call. The self-tests pin both
//! paths to byte-identical programs and measurements.

use br_codegen::{GatedError, Stage};
use br_core::{CodegenStats, CompileError, Error, Experiment, RunResult};
use br_emu::{Emulator, FetchRecorder, FetchTrace, Measurements};
use br_icache::{CacheConfig, CacheStats};
use br_ir::Module;
use br_isa::{Machine, Program};
use br_pipeline::CycleEstimate;

use crate::trace::Tracer;

/// Pipeline depths the paper-eval workload sweeps.
pub const DEPTHS: std::ops::RangeInclusive<u32> = 2..=8;

/// The paper's pipeline depth (Section 6: three stages).
pub const PAPER_DEPTH: u32 = 3;

/// Counters the metered compile path reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCounts {
    pub spills: u32,
    pub funcs: usize,
}

/// Lower MiniC source to IR.
pub fn lower(tr: &Tracer, src: &str, op: u32) -> Result<Module, Error> {
    Ok(tr.span("frontend.lower", op, || br_frontend::compile(src))?)
}

/// Translate an RV32I image to IR.
pub fn ingest(tr: &Tracer, prog: &br_ingest::Rv32Program, op: u32) -> Result<Module, Error> {
    tr.span("ingest.translate", op, || br_ingest::translate(prog))
        .map_err(|e| CompileError::Ingest(e).into())
}

/// Static IR instruction count of a module.
pub fn ir_insts(module: &Module) -> u64 {
    module
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len() as u64)
        .sum()
}

/// Compile `module` for `machine` with `exp`'s options, verify gates
/// included when `exp.verify` is set. Untraced, this is
/// `Experiment::compile_module_for`; traced, it is the same pipeline
/// called stage by stage, which also yields the allocator counters.
pub fn compile(
    tr: &Tracer,
    exp: &Experiment,
    module: &Module,
    machine: Machine,
    op: u32,
) -> Result<(Program, CodegenStats, Option<CompileCounts>), Error> {
    if !tr.enabled() {
        let (prog, stats) = exp.compile_module_for(module, machine)?;
        return Ok((prog, stats, None));
    }
    let verify = exp.verify;
    let gate = |stage: Stage<'_>| -> Result<(), br_verify::VerifyError> {
        if !verify {
            return Ok(());
        }
        let name = match stage {
            Stage::Ir { .. } => "verify.gate_ir",
            Stage::Regalloc { .. } => "verify.gate_regalloc",
            Stage::Emit { .. } => "verify.gate_emit",
        };
        tr.span(name, op, || br_verify::check_stage(stage))
    };
    let to_error = |e: GatedError<br_verify::VerifyError>| -> Error {
        match e {
            GatedError::Codegen(c) => CompileError::Codegen(c).into(),
            GatedError::Gate(v) => CompileError::Verify(v).into(),
        }
    };
    let mut select_gate = gate;
    let batch = tr
        .span("codegen.isel", op, || {
            br_codegen::select_module_with(module, machine, exp.base_opts, exp.br_opts, &mut select_gate)
        })
        .map_err(to_error)?;
    let mut counts = CompileCounts {
        spills: 0,
        funcs: batch.len(),
    };
    let mut parts = Vec::with_capacity(batch.len());
    for i in 0..batch.len() {
        // The function's span is allocation; emission and hoisting are
        // carved out of it from the metered pipeline's own stage times
        // (emission runs between the two gates, or last without gates).
        let id = tr.begin("codegen.regalloc", op);
        let out = batch.compile_func_metered(i, &gate);
        tr.end(id);
        let (part, m) = out.map_err(to_error)?;
        if let Some(id) = id {
            let emit_end = tr
                .child_start(id, "verify.gate_emit")
                .unwrap_or(tr.get(id).end_ns);
            let emit = tr.child_ending_at(Some(id), "codegen.emit", m.times.emit_ns, emit_end);
            let emit_start = emit.map(|e| tr.get(e).start_ns).unwrap_or(emit_end);
            tr.child_ending_at(
                emit,
                "codegen.hoist",
                m.times.hoist_ns,
                emit_start + m.times.hoist_ns,
            );
        }
        counts.spills += m.spills;
        parts.push(part);
    }
    let out = tr.span("codegen.finish", op, || batch.finish(parts));
    let prog = tr
        .span("isa.assemble", op, || out.asm.assemble())
        .map_err(|e| CompileError::Asm(e.to_string()))?;
    Ok((prog, out.stats, Some(counts)))
}

/// Compile and run once while recording the fetch trace. Untraced, this
/// is `Experiment::run_with_trace`.
pub fn run_recorded(
    tr: &Tracer,
    exp: &Experiment,
    module: &Module,
    machine: Machine,
    op: u32,
) -> Result<(RunResult, FetchTrace, Option<CompileCounts>), Error> {
    if !tr.enabled() {
        let (run, trace) = exp.run_with_trace(module, machine)?;
        return Ok((run, trace, None));
    }
    let (prog, stats, counts) = compile(tr, exp, module, machine, op)?;
    let (exit, meas, trace) = tr.span("emu.run", op, || {
        let mut emu = Emulator::new(&prog).with_tier(exp.tier);
        let mut rec = FetchRecorder::new();
        let exit = emu.run_with_hook(exp.fuel, &mut rec)?;
        let meas = emu.measurements().clone();
        let trace = rec.finish(&meas);
        Ok::<_, Error>((exit, meas, trace))
    })?;
    let run = RunResult {
        exit,
        meas,
        stats,
        static_insts: prog.static_inst_count(),
    };
    Ok((run, trace, counts))
}

/// Run a compiled program with `fuel`.
pub fn run(
    tr: &Tracer,
    exp: &Experiment,
    prog: &Program,
    fuel: u64,
    op: u32,
) -> Result<(i32, Measurements), Error> {
    tr.span("emu.run", op, || {
        let mut emu = Emulator::new(prog).with_tier(exp.tier);
        let exit = emu.run(fuel)?;
        Ok((exit, emu.measurements().clone()))
    })
}

/// Replay a recorded fetch trace through one cache geometry.
pub fn replay(tr: &Tracer, cfg: CacheConfig, trace: &FetchTrace, op: u32) -> CacheStats {
    tr.span("icache.replay", op, || br_icache::replay(cfg, trace))
        .expect("benchmark geometries are valid")
}

/// Pipeline cycle estimates at every swept depth.
pub fn sweep(tr: &Tracer, machine: Machine, meas: &Measurements, op: u32) -> Vec<(u32, CycleEstimate)> {
    tr.span("pipeline.sweep", op, || br_pipeline::depth_sweep(machine, meas, DEPTHS))
}

/// Whole-module translation validation.
pub fn tv(
    tr: &Tracer,
    exp: &Experiment,
    module: &Module,
    op: u32,
) -> Result<br_verify::tv::TvModuleReport, Error> {
    tr.span("verify.tv", op, || exp.tv_validate_module(module))
}

/// Program-level branch-register protocol lint; its findings.
pub fn lint(tr: &Tracer, exp: &Experiment, prog: &Program, op: u32) -> Vec<br_verify::VerifyError> {
    tr.span("verify.lint", op, || br_verify::lint_program(prog, &exp.br_opts))
}

/// Run `prog` once more, outside any timed phase, recording its fetch
/// trace, and replay it through the paper cache. Adds
/// `<machine>.paper_cycles`, `.trace_words` and `.icache.paper.*` to `c`
/// and returns the run's measurements.
pub fn paper_replay(
    c: &mut crate::Counters,
    prog: &Program,
    fuel: u64,
    tier: br_emu::ExecTier,
) -> Result<Measurements, String> {
    let (_, trace) = FetchTrace::record(prog, fuel, tier).map_err(|e| e.to_string())?;
    let paper = crate::paper_eval::geometry(&crate::paper_eval::GEOMETRIES[0]);
    let cs = br_icache::replay(paper, &trace).map_err(|e| e.to_string())?;
    let mk = crate::machine_key(prog.machine);
    let meas = trace.measurements();
    crate::bump(c, format!("{mk}.paper_cycles"), paper_cycles(prog.machine, meas, &cs));
    crate::bump(c, format!("{mk}.trace_words"), trace.packed_len() as u64);
    for (k, v) in crate::paper_eval::cache_fields(&cs) {
        crate::bump(c, format!("{mk}.icache.paper.{k}"), v);
    }
    Ok(meas.clone())
}

/// Cycles at the paper's depth with the paper cache's fetch stalls.
pub fn paper_cycles(machine: Machine, meas: &Measurements, paper_cache: &CacheStats) -> u64 {
    br_pipeline::machine_cycles(machine, meas, PAPER_DEPTH).total + paper_cache.stall_cycles
}
