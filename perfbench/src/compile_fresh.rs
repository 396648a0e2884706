//! `compile-fresh`: seeded inputs that share no work, as in the
//! `br-torture --verify --tv` loop. Generated MiniC modules of several
//! sizes and generated RV32 streams are each compiled once per machine
//! with the verify stage gates on, pass translation validation and the
//! program lint, then run with small fuel.

use std::time::Instant;

use br_core::Experiment;
use br_isa::{Machine, Program};
use br_torture::GenConfig;
use br_verify::tv::TvStatus;

use crate::calib::Calibrator;
use crate::layers;
use crate::trace::Tracer;
use crate::{bump, bump_codegen, lower_input, machine_key, Counters};
use crate::{Input, Options, Report};

/// Generated MiniC modules per run.
pub const MINIC_MODULES: usize = 300;
/// Generated RV32 streams per run.
pub const RV32_STREAMS: usize = 60;

/// Emulation fuel per program: generated programs are loop-bounded, so
/// this is ample and keeps the emulator's share small.
pub const FUEL: u64 = 2_000_000;

const SETUP_REPS: usize = 3;
const REF_FUEL: u64 = 200_000_000;

/// Module size classes, cycled by input index: generator limits
/// `(max_funcs, max_stmts, max_depth, max_expr_depth)` and a target
/// source size in bytes. Generated sizes are heavy-tailed, so each
/// module is the first of its seeded candidates within 10% of the
/// target; the total work then barely moves from seed to seed.
pub const SIZES: [((u8, u8, u8, u8), usize); 4] = [
    ((2, 4, 2, 2), 1_700),
    ((3, 4, 2, 3), 2_400),
    ((4, 5, 2, 3), 4_700),
    ((4, 5, 3, 3), 9_000),
];

/// Candidates tried per module before the size band is given up.
const MAX_TRIES: u64 = 1_000;

/// Generated MiniC module `i` for `seed`, in size class `class` (an
/// index into [`SIZES`]).
pub fn sized_minic(seed: u64, i: u64, class: usize) -> Input {
    let ((max_funcs, max_stmts, max_depth, max_expr_depth), target) = SIZES[class];
    let cfg = GenConfig {
        max_funcs,
        max_stmts,
        max_depth,
        max_expr_depth,
        ..GenConfig::default()
    };
    let band = target * 9 / 10..=target * 11 / 10;
    let mut t = 0;
    loop {
        let s = br_torture::iter_seed(seed, i << 16 | t);
        let src = br_torture::render(&br_torture::generate(s, cfg));
        t += 1;
        if band.contains(&src.len()) || t == MAX_TRIES {
            return Input::MiniC {
                name: format!("minic-{s:#x}"),
                src,
            };
        }
    }
}

/// The workload's inputs for `seed`.
pub fn inputs(seed: u64) -> Vec<Input> {
    let mut v: Vec<Input> = (0..MINIC_MODULES)
        .map(|i| sized_minic(seed, i as u64, i % SIZES.len()))
        .collect();
    for j in 0..RV32_STREAMS {
        let s = br_torture::iter_seed(seed ^ 0x5256_3332, j as u64);
        v.push(Input::Rv32 {
            name: format!("rv32-{s:#x}"),
            prog: br_torture::generate_rv32(s),
        });
    }
    v
}

/// The experiment this workload runs: user defaults plus the verify
/// gates and small fuel it states.
pub fn experiment() -> Experiment {
    Experiment {
        verify: true,
        fuel: FUEL,
        ..Experiment::new()
    }
}

/// One pass over every input: per-op latencies (seconds), counters and
/// the compiled programs.
fn pass(
    tr: &Tracer,
    cal: &mut Calibrator,
    exp: &Experiment,
    inputs: &[Input],
    refs: &[Result<i32, String>],
    report: &mut Report,
) -> (Vec<f64>, Counters, Vec<[Program; 2]>) {
    let mut lat = Vec::with_capacity(inputs.len());
    let mut c = Counters::new();
    let mut progs = Vec::with_capacity(inputs.len());
    let root = tr.begin("core.pass", 0);
    for (i, input) in inputs.iter().enumerate() {
        let op = i as u32;
        let t = Instant::now();
        let id = tr.begin("core.op", op);
        let out = (|| -> Result<_, br_core::Error> {
            let module = lower_input(tr, input, op)?;
            let base = layers::compile(tr, exp, &module, Machine::Baseline, op)?;
            let brm = layers::compile(tr, exp, &module, Machine::BranchReg, op)?;
            let tv = layers::tv(tr, exp, &module, op)?;
            let lints = [
                layers::lint(tr, exp, &base.0, op),
                layers::lint(tr, exp, &brm.0, op),
            ];
            let runs = [
                layers::run(tr, exp, &base.0, exp.fuel, op)?,
                layers::run(tr, exp, &brm.0, exp.fuel, op)?,
            ];
            Ok((module, [base, brm], tv, lints, runs))
        })();
        tr.end(id);
        lat.push(t.elapsed().as_secs_f64());
        cal.tick();
        let (module, compiled, tv, lints, runs) = match out {
            Ok(o) => o,
            Err(e) => {
                report.fail(format!("{}: {e}", input.name()));
                continue;
            }
        };
        let name = input.name();
        let want = &refs[i];
        for (m, (exit, meas)) in [Machine::Baseline, Machine::BranchReg].into_iter().zip(&runs) {
            let mk = machine_key(m);
            match want {
                Ok(r) if r == exit => {}
                Ok(r) => report.fail(format!("{name} on {mk}: exit {exit} but the reference gives {r}")),
                Err(e) => report.fail(format!("reference: {e}")),
            }
            bump(&mut c, format!("{mk}.insts"), meas.instructions);
        }
        if runs[0].0 != runs[1].0 {
            report.fail(format!("{name}: baseline exit {} but BR exit {}", runs[0].0, runs[1].0));
        }
        if tv.any_refuted() {
            report.fail(format!("{name}: translation validation refuted a function"));
        }
        // Lint findings on a program whose outputs are correct are
        // counted, not failed: they are verifier verdicts, like TV's.
        for (m, findings) in [Machine::Baseline, Machine::BranchReg].into_iter().zip(lints) {
            bump(&mut c, format!("{}.lint_findings", machine_key(m)), findings.len() as u64);
            if let Some(f) = findings.first() {
                report.note_once(format!("lint finding: {name} on {}: {f}", machine_key(m)));
            }
        }
        bump(&mut c, "ir_insts", layers::ir_insts(&module));
        for s in [TvStatus::Proven, TvStatus::Unproven, TvStatus::Refuted] {
            bump(&mut c, format!("tv.{}", s.name()), tv.count(s) as u64);
        }
        let [(bp, bs, bn), (rp, rs, rn)] = compiled;
        for (mk, p, s, n) in [("baseline", &bp, bs, bn), ("brmach", &rp, rs, rn)] {
            bump(&mut c, format!("{mk}.static_insts"), p.static_inst_count() as u64);
            bump_codegen(&mut c, mk, &s, n);
        }
        progs.push([bp, rp]);
    }
    tr.end(root);
    (lat, c, progs)
}

/// Run the workload.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::new("compile-fresh");
    let (setup_s, inputs) = crate::median_time(SETUP_REPS, || inputs(opts.seed));
    let refs: Vec<Result<i32, String>> =
        inputs.iter().map(|i| crate::reference_exit(i, REF_FUEL)).collect();
    let exp = experiment();
    let mut last_progs = Vec::new();
    let op = "one module lowered, compiled for both machines with the verify gates, validated, linted and run";
    crate::run_batch(opts, &mut report, setup_s, op, |tr, cal, rep| {
        let (lat, c, progs) = pass(tr, cal, &exp, &inputs, &refs, rep);
        last_progs = progs;
        (lat, c)
    });
    // Simulated cycles, outside the timed phase.
    let mut extra = Counters::new();
    for p in last_progs.iter().flatten() {
        if let Err(e) = layers::paper_replay(&mut extra, p, exp.fuel, exp.tier) {
            report.fail(format!("cycle replay: {e}"));
        }
    }
    report.counters.extend(extra);
    crate::simulated_metrics(&mut report);
    report
}
