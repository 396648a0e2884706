//! `paper-eval`: the paper's own evaluation, run cold as `br-explore`
//! users run it. The 19 Appendix I programs at `Scale::Paper` and the
//! three RV32 workloads each run once per machine through
//! `Experiment::run_with_trace`; every recorded fetch trace is replayed
//! through the paper cache and five of br-explore's geometries, then
//! through the pipeline depth sweep 2–8.

use std::time::Instant;

use br_core::{Experiment, Scale};
use br_icache::{CacheConfig, CacheStats};
use br_isa::Machine;

use crate::layers::{self, PAPER_DEPTH};
use crate::calib::Calibrator;
use crate::trace::Tracer;
use crate::{bump, bump_codegen, lower_input, machine_key, Counters};
use crate::{Input, Options, Report};

/// Cache geometries replayed per run: the paper's 2 KiB 2-way 16-byte
/// cache first, then br-explore's same-capacity, capacity and prefetch
/// variations. `(label, sets, assoc, line_words, prefetch)`.
pub const GEOMETRIES: [(&str, usize, usize, usize, bool); 6] = [
    ("paper", 64, 2, 4, true),
    ("direct", 128, 1, 4, true),
    ("4way", 32, 4, 4, true),
    ("4KiB", 64, 2, 8, true),
    ("512B", 16, 2, 4, true),
    ("nopf", 64, 2, 4, false),
];

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Fuel for the reference interpreters.
const REF_FUEL: u64 = 4_000_000_000;

const MACHINES: [Machine; 2] = [Machine::Baseline, Machine::BranchReg];

pub fn geometry(g: &(&str, usize, usize, usize, bool)) -> CacheConfig {
    CacheConfig {
        sets: g.1,
        assoc: g.2,
        line_words: g.3,
        prefetch: g.4,
        ..CacheConfig::for_bregs(8)
    }
}

/// The workload's inputs. The suite is fixed; the seed only rotates the
/// order programs run in.
pub fn inputs(seed: u64) -> Vec<Input> {
    let mut v: Vec<Input> = br_core::suite(Scale::Paper)
        .into_iter()
        .map(|w| Input::MiniC {
            name: w.name.to_string(),
            src: w.source,
        })
        .collect();
    v.extend(
        br_ingest::workloads::all()
            .into_iter()
            .map(|(name, prog)| Input::Rv32 {
                name: name.to_string(),
                prog,
            }),
    );
    let k = (seed % v.len() as u64) as usize;
    v.rotate_left(k);
    v
}

/// One pass over every input. Returns per-op latencies (seconds, one
/// per input × machine) and the pass's counters; failures go to `report`.
fn pass(
    tr: &Tracer,
    cal: &mut Calibrator,
    exp: &Experiment,
    inputs: &[Input],
    refs: &[Result<i32, String>],
    report: &mut Report,
) -> (Vec<f64>, Counters) {
    let geoms: Vec<CacheConfig> = GEOMETRIES.iter().map(geometry).collect();
    let mut lat = Vec::with_capacity(inputs.len() * 2);
    let mut c = Counters::new();
    let root = tr.begin("core.pass", 0);
    for (i, input) in inputs.iter().enumerate() {
        let op = i as u32;
        let module = match lower_input(tr, input, op) {
            Ok(m) => m,
            Err(e) => {
                report.fail(format!("{}: {e}", input.name()));
                continue;
            }
        };
        bump(&mut c, "ir_insts", layers::ir_insts(&module));
        let mut exits = Vec::new();
        for machine in MACHINES {
            let mk = machine_key(machine);
            let t = Instant::now();
            let id = tr.begin("core.op", op);
            let out = layers::run_recorded(tr, exp, &module, machine, op).map(|(run, trace, counts)| {
                let caches: Vec<CacheStats> =
                    geoms.iter().map(|&g| layers::replay(tr, g, &trace, op)).collect();
                let sweep = layers::sweep(tr, machine, &run.meas, op);
                (run, trace.packed_len(), caches, sweep, counts)
            });
            tr.end(id);
            lat.push(t.elapsed().as_secs_f64());
            cal.tick();
            let (run, words, caches, sweep, counts) = match out {
                Ok(o) => o,
                Err(e) => {
                    report.fail(format!("{} on {mk}: {e}", input.name()));
                    continue;
                }
            };
            match &refs[i] {
                Ok(r) if *r == run.exit => {}
                Ok(r) => report.fail(format!(
                    "{} on {mk}: exit {} but the reference gives {r}",
                    input.name(),
                    run.exit
                )),
                Err(e) => report.fail(format!("reference: {e}")),
            }
            exits.push(run.exit);
            bump(&mut c, format!("{mk}.insts"), run.meas.instructions);
            bump(&mut c, format!("{mk}.data_refs"), run.meas.data_refs);
            bump(&mut c, format!("{mk}.static_insts"), run.static_insts as u64);
            bump(&mut c, format!("{mk}.trace_words"), words as u64);
            bump(&mut c, format!("{mk}.paper_cycles"), layers::paper_cycles(machine, &run.meas, &caches[0]));
            bump_codegen(&mut c, mk, &run.stats, counts);
            for (g, cs) in GEOMETRIES.iter().zip(&caches) {
                for (k, v) in cache_fields(cs) {
                    bump(&mut c, format!("{mk}.icache.{}.{k}", g.0), v);
                }
            }
            for (d, est) in sweep {
                bump(&mut c, format!("{mk}.cycles.depth{d}"), est.total);
            }
        }
        if let [a, b] = exits[..] {
            if a != b {
                report.fail(format!("{}: baseline exit {a} but BR exit {b}", input.name()));
            }
        }
    }
    tr.end(root);
    (lat, c)
}

/// Every `CacheStats` field by name.
pub fn cache_fields(s: &CacheStats) -> [(&'static str, u64); 11] {
    [
        ("fetches", s.fetches),
        ("hits", s.hits),
        ("misses", s.misses),
        ("late_prefetch_hits", s.late_prefetch_hits),
        ("prefetch_hits", s.prefetch_hits),
        ("prefetches", s.prefetches),
        ("prefetch_dropped", s.prefetch_dropped),
        ("prefetch_redundant", s.prefetch_redundant),
        ("pollution", s.pollution),
        ("stall_cycles", s.stall_cycles),
        ("cycles", s.cycles),
    ]
}

/// Run the workload.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::new("paper-eval");
    let (setup_s, inputs) = crate::median_time(SETUP_REPS, || inputs(opts.seed));
    // Reference exits: outside set-up and outside every timed phase.
    let refs: Vec<Result<i32, String>> =
        inputs.iter().map(|i| crate::reference_exit(i, REF_FUEL)).collect();
    let exp = Experiment::new();
    let op = format!(
        "one program on one machine (record, {} cache replays, depth sweep)",
        GEOMETRIES.len()
    );
    crate::run_batch(opts, &mut report, setup_s, &op, |tr, cal, rep| pass(tr, cal, &exp, &inputs, &refs, rep));
    crate::simulated_metrics(&mut report);
    report.notes.push(format!("br_cycles_pct at depth {PAPER_DEPTH} with the paper cache's stall cycles"));
    report
}
