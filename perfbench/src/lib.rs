//! `perfbench` — the repository's benchmark: three workloads timed end
//! to end, and a traced run that times them layer by layer from outside
//! the program. See `WORKLOADS.md` for why each workload exists and
//! which layer metric should move which end-to-end metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub mod calib;
pub mod compile_fresh;
pub mod host;
pub mod layers;
pub mod paper_eval;
pub mod serve_mix;
pub mod stats;
pub mod trace;

/// End-to-end metrics, `(name, unit)`, in print order. Every workload
/// reports all of them; `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("max_rate_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("br_insts_pct", "%"),
    ("br_cycles_pct", "%"),
    ("code_size_insts", "insts"),
];

/// Per-layer metrics of the traced run, `(name, unit)`. A layer that a
/// workload does not cross reports 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("workloads.gen_ms", "ms"),
    ("frontend.lower_ms", "ms"),
    ("frontend.ir_insts", "count"),
    ("ingest.translate_ms", "ms"),
    ("codegen.isel_ms", "ms"),
    ("codegen.regalloc_ms", "ms"),
    ("codegen.hoist_ms", "ms"),
    ("codegen.emit_ms", "ms"),
    ("codegen.finish_ms", "ms"),
    ("codegen.spills", "count"),
    ("codegen.funcs", "count"),
    ("isa.assemble_ms", "ms"),
    ("verify.gate_ir_ms", "ms"),
    ("verify.gate_regalloc_ms", "ms"),
    ("verify.gate_emit_ms", "ms"),
    ("verify.tv_ms", "ms"),
    ("verify.tv_proven_ratio", "ratio"),
    ("verify.lint_ms", "ms"),
    ("verify.lint_findings", "count"),
    ("emu.run_ms", "ms"),
    ("emu.retired_insts", "count"),
    ("emu.minsts_per_s", "Minsts/s"),
    ("emu.trace_words", "count"),
    ("icache.replay_ms", "ms"),
    ("icache.fetches", "count"),
    ("icache.miss_ratio", "ratio"),
    ("icache.prefetch_useful_ratio", "ratio"),
    ("pipeline.sweep_ms", "ms"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_misses", "count"),
    ("serve.overloaded", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.server_est_ms", "ms"),
    ("serve.residual_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `br-serve` binary (serve-mix only).
    pub serve_bin: Option<String>,
    /// Directory for span dumps (created on demand).
    pub out_dir: String,
}

/// One benchmark input program.
#[derive(Debug, Clone)]
pub enum Input {
    MiniC { name: String, src: String },
    Rv32 { name: String, prog: br_ingest::Rv32Program },
}

impl Input {
    pub fn name(&self) -> &str {
        match self {
            Input::MiniC { name, .. } | Input::Rv32 { name, .. } => name,
        }
    }
}

/// The reference exit value from an oracle independent of the code
/// generator: the IR interpreter for MiniC, the RV32 reference
/// interpreter for RV32 images.
pub fn reference_exit(input: &Input, fuel: u64) -> Result<i32, String> {
    match input {
        Input::MiniC { name, src } => {
            let module = br_frontend::compile(src).map_err(|e| format!("{name}: {e}"))?;
            br_ir::interp::Interpreter::new(&module)
                .with_fuel(fuel)
                .run("main", &[])
                .map_err(|e| format!("{name}: IR interpreter: {e}"))
        }
        Input::Rv32 { name, prog } => br_ingest::interp::run(prog, fuel)
            .map(|o| o.exit)
            .map_err(|e| format!("{name}: {e}")),
    }
}

/// Lower an input to IR through the frontend or the RV32 translator.
pub fn lower_input(
    tr: &trace::Tracer,
    input: &Input,
    op: u32,
) -> Result<br_ir::Module, br_core::Error> {
    match input {
        Input::MiniC { src, .. } => layers::lower(tr, src, op),
        Input::Rv32 { prog, .. } => layers::ingest(tr, prog, op),
    }
}

/// Median over `k` runs of `f`'s wall time, in seconds, each scaled to
/// the reference host speed by the calibration slices around it (see
/// [`calib`]), and the last result.
pub fn median_time<T>(k: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut cal = calib::Calibrator::new(true);
    let mut times = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k.max(1) {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
        cal.tick();
    }
    (stats::median(&cal.scale(&times)), last.expect("at least one run"))
}

/// Deterministic simulated counters of one repetition. Every key must
/// read the same in every repetition of a run.
pub type Counters = BTreeMap<String, u64>;

/// Add `v` to counter `key`.
pub fn bump(c: &mut Counters, key: impl Into<String>, v: u64) {
    *c.entry(key.into()).or_insert(0) += v;
}

/// Counter-key prefix of a machine.
pub fn machine_key(m: br_isa::Machine) -> &'static str {
    match m {
        br_isa::Machine::Baseline => "baseline",
        br_isa::Machine::BranchReg => "brmach",
    }
}

/// Add a program's codegen statistics (and, from the traced compile,
/// its allocator counters) to `c` under `<machine>.codegen.*`.
pub fn bump_codegen(
    c: &mut Counters,
    mk: &str,
    s: &br_core::CodegenStats,
    counts: Option<layers::CompileCounts>,
) {
    for (k, v) in [
        ("slots_filled", s.slots_filled),
        ("slots_noop", s.slots_noop),
        ("carriers_useful", s.carriers_useful),
        ("carriers_replaced_by_calc", s.carriers_replaced_by_calc),
        ("carriers_noop", s.carriers_noop),
        ("hoisted_calcs", s.hoisted_calcs),
    ] {
        bump(c, format!("{mk}.codegen.{k}"), u64::from(v));
    }
    if let Some(n) = counts {
        bump(c, format!("{mk}.codegen.spills"), u64::from(n.spills));
        bump(c, format!("{mk}.codegen.funcs"), n.funcs as u64);
    }
}

/// Per-layer counts and ratios of one traced pass, from its counters
/// and its `emu.run_ms` (keys a workload lacks read as 0).
pub fn counter_layer_metrics(m: &mut BTreeMap<String, f64>, c: &Counters) {
    let sum = |suffix: &str| -> f64 {
        c.iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .fold(0.0, |acc, (_, &v)| acc + v as f64)
    };
    let insts = sum(".insts");
    let emu_ms = m.get("emu.run_ms").copied().unwrap_or(0.0);
    let fetches = sum(".icache.paper.fetches");
    let tv = sum("tv.proven") + sum("tv.unproven") + sum("tv.refuted");
    m.extend([
        ("frontend.ir_insts".to_string(), sum("ir_insts")),
        ("codegen.spills".to_string(), sum(".codegen.spills")),
        ("codegen.funcs".to_string(), sum(".codegen.funcs")),
        ("emu.retired_insts".to_string(), insts),
        ("emu.minsts_per_s".to_string(), insts / 1e6 / (emu_ms / 1e3).max(1e-9)),
        ("emu.trace_words".to_string(), sum(".trace_words")),
        ("icache.fetches".to_string(), fetches),
        ("icache.miss_ratio".to_string(), sum(".icache.paper.misses") / fetches.max(1.0)),
        (
            "icache.prefetch_useful_ratio".to_string(),
            sum(".icache.paper.prefetch_hits") / sum(".icache.paper.prefetches").max(1.0),
        ),
        ("verify.lint_findings".to_string(), sum(".lint_findings")),
        ("verify.tv_proven_ratio".to_string(), sum("tv.proven") / tv.max(1.0)),
    ]);
}

/// The simulated end-to-end metrics from a report's counters:
/// `<machine>.insts`, `.paper_cycles` and `.static_insts`.
pub fn simulated_metrics(report: &mut Report) {
    let get = |k: &str| report.counters.get(k).copied().unwrap_or(0) as f64;
    let ratio = |k: &str| 100.0 * get(&format!("brmach.{k}")) / get(&format!("baseline.{k}")).max(1.0);
    let m = [
        ("br_insts_pct", ratio("insts")),
        ("br_cycles_pct", ratio("paper_cycles")),
        ("code_size_insts", get("baseline.static_insts") + get("brmach.static_insts")),
    ];
    report.end_to_end.extend(m);
}

/// Time a batch workload: passes over the same inputs until the time
/// budget is spent (at least three untraced). Each pass returns its
/// per-op latencies in seconds and its counters, and calls
/// [`calib::Calibrator::tick`] after each op. Untraced passes give the
/// timing end-to-end metrics, scaled to the reference host speed; with
/// `opts.trace`, traced passes alternate with untraced ones, so the
/// tracing overhead is measured under the same conditions, and give the
/// per-layer metrics (unscaled, with no slices inside their spans).
pub fn run_batch(
    opts: &Options,
    report: &mut Report,
    setup_s: f64,
    op: &str,
    mut pass: impl FnMut(&trace::Tracer, &mut calib::Calibrator, &mut Report) -> (Vec<f64>, Counters),
) {
    let tracer = trace::Tracer::new(true);
    let off = trace::Tracer::new(false);
    let budget = Duration::from_secs_f64(opts.seconds);
    let min_passes = if opts.trace { 4 } else { 3 };
    let (mut raw_walls, mut walls, mut factors, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut op_lat: Vec<Vec<f64>> = Vec::new();
    let (mut reps, mut traced_reps) = (Vec::new(), Vec::new());
    let mut layer_maps = Vec::new();
    let mut slices = 0;
    let start = Instant::now();
    let mut k = 0;
    while k < min_passes || start.elapsed() < budget {
        let traced = opts.trace && k % 2 == 1;
        let tr = if traced { &tracer } else { &off };
        let mark = tr.len();
        let mut cal = calib::Calibrator::new(!traced);
        let spent = cal.spent_s();
        let t = Instant::now();
        let (lat, c) = pass(tr, &mut cal, report);
        let wall = t.elapsed().as_secs_f64() - (cal.spent_s() - spent);
        report.attempted += lat.len() as u64;
        if traced {
            traced_walls.push(wall);
            let mut m = span_layer_metrics(&tracer.since(mark));
            counter_layer_metrics(&mut m, &c);
            layer_maps.push(m);
            traced_reps.push(c);
        } else {
            // The pass's factor is its ops' scaled total over their raw total.
            let scaled = cal.scale(&lat);
            let f = scaled.iter().sum::<f64>() / lat.iter().sum::<f64>().max(1e-12);
            slices += cal.slices();
            raw_walls.push(wall);
            walls.push(wall * f);
            factors.push(f);
            op_lat.push(scaled);
            reps.push(c);
        }
        k += 1;
    }
    let all: Vec<Counters> = reps.iter().chain(&traced_reps).cloned().collect();
    report.check_counters(&all);
    report.check_counters(&traced_reps);

    // Each op's latency is its median over the untraced passes.
    let per_op: Vec<f64> = (0..op_lat[0].len())
        .map(|j| stats::median(&op_lat.iter().map(|l| l[j]).collect::<Vec<_>>()) * 1e3)
        .collect();
    let lat = stats::Latency::of(&per_op);
    let run_s = stats::median(&walls);
    report.end_to_end.extend([
        ("setup_s", setup_s),
        ("run_s", run_s),
        ("op_p50_ms", lat.p50),
        ("op_tail_ms", lat.tail),
        ("max_rate_rps", per_op.len() as f64 / run_s),
        ("peak_rss_mb", host::peak_rss_mb("self").unwrap_or(0.0)),
    ]);
    let fmt = |v: &[f64]| v.iter().map(|w| format!("{w:.3}")).collect::<Vec<_>>().join(" ");
    report.notes.push(format!(
        "op = {op}; {} ops, each the median of {} passes; op_tail_ms is {} with {} samples",
        lat.n,
        op_lat.len(),
        lat.tail_label(),
        lat.n
    ));
    report.notes.push(format!(
        "times are scaled to the reference host speed ({} calibration slices, nominal {} ms each): \
         pass walls {} s raw, factors {}, scaled {} s",
        slices,
        calib::NOMINAL_SLICE_S * 1e3,
        fmt(&raw_walls),
        fmt(&factors),
        fmt(&walls)
    ));
    if opts.trace {
        let mut m = median_maps(&layer_maps);
        let traced = stats::median(&traced_walls);
        let raw = stats::median(&raw_walls);
        m.insert("trace.overhead_pct".into(), 100.0 * (traced - raw) / raw);
        m.insert("workloads.gen_ms".into(), setup_s * 1e3);
        report.per_layer = m;
        write_spans(opts, report.workload, &tracer);
    }
}

/// Per-layer numbers of one traced repetition, from its spans: each
/// span name's self time in ms (as `<name>_ms`), the `core.*` glue as
/// `core.unattributed_ms`, and the share of the traced wall time the
/// layer spans account for as `trace.coverage_pct`.
pub fn span_layer_metrics(spans: &[trace::Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut core_ns = 0u64;
    let mut layer_ns = 0u64;
    for (name, ns) in trace::self_time_by_name(spans) {
        if name.starts_with("core.") {
            core_ns += ns;
        } else {
            layer_ns += ns;
            *out.entry(format!("{name}_ms")).or_insert(0.0) += ns as f64 / 1e6;
        }
    }
    out.insert("core.unattributed_ms".into(), core_ns as f64 / 1e6);
    let wall = trace::root_wall_ns(spans).max(1) as f64;
    out.insert("trace.coverage_pct".into(), 100.0 * layer_ns as f64 / wall);
    out
}

/// Per-key median over several repetitions' metric maps.
pub fn median_maps(maps: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut keys: Vec<&String> = maps.iter().flat_map(|m| m.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let vals: Vec<f64> = maps.iter().map(|m| m.get(k).copied().unwrap_or(0.0)).collect();
            (k.clone(), stats::median(&vals))
        })
        .collect()
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<String, f64>,
    pub counters: Counters,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            ..Report::default()
        }
    }

    /// Record a failed op.
    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Add a note unless the same note is already there.
    pub fn note_once(&mut self, note: String) {
        if !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Check `reps` counter maps agree: each repetition against the
    /// first, on the keys both carry. A mismatch fails the run.
    pub fn check_counters(&mut self, reps: &[Counters]) {
        let Some(first) = reps.first() else { return };
        for (i, c) in reps.iter().enumerate().skip(1) {
            for (k, v) in c {
                if let Some(v0) = first.get(k) {
                    if v0 != v {
                        self.fail(format!("counter {k} differs between reps: {v0} vs {v} (rep {i})"));
                    }
                }
            }
        }
        for c in reps {
            for (k, v) in c {
                self.counters.entry(k.clone()).or_insert(*v);
            }
        }
    }

    /// `(name, value, unit)` of the per-layer (traced) or end-to-end
    /// metrics, in declaration order; a metric not measured reads 0.
    fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, self.per_layer.get(n).copied().unwrap_or(0.0), u))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n, self.end_to_end.get(n).copied().unwrap_or(0.0), u))
                .collect()
        }
    }

    /// The human-readable report: metrics by name with units, the error
    /// rate, the deterministic counters and notes.
    pub fn render(&self, trace: bool) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "workload {}", self.workload);
        let _ = writeln!(s, "{}", if trace { "per-layer (traced run):" } else { "end-to-end:" });
        for (name, v, unit) in self.metrics(trace) {
            let _ = writeln!(s, "  {name:<30} {v:>14.4} {unit}");
        }
        let rate = self.failed() as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            s,
            "  {:<30} {rate:>14.4} ratio ({} failed / {} attempted)",
            "error_rate",
            self.failed(),
            self.attempted
        );
        for f in self.failures.iter().take(10) {
            let _ = writeln!(s, "  FAILED: {f}");
        }
        let _ = writeln!(s, "deterministic counters (identical in every rep):");
        for (k, v) in &self.counters {
            let _ = writeln!(s, "  {k} = {v}");
        }
        for n in &self.notes {
            let _ = writeln!(s, "note: {n}");
        }
        s
    }

    /// The last line of output: `correct`, `attempted`, `failed` and the
    /// end-to-end (untraced) or per-layer (traced) metrics.
    pub fn json_line(&self, trace: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed()
        );
        for (i, (name, value, unit)) in self.metrics(trace).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// Write a tracer's spans to `<out_dir>/spans-<workload>-<seed>.tsv`.
pub fn write_spans(opts: &Options, workload: &str, tr: &trace::Tracer) {
    let dir = std::path::Path::new(&opts.out_dir);
    let path = dir.join(format!("spans-{workload}-{}.tsv", opts.seed));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tr.write_tsv(&mut f)
    });
    match written {
        Ok(()) => eprintln!("perfbench: {} spans written to {}", tr.len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
