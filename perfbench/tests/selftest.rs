//! Self-tests of the benchmark's own machinery: the traced
//! decomposition matches the `Experiment` path byte for byte, the span
//! self-time arithmetic, the tail percentile rule, and `BENCHMARK.json`
//! naming exactly the metrics the runner prints.

use br_core::{Experiment, Scale};
use br_isa::Machine;
use perfbench::layers;
use perfbench::paper_eval::{geometry, GEOMETRIES};
use perfbench::stats::{tail_rank, Latency};
use perfbench::trace::{self_time_by_name, self_times, Span, Tracer};
use perfbench::{compile_fresh, lower_input, span_layer_metrics, Input};

fn small_inputs() -> Vec<Input> {
    let mut v: Vec<Input> = ["sieve", "puzzle", "wc"]
        .iter()
        .map(|n| {
            let w = br_core::by_name(n, Scale::Test).expect("suite program");
            Input::MiniC {
                name: w.name.to_string(),
                src: w.source,
            }
        })
        .collect();
    let (name, prog) = br_ingest::workloads::all().swap_remove(1);
    v.push(Input::Rv32 {
        name: name.to_string(),
        prog,
    });
    v.extend(compile_fresh::inputs(7).into_iter().step_by(25));
    v
}

#[test]
fn traced_decomposition_is_byte_identical_to_experiment() {
    let on = Tracer::new(true);
    let off = Tracer::new(false);
    for exp in [Experiment::new(), compile_fresh::experiment()] {
        for input in small_inputs() {
            let module = lower_input(&off, &input, 0).expect("lowers");
            for machine in [Machine::Baseline, Machine::BranchReg] {
                let (want, want_stats) = exp.compile_module_for(&module, machine).expect("compiles");
                let (got, got_stats, counts) = layers::compile(&on, &exp, &module, machine, 0).expect("compiles");
                let what = format!("{} on {machine:?}", input.name());
                assert_eq!(want.code, got.code, "{what}");
                assert_eq!(format!("{:?}", want.text), format!("{:?}", got.text), "{what}");
                assert_eq!(want.data, got.data, "{what}");
                assert_eq!(want.entry, got.entry, "{what}");
                assert_eq!(want.symbols, got.symbols, "{what}");
                assert_eq!(format!("{:?}", want.blocks), format!("{:?}", got.blocks), "{what}");
                assert_eq!(want_stats, got_stats);
                assert!(counts.is_some_and(|c| c.funcs > 0));

                let (run_u, trace_u, _) = layers::run_recorded(&off, &exp, &module, machine, 0).expect("runs");
                let (run_t, trace_t, _) = layers::run_recorded(&on, &exp, &module, machine, 0).expect("runs");
                assert_eq!(run_u.exit, run_t.exit);
                assert_eq!(run_u.meas, run_t.meas, "{} on {machine:?}", input.name());
                assert_eq!(run_u.static_insts, run_t.static_insts);
                assert_eq!(trace_u.packed_len(), trace_t.packed_len());
                let g = geometry(&GEOMETRIES[0]);
                assert_eq!(br_icache::replay(g, &trace_u), br_icache::replay(g, &trace_t));
            }
        }
    }
    // The verify gates ran as spans of their own under codegen.
    let spans = on.since(0);
    for name in ["verify.gate_ir", "verify.gate_regalloc", "verify.gate_emit", "codegen.emit", "codegen.hoist"] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // root [0,100): a [10,40) with child a1 [15,25); b [30,60) overlaps
    // a by 10; c [90,120) sticks out of root by 20.
    let spans = vec![
        span("core.pass", 0, 100, None),
        span("codegen.isel", 10, 40, Some(0)),
        span("verify.gate_ir", 15, 25, Some(1)),
        span("emu.run", 30, 60, Some(0)),
        span("icache.replay", 90, 120, Some(0)),
    ];
    // Root children cover [10,60) ∪ [90,100) = 60 of 100.
    assert_eq!(self_times(&spans), vec![40, 20, 10, 30, 30]);
    let by = self_time_by_name(&spans);
    assert_eq!(by["codegen.isel"], 20);
    let m = span_layer_metrics(&spans);
    assert_eq!(m["core.unattributed_ms"], 40.0 / 1e6);
    // Layer self time 90 over root wall 100.
    assert!((m["trace.coverage_pct"] - 90.0).abs() < 1e-9);
}

#[test]
fn tracer_nests_spans_and_places_metered_children() {
    let tr = Tracer::new(true);
    let outer = tr.begin("codegen.regalloc", 3);
    tr.span("verify.gate_emit", 3, || std::thread::sleep(std::time::Duration::from_millis(2)));
    tr.end(outer);
    let id = outer.expect("enabled");
    let gate = tr.child_start(id, "verify.gate_emit").expect("gate span");
    let emit = tr.child_ending_at(outer, "codegen.emit", 500, gate).expect("placed");
    let s = tr.get(emit);
    assert_eq!((s.end_ns, s.parent, s.op), (gate, Some(id), 3));
    assert_eq!(s.end_ns - s.start_ns, 500.min(gate - tr.get(id).start_ns));
    assert!(Tracer::new(false).begin("x", 0).is_none());
}

#[test]
fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
    assert_eq!(tail_rank(19), None);
    assert_eq!(tail_rank(20), Some((500, 10)));
    assert_eq!(tail_rank(44), Some((750, 33)));
    assert_eq!(tail_rank(99), Some((750, 75)));
    assert_eq!(tail_rank(100), Some((900, 90)));
    assert_eq!(tail_rank(199), Some((900, 180)));
    assert_eq!(tail_rank(200), Some((950, 190)));
    assert_eq!(tail_rank(1000), Some((990, 990)));
    assert_eq!(tail_rank(9999), Some((990, 9900)));
    assert_eq!(tail_rank(10_000), Some((999, 9990)));

    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    let l = Latency::of(&xs);
    assert_eq!((l.n, l.p50, l.tail, l.tail_label()), (100, 50.5, 90.0, "p90".to_string()));
    // Too few samples for any tail: the median's rank stands in.
    let l = Latency::of(&[3.0, 1.0, 2.0]);
    assert_eq!((l.tail_permille, l.tail), (500, 2.0));
}

#[test]
fn benchmark_json_names_every_printed_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let section = |key: &str| -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section");
        let end = text[start..].find(']').expect("list end") + start;
        let mut out = Vec::new();
        let mut rest = &text[start..end];
        while let Some(i) = rest.find("\"name\": \"") {
            rest = &rest[i + 9..];
            let name = rest[..rest.find('"').unwrap()].to_string();
            let u = rest.find("\"unit\": \"").unwrap() + 9;
            let unit = rest[u..u + rest[u..].find('"').unwrap()].to_string();
            out.push((name, unit));
        }
        out
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(section("end_to_end"), own(&perfbench::END_TO_END));
    assert_eq!(section("per_layer"), own(&perfbench::PER_LAYER));
}
