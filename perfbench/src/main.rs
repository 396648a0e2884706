//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//!            [--serve-bin PATH] [--out-dir DIR]`
//!
//! Runs one workload and prints its report; the last line of standard
//! output is the JSON result. Normally started by `run.py`, which builds
//! the program first.

use std::process::ExitCode;

use perfbench::{compile_fresh, paper_eval, serve_mix, Options};

const WORKLOADS: [&str; 3] = ["paper-eval", "compile-fresh", "serve-mix"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        out_dir: ".bench_build/perfbench".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else { return usage() };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(v);
                true
            }
            "--seed" => v.parse().map(|s| opts.seed = s).is_ok(),
            "--seconds" => v.parse().map(|s| opts.seconds = s).is_ok(),
            "--trace" => match v.as_str() {
                "0" | "1" => {
                    opts.trace = v == "1";
                    true
                }
                _ => false,
            },
            "--serve-bin" => {
                opts.serve_bin = Some(v);
                true
            }
            "--out-dir" => {
                opts.out_dir = v;
                true
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let report = match workload.as_deref() {
        Some("paper-eval") => paper_eval::run(&opts),
        Some("compile-fresh") => compile_fresh::run(&opts),
        Some("serve-mix") => serve_mix::run(&opts),
        _ => return usage(),
    };
    print!("{}", report.render(opts.trace));
    println!("{}", report.json_line(opts.trace));
    ExitCode::SUCCESS
}
