//! `serve-mix`: the real `br-serve` daemon under an open-loop load.
//!
//! The daemon starts as `scripts/ci.sh` starts it (ephemeral port, port
//! file, `ServeConfig` defaults). One generator process with
//! [`CONNECTIONS`] connections sends on a fixed schedule: mostly
//! repeated Test-scale suite programs, which hit the artifact cache
//! (lower, then emulate), plus a seeded share of fresh generated
//! programs, which miss (lower, compile, emulate). Each request is timed
//! from when it was due, so a stall also charges the requests queued
//! behind it, and the generator reports how late it sent.

use std::collections::HashMap;
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use br_core::{Experiment, Scale};
use br_emu::Measurements;
use br_isa::{Machine, Program};
use br_serve::proto::{MachineReply, Request, Response, RunSpec, ServerStats, Target};
use br_serve::wire::{read_frame, write_frame};
use br_serve::{Client, ServeConfig};
use br_workloads::rng::Rng64;

use crate::{compile_fresh, layers};
use crate::trace::{Span, Tracer};
use crate::{bump, machine_key, stats, Counters, Input, Options, Report};

/// Connections the generator holds open (the host has two cores).
pub const CONNECTIONS: usize = 2;

/// Nominal open-loop rate: about half the capacity measured for this
/// mix on a 2-core host when the benchmark was written.
pub const NOMINAL_RPS: f64 = 11.0;

/// Share of `--seconds` the nominal phase's schedule lasts. At 20 s it
/// sends 187 requests, so `op_tail_ms` is p90 with 18 samples beyond it.
pub const NOMINAL_SHARE: f64 = 0.85;

/// One request slot in this many carries a fresh (never-seen) program;
/// the seed picks which slots.
pub const FRESH_ONE_IN: usize = 5;

/// Size class of the fresh programs (see `compile_fresh::SIZES`): one
/// class, so a miss costs about the same from seed to seed.
const FRESH_SIZE_CLASS: usize = 1;

/// Latency limit on `op_tail_ms`. A nominal-rate request slower than
/// this counts as failed; a ladder step meets the limit when its tail
/// does.
pub const LIMIT_MS: f64 = 250.0;

/// Requests per ladder step.
pub const STEP_REQUESTS: usize = 60;

/// The fixed rate ladder: 5 req/s rising 3% per step to about 52.
pub fn ladder() -> Vec<f64> {
    (0..80).map(|k| 5.0 * 1.03f64.powi(k)).collect()
}

const SETUP_REPS: usize = 3;
const REF_FUEL: u64 = 2_000_000_000;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The inputs: the repeat set (the Test-scale suite) followed by
/// `fresh` generated programs.
pub fn inputs(seed: u64, fresh: usize) -> Vec<Input> {
    let mut v: Vec<Input> = br_core::suite(Scale::Test)
        .into_iter()
        .map(|w| Input::MiniC {
            name: w.name.to_string(),
            src: w.source,
        })
        .collect();
    v.extend((0..fresh).map(|i| compile_fresh::sized_minic(seed ^ 0x5345_5256, i as u64, FRESH_SIZE_CLASS)));
    v
}

fn repeat_count() -> usize {
    br_core::suite(Scale::Test).len()
}

fn src_of(input: &Input) -> &str {
    match input {
        Input::MiniC { src, .. } => src,
        Input::Rv32 { .. } => unreachable!("serve-mix sends MiniC only"),
    }
}

fn run_request(input: &Input) -> Request {
    Request::Run(RunSpec {
        name: input.name().to_string(),
        src: src_of(input).to_string(),
        target: Target::Both,
        fuel: 0,
        compile_budget_ms: 0,
        no_cache: false,
    })
}

/// Hands out fresh-program indices in order, so no fresh program is
/// sent twice.
struct Mix {
    rng: Rng64,
    repeats: usize,
    next_fresh: usize,
    fresh_end: usize,
}

impl Mix {
    fn schedule(&mut self, n: usize) -> Vec<usize> {
        let mut slots: Vec<usize> = (0..n)
            .map(|_| self.rng.random_range(0..self.repeats))
            .collect();
        // Exactly n / FRESH_ONE_IN fresh slots, at seeded positions.
        let mut order: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let j = self.rng.random_range(i..n);
            order.swap(i, j);
        }
        let mut fresh: Vec<usize> = order[..n / FRESH_ONE_IN].to_vec();
        fresh.sort_unstable();
        for pos in fresh {
            if self.next_fresh < self.fresh_end {
                slots[pos] = self.next_fresh;
                self.next_fresh += 1;
            }
        }
        slots
    }
}

/// The daemon process; killed and reaped on drop if still running.
struct Daemon {
    child: Option<Child>,
    pid: u32,
    addr: String,
}

impl Daemon {
    fn start(bin: &str, out_dir: &str, tag: &str) -> Result<Daemon, String> {
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
        let port_file = format!("{out_dir}/serve-{}-{tag}.port", std::process::id());
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--port-file", &port_file])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let pid = child.id();
        let mut d = Daemon {
            child: Some(child),
            pid,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(a) = std::fs::read_to_string(&port_file) {
                d.addr = a.trim().to_string();
                let _ = std::fs::remove_file(&port_file);
                return Ok(d);
            }
            if let Some(Ok(Some(st))) = d.child.as_mut().map(Child::try_wait) {
                return Err(format!("br-serve exited before listening: {st}"));
            }
            if Instant::now() > deadline {
                return Err("br-serve never wrote its port file".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr, IO_TIMEOUT).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    fn stats(&self) -> Result<ServerStats, String> {
        match self.connect()?.request(&Request::Stats) {
            Ok(Response::Stats(s)) => Ok(s),
            other => Err(format!("stats request: {other:?}")),
        }
    }

    /// Graceful drain over the wire, then wait for exit.
    fn shutdown(mut self) {
        if let Ok(mut c) = self.connect() {
            let _ = c.request(&Request::Shutdown);
        }
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(10);
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One request's outcome.
#[derive(Debug, Clone)]
struct Sample {
    input: usize,
    /// Send time minus due time.
    lag_ms: f64,
    /// Completion time minus due time.
    latency_ms: f64,
    /// Completion time minus send time.
    rtt_ms: f64,
    reply: Result<Vec<MachineReply>, String>,
}

fn classify(resp: Result<Response, String>) -> Result<Vec<MachineReply>, String> {
    match resp? {
        Response::RunOk(r) => Ok(r),
        Response::Error { kind, message } => Err(format!("{kind:?}: {message}")),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// One open-loop phase: its requests in schedule order, the traced
/// spans (one list per connection) and the wall time from the first due
/// time to the last reply.
struct Phase {
    samples: Vec<Sample>,
    spans: Vec<Vec<Span>>,
    wall_s: f64,
}

/// Send `schedule` open loop at `rate` over [`CONNECTIONS`]
/// connections. With `traced`, each request's encode, round trip and
/// decode are spans, timed from `epoch`.
fn drive(
    d: &Daemon,
    reqs: &[Request],
    schedule: &[usize],
    rate: f64,
    traced: bool,
    epoch: Instant,
) -> Result<Phase, String> {
    // Untraced requests go through the client library as a user sends
    // them; traced ones through the codec calls one by one.
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        conns.push(if traced {
            let s = TcpStream::connect(&d.addr).map_err(|e| format!("connect {}: {e}", d.addr))?;
            s.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
            s.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
            Conn::Raw(s)
        } else {
            Conn::Client(d.connect()?)
        });
    }
    let next = AtomicUsize::new(0);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now() + Duration::from_millis(5);
    let per_thread = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let next = &next;
                scope.spawn(move || {
                    let tr = Tracer::with_epoch(traced, epoch);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= schedule.len() {
                            break;
                        }
                        let due = t0 + interval * i as u32;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let req = &reqs[schedule[i]];
                        let resp = match &mut conn {
                            Conn::Client(c) => c.request(req).map_err(|e| e.to_string()),
                            Conn::Raw(stream) => traced_request(&tr, stream, req, i as u32),
                        };
                        let done = Instant::now();
                        out.push((
                            i,
                            Sample {
                                input: schedule[i],
                                lag_ms: ms(sent.saturating_duration_since(due)),
                                latency_ms: ms(done.saturating_duration_since(due)),
                                rtt_ms: ms(done - sent),
                                reply: classify(resp),
                            },
                        ));
                    }
                    (out, tr.since(0))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread")).collect::<Vec<_>>()
    });
    let wall_s = Instant::now().saturating_duration_since(t0).as_secs_f64();
    let mut samples: Vec<(usize, Sample)> = Vec::with_capacity(schedule.len());
    let mut spans = Vec::new();
    for (s, sp) in per_thread {
        samples.extend(s);
        spans.push(sp);
    }
    samples.sort_by_key(|(i, _)| *i);
    Ok(Phase {
        samples: samples.into_iter().map(|(_, s)| s).collect(),
        spans,
        wall_s,
    })
}

enum Conn {
    Client(Client),
    Raw(TcpStream),
}

/// One request through the client-side codec with a span per call.
fn traced_request(tr: &Tracer, stream: &mut TcpStream, req: &Request, op: u32) -> Result<Response, String> {
    tr.span("core.request", op, || {
        let bytes = tr.span("serve.encode", op, || req.encode());
        let payload = tr.span("serve.roundtrip", op, || {
            write_frame(stream, &bytes)?;
            read_frame(stream)
        });
        let payload = payload
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "server closed the connection".to_string())?;
        tr.span("serve.decode", op, || Response::decode(&payload)).map_err(|e| e.to_string())
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What a program's reply must equal every time it is served.
#[derive(Debug, Clone, PartialEq)]
struct Seen {
    exits: Vec<i32>,
    meas: Vec<Measurements>,
    static_insts: Vec<u32>,
}

/// Check a reply against the reference exit, machine agreement and the
/// program's earlier replies.
fn check(
    s: &Sample,
    inputs: &[Input],
    refs: &[Result<i32, String>],
    seen: &mut HashMap<usize, Seen>,
) -> Result<(), String> {
    let name = inputs[s.input].name();
    let replies = s.reply.as_ref().map_err(|e| format!("{name}: {e}"))?;
    let want = refs[s.input].as_ref().map_err(|e| format!("reference: {e}"))?;
    if replies.len() != 2 {
        return Err(format!("{name}: {} machine replies", replies.len()));
    }
    for r in replies {
        if r.exit != *want {
            return Err(format!("{name} on {:?}: exit {} but the reference gives {want}", r.target, r.exit));
        }
    }
    let now = Seen {
        exits: replies.iter().map(|r| r.exit).collect(),
        meas: replies.iter().map(|r| r.meas.clone()).collect(),
        static_insts: replies.iter().map(|r| r.static_insts).collect(),
    };
    match seen.get(&s.input) {
        Some(prev) if *prev != now => Err(format!("{name}: reply differs from an earlier reply")),
        Some(_) => Ok(()),
        None => {
            seen.insert(s.input, now);
            Ok(())
        }
    }
}

/// A ladder step meets the limit: no failed request, the tail within
/// [`LIMIT_MS`], and the send lag not growing across the step.
fn step_meets(samples: &[Sample]) -> bool {
    if samples.iter().any(|s| s.reply.is_err()) {
        return false;
    }
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let q = samples.len() / 4;
    let lag = |xs: &[Sample]| stats::median(&xs.iter().map(|s| s.lag_ms).collect::<Vec<_>>());
    let growing = lag(&samples[samples.len() - q..]) > lag(&samples[..q]) + LIMIT_MS / 2.0;
    stats::Latency::of(&lat).tail <= LIMIT_MS && !growing
}

/// Local, untimed compile of a program for both machines with the
/// daemon's defaults.
fn server_experiment() -> (Experiment, u64) {
    let cfg = ServeConfig::default();
    let exp = Experiment {
        verify: cfg.verify,
        tier: cfg.tier,
        ..Experiment::new()
    };
    (exp, cfg.default_fuel.min(cfg.max_fuel))
}

/// Run the workload.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::new("serve-mix");
    match run_inner(opts, &mut report) {
        Ok(()) => {}
        Err(e) => report.fail(e),
    }
    report
}

fn run_inner(opts: &Options, report: &mut Report) -> Result<(), String> {
    let bin = opts.serve_bin.clone().ok_or("serve-mix needs --serve-bin")?;
    let nominal = (NOMINAL_RPS * opts.seconds * NOMINAL_SHARE).round().max(1.0) as usize;
    let rungs = ladder();
    let probes = usize::BITS as usize - rungs.len().leading_zeros() as usize + 1;
    let phase2 = if opts.trace { nominal } else { probes * STEP_REQUESTS };
    let fresh = (nominal + phase2) / FRESH_ONE_IN + 1;

    // References first: outside set-up and every timed phase.
    let refs: Vec<Result<i32, String>> = inputs(opts.seed, fresh)
        .iter()
        .map(|i| crate::reference_exit(i, REF_FUEL))
        .collect();

    // Set-up: generate inputs, start the daemon, warm the cache with
    // the repeat set. Timed several times; the last daemon is kept.
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut kept = None;
    let mut warm = Vec::new();
    for r in 0..SETUP_REPS {
        let t = Instant::now();
        let ins = inputs(opts.seed, fresh);
        gens.push(t.elapsed().as_secs_f64() * 1e3);
        let d = Daemon::start(&bin, &opts.out_dir, &r.to_string())?;
        let mut c = d.connect()?;
        warm.clear();
        for (i, input) in ins.iter().enumerate().take(repeat_count()) {
            let resp = c.request(&run_request(input)).map_err(|e| e.to_string());
            warm.push(Sample {
                input: i,
                lag_ms: 0.0,
                latency_ms: 0.0,
                rtt_ms: 0.0,
                reply: classify(resp),
            });
        }
        drop(c);
        setups.push(t.elapsed().as_secs_f64());
        if r + 1 < SETUP_REPS {
            d.shutdown();
        } else {
            kept = Some((d, ins));
        }
    }
    let (daemon, ins) = kept.expect("at least one set-up");
    let reqs: Vec<Request> = ins.iter().map(run_request).collect();
    let mut seen = HashMap::new();
    for s in &warm {
        if let Err(e) = check(s, &ins, &refs, &mut seen) {
            report.fail(format!("warm-up: {e}"));
        }
    }

    let mut mix = Mix {
        rng: Rng64::seed_from_u64(opts.seed),
        repeats: repeat_count(),
        next_fresh: repeat_count(),
        fresh_end: ins.len(),
    };
    let epoch = Instant::now();

    // Nominal phase.
    let schedule = mix.schedule(nominal);
    let before = daemon.stats()?;
    let Phase { samples, wall_s, .. } = drive(&daemon, &reqs, &schedule, NOMINAL_RPS, false, epoch)?;
    let after = daemon.stats()?;
    report.attempted += samples.len() as u64;
    for s in &samples {
        if let Err(e) = check(s, &ins, &refs, &mut seen) {
            report.fail(e);
        } else if s.latency_ms > LIMIT_MS {
            report.fail(format!("{}: {:.1} ms over the {LIMIT_MS} ms limit", ins[s.input].name(), s.latency_ms));
        }
    }
    let lat = stats::Latency::of(&samples.iter().map(|s| s.latency_ms).collect::<Vec<_>>());
    let lags: Vec<f64> = samples.iter().map(|s| s.lag_ms).collect();
    report.notes.push(format!(
        "nominal phase: {} requests open loop at {NOMINAL_RPS} req/s over {CONNECTIONS} connections; op_tail_ms is {} with {} samples; generator lag p50 {:.3} ms, max {:.3} ms; cache hits {} misses {} overloaded {}",
        samples.len(),
        lat.tail_label(),
        lat.n,
        stats::median(&lags),
        lags.iter().cloned().fold(0.0, f64::max),
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
        after.overloaded - before.overloaded,
    ));

    let mut max_rate = 0.0;
    if opts.trace {
        traced_phase(opts, report, &daemon, &reqs, &ins, &refs, &mut seen, &mut mix, nominal, epoch, lat.p50)?;
        report.per_layer.insert("workloads.gen_ms".into(), stats::median(&gens));
    } else {
        // Ladder: binary search for the highest rung that meets the limit.
        let (mut lo, mut hi) = (-1i64, rungs.len() as i64);
        let mut steps = Vec::new();
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let rate = rungs[mid as usize];
            let sched = mix.schedule(STEP_REQUESTS);
            let s = drive(&daemon, &reqs, &sched, rate, false, epoch)?.samples;
            report.attempted += s.len() as u64;
            for x in &s {
                if let Err(e) = check(x, &ins, &refs, &mut seen) {
                    report.fail(e);
                }
            }
            let ok = step_meets(&s);
            let step_lat = stats::Latency::of(&s.iter().map(|x| x.latency_ms).collect::<Vec<_>>());
            steps.push(format!("{rate:.1}:{}:{:.1}ms", if ok { "ok" } else { "over" }, step_lat.tail));
            if ok {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        if lo >= 0 {
            max_rate = rungs[lo as usize];
        }
        report.notes.push(format!("rate ladder probes (rate:verdict:tail): {}", steps.join(" ")));
    }

    let rss = crate::host::peak_rss_mb(&daemon.pid.to_string()).unwrap_or(0.0);
    daemon.shutdown();

    // Simulated statistics over the repeat set, the programs served most
    // (fresh programs vary with the seed and are checked above), each
    // checked against an untimed local compile with the daemon's defaults.
    let (exp, fuel) = server_experiment();
    let mut c = Counters::new();
    for (i, input) in ins.iter().enumerate().take(repeat_count()) {
        let Some(seen_i) = seen.get(&i) else { continue };
        let module = br_frontend::compile(src_of(input)).map_err(|e| e.to_string())?;
        for (k, machine) in [Machine::Baseline, Machine::BranchReg].into_iter().enumerate() {
            let mk = machine_key(machine);
            let (prog, _) = exp.compile_module_for(&module, machine).map_err(|e| e.to_string())?;
            let meas = layers::paper_replay(&mut c, &prog, fuel, exp.tier)?;
            if meas != seen_i.meas[k] || prog.static_inst_count() as u32 != seen_i.static_insts[k] {
                report.fail(format!("{} on {mk}: served result differs from a local compile", input.name()));
            }
            bump(&mut c, format!("{mk}.insts"), meas.instructions);
            bump(&mut c, format!("{mk}.static_insts"), u64::from(seen_i.static_insts[k]));
        }
    }
    report.counters.extend(c);
    crate::simulated_metrics(report);
    let e2e = [
        ("setup_s", stats::median(&setups)),
        ("run_s", wall_s),
        ("op_p50_ms", lat.p50),
        ("op_tail_ms", lat.tail),
        ("max_rate_rps", max_rate),
        ("peak_rss_mb", rss),
    ];
    report.end_to_end.extend(e2e);
    Ok(())
}

/// The traced run's second phase: the same schedule shape sent with a
/// span around each client-side call, then an outside estimate of the
/// server's work — the same lower and emulate (and, for misses,
/// compile) calls timed in the runner on the same inputs.
#[allow(clippy::too_many_arguments)]
fn traced_phase(
    opts: &Options,
    report: &mut Report,
    daemon: &Daemon,
    reqs: &[Request],
    ins: &[Input],
    refs: &[Result<i32, String>],
    seen: &mut HashMap<usize, Seen>,
    mix: &mut Mix,
    n: usize,
    epoch: Instant,
    untraced_p50: f64,
) -> Result<(), String> {
    let schedule = mix.schedule(n);
    let before = daemon.stats()?;
    let Phase { samples, spans, .. } = drive(daemon, reqs, &schedule, NOMINAL_RPS, true, epoch)?;
    let after = daemon.stats()?;
    report.attempted += samples.len() as u64;
    for s in &samples {
        if let Err(e) = check(s, ins, refs, seen) {
            report.fail(e);
        }
    }
    let tracer = Tracer::with_epoch(true, epoch);
    for sp in spans {
        tracer.absorb(sp);
    }

    // Outside estimate of the server's work per request. The repeat set
    // is compiled beforehand, as the daemon's warm cache holds it.
    let (exp, fuel) = server_experiment();
    let off = Tracer::new(false);
    let mut cached: HashMap<usize, [Program; 2]> = HashMap::new();
    for (i, input) in ins.iter().enumerate().take(repeat_count()) {
        let module = br_frontend::compile(src_of(input)).map_err(|e| e.to_string())?;
        let b = layers::compile(&off, &exp, &module, Machine::Baseline, 0).map_err(|e| e.to_string())?;
        let r = layers::compile(&off, &exp, &module, Machine::BranchReg, 0).map_err(|e| e.to_string())?;
        cached.insert(i, [b.0, r.0]);
    }
    let mut est = Vec::with_capacity(samples.len());
    let mut c = Counters::new();
    for (j, s) in samples.iter().enumerate() {
        let op = j as u32;
        let t = Instant::now();
        let id = tracer.begin("core.estimate", op);
        let r = (|| -> Result<(), br_core::Error> {
            let module = layers::lower(&tracer, src_of(&ins[s.input]), op)?;
            bump(&mut c, "ir_insts", layers::ir_insts(&module));
            let progs: Vec<Program> = match cached.get(&s.input) {
                Some(p) => p.to_vec(),
                None => {
                    let mut v = Vec::new();
                    for m in [Machine::Baseline, Machine::BranchReg] {
                        let (p, stats, counts) = layers::compile(&tracer, &exp, &module, m, op)?;
                        crate::bump_codegen(&mut c, machine_key(m), &stats, counts);
                        v.push(p);
                    }
                    v
                }
            };
            for p in &progs {
                let (_, meas) = layers::run(&tracer, &exp, p, fuel, op)?;
                bump(&mut c, format!("{}.insts", machine_key(p.machine)), meas.instructions);
            }
            Ok(())
        })();
        tracer.end(id);
        est.push(ms(t.elapsed()));
        if let Err(e) = r {
            report.fail(format!("estimate for {}: {e}", ins[s.input].name()));
        }
    }
    let all = tracer.since(0);
    let mut m = crate::span_layer_metrics(&all);
    crate::counter_layer_metrics(&mut m, &c);
    let per = |name: &str| -> Vec<f64> {
        all.iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    };
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let residual: Vec<f64> = samples.iter().zip(&est).map(|(s, e)| s.rtt_ms - e).collect();
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    let traced_p50 = stats::median(&lat);
    m.extend([
        ("serve.encode_us".to_string(), stats::median(&per("serve.encode"))),
        ("serve.decode_us".to_string(), stats::median(&per("serve.decode"))),
        ("serve.cache_hit_ratio".to_string(), hits / (hits + misses).max(1.0)),
        ("serve.cache_misses".to_string(), misses),
        ("serve.overloaded".to_string(), (after.overloaded - before.overloaded) as f64),
        ("serve.gen_lag_ms".to_string(), stats::median(&samples.iter().map(|s| s.lag_ms).collect::<Vec<_>>())),
        ("serve.server_est_ms".to_string(), stats::median(&est)),
        ("serve.residual_ms".to_string(), stats::median(&residual)),
        ("trace.overhead_pct".to_string(), 100.0 * (traced_p50 - untraced_p50) / untraced_p50.max(1e-9)),
    ]);
    report.per_layer = m;
    crate::write_spans(opts, "serve-mix", &tracer);
    report.notes.push(
        "serve.server_est_ms and serve.residual_ms are estimates: the server's lower/compile/emulate calls re-timed in the runner, and the round trip minus that".into(),
    );
    Ok(())
}
