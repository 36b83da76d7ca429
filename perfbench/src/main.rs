//! The repository benchmark: AMS training and serving, end to end and
//! layer by layer. See README.md for the workloads and metrics.
//!
//! ```text
//! perfbench --workload fit|serve_mixed --seed N --seconds S --trace 0|1
//!           --bin-dir DIR --out-dir DIR
//! ```
//!
//! `run.py` builds this binary and the `serve`/`router` binaries and
//! supplies `--bin-dir`/`--out-dir`. Every metric is printed as
//! `name = value unit`; the last stdout line is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A failed correctness check exits 1, a run that could
//! not be carried out exits 2 without a result line.

mod inproc;
mod layers;
mod stats;
mod trace;
mod train;
mod wire;

use ams_serve::Engine;
use serde::Value;
use stats::{coalesce_ratio, label, median, Latency};
use std::ops::Add;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use wire::{mixed_load, ConnRun, Procs, Target, Traffic};

/// End-to-end metrics and units every workload reports on an untraced
/// run; `BENCHMARK.json` lists the same with their bounds.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("fit_s", "s"),
    ("predict_p50_us", "us"),
    ("batch_p50_us", "us"),
];

/// Per-layer metrics and units every workload reports on a traced run.
/// A layer the workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("store.read_panel_ms", "ms"),
    ("store.bytes_read", "bytes"),
    ("data.features_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("core.fit_ms", "ms"),
    ("core.epochs", "count"),
    ("core.epoch_us", "us"),
    ("core.predict_ms", "ms"),
    ("eval.metrics_ms", "ms"),
    ("fit.unattributed_ms", "ms"),
    ("fit.trace_overhead_pct", "%"),
    ("runtime.matmul_gflops_seq", "GFLOP/s"),
    ("runtime.matmul_gflops_simd", "GFLOP/s"),
    ("serve.parse_single_us", "us"),
    ("serve.parse_batch_us", "us"),
    ("engine.single_us", "us"),
    ("engine.batch_us", "us"),
    ("engine.ws_allocs", "count"),
    ("serve.encode_single_us", "us"),
    ("serve.encode_batch_us", "us"),
    ("serve.handle_mean_us", "us"),
    ("serve.errors", "count"),
    ("serve.degraded", "count"),
    ("serve.shed", "count"),
    ("serve.unattributed_single_us", "us"),
    ("serve.unattributed_batch_us", "us"),
    ("serve.trace_overhead_pct", "%"),
    ("cluster.coalesce_ratio", "ratio"),
    ("cluster.coalesced", "count"),
    ("cluster.flushes", "count"),
    ("cluster.batch_fanouts", "count"),
    ("cluster.hedges", "count"),
    ("cluster.failovers", "count"),
    ("cluster.degraded", "count"),
    ("cluster.route_ns", "ns"),
    ("cluster.overhead_single_us", "us"),
    ("cluster.overhead_batch_us", "us"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Least timed CV runs per untraced `fit` run; `fit_s` is their median.
const MIN_CV_RUNS: usize = 3;
/// Trainings of the served model per serve run; `fit_s` is their median.
const SERVED_FITS: usize = 3;
/// Root span of a traced training run (the CV on `fit`, the served
/// model's training on `serve_mixed`).
const TRAIN_ROOT: &str = "fit.train";
/// Shard groups behind the router on traced `serve_mixed` runs.
const SHARD_GROUPS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fit,
    ServeMixed,
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut get = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} requires a value"))?;
        get.insert(flag, value);
    }
    let mut take = |flag: &str| get.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let name = take("--workload")?;
    let workload = match name.as_str() {
        "fit" => Workload::Fit,
        "serve_mixed" => Workload::ServeMixed,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let seed = take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let args = Args {
        workload,
        name,
        seed,
        seconds,
        trace,
        bin_dir: take("--bin-dir")?.into(),
        out_dir: take("--out-dir")?.into(),
    };
    match get.keys().next() {
        Some(extra) => Err(format!("unknown flag {extra}")),
        None => Ok(args),
    }
}

/// Everything a run measured and checked.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    /// Print every metric, then the result line; returns the exit code.
    fn finish(self, trace: bool) -> Result<i32, String> {
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for &(name, declared) in wanted {
            let (_, value, unit) = self
                .metrics
                .iter()
                .rev()
                .find(|m| m.0 == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() || *unit != declared {
                return Err(format!("metric {name} = {value} {unit}, declared in {declared}"));
            }
            let entry = Value::Object(vec![
                ("value".to_string(), Value::Number(*value)),
                ("unit".to_string(), Value::String(unit.to_string())),
            ]);
            fields.push((name.to_string(), entry));
        }
        let correct = self.problems.is_empty();
        let result = Value::Object(vec![
            ("correct".to_string(), Value::Bool(correct)),
            ("attempted".to_string(), Value::Number(self.attempted.max(1) as f64)),
            ("failed".to_string(), Value::Number(self.failed as f64)),
            ("metrics".to_string(), Value::Object(fields)),
        ]);
        println!("{}", serde_json::to_string(&result).map_err(|e| e.to_string())?);
        Ok(if correct { 0 } else { 1 })
    }
}

/// `nproc`, SIMD level, toolchain and commit, printed with every run.
fn machine_stamp(args: &Args) -> String {
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (is_x86_feature_detected!("avx2"), is_x86_feature_detected!("fma"));
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    let output = |program: &str, argv: &[&str]| {
        std::process::Command::new(program)
            .args(argv)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let commit = if Path::new(".git").exists() {
        output("git", &["rev-parse", "--short", "HEAD"])
    } else {
        None
    };
    format!(
        "machine: nproc={} avx2={avx2} fma={fma} simd_accelerated={} rustc=\"{rustc}\" \
         commit={} workload={} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(1, usize::from),
        ams_tensor::runtime::simd::accelerated(),
        commit.as_deref().unwrap_or("none"),
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// The served model's request lines and the engine's answers to them.
struct Serving {
    engine: Arc<Engine>,
    single: Traffic,
    batch: Traffic,
}

fn serving(served: &train::Served, rep: &mut Report) -> Result<Serving, String> {
    let engine = Arc::new(Engine::new(served.artifact.clone())?);
    let x = &served.artifact.reference_features;
    let expect_batch = engine.predict_batch(x)?.into_vec();
    if let Some(fb) = &served.artifact.fallback {
        // The export stored the tape model's own predictions here.
        let tape = fb.last_good.as_slice();
        let same = tape.len() == expect_batch.len()
            && tape.iter().zip(&expect_batch).all(|(a, b)| a.to_bits() == b.to_bits());
        rep.check(same, "engine batch predictions differ from the trained model's");
    }
    let row = |r: &[f64]| Value::Array(r.iter().map(|&v| Value::Number(v)).collect());
    let mut lines = Vec::new();
    let mut expect = Vec::new();
    for c in 0..engine.num_companies() {
        let req = Value::Object(vec![
            ("type".to_string(), Value::String("predict".to_string())),
            ("company".to_string(), Value::Number(c as f64)),
            ("features".to_string(), row(x.row(c))),
        ]);
        lines.push(serde_json::to_string(&req).map_err(|e| e.to_string())?);
        expect.push(engine.predict_company(c, x.row(c))?);
    }
    let batch = Value::Object(vec![
        ("type".to_string(), Value::String("batch_predict".to_string())),
        ("features".to_string(), Value::Array((0..x.rows()).map(|i| row(x.row(i))).collect())),
    ]);
    let batch_line = serde_json::to_string(&batch).map_err(|e| e.to_string())?;
    Ok(Serving {
        engine,
        single: Traffic { kind: inproc::Kind::Single, lines, expect },
        batch: Traffic { kind: inproc::Kind::Batch, lines: vec![batch_line], expect: expect_batch },
    })
}

/// Report one load phase; returns the p50s, `[single, batch]`.
///
/// The p50 is over the whole window. The host's speed shifts both ways
/// for tens of seconds at a time; a lower percentile of 1-s slice p50s
/// chased its fast spells and spread almost twice as much over ten
/// seeds (batch 14 % against 8 % of the median on the same runs).
fn report_load(
    rep: &mut Report,
    prefix: &str,
    runs: &(ConnRun, ConnRun),
) -> Result<[f64; 2], String> {
    let mut p50s = [0.0; 2];
    for (i, (kind, run)) in [("predict", &runs.0), ("batch", &runs.1)].into_iter().enumerate() {
        let lat = Latency::of(run.lat_us.clone())
            .ok_or_else(|| format!("no successful {kind} requests"))?;
        let t = &run.tally;
        rep.attempted += t.sent;
        rep.failed += t.failed;
        rep.check(
            t.wrong == 0,
            format!("{prefix}{kind}: {} responses differ from the engine", t.wrong),
        );
        p50s[i] = lat.p50;
        rep.put(format!("{prefix}{kind}_p50_us"), lat.p50, "us");
        rep.put(format!("{prefix}{kind}_rps"), lat.n as f64 / run.window_s, "1/s");
        if let Some(p99) = lat.p99 {
            rep.put(format!("{prefix}{kind}_p99_us"), p99, "us");
        }
        if let Some((parts, v)) = lat.tail.filter(|t| t.0 != 99_000) {
            rep.put(format!("{prefix}{kind}_{}_us", label(parts)), v, "us");
        }
        rep.put(format!("{prefix}{kind}_samples"), lat.n as f64, "count");
        rep.put(format!("{prefix}{kind}_sent"), t.sent as f64, "count");
        rep.put(format!("{prefix}{kind}_succeeded"), t.ok as f64, "count");
        rep.put(format!("{prefix}{kind}_failed"), t.failed as f64, "count");
        rep.put(format!("{prefix}{kind}_failed_share"), t.failure_share(), "ratio");
        rep.put(format!("{prefix}{kind}_reconnects"), f64::from(run.reconnects), "count");
    }
    Ok(p50s)
}

/// Per-layer numbers of one traced training run rooted at `root`.
fn report_training(
    rep: &mut Report,
    tr: &Tracer,
    root: Option<usize>,
    bytes: u64,
    folds: usize,
    untraced_s: f64,
) {
    let epochs = (train::ams_config().epochs * folds) as f64;
    let fit_ms = tr.total_ms("core.fit", root);
    rep.put("store.read_panel_ms", tr.total_ms("store.read_panel", root), "ms");
    rep.put("store.bytes_read", bytes as f64, "bytes");
    rep.put("data.features_ms", tr.total_ms("data.features", root), "ms");
    rep.put("graph.build_ms", tr.total_ms("graph.build", root), "ms");
    rep.put("core.fit_ms", fit_ms, "ms");
    rep.put("core.epochs", epochs, "count");
    rep.put("core.epoch_us", fit_ms * 1e3 / epochs, "us");
    rep.put("core.predict_ms", tr.total_ms("core.predict", root), "ms");
    rep.put("eval.metrics_ms", tr.total_ms("eval.metrics", root), "ms");
    let (total_ms, spans_ms) = tr.closure_ms(TRAIN_ROOT);
    rep.put("fit.traced_ms", total_ms, "ms");
    rep.put("fit.span_sum_ms", spans_ms, "ms");
    rep.put("fit.unattributed_ms", total_ms - spans_ms, "ms");
    rep.put("fit.untraced_ms", untraced_s * 1e3, "ms");
    rep.put("fit.trace_overhead_pct", (total_ms / (untraced_s * 1e3) - 1.0) * 100.0, "%");
    rep.check(spans_ms <= total_ms, format!("training spans sum to {spans_ms} ms > {total_ms} ms"));
}

/// Per-layer numbers of the in-process replay, the router's routing
/// decision and the matmul kernels; `client` holds the run's own client
/// p50s, `[single, batch]`.
fn report_layers(
    rep: &mut Report,
    args: &Args,
    s: &Serving,
    client: [f64; 2],
) -> Result<(), String> {
    let mut tr = Tracer::new(true);
    let replay = layers::replay(&s.engine, &s.single.lines, &s.batch.lines[0], &mut tr)?;
    let med = |name: &str| median(&tr.durations_us(name));
    for (kind, p50) in ["single", "batch"].into_iter().zip(client) {
        let parse = med(&format!("serve.parse_{kind}"));
        let engine = med(&format!("engine.{kind}"));
        let encode = med(&format!("serve.encode_{kind}"));
        rep.put(format!("serve.parse_{kind}_us"), parse, "us");
        rep.put(format!("engine.{kind}_us"), engine, "us");
        rep.put(format!("serve.encode_{kind}_us"), encode, "us");
        rep.put(format!("serve.span_sum_{kind}_us"), parse + engine + encode, "us");
        rep.put(format!("serve.unattributed_{kind}_us"), p50 - (parse + engine + encode), "us");
        let (requests_ms, steps_ms) = tr.closure_ms(&format!("serve.request_{kind}"));
        rep.check(
            steps_ms <= requests_ms,
            format!("{kind}: replay steps sum to {steps_ms} ms > their requests' {requests_ms} ms"),
        );
    }
    rep.put("engine.ws_allocs", replay.ws_allocs as f64, "count");
    rep.put("serve.trace_overhead_pct", replay.overhead_pct, "%");
    rep.put("cluster.route_ns", layers::route_ns(&s.single.lines, &mut tr)?, "ns");
    write_trace(args, &tr, "replay")?;
    let art = s.engine.artifact();
    let (m, k) = (art.num_companies(), art.feature_width());
    let n = art.snapshot.config.nt_hidden.first().copied().unwrap_or(k);
    let (seq, simd) = layers::matmul_pair(m, k, n);
    rep.put("runtime.matmul_shape_mkn", (m * 1_000_000 + k * 1_000 + n) as f64, "mmmkkknnn");
    rep.put("runtime.matmul_gflops_seq", seq, "GFLOP/s");
    rep.put("runtime.matmul_gflops_simd", simd, "GFLOP/s");
    Ok(())
}

fn stats_of(addr: std::net::SocketAddr) -> Result<Value, String> {
    let v =
        wire::connect(addr).map_err(|e| e.to_string())?.round_trip_value(r#"{"type":"stats"}"#)?;
    v.get("stats").cloned().ok_or_else(|| format!("{addr}: no stats"))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// The running processes of one serve topology.
struct Topology {
    front: std::net::SocketAddr,
    shards: Vec<std::net::SocketAddr>,
    router: Option<std::net::SocketAddr>,
}

/// Start one `serve` process on the artifact or, with `router`, two
/// shard groups of one `serve` each behind the router.
fn start_topology(
    procs: &mut Procs,
    bin_dir: &Path,
    artifact: &Path,
    router: bool,
) -> Result<Topology, String> {
    let art = artifact.to_string_lossy().to_string();
    let mut shards = Vec::new();
    for g in 0..if router { SHARD_GROUPS } else { 1 } {
        let addr = procs.spawn(
            &format!("serve{g}"),
            &bin_dir.join("serve"),
            &["--artifact".into(), art.clone()],
            "listening on ",
        )?;
        wire::wait_healthy(addr)?;
        shards.push(addr);
    }
    if !router {
        return Ok(Topology { front: shards[0], shards, router: None });
    }
    let spec = shards.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(";");
    let addr = procs.spawn(
        "router",
        &bin_dir.join("router"),
        &["--shards".into(), spec, "--artifact".into(), art],
        "routing on ",
    )?;
    wire::wait_healthy(addr)?;
    Ok(Topology { front: addr, shards, router: Some(addr) })
}

/// `stats` of every shard, and of the router if there is one.
fn snapshot(topo: &Topology) -> Result<(Vec<Value>, Option<Value>), String> {
    let shards = topo.shards.iter().map(|&a| stats_of(a)).collect::<Result<_, _>>()?;
    Ok((shards, topo.router.map(stats_of).transpose()?))
}

fn fit_workload(args: &Args, rep: &mut Report, store: &Path) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut panel = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        panel = Some(train::write_store(args.seed, store)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let panel = panel.expect("at least one set-up");
    rep.put("setup_s", median(&setups), "s");
    let opts = ams_eval::EvalOptions::paper_for(&panel);
    let reference = ams_eval::run_model(&panel, &train::ams_kind(), &opts);
    let budget = Duration::from_secs_f64(args.seconds);
    // A traced run times one untraced CV, to set the tracing overhead against.
    let (least, cv_budget) = if args.trace { (1, Duration::ZERO) } else { (MIN_CV_RUNS, budget) };
    let start = Instant::now();
    let mut fits = Vec::new();
    while fits.len() < least || start.elapsed() < cv_budget {
        let t = Instant::now();
        let cv = train::cv_from_store(store, &opts)?;
        fits.push(t.elapsed().as_secs_f64());
        rep.put("fit_run_s", fits[fits.len() - 1], "s");
        rep.attempted += 1;
        rep.check(train::same_cv(&cv, &reference), "CV through the store differs from run_model");
    }
    // The host's speed shifts both ways; over ten seeds the median run
    // spread 5 % of its median, the fastest run 12 %.
    rep.put("fit_s", median(&fits), "s");
    rep.put("fit_runs", fits.len() as f64, "count");
    rep.put("fit_mean_ba", reference.mean_ba(), "%");
    if args.trace {
        let mut tr = Tracer::new(true);
        let root = tr.open(TRAIN_ROOT, None, 0);
        let (cv, bytes) = train::cv_traced(&mut tr, root, store)?;
        tr.close(root);
        rep.check(train::same_cv(&cv, &reference), "traced CV composition differs from run_model");
        report_training(rep, &tr, root, bytes, opts.n_folds, fits[0]);
        write_trace(args, &tr, "train")?;
    }
    let (served, _) = train::served_model(&mut Tracer::off(), None, store, args.seed)?;
    let s = serving(&served, rep)?;
    // Served from one vCPU, as on `serve_mixed`.
    let cpu = wire::pin_here()?;
    rep.put("serve.cpu", cpu as f64, "index");
    let runs = mixed_load(&Target::InProcess(Arc::clone(&s.engine)), &s.single, &s.batch, budget);
    let client = report_load(rep, "", &runs)?;
    rep.put("peak_rss_mb", wire::peak_rss_mb("self")?, "MiB");
    if args.trace {
        report_layers(rep, args, &s, client)?;
        report_servers(rep, &[], &[], true);
        report_router(rep, None);
        rep.put("cluster.overhead_single_us", 0.0, "us");
        rep.put("cluster.overhead_batch_us", 0.0, "us");
    }
    Ok(())
}

/// Server accounting over a load window from the `stats` deltas; checks
/// that no server counted a failure, and with `put` reports the
/// `serve.*` figures. With no servers (the in-process `fit` workload)
/// every figure is 0.
fn report_servers(rep: &mut Report, before: &[Value], after: &[Value], put: bool) {
    let pairs = || before.iter().zip(after);
    // The servers report a running mean over all requests; recover each
    // window's requests and busy time from the two snapshots.
    let windows: Vec<(f64, f64)> = pairs()
        .map(|(b, a)| {
            let (r0, r1) = (num(b, "requests"), num(a, "requests"));
            (r1 - r0, num(a, "mean_latency_us") * r1 - num(b, "mean_latency_us") * r0)
        })
        .collect();
    // `fold` from +0.0: an empty `sum` of floats is -0.0.
    let counts = ["errors", "degraded", "shed"]
        .map(|k| pairs().map(|(b, a)| num(a, k) - num(b, k)).fold(0.0, f64::add));
    rep.check(
        counts.iter().all(|&c| c == 0.0),
        format!("servers counted errors/degraded/shed {counts:?}"),
    );
    if !put {
        return;
    }
    let handled = windows.iter().map(|w| w.0).fold(0.0, f64::add);
    let busy_us = windows.iter().map(|w| w.1).fold(0.0, f64::add);
    rep.put("serve.handle_mean_us", busy_us / handled.max(1.0), "us");
    rep.put("serve.requests", handled, "count");
    for (key, c) in ["serve.errors", "serve.degraded", "serve.shed"].into_iter().zip(counts) {
        rep.put(key, c, "count");
    }
}

/// Router accounting over a load window from its `stats` delta (all 0
/// without a router); checks that it degraded, shed and timed out nothing.
fn report_router(rep: &mut Report, router: Option<(&Value, &Value)>) {
    let routed = |k: &str| router.map_or(0.0, |(b, a)| num(a, k) - num(b, k));
    let bad = routed("degraded") + routed("sheds") + routed("router_timeouts");
    rep.check(bad == 0.0, format!("router counted {bad} degraded/shed/timed-out requests"));
    let (coalesced, flushes) = (routed("coalesced"), routed("flushes"));
    rep.put("cluster.coalesce_ratio", coalesce_ratio(coalesced as u64, flushes as u64), "ratio");
    for (name, key) in [
        ("cluster.coalesced", "coalesced"),
        ("cluster.flushes", "flushes"),
        ("cluster.batch_fanouts", "batch_fanouts"),
        ("cluster.hedges", "hedges"),
        ("cluster.failovers", "failovers"),
        ("cluster.degraded", "degraded"),
        ("cluster.sheds", "sheds"),
        ("cluster.router_timeouts", "router_timeouts"),
    ] {
        rep.put(name, routed(key), "count");
    }
}

/// The cluster layer, on traced `serve_mixed` runs: the same two
/// connections through the router in front of two shard groups. Reports
/// the router's `stats` delta and its p50 cost over `direct`, the p50s
/// of the run's own load straight to one `serve`.
fn router_phase(
    rep: &mut Report,
    args: &Args,
    artifact: &Path,
    s: &Serving,
    direct: [f64; 2],
    window: Duration,
) -> Result<(), String> {
    let mut procs = Procs::default();
    let topo = start_topology(&mut procs, &args.bin_dir, artifact, true)?;
    let before = snapshot(&topo)?;
    let load = mixed_load(&Target::Tcp(topo.front), &s.single, &s.batch, window);
    let routed = report_load(rep, "router.", &load)?;
    let after = snapshot(&topo)?;
    report_servers(rep, &before.0, &after.0, false);
    report_router(rep, before.1.as_ref().zip(after.1.as_ref()));
    rep.put("cluster.overhead_single_us", routed[0] - direct[0], "us");
    rep.put("cluster.overhead_batch_us", routed[1] - direct[1], "us");
    Ok(())
}

fn serve_workload(args: &Args, rep: &mut Report, store: &Path) -> Result<(), String> {
    train::write_store(args.seed, store)?;
    let mut fits = Vec::new();
    let mut trained = None;
    for _ in 0..SERVED_FITS {
        let t = Instant::now();
        trained = Some(train::served_model(&mut Tracer::off(), None, store, args.seed)?);
        fits.push(t.elapsed().as_secs_f64());
        rep.put("fit_run_s", fits[fits.len() - 1], "s");
    }
    let (served, bytes) = trained.expect("at least one fit");
    let fit_s = median(&fits);
    rep.put("fit_s", fit_s, "s");
    rep.put("served_ba", served.ba, "%");
    if args.trace {
        let mut tr = Tracer::new(true);
        let root = tr.open(TRAIN_ROOT, None, 0);
        train::served_model(&mut tr, root, store, args.seed)?;
        tr.close(root);
        report_training(rep, &tr, root, bytes, 1, fit_s);
        write_trace(args, &tr, "train")?;
    }
    let s = serving(&served, rep)?;
    let artifact = args.out_dir.join(format!("artifact-{}.amsart", std::process::id()));
    served.artifact.write_file(&artifact).map_err(|e| e.to_string())?;

    // From here on the load, the servers and the replay share one vCPU.
    let cpu = wire::pin_here()?;
    rep.put("serve.cpu", cpu as f64, "index");
    let mut procs = Procs::default();
    let mut setups = Vec::new();
    let mut topo = None;
    for _ in 0..SETUP_REPS {
        procs.kill_all();
        let t = Instant::now();
        topo = Some(start_topology(&mut procs, &args.bin_dir, &artifact, false)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let topo = topo.expect("at least one set-up");
    rep.put("setup_s", median(&setups), "s");

    let before = snapshot(&topo)?;
    let window = Duration::from_secs_f64(args.seconds);
    let client =
        report_load(rep, "", &mixed_load(&Target::Tcp(topo.front), &s.single, &s.batch, window))?;
    let after = snapshot(&topo)?;
    rep.put("peak_rss_mb", procs.peak_rss_mb()?, "MiB");
    report_servers(rep, &before.0, &after.0, args.trace);
    procs.kill_all();
    if args.trace {
        router_phase(rep, args, &artifact, &s, client, window / 4)?;
        report_layers(rep, args, &s, client)?;
    }
    let _ = std::fs::remove_file(&artifact);
    Ok(())
}

/// Write a traced run's spans to `trace-<workload>-seed<seed>-<part>.jsonl`.
fn write_trace(args: &Args, tr: &Tracer, part: &str) -> Result<(), String> {
    let path = args.out_dir.join(format!("trace-{}-seed{}-{part}.jsonl", args.name, args.seed));
    let header = Value::Object(vec![("stamp".to_string(), Value::String(machine_stamp(args)))]);
    let header = serde_json::to_string(&header).map_err(|e| e.to_string())?;
    tr.write_jsonl(&path, &header).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<i32, String> {
    println!("{}", machine_stamp(args));
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let store = args.out_dir.join(format!("panel-{}.amsstore", std::process::id()));
    let mut rep = Report::default();
    let steal_before = wire::host_steal();
    let outcome = match args.workload {
        Workload::Fit => fit_workload(args, &mut rep, &store),
        Workload::ServeMixed => serve_workload(args, &mut rep, &store),
    };
    let _ = std::fs::remove_file(&store);
    outcome?;
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, wire::host_steal()) {
        rep.put("host_steal_pct", 100.0 * (s1 - s0) / (t1 - t0).max(1.0), "%");
    }
    rep.finish(args.trace)
}

fn main() {
    let code = match parse_args().and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
        let list = doc.get(section).and_then(Value::as_array).expect(section);
        list.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }
}
