//! Per-layer probes for traced runs: the workload's own request lines
//! replayed in-process, the router's routing decision on those lines,
//! and the node-transform matmul on both f64 backends.

use crate::inproc::{InProcess, Kind};
use crate::stats::median;
use crate::trace::Tracer;
use ams_cluster::{route_shard, ShardMap};
use ams_serve::Engine;
use ams_tensor::runtime::{seq, Backend, SimdSeq};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Replays per kind after warm-up.
const SINGLE_REPLAYS: usize = 4_000;
const BATCH_REPLAYS: usize = 400;
const ROUTE_ROUNDS: usize = 2_000;

/// What a replay measured besides its spans.
pub struct Replay {
    /// Arena allocations during the measured replays (0 = warm).
    pub ws_allocs: usize,
    /// Replay wall time with spans over wall time without, minus one, %.
    pub overhead_pct: f64,
}

fn replay_pass(
    h: &mut InProcess,
    single: &[String],
    batch: &str,
    tr: &mut Tracer,
) -> Result<f64, String> {
    let t = Instant::now();
    for i in 0..SINGLE_REPLAYS.max(BATCH_REPLAYS) {
        if i < SINGLE_REPLAYS {
            black_box(h.handle(Kind::Single, &single[i % single.len()], tr, i as u64)?);
        }
        if i < BATCH_REPLAYS {
            black_box(h.handle(Kind::Batch, batch, tr, (SINGLE_REPLAYS + i) as u64)?);
        }
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Replay the request lines through the in-process handler, once
/// without spans and once with them into `tr`.
pub fn replay(
    engine: &Arc<Engine>,
    single: &[String],
    batch: &str,
    tr: &mut Tracer,
) -> Result<Replay, String> {
    let mut h = InProcess::new(Arc::clone(engine));
    replay_pass(&mut h, single, batch, &mut Tracer::off())?; // warm-up
    let plain = replay_pass(&mut h, single, batch, &mut Tracer::off())?;
    let before = h.ws_allocs();
    let traced = replay_pass(&mut h, single, batch, tr)?;
    Ok(Replay { ws_allocs: h.ws_allocs() - before, overhead_pct: (traced / plain - 1.0) * 100.0 })
}

/// Median nanoseconds of one `route_shard` call over two shard groups,
/// timed a round of every single-predict line at a time.
pub fn route_ns(single: &[String], tr: &mut Tracer) -> Result<f64, String> {
    let map = ShardMap::contiguous(2)?;
    for round in 0..ROUTE_ROUNDS {
        tr.time("cluster.route_round", None, round as u64, || {
            for line in single {
                black_box(route_shard(black_box(line), &map));
            }
        });
    }
    Ok(median(&tr.durations_us("cluster.route_round")) * 1e3 / single.len() as f64)
}

/// Median GFLOP/s of `Backend::matmul` at the node-transform shape
/// (companies × features · features × hidden).
pub fn matmul_gflops(backend: &dyn Backend, m: usize, k: usize, n: usize) -> f64 {
    let fill = |len: usize, salt: usize| -> Vec<f64> {
        (0..len).map(|i| (((i * 7919 + salt) % 1000) as f64 - 500.0) / 250.0).collect()
    };
    let (a, b) = (fill(m * k, 1), fill(k * n, 2));
    let mut out = vec![0.0; m * n];
    let calls = 50;
    let mut rates = Vec::new();
    for _ in 0..40 {
        let t = Instant::now();
        for _ in 0..calls {
            backend.matmul(black_box(&a), black_box(&b), &mut out, m, k, n);
        }
        black_box(&out);
        rates.push(2.0 * (m * k * n * calls) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    median(&rates)
}

/// Both f64 backends at the node-transform shape: `(seq, simd)`.
pub fn matmul_pair(m: usize, k: usize, n: usize) -> (f64, f64) {
    (matmul_gflops(seq().as_ref(), m, k, n), matmul_gflops(&SimdSeq, m, k, n))
}
