//! `mf_serve_closed`: a closed loop of one client thread per core, no
//! think time, each calling `ServeEngine::answer_counted` on an MF model
//! trained from the same seed (4 shards, default cache, Zipf-1.1 user
//! keys; 90% `Predict`, 10% top-10 `Recommend`). The only wall-clock
//! test of the real query path; it bypasses `runtime` and `net`.

use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

use orion_apps::serve::{MfAnswer, MfQuery, MfServe};
use orion_apps::sgd_mf::{self, MfModel};
use orion_data::RatingsData;
use orion_serve::{AccessCounts, EngineConfig, ServeEngine, TrafficConfig};

use crate::check::{self, caught};
use crate::measure::{median, percentile_ns, timed, Outcome};
use crate::spans::Span;
use crate::threaded::{mf_config, ratings_config};
use crate::Ctx;

/// Serving shards.
const SHARDS: usize = 4;
/// Share of point predictions; the rest are top-k recommendations.
const PREDICT_FRAC: f64 = 0.9;
/// Recommendation list length.
const TOP_K: usize = 10;
/// Queries each client sends per batch (smoke: 100).
const BATCH: usize = 2_000;
/// Generated queries per client stream; batches cycle through it.
const STREAM: usize = 20_000;
/// Every this many queries of a client, the answer is kept and checked
/// against the oracle after the timed region.
const SAMPLE_EVERY: usize = 64;
/// Engine set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Measured batches of each client count run even past the deadline.
const MIN_ROUNDS: usize = 3;

/// One client's share of a batch.
#[derive(Default)]
struct ClientOut {
    /// `(is_predict, latency ns)` per query.
    lat: Vec<(bool, u64)>,
    /// Sampled `(query, answer)` pairs; `None` when the call panicked.
    sampled: Vec<(MfQuery, Option<MfAnswer>)>,
    counts: AccessCounts,
    span: Option<Span>,
}

/// One batch: its wall time and every client's share, in client order.
struct Batch {
    wall_s: f64,
    clients: Vec<ClientOut>,
}

/// Client `k` answers `batch` queries of its stream, starting at
/// `offset`, one after another.
fn client_batch(
    engine: &ServeEngine<MfServe>,
    stream: &[MfQuery],
    k: usize,
    offset: usize,
    batch: usize,
    origin: Option<Instant>,
) -> ClientOut {
    let mut out = ClientOut {
        lat: Vec::with_capacity(batch),
        ..ClientOut::default()
    };
    let start = Instant::now();
    for j in 0..batch {
        let q = &stream[(offset + j) % stream.len()];
        let t = Instant::now();
        let res = caught(|| engine.answer_counted(q));
        let ns = t.elapsed().as_nanos() as u64;
        out.lat.push((matches!(q, MfQuery::Predict { .. }), ns));
        if let Some((_, c)) = &res {
            out.counts.row_hits += c.row_hits;
            out.counts.row_misses += c.row_misses;
            out.counts.scanned_elems += c.scanned_elems;
        }
        if j % SAMPLE_EVERY == 0 || res.is_none() {
            let answer = res.map(|(a, _)| match a {
                // A top-k list keeps the capacity of the full scan;
                // shrink it so kept samples do not grow the heap.
                MfAnswer::TopK(mut v) => {
                    v.shrink_to_fit();
                    MfAnswer::TopK(v)
                }
                a => a,
            });
            out.sampled.push((q.clone(), answer));
        }
    }
    out.span = origin.map(|origin| Span {
        layer: "serve",
        name: "ServeEngine::answer_counted",
        tid: k as u32 + 1,
        start_ns: start.duration_since(origin).as_nanos() as u64,
        end_ns: origin.elapsed().as_nanos() as u64,
        parent: None,
    });
    out
}

/// What the measurement loop collects.
#[derive(Default)]
struct Tallies {
    qps_n: Vec<f64>,
    qps_1: Vec<f64>,
    walls: Vec<f64>,
    lat_all: Vec<u64>,
    lat_predict: Vec<u64>,
    lat_recommend: Vec<u64>,
    counts: AccessCounts,
    queries: u64,
    sampled: Vec<(MfQuery, Option<MfAnswer>)>,
    rounds: usize,
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let data = ctx.span("data", "RatingsData::generate", || {
        RatingsData::generate(ratings_config(ctx, 320_000))
    });
    let model: MfModel = ctx.span("apps", "train_threaded", || {
        sgd_mf::train_threaded(&data, mf_config(ctx), ctx.nproc, 2, false).0
    });
    out.set("final_loss", model.loss(&data.items()));

    let mut setup_s = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        let (e, d) = timed(|| {
            let (w, h) = ctx.span("dsm", "MfServe::checkpoint_bytes", || {
                MfServe::checkpoint_bytes(&model)
            });
            out.set("dsm.checkpoint_bytes", (w.len() + h.len()) as f64);
            let served = ctx.span("serve", "MfServe::from_checkpoint_bytes", || {
                MfServe::from_checkpoint_bytes(w, h, SHARDS).expect("fresh checkpoint images load")
            });
            ctx.span("serve", "ServeEngine::new", || {
                ServeEngine::new(served, EngineConfig::default())
            })
        });
        setup_s.push(d.as_secs_f64());
        engine = Some(black_box(e));
    }
    let engine = engine.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));

    let n = ctx.nproc;
    let (batch, stream_len) = if ctx.smoke {
        (100, 400)
    } else {
        (BATCH, STREAM)
    };
    let raw = TrafficConfig {
        n_requests: stream_len * n,
        streams: n,
        rate_rps: 10_000.0,
        zipf_s: 1.1,
        key_domain: engine.model().n_users(),
        key2_domain: engine.model().n_items(),
        seed: ctx.seed ^ 0x5E4E,
    }
    .generate();
    let mut streams: Vec<Vec<MfQuery>> = vec![Vec::new(); n];
    for r in &raw {
        streams[r.stream as usize].push(engine.model().query_from_raw(r, PREDICT_FRAC, TOP_K));
    }

    // Persistent clients: each waits for a batch offset, answers its
    // batch, reports back, and exits when its command channel closes.
    let origin = ctx.rec.as_ref().map(|r| r.origin());
    let t = std::thread::scope(|s| {
        let (done_tx, done_rx) = mpsc::channel::<(usize, ClientOut)>();
        let cmds: Vec<mpsc::Sender<usize>> = streams
            .iter()
            .enumerate()
            .map(|(k, stream)| {
                let (tx, rx) = mpsc::channel::<usize>();
                let done = done_tx.clone();
                let engine = &engine;
                s.spawn(move || {
                    for offset in rx {
                        let o = client_batch(engine, stream, k, offset, batch, origin);
                        if done.send((k, o)).is_err() {
                            break;
                        }
                    }
                });
                tx
            })
            .collect();
        drop(done_tx);
        let run_batch = |clients: usize, offset: usize| -> Batch {
            let start = Instant::now();
            for tx in &cmds[..clients] {
                tx.send(offset).expect("client thread is alive");
            }
            let mut outs: Vec<(usize, ClientOut)> = (0..clients)
                .map(|_| done_rx.recv().expect("client thread reports its batch"))
                .collect();
            let wall_s = start.elapsed().as_secs_f64();
            outs.sort_by_key(|(k, _)| *k);
            Batch {
                wall_s,
                clients: outs.into_iter().map(|(_, o)| o).collect(),
            }
        };
        let t = measure(ctx, &mut out, n, batch, stream_len, &run_batch);
        drop(cmds);
        t
    });

    let mismatches = ctx.span("check", "answers vs brute-force oracle", || {
        t.sampled
            .iter()
            .filter(|(q, a)| {
                !a.as_ref()
                    .is_some_and(|a| check::mf_answer_ok(&model, q, a))
            })
            .count() as u64
    });
    out.tally.failed += mismatches;
    report(&mut out, t, n, batch, mismatches);
    out
}

/// The measurement loop: a warm-up batch, then loaded (`n` clients)
/// and baseline (1 client) batches alternately until the budget ends.
fn measure(
    ctx: &Ctx,
    out: &mut Outcome,
    n: usize,
    batch: usize,
    stream_len: usize,
    run_batch: &dyn Fn(usize, usize) -> Batch,
) -> Tallies {
    let mut t = Tallies::default();
    // Warm the caches before timing; its answers are checked too.
    let warm = ctx.span("serve", "warm-up batch", || run_batch(n, 0));
    let mut offset = batch % stream_len;
    for c in warm.clients {
        out.tally.attempted += c.lat.len() as u64;
        t.sampled.extend(c.sampled);
    }
    let loads: &[usize] = if n > 1 { &[n, 1] } else { &[1] };
    while ctx.more(t.rounds, MIN_ROUNDS) {
        for &clients in loads {
            let b = ctx.span("serve", "closed-loop batch", || run_batch(clients, offset));
            let qps = (batch * clients) as f64 / b.wall_s;
            if clients == n {
                t.qps_n.push(qps);
                t.walls.push(b.wall_s);
                for c in &b.clients {
                    for &(predict, ns) in &c.lat {
                        t.lat_all.push(ns);
                        if predict {
                            t.lat_predict.push(ns);
                        } else {
                            t.lat_recommend.push(ns);
                        }
                    }
                    t.counts.row_hits += c.counts.row_hits;
                    t.counts.row_misses += c.counts.row_misses;
                    t.counts.scanned_elems += c.counts.scanned_elems;
                    t.queries += c.lat.len() as u64;
                }
            }
            if clients == 1 {
                t.qps_1.push(qps);
            }
            for c in b.clients {
                out.tally.attempted += c.lat.len() as u64;
                t.sampled.extend(c.sampled);
                if let (Some(span), Some(rec)) = (c.span, &ctx.rec) {
                    rec.absorb(vec![span]);
                }
            }
            offset = (offset + batch) % stream_len;
        }
        t.rounds += 1;
    }
    t
}

/// Sets the metrics from the collected tallies and prints the summary.
fn report(out: &mut Outcome, mut t: Tallies, n: usize, batch: usize, mismatches: u64) {
    for v in [&mut t.lat_all, &mut t.lat_predict, &mut t.lat_recommend] {
        v.sort_unstable();
    }
    let pct = |v: &[u64], q: f64| {
        if v.is_empty() {
            0.0
        } else {
            percentile_ns(v, q)
        }
    };
    let rate = median(&t.qps_n);
    out.set("wall_s", median(&t.walls));
    out.set("items_per_s", rate);
    // Per round, from adjacent batches, so slow drifts in the host's
    // load cancel.
    let speedups: Vec<f64> = t
        .qps_n
        .iter()
        .zip(&t.qps_1)
        .map(|(n, one)| n / one)
        .collect();
    out.set("speedup_vs_1w", median(&speedups));
    out.set("step_ms_p50", pct(&t.lat_all, 0.5) / 1e6);
    out.set("serve.query_us_p99", pct(&t.lat_all, 0.99) / 1e3);

    let rows = t.counts.row_hits + t.counts.row_misses;
    let queries = t.queries.max(1) as f64;
    out.set(
        "serve.cache_hit_rate",
        t.counts.row_hits as f64 / rows.max(1) as f64,
    );
    out.set("serve.rows_per_query", rows as f64 / queries);
    out.set(
        "serve.scanned_elems_per_query",
        t.counts.scanned_elems as f64 / queries,
    );
    out.set("serve.predict_us_p50", pct(&t.lat_predict, 0.5) / 1e3);
    out.set("serve.recommend_us_p50", pct(&t.lat_recommend, 0.5) / 1e3);

    println!(
        "rounds {}: {n} clients × {batch} queries per batch, {} timed queries, {} sampled answers checked ({mismatches} mismatched)",
        t.rounds,
        t.lat_all.len(),
        t.sampled.len()
    );
    println!(
        "queries_per_s {rate:.0}  query_us_p50 {:.3}  query_us_p99 {:.3}  speedup_vs_1w {:.3}  setup_s {:.5}  cache hit rate {:.3}",
        out.values["step_ms_p50"] * 1e3,
        out.values["serve.query_us_p99"],
        out.values["speedup_vs_1w"],
        out.values["setup_s"],
        out.values["serve.cache_hit_rate"]
    );
}
