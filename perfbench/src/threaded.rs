//! The two threaded-pool workloads: `mf_grid_threads` (SGD MF on the
//! 2-D unordered rotation, paper Fig. 8) and `slr_buffered_threads`
//! (sparse LR on the 1-D buffered schedule).
//!
//! Both time whole `train_threaded` calls. Set-up time is the wall of a
//! call with zero passes: the trainer's own fixed cost (iteration-space
//! materialisation, model init, analysis, schedule, plan compile, pool
//! start, final merge). Pass throughput subtracts it from the wall of a
//! call with `PASSES` passes in the same round:
//! `items × PASSES / (T(PASSES) − T(0))`.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

use orion_analysis::analyze;
use orion_apps::sgd_mf::{self, MfConfig, MfModel, MfRunConfig};
use orion_apps::slr::{self, SlrConfig, SlrModel, SlrRunConfig};
use orion_core::{
    ArrayMeta, ClusterSpec, CompiledLoop, DistArray, DistArrayBuffer, Driver, LoopSpec, MathMode,
    RunReport, RunStats, SpanCat, Subscript,
};
use orion_data::{RatingsConfig, RatingsData, SparseConfig, SparseData};
use orion_dsm::kernels;
use orion_runtime::{build_schedule, ThreadedPlan};

use crate::check::{self, caught};
use crate::measure::{median, median_or_zero, timed, Outcome, Tally};
use crate::Ctx;

/// Passes of the timed training call.
const PASSES: u64 = 8;
/// Passes of the set-up call: everything a training call does besides
/// its passes.
const SETUP_PASSES: u64 = 0;
/// Set-up calls per worker count and measurement round; their median is
/// the round's set-up time. A single call's interference would
/// otherwise land in the pass time subtracted from it.
const SETUP_REPS: usize = 3;
/// Repetitions of each single-layer timing in a traced run.
const LAYER_REPS: usize = 3;
/// Measurement rounds run even past the deadline, so medians always
/// have a few samples.
const MIN_ROUNDS: usize = 2;

/// What the training call's set-up produced (kept for layer timing).
pub struct Setup {
    /// The compiled loop.
    pub compiled: CompiledLoop,
    /// Registered array metadata (analyzer input).
    pub metas: Vec<ArrayMeta>,
    /// The threaded plan.
    pub plan: Arc<ThreadedPlan>,
}

/// A training app on the threaded engine, seen through its public
/// entry points.
pub trait App {
    /// The trained model.
    type Model;
    /// Training items per pass.
    fn items_per_pass(&self) -> usize;
    /// Item indices of the iteration space, for layer timing.
    fn indices(&self) -> Vec<&[i64]>;
    /// The training call's work before its first pass, on `cluster`,
    /// redone through the public driver API so the traced run can time
    /// its layers.
    fn setup(&self, cluster: ClusterSpec, threads: usize) -> Setup;
    /// `train_threaded`.
    fn train(&self, threads: usize, passes: u64) -> Self::Model;
    /// `train_threaded_traced`, returning the run report.
    fn train_traced(&self, threads: usize, passes: u64) -> (Self::Model, RunReport);
    /// `train_orion` on the sim oracle's `ClusterSpec::new(1, threads)`.
    fn oracle(&self, threads: usize, passes: u64) -> (Self::Model, RunStats);
    /// Bitwise model equality.
    fn identical(a: &Self::Model, b: &Self::Model) -> bool;
    /// The app's loss readout.
    fn loss(&self, model: &Self::Model) -> f64;
    /// App-specific `dsm` layer timings on the workload's data.
    fn dsm_layers(&self, ctx: &Ctx, model: &Self::Model, setup: &Setup, out: &mut Outcome);
}

/// Ratings of `mf_grid_threads`.
const MF_NNZ: usize = 500_000;

/// SGD MF, rank 32, Zipf-0.7 ratings; W + H (36k rows × 32 f32, 4.6 MB)
/// outgrow a 2 MiB L2.
pub struct Mf {
    data: RatingsData,
    cfg: MfConfig,
    items: Vec<(Vec<i64>, f32)>,
}

impl Mf {
    /// The workload's ratings from `ctx.seed`.
    pub fn generate(ctx: &Ctx) -> Self {
        let data = ctx.span("data", "RatingsData::generate", || {
            RatingsData::generate(ratings_config(ctx, MF_NNZ))
        });
        let items = data.items();
        Mf {
            data,
            cfg: mf_config(ctx),
            items,
        }
    }
}

/// The MF ratings generator shared by the MF workloads: `nnz` ratings
/// over 24k users × 12k items (smoke: 4k over 300 × 200).
pub fn ratings_config(ctx: &Ctx, nnz: usize) -> RatingsConfig {
    let (n_users, n_items, nnz) = if ctx.smoke {
        (300, 200, 4_000)
    } else {
        (24_000, 12_000, nnz)
    };
    RatingsConfig {
        n_users,
        n_items,
        nnz,
        true_rank: 8,
        skew: 0.7,
        noise: 0.1,
        seed: ctx.seed,
    }
}

/// MF hyperparameters: rank 32 (smoke: 8), init seeded from `ctx.seed`.
pub fn mf_config(ctx: &Ctx) -> MfConfig {
    MfConfig {
        seed: ctx.seed.wrapping_add(1),
        ..MfConfig::new(if ctx.smoke { 8 } else { 32 })
    }
}

/// What `sgd_mf`'s trainers do before their first pass on `cluster`:
/// materialise the ratings, initialise the model, register the arrays,
/// analyse and schedule the loop (declared as `sgd_mf` declares it) and
/// compile the threaded plan.
pub fn mf_setup(data: &RatingsData, cfg: &MfConfig, cluster: ClusterSpec, threads: usize) -> Setup {
    let items = data.items();
    let dims = data.ratings.shape().dims().to_vec();
    let model = MfModel::new(dims[0], dims[1], cfg.clone());
    let mut driver = Driver::new(cluster);
    driver.set_threads(threads);
    driver.set_math_mode(cfg.math);
    let z = driver.register(&data.ratings);
    let w = driver.register(&model.w);
    let h = driver.register(&model.h);
    let spec = LoopSpec::builder("sgd_mf", z, dims)
        .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
        .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
        .build()
        .expect("static MF spec is valid");
    let compiled = driver
        .parallel_for(spec, &items)
        .expect("MF loop parallelizes");
    let plan = driver.compile_threaded(&compiled);
    Setup {
        compiled,
        metas: driver.metas().to_vec(),
        plan,
    }
}

/// Times one sequential pass of the `mf_row_update` kernel over the
/// ratings, in nanoseconds per rating.
pub fn mf_kernel_ns_per_item(ctx: &Ctx, model: &MfModel, items: &[(Vec<i64>, f32)]) -> f64 {
    let triples: Vec<(i64, i64, f32)> = items.iter().map(|(i, v)| (i[0], i[1], *v)).collect();
    let (mut w, mut h) = (model.w.clone(), model.h.clone());
    let step = model.cfg.step_size;
    let (_, d) = timed(|| {
        ctx.span("dsm", "kernels::mf_row_update", || {
            for &(u, i, v) in &triples {
                kernels::mf_row_update(
                    w.row_slice_mut(u),
                    h.row_slice_mut(i),
                    v,
                    step,
                    MathMode::Exact,
                );
            }
        })
    });
    black_box((&w, &h));
    d.as_nanos() as f64 / triples.len().max(1) as f64
}

impl App for Mf {
    type Model = MfModel;

    fn items_per_pass(&self) -> usize {
        self.items.len()
    }

    fn indices(&self) -> Vec<&[i64]> {
        self.items.iter().map(|(i, _)| i.as_slice()).collect()
    }

    fn setup(&self, cluster: ClusterSpec, threads: usize) -> Setup {
        mf_setup(&self.data, &self.cfg, cluster, threads)
    }

    fn train(&self, threads: usize, passes: u64) -> MfModel {
        sgd_mf::train_threaded(&self.data, self.cfg.clone(), threads, passes, false).0
    }

    fn train_traced(&self, threads: usize, passes: u64) -> (MfModel, RunReport) {
        let (model, _, artifacts) =
            sgd_mf::train_threaded_traced(&self.data, self.cfg.clone(), threads, passes, false);
        (model, artifacts.report)
    }

    fn oracle(&self, threads: usize, passes: u64) -> (MfModel, RunStats) {
        let run = MfRunConfig {
            cluster: ClusterSpec::new(1, threads),
            passes,
            ordered: false,
        };
        sgd_mf::train_orion(&self.data, self.cfg.clone(), &run)
    }

    fn identical(a: &MfModel, b: &MfModel) -> bool {
        check::mf_identical(a, b)
    }

    fn loss(&self, model: &MfModel) -> f64 {
        model.loss(&self.items)
    }

    fn dsm_layers(&self, ctx: &Ctx, model: &MfModel, setup: &Setup, out: &mut Outcome) {
        out.set(
            "dsm.mf_kernel_ns_per_item",
            mf_kernel_ns_per_item(ctx, model, &self.items),
        );
        // The per-pass readout's partition round trip: split W and H
        // into the schedule's partitions and merge them back.
        let sched = &setup.compiled.schedule;
        let sp = &sched.space_partition.as_ref().expect("2-D schedule").ranges;
        let tp = &sched.time_partition.as_ref().expect("2-D schedule").ranges;
        let ms: Vec<f64> = (0..LAYER_REPS)
            .map(|_| {
                let (w, h) = (model.w.clone(), model.h.clone());
                let (merged, d) = timed(|| {
                    ctx.span("dsm", "DistArray::split_along+merge_along", || {
                        (
                            DistArray::merge_along(0, w.split_along(0, sp)),
                            DistArray::merge_along(0, h.split_along(0, tp)),
                        )
                    })
                });
                black_box(merged);
                d.as_secs_f64() * 1e3
            })
            .collect();
        out.set("dsm.split_merge_ms", median(&ms));
    }
}

/// Sparse LR: ~500k features, Zipf 0.9, 30 nonzeros per sample, 20k
/// samples.
pub struct Slr {
    data: SparseData,
    cfg: SlrConfig,
    idx: Vec<Vec<i64>>,
}

impl Slr {
    /// The workload's samples from `ctx.seed`.
    pub fn generate(ctx: &Ctx) -> Self {
        let (n_samples, n_features, nnz_per_sample) = if ctx.smoke {
            (300, 2_000, 10)
        } else {
            (20_000, 500_000, 30)
        };
        let data = ctx.span("data", "SparseData::generate", || {
            SparseData::generate(SparseConfig {
                n_samples,
                n_features,
                nnz_per_sample,
                skew: 0.9,
                informative_frac: 0.05,
                seed: ctx.seed,
            })
        });
        let idx = (0..data.samples.len() as i64).map(|i| vec![i]).collect();
        // The buffered schedule applies a whole pass of summed gradients
        // at once, so the Zipf head features diverge at larger steps;
        // at 1e-4 the loss falls every pass on every seed.
        Slr {
            data,
            cfg: SlrConfig {
                step_size: 1e-4,
                ..SlrConfig::new()
            },
            idx,
        }
    }
}

impl App for Slr {
    type Model = SlrModel;

    fn items_per_pass(&self) -> usize {
        self.data.samples.len()
    }

    fn indices(&self) -> Vec<&[i64]> {
        self.idx.iter().map(Vec::as_slice).collect()
    }

    fn setup(&self, cluster: ClusterSpec, threads: usize) -> Setup {
        let n = self.data.samples.len() as u64;
        let model = SlrModel::new(self.data.config.n_features, self.cfg.clone());
        let samples: DistArray<f32> = DistArray::sparse_from(
            "samples",
            vec![n],
            self.data
                .samples
                .iter()
                .enumerate()
                .map(|(i, s)| (vec![i as i64], s.label as f32)),
        );
        let items: Vec<(Vec<i64>, f32)> = samples.iter().map(|(i, &v)| (i, v)).collect();
        let mut driver = Driver::new(cluster);
        driver.set_threads(threads);
        driver.set_math_mode(self.cfg.math);
        let s = driver.register(&samples);
        let w = driver.register(&model.weights);
        driver.set_served_reads_per_iter(self.data.mean_nnz());
        let spec = LoopSpec::builder("slr_sgd", s, vec![n])
            .read(w, vec![Subscript::unknown()])
            .write(w, vec![Subscript::unknown()])
            .buffer_writes(w)
            .build()
            .expect("static SLR spec is valid");
        let compiled = driver
            .parallel_for(spec, &items)
            .expect("SLR loop parallelizes with buffers");
        let plan = driver.compile_threaded(&compiled);
        Setup {
            compiled,
            metas: driver.metas().to_vec(),
            plan,
        }
    }

    fn train(&self, threads: usize, passes: u64) -> SlrModel {
        slr::train_threaded(&self.data, self.cfg.clone(), threads, passes).0
    }

    fn train_traced(&self, threads: usize, passes: u64) -> (SlrModel, RunReport) {
        let (model, _, artifacts) =
            slr::train_threaded_traced(&self.data, self.cfg.clone(), threads, passes);
        (model, artifacts.report)
    }

    fn oracle(&self, threads: usize, passes: u64) -> (SlrModel, RunStats) {
        let run = SlrRunConfig {
            cluster: ClusterSpec::new(1, threads),
            passes,
            prefetch_override: None,
        };
        slr::train_orion(&self.data, self.cfg.clone(), &run)
    }

    fn identical(a: &SlrModel, b: &SlrModel) -> bool {
        check::slr_identical(a, b)
    }

    fn loss(&self, model: &SlrModel) -> f64 {
        model.loss(&self.data)
    }

    fn dsm_layers(&self, ctx: &Ctx, model: &SlrModel, setup: &Setup, out: &mut Outcome) {
        let weights = &model.weights;
        let samples = &self.data.samples;
        let (_, d) = timed(|| {
            ctx.span("dsm", "kernels::gather_sum", || {
                for s in samples {
                    black_box(kernels::gather_sum(
                        &s.features,
                        |f| weights.get_flat_or_default(f as u64),
                        MathMode::Exact,
                    ));
                }
            })
        });
        out.set(
            "dsm.gather_ns_per_sample",
            d.as_nanos() as f64 / samples.len() as f64,
        );

        // One pass's buffered writes: a buffer per worker filled from
        // that worker's share of the samples, then flushed in order.
        let workers = setup.plan.n_workers();
        let mut bufs: Vec<DistArrayBuffer<f32>> = (0..workers)
            .map(|_| DistArrayBuffer::additive(weights.shape().clone()))
            .collect();
        let chunk = samples.len().div_ceil(workers);
        let writes: usize = samples.iter().map(|s| s.features.len()).sum();
        let (_, d) = timed(|| {
            ctx.span("dsm", "DistArrayBuffer::write", || {
                for (buf, part) in bufs.iter_mut().zip(samples.chunks(chunk)) {
                    for s in part {
                        let delta = -self.cfg.step_size * s.label as f32;
                        for &f in &s.features {
                            buf.write(&[f as i64], delta);
                        }
                    }
                }
            })
        });
        out.set(
            "dsm.buffer_write_ns_per_item",
            d.as_nanos() as f64 / writes.max(1) as f64,
        );
        out.set(
            "dsm.buffer_bytes_per_pass",
            bufs.iter().map(DistArrayBuffer::payload_bytes).sum::<u64>() as f64,
        );
        let mut target = weights.clone();
        let (_, d) = timed(|| {
            ctx.span("dsm", "DistArrayBuffer::apply_to", || {
                for buf in &mut bufs {
                    buf.apply_to(&mut target, |w, delta| *w += delta);
                }
            })
        });
        black_box(&target);
        out.set("dsm.buffer_apply_ms", d.as_secs_f64() * 1e3);

        let ms: Vec<f64> = (0..LAYER_REPS)
            .map(|_| {
                let (snap, d) = timed(|| ctx.span("dsm", "DistArray::clone", || weights.clone()));
                black_box(snap);
                d.as_secs_f64() * 1e3
            })
            .collect();
        out.set("dsm.snapshot_clone_ms", median(&ms));
    }
}

/// Times `analyze`, `build_schedule` and `ThreadedPlan::compile` on the
/// set-up's spec, `LAYER_REPS` times each, and records their medians
/// and the plan's block count.
pub fn setup_layers(ctx: &Ctx, setup: &Setup, indices: &[&[i64]], out: &mut Outcome) {
    let spec = &setup.compiled.spec;
    let n = setup.plan.n_workers();
    let (mut a, mut s, mut c) = (Vec::new(), Vec::new(), Vec::new());
    let mut blocks = 0;
    for _ in 0..LAYER_REPS {
        let (plan, d) = timed(|| {
            ctx.span("analysis", "orion_analysis::analyze", || {
                analyze(spec, &setup.metas, n as u64)
            })
        });
        a.push(d.as_secs_f64() * 1e3);
        let (sched, d) = timed(|| {
            ctx.span("runtime", "orion_runtime::build_schedule", || {
                build_schedule(&plan.strategy, indices, &spec.iter_dims, n)
            })
        });
        s.push(d.as_secs_f64() * 1e3);
        let (tp, d) = timed(|| {
            ctx.span("runtime", "ThreadedPlan::compile", || {
                ThreadedPlan::compile(&sched)
            })
        });
        c.push(d.as_secs_f64() * 1e3);
        blocks = tp.blocks().n_blocks();
    }
    out.set("analysis.analyze_ms", median(&a));
    out.set("runtime.schedule_build_ms", median(&s));
    out.set("runtime.plan_compile_ms", median(&c));
    out.set("runtime.blocks_per_pass", blocks as f64);
}

/// Oracle models keyed by `(threads, passes)`.
type Oracles<M> = HashMap<(usize, u64), M>;

/// One checked training call: its wall seconds, or `None` when it
/// panicked or diverged from the oracle.
fn checked_call<A: App>(
    ctx: &Ctx,
    app: &A,
    oracles: &Oracles<A::Model>,
    threads: usize,
    passes: u64,
    tally: &mut Tally,
) -> Option<f64> {
    let (model, d) = timed(|| {
        ctx.span("apps", "train_threaded", || {
            caught(|| app.train(threads, passes))
        })
    });
    let ok = ctx.span("check", "bit-identity vs sim oracle", || {
        model
            .as_ref()
            .is_some_and(|m| A::identical(m, &oracles[&(threads, passes)]))
    });
    tally.record(ok);
    ok.then_some(d.as_secs_f64())
}

/// Time per pass of a `PASSES`-pass call of wall `t_train` whose round
/// measured set-up `t_setup`, in seconds.
fn pass_s(t_train: f64, t_setup: f64) -> Option<f64> {
    (t_train > t_setup).then(|| (t_train - t_setup) / PASSES as f64)
}

/// Runs the workload: end-to-end metrics untraced, per-layer metrics
/// when `ctx` carries a recorder.
pub fn run<A: App>(app: &A, ctx: &Ctx) -> Outcome {
    if ctx.rec.is_some() {
        layers(app, ctx)
    } else {
        end_to_end(app, ctx)
    }
}

fn end_to_end<A: App>(app: &A, ctx: &Ctx) -> Outcome {
    let n = ctx.nproc;
    let counts: Vec<usize> = if n > 1 { vec![n, 1] } else { vec![1] };
    let items = app.items_per_pass() as f64;
    let mut out = Outcome::default();

    let mut oracles = Oracles::new();
    let mut model_pass_s = 0.0;
    for &t in &counts {
        for p in [PASSES, SETUP_PASSES] {
            let (model, stats) = app.oracle(t, p);
            if (t, p) == (n, PASSES) {
                model_pass_s = stats.secs_per_iteration(1, u64::MAX).unwrap_or(0.0);
            }
            oracles.insert((t, p), model);
        }
    }

    // Per round at `nproc` workers: the set-up median, the training
    // call's wall and its time per pass.
    let (mut setup_s, mut walls, mut pass_ms) = (Vec::new(), Vec::new(), Vec::new());
    // Speedup per round, from adjacent calls, so slow drifts in the
    // host's load cancel.
    let mut speedups = Vec::new();
    let mut rounds = 0;
    while ctx.more(rounds, MIN_ROUNDS) {
        let mut round_pass = HashMap::new();
        for &t in &counts {
            let setups: Vec<f64> = (0..SETUP_REPS)
                .filter_map(|_| checked_call(ctx, app, &oracles, t, SETUP_PASSES, &mut out.tally))
                .collect();
            let wall = checked_call(ctx, app, &oracles, t, PASSES, &mut out.tally);
            let (Some(wall), false) = (wall, setups.is_empty()) else {
                continue;
            };
            let setup = median(&setups);
            if t == n {
                setup_s.push(setup);
                walls.push(wall);
            }
            round_pass.extend(pass_s(wall, setup).map(|p| (t, p)));
        }
        if let Some(&pn) = round_pass.get(&n) {
            pass_ms.push(pn * 1e3);
            if let Some(&p1) = round_pass.get(&1) {
                speedups.push(p1 / pn);
            }
        }
        rounds += 1;
    }

    let pass_p50 = median_or_zero(&pass_ms);
    out.set("setup_s", median_or_zero(&setup_s));
    out.set("wall_s", median_or_zero(&walls));
    out.set(
        "items_per_s",
        if pass_p50 > 0.0 {
            items / pass_p50 * 1e3
        } else {
            0.0
        },
    );
    out.set("speedup_vs_1w", median_or_zero(&speedups));
    out.set("step_ms_p50", pass_p50);
    out.set("final_loss", app.loss(&oracles[&(n, PASSES)]));

    println!(
        "rounds {rounds}, {items} items per pass, {PASSES} passes per training call, {SETUP_REPS} zero-pass set-up calls per worker count, workers {counts:?}"
    );
    println!(
        "train_s {:.4}  items_per_s {:.0}  speedup_vs_1w {:.3}  setup_s {:.4}  pass_ms p50 {:.3}  final_loss {:.6}",
        out.values["wall_s"],
        out.values["items_per_s"],
        out.values["speedup_vs_1w"],
        out.values["setup_s"],
        out.values["step_ms_p50"],
        out.values["final_loss"]
    );
    print_model_line(model_pass_s * 1e3, pass_p50, "pass");
    out
}

/// Prints the sim oracle's virtual time per step next to the measured
/// one, labelled as model output, and returns the relative error in %.
pub fn print_model_line(model_ms: f64, measured_ms: f64, step: &str) -> f64 {
    let err = if measured_ms > 0.0 {
        (model_ms - measured_ms) / measured_ms * 100.0
    } else {
        0.0
    };
    println!(
        "{step} ms: measured {measured_ms:.3} | model (sim virtual time) {model_ms:.3} | model error {err:+.1}%"
    );
    err
}

fn layers<A: App>(app: &A, ctx: &Ctx) -> Outcome {
    let n = ctx.nproc;
    let mut out = Outcome::default();

    let setup = ctx.span("apps", "training set-up (driver path)", || {
        app.setup(ClusterSpec::new(1, n), n)
    });
    setup_layers(ctx, &setup, &app.indices(), &mut out);

    let mut oracles = Oracles::new();
    let (model, stats) = ctx.span("sim", "train_orion", || app.oracle(n, PASSES));
    let model_pass_s = stats.secs_per_iteration(1, u64::MAX).unwrap_or(0.0);
    oracles.insert((n, PASSES), model);
    let setup_model = ctx.span("sim", "train_orion", || app.oracle(n, SETUP_PASSES).0);
    oracles.insert((n, SETUP_PASSES), setup_model);

    // Seconds per pass, untraced and traced, one of each per round.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut compute, mut rotation, mut idle, mut imbalance) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rounds = 0;
    while ctx.more(rounds, MIN_ROUNDS) {
        let t0 = checked_call(ctx, app, &oracles, n, SETUP_PASSES, &mut out.tally);
        let t = checked_call(ctx, app, &oracles, n, PASSES, &mut out.tally);
        plain.extend(t0.zip(t).and_then(|(s, w)| pass_s(w, s)));
        let traced_call = |passes: u64, tally: &mut Tally| {
            let (res, d) = timed(|| {
                ctx.span("apps", "train_threaded_traced", || {
                    caught(|| app.train_traced(n, passes))
                })
            });
            let ok = ctx.span("check", "bit-identity vs sim oracle", || {
                res.as_ref()
                    .is_some_and(|(m, _)| A::identical(m, &oracles[&(n, passes)]))
            });
            tally.record(ok);
            res.filter(|_| ok)
                .map(|(_, report)| (d.as_secs_f64(), report))
        };
        let t0 = traced_call(SETUP_PASSES, &mut out.tally);
        let t = traced_call(PASSES, &mut out.tally);
        if let (Some((t0, _)), Some((t, report))) = (t0, t) {
            traced.extend(pass_s(t, t0));
            let workers = report.per_worker.len().max(1) as f64;
            let c = report.phase_totals.get(SpanCat::Compute) as f64;
            let r = report.phase_totals.get(SpanCat::Rotation) as f64;
            compute.push(c / workers / PASSES as f64 / 1e6);
            rotation.push(r / workers / PASSES as f64 / 1e6);
            idle.push(1.0 - (c + r) / (workers * t * 1e9));
            imbalance.push(report.load.imbalance());
        }
        rounds += 1;
    }
    out.set("runtime.worker_compute_ms", median_or_zero(&compute));
    out.set("runtime.rotation_wait_ms", median_or_zero(&rotation));
    out.set("runtime.idle_share", median_or_zero(&idle));
    out.set("runtime.load_imbalance", median_or_zero(&imbalance));
    let (p, t) = (median_or_zero(&plain), median_or_zero(&traced));
    out.set(
        "trace.overhead_pct",
        if p > 0.0 { (t / p - 1.0) * 100.0 } else { 0.0 },
    );
    let err = print_model_line(model_pass_s * 1e3, p * 1e3, "pass");
    out.set("sim.pass_error_pct", err.abs());

    let final_model = &oracles[&(n, PASSES)];
    let loss_ms: Vec<f64> = (0..LAYER_REPS)
        .map(|_| {
            let (l, d) = timed(|| ctx.span("apps", "loss readout", || app.loss(final_model)));
            black_box(l);
            d.as_secs_f64() * 1e3
        })
        .collect();
    out.set("apps.loss_eval_ms", median(&loss_ms));
    app.dsm_layers(ctx, final_model, &setup, &mut out);
    println!(
        "rounds {rounds}: ms per pass untraced {:.3} traced {:.3} (trace.overhead_pct {:+.2})",
        p * 1e3,
        t * 1e3,
        out.values["trace.overhead_pct"]
    );
    out
}
