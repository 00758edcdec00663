//! SGD matrix factorization — the paper's running example (Alg. 1,
//! Figs. 5/6) and primary benchmark (Figs. 9–11, 13).
//!
//! Given a sparse ratings matrix `V` and rank `r`, find `W` (users × r)
//! and `H` (items × r) minimizing nonzero squared loss. The training
//! loop iterates over observed ratings; each iteration reads and writes
//! one row of `W` and one row of `H`, giving the dependence vectors
//! `{(0, +∞), (+∞, 0)}` and unordered-2D parallelization with the
//! smaller factor matrix rotating.
//!
//! Runners: serial, Orion-parallelized (ordered or unordered, with or
//! without adaptive revision), real-threaded Orion, Bösen-style data
//! parallelism ([`MfPsAdapter`]), and TensorFlow-style mini-batch
//! dataflow ([`MfDataflowAdapter`]).

use std::sync::Arc;

use orion_core::{
    ClusterSpec, DistArray, Driver, LoopSpec, MathMode, RunStats, Strategy, Subscript, TuneConfig,
    TuneOutcome,
};
use orion_data::RatingsData;
use orion_dsm::{kernels, Element};
use orion_ps::{PsApp, PsView, UpdateLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chaos::{run_chaos_loop, ChaosConfig, ChaosReport};
use crate::common::{cost, span_capacity, TraceArtifacts};
use orion_dsm::checkpoint;

/// SGD MF hyperparameters.
#[derive(Debug, Clone)]
pub struct MfConfig {
    /// Factorization rank.
    pub rank: usize,
    /// SGD step size.
    pub step_size: f32,
    /// AdaGrad-style per-row adaptive step (the serializable incarnation
    /// of adaptive revision \[34\]; under dependence-preserving execution
    /// there are no delayed updates to revise).
    pub adaptive: bool,
    /// Initialization seed.
    pub seed: u64,
    /// Floating-point reduction policy for the inner dot products.
    /// `Exact` (the default) keeps bit-identity with the serial seed;
    /// `FastMath` opts into vectorized multi-accumulator reductions
    /// (deterministic, differently associated — validated by the
    /// convergence-equivalence tests). Takes effect in every build, at
    /// ranks of at least `kernels::LANES`; shorter rows have no full
    /// lane chunk and sum serially.
    pub math: MathMode,
}

impl MfConfig {
    /// Defaults matching the benchmark harnesses.
    pub fn new(rank: usize) -> Self {
        MfConfig {
            rank,
            step_size: 0.05,
            adaptive: false,
            seed: 7,
            math: MathMode::Exact,
        }
    }

    /// Opts this run into [`MathMode::FastMath`] reductions.
    pub fn fast_math(mut self) -> Self {
        self.math = MathMode::FastMath;
        self
    }
}

/// The factor matrices plus adaptive accumulators.
#[derive(Debug, Clone)]
pub struct MfModel {
    /// User factors, users × rank.
    pub w: DistArray<f32>,
    /// Item factors, items × rank.
    pub h: DistArray<f32>,
    /// Per-user squared-gradient accumulators (adaptive mode).
    pub wz2: Vec<f32>,
    /// Per-item squared-gradient accumulators (adaptive mode).
    pub hz2: Vec<f32>,
    /// Hyperparameters.
    pub cfg: MfConfig,
}

impl MfModel {
    /// Randomly initializes factors (`Orion.randn` of Fig. 5).
    pub fn new(n_users: u64, n_items: u64, cfg: MfConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let scale = 1.0 / (cfg.rank as f32).sqrt();
        let sample = |rng: &mut StdRng| -> f32 {
            // Uniform in [-scale, scale): adequate symmetric init.
            (rng.random::<f32>() * 2.0 - 1.0) * scale
        };
        let w = DistArray::dense_from_fn("W", vec![n_users, cfg.rank as u64], |_| sample(&mut rng));
        let h = DistArray::dense_from_fn("H", vec![n_items, cfg.rank as u64], |_| sample(&mut rng));
        MfModel {
            w,
            h,
            wz2: vec![0.0; n_users as usize],
            hz2: vec![0.0; n_items as usize],
            cfg,
        }
    }

    /// Squared prediction error of one rating under the current factors.
    pub fn sq_err(&self, u: i64, i: i64, v: f32) -> f64 {
        let p = kernels::dot(self.w.row_slice(u), self.h.row_slice(i), self.cfg.math);
        ((v - p) as f64).powi(2)
    }

    /// Nonzero squared training loss over the items.
    pub fn loss(&self, items: &[(Vec<i64>, f32)]) -> f64 {
        items
            .iter()
            .map(|(idx, v)| self.sq_err(idx[0], idx[1], *v))
            .sum()
    }

    /// One SGD update (the loop body of Fig. 5). Returns the pre-update
    /// squared error.
    pub fn sgd_update(&mut self, u: i64, i: i64, v: f32) -> f64 {
        let step = self.effective_step(u, i, v);
        kernels::mf_row_update(
            self.w.row_slice_mut(u),
            self.h.row_slice_mut(i),
            v,
            step,
            self.cfg.math,
        )
    }

    /// The (possibly adaptive) step for one rating, updating the
    /// accumulators in adaptive mode.
    fn effective_step(&mut self, u: i64, i: i64, v: f32) -> f32 {
        if !self.cfg.adaptive {
            return self.cfg.step_size;
        }
        let diff = v - kernels::dot(self.w.row_slice(u), self.h.row_slice(i), self.cfg.math);
        let g2 = (diff * diff).min(1e6);
        self.wz2[u as usize] += g2;
        self.hz2[i as usize] += g2;
        let z = (self.wz2[u as usize] + self.hz2[i as usize]) * 0.5;
        // A gentler-than-AdaGrad decay (quartic root): under serializable
        // execution there are no delayed updates to damp, so the adaptive
        // rule only normalizes per-row step sizes.
        self.cfg.step_size * 4.0 / (1.0 + z).powf(0.25)
    }
}

/// Dot product of two equal-length rows, in exact (seed-bit-identical)
/// reduction order. Mode-aware callers go through
/// [`orion_dsm::kernels::dot`] directly.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    kernels::dot(a, b, MathMode::Exact)
}

/// The core SGD MF update on raw rows: `W_row -= step * grad_w`,
/// `H_row -= step * grad_h` (Alg. 1). Returns the pre-update squared
/// error. Shared by every engine (serial, simulated, threaded, PS);
/// delegates to [`orion_dsm::kernels::mf_row_update`] in exact mode.
pub fn mf_update(w_row: &mut [f32], h_row: &mut [f32], v: f32, step: f32) -> f64 {
    kernels::mf_row_update(w_row, h_row, v, step, MathMode::Exact)
}

/// How a run is labeled, sized and ordered.
#[derive(Debug, Clone)]
pub struct MfRunConfig {
    /// Simulated cluster.
    pub cluster: ClusterSpec,
    /// Data passes to run.
    pub passes: u64,
    /// Preserve lexicographic iteration order (`ordered` argument of
    /// `@parallel_for`).
    pub ordered: bool,
}

/// Builds the MF loop spec over registered arrays.
pub(crate) fn mf_spec(
    z: orion_core::DistArrayId,
    w: orion_core::DistArrayId,
    h: orion_core::DistArrayId,
    dims: Vec<u64>,
    ordered: bool,
) -> LoopSpec {
    let b = LoopSpec::builder("sgd_mf", z, dims)
        .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
        .read_write(h, vec![Subscript::loop_index(1), Subscript::Full]);
    let b = if ordered { b.ordered() } else { b };
    b.build().expect("static MF spec is valid")
}

/// Trains with Orion's automatic parallelization on the simulated
/// cluster, recording loss per pass.
pub fn train_orion(data: &RatingsData, cfg: MfConfig, run: &MfRunConfig) -> (MfModel, RunStats) {
    let (model, stats, _) = train_orion_impl(data, cfg, run, false);
    (model, stats)
}

/// [`train_orion`] with span tracing on: additionally returns the
/// Perfetto-exportable session and the run report. The training result
/// is bit-identical to the untraced run.
pub fn train_orion_traced(
    data: &RatingsData,
    cfg: MfConfig,
    run: &MfRunConfig,
) -> (MfModel, RunStats, TraceArtifacts) {
    let (model, stats, artifacts) = train_orion_impl(data, cfg, run, true);
    (
        model,
        stats,
        artifacts.expect("traced run yields artifacts"),
    )
}

fn train_orion_impl(
    data: &RatingsData,
    cfg: MfConfig,
    run: &MfRunConfig,
    traced: bool,
) -> (MfModel, RunStats, Option<TraceArtifacts>) {
    let items = data.items();
    let dims = data.ratings.shape().dims().to_vec();
    let mut model = MfModel::new(dims[0], dims[1], cfg);

    let mut driver = Driver::new(run.cluster.clone());
    driver.set_math_mode(model.cfg.math);
    let z_id = driver.register(&data.ratings);
    let w_id = driver.register(&model.w);
    let h_id = driver.register(&model.h);
    let spec = mf_spec(z_id, w_id, h_id, dims, run.ordered);
    let compiled = driver
        .parallel_for(spec, &items)
        .expect("MF loop parallelizes");
    debug_assert!(matches!(compiled.strategy(), Strategy::TwoD { .. }));
    if traced {
        driver.enable_tracing(span_capacity(&compiled.schedule, run.passes));
    }

    let iter_ns = cost::mf_iter_ns(model.cfg.rank) * cost::ORION_OVERHEAD;
    // Flat (user, item, rating) records: the hot loop indexes one
    // contiguous triple instead of chasing a heap-allocated index Vec
    // per rating.
    let triples: Vec<(i64, i64, f32)> = items.iter().map(|(i, v)| (i[0], i[1], *v)).collect();
    for pass in 0..run.passes {
        driver.run_pass(&compiled, &mut |_pos| iter_ns, &mut |_w, pos| {
            let (u, i, v) = triples[pos];
            model.sgd_update(u, i, v);
        });
        driver.record_progress(pass, model.loss(&items));
    }
    let artifacts = traced.then(|| TraceArtifacts::collect(&driver, "orion/sgd_mf", &compiled));
    (model, driver.finish(), artifacts)
}

/// [`train_orion`] behind the calibrating auto-tuner
/// (`Driver::run_pass_tuned`): the first pass calibrates the static
/// plan with seeded no-op passes, re-plans strategy / partition dims /
/// worker count / prefetch regime from measured costs, and trains on
/// the winner. Additionally returns the tuner's decision record (with
/// the `O020` diagnostic when the plan changed).
pub fn train_orion_tuned(
    data: &RatingsData,
    cfg: MfConfig,
    run: &MfRunConfig,
    tune: &TuneConfig,
) -> (MfModel, RunStats, TuneOutcome) {
    let items = data.items();
    let dims = data.ratings.shape().dims().to_vec();
    let mut model = MfModel::new(dims[0], dims[1], cfg);

    let mut driver = Driver::new(run.cluster.clone());
    driver.set_math_mode(model.cfg.math);
    let z_id = driver.register(&data.ratings);
    let w_id = driver.register(&model.w);
    let h_id = driver.register(&model.h);
    let spec = mf_spec(z_id, w_id, h_id, dims, run.ordered);
    let mut compiled = driver
        .parallel_for(spec, &items)
        .expect("MF loop parallelizes");

    let iter_ns = cost::mf_iter_ns(model.cfg.rank) * cost::ORION_OVERHEAD;
    let triples: Vec<(i64, i64, f32)> = items.iter().map(|(i, v)| (i[0], i[1], *v)).collect();
    for pass in 0..run.passes {
        driver.run_pass_tuned(
            &mut compiled,
            &items,
            tune,
            &mut |_pos| iter_ns,
            &mut |_w, pos| {
                let (u, i, v) = triples[pos];
                model.sgd_update(u, i, v);
            },
        );
        driver.record_progress(pass, model.loss(&items));
    }
    let outcome = driver
        .tune_outcome("sgd_mf")
        .expect("tuned loop has an outcome")
        .clone();
    (model, driver.finish(), outcome)
}

/// Trains under a fault plan with checkpoint-every-N recovery: crashes
/// discard the partial pass, reload `W`/`H` from the latest checkpoint,
/// and re-execute — ending bit-identical to the fault-free run (asserted
/// by `tests/chaos_recovery.rs`).
///
/// # Panics
///
/// Panics in adaptive mode: the `wz2`/`hz2` accumulators live outside
/// the checkpointed DistArrays, so restore could not reproduce them.
pub fn train_orion_chaos(
    data: &RatingsData,
    cfg: MfConfig,
    run: &MfRunConfig,
    chaos: &ChaosConfig,
) -> (MfModel, RunStats, ChaosReport) {
    let (model, stats, report, _) = train_orion_chaos_impl(data, cfg, run, chaos, false);
    (model, stats, report)
}

/// [`train_orion_chaos`] with span tracing on: additionally returns the
/// Perfetto-exportable session (with `Fault`/`Recovery`/`Checkpoint`
/// spans) and the run report carrying recovery-overhead totals.
pub fn train_orion_chaos_traced(
    data: &RatingsData,
    cfg: MfConfig,
    run: &MfRunConfig,
    chaos: &ChaosConfig,
) -> (MfModel, RunStats, ChaosReport, TraceArtifacts) {
    let (model, stats, report, artifacts) = train_orion_chaos_impl(data, cfg, run, chaos, true);
    (
        model,
        stats,
        report,
        artifacts.expect("traced run yields artifacts"),
    )
}

fn train_orion_chaos_impl(
    data: &RatingsData,
    cfg: MfConfig,
    run: &MfRunConfig,
    chaos: &ChaosConfig,
    traced: bool,
) -> (MfModel, RunStats, ChaosReport, Option<TraceArtifacts>) {
    assert!(
        !cfg.adaptive,
        "chaos recovery requires the plain update: adaptive accumulators are not checkpointed"
    );
    let items = data.items();
    let dims = data.ratings.shape().dims().to_vec();
    let mut model = MfModel::new(dims[0], dims[1], cfg);

    let mut driver = Driver::new(run.cluster.clone());
    let z_id = driver.register(&data.ratings);
    let w_id = driver.register(&model.w);
    let h_id = driver.register(&model.h);
    let spec = mf_spec(z_id, w_id, h_id, dims, run.ordered);
    let compiled = driver
        .parallel_for(spec, &items)
        .expect("MF loop parallelizes");
    driver.set_fault_plan(chaos.plan.clone());
    if traced {
        // Re-executed passes and fault spans need headroom beyond the
        // fault-free span count; the buffer grows if a plan exceeds it.
        driver.enable_tracing(span_capacity(&compiled.schedule, run.passes * 2 + 2));
    }
    std::fs::create_dir_all(&chaos.dir).expect("checkpoint dir is creatable");
    let policy = chaos.policy();

    let iter_ns = cost::mf_iter_ns(model.cfg.rank) * cost::ORION_OVERHEAD;
    let triples: Vec<(i64, i64, f32)> = items.iter().map(|(i, v)| (i[0], i[1], *v)).collect();
    let reexecuted = run_chaos_loop(
        &mut driver,
        &mut model,
        run.passes,
        &policy,
        |m| {
            checkpoint::save(&m.w, policy.path_for("W")).expect("checkpoint W")
                + checkpoint::save(&m.h, policy.path_for("H")).expect("checkpoint H")
        },
        |m| {
            m.w = checkpoint::load(policy.path_for("W")).expect("reload W");
            m.h = checkpoint::load(policy.path_for("H")).expect("reload H");
            let len = |p: &std::path::Path| std::fs::metadata(p).map_or(0, |md| md.len());
            len(&policy.path_for("W")) + len(&policy.path_for("H"))
        },
        |driver, m, pass| {
            let (_, fault) =
                driver.run_pass_checked(&compiled, &mut |_pos| iter_ns, &mut |_w, pos| {
                    let (u, i, v) = triples[pos];
                    m.sgd_update(u, i, v);
                });
            if fault.is_none() {
                driver.record_progress(pass, m.loss(&items));
            }
            fault
        },
    );
    let report = ChaosReport::from_stats(driver.recovery_stats(), reexecuted);
    let artifacts =
        traced.then(|| TraceArtifacts::collect(&driver, "orion/sgd_mf_chaos", &compiled));
    (model, driver.finish(), report, artifacts)
}

/// Trains serially (the plain Julia program of Fig. 5 without
/// `@parallel_for`): items in lexicographic order on one clock.
pub fn train_serial(data: &RatingsData, cfg: MfConfig, passes: u64) -> (MfModel, RunStats) {
    let items = data.items();
    let dims = data.ratings.shape().dims().to_vec();
    let mut model = MfModel::new(dims[0], dims[1], cfg);
    let mut driver = Driver::new(ClusterSpec::serial());
    let z_id = driver.register(&data.ratings);
    let w_id = driver.register(&model.w);
    let h_id = driver.register(&model.h);
    // Force the serial schedule: analysis is bypassed by an ordered spec
    // on a single worker; simpler to run the compiled serial path.
    let spec = mf_spec(z_id, w_id, h_id, dims, false);
    let compiled = driver.parallel_for(spec, &items).expect("valid spec");
    let iter_ns = cost::mf_iter_ns(model.cfg.rank);
    let triples: Vec<(i64, i64, f32)> = items.iter().map(|(i, v)| (i[0], i[1], *v)).collect();
    for pass in 0..passes {
        driver.run_pass(&compiled, &mut |_pos| iter_ns, &mut |_w, pos| {
            let (u, i, v) = triples[pos];
            model.sgd_update(u, i, v);
        });
        driver.record_progress(pass, model.loss(&items));
    }
    (model, driver.finish())
}

/// Runs one Orion pass on real OS threads (partition ownership +
/// channel rotation) and returns the updated model — used to demonstrate
/// and test true concurrent execution of the derived schedule.
///
/// Only the plain (non-adaptive) update is supported: the adaptive
/// accumulators are row-aligned with `W`/`H` and would need the same
/// partitioning.
///
/// # Panics
///
/// Panics if the compiled strategy is not a 2-D grid.
pub fn orion_pass_threaded(
    data: &RatingsData,
    model: MfModel,
    cluster: &ClusterSpec,
    ordered: bool,
) -> MfModel {
    let threads = cluster.n_workers();
    let (model, _, _) =
        train_threaded_impl(data, model, threads, cluster.clone(), 1, ordered, false);
    model
}

/// Trains for `passes` passes on the real-core execution path: a
/// persistent pool of `threads` workers, space partitions of `W`
/// pinned per worker, partitions of `H` rotated zero-copy through
/// channels (Fig. 8 pipelining). Bit-identical to [`train_orion`] on a
/// `ClusterSpec::new(1, threads)` cluster.
///
/// # Panics
///
/// Panics in adaptive mode (accumulators are not partitioned) and if a
/// worker thread dies.
pub fn train_threaded(
    data: &RatingsData,
    cfg: MfConfig,
    threads: usize,
    passes: u64,
    ordered: bool,
) -> (MfModel, RunStats) {
    let dims = data.ratings.shape().dims().to_vec();
    let model = MfModel::new(dims[0], dims[1], cfg);
    let cluster = ClusterSpec::new(1, threads);
    let (model, stats, _) =
        train_threaded_impl(data, model, threads, cluster, passes, ordered, false);
    (model, stats)
}

/// [`train_threaded`] with span tracing on: the measured wall-clock
/// compute and rotation phases of every worker land in the trace as
/// `Compute`/`Rotation` spans.
pub fn train_threaded_traced(
    data: &RatingsData,
    cfg: MfConfig,
    threads: usize,
    passes: u64,
    ordered: bool,
) -> (MfModel, RunStats, TraceArtifacts) {
    let dims = data.ratings.shape().dims().to_vec();
    let model = MfModel::new(dims[0], dims[1], cfg);
    let cluster = ClusterSpec::new(1, threads);
    let (model, stats, artifacts) =
        train_threaded_impl(data, model, threads, cluster, passes, ordered, true);
    (
        model,
        stats,
        artifacts.expect("traced run yields artifacts"),
    )
}

/// Shared engine of the threaded MF runners: takes the (already
/// initialized) model so single-pass callers can thread their own
/// state through.
fn train_threaded_impl(
    data: &RatingsData,
    model: MfModel,
    threads: usize,
    cluster: ClusterSpec,
    passes: u64,
    ordered: bool,
    traced: bool,
) -> (MfModel, RunStats, Option<TraceArtifacts>) {
    assert!(
        !model.cfg.adaptive,
        "threaded pass supports the plain update"
    );
    let items = data.items();
    let dims = data.ratings.shape().dims().to_vec();
    let mut driver = Driver::new(cluster);
    driver.set_threads(threads);
    driver.set_math_mode(model.cfg.math);
    let z_id = driver.register(&data.ratings);
    let w_id = driver.register(&model.w);
    let h_id = driver.register(&model.h);
    let spec = mf_spec(z_id, w_id, h_id, dims, ordered);
    let compiled = driver.parallel_for(spec, &items).expect("valid spec");
    if traced {
        driver.enable_tracing(span_capacity(&compiled.schedule, passes));
    }
    let plan = driver.compile_threaded(&compiled);
    let sched = &compiled.schedule;
    let sp = sched
        .space_partition
        .as_ref()
        .expect("2-D schedule has a space partition");
    let tp = sched
        .time_partition
        .as_ref()
        .expect("2-D schedule has a time partition");

    let step = model.cfg.step_size;
    let mode = driver.math_mode();
    let cfg = model.cfg.clone();
    let (wz2, hz2) = (model.wz2, model.hz2);
    let mut w_parts = model.w.split_along(0, &sp.ranges);
    let mut h_parts = model.h.split_along(0, &tp.ranges);
    // Flat (user, item, rating) triples shared with every worker: the
    // hot loop reads one contiguous record, no per-item index Vec.
    let triples: Arc<Vec<(i64, i64, f32)>> =
        Arc::new(items.iter().map(|(i, v)| (i[0], i[1], *v)).collect());
    let body = Arc::new(
        move |&(u, i, v): &(i64, i64, f32), wp: &mut DistArray<f32>, hp: &mut DistArray<f32>| {
            kernels::mf_row_update(wp.row_slice_mut(u), hp.row_slice_mut(i), v, step, mode);
        },
    );
    for pass in 0..passes {
        let out = driver.run_pass_threaded(
            &compiled.spec.name,
            &plan,
            &triples,
            w_parts,
            h_parts,
            &body,
        );
        w_parts = out.state;
        h_parts = out.parts;
        if passes > 1 {
            // Merge clones for the loss readout; partitions stay split
            // for the next pass.
            let snap = MfModel {
                w: DistArray::merge_along(0, w_parts.clone()),
                h: DistArray::merge_along(0, h_parts.clone()),
                wz2: Vec::new(),
                hz2: Vec::new(),
                cfg: cfg.clone(),
            };
            driver.record_progress(pass, snap.loss(&items));
        }
    }
    let model = MfModel {
        w: DistArray::merge_along(0, w_parts),
        h: DistArray::merge_along(0, h_parts),
        wz2,
        hz2,
        cfg,
    };
    let artifacts = traced.then(|| TraceArtifacts::collect(&driver, "threaded/sgd_mf", &compiled));
    (model, driver.finish(), artifacts)
}

/// Adapter running SGD MF under the Bösen-style parameter server
/// (manual data parallelism). Parameters are `[W; H]` flattened
/// row-major.
pub struct MfPsAdapter {
    items: Vec<(Vec<i64>, f32)>,
    n_users: usize,
    n_items: usize,
    cfg: MfConfig,
}

impl MfPsAdapter {
    /// Builds the adapter from a dataset.
    pub fn new(data: &RatingsData, cfg: MfConfig) -> Self {
        let dims = data.ratings.shape().dims();
        MfPsAdapter {
            items: data.items(),
            n_users: dims[0] as usize,
            n_items: dims[1] as usize,
            cfg,
        }
    }

    fn w_base(&self, u: i64) -> usize {
        u as usize * self.cfg.rank
    }

    fn h_base(&self, i: i64) -> usize {
        (self.n_users + i as usize) * self.cfg.rank
    }
}

impl PsApp for MfPsAdapter {
    fn n_params(&self) -> usize {
        (self.n_users + self.n_items) * self.cfg.rank
    }

    fn init_params(&self) -> Vec<f32> {
        // Identical initialization to MfModel::new for comparability.
        let model = MfModel::new(self.n_users as u64, self.n_items as u64, self.cfg.clone());
        let mut p = Vec::with_capacity(self.n_params());
        for u in 0..self.n_users as i64 {
            p.extend_from_slice(model.w.row_slice(u));
        }
        for i in 0..self.n_items as i64 {
            p.extend_from_slice(model.h.row_slice(i));
        }
        p
    }

    fn n_items(&self) -> usize {
        self.items.len()
    }

    fn item_cost_ns(&self, _item: usize) -> f64 {
        cost::mf_iter_ns(self.cfg.rank)
    }

    fn update(&self, item: usize, view: &PsView<'_>, out: &mut UpdateLog) {
        let (idx, v) = &self.items[item];
        let (wb, hb) = (self.w_base(idx[0]), self.h_base(idx[1]));
        let r = self.cfg.rank;
        let mut pred = 0.0f32;
        for k in 0..r {
            pred += view.get((wb + k) as u32) * view.get((hb + k) as u32);
        }
        let diff = v - pred;
        for k in 0..r {
            let w = view.get((wb + k) as u32);
            let h = view.get((hb + k) as u32);
            out.add((wb + k) as u32, 2.0 * diff * h);
            out.add((hb + k) as u32, 2.0 * diff * w);
        }
    }

    fn loss(&self, params: &[f32]) -> f64 {
        let r = self.cfg.rank;
        self.items
            .iter()
            .map(|(idx, v)| {
                let (wb, hb) = (self.w_base(idx[0]), self.h_base(idx[1]));
                let pred: f32 = (0..r).map(|k| params[wb + k] * params[hb + k]).sum();
                ((v - pred) as f64).powi(2)
            })
            .sum()
    }
}

/// Adapter running SGD MF as TensorFlow-style mini-batch dataflow.
pub struct MfDataflowAdapter(pub MfPsAdapter);

impl orion_dataflow::DataflowApp for MfDataflowAdapter {
    fn n_params(&self) -> usize {
        self.0.n_params()
    }

    fn init_params(&self) -> Vec<f32> {
        self.0.init_params()
    }

    fn n_items(&self) -> usize {
        self.0.items.len()
    }

    fn item_cost_ns(&self, item: usize) -> f64 {
        self.0.item_cost_ns(item)
    }

    fn gradient(&self, item: usize, params: &[f32], out: &mut Vec<(u32, f32)>) {
        let (idx, v) = &self.0.items[item];
        let (wb, hb) = (self.0.w_base(idx[0]), self.0.h_base(idx[1]));
        let r = self.0.cfg.rank;
        let pred: f32 = (0..r).map(|k| params[wb + k] * params[hb + k]).sum();
        let diff = v - pred;
        for k in 0..r {
            out.push(((wb + k) as u32, 2.0 * diff * params[hb + k]));
            out.push(((hb + k) as u32, 2.0 * diff * params[wb + k]));
        }
    }

    fn loss(&self, params: &[f32]) -> f64 {
        self.0.loss(params)
    }
}

/// Serialized-size helper used by byte-accounting tests.
pub fn model_bytes(model: &MfModel) -> u64 {
    model.w.payload_bytes() + model.h.payload_bytes() + (f32::WIRE_BYTES as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_data::RatingsConfig;

    fn tiny() -> RatingsData {
        RatingsData::generate(RatingsConfig::tiny())
    }

    #[test]
    fn serial_training_converges() {
        let data = tiny();
        let (model, stats) = train_serial(&data, MfConfig::new(4), 15);
        let l0 = stats.progress[0].metric;
        let lf = stats.final_metric().unwrap();
        assert!(lf < l0 * 0.5, "loss {lf} vs first-pass {l0}");
        assert!(model.loss(&data.items()) == lf);
    }

    #[test]
    fn orion_matches_serial_per_pass_closely() {
        // Dependence-aware parallelization preserves critical deps: the
        // per-pass loss curve must track serial execution closely (only
        // the iteration *order* differs).
        let data = tiny();
        let passes = 10;
        let (_, serial) = train_serial(&data, MfConfig::new(4), passes);
        let run = MfRunConfig {
            cluster: ClusterSpec::new(4, 2),
            passes,
            ordered: false,
        };
        let (_, orion) = train_orion(&data, MfConfig::new(4), &run);
        for (s, o) in serial.progress.iter().zip(&orion.progress) {
            let rel = (s.metric - o.metric).abs() / s.metric.max(1e-9);
            assert!(
                rel < 0.2,
                "pass {}: serial {} vs orion {} diverge",
                s.iteration,
                s.metric,
                o.metric
            );
        }
    }

    #[test]
    fn ordered_and_unordered_converge_similarly() {
        // Needs a compute-dominated regime (blocks larger than network
        // latency) for the throughput comparison to be meaningful.
        let data = RatingsData::generate(orion_data::RatingsConfig {
            n_users: 600,
            n_items: 480,
            nnz: 40_000,
            true_rank: 8,
            skew: 0.7,
            noise: 0.1,
            seed: 1,
        });
        let mk = |ordered| {
            let run = MfRunConfig {
                cluster: ClusterSpec::new(8, 4),
                passes: 6,
                ordered,
            };
            train_orion(&data, MfConfig::new(16), &run).1
        };
        let o = mk(true);
        let u = mk(false);
        let lo = o.final_metric().unwrap();
        let lu = u.final_metric().unwrap();
        assert!(
            (lo - lu).abs() / lo < 0.25,
            "ordered {lo} vs unordered {lu}"
        );
        // But unordered is faster per iteration (Table 3).
        let to = o.secs_per_iteration(2, 6).unwrap();
        let tu = u.secs_per_iteration(2, 6).unwrap();
        assert!(
            to > tu * 1.2,
            "ordered {to}s/iter should exceed unordered {tu}s/iter"
        );
    }

    #[test]
    fn threaded_pass_equals_simulated_pass() {
        let data = tiny();
        let cluster = ClusterSpec::new(2, 2);
        // Simulated single pass.
        let run = MfRunConfig {
            cluster: cluster.clone(),
            passes: 1,
            ordered: false,
        };
        let (sim_model, _) = train_orion(&data, MfConfig::new(4), &run);
        // Threaded single pass from the same initialization.
        let dims = data.ratings.shape().dims().to_vec();
        let fresh = MfModel::new(dims[0], dims[1], MfConfig::new(4));
        let thr_model = orion_pass_threaded(&data, fresh, &cluster, false);
        assert_eq!(sim_model.w, thr_model.w, "W must match bitwise");
        assert_eq!(sim_model.h, thr_model.h, "H must match bitwise");
    }

    #[test]
    fn data_parallel_converges_slower_per_pass_than_orion() {
        let data = RatingsData::generate(orion_data::RatingsConfig {
            n_users: 600,
            n_items: 480,
            nnz: 40_000,
            true_rank: 8,
            skew: 0.7,
            noise: 0.1,
            seed: 1,
        });
        let passes = 8;
        let cfg = MfConfig::new(16);
        let run = MfRunConfig {
            cluster: ClusterSpec::new(8, 4),
            passes,
            ordered: false,
        };
        let (_, orion) = train_orion(&data, cfg.clone(), &run);
        // The PS baseline gets its own tuned step size — the largest
        // stable one, as the paper tunes each system individually.
        let ps_cfg = orion_ps::PsConfig::vanilla(ClusterSpec::new(8, 4), 0.02);
        let mut ps = orion_ps::PsEngine::new(MfPsAdapter::new(&data, cfg), ps_cfg);
        for _ in 0..passes {
            ps.run_pass();
        }
        let ps_stats = ps.finish();
        let lo = orion.final_metric().unwrap();
        let lp = ps_stats.final_metric().unwrap();
        assert!(
            lo < lp * 0.9,
            "dependence-aware {lo} must beat stale data-parallel {lp} per pass"
        );
    }

    #[test]
    fn tuned_training_is_deterministic_and_never_slower() {
        let data = tiny();
        let run = MfRunConfig {
            cluster: ClusterSpec::new(2, 2),
            passes: 4,
            ordered: false,
        };
        let tune = TuneConfig::default();
        let (m1, _, o1) = train_orion_tuned(&data, MfConfig::new(4), &run, &tune);
        let (m2, _, o2) = train_orion_tuned(&data, MfConfig::new(4), &run, &tune);
        // Same schedule => bit-identical factors, same decision record.
        assert_eq!(m1.w, m2.w);
        assert_eq!(m1.h, m2.h);
        assert_eq!(o1, o2);
        assert!(o1.chosen.measured_ns <= o1.baseline.measured_ns);
    }

    #[test]
    fn adaptive_step_shrinks_over_time() {
        let data = tiny();
        let mut cfg = MfConfig::new(4);
        cfg.adaptive = true;
        let (model, stats) = train_serial(&data, cfg, 10);
        assert!(stats.final_metric().unwrap().is_finite());
        assert!(model.wz2.iter().any(|&z| z > 0.0));
    }

    #[test]
    fn update_reduces_pointwise_error() {
        let mut w = vec![0.1f32, -0.2, 0.3];
        let mut h = vec![0.2f32, 0.1, -0.1];
        let v = 1.0f32;
        let e0 = mf_update(&mut w, &mut h, v, 0.1);
        let pred = dot(&w, &h);
        assert!(((v - pred) as f64).powi(2) < e0);
    }
}
