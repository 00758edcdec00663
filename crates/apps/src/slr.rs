//! Sparse logistic regression — the workload whose subscripts defeat
//! static analysis (Table 2: "1D (data parallelism)"; §6.3 bulk
//! prefetching).
//!
//! Each sample reads and updates the weights of its nonzero features —
//! indices known only at runtime (`Subscript::Unknown`). Conservative
//! dependence analysis would serialize the loop, so the program exempts
//! the weight writes through a DistArray Buffer (§3.3), turning the loop
//! into 1-D data parallelism. The weight array is *served*
//! parameter-server style; Orion synthesizes a recording pass that
//! discovers the indices to prefetch in bulk (§4.4) — reproduced here by
//! running the loop body against an [`IndexRecorder`].

use orion_core::{
    ClusterSpec, DistArray, DistArrayBuffer, Driver, IndexRecorder, LoopSpec, MathMode,
    PrefetchMode, RunStats, Strategy, Subscript, TuneConfig, TuneOutcome,
};
use orion_data::SparseData;
use orion_dsm::kernels;
use std::sync::Arc;

use crate::chaos::{run_chaos_loop, ChaosConfig, ChaosReport};
use crate::common::{cost, sigmoid, span_capacity, TraceArtifacts};
use orion_dsm::checkpoint;

/// SLR hyperparameters.
#[derive(Debug, Clone)]
pub struct SlrConfig {
    /// SGD step size.
    pub step_size: f32,
    /// AdaGrad-style adaptive step in the buffer-apply UDF (the
    /// "SLR AdaRev" variant of Table 2).
    pub adaptive: bool,
    /// Floating-point reduction policy for the margin gather-sums.
    /// `Exact` (the default) keeps bit-identity with the serial seed;
    /// `FastMath` opts into vectorized multi-accumulator reductions
    /// (deterministic, differently associated), in every build.
    pub math: MathMode,
}

impl SlrConfig {
    /// Defaults used by the harnesses.
    pub fn new() -> Self {
        SlrConfig {
            step_size: 0.1,
            adaptive: false,
            math: MathMode::Exact,
        }
    }

    /// Opts this run into [`MathMode::FastMath`] reductions.
    pub fn fast_math(mut self) -> Self {
        self.math = MathMode::FastMath;
        self
    }
}

impl Default for SlrConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The weight vector plus adaptive accumulators.
#[derive(Debug, Clone)]
pub struct SlrModel {
    /// Feature weights (1-D, n_features).
    pub weights: DistArray<f32>,
    /// Per-feature squared-gradient accumulators (adaptive mode).
    pub z2: Vec<f32>,
    /// Hyperparameters.
    pub cfg: SlrConfig,
}

impl SlrModel {
    /// Zero-initialized weights.
    pub fn new(n_features: usize, cfg: SlrConfig) -> Self {
        SlrModel {
            weights: DistArray::dense("weights", vec![n_features as u64]),
            z2: vec![0.0; n_features],
            cfg,
        }
    }

    /// Margin of one sample under a weight lookup function: a gathered
    /// sum over the sample's active features, reduced per `mode`.
    pub(crate) fn margin_with(
        features: &[u32],
        get: impl FnMut(u32) -> f32,
        mode: MathMode,
    ) -> f32 {
        kernels::gather_sum(features, get, mode)
    }

    /// Mean logistic loss over the dataset.
    ///
    /// The weight vector is 1-D and unpartitioned, so a feature id *is*
    /// its flat offset — every lookup here and in the training loops
    /// skips subscript translation entirely.
    pub fn loss(&self, data: &SparseData) -> f64 {
        let mut total = 0.0f64;
        for s in &data.samples {
            let m = Self::margin_with(
                &s.features,
                |f| self.weights.get_flat_or_default(f as u64),
                self.cfg.math,
            );
            let ym = s.label as f32 * m;
            // log(1 + exp(-ym)), stable.
            total += if ym > 30.0 {
                0.0
            } else if ym < -30.0 {
                (-ym) as f64
            } else {
                ((-ym).exp() as f64).ln_1p()
            };
        }
        total / data.samples.len() as f64
    }
}

/// Gradient coefficient of one sample: `dL/dmargin = -y * sigmoid(-y m)`.
/// The per-feature descent direction is `-coef` on each active feature.
pub fn logistic_grad_coef(label: i8, margin: f32) -> f32 {
    -(label as f32) * sigmoid(-(label as f32) * margin)
}

/// Run configuration.
#[derive(Debug, Clone)]
pub struct SlrRunConfig {
    /// Simulated cluster.
    pub cluster: ClusterSpec,
    /// Data passes.
    pub passes: u64,
    /// Override the analyzer-chosen prefetch mode (the §6.3 experiment:
    /// `Disabled`, `Recorded`, `CachedRecorded`).
    pub prefetch_override: Option<PrefetchMode>,
}

/// Trains with Orion: 1-D data parallelism via buffered weight writes,
/// served weights with bulk prefetching.
pub fn train_orion(data: &SparseData, cfg: SlrConfig, run: &SlrRunConfig) -> (SlrModel, RunStats) {
    let (model, stats, _) = train_orion_impl(data, cfg, run, false);
    (model, stats)
}

/// [`train_orion`] with span tracing on: additionally returns the
/// Perfetto-exportable session and the run report.
pub fn train_orion_traced(
    data: &SparseData,
    cfg: SlrConfig,
    run: &SlrRunConfig,
) -> (SlrModel, RunStats, TraceArtifacts) {
    let (model, stats, artifacts) = train_orion_impl(data, cfg, run, true);
    (
        model,
        stats,
        artifacts.expect("traced run yields artifacts"),
    )
}

/// [`train_orion`] with profile-guided adaptive planning: a seeded
/// calibration pass fits the measured compute/bandwidth/skew into the
/// cost model, candidate plans (worker counts, prefetch regimes) are
/// re-measured, and the loop runs under the winner. SLR's recorded
/// prefetch pass re-executes every pass by default; the tuner discovers
/// that caching the recorded indices is strictly cheaper and upgrades
/// the regime (§6.3) — reported as an `O020` diagnostic.
pub fn train_orion_tuned(
    data: &SparseData,
    cfg: SlrConfig,
    run: &SlrRunConfig,
    tune: &TuneConfig,
) -> (SlrModel, RunStats, TuneOutcome) {
    let n_features = data.config.n_features;
    let mut model = SlrModel::new(n_features, cfg);
    let samples_arr: DistArray<f32> = DistArray::sparse_from(
        "samples",
        vec![data.samples.len() as u64],
        data.samples
            .iter()
            .enumerate()
            .map(|(i, s)| (vec![i as i64], s.label as f32)),
    );
    let items: Vec<(Vec<i64>, f32)> = samples_arr.iter().map(|(i, &v)| (i, v)).collect();

    let mut driver = Driver::new(run.cluster.clone());
    driver.set_math_mode(model.cfg.math);
    let mode = driver.math_mode();
    let samples_id = driver.register(&samples_arr);
    let weights_id = driver.register(&model.weights);
    driver.set_served_reads_per_iter(data.mean_nnz());
    let spec = LoopSpec::builder("slr_sgd", samples_id, vec![data.samples.len() as u64])
        .read(weights_id, vec![Subscript::unknown()])
        .write(weights_id, vec![Subscript::unknown()])
        .buffer_writes(weights_id)
        .build()
        .expect("static SLR spec is valid");
    let compiled = driver
        .parallel_for(spec, &items)
        .expect("SLR loop parallelizes with buffers");
    let iter_cost: Vec<f64> = data
        .samples
        .iter()
        .map(|s| cost::slr_iter_ns(s.features.len()) * cost::ORION_OVERHEAD)
        .collect();
    // Re-plan once up front: the tuned schedule fixes the worker count
    // the per-pass write buffers must match.
    let (compiled, outcome) = driver.tune_loop(&compiled, &items, tune, &mut |pos| iter_cost[pos]);
    let n_workers = compiled.schedule.n_workers;

    for pass in 0..run.passes {
        let mut buffers: Vec<DistArrayBuffer<f32>> = (0..n_workers)
            .map(|_| DistArrayBuffer::additive(model.weights.shape().clone()))
            .collect();
        {
            let weights = &model.weights;
            let step = model.cfg.step_size;
            driver.run_pass(&compiled, &mut |pos| iter_cost[pos], &mut |w, pos| {
                let sample = &data.samples[pos];
                let buf = &mut buffers[w];
                let margin = SlrModel::margin_with(
                    &sample.features,
                    |f| weights.get_flat_or_default(f as u64) + buf_read(buf, f),
                    mode,
                );
                let coef = logistic_grad_coef(sample.label, margin);
                for &f in &sample.features {
                    buf.write(&[f as i64], -step * coef);
                }
            });
        }
        let up: u64 = buffers.iter().map(DistArrayBuffer::payload_bytes).sum();
        driver.sync_exchange(up / n_workers as u64, up / n_workers as u64);
        for buf in &mut buffers {
            apply_buffer(&mut model, buf);
        }
        driver.record_progress(pass, model.loss(data));
    }
    (model, driver.finish(), outcome)
}

fn train_orion_impl(
    data: &SparseData,
    cfg: SlrConfig,
    run: &SlrRunConfig,
    traced: bool,
) -> (SlrModel, RunStats, Option<TraceArtifacts>) {
    let n_features = data.config.n_features;
    let mut model = SlrModel::new(n_features, cfg);
    // The iteration space: one element per sample, valued by its label.
    let samples_arr: DistArray<f32> = DistArray::sparse_from(
        "samples",
        vec![data.samples.len() as u64],
        data.samples
            .iter()
            .enumerate()
            .map(|(i, s)| (vec![i as i64], s.label as f32)),
    );
    let items: Vec<(Vec<i64>, f32)> = samples_arr.iter().map(|(i, &v)| (i, v)).collect();

    let mut driver = Driver::new(run.cluster.clone());
    driver.set_math_mode(model.cfg.math);
    let mode = driver.math_mode();
    let samples_id = driver.register(&samples_arr);
    let weights_id = driver.register(&model.weights);
    driver.set_served_reads_per_iter(data.mean_nnz());
    let spec = LoopSpec::builder("slr_sgd", samples_id, vec![data.samples.len() as u64])
        .read(weights_id, vec![Subscript::unknown()])
        .write(weights_id, vec![Subscript::unknown()])
        .buffer_writes(weights_id)
        .build()
        .expect("static SLR spec is valid");
    let mut compiled = driver
        .parallel_for(spec, &items)
        .expect("SLR loop parallelizes with buffers");
    debug_assert!(matches!(
        compiled.strategy(),
        Strategy::FullyParallel { .. }
    ));
    if let (Some(mode), Some(served)) = (run.prefetch_override, compiled.comm.served.as_mut()) {
        served.mode = mode;
    }
    if traced {
        driver.enable_tracing(span_capacity(&compiled.schedule, run.passes));
    }

    // The synthesized prefetch function (the recording pass of §4.4):
    // execute only the subscript-producing statements and log indices.
    // Its *observable output* — how many weight values each pass
    // prefetches — feeds the communication model via mean_nnz above; the
    // recorder also proves the synthesized pass visits exactly the
    // accessed indices (asserted in tests).
    let n_workers = compiled.schedule.n_workers;
    let iter_cost: Vec<f64> = data
        .samples
        .iter()
        .map(|s| cost::slr_iter_ns(s.features.len()) * cost::ORION_OVERHEAD)
        .collect();

    for pass in 0..run.passes {
        let mut buffers: Vec<DistArrayBuffer<f32>> = (0..n_workers)
            .map(|_| DistArrayBuffer::additive(model.weights.shape().clone()))
            .collect();
        {
            let weights = &model.weights;
            let step = model.cfg.step_size;
            driver.run_pass(&compiled, &mut |pos| iter_cost[pos], &mut |w, pos| {
                let sample = &data.samples[pos];
                let buf = &mut buffers[w];
                // Worker view: shared snapshot + its own buffered writes.
                let margin = SlrModel::margin_with(
                    &sample.features,
                    |f| weights.get_flat_or_default(f as u64) + buf_read(buf, f),
                    mode,
                );
                let coef = logistic_grad_coef(sample.label, margin);
                for &f in &sample.features {
                    buf.write(&[f as i64], -step * coef);
                }
            });
        }
        // Flush buffers: exchange bytes, then apply with the UDF.
        let up: u64 = buffers.iter().map(DistArrayBuffer::payload_bytes).sum();
        driver.sync_exchange(up / n_workers as u64, up / n_workers as u64);
        for buf in &mut buffers {
            apply_buffer(&mut model, buf);
        }
        driver.record_progress(pass, model.loss(data));
    }
    let artifacts = traced.then(|| TraceArtifacts::collect(&driver, "orion/slr", &compiled));
    (model, driver.finish(), artifacts)
}

/// Trains under a fault plan with checkpoint-every-N recovery. The
/// weight DistArray only mutates at the pass-end buffer apply, so a
/// crashed pass simply discards its buffers; restore then rewinds the
/// weights to the latest checkpoint and the passes since re-execute,
/// ending bit-identical to the fault-free run.
///
/// # Panics
///
/// Panics in adaptive mode: the `z2` accumulators live outside the
/// checkpointed DistArray.
pub fn train_orion_chaos(
    data: &SparseData,
    cfg: SlrConfig,
    run: &SlrRunConfig,
    chaos: &ChaosConfig,
) -> (SlrModel, RunStats, ChaosReport) {
    assert!(
        !cfg.adaptive,
        "chaos recovery requires the plain update: adaptive accumulators are not checkpointed"
    );
    let n_features = data.config.n_features;
    let mut model = SlrModel::new(n_features, cfg);
    let samples_arr: DistArray<f32> = DistArray::sparse_from(
        "samples",
        vec![data.samples.len() as u64],
        data.samples
            .iter()
            .enumerate()
            .map(|(i, s)| (vec![i as i64], s.label as f32)),
    );
    let items: Vec<(Vec<i64>, f32)> = samples_arr.iter().map(|(i, &v)| (i, v)).collect();

    let mut driver = Driver::new(run.cluster.clone());
    driver.set_math_mode(model.cfg.math);
    let mode = driver.math_mode();
    let samples_id = driver.register(&samples_arr);
    let weights_id = driver.register(&model.weights);
    driver.set_served_reads_per_iter(data.mean_nnz());
    let spec = LoopSpec::builder("slr_sgd", samples_id, vec![data.samples.len() as u64])
        .read(weights_id, vec![Subscript::unknown()])
        .write(weights_id, vec![Subscript::unknown()])
        .buffer_writes(weights_id)
        .build()
        .expect("static SLR spec is valid");
    let mut compiled = driver
        .parallel_for(spec, &items)
        .expect("SLR loop parallelizes with buffers");
    if let (Some(mode), Some(served)) = (run.prefetch_override, compiled.comm.served.as_mut()) {
        served.mode = mode;
    }
    driver.set_fault_plan(chaos.plan.clone());
    std::fs::create_dir_all(&chaos.dir).expect("checkpoint dir is creatable");
    let policy = chaos.policy();

    let n_workers = compiled.schedule.n_workers;
    let iter_cost: Vec<f64> = data
        .samples
        .iter()
        .map(|s| cost::slr_iter_ns(s.features.len()) * cost::ORION_OVERHEAD)
        .collect();
    let reexecuted = run_chaos_loop(
        &mut driver,
        &mut model,
        run.passes,
        &policy,
        |m| checkpoint::save(&m.weights, policy.path_for("weights")).expect("checkpoint weights"),
        |m| {
            m.weights = checkpoint::load(policy.path_for("weights")).expect("reload weights");
            std::fs::metadata(policy.path_for("weights")).map_or(0, |md| md.len())
        },
        |driver, m, pass| {
            let mut buffers: Vec<DistArrayBuffer<f32>> = (0..n_workers)
                .map(|_| DistArrayBuffer::additive(m.weights.shape().clone()))
                .collect();
            let fault = {
                let weights = &m.weights;
                let step = m.cfg.step_size;
                let (_, fault) =
                    driver.run_pass_checked(&compiled, &mut |pos| iter_cost[pos], &mut |w, pos| {
                        let sample = &data.samples[pos];
                        let buf = &mut buffers[w];
                        let margin = SlrModel::margin_with(
                            &sample.features,
                            |f| weights.get_flat_or_default(f as u64) + buf_read(buf, f),
                            mode,
                        );
                        let coef = logistic_grad_coef(sample.label, margin);
                        for &f in &sample.features {
                            buf.write(&[f as i64], -step * coef);
                        }
                    });
                fault
            };
            if fault.is_some() {
                // Crash mid-pass: the buffered updates never reached the
                // weights; dropping the buffers erases the pass.
                return fault;
            }
            let up: u64 = buffers.iter().map(DistArrayBuffer::payload_bytes).sum();
            driver.sync_exchange(up / n_workers as u64, up / n_workers as u64);
            for buf in &mut buffers {
                apply_buffer(m, buf);
            }
            driver.record_progress(pass, m.loss(data));
            None
        },
    );
    let report = ChaosReport::from_stats(driver.recovery_stats(), reexecuted);
    (model, driver.finish(), report)
}

/// Peeks a buffered (pending) delta without draining.
fn buf_read(buf: &DistArrayBuffer<f32>, _f: u32) -> f32 {
    // DistArrayBuffer intentionally exposes no random reads (buffered
    // writes are exempt from dependence analysis precisely because they
    // are not read back, §3.3); worker-local visibility of one's own
    // updates is approximated as zero correction.
    let _ = buf;
    0.0
}

/// Applies one worker's buffered writes with the configured UDF — plain
/// addition, or the AdaGrad-style adaptive step of the "SLR AdaRev"
/// variant (the apply-UDF hook of §3.3 that "makes it easy to implement
/// various adaptive gradient algorithms").
pub(crate) fn apply_buffer(model: &mut SlrModel, buf: &mut DistArrayBuffer<f32>) {
    if model.cfg.adaptive {
        let step = model.cfg.step_size;
        for (idx, delta) in buf.drain() {
            let f = idx[0] as usize;
            // Recover the accumulated gradient from the pre-scaled delta.
            let g = delta / step;
            model.z2[f] += g * g;
            let scale = 2.0 / (1.0 + model.z2[f]).sqrt();
            model.weights.update_flat(f as u64, |w| *w += delta * scale);
        }
    } else {
        buf.apply_to(&mut model.weights, |wv, delta| *wv += delta);
    }
}

/// Trains on the real-core execution path: the buffered 1-D
/// data-parallel schedule runs on a persistent pool of `threads` OS
/// threads, each worker filling its own write buffer against a shared
/// weight snapshot. Bit-identical to [`train_orion`] on a
/// `ClusterSpec::new(1, threads)` cluster — buffers accumulate the same
/// deltas in the same order and apply in worker order.
///
/// # Panics
///
/// Panics if a worker thread dies.
pub fn train_threaded(
    data: &SparseData,
    cfg: SlrConfig,
    threads: usize,
    passes: u64,
) -> (SlrModel, RunStats) {
    let (model, stats, _) = train_threaded_impl(data, cfg, threads, passes, false);
    (model, stats)
}

/// [`train_threaded`] with span tracing on: every worker's measured
/// wall-clock compute phases land in the trace as `Compute` spans.
pub fn train_threaded_traced(
    data: &SparseData,
    cfg: SlrConfig,
    threads: usize,
    passes: u64,
) -> (SlrModel, RunStats, TraceArtifacts) {
    let (model, stats, artifacts) = train_threaded_impl(data, cfg, threads, passes, true);
    (
        model,
        stats,
        artifacts.expect("traced run yields artifacts"),
    )
}

fn train_threaded_impl(
    data: &SparseData,
    cfg: SlrConfig,
    threads: usize,
    passes: u64,
    traced: bool,
) -> (SlrModel, RunStats, Option<TraceArtifacts>) {
    let n_features = data.config.n_features;
    let mut model = SlrModel::new(n_features, cfg);
    let samples_arr: DistArray<f32> = DistArray::sparse_from(
        "samples",
        vec![data.samples.len() as u64],
        data.samples
            .iter()
            .enumerate()
            .map(|(i, s)| (vec![i as i64], s.label as f32)),
    );
    let items: Vec<(Vec<i64>, f32)> = samples_arr.iter().map(|(i, &v)| (i, v)).collect();

    let mut driver = Driver::new(ClusterSpec::new(1, threads));
    driver.set_threads(threads);
    driver.set_math_mode(model.cfg.math);
    let mode = driver.math_mode();
    let samples_id = driver.register(&samples_arr);
    let weights_id = driver.register(&model.weights);
    driver.set_served_reads_per_iter(data.mean_nnz());
    let spec = LoopSpec::builder("slr_sgd", samples_id, vec![data.samples.len() as u64])
        .read(weights_id, vec![Subscript::unknown()])
        .write(weights_id, vec![Subscript::unknown()])
        .buffer_writes(weights_id)
        .build()
        .expect("static SLR spec is valid");
    let compiled = driver
        .parallel_for(spec, &items)
        .expect("SLR loop parallelizes with buffers");
    if traced {
        driver.enable_tracing(span_capacity(&compiled.schedule, passes));
    }
    let plan = driver.compile_threaded(&compiled);
    let n_workers = plan.n_workers();

    // Samples shared immutably with every worker; the schedule's item
    // positions are sample indices.
    let samples = Arc::new(data.samples.clone());
    let step = model.cfg.step_size;
    for pass in 0..passes {
        let buffers: Vec<DistArrayBuffer<f32>> = (0..n_workers)
            .map(|_| DistArrayBuffer::additive(model.weights.shape().clone()))
            .collect();
        // Per-pass weight snapshot: workers read the pass-start weights
        // (buffered writes are invisible until the flush), exactly like
        // the simulated engine.
        let weights = Arc::new(model.weights.clone());
        let body = {
            let weights = Arc::clone(&weights);
            Arc::new(
                move |sample: &orion_data::SparseSample,
                      buf: &mut DistArrayBuffer<f32>,
                      _: &mut ()| {
                    let margin = SlrModel::margin_with(
                        &sample.features,
                        |f| weights.get_flat_or_default(f as u64) + buf_read(buf, f),
                        mode,
                    );
                    let coef = logistic_grad_coef(sample.label, margin);
                    for &f in &sample.features {
                        buf.write(&[f as i64], -step * coef);
                    }
                },
            )
        };
        let pinned = vec![(); n_workers];
        let out =
            driver.run_pass_threaded(&compiled.spec.name, &plan, &samples, buffers, pinned, &body);
        let mut buffers = out.state;
        let up: u64 = buffers.iter().map(DistArrayBuffer::payload_bytes).sum();
        driver.sync_exchange(up / n_workers as u64, up / n_workers as u64);
        for buf in &mut buffers {
            apply_buffer(&mut model, buf);
        }
        driver.record_progress(pass, model.loss(data));
    }
    let artifacts = traced.then(|| TraceArtifacts::collect(&driver, "threaded/slr", &compiled));
    (model, driver.finish(), artifacts)
}

/// Trains serially: immediate weight updates, one worker.
pub fn train_serial(data: &SparseData, cfg: SlrConfig, passes: u64) -> (SlrModel, RunStats) {
    let mut model = SlrModel::new(data.config.n_features, cfg);
    let mut driver = Driver::new(ClusterSpec::serial());
    driver.set_math_mode(model.cfg.math);
    let mode = driver.math_mode();
    let samples_arr: DistArray<f32> = DistArray::sparse_from(
        "samples",
        vec![data.samples.len() as u64],
        data.samples
            .iter()
            .enumerate()
            .map(|(i, s)| (vec![i as i64], s.label as f32)),
    );
    let items: Vec<(Vec<i64>, f32)> = samples_arr.iter().map(|(i, &v)| (i, v)).collect();
    let samples_id = driver.register(&samples_arr);
    let weights_id = driver.register(&model.weights);
    // Serial program: no buffering, direct writes (the original
    // imperative loop before parallelization).
    let spec = LoopSpec::builder("slr_serial", samples_id, vec![data.samples.len() as u64])
        .read(weights_id, vec![Subscript::unknown()])
        .write(weights_id, vec![Subscript::unknown()])
        .build()
        .expect("valid spec");
    let compiled = driver
        .parallel_for(spec, &items)
        .expect("compiles (serial)");
    debug_assert!(matches!(compiled.strategy(), Strategy::Serial));
    let iter_cost: Vec<f64> = data
        .samples
        .iter()
        .map(|s| cost::slr_iter_ns(s.features.len()))
        .collect();
    for pass in 0..passes {
        {
            let weights = &mut model.weights;
            let step = model.cfg.step_size;
            driver.run_pass(&compiled, &mut |pos| iter_cost[pos], &mut |_w, pos| {
                let sample = &data.samples[pos];
                let margin = SlrModel::margin_with(
                    &sample.features,
                    |f| weights.get_flat_or_default(f as u64),
                    mode,
                );
                let coef = logistic_grad_coef(sample.label, margin);
                for &f in &sample.features {
                    weights.update_flat(f as u64, |w| *w -= step * coef);
                }
            });
        }
        driver.record_progress(pass, model.loss(data));
    }
    (model, driver.finish())
}

/// Runs the synthesized prefetch recording pass over one block of
/// samples: executes only the subscript-producing statements and records
/// the weight indices that would be read (§4.4).
pub fn record_prefetch_indices(data: &SparseData, block: &[usize]) -> Vec<u64> {
    let mut rec = IndexRecorder::new();
    for &pos in block {
        for &f in &data.samples[pos].features {
            rec.record(f as u64);
        }
    }
    rec.take_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_data::SparseConfig;

    fn data() -> SparseData {
        SparseData::generate(SparseConfig::tiny())
    }

    #[test]
    fn serial_training_reduces_loss() {
        let d = data();
        let (model, stats) = train_serial(&d, SlrConfig::new(), 10);
        let l0 = stats.progress[0].metric;
        let lf = stats.final_metric().unwrap();
        assert!(lf < l0, "loss should fall: {l0} -> {lf}");
        assert!(lf < 0.65, "final loss {lf} too high");
        let _ = model;
    }

    #[test]
    fn threaded_pass_equals_simulated_pass() {
        let d = data();
        let (threads, passes) = (3, 4);
        let run = SlrRunConfig {
            cluster: ClusterSpec::new(1, threads),
            passes,
            prefetch_override: None,
        };
        let (sim, sim_stats) = train_orion(&d, SlrConfig::new(), &run);
        let (thr, thr_stats) = train_threaded(&d, SlrConfig::new(), threads, passes);
        for f in 0..d.config.n_features as u64 {
            assert_eq!(
                sim.weights.get_flat_or_default(f).to_bits(),
                thr.weights.get_flat_or_default(f).to_bits(),
                "weight {f} diverged"
            );
        }
        assert_eq!(sim_stats.final_metric(), thr_stats.final_metric());
    }

    #[test]
    fn orion_data_parallel_converges() {
        let d = data();
        let run = SlrRunConfig {
            cluster: ClusterSpec::new(4, 2),
            passes: 10,
            prefetch_override: None,
        };
        let (_, stats) = train_orion(&d, SlrConfig::new(), &run);
        let l0 = stats.progress[0].metric;
        let lf = stats.final_metric().unwrap();
        assert!(lf < l0, "loss should fall: {l0} -> {lf}");
    }

    #[test]
    fn prefetch_modes_change_time_not_result() {
        let d = data();
        let mk = |mode| {
            let run = SlrRunConfig {
                cluster: ClusterSpec::new(2, 2),
                passes: 3,
                prefetch_override: Some(mode),
            };
            train_orion(&d, SlrConfig::new(), &run).1
        };
        let none = mk(PrefetchMode::Disabled);
        let rec = mk(PrefetchMode::Recorded);
        let cached = mk(PrefetchMode::CachedRecorded);
        // Same algorithm, same losses.
        assert_eq!(
            none.final_metric().unwrap(),
            rec.final_metric().unwrap(),
            "prefetching must not change results"
        );
        // But wildly different times (§6.3: 7682 s vs 9.2 s vs 6.3 s).
        let t_none = none.progress.last().unwrap().time;
        let t_rec = rec.progress.last().unwrap().time;
        let t_cached = cached.progress.last().unwrap().time;
        assert!(
            t_none.as_secs_f64() > t_rec.as_secs_f64() * 5.0,
            "no-prefetch {t_none} must dwarf recorded {t_rec}"
        );
        assert!(t_cached < t_rec, "cached {t_cached} beats recorded {t_rec}");
    }

    #[test]
    fn recorded_indices_match_accessed_features() {
        let d = data();
        let block: Vec<usize> = (0..10).collect();
        let rec = record_prefetch_indices(&d, &block);
        let mut expect: Vec<u64> = block
            .iter()
            .flat_map(|&i| d.samples[i].features.iter().map(|&f| f as u64))
            .collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(rec, expect);
    }

    #[test]
    fn tuned_training_upgrades_prefetch_and_is_deterministic() {
        let d = data();
        let run = SlrRunConfig {
            cluster: ClusterSpec::new(2, 2),
            passes: 3,
            prefetch_override: None,
        };
        let mk = || train_orion_tuned(&d, SlrConfig::new(), &run, &TuneConfig::default());
        let (m1, s1, o1) = mk();
        let (m2, s2, o2) = mk();
        // Bit-identical models and stats across runs.
        for f in 0..d.config.n_features as u64 {
            assert_eq!(
                m1.weights.get_flat_or_default(f).to_bits(),
                m2.weights.get_flat_or_default(f).to_bits(),
                "weight {f} diverged across tuned runs"
            );
        }
        assert_eq!(s1.final_metric(), s2.final_metric());
        assert_eq!(o1.chosen.label, o2.chosen.label);
        assert_eq!(o1.chosen.measured_ns, o2.chosen.measured_ns);
        // The tuner never picks a slower plan than the static baseline,
        // and for SLR it should strictly win by caching the recorded
        // prefetch indices (the §6.3 regime the static planner re-records
        // every pass).
        assert!(o1.chosen.measured_ns <= o1.baseline.measured_ns);
        assert!(o1.replanned, "SLR should re-plan to cached prefetch");
        assert!(
            o1.chosen.label.contains("cached prefetch"),
            "expected a cached-prefetch upgrade, chose: {}",
            o1.chosen.label
        );
        // The tuner may pick a different worker count, which regroups
        // the buffered updates (exactly as static would with that
        // count) — float reorder only, so losses match static to high
        // precision even when not bit-identical.
        let (_, static_stats) = train_orion(&d, SlrConfig::new(), &run);
        let lf = s1.final_metric().unwrap();
        let ls = static_stats.final_metric().unwrap();
        assert!(
            (lf - ls).abs() < 1e-6,
            "tuning must not change the algorithm: tuned {lf} vs static {ls}"
        );
    }

    #[test]
    fn more_workers_degrade_per_pass_convergence_mildly() {
        // Data parallelism: staleness grows with workers; per-pass loss
        // should be no better than serial.
        let d = data();
        let (_, serial) = train_serial(&d, SlrConfig::new(), 6);
        let run = SlrRunConfig {
            cluster: ClusterSpec::new(8, 4),
            passes: 6,
            prefetch_override: None,
        };
        let (_, par) = train_orion(&d, SlrConfig::new(), &run);
        assert!(
            serial.final_metric().unwrap() <= par.final_metric().unwrap() + 1e-9,
            "serial should be at least as good per pass"
        );
    }
}
