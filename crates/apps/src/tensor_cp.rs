//! CP (CANDECOMP/PARAFAC) tensor decomposition by SGD — a 3-dimensional
//! iteration space, beyond the paper's 2-D applications.
//!
//! Each observed entry `X[i,j,k]` reads and writes one row of each of
//! the three factor matrices `U`, `V`, `S`. Three all-pairs-conflicting
//! dependence families mean **no pair of dimensions annihilates every
//! dependence vector**: the analyzer correctly refuses both 1-D and 2-D
//! parallelization (and the `∞` components rule out unimodular
//! transformation), so the loop as written is serial.
//!
//! The programming model's escape hatch applies exactly as the paper
//! prescribes for such cases (§3.3): buffer the *smallest* factor's
//! writes (the context factor `S`, updated through a DistArray Buffer at
//! pass boundaries). That removes its dependence family, and the
//! analyzer now derives unordered 2-D parallelization over (users,
//! items) — dependence-preserving for `U` and `V`, relaxed for `S`.
//! The relaxation is visible: per-pass convergence lags serial by the
//! staleness of `S` (hot rows pay most), the same trade data parallelism
//! makes globally in Fig. 9b — here confined to one small factor.

use std::sync::Arc;

use orion_core::{
    kernels, ClusterSpec, DistArray, DistArrayBuffer, Driver, LoopSpec, RunStats, Strategy,
    Subscript,
};
use orion_data::TensorData;

use crate::common::{cost, span_capacity, TraceArtifacts};

/// CP hyperparameters.
#[derive(Debug, Clone)]
pub struct CpConfig {
    /// Decomposition rank.
    pub rank: usize,
    /// SGD step size.
    pub step_size: f32,
    /// Initialization seed.
    pub seed: u64,
}

impl CpConfig {
    /// Defaults used by tests and the example.
    pub fn new(rank: usize) -> Self {
        CpConfig {
            rank,
            step_size: 0.05,
            seed: 13,
        }
    }
}

/// The three factor matrices.
#[derive(Debug, Clone)]
pub struct CpModel {
    /// Mode-0 factors (users × rank).
    pub u: DistArray<f32>,
    /// Mode-1 factors (items × rank).
    pub v: DistArray<f32>,
    /// Mode-2 factors (contexts × rank).
    pub s: DistArray<f32>,
    /// Hyperparameters.
    pub cfg: CpConfig,
}

impl CpModel {
    /// Deterministic symmetric initialization.
    pub fn new(dims: &[u64], cfg: CpConfig) -> Self {
        let r = cfg.rank as u64;
        let init = |name: &str, n: u64, salt: i64| {
            DistArray::dense_from_fn(name, vec![n, r], move |i| {
                (((i[0] * 37 + i[1] * 11 + salt) % 23) as f32 / 23.0 - 0.5) * 0.6
            })
        };
        CpModel {
            u: init("U", dims[0], 1),
            v: init("V", dims[1], 5),
            s: init("S", dims[2], 9),
            cfg,
        }
    }

    /// Model prediction for one index.
    pub fn predict(&self, i: i64, j: i64, k: i64) -> f32 {
        kernels::cp_predict(
            self.u.row_slice(i),
            self.v.row_slice(j),
            self.s.row_slice(k),
        )
    }

    /// Squared loss over the observed entries.
    pub fn loss(&self, items: &[(Vec<i64>, f32)]) -> f64 {
        items
            .iter()
            .map(|(idx, x)| ((x - self.predict(idx[0], idx[1], idx[2])) as f64).powi(2))
            .sum()
    }
}

/// One SGD step for one entry; `S`'s gradient goes through `s_sink`
/// instead of the array when buffering is active.
fn cp_update(model: &mut CpModel, idx: &[i64], x: f32, s_sink: Option<&mut DistArrayBuffer<f32>>) {
    let (i, j, k) = (idx[0], idx[1], idx[2]);
    let step = model.cfg.step_size;
    let r = model.cfg.rank;
    match s_sink {
        Some(buf) => {
            cp_update_rows(
                model.u.row_slice_mut(i),
                model.v.row_slice_mut(j),
                model.s.row_slice(k),
                k,
                x,
                step,
                buf,
            );
        }
        None => {
            let pred = model.predict(i, j, k);
            let g = step * 2.0 * (x - pred);
            // Each rank component only reads the pre-update values of
            // its own component, so capturing them per-`c` keeps the
            // three gradients a simultaneous update without
            // snapshotting whole rows.
            let u = model.u.row_slice_mut(i);
            let v = model.v.row_slice_mut(j);
            let s = model.s.row_slice_mut(k);
            for c in 0..r {
                let (u0, v0, s0) = (u[c], v[c], s[c]);
                u[c] = u0 + g * v0 * s0;
                v[c] = v0 + g * u0 * s0;
                s[c] = s0 + g * u0 * v0;
            }
        }
    }
}

/// The buffered SGD step on raw factor rows — shared by the simulated
/// and threaded execution paths so both run the *same float operations
/// in the same order* (the bit-identity contract of the threaded
/// engine).
fn cp_update_rows(
    u: &mut [f32],
    v: &mut [f32],
    s: &[f32],
    k: i64,
    x: f32,
    step: f32,
    buf: &mut DistArrayBuffer<f32>,
) {
    let pred = kernels::cp_predict(u, v, s);
    let g = step * 2.0 * (x - pred);
    kernels::cp_update_rows(u, v, s, g, |c, delta| buf.write(&[k, c as i64], delta));
}

/// Builds the spec; `buffer_s` exempts the context factor's writes.
pub(crate) fn cp_spec(
    t: orion_core::DistArrayId,
    u: orion_core::DistArrayId,
    v: orion_core::DistArrayId,
    s: orion_core::DistArrayId,
    dims: Vec<u64>,
    buffer_s: bool,
) -> LoopSpec {
    let b = LoopSpec::builder(
        if buffer_s {
            "cp_sgd_buffered"
        } else {
            "cp_sgd"
        },
        t,
        dims,
    )
    .read_write(u, vec![Subscript::loop_index(0), Subscript::Full])
    .read_write(v, vec![Subscript::loop_index(1), Subscript::Full])
    .read_write(s, vec![Subscript::loop_index(2), Subscript::Full]);
    let b = if buffer_s { b.buffer_writes(s) } else { b };
    b.build().expect("static CP spec is valid")
}

/// Analyzes the CP loop without buffering: the correct verdict is
/// `Serial` (every 2-D pair is defeated by the third mode's dependence
/// family). Exposed for tests and the example.
pub fn analyze_unbuffered(data: &TensorData, cfg: &CpConfig) -> Strategy {
    let dims = data.entries.shape().dims().to_vec();
    let mut driver = Driver::new(ClusterSpec::serial());
    let t_id = driver.register(&data.entries);
    let model = CpModel::new(&dims, cfg.clone());
    let u_id = driver.register(&model.u);
    let v_id = driver.register(&model.v);
    let s_id = driver.register(&model.s);
    let items = data.items();
    let compiled = driver
        .parallel_for(cp_spec(t_id, u_id, v_id, s_id, dims, false), &items)
        .expect("compiles");
    compiled.strategy().clone()
}

/// Run configuration.
#[derive(Debug, Clone)]
pub struct CpRunConfig {
    /// Simulated cluster.
    pub cluster: ClusterSpec,
    /// Data passes.
    pub passes: u64,
    /// Buffer the context factor's writes (enables 2-D parallelism).
    pub buffer_s: bool,
}

/// Trains CP under Orion. Without `buffer_s` the analyzer schedules the
/// loop serially; with it, unordered 2-D over (users, items) with the
/// small factor applied through buffers at pass boundaries.
pub fn train_orion(data: &TensorData, cfg: CpConfig, run: &CpRunConfig) -> (CpModel, RunStats) {
    let (model, stats, _) = train_orion_impl(data, cfg, run, false);
    (model, stats)
}

/// [`train_orion`] with span tracing on: additionally returns the
/// Perfetto-exportable session and the run report.
pub fn train_orion_traced(
    data: &TensorData,
    cfg: CpConfig,
    run: &CpRunConfig,
) -> (CpModel, RunStats, TraceArtifacts) {
    let (model, stats, artifacts) = train_orion_impl(data, cfg, run, true);
    (
        model,
        stats,
        artifacts.expect("traced run yields artifacts"),
    )
}

fn train_orion_impl(
    data: &TensorData,
    cfg: CpConfig,
    run: &CpRunConfig,
    traced: bool,
) -> (CpModel, RunStats, Option<TraceArtifacts>) {
    let items = data.items();
    let dims = data.entries.shape().dims().to_vec();
    let mut model = CpModel::new(&dims, cfg);

    let mut driver = Driver::new(run.cluster.clone());
    let t_id = driver.register(&data.entries);
    let u_id = driver.register(&model.u);
    let v_id = driver.register(&model.v);
    let s_id = driver.register(&model.s);
    driver.set_served_reads_per_iter(model.cfg.rank as f64);
    let spec = cp_spec(t_id, u_id, v_id, s_id, dims, run.buffer_s);
    let compiled = driver.parallel_for(spec, &items).expect("compiles");
    if run.buffer_s {
        debug_assert!(matches!(compiled.strategy(), Strategy::TwoD { .. }));
    } else {
        debug_assert!(matches!(compiled.strategy(), Strategy::Serial));
    }
    if traced {
        driver.enable_tracing(span_capacity(&compiled.schedule, run.passes));
    }

    let iter_ns = cost::mf_iter_ns(model.cfg.rank) * 1.5 * cost::ORION_OVERHEAD;
    let n_workers = compiled.schedule.n_workers;
    for pass in 0..run.passes {
        if run.buffer_s {
            let mut buffers: Vec<DistArrayBuffer<f32>> = (0..n_workers)
                .map(|_| DistArrayBuffer::additive(model.s.shape().clone()))
                .collect();
            driver.run_pass(&compiled, &mut |_| iter_ns, &mut |w, pos| {
                let (idx, x) = &items[pos];
                cp_update(&mut model, idx, *x, Some(&mut buffers[w]));
            });
            let up: u64 = buffers.iter().map(DistArrayBuffer::payload_bytes).sum();
            driver.sync_exchange(up / n_workers.max(1) as u64, up / n_workers.max(1) as u64);
            for buf in &mut buffers {
                buf.apply_to(&mut model.s, |elem, delta| *elem += delta);
            }
        } else {
            driver.run_pass(&compiled, &mut |_| iter_ns, &mut |_w, pos| {
                let (idx, x) = &items[pos];
                cp_update(&mut model, idx, *x, None);
            });
        }
        driver.record_progress(pass, model.loss(&items));
    }
    let artifacts = traced.then(|| TraceArtifacts::collect(&driver, "orion/tensor_cp", &compiled));
    (model, driver.finish(), artifacts)
}

/// Trains buffered CP on the real worker pool: the unordered 2-D
/// (users, items) schedule runs on `threads` OS threads with pipelined
/// rotation; the context factor is a shared pass-start snapshot whose
/// gradients collect in per-worker buffers applied at pass boundaries.
/// Bit-identical to [`train_orion`] with `buffer_s: true` on a
/// `ClusterSpec::new(1, threads)` cluster.
///
/// # Panics
///
/// Panics if a worker thread dies.
pub fn train_threaded(
    data: &TensorData,
    cfg: CpConfig,
    threads: usize,
    passes: u64,
) -> (CpModel, RunStats) {
    let items = data.items();
    let dims = data.entries.shape().dims().to_vec();
    let mut model = CpModel::new(&dims, cfg);

    let mut driver = Driver::new(ClusterSpec::new(1, threads));
    driver.set_threads(threads);
    let t_id = driver.register(&data.entries);
    let u_id = driver.register(&model.u);
    let v_id = driver.register(&model.v);
    let s_id = driver.register(&model.s);
    driver.set_served_reads_per_iter(model.cfg.rank as f64);
    let spec = cp_spec(t_id, u_id, v_id, s_id, dims, true);
    let compiled = driver.parallel_for(spec, &items).expect("compiles");
    debug_assert!(matches!(compiled.strategy(), Strategy::TwoD { .. }));
    let plan = driver.compile_threaded(&compiled);
    let sched = &compiled.schedule;
    let sp = sched
        .space_partition
        .as_ref()
        .expect("buffered CP has a space partition");
    let tp = sched
        .time_partition
        .as_ref()
        .expect("buffered CP has a time partition");

    // The analyzer parallelizes over loop dims {0, 1} (the buffered
    // context dim carries no dependence); either may be space.
    let space_is_users = sp.dim == 0;
    let (mut space_parts, mut time_parts) = if space_is_users {
        (
            model.u.split_along(0, &sp.ranges),
            model.v.split_along(0, &tp.ranges),
        )
    } else {
        (
            model.v.split_along(0, &sp.ranges),
            model.u.split_along(0, &tp.ranges),
        )
    };
    let entries: Arc<Vec<(i64, i64, i64, f32)>> = Arc::new(
        items
            .iter()
            .map(|(idx, x)| (idx[0], idx[1], idx[2], *x))
            .collect(),
    );
    let step = model.cfg.step_size;
    let n_workers = plan.n_workers();

    for pass in 0..passes {
        let state: Vec<_> = space_parts
            .into_iter()
            .map(|part| (part, DistArrayBuffer::additive(model.s.shape().clone())))
            .collect();
        let s_snap = Arc::new(model.s.clone());
        let body = Arc::new(
            move |&(i, j, k, x): &(i64, i64, i64, f32),
                  (ap, buf): &mut (DistArray<f32>, DistArrayBuffer<f32>),
                  bp: &mut DistArray<f32>| {
                let (u_row, v_row) = if space_is_users {
                    (ap.row_slice_mut(i), bp.row_slice_mut(j))
                } else {
                    (bp.row_slice_mut(i), ap.row_slice_mut(j))
                };
                cp_update_rows(u_row, v_row, s_snap.row_slice(k), k, x, step, buf);
            },
        );
        let out = driver.run_pass_threaded(
            &compiled.spec.name,
            &plan,
            &entries,
            state,
            time_parts,
            &body,
        );
        let buffers: Vec<DistArrayBuffer<f32>>;
        (space_parts, buffers) = out.state.into_iter().unzip();
        time_parts = out.parts;
        let up: u64 = buffers.iter().map(DistArrayBuffer::payload_bytes).sum();
        driver.sync_exchange(up / n_workers.max(1) as u64, up / n_workers.max(1) as u64);
        for mut buf in buffers {
            buf.apply_to(&mut model.s, |elem, delta| *elem += delta);
        }
        let snap = CpModel {
            u: DistArray::merge_along(
                0,
                if space_is_users {
                    space_parts.clone()
                } else {
                    time_parts.clone()
                },
            ),
            v: DistArray::merge_along(
                0,
                if space_is_users {
                    time_parts.clone()
                } else {
                    space_parts.clone()
                },
            ),
            s: model.s.clone(),
            cfg: model.cfg.clone(),
        };
        driver.record_progress(pass, snap.loss(&items));
    }
    let (u_parts, v_parts) = if space_is_users {
        (space_parts, time_parts)
    } else {
        (time_parts, space_parts)
    };
    model.u = DistArray::merge_along(0, u_parts);
    model.v = DistArray::merge_along(0, v_parts);
    (model, driver.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_data::TensorConfig;

    fn data() -> TensorData {
        TensorData::generate(TensorConfig::tiny())
    }

    #[test]
    fn unbuffered_cp_is_correctly_serial() {
        let d = data();
        let strategy = analyze_unbuffered(&d, &CpConfig::new(4));
        assert_eq!(strategy, Strategy::Serial);
    }

    #[test]
    fn buffered_cp_parallelizes_2d() {
        let d = data();
        let run = CpRunConfig {
            cluster: ClusterSpec::new(4, 2),
            passes: 1,
            buffer_s: true,
        };
        let (_, stats) = train_orion(&d, CpConfig::new(4), &run);
        assert_eq!(stats.progress.len(), 1);
        assert!(stats.total_bytes > 0, "rotation + buffer flush communicate");
    }

    #[test]
    fn serial_cp_converges() {
        let d = data();
        let run = CpRunConfig {
            cluster: ClusterSpec::serial(),
            passes: 12,
            buffer_s: false,
        };
        let (_, stats) = train_orion(&d, CpConfig::new(4), &run);
        let l0 = stats.progress[0].metric;
        let lf = stats.final_metric().unwrap();
        assert!(lf < l0 * 0.7, "loss {l0} -> {lf}");
    }

    #[test]
    fn buffered_parallel_tracks_serial_convergence() {
        let d = data();
        let passes = 30;
        let serial = train_orion(
            &d,
            CpConfig::new(4),
            &CpRunConfig {
                cluster: ClusterSpec::serial(),
                passes,
                buffer_s: false,
            },
        )
        .1;
        // The buffered variant gets a gentler tuned step: its S updates
        // apply as pass-level lumps (like every data-parallel baseline,
        // step sizes are tuned per execution model).
        let mut buffered_cfg = CpConfig::new(4);
        buffered_cfg.step_size = 0.02;
        let parallel = train_orion(
            &d,
            buffered_cfg,
            &CpRunConfig {
                cluster: ClusterSpec::new(8, 4),
                passes,
                buffer_s: true,
            },
        )
        .1;
        let ls = serial.final_metric().unwrap();
        let lp = parallel.final_metric().unwrap();
        let l0 = parallel.progress[0].metric;
        // The relaxation has a visible convergence cost: the buffered
        // context factor is hot at this scale, so pass-boundary
        // application lags serial — but training still converges, and
        // never *beats* the dependence-preserving order.
        assert!(
            lp < l0 * 0.5,
            "buffered-parallel must converge: {l0} -> {lp}"
        );
        assert!(
            ls <= lp,
            "serial {ls} must converge at least as fast per pass as relaxed {lp}"
        );
    }

    #[test]
    fn buffered_parallel_is_faster_at_scale() {
        // Timing needs a compute-dominated workload; the tiny config is
        // honestly latency-bound on 32 workers.
        let d = TensorData::generate(TensorConfig::bench());
        let passes = 2;
        let serial = train_orion(
            &d,
            CpConfig::new(8),
            &CpRunConfig {
                cluster: ClusterSpec::serial(),
                passes,
                buffer_s: false,
            },
        )
        .1;
        // 4 workers: enough per-block compute to dominate the served
        // round trips for the buffered factor.
        let parallel = train_orion(
            &d,
            CpConfig::new(8),
            &CpRunConfig {
                cluster: ClusterSpec::new(2, 2),
                passes,
                buffer_s: true,
            },
        )
        .1;
        let ts = serial.progress.last().unwrap().time;
        let tp = parallel.progress.last().unwrap().time;
        assert!(
            tp.as_secs_f64() < ts.as_secs_f64() * 0.6,
            "parallel {tp} should clearly beat serial {ts} at scale"
        );
    }

    #[test]
    fn threaded_pass_equals_simulated_pass() {
        let d = data();
        let (threads, passes) = (3, 4);
        let run = CpRunConfig {
            cluster: ClusterSpec::new(1, threads),
            passes,
            buffer_s: true,
        };
        let (sim, _) = train_orion(&d, CpConfig::new(4), &run);
        let (thr, _) = train_threaded(&d, CpConfig::new(4), threads, passes);
        let dims = d.entries.shape().dims().to_vec();
        for (name, a, b, n) in [
            ("U", &sim.u, &thr.u, dims[0]),
            ("V", &sim.v, &thr.v, dims[1]),
            ("S", &sim.s, &thr.s, dims[2]),
        ] {
            for row in 0..n as i64 {
                let (ra, rb) = (a.row_slice(row), b.row_slice(row));
                assert_eq!(
                    ra.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    rb.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{name} row {row} diverged"
                );
            }
        }
    }

    #[test]
    fn prediction_uses_all_three_factors() {
        let d = data();
        let model = CpModel::new(d.entries.shape().dims(), CpConfig::new(4));
        let a = model.predict(0, 0, 0);
        let b = model.predict(0, 0, 1);
        assert_ne!(a, b, "changing the context index must change predictions");
    }
}
