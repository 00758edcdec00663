//! Threaded-engine conformance: for randomly generated 2-D grid and
//! 1-D schedules, a pass on the real worker pool produces bit-identical
//! state to executing the same schedule serially in step order (workers
//! ascending within a step) — the serialization the simulated engine
//! realizes. Noncommutative float updates make any reordering visible
//! bitwise. The same holds end to end for the apps under
//! `MathMode::FastMath`: reassociating a reduction changes what each
//! cell computes, never which engine computes it.

use std::sync::Arc;

use orion::analysis::Strategy as ParStrategy;
use orion::dsm::DistArray;
use orion::runtime::{build_schedule, run_pass_pooled, ThreadedPlan, WorkerPool};
use proptest::prelude::*;

/// Splitmix-style hash for sparse item selection.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Noncommutative, order-sensitive float update of one (row, col) pair.
fn grid_update(v: f32, s: &mut f32, t: &mut f32) {
    let (s0, t0) = (*s, *t);
    *s = s0 * 0.75 + t0 * 0.5 + v;
    *t = t0 * 1.25 + s0 * 0.25 - v * 0.125;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random sparse grids under 2-D (un)ordered schedules: the pooled
    /// pass must equal step-order serial execution bitwise.
    #[test]
    fn threaded_grid_pass_matches_serial_schedule_order(
        m in 2u64..=9,
        n in 2u64..=9,
        workers in 1usize..=5,
        ordered in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let workers = workers.min(m.min(n) as usize);
        let mut items: Vec<(Vec<i64>, f32)> = Vec::new();
        for i in 0..m as i64 {
            for j in 0..n as i64 {
                // ~70% density, always keep (0, 0) so the grid is nonempty.
                if (i, j) == (0, 0) || mix(seed ^ ((i as u64) << 32 | j as u64)) % 10 < 7 {
                    items.push((vec![i, j], (mix(seed ^ (i * 31 + j) as u64) % 97) as f32 * 0.125));
                }
            }
        }
        let strat = ParStrategy::TwoD { space: 0, time: 1, ordered };
        let indices: Vec<&[i64]> = items.iter().map(|(i, _)| i.as_slice()).collect();
        let sched = build_schedule(&strat, &indices, &[m, n], workers);
        let sp = sched.space_partition.clone().unwrap();
        let tp = sched.time_partition.clone().unwrap();

        let s0: DistArray<f32> = DistArray::dense_from_fn("s", vec![m, 1], |i| i[0] as f32 * 0.5);
        let t0: DistArray<f32> = DistArray::dense_from_fn("t", vec![n, 1], |i| 1.0 - i[0] as f32);

        // Reference: serialize the schedule — steps in order, workers
        // ascending within a step, block items in order.
        let mut s_ref = s0.clone();
        let mut t_ref = t0.clone();
        for st in &sched.steps {
            for e in st {
                for &pos in sched.blocks.items(e.block) {
                    let (idx, v) = &items[pos as usize];
                    let mut sv = *s_ref.get(&[idx[0], 0]).unwrap();
                    let mut tv = *t_ref.get(&[idx[1], 0]).unwrap();
                    grid_update(*v, &mut sv, &mut tv);
                    s_ref.update(&[idx[0], 0], |c| *c = sv);
                    t_ref.update(&[idx[1], 0], |c| *c = tv);
                }
            }
        }

        // Threaded: same plan on a real pool.
        let plan = Arc::new(ThreadedPlan::compile(&sched));
        let pool = WorkerPool::new(sched.n_workers);
        let shared = Arc::new(items);
        let body = Arc::new(
            |(idx, v): &(Vec<i64>, f32),
             sp: &mut DistArray<f32>,
             tp: &mut DistArray<f32>| {
                let mut sv = *sp.get(&[idx[0], 0]).unwrap();
                let mut tv = *tp.get(&[idx[1], 0]).unwrap();
                grid_update(*v, &mut sv, &mut tv);
                sp.update(&[idx[0], 0], |c| *c = sv);
                tp.update(&[idx[1], 0], |c| *c = tv);
            },
        );
        let out = run_pass_pooled(
            &pool,
            &plan,
            &shared,
            s0.split_along(0, &sp.ranges),
            t0.split_along(0, &tp.ranges),
            &body,
        );
        let s_thr = DistArray::merge_along(0, out.state);
        let t_thr = DistArray::merge_along(0, out.parts);
        prop_assert_eq!(s_thr, s_ref);
        prop_assert_eq!(t_thr, t_ref);
        // Every worker's recorded log is exactly its program.
        prop_assert_eq!(&out.events[..], plan.programs());
    }

    /// Random 1-D schedules: per-worker scratch folds must equal the
    /// step-order serial folds bitwise.
    #[test]
    fn threaded_one_d_pass_matches_serial_schedule_order(
        len in 1u64..=40,
        workers in 1usize..=5,
        seed in any::<u64>(),
    ) {
        let items: Vec<(Vec<i64>, f32)> = (0..len as i64)
            .map(|i| (vec![i], (mix(seed ^ i as u64) % 89) as f32 * 0.25 - 4.0))
            .collect();
        let strat = ParStrategy::OneD { dim: 0 };
        let indices: Vec<&[i64]> = items.iter().map(|(i, _)| i.as_slice()).collect();
        let sched = build_schedule(&strat, &indices, &[len], workers);

        // Reference: each worker folds its items in step order.
        let mut folds = vec![1.0f32; sched.n_workers];
        for st in &sched.steps {
            for e in st {
                for &pos in sched.blocks.items(e.block) {
                    let v = items[pos as usize].1;
                    folds[e.worker] = folds[e.worker] * 1.0625 + v;
                }
            }
        }

        let plan = Arc::new(ThreadedPlan::compile(&sched));
        let pool = WorkerPool::new(sched.n_workers);
        let shared = Arc::new(items);
        let body = Arc::new(|(_, v): &(Vec<i64>, f32), acc: &mut f32, _: &mut ()| {
            *acc = *acc * 1.0625 + v;
        });
        let (acc, pinned) = (vec![1.0f32; sched.n_workers], vec![(); sched.n_workers]);
        let out = run_pass_pooled(&pool, &plan, &shared, acc, pinned, &body);
        prop_assert_eq!(out.state, folds);
        // Every worker's recorded log is exactly its program.
        prop_assert_eq!(&out.events[..], plan.programs());
    }
}

fn bits(a: &DistArray<f32>) -> Vec<u32> {
    a.to_dense_vec().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn mf_fastmath_threaded_matches_simulated_bitwise() {
    use orion::apps::sgd_mf::{train_orion, train_threaded, MfConfig, MfRunConfig};
    use orion::core::ClusterSpec;
    use orion::data::{RatingsConfig, RatingsData};

    let d = RatingsData::generate(RatingsConfig::tiny());
    let (threads, passes) = (4, 3);
    let run = MfRunConfig {
        cluster: ClusterSpec::new(1, threads),
        passes,
        ordered: false,
    };
    // Rank 16: two full lanes-wide chunks, so the FastMath dot really
    // reassociates.
    let cfg = MfConfig::new(16).fast_math();
    let (sim, _) = train_orion(&d, cfg.clone(), &run);
    let (thr, _) = train_threaded(&d, cfg, threads, passes, false);
    assert_eq!(bits(&sim.w), bits(&thr.w), "W diverged");
    assert_eq!(bits(&sim.h), bits(&thr.h), "H diverged");

    let (exact, _) = train_orion(&d, MfConfig::new(16), &run);
    assert_ne!(
        bits(&exact.w),
        bits(&sim.w),
        "FastMath trained the Exact model"
    );
}

#[test]
fn slr_fastmath_threaded_matches_simulated_bitwise() {
    use orion::apps::slr::{train_orion, train_threaded, SlrConfig, SlrRunConfig};
    use orion::core::ClusterSpec;
    use orion::data::{SparseConfig, SparseData};

    let d = SparseData::generate(SparseConfig::tiny());
    let (threads, passes) = (4, 3);
    let run = SlrRunConfig {
        cluster: ClusterSpec::new(1, threads),
        passes,
        prefetch_override: None,
    };
    let cfg = SlrConfig::new().fast_math();
    let (sim, _) = train_orion(&d, cfg.clone(), &run);
    let (thr, _) = train_threaded(&d, cfg, threads, passes);
    assert_eq!(bits(&sim.weights), bits(&thr.weights), "weights diverged");

    let (exact, _) = train_orion(&d, SlrConfig::new(), &run);
    assert_ne!(
        bits(&exact.weights),
        bits(&sim.weights),
        "FastMath trained the Exact model"
    );
}
