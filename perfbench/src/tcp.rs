//! `mf_rotation_tcp`: SGD MF on `train_mf_distributed`, one node
//! process per core over localhost TCP, at `DistOptions::new` defaults
//! (a checkpoint barrier every epoch). The only workload that exercises
//! `orion-net` frames, rotation sends, barriers, and node spawn and
//! handshake.
//!
//! Set-up time comes from a one-epoch call, which runs no checkpoint
//! barrier: its wall outside its epoch is coordinator compile, node
//! spawn, handshake and gather. The barriers between the epochs of the
//! long call count in its wall (`wall_s`) only, since `EpochStats` times
//! each epoch without them.

use std::hint::black_box;
use std::path::PathBuf;

use orion_apps::distributed::{train_mf_distributed, DistOptions, DistRunResult};
use orion_apps::sgd_mf::{self, MfConfig, MfModel, MfRunConfig};
use orion_core::ClusterSpec;
use orion_data::RatingsData;
use orion_dsm::checkpoint;
use orion_net::EpochStats;

use crate::check::{self, caught};
use crate::measure::{median, median_or_zero, quantile, timed, Outcome, Tally};
use crate::threaded::{
    mf_config, mf_kernel_ns_per_item, mf_setup, print_model_line, ratings_config, setup_layers,
};
use crate::{out_dir, Ctx};

/// Ratings of the TCP workload: at this size the node spawn and
/// handshake (each node regenerates the data and compiles the plan)
/// dominate `setup_s`, and a steady epoch takes tens of milliseconds.
const NNZ: usize = 320_000;
/// Epochs per training call (smoke: 3): enough steady epochs per run
/// for a stable p90.
const EPOCHS: u64 = 16;
/// Epochs of the set-up call: one, so no checkpoint barrier runs.
const SETUP_EPOCHS: u64 = 1;
/// Calls run even past the deadline.
const MIN_ROUNDS: usize = 2;

struct Tcp {
    data: RatingsData,
    cfg: MfConfig,
    items: Vec<(Vec<i64>, f32)>,
    epochs: u64,
    /// Unique per call, so checkpoint files never collide.
    calls: std::cell::Cell<u64>,
}

impl Tcp {
    /// One checked distributed training call: the result when it
    /// completed without a node fault and matched the oracle, with its
    /// wall seconds. A call that recovered from a fault counts as failed
    /// and its timings are dropped, since they include re-executed
    /// epochs and recovery.
    fn call(
        &self,
        ctx: &Ctx,
        nodes: usize,
        epochs: u64,
        oracle: &MfModel,
        tally: &mut Tally,
    ) -> Option<(DistRunResult<MfModel>, f64)> {
        let seq = self.calls.get();
        self.calls.set(seq + 1);
        let dir = workdir(seq);
        let mut opts = DistOptions::new(nodes, epochs, &dir);
        opts.run_id = format!("perfbench{seq}");
        let (res, d) = timed(|| {
            ctx.span("net", "train_mf_distributed", || {
                caught(|| train_mf_distributed(&self.data, self.cfg.clone(), false, &opts))
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
        let res = match res {
            Some(Ok(r)) => Some(r),
            Some(Err(e)) => {
                eprintln!("distributed run failed: {e}");
                None
            }
            None => None,
        };
        if let Some(r) = res.as_ref().filter(|r| r.recoveries > 0) {
            eprintln!(
                "distributed run recovered from {} node fault(s)",
                r.recoveries
            );
        }
        let ok = ctx.span("check", "bit-identity vs sim oracle", || {
            res.as_ref()
                .is_some_and(|r| r.recoveries == 0 && check::mf_identical(&r.model, oracle))
        });
        tally.record(ok);
        res.filter(|_| ok).map(|r| (r, d.as_secs_f64()))
    }

    fn oracle(&self, nodes: usize, epochs: u64) -> (MfModel, f64) {
        let run = MfRunConfig {
            cluster: ClusterSpec::new(nodes, 1),
            passes: epochs,
            ordered: false,
        };
        let (model, stats) = sgd_mf::train_orion(&self.data, self.cfg.clone(), &run);
        (model, stats.secs_per_iteration(1, u64::MAX).unwrap_or(0.0))
    }
}

fn workdir(seq: u64) -> PathBuf {
    out_dir().join(format!("tcp-{}-{seq}", std::process::id()))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Every epoch after the first: the first carries warm-up (first
/// rotation, page faults in fresh node processes).
fn steady(epochs: &[EpochStats]) -> &[EpochStats] {
    &epochs[1.min(epochs.len())..]
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let data = ctx.span("data", "RatingsData::generate", || {
        RatingsData::generate(ratings_config(ctx, NNZ))
    });
    let items = data.items();
    let tcp = Tcp {
        data,
        cfg: mf_config(ctx),
        items,
        epochs: if ctx.smoke { 3 } else { EPOCHS },
        calls: std::cell::Cell::new(0),
    };
    if ctx.rec.is_some() {
        layers(&tcp, ctx)
    } else {
        end_to_end(&tcp, ctx)
    }
}

/// Wall of a call outside its epochs, in seconds.
fn outside_epochs(r: &DistRunResult<MfModel>, wall: f64) -> f64 {
    let all_ns: u64 = r.epochs.iter().map(|e| e.wall_ns).sum();
    wall - all_ns as f64 / 1e9
}

fn end_to_end(tcp: &Tcp, ctx: &Ctx) -> Outcome {
    let n = ctx.nproc;
    let counts: Vec<usize> = if n > 1 { vec![n, 1] } else { vec![1] };
    let mut out = Outcome::default();
    let oracles: Vec<(usize, MfModel, f64)> = counts
        .iter()
        .map(|&c| {
            let (m, s) = tcp.oracle(c, tcp.epochs);
            (c, m, s)
        })
        .collect();
    let setup_oracle = tcp.oracle(n, SETUP_EPOCHS).0;
    let items = tcp.items.len() as f64;

    let (mut walls, mut setup, mut epoch_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut ips = Vec::new();
    // Speedup per round, from adjacent calls, so slow drifts in the
    // host's load cancel.
    let mut speedups = Vec::new();
    let mut rounds = 0;
    while ctx.more(rounds, MIN_ROUNDS) {
        if let Some((r, wall)) = tcp.call(ctx, n, SETUP_EPOCHS, &setup_oracle, &mut out.tally) {
            setup.push(outside_epochs(&r, wall));
        }
        let mut round_rate = Vec::new();
        for (c, oracle, _) in &oracles {
            let Some((r, wall)) = tcp.call(ctx, *c, tcp.epochs, oracle, &mut out.tally) else {
                continue;
            };
            let steady = steady(&r.epochs);
            let steady_ns: u64 = steady.iter().map(|e| e.wall_ns).sum();
            if steady_ns > 0 {
                round_rate.push((*c, items * steady.len() as f64 / (steady_ns as f64 / 1e9)));
            }
            if *c == n {
                walls.push(wall);
                epoch_ms.extend(steady.iter().map(|e| ms(e.wall_ns)));
            }
        }
        let rate = |c: usize| round_rate.iter().find(|r| r.0 == c).map(|r| r.1);
        if let Some(rn) = rate(n) {
            ips.push(rn);
            speedups.extend(rate(1).map(|r1| rn / r1));
        }
        rounds += 1;
    }

    out.set("setup_s", median_or_zero(&setup));
    out.set("wall_s", median_or_zero(&walls));
    let rate = median_or_zero(&ips);
    out.set("items_per_s", rate);
    out.set("speedup_vs_1w", median_or_zero(&speedups));
    out.set("step_ms_p50", median_or_zero(&epoch_ms));
    out.set("final_loss", oracles[0].1.loss(&tcp.items));
    println!(
        "rounds {rounds}, {} ratings, {} epochs per call ({SETUP_EPOCHS} in the set-up call), nodes {counts:?}, {} steady epochs sampled",
        tcp.items.len(),
        tcp.epochs,
        epoch_ms.len()
    );
    println!(
        "train_s {:.4}  items_per_s {:.0}  speedup_vs_1w {:.3}  setup_s {:.4}  epoch_ms_p50 {:.3}  final_loss {:.6}",
        out.values["wall_s"],
        rate,
        out.values["speedup_vs_1w"],
        out.values["setup_s"],
        out.values["step_ms_p50"],
        out.values["final_loss"]
    );
    print_model_line(oracles[0].2 * 1e3, out.values["step_ms_p50"], "epoch");
    out
}

fn layers(tcp: &Tcp, ctx: &Ctx) -> Outcome {
    let n = ctx.nproc;
    let mut out = Outcome::default();
    let indices: Vec<&[i64]> = tcp.items.iter().map(|(i, _)| i.as_slice()).collect();

    // The coordinator's own compile, as the sim oracle's nodes × 1 cluster.
    let mut compile_s = Vec::new();
    let mut setup = None;
    for _ in 0..3 {
        let (s, d) = timed(|| {
            ctx.span("apps", "coordinator set-up (driver path)", || {
                mf_setup(&tcp.data, &tcp.cfg, ClusterSpec::new(n, 1), 1)
            })
        });
        compile_s.push(d.as_secs_f64());
        setup = Some(s);
    }
    let setup = setup.expect("three set-ups ran");
    setup_layers(ctx, &setup, &indices, &mut out);

    let (oracle, model_epoch_s) = ctx.span("sim", "train_orion", || tcp.oracle(n, tcp.epochs));
    let setup_oracle = ctx.span("sim", "train_orion", || tcp.oracle(n, SETUP_EPOCHS).0);

    let (mut outside, mut first, mut epoch_ms) = (Vec::new(), Vec::new(), Vec::new());
    // p90 of each call's steady epochs: their median over calls keeps one
    // call's burst of interference from setting the tail.
    let mut tails = Vec::new();
    let (mut compute, mut rotation, mut barrier) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bytes, mut msgs, mut steady_epochs) = (0u64, 0u64, 0u64);
    let mut rounds = 0;
    while ctx.more(rounds, MIN_ROUNDS) {
        if let Some((r, wall)) = tcp.call(ctx, n, SETUP_EPOCHS, &setup_oracle, &mut out.tally) {
            outside.push(outside_epochs(&r, wall));
        }
        if let Some((r, _)) = tcp.call(ctx, n, tcp.epochs, &oracle, &mut out.tally) {
            if let Some(e) = r.epochs.first() {
                first.push(ms(e.wall_ns));
            }
            let call_ms: Vec<f64> = steady(&r.epochs).iter().map(|e| ms(e.wall_ns)).collect();
            if !call_ms.is_empty() {
                tails.push(quantile(&call_ms, 0.9));
            }
            for e in steady(&r.epochs) {
                let nodes = e.compute_ns.len().max(1) as f64;
                epoch_ms.push(ms(e.wall_ns));
                compute.push(ms(e.compute_ns.iter().sum()) / nodes);
                rotation.push(ms(e.rotation_ns.iter().sum()) / nodes);
                let busiest = e
                    .compute_ns
                    .iter()
                    .zip(&e.rotation_ns)
                    .map(|(c, r)| c + r)
                    .max()
                    .unwrap_or(0);
                barrier.push(ms(e.wall_ns.saturating_sub(busiest)));
                // Node-to-node links only; coordinator links (control
                // frames, gathers) are excluded.
                for l in e.links.iter().filter(|l| l.src < n && l.dst < n) {
                    bytes += l.bytes;
                    msgs += l.messages;
                }
                steady_epochs += 1;
            }
        }
        rounds += 1;
    }
    out.set("net.node_compute_ms", median_or_zero(&compute));
    out.set("net.node_rotation_ms", median_or_zero(&rotation));
    out.set("net.barrier_wait_ms", median_or_zero(&barrier));
    let per_epoch = |x: u64| x as f64 / steady_epochs.max(1) as f64;
    out.set("net.wire_bytes_per_epoch", per_epoch(bytes));
    out.set("net.messages_per_epoch", per_epoch(msgs));
    out.set("net.first_epoch_ms", median_or_zero(&first));
    out.set("net.epoch_ms_p90", median_or_zero(&tails));
    out.set(
        "net.spawn_handshake_s",
        (median_or_zero(&outside) - median(&compile_s)).max(0.0),
    );
    let err = print_model_line(model_epoch_s * 1e3, median_or_zero(&epoch_ms), "epoch");
    out.set("sim.pass_error_pct", err.abs());

    out.set(
        "dsm.mf_kernel_ns_per_item",
        mf_kernel_ns_per_item(ctx, &oracle, &tcp.items),
    );
    checkpoint_layers(ctx, &oracle, &setup, &mut out);
    println!(
        "rounds {rounds}, {steady_epochs} steady epochs: wire {:.0} B and {:.1} messages per epoch",
        out.values["net.wire_bytes_per_epoch"], out.values["net.messages_per_epoch"]
    );
    out
}

/// One epoch's checkpoint barrier (every node saves its W partition and
/// the H partitions it homes) and the codec cost of the partitions
/// rotation ships.
fn checkpoint_layers(
    ctx: &Ctx,
    model: &MfModel,
    setup: &crate::threaded::Setup,
    out: &mut Outcome,
) {
    let sched = &setup.compiled.schedule;
    let sp = &sched.space_partition.as_ref().expect("2-D schedule").ranges;
    let tp = &sched.time_partition.as_ref().expect("2-D schedule").ranges;
    let w_parts = model.w.clone().split_along(0, sp);
    let h_parts = model.h.clone().split_along(0, tp);
    let dir = out_dir().join(format!("ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint directory");
    let (saved, d) = timed(|| {
        ctx.span("dsm", "checkpoint::save", || {
            w_parts
                .iter()
                .chain(&h_parts)
                .enumerate()
                .map(|(k, part)| {
                    checkpoint::save(part, dir.join(format!("part{k}.ckpt")))
                        .expect("checkpoint save")
                })
                .sum::<u64>()
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    out.set("dsm.checkpoint_save_ms", d.as_secs_f64() * 1e3);
    out.set("dsm.checkpoint_bytes", saved as f64);

    let (wire, d) = timed(|| {
        ctx.span("dsm", "checkpoint::to_bytes+from_bytes", || {
            let mut wire = 0u64;
            for part in &h_parts {
                let bytes = checkpoint::to_bytes(part);
                wire += bytes.len() as u64;
                let back = checkpoint::from_bytes::<f32>(bytes).expect("partition round trip");
                black_box(back);
            }
            wire
        })
    });
    out.set(
        "dsm.codec_mb_per_s",
        wire as f64 / 1e6 / d.as_secs_f64().max(1e-9),
    );
}
