//! Multi-process distributed training over TCP — the `orion-net`
//! runtime applied to the two flagship workloads (see
//! `docs/DISTRIBUTED.md` for the protocol walkthrough).
//!
//! One process per node: a [`Coordinator`] launched by the training
//! driver re-executes the current binary `N` times with
//! `ORION_NET_ROLE=node`; each child calls [`maybe_node`] at the top of
//! `main`, regenerates the dataset and model from the seeds in its
//! environment, recompiles the schedule, and proves it compiled the
//! *same* schedule via [`plan_fingerprint`] in its `Hello`. No code or
//! plan ever crosses the wire — only DistArray partitions,
//! server-style updates, and prefetch responses, all in the bit-exact
//! `orion-dsm` codecs.
//!
//! Two execution shapes, mirroring the in-process engines:
//!
//! - **SGD MF** (2-D unordered, paper Fig. 8): node `w` owns space
//!   partition `w` of `W` and runs worker `w`'s program through
//!   [`orion_runtime::run_program`], the interpreter the thread pool
//!   uses, with peer sockets in place of channels; partitions of `H`
//!   rotate along the program's `Send`/`Recv` steps. At the end of
//!   every epoch each partition is *re-homed* to its pass-start owner
//!   so the next epoch starts from the same slots.
//! - **SLR** (1-D data parallel, §3.3/§4.4): nodes are stateless; each
//!   runs its program's blocks through the same interpreter into a
//!   buffer pinned in its own slot. The coordinator serves the weight
//!   array, answers bulk-prefetch requests from the pass-start
//!   snapshot, and applies the buffered updates in node order — the
//!   same order the simulated pass applies its per-worker buffers.
//!
//! Fault tolerance reuses the PR-3 checkpoint machinery
//! ([`CheckpointPolicy`] naming): MF nodes persist epoch-tagged
//! partition checkpoints at coordinator-driven barriers and restore
//! them on `Rollback`; SLR needs no node state at all, so a crashed
//! epoch simply re-runs against the coordinator's in-memory weights
//! (which only mutate at epoch end). Either way the virtual-time sim
//! stays the conformance oracle: same seed, same plan → bit-identical
//! model state (enforced by `tests/distributed_conformance.rs`).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use orion_core::{
    CheckpointPolicy, ClusterSpec, CompiledLoop, DistArray, DistArrayBuffer, Driver, MathMode,
    RunReport, RunStats,
};
use orion_data::{RatingsConfig, RatingsData, SparseConfig, SparseData};
use orion_dsm::{checkpoint, codec, kernels};
use orion_net::{
    plan_fingerprint, ClusterConfig, Coordinator, EpochStats, Msg, NetError, NodeConfig,
    NodeEndpoint, PartRecv, ENV_COORD, ENV_NODES, ENV_NODE_ID, ENV_ROLE,
};
use orion_runtime::{run_program, HbEvent, ThreadPhase, ThreadSpan, ThreadedPlan, Transport};

use crate::sgd_mf::{mf_spec, MfConfig, MfModel};
use crate::slr::{self, SlrConfig, SlrModel};

/// Which application a node process should run (`mf` or `slr`).
pub const ENV_APP: &str = "ORION_NET_APP";
/// Dataset generator configuration (seeds and sizes, floats as bit
/// patterns in hex — replication must be exact, not round-tripped
/// through decimal).
pub const ENV_DATA: &str = "ORION_NET_DATA";
/// Hyperparameters (same encoding rules as [`ENV_DATA`]).
pub const ENV_HYPER: &str = "ORION_NET_HYPER";
/// Directory for checkpoints and crash markers.
pub const ENV_WORKDIR: &str = "ORION_NET_WORKDIR";
/// Run identifier scoping checkpoint/marker filenames.
pub const ENV_RUN_ID: &str = "ORION_NET_RUN";
/// Fault injection: the epoch in which this node kills itself mid-pass
/// (once — a marker file keeps the respawned process alive).
pub const ENV_CRASH_EPOCH: &str = "ORION_NET_CRASH_EPOCH";

// ---------------------------------------------------------------------
// Exact float transport through the environment.

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f32_hex(v: f32) -> String {
    format!("{:08x}", v.to_bits())
}

fn parse_f64(s: &str) -> f64 {
    f64::from_bits(u64::from_str_radix(s, 16).expect("16-digit hex f64 bits"))
}

fn parse_f32(s: &str) -> f32 {
    f32::from_bits(u32::from_str_radix(s, 16).expect("8-digit hex f32 bits"))
}

fn fields(raw: &str, n: usize, what: &str) -> Vec<String> {
    let parts: Vec<String> = raw.split(',').map(str::to_owned).collect();
    assert_eq!(parts.len(), n, "{what}: expected {n} fields in {raw:?}");
    parts
}

fn env(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| panic!("node environment is missing {key}"))
}

// ---------------------------------------------------------------------
// Options and results.

/// How to run a localhost cluster.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Node processes to spawn.
    pub nodes: usize,
    /// Training epochs (= data passes).
    pub epochs: u64,
    /// Checkpoint-barrier interval in epochs; `0` keeps only the
    /// initial (epoch-0) checkpoint, so recovery restarts training.
    pub checkpoint_every: u64,
    /// Directory for checkpoints and crash markers (created if absent).
    pub workdir: PathBuf,
    /// Scopes this run's files inside `workdir`.
    pub run_id: String,
    /// Fault injection: `(node, epoch)` — that node exits mid-epoch,
    /// once.
    pub crash: Option<(usize, u64)>,
    /// Record every coordinator-side protocol message for the O204
    /// runtime monitor (`orion_check::proto::monitor_log` consumes the
    /// log returned in [`DistRunResult::msg_log`]).
    pub record_msgs: bool,
}

impl DistOptions {
    /// Options with checkpoints every epoch and no fault injection.
    pub fn new(nodes: usize, epochs: u64, workdir: impl Into<PathBuf>) -> Self {
        DistOptions {
            nodes,
            epochs,
            checkpoint_every: 1,
            workdir: workdir.into(),
            run_id: "run".into(),
            crash: None,
            record_msgs: false,
        }
    }
}

/// Everything a distributed run hands back.
#[derive(Debug)]
pub struct DistRunResult<M> {
    /// Final model, gathered from the cluster (MF) or held by the
    /// coordinator (SLR). Bit-identical to the sim oracle's.
    pub model: M,
    /// Virtual-time accounting from the coordinator's sim driver.
    pub stats: RunStats,
    /// Run report with real wire bytes merged into the link table.
    pub report: RunReport,
    /// Per-epoch wall-clock and per-link byte accounting, in execution
    /// order (re-executed epochs appear again after a recovery).
    pub epochs: Vec<EpochStats>,
    /// Node crashes recovered from.
    pub recoveries: u64,
    /// Completed epochs that had to be re-executed after rollbacks.
    pub reexecuted: u64,
    /// Protocol messages seen by the coordinator, in order (empty
    /// unless [`DistOptions::record_msgs`] was set).
    pub msg_log: Vec<orion_net::MsgRecord>,
    /// The plan every node compiled (the handshake verified its
    /// fingerprint); node `w` ran `plan.programs()[w]` each epoch.
    pub plan: Arc<ThreadedPlan>,
}

// ---------------------------------------------------------------------
// Node-process entry.

/// Call this first in `main`. If the process was spawned as a cluster
/// node (`ORION_NET_ROLE=node`), runs the node to completion and exits;
/// otherwise returns immediately and `main` proceeds as the
/// coordinator-side program.
pub fn maybe_node() {
    if std::env::var(ENV_ROLE).as_deref() == Ok("node") {
        let coord = env(ENV_COORD);
        run_as_node(&coord);
    }
}

/// Runs this process as a cluster node against `coord` and exits.
/// Useful directly for the examples' `--coordinator ADDR` flag.
pub fn run_as_node(coord: &str) -> ! {
    let node: usize = env(ENV_NODE_ID).parse().expect("node id");
    let n_nodes: usize = env(ENV_NODES).parse().expect("node count");
    match env(ENV_APP).as_str() {
        "mf" => mf_node_main(coord, node, n_nodes),
        "slr" => slr_node_main(coord, node, n_nodes),
        other => {
            eprintln!("unknown ORION_NET_APP {other:?}");
            std::process::exit(2);
        }
    }
}

fn crash_marker(workdir: &Path, run_id: &str, node: usize) -> PathBuf {
    workdir.join(format!("{run_id}_crashed_n{node}.marker"))
}

/// The epoch this node should die in, if it has not died already.
fn crash_epoch(workdir: &Path, run_id: &str, node: usize) -> Option<u64> {
    let epoch: u64 = std::env::var(ENV_CRASH_EPOCH).ok()?.parse().ok()?;
    (!crash_marker(workdir, run_id, node).exists()).then_some(epoch)
}

fn inject_crash(workdir: &Path, run_id: &str, node: usize) -> ! {
    std::fs::write(crash_marker(workdir, run_id, node), b"crashed\n").expect("write crash marker");
    std::process::exit(17);
}

/// Checkpoint path for one array of one node at one epoch boundary
/// (state *before* that epoch), via the PR-3 naming scheme.
fn ckpt_path(workdir: &Path, run_id: &str, node: usize, array: &str, epoch: u64) -> PathBuf {
    CheckpointPolicy::new(1, workdir, format!("{run_id}_n{node}"))
        .path_for(&format!("{array}_e{epoch}"))
}

/// Proves this process compiled `plan` (its fingerprint rides in the
/// `Hello`) and joins the cluster as `node`.
fn connect(coord: &str, node: usize, n_nodes: usize, plan: &ThreadedPlan) -> NodeEndpoint {
    NodeEndpoint::connect(&NodeConfig {
        node,
        n_nodes,
        coord: coord.into(),
        fingerprint: plan_fingerprint(plan),
    })
    .expect("node connects to the coordinator")
}

enum EpochOutcome {
    Done {
        compute_ns: u64,
        rotation_ns: u64,
        /// The node's happens-before log, shipped on `EpochDone` for
        /// the O11x detector.
        events: Vec<HbEvent>,
    },
    /// A `Rollback`/`Shutdown` preempted the pass; the partial state is
    /// garbage and the control message still needs handling.
    Preempted(Msg),
}

/// How long a node waits for one rotated partition before declaring the
/// cluster wedged. Generous: CI runs debug builds.
const ROTATION_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a node idles waiting for the next coordinator command.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(600);

/// One application's node-side state, driven by [`node_control_loop`].
/// The defaults fit a stateless node: nothing to persist, restore or
/// gather.
trait NodeApp {
    /// Runs one epoch of this node's program.
    fn run_epoch(&mut self, ep: &mut NodeEndpoint, epoch: u64) -> EpochOutcome;

    /// Persists the state this node holds at the start of `epoch`.
    fn checkpoint(&mut self, _epoch: u64) {}

    /// Restores the state checkpointed at the start of `epoch`.
    fn rollback(&mut self, _epoch: u64) {}

    /// This node's slice of the final model, as tagged checkpoint bytes.
    fn final_state(&self) -> Vec<(u32, Bytes)> {
        Vec::new()
    }
}

/// The node's command loop: everything after the handshake is driven by
/// coordinator messages on the ordered control stream.
fn node_control_loop(mut ep: NodeEndpoint, node: usize, app: &mut impl NodeApp) -> ! {
    let id = node as u32;
    let mut pending: Option<Msg> = None;
    loop {
        let msg = match pending.take() {
            Some(m) => m,
            None => ep
                .next_coord_msg(CONTROL_TIMEOUT)
                .expect("coordinator control message"),
        };
        let reply = match msg {
            Msg::EpochStart { epoch } => match app.run_epoch(&mut ep, epoch) {
                EpochOutcome::Done {
                    compute_ns,
                    rotation_ns,
                    events,
                } => {
                    ep.gc_below(epoch);
                    Msg::EpochDone {
                        epoch,
                        node: id,
                        compute_ns,
                        rotation_ns,
                        sent: ep.take_sent(),
                        events,
                    }
                }
                EpochOutcome::Preempted(ctrl) => {
                    pending = Some(ctrl);
                    continue;
                }
            },
            Msg::Checkpoint { epoch } => {
                app.checkpoint(epoch);
                Msg::CheckpointDone { epoch, node: id }
            }
            Msg::Rollback { epoch } => {
                app.rollback(epoch);
                ep.clear_inbox();
                Msg::RollbackDone { epoch, node: id }
            }
            Msg::Gather => Msg::FinalState {
                node: id,
                parts: app.final_state(),
            },
            Msg::Shutdown => std::process::exit(0),
            // Stale traffic from an abandoned epoch (e.g. a prefetch
            // response raced a rollback): deterministic re-execution
            // makes it redundant, so dropping it is sound.
            _ => continue,
        };
        ep.send_coord(&reply).expect("reply to the coordinator");
    }
}

// ---------------------------------------------------------------------
// SGD MF: configuration replication.

fn mf_env(
    data: &RatingsConfig,
    cfg: &MfConfig,
    ordered: bool,
    opts: &DistOptions,
) -> Vec<(String, String)> {
    vec![
        (ENV_APP.into(), "mf".into()),
        (
            ENV_DATA.into(),
            format!(
                "{},{},{},{},{},{},{}",
                data.n_users,
                data.n_items,
                data.nnz,
                data.true_rank,
                f64_hex(data.skew),
                f64_hex(data.noise),
                data.seed
            ),
        ),
        (
            ENV_HYPER.into(),
            format!(
                "{},{},{},{},{}",
                cfg.rank,
                f32_hex(cfg.step_size),
                cfg.seed,
                matches!(cfg.math, MathMode::FastMath) as u8,
                ordered as u8
            ),
        ),
        (ENV_WORKDIR.into(), opts.workdir.display().to_string()),
        (ENV_RUN_ID.into(), opts.run_id.clone()),
    ]
}

fn mf_env_decode() -> (RatingsConfig, MfConfig, bool) {
    let d = fields(&env(ENV_DATA), 7, "MF data config");
    let data = RatingsConfig {
        n_users: d[0].parse().expect("n_users"),
        n_items: d[1].parse().expect("n_items"),
        nnz: d[2].parse().expect("nnz"),
        true_rank: d[3].parse().expect("true_rank"),
        skew: parse_f64(&d[4]),
        noise: parse_f64(&d[5]),
        seed: d[6].parse().expect("data seed"),
    };
    let h = fields(&env(ENV_HYPER), 5, "MF hyperparameters");
    let cfg = MfConfig {
        rank: h[0].parse().expect("rank"),
        step_size: parse_f32(&h[1]),
        adaptive: false,
        seed: h[2].parse().expect("model seed"),
        math: if h[3] == "1" {
            MathMode::FastMath
        } else {
            MathMode::Exact
        },
    };
    (data, cfg, h[4] == "1")
}

/// Compiles the MF schedule exactly as the sim oracle does on a
/// `nodes × 1` cluster. Every process — coordinator and nodes — runs
/// this with identical inputs; the fingerprint handshake proves it.
fn mf_compile(
    data: &RatingsData,
    model: &MfModel,
    nodes: usize,
    ordered: bool,
) -> (Driver, CompiledLoop, Arc<ThreadedPlan>) {
    let items = data.items();
    let dims = data.ratings.shape().dims().to_vec();
    let mut driver = Driver::new(ClusterSpec::new(nodes, 1));
    driver.set_math_mode(model.cfg.math);
    let z_id = driver.register(&data.ratings);
    let w_id = driver.register(&model.w);
    let h_id = driver.register(&model.h);
    let spec = mf_spec(z_id, w_id, h_id, dims, ordered);
    let compiled = driver
        .parallel_for(spec, &items)
        .expect("MF loop parallelizes");
    let plan = driver.compile_threaded(&compiled);
    (driver, compiled, plan)
}

// ---------------------------------------------------------------------
// SGD MF: the node process.

/// The node's slot table of `H` partitions, indexed by time partition:
/// between epochs it holds the partitions this node homes, during an
/// epoch it is the interpreter's held table.
type Slots = Vec<Option<DistArray<f32>>>;

struct MfNode {
    node: usize,
    plan: Arc<ThreadedPlan>,
    triples: Vec<(i64, i64, f32)>,
    w_part: DistArray<f32>,
    homes: Slots,
    home_of: Vec<usize>,
    step: f32,
    mode: MathMode,
    workdir: PathBuf,
    run_id: String,
    crash_epoch: Option<u64>,
}

fn mf_node_main(coord: &str, node: usize, n_nodes: usize) -> ! {
    let (data_cfg, cfg, ordered) = mf_env_decode();
    let data = RatingsData::generate(data_cfg);
    let dims = data.ratings.shape().dims().to_vec();
    let model = MfModel::new(dims[0], dims[1], cfg);
    let (driver, compiled, plan) = mf_compile(&data, &model, n_nodes, ordered);
    let ep = connect(coord, node, n_nodes, &plan);

    let sched = &compiled.schedule;
    let sp = sched
        .space_partition
        .as_ref()
        .expect("2-D schedule has a space partition");
    let tpp = sched
        .time_partition
        .as_ref()
        .expect("2-D schedule has a time partition");

    // This node's slice of the model: its own space partition of W plus
    // the time partitions of H it homes at pass start.
    let mut home_of = vec![0usize; plan.n_parts()];
    for w in 0..plan.n_workers() {
        for &tp in plan.initial_of(w) {
            home_of[tp] = w;
        }
    }
    let w_part = model
        .w
        .split_along(0, &sp.ranges)
        .into_iter()
        .nth(node)
        .expect("one space partition per node");
    let homes: Slots = model
        .h
        .split_along(0, &tpp.ranges)
        .into_iter()
        .zip(&home_of)
        .map(|(part, &home)| (home == node).then_some(part))
        .collect();
    let triples: Vec<(i64, i64, f32)> =
        data.items().iter().map(|(i, v)| (i[0], i[1], *v)).collect();

    let workdir = PathBuf::from(env(ENV_WORKDIR));
    let run_id = env(ENV_RUN_ID);
    let mut state = MfNode {
        node,
        step: model.cfg.step_size,
        mode: driver.math_mode(),
        crash_epoch: crash_epoch(&workdir, &run_id, node),
        plan,
        triples,
        w_part,
        homes,
        home_of,
        workdir,
        run_id,
    };
    // Epoch-0 checkpoint: the initial state, so a rollback before the
    // first barrier restarts training from scratch.
    state.checkpoint(0);
    node_control_loop(ep, node, &mut state)
}

impl MfNode {
    fn ckpt(&self, array: &str, epoch: u64) -> PathBuf {
        ckpt_path(&self.workdir, &self.run_id, self.node, array, epoch)
    }

    /// The `H` partitions this node holds, with their indices.
    fn held(&self) -> impl Iterator<Item = (usize, &DistArray<f32>)> {
        let slots = self.homes.iter().enumerate();
        slots.filter_map(|(tp, part)| Some((tp, part.as_ref()?)))
    }
}

impl NodeApp for MfNode {
    /// One epoch of the Fig.-8 pipelined rotation: this node's program
    /// run by the pool's interpreter over peer sockets, then re-homing.
    fn run_epoch(&mut self, ep: &mut NodeEndpoint, epoch: u64) -> EpochOutcome {
        let (plan, node) = (Arc::clone(&self.plan), self.node);
        let mut net = Sockets {
            ep,
            node,
            epoch,
            send_ns: 0,
        };
        let n_blocks = plan.programs()[node]
            .iter()
            .filter(|ev| matches!(ev, HbEvent::Exec { .. }))
            .count();
        let crash_at = (self.crash_epoch == Some(epoch)).then_some(n_blocks / 2);
        let mut done = 0;
        let (w_part, triples, step, mode) = (&mut self.w_part, &self.triples, self.step, self.mode);
        let (workdir, run_id) = (&self.workdir, &self.run_id);
        let exec = |block: usize, part: &mut DistArray<f32>| {
            if crash_at == Some(done) {
                inject_crash(workdir, run_id, node);
            }
            done += 1;
            for &pos in plan.blocks().items(block) {
                let (u, item, v) = triples[pos as usize];
                let (w_row, h_row) = (w_part.row_slice_mut(u), part.row_slice_mut(item));
                kernels::mf_row_update(w_row, h_row, v, step, mode);
            }
        };
        let start = Instant::now();
        let trace = match run_program(&plan, node, &mut self.homes, &mut net, start, exec) {
            Ok(trace) => trace,
            Err(ctrl) => return EpochOutcome::Preempted(ctrl),
        };
        let mut rotation_ns = phase_ns(&trace.spans, ThreadPhase::Rotation);

        // Re-home: every partition this node ends with goes back to its
        // pass-start owner, so the next epoch starts from the same
        // slots. The (epoch, tp) inbox key cannot collide with in-epoch
        // rotation: a program's last step on a partition keeps it.
        for (tp, slot) in self.homes.iter_mut().enumerate() {
            let home = self.home_of[tp];
            if home != node {
                if let Some(Err(ctrl)) = slot.take().map(|part| net.send(home, tp, part)) {
                    return EpochOutcome::Preempted(ctrl);
                }
            }
        }
        for &tp in plan.initial_of(node) {
            if self.homes[tp].is_some() {
                continue;
            }
            let t0 = Instant::now();
            match net.recv(tp) {
                Ok(part) => self.homes[tp] = Some(part),
                Err(ctrl) => return EpochOutcome::Preempted(ctrl),
            }
            rotation_ns += t0.elapsed().as_nanos() as u64;
        }
        EpochOutcome::Done {
            compute_ns: phase_ns(&trace.spans, ThreadPhase::Compute),
            rotation_ns: rotation_ns + net.send_ns,
            events: trace.events,
        }
    }

    fn checkpoint(&mut self, epoch: u64) {
        checkpoint::save(&self.w_part, self.ckpt("W", epoch)).expect("checkpoint W");
        for (tp, part) in self.held() {
            checkpoint::save(part, self.ckpt(&format!("H{tp}"), epoch))
                .expect("checkpoint H partition");
        }
    }

    fn rollback(&mut self, epoch: u64) {
        self.w_part = checkpoint::load(self.ckpt("W", epoch)).expect("reload W");
        self.homes = (0..self.plan.n_parts()).map(|_| None).collect();
        for &tp in self.plan.initial_of(self.node) {
            let part =
                checkpoint::load(self.ckpt(&format!("H{tp}"), epoch)).expect("reload H partition");
            self.homes[tp] = Some(part);
        }
    }

    /// W's space partition tagged `u32::MAX`, then the homed H
    /// partitions tagged by index.
    fn final_state(&self) -> Vec<(u32, Bytes)> {
        let homes = self
            .held()
            .map(|(tp, part)| (tp as u32, checkpoint::to_bytes(part)));
        std::iter::once((u32::MAX, checkpoint::to_bytes(&self.w_part)))
            .chain(homes)
            .collect()
    }
}

/// The MF node's transport: rotated partitions travel to peers as
/// bit-exact checkpoint frames (shape + origin + dense run), so
/// `row_slice_mut` keeps addressing by global index on the receiving
/// side. A `Rollback`/`Shutdown` arriving mid-wait aborts the epoch.
struct Sockets<'a> {
    ep: &'a mut NodeEndpoint,
    node: usize,
    epoch: u64,
    /// Time spent in `send` (encode and socket write) this epoch: the
    /// interpreter times only its recv and exec steps, so the node adds
    /// this to its rotation time.
    send_ns: u64,
}

impl Transport<DistArray<f32>> for Sockets<'_> {
    type Abort = Msg;

    fn send(&mut self, dst: usize, tp: usize, part: DistArray<f32>) -> Result<(), Msg> {
        let t0 = Instant::now();
        let msg = Msg::Partition {
            epoch: self.epoch,
            tp: tp as u32,
            payload: checkpoint::to_bytes(&part),
        };
        self.ep.send_peer(dst, &msg);
        self.send_ns += t0.elapsed().as_nanos() as u64;
        Ok(())
    }

    fn recv(&mut self, tp: usize) -> Result<DistArray<f32>, Msg> {
        let (node, epoch) = (self.node, self.epoch);
        match self.ep.recv_partition(epoch, tp as u32, ROTATION_TIMEOUT) {
            Ok(PartRecv::Part(payload)) => {
                Ok(checkpoint::from_bytes::<f32>(payload).expect("rotated partition decodes"))
            }
            Ok(PartRecv::Ctrl(ctrl)) => Err(ctrl),
            Ok(PartRecv::TimedOut) => {
                panic!("node {node}: timed out awaiting partition {tp} in epoch {epoch}")
            }
            Err(e) => panic!("node {node}: {e}"),
        }
    }
}

/// Total nanoseconds `spans` spent in `phase`.
fn phase_ns(spans: &[ThreadSpan], phase: ThreadPhase) -> u64 {
    spans
        .iter()
        .filter(|s| s.phase == phase)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

// ---------------------------------------------------------------------
// SGD MF: the coordinator-side training driver.

/// Trains SGD MF on a localhost cluster of `opts.nodes` processes.
/// Bit-identical to [`crate::sgd_mf::train_orion`] on a
/// `ClusterSpec::new(nodes, 1)` cluster with the same data, config, and
/// pass count — the sim is the conformance oracle.
///
/// # Panics
///
/// Panics in adaptive mode (accumulators are not checkpointed) and on
/// protocol violations.
///
/// # Errors
///
/// Returns the underlying [`NetError`] if the cluster cannot be
/// launched or an unrecoverable transport fault occurs.
pub fn train_mf_distributed(
    data: &RatingsData,
    cfg: MfConfig,
    ordered: bool,
    opts: &DistOptions,
) -> Result<DistRunResult<MfModel>, NetError> {
    assert!(!cfg.adaptive, "distributed MF supports the plain update");
    assert!(
        opts.nodes >= 1 && opts.epochs >= 1,
        "degenerate cluster options"
    );
    std::fs::create_dir_all(&opts.workdir)?;

    let items = data.items();
    let dims = data.ratings.shape().dims().to_vec();
    let model = MfModel::new(dims[0], dims[1], cfg);
    let (mut driver, compiled, plan) = mf_compile(data, &model, opts.nodes, ordered);
    let fingerprint = plan_fingerprint(&plan);

    let mut ccfg = ClusterConfig::new(opts.nodes, opts.epochs, fingerprint);
    ccfg.record_msgs = opts.record_msgs;
    ccfg.env = mf_env(&data.config, &model.cfg, ordered, opts);
    if let Some((node, epoch)) = opts.crash {
        ccfg.node_env
            .push((node, ENV_CRASH_EPOCH.into(), epoch.to_string()));
    }
    let mut cluster = Coordinator::launch(ccfg)?;

    let mut epochs_out: Vec<EpochStats> = Vec::new();
    let mut recoveries = 0u64;
    let mut reexecuted = 0u64;
    let mut last_ckpt = 0u64;
    let mut epoch = 0u64;
    while epoch < opts.epochs {
        if opts.checkpoint_every > 0
            && epoch > 0
            && epoch.is_multiple_of(opts.checkpoint_every)
            && epoch != last_ckpt
        {
            match cluster.checkpoint_barrier(epoch) {
                Ok(()) => last_ckpt = epoch,
                Err(fault) => {
                    recoveries += 1;
                    reexecuted += epoch - last_ckpt;
                    cluster.recover(&fault, last_ckpt)?;
                    driver.rollback_progress(last_ckpt);
                    epoch = last_ckpt;
                    continue;
                }
            }
        }
        // MF moves no mid-epoch traffic through the coordinator, so the
        // handler only has to exist.
        match driver.run_pass_distributed(Some(&compiled), &mut cluster, epoch, |_node, _msg| None)
        {
            Ok(stats) => {
                epochs_out.push(stats);
                epoch += 1;
            }
            Err(fault) => {
                recoveries += 1;
                reexecuted += epoch - last_ckpt;
                cluster.recover(&fault, last_ckpt)?;
                driver.rollback_progress(last_ckpt);
                epoch = last_ckpt;
            }
        }
    }

    // Gather: W space partitions tagged u32::MAX in node order, H time
    // partitions tagged by index.
    let gathered = cluster.gather()?;
    let msg_log = cluster.take_msg_log();
    let mut w_parts: Vec<Option<DistArray<f32>>> = (0..opts.nodes).map(|_| None).collect();
    let mut h_parts: Vec<Option<DistArray<f32>>> = (0..plan.n_parts()).map(|_| None).collect();
    for (node, parts) in gathered.into_iter().enumerate() {
        for (tag, payload) in parts {
            let arr = checkpoint::from_bytes::<f32>(payload)
                .map_err(|e| NetError::Protocol(format!("gathered state: {e}")))?;
            if tag == u32::MAX {
                w_parts[node] = Some(arr);
            } else {
                h_parts[tag as usize] = Some(arr);
            }
        }
    }
    cluster.shutdown();
    let w = DistArray::merge_along(
        0,
        w_parts
            .into_iter()
            .map(|p| p.expect("every node reports its W partition"))
            .collect(),
    );
    let h = DistArray::merge_along(
        0,
        h_parts
            .into_iter()
            .map(|p| p.expect("every H partition is gathered"))
            .collect(),
    );
    let model = MfModel {
        w,
        h,
        wz2: Vec::new(),
        hz2: Vec::new(),
        cfg: model.cfg,
    };
    driver.record_progress(opts.epochs - 1, model.loss(&items));

    let report = driver.run_report(&compiled);
    Ok(DistRunResult {
        model,
        report,
        epochs: epochs_out,
        recoveries,
        reexecuted,
        msg_log,
        plan,
        stats: driver.finish(),
    })
}

// ---------------------------------------------------------------------
// SLR: configuration replication.

fn slr_env(data: &SparseConfig, cfg: &SlrConfig, opts: &DistOptions) -> Vec<(String, String)> {
    vec![
        (ENV_APP.into(), "slr".into()),
        (
            ENV_DATA.into(),
            format!(
                "{},{},{},{},{},{}",
                data.n_samples,
                data.n_features,
                data.nnz_per_sample,
                f64_hex(data.skew),
                f64_hex(data.informative_frac),
                data.seed
            ),
        ),
        (
            ENV_HYPER.into(),
            format!(
                "{},{}",
                f32_hex(cfg.step_size),
                matches!(cfg.math, MathMode::FastMath) as u8
            ),
        ),
        (ENV_WORKDIR.into(), opts.workdir.display().to_string()),
        (ENV_RUN_ID.into(), opts.run_id.clone()),
    ]
}

fn slr_env_decode() -> (SparseConfig, SlrConfig) {
    let d = fields(&env(ENV_DATA), 6, "SLR data config");
    let data = SparseConfig {
        n_samples: d[0].parse().expect("n_samples"),
        n_features: d[1].parse().expect("n_features"),
        nnz_per_sample: d[2].parse().expect("nnz_per_sample"),
        skew: parse_f64(&d[3]),
        informative_frac: parse_f64(&d[4]),
        seed: d[5].parse().expect("data seed"),
    };
    let h = fields(&env(ENV_HYPER), 2, "SLR hyperparameters");
    let cfg = SlrConfig {
        step_size: parse_f32(&h[0]),
        adaptive: false,
        math: if h[1] == "1" {
            MathMode::FastMath
        } else {
            MathMode::Exact
        },
    };
    (data, cfg)
}

/// Compiles the SLR schedule exactly as the sim oracle does on a
/// `nodes × 1` cluster.
fn slr_compile(
    data: &SparseData,
    model: &SlrModel,
    nodes: usize,
) -> (Driver, CompiledLoop, Arc<ThreadedPlan>) {
    use orion_core::{LoopSpec, Subscript};
    let samples_arr: DistArray<f32> = DistArray::sparse_from(
        "samples",
        vec![data.samples.len() as u64],
        data.samples
            .iter()
            .enumerate()
            .map(|(i, s)| (vec![i as i64], s.label as f32)),
    );
    let items: Vec<(Vec<i64>, f32)> = samples_arr.iter().map(|(i, &v)| (i, v)).collect();
    let mut driver = Driver::new(ClusterSpec::new(nodes, 1));
    driver.set_math_mode(model.cfg.math);
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
        .expect("SLR loop parallelizes");
    let plan = driver.compile_threaded(&compiled);
    (driver, compiled, plan)
}

// ---------------------------------------------------------------------
// SLR: the node process.

/// A stateless SLR node: the served weights live on the coordinator and
/// only mutate at epoch boundaries, so checkpoint and rollback barriers
/// are pure acknowledgements.
struct SlrNode {
    node: usize,
    data: SparseData,
    plan: Arc<ThreadedPlan>,
    /// The indices this node's recording pass discovers for bulk
    /// prefetch (§4.4).
    indices: Vec<u64>,
    step: f32,
    mode: MathMode,
    shape: orion_core::Shape,
    crash_epoch: Option<u64>,
    workdir: PathBuf,
    run_id: String,
}

fn slr_node_main(coord: &str, node: usize, n_nodes: usize) -> ! {
    let (data_cfg, cfg) = slr_env_decode();
    let data = SparseData::generate(data_cfg);
    let model = SlrModel::new(data.config.n_features, cfg);
    let (driver, _compiled, plan) = slr_compile(&data, &model, n_nodes);
    let ep = connect(coord, node, n_nodes, &plan);

    let positions: Vec<usize> = plan.worker_positions()[node]
        .iter()
        .map(|&p| p as usize)
        .collect();
    let workdir = PathBuf::from(env(ENV_WORKDIR));
    let run_id = env(ENV_RUN_ID);
    let mut state = SlrNode {
        node,
        indices: slr::record_prefetch_indices(&data, &positions),
        data,
        plan,
        step: model.cfg.step_size,
        mode: driver.math_mode(),
        shape: model.weights.shape().clone(),
        crash_epoch: crash_epoch(&workdir, &run_id, node),
        workdir,
        run_id,
    };
    node_control_loop(ep, node, &mut state)
}

/// The SLR node's transport: a 1-D program has no `Recv`/`Send` steps,
/// so the node's buffer never leaves its pinned slot.
struct Pinned;

impl<P> Transport<P> for Pinned {
    type Abort = std::convert::Infallible;

    fn send(&mut self, _: usize, _: usize, _: P) -> Result<(), Self::Abort> {
        unreachable!("1-D programs never send")
    }

    fn recv(&mut self, _: usize) -> Result<P, Self::Abort> {
        unreachable!("1-D programs never receive")
    }
}

impl NodeApp for SlrNode {
    /// One SLR epoch on a node: bulk-prefetch the weights this node's
    /// samples touch, run its program into an additive buffer against
    /// that snapshot, ship the drained buffer back as a server update.
    fn run_epoch(&mut self, ep: &mut NodeEndpoint, epoch: u64) -> EpochOutcome {
        let node = self.node;
        let t0 = Instant::now();
        ep.send_coord(&Msg::PrefetchRequest {
            epoch,
            node: node as u32,
            indices: self.indices.clone(),
        })
        .expect("send PrefetchRequest");
        // Await this epoch's prefetch response; stale responses from an
        // abandoned epoch carry an older epoch tag and are dropped.
        let snapshot: HashMap<u64, f32> = loop {
            match ep.next_coord_msg(ROTATION_TIMEOUT) {
                Ok(Msg::PrefetchResponse { epoch: e, payload }) if e == epoch => {
                    break codec::decode_updates::<f32>(payload).into_iter().collect();
                }
                Ok(Msg::PrefetchResponse { .. }) => {}
                Ok(ctrl @ (Msg::Rollback { .. } | Msg::Shutdown)) => {
                    return EpochOutcome::Preempted(ctrl);
                }
                Ok(other) => panic!("node {node}: unexpected {other:?} awaiting prefetch"),
                Err(e) => panic!("node {node}: {e}"),
            }
        };
        let rotation_ns = t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        let plan = &self.plan;
        let crash_at =
            (self.crash_epoch == Some(epoch)).then(|| plan.worker_positions()[node].len() / 2);
        let mut done = 0;
        let (data, step, mode) = (&self.data, self.step, self.mode);
        let (workdir, run_id) = (&self.workdir, &self.run_id);
        let exec = |block: usize, buf: &mut DistArrayBuffer<f32>| {
            for &pos in plan.blocks().items(block) {
                if crash_at == Some(done) {
                    inject_crash(workdir, run_id, node);
                }
                done += 1;
                let sample = &data.samples[pos as usize];
                // The worker view of the sim pass: served snapshot plus
                // the worker's own buffered writes — which read as zero
                // (§3.3), so `+ 0.0` reproduces the oracle's
                // `get_flat_or_default + buf_read` sum bit-for-bit.
                let margin = SlrModel::margin_with(
                    &sample.features,
                    |f| snapshot.get(&(f as u64)).copied().unwrap_or(0.0) + 0.0,
                    mode,
                );
                let coef = slr::logistic_grad_coef(sample.label, margin);
                for &f in &sample.features {
                    buf.write(&[f as i64], -step * coef);
                }
            }
        };
        let mut held: Vec<Option<DistArrayBuffer<f32>>> =
            (0..plan.n_parts()).map(|_| None).collect();
        held[node] = Some(DistArrayBuffer::additive(self.shape.clone()));
        let Ok(trace) = run_program(plan, node, &mut held, &mut Pinned, t1, exec);
        let updates: Vec<(u64, f32)> = held[node]
            .take()
            .expect("the buffer stays in its pinned slot")
            .drain()
            .into_iter()
            .map(|(idx, v)| (idx[0] as u64, v))
            .collect();
        ep.send_coord(&Msg::ServerUpdate {
            epoch,
            node: node as u32,
            payload: codec::encode_updates(&updates),
        })
        .expect("send ServerUpdate");
        // The coordinator applies this node's buffer after the barrier.
        let mut events = trace.events;
        events.push(HbEvent::ServerApply { node: node as u32 });
        EpochOutcome::Done {
            compute_ns: t1.elapsed().as_nanos() as u64,
            rotation_ns,
            events,
        }
    }
}

// ---------------------------------------------------------------------
// SLR: the coordinator-side training driver.

/// Trains SLR on a localhost cluster of `opts.nodes` stateless worker
/// processes, with the coordinator serving and updating the weight
/// array. Bit-identical to [`crate::slr::train_orion`] on a
/// `ClusterSpec::new(nodes, 1)` cluster — buffers accumulate the same
/// deltas and apply in node (= sim worker) order.
///
/// Recovery needs no checkpoints: the weights only mutate after a full
/// epoch's updates arrive, so a crashed epoch re-runs from the
/// in-memory pass-start snapshot (the same argument the sim chaos
/// harness makes for discarded buffers).
///
/// # Panics
///
/// Panics in adaptive mode and on protocol violations.
///
/// # Errors
///
/// Returns the underlying [`NetError`] if the cluster cannot be
/// launched or an unrecoverable transport fault occurs.
pub fn train_slr_distributed(
    data: &SparseData,
    cfg: SlrConfig,
    opts: &DistOptions,
) -> Result<DistRunResult<SlrModel>, NetError> {
    assert!(!cfg.adaptive, "distributed SLR supports the plain update");
    assert!(
        opts.nodes >= 1 && opts.epochs >= 1,
        "degenerate cluster options"
    );
    std::fs::create_dir_all(&opts.workdir)?;

    let mut model = SlrModel::new(data.config.n_features, cfg);
    let (mut driver, compiled, plan) = slr_compile(data, &model, opts.nodes);
    let fingerprint = plan_fingerprint(&plan);

    let mut ccfg = ClusterConfig::new(opts.nodes, opts.epochs, fingerprint);
    ccfg.record_msgs = opts.record_msgs;
    ccfg.env = slr_env(&data.config, &model.cfg, opts);
    if let Some((node, epoch)) = opts.crash {
        ccfg.node_env
            .push((node, ENV_CRASH_EPOCH.into(), epoch.to_string()));
    }
    let mut cluster = Coordinator::launch(ccfg)?;

    let mut epochs_out: Vec<EpochStats> = Vec::new();
    let mut recoveries = 0u64;
    let mut epoch = 0u64;
    while epoch < opts.epochs {
        let mut updates: Vec<Option<Bytes>> = vec![None; opts.nodes];
        let result = {
            let weights = &model.weights;
            driver.run_pass_distributed(Some(&compiled), &mut cluster, epoch, |node, msg| match msg
            {
                Msg::PrefetchRequest {
                    epoch: e, indices, ..
                } if e == epoch => {
                    // Serve the pass-start snapshot: every requested
                    // index, valued exactly as the sim's served reads.
                    let vals: Vec<(u64, f32)> = indices
                        .iter()
                        .map(|&i| (i, weights.get_flat_or_default(i)))
                        .collect();
                    Some(Msg::PrefetchResponse {
                        epoch,
                        payload: codec::encode_updates(&vals),
                    })
                }
                Msg::ServerUpdate {
                    epoch: e,
                    node: n,
                    payload,
                } if e == epoch => {
                    debug_assert_eq!(node, n as usize);
                    updates[n as usize] = Some(payload);
                    None
                }
                // Stale traffic from an abandoned epoch.
                _ => None,
            })
        };
        match result {
            Ok(stats) => {
                // Apply every node's buffered updates in node order —
                // the order the sim applies its per-worker buffers.
                for payload in updates.iter_mut().map(Option::take) {
                    let payload = payload.expect("every node sent its server update");
                    let mut buf = DistArrayBuffer::<f32>::additive(model.weights.shape().clone());
                    for (idx, v) in codec::decode_updates::<f32>(payload) {
                        buf.write(&[idx as i64], v);
                    }
                    slr::apply_buffer(&mut model, &mut buf);
                }
                driver.record_progress(epoch, model.loss(data));
                epochs_out.push(stats);
                epoch += 1;
            }
            Err(fault) => {
                // The crashed epoch's updates never touched the
                // weights; dropping them erases the pass, and the same
                // epoch re-runs against the unchanged snapshot.
                recoveries += 1;
                cluster.recover(&fault, epoch)?;
            }
        }
    }
    let gathered = cluster.gather()?;
    let msg_log = cluster.take_msg_log();
    debug_assert!(
        gathered.iter().all(Vec::is_empty),
        "SLR nodes are stateless"
    );
    cluster.shutdown();

    let report = driver.run_report(&compiled);
    Ok(DistRunResult {
        model,
        report,
        epochs: epochs_out,
        recoveries,
        reexecuted: 0,
        msg_log,
        plan,
        stats: driver.finish(),
    })
}
