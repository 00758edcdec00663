//! Per-worker programs and their one interpreter, plus real multi-core
//! execution of them on a persistent [`WorkerPool`].
//!
//! [`ThreadedPlan::compile`] lowers a [`Schedule`] once into a *program*
//! per worker: its steps in order — [`HbEvent::Recv`] a rotated
//! partition, [`HbEvent::Exec`] a block, [`HbEvent::Send`] a partition
//! downstream — plus the partitions it holds at pass start.
//! [`run_program`] is the only code that walks a program. It is generic
//! over a [`Transport`]: the pool passes partitions between threads
//! through channels ([`run_pass_pooled`]), the TCP runtime between node
//! processes through peer sockets. Pool workers play the role of Orion
//! executors: a worker's own state stays pinned to its thread, and
//! rotated time partitions *move*, zero-copy, exactly like DistArray
//! partitions travel between Orion executors (paper Fig. 8).
//!
//! Pipelined rotation: a program sends the partition it just finished
//! with downstream *before* its next block, and the unbounded channel
//! double-buffers the partition at the receiver while it is still
//! computing. With the schedule's pipeline depth of
//! [`crate::schedule::PIPELINE_DEPTH`], every worker already holds its
//! next partition when it finishes a block, so rotation overlaps compute
//! instead of serializing it.
//!
//! The steps are the [`HbEvent`] vocabulary, and the interpreter records
//! each step as it completes it, so an engine's happens-before log is
//! its program by construction. Because every schedule produced by the
//! analyzer is serializable, a pooled pass produces *bit-identical*
//! results to the simulated single-threaded pass (asserted in app tests
//! and the conformance proptests).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::event::HbEvent;
use crate::pool::WorkerPool;
use crate::schedule::{CompiledBlocks, Exec, Schedule};

/// How long a blocked parcel/result wait sleeps between checks of the
/// pool's poison flag. Long enough to be free on the happy path, short
/// enough that a peer panic surfaces promptly.
const POISON_POLL: Duration = Duration::from_millis(50);

/// What a worker executes (compute) or waits on (rotation) during a
/// threaded pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadPhase {
    /// Running a block's iterations.
    Compute,
    /// Blocked receiving a rotated partition from upstream.
    Rotation,
}

/// One timed phase of a worker's pass, in wall-clock nanoseconds
/// relative to the pass start (shared across workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSpan {
    /// What the worker was doing.
    pub phase: ThreadPhase,
    /// Offset of the phase start from the pass start.
    pub start_ns: u64,
    /// Offset of the phase end from the pass start.
    pub end_ns: u64,
}

/// A schedule lowered to one program per worker, with the shared block
/// table. Built once per loop and reused across passes and epochs
/// behind an [`Arc`].
///
/// Programs address *partition slots*. In a rotated (2-D) plan the
/// slots are the rotated array's time partitions and block `b` runs
/// against slot `b % n_parts`. An unrotated plan pins one slot to each
/// worker: worker `w` holds slot `w` for the whole pass and its program
/// has no `Recv`/`Send` steps.
#[derive(Debug, Clone)]
pub struct ThreadedPlan {
    n_workers: usize,
    n_parts: usize,
    rotated: bool,
    blocks: CompiledBlocks,
    programs: Vec<Vec<HbEvent>>,
    holds: Vec<Vec<usize>>,
}

impl ThreadedPlan {
    /// Lowers `schedule` into per-worker programs. A rotation edge
    /// between two workers becomes a `Send` right after the sender's
    /// block and a `Recv` right before the receiver's; an edge whose
    /// ends coincide (one worker owning the whole ring) becomes nothing,
    /// since the partition never leaves its slot.
    pub fn compile(schedule: &Schedule) -> Self {
        let n_workers = schedule.n_workers;
        let rotated = schedule.time_partition.is_some();
        let n_parts = if rotated {
            schedule.n_time_partitions
        } else {
            n_workers
        };
        let execs = || schedule.steps.iter().flatten();
        let crossing = |e: &Exec| e.awaited.filter(|a| rotated && a.from_worker != e.worker);
        // At most one send per (worker, step): a worker runs one block
        // per step and forwards that block's partition.
        let sends: HashMap<(usize, u64), HbEvent> = execs()
            .filter_map(|e| {
                let a = crossing(e)?;
                let send = HbEvent::Send {
                    tp: a.time_partition as u32,
                    dst: e.worker as u32,
                };
                Some(((a.from_worker, a.sent_after_step), send))
            })
            .collect();
        let mut programs: Vec<Vec<HbEvent>> = vec![Vec::new(); n_workers];
        let mut holds: Vec<Vec<usize>> = if rotated {
            vec![Vec::new(); n_workers]
        } else {
            (0..n_workers).map(|w| vec![w]).collect()
        };
        for e in execs() {
            let program = &mut programs[e.worker];
            if rotated && e.awaited.is_none() {
                holds[e.worker].push(e.block % n_parts);
            }
            if let Some(a) = crossing(e) {
                program.push(HbEvent::Recv {
                    tp: a.time_partition as u32,
                });
            }
            program.push(HbEvent::Exec {
                step: e.step,
                block: e.block as u32,
            });
            program.extend(sends.get(&(e.worker, e.step)).copied());
        }
        ThreadedPlan {
            n_workers,
            n_parts,
            rotated,
            blocks: schedule.blocks.clone(),
            programs,
            holds,
        }
    }

    /// Workers the plan schedules (and the pool size it needs).
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Partition slots the programs address: the time partitions of a
    /// rotated plan, one pinned slot per worker otherwise.
    pub fn n_parts(&self) -> usize {
        self.n_parts
    }

    /// Every worker's program, in worker order. A faithful execution
    /// records exactly these as its happens-before logs.
    pub fn programs(&self) -> &[Vec<HbEvent>] {
        &self.programs
    }

    /// Partition slots `worker` holds at pass start, in use order.
    pub fn initial_of(&self, worker: usize) -> &[usize] {
        &self.holds[worker]
    }

    /// The slot block `block` runs against on `worker`.
    fn slot_of(&self, worker: usize, block: usize) -> usize {
        if self.rotated {
            block % self.n_parts
        } else {
            worker
        }
    }

    /// Item positions each worker touches, in execution order. Lets
    /// callers shard per-item state (e.g. LDA topic assignments) into
    /// per-worker scratch that the pass body consumes sequentially.
    pub fn worker_positions(&self) -> Vec<Vec<u32>> {
        self.programs
            .iter()
            .map(|program| {
                program
                    .iter()
                    .filter_map(|ev| match *ev {
                        HbEvent::Exec { block, .. } => Some(self.blocks.items(block as usize)),
                        _ => None,
                    })
                    .flatten()
                    .copied()
                    .collect()
            })
            .collect()
    }

    /// Total scheduled items.
    pub fn total_items(&self) -> usize {
        self.blocks.total_items()
    }

    /// The compiled block table shared by all workers.
    pub fn blocks(&self) -> &CompiledBlocks {
        &self.blocks
    }
}

/// How a program's partitions travel between workers: channels between
/// pool threads, peer sockets between node processes.
pub trait Transport<P> {
    /// Why a transfer gave up (a dead peer, a preempting control
    /// message). [`run_program`] stops and hands it back unchanged.
    type Abort;

    /// Hands partition `tp` to worker `dst`.
    ///
    /// # Errors
    ///
    /// Returns the transport's abort reason if the pass must stop.
    fn send(&mut self, dst: usize, tp: usize, part: P) -> Result<(), Self::Abort>;

    /// Blocks until partition `tp` arrives from upstream.
    ///
    /// # Errors
    ///
    /// Returns the transport's abort reason if the pass must stop.
    fn recv(&mut self, tp: usize) -> Result<P, Self::Abort>;
}

/// What one run of a program recorded.
#[derive(Debug, Clone, Default)]
pub struct ProgramTrace {
    /// Timed compute and rotation phases, relative to the pass start.
    pub spans: Vec<ThreadSpan>,
    /// The steps completed, in order: the worker's happens-before log.
    pub events: Vec<HbEvent>,
}

/// Runs `worker`'s program of `plan`: the one interpreter every real
/// engine uses.
///
/// `held` is the worker's slot table (length [`ThreadedPlan::n_parts`]):
/// on entry it must hold the worker's [`ThreadedPlan::initial_of`]
/// slots; on return it holds whatever the worker kept. `exec(block,
/// part)` runs one block against the partition in its slot. Each
/// receive and each block is timed against `start`.
///
/// # Errors
///
/// Returns the transport's abort reason as soon as a send or receive
/// gives up; `held` is then partial.
///
/// # Panics
///
/// Panics if the program touches a slot the worker does not hold.
pub fn run_program<P, X, E>(
    plan: &ThreadedPlan,
    worker: usize,
    held: &mut [Option<P>],
    transport: &mut X,
    start: Instant,
    mut exec: E,
) -> Result<ProgramTrace, X::Abort>
where
    X: Transport<P>,
    E: FnMut(usize, &mut P),
{
    // Grown on demand, not pre-sized from the program length: pre-sizing
    // shifted glibc's per-thread arena reuse enough to raise the
    // `mf_grid_threads` benchmark's peak RSS by ~9% (2-vCPU Linux VM).
    let mut trace = ProgramTrace::default();
    let now = || start.elapsed().as_nanos() as u64;
    for &ev in &plan.programs[worker] {
        match ev {
            HbEvent::Recv { tp } => {
                let from = now();
                held[tp as usize] = Some(transport.recv(tp as usize)?);
                trace.spans.push(ThreadSpan {
                    phase: ThreadPhase::Rotation,
                    start_ns: from,
                    end_ns: now(),
                });
            }
            HbEvent::Exec { block, .. } => {
                let from = now();
                let slot = plan.slot_of(worker, block as usize);
                let part = held[slot].as_mut().unwrap_or_else(|| {
                    panic!("worker {worker} runs block {block} without slot {slot}")
                });
                exec(block as usize, part);
                trace.spans.push(ThreadSpan {
                    phase: ThreadPhase::Compute,
                    start_ns: from,
                    end_ns: now(),
                });
            }
            HbEvent::Send { tp, dst } => {
                let part = held[tp as usize]
                    .take()
                    .unwrap_or_else(|| panic!("worker {worker} sends slot {tp} it does not hold"));
                transport.send(dst as usize, tp as usize, part)?;
            }
            other => unreachable!("programs hold no {other:?} steps"),
        }
        trace.events.push(ev);
    }
    Ok(trace)
}

/// A rotated partition in flight between pool workers.
type Parcel<P> = (usize, P);

/// The pool's transport: one parcel channel per worker. A worker's own
/// sender slot is empty (rotation edges never target their sender), so
/// a pass abandoned on poison drops every foreign sender it holds.
struct Channels<P> {
    rx: Receiver<Parcel<P>>,
    tx: Vec<Option<Sender<Parcel<P>>>>,
    poison: Arc<AtomicBool>,
}

impl<P> Transport<P> for Channels<P> {
    /// A peer died; the pass is abandoned and the collector reports the
    /// panic.
    type Abort = ();

    fn send(&mut self, dst: usize, tp: usize, part: P) -> Result<(), ()> {
        let tx = self.tx[dst].as_ref().expect("rotation edges cross workers");
        tx.send((tp, part)).map_err(drop)
    }

    /// Blocking receive that bails out when the pool is poisoned or the
    /// upstream sender vanished, so a peer panic can never deadlock the
    /// rotation ring.
    fn recv(&mut self, tp: usize) -> Result<P, ()> {
        loop {
            match self.rx.recv_timeout(POISON_POLL) {
                Ok((got, part)) => {
                    assert_eq!(got, tp, "partitions arrive in program order");
                    return Ok(part);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.poison.load(Ordering::SeqCst) {
                        return Err(());
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(()),
            }
        }
    }
}

/// Everything a pooled pass hands back.
#[derive(Debug)]
pub struct PassOutput<W, P> {
    /// Per-worker state after the pass, in worker order.
    pub state: Vec<W>,
    /// Partitions after the pass, in slot order.
    pub parts: Vec<P>,
    /// Timed compute/rotation phases per worker.
    pub spans: Vec<Vec<ThreadSpan>>,
    /// Per-worker happens-before event logs (program order), for the
    /// `O11x` causality checker.
    pub events: Vec<Vec<HbEvent>>,
    /// Wall-clock duration of the pass in nanoseconds.
    pub wall_ns: u64,
}

/// Executes one pass of `plan` on the pool: worker `w` runs its program
/// with `state[w]` pinned to its thread.
///
/// - `items`: the iteration items the schedule was built over, shared
///   immutably with every worker.
/// - `state`: one per worker, moved in and back out — e.g. the worker's
///   space partition (from [`orion_dsm::DistArray::split_along`] with
///   the schedule's `space_partition` ranges), buffers, RNG shards.
/// - `parts`: one per partition slot ([`ThreadedPlan::n_parts`]). For a
///   rotated plan these are the rotated array's time partitions, moved
///   through channels, never cloned; an unrotated plan pins `parts[w]`
///   to worker `w` (pass `vec![(); n]` when there is nothing to pin).
/// - `body`: the loop body, applied to each item against the worker's
///   state and the partition its block runs against.
///
/// # Panics
///
/// Panics if the state or partition counts do not match the plan, if
/// the pool is smaller than the plan's worker count, or — with the
/// panicking worker's message — if a worker dies mid-pass.
pub fn run_pass_pooled<T, W, P, F>(
    pool: &WorkerPool,
    plan: &Arc<ThreadedPlan>,
    items: &Arc<Vec<T>>,
    state: Vec<W>,
    parts: Vec<P>,
    body: &Arc<F>,
) -> PassOutput<W, P>
where
    T: Send + Sync + 'static,
    W: Send + 'static,
    P: Send + 'static,
    F: Fn(&T, &mut W, &mut P) + Send + Sync + 'static,
{
    let n_workers = plan.n_workers;
    let n_parts = plan.n_parts;
    assert!(
        pool.size() >= n_workers,
        "pool has {} workers but the plan needs {n_workers}",
        pool.size()
    );
    assert_eq!(state.len(), n_workers, "one state slot per worker");
    assert_eq!(parts.len(), n_parts, "one partition per slot");

    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n_workers).map(|_| channel()).unzip();
    let mut parts: Vec<Option<P>> = parts.into_iter().map(Some).collect();
    let tables: Vec<Vec<Option<P>>> = (0..n_workers)
        .map(|w| {
            let mut held: Vec<Option<P>> = (0..n_parts).map(|_| None).collect();
            for &tp in &plan.holds[w] {
                held[tp] = Some(parts[tp].take().expect("each partition starts once"));
            }
            held
        })
        .collect();
    assert!(
        parts.iter().all(Option::is_none),
        "every partition must have an initial holder"
    );

    type WorkerResult<W, P> = (usize, W, Vec<Option<P>>, ProgramTrace);
    let (result_tx, result_rx) = channel::<WorkerResult<W, P>>();
    let poison = pool.poison_flag();
    let start = Instant::now();
    let worker_inputs = state.into_iter().zip(tables).zip(receivers);
    for (w, ((mut st, mut held), rx)) in worker_inputs.enumerate() {
        let mut transport = Channels {
            rx,
            tx: senders
                .iter()
                .enumerate()
                .map(|(dst, s)| (dst != w).then(|| s.clone()))
                .collect(),
            poison: Arc::clone(&poison),
        };
        let plan = Arc::clone(plan);
        let items = Arc::clone(items);
        let body = Arc::clone(body);
        let result_tx = result_tx.clone();
        let job = Box::new(move || {
            let run = run_program(&plan, w, &mut held, &mut transport, start, |block, part| {
                for &pos in plan.blocks.items(block) {
                    body(&items[pos as usize], &mut st, part);
                }
            });
            // Release foreign senders before reporting so channel
            // disconnects propagate even if the result is never read.
            drop(transport);
            if let Ok(trace) = run {
                let _ = result_tx.send((w, st, held, trace));
            }
        });
        if let Err(_job) = pool.submit(w, job) {
            break; // poison; the collection loop reports the panic
        }
    }
    drop(senders);
    drop(result_tx);

    let mut results: Vec<WorkerResult<W, P>> = Vec::with_capacity(n_workers);
    while results.len() < n_workers {
        match result_rx.recv_timeout(POISON_POLL) {
            Ok(r) => results.push(r),
            Err(err) => {
                if let Some(msg) = pool.panic_message() {
                    panic!("{msg}");
                }
                if err == RecvTimeoutError::Disconnected {
                    // Result senders vanished before the panic was
                    // recorded; give the pool worker a beat to finish
                    // unwinding, then report.
                    std::thread::sleep(POISON_POLL);
                    match pool.panic_message() {
                        Some(msg) => panic!("{msg}"),
                        None => panic!("threaded pass lost workers without a recorded panic"),
                    }
                }
            }
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;

    results.sort_by_key(|r| r.0);
    let mut state = Vec::with_capacity(n_workers);
    let mut spans = Vec::with_capacity(n_workers);
    let mut events = Vec::with_capacity(n_workers);
    for (_, st, held, trace) in results {
        state.push(st);
        spans.push(trace.spans);
        events.push(trace.events);
        for (tp, part) in held.into_iter().enumerate() {
            if let Some(part) = part {
                assert!(parts[tp].is_none(), "partition {tp} duplicated");
                parts[tp] = Some(part);
            }
        }
    }
    let parts = parts
        .into_iter()
        .enumerate()
        .map(|(tp, p)| p.unwrap_or_else(|| panic!("partition {tp} lost")))
        .collect();
    PassOutput {
        state,
        parts,
        spans,
        events,
        wall_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::build_schedule;
    use orion_analysis::Strategy;
    use orion_dsm::DistArray;

    fn grid_items(m: i64, n: i64) -> Vec<(Vec<i64>, f32)> {
        (0..m)
            .flat_map(|i| (0..n).map(move |j| (vec![i, j], (i * n + j) as f32)))
            .collect()
    }

    /// Pool + plan + shared items for one grid schedule.
    type GridSetup = (
        WorkerPool,
        Arc<ThreadedPlan>,
        Arc<Vec<(Vec<i64>, f32)>>,
        Schedule,
    );

    fn setup(
        items: Vec<(Vec<i64>, f32)>,
        extents: &[u64],
        n_workers: usize,
        ordered: bool,
    ) -> GridSetup {
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered,
        };
        let indices: Vec<&[i64]> = items.iter().map(|(i, _)| i.as_slice()).collect();
        let sched = build_schedule(&strat, &indices, extents, n_workers);
        let plan = Arc::new(ThreadedPlan::compile(&sched));
        (WorkerPool::new(n_workers), plan, Arc::new(items), sched)
    }

    #[test]
    fn grid_pass_touches_every_item_against_owning_partitions() {
        let (pool, plan, items, sched) = setup(grid_items(8, 8), &[8, 8], 4, false);
        // Space array: one counter per row; time array: one per column.
        let w: DistArray<u32> = DistArray::dense("w", vec![8, 1]);
        let h: DistArray<u32> = DistArray::dense("h", vec![8, 1]);
        let sp = sched.space_partition.as_ref().unwrap();
        let tp = sched.time_partition.as_ref().unwrap();
        let body = Arc::new(
            |(idx, _v): &(Vec<i64>, f32), wp: &mut DistArray<u32>, hp: &mut DistArray<u32>| {
                wp.update(&[idx[0], 0], |c| *c += 1);
                hp.update(&[idx[1], 0], |c| *c += 1);
            },
        );
        let out = run_pass_pooled(
            &pool,
            &plan,
            &items,
            w.split_along(0, &sp.ranges),
            h.split_along(0, &tp.ranges),
            &body,
        );
        let w = DistArray::merge_along(0, out.state);
        let h = DistArray::merge_along(0, out.parts);
        for r in 0..8 {
            assert_eq!(w.get(&[r, 0]), Some(&8));
            assert_eq!(h.get(&[r, 0]), Some(&8));
        }
        assert_eq!(out.spans.len(), 4);
        assert!(out.spans.iter().all(|s| !s.is_empty()));
        assert!(out.wall_ns > 0);
        // Every worker logs one Exec per scheduled block, plus
        // send/recv pairs along every cross-worker rotation edge.
        assert_eq!(out.events.len(), 4);
        for (w, log) in out.events.iter().enumerate() {
            let execs = log
                .iter()
                .filter(|e| matches!(e, HbEvent::Exec { .. }))
                .count();
            let scheduled = sched
                .steps
                .iter()
                .flatten()
                .filter(|e| e.worker == w)
                .count();
            assert_eq!(execs, scheduled);
        }
        let sends: usize = out
            .events
            .iter()
            .flatten()
            .filter(|e| matches!(e, HbEvent::Send { .. }))
            .count();
        let recvs: usize = out
            .events
            .iter()
            .flatten()
            .filter(|e| matches!(e, HbEvent::Recv { .. }))
            .count();
        assert_eq!(sends, recvs);
        assert!(sends > 0, "a 4-worker grid pass rotates partitions");
        assert_eq!(
            out.events,
            plan.programs(),
            "the recorded logs are the programs"
        );
    }

    #[test]
    fn grid_pass_matches_sequential_execution() {
        // Accumulate an order-independent function (sum of value*row) so
        // results must match a serial pass exactly.
        let (pool, plan, items, sched) = setup(grid_items(10, 10), &[10, 10], 5, false);
        let w: DistArray<f32> = DistArray::dense("w", vec![10, 1]);
        let h: DistArray<f32> = DistArray::dense("h", vec![10, 1]);
        let sp = sched.space_partition.clone().unwrap();
        let tp = sched.time_partition.clone().unwrap();
        let body = Arc::new(
            |(idx, v): &(Vec<i64>, f32), wp: &mut DistArray<f32>, hp: &mut DistArray<f32>| {
                wp.update(&[idx[0], 0], |c| *c += v);
                hp.update(&[idx[1], 0], |c| *c += v * 2.0);
            },
        );
        let out = run_pass_pooled(
            &pool,
            &plan,
            &items,
            w.clone().split_along(0, &sp.ranges),
            h.clone().split_along(0, &tp.ranges),
            &body,
        );
        let tw = DistArray::merge_along(0, out.state);
        let th = DistArray::merge_along(0, out.parts);

        let mut sw = w;
        let mut sh = h;
        for (idx, v) in items.iter() {
            sw.update(&[idx[0], 0], |c| *c += v);
            sh.update(&[idx[1], 0], |c| *c += v * 2.0);
        }
        assert_eq!(tw, sw);
        assert_eq!(th, sh);
    }

    #[test]
    fn ordered_grid_pass_also_runs() {
        let (pool, plan, items, sched) = setup(grid_items(6, 6), &[6, 6], 3, true);
        let w: DistArray<u32> = DistArray::dense("w", vec![6, 1]);
        let h: DistArray<u32> = DistArray::dense("h", vec![6, 1]);
        let sp = sched.space_partition.clone().unwrap();
        let tp = sched.time_partition.clone().unwrap();
        let body = Arc::new(
            |(idx, _v): &(Vec<i64>, f32), wp: &mut DistArray<u32>, hp: &mut DistArray<u32>| {
                wp.update(&[idx[0], 0], |c| *c += 1);
                hp.update(&[idx[1], 0], |c| *c += 1);
            },
        );
        let out = run_pass_pooled(
            &pool,
            &plan,
            &items,
            w.split_along(0, &sp.ranges),
            h.split_along(0, &tp.ranges),
            &body,
        );
        let w = DistArray::merge_along(0, out.state);
        let h = DistArray::merge_along(0, out.parts);
        assert!(w.iter().all(|(_, &c)| c == 6));
        assert!(h.iter().all(|(_, &c)| c == 6));
    }

    #[test]
    fn one_d_pass_pooled_counts() {
        let items = grid_items(8, 4);
        let indices: Vec<&[i64]> = items.iter().map(|(i, _)| i.as_slice()).collect();
        let sched = build_schedule(&Strategy::OneD { dim: 0 }, &indices, &[8, 4], 4);
        let plan = Arc::new(ThreadedPlan::compile(&sched));
        let pool = WorkerPool::new(plan.n_workers());
        let items = Arc::new(items);
        let w: DistArray<u32> = DistArray::dense("w", vec![8, 1]);
        let sp = sched.space_partition.clone().unwrap();
        let body = Arc::new(
            |(idx, _v): &(Vec<i64>, f32), wp: &mut DistArray<u32>, _: &mut ()| {
                wp.update(&[idx[0], 0], |c| *c += 1);
            },
        );
        let parts = vec![(); plan.n_workers()];
        let out = run_pass_pooled(
            &pool,
            &plan,
            &items,
            w.split_along(0, &sp.ranges),
            parts,
            &body,
        );
        let w = DistArray::merge_along(0, out.state);
        assert!(w.iter().all(|(_, &c)| c == 4));
    }

    #[test]
    fn pool_is_reused_across_passes_and_epochs() {
        let (pool, plan, items, sched) = setup(grid_items(8, 8), &[8, 8], 4, false);
        let sp = sched.space_partition.clone().unwrap();
        let tp = sched.time_partition.clone().unwrap();
        let body = Arc::new(
            |(idx, _v): &(Vec<i64>, f32), wp: &mut DistArray<u32>, hp: &mut DistArray<u32>| {
                wp.update(&[idx[0], 0], |c| *c += 1);
                hp.update(&[idx[1], 0], |c| *c += 1);
            },
        );
        let mut w_parts = DistArray::<u32>::dense("w", vec![8, 1]).split_along(0, &sp.ranges);
        let mut h_parts = DistArray::<u32>::dense("h", vec![8, 1]).split_along(0, &tp.ranges);
        for _ in 0..3 {
            let out = run_pass_pooled(&pool, &plan, &items, w_parts, h_parts, &body);
            w_parts = out.state;
            h_parts = out.parts;
        }
        let w = DistArray::merge_along(0, w_parts);
        assert!(w.iter().all(|(_, &c)| c == 24));
        assert!(!pool.is_poisoned());
    }

    #[test]
    fn worker_panic_mid_pass_propagates_with_a_message() {
        let (pool, plan, items, sched) = setup(grid_items(8, 8), &[8, 8], 4, false);
        let sp = sched.space_partition.clone().unwrap();
        let tp = sched.time_partition.clone().unwrap();
        let body = Arc::new(
            |(idx, _v): &(Vec<i64>, f32), _wp: &mut DistArray<u32>, _hp: &mut DistArray<u32>| {
                assert!(idx[0] != 5, "poisoned row reached the loop body");
            },
        );
        let w: DistArray<u32> = DistArray::dense("w", vec![8, 1]);
        let h: DistArray<u32> = DistArray::dense("h", vec![8, 1]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pass_pooled(
                &pool,
                &plan,
                &items,
                w.split_along(0, &sp.ranges),
                h.split_along(0, &tp.ranges),
                &body,
            )
        }));
        let payload = result.expect_err("pass must propagate the worker panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("panicked") && msg.contains("poisoned row"),
            "unhelpful propagated message: {msg}"
        );
        assert!(pool.is_poisoned());
    }
}
