//! The Orion driver: the program a user writes (paper §3, Fig. 5).
//!
//! An application is an imperative driver program that creates
//! DistArrays, declares accumulators, and runs `@parallel_for` loops.
//! [`Driver`] plays that role: it registers arrays (recording the
//! metadata the analyzer needs), *compiles* loops — static dependence
//! analysis, strategy selection, schedule construction, communication
//! model — exactly once per loop (like the macro expansion of §4.1), and
//! executes passes on the simulated cluster.

use std::collections::HashMap;

use orion_analysis::{analyze, ParallelPlan, Strategy};
use orion_check::{full_report, HbChecker, RaceChecker};
use orion_dsm::{DistArray, Element, MathMode};
use orion_ir::{ArrayMeta, DistArrayId, LoopSpec};
use std::sync::Arc;

use orion_runtime::{
    build_schedule, comm_model_with_spec, default_threads, run_pass_pooled, CompiledBlocks,
    HbEvent, LoopCommModel, PassOutput, PassStats, Schedule, SimExecutor, ThreadPhase, ThreadSpan,
    ThreadedPlan, WorkerPool,
};
use orion_sim::{ClusterSpec, FaultPlan, RunStats, VirtualTime};
use orion_trace::{LinkBytes, LoadStats, OwnedSession, RunReport, SpanCat, Transfer};
use orion_tune::{tune_spec, TuneConfig, TuneOutcome};

use crate::recovery::{FaultEvent, RecoveryConfig, RecoveryStats};

/// Errors surfaced by the driver.
#[derive(Debug)]
pub enum DriverError {
    /// The loop spec failed validation.
    Spec(orion_ir::SpecError),
    /// A loop body requires parallelization but analysis found none and
    /// the caller required a parallel strategy.
    NotParallelizable(String),
}

impl core::fmt::Display for DriverError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DriverError::Spec(e) => write!(f, "invalid loop spec: {e}"),
            DriverError::NotParallelizable(name) => {
                write!(
                    f,
                    "loop `{name}` has no dependence-preserving parallelization"
                )
            }
        }
    }
}

impl std::error::Error for DriverError {}

impl From<orion_ir::SpecError> for DriverError {
    fn from(e: orion_ir::SpecError) -> Self {
        DriverError::Spec(e)
    }
}

/// A loop after static parallelization: analysis result, compiled
/// schedule, and communication model, reusable across executions
/// ("the macro expansion and compilation is executed only once", §4.1).
#[derive(Debug, Clone)]
pub struct CompiledLoop {
    /// The analyzed spec.
    pub spec: LoopSpec,
    /// Dependence vectors, strategy and placements.
    pub plan: ParallelPlan,
    /// The computation schedule.
    pub schedule: Schedule,
    /// Communication model used by the simulator.
    pub comm: LoopCommModel,
}

impl CompiledLoop {
    /// The chosen strategy.
    pub fn strategy(&self) -> &Strategy {
        &self.plan.strategy
    }
}

/// The driver program state: registered arrays, the simulated cluster,
/// and compiled loops.
///
/// # Examples
///
/// A miniature SGD-MF-shaped program:
///
/// ```
/// use orion_core::Driver;
/// use orion_dsm::DistArray;
/// use orion_ir::{LoopSpec, Subscript};
/// use orion_sim::ClusterSpec;
///
/// let mut driver = Driver::new(ClusterSpec::new(2, 2));
/// let ratings: DistArray<f32> =
///     DistArray::sparse_from("ratings", vec![8, 6], vec![(vec![1, 2], 1.0), (vec![5, 0], 2.0)]);
/// let mut w: DistArray<f32> = DistArray::dense("W", vec![8, 4]);
/// let z = driver.register(&ratings);
/// let w_id = driver.register(&w);
///
/// let spec = LoopSpec::builder("update", z, vec![8, 6])
///     .read_write(w_id, vec![Subscript::loop_index(0), Subscript::Full])
///     .build()
///     .unwrap();
/// let items: Vec<(Vec<i64>, f32)> = ratings.iter().map(|(i, &v)| (i, v)).collect();
/// let compiled = driver.parallel_for(spec, &items).unwrap();
/// driver.run_pass(&compiled, &mut |_pos| 100.0, &mut |_w, pos| {
///     let (idx, val) = &items[pos];
///     w.update(&[idx[0], 0], |x| *x += val);
/// });
/// assert_eq!(w.get(&[1, 0]), Some(&1.0));
/// ```
pub struct Driver {
    executor: SimExecutor,
    metas: Vec<ArrayMeta>,
    next_id: u32,
    compiled: HashMap<String, usize>,
    /// Average served reads per iteration, settable before compiling a
    /// loop with served arrays (e.g. nonzeros per sample for SLR).
    served_reads_per_iter: f64,
    stats: RunStats,
    recovery_cfg: RecoveryConfig,
    recovery: RecoveryStats,
    /// Whether compiled loops are sanitized by the dynamic race checker.
    validate: bool,
    /// Per-loop schedule sanitizers (`orion-check`), keyed by loop name.
    checkers: HashMap<String, RaceChecker>,
    /// Per-loop happens-before checkers (`orion-check`, O11x), fed the
    /// event logs the threaded and distributed engines record.
    hb_checkers: HashMap<String, HbChecker>,
    /// Thread count for the real-core execution path (`None` = host
    /// parallelism).
    threads: Option<usize>,
    /// Persistent worker pool, created lazily on the first threaded pass
    /// and reused across passes and epochs.
    pool: Option<WorkerPool>,
    /// Floating-point reduction policy loop bodies should honor
    /// (`Exact` keeps seed bit-identity; `FastMath` reassociates the
    /// `dot` / `gather_sum` reductions into lane partial sums).
    math_mode: MathMode,
    /// Real per-link wire bytes accumulated by distributed passes
    /// ([`Driver::run_pass_distributed`]); merged with the simulated
    /// network's modelled traffic in [`Driver::run_report`].
    wire_links: Vec<LinkBytes>,
    /// Auto-tuner decision records, keyed by loop name
    /// ([`Driver::run_pass_tuned`] re-plans once per loop).
    tune_outcomes: HashMap<String, TuneOutcome>,
}

impl Driver {
    /// A driver targeting the given simulated cluster.
    pub fn new(cluster: ClusterSpec) -> Self {
        Driver {
            executor: SimExecutor::new(cluster),
            metas: Vec::new(),
            next_id: 0,
            compiled: HashMap::new(),
            served_reads_per_iter: 1.0,
            stats: RunStats::default(),
            recovery_cfg: RecoveryConfig::default(),
            recovery: RecoveryStats::default(),
            validate: Self::validate_by_default(),
            checkers: HashMap::new(),
            hb_checkers: HashMap::new(),
            threads: None,
            pool: None,
            math_mode: MathMode::default(),
            wire_links: Vec::new(),
            tune_outcomes: HashMap::new(),
        }
    }

    /// Selects the floating-point reduction policy for passes run
    /// through this driver. [`MathMode::Exact`] (the default) keeps
    /// every reduction bit-identical to the serial seed;
    /// [`MathMode::FastMath`] opts reassociating reductions (dot
    /// products, gathered sums) into multi-accumulator vectorized
    /// forms — still deterministic, but associated differently. Every
    /// build honours both modes: there is no compile-time kernel switch.
    pub fn set_math_mode(&mut self, mode: MathMode) {
        self.math_mode = mode;
    }

    /// The floating-point reduction policy loop bodies should pass to
    /// `orion_dsm::kernels` reductions.
    pub fn math_mode(&self) -> MathMode {
        self.math_mode
    }

    /// Whether drivers sanitize schedules by default: on in debug
    /// builds (which include the test profile), off in release, like
    /// `debug_assert!`. Override per driver with
    /// [`Driver::set_validate`].
    pub fn validate_by_default() -> bool {
        cfg!(debug_assertions)
    }

    /// Turns the schedule sanitizer on or off for loops compiled *after*
    /// this call. When on, every executed pass's time slots are checked
    /// against the loop's declared accesses (TSan-style, in virtual
    /// time) and a detected race panics with an `O100` diagnostic
    /// naming the offending access pair, epoch, and timestamps.
    pub fn set_validate(&mut self, on: bool) {
        self.validate = on;
    }

    /// Whether the schedule sanitizer is active for newly compiled
    /// loops.
    pub fn validating(&self) -> bool {
        self.validate
    }

    /// Registers a DistArray, assigning its id and recording the metadata
    /// the analyzer's communication heuristic uses.
    pub fn register<T: Element>(&mut self, array: &DistArray<T>) -> DistArrayId {
        let id = DistArrayId(self.next_id);
        self.next_id += 1;
        self.metas.push(array.meta(id));
        id
    }

    /// Refreshes the recorded metadata of `id` (e.g. after inserting into
    /// a sparse array).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this driver.
    pub fn refresh_meta<T: Element>(&mut self, id: DistArrayId, array: &DistArray<T>) {
        let slot = self
            .metas
            .iter_mut()
            .find(|m| m.id == id)
            .unwrap_or_else(|| panic!("{id} is not registered"));
        *slot = array.meta(id);
    }

    /// Registered metadata (analyzer input).
    pub fn metas(&self) -> &[ArrayMeta] {
        &self.metas
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.executor.cluster
    }

    /// Declares the average number of served-array reads per iteration
    /// for subsequently compiled loops (the value Orion's synthesized
    /// recording function discovers at runtime).
    pub fn set_served_reads_per_iter(&mut self, reads: f64) {
        self.served_reads_per_iter = reads;
    }

    /// Statically parallelizes a loop (the `@parallel_for` macro):
    /// dependence analysis, strategy selection, schedule construction.
    ///
    /// `items` is the materialized iteration space (index/value pairs);
    /// the returned [`CompiledLoop`] refers to items by position in this
    /// slice.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Spec`] for invalid specs.
    pub fn parallel_for<T: Element>(
        &mut self,
        spec: LoopSpec,
        items: &[(Vec<i64>, T)],
    ) -> Result<CompiledLoop, DriverError> {
        spec.validate()?;
        let n_workers = self.executor.cluster.n_workers();
        let plan = analyze(&spec, &self.metas, n_workers as u64);
        // Borrow the item indices instead of cloning one Vec per
        // iteration; the schedule stores positions, not indices.
        let indices: Vec<&[i64]> = items.iter().map(|(i, _)| i.as_slice()).collect();
        let schedule = build_schedule(&plan.strategy, &indices, &spec.iter_dims, n_workers);
        let comm =
            comm_model_with_spec(&plan, &self.metas, self.served_reads_per_iter, Some(&spec));
        if self.validate {
            self.executor.slots.enable();
            self.checkers.insert(
                spec.name.clone(),
                RaceChecker::new(&spec, &self.metas, &indices),
            );
            self.hb_checkers.insert(
                spec.name.clone(),
                HbChecker::new(&spec, &self.metas, &indices),
            );
        }
        self.compiled.insert(spec.name.clone(), 0);
        Ok(CompiledLoop {
            spec,
            plan,
            schedule,
            comm,
        })
    }

    /// Executes one pass of a compiled loop: `cost(pos)` returns the
    /// compute nanoseconds of iteration `pos`, `body(worker, pos)`
    /// performs it. Returns the pass statistics.
    ///
    /// # Panics
    ///
    /// With validation on (see [`Driver::set_validate`]), panics with a
    /// rendered `O100` diagnostic if the executed pass co-scheduled two
    /// conflicting accesses.
    pub fn run_pass(
        &mut self,
        compiled: &CompiledLoop,
        cost: &mut dyn FnMut(usize) -> f64,
        body: &mut dyn FnMut(usize, usize),
    ) -> PassStats {
        let stats = self
            .executor
            .run_pass(&compiled.schedule, &compiled.comm, cost, body);
        self.sanitize_pass(compiled);
        stats
    }

    /// Re-plans a compiled loop from measured costs (`orion-tune`):
    /// calibrates the static plan with seeded no-op passes on this
    /// driver's cluster, fits [`orion_analysis::CostParams`], and
    /// returns the fastest measured candidate plan together with the
    /// decision record (including the `O020` diagnostic on a re-plan).
    ///
    /// `items` must be the same slice the loop was compiled from —
    /// schedules address iterations by position. The returned loop is
    /// checked by the `O100` race checker and the happens-before
    /// checker, and this driver's per-pass sanitizers keep validating
    /// it on every executed pass (they resolve slots against the
    /// schedule that actually ran).
    pub fn tune_loop<T: Element>(
        &mut self,
        compiled: &CompiledLoop,
        items: &[(Vec<i64>, T)],
        cfg: &TuneConfig,
        cost: &mut dyn FnMut(usize) -> f64,
    ) -> (CompiledLoop, TuneOutcome) {
        let indices: Vec<&[i64]> = items.iter().map(|(i, _)| i.as_slice()).collect();
        let tuned = tune_spec(
            &compiled.spec,
            &self.metas,
            &indices,
            &self.executor.cluster,
            self.served_reads_per_iter,
            cost,
            cfg,
        );
        (
            CompiledLoop {
                spec: compiled.spec.clone(),
                plan: tuned.plan,
                schedule: tuned.schedule,
                comm: tuned.comm,
            },
            tuned.outcome,
        )
    }

    /// [`Driver::run_pass`] behind the auto-tuner: on the first call
    /// for a loop, calibrates and re-plans it (swapping the tuned
    /// schedule into `compiled` in place), then runs the pass. Later
    /// calls reuse the tuned plan — re-planning happens once per loop
    /// name, like compilation itself.
    ///
    /// Tuned execution stays bit-identical per plan: the schedule is
    /// fixed after the first call, and the same schedule always yields
    /// the same execution order (and therefore the same results).
    pub fn run_pass_tuned<T: Element>(
        &mut self,
        compiled: &mut CompiledLoop,
        items: &[(Vec<i64>, T)],
        cfg: &TuneConfig,
        cost: &mut dyn FnMut(usize) -> f64,
        body: &mut dyn FnMut(usize, usize),
    ) -> PassStats {
        if !self.tune_outcomes.contains_key(&compiled.spec.name) {
            let (tuned, outcome) = self.tune_loop(compiled, items, cfg, cost);
            *compiled = tuned;
            self.tune_outcomes
                .insert(compiled.spec.name.clone(), outcome);
        }
        self.run_pass(compiled, cost, body)
    }

    /// The auto-tuner's decision record for a loop previously run via
    /// [`Driver::run_pass_tuned`], if any.
    pub fn tune_outcome(&self, loop_name: &str) -> Option<&TuneOutcome> {
        self.tune_outcomes.get(loop_name)
    }

    /// Feeds the pass's recorded time slots to the loop's race checker
    /// and fails loudly on a conflict. The slots are resolved against
    /// the block table of the schedule that actually ran, so a schedule
    /// swapped in after compilation is still checked honestly. Slots
    /// are drained even when the loop has no checker (compiled by
    /// another driver, or before validation was enabled) so the log
    /// cannot grow unbounded.
    fn sanitize_pass(&mut self, compiled: &CompiledLoop) {
        if !self.executor.slots.is_enabled() {
            return;
        }
        let records = self.executor.slots.drain();
        if let Some(checker) = self.checkers.get_mut(&compiled.spec.name) {
            if let Err(violation) = checker.check_epoch(&compiled.schedule.blocks, &records) {
                panic!("schedule sanitizer tripped:\n{violation}");
            }
        }
    }

    /// Feeds a recorded per-actor event log to the loop's
    /// happens-before checker. No-op when validation is off (no checker
    /// was registered) or every log is empty (un-instrumented actors).
    fn sanitize_hb(
        &mut self,
        loop_name: &str,
        blocks: &CompiledBlocks,
        events: &[Vec<HbEvent>],
        context: &str,
    ) {
        if events.iter().all(Vec::is_empty) {
            return;
        }
        if let Some(checker) = self.hb_checkers.get_mut(loop_name) {
            if let Err(violation) = checker.check_pass(blocks, events, context) {
                panic!("happens-before checker tripped:\n{violation}");
            }
        }
    }

    /// Checks an externally recorded per-actor [`HbEvent`] log against
    /// `compiled`'s happens-before order — the entry point for replaying
    /// logs captured outside the driver's own pass methods (e.g. logs
    /// persisted from a cluster run).
    ///
    /// # Panics
    ///
    /// Panics with a rendered O110–O112 diagnostic when the log
    /// contains a concurrent conflicting access pair, an unmatched
    /// handoff edge, or a barrier anomaly (and validation is on).
    pub fn check_hb_events(
        &mut self,
        compiled: &CompiledLoop,
        events: &[Vec<HbEvent>],
        context: &str,
    ) {
        self.sanitize_hb(
            &compiled.spec.name,
            &compiled.schedule.blocks,
            events,
            context,
        );
    }

    /// Pins the thread count of the real-core execution path (default:
    /// the host's available parallelism). Takes effect on the next
    /// threaded pass; an existing smaller pool is replaced.
    pub fn set_threads(&mut self, n: usize) {
        self.threads = Some(n.max(1));
    }

    /// Effective thread count of the real-core execution path.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(default_threads)
    }

    /// The persistent worker pool, if a threaded pass has run.
    pub fn pool(&self) -> Option<&WorkerPool> {
        self.pool.as_ref()
    }

    /// Compiles `compiled`'s schedule for the threaded engine and — with
    /// validation on — statically sanitizes it first: the threaded path
    /// has no virtual-time slot log, so the O100 race check runs on the
    /// schedule itself, once per loop.
    ///
    /// # Panics
    ///
    /// Panics with a rendered `O100` diagnostic if the schedule
    /// co-schedules two dependent iterations.
    pub fn compile_threaded(&self, compiled: &CompiledLoop) -> Arc<ThreadedPlan> {
        if let Some(checker) = self.checkers.get(&compiled.spec.name) {
            if let Err(race) = checker.check_static(&compiled.schedule) {
                panic!(
                    "schedule sanitizer tripped:\nerror[O100]: schedule race in loop `{}` \
                     at step {}: worker {} iteration {:?} ({}) conflicts with worker {} \
                     iteration {:?} ({})",
                    compiled.spec.name,
                    race.step,
                    race.worker_a,
                    race.index_a,
                    race.access_a,
                    race.worker_b,
                    race.index_b,
                    race.access_b,
                );
            }
        }
        Arc::new(ThreadedPlan::compile(&compiled.schedule))
    }

    /// Ensures the persistent pool covers `n_workers` threads, creating
    /// or growing it as needed (a poisoned pool is also replaced).
    fn ensure_pool(&mut self, n_workers: usize) {
        let stale = self
            .pool
            .as_ref()
            .is_none_or(|p| p.size() < n_workers || p.is_poisoned());
        if stale {
            self.pool = Some(WorkerPool::new(self.threads().max(n_workers)));
        }
    }

    /// Folds a threaded pass's measured wall-clock phases into the
    /// simulated timeline: each worker's compute/rotation spans land in
    /// the trace at the current barrier, and every clock advances by the
    /// pass's wall time, so threaded passes serialize on the virtual
    /// timeline like simulated ones.
    fn absorb_thread_spans(&mut self, spans: &[Vec<ThreadSpan>], wall_ns: u64) {
        let base = self.executor.clocks.barrier();
        for (w, worker_spans) in spans.iter().enumerate() {
            let machine = self.executor.cluster.machine_of(w);
            for s in worker_spans {
                let cat = match s.phase {
                    ThreadPhase::Compute => SpanCat::Compute,
                    ThreadPhase::Rotation => SpanCat::Rotation,
                };
                self.executor.trace.record(
                    cat,
                    machine,
                    w,
                    base.as_nanos() + s.start_ns,
                    base.as_nanos() + s.end_ns,
                    0,
                    0,
                );
            }
        }
        let end = base + VirtualTime::from_nanos(wall_ns);
        for w in 0..self.executor.cluster.n_workers() {
            self.executor.clocks.wait_until(w, end);
        }
    }

    /// Runs one epoch of a distributed pass over a live
    /// [`orion_net::Coordinator`] cluster: broadcasts the epoch start,
    /// routes server-mode traffic (prefetch requests, buffered updates)
    /// through `handler`, and waits for every node's epoch barrier
    /// contribution. Each node's self-reported compute/rotation times
    /// are absorbed into the driver's virtual-time trace as real-time
    /// spans, and the epoch's real per-link wire bytes are accumulated
    /// for [`Driver::run_report`].
    ///
    /// The driver's [`ClusterSpec`] must have one worker per node
    /// process (`ClusterSpec::new(n_nodes, 1)`), so node `i`'s spans
    /// land on machine `i` — the coordinator itself appears as machine
    /// `n_nodes` in the link table, mirroring the wire protocol's
    /// destination convention.
    ///
    /// On a node fault the epoch's effects are *not* absorbed; the
    /// caller recovers the cluster ([`orion_net::Coordinator::recover`])
    /// and rewinds its own bookkeeping ([`Driver::rollback_progress`]).
    /// When `compiled` is provided and validation is on, the per-node
    /// [`HbEvent`] logs the nodes attach to their epoch barrier
    /// contributions are checked against the loop's happens-before
    /// order (O110–O112); un-instrumented nodes (empty logs) skip the
    /// check.
    pub fn run_pass_distributed<F>(
        &mut self,
        compiled: Option<&CompiledLoop>,
        cluster: &mut orion_net::Coordinator,
        epoch: u64,
        handler: F,
    ) -> Result<orion_net::EpochStats, orion_net::NodeFault>
    where
        F: FnMut(usize, orion_net::Msg) -> Option<orion_net::Msg>,
    {
        let stats = cluster.run_epoch_with(epoch, handler)?;
        if let Some(compiled) = compiled {
            self.sanitize_hb(
                &compiled.spec.name,
                &compiled.schedule.blocks,
                &stats.events,
                &format!("epoch {epoch}"),
            );
        }
        let spans: Vec<Vec<ThreadSpan>> = stats
            .compute_ns
            .iter()
            .zip(&stats.rotation_ns)
            .map(|(&compute, &rotation)| {
                vec![
                    ThreadSpan {
                        phase: ThreadPhase::Compute,
                        start_ns: 0,
                        end_ns: compute,
                    },
                    ThreadSpan {
                        phase: ThreadPhase::Rotation,
                        start_ns: compute,
                        end_ns: compute + rotation,
                    },
                ]
            })
            .collect();
        self.absorb_thread_spans(&spans, stats.wall_ns);
        self.wire_links
            .extend(stats.links.iter().map(|l| LinkBytes {
                src_machine: l.src,
                dst_machine: l.dst,
                bytes: l.bytes,
                messages: l.messages,
            }));
        Ok(stats)
    }

    /// Executes one pass of `plan` on real cores (see
    /// [`run_pass_pooled`]): each worker runs its program with its
    /// `state` pinned to its thread; the `parts` of a grid (2-D) plan
    /// rotate zero-copy through channels (paper Fig. 8), while an
    /// unrotated plan pins `parts[w]` to worker `w`. Results are
    /// bit-identical to [`Driver::run_pass`] over the same schedule.
    ///
    /// Under validation the pass's recorded [`HbEvent`] logs are fed to
    /// the loop's happens-before checker (`loop_name` keys the checker
    /// registered by [`Driver::parallel_for`]): every conflicting
    /// access pair must be ordered by a handoff or barrier edge, else
    /// the pass panics with a rendered O110–O112 diagnostic.
    ///
    /// # Panics
    ///
    /// Panics if state or partition counts mismatch `plan` or a worker
    /// dies mid-pass (with the worker's panic message).
    pub fn run_pass_threaded<T, W, P, F>(
        &mut self,
        loop_name: &str,
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
        self.ensure_pool(plan.n_workers());
        let pool = self.pool.as_ref().expect("pool just ensured");
        let out = run_pass_pooled(pool, plan, items, state, parts, body);
        self.sanitize_hb(loop_name, plan.blocks(), &out.events, "threaded pass");
        self.absorb_thread_spans(&out.spans, out.wall_ns);
        out
    }

    /// Models a data-parallel buffer flush: every worker ships `up_bytes`
    /// and receives `down_bytes`, then synchronizes (§3.3 buffered
    /// writes reaching the DistArray).
    pub fn sync_exchange(&mut self, up_bytes: u64, down_bytes: u64) -> VirtualTime {
        self.executor.sync_exchange(up_bytes, down_bytes)
    }

    /// Installs a fault plan on the simulated cluster (crashes,
    /// stragglers, link faults). Pair with [`Driver::run_pass_checked`]
    /// to detect and recover from the scripted crashes.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.executor.set_fault_plan(plan);
    }

    /// Overrides detection/recovery timing (barrier timeout, modeled
    /// disk bandwidth).
    pub fn set_recovery_config(&mut self, cfg: RecoveryConfig) {
        self.recovery_cfg = cfg;
    }

    /// Fault-handling accounting so far.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Like [`Driver::run_pass`], but afterwards checks the fault plan
    /// for a machine crash during the pass. On a crash, the pass's
    /// results must be discarded by the caller: the failure is detected
    /// at the pass barrier after `barrier_timeout` of missing progress,
    /// a `Fault` span covers the detection window on every worker, and
    /// the returned [`FaultEvent`] must be fed to
    /// [`Driver::complete_recovery`] after the caller restores model
    /// state from its latest checkpoint.
    pub fn run_pass_checked(
        &mut self,
        compiled: &CompiledLoop,
        cost: &mut dyn FnMut(usize) -> f64,
        body: &mut dyn FnMut(usize, usize),
    ) -> (PassStats, Option<FaultEvent>) {
        let stats = self.run_pass(compiled, cost, body);
        let Some(crash) = self.executor.take_crash_before(stats.end) else {
            return (stats, None);
        };
        let detected = stats.end + self.recovery_cfg.barrier_timeout;
        for w in 0..self.executor.cluster.n_workers() {
            self.executor.trace.record(
                SpanCat::Fault,
                self.executor.cluster.machine_of(w),
                w,
                self.executor.clocks.get(w).as_nanos(),
                detected.as_nanos(),
                0,
                crash.machine as u64,
            );
            self.executor.clocks.wait_until(w, detected);
        }
        self.recovery.crashes += 1;
        self.recovery.fault_ns += detected.saturating_sub(stats.end).as_nanos();
        let ev = FaultEvent {
            machine: crash.machine,
            at: crash.at,
            detected_at: detected,
            restart_delay: crash.restart_delay,
        };
        (stats, Some(ev))
    }

    /// Finishes recovering from `ev` after the caller reloaded
    /// `reload_bytes` of checkpoint state: charges the machine restart
    /// delay plus checkpoint-reload disk time, records a `Recovery` span
    /// on every worker, and returns the instant re-execution resumes.
    pub fn complete_recovery(&mut self, ev: &FaultEvent, reload_bytes: u64) -> VirtualTime {
        let from = self.executor.clocks.barrier();
        let recovered = from + ev.restart_delay + self.recovery_cfg.io_time(reload_bytes);
        for w in 0..self.executor.cluster.n_workers() {
            self.executor.trace.record(
                SpanCat::Recovery,
                self.executor.cluster.machine_of(w),
                w,
                from.as_nanos(),
                recovered.as_nanos(),
                reload_bytes,
                ev.machine as u64,
            );
            self.executor.clocks.wait_until(w, recovered);
        }
        self.executor.net.release_nics(recovered);
        self.recovery.recovery_ns += recovered.saturating_sub(from).as_nanos();
        recovered
    }

    /// Charges the virtual time of writing a `bytes`-sized checkpoint
    /// (all workers stall while parameter state drains to disk) and
    /// records a `Checkpoint` span on every worker.
    pub fn charge_checkpoint(&mut self, bytes: u64) -> VirtualTime {
        let from = self.executor.clocks.barrier();
        let done = from + self.recovery_cfg.io_time(bytes);
        for w in 0..self.executor.cluster.n_workers() {
            self.executor.trace.record(
                SpanCat::Checkpoint,
                self.executor.cluster.machine_of(w),
                w,
                from.as_nanos(),
                done.as_nanos(),
                bytes,
                0,
            );
            self.executor.clocks.wait_until(w, done);
        }
        self.executor.net.release_nics(done);
        self.recovery.checkpoints_written += 1;
        self.recovery.checkpoint_bytes += bytes;
        self.recovery.checkpoint_ns += done.saturating_sub(from).as_nanos();
        done
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.executor.now()
    }

    /// Records a convergence observation (driver-side metric evaluation,
    /// like the `err` accumulator readout of Fig. 5).
    pub fn record_progress(&mut self, iteration: u64, metric: f64) {
        let time = self.now();
        self.stats.progress.push(orion_sim::ProgressPoint {
            iteration,
            time,
            metric,
        });
    }

    /// Discards progress points of passes that will re-execute after a
    /// rollback (`iteration >= from_pass`), so the recovered run's
    /// progress curve has exactly one point per pass.
    pub fn rollback_progress(&mut self, from_pass: u64) {
        self.stats.progress.retain(|p| p.iteration < from_pass);
    }

    /// Consumes the driver and returns the accumulated run statistics
    /// (progress curve, network traffic, bandwidth trace).
    pub fn finish(self) -> RunStats {
        let mut stats = self.stats;
        stats.total_bytes = self.executor.net.total_bytes();
        stats.n_messages = self.executor.net.n_messages() as u64;
        // Bin the bandwidth trace into ~50 windows over the run.
        let horizon = self.executor.clocks.max();
        let bin = VirtualTime::from_nanos((horizon.as_nanos() / 50).max(1_000_000));
        stats.bandwidth = self.executor.net.bandwidth_trace(bin);
        stats
    }

    /// Renders the Fig. 6-style compilation report of a compiled loop:
    /// the plan summary plus every `orion-check` lint, rustc-style.
    pub fn report(&self, compiled: &CompiledLoop) -> String {
        full_report(
            &compiled.spec,
            &self.metas,
            &compiled.plan,
            Some(&compiled.schedule),
        )
    }

    /// Turns on span tracing with a pre-sized buffer (see `orion-trace`).
    /// Call before the first pass; when off (the default) every record
    /// site is a single branch.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.executor.trace.enable(capacity);
    }

    /// Whether span tracing is on.
    pub fn tracing_enabled(&self) -> bool {
        self.executor.trace.is_enabled()
    }

    /// Snapshots the traced run — executor spans plus every wire transfer
    /// from the network log — as an owned session for Perfetto export
    /// (`orion_trace::write_perfetto`). Empty when tracing is off.
    pub fn trace_session(&self, name: &str) -> OwnedSession {
        OwnedSession {
            name: name.to_string(),
            n_machines: self.executor.cluster.n_machines,
            workers_per_machine: self.executor.cluster.workers_per_machine,
            spans: self.executor.trace.spans().to_vec(),
            transfers: self
                .executor
                .net
                .log()
                .iter()
                .map(|m| Transfer {
                    src_machine: m.src_machine as u32,
                    dst_machine: m.dst_machine as u32,
                    bytes: m.bytes,
                    depart_ns: m.depart.as_nanos(),
                    arrive_ns: m.arrive.as_nanos(),
                })
                .collect(),
        }
    }

    /// Builds the [`RunReport`]: phase totals from the recorded spans,
    /// per-link traffic from the network, per-array byte attribution from
    /// `compiled`'s placement estimates (scaled to passes actually run is
    /// the caller's concern — these are per-pass estimates), and the
    /// scheduler's load balance.
    pub fn run_report(&self, compiled: &CompiledLoop) -> RunReport {
        // Simulated (modelled) traffic and real wire bytes from
        // distributed passes, aggregated per directed link.
        let links = orion_trace::merge_links(
            self.executor
                .net
                .per_link()
                .into_iter()
                .map(|l| LinkBytes {
                    src_machine: l.src_machine,
                    dst_machine: l.dst_machine,
                    bytes: l.bytes,
                    messages: l.messages,
                })
                .chain(self.wire_links.iter().copied()),
        );
        let bytes_by_array = compiled
            .plan
            .placements
            .iter()
            .filter(|p| p.est_bytes_per_pass > 0)
            .map(|p| {
                let name = self
                    .metas
                    .iter()
                    .find(|m| m.id == p.array)
                    .map_or_else(|| format!("{}", p.array), |m| m.name.clone());
                (name, p.est_bytes_per_pass)
            })
            .collect();
        RunReport::build(
            self.now().as_nanos(),
            self.executor.trace.spans(),
            self.executor.cluster.n_workers(),
            self.executor.cluster.workers_per_machine,
            links,
            bytes_by_array,
            LoadStats::new(compiled.schedule.worker_loads()),
        )
    }

    /// Consumes the driver and returns the run statistics together with
    /// the traced session (for Perfetto export) and the run report.
    /// Equivalent to [`Driver::finish`] plus the two trace artifacts.
    pub fn finish_traced(
        self,
        name: &str,
        compiled: &CompiledLoop,
    ) -> (RunStats, OwnedSession, RunReport) {
        let session = self.trace_session(name);
        let report = self.run_report(compiled);
        (self.finish(), session, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_ir::Subscript;

    fn ratings() -> DistArray<f32> {
        DistArray::sparse_from(
            "ratings",
            vec![16, 12],
            (0..48).map(|k| (vec![k % 16, (k * 5) % 12], 1.0 + k as f32)),
        )
    }

    #[test]
    fn register_assigns_sequential_ids() {
        let mut d = Driver::new(ClusterSpec::serial());
        let a: DistArray<f32> = DistArray::dense("a", vec![4]);
        let b: DistArray<u32> = DistArray::sparse("b", vec![4, 4]);
        assert_eq!(d.register(&a), DistArrayId(0));
        assert_eq!(d.register(&b), DistArrayId(1));
        assert_eq!(d.metas().len(), 2);
        assert_eq!(d.metas()[1].name, "b");
    }

    #[test]
    fn refresh_meta_updates_nnz() {
        let mut d = Driver::new(ClusterSpec::serial());
        let mut a: DistArray<f32> = DistArray::sparse("a", vec![8]);
        let id = d.register(&a);
        assert_eq!(d.metas()[0].nnz, 0);
        a.set(&[3], 1.0);
        d.refresh_meta(id, &a);
        assert_eq!(d.metas()[0].nnz, 1);
    }

    #[test]
    fn mf_loop_compiles_to_2d_unordered() {
        let z = ratings();
        let mut d = Driver::new(ClusterSpec::new(2, 2));
        let w: DistArray<f32> = DistArray::dense("W", vec![16, 8]);
        let h: DistArray<f32> = DistArray::dense("H", vec![12, 8]);
        let z_id = d.register(&z);
        let w_id = d.register(&w);
        let h_id = d.register(&h);
        let spec = LoopSpec::builder("sgd_mf", z_id, vec![16, 12])
            .read_write(w_id, vec![Subscript::loop_index(0), Subscript::Full])
            .read_write(h_id, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        let items: Vec<(Vec<i64>, f32)> = z.iter().map(|(i, &v)| (i, v)).collect();
        let c = d.parallel_for(spec, &items).unwrap();
        assert!(matches!(
            c.strategy(),
            Strategy::TwoD { ordered: false, .. }
        ));
        assert!(c.comm.rotated_bytes > 0);
        let rep = d.report(&c);
        assert!(rep.contains("2D Unordered"));
    }

    fn mf_compiled(d: &mut Driver) -> (CompiledLoop, Vec<(Vec<i64>, f32)>) {
        let z = ratings();
        let w: DistArray<f32> = DistArray::dense("W", vec![16, 8]);
        let h: DistArray<f32> = DistArray::dense("H", vec![12, 8]);
        let z_id = d.register(&z);
        let w_id = d.register(&w);
        let h_id = d.register(&h);
        let spec = LoopSpec::builder("sgd_mf", z_id, vec![16, 12])
            .read_write(w_id, vec![Subscript::loop_index(0), Subscript::Full])
            .read_write(h_id, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        let items: Vec<(Vec<i64>, f32)> = z.iter().map(|(i, &v)| (i, v)).collect();
        let c = d.parallel_for(spec, &items).unwrap();
        (c, items)
    }

    #[test]
    fn tuned_pass_runs_under_the_sanitizer_and_records_an_outcome() {
        let mut d = Driver::new(ClusterSpec::new(2, 2));
        let (mut c, items) = mf_compiled(&mut d);
        let cfg = TuneConfig::default();
        let mut hits = vec![0u32; items.len()];
        // Validation is on in test builds (`Driver::validate_by_default`),
        // so every tuned pass is fed to the O100 sanitizer via the
        // swapped-in schedule.
        assert!(Driver::validate_by_default());
        let stats = d.run_pass_tuned(&mut c, &items, &cfg, &mut |_| 75.0, &mut |_w, pos| {
            hits[pos] += 1;
        });
        assert_eq!(stats.iterations, items.len() as u64);
        assert!(hits.iter().all(|&h| h == 1));
        let outcome = d.tune_outcome("sgd_mf").expect("outcome recorded");
        assert!(outcome.candidates_evaluated >= 2);
        assert!(outcome.chosen.measured_ns <= outcome.baseline.measured_ns);
        // Second pass reuses the tuned plan without re-planning.
        let before = outcome.clone();
        d.run_pass_tuned(&mut c, &items, &cfg, &mut |_| 75.0, &mut |_w, pos| {
            hits[pos] += 1;
        });
        assert_eq!(d.tune_outcome("sgd_mf"), Some(&before));
    }

    #[test]
    fn tuned_plan_is_bit_identical_across_runs() {
        // Same schedule => same execution order => same float results.
        let run = || {
            let mut d = Driver::new(ClusterSpec::new(2, 2));
            let (mut c, items) = mf_compiled(&mut d);
            let cfg = TuneConfig::default();
            let mut acc = vec![0.0f32; 16];
            for _ in 0..3 {
                d.run_pass_tuned(&mut c, &items, &cfg, &mut |_| 75.0, &mut |_w, pos| {
                    let (idx, v) = &items[pos];
                    acc[idx[0] as usize] += v * 0.5 + acc[idx[0] as usize] * 1e-3;
                });
            }
            (acc, c.schedule.n_workers, c.plan.strategy.clone())
        };
        let (a, wa, sa) = run();
        let (b, wb, sb) = run();
        assert_eq!(a, b);
        assert_eq!(wa, wb);
        assert_eq!(sa, sb);
    }

    #[test]
    fn run_pass_executes_and_advances_time() {
        let z = ratings();
        let mut d = Driver::new(ClusterSpec::new(2, 2));
        let z_id = d.register(&z);
        let mut a: DistArray<f32> = DistArray::dense("a", vec![16, 1]);
        let a_id = d.register(&a);
        let spec = LoopSpec::builder("agg", z_id, vec![16, 12])
            .read_write(a_id, vec![Subscript::loop_index(0), Subscript::Constant(0)])
            .build()
            .unwrap();
        let items: Vec<(Vec<i64>, f32)> = z.iter().map(|(i, &v)| (i, v)).collect();
        let c = d.parallel_for(spec, &items).unwrap();
        let stats = d.run_pass(&c, &mut |_| 50.0, &mut |_w, pos| {
            let (idx, v) = &items[pos];
            a.update(&[idx[0], 0], |x| *x += v);
        });
        assert_eq!(stats.iterations, 48);
        assert!(d.now() > VirtualTime::ZERO);
        let total: f32 = a.iter().map(|(_, &v)| v).sum();
        let expect: f32 = items.iter().map(|(_, v)| v).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn progress_recording_lands_in_stats() {
        let mut d = Driver::new(ClusterSpec::serial());
        d.record_progress(0, 10.0);
        d.record_progress(1, 5.0);
        let stats = d.finish();
        assert_eq!(stats.progress.len(), 2);
        assert_eq!(stats.progress[1].metric, 5.0);
    }

    #[test]
    fn traced_run_yields_coverage_and_report() {
        let z = ratings();
        let mut d = Driver::new(ClusterSpec::new(2, 2));
        let z_id = d.register(&z);
        let w: DistArray<f32> = DistArray::dense("W", vec![16, 8]);
        let h: DistArray<f32> = DistArray::dense("H", vec![12, 8]);
        let w_id = d.register(&w);
        let h_id = d.register(&h);
        let spec = LoopSpec::builder("sgd_mf", z_id, vec![16, 12])
            .read_write(w_id, vec![Subscript::loop_index(0), Subscript::Full])
            .read_write(h_id, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        let items: Vec<(Vec<i64>, f32)> = z.iter().map(|(i, &v)| (i, v)).collect();
        let c = d.parallel_for(spec, &items).unwrap();
        d.enable_tracing(1024);
        assert!(d.tracing_enabled());
        for _ in 0..2 {
            d.run_pass(&c, &mut |_| 500.0, &mut |_, _| {});
        }
        let (stats, session, report) = d.finish_traced("orion", &c);
        assert!(stats.total_bytes > 0);
        assert!(!session.spans.is_empty());
        assert!(!session.transfers.is_empty(), "net log feeds the session");
        // Acceptance: phase totals tile each executor's timeline within 1%.
        assert!(
            report.min_worker_coverage() >= 0.99,
            "coverage {}",
            report.min_worker_coverage()
        );
        assert!(report.critical_path_ns > 0);
        assert!(report.critical_path_ns <= report.wall_ns);
        assert_eq!(report.total_link_bytes(), stats.total_bytes);
        assert_eq!(report.load.per_worker_items.iter().sum::<u64>(), 48);
        // Rotated placement attributes bytes to W or H.
        assert!(!report.bytes_by_array.is_empty());
    }

    #[test]
    fn untraced_report_still_carries_traffic_and_load() {
        let z = ratings();
        let mut d = Driver::new(ClusterSpec::new(2, 2));
        let z_id = d.register(&z);
        let mut a: DistArray<f32> = DistArray::dense("a", vec![16, 1]);
        let a_id = d.register(&a);
        let spec = LoopSpec::builder("agg", z_id, vec![16, 12])
            .read_write(a_id, vec![Subscript::loop_index(0), Subscript::Constant(0)])
            .build()
            .unwrap();
        let items: Vec<(Vec<i64>, f32)> = z.iter().map(|(i, &v)| (i, v)).collect();
        let c = d.parallel_for(spec, &items).unwrap();
        d.run_pass(&c, &mut |_| 50.0, &mut |_, pos| {
            let (idx, v) = &items[pos];
            a.update(&[idx[0], 0], |x| *x += v);
        });
        let report = d.run_report(&c);
        assert!(report.wall_ns > 0);
        assert_eq!(report.load.per_worker_items.iter().sum::<u64>(), 48);
        // No spans recorded: coverage is 0 but traffic/load still report.
        assert!(d.trace_session("x").spans.is_empty());
    }

    #[test]
    fn validation_is_on_by_default_in_tests() {
        // Tests build with debug assertions, so every driver-executed
        // schedule in the suite runs under the race sanitizer.
        assert!(Driver::validate_by_default());
        let mut d = Driver::new(ClusterSpec::serial());
        assert!(d.validating());
        d.set_validate(false);
        assert!(!d.validating());
    }

    #[test]
    #[should_panic(expected = "O100")]
    fn sanitizer_catches_a_deliberately_conflicting_schedule() {
        // Compile a sound loop, then swap in a schedule that ignores
        // the dependence analysis: every iteration writes H row 0, but
        // the 1D-by-i0 schedule runs them concurrently.
        use orion_runtime::build_schedule;
        let z: DistArray<f32> =
            DistArray::sparse_from("z", vec![8, 1], (0..8).map(|i| (vec![i, 0], 1.0)));
        let mut d = Driver::new(ClusterSpec::new(2, 2));
        let z_id = d.register(&z);
        let h: DistArray<f32> = DistArray::dense("H", vec![1, 4]);
        let h_id = d.register(&h);
        let spec = LoopSpec::builder("deliberate_conflict", z_id, vec![8, 1])
            .read_write(h_id, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        let items: Vec<(Vec<i64>, f32)> = z.iter().map(|(i, &v)| (i, v)).collect();
        let mut c = d.parallel_for(spec, &items).unwrap();
        let indices: Vec<&[i64]> = items.iter().map(|(i, _)| i.as_slice()).collect();
        c.schedule = build_schedule(&Strategy::OneD { dim: 0 }, &indices, &[8, 1], 4);
        d.run_pass(&c, &mut |_| 10.0, &mut |_, _| {});
    }

    /// Dense MF-shaped loop whose compiled grid schedule rotates time
    /// partitions: the raw material for the happens-before tests.
    fn dense_mf(d: &mut Driver) -> (CompiledLoop, Vec<(Vec<i64>, f32)>) {
        let n = 8i64;
        let z: DistArray<f32> = DistArray::sparse_from(
            "z",
            vec![n as u64, n as u64],
            (0..n).flat_map(|i| (0..n).map(move |j| (vec![i, j], 1.0))),
        );
        let z_id = d.register(&z);
        let w: DistArray<f32> = DistArray::dense("W", vec![n as u64, 4]);
        let h: DistArray<f32> = DistArray::dense("H", vec![n as u64, 4]);
        let w_id = d.register(&w);
        let h_id = d.register(&h);
        let spec = LoopSpec::builder("mf_hb", z_id, vec![n as u64, n as u64])
            .read_write(w_id, vec![Subscript::loop_index(0), Subscript::Full])
            .read_write(h_id, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        let items: Vec<(Vec<i64>, f32)> = z.iter().map(|(i, &v)| (i, v)).collect();
        let c = d.parallel_for(spec, &items).unwrap();
        (c, items)
    }

    #[test]
    fn hb_checker_accepts_a_faithful_rotation_log() {
        let mut d = Driver::new(ClusterSpec::new(4, 1));
        assert!(d.validating());
        let (c, _items) = dense_mf(&mut d);
        let plan = ThreadedPlan::compile(&c.schedule);
        d.check_hb_events(&c, plan.programs(), "faithful replay");
    }

    #[test]
    #[should_panic(expected = "O110")]
    fn hb_checker_catches_a_severed_rotation_edge() {
        // Replay the plan's own event log with one rotation handoff
        // (send + matching recv) deleted: the freed blocks share a time
        // partition, so the detector must report a race on H or W.
        let mut d = Driver::new(ClusterSpec::new(4, 1));
        let (c, _items) = dense_mf(&mut d);
        let plan = ThreadedPlan::compile(&c.schedule);
        let mut logs = plan.programs().to_vec();
        let (a, p, tp, dst) = logs
            .iter()
            .enumerate()
            .find_map(|(a, log)| {
                log.iter().enumerate().find_map(|(p, e)| match e {
                    HbEvent::Send { tp, dst } => Some((a, p, *tp, *dst)),
                    _ => None,
                })
            })
            .expect("grid plans rotate");
        logs[a].remove(p);
        // Also drop the matching recv so the worklist still completes
        // and the failure is a race, not an unmatched edge.
        let rp = logs[dst as usize]
            .iter()
            .position(|e| *e == HbEvent::Recv { tp })
            .expect("every send has a matching recv");
        logs[dst as usize].remove(rp);
        d.check_hb_events(&c, &logs, "severed rotation edge");
    }

    #[test]
    fn sanitizer_stays_quiet_on_compiled_schedules() {
        let z = ratings();
        let mut d = Driver::new(ClusterSpec::new(2, 2));
        assert!(d.validating());
        let w: DistArray<f32> = DistArray::dense("W", vec![16, 8]);
        let h: DistArray<f32> = DistArray::dense("H", vec![12, 8]);
        let z_id = d.register(&z);
        let w_id = d.register(&w);
        let h_id = d.register(&h);
        let spec = LoopSpec::builder("sgd_mf", z_id, vec![16, 12])
            .read_write(w_id, vec![Subscript::loop_index(0), Subscript::Full])
            .read_write(h_id, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        let items: Vec<(Vec<i64>, f32)> = z.iter().map(|(i, &v)| (i, v)).collect();
        let c = d.parallel_for(spec, &items).unwrap();
        for _ in 0..3 {
            d.run_pass(&c, &mut |_| 10.0, &mut |_, _| {});
        }
    }

    #[test]
    fn report_includes_lints_for_served_arrays() {
        // SLR-shaped loop: unknown subscripts, buffered writes, served
        // placement — the report carries the O004 note alongside O000.
        let z: DistArray<f32> =
            DistArray::sparse_from("samples", vec![32], (0..32).map(|i| (vec![i], 1.0)));
        let mut d = Driver::new(ClusterSpec::new(2, 2));
        let z_id = d.register(&z);
        let wts: DistArray<f32> = DistArray::dense("weights", vec![64]);
        let w_id = d.register(&wts);
        let spec = LoopSpec::builder("slr_sgd", z_id, vec![32])
            .read(w_id, vec![Subscript::unknown()])
            .write(w_id, vec![Subscript::unknown()])
            .buffer_writes(w_id)
            .build()
            .unwrap();
        let items: Vec<(Vec<i64>, f32)> = z.iter().map(|(i, &v)| (i, v)).collect();
        let c = d.parallel_for(spec, &items).unwrap();
        let rep = d.report(&c);
        assert!(rep.contains("note[O000]:"), "{rep}");
        assert!(rep.contains("[O004]"), "{rep}");
        assert!(rep.contains("weights"), "{rep}");
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let mut d = Driver::new(ClusterSpec::serial());
        let z: DistArray<f32> = DistArray::sparse_from("z", vec![4], vec![(vec![0], 1.0)]);
        let z_id = d.register(&z);
        let a: DistArray<f32> = DistArray::dense("a", vec![4]);
        let a_id = d.register(&a);
        let spec_result = LoopSpec::builder("bad", z_id, vec![4])
            .read(a_id, vec![Subscript::loop_index(3)])
            .build();
        assert!(spec_result.is_err());
    }
}
