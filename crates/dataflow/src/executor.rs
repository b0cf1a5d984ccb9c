//! The worker pool: runs one task per partition across a fixed number of
//! worker threads, with bounded retry and speculative execution.
//!
//! Work items are pulled from a shared queue (dynamic scheduling), so a
//! straggler partition — e.g. the Beijing cell of a skewed GPS dataset —
//! does not leave the other workers idle, just as Spark's scheduler hands
//! out tasks to free executor slots. Worker threads are scoped per stage
//! (via [`std::thread::scope`]), which lets tasks borrow stage-local
//! data without `'static` bounds.
//!
//! Fault tolerance follows the Spark contract:
//!
//! * a failed or panicked attempt is **re-queued** up to
//!   [`StageOptions::max_task_retries`] times while healthy workers keep
//!   draining; only an exhausted budget fails the job, with every
//!   attempt's cause attached ([`EngineError::TaskFailed`]);
//! * with [`SpeculationConfig`] set, an idle worker whose queue is empty
//!   launches a **duplicate attempt** of a task that has been running much
//!   longer than the completed-task duration quantile; the first
//!   completion wins and the loser's result is discarded (task closures
//!   must therefore be idempotent per partition, which grid passes are);
//! * a [`FaultPlan`] can sabotage attempts deterministically for chaos
//!   tests.
//!
//! This module is the only place in the workspace allowed to call
//! [`catch_unwind`] (enforced by lint rule XL005), so panic recovery
//! stays centralized.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dbscout_telemetry::{DurationHistogram, Recorder, Span, SpanKind};

use crate::error::{EngineError, Result};
use crate::fault::{FaultKind, FaultPlan};
use crate::metrics::{EngineMetrics, StageRecord};

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Worker closures wrap every user task in [`catch_unwind`], so a poisoned
/// lock can only mean the panic was already caught and recorded; taking the
/// inner value is sound and keeps the engine panic-free.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// When and how aggressively idle workers duplicate straggler tasks.
#[derive(Debug, Clone, Copy)]
pub struct SpeculationConfig {
    /// Minimum number of completed tasks before durations are trusted.
    pub min_completed: usize,
    /// Duration quantile (in `0.0..=1.0`) of completed tasks used as the
    /// straggler baseline (Spark's `spark.speculation.quantile`).
    pub quantile: f64,
    /// A running task is a straggler once its elapsed time exceeds
    /// `quantile duration * multiplier`.
    pub multiplier: f64,
    /// Never speculate a task running for less than this, whatever the
    /// quantile says — guards against duplicating microsecond tasks.
    pub min_runtime: Duration,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        Self {
            min_completed: 3,
            quantile: 0.75,
            multiplier: 4.0,
            min_runtime: Duration::from_millis(100),
        }
    }
}

/// Per-stage execution policy for [`run_stage`].
#[derive(Clone, Copy)]
pub struct StageOptions<'a> {
    /// Number of worker threads.
    pub workers: usize,
    /// How many times a failed task may be re-queued before the stage
    /// fails (`0` = fail on first error, Spark's `maxFailures - 1`).
    pub max_task_retries: usize,
    /// Straggler-duplication policy; `None` disables speculation.
    pub speculation: Option<SpeculationConfig>,
    /// Deterministic fault injection for chaos tests.
    pub fault_plan: Option<&'a FaultPlan>,
    /// Metrics log to push this stage's [`StageRecord`] into.
    pub metrics: Option<&'a EngineMetrics>,
    /// Span sink for per-attempt task spans; `None` (the default) keeps
    /// the hot path span-free — no allocation, no locking.
    pub recorder: Option<&'a dyn Recorder>,
    /// Seed for schedule-exploration tests: perturbs work-queue pop
    /// order (see [`WorkQueue`]). `None` (the default) pops FIFO.
    /// Results must be byte-identical for every seed — that invariant is
    /// what the schedule-chaos suite asserts.
    pub schedule_seed: Option<u64>,
    /// Stage name used in errors and fault decisions.
    pub stage: &'a str,
}

impl std::fmt::Debug for StageOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageOptions")
            .field("workers", &self.workers)
            .field("max_task_retries", &self.max_task_retries)
            .field("speculation", &self.speculation)
            .field("fault_plan", &self.fault_plan)
            .field("metrics", &self.metrics.is_some())
            .field("recorder", &self.recorder.is_some())
            .field("schedule_seed", &self.schedule_seed)
            .field("stage", &self.stage)
            .finish()
    }
}

impl<'a> StageOptions<'a> {
    /// A plain policy: no retries, no speculation, no faults.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            max_task_retries: 0,
            speculation: None,
            fault_plan: None,
            metrics: None,
            recorder: None,
            schedule_seed: None,
            stage: "task",
        }
    }
}

/// Stage-local tallies the workers update as attempts settle; folded
/// into one [`StageRecord`] when the stage finishes.
#[derive(Debug, Default)]
struct StageCounters {
    tasks: AtomicU64,
    retries: AtomicU64,
    speculative_launches: AtomicU64,
    speculative_wins: AtomicU64,
    injected_faults: AtomicU64,
    /// Durations of winning attempts only — a superseded speculative
    /// loser must not skew the percentiles (or the task count above).
    durations_hist: Mutex<DurationHistogram>,
}

impl StageCounters {
    /// Folds the tallies into a [`StageRecord`] for a stage that started
    /// at `started` (record/shuffle volumes are attached afterwards by
    /// the operation that ran the stage).
    fn into_record(self, stage: &str, started: Instant) -> StageRecord {
        let mut record = StageRecord::new(stage);
        record.started = started;
        record.duration = started.elapsed();
        record.tasks = self.tasks.into_inner();
        record.task_retries = self.retries.into_inner();
        record.speculative_launches = self.speculative_launches.into_inner();
        record.speculative_wins = self.speculative_wins.into_inner();
        record.injected_faults = self.injected_faults.into_inner();
        record.task_durations = self
            .durations_hist
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        record
    }
}

/// Runs `tasks` (one closure per partition) on at most `workers` threads
/// and returns their results in task order. Equivalent to [`run_stage`]
/// with [`StageOptions::new`]: no retries, no speculation.
pub fn run_tasks<T, F>(workers: usize, tasks: Vec<F>) -> Result<Vec<T>>
where
    T: Send,
    F: Fn() -> T + Send + Sync,
{
    run_stage(&StageOptions::new(workers), tasks)
}

/// Like [`run_tasks`], but each worker thread owns one scratch value
/// built by `make_scratch`, passed to every task it runs. Hot loops that
/// need buffers (neighbor-cell lists, gathered coordinates) allocate them
/// once per worker instead of once per task. Equivalent to
/// [`run_stage_with`] with [`StageOptions::new`].
///
/// Tasks must not assume anything about the scratch's contents on entry
/// (clear what you use): the same value is reused across tasks, retried
/// attempts, and speculative duplicates on that worker.
pub fn run_tasks_with<S, T, F>(
    workers: usize,
    make_scratch: impl Fn() -> S + Send + Sync,
    tasks: Vec<F>,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&mut S) -> T + Send + Sync,
{
    run_stage_with(&StageOptions::new(workers), make_scratch, tasks)
}

/// How many items [`run_fed_workers`] lets the feeding thread queue
/// ahead of each worker: one to work on next while the feeder reads the
/// one after. Items in flight are therefore at most `FEED_DEPTH + 1` per
/// worker, whatever the length of the stream.
const FEED_DEPTH: usize = 2;

/// The feeding side of [`run_fed_workers`]: hands items to the workers
/// from the calling thread.
pub struct Feeder<'a, I> {
    workers: usize,
    send: &'a mut dyn FnMut(usize, I) -> bool,
}

impl<I> Feeder<'_, I> {
    /// Number of workers items can be sent to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sends `item` to worker `worker`, blocking while that worker's
    /// channel is full. Returns `false` once some worker has failed or is
    /// gone, or when there is no worker `worker` (the item is dropped):
    /// nothing sent from then on can change the outcome, so the feed
    /// should stop. Sending on is harmless, since a failed worker drops
    /// what it gets.
    pub fn send(&mut self, worker: usize, item: I) -> bool {
        (self.send)(worker, item)
    }
}

/// Runs one long-lived worker per entry of `workers`, fed by `feed` on
/// the calling thread, and returns `feed`'s result with each worker's
/// outcome, in worker order.
///
/// Each worker runs on its own scoped thread for the whole call, behind
/// a bounded channel two items deep (`FEED_DEPTH`); `feed` sends it items
/// through the [`Feeder`] and the worker calls its closure on each, in
/// the order they were sent. A worker's closure may own or mutably
/// borrow state (`FnMut` + `Send`), so workers can hold disjoint `&mut`
/// segments of one buffer, and the state is the caller's again on
/// return. When `feed` returns, the channels close and each worker
/// finishes the items it holds. So a stream of any length runs on
/// `workers.len()` threads, with at most `FEED_DEPTH + 1` items per
/// worker in flight.
///
/// A worker's outcome is the first error its closure returned, or `Ok`.
/// After an error the worker drops every item it is sent, unprocessed,
/// so a failed worker never leaves the feeder blocked on a full channel,
/// and [`Feeder::send`] tells the feeder to stop. There is **no retry
/// and no speculation**: an item handed to a closure is consumed, so
/// this runner is for deterministic CPU-bound passes whose only failure
/// mode is the closure's own `Result`. A panic is not caught: the
/// panicking worker's channel closes, so sends to it fail instead of
/// blocking, and once every thread has joined the first panic is
/// re-raised on the caller's thread.
///
/// With one worker there is no thread and no channel: `send` calls the
/// closure inline.
pub fn run_fed_workers<I, E, W, R>(
    mut workers: Vec<W>,
    feed: impl FnOnce(&mut Feeder<'_, I>) -> R,
) -> (R, Vec<std::result::Result<(), E>>)
where
    I: Send,
    E: Send,
    W: FnMut(I) -> std::result::Result<(), E> + Send,
{
    if let [worker] = workers.as_mut_slice() {
        let mut outcome = Ok(());
        let fed = feed(&mut Feeder {
            workers: 1,
            send: &mut |lane, item| {
                if lane == 0 && outcome.is_ok() {
                    outcome = worker(item);
                }
                lane == 0 && outcome.is_ok()
            },
        });
        return (fed, vec![outcome]);
    }
    let failed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (senders, handles): (Vec<_>, Vec<_>) = workers
            .into_iter()
            .map(|mut worker| {
                let (tx, rx) = std::sync::mpsc::sync_channel::<I>(FEED_DEPTH);
                let failed = &failed;
                let handle = scope.spawn(move || {
                    let mut outcome = Ok(());
                    for item in rx {
                        if outcome.is_ok() {
                            outcome = worker(item);
                            if outcome.is_err() {
                                // Pairs with the feeder's Acquire load: it
                                // stops reading once it sees the failure.
                                failed.store(true, Ordering::Release);
                            }
                        }
                    }
                    outcome
                });
                (tx, handle)
            })
            .unzip();
        let fed = feed(&mut Feeder {
            workers: senders.len(),
            send: &mut |lane, item| {
                let sent = senders.get(lane).is_some_and(|tx| tx.send(item).is_ok());
                sent && !failed.load(Ordering::Acquire)
            },
        });
        drop(senders);
        let mut panic = None;
        let outcomes = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|payload| {
                    panic.get_or_insert(payload);
                    Ok(())
                })
            })
            .collect();
        if let Some(payload) = panic {
            // Re-raise on the caller's thread, now that no worker runs.
            std::panic::resume_unwind(payload);
        }
        (fed, outcomes)
    })
}

/// One scheduled attempt of one partition's task.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    partition: usize,
    attempt: usize,
    speculative: bool,
}

/// Mutable per-partition bookkeeping shared by the workers.
struct PartitionState<T> {
    result: Option<T>,
    /// One cause per failed attempt, in attempt order.
    failures: Vec<String>,
    /// Attempts handed to workers so far (including speculative ones).
    launched: usize,
    /// When the first still-running attempt started.
    running_since: Option<Instant>,
    /// Whether a speculative duplicate was already launched.
    speculated: bool,
    /// Whether the retry budget is exhausted (terminal failure).
    exhausted: bool,
}

impl<T> PartitionState<T> {
    fn new() -> Self {
        Self {
            result: None,
            failures: Vec::new(),
            launched: 0,
            running_since: None,
            speculated: false,
            exhausted: false,
        }
    }

    fn settled(&self) -> bool {
        self.result.is_some() || self.exhausted
    }
}

/// Everything the worker threads share for one stage.
/// The stage's shared work queue, with an optional seeded perturbation
/// of pop order for schedule-exploration tests.
///
/// Production pops FIFO. With a seed set ([`StageOptions::schedule_seed`])
/// each pop draws from an xorshift64 stream and removes a pseudo-random
/// element instead, exploring task interleavings no FIFO run would
/// produce while staying reproducible for a given seed. The rng state
/// lives inside the queue's mutex, so perturbation adds no new shared
/// state and no extra synchronization.
struct WorkQueue {
    items: VecDeque<WorkItem>,
    /// xorshift64 state; `None` = FIFO (production).
    rng: Option<u64>,
}

impl WorkQueue {
    fn new(items: VecDeque<WorkItem>, seed: Option<u64>) -> Self {
        WorkQueue {
            items,
            // xorshift64 has a fixed point at 0; nudge a zero seed off it.
            rng: seed.map(|s| s.max(1)),
        }
    }

    fn pop(&mut self) -> Option<WorkItem> {
        match self.rng {
            Some(ref mut state) if self.items.len() > 1 => {
                let mut x = *state;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *state = x;
                let idx = (x % self.items.len() as u64) as usize;
                self.items.remove(idx)
            }
            _ => self.items.pop_front(),
        }
    }

    fn push_back(&mut self, item: WorkItem) {
        self.items.push_back(item);
    }
}

struct StageShared<'a, T, F> {
    opts: &'a StageOptions<'a>,
    tasks: &'a [F],
    states: Vec<Mutex<PartitionState<T>>>,
    queue: Mutex<WorkQueue>,
    /// Partitions that reached a terminal state (result or exhausted).
    settled: AtomicUsize,
    /// Durations of successful attempts (feeds the speculation quantile).
    durations: Mutex<Vec<Duration>>,
    /// Stage-local metric tallies (folded into one [`StageRecord`]).
    counters: &'a StageCounters,
}

/// Runs one stage — `tasks` (one closure per partition) under the retry,
/// speculation, and fault-injection policy in `opts` — returning results
/// in task order.
///
/// All partitions run to a terminal state even when one fails (workers
/// keep draining the queue, mirroring a cluster where one failed task
/// does not kill its peers mid-flight); the error then reported is
/// [`EngineError::TaskFailed`] for the lowest-indexed exhausted
/// partition, carrying every attempt's cause.
pub fn run_stage<'a, T, F>(opts: &StageOptions<'a>, tasks: Vec<F>) -> Result<Vec<T>>
where
    T: Send,
    F: Fn() -> T + Send + Sync,
{
    // Scratch-free tasks are the `S = ()` case of the generic runner; the
    // adapter closures compile away.
    let tasks: Vec<_> = tasks.into_iter().map(|f| move |_: &mut ()| f()).collect();
    run_stage_with(opts, || (), tasks)
}

/// [`run_stage`] with per-worker scratch state: `make_scratch` is called
/// once per worker thread (once total on the sequential path) and the
/// resulting value is passed by `&mut` to every task that worker runs.
/// See [`run_tasks_with`] for the reuse contract tasks must honor.
pub fn run_stage_with<'a, S, T, F>(
    opts: &StageOptions<'a>,
    make_scratch: impl Fn() -> S + Send + Sync,
    tasks: Vec<F>,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&mut S) -> T + Send + Sync,
{
    let n = tasks.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = opts.workers.max(1).min(n);
    let started = Instant::now();
    let counters = StageCounters::default();

    // Single-threaded fast path: in-order retry loop, no speculation
    // (a lone worker has no idle capacity to speculate with).
    let result = if workers == 1 {
        let mut scratch = make_scratch();
        run_sequential(opts, &tasks, &counters, &mut scratch)
    } else {
        let shared = StageShared {
            opts,
            tasks: &tasks,
            states: (0..n).map(|_| Mutex::new(PartitionState::new())).collect(),
            queue: Mutex::new(WorkQueue::new(
                (0..n)
                    .map(|partition| WorkItem {
                        partition,
                        attempt: 0,
                        speculative: false,
                    })
                    .collect(),
                opts.schedule_seed,
            )),
            settled: AtomicUsize::new(0),
            durations: Mutex::new(Vec::with_capacity(n)),
            counters: &counters,
        };

        std::thread::scope(|scope| {
            for lane in 0..workers {
                let shared = &shared;
                let make_scratch = &make_scratch;
                scope.spawn(move || {
                    let mut scratch = make_scratch();
                    worker_loop(shared, lane, &mut scratch);
                });
            }
        });

        collect_results(shared, opts)
    };

    // One record per stage execution, failures included, so reports can
    // still show the retries/faults of a stage that brought the job down.
    if let Some(m) = opts.metrics {
        m.push_stage(counters.into_record(opts.stage, started));
    }
    result
}

/// The body of one worker thread: drain the queue, then look for
/// stragglers to speculate on, then idle-wait until the stage settles.
/// `lane` is the worker's index, used as the trace lane of its spans.
fn worker_loop<S, T: Send, F: Fn(&mut S) -> T>(
    shared: &StageShared<'_, T, F>,
    lane: usize,
    scratch: &mut S,
) {
    let n = shared.tasks.len();
    loop {
        if shared.settled.load(Ordering::Acquire) >= n {
            break;
        }
        let item = lock_unpoisoned(&shared.queue).pop();
        let Some(item) = item.or_else(|| pick_speculative(shared)) else {
            // Nothing to run right now: another worker may still fail and
            // re-queue, so poll until every partition settles.
            std::thread::sleep(Duration::from_micros(100));
            continue;
        };
        run_item(shared, item, lane, scratch);
    }
}

/// How one task attempt ended, for its trace span.
#[derive(Debug, Clone, Copy)]
enum AttemptOutcome {
    Success,
    /// Failed, but re-queued within the retry budget.
    Retried,
    /// Failed with the retry budget exhausted.
    Exhausted,
    /// Finished after a concurrent duplicate already settled the
    /// partition; the result was discarded and nothing was counted.
    Superseded,
}

impl AttemptOutcome {
    fn as_str(self) -> &'static str {
        match self {
            AttemptOutcome::Success => "success",
            AttemptOutcome::Retried => "retried",
            AttemptOutcome::Exhausted => "exhausted",
            AttemptOutcome::Superseded => "superseded",
        }
    }
}

/// Emits the span for one finished task attempt (only when a recorder is
/// installed — the disabled path allocates nothing).
fn record_task_span(
    opts: &StageOptions<'_>,
    item: WorkItem,
    lane: usize,
    started: Instant,
    outcome: AttemptOutcome,
) {
    if let Some(rec) = opts.recorder {
        rec.record_span(
            Span::new(opts.stage, SpanKind::Task, started, started.elapsed())
                .lane(lane as u64 + 1)
                .arg("partition", item.partition)
                .arg("attempt", item.attempt)
                .arg("speculative", item.speculative)
                .arg("outcome", outcome.as_str()),
        );
    }
}

/// Executes one work item and records its outcome.
fn run_item<S, T: Send, F: Fn(&mut S) -> T>(
    shared: &StageShared<'_, T, F>,
    item: WorkItem,
    lane: usize,
    scratch: &mut S,
) {
    let Some(state) = shared.states.get(item.partition) else {
        return; // out-of-range item: scheduler bug, but never panic
    };
    {
        let mut st = lock_unpoisoned(state);
        if st.settled() {
            return; // stale item (partition already won or failed)
        }
        st.launched += 1;
        if st.running_since.is_none() {
            st.running_since = Some(Instant::now());
        }
    }
    let Some(task) = shared.tasks.get(item.partition) else {
        return;
    };
    let started = Instant::now();
    let settled_probe = || lock_unpoisoned(state).settled();
    let outcome = run_attempt(
        shared.opts,
        shared.counters,
        task,
        item.partition,
        item.attempt,
        &settled_probe,
        scratch,
    );

    let mut st = lock_unpoisoned(state);
    if st.settled() {
        // A concurrent duplicate settled this partition first: discard
        // the result and charge nothing — the winner already paid this
        // task into the counters, and double-counting the loser would
        // skew task counts and duration percentiles.
        drop(st);
        record_task_span(shared.opts, item, lane, started, AttemptOutcome::Superseded);
        return;
    }
    match outcome {
        Ok(value) => {
            st.result = Some(value);
            shared.settled.fetch_add(1, Ordering::Release);
            let elapsed = started.elapsed();
            lock_unpoisoned(&shared.durations).push(elapsed);
            shared.counters.tasks.fetch_add(1, Ordering::Relaxed);
            lock_unpoisoned(&shared.counters.durations_hist).record(elapsed);
            if item.speculative {
                shared
                    .counters
                    .speculative_wins
                    .fetch_add(1, Ordering::Relaxed);
            }
            drop(st);
            record_task_span(shared.opts, item, lane, started, AttemptOutcome::Success);
        }
        Err(cause) => {
            st.failures
                .push(format!("attempt {}: {cause}", item.attempt + 1));
            if st.failures.len() > shared.opts.max_task_retries {
                st.exhausted = true;
                shared.settled.fetch_add(1, Ordering::Release);
                drop(st);
                record_task_span(shared.opts, item, lane, started, AttemptOutcome::Exhausted);
            } else {
                shared.counters.retries.fetch_add(1, Ordering::Relaxed);
                let attempt = st.failures.len();
                drop(st);
                // Re-queue at the back: healthy partitions drain first.
                lock_unpoisoned(&shared.queue).push_back(WorkItem {
                    partition: item.partition,
                    attempt,
                    speculative: false,
                });
                record_task_span(shared.opts, item, lane, started, AttemptOutcome::Retried);
            }
        }
    }
}

/// Looks for a straggler worth duplicating; returns its work item after
/// marking the partition speculated (each partition is duplicated at most
/// once).
fn pick_speculative<T, F>(shared: &StageShared<'_, T, F>) -> Option<WorkItem> {
    let spec = shared.opts.speculation?;
    let threshold = {
        let durations = lock_unpoisoned(&shared.durations);
        if durations.len() < spec.min_completed.max(1) {
            return None;
        }
        let mut sorted = durations.clone();
        drop(durations);
        sorted.sort_unstable();
        let idx = (((sorted.len() - 1) as f64) * spec.quantile.clamp(0.0, 1.0)).round() as usize;
        let base = sorted.get(idx).copied().unwrap_or_default();
        base.mul_f64(spec.multiplier.max(1.0)).max(spec.min_runtime)
    };
    for (partition, state) in shared.states.iter().enumerate() {
        let mut st = lock_unpoisoned(state);
        if st.settled() || st.speculated {
            continue;
        }
        let Some(since) = st.running_since else {
            continue;
        };
        if since.elapsed() >= threshold {
            st.speculated = true;
            let attempt = st.launched;
            shared
                .counters
                .speculative_launches
                .fetch_add(1, Ordering::Relaxed);
            return Some(WorkItem {
                partition,
                attempt,
                speculative: true,
            });
        }
    }
    None
}

/// Runs one attempt: consults the fault plan, then the real task under
/// [`catch_unwind`]. `settled` reports whether a concurrent duplicate
/// already settled this partition; injected delays poll it so a
/// speculative winner releases the delayed worker early instead of
/// pinning it for the full delay.
#[allow(clippy::too_many_arguments)]
fn run_attempt<S, T, F: Fn(&mut S) -> T>(
    opts: &StageOptions<'_>,
    counters: &StageCounters,
    task: &F,
    partition: usize,
    attempt: usize,
    settled: &dyn Fn() -> bool,
    scratch: &mut S,
) -> std::result::Result<T, String> {
    if let Some(plan) = opts.fault_plan {
        if let Some(kind) = plan.decide(opts.stage, partition, attempt) {
            counters.injected_faults.fetch_add(1, Ordering::Relaxed);
            match kind {
                FaultKind::Panic => {
                    return Err(format!("injected panic (attempt {})", attempt + 1))
                }
                FaultKind::Transient => {
                    return Err(format!(
                        "injected transient task failure (attempt {})",
                        attempt + 1
                    ))
                }
                FaultKind::Delay(total) => {
                    let delayed_since = Instant::now();
                    while !settled() {
                        let remaining = total.saturating_sub(delayed_since.elapsed());
                        if remaining.is_zero() {
                            break;
                        }
                        std::thread::sleep(remaining.min(Duration::from_millis(2)));
                    }
                }
            }
        }
    }
    // A task that panics mid-mutation may leave its scratch logically
    // stale for the next task on this worker — part of why tasks must
    // clear what they use on entry (see `run_tasks_with`).
    match catch_unwind(AssertUnwindSafe(|| task(scratch))) {
        Ok(v) => Ok(v),
        Err(payload) => Err(panic_message(payload)),
    }
}

/// The single-worker path: tasks run in partition order; a failed task
/// retries immediately (there are no peers to interleave with).
fn run_sequential<S, T, F>(
    opts: &StageOptions<'_>,
    tasks: &[F],
    counters: &StageCounters,
    scratch: &mut S,
) -> Result<Vec<T>>
where
    F: Fn(&mut S) -> T,
{
    let mut out = Vec::with_capacity(tasks.len());
    for (partition, task) in tasks.iter().enumerate() {
        let mut failures: Vec<String> = Vec::new();
        loop {
            let item = WorkItem {
                partition,
                attempt: failures.len(),
                speculative: false,
            };
            let started = Instant::now();
            match run_attempt(
                opts,
                counters,
                task,
                partition,
                failures.len(),
                &|| false,
                scratch,
            ) {
                Ok(v) => {
                    counters.tasks.fetch_add(1, Ordering::Relaxed);
                    lock_unpoisoned(&counters.durations_hist).record(started.elapsed());
                    record_task_span(opts, item, 0, started, AttemptOutcome::Success);
                    out.push(v);
                    break;
                }
                Err(cause) => {
                    failures.push(format!("attempt {}: {cause}", failures.len() + 1));
                    if failures.len() > opts.max_task_retries {
                        record_task_span(opts, item, 0, started, AttemptOutcome::Exhausted);
                        return Err(EngineError::TaskFailed {
                            stage: opts.stage.to_owned(),
                            partition,
                            attempts: failures.len(),
                            causes: failures,
                        });
                    }
                    counters.retries.fetch_add(1, Ordering::Relaxed);
                    record_task_span(opts, item, 0, started, AttemptOutcome::Retried);
                }
            }
        }
    }
    Ok(out)
}

/// Tears the shared state down into ordered results, or the error for the
/// lowest-indexed exhausted partition.
fn collect_results<T, F>(shared: StageShared<'_, T, F>, opts: &StageOptions<'_>) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(shared.states.len());
    for (partition, state) in shared.states.into_iter().enumerate() {
        let st = match state.into_inner() {
            Ok(st) => st,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(v) = st.result {
            out.push(v);
        } else if st.exhausted {
            return Err(EngineError::TaskFailed {
                stage: opts.stage.to_owned(),
                partition,
                attempts: st.failures.len(),
                causes: st.failures,
            });
        } else {
            return Err(EngineError::Internal {
                message: format!("no result recorded for partition {partition}"),
            });
        }
    }
    Ok(out)
}

/// Renders a panic payload for error reports. String payloads (the common
/// `panic!("...")` case) are returned verbatim; anything else is reported
/// with the payload's type name so exhausted retries stay debuggable.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        format!(
            "<non-string panic payload of type {}>",
            payload_type_name(payload.as_ref())
        )
    }
}

/// Best-effort name of a panic payload's concrete type. `dyn Any` erases
/// the name, so common `panic_any` payload types are probed explicitly;
/// anything else falls back to its opaque [`std::any::TypeId`].
fn payload_type_name(payload: &(dyn std::any::Any + Send)) -> String {
    macro_rules! probe {
        ($($t:ty),* $(,)?) => {
            $(if payload.is::<$t>() {
                return std::any::type_name::<$t>().to_owned();
            })*
        };
    }
    probe!(
        Box<str>,
        std::borrow::Cow<'static, str>,
        i8,
        i16,
        i32,
        i64,
        i128,
        isize,
        u8,
        u16,
        u32,
        u64,
        u128,
        usize,
        f32,
        f64,
        bool,
        char,
        (),
    );
    format!("{:?}", payload.type_id())
}

#[cfg(test)]
mod tests {
    use super::*;

    type BoxedTask<T> = Box<dyn Fn() -> T + Send + Sync>;

    fn items(n: usize) -> VecDeque<WorkItem> {
        (0..n)
            .map(|partition| WorkItem {
                partition,
                attempt: 0,
                speculative: false,
            })
            .collect()
    }

    #[test]
    fn fifo_queue_pops_in_order() {
        let mut q = WorkQueue::new(items(5), None);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|i| i.partition)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn seeded_queue_pops_every_item_exactly_once() {
        let mut q = WorkQueue::new(items(16), Some(42));
        let mut order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|i| i.partition)
            .collect();
        assert_ne!(order, (0..16).collect::<Vec<_>>(), "seed 42 must shuffle");
        order.sort_unstable();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn seeded_queue_is_reproducible_and_seed_sensitive() {
        let drain = |seed: u64| -> Vec<usize> {
            let mut q = WorkQueue::new(items(16), Some(seed));
            std::iter::from_fn(|| q.pop())
                .map(|i| i.partition)
                .collect()
        };
        assert_eq!(drain(7), drain(7));
        assert_ne!(drain(7), drain(8));
        // Seed 0 sits on xorshift's fixed point and must still shuffle.
        assert_ne!(drain(0), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn runs_all_tasks_in_order() {
        let tasks: Vec<_> = (0..100).map(|i| move || i * 2).collect();
        let out = run_tasks(4, tasks).unwrap();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_task_list() {
        let out: Vec<i32> = run_tasks(4, Vec::<fn() -> i32>::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_matches_parallel() {
        let mk = || (0..50).map(|i| move || i * i).collect::<Vec<_>>();
        assert_eq!(run_tasks(1, mk()).unwrap(), run_tasks(8, mk()).unwrap());
    }

    #[test]
    fn more_workers_than_tasks() {
        let tasks: Vec<_> = (0..3).map(|i| move || i).collect();
        assert_eq!(run_tasks(64, tasks).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn panic_is_reported_with_partition_index() {
        let tasks: Vec<BoxedTask<i32>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("kaboom")),
            Box::new(|| 3),
        ];
        let err = run_tasks(2, tasks).unwrap_err();
        match err {
            EngineError::TaskFailed {
                partition,
                attempts,
                causes,
                ..
            } => {
                assert_eq!(partition, 1);
                assert_eq!(attempts, 1);
                assert_eq!(causes, vec!["attempt 1: kaboom".to_owned()]);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn panic_with_string_payload() {
        let tasks: Vec<BoxedTask<i32>> = vec![Box::new(|| panic!("{}", String::from("dynamic")))];
        let err = run_tasks(1, tasks).unwrap_err();
        match err {
            EngineError::TaskFailed { causes, .. } => {
                assert_eq!(causes, vec!["attempt 1: dynamic".to_owned()]);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn non_string_panic_payload_reports_type_name() {
        let tasks: Vec<BoxedTask<i32>> = vec![Box::new(|| std::panic::panic_any(42u64))];
        let err = run_tasks(1, tasks).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("u64"), "type name missing: {msg}");
    }

    #[test]
    fn lowest_failing_partition_wins() {
        // Both tasks panic; the error must name partition 0 regardless of
        // scheduling order.
        let tasks: Vec<BoxedTask<i32>> =
            vec![Box::new(|| panic!("first")), Box::new(|| panic!("second"))];
        let err = run_tasks(4, tasks).unwrap_err();
        match err {
            EngineError::TaskFailed {
                partition, causes, ..
            } => {
                assert_eq!(partition, 0);
                assert_eq!(causes, vec!["attempt 1: first".to_owned()]);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn tasks_can_borrow_stage_local_data() {
        let data = vec![10, 20, 30];
        let tasks: Vec<_> = (0..3)
            .map(|i| {
                let data = &data;
                move || data[i] + 1
            })
            .collect();
        assert_eq!(run_tasks(2, tasks).unwrap(), vec![11, 21, 31]);
    }

    #[test]
    fn heavy_skew_still_completes() {
        // One task is much heavier; dynamic scheduling must not deadlock.
        let tasks: Vec<BoxedTask<u64>> = (0..16)
            .map(|i| {
                let work = if i == 0 { 200_000u64 } else { 100 };
                Box::new(move || (0..work).fold(0u64, |a, b| a.wrapping_add(b))) as BoxedTask<u64>
            })
            .collect();
        assert_eq!(run_tasks(4, tasks).unwrap().len(), 16);
    }

    #[test]
    fn transient_faults_are_retried_within_budget() {
        for workers in [1usize, 4] {
            let plan = FaultPlan::builder(0)
                .inject(1, 0, FaultKind::Transient)
                .inject(1, 1, FaultKind::Panic)
                .build();
            let metrics = EngineMetrics::new();
            let opts = StageOptions {
                max_task_retries: 2,
                fault_plan: Some(&plan),
                metrics: Some(&metrics),
                stage: "retry-test",
                ..StageOptions::new(workers)
            };
            let tasks: Vec<_> = (0..4).map(|i| move || i * 10).collect();
            let out = run_stage(&opts, tasks).unwrap();
            assert_eq!(out, vec![0, 10, 20, 30], "workers={workers}");
            let s = metrics.snapshot();
            assert_eq!(s.task_retries, 2, "workers={workers}");
            assert_eq!(s.injected_faults, 2, "workers={workers}");
        }
    }

    #[test]
    fn exhausted_budget_reports_every_attempt() {
        for workers in [1usize, 4] {
            let plan = FaultPlan::builder(0)
                .inject(2, 0, FaultKind::Transient)
                .inject(2, 1, FaultKind::Transient)
                .build();
            let opts = StageOptions {
                max_task_retries: 1,
                fault_plan: Some(&plan),
                stage: "exhaust-test",
                ..StageOptions::new(workers)
            };
            let tasks: Vec<_> = (0..4).map(|i| move || i).collect();
            let err = run_stage(&opts, tasks).unwrap_err();
            match err {
                EngineError::TaskFailed {
                    stage,
                    partition,
                    attempts,
                    causes,
                } => {
                    assert_eq!(stage, "exhaust-test");
                    assert_eq!(partition, 2);
                    assert_eq!(attempts, 2);
                    assert_eq!(causes.len(), 2);
                    assert!(causes[0].starts_with("attempt 1:"), "{causes:?}");
                    assert!(causes[1].starts_with("attempt 2:"), "{causes:?}");
                }
                other => panic!("unexpected error: {other:?}"),
            }
        }
    }

    #[test]
    fn delay_fault_is_not_a_failure() {
        let plan = FaultPlan::builder(0)
            .inject(0, 0, FaultKind::Delay(Duration::from_millis(5)))
            .build();
        let metrics = EngineMetrics::new();
        let opts = StageOptions {
            fault_plan: Some(&plan),
            metrics: Some(&metrics),
            ..StageOptions::new(2)
        };
        let tasks: Vec<_> = (0..3).map(|i| move || i).collect();
        assert_eq!(run_stage(&opts, tasks).unwrap(), vec![0, 1, 2]);
        let s = metrics.snapshot();
        assert_eq!(s.injected_faults, 1);
        assert_eq!(s.task_retries, 0);
    }

    #[test]
    fn scratch_is_built_once_per_worker_and_reused() {
        use std::sync::atomic::AtomicUsize;
        for workers in [1usize, 4] {
            let builds = AtomicUsize::new(0);
            let tasks: Vec<_> = (0..64)
                .map(|i| {
                    move |scratch: &mut Vec<usize>| {
                        scratch.clear();
                        scratch.extend(0..=i);
                        scratch.iter().sum::<usize>()
                    }
                })
                .collect();
            let out = run_tasks_with(
                workers,
                || {
                    builds.fetch_add(1, Ordering::Relaxed);
                    Vec::with_capacity(64)
                },
                tasks,
            )
            .unwrap();
            let expected: Vec<usize> = (0..64).map(|i| i * (i + 1) / 2).collect();
            assert_eq!(out, expected, "workers={workers}");
            assert!(
                builds.load(Ordering::Relaxed) <= workers,
                "scratch built {} times for {workers} workers",
                builds.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn scratch_survives_panicking_tasks() {
        // A panicked attempt must not take the worker's scratch with it:
        // the retry and every later task still get a usable scratch.
        let opts = StageOptions {
            max_task_retries: 1,
            ..StageOptions::new(1)
        };
        let attempts = AtomicU64::new(0);
        type ScratchTask<'a> = Box<dyn Fn(&mut Vec<u64>) -> u64 + Send + Sync + 'a>;
        let tasks: Vec<ScratchTask<'_>> = vec![
            Box::new(|s: &mut Vec<u64>| {
                s.clear();
                s.push(7);
                if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("first attempt dies");
                }
                s.iter().sum()
            }),
            Box::new(|s: &mut Vec<u64>| {
                s.clear();
                s.push(35);
                s.iter().sum()
            }),
        ];
        let out = run_stage_with(&opts, Vec::new, tasks).unwrap();
        assert_eq!(out, vec![7, 35]);
    }

    #[test]
    fn fed_workers_run_with_mutable_captures() {
        // Workers may own disjoint &mut segments of one buffer — the
        // parallel-scatter ownership shape — and each item runs once.
        fn fill(
            seg: &mut [u64],
            base: u64,
        ) -> impl FnMut(usize) -> std::result::Result<(), ()> + Send + '_ {
            move |i| {
                seg[i] = base + i as u64;
                Ok(())
            }
        }
        let mut buf = vec![0u64; 8];
        let (a, b) = buf.split_at_mut(4);
        let (sums, outcomes) = run_fed_workers(vec![fill(a, 0), fill(b, 10)], |feeder| {
            for i in 0..4 {
                for lane in 0..feeder.workers() {
                    assert!(feeder.send(lane, i));
                }
            }
            feeder.workers()
        });
        assert_eq!(sums, 2);
        assert_eq!(outcomes, vec![Ok(()), Ok(())]);
        assert_eq!(buf, vec![0, 1, 2, 3, 10, 11, 12, 13]);
    }

    #[test]
    fn fed_workers_handle_none_and_one() {
        type Worker = fn(u8) -> std::result::Result<(), ()>;
        let (fed, outcomes) = run_fed_workers(Vec::<Worker>::new(), |feeder| feeder.send(0, 9));
        assert!(!fed, "there is no worker 0");
        assert!(outcomes.is_empty());
        let mut seen = Vec::new();
        let (fed, outcomes) = run_fed_workers(
            vec![|x: u8| -> std::result::Result<(), ()> {
                seen.push(x);
                Ok(())
            }],
            |feeder| feeder.send(0, 9) && !feeder.send(1, 7),
        );
        assert!(fed);
        assert_eq!(outcomes, vec![Ok(())]);
        assert_eq!(seen, vec![9]);
    }

    #[test]
    fn fed_workers_see_their_items_in_send_order() {
        for workers in [1usize, 2, 3] {
            let mut seen: Vec<Vec<usize>> = vec![Vec::new(); workers];
            let lanes: Vec<_> = seen
                .iter_mut()
                .map(|lane| {
                    move |item: usize| -> std::result::Result<(), ()> {
                        lane.push(item);
                        Ok(())
                    }
                })
                .collect();
            let (_, outcomes) = run_fed_workers(lanes, |feeder| {
                for item in 0..50 {
                    feeder.send(item % workers, item);
                }
            });
            assert_eq!(outcomes, vec![Ok(()); workers]);
            for (lane, items) in seen.iter().enumerate() {
                let want: Vec<usize> = (lane..50).step_by(workers).collect();
                assert_eq!(items, &want, "workers={workers} lane={lane}");
            }
        }
    }

    #[test]
    fn an_early_failing_worker_does_not_block_the_feeder() {
        // Worker 0 fails on its first item; the feed ignores `send`'s
        // answer and sends it many channels' worth more, which only
        // returns because the failed worker drops what it gets. Worker 1
        // still gets every item it is sent.
        for workers in [1usize, 2] {
            let mut done = 0usize;
            type Lane<'a> = Box<dyn FnMut(usize) -> std::result::Result<(), usize> + Send + 'a>;
            let mut lanes: Vec<Lane<'_>> = vec![Box::new(Err)];
            if workers == 2 {
                lanes.push(Box::new(|_| {
                    done += 1;
                    Ok(())
                }));
            }
            let (stopped, outcomes) = run_fed_workers(lanes, |feeder| {
                let mut stopped = false;
                for item in 0..20 * FEED_DEPTH {
                    stopped |= !feeder.send(0, item);
                    if workers == 2 {
                        feeder.send(1, item);
                    }
                }
                stopped
            });
            assert_eq!(outcomes.first(), Some(&Err(0)), "workers={workers}");
            assert!(outcomes.iter().skip(1).all(|o| o.is_ok()));
            if workers == 2 {
                assert_eq!(done, 20 * FEED_DEPTH);
            }
            // The channel holds at most FEED_DEPTH items, so some send
            // after the failure had to wait for it and then saw it.
            assert!(stopped, "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "worker 1 dies")]
    fn a_worker_panic_reaches_the_caller() {
        let lanes: Vec<_> = (0..2)
            .map(|lane| {
                move |item: usize| -> std::result::Result<(), ()> {
                    assert!(lane != 1 || item < 3, "worker 1 dies");
                    Ok(())
                }
            })
            .collect();
        // The feed keeps sending to the dead worker: its sends must fail,
        // not block on a channel nobody drains.
        run_fed_workers(lanes, |feeder| {
            for item in 0..20 * FEED_DEPTH {
                feeder.send(0, item);
                feeder.send(1, item);
            }
        });
    }

    #[test]
    fn straggler_gets_a_speculative_duplicate() {
        // Partition 7's first attempt is delayed far past the runtime of
        // its peers; an idle worker must duplicate it (the duplicate sees
        // attempt index 1, which the plan leaves alone) and win.
        let plan = FaultPlan::builder(0)
            .inject(7, 0, FaultKind::Delay(Duration::from_secs(5)))
            .build();
        let metrics = EngineMetrics::new();
        let opts = StageOptions {
            speculation: Some(SpeculationConfig {
                min_completed: 3,
                quantile: 0.5,
                multiplier: 2.0,
                min_runtime: Duration::from_millis(20),
            }),
            fault_plan: Some(&plan),
            metrics: Some(&metrics),
            stage: "speculation-test",
            ..StageOptions::new(4)
        };
        let tasks: Vec<_> = (0..8).map(|i| move || i * 3).collect();
        let started = Instant::now();
        let out = run_stage(&opts, tasks).unwrap();
        assert_eq!(out, (0..8).map(|i| i * 3).collect::<Vec<_>>());
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "speculation must beat the 5s straggler"
        );
        let s = metrics.snapshot();
        assert!(s.speculative_launches >= 1, "snapshot: {s:?}");
        assert!(s.speculative_wins >= 1, "snapshot: {s:?}");
    }
}
