//! Serving many users: an engine pool, a work-queue scheduler, and the
//! closed-batch runner rebuilt on top of them.
//!
//! The production scenario the ROADMAP targets is a fleet of SNE instances
//! consuming sustained event traffic from many sensors/users at once. Multi-
//! instance accelerators (Mega, SpiDR) frame the hardware exactly this way:
//! a pool of identical engines fed from a shared queue. The runtime mirrors
//! that split in three tiers:
//!
//! * [`EnginePool`] holds N warm engines (plus a scratch [`ClientState`]
//!   each) built from one shared [`RuntimeArtifact`]. Under a [`Scheduler`]
//!   each worker checks one engine out for its whole lifetime — no
//!   per-request checkout churn.
//! * [`Scheduler`] is a **work-stealing** run-queue fabric (std
//!   `Mutex`/`Condvar`/`mpsc`, no new dependencies) with exactly one worker
//!   thread per engine of the pool, the only host threads a fleet runs:
//!   every worker owns one engine and a local double-ended queue, requests
//!   go to the affine or least-loaded worker, the owner serves its queue
//!   oldest first, and an idle worker steals the newest job of the
//!   most-loaded one — so one hot queue can never strand the rest of the
//!   fleet idle (the `[0, 0, 0, 0.98]` lane-utilization collapse of the old
//!   single-FIFO design). Every completion carries its **queue-wait** and
//!   **service** latency ([`RequestRecord`]). Streaming clients may pass a
//!   lane **affinity hint**; because state is engine-agnostic
//!   ([`RuntimeArtifact::push`]), affinity is an optimization only — a
//!   stolen (affinity-miss) request is bit-identical.
//! * [`BatchRunner`] is the closed-batch convenience preserved from the
//!   earlier lane-pinned runner: [`BatchRunner::run`] submits every stream,
//!   drains, and aggregates a [`BatchReport`]. The statically pinned
//!   round-robin walk survives as [`BatchRunner::run_round_robin`] — the
//!   sequential reference oracle the dynamic scheduler is proven
//!   bit-identical against (`tests/scheduler_equivalence.rs`).
//!
//! Because every request starts from resting neuron state (`infer` resets
//! the engine's scratch client first), *which* engine serves a request can
//! never change its result: the dynamic scheduler's per-stream results are
//! bit-identical to the static round-robin runner's, in input order, for
//! every fleet size. Only the host-measured latencies differ.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use sne_event::EventStream;
use sne_sim::{CycleStats, Engine, SneConfig};

use crate::artifact::{ClientState, RuntimeArtifact};
use crate::compile::CompiledNetwork;
use crate::run::InferenceResult;
use crate::session::ChunkOutput;
use crate::SneError;

/// Order statistics of a set of host-measured latencies, in microseconds.
///
/// Percentiles use the nearest-rank method; an empty sample set reports all
/// zeros. These are **wall-clock host** numbers (unlike the modelled
/// cycle-derived times), so they vary run to run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: usize,
    /// Arithmetic mean in µs.
    pub mean_us: f64,
    /// Median (50th percentile) in µs.
    pub p50_us: f64,
    /// 95th percentile in µs.
    pub p95_us: f64,
    /// 99th percentile in µs.
    pub p99_us: f64,
    /// Largest sample in µs.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarizes a sample set (order irrelevant; not modified).
    #[must_use]
    pub fn from_samples_us(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let nearest_rank = |q: f64| {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Self {
            count: sorted.len(),
            mean_us: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_us: nearest_rank(0.50),
            p95_us: nearest_rank(0.95),
            p99_us: nearest_rank(0.99),
            max_us: *sorted.last().expect("non-empty"),
        }
    }
}

/// One warm engine of the fleet, bundled with the shared artifact and a
/// reusable scratch [`ClientState`] for whole-sample requests. Obtained from
/// [`EnginePool::checkout`] and returned with [`EnginePool::checkin`].
#[derive(Debug)]
pub struct PooledEngine {
    lane: usize,
    artifact: Arc<RuntimeArtifact>,
    engine: Engine,
    scratch: ClientState,
}

impl PooledEngine {
    fn new(lane: usize, artifact: &Arc<RuntimeArtifact>) -> Self {
        Self {
            lane,
            artifact: Arc::clone(artifact),
            engine: Engine::new(*artifact.config()),
            scratch: artifact.new_client(),
        }
    }

    /// Stable index of this engine within its pool (`0..lanes`).
    #[must_use]
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// The shared artifact this engine executes against.
    #[must_use]
    pub fn artifact(&self) -> &Arc<RuntimeArtifact> {
        &self.artifact
    }

    /// Runs one whole-sample inference on this engine's scratch client
    /// (reset first, so results never depend on which engine served which
    /// request).
    ///
    /// # Errors
    ///
    /// Same as [`crate::session::InferenceSession::infer`].
    pub fn infer(&mut self, input: &EventStream) -> Result<InferenceResult, SneError> {
        self.artifact
            .infer(&mut self.engine, &mut self.scratch, input, true)
    }

    /// Streams one chunk of an external client's feed through this engine:
    /// the neuron state lives in the caller's [`ClientState`], so the
    /// client's next chunk may be served by any other engine of the pool.
    ///
    /// # Errors
    ///
    /// Same as [`crate::session::InferenceSession::push`].
    pub fn push(
        &mut self,
        client: &mut ClientState,
        chunk: &EventStream,
    ) -> Result<ChunkOutput, SneError> {
        self.artifact.push(&mut self.engine, client, chunk, true)
    }
}

/// A fixed fleet of warm engines sharing one [`RuntimeArtifact`]: check one
/// out, run, check it back in. [`EnginePool::checkout`] blocks until an
/// engine is free; a [`Scheduler`] checks out one engine per worker for its
/// whole lifetime.
#[derive(Debug)]
pub struct EnginePool {
    artifact: Arc<RuntimeArtifact>,
    idle: Mutex<Vec<PooledEngine>>,
    available: Condvar,
    lanes: usize,
}

impl EnginePool {
    /// Builds `lanes` engines (and scratch clients) against `artifact`, all
    /// allocated here, once.
    ///
    /// # Errors
    ///
    /// Returns [`SneError::EmptyBatch`] if `lanes` is zero.
    pub fn new(artifact: Arc<RuntimeArtifact>, lanes: usize) -> Result<Self, SneError> {
        if lanes == 0 {
            return Err(SneError::EmptyBatch);
        }
        let idle = (0..lanes)
            .map(|lane| PooledEngine::new(lane, &artifact))
            .collect();
        Ok(Self {
            artifact,
            idle: Mutex::new(idle),
            available: Condvar::new(),
            lanes,
        })
    }

    /// Convenience: compiles the artifact and builds the pool in one step.
    ///
    /// # Errors
    ///
    /// Returns [`SneError::EmptyBatch`] if `lanes` is zero, plus
    /// [`RuntimeArtifact::new`]'s errors.
    pub fn for_network(
        network: impl Into<Arc<CompiledNetwork>>,
        config: SneConfig,
        lanes: usize,
    ) -> Result<Self, SneError> {
        if lanes == 0 {
            return Err(SneError::EmptyBatch);
        }
        Self::new(Arc::new(RuntimeArtifact::new(network, config)?), lanes)
    }

    /// Total engines in the fleet.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Engines currently idle (not checked out).
    #[must_use]
    pub fn idle_lanes(&self) -> usize {
        self.idle.lock().expect("engine pool poisoned").len()
    }

    /// The shared artifact the fleet executes against.
    #[must_use]
    pub fn artifact(&self) -> &Arc<RuntimeArtifact> {
        &self.artifact
    }

    /// Checks an engine out, blocking until one is free.
    #[must_use]
    pub fn checkout(&self) -> PooledEngine {
        let mut idle = self.idle.lock().expect("engine pool poisoned");
        loop {
            if let Some(engine) = idle.pop() {
                return engine;
            }
            idle = self.available.wait(idle).expect("engine pool poisoned");
        }
    }

    /// Returns an engine to the pool and wakes one waiter.
    pub fn checkin(&self, engine: PooledEngine) {
        debug_assert!(
            Arc::ptr_eq(&engine.artifact, &self.artifact),
            "engine returned to a foreign pool"
        );
        self.idle.lock().expect("engine pool poisoned").push(engine);
        self.available.notify_one();
    }
}

/// Completion record of one scheduled request.
#[derive(Debug)]
pub struct RequestRecord {
    /// Monotonic request id, assigned when the request is enqueued (ids
    /// order submissions, so sorting by id recovers input order).
    pub id: u64,
    /// The inference outcome.
    pub result: Result<InferenceResult, SneError>,
    /// Pool lane that served the request.
    pub lane: usize,
    /// Host time from submission until service started, in µs.
    pub queue_us: f64,
    /// Host time the engine spent on the request, in µs.
    pub service_us: f64,
}

/// Completion record of one streaming-chunk request
/// ([`Scheduler::call_push`]): the caller's [`ClientState`] comes back with
/// the chunk's outcome, ready to park until the client's next chunk.
#[derive(Debug)]
pub struct PushRecord {
    /// Monotonic request id (shares the [`RequestRecord`] id space).
    pub id: u64,
    /// The caller's streaming state, returned after the chunk (advanced on
    /// success, untouched on error).
    pub client: ClientState,
    /// The chunk outcome.
    pub result: Result<ChunkOutput, SneError>,
    /// Pool lane that served the chunk — feed it back as the next chunk's
    /// affinity hint to keep the session on a warm engine.
    pub lane: usize,
    /// Host time from submission until service started, in µs.
    pub queue_us: f64,
    /// Host time the engine spent on the chunk, in µs.
    pub service_us: f64,
}

/// Cumulative counters of a [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Requests completed (success or error).
    pub completed: u64,
    /// Requests that completed with an error.
    pub errors: u64,
    /// Requests a worker took from another worker's queue instead of its
    /// own.
    pub steals: u64,
    /// Requests submitted with an affinity hint and served by the hinted
    /// lane.
    pub affinity_hits: u64,
    /// Requests submitted with an affinity hint and served elsewhere
    /// (stolen or rerouted — results are identical either way).
    pub affinity_misses: u64,
}

/// How long an idle worker waits before it may steal: one scheduling
/// quantum's grace for the victim to serve its own queue. Keeps steal
/// latency bounded on a loaded multi-core fleet while preventing the
/// first-scheduled worker of a time-sliced single-core host from draining
/// every peer's queue.
const STEAL_GRACE: Duration = Duration::from_millis(2);

/// Where a completion record goes: run on the worker thread right after
/// the request is served. It must be quick and must never block on the
/// scheduler itself — it runs ahead of the worker's next job.
type Reply<R> = Box<dyn FnOnce(R) + Send>;

/// One queued request. Streams are behind an `Arc` so callers that already
/// hold shared streams submit without copying event data.
struct Job {
    id: u64,
    enqueued: Instant,
    /// Engine lane the submitter prefers. A hint only: state is
    /// engine-agnostic, so serving (or stealing) the job anywhere is
    /// bit-identical — the hint just keeps a streaming session on a warm
    /// engine when the fleet is not loaded.
    affinity: Option<usize>,
    kind: JobKind,
}

enum JobKind {
    /// Whole-sample inference on the serving engine's scratch client.
    Infer {
        stream: Arc<EventStream>,
        reply: Reply<RequestRecord>,
    },
    /// One chunk of an external client's feed; the [`ClientState`] travels
    /// with the job and comes back in the [`PushRecord`].
    Push {
        client: Box<ClientState>,
        chunk: Arc<EventStream>,
        reply: Reply<PushRecord>,
    },
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("id", &self.id).finish()
    }
}

#[derive(Debug)]
struct SchedState {
    /// One run queue per worker, in arrival order: the owner pops the
    /// front (oldest), a thief pops the back (newest).
    queues: Vec<VecDeque<Job>>,
    closed: bool,
    /// Rotating tiebreak for [`SchedState::least_loaded`]: among equally
    /// short queues, placement cycles through the workers instead of
    /// piling onto the lowest index. Without it, paced arrivals (each job
    /// arriving after the last one finished, every queue empty) would all
    /// land on worker 0 and re-create the one-hot-lane collapse this
    /// scheduler exists to kill.
    rr_cursor: usize,
}

impl SchedState {
    /// Worker with the shortest run queue (rotating tiebreak) — the
    /// placement target for non-affine submissions.
    fn least_loaded(&mut self) -> usize {
        let n = self.queues.len();
        let start = self.rr_cursor % n;
        // `min_by_key` keeps the first minimum in iteration order, i.e. the
        // shortest queue nearest the cursor.
        let target = (0..n)
            .map(|offset| (start + offset) % n)
            .min_by_key(|&i| self.queues[i].len())
            .unwrap_or(0);
        self.rr_cursor = (target + 1) % n;
        target
    }

    /// Steals the newest job for worker `me` from the most-loaded other
    /// queue (the oldest jobs keep their place with their owner). A
    /// victim's **last** job is off limits while the scheduler is open:
    /// its owner was notified and will serve it, and leaving it guarantees
    /// every worker gets a share of a saturating batch even when the host
    /// serializes the worker threads (a one-core box would otherwise let
    /// the first-scheduled worker drain the whole fleet's queues and
    /// collapse the lane-utilization spread). Once closed, stragglers are
    /// fair game so shutdown drains fast.
    fn steal_for(&mut self, me: usize) -> Option<Job> {
        let floor = if self.closed { 1 } else { 2 };
        let victim = (0..self.queues.len())
            .filter(|&i| i != me && self.queues[i].len() >= floor)
            .max_by_key(|&i| self.queues[i].len())?;
        self.queues[victim].pop_back()
    }

    /// Whether any queue holds work.
    fn has_work(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }
}

#[derive(Debug)]
struct SchedShared {
    pool: Arc<EnginePool>,
    state: Mutex<SchedState>,
    ready: Condvar,
    next_id: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    steals: AtomicU64,
    affinity_hits: AtomicU64,
    affinity_misses: AtomicU64,
    /// `worker_lanes[i]` is the engine lane worker `i` owns.
    worker_lanes: Vec<usize>,
}

impl SchedShared {
    /// Counts one completion. Runs before the reply, so a caller holding
    /// its record also sees it in [`Scheduler::stats`].
    fn count_completion(&self, is_error: bool) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.errors
            .fetch_add(u64::from(is_error), Ordering::Relaxed);
    }
}

/// A work-stealing scheduler over an [`EnginePool`]: every worker owns one
/// warm engine and a local run queue; requests arrive at any time from any
/// thread ([`Scheduler::submit`] for batches collected by
/// [`Scheduler::drain`], [`Scheduler::call`] / [`Scheduler::call_push`] for
/// round trips, their `_async` forms for event-driven callers) and are
/// placed on the affine or least-loaded worker. An idle worker steals from
/// the tail of the most-loaded queue, so no single hot queue can strand the
/// rest of the fleet — and because every request is engine-agnostic, a
/// stolen request's result is bit-identical to an affine one's.
///
/// Shutting the scheduler down ([`Scheduler::shutdown`] or drop) is
/// graceful: already-queued work is finished (local or stolen) before the
/// workers check their engines back in and exit.
#[derive(Debug)]
pub struct Scheduler {
    shared: Arc<SchedShared>,
    workers: Vec<JoinHandle<()>>,
    results_tx: mpsc::Sender<RequestRecord>,
    /// Behind a mutex so the scheduler is `Sync`: server threads share it
    /// via [`Scheduler::call`] while a batch driver owns `&mut` for
    /// submit/drain.
    results_rx: Mutex<mpsc::Receiver<RequestRecord>>,
    outstanding: usize,
}

impl Scheduler {
    /// Starts one worker thread per engine of `pool`, each owning its
    /// engine for the worker's lifetime. Blocks until every engine is free,
    /// so build the scheduler over a pool whose engines are not checked out
    /// elsewhere.
    #[must_use]
    pub fn new(pool: Arc<EnginePool>) -> Self {
        let workers = pool.lanes();
        let mut engines: Vec<PooledEngine> = (0..workers).map(|_| pool.checkout()).collect();
        // Deterministic worker→lane mapping (lowest lanes first), so tests
        // and telemetry can reason about placement.
        engines.sort_by_key(PooledEngine::lane);
        let worker_lanes: Vec<usize> = engines.iter().map(PooledEngine::lane).collect();
        let shared = Arc::new(SchedShared {
            pool,
            state: Mutex::new(SchedState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                closed: false,
                rr_cursor: 0,
            }),
            ready: Condvar::new(),
            next_id: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            affinity_hits: AtomicU64::new(0),
            affinity_misses: AtomicU64::new(0),
            worker_lanes,
        });
        let workers = engines
            .into_iter()
            .enumerate()
            .map(|(index, engine)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, index, engine))
            })
            .collect();
        let (results_tx, results_rx) = mpsc::channel();
        Self {
            shared,
            workers,
            results_tx,
            results_rx: Mutex::new(results_rx),
            outstanding: 0,
        }
    }

    /// Number of worker threads: one per engine of the pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Requests submitted with [`Scheduler::submit`] whose completion
    /// records have not been collected by [`Scheduler::drain`] yet.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Engine lane owned by each worker (`worker_lanes()[i]` is worker
    /// `i`'s lane): the valid affinity-hint values, and the lanes request
    /// records attribute service time to.
    #[must_use]
    pub fn worker_lanes(&self) -> &[usize] {
        &self.shared.worker_lanes
    }

    /// Requests queued but not yet picked up by a worker, over all lanes.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("scheduler poisoned")
            .queues
            .iter()
            .map(VecDeque::len)
            .sum()
    }

    /// Cumulative request, steal and affinity counters.
    #[must_use]
    pub fn stats(&self) -> SchedulerStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let shared = &*self.shared;
        SchedulerStats {
            completed: load(&shared.completed),
            errors: load(&shared.errors),
            steals: load(&shared.steals),
            affinity_hits: load(&shared.affinity_hits),
            affinity_misses: load(&shared.affinity_misses),
        }
    }

    fn enqueue(&self, affinity: Option<usize>, kind: JobKind) -> u64 {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut state = self.shared.state.lock().expect("scheduler poisoned");
            assert!(!state.closed, "submit on a shut-down scheduler");
            let target = affinity
                .and_then(|lane| self.shared.worker_lanes.iter().position(|&l| l == lane))
                .unwrap_or_else(|| state.least_loaded());
            state.queues[target].push_back(Job {
                id,
                enqueued: Instant::now(),
                affinity,
                kind,
            });
        }
        self.shared.ready.notify_one();
        id
    }

    /// Enqueues one request whose completion is collected by
    /// [`Scheduler::drain`]. Returns the request id (ids order submissions).
    /// Accepts an owned stream or an `Arc` (no event copy for the latter).
    pub fn submit(&mut self, stream: impl Into<Arc<EventStream>>) -> u64 {
        let tx = self.results_tx.clone();
        let id = self.call_async(stream, None, move |record| drop(tx.send(record)));
        self.outstanding += 1;
        id
    }

    /// Waits for every [`Scheduler::submit`]ted request to complete and
    /// returns the records sorted by request id (= submission order).
    pub fn drain(&mut self) -> Vec<RequestRecord> {
        let results_rx = self.results_rx.get_mut().expect("scheduler poisoned");
        let mut records = Vec::with_capacity(self.outstanding);
        for _ in 0..self.outstanding {
            records.push(results_rx.recv().expect("scheduler worker disconnected"));
        }
        self.outstanding = 0;
        records.sort_by_key(|r| r.id);
        records
    }

    /// Synchronous round trip: enqueues the request behind the work already
    /// queued and blocks until its completion record arrives. Callable from
    /// any thread.
    #[must_use]
    pub fn call(&self, stream: impl Into<Arc<EventStream>>) -> RequestRecord {
        self.call_with_affinity(stream, None)
    }

    /// [`Scheduler::call`] with a lane-affinity hint: the request is placed
    /// on the worker owning `affinity` when that lane exists (falling back
    /// to the least-loaded worker otherwise). The hint never changes the
    /// result — a steal still serves it bit-identically — it only biases
    /// placement; the record's `lane` says who actually served it.
    #[must_use]
    pub fn call_with_affinity(
        &self,
        stream: impl Into<Arc<EventStream>>,
        affinity: Option<usize>,
    ) -> RequestRecord {
        let (tx, rx) = mpsc::channel();
        // A dropped receiver (caller gave up) is not an error.
        self.call_async(stream, affinity, move |record| drop(tx.send(record)));
        rx.recv().expect("scheduler worker disconnected")
    }

    /// Nonblocking [`Scheduler::call_with_affinity`]: enqueues the request
    /// and returns immediately; `on_done` runs on the serving worker thread
    /// right after completion. This is the entry point for event-driven
    /// callers such as `sne_serve`'s reactor, which cannot park a thread
    /// per request. The callback must be quick and must not block on the
    /// scheduler — it runs ahead of the worker's next job. Returns the
    /// request id.
    pub fn call_async(
        &self,
        stream: impl Into<Arc<EventStream>>,
        affinity: Option<usize>,
        on_done: impl FnOnce(RequestRecord) + Send + 'static,
    ) -> u64 {
        self.enqueue(
            affinity,
            JobKind::Infer {
                stream: stream.into(),
                reply: Box::new(on_done),
            },
        )
    }

    /// Synchronous streaming round trip: sends `client` and one chunk of its
    /// feed through the fleet and blocks until the [`PushRecord`] (carrying
    /// the advanced `client`) comes back. Pass the previous record's `lane`
    /// as `affinity` to keep a session on a warm engine; state is
    /// engine-agnostic, so an affinity miss is bit-identical.
    #[must_use]
    pub fn call_push(
        &self,
        client: ClientState,
        chunk: impl Into<Arc<EventStream>>,
        affinity: Option<usize>,
    ) -> PushRecord {
        let (tx, rx) = mpsc::channel();
        self.call_push_async(client, chunk, affinity, move |record| drop(tx.send(record)));
        rx.recv().expect("scheduler worker disconnected")
    }

    /// Nonblocking [`Scheduler::call_push`]: the advanced [`ClientState`]
    /// comes back inside the [`PushRecord`] handed to `on_done` on the
    /// serving worker thread. Same contract as [`Scheduler::call_async`].
    /// Returns the request id.
    pub fn call_push_async(
        &self,
        client: ClientState,
        chunk: impl Into<Arc<EventStream>>,
        affinity: Option<usize>,
        on_done: impl FnOnce(PushRecord) + Send + 'static,
    ) -> u64 {
        self.enqueue(
            affinity,
            JobKind::Push {
                client: Box::new(client),
                chunk: chunk.into(),
                reply: Box::new(on_done),
            },
        )
    }

    /// Graceful shutdown: queued work is finished, then the workers exit and
    /// are joined (idempotent; also runs on drop). Completion records of
    /// already-submitted work remain collectable with [`Scheduler::drain`];
    /// submitting *new* work after shutdown panics.
    pub fn shutdown(&mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("scheduler poisoned");
            state.closed = true;
        }
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("scheduler worker panicked");
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// One worker of the fleet: serve the local queue oldest first, steal the
/// newest job of the most-loaded peer when idle, exit — returning the owned
/// engine — only once the scheduler is closed and every queue is empty
/// (graceful drain-first shutdown).
fn worker_loop(shared: &SchedShared, index: usize, mut engine: PooledEngine) {
    loop {
        let mut stolen = false;
        let job = {
            let mut state = shared.state.lock().expect("scheduler poisoned");
            // A steal needs an expired grace period first: the victim was
            // notified for its own jobs and deserves one scheduling quantum
            // to serve them. Without the grace, the first worker a one-core
            // host happens to schedule strips every peer's queue — all
            // throughput, zero lane spread. Shutdown waives the grace so
            // the backlog drains at full speed.
            let mut grace_expired = false;
            loop {
                if let Some(job) = state.queues[index].pop_front() {
                    break Some(job);
                }
                if grace_expired || state.closed {
                    if let Some(job) = state.steal_for(index) {
                        stolen = true;
                        break Some(job);
                    }
                }
                if state.closed {
                    break None;
                }
                // Pending work this worker must not (yet) take: the wakeup
                // token that landed here was meant for the job's owner, so
                // forward it before sleeping — otherwise the notify would
                // be consumed and the job stranded. The bounded wait doubles
                // as the steal grace and as a lost-wakeup backstop: a missed
                // notify costs milliseconds, never a hang.
                if state.has_work() {
                    shared.ready.notify_one();
                }
                let (next, timeout) = shared
                    .ready
                    .wait_timeout(state, STEAL_GRACE)
                    .expect("scheduler poisoned");
                state = next;
                grace_expired = timeout.timed_out();
            }
        };
        let Some(job) = job else {
            shared.pool.checkin(engine);
            return;
        };
        if stolen {
            shared.steals.fetch_add(1, Ordering::Relaxed);
        }
        serve_job(shared, &mut engine, job);
    }
}

/// Serves one job on the worker's owned engine: affinity accounting, queue
/// and service timing, inference or push, the completion counters, and the
/// reply.
fn serve_job(shared: &SchedShared, engine: &mut PooledEngine, job: Job) {
    let lane = engine.lane();
    if let Some(hint) = job.affinity {
        let counter = if hint == lane {
            &shared.affinity_hits
        } else {
            &shared.affinity_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
    let queue_us = job.enqueued.elapsed().as_secs_f64() * 1e6;
    let service_start = Instant::now();
    match job.kind {
        JobKind::Infer { stream, reply } => {
            let result = engine.infer(&stream);
            let service_us = service_start.elapsed().as_secs_f64() * 1e6;
            shared.count_completion(result.is_err());
            reply(RequestRecord {
                id: job.id,
                result,
                lane,
                queue_us,
                service_us,
            });
        }
        JobKind::Push {
            mut client,
            chunk,
            reply,
        } => {
            let result = engine.push(&mut client, &chunk);
            let service_us = service_start.elapsed().as_secs_f64() * 1e6;
            shared.count_completion(result.is_err());
            reply(PushRecord {
                id: job.id,
                client: *client,
                result,
                lane,
                queue_us,
                service_us,
            });
        }
    }
}

/// Aggregated outcome of a batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Per-stream results, in input order.
    pub results: Vec<InferenceResult>,
    /// Number of pool engines (independent SNE instances) used.
    pub lanes: usize,
    /// Cycle statistics summed over every inference of the batch.
    pub total_stats: CycleStats,
    /// Energy summed over every inference, in µJ.
    pub total_energy_uj: f64,
    /// Modelled busy time of the busiest lane in milliseconds under the
    /// canonical round-robin placement (stream `i` on lane `i % lanes`) —
    /// the batch makespan when all lanes run concurrently. Derived from the
    /// modelled per-inference times, so it is deterministic.
    pub makespan_ms: f64,
    /// Sustained throughput of the fleet: inferences per second at the
    /// makespan ([`f64::INFINITY`] for an empty batch).
    pub aggregate_rate: f64,
    /// Mean energy per inference in µJ (0 for an empty batch).
    pub mean_energy_uj: f64,
    /// Host wall-clock queue-wait latency per request (zero for the
    /// statically pinned [`BatchRunner::run_round_robin`], which has no
    /// queue).
    pub queue_latency: LatencySummary,
    /// Host wall-clock service latency per request.
    pub service_latency: LatencySummary,
    /// Host busy fraction of each pool lane over the run's wall time, in
    /// `[0, 1]` (index = lane).
    pub lane_utilization: Vec<f64>,
    /// Evenness of the per-lane busy time: minimum lane busy time over the
    /// mean lane busy time, in `[0, 1]` (1 = perfectly even, 0 = at least
    /// one lane never served; 0 for an empty batch). The fairness gates
    /// assert a floor on this, so a lane-utilization collapse cannot
    /// regress silently.
    pub utilization_spread: f64,
    /// Requests served by a worker that stole them from another worker's
    /// queue (always 0 for the statically pinned
    /// [`BatchRunner::run_round_robin`]).
    pub steals: u64,
    /// Requests submitted with an affinity hint and served on the hinted
    /// lane.
    pub affinity_hits: u64,
    /// Requests submitted with an affinity hint and served elsewhere.
    pub affinity_misses: u64,
}

/// Drives a fleet of pooled engines over many streams and aggregates their
/// statistics — the compile-once, serve-many-users runtime.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use sne::batch::BatchRunner;
/// use sne::compile::CompiledNetwork;
/// use sne::proportionality::stream_with_activity;
/// use sne_model::topology::Topology;
/// use sne_model::Shape;
/// use sne_sim::SneConfig;
///
/// # fn main() -> Result<(), sne::SneError> {
/// let topology = Topology::tiny(Shape::new(2, 8, 8), 4, 3);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let network = CompiledNetwork::random(&topology, &mut rng)?;
/// let mut runner = BatchRunner::new(network, SneConfig::with_slices(2), 3)?;
///
/// let streams: Vec<_> = (0..6)
///     .map(|i| stream_with_activity((2, 8, 8), 16, 0.04, 100 + i))
///     .collect();
/// let report = runner.run(&streams)?;
/// assert_eq!(report.results.len(), 6);
/// assert!(report.aggregate_rate > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchRunner {
    pool: Arc<EnginePool>,
    scheduler: Scheduler,
}

impl BatchRunner {
    /// Compiles-once and opens a pool of `lanes` engines sharing the
    /// compiled artifact, served by a [`Scheduler`] with one worker thread
    /// per engine — the independent SNE instances of the fleet.
    ///
    /// # Errors
    ///
    /// Returns [`SneError::EmptyBatch`] if `lanes` is zero and propagates
    /// artifact construction errors.
    pub fn new(
        network: impl Into<Arc<CompiledNetwork>>,
        config: SneConfig,
        lanes: usize,
    ) -> Result<Self, SneError> {
        let pool = Arc::new(EnginePool::for_network(network, config, lanes)?);
        let scheduler = Scheduler::new(Arc::clone(&pool));
        Ok(Self { pool, scheduler })
    }

    /// Number of pooled engines.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.pool.lanes()
    }

    /// The dynamic scheduler (e.g. to [`Scheduler::call`] it directly from
    /// request threads).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Submits one stream to the dynamic scheduler without waiting; collect
    /// with [`BatchRunner::drain`]. Returns the request id. Accepts an owned
    /// stream or an `Arc` (no event copy for the latter).
    pub fn submit(&mut self, stream: impl Into<Arc<EventStream>>) -> u64 {
        self.scheduler.submit(stream)
    }

    /// Waits for all submitted requests and returns their completion records
    /// in submission order.
    pub fn drain(&mut self) -> Vec<RequestRecord> {
        self.scheduler.drain()
    }

    /// Runs every stream through the dynamic scheduler (submit-all, then
    /// drain) and aggregates the statistics. Placement is dynamic —
    /// least-loaded dispatch plus work stealing — so the stream→engine
    /// mapping varies run to run; every per-stream *result* is nonetheless
    /// bit-identical to the statically pinned
    /// [`BatchRunner::run_round_robin`], in input order, because each
    /// request starts from resting neuron state.
    ///
    /// # Errors
    ///
    /// Propagates the inference error of the lowest-numbered failing stream
    /// (the same error the round-robin runner reports).
    pub fn run(&mut self, streams: &[EventStream]) -> Result<BatchReport, SneError> {
        assert!(
            self.scheduler.outstanding() == 0,
            "drain() incremental submissions before a closed-batch run()"
        );
        let before = self.scheduler.stats();
        let wall_start = Instant::now();
        for stream in streams {
            let _ = self.scheduler.submit(stream.clone());
        }
        let records = self.scheduler.drain();
        let wall_us = wall_start.elapsed().as_secs_f64() * 1e6;
        let after = self.scheduler.stats();

        let mut queue_samples = Vec::with_capacity(records.len());
        let mut service_samples = Vec::with_capacity(records.len());
        let mut lane_busy_us = vec![0.0f64; self.pool.lanes()];
        let mut results = Vec::with_capacity(records.len());
        // Records are in submission order, so the first error is the
        // lowest-numbered failing stream's.
        for record in records {
            queue_samples.push(record.queue_us);
            service_samples.push(record.service_us);
            lane_busy_us[record.lane] += record.service_us;
            results.push(record.result?);
        }
        Ok(assemble_report(
            results,
            self.pool.lanes(),
            &queue_samples,
            &service_samples,
            &lane_busy_us,
            wall_us,
            StealTelemetry {
                steals: after.steals - before.steals,
                affinity_hits: after.affinity_hits - before.affinity_hits,
                affinity_misses: after.affinity_misses - before.affinity_misses,
            },
        ))
    }

    /// The statically pinned runner, kept as the sequential reference
    /// oracle the dynamic scheduler is proven against: stream `i` runs on
    /// lane `i % lanes`, in input order, on the calling thread. Queue-wait
    /// latency is zero by construction.
    ///
    /// The oracle fleet is built fresh from the shared artifact rather than
    /// checked out of the pool — the scheduler's workers own the pool's
    /// engines, and an engine is a deterministic function of the artifact,
    /// so a fresh fleet produces identical results without deadlocking on
    /// ownership.
    ///
    /// # Errors
    ///
    /// Returns the inference error of the lowest-numbered failing stream.
    pub fn run_round_robin(&mut self, streams: &[EventStream]) -> Result<BatchReport, SneError> {
        let wall_start = Instant::now();
        let lanes = self.pool.lanes();
        let mut engines: Vec<PooledEngine> = (0..lanes)
            .map(|lane| PooledEngine::new(lane, self.pool.artifact()))
            .collect();
        let mut results = Vec::with_capacity(streams.len());
        let mut service_samples = Vec::with_capacity(streams.len());
        let mut lane_busy_us = vec![0.0f64; lanes];
        for (i, stream) in streams.iter().enumerate() {
            let service_start = Instant::now();
            results.push(engines[i % lanes].infer(stream)?);
            let service_us = service_start.elapsed().as_secs_f64() * 1e6;
            service_samples.push(service_us);
            lane_busy_us[i % lanes] += service_us;
        }
        let wall_us = wall_start.elapsed().as_secs_f64() * 1e6;
        Ok(assemble_report(
            results,
            lanes,
            &vec![0.0f64; streams.len()],
            &service_samples,
            &lane_busy_us,
            wall_us,
            StealTelemetry::default(),
        ))
    }
}

/// Work-stealing/affinity counters of one batch run (all zero for the
/// statically pinned oracle).
#[derive(Debug, Default)]
struct StealTelemetry {
    steals: u64,
    affinity_hits: u64,
    affinity_misses: u64,
}

/// Builds the aggregated report from per-stream results plus the
/// host-measured latency samples — shared by the dynamic and the round-robin
/// runner so the deterministic (modelled) fields cannot drift apart.
fn assemble_report(
    results: Vec<InferenceResult>,
    lanes: usize,
    queue_samples: &[f64],
    service_samples: &[f64],
    lane_busy_us: &[f64],
    wall_us: f64,
    stealing: StealTelemetry,
) -> BatchReport {
    let mut lane_time_ms = vec![0.0f64; lanes];
    let mut total_stats = CycleStats::new();
    let mut total_energy_uj = 0.0;
    for (i, result) in results.iter().enumerate() {
        lane_time_ms[i % lanes] += result.inference_time_ms;
        total_stats += result.stats;
        total_energy_uj += result.energy.energy_uj;
    }
    let makespan_ms = lane_time_ms.iter().fold(0.0f64, |a, &b| a.max(b));
    let aggregate_rate = if results.is_empty() {
        f64::INFINITY
    } else if makespan_ms > 0.0 {
        results.len() as f64 / (makespan_ms / 1_000.0)
    } else {
        0.0
    };
    let mean_energy_uj = if results.is_empty() {
        0.0
    } else {
        total_energy_uj / results.len() as f64
    };
    let lane_utilization: Vec<f64> = lane_busy_us
        .iter()
        .map(|&busy| {
            if wall_us > 0.0 {
                (busy / wall_us).min(1.0)
            } else {
                0.0
            }
        })
        .collect();
    let busy_mean = lane_busy_us.iter().sum::<f64>() / lanes.max(1) as f64;
    let busy_min = lane_busy_us.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let utilization_spread = if busy_mean > 0.0 {
        (busy_min / busy_mean).min(1.0)
    } else {
        0.0
    };
    BatchReport {
        lanes,
        total_stats,
        total_energy_uj,
        makespan_ms,
        aggregate_rate,
        mean_energy_uj,
        queue_latency: LatencySummary::from_samples_us(queue_samples),
        service_latency: LatencySummary::from_samples_us(service_samples),
        lane_utilization,
        utilization_spread,
        steals: stealing.steals,
        affinity_hits: stealing.affinity_hits,
        affinity_misses: stealing.affinity_misses,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::InferenceSession;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sne_model::topology::Topology;
    use sne_model::Shape;

    fn compiled() -> CompiledNetwork {
        let mut rng = StdRng::seed_from_u64(11);
        CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap()
    }

    fn streams(n: u64) -> Vec<EventStream> {
        (0..n)
            .map(|i| crate::proportionality::stream_with_activity((2, 8, 8), 16, 0.04, 50 + i))
            .collect()
    }

    #[test]
    fn zero_lanes_are_rejected() {
        assert!(matches!(
            BatchRunner::new(compiled(), SneConfig::with_slices(2), 0),
            Err(SneError::EmptyBatch)
        ));
        let artifact =
            Arc::new(RuntimeArtifact::new(compiled(), SneConfig::with_slices(2)).unwrap());
        assert!(matches!(
            EnginePool::new(artifact, 0),
            Err(SneError::EmptyBatch)
        ));
    }

    #[test]
    fn latency_summary_uses_nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let summary = LatencySummary::from_samples_us(&samples);
        assert_eq!(summary.count, 100);
        assert_eq!(summary.p50_us, 50.0);
        assert_eq!(summary.p95_us, 95.0);
        assert_eq!(summary.p99_us, 99.0);
        assert_eq!(summary.max_us, 100.0);
        assert!((summary.mean_us - 50.5).abs() < 1e-12);
        assert_eq!(
            LatencySummary::from_samples_us(&[]),
            LatencySummary::default()
        );
        let single = LatencySummary::from_samples_us(&[7.0]);
        assert_eq!(single.p50_us, 7.0);
        assert_eq!(single.p99_us, 7.0);
    }

    #[test]
    fn pool_checkout_and_checkin_cycle_every_lane() {
        let pool = EnginePool::for_network(compiled(), SneConfig::with_slices(2), 3).unwrap();
        assert_eq!(pool.lanes(), 3);
        assert_eq!(pool.idle_lanes(), 3);
        let a = pool.checkout();
        let b = pool.checkout();
        let c = pool.checkout();
        assert_eq!(pool.idle_lanes(), 0);
        let mut lanes = [a.lane(), b.lane(), c.lane()];
        lanes.sort_unstable();
        assert_eq!(lanes, [0, 1, 2]);
        pool.checkin(a);
        pool.checkin(b);
        pool.checkin(c);
        assert_eq!(pool.idle_lanes(), 3);
        // A checked-out engine serves whole-sample requests from rest.
        let stream = &streams(1)[0];
        let mut engine = pool.checkout();
        let first = engine.infer(stream).unwrap();
        let again = engine.infer(stream).unwrap();
        assert_eq!(first, again);
        pool.checkin(engine);
    }

    #[test]
    fn pooled_engines_serve_parked_client_states() {
        let pool =
            Arc::new(EnginePool::for_network(compiled(), SneConfig::with_slices(2), 2).unwrap());
        let stream = &streams(1)[0];
        let mut reference = InferenceSession::new(
            Arc::clone(pool.artifact().network_arc()),
            SneConfig::with_slices(2),
        )
        .unwrap();

        // Push the chunks through *alternating* engines of the pool; the
        // neuron state lives in the parked ClientState, so the outcome is
        // bit-identical to one dedicated session consuming the same chunks.
        let mut client = pool.artifact().new_client();
        for chunk in stream.chunks(4) {
            let mut engine = pool.checkout();
            let out = engine.push(&mut client, &chunk).unwrap();
            assert_eq!(out, reference.push(&chunk).unwrap());
            // Return and immediately rotate to the other engine.
            pool.checkin(engine);
            let rotate = pool.checkout();
            pool.checkin(rotate);
        }
        assert_eq!(pool.artifact().summary(&client), reference.summary());
    }

    #[test]
    fn scheduler_submit_drain_returns_submission_order() {
        let pool =
            Arc::new(EnginePool::for_network(compiled(), SneConfig::with_slices(2), 3).unwrap());
        let mut scheduler = Scheduler::new(Arc::clone(&pool));
        assert_eq!(scheduler.workers(), 3);
        let streams = streams(7);
        let ids: Vec<u64> = streams
            .iter()
            .map(|s| scheduler.submit(s.clone()))
            .collect();
        let records = scheduler.drain();
        assert_eq!(records.len(), 7);
        assert_eq!(records.iter().map(|r| r.id).collect::<Vec<_>>(), ids);
        for record in &records {
            assert!(record.result.is_ok());
            assert!(record.lane < 3);
            assert!(record.service_us > 0.0);
            assert!(record.queue_us >= 0.0);
        }
        let stats = scheduler.stats();
        assert_eq!(stats.completed, 7);
        assert_eq!(stats.errors, 0);
        // `call` is the synchronous round trip request threads use.
        let record = scheduler.call(streams[0].clone());
        assert!(record.result.is_ok());
        assert_eq!(scheduler.stats().completed, 8);
        assert_eq!(scheduler.pending(), 0);
        scheduler.shutdown();
        assert_eq!(pool.idle_lanes(), 3);
    }

    #[test]
    fn scheduler_shutdown_drains_queued_work() {
        let pool =
            Arc::new(EnginePool::for_network(compiled(), SneConfig::with_slices(2), 1).unwrap());
        let mut scheduler = Scheduler::new(Arc::clone(&pool));
        for stream in streams(5) {
            let _ = scheduler.submit(stream);
        }
        // Shut down FIRST: the backlog must still be finished (graceful
        // drain), its records delivered, and the engine returned.
        scheduler.shutdown();
        assert_eq!(scheduler.stats().completed, 5);
        let collected = scheduler.drain();
        assert_eq!(collected.len(), 5);
        assert!(collected.iter().all(|r| r.result.is_ok()));
        assert_eq!(pool.idle_lanes(), 1);
        // Idempotent.
        scheduler.shutdown();
    }

    #[test]
    fn report_aggregates_per_stream_results() {
        let mut runner = BatchRunner::new(compiled(), SneConfig::with_slices(2), 3).unwrap();
        assert_eq!(runner.lanes(), 3);
        let streams = streams(7);
        let report = runner.run(&streams).unwrap();
        assert_eq!(report.results.len(), 7);
        assert_eq!(report.lanes, 3);
        let cycle_sum: u64 = report.results.iter().map(|r| r.stats.total_cycles).sum();
        assert_eq!(report.total_stats.total_cycles, cycle_sum);
        let energy_sum: f64 = report.results.iter().map(|r| r.energy.energy_uj).sum();
        assert!((report.total_energy_uj - energy_sum).abs() < 1e-9);
        assert!((report.mean_energy_uj - energy_sum / 7.0).abs() < 1e-9);
        // Lane 0 serves streams 0, 3 and 6 under the modelled round-robin
        // placement; the makespan covers at least it.
        let lane0: f64 = [0, 3, 6]
            .iter()
            .map(|&i| report.results[i].inference_time_ms)
            .sum();
        assert!(report.makespan_ms >= lane0 - 1e-9);
        assert!(report.makespan_ms <= report.results.iter().map(|r| r.inference_time_ms).sum());
        assert!(report.aggregate_rate > 0.0);
        // Host-measured serving telemetry.
        assert_eq!(report.service_latency.count, 7);
        assert_eq!(report.queue_latency.count, 7);
        assert!(report.service_latency.p50_us > 0.0);
        assert!(report.service_latency.p99_us >= report.service_latency.p50_us);
        assert_eq!(report.lane_utilization.len(), 3);
        assert!(report
            .lane_utilization
            .iter()
            .all(|&u| (0.0..=1.0).contains(&u)));
        assert!(report.lane_utilization.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn batch_results_match_individual_sessions() {
        let network = Arc::new(compiled());
        let streams = streams(4);
        let mut runner =
            BatchRunner::new(Arc::clone(&network), SneConfig::with_slices(2), 2).unwrap();
        let report = runner.run(&streams).unwrap();
        let mut single = InferenceSession::new(network, SneConfig::with_slices(2)).unwrap();
        for (stream, batched) in streams.iter().zip(&report.results) {
            assert_eq!(&single.infer(stream).unwrap(), batched);
        }
        // Engines are reusable across batches; the deterministic fields of
        // the report are stable (only host latencies vary run to run).
        let again = runner.run(&streams).unwrap();
        assert_eq!(report.results, again.results);
        assert_eq!(report.total_stats, again.total_stats);
        assert!((report.makespan_ms - again.makespan_ms).abs() < 1e-12);
    }

    #[test]
    fn dynamic_run_matches_the_round_robin_oracle() {
        let network = Arc::new(compiled());
        let streams = streams(9);
        let mut runner =
            BatchRunner::new(Arc::clone(&network), SneConfig::with_slices(2), 3).unwrap();
        let reference = runner.run_round_robin(&streams).unwrap();
        assert_eq!(reference.queue_latency.p99_us, 0.0);
        let dynamic = runner.run(&streams).unwrap();
        assert_eq!(dynamic.results, reference.results);
        assert_eq!(dynamic.total_stats, reference.total_stats);
        assert_eq!(dynamic.lanes, reference.lanes);
        assert!((dynamic.makespan_ms - reference.makespan_ms).abs() < 1e-12);
        assert!((dynamic.total_energy_uj - reference.total_energy_uj).abs() < 1e-12);
    }

    #[test]
    fn threaded_lanes_produce_a_bit_identical_report() {
        // One worker thread per lane: a wider fleet serves the same streams
        // on more threads, with the per-stream results of one lane.
        let network = Arc::new(compiled());
        let streams = streams(9);
        let mut single =
            BatchRunner::new(Arc::clone(&network), SneConfig::with_slices(2), 1).unwrap();
        let reference = single.run(&streams).unwrap();
        for lanes in [2usize, 3, 8] {
            let mut fleet =
                BatchRunner::new(Arc::clone(&network), SneConfig::with_slices(2), lanes).unwrap();
            assert_eq!(fleet.scheduler().workers(), lanes);
            let report = fleet.run(&streams).unwrap();
            assert_eq!(report.lanes, lanes);
            assert_eq!(report.results, reference.results, "lanes = {lanes}");
            assert_eq!(report.total_stats, reference.total_stats);
            assert!((report.total_energy_uj - reference.total_energy_uj).abs() < 1e-12);
            assert!(report.makespan_ms <= reference.makespan_ms + 1e-12);
        }
    }

    #[test]
    fn threaded_error_reporting_matches_the_sequential_choice() {
        let network = compiled();
        let mut streams = streams(6);
        // Streams 2 and 5 are malformed (wrong geometry).
        streams[2] = EventStream::new(16, 16, 2, 8);
        streams[5] = EventStream::new(4, 4, 1, 8);
        let mut single = BatchRunner::new(network.clone(), SneConfig::with_slices(2), 1).unwrap();
        let expected = single.run(&streams).unwrap_err();
        assert_eq!(single.run_round_robin(&streams).unwrap_err(), expected);
        let mut fleet = BatchRunner::new(network, SneConfig::with_slices(2), 3).unwrap();
        assert_eq!(fleet.run(&streams).unwrap_err(), expected);
        assert_eq!(fleet.run_round_robin(&streams).unwrap_err(), expected);
    }

    #[test]
    fn empty_batches_produce_an_empty_report() {
        let mut runner = BatchRunner::new(compiled(), SneConfig::with_slices(2), 2).unwrap();
        let report = runner.run(&[]).unwrap();
        assert!(report.results.is_empty());
        assert_eq!(report.total_stats.total_cycles, 0);
        assert_eq!(report.mean_energy_uj, 0.0);
        assert!(report.aggregate_rate.is_infinite());
        assert_eq!(report.service_latency, LatencySummary::default());
        assert_eq!(report.lane_utilization, vec![0.0, 0.0]);
        assert_eq!(report.utilization_spread, 0.0);
        assert_eq!(report.steals, 0);
        // One worker per lane owns every engine for the scheduler's
        // lifetime.
        assert_eq!(runner.pool.idle_lanes(), 0);
        let pool = Arc::clone(&runner.pool);
        drop(runner);
        assert_eq!(pool.idle_lanes(), 2);
    }

    fn dummy_job(id: u64) -> Job {
        Job {
            id,
            enqueued: Instant::now(),
            affinity: None,
            kind: JobKind::Infer {
                stream: Arc::new(EventStream::new(8, 8, 2, 8)),
                reply: Box::new(drop),
            },
        }
    }

    #[test]
    fn one_queue_serves_arrival_order_and_a_thief_takes_the_newest_job() {
        // One worker, parked inside the first job's reply until released, so
        // everything below queues behind it in a known order.
        let pool =
            Arc::new(EnginePool::for_network(compiled(), SneConfig::with_slices(2), 1).unwrap());
        let mut scheduler = Scheduler::new(pool);
        let stream = Arc::new(streams(1).remove(0));
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        scheduler.call_async(Arc::clone(&stream), None, move |_| {
            entered_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        entered_rx.recv().unwrap();
        // Submitted and called jobs share one queue: a called job's reply
        // sees the completion count including itself, so it tells how many
        // jobs were served up to and including it.
        let (seen_tx, seen_rx) = mpsc::channel();
        for _ in 0..2 {
            let _ = scheduler.submit(Arc::clone(&stream));
            let shared = Arc::clone(&scheduler.shared);
            let seen_tx = seen_tx.clone();
            scheduler.call_async(Arc::clone(&stream), None, move |record| {
                let completed = shared.completed.load(Ordering::Relaxed);
                seen_tx.send((record.id, completed)).unwrap();
            });
        }
        release_tx.send(()).unwrap();
        let submitted: Vec<u64> = scheduler.drain().iter().map(|r| r.id).collect();
        assert_eq!(submitted, vec![1, 3]);
        // Calls 2 and 4 were served third and fifth: each right behind the
        // job submitted before it, none ahead of it.
        let called: Vec<(u64, u64)> = seen_rx.iter().take(2).collect();
        assert_eq!(called, vec![(2, 3), (4, 5)]);

        // A thief takes the victim's newest job and, while the scheduler is
        // open, leaves the last one to its owner.
        let mut state = SchedState {
            queues: vec![(0..4).map(dummy_job).collect(), VecDeque::new()],
            closed: false,
            rr_cursor: 0,
        };
        let stolen: Vec<u64> = std::iter::from_fn(|| state.steal_for(1))
            .map(|job| job.id)
            .collect();
        assert_eq!(stolen, vec![3, 2, 1]);
        assert_eq!(state.queues[0].pop_front().map(|job| job.id), Some(0));
    }
}
