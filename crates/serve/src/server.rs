//! The serving front-end: sharded nonblocking reactors multiplexing every
//! connection, model registry, session table, admission control, stats,
//! graceful shutdown.
//!
//! ## Architecture (DESIGN.md §13, §15)
//!
//! N independent reactor shards (default one per core, see
//! [`ServerBuilder::reactor_shards`]) each own a [`Poller`] (epoll on
//! Linux), a token slab, and a timer wheel; inference never runs on them.
//! Shard 0 additionally owns the listener: it accepts and hands each fresh
//! socket to the least-loaded shard through that shard's handoff inbox +
//! waker (or adopts it itself). A connection lives its whole life on one
//! shard — keep-alive parking, streaming pushes, and deadlines never cross
//! reactors — while the session table stays global, so a session is still
//! reachable from any connection.
//!
//! A complete request is either answered inline (stats, health, session
//! close) or **dispatched**: admission-checked against a bounded in-flight
//! budget per model, then handed to the model's work-stealing [`Scheduler`]
//! via its nonblocking `call_async`/`call_push_async` entry points. The
//! serving worker thread finishes the inference and ships the **raw
//! result** onto its shard's completion queue (off-worker serialization:
//! JSON/HTTP rendering happens on the reactor at delivery time, so the
//! engine-holding thread returns to compute immediately), then wakes that
//! shard, which writes the response out with backpressure (partial writes
//! park the connection on write interest). Connections are HTTP/1.1
//! **keep-alive** by default, so a streaming client's chunk sequence reuses
//! one connection instead of paying connect + teardown per push; parked
//! idle connections cost nothing but their descriptor — the kernel only
//! reports ready ones.
//!
//! Deadlines live on each shard's timer wheel: a connection mid-request
//! must deliver the complete request within the read deadline (slow-loris
//! eviction with a best-effort 408), a parked keep-alive connection is
//! closed after the keep-alive timeout, and a partially flushed response
//! must make write progress within the read deadline (write-stall guard —
//! a peer that stops reading is reaped, not waited on). While a request is
//! dispatched no deadline runs — service time is the engine's business.
//!
//! Load shedding: once a model's in-flight budget is exhausted, new work is
//! answered `429 Too Many Requests` with a `Retry-After` header instead of
//! queueing without bound — the accept loop never stalls behind inference.
//!
//! ## Durability (DESIGN.md §14)
//!
//! Streaming sessions live in one session table, which owns their warm
//! (in-memory) and cold (on-disk) tiers. With
//! [`ServerBuilder::durable_store`] every acknowledged push has parked a
//! digest-checked snapshot first (a push whose park fails is answered 503
//! and not applied), idle sessions are demoted to disk at capacity and
//! faulted back in bit-identically, and a restart — even after `kill -9` —
//! adopts every parked session.
//!
//! Every response carries an `X-Request-Id` (echoed from the request when
//! the client sent one, generated otherwise); per-route counters and a ring
//! of recent request records are served from `GET /v1/stats`, and
//! `GET /healthz` answers from the reactor alone.
//!
//! ## Endpoints
//!
//! | Route | Body | Effect |
//! |---|---|---|
//! | `POST /v1/infer` | `{"model","timesteps","events":[[t,ch,x,y],..]}` | one whole-sample inference |
//! | `POST /v1/stream/{id}/push` | same (`model` required on first push) | stream one chunk; neuron state survives between requests |
//! | `POST /v1/stream/{id}/close` | — | remove the session, return its accumulated summary |
//! | `GET /v1/stats` | — | throughput, latency percentiles, per-model and per-route counters |
//! | `GET /healthz` | — | liveness: `{"status":"ok",...}` |
//!
//! Errors are `{"error": "..."}` with 400 (bad request), 404 (unknown
//! model/session/route), 405 (wrong method), 408 (read deadline), 409
//! (session busy), 429 (shed) or 503 (capacity, failed write-ahead park).
//!
//! ## Graceful shutdown
//!
//! [`Server::shutdown`] stops accepting, closes parked idle connections,
//! and drains every in-flight request — dispatched work completes and its
//! response is flushed before the reactor exits.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sne::artifact::RuntimeArtifact;
use sne::batch::{EnginePool, LatencySummary, Scheduler};
use sne::compile::CompiledNetwork;
use sne::run::InferenceResult;
use sne::session::ChunkOutput;
use sne::SneError;
use sne_event::{Event, EventStream};
use sne_sim::{ExecStrategy, SneConfig};
use sne_store::FsyncPolicy;

use crate::http::{append_response, format_response, Request, RequestParser};
use crate::json::Json;
use crate::reactor::{Interest, PollEvent, Poller, TimerEntry, TimerWheel, WakePipe, Waker};
use crate::sessions::{SessionError, SessionTable};

pub use crate::sessions::DurabilityStats;

/// Upper bound on one request's timestep window. It bounds the per-timestep
/// bookkeeping (and engine loop) a single request can trigger — the
/// body-size cap alone would not, since `{"timesteps": 4294967295,
/// "events": []}` is a tiny body.
pub const MAX_REQUEST_TIMESTEPS: u64 = 1 << 16;

/// Default bound on concurrently warm (in-memory) streaming sessions
/// (override with [`ServerBuilder::session_capacity`]). Beyond it a new
/// session is refused with 503 — or, with a durable store configured, the
/// least-recently-used parked session is demoted to the disk tier instead.
pub const MAX_STREAM_SESSIONS: usize = 1024;

/// Default bound on concurrently open connections (override with
/// [`ServerBuilder::max_connections`]). A connection is one slab slot and
/// one descriptor — not a thread — so the reactor holds thousands of
/// parked keep-alive sessions comfortably; beyond the cap a fresh
/// connection is answered 503 and closed.
pub const MAX_CONNECTIONS: usize = 8192;

/// Default per-model admission budget: dispatched requests in flight
/// (queued + executing) before new ones are shed with 429 (override with
/// [`ServerBuilder::admission_limit`]).
pub const ADMISSION_LIMIT: usize = 256;

/// Cap on the automatic reactor-shard count ([`ServerBuilder::reactor_shards`]
/// left at the default, or set to 0): one event loop per core up to this
/// many — beyond ~8 shards the bound is engine lanes, not socket
/// multiplexing. An explicit count is honored up to [`MAX_REACTOR_SHARDS`].
pub const AUTO_REACTOR_SHARDS_CAP: usize = 8;

/// Hard bound on explicitly requested reactor shards (each shard is one
/// thread).
pub const MAX_REACTOR_SHARDS: usize = 64;

/// Entries kept in the recent-request ring served by `/v1/stats`.
const REQUEST_LOG_CAPACITY: usize = 64;

/// Extra time given to not-yet-parked connections at shutdown to deliver
/// their in-flight request before the reactor closes them.
const SHUTDOWN_DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Reactor read scratch size.
const SCRATCH_BYTES: usize = 16 * 1024;

/// Locks `m`, recovering the data if a previous holder panicked. Every
/// structure behind the server's mutexes is kept coherent across each
/// individual mutation (map insert/remove, queue push, ring rotation), so
/// a poisoned guard's contents are still usable — and a serving front-end
/// must keep answering after one panicked request rather than convert
/// every subsequent request into a cascading panic.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One registered model: its engine pool, the work-stealing scheduler
/// whose workers own the pool's engines, admission bookkeeping and request
/// counters.
#[derive(Debug)]
struct ModelEntry {
    pool: Arc<EnginePool>,
    scheduler: Scheduler,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Dispatched requests in flight (admission-queue occupancy).
    inflight: AtomicU64,
    /// Requests shed with 429 because the admission budget was exhausted.
    shed: AtomicU64,
}

/// Per-route request/error counters (an error is any response ≥ 400).
#[derive(Debug, Default)]
struct RouteCounter {
    requests: AtomicU64,
    errors: AtomicU64,
}

impl RouteCounter {
    fn hit(&self, status: u16) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn json(&self) -> Json {
        Json::obj(vec![
            (
                "requests",
                Json::from(self.requests.load(Ordering::Relaxed)),
            ),
            ("errors", Json::from(self.errors.load(Ordering::Relaxed))),
        ])
    }
}

#[derive(Debug, Default)]
struct RouteCounters {
    infer: RouteCounter,
    stream_push: RouteCounter,
    stream_close: RouteCounter,
    stats: RouteCounter,
    healthz: RouteCounter,
    other: RouteCounter,
}

impl RouteCounters {
    fn counter(&self, route: &'static str) -> &RouteCounter {
        match route {
            "infer" => &self.infer,
            "stream_push" => &self.stream_push,
            "stream_close" => &self.stream_close,
            "stats" => &self.stats,
            "healthz" => &self.healthz,
            _ => &self.other,
        }
    }
}

/// Samples kept per latency series of the [`LatencyRecorder`] (oldest
/// evicted first).
const RECORDER_WINDOW: usize = 4096;

/// Request totals plus a bounded window of recent queue-wait and service
/// latencies, for `/v1/stats`. Every engine-served request is recorded
/// once, by its completion callback.
#[derive(Debug, Default)]
struct LatencyRecorder {
    inner: Mutex<RecorderInner>,
}

#[derive(Debug, Default)]
struct RecorderInner {
    completed: u64,
    errors: u64,
    queue_us: std::collections::VecDeque<f64>,
    service_us: std::collections::VecDeque<f64>,
}

/// A [`LatencyRecorder`] snapshot: totals and the window's percentiles.
struct RecorderStats {
    completed: u64,
    errors: u64,
    queue: LatencySummary,
    service: LatencySummary,
}

impl LatencyRecorder {
    /// Records one completed request.
    fn record(&self, queue_us: f64, service_us: f64, is_error: bool) {
        let mut guard = lock_clean(&self.inner);
        let inner = &mut *guard;
        inner.completed += 1;
        inner.errors += u64::from(is_error);
        for (series, sample) in [
            (&mut inner.queue_us, queue_us),
            (&mut inner.service_us, service_us),
        ] {
            if series.len() == RECORDER_WINDOW {
                series.pop_front();
            }
            series.push_back(sample);
        }
    }

    fn stats(&self) -> RecorderStats {
        let inner = lock_clean(&self.inner);
        let summary = |series: &std::collections::VecDeque<f64>| {
            LatencySummary::from_samples_us(&series.iter().copied().collect::<Vec<_>>())
        };
        RecorderStats {
            completed: inner.completed,
            errors: inner.errors,
            queue: summary(&inner.queue_us),
            service: summary(&inner.service_us),
        }
    }
}

/// One recent request, kept in a bounded ring for `/v1/stats` — the
/// request-id is how a latency record is tied back to a specific request.
#[derive(Debug, Clone)]
struct RequestLog {
    id: String,
    route: &'static str,
    status: u16,
    queue_us: f64,
    service_us: f64,
}

/// A finished request traveling from a scheduler worker thread back to its
/// connection's reactor shard: the **raw** inference output plus the
/// connection's identity (shard + token + generation — a recycled slot
/// fails the generation check and the response is dropped, never delivered
/// to a stranger). The worker ships data, not bytes: JSON/HTTP rendering
/// happens on the reactor at delivery time (off-worker serialization), so
/// the engine-holding thread takes its next job immediately.
#[derive(Debug)]
struct Completion {
    shard: usize,
    token: usize,
    gen: u64,
    route: &'static str,
    status: u16,
    request_id: String,
    keep_alive: bool,
    queue_us: f64,
    service_us: f64,
    body: ResponseBody,
}

/// What the reactor renders into the response body when it delivers a
/// [`Completion`].
#[derive(Debug)]
enum ResponseBody {
    /// Already-final JSON (error bodies — cheap to format anywhere).
    Ready(String),
    /// A one-shot inference result, rendered via [`result_members`].
    Infer {
        model: String,
        result: InferenceResult,
        lane: usize,
    },
    /// A streaming push's chunk output.
    Push {
        session: String,
        model: String,
        output: ChunkOutput,
        chunks_pushed: u64,
        lane: usize,
    },
}

impl ResponseBody {
    /// Renders the body JSON — on the reactor thread, never on an
    /// engine-holding worker.
    fn render(self, queue_us: f64, service_us: f64, request_id: &str) -> String {
        match self {
            Self::Ready(body) => body,
            Self::Infer {
                model,
                result,
                lane,
            } => {
                let mut members = result_members(&model, &result);
                members.push(("lane", Json::from(lane)));
                members.push(("queue_us", Json::from(queue_us)));
                members.push(("service_us", Json::from(service_us)));
                members.push(("request_id", Json::from(request_id)));
                Json::obj(members).to_string()
            }
            Self::Push {
                session,
                model,
                output,
                chunks_pushed,
                lane,
            } => {
                let ChunkOutput {
                    output,
                    stats,
                    start_timestep,
                    timesteps,
                } = output;
                Json::obj(vec![
                    ("session", Json::from(session.as_str())),
                    ("model", Json::from(model.as_str())),
                    ("start_timestep", Json::from(u64::from(start_timestep))),
                    ("timesteps", Json::from(u64::from(timesteps))),
                    ("chunks_pushed", Json::from(chunks_pushed)),
                    ("total_cycles", Json::from(stats.total_cycles)),
                    ("events", events_json(&output)),
                    ("lane", Json::from(lane)),
                    ("queue_us", Json::from(queue_us)),
                    ("service_us", Json::from(service_us)),
                    ("request_id", Json::from(request_id)),
                ])
                .to_string()
            }
        }
    }
}

/// One reactor shard's cross-thread surface: the completion queue its
/// workers' callbacks fill, the handoff inbox the acceptor shard feeds,
/// the waker that interrupts its poll, and the per-shard counters served
/// under `"shards"` in `/v1/stats`.
#[derive(Debug)]
struct ShardHandle {
    completions: Mutex<Vec<Completion>>,
    handoff: Mutex<Vec<TcpStream>>,
    waker: Waker,
    /// Connections ever placed on this shard.
    accepted: AtomicU64,
    /// Connections currently open on this shard. Counted from the moment
    /// the acceptor assigns the socket — before adoption — so a burst of
    /// accepts spreads by real load instead of piling onto a shard whose
    /// handoff wakeup has not run yet.
    open: AtomicUsize,
    /// Connections evicted by this shard's read-deadline timer.
    evictions: AtomicU64,
}

/// Tunables fixed at server start.
#[derive(Debug, Clone, Copy)]
struct ServerConfig {
    read_deadline: Duration,
    keepalive_timeout: Duration,
    max_connections: usize,
    admission_limit: usize,
    retry_after_s: u64,
    session_capacity: usize,
}

#[derive(Debug)]
struct ServerShared {
    /// Registration order preserved for `/v1/stats`.
    models: Vec<(String, ModelEntry)>,
    sessions: SessionTable,
    recorder: LatencyRecorder,
    routes: RouteCounters,
    request_log: Mutex<std::collections::VecDeque<RequestLog>>,
    next_request_id: AtomicU64,
    started: Instant,
    shutting_down: AtomicBool,
    /// One handle per reactor shard; `Completion::shard` indexes here.
    shards: Vec<ShardHandle>,
    config: ServerConfig,
}

impl ServerShared {
    fn log_request(
        &self,
        id: &str,
        route: &'static str,
        status: u16,
        queue_us: f64,
        service_us: f64,
    ) {
        self.routes.counter(route).hit(status);
        let mut log = lock_clean(&self.request_log);
        if log.len() == REQUEST_LOG_CAPACITY {
            log.pop_front();
        }
        log.push_back(RequestLog {
            id: id.to_owned(),
            route,
            status,
            queue_us,
            service_us,
        });
    }

    /// Queues a finished response for its connection's shard and wakes that
    /// shard's reactor.
    fn complete(&self, completion: Completion) {
        let shard = &self.shards[completion.shard];
        lock_clean(&shard.completions).push(completion);
        shard.waker.wake();
    }

    /// Wakes every shard (the shutdown broadcast).
    fn wake_all(&self) {
        for shard in &self.shards {
            shard.waker.wake();
        }
    }

    /// Open connections over every shard (including parked keep-alive ones
    /// and handed-off sockets awaiting adoption).
    fn open_connections(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.open.load(Ordering::Relaxed))
            .sum()
    }

    /// Slow-loris evictions over every shard.
    fn evictions_total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.evictions.load(Ordering::Relaxed))
            .sum()
    }
}

/// Configures the models and limits a [`Server`] exposes, then starts it.
#[derive(Debug)]
pub struct ServerBuilder {
    models: Vec<(String, Arc<EnginePool>)>,
    config: ServerConfig,
    store_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
    /// Requested reactor shard count; 0 = automatic (one per core, capped
    /// at [`AUTO_REACTOR_SHARDS_CAP`]).
    shards: usize,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        Self {
            models: Vec::new(),
            config: ServerConfig {
                read_deadline: crate::http::READ_TIMEOUT,
                keepalive_timeout: crate::http::KEEPALIVE_TIMEOUT,
                max_connections: MAX_CONNECTIONS,
                admission_limit: ADMISSION_LIMIT,
                retry_after_s: 1,
                session_capacity: MAX_STREAM_SESSIONS,
            },
            store_dir: None,
            fsync: FsyncPolicy::default(),
            shards: 0,
        }
    }
}

impl ServerBuilder {
    /// An empty registry with default limits.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles `network` under `config` and registers it as `name`, backed
    /// by a pool of `lanes` engines (`engine_exec` is each engine's
    /// per-slice fan-out). Registering the same name twice replaces the
    /// earlier pool.
    ///
    /// # Errors
    ///
    /// Propagates artifact/pool construction errors.
    pub fn register(
        mut self,
        name: &str,
        network: impl Into<Arc<CompiledNetwork>>,
        config: SneConfig,
        lanes: usize,
        engine_exec: ExecStrategy,
    ) -> Result<Self, SneError> {
        let pool = EnginePool::for_network(network, config, lanes, engine_exec)?;
        self.models.retain(|(n, _)| n != name);
        self.models.push((name.to_owned(), Arc::new(pool)));
        Ok(self)
    }

    /// Bound on how long a connection may take to deliver one complete
    /// request once its first byte arrived (the slow-loris guard; default
    /// [`crate::http::READ_TIMEOUT`]).
    #[must_use]
    pub fn read_deadline(mut self, deadline: Duration) -> Self {
        self.config.read_deadline = deadline;
        self
    }

    /// Bound on how long a parked keep-alive connection may idle between
    /// requests (default [`crate::http::KEEPALIVE_TIMEOUT`]).
    #[must_use]
    pub fn keepalive_timeout(mut self, timeout: Duration) -> Self {
        self.config.keepalive_timeout = timeout;
        self
    }

    /// Bound on concurrently open connections (default
    /// [`MAX_CONNECTIONS`]); beyond it fresh connections get 503.
    #[must_use]
    pub fn max_connections(mut self, cap: usize) -> Self {
        self.config.max_connections = cap.max(1);
        self
    }

    /// Per-model admission budget: dispatched requests in flight before new
    /// ones are shed with 429 (default [`ADMISSION_LIMIT`]).
    #[must_use]
    pub fn admission_limit(mut self, limit: usize) -> Self {
        self.config.admission_limit = limit.max(1);
        self
    }

    /// `Retry-After` seconds advertised on shed (429) responses (default 1).
    #[must_use]
    pub fn retry_after_secs(mut self, seconds: u64) -> Self {
        self.config.retry_after_s = seconds;
        self
    }

    /// Bound on concurrently warm (in-memory) streaming sessions (default
    /// [`MAX_STREAM_SESSIONS`]). Beyond it a new session is refused with
    /// 503 — or, with [`ServerBuilder::durable_store`], the
    /// least-recently-used parked session is demoted to disk instead.
    #[must_use]
    pub fn session_capacity(mut self, cap: usize) -> Self {
        self.config.session_capacity = cap.max(1);
        self
    }

    /// Backs the session table with a durable snapshot store in `dir`
    /// (created if absent). Every successful push parks a digest-checked
    /// snapshot of the session there; [`ServerBuilder::start`] scans the
    /// directory and adopts surviving sessions into the cold tier, so
    /// parked sessions outlive a crash.
    #[must_use]
    pub fn durable_store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Number of independent reactor shards (event-loop threads) the server
    /// runs. `0` — the default — selects one per available core, capped at
    /// [`AUTO_REACTOR_SHARDS_CAP`]; an explicit count is clamped to
    /// `1..=`[`MAX_REACTOR_SHARDS`]. Shard 0 owns the listener and hands
    /// each accepted socket to the least-loaded shard; a connection then
    /// lives its whole life on that shard (shard-sticky), so keep-alive and
    /// streaming state never migrate between reactors.
    #[must_use]
    pub fn reactor_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// How eagerly the store flushes snapshot and journal writes (default
    /// [`FsyncPolicy::Always`]). [`FsyncPolicy::Never`] trades the
    /// power-loss guarantee for write latency — crash-consistency against
    /// process death (`kill -9`) is retained either way, since the rename
    /// commit point is atomic regardless.
    #[must_use]
    pub fn fsync_policy(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and starts the reactor shards.
    ///
    /// # Errors
    ///
    /// Propagates bind/poller-creation/thread-spawn failures.
    pub fn start(self, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shard_count = match self.shards {
            0 => std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(AUTO_REACTOR_SHARDS_CAP),
            n => n.min(MAX_REACTOR_SHARDS),
        };
        let mut pipes = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            pipes.push((WakePipe::new()?, Poller::new()?));
        }
        let shards: Vec<ShardHandle> = pipes
            .iter()
            .map(|(pipe, _)| ShardHandle {
                completions: Mutex::new(Vec::new()),
                handoff: Mutex::new(Vec::new()),
                waker: pipe.waker(),
                accepted: AtomicU64::new(0),
                open: AtomicUsize::new(0),
                evictions: AtomicU64::new(0),
            })
            .collect();
        let config = self.config;
        let models: Vec<(String, ModelEntry)> = self
            .models
            .into_iter()
            .map(|(name, pool)| {
                // One worker per engine: the whole fleet serves. The
                // pool's engines must be free here (the scheduler's
                // workers check them out for the server's lifetime).
                let scheduler = Scheduler::new(Arc::clone(&pool), pool.lanes());
                (
                    name,
                    ModelEntry {
                        pool,
                        scheduler,
                        requests: AtomicU64::new(0),
                        errors: AtomicU64::new(0),
                        inflight: AtomicU64::new(0),
                        shed: AtomicU64::new(0),
                    },
                )
            })
            .collect();
        let artifacts = models
            .iter()
            .map(|(name, entry)| (name.clone(), Arc::clone(entry.pool.artifact())))
            .collect();
        let mut sessions = SessionTable::new(artifacts, config.session_capacity);
        if let Some(dir) = self.store_dir {
            sessions.adopt(dir, self.fsync)?;
        }
        let shared = Arc::new(ServerShared {
            models,
            sessions,
            recorder: LatencyRecorder::default(),
            routes: RouteCounters::default(),
            request_log: Mutex::new(std::collections::VecDeque::new()),
            next_request_id: AtomicU64::new(1),
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            shards,
            config,
        });
        let mut listener = Some(listener);
        let mut handles = Vec::with_capacity(shard_count);
        for (index, (pipe, poller)) in pipes.into_iter().enumerate() {
            // Shard 0 is the acceptor: it owns the listener and distributes
            // accepted sockets to the least-loaded shard.
            let shard_listener = if index == 0 { listener.take() } else { None };
            let reactor_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("sne-reactor-{index}"))
                .spawn(move || {
                    Reactor::new(index, shard_listener, pipe, poller, reactor_shared).run();
                });
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Unwind the shards already running before reporting.
                    shared.shutting_down.store(true, Ordering::SeqCst);
                    shared.wake_all();
                    for handle in handles {
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Server {
            addr,
            shared,
            reactor_handles: handles,
        })
    }
}

/// A running serving front-end. Dropping it (or calling
/// [`Server::shutdown`]) stops accepting and drains in-flight requests.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    reactor_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// The bound address (with the resolved port when started on port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of warm (in-memory) streaming sessions.
    #[must_use]
    pub fn active_streams(&self) -> usize {
        self.shared.sessions.stats().warm
    }

    /// Number of cold (parked-to-disk) streaming sessions.
    #[must_use]
    pub fn cold_sessions(&self) -> usize {
        self.shared.sessions.stats().cold
    }

    /// Durability counters, when the server was started with
    /// [`ServerBuilder::durable_store`].
    #[must_use]
    pub fn durability(&self) -> Option<DurabilityStats> {
        self.shared.sessions.stats().durability
    }

    /// Currently open connections (including parked keep-alive ones),
    /// summed over every reactor shard.
    #[must_use]
    pub fn open_connections(&self) -> usize {
        self.shared.open_connections()
    }

    /// Number of reactor shards serving this server.
    #[must_use]
    pub fn reactor_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Graceful shutdown: stop accepting, close parked idle connections,
    /// then wait for every in-flight request to complete and flush its
    /// response. Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.close_and_drain();
    }

    fn close_and_drain(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        for handle in self.reactor_handles.drain(..) {
            handle.join().expect("reactor thread panicked");
        }
        // Dropping `shared`'s last strong references later drains the
        // per-model schedulers (graceful drain-first worker shutdown).
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_drain();
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

const LISTENER_TOKEN: usize = usize::MAX;
const WAKE_TOKEN: usize = usize::MAX - 1;

/// One connection's state. The state machine is: read bytes → parser →
/// complete request → inline answer or dispatch → response bytes in `out` →
/// flushed → parked (keep-alive) or closed.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Slot generation at insert; completions and timers carrying an older
    /// generation are stale.
    gen: u64,
    parser: RequestParser,
    out: Vec<u8>,
    out_pos: usize,
    /// Disposition once `out` is flushed.
    keep_alive_after: bool,
    /// A scheduler job is in flight for this connection.
    dispatched: bool,
    /// Peer half-closed its sending side (EOF seen).
    read_closed: bool,
    /// The read deadline armed when the current request's first byte
    /// arrived (false while parked between requests).
    request_started: bool,
    /// Requests completed on this connection.
    served: u64,
    /// Identity of the currently armed timer (0 = none); stale wheel
    /// entries fail this comparison and are ignored.
    arm_id: u64,
    /// Interest currently registered with the poller (None = deregistered).
    registered: Option<Interest>,
}

#[derive(Debug)]
struct Slot {
    gen: u64,
    conn: Option<Conn>,
}

struct Reactor {
    /// This reactor's index into [`ServerShared::shards`].
    shard: usize,
    /// `Some` only on the acceptor shard (shard 0).
    listener: Option<TcpListener>,
    wake: WakePipe,
    poller: Poller,
    shared: Arc<ServerShared>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    open: usize,
    wheel: TimerWheel,
    next_arm: u64,
    scratch: Vec<u8>,
    /// Rotating tiebreak for least-loaded accept placement: among equally
    /// loaded shards, placement cycles instead of piling onto the lowest
    /// index.
    accept_rr: usize,
}

impl Reactor {
    fn new(
        shard: usize,
        listener: Option<TcpListener>,
        wake: WakePipe,
        poller: Poller,
        shared: Arc<ServerShared>,
    ) -> Self {
        let config = shared.config;
        // Tick ≈ deadline/8 keeps eviction latency within ~12% of the
        // configured deadline while bounding wheel sweeps.
        let granularity =
            (config.read_deadline / 8).clamp(Duration::from_millis(5), Duration::from_millis(100));
        let horizon = config.read_deadline.max(config.keepalive_timeout);
        Self {
            shard,
            listener,
            wake,
            poller,
            shared,
            slots: Vec::new(),
            free: Vec::new(),
            open: 0,
            wheel: TimerWheel::new(granularity, horizon),
            next_arm: 0,
            scratch: vec![0u8; SCRATCH_BYTES],
            accept_rr: 0,
        }
    }

    fn run(mut self) {
        if let Some(listener) = &self.listener {
            if self
                .poller
                .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                .is_err()
            {
                return;
            }
        }
        if self
            .poller
            .register(self.wake.fd(), WAKE_TOKEN, Interest::READ)
            .is_err()
        {
            return;
        }
        let mut events: Vec<PollEvent> = Vec::new();
        let mut expired: Vec<TimerEntry> = Vec::new();
        let mut shutdown_seen = false;
        loop {
            let now = Instant::now();
            let timeout = self.wheel.next_timeout(now);
            if self.poller.wait(&mut events, timeout).is_err() {
                // Unrecoverable poller failure: tear everything down.
                break;
            }
            let drained_events = std::mem::take(&mut events);
            for event in &drained_events {
                match event.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.wake.drain(),
                    token => self.conn_ready(token, event),
                }
            }
            events = drained_events;
            self.adopt_handoffs();
            self.deliver_completions();
            let now = Instant::now();
            expired.clear();
            self.wheel.advance(now, &mut expired);
            for entry in &expired {
                self.timer_fired(entry);
            }
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                if !shutdown_seen {
                    shutdown_seen = true;
                    self.begin_shutdown();
                }
                if self.open == 0 {
                    break;
                }
            }
        }
        // A handed-off socket this shard never adopted still holds a slot
        // on the gauge; release it as the stream drops.
        let mut inbox = lock_clean(&self.shared.shards[self.shard].handoff);
        for stream in inbox.drain(..) {
            drop(stream);
            self.shared.shards[self.shard]
                .open
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Shutdown phase 1: stop accepting, close parked idle connections, and
    /// give not-yet-complete requests — and not-yet-drained responses — a
    /// short drain grace.
    fn begin_shutdown(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        let now = Instant::now();
        for token in 0..self.slots.len() {
            let Some(conn) = &self.slots[token].conn else {
                continue;
            };
            let mid_request = conn.parser.mid_request();
            let pending_out = conn.out_pos < conn.out.len();
            let parked_idle = !conn.dispatched && !mid_request && !pending_out && conn.served > 0;
            let silent_fresh = !conn.dispatched && !mid_request && conn.served == 0;
            if parked_idle {
                self.close_conn(token);
            } else if pending_out || silent_fresh || mid_request {
                // Connections still owed a request — or still owed response
                // bytes the peer has not drained — get a bounded grace; a
                // silent sender or stalled reader cannot stall shutdown
                // forever. (The write-stall guard armed when the flush
                // parked may be far out; this shortens it.) Dispatched
                // requests keep no deadline: their inference completes, and
                // the completion flush arms the drain-bounded guard above.
                let deadline = now + self.shared.config.read_deadline.min(SHUTDOWN_DRAIN_GRACE);
                self.arm_deadline(token, deadline);
            }
        }
    }

    // -- connection lifecycle ------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => self.place_connection(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Transient accept failure (e.g. aborted handshake): keep
                // accepting.
                Err(_) => {}
            }
        }
    }

    /// Places a freshly accepted socket (acceptor shard only): global
    /// capacity check, then the least-loaded shard with a rotating
    /// tiebreak. The acceptor bumps the target's gauges *at placement* —
    /// not at adoption — so one accept burst spreads by real load instead
    /// of piling onto a shard whose handoff wakeup has not run yet.
    fn place_connection(&mut self, stream: TcpStream) {
        if self.shared.open_connections() >= self.shared.config.max_connections {
            // Best effort: tell the client why before dropping it. The
            // socket is fresh, so a single nonblocking write of ~150 bytes
            // either lands in the empty send buffer or is dropped.
            let _ = stream.set_nonblocking(true);
            let body = error_body("server at connection capacity");
            let response = format_response(503, &body, false, None, &[]);
            let mut stream = stream;
            let _ = stream.write(response.as_bytes());
            return;
        }
        let shards = &self.shared.shards;
        let n = shards.len();
        let start = self.accept_rr % n;
        let target = (0..n)
            .map(|offset| (start + offset) % n)
            .min_by_key(|&i| shards[i].open.load(Ordering::Relaxed))
            .unwrap_or(self.shard);
        self.accept_rr = (target + 1) % n;
        shards[target].open.fetch_add(1, Ordering::Relaxed);
        shards[target].accepted.fetch_add(1, Ordering::Relaxed);
        if target == self.shard {
            self.adopt_connection(stream);
        } else {
            lock_clean(&shards[target].handoff).push(stream);
            shards[target].waker.wake();
        }
    }

    /// Drains this shard's handoff inbox: sockets the acceptor assigned
    /// here. Their slot on the shard gauge is already counted.
    fn adopt_handoffs(&mut self) {
        let pending: Vec<TcpStream> =
            std::mem::take(&mut *lock_clean(&self.shared.shards[self.shard].handoff));
        for stream in pending {
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                // Never served: release the assigned slot as the stream
                // drops.
                self.shared.shards[self.shard]
                    .open
                    .fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            self.adopt_connection(stream);
        }
    }

    /// Adopts a socket onto this shard: slab slot, poller registration, and
    /// the pre-first-byte keep-alive deadline. The shard gauge was bumped
    /// at placement; a socket that fails setup releases it.
    fn adopt_connection(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.shared.shards[self.shard]
                .open
                .fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot { gen: 0, conn: None });
            self.slots.len() - 1
        });
        let slot = &mut self.slots[token];
        slot.gen += 1;
        let conn = Conn {
            stream,
            gen: slot.gen,
            parser: RequestParser::new(),
            out: Vec::new(),
            out_pos: 0,
            keep_alive_after: false,
            dispatched: false,
            read_closed: false,
            request_started: false,
            served: 0,
            arm_id: 0,
            registered: None,
        };
        slot.conn = Some(conn);
        self.open += 1;
        self.update_registration(token);
        // Pre-first-byte deadline: a connection that never sends a request
        // is reaped like an idle keep-alive one.
        let deadline = Instant::now() + self.shared.config.keepalive_timeout;
        self.arm_deadline(token, deadline);
    }

    fn close_conn(&mut self, token: usize) {
        let Some(conn) = self.slots[token].conn.take() else {
            return;
        };
        if conn.registered.is_some() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
        drop(conn);
        self.free.push(token);
        self.open -= 1;
        self.shared.shards[self.shard]
            .open
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// Syncs the poller registration with the connection's desired
    /// interest: read while the peer can still send, write while response
    /// bytes are pending, deregistered entirely when neither applies (e.g.
    /// half-closed and waiting on a dispatched completion).
    fn update_registration(&mut self, token: usize) {
        let Some(conn) = self.slots[token].conn.as_mut() else {
            return;
        };
        let desired = Interest {
            readable: !conn.read_closed,
            writable: conn.out_pos < conn.out.len(),
        };
        let fd = conn.stream.as_raw_fd();
        match (conn.registered, desired.readable || desired.writable) {
            (None, true) if self.poller.register(fd, token, desired).is_ok() => {
                conn.registered = Some(desired);
            }
            (Some(current), true)
                if current != desired && self.poller.modify(fd, token, desired).is_ok() =>
            {
                conn.registered = Some(desired);
            }
            (Some(_), false) => {
                let _ = self.poller.deregister(fd);
                conn.registered = None;
            }
            _ => {}
        }
    }

    fn arm_deadline(&mut self, token: usize, deadline: Instant) {
        let Some(conn) = self.slots[token].conn.as_mut() else {
            return;
        };
        self.next_arm += 1;
        conn.arm_id = self.next_arm;
        self.wheel.schedule(token, self.next_arm, deadline);
    }

    fn disarm_deadline(&mut self, token: usize) {
        if let Some(conn) = self.slots[token].conn.as_mut() {
            conn.arm_id = 0;
        }
    }

    fn timer_fired(&mut self, entry: &TimerEntry) {
        let Some(conn) = self
            .slots
            .get_mut(entry.token)
            .and_then(|s| s.conn.as_mut())
        else {
            return;
        };
        if conn.arm_id != entry.gen {
            return; // stale: the deadline was re-armed or the slot recycled
        }
        conn.arm_id = 0;
        if conn.dispatched {
            return; // no deadline governs a dispatched request
        }
        if conn.parser.mid_request() {
            // Slow-loris eviction: the request failed to arrive within the
            // read deadline. Best-effort 408, then close.
            self.shared.shards[self.shard]
                .evictions
                .fetch_add(1, Ordering::Relaxed);
            let body = error_body("request read deadline exceeded");
            let response = format_response(408, &body, false, None, &[]);
            let _ = conn.stream.write(response.as_bytes());
        }
        // Idle keep-alive expiry (or fresh-and-silent): close quietly.
        self.close_conn(entry.token);
    }

    // -- readiness handlers --------------------------------------------------

    fn conn_ready(&mut self, token: usize, event: &PollEvent) {
        if self
            .slots
            .get(token)
            .and_then(|s| s.conn.as_ref())
            .is_none()
        {
            return; // closed earlier this iteration
        }
        if event.readable || event.hangup {
            self.conn_readable(token);
        }
        if self.slots[token].conn.is_some() && event.writable {
            self.conn_writable(token);
        }
    }

    fn conn_readable(&mut self, token: usize) {
        loop {
            let Some(conn) = self.slots[token].conn.as_mut() else {
                return;
            };
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    let busy = conn.dispatched || conn.out_pos < conn.out.len();
                    if busy {
                        // Bytes before the previous response finished:
                        // pipelining, which this server strictly rejects.
                        self.close_conn(token);
                        return;
                    }
                    conn.parser.feed(&self.scratch[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.after_read(token);
    }

    fn after_read(&mut self, token: usize) {
        let Some(conn) = self.slots[token].conn.as_mut() else {
            return;
        };
        let read_closed = conn.read_closed;
        if !conn.dispatched && conn.out_pos >= conn.out.len() {
            match conn.parser.try_take() {
                Err(message) => {
                    let body = error_body(message);
                    self.respond_inline(token, 400, body, false, None, &[]);
                    return;
                }
                Ok(Some(request)) => {
                    if self.slots[token]
                        .conn
                        .as_ref()
                        .is_some_and(|c| c.parser.buffered() > 0)
                    {
                        let body =
                            error_body("pipelined requests are not supported: await the response");
                        self.respond_inline(token, 400, body, false, None, &[]);
                        return;
                    }
                    if let Some(conn) = self.slots[token].conn.as_mut() {
                        conn.request_started = false;
                    }
                    self.disarm_deadline(token);
                    self.handle_request(token, request);
                    return;
                }
                Ok(None) => {
                    if conn.parser.mid_request() && !conn.request_started {
                        // First bytes of a new request: the read deadline
                        // starts now (replacing the idle keep-alive one).
                        conn.request_started = true;
                        let deadline = Instant::now() + self.shared.config.read_deadline;
                        self.arm_deadline(token, deadline);
                    }
                }
            }
        }
        let Some(conn) = self.slots[token].conn.as_mut() else {
            return;
        };
        if read_closed {
            let idle = !conn.dispatched && conn.out_pos >= conn.out.len();
            if idle {
                // EOF with nothing owed (a half-open or fully closed peer
                // with no outstanding request): tear down. A mid-request
                // EOF can never complete either.
                self.close_conn(token);
                return;
            }
        }
        self.update_registration(token);
    }

    fn conn_writable(&mut self, token: usize) {
        self.flush_conn(token);
    }

    /// Writes pending response bytes; on full flush the connection parks
    /// (keep-alive) or closes.
    fn flush_conn(&mut self, token: usize) {
        loop {
            let Some(conn) = self.slots[token].conn.as_mut() else {
                return;
            };
            if conn.out_pos >= conn.out.len() {
                break;
            }
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.update_registration(token);
                    // Write-stall guard: a peer that stops reading its
                    // response must make progress within the read deadline
                    // (each successful partial write re-parks here and
                    // re-arms), else the connection is reaped — during
                    // shutdown within the shorter drain grace, so a stalled
                    // reader cannot hang the reactor join forever.
                    let mut bound = self.shared.config.read_deadline;
                    if self.shared.shutting_down.load(Ordering::SeqCst) {
                        bound = bound.min(SHUTDOWN_DRAIN_GRACE);
                    }
                    self.arm_deadline(token, Instant::now() + bound);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        // Fully flushed.
        let Some(conn) = self.slots[token].conn.as_mut() else {
            return;
        };
        conn.out.clear();
        conn.out_pos = 0;
        conn.served += 1;
        let shutting_down = self.shared.shutting_down.load(Ordering::SeqCst);
        if !conn.keep_alive_after || conn.read_closed || shutting_down {
            self.close_conn(token);
            return;
        }
        // Park: wait for the next request on this connection.
        conn.request_started = false;
        self.update_registration(token);
        let deadline = Instant::now() + self.shared.config.keepalive_timeout;
        self.arm_deadline(token, deadline);
    }

    /// Queues an inline response (no scheduler round trip) and tries to
    /// flush it immediately.
    fn respond_inline(
        &mut self,
        token: usize,
        status: u16,
        body: String,
        keep_alive: bool,
        request_id: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) {
        let Some(conn) = self.slots[token].conn.as_mut() else {
            return;
        };
        append_response(
            &mut conn.out,
            status,
            &body,
            keep_alive,
            request_id,
            extra_headers,
        );
        conn.keep_alive_after = keep_alive;
        self.flush_conn(token);
    }

    /// Delivers this shard's finished dispatches: renders each raw result
    /// into the connection's output buffer (the off-worker serialization
    /// boundary) and flushes.
    fn deliver_completions(&mut self) {
        let completions: Vec<Completion> = std::mem::take(&mut *lock_clean(
            &self.shared.shards[self.shard].completions,
        ));
        for completion in completions {
            // The request finished whether or not its connection survived:
            // count and log it either way.
            self.shared.log_request(
                &completion.request_id,
                completion.route,
                completion.status,
                completion.queue_us,
                completion.service_us,
            );
            let Some(conn) = self
                .slots
                .get_mut(completion.token)
                .and_then(|s| s.conn.as_mut())
            else {
                continue; // connection died while the job ran
            };
            if conn.gen != completion.gen {
                continue; // slot recycled: response belongs to a dead conn
            }
            conn.dispatched = false;
            let Completion {
                token,
                status,
                request_id,
                keep_alive,
                queue_us,
                service_us,
                body,
                ..
            } = completion;
            let body = body.render(queue_us, service_us, &request_id);
            append_response(
                &mut conn.out,
                status,
                &body,
                keep_alive,
                Some(&request_id),
                &[],
            );
            conn.keep_alive_after = keep_alive;
            self.flush_conn(token);
        }
    }

    // -- routing -------------------------------------------------------------

    fn handle_request(&mut self, token: usize, request: Request) {
        let shared = Arc::clone(&self.shared);
        let request_id = request.request_id.clone().unwrap_or_else(|| {
            format!(
                "sne-{:08x}",
                shared.next_request_id.fetch_add(1, Ordering::Relaxed)
            )
        });
        let gen = self.slots[token]
            .conn
            .as_ref()
            .map(|c| c.gen)
            .unwrap_or_default();
        match route(&shared, self.shard, token, gen, &request, &request_id) {
            RouteOutcome::Inline {
                route: route_tag,
                status,
                body,
                extra,
            } => {
                shared.log_request(&request_id, route_tag, status, 0.0, 0.0);
                let extra_refs: Vec<(&str, &str)> =
                    extra.iter().map(|(n, v)| (*n, v.as_str())).collect();
                self.respond_inline(
                    token,
                    status,
                    body,
                    request.keep_alive,
                    Some(&request_id),
                    &extra_refs,
                );
            }
            RouteOutcome::Dispatched => {
                if let Some(conn) = self.slots[token].conn.as_mut() {
                    conn.dispatched = true;
                }
                self.update_registration(token);
            }
        }
    }
}

fn error_body(message: &str) -> String {
    Json::obj(vec![("error", Json::from(message))]).to_string()
}

enum RouteOutcome {
    Inline {
        route: &'static str,
        status: u16,
        body: String,
        extra: Vec<(&'static str, String)>,
    },
    Dispatched,
}

fn inline(route: &'static str, status: u16, body: String) -> RouteOutcome {
    RouteOutcome::Inline {
        route,
        status,
        body,
        extra: Vec::new(),
    }
}

fn route(
    shared: &Arc<ServerShared>,
    shard: usize,
    token: usize,
    gen: u64,
    request: &Request,
    request_id: &str,
) -> RouteOutcome {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/infer") => handle_infer(shared, shard, token, gen, request, request_id),
        ("GET", "/v1/stats") => inline("stats", 200, stats_body(shared)),
        ("GET", "/healthz") => inline("healthz", 200, healthz_body(shared)),
        (method, path) => {
            if let Some(rest) = path.strip_prefix("/v1/stream/") {
                if method != "POST" {
                    return inline(
                        "stream_push",
                        405,
                        error_body("streaming endpoints are POST"),
                    );
                }
                if let Some(id) = rest.strip_suffix("/push") {
                    return handle_stream_push(shared, shard, token, gen, id, request, request_id);
                }
                if let Some(id) = rest.strip_suffix("/close") {
                    return handle_stream_close(shared, id);
                }
            }
            inline("other", 404, error_body("unknown route"))
        }
    }
}

/// Decodes `{"timesteps": T, "events": [[t, ch, x, y], ...]}` into an
/// [`EventStream`] with the model's input geometry, validating every event
/// against it.
fn parse_event_stream(doc: &Json, artifact: &RuntimeArtifact) -> Result<EventStream, String> {
    let timesteps = doc
        .get("timesteps")
        .and_then(Json::as_u64)
        .filter(|&t| (1..=MAX_REQUEST_TIMESTEPS).contains(&t))
        .ok_or("missing or invalid 'timesteps' (must be 1..=65536)")? as u32;
    let (channels, height, width) = artifact.network().input_shape();
    let mut stream = EventStream::new(width, height, channels, timesteps);
    let events = doc
        .get("events")
        .and_then(Json::as_array)
        .ok_or("missing 'events' array")?;
    for event in events {
        let fields = event
            .as_array()
            .filter(|f| f.len() == 4)
            .ok_or("each event must be a [t, ch, x, y] quadruple")?;
        let int = |i: usize| fields[i].as_u64().ok_or("event fields must be integers");
        let t = u32::try_from(int(0)?).map_err(|_| "event timestep out of range")?;
        let narrow = |v: u64| u16::try_from(v).map_err(|_| "event address out of range");
        let event = Event::update(t, narrow(int(1)?)?, narrow(int(2)?)?, narrow(int(3)?)?);
        stream
            .push(event)
            .map_err(|e| format!("invalid event: {e}"))?;
    }
    Ok(stream)
}

/// Serializes the spike events of a stream as `[[t, ch, x, y], ...]`.
fn events_json(stream: &EventStream) -> Json {
    Json::Arr(
        stream
            .iter()
            .filter(|e| e.is_spike())
            .map(|e| {
                Json::Arr(vec![
                    Json::from(u64::from(e.t)),
                    Json::from(u64::from(e.ch)),
                    Json::from(u64::from(e.x)),
                    Json::from(u64::from(e.y)),
                ])
            })
            .collect(),
    )
}

/// The response body shared by one-shot inference and stream close: the
/// model name plus the full [`InferenceResult`] surface the tests compare
/// bit-exactly against direct session calls.
fn result_members(model: &str, result: &InferenceResult) -> Vec<(&'static str, Json)> {
    vec![
        ("model", Json::from(model)),
        ("predicted_class", Json::from(result.predicted_class)),
        (
            "output_spike_counts",
            Json::Arr(
                result
                    .output_spike_counts
                    .iter()
                    .map(|&c| Json::from(u64::from(c)))
                    .collect(),
            ),
        ),
        ("total_cycles", Json::from(result.stats.total_cycles)),
        ("synaptic_ops", Json::from(result.stats.synaptic_ops)),
        ("energy_uj", Json::from(result.energy.energy_uj)),
        ("inference_time_ms", Json::from(result.inference_time_ms)),
        ("inference_rate", Json::from(result.inference_rate)),
        ("mean_activity", Json::from(result.mean_activity)),
    ]
}

/// Admission check: claims one in-flight slot of `entry`'s budget, or
/// produces the 429 shed response for `route`.
fn admit(
    shared: &ServerShared,
    entry: &ModelEntry,
    route: &'static str,
) -> Result<(), RouteOutcome> {
    let limit = shared.config.admission_limit as u64;
    // fetch_add then correct: contention-free fast path, and the transient
    // overshoot is invisible (the slot is released before the 429 returns).
    let occupied = entry.inflight.fetch_add(1, Ordering::AcqRel);
    if occupied >= limit {
        entry.inflight.fetch_sub(1, Ordering::AcqRel);
        entry.shed.fetch_add(1, Ordering::Relaxed);
        return Err(RouteOutcome::Inline {
            route,
            status: 429,
            body: error_body("admission queue full: retry later"),
            extra: vec![("Retry-After", shared.config.retry_after_s.to_string())],
        });
    }
    Ok(())
}

fn handle_infer(
    shared: &Arc<ServerShared>,
    shard: usize,
    token: usize,
    gen: u64,
    request: &Request,
    request_id: &str,
) -> RouteOutcome {
    let doc = match Json::parse(&request.body) {
        Ok(doc) => doc,
        Err(e) => return inline("infer", 400, error_body(&e.to_string())),
    };
    let Some(model_name) = doc.get("model").and_then(Json::as_str) else {
        return inline("infer", 400, error_body("missing 'model'"));
    };
    let Some(index) = shared.models.iter().position(|(n, _)| n == model_name) else {
        return inline("infer", 404, error_body("unknown model"));
    };
    let entry = &shared.models[index].1;
    entry.requests.fetch_add(1, Ordering::Relaxed);
    let stream = match parse_event_stream(&doc, entry.pool.artifact()) {
        Ok(stream) => stream,
        Err(message) => {
            entry.errors.fetch_add(1, Ordering::Relaxed);
            return inline("infer", 400, error_body(&message));
        }
    };
    if let Err(shed) = admit(shared, entry, "infer") {
        entry.errors.fetch_add(1, Ordering::Relaxed);
        return shed;
    }
    let callback_shared = Arc::clone(shared);
    let model_name = model_name.to_owned();
    let request_id = request_id.to_owned();
    let keep_alive = request.keep_alive;
    // The callback runs on the serving worker and only does the accounting
    // — the raw result is shipped to the connection's reactor shard, which
    // renders the response (off-worker serialization).
    entry.scheduler.call_async(stream, None, move |record| {
        let shared = callback_shared;
        let entry = &shared.models[index].1;
        entry.inflight.fetch_sub(1, Ordering::AcqRel);
        shared
            .recorder
            .record(record.queue_us, record.service_us, record.result.is_err());
        let (status, body) = match record.result {
            Ok(result) => (
                200,
                ResponseBody::Infer {
                    model: model_name,
                    result,
                    lane: record.lane,
                },
            ),
            Err(error) => {
                entry.errors.fetch_add(1, Ordering::Relaxed);
                (400, ResponseBody::Ready(error_body(&error.to_string())))
            }
        };
        shared.complete(Completion {
            shard,
            token,
            gen,
            route: "infer",
            status,
            request_id,
            keep_alive,
            queue_us: record.queue_us,
            service_us: record.service_us,
            body,
        });
    });
    RouteOutcome::Dispatched
}

/// The answer to a refused session checkout or close.
fn session_refused(route: &'static str, error: SessionError) -> RouteOutcome {
    let (status, message) = match error {
        SessionError::Seq { expected, got } => {
            // The client's view of the stream diverged (duplicate, dropped
            // or reordered push): it resynchronizes from `chunks_pushed`.
            let message = "chunk_seq mismatch: duplicate or out-of-order push";
            let body = Json::obj(vec![
                ("error", Json::from(message)),
                ("chunks_pushed", Json::from(expected)),
                ("got_chunk_seq", Json::from(got)),
            ]);
            return inline(route, 409, body.to_string());
        }
        SessionError::WrongModel => (400, "session is bound to a different model"),
        SessionError::ModelRequired => (400, "first push must name a 'model'"),
        SessionError::UnknownModel => (404, "unknown model"),
        SessionError::UnknownSession => (404, "unknown session"),
        SessionError::Busy => (409, "session busy: a push is in flight"),
        SessionError::Full => (503, "session table full: close idle sessions"),
        SessionError::Corrupt { .. } => (404, "session snapshot corrupted: session discarded"),
        SessionError::Missing => (404, "session snapshot missing: session discarded"),
    };
    inline(route, status, error_body(message))
}

fn handle_stream_push(
    shared: &Arc<ServerShared>,
    shard: usize,
    token: usize,
    gen: u64,
    id: &str,
    request: &Request,
    request_id: &str,
) -> RouteOutcome {
    let doc = match Json::parse(&request.body) {
        Ok(doc) => doc,
        Err(e) => return inline("stream_push", 400, error_body(&e.to_string())),
    };
    let chunk_seq = doc.get("chunk_seq").and_then(Json::as_u64);
    if doc.get("chunk_seq").is_some() && chunk_seq.is_none() {
        return inline(
            "stream_push",
            400,
            error_body("invalid 'chunk_seq' (must be an unsigned integer)"),
        );
    }
    let requested_model = doc.get("model").and_then(Json::as_str);
    let (checkout, client) = match shared.sessions.checkout(id, requested_model, chunk_seq) {
        Ok(taken) => taken,
        Err(error) => {
            if let SessionError::Corrupt { model } = error {
                let errors = &shared.models[model].1.errors;
                errors.fetch_add(1, Ordering::Relaxed);
            }
            return session_refused("stream_push", error);
        }
    };
    let index = checkout.model();
    let entry = &shared.models[index].1;
    entry.requests.fetch_add(1, Ordering::Relaxed);
    let chunk = match parse_event_stream(&doc, entry.pool.artifact()) {
        Ok(chunk) => chunk,
        Err(message) => {
            entry.errors.fetch_add(1, Ordering::Relaxed);
            shared.sessions.abandon(checkout, client);
            return inline("stream_push", 400, error_body(&message));
        }
    };
    if let Err(shed) = admit(shared, entry, "stream_push") {
        entry.errors.fetch_add(1, Ordering::Relaxed);
        shared.sessions.abandon(checkout, client);
        return shed;
    }

    let callback_shared = Arc::clone(shared);
    let session = id.to_owned();
    let request_id = request_id.to_owned();
    let keep_alive = request.keep_alive;
    let preferred_lane = checkout.preferred_lane;
    // Placed by the parked affinity hint. The callback settles the checkout
    // even when the connection has died, so a mid-stream disconnect cannot
    // wedge the session busy. The response is rendered later, on the
    // connection's shard; only the write-ahead park stays on the worker,
    // because crash recovery rests on its ordering: snapshot on disk before
    // the session is unmarked and acknowledged.
    entry
        .scheduler
        .call_push_async(client, chunk, preferred_lane, move |record| {
            let shared = callback_shared;
            let (model_name, entry) = &shared.models[index];
            entry.inflight.fetch_sub(1, Ordering::AcqRel);
            shared
                .recorder
                .record(record.queue_us, record.service_us, record.result.is_err());
            let chunks_pushed = record.client.chunks_pushed();
            let (status, body) = match record.result {
                Ok(output) => match shared.sessions.park(checkout, record.client, record.lane) {
                    Ok(()) => (
                        200,
                        ResponseBody::Push {
                            session,
                            model: model_name.clone(),
                            output,
                            chunks_pushed,
                            lane: record.lane,
                        },
                    ),
                    Err(error) => {
                        entry.errors.fetch_add(1, Ordering::Relaxed);
                        let message =
                            format!("write-ahead park failed, chunk not applied: {error}");
                        (503, ResponseBody::Ready(error_body(&message)))
                    }
                },
                Err(error) => {
                    entry.errors.fetch_add(1, Ordering::Relaxed);
                    shared.sessions.abandon(checkout, record.client);
                    (400, ResponseBody::Ready(error_body(&error.to_string())))
                }
            };
            shared.complete(Completion {
                shard,
                token,
                gen,
                route: "stream_push",
                status,
                request_id,
                keep_alive,
                queue_us: record.queue_us,
                service_us: record.service_us,
                body,
            });
        });
    RouteOutcome::Dispatched
}

fn handle_stream_close(shared: &ServerShared, id: &str) -> RouteOutcome {
    let (index, client) = match shared.sessions.close(id) {
        Ok(closed) => closed,
        Err(error) => return session_refused("stream_close", error),
    };
    let (model_name, model) = &shared.models[index];
    let summary = model.pool.artifact().summary(&client);
    let mut members = result_members(model_name, &summary);
    members.insert(0, ("session", Json::from(id)));
    members.push(("closed", Json::from(true)));
    members.push(("chunks_pushed", Json::from(client.chunks_pushed())));
    members.push((
        "elapsed_timesteps",
        Json::from(u64::from(client.elapsed_timesteps())),
    ));
    inline("stream_close", 200, Json::obj(members).to_string())
}

fn latency_json(summary: &LatencySummary) -> Json {
    Json::obj(vec![
        ("count", Json::from(summary.count)),
        ("mean", Json::from(summary.mean_us)),
        ("p50", Json::from(summary.p50_us)),
        ("p95", Json::from(summary.p95_us)),
        ("p99", Json::from(summary.p99_us)),
        ("max", Json::from(summary.max_us)),
    ])
}

fn healthz_body(shared: &ServerShared) -> String {
    Json::obj(vec![
        ("status", Json::from("ok")),
        (
            "uptime_s",
            Json::from(shared.started.elapsed().as_secs_f64()),
        ),
        ("connections", Json::from(shared.open_connections())),
        ("shards", Json::from(shared.shards.len())),
        ("models", Json::from(shared.models.len())),
    ])
    .to_string()
}

fn stats_body(shared: &ServerShared) -> String {
    let stats = shared.recorder.stats();
    let sessions = shared.sessions.stats();
    let uptime_s = shared.started.elapsed().as_secs_f64();
    let throughput_rps = if uptime_s > 0.0 {
        stats.completed as f64 / uptime_s
    } else {
        0.0
    };
    let models = Json::Obj(
        shared
            .models
            .iter()
            .map(|(name, entry)| {
                let sched = entry.scheduler.stats();
                let plans = entry.pool.artifact().plans();
                let plan_entries: usize = plans.iter().map(|p| p.table_entries()).sum();
                let plan_bytes: usize = plans.iter().map(|p| p.table_bytes()).sum();
                (
                    name.clone(),
                    Json::obj(vec![
                        (
                            "requests",
                            Json::from(entry.requests.load(Ordering::Relaxed)),
                        ),
                        ("errors", Json::from(entry.errors.load(Ordering::Relaxed))),
                        ("lanes", Json::from(entry.pool.lanes())),
                        ("plan_table_entries", Json::from(plan_entries)),
                        ("plan_table_bytes", Json::from(plan_bytes)),
                        ("workers", Json::from(entry.scheduler.workers())),
                        ("pending", Json::from(entry.scheduler.pending())),
                        (
                            "inflight",
                            Json::from(entry.inflight.load(Ordering::Relaxed)),
                        ),
                        ("shed", Json::from(entry.shed.load(Ordering::Relaxed))),
                        ("steals", Json::from(sched.steals)),
                        ("affinity_hits", Json::from(sched.affinity_hits)),
                        ("affinity_misses", Json::from(sched.affinity_misses)),
                    ]),
                )
            })
            .collect(),
    );
    let routes = Json::obj(vec![
        ("infer", shared.routes.infer.json()),
        ("stream_push", shared.routes.stream_push.json()),
        ("stream_close", shared.routes.stream_close.json()),
        ("stats", shared.routes.stats.json()),
        ("healthz", shared.routes.healthz.json()),
        ("other", shared.routes.other.json()),
    ]);
    let recent = Json::Arr(
        lock_clean(&shared.request_log)
            .iter()
            .map(|entry| {
                Json::obj(vec![
                    ("id", Json::from(entry.id.as_str())),
                    ("route", Json::from(entry.route)),
                    ("status", Json::from(u64::from(entry.status))),
                    ("queue_us", Json::from(entry.queue_us)),
                    ("service_us", Json::from(entry.service_us)),
                ])
            })
            .collect(),
    );
    let mut members = vec![
        ("uptime_s", Json::from(uptime_s)),
        ("completed", Json::from(stats.completed)),
        ("errors", Json::from(stats.errors)),
        ("throughput_rps", Json::from(throughput_rps)),
        ("active_streams", Json::from(sessions.warm)),
        ("connections", Json::from(shared.open_connections())),
        ("evictions", Json::from(shared.evictions_total())),
        (
            "shards",
            Json::Arr(
                shared
                    .shards
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("accepted", Json::from(s.accepted.load(Ordering::Relaxed))),
                            ("open", Json::from(s.open.load(Ordering::Relaxed))),
                            ("evictions", Json::from(s.evictions.load(Ordering::Relaxed))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("queue_latency_us", latency_json(&stats.queue)),
        ("service_latency_us", latency_json(&stats.service)),
        ("routes", routes),
        ("recent_requests", recent),
        ("models", models),
    ];
    if let Some(d) = sessions.durability {
        members.push((
            "durability",
            Json::obj(vec![
                ("parked_to_disk", Json::from(d.parked_to_disk)),
                ("faulted_in", Json::from(d.faulted_in)),
                ("recovered_on_boot", Json::from(d.recovered_on_boot)),
                ("corrupt_discarded", Json::from(d.corrupt_discarded)),
                ("park_failures", Json::from(d.park_failures)),
                ("remove_failures", Json::from(d.remove_failures)),
                ("cold_sessions", Json::from(d.cold_sessions)),
            ]),
        ));
    }
    Json::obj(members).to_string()
}
