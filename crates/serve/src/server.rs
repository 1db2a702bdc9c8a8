//! The serving front-end: sharded nonblocking reactors multiplexing every
//! connection, and graceful shutdown.
//!
//! ## Architecture (DESIGN.md §13, §15)
//!
//! The reactors own the sockets, the connection slab, the timers, shard
//! placement and handoff, shutdown and HTTP framing. Every decision a
//! request needs — routing, admission, the handlers, request ids, the
//! session table and every counter — belongs to one socket-free service
//! (`service.rs`), which takes a parsed [`Request`] and returns an inline
//! answer or dispatches the job; its tests reach every status without a
//! socket.
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
//! close, every refusal) or **dispatched**: admission-checked against a
//! bounded in-flight budget per model, then handed to the model's
//! work-stealing [`sne::batch::Scheduler`] via its nonblocking
//! `call_async`/`call_push_async` entry points. The serving worker thread
//! finishes the inference and ships the **raw result** onto its shard's
//! completion queue, then wakes that shard. The service renders it there
//! (off-worker serialization: the engine-holding thread returns to compute
//! immediately), and the reactor writes the response out with backpressure
//! (partial writes park the connection on write interest).
//!
//! Connections are HTTP/1.1 **keep-alive** by default, so a streaming
//! client's chunk sequence reuses one connection instead of paying a
//! connect and a teardown per push; parked idle connections cost nothing
//! but their descriptor — the kernel only reports ready ones.
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
//! `GET /healthz` answers inline, without an engine.
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
//! model/session/route), 405 (a known path with the wrong method), 408
//! (read deadline), 409 (session busy, `chunk_seq` mismatch), 429 (shed) or
//! 503 (capacity, failed write-ahead park).
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sne::batch::EnginePool;
use sne::compile::CompiledNetwork;
use sne::SneError;
use sne_sim::{ExecStrategy, SneConfig};
use sne_store::FsyncPolicy;

use crate::http::{append_response, format_response, Request, RequestParser};
use crate::reactor::{Interest, PollEvent, Poller, TimerEntry, TimerWheel, WakePipe, Waker};
use crate::service::{error_body, Completion, ReplyTo, Response, Service, ShardCounters};

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

/// One reactor shard's cross-thread surface: the completion queue the
/// service's sink fills from worker threads, the handoff inbox the
/// acceptor shard feeds, and the waker that interrupts its poll.
#[derive(Debug)]
struct ShardHandle {
    completions: Mutex<Vec<Completion>>,
    handoff: Mutex<Vec<TcpStream>>,
    waker: Waker,
}

#[derive(Debug)]
struct ServerShared {
    service: Arc<Service>,
    /// One handle per reactor shard; [`ReplyTo::shard`] indexes here.
    shards: Arc<[ShardHandle]>,
    shutting_down: AtomicBool,
    config: ServerConfig,
}

impl ServerShared {
    /// Wakes every shard (the shutdown broadcast).
    fn wake_all(&self) {
        for shard in self.shards.iter() {
            shard.waker.wake();
        }
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
    /// by a pool of `lanes` engines, each served by one scheduler worker
    /// thread. `_exec` is unused ([`ExecStrategy`] has one value).
    /// Registering the same name twice replaces the earlier pool.
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
        _exec: ExecStrategy,
    ) -> Result<Self, SneError> {
        let pool = EnginePool::for_network(network, config, lanes)?;
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
        let shards: Arc<[ShardHandle]> = pipes
            .iter()
            .map(|(pipe, _)| ShardHandle {
                completions: Mutex::default(),
                handoff: Mutex::default(),
                waker: pipe.waker(),
            })
            .collect();
        let sink_shards = Arc::clone(&shards);
        // Runs on the serving worker: queue the raw completion for its
        // connection's shard and wake that shard's reactor, which renders it.
        let sink = move |completion: Completion| {
            let shard = &sink_shards[completion.reply_to().shard];
            lock_clean(&shard.completions).push(completion);
            shard.waker.wake();
        };
        let config = self.config;
        let store = self.store_dir.map(|dir| (dir, self.fsync));
        let service = Service::new(
            self.models,
            config.admission_limit,
            config.session_capacity,
            store,
            shard_count,
            sink,
        )?;
        let shared = Arc::new(ServerShared {
            service: Arc::new(service),
            shards,
            shutting_down: AtomicBool::new(false),
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
        self.shared.service.sessions.stats().warm
    }

    /// Number of cold (parked-to-disk) streaming sessions.
    #[must_use]
    pub fn cold_sessions(&self) -> usize {
        self.shared.service.sessions.stats().cold
    }

    /// Durability counters, when the server was started with
    /// [`ServerBuilder::durable_store`].
    #[must_use]
    pub fn durability(&self) -> Option<DurabilityStats> {
        self.shared.service.sessions.stats().durability
    }

    /// Currently open connections (including parked keep-alive ones),
    /// summed over every reactor shard.
    #[must_use]
    pub fn open_connections(&self) -> usize {
        self.shared.service.open_connections()
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
    /// Bumped at each adoption: a completion addressed to an older
    /// generation belongs to a connection that is gone.
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
            self.counters().open.fetch_sub(1, Ordering::Relaxed);
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
        let service = &self.shared.service;
        if service.open_connections() >= self.shared.config.max_connections {
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
        let counters = &service.shards;
        let n = counters.len();
        let start = self.accept_rr % n;
        let target = (0..n)
            .map(|offset| (start + offset) % n)
            .min_by_key(|&i| counters[i].open.load(Ordering::Relaxed))
            .unwrap_or(self.shard);
        self.accept_rr = (target + 1) % n;
        counters[target].open.fetch_add(1, Ordering::Relaxed);
        counters[target].accepted.fetch_add(1, Ordering::Relaxed);
        if target == self.shard {
            self.adopt_connection(stream);
        } else {
            let shard = &self.shared.shards[target];
            lock_clean(&shard.handoff).push(stream);
            shard.waker.wake();
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
                self.counters().open.fetch_sub(1, Ordering::Relaxed);
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
            self.counters().open.fetch_sub(1, Ordering::Relaxed);
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
        self.counters().open.fetch_sub(1, Ordering::Relaxed);
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
            self.shared.service.shards[self.shard]
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
            self.flush_conn(token);
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
                    self.respond(token, bad_request(message));
                    return;
                }
                Ok(Some(request)) => {
                    if self.slots[token]
                        .conn
                        .as_ref()
                        .is_some_and(|c| c.parser.buffered() > 0)
                    {
                        let message = "pipelined requests are not supported: await the response";
                        self.respond(token, bad_request(message));
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

    /// Frames `response` into the connection's output buffer and flushes
    /// it; every 429 advertises `Retry-After`.
    fn respond(&mut self, token: usize, response: Response) {
        let Some(conn) = self.slots[token].conn.as_mut() else {
            return;
        };
        let retry_after =
            (response.status == 429).then(|| self.shared.config.retry_after_s.to_string());
        let extra: Vec<(&str, &str)> = retry_after
            .iter()
            .map(|s| ("Retry-After", s.as_str()))
            .collect();
        append_response(
            &mut conn.out,
            response.status,
            &response.body,
            response.keep_alive,
            response.request_id.as_deref(),
            &extra,
        );
        conn.keep_alive_after = response.keep_alive;
        conn.dispatched = false;
        self.flush_conn(token);
    }

    /// Delivers this shard's finished dispatches: the service renders each
    /// one (the off-worker serialization boundary), and a response whose
    /// connection survived is framed and flushed.
    fn deliver_completions(&mut self) {
        let completions: Vec<Completion> = std::mem::take(&mut *lock_clean(
            &self.shared.shards[self.shard].completions,
        ));
        for completion in completions {
            let (to, response) = self.shared.service.finish(completion);
            // A dead connection's slot is empty (`respond` skips it) or was
            // recycled to a newer generation.
            if self.slots[to.token].gen == to.gen {
                self.respond(to.token, response);
            }
        }
    }

    fn handle_request(&mut self, token: usize, request: Request) {
        let reply_to = ReplyTo {
            shard: self.shard,
            token,
            gen: self.slots[token].gen,
        };
        match self.shared.service.handle(&request, reply_to) {
            Some(response) => self.respond(token, response),
            None => {
                if let Some(conn) = self.slots[token].conn.as_mut() {
                    conn.dispatched = true;
                }
                self.update_registration(token);
            }
        }
    }

    fn counters(&self) -> &ShardCounters {
        &self.shared.service.shards[self.shard]
    }
}

/// The reactor's own answer to a malformed or pipelined request: no
/// request id, and the connection closes after it.
fn bad_request(message: &str) -> Response {
    Response {
        status: 400,
        body: error_body(message),
        request_id: None,
        keep_alive: false,
    }
}
