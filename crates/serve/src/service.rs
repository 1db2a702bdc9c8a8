//! The serving decisions, free of sockets (DESIGN.md §13): routing,
//! admission, the request handlers, request ids, the session table and
//! every counter that `/v1/stats` and `/healthz` report.
//!
//! [`Service::handle`] takes a parsed [`Request`] and an opaque
//! [`ReplyTo`], and either answers inline or hands the job to its model's
//! [`Scheduler`]. The serving worker passes the raw outcome, as a
//! [`Completion`], to the sink fixed when the service is built, and
//! [`Service::finish`] renders it later on a reactor thread. The server's
//! sink queues a completion on its connection's shard; a test's sink is an
//! `mpsc` channel, so every status the service answers is tested here
//! without a socket.

use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sne::artifact::RuntimeArtifact;
use sne::batch::{EnginePool, LatencySummary, Scheduler, SchedulerStats};
use sne::run::InferenceResult;
use sne::session::ChunkOutput;
use sne_event::{Event, EventStream};
use sne_store::FsyncPolicy;

use crate::http::Request;
use crate::json::Json;
use crate::server::{lock_clean, MAX_REQUEST_TIMESTEPS};
use crate::sessions::{SessionError, SessionTable};

/// Entries kept in the recent-request ring served by `/v1/stats`.
const REQUEST_LOG_CAPACITY: usize = 64;

/// Samples kept per latency series (oldest evicted first).
const RECORDER_WINDOW: usize = 4096;

/// Where a dispatched job's response goes: its connection's reactor shard,
/// slab token and slot generation. The service only carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReplyTo {
    pub(crate) shard: usize,
    pub(crate) token: usize,
    pub(crate) gen: u64,
}

/// An answer for the reactor to frame onto its connection.
#[derive(Debug)]
pub(crate) struct Response {
    pub(crate) status: u16,
    pub(crate) body: String,
    /// Echoed as `X-Request-Id`; the reactor's own 400s carry none.
    pub(crate) request_id: Option<String>,
    pub(crate) keep_alive: bool,
}

/// The routes `/v1/stats` counts under `"routes"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Infer,
    StreamPush,
    StreamClose,
    Stats,
    Healthz,
    Other,
}

impl Route {
    /// Each route's name, indexed by the route, in `/v1/stats` order.
    const NAMES: [&'static str; 6] = [
        "infer",
        "stream_push",
        "stream_close",
        "stats",
        "healthz",
        "other",
    ];

    /// Resolves `path` to its route, the one method the route takes, and a
    /// streaming route's session id.
    fn resolve(path: &str) -> (Self, &'static str, &str) {
        let stream = path.strip_prefix("/v1/stream/");
        match path {
            "/v1/infer" => (Self::Infer, "POST", ""),
            "/v1/stats" => (Self::Stats, "GET", ""),
            "/healthz" => (Self::Healthz, "GET", ""),
            _ => match stream.and_then(|rest| rest.strip_suffix("/push")) {
                Some(id) => (Self::StreamPush, "POST", id),
                None => match stream.and_then(|rest| rest.strip_suffix("/close")) {
                    Some(id) => (Self::StreamClose, "POST", id),
                    None => (Self::Other, "", ""),
                },
            },
        }
    }
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

/// One reactor shard's connection counters, served under `"shards"`.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    /// Connections ever placed on this shard.
    pub(crate) accepted: AtomicU64,
    /// Connections currently open on this shard. Counted from the moment
    /// the acceptor assigns the socket — before adoption — so a burst of
    /// accepts spreads by real load instead of piling onto a shard whose
    /// handoff wakeup has not run yet.
    pub(crate) open: AtomicUsize,
    /// Connections evicted by this shard's read-deadline timer.
    pub(crate) evictions: AtomicU64,
}

/// One registered model: its engine pool, the work-stealing scheduler
/// whose workers own the pool's engines, admission bookkeeping and request
/// counters.
#[derive(Debug)]
struct Model {
    name: String,
    pool: Arc<EnginePool>,
    scheduler: Scheduler,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Dispatched requests in flight (admission-queue occupancy).
    inflight: AtomicU64,
    /// Requests shed with 429 because the admission budget was exhausted.
    shed: AtomicU64,
}

impl Model {
    /// Counts a failed request of this model and answers it.
    fn fail(&self, status: u16, message: &str) -> Answer {
        self.errors.fetch_add(1, Ordering::Relaxed);
        refuse(status, message)
    }
}

/// A bounded window of recent queue-wait and service latencies. Every
/// engine-served request is recorded once, on its completion path.
#[derive(Debug, Default)]
struct Latencies {
    queue_us: VecDeque<f64>,
    service_us: VecDeque<f64>,
}

/// One recent request, kept in a bounded ring for `/v1/stats` — the
/// request-id is how a latency record is tied back to a specific request.
#[derive(Debug)]
struct RequestLog {
    id: String,
    route: Route,
    status: u16,
    queue_us: f64,
    service_us: f64,
}

/// What a request's answer carries besides its status and body; a
/// dispatched job takes it to its completion.
#[derive(Debug, Clone)]
struct Origin {
    reply_to: ReplyTo,
    route: Route,
    request_id: String,
    keep_alive: bool,
}

impl Origin {
    fn respond(self, status: u16, body: String) -> Response {
        Response {
            status,
            body,
            request_id: Some(self.request_id),
            keep_alive: self.keep_alive,
        }
    }
}

/// A dispatched job's raw outcome, sunk by its serving worker and rendered
/// by [`Service::finish`] on a reactor thread, so the engine-holding
/// worker takes its next job immediately.
#[derive(Debug)]
pub(crate) struct Completion {
    origin: Origin,
    status: u16,
    lane: usize,
    queue_us: f64,
    service_us: f64,
    body: ResponseBody,
}

impl Completion {
    pub(crate) fn reply_to(&self) -> ReplyTo {
        self.origin.reply_to
    }
}

/// What [`Service::finish`] renders into a completion's body.
#[derive(Debug)]
enum ResponseBody {
    /// Already-final JSON (error bodies — cheap to format anywhere).
    Ready(String),
    /// A one-shot inference result of the model at this registry index.
    Infer {
        model: usize,
        result: InferenceResult,
    },
    /// A streaming push's chunk output.
    Push {
        model: usize,
        session: String,
        output: ChunkOutput,
        chunks_pushed: u64,
    },
}

/// A handler's inline answer as `(status, body)`; `None` once the job is
/// dispatched.
type Answer = Option<(u16, String)>;

fn refuse(status: u16, message: &str) -> Answer {
    Some((status, error_body(message)))
}

/// Routing, admission, the handlers and the counters (see the module
/// docs).
pub(crate) struct Service {
    /// Registration order preserved for `/v1/stats`.
    models: Vec<Model>,
    pub(crate) sessions: SessionTable,
    /// Dispatched requests each model may have in flight; 0 sheds all.
    admission_limit: u64,
    /// Indexed by [`Route`].
    routes: [RouteCounter; 6],
    latencies: Mutex<Latencies>,
    request_log: Mutex<VecDeque<RequestLog>>,
    next_request_id: AtomicU64,
    started: Instant,
    /// One per reactor shard.
    pub(crate) shards: Vec<ShardCounters>,
    sink: Box<dyn Fn(Completion) + Send + Sync>,
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("models", &self.models)
            .field("sessions", &self.sessions)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Serves `models`, starting one scheduler worker per engine, with a
    /// session table of `session_capacity` warm sessions that is durable in
    /// `store` when one is given (its recovery scan runs here). Each model
    /// admits `admission_limit` dispatched requests at a time; every
    /// dispatched job's [`Completion`] goes to `sink`.
    ///
    /// # Errors
    ///
    /// Propagates the store's directory-level I/O failures.
    pub(crate) fn new(
        models: Vec<(String, Arc<EnginePool>)>,
        admission_limit: usize,
        session_capacity: usize,
        store: Option<(PathBuf, FsyncPolicy)>,
        shards: usize,
        sink: impl Fn(Completion) + Send + Sync + 'static,
    ) -> std::io::Result<Self> {
        let artifacts = models
            .iter()
            .map(|(name, pool)| (name.clone(), Arc::clone(pool.artifact())))
            .collect();
        let mut sessions = SessionTable::new(artifacts, session_capacity);
        if let Some((dir, fsync)) = store {
            sessions.adopt(dir, fsync)?;
        }
        let models = models
            .into_iter()
            .map(|(name, pool)| Model {
                // One worker per engine: the whole fleet serves. The pool's
                // engines must be free here (the scheduler's workers check
                // them out for the service's lifetime).
                scheduler: Scheduler::new(Arc::clone(&pool)),
                name,
                pool,
                requests: AtomicU64::default(),
                errors: AtomicU64::default(),
                inflight: AtomicU64::default(),
                shed: AtomicU64::default(),
            })
            .collect();
        Ok(Self {
            models,
            sessions,
            admission_limit: admission_limit as u64,
            routes: Default::default(),
            latencies: Mutex::default(),
            request_log: Mutex::default(),
            next_request_id: AtomicU64::new(1),
            started: Instant::now(),
            shards: (0..shards).map(|_| ShardCounters::default()).collect(),
            sink: Box::new(sink),
        })
    }

    /// Answers `request` inline, or dispatches it and returns `None`: the
    /// job's [`Completion`], carrying `reply_to`, then reaches the sink.
    pub(crate) fn handle(
        self: &Arc<Self>,
        request: &Request,
        reply_to: ReplyTo,
    ) -> Option<Response> {
        let request_id = request.request_id.clone().unwrap_or_else(|| {
            let id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
            format!("sne-{id:08x}")
        });
        let (route, method, id) = Route::resolve(&request.path);
        let origin = Origin {
            reply_to,
            route,
            request_id,
            keep_alive: request.keep_alive,
        };
        let (status, body) = match route {
            Route::Other => refuse(404, "unknown route"),
            _ if request.method != method => {
                refuse(405, &format!("{} takes {method}", request.path))
            }
            Route::Infer => self.infer(request, &origin),
            Route::StreamPush => self.push(id, request, &origin),
            Route::StreamClose => self.close(id),
            Route::Stats => Some((200, self.stats_body())),
            Route::Healthz => Some((200, self.healthz_body())),
        }?;
        self.log(&origin, status, 0.0, 0.0);
        Some(origin.respond(status, body))
    }

    /// Counts, logs and renders a dispatched job's completion — on the
    /// reactor thread, never on an engine-holding worker. The request
    /// finished whether or not its connection survived, so the caller
    /// finishes every completion; it returns where the response goes.
    pub(crate) fn finish(&self, completion: Completion) -> (ReplyTo, Response) {
        let Completion {
            origin,
            status,
            lane,
            queue_us,
            service_us,
            body,
        } = completion;
        self.log(&origin, status, queue_us, service_us);
        let mut members = match body {
            ResponseBody::Ready(body) => return (origin.reply_to, origin.respond(status, body)),
            ResponseBody::Infer { model, result } => {
                result_members(&self.models[model].name, &result)
            }
            ResponseBody::Push {
                model,
                session,
                output,
                chunks_pushed,
            } => vec![
                ("session", Json::from(session)),
                ("model", Json::from(self.models[model].name.as_str())),
                (
                    "start_timestep",
                    Json::from(u64::from(output.start_timestep)),
                ),
                ("timesteps", Json::from(u64::from(output.timesteps))),
                ("chunks_pushed", Json::from(chunks_pushed)),
                ("total_cycles", Json::from(output.stats.total_cycles)),
                ("events", events_json(&output.output)),
            ],
        };
        members.extend([
            ("lane", Json::from(lane)),
            ("queue_us", Json::from(queue_us)),
            ("service_us", Json::from(service_us)),
            ("request_id", Json::from(origin.request_id.as_str())),
        ]);
        let body = Json::obj(members).to_string();
        (origin.reply_to, origin.respond(status, body))
    }

    /// Open connections over every shard (including parked keep-alive ones
    /// and handed-off sockets awaiting adoption).
    pub(crate) fn open_connections(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.open.load(Ordering::Relaxed))
            .sum()
    }

    /// Counts a finished request under its route and keeps it in the
    /// recent-request ring.
    fn log(&self, origin: &Origin, status: u16, queue_us: f64, service_us: f64) {
        self.routes[origin.route as usize].hit(status);
        let mut log = lock_clean(&self.request_log);
        if log.len() == REQUEST_LOG_CAPACITY {
            log.pop_front();
        }
        log.push_back(RequestLog {
            id: origin.request_id.clone(),
            route: origin.route,
            status,
            queue_us,
            service_us,
        });
    }

    /// Claims one in-flight slot of `model`'s admission budget; a refusal
    /// counts the request as shed.
    fn admit(&self, model: &Model) -> bool {
        // fetch_add then correct: contention-free fast path, and the
        // transient overshoot is invisible (the slot is released before the
        // 429 returns).
        if model.inflight.fetch_add(1, Ordering::AcqRel) < self.admission_limit {
            return true;
        }
        model.inflight.fetch_sub(1, Ordering::AcqRel);
        model.shed.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// The one completion path of a dispatched job, on its serving worker:
    /// releases the admission slot, records the latencies, counts an error
    /// and sinks the raw outcome.
    fn complete(
        &self,
        model: usize,
        origin: Origin,
        outcome: Result<ResponseBody, (u16, String)>,
        lane: usize,
        queue_us: f64,
        service_us: f64,
    ) {
        let entry = &self.models[model];
        entry.inflight.fetch_sub(1, Ordering::AcqRel);
        {
            let mut guard = lock_clean(&self.latencies);
            let latencies = &mut *guard;
            for (series, sample) in [
                (&mut latencies.queue_us, queue_us),
                (&mut latencies.service_us, service_us),
            ] {
                if series.len() == RECORDER_WINDOW {
                    series.pop_front();
                }
                series.push_back(sample);
            }
        }
        let (status, body) = outcome.map_or_else(
            |(status, message)| {
                entry.errors.fetch_add(1, Ordering::Relaxed);
                (status, ResponseBody::Ready(error_body(&message)))
            },
            |body| (200, body),
        );
        (self.sink)(Completion {
            origin,
            status,
            lane,
            queue_us,
            service_us,
            body,
        });
    }

    fn infer(self: &Arc<Self>, request: &Request, origin: &Origin) -> Answer {
        let doc = match Json::parse(&request.body) {
            Ok(doc) => doc,
            Err(e) => return refuse(400, &e.to_string()),
        };
        let Some(name) = doc.get("model").and_then(Json::as_str) else {
            return refuse(400, "missing 'model'");
        };
        let Some(index) = self.models.iter().position(|m| m.name == name) else {
            return refuse(404, "unknown model");
        };
        let entry = &self.models[index];
        entry.requests.fetch_add(1, Ordering::Relaxed);
        let stream = match parse_event_stream(&doc, entry.pool.artifact()) {
            Ok(stream) => stream,
            Err(message) => return entry.fail(400, &message),
        };
        if !self.admit(entry) {
            return entry.fail(429, "admission queue full: retry later");
        }
        let (service, origin) = (Arc::clone(self), origin.clone());
        entry.scheduler.call_async(stream, None, move |record| {
            let outcome = match record.result {
                Ok(result) => Ok(ResponseBody::Infer {
                    model: index,
                    result,
                }),
                Err(error) => Err((400, error.to_string())),
            };
            let (lane, queue_us, service_us) = (record.lane, record.queue_us, record.service_us);
            service.complete(index, origin, outcome, lane, queue_us, service_us);
        });
        None
    }

    fn push(self: &Arc<Self>, id: &str, request: &Request, origin: &Origin) -> Answer {
        let doc = match Json::parse(&request.body) {
            Ok(doc) => doc,
            Err(e) => return refuse(400, &e.to_string()),
        };
        let chunk_seq = doc.get("chunk_seq").and_then(Json::as_u64);
        if doc.get("chunk_seq").is_some() && chunk_seq.is_none() {
            return refuse(400, "invalid 'chunk_seq' (must be an unsigned integer)");
        }
        let requested_model = doc.get("model").and_then(Json::as_str);
        let (checkout, client) = match self.sessions.checkout(id, requested_model, chunk_seq) {
            Ok(taken) => taken,
            Err(error) => {
                if let SessionError::Corrupt { model } | SessionError::Missing { model } = error {
                    // A push to a session whose snapshot is lost is a
                    // failed request of the model the session was bound to.
                    self.models[model].requests.fetch_add(1, Ordering::Relaxed);
                    self.models[model].errors.fetch_add(1, Ordering::Relaxed);
                }
                return session_refused(error);
            }
        };
        let index = checkout.model();
        let entry = &self.models[index];
        entry.requests.fetch_add(1, Ordering::Relaxed);
        let chunk = match parse_event_stream(&doc, entry.pool.artifact()) {
            Ok(chunk) => chunk,
            Err(message) => {
                self.sessions.abandon(checkout, client);
                return entry.fail(400, &message);
            }
        };
        if !self.admit(entry) {
            self.sessions.abandon(checkout, client);
            return entry.fail(429, "admission queue full: retry later");
        }
        let (service, origin, session) = (Arc::clone(self), origin.clone(), id.to_owned());
        let preferred_lane = checkout.preferred_lane;
        // Placed by the parked affinity hint. The callback settles the
        // checkout even when the connection has died, so a mid-stream
        // disconnect cannot wedge the session busy. The response is
        // rendered later, on a reactor thread; only the write-ahead park
        // stays on the worker, because crash recovery rests on its
        // ordering: snapshot on disk before the session is unmarked and
        // acknowledged.
        entry
            .scheduler
            .call_push_async(client, chunk, preferred_lane, move |record| {
                let chunks_pushed = record.client.chunks_pushed();
                let outcome = match record.result {
                    Ok(output) => match service.sessions.park(checkout, record.client, record.lane)
                    {
                        Ok(()) => Ok(ResponseBody::Push {
                            model: index,
                            session,
                            output,
                            chunks_pushed,
                        }),
                        Err(error) => Err((
                            503,
                            format!("write-ahead park failed, chunk not applied: {error}"),
                        )),
                    },
                    Err(error) => {
                        service.sessions.abandon(checkout, record.client);
                        Err((400, error.to_string()))
                    }
                };
                let (lane, queue_us, service_us) =
                    (record.lane, record.queue_us, record.service_us);
                service.complete(index, origin, outcome, lane, queue_us, service_us);
            });
        None
    }

    fn close(&self, id: &str) -> Answer {
        let (index, client) = match self.sessions.close(id) {
            Ok(closed) => closed,
            Err(error) => return session_refused(error),
        };
        let model = &self.models[index];
        let summary = model.pool.artifact().summary(&client);
        let mut members = result_members(&model.name, &summary);
        members.insert(0, ("session", Json::from(id)));
        members.push(("closed", Json::from(true)));
        members.push(("chunks_pushed", Json::from(client.chunks_pushed())));
        members.push((
            "elapsed_timesteps",
            Json::from(u64::from(client.elapsed_timesteps())),
        ));
        Some((200, Json::obj(members).to_string()))
    }

    fn healthz_body(&self) -> String {
        Json::obj(vec![
            ("status", Json::from("ok")),
            ("uptime_s", Json::from(self.started.elapsed().as_secs_f64())),
            ("connections", Json::from(self.open_connections())),
            ("shards", Json::from(self.shards.len())),
            ("models", Json::from(self.models.len())),
        ])
        .to_string()
    }

    fn stats_body(&self) -> String {
        let sessions = self.sessions.stats();
        let uptime_s = self.started.elapsed().as_secs_f64();
        let scheduled: Vec<SchedulerStats> =
            self.models.iter().map(|m| m.scheduler.stats()).collect();
        let completed: u64 = scheduled.iter().map(|s| s.completed).sum();
        let errors: u64 = scheduled.iter().map(|s| s.errors).sum();
        let throughput_rps = if uptime_s > 0.0 {
            completed as f64 / uptime_s
        } else {
            0.0
        };
        let models = Json::Obj(
            self.models
                .iter()
                .zip(&scheduled)
                .map(|(model, sched)| {
                    let plans = model.pool.artifact().plans();
                    let plan_entries: usize = plans.iter().map(|p| p.table_entries()).sum();
                    let plan_bytes: usize = plans.iter().map(|p| p.table_bytes()).sum();
                    let load = |counter: &AtomicU64| Json::from(counter.load(Ordering::Relaxed));
                    (
                        model.name.clone(),
                        Json::obj(vec![
                            ("requests", load(&model.requests)),
                            ("errors", load(&model.errors)),
                            ("lanes", Json::from(model.pool.lanes())),
                            ("plan_table_entries", Json::from(plan_entries)),
                            ("plan_table_bytes", Json::from(plan_bytes)),
                            ("workers", Json::from(model.scheduler.workers())),
                            ("pending", Json::from(model.scheduler.pending())),
                            ("inflight", load(&model.inflight)),
                            ("shed", load(&model.shed)),
                            ("steals", Json::from(sched.steals)),
                            ("affinity_hits", Json::from(sched.affinity_hits)),
                            ("affinity_misses", Json::from(sched.affinity_misses)),
                        ]),
                    )
                })
                .collect(),
        );
        let routes = Json::Obj(
            Route::NAMES
                .iter()
                .zip(&self.routes)
                .map(|(name, counter)| ((*name).to_owned(), counter.json()))
                .collect(),
        );
        let recent = Json::Arr(
            lock_clean(&self.request_log)
                .iter()
                .map(|entry| {
                    Json::obj(vec![
                        ("id", Json::from(entry.id.as_str())),
                        ("route", Json::from(Route::NAMES[entry.route as usize])),
                        ("status", Json::from(u64::from(entry.status))),
                        ("queue_us", Json::from(entry.queue_us)),
                        ("service_us", Json::from(entry.service_us)),
                    ])
                })
                .collect(),
        );
        let (queue, service) = {
            let mut latencies = lock_clean(&self.latencies);
            (
                LatencySummary::from_samples_us(latencies.queue_us.make_contiguous()),
                LatencySummary::from_samples_us(latencies.service_us.make_contiguous()),
            )
        };
        let shards = self.shards.iter().map(|s| {
            Json::obj(vec![
                ("accepted", Json::from(s.accepted.load(Ordering::Relaxed))),
                ("open", Json::from(s.open.load(Ordering::Relaxed))),
                ("evictions", Json::from(s.evictions.load(Ordering::Relaxed))),
            ])
        });
        let evictions: u64 = self
            .shards
            .iter()
            .map(|s| s.evictions.load(Ordering::Relaxed))
            .sum();
        let mut members = vec![
            ("uptime_s", Json::from(uptime_s)),
            ("completed", Json::from(completed)),
            ("errors", Json::from(errors)),
            ("throughput_rps", Json::from(throughput_rps)),
            ("active_streams", Json::from(sessions.warm)),
            ("connections", Json::from(self.open_connections())),
            ("evictions", Json::from(evictions)),
            ("shards", Json::Arr(shards.collect())),
            ("queue_latency_us", latency_json(&queue)),
            ("service_latency_us", latency_json(&service)),
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
}

pub(crate) fn error_body(message: &str) -> String {
    Json::obj(vec![("error", Json::from(message))]).to_string()
}

/// The answer to a refused session checkout or close.
fn session_refused(error: SessionError) -> Answer {
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
            return Some((409, body.to_string()));
        }
        SessionError::WrongModel => (400, "session is bound to a different model"),
        SessionError::ModelRequired => (400, "first push must name a 'model'"),
        SessionError::UnknownModel => (404, "unknown model"),
        SessionError::UnknownSession => (404, "unknown session"),
        SessionError::Busy => (409, "session busy: a push is in flight"),
        SessionError::Full => (503, "session table full: close idle sessions"),
        SessionError::Corrupt { .. } => (404, "session snapshot corrupted: session discarded"),
        SessionError::Missing { .. } => (404, "session snapshot missing: session discarded"),
    };
    refuse(status, message)
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

#[cfg(test)]
mod tests {
    use std::path::Path;
    use std::sync::mpsc;
    use std::time::Duration;

    use rand::SeedableRng;
    use sne::compile::CompiledNetwork;
    use sne::session::InferenceSession;
    use sne_model::topology::Topology;
    use sne_model::Shape;
    use sne_sim::SneConfig;

    use super::*;
    use crate::sessions::tests::{store_dir, store_file};

    fn network() -> Arc<CompiledNetwork> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let topology = Topology::tiny(Shape::new(2, 8, 8), 4, 3);
        Arc::new(CompiledNetwork::random(&topology, &mut rng).unwrap())
    }

    fn sample(seed: u64) -> EventStream {
        sne::proportionality::stream_with_activity((2, 8, 8), 16, 0.05, seed)
    }

    /// The body `client::infer_body` sends, with `extra` members first.
    fn body(model: &str, stream: &EventStream, extra: &str) -> String {
        let body = crate::client::infer_body(model, stream);
        format!("{{{extra}{}", &body[1..])
    }

    /// A request body without a `model`.
    const UNNAMED: &str = "{\"timesteps\":4,\"events\":[]}";

    /// A service over model "tiny" (one engine) whose sink is a channel.
    struct Harness {
        service: Arc<Service>,
        done: mpsc::Receiver<Completion>,
    }

    impl Harness {
        fn new(admission_limit: usize, session_capacity: usize, store: Option<&Path>) -> Self {
            let config = SneConfig::with_slices(2);
            let pool = EnginePool::for_network(network(), config, 1);
            let models = vec![("tiny".to_owned(), Arc::new(pool.unwrap()))];
            let store = store.map(|dir| (dir.to_path_buf(), FsyncPolicy::Never));
            let (sink, done) = mpsc::channel();
            let service = Service::new(
                models,
                admission_limit,
                session_capacity,
                store,
                1,
                move |c| {
                    sink.send(c).expect("the harness holds the receiver");
                },
            );
            Self {
                service: Arc::new(service.unwrap()),
                done,
            }
        }

        /// Sends one request; a dispatched one is awaited on the sink and
        /// finished as the reactor would.
        fn call(&self, method: &str, path: &str, body: &str) -> (u16, Json) {
            let request = Request {
                method: method.to_owned(),
                path: path.to_owned(),
                body: body.to_owned(),
                keep_alive: true,
                request_id: None,
            };
            let to = ReplyTo {
                shard: 0,
                token: 5,
                gen: 2,
            };
            let response = self.service.handle(&request, to).unwrap_or_else(|| {
                let completion = self.done.recv_timeout(Duration::from_secs(60)).unwrap();
                let (reply_to, response) = self.service.finish(completion);
                assert_eq!(reply_to, to);
                response
            });
            assert!(response.keep_alive);
            assert!(response.request_id.unwrap().starts_with("sne-"));
            (response.status, Json::parse(&response.body).unwrap())
        }

        /// Asserts `status` and an `error` body.
        fn refused(&self, method: &str, path: &str, body: &str, status: u16) -> Json {
            let (got, doc) = self.call(method, path, body);
            assert_eq!(got, status, "{method} {path} {body}: {doc}");
            assert!(doc.get("error").and_then(Json::as_str).is_some(), "{doc}");
            doc
        }

        fn stats(&self) -> Json {
            self.call("GET", "/v1/stats", "").1
        }
    }

    fn count(doc: &Json, path: &[&str]) -> u64 {
        let found = path.iter().try_fold(doc, |doc, key| doc.get(key));
        found
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{path:?} in {doc}"))
    }

    /// Asserts the served fields `serve_end_to_end` compares.
    fn assert_result(doc: &Json, expected: &InferenceResult) {
        let counts: Vec<u64> = expected
            .output_spike_counts
            .iter()
            .map(|&c| u64::from(c))
            .collect();
        let served: Vec<u64> = doc
            .get("output_spike_counts")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|c| c.as_u64().unwrap())
            .collect();
        assert_eq!(served, counts);
        assert_eq!(
            count(doc, &["predicted_class"]),
            expected.predicted_class as u64
        );
        assert_eq!(count(doc, &["total_cycles"]), expected.stats.total_cycles);
        assert_eq!(count(doc, &["synaptic_ops"]), expected.stats.synaptic_ops);
        for (key, value) in [
            ("energy_uj", expected.energy.energy_uj),
            ("inference_time_ms", expected.inference_time_ms),
            ("inference_rate", expected.inference_rate),
            ("mean_activity", expected.mean_activity),
        ] {
            let served = doc.get(key).and_then(Json::as_f64).map(f64::to_bits);
            assert_eq!(served, Some(value.to_bits()), "{key}");
        }
    }

    #[test]
    fn infer_push_and_close_match_a_direct_session() {
        let harness = Harness::new(4, 4, None);
        let mut direct = InferenceSession::new(network(), SneConfig::with_slices(2)).unwrap();
        let stream = sample(40);
        let (status, doc) = harness.call("POST", "/v1/infer", &body("tiny", &stream, ""));
        assert_eq!(status, 200, "{doc}");
        assert_result(&doc, &direct.infer(&stream).unwrap());
        assert_eq!(count(&doc, &["lane"]), 0);

        let mut direct = InferenceSession::new(network(), SneConfig::with_slices(2)).unwrap();
        let feed = sample(70);
        for (i, chunk) in feed.chunks(4).enumerate() {
            let (status, doc) =
                harness.call("POST", "/v1/stream/s/push", &body("tiny", &chunk, ""));
            assert_eq!(status, 200, "{doc}");
            let expected = direct.push(&chunk).unwrap();
            assert_eq!(
                count(&doc, &["start_timestep"]),
                u64::from(expected.start_timestep)
            );
            assert_eq!(count(&doc, &["timesteps"]), u64::from(expected.timesteps));
            assert_eq!(count(&doc, &["total_cycles"]), expected.stats.total_cycles);
            assert_eq!(count(&doc, &["chunks_pushed"]), i as u64 + 1);
            let spikes = |doc: &Json| -> Vec<Vec<u64>> {
                let events = doc.get("events").and_then(Json::as_array).unwrap();
                events
                    .iter()
                    .map(|e| {
                        e.as_array()
                            .unwrap()
                            .iter()
                            .map(|f| f.as_u64().unwrap())
                            .collect()
                    })
                    .collect()
            };
            let output = expected.output.iter().filter(|e| e.is_spike());
            let direct_spikes: Vec<Vec<u64>> = output
                .map(|e| {
                    vec![
                        u64::from(e.t),
                        u64::from(e.ch),
                        u64::from(e.x),
                        u64::from(e.y),
                    ]
                })
                .collect();
            assert_eq!(spikes(&doc), direct_spikes);
        }
        let (status, doc) = harness.call("POST", "/v1/stream/s/close", "");
        assert_eq!(status, 200, "{doc}");
        assert_result(&doc, &direct.summary());
        assert_eq!(doc.get("closed"), Some(&Json::Bool(true)));
        assert_eq!(count(&doc, &["elapsed_timesteps"]), 16);
        assert_eq!(harness.service.sessions.stats().warm, 0);
    }

    #[test]
    fn malformed_requests_answer_400() {
        let harness = Harness::new(4, 4, None);
        let stream = sample(3);
        let huge = format!(
            "{{\"model\":\"tiny\",\"timesteps\":{},\"events\":[]}}",
            MAX_REQUEST_TIMESTEPS + 1
        );
        for bad in [
            "not json at all".to_owned(),
            UNNAMED.to_owned(),
            "{\"model\":\"tiny\",\"timesteps\":4,\"events\":[[0,0,400,0]]}".to_owned(),
            huge,
            "[".repeat(100_000),
        ] {
            harness.refused("POST", "/v1/infer", &bad, 400);
        }
        let push = "/v1/stream/s/push";
        harness.refused(
            "POST",
            push,
            &body("tiny", &stream, "\"chunk_seq\":1.5,"),
            400,
        );
        harness.refused("POST", push, UNNAMED, 400);
        assert_eq!(
            harness.call("POST", push, &body("tiny", &stream, "")).0,
            200
        );
        let doc = harness.refused("POST", push, &body("other", &stream, ""), 400);
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("session is bound to a different model")
        );
        // Only the requests that named a registered model count for it.
        let stats = harness.stats();
        assert_eq!(count(&stats, &["models", "tiny", "requests"]), 3);
        assert_eq!(count(&stats, &["models", "tiny", "errors"]), 2);
        assert_eq!(count(&stats, &["routes", "infer", "errors"]), 5);
        assert_eq!(count(&stats, &["routes", "stream_push", "requests"]), 4);
        assert_eq!(count(&stats, &["routes", "stream_push", "errors"]), 3);
    }

    #[test]
    fn unknown_models_sessions_and_routes_answer_404_and_wrong_methods_405() {
        let harness = Harness::new(4, 4, None);
        harness.refused("POST", "/v1/infer", &body("nope", &sample(1), ""), 404);
        harness.refused(
            "POST",
            "/v1/stream/s/push",
            &body("nope", &sample(1), ""),
            404,
        );
        harness.refused("POST", "/v1/stream/s/close", "", 404);
        harness.refused("POST", "/v1/stream/s/other", "", 404);
        harness.refused("GET", "/v1/elsewhere", "", 404);
        // A known path with the wrong method is a 405 of its own route.
        for (method, path) in [
            ("GET", "/v1/infer"),
            ("POST", "/v1/stats"),
            ("POST", "/healthz"),
            ("GET", "/v1/stream/s/push"),
            ("GET", "/v1/stream/s/close"),
        ] {
            harness.refused(method, path, "", 405);
        }
        let stats = harness.stats();
        for (route, requests, errors) in [
            ("infer", 2, 2),
            ("stream_push", 2, 2),
            ("stream_close", 2, 2),
            ("stats", 1, 1),
            ("healthz", 1, 1),
            ("other", 2, 2),
        ] {
            assert_eq!(
                count(&stats, &["routes", route, "requests"]),
                requests,
                "{route}"
            );
            assert_eq!(
                count(&stats, &["routes", route, "errors"]),
                errors,
                "{route}"
            );
        }
        let recent = stats
            .get("recent_requests")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(recent.len(), 10);
        assert_eq!(recent[6].get("route").and_then(Json::as_str), Some("stats"));
        assert_eq!(count(&recent[6], &["status"]), 405);
    }

    #[test]
    fn a_corrupt_cold_snapshot_answers_404_and_counts_a_failed_request() {
        let dir = store_dir("service-corrupt");
        let harness = Harness::new(4, 1, Some(&dir));
        let push = |id: &str| {
            harness
                .call(
                    "POST",
                    &format!("/v1/stream/{id}/push"),
                    &body("tiny", &sample(2), ""),
                )
                .0
        };
        assert_eq!((push("s"), push("t")), (200, 200));
        // `t` demoted `s` to the disk tier; its snapshot is then damaged.
        let snap = store_file(&dir, "s", "snap");
        let mut bytes = std::fs::read(&snap).unwrap();
        *bytes.last_mut().unwrap() ^= 0x40;
        std::fs::write(&snap, bytes).unwrap();
        let path = "/v1/stream/s/push";
        harness.refused("POST", path, &body("tiny", &sample(2), ""), 404);
        let stats = harness.stats();
        assert_eq!(count(&stats, &["models", "tiny", "requests"]), 3);
        assert_eq!(count(&stats, &["models", "tiny", "errors"]), 1);
        assert_eq!(count(&stats, &["durability", "corrupt_discarded"]), 1);
        // The session is gone.
        harness.refused("POST", "/v1/stream/s/close", "", 404);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_cold_snapshot_answers_404_and_counts_a_failed_request() {
        let dir = store_dir("service-missing");
        let harness = Harness::new(4, 1, Some(&dir));
        let push = |id: &str| {
            harness
                .call(
                    "POST",
                    &format!("/v1/stream/{id}/push"),
                    &body("tiny", &sample(2), ""),
                )
                .0
        };
        assert_eq!((push("s"), push("t")), (200, 200));
        // `t` demoted `s` to the disk tier; its snapshot then vanishes.
        std::fs::remove_file(store_file(&dir, "s", "snap")).unwrap();
        let path = "/v1/stream/s/push";
        harness.refused("POST", path, &body("tiny", &sample(2), ""), 404);
        let stats = harness.stats();
        assert_eq!(count(&stats, &["models", "tiny", "requests"]), 3);
        assert_eq!(count(&stats, &["models", "tiny", "errors"]), 1);
        assert_eq!(count(&stats, &["durability", "corrupt_discarded"]), 1);
        harness.refused("POST", "/v1/stream/s/close", "", 404);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_busy_session_or_a_chunk_seq_mismatch_answers_409() {
        let harness = Harness::new(4, 4, None);
        let path = "/v1/stream/s/push";
        assert_eq!(
            harness.call("POST", path, &body("tiny", &sample(4), "")).0,
            200
        );
        // A push in flight holds the session, as a checkout here does.
        let (checkout, client) = harness.service.sessions.checkout("s", None, None).unwrap();
        harness.refused("POST", path, &body("tiny", &sample(4), ""), 409);
        harness.refused("POST", "/v1/stream/s/close", "", 409);
        harness.service.sessions.abandon(checkout, client);
        let doc = harness.refused(
            "POST",
            path,
            &body("tiny", &sample(4), "\"chunk_seq\":0,"),
            409,
        );
        assert_eq!(count(&doc, &["chunks_pushed"]), 1);
        assert_eq!(count(&doc, &["got_chunk_seq"]), 0);
        let (status, doc) =
            harness.call("POST", path, &body("tiny", &sample(4), "\"chunk_seq\":1,"));
        assert_eq!((status, count(&doc, &["chunks_pushed"])), (200, 2));
    }

    #[test]
    fn an_admission_limit_of_zero_sheds_every_dispatch_with_429() {
        let harness = Harness::new(0, 4, None);
        harness.refused("POST", "/v1/infer", &body("tiny", &sample(5), ""), 429);
        harness.refused(
            "POST",
            "/v1/stream/s/push",
            &body("tiny", &sample(5), ""),
            429,
        );
        // A shed first push creates no session.
        assert_eq!(harness.service.sessions.stats().warm, 0);
        let stats = harness.stats();
        let tiny = &["models", "tiny"];
        for (key, value) in [("requests", 2), ("errors", 2), ("shed", 2), ("inflight", 0)] {
            assert_eq!(count(&stats, &[tiny[0], tiny[1], key]), value, "{key}");
        }
        assert_eq!(count(&stats, &["completed"]), 0);
    }

    #[test]
    fn a_full_table_or_a_failed_park_answers_503() {
        let harness = Harness::new(4, 1, None);
        let push = |harness: &Harness, id: &str| {
            harness.call(
                "POST",
                &format!("/v1/stream/{id}/push"),
                &body("tiny", &sample(6), ""),
            )
        };
        assert_eq!(push(&harness, "a").0, 200);
        let (status, doc) = push(&harness, "b");
        assert_eq!(status, 503, "{doc}");

        // A directory at the session's `.tmp` path fails its park.
        let dir = store_dir("service-park");
        let durable = Harness::new(4, 4, Some(&dir));
        std::fs::create_dir_all(store_file(&dir, "s", "tmp")).unwrap();
        let (status, doc) = push(&durable, "s");
        assert_eq!(status, 503, "{doc}");
        let stats = durable.stats();
        assert_eq!(count(&stats, &["durability", "park_failures"]), 1);
        assert_eq!(count(&stats, &["models", "tiny", "errors"]), 1);
        // The engine served the chunk; only the park failed.
        assert_eq!(
            (count(&stats, &["completed"]), count(&stats, &["errors"])),
            (1, 0)
        );
        assert_eq!(durable.service.sessions.stats().warm, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn healthz_and_stats_report_every_key_readers_use() {
        let dir = store_dir("service-stats");
        let harness = Harness::new(4, 4, Some(&dir));
        let (status, health) = harness.call("GET", "/healthz", "");
        assert_eq!(status, 200);
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        assert!(health.get("uptime_s").and_then(Json::as_f64).is_some());
        for (key, value) in [("connections", 0), ("shards", 1), ("models", 1)] {
            assert_eq!(count(&health, &[key]), value, "{key}");
        }
        for id in ["a", "a", "b"] {
            let path = format!("/v1/stream/{id}/push");
            assert_eq!(
                harness.call("POST", &path, &body("tiny", &sample(8), "")).0,
                200
            );
        }
        assert_eq!(
            harness
                .call("POST", "/v1/infer", &body("tiny", &sample(9), ""))
                .0,
            200
        );

        let stats = harness.stats();
        assert_eq!(count(&stats, &["completed"]), 4);
        assert_eq!(count(&stats, &["errors"]), 0);
        assert_eq!(count(&stats, &["service_latency_us", "count"]), 4);
        let tiny = |key| count(&stats, &["models", "tiny", key]);
        assert_eq!(
            (
                tiny("requests"),
                tiny("errors"),
                tiny("shed"),
                tiny("steals")
            ),
            (4, 0, 0, 0)
        );
        // The second push to `a` carried its lane as the affinity hint.
        assert_eq!((tiny("affinity_hits"), tiny("affinity_misses")), (1, 0));
        for route in Route::NAMES {
            assert!(
                stats.get("routes").and_then(|r| r.get(route)).is_some(),
                "{route}"
            );
        }
        assert_eq!(count(&stats, &["routes", "stream_push", "requests"]), 3);
        assert_eq!(count(&stats, &["routes", "healthz", "requests"]), 1);
        for key in [
            "parked_to_disk",
            "faulted_in",
            "recovered_on_boot",
            "corrupt_discarded",
            "park_failures",
            "remove_failures",
            "cold_sessions",
        ] {
            assert_eq!(count(&stats, &["durability", key]), 0, "{key}");
        }
        let shards = stats.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(count(&shards[0], &["accepted"]), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
