//! The `serve-mixed` workload: an in-process `ServerBuilder` server (the
//! 16x16 tiny model on 2 engine lanes, a durable store with
//! `FsyncPolicy::Never`, a warm capacity of 8) driven over loopback by at
//! most two client threads, in two phases:
//!
//! 1. Open loop at frozen rates. One-shot infers arrive on one connection;
//!    sensor-style pushes arrive on the other, spread over more sessions than
//!    the warm capacity on a skewed schedule, so warm pushes and fault-ins
//!    both occur. Each session closes after a fixed number of chunks.
//!    Latency is timed from each request's due time.
//! 2. Closed loop on two connections, back to back: the serving capacity.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use sne::artifact::{ClientState, RuntimeArtifact};
use sne::compile::CompiledNetwork;
use sne::run::InferenceResult;
use sne::session::InferenceSession;
use sne::sne_store::SessionStore;
use sne_event::EventStream;
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_serve::client::{self, Connection};
use sne_serve::{FsyncPolicy, Json, Server, ServerBuilder};
use sne_sim::{ExecStrategy, SneConfig};

use crate::stats::{calm_pool, median, Samples, Window, WINDOWS};
use crate::trace::Tracer;
use crate::walk::{Ledger, Walk};
use crate::{Args, Report};

const MODEL: &str = "tiny";
const RESOLUTION: u16 = 16;
const HIDDEN: u16 = 8;
const CLASSES: u16 = 5;
const NETWORK_SEED: u64 = 5;
const SLICES: usize = 4;
const LANES: usize = 2;
const WARM_CAPACITY: usize = 8;
const ACTIVITY: f64 = 0.03;
const INFER_TIMESTEPS: u32 = 12;
const INFER_BODIES: u64 = 16;
const CHUNK_TIMESTEPS: u32 = 4;
const CHUNKS_PER_SESSION: u32 = 8;
/// Concurrently open push sessions: more than the warm capacity.
const SESSION_SLOTS: usize = 12;
/// Frozen open-loop rates (about 40 % of the capacity measured on a 2-core
/// host); never recomputed per run.
const INFER_RATE: f64 = 1500.0;
const PUSH_RATE: f64 = 500.0;
/// The fixed latency limit behind `serve.slo_miss_frac`.
const SLO_US: f64 = 2000.0;
/// Share of `--seconds` given to the open-loop phase; the closed loop gets
/// the rest.
const OPEN_SHARE: f64 = 0.6;
const SETUP_REPEATS: usize = 15;
/// Tail percentile of both routes. The calm half of a run holds thousands
/// of samples per route, but beyond p95 the shared host's own pauses of
/// 5-15 ms (a sleeping thread's wake-up is that late about once a second,
/// server or no server) decide the value, not the program.
const TAIL: f64 = 95.0;
/// Passes of the traced walk over the verification inputs.
const WALK_PASSES: usize = 50;
/// How long before a request's due time the generator stops sleeping and
/// spins.
const SPIN_WINDOW: Duration = Duration::from_micros(500);

/// Per-layer metrics only the serving stack produces (they read 0 on the
/// in-process workloads).
pub const SERVE_ONLY_METRICS: [(&str, &str); 14] = [
    ("batch.queue_us_p50.infer", "us"),
    ("batch.queue_us_p50.push", "us"),
    ("batch.service_us_p50.infer", "us"),
    ("batch.service_us_p50.push", "us"),
    ("batch.steals", "count"),
    ("batch.coalesced", "count"),
    ("batch.affinity_hit_frac", "frac"),
    ("serve.outside_us_p50.infer", "us"),
    ("serve.outside_us_p50.push", "us"),
    ("serve.json_decode_us", "us"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("serve.gen_late_us_p99", "us"),
    ("serve.slo_miss_frac", "frac"),
];

fn compile() -> CompiledNetwork {
    let topology = Topology::tiny(Shape::new(2, RESOLUTION, RESOLUTION), HIDDEN, CLASSES);
    let mut rng = rand::rngs::StdRng::seed_from_u64(NETWORK_SEED);
    CompiledNetwork::random(&topology, &mut rng).expect("the tiny topology compiles")
}

fn config() -> SneConfig {
    SneConfig::with_slices(SLICES)
}

/// One scheduled push (and, after a session's last chunk, its close).
struct PushOp {
    session: u64,
    body: String,
    closes: bool,
}

/// The fields of a served result that must equal the direct session's.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    predicted_class: u64,
    output_spike_counts: Vec<u64>,
    total_cycles: u64,
    synaptic_ops: u64,
    energy_bits: u64,
}

impl Fingerprint {
    fn of(result: &InferenceResult) -> Self {
        Self {
            predicted_class: result.predicted_class as u64,
            output_spike_counts: result
                .output_spike_counts
                .iter()
                .map(|&c| u64::from(c))
                .collect(),
            total_cycles: result.stats.total_cycles,
            synaptic_ops: result.stats.synaptic_ops,
            energy_bits: result.energy.energy_uj.to_bits(),
        }
    }

    fn parse(body: &str) -> Option<Self> {
        let doc = Json::parse(body).ok()?;
        let u = |key: &str| doc.get(key).and_then(Json::as_u64);
        Some(Self {
            predicted_class: u("predicted_class")?,
            output_spike_counts: doc
                .get("output_spike_counts")?
                .as_array()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<_>>()?,
            total_cycles: u("total_cycles")?,
            synaptic_ops: u("synaptic_ops")?,
            energy_bits: doc.get("energy_uj")?.as_f64()?.to_bits(),
        })
    }
}

/// The push schedule of the open-loop phase: a skewed choice of session
/// slot per push (slot `s` weighs `1/(s+1)`), so a few hot sessions stay
/// warm and the rest are demoted to disk and fault back in.
fn push_schedule(seed: u64, pushes: usize) -> Vec<(usize, u64, u32)> {
    let weights: Vec<f64> = (0..SESSION_SLOTS).map(|s| 1.0 / (s + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5e55_1011);
    let mut slot_session: Vec<u64> = (0..SESSION_SLOTS as u64).collect();
    let mut slot_chunks = [0u32; SESSION_SLOTS];
    let mut next_session = SESSION_SLOTS as u64;
    let mut schedule = Vec::with_capacity(pushes);
    for _ in 0..pushes {
        let mut u = rng.gen::<f64>() * total;
        let slot = weights
            .iter()
            .position(|&w| {
                u -= w;
                u < 0.0
            })
            .unwrap_or(SESSION_SLOTS - 1);
        slot_chunks[slot] += 1;
        schedule.push((slot, slot_session[slot], slot_chunks[slot]));
        if slot_chunks[slot] == CHUNKS_PER_SESSION {
            slot_chunks[slot] = 0;
            slot_session[slot] = next_session;
            next_session += 1;
        }
    }
    schedule
}

fn stream(seed: u64, timesteps: u32) -> EventStream {
    sne::proportionality::stream_with_activity(
        (2, RESOLUTION, RESOLUTION),
        timesteps,
        ACTIVITY,
        seed,
    )
}

/// One client-observed request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    route: Route,
    request: u64,
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
    shed: bool,
    request_bytes: usize,
    response_bytes: usize,
    queue_us: f64,
    service_us: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Infer,
    Push,
    Close,
}

impl Sample {
    fn latency_us(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e6
    }

    fn late_us(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e6
    }

    /// Client latency from the send outside the server's queue and service
    /// time: wire, reactor, parse, render.
    fn outside_us(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64() * 1e6 - self.queue_us - self.service_us
    }
}

/// One client connection of the load generator. With `parse` (traced runs
/// only) every response's queue/service fields are read back.
struct Client {
    conn: Connection,
    addr: SocketAddr,
    parse: bool,
}

impl Client {
    fn connect(addr: SocketAddr, parse: bool) -> Self {
        Self {
            conn: Connection::connect(addr).expect("connect"),
            addr,
            parse,
        }
    }

    /// Sends one request and records it; the body is returned for checks.
    /// A broken connection counts as a failed request and is replaced.
    fn send(
        &mut self,
        route: Route,
        request: u64,
        due: Instant,
        path: &str,
        body: &str,
    ) -> (Sample, String) {
        let sent = Instant::now();
        let response = self.conn.post(path, body);
        let done = Instant::now();
        let (status, text) = response.unwrap_or_else(|_| {
            if let Ok(fresh) = Connection::connect(self.addr) {
                self.conn = fresh;
            }
            (0, String::new())
        });
        let (mut queue_us, mut service_us) = (0.0, 0.0);
        if self.parse && status == 200 {
            if let Ok(doc) = Json::parse(&text) {
                queue_us = doc.get("queue_us").and_then(Json::as_f64).unwrap_or(0.0);
                service_us = doc.get("service_us").and_then(Json::as_f64).unwrap_or(0.0);
            }
        }
        let sample = Sample {
            route,
            request,
            due,
            sent,
            done,
            ok: status == 200,
            shed: status == 429,
            request_bytes: body.len(),
            response_bytes: text.len(),
            queue_us,
            service_us,
        };
        (sample, text)
    }
}

fn start_server(store_dir: &std::path::Path) -> Server {
    ServerBuilder::new()
        .register(MODEL, compile(), config(), LANES, ExecStrategy::Sequential)
        .expect("the tiny model registers")
        .durable_store(store_dir)
        .fsync_policy(FsyncPolicy::Never)
        .session_capacity(WARM_CAPACITY)
        .start("127.0.0.1:0")
        .expect("the server starts")
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let open_secs = args.seconds * OPEN_SHARE;
    let closed_secs = args.seconds - open_secs;

    // ---- inputs (untimed) --------------------------------------------------
    let infer_streams: Vec<EventStream> = (0..INFER_BODIES)
        .map(|i| {
            stream(
                args.seed.wrapping_mul(1 << 20).wrapping_add(i),
                INFER_TIMESTEPS,
            )
        })
        .collect();
    let infer_bodies: Vec<String> = infer_streams
        .iter()
        .map(|s| client::infer_body(MODEL, s))
        .collect();
    let pushes = (PUSH_RATE * open_secs) as usize;
    let schedule = push_schedule(args.seed, pushes);
    let chunk_seed = args.seed.wrapping_mul(1 << 20).wrapping_add(1 << 16);
    let chunks: Vec<EventStream> = (0..pushes as u64)
        .map(|j| stream(chunk_seed.wrapping_add(j), CHUNK_TIMESTEPS))
        .collect();
    let ops: Vec<PushOp> = schedule
        .iter()
        .zip(&chunks)
        .map(|(&(_, session, chunk_no), chunk)| PushOp {
            session,
            body: client::infer_body(MODEL, chunk),
            closes: chunk_no == CHUNKS_PER_SESSION,
        })
        .collect();

    // ---- expected results from direct sessions (untimed) ------------------
    let direct =
        Arc::new(RuntimeArtifact::new(compile(), config()).expect("the tiny artifact builds"));
    let mut engine = direct.new_engine(ExecStrategy::Sequential);
    let mut clients: HashMap<u64, ClientState> = HashMap::new();
    let mut expected_close: HashMap<u64, Fingerprint> = HashMap::new();
    let scratch_dir = crate::out_dir().join(format!("store-direct-{}", std::process::id()));
    let mut scratch = if tracer.enabled() {
        let _ = std::fs::remove_dir_all(&scratch_dir);
        Some(SessionStore::open(&scratch_dir, FsyncPolicy::Never).expect("the scratch store opens"))
    } else {
        None
    };
    let [mut encode_us, mut decode_us, mut park_us, mut load_us, mut snapshot_bytes]: [Samples; 5] =
        Default::default();
    for (j, (op, chunk)) in ops.iter().zip(&chunks).enumerate() {
        let client = clients
            .entry(op.session)
            .or_insert_with(|| direct.new_client());
        let pushed = direct.push(&mut engine, client, chunk, true).is_ok();
        report.check(pushed);
        if let Some(store) = scratch.as_mut() {
            // The store layer in isolation, on the same session states the
            // server parks: encode, park, load, decode.
            let request = j as u64;
            let (bytes, us) = tracer.span("store.encode", request, None, || {
                direct.snapshot_client(client)
            });
            encode_us.push(us);
            snapshot_bytes.push(bytes.len() as f64);
            let id = format!("s{}", op.session);
            let (_, us) = tracer.span("store.park", request, None, || store.park(&id, &bytes));
            park_us.push(us);
            let (loaded, us) = tracer.span("store.load", request, None, || store.load(&id));
            load_us.push(us);
            let loaded = loaded.ok().flatten().unwrap_or_default();
            let (restored, us) = tracer.span("store.decode", request, None, || {
                direct.restore_client(&loaded)
            });
            decode_us.push(us);
            report.check(restored.is_ok_and(|r| r == *client));
        }
        if op.closes {
            let client = clients.remove(&op.session).expect("the session is open");
            expected_close.insert(op.session, Fingerprint::of(&direct.summary(&client)));
            if let Some(store) = scratch.as_mut() {
                let _ = store.remove(&format!("s{}", op.session));
            }
        }
    }
    for (session, client) in &clients {
        expected_close.insert(*session, Fingerprint::of(&direct.summary(client)));
    }
    drop(scratch);
    let _ = std::fs::remove_dir_all(&scratch_dir);

    // ---- set-up: compile, build plans, start the server --------------------
    let network = compile();
    let mut plans_ms = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (_, us) = tracer.span("compile.build_plans", 0, None, || network.build_plans());
        plans_ms.push(us / 1e3);
    }
    let plan_bytes: usize = direct.plans().iter().map(|p| p.table_bytes()).sum();
    let mut setup_s = Vec::new();
    let mut server = None;
    let mut store_dir = std::path::PathBuf::new();
    for k in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous);
            let _ = std::fs::remove_dir_all(&store_dir);
        }
        store_dir = crate::out_dir().join(format!("store-serve-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let start = Instant::now();
        server = Some(start_server(&store_dir));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let server = server.expect("set-up ran");
    let addr = server.addr();

    // ---- verification pass: served == direct session ----------------------
    let mut session =
        InferenceSession::from_artifact(Arc::clone(&direct), ExecStrategy::Sequential);
    let mut conn = Connection::connect(addr).expect("connect");
    let mut sops_of = Vec::with_capacity(infer_streams.len());
    for (stream, body) in infer_streams.iter().zip(&infer_bodies) {
        let expected = session.infer(stream).expect("direct inference");
        sops_of.push(expected.stats.synaptic_ops);
        let served = conn
            .post("/v1/infer", body)
            .ok()
            .and_then(|(status, body)| {
                (status == 200).then(|| Fingerprint::parse(&body)).flatten()
            });
        report.check(served == Some(Fingerprint::of(&expected)));
    }
    let mut ledger = Ledger::default();
    if tracer.enabled() {
        let mut walk_engine = direct.new_engine(ExecStrategy::Sequential);
        let mut request = 0u64;
        for _ in 0..WALK_PASSES {
            for stream in &infer_streams {
                request += 1;
                let span = tracer.open("session.infer", request, None);
                let start = Instant::now();
                let result = session.infer(stream).expect("direct inference");
                let ns = start.elapsed().as_nanos() as u64;
                tracer.close(span);
                match Walk::run(
                    tracer,
                    request,
                    &mut walk_engine,
                    direct.network(),
                    direct.plans(),
                    stream,
                ) {
                    Ok(walk) => ledger.add(ns, &result, &walk),
                    Err(_) => ledger.mismatches += 1,
                }
            }
        }
    }
    // Untimed warm-up: a fresh server's first requests pay one-time costs.
    let warm_until = Instant::now() + Duration::from_millis(300);
    let mut k = 0usize;
    while Instant::now() < warm_until {
        let _ = conn.post("/v1/infer", &infer_bodies[k % infer_bodies.len()]);
        k += 1;
    }
    drop(conn);

    // ---- phase 1: open loop ------------------------------------------------
    let parse = tracer.enabled();
    let infers = (INFER_RATE * open_secs) as usize;
    let t0 = Instant::now() + Duration::from_millis(5);
    let (infer_samples, (push_samples, closes)) = std::thread::scope(|scope| {
        let infer = scope.spawn(|| {
            let mut client = Client::connect(addr, parse);
            let mut samples = Vec::with_capacity(infers);
            for k in 0..infers {
                let due = t0 + Duration::from_secs_f64(k as f64 / INFER_RATE);
                sleep_until(due);
                let body = &infer_bodies[k % infer_bodies.len()];
                samples.push(
                    client
                        .send(Route::Infer, k as u64, due, "/v1/infer", body)
                        .0,
                );
            }
            samples
        });
        let push = scope.spawn(|| {
            let mut client = Client::connect(addr, parse);
            let mut samples = Vec::with_capacity(ops.len() * 9 / 8);
            let mut closes = Vec::new();
            for (j, op) in ops.iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(j as f64 / PUSH_RATE);
                sleep_until(due);
                let path = format!("/v1/stream/s{}/push", op.session);
                samples.push(client.send(Route::Push, j as u64, due, &path, &op.body).0);
                if op.closes {
                    let path = format!("/v1/stream/s{}/close", op.session);
                    let (sample, body) =
                        client.send(Route::Close, j as u64, Instant::now(), &path, "");
                    samples.push(sample);
                    closes.push((op.session, Fingerprint::parse(&body)));
                }
            }
            (samples, closes)
        });
        (
            infer.join().expect("the infer client ran"),
            push.join().expect("the push client ran"),
        )
    });

    // ---- phase 2: closed loop, two connections -----------------------------
    let closed_start = Instant::now();
    let window_secs = closed_secs / WINDOWS as f64;
    let deadline = closed_start + Duration::from_secs_f64(closed_secs);
    let per_client: Vec<(Vec<Window>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2usize)
            .map(|c| {
                let (infer_bodies, sops_of) = (&infer_bodies, &sops_of);
                scope.spawn(move || {
                    let mut conn = Connection::connect(addr).expect("connect");
                    let mut windows = vec![Window::default(); WINDOWS];
                    let mut failed = 0u64;
                    let mut k = c;
                    loop {
                        let sent = Instant::now();
                        if sent >= deadline {
                            break;
                        }
                        let body = &infer_bodies[k % infer_bodies.len()];
                        match conn.post("/v1/infer", body) {
                            Ok((200, _)) => {
                                let done = Instant::now();
                                let at =
                                    done.duration_since(closed_start).as_secs_f64() / window_secs;
                                let us = done.duration_since(sent).as_secs_f64() * 1e6;
                                windows[(at as usize).min(WINDOWS - 1)]
                                    .add(us, sops_of[k % sops_of.len()]);
                            }
                            _ => failed += 1,
                        }
                        k += 2;
                    }
                    (windows, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a closed-loop client ran"))
            .collect()
    });

    // ---- close what is still open, read the server's counters --------------
    let mut conn = Connection::connect(addr).expect("connect");
    let mut closes = closes;
    let closed: std::collections::HashSet<u64> = closes.iter().map(|(s, _)| *s).collect();
    let mut open: Vec<u64> = ops
        .iter()
        .map(|op| op.session)
        .filter(|s| !closed.contains(s))
        .collect();
    open.sort_unstable();
    open.dedup();
    for session in open {
        let served = conn
            .post(&format!("/v1/stream/s{session}/close"), "")
            .ok()
            .and_then(|(status, body)| {
                (status == 200).then(|| Fingerprint::parse(&body)).flatten()
            });
        closes.push((session, served));
    }
    for (session, served) in &closes {
        report.check(served.as_ref() == expected_close.get(session));
    }
    let stats = conn
        .get("/v1/stats")
        .ok()
        .and_then(|(_, body)| Json::parse(&body).ok())
        .unwrap_or(Json::Null);
    drop(conn);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);

    // ---- tally -------------------------------------------------------------
    let open_window = open_secs / WINDOWS as f64;
    let mut infer_windows = vec![Window::default(); WINDOWS];
    let mut push_windows = vec![Window::default(); WINDOWS];
    let mut late_us = Samples::default();
    let mut slo_missed = 0u64;
    let mut sent = 0u64;
    for s in infer_samples.iter().chain(&push_samples) {
        report.check(s.ok);
        if s.route == Route::Close {
            continue;
        }
        sent += 1;
        late_us.push(s.late_us());
        if !s.ok || s.shed || s.latency_us() > SLO_US {
            slo_missed += 1;
        }
        let window = ((s.due.saturating_duration_since(t0).as_secs_f64() / open_window) as usize)
            .min(WINDOWS - 1);
        if s.ok {
            match s.route {
                Route::Infer => infer_windows[window].add(s.latency_us(), 0),
                Route::Push => push_windows[window].add(s.latency_us(), 0),
                Route::Close => {}
            }
        }
    }
    let infer_us = calm_pool(&infer_windows, |w| w.samples.median()).0.samples;
    let push_us = calm_pool(&push_windows, |w| w.samples.median()).0.samples;
    let mut closed_windows = vec![Window::default(); WINDOWS];
    let mut closed_failed = 0;
    for (windows, failed) in &per_client {
        closed_failed += failed;
        for (acc, w) in closed_windows.iter_mut().zip(windows) {
            acc.merge(w);
        }
    }
    let closed_ok: u64 = closed_windows.iter().map(|w| w.ops).sum();
    report.attempted += closed_ok + closed_failed;
    report.failed += closed_failed;
    // The calm half of the closed loop: the windows that completed most.
    let (capacity, kept) = calm_pool(&closed_windows, |w| -(w.ops as f64));
    let capacity_secs = kept as f64 * window_secs;
    let slo_miss_frac = slo_missed as f64 / sent.max(1) as f64;
    println!(
        "open loop: {} infers at {INFER_RATE}/s and {} pushes at {PUSH_RATE}/s over {open_secs:.1} s; slo_miss_frac {slo_miss_frac:.5} (> {SLO_US} us, failed or shed); generator late p99 {:.1} us; calm half p{TAIL}: infer {} and push {} samples beyond",
        infer_us.len(),
        push_us.len(),
        late_us.percentile(99.0),
        infer_us.beyond(TAIL),
        push_us.beyond(TAIL)
    );

    let model = stats.get("models").and_then(|m| m.get(MODEL));
    let model_u = |key: &str| {
        model
            .and_then(|m| m.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let durability_u = |key: &str| {
        stats
            .get("durability")
            .and_then(|d| d.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    println!(
        "server: {} steals, {} coalesced, affinity {} hits / {} misses, {} parked to disk, {} faulted in",
        model_u("steals"),
        model_u("coalesced"),
        model_u("affinity_hits"),
        model_u("affinity_misses"),
        durability_u("parked_to_disk"),
        durability_u("faulted_in")
    );

    if !tracer.enabled() {
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("infer_us_p50", infer_us.median(), "us");
        report.metric("infer_us_tail", infer_us.percentile(TAIL), "us");
        report.metric(
            "ns_per_sop",
            capacity_secs * 1e9 / capacity.sops.max(1) as f64,
            "ns",
        );
        report.metric("push_us_p50", push_us.median(), "us");
        report.metric("push_us_tail", push_us.percentile(TAIL), "us");
        report.metric("capacity_rps", capacity.ops as f64 / capacity_secs, "1/s");
        return report;
    }

    // ---- traced run: the per-layer ledger ----------------------------------
    for s in infer_samples.iter().chain(&push_samples) {
        let name = match s.route {
            Route::Infer => "route.infer",
            Route::Push => "route.push",
            Route::Close => "route.close",
        };
        tracer.record(name, s.request, s.due, s.done);
    }
    let per_route = |route: Route, f: &dyn Fn(&Sample) -> f64| {
        let mut out = Samples::default();
        for s in infer_samples
            .iter()
            .chain(&push_samples)
            .filter(|s| s.route == route && s.ok)
        {
            out.push(f(s));
        }
        out
    };
    let mut json_us = Samples::default();
    for (j, body) in infer_bodies
        .iter()
        .chain(ops.iter().map(|op| &op.body))
        .enumerate()
    {
        let (_, us) = tracer.span("json.parse", j as u64, None, || Json::parse(body));
        json_us.push(us);
    }
    let mut request_bytes = Samples::default();
    let mut response_bytes = Samples::default();
    for s in infer_samples.iter().chain(&push_samples) {
        request_bytes.push(s.request_bytes as f64);
        response_bytes.push(s.response_bytes as f64);
    }
    let hits = model_u("affinity_hits") as f64;
    let misses = model_u("affinity_misses") as f64;

    ledger.report(&mut report, tracer);
    report.metric("compile.plans_ms", median(&plans_ms), "ms");
    report.metric("compile.plan_bytes", plan_bytes as f64, "bytes");
    let values = [
        per_route(Route::Infer, &|s| s.queue_us).median(),
        per_route(Route::Push, &|s| s.queue_us).median(),
        per_route(Route::Infer, &|s| s.service_us).median(),
        per_route(Route::Push, &|s| s.service_us).median(),
        model_u("steals") as f64,
        model_u("coalesced") as f64,
        hits / (hits + misses).max(1.0),
        per_route(Route::Infer, &Sample::outside_us).median(),
        per_route(Route::Push, &Sample::outside_us).median(),
        json_us.mean(),
        request_bytes.mean(),
        response_bytes.mean(),
        late_us.percentile(99.0),
        slo_miss_frac,
    ];
    for ((name, unit), value) in SERVE_ONLY_METRICS.iter().zip(values) {
        report.metric(*name, value, unit);
    }
    report.metric("store.encode_us", encode_us.mean(), "us");
    report.metric("store.decode_us", decode_us.mean(), "us");
    report.metric("store.park_us", park_us.mean(), "us");
    report.metric("store.load_us", load_us.mean(), "us");
    report.metric("store.snapshot_bytes", snapshot_bytes.mean(), "bytes");
    report.metric(
        "store.fault_in_frac",
        durability_u("faulted_in") as f64 / push_us.len().max(1) as f64,
        "frac",
    );
    report.metric(
        "store.parked_to_disk",
        durability_u("parked_to_disk") as f64,
        "count",
    );
    report
}

/// Waits for `due`: sleeps until shortly before it, then spins (yielding
/// the core to any runnable thread) so the send is on time even when the
/// host is slow to wake a sleeping thread.
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_WINDOW {
        std::thread::sleep(due - now - SPIN_WINDOW);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}
