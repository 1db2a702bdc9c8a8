//! Reactor-specific serving suite: HTTP/1.1 keep-alive semantics,
//! slow-loris eviction, admission-control shedding, request-id
//! propagation, health/route observability and shutdown with parked
//! connections — everything the nonblocking core added on top of the
//! bit-exactness contract `serve_end_to_end.rs` already pins down.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sne::compile::CompiledNetwork;
use sne::session::InferenceSession;
use sne_event::EventStream;
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_serve::client::{self, Connection};
use sne_serve::{Json, ServerBuilder};
use sne_sim::{ExecStrategy, SneConfig};

fn compiled(seed: u64) -> CompiledNetwork {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap()
}

fn sample(seed: u64) -> EventStream {
    sne::proportionality::stream_with_activity((2, 8, 8), 16, 0.05, seed)
}

fn tiny_server(lanes: usize) -> sne_serve::Server {
    ServerBuilder::new()
        .register(
            "tiny",
            compiled(11),
            SneConfig::with_slices(2),
            lanes,
            ExecStrategy::Sequential,
        )
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap()
}

#[test]
fn keep_alive_connection_serves_sequential_requests_bit_exactly() {
    let network = Arc::new(compiled(11));
    let server = ServerBuilder::new()
        .register(
            "tiny",
            Arc::clone(&network),
            SneConfig::with_slices(2),
            2,
            ExecStrategy::Sequential,
        )
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap();
    let mut session =
        InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();

    // Many requests over ONE socket; the server must frame each response
    // and park the connection between them.
    let mut conn = Connection::connect(server.addr()).unwrap();
    for i in 0..6 {
        let stream = sample(200 + i);
        let expected = session.infer(&stream).unwrap();
        let (status, body) = conn
            .post("/v1/infer", &client::infer_body("tiny", &stream))
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("predicted_class").and_then(Json::as_u64),
            Some(expected.predicted_class as u64)
        );
        assert_eq!(
            doc.get("energy_uj")
                .and_then(Json::as_f64)
                .map(f64::to_bits),
            Some(expected.energy.energy_uj.to_bits()),
        );
        // Every response carries a request id, echoed in the body too.
        let header_id = conn.header("x-request-id").unwrap().to_owned();
        assert_eq!(
            doc.get("request_id").and_then(Json::as_str),
            Some(header_id.as_str())
        );
    }
    // The whole exchange used exactly one connection.
    assert_eq!(server.open_connections(), 1);
    server.shutdown();
}

#[test]
fn client_request_ids_are_echoed_verbatim() {
    let server = tiny_server(1);
    let mut conn = Connection::connect(server.addr()).unwrap();
    let body = client::infer_body("tiny", &sample(1));
    let (status, response) = conn
        .request_with_headers("POST", "/v1/infer", &body, &[("X-Request-Id", "trace-42")])
        .unwrap();
    assert_eq!(status, 200, "{response}");
    assert_eq!(conn.header("x-request-id"), Some("trace-42"));
    let doc = Json::parse(&response).unwrap();
    assert_eq!(
        doc.get("request_id").and_then(Json::as_str),
        Some("trace-42")
    );

    // Inline routes carry one as well (generated when the client sent none).
    let (status, _) = conn.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(conn.header("x-request-id").unwrap().starts_with("sne-"));
    server.shutdown();
}

#[test]
fn connection_close_is_honored() {
    let server = tiny_server(1);
    let mut conn = Connection::connect(server.addr()).unwrap();
    let body = client::infer_body("tiny", &sample(2));
    let (status, _) = conn
        .request_with_headers("POST", "/v1/infer", &body, &[("Connection", "close")])
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(conn.header("connection"), Some("close"));
    // The server must close its side: the next request cannot be answered.
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let followup = conn.post("/v1/infer", &body);
    assert!(
        followup.is_err(),
        "server kept a Connection: close socket open"
    );
    server.shutdown();
}

#[test]
fn pipelined_requests_are_rejected() {
    let server = tiny_server(1);
    let body = client::infer_body("tiny", &sample(3));
    let one = format!(
        "POST /v1/infer HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    // Two complete requests in one burst: the server serves strictly
    // one-at-a-time per connection and must reject the pipeline.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(format!("{one}{one}").as_bytes()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "expected 400, got: {response}"
    );
    assert!(response.contains("pipelined"), "{response}");
    // Exactly one response, then close — the second request was never served.
    assert_eq!(response.matches("HTTP/1.1").count(), 1, "{response}");
    server.shutdown();
}

#[test]
fn slow_loris_is_evicted_while_fast_client_is_unaffected() {
    let server = ServerBuilder::new()
        .register(
            "tiny",
            compiled(11),
            SneConfig::with_slices(2),
            2,
            ExecStrategy::Sequential,
        )
        .unwrap()
        .read_deadline(Duration::from_millis(150))
        .start("127.0.0.1:0")
        .unwrap();
    let addr = server.addr();

    // The slow client drips one byte at a time and never finishes its
    // request inside the 150ms read deadline.
    let slow = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let started = Instant::now();
        for byte in b"POST /v1/infer HTTP/1.1\r\n" {
            if stream.write_all(std::slice::from_ref(byte)).is_err() {
                break; // evicted mid-drip: also a pass
            }
            std::thread::sleep(Duration::from_millis(40));
        }
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        (started.elapsed(), response)
    });

    // Meanwhile fast clients on the same reactor are served normally.
    for i in 0..5 {
        let (status, body) = client::post(
            addr,
            "/v1/infer",
            &client::infer_body("tiny", &sample(20 + i)),
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
        std::thread::sleep(Duration::from_millis(50));
    }

    let (elapsed, response) = slow.join().unwrap();
    // Evicted (EOF or best-effort 408) well before the drip would have
    // finished (25 bytes x 40ms = 1s just for the request line).
    assert!(
        elapsed < Duration::from_secs(5),
        "slow client was not evicted ({elapsed:?})"
    );
    assert!(
        response.is_empty() || response.contains("408"),
        "unexpected eviction response: {response}"
    );
    let (status, stats) = client::get(addr, "/v1/stats").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&stats).unwrap();
    assert!(doc.get("evictions").and_then(Json::as_u64).unwrap() >= 1);
    server.shutdown();
}

#[test]
fn mid_stream_disconnect_frees_the_session_slot() {
    let network = Arc::new(compiled(11));
    let server = ServerBuilder::new()
        .register(
            "tiny",
            Arc::clone(&network),
            SneConfig::with_slices(2),
            2,
            ExecStrategy::Sequential,
        )
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap();
    let addr = server.addr();
    let feed = sample(70);
    let chunks: Vec<EventStream> = feed.chunks(4).collect();
    let mut reference =
        InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();

    // Chunk 0 over a normal exchange.
    let (status, body) = client::post(
        addr,
        "/v1/stream/dvs-0/push",
        &client::infer_body("tiny", &chunks[0]),
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    reference.push(&chunks[0]).unwrap();

    // Chunk 1: send the full request, then vanish without reading the
    // response. The push still executes; the worker callback must re-park
    // the advanced session state even though the connection died.
    {
        let push_body = client::infer_body("tiny", &chunks[1]);
        let raw = format!(
            "POST /v1/stream/dvs-0/push HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{push_body}",
            push_body.len()
        );
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        // drop: mid-stream disconnect
    }
    reference.push(&chunks[1]).unwrap();

    // The session must come back (409 only transiently while the orphaned
    // push is in flight), with its state advanced by the orphaned chunk.
    // The orphan travels on another connection, so the reactor may read
    // this push first: `chunk_seq` 2 fences it (409 until the orphaned
    // chunk 1 has been applied) instead of letting it overtake.
    let deadline = Instant::now() + Duration::from_secs(10);
    let body = client::infer_body("tiny", &chunks[2]);
    let push_body = format!("{{\"chunk_seq\":2,{}", &body[1..]);
    let expected = reference.push(&chunks[2]).unwrap();
    loop {
        let (status, body) = client::post(addr, "/v1/stream/dvs-0/push", &push_body).unwrap();
        if status == 409 {
            assert!(Instant::now() < deadline, "session never freed: {body}");
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("start_timestep").and_then(Json::as_u64),
            Some(u64::from(expected.start_timestep)),
            "orphaned chunk was lost or double-applied"
        );
        assert_eq!(
            doc.get("total_cycles").and_then(Json::as_u64),
            Some(expected.stats.total_cycles)
        );
        assert_eq!(doc.get("chunks_pushed").and_then(Json::as_u64), Some(3));
        break;
    }
    assert_eq!(server.active_streams(), 1);

    // And the summary is still bit-identical to the dedicated session's.
    let (status, closed) = client::post(addr, "/v1/stream/dvs-0/close", "").unwrap();
    assert_eq!(status, 200, "{closed}");
    let doc = Json::parse(&closed).unwrap();
    let expected = reference.summary();
    assert_eq!(
        doc.get("predicted_class").and_then(Json::as_u64),
        Some(expected.predicted_class as u64)
    );
    assert_eq!(
        doc.get("energy_uj")
            .and_then(Json::as_f64)
            .map(f64::to_bits),
        Some(expected.energy.energy_uj.to_bits())
    );
    server.shutdown();
}

#[test]
fn admission_limit_sheds_with_retry_after() {
    let server = ServerBuilder::new()
        .register(
            "tiny",
            compiled(11),
            SneConfig::with_slices(2),
            1,
            ExecStrategy::Sequential,
        )
        .unwrap()
        .admission_limit(1)
        .retry_after_secs(2)
        .start("127.0.0.1:0")
        .unwrap();
    let addr = server.addr();
    // A beefy request so in-flight windows overlap reliably.
    let stream = sne::proportionality::stream_with_activity((2, 8, 8), 256, 0.1, 7);
    let body = client::infer_body("tiny", &stream);

    let barrier = std::sync::Barrier::new(8);
    let outcomes: Vec<(u16, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = Connection::connect(addr).unwrap();
                    barrier.wait();
                    let (status, _) = conn.post("/v1/infer", &body).unwrap();
                    (status, conn.header("retry-after").map(str::to_owned))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let served = outcomes.iter().filter(|(s, _)| *s == 200).count();
    let shed = outcomes.iter().filter(|(s, _)| *s == 429).count();
    assert_eq!(served + shed, 8, "{outcomes:?}");
    assert!(served >= 1, "{outcomes:?}");
    assert!(shed >= 1, "admission limit 1 never shed: {outcomes:?}");
    for (status, retry_after) in &outcomes {
        if *status == 429 {
            assert_eq!(retry_after.as_deref(), Some("2"));
        }
    }

    // The shed counter is visible in stats.
    let (_, stats) = client::get(addr, "/v1/stats").unwrap();
    let doc = Json::parse(&stats).unwrap();
    let tiny = doc.get("models").unwrap().get("tiny").unwrap();
    assert_eq!(tiny.get("shed").and_then(Json::as_u64), Some(shed as u64));
    server.shutdown();
}

#[test]
fn healthz_and_per_route_counters() {
    let server = tiny_server(1);
    let addr = server.addr();
    let (status, body) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(doc.get("models").and_then(Json::as_u64), Some(1));

    let (status, _) =
        client::post(addr, "/v1/infer", &client::infer_body("tiny", &sample(5))).unwrap();
    assert_eq!(status, 200);
    let (status, _) = client::post(addr, "/v1/infer", "{not json").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client::get(addr, "/v1/nope").unwrap();
    assert_eq!(status, 404);

    let (_, stats) = client::get(addr, "/v1/stats").unwrap();
    let doc = Json::parse(&stats).unwrap();
    let routes = doc.get("routes").unwrap();
    let infer = routes.get("infer").unwrap();
    assert_eq!(infer.get("requests").and_then(Json::as_u64), Some(2));
    assert_eq!(infer.get("errors").and_then(Json::as_u64), Some(1));
    assert_eq!(
        routes
            .get("healthz")
            .unwrap()
            .get("requests")
            .and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        routes
            .get("other")
            .unwrap()
            .get("errors")
            .and_then(Json::as_u64),
        Some(1)
    );
    // The recent-request ring ties request ids to their outcomes.
    let recent = doc.get("recent_requests").and_then(Json::as_array).unwrap();
    assert!(recent.len() >= 4);
    assert!(recent
        .iter()
        .all(|r| r.get("id").and_then(Json::as_str).is_some()));
    server.shutdown();
}

// -- multi-shard suite ------------------------------------------------------
//
// The sharded reactor must be observationally identical to the single-shard
// one: connections spread across shards, but every response stays bit-exact
// vs a direct session, streaming sessions survive on their shard, and
// shutdown/eviction semantics hold per shard.

fn sharded_server(network: &Arc<CompiledNetwork>, shards: usize) -> sne_serve::Server {
    ServerBuilder::new()
        .register(
            "tiny",
            Arc::clone(network),
            SneConfig::with_slices(2),
            2,
            ExecStrategy::Sequential,
        )
        .unwrap()
        .reactor_shards(shards)
        .start("127.0.0.1:0")
        .unwrap()
}

#[test]
fn multi_shard_distributes_connections_and_serves_bit_exactly() {
    let network = Arc::new(compiled(11));
    let server = sharded_server(&network, 2);
    assert_eq!(server.reactor_shards(), 2);
    let mut session =
        InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();

    // Four concurrently open keep-alive connections: least-loaded placement
    // must spread them over both shards, and every response must still be
    // bit-identical to the direct session no matter which shard served it.
    let mut conns: Vec<Connection> = (0..4)
        .map(|_| Connection::connect(server.addr()).unwrap())
        .collect();
    for round in 0..3 {
        for (c, conn) in conns.iter_mut().enumerate() {
            let stream = sample(500 + round * 10 + c as u64);
            let expected = session.infer(&stream).unwrap();
            let (status, body) = conn
                .post("/v1/infer", &client::infer_body("tiny", &stream))
                .unwrap();
            assert_eq!(status, 200, "{body}");
            let doc = Json::parse(&body).unwrap();
            assert_eq!(
                doc.get("predicted_class").and_then(Json::as_u64),
                Some(expected.predicted_class as u64)
            );
            assert_eq!(
                doc.get("total_cycles").and_then(Json::as_u64),
                Some(expected.stats.total_cycles)
            );
            assert_eq!(
                doc.get("energy_uj")
                    .and_then(Json::as_f64)
                    .map(f64::to_bits),
                Some(expected.energy.energy_uj.to_bits()),
            );
        }
    }
    assert_eq!(server.open_connections(), 4);

    let (status, stats) = client::get(server.addr(), "/v1/stats").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&stats).unwrap();
    let shards = doc.get("shards").and_then(Json::as_array).unwrap();
    assert_eq!(shards.len(), 2);
    for shard in shards {
        assert!(
            shard.get("accepted").and_then(Json::as_u64).unwrap() >= 1,
            "a shard never got a connection: {stats}"
        );
    }
    let open: u64 = shards
        .iter()
        .map(|s| s.get("open").and_then(Json::as_u64).unwrap())
        .sum();
    // The 4 parked keep-alive connections plus the stats connection itself.
    assert_eq!(open, 5, "{stats}");
    server.shutdown();
}

#[test]
fn multi_shard_streaming_sessions_stay_shard_sticky_and_bit_exact() {
    let network = Arc::new(compiled(11));
    let server = sharded_server(&network, 2);
    // Two concurrent keep-alive connections: placed on different shards,
    // each driving its own streaming session. Chunk state must survive
    // between pushes on whichever shard owns the connection, and the final
    // summaries must be bit-identical to dedicated reference sessions.
    let mut conn_a = Connection::connect(server.addr()).unwrap();
    let mut conn_b = Connection::connect(server.addr()).unwrap();
    let mut ref_a = InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();
    let mut ref_b = InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();
    let chunks_a: Vec<EventStream> = sample(71).chunks(4).collect();
    let chunks_b: Vec<EventStream> = sample(72).chunks(4).collect();

    for (chunk_a, chunk_b) in chunks_a.iter().zip(&chunks_b) {
        let expected = ref_a.push(chunk_a).unwrap();
        let (status, body) = conn_a
            .post(
                "/v1/stream/shard-a/push",
                &client::infer_body("tiny", chunk_a),
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("total_cycles").and_then(Json::as_u64),
            Some(expected.stats.total_cycles)
        );

        let expected = ref_b.push(chunk_b).unwrap();
        let (status, body) = conn_b
            .post(
                "/v1/stream/shard-b/push",
                &client::infer_body("tiny", chunk_b),
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("total_cycles").and_then(Json::as_u64),
            Some(expected.stats.total_cycles)
        );
    }

    for (conn, session_path, reference) in [
        (&mut conn_a, "/v1/stream/shard-a/close", &ref_a),
        (&mut conn_b, "/v1/stream/shard-b/close", &ref_b),
    ] {
        let (status, body) = conn.post(session_path, "").unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        let expected = reference.summary();
        assert_eq!(
            doc.get("predicted_class").and_then(Json::as_u64),
            Some(expected.predicted_class as u64)
        );
        assert_eq!(
            doc.get("energy_uj")
                .and_then(Json::as_f64)
                .map(f64::to_bits),
            Some(expected.energy.energy_uj.to_bits())
        );
    }
    server.shutdown();
}

#[test]
fn multi_shard_graceful_shutdown_joins_every_shard() {
    let network = Arc::new(compiled(11));
    let server = sharded_server(&network, 2);
    let addr = server.addr();
    // Park keep-alive connections on both shards (least-loaded placement
    // alternates while all stay open).
    let mut parked: Vec<Connection> = (0..6)
        .map(|i| {
            let mut conn = Connection::connect(addr).unwrap();
            let (status, _) = conn
                .post("/v1/infer", &client::infer_body("tiny", &sample(600 + i)))
                .unwrap();
            assert_eq!(status, 200);
            conn
        })
        .collect();
    assert_eq!(server.open_connections(), 6);

    let started = Instant::now();
    server.shutdown(); // must join BOTH reactor threads without timing out
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown hung on a shard"
    );
    for conn in &mut parked {
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let result = conn.post("/v1/infer", "{}");
        assert!(result.is_err(), "socket survived shutdown");
    }
}

#[test]
fn multi_shard_slow_loris_evicted_on_each_shard() {
    let network = Arc::new(compiled(11));
    let server = ServerBuilder::new()
        .register(
            "tiny",
            Arc::clone(&network),
            SneConfig::with_slices(2),
            2,
            ExecStrategy::Sequential,
        )
        .unwrap()
        .reactor_shards(2)
        .read_deadline(Duration::from_millis(150))
        .start("127.0.0.1:0")
        .unwrap();
    let addr = server.addr();

    // Two concurrent slow connections: placement puts one on each shard, so
    // both timer wheels must fire. Each sends a partial request line (the
    // read deadline arms on the first byte) and then stalls.
    let drips: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                stream.write_all(b"POST /v1/inf").unwrap();
                let started = Instant::now();
                let mut response = String::new();
                let _ = stream.read_to_string(&mut response);
                (started.elapsed(), response)
            })
        })
        .collect();
    for drip in drips {
        let (elapsed, response) = drip.join().unwrap();
        assert!(
            elapsed < Duration::from_secs(5),
            "slow client was not evicted ({elapsed:?})"
        );
        assert!(
            response.is_empty() || response.contains("408"),
            "unexpected eviction response: {response}"
        );
    }

    let (status, stats) = client::get(addr, "/v1/stats").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&stats).unwrap();
    let shards = doc.get("shards").and_then(Json::as_array).unwrap();
    assert_eq!(shards.len(), 2);
    for shard in shards {
        assert!(
            shard.get("evictions").and_then(Json::as_u64).unwrap() >= 1,
            "a shard's timer wheel never evicted: {stats}"
        );
    }
    server.shutdown();
}

#[test]
fn shutdown_closes_parked_keep_alive_connections() {
    let server = tiny_server(2);
    let addr = server.addr();
    // Park several keep-alive connections (each served one request).
    let mut parked: Vec<Connection> = (0..8)
        .map(|i| {
            let mut conn = Connection::connect(addr).unwrap();
            let (status, _) = conn
                .post("/v1/infer", &client::infer_body("tiny", &sample(300 + i)))
                .unwrap();
            assert_eq!(status, 200);
            conn
        })
        .collect();
    assert_eq!(server.open_connections(), 8);

    let started = Instant::now();
    server.shutdown(); // must not wait out any idle timeout
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown hung on parked connections"
    );
    // Every parked socket was closed by the server.
    for conn in &mut parked {
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let result = conn.post("/v1/infer", "{}");
        assert!(result.is_err(), "socket survived shutdown");
    }
}
