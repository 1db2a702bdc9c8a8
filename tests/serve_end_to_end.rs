//! Loopback end-to-end suite of the `sne_serve` front-end: concurrent HTTP
//! clients must receive **bit-identical** predictions/cycles/energy to
//! direct [`InferenceSession`] calls (the JSON codec's shortest-roundtrip
//! float formatting makes exact comparison possible), a streaming session's
//! neuron state must survive across independent HTTP requests, and graceful
//! shutdown must drain in-flight work.

use std::sync::Arc;

use sne::compile::CompiledNetwork;
use sne::session::InferenceSession;
use sne_event::EventStream;
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_serve::{client, Json, ServerBuilder};
use sne_sim::{ExecStrategy, SneConfig};

fn compiled(seed: u64) -> CompiledNetwork {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap()
}

fn sample(seed: u64) -> EventStream {
    sne::proportionality::stream_with_activity((2, 8, 8), 16, 0.05, seed)
}

/// Asserts a served inference body is bit-identical to a direct result.
fn assert_result_matches(body: &str, expected: &sne::InferenceResult) {
    let doc = Json::parse(body).unwrap();
    assert_eq!(
        doc.get("predicted_class").and_then(Json::as_u64),
        Some(expected.predicted_class as u64)
    );
    let counts: Vec<u64> = doc
        .get("output_spike_counts")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|c| c.as_u64().unwrap())
        .collect();
    let expected_counts: Vec<u64> = expected
        .output_spike_counts
        .iter()
        .map(|&c| u64::from(c))
        .collect();
    assert_eq!(counts, expected_counts);
    assert_eq!(
        doc.get("total_cycles").and_then(Json::as_u64),
        Some(expected.stats.total_cycles)
    );
    assert_eq!(
        doc.get("synaptic_ops").and_then(Json::as_u64),
        Some(expected.stats.synaptic_ops)
    );
    // Floats are compared BIT-exactly: the wire format is shortest-roundtrip.
    for (key, value) in [
        ("energy_uj", expected.energy.energy_uj),
        ("inference_time_ms", expected.inference_time_ms),
        ("inference_rate", expected.inference_rate),
        ("mean_activity", expected.mean_activity),
    ] {
        assert_eq!(
            doc.get(key).and_then(Json::as_f64).map(f64::to_bits),
            Some(value.to_bits()),
            "field {key}"
        );
    }
}

#[test]
fn concurrent_clients_match_direct_sessions_bit_exactly() {
    let network = Arc::new(compiled(11));
    let server = ServerBuilder::new()
        .register(
            "tiny",
            Arc::clone(&network),
            SneConfig::with_slices(2),
            3,
            ExecStrategy::Sequential,
        )
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap();
    let addr = server.addr();

    let streams: Vec<EventStream> = (0..8).map(|i| sample(40 + i)).collect();
    let mut session =
        InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();
    let expected: Vec<_> = streams.iter().map(|s| session.infer(s).unwrap()).collect();

    // 8 concurrent clients against a 3-engine pool.
    let bodies: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let body = client::infer_body("tiny", stream);
                scope.spawn(move || client::post(addr, "/v1/infer", &body).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for ((status, body), expected) in bodies.iter().zip(&expected) {
        assert_eq!(*status, 200, "{body}");
        assert_result_matches(body, expected);
    }

    // Stats reflect the traffic.
    let (status, stats) = client::get(addr, "/v1/stats").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&stats).unwrap();
    assert_eq!(doc.get("completed").and_then(Json::as_u64), Some(8));
    assert_eq!(doc.get("errors").and_then(Json::as_u64), Some(0));
    let tiny = doc.get("models").unwrap().get("tiny").unwrap();
    assert_eq!(tiny.get("requests").and_then(Json::as_u64), Some(8));
    assert_eq!(tiny.get("lanes").and_then(Json::as_u64), Some(3));
    let service = doc.get("service_latency_us").unwrap();
    assert_eq!(service.get("count").and_then(Json::as_u64), Some(8));
    assert!(service.get("p99").and_then(Json::as_f64).unwrap() > 0.0);

    server.shutdown();
}

#[test]
fn streaming_session_state_survives_across_requests() {
    let network = Arc::new(compiled(13));
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

    let stream = sample(70);
    let mut reference =
        InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();

    // Push the feed in 4-timestep chunks, one HTTP request each; interleave
    // unrelated one-shot traffic so the session provably does not depend on
    // a dedicated engine.
    for (i, chunk) in stream.chunks(4).enumerate() {
        let expected = reference.push(&chunk).unwrap();
        let body = client::infer_body("tiny", &chunk);
        let (status, response) = client::post(addr, "/v1/stream/dvs-0/push", &body).unwrap();
        assert_eq!(status, 200, "{response}");
        let doc = Json::parse(&response).unwrap();
        assert_eq!(
            doc.get("start_timestep").and_then(Json::as_u64),
            Some(u64::from(expected.start_timestep))
        );
        assert_eq!(
            doc.get("timesteps").and_then(Json::as_u64),
            Some(u64::from(expected.timesteps))
        );
        assert_eq!(
            doc.get("total_cycles").and_then(Json::as_u64),
            Some(expected.stats.total_cycles)
        );
        assert_eq!(
            doc.get("chunks_pushed").and_then(Json::as_u64),
            Some(i as u64 + 1)
        );
        // Spike-for-spike identical output on the absolute timeline.
        let served: Vec<(u64, u64, u64, u64)> = doc
            .get("events")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|e| {
                let f = e.as_array().unwrap();
                (
                    f[0].as_u64().unwrap(),
                    f[1].as_u64().unwrap(),
                    f[2].as_u64().unwrap(),
                    f[3].as_u64().unwrap(),
                )
            })
            .collect();
        let direct: Vec<(u64, u64, u64, u64)> = expected
            .output
            .iter()
            .filter(|e| e.is_spike())
            .map(|e| {
                (
                    u64::from(e.t),
                    u64::from(e.ch),
                    u64::from(e.x),
                    u64::from(e.y),
                )
            })
            .collect();
        assert_eq!(served, direct);

        // Interleaved one-shot traffic on the same pool.
        let (status, _) = client::post(
            addr,
            "/v1/infer",
            &client::infer_body("tiny", &sample(500 + i as u64)),
        )
        .unwrap();
        assert_eq!(status, 200);
    }
    assert_eq!(server.active_streams(), 1);

    // Closing returns the accumulated summary — bit-identical to the
    // dedicated session's.
    let (status, closed) = client::post(addr, "/v1/stream/dvs-0/close", "").unwrap();
    assert_eq!(status, 200, "{closed}");
    assert_result_matches(&closed, &reference.summary());
    let doc = Json::parse(&closed).unwrap();
    assert_eq!(doc.get("closed"), Some(&Json::Bool(true)));
    assert_eq!(
        doc.get("elapsed_timesteps").and_then(Json::as_u64),
        Some(16)
    );
    assert_eq!(server.active_streams(), 0);

    // The session is gone now.
    let (status, _) = client::post(addr, "/v1/stream/dvs-0/close", "").unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn two_models_are_served_independently() {
    let network_a = Arc::new(compiled(21));
    let network_b = Arc::new(compiled(22));
    let server = ServerBuilder::new()
        .register(
            "a",
            Arc::clone(&network_a),
            SneConfig::with_slices(2),
            1,
            ExecStrategy::Sequential,
        )
        .unwrap()
        .register(
            "b",
            Arc::clone(&network_b),
            SneConfig::with_slices(4),
            2,
            ExecStrategy::Sequential,
        )
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap();
    let stream = sample(90);
    let mut session_a = InferenceSession::new(network_a, SneConfig::with_slices(2)).unwrap();
    let mut session_b = InferenceSession::new(network_b, SneConfig::with_slices(4)).unwrap();
    let (status, body) = client::post(
        server.addr(),
        "/v1/infer",
        &client::infer_body("a", &stream),
    )
    .unwrap();
    assert_eq!(status, 200);
    assert_result_matches(&body, &session_a.infer(&stream).unwrap());
    let (status, body) = client::post(
        server.addr(),
        "/v1/infer",
        &client::infer_body("b", &stream),
    )
    .unwrap();
    assert_eq!(status, 200);
    assert_result_matches(&body, &session_b.infer(&stream).unwrap());
    server.shutdown();
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let server = ServerBuilder::new()
        .register(
            "tiny",
            compiled(31),
            SneConfig::with_slices(2),
            1,
            ExecStrategy::Sequential,
        )
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap();
    let addr = server.addr();
    let cases = [
        ("POST", "/v1/infer", "not json at all", 400),
        ("POST", "/v1/infer", "{\"timesteps\":4,\"events\":[]}", 400), // no model
        (
            "POST",
            "/v1/infer",
            "{\"model\":\"nope\",\"timesteps\":4,\"events\":[]}",
            404,
        ),
        (
            "POST",
            "/v1/infer",
            // x = 400 is outside the 8x8 input geometry.
            "{\"model\":\"tiny\",\"timesteps\":4,\"events\":[[0,0,400,0]]}",
            400,
        ),
        (
            "POST",
            "/v1/infer",
            "{\"model\":\"tiny\",\"events\":[]}",
            400, // no timesteps
        ),
        (
            "POST",
            "/v1/infer",
            // timesteps beyond MAX_REQUEST_TIMESTEPS: a tiny body must not
            // be able to trigger a multi-gigabyte per-timestep allocation.
            "{\"model\":\"tiny\",\"timesteps\":4294967295,\"events\":[]}",
            400,
        ),
        ("POST", "/v1/elsewhere", "{}", 404),
        ("GET", "/v1/stream/x/push", "", 405),
        (
            "POST",
            "/v1/stream/x/push",
            "{\"timesteps\":4,\"events\":[]}",
            400, // first push must name a model
        ),
        ("POST", "/v1/stream/x/close", "", 404),
    ];
    for (method, path, body, expected_status) in cases {
        let (status, response) = client::request(addr, method, path, body).unwrap();
        assert_eq!(status, expected_status, "{method} {path}: {response}");
        assert!(
            Json::parse(&response).unwrap().get("error").is_some(),
            "{response}"
        );
    }
    // A failed FIRST push must not leak a parked session the client was
    // never told about.
    let (status, _) = client::post(
        addr,
        "/v1/stream/leaky/push",
        "{\"model\":\"tiny\",\"events\":[]}",
    )
    .unwrap();
    assert_eq!(status, 400);
    assert_eq!(server.active_streams(), 0);
    let (status, _) = client::post(addr, "/v1/stream/leaky/close", "").unwrap();
    assert_eq!(status, 404);

    // The server is still healthy after all that abuse.
    let stream = sample(99);
    let (status, _) =
        client::post(addr, "/v1/infer", &client::infer_body("tiny", &stream)).unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let network = Arc::new(compiled(41));
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
    let mut session = InferenceSession::new(network, SneConfig::with_slices(2)).unwrap();

    // Closed-loop clients hammer the server; shutdown lands mid-traffic.
    // The guarantee under test: every *accepted* request completes with a
    // full, correct response — connections attempted after shutdown may be
    // refused, which the clients tolerate.
    let outcomes: Vec<Vec<(u16, String, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut served = Vec::new();
                    for i in 0..6u64 {
                        let seed = 200 + c * 10 + i;
                        let body = client::infer_body("tiny", &sample(seed));
                        match client::post(addr, "/v1/infer", &body) {
                            Ok((status, body)) => served.push((status, body, seed)),
                            Err(_) => break, // server stopped accepting
                        }
                    }
                    served
                })
            })
            .collect();
        // Let some traffic land, then shut down while clients are mid-loop.
        std::thread::sleep(std::time::Duration::from_millis(30));
        server.shutdown();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut total_served = 0;
    for outcome in outcomes {
        for (status, body, seed) in outcome {
            // An accepted request never gets a half answer.
            assert_eq!(status, 200, "{body}");
            assert_result_matches(&body, &session.infer(&sample(seed)).unwrap());
            total_served += 1;
        }
    }
    assert!(total_served > 0, "no request completed before shutdown");
}

#[test]
fn deeply_nested_json_is_refused_and_the_server_stays_up() {
    let server = ServerBuilder::new()
        .register(
            "tiny",
            compiled(51),
            SneConfig::with_slices(2),
            1,
            ExecStrategy::Sequential,
        )
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap();
    // 100 KB of `[`: parsed without a depth bound, it overflows the
    // reactor thread's stack and aborts the whole process.
    let body = "[".repeat(100_000);
    let (status, response) = client::post(server.addr(), "/v1/infer", &body).unwrap();
    assert_eq!(status, 400, "{response}");
    let (status, _) = client::get(server.addr(), "/healthz").unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}
