//! Durable-session suite of the `sne_serve` front-end (DESIGN.md §14):
//! with a snapshot store behind the session table, idle sessions must be
//! demoted to disk instead of refused at capacity, a push to a cold
//! session must fault it back in **bit-identically** to one that never
//! left memory, a graceful restart must adopt every parked session, a
//! closed session must be fully reclaimed (no disk leak, no resurrection
//! after restart), corrupt snapshots must cost exactly the one session,
//! the `chunk_seq` guard must fence duplicate/out-of-order pushes, and a
//! push whose write-ahead park fails must be refused, not acknowledged.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sne::compile::CompiledNetwork;
use sne::session::InferenceSession;
use sne_event::EventStream;
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_serve::{client, FsyncPolicy, Json, Server, ServerBuilder};
use sne_sim::{ExecStrategy, SneConfig};

fn compiled(seed: u64) -> CompiledNetwork {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap()
}

fn sample(seed: u64) -> EventStream {
    sne::proportionality::stream_with_activity((2, 8, 8), 16, 0.05, seed)
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sne-serve-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_server(
    network: &Arc<CompiledNetwork>,
    dir: &Path,
    capacity: usize,
) -> sne_serve::Server {
    ServerBuilder::new()
        .register(
            "tiny",
            Arc::clone(network),
            SneConfig::with_slices(2),
            2,
            ExecStrategy::Sequential,
        )
        .unwrap()
        .session_capacity(capacity)
        .durable_store(dir.to_path_buf())
        .fsync_policy(FsyncPolicy::Never)
        .start("127.0.0.1:0")
        .unwrap()
}

/// Pushes one chunk to `session` and returns the parsed response body.
fn push_chunk(addr: SocketAddr, session: &str, chunk: &EventStream) -> Json {
    let body = client::infer_body("tiny", chunk);
    let (status, response) =
        client::post(addr, &format!("/v1/stream/{session}/push"), &body).unwrap();
    assert_eq!(status, 200, "{response}");
    Json::parse(&response).unwrap()
}

/// Spike events of a push/close response as comparable quadruples.
fn response_events(doc: &Json) -> Vec<(u64, u64, u64, u64)> {
    doc.get("events")
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
        .collect()
}

fn stream_events(stream: &EventStream) -> Vec<(u64, u64, u64, u64)> {
    stream
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
        .collect()
}

fn snap_files(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "snap"))
                .count()
        })
        .unwrap_or(0)
}

fn durability(server: &Server) -> sne_serve::DurabilityStats {
    server.durability().expect("durable store configured")
}

#[test]
fn capacity_demotes_lru_sessions_and_pushes_fault_them_back_bit_identically() {
    let network = Arc::new(compiled(41));
    let dir = store_dir("evict");
    let server = durable_server(&network, &dir, 2);
    let addr = server.addr();

    // Reference sessions that never leave memory.
    let mut refs: Vec<InferenceSession> = (0..3)
        .map(|_| InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap())
        .collect();
    let feeds: Vec<EventStream> = (0..3).map(|i| sample(700 + i)).collect();

    // First chunk of sessions s0 and s1 fills the warm tier (capacity 2);
    // s2's first push demotes the LRU parked session (s0) to disk.
    for (i, feed) in feeds.iter().enumerate() {
        let chunk = feed.chunks(4).next().unwrap();
        let expected = refs[i].push(&chunk).unwrap();
        let doc = push_chunk(addr, &format!("s{i}"), &chunk);
        assert_eq!(response_events(&doc), stream_events(&expected.output));
    }
    assert_eq!(server.active_streams(), 2);
    assert_eq!(server.cold_sessions(), 1);
    let stats = durability(&server);
    assert_eq!(stats.parked_to_disk, 1);
    assert_eq!(stats.faulted_in, 0);
    assert_eq!(stats.cold_sessions, 1);

    // The remaining chunks in rotation: every push to the cold session
    // faults it back in (demoting another), and every response stays
    // bit-identical to the in-memory reference.
    for round in 1..4 {
        for (i, feed) in feeds.iter().enumerate() {
            let chunk = feed.chunks(4).nth(round).unwrap();
            let expected = refs[i].push(&chunk).unwrap();
            let doc = push_chunk(addr, &format!("s{i}"), &chunk);
            assert_eq!(
                response_events(&doc),
                stream_events(&expected.output),
                "session s{i} round {round}"
            );
            assert_eq!(
                doc.get("total_cycles").and_then(Json::as_u64),
                Some(expected.stats.total_cycles)
            );
        }
    }
    let stats = durability(&server);
    assert!(stats.faulted_in > 0, "rotation must have faulted in");
    assert_eq!(stats.corrupt_discarded, 0);
    assert_eq!(server.active_streams() + server.cold_sessions(), 3);

    // Close summaries are bit-identical regardless of which tier the
    // session ended up in.
    for (i, reference) in refs.iter().enumerate() {
        let (status, closed) = client::post(addr, &format!("/v1/stream/s{i}/close"), "").unwrap();
        assert_eq!(status, 200, "{closed}");
        let doc = Json::parse(&closed).unwrap();
        let expected = reference.summary();
        assert_eq!(
            doc.get("predicted_class").and_then(Json::as_u64),
            Some(expected.predicted_class as u64)
        );
        assert_eq!(
            doc.get("total_cycles").and_then(Json::as_u64),
            Some(expected.stats.total_cycles)
        );
        assert_eq!(doc.get("chunks_pushed").and_then(Json::as_u64), Some(4));
    }
    assert_eq!(server.active_streams(), 0);
    assert_eq!(server.cold_sessions(), 0);
    assert_eq!(snap_files(&dir), 0, "closed sessions must not leak disk");

    // The durability block is surfaced in /v1/stats.
    let (status, body) = client::get(addr, "/v1/stats").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    let block = doc.get("durability").expect("durability stats present");
    assert_eq!(
        block.get("parked_to_disk").and_then(Json::as_u64),
        Some(durability(&server).parked_to_disk)
    );
    assert_eq!(block.get("cold_sessions").and_then(Json::as_u64), Some(0));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_restart_adopts_parked_sessions_and_resumes_bit_identically() {
    let network = Arc::new(compiled(42));
    let dir = store_dir("restart");
    let feed = sample(800);
    let mut reference =
        InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();

    // First two chunks against the first server incarnation.
    let first = durable_server(&network, &dir, 8);
    for chunk in feed.chunks(4).take(2) {
        reference.push(&chunk).unwrap();
        push_chunk(first.addr(), "dvs", &chunk);
    }
    assert_eq!(snap_files(&dir), 1);
    first.shutdown();

    // The second incarnation adopts the parked session into the cold tier
    // and the remaining chunks resume bit-identically.
    let second = durable_server(&network, &dir, 8);
    let stats = durability(&second);
    assert_eq!(stats.recovered_on_boot, 1);
    assert_eq!(stats.corrupt_discarded, 0);
    assert_eq!(second.cold_sessions(), 1);
    assert_eq!(second.active_streams(), 0);
    for chunk in feed.chunks(4).skip(2) {
        let expected = reference.push(&chunk).unwrap();
        let doc = push_chunk(second.addr(), "dvs", &chunk);
        assert_eq!(response_events(&doc), stream_events(&expected.output));
        assert_eq!(
            doc.get("total_cycles").and_then(Json::as_u64),
            Some(expected.stats.total_cycles)
        );
    }
    assert_eq!(durability(&second).faulted_in, 1);

    let (status, closed) = client::post(second.addr(), "/v1/stream/dvs/close", "").unwrap();
    assert_eq!(status, 200, "{closed}");
    let doc = Json::parse(&closed).unwrap();
    let summary = reference.summary();
    assert_eq!(
        doc.get("predicted_class").and_then(Json::as_u64),
        Some(summary.predicted_class as u64)
    );
    assert_eq!(
        doc.get("total_cycles").and_then(Json::as_u64),
        Some(summary.stats.total_cycles)
    );

    // Fully reclaimed: a third incarnation recovers nothing.
    second.shutdown();
    assert_eq!(snap_files(&dir), 0);
    let third = durable_server(&network, &dir, 8);
    assert_eq!(durability(&third).recovered_on_boot, 0);
    assert_eq!(third.cold_sessions(), 0);
    let (status, _) = client::post(third.addr(), "/v1/stream/dvs/close", "").unwrap();
    assert_eq!(status, 404, "a closed session must not resurrect");
    third.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshots_cost_exactly_one_session() {
    let network = Arc::new(compiled(43));
    let dir = store_dir("corrupt");
    let feeds = [sample(900), sample(901)];
    let mut reference =
        InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();

    let first = durable_server(&network, &dir, 8);
    push_chunk(first.addr(), "keep", &feeds[0].chunks(8).next().unwrap());
    reference.push(&feeds[0].chunks(8).next().unwrap()).unwrap();
    push_chunk(first.addr(), "lose", &feeds[1].chunks(8).next().unwrap());
    first.shutdown();
    assert_eq!(snap_files(&dir), 2);

    // Flip one payload byte of the "lose" snapshot (its file name encodes
    // the session id as hex — find it by decoding).
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.extension().is_some_and(|x| x == "snap")
                && p.file_stem()
                    .and_then(|s| s.to_str())
                    .is_some_and(|s| s.contains(&hex("lose")))
        })
        .expect("snapshot file for 'lose'");
    let mut bytes = std::fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    // Recovery adopts the intact session, discards the corrupt one, and
    // the server comes up healthy.
    let second = durable_server(&network, &dir, 8);
    let stats = durability(&second);
    assert_eq!(stats.recovered_on_boot, 1);
    assert_eq!(stats.corrupt_discarded, 1);
    assert_eq!(second.cold_sessions(), 1);
    assert!(!victim.exists(), "corrupt snapshot must be deleted");

    // The intact session resumes bit-identically; the lost one is gone.
    let chunk = feeds[0].chunks(8).nth(1).unwrap();
    let expected = reference.push(&chunk).unwrap();
    let doc = push_chunk(second.addr(), "keep", &chunk);
    assert_eq!(response_events(&doc), stream_events(&expected.output));
    let (status, _) = client::post(second.addr(), "/v1/stream/lose/close", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::get(second.addr(), "/healthz").unwrap();
    assert_eq!(status, 200);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mirrors the store's filename encoding (lowercase hex of the id bytes)
/// closely enough to find a session's snapshot file in tests.
fn hex(id: &str) -> String {
    id.bytes().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn chunk_seq_fences_duplicate_and_out_of_order_pushes() {
    let network = Arc::new(compiled(44));
    let dir = store_dir("seq");
    let server = durable_server(&network, &dir, 8);
    let addr = server.addr();
    let feed = sample(950);
    let chunks: Vec<EventStream> = feed.chunks(4).collect();

    let seq_body = |chunk: &EventStream, seq: u64| {
        let body = client::infer_body("tiny", chunk);
        format!("{{\"chunk_seq\":{seq},{}", &body[1..])
    };

    // In-order pushes carrying their sequence number are accepted.
    let (status, body) = client::post(addr, "/v1/stream/s/push", &seq_body(&chunks[0], 0)).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client::post(addr, "/v1/stream/s/push", &seq_body(&chunks[1], 1)).unwrap();
    assert_eq!(status, 200, "{body}");

    // A replayed chunk (same seq) conflicts and reports the cursor.
    let (status, body) = client::post(addr, "/v1/stream/s/push", &seq_body(&chunks[1], 1)).unwrap();
    assert_eq!(status, 409, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("chunks_pushed").and_then(Json::as_u64), Some(2));
    assert_eq!(doc.get("got_chunk_seq").and_then(Json::as_u64), Some(1));

    // A skipped chunk conflicts too; the correct next seq is accepted.
    let (status, _) = client::post(addr, "/v1/stream/s/push", &seq_body(&chunks[3], 3)).unwrap();
    assert_eq!(status, 409);
    let (status, _) = client::post(addr, "/v1/stream/s/push", &seq_body(&chunks[2], 2)).unwrap();
    assert_eq!(status, 200);

    // A fresh session must start at seq 0; a malformed seq is a 400.
    let (status, _) = client::post(addr, "/v1/stream/t/push", &seq_body(&chunks[0], 7)).unwrap();
    assert_eq!(status, 409);
    let body = client::infer_body("tiny", &chunks[0]);
    let bad = format!("{{\"chunk_seq\":\"zero\",{}", &body[1..]);
    let (status, _) = client::post(addr, "/v1/stream/t/push", &bad).unwrap();
    assert_eq!(status, 400);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_park_is_refused_and_the_session_resumes_from_its_last_snapshot() {
    let network = Arc::new(compiled(45));
    let dir = store_dir("park-fail");
    let server = durable_server(&network, &dir, 8);
    let addr = server.addr();
    let chunks: Vec<EventStream> = sample(960).chunks(4).collect();
    let mut reference =
        InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();
    let seq_push = |session: &str, chunk: &EventStream, seq: u64| {
        let body = client::infer_body("tiny", chunk);
        let body = format!("{{\"chunk_seq\":{seq},{}", &body[1..]);
        client::post(addr, &format!("/v1/stream/{session}/push"), &body).unwrap()
    };

    reference.push(&chunks[0]).unwrap();
    let (status, body) = seq_push("s", &chunks[0], 0);
    assert_eq!(status, 200, "{body}");

    // A directory where the store writes the session's tmp file makes the
    // next park fail: the push is refused, counted, and not applied.
    let blocker = dir.join(format!("s{}.tmp", hex("s")));
    std::fs::create_dir(&blocker).unwrap();
    let (status, body) = seq_push("s", &chunks[1], 1);
    assert_eq!(status, 503, "{body}");
    assert_eq!(durability(&server).park_failures, 1);
    let (status, body) = seq_push("s", &chunks[2], 2);
    assert_eq!(status, 409, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("chunks_pushed").and_then(Json::as_u64), Some(1));

    // Once the disk recovers, the same chunk is accepted and the stream
    // continues bit-identically to a session that saw each chunk once.
    std::fs::remove_dir(&blocker).unwrap();
    for (seq, chunk) in chunks.iter().enumerate().skip(1) {
        let expected = reference.push(chunk).unwrap();
        let (status, body) = seq_push("s", chunk, seq as u64);
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(response_events(&doc), stream_events(&expected.output));
    }
    let (status, closed) = client::post(addr, "/v1/stream/s/close", "").unwrap();
    assert_eq!(status, 200, "{closed}");
    let doc = Json::parse(&closed).unwrap();
    let summary = reference.summary();
    let counts: Vec<u64> = summary
        .output_spike_counts
        .iter()
        .map(|&c| u64::from(c))
        .collect();
    let served_counts: Vec<u64> = doc
        .get("output_spike_counts")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|c| c.as_u64().unwrap())
        .collect();
    assert_eq!(served_counts, counts);
    let u = |key: &str| doc.get(key).and_then(Json::as_u64);
    let bits = |key: &str| doc.get(key).and_then(Json::as_f64).map(f64::to_bits);
    assert_eq!(u("predicted_class"), Some(summary.predicted_class as u64));
    assert_eq!(u("total_cycles"), Some(summary.stats.total_cycles));
    assert_eq!(u("synaptic_ops"), Some(summary.stats.synaptic_ops));
    assert_eq!(u("chunks_pushed"), Some(chunks.len() as u64));
    assert_eq!(bits("energy_uj"), Some(summary.energy.energy_uj.to_bits()));
    assert_eq!(
        bits("inference_time_ms"),
        Some(summary.inference_time_ms.to_bits())
    );
    assert_eq!(bits("mean_activity"), Some(summary.mean_activity.to_bits()));

    // A first push that cannot park leaves no session behind.
    std::fs::create_dir(dir.join(format!("s{}.tmp", hex("fresh")))).unwrap();
    let (status, body) = seq_push("fresh", &chunks[0], 0);
    assert_eq!(status, 503, "{body}");
    assert_eq!(durability(&server).park_failures, 2);
    let (status, _) = client::post(addr, "/v1/stream/fresh/close", "").unwrap();
    assert_eq!(status, 404);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
