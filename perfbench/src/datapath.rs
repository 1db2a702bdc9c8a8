//! The two in-process datapath workloads on the paper's Fig. 6 network
//! (32x32 input, 8 slices, 48 timesteps):
//!
//! - `dvs-gesture`: the 11 `GestureDataset` classes cycled, four samples per
//!   class, one caller back to back. Every layer is active, and the mix holds
//!   both floor-bound samples (`Other`) and kernel-bound ones.
//! - `dense-10pct`: a pool of uniform 10 % streams, where span accumulation
//!   in the dominant conv layer does almost all the work. It runs on demand
//!   but is not in `BENCHMARK.json`'s gated set: on a shared 2-core host its
//!   memory-bound loop drifts with the neighbours' load by up to 1.6x from
//!   one run to the next, more than any regression bound can absorb.
//!
//! A run alternates two kinds of timed pass over the inputs. An infer pass
//! calls `InferenceSession::infer` once per input. A push pass streams a
//! quarter of the inputs in 8-timestep chunks as a durable session would:
//! `RuntimeArtifact::push`, then `snapshot_client`, then `SessionStore::park`.

use std::sync::Arc;
use std::time::Instant;

use rand::SeedableRng;
use sne::artifact::RuntimeArtifact;
use sne::compile::CompiledNetwork;
use sne::run::InferenceResult;
use sne::session::InferenceSession;
use sne::sne_store::{FsyncPolicy, SessionStore};
use sne_event::datasets::{EventDataset, GestureDataset};
use sne_event::EventStream;
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_sim::{ExecStrategy, Kernel, SneConfig};

use crate::stats::{calm_pool, group, median, Samples, Window};
use crate::trace::Tracer;
use crate::walk::{Ledger, Walk};
use crate::{Args, Report};

const RESOLUTION: u16 = 32;
const TIMESTEPS: u32 = 48;
const SLICES: usize = 8;
const CLASSES: u16 = 11;
/// The network's weights are part of the program under test, not of the
/// generated input: they stay fixed across seeds.
const NETWORK_SEED: u64 = 5;
const GESTURE_SAMPLES_PER_CLASS: u64 = 4;
const DENSE_STREAMS: u64 = 4;
const DENSE_ACTIVITY: f64 = 0.10;
const CHUNK_TIMESTEPS: u32 = 8;
const SETUP_REPEATS: usize = 15;
/// A push pass streams one input in this many, rotating through them.
const PUSH_PASS_SHARE: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    Gesture,
    Dense,
}

impl Traffic {
    /// The fixed tail percentiles (infer, push): the highest that keeps at
    /// least ten samples beyond it in the calm half of a run of the
    /// benchmark's length. They are constants, not chosen per run, so runs
    /// compare like with like.
    fn tail_percentiles(self) -> (f64, f64) {
        match self {
            Traffic::Gesture => (98.0, 98.0),
            Traffic::Dense => (75.0, 80.0),
        }
    }

    fn inputs(self, seed: u64) -> Vec<EventStream> {
        match self {
            Traffic::Gesture => {
                let dataset = GestureDataset::new(RESOLUTION, TIMESTEPS, seed);
                (0..u64::from(CLASSES) * GESTURE_SAMPLES_PER_CLASS)
                    .map(|i| dataset.sample(i).stream)
                    .collect()
            }
            Traffic::Dense => (0..DENSE_STREAMS)
                .map(|i| {
                    sne::proportionality::stream_with_activity(
                        (2, RESOLUTION, RESOLUTION),
                        TIMESTEPS,
                        DENSE_ACTIVITY,
                        seed.wrapping_mul(DENSE_STREAMS).wrapping_add(i),
                    )
                })
                .collect(),
        }
    }
}

fn compile() -> CompiledNetwork {
    let topology = Topology::paper_fig6(Shape::new(2, RESOLUTION, RESOLUTION), CLASSES);
    let mut rng = rand::rngs::StdRng::seed_from_u64(NETWORK_SEED);
    CompiledNetwork::random(&topology, &mut rng).expect("the Fig. 6 topology compiles")
}

/// Everything set-up builds: the artifact, the timed session, the push
/// engine and the store.
struct Rig {
    artifact: Arc<RuntimeArtifact>,
    session: InferenceSession,
    engine: sne_sim::Engine,
    store: SessionStore,
}

/// Compiles the network, builds the plans, constructs the session and opens
/// the store. Returns the rig and the plan-build time in ms.
fn set_up(tracer: &mut Tracer, store_dir: &std::path::Path) -> (Rig, f64) {
    let network = compile();
    let (plans, plans_us) = tracer.span("compile.build_plans", 0, None, || network.build_plans());
    let artifact = Arc::new(
        RuntimeArtifact::with_shared_plans(
            network,
            SneConfig::with_slices(SLICES),
            Arc::new(plans),
        )
        .expect("the Fig. 6 artifact builds"),
    );
    let session = InferenceSession::from_artifact(Arc::clone(&artifact), ExecStrategy::Sequential);
    let engine = artifact.new_engine(ExecStrategy::Sequential);
    let store = SessionStore::open(store_dir, FsyncPolicy::Never).expect("the store opens");
    (
        Rig {
            artifact,
            session,
            engine,
            store,
        },
        plans_us / 1e3,
    )
}

/// Whether a chunked stream's summary agrees with the whole-sample result:
/// prediction, output spikes and every layer's event and synaptic-op counts.
fn summary_agrees(summary: &InferenceResult, whole: &InferenceResult) -> bool {
    summary.predicted_class == whole.predicted_class
        && summary.output_spike_counts == whole.output_spike_counts
        && summary.stats.synaptic_ops == whole.stats.synaptic_ops
        && summary.layers.len() == whole.layers.len()
        && summary.layers.iter().zip(&whole.layers).all(|(a, b)| {
            a.input_events == b.input_events
                && a.output_events == b.output_events
                && a.stats.synaptic_ops == b.stats.synaptic_ops
        })
}

pub fn run(traffic: Traffic, args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    // Inputs first: generation is outside set-up and every timed region.
    let inputs = traffic.inputs(args.seed);
    let chunked: Vec<Vec<EventStream>> = inputs
        .iter()
        .map(|s| s.chunks(CHUNK_TIMESTEPS).collect())
        .collect();
    let activity: Vec<f64> = inputs.iter().map(EventStream::activity).collect();

    let store_dir =
        crate::out_dir().join(format!("store-{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let mut setup_s = Vec::new();
    let mut plans_ms = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        drop(rig.take());
        let start = Instant::now();
        let (built, ms) = set_up(tracer, &store_dir);
        setup_s.push(start.elapsed().as_secs_f64());
        plans_ms.push(ms);
        rig = Some(built);
    }
    let mut rig = rig.expect("set-up ran");
    let plan_bytes: usize = rig.artifact.plans().iter().map(|p| p.table_bytes()).sum();

    // Gates, untimed: the first inference on each input must equal the
    // oracle's (the scalar kernel, or the naive walk when the session
    // already runs scalar), and the chunked durable push must agree with
    // it and restore bit-identically from its snapshot.
    let mut oracle =
        InferenceSession::from_artifact(Arc::clone(&rig.artifact), ExecStrategy::Sequential);
    if rig.session.kernel() == Kernel::Scalar {
        oracle.set_plan_enabled(false);
    } else {
        oracle.set_kernel(Kernel::Scalar);
    }
    let mut whole = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        let result = rig.session.infer(input);
        let expected = oracle.infer(input);
        report.check(matches!((&result, &expected), (Ok(r), Ok(e)) if r == e));
        let Ok(result) = result else {
            continue;
        };
        let mut client = rig.artifact.new_client();
        let mut pushed = true;
        for chunk in &chunked[i] {
            pushed &= rig
                .artifact
                .push(&mut rig.engine, &mut client, chunk, true)
                .is_ok();
        }
        let bytes = rig.artifact.snapshot_client(&client);
        let restored = rig.artifact.restore_client(&bytes);
        report.check(pushed && summary_agrees(&rig.artifact.summary(&client), &result));
        report.check(restored.is_ok_and(|r| r == client));
        whole.push(result);
    }
    drop(oracle);

    // The modelled chip, for the record beside the paper's figures.
    let energy_pj: f64 = whole.iter().map(|r| r.energy.energy_uj * 1e6).sum();
    let sops: u64 = whole.iter().map(|r| r.stats.synaptic_ops).sum();
    let uj_per_inf =
        whole.iter().map(|r| r.energy.energy_uj).sum::<f64>() / whole.len().max(1) as f64;
    println!(
        "model (modelled chip output, unvalidated against silicon, 32x32 surrogate): model.pj_per_sop {:.4} pJ/SOP, model.uj_per_inf {:.3} uJ/inf | paper: 0.221 pJ/SOP, 80-261 uJ/inf on DVS-Gesture",
        energy_pj / sops.max(1) as f64,
        uj_per_inf
    );
    let (lo, hi) = activity
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &a| (lo.min(a), hi.max(a)));
    println!(
        "inputs: {} streams, input activity {:.2}%..{:.2}%, {} timesteps, kernel {}",
        inputs.len(),
        lo * 100.0,
        hi * 100.0,
        TIMESTEPS,
        rig.session.kernel().name()
    );

    // Timed rounds until the budget is spent. A round is one infer pass (every
    // input once) and one push pass (the next quarter of the inputs, each
    // streamed chunk by chunk into a fresh durable session that closes after
    // its last chunk). Alternating the two spreads both over the whole run.
    let mut infer_passes = Vec::new();
    let mut push_passes = Vec::new();
    let mut ledger = Ledger::default();
    let [mut encode_us, mut park_us, mut load_us, mut decode_us]: [Samples; 4] = Default::default();
    let mut snapshot_bytes = Samples::default();
    let mut request = 0u64;
    let mut session_id = 0u64;
    let per_push_pass = inputs.len().div_ceil(PUSH_PASS_SHARE);
    let timed = Instant::now();
    while timed.elapsed().as_secs_f64() < args.seconds {
        let mut pass = Window::default();
        for input in &inputs {
            request += 1;
            let span = tracer.open("session.infer", request, None);
            let start = Instant::now();
            let result = rig.session.infer(std::hint::black_box(input));
            let ns = start.elapsed().as_nanos() as u64;
            tracer.close(span);
            let Ok(result) = result else {
                report.check(false);
                continue;
            };
            report.attempted += 1;
            pass.add(ns as f64 / 1e3, result.stats.synaptic_ops);
            if tracer.enabled() {
                let network = rig.artifact.network();
                match Walk::run(
                    tracer,
                    request,
                    &mut rig.engine,
                    network,
                    rig.artifact.plans(),
                    input,
                ) {
                    Ok(walk) => ledger.add(ns, &result, &walk),
                    Err(_) => ledger.mismatches += 1,
                }
            }
        }
        infer_passes.push(pass);

        let mut pass = Window::default();
        let first = push_passes.len() * per_push_pass;
        for chunks in (first..first + per_push_pass).map(|i| &chunked[i % chunked.len()]) {
            session_id += 1;
            let id = format!("s{session_id}");
            let mut client = rig.artifact.new_client();
            for chunk in chunks {
                request += 1;
                let span = tracer.open("push", request, None);
                let start = Instant::now();
                let pushed = rig.artifact.push(&mut rig.engine, &mut client, chunk, true);
                let (bytes, encoded_us) = tracer.span("store.encode", request, span, || {
                    rig.artifact.snapshot_client(&client)
                });
                let (parked, parked_us) =
                    tracer.span("store.park", request, span, || rig.store.park(&id, &bytes));
                let us = start.elapsed().as_secs_f64() * 1e6;
                tracer.close(span);
                let sops = pushed.as_ref().map_or(0, |out| out.stats.synaptic_ops);
                report.check(pushed.is_ok() && parked.is_ok());
                pass.add(us, sops);
                if tracer.enabled() {
                    // The read-back half of the store, timed only here.
                    let (loaded, loaded_us) =
                        tracer.span("store.load", request, None, || rig.store.load(&id));
                    let loaded = loaded.ok().flatten().unwrap_or_default();
                    let (restored, decoded_us) = tracer.span("store.decode", request, None, || {
                        rig.artifact.restore_client(&loaded)
                    });
                    report.check(restored.is_ok_and(|r| r == client));
                    encode_us.push(encoded_us);
                    park_us.push(parked_us);
                    load_us.push(loaded_us);
                    decode_us.push(decoded_us);
                    snapshot_bytes.push(bytes.len() as f64);
                }
            }
            let _ = rig.store.remove(&id);
        }
        push_passes.push(pass);
    }
    drop(rig);
    let _ = std::fs::remove_dir_all(&store_dir);

    if args.trace {
        ledger.report(&mut report, tracer);
        report.metric("compile.plans_ms", median(&plans_ms), "ms");
        report.metric("compile.plan_bytes", plan_bytes as f64, "bytes");
        // The serving stack is not part of this workload.
        for name in crate::serve::SERVE_ONLY_METRICS {
            report.metric(name.0, 0.0, name.1);
        }
        report.metric("store.encode_us", encode_us.mean(), "us");
        report.metric("store.decode_us", decode_us.mean(), "us");
        report.metric("store.park_us", park_us.mean(), "us");
        report.metric("store.load_us", load_us.mean(), "us");
        report.metric("store.snapshot_bytes", snapshot_bytes.mean(), "bytes");
        report.metric("store.fault_in_frac", 0.0, "frac");
        report.metric("store.parked_to_disk", 0.0, "count");
    } else {
        let (infer_tail, push_tail) = traffic.tail_percentiles();
        let calm = |passes: &[Window]| calm_pool(&group(passes), |w| w.samples.median()).0;
        let infer = calm(&infer_passes);
        let push = calm(&push_passes);
        println!(
            "calm half: {} infers (p{infer_tail} has {} beyond) of {} passes, {} pushes (p{push_tail} has {} beyond) of {} passes",
            infer.ops,
            infer.samples.beyond(infer_tail),
            infer_passes.len(),
            push.ops,
            push.samples.beyond(push_tail),
            push_passes.len()
        );
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("infer_us_p50", infer.samples.median(), "us");
        report.metric("infer_us_tail", infer.samples.percentile(infer_tail), "us");
        report.metric("ns_per_sop", infer.busy_ns / infer.sops.max(1) as f64, "ns");
        report.metric("push_us_p50", push.samples.median(), "us");
        report.metric("push_us_tail", push.samples.percentile(push_tail), "us");
        report.metric(
            "capacity_rps",
            infer.ops as f64 / (infer.busy_ns / 1e9),
            "1/s",
        );
    }
    report
}
