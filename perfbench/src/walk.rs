//! The traced layer walk: one inference re-run stage by stage through the
//! engine's public per-layer entry points, with a span around each stage.
//!
//! The walk is the benchmark's own copy of the session's stage loop, so it
//! must reproduce the session's result exactly (outputs and per-layer
//! statistics); [`Walk::matches`] checks that before any number is used.

use sne::compile::{CompiledNetwork, Stage};
use sne::run::InferenceResult;
use sne_event::EventStream;
use sne_sim::{CycleStats, Engine, LayerPlan};

use crate::stats::Samples;
use crate::trace::Tracer;
use crate::Report;

/// Accepted range of `session.coverage`: the layer spans plus the walk's
/// own glue must account for the session's infer time within this band.
pub const COVERAGE_TOLERANCE: (f64, f64) = (0.85, 1.15);

/// Span names of the accelerated layers, in stage order.
pub const LAYER_SPANS: [&str; 4] = ["sim.l0", "sim.l1", "sim.l2", "sim.l3"];

/// What one accelerated layer did in one walk.
#[derive(Debug, Clone)]
pub struct LayerRecord {
    pub stats: CycleStats,
    pub input_events: u64,
    pub output_events: u64,
    pub host_ns: u64,
}

#[derive(Debug, Clone)]
pub struct Walk {
    pub layers: Vec<LayerRecord>,
    pub pool_ns: u64,
    pub output_spike_counts: Vec<u32>,
    pub predicted_class: usize,
    pub walk_ns: u64,
}

impl Walk {
    /// Runs every stage of `network` over `input` on `engine`, with the
    /// compiled `plans` (one per accelerated layer).
    pub fn run(
        tracer: &mut Tracer,
        request: u64,
        engine: &mut Engine,
        network: &CompiledNetwork,
        plans: &[LayerPlan],
        input: &EventStream,
    ) -> Result<Self, String> {
        assert!(
            network.accelerated_layers() <= LAYER_SPANS.len(),
            "the walk names at most {} layers",
            LAYER_SPANS.len()
        );
        let root = tracer.open("walk", request, None);
        let start = std::time::Instant::now();
        let mut stream = input.clone();
        let mut layers = Vec::new();
        let mut pool_ns = 0u64;
        for stage in network.stages() {
            match stage {
                Stage::Pool { window, .. } => {
                    let (pooled, us) =
                        tracer.span("sim.pool", request, root, || stream.downscale(*window));
                    stream = pooled;
                    pool_ns += (us * 1e3) as u64;
                }
                Stage::Accelerated { mapping, .. } => {
                    let index = layers.len();
                    let input_events = stream.spike_count() as u64;
                    let (run, us) = tracer.span(LAYER_SPANS[index], request, root, || {
                        engine.run_layer_planned(mapping, &plans[index], &stream)
                    });
                    let run = run.map_err(|e| format!("layer {index}: {e}"))?;
                    layers.push(LayerRecord {
                        stats: run.stats,
                        input_events,
                        output_events: run.output.spike_count() as u64,
                        host_ns: (us * 1e3) as u64,
                    });
                    stream = run.output;
                }
            }
        }
        let mut counts = vec![0u32; usize::from(network.output_classes())];
        for event in stream.iter().filter(|e| e.is_spike()) {
            if let Some(count) = counts.get_mut(usize::from(event.ch)) {
                *count += 1;
            }
        }
        // Lowest class index wins ties, as in the session.
        let predicted_class = counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .map_or(0, |(i, _)| i);
        let walk_ns = start.elapsed().as_nanos() as u64;
        tracer.close(root);
        Ok(Self {
            layers,
            pool_ns,
            output_spike_counts: counts,
            predicted_class,
            walk_ns,
        })
    }

    /// Whether the walk reproduced `result` exactly: prediction, output
    /// spike counts, and every layer's statistics and event counts.
    pub fn matches(&self, result: &InferenceResult) -> bool {
        let mut total = CycleStats::new();
        for layer in &self.layers {
            total.merge(&layer.stats);
        }
        self.predicted_class == result.predicted_class
            && self.output_spike_counts == result.output_spike_counts
            && total == result.stats
            && self.layers.len() == result.layers.len()
            && self.layers.iter().zip(&result.layers).all(|(w, s)| {
                w.stats == s.stats
                    && w.input_events == s.input_events
                    && w.output_events == s.output_events
            })
    }
}

/// Per-layer totals over every walk of a run.
#[derive(Debug, Default)]
pub struct Ledger {
    pub walks: u64,
    /// Per accelerated layer: (host ns, synaptic ops, modelled cycles).
    pub layers: Vec<(u64, u64, u64)>,
    pub pool_ns: u64,
    /// Session infer time and walk time over the same inputs.
    pub infer_ns: u64,
    pub walk_ns: u64,
    pub infer_us: Samples,
    pub walk_us: Samples,
    pub mismatches: u64,
}

impl Ledger {
    /// Adds one traced inference: the session's own time and result, and
    /// the walk over the same input.
    pub fn add(&mut self, infer_ns: u64, result: &InferenceResult, walk: &Walk) {
        if !walk.matches(result) {
            self.mismatches += 1;
        }
        if self.layers.len() < walk.layers.len() {
            self.layers.resize(walk.layers.len(), (0, 0, 0));
        }
        for (acc, layer) in self.layers.iter_mut().zip(&walk.layers) {
            acc.0 += layer.host_ns;
            acc.1 += layer.stats.synaptic_ops;
            acc.2 += layer.stats.total_cycles;
        }
        self.walks += 1;
        self.pool_ns += walk.pool_ns;
        self.infer_ns += infer_ns;
        self.walk_ns += walk.walk_ns;
        self.infer_us.push(infer_ns as f64 / 1e3);
        self.walk_us.push(walk.walk_ns as f64 / 1e3);
    }

    /// Reports the per-layer metrics (padded to every named layer: a layer
    /// the network does not have reads 0), counts every walk that did not
    /// reproduce its session result as a failure, and fails the run when
    /// the stage sum leaves [`COVERAGE_TOLERANCE`].
    pub fn report(&self, report: &mut Report, tracer: &Tracer) {
        let n = self.walks.max(1) as f64;
        for (i, name) in LAYER_SPANS.iter().enumerate() {
            let (ns, sops, cycles) = self.layers.get(i).copied().unwrap_or((0, 0, 0));
            let per_sop = if sops > 0 {
                ns as f64 / sops as f64
            } else {
                0.0
            };
            report.metric(format!("{name}.host_us"), ns as f64 / 1e3 / n, "us");
            report.metric(format!("{name}.ns_per_sop"), per_sop, "ns");
            report.metric(format!("{name}.sops"), sops as f64 / n, "count");
            report.metric(format!("{name}.cycles"), cycles as f64 / n, "count");
        }
        report.metric("sim.pool.host_us", self.pool_ns as f64 / 1e3 / n, "us");
        let layer_ns: u64 = self.layers.iter().map(|l| l.0).sum::<u64>() + self.pool_ns;
        let glue_ns = self.infer_ns as f64 - layer_ns as f64;
        report.metric("session.glue_us", glue_ns / 1e3 / n, "us");

        // Layer spans plus the walk's own glue (its self time), against the
        // session's infer span over the same inputs.
        let totals = tracer.totals();
        let total = |name: &str| totals.get(name).map_or(0, |t| t.total_ns);
        let walk_self = totals.get("walk").map_or(0, |t| t.self_ns);
        let spans: u64 = LAYER_SPANS.iter().map(|n| total(n)).sum::<u64>() + total("sim.pool");
        let coverage = (spans + walk_self) as f64 / self.infer_ns.max(1) as f64;
        let overhead = self.walk_us.median() / self.infer_us.median().max(f64::MIN_POSITIVE) - 1.0;
        report.metric("session.coverage", coverage, "frac");
        report.metric("trace.overhead_frac", overhead, "frac");
        report.attempted += self.walks;
        report.failed += self.mismatches;
        if self.walks == 0 {
            report
                .broken
                .push("the traced run walked no inference".to_owned());
        }
        if !(COVERAGE_TOLERANCE.0..=COVERAGE_TOLERANCE.1).contains(&coverage) {
            report.broken.push(format!(
                "session.coverage {coverage:.3} outside [{}, {}]",
                COVERAGE_TOLERANCE.0, COVERAGE_TOLERANCE.1
            ));
        }
    }
}
