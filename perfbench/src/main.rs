//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dvs-gesture|dense-10pct|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs are generated from `--seed` before anything is timed. Correctness
//! gates run before timing; every mismatch counts as a failed operation.
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it records spans around calls into each layer and reports
//! the per-layer metrics (the spans are written to `perfbench/out/`).
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod datapath;
mod serve;
mod stats;
mod trace;
mod walk;

use std::path::PathBuf;

use trace::Tracer;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Gate failures that are not single operations (e.g. trace coverage
    /// outside its tolerance).
    pub broken: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload: value("--workload")?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: seconds as f64,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    })
}

/// The commit being measured, read from `.git` when the working directory
/// is a git checkout ("unknown" otherwise).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}"))
            .map_or_else(|| "unknown".to_owned(), |r| r.trim().to_owned()),
        None => head.to_owned(),
    }
}

/// Where a run writes its spans and scratch files (inside the checkout).
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <dvs-gesture|dense-10pct|serve-mixed> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let kernel = sne_sim::Kernel::auto();
    let forced = sne_sim::Kernel::from_env().is_some();
    println!(
        "provenance: rev {} | host cores {cores} | seed {} | workload {} | seconds {} | trace {} | kernel {}{}",
        git_rev(),
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace),
        kernel.name(),
        if forced {
            format!(" (forced by {})", sne_sim::simd::KERNEL_ENV)
        } else {
            " (host default)".to_owned()
        }
    );

    let mut tracer = Tracer::new(args.trace);
    let report = match args.workload.as_str() {
        "dvs-gesture" => datapath::run(datapath::Traffic::Gesture, &args, &mut tracer),
        "dense-10pct" => datapath::run(datapath::Traffic::Dense, &args, &mut tracer),
        "serve-mixed" => serve::run(&args, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };

    if args.trace {
        let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }

    for reason in &report.broken {
        println!("FAILED: {reason}");
    }
    println!(
        "operations: {} attempted, {} failed (error_frac {:.6})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for m in &report.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.broken.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}
