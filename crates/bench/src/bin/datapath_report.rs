//! Measures the compiled sparse datapath (plan) against the naive mapping
//! walk and emits a machine-readable `BENCH_datapath.json`, tracking the
//! host-time trajectory of the event datapath from PR to PR (the companion of
//! `BENCH_session.json`).
//!
//! The workload is the Fig. 6 @ 32x32 session inference over 48 timesteps
//! (long enough that the 0.1 % point carries ~200 input events and its ratio
//! is measurement-stable), swept over three input activities (0.1 %, 1 %,
//! 10 %). For every activity the binary first asserts that the compiled plan
//! reproduces the naive oracle **bit-identically** and that the blocked
//! kernel reproduces the scalar oracle bit-identically, and only then times
//! the datapaths. Three headline numbers come out:
//!
//! * `speedup_at_1pct` — plan vs naive host time at 1 % activity (the
//!   longstanding ≥2x acceptance metric);
//! * `speedup_at_0p1pct` — plan vs naive at 0.1 % activity: the sparse floor
//!   where per-run setup used to dominate;
//! * `speedup_blocked_vs_scalar_at_1pct` — the blocked/SIMD kernel against
//!   the scalar oracle on the same plan datapath.
//!
//! The host-time floor is decomposed by two zero-activity runs (48 and 96
//! timesteps): extrapolating to zero timesteps isolates the per-run `setup_us`
//! from the per-timestep floor, and subtracting the 48-timestep floor from an
//! active run isolates each activity's event-side cost — so the JSON shows
//! *where* low-activity host time goes, not just the total.
//!
//! ```bash
//! cargo run --release -p sne_bench --bin datapath_report                    # full run
//! cargo run --release -p sne_bench --bin datapath_report -- --smoke        # CI smoke
//! cargo run --release -p sne_bench --bin datapath_report -- --kernel scalar
//! cargo run --release -p sne_bench --bin datapath_report -- --out x.json
//! ```

use std::time::Instant;

use sne::session::InferenceSession;
use sne_bench::{fig6_network, workload};
use sne_sim::simd::BLOCK_LANES;
use sne_sim::{Kernel, SneConfig};

/// The swept input activities: 0.1 %, 1 % (the session-bench anchor), 10 %.
const ACTIVITIES: [f64; 3] = [0.001, 0.01, 0.1];

/// Timesteps of every measured workload (and of the shorter floor anchor).
const TIMESTEPS: u32 = 48;

struct Point {
    activity: f64,
    input_events: u64,
    naive_us: f64,
    plan_us: f64,
    /// Plan host time of the scalar oracle kernel, from the dedicated
    /// scalar-vs-blocked interleaved pair (not rescaled onto `plan_us`).
    scalar_plan_us: f64,
    /// Plan host time of the blocked kernel from that same pair.
    blocked_plan_us: f64,
}

impl Point {
    fn speedup(&self) -> f64 {
        self.naive_us / self.plan_us
    }

    /// Blocked-vs-scalar ratio from the same interleaved pair, so machine
    /// drift between measurement phases cannot fake (or hide) a kernel win.
    fn kernel_speedup(&self) -> f64 {
        self.scalar_plan_us / self.blocked_plan_us
    }
}

/// Measures two closures by alternating batches and taking each side's
/// median batch mean: interleaving cancels machine drift between the two
/// measurement phases and the median rejects interference outliers, so the
/// reported ratio reflects the datapaths, not the host's scheduling noise.
fn measure_pair_us(
    batches: u32,
    batch_iterations: u32,
    mut a: impl FnMut() -> u64,
    mut b: impl FnMut() -> u64,
) -> (f64, f64) {
    let mut checksum = a().wrapping_add(b()); // warm-up: lazy buffers, page faults
    let batch = |run: &mut dyn FnMut() -> u64| {
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..batch_iterations {
            sum = sum.wrapping_add(run());
        }
        (
            start.elapsed().as_secs_f64() * 1e6 / f64::from(batch_iterations),
            sum,
        )
    };
    let mut a_means = Vec::new();
    let mut b_means = Vec::new();
    for _ in 0..batches {
        let (mean, sum) = batch(&mut a);
        a_means.push(mean);
        checksum = checksum.wrapping_add(sum);
        let (mean, sum) = batch(&mut b);
        b_means.push(mean);
        checksum = checksum.wrapping_add(sum);
    }
    assert!(checksum > 0, "benchmark workload produced no cycles");
    let median = |means: &mut Vec<f64>| {
        means.sort_by(f64::total_cmp);
        means[means.len() / 2]
    };
    (median(&mut a_means), median(&mut b_means))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_datapath.json".to_owned());
    let kernel_arg = args
        .iter()
        .position(|a| a == "--kernel")
        .and_then(|i| args.get(i + 1).cloned());
    let kernel = match kernel_arg.as_deref() {
        None => Kernel::auto(),
        Some(name) => Kernel::parse(name).unwrap_or_else(|| {
            eprintln!("unknown kernel {name:?} (expected scalar|blocked|auto)");
            std::process::exit(2);
        }),
    };
    let (batches, batch_iterations): (u32, u32) = if smoke { (1, 3) } else { (9, 8) };
    let iterations = batches * batch_iterations;

    let config = SneConfig::with_slices(8);
    let network = fig6_network(32, 11, 5);
    let plans = network.build_plans();
    let plan_entries: usize = plans.iter().map(|p| p.table_entries()).sum();
    let plan_bytes: usize = plans.iter().map(|p| p.table_bytes()).sum();
    drop(plans);

    let session = |kernel: Kernel, plan: bool| -> InferenceSession {
        let mut s = InferenceSession::new(network.clone(), config).unwrap();
        s.set_kernel(kernel);
        s.set_plan_enabled(plan);
        s
    };

    // Host-time floor decomposition: two zero-activity runs bracket the
    // per-run setup (extrapolated to zero timesteps) and the per-timestep
    // floor; both datapaths are measured so the floor is attributable.
    let zero_short = workload(32, TIMESTEPS, 0.0, 7);
    let zero_long = workload(32, 2 * TIMESTEPS, 0.0, 7);
    let mut floor_plan_short = session(kernel, true);
    let mut floor_plan_long = session(kernel, true);
    let (zero_short_plan_us, zero_long_plan_us) = measure_pair_us(
        batches,
        batch_iterations,
        || {
            floor_plan_short
                .infer(&zero_short)
                .unwrap()
                .stats
                .total_cycles
        },
        || {
            floor_plan_long
                .infer(&zero_long)
                .unwrap()
                .stats
                .total_cycles
        },
    );
    let mut floor_naive_short = session(kernel, false);
    let mut floor_naive_long = session(kernel, false);
    let (zero_short_naive_us, _) = measure_pair_us(
        batches,
        batch_iterations,
        || {
            floor_naive_short
                .infer(&zero_short)
                .unwrap()
                .stats
                .total_cycles
        },
        || {
            floor_naive_long
                .infer(&zero_long)
                .unwrap()
                .stats
                .total_cycles
        },
    );
    let setup_us = (2.0 * zero_short_plan_us - zero_long_plan_us).max(0.0);
    let timestep_floor_us =
        (zero_long_plan_us - zero_short_plan_us).max(0.0) / f64::from(TIMESTEPS);

    let mut points = Vec::new();
    for (i, &activity) in ACTIVITIES.iter().enumerate() {
        let stream = workload(32, TIMESTEPS, activity, 7 + i as u64);

        let mut planned = session(kernel, true);
        let mut naive = session(kernel, false);
        let mut scalar_planned = session(Kernel::Scalar, true);
        let mut blocked_planned = session(Kernel::Blocked, true);

        // Bit-exactness gates, asserted before anything is timed: the
        // compiled datapath must reproduce the naive oracle exactly, and the
        // blocked kernel must reproduce the scalar oracle exactly — outputs,
        // stats, energy.
        let plan_result = planned.infer(&stream).unwrap();
        let naive_result = naive.infer(&stream).unwrap();
        assert_eq!(
            plan_result, naive_result,
            "plan and naive datapaths diverged at activity {activity}"
        );
        let scalar_result = scalar_planned.infer(&stream).unwrap();
        let blocked_result = blocked_planned.infer(&stream).unwrap();
        assert_eq!(
            blocked_result, scalar_result,
            "blocked and scalar kernels diverged at activity {activity}"
        );

        let (naive_us, plan_us) = measure_pair_us(
            batches,
            batch_iterations,
            || naive.infer(&stream).unwrap().stats.total_cycles,
            || planned.infer(&stream).unwrap().stats.total_cycles,
        );
        let (scalar_plan_us, blocked_plan_us) = measure_pair_us(
            batches,
            batch_iterations,
            || scalar_planned.infer(&stream).unwrap().stats.total_cycles,
            || blocked_planned.infer(&stream).unwrap().stats.total_cycles,
        );
        points.push(Point {
            activity,
            input_events: plan_result.input_events(),
            naive_us,
            plan_us,
            scalar_plan_us,
            blocked_plan_us,
        });
    }

    let at = |a: f64| points.iter().find(|p| p.activity == a).unwrap();
    let speedup_at_1pct = at(0.01).speedup();
    let speedup_at_0p1pct = at(0.001).speedup();
    let kernel_speedup_at_1pct = at(0.01).kernel_speedup();
    let proportionality_ratio = at(0.001).plan_us / at(0.1).plan_us;

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"datapath\",\n");
    json.push_str("  \"datapath\": \"plan\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!("  \"kernel\": \"{}\",\n", kernel.name()));
    json.push_str(&format!(
        "  \"kernel_vectorized\": {},\n",
        kernel.is_vectorized()
    ));
    json.push_str(&format!("  \"block_lanes\": {BLOCK_LANES},\n"));
    json.push_str(&format!("  \"iterations\": {iterations},\n"));
    json.push_str(&format!(
        "  \"workload\": {{\"network\": \"fig6_32x32\", \"timesteps\": {TIMESTEPS}, \"slices\": 8}},\n",
    ));
    json.push_str(&format!("  \"plan_table_entries\": {plan_entries},\n"));
    json.push_str(&format!("  \"plan_table_bytes\": {plan_bytes},\n"));
    json.push_str("  \"bit_exact\": true,\n");
    json.push_str("  \"phases\": {\n");
    json.push_str(&format!("    \"setup_us\": {setup_us:.2},\n"));
    json.push_str(&format!(
        "    \"timestep_floor_us\": {timestep_floor_us:.4},\n"
    ));
    json.push_str(&format!(
        "    \"zero_floor_plan_us\": {zero_short_plan_us:.2},\n"
    ));
    json.push_str(&format!(
        "    \"zero_floor_naive_us\": {zero_short_naive_us:.2}\n"
    ));
    json.push_str("  },\n");
    json.push_str("  \"activities\": {\n");
    for (i, p) in points.iter().enumerate() {
        let event_us = (p.plan_us - zero_short_plan_us).max(0.0);
        json.push_str(&format!(
            "    \"{}\": {{\"input_events\": {}, \"naive_us\": {:.2}, \"plan_us\": {:.2}, \"scalar_plan_us\": {:.2}, \"event_us\": {:.2}, \"speedup\": {:.3}, \"kernel_speedup\": {:.3}}}{}\n",
            p.activity,
            p.input_events,
            p.naive_us,
            p.plan_us,
            p.scalar_plan_us,
            event_us,
            p.speedup(),
            p.kernel_speedup(),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!("  \"speedup_at_1pct\": {speedup_at_1pct:.3},\n"));
    json.push_str(&format!(
        "  \"speedup_at_0p1pct\": {speedup_at_0p1pct:.3},\n"
    ));
    json.push_str(&format!(
        "  \"speedup_blocked_vs_scalar_at_1pct\": {kernel_speedup_at_1pct:.3},\n"
    ));
    json.push_str(&format!(
        "  \"plan_host_us_ratio_0p1_vs_10pct\": {proportionality_ratio:.4},\n"
    ));
    json.push_str(&format!(
        "  \"proportionality_demonstrated\": {}\n",
        proportionality_ratio <= 0.5
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_datapath.json");

    println!(
        "Sparse datapath — compiled plan vs naive mapping walk (Fig. 6 @ 32x32, 8 slices, {TIMESTEPS} ts)"
    );
    println!(
        "kernel: {} ({} lanes{}) | plan tables: {} entries, {} bytes resident | bit-exact: verified",
        kernel.name(),
        BLOCK_LANES,
        if kernel.is_vectorized() {
            ", vectorized"
        } else {
            ""
        },
        plan_entries,
        plan_bytes
    );
    println!(
        "floor: setup {setup_us:.1} us/run + {timestep_floor_us:.2} us/timestep (zero-activity plan {zero_short_plan_us:.1} us, naive {zero_short_naive_us:.1} us)"
    );
    println!();
    println!(
        "{:<10} {:>8} {:>11} {:>11} {:>11} {:>10} {:>9} {:>8}",
        "activity", "events", "naive us", "plan us", "scalar us", "event us", "speedup", "kernel"
    );
    for p in &points {
        println!(
            "{:<10} {:>8} {:>11.1} {:>11.1} {:>11.1} {:>10.1} {:>8.2}x {:>7.2}x",
            format!("{:.1}%", p.activity * 100.0),
            p.input_events,
            p.naive_us,
            p.plan_us,
            p.scalar_plan_us,
            (p.plan_us - zero_short_plan_us).max(0.0),
            p.speedup(),
            p.kernel_speedup()
        );
    }
    println!();
    println!("speedup at 1% activity: {speedup_at_1pct:.2}x (target >= 2x)");
    println!("speedup at 0.1% activity: {speedup_at_0p1pct:.2}x (target >= 1.8x)");
    println!("blocked vs scalar at 1% activity: {kernel_speedup_at_1pct:.2}x (target >= 1.3x)");
    println!(
        "plan host time, 0.1% vs 10% activity: {proportionality_ratio:.4} (target <= 0.5: energy-proportional host time)"
    );
    println!("wrote {out_path}");

    if !smoke {
        // Regression guards (smoke runs skip them — 3 iterations are too
        // noisy to judge by). Each gate sits below its headline on purpose:
        // a genuine datapath regression lands far below the gate, while
        // shared-runner noise does not — the committed full-run artifact is
        // what demonstrates the headline ratios.
        assert!(
            speedup_at_1pct >= 1.8,
            "plan datapath regressed: expected ~2.5x over naive at 1% activity"
        );
        assert!(
            speedup_at_0p1pct >= 1.6,
            "sparse floor regressed: expected ~1.9x over naive at 0.1% activity"
        );
        assert!(
            proportionality_ratio <= 0.5,
            "host time must be activity-proportional (0.1% <= 0.5x of 10%)"
        );
        if kernel == Kernel::Blocked && Kernel::host_default() == Kernel::Blocked {
            assert!(
                kernel_speedup_at_1pct >= 1.15,
                "blocked kernel regressed: expected ~1.35x over scalar at 1% activity"
            );
        }
    }
}
