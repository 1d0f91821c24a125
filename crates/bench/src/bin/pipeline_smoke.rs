//! Pipeline smoke benchmark: a short, fixed workload over the event-driven
//! runtime (persistent pool, notifying router, streaming shuffles,
//! cross-segment pipelining) that writes a `BENCH_pipeline.json` summary
//! artifact, so the runtime's perf trajectory is recorded by CI. The
//! artifact includes a `barrier_bound_vs_pipelined` ratio (a straggler run's
//! `RunReport::barrier_bound()` over its own wall clock on a multi-segment
//! `PUSH-JOIN` plan; above 1.0 means tearing down the per-segment barrier
//! pays off).
//!
//! ```text
//! cargo run --release -p huge-bench --bin pipeline_smoke [-- <output.json>]
//! ```
//!
//! The workloads are sized to finish in well under a minute in release mode;
//! they are smoke numbers for trend lines, not statistically sampled
//! micro-benchmarks (use `cargo bench -p huge-bench` for those).

use std::time::Instant;

use huge_baselines::Baseline;
use huge_core::pool::WorkerPool;
use huge_core::{ClusterConfig, HugeCluster, LoadBalance, SinkMode};
use huge_graph::gen;
use huge_query::Pattern;

struct Sample {
    name: &'static str,
    seconds: f64,
    /// A workload-defined result (match count, items processed) that doubles
    /// as a correctness fingerprint for the recorded run.
    result: u64,
}

fn timed(name: &'static str, f: impl FnOnce() -> u64) -> Sample {
    let start = Instant::now();
    let result = f();
    let seconds = start.elapsed().as_secs_f64();
    println!("{name:<28} {seconds:>8.3}s   result {result}");
    Sample {
        name,
        seconds,
        result,
    }
}

/// Runs `f` `reps` times and keeps the best wall time (smoke runs are noisy;
/// the minimum is the stable trend-line statistic).
fn best_of(name: &'static str, reps: usize, f: impl Fn() -> u64) -> Sample {
    let mut seconds = f64::INFINITY;
    let mut result = 0;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        result = f();
        seconds = seconds.min(start.elapsed().as_secs_f64());
    }
    println!("{name:<28} {seconds:>8.3}s   result {result}");
    Sample {
        name,
        seconds,
        result,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let mut samples = Vec::new();

    // Persistent-pool dispatch overhead: many small batches through one pool.
    samples.push(timed("pool_small_batches", || {
        let pool = WorkerPool::new(4, LoadBalance::WorkStealing);
        let mut total = 0u64;
        for _ in 0..2_000 {
            let run = pool.run((0..64u64).collect(), |x, out| out.push(x + 1));
            total += run.into_flat().len() as u64;
        }
        assert_eq!(pool.threads_spawned(), 4);
        total
    }));

    let graph = gen::barabasi_albert(10_000, 7, 3);

    // The pulling hot path: triangles under the adaptive scheduler.
    let triangle_cluster = HugeCluster::build(graph.clone(), ClusterConfig::new(4).workers(2))?;
    samples.push(timed("huge_triangle_count", || {
        triangle_cluster
            .run(&Pattern::Triangle.query_graph(), SinkMode::Count)
            .unwrap()
            .matches
    }));

    // The count-only sink on the ROADMAP's chain workload (scaled down from
    // the 5-path example so the smoke run stays short).
    let path_graph = gen::barabasi_albert(2_000, 6, 11);
    let path_cluster = HugeCluster::build(path_graph.clone(), ClusterConfig::new(4).workers(2))?;
    samples.push(timed("huge_five_path_count_only", || {
        path_cluster
            .run(&Pattern::Path(5).query_graph(), SinkMode::Count)
            .unwrap()
            .matches
    }));

    // The streaming shuffle path: a pushing hash-join baseline.
    samples.push(timed("seed_square_streaming_join", || {
        Baseline::Seed
            .run(
                &path_graph,
                &Pattern::Square.query_graph(),
                &ClusterConfig::new(4).workers(1),
            )
            .unwrap()
            .matches
    }));

    // Cross-segment pipelining: a multi-segment PUSH-JOIN plan under the
    // per-machine dataflow scheduler with a *deterministic straggler* (a
    // 250 ms injected delay on machine 1 at the start of producer segment 1
    // — the scenario the scheduler exists for). The dataflow scheduler
    // reorders around it, so the peers' remaining producer work overlaps
    // the delay. The run's own `barrier_bound()` (the sum over segments of
    // the slowest machine's busy time — what a barriered execution of the
    // same work would need at least) over its wall clock isolates the
    // barrier cost deterministically instead of relying on natural skew
    // that work stealing mostly rebalances anyway.
    let seg_graph = gen::erdos_renyi(40_000, 160_000, 13);
    let seg_query = Pattern::Square.query_graph();
    let straggler = huge_core::Fault::Delay(std::time::Duration::from_millis(250));
    let reference_cluster =
        HugeCluster::build(seg_graph.clone(), ClusterConfig::new(4).workers(1))?;
    let straggler_cluster = HugeCluster::build(
        seg_graph.clone(),
        ClusterConfig::new(4)
            .workers(1)
            .inject_fault(1, 1, straggler),
    )?;
    let seg_plan = straggler_cluster.plan_with_options(
        &seg_query,
        huge_plan::optimizer::OptimizerOptions {
            disable_pulling: true,
            ..Default::default()
        },
    )?;
    let reference = timed("join_plan_no_straggler", || {
        reference_cluster
            .run_with_plan(&seg_plan, SinkMode::Count)
            .unwrap()
            .matches
    });
    // Wall clock and barrier bound of the fastest repetition.
    let best = std::cell::Cell::new((f64::INFINITY, 0.0f64));
    let pipelined = best_of("join_plan_pipelined", 2, || {
        let report = straggler_cluster
            .run_with_plan(&seg_plan, SinkMode::Count)
            .unwrap();
        let wall = report.compute_time.as_secs_f64();
        if wall < best.get().0 {
            best.set((wall, report.barrier_bound().as_secs_f64()));
        }
        report.matches
    });
    assert_eq!(
        reference.result, pipelined.result,
        "the straggler run must count the same matches as the undelayed run"
    );
    let (wall, bound) = best.get();
    let ratio = bound / wall.max(1e-9);
    println!(
        "{:<28} {ratio:>8.3}x   (barrier bound {bound:.3}s over pipelined {wall:.3}s; >1: pipelining wins)",
        "barrier_bound_vs_pipelined"
    );
    samples.push(reference);
    samples.push(pipelined);

    // Skew sweep: a K_{H,M} hot gadget (17 hub vertices sharing M common
    // neighbours) implanted on an ER base. The square plan joins on the
    // (q1, q3) diagonal and its symmetry-breaking order filters admit only
    // ascending assignments, so the hubs sit *above* the commons: for a
    // gadget square the filters then accept only the (hub, hub) diagonal,
    // funnelling all C(17,2)·M² probe pairs through hub-pair join keys
    // while the wasted hub-centred wedge rows stay at 17·C(M,2) — the
    // concentrated probe dominates. The join's FNV key hash mod 4 depends
    // only on the key values mod 4, and an (0 mod 4, 0 mod 4) key always
    // lands on machine 1 — so hubs at 60_000 + 4i put every one of the 136
    // hub-pair keys on machine 1, spread across its four Grace partitions
    // (1, 5, 9, 13). One machine owns all the hot probe work, and every
    // hot partition but the one it is currently grinding is sealed,
    // shippable work.
    //
    // The hot machine is additionally a deterministic straggler: an
    // injected 800 ms stall at the start of its join segment (a stalled
    // machine's control plane stays responsive, so its sealed partitions
    // ship *during* the stall). With both skew defences frozen off, the
    // stall and the whole hot probe serialise on machine 1's critical
    // path; with stealing + speculative sealing on, the idle peers adopt
    // the sealed hot partitions and probe them while the straggler
    // sleeps. At rising hot factors the recovered work grows, so the
    // default engine must beat the frozen pre-stealing baseline by a
    // growing margin. CI renders the `skew_sweep` rows and warns when the
    // 64x speedup drops below 1.2x.
    struct SkewRow {
        factor: u32,
        frozen_secs: f64,
        stolen_secs: f64,
        speedup: f64,
        partitions_stolen: u64,
        seal_lead_ms: f64,
    }
    let base_edges: Vec<(u32, u32)> = gen::erdos_renyi(40_000, 160_000, 29).edges().collect();
    let skew_query = Pattern::Square.query_graph();
    let mut skew_rows: Vec<SkewRow> = Vec::new();
    for factor in [1u32, 8, 64] {
        let hot = 9 * factor;
        let mut edges = base_edges.clone();
        for i in 0..17u32 {
            let hub = 60_000 + 4 * i;
            for c in 50_000..50_000 + hot {
                edges.push((hub, c));
            }
        }
        let graph = huge_graph::Graph::from_edges(edges);
        let probe_cluster = HugeCluster::build(graph.clone(), ClusterConfig::new(4).workers(1))?;
        let plan = probe_cluster.plan_with_options(
            &skew_query,
            huge_plan::optimizer::OptimizerOptions {
                disable_pulling: true,
                ..Default::default()
            },
        )?;
        // The root join is the deepest (= last) segment of the plan.
        let join_segment = huge_plan::translate::translate(&plan)?.segments.len() - 1;
        let stall = huge_core::Fault::Delay(std::time::Duration::from_millis(800));
        let frozen_cluster = HugeCluster::build(
            graph.clone(),
            ClusterConfig::new(4)
                .workers(1)
                .partition_stealing(false)
                .speculative_sealing(false)
                .inject_fault(1, join_segment, stall),
        )?;
        let stolen_cluster = HugeCluster::build(
            graph,
            ClusterConfig::new(4)
                .workers(1)
                .inject_fault(1, join_segment, stall),
        )?;
        let (frozen_name, stolen_name) = match factor {
            1 => ("skew_1x_frozen", "skew_1x_stolen"),
            8 => ("skew_8x_frozen", "skew_8x_stolen"),
            _ => ("skew_64x_frozen", "skew_64x_stolen"),
        };
        let frozen = best_of(frozen_name, 2, || {
            frozen_cluster
                .run_with_plan(&plan, SinkMode::Count)
                .unwrap()
                .matches
        });
        let join_stats = std::cell::Cell::new((0u64, std::time::Duration::ZERO));
        let stolen = best_of(stolen_name, 2, || {
            let report = stolen_cluster
                .run_with_plan(&plan, SinkMode::Count)
                .unwrap();
            join_stats.set((report.join.partitions_stolen, report.join.seal_lead));
            report.matches
        });
        assert_eq!(
            frozen.result, stolen.result,
            "skew {factor}x: stealing changed the match count"
        );
        let (partitions_stolen, seal_lead) = join_stats.get();
        if factor == 64 {
            // The acceptance bar for the skew defences: the hot machine must
            // actually have shipped work away, and some machine must have
            // sealed ahead of the counter gate.
            assert!(partitions_stolen > 0, "64x skew run stole no partitions");
            assert!(
                seal_lead > std::time::Duration::ZERO,
                "64x skew run recorded no speculative-seal lead"
            );
        }
        let speedup = frozen.seconds / stolen.seconds.max(1e-9);
        println!(
            "skew_{factor}x_speedup          {speedup:>8.3}x   stolen {partitions_stolen}  lead {seal_lead:?}"
        );
        skew_rows.push(SkewRow {
            factor,
            frozen_secs: frozen.seconds,
            stolen_secs: stolen.seconds,
            speedup,
            partitions_stolen,
            seal_lead_ms: seal_lead.as_secs_f64() * 1e3,
        });
        samples.push(frozen);
        samples.push(stolen);
    }

    // Hand-rolled JSON (no serde in the offline build).
    let mut json = String::from("{\n  \"benchmark\": \"pipeline_smoke\",\n");
    json.push_str(&format!("  \"barrier_bound_vs_pipelined\": {ratio:.4},\n"));
    json.push_str("  \"skew_sweep\": [\n");
    for (i, r) in skew_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"factor\": {}, \"frozen_seconds\": {:.6}, \"stolen_seconds\": {:.6}, \"speedup\": {:.4}, \"partitions_stolen\": {}, \"seal_lead_ms\": {:.3}}}{}\n",
            r.factor,
            r.frozen_secs,
            r.stolen_secs,
            r.speedup,
            r.partitions_stolen,
            r.seal_lead_ms,
            if i + 1 < skew_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"seconds\": {:.6}, \"result\": {}}}{}\n",
            s.name,
            s.seconds,
            s.result,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json)?;
    println!("wrote {out_path}");
    Ok(())
}
