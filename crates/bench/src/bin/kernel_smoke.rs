//! Kernel smoke benchmark: short, fixed workloads over the intersection
//! kernel family and the columnar `PULL-EXTEND` operator that write a
//! `BENCH_intersect.json` summary artifact, so the hot loop's perf
//! trajectory is recorded per PR by CI.
//!
//! Two sections:
//!
//! 1. **Kernels.** Probe rows/sec for sorted-merge, galloping and the hub
//!    bitmap at cardinality skews 1:64 and 1:1024. The headline
//!    `gallop_vs_merge_1024` ratio (merge seconds over gallop seconds at
//!    1:1024) is the dispatch family's reason to exist: it should sit well
//!    above 3.
//! 2. **Extend.** End-to-end operator throughput, row-major reference
//!    (`run_extend`/`run_extend_count`) versus the columnar native path
//!    (`run_extend_cols`/`run_extend_count_cols`), on a triangle count and a
//!    materialising path extension over the same Barabási–Albert graph. The
//!    headline `columnar_vs_row_major` ratio (row seconds over columnar
//!    seconds, worst workload) should stay above 1.0.
//!
//! ```text
//! cargo run --release -p huge-bench --bin kernel_smoke [-- <output.json>]
//! ```
//!
//! These are smoke numbers for trend lines, not statistically sampled
//! micro-benchmarks (use `cargo bench -p huge-bench` for those).

use std::sync::Arc;
use std::time::Instant;

use huge_comm::stats::ClusterStats;
use huge_comm::{ColBatch, RowBatch, RpcFabric};
use huge_core::operators::{
    run_extend, run_extend_cols, run_extend_count, run_extend_count_cols, MarkerPool, OpContext,
    ScanCursor, ScanPool,
};
use huge_core::pool::WorkerPool;
use huge_core::LoadBalance;
use huge_graph::kernels::{
    intersect_count_adaptive, intersect_count_bitmap, intersect_count_gallop,
    intersect_count_merge, HubBitmap,
};
use huge_graph::{gen, GraphPartition, Partitioner};
use huge_plan::physical::CommMode;
use huge_plan::translate::{ExtendOp, OrderFilter, ScanOp};

// ---------------------------------------------------------------------------
// Section 1: kernel micro throughput
// ---------------------------------------------------------------------------

struct KernelSample {
    kernel: &'static str,
    skew: usize,
    rows_per_sec: f64,
    secs_per_call: f64,
}

/// Seconds per call, measured over at least 150 ms of repeated calls (with
/// one warm-up call). The result is folded into a black-box accumulator so
/// the calls cannot be elided.
fn secs_per_call(mut f: impl FnMut() -> u64) -> f64 {
    let mut sink = f();
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_secs_f64() < 0.15 {
        for _ in 0..64 {
            sink = sink.wrapping_add(f());
        }
        calls += 64;
    }
    let secs = start.elapsed().as_secs_f64() / calls as f64;
    assert!(sink != u64::MAX, "keep the accumulator observable");
    secs
}

fn bench_kernels() -> (Vec<KernelSample>, f64) {
    let small_len = 256usize;
    let mut samples = Vec::new();
    let mut gallop_vs_merge_1024 = 0.0;
    for skew in [64usize, 1024] {
        let large: Vec<u32> = (0..(small_len * skew) as u32).collect();
        // Every other probe hits; the rest fall between or past `large`.
        let small: Vec<u32> = (0..small_len as u32)
            .map(|i| i * skew as u32 + (i % 2))
            .collect();
        let bitmap = HubBitmap::build(&large);
        let runs: [(&'static str, f64); 4] = [
            (
                "merge",
                secs_per_call(|| intersect_count_merge(&small, &large)),
            ),
            (
                "gallop",
                secs_per_call(|| intersect_count_gallop(&small, &large)),
            ),
            (
                "bitmap",
                secs_per_call(|| intersect_count_bitmap(&small, &bitmap)),
            ),
            (
                "adaptive",
                secs_per_call(|| intersect_count_adaptive(&small, &large).0),
            ),
        ];
        if skew == 1024 {
            let merge = runs[0].1;
            let gallop = runs[1].1;
            gallop_vs_merge_1024 = merge / gallop.max(1e-12);
        }
        for (kernel, secs) in runs {
            let rows_per_sec = small_len as f64 / secs.max(1e-12);
            println!("kernel {kernel:<9} 1:{skew:<5} {rows_per_sec:>14.0} probe rows/s");
            samples.push(KernelSample {
                kernel,
                skew,
                rows_per_sec,
                secs_per_call: secs,
            });
        }
    }
    println!("gallop_vs_merge_1024        {gallop_vs_merge_1024:>8.2}x   (>3: gallop pays off)");
    (samples, gallop_vs_merge_1024)
}

// ---------------------------------------------------------------------------
// Section 2: end-to-end extend throughput, row-major vs columnar
// ---------------------------------------------------------------------------

struct ExtendSample {
    workload: &'static str,
    layout: &'static str,
    seconds: f64,
    rows_per_sec: f64,
    result: u64,
}

struct Fixture {
    parts: Vec<GraphPartition>,
    fabric: RpcFabric,
    pool: WorkerPool,
    markers: MarkerPool,
    caches: Vec<huge_cache::LrbuCache>,
    /// Scanned input batches, per machine, in both layouts.
    rows: Vec<Vec<RowBatch>>,
    cols: Vec<Vec<ColBatch>>,
    input_rows: u64,
}

fn build_fixture(machines: usize, scan: &ScanOp) -> Fixture {
    let graph = gen::barabasi_albert(20_000, 6, 7);
    let mut parts = Partitioner::new(machines).unwrap().partition(graph);
    for p in &mut parts {
        p.build_hub_index(256);
    }
    let fabric = RpcFabric::new(Arc::new(parts.clone()), ClusterStats::new(machines));
    let pool = WorkerPool::new(2, LoadBalance::WorkStealing);
    let markers = MarkerPool::new(parts[0].global_vertices(), None);
    let caches: Vec<huge_cache::LrbuCache> = (0..machines)
        .map(|_| huge_cache::LrbuCache::new(1 << 24))
        .collect();
    let mut rows: Vec<Vec<RowBatch>> = Vec::new();
    let mut input_rows = 0u64;
    for m in 0..machines {
        let ctx = OpContext {
            machine: m,
            partition: &parts[m],
            rpc: &fabric,
            cache: &caches[m],
            use_cache: true,
            pool: &pool,
            markers: &markers,
            batch_size: 2_048,
        };
        let mut cursor = ScanCursor::new(
            scan.clone(),
            ScanPool::new(parts[m].local_vertices(), 1_024),
        );
        let mut batches = Vec::new();
        while let Some(batch) = cursor.next_batch(&ctx) {
            input_rows += batch.len() as u64;
            batches.push(batch);
        }
        rows.push(batches);
    }
    let cols = rows
        .iter()
        .map(|bs| bs.iter().map(ColBatch::from_rows).collect())
        .collect();
    Fixture {
        parts,
        fabric,
        pool,
        markers,
        caches,
        rows,
        cols,
        input_rows,
    }
}

impl Fixture {
    fn ctx(&self, m: usize) -> OpContext<'_> {
        OpContext {
            machine: m,
            partition: &self.parts[m],
            rpc: &self.fabric,
            cache: &self.caches[m],
            use_cache: true,
            pool: &self.pool,
            markers: &self.markers,
            batch_size: 2_048,
        }
    }

    /// Best-of-`reps` wall time of one full pass over every machine's
    /// batches. `f` returns the pass's result fingerprint (count or rows
    /// produced), which must be stable across reps.
    fn timed(
        &self,
        workload: &'static str,
        layout: &'static str,
        reps: usize,
        mut f: impl FnMut() -> u64,
    ) -> ExtendSample {
        let mut seconds = f64::INFINITY;
        let mut result = 0u64;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            let r = f();
            seconds = seconds.min(start.elapsed().as_secs_f64());
            result = r;
        }
        let rows_per_sec = self.input_rows as f64 / seconds.max(1e-12);
        println!(
            "{workload:<22} {layout:<10} {seconds:>8.3}s {rows_per_sec:>12.0} rows/s   result {result}"
        );
        ExtendSample {
            workload,
            layout,
            seconds,
            rows_per_sec,
            result,
        }
    }
}

fn bench_extend() -> (Vec<ExtendSample>, f64) {
    let machines = 2usize;
    let scan = ScanOp {
        src: 0,
        dst: 1,
        filters: vec![OrderFilter {
            smaller: 0,
            larger: 1,
        }],
    };
    let fx = build_fixture(machines, &scan);
    println!(
        "extend fixture: {} input rows over {machines} machines",
        fx.input_rows
    );
    let mut samples = Vec::new();

    // Count-only triangle close: the count fast path never materialises.
    let tri = ExtendOp {
        target: 2,
        ext_positions: vec![0, 1],
        verify_position: None,
        filters: vec![OrderFilter {
            smaller: 1,
            larger: 2,
        }],
        comm: CommMode::Pulling,
    };
    let row_tri = fx.timed("triangle_count", "row_major", 3, || {
        let mut total = 0u64;
        for m in 0..machines {
            let ctx = fx.ctx(m);
            for batch in &fx.rows[m] {
                total += run_extend_count(&tri, batch, &ctx).count;
            }
        }
        total
    });
    let col_tri = fx.timed("triangle_count", "columnar", 3, || {
        let mut total = 0u64;
        for m in 0..machines {
            let ctx = fx.ctx(m);
            for batch in &fx.cols[m] {
                total += run_extend_count_cols(&tri, batch, &ctx).count;
            }
        }
        total
    });
    assert_eq!(
        row_tri.result, col_tri.result,
        "row-major and columnar counts must agree"
    );
    let tri_ratio = row_tri.seconds / col_tri.seconds.max(1e-12);

    // Materialising path extension (edge -> 2-path): output assembly is the
    // cost under test, one appended column versus re-copied rows.
    let path = ExtendOp {
        target: 2,
        ext_positions: vec![1],
        verify_position: None,
        filters: vec![],
        comm: CommMode::Pulling,
    };
    let row_path = fx.timed("path_extend", "row_major", 3, || {
        let mut total = 0u64;
        for m in 0..machines {
            let ctx = fx.ctx(m);
            for batch in &fx.rows[m] {
                total += run_extend(&path, batch, &ctx).batch.len() as u64;
            }
        }
        total
    });
    let col_path = fx.timed("path_extend", "columnar", 3, || {
        let mut total = 0u64;
        for m in 0..machines {
            let ctx = fx.ctx(m);
            for batch in &fx.cols[m] {
                total += run_extend_cols(&path, batch.clone(), &ctx).batch.len() as u64;
            }
        }
        total
    });
    assert_eq!(
        row_path.result, col_path.result,
        "row-major and columnar extensions must agree"
    );
    let path_ratio = row_path.seconds / col_path.seconds.max(1e-12);

    let columnar_vs_row_major = tri_ratio.min(path_ratio);
    println!(
        "columnar_vs_row_major       {columnar_vs_row_major:>8.2}x   (triangle {tri_ratio:.2}x, path {path_ratio:.2}x; >1: columnar wins)"
    );
    samples.extend([row_tri, col_tri, row_path, col_path]);
    (samples, columnar_vs_row_major)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_intersect.json".to_string());

    let (kernels, gallop_vs_merge_1024) = bench_kernels();
    let (extend, columnar_vs_row_major) = bench_extend();

    // Hand-rolled JSON (no serde in the offline build).
    let mut json = String::from("{\n  \"benchmark\": \"kernel_smoke\",\n");
    json.push_str(&format!(
        "  \"gallop_vs_merge_1024\": {gallop_vs_merge_1024:.4},\n"
    ));
    json.push_str(&format!(
        "  \"columnar_vs_row_major\": {columnar_vs_row_major:.4},\n"
    ));
    json.push_str("  \"kernels\": [\n");
    for (i, s) in kernels.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"skew\": {}, \"rows_per_sec\": {:.1}, \"secs_per_call\": {:.9}}}{}\n",
            s.kernel,
            s.skew,
            s.rows_per_sec,
            s.secs_per_call,
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"extend\": [\n");
    for (i, s) in extend.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"layout\": \"{}\", \"seconds\": {:.6}, \"rows_per_sec\": {:.1}, \"result\": {}}}{}\n",
            s.workload,
            s.layout,
            s.seconds,
            s.rows_per_sec,
            s.result,
            if i + 1 < extend.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json)?;
    println!("wrote {out_path}");
    Ok(())
}
