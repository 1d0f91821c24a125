//! End-to-end and per-layer benchmark of the HUGE engine.
//!
//! ```text
//! perfbench --workload <lj-square|eu-path|eu-path-budget> --seed <n>
//!           --seconds <s> --trace <0|1> [--workdir <dir>] [--spans-out <file>]
//! ```
//!
//! One client drives a closed loop: each `HugeCluster::run` starts when the
//! previous one has returned. Every query is checked against the sequential
//! reference enumerator. The last line of standard output is one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`); the lines before it print every metric by name
//! and unit. See README.md for the workloads and what each metric means.

mod engine_trace;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use huge_core::{ClusterConfig, HugeCluster, RunOutcome, RunReport, SinkMode, TraceConfig};
use huge_graph::kernels::intersect_count_adaptive;
use huge_graph::{io, Dataset, DatasetKind, Graph, VertexId};
use huge_plan::translate::{translate, SegmentSource};
use huge_query::{naive, Pattern, QueryGraph};

use spans::Spans;
use stats::{median, tail};

const MIB: f64 = 1024.0 * 1024.0;
/// Set-up rounds before the timed loop. One more follows every timed
/// query, so the rounds sample the whole run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// Planner and translator calls per run; their median is reported.
const PLAN_ROUNDS: u64 = 9;
/// Samples the tail percentile must leave above it.
const TAIL_BEYOND: usize = 10;
/// Timed queries a run makes even if `--seconds` has already elapsed.
const MIN_QUERIES: usize = 3;
/// Edge pairs the kernel probe intersects per pass.
const KERNEL_PAIRS: usize = 200_000;

/// One benchmark workload: a generated dataset, a query and a cluster.
struct Workload {
    name: &'static str,
    kind: DatasetKind,
    scale: f64,
    pattern: Pattern,
    /// Whether `--seed` shuffles the vertex ids of the graph generated with
    /// the dataset's default seed (see [`permute_ids`]) instead of seeding
    /// the generator.
    permute_ids: bool,
    /// Whether HUGE's plan shuffles through the router into a PUSH-JOIN
    /// (no intersections) rather than pulling and intersecting adjacency
    /// lists (no pushes).
    pushes: bool,
    /// Global memory budget for the governor, if any.
    budget_bytes: Option<u64>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "lj-square",
        kind: DatasetKind::Lj,
        scale: 0.5,
        pattern: Pattern::Square,
        permute_ids: true,
        pushes: false,
        budget_bytes: None,
    },
    Workload {
        name: "eu-path",
        kind: DatasetKind::Eu,
        scale: 1.0,
        pattern: Pattern::Path(6),
        permute_ids: false,
        pushes: true,
        budget_bytes: None,
    },
    Workload {
        name: "eu-path-budget",
        kind: DatasetKind::Eu,
        scale: 1.0,
        pattern: Pattern::Path(6),
        permute_ids: false,
        pushes: true,
        budget_bytes: Some(16 << 20),
    },
];

impl Workload {
    /// The run's input graph.
    fn generate(&self, seed: u64) -> Graph {
        let dataset = Dataset::new(self.kind).scaled(self.scale);
        if self.permute_ids {
            permute_ids(&dataset.generate(), seed)
        } else {
            dataset.with_seed(seed).generate()
        }
    }

    fn config(&self) -> ClusterConfig {
        // Two machines with one worker each: two busy threads. With one
        // worker a machine's pool runs inline, so intra-machine stealing is
        // not exercised.
        let config = ClusterConfig::new(2).workers(1);
        match self.budget_bytes {
            Some(bytes) => config.memory_budget(bytes),
            None => config,
        }
    }
}

/// The splitmix64 sequence: a seeded stream of well-mixed 64-bit values.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Vertex ids are shuffled only within blocks of this many consecutive ids.
const PERMUTE_BLOCK: usize = 64;

/// `graph` with its vertex ids shuffled, by a seeded random permutation,
/// within blocks of [`PERMUTE_BLOCK`] consecutive ids.
///
/// The answer size stays fixed, and the seed still sends each vertex to a
/// machine of its choosing. Shuffling within blocks keeps the generator's
/// age order (hubs have low ids), which the symmetry-breaking order and
/// therefore the engine's peak memory depend on: a full permutation of the
/// LJ-S graph cuts `peak_mem_mib` from ~23 MiB to ~7 MiB and makes it vary
/// by 15% between seeds.
fn permute_ids(graph: &Graph, seed: u64) -> Graph {
    let n = graph.num_vertices();
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    let mut state = seed;
    for block in perm.chunks_mut(PERMUTE_BLOCK) {
        for i in (1..block.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            block.swap(i, j);
        }
    }
    Graph::from_edges(
        graph
            .edges()
            .map(|(u, v)| (perm[u as usize], perm[v as usize])),
    )
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workdir = PathBuf::from(".bench_tmp");
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--workdir" => workdir = PathBuf::from(value),
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workdir,
        spans_out,
    })
}

/// Set-up as a user meets it: load the edge list, build the cluster.
struct Setup {
    edge_file: PathBuf,
    config: ClusterConfig,
    load_s: Vec<f64>,
    build_s: Vec<f64>,
    total_s: Vec<f64>,
}

impl Setup {
    /// One timed set-up round inside a `setup` span (children `load` and
    /// `build`).
    fn round(&mut self, spans: &mut Spans) -> Result<HugeCluster, String> {
        let id = spans.next_id();
        let outer = spans.enter("setup", id);
        let (graph, t) = spans.time("load", id, || io::load_edge_list(&self.edge_file));
        let graph = graph.map_err(|e| format!("loading input: {e}"))?;
        self.load_s.push(t);
        let config = self.config.clone();
        let (built, t) = spans.time("build", id, || HugeCluster::build(graph, config));
        self.build_s.push(t);
        self.total_s.push(spans.exit(outer));
        built.map_err(|e| format!("building cluster: {e}"))
    }
}

/// The outcome of one checked query.
struct Query {
    wall_s: f64,
    /// Peak resident set size of the process during the query, in MiB.
    rss_peak_mib: f64,
    report: Option<RunReport>,
    ok: bool,
}

/// Runs one query inside a `query` span (children: `run`, `check`) and
/// checks it: the run returns `Ok` and completes, counts `expected`
/// matches, and leaves no tracked bytes or spill files behind.
fn run_query(
    spans: &mut Spans,
    cluster: &HugeCluster,
    query: &QueryGraph,
    expected: u64,
) -> Result<Query, String> {
    let id = spans.next_id();
    let outer = spans.enter("query", id);
    reset_hwm()?;
    let (result, wall_s) = spans.time("run", id, || cluster.run(query, SinkMode::Count));
    let rss_peak_mib = vm_hwm_mib()?;
    let check = spans.enter("check", id);
    let ok = match &result {
        Ok(r) => {
            let ok = r.outcome == RunOutcome::Completed
                && r.matches == expected
                && r.leaked_bytes == 0
                && r.orphaned_spill_files == 0;
            if !ok {
                eprintln!(
                    "query {id} failed its check: {:?}, {} matches (expected {expected}), \
                     {} bytes leaked, {} spill files orphaned",
                    r.outcome, r.matches, r.leaked_bytes, r.orphaned_spill_files
                );
            }
            ok
        }
        Err(err) => {
            eprintln!("query {id} returned an error: {err}");
            false
        }
    };
    spans.exit(check);
    spans.exit(outer);
    Ok(Query {
        wall_s,
        rss_peak_mib,
        report: result.ok(),
        ok,
    })
}

/// Per-layer numbers of one traced query.
#[derive(Default)]
struct LayerSample {
    values: Vec<(&'static str, f64, &'static str)>,
    events_dropped: u64,
    /// Set when the engine's spans do not account for each machine's time.
    accounting_error: bool,
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A Prometheus counter from the run's registry text (0 when absent).
fn registry_counter(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .filter_map(|v| v.trim().parse::<f64>().ok())
        .sum()
}

/// Every per-layer number a report carries. Time spans come from the
/// engine's flight-recorder export when the run was traced.
fn layer_sample(report: &RunReport) -> LayerSample {
    let comm = &report.comm;
    let mut v: Vec<(&'static str, f64, &'static str)> = Vec::new();
    v.push(("kernels.merge_calls", comm.kernel_merge as f64, "count"));
    v.push(("kernels.gallop_calls", comm.kernel_gallop as f64, "count"));
    v.push(("kernels.bitmap_calls", comm.kernel_bitmap as f64, "count"));
    let hits = report.cache.hits as f64;
    v.push(("cache.hits", hits, "count"));
    v.push(("cache.evictions", report.cache.evictions as f64, "count"));
    // The two-stage fetch probes the cache with `contains()` and fetches
    // what is missing before reading, so every `read()` hits and the
    // cache's own miss counter stays 0. The vertices the RPC layer fetched
    // are the real misses.
    let fetched = comm.vertices_fetched as f64;
    v.push(("cache.hit_ratio", ratio(hits, hits + fetched), "ratio"));
    v.push(("rpc.requests", comm.rpc_requests as f64, "count"));
    v.push(("rpc.vertices_fetched", fetched, "count"));
    v.push(("rpc.pull_mib", comm.bytes_pulled as f64 / MIB, "MiB"));
    v.push(("rpc.fetch_s", report.fetch_time.as_secs_f64(), "s"));
    v.push(("router.push_batches", comm.push_messages as f64, "count"));
    v.push(("router.push_mib", comm.bytes_pushed as f64 / MIB, "MiB"));
    let registry = report.metrics.as_deref().unwrap_or("");
    v.push((
        "router.backpressure_waits",
        registry_counter(registry, "huge_router_backpressure_waits_total"),
        "count",
    ));
    v.push((
        "router.control_messages",
        registry_counter(registry, "huge_router_control_messages_total"),
        "count",
    ));
    v.push(("exec.col_mib", comm.col_bytes as f64 / MIB, "MiB"));
    let join = &report.join;
    v.push((
        "join.partitions_stolen",
        join.partitions_stolen as f64,
        "count",
    ));
    v.push(("join.shipped_mib", join.shipped_bytes as f64 / MIB, "MiB"));
    v.push((
        "join.speculative_seals",
        join.speculative_seals as f64,
        "count",
    ));
    v.push(("join.seal_lead_s", join.seal_lead.as_secs_f64(), "s"));
    let gov = report.governor.clone().unwrap_or_default();
    v.push((
        "governor.red_transitions",
        gov.transitions_to_red as f64,
        "count",
    ));
    v.push((
        "governor.throttled_batches",
        gov.throttled_batches as f64,
        "count",
    ));
    v.push(("governor.spill_mib", gov.spilled_bytes as f64 / MIB, "MiB"));
    v.push((
        "governor.peak_over_budget",
        ratio(gov.peak_bytes as f64, gov.machine_budget_bytes as f64),
        "ratio",
    ));

    // Scheduler: busy time is each machine's active segment time; the span
    // split covers the whole parallel region, which every machine thread
    // spans from spawn to join.
    let busy: Vec<f64> = report
        .machines
        .iter()
        .map(|m| m.compute_time.as_secs_f64())
        .collect();
    let busy_sum: f64 = busy.iter().sum();
    let busy_mean = busy_sum / busy.len().max(1) as f64;
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    v.push(("machine.busy_s", busy_sum, "s"));
    v.push(("machine.imbalance", ratio(busy_max, busy_mean), "ratio"));
    let mut sample = LayerSample::default();
    let wall = report.compute_time.as_secs_f64();
    let trace = report.trace.as_ref();
    let split = trace
        .and_then(|t| t.chrome_json.as_deref())
        .and_then(engine_trace::machine_spans);
    let (mut chain, mut park, mut bp, mut unattributed) = (0.0, 0.0, 0.0, 0.0);
    match split {
        Some(split) => {
            for m in 0..report.machines.len() {
                let s = split.get(&(m as u32)).cloned().unwrap_or_default();
                chain += s.chain_s;
                park += s.park_s;
                bp += s.backpressure_s;
                // chain + park + backpressure + other + unattributed is the
                // machine's wall time by construction; the check is that
                // the spans fit inside it (1 ms of clock slack).
                let rest = wall - s.attributed_s();
                if rest < -1e-3 {
                    eprintln!(
                        "machine {m}: spans cover {:.6} s of a {wall:.6} s run",
                        s.attributed_s()
                    );
                    sample.accounting_error = true;
                }
                unattributed += rest.max(0.0) + s.other_s;
            }
        }
        None => sample.accounting_error = trace.is_some(),
    }
    let machines = report.machines.len().max(1) as f64;
    v.push(("machine.chain_s", chain, "s"));
    v.push(("machine.park_s", park, "s"));
    v.push(("machine.backpressure_s", bp, "s"));
    v.push((
        "machine.unattributed_share",
        ratio(unattributed, wall * machines),
        "ratio",
    ));
    sample.events_dropped = trace.map_or(0, |t| t.events_dropped);
    sample.values = v;
    sample
}

/// Resets this process's peak resident set size (VmHWM) to its current
/// resident set size.
fn reset_hwm() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting VmHWM through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn vm_hwm_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// (steal, total) jiffies summed over all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Nanoseconds per `intersect_count_adaptive` call over the adjacency
/// lists of up to [`KERNEL_PAIRS`] edges of `graph` (median of 3 passes).
fn kernel_ns_per_call(graph: &Graph) -> f64 {
    let edges = graph.num_edges() as usize;
    let step = (edges / KERNEL_PAIRS).max(1);
    let pairs: Vec<(u32, u32)> = graph.edges().step_by(step).take(KERNEL_PAIRS).collect();
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut total = 0u64;
            for &(u, v) in &pairs {
                let (n, _) = intersect_count_adaptive(
                    std::hint::black_box(graph.neighbours(u)),
                    std::hint::black_box(graph.neighbours(v)),
                );
                total += n;
            }
            std::hint::black_box(total);
            start.elapsed().as_secs_f64() * 1e9 / pairs.len().max(1) as f64
        })
        .collect();
    median(&passes)
}

/// Checks the zeros and non-zeros the workload is expected to show and
/// prints one line per prediction. A miss is reported, not failed: it
/// says the engine changed which layers a workload exercises.
fn check_predictions(workload: &Workload, reports: &[&RunReport]) {
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let kernel_calls = sum(&|r| r.comm.kernel_invocations());
    let pushed = sum(&|r| r.comm.bytes_pushed);
    let gov =
        |f: &dyn Fn(&huge_core::GovernorReport) -> u64| sum(&|r| r.governor.as_ref().map_or(0, f));
    let spilled = gov(&|g| g.spilled_bytes);
    let governed = gov(&|g| g.transitions() + g.throttled_batches + g.spilled_bytes);
    let mut checks: Vec<(&str, bool)> = Vec::new();
    if workload.pushes {
        checks.push(("kernel calls are 0", kernel_calls == 0));
        checks.push(("router push bytes are > 0", pushed > 0));
    } else {
        checks.push(("router push bytes are 0", pushed == 0));
        checks.push(("kernel calls are > 0", kernel_calls > 0));
    }
    if workload.budget_bytes.is_some() {
        checks.push(("governor spills > 0 bytes", spilled > 0));
        checks.push(("governor reaches Red", gov(&|g| g.transitions_to_red) > 0));
    } else {
        checks.push(("governor counters are 0", governed == 0));
    }
    for (what, held) in checks {
        println!(
            "prediction  {what:<28} {}",
            if held { "holds" } else { "MISSED" }
        );
    }
}

type Metric = (String, f64, &'static str);

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn run(args: Args) -> Result<(), String> {
    let w = args.workload;
    let query = w.pattern.query_graph();
    let mut spans = Spans::new();
    std::fs::create_dir_all(&args.workdir)
        .map_err(|e| format!("creating {}: {e}", args.workdir.display()))?;

    // Input: the engine only ever sees the generated edge-list file.
    let edge_file = args.workdir.join(format!("{}.txt", w.kind.file_stem()));
    let id = spans.next_id();
    let (generated, _) = spans.time("input", id, || {
        let graph = w.generate(args.seed);
        io::write_edge_list(&graph, &edge_file).map(|()| graph)
    });
    let generated = generated.map_err(|e| format!("writing input: {e}"))?;
    println!(
        "workload    {} seed {} ({} at scale {}: {} vertices, {} edges, max degree {}), query {}",
        w.name,
        args.seed,
        w.kind.name(),
        w.scale,
        generated.num_vertices(),
        generated.num_edges(),
        generated.max_degree(),
        w.pattern.name()
    );
    drop(generated);

    let mut setup = Setup {
        edge_file,
        config: w.config(),
        load_s: Vec::new(),
        build_s: Vec::new(),
        total_s: Vec::new(),
    };
    for _ in 1..SETUP_ROUNDS {
        setup.round(&mut spans)?;
    }
    let cluster = setup.round(&mut spans)?;

    // Planner and translator, timed apart from the runs that repeat them.
    let mut optimize_s = Vec::new();
    let mut translate_s = Vec::new();
    let mut shape = (0usize, 0usize);
    for _ in 0..PLAN_ROUNDS {
        let id = spans.next_id();
        let (plan, t) = spans.time("plan", id, || cluster.plan(&query));
        let plan = plan.map_err(|e| format!("planning: {e}"))?;
        optimize_s.push(t);
        let (dataflow, t) = spans.time("translate", id, || translate(&plan));
        let dataflow = dataflow.map_err(|e| format!("translating: {e}"))?;
        translate_s.push(t);
        let joins = dataflow
            .segments
            .iter()
            .filter(|s| matches!(s.source, SegmentSource::Join(_)))
            .count();
        shape = (dataflow.segments.len(), joins);
    }

    // The reference count, outside every timed region.
    let graph = io::load_edge_list(&setup.edge_file).map_err(|e| format!("loading input: {e}"))?;
    let id = spans.next_id();
    let (expected, oracle_s) = spans.time("oracle", id, || naive::enumerate(&graph, &query));
    println!("oracle      {expected} matches in {oracle_s:.3} s");

    let traced_cluster = if args.trace {
        let config = w.config().tracing(TraceConfig::full());
        Some(HugeCluster::build(graph.clone(), config).map_err(|e| format!("building: {e}"))?)
    } else {
        None
    };

    // Warm-up: one checked query, not timed.
    let mut attempted = 1;
    let mut failed = 0;
    let warm = run_query(&mut spans, &cluster, &query, expected)?;
    if !warm.ok {
        failed += 1;
    }

    // The closed loop. With tracing, untraced and traced queries alternate.
    let mut untraced: Vec<Query> = Vec::new();
    let mut traced: Vec<Query> = Vec::new();
    let mut layers: Vec<LayerSample> = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let jiffies_before = cpu_jiffies();
    while start.elapsed() < budget || untraced.len() < MIN_QUERIES {
        let q = run_query(&mut spans, &cluster, &query, expected)?;
        attempted += 1;
        failed += usize::from(!q.ok);
        untraced.push(q);
        setup.round(&mut spans)?;
        if let Some(tc) = &traced_cluster {
            let mut q = run_query(&mut spans, tc, &query, expected)?;
            attempted += 1;
            failed += usize::from(!q.ok);
            if let Some(report) = q.report.take() {
                layers.push(layer_sample(&report));
            }
            traced.push(q);
        }
    }
    // Time the hypervisor ran someone else while this guest had work: a
    // noisy host shows here, not in the engine's numbers.
    let steal_share = match (jiffies_before, cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        _ => 0.0,
    };
    println!(
        "host        {:.1}% of CPU time was stolen by the hypervisor during the timed loop",
        100.0 * steal_share
    );

    let walls: Vec<f64> = untraced.iter().map(|q| q.wall_s).collect();
    let reports: Vec<&RunReport> = untraced.iter().filter_map(|q| q.report.as_ref()).collect();
    let failed_ratio = failed as f64 / attempted as f64;
    check_predictions(w, &reports);

    let mut metrics: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push((name.to_string(), value, unit));
    };
    if !args.trace {
        let p50 = median(&walls);
        let t = tail(&walls, TAIL_BEYOND);
        let matches: u64 = reports.iter().map(|r| r.matches).sum();
        let wall_sum: f64 = walls.iter().sum();
        let per_query = |f: &dyn Fn(&RunReport) -> f64| {
            median(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        put("query_s.p50", p50, "s");
        put("query_s.tail", t.value, "s");
        put("matches_per_s", matches as f64 / wall_sum, "1/s");
        put("setup_s", median(&setup.total_s), "s");
        put(
            "peak_mem_mib",
            per_query(&|r| r.peak_memory_bytes as f64 / MIB),
            "MiB",
        );
        let rss: Vec<f64> = untraced.iter().map(|q| q.rss_peak_mib).collect();
        put("rss_peak_mib", median(&rss), "MiB");
        put("comm_mib", per_query(&|r| r.comm_bytes as f64 / MIB), "MiB");
        put(
            "modelled_comm_s",
            per_query(&|r| r.comm_time.as_secs_f64()),
            "s",
        );
        println!(
            "tail        query_s.tail is p{:.1} of {} timed queries",
            t.percentile, t.samples
        );
        let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
        println!("samples     query_s {}", listed.join(" "));
    } else {
        put("graph.load_s", median(&setup.load_s), "s");
        put("cluster.build_s", median(&setup.build_s), "s");
        put("plan.optimize_s", median(&optimize_s), "s");
        put("plan.translate_s", median(&translate_s), "s");
        put("plan.segments", shape.0 as f64, "count");
        put("plan.joins", shape.1 as f64, "count");
        let id = spans.next_id();
        let (ns, _) = spans.time("kernels", id, || kernel_ns_per_call(&graph));
        put("kernels.ns_per_call", ns, "ns");
        if let Some(first) = layers.first() {
            for (i, &(name, _, unit)) in first.values.iter().enumerate() {
                let values: Vec<f64> = layers.iter().map(|l| l.values[i].1).collect();
                put(name, median(&values), unit);
            }
        }
        let traced_walls: Vec<f64> = traced.iter().map(|q| q.wall_s).collect();
        put(
            "trace.overhead",
            median(&traced_walls) / median(&walls),
            "ratio",
        );
        let dropped = layers.iter().map(|l| l.events_dropped).max().unwrap_or(0);
        put("trace.events_dropped", dropped as f64, "count");
        let flagged = layers
            .iter()
            .filter(|l| l.events_dropped > 0 || l.accounting_error)
            .count();
        put("trace.flagged_queries", flagged as f64, "count");
        put("failed_ratio", failed_ratio, "ratio");
        put("host.steal_share", steal_share, "ratio");
        if flagged > 0 {
            println!(
                "warning     {flagged} traced queries dropped events or failed the per-machine \
                 time check; their span-derived numbers are suspect"
            );
        }
    }
    println!("failed      {failed} of {attempted} queries (failed_ratio {failed_ratio})");
    for (name, total, own) in spans.self_times() {
        println!("span        {name:<10} total {total:>10.4} s   self {own:>10.4} s");
    }
    for (name, value, unit) in &metrics {
        println!("metric      {name:<28} {value:>16.6} {unit}");
    }
    if let Some(path) = &args.spans_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, spans.chrome_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
