//! Operator implementations: `SCAN` and `PULL-EXTEND`.
//!
//! (`PUSH-JOIN` lives in [`crate::join`]; the `SINK` is part of the segment
//! terminal in [`crate::machine`].)

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use huge_comm::{ColBatch, RowBatch};
use huge_graph::kernels::{self, HubBitmap, KernelKind, KernelTally};
use huge_graph::VertexId;
use huge_plan::translate::{ExtendOp, OrderFilter, ScanOp};
use parking_lot::Mutex;

pub use crate::exec::OpContext;
use crate::memory::MemoryTracker;

/// Applies the symmetry-breaking filters of an operator to a row.
#[inline]
pub fn passes_filters(row: &[VertexId], filters: &[OrderFilter]) -> bool {
    filters.iter().all(|f| row[f.smaller] < row[f.larger])
}

// ---------------------------------------------------------------------------
// SCAN
// ---------------------------------------------------------------------------

/// The stealable pool of unscanned vertices of one machine.
///
/// The machine's own scan cursor pops chunks from the front; idle machines
/// steal chunks from the back (the inter-machine half of work stealing).
#[derive(Clone)]
pub struct ScanPool {
    chunks: Arc<Mutex<std::collections::VecDeque<Vec<VertexId>>>>,
}

impl ScanPool {
    /// Splits a vertex list into chunks of `chunk_size` and builds the pool.
    pub fn new(vertices: &[VertexId], chunk_size: usize) -> Self {
        let chunk_size = chunk_size.max(1);
        let chunks = vertices
            .chunks(chunk_size)
            .map(|c| c.to_vec())
            .collect::<std::collections::VecDeque<_>>();
        ScanPool {
            chunks: Arc::new(Mutex::new(chunks)),
        }
    }

    /// An empty pool (used for non-scan segments).
    pub fn empty() -> Self {
        ScanPool {
            chunks: Arc::new(Mutex::new(std::collections::VecDeque::new())),
        }
    }

    /// Pops the next chunk for the owning machine.
    pub fn pop(&self) -> Option<Vec<VertexId>> {
        self.chunks.lock().pop_front()
    }

    /// Steals up to half of the remaining chunks (taken from the back).
    pub fn steal_half(&self) -> Vec<Vec<VertexId>> {
        let mut guard = self.chunks.lock();
        let take = guard.len() / 2;
        let mut stolen = Vec::with_capacity(take);
        for _ in 0..take {
            if let Some(chunk) = guard.pop_back() {
                stolen.push(chunk);
            }
        }
        stolen
    }

    /// Adds chunks (stolen from elsewhere) to this pool.
    pub fn add_chunks(&self, chunks: Vec<Vec<VertexId>>) {
        let mut guard = self.chunks.lock();
        for c in chunks {
            guard.push_back(c);
        }
    }

    /// `true` when no chunks remain.
    pub fn is_empty(&self) -> bool {
        self.chunks.lock().is_empty()
    }

    /// Number of vertices remaining (diagnostic).
    pub fn remaining_vertices(&self) -> usize {
        self.chunks.lock().iter().map(|c| c.len()).sum()
    }
}

/// The `SCAN` cursor: produces batches of `[f(src), f(dst)]` rows from the
/// machine's (possibly stolen) vertex chunks.
pub struct ScanCursor {
    op: ScanOp,
    pool: ScanPool,
    /// Pending rows carried over when a vertex's edges overflow a batch.
    pending: Vec<VertexId>,
}

impl ScanCursor {
    /// Creates a cursor over a scan pool.
    pub fn new(op: ScanOp, pool: ScanPool) -> Self {
        ScanCursor {
            op,
            pool,
            pending: Vec::new(),
        }
    }

    /// The underlying stealable pool.
    pub fn pool(&self) -> &ScanPool {
        &self.pool
    }

    /// `true` if more batches may be produced.
    pub fn has_more(&self) -> bool {
        !self.pending.is_empty() || !self.pool.is_empty()
    }

    /// Produces the next batch of at most `ctx.batch_size` rows, or `None`
    /// when the scan is exhausted.
    ///
    /// The expansion of a chunk's vertices into edge rows runs on the
    /// machine's persistent worker pool (split into per-worker ranges), so
    /// the scan path exercises the same `submit`/`join_epoch` substrate as
    /// `PULL-EXTEND`.
    pub fn next_batch(&mut self, ctx: &OpContext<'_>) -> Option<RowBatch> {
        let target_rows = ctx.batch_size;
        let mut batch = RowBatch::with_capacity(2, target_rows.min(64 * 1024));
        // First drain carried-over rows.
        while batch.len() < target_rows && self.pending.len() >= 2 {
            let v = self.pending.pop().expect("pair");
            let u = self.pending.pop().expect("pair");
            batch.push_row(&[u, v]);
        }
        while batch.len() < target_rows {
            let Some(chunk) = self.pool.pop() else { break };
            // Fetch adjacency lists: local vertices read the partition
            // directly; stolen remote vertices are pulled (and accounted).
            let remote: Vec<VertexId> = chunk
                .iter()
                .copied()
                .filter(|&v| !ctx.partition.is_local(v))
                .collect();
            let remote_lists: HashMap<VertexId, Vec<VertexId>> = if remote.is_empty() {
                HashMap::new()
            } else {
                ctx.rpc.get_nbrs(ctx.machine, &remote).into_iter().collect()
            };
            let per = (chunk.len() / (ctx.pool.workers() * 2).max(1)).max(64);
            let slices: Vec<&[VertexId]> = chunk.chunks(per).collect();
            let filters = &self.op.filters;
            let remote_lists = &remote_lists;
            let run = ctx.pool.run(slices, |vertices, out: &mut Vec<VertexId>| {
                for &u in vertices {
                    let neighbours: &[VertexId] = if ctx.partition.is_local(u) {
                        ctx.partition.local_neighbours(u)
                    } else {
                        remote_lists.get(&u).map(|v| v.as_slice()).unwrap_or(&[])
                    };
                    for &v in neighbours {
                        if passes_filters(&[u, v], filters) {
                            out.push(u);
                            out.push(v);
                        }
                    }
                }
            });
            for flat in run.outputs {
                for pair in flat.chunks_exact(2) {
                    if batch.len() < target_rows {
                        batch.push_row(pair);
                    } else {
                        self.pending.push(pair[0]);
                        self.pending.push(pair[1]);
                    }
                }
            }
        }
        if batch.is_empty() {
            None
        } else {
            Some(batch)
        }
    }
}

// ---------------------------------------------------------------------------
// PULL-EXTEND
// ---------------------------------------------------------------------------

/// The result of running a `PULL-EXTEND` over one input batch.
pub struct ExtendOutput {
    /// The extended (or verified) rows.
    pub batch: RowBatch,
    /// Busy time of each intra-machine worker during the intersect stage.
    pub worker_busy: Vec<Duration>,
    /// Time spent in the fetch stage (RPCs + cache writes + sealing).
    pub fetch_time: Duration,
}

/// The result of counting a `PULL-EXTEND` over one input batch without
/// materialising the extended rows.
pub struct ExtendCountOutput {
    /// Number of rows the extension would have produced.
    pub count: u64,
    /// Busy time of each intra-machine worker during the intersect stage.
    pub worker_busy: Vec<Duration>,
    /// Time spent in the fetch stage (RPCs + cache writes + sealing).
    pub fetch_time: Duration,
}

/// Resolves a collected list of remote vertices: seals them in the cache
/// (fetching misses) or builds the per-batch side table used when the cache
/// is disabled. Shared tail of both fetch-stage layouts.
fn resolve_remote(
    mut remote: Vec<VertexId>,
    ctx: &OpContext<'_>,
) -> HashMap<VertexId, Vec<VertexId>> {
    remote.sort_unstable();
    remote.dedup();
    let mut batch_table: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
    if ctx.use_cache {
        let mut to_fetch: Vec<VertexId> = Vec::new();
        for &v in &remote {
            if ctx.cache.contains(v) {
                ctx.cache.seal(v);
            } else {
                to_fetch.push(v);
            }
        }
        if !to_fetch.is_empty() {
            for (v, nbrs) in ctx.rpc.get_nbrs(ctx.machine, &to_fetch) {
                ctx.cache.insert(v, nbrs);
                ctx.cache.seal(v);
            }
        }
    } else if !remote.is_empty() {
        batch_table = ctx.rpc.get_nbrs(ctx.machine, &remote).into_iter().collect();
    }
    batch_table
}

/// The fetch stage of Algorithm 4: pulls (or seals in the cache) every
/// remote adjacency list the batch's extend positions reference. Returns the
/// per-batch side table (used when the cache is disabled) and the stage
/// duration.
fn fetch_stage(
    op: &ExtendOp,
    input: &RowBatch,
    ctx: &OpContext<'_>,
) -> (HashMap<VertexId, Vec<VertexId>>, Duration) {
    let fetch_start = Instant::now();
    let mut remote: Vec<VertexId> = Vec::new();
    for row in input.rows() {
        for &pos in &op.ext_positions {
            let v = row[pos];
            if !ctx.partition.is_local(v) {
                remote.push(v);
            }
        }
    }
    let batch_table = resolve_remote(remote, ctx);
    (batch_table, fetch_start.elapsed())
}

/// Columnar fetch stage: identical to [`fetch_stage`] but reads the extend
/// positions column-at-a-time (one dense column scan per position instead
/// of a strided walk over rows).
fn fetch_stage_cols(
    op: &ExtendOp,
    input: &ColBatch,
    ctx: &OpContext<'_>,
) -> (HashMap<VertexId, Vec<VertexId>>, Duration) {
    let fetch_start = Instant::now();
    let mut remote: Vec<VertexId> = Vec::new();
    for &pos in &op.ext_positions {
        match input.selection() {
            None => {
                remote.extend(
                    input
                        .column(pos)
                        .iter()
                        .copied()
                        .filter(|&v| !ctx.partition.is_local(v)),
                );
            }
            Some(sel) => {
                let col = input.column(pos);
                remote.extend(
                    sel.iter()
                        .map(|&i| col[i as usize])
                        .filter(|&v| !ctx.partition.is_local(v)),
                );
            }
        }
    }
    let batch_table = resolve_remote(remote, ctx);
    (batch_table, fetch_start.elapsed())
}

/// Splits `rows` into row-range work items for the worker pool.
fn intersect_ranges(rows: usize, ctx: &OpContext<'_>) -> Vec<(usize, usize)> {
    let chunk_rows = (rows / (ctx.pool.workers() * 4).max(1)).max(256);
    (0..rows)
        .step_by(chunk_rows)
        .map(|start| (start, (start + chunk_rows).min(rows)))
        .collect()
}

/// Runs the two-stage `PULL-EXTEND` (Algorithm 4) over one input batch.
pub fn run_extend(op: &ExtendOp, input: &RowBatch, ctx: &OpContext<'_>) -> ExtendOutput {
    let out_arity = if op.verify_position.is_some() {
        input.arity()
    } else {
        input.arity() + 1
    };
    let (batch_table, fetch_time) = fetch_stage(op, input, ctx);

    // ---------------- intersect stage ----------------
    let ranges = intersect_ranges(input.len(), ctx);
    let batch_table = &batch_table;
    let run = ctx
        .pool
        .run(ranges, |(start, end), out: &mut Vec<VertexId>| {
            let mut exts: Vec<VertexId> = Vec::new();
            let mut scratch: Vec<VertexId> = Vec::new();
            let mut tally = KernelTally::default();
            for i in start..end {
                let row = input.row(i);
                extend_one_row(
                    op,
                    row,
                    ctx,
                    batch_table,
                    &mut exts,
                    &mut scratch,
                    &mut tally,
                    &mut ExtendSink::Materialise(out),
                );
            }
            flush_tally(ctx, &tally);
        });

    let mut batch = RowBatch::new(out_arity);
    let worker_busy = run.busy.clone();
    for flat in run.outputs {
        let mut piece = RowBatch::from_flat(out_arity, flat);
        batch.append(&mut piece);
    }

    if ctx.use_cache {
        ctx.cache.release();
    }

    ExtendOutput {
        batch,
        worker_busy,
        fetch_time,
    }
}

/// Runs the two-stage `PULL-EXTEND` over one input batch, *counting* the
/// extensions instead of materialising them — the count-only sink fast path:
/// the final output column (and the batch allocation behind it) is skipped
/// entirely.
pub fn run_extend_count(op: &ExtendOp, input: &RowBatch, ctx: &OpContext<'_>) -> ExtendCountOutput {
    let (batch_table, fetch_time) = fetch_stage(op, input, ctx);
    let ranges = intersect_ranges(input.len(), ctx);
    let batch_table = &batch_table;
    let run = ctx.pool.run(ranges, |(start, end), out: &mut Vec<u64>| {
        let mut exts: Vec<VertexId> = Vec::new();
        let mut scratch: Vec<VertexId> = Vec::new();
        let mut tally = KernelTally::default();
        let mut count = 0u64;
        for i in start..end {
            let row = input.row(i);
            extend_one_row(
                op,
                row,
                ctx,
                batch_table,
                &mut exts,
                &mut scratch,
                &mut tally,
                &mut ExtendSink::Count(&mut count),
            );
        }
        flush_tally(ctx, &tally);
        out.push(count);
    });
    if ctx.use_cache {
        ctx.cache.release();
    }
    ExtendCountOutput {
        count: run.outputs.iter().flatten().sum(),
        worker_busy: run.busy,
        fetch_time,
    }
}

/// Where an extension's results go: materialised flat rows, or a counter.
enum ExtendSink<'a> {
    Materialise(&'a mut Vec<VertexId>),
    Count(&'a mut u64),
}

impl ExtendSink<'_> {
    #[inline]
    fn emit_verified(&mut self, row: &[VertexId]) {
        match self {
            ExtendSink::Materialise(out) => out.extend_from_slice(row),
            ExtendSink::Count(count) => **count += 1,
        }
    }

    #[inline]
    fn emit_extended(&mut self, row: &[VertexId], candidate: VertexId) {
        match self {
            ExtendSink::Materialise(out) => {
                out.extend_from_slice(row);
                out.push(candidate);
            }
            ExtendSink::Count(count) => **count += 1,
        }
    }
}

/// Flushes a work item's kernel tally to the machine's shared counters
/// (one set of atomic adds per work item, not per intersection).
#[inline]
fn flush_tally(ctx: &OpContext<'_>, tally: &KernelTally) {
    if tally.total() > 0 {
        ctx.rpc.stats().machine(ctx.machine).record_kernels(
            tally.merge,
            tally.gallop,
            tally.bitmap,
        );
    }
}

/// Intersects the adjacency lists of `exts` (already sorted smallest-degree
/// first) into `scratch`, dispatching every step through the adaptive
/// kernel family: hub bitmaps for indexed high-degree vertices, galloping
/// under cardinality skew, branch-light merge otherwise. A missing list
/// (an evicted steal) clears the accumulator — no candidates.
fn intersect_ext_lists(
    exts: &[VertexId],
    ctx: &OpContext<'_>,
    batch_table: &HashMap<VertexId, Vec<VertexId>>,
    scratch: &mut Vec<VertexId>,
    tally: &mut KernelTally,
) {
    scratch.clear();
    let mut first = true;
    for &v in exts {
        if first {
            if with_neighbours(ctx, batch_table, v, |nbrs| scratch.extend_from_slice(nbrs))
                .is_none()
            {
                scratch.clear();
            }
            first = false;
            continue;
        }
        if scratch.is_empty() {
            break;
        }
        if let Some(bm) = ctx.partition.hub_bitmap(v) {
            kernels::intersect_bitmap_in_place(scratch, bm);
            tally.bump(KernelKind::Bitmap);
            continue;
        }
        match with_neighbours(ctx, batch_table, v, |nbrs| {
            kernels::intersect_in_place(scratch, nbrs)
        }) {
            Some(kind) => tally.bump(kind),
            None => scratch.clear(),
        }
    }
}

/// Computes the raw multiway candidate set of one row (Equation 2) into
/// `scratch` (before injectivity and order filters). The extend lists are
/// ordered smallest-degree first — degree is metadata every machine reads
/// for free — so the accumulator starts minimal and skew is maximal, which
/// is what lets the galloping and bitmap branches win.
fn gather_candidates(
    op: &ExtendOp,
    row: &[VertexId],
    ctx: &OpContext<'_>,
    batch_table: &HashMap<VertexId, Vec<VertexId>>,
    exts: &mut Vec<VertexId>,
    scratch: &mut Vec<VertexId>,
    tally: &mut KernelTally,
) {
    exts.clear();
    exts.extend(op.ext_positions.iter().map(|&p| row[p]));
    exts.sort_unstable_by_key(|&v| ctx.partition.degree(v));
    intersect_ext_lists(exts, ctx, batch_table, scratch, tally);
}

/// Injectivity plus order filters for one candidate against the *output*
/// row layout (`row ++ candidate`).
#[inline]
fn candidate_passes(op: &ExtendOp, row: &[VertexId], candidate: VertexId) -> bool {
    // Injectivity: the new vertex must differ from every bound vertex.
    if row.contains(&candidate) {
        return false;
    }
    op.filters.iter().all(|f| {
        let smaller = if f.smaller == row.len() {
            candidate
        } else {
            row[f.smaller]
        };
        let larger = if f.larger == row.len() {
            candidate
        } else {
            row[f.larger]
        };
        smaller < larger
    })
}

/// Verify mode for one row: the already-bound vertex must be adjacent to
/// every extend position (no intersection needs materialising).
#[inline]
fn verify_one_row(
    op: &ExtendOp,
    vpos: usize,
    row: &[VertexId],
    ctx: &OpContext<'_>,
    batch_table: &HashMap<VertexId, Vec<VertexId>>,
) -> bool {
    let target = row[vpos];
    op.ext_positions.iter().all(|&pos| {
        let v = row[pos];
        with_neighbours(ctx, batch_table, v, |nbrs| {
            nbrs.binary_search(&target).is_ok()
        })
        .unwrap_or(false)
    }) && passes_filters(row, &op.filters)
}

/// Extends (or verifies) a single row, feeding the results to `sink`.
#[allow(clippy::too_many_arguments)]
fn extend_one_row(
    op: &ExtendOp,
    row: &[VertexId],
    ctx: &OpContext<'_>,
    batch_table: &HashMap<VertexId, Vec<VertexId>>,
    exts: &mut Vec<VertexId>,
    scratch: &mut Vec<VertexId>,
    tally: &mut KernelTally,
    sink: &mut ExtendSink<'_>,
) {
    if let Some(vpos) = op.verify_position {
        if verify_one_row(op, vpos, row, ctx, batch_table) {
            sink.emit_verified(row);
        }
        return;
    }

    // Match mode: multiway intersection of the neighbourhoods (Equation 2).
    gather_candidates(op, row, ctx, batch_table, exts, scratch, tally);
    for &candidate in scratch.iter() {
        if candidate_passes(op, row, candidate) {
            sink.emit_extended(row, candidate);
        }
    }
}

/// Looks up the adjacency list of `v` (local partition, cache, or the
/// per-batch table) and applies `f` to it. Returns `None` when the list is
/// unavailable.
fn with_neighbours<R>(
    ctx: &OpContext<'_>,
    batch_table: &HashMap<VertexId, Vec<VertexId>>,
    v: VertexId,
    mut f: impl FnMut(&[VertexId]) -> R,
) -> Option<R> {
    if ctx.partition.is_local(v) {
        return Some(f(ctx.partition.local_neighbours(v)));
    }
    if ctx.use_cache {
        let mut result = None;
        let found = ctx.cache.read(v, &mut |nbrs| result = Some(f(nbrs)));
        if found {
            return result;
        }
        // Cache designs without seal/release (the Exp-6 LRU variants) may
        // have evicted the entry between the fetch and intersect stages;
        // correctness requires falling back to an extra (accounted) pull.
        let fetched = ctx.rpc.get_nbrs(ctx.machine, &[v]);
        return fetched.first().map(|(_, nbrs)| f(nbrs));
    }
    batch_table.get(&v).map(|nbrs| f(nbrs))
}

// ---------------------------------------------------------------------------
// Columnar PULL-EXTEND
// ---------------------------------------------------------------------------

/// The result of running a columnar `PULL-EXTEND` over one input batch.
pub struct ExtendColsOutput {
    /// The extended (or selection-narrowed) columnar batch.
    pub batch: ColBatch,
    /// Busy time of each intra-machine worker during the intersect stage.
    pub worker_busy: Vec<Duration>,
    /// Time spent in the fetch stage (RPCs + cache writes + sealing).
    pub fetch_time: Duration,
}

/// Runs the two-stage `PULL-EXTEND` (Algorithm 4) over one columnar batch.
///
/// *Verify* mode never moves data: the surviving rows become a narrowed
/// selection vector over the input's columns. *Match* mode gathers the
/// prefix columns once per output column (dense sequential writes) and
/// appends exactly one new candidate column — no `arity + 1`-wide row
/// rewrites. Extends over two or more lists hoist their run-invariant
/// operands (see [`HoistedRun`]).
pub fn run_extend_cols(op: &ExtendOp, input: ColBatch, ctx: &OpContext<'_>) -> ExtendColsOutput {
    let (batch_table, fetch_time) = fetch_stage_cols(op, &input, ctx);
    let ranges = intersect_ranges(input.len(), ctx);
    let batch_table = &batch_table;
    let input_ref = &input;

    if let Some(vpos) = op.verify_position {
        // Survivors as physical indices; the pool returns work items in
        // arbitrary order, so sort before installing the selection.
        let run = ctx.pool.run(ranges, |(start, end), out: &mut Vec<u32>| {
            let mut row: Vec<VertexId> = Vec::new();
            for i in start..end {
                row.clear();
                input_ref.read_row(i, &mut row);
                if verify_one_row(op, vpos, &row, ctx, batch_table) {
                    out.push(input_ref.physical_index(i) as u32);
                }
            }
        });
        let worker_busy = run.busy.clone();
        let mut sel: Vec<u32> = run.outputs.into_iter().flatten().collect();
        sel.sort_unstable();
        let mut batch = input;
        batch.set_selection(sel);
        if ctx.use_cache {
            ctx.cache.release();
        }
        ctx.rpc
            .stats()
            .machine(ctx.machine)
            .record_col_bytes(batch.byte_size());
        return ExtendColsOutput {
            batch,
            worker_busy,
            fetch_time,
        };
    }

    // Match mode: workers emit (logical row, candidate) pairs; the output
    // columns are then assembled column-at-a-time.
    let split = HoistSplit::of(op, input.arity());
    let run = ctx
        .pool
        .run(ranges, |(start, end), out: &mut Vec<VertexId>| {
            let mut row: Vec<VertexId> = Vec::new();
            let mut scratch: Vec<VertexId> = Vec::new();
            let mut tally = KernelTally::default();
            let mut emit = |i: usize, row: &[VertexId], candidates: &[VertexId]| {
                for &candidate in candidates {
                    if candidate_passes(op, row, candidate) {
                        out.push(i as u32);
                        out.push(candidate);
                    }
                }
            };
            match &split {
                Some(split) => {
                    let mut hoist = HoistedRun::new(split, ctx.markers);
                    for i in start..end {
                        row.clear();
                        input_ref.read_row(i, &mut row);
                        let Some(range) = CandidateRange::of(op, &row) else {
                            continue;
                        };
                        hoist.enter(&row, ctx, batch_table, &mut tally);
                        hoist.candidates(&row, range, ctx, batch_table, &mut scratch, &mut tally);
                        emit(i, &row, &scratch);
                    }
                    hoist.finish();
                }
                None => {
                    let mut exts: Vec<VertexId> = Vec::new();
                    for i in start..end {
                        row.clear();
                        input_ref.read_row(i, &mut row);
                        gather_candidates(
                            op,
                            &row,
                            ctx,
                            batch_table,
                            &mut exts,
                            &mut scratch,
                            &mut tally,
                        );
                        emit(i, &row, &scratch);
                    }
                }
            }
            flush_tally(ctx, &tally);
        });
    let worker_busy = run.busy.clone();
    let arity = input.arity();
    let total: usize = run.outputs.iter().map(|o| o.len() / 2).sum();
    let mut cols: Vec<Vec<VertexId>> = (0..=arity).map(|_| Vec::with_capacity(total)).collect();
    for flat in &run.outputs {
        for (c, col) in cols.iter_mut().enumerate().take(arity) {
            col.extend(flat.chunks_exact(2).map(|p| input.value(c, p[0] as usize)));
        }
        cols[arity].extend(flat.chunks_exact(2).map(|p| p[1]));
    }
    let batch = ColBatch::from_columns(cols);
    if ctx.use_cache {
        ctx.cache.release();
    }
    ctx.rpc
        .stats()
        .machine(ctx.machine)
        .record_col_bytes(batch.byte_size());
    ExtendColsOutput {
        batch,
        worker_busy,
        fetch_time,
    }
}

/// Counts the extensions of one columnar batch without materialising
/// anything the kernels can avoid.
///
/// The candidate-position order filters are turned into a value range
/// ([`CandidateRange`]) and no candidate is ever written: with one extend
/// list the count is two `partition_point`s; with several, each row runs a
/// count twin (or a marker probe) of its varying list against the run's
/// hoisted set H ([`HoistedRun`]). Injectivity is restored by subtracting
/// the bound row values that would have been counted.
pub fn run_extend_count_cols(
    op: &ExtendOp,
    input: &ColBatch,
    ctx: &OpContext<'_>,
) -> ExtendCountOutput {
    let (batch_table, fetch_time) = fetch_stage_cols(op, input, ctx);
    let ranges = intersect_ranges(input.len(), ctx);
    let batch_table = &batch_table;
    let split = HoistSplit::of(op, input.arity());
    let run = ctx.pool.run(ranges, |(start, end), out: &mut Vec<u64>| {
        let mut row: Vec<VertexId> = Vec::new();
        let mut tally = KernelTally::default();
        let mut count = 0u64;
        match &split {
            Some(split) => {
                let mut hoist = HoistedRun::new(split, ctx.markers);
                for i in start..end {
                    row.clear();
                    input.read_row(i, &mut row);
                    let Some(range) = CandidateRange::of(op, &row) else {
                        continue;
                    };
                    hoist.enter(&row, ctx, batch_table, &mut tally);
                    count += hoist.count(&row, range, ctx, batch_table, &mut tally);
                }
                hoist.finish();
            }
            None => {
                for i in start..end {
                    row.clear();
                    input.read_row(i, &mut row);
                    count += count_one_row(op, &row, ctx, batch_table);
                }
            }
        }
        flush_tally(ctx, &tally);
        out.push(count);
    });
    if ctx.use_cache {
        ctx.cache.release();
    }
    ExtendCountOutput {
        count: run.outputs.iter().flatten().sum(),
        worker_busy: run.busy,
        fetch_time,
    }
}

/// The candidate position's order filters of one row as an open value
/// range `(lo, hi)`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct CandidateRange {
    lo: Option<VertexId>,
    hi: Option<VertexId>,
}

impl CandidateRange {
    /// Splits the order filters of `row`'s extension: filters among bound
    /// positions gate the whole row (`None` when one fails); filters
    /// against the candidate position become the range.
    fn of(op: &ExtendOp, row: &[VertexId]) -> Option<CandidateRange> {
        let n = row.len();
        let mut range = CandidateRange { lo: None, hi: None };
        for f in &op.filters {
            if f.larger == n {
                let b = row[f.smaller];
                range.lo = Some(range.lo.map_or(b, |x| x.max(b)));
            } else if f.smaller == n {
                let b = row[f.larger];
                range.hi = Some(range.hi.map_or(b, |x| x.min(b)));
            } else if row[f.smaller] >= row[f.larger] {
                return None;
            }
        }
        Some(range)
    }

    #[inline]
    fn contains(&self, x: VertexId) -> bool {
        self.lo.is_none_or(|l| x > l) && self.hi.is_none_or(|h| x < h)
    }

    /// The index range of a sorted list's elements inside the range.
    #[inline]
    fn bounds(&self, s: &[VertexId]) -> (usize, usize) {
        let a = match self.lo {
            Some(l) => s.partition_point(|&x| x <= l),
            None => 0,
        };
        let b = match self.hi {
            Some(h) => s.partition_point(|&x| x < h),
            None => s.len(),
        };
        (a, b.max(a))
    }

    #[inline]
    fn slice<'s>(&self, s: &'s [VertexId]) -> &'s [VertexId] {
        let (a, b) = self.bounds(s);
        &s[a..b]
    }
}

/// Counts the extensions of one row (verify mode or a single extend list);
/// extends over several lists go through [`HoistedRun::count`].
fn count_one_row(
    op: &ExtendOp,
    row: &[VertexId],
    ctx: &OpContext<'_>,
    batch_table: &HashMap<VertexId, Vec<VertexId>>,
) -> u64 {
    if let Some(vpos) = op.verify_position {
        return verify_one_row(op, vpos, row, ctx, batch_table) as u64;
    }
    let Some(range) = CandidateRange::of(op, row) else {
        return 0;
    };
    let v = row[op.ext_positions[0]];
    with_neighbours(ctx, batch_table, v, |nbrs| {
        let nb = range.slice(nbrs);
        let mut count = nb.len() as u64;
        // Distinct bound values an unconstrained count would wrongly
        // include (injectivity corrections).
        for (idx, &r) in row.iter().enumerate() {
            if !row[..idx].contains(&r) && range.contains(r) && nb.binary_search(&r).is_ok() {
                count -= 1;
            }
        }
        count
    })
    .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Operand hoisting
// ---------------------------------------------------------------------------

/// Largest global vertex count for which hoisted extends keep a dense
/// marker over H (one bit per vertex: 2 MiB per worker at the limit).
/// Larger graphs intersect every row against the sorted H instead.
const MARKER_MAX_VERTICES: usize = 1 << 24;

/// A dense bitset over global vertex ids. Between runs it is all-zero: a
/// run clears exactly the bits it set, so reuse never pays for a full
/// reset.
struct VertexMarker {
    words: Vec<u64>,
}

impl VertexMarker {
    fn new(vertices: usize) -> Self {
        VertexMarker {
            words: vec![0; vertices.div_ceil(64)],
        }
    }

    fn mark(&mut self, vs: &[VertexId]) {
        for &v in vs {
            self.words[(v >> 6) as usize] |= 1u64 << (v & 63);
        }
    }

    fn unmark(&mut self, vs: &[VertexId]) {
        for &v in vs {
            self.words[(v >> 6) as usize] &= !(1u64 << (v & 63));
        }
    }

    #[inline]
    fn contains(&self, v: VertexId) -> bool {
        (self.words[(v >> 6) as usize] >> (v & 63)) & 1 == 1
    }

    fn is_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn byte_size(&self) -> u64 {
        (self.words.len() * std::mem::size_of::<u64>()) as u64
    }
}

/// A machine's store of the dense markers its hoisted `PULL-EXTEND`s
/// probe.
///
/// A work item checks a marker out when one of its runs first reuses H
/// and hands it back, all-zero, when it ends. The pool therefore holds at
/// most one marker per concurrently running work item (one per worker),
/// reused across work items and batches. Every marker is charged to the
/// attached memory tracker until [`MarkerPool::clear`] (or drop).
pub struct MarkerPool {
    vertices: usize,
    free: Mutex<Vec<VertexMarker>>,
    memory: Option<Arc<MemoryTracker>>,
    charged: AtomicU64,
}

impl MarkerPool {
    /// A pool of markers over `vertices` global vertex ids, charged to
    /// `memory` when given.
    pub fn new(vertices: usize, memory: Option<Arc<MemoryTracker>>) -> Self {
        MarkerPool {
            vertices,
            free: Mutex::new(Vec::new()),
            memory,
            charged: AtomicU64::new(0),
        }
    }

    /// Checks a marker out, creating (and charging) one if none is free.
    /// `None` when the graph is too large for dense markers.
    fn take(&self) -> Option<VertexMarker> {
        if self.vertices > MARKER_MAX_VERTICES {
            return None;
        }
        if let Some(marker) = self.free.lock().pop() {
            return Some(marker);
        }
        let marker = VertexMarker::new(self.vertices);
        let bytes = marker.byte_size();
        self.charged.fetch_add(bytes, Ordering::Relaxed);
        if let Some(memory) = &self.memory {
            memory.allocate(bytes);
        }
        Some(marker)
    }

    /// Returns a marker for reuse. It must be all-zero.
    fn put(&self, marker: VertexMarker) {
        debug_assert!(marker.is_clear(), "marker returned with bits set");
        self.free.lock().push(marker);
    }

    /// Drops every marker and releases its charge.
    pub(crate) fn clear(&self) {
        self.free.lock().clear();
        let bytes = self.charged.swap(0, Ordering::Relaxed);
        if let Some(memory) = &self.memory {
            memory.release(bytes);
        }
    }
}

impl Drop for MarkerPool {
    fn drop(&mut self) {
        self.clear();
    }
}

/// How a multi-list extend splits its lists for operand hoisting.
///
/// The columnar extend emits all rows of one input row next to each other,
/// so every column but the newest repeats across long runs of rows. The
/// lists of those *invariant* positions intersect to the same set H along
/// a run; only the newest column's list *varies* from row to row.
struct HoistSplit {
    /// Extend positions whose values key a run.
    invariant: Vec<usize>,
    /// The newest input column, when it is an extend position.
    varying: Option<usize>,
}

impl HoistSplit {
    /// `None` for verify mode and single-list extends, which keep the
    /// per-row path.
    fn of(op: &ExtendOp, arity: usize) -> Option<HoistSplit> {
        if op.verify_position.is_some() || op.ext_positions.len() < 2 {
            return None;
        }
        let newest = arity - 1;
        let varying = op.ext_positions.contains(&newest).then_some(newest);
        let invariant = op
            .ext_positions
            .iter()
            .copied()
            .filter(|&p| Some(p) != varying)
            .collect();
        Some(HoistSplit { invariant, varying })
    }
}

/// How one row meets its run's H.
#[derive(Clone, Copy)]
enum Probe<'a> {
    /// Walk the varying range, probing the marker over H (tallied as
    /// `Bitmap`: one dense-bitmap membership test per element).
    Marker,
    /// Walk H through the varying vertex's hub bitmap.
    Hub(&'a HubBitmap),
    /// Merge or gallop H against the varying range.
    Lists,
}

/// One work item's operand-hoisting state for a multi-list extend
/// (BENU's common-subexpression elimination, applied to a batch).
///
/// H, the intersection of the invariant lists, is computed once per run
/// of rows with equal invariant values. Each row then intersects only its
/// varying list, sliced to the row's candidate range, with H:
///
/// * the first row of a run merges or gallops against H;
/// * from the second row on, H is marked into a dense [`VertexMarker`]
///   and each row walks its varying range probing the marker. Only the
///   part of H that rows have asked for is marked, so marking never costs
///   more than the merges it replaces;
/// * a varying range ≥ [`kernels::GALLOP_RATIO`]× longer than H's walks H
///   instead, through the hub bitmap when the varying vertex is an
///   indexed hub.
///
/// Runs never cross a work item: [`HoistedRun::finish`] unmarks and
/// returns the marker.
struct HoistedRun<'c> {
    split: &'c HoistSplit,
    markers: &'c MarkerPool,
    /// Invariant values of the current run.
    key: Vec<VertexId>,
    /// H when it is one local adjacency list, read in place.
    local: Option<&'c [VertexId]>,
    /// H otherwise, built by the multiway kernels.
    owned: Vec<VertexId>,
    /// Rows of the current run seen so far (0 before the first row).
    rows: usize,
    /// The last candidate range looked up in H and its index range.
    h_range: Option<(CandidateRange, Range<usize>)>,
    /// Checked out of `markers` when a run first reuses H.
    marker: Option<VertexMarker>,
    /// Indices of H whose elements are set in `marker` (empty: none).
    marked: Range<usize>,
    /// The invariant vertices, smallest degree first (a reused buffer).
    exts: Vec<VertexId>,
}

impl<'c> HoistedRun<'c> {
    fn new(split: &'c HoistSplit, markers: &'c MarkerPool) -> Self {
        HoistedRun {
            split,
            markers,
            key: Vec::with_capacity(split.invariant.len()),
            local: None,
            owned: Vec::new(),
            rows: 0,
            h_range: None,
            marker: None,
            marked: 0..0,
            exts: Vec::new(),
        }
    }

    /// Places `row` in a run: continues the current one when its invariant
    /// values match, otherwise ends it and computes the new run's H.
    fn enter(
        &mut self,
        row: &[VertexId],
        ctx: &OpContext<'c>,
        batch_table: &HashMap<VertexId, Vec<VertexId>>,
        tally: &mut KernelTally,
    ) {
        let inv = &self.split.invariant;
        if self.rows > 0 && inv.iter().zip(&self.key).all(|(&p, &k)| row[p] == k) {
            self.rows += 1;
            return;
        }
        self.end_run();
        self.rows = 1;
        self.h_range = None;
        self.key.clear();
        self.key.extend(inv.iter().map(|&p| row[p]));
        self.local = match self.key[..] {
            [v] if ctx.partition.is_local(v) => Some(ctx.partition.local_neighbours(v)),
            _ => None,
        };
        if self.local.is_none() {
            self.exts.clear();
            self.exts.extend_from_slice(&self.key);
            self.exts.sort_unstable_by_key(|&v| ctx.partition.degree(v));
            intersect_ext_lists(&self.exts, ctx, batch_table, &mut self.owned, tally);
        }
    }

    /// The current run's H.
    #[inline]
    fn h(&self) -> &[VertexId] {
        self.local.unwrap_or(&self.owned)
    }

    /// The indices of H inside `range`. Rows of a run often share their
    /// range, so the last lookup is remembered.
    fn h_bounds(&mut self, range: CandidateRange) -> Range<usize> {
        match &self.h_range {
            Some((r, hr)) if *r == range => hr.clone(),
            _ => {
                let (a, b) = range.bounds(self.h());
                self.h_range = Some((range, a..b));
                a..b
            }
        }
    }

    /// Picks how a row whose candidates lie in `H[hr]` meets a varying
    /// range of `nb_len` elements. Choosing [`Probe::Marker`] marks the
    /// part of `H[hr]` not marked yet.
    fn probe(
        &mut self,
        v: VertexId,
        hr: Range<usize>,
        nb_len: usize,
        ctx: &OpContext<'c>,
    ) -> Probe<'c> {
        if nb_len >= hr.len().saturating_mul(kernels::GALLOP_RATIO) {
            return match ctx.partition.hub_bitmap(v) {
                Some(bm) => Probe::Hub(bm),
                None => Probe::Lists,
            };
        }
        if self.rows < 2 {
            return Probe::Lists;
        }
        if self.marker.is_none() {
            self.marker = self.markers.take();
        }
        let Some(marker) = self.marker.as_mut() else {
            return Probe::Lists;
        };
        let h = self.local.unwrap_or(&self.owned);
        let m = &self.marked;
        if m.is_empty() {
            marker.mark(&h[hr.clone()]);
            self.marked = hr;
        } else {
            // Grow the marked interval to the hull of both.
            if hr.start < m.start {
                marker.mark(&h[hr.start..m.start]);
            }
            if hr.end > m.end {
                marker.mark(&h[m.end..hr.end]);
            }
            self.marked = hr.start.min(m.start)..hr.end.max(m.end);
        }
        Probe::Marker
    }

    /// Counts the current row's extensions: `|H ∩ N(varying)|` inside the
    /// candidate range, minus the bound values it wrongly includes.
    fn count(
        &mut self,
        row: &[VertexId],
        range: CandidateRange,
        ctx: &OpContext<'c>,
        batch_table: &HashMap<VertexId, Vec<VertexId>>,
        tally: &mut KernelTally,
    ) -> u64 {
        let hr = self.h_bounds(range);
        if hr.is_empty() {
            return 0;
        }
        // Injectivity: distinct bound values in range that the count
        // included.
        let wrongly_counted = |counted: &dyn Fn(VertexId) -> bool| {
            row.iter()
                .enumerate()
                .filter(|&(idx, &r)| range.contains(r) && counted(r) && !row[..idx].contains(&r))
                .count() as u64
        };
        let Some(vpos) = self.split.varying else {
            let hs = &self.h()[hr.clone()];
            return hs.len() as u64 - wrongly_counted(&|r| hs.binary_search(&r).is_ok());
        };
        let v = row[vpos];
        with_neighbours(ctx, batch_table, v, |nbrs| {
            let nb = range.slice(nbrs);
            if nb.is_empty() {
                return 0;
            }
            let probe = self.probe(v, hr.clone(), nb.len(), ctx);
            let hs = &self.h()[hr.clone()];
            match (probe, &self.marker) {
                (Probe::Marker, Some(marker)) => {
                    tally.bump(KernelKind::Bitmap);
                    let count = nb.iter().filter(|&&x| marker.contains(x)).count() as u64;
                    count - wrongly_counted(&|r| marker.contains(r) && nb.binary_search(&r).is_ok())
                }
                (probe, _) => {
                    let count = if let Probe::Hub(bm) = probe {
                        tally.bump(KernelKind::Bitmap);
                        kernels::intersect_count_bitmap(hs, bm)
                    } else {
                        let (count, kind) = kernels::intersect_count_adaptive(hs, nb);
                        tally.bump(kind);
                        count
                    };
                    count
                        - wrongly_counted(&|r| {
                            nb.binary_search(&r).is_ok() && hs.binary_search(&r).is_ok()
                        })
                }
            }
        })
        .unwrap_or(0)
    }

    /// Writes the current row's raw candidates, `H ∩ N(varying)` inside the
    /// candidate range, into `out` (injectivity and order filters are the
    /// caller's).
    fn candidates(
        &mut self,
        row: &[VertexId],
        range: CandidateRange,
        ctx: &OpContext<'c>,
        batch_table: &HashMap<VertexId, Vec<VertexId>>,
        out: &mut Vec<VertexId>,
        tally: &mut KernelTally,
    ) {
        out.clear();
        let hr = self.h_bounds(range);
        if hr.is_empty() {
            return;
        }
        let Some(vpos) = self.split.varying else {
            out.extend_from_slice(&self.h()[hr]);
            return;
        };
        let v = row[vpos];
        with_neighbours(ctx, batch_table, v, |nbrs| {
            let nb = range.slice(nbrs);
            if nb.is_empty() {
                return;
            }
            let probe = self.probe(v, hr.clone(), nb.len(), ctx);
            let hs = &self.h()[hr.clone()];
            match (probe, &self.marker) {
                (Probe::Marker, Some(marker)) => {
                    tally.bump(KernelKind::Bitmap);
                    out.extend(nb.iter().copied().filter(|&x| marker.contains(x)));
                }
                (Probe::Hub(bm), _) => {
                    tally.bump(KernelKind::Bitmap);
                    kernels::intersect_bitmap_into(hs, bm, out);
                }
                _ => tally.bump(kernels::intersect_adaptive_into(hs, nb, out)),
            }
        });
    }

    /// Ends the current run: unmarks what it marked, leaving the marker
    /// all-zero.
    fn end_run(&mut self) {
        if let Some(marker) = self.marker.as_mut() {
            marker.unmark(&self.local.unwrap_or(&self.owned)[self.marked.clone()]);
        }
        self.marked = 0..0;
    }

    /// Ends the work item's last run and returns the marker to the pool.
    fn finish(mut self) {
        self.end_run();
        if let Some(marker) = self.marker.take() {
            self.markers.put(marker);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use huge_cache::PullCache;
    use huge_comm::stats::ClusterStats;
    use huge_comm::RpcFabric;
    use huge_graph::{gen, GraphPartition, Partitioner};
    use huge_plan::physical::CommMode;

    fn setup(k: usize) -> (Vec<GraphPartition>, RpcFabric) {
        let g = gen::complete(8);
        let parts = Partitioner::new(k).unwrap().partition(g);
        let stats = ClusterStats::new(k);
        let fabric = RpcFabric::new(Arc::new(parts.clone()), stats);
        (parts, fabric)
    }

    fn ctx<'a>(
        machine: usize,
        parts: &'a [GraphPartition],
        rpc: &'a RpcFabric,
        cache: &'a dyn PullCache,
        pool: &'a WorkerPool,
        markers: &'a MarkerPool,
    ) -> OpContext<'a> {
        OpContext {
            machine,
            partition: &parts[machine],
            rpc,
            cache,
            use_cache: true,
            pool,
            markers,
            batch_size: 1024,
        }
    }

    #[test]
    fn scan_produces_all_directed_edges() {
        let (parts, rpc) = setup(2);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let markers = MarkerPool::new(parts[0].global_vertices(), None);
        let mut total = 0;
        for m in 0..2 {
            let c = ctx(m, &parts, &rpc, &cache, &pool, &markers);
            let scan = ScanOp {
                src: 0,
                dst: 1,
                filters: vec![],
            };
            let mut cursor = ScanCursor::new(scan, ScanPool::new(parts[m].local_vertices(), 4));
            while let Some(batch) = cursor.next_batch(&c) {
                total += batch.len();
            }
        }
        // K8 has 28 undirected edges -> 56 directed pairs across machines.
        assert_eq!(total, 56);
    }

    #[test]
    fn scan_respects_order_filters() {
        let (parts, rpc) = setup(1);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let markers = MarkerPool::new(parts[0].global_vertices(), None);
        let c = ctx(0, &parts, &rpc, &cache, &pool, &markers);
        let scan = ScanOp {
            src: 0,
            dst: 1,
            filters: vec![OrderFilter {
                smaller: 0,
                larger: 1,
            }],
        };
        let mut cursor = ScanCursor::new(scan, ScanPool::new(parts[0].local_vertices(), 4));
        let mut total = 0;
        while let Some(batch) = cursor.next_batch(&c) {
            for row in batch.rows() {
                assert!(row[0] < row[1]);
            }
            total += batch.len();
        }
        assert_eq!(total, 28);
    }

    #[test]
    fn extend_counts_triangles_on_k8() {
        let (parts, rpc) = setup(2);
        let pool = WorkerPool::new(2, crate::config::LoadBalance::WorkStealing);
        let markers = MarkerPool::new(parts[0].global_vertices(), None);
        let mut total = 0;
        for m in 0..2 {
            let cache = huge_cache::LrbuCache::new(1 << 20);
            let c = ctx(m, &parts, &rpc, &cache, &pool, &markers);
            let scan = ScanOp {
                src: 0,
                dst: 1,
                filters: vec![OrderFilter {
                    smaller: 0,
                    larger: 1,
                }],
            };
            let ext = ExtendOp {
                target: 2,
                ext_positions: vec![0, 1],
                verify_position: None,
                filters: vec![OrderFilter {
                    smaller: 1,
                    larger: 2,
                }],
                comm: CommMode::Pulling,
            };
            let mut cursor = ScanCursor::new(scan, ScanPool::new(parts[m].local_vertices(), 2));
            while let Some(batch) = cursor.next_batch(&c) {
                let out = run_extend(&ext, &batch, &c);
                total += out.batch.len();
            }
        }
        // K8 has C(8,3) = 56 triangles.
        assert_eq!(total, 56);
    }

    #[test]
    fn verify_extend_checks_membership() {
        let (parts, rpc) = setup(1);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let markers = MarkerPool::new(parts[0].global_vertices(), None);
        let c = ctx(0, &parts, &rpc, &cache, &pool, &markers);
        // Rows over K8 vertices: verify that column 0 is adjacent to column 1.
        let mut input = RowBatch::new(2);
        input.push_row(&[0, 1]);
        input.push_row(&[2, 2]); // self pair: 2 is not its own neighbour
        let op = ExtendOp {
            target: 0,
            ext_positions: vec![1],
            verify_position: Some(0),
            filters: vec![],
            comm: CommMode::Pulling,
        };
        let out = run_extend(&op, &input, &c);
        assert_eq!(out.batch.len(), 1);
        assert_eq!(out.batch.row(0), &[0, 1]);
    }

    #[test]
    fn extend_without_cache_uses_batch_table() {
        let (parts, rpc) = setup(2);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let markers = MarkerPool::new(parts[0].global_vertices(), None);
        let mut c = ctx(0, &parts, &rpc, &cache, &pool, &markers);
        c.use_cache = false;
        let mut input = RowBatch::new(2);
        input.push_row(&[0, 1]);
        let op = ExtendOp {
            target: 2,
            ext_positions: vec![0, 1],
            verify_position: None,
            filters: vec![],
            comm: CommMode::Pulling,
        };
        let out = run_extend(&op, &input, &c);
        // All other 6 vertices of K8 complete the triangle.
        assert_eq!(out.batch.len(), 6);
        assert_eq!(cache.len(), 0, "cache must stay untouched when disabled");
    }

    #[test]
    fn scan_pool_stealing() {
        let pool = ScanPool::new(&(0..100u32).collect::<Vec<_>>(), 10);
        let stolen = pool.steal_half();
        assert_eq!(stolen.len(), 5);
        assert_eq!(pool.remaining_vertices(), 50);
        let other = ScanPool::empty();
        other.add_chunks(stolen);
        assert_eq!(other.remaining_vertices(), 50);
        assert!(!other.is_empty());
    }

    #[test]
    fn columnar_extend_matches_row_major_on_k8() {
        let (parts, rpc) = setup(2);
        let pool = WorkerPool::new(2, crate::config::LoadBalance::WorkStealing);
        let markers = MarkerPool::new(parts[0].global_vertices(), None);
        let mut row_total = 0;
        let mut col_total = 0;
        let mut count_total = 0;
        for m in 0..2 {
            let cache = huge_cache::LrbuCache::new(1 << 20);
            let c = ctx(m, &parts, &rpc, &cache, &pool, &markers);
            let scan = ScanOp {
                src: 0,
                dst: 1,
                filters: vec![OrderFilter {
                    smaller: 0,
                    larger: 1,
                }],
            };
            let ext = ExtendOp {
                target: 2,
                ext_positions: vec![0, 1],
                verify_position: None,
                filters: vec![OrderFilter {
                    smaller: 1,
                    larger: 2,
                }],
                comm: CommMode::Pulling,
            };
            let mut cursor = ScanCursor::new(scan, ScanPool::new(parts[m].local_vertices(), 2));
            while let Some(batch) = cursor.next_batch(&c) {
                row_total += run_extend(&ext, &batch, &c).batch.len();
                let cols = ColBatch::from_rows(&batch);
                count_total += run_extend_count_cols(&ext, &cols, &c).count;
                let out = run_extend_cols(&ext, cols, &c);
                assert_eq!(out.batch.arity(), 3);
                col_total += out.batch.len();
            }
        }
        // K8 has C(8,3) = 56 triangles; all three paths must agree.
        assert_eq!(row_total, 56);
        assert_eq!(col_total, 56);
        assert_eq!(count_total, 56);
        // The columnar paths dispatched kernels and charged column bytes.
        let total = rpc.stats().total();
        assert!(total.kernel_invocations() > 0);
        assert!(total.col_bytes > 0);
    }

    #[test]
    fn columnar_verify_narrows_selection_without_copying() {
        let (parts, rpc) = setup(1);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let markers = MarkerPool::new(parts[0].global_vertices(), None);
        let c = ctx(0, &parts, &rpc, &cache, &pool, &markers);
        let mut input = ColBatch::new(2);
        input.push_row(&[0, 1]);
        input.push_row(&[2, 2]); // self pair: 2 is not its own neighbour
        input.push_row(&[3, 5]);
        let op = ExtendOp {
            target: 0,
            ext_positions: vec![1],
            verify_position: Some(0),
            filters: vec![],
            comm: CommMode::Pulling,
        };
        let out = run_extend_cols(&op, input, &c);
        assert_eq!(out.batch.len(), 2);
        assert_eq!(out.batch.physical_rows(), 3, "verify must not compact");
        assert_eq!(out.batch.selection(), Some(&[0, 2][..]));
        assert_eq!(out.batch.value(0, 1), 3);
        assert_eq!(out.batch.to_rows().row(0), &[0, 1]);
    }

    #[test]
    fn columnar_count_uses_hub_bitmaps() {
        let g = gen::barabasi_albert(400, 6, 3);
        let mut parts = Partitioner::new(1).unwrap().partition(g);
        parts[0].build_hub_index(8); // low threshold: plenty of hubs
        let stats = ClusterStats::new(1);
        let rpc = RpcFabric::new(Arc::new(parts.clone()), stats);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let markers = MarkerPool::new(parts[0].global_vertices(), None);
        let c = ctx(0, &parts, &rpc, &cache, &pool, &markers);
        let scan = ScanOp {
            src: 0,
            dst: 1,
            filters: vec![OrderFilter {
                smaller: 0,
                larger: 1,
            }],
        };
        let ext = ExtendOp {
            target: 2,
            ext_positions: vec![0, 1],
            verify_position: None,
            filters: vec![OrderFilter {
                smaller: 1,
                larger: 2,
            }],
            comm: CommMode::Pulling,
        };
        let mut row_total = 0u64;
        let mut count_total = 0u64;
        let mut cursor = ScanCursor::new(scan, ScanPool::new(parts[0].local_vertices(), 64));
        while let Some(batch) = cursor.next_batch(&c) {
            row_total += run_extend(&ext, &batch, &c).batch.len() as u64;
            let cols = ColBatch::from_rows(&batch);
            count_total += run_extend_count_cols(&ext, &cols, &c).count;
        }
        assert_eq!(count_total, row_total);
        let snap = rpc.stats().total();
        assert!(
            snap.kernel_bitmap > 0,
            "hub bitmaps must be dispatched on a BA graph: {snap:?}"
        );
    }

    // -----------------------------------------------------------------------
    // Operand hoisting: the columnar paths against the row-major oracle
    // -----------------------------------------------------------------------

    /// A BA graph with plenty of indexed hubs (threshold 8), split over `k`
    /// machines.
    fn hub_graph(k: usize) -> (Vec<GraphPartition>, RpcFabric) {
        let g = gen::barabasi_albert(300, 5, 17);
        let mut parts = Partitioner::new(k).unwrap().partition(g);
        for p in &mut parts {
            p.build_hub_index(8);
        }
        let rpc = RpcFabric::new(Arc::new(parts.clone()), ClusterStats::new(k));
        (parts, rpc)
    }

    /// `(v0, v1, v2)` paths with `v0` local to `machine`, ordered `v0`
    /// outermost: long runs of equal `v0`, and runs of equal `(v0, v1)`.
    fn path_rows(parts: &[GraphPartition], machine: usize, starts: usize) -> ColBatch {
        let g = parts[machine].shared_graph();
        let mut batch = ColBatch::new(3);
        // Spread the starts over the id range: low ids are the hubs.
        let local = parts[machine].local_vertices();
        for &v0 in local.iter().step_by(local.len().div_ceil(starts)) {
            for &v1 in g.neighbours(v0) {
                for &v2 in g.neighbours(v1) {
                    if v2 != v0 {
                        batch.push_row(&[v0, v1, v2]);
                    }
                }
            }
        }
        batch
    }

    /// The same rows, dealt round-robin across their `v0` groups so that
    /// consecutive rows never share `v0`: every run has length 1.
    fn alternate_v0(input: &ColBatch) -> ColBatch {
        let mut groups: Vec<Vec<Vec<VertexId>>> = Vec::new();
        let mut row = Vec::new();
        for i in 0..input.len() {
            row.clear();
            input.read_row(i, &mut row);
            match groups.last_mut() {
                Some(g) if g[0][0] == row[0] => g.push(row.clone()),
                _ => groups.push(vec![row.clone()]),
            }
        }
        let mut out = ColBatch::new(input.arity());
        for i in 0.. {
            let before = out.len();
            for g in &groups {
                if let Some(r) = g.get(i) {
                    out.push_row(r);
                }
            }
            if out.len() == before {
                break;
            }
        }
        out
    }

    fn rows_of(batch: &RowBatch) -> Vec<Vec<VertexId>> {
        let mut rows: Vec<Vec<VertexId>> = batch.rows().map(<[VertexId]>::to_vec).collect();
        rows.sort_unstable();
        rows
    }

    /// Runs the row-major oracle (`run_extend`, `run_extend_count`) and
    /// both columnar paths over `input`, whole and split into batches of
    /// `chunk` rows, and checks that all agree. Returns the count.
    fn assert_parity(op: &ExtendOp, input: &ColBatch, chunk: usize, c: &OpContext<'_>) -> u64 {
        let rows = input.to_rows();
        let want = rows_of(&run_extend(op, &rows, c).batch);
        let n = want.len() as u64;
        assert_eq!(run_extend_count(op, &rows, c).count, n, "row-major count");
        assert_eq!(
            rows_of(&run_extend_cols(op, input.clone(), c).batch.to_rows()),
            want
        );
        assert_eq!(
            run_extend_count_cols(op, input, c).count,
            n,
            "columnar count"
        );
        let (mut split_rows, mut split_count) = (RowBatch::new(input.arity() + 1), 0);
        for piece in input.clone().split_into_chunks(chunk) {
            split_count += run_extend_count_cols(op, &piece, c).count;
            split_rows.append(&mut run_extend_cols(op, piece, c).batch.into_rows());
        }
        assert_eq!(split_count, n, "split columnar count");
        assert_eq!(rows_of(&split_rows), want, "split columnar rows");
        n
    }

    fn extend(ext_positions: Vec<usize>, filters: &[(usize, usize)]) -> ExtendOp {
        ExtendOp {
            target: 3,
            ext_positions,
            verify_position: None,
            filters: filters
                .iter()
                .map(|&(smaller, larger)| OrderFilter { smaller, larger })
                .collect(),
            comm: CommMode::Pulling,
        }
    }

    /// Order-filter sets over rows of arity 3 (the candidate is column 3):
    /// none, a `lo` bound, a `hi` bound, both, and both plus a filter among
    /// bound columns that gates whole rows.
    const FILTER_SETS: [&[(usize, usize)]; 5] = [
        &[],
        &[(0, 3)],
        &[(3, 1)],
        &[(0, 3), (3, 2)],
        &[(0, 3), (3, 1), (0, 2)],
    ];

    /// Extend shapes over rows `(v0, v1, v2)`: one invariant list and the
    /// varying one, two invariant lists and the varying one, and invariant
    /// lists only.
    const SHAPES: [&[usize]; 3] = [&[0, 2], &[0, 1, 2], &[0, 1]];

    #[test]
    fn hoisted_extend_matches_row_major_oracle() {
        for k in [1, 2] {
            let (parts, rpc) = hub_graph(k);
            let pool = WorkerPool::new(2, crate::config::LoadBalance::WorkStealing);
            let tracker = Arc::new(MemoryTracker::new());
            let markers = MarkerPool::new(parts[0].global_vertices(), Some(Arc::clone(&tracker)));
            for m in 0..k {
                let cache = huge_cache::LrbuCache::new(1 << 22);
                let c = ctx(m, &parts, &rpc, &cache, &pool, &markers);
                let long = path_rows(&parts, m, 12);
                assert!(
                    long.len() > 1024,
                    "runs must span work items: {}",
                    long.len()
                );
                let short = alternate_v0(&long);
                for shape in SHAPES {
                    for filters in FILTER_SETS {
                        let op = extend(shape.to_vec(), filters);
                        let n = assert_parity(&op, &long, 97, &c);
                        assert_eq!(assert_parity(&op, &short, 97, &c), n);
                    }
                }
            }
            // Long runs reused H, so a marker was created and charged.
            assert!(tracker.current() > 0);
            markers.clear();
            assert_eq!(tracker.current(), 0);
        }
    }

    #[test]
    fn hoisted_extend_subtracts_bound_values_inside_the_candidate_set() {
        // With only a `lo` bound, v1 ∈ N(v0) ∩ N(v2) lies in range whenever
        // v1 > v0: the raw count includes it and injectivity must remove it.
        let (parts, rpc) = hub_graph(1);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let markers = MarkerPool::new(parts[0].global_vertices(), None);
        let cache = huge_cache::LrbuCache::new(1 << 22);
        let c = ctx(0, &parts, &rpc, &cache, &pool, &markers);
        let input = path_rows(&parts, 0, 12);
        let op = extend(vec![0, 2], &[(0, 3)]);
        let n = assert_parity(&op, &input, 1 << 20, &c);
        let raw: u64 = (0..input.len())
            .map(|i| {
                let g = parts[0].shared_graph();
                let (v0, v2) = (input.value(0, i), input.value(2, i));
                huge_graph::graph::intersect_sorted(g.neighbours(v0), g.neighbours(v2))
                    .into_iter()
                    .filter(|&x| x > v0)
                    .count() as u64
            })
            .sum();
        assert!(
            raw > n,
            "the input must exercise the correction ({raw} vs {n})"
        );
    }

    #[test]
    fn hoisted_extend_walks_h_through_a_varying_hub() {
        // No markers (the vertex count is over the limit), one invariant
        // list: every bitmap tally is a walk of H through a varying hub.
        let (parts, rpc) = hub_graph(1);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let tracker = Arc::new(MemoryTracker::new());
        let markers = MarkerPool::new(MARKER_MAX_VERTICES + 1, Some(Arc::clone(&tracker)));
        let cache = huge_cache::LrbuCache::new(1 << 22);
        let c = ctx(0, &parts, &rpc, &cache, &pool, &markers);
        let input = path_rows(&parts, 0, 12);
        let op = extend(vec![0, 2], &[(0, 3), (3, 1)]);
        let before = rpc.stats().total();
        assert_parity(&op, &input, 97, &c);
        let after = rpc.stats().total();
        assert!(after.kernel_bitmap > before.kernel_bitmap, "{after:?}");
        assert_eq!(tracker.peak(), 0, "no marker above the limit");
    }

    #[test]
    fn hoisted_extend_without_cache_uses_batch_table() {
        let (parts, rpc) = hub_graph(2);
        let pool = WorkerPool::new(2, crate::config::LoadBalance::WorkStealing);
        let markers = MarkerPool::new(parts[0].global_vertices(), None);
        let cache = huge_cache::LrbuCache::new(1 << 22);
        for m in 0..2 {
            let mut c = ctx(m, &parts, &rpc, &cache, &pool, &markers);
            c.use_cache = false;
            let input = path_rows(&parts, m, 8);
            for shape in SHAPES {
                assert_parity(&extend(shape.to_vec(), &[(0, 3), (3, 2)]), &input, 97, &c);
            }
        }
        assert_eq!(cache.len(), 0, "cache must stay untouched when disabled");
    }

    #[test]
    fn hoisted_extend_survives_evictions_in_lru_variants() {
        // A tiny Exp-6 LRU evicts entries between the fetch and intersect
        // stages; the extend falls back to an accounted pull.
        let (parts, rpc) = hub_graph(2);
        let pool = WorkerPool::new(2, crate::config::LoadBalance::WorkStealing);
        let markers = MarkerPool::new(parts[0].global_vertices(), None);
        for kind in [
            huge_cache::CacheKind::ConcurrentLru,
            huge_cache::CacheKind::LruInfinite,
        ] {
            for m in 0..2 {
                let cache = kind.build(256);
                let c = ctx(m, &parts, &rpc, cache.as_ref(), &pool, &markers);
                let input = alternate_v0(&path_rows(&parts, m, 8));
                for shape in SHAPES {
                    assert_parity(&extend(shape.to_vec(), &[(3, 1)]), &input, 97, &c);
                }
            }
        }
    }

    #[test]
    fn marker_pool_reuses_and_releases_markers() {
        let tracker = Arc::new(MemoryTracker::new());
        let pool = MarkerPool::new(1000, Some(Arc::clone(&tracker)));
        let mut a = pool.take().expect("under the limit");
        a.mark(&[3, 64, 999]);
        assert!(a.contains(64) && a.contains(999) && !a.contains(65));
        a.unmark(&[3, 64, 999]);
        assert!(a.is_clear());
        let bytes = a.byte_size();
        assert_eq!(bytes, 16 * 8);
        pool.put(a);
        let b = pool.take().expect("reused");
        assert_eq!(
            tracker.current(),
            bytes,
            "a reused marker is not charged twice"
        );
        pool.put(b);
        drop(pool);
        assert_eq!(tracker.current(), 0);
        assert!(MarkerPool::new(MARKER_MAX_VERTICES + 1, None)
            .take()
            .is_none());
    }
}
