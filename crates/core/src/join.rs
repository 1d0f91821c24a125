//! The `PUSH-JOIN` operator: a buffered, partitioned (Grace-style) hash join
//! with disk spill (§4.3).
//!
//! Each side of the join is hash-partitioned by join key into a fixed number
//! of partitions. A partition buffers rows in memory until the configured
//! threshold, after which further rows are appended to a temporary file on
//! disk. When both inputs are complete, the joiner converts into a
//! [`JoinStream`] that drives the partitions *lazily*: each
//! [`JoinStream::next_batch`] call loads at most one partition, builds an
//! in-memory hash table over the right rows, and probes with the left rows
//! until one output batch is filled. Memory is therefore bounded by the
//! largest single partition plus one output batch — matching the paper's
//! "memory consumption is bounded to the buffer size" claim — on *every*
//! consumption path, including incremental `poll`-driven execution.

use std::fs::OpenOptions;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use huge_comm::{ColBatch, RowBatch};
use huge_graph::VertexId;
use huge_plan::translate::JoinOp;

use crate::memory::MemoryTracker;
use crate::Result;

/// Number of Grace partitions per side.
pub const NUM_PARTITIONS: usize = 16;

/// Lifecycle of one Grace partition inside a sealed join.
///
/// `Sealed` partitions are first-class work items: they can be probed
/// locally or shipped whole to an idle peer (partition stealing). The
/// transitions are `Sealed → Probing → Done` locally and `Sealed → Shipped`
/// when a steal request claims the partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionState {
    /// Sealed but not yet probed — eligible for shipping to a peer.
    Sealed,
    /// Loaded and currently being probed on this machine.
    Probing,
    /// Handed to a thief machine; no longer this machine's work.
    Shipped,
    /// Probed to completion (or discarded as unmatchable).
    Done,
}

/// A sealed Grace partition claimed for shipping: `(partition index, left
/// rows, right rows)`, with both sides flat in the spill row encoding.
pub type TakenPartition = (usize, Vec<VertexId>, Vec<VertexId>);

/// Which input of the join a batch belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinSide {
    /// The left input (its rows form the prefix of output rows).
    Left,
    /// The right input (only its non-key payload columns are appended).
    Right,
}

/// Encodes rows in the spill encoding: every value as a little-endian
/// `u32`, flat. This is byte-identical to the on-disk spill format, so a
/// shipped partition round-trips bit-for-bit through [`decode_rows`]
/// whether it came from memory or from a spill file.
pub fn encode_rows(rows: &[VertexId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(std::mem::size_of_val(rows));
    for v in rows {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a spill-encoded byte buffer back into rows.
pub fn decode_rows(bytes: &[u8]) -> Vec<VertexId> {
    bytes
        .chunks_exact(std::mem::size_of::<VertexId>())
        .map(|c| VertexId::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Hashes the join-key columns of a row.
pub fn key_hash(row: &[VertexId], key_positions: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &pos in key_positions {
        h ^= row[pos] as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Widest join key (in columns) that packs exactly into a `u128`.
const PACK_MAX_KEY: usize = 4;

/// Packs the join-key columns of a row into a single `u128` table key. Up to
/// [`PACK_MAX_KEY`] columns pack positionally (collision-free); wider keys
/// fall back to the FNV hash, and the probe re-checks column equality on
/// each candidate match.
fn pack_key(row: &[VertexId], key_positions: &[usize]) -> u128 {
    if key_positions.len() <= PACK_MAX_KEY {
        let mut k = 0u128;
        for &pos in key_positions {
            k = (k << 32) | row[pos] as u128;
        }
        k
    } else {
        key_hash(row, key_positions) as u128
    }
}

struct SidePartition {
    rows_in_memory: Vec<VertexId>,
    memory_bytes: u64,
    spill_file: Option<PathBuf>,
    spilled_values: u64,
}

impl SidePartition {
    fn new() -> Self {
        SidePartition {
            rows_in_memory: Vec::new(),
            memory_bytes: 0,
            spill_file: None,
            spilled_values: 0,
        }
    }
}

impl Drop for SidePartition {
    fn drop(&mut self) {
        if let Some(path) = self.spill_file.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

struct SideBuffer {
    arity: usize,
    key_positions: Vec<usize>,
    partitions: Vec<SidePartition>,
    buffered_bytes: u64,
}

impl SideBuffer {
    fn new(arity: usize, key_positions: Vec<usize>) -> Self {
        SideBuffer {
            arity,
            key_positions,
            partitions: (0..NUM_PARTITIONS).map(|_| SidePartition::new()).collect(),
            buffered_bytes: 0,
        }
    }
}

/// The buffered hash join of one machine.
pub struct HashJoiner {
    op: JoinOp,
    left: SideBuffer,
    right: SideBuffer,
    spill_threshold_bytes: u64,
    spill_dir: PathBuf,
    spill_counter: usize,
    memory: MemoryTrackerHandle,
    /// Partitions already shipped to a thief before sealing.
    shipped: Vec<bool>,
}

/// A thin optional handle so the joiner can be used without a tracker in
/// unit tests.
#[derive(Clone)]
pub enum MemoryTrackerHandle {
    /// Track allocations against a machine's tracker.
    Tracked(std::sync::Arc<MemoryTracker>),
    /// Do not track.
    Untracked,
}

impl MemoryTrackerHandle {
    fn allocate(&self, bytes: u64) {
        if let MemoryTrackerHandle::Tracked(t) = self {
            t.allocate(bytes);
        }
    }
    fn release(&self, bytes: u64) {
        if let MemoryTrackerHandle::Tracked(t) = self {
            t.release(bytes);
        }
    }
}

impl HashJoiner {
    /// Creates a joiner for `op` whose inputs have the given arities.
    pub fn new(
        op: JoinOp,
        left_arity: usize,
        right_arity: usize,
        spill_threshold_bytes: u64,
        spill_dir: PathBuf,
        memory: MemoryTrackerHandle,
    ) -> Self {
        let left = SideBuffer::new(left_arity, op.key_left.clone());
        let right = SideBuffer::new(right_arity, op.key_right.clone());
        HashJoiner {
            op,
            left,
            right,
            spill_threshold_bytes: spill_threshold_bytes.max(1024),
            spill_dir,
            spill_counter: 0,
            memory,
            shipped: vec![false; NUM_PARTITIONS],
        }
    }

    /// Ships one not-yet-shipped partition out of a pending (unsealed)
    /// joiner, highest index first. Only sound once no further input can
    /// arrive for this join — the thief's steal request implies global
    /// end-of-stream for both producers. Partitions empty on either side are
    /// skipped (they produce nothing and are cheaper discarded locally).
    ///
    /// The returned rows *keep* their memory-tracker charge: in-memory bytes
    /// stay charged and spilled bytes are newly charged as they are read
    /// back, so the charge travels with the partition and is only released
    /// when the thief acknowledges adoption (allocate-before-release, as in
    /// `SharedQueue::steal_into`).
    pub fn take_unprobed_partition(&mut self) -> Result<Option<TakenPartition>> {
        for p in (0..NUM_PARTITIONS).rev() {
            if self.shipped[p] || !side_has_rows(&self.left, p) || !side_has_rows(&self.right, p) {
                continue;
            }
            let left = take_side_rows(&mut self.left, p, &self.memory)?;
            let right = take_side_rows(&mut self.right, p, &self.memory)?;
            self.shipped[p] = true;
            return Ok(Some((p, left, right)));
        }
        Ok(None)
    }

    /// Arity of the joined output rows.
    pub fn output_arity(&self) -> usize {
        self.left.arity + self.op.right_payload.len()
    }

    /// Adds an input batch to one side.
    pub fn add(&mut self, side: JoinSide, batch: &RowBatch) -> Result<()> {
        let spill_dir = self.spill_dir.clone();
        let threshold = self.spill_threshold_bytes;
        let (buffer, tag) = match side {
            JoinSide::Left => (&mut self.left, "l"),
            JoinSide::Right => (&mut self.right, "r"),
        };
        debug_assert_eq!(batch.arity(), buffer.arity);
        for row in batch.rows() {
            let p = (key_hash(row, &buffer.key_positions) as usize) % NUM_PARTITIONS;
            let part = &mut buffer.partitions[p];
            part.rows_in_memory.extend_from_slice(row);
            let bytes = std::mem::size_of_val(row) as u64;
            part.memory_bytes += bytes;
            buffer.buffered_bytes += bytes;
            self.memory.allocate(bytes);
        }
        // Spill the largest partitions while the buffer exceeds the threshold.
        while buffer.buffered_bytes > threshold {
            let victim = buffer
                .partitions
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| p.memory_bytes)
                .map(|(i, _)| i)
                .expect("partitions exist");
            let part = &mut buffer.partitions[victim];
            if part.rows_in_memory.is_empty() {
                break;
            }
            let bytes = spill_partition(part, &spill_dir, tag, victim, &mut self.spill_counter)?;
            buffer.buffered_bytes -= bytes;
            self.memory.release(bytes);
        }
        Ok(())
    }

    /// Flushes every in-memory partition of both sides to disk — the memory
    /// governor's spill actuator. Rows are appended to the partitions' spill
    /// files and re-loaded lazily when the join is streamed, so results are
    /// unchanged; only the tracked resident bytes drop. Returns the bytes
    /// released.
    pub fn spill_to_disk(&mut self) -> Result<u64> {
        let dir = self.spill_dir.clone();
        let mut total = spill_side(&mut self.left, &dir, "l", &mut self.spill_counter)?;
        total += spill_side(&mut self.right, &dir, "r", &mut self.spill_counter)?;
        self.memory.release(total);
        Ok(total)
    }

    /// Total bytes currently buffered in memory (both sides).
    pub fn buffered_bytes(&self) -> u64 {
        self.left.buffered_bytes + self.right.buffered_bytes
    }

    /// `true` if any partition spilled to disk.
    pub fn spilled(&self) -> bool {
        self.left
            .partitions
            .iter()
            .chain(self.right.partitions.iter())
            .any(|p| p.spill_file.is_some())
    }

    /// Seals both inputs and converts the joiner into a lazily-driven
    /// [`JoinStream`]. Partitions are loaded one at a time as the stream is
    /// polled, so the consumer controls the pace (and the memory).
    pub fn into_stream(mut self, batch_rows: usize) -> JoinStream {
        let op = std::mem::replace(
            &mut self.op,
            JoinOp {
                left: 0,
                right: 0,
                key_left: Vec::new(),
                key_right: Vec::new(),
                right_payload: Vec::new(),
                filters: Vec::new(),
            },
        );
        let left = std::mem::replace(&mut self.left, SideBuffer::new(0, Vec::new()));
        let right = std::mem::replace(&mut self.right, SideBuffer::new(0, Vec::new()));
        let memory = self.memory.clone();
        let out_arity = left.arity + op.right_payload.len();
        let states = self
            .shipped
            .iter()
            .map(|&s| {
                if s {
                    PartitionState::Shipped
                } else {
                    PartitionState::Sealed
                }
            })
            .collect();
        JoinStream {
            op,
            left,
            right,
            memory,
            batch_rows: batch_rows.max(1),
            out_arity,
            partition: 0,
            current: None,
            produced: 0,
            spill_dir: self.spill_dir.clone(),
            spill_counter: self.spill_counter,
            states,
            adopted: std::collections::VecDeque::new(),
            cancel: None,
        }
    }

    /// Finishes the join eagerly: processes every partition and invokes
    /// `emit` with output batches of at most `batch_rows` rows. Returns the
    /// number of joined rows. (A convenience wrapper over
    /// [`HashJoiner::into_stream`].)
    pub fn finish(self, batch_rows: usize, mut emit: impl FnMut(ColBatch)) -> Result<u64> {
        let mut stream = self.into_stream(batch_rows);
        while let Some(batch) = stream.next_batch()? {
            emit(batch);
        }
        Ok(stream.produced())
    }
}

impl Drop for HashJoiner {
    fn drop(&mut self) {
        // Balance the tracker if the joiner is dropped before streaming
        // (spill files are removed by the partitions' own `Drop`).
        self.memory
            .release(self.left.buffered_bytes + self.right.buffered_bytes);
        self.left.buffered_bytes = 0;
        self.right.buffered_bytes = 0;
    }
}

/// Probe state of the one partition currently loaded in memory.
///
/// The right-side table maps each packed join key to a `(start, end)` range
/// of `order` (a CSR layout grouping right-row indices by key), so the probe
/// loop performs no per-row heap allocation — keys pack into a `u128` and
/// candidate lists are slices of one shared index vector. This matters
/// beyond single-probe speed: stolen partitions are probed *concurrently* by
/// several machine threads, and per-row allocation serialises them on the
/// global allocator.
struct PartitionProbe {
    left_rows: Vec<VertexId>,
    right_rows: Vec<VertexId>,
    /// Packed join key -> `(start, end)` range into `order`.
    table: std::collections::HashMap<u128, (u32, u32)>,
    /// Right-row indices grouped by join key (CSR payload for `table`).
    order: Vec<u32>,
    /// Keys wider than [`PACK_MAX_KEY`] columns are FNV-hashed into the
    /// `u128` instead of packed exactly; candidates then re-check key
    /// equality column-by-column during the probe.
    verify_keys: bool,
    /// Index of the left row being probed.
    probe: usize,
    /// Cursor into the current left row's candidate range of `order`.
    match_pos: u32,
    /// End of the current left row's candidate range of `order`.
    match_end: u32,
    /// Bytes of the loaded rows, charged to the tracker while resident.
    loaded_bytes: u64,
    /// Local partition index (`None` for partitions adopted from a peer).
    index: Option<usize>,
}

/// A partition shipped from a peer, queued for probing. Its `bytes` were
/// charged to this machine's tracker on receipt; the stream releases them
/// when the probe completes (or on `Drop`).
struct AdoptedPartition {
    left_rows: Vec<VertexId>,
    right_rows: Vec<VertexId>,
    bytes: u64,
}

/// The sealed join, driven lazily one output batch at a time.
///
/// At any moment at most one Grace partition is resident in memory; spill
/// files are deleted as their partitions are consumed (and by `Drop` if the
/// stream is abandoned early).
pub struct JoinStream {
    op: JoinOp,
    left: SideBuffer,
    right: SideBuffer,
    memory: MemoryTrackerHandle,
    batch_rows: usize,
    out_arity: usize,
    partition: usize,
    current: Option<PartitionProbe>,
    produced: u64,
    spill_dir: PathBuf,
    spill_counter: usize,
    /// Lifecycle of each local Grace partition.
    states: Vec<PartitionState>,
    /// Partitions adopted from peers, probed after the local ones.
    adopted: std::collections::VecDeque<AdoptedPartition>,
    /// The run's cancellation token, polled per output batch so a cancel
    /// lands mid-probe instead of after the whole join drains.
    cancel: Option<crate::cancel::CancelToken>,
}

impl JoinStream {
    /// Arity of the joined output rows.
    pub fn output_arity(&self) -> usize {
        self.out_arity
    }

    /// Joined rows emitted so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// `true` once every local partition and every adopted partition has
    /// been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.current.is_none() && self.partition >= NUM_PARTITIONS && self.adopted.is_empty()
    }

    /// Lifecycle states of the local Grace partitions.
    pub fn partition_states(&self) -> &[PartitionState] {
        &self.states
    }

    /// Ships one sealed-but-unprobed partition, highest index first (the
    /// probe cursor walks upward, so the highest sealed partition is the
    /// farthest from being reached — the same take-from-the-back policy as
    /// `SharedQueue::steal_into`). Partitions empty on either side are
    /// skipped. The rows keep their tracker charge; see
    /// [`HashJoiner::take_unprobed_partition`] for the hand-off discipline.
    pub fn take_unprobed_partition(&mut self) -> Result<Option<TakenPartition>> {
        for p in (self.partition..NUM_PARTITIONS).rev() {
            if self.states[p] != PartitionState::Sealed
                || !side_has_rows(&self.left, p)
                || !side_has_rows(&self.right, p)
            {
                continue;
            }
            let left = take_side_rows(&mut self.left, p, &self.memory)?;
            let right = take_side_rows(&mut self.right, p, &self.memory)?;
            self.states[p] = PartitionState::Shipped;
            return Ok(Some((p, left, right)));
        }
        Ok(None)
    }

    /// Adopts a partition shipped from a peer. The caller has already
    /// charged the partition's bytes to this machine's tracker (on receipt,
    /// before the shipper releases its side — allocate-before-release); the
    /// stream releases the charge when the adopted probe completes.
    pub fn adopt_partition(&mut self, left_rows: Vec<VertexId>, right_rows: Vec<VertexId>) {
        let bytes = ((left_rows.len() + right_rows.len()) * std::mem::size_of::<VertexId>()) as u64;
        self.adopted.push_back(AdoptedPartition {
            left_rows,
            right_rows,
            bytes,
        });
    }

    /// Bytes of not-yet-loaded partitions still resident in memory.
    pub fn buffered_bytes(&self) -> u64 {
        self.left.buffered_bytes + self.right.buffered_bytes
    }

    /// Flushes every not-yet-loaded in-memory partition to disk — the memory
    /// governor's spill actuator on a *sealed* join. The partition currently
    /// being probed stays resident (it is the working set);
    /// [`JoinStream::next_batch`] lazily re-loads spilled partitions exactly
    /// as it loads naturally-spilled ones. Returns the bytes released.
    pub fn spill_to_disk(&mut self) -> Result<u64> {
        let dir = self.spill_dir.clone();
        let mut total = spill_side(&mut self.left, &dir, "l", &mut self.spill_counter)?;
        total += spill_side(&mut self.right, &dir, "r", &mut self.spill_counter)?;
        self.memory.release(total);
        Ok(total)
    }

    /// Installs the run's cancellation token: every
    /// [`JoinStream::next_batch`] and [`JoinStream::next_count`] call polls
    /// it first, so a cancel unwinds mid-probe (the stream's `Drop` balances
    /// charges and spill files).
    pub fn set_cancel(&mut self, cancel: crate::cancel::CancelToken) {
        self.cancel = Some(cancel);
    }

    /// Produces the next output batch (at most `batch_rows` rows), or `None`
    /// when the join is exhausted.
    pub fn next_batch(&mut self) -> Result<Option<ColBatch>> {
        self.check_cancel()?;
        let mut out = ColBatch::with_capacity(self.out_arity, self.batch_rows.min(64 * 1024));
        while self.ensure_probe()? {
            self.probe_current(&mut ProbeSink::Materialise(&mut out));
            if !out.is_empty() {
                self.produced += out.len() as u64;
                return Ok(Some(out));
            }
            // The partition produced nothing (no key overlap): move on.
        }
        Ok(None)
    }

    /// The count-sink twin of [`JoinStream::next_batch`]: probes at most
    /// `batch_rows` candidate pairs and returns how many of them join, or
    /// `None` when the join is exhausted. No joined row is written.
    pub fn next_count(&mut self) -> Result<Option<u64>> {
        self.check_cancel()?;
        if !self.ensure_probe()? {
            return Ok(None);
        }
        let mut counted = 0u64;
        self.probe_current(&mut ProbeSink::Count(&mut counted));
        self.produced += counted;
        Ok(Some(counted))
    }

    fn check_cancel(&self) -> Result<()> {
        match &self.cancel {
            Some(cancel) => cancel.check(),
            None => Ok(()),
        }
    }

    /// Makes a partition resident for probing unless one already is: the
    /// next local partition, then the adopted (stolen) ones. Returns `false`
    /// once nothing is left to probe.
    fn ensure_probe(&mut self) -> Result<bool> {
        while self.current.is_none() {
            if self.partition >= NUM_PARTITIONS {
                // Local partitions done: probe adopted (stolen) ones. Their
                // bytes were charged on receipt, not here.
                let Some(a) = self.adopted.pop_front() else {
                    return Ok(false);
                };
                self.current = Some(self.build_probe(a.left_rows, a.right_rows, a.bytes, None));
                continue;
            }
            let p = self.partition;
            self.partition += 1;
            if self.states[p] == PartitionState::Shipped {
                // A thief owns this partition now.
                continue;
            }
            let left_rows = load_partition(&mut self.left, p, &self.memory)?;
            if left_rows.is_empty() {
                // Nothing to probe with: unlink the right side's buffer and
                // spill file without reading it back.
                discard_partition(&mut self.right, p, &self.memory);
                self.states[p] = PartitionState::Done;
                continue;
            }
            let right_rows = load_partition(&mut self.right, p, &self.memory)?;
            if right_rows.is_empty() {
                self.states[p] = PartitionState::Done;
                continue;
            }
            let loaded_bytes =
                ((left_rows.len() + right_rows.len()) * std::mem::size_of::<VertexId>()) as u64;
            self.memory.allocate(loaded_bytes);
            self.states[p] = PartitionState::Probing;
            self.current = Some(self.build_probe(left_rows, right_rows, loaded_bytes, Some(p)));
        }
        Ok(true)
    }

    /// Probes the resident partition into `sink`, releasing the partition
    /// once it is exhausted.
    fn probe_current(&mut self, sink: &mut ProbeSink<'_>) {
        if self.fill_from_current(sink) {
            let probe = self.current.take().expect("current probe exists");
            self.memory.release(probe.loaded_bytes);
            if let Some(p) = probe.index {
                self.states[p] = PartitionState::Done;
            }
        }
    }

    /// Builds the probe state for one partition: a hash table over the
    /// right rows (the build side), probed by the left rows. The left's
    /// columns form the output prefix either way. The table is built in two
    /// counting passes into a CSR layout — no per-key index vectors.
    fn build_probe(
        &self,
        left_rows: Vec<VertexId>,
        right_rows: Vec<VertexId>,
        loaded_bytes: u64,
        index: Option<usize>,
    ) -> PartitionProbe {
        let arity = self.right.arity.max(1);
        let n_rows = right_rows.len() / arity;
        let mut table: std::collections::HashMap<u128, (u32, u32)> =
            std::collections::HashMap::new();
        for row in right_rows.chunks_exact(arity) {
            let key = pack_key(row, &self.op.key_right);
            table.entry(key).or_insert((0, 0)).1 += 1;
        }
        // Turn per-key counts into `order` offsets: each entry becomes
        // (start, cursor); the placement pass advances the cursor to the
        // range's end.
        let mut offset = 0u32;
        for range in table.values_mut() {
            let count = range.1;
            *range = (offset, offset);
            offset += count;
        }
        let mut order = vec![0u32; n_rows];
        for (idx, row) in right_rows.chunks_exact(arity).enumerate() {
            let key = pack_key(row, &self.op.key_right);
            let range = table.get_mut(&key).expect("key counted in first pass");
            order[range.1 as usize] = idx as u32;
            range.1 += 1;
        }
        PartitionProbe {
            left_rows,
            right_rows,
            table,
            order,
            verify_keys: self.op.key_right.len() > PACK_MAX_KEY,
            probe: 0,
            match_pos: 0,
            match_end: 0,
            loaded_bytes,
            index,
        }
    }

    /// Probes the current partition until `sink` is full (see
    /// [`ProbeSink::is_full`]) or the partition is exhausted. Returns `true`
    /// when the partition is exhausted.
    ///
    /// Key verification, cross-side injectivity and the order filters read
    /// `lrow`/`rrow` in place, so the joined row is assembled only for pairs
    /// that survive them, and only when materialising.
    fn fill_from_current(&mut self, sink: &mut ProbeSink<'_>) -> bool {
        let probe = self.current.as_mut().expect("current probe exists");
        let op = &self.op;
        let left_arity = self.left.arity;
        let right_arity = self.right.arity;
        let left_len = probe.left_rows.len() / left_arity.max(1);
        let mut joined: Vec<VertexId> = Vec::new();
        let mut examined = 0usize;
        while !sink.is_full(examined, self.batch_rows) {
            if probe.match_pos == probe.match_end {
                // Advance to the next left row with candidate matches.
                loop {
                    if probe.probe >= left_len {
                        return true;
                    }
                    let lrow =
                        &probe.left_rows[probe.probe * left_arity..(probe.probe + 1) * left_arity];
                    let key = pack_key(lrow, &op.key_left);
                    if let Some(&(start, end)) = probe.table.get(&key) {
                        probe.match_pos = start;
                        probe.match_end = end;
                        break;
                    }
                    probe.probe += 1;
                }
            }
            let lrow = &probe.left_rows[probe.probe * left_arity..(probe.probe + 1) * left_arity];
            while probe.match_pos < probe.match_end && !sink.is_full(examined, self.batch_rows) {
                let ridx = probe.order[probe.match_pos as usize] as usize;
                probe.match_pos += 1;
                examined += 1;
                let rrow = &probe.right_rows[ridx * right_arity..(ridx + 1) * right_arity];
                // Hash-packed (wide) keys can collide: re-check equality.
                if probe.verify_keys
                    && !op
                        .key_left
                        .iter()
                        .zip(&op.key_right)
                        .all(|(&lpos, &rpos)| lrow[lpos] == rrow[rpos])
                {
                    continue;
                }
                // Cross-side injectivity: appended payload vertices must not
                // collide with any left-bound vertex.
                if op
                    .right_payload
                    .iter()
                    .any(|&pos| lrow.contains(&rrow[pos]))
                {
                    continue;
                }
                let passes = op.filters.iter().all(|f| {
                    joined_value(lrow, rrow, &op.right_payload, f.smaller)
                        < joined_value(lrow, rrow, &op.right_payload, f.larger)
                });
                if !passes {
                    continue;
                }
                match sink {
                    ProbeSink::Materialise(out) => {
                        joined.clear();
                        joined.extend_from_slice(lrow);
                        joined.extend(op.right_payload.iter().map(|&pos| rrow[pos]));
                        out.push_row(&joined);
                    }
                    ProbeSink::Count(counted) => **counted += 1,
                }
            }
            if probe.match_pos == probe.match_end {
                probe.probe += 1;
            }
        }
        false
    }
}

/// Where a probe's surviving (left row, right row) pairs go: joined rows
/// into an output batch, or a counter — the count-sink fast path, which
/// writes no joined rows at all.
enum ProbeSink<'a> {
    Materialise(&'a mut ColBatch),
    Count(&'a mut u64),
}

impl ProbeSink<'_> {
    /// `true` once one poll's share of probing is done: a full output batch
    /// when materialising, `batch_rows` examined candidate pairs when
    /// counting (so a count poll keeps the per-batch cadence of cancel
    /// checks, steal servicing and governor ticks).
    #[inline]
    fn is_full(&self, examined: usize, batch_rows: usize) -> bool {
        match self {
            ProbeSink::Materialise(out) => out.len() >= batch_rows,
            ProbeSink::Count(_) => examined >= batch_rows,
        }
    }
}

/// The value at position `pos` of the joined row `lrow ++ rrow[payload]`,
/// read without assembling the row.
#[inline]
fn joined_value(lrow: &[VertexId], rrow: &[VertexId], payload: &[usize], pos: usize) -> VertexId {
    match lrow.get(pos) {
        Some(&v) => v,
        None => rrow[payload[pos - lrow.len()]],
    }
}

impl Drop for JoinStream {
    fn drop(&mut self) {
        // Balance the tracker for anything still buffered or loaded (spill
        // files are removed by the partitions' own `Drop`).
        self.memory
            .release(self.left.buffered_bytes + self.right.buffered_bytes);
        self.left.buffered_bytes = 0;
        self.right.buffered_bytes = 0;
        if let Some(probe) = self.current.take() {
            self.memory.release(probe.loaded_bytes);
        }
        for adopted in self.adopted.drain(..) {
            self.memory.release(adopted.bytes);
        }
    }
}

/// Appends one partition's in-memory rows to its spill file (creating the
/// file on first spill). Returns the in-memory bytes flushed; the caller is
/// responsible for adjusting the side's `buffered_bytes` and the memory
/// tracker (so the helper composes with both the threshold spill in
/// [`HashJoiner::add`] and the governor-driven full spills).
fn spill_partition(
    part: &mut SidePartition,
    spill_dir: &Path,
    tag: &str,
    index: usize,
    counter: &mut usize,
) -> Result<u64> {
    if part.rows_in_memory.is_empty() {
        return Ok(0);
    }
    // The first spill creates the file and must be its only creator: a name
    // collision (another joiner sharing the directory) is an error, not
    // silently interleaved rows. Later spills append.
    let file = match &part.spill_file {
        Some(path) => OpenOptions::new().append(true).open(path)?,
        None => {
            *counter += 1;
            let path = spill_dir.join(format!("join-{tag}-{index}-{counter}.spill"));
            std::fs::create_dir_all(spill_dir)?;
            let file = OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)?;
            part.spill_file = Some(path);
            file
        }
    };
    let mut w = BufWriter::new(file);
    w.write_all(&encode_rows(&part.rows_in_memory))?;
    w.flush()?;
    part.spilled_values += part.rows_in_memory.len() as u64;
    let bytes = part.memory_bytes;
    part.memory_bytes = 0;
    // Drop the allocation too (not just the length): a spill exists to make
    // the resident footprint actually shrink.
    part.rows_in_memory = Vec::new();
    Ok(bytes)
}

/// Spills every in-memory partition of one side, adjusting the side's
/// buffered-byte count. Returns the total bytes flushed (the caller releases
/// them from the memory tracker).
fn spill_side(
    side: &mut SideBuffer,
    spill_dir: &Path,
    tag: &str,
    counter: &mut usize,
) -> Result<u64> {
    let mut total = 0u64;
    for index in 0..side.partitions.len() {
        let bytes = spill_partition(&mut side.partitions[index], spill_dir, tag, index, counter)?;
        side.buffered_bytes -= bytes;
        total += bytes;
    }
    Ok(total)
}

/// Drops one partition of one side without reading it back: releases its
/// in-memory rows and unlinks its spill file (used when the opposite side's
/// partition is empty, so the join cannot produce anything from it).
fn discard_partition(side: &mut SideBuffer, p: usize, memory: &MemoryTrackerHandle) {
    let part = &mut side.partitions[p];
    part.rows_in_memory = Vec::new();
    side.buffered_bytes -= part.memory_bytes;
    memory.release(part.memory_bytes);
    part.memory_bytes = 0;
    if let Some(path) = part.spill_file.take() {
        let _ = std::fs::remove_file(path);
    }
}

/// Loads one partition of one side back into memory (in-memory rows plus any
/// spilled rows); the spill file, if any, is deleted afterwards.
fn load_partition(
    side: &mut SideBuffer,
    p: usize,
    memory: &MemoryTrackerHandle,
) -> Result<Vec<VertexId>> {
    let part = &mut side.partitions[p];
    let mut rows = std::mem::take(&mut part.rows_in_memory);
    side.buffered_bytes -= part.memory_bytes;
    memory.release(part.memory_bytes);
    part.memory_bytes = 0;
    if let Some(path) = part.spill_file.take() {
        rows.extend(decode_rows(&std::fs::read(&path)?));
        let _ = std::fs::remove_file(&path);
    }
    Ok(rows)
}

/// `true` when one partition of one side holds any rows (in memory or
/// spilled) — i.e. shipping it would move real work.
fn side_has_rows(side: &SideBuffer, p: usize) -> bool {
    let part = &side.partitions[p];
    !part.rows_in_memory.is_empty() || part.spill_file.is_some()
}

/// Extracts one partition of one side for shipping, *keeping* its memory
/// charge: in-memory rows stay charged to the tracker (ownership of the
/// charge moves to the shipper's pending-ship ledger) and spilled rows are
/// newly charged as they come back from disk. Combined with the thief
/// charging on receipt before the shipper releases on ack, the cluster-wide
/// tracked sum can transiently over-count but never under-count during a
/// hand-off — the same discipline as `SharedQueue::steal_into`.
fn take_side_rows(
    side: &mut SideBuffer,
    p: usize,
    memory: &MemoryTrackerHandle,
) -> Result<Vec<VertexId>> {
    let part = &mut side.partitions[p];
    let mut rows = std::mem::take(&mut part.rows_in_memory);
    side.buffered_bytes -= part.memory_bytes;
    part.memory_bytes = 0;
    if let Some(path) = part.spill_file.take() {
        let from_disk = decode_rows(&std::fs::read(&path)?);
        memory.allocate((from_disk.len() * std::mem::size_of::<VertexId>()) as u64);
        rows.extend(from_disk);
        let _ = std::fs::remove_file(&path);
        part.spilled_values = 0;
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_plan::translate::OrderFilter;

    /// One test's spill directory, removed with everything under it on
    /// drop. Tests run in parallel, so none may share a directory, and each
    /// joiner of a test gets a subdirectory of its own ([`TestDir::fresh`]).
    struct TestDir {
        root: PathBuf,
        next: std::cell::Cell<usize>,
    }

    impl TestDir {
        fn new() -> Self {
            static NEXT_TEST: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let test = NEXT_TEST.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let root =
                std::env::temp_dir().join(format!("huge-join-test-{}-{test}", std::process::id()));
            TestDir {
                root,
                next: std::cell::Cell::new(0),
            }
        }

        /// A directory no other joiner uses.
        fn fresh(&self) -> PathBuf {
            let n = self.next.get();
            self.next.set(n + 1);
            self.root.join(format!("joiner-{n}"))
        }

        /// Files left anywhere under the test's directory.
        fn files(&self) -> u64 {
            crate::cluster::count_files_under(&self.root)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }

    fn simple_op() -> JoinOp {
        // Left schema: [a, b]; right schema: [a, c]; join on column 0 = a,
        // output [a, b, c].
        JoinOp {
            left: 0,
            right: 1,
            key_left: vec![0],
            key_right: vec![0],
            right_payload: vec![1],
            filters: vec![],
        }
    }

    fn batch2(rows: &[[u32; 2]]) -> RowBatch {
        let mut b = RowBatch::new(2);
        for r in rows {
            b.push_row(r);
        }
        b
    }

    #[test]
    fn joins_matching_keys() {
        let dir = TestDir::new();
        let mut joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1 << 20,
            dir.fresh(),
            MemoryTrackerHandle::Untracked,
        );
        joiner
            .add(JoinSide::Left, &batch2(&[[1, 10], [2, 20], [3, 30]]))
            .unwrap();
        joiner
            .add(
                JoinSide::Right,
                &batch2(&[[1, 100], [1, 101], [3, 300], [4, 400]]),
            )
            .unwrap();
        let mut rows: Vec<Vec<u32>> = Vec::new();
        let produced = joiner
            .finish(1024, |b| {
                rows.extend(b.to_rows().rows().map(|r| r.to_vec()))
            })
            .unwrap();
        assert_eq!(produced, 3);
        rows.sort();
        assert_eq!(
            rows,
            vec![vec![1, 10, 100], vec![1, 10, 101], vec![3, 30, 300]]
        );
    }

    #[test]
    fn cross_side_injectivity_is_enforced() {
        let dir = TestDir::new();
        let mut joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1 << 20,
            dir.fresh(),
            MemoryTrackerHandle::Untracked,
        );
        // Right payload value 10 collides with the left's bound vertex 10.
        joiner.add(JoinSide::Left, &batch2(&[[1, 10]])).unwrap();
        joiner
            .add(JoinSide::Right, &batch2(&[[1, 10], [1, 11]]))
            .unwrap();
        let mut count = 0;
        joiner.finish(16, |b| count += b.len()).unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn order_filters_apply_to_joined_rows() {
        let dir = TestDir::new();
        let mut op = simple_op();
        // Require output[1] < output[2], i.e. b < c.
        op.filters = vec![OrderFilter {
            smaller: 1,
            larger: 2,
        }];
        let mut joiner = HashJoiner::new(
            op,
            2,
            2,
            1 << 20,
            dir.fresh(),
            MemoryTrackerHandle::Untracked,
        );
        joiner.add(JoinSide::Left, &batch2(&[[1, 50]])).unwrap();
        joiner
            .add(JoinSide::Right, &batch2(&[[1, 10], [1, 90]]))
            .unwrap();
        let mut rows = Vec::new();
        joiner
            .finish(16, |b| rows.extend(b.to_rows().rows().map(|r| r.to_vec())))
            .unwrap();
        assert_eq!(rows, vec![vec![1, 50, 90]]);
    }

    #[test]
    fn spilling_preserves_results() {
        let dir = TestDir::new();
        // A tiny threshold forces every partition to spill.
        let mut joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1024,
            dir.fresh(),
            MemoryTrackerHandle::Untracked,
        );
        let n = 2000u32;
        let left: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 10_000]).collect();
        let right: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 20_000]).collect();
        for chunk in left.chunks(100) {
            joiner.add(JoinSide::Left, &batch2(chunk)).unwrap();
        }
        for chunk in right.chunks(100) {
            joiner.add(JoinSide::Right, &batch2(chunk)).unwrap();
        }
        assert!(joiner.spilled());
        assert!(joiner.buffered_bytes() <= 4 * 1024);
        let mut count = 0u64;
        let produced = joiner.finish(256, |b| count += b.len() as u64).unwrap();
        assert_eq!(produced, n as u64);
        assert_eq!(count, n as u64);
    }

    #[test]
    fn multi_column_keys() {
        let dir = TestDir::new();
        // Left schema [a, b, x]; right schema [a, b, y]; join on (a, b).
        let op = JoinOp {
            left: 0,
            right: 1,
            key_left: vec![0, 1],
            key_right: vec![0, 1],
            right_payload: vec![2],
            filters: vec![],
        };
        let mut joiner = HashJoiner::new(
            op,
            3,
            3,
            1 << 20,
            dir.fresh(),
            MemoryTrackerHandle::Untracked,
        );
        let mut l = RowBatch::new(3);
        l.push_row(&[1, 2, 7]);
        l.push_row(&[1, 3, 8]);
        let mut r = RowBatch::new(3);
        r.push_row(&[1, 2, 9]);
        r.push_row(&[2, 2, 9]);
        joiner.add(JoinSide::Left, &l).unwrap();
        joiner.add(JoinSide::Right, &r).unwrap();
        let mut rows = Vec::new();
        joiner
            .finish(16, |b| rows.extend(b.to_rows().rows().map(|x| x.to_vec())))
            .unwrap();
        assert_eq!(rows, vec![vec![1, 2, 7, 9]]);
    }

    #[test]
    fn governor_spill_hook_preserves_results_and_releases_memory() {
        let dir = TestDir::new();
        let tracker = std::sync::Arc::new(MemoryTracker::new());
        let mut joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1 << 20,
            dir.fresh(),
            MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
        );
        let n = 500u32;
        let left: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 10_000]).collect();
        let right: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 20_000]).collect();
        joiner.add(JoinSide::Left, &batch2(&left)).unwrap();
        joiner.add(JoinSide::Right, &batch2(&right)).unwrap();
        assert!(tracker.current() > 0);
        // Force everything to disk (the buffer is far below the threshold,
        // so nothing spilled naturally).
        let spilled = joiner.spill_to_disk().unwrap();
        assert_eq!(spilled, u64::from(n) * 2 * 2 * 4);
        assert_eq!(joiner.buffered_bytes(), 0);
        assert_eq!(tracker.current(), 0);
        assert!(joiner.spilled());
        // A second spill is a no-op.
        assert_eq!(joiner.spill_to_disk().unwrap(), 0);
        // The spilled rows are lazily re-loaded and joined as usual.
        let mut count = 0u64;
        let produced = joiner.finish(128, |b| count += b.len() as u64).unwrap();
        assert_eq!(produced, u64::from(n));
        assert_eq!(count, u64::from(n));
        assert_eq!(tracker.current(), 0);
    }

    #[test]
    fn sealed_stream_spill_hook_preserves_results() {
        let dir = TestDir::new();
        let tracker = std::sync::Arc::new(MemoryTracker::new());
        let mut joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1 << 20,
            dir.fresh(),
            MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
        );
        let n = 400u32;
        let left: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 10_000]).collect();
        let right: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 20_000]).collect();
        joiner.add(JoinSide::Left, &batch2(&left)).unwrap();
        joiner.add(JoinSide::Right, &batch2(&right)).unwrap();
        let mut stream = joiner.into_stream(64);
        // Consume one batch so one partition is resident, then spill the
        // sealed remainder mid-stream.
        let first = stream.next_batch().unwrap().unwrap();
        assert!(!first.is_empty());
        let before = stream.buffered_bytes();
        assert!(before > 0);
        let spilled = stream.spill_to_disk().unwrap();
        assert!(spilled > 0);
        assert_eq!(stream.buffered_bytes(), 0);
        let mut count = first.len() as u64;
        while let Some(batch) = stream.next_batch().unwrap() {
            count += batch.len() as u64;
        }
        assert_eq!(count, u64::from(n));
        drop(stream);
        assert_eq!(tracker.current(), 0);
    }

    #[test]
    fn spill_ship_reload_round_trip_is_bit_for_bit() {
        let dir = TestDir::new();
        // The same partition taken from a fully-spilled joiner and from an
        // all-in-memory joiner must encode to identical bytes: the ship
        // encoding *is* the spill encoding.
        let n = 600u32;
        let left: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 10_000]).collect();
        let right: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 20_000]).collect();
        let build = |threshold: u64| {
            let mut joiner = HashJoiner::new(
                simple_op(),
                2,
                2,
                threshold,
                dir.fresh(),
                MemoryTrackerHandle::Untracked,
            );
            joiner.add(JoinSide::Left, &batch2(&left)).unwrap();
            joiner.add(JoinSide::Right, &batch2(&right)).unwrap();
            joiner
        };
        let mut spilled = build(1024);
        spilled.spill_to_disk().unwrap();
        assert!(spilled.spilled());
        let mut resident = build(1 << 20);
        assert!(!resident.spilled());
        let (p_spilled, l_spilled, r_spilled) = spilled
            .take_unprobed_partition()
            .unwrap()
            .expect("spilled joiner has a shippable partition");
        let (p_resident, l_resident, r_resident) = resident
            .take_unprobed_partition()
            .unwrap()
            .expect("resident joiner has a shippable partition");
        assert_eq!(p_spilled, p_resident);
        assert_eq!(encode_rows(&l_spilled), encode_rows(&l_resident));
        assert_eq!(encode_rows(&r_spilled), encode_rows(&r_resident));
        // And the encoding round-trips exactly.
        assert_eq!(decode_rows(&encode_rows(&l_spilled)), l_spilled);
        assert_eq!(decode_rows(&encode_rows(&r_spilled)), r_spilled);
    }

    #[test]
    fn shipped_partitions_join_to_the_same_rows_elsewhere() {
        let dir = TestDir::new();
        // Splitting a join between a shipper stream and an adopter stream
        // produces exactly the rows of the unsplit join, and the memory
        // charge that travels with the shipped partitions balances out.
        let n = 800u32;
        let left: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 10_000]).collect();
        let right: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 20_000]).collect();
        let tracker = std::sync::Arc::new(MemoryTracker::new());
        let build = |tracked: bool| {
            let mut joiner = HashJoiner::new(
                simple_op(),
                2,
                2,
                1 << 20,
                dir.fresh(),
                if tracked {
                    MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker))
                } else {
                    MemoryTrackerHandle::Untracked
                },
            );
            joiner.add(JoinSide::Left, &batch2(&left)).unwrap();
            joiner.add(JoinSide::Right, &batch2(&right)).unwrap();
            joiner
        };
        let mut reference_rows: Vec<Vec<u32>> = Vec::new();
        build(false)
            .finish(128, |b| {
                reference_rows.extend(b.to_rows().rows().map(|r| r.to_vec()))
            })
            .unwrap();

        let mut shipper = build(true).into_stream(128);
        // An "adopter" on the same tracker: an empty build of the same op.
        let adopter_joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1 << 20,
            dir.fresh(),
            MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
        );
        let mut adopter = adopter_joiner.into_stream(128);
        let mut shipped = 0;
        while let Some((p, l, r)) = shipper.take_unprobed_partition().unwrap() {
            assert_eq!(shipper.partition_states()[p], PartitionState::Shipped);
            // Ship through the wire encoding, as the router does.
            let (wire_l, wire_r) = (encode_rows(&l), encode_rows(&r));
            adopter.adopt_partition(decode_rows(&wire_l), decode_rows(&wire_r));
            shipped += 1;
            if shipped == 2 {
                break;
            }
        }
        assert_eq!(shipped, 2);
        let mut split_rows: Vec<Vec<u32>> = Vec::new();
        for stream in [&mut shipper, &mut adopter] {
            while let Some(b) = stream.next_batch().unwrap() {
                split_rows.extend(b.to_rows().rows().map(|r| r.to_vec()));
            }
            assert!(stream.is_exhausted());
        }
        reference_rows.sort();
        split_rows.sort();
        assert_eq!(split_rows, reference_rows);
        drop(shipper);
        drop(adopter);
        // Charges transferred with the partitions and were released by the
        // adopter's probes: the shared tracker balances to zero.
        assert_eq!(tracker.current(), 0);
    }

    #[test]
    fn memory_tracking_is_released_after_finish() {
        let dir = TestDir::new();
        let tracker = std::sync::Arc::new(MemoryTracker::new());
        let mut joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1 << 20,
            dir.fresh(),
            MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
        );
        joiner
            .add(JoinSide::Left, &batch2(&[[1, 2], [3, 4]]))
            .unwrap();
        joiner.add(JoinSide::Right, &batch2(&[[1, 5]])).unwrap();
        assert!(tracker.current() > 0);
        joiner.finish(16, |_| {}).unwrap();
        assert_eq!(tracker.current(), 0);
        assert!(tracker.peak() > 0);
    }

    /// A small deterministic LCG for test data.
    fn lcg(state: &mut u64) -> u32 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*state >> 33) as u32
    }

    /// Rows of `arity` columns with values below `domain`: a small domain
    /// makes key matches, payload/left collisions (injectivity) and filter
    /// rejections all common.
    fn random_rows(seed: u64, n: usize, arity: usize, domain: u32) -> RowBatch {
        let mut state = seed;
        let mut batch = RowBatch::new(arity);
        let mut row = vec![0; arity];
        for _ in 0..n {
            for v in row.iter_mut() {
                *v = lcg(&mut state) % domain;
            }
            batch.push_row(&row);
        }
        batch
    }

    /// Left schema [a, b, x], right schema [a, y, z], joined on `a` with
    /// output [a, b, x, y, z] and the filters b < y and z < x (one on each
    /// side of the left/payload boundary).
    fn filtered_op() -> JoinOp {
        JoinOp {
            left: 0,
            right: 1,
            key_left: vec![0],
            key_right: vec![0],
            right_payload: vec![1, 2],
            filters: vec![
                OrderFilter {
                    smaller: 1,
                    larger: 3,
                },
                OrderFilter {
                    smaller: 4,
                    larger: 2,
                },
            ],
        }
    }

    /// Drains a stream in count mode, checking that no poll counts more
    /// pairs than it may examine.
    fn drain_count(stream: &mut JoinStream, batch_rows: usize) -> u64 {
        let before = stream.produced();
        let mut total = 0;
        while let Some(n) = stream.next_count().unwrap() {
            assert!(n <= batch_rows as u64, "one poll counted {n} pairs");
            total += n;
        }
        assert!(stream.is_exhausted());
        assert_eq!(stream.produced() - before, total);
        total
    }

    /// Joins the same input twice — materialised through
    /// [`HashJoiner::finish`] and counted through
    /// [`JoinStream::next_count`] — and returns (rows, count).
    fn materialised_and_counted(
        op: &JoinOp,
        left: &RowBatch,
        right: &RowBatch,
        threshold: u64,
        batch_rows: usize,
    ) -> (u64, u64) {
        let dir = TestDir::new();
        let tracker = std::sync::Arc::new(MemoryTracker::new());
        let build = || {
            let mut joiner = HashJoiner::new(
                op.clone(),
                left.arity(),
                right.arity(),
                threshold,
                dir.fresh(),
                MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
            );
            joiner.add(JoinSide::Left, left).unwrap();
            joiner.add(JoinSide::Right, right).unwrap();
            joiner
        };
        let mut rows = 0u64;
        let produced = build()
            .finish(batch_rows, |b| rows += b.len() as u64)
            .unwrap();
        assert_eq!(produced, rows);
        let mut stream = build().into_stream(batch_rows);
        let counted = drain_count(&mut stream, batch_rows);
        drop(stream);
        assert_eq!(tracker.current(), 0);
        assert_eq!(dir.files(), 0);
        (rows, counted)
    }

    #[test]
    fn count_mode_matches_materialised_rows_under_filters_and_injectivity() {
        let left = random_rows(1, 1000, 3, 40);
        let right = random_rows(2, 1000, 3, 40);
        // A nested-loop reference, which also counts the rejections the probe
        // must apply, so the test cannot pass vacuously on data that never
        // collides or never fails a filter.
        let (mut expected, mut collisions, mut filtered) = (0u64, 0, 0);
        for l in left.rows() {
            for r in right.rows().filter(|r| r[0] == l[0]) {
                if l.contains(&r[1]) || l.contains(&r[2]) {
                    collisions += 1;
                } else if !(l[1] < r[1] && r[2] < l[2]) {
                    filtered += 1;
                } else {
                    expected += 1;
                }
            }
        }
        assert!(expected > 0 && collisions > 0 && filtered > 0);
        for batch_rows in [1, 7, 256] {
            let (rows, counted) =
                materialised_and_counted(&filtered_op(), &left, &right, 1 << 20, batch_rows);
            assert_eq!(rows, expected, "batch_rows {batch_rows}");
            assert_eq!(counted, expected, "batch_rows {batch_rows}");
        }
    }

    #[test]
    fn count_mode_matches_materialised_rows_on_spilled_partitions() {
        let left = random_rows(3, 4000, 3, 200);
        let right = random_rows(4, 4000, 3, 200);
        // A 1 KiB buffer spills nearly every partition during the build.
        let (rows, counted) = materialised_and_counted(&filtered_op(), &left, &right, 1024, 64);
        assert!(rows > 0);
        assert_eq!(counted, rows);
    }

    /// Two distinct 5-column keys with equal FNV hashes, so [`pack_key`]
    /// maps them to the same table entry and only the probe's key
    /// verification tells them apart. FNV-1a ends in `(state ^ last) *
    /// prime`, so two 4-column prefixes whose states agree in the high 32
    /// bits (a birthday search over ~2^16 prefixes) collide once the last
    /// column cancels the low 32 bits.
    fn colliding_wide_keys() -> ([u32; 5], [u32; 5]) {
        let positions = [0, 1, 2, 3];
        let mut seen: std::collections::HashMap<u32, [u32; 4]> = std::collections::HashMap::new();
        for i in 0u32.. {
            let prefix = [i, i * 7 + 1, i * 13 + 2, i * 31 + 3];
            let state = key_hash(&prefix, &positions);
            if let Some(other) = seen.insert((state >> 32) as u32, prefix) {
                let other_state = key_hash(&other, &positions);
                let last = (state ^ other_state) as u32;
                return (
                    [other[0], other[1], other[2], other[3], 0],
                    [prefix[0], prefix[1], prefix[2], prefix[3], last],
                );
            }
        }
        unreachable!("the birthday search always finds a collision")
    }

    #[test]
    fn count_mode_verifies_hash_packed_wide_keys() {
        let (a, b) = colliding_wide_keys();
        let key: Vec<usize> = (0..5).collect();
        assert_ne!(a, b);
        assert_eq!(pack_key(&a, &key), pack_key(&b, &key));
        // Schemas [k0..k4, x] on both sides; output [k0..k4, x, y].
        let op = JoinOp {
            left: 0,
            right: 1,
            key_left: key.clone(),
            key_right: key,
            right_payload: vec![5],
            filters: vec![],
        };
        let row = |k: [u32; 5], payload: u32| {
            let mut r = k.to_vec();
            r.push(payload);
            r
        };
        let mut left = RowBatch::new(6);
        let mut right = RowBatch::new(6);
        left.push_row(&row(a, u32::MAX - 1));
        left.push_row(&row(b, u32::MAX - 2));
        right.push_row(&row(a, u32::MAX - 3));
        right.push_row(&row(b, u32::MAX - 4));
        right.push_row(&row(b, u32::MAX - 5));
        // Each left row has all three right rows as hash candidates; only
        // the key-equal ones join: 1 for `a`, 2 for `b`.
        for batch_rows in [1, 2, 16] {
            let (rows, counted) = materialised_and_counted(&op, &left, &right, 1 << 20, batch_rows);
            assert_eq!(rows, 3);
            assert_eq!(counted, 3);
        }
    }

    #[test]
    fn count_mode_counts_adopted_partitions() {
        let left = random_rows(5, 3000, 3, 60);
        let right = random_rows(6, 3000, 3, 60);
        let (reference, _) = materialised_and_counted(&filtered_op(), &left, &right, 1 << 20, 128);
        let dir = TestDir::new();
        let tracker = std::sync::Arc::new(MemoryTracker::new());
        let build = |threshold: u64| {
            let mut joiner = HashJoiner::new(
                filtered_op(),
                3,
                3,
                threshold,
                dir.fresh(),
                MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
            );
            joiner.add(JoinSide::Left, &left).unwrap();
            joiner.add(JoinSide::Right, &right).unwrap();
            joiner
        };
        // The shipper spilled, so shipped partitions come back from disk.
        let mut shipper = build(1024).into_stream(128);
        let mut thief = HashJoiner::new(
            filtered_op(),
            3,
            3,
            1 << 20,
            dir.fresh(),
            MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
        )
        .into_stream(128);
        // Probe part of the shipper first, as a victim does mid-probe.
        let mut counted = shipper.next_count().unwrap().expect("not exhausted");
        let mut shipped = 0;
        while let Some((_, l, r)) = shipper.take_unprobed_partition().unwrap() {
            // Charge on receipt, release on ack, as the machines do.
            let bytes = ((l.len() + r.len()) * std::mem::size_of::<VertexId>()) as u64;
            tracker.allocate(bytes);
            tracker.release(bytes);
            thief.adopt_partition(decode_rows(&encode_rows(&l)), decode_rows(&encode_rows(&r)));
            shipped += 1;
            if shipped == 3 {
                break;
            }
        }
        assert_eq!(shipped, 3);
        counted += drain_count(&mut shipper, 128);
        let stolen = drain_count(&mut thief, 128);
        assert!(stolen > 0, "the thief counts what it probes");
        assert_eq!(counted + stolen, reference);
        drop(shipper);
        drop(thief);
        assert_eq!(tracker.current(), 0);
        assert_eq!(dir.files(), 0);
    }

    #[test]
    fn cancel_mid_count_probe_releases_memory_and_spill_files() {
        let dir = TestDir::new();
        let tracker = std::sync::Arc::new(MemoryTracker::new());
        let mut joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1024,
            dir.fresh(),
            MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
        );
        // 20 right rows per key: every left row has 20 candidate pairs.
        let left: Vec<[u32; 2]> = (0..2000).map(|i| [i % 100, 10_000 + i]).collect();
        let right: Vec<[u32; 2]> = (0..2000).map(|i| [i % 100, 20_000 + i]).collect();
        joiner.add(JoinSide::Left, &batch2(&left)).unwrap();
        joiner.add(JoinSide::Right, &batch2(&right)).unwrap();
        assert!(joiner.spilled());
        let cancel = crate::cancel::CancelToken::new();
        let mut stream = joiner.into_stream(32);
        stream.set_cancel(cancel.clone());
        for _ in 0..5 {
            assert_eq!(stream.next_count().unwrap(), Some(32));
        }
        // Mid-probe: a partition is resident and others are still on disk.
        assert!(tracker.current() > 0);
        assert!(dir.files() > 0);
        cancel.cancel();
        assert!(stream.next_count().is_err());
        drop(stream);
        assert_eq!(tracker.current(), 0);
        assert_eq!(dir.files(), 0);
    }
}
