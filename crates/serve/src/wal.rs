//! Per-graph durability: write-ahead log + periodic binary snapshots.
//!
//! Opted into with `gve serve --data-dir`; the memory-only registry
//! stays the default. The layout under the data dir is one directory
//! per graph (names are path-safe by [`crate::registry::validate_name`]):
//!
//! ```text
//! <data-dir>/<name>/meta              source label, one line of text
//! <data-dir>/<name>/snapshot-<E>.gveg binary CSR at epoch E
//! <data-dir>/<name>/wal.log           records appended since <E>
//! ```
//!
//! Every WAL record is length-prefixed and checksummed:
//!
//! ```text
//! u32  payload length (LE)
//! u64  FNV-1a of the payload (LE)
//! ...  payload, first byte = record kind
//! ```
//!
//! Kinds: `1` Register (source label; head of a registration-time WAL),
//! `2` UpdateBatch (new epoch + edge edits), `3` Partition (a cached
//! partition current at its epoch), `4` EpochBump (head of a
//! compaction-time WAL, cross-checking the snapshot epoch it follows).
//!
//! **Write-ahead ordering.** An update batch is appended — and, under
//! the default fsync policy, synced — *before* the new graph/epoch is
//! published to the registry, so every state a client can observe is
//! recoverable. Partitions are derived data (recomputable by a detect
//! job) and are logged best-effort *after* cache publish.
//!
//! **Fsync policy.** `fsync = true` (default) syncs after every append:
//! an acknowledged batch survives `kill -9`. `fsync = false` leaves
//! records in the OS page cache — faster, and still crash-consistent
//! (the checksummed tail is dropped on recovery), but acknowledged
//! batches written after the last sync may be lost.
//!
//! **Compaction.** Every [`DurabilityConfig::snapshot_every`] appended
//! records the graph is snapshotted (`tmp` + rename, so a torn write
//! leaves the previous snapshot intact), the WAL is restarted with a
//! single EpochBump record, and older snapshots are deleted.
//!
//! **Recovery** loads the newest decodable snapshot, then replays the
//! WAL: batch records at epochs the snapshot already covers are
//! skipped, a truncated or corrupt tail is tolerated (dropped and
//! counted in `gve_wal_tail_records_dropped_total`), and partition
//! records matching the final epoch re-seed the partition cache. A
//! partition record whose request no longer re-derives its fingerprint
//! (one written before the request format changed) is skipped on its
//! own — replay goes on past it, and the next detect recomputes it.

use crate::cache::{CachedPartition, PartitionKey, PartitionOrigin};
use crate::jobs::DetectRequest;
use gve_dynamic::{apply_batch, BatchUpdate};
use gve_graph::io::binary;
use gve_graph::{CsrGraph, VertexId};
use gve_obs::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Record kind tags (first payload byte).
const KIND_REGISTER: u8 = 1;
const KIND_BATCH: u8 = 2;
const KIND_PARTITION: u8 = 3;
const KIND_EPOCH_BUMP: u8 = 4;

/// Record header: u32 payload length + u64 payload checksum.
const HEADER_BYTES: usize = 12;

/// Upper bound on a single record payload. Far above any real record
/// (the largest are partition memberships, 4 bytes/vertex); its job is
/// to reject garbage lengths from a corrupt prefix before allocating.
const MAX_RECORD_BYTES: u32 = 1 << 30;

/// FNV-1a — the same stable hash family the registry and cache use.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Durability tuning, carried from `ServeConfig`.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root data directory; one subdirectory per graph.
    pub root: PathBuf,
    /// Snapshot + restart the WAL after this many appended records.
    pub snapshot_every: usize,
    /// Sync every append to disk (see the module docs for the policy).
    pub fsync: bool,
}

impl DurabilityConfig {
    /// Defaults for a given root: snapshot every 64 records, fsync on.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            snapshot_every: 64,
            fsync: true,
        }
    }
}

/// Counters exported under `gve_wal_*`.
#[derive(Debug, Clone, Default)]
pub struct WalStats {
    /// Records appended (all kinds).
    pub records_appended: Counter,
    /// Payload bytes appended.
    pub bytes_appended: Counter,
    /// Snapshots written by compaction or registration.
    pub snapshots_written: Counter,
    /// Graphs restored by recovery.
    pub recovered_graphs: Counter,
    /// Valid records replayed by recovery.
    pub recovered_records: Counter,
    /// Truncated or corrupt tail records dropped by recovery.
    pub tail_records_dropped: Counter,
}

impl WalStats {
    /// Registers the counters with `registry`.
    pub fn attach_to(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            "gve_wal_records_total",
            "WAL records appended (all kinds).",
            &[],
            &self.records_appended,
        );
        registry.register_counter(
            "gve_wal_bytes_total",
            "WAL payload bytes appended.",
            &[],
            &self.bytes_appended,
        );
        registry.register_counter(
            "gve_wal_snapshots_total",
            "Graph snapshots written (compaction + registration).",
            &[],
            &self.snapshots_written,
        );
        registry.register_counter(
            "gve_wal_recovered_graphs_total",
            "Graphs restored from disk at startup.",
            &[],
            &self.recovered_graphs,
        );
        registry.register_counter(
            "gve_wal_recovered_records_total",
            "Valid WAL records replayed at startup.",
            &[],
            &self.recovered_records,
        );
        registry.register_counter(
            "gve_wal_tail_records_dropped_total",
            "Truncated or corrupt WAL tail records dropped at startup.",
            &[],
            &self.tail_records_dropped,
        );
    }
}

/// Open WAL handle for one graph, behind its per-graph lock.
#[derive(Debug)]
struct GraphWal {
    file: File,
    records_since_snapshot: usize,
}

/// The store: one WAL + snapshot chain per registered graph.
#[derive(Debug)]
pub struct DurabilityStore {
    config: DurabilityConfig,
    /// Brief-hold map of per-graph WAL handles. Never held while doing
    /// IO — fetch the `Arc`, drop this lock, then lock the graph's WAL.
    graphs: Mutex<HashMap<String, Arc<Mutex<GraphWal>>>>,
    /// Counter block (public for `/stats` and tests).
    pub stats: WalStats,
}

/// A partition restored from partition records, ready for the cache.
#[derive(Debug)]
pub struct RecoveredPartition {
    /// Cache key (epoch equals the recovered graph epoch).
    pub key: PartitionKey,
    /// The partition itself.
    pub partition: CachedPartition,
}

/// One graph restored by [`DurabilityStore::recover`].
#[derive(Debug)]
pub struct RecoveredGraph {
    /// Registered name (the directory name).
    pub name: String,
    /// Graph state after snapshot + WAL replay.
    pub graph: CsrGraph,
    /// Epoch after replay.
    pub epoch: u64,
    /// Source label from the `meta` file.
    pub source: String,
    /// Tail records dropped while replaying this graph's WAL.
    pub tail_dropped: u64,
    /// Partitions current at `epoch`, for re-seeding the cache.
    pub partitions: Vec<RecoveredPartition>,
}

impl DurabilityStore {
    /// Opens (creating if needed) the store rooted at `config.root`.
    pub fn open(config: DurabilityConfig) -> io::Result<Self> {
        fs::create_dir_all(&config.root)?;
        Ok(Self {
            config,
            graphs: Mutex::new(HashMap::new()),
            stats: WalStats::default(),
        })
    }

    /// The root data directory.
    pub fn root(&self) -> &Path {
        &self.config.root
    }

    fn graph_dir(&self, name: &str) -> PathBuf {
        self.config.root.join(name)
    }

    fn wal_handle(&self, name: &str) -> io::Result<Arc<Mutex<GraphWal>>> {
        let mut graphs = self.graphs.lock().expect("wal map poisoned");
        if let Some(handle) = graphs.get(name) {
            return Ok(Arc::clone(handle));
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.graph_dir(name).join("wal.log"))?;
        let handle = Arc::new(Mutex::new(GraphWal {
            file,
            records_since_snapshot: 0,
        }));
        graphs.insert(name.to_string(), Arc::clone(&handle));
        Ok(handle)
    }

    fn lock_wal<'a>(&self, handle: &'a Mutex<GraphWal>) -> MutexGuard<'a, GraphWal> {
        match handle.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Seals one record built by [`record`] and appends it (syncing it,
    /// per policy) to an open WAL.
    fn append(&self, wal: &mut GraphWal, record: &mut [u8]) -> io::Result<()> {
        seal(record);
        wal.file.write_all(record)?;
        if self.config.fsync {
            wal.file.sync_data()?;
        }
        wal.records_since_snapshot += 1;
        self.stats.records_appended.inc();
        self.stats
            .bytes_appended
            .add((record.len() - HEADER_BYTES) as u64);
        Ok(())
    }

    /// Writes `snapshot-<epoch>.gveg` atomically (tmp + rename).
    fn write_snapshot(&self, name: &str, graph: &CsrGraph, epoch: u64) -> io::Result<()> {
        let dir = self.graph_dir(name);
        let tmp = dir.join("snapshot.tmp");
        {
            let mut file = File::create(&tmp)?;
            binary::write_binary(graph, &mut file)?;
            if self.config.fsync {
                file.sync_data()?;
            }
        }
        fs::rename(&tmp, dir.join(format!("snapshot-{epoch}.gveg")))?;
        self.stats.snapshots_written.inc();
        Ok(())
    }

    /// Records a fresh registration: graph directory, `meta` with the
    /// source label, the epoch-0 snapshot, and a WAL opened with a
    /// Register record at its head.
    pub fn register_graph(&self, name: &str, graph: &CsrGraph, source: &str) -> io::Result<()> {
        let dir = self.graph_dir(name);
        fs::create_dir_all(&dir)?;
        fs::write(dir.join("meta"), source)?;
        self.write_snapshot(name, graph, 0)?;
        let handle = self.wal_handle(name)?;
        let mut wal = self.lock_wal(&handle);
        let mut payload = record(KIND_REGISTER, 4 + source.len());
        put_bytes(&mut payload, source.as_bytes());
        self.append(&mut wal, &mut payload)
    }

    /// Logs one applied update batch. Called **before** the new
    /// graph/epoch is published; `graph` is the post-batch graph, used
    /// when this append crosses the compaction threshold.
    pub fn append_batch(
        &self,
        name: &str,
        new_epoch: u64,
        batch: &BatchUpdate,
        graph: &CsrGraph,
    ) -> io::Result<()> {
        let handle = self.wal_handle(name)?;
        let mut wal = self.lock_wal(&handle);
        let mut payload = record(
            KIND_BATCH,
            8 + 16 + 12 * batch.insertions.len() + 8 * batch.deletions.len() + 4,
        );
        payload.extend_from_slice(&new_epoch.to_le_bytes());
        payload.extend_from_slice(&(batch.insertions.len() as u64).to_le_bytes());
        for &(u, v, w) in &batch.insertions {
            payload.extend_from_slice(&u.to_le_bytes());
            payload.extend_from_slice(&v.to_le_bytes());
            payload.extend_from_slice(&w.to_le_bytes());
        }
        payload.extend_from_slice(&(batch.deletions.len() as u64).to_le_bytes());
        for &(u, v) in &batch.deletions {
            payload.extend_from_slice(&u.to_le_bytes());
            payload.extend_from_slice(&v.to_le_bytes());
        }
        // Optional trailing field: records written before it existed
        // end after the deletions and decode with no floor.
        if let Some(floor) = batch.vertex_floor {
            payload.extend_from_slice(&floor.to_le_bytes());
        }
        self.append(&mut wal, &mut payload)?;
        if wal.records_since_snapshot >= self.config.snapshot_every.max(1) {
            self.compact(name, &mut wal, graph, new_epoch)?;
        }
        Ok(())
    }

    /// Logs a partition current at its epoch (best-effort derived data;
    /// see the module docs).
    pub fn append_partition(
        &self,
        key: &PartitionKey,
        partition: &CachedPartition,
    ) -> io::Result<()> {
        let handle = self.wal_handle(&key.graph)?;
        let mut wal = self.lock_wal(&handle);
        let request_json = partition.request.to_json().render();
        let mut payload = record(
            KIND_PARTITION,
            64 + request_json.len() + 4 * partition.membership.len(),
        );
        payload.extend_from_slice(&key.epoch.to_le_bytes());
        payload.extend_from_slice(&key.fingerprint.to_le_bytes());
        payload.push(match partition.origin {
            PartitionOrigin::Detection => 0,
            PartitionOrigin::IncrementalRefresh => 1,
        });
        payload.extend_from_slice(&(partition.num_communities as u64).to_le_bytes());
        payload.extend_from_slice(&partition.modularity.to_le_bytes());
        payload.extend_from_slice(&partition.seconds.to_le_bytes());
        put_bytes(&mut payload, request_json.as_bytes());
        payload.extend_from_slice(&(partition.membership.len() as u64).to_le_bytes());
        for &community in partition.membership.iter() {
            payload.extend_from_slice(&community.to_le_bytes());
        }
        self.append(&mut wal, &mut payload)
    }

    /// Snapshot the graph at `epoch` and restart the WAL with a single
    /// EpochBump record. Crash-safe at every step: the snapshot and the
    /// fresh WAL are both staged to `tmp` files and renamed over, and
    /// replay skips batch records the snapshot already covers.
    fn compact(
        &self,
        name: &str,
        wal: &mut GraphWal,
        graph: &CsrGraph,
        epoch: u64,
    ) -> io::Result<()> {
        self.write_snapshot(name, graph, epoch)?;
        let dir = self.graph_dir(name);
        let tmp = dir.join("wal.tmp");
        let mut framed = record(KIND_EPOCH_BUMP, 8);
        framed.extend_from_slice(&epoch.to_le_bytes());
        seal(&mut framed);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&framed)?;
            if self.config.fsync {
                file.sync_data()?;
            }
        }
        fs::rename(&tmp, dir.join("wal.log"))?;
        wal.file = OpenOptions::new().append(true).open(dir.join("wal.log"))?;
        wal.records_since_snapshot = 1;
        self.stats.records_appended.inc();
        // Older snapshots are now redundant; removal is best-effort.
        if let Ok(entries) = fs::read_dir(&dir) {
            for entry in entries.flatten() {
                if let Some(old) = snapshot_epoch(&entry.file_name().to_string_lossy()) {
                    if old < epoch {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
        }
        Ok(())
    }

    /// Drops all on-disk state for `name` (graph deregistered).
    pub fn remove_graph(&self, name: &str) -> io::Result<()> {
        self.graphs.lock().expect("wal map poisoned").remove(name);
        let dir = self.graph_dir(name);
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        Ok(())
    }

    /// Restores every graph under the data dir: newest decodable
    /// snapshot + WAL replay, tolerating a truncated or corrupt tail.
    /// Also opens each graph's WAL for appending, so the store is ready
    /// for writes when this returns.
    pub fn recover(&self) -> io::Result<Vec<RecoveredGraph>> {
        let mut recovered = Vec::new();
        let mut entries: Vec<_> = fs::read_dir(&self.config.root)?
            .filter_map(Result::ok)
            .filter(|e| e.path().is_dir())
            .collect();
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let name = entry.file_name().to_string_lossy().to_string();
            match self.recover_graph(&name, &entry.path()) {
                Ok(graph) => {
                    self.stats.recovered_graphs.inc();
                    recovered.push(graph);
                }
                Err(e) => {
                    // A directory with no decodable snapshot is not a
                    // graph we can serve; leave it on disk for manual
                    // inspection rather than failing the whole boot.
                    eprintln!("gve-serve: skipping unrecoverable graph '{name}': {e}");
                }
            }
        }
        Ok(recovered)
    }

    fn recover_graph(&self, name: &str, dir: &Path) -> io::Result<RecoveredGraph> {
        let source = fs::read_to_string(dir.join("meta"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "recovered".to_string());
        // Newest decodable snapshot wins; torn or corrupt snapshot
        // files fall back to the next-newest.
        let mut snapshot_epochs: Vec<u64> = fs::read_dir(dir)?
            .filter_map(Result::ok)
            .filter_map(|e| snapshot_epoch(&e.file_name().to_string_lossy()))
            .collect();
        snapshot_epochs.sort_unstable_by(|a, b| b.cmp(a));
        let mut snapshot = None;
        for &epoch in &snapshot_epochs {
            let path = dir.join(format!("snapshot-{epoch}.gveg"));
            if let Ok(graph) = File::open(&path)
                .map_err(|e| e.to_string())
                .and_then(|f| binary::read_binary(f).map_err(|e| e.to_string()))
            {
                snapshot = Some((graph, epoch));
                break;
            }
        }
        let (mut graph, snapshot_epoch) = snapshot
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no decodable snapshot"))?;
        let mut epoch = snapshot_epoch;

        // Replay the WAL past the snapshot.
        let mut raw = Vec::new();
        if let Ok(mut file) = File::open(dir.join("wal.log")) {
            file.read_to_end(&mut raw)?;
        }
        let mut cursor = 0usize;
        let mut tail_dropped = 0u64;
        // Keyed by fingerprint, last record wins; filtered to the final
        // epoch once replay finishes.
        let mut partitions: HashMap<u64, (u64, CachedPartition)> = HashMap::new();
        while cursor < raw.len() {
            let Some((payload, next)) = read_record(&raw, cursor) else {
                tail_dropped += 1;
                break;
            };
            cursor = next;
            match parse_record(payload) {
                Some(Record::Register | Record::StalePartition) => {}
                Some(Record::EpochBump(bumped)) => epoch = epoch.max(bumped),
                Some(Record::Batch { new_epoch, batch }) => {
                    // Batches the snapshot already folded in are skipped;
                    // replay must be idempotent across compaction races.
                    if new_epoch > epoch {
                        graph = apply_batch(&graph, &batch);
                        epoch = new_epoch;
                    }
                }
                Some(Record::Partition {
                    epoch: partition_epoch,
                    fingerprint,
                    partition,
                }) => {
                    partitions.insert(fingerprint, (partition_epoch, partition));
                }
                None => {
                    // Checksummed but unparseable: a kind from a future
                    // version, or corruption the checksum missed. Stop
                    // here — everything after is suspect.
                    tail_dropped += 1;
                    break;
                }
            }
            self.stats.recovered_records.inc();
        }
        self.stats.tail_records_dropped.add(tail_dropped);
        // Truncate the dropped tail so future appends extend a valid
        // prefix instead of burying garbage mid-log.
        if tail_dropped > 0 {
            let file = OpenOptions::new().write(true).open(dir.join("wal.log"))?;
            file.set_len(cursor as u64)?;
        }

        let wal_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("wal.log"))?;
        let mut records = 0usize;
        let mut scan = 0usize;
        while let Some((_, next)) = read_record(&raw[..cursor], scan) {
            records += 1;
            scan = next;
        }
        self.graphs.lock().expect("wal map poisoned").insert(
            name.to_string(),
            Arc::new(Mutex::new(GraphWal {
                file: wal_file,
                records_since_snapshot: records,
            })),
        );

        let partitions = partitions
            .into_iter()
            .filter(|(_, (partition_epoch, _))| *partition_epoch == epoch)
            .map(
                |(fingerprint, (partition_epoch, partition))| RecoveredPartition {
                    key: PartitionKey {
                        graph: name.to_string(),
                        epoch: partition_epoch,
                        fingerprint,
                    },
                    partition,
                },
            )
            .collect();
        Ok(RecoveredGraph {
            name: name.to_string(),
            graph,
            epoch,
            source,
            tail_dropped,
            partitions,
        })
    }
}

/// `snapshot-<epoch>.gveg` → `epoch`.
fn snapshot_epoch(file_name: &str) -> Option<u64> {
    file_name
        .strip_prefix("snapshot-")?
        .strip_suffix(".gveg")?
        .parse()
        .ok()
}

/// One frame: `(payload, next_cursor)`, or `None` on a truncated or
/// checksum-failing tail.
fn read_record(raw: &[u8], cursor: usize) -> Option<(&[u8], usize)> {
    let header = raw.get(cursor..cursor + HEADER_BYTES)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if len == 0 || len > MAX_RECORD_BYTES {
        return None;
    }
    let checksum = u64::from_le_bytes(header[4..HEADER_BYTES].try_into().unwrap());
    let start = cursor + HEADER_BYTES;
    let payload = raw.get(start..start + len as usize)?;
    if fnv1a(payload) != checksum {
        return None;
    }
    Some((payload, start + len as usize))
}

/// A parsed WAL payload.
enum Record {
    Register,
    Batch {
        new_epoch: u64,
        batch: BatchUpdate,
    },
    Partition {
        epoch: u64,
        fingerprint: u64,
        partition: CachedPartition,
    },
    /// A well-framed partition record whose request does not re-derive
    /// its fingerprint; skipped on replay.
    StalePartition,
    EpochBump(u64),
}

fn parse_record(payload: &[u8]) -> Option<Record> {
    let mut cursor = Cursor::new(payload);
    match cursor.u8()? {
        KIND_REGISTER => {
            let _source = cursor.bytes()?;
            Some(Record::Register)
        }
        KIND_BATCH => {
            let new_epoch = cursor.u64()?;
            let mut batch = BatchUpdate::new();
            for _ in 0..cursor.u64()? {
                let u = cursor.u32()?;
                let v = cursor.u32()?;
                let w = f32::from_le_bytes(cursor.array()?);
                batch.insert(u, v, w);
            }
            for _ in 0..cursor.u64()? {
                batch.delete(cursor.u32()?, cursor.u32()?);
            }
            if !cursor.at_end() {
                batch.vertex_floor = Some(cursor.u32()?);
            }
            Some(Record::Batch { new_epoch, batch })
        }
        KIND_PARTITION => {
            let epoch = cursor.u64()?;
            let fingerprint = cursor.u64()?;
            let origin = match cursor.u8()? {
                0 => PartitionOrigin::Detection,
                1 => PartitionOrigin::IncrementalRefresh,
                _ => return None,
            };
            let num_communities = cursor.u64()? as usize;
            let modularity = f64::from_le_bytes(cursor.array()?);
            let seconds = f64::from_le_bytes(cursor.array()?);
            let request_json = String::from_utf8(cursor.bytes()?.to_vec()).ok()?;
            let request = crate::json::parse(&request_json)
                .ok()
                .and_then(|body| DetectRequest::from_json(&body).ok());
            // The fingerprint is derived from the request; a mismatch
            // means the record was keyed under an older request format
            // (or is inconsistent). Either way the partition is derived
            // data: drop it alone, not the log after it.
            let Some(request) = request.filter(|r| r.fingerprint() == fingerprint) else {
                return Some(Record::StalePartition);
            };
            let n = cursor.u64()? as usize;
            let mut membership: Vec<VertexId> = Vec::with_capacity(n.min(1 << 24));
            for _ in 0..n {
                membership.push(cursor.u32()?);
            }
            Some(Record::Partition {
                epoch,
                fingerprint,
                partition: CachedPartition {
                    membership: Arc::new(membership),
                    num_communities,
                    modularity,
                    seconds,
                    origin,
                    request,
                },
            })
        }
        KIND_EPOCH_BUMP => Some(Record::EpochBump(cursor.u64()?)),
        _ => None,
    }
}

/// A record buffer: zeroed header bytes, then the kind byte, with room
/// for `fields` more payload bytes. [`seal`] fills in the header once
/// the payload is written, so a record is framed without a copy.
fn record(kind: u8, fields: usize) -> Vec<u8> {
    let mut record = Vec::with_capacity(HEADER_BYTES + 1 + fields);
    record.resize(HEADER_BYTES, 0);
    record.push(kind);
    record
}

/// Writes the payload length and checksum into a record's header.
fn seal(record: &mut [u8]) {
    let (header, payload) = record.split_at_mut(HEADER_BYTES);
    debug_assert!(payload.len() < MAX_RECORD_BYTES as usize);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&fnv1a(payload).to_le_bytes());
}

/// Length-prefixed byte run (u32 length).
fn put_bytes(payload: &mut Vec<u8>, bytes: &[u8]) {
    payload.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    payload.extend_from_slice(bytes);
}

/// Bounds-checked little-endian reader over a payload slice.
struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, at: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.data.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(slice)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.array()?))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn at_end(&self) -> bool {
        self.at == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gve_graph::GraphBuilder;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store(tag: &str) -> DurabilityStore {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gve-wal-test-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        DurabilityStore::open(DurabilityConfig::new(dir)).unwrap()
    }

    fn reopen(store: &DurabilityStore) -> DurabilityStore {
        DurabilityStore::open(store.config.clone()).unwrap()
    }

    fn path_graph() -> CsrGraph {
        GraphBuilder::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    }

    fn sample_partition(n: usize) -> CachedPartition {
        CachedPartition {
            membership: Arc::new((0..n as VertexId).map(|v| v % 2).collect()),
            num_communities: 2,
            modularity: 0.25,
            seconds: 0.01,
            origin: PartitionOrigin::IncrementalRefresh,
            request: DetectRequest::default(),
        }
    }

    /// Register + batches + partition, recover, compare against the
    /// same updates applied purely in memory.
    #[test]
    fn recovery_replays_to_the_in_memory_state() {
        let store = temp_store("roundtrip");
        let mut graph = path_graph();
        store.register_graph("g", &graph, "inline").unwrap();
        for epoch in 1..=5u64 {
            let mut batch = BatchUpdate::new();
            batch.insert(0, 2 + (epoch as VertexId % 2), epoch as f32);
            if epoch == 3 {
                batch.delete(1, 2);
            }
            graph = apply_batch(&graph, &batch);
            store.append_batch("g", epoch, &batch, &graph).unwrap();
        }
        let key = PartitionKey {
            graph: "g".into(),
            epoch: 5,
            fingerprint: DetectRequest::default().fingerprint(),
        };
        let partition = sample_partition(graph.num_vertices());
        store.append_partition(&key, &partition).unwrap();

        let recovered = reopen(&store).recover().unwrap();
        assert_eq!(recovered.len(), 1);
        let g = &recovered[0];
        assert_eq!(g.name, "g");
        assert_eq!(g.epoch, 5);
        assert_eq!(g.graph, graph);
        assert_eq!(g.source, "inline");
        assert_eq!(g.tail_dropped, 0);
        assert_eq!(g.partitions.len(), 1);
        assert_eq!(g.partitions[0].key, key);
        assert_eq!(g.partitions[0].partition.membership, partition.membership);
    }

    /// A partially written tail record (the crash case) is dropped and
    /// counted; everything before it survives.
    #[test]
    fn truncated_tail_record_is_dropped() {
        let store = temp_store("truncated");
        let mut graph = path_graph();
        store.register_graph("g", &graph, "inline").unwrap();
        for epoch in 1..=3u64 {
            let mut batch = BatchUpdate::new();
            batch.insert(0, 3, 1.0);
            graph = apply_batch(&graph, &batch);
            store.append_batch("g", epoch, &batch, &graph).unwrap();
        }
        let wal_path = store.graph_dir("g").join("wal.log");
        let len = fs::metadata(&wal_path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();

        let reopened = reopen(&store);
        let recovered = reopened.recover().unwrap();
        assert_eq!(recovered[0].epoch, 2, "the torn epoch-3 record is gone");
        assert_eq!(recovered[0].tail_dropped, 1);
        assert_eq!(reopened.stats.tail_records_dropped.get(), 1);
        // The tail was truncated away: appending now extends a valid
        // prefix, and a second recovery sees a clean log.
        let mut batch = BatchUpdate::new();
        batch.insert(0, 3, 1.0);
        let resumed = apply_batch(&recovered[0].graph, &batch);
        reopened.append_batch("g", 3, &batch, &resumed).unwrap();
        let again = reopen(&store).recover().unwrap();
        assert_eq!(again[0].epoch, 3);
        assert_eq!(again[0].tail_dropped, 0);
    }

    /// Bit corruption in the middle of the newest record fails its
    /// checksum; the valid prefix still recovers.
    #[test]
    fn corrupt_checksum_drops_the_tail() {
        let store = temp_store("corrupt");
        let mut graph = path_graph();
        store.register_graph("g", &graph, "inline").unwrap();
        for epoch in 1..=2u64 {
            let mut batch = BatchUpdate::new();
            batch.insert(epoch as VertexId, 3, 1.0);
            graph = apply_batch(&graph, &batch);
            store.append_batch("g", epoch, &batch, &graph).unwrap();
        }
        let wal_path = store.graph_dir("g").join("wal.log");
        let mut raw = fs::read(&wal_path).unwrap();
        let last = raw.len() - 3;
        raw[last] ^= 0xFF;
        fs::write(&wal_path, &raw).unwrap();

        let recovered = reopen(&store).recover().unwrap();
        assert_eq!(recovered[0].epoch, 1);
        assert_eq!(recovered[0].tail_dropped, 1);
    }

    /// Crossing `snapshot_every` writes a snapshot, restarts the WAL,
    /// and deletes older snapshots — and recovery agrees with memory.
    #[test]
    fn compaction_snapshots_and_restarts_the_wal() {
        let mut store = temp_store("compact");
        store.config.snapshot_every = 4;
        let mut graph = path_graph();
        store.register_graph("g", &graph, "inline").unwrap();
        for epoch in 1..=9u64 {
            let mut batch = BatchUpdate::new();
            batch.insert(0, (epoch % 4) as VertexId, 0.5);
            graph = apply_batch(&graph, &batch);
            store.append_batch("g", epoch, &batch, &graph).unwrap();
        }
        let names: Vec<String> = fs::read_dir(store.graph_dir("g"))
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().to_string())
            .collect();
        let snapshots: Vec<&String> = names
            .iter()
            .filter(|n| n.starts_with("snapshot-"))
            .collect();
        assert_eq!(snapshots.len(), 1, "old snapshots deleted: {names:?}");
        assert!(store.stats.snapshots_written.get() >= 2);

        let recovered = reopen(&store).recover().unwrap();
        assert_eq!(recovered[0].epoch, 9);
        assert_eq!(recovered[0].graph, graph);
    }

    /// A coalesced batch whose deletion cancelled a queued insertion
    /// still grows the vertex set after recovery: the record carries the
    /// batch's vertex floor.
    #[test]
    fn batch_vertex_floor_round_trips() {
        let store = temp_store("floor");
        let graph = path_graph();
        store.register_graph("g", &graph, "inline").unwrap();
        let mut batch = BatchUpdate::new();
        batch.insert(0, 9, 1.0);
        let mut cancel = BatchUpdate::new();
        cancel.delete(0, 9);
        batch.merge(&cancel);
        let grown = apply_batch(&graph, &batch);
        assert_eq!(grown.num_vertices(), 10);
        store.append_batch("g", 1, &batch, &grown).unwrap();

        let recovered = reopen(&store).recover().unwrap();
        assert_eq!(recovered[0].graph, grown);
    }

    /// Batch records written before the floor field existed end after
    /// the deletions and decode with no floor.
    #[test]
    fn batch_record_without_floor_decodes() {
        let mut payload = vec![KIND_BATCH];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&5u32.to_le_bytes());
        payload.extend_from_slice(&2.0f32.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        let Some(Record::Batch { new_epoch, batch }) = parse_record(&payload) else {
            panic!("old batch record must decode");
        };
        assert_eq!(new_epoch, 7);
        assert_eq!(batch.insertions, vec![(0, 5, 2.0)]);
        assert_eq!(batch.vertex_floor, None);
    }

    /// The bytes on disk of one batch record and one partition record:
    /// header (payload length, FNV-1a) pinned as literals, payload
    /// spelled out field by field.
    #[test]
    fn record_encoding_is_pinned() {
        let store = temp_store("pinned");
        let graph = path_graph();
        store.register_graph("g", &graph, "inline").unwrap();
        let wal_path = store.graph_dir("g").join("wal.log");
        let start = fs::metadata(&wal_path).unwrap().len() as usize;

        let mut batch = BatchUpdate::new();
        batch.insert(0, 3, 2.5).delete(1, 2);
        batch.vertex_floor = Some(6);
        store
            .append_batch("g", 1, &batch, &apply_batch(&graph, &batch))
            .unwrap();
        let request = DetectRequest::default();
        let key = PartitionKey {
            graph: "g".into(),
            epoch: 1,
            fingerprint: request.fingerprint(),
        };
        let partition = CachedPartition {
            membership: Arc::new(vec![0, 0, 1, 1, 2, 2, 2]),
            num_communities: 3,
            modularity: 0.25,
            seconds: 0.5,
            origin: PartitionOrigin::IncrementalRefresh,
            request: request.clone(),
        };
        store.append_partition(&key, &partition).unwrap();

        let mut batch_payload = vec![KIND_BATCH];
        batch_payload.extend_from_slice(&1u64.to_le_bytes()); // epoch
        batch_payload.extend_from_slice(&1u64.to_le_bytes()); // insertions
        batch_payload.extend_from_slice(&0u32.to_le_bytes());
        batch_payload.extend_from_slice(&3u32.to_le_bytes());
        batch_payload.extend_from_slice(&2.5f32.to_le_bytes());
        batch_payload.extend_from_slice(&1u64.to_le_bytes()); // deletions
        batch_payload.extend_from_slice(&1u32.to_le_bytes());
        batch_payload.extend_from_slice(&2u32.to_le_bytes());
        batch_payload.extend_from_slice(&6u32.to_le_bytes()); // floor

        let json = request.to_json().render();
        let mut partition_payload = vec![KIND_PARTITION];
        partition_payload.extend_from_slice(&1u64.to_le_bytes()); // epoch
        partition_payload.extend_from_slice(&request.fingerprint().to_le_bytes());
        partition_payload.push(1); // incremental refresh
        partition_payload.extend_from_slice(&3u64.to_le_bytes());
        partition_payload.extend_from_slice(&0.25f64.to_le_bytes());
        partition_payload.extend_from_slice(&0.5f64.to_le_bytes());
        partition_payload.extend_from_slice(&(json.len() as u32).to_le_bytes());
        partition_payload.extend_from_slice(json.as_bytes());
        partition_payload.extend_from_slice(&7u64.to_le_bytes());
        for community in [0u32, 0, 1, 1, 2, 2, 2] {
            partition_payload.extend_from_slice(&community.to_le_bytes());
        }

        let mut expected = Vec::new();
        for (payload, len, checksum) in [
            (&batch_payload, 49u32, 0x9232_7997_3ede_3072u64),
            (&partition_payload, 229, 0x9e20_1fab_3475_327a),
        ] {
            expected.extend_from_slice(&len.to_le_bytes());
            expected.extend_from_slice(&checksum.to_le_bytes());
            expected.extend_from_slice(payload);
        }
        let written = &fs::read(&wal_path).unwrap()[start..];
        let header = |at: usize| {
            let len = u32::from_le_bytes(written[at..at + 4].try_into().unwrap());
            let sum = u64::from_le_bytes(written[at + 4..at + 12].try_into().unwrap());
            (len, format!("{sum:#018x}"))
        };
        let second = 12 + batch_payload.len();
        assert_eq!(
            written,
            &expected[..],
            "headers written: {:?} {:?}",
            header(0),
            header(second)
        );
    }

    /// A WAL written before `kernel`/`layout` left the detect request
    /// holds partition records whose request JSON names them, keyed by
    /// the old fingerprint. Recovery keeps the graph, every batch (also
    /// those logged after the stale record) and the epoch, and drops
    /// only that derived partition.
    #[test]
    fn old_format_partition_record_is_dropped_alone() {
        // The default request as the old format rendered and
        // fingerprinted it, bytes captured from that version.
        const OLD_JSON: &str = r#"{"objective":"modularity","resolution":1,"seed":0,"max_passes":10,"chunk_size":2048,"kernel":"v2","ordering":"original","layout":"split","scheduling":"async","chunking":"static"}"#;
        const OLD_FINGERPRINT: u64 = 0xb44b_4c5d_f594_ac64;
        assert_ne!(OLD_FINGERPRINT, DetectRequest::default().fingerprint());

        let store = temp_store("old-partition");
        let mut graph = path_graph();
        store.register_graph("g", &graph, "inline").unwrap();
        let mut batch = BatchUpdate::new();
        batch.insert(0, 3, 2.0);
        graph = apply_batch(&graph, &batch);
        store.append_batch("g", 1, &batch, &graph).unwrap();

        // Hand-encoded old-format partition record at epoch 1.
        let mut payload = vec![KIND_PARTITION];
        payload.extend_from_slice(&1u64.to_le_bytes()); // epoch
        payload.extend_from_slice(&OLD_FINGERPRINT.to_le_bytes());
        payload.push(0); // detection
        payload.extend_from_slice(&2u64.to_le_bytes()); // communities
        payload.extend_from_slice(&0.25f64.to_le_bytes());
        payload.extend_from_slice(&0.5f64.to_le_bytes());
        put_bytes(&mut payload, OLD_JSON.as_bytes());
        payload.extend_from_slice(&4u64.to_le_bytes());
        for community in [0u32, 0, 1, 1] {
            payload.extend_from_slice(&community.to_le_bytes());
        }
        assert!(matches!(
            parse_record(&payload),
            Some(Record::StalePartition)
        ));
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let wal_path = store.graph_dir("g").join("wal.log");
        OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .unwrap()
            .write_all(&frame)
            .unwrap();

        // Acked after the stale record: must survive recovery.
        let mut batch = BatchUpdate::new();
        batch.insert(1, 3, 1.5).delete(1, 2);
        graph = apply_batch(&graph, &batch);
        store.append_batch("g", 2, &batch, &graph).unwrap();
        let wal_len = fs::metadata(&wal_path).unwrap().len();

        let recovered = reopen(&store).recover().unwrap();
        assert_eq!(recovered.len(), 1);
        let g = &recovered[0];
        assert_eq!(g.epoch, 2);
        assert_eq!(g.graph, graph);
        assert_eq!(g.tail_dropped, 0, "the stale record is not a torn tail");
        assert!(g.partitions.is_empty());
        assert_eq!(
            fs::metadata(&wal_path).unwrap().len(),
            wal_len,
            "recovery truncated the log"
        );
    }

    #[test]
    fn remove_graph_wipes_the_directory() {
        let store = temp_store("remove");
        store.register_graph("g", &path_graph(), "inline").unwrap();
        assert!(store.graph_dir("g").exists());
        store.remove_graph("g").unwrap();
        assert!(!store.graph_dir("g").exists());
        assert!(reopen(&store).recover().unwrap().is_empty());
    }

    /// Unsynced-tail policy: with fsync off, records still frame and
    /// recover correctly when they *did* reach disk.
    #[test]
    fn os_buffered_mode_still_recovers_flushed_records() {
        let mut store = temp_store("nofsync");
        store.config.fsync = false;
        let mut graph = path_graph();
        store.register_graph("g", &graph, "inline").unwrap();
        let mut batch = BatchUpdate::new();
        batch.insert(0, 3, 2.0);
        graph = apply_batch(&graph, &batch);
        store.append_batch("g", 1, &batch, &graph).unwrap();
        drop(store.graphs.lock().unwrap().remove("g")); // close the handle
        let recovered = reopen(&store).recover().unwrap();
        assert_eq!(recovered[0].epoch, 1);
        assert_eq!(recovered[0].graph, graph);
    }
}
