//! The optional disk tier of the plan store: a versioned,
//! append-friendly file of `canonical key → SWAP plan` records under a
//! caller-chosen directory (`qlosured --plan-store <dir>`).
//!
//! Format: `<dir>/plans.qps` is a flat sequence of self-delimiting
//! records — no file header, so an empty file is a valid empty store
//! and appends never rewrite existing bytes. Each record is
//!
//! ```text
//! magic: u32 LE ("QPSR") | version: u32 LE | key_len: u32 LE |
//! plan_len: u32 LE | checksum: u64 LE (FNV-1a over key ++ plan bytes) |
//! key bytes | plan bytes
//! ```
//!
//! Per the workspace cache rule the store keys on full canonical
//! content (the key *bytes* are compared, never just a hash), is
//! bounded in entries and bytes with FIFO eviction (a rewrite-compact
//! when the bound trips), and degrades — never panics — on hostile
//! input: truncated tails, bit-flipped bodies, and alien-version
//! records are skipped with typed [`StoreWarning`]s. Plans in the store
//! are pure functions of their canonical key (the in-memory tier only
//! ever writes canonically-computed plans), so replaying a loaded plan
//! is deterministic across processes, restarts, and machines sharing a
//! store directory.

use bounded::fnv1a;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Store format version stamped into every record. Readers skip
/// records from other versions (forward and backward) instead of
/// guessing at their layout.
pub const STORE_VERSION: u32 = 3;

/// Record magic: `QPSR` in little-endian byte order.
const RECORD_MAGIC: u32 = u32::from_le_bytes(*b"QPSR");

/// Fixed bytes ahead of every record body.
const RECORD_HEADER: usize = 4 + 4 + 4 + 4 + 8;

/// Sanity ceiling on a single serialized key or plan: anything larger
/// is framing corruption, not data.
const MAX_FIELD: u32 = 1 << 20;

/// The store file inside the configured directory.
const FILE_NAME: &str = "plans.qps";

/// Size bounds of the disk tier.
#[derive(Clone, Copy, Debug)]
pub struct PlanStoreConfig {
    /// Maximum retained records; the oldest are evicted first.
    pub max_entries: usize,
    /// Maximum store-file bytes; eviction keeps the file within this
    /// bound even across compactions.
    pub max_bytes: u64,
}

impl Default for PlanStoreConfig {
    fn default() -> Self {
        PlanStoreConfig {
            max_entries: 4096,
            max_bytes: 16 << 20,
        }
    }
}

/// A non-fatal defect found while reading or writing the store. The
/// store treats every one as "that record does not exist" — a warning
/// is the *only* consequence of hostile bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreWarning {
    /// The file ends mid-record (e.g. a crashed writer); the complete
    /// prefix was loaded.
    TruncatedTail {
        /// Byte offset of the incomplete record.
        offset: u64,
    },
    /// A record failed its framing or checksum validation. When the
    /// frame lengths were plausible the scan resumes at the next
    /// record; a broken frame ends the scan (resynchronization would
    /// be guesswork).
    CorruptRecord {
        /// Byte offset of the rejected record.
        offset: u64,
    },
    /// A record from a different store version; skipped, not decoded.
    AlienVersion {
        /// Byte offset of the skipped record.
        offset: u64,
        /// The version it claimed.
        version: u32,
    },
    /// A record too large to ever fit the byte bound; not written.
    OversizedRecord {
        /// The record's would-be size.
        bytes: u64,
    },
    /// An I/O failure; the store keeps serving from memory.
    Io {
        /// The failed operation.
        op: &'static str,
        /// The error text.
        message: String,
    },
}

impl fmt::Display for StoreWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreWarning::TruncatedTail { offset } => {
                write!(f, "truncated record at byte {offset}; loaded the prefix")
            }
            StoreWarning::CorruptRecord { offset } => {
                write!(f, "corrupt record at byte {offset}; skipped")
            }
            StoreWarning::AlienVersion { offset, version } => {
                write!(
                    f,
                    "record at byte {offset} has alien version {version}; skipped"
                )
            }
            StoreWarning::OversizedRecord { bytes } => {
                write!(
                    f,
                    "{bytes}-byte record exceeds the store byte bound; not written"
                )
            }
            StoreWarning::Io { op, message } => write!(f, "{op} failed: {message}"),
        }
    }
}

/// In-memory mirror of the live records, built by the lazy scan.
struct Loaded {
    /// key bytes → plan, newest duplicate wins.
    plans: HashMap<Vec<u8>, Vec<(u32, u32)>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Vec<u8>>,
    /// Total bytes the live records occupy on disk after a compaction.
    live_bytes: u64,
    /// Current store-file size, including superseded records.
    file_bytes: u64,
}

impl Loaded {
    /// Evicts the oldest records until the live set fits `config`'s
    /// bounds; returns whether any record was evicted.
    fn trim(&mut self, config: &PlanStoreConfig) -> bool {
        let mut evicted = false;
        while self.order.len() > config.max_entries.max(1) || self.live_bytes > config.max_bytes {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if let Some(plan) = self.plans.remove(&oldest) {
                self.live_bytes -= record_len(&oldest, &plan);
            }
            evicted = true;
        }
        evicted
    }
}

/// The disk tier: a bounded record file plus its in-memory mirror.
/// All methods are infallible by contract — defects become
/// [`StoreWarning`]s (also echoed to stderr once each, so a daemon
/// operator sees them without polling).
pub struct PlanStore {
    path: PathBuf,
    config: PlanStoreConfig,
    state: Option<Loaded>,
    warnings: Vec<StoreWarning>,
}

impl PlanStore {
    /// Opens (creating the directory if needed) the store under `dir`.
    /// The store file itself is scanned lazily on first access.
    ///
    /// # Errors
    ///
    /// Only directory creation can fail; a missing or damaged store
    /// *file* is a warning at scan time, never an open error.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<PlanStore> {
        PlanStore::open_with(dir, PlanStoreConfig::default())
    }

    /// [`PlanStore::open`] with explicit bounds.
    ///
    /// # Errors
    ///
    /// Only directory creation can fail.
    pub fn open_with(dir: impl AsRef<Path>, config: PlanStoreConfig) -> std::io::Result<PlanStore> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        Ok(PlanStore {
            path: dir.join(FILE_NAME),
            config,
            state: None,
            warnings: Vec::new(),
        })
    }

    /// The plan stored for `key_bytes` (a serialized canonical key),
    /// or `None`. The first call scans the store file.
    pub fn load(&mut self, key_bytes: &[u8]) -> Option<Vec<(u32, u32)>> {
        self.loaded().plans.get(key_bytes).cloned()
    }

    /// Appends `plan` under `key_bytes`, evicting FIFO and compacting
    /// as needed to stay within the configured bounds. Returns whether
    /// the record is now part of the store (an oversized record or a
    /// failed write is a warning, not an error).
    pub fn append(&mut self, key_bytes: &[u8], plan: &[(u32, u32)]) -> bool {
        let record = encode_record(key_bytes, plan);
        if record.len() as u64 > self.config.max_bytes {
            self.warn(StoreWarning::OversizedRecord {
                bytes: record.len() as u64,
            });
            return false;
        }
        let config = self.config;
        let state = self.loaded();
        if state.plans.contains_key(key_bytes) {
            return true; // plans are pure functions of their key
        }
        state.plans.insert(key_bytes.to_vec(), plan.to_vec());
        state.order.push_back(key_bytes.to_vec());
        state.live_bytes += record.len() as u64;
        if state.trim(&config) || state.file_bytes + record.len() as u64 > config.max_bytes {
            // The append would push the *file* (live + superseded
            // records) past the bound: rewrite it from the live set,
            // which eviction just sized to fit.
            self.compact()
        } else {
            let state = self.state.as_mut().expect("state loaded above");
            state.file_bytes += record.len() as u64;
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .and_then(|mut file| file.write_all(&record).and_then(|()| file.flush()))
            {
                Ok(()) => true,
                Err(e) => {
                    self.warn(StoreWarning::Io {
                        op: "append",
                        message: e.to_string(),
                    });
                    false
                }
            }
        }
    }

    /// Number of live records.
    pub fn entries(&mut self) -> usize {
        self.loaded().plans.len()
    }

    /// Current store-file size in bytes.
    pub fn file_bytes(&mut self) -> u64 {
        self.loaded().file_bytes
    }

    /// Drains the warnings accumulated so far (each was also printed
    /// to stderr when it occurred).
    pub fn take_warnings(&mut self) -> Vec<StoreWarning> {
        std::mem::take(&mut self.warnings)
    }

    fn warn(&mut self, warning: StoreWarning) {
        eprintln!("plan store: {warning}");
        trace::journal::event(
            trace::journal::Level::Warn,
            "plan-store",
            &warning.to_string(),
            &[("path", &self.path.display().to_string())],
        );
        self.warnings.push(warning);
    }

    /// The in-memory mirror, scanning the file on first use.
    fn loaded(&mut self) -> &mut Loaded {
        if self.state.is_none() {
            let (loaded, warnings) = scan(&self.path, &self.config);
            for warning in warnings {
                self.warn(warning);
            }
            self.state = Some(loaded);
        }
        self.state.as_mut().expect("state just initialized")
    }

    /// Rewrites the store file from the live set (temp file + rename,
    /// so a crash mid-compaction leaves either the old or new file).
    fn compact(&mut self) -> bool {
        let state = self.state.as_mut().expect("compact runs on loaded state");
        let mut bytes = Vec::with_capacity(state.live_bytes as usize);
        for key in &state.order {
            if let Some(plan) = state.plans.get(key) {
                bytes.extend_from_slice(&encode_record(key, plan));
            }
        }
        state.live_bytes = bytes.len() as u64;
        state.file_bytes = bytes.len() as u64;
        let tmp = self.path.with_extension("qps.tmp");
        let result = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &self.path));
        match result {
            Ok(()) => true,
            Err(e) => {
                self.warn(StoreWarning::Io {
                    op: "compact",
                    message: e.to_string(),
                });
                false
            }
        }
    }
}

/// The bytes [`encode_record`] writes for one record.
fn record_len(key_bytes: &[u8], plan: &[(u32, u32)]) -> u64 {
    (RECORD_HEADER + key_bytes.len() + 8 * plan.len()) as u64
}

/// Serializes one record.
fn encode_record(key_bytes: &[u8], plan: &[(u32, u32)]) -> Vec<u8> {
    let mut plan_bytes = Vec::with_capacity(plan.len() * 8);
    for &(a, b) in plan {
        plan_bytes.extend_from_slice(&a.to_le_bytes());
        plan_bytes.extend_from_slice(&b.to_le_bytes());
    }
    let mut body = Vec::with_capacity(key_bytes.len() + plan_bytes.len());
    body.extend_from_slice(key_bytes);
    body.extend_from_slice(&plan_bytes);
    let mut out = Vec::with_capacity(RECORD_HEADER + body.len());
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&(key_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&(plan_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Scans the store file into its in-memory mirror, collecting typed
/// warnings for every defect. Arbitrary bytes never panic.
fn scan(path: &Path, config: &PlanStoreConfig) -> (Loaded, Vec<StoreWarning>) {
    let mut loaded = Loaded {
        plans: HashMap::new(),
        order: VecDeque::new(),
        live_bytes: 0,
        file_bytes: 0,
    };
    let mut warnings = Vec::new();
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return (loaded, warnings),
        Err(e) => {
            warnings.push(StoreWarning::Io {
                op: "read",
                message: e.to_string(),
            });
            return (loaded, warnings);
        }
    };
    loaded.file_bytes = bytes.len() as u64;
    let mut offset = 0usize;
    while offset < bytes.len() {
        if bytes.len() - offset < RECORD_HEADER {
            warnings.push(StoreWarning::TruncatedTail {
                offset: offset as u64,
            });
            break;
        }
        if read_u32(&bytes, offset) != RECORD_MAGIC {
            // Lost framing: resynchronization would be guesswork.
            warnings.push(StoreWarning::CorruptRecord {
                offset: offset as u64,
            });
            break;
        }
        let version = read_u32(&bytes, offset + 4);
        let key_len = read_u32(&bytes, offset + 8);
        let plan_len = read_u32(&bytes, offset + 12);
        if key_len > MAX_FIELD || plan_len > MAX_FIELD {
            warnings.push(StoreWarning::CorruptRecord {
                offset: offset as u64,
            });
            break;
        }
        let body_len = (key_len + plan_len) as usize;
        let body_start = offset + RECORD_HEADER;
        if bytes.len() - body_start < body_len {
            warnings.push(StoreWarning::TruncatedTail {
                offset: offset as u64,
            });
            break;
        }
        let next = body_start + body_len;
        if version != STORE_VERSION {
            warnings.push(StoreWarning::AlienVersion {
                offset: offset as u64,
                version,
            });
            offset = next;
            continue;
        }
        let checksum =
            u64::from_le_bytes(bytes[offset + 16..offset + 24].try_into().expect("8 bytes"));
        let body = &bytes[body_start..next];
        if fnv1a(body) != checksum || plan_len % 8 != 0 {
            // A bit flip anywhere in the body (or an impossible plan
            // length): the frame itself is intact, so skip just this
            // record and keep scanning.
            warnings.push(StoreWarning::CorruptRecord {
                offset: offset as u64,
            });
            offset = next;
            continue;
        }
        let key = body[..key_len as usize].to_vec();
        let plan: Vec<(u32, u32)> = body[key_len as usize..]
            .chunks_exact(8)
            .map(|pair| {
                (
                    u32::from_le_bytes(pair[..4].try_into().expect("4 bytes")),
                    u32::from_le_bytes(pair[4..].try_into().expect("4 bytes")),
                )
            })
            .collect();
        let record_bytes = (RECORD_HEADER + body_len) as u64;
        if let Some(old) = loaded.plans.insert(key.clone(), plan) {
            // Newest duplicate wins; drop the stale order entry.
            loaded.live_bytes -= record_len(&key, &old);
            loaded.order.retain(|k| *k != key);
        }
        loaded.order.push_back(key);
        loaded.live_bytes += record_bytes;
        offset = next;
        // Enforce the bounds on load too: an over-bound file (written
        // by a looser config, or adversarially) is trimmed FIFO.
        loaded.trim(config);
    }
    (loaded, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qlosure-plan-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(tag: u8) -> Vec<u8> {
        vec![tag; 16]
    }

    #[test]
    fn round_trips_across_store_instances() {
        let dir = temp_store_dir("roundtrip");
        let mut store = PlanStore::open(&dir).unwrap();
        assert!(store.append(&key(1), &[(0, 1), (1, 2)]));
        assert!(store.append(&key(2), &[(3, 4)]));
        drop(store);
        let mut reopened = PlanStore::open(&dir).unwrap();
        assert_eq!(reopened.load(&key(1)), Some(vec![(0, 1), (1, 2)]));
        assert_eq!(reopened.load(&key(2)), Some(vec![(3, 4)]));
        assert_eq!(reopened.load(&key(9)), None);
        assert!(reopened.take_warnings().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_loads_the_prefix_with_a_warning() {
        let dir = temp_store_dir("truncated");
        let mut store = PlanStore::open(&dir).unwrap();
        store.append(&key(1), &[(0, 1)]);
        store.append(&key(2), &[(2, 3)]);
        drop(store);
        let file = dir.join(FILE_NAME);
        let bytes = std::fs::read(&file).unwrap();
        std::fs::write(&file, &bytes[..bytes.len() - 5]).unwrap();
        let mut reopened = PlanStore::open(&dir).unwrap();
        assert_eq!(reopened.load(&key(1)), Some(vec![(0, 1)]));
        assert_eq!(reopened.load(&key(2)), None);
        assert!(matches!(
            reopened.take_warnings().as_slice(),
            [StoreWarning::TruncatedTail { .. }]
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_skips_only_the_damaged_record() {
        let dir = temp_store_dir("bitflip");
        let mut store = PlanStore::open(&dir).unwrap();
        store.append(&key(1), &[(0, 1)]);
        store.append(&key(2), &[(2, 3)]);
        drop(store);
        let file = dir.join(FILE_NAME);
        let mut bytes = std::fs::read(&file).unwrap();
        // Flip a byte inside record 1's body (offset header + 3): the
        // checksum rejects it, the frame survives, record 2 loads.
        bytes[RECORD_HEADER + 3] ^= 0x40;
        std::fs::write(&file, &bytes).unwrap();
        let mut reopened = PlanStore::open(&dir).unwrap();
        assert_eq!(reopened.load(&key(1)), None);
        assert_eq!(reopened.load(&key(2)), Some(vec![(2, 3)]));
        assert!(matches!(
            reopened.take_warnings().as_slice(),
            [StoreWarning::CorruptRecord { .. }]
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_files_never_panic_and_load_empty() {
        let dir = temp_store_dir("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(FILE_NAME), b"not a plan store at all....").unwrap();
        let mut store = PlanStore::open(&dir).unwrap();
        assert_eq!(store.load(&key(1)), None);
        assert_eq!(store.entries(), 0);
        assert!(matches!(
            store.take_warnings().as_slice(),
            [StoreWarning::CorruptRecord { .. }]
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn alien_version_records_are_skipped_not_decoded() {
        let dir = temp_store_dir("alien");
        let mut store = PlanStore::open(&dir).unwrap();
        store.append(&key(1), &[(0, 1)]);
        drop(store);
        let file = dir.join(FILE_NAME);
        // Append a hand-built record claiming version 99, then a valid
        // one: the alien body is never decoded, the valid one loads.
        let mut alien = encode_record(&key(7), &[(9, 9)]);
        alien[4..8].copy_from_slice(&99u32.to_le_bytes());
        let mut bytes = std::fs::read(&file).unwrap();
        bytes.extend_from_slice(&alien);
        bytes.extend_from_slice(&encode_record(&key(2), &[(5, 6)]));
        std::fs::write(&file, &bytes).unwrap();
        let mut reopened = PlanStore::open(&dir).unwrap();
        assert_eq!(reopened.load(&key(1)), Some(vec![(0, 1)]));
        assert_eq!(reopened.load(&key(7)), None);
        assert_eq!(reopened.load(&key(2)), Some(vec![(5, 6)]));
        assert!(matches!(
            reopened.take_warnings().as_slice(),
            [StoreWarning::AlienVersion { version: 99, .. }]
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adversarial_writes_stay_within_the_byte_bound() {
        let dir = temp_store_dir("bounds");
        let config = PlanStoreConfig {
            max_entries: 1024,
            max_bytes: 2048,
        };
        let mut store = PlanStore::open_with(&dir, config).unwrap();
        for tag in 0..200u8 {
            store.append(&[tag; 24], &[(u32::from(tag), u32::from(tag) + 1)]);
            assert!(
                store.file_bytes() <= config.max_bytes,
                "file exceeded its byte bound at record {tag}"
            );
        }
        // Newest records survive, oldest were evicted FIFO.
        assert_eq!(store.load(&[199u8; 24]), Some(vec![(199, 200)]));
        assert_eq!(store.load(&[0u8; 24]), None);
        let on_disk = std::fs::metadata(dir.join(FILE_NAME)).unwrap().len();
        assert!(
            on_disk <= config.max_bytes,
            "on-disk size {on_disk} over bound"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_bound_evicts_fifo() {
        let dir = temp_store_dir("entries");
        let config = PlanStoreConfig {
            max_entries: 3,
            max_bytes: 1 << 20,
        };
        let mut store = PlanStore::open_with(&dir, config).unwrap();
        for tag in 0..5u8 {
            store.append(&key(tag), &[(0, 1)]);
        }
        assert_eq!(store.entries(), 3);
        assert_eq!(store.load(&key(0)), None);
        assert_eq!(store.load(&key(1)), None);
        assert_eq!(store.load(&key(4)), Some(vec![(0, 1)]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_records_are_refused_with_a_warning() {
        let dir = temp_store_dir("oversized");
        let config = PlanStoreConfig {
            max_entries: 16,
            max_bytes: 64,
        };
        let mut store = PlanStore::open_with(&dir, config).unwrap();
        let huge: Vec<(u32, u32)> = (0..64).map(|i| (i, i + 1)).collect();
        assert!(!store.append(&key(1), &huge));
        assert!(matches!(
            store.take_warnings().as_slice(),
            [StoreWarning::OversizedRecord { .. }]
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
