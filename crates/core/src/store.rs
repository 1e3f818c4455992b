//! Durable checkpoints for the analyzer's trained state.
//!
//! The analyzer is only useful if its trained model survives the
//! failures it is supposed to detect. This module persists everything a
//! restarted analyzer pool needs to resume detection —
//! [`OutlierModel`], [`SignatureInterner`], and one
//! [`DetectorSnapshot`] per shard — in a versioned, CRC-32-framed file
//! written atomically (temp file + fsync + rename + directory fsync).
//!
//! ## File format
//!
//! Fixed big-endian header in the style of [`crate::transport`] frames,
//! varint/delta payload in the style of [`crate::codec`]:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SAADCKPT"
//! 8       2     format version (u16, currently 1)
//! 10      8     generation (u64, monotonically increasing)
//! 18      4     payload length (u32)
//! 22      n     payload
//! 22+n    4     CRC-32 (IEEE) over bytes 8..22+n (version..payload)
//! ```
//!
//! The payload is `model | interner | shard count | shard snapshots`:
//! the model via [`OutlierModel::encode_into`], the interner as its
//! per-shard signature lists (so restore reproduces **exactly** the same
//! [`crate::intern::SigId`] assignment, keeping the ids inside detector
//! snapshots valid), and each shard via
//! [`DetectorSnapshot::encode_into`]. The compiled model is *not*
//! stored; it is deterministically recompiled from the restored model
//! and interner on load.
//!
//! ## Recovery
//!
//! [`CheckpointStore::recover`] scans the directory newest-generation
//! first and returns the first checkpoint that decodes cleanly, along
//! with a typed [`CheckpointError`] for every newer file it had to
//! reject (corrupt, truncated, or version-skewed). A crash mid-write
//! can therefore cost at most the newest generation, never the store.

use crate::codec::{get_points, get_varint, put_points, put_varint, DecodeError};
use crate::detector::DetectorSnapshot;
use crate::intern::SignatureInterner;
use crate::model::{CompiledModel, OutlierModel};
use crate::transport::crc32;
use crate::Signature;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"SAADCKPT";

/// Checkpoint format version written by this build and the only one it
/// accepts; older/newer files are rejected with
/// [`CheckpointError::VersionSkew`].
pub const CHECKPOINT_VERSION: u16 = 1;

/// magic + version + generation + payload length.
const HEADER_LEN: usize = 8 + 2 + 8 + 4;

/// Sanity bound on interner shards and detector shards in a checkpoint.
const MAX_CHECKPOINT_SHARDS: u64 = 1 << 16;
/// Sanity bound on interned signatures per interner shard.
const MAX_CHECKPOINT_SIGS: u64 = 1 << 26;

/// Why a checkpoint file was rejected (or could not be written).
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Filesystem error (message form of the underlying `io::Error`).
    Io(String),
    /// File shorter than its header + declared payload + trailer.
    Truncated,
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not the one this build supports.
    VersionSkew {
        /// Version found in the file.
        found: u16,
        /// Version this build reads and writes.
        supported: u16,
    },
    /// The CRC-32 trailer does not match the file contents.
    ChecksumMismatch {
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the file contents.
        computed: u32,
    },
    /// The payload passed the checksum but failed structural decoding
    /// (format drift or a buggy writer).
    Codec(DecodeError),
    /// The payload decoded but left unconsumed bytes.
    TrailingBytes(usize),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::Truncated => f.write_str("checkpoint file truncated"),
            CheckpointError::BadMagic => f.write_str("not a checkpoint file (bad magic)"),
            CheckpointError::VersionSkew { found, supported } => write!(
                f,
                "checkpoint version {found} not supported (this build reads {supported})"
            ),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CheckpointError::Codec(e) => write!(f, "checkpoint payload malformed: {e}"),
            CheckpointError::TrailingBytes(n) => {
                write!(f, "checkpoint payload has {n} trailing bytes")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> CheckpointError {
        CheckpointError::Codec(e)
    }
}

fn io_err(e: std::io::Error) -> CheckpointError {
    CheckpointError::Io(e.to_string())
}

/// One durable generation of analyzer state: the trained model, the
/// signature interner that issued every id the model and snapshots
/// reference, and one detector snapshot per shard.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Monotonically increasing generation number (embedded in the file
    /// name and header; recovery prefers the newest valid one).
    pub generation: u64,
    /// The trained model.
    pub model: Arc<OutlierModel>,
    /// Compiled form of `model` against `interner` (recomputed on load,
    /// never serialized).
    pub compiled: Arc<CompiledModel>,
    /// The interner, restored with identical id assignment.
    pub interner: Arc<SignatureInterner>,
    /// Per-shard detector state, in shard order.
    pub shards: Vec<DetectorSnapshot>,
}

impl Checkpoint {
    /// Assemble a checkpoint from live pool state.
    pub fn new(
        generation: u64,
        model: Arc<OutlierModel>,
        compiled: Arc<CompiledModel>,
        interner: Arc<SignatureInterner>,
        shards: Vec<DetectorSnapshot>,
    ) -> Checkpoint {
        Checkpoint {
            generation,
            model,
            compiled,
            interner,
            shards,
        }
    }

    /// Serialize to the framed file format (header + payload + CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = BytesMut::new();
        self.model.encode_into(&mut payload);
        let contents = self.interner.shard_contents();
        put_varint(&mut payload, contents.len() as u64);
        for shard in &contents {
            put_varint(&mut payload, shard.len() as u64);
            for sig in shard {
                put_points(&mut payload, sig.points());
            }
        }
        put_varint(&mut payload, self.shards.len() as u64);
        for shard in &self.shards {
            shard.encode_into(&mut payload);
        }
        let mut out = BytesMut::with_capacity(HEADER_LEN + payload.len() + 4);
        out.extend_from_slice(MAGIC);
        out.put_u16(CHECKPOINT_VERSION);
        out.put_u64(self.generation);
        out.put_u32(payload.len() as u32);
        out.extend_from_slice(&payload);
        let crc = crc32(&[&out[8..]]);
        out.put_u32(crc);
        out.to_vec()
    }

    /// Decode a checkpoint file, with typed rejection of truncated,
    /// corrupt, and version-skewed inputs.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] / [`CheckpointError::BadMagic`] on
    /// framing damage, [`CheckpointError::ChecksumMismatch`] on payload
    /// corruption (checked before anything else is parsed),
    /// [`CheckpointError::VersionSkew`] for files written by a different
    /// format version, and [`CheckpointError::Codec`] /
    /// [`CheckpointError::TrailingBytes`] for structurally malformed
    /// payloads.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < HEADER_LEN + 4 {
            return Err(CheckpointError::Truncated);
        }
        if &bytes[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u16::from_be_bytes([bytes[8], bytes[9]]);
        let mut gen_raw = [0u8; 8];
        gen_raw.copy_from_slice(&bytes[10..18]);
        let generation = u64::from_be_bytes(gen_raw);
        let payload_len = u32::from_be_bytes([bytes[18], bytes[19], bytes[20], bytes[21]]) as usize;
        if bytes.len() != HEADER_LEN + payload_len + 4 {
            return Err(CheckpointError::Truncated);
        }
        let body_end = HEADER_LEN + payload_len;
        let mut crc_raw = [0u8; 4];
        crc_raw.copy_from_slice(&bytes[body_end..]);
        let stored = u32::from_be_bytes(crc_raw);
        let computed = crc32(&[&bytes[8..body_end]]);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionSkew {
                found: version,
                supported: CHECKPOINT_VERSION,
            });
        }
        let mut payload = Bytes::copy_from_slice(&bytes[HEADER_LEN..body_end]);
        let model = Arc::new(OutlierModel::decode_from(&mut payload)?);
        let shard_count = get_varint(&mut payload)?;
        if shard_count > MAX_CHECKPOINT_SHARDS {
            return Err(DecodeError::LengthOutOfRange(shard_count).into());
        }
        let mut contents = Vec::with_capacity(shard_count as usize);
        for _ in 0..shard_count {
            let sig_count = get_varint(&mut payload)?;
            if sig_count > MAX_CHECKPOINT_SIGS {
                return Err(DecodeError::LengthOutOfRange(sig_count).into());
            }
            let mut sigs = Vec::with_capacity(sig_count as usize);
            for _ in 0..sig_count {
                sigs.push(Signature::from_points(get_points(&mut payload)?));
            }
            contents.push(sigs);
        }
        let interner = Arc::new(SignatureInterner::from_shard_contents(contents));
        let compiled = Arc::new(model.compile(&interner));
        let detector_shards = get_varint(&mut payload)?;
        if detector_shards > MAX_CHECKPOINT_SHARDS {
            return Err(DecodeError::LengthOutOfRange(detector_shards).into());
        }
        let mut shards = Vec::with_capacity(detector_shards as usize);
        for _ in 0..detector_shards {
            shards.push(DetectorSnapshot::decode_from(
                &mut payload,
                model.clone(),
                compiled.clone(),
                interner.clone(),
            )?);
        }
        if !payload.is_empty() {
            return Err(CheckpointError::TrailingBytes(payload.remaining()));
        }
        Ok(Checkpoint {
            generation,
            model,
            compiled,
            interner,
            shards,
        })
    }
}

/// What [`CheckpointStore::recover`] found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// The newest checkpoint that decoded cleanly, if any.
    pub checkpoint: Option<Checkpoint>,
    /// Newer files that were rejected, newest first, with why.
    pub rejected: Vec<(PathBuf, CheckpointError)>,
}

/// A directory of checkpoint generations with atomic writes and
/// newest-valid recovery.
///
/// Files are named `ckpt-<generation, 16 hex digits>.ckpt`, so
/// lexicographic order is generation order. Writes go through a `.tmp`
/// file that is fsynced and renamed into place, then the directory is
/// fsynced — a crash at any point leaves either the old set of files or
/// the old set plus one complete new file, never a torn checkpoint
/// under the final name.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory, retaining the
    /// newest `keep` generations on save (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be created.
    pub fn create(
        dir: impl Into<PathBuf>,
        keep: usize,
    ) -> Result<CheckpointStore, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err)?;
        Ok(CheckpointStore {
            dir,
            keep: keep.max(1),
        })
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{generation:016x}.ckpt"))
    }

    /// Completed checkpoint generations on disk, ascending, with paths.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be read.
    pub fn generations(&self) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(io_err)? {
            let entry = entry.map_err(io_err)?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(hex) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".ckpt"))
            else {
                continue;
            };
            let Ok(generation) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            out.push((generation, entry.path()));
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Newest generation number present on disk (valid or not).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be read.
    pub fn latest_generation(&self) -> Result<Option<u64>, CheckpointError> {
        Ok(self.generations()?.last().map(|&(g, _)| g))
    }

    /// Atomically persist a checkpoint and prune old generations.
    /// Returns the final path.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure; the final file
    /// name is never left containing a partial write.
    pub fn save(&self, checkpoint: &Checkpoint) -> Result<PathBuf, CheckpointError> {
        let bytes = checkpoint.encode();
        let tmp = self
            .dir
            .join(format!("ckpt-{:016x}.tmp", checkpoint.generation));
        {
            let mut f = fs::File::create(&tmp).map_err(io_err)?;
            f.write_all(&bytes).map_err(io_err)?;
            f.sync_all().map_err(io_err)?;
        }
        let path = self.path_for(checkpoint.generation);
        fs::rename(&tmp, &path).map_err(io_err)?;
        // Make the rename itself durable. Directory fsync can fail on
        // filesystems that don't support opening directories; the data
        // file is already synced, so treat that as best-effort.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.prune()?;
        Ok(path)
    }

    /// Delete all but the newest `keep` generations.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if listing or deletion fails.
    pub fn prune(&self) -> Result<(), CheckpointError> {
        let generations = self.generations()?;
        if generations.len() > self.keep {
            for (_, path) in &generations[..generations.len() - self.keep] {
                fs::remove_file(path).map_err(io_err)?;
            }
        }
        Ok(())
    }

    /// Load and decode one specific generation.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read, otherwise any
    /// [`Checkpoint::decode`] rejection.
    pub fn load(&self, generation: u64) -> Result<Checkpoint, CheckpointError> {
        let bytes = fs::read(self.path_for(generation)).map_err(io_err)?;
        Checkpoint::decode(&bytes)
    }

    /// Recover the newest checkpoint that decodes cleanly, recording a
    /// typed rejection for every newer file that didn't. An empty or
    /// absent set of files yields `checkpoint: None` (bootstrap mode).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] only if the directory itself cannot be
    /// listed — unreadable individual files are rejections, not errors.
    pub fn recover(&self) -> Result<Recovery, CheckpointError> {
        let mut rejected = Vec::new();
        for (_, path) in self.generations()?.into_iter().rev() {
            let result = fs::read(&path)
                .map_err(io_err)
                .and_then(|bytes| Checkpoint::decode(&bytes));
            match result {
                Ok(checkpoint) => {
                    return Ok(Recovery {
                        checkpoint: Some(checkpoint),
                        rejected,
                    })
                }
                Err(e) => rejected.push((path, e)),
            }
        }
        Ok(Recovery {
            checkpoint: None,
            rejected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{AnomalyDetector, DetectorConfig};
    use crate::feature::InternedFeature;
    use crate::model::{ModelBuilder, ModelConfig};
    use crate::synopsis::TaskSynopsis;
    use crate::{HostId, StageId, TaskUid};
    use saad_logging::LogPointId;
    use saad_sim::{SimDuration, SimTime};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Fresh scratch directory per test, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("saad-store-test-{}-{n}", std::process::id()));
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn synopsis(stage: u16, points: &[u16], dur_us: u64, start: SimTime, uid: u64) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(0),
            stage: StageId(stage),
            uid: TaskUid(uid),
            start,
            duration: SimDuration::from_micros(dur_us),
            log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
        }
    }

    /// A checkpoint with real trained state and open detector windows.
    fn sample_checkpoint(generation: u64) -> Checkpoint {
        let mut b = ModelBuilder::new();
        for i in 0..2_000u64 {
            let s = if i.is_multiple_of(500) {
                synopsis(0, &[1, 2, 3], 10_000, SimTime::ZERO, i)
            } else {
                synopsis(0, &[1, 2], 9_000 + (i % 37) * 25, SimTime::ZERO, i)
            };
            b.observe(&s);
        }
        let model = Arc::new(b.build(ModelConfig::default()));
        let mut d = AnomalyDetector::new(model.clone(), DetectorConfig::default());
        d.record_loss(HostId(0), SimTime::from_secs(20), 7);
        for i in 0..80u64 {
            let mut s = if i % 9 == 0 {
                synopsis(0, &[1, 2, 3], 10_000, SimTime::ZERO, i)
            } else {
                synopsis(0, &[1, 2], 9_500, SimTime::ZERO, i)
            };
            s.start = SimTime::from_millis(i * 30);
            let f = InternedFeature::from_synopsis(&s, d.interner());
            d.observe_interned(&f);
        }
        let interner = d.interner().clone();
        let compiled = d.compiled().clone();
        Checkpoint::new(generation, model, compiled, interner, vec![d.snapshot()])
    }

    #[test]
    fn encode_decode_round_trip() {
        let ckpt = sample_checkpoint(42);
        let bytes = ckpt.encode();
        let decoded = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(decoded.generation, 42);
        assert_eq!(decoded.shards.len(), 1);
        assert_eq!(decoded.interner.len(), ckpt.interner.len());
        assert_eq!(decoded.interner.capacity(), ckpt.interner.capacity());
        // Byte-identical re-encode ⇒ identical restored state.
        assert_eq!(decoded.encode(), bytes);
        assert_eq!(decoded.shards[0].tasks_seen(), ckpt.shards[0].tasks_seen());
        assert_eq!(decoded.shards[0].tasks_lost(), ckpt.shards[0].tasks_lost());
    }

    #[test]
    fn corrupt_byte_is_checksum_mismatch() {
        let bytes = sample_checkpoint(1).encode();
        // Flip one byte everywhere past the magic: every position must be
        // caught by the CRC (header fields may also trip Truncated when
        // the declared length changes — either way, typed rejection).
        for pos in [8, 12, HEADER_LEN, HEADER_LEN + 10, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let err = Checkpoint::decode(&bad).expect_err("corruption accepted");
            assert!(
                matches!(
                    err,
                    CheckpointError::ChecksumMismatch { .. } | CheckpointError::Truncated
                ),
                "pos {pos}: {err:?}"
            );
        }
        // Corrupting the stored CRC itself is also a mismatch.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(
            Checkpoint::decode(&bad),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = sample_checkpoint(1).encode();
        for len in [0, 4, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            assert_eq!(
                Checkpoint::decode(&bytes[..len]).unwrap_err(),
                CheckpointError::Truncated,
                "len {len}"
            );
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample_checkpoint(1).encode();
        bytes[0] = b'X';
        assert_eq!(
            Checkpoint::decode(&bytes).unwrap_err(),
            CheckpointError::BadMagic
        );
    }

    #[test]
    fn version_skew_is_typed_and_checked_after_crc() {
        let mut bytes = sample_checkpoint(1).encode();
        // Bump the version and re-seal the CRC so only the skew remains.
        bytes[9] = 2;
        let body_end = bytes.len() - 4;
        let crc = crc32(&[&bytes[8..body_end]]);
        bytes[body_end..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            Checkpoint::decode(&bytes).unwrap_err(),
            CheckpointError::VersionSkew {
                found: 2,
                supported: CHECKPOINT_VERSION
            }
        );
    }

    #[test]
    fn save_load_and_latest_generation() {
        let tmp = TempDir::new();
        let store = CheckpointStore::create(tmp.path(), 4).unwrap();
        assert_eq!(store.latest_generation().unwrap(), None);
        let path = store.save(&sample_checkpoint(7)).unwrap();
        assert!(path.ends_with("ckpt-0000000000000007.ckpt"));
        assert!(path.exists());
        assert_eq!(store.latest_generation().unwrap(), Some(7));
        let loaded = store.load(7).unwrap();
        assert_eq!(loaded.generation, 7);
        // No temp files left behind.
        let stray: Vec<_> = fs::read_dir(tmp.path())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .collect();
        assert!(stray.is_empty());
    }

    #[test]
    fn recover_prefers_newest_valid_and_reports_rejects() {
        let tmp = TempDir::new();
        let store = CheckpointStore::create(tmp.path(), 8).unwrap();
        store.save(&sample_checkpoint(1)).unwrap();
        store.save(&sample_checkpoint(2)).unwrap();
        store.save(&sample_checkpoint(3)).unwrap();
        // Corrupt generation 3 (bit flip) and truncate generation 2.
        let p3 = tmp.path().join("ckpt-0000000000000003.ckpt");
        let mut b3 = fs::read(&p3).unwrap();
        let mid = b3.len() / 2;
        b3[mid] ^= 0x01;
        fs::write(&p3, &b3).unwrap();
        let p2 = tmp.path().join("ckpt-0000000000000002.ckpt");
        let b2 = fs::read(&p2).unwrap();
        fs::write(&p2, &b2[..b2.len() / 3]).unwrap();
        let recovery = store.recover().unwrap();
        let ckpt = recovery.checkpoint.expect("generation 1 is intact");
        assert_eq!(ckpt.generation, 1);
        assert_eq!(recovery.rejected.len(), 2);
        assert_eq!(recovery.rejected[0].0, p3);
        assert!(matches!(
            recovery.rejected[0].1,
            CheckpointError::ChecksumMismatch { .. }
        ));
        assert_eq!(recovery.rejected[1].0, p2);
        assert_eq!(recovery.rejected[1].1, CheckpointError::Truncated);
    }

    #[test]
    fn recover_empty_store_is_bootstrap() {
        let tmp = TempDir::new();
        let store = CheckpointStore::create(tmp.path(), 2).unwrap();
        let recovery = store.recover().unwrap();
        assert!(recovery.checkpoint.is_none());
        assert!(recovery.rejected.is_empty());
    }

    #[test]
    fn prune_keeps_newest_generations() {
        let tmp = TempDir::new();
        let store = CheckpointStore::create(tmp.path(), 2).unwrap();
        for generation in 1..=5 {
            store.save(&sample_checkpoint(generation)).unwrap();
        }
        let generations: Vec<u64> = store
            .generations()
            .unwrap()
            .into_iter()
            .map(|(g, _)| g)
            .collect();
        assert_eq!(generations, vec![4, 5]);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(CheckpointError::Truncated.to_string().contains("truncated"));
        assert!(CheckpointError::VersionSkew {
            found: 9,
            supported: 1
        }
        .to_string()
        .contains('9'));
        assert!(CheckpointError::ChecksumMismatch {
            stored: 1,
            computed: 2
        }
        .to_string()
        .contains("mismatch"));
        let e: CheckpointError = DecodeError::UnexpectedEof.into();
        assert!(e.to_string().contains("malformed"));
    }
}
