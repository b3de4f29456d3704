//! Versioned, checksummed on-disk persistence for serde-encodable types.
//!
//! The batch service checkpoints job state to disk and must survive two
//! distinct failure modes: *stale readers* (a newer binary wrote a
//! format this binary does not understand) and *torn writes* (the
//! process died mid-write, leaving a truncated or corrupt file). This
//! module wraps the raw [`serde`] codec bytes in a small envelope that
//! detects both:
//!
//! ```text
//! ┌──────────┬─────────────┬──────────────┬─────────┬──────────────┐
//! │ magic 4B │ version u32 │ payload-len  │ payload │ FNV-1a-64    │
//! │ "TLKP"   │ (LE)        │ u64 (LE)     │ bytes   │ checksum (LE)│
//! └──────────┴─────────────┴──────────────┴─────────┴──────────────┘
//! ```
//!
//! The checksum covers everything before it (magic, version, length,
//! payload), so any single-bit flip or truncation anywhere in the file
//! is caught before the payload is decoded.
//!
//! # Version policy
//!
//! [`FORMAT_VERSION`] identifies the envelope *and* payload encoding as
//! a unit. Readers refuse anything but an exact match with
//! [`PersistError::UnsupportedVersion`] — forward-refusal, no silent
//! best-effort decoding of future formats. Any change to the wire
//! encoding of a persisted type (field/variant reorder, type change,
//! codec change) must bump this constant.
//!
//! # Atomicity
//!
//! [`save`] writes to a `.tmp` sibling, calls `sync_all`, then renames
//! over the destination — on POSIX filesystems the destination is
//! always either the complete old file or the complete new file, never
//! a mixture. [`save_unsynced`] stages and renames the same way but
//! skips the `sync_all`: a crashed *process* (`kill -9`, abort) still
//! leaves the old or the new file, since the page cache survives it,
//! but a power loss may leave the destination empty or the rename
//! undone. Callers use it only for a file whose loss costs a redo of
//! work, never data (the job runner's `Done` checkpoint).
//!
//! # Example
//!
//! ```
//! use qcir::{persist, Circuit};
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1);
//!
//! let dir = std::env::temp_dir().join(format!("qcir-persist-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("bell.bin");
//! persist::save(&path, &c).unwrap();
//! let back: Circuit = persist::load(&path).unwrap();
//! assert_eq!(back, c);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use serde::codec::DecodeError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic bytes opening every persisted file (`TLKP` = TetrisLock
/// Persist).
pub const MAGIC: [u8; 4] = *b"TLKP";

/// Current on-disk format version.
///
/// Bump this whenever the envelope layout *or* the serde encoding of
/// any persisted type changes. Readers hard-refuse any other value.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed-size prefix: magic + version + payload length.
const HEADER_LEN: usize = 4 + 4 + 8;

/// Trailing checksum width.
const CHECKSUM_LEN: usize = 8;

/// Why a persisted file could not be written or read back.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file being read or written.
        path: PathBuf,
        /// The OS-level error.
        source: std::io::Error,
    },
    /// The file does not start with [`MAGIC`] — it is not a persist
    /// file at all (or the header itself was destroyed).
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file's version field is not [`FORMAT_VERSION`].
    ///
    /// Raised for *both* older and newer versions: this build only
    /// understands exactly one format, and guessing at others risks
    /// silently mis-decoding job state.
    UnsupportedVersion {
        /// The version recorded in the file.
        found: u32,
        /// The only version this build accepts.
        supported: u32,
    },
    /// The file is truncated, or its checksum does not match — the
    /// write was torn or the bytes rotted.
    Corrupt {
        /// Human-readable detail (what check failed and where).
        detail: String,
    },
    /// The envelope was intact but the payload failed to decode.
    ///
    /// With a valid checksum this indicates a schema mismatch (the
    /// payload was written by code whose types differ from ours despite
    /// the matching version number) and is a bug, not bit-rot.
    Decode(DecodeError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            PersistError::BadMagic { found } => write!(
                f,
                "not a TetrisLock persist file (magic {found:02x?}, expected {MAGIC:02x?})"
            ),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads only version \
                 {supported}); re-run the job from scratch or use a matching binary"
            ),
            PersistError::Corrupt { detail } => write!(f, "corrupt persist file: {detail}"),
            PersistError::Decode(err) => write!(f, "payload decode failed: {err}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Decode(err) => Some(err),
            _ => None,
        }
    }
}

impl From<DecodeError> for PersistError {
    fn from(err: DecodeError) -> Self {
        PersistError::Decode(err)
    }
}

/// FNV-1a 64-bit hash — tiny, dependency-free, and plenty for torn-write
/// detection (this is an integrity check, not a cryptographic seal).
/// The job driver also derives its per-job retry jitter seed from it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encodes `value` into a complete envelope (header + payload +
/// checksum) in memory.
pub fn to_envelope<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let payload = serde::to_bytes(value);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes a `T` from envelope `bytes`, validating magic, version,
/// length, and checksum before touching the payload.
///
/// # Errors
///
/// [`PersistError::BadMagic`], [`PersistError::UnsupportedVersion`],
/// [`PersistError::Corrupt`] (truncation / checksum mismatch), or
/// [`PersistError::Decode`]. Never panics, whatever the input.
pub fn from_envelope<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> Result<T, PersistError> {
    if bytes.len() < 4 {
        return Err(PersistError::Corrupt {
            detail: format!("file is {} byte(s), shorter than the magic", bytes.len()),
        });
    }
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&bytes[..4]);
    if magic != MAGIC {
        return Err(PersistError::BadMagic { found: magic });
    }
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::Corrupt {
            detail: format!(
                "file is {} byte(s), shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            ),
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("slice is 4 bytes"));
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("slice is 8 bytes"));
    let expected_total = (HEADER_LEN as u64)
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(CHECKSUM_LEN as u64))
        .ok_or_else(|| PersistError::Corrupt {
            detail: format!("payload length {payload_len} overflows"),
        })?;
    if bytes.len() as u64 != expected_total {
        return Err(PersistError::Corrupt {
            detail: format!(
                "file is {} byte(s) but header claims {expected_total} \
                 (payload {payload_len} + framing)",
                bytes.len()
            ),
        });
    }
    let checksummed = &bytes[..bytes.len() - CHECKSUM_LEN];
    let stored = u64::from_le_bytes(
        bytes[bytes.len() - CHECKSUM_LEN..]
            .try_into()
            .expect("slice is 8 bytes"),
    );
    let computed = fnv1a64(checksummed);
    if stored != computed {
        return Err(PersistError::Corrupt {
            detail: format!("checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"),
        });
    }
    let payload = &bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN];
    Ok(serde::from_bytes(payload)?)
}

/// Atomically writes `value` to `path` (see [`write_atomic`]).
///
/// # Errors
///
/// [`PersistError::Io`] if any filesystem step fails.
pub fn save<T: Serialize + ?Sized>(path: &Path, value: &T) -> Result<(), PersistError> {
    write_atomic(path, &to_envelope(value))
}

/// Atomically writes `value` to `path` like [`save`], without syncing
/// it to disk (see the module's Atomicity section).
///
/// # Errors
///
/// [`PersistError::Io`] if any filesystem step fails.
pub fn save_unsynced<T: Serialize + ?Sized>(path: &Path, value: &T) -> Result<(), PersistError> {
    stage_and_rename(path, &to_envelope(value), false)
}

/// Atomically and durably replaces `path` with `bytes`.
///
/// The bytes are written to `<path>.tmp`, synced, then renamed over
/// `path`, so a crash at any instant leaves `path` either absent, the
/// previous complete file, or the new complete file — and once this
/// returns, a power loss cannot leave the rename pointing at unwritten
/// data.
///
/// # Errors
///
/// [`PersistError::Io`] if any filesystem step fails.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    stage_and_rename(path, bytes, true)
}

/// Writes `bytes` to `<path>.tmp`, syncs it if `sync`, and renames it
/// over `path`.
fn stage_and_rename(path: &Path, bytes: &[u8], sync: bool) -> Result<(), PersistError> {
    let tmp = tmp_path(path);
    let io_err = |source| PersistError::Io {
        path: tmp.clone(),
        source,
    };
    let mut file = fs::File::create(&tmp).map_err(io_err)?;
    file.write_all(bytes).map_err(io_err)?;
    if sync {
        file.sync_all().map_err(io_err)?;
    }
    drop(file);
    fs::rename(&tmp, path).map_err(|source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Reads and decodes a `T` from `path`.
///
/// # Errors
///
/// [`PersistError::Io`] if the file cannot be read, otherwise any of
/// the [`from_envelope`] errors.
pub fn load<T: for<'de> Deserialize<'de>>(path: &Path) -> Result<T, PersistError> {
    let bytes = fs::read(path).map_err(|source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    from_envelope(&bytes)
}

/// The sibling temp-file path `save` stages its write through.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Removes orphaned `*.tmp` staging files from `dir` and returns the
/// paths it deleted.
///
/// A `.tmp` sibling only exists between [`save`]'s write and its
/// rename; one that outlives its writer is debris from a crashed
/// process. The `min_age` gate (measured against the file's mtime)
/// protects staging files a *concurrent* writer is producing right
/// now — callers pass their tolerance explicitly ([`std::time::Duration::ZERO`]
/// sweeps unconditionally, which is what tests use).
///
/// Non-`.tmp` entries, subdirectories, and files younger than
/// `min_age` are left untouched. Files that vanish mid-sweep (another
/// process won the race) are skipped, not errors.
///
/// # Errors
///
/// Only if `dir` itself cannot be read.
pub fn sweep_orphan_tmps(
    dir: &Path,
    min_age: std::time::Duration,
) -> std::io::Result<Vec<PathBuf>> {
    let now = std::time::SystemTime::now();
    let mut removed = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let is_tmp = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".tmp"));
        if !is_tmp || !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            continue;
        }
        let Ok(meta) = entry.metadata() else { continue };
        // A future mtime (clock skew) counts as age zero.
        let age = meta
            .modified()
            .ok()
            .and_then(|m| now.duration_since(m).ok())
            .unwrap_or(std::time::Duration::ZERO);
        if age >= min_age && fs::remove_file(&path).is_ok() {
            removed.push(path);
        }
    }
    removed.sort();
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Circuit;

    fn sample() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(0.25, 2).ccx(0, 1, 2);
        c
    }

    #[test]
    fn envelope_roundtrip() {
        let c = sample();
        let bytes = to_envelope(&c);
        let back: Circuit = from_envelope(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = to_envelope(&sample());
        bytes[0] = b'X';
        assert!(matches!(
            from_envelope::<Circuit>(&bytes),
            Err(PersistError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version_refused() {
        let mut bytes = to_envelope(&sample());
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        // Re-seal so only the version check can fire.
        let len = bytes.len();
        let checksum = fnv1a64(&bytes[..len - CHECKSUM_LEN]);
        bytes[len - CHECKSUM_LEN..].copy_from_slice(&checksum.to_le_bytes());
        match from_envelope::<Circuit>(&bytes) {
            Err(PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_a_clean_error() {
        let bytes = to_envelope(&sample());
        for cut in 0..bytes.len() {
            assert!(
                from_envelope::<Circuit>(&bytes[..cut]).is_err(),
                "truncation at byte {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn every_bitflip_is_detected() {
        let bytes = to_envelope(&sample());
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x01;
            assert!(
                from_envelope::<Circuit>(&mutated).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn save_load_roundtrip_and_tmp_cleanup() {
        let dir = std::env::temp_dir().join(format!("qcir-persist-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("circuit.bin");
        let c = sample();
        save(&path, &c).unwrap();
        assert!(!tmp_path(&path).exists(), "tmp file left behind");
        let back: Circuit = load(&path).unwrap();
        assert_eq!(back, c);
        let unsynced = dir.join("unsynced.bin");
        save_unsynced(&unsynced, &c).unwrap();
        assert!(!tmp_path(&unsynced).exists(), "tmp file left behind");
        assert_eq!(fs::read(&unsynced).unwrap(), fs::read(&path).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_replaces_whole_file_and_reports_io_errors() {
        let dir = std::env::temp_dir().join(format!("qcir-atomic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");
        write_atomic(&path, b"first version, longer").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!tmp_path(&path).exists(), "tmp file left behind");
        let missing = dir.join("no-such-dir").join("out.txt");
        match write_atomic(&missing, b"x") {
            Err(PersistError::Io { path, .. }) => assert_eq!(path, tmp_path(&missing)),
            other => panic!("expected an i/o error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
