//! [`FileStore`]: a directory of files, one per key, emulating the
//! paper's shared NFS filesystem. One fsync'd rename per save.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use super::{fastrand_u64, StateStore, StoreError};

/// When a [`FileStore`] forces its writes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync every record before the rename publishes it (the crash-safe
    /// default; what the paper's NFS deployment provides).
    #[default]
    Always,
    /// Skip the fsync and trust the OS page cache — measurably faster,
    /// durable only against process death, not machine death. For
    /// benches that want the FileStore code path without its device
    /// stalls.
    Never,
}

/// Directory-backed store: one file per key (slashes become `__`),
/// emulating the shared NFS filesystem.
///
/// Writes are crash-atomic: the payload is framed with a checksum,
/// written to a temp file, fsynced, and renamed into place, so a node
/// that dies mid-`put` leaves either the old value or the new one —
/// never a torn file. `get` verifies the frame and reports a torn or
/// bit-rotted record as an error instead of handing back garbage bytes
/// for the resume path to deserialize.
///
/// Construct with [`FileStore::builder`]:
///
/// ```no_run
/// use vinz::{FileStore, FsyncPolicy};
/// let store = FileStore::builder("/mnt/nas/gozer")
///     .fsync(FsyncPolicy::Always)
///     .build()
///     .unwrap();
/// ```
pub struct FileStore {
    dir: PathBuf,
    fsync: FsyncPolicy,
    written: AtomicU64,
    read: AtomicU64,
}

/// Configures and opens a [`FileStore`]; see [`FileStore::builder`].
#[derive(Debug, Clone)]
pub struct FileStoreBuilder {
    dir: PathBuf,
    fsync: FsyncPolicy,
}

impl FileStoreBuilder {
    /// Set the fsync policy (default [`FsyncPolicy::Always`]).
    pub fn fsync(mut self, policy: FsyncPolicy) -> FileStoreBuilder {
        self.fsync = policy;
        self
    }

    /// Open the store (the directory is created if missing).
    pub fn build(self) -> Result<FileStore, StoreError> {
        std::fs::create_dir_all(&self.dir).map_err(StoreError::io)?;
        Ok(FileStore {
            dir: self.dir,
            fsync: self.fsync,
            written: AtomicU64::new(0),
            read: AtomicU64::new(0),
        })
    }
}

/// Frame header: magic + CRC32(payload) + payload length, all fsynced
/// with the payload before the rename publishes the record.
const FILE_MAGIC: &[u8; 4] = b"GZS1";
const FILE_HEADER_LEN: usize = 4 + 4 + 8;

impl FileStore {
    /// Start configuring a store rooted at `dir`.
    pub fn builder(dir: impl Into<PathBuf>) -> FileStoreBuilder {
        FileStoreBuilder {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
        }
    }

    pub(crate) fn path(&self, key: &str) -> PathBuf {
        self.dir.join(key.replace('/', "__"))
    }

    fn frame(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(FILE_HEADER_LEN + data.len());
        out.extend_from_slice(FILE_MAGIC);
        out.extend_from_slice(&gozer_compress::crc32(data).to_le_bytes());
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        out.extend_from_slice(data);
        out
    }

    /// Strip and verify the frame.
    fn unframe(key: &str, raw: Vec<u8>) -> Result<Vec<u8>, StoreError> {
        if raw.len() < FILE_HEADER_LEN {
            return Err(StoreError::corrupt(
                key,
                format!("truncated header for {key}: {} bytes", raw.len()),
            ));
        }
        if &raw[..4] != FILE_MAGIC {
            return Err(StoreError::corrupt(key, format!("bad magic for {key}")));
        }
        let stored_crc = u32::from_le_bytes(raw[4..8].try_into().unwrap());
        let stored_len = u64::from_le_bytes(raw[8..16].try_into().unwrap()) as usize;
        let payload = &raw[FILE_HEADER_LEN..];
        if payload.len() != stored_len {
            return Err(StoreError::corrupt(
                key,
                format!(
                    "torn write detected for {key}: expected {stored_len} payload bytes, found {}",
                    payload.len()
                ),
            ));
        }
        let crc = gozer_compress::crc32(payload);
        if crc != stored_crc {
            return Err(StoreError::corrupt(
                key,
                format!(
                    "checksum mismatch for {key}: stored {stored_crc:#010x}, computed {crc:#010x}"
                ),
            ));
        }
        Ok(payload.to_vec())
    }
}

impl StateStore for FileStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StoreError> {
        // IO accounting counts the payload, as MemStore does — the frame
        // is a durability overhead, not workflow state.
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        let tmp = self.path(&format!("{key}.tmp.{:x}", fastrand_u64()));
        let write = || -> std::io::Result<()> {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&Self::frame(data))?;
            // Durability point: the frame must be on disk before the
            // rename can publish it, or a crash could expose a record
            // whose name is new but whose bytes are not.
            if self.fsync == FsyncPolicy::Always {
                f.sync_all()?;
            }
            std::fs::rename(&tmp, self.path(key))
        };
        write().map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            StoreError::io(e)
        })
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        match std::fs::read(self.path(key)) {
            Ok(raw) => {
                let data = Self::unframe(key, raw)?;
                self.read.fetch_add(data.len() as u64, Ordering::Relaxed);
                Ok(Some(data))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::io(e)),
        }
    }

    fn delete(&self, key: &str) -> Result<(), StoreError> {
        match std::fs::remove_file(self.path(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::io(e)),
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        let mangled = prefix.replace('/', "__");
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir).map_err(StoreError::io)? {
            let entry = entry.map_err(StoreError::io)?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(&mangled) && !name.contains(".tmp.") {
                out.push(name.replace("__", "/"));
            }
        }
        out.sort();
        Ok(out)
    }

    fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    fn bytes_read(&self) -> u64 {
        self.read.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_store() {
        let dir = std::env::temp_dir().join(format!("gozer-fs-test-{}", fastrand_u64()));
        let store = FileStore::builder(&dir).build().unwrap();
        crate::store::tests::exercise(&store);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fsync_never_policy_still_reads_back() {
        let dir = std::env::temp_dir().join(format!("gozer-fs-nosync-{}", fastrand_u64()));
        let store = FileStore::builder(&dir)
            .fsync(FsyncPolicy::Never)
            .build()
            .unwrap();
        store.put("fiber/9", b"page-cache only").unwrap();
        assert_eq!(
            store.get("fiber/9").unwrap(),
            Some(b"page-cache only".to_vec())
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn file_store_detects_torn_writes() {
        let dir = std::env::temp_dir().join(format!("gozer-fs-torn-{}", fastrand_u64()));
        let store = FileStore::builder(&dir).build().unwrap();
        store.put("fiber/1", b"serialized continuation bytes").unwrap();

        // Truncate the record mid-payload, as a crash between the data
        // blocks reaching disk would.
        let path = store.path("fiber/1");
        let mut raw = std::fs::read(&path).unwrap();
        raw.truncate(raw.len() - 5);
        std::fs::write(&path, &raw).unwrap();
        let err = store.get("fiber/1").unwrap_err();
        assert!(err.message().contains("torn write"), "{err}");
        assert!(
            matches!(err, StoreError::Corrupt { ref key, .. } if key == "fiber/1"),
            "{err:?}"
        );

        // Corrupt a payload byte without changing the length: the
        // checksum catches what the length check cannot.
        store.put("fiber/2", b"serialized continuation bytes").unwrap();
        let path = store.path("fiber/2");
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let err = store.get("fiber/2").unwrap_err();
        assert!(err.message().contains("checksum mismatch"), "{err}");

        // A rewrite through put() heals the key.
        store.put("fiber/2", b"fresh").unwrap();
        assert_eq!(store.get("fiber/2").unwrap(), Some(b"fresh".to_vec()));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn file_store_rejects_damaged_headers() {
        let dir = std::env::temp_dir().join(format!("gozer-fs-header-{}", fastrand_u64()));
        let store = FileStore::builder(&dir).build().unwrap();
        let corrupt = |key: &str, damage: fn(&mut Vec<u8>)| {
            store.put(key, b"serialized continuation bytes").unwrap();
            let mut raw = std::fs::read(store.path(key)).unwrap();
            damage(&mut raw);
            std::fs::write(store.path(key), &raw).unwrap();
            let err = store.get(key).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt { key: ref k, .. } if k == key),
                "{err:?}"
            );
            err
        };
        // A record whose first bytes were damaged must not read back as
        // data.
        let err = corrupt("fiber/1", |raw| raw[0] ^= 0xFF);
        assert!(err.message().contains("bad magic"), "{err}");
        // Nor one cut off inside the header.
        let err = corrupt("fiber/2", |raw| raw.truncate(FILE_HEADER_LEN - 1));
        assert!(err.message().contains("truncated header"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
