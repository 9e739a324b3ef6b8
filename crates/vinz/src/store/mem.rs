//! [`MemStore`]: the in-process shared map standing in for the
//! enterprise NAS in tests and benches.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use rustc_hash::FxHashMap;

use super::{StateStore, StoreError};

/// In-memory store shared by all simulated nodes.
#[derive(Default)]
pub struct MemStore {
    map: RwLock<FxHashMap<String, Vec<u8>>>,
    written: AtomicU64,
    read: AtomicU64,
    /// Optional per-byte artificial IO latency in nanoseconds, to model
    /// NFS cost in benches.
    pub write_nanos_per_byte: AtomicU64,
}

impl MemStore {
    /// Fresh store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Fresh store with simulated IO latency (ns/byte on writes).
    pub fn with_io_latency(write_nanos_per_byte: u64) -> MemStore {
        let s = MemStore::new();
        s.write_nanos_per_byte
            .store(write_nanos_per_byte, Ordering::Relaxed);
        s
    }
}

impl StateStore for MemStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StoreError> {
        let per_byte = self.write_nanos_per_byte.load(Ordering::Relaxed);
        if per_byte > 0 {
            let ns = per_byte.saturating_mul(data.len() as u64);
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        }
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.map.write().insert(key.to_string(), data.to_vec());
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let v = self.map.read().get(key).cloned();
        if let Some(ref data) = v {
            self.read.fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        Ok(v)
    }

    fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.map.write().remove(key);
        Ok(())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        let mut keys: Vec<String> = self
            .map
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        keys.sort();
        Ok(keys)
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
    fn mem_store() {
        crate::store::tests::exercise(&MemStore::new());
    }

    #[test]
    fn mem_store_concurrent() {
        let store = std::sync::Arc::new(MemStore::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        store.put(&format!("k/{t}/{i}"), &[t as u8; 32]).unwrap();
                        assert!(store.get(&format!("k/{t}/{i}")).unwrap().is_some());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.list("k/").unwrap().len(), 400);
    }
}
