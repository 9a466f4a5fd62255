//! Persistent object storage (paper §4.7).
//!
//! "JavaSymphony provides facilities to make objects persistent by saving
//! and loading them to/from external storage. ... If no string is specified
//! then JRS will generate and return a unique string for the object just
//! stored." The store is deployment-global (the paper's external storage is
//! reachable from every node) and can optionally spill to a directory.

use crate::error::JsError;
use crate::Result;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One stored object: class name + serialized state.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredObject {
    /// The object's class (needed to restore it).
    pub class: String,
    /// Serialized state.
    pub state: Vec<u8>,
}

struct StoreInner {
    map: Mutex<HashMap<String, StoredObject>>,
    next_key: AtomicU64,
    dir: Option<PathBuf>,
}

/// The external object store. Cloning shares the store.
#[derive(Clone)]
pub struct ObjectStore {
    inner: Arc<StoreInner>,
}

impl ObjectStore {
    /// An in-memory store.
    pub fn in_memory() -> Self {
        ObjectStore {
            inner: Arc::new(StoreInner {
                map: Mutex::new(HashMap::new()),
                next_key: AtomicU64::new(1),
                dir: None,
            }),
        }
    }

    /// A store that also spills every object to `dir` as `<key>.<class>.state`
    /// files (the bytes of [`crate::encode_state`]),
    /// so persistence survives the process in the way the paper intends.
    pub fn on_disk(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ObjectStore {
            inner: Arc::new(StoreInner {
                map: Mutex::new(HashMap::new()),
                next_key: AtomicU64::new(1),
                dir: Some(dir),
            }),
        })
    }

    /// Stores `state` under `key` (or a generated unique key), returning the
    /// key actually used.
    pub fn put(&self, key: Option<String>, class: &str, state: Vec<u8>) -> String {
        let key = key.unwrap_or_else(|| {
            format!(
                "jsobj-{}",
                self.inner.next_key.fetch_add(1, Ordering::Relaxed)
            )
        });
        if let Some(dir) = &self.inner.dir {
            let path = dir.join(format!("{key}.{class}.state"));
            let _ = std::fs::write(path, &state);
        }
        self.inner.map.lock().insert(
            key.clone(),
            StoredObject {
                class: class.to_owned(),
                state,
            },
        );
        key
    }

    /// Loads the stored object under `key`.
    pub fn get(&self, key: &str) -> Result<StoredObject> {
        self.inner
            .map
            .lock()
            .get(key)
            .cloned()
            .ok_or_else(|| JsError::NoSuchStoredObject(key.to_owned()))
    }

    /// Removes a stored object, returning whether it existed.
    pub fn remove(&self, key: &str) -> bool {
        self.inner.map.lock().remove(key).is_some()
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.inner.map.lock().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.map.lock().is_empty()
    }

    /// All stored keys (sorted).
    pub fn keys(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.map.lock().keys().cloned().collect();
        v.sort();
        v
    }
}

impl Default for ObjectStore {
    fn default() -> Self {
        ObjectStore::in_memory()
    }
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStore")
            .field("objects", &self.len())
            .field("dir", &self.inner.dir)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_with_explicit_key_round_trips() {
        let store = ObjectStore::in_memory();
        let key = store.put(Some("mine".into()), "Counter", vec![1, 2, 3]);
        assert_eq!(key, "mine");
        let got = store.get("mine").unwrap();
        assert_eq!(got.class, "Counter");
        assert_eq!(got.state, vec![1, 2, 3]);
    }

    #[test]
    fn generated_keys_are_unique() {
        let store = ObjectStore::in_memory();
        let a = store.put(None, "C", vec![]);
        let b = store.put(None, "C", vec![]);
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
        let mut keys = store.keys();
        keys.sort();
        assert_eq!(keys.len(), 2);
    }

    #[test]
    fn missing_key_errors() {
        let store = ObjectStore::in_memory();
        assert!(matches!(
            store.get("ghost"),
            Err(JsError::NoSuchStoredObject(_))
        ));
        assert!(!store.remove("ghost"));
    }

    #[test]
    fn overwrite_replaces_state() {
        let store = ObjectStore::in_memory();
        store.put(Some("k".into()), "C", vec![1]);
        store.put(Some("k".into()), "C", vec![2]);
        assert_eq!(store.get("k").unwrap().state, vec![2]);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn disk_store_writes_files() {
        let dir = std::env::temp_dir().join(format!("jsym-store-test-{}", std::process::id()));
        let store = ObjectStore::on_disk(&dir).unwrap();
        store.put(Some("k".into()), "C", vec![b'x']);
        let file = dir.join("k.C.state");
        assert_eq!(std::fs::read(&file).unwrap(), vec![b'x']);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
