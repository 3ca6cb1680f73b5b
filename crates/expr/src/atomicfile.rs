//! Concurrent-writer-safe file replacement.
//!
//! The persistence journal (`lego_tune::journal`, the one format behind
//! both the tuning cache and the memo sidecar) serializes same-file
//! writers within the process behind a per-canonical-path mutex
//! ([`path_lock`]): every append and every rewrite runs under it. A
//! rewrite — creating a journal, replacing a stale or torn one, or
//! compacting — goes through a unique tempfile and an atomic rename
//! ([`write_atomic`]), so a concurrent reader sees either the old file
//! or the new one, never a prefix of the rewrite.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The process-wide lock guarding one file's writes, keyed by the
/// file's stable identity (the canonicalized path when the file exists,
/// else the canonicalized parent + file name). Concurrent writers of
/// the same file — the tuning-service daemon's workers, a parallel
/// fleet driver — are serialized here, so no append interleaves with
/// another and no rewrite clobbers another writer's entries.
pub fn path_lock(path: &Path) -> Arc<Mutex<()>> {
    static LOCKS: OnceLock<Mutex<HashMap<PathBuf, Arc<Mutex<()>>>>> = OnceLock::new();
    let mut locks = LOCKS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("file lock registry poisoned");
    locks.entry(lock_key(path)).or_default().clone()
}

/// A stable identity for a file: the canonical path when the file (or
/// at least its directory) exists, otherwise the path absolutized
/// against the current directory — so `TUNE_CACHE.json` and
/// `./TUNE_CACHE.json` share one lock.
fn lock_key(path: &Path) -> PathBuf {
    if let Ok(canon) = path.canonicalize() {
        return canon;
    }
    let file = path.file_name().map(PathBuf::from).unwrap_or_default();
    let parent = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.canonicalize().ok(),
        _ => std::env::current_dir().ok(),
    };
    match parent {
        Some(dir) => dir.join(file),
        None => path.to_path_buf(),
    }
}

/// Replaces `path` with `contents` atomically: the parent directory is
/// created if missing, the contents land in a unique tempfile next to
/// the target, and the tempfile is renamed into place (removing it if
/// the rename fails). Readers therefore see either the old document or
/// the new one, never a prefix.
///
/// This is the write half only — callers that rewrite from the
/// existing file must hold the [`path_lock`] across their whole
/// read → `write_atomic` cycle.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    // Unique tempfile per write (the per-file mutex already serializes
    // same-file writers in this process; the counter keeps names
    // distinct across files sharing a directory and across processes).
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_file_name(format!(
        "{}.tmp.{}.{}",
        path.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "store".to_string()),
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::write(&tmp, contents)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_file_shares_one_lock() {
        let dir = std::env::temp_dir();
        let a = path_lock(&dir.join("zq-lock-probe.txt"));
        let b = path_lock(&dir.join("zq-lock-probe.txt"));
        assert!(Arc::ptr_eq(&a, &b));
        let c = path_lock(&dir.join("zq-lock-other.txt"));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn write_atomic_creates_missing_parents() {
        let dir = std::env::temp_dir().join(format!(
            "lego-atomic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep/nested/doc.txt");
        write_atomic(&path, "payload").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "payload");
        write_atomic(&path, "replaced").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "replaced");
        // No tempfiles left behind.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stale tempfiles: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
