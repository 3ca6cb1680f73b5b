//! The persistence journal: the one append-only format of the tuning
//! cache (`tune` records) and the memo sidecar (`ann`, `traffic`). A
//! journal is the [`header`] line, then `<tag> <klen>:<key>
//! <vlen>:<value>\n` records whose lengths count bytes. Replay keeps the
//! last record per `(tag, key)` and drops a torn tail (a final line
//! with no newline that is a prefix of a well-formed record); any other
//! anomaly reads as an empty journal, a cold start. [`write()`] appends
//! under [`atomicfile::path_lock`], and rewrites a missing, stale or
//! torn file through [`atomicfile::write_atomic`], which is also how it
//! compacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write as _};
use std::path::Path;

use lego_expr::{atomicfile, rules};

use crate::cache::CACHE_SCHEMA_VERSION;

/// Record tag of a tuning-cache entry.
pub const TUNE: &str = "tune";
/// Record tag of a candidate annotation.
pub const ANN: &str = "ann";
/// Record tag of a traffic-memo entry.
pub const TRAFFIC: &str = "traffic";

/// One record: tag, key, value.
pub type Row<'a> = (&'a str, &'a str, &'a str);

/// The live records of a journal: the last value of each `(tag, key)`.
pub type Live<'a> = BTreeMap<(&'a str, &'a str), &'a str>;

/// The header line: format, cache schema and rewrite-rule fingerprint.
pub fn header() -> String {
    let rules = rules::table_fingerprint();
    format!("lego-journal v1 cache={CACHE_SCHEMA_VERSION} rules={rules:016x}\n")
}

/// Appends the record line for `row` to `out`. A row whose key or
/// value holds a line break is dropped, so every record is one line.
pub fn push_row(out: &mut String, (tag, key, value): Row<'_>) {
    if !key.contains(['\n', '\r']) && !value.contains(['\n', '\r']) {
        let _ = writeln!(out, "{tag} {}:{key} {}:{value}", key.len(), value.len());
    }
}

/// Every complete record of journal bytes in file order, and whether a
/// torn tail was dropped. `None` on any other anomaly.
pub fn replay(bytes: &[u8]) -> Option<(Vec<Row<'_>>, bool)> {
    let mut rest = bytes.strip_prefix(header().as_bytes())?;
    let mut records = Vec::new();
    while !rest.is_empty() {
        match record(rest) {
            Ok((row, len)) => {
                records.push(row);
                rest = &rest[len..];
            }
            Err(true) if !rest.contains(&b'\n') => return Some((records, true)),
            Err(_) => return None,
        }
    }
    Some((records, false))
}

/// The live records among `records`: the last of each `(tag, key)`.
pub fn live<'a>(records: &[Row<'a>]) -> Live<'a> {
    records.iter().map(|&(t, k, v)| ((t, k), v)).collect()
}

/// Hands the live records of the journal at `path` to `f`. A missing,
/// stale or corrupt file has none.
pub fn read<T>(path: &Path, f: impl FnOnce(&Live<'_>) -> T) -> T {
    let bytes = std::fs::read(path).unwrap_or_default();
    f(&live(&replay(&bytes).unwrap_or_default().0))
}

/// How [`write()`] treats the records already on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Append every row, reading only the header and the last byte.
    Append,
    /// Append only the rows whose `(tag, key)` is not live on disk.
    Merge,
    /// Append every row; rewrite when dead records outnumber live ones.
    Compact,
}

/// Appends `rows` to the journal at `path` under its per-path lock. A
/// missing, stale or torn file (or, under [`Mode::Compact`], a mostly
/// dead one) is rewritten instead, as its live records plus `rows` in
/// `(tag, key)` order, through [`atomicfile::write_atomic`].
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write(path: &Path, rows: &[Row<'_>], mode: Mode) -> io::Result<()> {
    let lock = atomicfile::path_lock(path);
    let _guard = lock.lock().expect("journal file lock poisoned");
    if mode == Mode::Append && (rows.is_empty() || append(path, rows)?) {
        return Ok(());
    }
    let bytes = std::fs::read(path).unwrap_or_default();
    // A missing, stale or corrupt file is rewritten, like a torn one.
    let (records, torn) = replay(&bytes).unwrap_or((Vec::new(), true));
    let mut live = live(&records);
    let rows: Vec<Row<'_>> = rows
        .iter()
        .filter(|&&(t, k, _)| mode != Mode::Merge || !live.contains_key(&(t, k)))
        .copied()
        .collect();
    let sparse = mode == Mode::Compact && records.len() - live.len() > live.len();
    if !torn && !sparse && append(path, &rows)? {
        return Ok(());
    }
    live.extend(rows.iter().map(|&(t, k, v)| ((t, k), v)));
    let mut text = header();
    for (&(t, k), &v) in &live {
        push_row(&mut text, (t, k, v));
    }
    atomicfile::write_atomic(path, &text)
}

/// Appends the record lines of `rows` to `path` if the file can take
/// them: it starts with the current header and ends on a record
/// boundary. `Ok(false)`, writing nothing, if it cannot.
fn append(path: &Path, rows: &[Row<'_>]) -> io::Result<bool> {
    let Ok(mut file) = OpenOptions::new().read(true).append(true).open(path) else {
        return Ok(false);
    };
    let (header, mut last) = (header(), [0]);
    let mut head = vec![0; header.len()];
    let read = file
        .read_exact(&mut head)
        .and_then(|()| file.seek(SeekFrom::End(-1)))
        .and_then(|_| file.read_exact(&mut last));
    if read.is_err() || head != header.as_bytes() || last != *b"\n" {
        return Ok(false);
    }
    let mut text = String::new();
    for &row in rows {
        push_row(&mut text, row);
    }
    file.write_all(text.as_bytes()).map(|()| true)
}

/// Parses the record at the front of `s` into the row and its length
/// (newline included). `Err(true)` when `s` ends inside a record that
/// is well-formed so far; `Err(false)` when `s` breaks the grammar.
fn record(s: &[u8]) -> Result<(Row<'_>, usize), bool> {
    let tags = [TUNE, ANN, TRAFFIC];
    let Some(space) = s.iter().position(|&b| b == b' ') else {
        return Err(tags.iter().any(|t| t.as_bytes().starts_with(s)));
    };
    let tag = tags
        .into_iter()
        .find(|t| t.as_bytes() == &s[..space])
        .ok_or(false)?;
    let (key, at) = field(s, space + 1)?;
    if s.get(at) != Some(&b' ') {
        return Err(at == s.len());
    }
    let (value, at) = field(s, at + 1)?;
    if s.get(at) != Some(&b'\n') {
        return Err(at == s.len());
    }
    Ok(((tag, key, value), at + 1))
}

/// Parses the `<len>:<bytes>` field at offset `at` of `s` into its text
/// and the offset just past it; errors as in [`record`].
fn field(s: &[u8], at: usize) -> Result<(&str, usize), bool> {
    let colon = at + s[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    if colon == at || s.get(colon) != Some(&b':') {
        return Err(colon == s.len());
    }
    let len: usize = String::from_utf8_lossy(&s[at..colon])
        .parse()
        .map_err(|_| false)?;
    let bytes = s.get(colon + 1..).and_then(|r| r.get(..len)).ok_or(true)?;
    if bytes.contains(&b'\n') || bytes.contains(&b'\r') {
        return Err(false);
    }
    let text = std::str::from_utf8(bytes).map_err(|_| false)?;
    Ok((text, colon + 1 + len))
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use gpu_sim::score::Estimate;
    use gpu_sim::timing::TimeEstimate;
    use lego_codegen::tuning::TunedConfig;

    use super::*;
    use crate::cache::{tuning_to_json, CachedTuning, TuningCache};
    use crate::sidecar::Sidecar;

    /// A fresh scratch directory unique to `tag` and this process.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lego-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(evaluated: usize) -> CachedTuning {
        let est = Estimate {
            time_s: 3e-3,
            breakdown: TimeEstimate {
                compute_s: 1e-3,
                dram_s: 2e-3,
                l2_s: 0.0,
                smem_s: 0.0,
                overhead_s: 8e-6,
                total_s: 3e-3,
            },
            dram_bytes: 1e9,
            l2_bytes: 3e9,
            smem_passes: 42.0,
            l2_hit_rate: 0.875,
            flops: 2e9,
            useful_bytes: 6.7e8,
        };
        CachedTuning {
            config: TunedConfig::Lud { r: 2, t: 16 },
            expr_variant: None,
            index_ops: Some(12),
            naive: est,
            tuned: est,
            evaluated,
            strategy: "anneal".to_string(),
            budget: Some(64),
            space: "enlarged".to_string(),
            frontier: vec![(TunedConfig::Lud { r: 4, t: 16 }, 0.75)],
        }
    }

    /// The byte offset where the last record of `bytes` starts.
    fn last_record_start(bytes: &[u8]) -> usize {
        bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1
    }

    /// `"<tag> <key>"` of every record in the file at `path`, asserting
    /// the file is a well-formed journal without a torn tail.
    fn record_keys(path: &Path) -> Vec<String> {
        let bytes = std::fs::read(path).unwrap();
        let (records, torn) = replay(&bytes).expect("well-formed journal");
        assert!(!torn, "the write left a torn tail behind");
        records.iter().map(|(t, k, _)| format!("{t} {k}")).collect()
    }

    #[test]
    fn torn_cache_tail_drops_only_the_last_record() {
        let dir = scratch("torn-cache");
        let path = dir.join("cache.json");
        let cache = TuningCache::new(&path);
        let batch: Vec<(String, CachedTuning)> = ["a", "b", "c"]
            .iter()
            .enumerate()
            .map(|(i, k)| (k.to_string(), entry(i)))
            .collect();
        cache.store_many(&batch).unwrap();
        let full = std::fs::read(&path).unwrap();
        let start = last_record_start(&full);
        for cut in start + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let keys: Vec<String> = cache.entries().into_iter().map(|(k, _)| k).collect();
            assert_eq!(keys, ["a", "b"], "cut at byte {cut}");
            assert_eq!(cache.lookup("b"), Some(entry(1)), "cut at byte {cut}");
            assert_eq!(cache.lookup("c"), None, "cut at byte {cut}");
            // The next store must not run onto the partial line.
            cache.store("d", &entry(3)).unwrap();
            assert_eq!(record_keys(&path), ["tune a", "tune b", "tune d"]);
            assert_eq!(cache.lookup("d"), Some(entry(3)), "cut at byte {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_sidecar_tail_drops_only_the_last_record() {
        let dir = scratch("torn-sidecar");
        let path = dir.join("memo.txt");
        let mut sc = Sidecar::new();
        sc.set_annotation("k1", "u|7");
        sc.set_annotation("k2", "e|9");
        sc.set_traffic("g1", "1,2,3");
        sc.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let start = last_record_start(&full);
        let mut more = Sidecar::new();
        more.set_traffic("g2", "4,5");
        for cut in start + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let loaded = Sidecar::load(&path);
            assert_eq!(
                loaded.annotations().collect::<Vec<_>>(),
                [("k1", "u|7"), ("k2", "e|9")],
                "cut at byte {cut}"
            );
            assert_eq!(loaded.traffics().count(), 0, "cut at byte {cut}");
            more.save(&path).unwrap();
            assert_eq!(record_keys(&path), ["ann k1", "ann k2", "traffic g2"]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_a_record_prefix_is_a_torn_tail() {
        let valid = format!("{}ann 2:k1 3:u|7\n", header());
        for torn in [
            "t",
            "traffic",
            "ann ",
            "ann 1",
            "ann 12:",
            "ann 2:k",
            "ann 2:k1 3:u|7",
        ] {
            let bytes = format!("{valid}{torn}").into_bytes();
            let (records, was_torn) = replay(&bytes).unwrap();
            assert_eq!((records.len(), was_torn), (1, true), "{torn:?}");
        }
        for garbage in [
            "garbled row",
            "env 0",
            "ann +3",
            "ann 3:abc1",
            "ann 2:k1 1:xy",
            "x 1:a 1:b",
        ] {
            assert!(
                replay(format!("{valid}{garbage}").as_bytes()).is_none(),
                "{garbage:?}"
            );
        }
    }

    #[test]
    fn a_store_appends_exactly_one_record() {
        let dir = scratch("append");
        let path = dir.join("cache.json");
        let cache = TuningCache::new(&path);
        let batch: Vec<(String, CachedTuning)> =
            (0..1000).map(|i| (format!("key-{i}"), entry(i))).collect();
        cache.store_many(&batch).unwrap();
        let before = std::fs::read(&path).unwrap();
        // "fresh" sorts before every existing key, so a rewrite in key
        // order would move bytes.
        let fresh = entry(1000);
        cache.store("fresh", &fresh).unwrap();
        let after = std::fs::read(&path).unwrap();
        let mut record = String::new();
        push_row(
            &mut record,
            (TUNE, "fresh", &tuning_to_json(&fresh).render()),
        );
        assert!(after.starts_with(&before), "a store changed existing bytes");
        assert_eq!(&after[before.len()..], record.as_bytes());
        // Replacing a key appends as well; the last record wins.
        cache.store("key-7", &fresh).unwrap();
        let grown = std::fs::read(&path).unwrap().len() - after.len();
        assert_eq!(grown, record.len() - "fresh".len() + "key-7".len());
        assert_eq!(cache.lookup("key-7"), Some(fresh.clone()));
        assert_eq!(cache.entries().len(), 1001);
        // A store reads nothing but the header and the last byte: it
        // appends even past damage mid-file, which replay rejects and
        // only a compacting write repairs.
        let mut damaged = std::fs::read(&path).unwrap();
        damaged.insert(damaged.len() / 2, b'\n');
        std::fs::write(&path, &damaged).unwrap();
        cache.store("fresh", &fresh).unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(&damaged));
        assert!(cache.entries().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_journal_files_start_a_fresh_journal() {
        let dir = scratch("legacy");
        // A JSON cache document of the pre-journal format.
        let cache_path = dir.join("cache.json");
        let doc = format!(
            "{{\n  \"version\": {CACHE_SCHEMA_VERSION},\n  \"entries\": {{\n    \"k\": {}\n  }}\n}}\n",
            tuning_to_json(&entry(1)).render()
        );
        std::fs::write(&cache_path, doc).unwrap();
        let cache = TuningCache::new(&cache_path);
        assert!(cache.entries().is_empty());
        assert_eq!(cache.lookup("k"), None);
        cache.store("k2", &entry(2)).unwrap();
        assert!(std::fs::read_to_string(&cache_path)
            .unwrap()
            .starts_with(&header()));
        assert_eq!(record_keys(&cache_path), ["tune k2"]);

        // A `lego-expr-sidecar v1` document with the current rules.
        let sidecar_path = dir.join("memo.txt");
        let old = format!(
            "lego-expr-sidecar v1 rules={:016x}\nann 2:k1 3:u|7\n",
            rules::table_fingerprint()
        );
        std::fs::write(&sidecar_path, old).unwrap();
        assert!(Sidecar::load(&sidecar_path).is_empty());
        let mut sc = Sidecar::new();
        sc.set_annotation("k2", "e|9");
        sc.save(&sidecar_path).unwrap();
        assert_eq!(std::fs::read_to_string(&sidecar_path).unwrap(), sc.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn another_cache_version_reads_as_empty() {
        let dir = scratch("version");
        let path = dir.join("journal.txt");
        let current = format!("cache={CACHE_SCHEMA_VERSION} ");
        for other in [CACHE_SCHEMA_VERSION - 1, CACHE_SCHEMA_VERSION + 1] {
            let mut doc = header().replacen(&current, &format!("cache={other} "), 1);
            assert_ne!(doc, header());
            push_row(&mut doc, (TUNE, "k", &tuning_to_json(&entry(1)).render()));
            push_row(&mut doc, (ANN, "k1", "u|7"));
            assert!(replay(doc.as_bytes()).is_none(), "cache={other} replayed");
            std::fs::write(&path, &doc).unwrap();
            assert_eq!(TuningCache::new(&path).lookup("k"), None);
            assert!(Sidecar::load(&path).is_empty());
            TuningCache::new(&path).store("k2", &entry(2)).unwrap();
            assert_eq!(record_keys(&path), ["tune k2"]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_compaction_rewrites_superseded_records() {
        let dir = scratch("compact");
        let path = dir.join("cache.json");
        let cache = TuningCache::new(&path);
        cache.store("a", &entry(1)).unwrap();
        cache.store("b", &entry(2)).unwrap();
        cache.store("a", &entry(3)).unwrap();
        // One dead record against two live ones: compaction only appends.
        let before = std::fs::read(&path).unwrap();
        cache.store_and_compact(&[]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), before);
        cache.store("a", &entry(4)).unwrap();
        cache.store("a", &entry(5)).unwrap();
        // Three dead against two live: the next compacting write keeps
        // the live records plus its batch.
        cache
            .store_and_compact(&[("c".to_string(), entry(6))])
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(record_keys(&path), ["tune a", "tune b", "tune c"]);
        assert_eq!(cache.lookup("a"), Some(entry(5)));
        assert_eq!(cache.lookup("b"), Some(entry(2)));
        assert_eq!(cache.lookup("c"), Some(entry(6)));

        // A garbled line reads as empty; a compacting write starts over.
        let mut garbled = bytes.clone();
        garbled.splice(
            header().len()..header().len(),
            b"garbled row\n".iter().copied(),
        );
        std::fs::write(&path, &garbled).unwrap();
        assert!(cache.entries().is_empty());
        cache
            .store_and_compact(&[("d".to_string(), entry(7))])
            .unwrap();
        assert_eq!(record_keys(&path), ["tune d"]);

        // A sidecar save never rewrites a healthy file: a key already on
        // disk keeps its record, and only absent keys are appended.
        let memo = dir.join("memo.txt");
        let mut sc = Sidecar::new();
        sc.set_annotation("k1", "u|7");
        sc.save(&memo).unwrap();
        let before = std::fs::read(&memo).unwrap();
        sc.set_annotation("k1", "other");
        sc.save(&memo).unwrap();
        assert_eq!(std::fs::read(&memo).unwrap(), before);
        sc.set_traffic("g1", "1");
        sc.save(&memo).unwrap();
        let after = std::fs::read(&memo).unwrap();
        assert!(after.starts_with(&before));
        assert_eq!(&after[before.len()..], b"traffic 2:g1 1:1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
