//! A minimal distributed-file-system stand-in: a typed, named dataset store.
//!
//! Hadoop drivers chain jobs through HDFS paths; ours chain through [`Dfs`]
//! names. Datasets are stored type-erased and recovered with
//! [`Dfs::take`]/[`Dfs::get`], which panic on a type mismatch the same way a
//! Hadoop job fails on an input-format mismatch. The mismatch message
//! carries record-level context — stored vs requested types, record/byte
//! counts, and the offending record's byte offset with a truncated payload
//! preview — because "different type" alone is useless when the driver
//! chained five jobs through the store.

use crate::dataset::Dataset;
use ssj_common::{ByteSize, FxHashMap};
use std::any::Any;
use std::fmt::Debug;

/// Maximum characters of a record preview kept for error messages.
const PREVIEW_CHARS: usize = 80;

/// Record-level context captured when a dataset is stored, reported on
/// input-format (type) mismatch.
#[derive(Debug, Clone)]
pub struct EntryMeta {
    /// `type_name` of the stored key type.
    pub key_type: &'static str,
    /// `type_name` of the stored value type.
    pub value_type: &'static str,
    /// Total records stored.
    pub records: usize,
    /// Total logical bytes stored.
    pub bytes: usize,
    /// The record a format reader would fail on — the first record of the
    /// first non-empty partition — with its byte offset in the dataset's
    /// logical byte stream and a truncated `Debug` rendering.
    pub first_record: Option<RecordPreview>,
}

/// A truncated rendering of one stored record.
#[derive(Debug, Clone)]
pub struct RecordPreview {
    /// Logical byte offset of the record within the dataset (bytes of all
    /// records preceding it in partition order).
    pub byte_offset: usize,
    /// `Debug` rendering, truncated to [`PREVIEW_CHARS`] characters.
    pub payload: String,
}

struct Entry {
    data: Box<dyn Any + Send>,
    meta: EntryMeta,
}

fn truncate_payload(rendered: String) -> String {
    if rendered.chars().count() <= PREVIEW_CHARS {
        return rendered;
    }
    let cut: String = rendered.chars().take(PREVIEW_CHARS).collect();
    format!("{cut}…")
}

fn describe_mismatch(name: &str, requested_k: &str, requested_v: &str, meta: &EntryMeta) -> String {
    let record = match &meta.first_record {
        Some(p) => format!(
            "; offending record at byte offset {}: {}",
            p.byte_offset, p.payload
        ),
        None => "; dataset is empty".to_string(),
    };
    format!(
        "dfs: dataset {name:?} has input format ({}, {}) but ({requested_k}, {requested_v}) \
         was requested ({} records, {} bytes{record})",
        meta.key_type, meta.value_type, meta.records, meta.bytes
    )
}

/// Named, typed dataset store used to chain jobs within a driver.
#[derive(Default)]
pub struct Dfs {
    entries: FxHashMap<String, Entry>,
}

impl Dfs {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a dataset under `name`, replacing any previous dataset with
    /// that name (HDFS overwrite semantics).
    pub fn put<K, V>(&mut self, name: impl Into<String>, dataset: Dataset<K, V>)
    where
        K: Send + Debug + ByteSize + 'static,
        V: Send + Debug + ByteSize + 'static,
    {
        let mut records = 0usize;
        let mut bytes = 0usize;
        let mut first_record = None;
        for part in dataset.partitions() {
            for (k, v) in part {
                if first_record.is_none() {
                    first_record = Some(RecordPreview {
                        byte_offset: bytes,
                        payload: truncate_payload(format!("{:?}", (k, v))),
                    });
                }
                records += 1;
                bytes += k.byte_size() + v.byte_size();
            }
        }
        let meta = EntryMeta {
            key_type: std::any::type_name::<K>(),
            value_type: std::any::type_name::<V>(),
            records,
            bytes,
            first_record,
        };
        self.entries.insert(
            name.into(),
            Entry {
                data: Box::new(dataset),
                meta,
            },
        );
    }

    /// Borrow a dataset by name.
    ///
    /// # Panics
    /// Panics if the name is missing, or — with full record-level context —
    /// if it was stored with different types.
    pub fn get<K, V>(&self, name: &str) -> &Dataset<K, V>
    where
        K: Send + 'static,
        V: Send + 'static,
    {
        let entry = self
            .entries
            .get(name)
            .unwrap_or_else(|| panic!("dfs: no dataset named {name:?}"));
        entry
            .data
            .downcast_ref::<Dataset<K, V>>()
            .unwrap_or_else(|| {
                panic!(
                    "{}",
                    describe_mismatch(
                        name,
                        std::any::type_name::<K>(),
                        std::any::type_name::<V>(),
                        &entry.meta
                    )
                )
            })
    }

    /// Remove and return a dataset by name.
    ///
    /// # Panics
    /// Panics if the name is missing, or — with full record-level context —
    /// if it was stored with different types.
    pub fn take<K, V>(&mut self, name: &str) -> Dataset<K, V>
    where
        K: Send + 'static,
        V: Send + 'static,
    {
        let entry = self
            .entries
            .remove(name)
            .unwrap_or_else(|| panic!("dfs: no dataset named {name:?}"));
        let meta = entry.meta;
        *entry.data.downcast::<Dataset<K, V>>().unwrap_or_else(|_| {
            panic!(
                "{}",
                describe_mismatch(
                    name,
                    std::any::type_name::<K>(),
                    std::any::type_name::<V>(),
                    &meta
                )
            )
        })
    }

    /// Stored metadata for a dataset, if present (types, counts, preview).
    pub fn meta(&self, name: &str) -> Option<&EntryMeta> {
        self.entries.get(name).map(|e| &e.meta)
    }

    /// Whether a dataset with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Delete a dataset if present; returns whether it existed.
    pub fn remove(&mut self, name: &str) -> bool {
        self.entries.remove(name).is_some()
    }

    /// Names of all stored datasets (unordered).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_take_round_trip() {
        let mut dfs = Dfs::new();
        let d = Dataset::from_records(vec![(1u32, "a".to_string())], 1);
        dfs.put("x", d.clone());
        assert!(dfs.contains("x"));
        assert_eq!(dfs.get::<u32, String>("x"), &d);
        let back = dfs.take::<u32, String>("x");
        assert_eq!(back, d);
        assert!(!dfs.contains("x"));
    }

    #[test]
    fn overwrite_replaces() {
        let mut dfs = Dfs::new();
        dfs.put("x", Dataset::from_records(vec![(1u32, 1u32)], 1));
        dfs.put("x", Dataset::from_records(vec![(2u32, 2u32)], 1));
        assert_eq!(dfs.get::<u32, u32>("x").total_records(), 1);
        assert_eq!(dfs.get::<u32, u32>("x").iter().next(), Some(&(2, 2)));
    }

    #[test]
    #[should_panic(expected = "no dataset named")]
    fn missing_name_panics() {
        let dfs = Dfs::new();
        let _ = dfs.get::<u32, u32>("absent");
    }

    #[test]
    #[should_panic(expected = "input format")]
    fn type_mismatch_panics() {
        let mut dfs = Dfs::new();
        dfs.put("x", Dataset::from_records(vec![(1u32, 1u32)], 1));
        let _ = dfs.get::<u32, String>("x");
    }

    #[test]
    fn mismatch_reports_record_offset_and_preview() {
        let mut dfs = Dfs::new();
        dfs.put(
            "tokens",
            Dataset::from_records(vec![(7u32, "hello world".to_string()), (8, "x".into())], 1),
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = dfs.get::<u64, u64>("tokens");
        }))
        .expect_err("mismatch must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a String")
            .clone();
        assert!(msg.contains("tokens"), "{msg}");
        assert!(msg.contains("u32"), "stored key type: {msg}");
        assert!(msg.contains("u64"), "requested key type: {msg}");
        assert!(msg.contains("2 records"), "{msg}");
        assert!(msg.contains("offending record at byte offset 0"), "{msg}");
        assert!(msg.contains("hello world"), "payload preview: {msg}");
    }

    #[test]
    fn long_payload_previews_are_truncated() {
        let mut dfs = Dfs::new();
        let long = "A".repeat(500);
        dfs.put("big", Dataset::from_records(vec![(1u32, long)], 1));
        let meta = dfs.meta("big").expect("stored");
        let preview = meta.first_record.as_ref().expect("non-empty");
        assert_eq!(preview.byte_offset, 0);
        assert!(
            preview.payload.chars().count() <= PREVIEW_CHARS + 1,
            "len {}",
            preview.payload.chars().count()
        );
        assert!(preview.payload.ends_with('…'));
    }

    #[test]
    fn empty_dataset_mismatch_says_so() {
        let mut dfs = Dfs::new();
        dfs.put("void", Dataset::<u32, u32>::empty());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = dfs.get::<u64, u64>("void");
        }))
        .expect_err("mismatch must panic");
        let msg = err.downcast_ref::<String>().expect("String payload");
        assert!(msg.contains("dataset is empty"), "{msg}");
    }

    #[test]
    fn meta_counts_records_and_bytes() {
        let mut dfs = Dfs::new();
        dfs.put(
            "m",
            Dataset::from_records(vec![(1u32, 2u64), (3, 4), (5, 6)], 2),
        );
        let meta = dfs.meta("m").unwrap();
        assert_eq!(meta.records, 3);
        assert_eq!(meta.bytes, 3 * (4 + 8));
        assert!(meta.key_type.contains("u32"));
        assert!(meta.value_type.contains("u64"));
    }

    #[test]
    fn names_and_remove() {
        let mut dfs = Dfs::new();
        dfs.put("a", Dataset::from_records(vec![(1u32, 1u32)], 1));
        dfs.put("b", Dataset::from_records(vec![(1u32, 1u32)], 1));
        let mut names: Vec<&str> = dfs.names().collect();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
        assert!(dfs.remove("a"));
        assert!(!dfs.remove("a"));
    }
}
