//! The offline tuning database (paper Fig. 1, "off-line autotuned
//! database"): `(problem, platform) -> best loop_spec_string`, persisted
//! as a plain tab-separated text file (no serialization crates needed).

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

/// One stored tuning entry.
#[derive(Debug, Clone, PartialEq)]
pub struct DbEntry {
    /// The winning spec string.
    pub spec: String,
    /// Its score (GFLOPS).
    pub score: f64,
}

/// In-memory tuning database with text-file persistence. `Clone` takes a
/// point-in-time snapshot.
#[derive(Debug, Default, Clone)]
pub struct TuningDb {
    entries: HashMap<String, DbEntry>,
}

impl TuningDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonical key for a GEMM problem on a platform.
    pub fn gemm_key(platform: &str, m: usize, n: usize, k: usize, dtype: &str) -> String {
        format!("gemm/{platform}/{m}x{n}x{k}/{dtype}")
    }

    /// Inserts or replaces an entry.
    pub fn put(&mut self, key: &str, entry: DbEntry) {
        self.entries.insert(key.to_string(), entry);
    }

    /// Looks up an entry.
    pub fn get(&self, key: &str) -> Option<&DbEntry> {
        self.entries.get(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the DB is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Saves as `key\tspec\tscore` lines (sorted for reproducible diffs).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut keys: Vec<_> = self.entries.keys().collect();
        keys.sort();
        let mut f = std::fs::File::create(path)?;
        for k in keys {
            let e = &self.entries[k];
            writeln!(f, "{k}\t{}\t{}", e.spec, e.score)?;
        }
        Ok(())
    }

    /// Loads from the text format; unparseable lines are skipped.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let mut db = Self::new();
        for line in text.lines() {
            let mut parts = line.split('\t');
            let (Some(k), Some(spec), Some(score)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let Ok(score) = score.parse::<f64>() else { continue };
            db.put(k, DbEntry { spec: spec.to_string(), score });
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_file() {
        let mut db = TuningDb::new();
        let k1 = TuningDb::gemm_key("SPR", 512, 512, 512, "bf16");
        db.put(&k1, DbEntry { spec: "bcaBCb".into(), score: 40321.5 });
        db.put("conv/Zen4/l5", DbEntry { spec: "ACDbefg".into(), score: 900.0 });
        let dir = std::env::temp_dir().join("pl_tuning_db_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.tsv");
        db.save(&path).unwrap();
        let loaded = TuningDb::load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.get(&k1).unwrap().spec, "bcaBCb");
        assert!((loaded.get(&k1).unwrap().score - 40321.5).abs() < 1e-9);
    }

    #[test]
    fn clone_is_a_snapshot() {
        let mut db = TuningDb::new();
        db.put("k1", DbEntry { spec: "abc".into(), score: 1.0 });
        let snap = db.clone();
        db.put("k2", DbEntry { spec: "bca".into(), score: 2.0 });
        assert_eq!(snap.len(), 1);
        assert_eq!(db.len(), 2);
        assert_eq!(snap.get("k1").unwrap().spec, "abc");
    }

    #[test]
    fn lookup_miss_is_none() {
        let db = TuningDb::new();
        assert!(db.get("nope").is_none());
        assert!(db.is_empty());
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let dir = std::env::temp_dir().join("pl_tuning_db_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.tsv");
        std::fs::write(&path, "good\tabc\t1.5\ngarbage line\nk\tspec\tnot_a_number\n").unwrap();
        let db = TuningDb::load(&path).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(db.get("good").unwrap().spec, "abc");
    }
}
