//! The directory-backed session store: atomic snapshot files, a
//! write-ahead park journal, and the boot-time recovery scan.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/s<hex-of-id>.snap   one snapshot per parked session (atomic)
//! <dir>/s<hex-of-id>.tmp    in-flight write (never read; deleted on scan)
//! <dir>/park.journal        append-only write-ahead journal
//! ```
//!
//! Session ids are arbitrary strings (they come from URL path segments), so
//! file names carry the id hex-encoded — bijective, case-safe and free of
//! path metacharacters.
//!
//! ## Write protocol (WAL)
//!
//! [`SessionStore::park`] first appends a `park` intent to the journal,
//! then writes the snapshot to a `.tmp` file, fsyncs it (policy), and
//! renames it over the `.snap` name. A crash at any point leaves either the
//! old snapshot, a complete new snapshot, or a `.tmp` orphan plus the old
//! snapshot — never a half-written `.snap` visible under its final name on
//! a POSIX filesystem. Even where rename atomicity is violated (or a torn
//! sector lands), every read path re-validates the snapshot's digests, so
//! the worst outcome is "snapshot discarded", never "wrong state resumed".
//!
//! ## Recovery
//!
//! [`SessionStore::recover`] deletes `.tmp` orphans, fully validates every
//! `.snap` (header + payload digest via the caller's validator, which also
//! binds the artifact digest to a registered model), deletes the invalid
//! ones, reconciles against the journal (a session journaled as parked
//! whose file is missing counts as lost), and rewrites the journal to the
//! surviving set.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::path::PathBuf;

use crate::codec::fnv1a;

/// When the store issues `fsync` during a park.
///
/// `Always` is the crash-safe setting the kill -9 harness runs under: the
/// journal append and the snapshot bytes are both on stable storage before
/// the park is acknowledged. `Never` trades durability of the *latest*
/// parks for speed — after a power loss the store falls back to whatever
/// the kernel had written back, and the digest checks still guarantee
/// whatever is read back is internally consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync the journal and every snapshot write (default).
    #[default]
    Always,
    /// Never fsync; rely on kernel writeback.
    Never,
}

/// One entry the recovery scan found and validated.
#[derive(Debug)]
pub struct RecoveredSnapshot {
    /// The session id the file name decodes to.
    pub id: String,
    /// The full, already-digest-validated snapshot bytes.
    pub bytes: Vec<u8>,
}

/// What the recovery scan did.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Validated snapshots, ready to resume.
    pub recovered: Vec<RecoveredSnapshot>,
    /// Files discarded: torn, digest-mismatched, unparseable names, or
    /// journaled-but-missing sessions.
    pub discarded: u64,
}

/// A directory of digest-checked session snapshots with a write-ahead park
/// journal.
#[derive(Debug)]
pub struct SessionStore {
    dir: PathBuf,
    journal: File,
    fsync: FsyncPolicy,
}

impl SessionStore {
    /// Opens (creating if needed) the store directory and its journal.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and journal-open failures.
    pub fn open(dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("park.journal"))?;
        Ok(Self {
            dir,
            journal,
            fsync,
        })
    }

    /// The configured fsync policy.
    #[must_use]
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }

    fn snap_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("s{}.snap", encode_id(id)))
    }

    fn maybe_sync(&self, file: &File) -> std::io::Result<()> {
        match self.fsync {
            FsyncPolicy::Always => file.sync_all(),
            FsyncPolicy::Never => Ok(()),
        }
    }

    fn sync_dir(&self) -> std::io::Result<()> {
        if self.fsync == FsyncPolicy::Always {
            // Persist the rename itself (the directory entry).
            File::open(&self.dir)?.sync_all()?;
        }
        Ok(())
    }

    fn journal_append(&mut self, line: &str) -> std::io::Result<()> {
        self.journal.write_all(line.as_bytes())?;
        match self.fsync {
            FsyncPolicy::Always => self.journal.sync_all(),
            FsyncPolicy::Never => Ok(()),
        }
    }

    /// Durably parks one session snapshot: journal intent first, then an
    /// atomic tmp-write/rename of the snapshot bytes.
    ///
    /// # Errors
    ///
    /// Propagates journal and file I/O failures; on error the previous
    /// snapshot of `id` (if any) is still intact, and a `.tmp` file the park
    /// created is removed.
    pub fn park(&mut self, id: &str, bytes: &[u8]) -> std::io::Result<()> {
        let hex = encode_id(id);
        self.journal_append(&format!(
            "park {hex} {} {:016x}\n",
            bytes.len(),
            fnv1a(bytes)
        ))?;
        let final_path = self.snap_path(id);
        let tmp_path = final_path.with_extension("tmp");
        let mut tmp = File::create(&tmp_path)?;
        let synced = tmp.write_all(bytes).and_then(|()| self.maybe_sync(&tmp));
        drop(tmp);
        let placed = synced.and_then(|()| std::fs::rename(&tmp_path, &final_path));
        if placed.is_err() {
            // The park's own error is what the caller gets; a failed removal
            // leaves the orphan to the startup scan, which deletes it.
            let _ = std::fs::remove_file(&tmp_path);
        }
        placed?;
        self.sync_dir()
    }

    /// Reads back the parked snapshot of `id`, if one exists. The bytes are
    /// returned as stored — the caller validates digests on restore.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than "not found".
    pub fn load(&self, id: &str) -> std::io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.snap_path(id)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Returns `true` if a snapshot file exists for `id`.
    #[must_use]
    pub fn contains(&self, id: &str) -> bool {
        self.snap_path(id).exists()
    }

    /// Removes the parked snapshot of `id` (journaled): the id is fully
    /// reclaimed — a later recovery scan cannot resurrect it.
    ///
    /// # Errors
    ///
    /// Propagates journal and unlink failures; a missing file is success.
    pub fn remove(&mut self, id: &str) -> std::io::Result<()> {
        self.journal_append(&format!("drop {}\n", encode_id(id)))?;
        match std::fs::remove_file(self.snap_path(id)) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The boot-time crash-recovery scan.
    ///
    /// Deletes `.tmp` orphans, reads every `.snap`, validates it with
    /// `validate` (the caller checks header digests, payload digest and
    /// artifact binding), deletes invalid files, reconciles the journal
    /// (journaled-live sessions with no surviving file count as discarded)
    /// and compacts the journal to the surviving set.
    ///
    /// # Errors
    ///
    /// Propagates directory-level I/O failures. Per-file read failures
    /// count as discards, not errors — a recovery scan must always get the
    /// server up.
    pub fn recover(
        &mut self,
        mut validate: impl FnMut(&str, &[u8]) -> bool,
    ) -> std::io::Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        let journaled = self.journaled_live()?;
        let mut seen: HashMap<String, bool> = HashMap::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            let ext = path.extension().and_then(|e| e.to_str());
            match ext {
                Some("tmp") => {
                    // An in-flight write that never committed.
                    let _ = std::fs::remove_file(&path);
                    report.discarded += 1;
                }
                Some("snap") => {
                    let id = path
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .and_then(decode_file_stem);
                    let Some(id) = id else {
                        let _ = std::fs::remove_file(&path);
                        report.discarded += 1;
                        continue;
                    };
                    let Ok(bytes) = std::fs::read(&path) else {
                        let _ = std::fs::remove_file(&path);
                        report.discarded += 1;
                        seen.insert(id, false);
                        continue;
                    };
                    if validate(&id, &bytes) {
                        seen.insert(id.clone(), true);
                        report.recovered.push(RecoveredSnapshot { id, bytes });
                    } else {
                        let _ = std::fs::remove_file(&path);
                        report.discarded += 1;
                        seen.insert(id, false);
                    }
                }
                _ => {}
            }
        }
        // Sessions the journal believes are parked but whose file vanished
        // (crash between journal append and rename) are lost sessions.
        for id in journaled {
            if !seen.contains_key(&id) {
                report.discarded += 1;
            }
        }
        // Deterministic adoption order regardless of directory iteration.
        report.recovered.sort_by(|a, b| a.id.cmp(&b.id));
        self.compact_journal(&report.recovered)?;
        Ok(report)
    }

    /// Ids whose most recent journal record is a `park` (best-effort: a
    /// torn trailing line — the expected artifact of a crash mid-append —
    /// is ignored).
    fn journaled_live(&self) -> std::io::Result<Vec<String>> {
        let path = self.dir.join("park.journal");
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut live: HashMap<String, bool> = HashMap::new();
        let mut reader = BufReader::new(file);
        let mut raw = Vec::new();
        reader.read_to_end(&mut raw)?;
        for line in raw.split(|&b| b == b'\n') {
            let Ok(line) = std::str::from_utf8(line) else {
                continue;
            };
            // Exact single-space separators: the hex field of an empty
            // session id is itself empty, which `split_whitespace` would
            // collapse away (misreading the length field as the id).
            let mut fields = line.split(' ');
            match (fields.next(), fields.next()) {
                (Some("park"), Some(hex)) => {
                    if let Some(id) = decode_hex(hex) {
                        live.insert(id, true);
                    }
                }
                (Some("drop"), Some(hex)) => {
                    if let Some(id) = decode_hex(hex) {
                        live.insert(id, false);
                    }
                }
                _ => {}
            }
        }
        Ok(live
            .into_iter()
            .filter_map(|(id, is_live)| is_live.then_some(id))
            .collect())
    }

    /// Rewrites the journal to exactly the surviving set (atomic, like a
    /// snapshot write).
    fn compact_journal(&mut self, survivors: &[RecoveredSnapshot]) -> std::io::Result<()> {
        let path = self.dir.join("park.journal");
        let tmp = self.dir.join("park.journal.compact");
        {
            let mut file = File::create(&tmp)?;
            for s in survivors {
                let line = format!(
                    "park {} {} {:016x}\n",
                    encode_id(&s.id),
                    s.bytes.len(),
                    fnv1a(&s.bytes)
                );
                file.write_all(line.as_bytes())?;
            }
            self.maybe_sync(&file)?;
        }
        std::fs::rename(&tmp, &path)?;
        self.sync_dir()?;
        // Re-open the append handle on the new inode.
        self.journal = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(())
    }
}

/// Hex-encodes a session id for use as a file name.
fn encode_id(id: &str) -> String {
    let mut out = String::with_capacity(id.len() * 2);
    for b in id.as_bytes() {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decodes a `s<hex>` file stem back to the session id.
fn decode_file_stem(stem: &str) -> Option<String> {
    decode_hex(stem.strip_prefix('s')?)
}

fn decode_hex(hex: &str) -> Option<String> {
    if hex.len() % 2 != 0 {
        return None;
    }
    let mut bytes = Vec::with_capacity(hex.len() / 2);
    for pair in hex.as_bytes().chunks_exact(2) {
        let s = std::str::from_utf8(pair).ok()?;
        bytes.push(u8::from_str_radix(s, 16).ok()?);
    }
    String::from_utf8(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{SnapshotBuilder, SnapshotKind, SnapshotView};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sne-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn snapshot(digest: u64, body: &[u8]) -> Vec<u8> {
        let mut b = SnapshotBuilder::new(SnapshotKind::ClientState, digest);
        b.section(1, body);
        b.finish()
    }

    fn valid(_: &str, bytes: &[u8]) -> bool {
        SnapshotView::parse(bytes).is_ok()
    }

    #[test]
    fn park_load_remove_round_trip() {
        let dir = tempdir("roundtrip");
        let mut store = SessionStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(store.load("dvs/0").unwrap(), None);
        let bytes = snapshot(7, b"payload");
        store.park("dvs/0", &bytes).unwrap();
        assert!(store.contains("dvs/0"));
        assert_eq!(store.load("dvs/0").unwrap(), Some(bytes.clone()));
        // Overwrite is atomic and wins.
        let newer = snapshot(7, b"newer");
        store.park("dvs/0", &newer).unwrap();
        assert_eq!(store.load("dvs/0").unwrap(), Some(newer));
        store.remove("dvs/0").unwrap();
        assert!(!store.contains("dvs/0"));
        assert_eq!(store.load("dvs/0").unwrap(), None);
        // Removing a missing id is fine.
        store.remove("dvs/0").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_park_removes_its_tmp_and_keeps_the_previous_snapshot() {
        let dir = tempdir("failed-park");
        let mut store = SessionStore::open(&dir, FsyncPolicy::Never).unwrap();
        let kept = snapshot(3, b"kept");
        store.park("dvs/1", &kept).unwrap();
        // A directory at the final `.snap` path: the write succeeds, the
        // rename fails.
        let blocked = store.snap_path("dvs/2");
        std::fs::create_dir(&blocked).unwrap();
        std::fs::write(blocked.join("occupant"), b"x").unwrap();
        assert!(store.park("dvs/2", &snapshot(4, b"lost")).is_err());
        assert!(!blocked.with_extension("tmp").exists());
        // The same for an id with a snapshot already parked: it survives.
        let kept_path = store.snap_path("dvs/1");
        std::fs::remove_file(&kept_path).unwrap();
        std::fs::create_dir(&kept_path).unwrap();
        assert!(store.park("dvs/1", &snapshot(5, b"newer")).is_err());
        assert!(!kept_path.with_extension("tmp").exists());
        std::fs::remove_dir(&kept_path).unwrap();
        store.park("dvs/1", &kept).unwrap();
        assert_eq!(store.load("dvs/1").unwrap(), Some(kept));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|entry| entry.ok())
            .filter(|entry| entry.path().extension().is_some_and(|e| e == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_ids_are_filesystem_safe() {
        let dir = tempdir("hostile");
        let mut store = SessionStore::open(&dir, FsyncPolicy::Never).unwrap();
        let ids = ["../../etc/passwd", "a b\tc", "日本語", ".", ""];
        for (i, id) in ids.iter().enumerate() {
            let bytes = snapshot(i as u64, id.as_bytes());
            store.park(id, &bytes).unwrap();
            assert_eq!(store.load(id).unwrap(), Some(bytes));
        }
        // Every file landed inside the store dir.
        let report = store.recover(valid).unwrap();
        assert_eq!(report.recovered.len(), ids.len());
        assert_eq!(report.discarded, 0);
        let mut recovered: Vec<&str> = report.recovered.iter().map(|r| r.id.as_str()).collect();
        recovered.sort_unstable();
        let mut expected: Vec<&str> = ids.to_vec();
        expected.sort_unstable();
        assert_eq!(recovered, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_discards_torn_and_corrupt_files() {
        let dir = tempdir("recover");
        let mut store = SessionStore::open(&dir, FsyncPolicy::Always).unwrap();
        store.park("good", &snapshot(1, b"good")).unwrap();
        store.park("torn", &snapshot(1, b"torn-victim")).unwrap();
        store.park("flipped", &snapshot(1, b"flip-victim")).unwrap();
        store.park("vanished", &snapshot(1, b"gone")).unwrap();
        drop(store);

        // Injected faults: truncate one, flip a payload byte in another,
        // delete a journaled one, and strand a tmp orphan.
        let paths: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "snap"))
            .collect();
        for path in &paths {
            let stem = path.file_stem().unwrap().to_str().unwrap();
            let id = decode_file_stem(stem).unwrap();
            match id.as_str() {
                "torn" => {
                    let bytes = std::fs::read(path).unwrap();
                    std::fs::write(path, &bytes[..bytes.len() - 3]).unwrap();
                }
                "flipped" => {
                    let mut bytes = std::fs::read(path).unwrap();
                    let last = bytes.len() - 1;
                    bytes[last] ^= 0xFF;
                    std::fs::write(path, &bytes).unwrap();
                }
                "vanished" => std::fs::remove_file(path).unwrap(),
                _ => {}
            }
        }
        std::fs::write(dir.join("sdead.tmp"), b"half a write").unwrap();

        let mut store = SessionStore::open(&dir, FsyncPolicy::Always).unwrap();
        let report = store.recover(valid).unwrap();
        assert_eq!(report.recovered.len(), 1);
        assert_eq!(report.recovered[0].id, "good");
        // torn + flipped + vanished(journal) + tmp orphan.
        assert_eq!(report.discarded, 4);
        assert!(!dir.join("sdead.tmp").exists());

        // A second scan is clean: the journal was compacted to survivors.
        let report = store.recover(valid).unwrap();
        assert_eq!(report.recovered.len(), 1);
        assert_eq!(report.discarded, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn id_encoding_is_bijective() {
        for id in ["plain", "with/slash", "..", "", "ü"] {
            assert_eq!(decode_hex(&encode_id(id)).as_deref(), Some(id));
        }
        assert_eq!(decode_hex("zz"), None);
        assert_eq!(decode_hex("abc"), None);
        assert_eq!(decode_file_stem("xab"), None);
    }
}
