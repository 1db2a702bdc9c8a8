//! The streaming-session table (DESIGN.md §14). A session's mutable half
//! is one [`ClientState`], kept **warm** (in memory, stamped by a logical
//! LRU clock) or **cold** (only a snapshot in the durable store).
//! [`SessionTable`] owns both tiers, the clock, the warm capacity and the
//! optional [`SessionStore`] with its counters; every session-state
//! transition goes through it. A push takes a [`Checkout`] and settles it
//! exactly once, by [`SessionTable::park`] or [`SessionTable::abandon`].
//!
//! Lock order: the table lock before the store lock. They nest only in
//! `checkout`, where fault-in reads the snapshot and demotion checks that
//! the victim's snapshot exists. `park` writes the snapshot before it takes
//! the table lock, and `close` touches the store after releasing it.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use sne::artifact::{ClientState, RuntimeArtifact};
use sne_store::{FsyncPolicy, Header, SessionStore};

use crate::server::lock_clean;

/// A point-in-time copy of the durability counters, from
/// [`crate::Server::durability`] or `"durability"` in `/v1/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// Warm sessions demoted to the disk tier by LRU eviction.
    pub parked_to_disk: u64,
    /// Cold sessions promoted back to memory by a push.
    pub faulted_in: u64,
    /// Snapshots adopted into the cold tier by the boot recovery scan.
    pub recovered_on_boot: u64,
    /// Snapshots discarded as torn, corrupt, or bound to an unregistered
    /// artifact — sessions reported lost rather than resurrected wrong.
    pub corrupt_discarded: u64,
    /// Pushes refused with 503 because their write-ahead park failed.
    pub park_failures: u64,
    /// Snapshot removals whose journal append or unlink failed: a close,
    /// the discard of a corrupt cold snapshot, or the retraction of a
    /// failed first park. The next boot may miscount such a session as
    /// lost or bring a closed one back.
    pub remove_failures: u64,
    /// Sessions currently parked on disk.
    pub cold_sessions: u64,
}

/// Session counts and durability counters at one instant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TableStats {
    pub(crate) warm: usize,
    pub(crate) cold: usize,
    /// `None` without a durable store.
    pub(crate) durability: Option<DurabilityStats>,
}

/// Why [`SessionTable::checkout`] or [`SessionTable::close`] refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionError {
    /// The push names another model than the session's.
    WrongModel,
    ModelRequired,
    UnknownModel,
    UnknownSession,
    /// A push to the session is in flight.
    Busy,
    /// `chunk_seq` does not match the session's cursor.
    Seq {
        expected: u64,
        got: u64,
    },
    /// The warm tier is full and no session can be demoted.
    Full,
    /// The cold snapshot of a session bound to `model` failed verification
    /// (or, on close, to load at all); the session is discarded.
    Corrupt {
        model: usize,
    },
    /// The cold snapshot of a session bound to `model` is gone or
    /// unreadable; the session is discarded.
    Missing {
        model: usize,
    },
}

/// One push's hold on a session, from [`SessionTable::checkout`] until it
/// is settled by [`SessionTable::park`] or [`SessionTable::abandon`].
#[must_use = "settle a checkout with `SessionTable::park` or `SessionTable::abandon`"]
#[derive(Debug)]
pub(crate) struct Checkout {
    /// The lane that served the session's last chunk: the affinity hint.
    pub(crate) preferred_lane: Option<usize>,
    id: String,
    model: usize,
    /// This checkout created the session, so a failed push forgets it.
    created: bool,
}

impl Checkout {
    /// Registry index of the session's model.
    pub(crate) fn model(&self) -> usize {
        self.model
    }
}

/// One warm session. `client` is `None` while a push is in flight (the
/// session is busy); `last_used` is the LRU clock at the last touch.
#[derive(Debug)]
struct WarmEntry {
    model: usize,
    client: Option<ClientState>,
    preferred_lane: Option<usize>,
    last_used: u64,
}

/// Everything behind the table lock.
#[derive(Debug, Default)]
struct Tiers {
    warm: HashMap<String, WarmEntry>,
    /// Cold session id → model index. Only demotion, boot adoption and a
    /// failed park add entries, and each needs a durable store.
    cold: HashMap<String, usize>,
    /// Logical LRU clock, bumped by every checkout and park.
    clock: u64,
}

/// The snapshot store plus the counters of [`DurabilityStats`].
#[derive(Debug)]
struct Durable {
    store: Mutex<SessionStore>,
    parked_to_disk: AtomicU64,
    faulted_in: AtomicU64,
    recovered_on_boot: u64,
    corrupt_discarded: AtomicU64,
    park_failures: AtomicU64,
    remove_failures: AtomicU64,
}

impl Durable {
    /// Removes `id`'s snapshot from the store, counting a failure in
    /// [`DurabilityStats::remove_failures`]. No caller can do more with the
    /// error: the session is already gone from both tiers.
    fn remove(&self, id: &str) {
        if lock_clean(&self.store).remove(id).is_err() {
            self.remove_failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The two-tier session table (see the module docs).
#[derive(Debug)]
pub(crate) struct SessionTable {
    /// Registered models in registry order: name and compiled artifact.
    models: Vec<(String, Arc<RuntimeArtifact>)>,
    capacity: usize,
    tiers: Mutex<Tiers>,
    /// `None` runs the memory-only table: no cold tier, and a full warm
    /// tier refuses new sessions.
    durable: Option<Durable>,
}

impl SessionTable {
    /// A memory-only table over `models` holding at most `capacity` warm
    /// sessions.
    pub(crate) fn new(models: Vec<(String, Arc<RuntimeArtifact>)>, capacity: usize) -> Self {
        Self {
            models,
            capacity,
            tiers: Mutex::new(Tiers::default()),
            durable: None,
        }
    }

    /// Opens the snapshot store in `dir` at boot and runs its recovery
    /// scan. Torn, corrupt or unbound snapshots (no registered model has
    /// the header's artifact digest) are deleted and counted, never an
    /// error; survivors are adopted into the cold tier.
    ///
    /// # Errors
    ///
    /// Propagates directory-level I/O failures of the store.
    pub(crate) fn adopt(&mut self, dir: PathBuf, fsync: FsyncPolicy) -> std::io::Result<()> {
        let mut store = SessionStore::open(dir, fsync)?;
        let digests: Vec<u64> = self.models.iter().map(|(_, a)| a.state_digest()).collect();
        let mut adopted = Vec::new();
        let report = store.recover(|id, bytes| {
            // An O(1) header probe picks the candidate model; a full restore
            // then proves the payload decodes before the session is adopted.
            let index = Header::parse(bytes)
                .ok()
                .and_then(|h| digests.iter().position(|&d| d == h.artifact_digest))
                .filter(|&i| self.models[i].1.restore_client(bytes).is_ok());
            adopted.extend(index.map(|i| (id.to_owned(), i)));
            index.is_some()
        })?;
        let tiers = self.tiers.get_mut().unwrap_or_else(PoisonError::into_inner);
        tiers.cold.extend(adopted);
        self.durable = Some(Durable {
            store: Mutex::new(store),
            parked_to_disk: AtomicU64::new(0),
            faulted_in: AtomicU64::new(0),
            recovered_on_boot: report.recovered.len() as u64,
            corrupt_discarded: AtomicU64::new(report.discarded),
            park_failures: AtomicU64::new(0),
            remove_failures: AtomicU64::new(0),
        });
        Ok(())
    }

    /// Takes session `id` for one push and marks it busy: a warm session
    /// hands out its state, a cold one is faulted in (loaded, verified and
    /// promoted), and an unknown id becomes a new session of `model`. A
    /// promotion or creation at warm capacity demotes the least-recently
    /// used parked session.
    ///
    /// # Errors
    ///
    /// A refused checkout leaves the session as it was, unless its cold
    /// snapshot failed to load.
    pub(crate) fn checkout(
        &self,
        id: &str,
        model: Option<&str>,
        chunk_seq: Option<u64>,
    ) -> Result<(Checkout, ClientState), SessionError> {
        let mut tiers = lock_clean(&self.tiers);
        tiers.clock += 1;
        let stamp = tiers.clock;
        let bound_elsewhere = |bound: usize| model.is_some_and(|name| name != self.models[bound].0);
        if let Some(entry) = tiers.warm.get_mut(id) {
            if bound_elsewhere(entry.model) {
                return Err(SessionError::WrongModel);
            }
            let client = entry.client.take().ok_or(SessionError::Busy)?;
            if let Err(conflict) = fence(chunk_seq, client.chunks_pushed()) {
                entry.client = Some(client);
                return Err(conflict);
            }
            entry.last_used = stamp;
            let checkout = Checkout {
                id: id.to_owned(),
                model: entry.model,
                preferred_lane: entry.preferred_lane,
                created: false,
            };
            return Ok((checkout, client));
        }

        // Cold: load the parked state. New: resolve the named model.
        let (model, restored) = match self.durable.as_ref().zip(tiers.cold.get(id).copied()) {
            Some((durable, bound)) => {
                if bound_elsewhere(bound) {
                    return Err(SessionError::WrongModel);
                }
                match self.load_cold(id, bound) {
                    Ok(client) => (bound, Some((durable, client))),
                    Err(lost) => {
                        tiers.cold.remove(id);
                        if !matches!(lost, SessionError::Missing { .. }) {
                            durable.remove(id);
                        }
                        return Err(lost);
                    }
                }
            }
            None => {
                let name = model.ok_or(SessionError::ModelRequired)?;
                let index = self.models.iter().position(|(n, _)| n == name);
                (index.ok_or(SessionError::UnknownModel)?, None)
            }
        };
        // Until the promotion below, a cold session stays cold and its
        // snapshot untouched.
        let cursor = restored.as_ref().map_or(0, |(_, c)| c.chunks_pushed());
        fence(chunk_seq, cursor)?;
        if tiers.warm.len() >= self.capacity && !self.demote_lru(&mut tiers) {
            return Err(SessionError::Full);
        }
        tiers.cold.remove(id);
        tiers.warm.insert(
            id.to_owned(),
            WarmEntry {
                model,
                client: None,
                preferred_lane: None,
                last_used: stamp,
            },
        );
        let checkout = Checkout {
            id: id.to_owned(),
            model,
            preferred_lane: None,
            created: restored.is_none(),
        };
        let client = match restored {
            Some((durable, client)) => {
                durable.faulted_in.fetch_add(1, Ordering::Relaxed);
                client
            }
            None => self.models[model].1.new_client(),
        };
        Ok((checkout, client))
    }

    /// Settles a push that advanced `client`: with a durable store the
    /// state is parked first (write-ahead, before the table lock is taken),
    /// then the session is unmarked busy with `lane` as its affinity hint.
    ///
    /// # Errors
    ///
    /// A failed park settles the push as not applied and is counted: a
    /// session this checkout created is forgotten (its journaled park
    /// intent retracted), and an existing one moves to the cold tier at its
    /// previous snapshot, which the store leaves intact.
    pub(crate) fn park(
        &self,
        checkout: Checkout,
        client: ClientState,
        lane: usize,
    ) -> std::io::Result<()> {
        if let Some(durable) = &self.durable {
            let bytes = self.models[checkout.model].1.snapshot_client(&client);
            let parked = lock_clean(&durable.store).park(&checkout.id, &bytes);
            if parked.is_err() && checkout.created {
                // No earlier snapshot to fall back to: drop the id, or the
                // next boot's recovery scan counts the `park` intent the
                // store journaled as a lost session. The session is still
                // marked busy, so nothing else touches the id meanwhile.
                durable.remove(&checkout.id);
            }
            if let Err(error) = parked {
                durable.park_failures.fetch_add(1, Ordering::Relaxed);
                let mut tiers = lock_clean(&self.tiers);
                tiers.warm.remove(&checkout.id);
                if !checkout.created {
                    tiers.cold.insert(checkout.id, checkout.model);
                }
                return Err(error);
            }
        }
        let mut tiers = lock_clean(&self.tiers);
        tiers.clock += 1;
        let stamp = tiers.clock;
        if let Some(entry) = tiers.warm.get_mut(&checkout.id) {
            entry.client = Some(client);
            entry.last_used = stamp;
            entry.preferred_lane = Some(lane);
        }
        Ok(())
    }

    /// Settles a push that did not advance `client`: the state goes back
    /// and the session is unmarked busy. A session this checkout created is
    /// forgotten instead; the client was never told it exists.
    pub(crate) fn abandon(&self, checkout: Checkout, client: ClientState) {
        let mut tiers = lock_clean(&self.tiers);
        if checkout.created {
            tiers.warm.remove(&checkout.id);
        } else if let Some(entry) = tiers.warm.get_mut(&checkout.id) {
            entry.client = Some(client);
        }
    }

    /// Removes session `id` from either tier and reclaims its snapshot, so
    /// a closed id cannot resurrect after a restart. Returns the session's
    /// model index and final state.
    ///
    /// # Errors
    ///
    /// A corrupt cold session is removed too; it has no state to summarize.
    pub(crate) fn close(&self, id: &str) -> Result<(usize, ClientState), SessionError> {
        let (model, warm) = {
            let mut tiers = lock_clean(&self.tiers);
            if tiers.warm.get(id).is_some_and(|e| e.client.is_none()) {
                return Err(SessionError::Busy);
            }
            match tiers.warm.remove(id) {
                Some(entry) => (entry.model, entry.client),
                None => (
                    tiers.cold.remove(id).ok_or(SessionError::UnknownSession)?,
                    None,
                ),
            }
        };
        let client = match warm {
            Some(client) => Ok(client),
            None => self
                .load_cold(id, model)
                .map_err(|_| SessionError::Corrupt { model }),
        };
        if let Some(durable) = &self.durable {
            durable.remove(id);
        }
        client.map(|client| (model, client))
    }

    /// Session counts and, with a durable store, its counters.
    pub(crate) fn stats(&self) -> TableStats {
        let tiers = lock_clean(&self.tiers);
        TableStats {
            warm: tiers.warm.len(),
            cold: tiers.cold.len(),
            durability: self.durable.as_ref().map(|d| DurabilityStats {
                parked_to_disk: d.parked_to_disk.load(Ordering::Relaxed),
                faulted_in: d.faulted_in.load(Ordering::Relaxed),
                recovered_on_boot: d.recovered_on_boot,
                corrupt_discarded: d.corrupt_discarded.load(Ordering::Relaxed),
                park_failures: d.park_failures.load(Ordering::Relaxed),
                remove_failures: d.remove_failures.load(Ordering::Relaxed),
                cold_sessions: tiers.cold.len() as u64,
            }),
        }
    }

    /// Reads and verifies a cold session's snapshot. Every failure counts
    /// as a discarded snapshot.
    fn load_cold(&self, id: &str, model: usize) -> Result<ClientState, SessionError> {
        let durable = self.durable.as_ref().expect("cold sessions need a store");
        let loaded = lock_clean(&durable.store).load(id);
        let restored = match loaded {
            Ok(Some(bytes)) => self.models[model]
                .1
                .restore_client(&bytes)
                .map_err(|_| SessionError::Corrupt { model }),
            Ok(None) | Err(_) => Err(SessionError::Missing { model }),
        };
        if restored.is_err() {
            durable.corrupt_discarded.fetch_add(1, Ordering::Relaxed);
        }
        restored
    }

    /// Demotes the least-recently-used parked warm session to the cold tier
    /// — a map move, since its last push parked its snapshot. Returns
    /// `false` when nothing is demotable: no store, every warm session busy,
    /// or the victim's snapshot not on disk.
    fn demote_lru(&self, tiers: &mut Tiers) -> bool {
        let Some(durable) = &self.durable else {
            return false;
        };
        let Some((victim, model)) = tiers
            .warm
            .iter()
            .filter(|(_, e)| e.client.is_some())
            .min_by_key(|(_, e)| e.last_used)
            .map(|(id, e)| (id.clone(), e.model))
        else {
            return false;
        };
        if !lock_clean(&durable.store).contains(&victim) {
            return false;
        }
        tiers.warm.remove(&victim);
        tiers.cold.insert(victim, model);
        durable.parked_to_disk.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// Checks a push's `chunk_seq` against the session's cursor.
fn fence(chunk_seq: Option<u64>, expected: u64) -> Result<(), SessionError> {
    match chunk_seq {
        Some(got) if got != expected => Err(SessionError::Seq { expected, got }),
        _ => Ok(()),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::path::Path;

    use rand::SeedableRng;
    use sne::compile::CompiledNetwork;
    use sne_model::topology::Topology;
    use sne_model::Shape;
    use sne_sim::{ExecStrategy, SneConfig};

    use super::*;

    fn artifact(seed: u64) -> Arc<RuntimeArtifact> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topology = Topology::tiny(Shape::new(2, 8, 8), 4, 3);
        let network = CompiledNetwork::random(&topology, &mut rng).unwrap();
        Arc::new(RuntimeArtifact::new(network, SneConfig::with_slices(2)).unwrap())
    }

    /// A table over models "a" (index 0) and "b" (index 1), durable when
    /// `dir` is given.
    fn table(capacity: usize, dir: Option<&Path>) -> SessionTable {
        let models = vec![("a".to_owned(), artifact(1)), ("b".to_owned(), artifact(2))];
        let mut table = SessionTable::new(models, capacity);
        if let Some(dir) = dir {
            table.adopt(dir.to_path_buf(), FsyncPolicy::Never).unwrap();
        }
        table
    }

    pub(crate) fn store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sne-sessions-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The store's file for `id` with `extension` (the id is hex-encoded).
    pub(crate) fn store_file(dir: &Path, id: &str, extension: &str) -> PathBuf {
        let hex: String = id.bytes().map(|b| format!("{b:02x}")).collect();
        dir.join(format!("s{hex}.{extension}"))
    }

    /// Runs one chunk on `client`, as a scheduler worker would.
    fn advance(table: &SessionTable, model: usize, client: &mut ClientState) {
        let artifact = &table.models[model].1;
        let seed = client.chunks_pushed();
        let chunk = sne::proportionality::stream_with_activity((2, 8, 8), 4, 0.1, seed);
        let mut engine = artifact.new_engine(ExecStrategy::Sequential);
        artifact.push(&mut engine, client, &chunk, true).unwrap();
    }

    /// One successful push to `id`, served on lane 0.
    fn push(table: &SessionTable, id: &str, model: Option<&str>) {
        let (checkout, mut client) = table.checkout(id, model, None).unwrap();
        advance(table, checkout.model, &mut client);
        table.park(checkout, client, 0).unwrap();
    }

    fn durability(table: &SessionTable) -> DurabilityStats {
        table.stats().durability.expect("durable table")
    }

    #[test]
    fn warm_checkout_park_and_abandon() {
        let table = table(4, None);
        let (checkout, mut client) = table.checkout("s", Some("b"), None).unwrap();
        assert_eq!((checkout.model, checkout.preferred_lane), (1, None));
        advance(&table, 1, &mut client);
        table.park(checkout, client, 3).unwrap();
        assert_eq!(table.stats().warm, 1);
        assert!(table.stats().durability.is_none());

        // A warm take hands out the parked state and the serving lane.
        let (checkout, client) = table.checkout("s", None, None).unwrap();
        assert_eq!((checkout.model, checkout.preferred_lane), (1, Some(3)));
        assert_eq!(client.chunks_pushed(), 1);
        // Abandon puts the untouched state back and unmarks the session.
        table.abandon(checkout, client);
        let (checkout, client) = table.checkout("s", Some("b"), Some(1)).unwrap();
        assert_eq!(client.chunks_pushed(), 1);
        table.abandon(checkout, client);
        assert_eq!(table.stats().warm, 1);
    }

    #[test]
    fn a_busy_session_refuses_pushes_and_close() {
        let table = table(4, None);
        push(&table, "s", Some("a"));
        let (checkout, client) = table.checkout("s", None, None).unwrap();
        assert_eq!(
            table.checkout("s", None, None).unwrap_err(),
            SessionError::Busy
        );
        assert_eq!(table.close("s").unwrap_err(), SessionError::Busy);
        table.abandon(checkout, client);
        let (model, client) = table.close("s").unwrap();
        assert_eq!((model, client.chunks_pushed()), (0, 1));
    }

    #[test]
    fn pushes_must_name_a_registered_model_and_keep_it() {
        let dir = store_dir("models");
        let table = table(1, Some(&dir));
        let refused = |id, model| table.checkout(id, model, None).unwrap_err();
        assert_eq!(refused("s", None), SessionError::ModelRequired);
        assert_eq!(refused("s", Some("c")), SessionError::UnknownModel);
        push(&table, "s", Some("a"));
        assert_eq!(refused("s", Some("b")), SessionError::WrongModel);
        // Demoted by `t`, the session keeps its binding in the cold tier.
        push(&table, "t", Some("b"));
        assert_eq!(refused("s", Some("b")), SessionError::WrongModel);
        assert_eq!(table.stats().cold, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunk_seq_fences_every_tier() {
        let dir = store_dir("seq");
        let table = table(1, Some(&dir));
        let conflict = |expected, got| SessionError::Seq { expected, got };
        // New: the cursor starts at 0, and a refused first push creates
        // nothing.
        let refused = table.checkout("s", Some("a"), Some(2)).unwrap_err();
        assert_eq!(refused, conflict(0, 2));
        assert_eq!(table.stats().warm, 0);
        push(&table, "s", Some("a"));

        // Warm: a replayed chunk conflicts and the session stays parked.
        let refused = table.checkout("s", None, Some(0)).unwrap_err();
        assert_eq!(refused, conflict(1, 0));

        // Cold: a skipped chunk conflicts and the session stays cold.
        push(&table, "t", Some("a"));
        let refused = table.checkout("s", None, Some(5)).unwrap_err();
        assert_eq!(refused, conflict(1, 5));
        assert_eq!((table.stats().warm, table.stats().cold), (1, 1));
        assert_eq!(durability(&table).faulted_in, 0);

        let (checkout, client) = table.checkout("s", None, Some(1)).unwrap();
        assert_eq!(client.chunks_pushed(), 1);
        table.abandon(checkout, client);
        assert_eq!(durability(&table).faulted_in, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_abandoned_new_session_is_forgotten() {
        let table = table(4, None);
        let (checkout, client) = table.checkout("s", Some("a"), None).unwrap();
        assert_eq!(table.stats().warm, 1);
        table.abandon(checkout, client);
        assert_eq!(table.stats().warm, 0);
        assert_eq!(table.close("s").unwrap_err(), SessionError::UnknownSession);
    }

    #[test]
    fn a_full_table_refuses_without_a_store_and_demotes_the_lru_with_one() {
        let memory = table(1, None);
        push(&memory, "s", Some("a"));
        let refused = memory.checkout("t", Some("a"), None).unwrap_err();
        assert_eq!(refused, SessionError::Full);

        let dir = store_dir("lru");
        let table = table(2, Some(&dir));
        push(&table, "x", Some("a"));
        push(&table, "y", Some("a"));
        // Touching `x` leaves `y` least recently used: `z` demotes it.
        let (checkout, client) = table.checkout("x", None, None).unwrap();
        table.abandon(checkout, client);
        push(&table, "z", Some("a"));
        assert_eq!((table.stats().warm, table.stats().cold), (2, 1));
        assert_eq!(durability(&table).parked_to_disk, 1);

        // Faulting `y` in demotes `x`; faulting `x` in demotes `z`.
        let (y, y_client) = table.checkout("y", None, None).unwrap();
        let (x, x_client) = table.checkout("x", None, None).unwrap();
        assert_eq!(durability(&table).parked_to_disk, 3);
        assert_eq!(durability(&table).faulted_in, 2);
        // Busy sessions are never demoted: with both warm sessions in
        // flight, `z` cannot come back.
        let refused = table.checkout("z", None, None).unwrap_err();
        assert_eq!(refused, SessionError::Full);
        assert_eq!(table.stats().cold, 1);
        table.abandon(y, y_client);
        table.abandon(x, x_client);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_in_restores_good_and_discards_corrupt_or_missing_snapshots() {
        let dir = store_dir("fault");
        let table = table(1, Some(&dir));
        for (id, model) in [
            ("good", "b"),
            ("corrupt", "a"),
            ("missing", "a"),
            ("w", "a"),
        ] {
            push(&table, id, Some(model));
        }
        assert_eq!(table.stats().cold, 3);
        let corrupt = store_file(&dir, "corrupt", "snap");
        let mut bytes = std::fs::read(&corrupt).unwrap();
        *bytes.last_mut().unwrap() ^= 0x40;
        std::fs::write(&corrupt, bytes).unwrap();
        std::fs::remove_file(store_file(&dir, "missing", "snap")).unwrap();

        // A good snapshot comes back bit-identically.
        let parked = std::fs::read(store_file(&dir, "good", "snap")).unwrap();
        let (checkout, client) = table.checkout("good", None, None).unwrap();
        assert_eq!(checkout.model, 1);
        assert_eq!(table.models[1].1.snapshot_client(&client), parked);
        table.abandon(checkout, client);
        assert_eq!(durability(&table).faulted_in, 1);

        // A bad one costs exactly its session.
        let refused = table.checkout("corrupt", None, None).unwrap_err();
        assert_eq!(refused, SessionError::Corrupt { model: 0 });
        assert!(!corrupt.exists());
        let refused = table.checkout("missing", None, None).unwrap_err();
        assert_eq!(refused, SessionError::Missing { model: 0 });
        let stats = durability(&table);
        assert_eq!((stats.corrupt_discarded, stats.cold_sessions), (2, 1));
        for id in ["corrupt", "missing"] {
            assert_eq!(table.close(id).unwrap_err(), SessionError::UnknownSession);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_reclaims_warm_cold_and_corrupt_sessions() {
        let dir = store_dir("close");
        let table = table(1, Some(&dir));
        push(&table, "cold", Some("a"));
        push(&table, "bad", Some("a"));
        push(&table, "warm", Some("b"));
        std::fs::write(store_file(&dir, "bad", "snap"), b"torn").unwrap();

        let (model, client) = table.close("warm").unwrap();
        assert_eq!((model, client.chunks_pushed()), (1, 1));
        let (model, client) = table.close("cold").unwrap();
        assert_eq!((model, client.chunks_pushed()), (0, 1));
        let refused = table.close("bad").unwrap_err();
        assert_eq!(refused, SessionError::Corrupt { model: 0 });
        assert_eq!(durability(&table).corrupt_discarded, 1);

        // Every tier and every snapshot is reclaimed.
        assert_eq!((table.stats().warm, table.stats().cold), (0, 0));
        for id in ["warm", "cold", "bad"] {
            assert!(!store_file(&dir, id, "snap").exists(), "{id}");
            assert_eq!(table.close(id).unwrap_err(), SessionError::UnknownSession);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_snapshot_removal_is_counted_and_close_still_answers() {
        let dir = store_dir("remove-fail");
        let table = table(4, Some(&dir));
        push(&table, "s", Some("a"));
        // A non-empty directory in place of the snapshot: its unlink fails
        // with EISDIR.
        let snap = store_file(&dir, "s", "snap");
        std::fs::remove_file(&snap).unwrap();
        std::fs::create_dir(&snap).unwrap();
        std::fs::write(snap.join("keep"), b"x").unwrap();
        assert_eq!(durability(&table).remove_failures, 0);

        let (model, client) = table.close("s").unwrap();
        assert_eq!((model, client.chunks_pushed()), (0, 1));
        assert_eq!(durability(&table).remove_failures, 1);
        assert_eq!(table.close("s").unwrap_err(), SessionError::UnknownSession);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adopt_takes_surviving_snapshots_into_the_cold_tier() {
        let dir = store_dir("adopt");
        let first = table(4, Some(&dir));
        for (id, model) in [("kept", "a"), ("torn", "a"), ("unbound", "b")] {
            push(&first, id, Some(model));
        }
        drop(first);
        let torn = store_file(&dir, "torn", "snap");
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() - 3]).unwrap();

        // Model "b" is no longer registered: its snapshot is a discard.
        let mut second = SessionTable::new(vec![("a".to_owned(), artifact(1))], 4);
        second.adopt(dir.clone(), FsyncPolicy::Never).unwrap();
        let stats = durability(&second);
        assert_eq!((stats.recovered_on_boot, stats.corrupt_discarded), (1, 2));
        assert_eq!((second.stats().warm, second.stats().cold), (0, 1));
        let (checkout, client) = second.checkout("kept", None, Some(1)).unwrap();
        assert_eq!(checkout.model, 0);
        second.abandon(checkout, client);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_park_forgets_a_new_session_and_colds_an_existing_one() {
        let dir = store_dir("park-fail");
        let table = table(4, Some(&dir));
        push(&table, "old", Some("a"));
        // A directory where the store writes its tmp file fails each park.
        for id in ["old", "new"] {
            std::fs::create_dir(store_file(&dir, id, "tmp")).unwrap();
        }

        let (checkout, mut client) = table.checkout("old", None, None).unwrap();
        advance(&table, 0, &mut client);
        assert!(table.park(checkout, client, 1).is_err());
        assert_eq!((table.stats().warm, table.stats().cold), (0, 1));
        let (checkout, mut client) = table.checkout("new", Some("a"), None).unwrap();
        advance(&table, 0, &mut client);
        assert!(table.park(checkout, client, 1).is_err());
        assert_eq!((table.stats().warm, table.stats().cold), (0, 1));
        assert_eq!(durability(&table).park_failures, 2);
        assert_eq!(
            table.close("new").unwrap_err(),
            SessionError::UnknownSession
        );

        // Once parks succeed again, `old` resumes at its last parked chunk.
        for id in ["old", "new"] {
            std::fs::remove_dir(store_file(&dir, id, "tmp")).unwrap();
        }
        let refused = table.checkout("old", None, Some(2)).unwrap_err();
        assert_eq!(
            refused,
            SessionError::Seq {
                expected: 1,
                got: 2
            }
        );
        push(&table, "old", None);
        let (_, client) = table.close("old").unwrap();
        assert_eq!(client.chunks_pushed(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_first_park_leaves_no_lost_session_for_the_next_boot() {
        let dir = store_dir("first-park");
        let first = table(4, Some(&dir));
        push(&first, "old", Some("a"));
        let blocker = store_file(&dir, "new", "tmp");
        std::fs::create_dir(&blocker).unwrap();
        let (checkout, mut client) = first.checkout("new", Some("a"), None).unwrap();
        advance(&first, 0, &mut client);
        assert!(first.park(checkout, client, 0).is_err());
        drop(first);
        std::fs::remove_dir(&blocker).unwrap();

        // `new` was never acknowledged, so the next boot finds `old` and
        // counts nothing lost.
        let second = table(4, Some(&dir));
        let stats = durability(&second);
        assert_eq!((stats.recovered_on_boot, stats.corrupt_discarded), (1, 0));
        assert_eq!(second.stats().cold, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
