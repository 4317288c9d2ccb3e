//! The durable core of `blobseer`, written once, in two layers:
//!
//! * [`Durable`] is what any durable book opens through: a store directory,
//!   the store opened from it, and the [`State`] rebuilt from it. It has
//!   two users, the data providers ([`crate::provider`]) and the metadata
//!   servers ([`crate::dht`]), which the paper puts on one persistency
//!   layer (§3.1.1). The control services keep no durable state: the
//!   provider manager's lease book lives in memory only
//!   ([`crate::provider_manager`]).
//! * [`Service`] is the storage-service shell around one: how a provider or
//!   a metadata server counts what it served, dies, and comes back. Each of
//!   them *is* a `Service` (by `Deref`) plus what is its own: its hot paths,
//!   and a `State` saying what a crash empties and what a restart
//!   reconstructs.
//!
//! **Acknowledged means it survives a process crash.** A write path takes
//! `Durable::read` once and holds the guard across its whole batch
//! *including the flush*; [`Service::crash_wipe`] takes the write side. A
//! crash therefore serializes entirely before a batch (the guard reads
//! `None`, every item answers `ProviderDown`) or entirely after it (every
//! acknowledged item is already on the OS side of the process boundary).
//!
//! **A failed restart is not a restart.** [`Service::recover`] rebuilds the
//! state from the reopened store *before* installing it, so when the
//! directory cannot be opened or read back the service stays wiped and down
//! and the caller gets the error — it never comes up alive and empty.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fabric::NodeId;
use parking_lot::{RwLock, RwLockReadGuard};

use crate::error::{BlobError, BlobResult};

/// The in-memory state one kind of service derives from its store.
pub(crate) trait State: Send + Sync {
    /// Empty everything a process death loses.
    fn clear(&self);

    /// Reconstruct it from `store`, which is open but not yet serving;
    /// failing to read the store back fails the (re)start.
    fn rebuild(&self, store: &pstore::Store) -> pstore::Result<()>;
}

/// A store directory, the store opened from it while the process is up, and
/// the state derived from it. Knows nothing about pages, tree nodes or
/// leases.
pub(crate) struct Durable {
    /// `None` while wiped: between a crash and a restart that succeeded.
    store: RwLock<Option<pstore::Store>>,
    pub(crate) dir: PathBuf,
    opts: pstore::StoreOptions,
    state: Arc<dyn State>,
}

impl Durable {
    /// Open `dir`; a non-empty directory *recovers* — `state` is rebuilt
    /// from what a predecessor left there.
    pub(crate) fn open(
        dir: &Path,
        opts: pstore::StoreOptions,
        state: Arc<dyn State>,
    ) -> BlobResult<Durable> {
        let d = Durable {
            store: RwLock::new(None),
            dir: dir.to_path_buf(),
            opts,
            state,
        };
        d.reopen()?;
        Ok(d)
    }

    /// The open store, or `None` while wiped. The store is internally
    /// synchronized (`put` / `get` take `&self`), so data paths share this
    /// guard.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Option<pstore::Store>> {
        self.store.read()
    }

    /// The one `PStoreError` → [`BlobError`] mapping: cause class kept, the
    /// directory named.
    pub(crate) fn err(&self, e: &pstore::PStoreError) -> BlobError {
        BlobError::persistence(&self.dir, e)
    }

    /// What a process crash leaves: the directory, minus the records that
    /// were still buffered (never acknowledged).
    fn wipe(&self) {
        if let Some(s) = self.store.write().take() {
            s.abandon();
        }
        self.state.clear();
    }

    /// Open the directory, rebuild the state from the store, and only then
    /// install it. Returns the bytes replayed past the newest checkpoint, or
    /// `None` when the store was open already (nothing ran).
    fn reopen(&self) -> BlobResult<Option<u64>> {
        let mut g = self.store.write();
        if g.is_some() {
            return Ok(None);
        }
        let store =
            pstore::Store::open_with(&self.dir, self.opts.clone()).map_err(|e| self.err(&e))?;
        self.state.rebuild(&store).map_err(|e| self.err(&e))?;
        let replayed = store.replayed_bytes();
        *g = Some(store);
        Ok(Some(replayed))
    }
}

/// The part of a storage service that is the same for all of them: where it
/// runs, whether it serves, what it served, and how it restarts.
pub struct Service {
    /// What error texts call this kind of service.
    kind: &'static str,
    node: NodeId,
    alive: AtomicBool,
    put_ops: AtomicU64,
    get_ops: AtomicU64,
    put_rpcs: AtomicU64,
    get_rpcs: AtomicU64,
    recoveries: AtomicU64,
    /// `None` for a service that lives in memory only.
    durable: Option<Durable>,
}

impl Service {
    pub(crate) fn new(kind: &'static str, node: NodeId, durable: Option<Durable>) -> Service {
        Service {
            kind,
            node,
            alive: AtomicBool::new(true),
            put_ops: AtomicU64::new(0),
            get_ops: AtomicU64::new(0),
            put_rpcs: AtomicU64::new(0),
            get_rpcs: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            durable,
        }
    }

    /// The node hosting this service.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Is the service accepting requests?
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Failure injection: stop serving. Everything held survives — a crash,
    /// not a wipe.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// Bring a killed service back.
    pub fn revive(&self) {
        self.alive.store(true, Ordering::Release);
    }

    /// What a request gets while the service is down or wiped.
    pub(crate) fn down(&self) -> BlobError {
        BlobError::ProviderDown { node: self.node.0 }
    }

    /// Count one served put round-trip carrying `n` items.
    pub(crate) fn served_put(&self, n: u64) {
        self.put_rpcs.fetch_add(1, Ordering::Relaxed);
        self.put_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one served get round-trip asking for `n` items.
    pub(crate) fn served_get(&self, n: u64) {
        self.get_rpcs.fetch_add(1, Ordering::Relaxed);
        self.get_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// (put, get) operations served, counted per *item* (page, tree node)
    /// however the items were shipped: a batch of k counts k.
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.put_ops.load(Ordering::Relaxed),
            self.get_ops.load(Ordering::Relaxed),
        )
    }

    /// (put, get) wire round-trips served — a batch counts once. The gap
    /// between [`Self::op_counts`] and this is the batching win.
    pub fn rpc_counts(&self) -> (u64, u64) {
        (
            self.put_rpcs.load(Ordering::Relaxed),
            self.get_rpcs.load(Ordering::Relaxed),
        )
    }

    /// The durable store, or `None` for a memory-only service.
    pub(crate) fn store(&self) -> Option<&Durable> {
        self.durable.as_ref()
    }

    fn durable_or(&self, otherwise: &str) -> BlobResult<&Durable> {
        self.durable.as_ref().ok_or_else(|| {
            BlobError::UnsupportedFault(format!(
                "{} on {} holds its state in memory only; {otherwise}",
                self.kind, self.node
            ))
        })
    }

    /// Process-crash injection: stop serving, drop ALL in-memory state (the
    /// open store with its buffered unacknowledged records, everything
    /// derived from it, the served counters) and keep only the on-disk
    /// directory — what a real restart would find. A memory-only service
    /// cannot model this (nothing would survive) and answers
    /// `UnsupportedFault`.
    pub fn crash_wipe(&self) -> BlobResult<()> {
        let d = self.durable_or("CrashRestart requires a persist_dir deployment")?;
        self.kill();
        d.wipe();
        for c in [&self.put_ops, &self.get_ops, &self.put_rpcs, &self.get_rpcs] {
            c.store(0, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Restart a crash-wiped service from its directory: replay from the
    /// newest checkpoint, rebuild the in-memory state, resume serving.
    /// Returns the bytes replayed past the checkpoint (the recovery cost
    /// the checkpoint cadence bounds). Idempotent: a service that was never
    /// wiped is just revived. On error nothing changed — still wiped, still
    /// down.
    pub fn recover(&self) -> BlobResult<u64> {
        let replayed = self.durable_or("nothing to recover")?.reopen()?;
        if replayed.is_some() {
            self.recoveries.fetch_add(1, Ordering::Relaxed);
        }
        self.revive();
        Ok(replayed.unwrap_or(0))
    }

    /// True between [`Self::crash_wipe`] and a [`Self::recover`] that
    /// succeeded.
    pub fn is_wiped(&self) -> bool {
        matches!(&self.durable, Some(d) if d.read().is_none())
    }

    /// Completed crash-restart recoveries.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PersistenceKind;
    use crate::testutil::ScratchDir;

    /// Remembers whether key `k` was in the store it was last rebuilt from,
    /// and can be told to fail the next rebuild.
    #[derive(Default)]
    struct SawK {
        saw_k: AtomicBool,
        fail_next: AtomicBool,
    }

    impl State for SawK {
        fn clear(&self) {
            self.saw_k.store(false, Ordering::SeqCst);
        }

        fn rebuild(&self, store: &pstore::Store) -> pstore::Result<()> {
            if self.fail_next.swap(false, Ordering::SeqCst) {
                return Err(pstore::PStoreError::Corrupt {
                    segment: 0,
                    offset: 12,
                    detail: "bit rot".into(),
                });
            }
            self.saw_k.store(store.contains(b"k"), Ordering::SeqCst);
            Ok(())
        }
    }

    /// A durable service whose store holds `k`, acknowledged (flushed).
    fn widget(dir: &Path) -> (Service, Arc<SawK>) {
        let state = Arc::new(SawK::default());
        let d = Durable::open(dir, pstore::StoreOptions::default(), state.clone()).unwrap();
        if let Some(s) = d.read().as_ref() {
            s.put(b"k", b"v").unwrap();
            s.flush_buffered().unwrap();
        }
        (Service::new("widget", NodeId(1), Some(d)), state)
    }

    /// The sequence every storage service goes through, asserted once here
    /// instead of once per service: wipe → recover → idempotent recover, and
    /// the memory flavour rejecting both.
    #[test]
    fn wipe_then_recover_roundtrip() {
        let dir = ScratchDir::new("svc-roundtrip");
        let (svc, state) = widget(&dir);
        svc.served_put(3);
        svc.served_get(2);
        assert_eq!((svc.op_counts(), svc.rpc_counts()), ((3, 2), (1, 1)));
        state.saw_k.store(true, Ordering::SeqCst);

        svc.crash_wipe().unwrap();
        assert!(svc.is_wiped());
        assert!(!svc.is_alive());
        assert!(svc.store().unwrap().read().is_none());
        assert!(
            !state.saw_k.load(Ordering::SeqCst),
            "derived state goes too"
        );
        assert_eq!((svc.op_counts(), svc.rpc_counts()), ((0, 0), (0, 0)));

        let replayed = svc.recover().unwrap();
        assert!(replayed > 0, "no checkpoint taken: the whole log replays");
        assert!(state.saw_k.load(Ordering::SeqCst), "rebuilt from the store");
        assert!(!svc.is_wiped());
        assert!(svc.is_alive());
        assert_eq!(svc.recoveries(), 1);

        // Idempotent: recovering a live service is a no-op revive.
        state.fail_next.store(true, Ordering::SeqCst);
        svc.kill();
        assert_eq!(svc.recover().unwrap(), 0);
        assert!(svc.is_alive() && svc.recoveries() == 1);
        assert!(
            state.fail_next.load(Ordering::SeqCst),
            "nothing was rebuilt"
        );

        // A memory-only service cannot model a restart, and says which
        // service it is.
        let mem = Service::new("widget", NodeId(2), None);
        assert!(!mem.is_wiped());
        for res in [mem.crash_wipe(), mem.recover().map(drop)] {
            let Err(BlobError::UnsupportedFault(text)) = res else {
                panic!("memory-only service accepted a crash-restart");
            };
            assert!(text.starts_with("widget on n2 "), "{text}");
        }
        assert!(mem.is_alive(), "a rejected wipe must not kill the service");
    }

    /// A restart whose rebuild fails is no restart: the store it opened is
    /// never installed, so the service stays wiped and down, and the next
    /// attempt starts from scratch.
    #[test]
    fn failed_rebuild_leaves_the_service_wiped_and_down() {
        let dir = ScratchDir::new("svc-failed-rebuild");
        let (svc, state) = widget(&dir);
        svc.crash_wipe().unwrap();

        state.fail_next.store(true, Ordering::SeqCst);
        let err = svc.recover().unwrap_err();
        assert!(
            matches!(
                &err,
                BlobError::Persistence { kind: PersistenceKind::Corrupt, path, .. }
                    if Path::new(path) == &*dir
            ),
            "{err}"
        );
        assert!(
            svc.is_wiped(),
            "a failed restart must not install the store"
        );
        assert!(!svc.is_alive(), "a failed restart must not revive");
        assert_eq!(svc.recoveries(), 0);

        assert!(svc.recover().unwrap() > 0);
        assert!(state.saw_k.load(Ordering::SeqCst));
        assert!(!svc.is_wiped() && svc.is_alive());
        assert_eq!(svc.recoveries(), 1);
    }
}
