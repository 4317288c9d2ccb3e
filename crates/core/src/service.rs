//! The one service shell: where a service runs, whether it serves, what it
//! served, how an injected fault stops it, and how it comes back. Every
//! [`crate::FaultTarget`] resolves to one: the data providers and metadata
//! servers *are* a [`Service`] (by `Deref`), the version manager and the
//! reaper hold one. The storage services, which the paper puts on one
//! persistency layer (§3.1.1), may be durable: [`Service::open`] opens a
//! store directory and rebuilds a [`State`] from it, and only such a shell
//! can `CrashRestart`. The control services keep no durable state.
//!
//! **Acknowledged means it survives a process crash.** A write path takes
//! [`Service::store_guard`] once and holds the guard across its whole batch
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
use crate::fault::Fault;

/// The in-memory state one kind of service derives from its store.
pub(crate) trait State: Send + Sync {
    /// Empty everything a process death loses.
    fn clear(&self);

    /// Reconstruct it from `store`, which is open but not yet serving;
    /// failing to read the store back fails the (re)start.
    fn rebuild(&self, store: &pstore::Store) -> pstore::Result<()>;
}

/// One kind of service: what error texts call it, and the faults that stop
/// it until healed. `CrashRestart` is every durable shell's; any other
/// fault is refused.
#[derive(Clone, Copy)]
pub(crate) struct Kind(&'static str, &'static [Fault]);

// Storage services model crash-stop failures, a paused version manager
// stalls every request, and a reaper stopped either way skips its sweeps.
pub(crate) const PROVIDER: Kind = Kind("provider", &[Fault::Crash]);
pub(crate) const READ_REPLICA: Kind = Kind("read replica", &[Fault::Crash]);
pub(crate) const META_SERVER: Kind = Kind("metadata server", &[Fault::Crash]);
pub(crate) const VERSION_MANAGER: Kind = Kind("version manager", &[Fault::Pause]);
pub(crate) const REAPER: Kind = Kind("reaper", &[Fault::Crash, Fault::Pause]);

/// The open store of a durable shell; `None` while wiped, between a crash
/// and a restart that succeeded.
type Slot = RwLock<Option<pstore::Store>>;

/// The part of a service that is the same for all of them: where it runs,
/// whether it serves, what it served, and how it restarts.
pub struct Service {
    kind: Kind,
    node: NodeId,
    alive: AtomicBool,
    put_ops: AtomicU64,
    get_ops: AtomicU64,
    put_rpcs: AtomicU64,
    get_rpcs: AtomicU64,
    recoveries: AtomicU64,
    /// `None` for a shell that keeps no durable state; else the store
    /// opened from `dir` and the state a restart rebuilds from it.
    store: Option<(Slot, Arc<dyn State>)>,
    /// The store directory (empty for a shell that keeps no durable state).
    pub(crate) dir: PathBuf,
    opts: pstore::StoreOptions,
}

impl Service {
    /// A shell that keeps no durable state: it stops and revives, but
    /// cannot crash-restart.
    pub(crate) fn new(kind: Kind, node: NodeId) -> Service {
        Service {
            kind,
            node,
            alive: AtomicBool::new(true),
            put_ops: AtomicU64::new(0),
            get_ops: AtomicU64::new(0),
            put_rpcs: AtomicU64::new(0),
            get_rpcs: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            store: None,
            dir: PathBuf::new(),
            opts: pstore::StoreOptions::default(),
        }
    }

    /// A durable shell over `dir`; a non-empty directory *recovers* —
    /// `state` is rebuilt from what a predecessor left there.
    pub(crate) fn open(
        kind: Kind,
        node: NodeId,
        dir: &Path,
        opts: pstore::StoreOptions,
        state: Arc<dyn State>,
    ) -> BlobResult<Service> {
        let svc = Service {
            store: Some((RwLock::new(None), state)),
            dir: dir.to_path_buf(),
            opts,
            ..Service::new(kind, node)
        };
        svc.reopen()?;
        Ok(svc)
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

    /// Inject `fault`: a stop fault of this kind kills the service,
    /// `CrashRestart` wipes a durable one, and anything else is refused
    /// with a typed error naming the service.
    pub(crate) fn inject(&self, fault: Fault) -> BlobResult<()> {
        if fault == Fault::CrashRestart {
            return self.crash_wipe();
        }
        if !self.kind.1.contains(&fault) {
            return Err(self.refuse(fault));
        }
        self.kill();
        Ok(())
    }

    /// The shell's typed refusal of `fault`, naming the service.
    fn refuse(&self, fault: Fault) -> BlobError {
        let Kind(name, stops) = self.kind;
        let keeps = match self.store {
            Some(_) => "a durable store",
            None => "no durable state",
        };
        BlobError::UnsupportedFault(format!(
            "{name} on {} cannot {fault}: it stops by {stops:?} and keeps {keeps}",
            self.node
        ))
    }

    /// What a request gets while the service is down or wiped.
    pub(crate) fn down(&self) -> BlobError {
        BlobError::ProviderDown { node: self.node.0 }
    }

    /// The store of a durable service behind its read guard (`None` inside
    /// while wiped), or `None` for a shell that keeps no durable state. The
    /// store is internally synchronized (`put` / `get` take `&self`), so
    /// data paths share this guard.
    pub(crate) fn store_guard(&self) -> Option<RwLockReadGuard<'_, Option<pstore::Store>>> {
        self.store.as_ref().map(|(slot, _)| slot.read())
    }

    /// The one `PStoreError` → [`BlobError`] mapping: cause class kept, the
    /// directory named.
    pub(crate) fn err(&self, e: &pstore::PStoreError) -> BlobError {
        BlobError::persistence(&self.dir, e)
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

    /// Process-crash injection: stop serving, drop ALL in-memory state (the
    /// open store with its buffered unacknowledged records, everything
    /// derived from it, the served counters) and keep only the on-disk
    /// directory — what a real restart would find. A shell that keeps no
    /// durable state cannot model this (nothing would survive) and answers
    /// `UnsupportedFault`.
    pub fn crash_wipe(&self) -> BlobResult<()> {
        let Some((slot, state)) = &self.store else {
            return Err(self.refuse(Fault::CrashRestart));
        };
        self.kill();
        if let Some(s) = slot.write().take() {
            s.abandon();
        }
        state.clear();
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
        let replayed = self.reopen()?;
        if replayed.is_some() {
            self.recoveries.fetch_add(1, Ordering::Relaxed);
        }
        self.revive();
        Ok(replayed.unwrap_or(0))
    }

    /// Open the directory, rebuild the state from the store, and only then
    /// install it. Returns the bytes replayed past the newest checkpoint, or
    /// `None` when the store was open already (nothing ran).
    fn reopen(&self) -> BlobResult<Option<u64>> {
        let Some((slot, state)) = &self.store else {
            return Err(self.refuse(Fault::CrashRestart));
        };
        let mut g = slot.write();
        if g.is_some() {
            return Ok(None);
        }
        let store =
            pstore::Store::open_with(&self.dir, self.opts.clone()).map_err(|e| self.err(&e))?;
        state.rebuild(&store).map_err(|e| self.err(&e))?;
        let replayed = store.replayed_bytes();
        *g = Some(store);
        Ok(Some(replayed))
    }

    /// True between [`Self::crash_wipe`] and a [`Self::recover`] that
    /// succeeded.
    pub fn is_wiped(&self) -> bool {
        self.store
            .as_ref()
            .is_some_and(|(slot, _)| slot.read().is_none())
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

    const WIDGET: Kind = Kind("widget", &[Fault::Crash]);

    /// A durable service whose store holds `k`, acknowledged (flushed).
    fn widget(dir: &Path) -> (Service, Arc<SawK>) {
        let state = Arc::new(SawK::default());
        let opts = pstore::StoreOptions::default();
        let svc = Service::open(WIDGET, NodeId(1), dir, opts, state.clone()).unwrap();
        if let Some(s) = svc.store_guard().unwrap().as_ref() {
            s.put(b"k", b"v").unwrap();
            s.flush_buffered().unwrap();
        }
        (svc, state)
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
        assert!(svc.store_guard().unwrap().is_none());
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
        let mem = Service::new(WIDGET, NodeId(2));
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
