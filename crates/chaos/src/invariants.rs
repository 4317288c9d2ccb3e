//! Global invariants checked at quiescence: after the workload finished,
//! every fault healed, and the reaper had time to settle the books, the
//! deployment must look as if the faults never happened.
//!
//! The list (violations render as one string each, most specific first):
//!
//! 1. **Provider books balance** — `load_estimate == stored_bytes` on every
//!    provider: no reservation byte is stranded by a dead or faulted writer.
//!    Dedicated read replicas are held to the same books: replica-held
//!    bytes arrive by background sync (never through a reservation lease),
//!    so any load/stored skew there is a sync accounting bug.
//! 2. **No outstanding leases** — every provider-manager reservation lease
//!    was settled or reaped.
//! 3. **Versions dense, none pending** — per blob, `pending_count == 0`:
//!    in-order publication admitted every assigned version.
//! 4. **Every published version readable** — a *fresh* client (empty
//!    caches) can read every byte of every version `1..=latest` of every
//!    live blob.
//! 5. **Registry drains** — after two GC epochs with no new deletions the
//!    registry holds exactly the live blobs.
//!
//! A sixth invariant is implicit in the harness: `Fabric::run` returning at
//! all proves no waiter stayed parked (the fabric's deadlock detector
//! panics otherwise).

use blobseer::BlobSeer;
use fabric::Proc;

/// Check every invariant; returns one human-readable line per violation
/// (empty = healthy). Must run at quiescence on a healed deployment.
pub(crate) fn check(p: &Proc, bs: &BlobSeer) -> Vec<String> {
    let mut violations = Vec::new();

    for (i, prov) in bs.providers().iter().enumerate() {
        let (load, stored) = (prov.load_estimate(), prov.stored_bytes());
        if load != stored {
            violations.push(format!(
                "provider[{i}] books unbalanced: load_estimate {load} != stored_bytes {stored} \
                 ({} reservation bytes stranded)",
                load.saturating_sub(stored)
            ));
        }
    }

    for (i, rep) in bs.read_replicas().iter().enumerate() {
        let (load, stored) = (rep.load_estimate(), rep.stored_bytes());
        if load != stored {
            violations.push(format!(
                "read-replica[{i}] books unbalanced: load_estimate {load} != stored_bytes \
                 {stored} ({} sync bytes unaccounted)",
                load.abs_diff(stored)
            ));
        }
    }

    let leases = bs.provider_manager().outstanding_leases();
    if leases != 0 {
        violations.push(format!("{leases} reservation leases still outstanding"));
    }

    let vm = bs.version_manager();
    for blob in vm.blob_ids() {
        let pending = vm.pending_count(blob);
        if pending != 0 {
            violations.push(format!(
                "blob {blob:?} still has {pending} pending (unpublished) versions"
            ));
        }
        // Fresh client per blob: nothing read here may come from a cache
        // warmed during the faulted run.
        let client = bs.client();
        let latest = match client.latest(p, blob) {
            Ok(v) => v,
            Err(e) => {
                violations.push(format!("blob {blob:?}: latest() failed: {e}"));
                continue;
            }
        };
        for version in 1..=latest {
            let size = match client.size(p, blob, Some(version)) {
                Ok(s) => s,
                Err(e) => {
                    violations.push(format!("blob {blob:?} v{version}: size() failed: {e}"));
                    continue;
                }
            };
            match client.read(p, blob, Some(version), 0, size) {
                Ok(data) if data.len() == size => {}
                Ok(data) => violations.push(format!(
                    "blob {blob:?} v{version}: short read {} of {size} bytes",
                    data.len()
                )),
                Err(e) => {
                    violations.push(format!("blob {blob:?} v{version}: read failed: {e}"));
                }
            }
        }
    }

    // Two epochs retire every tombstone; afterwards the registry must hold
    // exactly the live blobs.
    vm.gc_registry();
    vm.gc_registry();
    let (registry, live) = (vm.registry_len(), vm.blob_ids().len());
    if registry != live {
        violations.push(format!(
            "registry retains {} deleted blob slots after 2 GC epochs",
            registry - live
        ));
    }

    violations
}
