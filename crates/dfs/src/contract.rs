//! A reusable conformance suite for [`FileSystem`] implementations.
//!
//! Both BSFS and the HDFS baseline must behave identically on the common
//! surface (namespace operations, create/read semantics, rename-based
//! commit); they intentionally differ on `append` support. Each FS crate
//! calls [`exercise_filesystem`] and [`exercise_handles`] from its tests.

#![expect(
    clippy::unwrap_used,
    reason = "conformance harness: the assertions are the oracle and a failure must abort the run"
)]

use fabric::{Payload, Proc};

use crate::error::FsError;
use crate::fs::FileSystem;
use crate::path::DfsPath;

fn p(s: &str) -> DfsPath {
    DfsPath::new(s).unwrap()
}

fn bytes(len: usize, tag: u8) -> Payload {
    Payload::from_vec(
        (0..len)
            .map(|i| tag.wrapping_add((i % 247) as u8))
            .collect(),
    )
}

/// Run the common-behaviour suite against `fs`. Panics on any violation.
#[expect(
    clippy::indexing_slicing,
    reason = "`locs[0]` follows the `locs.len() >= 3` assertion"
)]
pub fn exercise_filesystem(fs: &dyn FileSystem, proc_: &Proc) {
    let prc = proc_;

    // --- namespace basics -------------------------------------------------
    fs.mkdirs(prc, &p("/a/b/c")).unwrap();
    assert!(fs.exists(prc, &p("/a/b/c")));
    assert!(fs.status(prc, &p("/a/b")).unwrap().is_dir);
    // mkdirs is idempotent.
    fs.mkdirs(prc, &p("/a/b/c")).unwrap();
    // Root always exists.
    assert!(fs.exists(prc, &DfsPath::root()));
    assert!(matches!(
        fs.status(prc, &p("/nope")),
        Err(FsError::NotFound(_))
    ));

    // --- create / read ----------------------------------------------------
    let data = bytes(10_000, 7);
    fs.write_file(prc, &p("/a/file1"), data.clone()).unwrap();
    let st = fs.status(prc, &p("/a/file1")).unwrap();
    assert!(!st.is_dir);
    assert_eq!(st.len, 10_000);
    let back = fs.read_file(prc, &p("/a/file1")).unwrap();
    assert_eq!(back.fingerprint(), data.fingerprint());

    // create over an existing path fails
    assert!(matches!(
        fs.create(prc, &p("/a/file1")),
        Err(FsError::AlreadyExists(_))
    ));
    // create under a file fails
    assert!(matches!(
        fs.create(prc, &p("/a/file1/child")),
        Err(FsError::NotADirectory(_))
    ));
    // reading a directory fails
    assert!(matches!(
        fs.open(prc, &p("/a/b")),
        Err(FsError::IsADirectory(_))
    ));
    // reading a missing file fails
    assert!(matches!(
        fs.open(prc, &p("/a/missing")),
        Err(FsError::NotFound(_))
    ));

    // --- streaming reads with seek ----------------------------------------
    {
        let mut r = fs.open(prc, &p("/a/file1")).unwrap();
        assert_eq!(r.len(), 10_000);
        let first = r.read(prc, 100).unwrap();
        assert_eq!(first.fingerprint(), data.slice(0, 100).fingerprint());
        r.seek(5_000).unwrap();
        let mid = r.read(prc, 200).unwrap();
        assert_eq!(mid.fingerprint(), data.slice(5_000, 200).fingerprint());
        let tail = r.read_at(prc, 9_900, 100).unwrap();
        assert_eq!(tail.fingerprint(), data.slice(9_900, 100).fingerprint());
        // EOF yields empty payloads.
        r.seek(10_000).unwrap();
        assert!(r.read(prc, 10).unwrap().is_empty());
    }

    // --- list --------------------------------------------------------------
    fs.write_file(prc, &p("/a/file2"), bytes(10, 1)).unwrap();
    let names: Vec<String> = fs
        .list(prc, &p("/a"))
        .unwrap()
        .iter()
        .map(|s| s.path.name().unwrap().to_string())
        .collect();
    assert_eq!(names, vec!["b", "file1", "file2"]);
    assert!(matches!(
        fs.list(prc, &p("/a/file1")),
        Err(FsError::NotADirectory(_))
    ));

    // --- rename (the original Hadoop commit path) --------------------------
    fs.mkdirs(prc, &p("/out")).unwrap();
    fs.rename(prc, &p("/a/file2"), &p("/out/part-0")).unwrap();
    assert!(!fs.exists(prc, &p("/a/file2")));
    assert_eq!(fs.status(prc, &p("/out/part-0")).unwrap().len, 10);
    // rename onto an existing path fails
    assert!(matches!(
        fs.rename(prc, &p("/a/file1"), &p("/out/part-0")),
        Err(FsError::AlreadyExists(_))
    ));
    // directory rename moves the subtree
    fs.rename(prc, &p("/a/b"), &p("/moved")).unwrap();
    assert!(fs.exists(prc, &p("/moved/c")));
    assert!(!fs.exists(prc, &p("/a/b")));

    // --- delete -------------------------------------------------------------
    assert!(matches!(
        fs.delete(prc, &p("/moved"), false),
        Err(FsError::DirectoryNotEmpty(_))
    ));
    assert!(fs.delete(prc, &p("/moved"), true).unwrap());
    assert!(!fs.exists(prc, &p("/moved")));
    assert!(!fs.delete(prc, &p("/moved"), true).unwrap()); // already gone

    // --- file counting (the paper's "file-count problem" metric) -----------
    fs.mkdirs(prc, &p("/count/deep")).unwrap();
    fs.write_file(prc, &p("/count/x"), bytes(1, 2)).unwrap();
    fs.write_file(prc, &p("/count/deep/y"), bytes(1, 2))
        .unwrap();
    assert_eq!(fs.count_files(prc, &p("/count")).unwrap(), 2);

    // --- block locations -----------------------------------------------------
    let bs = fs.default_block_size();
    let big = bytes((2 * bs + bs / 2) as usize, 9);
    fs.write_file(prc, &p("/a/big"), big).unwrap();
    let locs = fs.block_locations(prc, &p("/a/big"), 0, 3 * bs).unwrap();
    assert!(locs.len() >= 3, "expected >=3 blocks, got {}", locs.len());
    assert_eq!(locs[0].offset, 0);
    for l in &locs {
        assert!(!l.hosts.is_empty(), "every block must report hosts");
    }

    // --- append surface ------------------------------------------------------
    if fs.supports_append() {
        let mut w = fs.append(prc, &p("/a/file1")).unwrap();
        w.write(prc, bytes(500, 42)).unwrap();
        w.close(prc).unwrap();
        assert_eq!(fs.status(prc, &p("/a/file1")).unwrap().len, 10_500);
        let tail = fs
            .open(prc, &p("/a/file1"))
            .unwrap()
            .read_at(prc, 10_000, 500)
            .unwrap();
        assert_eq!(tail.fingerprint(), bytes(500, 42).fingerprint());
        // Appending to a missing file fails.
        assert!(matches!(
            fs.append(prc, &p("/a/missing")),
            Err(FsError::NotFound(_))
        ));
    } else {
        assert!(matches!(
            fs.append(prc, &p("/a/file1")),
            Err(FsError::AppendUnsupported { .. })
        ));
    }
}

/// The handle cases: block-buffered writes below, at and across a block
/// boundary and several blocks in one `write`; `close` with nothing
/// buffered and twice; `write` after `close`; `read`, `seek` and `read_at`
/// across window edges and at end of file; and, where `append` works, a
/// reader's snapshot across a concurrent `append_all`. Each write pattern
/// gets a file of its own, and `commits` counts the units its data
/// landed in (BSFS: appends; HDFS: blocks). Returns one line per case for
/// the caller to pin: its name, the commit units its file holds after it,
/// and the virtual nanoseconds it took. Panics on any violation.
pub fn exercise_handles(
    fs: &dyn FileSystem,
    prc: &Proc,
    commits: &dyn Fn(&Proc, &DfsPath) -> u64,
) -> Vec<(&'static str, u64, u64)> {
    let bs = fs.default_block_size();
    let len_of = |path: &DfsPath| fs.status(prc, path).unwrap().len;
    let mut out = Vec::new();
    fs.mkdirs(prc, &p("/h")).unwrap();

    // Below a block: nothing ships before `close`.
    let t = prc.now();
    let below = p("/h/below");
    let mut w = fs.create(prc, &below).unwrap();
    w.write(prc, bytes((bs / 2) as usize, 1)).unwrap();
    assert_eq!(len_of(&below), 0);
    assert_eq!(commits(prc, &below), 0);
    w.close(prc).unwrap();
    assert_eq!(len_of(&below), bs / 2);
    assert_eq!(w.written(), bs / 2);
    out.push(("below", commits(prc, &below), prc.now() - t));

    // Exactly one block: it ships on the write, `close` has nothing left.
    let t = prc.now();
    let at = p("/h/at");
    let mut w = fs.create(prc, &at).unwrap();
    w.write(prc, bytes(bs as usize, 2)).unwrap();
    assert_eq!(len_of(&at), bs);
    w.close(prc).unwrap();
    assert_eq!(len_of(&at), bs);
    out.push(("at", commits(prc, &at), prc.now() - t));

    // Across a boundary: the first whole block ships, half stays buffered.
    let t = prc.now();
    let across = p("/h/across");
    let mut w = fs.create(prc, &across).unwrap();
    w.write(prc, bytes((bs / 2) as usize, 3)).unwrap();
    w.write(prc, bytes(bs as usize, 4)).unwrap();
    assert_eq!(len_of(&across), bs);
    w.close(prc).unwrap();
    assert_eq!(len_of(&across), bs + bs / 2);
    assert_eq!(w.written(), bs + bs / 2);
    out.push(("across", commits(prc, &across), prc.now() - t));

    // Several blocks in one `write`, then the quarter-block tail at close.
    let t = prc.now();
    let several = p("/h/several");
    let data = bytes((3 * bs + bs / 4) as usize, 5);
    let mut w = fs.create(prc, &several).unwrap();
    w.write(prc, data.clone()).unwrap();
    assert_eq!(len_of(&several), 3 * bs);
    out.push(("several:write", commits(prc, &several), prc.now() - t));
    let t = prc.now();
    w.close(prc).unwrap();
    assert_eq!(len_of(&several), data.len());
    out.push(("several:close", commits(prc, &several), prc.now() - t));

    // `close` with nothing buffered, a second `close`, `write` after it.
    let t = prc.now();
    let empty = p("/h/empty");
    let mut w = fs.create(prc, &empty).unwrap();
    w.close(prc).unwrap();
    w.close(prc).unwrap();
    assert!(matches!(
        w.write(prc, bytes(1, 6)),
        Err(FsError::HandleClosed)
    ));
    assert!(matches!(
        w.write(prc, Payload::empty()),
        Err(FsError::HandleClosed)
    ));
    assert_eq!(w.written(), 0);
    assert_eq!(len_of(&empty), 0);
    let mut r = fs.open(prc, &empty).unwrap();
    assert!(r.is_empty());
    assert!(r.read(prc, 10).unwrap().is_empty());
    assert!(r.read_at(prc, 0, 10).unwrap().is_empty());
    out.push(("empty", commits(prc, &empty), prc.now() - t));

    // Reads over the four windows of `several`: a `read` stops at the
    // edge of the window holding `pos`, a `read_at` crosses edges, and
    // both stop at end of file.
    let t = prc.now();
    let total = data.len();
    let mut r = fs.open(prc, &several).unwrap();
    assert_eq!((r.len(), r.pos(), r.is_empty()), (total, 0, false));
    assert_eq!(r.read(prc, 10).unwrap(), data.slice(0, 10));
    r.seek(bs - 10).unwrap();
    assert_eq!(r.read(prc, 100).unwrap(), data.slice(bs - 10, 10));
    assert_eq!(r.pos(), bs);
    assert_eq!(r.read(prc, 100).unwrap(), data.slice(bs, 100));
    let span = r.read_at(prc, bs - 10, bs + 20).unwrap();
    assert_eq!(span, data.slice(bs - 10, bs + 20));
    assert_eq!(r.pos(), 2 * bs + 10);
    assert!(r.read(prc, 0).unwrap().is_empty());
    r.seek(total - 5).unwrap();
    assert_eq!(r.read(prc, 100).unwrap(), data.slice(total - 5, 5));
    assert_eq!(r.pos(), total);
    assert!(r.read(prc, 100).unwrap().is_empty());
    r.seek(total + 100).unwrap();
    assert!(r.read(prc, 1).unwrap().is_empty());
    assert_eq!(r.pos(), total + 100);
    assert_eq!(
        r.read_at(prc, total - 5, 100).unwrap(),
        data.slice(total - 5, 5)
    );
    assert!(r.read_at(prc, total, 10).unwrap().is_empty());
    assert_eq!(r.read_at(prc, 0, total).unwrap(), data);
    out.push(("reads", commits(prc, &several), prc.now() - t));

    // A reader keeps the snapshot it opened across a concurrent append.
    if fs.supports_append() {
        let t = prc.now();
        let mut r = fs.open(prc, &across).unwrap();
        fs.append_all(prc, &across, bytes(100, 7)).unwrap();
        assert_eq!(r.len(), bs + bs / 2);
        r.seek(bs).unwrap();
        assert_eq!(r.read(prc, bs).unwrap().len(), bs / 2);
        assert!(r.read(prc, 1).unwrap().is_empty());
        assert_eq!(fs.open(prc, &across).unwrap().len(), bs + bs / 2 + 100);
        out.push(("snapshot", commits(prc, &across), prc.now() - t));
    }
    out
}
