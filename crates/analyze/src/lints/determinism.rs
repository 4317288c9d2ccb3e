//! Determinism family: `unordered-iter`, `wall-clock`, `unseeded-rng`.
//!
//! The seeded chaos rail replays whole workloads byte-identically from a
//! seed; anything that lets host randomness leak into control flow breaks
//! that contract. PR 6 shipped exactly this bug (HashMap iteration order
//! feeding the checker's RNG stream), which is the class this pass hunts.

use crate::lints::{resolve_receiver, stmt_end, stmt_start};
use crate::{FileCtx, Finding, View, UNORDERED_ITER, UNSEEDED_RNG, WALL_CLOCK};

/// Iteration methods whose order is the hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Chain consumers that are order-insensitive, making hash-order iteration
/// harmless: reductions over commutative monoids and pure predicates.
const ORDER_INSENSITIVE: &[&str] = &[
    "sum",
    "count",
    "len",
    "min",
    "max",
    "min_by_key",
    "max_by_key",
    "all",
    "any",
    "is_empty",
];

/// RNG constructors that pull entropy from the host instead of a seed.
const UNSEEDED: &[&str] = &["thread_rng", "from_entropy", "OsRng", "ThreadRng"];

pub(crate) fn run(ctx: &FileCtx, v: &View, out: &mut Vec<Finding>) {
    wall_clock(ctx, v, out);
    unseeded_rng(ctx, v, out);
    if ctx.replay_critical {
        unordered_iter(ctx, v, out);
    }
}

fn wall_clock(ctx: &FileCtx, v: &View, out: &mut Vec<Finding>) {
    if ctx.wallclock_exempt {
        return;
    }
    for i in 0..v.toks.len() {
        if !v.is_code(i) {
            continue;
        }
        let Some(name) = v.ident(i) else { continue };
        if (name == "Instant" || name == "SystemTime")
            && v.is_punct(i + 1, ':')
            && v.is_punct(i + 2, ':')
            && v.ident(i + 3) == Some("now")
        {
            out.push(Finding {
                file: ctx.rel_path.clone(),
                line: v.line(i),
                lint: WALL_CLOCK.into(),
                message: format!(
                    "{name}::now() outside the fabric/pstore/bench time boundary; replay-visible \
                     time must come from the fabric clock (SimTime)"
                ),
            });
        }
    }
}

fn unseeded_rng(ctx: &FileCtx, v: &View, out: &mut Vec<Finding>) {
    for i in 0..v.toks.len() {
        if !v.is_code(i) {
            continue;
        }
        let Some(name) = v.ident(i) else { continue };
        let hit = UNSEEDED.contains(&name)
            || (name == "random"
                && v.ident(i.wrapping_sub(3)) == Some("rand")
                && v.is_punct(i.wrapping_sub(2), ':')
                && v.is_punct(i.wrapping_sub(1), ':'));
        if hit {
            out.push(Finding {
                file: ctx.rel_path.clone(),
                line: v.line(i),
                lint: UNSEEDED_RNG.into(),
                message: format!(
                    "`{name}` draws host entropy; construct RNGs with \
                     StdRng::seed_from_u64 from a schedule-derived seed"
                ),
            });
        }
    }
}

/// Ordered sequence containers: `nodes: Vec<RwLock<HashMap<…>>>` iterates
/// its *stripes* in index order, so the binder itself is not unordered.
/// Transparent wrappers (`RwLock`, `Arc`, …) are looked through implicitly:
/// the walk treats every other ident as part of the type expression.
const SEQUENCES: &[&str] = &["Vec", "VecDeque", "BTreeMap", "BTreeSet"];

/// Collect the names of locals/fields declared as `HashMap`/`HashSet`
/// (looking through transparent wrappers, but not through ordered sequence
/// containers).
pub(crate) fn unordered_names(v: &View) -> Vec<String> {
    binder_names(v, &["HashMap", "HashSet"], SEQUENCES)
}

/// Names bound to ordered sequence containers in this file. Used to shadow
/// the crate-wide union: `shuffle.rs` declares `segments: HashMap<…>`, but a
/// `let mut segments = Vec::…` local in `task.rs` must not inherit it.
fn sequence_names(v: &View) -> Vec<String> {
    binder_names(v, SEQUENCES, &[])
}

/// Names whose declared type mentions one of `targets`, unless the mention
/// sits inside one of the `opaque` containers.
fn binder_names(v: &View, targets: &[&str], opaque: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..v.toks.len() {
        if !v.is_code(i) {
            continue;
        }
        let Some(t) = v.ident(i) else { continue };
        if !targets.contains(&t) {
            continue;
        }
        // Walk left through the type expression (and any `std::collections`
        // path) to the binder: `name: …HashMap<…>` or `let name = HashMap::…`.
        let mut j = i;
        let mut steps = 0;
        while j > 0 && steps < 32 {
            steps += 1;
            let k = j - 1;
            if v.ident(k).is_some_and(|id| opaque.contains(&id)) {
                break; // wrapped in an ordered container: binder is ordered
            }
            if v.is_punct(k, ':') && k > 0 && v.is_punct(k - 1, ':') {
                j = k - 1; // a `::` path segment
                continue;
            }
            if v.is_punct(k, ':') || v.is_punct(k, '=') {
                if let Some(name) = v.ident(k.wrapping_sub(1)) {
                    names.push(name.to_string());
                }
                break;
            }
            let type_ish = v.ident(k).is_some()
                || v.is_punct(k, '<')
                || v.is_punct(k, '>')
                || v.is_punct(k, ',')
                || v.is_punct(k, '&')
                || v.is_punct(k, '(');
            if !type_ish {
                break;
            }
            j = k;
        }
    }
    names
}

fn unordered_iter(ctx: &FileCtx, v: &View, out: &mut Vec<Finding>) {
    // File-local declarations plus the crate-wide union ([`FileCtx::
    // extra_unordered`]): fields like `BlobState::pending` are declared in
    // `meta.rs` but iterated from `version_manager.rs`. Names this file
    // binds to an ordered sequence shadow the union.
    let mut names = unordered_names(v);
    let shadowed = sequence_names(v);
    names.extend(
        ctx.extra_unordered
            .iter()
            .filter(|n| !shadowed.iter().any(|s| s == *n))
            .cloned(),
    );
    if names.is_empty() {
        return;
    }
    let is_tracked = |n: &str| names.iter().any(|x| x == n);
    for i in 0..v.toks.len() {
        if !v.is_code(i) {
            continue;
        }
        // A) `recv.iter()` / `recv.values()` … chains.
        if let Some(m) = v.ident(i) {
            if ITER_METHODS.contains(&m)
                && v.is_punct(i + 1, '(')
                && i >= 2
                && v.is_punct(i - 1, '.')
            {
                if let Some(recv) = resolve_receiver(v, i - 2) {
                    if is_tracked(&recv) && !consumption_is_ordered(v, i) {
                        out.push(finding(ctx, v.line(i), &recv, m));
                    }
                }
            }
            // B) `for x in map {` / `for x in &map {` — bare container in a
            // for loop (method chains are caught by (A)).
            if m == "for" {
                if let Some((recv, line)) = for_loop_bare_receiver(v, i) {
                    if is_tracked(&recv) {
                        out.push(finding(ctx, line, &recv, "for-in"));
                    }
                }
            }
        }
    }
}

fn finding(ctx: &FileCtx, line: u32, recv: &str, method: &str) -> Finding {
    Finding {
        file: ctx.rel_path.clone(),
        line,
        lint: UNORDERED_ITER.into(),
        message: format!(
            "`{recv}.{method}` iterates an unordered map/set in a replay-critical crate; sort \
             the result (collect + sort_unstable, or a BTree collection) or justify with \
             `// analyze: allow(unordered-iter): <why order cannot leak>`"
        ),
    }
}

/// True when the statement around the iteration visibly restores order or
/// consumes it order-insensitively: a sort in the same statement, a BTree
/// collection target, an order-insensitive reduction, or a `let`-bound
/// collect whose binding is sorted within the next few statements.
fn consumption_is_ordered(v: &View, call: usize) -> bool {
    let start = stmt_start(v, call);
    let end = stmt_end(v, call);
    let mut collected_into: Option<String> = None;
    if v.ident(start) == Some("let") {
        let mut k = start + 1;
        if v.ident(k) == Some("mut") {
            k += 1;
        }
        if let Some(name) = v.ident(k) {
            collected_into = Some(name.to_string());
        }
    }
    let mut j = start;
    while j < end {
        if let Some(name) = v.ident(j) {
            if name == "BTreeMap" || name == "BTreeSet" || name == "BinaryHeap" {
                return true;
            }
            if name.starts_with("sort") && called(v, j) {
                return true;
            }
            if ORDER_INSENSITIVE.contains(&name)
                && called(v, j)
                && j > call
                && v.is_punct(j - 1, '.')
            {
                return true;
            }
        }
        j += 1;
    }
    // Sort-after-collect: `let ids: Vec<_> = map.keys().collect(); …
    // ids.sort_unstable();` within a short lookahead.
    if let Some(bind) = collected_into {
        let mut k = end;
        let lookahead = 60usize;
        while k < v.toks.len() && k < end + lookahead {
            if v.ident(k) == Some(bind.as_str())
                && v.is_punct(k + 1, '.')
                && v.ident(k + 2).is_some_and(|m| m.starts_with("sort"))
            {
                return true;
            }
            k += 1;
        }
    }
    false
}

/// True when the identifier at `j` is invoked, allowing an optional
/// turbofish: `sum()` or `sum::<u64>()`.
fn called(v: &View, j: usize) -> bool {
    if v.is_punct(j + 1, '(') {
        return true;
    }
    if v.is_punct(j + 1, ':') && v.is_punct(j + 2, ':') && v.is_punct(j + 3, '<') {
        let mut depth = 0i32;
        let mut k = j + 3;
        while k < v.toks.len() && k < j + 24 {
            if v.is_punct(k, '<') {
                depth += 1;
            } else if v.is_punct(k, '>') {
                depth -= 1;
                if depth == 0 {
                    return v.is_punct(k + 1, '(');
                }
            }
            k += 1;
        }
    }
    false
}

/// For `for pat in <expr> {`, return the receiver when `<expr>` is a bare
/// (possibly `&`/`&mut`-prefixed, possibly dotted) container name.
fn for_loop_bare_receiver(v: &View, for_idx: usize) -> Option<(String, u32)> {
    // Find `in` at nesting depth 0, then the `{` that opens the body.
    let mut j = for_idx + 1;
    let mut depth = 0i32;
    let mut in_idx = None;
    while j < v.toks.len() && j < for_idx + 40 {
        if v.is_punct(j, '(') || v.is_punct(j, '[') {
            depth += 1;
        } else if v.is_punct(j, ')') || v.is_punct(j, ']') {
            depth -= 1;
        } else if depth == 0 && v.ident(j) == Some("in") {
            in_idx = Some(j);
            break;
        }
        j += 1;
    }
    let in_idx = in_idx?;
    let mut k = in_idx + 1;
    let mut depth = 0i32;
    let mut body = None;
    while k < v.toks.len() && k < in_idx + 40 {
        if v.is_punct(k, '(') || v.is_punct(k, '[') {
            depth += 1;
        } else if v.is_punct(k, ')') || v.is_punct(k, ']') {
            depth -= 1;
        } else if depth == 0 && v.is_punct(k, '{') {
            body = Some(k);
            break;
        }
        k += 1;
    }
    let body = body?;
    // The expression's last token must be an identifier (method chains end
    // in `)` and are handled elsewhere).
    let last = body.checked_sub(1)?;
    let name = v.ident(last)?;
    // Reject range loops `for i in 0..n`.
    let mut t = in_idx + 1;
    while t < body {
        if v.is_punct(t, '.') && v.is_punct(t + 1, '.') {
            return None;
        }
        t += 1;
    }
    Some((name.to_string(), v.line(last)))
}
