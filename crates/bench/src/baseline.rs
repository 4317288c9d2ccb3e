//! How a committed `BENCH_*.json` baseline is recorded, compared and
//! promoted — the one place that knows.
//!
//! A figure driver *declares* its record: the x-axis of its sweep and each
//! series with a [`Gate`]. [`Baseline::check_and_record`] does the rest:
//! emit the JSON, write it to `<file>.new`, load the committed file, fail
//! loudly when a declared key is missing, a committed key is no longer
//! declared or the sweep shape changed, compare pointwise, and promote
//! `.new` onto the committed path only after the diff passed — a regressed
//! run dies with the committed baseline intact and the fresh numbers in the
//! side file (what CI uploads, so a deliberate re-record has the data).
//!
//! What is compared is what is written: both sides of a gate are the numbers
//! as rendered in the two files, so a diff can be reproduced from the
//! artifacts alone. Shape asserts (retention, monotone scaling, ≥ 5× byte
//! cut …) are claims about the paper and stay in the drivers.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;

/// "No worse than" factor of [`Gate::Higher`] / [`Gate::Lower`].
const TOLERANCE: f64 = 1.25;

/// How one series is held against the committed baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Deterministic for the fixed seed (bytes, segment counts): any drift
    /// is a behaviour change and is re-recorded deliberately.
    Exact,
    /// Higher is better (throughput): must not fall below baseline / 1.25.
    Higher,
    /// Lower is better (virtual seconds, round-trips): must not exceed
    /// baseline × 1.25.
    Lower,
    /// Recorded for the trajectory, never gated (wall-clock side fields,
    /// values derived from gated ones).
    Record,
}

struct Column {
    key: &'static str,
    gate: Gate,
    /// Names the points of its section in diff messages.
    axis: bool,
    /// Emitted bare (`"nodes": 8`) rather than as an array.
    scalar: bool,
    /// Values as they appear in the file.
    cells: Vec<String>,
}

/// A declared bench record. Top-level columns come first; each
/// [`Baseline::section`] opens a nested object. Axes and series are read off
/// the points of the current [`Baseline::sweep`], one cell per point.
pub struct Baseline<'a, P> {
    bench: &'static str,
    /// `("", columns)` is the top level, in declaration order.
    sections: Vec<(&'static str, Vec<Column>)>,
    points: &'a [P],
}

/// `key → cells` of a parsed record; `section.key` inside a nested object.
type Doc = BTreeMap<String, Vec<String>>;

impl Baseline<'static, ()> {
    pub fn new(bench: &'static str) -> Self {
        Baseline {
            bench,
            sections: vec![("", Vec::new())],
            points: &[],
        }
        .param("bench", bench)
    }
}

impl<P> Baseline<'_, P> {
    /// Read the axes and series declared next off `points`.
    pub fn sweep<Q>(self, points: &[Q]) -> Baseline<'_, Q> {
        Baseline {
            bench: self.bench,
            sections: self.sections,
            points,
        }
    }

    /// Open a nested object; the columns declared next belong to it.
    pub fn section(mut self, name: &'static str) -> Self {
        self.sections.push((name, Vec::new()));
        self
    }

    /// A fixed parameter of the sweep (`"nodes": 8`), exact.
    pub fn param(self, key: &'static str, value: impl Display) -> Self {
        self.column(key, Gate::Exact, false, true, 0, [value])
    }

    /// An x-axis of the section (numbers or labels), one cell per point of
    /// the sweep, exact. Points are named by it in diff messages.
    pub fn axis<T: Display>(self, key: &'static str, x: impl Fn(&P) -> T) -> Self {
        let cells = self.points.iter().map(x);
        self.column(key, Gate::Exact, true, false, 0, cells)
    }

    /// One measured value per point of the sweep, written with `decimals`
    /// fractional digits (ignored for integers).
    pub fn series<T: Display>(
        self,
        key: &'static str,
        gate: Gate,
        decimals: usize,
        value: impl Fn(&P) -> T,
    ) -> Self {
        let cells = self.points.iter().map(value);
        self.column(key, gate, false, false, decimals, cells)
    }

    /// A single measured value, emitted bare.
    pub fn scalar<T: Display>(self, key: &'static str, gate: Gate, decimals: usize, v: T) -> Self {
        self.column(key, gate, false, true, decimals, [v])
    }

    fn column<T: Display>(
        mut self,
        key: &'static str,
        gate: Gate,
        axis: bool,
        scalar: bool,
        decimals: usize,
        values: impl IntoIterator<Item = T>,
    ) -> Self {
        let cells = values.into_iter().map(|v| {
            // Numbers take the precision (a no-op on integers); anything
            // else is a label, which a precision would truncate.
            let cell = format!("{v:.decimals$}");
            if cell.parse::<f64>().is_ok() {
                cell
            } else {
                format!("\"{v}\"")
            }
        });
        let cells = cells.collect();
        let (_, cols) = self
            .sections
            .last_mut()
            .expect("the top level always exists");
        cols.push(Column {
            key,
            gate,
            axis,
            scalar,
            cells,
        });
        self
    }

    /// The record as written to disk: one top-level column per line, a
    /// nested section on one line.
    pub(crate) fn to_json(&self) -> String {
        let render = |c: &Column| {
            let cells = c.cells.join(", ");
            if c.scalar {
                format!("\"{}\": {cells}", c.key)
            } else {
                format!("\"{}\": [{cells}]", c.key)
            }
        };
        let lines = self.sections.iter().map(|(name, cols)| {
            let cols: Vec<String> = cols.iter().map(render).collect();
            if name.is_empty() {
                cols.join(",\n  ")
            } else {
                format!("\"{name}\": {{{}}}", cols.join(", "))
            }
        });
        format!("{{\n  {}\n}}\n", lines.collect::<Vec<_>>().join(",\n  "))
    }

    /// Every way this run differs from `base` beyond its gates; empty means
    /// the diff passed.
    pub(crate) fn diff(&self, base: &str) -> Vec<String> {
        let mut doc = parse(base);
        let mut failures = Vec::new();
        for (section, cols) in &self.sections {
            for col in cols {
                let nested = if section.is_empty() { "" } else { "." };
                let path = format!("{section}{nested}{}", col.key);
                let at = format!("{}: {path}", self.bench);
                let Some(base_cells) = doc.remove(&path) else {
                    failures.push(format!("{at} is missing; re-record deliberately"));
                    continue;
                };
                if base_cells.len() != col.cells.len() {
                    let (was, now) = (base_cells.join(", "), col.cells.join(", "));
                    failures.push(format!(
                        "{at} sweep shape changed [{was}] -> [{now}]; re-record deliberately"
                    ));
                    continue;
                }
                for (i, (was, now)) in base_cells.iter().zip(&col.cells).enumerate() {
                    let holds = match (col.gate, was.parse::<f64>(), now.parse::<f64>()) {
                        (Gate::Record, ..) => true,
                        (Gate::Exact, ..) => was == now,
                        (Gate::Higher, Ok(b), Ok(n)) => n >= b / TOLERANCE,
                        (Gate::Lower, Ok(b), Ok(n)) => n <= b * TOLERANCE,
                        _ => false,
                    };
                    if !holds {
                        // Name the point by the section's axes, or by the
                        // top level's when the section has none (a role
                        // table over the main sweep).
                        let own = cols.iter().any(|c| c.axis);
                        let named = if own { cols } else { &self.sections[0].1 };
                        let axes = named.iter().filter(|c| c.axis && !col.scalar);
                        let x: Vec<String> = axes
                            .filter_map(|c| Some(format!("{}={}", c.key, c.cells.get(i)?)))
                            .collect();
                        failures.push(format!(
                            "{at} at [{}]: {was} -> {now} breaks its {:?} gate; \
                             re-record deliberately if intended",
                            x.join(", "),
                            col.gate
                        ));
                    }
                }
            }
        }
        // What is left the run no longer declares: promotion would drop it.
        for path in doc.keys() {
            failures.push(format!(
                "{}: {path} is no longer declared; re-record deliberately",
                self.bench
            ));
        }
        failures
    }

    /// Record this run against the committed baseline `file` (a `.json` path
    /// relative to the repo root, or absolute): write `<file>.new`, diff, and
    /// promote only on a pass. Panics on a failed diff, leaving `file`
    /// untouched.
    pub fn check_and_record(&self, file: impl AsRef<Path>) {
        let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(&file);
        let file = file.as_ref().display();
        let fresh = path.with_extension("json.new");
        std::fs::write(&fresh, self.to_json()).expect("write fresh bench record");
        match std::fs::read_to_string(&path) {
            Err(_) => println!("\nno committed {file} found; this run records the first one"),
            Ok(base) => {
                let failures = self.diff(&base);
                assert!(
                    failures.is_empty(),
                    "{} regressed against {file} (left untouched; this run is in {file}.new):\n  {}",
                    self.bench,
                    failures.join("\n  ")
                );
                println!("\nbaseline diff passed: every gate of {file} holds pointwise");
            }
        }
        std::fs::rename(&fresh, &path).expect("promote fresh bench record");
        println!("wrote {file}");
    }
}

/// Read back a record [`Baseline::to_json`] wrote. No JSON dependency exists
/// offline and the files are our own fixed format — objects one level deep
/// whose values are scalars or flat arrays — so a token scan suffices; what
/// it cannot find, the diff reports as a missing key.
fn parse(text: &str) -> Doc {
    const PUNCT: &str = "{}[],:";
    let mut tokens = Vec::new();
    let mut rest = text.trim_start();
    while let Some(first) = rest.chars().next() {
        let len = if PUNCT.contains(first) {
            1
        } else if first == '"' {
            rest[1..].find('"').map_or(rest.len(), |i| i + 2)
        } else {
            rest.find(|c: char| PUNCT.contains(c) || c.is_whitespace())
                .unwrap_or(rest.len())
        };
        tokens.push(&rest[..len]);
        rest = rest[len..].trim_start();
    }
    let mut doc = Doc::new();
    let (mut depth, mut section, mut path) = (0, String::new(), String::new());
    for (i, tok) in tokens.iter().enumerate() {
        match *tok {
            "{" => {
                depth += 1;
                if depth == 2 {
                    // The key just read names a section, not a column.
                    doc.remove(&path);
                    section = path.clone() + ".";
                }
            }
            "}" => {
                depth -= 1;
                section.clear();
            }
            "[" | "]" | "," | ":" => {}
            key if tokens.get(i + 1) == Some(&":") => {
                path = format!("{section}{}", key.trim_matches('"'));
                doc.insert(path.clone(), Vec::new());
            }
            cell => doc.entry(path.clone()).or_default().push(cell.to_string()),
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A two-point record with one series under `gate` (and a record-only
    /// wall field), written with one decimal.
    fn record(gate: Gate, values: [f64; 2]) -> Baseline<'static, f64> {
        Baseline::new("t")
            .param("nodes", 8)
            .sweep(&["a", "b"])
            .axis("x", |x| *x)
            .sweep(Vec::leak(values.to_vec()))
            .series("v", gate, 1, |v| *v)
            .series("wall", Gate::Record, 1, |v| v * 1e3)
    }

    fn failures(gate: Gate, base: [f64; 2], now: [f64; 2]) -> Vec<String> {
        record(gate, now).diff(&record(gate, base).to_json())
    }

    /// A scratch path holding `committed` as the baseline file.
    fn scratch(tag: &str, committed: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("baseline-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_t.json"), committed).unwrap();
        dir.join("BENCH_t.json")
    }

    #[test]
    fn layout_is_one_column_per_line_and_sections_inline() {
        let json = record(Gate::Exact, [1.0, 2.5])
            .section("stress")
            .param("maps", 48)
            .scalar("secs", Gate::Lower, 2, 0.3)
            .to_json();
        assert_eq!(
            json,
            "{\n  \"bench\": \"t\",\n  \"nodes\": 8,\n  \"x\": [\"a\", \"b\"],\n  \
             \"v\": [1.0, 2.5],\n  \"wall\": [1000.0, 2500.0],\n  \
             \"stress\": {\"maps\": 48, \"secs\": 0.30}\n}\n"
        );
    }

    #[test]
    fn exact_gate_fails_on_plus_or_minus_one() {
        assert!(failures(Gate::Exact, [7.0, 64.0], [7.0, 64.0]).is_empty());
        for now in [63.0, 65.0] {
            let f = failures(Gate::Exact, [7.0, 64.0], [7.0, now]);
            assert_eq!(f.len(), 1, "{f:?}");
            assert!(f[0].contains("t: v at [x=\"b\"]: 64.0 -> "), "{f:?}");
        }
    }

    #[test]
    fn a_section_without_axes_names_its_points_by_the_top_level() {
        let run = |v: f64| {
            let roles = record(Gate::Exact, [1.0, 2.0]).section("roles");
            roles
                .sweep(Vec::leak(vec![1.0, v]))
                .series("r", Gate::Exact, 1, |v| *v)
        };
        let f = run(3.0).diff(&run(2.0).to_json());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].contains("t: roles.r at [x=\"b\"]: 2.0 -> 3.0"),
            "{f:?}"
        );
    }

    #[test]
    fn tolerance_gate_holds_at_the_boundary_and_fails_past_it_both_ways() {
        // Lower is better: 100 -> 125 is the last pass.
        assert!(failures(Gate::Lower, [100.0, 100.0], [125.0, 1.0]).is_empty());
        let f = failures(Gate::Lower, [100.0, 100.0], [125.1, 1.0]);
        assert!(f.len() == 1 && f[0].contains("100.0 -> 125.1"), "{f:?}");
        // Higher is better: 125 -> 100 is the last pass.
        assert!(failures(Gate::Higher, [125.0, 125.0], [100.0, 1e6]).is_empty());
        let f = failures(Gate::Higher, [125.0, 125.0], [99.9, 1e6]);
        assert!(f.len() == 1 && f[0].contains("125.0 -> 99.9"), "{f:?}");
    }

    #[test]
    fn record_only_never_fails() {
        assert!(failures(Gate::Record, [100.0, 100.0], [0.0, 1e12]).is_empty());
    }

    #[test]
    fn missing_key_and_changed_axis_demand_a_deliberate_re_record() {
        let now = record(Gate::Record, [1.0, 2.0]);
        let base = now.to_json();
        let cases = [
            (base.replace("\"v\"", "\"w\""), "t: v is missing"),
            (
                base.replace("\"b\"", "\"c\""),
                "t: x at [x=\"b\"]: \"c\" -> \"b\"",
            ),
            (base.replace(": 8", ": 9"), "t: nodes at []: 9 -> 8"),
            // A shorter sweep is a shape change, an empty file lacks every
            // key: neither passes vacuously.
            (base.replace(", 2.0", ""), "t: v sweep shape changed"),
            (String::new(), "t: bench is missing"),
            // A series the run stopped declaring would vanish on promotion.
            (
                base.replace("\n}", ",\n  \"gone\": [3, 4]\n}"),
                "t: gone is no longer declared",
            ),
        ];
        for (base, expected) in cases {
            let f = now.diff(&base);
            assert!(f[0].contains(expected), "{f:?}");
            assert!(f[0].contains("re-record deliberately"), "{f:?}");
        }
    }

    #[test]
    fn failed_diff_keeps_the_committed_file_and_leaves_the_run_in_new() {
        let committed = record(Gate::Exact, [1.0, 2.0])
            .to_json()
            .replace("\"wall\"", "\"w\"");
        let path = scratch("failed", &committed);
        let regressed = record(Gate::Exact, [1.0, 3.0]);
        let died = std::panic::catch_unwind(|| regressed.check_and_record(&path)).unwrap_err();
        let message = died.downcast_ref::<String>().unwrap();
        assert!(
            message.contains("t: v at [x=\"b\"]: 2.0 -> 3.0"),
            "{message}"
        );
        assert!(
            message.contains("t: wall is missing; re-record deliberately"),
            "{message}"
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), committed);
        let fresh = std::fs::read_to_string(path.with_extension("json.new")).unwrap();
        assert_eq!(fresh, regressed.to_json());
    }

    #[test]
    fn passed_diff_promotes_and_removes_new() {
        let path = scratch("passed", &record(Gate::Lower, [1.0, 2.0]).to_json());
        let better = record(Gate::Lower, [0.5, 2.0]);
        better.check_and_record(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), better.to_json());
        assert!(!path.with_extension("json.new").exists());
        // With no baseline at all, the run records the first one.
        std::fs::remove_file(&path).unwrap();
        better.check_and_record(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), better.to_json());
    }

    /// Every number in the seven committed files survives parse → emit →
    /// parse, and parse sees every number an independent scan of the text
    /// finds.
    #[test]
    fn committed_baselines_round_trip() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let mut files = 0;
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            files += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = parse(&text);
            let is_num = |t: &&str| t.parse::<f64>().is_ok();
            let scanned = text.split(|c| " \n,[]{}:".contains(c)).filter(is_num);
            let parsed = doc.values().flatten();
            assert_eq!(
                parsed.filter(|t| is_num(&t.as_str())).count(),
                scanned.count(),
                "{name}: parse lost a number"
            );
            let column = |(path, cells): (&String, &Vec<String>)| Column {
                key: String::leak(path.clone()),
                gate: Gate::Exact,
                axis: false,
                scalar: false,
                cells: cells.clone(),
            };
            let again = Baseline::<()> {
                bench: "round-trip",
                sections: vec![("", doc.iter().map(column).collect())],
                points: &[],
            };
            assert_eq!(parse(&again.to_json()), doc, "{name}");
            assert!(again.diff(&text).is_empty(), "{name}");
        }
        assert_eq!(files, 8, "the eight gated baselines live at the repo root");
    }
}
