//! In-memory span recorder for the traced run. Spans come from the
//! benchmark's own files, around the calls it issues into the stack; spans
//! inside the program are a later change (ROADMAP item A).
//!
//! Two clock domains, named on every span: `host` (ns since process start)
//! for run / setup / round / probes, `fabric` (`Proc::now`) for client loops
//! and their operations. A client span carries its operation count and busy
//! time, so its self time (think time: input generation and output checks)
//! is `end - start - busy_ns` even when the per-op spans were capped.

use std::time::Instant;

use crate::harness::Round;
use crate::json::{obj, Json};

/// Per-op spans kept per run; beyond it only the client totals are recorded.
const MAX_OP_SPANS: usize = 50_000;

struct Span {
    name: String,
    clock: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// `(ops, busy_ns, bytes)` for client spans.
    client: Option<(u64, u64, u64)>,
}

pub struct Trace {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    /// Host spans begun and not yet ended, innermost last.
    open: Vec<usize>,
    /// `(client span, op id, start, end)` in fabric ns.
    ops: Vec<(usize, u64, u64, u64)>,
    next_op_id: u64,
    ops_dropped: u64,
}

impl Trace {
    pub fn new(enabled: bool, t0: Instant) -> Trace {
        Trace {
            enabled,
            t0,
            spans: Vec::new(),
            open: Vec::new(),
            ops: Vec::new(),
            next_op_id: 0,
            ops_dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a host-clock span inside the innermost open one; returns its id.
    pub fn begin(&mut self, name: &str) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            clock: "host",
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            client: None,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.now();
        }
    }

    /// Attach a finished round's client loops and operations under its span.
    pub fn ops(&mut self, round_span: usize, round: &Round) {
        if !self.enabled {
            return;
        }
        for c in &round.clients {
            let (Some(first), Some(last)) = (c.ops.first(), c.ops.last()) else {
                continue;
            };
            self.spans.push(Span {
                name: format!("client:{}", c.name),
                clock: "fabric",
                start_ns: first.0,
                end_ns: last.1,
                parent: Some(round_span),
                client: Some((
                    c.ops.len() as u64,
                    c.ops.iter().map(|&(s, e)| e - s).sum(),
                    c.bytes,
                )),
            });
            let client_span = self.spans.len() - 1;
            for &(s, e) in &c.ops {
                if self.ops.len() < MAX_OP_SPANS {
                    self.ops.push((client_span, self.next_op_id, s, e));
                } else {
                    self.ops_dropped += 1;
                }
                self.next_op_id += 1;
            }
        }
    }

    /// Share of the client loops' time spent outside operations (think time:
    /// generating inputs and checking outputs).
    pub fn think_frac(&self) -> f64 {
        let (mut total, mut busy) = (0u64, 0u64);
        for s in &self.spans {
            if let Some((_, b, _)) = s.client {
                total += s.end_ns - s.start_ns;
                busy += b;
            }
        }
        if total == 0 {
            0.0
        } else {
            1.0 - busy as f64 / total as f64
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len() + self.ops.len()
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut o = vec![
                    ("id".to_string(), Json::from(id)),
                    ("name".to_string(), Json::from(s.name.as_str())),
                    ("clock".to_string(), Json::from(s.clock)),
                    ("start_ns".to_string(), Json::from(s.start_ns)),
                    ("end_ns".to_string(), Json::from(s.end_ns)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, Json::from),
                    ),
                ];
                if let Some((ops, busy_ns, bytes)) = s.client {
                    o.push(("ops".to_string(), Json::from(ops)));
                    o.push(("busy_ns".to_string(), Json::from(busy_ns)));
                    o.push(("bytes".to_string(), Json::from(bytes)));
                }
                Json::Obj(o)
            })
            .collect();
        // One row per operation: [parent client span, op_id, start_ns, end_ns].
        let ops = self
            .ops
            .iter()
            .map(|&(parent, op_id, s, e)| {
                Json::Arr(vec![parent.into(), op_id.into(), s.into(), e.into()])
            })
            .collect();
        obj([
            ("spans", Json::Arr(spans)),
            (
                "op_span_columns",
                Json::Arr(
                    ["parent", "op_id", "start_ns", "end_ns"]
                        .map(Json::from)
                        .to_vec(),
                ),
            ),
            ("op_spans", Json::Arr(ops)),
            ("op_spans_dropped", self.ops_dropped.into()),
        ])
    }
}
