//! An in-memory span recorder for the traced run, written out as Chrome
//! trace-event JSON when the run ends.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public API. Every span carries the id of the op it
//! belongs to; an op's layer spans are children of its `op` span, and
//! probe spans (extra calls made only to measure a layer) sit next to the
//! op span rather than inside it, so they never inflate the op's time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Name of the root span of every op.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `minicc.parse`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Offset of the start from the recorder's origin.
    pub start: Duration,
    /// Offset of the end from the recorder's origin.
    pub end: Duration,
}

impl Span {
    /// Wall time of the span.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The recorder. Single-threaded: layers that fan out internally are
/// timed as one span around the call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Sets the op id stamped on every span recorded from now on.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// When no span is open (a bug in the caller's nesting).
    pub fn end(&mut self) {
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one span never overlap, since the
    /// recorder is single-threaded).
    #[must_use]
    pub fn self_times(&self) -> Vec<Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration().saturating_sub(c))
            .collect()
    }

    /// Self time summed per span name.
    #[must_use]
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, Duration> {
        let mut by_name = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *by_name.entry(s.name).or_insert(Duration::ZERO) += t;
        }
        by_name
    }

    /// Renders the spans as Chrome trace-event JSON (complete `X`
    /// events, microsecond timestamps). `labels[op]` names each op;
    /// root spans also carry their unattributed share.
    #[must_use]
    pub fn chrome_json(&self, labels: &[String]) -> String {
        let self_times = self.self_times();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, (s, own)) in self.spans.iter().zip(&self_times).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let cat = if s.name == OP {
                "op"
            } else if s.parent.is_none() {
                "probe"
            } else {
                "layer"
            };
            let label = labels.get(s.op).map_or("", String::as_str);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"label\":\"{}\"",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.duration().as_secs_f64() * 1e6,
                s.op,
                escape(label),
            );
            if s.name == OP {
                let share = own.as_secs_f64() / s.duration().as_secs_f64().max(f64::MIN_POSITIVE);
                let _ = write!(out, ",\"unattributed_share\":{share:.6}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Escapes a string for a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tr = Tracer::new();
        tr.begin(OP);
        tr.span("a", || std::thread::sleep(Duration::from_millis(2)));
        tr.begin("b");
        tr.span("c", || std::thread::sleep(Duration::from_millis(2)));
        tr.end();
        tr.end();
        let spans = tr.spans();
        let own = tr.self_times();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let children = spans[1].duration() + spans[2].duration();
        assert_eq!(own[0], spans[0].duration() - children);
        assert_eq!(own[2], spans[2].duration() - spans[3].duration());
    }

    #[test]
    fn chrome_json_escapes_labels() {
        let mut tr = Tracer::new();
        tr.span(OP, || ());
        let json = tr.chrome_json(&["a\"b".to_owned()]);
        assert!(json.contains("\"label\":\"a\\\"b\""));
        assert!(json.contains("\"unattributed_share\""));
    }
}
