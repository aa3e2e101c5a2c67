//! In-memory span recorder for traced runs.
//!
//! A span is one call into a layer: name, start, end, parent span and
//! request id. Spans are appended to a vector during the run and only
//! summarised (and optionally written out) after it, so recording
//! costs two clock reads and a push.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

/// Per span name: total time and self time (total minus the
/// time of direct children), in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index for children.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = Span {
            name,
            req,
            parent,
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Open a span whose end is not known yet (a request that will
    /// have children); close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64, start: Instant) -> u32 {
        self.record(name, req, ROOT, start, start)
    }

    pub fn close(&mut self, idx: u32, end: Instant) {
        let end = self.ns(end);
        self.spans[idx as usize].end = end;
    }

    /// Sum total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Write every span as one tab-separated line: name, request,
    /// parent index, start ns, end ns.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\treq\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.req, parent, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Share of the wall time of spans named `parent` that their children
/// cover.
pub fn coverage(totals: &BTreeMap<&'static str, Totals>, parent: &str) -> f64 {
    match totals.get(parent) {
        Some(t) if t.total_ns > 0 => 1.0 - t.self_ns as f64 / t.total_ns as f64,
        _ => 0.0,
    }
}

/// Mean microseconds per request spent in spans named `name`.
pub fn us_per_req(totals: &BTreeMap<&'static str, Totals>, name: &str, requests: usize) -> f64 {
    let ns = totals.get(name).map_or(0, |t| t.total_ns);
    ns as f64 / 1e3 / requests.max(1) as f64
}
