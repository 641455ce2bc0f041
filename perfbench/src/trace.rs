//! In-memory spans recorded by the benchmark around its calls into each
//! layer. One [`Tracer`] per generator thread; a disabled tracer records
//! nothing and costs one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use fabric_primitives::ids::TxId;

/// One span: a named interval on one thread, its enclosing span on that
/// thread (`parent`, 0 = none, else index + 1), the transaction it served
/// (`tx`, the id's first 8 bytes, 0 = none), and how many items it
/// handled (`n`).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub tx: u64,
    pub n: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    enabled: bool,
    thread: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle for a span opened with [`Tracer::open`].
#[must_use]
pub struct Open(Option<u32>);

pub fn tx_tag(tx: &TxId) -> u64 {
    u64::from_le_bytes(tx.0[..8].try_into().expect("32-byte id"))
}

impl Tracer {
    pub fn new(enabled: bool, thread: &'static str, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            thread,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span of this thread.
    pub fn open(&mut self, name: &'static str, tx: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.open.last().map_or(0, |&i| i + 1);
        let index = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            tx,
            n: 1,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span, recording how many items it handled.
    pub fn close(&mut self, span: Open, n: usize) {
        if let Some(index) = span.0 {
            let end_ns = self.ns(Instant::now());
            let s = &mut self.spans[index as usize];
            s.end_ns = end_ns;
            s.n = n as u32;
            self.open.retain(|&i| i != index);
        }
    }

    /// Records a span whose ends were observed elsewhere (a wait that
    /// started on another call or another thread).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, tx: u64, n: usize) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end).max(self.ns(start)));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: 0,
                tx,
                n: n as u32,
            });
        }
    }

    /// Appends this thread's spans, one JSON object a line; `phase` names
    /// the loop they belong to (parents index spans of the same phase
    /// and thread).
    pub fn dump(&self, out: &mut impl Write, phase: &str) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"phase\":\"{phase}\",\"thread\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"tx\":\"{:016x}\",\"n\":{}}}",
                self.thread, s.name, s.start_ns, s.end_ns, s.parent, s.tx, s.n
            )?;
        }
        Ok(())
    }
}

/// Per span name: count, summed duration, summed items, and durations.
#[derive(Default, Debug)]
pub struct NameStats {
    pub count: usize,
    pub total_us: f64,
    pub items: u64,
    pub durations_us: Vec<f64>,
}

/// Adds the spans of `tracer` that end inside `[from, to]`.
pub fn summarize(
    out: &mut BTreeMap<&'static str, NameStats>,
    tracer: &Tracer,
    from: Instant,
    to: Instant,
) {
    let (from, to) = (tracer.ns(from), tracer.ns(to));
    for s in tracer
        .spans
        .iter()
        .filter(|s| s.end_ns >= from && s.end_ns <= to)
    {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_us += s.dur_us();
        e.items += s.n as u64;
        e.durations_us.push(s.dur_us());
    }
}
