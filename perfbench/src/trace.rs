//! Spans the benchmark records around its own calls into the library.
//!
//! Nothing inside the program is instrumented: each span brackets one
//! call the benchmark makes (a codec round, `Daemon::on_message`,
//! `Daemon::tick`, `TimingNpu::map`, `run_schedules`, ...). Spans stay
//! in memory and are written once, when the run ends. A layer's self
//! time is its spans' duration minus the part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;
/// Request id of a span that serves no single request.
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `daemon.poll`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    /// Nanoseconds since the tracer was created (0 while open).
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Request the span served, or [`NO_REQUEST`].
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus time covered by child spans.
    pub self_ns: u64,
}

/// In-memory span recorder; a disabled tracer records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between spans.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, request: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied().unwrap_or(ROOT),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `enter` returned.
    #[inline]
    pub fn exit(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let now = self.now();
        self.spans[id as usize].end = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Discards the spans recorded after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(self.open.is_empty(), "truncated inside a span");
        self.spans.truncate(len);
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Total and self time per span name.
    #[must_use]
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.ns();
            t.self_ns += s.ns().saturating_sub(kids);
        }
        out
    }

    /// Writes every span as tab-separated `name start end parent request`
    /// lines (parent and request `-` when absent).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\tstart_ns\tend_ns\tparent\trequest")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let request = if s.request == NO_REQUEST {
                "-".to_string()
            } else {
                format!("{:#x}", s.request)
            };
            writeln!(w, "{}\t{}\t{}\t{parent}\t{request}", s.name, s.start, s.end)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", NO_REQUEST);
        let inner = t.enter("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let times = t.layer_times();
        let (o, i) = (times["outer"], times["inner"]);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(o.total_ns, o.self_ns + i.total_ns);
        assert_eq!(i.self_ns, i.total_ns);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("x", 1);
        t.exit(s);
        assert!(t.spans().is_empty());
    }
}
