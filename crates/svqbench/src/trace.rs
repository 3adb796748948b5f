//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Each generator (or replay) thread owns one [`SpanBuf`]; nothing is
//! shared while a pass runs. Spans stay in memory and are written once, at
//! the end of the run, as JSON lines. A span's self time is its duration
//! minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// "No parent" in [`Span::parent`].
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same buffer, or [`ROOT`].
    parent: u32,
    /// Spans of one operation share this.
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span, returned by [`SpanBuf::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// One thread's spans. A disabled buffer reads no clock and stores
/// nothing, so the untraced passes run the same code without the cost.
pub struct SpanBuf {
    spans: Vec<Span>,
    cap: usize,
    /// Spans not stored because the buffer was full.
    pub dropped: u64,
    enabled: bool,
    epoch: Instant,
}

impl SpanBuf {
    /// A buffer that records nothing.
    pub fn disabled() -> Self {
        Self {
            spans: Vec::new(),
            cap: 0,
            dropped: 0,
            enabled: false,
            epoch: Instant::now(),
        }
    }

    /// A recording buffer holding at most `cap` spans, allocated up front
    /// so recording never reallocates inside a timed section. `epoch` is
    /// shared by every buffer of a run so their clocks line up.
    pub fn recording(cap: usize, epoch: Instant) -> Self {
        Self {
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
            enabled: true,
            epoch,
        }
    }

    /// Start or stop recording (a buffer built disabled has no room and
    /// stays silent either way).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled && self.cap > 0;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now. `None` when disabled or full.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map_or(ROOT, |p| p.0),
            op_id,
        });
        Some(SpanId((self.spans.len() - 1) as u32))
    }

    /// Close a span opened by [`SpanBuf::open`], optionally renaming it
    /// (a fetch learns whether it was a hit only once it returns).
    pub fn close(&mut self, id: Option<SpanId>, rename: Option<&'static str>) {
        if let Some(SpanId(i)) = id {
            let end_ns = self.now_ns();
            let span = &mut self.spans[i as usize];
            span.end_ns = end_ns;
            if let Some(name) = rename {
                span.name = name;
            }
        }
    }

    /// Run `f` under a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op_id);
        let out = f();
        self.close(id, None);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, nanoseconds, positionally aligned with
    /// [`SpanBuf::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                covered[span.parent as usize] += span.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }
}

/// Per span name: how many, their summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean duration of one span of this name, microseconds.
    pub fn mean_us(&self) -> f64 {
        crate::sys::ratio(self.total_ns as f64 / 1e3, self.count as f64)
    }
}

/// Aggregate several buffers by span name.
pub fn totals_by_name(bufs: &[SpanBuf]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for buf in bufs {
        for (span, self_ns) in buf.spans().iter().zip(buf.self_ns()) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.dur_ns();
            t.self_ns += self_ns;
        }
    }
    out
}

/// Write every span as one JSON line:
/// `{name, start_ns, end_ns, parent, op_id, thread}`, `parent` being the
/// `id` (line number within its thread) of the causing span or null.
pub fn write_jsonl(path: &Path, bufs: &[SpanBuf]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, buf) in bufs.iter().enumerate() {
        for (id, s) in buf.spans().iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"id\": {id}, \
                 \"parent\": {parent}, \"op_id\": {}, \"thread\": {thread}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut buf = SpanBuf::recording(8, Instant::now());
        let op = buf.open("op", None, 1);
        buf.within("child", op, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        buf.close(op, None);
        let selfs = buf.self_ns();
        let spans = buf.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(selfs[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(selfs[1], spans[1].dur_ns());
        let totals = totals_by_name(&[buf]);
        assert_eq!(totals["op"].count, 1);
        assert!(totals["child"].total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_and_full_buffers_store_nothing_more() {
        let mut off = SpanBuf::disabled();
        let id = off.open("x", None, 0);
        off.close(id, None);
        assert!(off.spans().is_empty());
        let mut small = SpanBuf::recording(1, Instant::now());
        small.within("a", None, 0, || ());
        small.within("b", None, 0, || ());
        assert_eq!(small.spans().len(), 1);
        assert_eq!(small.dropped, 1);
    }
}
