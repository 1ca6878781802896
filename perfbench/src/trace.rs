//! In-memory span recorder for the traced run.
//!
//! The wrappers in `wrap.rs` call [`span`] around every call they forward
//! into a layer. While recording is off (the untraced runs) a span is one
//! thread-local flag check. While it is on, each span appends one record
//! (name, start, end, parent) to a buffer that is only read after the
//! measured window: [`Recording::layers`] derives per-name call counts,
//! total and self time (a span minus the spans nested in it), and
//! [`Recording::write_tsv`] writes the raw spans out.
//!
//! The benchmark drives the serial simulator on one thread, so a
//! thread-local recorder sees every span of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a span that no other span encloses.
const NO_PARENT: u32 = u32::MAX;

/// One recorded call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `replica.St1` or `store.prepare`.
    pub name: &'static str,
    /// Start, in nanoseconds since recording began.
    pub start_ns: u64,
    /// End, in nanoseconds since recording began.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a top-level span.
    pub parent: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    counters: BTreeMap<&'static str, u64>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        base: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        counters: BTreeMap::new(),
    });
}

/// Starts recording on this thread, discarding anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = true;
        r.base = Instant::now();
        r.spans.clear();
        r.stack.clear();
        r.counters.clear();
    });
}

/// Stops recording and hands back everything recorded since [`start`].
pub fn stop() -> Recording {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = false;
        Recording {
            spans: std::mem::take(&mut r.spans),
            counters: std::mem::take(&mut r.counters),
        }
    })
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().enabled)
}

/// Adds `n` to the named counter (only while recording).
pub fn count(name: &'static str, n: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            *r.counters.entry(name).or_insert(0) += n;
        }
    });
}

/// Runs `f` inside a span called `name`, nested under the innermost open
/// span. Without recording this is just `f()`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let index = r.spans.len() as u32;
        let parent = r.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = r.base.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        r.stack.push(index);
        Some(index)
    });
    let Some(index) = opened else {
        return f();
    };
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.base.elapsed().as_nanos() as u64;
        r.spans[index as usize].end_ns = end_ns;
        r.stack.pop();
    });
    out
}

/// Call count and time of every span with one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed span durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus nested spans), in nanoseconds.
    pub self_ns: u64,
}

/// What one recording window captured.
pub struct Recording {
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// Named event counters.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Recording {
    /// Per-name aggregates, with self time derived from the parent links.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let layer = layers.entry(span.name).or_default();
            layer.calls += 1;
            layer.total_ns += span.duration_ns();
            layer.self_ns += span.duration_ns().saturating_sub(*children);
        }
        layers
    }

    /// Summed duration of the spans no other span encloses: all the time
    /// the window spent inside the wrapped layers.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(Span::duration_ns)
            .sum()
    }

    /// The named counter's value (0 if it never fired).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Writes one line per span: `index name start_ns end_ns parent`, tab
    /// separated, with `-` for a top-level span's parent.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                writeln!(out, "{i}\t{}\t{}\t{}\t-", s.name, s.start_ns, s.end_ns)?;
            } else {
                writeln!(
                    out,
                    "{i}\t{}\t{}\t{}\t{}",
                    s.name, s.start_ns, s.end_ns, s.parent
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_nested_spans() {
        start();
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        span("other", || ());
        count("events", 3);
        let rec = stop();
        assert!(!enabled());
        let layers = rec.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(
            rec.top_level_ns(),
            outer.total_ns + layers["other"].total_ns
        );
        assert_eq!(rec.counter("events"), 3);
        assert_eq!(span("off", || 7), 7);
        assert_eq!(stop().spans.len(), 0, "nothing recorded while off");
    }
}
