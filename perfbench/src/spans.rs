//! The traced run's span recorder: wall-clock spans around the
//! benchmark's calls into each layer, kept in memory, summarised as a
//! per-layer self-time table and written once as Perfetto JSON.
//!
//! Spans are recorded from the benchmark's own code only; the program
//! is not instrumented. Layers are named after the crates they call
//! into (`analysis`, `runtime`, `dsm`, `apps`, `net`, `serve`, `sim`),
//! plus `data` (input generation) and `check` (oracle comparison).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call belongs to.
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    /// Thread track: 0 is the benchmark's main thread.
    pub tid: u32,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing main-thread span, if any.
    pub parent: Option<usize>,
}

/// In-memory span buffer for one traced run. Main-thread spans nest
/// through [`Recorder::span`]; client threads hand their spans back
/// through [`Recorder::absorb`].
pub struct Recorder {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorder's clock origin, for spans timed on other threads.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a main-thread span.
    pub fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                layer,
                name,
                tid: 0,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Adds spans recorded on another thread, parented to the innermost
    /// open main-thread span.
    pub fn absorb(&self, spans: Vec<Span>) {
        let parent = self.open.borrow().last().copied();
        self.spans
            .borrow_mut()
            .extend(spans.into_iter().map(|s| Span { parent, ..s }));
    }

    /// Main-thread self time per layer, in nanoseconds: each span's
    /// duration minus the part its direct main-thread children cover.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter().filter(|s| s.tid == 0) {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.tid == 0) {
            *out.entry(s.layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        out
    }

    /// Renders the per-layer table: self time and its share of
    /// `run_ns`, plus the total coverage.
    pub fn layer_table(&self, run_ns: u64) -> String {
        let by_layer = self.self_ns_by_layer();
        let run = run_ns.max(1) as f64;
        let mut out = format!("{:<10} {:>12} {:>10}\n", "layer", "self ms", "coverage");
        let mut total = 0u64;
        for (layer, ns) in &by_layer {
            total += ns;
            let _ = writeln!(
                out,
                "{layer:<10} {:>12.3} {:>9.2}%",
                *ns as f64 / 1e6,
                *ns as f64 / run * 100.0
            );
        }
        let _ = writeln!(
            out,
            "{:<10} {:>12.3} {:>9.2}%  of {:.3} ms run wall",
            "total",
            total as f64 / 1e6,
            total as f64 / run * 100.0,
            run / 1e6
        );
        out
    }

    /// Writes every span as Chrome/Perfetto `trace_event` JSON
    /// (complete events, microsecond timestamps).
    pub fn write_perfetto(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.layer,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let r = Recorder::new();
        r.span("apps", "outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            r.span("dsm", "inner", || {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let by = r.self_ns_by_layer();
        let outer = r.spans.borrow()[0].end_ns - r.spans.borrow()[0].start_ns;
        assert!(by["dsm"] >= 4_000_000);
        assert!(by["apps"] >= 2_000_000);
        assert_eq!(by["apps"] + by["dsm"], outer);
    }
}
