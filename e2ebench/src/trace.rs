//! In-memory span log of the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer, kept in memory while the run measures, and written once at the
//! end as a Chrome `trace_event` file. Every span carries its operation id
//! (one route, one MCTS search, one fit batch, ...) and the index of the
//! span that caused it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    /// Operation the span belongs to (spans of one request share it).
    pub op: u32,
    /// Index of the enclosing span in the log.
    pub parent: Option<u32>,
    /// Recording thread (0 = main, `1 + w` = generation worker `w`).
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a log.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span on the main thread; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, op: u32, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.push(SpanRec {
            name,
            op,
            parent,
            tid: 0,
            start_ns,
            end_ns: start_ns,
        })
    }

    pub fn end(&mut self, id: u32) {
        let t = self.now_ns();
        self.spans[id as usize].end_ns = t;
    }

    /// Appends a finished span (worker threads record theirs locally and
    /// hand them over in job order).
    pub fn push(&mut self, rec: SpanRec) -> u32 {
        self.spans.push(rec);
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (children may overlap when
    /// they ran on parallel workers, so their union is subtracted).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if b <= a {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes the log as a Chrome `trace_event` JSON file.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut s = String::with_capacity(self.spans.len() * 120 + 32);
        s.push_str("{\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = sp.parent.map_or(-1, i64::from);
            let _ = write!(
                s,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent}}}}}",
                sp.name,
                sp.tid,
                sp.start_ns as f64 / 1e3,
                sp.dur_ns() as f64 / 1e3,
                sp.op
            );
        }
        s.push_str("\n]}\n");
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            op: 0,
            parent,
            tid: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.push(rec("root", None, 0, 100));
        log.push(rec("a", Some(root), 10, 40));
        log.push(rec("b", Some(root), 30, 50)); // overlaps a
        log.push(rec("c", Some(root), 70, 80));
        assert_eq!(log.self_ns(), vec![100 - 40 - 10, 30, 20, 10]);
        let t = log.totals();
        assert_eq!(t["root"].self_ns, 50);
        assert_eq!(t["a"].count, 1);
    }
}
