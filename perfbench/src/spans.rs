//! Spans for the traced run: one span per operation and one child per
//! layer call, recorded around the calls into the program, held in
//! memory and written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::alloc::AllocCount;

/// One finished or open span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The operation this span belongs to (the root span's index).
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: AllocCount,
}

/// Per-name totals derived from the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
    pub allocs: AllocCount,
}

/// The span store of one traced run.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    alloc_at_open: Vec<AllocCount>,
    current_op: usize,
}

impl Spans {
    pub fn with_capacity(n: usize) -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(n),
            alloc_at_open: Vec::with_capacity(n),
            current_op: 0,
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        if parent.is_none() {
            self.current_op = id;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.current_op,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs: AllocCount::default(),
        });
        self.alloc_at_open.push(AllocCount::now());
        id
    }

    /// Opens the root span of one operation.
    pub fn op(&mut self, name: &'static str) -> usize {
        self.open(name, None)
    }

    /// Runs `f` inside a child span of `parent`, charging it the time and
    /// the allocations `f` made.
    pub fn layer<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    pub fn close(&mut self, id: usize) {
        let allocs = AllocCount::now().since(self.alloc_at_open[id]);
        let span = &mut self.spans[id];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.allocs = allocs;
    }

    /// Per-name call counts, self times (a span minus its children) and
    /// allocations (likewise exclusive of children).
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![AllocCount::default(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
                child_allocs[p].add(s.allocs);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            t.allocs.add(s.allocs.since(child_allocs[i]));
        }
        out
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"op\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.allocs.count, s.allocs.bytes
            );
        }
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
        let mut spans = Spans::with_capacity(4);
        let op = spans.op("op");
        spans.layer(op, "child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.close(op);
        let totals = spans.totals();
        let op_t = totals["op"];
        let child = totals["child"];
        assert_eq!((op_t.calls, child.calls), (1, 1));
        assert!(child.self_ns >= 2_000_000);
        assert!(op_t.self_ns < child.self_ns);
        assert_eq!(spans.durations("child").len(), 1);
    }
}
