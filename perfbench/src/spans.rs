//! Spans around the benchmark's calls into the engines' public entry
//! points. Each traced op gets an op span carrying the op id; every call
//! made while it is open becomes its child. Spans stay in memory and are
//! written out once, when the run ends. Nothing is traced inside the
//! program itself.

use crate::stats::{self_times, Interval};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    on: bool,
    open_op: Option<usize>,
    list: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            on: false,
            open_op: None,
            list: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the op span for op `op`, recording only when `traced`.
    pub fn begin_op(&mut self, op: u64, traced: bool) {
        self.on = traced;
        if traced {
            let start = self.now();
            self.list.push(Span {
                name: "op",
                op,
                start,
                end: start,
                parent: None,
            });
            self.open_op = Some(self.list.len() - 1);
        }
    }

    pub fn end_op(&mut self) {
        if let Some(i) = self.open_op.take() {
            self.list[i].end = self.now();
        }
        self.on = false;
    }

    /// Run `f` as the public call `name`, recorded as a child of the open
    /// op span when tracing.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        let (parent, op) = match self.open_op {
            Some(i) => (Some(i), self.list[i].op),
            None => (None, 0),
        };
        self.list.push(Span {
            name,
            op,
            start,
            end,
            parent,
        });
        out
    }

    /// Self times in milliseconds, grouped by span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let intervals: Vec<Interval> = self
            .list
            .iter()
            .map(|s| Interval {
                start: s.start,
                end: s.end,
                parent: s.parent,
            })
            .collect();
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, self_ns) in self.list.iter().zip(self_times(&intervals)) {
            out.entry(s.name).or_default().push(self_ns as f64 / 1e6);
        }
        out
    }

    /// One JSON object per span: name, op id, start and end (ns since
    /// process start), and the parent's index in the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.start, s.end
            )?;
        }
        w.flush()
    }
}
