//! In-memory spans recorded by the runner around its calls into each
//! layer, and the self-time arithmetic that turns them into per-layer
//! totals.
//!
//! A span is `(name, start, end, parent, op)`. Names are
//! `layer.stage` (`codegen.isel`, `verify.gate_ir`, ...). A span's self time is its duration
//! minus the part of its interval that its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The op (program, module or request) the span belongs to.
    pub op: u32,
}

/// Span recorder. A disabled tracer records nothing and adds one branch
/// per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<SpanId>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer::with_epoch(on, Instant::now())
    }

    /// A tracer whose times count from `epoch`, so tracers on several
    /// threads can be merged with [`Tracer::absorb`].
    pub fn with_epoch(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&self, name: &'static str, op: u32) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.now();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let parent = self.open.borrow().last().copied();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.borrow_mut().push(id);
        Some(id)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_ns = self.now();
            self.spans.borrow_mut()[id].end_ns = end_ns;
            let popped = self.open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Record a closed child of `parent` whose duration is known but
    /// whose position is not: it is placed to end at `end_ns`.
    pub fn child_ending_at(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        dur_ns: u64,
        end_ns: u64,
    ) -> Option<SpanId> {
        let parent = parent?;
        let mut spans = self.spans.borrow_mut();
        let op = spans[parent].op;
        let start_ns = end_ns.saturating_sub(dur_ns).max(spans[parent].start_ns);
        let id = spans.len();
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op,
        });
        Some(id)
    }

    /// Copy of a recorded span.
    pub fn get(&self, id: SpanId) -> Span {
        self.spans.borrow()[id].clone()
    }

    /// Start of the first child of `parent` named `name`.
    pub fn child_start(&self, parent: SpanId, name: &str) -> Option<u64> {
        self.spans
            .borrow()
            .iter()
            .skip(parent + 1)
            .find(|s| s.parent == Some(parent) && s.name == name)
            .map(|s| s.start_ns)
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans recorded since index `from`, with parents re-based so the
    /// slice stands alone.
    pub fn since(&self, from: usize) -> Vec<Span> {
        self.spans.borrow()[from..]
            .iter()
            .map(|s| Span {
                parent: s.parent.and_then(|p| p.checked_sub(from)),
                ..s.clone()
            })
            .collect()
    }

    /// Append spans taken from another tracer with the same epoch.
    pub fn absorb(&self, spans: Vec<Span>) {
        let mut mine = self.spans.borrow_mut();
        let base = mine.len();
        mine.extend(spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Append every span as one tab-separated line
    /// (`name start_ns end_ns parent op`, parent `-` for roots).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name\tstart_ns\tend_ns\tparent\top")?;
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Wall time covered by root spans (spans without a parent).
pub fn root_wall_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}
