//! In-memory spans recorded from outside the program, around the calls
//! into each layer. A span's *self* time (and self allocations) is its own
//! minus its children's. Spans are written out once, when the run ends, as
//! a Chrome trace-event file.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one request (or one probe repetition) share this.
    pub request_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-request totals of one span name: self wall and self allocations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfCost {
    pub ms: f64,
    pub allocs: f64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// `requests[request_id - 1]`: which op (or probe) the request repeats,
    /// and whether allocation counting was on while it ran.
    requests: Vec<(u32, bool)>,
}

impl Tracer {
    /// `capacity` spans are reserved up front so recording never allocates
    /// inside a measured span.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            requests: Vec::with_capacity(capacity),
        }
    }

    /// Starts a new request: later spans carry its id. Requests of one
    /// `group` repeat the same work (one op of the op list, or one probe),
    /// so their costs may be summarised by a median. A request either has
    /// its clocks read (counting off) or its allocations counted, never
    /// both: the counters would inflate the walls.
    pub fn next_request(&mut self, group: u32, counted: bool) {
        alloc::counting(counted);
        self.requests.push((group, counted));
    }

    /// Whether any span of this name has been recorded.
    pub fn covered(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span. `f` gets the tracer back to open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(
            self.spans.len() < self.spans.capacity(),
            "span capacity exhausted"
        );
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request_id: self.requests.len() as u32,
            name,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push(id);
        let heap = alloc::snapshot();
        let start = self.epoch.elapsed();
        let out = f(self);
        let end = self.epoch.elapsed();
        let heap_end = alloc::snapshot();
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        span.allocs = heap_end.allocs - heap.allocs;
        span.alloc_bytes = heap_end.bytes - heap.bytes;
        out
    }

    /// Self cost per span name and request: `name → request_id → cost`.
    fn self_costs(&self) -> BTreeMap<&'static str, BTreeMap<u32, SelfCost>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.dur_ns();
                child_allocs[parent as usize] += span.allocs;
            }
        }
        let mut out: BTreeMap<&'static str, BTreeMap<u32, SelfCost>> = BTreeMap::new();
        for span in &self.spans {
            let i = span.id as usize;
            let cost = out
                .entry(span.name)
                .or_default()
                .entry(span.request_id)
                .or_default();
            cost.ms += (span.dur_ns() - child_ns[i]) as f64 / 1e6;
            cost.allocs += (span.allocs - child_allocs[i]) as f64;
        }
        out
    }

    /// Per span name and group, the median over the group's requests of the
    /// self cost: `name → group → cost`. Walls come from the requests that
    /// ran with counting off, allocations from those that ran with it on.
    pub fn by_group(&self) -> BTreeMap<&'static str, BTreeMap<u32, SelfCost>> {
        let median = |values: &mut Vec<f64>| crate::timed::median(values);
        self.self_costs()
            .into_iter()
            .map(|(name, requests)| {
                let mut groups: BTreeMap<u32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
                for (request_id, cost) in requests {
                    let (group, counted) = self.requests[request_id as usize - 1];
                    let group = groups.entry(group).or_default();
                    if counted {
                        group.1.push(cost.allocs);
                    } else {
                        group.0.push(cost.ms);
                    }
                }
                let costs = groups
                    .into_iter()
                    .map(|(group, (mut ms, mut allocs))| {
                        let cost = SelfCost {
                            ms: median(&mut ms),
                            allocs: median(&mut allocs),
                        };
                        (group, cost)
                    })
                    .collect();
                (name, costs)
            })
            .collect()
    }

    /// Per group, the minimum over its uncounted requests of the time spans
    /// named `name` cover, children included.
    pub fn floor_total_ms(&self, name: &str) -> BTreeMap<u32, f64> {
        let mut per_request: BTreeMap<u32, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *per_request.entry(span.request_id).or_default() += span.dur_ns() as f64 / 1e6;
        }
        let mut floors: BTreeMap<u32, f64> = BTreeMap::new();
        for (request_id, ms) in per_request {
            let (group, counted) = self.requests[request_id as usize - 1];
            if !counted {
                let floor = floors.entry(group).or_insert(f64::INFINITY);
                *floor = floor.min(ms);
            }
        }
        floors
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto, speedscope): complete events, microsecond timestamps.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request_id\":{},\"allocs\":{},\"alloc_bytes\":{}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                parent,
                s.request_id,
                s.allocs,
                s.alloc_bytes,
                if i + 1 < self.spans.len() { ",\n" } else { "\n" },
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::new(8);
        for counted in [false, true] {
            tracer.next_request(7, counted);
            tracer.span("outer", |t| {
                t.span("inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
                t.span("inner", |_| std::hint::black_box(vec![0u8; 64]));
            });
        }
        let costs = tracer.self_costs();
        let (outer, inner) = (costs["outer"][&1], costs["inner"][&1]);
        assert!(inner.ms >= 5.0, "two inner spans sum: {inner:?}");
        assert!(outer.ms < 5.0, "outer keeps only its glue: {outer:?}");
        let spans = &tracer.spans;
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(tracer.covered("inner") && !tracer.covered("other"));
        // Walls from the uncounted request, allocations from the counted.
        let summary = tracer.by_group()["inner"][&7];
        assert_eq!(summary.ms, inner.ms);
        assert_eq!(summary.allocs, costs["inner"][&2].allocs);
        assert!(tracer.floor_total_ms("outer")[&7] >= 5.0);
        assert!(aig_mediator::json::parse(&tracer.to_chrome_json()).is_ok());
    }
}
