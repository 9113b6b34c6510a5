//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (around the public calls into a layer), never from inside the
//! program. Every span has a name, a start, an end and the span that
//! caused it. They aggregate per name — count, total, and a log2
//! histogram with eight linear sub-buckets per octave — and the first
//! [`RAW_SPAN_CAP`] are also kept raw. Nothing is written until the run
//! is over ([`Tracer::to_json`]).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sfs_trace::json::obj;
use sfs_trace::Json;

/// Raw spans kept verbatim per trace, in completion order.
pub const RAW_SPAN_CAP: usize = 50_000;

const SUB_BUCKETS: usize = 8;
const OCTAVES: usize = 40;

/// Identifies a recorded span; `SpanId(0)` is "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The root: a span nothing caused.
    pub const ROOT: SpanId = SpanId(0);
}

/// One span, verbatim.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    /// The span's name.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
}

/// Per-name aggregate: count, total and a duration histogram.
#[derive(Debug, Clone)]
pub struct SpanAgg {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub sum_ns: u64,
    /// The longest one.
    pub max_ns: u64,
    hist: Vec<u64>,
}

impl Default for SpanAgg {
    fn default() -> SpanAgg {
        SpanAgg {
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            hist: vec![0; OCTAVES * SUB_BUCKETS],
        }
    }
}

/// Histogram slot of a duration: the octave of its highest set bit,
/// split into eight equal sub-ranges (≈ 9 % resolution).
fn slot_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros() as usize; // ≥ 3
    let sub = ((ns >> (octave - 3)) & 7) as usize;
    ((octave - 2) * SUB_BUCKETS + sub).min(OCTAVES * SUB_BUCKETS - 1)
}

/// The upper edge of a slot, the value percentiles report.
fn slot_upper(slot: usize) -> u64 {
    if slot < SUB_BUCKETS {
        return slot as u64;
    }
    let octave = slot / SUB_BUCKETS + 2;
    let sub = (slot % SUB_BUCKETS) as u64;
    ((8 + sub + 1) << (octave - 3)) - 1
}

impl SpanAgg {
    /// Adds one span of `ns`.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.hist[slot_of(ns)] += 1;
    }

    /// Folds another aggregate in.
    pub fn merge(&mut self, o: &SpanAgg) {
        self.count += o.count;
        self.sum_ns += o.sum_ns;
        self.max_ns = self.max_ns.max(o.max_ns);
        for (a, b) in self.hist.iter_mut().zip(&o.hist) {
            *a += b;
        }
    }

    /// Mean duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (0–100) from the histogram: the upper edge
    /// of the slot holding that rank, capped at the observed maximum.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (slot, &n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return slot_upper(slot).min(self.max_ns) as f64;
            }
        }
        self.max_ns as f64
    }

    fn to_json(&self) -> Json {
        // Sparse histogram: only occupied slots, as [upper_edge_ns, count].
        let hist = self
            .hist
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(slot, &n)| {
                Json::Arr(vec![
                    Json::Int(i128::from(slot_upper(slot))),
                    Json::Int(i128::from(n)),
                ])
            })
            .collect();
        obj(vec![
            ("count", Json::Int(i128::from(self.count))),
            ("sum_ns", Json::Int(i128::from(self.sum_ns))),
            ("max_ns", Json::Int(i128::from(self.max_ns))),
            ("p50_ns", Json::Num(self.percentile_ns(50.0))),
            ("p99_ns", Json::Num(self.percentile_ns(99.0))),
            ("hist", Json::Arr(hist)),
        ])
    }
}

#[derive(Default)]
struct Store {
    aggs: BTreeMap<&'static str, SpanAgg>,
    counts: BTreeMap<&'static str, u64>,
    raw: Vec<RawSpan>,
    next_id: u32,
}

/// A cloneable handle onto one trace. Layer-boundary spans (a handful
/// per run) go straight through the mutex; the per-call scheduler spans
/// are batched by [`crate::timed::TimedScheduler`] and merged once.
#[derive(Clone)]
pub struct Tracer {
    store: Arc<Mutex<Store>>,
    epoch: Instant,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// An open span; closes (and records itself) on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    parent: SpanId,
    id: SpanId,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// This span's id, to parent child spans under it.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        let raw = RawSpan {
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            parent: self.parent,
        };
        let mut st = self.tracer.lock();
        st.aggs
            .entry(self.name)
            .or_default()
            .record(end_ns - self.start_ns);
        if st.raw.len() < RAW_SPAN_CAP {
            st.raw.push(raw);
        }
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            store: Arc::new(Mutex::new(Store::default())),
            epoch: Instant::now(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        // A poisoned store only means a traced task panicked; the
        // aggregates are plain counters and stay valid at every step.
        self.store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Nanoseconds since the trace began.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span caused by `parent`; it closes when the guard drops.
    pub fn span(&self, name: &'static str, parent: SpanId) -> SpanGuard<'_> {
        let id = {
            let mut st = self.lock();
            st.next_id += 1;
            SpanId(st.next_id)
        };
        SpanGuard {
            tracer: self,
            name,
            parent,
            id,
            start_ns: self.now_ns(),
        }
    }

    /// Folds a batch of locally aggregated spans in (the scheduler
    /// decorator's flush).
    pub fn merge(&self, aggs: &[(&'static str, SpanAgg)], raw: &[RawSpan]) {
        let mut st = self.lock();
        for (name, agg) in aggs {
            if agg.count > 0 {
                st.aggs.entry(name).or_default().merge(agg);
            }
        }
        let room = RAW_SPAN_CAP.saturating_sub(st.raw.len());
        st.raw.extend_from_slice(&raw[..raw.len().min(room)]);
    }

    /// Adds `n` to the count kept under `name` (work done at a layer
    /// boundary that is not a duration: tasks per batched call).
    pub fn count(&self, name: &'static str, n: u64) {
        *self.lock().counts.entry(name).or_default() += n;
    }

    /// The count kept under `name` (0 if none).
    pub fn counted(&self, name: &str) -> u64 {
        self.lock().counts.get(name).copied().unwrap_or(0)
    }

    /// The aggregate recorded under `name`, if any.
    pub fn agg(&self, name: &str) -> Option<SpanAgg> {
        self.lock().aggs.get(name).cloned()
    }

    /// Total nanoseconds recorded under `name` (0 if none).
    pub fn sum_ns(&self, name: &str) -> u64 {
        self.agg(name).map_or(0, |a| a.sum_ns)
    }

    /// Total nanoseconds over every span whose name starts with `prefix`.
    pub fn sum_ns_prefixed(&self, prefix: &str) -> u64 {
        self.lock()
            .aggs
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, a)| a.sum_ns)
            .sum()
    }

    /// The whole trace: per-name aggregates plus the raw spans kept.
    pub fn to_json(&self) -> Json {
        let st = self.lock();
        let aggs = st
            .aggs
            .iter()
            .map(|(name, a)| ((*name).to_string(), a.to_json()))
            .collect();
        let raw = st
            .raw
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.to_string()),
                    Json::Int(i128::from(s.start_ns)),
                    Json::Int(i128::from(s.end_ns)),
                    Json::Int(i128::from(s.parent.0)),
                ])
            })
            .collect();
        let counts = st
            .counts
            .iter()
            .map(|(name, &n)| ((*name).to_string(), Json::Int(i128::from(n))))
            .collect();
        obj(vec![
            ("spans", Json::Obj(aggs)),
            ("counts", Json::Obj(counts)),
            (
                "raw_fields",
                Json::Str("name,start_ns,end_ns,parent".into()),
            ),
            ("raw", Json::Arr(raw)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_monotone_and_edges_bracket_values() {
        let mut last = 0usize;
        for ns in [0u64, 1, 7, 8, 9, 15, 16, 100, 1_000, 65_535, 1 << 30] {
            let s = slot_of(ns);
            assert!(s >= last, "slot order broke at {ns}");
            assert!(slot_upper(s) >= ns, "upper edge below value at {ns}");
            last = s;
        }
        // Resolution: an octave splits in eight, so the edge is within
        // 12.5 % of any value in the slot.
        for ns in [100u64, 999, 12_345, 1_000_000] {
            let up = slot_upper(slot_of(ns));
            assert!((up - ns) as f64 / ns as f64 <= 0.125, "{ns} -> {up}");
        }
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let mut a = SpanAgg::default();
        for ns in 1..=1000u64 {
            a.record(ns);
        }
        assert_eq!(a.count, 1000);
        assert_eq!(a.sum_ns, 500_500);
        let p50 = a.percentile_ns(50.0);
        assert!((450.0..=575.0).contains(&p50), "{p50}");
        let p99 = a.percentile_ns(99.0);
        assert!((960.0..=1000.0).contains(&p99), "{p99}");
        assert_eq!(a.percentile_ns(100.0), 1000.0);
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let t = Tracer::new();
        {
            let outer = t.span("outer", SpanId::ROOT);
            let _inner = t.span("inner", outer.id());
        }
        assert_eq!(t.agg("outer").unwrap().count, 1);
        assert_eq!(t.agg("inner").unwrap().count, 1);
        assert!(t.sum_ns("outer") >= t.sum_ns("inner"));
        let json = t.to_json();
        let raw = json.get("raw").unwrap().as_arr().unwrap();
        assert_eq!(raw.len(), 2);
        // The inner span closed first and names the outer one as parent.
        assert_eq!(raw[0].as_arr().unwrap()[0].as_str(), Some("inner"));
        assert_eq!(raw[0].as_arr().unwrap()[3].as_u64(), Some(1));
    }

    #[test]
    fn merge_respects_the_raw_cap() {
        let t = Tracer::new();
        let raw = vec![
            RawSpan {
                name: "x",
                start_ns: 0,
                end_ns: 1,
                parent: SpanId::ROOT,
            };
            RAW_SPAN_CAP + 10
        ];
        let mut agg = SpanAgg::default();
        agg.record(5);
        t.merge(&[("x", agg)], &raw);
        assert_eq!(t.agg("x").unwrap().count, 1);
        let kept = t.to_json();
        assert_eq!(
            kept.get("raw").unwrap().as_arr().unwrap().len(),
            RAW_SPAN_CAP
        );
    }
}
