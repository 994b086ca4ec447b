//! In-memory spans recorded by the harness around its calls into a layer.
//!
//! Spans live in a thread-local vector and are written out when the run
//! ends. Nothing here reaches into the program under test: a span is opened
//! by bench code (the drivers, [`crate::media::MeteredMedia`], the network
//! seam) on the thread that makes the call, so parent/child nesting is the
//! call nesting. Recording is per thread, so a span opened on a thread that
//! never enabled it (the TCP server thread) costs one thread-local check.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// Spans written to the trace file; self times cover all of them.
pub const SPANS_WRITTEN: usize = 20_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `core.server.poll_once`.
    pub name: &'static str,
    /// Start, nanoseconds since recording was enabled.
    pub start_ns: u64,
    /// End, nanoseconds since recording was enabled.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request batch or DCM cycle this span belongs to.
    pub id: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    id: u64,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (drops anything recorded before).
pub fn enable() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
        })
    });
}

/// Stops recording and returns this thread's spans.
pub fn disable() -> Vec<SpanRec> {
    REC.with(|r| r.borrow_mut().take())
        .map(|rec| rec.spans)
        .unwrap_or_default()
}

/// Sets the request/cycle id stamped on spans opened from now on.
pub fn set_id(id: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.id = id;
        }
    });
}

/// Closes its span when dropped.
pub struct Guard(Option<u32>);

/// Opens a span that nests under whatever span is open on this thread.
pub fn span(name: &'static str) -> Guard {
    Guard(REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let now = rec.epoch.elapsed().as_nanos() as u64;
        let idx = rec.spans.len() as u32;
        rec.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent: rec.open.last().copied(),
            id: rec.id,
        });
        rec.open.push(idx);
        Some(idx)
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let now = rec.epoch.elapsed().as_nanos() as u64;
                if let Some(s) = rec.spans.get_mut(idx as usize) {
                    s.end_ns = now;
                }
                if let Some(pos) = rec.open.iter().rposition(|&i| i == idx) {
                    rec.open.truncate(pos);
                }
            }
        });
    }
}

/// Records an already-finished interval seen at a seam (the gap before a
/// snapshot write, a host leg between `connect` and the last `transmit`).
/// `parent` of `None` nests it under the span open on this thread.
/// Returns its index for use as a later `parent`.
pub fn closed(
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<u32>,
) -> Option<u32> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let rel = |t: Instant| t.saturating_duration_since(rec.epoch).as_nanos() as u64;
        let idx = rec.spans.len() as u32;
        rec.spans.push(SpanRec {
            name,
            start_ns: rel(start),
            end_ns: rel(end),
            parent: parent.or(rec.open.last().copied()),
            id: rec.id,
        });
        Some(idx)
    })
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the part their direct children cover.
    pub self_ns: u64,
}

/// A span's self time is its duration minus the time its direct children
/// cover; children are clipped to the parent so a seam interval that
/// started early cannot drive the result negative.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            child_ns[p as usize] += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// The layer a span name belongs to: everything before its last segment
/// (`db.wal.append` → `db.wal`).
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// The spans as the trace file lists them (the first [`SPANS_WRITTEN`]).
pub fn spans_json(spans: &[SpanRec]) -> Value {
    let listed: Vec<Value> = spans
        .iter()
        .take(SPANS_WRITTEN)
        .map(|s| {
            json!({
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                "id": s.id,
            })
        })
        .collect();
    json!({ "recorded": spans.len(), "listed": listed })
}

/// Self time by span name and by layer, in total and per operation
/// (`ops`: requests or cycles the spans cover).
pub fn self_time_json(spans: &[SpanRec], ops: u64) -> Value {
    let per_op = |ns: u64| ns as f64 / ops.max(1) as f64;
    let times = self_times(spans);
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    let mut by_name = BTreeMap::new();
    for (name, t) in &times {
        *layers.entry(layer_of(name)).or_default() += t.self_ns;
        by_name.insert(
            (*name).to_owned(),
            json!({
                "count": t.count,
                "total_ns": t.total_ns,
                "self_ns": t.self_ns,
                "self_ns_per_op": per_op(t.self_ns),
            }),
        );
    }
    let by_layer: BTreeMap<String, Value> = layers
        .into_iter()
        .map(|(layer, ns)| {
            (
                layer.to_owned(),
                json!({ "self_ns": ns, "self_ns_per_op": per_op(ns) }),
            )
        })
        .collect();
    json!({ "ops": ops, "by_span": Value::Object(by_name), "by_layer": Value::Object(by_layer) })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            rec("core.server.poll_once", 0, 100, None),
            rec("db.wal.append", 10, 30, Some(0)),
            rec("db.wal.fsync", 40, 90, Some(0)),
            rec("db.wal.inner", 45, 50, Some(2)), // grandchild: not subtracted from root
        ];
        let t = self_times(&spans);
        assert_eq!(t["core.server.poll_once"].self_ns, 100 - 20 - 50);
        assert_eq!(t["db.wal.fsync"].self_ns, 50 - 5);
        assert_eq!(t["db.wal.append"].self_ns, 20);
        let sum: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, 100, "self times of one tree add up to its root");
    }

    #[test]
    fn early_seam_child_is_clipped_to_its_parent() {
        let spans = vec![
            rec("core.server.poll_once", 50, 100, None),
            rec("db.snapshot.encode", 20, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)["core.server.poll_once"].self_ns, 20);
    }

    #[test]
    fn guards_nest_and_disabled_recording_is_silent() {
        assert!(disable().is_empty());
        {
            let _quiet = span("bench.never");
        }
        enable();
        set_id(7);
        {
            let _outer = span("bench.outer");
            let t0 = Instant::now();
            {
                let _inner = span("bench.inner");
            }
            closed("bench.seam", t0, Instant::now(), None);
        }
        let spans = disable();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            spans[2].parent,
            Some(0),
            "closed span nests under the open one"
        );
        assert!(spans.iter().all(|s| s.id == 7 && s.end_ns >= s.start_ns));
        assert!(disable().is_empty());
    }

    #[test]
    fn layer_is_the_name_without_its_last_segment() {
        assert_eq!(layer_of("db.wal.append"), "db.wal");
        assert_eq!(layer_of("krb"), "krb");
    }
}
