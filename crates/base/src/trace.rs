//! Cross-component trace analysis (§8.1 of the paper).
//!
//! Synchronized SimBricks simulations can produce detailed timestamped logs
//! in every component *without affecting simulated behaviour* (logging costs
//! wall-clock time only). The paper leverages this to debug the Corundum
//! throughput anomaly: PCI activity, NIC activity, and CPU activity are
//! traced separately and then *combined into an end-to-end view of the RPC
//! latency*. This module implements that combination step: it merges the
//! per-component [`EventLog`]s of a run into one named timeline and provides
//! latency-breakdown queries over it.

use std::collections::BTreeMap;
use std::fmt;

use crate::log::{EventLog, LogEntry};
use crate::time::SimTime;

/// One record of a merged, named trace: which component logged it, when, and
/// the tag/operands of the underlying [`LogEntry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Virtual time of the underlying log entry.
    pub time: SimTime,
    /// Name of the component that logged it.
    pub component: String,
    /// Static tag naming the event kind.
    pub tag: &'static str,
    /// First tag-dependent operand.
    pub a: u64,
    /// Second tag-dependent operand.
    pub b: u64,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>14} ps  {:<16} {:<14} {:>8} {:>8}",
            self.time.as_ps(),
            self.component,
            self.tag,
            self.a,
            self.b
        )
    }
}

/// Statistics of a set of observed latencies (all values in virtual time).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of latencies observed.
    pub count: u64,
    /// Sum of all observed latencies.
    pub total: SimTime,
    /// Smallest observed latency.
    pub min: SimTime,
    /// Largest observed latency.
    pub max: SimTime,
}

impl SpanStats {
    fn observe(&mut self, d: SimTime) {
        if self.count == 0 {
            self.min = d;
            self.max = d;
        } else {
            self.min = self.min.min(d);
            self.max = self.max.max(d);
        }
        self.count += 1;
        self.total += d;
    }

    /// Mean observed latency; zero when nothing was observed.
    pub fn mean(&self) -> SimTime {
        self.total
            .as_ps()
            .checked_div(self.count)
            .map_or(SimTime::ZERO, SimTime::from_ps)
    }
}

impl fmt::Display for SpanStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} min={} max={}",
            self.count,
            self.mean(),
            self.min,
            self.max
        )
    }
}

/// A phase of an end-to-end breakdown: an event with tag `tag` logged by the
/// component whose name contains `component` (substring match, so "client"
/// matches "client-host").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Substring matched against component names.
    pub component: String,
    /// Tag the matching entry must carry.
    pub tag: &'static str,
    /// Human-readable label used in reports.
    pub label: String,
}

impl Phase {
    /// Define a phase by component substring, tag, and report label.
    pub fn new(component: impl Into<String>, tag: &'static str, label: impl Into<String>) -> Self {
        Phase {
            component: component.into(),
            tag,
            label: label.into(),
        }
    }

    fn matches(&self, e: &TraceEntry) -> bool {
        e.tag == self.tag && e.component.contains(self.component.as_str())
    }
}

/// One segment of a completed [`Breakdown`]: the latency between two
/// consecutive phases, aggregated over every traversal found in the trace.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Label of the segment's starting phase.
    pub from: String,
    /// Label of the segment's ending phase.
    pub to: String,
    /// Latency statistics aggregated over all traversals.
    pub stats: SpanStats,
}

/// The result of [`Trace::breakdown`]: per-segment latency statistics plus
/// the end-to-end total, i.e. the "end-to-end view of the RPC latency" of
/// §8.1.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    /// Per-segment latency statistics, in phase order.
    pub segments: Vec<Segment>,
    /// Latency from the first to the last phase.
    pub end_to_end: SpanStats,
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.segments {
            writeln!(f, "{:<28} -> {:<28} {}", s.from, s.to, s.stats)?;
        }
        write!(f, "{:<60} {}", "end-to-end", self.end_to_end)
    }
}

/// A merged, named, time-ordered trace built from per-component event logs.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Merge per-component logs (as returned by the runner: parallel arrays
    /// of component names and event logs) into one global timeline. Entries
    /// are ordered by time; ties are broken by component position and then by
    /// log order, which keeps the merge deterministic.
    pub fn from_logs<S: AsRef<str>>(names: &[S], logs: &[EventLog]) -> Trace {
        let mut entries: Vec<(usize, usize, TraceEntry)> = Vec::new();
        for (ci, (name, log)) in names.iter().zip(logs.iter()).enumerate() {
            for (ei, e) in log.entries().iter().enumerate() {
                entries.push((
                    ci,
                    ei,
                    TraceEntry {
                        time: e.time,
                        component: name.as_ref().to_string(),
                        tag: e.tag,
                        a: e.a,
                        b: e.b,
                    },
                ));
            }
        }
        entries.sort_by(|(ca, ea, a), (cb, eb, b)| {
            a.time.cmp(&b.time).then(ca.cmp(cb)).then(ea.cmp(eb))
        });
        Trace {
            entries: entries.into_iter().map(|(_, _, e)| e).collect(),
        }
    }

    /// All merged entries, time-ordered.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of merged entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries within the half-open virtual-time window `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> Vec<&TraceEntry> {
        self.entries
            .iter()
            .filter(|e| e.time >= from && e.time < to)
            .collect()
    }

    /// Per-component, per-tag event counts — the first thing to look at when
    /// debugging a misbehaving configuration.
    pub fn activity_summary(&self) -> BTreeMap<(String, &'static str), u64> {
        let mut out = BTreeMap::new();
        for e in &self.entries {
            *out.entry((e.component.clone(), e.tag)).or_insert(0u64) += 1;
        }
        out
    }

    /// For every occurrence of `(from_component, from_tag)`, find the next
    /// later occurrence of `(to_component, to_tag)` and aggregate the
    /// latencies. Occurrences of the target are consumed, so back-to-back
    /// requests pair up one-to-one.
    pub fn span_between(&self, from: &Phase, to: &Phase) -> SpanStats {
        let mut stats = SpanStats::default();
        let mut to_idx = 0usize;
        for (i, e) in self.entries.iter().enumerate() {
            if !from.matches(e) {
                continue;
            }
            // Advance the target cursor to the first matching entry at or
            // after this source entry.
            if to_idx <= i {
                to_idx = i + 1;
            }
            while to_idx < self.entries.len() && !to.matches(&self.entries[to_idx]) {
                to_idx += 1;
            }
            if to_idx >= self.entries.len() {
                break;
            }
            stats.observe(self.entries[to_idx].time - e.time);
            to_idx += 1;
        }
        stats
    }

    /// Walk the trace through an ordered list of phases and report the mean /
    /// min / max latency of each consecutive segment, plus the end-to-end
    /// latency from the first to the last phase. Each traversal starts at an
    /// occurrence of the first phase and greedily consumes the next
    /// occurrence of each subsequent phase; incomplete traversals (e.g. the
    /// final request cut off by the end of the run) are dropped.
    pub fn breakdown(&self, phases: &[Phase]) -> Breakdown {
        let mut out = Breakdown::default();
        if phases.len() < 2 {
            return out;
        }
        let mut seg_stats = vec![SpanStats::default(); phases.len() - 1];
        let mut cursor = 0usize;
        // Walk every occurrence of the first phase.
        while let Some(start_idx) = self.entries[cursor..]
            .iter()
            .position(|e| phases[0].matches(e))
            .map(|p| p + cursor)
        {
            let mut times = Vec::with_capacity(phases.len());
            times.push(self.entries[start_idx].time);
            let mut idx = start_idx;
            let mut complete = true;
            for phase in &phases[1..] {
                let Some(next) = self.entries[idx + 1..]
                    .iter()
                    .position(|e| phase.matches(e))
                    .map(|p| p + idx + 1)
                else {
                    complete = false;
                    break;
                };
                times.push(self.entries[next].time);
                idx = next;
            }
            if !complete {
                break;
            }
            for (i, w) in times.windows(2).enumerate() {
                seg_stats[i].observe(w[1] - w[0]);
            }
            out.end_to_end.observe(*times.last().unwrap() - times[0]);
            // The next traversal starts after the first phase of this one so
            // overlapping (pipelined) requests are still counted once each.
            cursor = start_idx + 1;
        }
        out.segments = phases
            .windows(2)
            .zip(seg_stats)
            .map(|(pair, stats)| Segment {
                from: pair[0].label.clone(),
                to: pair[1].label.clone(),
                stats,
            })
            .collect();
        out
    }

    /// Render the first `limit` entries as a human-readable timeline.
    pub fn render(&self, limit: usize) -> String {
        let mut s = String::new();
        for e in self.entries.iter().take(limit) {
            s.push_str(&e.to_string());
            s.push('\n');
        }
        if self.entries.len() > limit {
            s.push_str(&format!(
                "... ({} more entries)\n",
                self.entries.len() - limit
            ));
        }
        s
    }
}

/// Convenience: build a [`Trace`] straight from `(name, log)` pairs.
impl<S: AsRef<str>> FromIterator<(S, EventLog)> for Trace {
    fn from_iter<T: IntoIterator<Item = (S, EventLog)>>(iter: T) -> Self {
        let (names, logs): (Vec<_>, Vec<_>) = iter.into_iter().unzip();
        Trace::from_logs(&names, &logs)
    }
}

/// Helper used by tests and harnesses that already hold raw entries.
pub fn trace_from_entries(entries: Vec<(SimTime, &str, &'static str, u64, u64)>) -> Trace {
    let mut by_component: BTreeMap<String, EventLog> = BTreeMap::new();
    for (t, c, tag, a, b) in entries {
        by_component
            .entry(c.to_string())
            .or_insert_with(EventLog::enabled)
            .record(t, tag, a, b);
    }
    let (names, logs): (Vec<_>, Vec<_>) = by_component.into_iter().unzip();
    Trace::from_logs(&names, &logs)
}

/// Re-export of the raw log entry type for harnesses that post-process logs
/// directly.
pub type RawLogEntry = LogEntry;

#[cfg(test)]
mod tests {
    use super::*;

    fn rpc_trace() -> Trace {
        // Two request/response cycles: client sends, server receives+replies,
        // client receives.
        trace_from_entries(vec![
            (SimTime::from_us(10), "client-host", "host_tx", 100, 0),
            (SimTime::from_us(11), "client-nic", "nic_tx", 100, 0),
            (SimTime::from_us(13), "server-nic", "nic_rx", 100, 0),
            (SimTime::from_us(14), "server-host", "host_irq", 1, 0),
            (SimTime::from_us(15), "server-host", "host_rx", 100, 0),
            (SimTime::from_us(18), "server-host", "host_tx", 100, 0),
            (SimTime::from_us(21), "client-host", "host_rx", 100, 0),
            // second cycle, a bit slower in the network
            (SimTime::from_us(30), "client-host", "host_tx", 100, 0),
            (SimTime::from_us(31), "client-nic", "nic_tx", 100, 0),
            (SimTime::from_us(35), "server-nic", "nic_rx", 100, 0),
            (SimTime::from_us(36), "server-host", "host_irq", 2, 0),
            (SimTime::from_us(37), "server-host", "host_rx", 100, 0),
            (SimTime::from_us(40), "server-host", "host_tx", 100, 0),
            (SimTime::from_us(45), "client-host", "host_rx", 100, 0),
        ])
    }

    #[test]
    fn merge_orders_by_time_and_is_deterministic() {
        let mut a = EventLog::enabled();
        a.record(SimTime::from_ns(30), "x", 1, 0);
        a.record(SimTime::from_ns(10), "x", 2, 0);
        let mut b = EventLog::enabled();
        b.record(SimTime::from_ns(10), "y", 3, 0);
        let t1 = Trace::from_logs(&["a", "b"], &[a.clone(), b.clone()]);
        let t2 = Trace::from_logs(&["a", "b"], &[a, b]);
        assert_eq!(t1.entries(), t2.entries());
        let times: Vec<u64> = t1.entries().iter().map(|e| e.time.as_ns()).collect();
        assert_eq!(times, vec![10, 10, 30]);
        // Tie at 10 ns: component "a" (earlier position) comes first.
        assert_eq!(t1.entries()[0].component, "a");
    }

    #[test]
    fn activity_summary_counts_per_component_and_tag() {
        let t = rpc_trace();
        let summary = t.activity_summary();
        assert_eq!(summary[&("client-host".to_string(), "host_tx")], 2);
        assert_eq!(summary[&("server-host".to_string(), "host_rx")], 2);
        assert_eq!(summary[&("server-host".to_string(), "host_irq")], 2);
        assert!(!summary.contains_key(&("client-nic".to_string(), "nic_rx")));
    }

    #[test]
    fn span_between_pairs_up_requests() {
        let t = rpc_trace();
        let s = t.span_between(
            &Phase::new("client-host", "host_tx", "client send"),
            &Phase::new("client-host", "host_rx", "client recv"),
        );
        assert_eq!(s.count, 2);
        assert_eq!(s.min, SimTime::from_us(11));
        assert_eq!(s.max, SimTime::from_us(15));
        assert_eq!(s.mean(), SimTime::from_us(13));
    }

    #[test]
    fn breakdown_reports_each_segment_and_end_to_end() {
        let t = rpc_trace();
        let phases = vec![
            Phase::new("client-host", "host_tx", "client TX"),
            Phase::new("server-nic", "nic_rx", "server NIC RX"),
            Phase::new("server-host", "host_rx", "server app RX"),
            Phase::new("client-host", "host_rx", "client app RX"),
        ];
        let b = t.breakdown(&phases);
        assert_eq!(b.segments.len(), 3);
        assert_eq!(b.end_to_end.count, 2);
        // network + NIC segment: 3 us then 5 us.
        assert_eq!(b.segments[0].stats.min, SimTime::from_us(3));
        assert_eq!(b.segments[0].stats.max, SimTime::from_us(5));
        // server processing segment: 2 us both times.
        assert_eq!(b.segments[1].stats.mean(), SimTime::from_us(2));
        // end-to-end mean of 11 and 15 us.
        assert_eq!(b.end_to_end.mean(), SimTime::from_us(13));
        // Display renders a line per segment plus the total.
        let text = b.to_string();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("end-to-end"));
    }

    #[test]
    fn breakdown_with_too_few_phases_is_empty() {
        let t = rpc_trace();
        let b = t.breakdown(&[Phase::new("client-host", "host_tx", "only")]);
        assert!(b.segments.is_empty());
        assert_eq!(b.end_to_end.count, 0);
    }

    #[test]
    fn incomplete_final_traversal_is_dropped() {
        let t = trace_from_entries(vec![
            (SimTime::from_us(1), "c", "host_tx", 0, 0),
            (SimTime::from_us(2), "c", "host_rx", 0, 0),
            // a trailing request whose response never arrived
            (SimTime::from_us(3), "c", "host_tx", 0, 0),
        ]);
        let b = t.breakdown(&[
            Phase::new("c", "host_tx", "tx"),
            Phase::new("c", "host_rx", "rx"),
        ]);
        assert_eq!(b.end_to_end.count, 1);
        assert_eq!(b.end_to_end.mean(), SimTime::from_us(1));
    }

    #[test]
    fn window_and_render() {
        let t = rpc_trace();
        let w = t.window(SimTime::from_us(10), SimTime::from_us(14));
        assert_eq!(w.len(), 3);
        let rendered = t.render(5);
        assert_eq!(rendered.lines().count(), 6, "5 entries + continuation line");
        assert!(rendered.contains("more entries"));
        let all = t.render(1000);
        assert_eq!(all.lines().count(), t.len());
    }

    #[test]
    fn span_stats_observation_math() {
        let mut s = SpanStats::default();
        assert_eq!(s.mean(), SimTime::ZERO);
        s.observe(SimTime::from_ns(10));
        s.observe(SimTime::from_ns(30));
        assert_eq!(s.count, 2);
        assert_eq!(s.min, SimTime::from_ns(10));
        assert_eq!(s.max, SimTime::from_ns(30));
        assert_eq!(s.mean(), SimTime::from_ns(20));
        assert!(s.to_string().contains("n=2"));
    }

    #[test]
    fn from_iterator_of_named_logs() {
        let mut a = EventLog::enabled();
        a.record(SimTime::from_ns(5), "t", 0, 0);
        let t: Trace = vec![("comp-a", a)].into_iter().collect();
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries()[0].component, "comp-a");
    }

    #[test]
    fn phase_component_substring_matching() {
        let p = Phase::new("client", "host_tx", "tx");
        let e = TraceEntry {
            time: SimTime::ZERO,
            component: "client-host-3".into(),
            tag: "host_tx",
            a: 0,
            b: 0,
        };
        assert!(p.matches(&e));
        let other = TraceEntry {
            component: "server-host".into(),
            ..e.clone()
        };
        assert!(!p.matches(&other));
        let wrong_tag = TraceEntry {
            tag: "host_rx",
            ..e
        };
        assert!(!p.matches(&wrong_tag));
    }
}
