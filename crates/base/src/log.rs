//! Timestamped event logging.
//!
//! SimBricks simulations are *transparent* (§4.1): component simulators can
//! record detailed, timestamped logs of their behaviour without perturbing
//! the simulation (logging happens in wall-clock time, virtual time is
//! unaffected). The logs are also how the paper demonstrates accuracy (§7.5:
//! a decomposed simulation produces the identical log as a monolithic one)
//! and determinism (§7.6: repeated runs produce bit-identical logs).

use std::fmt;

use crate::snap::{SnapReader, SnapResult, SnapWriter, Snapshot};
use crate::time::SimTime;

/// Intern a log tag decoded from a wire or snapshot encoding. [`EventLog`]
/// records tags as `&'static str`; the set of distinct tags in a simulation
/// is small and fixed, so leaking one copy per unique tag is bounded (and
/// repeated decodes reuse the already-interned copy).
pub fn intern_tag(tag: &str) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static TAGS: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut tags = TAGS.get_or_init(|| Mutex::new(Vec::new())).lock().unwrap();
    if let Some(t) = tags.iter().find(|t| **t == tag) {
        return t;
    }
    let leaked: &'static str = Box::leak(tag.to_string().into_boxed_str());
    tags.push(leaked);
    leaked
}

/// One log record: virtual time, a static tag, and two numeric operands whose
/// meaning depends on the tag (e.g. packet length and flow id).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// Virtual time at which the entry was recorded.
    pub time: SimTime,
    /// Static tag naming the event kind (e.g. `"nic_tx"`).
    pub tag: &'static str,
    /// First tag-dependent operand.
    pub a: u64,
    /// Second tag-dependent operand.
    pub b: u64,
}

impl fmt::Display for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {}",
            self.time.as_ps(),
            self.tag,
            self.a,
            self.b
        )
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn mix_u64(mut h: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for byte in bytes {
        h ^= *byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn mix_entry(mut h: u64, e: &LogEntry) -> u64 {
    h = mix_u64(h, e.time.as_ps());
    h = mix_bytes(h, e.tag.as_bytes());
    h = mix_u64(h, e.a);
    mix_u64(h, e.b)
}

/// Per-epoch FNV accumulator for the fingerprint-only log mode. Epoch `i`
/// covers virtual times `[i * epoch_ps, (i + 1) * epoch_ps)`; each sealed
/// epoch's value is exactly [`EventLog::fingerprint`] of a materialized log
/// holding that epoch's entries.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FpOnly {
    /// Epoch length in picoseconds (always > 0).
    epoch_ps: u64,
    /// Finalized fingerprints of epochs `0..sealed.len()`.
    sealed: Vec<u64>,
    /// Running hash of the current (unsealed) epoch, `sealed.len()`.
    cur_hash: u64,
    /// Entries mixed into the current epoch so far.
    cur_len: u64,
    /// Total entries recorded across all epochs.
    total: u64,
}

impl FpOnly {
    fn new(epoch_ps: u64) -> Self {
        assert!(epoch_ps > 0, "fingerprint epoch must be non-zero");
        FpOnly {
            epoch_ps,
            sealed: Vec::new(),
            cur_hash: FNV_OFFSET,
            cur_len: 0,
            total: 0,
        }
    }

    fn record(&mut self, e: &LogEntry) {
        let epoch = e.time.as_ps() / self.epoch_ps;
        let cur = self.sealed.len() as u64;
        debug_assert!(epoch >= cur, "log time moved backwards across epochs");
        while (self.sealed.len() as u64) < epoch {
            let fp = mix_u64(self.cur_hash, self.cur_len);
            self.sealed.push(fp);
            self.cur_hash = FNV_OFFSET;
            self.cur_len = 0;
        }
        self.cur_hash = mix_entry(self.cur_hash, e);
        self.cur_len += 1;
        self.total += 1;
    }

    /// Sealed epochs plus the current one, padded with empty-epoch
    /// fingerprints to at least `epochs` entries.
    fn fingerprints(&self, epochs: usize) -> Vec<u64> {
        let mut out = self.sealed.clone();
        out.push(mix_u64(self.cur_hash, self.cur_len));
        while out.len() < epochs {
            out.push(EventLog::EMPTY_EPOCH_FP);
        }
        out
    }
}

/// An append-only, per-component event log.
///
/// Two recording modes:
///
/// * **Materialized** (default): every entry is kept; [`EventLog::entries`]
///   exposes them and [`EventLog::fingerprint`] hashes them.
/// * **Fingerprint-only** ([`EventLog::fingerprint_only`]): entries are
///   folded into bounded per-epoch FNV-1a accumulators as they arrive and
///   never stored — O(epochs) memory regardless of run length. The replay
///   bisector uses this mode to compare long runs without materializing
///   their logs.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    enabled: bool,
    entries: Vec<LogEntry>,
    /// `Some` iff the log is in fingerprint-only mode (then `entries` stays
    /// empty and all recording goes through the accumulator).
    fp: Option<FpOnly>,
}

impl EventLog {
    /// Fingerprint of an epoch with no entries (FNV offset with a zero
    /// length mixed in) — what [`EventLog::fingerprint`] returns for an
    /// empty log.
    pub const EMPTY_EPOCH_FP: u64 = {
        // const-fold mix_u64(FNV_OFFSET, 0): eight zero bytes.
        let mut h = FNV_OFFSET;
        let mut i = 0;
        while i < 8 {
            h = h.wrapping_mul(FNV_PRIME);
            i += 1;
        }
        h
    };

    /// A log that records entries.
    pub fn enabled() -> Self {
        EventLog {
            enabled: true,
            entries: Vec::new(),
            fp: None,
        }
    }

    /// A log that drops everything (the default, so logging can stay in the
    /// code without cost concerns).
    pub fn disabled() -> Self {
        EventLog {
            enabled: false,
            entries: Vec::new(),
            fp: None,
        }
    }

    /// A log in fingerprint-only mode: entries are folded into per-epoch
    /// FNV accumulators (epoch `i` covers `[i*epoch, (i+1)*epoch)`) and not
    /// materialized. `epoch` must be non-zero.
    pub fn fingerprint_only(epoch: SimTime) -> Self {
        EventLog {
            enabled: true,
            entries: Vec::new(),
            fp: Some(FpOnly::new(epoch.as_ps())),
        }
    }

    /// Whether this log records entries.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether this log is in fingerprint-only mode.
    pub fn is_fingerprint_only(&self) -> bool {
        self.fp.is_some()
    }

    /// The epoch length, when in fingerprint-only mode.
    pub fn fingerprint_epoch(&self) -> Option<SimTime> {
        self.fp.as_ref().map(|f| SimTime::from_ps(f.epoch_ps))
    }

    /// Convert this log to fingerprint-only mode in place: existing entries
    /// are folded into the per-epoch accumulators (in recording order) and
    /// dropped. A no-op if already fingerprint-only with the same epoch;
    /// panics on an epoch mismatch.
    pub fn to_fingerprint_only(&mut self, epoch: SimTime) {
        if let Some(fp) = &self.fp {
            assert_eq!(
                fp.epoch_ps,
                epoch.as_ps(),
                "log already fingerprint-only with a different epoch"
            );
            return;
        }
        let mut fp = FpOnly::new(epoch.as_ps());
        for e in &self.entries {
            fp.record(e);
        }
        self.entries = Vec::new();
        self.fp = Some(fp);
    }

    /// Append an entry (no-op when the log is disabled).
    #[inline]
    pub fn record(&mut self, time: SimTime, tag: &'static str, a: u64, b: u64) {
        if !self.enabled {
            return;
        }
        let e = LogEntry { time, tag, a, b };
        match &mut self.fp {
            Some(fp) => fp.record(&e),
            None => self.entries.push(e),
        }
    }

    /// All recorded entries, in recording order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of materialized entries (always 0 in fingerprint-only mode;
    /// see [`EventLog::recorded`] for the mode-independent count).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total entries recorded, in either mode.
    pub fn recorded(&self) -> u64 {
        match &self.fp {
            Some(fp) => fp.total,
            None => self.entries.len() as u64,
        }
    }

    /// Whether nothing has been materialized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keep only entries with the given tag (useful when comparing the
    /// network-visible part of two configurations in §7.5).
    pub fn filtered(&self, tag: &str) -> Vec<LogEntry> {
        self.entries
            .iter()
            .copied()
            .filter(|e| e.tag == tag)
            .collect()
    }

    /// Order-independent-free, content-sensitive fingerprint (FNV-1a over all
    /// entries, in order). Two logs are considered identical iff their
    /// fingerprints and lengths match. Computed over the materialized entries
    /// only — fingerprint-only logs expose per-epoch fingerprints via
    /// [`EventLog::epoch_fingerprints`] instead.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for e in &self.entries {
            h = mix_entry(h, e);
        }
        mix_u64(h, self.entries.len() as u64)
    }

    /// Per-epoch fingerprints: element `i` equals [`EventLog::fingerprint`]
    /// of a materialized log holding exactly the entries with
    /// `time in [i*epoch, (i+1)*epoch)`. The result is padded with
    /// [`EventLog::EMPTY_EPOCH_FP`] to at least `epochs` elements so two
    /// logs of the same run length compare index-by-index.
    ///
    /// Works in both modes; returns `None` when the log is fingerprint-only
    /// with a *different* epoch length (the accumulators cannot be re-bucketed).
    pub fn epoch_fingerprints(&self, epoch: SimTime, epochs: usize) -> Option<Vec<u64>> {
        assert!(epoch > SimTime::ZERO, "fingerprint epoch must be non-zero");
        if let Some(fp) = &self.fp {
            if fp.epoch_ps != epoch.as_ps() {
                return None;
            }
            return Some(fp.fingerprints(epochs));
        }
        let mut fp = FpOnly::new(epoch.as_ps());
        for e in &self.entries {
            fp.record(e);
        }
        Some(fp.fingerprints(epochs))
    }

    /// Merge several component logs into one global, time-sorted trace. Ties
    /// are broken by the order the logs are supplied in, then entry order,
    /// keeping the merge deterministic.
    pub fn merge(logs: &[&EventLog]) -> EventLog {
        let mut all: Vec<(usize, usize, LogEntry)> = Vec::new();
        for (li, l) in logs.iter().enumerate() {
            for (ei, e) in l.entries.iter().enumerate() {
                all.push((li, ei, *e));
            }
        }
        all.sort_by(|(la, ea, a), (lb, eb, b)| {
            a.time.cmp(&b.time).then(la.cmp(lb)).then(ea.cmp(eb))
        });
        EventLog {
            enabled: true,
            entries: all.into_iter().map(|(_, _, e)| e).collect(),
            fp: None,
        }
    }
}

impl Snapshot for EventLog {
    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        match &self.fp {
            None => {
                w.u8(0); // mode tag: materialized
                w.bool(self.enabled);
                w.usize(self.entries.len());
                for e in &self.entries {
                    w.time(e.time);
                    w.str(e.tag);
                    w.u64(e.a);
                    w.u64(e.b);
                }
            }
            Some(fp) => {
                w.u8(1); // mode tag: fingerprint-only
                w.bool(self.enabled);
                w.u64(fp.epoch_ps);
                w.usize(fp.sealed.len());
                for s in &fp.sealed {
                    w.u64(*s);
                }
                w.u64(fp.cur_hash);
                w.u64(fp.cur_len);
                w.u64(fp.total);
            }
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        let mode = r.u8()?;
        match mode {
            0 => {
                self.enabled = r.bool()?;
                let n = r.usize()?;
                self.entries = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let time = r.time()?;
                    let tag = intern_tag(&r.str()?);
                    let a = r.u64()?;
                    let b = r.u64()?;
                    self.entries.push(LogEntry { time, tag, a, b });
                }
                self.fp = None;
            }
            1 => {
                self.enabled = r.bool()?;
                let epoch_ps = r.u64()?;
                if epoch_ps == 0 {
                    return Err(crate::snap::SnapError::Corrupt(
                        "fingerprint-only event log with zero epoch".into(),
                    ));
                }
                let n = r.usize()?;
                let mut sealed = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    sealed.push(r.u64()?);
                }
                let cur_hash = r.u64()?;
                let cur_len = r.u64()?;
                let total = r.u64()?;
                self.entries = Vec::new();
                self.fp = Some(FpOnly {
                    epoch_ps,
                    sealed,
                    cur_hash,
                    cur_len,
                    total,
                });
            }
            other => {
                return Err(crate::snap::SnapError::Corrupt(format!(
                    "unknown event log mode tag {other}"
                )))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip_preserves_entries_and_fingerprint() {
        let mut l = EventLog::enabled();
        for i in 0..50u64 {
            l.record(SimTime::from_ns(i), "pkt", i, i * 3);
        }
        let mut w = SnapWriter::new();
        l.snapshot(&mut w).unwrap();
        let buf = w.into_vec();
        let mut back = EventLog::disabled();
        back.restore(&mut SnapReader::new(&buf)).unwrap();
        assert!(back.is_enabled());
        assert_eq!(back.entries(), l.entries());
        assert_eq!(back.fingerprint(), l.fingerprint());
    }

    #[test]
    fn intern_tag_reuses_identical_tags() {
        let a = intern_tag("checkpoint-test-tag");
        let b = intern_tag("checkpoint-test-tag");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut l = EventLog::disabled();
        l.record(SimTime::from_ns(1), "tx", 1, 2);
        assert!(l.is_empty());
        assert!(!l.is_enabled());
    }

    #[test]
    fn enabled_log_records_in_order() {
        let mut l = EventLog::enabled();
        l.record(SimTime::from_ns(1), "tx", 100, 0);
        l.record(SimTime::from_ns(2), "rx", 100, 0);
        assert_eq!(l.len(), 2);
        assert_eq!(l.entries()[0].tag, "tx");
        assert_eq!(l.entries()[1].time, SimTime::from_ns(2));
    }

    #[test]
    fn fingerprint_detects_differences() {
        let mut a = EventLog::enabled();
        let mut b = EventLog::enabled();
        for i in 0..100u64 {
            a.record(SimTime::from_ns(i), "pkt", i, i * 2);
            b.record(SimTime::from_ns(i), "pkt", i, i * 2);
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.record(SimTime::from_ns(100), "pkt", 1, 1);
        assert_ne!(a.fingerprint(), b.fingerprint());

        let mut c = EventLog::enabled();
        for i in 0..100u64 {
            let v = if i == 50 { 999 } else { i };
            c.record(SimTime::from_ns(i), "pkt", v, i * 2);
        }
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn filtered_selects_tag() {
        let mut l = EventLog::enabled();
        l.record(SimTime::from_ns(1), "tx", 0, 0);
        l.record(SimTime::from_ns(2), "rx", 0, 0);
        l.record(SimTime::from_ns(3), "tx", 1, 0);
        assert_eq!(l.filtered("tx").len(), 2);
        assert_eq!(l.filtered("rx").len(), 1);
        assert_eq!(l.filtered("other").len(), 0);
    }

    /// Reference per-epoch fingerprints: slice the entries into epoch
    /// windows and fingerprint each window as its own materialized log.
    fn reference_epoch_fps(entries: &[LogEntry], epoch: SimTime, epochs: usize) -> Vec<u64> {
        let need = entries
            .iter()
            .map(|e| (e.time.as_ps() / epoch.as_ps()) as usize + 1)
            .max()
            .unwrap_or(0)
            .max(epochs);
        (0..need)
            .map(|i| {
                let mut l = EventLog::enabled();
                for e in entries {
                    if e.time.as_ps() / epoch.as_ps() == i as u64 {
                        l.record(e.time, e.tag, e.a, e.b);
                    }
                }
                l.fingerprint()
            })
            .collect()
    }

    #[test]
    fn fingerprint_only_matches_materialized_per_epoch() {
        let epoch = SimTime::from_ns(10);
        // Entries spread over epochs 0, 0, 2, 5 — with empty epochs between.
        let mut full = EventLog::enabled();
        let mut fp = EventLog::fingerprint_only(epoch);
        for (t, a) in [(1u64, 7u64), (9, 8), (25, 9), (57, 10)] {
            full.record(SimTime::from_ns(t), "pkt", a, a * 2);
            fp.record(SimTime::from_ns(t), "pkt", a, a * 2);
        }
        assert!(fp.is_fingerprint_only());
        assert!(fp.entries().is_empty());
        assert_eq!(fp.recorded(), 4);
        let want = reference_epoch_fps(full.entries(), epoch, 8);
        assert_eq!(full.epoch_fingerprints(epoch, 8).unwrap(), want);
        assert_eq!(fp.epoch_fingerprints(epoch, 8).unwrap(), want);
        // An epoch with no entries fingerprints as the empty log.
        assert_eq!(want[1], EventLog::EMPTY_EPOCH_FP);
        assert_eq!(EventLog::enabled().fingerprint(), EventLog::EMPTY_EPOCH_FP);
        // Mismatched epoch length can't be re-bucketed in fp-only mode.
        assert!(fp.epoch_fingerprints(SimTime::from_ns(20), 4).is_none());
        assert!(full.epoch_fingerprints(SimTime::from_ns(20), 4).is_some());
    }

    #[test]
    fn to_fingerprint_only_converts_and_keeps_recording() {
        let epoch = SimTime::from_ns(5);
        let mut full = EventLog::enabled();
        let mut conv = EventLog::enabled();
        for t in [0u64, 3, 6, 11] {
            full.record(SimTime::from_ns(t), "tx", t, 0);
            conv.record(SimTime::from_ns(t), "tx", t, 0);
        }
        conv.to_fingerprint_only(epoch);
        assert!(conv.entries().is_empty());
        // Continue recording after the conversion, in both logs.
        for t in [13u64, 22] {
            full.record(SimTime::from_ns(t), "rx", t, 1);
            conv.record(SimTime::from_ns(t), "rx", t, 1);
        }
        assert_eq!(
            conv.epoch_fingerprints(epoch, 1).unwrap(),
            full.epoch_fingerprints(epoch, 1).unwrap()
        );
        assert_eq!(conv.recorded(), full.recorded());
        // Converting again with the same epoch is a no-op.
        conv.to_fingerprint_only(epoch);
        assert_eq!(conv.recorded(), 6);
    }

    #[test]
    fn fingerprint_only_snapshot_roundtrip() {
        let epoch = SimTime::from_us(1);
        let mut l = EventLog::fingerprint_only(epoch);
        for i in 0..200u64 {
            l.record(SimTime::from_ns(i * 37), "pkt", i, i ^ 5);
        }
        let mut w = SnapWriter::new();
        l.snapshot(&mut w).unwrap();
        let buf = w.into_vec();
        let mut back = EventLog::disabled();
        back.restore(&mut SnapReader::new(&buf)).unwrap();
        assert!(back.is_fingerprint_only());
        assert_eq!(back.fingerprint_epoch(), Some(epoch));
        assert_eq!(back.recorded(), l.recorded());
        assert_eq!(
            back.epoch_fingerprints(epoch, 16).unwrap(),
            l.epoch_fingerprints(epoch, 16).unwrap()
        );
        // Recording continues from the restored accumulator state.
        let mut cont = l.clone();
        back.record(SimTime::from_ns(200 * 37), "pkt", 1, 2);
        cont.record(SimTime::from_ns(200 * 37), "pkt", 1, 2);
        assert_eq!(
            back.epoch_fingerprints(epoch, 16).unwrap(),
            cont.epoch_fingerprints(epoch, 16).unwrap()
        );
    }

    #[test]
    fn materialized_snapshot_rejects_unknown_mode_tag() {
        let l = EventLog::enabled();
        let mut w = SnapWriter::new();
        l.snapshot(&mut w).unwrap();
        let mut buf = w.into_vec();
        buf[0] = 9; // corrupt the mode tag
        let mut back = EventLog::disabled();
        assert!(back.restore(&mut SnapReader::new(&buf)).is_err());
    }

    #[test]
    fn merge_sorts_by_time_stably() {
        let mut a = EventLog::enabled();
        let mut b = EventLog::enabled();
        a.record(SimTime::from_ns(5), "a", 0, 0);
        a.record(SimTime::from_ns(10), "a", 1, 0);
        b.record(SimTime::from_ns(5), "b", 0, 0);
        b.record(SimTime::from_ns(7), "b", 1, 0);
        let m = EventLog::merge(&[&a, &b]);
        let tags: Vec<_> = m.entries().iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec!["a", "b", "b", "a"]);
    }
}
