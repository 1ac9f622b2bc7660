//! Run statistics collected by the component kernel.

use std::fmt;

use crate::pktbuf::PoolStats;
use crate::snap::{SnapReader, SnapResult, SnapWriter, Snapshot};
use crate::sync::PortStats;
use crate::time::SimTime;

/// Counters describing what one component simulator did during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Virtual time the component reached when it finished.
    pub final_time: SimTime,
    /// Data messages delivered to the model.
    pub msgs_delivered: u64,
    /// Local timer events fired.
    pub timers_fired: u64,
    /// Number of distinct clock advances performed.
    pub advances: u64,
    /// Number of step invocations that could not make progress (waiting for
    /// peer promises); a proxy for synchronization stall time.
    pub blocked_polls: u64,
    /// Aggregated per-port counters: data messages sent.
    pub data_sent: u64,
    /// Data messages received.
    pub data_received: u64,
    /// SYNC messages sent.
    pub syncs_sent: u64,
    /// SYNC messages received.
    pub syncs_received: u64,
    /// Sends buffered locally because the shared queue was momentarily full.
    pub backpressured: u64,
    /// SYNC messages emitted ahead of schedule by batched emission (subset of
    /// `syncs_sent`).
    pub syncs_coalesced: u64,
    /// SYNC emissions suppressed by hierarchical sync because their promise
    /// would not have raised the peer's horizon (never reached the wire; not
    /// part of `syncs_sent`).
    pub syncs_suppressed: u64,
    /// Packet-buffer allocations served from the component's freelist arena
    /// (no heap traffic).
    pub pool_hits: u64,
    /// Packet-buffer allocations that had to create a fresh segment.
    pub pool_misses: u64,
    /// Packet-buffer allocations that exceeded the segment capacity and fell
    /// back to a plain heap buffer.
    pub pool_fallbacks: u64,
}

impl KernelStats {
    /// Fold one port's counters into this component's totals.
    pub fn absorb_port(&mut self, p: PortStats) {
        self.data_sent += p.data_sent;
        self.data_received += p.data_received;
        self.syncs_sent += p.syncs_sent;
        self.syncs_received += p.syncs_received;
        self.backpressured += p.backpressured;
        self.syncs_coalesced += p.syncs_coalesced;
        self.syncs_suppressed += p.syncs_suppressed;
    }

    /// Overwrite the pool counters from the component's arena (the arena's
    /// counters are already cumulative, so this is a set, not an add).
    pub fn absorb_pool(&mut self, p: PoolStats) {
        self.pool_hits = p.hits;
        self.pool_misses = p.misses;
        self.pool_fallbacks = p.fallbacks;
    }

    /// Fraction of pooled allocations served from the freelist, in `0..=1`
    /// (1.0 when nothing was allocated).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            1.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Total messages that crossed this component's channels (both kinds and
    /// both directions).
    pub fn total_messages(&self) -> u64 {
        self.data_sent + self.data_received + self.syncs_sent + self.syncs_received
    }

    /// Fraction of all exchanged messages that were pure synchronization.
    pub fn sync_overhead_ratio(&self) -> f64 {
        let total = self.total_messages();
        if total == 0 {
            0.0
        } else {
            (self.syncs_sent + self.syncs_received) as f64 / total as f64
        }
    }

    /// Merge statistics of several components (for whole-simulation totals).
    pub fn merged(all: &[KernelStats]) -> KernelStats {
        let mut out = KernelStats::default();
        for s in all {
            out.final_time = out.final_time.max(s.final_time);
            out.msgs_delivered += s.msgs_delivered;
            out.timers_fired += s.timers_fired;
            out.advances += s.advances;
            out.blocked_polls += s.blocked_polls;
            out.data_sent += s.data_sent;
            out.data_received += s.data_received;
            out.syncs_sent += s.syncs_sent;
            out.syncs_received += s.syncs_received;
            out.backpressured += s.backpressured;
            out.syncs_coalesced += s.syncs_coalesced;
            out.pool_hits += s.pool_hits;
            out.pool_misses += s.pool_misses;
            out.pool_fallbacks += s.pool_fallbacks;
            out.syncs_suppressed += s.syncs_suppressed;
        }
        out
    }
}

impl KernelStats {
    /// Length of the [`Snapshot`] encoding in `u64`s: the final time, then
    /// one per counter. Checkpoints carry this encoding, and so does every
    /// component record of a distributed worker's `RESULT` frame.
    pub const ENCODED_WORDS: usize = 15;
}

/// [`KernelStats::ENCODED_WORDS`] little-endian `u64`s: the final time in
/// picoseconds, then the counters in the order below.
impl Snapshot for KernelStats {
    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        w.time(self.final_time);
        let counters: [u64; KernelStats::ENCODED_WORDS - 1] = [
            self.msgs_delivered,
            self.timers_fired,
            self.advances,
            self.blocked_polls,
            self.data_sent,
            self.data_received,
            self.syncs_sent,
            self.syncs_received,
            self.backpressured,
            self.syncs_coalesced,
            self.pool_hits,
            self.pool_misses,
            self.pool_fallbacks,
            self.syncs_suppressed,
        ];
        for v in counters {
            w.u64(v);
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        // Struct fields evaluate in the order written: the encoding order.
        *self = KernelStats {
            final_time: r.time()?,
            msgs_delivered: r.u64()?,
            timers_fired: r.u64()?,
            advances: r.u64()?,
            blocked_polls: r.u64()?,
            data_sent: r.u64()?,
            data_received: r.u64()?,
            syncs_sent: r.u64()?,
            syncs_received: r.u64()?,
            backpressured: r.u64()?,
            syncs_coalesced: r.u64()?,
            pool_hits: r.u64()?,
            pool_misses: r.u64()?,
            pool_fallbacks: r.u64()?,
            syncs_suppressed: r.u64()?,
        };
        Ok(())
    }
}

impl Snapshot for PortStats {
    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        for v in [
            self.data_sent,
            self.data_received,
            self.syncs_sent,
            self.syncs_received,
            self.backpressured,
            self.syncs_coalesced,
            self.syncs_suppressed,
        ] {
            w.u64(v);
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.data_sent = r.u64()?;
        self.data_received = r.u64()?;
        self.syncs_sent = r.u64()?;
        self.syncs_received = r.u64()?;
        self.backpressured = r.u64()?;
        self.syncs_coalesced = r.u64()?;
        self.syncs_suppressed = r.u64()?;
        Ok(())
    }
}

impl fmt::Display for KernelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={} delivered={} timers={} advances={} blocked={} data_tx={} data_rx={} sync_tx={} sync_rx={}",
            self.final_time,
            self.msgs_delivered,
            self.timers_fired,
            self.advances,
            self.blocked_polls,
            self.data_sent,
            self.data_received,
            self.syncs_sent,
            self.syncs_received,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_and_ratio() {
        let mut s = KernelStats::default();
        s.absorb_port(PortStats {
            data_sent: 10,
            data_received: 10,
            syncs_sent: 30,
            syncs_received: 30,
            backpressured: 1,
            syncs_coalesced: 0,
            syncs_suppressed: 0,
        });
        assert_eq!(s.total_messages(), 80);
        assert!((s.sync_overhead_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(s.backpressured, 1);
    }

    #[test]
    fn ratio_of_empty_stats_is_zero() {
        assert_eq!(KernelStats::default().sync_overhead_ratio(), 0.0);
    }

    #[test]
    fn wire_roundtrip_preserves_every_counter() {
        let s = KernelStats {
            final_time: SimTime::from_ms(12),
            msgs_delivered: 1,
            timers_fired: 2,
            advances: 3,
            blocked_polls: 4,
            data_sent: 5,
            data_received: 6,
            syncs_sent: 7,
            syncs_received: 8,
            backpressured: 9,
            syncs_coalesced: 10,
            pool_hits: 11,
            pool_misses: 12,
            pool_fallbacks: 13,
            syncs_suppressed: 14,
        };
        let mut w = SnapWriter::new();
        s.snapshot(&mut w).unwrap();
        let w = w.into_vec();
        // The checkpoint-version-7 layout: the final time, then each
        // counter in encoding order.
        #[rustfmt::skip]
        let golden: [u8; KernelStats::ENCODED_WORDS * 8] = [
            0x00, 0x78, 0x41, 0xcb, 0x02, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0,
            4, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0,
            6, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0,
            8, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0,
            10, 0, 0, 0, 0, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0,
            12, 0, 0, 0, 0, 0, 0, 0, 13, 0, 0, 0, 0, 0, 0, 0,
            14, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(w, golden);
        let mut back = KernelStats::default();
        back.restore(&mut SnapReader::new(&w)).unwrap();
        assert_eq!(back, s);
        let mut short = KernelStats::default();
        assert!(short
            .restore(&mut SnapReader::new(&w[..w.len() - 1]))
            .is_err());
    }

    #[test]
    fn merged_takes_max_time_and_sums_counters() {
        let a = KernelStats {
            final_time: SimTime::from_ms(10),
            msgs_delivered: 5,
            syncs_sent: 100,
            ..Default::default()
        };
        let b = KernelStats {
            final_time: SimTime::from_ms(20),
            msgs_delivered: 7,
            syncs_sent: 50,
            ..Default::default()
        };
        let m = KernelStats::merged(&[a, b]);
        assert_eq!(m.final_time, SimTime::from_ms(20));
        assert_eq!(m.msgs_delivered, 12);
        assert_eq!(m.syncs_sent, 150);
    }
}
