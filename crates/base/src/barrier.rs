//! Epoch-based global-barrier synchronization.
//!
//! This is the conventional synchronization scheme used by dist-gem5 /
//! pd-gem5 (§5.5.1, §7.3.1): simulation time is divided into epochs no larger
//! than the smallest link latency, and **all** components must reach the end
//! of the current epoch before any may enter the next one. SimBricks' own
//! pairwise mechanism ([`crate::sync`]) avoids this global coordination; this
//! module exists as the baseline the paper compares against in Fig. 6.
//!
//! The controller is poll-based (no OS blocking primitives) so it works both
//! with one component per thread and with the cooperative sequential
//! executor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::time::SimTime;

#[derive(Debug)]
struct Inner {
    /// Components that have arrived at the end of the current epoch.
    arrived: u64,
    /// Components still participating (not yet finished).
    participants: u64,
    /// Total barrier waits observed (for reporting overhead).
    barrier_rounds: u64,
}

/// Shared coordinator for epoch-based global synchronization.
#[derive(Debug)]
pub struct EpochController {
    epoch_len: SimTime,
    epoch: AtomicU64,
    inner: Mutex<Inner>,
}

impl EpochController {
    /// Create a controller for `participants` components with the given epoch
    /// length (must not exceed the smallest link latency in the simulation).
    pub fn new(epoch_len: SimTime, participants: u64) -> Arc<Self> {
        assert!(epoch_len > SimTime::ZERO, "epoch length must be non-zero");
        assert!(participants > 0, "need at least one participant");
        Arc::new(EpochController {
            epoch_len,
            epoch: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                arrived: 0,
                participants,
                barrier_rounds: 0,
            }),
        })
    }

    /// Length of one epoch in virtual time.
    pub fn epoch_len(&self) -> SimTime {
        self.epoch_len
    }

    /// Index of the epoch currently executing.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Virtual time at which epoch `epoch` ends (exclusive bound for events).
    pub fn epoch_end(&self, epoch: u64) -> SimTime {
        SimTime::from_ps(self.epoch_len.as_ps().saturating_mul(epoch + 1))
    }

    /// Number of completed barrier rounds (reporting only).
    pub fn barrier_rounds(&self) -> u64 {
        self.inner.lock().unwrap().barrier_rounds
    }

    /// Report that the calling component has finished epoch `epoch`. Returns
    /// true if this call released the barrier (i.e. the epoch advanced).
    pub fn arrive(&self, epoch: u64) -> bool {
        let mut inner = self.inner.lock().unwrap();
        debug_assert_eq!(
            epoch,
            self.epoch.load(Ordering::Relaxed),
            "components must all be in the same epoch under global-barrier sync"
        );
        inner.arrived += 1;
        if inner.arrived >= inner.participants {
            inner.arrived = 0;
            inner.barrier_rounds += 1;
            self.epoch.fetch_add(1, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Remove the calling component from the barrier (it reached the end of
    /// its simulation). If it was the last straggler of the current epoch the
    /// epoch advances.
    pub fn depart(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.participants = inner.participants.saturating_sub(1);
        if inner.participants > 0 && inner.arrived >= inner.participants {
            inner.arrived = 0;
            inner.barrier_rounds += 1;
            self.epoch.fetch_add(1, Ordering::Release);
        }
    }
}

/// Per-component view of the global barrier, tracking which epoch the
/// component is executing and whether it already arrived at the barrier.
#[derive(Debug)]
pub struct BarrierMember {
    controller: Arc<EpochController>,
    my_epoch: u64,
    arrived: bool,
    departed: bool,
    /// Number of times this member had to wait at the barrier.
    waits: u64,
}

impl BarrierMember {
    /// Register a new member with the shared controller.
    pub fn new(controller: Arc<EpochController>) -> Self {
        BarrierMember {
            controller,
            my_epoch: 0,
            arrived: false,
            departed: false,
            waits: 0,
        }
    }

    /// Exclusive upper bound on event times the component may currently
    /// process: the end of its current epoch.
    pub fn horizon(&self) -> SimTime {
        self.controller.epoch_end(self.my_epoch)
    }

    /// Number of times this member had to wait at the barrier so far.
    pub fn waits(&self) -> u64 {
        self.waits
    }

    /// Called when the component cannot make progress below the epoch end.
    /// Registers arrival (once) and checks whether the global epoch has
    /// advanced; returns true if the component may now continue.
    pub fn try_pass(&mut self) -> bool {
        if self.departed {
            return true;
        }
        if !self.arrived {
            self.controller.arrive(self.my_epoch);
            self.arrived = true;
            self.waits += 1;
        }
        let cur = self.controller.current_epoch();
        if cur > self.my_epoch {
            self.my_epoch = cur;
            self.arrived = false;
            true
        } else {
            false
        }
    }

    /// Called once when the component finishes its simulation entirely.
    pub fn depart(&mut self) {
        if !self.departed {
            self.departed = true;
            self.controller.depart();
        }
    }
}

impl Drop for BarrierMember {
    fn drop(&mut self) {
        self.depart();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_bounds() {
        let c = EpochController::new(SimTime::from_ns(500), 2);
        assert_eq!(c.epoch_end(0), SimTime::from_ns(500));
        assert_eq!(c.epoch_end(3), SimTime::from_ns(2000));
        assert_eq!(c.current_epoch(), 0);
    }

    #[test]
    fn two_members_advance_in_lockstep() {
        let c = EpochController::new(SimTime::from_ns(100), 2);
        let mut a = BarrierMember::new(c.clone());
        let mut b = BarrierMember::new(c.clone());
        assert_eq!(a.horizon(), SimTime::from_ns(100));
        // A arrives first and must wait.
        assert!(!a.try_pass());
        assert!(!a.try_pass());
        assert_eq!(c.current_epoch(), 0);
        // B arrives: barrier releases.
        assert!(b.try_pass());
        assert!(a.try_pass());
        assert_eq!(c.current_epoch(), 1);
        assert_eq!(a.horizon(), SimTime::from_ns(200));
        assert_eq!(b.horizon(), SimTime::from_ns(200));
        assert_eq!(c.barrier_rounds(), 1);
    }

    #[test]
    fn departure_releases_waiters() {
        let c = EpochController::new(SimTime::from_ns(100), 2);
        let mut a = BarrierMember::new(c.clone());
        let mut b = BarrierMember::new(c);
        assert!(!a.try_pass());
        b.depart();
        assert!(a.try_pass(), "departure of b must release a");
        // Single remaining participant now advances freely.
        assert!(a.try_pass(), "a alone releases the next barrier at once");
    }

    #[test]
    fn drop_departs_automatically() {
        let c = EpochController::new(SimTime::from_ns(100), 2);
        let mut a = BarrierMember::new(c.clone());
        {
            let _b = BarrierMember::new(c.clone());
        }
        assert!(!a.try_pass() || a.try_pass());
        // With b gone, a alone releases every barrier.
        for _ in 0..5 {
            while !a.try_pass() {}
        }
        assert!(c.current_epoch() >= 5);
    }

    #[test]
    fn wait_counter_increments() {
        let c = EpochController::new(SimTime::from_ns(100), 1);
        let mut a = BarrierMember::new(c);
        assert!(a.try_pass());
        assert!(a.try_pass());
        assert_eq!(a.waits(), 2);
    }
}
