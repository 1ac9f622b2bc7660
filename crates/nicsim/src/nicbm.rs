//! Common behavioural-NIC building blocks (the paper's `nicbm` library):
//! a DMA engine tracking outstanding PCIe requests and an MSI-X interrupt
//! moderation helper.

use simbricks_base::snap::{SnapReader, SnapResult, SnapWriter};
use simbricks_base::{Kernel, PortId, SimTime};
use simbricks_pcie::{DevToHost, IntKind, OutstandingRequests};

/// DMA engine: issues DMA read/write messages over the PCIe port and matches
/// completions back to a caller-supplied context.
pub struct DmaEngine<C> {
    pcie_port: PortId,
    outstanding: OutstandingRequests<C>,
    pub reads_issued: u64,
    pub writes_issued: u64,
}

impl<C> DmaEngine<C> {
    pub fn new(pcie_port: PortId) -> Self {
        DmaEngine {
            pcie_port,
            outstanding: OutstandingRequests::new(),
            reads_issued: 0,
            writes_issued: 0,
        }
    }

    /// Issue a DMA read of host memory.
    pub fn read(&mut self, k: &mut Kernel, addr: u64, len: usize, ctx: C) {
        let req_id = self.outstanding.insert(ctx);
        self.reads_issued += 1;
        let (ty, payload) = DevToHost::DmaRead { req_id, addr, len }.encode();
        k.send(self.pcie_port, ty, &payload);
    }

    /// Issue a DMA write to host memory. The message envelope is built in
    /// one pass inside a pooled buffer (no intermediate allocation).
    pub fn write(&mut self, k: &mut Kernel, addr: u64, data: &[u8], ctx: C) {
        let req_id = self.outstanding.insert(ctx);
        self.writes_issued += 1;
        let (ty, payload) = DevToHost::encode_dma_write_pooled(k.pool(), req_id, addr, data);
        k.send_buf(self.pcie_port, ty, payload);
    }

    /// Match a completion back to its context.
    pub fn complete(&mut self, req_id: u64) -> Option<C> {
        self.outstanding.complete(req_id)
    }

    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Checkpoint: encode counters plus the in-flight requests (id order)
    /// with their contexts via `enc`.
    pub fn snapshot_with(
        &self,
        w: &mut SnapWriter,
        enc: impl Fn(&C, &mut SnapWriter),
    ) -> SnapResult<()> {
        w.u64(self.reads_issued);
        w.u64(self.writes_issued);
        w.u64(self.outstanding.next_id());
        let entries = self.outstanding.entries();
        w.usize(entries.len());
        for (id, ctx) in entries {
            w.u64(id);
            enc(ctx, w);
        }
        Ok(())
    }

    /// Checkpoint: rebuild the engine state written by
    /// [`DmaEngine::snapshot_with`], decoding contexts via `dec`.
    pub fn restore_with(
        &mut self,
        r: &mut SnapReader,
        dec: impl Fn(&mut SnapReader) -> SnapResult<C>,
    ) -> SnapResult<()> {
        self.reads_issued = r.u64()?;
        self.writes_issued = r.u64()?;
        let next_id = r.u64()?;
        let n = r.usize()?;
        let mut items = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let id = r.u64()?;
            let ctx = dec(r)?;
            items.push((id, ctx));
        }
        self.outstanding = OutstandingRequests::restore_parts(next_id, items);
        Ok(())
    }
}

/// Per-vector MSI-X interrupt generation with i40e-style throttling (ITR):
/// at most one interrupt per throttle interval, with events arriving during
/// the hold-off coalesced into a single deferred interrupt.
pub struct IntModeration {
    pcie_port: PortId,
    vector: u16,
    /// Throttle interval; zero disables moderation.
    pub interval: SimTime,
    last_fired: Option<SimTime>,
    pending: bool,
    timer_armed: bool,
    pub fired: u64,
    pub coalesced: u64,
}

impl IntModeration {
    pub fn new(pcie_port: PortId, vector: u16, interval: SimTime) -> Self {
        IntModeration {
            pcie_port,
            vector,
            interval,
            last_fired: None,
            pending: false,
            timer_armed: false,
            fired: 0,
            coalesced: 0,
        }
    }

    /// Request an interrupt. Returns `Some(deadline)` if the caller must
    /// schedule a timer and call [`IntModeration::on_timer`] at that time.
    #[must_use]
    pub fn request(&mut self, k: &mut Kernel) -> Option<SimTime> {
        let now = k.now();
        let due = match self.last_fired {
            Some(last) if self.interval > SimTime::ZERO => last + self.interval,
            _ => now,
        };
        if due <= now {
            self.fire(k);
            None
        } else {
            self.pending = true;
            self.coalesced += 1;
            if self.timer_armed {
                None
            } else {
                self.timer_armed = true;
                Some(due)
            }
        }
    }

    /// Called by the owning model when the moderation timer fires.
    pub fn on_timer(&mut self, k: &mut Kernel) {
        self.timer_armed = false;
        if self.pending {
            self.pending = false;
            self.fire(k);
        }
    }

    /// Checkpoint: encode the dynamic moderation state (the interval is
    /// driver-programmed at run time, so it is dynamic too).
    pub fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        w.time(self.interval);
        w.opt_time(self.last_fired);
        w.bool(self.pending);
        w.bool(self.timer_armed);
        w.u64(self.fired);
        w.u64(self.coalesced);
        Ok(())
    }

    /// Checkpoint: restore state written by [`IntModeration::snapshot`].
    pub fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.interval = r.time()?;
        self.last_fired = r.opt_time()?;
        self.pending = r.bool()?;
        self.timer_armed = r.bool()?;
        self.fired = r.u64()?;
        self.coalesced = r.u64()?;
        Ok(())
    }

    fn fire(&mut self, k: &mut Kernel) {
        self.fired += 1;
        self.last_fired = Some(k.now());
        let (ty, payload) = DevToHost::Interrupt {
            kind: IntKind::Msix,
            vector: self.vector,
        }
        .encode();
        k.send(self.pcie_port, ty, &payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::{channel_pair, ChannelParams, Model, OwnedMsg, StepOutcome};
    use simbricks_pcie::HostToDev;

    /// A model exercising the DMA engine and interrupt moderation directly.
    struct TestDev {
        dma: DmaEngine<&'static str>,
        itr: IntModeration,
        completions: Vec<&'static str>,
        interrupts_requested: u32,
    }

    impl Model for TestDev {
        fn init(&mut self, k: &mut Kernel) {
            self.dma.read(k, 0x1000, 64, "first");
            self.dma.write(k, 0x2000, &[1, 2, 3], "second");
            // Two interrupt requests back to back: the second is coalesced.
            if let Some(t) = self.itr.request(k) {
                k.schedule_at(t, 99);
            }
            if let Some(t) = self.itr.request(k) {
                k.schedule_at(t, 99);
            }
            self.interrupts_requested = 2;
        }
        fn on_msg(&mut self, _k: &mut Kernel, _p: PortId, msg: OwnedMsg) {
            if let Some(HostToDev::DmaComplete { req_id, .. }) =
                HostToDev::decode(msg.ty, &msg.data)
            {
                if let Some(ctx) = self.dma.complete(req_id) {
                    self.completions.push(ctx);
                }
            }
        }
        fn on_timer(&mut self, k: &mut Kernel, token: u64) {
            if token == 99 {
                self.itr.on_timer(k);
            }
        }
    }

    #[test]
    fn dma_roundtrip_and_interrupt_moderation() {
        let (dev_end, mut host_end) = channel_pair(ChannelParams::default_sync());
        let mut kernel = Kernel::new("dev", SimTime::from_ms(1));
        let port = kernel.add_port(dev_end);
        let mut dev = TestDev {
            dma: DmaEngine::new(port),
            itr: IntModeration::new(port, 0, SimTime::from_us(10)),
            completions: Vec::new(),
            interrupts_requested: 0,
        };
        // Drive the device; the "host" answers DMA requests directly. The
        // host-side horizon advances 1 us per iteration so all messages stay
        // monotonic on the channel.
        let mut interrupts_seen = 0;
        for horizon_us in 1u64..=2000 {
            if kernel.step(&mut dev, 64) == StepOutcome::Finished {
                break;
            }
            let stamp = SimTime::from_us(horizon_us);
            while let Some(m) = host_end.recv_raw() {
                match DevToHost::decode(m.ty, &m.data) {
                    Some(DevToHost::DmaRead { req_id, len, .. }) => {
                        let (ty, p) = HostToDev::DmaComplete {
                            req_id,
                            data: vec![0xab; len].into(),
                        }
                        .encode();
                        host_end.send_raw(stamp, ty, &p).unwrap();
                    }
                    Some(DevToHost::DmaWrite { req_id, .. }) => {
                        let (ty, p) = HostToDev::DmaComplete {
                            req_id,
                            data: simbricks_base::PktBuf::empty(),
                        }
                        .encode();
                        host_end.send_raw(stamp, ty, &p).unwrap();
                    }
                    Some(DevToHost::Interrupt { .. }) => interrupts_seen += 1,
                    _ => {}
                }
            }
            // Keep the device's clock moving.
            host_end.send_raw(stamp, simbricks_base::MSG_SYNC, &[]).ok();
        }
        assert_eq!(dev.completions, vec!["first", "second"]);
        assert_eq!(dev.dma.in_flight(), 0);
        assert_eq!(dev.dma.reads_issued, 1);
        assert_eq!(dev.dma.writes_issued, 1);
        // Two requests, but only one immediate interrupt plus one deferred:
        // both eventually fire, the second after the 10 us hold-off.
        assert_eq!(interrupts_seen, 2);
        assert_eq!(dev.itr.fired, 2);
        assert_eq!(dev.itr.coalesced, 1);
    }
}
