//! # simbricks-nvmesim
//!
//! A compact NVMe SSD device model (stand-in for the FEMU integration in
//! §7.2 of the paper), demonstrating that the SimBricks PCIe interface
//! generalizes beyond NICs: the device announces itself with `INIT_DEV`,
//! exposes submission/completion queue doorbells in BAR 0, fetches 64-byte
//! commands from host memory by DMA, moves data by DMA, and signals
//! completions through MSI-X — exactly the same message vocabulary the NIC
//! models use.

use std::collections::VecDeque;

use simbricks_base::{Kernel, Model, OwnedMsg, PortId, SimTime};
use simbricks_pcie::{DevToHost, DeviceInfo, HostToDev, IntKind};

/// Register offsets in BAR 0.
pub const NVME_REG_SQ_BASE: u64 = 0x00;
pub const NVME_REG_CQ_BASE: u64 = 0x08;
pub const NVME_REG_Q_LEN: u64 = 0x10;
pub const NVME_REG_SQ_TAIL: u64 = 0x18;
pub const NVME_REG_ENABLE: u64 = 0x20;

/// NVMe-style command layout (64 bytes): opcode (0), lba (8..16),
/// length in blocks (16..20), buffer address (24..32), command id (32..40).
pub const NVME_CMD_SIZE: usize = 64;
pub const NVME_OPC_READ: u8 = 0x02;
pub const NVME_OPC_WRITE: u8 = 0x01;
pub const BLOCK_SIZE: usize = 4096;

/// Device configuration.
#[derive(Clone, Copy, Debug)]
pub struct NvmeConfig {
    pub capacity_blocks: u64,
    pub read_latency: SimTime,
    pub write_latency: SimTime,
}

impl Default for NvmeConfig {
    fn default() -> Self {
        NvmeConfig {
            capacity_blocks: 4096,
            read_latency: SimTime::from_us(80),
            write_latency: SimTime::from_us(20),
        }
    }
}

enum DmaCtx {
    CmdFetch,
    DataIn { cmd_id: u64, lba: u64 },
    DataOutDone { cmd_id: u64 },
    CplWrite,
}

/// The NVMe device model. Port 0 is its PCIe channel to a host simulator.
pub struct NvmeDev {
    cfg: NvmeConfig,
    storage: Vec<u8>,
    enabled: bool,
    sq_base: u64,
    cq_base: u64,
    q_len: u32,
    sq_head: u32,
    sq_tail: u32,
    cq_tail: u32,
    fetching: bool,
    outstanding: simbricks_pcie::OutstandingRequests<DmaCtx>,
    /// Commands waiting for their modelled media latency.
    in_media: VecDeque<(SimTime, u8, u64, u32, u64, u64)>,
    pub reads: u64,
    pub writes: u64,
    pub completions: u64,
}

const TOK_MEDIA: u64 = 1;

impl NvmeDev {
    pub fn new(cfg: NvmeConfig) -> Self {
        NvmeDev {
            storage: vec![0u8; (cfg.capacity_blocks as usize) * BLOCK_SIZE],
            cfg,
            enabled: false,
            sq_base: 0,
            cq_base: 0,
            q_len: 0,
            sq_head: 0,
            sq_tail: 0,
            cq_tail: 0,
            fetching: false,
            outstanding: simbricks_pcie::OutstandingRequests::new(),
            in_media: VecDeque::new(),
            reads: 0,
            writes: 0,
            completions: 0,
        }
    }

    fn dma_read(&mut self, k: &mut Kernel, addr: u64, len: usize, ctx: DmaCtx) {
        let req_id = self.outstanding.insert(ctx);
        let (ty, p) = DevToHost::DmaRead { req_id, addr, len }.encode();
        k.send(PortId(0), ty, &p);
    }

    fn dma_write(&mut self, k: &mut Kernel, addr: u64, data: &[u8], ctx: DmaCtx) {
        let req_id = self.outstanding.insert(ctx);
        let (ty, p) = DevToHost::DmaWrite {
            req_id,
            addr,
            data: data.to_vec().into(),
        }
        .encode();
        k.send(PortId(0), ty, &p);
    }

    fn fetch_next(&mut self, k: &mut Kernel) {
        if !self.enabled || self.fetching || self.sq_head == self.sq_tail || self.q_len == 0 {
            return;
        }
        let idx = self.sq_head % self.q_len;
        self.fetching = true;
        self.dma_read(
            k,
            self.sq_base + idx as u64 * NVME_CMD_SIZE as u64,
            NVME_CMD_SIZE,
            DmaCtx::CmdFetch,
        );
    }

    fn handle_command(&mut self, k: &mut Kernel, cmd: &[u8]) {
        let opcode = cmd[0];
        let lba = u64::from_le_bytes(cmd[8..16].try_into().unwrap());
        let blocks = u32::from_le_bytes(cmd[16..20].try_into().unwrap()).max(1);
        let buf = u64::from_le_bytes(cmd[24..32].try_into().unwrap());
        let cmd_id = u64::from_le_bytes(cmd[32..40].try_into().unwrap());
        let latency = match opcode {
            NVME_OPC_READ => self.cfg.read_latency,
            _ => self.cfg.write_latency,
        };
        let done = k.now() + latency;
        self.in_media
            .push_back((done, opcode, lba, blocks, buf, cmd_id));
        k.schedule_at(done, TOK_MEDIA);
        // The head, like the tail doorbell the driver writes, is kept modulo
        // the queue length (NVMe queue semantics).
        self.sq_head = (self.sq_head + 1) % self.q_len.max(1);
        self.fetching = false;
        self.fetch_next(k);
    }

    fn media_done(&mut self, k: &mut Kernel) {
        let now = k.now();
        while let Some((done, ..)) = self.in_media.front() {
            if *done > now {
                break;
            }
            let (_, opcode, lba, blocks, buf, cmd_id) = self.in_media.pop_front().unwrap();
            let len = blocks as usize * BLOCK_SIZE;
            let off = (lba as usize * BLOCK_SIZE).min(self.storage.len());
            let end = (off + len).min(self.storage.len());
            match opcode {
                NVME_OPC_READ => {
                    self.reads += 1;
                    let data = self.storage[off..end].to_vec();
                    self.dma_write(k, buf, &data, DmaCtx::DataOutDone { cmd_id });
                }
                _ => {
                    self.writes += 1;
                    self.dma_read(k, buf, end - off, DmaCtx::DataIn { cmd_id, lba });
                }
            }
        }
    }

    fn complete(&mut self, k: &mut Kernel, cmd_id: u64) {
        // Write a 16-byte completion entry and raise MSI-X vector 0.
        if self.q_len > 0 {
            let idx = self.cq_tail % self.q_len;
            let mut entry = [0u8; 16];
            entry[0..8].copy_from_slice(&cmd_id.to_le_bytes());
            entry[8] = 1; // phase/valid
            self.dma_write(k, self.cq_base + idx as u64 * 16, &entry, DmaCtx::CplWrite);
            self.cq_tail = self.cq_tail.wrapping_add(1);
        }
        self.completions += 1;
        let (ty, p) = DevToHost::Interrupt {
            kind: IntKind::Msix,
            vector: 0,
        }
        .encode();
        k.send(PortId(0), ty, &p);
    }
}

impl Model for NvmeDev {
    fn init(&mut self, k: &mut Kernel) {
        let (ty, p) = DevToHost::DevInfo(DeviceInfo::nvme(0x1b36, 0x0010, 0x4000, 8)).encode();
        k.send(PortId(0), ty, &p);
    }

    fn on_msg(&mut self, k: &mut Kernel, _port: PortId, msg: OwnedMsg) {
        match HostToDev::decode(msg.ty, &msg.data) {
            Some(HostToDev::MmioWrite {
                req_id,
                offset,
                data,
                ..
            }) => {
                let mut b = [0u8; 8];
                let n = data.len().min(8);
                b[..n].copy_from_slice(&data[..n]);
                let v = u64::from_le_bytes(b);
                match offset {
                    NVME_REG_SQ_BASE => self.sq_base = v,
                    NVME_REG_CQ_BASE => self.cq_base = v,
                    NVME_REG_Q_LEN => self.q_len = v as u32,
                    NVME_REG_ENABLE => self.enabled = v & 1 != 0,
                    NVME_REG_SQ_TAIL => {
                        self.sq_tail = v as u32;
                        self.fetch_next(k);
                    }
                    _ => {}
                }
                let (ty, p) = DevToHost::MmioComplete {
                    req_id,
                    data: simbricks_base::PktBuf::empty(),
                }
                .encode();
                k.send(PortId(0), ty, &p);
            }
            Some(HostToDev::MmioRead {
                req_id,
                offset,
                len,
                ..
            }) => {
                let v: u64 = match offset {
                    NVME_REG_ENABLE => self.enabled as u64,
                    NVME_REG_Q_LEN => self.q_len as u64,
                    _ => 0,
                };
                let (ty, p) = DevToHost::MmioComplete {
                    req_id,
                    data: v.to_le_bytes()[..len.min(8)].to_vec().into(),
                }
                .encode();
                k.send(PortId(0), ty, &p);
            }
            Some(HostToDev::DmaComplete { req_id, data }) => {
                match self.outstanding.complete(req_id) {
                    Some(DmaCtx::CmdFetch) => self.handle_command(k, &data),
                    Some(DmaCtx::DataIn { cmd_id, lba }) => {
                        let off = (lba as usize * BLOCK_SIZE).min(self.storage.len());
                        let n = data.len().min(self.storage.len() - off);
                        self.storage[off..off + n].copy_from_slice(&data[..n]);
                        self.complete(k, cmd_id);
                    }
                    Some(DmaCtx::DataOutDone { cmd_id }) => self.complete(k, cmd_id),
                    Some(DmaCtx::CplWrite) | None => {}
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, k: &mut Kernel, token: u64) {
        if token == TOK_MEDIA {
            self.media_done(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::{channel_pair, ChannelParams, StepOutcome, MSG_SYNC};

    #[test]
    fn announces_as_storage_device() {
        let (dev_end, mut host) = channel_pair(ChannelParams::default_sync());
        let mut kernel = Kernel::new("nvme", SimTime::from_us(10));
        kernel.add_port(dev_end);
        let mut dev = NvmeDev::new(NvmeConfig::default());
        host.send_raw(SimTime::from_us(10), MSG_SYNC, &[]).unwrap();
        while kernel.step(&mut dev, 256) == StepOutcome::Progressed {}
        let mut seen = false;
        while let Some(m) = host.recv_raw() {
            if let Some(DevToHost::DevInfo(info)) = DevToHost::decode(m.ty, &m.data) {
                assert_eq!(info.class, 0x01, "mass storage class");
                seen = true;
            }
        }
        assert!(seen);
    }

    #[test]
    fn processes_a_read_command_end_to_end() {
        let (dev_end, mut host) = channel_pair(ChannelParams::default_sync());
        let mut kernel = Kernel::new("nvme", SimTime::from_ms(2));
        kernel.add_port(dev_end);
        let mut dev = NvmeDev::new(NvmeConfig::default());
        // Host-side "driver": queue memory at 0x1000 (SQ) / 0x2000 (CQ),
        // data buffer at 0x10000.
        let mut mem = vec![0u8; 1 << 20];
        let mut cmd = [0u8; NVME_CMD_SIZE];
        cmd[0] = NVME_OPC_READ;
        cmd[8..16].copy_from_slice(&1u64.to_le_bytes()); // lba 1
        cmd[16..20].copy_from_slice(&1u32.to_le_bytes()); // 1 block
        cmd[24..32].copy_from_slice(&0x10000u64.to_le_bytes());
        cmd[32..40].copy_from_slice(&77u64.to_le_bytes()); // command id
        mem[0x1000..0x1000 + NVME_CMD_SIZE].copy_from_slice(&cmd);

        let t0 = SimTime::from_us(1);
        for (req, (off, val)) in [
            (NVME_REG_SQ_BASE, 0x1000u64),
            (NVME_REG_CQ_BASE, 0x2000),
            (NVME_REG_Q_LEN, 16),
            (NVME_REG_ENABLE, 1),
            (NVME_REG_SQ_TAIL, 1),
        ]
        .into_iter()
        .enumerate()
        {
            let (ty, p) = HostToDev::MmioWrite {
                req_id: req as u64 + 1,
                bar: 0,
                offset: off,
                data: val.to_le_bytes().to_vec().into(),
            }
            .encode();
            host.send_raw(t0, ty, &p).unwrap();
        }

        let mut horizon = 2u64;
        let mut interrupts = 0;
        let mut cq_written = false;
        for _ in 0..2000 {
            if kernel.step(&mut dev, 256) == StepOutcome::Finished {
                break;
            }
            let stamp = SimTime::from_us(horizon);
            while let Some(m) = host.recv_raw() {
                match DevToHost::decode(m.ty, &m.data) {
                    Some(DevToHost::DmaRead { req_id, addr, len }) => {
                        let data = mem[addr as usize..addr as usize + len].to_vec();
                        let (ty, p) = HostToDev::DmaComplete {
                            req_id,
                            data: data.into(),
                        }
                        .encode();
                        host.send_raw(stamp, ty, &p).unwrap();
                    }
                    Some(DevToHost::DmaWrite { req_id, addr, data }) => {
                        mem[addr as usize..addr as usize + data.len()].copy_from_slice(&data);
                        if addr == 0x2000 {
                            cq_written = true;
                        }
                        let (ty, p) = HostToDev::DmaComplete {
                            req_id,
                            data: simbricks_base::PktBuf::empty(),
                        }
                        .encode();
                        host.send_raw(stamp, ty, &p).unwrap();
                    }
                    Some(DevToHost::Interrupt { .. }) => interrupts += 1,
                    _ => {}
                }
            }
            host.send_raw(stamp, MSG_SYNC, &[]).unwrap();
            horizon += 5;
            if interrupts > 0 {
                break;
            }
        }
        assert!(cq_written, "completion entry written to the CQ");
        assert_eq!(interrupts, 1);
        assert_eq!(dev.reads, 1);
        assert_eq!(
            u64::from_le_bytes(mem[0x2000..0x2008].try_into().unwrap()),
            77,
            "completion carries the command id"
        );
    }
}
