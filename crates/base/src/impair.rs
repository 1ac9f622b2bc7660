//! Deterministic link impairments: loss, jitter, reordering, rate variation.
//!
//! Real fabrics are not clean. To evaluate protocols (DCTCP vs. L4S, loss
//! masking, AQM behaviour) the channel layer can apply a configurable
//! [`Impairment`] to every data message a [`SyncPort`](crate::sync::SyncPort)
//! sends. All decisions are driven by a seeded [`Rng`] (xorshift64*) that
//! advances **only on data sends** — never on SYNC traffic, whose emission
//! timing is executor-dependent — so the impaired packet sequence is a pure
//! function of the virtual-time history and the seed, and merged event logs
//! stay bit-identical across executors, transports and checkpoint/restore.
//!
//! Monotonicity: the §5.5 protocol requires per-channel timestamps to be
//! non-decreasing (every timestamp is a promise). Impairments therefore only
//! ever *add* delay (`arrival = send + Δ + extra`), lost packets are replaced
//! by a SYNC carrying the un-jittered base promise `send + Δ`, and a held-back
//! (reordered) packet is re-emitted at `max(its own arrival, last promise)`.

use crate::pktbuf::PktBuf;
use crate::slot::MsgType;
use crate::snap::{SnapError, SnapReader, SnapResult, SnapWriter, Snapshot};
use crate::time::SimTime;

/// Packet-loss process applied per data message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossModel {
    /// No loss.
    None,
    /// Independent (Bernoulli) loss with the given probability in permille
    /// (0..=1000).
    Bernoulli {
        /// Loss probability, permille.
        permille: u16,
    },
    /// Two-state Gilbert–Elliott loss: a Markov chain alternates between a
    /// good state (no loss) and a bad state (bursty loss). All probabilities
    /// are per data message, in permille.
    GilbertElliott {
        /// Probability of moving good → bad, permille.
        to_bad_permille: u16,
        /// Probability of moving bad → good, permille.
        to_good_permille: u16,
        /// Loss probability while in the bad state, permille.
        bad_loss_permille: u16,
    },
}

/// Declarative link impairment configuration, carried inside
/// [`ChannelParams`](crate::channel::ChannelParams) (both endpoints and every
/// proxy handshake must agree on it, exactly like latency).
///
/// The per-direction random stream is seeded from `seed` mixed with the
/// endpoint direction tag ([`ChannelEnd::dir`](crate::channel::ChannelEnd::dir)),
/// so the two directions of one link are impaired independently but
/// reproducibly — independent of process boundaries or partitioning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Impairment {
    /// Loss process.
    pub loss: LossModel,
    /// Maximum extra one-way delay added per delivered packet, drawn
    /// uniformly from `[0, jitter_max]`. Zero disables jitter.
    pub jitter_max: SimTime,
    /// Probability (permille) of holding a packet back so that the *next*
    /// data message overtakes it (one-slot reordering). Zero disables.
    pub reorder_permille: u16,
    /// Epoch length of slow rate variation. Within one epoch every packet
    /// gets the same extra delay (a hash of the epoch number); across epochs
    /// the extra delay varies in `[0, rate_jitter_max]`. Zero disables.
    pub rate_period: SimTime,
    /// Maximum per-epoch extra delay of the rate-variation process.
    pub rate_jitter_max: SimTime,
    /// Seed of the per-direction impairment streams.
    pub seed: u64,
}

impl Impairment {
    /// The disabled impairment: a clean link. This is the default everywhere.
    pub const fn none() -> Self {
        Impairment {
            loss: LossModel::None,
            jitter_max: SimTime::ZERO,
            reorder_permille: 0,
            rate_period: SimTime::ZERO,
            rate_jitter_max: SimTime::ZERO,
            seed: 0,
        }
    }

    /// True when every impairment dimension is disabled (the hot-path check:
    /// clean links skip the impairment machinery entirely).
    pub fn is_none(&self) -> bool {
        matches!(self.loss, LossModel::None)
            && self.jitter_max == SimTime::ZERO
            && self.reorder_permille == 0
            && (self.rate_period == SimTime::ZERO || self.rate_jitter_max == SimTime::ZERO)
    }

    /// Independent loss with probability `permille`/1000.
    pub fn with_bernoulli_loss(mut self, permille: u16) -> Self {
        self.loss = LossModel::Bernoulli { permille };
        self
    }

    /// Gilbert–Elliott bursty loss (see [`LossModel::GilbertElliott`]).
    pub fn with_gilbert_elliott(
        mut self,
        to_bad_permille: u16,
        to_good_permille: u16,
        bad_loss_permille: u16,
    ) -> Self {
        self.loss = LossModel::GilbertElliott {
            to_bad_permille,
            to_good_permille,
            bad_loss_permille,
        };
        self
    }

    /// Uniform extra delay in `[0, jitter_max]` per delivered packet.
    pub fn with_jitter(mut self, jitter_max: SimTime) -> Self {
        self.jitter_max = jitter_max;
        self
    }

    /// One-slot reordering with probability `permille`/1000.
    pub fn with_reorder(mut self, permille: u16) -> Self {
        self.reorder_permille = permille;
        self
    }

    /// Slow rate variation: per `period`-long epoch, a pseudo-random extra
    /// delay in `[0, max_extra]` applied to every packet of the epoch.
    pub fn with_rate_variation(mut self, period: SimTime, max_extra: SimTime) -> Self {
        self.rate_period = period;
        self.rate_jitter_max = max_extra;
        self
    }

    /// Set the stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Check every probability is a valid permille value (0..=1000).
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let check = |name: &str, v: u16| {
            if v > 1000 {
                Err(format!(
                    "{name} is {v}, must be a permille value (0..=1000)"
                ))
            } else {
                Ok(())
            }
        };
        match self.loss {
            LossModel::None => {}
            LossModel::Bernoulli { permille } => check("loss permille", permille)?,
            LossModel::GilbertElliott {
                to_bad_permille,
                to_good_permille,
                bad_loss_permille,
            } => {
                check("gilbert-elliott to-bad permille", to_bad_permille)?;
                check("gilbert-elliott to-good permille", to_good_permille)?;
                check("gilbert-elliott bad-loss permille", bad_loss_permille)?;
            }
        }
        check("reorder permille", self.reorder_permille)
    }

    /// Encode the 41-byte block inside the channel parameter block
    /// ([`ChannelParams::encode`](crate::channel::ChannelParams::encode)):
    /// u8 loss-model kind (0 none, 1 Bernoulli, 2 Gilbert–Elliott), three
    /// u16 permille slots (unused ones zero), u64 jitter ps, u16 reorder
    /// permille, u64 rate period ps, u64 rate jitter ps, u64 seed.
    pub fn encode(&self, w: &mut SnapWriter) {
        let (kind, p0, p1, p2) = match self.loss {
            LossModel::None => (0u8, 0u16, 0u16, 0u16),
            LossModel::Bernoulli { permille } => (1, permille, 0, 0),
            LossModel::GilbertElliott {
                to_bad_permille,
                to_good_permille,
                bad_loss_permille,
            } => (2, to_bad_permille, to_good_permille, bad_loss_permille),
        };
        w.u8(kind);
        w.u16(p0);
        w.u16(p1);
        w.u16(p2);
        w.time(self.jitter_max);
        w.u16(self.reorder_permille);
        w.time(self.rate_period);
        w.time(self.rate_jitter_max);
        w.u64(self.seed);
    }

    /// Decode a block written by [`Impairment::encode`]. Truncation, an
    /// unknown loss-model kind and an out-of-range permille are errors.
    pub fn decode(r: &mut SnapReader) -> SnapResult<Impairment> {
        let kind = r.u8()?;
        let (p0, p1, p2) = (r.u16()?, r.u16()?, r.u16()?);
        let loss = match kind {
            0 => LossModel::None,
            1 => LossModel::Bernoulli { permille: p0 },
            2 => LossModel::GilbertElliott {
                to_bad_permille: p0,
                to_good_permille: p1,
                bad_loss_permille: p2,
            },
            _ => return Err(SnapError::Corrupt(format!("loss-model kind {kind}"))),
        };
        let imp = Impairment {
            loss,
            jitter_max: r.time()?,
            reorder_permille: r.u16()?,
            rate_period: r.time()?,
            rate_jitter_max: r.time()?,
            seed: r.u64()?,
        };
        imp.validate().map_err(SnapError::Corrupt)?;
        Ok(imp)
    }
}

impl Default for Impairment {
    fn default() -> Self {
        Impairment::none()
    }
}

/// Mix a seed with a small tag (direction, port, name hash) into a non-zero
/// xorshift state. Shared by every impairment-style PRNG in the workspace so
/// streams derived from the same seed but different tags are decorrelated.
pub fn mix_seed(seed: u64, tag: u64) -> u64 {
    (seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// The workspace's seeded PRNG: xorshift64*, dependency-free. Impairments,
/// AQM disciplines and workload generators each own one and snapshot its
/// [`state`](Rng::state) as a plain `u64`; the property suites draw their
/// inputs from it (see [`check_cases`]). A zero state stays zero, so seed
/// it through [`mix_seed`] or force the low bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rng(u64);

impl Rng {
    /// A generator resuming from `state` (a seed, or a snapshotted state).
    pub const fn new(state: u64) -> Self {
        Rng(state)
    }

    /// Advance the state and return the next output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The next output reduced into `0..n` (`next_u64() % n`; `n > 0`).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// The current state, as [`Rng::new`] takes it back.
    pub fn state(&self) -> u64 {
        self.0
    }
}

/// Run a property over `cases` seeded cases, case `i` drawing its inputs
/// from `Rng::new(mix_seed(seed, i))`. A failing case panics naming the
/// suite, the seed and the case index, which is all it takes to replay it;
/// there is no shrinking.
pub fn check_cases(suite: &str, seed: u64, cases: u64, mut property: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let mut rng = Rng::new(mix_seed(seed, case));
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&mut rng)));
        if let Err(cause) = run {
            let msg = (cause.downcast_ref::<String>().map(String::as_str))
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("");
            panic!("{suite}: seed {seed:#x} case {case} failed: {msg}");
        }
    }
}

/// FNV-1a over a string — the workspace-standard way to derive per-entity
/// seeds (per link, per switch) from a global scenario seed plus a name, so
/// every partition of a distributed run derives identical streams.
pub fn fnv1a_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Per-direction runtime state of one impaired channel endpoint. Owned by
/// [`SyncPort`](crate::sync::SyncPort) and snapshotted with it.
#[derive(Debug)]
pub struct ImpairState {
    /// Configuration (from the channel parameters at construction).
    // snap-skip: configuration, re-derived from the channel on restore
    cfg: Impairment,
    /// Decision stream; advances only on data sends.
    rng: Rng,
    /// Gilbert–Elliott chain state: currently in the bad (lossy) state.
    in_bad: bool,
    /// One-slot reorder holdback: a packet waiting for its successor to
    /// overtake it. Flushed on the next data send; dropped at finalize.
    deferred: Option<(SimTime, MsgType, PktBuf)>,
    /// Packets dropped by the loss process (including a deferred packet
    /// discarded at finalize).
    pub lost: u64,
    /// Packets delivered with a non-zero extra delay.
    pub delayed: u64,
    /// Packets held back for one-slot reordering.
    pub reordered: u64,
}

impl ImpairState {
    /// State for one endpoint direction (`dir` is 0 for the `.0` end of the
    /// pair, 1 for the `.1` end — see `ChannelEnd::dir`).
    pub fn new(cfg: Impairment, dir: u8) -> Self {
        ImpairState {
            cfg,
            rng: Rng::new(mix_seed(cfg.seed, dir as u64)),
            in_bad: false,
            deferred: None,
            lost: 0,
            delayed: 0,
            reordered: 0,
        }
    }

    /// Whether this endpoint impairs traffic at all.
    pub fn active(&self) -> bool {
        !self.cfg.is_none()
    }

    /// A packet is currently held back for reordering.
    pub fn has_deferred(&self) -> bool {
        self.deferred.is_some()
    }

    /// Take the held-back packet (finalize drop, or flush on the next send).
    pub fn take_deferred(&mut self) -> Option<(SimTime, MsgType, PktBuf)> {
        self.deferred.take()
    }

    /// Park a packet in the reorder slot (the caller checked it is free).
    pub fn defer(&mut self, ts: SimTime, ty: MsgType, payload: PktBuf) {
        debug_assert!(self.deferred.is_none());
        self.deferred = Some((ts, ty, payload));
        self.reordered += 1;
    }

    fn draw_permille(&mut self) -> u16 {
        self.rng.below(1000) as u16
    }

    /// Per-packet loss decision (advances the Gilbert–Elliott chain).
    pub fn decide_loss(&mut self) -> bool {
        match self.cfg.loss {
            LossModel::None => false,
            LossModel::Bernoulli { permille } => permille > 0 && self.draw_permille() < permille,
            LossModel::GilbertElliott {
                to_bad_permille,
                to_good_permille,
                bad_loss_permille,
            } => {
                let flip = self.draw_permille();
                if self.in_bad {
                    if flip < to_good_permille {
                        self.in_bad = false;
                    }
                } else if flip < to_bad_permille {
                    self.in_bad = true;
                }
                self.in_bad && self.draw_permille() < bad_loss_permille
            }
        }
    }

    /// Extra delay for a packet whose un-impaired arrival is `base`: jitter
    /// (uniform, one draw) plus the rate-variation epoch offset (stateless
    /// hash of the epoch number — consumes no stream state).
    pub fn extra_delay(&mut self, base: SimTime) -> SimTime {
        let mut extra: u64 = 0;
        let jit = self.cfg.jitter_max.as_ps();
        if jit > 0 {
            extra += self.rng.below(jit + 1);
        }
        let period = self.cfg.rate_period.as_ps();
        let rmax = self.cfg.rate_jitter_max.as_ps();
        if period > 0 && rmax > 0 {
            let epoch = base.as_ps() / period;
            // splitmix64-style stateless hash: same epoch -> same extra.
            let mut z = mix_seed(self.cfg.seed, epoch ^ 0xA076_1D64_78BD_642F);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            extra += (z ^ (z >> 31)) % (rmax + 1);
        }
        if extra > 0 {
            self.delayed += 1;
        }
        SimTime::from_ps(extra)
    }

    /// Per-packet reorder decision (only when the holdback slot is free).
    pub fn decide_defer(&mut self) -> bool {
        self.cfg.reorder_permille > 0
            && self.deferred.is_none()
            && self.draw_permille() < self.cfg.reorder_permille
    }
}

impl Snapshot for ImpairState {
    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        w.u64(self.rng.state());
        w.bool(self.in_bad);
        match &self.deferred {
            Some((ts, ty, payload)) => {
                w.bool(true);
                w.time(*ts);
                w.u8(*ty);
                w.bytes(payload);
            }
            None => w.bool(false),
        }
        w.u64(self.lost);
        w.u64(self.delayed);
        w.u64(self.reordered);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.rng = Rng::new(r.u64()?);
        self.in_bad = r.bool()?;
        self.deferred = if r.bool()? {
            let ts = r.time()?;
            let ty = r.u8()?;
            let payload = r.bytes()?;
            Some((ts, ty, PktBuf::from_vec(payload)))
        } else {
            None
        };
        self.lost = r.u64()?;
        self.delayed = r.u64()?;
        self.reordered = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        let mut st = ImpairState::new(Impairment::none(), 0);
        assert!(!st.active());
        for _ in 0..100 {
            assert!(!st.decide_loss());
            assert_eq!(st.extra_delay(SimTime::from_us(1)), SimTime::ZERO);
            assert!(!st.decide_defer());
        }
    }

    #[test]
    fn bernoulli_loss_rate_is_roughly_right_and_reproducible() {
        let cfg = Impairment::none().with_bernoulli_loss(100).with_seed(7);
        let mut a = ImpairState::new(cfg, 0);
        let mut b = ImpairState::new(cfg, 0);
        let mut losses = 0;
        for _ in 0..10_000 {
            let la = a.decide_loss();
            assert_eq!(la, b.decide_loss(), "same seed, same stream");
            losses += la as u32;
        }
        // 10% nominal; allow generous slack for a 10k-sample run.
        assert!((700..1300).contains(&losses), "loss count {losses}");
    }

    /// The two directions of one link draw from decorrelated streams even
    /// though they share the configured seed.
    #[test]
    fn direction_tag_decorrelates_streams() {
        let cfg = Impairment::none().with_bernoulli_loss(500).with_seed(7);
        let mut d0 = ImpairState::new(cfg, 0);
        let mut d1 = ImpairState::new(cfg, 1);
        let s0: Vec<bool> = (0..64).map(|_| d0.decide_loss()).collect();
        let s1: Vec<bool> = (0..64).map(|_| d1.decide_loss()).collect();
        assert_ne!(s0, s1);
    }

    #[test]
    fn gilbert_elliott_produces_bursts() {
        let cfg = Impairment::none()
            .with_gilbert_elliott(50, 300, 900)
            .with_seed(3);
        let mut st = ImpairState::new(cfg, 0);
        let seq: Vec<bool> = (0..20_000).map(|_| st.decide_loss()).collect();
        let losses = seq.iter().filter(|l| **l).count();
        assert!(losses > 200, "bad state visited ({losses} losses)");
        // Bursts: at least one run of >= 3 consecutive losses.
        let mut run = 0usize;
        let mut max_run = 0usize;
        for l in &seq {
            if *l {
                run += 1;
                max_run = max_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(max_run >= 3, "longest loss burst {max_run}");
    }

    #[test]
    fn jitter_bounded_and_rate_variation_constant_within_epoch() {
        let cfg = Impairment::none()
            .with_jitter(SimTime::from_ns(100))
            .with_seed(9);
        let mut st = ImpairState::new(cfg, 0);
        for _ in 0..1000 {
            let e = st.extra_delay(SimTime::from_us(5));
            assert!(e <= SimTime::from_ns(100));
        }
        let cfg = Impairment::none()
            .with_rate_variation(SimTime::from_us(10), SimTime::from_ns(500))
            .with_seed(9);
        let mut st = ImpairState::new(cfg, 0);
        let e1 = st.extra_delay(SimTime::from_ps(10_000_001));
        let e2 = st.extra_delay(SimTime::from_ps(19_999_999));
        assert_eq!(e1, e2, "same epoch, same extra");
        assert!(e1 <= SimTime::from_ns(500));
    }

    #[test]
    fn wire_roundtrip_and_validation() {
        let imp = Impairment::none()
            .with_gilbert_elliott(10, 400, 800)
            .with_jitter(SimTime::from_ns(250))
            .with_reorder(5)
            .with_rate_variation(SimTime::from_us(50), SimTime::from_us(1))
            .with_seed(0xDEAD_BEEF);
        let mut w = SnapWriter::new();
        imp.encode(&mut w);
        let w = w.into_vec();
        assert_eq!(w.len(), 41);
        let decoded = |b: &[u8]| Impairment::decode(&mut SnapReader::new(b)).ok();
        assert_eq!(decoded(&w), Some(imp));
        // Truncated block rejected.
        assert_eq!(decoded(&w[..w.len() - 1]), None);
        // Unknown loss kind rejected.
        let mut bad = w.clone();
        bad[0] = 9;
        assert_eq!(decoded(&bad), None);
        // Out-of-range permille rejected.
        let mut bad = w;
        bad[15..17].copy_from_slice(&2000u16.to_le_bytes());
        assert_eq!(decoded(&bad), None);
        // validate() mirrors the wire check.
        assert!(Impairment::none()
            .with_bernoulli_loss(1001)
            .validate()
            .is_err());
        assert!(Impairment::none().with_reorder(1000).validate().is_ok());
    }

    #[test]
    fn snapshot_roundtrip() {
        let cfg = Impairment::none()
            .with_bernoulli_loss(100)
            .with_reorder(100)
            .with_seed(11);
        let mut st = ImpairState::new(cfg, 1);
        for _ in 0..57 {
            st.decide_loss();
        }
        st.defer(SimTime::from_us(3), 4, PktBuf::from_vec(vec![1, 2, 3]));
        st.lost = 5;
        let mut w = SnapWriter::new();
        st.snapshot(&mut w).unwrap();
        let buf = w.into_vec();
        let mut back = ImpairState::new(cfg, 1);
        back.restore(&mut SnapReader::new(&buf)).unwrap();
        assert_eq!(back.rng, st.rng);
        assert_eq!(back.lost, 5);
        assert_eq!(back.reordered, 1);
        let (ts, ty, payload) = back.take_deferred().unwrap();
        assert_eq!((ts, ty), (SimTime::from_us(3), 4));
        assert_eq!(payload.as_slice(), &[1, 2, 3]);
        // The PRNG stream continues identically after restore.
        let mut cont = ImpairState::new(cfg, 1);
        for _ in 0..57 {
            cont.decide_loss();
        }
        assert_eq!(st.decide_loss(), cont.decide_loss());
    }
}
