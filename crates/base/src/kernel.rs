//! The component kernel: SimBricks adapter plus event loop.
//!
//! Every component simulator (host, NIC, network, storage device) is written
//! as a [`Model`]: a state machine that reacts to incoming interface messages
//! and to its own timers. The [`Kernel`] owns the component's channels and
//! timer queue and enforces the synchronization protocol of §5.5: it advances
//! the component's virtual clock only as far as every synchronized peer has
//! promised, emits SYNC messages for liveness, timestamps outgoing messages
//! with the link latency, and delivers incoming messages at exactly their
//! timestamps.
//!
//! The kernel exposes a non-blocking [`Kernel::step`], so one thread can step
//! many components round robin. The `simbricks-runner` crate's partition
//! loop does exactly that, on the caller's thread, on one thread per
//! partition, or in one process per partition.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::channel::ChannelEnd;
use crate::event::EventQueue;
use crate::log::EventLog;
use crate::pktbuf::{BufPool, PktBuf};
use crate::slot::{MsgType, OwnedMsg};
use crate::snap::{SnapError, SnapReader, SnapResult, SnapWriter, Snapshot};
use crate::stats::KernelStats;
use crate::sync::SyncPort;
use crate::time::SimTime;

/// Index of a channel attached to a kernel (assigned by [`Kernel::add_port`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub usize);

/// What a blocked step did, reported by [`Kernel::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WakeHint {
    /// True when the blocked step still moved messages: it drained input
    /// off a channel, flushed backed-up output, or forwarded a promise gain
    /// (hierarchical sync). A peer may progress on what moved, so a
    /// deadlock detector must not count this step as idle.
    pub moved: bool,
}

/// Outcome of one [`Kernel::step`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// At least one event was processed or the clock advanced.
    Progressed,
    /// No progress possible until a peer sends a promise; the [`WakeHint`]
    /// tells whether the step still moved messages.
    Blocked(WakeHint),
    /// The component is quiesced at a checkpoint pause time (see
    /// [`Kernel::set_pause_at`]): every event strictly below the pause time
    /// has been processed, nothing at or beyond it has, and a promise
    /// covering the pause time has been sent to every peer. The kernel stays
    /// paused (polling its ports so in-flight messages drain) until
    /// [`Kernel::clear_pause`].
    Paused,
    /// The component reached the end of its simulation.
    Finished,
}

/// A declared lookahead for hierarchical sync: a bound, asserted by the
/// model, on how quickly an input can cause a send on a given port. The
/// kernel turns the declaration into wider promises; a false declaration
/// breaks causality, so each flavor states its obligation precisely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncLookahead {
    /// Sends on this port are never an immediate reaction to input on the
    /// *same* port (no hairpin): every input-triggered send is caused by an
    /// input on a different port, at least the carried delay earlier.
    /// Store-and-forward switches satisfy this with a delay of zero — a
    /// frame is never echoed to its ingress port. Promises widen through
    /// the exclude-one minimum of the other ports' input horizons.
    ExcludeSelf(SimTime),
    /// Every input-triggered send on this port — including replies to input
    /// on the port itself — happens at least the carried delay after the
    /// triggering input (a modeled reaction latency). Promises widen
    /// through the minimum over *all* ports' input horizons plus the delay,
    /// which is the classic Chandy–Misra lookahead and the only sound
    /// declaration for a component whose single link both receives requests
    /// and carries the replies.
    Reaction(SimTime),
}

/// A component simulator's behaviour.
///
/// All methods receive the kernel so the model can consult the clock, send
/// messages, schedule timers, write the log, or terminate the simulation.
pub trait Model: Send {
    /// Called once before the first event, at virtual time zero.
    fn init(&mut self, _k: &mut Kernel) {}

    /// A data message arrived on `port` and is due for processing now.
    fn on_msg(&mut self, k: &mut Kernel, port: PortId, msg: OwnedMsg);

    /// A timer scheduled through [`Kernel::schedule_at`] fired.
    fn on_timer(&mut self, _k: &mut Kernel, _token: u64) {}

    /// Called once when the simulation ends (end time reached or quit).
    ///
    /// Under hierarchical sync, widened promises may already cover times
    /// beyond `now` when this runs, so `finish` must not send data messages
    /// (none of the built-in models do); emit final state through the log or
    /// statistics instead.
    fn finish(&mut self, _k: &mut Kernel) {}

    /// Declared forwarding lookahead for hierarchical sync (`None`, the
    /// default, declares nothing). The kernel uses a declaration to widen
    /// the port's promises beyond `now + Δ` — see [`SyncLookahead`] for the
    /// two declaration flavors and the obligations each one places on the
    /// model. Sends performed by timers the model has already scheduled are
    /// always covered separately (the widening takes the earliest pending
    /// timer into account), so declarations only constrain input-triggered
    /// sends.
    fn sync_lookahead(&self) -> Option<SyncLookahead> {
        None
    }

    /// Per-port refinement of [`Model::sync_lookahead`]: the declaration for
    /// sends on `port` specifically. The default delegates to the model-wide
    /// declaration; override it when ports differ — a NIC, for example, can
    /// declare zero exclude-self lookahead on its Ethernet port (frames
    /// leave only in response to DMA timers and doorbells on the PCIe side)
    /// while staying undeclared on PCIe, where a doorbell write can hairpin
    /// into an immediate DMA read on the same link.
    fn sync_lookahead_on(&self, port: PortId) -> Option<SyncLookahead> {
        let _ = port;
        self.sync_lookahead()
    }

    /// Checkpoint support: append this model's dynamic state to `w` (see
    /// [`Snapshot`]). The default declines, so checkpointing an experiment
    /// that contains a model without snapshot support fails with a clear
    /// error instead of silently losing state.
    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        let _ = w;
        Err(SnapError::Unsupported(
            "model does not implement Model::snapshot".into(),
        ))
    }

    /// Checkpoint support: load state written by [`Model::snapshot`] back
    /// into this freshly rebuilt model.
    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        let _ = r;
        Err(SnapError::Unsupported(
            "model does not implement Model::restore".into(),
        ))
    }
}

/// The per-component simulation kernel.
pub struct Kernel {
    name: String,
    now: SimTime,
    end: SimTime,
    ports: Vec<SyncPort>,
    timers: EventQueue<u64>,
    log: EventLog,
    stats: KernelStats,
    started: bool,
    finished: bool,
    quit: bool,
    /// Checkpoint pause: virtual time at which the kernel must quiesce (all
    /// events strictly below processed, nothing at or beyond touched).
    pause_at: Option<SimTime>,
    /// Set once the kernel reached its pause time and emitted the pause
    /// promise on every port.
    paused: bool,
    stop_flag: Option<Arc<AtomicBool>>,
    /// Emulation-mode wall-clock anchor: virtual nanoseconds the clock may
    /// advance per elapsed wall-clock nanosecond. `None` (the default) leaves
    /// clock advancement purely event-driven (synchronized simulation).
    wall_scale: Option<f64>,
    wall_start: Option<std::time::Instant>,
    /// Per-component packet-buffer arena, shared by every port attached to
    /// this kernel (and available to the model through [`Kernel::pool`]).
    pool: BufPool,
    /// Whether any attached channel is unsynchronized (set by
    /// [`Kernel::add_port`]).
    has_unsync: bool,
    /// Hierarchical sync domains enabled (see [`Kernel::enable_hier_sync`]).
    hier: bool,
    /// Sealed domain membership: indices into `ports`, one vec per domain,
    /// built lazily on the first hierarchical step.
    domains: Vec<Vec<usize>>,
    domains_built: bool,
    /// Per-port forwarding-lookahead declarations (parallel to `ports`),
    /// captured from [`Model::sync_lookahead_on`] alongside the domain build.
    port_look: Vec<Option<SyncLookahead>>,
}

impl Kernel {
    /// Create a kernel that simulates until virtual time `end` (exclusive).
    pub fn new(name: impl Into<String>, end: SimTime) -> Self {
        Kernel {
            name: name.into(),
            now: SimTime::ZERO,
            end,
            ports: Vec::new(),
            timers: EventQueue::new(),
            log: EventLog::disabled(),
            stats: KernelStats::default(),
            started: false,
            finished: false,
            quit: false,
            pause_at: None,
            paused: false,
            stop_flag: None,
            wall_scale: None,
            wall_start: None,
            pool: BufPool::new(),
            has_unsync: false,
            hier: false,
            domains: Vec::new(),
            domains_built: false,
            port_look: Vec::new(),
        }
    }

    /// Attach a channel endpoint; returns the port id used in [`Model::on_msg`].
    /// The endpoint's receive side is rebased onto this kernel's buffer pool
    /// so pool counters aggregate per component.
    pub fn add_port(&mut self, mut chan: ChannelEnd) -> PortId {
        chan.set_pool(self.pool.clone());
        self.has_unsync |= !chan.sync_enabled();
        self.ports.push(SyncPort::new(chan));
        PortId(self.ports.len() - 1)
    }

    /// Switch this kernel to hierarchical sync domains: SYNC emission is
    /// batched per domain epoch instead of per port, promises are widened
    /// through the earliest local cause of a future send (next timer,
    /// earliest uncleared input, plus a declared [`Model::sync_lookahead`]),
    /// and emissions that would not raise the peer's horizon are suppressed.
    /// Simulation results are bit-identical to the flat protocol — only the
    /// volume and cadence of SYNC messages changes.
    pub fn enable_hier_sync(&mut self) {
        self.hier = true;
        for p in &mut self.ports {
            p.set_hier(true);
        }
    }

    /// Raise the adaptive sync-interval cap of `port` beyond the default
    /// link latency Δ (hierarchical mode; the runner computes a static
    /// multi-hop path floor per port from the channel graph).
    pub fn set_port_sync_cap(&mut self, port: PortId, cap: SimTime) {
        self.ports[port.0].set_sync_cap(cap);
    }

    /// Enable timestamped event logging (disabled by default).
    pub fn enable_log(&mut self) {
        self.log = EventLog::enabled();
    }

    /// Enable event logging in fingerprint-only mode: entries are folded
    /// into per-epoch FNV accumulators instead of being materialized, so
    /// memory stays O(run length / epoch) — the mode the replay bisector
    /// records with.
    pub fn enable_fingerprint_log(&mut self, epoch: SimTime) {
        self.log = EventLog::fingerprint_only(epoch);
    }

    /// Install a shared stop flag; the orchestrator uses this to terminate
    /// unsynchronized components that have no natural end.
    pub fn set_stop_flag(&mut self, flag: Arc<AtomicBool>) {
        self.stop_flag = Some(flag);
    }

    /// Anchor this component's virtual clock to the wall clock (emulation
    /// mode, §2 "Comparison to Emulation"): the clock may advance at most
    /// `virtual_per_wall` virtual nanoseconds per elapsed wall-clock
    /// nanosecond. Without synchronization this keeps free-running components
    /// loosely aligned — exactly the guarantee (and the accuracy limitation)
    /// real emulation has. 1.0 means real time.
    pub fn set_wall_clock(&mut self, virtual_per_wall: f64) {
        self.wall_scale = Some(virtual_per_wall.max(f64::MIN_POSITIVE));
    }

    // ----- API used by models ------------------------------------------------

    /// The component's name (as given to [`Kernel::new`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time of this component.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Configured end of simulation.
    pub fn end_time(&self) -> SimTime {
        self.end
    }

    /// Number of channel endpoints attached to this kernel.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Link latency Δ of the given port.
    pub fn port_latency(&self, port: PortId) -> SimTime {
        self.ports[port.0].latency()
    }

    /// Connection id of the channel behind the given port (shared with the
    /// peer endpoint; used by the runner to reconstruct the channel graph).
    pub fn port_conn_id(&self, port: PortId) -> u64 {
        self.ports[port.0].conn_id()
    }

    /// Whether the given port's channel participates in synchronization.
    pub fn port_sync_enabled(&self, port: PortId) -> bool {
        self.ports[port.0].sync_enabled()
    }

    /// Send a data message on `port`; it will be processed by the peer at
    /// `now + Δ`.
    pub fn send(&mut self, port: PortId, ty: MsgType, payload: &[u8]) {
        let now = self.now;
        self.ports[port.0].send_data(now, ty, payload);
    }

    /// Send a data message whose payload the model already owns as a
    /// [`PktBuf`]; on queue backpressure the buffer moves into the port's
    /// outbox without a copy.
    pub fn send_buf(&mut self, port: PortId, ty: MsgType, payload: PktBuf) {
        let now = self.now;
        self.ports[port.0].send_data_buf(now, ty, payload);
    }

    /// This component's packet-buffer arena. Models allocate transmit
    /// buffers from it so the whole component shares one freelist (and one
    /// set of pool counters in [`KernelStats`]).
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }

    /// Schedule a timer at absolute virtual time `at`.
    pub fn schedule_at(&mut self, at: SimTime, token: u64) {
        debug_assert!(at >= self.now, "cannot schedule a timer in the past");
        self.timers.schedule(at.max(self.now), token);
    }

    /// Schedule a timer `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, token: u64) {
        let at = self.now.saturating_add(delay);
        self.timers.schedule(at, token);
    }

    /// Terminate this component's simulation at the current time.
    pub fn quit(&mut self) {
        self.quit = true;
    }

    /// Record a timestamped log entry (no-op unless logging is enabled).
    #[inline]
    pub fn log(&mut self, tag: &'static str, a: u64, b: u64) {
        let now = self.now;
        self.log.record(now, tag, a, b);
    }

    /// Whether event logging is enabled.
    pub fn log_enabled(&self) -> bool {
        self.log.is_enabled()
    }

    // ----- results ------------------------------------------------------------

    /// Run statistics accumulated so far (complete once finished). Pool
    /// counters always reflect the live arena.
    pub fn stats(&self) -> KernelStats {
        let mut s = self.stats;
        s.absorb_pool(self.pool.stats());
        s
    }

    /// The component's timestamped event log.
    pub fn event_log(&self) -> &EventLog {
        &self.log
    }

    /// Mutable access to the event log (the replay layer uses this to switch
    /// a restored log's recording mode before stepping on).
    pub fn event_log_mut(&mut self) -> &mut EventLog {
        &mut self.log
    }

    /// Take ownership of the event log, leaving an empty one behind.
    pub fn take_event_log(&mut self) -> EventLog {
        std::mem::take(&mut self.log)
    }

    /// Number of received-but-not-yet-delivered messages queued on the given
    /// port — the instantaneous link queue depth the replay inspector shows.
    pub fn port_pending(&self, port: PortId) -> usize {
        self.ports[port.0].pending_len()
    }

    /// One-line synchronization diagnostic for `port`: incoming horizon,
    /// standing outgoing promise, sync timer, earliest pending input, and
    /// flush/deferral flags. Quiesce-failure and deadlock reports embed this
    /// so a stuck pairwise wait is attributable without a debugger.
    pub fn port_sync_describe(&self, port: PortId) -> String {
        let p = &self.ports[port.0];
        format!(
            "horizon={} promised={} sync_due={} pending={} flushed={} raw={} deferred={}",
            p.horizon(),
            p.last_promise(),
            match p.next_sync_due() {
                Some(t) => t.to_string(),
                None => "-".into(),
            },
            match p.next_pending() {
                Some(t) => t.to_string(),
                None => "-".into(),
            },
            p.flushed(),
            p.has_raw_input(),
            p.has_deferred(),
        )
    }

    /// Whether the component has reached the end of its simulation.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    // ----- checkpointing --------------------------------------------------------

    /// Arm a checkpoint pause at virtual time `t` (exclusive: every event
    /// strictly below `t` is processed before pausing, nothing at or beyond
    /// `t` is touched). [`Kernel::step`] returns [`StepOutcome::Paused`]
    /// once quiesced; [`Kernel::clear_pause`] resumes.
    pub fn set_pause_at(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "cannot pause in the past");
        self.pause_at = Some(t);
    }

    /// Resume after a checkpoint pause (or disarm one that never fired).
    pub fn clear_pause(&mut self) {
        self.pause_at = None;
        self.paused = false;
    }

    /// Whether the kernel is currently quiesced at its pause time.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Poll every port (drain the shared queues, flush buffered sends)
    /// without running the model — used while quiescing for a checkpoint so
    /// in-flight messages settle into the ports' pending buffers.
    pub fn checkpoint_poll(&mut self) {
        for p in &mut self.ports {
            p.poll();
        }
    }

    /// Whether this kernel is fully quiesced for a checkpoint at time `t`:
    /// paused (or already finished), with every synchronized port flushed,
    /// drained, and holding the peer's `t + Δ` pause promise, so all
    /// in-flight channel state lives in the ports' pending buffers.
    pub fn quiesced_at(&self, t: SimTime) -> bool {
        (self.paused || self.finished) && self.ports.iter().all(|p| p.quiesced_at(t))
    }

    /// Serialize the kernel's complete dynamic state: clock, lifecycle
    /// flags, timer queue (with tie-break sequence numbers), per-port
    /// synchronization state including in-flight messages, the event log,
    /// and statistics. Static configuration (name, end time, port count and
    /// channel parameters) is written only for validation — restore rebuilds
    /// it from the experiment definition and rejects mismatches.
    pub fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        w.u8(1); // kernel record version
        w.str(&self.name);
        w.time(self.now);
        w.time(self.end);
        w.bool(self.started);
        w.bool(self.finished);
        w.bool(self.quit);
        self.stats.snapshot(w)?;
        self.log.snapshot(w)?;
        self.timers.snapshot_with(w, |tok, w| w.u64(*tok))?;
        w.usize(self.ports.len());
        for p in &self.ports {
            p.snapshot(w)?;
        }
        Ok(())
    }

    /// Load state written by [`Kernel::snapshot`] into this freshly rebuilt
    /// kernel. The kernel must have been reconstructed with the same name,
    /// end time, and port topology; mismatches are rejected with a clear
    /// error rather than silently misrestoring.
    pub fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        let ver = r.u8()?;
        if ver != 1 {
            return Err(SnapError::Version {
                found: ver as u16,
                expected: 1,
            });
        }
        let name = r.str()?;
        if name != self.name {
            return Err(SnapError::Corrupt(format!(
                "component name mismatch: snapshot has {name:?}, experiment built {:?}",
                self.name
            )));
        }
        self.now = r.time()?;
        let end = r.time()?;
        if end != self.end {
            return Err(SnapError::Corrupt(format!(
                "component {name:?}: end time mismatch (snapshot {end}, built {})",
                self.end
            )));
        }
        self.started = r.bool()?;
        self.finished = r.bool()?;
        self.quit = r.bool()?;
        self.stats.restore(r)?;
        self.log.restore(r)?;
        self.timers = EventQueue::restore_with(r, |r| r.u64())?;
        let nports = r.usize()?;
        if nports != self.ports.len() {
            return Err(SnapError::Corrupt(format!(
                "component {name:?}: port count mismatch (snapshot {nports}, built {})",
                self.ports.len()
            )));
        }
        for p in &mut self.ports {
            p.restore(r)?;
        }
        self.pause_at = None;
        self.paused = false;
        Ok(())
    }

    // ----- execution ------------------------------------------------------------

    /// Make bounded progress: process at most `max_steps` clock advances.
    /// Never blocks; returns [`StepOutcome::Blocked`] when waiting on peers.
    /// Each call polls every port once, so a message that reaches a ring
    /// during the call is seen by the next one.
    pub fn step(&mut self, model: &mut dyn Model, max_steps: usize) -> StepOutcome {
        if self.finished {
            return StepOutcome::Finished;
        }
        if self.paused {
            // Quiesced at the pause time: keep draining/flushing the ports
            // (peers may still be sending their pre-pause messages) but run
            // nothing model-visible.
            for p in &mut self.ports {
                p.poll();
            }
            return StepOutcome::Paused;
        }
        if !self.started {
            self.started = true;
            model.init(self);
            let now = self.now;
            for p in &mut self.ports {
                p.maybe_send_sync(now);
            }
            // Initialization may have sent messages (e.g. a device announcing
            // itself) even if nothing is deliverable locally yet; report it as
            // progress so round-robin executors keep going.
            return StepOutcome::Progressed;
        }
        if self.wall_scale.is_some() && self.wall_start.is_none() {
            // Never active in simulation mode.
            #[allow(clippy::disallowed_methods)]
            {
                // det-ok: emulation pacing throttles virtual time against the host clock by definition
                self.wall_start = Some(std::time::Instant::now());
            }
        }
        // Emulation mode: how far the wall clock currently allows the virtual
        // clock to advance.
        let wall_limit = match (self.wall_scale, self.wall_start) {
            // det-ok: wall-pacing limit only gates delivery, never timestamps.
            (Some(scale), Some(t0)) => Some(SimTime::from_ns(
                (t0.elapsed().as_nanos() as f64 * scale) as u64,
            )),
            _ => None,
        };

        if self.hier && !self.domains_built {
            // Lookahead declarations are static per model, so capture them
            // once alongside the domain build (they only matter for
            // hierarchical promise widening).
            self.port_look = (0..self.ports.len())
                .map(|i| model.sync_lookahead_on(PortId(i)))
                .collect();
            self.build_domains();
        }

        let (mut progressed, mut moved) = (false, false);
        for iter in 0..max_steps {
            if self.quit || self.stop_requested() {
                self.do_finish(model);
                return StepOutcome::Finished;
            }

            // Poll once per call. A message still on a ring carries a
            // timestamp at or above its port's horizon, hence at or above
            // the bound: nothing this call delivers (strictly below the
            // bound) or promises (at or below it) can be overtaken by it.
            if iter == 0 {
                for p in &mut self.ports {
                    moved |= p.poll();
                }
                // Unsynchronized channels deliver immediately (emulation
                // mode); only a poll fills their pending queues.
                if self.has_unsync && self.deliver_unsync(model) {
                    progressed = true;
                }
                if self.quit {
                    self.do_finish(model);
                    return StepOutcome::Finished;
                }
            }

            // One fold over the synchronized ports. The bound is strict for
            // model-visible events: every peer must have promised a time
            // strictly greater than the event time, so all same-time
            // messages have arrived and delivery order is deterministic.
            // `t_model` is the earliest pending message or timer, `t_sync`
            // the earliest SYNC due.
            let mut bound = SimTime::MAX;
            let mut t_model = self.timers.next_time().unwrap_or(SimTime::MAX);
            let mut t_sync = SimTime::MAX;
            for p in self.ports.iter().filter(|p| p.sync_enabled()) {
                bound = bound.min(p.horizon());
                t_model = t_model.min(p.next_pending().unwrap_or(SimTime::MAX));
                t_sync = t_sync.min(p.next_sync_due().unwrap_or(SimTime::MAX));
            }

            // End of simulation: permitted once nothing model-visible remains
            // below `end` and the peers have promised at least `end`. A
            // component with an open-ended horizon (`end == MAX`, typical for
            // unsynchronized emulation) never finishes this way; it waits for
            // messages until its peers disappear or the orchestrator stops it.
            if bound >= self.end
                && t_model >= self.end
                && self.pause_at.is_none_or(|p| p >= self.end)
            {
                if !self.end.is_max() {
                    self.now = self.end;
                    self.do_finish(model);
                    return StepOutcome::Finished;
                }
                let all_peers_gone = !self.ports.is_empty()
                    && self
                        .ports
                        .iter()
                        .all(|p| p.peer_gone() && p.next_pending().is_none());
                if all_peers_gone && self.timers.is_empty() {
                    self.do_finish(model);
                    return StepOutcome::Finished;
                }
            }

            // Checkpoint pause: once every peer has promised the pause time
            // and nothing model-visible remains strictly below it, advance
            // the clock to exactly the pause time, promise `pause + Δ` to
            // every peer (so they can quiesce too), and stop without
            // finishing. Events at or beyond the pause time stay queued —
            // they belong to the resumed run.
            if let Some(pause) = self.pause_at {
                if bound >= pause && t_model >= pause {
                    if pause > self.now {
                        self.now = pause;
                        self.stats.advances += 1;
                    }
                    self.paused = true;
                    let now = self.now;
                    for p in &mut self.ports {
                        p.emit_promise(now);
                        p.poll();
                    }
                    return StepOutcome::Paused;
                }
            }
            let pause_limit = self.pause_at.unwrap_or(SimTime::MAX);

            let wall_ok = |t: SimTime| wall_limit.is_none_or(|w| t <= w);
            let can_model =
                t_model < bound && t_model < self.end && t_model < pause_limit && wall_ok(t_model);
            let can_sync =
                t_sync <= bound && t_sync < self.end && t_sync < pause_limit && wall_ok(t_sync);

            let target = match (can_model, can_sync) {
                (true, true) => t_model.min(t_sync),
                (true, false) => t_model,
                (false, true) => t_sync,
                (false, false) => {
                    // Waiting for a peer promise.
                    if self.hier {
                        // Null-message backstop: a blocked kernel forwards any
                        // horizon gain its inputs imply before it blocks. This
                        // is what makes cadences wider than Δ deadlock-free:
                        // whenever a cycle of kernels is simultaneously
                        // blocked, at least one port has a promise gain
                        // (otherwise the per-link latencies telescope into a
                        // contradiction), so horizons keep rising.
                        moved |= self.emit_hier_promises(true);
                    }
                    self.stats.blocked_polls += 1;
                    return if progressed {
                        StepOutcome::Progressed
                    } else {
                        StepOutcome::Blocked(WakeHint { moved })
                    };
                }
            };

            if target > self.now {
                self.now = target;
                self.stats.advances += 1;
            }
            progressed = true;

            // Emit the SYNCs due at the new time, if any. Batch: also emit on
            // sibling ports whose SYNC becomes due within their coalescing
            // slack, so staggered per-port timers collapse into one wakeup
            // instead of several closely spaced advances.
            let now = self.now;
            if t_sync <= now {
                if self.hier {
                    self.emit_hier_promises(false);
                } else {
                    for p in &mut self.ports {
                        p.maybe_send_sync_batched(now, p.coalesce_slack());
                    }
                }
            }

            // Deliver model-visible events due at the new time.
            if can_model && t_model <= now {
                self.deliver_sync_msgs(model);
                self.fire_timers(model);
            }
        }
        StepOutcome::Progressed
    }

    /// Seal hierarchical sync domains: synchronized ports group by link
    /// latency. Deterministic (sorted by latency), so domain order never
    /// depends on execution timing.
    fn build_domains(&mut self) {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, p) in self.ports.iter().enumerate() {
            if p.sync_enabled() {
                groups.entry(p.latency().as_ps()).or_default().push(i);
            }
        }
        self.domains = groups.into_values().collect();
        self.domains_built = true;
    }

    /// Hierarchical SYNC emission at the current time.
    ///
    /// Every promise is widened through the earliest cause of a future send:
    /// the next local timer, plus the earliest input no peer has cleared yet
    /// (any future model invocation happens at or after that time, so any
    /// send it performs carries at least that time plus Δ). A port with a
    /// declared lookahead ([`Model::sync_lookahead_on`]) widens further
    /// according to the declaration flavor — see [`SyncLookahead`].
    /// Widening requires every attached channel to be synchronized — an
    /// unsynchronized input could trigger a send at any time.
    ///
    /// Emission is batched per domain epoch: once any member of a domain is
    /// due, every member gets an emission attempt (early members count as
    /// coalesced, gain-less members as suppressed). With `blocked` set the
    /// due times are ignored and only ports whose promise would actually
    /// rise emit — the liveness backstop that keeps a blocked fabric's
    /// horizons climbing. Returns whether any promise was sent.
    fn emit_hier_promises(&mut self, blocked: bool) -> bool {
        let now = self.now;
        let widen_ok = self.ports.iter().all(|p| p.sync_enabled());
        let t_timer = self.timers.next_time().unwrap_or(SimTime::MAX);
        // min1/min2 over per-port input floors, so the exclude-one minimum
        // under a declared lookahead costs one pass instead of O(ports²).
        let (mut min1, mut min2, mut arg1) = (SimTime::MAX, SimTime::MAX, usize::MAX);
        if widen_ok {
            for (i, p) in self.ports.iter().enumerate() {
                let f = p.horizon().min(p.next_pending().unwrap_or(SimTime::MAX));
                if f < min1 {
                    min2 = min1;
                    min1 = f;
                    arg1 = i;
                } else if f < min2 {
                    min2 = f;
                }
            }
        }
        let port_look = &self.port_look;
        let base_for = |i: usize| -> SimTime {
            if !widen_ok {
                return now;
            }
            let inputs = match port_look.get(i).copied().flatten() {
                // Exclude-one minimum plus forwarding delay: sends on port i
                // are caused by inputs on other ports (or timers).
                Some(SyncLookahead::ExcludeSelf(l)) => {
                    let m = if arg1 == i { min2 } else { min1 };
                    m.saturating_add(l)
                }
                // Reaction delay: any input (same port included) can cause a
                // send, but only after the declared latency.
                Some(SyncLookahead::Reaction(d)) => min1.saturating_add(d),
                // No declaration: a send can follow any input, including one
                // on the same port, immediately.
                None => min1,
            };
            t_timer.min(inputs).max(now)
        };
        let mut sent = false;
        if blocked {
            for i in 0..self.ports.len() {
                let ts = base_for(i).saturating_add(self.ports[i].latency());
                if ts > self.ports[i].last_promise() {
                    self.ports[i].send_promise(now, ts, false);
                    sent = true;
                }
            }
            return sent;
        }
        for d in 0..self.domains.len() {
            let epoch_due = self.domains[d]
                .iter()
                .any(|&i| self.ports[i].next_sync_due().is_some_and(|t| t <= now));
            if !epoch_due {
                continue;
            }
            for m in 0..self.domains[d].len() {
                let i = self.domains[d][m];
                let own_due = self.ports[i].next_sync_due().is_some_and(|t| t <= now);
                let ts = base_for(i).saturating_add(self.ports[i].latency());
                // Gain gate: emit only when the promise is worth a message —
                // at least half the port's current idle interval beyond the
                // standing promise. A due port with a stalled-but-nonzero
                // gain defers (the gain accumulates; the peer holds the
                // previous promise and cannot be starved within the cap).
                let floor = self.ports[i]
                    .last_promise()
                    .saturating_add(self.ports[i].coalesce_slack());
                if own_due {
                    if ts > floor {
                        self.ports[i].send_promise(now, ts, false);
                        sent = true;
                    } else {
                        self.ports[i].defer_sync(now);
                    }
                } else if ts > floor {
                    // Sibling pulled into the epoch early: its own due timer
                    // stays in place unless the widened promise clears the
                    // gate. Without the gate every domain member re-promises
                    // at the cadence of the *finest* port in the domain and
                    // the multi-hop cap never pays off.
                    self.ports[i].send_promise(now, ts, true);
                    sent = true;
                }
            }
        }
        sent
    }

    fn stop_requested(&self) -> bool {
        self.stop_flag
            .as_ref()
            .map(|f| f.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    fn deliver_unsync(&mut self, model: &mut dyn Model) -> bool {
        let mut any = false;
        for i in 0..self.ports.len() {
            if self.ports[i].sync_enabled() {
                continue;
            }
            while let Some(msg) = self.ports[i].pop_due(SimTime::MAX) {
                self.stats.msgs_delivered += 1;
                any = true;
                model.on_msg(self, PortId(i), msg);
                if self.quit {
                    return any;
                }
            }
        }
        any
    }

    fn deliver_sync_msgs(&mut self, model: &mut dyn Model) {
        // Poll once per call: nothing left on a ring may be due yet.
        debug_assert!(
            self.ports
                .iter()
                .all(|p| !p.sync_enabled() || p.next_raw().is_none_or(|t| t > self.now)),
            "{}: an unpolled message is due at {}",
            self.name,
            self.now
        );
        for i in 0..self.ports.len() {
            if !self.ports[i].sync_enabled() {
                continue;
            }
            loop {
                let now = self.now;
                let msg = match self.ports[i].pop_due(now) {
                    Some(m) => m,
                    None => break,
                };
                self.stats.msgs_delivered += 1;
                model.on_msg(self, PortId(i), msg);
                if self.quit {
                    return;
                }
            }
        }
    }

    fn fire_timers(&mut self, model: &mut dyn Model) {
        loop {
            let now = self.now;
            let (_, token) = match self.timers.pop_due(now) {
                Some(e) => e,
                None => break,
            };
            self.stats.timers_fired += 1;
            model.on_timer(self, token);
            if self.quit {
                return;
            }
        }
    }

    fn do_finish(&mut self, model: &mut dyn Model) {
        if self.finished {
            return;
        }
        model.finish(self);
        for p in &mut self.ports {
            p.poll();
            p.finalize();
            // Best effort: push buffered messages out so peers see them.
            p.poll();
        }
        self.finished = true;
        self.stats.final_time = self.now;
        let port_stats: Vec<_> = self.ports.iter().map(|p| p.stats()).collect();
        for ps in port_stats {
            self.stats.absorb_port(ps);
        }
        self.stats.absorb_pool(self.pool.stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{channel_pair, ChannelParams};

    /// A test model that sends `count` messages spaced `gap` apart and records
    /// every message it receives.
    struct Pinger {
        port: PortId,
        to_send: u64,
        gap: SimTime,
        received: Vec<(SimTime, Vec<u8>)>,
        seq: u64,
    }

    impl Pinger {
        fn new(port: PortId, to_send: u64, gap: SimTime) -> Self {
            Pinger {
                port,
                to_send,
                gap,
                received: Vec::new(),
                seq: 0,
            }
        }
    }

    impl Model for Pinger {
        fn init(&mut self, k: &mut Kernel) {
            if self.to_send > 0 {
                k.schedule_at(SimTime::ZERO, 0);
            }
        }
        fn on_msg(&mut self, k: &mut Kernel, _port: PortId, msg: OwnedMsg) {
            self.received
                .push((k.now().max(msg.timestamp), msg.data.to_vec()));
        }
        fn on_timer(&mut self, k: &mut Kernel, _token: u64) {
            let payload = self.seq.to_le_bytes();
            k.send(self.port, 1, &payload);
            self.seq += 1;
            if self.seq < self.to_send {
                k.schedule_in(self.gap, 0);
            }
        }
    }

    /// Step `k` to completion on the current thread, yielding to a peer
    /// thread between steps.
    fn run(k: &mut Kernel, m: &mut dyn Model) -> KernelStats {
        while k.step(m, 4096) != StepOutcome::Finished {
            std::thread::yield_now();
        }
        k.stats()
    }

    fn run_pair(end: SimTime, params: ChannelParams, na: u64, nb: u64) -> (Pinger, Pinger) {
        let (ca, cb) = channel_pair(params);
        let mut ka = Kernel::new("a", end);
        let mut kb = Kernel::new("b", end);
        let pa = ka.add_port(ca);
        let pb = kb.add_port(cb);
        let mut a = Pinger::new(pa, na, SimTime::from_ns(100));
        let mut b = Pinger::new(pb, nb, SimTime::from_ns(100));
        // Cooperative sequential execution of both components.
        loop {
            let ra = ka.step(&mut a, 64);
            let rb = kb.step(&mut b, 64);
            if ra == StepOutcome::Finished && rb == StepOutcome::Finished {
                break;
            }
            assert!(
                !(matches!(ra, StepOutcome::Blocked(_)) && matches!(rb, StepOutcome::Blocked(_))),
                "deadlock: both components blocked (a@{} b@{})",
                ka.now(),
                kb.now()
            );
        }
        (a, b)
    }

    #[test]
    fn synchronized_exchange_delivers_all_messages_at_correct_times() {
        let params = ChannelParams::default_sync();
        let (a, b) = run_pair(SimTime::from_us(100), params, 10, 10);
        assert_eq!(a.received.len(), 10);
        assert_eq!(b.received.len(), 10);
        // messages sent at i*100ns arrive at i*100ns + 500ns
        for (i, (t, data)) in b.received.iter().enumerate() {
            assert_eq!(*t, SimTime::from_ns(i as u64 * 100 + 500));
            assert_eq!(data, &(i as u64).to_le_bytes().to_vec());
        }
    }

    #[test]
    fn one_sided_traffic_still_progresses() {
        // b sends nothing: liveness must come from SYNC messages.
        let params = ChannelParams::default_sync();
        let (a, b) = run_pair(SimTime::from_us(50), params, 5, 0);
        assert_eq!(b.received.len(), 5);
        assert!(a.received.is_empty());
    }

    #[test]
    fn unsynchronized_exchange_delivers_messages() {
        let params = ChannelParams::default_unsync();
        let (ca, cb) = channel_pair(params);
        let mut ka = Kernel::new("a", SimTime::from_us(10));
        let mut kb = Kernel::new("b", SimTime::from_us(10));
        let pa = ka.add_port(ca);
        let pb = kb.add_port(cb);
        let mut a = Pinger::new(pa, 5, SimTime::from_ns(100));
        let mut b = Pinger::new(pb, 0, SimTime::from_ns(100));
        // Drive a to completion first, then b: emulation mode does not need
        // interleaving for correctness.
        while ka.step(&mut a, 64) != StepOutcome::Finished {}
        // b has no own events; it must still receive a's messages.
        for _ in 0..100 {
            if kb.step(&mut b, 64) == StepOutcome::Finished {
                break;
            }
        }
        assert_eq!(b.received.len(), 5);
    }

    #[test]
    fn different_latencies_respected() {
        let params = ChannelParams::default_sync().with_latency(SimTime::from_us(2));
        let (_a, b) = run_pair(SimTime::from_us(100), params, 3, 0);
        assert_eq!(b.received[0].0, SimTime::from_us(2));
        assert_eq!(b.received[1].0, SimTime::from_ns(2100));
    }

    #[test]
    fn stats_reflect_traffic_and_syncs() {
        let params = ChannelParams::default_sync();
        let (ca, cb) = channel_pair(params);
        let mut ka = Kernel::new("a", SimTime::from_us(20));
        let mut kb = Kernel::new("b", SimTime::from_us(20));
        let pa = ka.add_port(ca);
        let pb = kb.add_port(cb);
        let mut a = Pinger::new(pa, 4, SimTime::from_ns(100));
        let mut b = Pinger::new(pb, 0, SimTime::from_ns(100));
        loop {
            let ra = ka.step(&mut a, 64);
            let rb = kb.step(&mut b, 64);
            if ra == StepOutcome::Finished && rb == StepOutcome::Finished {
                break;
            }
        }
        let sa = ka.stats();
        let sb = kb.stats();
        assert_eq!(sa.data_sent, 4);
        assert_eq!(sb.data_received, 4);
        assert_eq!(sb.msgs_delivered, 4);
        assert!(sa.syncs_sent > 0, "sync messages keep the pair live");
        assert!(sb.syncs_sent > 0);
        assert_eq!(sa.final_time, SimTime::from_us(20));
        assert_eq!(sb.final_time, SimTime::from_us(20));
    }

    #[test]
    fn quit_ends_simulation_early() {
        struct Quitter;
        impl Model for Quitter {
            fn init(&mut self, k: &mut Kernel) {
                k.schedule_at(SimTime::from_ns(300), 7);
            }
            fn on_msg(&mut self, _k: &mut Kernel, _p: PortId, _m: OwnedMsg) {}
            fn on_timer(&mut self, k: &mut Kernel, token: u64) {
                assert_eq!(token, 7);
                k.quit();
            }
        }
        let mut k = Kernel::new("q", SimTime::from_sec(1));
        let mut m = Quitter;
        let stats = run(&mut k, &mut m);
        assert_eq!(stats.final_time, SimTime::from_ns(300));
        assert!(k.is_finished());
    }

    #[test]
    fn stop_flag_terminates_component() {
        struct Idle;
        impl Model for Idle {
            fn on_msg(&mut self, _k: &mut Kernel, _p: PortId, _m: OwnedMsg) {}
        }
        // Unsynchronized idle component never finishes on its own, the
        // orchestrator stops it through the flag.
        let mut k = Kernel::new("idle", SimTime::MAX);
        let flag = Arc::new(AtomicBool::new(false));
        k.set_stop_flag(flag.clone());
        let mut m = Idle;
        // The first step only runs initialization; after that the idle
        // component blocks until the orchestrator raises the stop flag.
        assert_eq!(k.step(&mut m, 16), StepOutcome::Progressed);
        let outcome = k.step(&mut m, 16);
        match outcome {
            StepOutcome::Blocked(hint) => {
                assert!(!hint.moved, "an idle kernel without ports moves nothing");
            }
            other => panic!("expected Blocked, got {other:?}"),
        }
        flag.store(true, Ordering::Relaxed);
        assert_eq!(k.step(&mut m, 16), StepOutcome::Finished);
    }

    /// A kernel wired to itself through one loopback channel: the one
    /// topology in which a message reaches a ring during a `Sequential`
    /// step call. Polled only at the next call, it must still be delivered
    /// at its timestamp, in order, and the kernel must finish at `end`.
    #[test]
    fn loopback_kernel_delivers_its_own_messages_in_order() {
        struct Echo {
            out: PortId,
            back: PortId,
            to_send: u64,
            got: Vec<(SimTime, PortId, SimTime)>,
        }
        impl Model for Echo {
            fn init(&mut self, k: &mut Kernel) {
                k.schedule_at(SimTime::ZERO, 0);
            }
            fn on_timer(&mut self, k: &mut Kernel, _token: u64) {
                k.send(self.out, 1, b"ping");
                self.to_send -= 1;
                if self.to_send > 0 {
                    k.schedule_in(SimTime::from_ns(70), 0);
                }
            }
            fn on_msg(&mut self, k: &mut Kernel, port: PortId, msg: OwnedMsg) {
                self.got.push((k.now(), port, msg.timestamp));
                if port == self.back {
                    k.send(self.back, 2, b"pong");
                }
            }
        }
        let (ca, cb) = channel_pair(ChannelParams::default_sync());
        let end = SimTime::from_us(20);
        let mut k = Kernel::new("loop", end);
        let (out, back) = (k.add_port(ca), k.add_port(cb));
        let mut m = Echo {
            out,
            back,
            to_send: 40,
            got: Vec::new(),
        };
        while !k.is_finished() {
            if let StepOutcome::Blocked(hint) = k.step(&mut m, 64) {
                assert!(hint.moved, "a loopback kernel deadlocked at {}", k.now());
            }
        }
        assert_eq!(k.stats().final_time, end);
        // Pings leave at i * 70 ns and arrive Δ = 500 ns later on `back`;
        // each pong arrives on `out` another Δ after that.
        let mut want: Vec<(SimTime, PortId)> = (0..40)
            .flat_map(|i| {
                let ping = SimTime::from_ns(i * 70 + 500);
                [(ping, back), (ping + SimTime::from_ns(500), out)]
            })
            .collect();
        want.sort();
        let got: Vec<(SimTime, PortId)> = m.got.iter().map(|&(now, p, _)| (now, p)).collect();
        assert_eq!(got, want, "delivered in timestamp order");
        assert!(m.got.iter().all(|&(now, _, ts)| now == ts));
    }

    #[test]
    fn threaded_run_of_a_synchronized_pair() {
        let params = ChannelParams::default_sync();
        let (ca, cb) = channel_pair(params);
        let end = SimTime::from_us(200);
        let h = std::thread::spawn(move || {
            let mut k = Kernel::new("a", end);
            let p = k.add_port(ca);
            let mut m = Pinger::new(p, 50, SimTime::from_ns(200));
            run(&mut k, &mut m);
            (k.stats(), m.received.len())
        });
        let mut k = Kernel::new("b", end);
        let p = k.add_port(cb);
        let mut m = Pinger::new(p, 50, SimTime::from_ns(200));
        run(&mut k, &mut m);
        let (sa, a_rx) = h.join().unwrap();
        assert_eq!(a_rx, 50);
        assert_eq!(m.received.len(), 50);
        assert_eq!(sa.data_sent, 50);
    }

    /// Checkpoint pause: both kernels of a synchronized pair quiesce at
    /// exactly the pause time, a snapshot round-trips their state into fresh
    /// kernels, and the resumed pair delivers the identical remaining
    /// messages at the identical virtual times.
    #[test]
    fn pause_snapshot_restore_resumes_identically() {
        use crate::snap::{SnapReader, SnapWriter};

        let params = ChannelParams::default_sync();
        let end = SimTime::from_us(100);
        let pause = SimTime::from_ns(550);

        // Reference: uninterrupted run.
        let (ra, rb) = run_pair(end, params, 10, 0);
        assert_eq!(rb.received.len(), 10);
        let _ = ra;

        // Checkpointed run: pause both kernels at `pause`.
        let (ca, cb) = channel_pair(params);
        let mut ka = Kernel::new("a", end);
        let mut kb = Kernel::new("b", end);
        let pa = ka.add_port(ca);
        let pb = kb.add_port(cb);
        let mut a = Pinger::new(pa, 10, SimTime::from_ns(100));
        let mut b = Pinger::new(pb, 0, SimTime::from_ns(100));
        ka.set_pause_at(pause);
        kb.set_pause_at(pause);
        for _ in 0..10_000 {
            let ra = ka.step(&mut a, 64);
            let rb = kb.step(&mut b, 64);
            if ra == StepOutcome::Paused && rb == StepOutcome::Paused {
                break;
            }
        }
        assert!(ka.is_paused() && kb.is_paused(), "both quiesced");
        assert_eq!(ka.now(), pause);
        assert_eq!(kb.now(), pause);
        // Drain in-flight messages into the ports' pending buffers.
        for _ in 0..16 {
            ka.checkpoint_poll();
            kb.checkpoint_poll();
        }
        assert!(ka.quiesced_at(pause) && kb.quiesced_at(pause));
        // b has received the messages due before 550 ns (sent at 0 ns,
        // arriving at 500 ns); the one arriving at 600 ns is in flight.
        assert_eq!(b.received.len(), 1);

        let mut wa = SnapWriter::new();
        ka.snapshot(&mut wa).unwrap();
        let mut wb = SnapWriter::new();
        kb.snapshot(&mut wb).unwrap();
        let (ba, bb) = (wa.into_vec(), wb.into_vec());

        // Restore into freshly built kernels over a fresh channel pair and
        // run to completion.
        let (ca2, cb2) = channel_pair(params);
        let mut ka2 = Kernel::new("a", end);
        let mut kb2 = Kernel::new("b", end);
        let pa2 = ka2.add_port(ca2);
        let pb2 = kb2.add_port(cb2);
        ka2.restore(&mut SnapReader::new(&ba)).unwrap();
        kb2.restore(&mut SnapReader::new(&bb)).unwrap();
        assert_eq!(ka2.now(), pause);
        // The models' own state carries over directly in this test.
        let mut a2 = Pinger { port: pa2, ..a };
        let mut b2 = Pinger { port: pb2, ..b };
        loop {
            let ra = ka2.step(&mut a2, 64);
            let rb = kb2.step(&mut b2, 64);
            if ra == StepOutcome::Finished && rb == StepOutcome::Finished {
                break;
            }
            assert!(
                !(matches!(ra, StepOutcome::Blocked(_)) && matches!(rb, StepOutcome::Blocked(_))),
                "deadlock after restore"
            );
        }
        assert_eq!(
            b2.received, rb.received,
            "continuation identical to uninterrupted run"
        );
    }

    #[test]
    fn restore_rejects_mismatched_topology() {
        use crate::snap::{SnapError, SnapReader, SnapWriter};
        let k = Kernel::new("x", SimTime::from_us(1));
        let mut w = SnapWriter::new();
        k.snapshot(&mut w).unwrap();
        let blob = w.into_vec();
        // Wrong name.
        let mut other = Kernel::new("y", SimTime::from_us(1));
        assert!(matches!(
            other.restore(&mut SnapReader::new(&blob)),
            Err(SnapError::Corrupt(_))
        ));
        // Wrong end time.
        let mut other = Kernel::new("x", SimTime::from_us(2));
        assert!(matches!(
            other.restore(&mut SnapReader::new(&blob)),
            Err(SnapError::Corrupt(_))
        ));
        // Wrong port count.
        let (ca, _cb) = channel_pair(ChannelParams::default_sync());
        let mut other = Kernel::new("x", SimTime::from_us(1));
        other.add_port(ca);
        assert!(matches!(
            other.restore(&mut SnapReader::new(&blob)),
            Err(SnapError::Corrupt(_))
        ));
        // Truncated blob.
        let mut other = Kernel::new("x", SimTime::from_us(1));
        assert!(other
            .restore(&mut SnapReader::new(&blob[..blob.len() - 1]))
            .is_err());
    }

    /// Hierarchical sync must deliver exactly the same messages at the same
    /// times as the flat protocol — with no more (and on idle stretches far
    /// fewer) SYNC messages. Both-blocked rounds are tolerated here: a
    /// blocked hierarchical kernel still emits widening promises (the
    /// liveness backstop), so the pair converges without either clock
    /// creeping through the idle tail at δ steps.
    #[test]
    fn hier_sync_pair_matches_flat_results_with_fewer_syncs() {
        let params = ChannelParams::default_sync();
        let end = SimTime::from_us(50);
        let run = |hier: bool| {
            let (ca, cb) = channel_pair(params);
            let mut ka = Kernel::new("a", end);
            let mut kb = Kernel::new("b", end);
            if hier {
                ka.enable_hier_sync();
                kb.enable_hier_sync();
            }
            let pa = ka.add_port(ca);
            let pb = kb.add_port(cb);
            let mut a = Pinger::new(pa, 5, SimTime::from_ns(100));
            let mut b = Pinger::new(pb, 0, SimTime::from_ns(100));
            let mut stalls = 0;
            loop {
                let ra = ka.step(&mut a, 64);
                let rb = kb.step(&mut b, 64);
                if ra == StepOutcome::Finished && rb == StepOutcome::Finished {
                    break;
                }
                if matches!(ra, StepOutcome::Blocked(_)) && matches!(rb, StepOutcome::Blocked(_)) {
                    stalls += 1;
                    assert!(stalls < 100_000, "deadlock: both blocked (a@{})", ka.now());
                } else {
                    stalls = 0;
                }
            }
            (
                b.received.clone(),
                ka.stats().syncs_sent + kb.stats().syncs_sent,
            )
        };
        let (flat_rx, flat_syncs) = run(false);
        let (hier_rx, hier_syncs) = run(true);
        assert_eq!(flat_rx, hier_rx, "identical deliveries at identical times");
        assert_eq!(flat_rx.len(), 5);
        assert!(
            hier_syncs <= flat_syncs,
            "hier syncs ({hier_syncs}) must not exceed flat ({flat_syncs})"
        );
    }

    /// Satellite regression: adaptive idle-widening composes with aggregate
    /// domain horizons. A store-and-forward middle kernel (declared
    /// lookahead 0, both ports in one auto domain) has one hot input and one
    /// idle output peer; the idle peer's port widens its interval while the
    /// hot one stays at δ, and the domain's epoch batching must not let the
    /// idle peer's horizon regress or stall — deliveries stay bit-identical
    /// to the flat protocol.
    #[test]
    fn hier_domain_with_hot_and_idle_port_matches_flat() {
        struct Fwd {
            from: PortId,
            to: PortId,
        }
        impl Model for Fwd {
            fn on_msg(&mut self, k: &mut Kernel, port: PortId, msg: OwnedMsg) {
                if port == self.from {
                    k.send(self.to, msg.ty, &msg.data);
                }
            }
            fn sync_lookahead(&self) -> Option<SyncLookahead> {
                Some(SyncLookahead::ExcludeSelf(SimTime::ZERO))
            }
        }
        let params = ChannelParams::default_sync();
        let end = SimTime::from_us(20);
        let run = |hier: bool| {
            let (cx, sx) = channel_pair(params);
            let (sy, cy) = channel_pair(params);
            let mut kx = Kernel::new("x", end);
            let mut ks = Kernel::new("s", end);
            let mut ky = Kernel::new("y", end);
            if hier {
                kx.enable_hier_sync();
                ks.enable_hier_sync();
                ky.enable_hier_sync();
            }
            let px = kx.add_port(cx);
            let s_from = ks.add_port(sx);
            let s_to = ks.add_port(sy);
            let py = ky.add_port(cy);
            let mut x = Pinger::new(px, 20, SimTime::from_ns(100));
            let mut s = Fwd {
                from: s_from,
                to: s_to,
            };
            let mut y = Pinger::new(py, 0, SimTime::from_ns(100));
            let mut stalls = 0;
            loop {
                let rx = kx.step(&mut x, 64);
                let rs = ks.step(&mut s, 64);
                let ry = ky.step(&mut y, 64);
                if rx == StepOutcome::Finished
                    && rs == StepOutcome::Finished
                    && ry == StepOutcome::Finished
                {
                    break;
                }
                let all_blocked = matches!(rx, StepOutcome::Blocked(_))
                    && matches!(rs, StepOutcome::Blocked(_))
                    && matches!(ry, StepOutcome::Blocked(_));
                if all_blocked {
                    stalls += 1;
                    assert!(stalls < 100_000, "deadlock: all blocked (s@{})", ks.now());
                } else {
                    stalls = 0;
                }
            }
            (y.received.clone(), ks.stats().syncs_sent)
        };
        let (flat_rx, _) = run(false);
        let (hier_rx, _) = run(true);
        assert_eq!(flat_rx.len(), 20, "all frames forwarded");
        assert_eq!(flat_rx, hier_rx, "hot+idle domain delivers identically");
    }

    #[test]
    fn event_log_records_with_virtual_time() {
        struct L;
        impl Model for L {
            fn init(&mut self, k: &mut Kernel) {
                k.schedule_at(SimTime::from_ns(400), 0);
            }
            fn on_msg(&mut self, _k: &mut Kernel, _p: PortId, _m: OwnedMsg) {}
            fn on_timer(&mut self, k: &mut Kernel, _t: u64) {
                k.log("tick", 1, 2);
            }
        }
        let mut k = Kernel::new("l", SimTime::from_us(1));
        k.enable_log();
        let mut m = L;
        run(&mut k, &mut m);
        let log = k.event_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].time, SimTime::from_ns(400));
        assert_eq!(log.entries()[0].tag, "tick");
    }
}
