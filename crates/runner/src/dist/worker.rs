//! The worker process: discover, handshake, build one partition, simulate
//! it, and report — with one control pump thread that heartbeats and obeys
//! `SEVER`/`DONE` while the main thread simulates.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use simbricks_base::SimTime;

use super::builder::{BuildMode, PartitionBuilder};
use super::wire::*;
use super::{
    BuildFn, ENV_CONTROL, ENV_DIST_TRANSPORT, ENV_EXEC, ENV_PARTITION, ENV_SCENARIO, ENV_SHM_DIR,
};
use crate::experiment::Execution;
use crate::proxy::{pump_all, ShutdownSignal};
use crate::shm;
use crate::transport::TransportKind;

fn env_string(key: &str) -> io::Result<String> {
    std::env::var(key)
        .map_err(|_| io::Error::new(io::ErrorKind::NotFound, format!("{key} not set")))
}

pub(super) fn run_worker(build: &BuildFn) -> io::Result<()> {
    let control_addr = env_string(ENV_CONTROL)?;
    let partition = env_string(ENV_PARTITION)?;
    let scenario = std::env::var(ENV_SCENARIO).unwrap_or_default();
    let exec = Execution::from_env(ENV_EXEC)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        .unwrap_or(Execution::Sequential);
    // The orchestrator hands every worker the resolved transport for the
    // links it owns. Workers are always self-exec'd from this same binary,
    // so anything but `tcp`/`shm` is a protocol error, not a default.
    let transport = match TransportKind::parse(&env_string(ENV_DIST_TRANSPORT)?) {
        Some(k @ (TransportKind::Tcp | TransportKind::Shm)) => k,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{ENV_DIST_TRANSPORT} must be tcp or shm"),
            ))
        }
    };
    let shm_dir = std::env::var_os(ENV_SHM_DIR)
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);

    // Discovery pass: learn the cross-link set so the rendezvous point for
    // every owned link — a bound TCP listener or an shm region path — can be
    // advertised before any partner tries to connect.
    let mut pb = PartitionBuilder::new(BuildMode::Discover, Some(partition.clone()));
    build(&scenario, &mut pb);

    let mut listeners = HashMap::new();
    let mut my_links = Vec::new();
    for l in &pb.links {
        if l.a == partition && l.b != partition {
            match transport {
                TransportKind::Shm => {
                    let path = shm::region_path(&shm_dir, &l.name);
                    my_links.push((l.name.clone(), format!("shm:{}", path.display())));
                }
                _ => {
                    let listener = TcpListener::bind("127.0.0.1:0")?;
                    my_links.push((l.name.clone(), format!("tcp:{}", listener.local_addr()?)));
                    listeners.insert(l.name.clone(), listener);
                }
            }
        }
    }

    // The orchestrator binds its control socket before spawning workers, but
    // a restarting fleet can race it — bounded backoff instead of one shot.
    let mut ctrl = connect_with_backoff(&control_addr)?;
    ctrl.set_read_timeout(Some(CONTROL_TIMEOUT))?;
    ctrl.set_nodelay(true)?;
    write_frame(&mut ctrl, MSG_HELLO, partition.as_bytes())?;
    write_frame(&mut ctrl, MSG_LINKS, &encode_addrs(&my_links))?;
    let addr_map = decode_addrs(&expect_frame(&mut ctrl, MSG_ADDRS)?)?;

    // Real build: instantiate this partition, bridging cross links.
    let mut pb = PartitionBuilder::new(BuildMode::Worker, Some(partition.clone()));
    pb.listeners = listeners;
    pb.addr_map = addr_map.into_iter().collect();
    pb.transport = transport;
    pb.shm_dir = Some(shm_dir);
    build(&scenario, &mut pb);
    if !pb.build_errors.is_empty() {
        return Err(io::Error::other(format!(
            "partition {partition:?} build failed: {}",
            pb.build_errors.join("; ")
        )));
    }
    let mut exp = pb.exp.take().expect("build function must call init()"); // io-ok: API contract
    if !exp.is_synchronized() {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "distributed runs require a synchronized experiment",
        ));
    }
    // Remote promises arrive asynchronously: an all-blocked partition is a
    // normal transient state, not a deadlock.
    exp.set_external_inputs();

    // Checkpoint configuration: the orchestrator tells every worker its ring
    // period, and hands it its restore snapshot, if any.
    let mut ckpt = CkptConfig::decode(&expect_frame(&mut ctrl, MSG_CKPT)?)?;
    if let Some(blob) = ckpt.restore.take() {
        exp.restore_from_blob(&blob).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("restoring partition {partition:?}: {e}"),
            )
        })?;
    }
    if ckpt.ring_period != SimTime::ZERO {
        // Every worker quiesces at the same virtual times (pause promises
        // keep the partitions in lockstep across the cross links), so each
        // partition contributes a snapshot for every ring slot.
        exp.set_checkpoint_ring(ckpt.ring_period, ckpt.ring_keep);
    }

    // Barrier-synchronized start: report readiness, wait for the release.
    write_frame(&mut ctrl, MSG_READY, &[])?;
    expect_frame(&mut ctrl, MSG_GO)?;
    // Every partition has built by now, so the peer of each shm region this
    // worker created has attached — or rejected the handshake and poisoned
    // it. Never simulate against an unattached region.
    for (link, region) in &pb.owned_regions {
        region
            .wait_attached(Instant::now(), &ShutdownSignal::default())
            .map_err(|e| io::Error::new(e.kind(), format!("shm link {link:?}: {e}")))?;
    }

    // Post-GO the control channel goes full duplex: a pump thread owns the
    // read side (heartbeats out, SEVER/DONE in, EOF detection) while the
    // main thread simulates and later ships results through a shared writer.
    let pump = ControlPump {
        writer: Arc::new(Mutex::new(ctrl.try_clone()?)),
        progress: exp.progress_handle(),
        link_severs: std::mem::take(&mut pb.link_severs),
        heartbeat: ckpt.heartbeat,
        flags: Arc::default(),
    };
    let (writer, flags) = (pump.writer.clone(), pump.flags.clone());
    if ckpt.ring_period != SimTime::ZERO {
        // Stream each ring snapshot to the orchestrator as it is captured,
        // so the newest complete slot is already there when this worker (or
        // a peer) dies. Send failures are ignored here: the pump thread
        // classifies a dead control channel authoritatively.
        let w = writer.clone();
        exp.set_ring_sink(Box::new(move |at, blob| {
            let payload = encode_ring(at, blob);
            if let Ok(mut s) = w.lock() {
                let _ = write_frame(&mut *s, MSG_RING, &payload);
            }
        }));
    }
    let ctrl_pump = std::thread::Builder::new()
        .name("dist-ctrl-pump".into())
        .spawn(move || pump.run(ctrl))?;

    // The executor pumps the tcp links while it steps the partition; the
    // pumps come back with the result.
    let mut result = exp.run(exec);
    flags.run_done.store(true, Ordering::SeqCst);
    let mut links = result.take_pumps();

    {
        let mut w = writer
            .lock()
            .map_err(|_| io::Error::other("control writer poisoned"))?;
        let payload = encode_result(&result, &pb.local_globals)?;
        write_frame(&mut *w, MSG_RESULT, &payload)?;
    }
    // Our components are done, but a peer may still be waiting for the last
    // messages they sent: keep pumping the tcp links (flush, then shut the
    // write side down and wait for the peer's EOF) until the orchestrator's
    // DONE, observed by the control pump, confirms every worker has
    // reported. Dropping the pumps afterwards closes the sockets. (Shm links
    // need nothing: what our components sent is in the mapping.)
    let deadline = Instant::now() + CONTROL_TIMEOUT;
    while !flags.done_acked.load(Ordering::SeqCst) {
        if flags.ctrl_gone.load(Ordering::SeqCst) {
            return Err(io::Error::other("control connection closed before DONE"));
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "timed out waiting for DONE",
            ));
        }
        if !pump_all(&mut links) {
            std::thread::sleep(LINK_IDLE);
        }
    }
    drop(links);
    let _ = ctrl_pump.join();
    Ok(())
}

/// What the worker's main thread and its control pump tell each other.
#[derive(Default)]
struct Flags {
    /// The partition finished simulating (set by the main thread).
    run_done: AtomicBool,
    /// The orchestrator's `DONE` arrived.
    done_acked: AtomicBool,
    /// The control channel closed after the run; the main thread stops
    /// waiting for `DONE`.
    ctrl_gone: AtomicBool,
}

/// What the control pump does next.
#[derive(Debug, PartialEq)]
enum Next {
    Continue,
    Stop,
    /// The orchestrator vanished mid-run: exit the process with this reason.
    Orphan(&'static str),
}

/// The worker's control pump (post-`GO`): heartbeats out on a wall-clock
/// period — carrying the partition's virtual-time progress — plus
/// `SEVER`/`DONE` dispatch in, and EOF detection.
struct ControlPump<W> {
    writer: Arc<Mutex<W>>,
    progress: Arc<AtomicU64>,
    /// Per cross link, the hook that tears it down.
    link_severs: Vec<(String, Box<dyn Fn() + Send>)>,
    heartbeat: Duration,
    flags: Arc<Flags>,
}

impl<W: Write> ControlPump<W> {
    /// Send one heartbeat; `false` when the control channel is gone.
    fn beat(&self) -> bool {
        let payload = encode_heartbeat(self.progress.load(Ordering::Relaxed));
        self.writer
            .lock()
            .map(|mut s| write_frame(&mut *s, MSG_HEARTBEAT, &payload).is_ok())
            .unwrap_or(false)
    }

    /// Act on every complete frame in `fb`, then on `eof`. Frame types other
    /// than `SEVER` and `DONE` are ignored: the orchestrator is the protocol
    /// authority.
    fn step(&self, fb: &mut FrameBuf, eof: bool) -> Next {
        loop {
            match fb.pop() {
                Ok(Some((MSG_SEVER, payload))) => {
                    let link = String::from_utf8_lossy(&payload);
                    for (_, sever) in self.link_severs.iter().filter(|(name, _)| *name == link) {
                        sever();
                    }
                    eprintln!("dist worker: severed link {link:?}");
                }
                Ok(Some((MSG_DONE, _))) => {
                    self.flags.done_acked.store(true, Ordering::SeqCst);
                    return Next::Stop;
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => return self.lost("control stream corrupt mid-run"),
            }
        }
        if eof {
            return self.lost("orchestrator closed the control connection mid-run");
        }
        Next::Continue
    }

    /// The control channel is gone. Mid-run that orphans the worker; after
    /// the run the main thread just stops waiting for `DONE`.
    fn lost(&self, why: &'static str) -> Next {
        if !self.flags.run_done.load(Ordering::SeqCst) {
            return Next::Orphan(why);
        }
        self.flags.ctrl_gone.store(true, Ordering::SeqCst);
        Next::Stop
    }
}

impl ControlPump<TcpStream> {
    fn run(self, mut reader: TcpStream) {
        // SO_RCVTIMEO is shared with the writer clone, but only this thread
        // reads post-GO, so the short poll timeout is safe.
        reader.set_read_timeout(Some(POLL_TIMEOUT)).ok();
        let mut fb = FrameBuf::default();
        let mut scratch = [0u8; 16 * 1024];
        let mut last_beat: Option<Instant> = None;
        loop {
            let mut next = Next::Continue;
            if last_beat.is_none_or(|t| t.elapsed() >= self.heartbeat) {
                if self.beat() {
                    last_beat = Some(Instant::now());
                } else {
                    next = self.lost("control write failed mid-run");
                }
            }
            if next == Next::Continue {
                let eof = drain_ctrl(&mut reader, &mut fb, &mut scratch).unwrap_or(true);
                next = self.step(&mut fb, eof);
            }
            match next {
                Next::Continue => {}
                Next::Stop => return,
                Next::Orphan(why) => orphan_exit(why),
            }
        }
    }
}

/// The orchestrator is gone (control EOF / write failure mid-run): a worker
/// must never outlive it, so exit the whole process — this is the orphan
/// leak fix for self-exec'd workers whose orchestrator aborts.
fn orphan_exit(msg: &str) -> ! {
    eprintln!("simbricks dist worker: {msg}; exiting to avoid an orphan process");
    std::process::exit(3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn frame(ty: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, ty, payload).unwrap();
        bytes
    }

    /// A pump writing into memory, with one counting sever hook per link.
    fn pump(links: &[&str]) -> (ControlPump<Vec<u8>>, Vec<Arc<AtomicUsize>>) {
        let hits: Vec<Arc<AtomicUsize>> = links.iter().map(|_| Arc::default()).collect();
        let link_severs = links
            .iter()
            .zip(&hits)
            .map(|(name, hit)| {
                let hit = hit.clone();
                let sever: Box<dyn Fn() + Send> = Box::new(move || {
                    hit.fetch_add(1, Ordering::SeqCst);
                });
                (name.to_string(), sever)
            })
            .collect();
        let pump = ControlPump {
            writer: Arc::new(Mutex::new(Vec::new())),
            progress: Arc::new(AtomicU64::new(42)),
            link_severs,
            heartbeat: Duration::from_millis(100),
            flags: Arc::default(),
        };
        (pump, hits)
    }

    fn count(hit: &AtomicUsize) -> usize {
        hit.load(Ordering::SeqCst)
    }

    #[test]
    fn sever_runs_only_the_named_links_hook() {
        let (pump, hits) = pump(&["up0", "up1"]);
        let mut fb = FrameBuf::default();
        fb.push(&frame(MSG_SEVER, b"up1"));
        assert_eq!(pump.step(&mut fb, false), Next::Continue);
        assert_eq!((count(&hits[0]), count(&hits[1])), (0, 1));
    }

    #[test]
    fn unknown_frames_are_ignored_and_done_sets_the_ack() {
        let (pump, _) = pump(&[]);
        let mut fb = FrameBuf::default();
        fb.push(&frame(99, b"?"));
        assert_eq!(pump.step(&mut fb, false), Next::Continue);
        assert!(!pump.flags.done_acked.load(Ordering::SeqCst));
        fb.push(&frame(MSG_DONE, &[]));
        assert_eq!(pump.step(&mut fb, false), Next::Stop);
        assert!(pump.flags.done_acked.load(Ordering::SeqCst));
    }

    #[test]
    fn eof_orphans_mid_run_and_releases_the_main_thread_after_it() {
        let (pump, _) = pump(&[]);
        let mut fb = FrameBuf::default();
        assert!(matches!(pump.step(&mut fb, true), Next::Orphan(_)));
        assert!(!pump.flags.ctrl_gone.load(Ordering::SeqCst));
        pump.flags.run_done.store(true, Ordering::SeqCst);
        assert_eq!(pump.step(&mut fb, true), Next::Stop);
        assert!(pump.flags.ctrl_gone.load(Ordering::SeqCst));
    }

    #[test]
    fn a_heartbeat_carries_the_partitions_progress() {
        let (pump, _) = pump(&[]);
        assert!(pump.beat());
        let mut sent = FrameBuf::default();
        sent.push(&pump.writer.lock().unwrap());
        let beat = (MSG_HEARTBEAT, encode_heartbeat(42));
        assert_eq!(sent.pop().unwrap(), Some(beat));
    }
}
