//! The orchestrator: spawn one worker process per partition, handshake,
//! release them together, supervise them, and relaunch the fleet as the
//! recovery core decides.

use std::collections::HashMap;
use std::fmt::Display;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use simbricks_base::{EventLog, KernelStats, SimTime};

use super::builder::{BuildMode, LinkDecl, PartitionBuilder};
use super::recovery::{damage_blob, DistError, FaultAction, FaultKind, Recovery, RecoveryReport};
use super::wire::*;
use super::{
    BuildFn, DistOptions, DistResult, ENV_CONTROL, ENV_DIST_TRANSPORT, ENV_EXEC, ENV_PARTITION,
    ENV_SCENARIO, ENV_SHM_DIR,
};
use crate::checkpoint;
use crate::transport::TransportKind;

/// Kills still-running workers when the orchestrator bails out early, and
/// removes the per-run shm region directory in every exit path — normal
/// completion, early error, and child reaping alike — so crashed or killed
/// runs never leak region files. Children are in
/// [`DistOptions::partitions`] order.
struct ChildGuard {
    children: Vec<Child>,
    shm_dir: Option<PathBuf>,
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(dir) = self.shm_dir.take() {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Resolve the requested transport for this run, creating the per-run shm
/// region directory when shared memory is selected. `Auto` falls back to TCP
/// when the directory cannot be created; an explicit `shm` request fails
/// loudly instead.
fn resolve_run_transport(requested: TransportKind) -> io::Result<(TransportKind, Option<PathBuf>)> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_RUN: AtomicU64 = AtomicU64::new(0);
    match requested.resolve_local() {
        TransportKind::Shm => {
            let dir = std::env::temp_dir().join(format!(
                "simbricks-dist-{}-{}",
                std::process::id(),
                NEXT_RUN.fetch_add(1, Ordering::Relaxed)
            ));
            match std::fs::create_dir_all(&dir) {
                Ok(()) => Ok((TransportKind::Shm, Some(dir))),
                Err(e) if requested == TransportKind::Auto => {
                    eprintln!("dist: shm region dir unavailable ({e}), falling back to tcp");
                    Ok((TransportKind::Tcp, None))
                }
                Err(e) => Err(e),
            }
        }
        kind => Ok((kind, None)),
    }
}

/// What the local discovery pass learned about the build function.
struct Discovery {
    links: Vec<LinkDecl>,
    expected_components: usize,
    global_names: Vec<String>,
}

/// Run the discovery build once and validate options against it.
fn discover(opts: &DistOptions, build: &BuildFn) -> Result<Discovery, DistError> {
    let mut pb = PartitionBuilder::new(BuildMode::Discover, None);
    build(&opts.scenario, &mut pb);
    for l in &pb.links {
        for p in [&l.a, &l.b] {
            if !opts.partitions.contains(p) {
                return Err(DistError::Invalid(format!(
                    "link {:?} references unknown partition {p:?}",
                    l.name
                )));
            }
        }
    }
    if opts
        .ring
        .as_ref()
        .is_some_and(|r| r.period == SimTime::ZERO)
    {
        return Err(DistError::Invalid(
            "checkpoint ring period must be non-zero".into(),
        ));
    }
    for f in &opts.faults {
        let problem = match &f.kind {
            FaultKind::KillWorker { partition } if !opts.partitions.contains(partition) => {
                format!("kill_worker fault targets unknown partition {partition:?}")
            }
            FaultKind::SeverLink { link } if !pb.links.iter().any(|l| l.name == *link) => {
                format!("sever_link fault targets unknown cross link {link:?}")
            }
            FaultKind::CorruptCheckpoint | FaultKind::TruncateCheckpoint if opts.ring.is_none() => {
                "corrupt/truncate_checkpoint faults require a checkpoint ring".into()
            }
            _ => continue,
        };
        return Err(DistError::Invalid(problem));
    }
    Ok(Discovery {
        links: pb.links,
        expected_components: pb.next_global,
        global_names: pb.global_names,
    })
}

/// Orchestrate a true multi-process distributed run: spawn one worker process
/// per partition (self-`exec` of the current binary; workers enter via
/// [`maybe_worker`](super::maybe_worker)), wire every cross-partition link
/// through proxies with listen/connect handshaking, release all workers from
/// a start barrier, supervise them (heartbeats, crash detection,
/// deterministic fault injection), and collect per-worker statistics and
/// event logs over the control socket. On a retryable failure with restarts
/// remaining ([`DistOptions::max_restarts`]) the fleet is relaunched from
/// the newest valid checkpoint-ring slot (or from zero without one); §5.5
/// determinism makes the recovered result bit-identical to an undisturbed
/// run. Returns the reassembled [`DistResult`] with its [`RecoveryReport`].
pub fn run_distributed(opts: &DistOptions, build: &BuildFn) -> Result<DistResult, DistError> {
    let disc = discover(opts, build)?;
    let mut rec = Recovery::new(opts, disc.global_names.clone());
    loop {
        match run_attempt(opts, &disc, &mut rec) {
            Ok(res) => {
                return Ok(DistResult {
                    recovery: rec.into_report(),
                    ..res
                })
            }
            Err(e) => {
                let what = e.to_string();
                let from = rec.on_failure(e)?;
                let from = match from {
                    Some(at) => format!("restarting fleet from ring entry at {at} ps"),
                    None => "no usable ring entry, restarting fleet from zero".into(),
                };
                let (n, max) = (rec.report().restarts, opts.max_restarts);
                eprintln!("dist: {what}; {from} (restart {n}/{max})");
            }
        }
    }
}

/// The orchestrator's end of one worker's control connection, and what
/// supervision has heard on it. Every send or receive failure is that
/// worker's [`DistError::ControlLost`].
struct WorkerConn {
    partition: String,
    stream: TcpStream,
    fb: FrameBuf,
    last_seen: Instant,
    /// Newest virtual-time progress reported (heartbeats / ring frames).
    virt: u64,
    report: Option<WorkerReport>,
}

impl WorkerConn {
    fn send(&mut self, ty: u8, payload: &[u8]) -> Result<(), DistError> {
        write_frame(&mut self.stream, ty, payload).map_err(|e| self.lost(e))
    }

    fn expect_frame(&mut self, ty: u8) -> Result<Vec<u8>, DistError> {
        expect_frame(&mut self.stream, ty).map_err(|e| self.lost(e))
    }

    fn lost(&self, error: impl Display) -> DistError {
        DistError::ControlLost {
            partition: self.partition.clone(),
            error: error.to_string(),
        }
    }

    fn protocol(&self, error: impl Display) -> DistError {
        DistError::Protocol {
            partition: self.partition.clone(),
            error: error.to_string(),
        }
    }
}

/// One fleet launch: spawn, handshake, supervise to completion or failure.
/// The caller owns the retry policy; `rec` persists across attempts.
fn run_attempt(
    opts: &DistOptions,
    disc: &Discovery,
    rec: &mut Recovery,
) -> Result<DistResult, DistError> {
    let (transport, shm_dir) = resolve_run_transport(opts.transport)?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let control_addr = listener.local_addr()?;
    let exe = std::env::current_exe()?;
    let mut guard = ChildGuard {
        children: Vec::new(),
        shm_dir: shm_dir.clone(),
    };
    for p in &opts.partitions {
        let mut cmd = Command::new(&exe);
        cmd.args(&opts.worker_args)
            .env(ENV_CONTROL, control_addr.to_string())
            .env(ENV_PARTITION, p)
            .env(ENV_SCENARIO, &opts.scenario)
            .env(ENV_EXEC, opts.exec.to_arg())
            .env(ENV_DIST_TRANSPORT, transport.to_arg())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(dir) = &shm_dir {
            cmd.env(ENV_SHM_DIR, dir);
        }
        let child = cmd
            .spawn()
            .map_err(|e| DistError::Io(format!("spawning worker {p:?}: {e}")))?;
        guard.children.push(child);
    }

    // Accept one control connection per worker (with a deadline so a worker
    // that dies before connecting fails the run instead of hanging it).
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let mut accepted: HashMap<String, WorkerConn> = HashMap::new();
    while accepted.len() < opts.partitions.len() {
        if Instant::now() > deadline {
            let missing: Vec<String> = opts
                .partitions
                .iter()
                .filter(|p| !accepted.contains_key(*p))
                .cloned()
                .collect();
            return Err(DistError::ConnectTimeout { missing });
        }
        for (p, child) in opts.partitions.iter().zip(&mut guard.children) {
            if let Some(status) = child.try_wait()? {
                return Err(DistError::WorkerExited {
                    partition: p.clone(),
                    status: status.to_string(),
                });
            }
        }
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(CONTROL_TIMEOUT))?;
                stream.set_nodelay(true)?;
                let mut c = WorkerConn {
                    partition: "<handshaking>".into(),
                    stream,
                    fb: FrameBuf::default(),
                    last_seen: Instant::now(),
                    virt: 0,
                    report: None,
                };
                let hello = c.expect_frame(MSG_HELLO)?;
                c.partition = String::from_utf8(hello).map_err(|_| c.protocol("non-utf8 HELLO"))?;
                if !opts.partitions.contains(&c.partition) {
                    return Err(c.protocol("unknown worker partition"));
                }
                accepted.insert(c.partition.clone(), c);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) => return Err(DistError::from(e)),
        }
    }
    // Every partition has connected; from here on the connections line up
    // with the partitions and the children.
    let mut conns: Vec<WorkerConn> = opts
        .partitions
        .iter()
        .filter_map(|p| accepted.remove(p))
        .collect();

    // Gather every worker's listener addresses, then broadcast the full map.
    let mut addr_map: Vec<(String, String)> = Vec::new();
    for c in &mut conns {
        let payload = c.expect_frame(MSG_LINKS)?;
        addr_map.extend(decode_addrs(&payload).map_err(|e| c.lost(e))?);
    }
    let payload = encode_addrs(&addr_map);
    for c in &mut conns {
        c.send(MSG_ADDRS, &payload)?;
    }

    // Checkpoint configuration: the ring period and, when the recovery core
    // restarts the fleet from a ring slot, each partition's snapshot of it.
    if let Some(ring) = &opts.ring {
        std::fs::create_dir_all(&ring.dir)?;
    }
    let (ring_period, ring_keep) = opts
        .ring
        .as_ref()
        .map_or((SimTime::ZERO, 0), |r| (r.period, r.keep));
    for c in &mut conns {
        let cfg = CkptConfig {
            ring_period,
            ring_keep,
            heartbeat: opts.heartbeat,
            restore: rec
                .restore()
                .and_then(|(_, blobs)| blobs.get(&c.partition).cloned()),
        };
        c.send(MSG_CKPT, &cfg.encode())?;
    }

    // Barrier-synchronized start: wait until every partition is built and
    // its proxies are wired, then release all workers together.
    for c in &mut conns {
        c.expect_frame(MSG_READY)?;
    }
    let start = Instant::now();
    for c in &mut conns {
        c.send(MSG_GO, &[])?;
    }

    supervise(opts, disc, &mut conns, &mut guard, rec)?;

    // All partitions reported: collect the results, then acknowledge and
    // reap.
    let wall = start.elapsed();
    let mut partition_walls = Vec::new();
    let mut all: Vec<(usize, String, KernelStats, EventLog)> = Vec::new();
    for c in &mut conns {
        let rep = c.report.take().ok_or_else(|| c.protocol("no result"))?;
        partition_walls.push(rep.wall_seconds);
        all.extend(rep.components);
    }

    // Clean teardown: acknowledge, then reap the worker processes.
    for c in &mut conns {
        c.send(MSG_DONE, &[])?;
    }
    for (c, mut child) in conns.iter().zip(std::mem::take(&mut guard.children)) {
        let status = child.wait()?;
        if !status.success() {
            return Err(c.protocol(format!("exited with {status} after reporting")));
        }
    }

    // Reassemble in global build order so logs and stats line up with the
    // in-process baseline.
    all.sort_by_key(|(global, _, _, _)| *global);
    if all.len() != disc.expected_components {
        return Err(DistError::Protocol {
            partition: "<all>".into(),
            error: format!(
                "workers reported {} components, build declares {}",
                all.len(),
                disc.expected_components
            ),
        });
    }
    let (component_names, (stats, logs)) = all
        .into_iter()
        .map(|(_, name, stats, log)| (name, (stats, log)))
        .unzip();
    Ok(DistResult {
        wall,
        partition_names: opts.partitions.clone(),
        partition_walls,
        component_names,
        stats,
        logs,
        recovery: RecoveryReport::default(),
    })
}

/// The post-`GO` supervisor loop: drain every worker's control socket
/// (heartbeats, streamed ring snapshots, results), detect failures (process
/// exit, heartbeat silence, control EOF, protocol violations) and classify
/// them as typed errors, and carry out the faults the recovery core reports
/// due. Returns once every partition's result is in.
fn supervise(
    opts: &DistOptions,
    disc: &Discovery,
    conns: &mut [WorkerConn],
    guard: &mut ChildGuard,
    rec: &mut Recovery,
) -> Result<(), DistError> {
    let base = rec.restore().map_or(0, |(at, _)| *at);
    for c in conns.iter_mut() {
        c.stream.set_read_timeout(Some(POLL_TIMEOUT))?;
        c.last_seen = Instant::now();
        c.virt = base;
    }
    let hb_timeout = std::cmp::max(opts.heartbeat.saturating_mul(20), Duration::from_secs(15));
    let mut scratch = vec![0u8; 256 * 1024];
    loop {
        // 1. Drain every control socket; dispatch complete frames. Sockets
        // of partitions that already reported are still drained (their pump
        // threads heartbeat until DONE). A ring frame that completes a slot
        // is merged into an on-disk whole-experiment container.
        for c in conns.iter_mut() {
            let eof = match drain_ctrl(&mut c.stream, &mut c.fb, &mut scratch) {
                Ok(eof) => eof,
                Err(e) if c.report.is_none() => return Err(c.lost(e)),
                Err(_) => false,
            };
            while let Some((ty, payload)) = c.fb.pop().map_err(|e| c.protocol(e))? {
                c.last_seen = Instant::now();
                match ty {
                    MSG_HEARTBEAT => {
                        c.virt = decode_heartbeat(&payload)
                            .map_err(|e| c.protocol(format!("bad heartbeat: {e}")))?;
                    }
                    MSG_RING => {
                        let (at, blob) = decode_ring(&payload)
                            .map_err(|e| c.protocol(format!("bad ring frame: {e}")))?;
                        c.virt = c.virt.max(at);
                        let merged = rec.on_ring(&c.partition, at, blob);
                        if let (Some(merged), Some(ring)) = (merged, &opts.ring) {
                            let path = checkpoint::ring_entry_path(&ring.dir, SimTime::from_ps(at));
                            match merged.write_to(&path) {
                                Ok(()) => {
                                    let _ = checkpoint::prune_ring(&ring.dir, ring.keep);
                                }
                                Err(e) => rec.reject(format!("write {}: {e}", path.display())),
                            }
                        }
                    }
                    MSG_RESULT => {
                        let rep = decode_result(&payload)
                            .map_err(|e| c.protocol(format!("bad result: {e}")))?;
                        c.report = Some(rep);
                    }
                    ty => return Err(c.protocol(format!("unexpected control frame type {ty}"))),
                }
            }
            if eof && c.report.is_none() {
                return Err(c.lost("control connection EOF"));
            }
        }

        // 2. Liveness: a worker that exited, or fell silent, before its
        // result is a classified failure, not a hang.
        for (c, child) in conns.iter().zip(&mut guard.children) {
            if c.report.is_some() {
                continue;
            }
            if let Some(status) = child.try_wait()? {
                return Err(DistError::WorkerExited {
                    partition: c.partition.clone(),
                    status: status.to_string(),
                });
            }
            let silent = c.last_seen.elapsed();
            if silent > hb_timeout {
                return Err(DistError::HeartbeatTimeout {
                    partition: c.partition.clone(),
                    silent,
                });
            }
        }

        // 3. Deterministic fault injection on the fleet's minimum virtual
        // time.
        let min_virt = conns.iter().map(|c| c.virt).min().unwrap_or(base);
        let mut killed = None;
        for action in rec.on_progress(min_virt) {
            match action {
                FaultAction::Kill(partition) => {
                    if let Some(i) = opts.partitions.iter().position(|p| *p == partition) {
                        let _ = guard.children[i].kill();
                        killed = Some(i);
                    }
                }
                FaultAction::Sever(link) => {
                    let is_end = |p: &str| {
                        disc.links
                            .iter()
                            .any(|l| l.name == link && (l.a == p || l.b == p))
                    };
                    for c in conns.iter_mut().filter(|c| is_end(&c.partition)) {
                        let _ = write_frame(&mut c.stream, MSG_SEVER, link.as_bytes());
                    }
                    // Let the workers tear their links down before the
                    // fleet is reaped, so the failure is attributable to the
                    // sever rather than a racing teardown.
                    std::thread::sleep(Duration::from_millis(50));
                    return Err(DistError::FaultSever { link });
                }
                FaultAction::Damage { at, truncate } => {
                    if let Some(ring) = &opts.ring {
                        let path = checkpoint::ring_entry_path(&ring.dir, SimTime::from_ps(at));
                        if let Ok(mut data) = std::fs::read(&path) {
                            damage_blob(&mut data, truncate);
                            let _ = std::fs::write(&path, &data);
                        }
                    }
                }
            }
        }

        // A kill ends the attempt even when the victim has already reported
        // (or its result is still in flight): its exit is the failure that
        // recovery handles, never a teardown error after reporting.
        if let Some(i) = killed {
            let status = guard.children[i]
                .wait()
                .map_or_else(|e| e.to_string(), |s| s.to_string());
            return Err(DistError::WorkerExited {
                partition: opts.partitions[i].clone(),
                status,
            });
        }

        // 4. Done when every partition has reported.
        if conns.iter().all(|c| c.report.is_some()) {
            return Ok(());
        }
    }
}
