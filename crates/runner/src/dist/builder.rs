//! [`PartitionBuilder`]: one build function serves the in-process baseline,
//! cross-link discovery and worker instantiation.

use std::collections::HashMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use simbricks_base::{channel_pair, ChannelEnd, ChannelParams};
use simbricks_hostsim::{Application, HostConfig};

use super::wire::{connect_with_backoff, CONNECT_TIMEOUT};
use crate::experiment::{AnyModel, Experiment};
use crate::proxy::{write_handshake, ShutdownSignal, TcpPump};
use crate::shm;
use crate::transport::TransportKind;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum BuildMode {
    /// Instantiate every partition in this process (in-process baseline).
    Local,
    /// Record cross-link declarations only; drop all components.
    Discover,
    /// Instantiate one partition; bridge cross links with shm regions or
    /// tcp pumps.
    Worker,
}

/// A declared cross-partition channel. The channel parameters are not stored
/// here: each side re-derives them in its own build and the proxy handshake
/// verifies they agree.
#[derive(Clone, Debug)]
pub(super) struct LinkDecl {
    pub(super) name: String,
    pub(super) a: String,
    pub(super) b: String,
}

/// Builder handed to the experiment build function. It mirrors
/// [`Experiment`]'s assembly API but every component is placed into a named
/// partition and every channel that may cross partitions is declared by name
/// through [`PartitionBuilder::channel`]. The same build code then serves
/// three purposes: the in-process baseline, cross-link discovery, and worker
/// instantiation (where off-partition components are dropped and cross links
/// become shared-memory regions or sockets proxies).
pub struct PartitionBuilder {
    mode: BuildMode,
    local: Option<String>,
    pub(super) exp: Option<Experiment>,
    pub(super) links: Vec<LinkDecl>,
    pub(super) next_global: usize,
    pub(super) local_globals: Vec<usize>,
    /// Component names in global build order (recorded in every mode; the
    /// orchestrator needs them to merge per-partition ring checkpoints into
    /// whole-experiment containers).
    pub(super) global_names: Vec<String>,
    pub(super) listeners: HashMap<String, TcpListener>,
    pub(super) addr_map: HashMap<String, String>,
    /// Transport for links this worker owns (resolved, never `Auto`).
    pub(super) transport: TransportKind,
    /// Per-run directory for shm region files (worker mode with shm links).
    pub(super) shm_dir: Option<PathBuf>,
    /// Cross-link wiring failures collected during a worker build. The build
    /// function's signature cannot carry a `Result`, so [`cross_end`]
    /// records failures here (returning a dangling end) and the worker turns
    /// them into one typed error after the build returns.
    ///
    /// [`cross_end`]: PartitionBuilder::cross_end
    pub(super) build_errors: Vec<String>,
    /// Per cross link wired in this worker: how an injected `SEVER` tears it
    /// down by name — raise the pump's shutdown signal (tcp) or close and
    /// poison the region (shm).
    pub(super) link_severs: Vec<(String, Box<dyn Fn() + Send>)>,
    /// Shm regions this worker created; checked for an attached peer after
    /// `GO`.
    pub(super) owned_regions: Vec<(String, Arc<shm::ShmRegion>)>,
}

/// A channel endpoint whose peer is already gone (used as a placeholder for
/// ports of components that live in another partition).
fn dangling(params: ChannelParams) -> ChannelEnd {
    channel_pair(params).0
}

impl PartitionBuilder {
    pub(super) fn new(mode: BuildMode, local: Option<String>) -> Self {
        PartitionBuilder {
            mode,
            local,
            exp: None,
            links: Vec::new(),
            next_global: 0,
            local_globals: Vec::new(),
            global_names: Vec::new(),
            listeners: HashMap::new(),
            addr_map: HashMap::new(),
            transport: TransportKind::Tcp,
            shm_dir: None,
            build_errors: Vec::new(),
            link_severs: Vec::new(),
            owned_regions: Vec::new(),
        }
    }

    /// A builder that assembles everything into one local in-process
    /// experiment (partition names are recorded but every component is
    /// instantiated). This is what scenario loaders and benches use to run a
    /// partition-aware build function single-process.
    pub fn new_local() -> Self {
        Self::new(BuildMode::Local, None)
    }

    /// Consume the builder and hand back the assembled [`Experiment`].
    /// Panics if the build function never called [`PartitionBuilder::init`].
    pub fn into_experiment(mut self) -> Experiment {
        // io-ok: API contract (documented panic), not an I/O failure
        self.exp.take().expect("build function must call init()")
    }

    /// Install the experiment this builder assembles into. Must be the first
    /// call the build function makes.
    pub fn init(&mut self, exp: Experiment) {
        assert!(self.exp.is_none(), "PartitionBuilder::init called twice");
        self.exp = Some(exp);
    }

    /// The experiment under assembly (for channel parameters etc.).
    /// Panics if [`PartitionBuilder::init`] has not been called.
    pub fn exp(&mut self) -> &mut Experiment {
        self.exp
            .as_mut()
            // io-ok: API contract (documented panic), not an I/O failure
            .expect("build function must call init() first")
    }

    /// The partition this builder instantiates, or `None` when every
    /// partition is built in-process.
    pub fn partition(&self) -> Option<&str> {
        match self.mode {
            BuildMode::Local => None,
            _ => self.local.as_deref(),
        }
    }

    fn is_local(&self, partition: &str) -> bool {
        match self.mode {
            BuildMode::Local => true,
            BuildMode::Discover => false,
            BuildMode::Worker => self.local.as_deref() == Some(partition),
        }
    }

    /// Add a component that lives in `partition`. Ports and model are
    /// dropped unless that partition is instantiated here. Returns the
    /// component's **global** id — stable across all build modes, so results
    /// collected from different worker processes can be reassembled in the
    /// exact order of the in-process baseline.
    pub fn add(
        &mut self,
        partition: &str,
        name: impl Into<String>,
        model: Box<dyn AnyModel>,
        ports: Vec<ChannelEnd>,
    ) -> usize {
        let global = self.next_global;
        self.next_global += 1;
        let name = name.into();
        self.global_names.push(name.clone());
        if self.is_local(partition) {
            self.exp().add(name, model, ports);
            self.local_globals.push(global);
        }
        global
    }

    /// Declare a named channel between partitions `a` and `b` and return its
    /// two endpoints (`a`-side first). When the partitions differ this is a
    /// **cross link**: in a worker it is one side of a shared-memory region
    /// or of a sockets proxy (the `a` side creates/listens, the `b` side
    /// attaches/connects, with a handshake verifying link name and
    /// parameters either way).
    /// Endpoints belonging to partitions not instantiated here are dangling
    /// placeholders that must not be attached to live components.
    pub fn channel(
        &mut self,
        link: &str,
        a: &str,
        b: &str,
        params: ChannelParams,
    ) -> (ChannelEnd, ChannelEnd) {
        if a != b {
            assert!(
                !self.links.iter().any(|l| l.name == link),
                "duplicate cross-link name {link:?}"
            );
            self.links.push(LinkDecl {
                name: link.to_string(),
                a: a.to_string(),
                b: b.to_string(),
            });
        }
        match self.mode {
            BuildMode::Local => channel_pair(params),
            BuildMode::Discover => (dangling(params), dangling(params)),
            BuildMode::Worker => {
                // io-ok: constructor invariant - worker mode always carries one
                let local = self.local.clone().expect("worker mode has a partition");
                if a == b {
                    if a == local {
                        channel_pair(params)
                    } else {
                        (dangling(params), dangling(params))
                    }
                } else if a == local {
                    (self.cross_end(link, params, true), dangling(params))
                } else if b == local {
                    (dangling(params), self.cross_end(link, params, false))
                } else {
                    (dangling(params), dangling(params))
                }
            }
        }
    }

    /// Worker-side half of a cross-partition link. The owning (`a`) side
    /// uses the worker's resolved transport and the connecting (`b`) side
    /// follows the scheme of the owner's advertised address (`shm:` or
    /// `tcp:`), so the transport is negotiated per link. Failures are
    /// recorded in `build_errors` and yield a dangling end.
    fn cross_end(&mut self, link: &str, params: ChannelParams, listen: bool) -> ChannelEnd {
        let wired = match (listen, self.addr_map.get(link).cloned()) {
            (true, _) if self.transport == TransportKind::Shm => {
                self.shm_cross_end(link, params, None)
            }
            (true, _) => self.tcp_cross_end(link, params, None),
            (false, None) => Err(format!("no peer address for link {link:?}")),
            (false, Some(addr)) => match addr.split_once(':') {
                Some(("shm", path)) => self.shm_cross_end(link, params, Some(Path::new(path))),
                Some(("tcp", peer)) => self.tcp_cross_end(link, params, Some(peer)),
                _ => Err(format!(
                    "link {link:?}: address {addr:?} has no known scheme"
                )),
            },
        };
        wired.unwrap_or_else(|e| {
            self.build_errors.push(e);
            dangling(params)
        })
    }

    /// One side of a shared-memory link: create the region (`peer_region`
    /// is `None`, the owner) or attach to the owner's, and hand the
    /// component the endpoint on the mapping — no stub, no thread.
    /// Attaching polls until the owner has created the region, which cannot
    /// deadlock: every worker runs the same deterministic build function, so
    /// links are visited in one global order and creating never waits.
    fn shm_cross_end(
        &mut self,
        link: &str,
        params: ChannelParams,
        peer_region: Option<&Path>,
    ) -> Result<ChannelEnd, String> {
        let endpoint = match peer_region {
            None => {
                let dir = self.shm_dir.clone().unwrap_or_else(std::env::temp_dir);
                let ep = shm::create_region(&shm::region_path(&dir, link), link, params)
                    .map_err(|e| format!("create shm region for link {link:?}: {e}"))?;
                self.owned_regions.push((link.to_string(), ep.region()));
                ep
            }
            Some(path) => {
                let deadline = Instant::now() + CONNECT_TIMEOUT;
                shm::attach_region(path, link, params, deadline, &ShutdownSignal::default())
                    .map_err(|e| format!("attach shm region for link {link:?}: {e}"))?
            }
        };
        let region = endpoint.region();
        self.link_severs
            .push((link.to_string(), Box::new(move || region.sever())));
        Ok(endpoint.into_channel_end())
    }

    /// One side of a sockets-proxy link: a local channel stub whose other end
    /// a `TcpPump` forwards, handed to the partition's experiment so its
    /// executor drives it — no thread. The owner's pump (`peer` is `None`)
    /// accepts on the pre-bound listener once the run starts; the peer's
    /// connect and handshake write complete against the listen backlog
    /// here, during the build, so no build waits for an accept.
    fn tcp_cross_end(
        &mut self,
        link: &str,
        params: ChannelParams,
        peer: Option<&str>,
    ) -> Result<ChannelEnd, String> {
        let (mut component_end, proxy_local) = channel_pair(params);
        // Impairment streams are seeded by logical link direction. A proxied
        // endpoint comes from a fresh local pair, so its tag must be forced
        // to the side it plays globally: the listening side is always the
        // link's `a` endpoint (dir 0), the connecting side `b` (dir 1).
        // Without this, both partitions would draw dir-0 streams and a
        // distributed run would diverge from the local one.
        component_end.set_dir(if peer.is_none() { 0 } else { 1 });
        let shutdown = Arc::new(ShutdownSignal::default());
        let sever = shutdown.clone();
        self.link_severs
            .push((link.to_string(), Box::new(move || sever.signal())));
        let pump = if let Some(addr) = peer {
            // A freshly advertised listener may not be accepting yet, and
            // transient refusals happen during fleet restarts — retry with
            // bounded exponential backoff instead of failing on the first
            // attempt.
            let mut stream = connect_with_backoff(addr)
                .map_err(|e| format!("connect cross link {link:?} at {addr}: {e}"))?;
            write_handshake(&mut stream, link, &params)
                .map_err(|e| format!("handshake on link {link:?}: {e}"))?;
            TcpPump::live(link, proxy_local, stream, Arc::default(), shutdown)
        } else {
            let listener = self
                .listeners
                .remove(link)
                .ok_or_else(|| format!("no pre-bound listener for owned link {link:?}"))?;
            let deadline = Instant::now() + CONNECT_TIMEOUT;
            let counters = Arc::default();
            TcpPump::accepting(
                link,
                params,
                proxy_local,
                listener,
                deadline,
                counters,
                shutdown,
            )
        };
        let pump = pump.map_err(|e| format!("tcp link {link:?}: {e}"))?;
        self.exp().add_pump(pump);
        Ok(component_end)
    }

    /// Add a host + NIC pair (PCIe-connected, as in
    /// [`crate::build::attach_host_nic`]) to `partition`. Returns the two
    /// global component ids plus the network-side Ethernet endpoint, which is
    /// only live when the partition is instantiated here and must stay within
    /// the same partition — use [`PartitionBuilder::attach_host_nic_on`] when
    /// the Ethernet link itself crosses partitions.
    pub fn attach_host_nic(
        &mut self,
        partition: &str,
        name: &str,
        cfg: HostConfig,
        app: Box<dyn Application>,
        rtl_nic: bool,
    ) -> (usize, usize, ChannelEnd) {
        let eth_params = self.exp().eth_params();
        let (eth_nic, eth_net) = channel_pair(eth_params);
        let (h, n) = self.attach_host_nic_on(partition, name, cfg, app, rtl_nic, eth_nic);
        (h, n, eth_net)
    }

    /// Like [`PartitionBuilder::attach_host_nic`], but the NIC's Ethernet
    /// endpoint is supplied by the caller — typically one side of a
    /// [`PartitionBuilder::channel`] whose other side is a network simulator
    /// in a different partition.
    pub fn attach_host_nic_on(
        &mut self,
        partition: &str,
        name: &str,
        mut cfg: HostConfig,
        app: Box<dyn Application>,
        rtl_nic: bool,
        eth_nic: ChannelEnd,
    ) -> (usize, usize) {
        let (pcie_params, synchronized) = {
            let e = self.exp();
            (e.pcie_params(), e.is_synchronized())
        };
        if !synchronized {
            cfg.quit_when_done = true;
        }
        let (pcie_host, pcie_nic) = channel_pair(pcie_params);
        let h = self.add(
            partition,
            format!("{name}.host"),
            crate::build::host_component(cfg, app),
            vec![pcie_host],
        );
        let n = self.add(
            partition,
            format!("{name}.nic"),
            crate::build::nic_model(cfg.nic, rtl_nic),
            vec![pcie_nic, eth_nic],
        );
        (h, n)
    }
}

#[cfg(test)]
mod tests {
    use super::super::run_local;
    use super::super::tests::{two_partition_build, Pinger};
    use super::*;
    use crate::experiment::Execution;
    use simbricks_base::SimTime;

    #[test]
    fn local_mode_builds_and_runs_everything() {
        let r = run_local("", &two_partition_build, Execution::Sequential);
        assert_eq!(r.component_names, vec!["left", "right"]);
        let right: &Pinger = r.model(1).unwrap();
        assert_eq!(right.received, 5);
    }

    #[test]
    fn discover_mode_records_links_and_global_order_without_instantiating() {
        let mut pb = PartitionBuilder::new(BuildMode::Discover, None);
        two_partition_build("", &mut pb);
        assert_eq!(pb.next_global, 2, "both components counted");
        assert!(pb.local_globals.is_empty(), "nothing instantiated");
        assert_eq!(pb.links.len(), 1);
        assert_eq!(pb.links[0].name, "x-link");
        assert_eq!(
            (pb.links[0].a.as_str(), pb.links[0].b.as_str()),
            ("p0", "p1")
        );
        assert_eq!(pb.exp().num_components(), 0);
    }

    #[test]
    fn worker_mode_instantiates_only_its_partition() {
        // No sockets involved: an intra-partition channel plus a foreign
        // component exercise the filtering logic without cross links.
        let mut pb = PartitionBuilder::new(BuildMode::Worker, Some("p0".into()));
        pb.init(Experiment::new("w", SimTime::from_us(10)));
        let params = pb.exp().eth_params();
        let (a, b) = pb.channel("local-link", "p0", "p0", params);
        let g0 = pb.add(
            "p0",
            "mine-a",
            Box::new(Pinger {
                count: 0,
                sent: 0,
                received: 0,
            }),
            vec![a],
        );
        let g1 = pb.add(
            "p1",
            "theirs",
            Box::new(Pinger {
                count: 0,
                sent: 0,
                received: 0,
            }),
            vec![],
        );
        let g2 = pb.add(
            "p0",
            "mine-b",
            Box::new(Pinger {
                count: 0,
                sent: 0,
                received: 0,
            }),
            vec![b],
        );
        assert_eq!((g0, g1, g2), (0, 1, 2), "global ids count every component");
        assert_eq!(
            pb.exp().num_components(),
            2,
            "only p0 components instantiated"
        );
        assert_eq!(pb.local_globals, vec![0, 2]);
    }
}
