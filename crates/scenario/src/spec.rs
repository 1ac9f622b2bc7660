//! Typed scenario model parsed out of the TOML document.
//!
//! The spec layer turns an ordered [`crate::toml::Doc`] into validated Rust
//! types ([`Scenario`], [`HostSpec`], [`SwitchSpec`], [`LinkSpec`]) without
//! touching any simulator — lowering onto a
//! [`simbricks_runner::PartitionBuilder`] lives in [`crate::lower()`]. Node
//! **declaration order is preserved** because it determines component build
//! order and therefore event-log fingerprints.
//!
//! All quantities with units are written as suffixed strings — durations as
//! `"500ns"` / `"2ms"`, bandwidths as `"10Gbps"` — never floats, so a
//! scenario file can never introduce platform-dependent rounding into
//! simulated time (simcheck rule R4 holds by construction).

use std::fmt;

use simbricks_base::{Impairment, LossModel, SimTime};
use simbricks_hostsim::{HostKind, NicModelKind};
use simbricks_netsim::Aqm;
use simbricks_netstack::CongestionControl;

use crate::toml::{Doc, Section, TomlError, Value};

/// Scenario parse/validation failure with source location and context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based source line (0 when the error is not tied to one line).
    pub line: usize,
    /// Actionable description.
    pub msg: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.msg)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<TomlError> for ScenarioError {
    fn from(e: TomlError) -> Self {
        ScenarioError {
            line: e.line,
            msg: e.msg,
        }
    }
}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError {
        line,
        msg: msg.into(),
    })
}

// ---------------------------------------------------------------------------
// Unit parsing
// ---------------------------------------------------------------------------

/// Parse a suffixed duration string: `"<integer><ps|ns|us|ms|s>"`.
pub fn parse_duration(s: &str) -> Result<SimTime, String> {
    let s = s.trim();
    let split = s
        .char_indices()
        .find(|(_, c)| !(c.is_ascii_digit() || *c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    let digits: String = num.chars().filter(|&c| c != '_').collect();
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("`{s}` is not a duration (expected e.g. \"500ns\", \"2ms\")"))?;
    match unit.trim() {
        "ps" => Ok(SimTime::from_ps(n)),
        "ns" => Ok(SimTime::from_ns(n)),
        "us" => Ok(SimTime::from_us(n)),
        "ms" => Ok(SimTime::from_ms(n)),
        "s" => Ok(SimTime::from_sec(n)),
        "" => Err(format!(
            "duration `{s}` needs a unit suffix: ps, ns, us, ms, or s"
        )),
        u => Err(format!(
            "unknown duration unit `{u}` in `{s}` (use ps, ns, us, ms, or s)"
        )),
    }
}

/// Parse a bandwidth: `"<integer><bps|Kbps|Mbps|Gbps>"` (case-insensitive).
pub fn parse_bandwidth(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let split = s
        .char_indices()
        .find(|(_, c)| !(c.is_ascii_digit() || *c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    let digits: String = num.chars().filter(|&c| c != '_').collect();
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("`{s}` is not a bandwidth (expected e.g. \"10Gbps\")"))?;
    let mult = match unit.trim().to_ascii_lowercase().as_str() {
        "bps" | "" => 1,
        "kbps" => 1_000,
        "mbps" => 1_000_000,
        "gbps" => 1_000_000_000,
        u => {
            return Err(format!(
                "unknown bandwidth unit `{u}` in `{s}` (use bps, Kbps, Mbps, or Gbps)"
            ))
        }
    };
    n.checked_mul(mult)
        .ok_or_else(|| format!("bandwidth `{s}` overflows"))
}

// ---------------------------------------------------------------------------
// Section field accessors
// ---------------------------------------------------------------------------

fn check_keys(sec: &Section, allowed: &[&str]) -> Result<(), ScenarioError> {
    for (k, _, line) in &sec.entries {
        if !allowed.contains(&k.as_str()) {
            return err(
                *line,
                format!(
                    "unknown key `{k}` in [{}] (known keys: {})",
                    sec.path_str(),
                    allowed.join(", ")
                ),
            );
        }
    }
    Ok(())
}

fn get_str(sec: &Section, key: &str) -> Result<Option<String>, ScenarioError> {
    match sec.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(v) => err(
            sec.line_of(key),
            format!("`{key}` must be a string, found {}", v.type_name()),
        ),
    }
}

fn req_str(sec: &Section, key: &str) -> Result<String, ScenarioError> {
    match get_str(sec, key)? {
        Some(s) if !s.is_empty() => Ok(s),
        Some(_) => err(sec.line_of(key), format!("`{key}` must not be empty")),
        None => err(
            sec.line,
            format!("[{}] is missing required key `{key}`", sec.path_str()),
        ),
    }
}

fn get_bool(sec: &Section, key: &str) -> Result<Option<bool>, ScenarioError> {
    match sec.get(key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(v) => err(
            sec.line_of(key),
            format!("`{key}` must be true or false, found {}", v.type_name()),
        ),
    }
}

fn get_u64(sec: &Section, key: &str) -> Result<Option<u64>, ScenarioError> {
    match sec.get(key) {
        None => Ok(None),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
        Some(Value::Int(i)) => err(
            sec.line_of(key),
            format!("`{key}` must be non-negative, found {i}"),
        ),
        Some(v) => err(
            sec.line_of(key),
            format!("`{key}` must be an integer, found {}", v.type_name()),
        ),
    }
}

fn get_usize(sec: &Section, key: &str) -> Result<Option<usize>, ScenarioError> {
    Ok(get_u64(sec, key)?.map(|v| v as usize))
}

fn get_u16(sec: &Section, key: &str) -> Result<Option<u16>, ScenarioError> {
    match get_u64(sec, key)? {
        None => Ok(None),
        Some(v) if v <= u16::MAX as u64 => Ok(Some(v as u16)),
        Some(v) => err(
            sec.line_of(key),
            format!("`{key}` = {v} does not fit in 16 bits"),
        ),
    }
}

fn get_duration(sec: &Section, key: &str) -> Result<Option<SimTime>, ScenarioError> {
    match sec.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => parse_duration(s).map(Some).map_err(|m| ScenarioError {
            line: sec.line_of(key),
            msg: format!("`{key}`: {m}"),
        }),
        Some(Value::Int(_)) => err(
            sec.line_of(key),
            format!("`{key}` needs a unit: write it as a string like \"500ns\" or \"2ms\""),
        ),
        Some(v) => err(
            sec.line_of(key),
            format!("`{key}` must be a duration string, found {}", v.type_name()),
        ),
    }
}

fn get_bandwidth(sec: &Section, key: &str) -> Result<Option<u64>, ScenarioError> {
    match sec.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => parse_bandwidth(s).map(Some).map_err(|m| ScenarioError {
            line: sec.line_of(key),
            msg: format!("`{key}`: {m}"),
        }),
        Some(Value::Int(i)) if *i > 0 => Ok(Some(*i as u64)),
        Some(v) => err(
            sec.line_of(key),
            format!(
                "`{key}` must be a bandwidth like \"10Gbps\" (or raw bps integer), found {}",
                v.type_name()
            ),
        ),
    }
}

// ---------------------------------------------------------------------------
// Spec types
// ---------------------------------------------------------------------------

/// Queue-discipline selection for a switch or a single switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AqmSpec {
    /// Tail-drop only.
    DropTail,
    /// DCTCP-style instantaneous marking threshold (packets).
    Dctcp {
        /// Marking threshold K in packets.
        k_pkts: usize,
    },
    /// Random Early Detection.
    Red {
        /// Queue length (packets) below which nothing is marked/dropped.
        min_pkts: usize,
        /// Queue length at which the probability ramp reaches its maximum.
        max_pkts: usize,
        /// Probability at `max_pkts`, in permille.
        max_prob_permille: u16,
    },
    /// CoDel sojourn-time AQM.
    CoDel {
        /// Target sojourn time.
        target: SimTime,
        /// Sliding measurement interval.
        interval: SimTime,
    },
    /// DualPI2 coupled AQM (L4S).
    DualPi2 {
        /// Queue-delay target.
        target: SimTime,
        /// PI controller update period.
        tupdate: SimTime,
    },
}

impl AqmSpec {
    /// Convert to the switch's runtime [`Aqm`] enum.
    pub fn to_aqm(self) -> Aqm {
        match self {
            AqmSpec::DropTail => Aqm::DropTail,
            AqmSpec::Dctcp { k_pkts } => Aqm::DctcpThreshold { k_pkts },
            AqmSpec::Red {
                min_pkts,
                max_pkts,
                max_prob_permille,
            } => Aqm::Red {
                min_pkts,
                max_pkts,
                max_prob_permille,
            },
            AqmSpec::CoDel { target, interval } => Aqm::CoDel { target, interval },
            AqmSpec::DualPi2 { target, tupdate } => Aqm::DualPi2 { target, tupdate },
        }
    }

    fn parse(sec: &Section) -> Result<AqmSpec, ScenarioError> {
        let ty = req_str(sec, "type")?;
        match ty.as_str() {
            "droptail" => {
                check_keys(sec, &["type"])?;
                Ok(AqmSpec::DropTail)
            }
            "dctcp" => {
                check_keys(sec, &["type", "k_pkts"])?;
                let k = get_usize(sec, "k_pkts")?.unwrap_or(20);
                if k == 0 {
                    return err(sec.line_of("k_pkts"), "dctcp `k_pkts` must be > 0");
                }
                Ok(AqmSpec::Dctcp { k_pkts: k })
            }
            "red" => {
                check_keys(sec, &["type", "min_pkts", "max_pkts", "max_prob_permille"])?;
                let min = get_usize(sec, "min_pkts")?.unwrap_or(5);
                let max = get_usize(sec, "max_pkts")?.unwrap_or(15);
                let p = get_u16(sec, "max_prob_permille")?.unwrap_or(100);
                if min >= max {
                    return err(
                        sec.line,
                        format!("red needs min_pkts < max_pkts (got {min} >= {max})"),
                    );
                }
                if p > 1000 {
                    return err(
                        sec.line_of("max_prob_permille"),
                        format!("red `max_prob_permille` is a permille, max 1000 (got {p})"),
                    );
                }
                Ok(AqmSpec::Red {
                    min_pkts: min,
                    max_pkts: max,
                    max_prob_permille: p,
                })
            }
            "codel" => {
                check_keys(sec, &["type", "target", "interval"])?;
                let target = get_duration(sec, "target")?.unwrap_or(SimTime::from_us(5));
                let interval = get_duration(sec, "interval")?.unwrap_or(SimTime::from_us(100));
                if target == SimTime::ZERO || interval == SimTime::ZERO {
                    return err(sec.line, "codel `target` and `interval` must be > 0");
                }
                Ok(AqmSpec::CoDel { target, interval })
            }
            "dualpi2" => {
                check_keys(sec, &["type", "target", "tupdate"])?;
                let target = get_duration(sec, "target")?.unwrap_or(SimTime::from_us(15));
                let tupdate = get_duration(sec, "tupdate")?.unwrap_or(SimTime::from_us(16));
                if target == SimTime::ZERO || tupdate == SimTime::ZERO {
                    return err(sec.line, "dualpi2 `target` and `tupdate` must be > 0");
                }
                Ok(AqmSpec::DualPi2 { target, tupdate })
            }
            other => err(
                sec.line_of("type"),
                format!("unknown AQM type `{other}` (known: droptail, dctcp, red, codel, dualpi2)"),
            ),
        }
    }
}

/// Link impairment description (`[link.impairment]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImpairmentSpec {
    /// Loss process.
    pub loss: LossModel,
    /// Uniform extra-delay bound (0 disables jitter).
    pub jitter: SimTime,
    /// Probability (permille) of holding a packet back past its successor.
    pub reorder_permille: u16,
    /// Rate-variation epoch length (0 disables rate variation).
    pub rate_period: SimTime,
    /// Per-epoch extra-delay bound for rate variation.
    pub rate_jitter: SimTime,
    /// Explicit PRNG seed; `None` derives one from the scenario seed and the
    /// link name.
    pub seed: Option<u64>,
}

impl ImpairmentSpec {
    /// Build the runtime [`Impairment`], deriving the seed when unset.
    pub fn build(&self, default_seed: u64) -> Impairment {
        let mut imp = Impairment::none().with_seed(self.seed.unwrap_or(default_seed));
        imp.loss = self.loss;
        imp.jitter_max = self.jitter;
        imp.reorder_permille = self.reorder_permille;
        imp.rate_period = self.rate_period;
        imp.rate_jitter_max = self.rate_jitter;
        imp
    }

    fn parse(sec: &Section) -> Result<ImpairmentSpec, ScenarioError> {
        check_keys(
            sec,
            &[
                "loss",
                "loss_permille",
                "to_bad_permille",
                "to_good_permille",
                "bad_loss_permille",
                "jitter",
                "reorder_permille",
                "rate_period",
                "rate_jitter",
                "seed",
            ],
        )?;
        let permille = |key: &str, default: u16| -> Result<u16, ScenarioError> {
            let v = get_u16(sec, key)?.unwrap_or(default);
            if v > 1000 {
                return err(
                    sec.line_of(key),
                    format!("`{key}` is a permille, max 1000 (got {v})"),
                );
            }
            Ok(v)
        };
        let loss = match get_str(sec, "loss")?.as_deref() {
            None => {
                // Bare `loss_permille` implies Bernoulli.
                if sec.get("loss_permille").is_some() {
                    LossModel::Bernoulli {
                        permille: permille("loss_permille", 0)?,
                    }
                } else {
                    LossModel::None
                }
            }
            Some("bernoulli") => LossModel::Bernoulli {
                permille: permille("loss_permille", 0)?,
            },
            Some("gilbert_elliott") => LossModel::GilbertElliott {
                to_bad_permille: permille("to_bad_permille", 5)?,
                to_good_permille: permille("to_good_permille", 200)?,
                bad_loss_permille: permille("bad_loss_permille", 500)?,
            },
            Some(other) => {
                return err(
                    sec.line_of("loss"),
                    format!("unknown loss model `{other}` (known: bernoulli, gilbert_elliott)"),
                )
            }
        };
        let spec = ImpairmentSpec {
            loss,
            jitter: get_duration(sec, "jitter")?.unwrap_or(SimTime::ZERO),
            reorder_permille: permille("reorder_permille", 0)?,
            rate_period: get_duration(sec, "rate_period")?.unwrap_or(SimTime::ZERO),
            rate_jitter: get_duration(sec, "rate_jitter")?.unwrap_or(SimTime::ZERO),
            seed: get_u64(sec, "seed")?,
        };
        if let Err(m) = spec.build(1).validate() {
            return err(sec.line, format!("invalid impairment: {m}"));
        }
        Ok(spec)
    }
}

/// Application running on a host (`[host.app]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppSpec {
    /// iperf-style TCP sink.
    IperfTcpServer {
        /// Listen port.
        port: u16,
    },
    /// iperf-style TCP source.
    IperfTcpClient {
        /// Server host name.
        server: String,
        /// Server port.
        port: u16,
        /// Send duration (scenario duration when `None`).
        duration: Option<SimTime>,
    },
    /// iperf-style UDP sink.
    IperfUdpServer {
        /// Listen port.
        port: u16,
    },
    /// Paced UDP source.
    IperfUdpClient {
        /// Server host name.
        server: String,
        /// Server port.
        port: u16,
        /// Offered rate in bits per second.
        rate_bps: u64,
        /// Datagram payload bytes.
        payload: usize,
        /// Send duration (scenario duration when `None`).
        duration: Option<SimTime>,
    },
    /// netperf-style stream + request/response sink.
    NetperfServer {
        /// Bulk-stream port.
        stream_port: u16,
        /// Request/response port.
        rr_port: u16,
    },
    /// netperf-style client: bulk stream then latency ping-pong.
    NetperfClient {
        /// Server host name.
        server: String,
        /// Bulk-stream port.
        stream_port: u16,
        /// Request/response port.
        rr_port: u16,
        /// Stream phase duration (half the scenario duration when `None`).
        stream_duration: Option<SimTime>,
        /// RR phase duration (half the scenario duration when `None`).
        rr_duration: Option<SimTime>,
    },
    /// memcached UDP server.
    MemcachedServer,
    /// memaslap-style closed-loop key/value client.
    MemaslapClient {
        /// Server host names.
        servers: Vec<String>,
        /// Outstanding requests kept in flight.
        concurrency: usize,
        /// Value size in bytes.
        value_size: usize,
        /// Run duration (scenario duration when `None`).
        duration: Option<SimTime>,
    },
}

impl AppSpec {
    /// Host names this app sends to (used for validation).
    pub fn server_refs(&self) -> Vec<&str> {
        match self {
            AppSpec::IperfTcpClient { server, .. }
            | AppSpec::IperfUdpClient { server, .. }
            | AppSpec::NetperfClient { server, .. } => vec![server.as_str()],
            AppSpec::MemaslapClient { servers, .. } => servers.iter().map(|s| s.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    fn parse(sec: &Section) -> Result<AppSpec, ScenarioError> {
        let ty = req_str(sec, "type")?;
        match ty.as_str() {
            "iperf_tcp_server" => {
                check_keys(sec, &["type", "port"])?;
                Ok(AppSpec::IperfTcpServer {
                    port: get_u16(sec, "port")?.unwrap_or(5000),
                })
            }
            "iperf_tcp_client" => {
                check_keys(sec, &["type", "server", "port", "duration"])?;
                Ok(AppSpec::IperfTcpClient {
                    server: req_str(sec, "server")?,
                    port: get_u16(sec, "port")?.unwrap_or(5000),
                    duration: get_duration(sec, "duration")?,
                })
            }
            "iperf_udp_server" => {
                check_keys(sec, &["type", "port"])?;
                Ok(AppSpec::IperfUdpServer {
                    port: get_u16(sec, "port")?.unwrap_or(9000),
                })
            }
            "iperf_udp_client" => {
                check_keys(
                    sec,
                    &["type", "server", "port", "rate", "payload", "duration"],
                )?;
                let rate = get_bandwidth(sec, "rate")?.ok_or_else(|| ScenarioError {
                    line: sec.line,
                    msg: "iperf_udp_client needs `rate` (e.g. \"500Mbps\")".into(),
                })?;
                Ok(AppSpec::IperfUdpClient {
                    server: req_str(sec, "server")?,
                    port: get_u16(sec, "port")?.unwrap_or(9000),
                    rate_bps: rate,
                    payload: get_usize(sec, "payload")?.unwrap_or(800),
                    duration: get_duration(sec, "duration")?,
                })
            }
            "netperf_server" => {
                check_keys(sec, &["type", "stream_port", "rr_port"])?;
                Ok(AppSpec::NetperfServer {
                    stream_port: get_u16(sec, "stream_port")?.unwrap_or(5201),
                    rr_port: get_u16(sec, "rr_port")?.unwrap_or(5202),
                })
            }
            "netperf_client" => {
                check_keys(
                    sec,
                    &[
                        "type",
                        "server",
                        "stream_port",
                        "rr_port",
                        "stream_duration",
                        "rr_duration",
                    ],
                )?;
                Ok(AppSpec::NetperfClient {
                    server: req_str(sec, "server")?,
                    stream_port: get_u16(sec, "stream_port")?.unwrap_or(5201),
                    rr_port: get_u16(sec, "rr_port")?.unwrap_or(5202),
                    stream_duration: get_duration(sec, "stream_duration")?,
                    rr_duration: get_duration(sec, "rr_duration")?,
                })
            }
            "memcached_server" => {
                check_keys(sec, &["type"])?;
                Ok(AppSpec::MemcachedServer)
            }
            "memaslap_client" => {
                check_keys(
                    sec,
                    &["type", "servers", "concurrency", "value_size", "duration"],
                )?;
                let servers = match sec.get("servers") {
                    Some(Value::Array(v)) if !v.is_empty() => {
                        let mut names = Vec::new();
                        for e in v {
                            match e.as_str() {
                                Some(s) => names.push(s.to_string()),
                                None => {
                                    return err(
                                        sec.line_of("servers"),
                                        "`servers` must be an array of host-name strings",
                                    )
                                }
                            }
                        }
                        names
                    }
                    _ => {
                        return err(
                            sec.line,
                            "memaslap_client needs `servers = [\"h0\", ...]` (non-empty)",
                        )
                    }
                };
                Ok(AppSpec::MemaslapClient {
                    servers,
                    concurrency: get_usize(sec, "concurrency")?.unwrap_or(2),
                    value_size: get_usize(sec, "value_size")?.unwrap_or(64),
                    duration: get_duration(sec, "duration")?,
                })
            }
            other => err(
                sec.line_of("type"),
                format!(
                    "unknown app type `{other}` (known: iperf_tcp_server, iperf_tcp_client, \
                     iperf_udp_server, iperf_udp_client, netperf_server, netperf_client, \
                     memcached_server, memaslap_client)"
                ),
            ),
        }
    }
}

/// A simulated host + NIC pair (`[[host]]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpec {
    /// Component base name (`<name>.host` / `<name>.nic`).
    pub name: String,
    /// Host simulator fidelity.
    pub kind: HostKind,
    /// NIC behavioural model.
    pub nic: NicModelKind,
    /// TCP congestion control (host default when `None`).
    pub congestion: Option<CongestionControl>,
    /// Interface MTU (host default when `None`).
    pub mtu: Option<usize>,
    /// Address index: `ip = 10.x.y.(index+1)`, assigned by declaration order
    /// unless overridden.
    pub index: u32,
    /// Partition this host runs in.
    pub partition: String,
    /// Use the RTL NIC model instead of the behavioural one.
    pub rtl_nic: bool,
    /// The application workload (required).
    pub app: AppSpec,
    /// Header source line.
    pub line: usize,
}

/// A behavioural switch (`[[switch]]`). Port count is implied by the links
/// that reference it, in link declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchSpec {
    /// Component name.
    pub name: String,
    /// Partition this switch runs in.
    pub partition: String,
    /// Egress bandwidth override.
    pub bandwidth_bps: Option<u64>,
    /// Egress queue capacity override (bytes).
    pub queue_capacity: Option<usize>,
    /// Default queue discipline for every port.
    pub aqm: Option<AqmSpec>,
    /// Header source line.
    pub line: usize,
}

/// A point-to-point channel between two nodes (`[[link]]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkSpec {
    /// Unique link name (also the dist cross-link identifier).
    pub name: String,
    /// First endpoint node name (dist listen side, impairment direction 0).
    pub a: String,
    /// Second endpoint node name (dist connect side, direction 1).
    pub b: String,
    /// Propagation latency override.
    pub latency: Option<SimTime>,
    /// Channel impairment model.
    pub impairment: Option<ImpairmentSpec>,
    /// Per-port AQM override applied to switch endpoints of this link.
    pub aqm: Option<AqmSpec>,
    /// Header source line.
    pub line: usize,
}

/// The kinds of deterministic faults a scenario can schedule (`[[fault]]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDeclKind {
    /// Kill a partition's worker process mid-run.
    KillWorker,
    /// Tear down a cross-partition link's proxy.
    SeverLink,
    /// Flip a bit in the newest complete checkpoint-ring slot.
    CorruptCheckpoint,
    /// Truncate the newest complete checkpoint-ring slot (torn write).
    TruncateCheckpoint,
}

/// One scheduled fault (`[[fault]]`): injected by the dist orchestrator when
/// the fleet's minimum virtual time reaches `at`. Omitted targets (partition
/// for `kill_worker`, link for `sever_link`) are chosen deterministically
/// from the scenario seed at lowering time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultDecl {
    /// Virtual-time threshold.
    pub at: SimTime,
    /// What to break.
    pub kind: FaultDeclKind,
    /// Target partition (only for `kill_worker`; seed-derived if omitted).
    pub partition: Option<String>,
    /// Target cross link (only for `sever_link`; seed-derived if omitted).
    pub link: Option<String>,
    /// Header source line.
    pub line: usize,
}

impl FaultDecl {
    fn parse(sec: &Section) -> Result<FaultDecl, ScenarioError> {
        check_keys(sec, &["at", "kind", "partition", "link"])?;
        let at = get_duration(sec, "at")?.ok_or_else(|| ScenarioError {
            line: sec.line,
            msg: "[[fault]] needs `at` (e.g. at = \"3ms\")".into(),
        })?;
        let kind = match req_str(sec, "kind")?.as_str() {
            "kill_worker" => FaultDeclKind::KillWorker,
            "sever_link" => FaultDeclKind::SeverLink,
            "corrupt_checkpoint" => FaultDeclKind::CorruptCheckpoint,
            "truncate_checkpoint" => FaultDeclKind::TruncateCheckpoint,
            other => {
                return err(
                    sec.line_of("kind"),
                    format!(
                        "unknown fault kind `{other}` (known: kill_worker, sever_link, \
                         corrupt_checkpoint, truncate_checkpoint)"
                    ),
                )
            }
        };
        let partition = get_str(sec, "partition")?;
        let link = get_str(sec, "link")?;
        if partition.is_some() && kind != FaultDeclKind::KillWorker {
            return err(
                sec.line_of("partition"),
                "`partition` is only valid for kill_worker",
            );
        }
        if link.is_some() && kind != FaultDeclKind::SeverLink {
            return err(sec.line_of("link"), "`link` is only valid for sever_link");
        }
        Ok(FaultDecl {
            at,
            kind,
            partition,
            link,
            line: sec.line,
        })
    }
}

/// A node in declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Host + NIC pair.
    Host(HostSpec),
    /// Behavioural switch.
    Switch(SwitchSpec),
}

impl Node {
    /// The node's name.
    pub fn name(&self) -> &str {
        match self {
            Node::Host(h) => &h.name,
            Node::Switch(s) => &s.name,
        }
    }

    /// The node's partition.
    pub fn partition(&self) -> &str {
        match self {
            Node::Host(h) => &h.partition,
            Node::Switch(s) => &s.partition,
        }
    }
}

/// A fully parsed, validated scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Experiment name.
    pub name: String,
    /// Master seed: per-link impairment and per-switch AQM seeds derive from
    /// it (mixed with the element name) unless overridden.
    pub seed: u64,
    /// Workload duration (apps default to it).
    pub duration: SimTime,
    /// Extra virtual time past `duration` before the experiment ends.
    pub end_margin: SimTime,
    /// Enable event logging (needed for fingerprints).
    pub log: bool,
    /// Synchronized channels (the paper's accurate mode).
    pub synchronized: bool,
    /// Hierarchical sync domains.
    pub hier_sync: bool,
    /// Global sync-interval override.
    pub sync_interval: Option<SimTime>,
    /// Default Ethernet link latency.
    pub link_latency: Option<SimTime>,
    /// Default PCIe latency.
    pub pcie_latency: Option<SimTime>,
    /// Default executor string (`[run] exec`), e.g. `"sequential"`.
    pub exec: String,
    /// Default dist transport string (`[run] transport`).
    pub transport: String,
    /// Hosts and switches in declaration order.
    pub nodes: Vec<Node>,
    /// Links in declaration order.
    pub links: Vec<LinkSpec>,
    /// Scheduled faults in declaration order (`[[fault]]`).
    pub faults: Vec<FaultDecl>,
    /// Restart budget for fault recovery (`[faults] max_restarts`).
    pub max_restarts: Option<u64>,
    /// Worker heartbeat period override (`[faults] heartbeat`), wall clock.
    pub heartbeat: Option<SimTime>,
}

fn parse_host_kind(s: &str, line: usize) -> Result<HostKind, ScenarioError> {
    match s {
        "gem5_timing" | "gem5" => Ok(HostKind::Gem5Timing),
        "qemu_timing" | "qemu" => Ok(HostKind::QemuTiming),
        "qemu_kvm" | "kvm" => Ok(HostKind::QemuKvm),
        other => err(
            line,
            format!("unknown host kind `{other}` (known: gem5_timing, qemu_timing, qemu_kvm)"),
        ),
    }
}

fn parse_nic_kind(s: &str, line: usize) -> Result<NicModelKind, ScenarioError> {
    match s {
        "i40e" => Ok(NicModelKind::I40e),
        "corundum" => Ok(NicModelKind::Corundum),
        "e1000" => Ok(NicModelKind::E1000),
        other => err(
            line,
            format!("unknown NIC model `{other}` (known: i40e, corundum, e1000)"),
        ),
    }
}

fn parse_congestion(s: &str, line: usize) -> Result<CongestionControl, ScenarioError> {
    match s {
        "reno" => Ok(CongestionControl::Reno),
        "dctcp" => Ok(CongestionControl::Dctcp),
        other => err(
            line,
            format!("unknown congestion control `{other}` (known: reno, dctcp)"),
        ),
    }
}

/// Which `[[...]]` array element a sub-table may attach to.
enum LastArray {
    None,
    Host,
    Switch,
    Link,
}

impl Scenario {
    /// Parse and validate a scenario from TOML text.
    pub fn from_toml_str(text: &str) -> Result<Scenario, ScenarioError> {
        let doc = Doc::parse(text)?;
        Self::from_doc(&doc)
    }

    /// Parse and validate a scenario from an already-parsed document.
    pub fn from_doc(doc: &Doc) -> Result<Scenario, ScenarioError> {
        if let Some((k, _, line)) = doc.root.first() {
            return err(
                *line,
                format!("top-level key `{k}` is not allowed: put it under a [scenario] section"),
            );
        }
        let mut scenario_sec: Option<&Section> = None;
        let mut run_sec: Option<&Section> = None;
        let mut faults_sec: Option<&Section> = None;
        let mut nodes: Vec<Node> = Vec::new();
        let mut links: Vec<LinkSpec> = Vec::new();
        let mut faults: Vec<FaultDecl> = Vec::new();
        // Node indices that received an explicit [host.app] sub-table.
        let mut app_seen: Vec<usize> = Vec::new();
        let mut host_counter: u32 = 0;
        let mut last = LastArray::None;

        for sec in &doc.sections {
            let path: Vec<&str> = sec.path.iter().map(|s| s.as_str()).collect();
            match (path.as_slice(), sec.is_array) {
                (["scenario"], false) => {
                    if scenario_sec.is_some() {
                        return err(sec.line, "duplicate [scenario] section");
                    }
                    scenario_sec = Some(sec);
                    last = LastArray::None;
                }
                (["run"], false) => {
                    if run_sec.is_some() {
                        return err(sec.line, "duplicate [run] section");
                    }
                    run_sec = Some(sec);
                    last = LastArray::None;
                }
                (["faults"], false) => {
                    if faults_sec.is_some() {
                        return err(sec.line, "duplicate [faults] section");
                    }
                    faults_sec = Some(sec);
                    last = LastArray::None;
                }
                (["fault"], true) => {
                    faults.push(FaultDecl::parse(sec)?);
                    last = LastArray::None;
                }
                (["host"], true) => {
                    check_keys(
                        sec,
                        &[
                            "name",
                            "kind",
                            "nic",
                            "congestion",
                            "mtu",
                            "index",
                            "partition",
                            "rtl_nic",
                        ],
                    )?;
                    let index = match get_u64(sec, "index")? {
                        Some(i) if i <= u32::MAX as u64 => i as u32,
                        Some(i) => {
                            return err(
                                sec.line_of("index"),
                                format!("host `index` = {i} does not fit in 32 bits"),
                            )
                        }
                        None => host_counter,
                    };
                    host_counter += 1;
                    let kind = match get_str(sec, "kind")? {
                        Some(s) => parse_host_kind(&s, sec.line_of("kind"))?,
                        None => HostKind::Gem5Timing,
                    };
                    let nic = match get_str(sec, "nic")? {
                        Some(s) => parse_nic_kind(&s, sec.line_of("nic"))?,
                        None => NicModelKind::I40e,
                    };
                    let congestion = match get_str(sec, "congestion")? {
                        Some(s) => Some(parse_congestion(&s, sec.line_of("congestion"))?),
                        None => None,
                    };
                    nodes.push(Node::Host(HostSpec {
                        name: req_str(sec, "name")?,
                        kind,
                        nic,
                        congestion,
                        mtu: get_usize(sec, "mtu")?,
                        index,
                        partition: get_str(sec, "partition")?.unwrap_or_else(|| "w0".into()),
                        rtl_nic: get_bool(sec, "rtl_nic")?.unwrap_or(false),
                        // Placeholder until the [host.app] sub-table arrives;
                        // validate() rejects hosts that never get one.
                        app: AppSpec::MemcachedServer,
                        line: sec.line,
                    }));
                    // Remember whether an app sub-table arrived (parallel
                    // vec would be clumsy: use a sentinel check in validate
                    // via `app_seen` tracking below).
                    last = LastArray::Host;
                }
                (["switch"], true) => {
                    check_keys(
                        sec,
                        &["name", "partition", "bandwidth", "queue_capacity", "ecn_k"],
                    )?;
                    let aqm = match get_usize(sec, "ecn_k")? {
                        Some(k) if k > 0 => Some(AqmSpec::Dctcp { k_pkts: k }),
                        Some(_) => return err(sec.line_of("ecn_k"), "`ecn_k` must be > 0"),
                        None => None,
                    };
                    nodes.push(Node::Switch(SwitchSpec {
                        name: req_str(sec, "name")?,
                        partition: get_str(sec, "partition")?.unwrap_or_else(|| "w0".into()),
                        bandwidth_bps: get_bandwidth(sec, "bandwidth")?,
                        queue_capacity: get_usize(sec, "queue_capacity")?,
                        aqm,
                        line: sec.line,
                    }));
                    last = LastArray::Switch;
                }
                (["link"], true) => {
                    check_keys(sec, &["name", "a", "b", "latency"])?;
                    links.push(LinkSpec {
                        name: req_str(sec, "name")?,
                        a: req_str(sec, "a")?,
                        b: req_str(sec, "b")?,
                        latency: get_duration(sec, "latency")?,
                        impairment: None,
                        aqm: None,
                        line: sec.line,
                    });
                    last = LastArray::Link;
                }
                (["host", "app"], false) => match (nodes.last_mut(), &last) {
                    (Some(Node::Host(h)), LastArray::Host) => {
                        h.app = AppSpec::parse(sec)?;
                        app_seen.push(nodes.len() - 1);
                        // Consume the slot so a second [host.app] errors.
                        last = LastArray::None;
                    }
                    _ => {
                        return err(
                            sec.line,
                            "[host.app] must follow the [[host]] it belongs to",
                        )
                    }
                },
                (["switch", "aqm"], false) => match (nodes.last_mut(), &last) {
                    (Some(Node::Switch(s)), LastArray::Switch) => {
                        if s.aqm.is_some() {
                            // Only `ecn_k` can have set it at this point.
                            return err(
                                sec.line,
                                format!(
                                    "switch `{}` sets both `ecn_k` and [switch.aqm]: pick one",
                                    s.name
                                ),
                            );
                        }
                        s.aqm = Some(AqmSpec::parse(sec)?);
                        last = LastArray::None;
                    }
                    _ => {
                        return err(
                            sec.line,
                            "[switch.aqm] must follow the [[switch]] it belongs to",
                        )
                    }
                },
                (["link", "impairment"], false) => match (links.last_mut(), &last) {
                    (Some(l), LastArray::Link) => {
                        if l.impairment.is_some() {
                            return err(sec.line, "duplicate [link.impairment]");
                        }
                        l.impairment = Some(ImpairmentSpec::parse(sec)?);
                    }
                    _ => {
                        return err(
                            sec.line,
                            "[link.impairment] must follow the [[link]] it belongs to",
                        )
                    }
                },
                (["link", "aqm"], false) => match (links.last_mut(), &last) {
                    (Some(l), LastArray::Link) => {
                        if l.aqm.is_some() {
                            return err(sec.line, "duplicate [link.aqm]");
                        }
                        l.aqm = Some(AqmSpec::parse(sec)?);
                    }
                    _ => {
                        return err(
                            sec.line,
                            "[link.aqm] must follow the [[link]] it belongs to",
                        )
                    }
                },
                _ => {
                    return err(
                        sec.line,
                        format!(
                            "unknown section [{}{}{}] (known: [scenario], [run], [faults], \
                             [[fault]], [[host]], [host.app], [[switch]], [switch.aqm], \
                             [[link]], [link.impairment], [link.aqm])",
                            if sec.is_array { "[" } else { "" },
                            sec.path_str(),
                            if sec.is_array { "]" } else { "" },
                        ),
                    )
                }
            }
        }

        let ssec = match scenario_sec {
            Some(s) => s,
            None => return err(0, "missing [scenario] section (with `name` and `duration`)"),
        };
        check_keys(
            ssec,
            &[
                "name",
                "seed",
                "duration",
                "end_margin",
                "log",
                "synchronized",
                "hier_sync",
                "sync_interval",
                "link_latency",
                "pcie_latency",
            ],
        )?;
        let duration = get_duration(ssec, "duration")?.ok_or_else(|| ScenarioError {
            line: ssec.line,
            msg: "[scenario] needs `duration` (e.g. duration = \"2ms\")".into(),
        })?;
        if duration == SimTime::ZERO {
            return err(ssec.line_of("duration"), "`duration` must be > 0");
        }
        let (exec, transport) = match run_sec {
            Some(r) => {
                check_keys(r, &["exec", "transport"])?;
                (
                    get_str(r, "exec")?.unwrap_or_else(|| "sequential".into()),
                    get_str(r, "transport")?.unwrap_or_else(|| "auto".into()),
                )
            }
            None => ("sequential".into(), "auto".into()),
        };
        let (max_restarts, heartbeat) = match faults_sec {
            Some(f) => {
                check_keys(f, &["max_restarts", "heartbeat"])?;
                (get_u64(f, "max_restarts")?, get_duration(f, "heartbeat")?)
            }
            None => (None, None),
        };
        let scen = Scenario {
            name: req_str(ssec, "name")?,
            seed: get_u64(ssec, "seed")?.unwrap_or(1),
            duration,
            end_margin: get_duration(ssec, "end_margin")?.unwrap_or(SimTime::from_ms(2)),
            log: get_bool(ssec, "log")?.unwrap_or(false),
            synchronized: get_bool(ssec, "synchronized")?.unwrap_or(true),
            hier_sync: get_bool(ssec, "hier_sync")?.unwrap_or(false),
            sync_interval: get_duration(ssec, "sync_interval")?,
            link_latency: get_duration(ssec, "link_latency")?,
            pcie_latency: get_duration(ssec, "pcie_latency")?,
            exec,
            transport,
            nodes,
            links,
            faults,
            max_restarts,
            heartbeat,
        };
        scen.validate(&app_seen)?;
        Ok(scen)
    }

    /// Distinct partition names in first-use (declaration) order.
    pub fn partitions(&self) -> Vec<String> {
        let mut parts: Vec<String> = Vec::new();
        for n in &self.nodes {
            if !parts.iter().any(|p| p == n.partition()) {
                parts.push(n.partition().to_string());
            }
        }
        parts
    }

    /// Number of hosts in the scenario.
    pub fn hosts_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Host(_)))
            .count()
    }

    /// Look up a host spec by name.
    pub fn host(&self, name: &str) -> Option<&HostSpec> {
        self.nodes.iter().find_map(|n| match n {
            Node::Host(h) if h.name == name => Some(h),
            _ => None,
        })
    }

    /// Links that reference `node`, in declaration order, with the side the
    /// node sits on (`0` = `a`, `1` = `b`).
    pub fn links_of(&self, node: &str) -> Vec<(usize, u8)> {
        let mut v = Vec::new();
        for (i, l) in self.links.iter().enumerate() {
            if l.a == node {
                v.push((i, 0));
            } else if l.b == node {
                v.push((i, 1));
            }
        }
        v
    }

    fn validate(&self, app_seen: &[usize]) -> Result<(), ScenarioError> {
        // Unique node names.
        for (i, n) in self.nodes.iter().enumerate() {
            if self.nodes[..i].iter().any(|m| m.name() == n.name()) {
                let line = match n {
                    Node::Host(h) => h.line,
                    Node::Switch(s) => s.line,
                };
                return err(line, format!("duplicate node name `{}`", n.name()));
            }
        }
        // Unique link names, endpoints resolve, no self-links.
        for (i, l) in self.links.iter().enumerate() {
            if self.links[..i].iter().any(|m| m.name == l.name) {
                return err(l.line, format!("duplicate link name `{}`", l.name));
            }
            if l.a == l.b {
                return err(
                    l.line,
                    format!("link `{}` connects `{}` to itself", l.name, l.a),
                );
            }
            for endpoint in [&l.a, &l.b] {
                if !self.nodes.iter().any(|n| n.name() == endpoint.as_str()) {
                    return err(
                        l.line,
                        format!(
                            "link `{}` references unknown node `{endpoint}` \
                             (declare it with [[host]] or [[switch]])",
                            l.name
                        ),
                    );
                }
            }
            if l.aqm.is_some() && !self.links_touches_switch(l) {
                return err(
                    l.line,
                    format!(
                        "link `{}` has a [link.aqm] override but neither endpoint is a switch",
                        l.name
                    ),
                );
            }
        }
        // Host degree exactly 1, switch degree >= 1, every host has an app.
        for (idx, n) in self.nodes.iter().enumerate() {
            let deg = self.links_of(n.name()).len();
            match n {
                Node::Host(h) => {
                    if deg != 1 {
                        return err(
                            h.line,
                            format!(
                                "host `{}` must appear in exactly one [[link]] (found {deg})",
                                h.name
                            ),
                        );
                    }
                    if !app_seen.contains(&idx) {
                        return err(
                            h.line,
                            format!("host `{}` is missing its [host.app] sub-table", h.name),
                        );
                    }
                    for server in h.app.server_refs() {
                        match self.host(server) {
                            Some(_) => {}
                            None => {
                                return err(
                                    h.line,
                                    format!(
                                        "app on host `{}` references server `{server}`, which \
                                         is not a declared host",
                                        h.name
                                    ),
                                )
                            }
                        }
                    }
                }
                Node::Switch(s) => {
                    if deg == 0 {
                        return err(
                            s.line,
                            format!("switch `{}` has no links (add it to a [[link]])", s.name),
                        );
                    }
                }
            }
        }
        // Unique host indices (duplicates would alias IPs/MACs).
        let mut idxs: Vec<(u32, &str, usize)> = Vec::new();
        for n in &self.nodes {
            if let Node::Host(h) = n {
                if let Some((_, other, _)) = idxs.iter().find(|(i, _, _)| *i == h.index) {
                    return err(
                        h.line,
                        format!(
                            "hosts `{other}` and `{}` share address index {} \
                             (IPs would collide); set distinct `index` values",
                            h.name, h.index
                        ),
                    );
                }
                idxs.push((h.index, &h.name, h.line));
            }
        }
        if !self.nodes.iter().any(|n| matches!(n, Node::Host(_))) {
            return err(0, "scenario has no hosts");
        }
        // Fault targets must resolve: kill_worker partitions must be declared
        // and sever_link links must cross partitions (intra-partition links
        // have no proxy to tear down).
        let parts = self.partitions();
        for f in &self.faults {
            if let Some(p) = &f.partition {
                if !parts.iter().any(|q| q == p) {
                    return err(
                        f.line,
                        format!(
                            "fault targets unknown partition `{p}` (declared: {})",
                            parts.join(", ")
                        ),
                    );
                }
            }
            if let Some(lk) = &f.link {
                match self.links.iter().find(|l| &l.name == lk) {
                    None => {
                        return err(f.line, format!("fault targets unknown link `{lk}`"));
                    }
                    Some(l) if !self.link_crosses_partitions(l) => {
                        return err(
                            f.line,
                            format!(
                                "fault link `{lk}` does not cross partitions: sever_link \
                                 only applies to cross-partition links"
                            ),
                        );
                    }
                    Some(_) => {}
                }
            }
            if matches!(f.kind, FaultDeclKind::SeverLink)
                && f.link.is_none()
                && !self.links.iter().any(|l| self.link_crosses_partitions(l))
            {
                return err(
                    f.line,
                    "sever_link fault but the scenario has no cross-partition links",
                );
            }
        }
        Ok(())
    }

    /// Whether a link's endpoints live in different partitions.
    pub fn link_crosses_partitions(&self, l: &LinkSpec) -> bool {
        let part_of = |name: &str| {
            self.nodes
                .iter()
                .find(|n| n.name() == name)
                .map(|n| n.partition())
        };
        match (part_of(&l.a), part_of(&l.b)) {
            (Some(pa), Some(pb)) => pa != pb,
            _ => false,
        }
    }

    fn links_touches_switch(&self, l: &LinkSpec) -> bool {
        [&l.a, &l.b].iter().any(|ep| {
            self.nodes
                .iter()
                .any(|n| matches!(n, Node::Switch(s) if &s.name == *ep))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
[scenario]
name = "demo"
seed = 7
duration = "1ms"
log = true

[[host]]
name = "s0"
kind = "gem5_timing"
congestion = "dctcp"
mtu = 4000

[host.app]
type = "iperf_tcp_server"
port = 5000

[[host]]
name = "c0"
congestion = "dctcp"
mtu = 4000

[host.app]
type = "iperf_tcp_client"
server = "s0"
port = 5000

[[switch]]
name = "sw"
ecn_k = 20

[[link]]
name = "l0"
a = "s0"
b = "sw"

[[link]]
name = "l1"
a = "c0"
b = "sw"

[link.impairment]
loss = "bernoulli"
loss_permille = 10
jitter = "50ns"
"#;

    #[test]
    fn parses_a_full_scenario() {
        let s = Scenario::from_toml_str(GOOD).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.seed, 7);
        assert_eq!(s.duration, SimTime::from_ms(1));
        assert!(s.log && s.synchronized && !s.hier_sync);
        assert_eq!(s.nodes.len(), 3);
        assert_eq!(s.links.len(), 2);
        let h = s.host("s0").unwrap();
        assert_eq!(h.index, 0);
        assert_eq!(h.congestion, Some(CongestionControl::Dctcp));
        assert_eq!(s.host("c0").unwrap().index, 1);
        match &s.nodes[2] {
            Node::Switch(sw) => assert_eq!(sw.aqm, Some(AqmSpec::Dctcp { k_pkts: 20 })),
            n => panic!("expected switch, got {n:?}"),
        }
        let imp = s.links[1].impairment.unwrap();
        assert_eq!(imp.loss, LossModel::Bernoulli { permille: 10 });
        assert_eq!(imp.jitter, SimTime::from_ns(50));
        assert_eq!(s.partitions(), ["w0"]);
        assert_eq!(s.links_of("sw"), [(0, 1), (1, 1)]);
    }

    #[test]
    fn units_parse_and_reject() {
        assert_eq!(parse_duration("500ns").unwrap(), SimTime::from_ns(500));
        assert_eq!(parse_duration("2ms").unwrap(), SimTime::from_ms(2));
        assert_eq!(parse_duration("1_000us").unwrap(), SimTime::from_us(1000));
        assert!(parse_duration("500").unwrap_err().contains("unit"));
        assert!(parse_duration("fast").is_err());
        assert_eq!(parse_bandwidth("10Gbps").unwrap(), 10_000_000_000);
        assert_eq!(parse_bandwidth("250Mbps").unwrap(), 250_000_000);
        assert!(parse_bandwidth("10GB").is_err());
    }

    fn expect_err(toml: &str, needle: &str) {
        match Scenario::from_toml_str(toml) {
            Ok(_) => panic!("expected error containing {needle:?}"),
            Err(e) => assert!(
                e.msg.contains(needle),
                "error {:?} does not contain {needle:?}",
                e.msg
            ),
        }
    }

    #[test]
    fn validation_errors_are_actionable() {
        expect_err("[scenario]\nname = \"x\"\n", "duration");
        expect_err("[scenario]\nname = \"x\"\nduration = \"1ms\"\n", "no hosts");
        // Unknown link endpoint.
        expect_err(
            &GOOD.replace("b = \"sw\"", "b = \"nope\""),
            "unknown node `nope`",
        );
        // Missing app.
        expect_err(
            &GOOD.replace("type = \"iperf_tcp_server\"\nport = 5000", "type = \"iperf_tcp_server\"\nport = 5000\n[[host]]\nname = \"zz\"\nindex = 99\n[[link]]\nname = \"lz\"\na = \"zz\"\nb = \"sw\""),
            "missing its [host.app]",
        );
        // Unknown keys get named with suggestions.
        expect_err(&GOOD.replace("seed = 7", "sede = 7"), "unknown key `sede`");
        // Duplicate indices collide.
        expect_err(
            &GOOD.replace("name = \"c0\"\n", "name = \"c0\"\nindex = 0\n"),
            "share address index",
        );
        // Client referencing a non-host.
        expect_err(
            &GOOD.replace("server = \"s0\"", "server = \"sw\""),
            "not a declared host",
        );
    }

    #[test]
    fn subtable_attachment_is_positional() {
        // [host.app] after a [[switch]] must fail.
        let bad = r#"
[scenario]
name = "x"
duration = "1ms"

[[switch]]
name = "sw"

[host.app]
type = "memcached_server"
"#;
        expect_err(bad, "[host.app] must follow");
    }

    /// GOOD with the client host moved to partition "p1" (so `l1` crosses
    /// partitions) plus the given fault TOML appended.
    fn with_faults(fault_toml: &str) -> String {
        format!(
            "{}\n{fault_toml}\n",
            GOOD.replace("name = \"c0\"\n", "name = \"c0\"\npartition = \"p1\"\n")
        )
    }

    #[test]
    fn faults_parse_with_targets_and_defaults() {
        let s = Scenario::from_toml_str(&with_faults(
            "[faults]\nmax_restarts = 3\nheartbeat = \"20ms\"\n\n\
             [[fault]]\nat = \"500us\"\nkind = \"kill_worker\"\npartition = \"p1\"\n\n\
             [[fault]]\nat = \"700us\"\nkind = \"sever_link\"\nlink = \"l1\"\n\n\
             [[fault]]\nat = \"900us\"\nkind = \"corrupt_checkpoint\"\n",
        ))
        .unwrap();
        assert_eq!(s.max_restarts, Some(3));
        assert_eq!(s.heartbeat, Some(SimTime::from_ms(20)));
        assert_eq!(s.faults.len(), 3);
        assert_eq!(s.faults[0].kind, FaultDeclKind::KillWorker);
        assert_eq!(s.faults[0].at, SimTime::from_us(500));
        assert_eq!(s.faults[0].partition.as_deref(), Some("p1"));
        assert_eq!(s.faults[1].kind, FaultDeclKind::SeverLink);
        assert_eq!(s.faults[1].link.as_deref(), Some("l1"));
        assert_eq!(s.faults[2].kind, FaultDeclKind::CorruptCheckpoint);
        assert!(s.faults[2].partition.is_none() && s.faults[2].link.is_none());
    }

    #[test]
    fn fault_targets_may_be_omitted() {
        let s = Scenario::from_toml_str(&with_faults(
            "[[fault]]\nat = \"1us\"\nkind = \"kill_worker\"\n\n\
             [[fault]]\nat = \"2us\"\nkind = \"sever_link\"\n",
        ))
        .unwrap();
        assert!(s.faults[0].partition.is_none());
        assert!(s.faults[1].link.is_none());
        assert_eq!(s.max_restarts, None);
        assert_eq!(s.heartbeat, None);
    }

    #[test]
    fn fault_validation_errors_are_actionable() {
        expect_err(
            &with_faults("[[fault]]\nkind = \"kill_worker\"\n"),
            "needs `at`",
        );
        expect_err(
            &with_faults("[[fault]]\nat = \"1us\"\nkind = \"set_on_fire\"\n"),
            "unknown fault kind `set_on_fire`",
        );
        expect_err(
            &with_faults("[[fault]]\nat = \"1us\"\nkind = \"kill_worker\"\npartition = \"p9\"\n"),
            "unknown partition `p9`",
        );
        expect_err(
            &with_faults("[[fault]]\nat = \"1us\"\nkind = \"sever_link\"\nlink = \"nope\"\n"),
            "unknown link `nope`",
        );
        // l0 is intra-partition (both endpoints default to w0).
        expect_err(
            &with_faults("[[fault]]\nat = \"1us\"\nkind = \"sever_link\"\nlink = \"l0\"\n"),
            "does not cross partitions",
        );
        // partition/link keys are kind-specific.
        expect_err(
            &with_faults("[[fault]]\nat = \"1us\"\nkind = \"sever_link\"\npartition = \"p1\"\n"),
            "only valid for kill_worker",
        );
        expect_err(
            &with_faults("[[fault]]\nat = \"1us\"\nkind = \"kill_worker\"\nlink = \"l1\"\n"),
            "only valid for sever_link",
        );
        // sever_link with no cross links at all (plain GOOD, single partition).
        expect_err(
            &format!("{GOOD}\n[[fault]]\nat = \"1us\"\nkind = \"sever_link\"\n"),
            "no cross-partition links",
        );
        expect_err(
            &with_faults("[faults]\nmax_restarts = 1\n\n[faults]\nmax_restarts = 2\n"),
            "duplicate [faults]",
        );
    }
}
