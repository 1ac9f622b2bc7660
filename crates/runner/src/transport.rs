//! Selecting the cross-partition channel transport.
//!
//! The paper's deployment model (§5.2, §5.4) connects co-located simulator
//! processes through *shared-memory* message queues that both sides poll and
//! reserves socket proxies for links that cross physical machines. A
//! cross-partition link of `crate::dist` is therefore one of two things:
//!
//! * [`TransportKind::Shm`] — the component's channel endpoint sits directly
//!   on a file-backed mapping (`crate::shm`): the same ring as in-process,
//!   no forwarder thread, no serialization, no syscalls on the data path;
//! * [`TransportKind::Tcp`] — the §5.4 sockets proxy (`crate::proxy`): a
//!   local channel stub per side whose other end a pump, driven by the
//!   partition's executor, serializes and streams over TCP — the cross-host
//!   / explicit fallback.
//!
//! Either way the handshake metadata (link name +
//! [`simbricks_base::ChannelParams`]) is validated before any simulation
//! message flows.
//!
//! [`TransportKind`] is the user-facing selector (`--transport tcp|shm|auto`,
//! environment `SIMBRICKS_TRANSPORT`); `auto` picks shared memory whenever
//! the platform supports it, which for this single-machine orchestrator is
//! every link.

/// Environment variable selecting the default cross-partition transport
/// ([`TransportKind::parse`] syntax) for harnesses and distributed runs.
pub const ENV_TRANSPORT: &str = "SIMBRICKS_TRANSPORT";

/// Which transport carries cross-partition channels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Serialize messages and stream them over TCP (works across hosts).
    Tcp,
    /// Memory-mapped shared-memory SPSC rings (same host only).
    Shm,
    /// Pick [`TransportKind::Shm`] when the platform supports it, otherwise
    /// fall back to [`TransportKind::Tcp`].
    #[default]
    Auto,
}

impl TransportKind {
    /// Parse `tcp`, `shm`, or `auto` (case-insensitive).
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s.to_ascii_lowercase().as_str() {
            "tcp" => Some(TransportKind::Tcp),
            "shm" => Some(TransportKind::Shm),
            "auto" => Some(TransportKind::Auto),
            _ => None,
        }
    }

    /// Canonical argument string (`TransportKind::parse` round-trips it).
    pub fn to_arg(self) -> &'static str {
        match self {
            TransportKind::Tcp => "tcp",
            TransportKind::Shm => "shm",
            TransportKind::Auto => "auto",
        }
    }

    /// The kind selected by [`ENV_TRANSPORT`], or `default` when unset or
    /// unparseable.
    pub fn from_env_or(default: TransportKind) -> TransportKind {
        std::env::var(ENV_TRANSPORT)
            .ok()
            .as_deref()
            .and_then(TransportKind::parse)
            .unwrap_or(default)
    }

    /// Resolve `Auto` to a concrete transport for links between co-located
    /// partitions: shared memory where the platform supports it (unix),
    /// otherwise TCP.
    pub fn resolve_local(self) -> TransportKind {
        match self {
            TransportKind::Auto => {
                if cfg!(unix) {
                    TransportKind::Shm
                } else {
                    TransportKind::Tcp
                }
            }
            k => k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_roundtrip() {
        for k in [TransportKind::Tcp, TransportKind::Shm, TransportKind::Auto] {
            assert_eq!(TransportKind::parse(k.to_arg()), Some(k));
        }
        assert_eq!(TransportKind::parse("TCP"), Some(TransportKind::Tcp));
        assert_eq!(TransportKind::parse("bogus"), None);
    }

    #[test]
    fn auto_resolves_to_a_concrete_kind() {
        let r = TransportKind::Auto.resolve_local();
        assert!(matches!(r, TransportKind::Tcp | TransportKind::Shm));
        assert_eq!(TransportKind::Tcp.resolve_local(), TransportKind::Tcp);
        assert_eq!(TransportKind::Shm.resolve_local(), TransportKind::Shm);
    }
}
