//! Socket identifiers, addresses and events exposed by the stack to the
//! simulated operating system / applications.

use simbricks_proto::Ipv4Addr;
use std::fmt;

/// Handle to a socket owned by a [`crate::NetStack`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId(pub u64);

/// An IPv4 endpoint (address and port).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketAddr {
    pub ip: Ipv4Addr,
    pub port: u16,
}

impl SocketAddr {
    pub fn new(ip: Ipv4Addr, port: u16) -> Self {
        SocketAddr { ip, port }
    }
}

impl fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// Asynchronous socket notifications, drained with
/// [`crate::NetStack::poll_events`]. The simulated OS turns these into
/// application callbacks (and charges CPU time for them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketEvent {
    /// An outgoing TCP connection completed its handshake.
    Connected(SocketId),
    /// A listener produced a new established connection.
    Accepted {
        listener: SocketId,
        socket: SocketId,
    },
    /// New bytes (TCP) or a datagram (UDP) are available to read.
    DataAvailable(SocketId),
    /// Send-buffer space became available again.
    SendSpace(SocketId),
    /// The peer closed its sending direction (FIN received).
    PeerClosed(SocketId),
    /// The connection is fully closed / reset and the id is invalid.
    Closed(SocketId),
    /// The connection failed (reset or handshake timeout).
    ConnectFailed(SocketId),
}

impl SocketEvent {
    /// The socket this event refers to.
    pub fn socket(&self) -> SocketId {
        match self {
            SocketEvent::Connected(s)
            | SocketEvent::DataAvailable(s)
            | SocketEvent::SendSpace(s)
            | SocketEvent::PeerClosed(s)
            | SocketEvent::Closed(s)
            | SocketEvent::ConnectFailed(s) => *s,
            SocketEvent::Accepted { socket, .. } => *socket,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_addr_display() {
        let a = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 3), 5201);
        assert_eq!(a.to_string(), "10.0.0.3:5201");
    }

    #[test]
    fn event_socket_accessor() {
        let s = SocketId(7);
        let l = SocketId(1);
        assert_eq!(SocketEvent::Connected(s).socket(), s);
        assert_eq!(
            SocketEvent::Accepted {
                listener: l,
                socket: s
            }
            .socket(),
            s
        );
        assert_eq!(SocketEvent::PeerClosed(s).socket(), s);
    }

    #[test]
    // The point is a HashMap key; nothing iterates it, so order cannot leak.
    #[allow(clippy::disallowed_types)]
    fn socket_addr_is_hashable_key() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(SocketAddr::new(Ipv4Addr::new(1, 2, 3, 4), 80), 1);
        assert_eq!(
            m.get(&SocketAddr::new(Ipv4Addr::new(1, 2, 3, 4), 80)),
            Some(&1)
        );
    }
}
