//! Transport services worm probes target.

use std::fmt;

/// Transport protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Proto {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Proto::Tcp => "tcp",
            Proto::Udp => "udp",
        })
    }
}

/// A `(protocol, port)` pair — the granularity real filters (and the
/// paper's upstream Slammer block) operate at.
///
/// # Examples
///
/// ```
/// use hotspots_netmodel::Service;
///
/// assert_eq!(Service::SLAMMER_SQL.to_string(), "udp/1434");
/// assert_eq!(Service::BLASTER_RPC.port(), 135);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Service {
    proto: Proto,
    port: u16,
}

impl Service {
    /// TCP/80 — CodeRed & CodeRedII (IIS).
    pub const CODERED_HTTP: Service = Service::new(Proto::Tcp, 80);
    /// TCP/135 — Blaster (MS RPC DCOM).
    pub const BLASTER_RPC: Service = Service::new(Proto::Tcp, 135);
    /// UDP/1434 — Slammer (SQL Server Resolution).
    pub const SLAMMER_SQL: Service = Service::new(Proto::Udp, 1434);
    /// TCP/445 — bots exploiting LSASS/workstation service.
    pub const BOT_SMB: Service = Service::new(Proto::Tcp, 445);

    /// Creates a service.
    pub const fn new(proto: Proto, port: u16) -> Service {
        Service { proto, port }
    }

    /// The protocol.
    pub const fn proto(self) -> Proto {
        self.proto
    }

    /// The port number.
    pub const fn port(self) -> u16 {
        self.port
    }
}

impl fmt::Display for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.proto, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_worm_lore() {
        assert_eq!(Service::CODERED_HTTP, Service::new(Proto::Tcp, 80));
        assert_eq!(Service::BLASTER_RPC, Service::new(Proto::Tcp, 135));
        assert_eq!(Service::SLAMMER_SQL, Service::new(Proto::Udp, 1434));
    }

    #[test]
    fn display_format() {
        assert_eq!(Service::new(Proto::Tcp, 8080).to_string(), "tcp/8080");
    }

    #[test]
    fn ordering_and_hash_derivable() {
        let mut v = [
            Service::SLAMMER_SQL,
            Service::CODERED_HTTP,
            Service::BLASTER_RPC,
        ];
        v.sort();
        assert_eq!(v[0], Service::CODERED_HTTP);
    }
}
