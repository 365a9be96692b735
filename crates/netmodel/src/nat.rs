//! NAT realms and private address space.
//!
//! A NAT realm is an island of RFC 1918 space behind one public gateway:
//! hosts inside can reach each other and can send *outbound* probes (which
//! appear to come from the gateway), but unsolicited inbound probes from
//! the public Internet cannot reach them. This asymmetry is the paper's
//! "continuing loss of bi-directional connectivity".

use std::fmt;

use hotspots_ipspace::{special, Ip, Prefix};

/// Identifier of a NAT realm within an [`Environment`](crate::Environment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RealmId(pub u32);

impl fmt::Display for RealmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "realm#{}", self.0)
    }
}

/// One NAT island: a private prefix translated behind a public gateway
/// address.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::Ip;
/// use hotspots_netmodel::NatRealm;
///
/// let realm = NatRealm::home_192_168(Ip::from_octets(203, 0, 113, 1)).unwrap();
/// assert!(realm.contains(Ip::from_octets(192, 168, 44, 5)));
/// assert_eq!(realm.gateway(), Ip::from_octets(203, 0, 113, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NatRealm {
    private_prefix: Prefix,
    gateway: Ip,
}

/// Errors constructing a [`NatRealm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NatRealmError {
    /// The realm prefix must be RFC 1918 private space.
    NotPrivate(Prefix),
    /// The gateway must be a globally routable public address.
    GatewayNotPublic(Ip),
}

impl fmt::Display for NatRealmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NatRealmError::NotPrivate(p) => {
                write!(f, "realm prefix {p} is not RFC 1918 private space")
            }
            NatRealmError::GatewayNotPublic(ip) => {
                write!(f, "gateway {ip} is not globally routable")
            }
        }
    }
}

impl std::error::Error for NatRealmError {}

impl NatRealm {
    /// Creates a realm over `private_prefix` (must lie inside RFC 1918
    /// space) behind public `gateway`.
    ///
    /// # Errors
    ///
    /// See [`NatRealmError`].
    pub fn new(private_prefix: Prefix, gateway: Ip) -> Result<NatRealm, NatRealmError> {
        let inside_private = special::PRIVATE_RANGES
            .iter()
            .any(|r| r.contains_prefix(private_prefix));
        if !inside_private {
            return Err(NatRealmError::NotPrivate(private_prefix));
        }
        if !special::is_globally_routable(gateway) {
            return Err(NatRealmError::GatewayNotPublic(gateway));
        }
        Ok(NatRealm {
            private_prefix,
            gateway,
        })
    }

    /// The canonical consumer-NAT realm: all of `192.168.0.0/16` — the
    /// configuration whose interaction with CodeRedII produces the
    /// paper's M-block hotspot.
    pub fn home_192_168(gateway: Ip) -> Result<NatRealm, NatRealmError> {
        NatRealm::new(special::PRIVATE_192, gateway)
    }

    /// The realm's private prefix.
    pub fn private_prefix(&self) -> Prefix {
        self.private_prefix
    }

    /// The public gateway address outbound probes appear from.
    pub fn gateway(&self) -> Ip {
        self.gateway
    }

    /// Returns `true` if `ip` is inside this realm's private space.
    pub fn contains(&self, ip: Ip) -> bool {
        self.private_prefix.contains(ip)
    }
}

impl fmt::Display for NatRealm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nat[{} ⇄ {}]", self.private_prefix, self.gateway)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_public_prefix() {
        let err = NatRealm::new(
            "8.8.0.0/16".parse().unwrap(),
            Ip::from_octets(198, 51, 100, 1),
        )
        .unwrap_err();
        assert!(matches!(err, NatRealmError::NotPrivate(_)));
    }

    #[test]
    fn rejects_private_gateway() {
        let err = NatRealm::new(
            "192.168.0.0/16".parse().unwrap(),
            Ip::from_octets(10, 0, 0, 1),
        )
        .unwrap_err();
        assert!(matches!(err, NatRealmError::GatewayNotPublic(_)));
    }

    #[test]
    fn accepts_sub_prefixes_of_private_ranges() {
        let realm = NatRealm::new(
            "10.5.0.0/16".parse().unwrap(),
            Ip::from_octets(198, 51, 100, 2),
        )
        .unwrap();
        assert!(realm.contains(Ip::from_octets(10, 5, 3, 4)));
        assert!(!realm.contains(Ip::from_octets(10, 6, 0, 0)));
    }

    #[test]
    fn home_realm_covers_192_168() {
        let realm = NatRealm::home_192_168(Ip::from_octets(203, 0, 113, 7)).unwrap();
        assert!(realm.contains(Ip::from_octets(192, 168, 255, 255)));
        assert!(!realm.contains(Ip::from_octets(192, 169, 0, 0)));
    }
}
