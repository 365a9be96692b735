//! Exploit modules and their network services.

use std::fmt;

use hotspots_netmodel::Service;

/// An exploit module named in a bot scan command (`dcom2`, `lsass`, …),
/// mapped to the transport service its probes target.
///
/// Unknown module names are preserved (bots grow modules faster than
/// taxonomies) and default to TCP/445.
///
/// # Examples
///
/// ```
/// use hotspots_botnet::ExploitModule;
/// use hotspots_netmodel::Service;
///
/// let m = ExploitModule::named("dcom2");
/// assert_eq!(m.service(), Service::BLASTER_RPC);
/// assert_eq!(m.name(), "dcom2");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExploitModule {
    name: String,
    service: Service,
}

impl ExploitModule {
    /// Looks up a module by the name it carries in commands.
    pub fn named(name: impl Into<String>) -> ExploitModule {
        let name = name.into();
        let service = match name.as_str() {
            // MS RPC DCOM (the Blaster vector)
            "dcom" | "dcom2" | "dcom135" => Service::BLASTER_RPC,
            // LSASS / workstation service / dcass — SMB-side exploits
            "lsass" | "lsass_445" | "dcass" | "wkssvc" | "wkssvceng" | "netapi" => Service::BOT_SMB,
            // SQL Server Resolution (the Slammer vector)
            "mssql" | "mssql2000" | "sqlslam" => Service::SLAMMER_SQL,
            // IIS WebDAV
            "webdav" | "webdav2" | "webdav3" | "iis" => Service::CODERED_HTTP,
            _ => Service::BOT_SMB,
        };
        ExploitModule { name, service }
    }

    /// The module name as it appears on the wire.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The transport service the module's probes target.
    pub fn service(&self) -> Service {
        self.service
    }
}

impl fmt::Display for ExploitModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspots_netmodel::Proto;

    #[test]
    fn table1_modules_resolve() {
        let cases = [
            ("dcom2", Service::BLASTER_RPC),
            ("wkssvceng", Service::BOT_SMB),
            ("dcass", Service::BOT_SMB),
            ("lsass", Service::BOT_SMB),
            ("mssql2000", Service::SLAMMER_SQL),
            ("webdav3", Service::CODERED_HTTP),
        ];
        for (name, service) in cases {
            assert_eq!(ExploitModule::named(name).service(), service, "{name}");
        }
    }

    #[test]
    fn unknown_module_preserved_with_default_service() {
        let m = ExploitModule::named("zeroday9000");
        assert_eq!(m.name(), "zeroday9000");
        assert_eq!(m.service(), Service::new(Proto::Tcp, 445));
    }
}
