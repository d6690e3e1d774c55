//! A minimal HTTP URL: exactly what service addressing needs.

use crate::error::WsdError;

/// `http://host[:port]/path` — scheme is always `http` in this system.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    /// Host name (the simulator's or in-process network's DNS name).
    pub host: String,
    /// TCP port (default 80).
    pub port: u16,
    /// Absolute path, always starting with `/`.
    pub path: String,
}

impl Url {
    /// Builds a URL from parts; the path gets a leading `/` if missing.
    pub fn new(host: impl Into<String>, port: u16, path: impl Into<String>) -> Url {
        let mut path = path.into();
        if !path.starts_with('/') {
            path.insert(0, '/');
        }
        Url {
            host: host.into(),
            port,
            path,
        }
    }

    /// Parses `http://host[:port][/path]`.
    pub fn parse(s: &str) -> Result<Url, WsdError> {
        let (host, port, path) = split(s)?;
        Ok(Url {
            host: host.to_string(),
            port,
            path: path.to_string(),
        })
    }

    /// [`logical_service`](Self::logical_service) of the URL `s` parses
    /// to, borrowed from `s`: nothing is allocated unless `s` does not
    /// parse.
    pub fn logical_service_of(s: &str) -> Result<Option<&str>, WsdError> {
        split(s).map(|(_, _, path)| logical_name(path))
    }

    /// `host:port` for the HTTP `Host` header.
    pub fn authority(&self) -> String {
        if self.port == 80 {
            self.host.clone()
        } else {
            format!("{}:{}", self.host, self.port)
        }
    }

    /// The logical service name, when the path follows the dispatcher's
    /// `/svc/<name>` convention.
    pub fn logical_service(&self) -> Option<&str> {
        logical_name(&self.path)
    }
}

/// `s` read as `http://host[:port][/path]`: host, port and path,
/// borrowed.
fn split(s: &str) -> Result<(&str, u16, &str), WsdError> {
    let bad = || WsdError::BadAddress(s.to_string());
    let rest = s.strip_prefix("http://").ok_or_else(bad)?;
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    if authority.is_empty() {
        return Err(bad());
    }
    let (host, port) = match authority.rsplit_once(':') {
        Some((h, p)) => {
            let port: u16 = p.parse().map_err(|_| bad())?;
            (h, port)
        }
        None => (authority, 80),
    };
    if host.is_empty() {
        return Err(bad());
    }
    Ok((host, port, path))
}

/// The `<name>` of a `/svc/<name>` path.
fn logical_name(path: &str) -> Option<&str> {
    let name = path.strip_prefix("/svc/")?;
    let name = name.split(['/', '?']).next().unwrap_or("");
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

impl std::fmt::Display for Url {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "http://{}{}", self.authority(), self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_url() {
        let u = Url::parse("http://inria-fast:8888/echo/service").unwrap();
        assert_eq!(u.host, "inria-fast");
        assert_eq!(u.port, 8888);
        assert_eq!(u.path, "/echo/service");
    }

    #[test]
    fn default_port_and_path() {
        let u = Url::parse("http://svc.example").unwrap();
        assert_eq!(u.port, 80);
        assert_eq!(u.path, "/");
        assert_eq!(u.authority(), "svc.example");
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "http://a/",
            "http://a:8080/x/y",
            "http://dispatcher/svc/echo",
        ] {
            assert_eq!(Url::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn display_hides_default_port() {
        assert_eq!(Url::new("a", 80, "/p").to_string(), "http://a/p");
        assert_eq!(Url::new("a", 81, "/p").to_string(), "http://a:81/p");
    }

    #[test]
    fn bad_urls_rejected() {
        for s in ["ftp://a/", "http://", "http://:80/", "http://a:notaport/"] {
            assert!(Url::parse(s).is_err(), "{s}");
        }
    }

    #[test]
    fn logical_service_extraction() {
        assert_eq!(
            Url::parse("http://d/svc/EchoService")
                .unwrap()
                .logical_service(),
            Some("EchoService")
        );
        assert_eq!(
            Url::parse("http://d/svc/Echo/extra").unwrap().logical_service(),
            Some("Echo")
        );
        assert_eq!(Url::parse("http://d/other").unwrap().logical_service(), None);
        assert_eq!(Url::parse("http://d/svc/").unwrap().logical_service(), None);
    }

    #[test]
    fn borrowed_logical_service_reads_as_the_parsed_url() {
        for s in [
            "http://d/svc/Echo",
            "http://d:81/svc/Echo/extra?x",
            "http://d/other",
            "http://d",
            "http://d/svc/",
            "http://:80/svc/Echo",
            "ftp://d/svc/Echo",
        ] {
            let parsed = Url::parse(s);
            let want = parsed.as_ref().map(|u| u.logical_service()).map_err(Clone::clone);
            assert_eq!(Url::logical_service_of(s), want, "{s}");
        }
    }

    #[test]
    fn new_normalizes_path() {
        assert_eq!(Url::new("h", 80, "x").path, "/x");
    }
}
