//! Shared topology building blocks for the experiment scenarios.
//!
//! Host CPU is modeled inside the service processes (a serialized FIFO
//! CPU per process, see `wsd_core::sim`), so the host-level per-message
//! cost is reduced to a small parse overhead here — otherwise processing
//! would be charged twice.

use wsd_netsim::{profiles, HostConfig, SimDuration};

/// Host-level per-KB overhead once real CPU lives in the service process.
const PARSE_OVERHEAD: SimDuration = SimDuration(500);

/// Service-process CPU time per message for a machine of `ghz`.
pub fn service_time(ghz: f64) -> SimDuration {
    profiles::cpu_per_kb(ghz)
}

/// Dispatcher routing cost per message: parsing headers and rewriting
/// addresses is roughly a third of full SOAP service processing.
pub fn dispatch_time(ghz: f64) -> SimDuration {
    SimDuration(profiles::cpu_per_kb(ghz).0 / 3)
}

/// Rebases a profile host onto the light parse overhead.
pub fn light_cpu(cfg: HostConfig) -> HostConfig {
    cfg.cpu_per_kb(PARSE_OVERHEAD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_anchors_fig5_plateau() {
        // inriaFast ≈ 10 ms/message ⇒ ~6000 messages/minute ceiling.
        let t = service_time(3.4).as_secs_f64();
        assert!((0.008..0.014).contains(&t), "{t}");
    }

    #[test]
    fn dispatch_cheaper_than_service() {
        assert!(dispatch_time(3.4) < service_time(3.4));
    }

    #[test]
    fn light_cpu_overrides_profile() {
        let h = light_cpu(profiles::inria_slow("x"));
        assert_eq!(h.cpu_per_kb, PARSE_OVERHEAD);
    }
}
