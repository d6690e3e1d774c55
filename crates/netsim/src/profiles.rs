//! Site profiles calibrated to the paper's §4.3 measurements.
//!
//! Link speeds come straight from the paper's broadband-test numbers;
//! CPU costs scale inversely with the machines' clocks, anchored so the
//! fast-path experiment (Figure 5) plateaus in the paper's 5000–6000
//! messages/minute range (≈10 ms of 2004-era Java SOAP processing per
//! message on the P4).

use crate::host::{FirewallPolicy, HostConfig, Region};
use crate::time::SimDuration;

/// One-way latency added between hosts in different regions (the
/// Atlantic: France ↔ Indiana).
pub const TRANSATLANTIC_ONE_WAY: SimDuration = SimDuration(45_000);

/// Per-message CPU anchor: microseconds per KB on a 1 GHz machine.
const CPU_US_PER_KB_AT_1GHZ: u64 = 34_000;

/// CPU cost per KB for a machine of `ghz` effective clock.
pub fn cpu_per_kb(ghz: f64) -> SimDuration {
    SimDuration((CPU_US_PER_KB_AT_1GHZ as f64 / ghz.max(0.01)) as u64)
}

/// `iuLow`: the Bloomington cable modem — 2333 kbps down / 288 kbps up,
/// P3 @ 850 MHz (paper §4.3).
pub fn iu_low(name: &str) -> HostConfig {
    HostConfig::named(name)
        .bandwidth(288, 2333)
        .latency(SimDuration::from_millis(15))
        .region(Region::Us)
        .cpu_per_kb(cpu_per_kb(0.85))
}

/// `iuHight`: Indiana University backbone — 3655 kbps down / 2739 kbps up,
/// SunFire 280R 2×1200 MHz (two CPUs ≈ 2.4 GHz effective for a
/// multi-threaded server).
pub fn iu_high(name: &str) -> HostConfig {
    HostConfig::named(name)
        .bandwidth(2739, 3655)
        .latency(SimDuration::from_millis(5))
        .region(Region::Us)
        .cpu_per_kb(cpu_per_kb(2.4))
}

/// `inriaFast`: P4 @ 3.4 GHz on the INRIA institutional network —
/// 1335 kbps down / 1262 kbps up, behind the institutional firewall.
pub fn inria_fast(name: &str) -> HostConfig {
    HostConfig::named(name)
        .bandwidth(1262, 1335)
        .latency(SimDuration::from_millis(10))
        .region(Region::Eu)
        .firewall(FirewallPolicy::OutboundOnly)
        .cpu_per_kb(cpu_per_kb(3.4))
}

/// `inriaSlow`: P3 @ 1 GHz, same INRIA network and firewall.
pub fn inria_slow(name: &str) -> HostConfig {
    HostConfig::named(name)
        .bandwidth(1262, 1335)
        .latency(SimDuration::from_millis(10))
        .region(Region::Eu)
        .firewall(FirewallPolicy::OutboundOnly)
        .cpu_per_kb(cpu_per_kb(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_speeds_match_the_paper() {
        let low = iu_low("x");
        assert_eq!((low.up_kbps, low.down_kbps), (288, 2333));
        let high = iu_high("x");
        assert_eq!((high.up_kbps, high.down_kbps), (2739, 3655));
        let inria = inria_fast("x");
        assert_eq!((inria.up_kbps, inria.down_kbps), (1262, 1335));
    }

    #[test]
    fn inria_is_behind_a_firewall() {
        assert_eq!(inria_fast("x").firewall, FirewallPolicy::OutboundOnly);
        assert_eq!(inria_slow("x").firewall, FirewallPolicy::OutboundOnly);
        assert_eq!(iu_low("x").firewall, FirewallPolicy::Open);
    }

    #[test]
    fn faster_clock_means_cheaper_processing() {
        assert!(inria_slow("a").cpu_per_kb > inria_fast("b").cpu_per_kb);
        assert!(iu_low("a").cpu_per_kb > iu_high("b").cpu_per_kb);
    }

    #[test]
    fn fig5_plateau_anchor_is_5k_to_6k_per_minute() {
        // One message/KB on the P4 costs cpu_per_kb(3.4); the per-minute
        // service ceiling must land in the paper's plateau band.
        let per_msg = cpu_per_kb(3.4).as_secs_f64();
        let per_minute = 60.0 / per_msg;
        assert!(
            (4_500.0..7_500.0).contains(&per_minute),
            "service ceiling {per_minute}/min"
        );
    }

    #[test]
    fn regions_differ_across_the_atlantic() {
        assert_eq!(iu_low("x").region, Region::Us);
        assert_eq!(inria_fast("x").region, Region::Eu);
    }
}
