//! Simulated hosts: access links, firewalls, accept limits, CPU speed.

use crate::time::{transmission_time, SimDuration, SimTime};

/// Identifies a host within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

/// Coarse geography: traffic between different regions crosses the
/// simulated Atlantic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Region {
    /// United States (Indiana University, the cable modem).
    #[default]
    Us,
    /// Europe (INRIA Sophia Antipolis).
    Eu,
}

/// Inbound-connection firewall policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FirewallPolicy {
    /// Inbound connections reach listeners normally.
    #[default]
    Open,
    /// Only outgoing connections are allowed; inbound SYNs are silently
    /// dropped (the paper's institutional firewall).
    OutboundOnly,
}

/// What happens to an inbound connection attempt when the host is already
/// at its accept limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverLimit {
    /// SYN silently dropped — the client times out (models a full SYN
    /// backlog; this is the Figure-4 loss mechanism).
    #[default]
    Drop,
    /// Active refusal — the client fails fast with `AcceptOverflow`.
    Refuse,
}

/// Host construction parameters.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Host name (the simulator's DNS: connect by name).
    pub name: String,
    /// Uplink bandwidth, kilobits/second.
    pub up_kbps: u32,
    /// Downlink bandwidth, kilobits/second.
    pub down_kbps: u32,
    /// One-way latency from this host to its regional core.
    pub access_latency: SimDuration,
    /// Region (inter-region traffic pays the trans-Atlantic latency).
    pub region: Region,
    /// Firewall policy for inbound connections.
    pub firewall: FirewallPolicy,
    /// Maximum concurrently established inbound connections.
    pub accept_limit: usize,
    /// Behaviour when `accept_limit` is reached.
    pub over_limit: OverLimit,
    /// Maximum concurrently open *outbound* connections (file
    /// descriptors / ephemeral ports); attempts beyond it fail locally
    /// and instantly.
    pub outbound_limit: usize,
    /// CPU cost to process one received message, per kilobyte, at this
    /// host's speed (already divided by the machine's clock factor).
    pub cpu_per_kb: SimDuration,
}

impl HostConfig {
    /// A fast, open host with LAN-ish defaults — override what matters.
    pub fn named(name: impl Into<String>) -> Self {
        HostConfig {
            name: name.into(),
            up_kbps: 100_000,
            down_kbps: 100_000,
            access_latency: SimDuration::from_millis(1),
            region: Region::Us,
            firewall: FirewallPolicy::Open,
            accept_limit: 10_000,
            over_limit: OverLimit::Drop,
            outbound_limit: 1_000_000,
            cpu_per_kb: SimDuration::from_micros(10),
        }
    }

    /// Sets bandwidth (kbps, up/down).
    pub fn bandwidth(mut self, up_kbps: u32, down_kbps: u32) -> Self {
        self.up_kbps = up_kbps;
        self.down_kbps = down_kbps;
        self
    }

    /// Sets access latency.
    pub fn latency(mut self, l: SimDuration) -> Self {
        self.access_latency = l;
        self
    }

    /// Sets the region.
    pub fn region(mut self, r: Region) -> Self {
        self.region = r;
        self
    }

    /// Sets the firewall policy.
    pub fn firewall(mut self, f: FirewallPolicy) -> Self {
        self.firewall = f;
        self
    }

    /// Sets the accept limit and overflow behaviour.
    pub fn accept_limit(mut self, limit: usize, over: OverLimit) -> Self {
        self.accept_limit = limit;
        self.over_limit = over;
        self
    }

    /// Sets the local outbound-socket limit.
    pub fn outbound_limit(mut self, limit: usize) -> Self {
        self.outbound_limit = limit;
        self
    }

    /// Sets the per-kilobyte message-processing CPU cost.
    pub fn cpu_per_kb(mut self, c: SimDuration) -> Self {
        self.cpu_per_kb = c;
        self
    }
}

/// Runtime host state.
#[derive(Debug)]
pub(crate) struct Host {
    pub config: HostConfig,
    /// Uplink serialization queue: next instant the uplink is free.
    pub up_busy_until: SimTime,
    /// Downlink serialization queue.
    pub down_busy_until: SimTime,
    /// Currently established inbound connections.
    pub inbound_established: usize,
    /// Currently open outbound connections (including in-progress
    /// attempts).
    pub outbound_open: usize,
}

impl Host {
    pub fn new(config: HostConfig) -> Self {
        Host {
            config,
            up_busy_until: SimTime::ZERO,
            down_busy_until: SimTime::ZERO,
            inbound_established: 0,
            outbound_open: 0,
        }
    }

    /// Reserves the uplink for `bytes` starting no earlier than `now`;
    /// returns when the last bit leaves.
    pub fn reserve_uplink(&mut self, now: SimTime, bytes: usize) -> SimTime {
        let start = self.up_busy_until.max(now);
        let done = start + transmission_time(bytes, self.config.up_kbps);
        self.up_busy_until = done;
        done
    }

    /// Reserves the downlink for `bytes` arriving at `arrival`.
    pub fn reserve_downlink(&mut self, arrival: SimTime, bytes: usize) -> SimTime {
        let start = self.down_busy_until.max(arrival);
        let done = start + transmission_time(bytes, self.config.down_kbps);
        self.down_busy_until = done;
        done
    }

    /// CPU time to process a `bytes`-sized message on this host.
    pub fn processing_time(&self, bytes: usize) -> SimDuration {
        // Round up to at least one KB-equivalent so small messages still
        // cost something on slow machines.
        let kb = (bytes.max(1) as u64).div_ceil(1024);
        SimDuration(self.config.cpu_per_kb.0.saturating_mul(kb))
    }
}

/// One-way propagation latency between two hosts.
pub(crate) fn propagation(a: &HostConfig, b: &HostConfig) -> SimDuration {
    let base = a.access_latency + b.access_latency;
    if a.region != b.region {
        base + crate::profiles::TRANSATLANTIC_ONE_WAY
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uplink_serializes_back_to_back() {
        let mut h = Host::new(HostConfig::named("h").bandwidth(288, 2333));
        let t1 = h.reserve_uplink(SimTime::ZERO, 483);
        let t2 = h.reserve_uplink(SimTime::ZERO, 483);
        // Second message waits for the first: twice the single time.
        assert_eq!(t2.0, 2 * t1.0);
    }

    #[test]
    fn uplink_idle_gap_not_charged() {
        let mut h = Host::new(HostConfig::named("h").bandwidth(1000, 1000));
        let t1 = h.reserve_uplink(SimTime::ZERO, 125); // 1 ms at 1 Mbps
        let later = t1 + SimDuration::from_secs(1);
        let t2 = h.reserve_uplink(later, 125);
        assert_eq!(t2.since(later), t1.since(SimTime::ZERO));
    }

    #[test]
    fn processing_time_scales_with_size_and_speed() {
        let slow = Host::new(HostConfig::named("s").cpu_per_kb(SimDuration::from_micros(400)));
        let fast = Host::new(HostConfig::named("f").cpu_per_kb(SimDuration::from_micros(100)));
        assert!(slow.processing_time(483) > fast.processing_time(483));
        assert!(slow.processing_time(10_000) > slow.processing_time(100));
    }

    #[test]
    fn propagation_adds_atlantic_between_regions() {
        let us = HostConfig::named("us").region(Region::Us);
        let eu = HostConfig::named("eu").region(Region::Eu);
        let same = propagation(&us, &us.clone());
        let cross = propagation(&us, &eu);
        assert!(cross > same);
        assert_eq!(cross - crate::profiles::TRANSATLANTIC_ONE_WAY, same);
    }
}
