//! α–β cost model for MPI point-to-point operations.
//!
//! Collective times are not modelled here: a collective is the schedule
//! the MPI substrate runs, and `mpi_substrate::schedule::cost` prices it
//! from [`SystemProfile::p2p_time`] and the per-call overhead below.

use crate::profile::SystemProfile;
use crate::time::SimTime;

/// Cost model bound to a system profile plus a per-MPI-call software
/// overhead (µs). The overhead parameter is how the harness injects the
/// *measured* embedder cost: native runs use
/// [`SystemProfile::native_call_overhead_us`], Wasm runs add the measured
/// host-trampoline + datatype-translation time on top (Figure 6).
#[derive(Debug, Clone)]
pub struct CostModel {
    pub profile: SystemProfile,
    /// Software overhead charged once per MPI call on every rank, µs.
    pub call_overhead_us: f64,
}

impl CostModel {
    /// Model for the native execution path.
    pub fn native(profile: SystemProfile) -> Self {
        let call_overhead_us = profile.native_call_overhead_us;
        Self { profile, call_overhead_us }
    }

    /// Model for the Wasm execution path: native overhead plus the
    /// embedder's per-call cost (host-function trampoline, address and
    /// datatype translation) in µs.
    pub fn wasm(profile: SystemProfile, embedder_overhead_us: f64) -> Self {
        let call_overhead_us = profile.native_call_overhead_us + embedder_overhead_us;
        Self { profile, call_overhead_us }
    }

    /// Half round-trip of a PingPong (what IMB reports as `t_avg`).
    ///
    /// On a multi-node system the two ranks are placed on different nodes
    /// (the interesting fabric measurement); on a single node they share
    /// memory.
    pub fn pingpong(&self, bytes: usize) -> SimTime {
        let partner = if self.profile.nodes > 1 { self.profile.cores_per_node } else { 1 };
        let wire = self.profile.p2p_time(0, partner, bytes);
        wire + SimTime::micros(self.call_overhead_us * 2.0)
    }

    /// Concurrent send+recv per rank (IMB Sendrecv), `ranks` participants.
    pub fn sendrecv(&self, ranks: u32, bytes: usize) -> SimTime {
        let wire = self.profile.p2p_time(0, self.partner_rank(ranks), bytes);
        // Full-duplex links: overlap leaves ~1.2x a single transfer.
        wire * 1.2 + SimTime::micros(self.call_overhead_us * 2.0)
    }

    fn partner_rank(&self, ranks: u32) -> u32 {
        // Neighbour exchange: last rank wraps to 0; cross-node once the job
        // spans more than one node.
        if ranks > self.profile.cores_per_node {
            self.profile.cores_per_node // first off-node rank
        } else {
            1.min(ranks.saturating_sub(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_latency_and_bandwidth_regimes() {
        let m = CostModel::native(SystemProfile::supermuc_ng());
        let tiny = m.pingpong(8);
        // Small messages are latency-dominated: ~1µs plus sw overhead.
        assert!(tiny.as_micros() < 2.0, "{tiny}");
        let big = m.pingpong(1 << 22);
        // 4 MiB over ~12.5 GB/s ≈ 335 µs.
        assert!((250.0..500.0).contains(&big.as_micros()), "{big}");
    }
}
