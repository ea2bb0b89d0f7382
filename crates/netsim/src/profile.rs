//! Machine models: the systems of the paper's §4.1 as parameter sets.

use crate::time::SimTime;

/// Parameters describing one evaluation system: topology plus link and
/// software constants for the α–β point-to-point model.
#[derive(Debug, Clone)]
pub struct SystemProfile {
    /// Human-readable name used in harness output.
    pub name: String,
    /// MPI ranks per node (one rank per core, pure-MPI configuration §4.3).
    pub cores_per_node: u32,
    /// Number of nodes available.
    pub nodes: u32,
    /// One-way small-message latency within a node (shared memory), µs.
    pub intra_latency_us: f64,
    /// Shared-memory bandwidth, bytes per µs (= MB/s).
    pub intra_bw_bytes_per_us: f64,
    /// One-way small-message latency across the fabric, µs.
    pub inter_latency_us: f64,
    /// Fabric bandwidth per node, bytes per µs.
    pub inter_bw_bytes_per_us: f64,
    /// Eager→rendezvous protocol switch point, bytes. Messages above this
    /// pay one extra handshake latency.
    pub rendezvous_threshold: usize,
    /// Per-call MPI software overhead for the native path, µs.
    pub native_call_overhead_us: f64,
    /// Sustained per-core floating point rate for compute kernels, in
    /// FLOP/µs (used by the HPCG large-scale model).
    pub flops_per_us_per_core: f64,
    /// Aggregate parallel-filesystem bandwidth, bytes per µs (IOR model).
    pub pfs_bw_bytes_per_us: f64,
}

impl SystemProfile {
    /// The production HPC system of §4.1: SuperMUC-NG-like. Intel
    /// Skylake-SP, 48 cores/node, Intel OmniPath at 100 Gbit/s
    /// (≈ 12.5 GB/s), Spectrum Scale PFS at 200 GiB/s aggregate.
    pub fn supermuc_ng() -> Self {
        SystemProfile {
            name: "SuperMUC-NG (x86_64, OmniPath)".into(),
            cores_per_node: 48,
            nodes: 128,
            intra_latency_us: 0.35,
            intra_bw_bytes_per_us: 8_000.0, // ~8 GB/s shared-memory copy
            inter_latency_us: 1.05,
            inter_bw_bytes_per_us: 12_500.0, // 100 Gbit/s OmniPath
            rendezvous_threshold: 16 * 1024,
            native_call_overhead_us: 0.06,
            flops_per_us_per_core: 1_600.0, // ~1.6 GFLOP/s sustained HPCG-like
            pfs_bw_bytes_per_us: 50_000_000.0, // 200 GiB/s aggregate, 4-node share applied by model
        }
    }

    /// The AWS Graviton2 node of §4.1: aarch64 Neoverse-N1, 32 cores,
    /// single node (all traffic is shared memory).
    pub fn graviton2() -> Self {
        SystemProfile {
            name: "AWS Graviton2 (aarch64, single node)".into(),
            cores_per_node: 32,
            nodes: 1,
            intra_latency_us: 0.45,
            intra_bw_bytes_per_us: 11_000.0, // ~11 GB/s
            inter_latency_us: 0.45,          // unused on one node
            inter_bw_bytes_per_us: 11_000.0,
            rendezvous_threshold: 32 * 1024,
            native_call_overhead_us: 0.07,
            flops_per_us_per_core: 900.0,
            pfs_bw_bytes_per_us: 2_000_000.0,
        }
    }

    /// A 4096-rank (64 nodes × 64 cores) cluster for the scaling sweeps:
    /// the substrate's simulated-scale benchmark and the `bench_scale`
    /// latency-vs-rank-count curves run collective schedules on worlds
    /// up to this size under the virtual clock.
    pub fn scale_cluster() -> Self {
        SystemProfile {
            name: "scale cluster (64x64, fat-tree)".into(),
            cores_per_node: 64,
            nodes: 64,
            intra_latency_us: 0.4,
            intra_bw_bytes_per_us: 9_000.0,
            inter_latency_us: 1.2,
            inter_bw_bytes_per_us: 12_500.0,
            rendezvous_threshold: 16 * 1024,
            native_call_overhead_us: 0.06,
            flops_per_us_per_core: 1_200.0,
            pfs_bw_bytes_per_us: 20_000_000.0,
        }
    }

    /// A modest container-sized system for the artifact-evaluation style
    /// small-scale runs (§A.3.1).
    pub fn container() -> Self {
        SystemProfile {
            name: "container (4 ranks, shared memory)".into(),
            cores_per_node: 4,
            nodes: 1,
            intra_latency_us: 0.5,
            intra_bw_bytes_per_us: 6_000.0,
            inter_latency_us: 0.5,
            inter_bw_bytes_per_us: 6_000.0,
            rendezvous_threshold: 32 * 1024,
            native_call_overhead_us: 0.08,
            flops_per_us_per_core: 700.0,
            pfs_bw_bytes_per_us: 500_000.0,
        }
    }

    /// Node index hosting `rank` (dense block placement, as SLURM does).
    pub fn node_of(&self, rank: u32) -> u32 {
        rank / self.cores_per_node
    }

    /// Whether two ranks share a node.
    pub fn same_node(&self, a: u32, b: u32) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// One-way point-to-point time for `bytes` between two ranks.
    pub fn p2p_time(&self, from: u32, to: u32, bytes: usize) -> SimTime {
        let (alpha, bw) = if self.same_node(from, to) {
            (self.intra_latency_us, self.intra_bw_bytes_per_us)
        } else {
            (self.inter_latency_us, self.inter_bw_bytes_per_us)
        };
        let mut t = alpha + bytes as f64 / bw;
        if bytes > self.rendezvous_threshold {
            t += alpha; // rendezvous handshake
        }
        SimTime::micros(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shape() {
        let smng = SystemProfile::supermuc_ng();
        assert_eq!(smng.cores_per_node * smng.nodes, 6144);
        let g2 = SystemProfile::graviton2();
        assert_eq!(g2.cores_per_node * g2.nodes, 32);
        assert!(smng.inter_bw_bytes_per_us > g2.intra_bw_bytes_per_us);
        let scale = SystemProfile::scale_cluster();
        assert!(scale.cores_per_node * scale.nodes >= 4096);
    }

    #[test]
    fn node_placement_is_dense() {
        let p = SystemProfile::supermuc_ng();
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(47), 0);
        assert_eq!(p.node_of(48), 1);
        assert!(p.same_node(0, 47));
        assert!(!p.same_node(47, 48));
    }

    #[test]
    fn p2p_time_scales_with_bytes_and_distance() {
        let p = SystemProfile::supermuc_ng();
        let small_intra = p.p2p_time(0, 1, 8);
        let small_inter = p.p2p_time(0, 48, 8);
        assert!(small_inter > small_intra);
        let big = p.p2p_time(0, 48, 1 << 20);
        assert!(big > small_inter * 10.0);
        // Bandwidth-bound: 1 MiB over 12.5 GB/s ≈ 84 µs.
        assert!((big.as_micros() - 85.0).abs() < 10.0, "{big}");
    }

    #[test]
    fn rendezvous_adds_latency() {
        let p = SystemProfile::supermuc_ng();
        let just_below = p.p2p_time(0, 48, p.rendezvous_threshold);
        let just_above = p.p2p_time(0, 48, p.rendezvous_threshold + 1);
        let delta = just_above.as_micros() - just_below.as_micros();
        assert!(delta > p.inter_latency_us * 0.9, "delta {delta}");
    }

    #[test]
    fn profile_clone_preserves_fields() {
        let p = SystemProfile::graviton2();
        let q = p.clone();
        assert_eq!(p.name, q.name);
        assert_eq!(p.cores_per_node, q.cores_per_node);
        assert_eq!(p.rendezvous_threshold, q.rendezvous_threshold);
    }
}
