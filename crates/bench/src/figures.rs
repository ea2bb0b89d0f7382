//! Figure/table assembly: one function per paper artifact, combining the
//! measured software quantities with the interconnect model. Point-to-point
//! times come from `netsim::CostModel`; every collective is the schedule
//! the substrate runs, priced by `schedule::cost`.

use hpc_benchmarks::{hpcg, imb, npb_dt};
use mpi_substrate::schedule::{cost, Schedule};
use mpi_substrate::{CollKind, CollTuning};
use netsim::{CostModel, SystemProfile};

use crate::measure::EmbedderOverhead;
use crate::{HPCG_WASM_COMPUTE_FACTOR, WASM_COMPUTE_FACTOR, WASM_SIMD_GAP_FACTOR};

/// One series point of an IMB figure.
#[derive(Debug, Clone)]
pub struct ImbPoint {
    pub bytes: u32,
    pub native_us: f64,
    pub wasm_us: f64,
}

/// The slowest rank's completion time (µs) of one native call of `kind`
/// over `ranks` ranks of `bytes` (the payload, or one rank's block): the
/// schedule the default tuning table runs, every rank entering at 0.
///
/// The Wasm path is this plus the embedder's per-call overhead: an
/// executed guest charges it to every rank as the call begins
/// (`charge_wasm_overhead`), and a start delayed alike on every rank
/// passes through the clock rule's `max` and `+` unchanged.
fn collective_us(profile: &SystemProfile, kind: CollKind, ranks: u32, bytes: usize) -> f64 {
    // The IMB and HPCG reductions are over doubles.
    let algo = CollTuning::new().algo(kind, ranks, bytes, 8);
    let scheds = Schedule::every_rank(algo, ranks, 0, bytes);
    let clocks = cost(&scheds, &CostModel::native(profile.clone()), &vec![0.0; ranks as usize]);
    clocks.into_iter().fold(0.0, f64::max)
}

/// Model-driven IMB series at an arbitrary rank count (the 768/6144-rank
/// panels of Figure 3 and the 32-rank panels of Figure 4). The native
/// series uses the profile's native per-call cost, the WASM series adds
/// the measured embedder overhead once per MPI call.
pub fn imb_model_series(
    profile: &SystemProfile,
    routine: imb::ImbRoutine,
    ranks: u32,
    sizes: &[u32],
    overhead: &EmbedderOverhead,
) -> Vec<ImbPoint> {
    use imb::ImbRoutine as R;
    let native = CostModel::native(profile.clone());
    let wasm = CostModel::wasm(profile.clone(), overhead.total_us());
    sizes
        .iter()
        .map(|&bytes| {
            let n = bytes as usize;
            let collective = |kind| {
                let t = collective_us(profile, kind, ranks, n);
                (t, t + overhead.total_us())
            };
            let (native_us, wasm_us) = match routine {
                R::PingPong => (native.pingpong(n).as_micros(), wasm.pingpong(n).as_micros()),
                R::SendRecv => {
                    (native.sendrecv(ranks, n).as_micros(), wasm.sendrecv(ranks, n).as_micros())
                }
                R::Bcast => collective(CollKind::Bcast),
                R::Allreduce => collective(CollKind::Allreduce),
                R::Allgather => collective(CollKind::Allgather),
                R::Alltoall => collective(CollKind::Alltoall),
                R::Reduce => collective(CollKind::Reduce),
                R::Gather => collective(CollKind::Gather),
                R::Scatter => collective(CollKind::Scatter),
            };
            ImbPoint { bytes, native_us, wasm_us }
        })
        .collect()
}

/// Maximum achievable PingPong bandwidth over a size sweep, GiB/s
/// (the §4.5 "maximum bandwidth" numbers).
pub fn max_bandwidth_gib(points: &[ImbPoint], wasm: bool) -> f64 {
    points
        .iter()
        .map(|p| {
            let t = if wasm { p.wasm_us } else { p.native_us };
            p.bytes as f64 / (t * 1e-6) / (1u64 << 30) as f64
        })
        .fold(0.0, f64::max)
}

/// HPCG scaling model (Figures 4f and 5c).
///
/// Per CG iteration each rank spends:
/// * compute time — measured native, measured guest, or the native time ×
///   [`HPCG_WASM_COMPUTE_FACTOR`] for the projected series,
/// * one halo exchange (two plane-sized p2p transfers), and
/// * two 8-byte Allreduces (`collective_us`) — whose cost on the Wasm
///   path adds the measured embedder overhead plus the contention growth of §4.6
///   (read-lock acquisition in the `Env`), calibrated by
///   [`CONTENTION_PER_RANK_US`].
pub struct HpcgScalePoint {
    pub ranks: u32,
    pub native_gflops: f64,
    pub wasm_measured_gflops: f64,
    pub wasm_projected_gflops: f64,
    pub native_gbs: f64,
    pub wasm_measured_gbs: f64,
    pub wasm_projected_gbs: f64,
}

/// Calibration of the §4.6 contention effect: extra µs per Allreduce on
/// the Wasm path, linear in the rank count (every rank's translation takes
/// the `Env` read lock once per collective). Chosen so the projected
/// series lands in the paper's band (≈0% gap at ≤192 ranks, ≈14% at 6144
/// — the paper's own explanation of Figure 5c).
pub const CONTENTION_PER_RANK_US: f64 = 0.0026;

pub fn hpcg_scaling(
    profile: &SystemProfile,
    params: hpcg::HpcgParams,
    rank_counts: &[u32],
    t_compute_native_s: f64,
    t_compute_wasm_s: f64,
    overhead: &EmbedderOverhead,
) -> Vec<HpcgScalePoint> {
    let plane_bytes = (params.nx * params.ny * 8) as usize;
    let flops = params.flops_per_iter();
    let bytes = params.bytes_per_iter();

    rank_counts
        .iter()
        .map(|&p| {
            let halo = profile.p2p_time(0, profile.cores_per_node.min(p - 1).max(1), plane_bytes)
                * 2.0;
            let allreduce = collective_us(profile, CollKind::Allreduce, p, 8);
            let t_native_iter = t_compute_native_s * 1e6 + halo.as_micros() + 2.0 * allreduce;
            let contention = CONTENTION_PER_RANK_US * p as f64;
            let t_wasm_iter = |t_compute_s: f64| {
                t_compute_s * 1e6
                    + halo.as_micros()
                    + 2.0 * (allreduce + overhead.total_us() + contention)
            };
            let t_measured = t_wasm_iter(t_compute_wasm_s);
            let t_projected = t_wasm_iter(t_compute_native_s * HPCG_WASM_COMPUTE_FACTOR);
            let gf = |t_us: f64| p as f64 * flops / (t_us * 1e-6) / 1e9;
            let gb = |t_us: f64| p as f64 * bytes / (t_us * 1e-6) / 1e9;
            HpcgScalePoint {
                ranks: p,
                native_gflops: gf(t_native_iter),
                wasm_measured_gflops: gf(t_measured),
                wasm_projected_gflops: gf(t_projected),
                native_gbs: gb(t_native_iter),
                wasm_measured_gbs: gb(t_measured),
                wasm_projected_gbs: gb(t_projected),
            }
        })
        .collect()
}

/// IS scaling model (Figure 5a left): total Mop/s at `ranks`, from the
/// per-key compute rate — measured native, measured guest, and the native
/// time × [`WASM_COMPUTE_FACTOR`] for the projected series — and its
/// Allreduce and two Alltoalls (`collective_us`).
pub struct IsScalePoint {
    pub ranks: u32,
    pub native_mops: f64,
    pub wasm_measured_mops: f64,
    pub wasm_projected_mops: f64,
}

pub fn is_scaling(
    profile: &SystemProfile,
    keys_per_rank: u32,
    rank_counts: &[u32],
    t_compute_native_s: f64,
    t_compute_wasm_s: f64,
    overhead: &EmbedderOverhead,
) -> Vec<IsScalePoint> {
    rank_counts
        .iter()
        .map(|&p| {
            // Bucket exchange: counts (4 B) + keys (keys/p * 4 B per pair),
            // after an Allreduce of the key range: three MPI calls.
            let per_pair = (keys_per_rank / p.max(1)).max(1) as usize * 4;
            let comm_us = collective_us(profile, CollKind::Allreduce, p, 4)
                + collective_us(profile, CollKind::Alltoall, p, 4)
                + collective_us(profile, CollKind::Alltoall, p, per_pair);
            let native = |comp: f64| comp * 1e6 + comm_us;
            let wasm = |comp: f64| native(comp) + 3.0 * overhead.total_us();
            let keys_total = keys_per_rank as f64 * p as f64;
            IsScalePoint {
                ranks: p,
                native_mops: keys_total / native(t_compute_native_s),
                wasm_measured_mops: keys_total / wasm(t_compute_wasm_s),
                wasm_projected_mops: keys_total / wasm(t_compute_native_s * WASM_COMPUTE_FACTOR),
            }
        })
        .collect()
}

/// DT throughput figure (Figure 5a right): MB/s per topology for Native,
/// WASM without SIMD, and WASM with SIMD — the two guest builds each as
/// measured and as projected.
///
/// The communication volume is measured (`bytes_per_iter`) and so are all
/// three run times. The projected compiled-Wasm times replace the
/// interpreter gap: native × [`WASM_SIMD_GAP_FACTOR`] for the vectorized
/// build, and that × the measured SIMD speedup for the scalar build, so
/// the *SIMD-vs-no-SIMD ratio* is the measured one in both series.
pub struct DtFigureRow {
    pub topology: npb_dt::Topology,
    pub native_mbs: f64,
    pub wasm_measured_mbs: f64,
    pub wasm_simd_measured_mbs: f64,
    pub wasm_projected_mbs: f64,
    pub wasm_simd_projected_mbs: f64,
    /// The measured SIMD speedup of the guest kernel (paper: 1.36×).
    pub measured_simd_speedup: f64,
}

pub fn dt_figure(
    params: npb_dt::DtParams,
    np: u32,
    measured: &[(npb_dt::Topology, f64, f64, f64)],
) -> Vec<DtFigureRow> {
    measured
        .iter()
        .map(|&(topology, native_s, wasm_scalar_s, wasm_simd_s)| {
            let mb = params.bytes_per_iter(np) as f64 * params.iters as f64 / 1e6;
            let measured_simd_speedup = wasm_scalar_s / wasm_simd_s;
            let projected_simd_s = native_s * WASM_SIMD_GAP_FACTOR;
            let projected_scalar_s = projected_simd_s * measured_simd_speedup.max(1.0);
            DtFigureRow {
                topology,
                native_mbs: mb / native_s,
                wasm_measured_mbs: mb / wasm_scalar_s,
                wasm_simd_measured_mbs: mb / wasm_simd_s,
                wasm_projected_mbs: mb / projected_scalar_s,
                wasm_simd_projected_mbs: mb / projected_simd_s,
                measured_simd_speedup,
            }
        })
        .collect()
}

/// IOR figure (Figure 5b): aggregate bandwidth over block sizes, scaling
/// the PFS model by the measured Wasm/native efficiency.
pub struct IorFigureRow {
    pub block_mib: u32,
    pub native_write_mibs: f64,
    pub wasm_write_mibs: f64,
    pub native_read_mibs: f64,
    pub wasm_read_mibs: f64,
}

pub fn ior_figure(
    profile: &SystemProfile,
    block_sizes_mib: &[u32],
    nodes: u32,
    measured_write_eff: f64,
    measured_read_eff: f64,
) -> Vec<IorFigureRow> {
    // The paper's 4-node runs reach ~40 GiB/s write / ~29 GiB/s read of a
    // 47 GiB/s per-4-node share. Model: the share, degraded slightly for
    // small blocks (per-op overhead), times the measured efficiency.
    let share_mibs = profile.pfs_bw_bytes_per_us * 1e6 / (1 << 20) as f64
        * (nodes as f64 / profile.nodes.max(1) as f64);
    block_sizes_mib
        .iter()
        .map(|&mib| {
            let small_block_penalty = 1.0 - 0.18 / (mib as f64).sqrt();
            let write = share_mibs * 0.85 * small_block_penalty;
            let read = share_mibs * 0.62 * small_block_penalty;
            IorFigureRow {
                block_mib: mib,
                native_write_mibs: write,
                wasm_write_mibs: write * measured_write_eff.min(1.05),
                native_read_mibs: read,
                wasm_read_mibs: read * measured_read_eff.min(1.05),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gm_slowdown;
    use mpiwasm::translate::TranslationStats;

    fn fake_overhead(us: f64) -> EmbedderOverhead {
        EmbedderOverhead {
            trampoline_us: us / 2.0,
            translation_us: us / 2.0,
            stats: TranslationStats::new(),
        }
    }

    #[test]
    fn imb_model_wasm_always_slower_but_bounded() {
        let profile = SystemProfile::supermuc_ng();
        let overhead = fake_overhead(0.2);
        let sizes: Vec<u32> = (0..=22).map(|l| 1 << l).collect();
        for routine in imb::ImbRoutine::ALL {
            let ranks = if routine == imb::ImbRoutine::PingPong { 2 } else { 768 };
            let pts = imb_model_series(&profile, routine, ranks, &sizes, &overhead);
            let native: Vec<f64> = pts.iter().map(|p| p.native_us).collect();
            let wasm: Vec<f64> = pts.iter().map(|p| p.wasm_us).collect();
            let slowdown = gm_slowdown(&native, &wasm);
            assert!(slowdown > 0.0, "{routine:?} wasm not slower");
            assert!(
                slowdown < 0.25,
                "{routine:?} slowdown {slowdown} outside the paper's band"
            );
        }
    }

    #[test]
    fn pingpong_max_bandwidth_near_line_rate() {
        let profile = SystemProfile::supermuc_ng();
        let overhead = fake_overhead(0.15);
        let sizes: Vec<u32> = (0..=22).map(|l| 1 << l).collect();
        let pts = imb_model_series(&profile, imb::ImbRoutine::PingPong, 2, &sizes, &overhead);
        let native_bw = max_bandwidth_gib(&pts, false);
        // Paper: 12.80 GiB/s native on the OmniPath system.
        assert!((8.0..14.0).contains(&native_bw), "{native_bw} GiB/s");
        let wasm_bw = max_bandwidth_gib(&pts, true);
        assert!((wasm_bw - native_bw).abs() / native_bw < 0.1);
    }

    #[test]
    fn hpcg_gap_grows_with_ranks_to_paper_band() {
        let profile = SystemProfile::supermuc_ng();
        let overhead = fake_overhead(0.2);
        let params = hpcg::HpcgParams::default();
        let pts = hpcg_scaling(
            &profile,
            params,
            &[48, 192, 768, 1536, 3072, 6144],
            300e-6, // 300µs compute per iteration per rank
            2.4e-3, // the guest engine, ≈ 8× native
            &overhead,
        );
        let gap = |p: &HpcgScalePoint| 1.0 - p.wasm_projected_gflops / p.native_gflops;
        let g192 = gap(&pts[1]);
        let g6144 = gap(&pts[5]);
        assert!(g192 < 0.10, "gap at 192 ranks too large: {g192}");
        assert!((0.08..0.25).contains(&g6144), "gap at 6144 ranks: {g6144}");
        assert!(g6144 > g192, "gap must grow with scale");
        // Throughput itself keeps growing (weak scaling).
        assert!(pts[5].native_gflops > pts[0].native_gflops * 10.0);
    }

    #[test]
    fn is_scaling_grows_then_saturates() {
        let profile = SystemProfile::supermuc_ng();
        let overhead = fake_overhead(0.2);
        let pts = is_scaling(&profile, 65536, &[64, 128, 256, 512, 1024], 3e-3, 3.3e-3, &overhead);
        assert!(pts[1].native_mops > pts[0].native_mops, "more ranks, more Mop/s");
        for p in &pts {
            assert!(p.wasm_measured_mops < p.native_mops);
            assert!(p.wasm_measured_mops / p.native_mops > 0.8, "IS gap too large");
        }
    }

    /// A figure shows what the guest engine did, beside the projection: the
    /// measured series follows the measured guest kernel time, and the
    /// projected one depends on the native time and its constant alone.
    #[test]
    fn measured_series_follow_the_measured_kernel_time_and_projected_ones_do_not() {
        let profile = SystemProfile::supermuc_ng();
        let overhead = fake_overhead(0.2);
        let ranks = [64u32, 1024];

        let hpcg = |t_wasm| {
            hpcg_scaling(&profile, hpcg::HpcgParams::default(), &ranks, 300e-6, t_wasm, &overhead)
        };
        let is = |t_wasm| is_scaling(&profile, 65536, &ranks, 3e-3, t_wasm, &overhead);
        for (fast, slow) in hpcg(600e-6).iter().zip(&hpcg(2.4e-3)) {
            assert!(fast.wasm_measured_gflops > slow.wasm_measured_gflops * 1.5);
            assert!(fast.wasm_measured_gbs > slow.wasm_measured_gbs * 1.5);
            assert_eq!(fast.wasm_projected_gflops, slow.wasm_projected_gflops);
            assert_eq!(fast.wasm_projected_gbs, slow.wasm_projected_gbs);
            assert_eq!(fast.native_gflops, slow.native_gflops);
        }
        for (fast, slow) in is(6e-3).iter().zip(&is(24e-3)) {
            assert!(fast.wasm_measured_mops > slow.wasm_measured_mops * 1.5);
            assert_eq!(fast.wasm_projected_mops, slow.wasm_projected_mops);
            assert_eq!(fast.native_mops, slow.native_mops);
        }

        let params = npb_dt::DtParams { elems: 1024, iters: 4, ..Default::default() };
        let dt = |scale: f64| {
            dt_figure(params, 8, &[(npb_dt::Topology::BlackHole, 0.010, 0.80 * scale, 0.55 * scale)])
        };
        let (fast, slow) = (&dt(1.0)[0], &dt(2.0)[0]);
        assert_eq!(fast.wasm_simd_measured_mbs, slow.wasm_simd_measured_mbs * 2.0);
        assert_eq!(fast.wasm_measured_mbs, slow.wasm_measured_mbs * 2.0);
        assert_eq!(fast.wasm_simd_projected_mbs, slow.wasm_simd_projected_mbs);
        assert_eq!(fast.wasm_projected_mbs, slow.wasm_projected_mbs);
    }

    #[test]
    fn dt_figure_preserves_measured_simd_ratio() {
        let params = npb_dt::DtParams { elems: 1024, iters: 4, ..Default::default() };
        let rows = dt_figure(
            params,
            8,
            &[(npb_dt::Topology::BlackHole, 0.010, 0.80, 0.55)],
        );
        let r = &rows[0];
        assert!((r.measured_simd_speedup - 0.80 / 0.55).abs() < 1e-9);
        assert!(r.native_mbs > r.wasm_simd_projected_mbs);
        assert!(r.wasm_simd_projected_mbs > r.wasm_projected_mbs);
        for ratio in [
            r.wasm_simd_projected_mbs / r.wasm_projected_mbs,
            r.wasm_simd_measured_mbs / r.wasm_measured_mbs,
        ] {
            assert!((ratio - r.measured_simd_speedup).abs() < 1e-9);
        }
    }

    #[test]
    fn ior_figure_shapes() {
        let profile = SystemProfile::supermuc_ng();
        let rows = ior_figure(&profile, &[1, 4, 8, 12, 16], 4, 0.98, 0.97);
        for r in &rows {
            assert!(r.native_write_mibs > r.native_read_mibs);
            let weff = r.wasm_write_mibs / r.native_write_mibs;
            assert!((0.9..=1.05).contains(&weff));
        }
        // Larger blocks approach the share.
        assert!(rows[4].native_write_mibs > rows[0].native_write_mibs);
    }
}
