//! `schedule::cost` is the virtual clock without the threads.
//!
//! **Exactness.** For every (collective, algorithm) cell of
//! `coll_algos.rs` at {2, 3, 4, 7, 8, 16, 33, 64} ranks, on the
//! `scale_cluster` and `container` profiles, with eager- and
//! rendezvous-sized payloads and skewed nonzero start clocks, the
//! evaluator's per-rank completion clocks equal a threaded virtual-clock
//! run's to the bit. A proptest draws random shapes on top (nightly at
//! `PROPTEST_CASES=256`).
//!
//! **Shape.** Collectives slow down with the rank count, log-round
//! schedules grow with log p and the ring with p, and the Wasm/native
//! ratio falls with message size.
//!
//! **The tuning table against the model.** At each `select_*`'s
//! documented crossover ± one size step, on `scale_cluster` and
//! `supermuc_ng`, the default pick is the cheapest candidate by `cost` —
//! or an exception listed here with its reason.

use std::sync::Arc;

use mpi_substrate::coll_algo::DEFAULT_SEGMENT_BYTES;
use mpi_substrate::schedule::{cost, Schedule};
use mpi_substrate::{
    run_world_configured, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, ClockMode,
    CollKind, CollTuning, Datatype, ReduceOp, WorldConfig,
};
use netsim::{CostModel, SystemProfile};
use proptest::prelude::*;

const SIZES: [u32; 8] = [2, 3, 4, 7, 8, 16, 33, 64];

/// One forced (collective, algorithm) cell.
#[derive(Clone, Copy, Debug)]
enum Cell {
    Bcast(BcastAlgo),
    Allgather(AllgatherAlgo),
    Allreduce(AllreduceAlgo),
    Alltoall(AlltoallAlgo),
}

impl Cell {
    fn all() -> Vec<Cell> {
        let mut cells: Vec<Cell> = BcastAlgo::ALL.map(Cell::Bcast).to_vec();
        cells.extend(AllgatherAlgo::ALL.map(Cell::Allgather));
        cells.extend(AllreduceAlgo::ALL.map(Cell::Allreduce));
        cells.extend(AlltoallAlgo::ALL.map(Cell::Alltoall));
        cells
    }

    fn kind(self) -> CollKind {
        match self {
            Cell::Bcast(_) => CollKind::Bcast,
            Cell::Allgather(_) => CollKind::Allgather,
            Cell::Allreduce(_) => CollKind::Allreduce,
            Cell::Alltoall(_) => CollKind::Alltoall,
        }
    }

    fn tuning(self, seg: usize) -> CollTuning {
        let t = CollTuning::new().with_segment_bytes(seg);
        match self {
            Cell::Bcast(a) => t.force_bcast(a),
            Cell::Allgather(a) => t.force_allgather(a),
            Cell::Allreduce(a) => t.force_allreduce(a),
            Cell::Alltoall(a) => t.force_alltoall(a),
        }
    }

    /// A payload (the whole one, or one block) and pipeline segment. A
    /// `large` one's biggest message is above `threshold`: log-round block
    /// schedules carry about p/2 blocks in theirs. A small one is eager and
    /// ragged against its segment.
    fn sized(self, p: u32, threshold: usize, large: bool) -> (usize, usize) {
        let carried = (p as usize / 2).max(1);
        match (self, large) {
            (Cell::Bcast(_), true) => (2 * threshold + 3, threshold + 1),
            (Cell::Allreduce(_), true) => (4 * (threshold / 2 + 3), 1),
            (
                Cell::Allgather(AllgatherAlgo::Ring) | Cell::Alltoall(AlltoallAlgo::Pairwise),
                true,
            ) => (threshold + 1, 1),
            (Cell::Allgather(_) | Cell::Alltoall(_), true) => (threshold / carried + 1, 1),
            (Cell::Bcast(_), false) => (4097, 512),
            (Cell::Allreduce(_), false) => (13 * 4, 1),
            (Cell::Allgather(_), false) => (33, 1),
            (Cell::Alltoall(_), false) => (9, 1),
        }
    }
}

/// One collective, run by threads and priced by `cost`.
struct Case {
    cell: Cell,
    p: u32,
    profile: SystemProfile,
    n: usize,
    seg: usize,
    /// Skewed, nonzero start clocks, not monotone in the rank.
    start: Vec<f64>,
}

impl Case {
    fn new(cell: Cell, p: u32, profile: SystemProfile, large: bool, seed: u32) -> Case {
        let (n, seg) = cell.sized(p, profile.rendezvous_threshold, large);
        let skew = |r: u32| 0.1 + 0.37 * ((r * 5 + seed) % p) as f64 + 0.013 * seed as f64;
        Case { cell, p, profile, n, seg, start: (0..p).map(skew).collect() }
    }

    fn root(&self) -> u32 {
        if let Cell::Bcast(_) = self.cell {
            self.p / 2
        } else {
            0
        }
    }

    /// Per-rank completion clocks of a threaded virtual-clock run, and
    /// whether any message went by rendezvous. Fails if the protocol layer
    /// ever ran out of eager credit.
    fn threaded(&self) -> (Vec<f64>, bool) {
        let mode = ClockMode::Virtual(CostModel::native(self.profile.clone()));
        let cfg = WorldConfig::new(mode).with_coll_tuning(self.cell.tuning(self.seg));
        let (cell, p, n, root, start) =
            (self.cell, self.p, self.n, self.root(), self.start.clone());
        // Every rank reads the one send buffer; only the clocks are compared.
        let send = Arc::new(vec![0u8; n * p as usize]);
        let out = run_world_configured(p, cfg, move |comm| {
            comm.charge_overhead_us(start[comm.rank() as usize]);
            let all = n * p as usize;
            match cell {
                Cell::Bcast(_) => comm.bcast(&mut vec![0; n], root),
                Cell::Allgather(_) => comm.allgather(&send[..n], &mut vec![0; all]),
                Cell::Allreduce(_) => {
                    comm.allreduce(&send[..n], &mut vec![0; n], Datatype::Int, ReduceOp::Sum)
                }
                Cell::Alltoall(_) => comm.alltoall(&send[..], &mut vec![0; all]),
            }
            .unwrap();
            let clock = comm.virtual_time_us();
            // Every rank's sends are in once everybody is past the barrier.
            comm.barrier().unwrap();
            (clock, comm.protocol_stats())
        });
        let stats = out[0].1;
        assert_eq!(stats.deferred_eager_messages, 0, "{cell:?} p {p}: eager credit ran out");
        (out.iter().map(|o| o.0).collect(), stats.rendezvous_messages > 0)
    }

    fn evaluated(&self) -> Vec<f64> {
        let algo = self.cell.tuning(self.seg).algo(self.cell.kind(), self.p, self.n, 4);
        let scheds = Schedule::every_rank(algo, self.p, self.root(), self.n);
        cost(&scheds, &CostModel::native(self.profile.clone()), &self.start)
    }

    /// The two agree to the bit; `true` if the threads used rendezvous.
    fn assert_exact(&self) -> bool {
        let ((clocks, rendezvous), model) = (self.threaded(), self.evaluated());
        let bits = |c: &[f64]| c.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        let (cell, p, n, seg) = (self.cell, self.p, self.n, self.seg);
        assert_eq!(
            bits(&clocks),
            bits(&model),
            "{cell:?} p {p} {} n {n} seg {seg}:\nthreaded  {clocks:?}\nevaluated {model:?}",
            self.profile.name
        );
        rendezvous
    }
}

fn every_cell_is_exact(keep: impl Fn(Cell) -> bool) {
    for cell in Cell::all().into_iter().filter(|&c| keep(c)) {
        for profile in [SystemProfile::scale_cluster(), SystemProfile::container()] {
            for p in SIZES {
                for large in [false, true] {
                    let rendezvous = Case::new(cell, p, profile.clone(), large, p).assert_exact();
                    assert_eq!(rendezvous, large, "{cell:?} p {p}: the payload's protocol");
                }
            }
        }
    }
}

#[test]
fn bcast_cells_cost_what_the_threads_clock() {
    every_cell_is_exact(|c| matches!(c, Cell::Bcast(_)));
}

#[test]
fn allgather_cells_cost_what_the_threads_clock() {
    every_cell_is_exact(|c| matches!(c, Cell::Allgather(_)));
}

#[test]
fn allreduce_cells_cost_what_the_threads_clock() {
    every_cell_is_exact(|c| matches!(c, Cell::Allreduce(_)));
}

#[test]
fn alltoall_cells_cost_what_the_threads_clock() {
    every_cell_is_exact(|c| matches!(c, Cell::Alltoall(_)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random shapes: any cell, rank count, profile, payload (eager or
    /// rendezvous-sized, plus a ragged offset) and skew.
    #[test]
    fn random_shapes_cost_what_the_threads_clock(
        cell in 0usize..10,
        p in prop_oneof![Just(2u32), Just(3), Just(4), Just(7), Just(8), Just(16), Just(33), Just(64)],
        container in any::<bool>(),
        large in any::<bool>(),
        extra in 0usize..200,
        seed in 0u32..1000,
    ) {
        let profile =
            if container { SystemProfile::container() } else { SystemProfile::scale_cluster() };
        let mut case = Case::new(Cell::all()[cell], p, profile, large, seed);
        // Whole ints for the allreduce.
        case.n += if let Cell::Allreduce(_) = case.cell { 4 * (extra / 4) } else { extra };
        case.assert_exact();
    }
}

// --- shape -------------------------------------------------------------------

/// The slowest rank's clock after one call of `t`'s schedule for `kind`,
/// every rank entering at `start_us`.
fn slowest(m: &CostModel, t: &CollTuning, kind: CollKind, p: u32, n: usize, start_us: f64) -> f64 {
    let scheds = Schedule::every_rank(t.algo(kind, p, n, 8), p, 0, n);
    cost(&scheds, m, &vec![start_us; p as usize]).into_iter().fold(0.0, f64::max)
}

#[test]
fn collectives_scale_as_their_schedules() {
    use CollKind::*;
    let (m, t) = (CostModel::native(SystemProfile::supermuc_ng()), CollTuning::new());
    for kind in [Bcast, Allreduce, Allgather, Alltoall, Gather, Scatter, Reduce, Barrier] {
        let (small, large) =
            (slowest(&m, &t, kind, 48, 1024, 0.0), slowest(&m, &t, kind, 768, 1024, 0.0));
        assert!(large > small, "{kind:?}: {small} us at 48 ranks, {large} us at 768");
    }
    // log2(6144)/log2(48) ≈ 2.3, amplified by the intra→inter latency.
    let (b48, b6144) =
        (slowest(&m, &t, Barrier, 48, 0, 0.0), slowest(&m, &t, Barrier, 6144, 0, 0.0));
    assert!(b6144 > b48 && b6144 / b48 < 10.0, "{b48} vs {b6144}");

    let m = CostModel::native(SystemProfile::container());
    // Doubling p adds about one recursive-doubling round: steady
    // increments, nowhere near linear growth.
    let rd: Vec<f64> = [2, 4, 8, 16].map(|p| slowest(&m, &t, Allreduce, p, 8, 0.0)).to_vec();
    assert!(rd.windows(2).all(|w| w[1] > w[0]), "{rd:?}");
    assert!(rd[3] - rd[2] < (rd[1] - rd[0]) * 3.0 + 1.0 && rd[3] < rd[0] * 5.0, "{rd:?}");
    // The ring's p − 1 rounds: 8 ranks take about 7 times 2.
    let ring = t.clone().force_allgather(AllgatherAlgo::Ring);
    let (r2, r8) =
        (slowest(&m, &ring, Allgather, 2, 4096, 0.0), slowest(&m, &ring, Allgather, 8, 4096, 0.0));
    assert!(r8 / r2 > 3.0, "{r2} vs {r8}");
}

/// The Wasm series is the native schedule entered later by the embedder's
/// per-call overhead: slower everywhere, relatively less so as messages
/// grow.
#[test]
fn wasm_over_native_falls_with_message_size() {
    let (m, t) = (CostModel::native(SystemProfile::supermuc_ng()), CollTuning::new());
    let ratio = |p: u32, n: usize| {
        slowest(&m, &t, CollKind::Allreduce, p, n, 0.1)
            / slowest(&m, &t, CollKind::Allreduce, p, n, 0.0)
    };
    for n in [8, 4096, 1 << 20] {
        assert!(ratio(6144, n) > 1.0, "{n} bytes at 6144 ranks");
    }
    let (small, large) = (ratio(2, 8), ratio(2, 1 << 20));
    assert!(small > large && large > 1.0, "{small} vs {large}");
}

// --- the tuning table against the model --------------------------------------

/// `(collective, p, bytes)` cells around every documented crossover of
/// the default table, one size step (a factor of two) either side, and
/// one rank either side of the rank-count conditions.
fn crossover_cells() -> Vec<(CollKind, u32, usize)> {
    use CollKind::*;
    let around = |x: usize| [x / 2, x, 2 * x];
    let mut cells = Vec::new();
    for p in [64u32, 1024] {
        // bcast: binomial ≤ one 32-KiB segment < binomial-segmented < 16 segments ≤ ring.
        cells.extend(around(32 << 10).into_iter().chain(around(512 << 10)).map(|n| (Bcast, p, n)));
        // allgather: ring once p·block ≥ 256 KiB.
        cells.extend(around((256 << 10) / p as usize).map(|n| (Allgather, p, n)));
        // allreduce: rabenseifner from 32 KiB.
        cells.extend(around(32 << 10).map(|n| (Allreduce, p, n)));
        // alltoall: bruck up to 1-KiB blocks.
        cells.extend(around(1024).map(|n| (Alltoall, p, n)));
    }
    // The rank-count conditions.
    cells.extend([4, 5].map(|p| (Bcast, p, 64 << 10)));
    cells.extend([63, 64, 65].map(|p| (Allgather, p, 64)));
    cells.extend([3, 4, 5].map(|p| (Allreduce, p, 64 << 10)));
    cells.extend([7, 8, 9].map(|p| (Alltoall, p, 64)));
    cells
}

/// (p, bytes) cells of one collective.
type Cells = &'static [(u32, usize)];

/// Which shipped profile an exception holds on.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Profile {
    Scale,
    SuperMuc,
    Both,
}
use Profile::*;

/// The cells where the default table does not pick the cheapest schedule
/// by `cost`, found and not retuned: (profile, collective, (p, bytes)
/// cells, why). The executed clock charges no link contention — a receiver
/// takes any number of concurrent messages at one call overhead each —
/// which favours schedules that send everything at once.
#[rustfmt::skip]
const EXCEPTIONS: &[(Profile, CollKind, Cells, &str)] = &[
    (Both, CollKind::Bcast, &[(64, 512 << 10), (64, 1 << 20), (1024, 512 << 10), (1024, 1 << 20)],
        "ring from 16 segments: its p−1-hop pipeline fill outweighs binomial-segmented's log p hops; the switch ignores p"),
    (SuperMuc, CollKind::Bcast, &[(64, 32 << 10), (1024, 32 << 10)],
        "at exactly one segment binomial-segmented starts every child's rendezvous in one round, binomial one per round (≤ 0.1 us)"),
    (Both, CollKind::Bcast, &[(4, 64 << 10)],
        "the p ≤ 4 rule keeps binomial, but two rendezvous segments already pipeline"),
    (Both, CollKind::Allgather, &[(64, 4 << 10), (64, 8 << 10), (1024, 256), (1024, 512)],
        "ring from a 256-KiB total: its p−1 rounds cost more than the log-round schedules' extra bytes without contention"),
    (Both, CollKind::Allgather, &[(65, 64)],
        "recursive doubling with its fold-in beats Bruck at a non-power-of-two p"),
    (Both, CollKind::Allreduce, &[(64, 16 << 10), (1024, 16 << 10)],
        "Rabenseifner is already cheaper one size step below the 32-KiB switch"),
    (Both, CollKind::Alltoall, &[(64, 512), (64, 1024), (1024, 512), (1024, 1024), (8, 64), (9, 64)],
        "pairwise's p−1 messages arrive together at one call overhead each; Bruck pays its log p rounds"),
];

#[test]
fn the_tuning_table_picks_the_cheapest_schedule_at_its_crossovers() {
    let mut misses = Vec::new();
    for (label, profile) in
        [(Scale, SystemProfile::scale_cluster()), (SuperMuc, SystemProfile::supermuc_ng())]
    {
        let m = CostModel::native(profile);
        for (kind, p, n) in crossover_cells() {
            let priced = |t: &CollTuning| slowest(&m, t, kind, p, n, 0.0);
            let cheapest = Cell::all()
                .into_iter()
                .filter(|c| c.kind() == kind)
                .map(|c| priced(&c.tuning(DEFAULT_SEGMENT_BYTES)))
                .fold(f64::INFINITY, f64::min);
            if priced(&CollTuning::new()) > cheapest {
                misses.push((label, kind, p, n));
            }
        }
    }
    let mut expected = Vec::new();
    for (profile, kind, cells, _why) in EXCEPTIONS {
        for label in [Scale, SuperMuc].into_iter().filter(|l| [*l, Both].contains(profile)) {
            expected.extend(cells.iter().map(|&(p, n)| (label, *kind, p, n)));
        }
    }
    let key = |c: &(Profile, CollKind, u32, usize)| format!("{c:?}");
    misses.sort_by_key(key);
    expected.sort_by_key(key);
    assert_eq!(misses, expected, "the cells where the table misses the cheapest schedule moved");
}
