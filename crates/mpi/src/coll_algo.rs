//! Collective algorithm selection — the substrate's analog of Open MPI's
//! "tuned" module.
//!
//! Every multi-algorithm collective picks its [`crate::schedule`] through
//! a [`CollTuning`] table attached to the world, once, when its request is
//! built — blocking or not, native caller or Wasm guest. A cell is chosen
//! per **(collective, communicator size, payload bytes)** by the
//! `select_*` methods below; any cell can be *forced* — pinned to one
//! algorithm regardless of size — either programmatically
//! ([`crate::WorldConfig::with_coll_tuning`]) or through the environment
//! (`MPIWASM_COLL_BCAST`, `MPIWASM_COLL_ALLGATHER`,
//! `MPIWASM_COLL_ALLREDUCE`, `MPIWASM_COLL_ALLTOALL`, each naming an
//! algorithm; `MPIWASM_COLL_SEGMENT` overrides the pipeline segment
//! size in bytes). Forcing is what the conformance matrix uses to pin
//! every schedule against the naive oracle (`tests/coll_algos.rs`).
//!
//! The default thresholds follow the shapes production libraries tune
//! toward: latency-bound schedules (trees, recursive doubling, Bruck)
//! for small payloads where the α·rounds term dominates, and
//! bandwidth-bound schedules (ring, Rabenseifner) once β·bytes does.
//! See `docs/collectives.md` for the full table.

use obs::CollKind;

use crate::schedule::Algo;

/// `MPI_Bcast` schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcastAlgo {
    /// Binomial tree, ⌈log₂ p⌉ rounds of the whole payload.
    Binomial,
    /// Binomial tree over pipelined segments: a child forwards segment
    /// `s` while receiving segment `s+1`.
    BinomialSegmented,
    /// Pipelined ring: bandwidth-optimal asymptotically, p−1+segments
    /// rounds deep.
    Ring,
}

impl BcastAlgo {
    pub const ALL: [BcastAlgo; 3] =
        [BcastAlgo::Binomial, BcastAlgo::BinomialSegmented, BcastAlgo::Ring];

    pub fn name(self) -> &'static str {
        self.obs().name()
    }

    pub fn parse(s: &str) -> Option<BcastAlgo> {
        Self::ALL.into_iter().find(|a| a.name() == s)
    }

    pub(crate) fn obs(self) -> obs::Algorithm {
        match self {
            BcastAlgo::Binomial => obs::Algorithm::Binomial,
            BcastAlgo::BinomialSegmented => obs::Algorithm::BinomialSegmented,
            BcastAlgo::Ring => obs::Algorithm::Ring,
        }
    }
}

/// `MPI_Allgather` schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllgatherAlgo {
    /// Neighbour ring, p−1 rounds of one block.
    Ring,
    /// Bruck: ⌈log₂ p⌉ rounds, doubling the carried block set; any p.
    Bruck,
    /// Recursive doubling with pairwise fold-in/unfold for
    /// non-power-of-two p.
    RecursiveDoubling,
}

impl AllgatherAlgo {
    pub const ALL: [AllgatherAlgo; 3] =
        [AllgatherAlgo::Ring, AllgatherAlgo::Bruck, AllgatherAlgo::RecursiveDoubling];

    pub fn name(self) -> &'static str {
        self.obs().name()
    }

    pub fn parse(s: &str) -> Option<AllgatherAlgo> {
        Self::ALL.into_iter().find(|a| a.name() == s)
    }

    pub(crate) fn obs(self) -> obs::Algorithm {
        match self {
            AllgatherAlgo::Ring => obs::Algorithm::Ring,
            AllgatherAlgo::Bruck => obs::Algorithm::Bruck,
            AllgatherAlgo::RecursiveDoubling => obs::Algorithm::RecursiveDoubling,
        }
    }
}

/// `MPI_Allreduce` schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllreduceAlgo {
    /// Recursive doubling with non-power-of-two fold-in.
    RecursiveDoubling,
    /// Rabenseifner: recursive-halving reduce-scatter + recursive-
    /// doubling allgather; bandwidth-optimal for large payloads.
    Rabenseifner,
}

impl AllreduceAlgo {
    pub const ALL: [AllreduceAlgo; 2] =
        [AllreduceAlgo::RecursiveDoubling, AllreduceAlgo::Rabenseifner];

    pub fn name(self) -> &'static str {
        self.obs().name()
    }

    pub fn parse(s: &str) -> Option<AllreduceAlgo> {
        Self::ALL.into_iter().find(|a| a.name() == s)
    }

    pub(crate) fn obs(self) -> obs::Algorithm {
        match self {
            AllreduceAlgo::RecursiveDoubling => obs::Algorithm::RecursiveDoubling,
            AllreduceAlgo::Rabenseifner => obs::Algorithm::Rabenseifner,
        }
    }
}

/// `MPI_Alltoall` schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlltoallAlgo {
    /// Direct pairwise exchange: p−1 isends + p−1 specific receives.
    Pairwise,
    /// Bruck: rotation + ⌈log₂ p⌉ store-and-forward rounds; wins for
    /// small blocks at large p where the α·(p−1) term dominates.
    Bruck,
}

impl AlltoallAlgo {
    pub const ALL: [AlltoallAlgo; 2] = [AlltoallAlgo::Pairwise, AlltoallAlgo::Bruck];

    pub fn name(self) -> &'static str {
        self.obs().name()
    }

    pub fn parse(s: &str) -> Option<AlltoallAlgo> {
        Self::ALL.into_iter().find(|a| a.name() == s)
    }

    pub(crate) fn obs(self) -> obs::Algorithm {
        match self {
            AlltoallAlgo::Pairwise => obs::Algorithm::Pairwise,
            AlltoallAlgo::Bruck => obs::Algorithm::Bruck,
        }
    }
}

/// Default pipeline segment for the segmented bcast schedules.
pub const DEFAULT_SEGMENT_BYTES: usize = 32 * 1024;

/// The per-world algorithm selection table. `None` cells use the size-
/// adaptive defaults in the `select_*` methods; `Some` cells are forced.
#[derive(Clone, Debug)]
pub struct CollTuning {
    pub bcast: Option<BcastAlgo>,
    pub allgather: Option<AllgatherAlgo>,
    pub allreduce: Option<AllreduceAlgo>,
    pub alltoall: Option<AlltoallAlgo>,
    /// Segment size (bytes) for the pipelined bcast schedules.
    pub segment_bytes: usize,
}

impl Default for CollTuning {
    fn default() -> CollTuning {
        CollTuning {
            bcast: None,
            allgather: None,
            allreduce: None,
            alltoall: None,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

impl CollTuning {
    pub fn new() -> CollTuning {
        CollTuning::default()
    }

    /// Read forced cells from `MPIWASM_COLL_*` environment variables
    /// (unset cells stay adaptive; unknown algorithm names are reported
    /// on stderr and ignored).
    pub fn from_env() -> CollTuning {
        fn get<T>(var: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
            let val = std::env::var(var).ok()?;
            match parse(&val) {
                Some(a) => Some(a),
                None => {
                    eprintln!("warning: {var}={val} names no known algorithm; ignored");
                    None
                }
            }
        }
        CollTuning {
            bcast: get("MPIWASM_COLL_BCAST", BcastAlgo::parse),
            allgather: get("MPIWASM_COLL_ALLGATHER", AllgatherAlgo::parse),
            allreduce: get("MPIWASM_COLL_ALLREDUCE", AllreduceAlgo::parse),
            alltoall: get("MPIWASM_COLL_ALLTOALL", AlltoallAlgo::parse),
            segment_bytes: get("MPIWASM_COLL_SEGMENT", |s| s.parse().ok())
                .filter(|&s: &usize| s > 0)
                .unwrap_or(DEFAULT_SEGMENT_BYTES),
        }
    }

    pub fn force_bcast(mut self, a: BcastAlgo) -> CollTuning {
        self.bcast = Some(a);
        self
    }

    pub fn force_allgather(mut self, a: AllgatherAlgo) -> CollTuning {
        self.allgather = Some(a);
        self
    }

    pub fn force_allreduce(mut self, a: AllreduceAlgo) -> CollTuning {
        self.allreduce = Some(a);
        self
    }

    pub fn force_alltoall(mut self, a: AlltoallAlgo) -> CollTuning {
        self.alltoall = Some(a);
        self
    }

    pub fn with_segment_bytes(mut self, bytes: usize) -> CollTuning {
        assert!(bytes > 0, "segment must be at least one byte");
        self.segment_bytes = bytes;
        self
    }

    /// Bcast cell for `p` ranks of a `bytes` payload: binomial while the
    /// payload fits one segment (latency-bound), pipelined binomial in
    /// the midrange, ring once bandwidth dominates outright.
    pub fn select_bcast(&self, p: u32, bytes: usize) -> BcastAlgo {
        if let Some(a) = self.bcast {
            return a;
        }
        if bytes <= self.segment_bytes || p <= 4 {
            BcastAlgo::Binomial
        } else if bytes >= 16 * self.segment_bytes {
            BcastAlgo::Ring
        } else {
            BcastAlgo::BinomialSegmented
        }
    }

    /// Allgather cell for `p` ranks of a `block_bytes` contribution:
    /// log-round schedules while the gathered total is small (recursive
    /// doubling on power-of-two counts, Bruck otherwise), ring once the
    /// total is bandwidth-bound.
    pub fn select_allgather(&self, p: u32, block_bytes: usize) -> AllgatherAlgo {
        if let Some(a) = self.allgather {
            return a;
        }
        let total = block_bytes.saturating_mul(p as usize);
        if total >= 256 * 1024 {
            AllgatherAlgo::Ring
        } else if p.is_power_of_two() {
            AllgatherAlgo::RecursiveDoubling
        } else {
            AllgatherAlgo::Bruck
        }
    }

    /// Allreduce cell: recursive doubling for latency-bound payloads,
    /// Rabenseifner once the payload is large enough that moving
    /// (p−1)/p of it twice beats moving all of it log₂ p times.
    pub fn select_allreduce(&self, p: u32, bytes: usize) -> AllreduceAlgo {
        if let Some(a) = self.allreduce {
            return a;
        }
        if bytes >= 32 * 1024 && p >= 4 {
            AllreduceAlgo::Rabenseifner
        } else {
            AllreduceAlgo::RecursiveDoubling
        }
    }

    /// Alltoall cell for per-destination blocks of `block_bytes`: Bruck
    /// for small blocks at large p (α·log₂ p beats α·(p−1)), pairwise
    /// otherwise (Bruck moves every byte log₂ p times).
    pub fn select_alltoall(&self, p: u32, block_bytes: usize) -> AlltoallAlgo {
        if let Some(a) = self.alltoall {
            return a;
        }
        if block_bytes <= 1024 && p >= 8 {
            AlltoallAlgo::Bruck
        } else {
            AlltoallAlgo::Pairwise
        }
    }

    /// The schedule this table runs for `kind` over `p` ranks, where `n`
    /// is the whole payload (bcast, reduce, allreduce) or one rank's block
    /// (gather, scatter, allgather, alltoall) and `elem` the element size
    /// a Rabenseifner allreduce splits at. The one place a cell becomes an
    /// [`Algo`]: the executor builds its requests from it, and whoever
    /// prices a call with [`crate::schedule::cost`] prices the same
    /// schedule. Alltoallv has a single schedule, built from its extents.
    pub fn algo(&self, kind: CollKind, p: u32, n: usize, elem: usize) -> Algo {
        let seg = self.segment_bytes.max(1);
        match kind {
            CollKind::Barrier => Algo::Barrier,
            CollKind::Bcast => match self.select_bcast(p, n) {
                BcastAlgo::Binomial => Algo::BcastBinomial,
                BcastAlgo::BinomialSegmented => Algo::BcastBinomialSegmented { seg },
                BcastAlgo::Ring => Algo::BcastRing { seg },
            },
            CollKind::Reduce => Algo::Reduce,
            CollKind::Allreduce => match self.select_allreduce(p, n) {
                AllreduceAlgo::RecursiveDoubling => Algo::AllreduceRecursiveDoubling,
                AllreduceAlgo::Rabenseifner => Algo::AllreduceRabenseifner { elem },
            },
            CollKind::Gather => Algo::Gather,
            CollKind::Scatter => Algo::Scatter,
            CollKind::Allgather => match self.select_allgather(p, n) {
                AllgatherAlgo::Ring => Algo::AllgatherRing,
                AllgatherAlgo::Bruck => Algo::AllgatherBruck,
                AllgatherAlgo::RecursiveDoubling => Algo::AllgatherRecursiveDoubling,
            },
            CollKind::Alltoall => match self.select_alltoall(p, n) {
                AlltoallAlgo::Pairwise => Algo::AlltoallPairwise,
                AlltoallAlgo::Bruck => Algo::AlltoallBruck,
            },
            CollKind::Alltoallv => panic!("alltoallv's schedule is built from its extents"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for a in BcastAlgo::ALL {
            assert_eq!(BcastAlgo::parse(a.name()), Some(a));
        }
        for a in AllgatherAlgo::ALL {
            assert_eq!(AllgatherAlgo::parse(a.name()), Some(a));
        }
        for a in AllreduceAlgo::ALL {
            assert_eq!(AllreduceAlgo::parse(a.name()), Some(a));
        }
        for a in AlltoallAlgo::ALL {
            assert_eq!(AlltoallAlgo::parse(a.name()), Some(a));
        }
        assert_eq!(BcastAlgo::parse("no-such-schedule"), None);
    }

    #[test]
    fn defaults_are_size_adaptive() {
        let t = CollTuning::new();
        assert_eq!(t.select_bcast(64, 1024), BcastAlgo::Binomial);
        assert_eq!(t.select_bcast(64, 128 * 1024), BcastAlgo::BinomialSegmented);
        assert_eq!(t.select_bcast(64, 4 << 20), BcastAlgo::Ring);
        assert_eq!(t.select_allgather(64, 64), AllgatherAlgo::RecursiveDoubling);
        assert_eq!(t.select_allgather(33, 64), AllgatherAlgo::Bruck);
        assert_eq!(t.select_allgather(64, 1 << 20), AllgatherAlgo::Ring);
        assert_eq!(t.select_allreduce(64, 64), AllreduceAlgo::RecursiveDoubling);
        assert_eq!(t.select_allreduce(64, 1 << 20), AllreduceAlgo::Rabenseifner);
        assert_eq!(t.select_alltoall(64, 64), AlltoallAlgo::Bruck);
        assert_eq!(t.select_alltoall(64, 1 << 20), AlltoallAlgo::Pairwise);
        assert_eq!(t.select_alltoall(4, 64), AlltoallAlgo::Pairwise);
    }

    #[test]
    fn forced_cells_override_every_size() {
        let t = CollTuning::new()
            .force_bcast(BcastAlgo::Ring)
            .force_allreduce(AllreduceAlgo::Rabenseifner);
        assert_eq!(t.select_bcast(2, 1), BcastAlgo::Ring);
        assert_eq!(t.select_allreduce(2, 1), AllreduceAlgo::Rabenseifner);
        // Unforced cells stay adaptive.
        assert_eq!(t.select_alltoall(64, 64), AlltoallAlgo::Bruck);
    }
}
