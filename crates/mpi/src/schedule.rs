//! Collective schedules as data.
//!
//! A [`Schedule`] is a value: an algorithm plus the shape it runs over
//! (communicator size, this rank, root, byte sizes). [`Schedule::round`]
//! is a pure function of that value and a round number, yielding the
//! round's [`Step`]s over three named buffers — the caller's `Send` and
//! `Recv` buffers and one `Scratch` buffer of [`Schedule::scratch_len`]
//! bytes:
//!
//! * `Send { to, span }` — send the span to a peer;
//! * `Recv { from, span }` — receive exactly `span.len` bytes into it;
//! * `Reduce { from, dst, with }` — `dst = with ⊕ incoming`, applied as the
//!   message is delivered (`dst == with` reduces in place);
//! * `Copy { src, dst }` — a local copy.
//!
//! **The round rule.** The steps of one round are independent: no step
//! writes a span another step of that round reads or writes, so an
//! executor may start, deliver and complete them in any order, and a peer
//! may read a sent span at any time during the round. Order is expressed
//! only by rounds: every step of round `r` completes before round `r + 1`
//! starts. The two pipelined broadcasts relax this for sends alone
//! ([`Schedule::pipelined`]): their relays stay in flight to the end of
//! the schedule, which is sound because no later round writes a segment
//! once it has been received. Nothing ever writes the `Send` buffer.
//!
//! **Round pairing.** A receive in round `r` takes a message the peer
//! sends in its own round `r` — `r + 1` in a pipelined schedule, whose
//! relays trail their receipt by one round — and messages between one
//! pair arrive in the order they were sent.
//!
//! Rounds are generated on demand — never materialised — so a rank holds
//! O(steps of one round) state even where the whole schedule has
//! O(p log p) steps. `tests/schedule.rs` runs every builder for every
//! `p` in 1..=130 through [`walk`] and checks pairing, results and the
//! round rule; the executor in [`crate::request`] relies on exactly those
//! properties for its raw-pointer spans.
//!
//! **Virtual time.** [`cost`] prices a collective without running it: it
//! walks all `p` schedules in one thread under the virtual-clock rule
//! the executor applies (see [`walk`]), and returns every rank's
//! completion clock.

use std::collections::VecDeque;

use netsim::CostModel;

/// One of the three buffers a schedule works over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Buf {
    /// The caller's send buffer. Read-only.
    Send,
    /// The caller's receive buffer (the one buffer of a broadcast).
    Recv,
    /// Executor-owned scratch of [`Schedule::scratch_len`] bytes.
    Scratch,
}

/// A byte range of one buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub buf: Buf,
    pub off: usize,
    pub len: usize,
}

fn send(off: usize, len: usize) -> Span {
    Span { buf: Buf::Send, off, len }
}

fn recv(off: usize, len: usize) -> Span {
    Span { buf: Buf::Recv, off, len }
}

fn scratch(off: usize, len: usize) -> Span {
    Span { buf: Buf::Scratch, off, len }
}

/// One action of a round (see the module docs for the vocabulary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    Send { to: u32, span: Span },
    Recv { from: u32, span: Span },
    Reduce { from: u32, dst: Span, with: Span },
    Copy { src: Span, dst: Span },
}

/// Byte counts and displacements of an `alltoallv`, one entry per rank.
#[derive(Clone, Debug)]
pub struct Extents {
    pub send_counts: Vec<usize>,
    pub send_displs: Vec<usize>,
    pub recv_counts: Vec<usize>,
    pub recv_displs: Vec<usize>,
}

/// The algorithm of a [`Schedule`], with its own parameters.
#[derive(Clone, Debug)]
pub enum Algo {
    Barrier,
    BcastBinomial,
    /// `seg`: pipeline segment in bytes (≥ 1).
    BcastBinomialSegmented { seg: usize },
    /// `seg`: pipeline segment in bytes (≥ 1).
    BcastRing { seg: usize },
    Reduce,
    AllreduceRecursiveDoubling,
    /// `elem`: element size; the payload must be a multiple of it.
    AllreduceRabenseifner { elem: usize },
    Gather,
    Scatter,
    AllgatherRing,
    AllgatherBruck,
    AllgatherRecursiveDoubling,
    AlltoallPairwise,
    AlltoallBruck,
    Alltoallv(Box<Extents>),
}

/// A collective schedule for one rank: see the module docs.
#[derive(Clone, Debug)]
pub struct Schedule {
    algo: Algo,
    p: u32,
    me: u32,
    root: u32,
    /// The whole payload (bcast, reduce, allreduce) or one rank's block
    /// (gather, scatter, allgather, alltoall), in bytes.
    n: usize,
}

/// ⌈log₂ p⌉.
fn log2_ceil(p: u32) -> u32 {
    p.next_power_of_two().trailing_zeros()
}

/// Largest power of two ≤ `p`, and the remainder ranks beyond it.
fn pow2_split(p: u32) -> (u32, u32) {
    let p2 = 1u32 << (31 - p.leading_zeros());
    (p2, p - p2)
}

/// Pipeline segments of an `n`-byte payload; an empty payload still runs
/// one (empty) segment so every rank exchanges the same messages.
fn segments(n: usize, seg: usize) -> u32 {
    n.div_ceil(seg).max(1) as u32
}

fn segment(n: usize, seg: usize, s: u32) -> Span {
    let off = (s as usize * seg).min(n);
    recv(off, seg.min(n - off))
}

/// Communicator rank of recursive-doubling rank `q` after the fold that
/// leaves the odd ranks below `2·rem` and every rank above standing.
fn unfolded(q: u32, rem: u32) -> u32 {
    if q < rem {
        q * 2 + 1
    } else {
        q + rem
    }
}

/// This rank's recursive-doubling rank, `None` if it folds out.
fn folded(me: u32, rem: u32) -> Option<u32> {
    if me >= 2 * rem {
        Some(me - rem)
    } else {
        (me % 2 == 1).then_some(me / 2)
    }
}

impl Schedule {
    /// The schedule of `algo` on rank `me` of `p`. `root` is ignored by
    /// the unrooted collectives, `n` by barrier and alltoallv.
    pub fn new(algo: Algo, p: u32, me: u32, root: u32, n: usize) -> Schedule {
        assert!(me < p && root < p, "rank {me} / root {root} outside a communicator of {p}");
        Schedule { algo, p, me, root, n }
    }

    /// The schedules of all `p` ranks of one call, in rank order.
    pub fn every_rank(algo: Algo, p: u32, root: u32, n: usize) -> Vec<Schedule> {
        (0..p).map(|me| Schedule::new(algo.clone(), p, me, root, n)).collect()
    }

    /// The algorithm tag traces carry.
    pub fn algorithm(&self) -> obs::Algorithm {
        use obs::Algorithm as A;
        match self.algo {
            Algo::Barrier => A::Dissemination,
            Algo::BcastBinomial | Algo::Reduce => A::Binomial,
            Algo::BcastBinomialSegmented { .. } => A::BinomialSegmented,
            Algo::BcastRing { .. } | Algo::AllgatherRing => A::Ring,
            Algo::AllreduceRecursiveDoubling | Algo::AllgatherRecursiveDoubling => {
                A::RecursiveDoubling
            }
            Algo::AllreduceRabenseifner { .. } => A::Rabenseifner,
            Algo::Gather | Algo::Scatter => A::LinearRoot,
            Algo::AllgatherBruck | Algo::AlltoallBruck => A::Bruck,
            Algo::AlltoallPairwise | Algo::Alltoallv(_) => A::Pairwise,
        }
    }

    /// Sends stay in flight across rounds (see the module docs).
    pub fn pipelined(&self) -> bool {
        matches!(self.algo, Algo::BcastBinomialSegmented { .. } | Algo::BcastRing { .. })
    }

    /// Rank relative to the root.
    fn vr(&self) -> u32 {
        (self.me + self.p - self.root) % self.p
    }

    /// Communicator rank of root-relative rank `vr`.
    fn abs(&self, vr: u32) -> u32 {
        (vr + self.root) % self.p
    }

    /// Reductions this rank performs in a recursive-doubling allreduce.
    fn rd_reductions(&self) -> u32 {
        let (p2, rem) = pow2_split(self.p);
        match folded(self.me, rem) {
            None => 0,
            Some(_) => p2.trailing_zeros() + u32::from(self.me < 2 * rem),
        }
    }

    /// Bytes of scratch the schedule needs on this rank.
    pub fn scratch_len(&self) -> usize {
        let (p, n) = (self.p as usize, self.n);
        match self.algo {
            Algo::Barrier => 2 * usize::from(p > 1),
            // Interior nodes below the root accumulate in scratch.
            Algo::Reduce => {
                let vr = self.vr();
                if vr != 0 && vr.is_multiple_of(2) && vr + 1 < self.p {
                    n
                } else {
                    0
                }
            }
            Algo::AllreduceRecursiveDoubling => n * usize::from(self.rd_reductions() >= 2),
            Algo::AllgatherBruck => n * p,
            // The rotated blocks, then one pack and one unpack area.
            Algo::AlltoallBruck => n * (p + 2 * (p / 2)),
            _ => 0,
        }
    }

    /// Number of rounds.
    pub fn rounds(&self) -> u32 {
        let p = self.p;
        let levels = log2_ceil(p);
        let (p2, rem) = pow2_split(p);
        let fold = u32::from(rem > 0);
        let single = u32::from(p == 1);
        match self.algo {
            Algo::Barrier | Algo::BcastBinomial => levels,
            Algo::BcastBinomialSegmented { seg } | Algo::BcastRing { seg } => {
                segments(self.n, seg) + 1
            }
            Algo::Reduce => levels.max(1),
            Algo::AllreduceRecursiveDoubling => single + 2 * fold + p2.trailing_zeros(),
            Algo::AllreduceRabenseifner { .. } => single + 2 * fold + 2 * p2.trailing_zeros(),
            Algo::Gather | Algo::Scatter | Algo::AlltoallPairwise | Algo::Alltoallv(_) => 1,
            Algo::AllgatherRing => (p - 1).max(1),
            Algo::AllgatherBruck => levels + 2,
            Algo::AllgatherRecursiveDoubling => 1 + p2.trailing_zeros() + fold,
            Algo::AlltoallBruck => 3 * levels + 2,
        }
    }

    /// Emit the steps of round `r` (`r < self.rounds()`).
    pub fn round(&self, r: u32, mut emit: impl FnMut(Step)) {
        let emit = &mut emit;
        match &self.algo {
            Algo::Barrier => self.barrier(r, emit),
            Algo::BcastBinomial => self.bcast_binomial(r, emit),
            Algo::BcastBinomialSegmented { seg } => self.bcast_binomial_segmented(*seg, r, emit),
            Algo::BcastRing { seg } => self.bcast_ring(*seg, r, emit),
            Algo::Reduce => self.reduce_binomial(r, emit),
            Algo::AllreduceRecursiveDoubling => self.allreduce_recursive_doubling(r, emit),
            Algo::AllreduceRabenseifner { elem } => self.allreduce_rabenseifner(*elem, r, emit),
            Algo::Gather => self.gather_linear(emit),
            Algo::Scatter => self.scatter_linear(emit),
            Algo::AllgatherRing => self.allgather_ring(r, emit),
            Algo::AllgatherBruck => self.allgather_bruck(r, emit),
            Algo::AllgatherRecursiveDoubling => self.allgather_recursive_doubling(r, emit),
            Algo::AlltoallPairwise => self.alltoall_pairwise(emit),
            Algo::AlltoallBruck => self.alltoall_bruck(r, emit),
            Algo::Alltoallv(x) => self.alltoallv_pairwise(x, emit),
        }
    }

    /// Dissemination barrier: round `r` passes a one-byte token `2^r`
    /// ranks forward.
    fn barrier(&self, r: u32, emit: &mut impl FnMut(Step)) {
        let (p, me, k) = (self.p, self.me, 1 << r);
        emit(Step::Send { to: (me + k) % p, span: scratch(0, 1) });
        emit(Step::Recv { from: (me + p - k) % p, span: scratch(1, 1) });
    }

    /// Binomial-tree bcast, one tree level per round from the top: a rank
    /// receives from its parent at the level of its lowest set bit and
    /// relays to one child per level below.
    fn bcast_binomial(&self, r: u32, emit: &mut impl FnMut(Step)) {
        let (vr, mask) = (self.vr(), 1 << (log2_ceil(self.p) - 1 - r));
        let whole = recv(0, self.n);
        if vr % (2 * mask) == mask {
            emit(Step::Recv { from: self.abs(vr - mask), span: whole });
        } else if vr % (2 * mask) == 0 && vr + mask < self.p {
            emit(Step::Send { to: self.abs(vr + mask), span: whole });
        }
    }

    /// Pipelined binomial bcast: round `r` receives segment `r` from the
    /// parent while relaying segment `r − 1` to every child.
    fn bcast_binomial_segmented(&self, seg: usize, r: u32, emit: &mut impl FnMut(Step)) {
        let (vr, n) = (self.vr(), self.n);
        // The parent hangs off the lowest set bit; the root has none and
        // owns every level.
        let low = if vr == 0 { 1 << log2_ceil(self.p) } else { vr & vr.wrapping_neg() };
        if vr != 0 && r < segments(n, seg) {
            emit(Step::Recv { from: self.abs(vr - low), span: segment(n, seg, r) });
        }
        if r > 0 {
            let mut mask = low >> 1;
            while mask > 0 {
                if vr + mask < self.p {
                    emit(Step::Send { to: self.abs(vr + mask), span: segment(n, seg, r - 1) });
                }
                mask >>= 1;
            }
        }
    }

    /// Pipelined ring bcast: the payload streams root → root+1 → … one
    /// segment per round.
    fn bcast_ring(&self, seg: usize, r: u32, emit: &mut impl FnMut(Step)) {
        let (p, me, vr, n) = (self.p, self.me, self.vr(), self.n);
        if vr != 0 && r < segments(n, seg) {
            emit(Step::Recv { from: (me + p - 1) % p, span: segment(n, seg, r) });
        }
        if r > 0 && vr != p - 1 {
            emit(Step::Send { to: (me + 1) % p, span: segment(n, seg, r - 1) });
        }
    }

    /// Binomial-tree reduce, one level per round from the leaves. A leaf
    /// sends the send buffer itself. An interior node folds its first
    /// child with the send buffer into its accumulator — the receive
    /// buffer on the root, scratch elsewhere — and later children into
    /// the accumulator in place; nobody reads it until it is sent up.
    fn reduce_binomial(&self, r: u32, emit: &mut impl FnMut(Step)) {
        let (p, vr, n) = (self.p, self.vr(), self.n);
        if p == 1 {
            return emit(Step::Copy { src: send(0, n), dst: recv(0, n) });
        }
        let mask = 1 << r;
        if vr % mask != 0 {
            return; // sent up in an earlier round
        }
        let acc = if vr == 0 { recv(0, n) } else { scratch(0, n) };
        if vr & mask != 0 {
            // A rank with any child has the child `vr + 1`.
            let has_child = vr % 2 == 0 && vr + 1 < p;
            let span = if has_child { acc } else { send(0, n) };
            emit(Step::Send { to: self.abs(vr - mask), span });
        } else if vr + mask < p {
            let with = if r == 0 { send(0, n) } else { acc };
            emit(Step::Reduce { from: self.abs(vr + mask), dst: acc, with });
        }
    }

    /// The frame both allreduces share. A lone rank copies. Otherwise the
    /// lowest `2·rem` ranks fold pairwise around `core` rounds on the
    /// power of two that remains: in the first round each even rank among
    /// them sends its contribution to the odd rank above it, which reduces
    /// it with its own into `first`; in the last the odd rank returns the
    /// result. Emits those rounds, and yields `(core round, core rank)` on
    /// the ranks that take part in the rounds between.
    fn pair_fold(
        &self,
        r: u32,
        core: u32,
        first: Span,
        emit: &mut impl FnMut(Step),
    ) -> Option<(u32, u32)> {
        let (me, n) = (self.me, self.n);
        if self.p == 1 {
            emit(Step::Copy { src: send(0, n), dst: recv(0, n) });
            return None;
        }
        let (_, rem) = pow2_split(self.p);
        // `Some(odd)` on the ranks that fold.
        let pair = (me < 2 * rem).then_some(me % 2 == 1);
        match if rem > 0 { r.checked_sub(1) } else { Some(r) } {
            None => match pair {
                Some(false) => emit(Step::Send { to: me + 1, span: send(0, n) }),
                Some(true) => emit(Step::Reduce { from: me - 1, dst: first, with: send(0, n) }),
                None => {}
            },
            Some(r) if r == core => match pair {
                Some(true) => emit(Step::Send { to: me - 1, span: recv(0, n) }),
                Some(false) => emit(Step::Recv { from: me + 1, span: recv(0, n) }),
                None => {}
            },
            Some(r) => return folded(me, rem).map(|q| (r, q)),
        }
        None
    }

    /// Recursive-doubling allreduce inside [`Schedule::pair_fold`]. A step
    /// sends the accumulator (at first the send buffer itself) and reduces
    /// the partner's payload with it into the *other* of the receive
    /// buffer and scratch — the partner may still be reading the
    /// accumulator. The parity of the reductions a rank has left picks the
    /// target, so the last one lands in the receive buffer.
    fn allreduce_recursive_doubling(&self, r: u32, emit: &mut impl FnMut(Step)) {
        let (me, n) = (self.me, self.n);
        let (p2, rem) = pow2_split(self.p);
        let total = self.rd_reductions();
        // Accumulator before, and target of, this rank's `i`-th reduction.
        let target = |i: u32| if (total - i) % 2 == 1 { recv(0, n) } else { scratch(0, n) };
        let acc = |i: u32| if i == 0 { send(0, n) } else { target(i - 1) };
        let Some((r, q)) = self.pair_fold(r, p2.trailing_zeros(), target(0), emit) else {
            return;
        };
        let i = r + u32::from(me < 2 * rem);
        let partner = unfolded(q ^ (1 << r), rem);
        emit(Step::Send { to: partner, span: acc(i) });
        emit(Step::Reduce { from: partner, dst: target(i), with: acc(i) });
    }

    /// Rabenseifner's allreduce inside [`Schedule::pair_fold`]:
    /// reduce-scatter by recursive halving, then allgather by recursive
    /// doubling, all in the receive buffer. A rank's first reduction reads
    /// the send buffer (`recv[keep] = send[keep] ⊕ theirs`); from then on
    /// the half it keeps is reduced in place while the other half is sent.
    fn allreduce_rabenseifner(&self, elem: usize, r: u32, emit: &mut impl FnMut(Step)) {
        let (me, n) = (self.me, self.n);
        let (p2, rem) = pow2_split(self.p);
        let levels = p2.trailing_zeros();
        let Some((r, q)) = self.pair_fold(r, 2 * levels, recv(0, n), emit) else { return };
        // Byte offset of chunk `i` of the balanced p2-way element split.
        let (base, extra) = (n / elem / p2 as usize, n / elem % p2 as usize);
        let off = |i: u32| (i as usize * base + (i as usize).min(extra)) * elem;
        let chunks = |buf: fn(usize, usize) -> Span, lo: u32, hi: u32| {
            buf(off(lo), off(hi) - off(lo))
        };
        if r < levels {
            // Halving: keep the half of the aligned window holding chunk
            // `q`, send the other half across.
            let half = p2 >> (r + 1);
            let lo = q & !(2 * half - 1);
            let (keep, give) = if q & half == 0 { (lo, lo + half) } else { (lo + half, lo) };
            let partner = unfolded(q ^ half, rem);
            let folded_in = me < 2 * rem;
            let acc: fn(usize, usize) -> Span = if r == 0 && !folded_in { send } else { recv };
            emit(Step::Send { to: partner, span: chunks(acc, give, give + half) });
            emit(Step::Reduce {
                from: partner,
                dst: chunks(recv, keep, keep + half),
                with: chunks(acc, keep, keep + half),
            });
        } else {
            // Doubling: swap the owned aligned windows.
            let width = 1 << (r - levels);
            let (mine, theirs) = (q & !(width - 1), (q ^ width) & !(width - 1));
            let partner = unfolded(q ^ width, rem);
            emit(Step::Send { to: partner, span: chunks(recv, mine, mine + width) });
            emit(Step::Recv { from: partner, span: chunks(recv, theirs, theirs + width) });
        }
    }

    /// Linear gather: the root takes one block per peer, in rank order.
    fn gather_linear(&self, emit: &mut impl FnMut(Step)) {
        let (me, root, n) = (self.me, self.root, self.n);
        if me != root {
            return emit(Step::Send { to: root, span: send(0, n) });
        }
        emit(Step::Copy { src: send(0, n), dst: recv(me as usize * n, n) });
        for from in (0..self.p).filter(|&r| r != root) {
            emit(Step::Recv { from, span: recv(from as usize * n, n) });
        }
    }

    /// Linear scatter: the root sends every peer its block.
    fn scatter_linear(&self, emit: &mut impl FnMut(Step)) {
        let (me, root, n) = (self.me, self.root, self.n);
        if me != root {
            return emit(Step::Recv { from: root, span: recv(0, n) });
        }
        for to in (0..self.p).filter(|&r| r != root) {
            emit(Step::Send { to, span: send(to as usize * n, n) });
        }
        emit(Step::Copy { src: send(me as usize * n, n), dst: recv(0, n) });
    }

    /// Ring allgather inside the receive buffer: each round sends right
    /// the block the previous round completed (the first round: the send
    /// buffer) while the left neighbour's lands in another block.
    fn allgather_ring(&self, r: u32, emit: &mut impl FnMut(Step)) {
        let (p, me, n) = (self.p, self.me, self.n);
        let block = |b: u32| recv(b as usize * n, n);
        if r == 0 {
            emit(Step::Copy { src: send(0, n), dst: block(me) });
        }
        if p > 1 {
            let span = if r == 0 { send(0, n) } else { block((me + p - r) % p) };
            emit(Step::Send { to: (me + 1) % p, span });
            emit(Step::Recv { from: (me + p - 1) % p, span: block((me + p - r - 1) % p) });
        }
    }

    /// Bruck allgather in rotated scratch, where slot `i` holds rank
    /// `me + i`'s block: round `k` sends the first `min(k, p − k)` slots
    /// `k` ranks back and so doubles the carried set; the last round
    /// unrotates into the receive buffer.
    fn allgather_bruck(&self, r: u32, emit: &mut impl FnMut(Step)) {
        let (p, me, n) = (self.p, self.me, self.n);
        let slots = |lo: u32, cnt: u32| scratch(lo as usize * n, cnt as usize * n);
        if r == 0 {
            emit(Step::Copy { src: send(0, n), dst: slots(0, 1) });
        } else if r <= log2_ceil(p) {
            let k = 1 << (r - 1);
            let cnt = k.min(p - k);
            emit(Step::Send { to: (me + p - k) % p, span: slots(0, cnt) });
            emit(Step::Recv { from: (me + k) % p, span: slots(k, cnt) });
        } else {
            let (low, high) = (me as usize * n, (p - me) as usize * n);
            emit(Step::Copy { src: slots(0, p - me), dst: recv(low, high) });
            if me > 0 {
                emit(Step::Copy { src: slots(p - me, me), dst: recv(0, low) });
            }
        }
    }

    /// Recursive-doubling allgather inside the receive buffer. The ranks
    /// above the power of two hand their block to rank `me − p2` up front
    /// and take the finished buffer at the end; in between, low rank `q`
    /// carries block `q` and, if `q < rem`, block `q + p2`, so a round
    /// swaps the low and the high blocks of the aligned windows — two
    /// contiguous ranges, sent as two messages.
    fn allgather_recursive_doubling(&self, r: u32, emit: &mut impl FnMut(Step)) {
        let (p, me, n) = (self.p, self.me, self.n);
        let (p2, rem) = pow2_split(p);
        let blocks = |lo: u32, hi: u32| recv(lo as usize * n, (hi - lo) as usize * n);
        if r == 0 {
            if me >= p2 {
                return emit(Step::Send { to: me - p2, span: send(0, n) });
            }
            emit(Step::Copy { src: send(0, n), dst: blocks(me, me + 1) });
            if me < rem {
                emit(Step::Recv { from: me + p2, span: blocks(me + p2, me + p2 + 1) });
            }
        } else if r > p2.trailing_zeros() {
            if me >= p2 {
                emit(Step::Recv { from: me - p2, span: blocks(0, p) });
            } else if me < rem {
                emit(Step::Send { to: me + p2, span: blocks(0, p) });
            }
        } else if me < p2 {
            let width = 1 << (r - 1);
            let partner = me ^ width;
            let (mine, theirs) = (me & !(width - 1), partner & !(width - 1));
            // The folded-in blocks a window of low ranks carries.
            let high = |lo: u32| (lo < rem).then(|| blocks(lo + p2, (lo + width).min(rem) + p2));
            emit(Step::Send { to: partner, span: blocks(mine, mine + width) });
            if let Some(span) = high(mine) {
                emit(Step::Send { to: partner, span });
            }
            emit(Step::Recv { from: partner, span: blocks(theirs, theirs + width) });
            if let Some(span) = high(theirs) {
                emit(Step::Recv { from: partner, span });
            }
        }
    }

    /// Pairwise exchange, the one round of alltoall and alltoallv: every
    /// block straight from the send buffer (`out(rank)`) into its place
    /// (`inc(rank)`). Empty blocks still travel, so every pair exchanges
    /// exactly once.
    fn pairwise(
        &self,
        out: impl Fn(usize) -> Span,
        inc: impl Fn(usize) -> Span,
        emit: &mut impl FnMut(Step),
    ) {
        let (p, me) = (self.p as usize, self.me as usize);
        emit(Step::Copy { src: out(me), dst: inc(me) });
        for to in (1..p).map(|i| (me + i) % p) {
            emit(Step::Send { to: to as u32, span: out(to) });
        }
        for from in (1..p).map(|i| (me + p - i) % p) {
            emit(Step::Recv { from: from as u32, span: inc(from) });
        }
    }

    fn alltoall_pairwise(&self, emit: &mut impl FnMut(Step)) {
        let n = self.n;
        self.pairwise(|r| send(r * n, n), |r| recv(r * n, n), emit);
    }

    /// Counts and displacements per rank instead of equal blocks.
    fn alltoallv_pairwise(&self, x: &Extents, emit: &mut impl FnMut(Step)) {
        let out = |r: usize| send(x.send_displs[r], x.send_counts[r]);
        let inc = |r: usize| recv(x.recv_displs[r], x.recv_counts[r]);
        self.pairwise(out, inc, emit);
    }

    /// Bruck alltoall. Scratch holds `p` rotated slots — slot `j` starts
    /// as the block for rank `me + j` — then a pack and an unpack area.
    /// Step `k` ships every slot whose index has bit `k` set to rank
    /// `me + k` as one message (pack, exchange, unpack: three rounds), so a
    /// block bound `j` ranks forward travels the hops of `j`'s binary
    /// expansion; slot `j` ends up holding the block from rank `me − j`.
    fn alltoall_bruck(&self, r: u32, emit: &mut impl FnMut(Step)) {
        let (p, me, n) = (self.p, self.me, self.n);
        let slots = |lo: u32, cnt: u32| scratch(lo as usize * n, cnt as usize * n);
        let area = |which: u32, lo: u32, cnt: u32| slots(p + which * (p / 2) + lo, cnt);
        if r == 0 {
            let (low, high) = (me as usize * n, (p - me) as usize * n);
            emit(Step::Copy { src: send(low, high), dst: slots(0, p - me) });
            if me > 0 {
                emit(Step::Copy { src: send(0, low), dst: slots(p - me, me) });
            }
            return;
        }
        if r == 3 * log2_ceil(p) + 1 {
            for from in 0..p {
                let dst = recv(from as usize * n, n);
                emit(Step::Copy { src: slots((me + p - from) % p, 1), dst });
            }
            return;
        }
        let (k, phase) = (1 << ((r - 1) / 3), (r - 1) % 3);
        // Slots with bit `k` set come in runs of `k`, packed back to back.
        let mut packed = 0;
        for lo in (k..p).step_by(2 * k as usize) {
            let cnt = k.min(p - lo);
            match phase {
                0 => emit(Step::Copy { src: slots(lo, cnt), dst: area(0, packed, cnt) }),
                2 => emit(Step::Copy { src: area(1, packed, cnt), dst: slots(lo, cnt) }),
                _ => {}
            }
            packed += cnt;
        }
        if phase == 1 {
            emit(Step::Send { to: (me + k) % p, span: area(0, 0, packed) });
            emit(Step::Recv { from: (me + p - k) % p, span: area(1, 0, packed) });
        }
    }
}

// --- virtual time ------------------------------------------------------------

/// What a [`walk`] shows its caller besides the clocks. A round's
/// deliveries may come between its `begin` calls: the round rule makes
/// their order immaterial.
pub trait Hook {
    /// Rank `me` begins round `round`: once per step, in schedule order.
    fn begin(&mut self, _me: u32, _round: u32, _step: Step) {}
    /// Rank `me` takes delivery of the message its `Recv` or `Reduce`
    /// step waited for.
    fn deliver(&mut self, _me: u32, _step: Step) {}
}

impl Hook for () {}

/// Every rank's completion clock (µs) after one collective: [`walk`]
/// with nothing watching.
pub fn cost(scheds: &[Schedule], model: &CostModel, start_us: &[f64]) -> Vec<f64> {
    walk(scheds, model, start_us, &mut ())
}

/// One rank's position in a [`walk`].
#[derive(Default)]
struct Walker {
    clock: f64,
    round: u32,
    /// The current round's sends are stamped.
    begun: bool,
    /// Receives of the current round, and how many are delivered.
    recvs: u32,
    delivered: u32,
    done: bool,
    /// Per round from `base` on: the departure stamp of its sends and how
    /// many of them nobody has received yet.
    sent: VecDeque<(f64, u32)>,
    base: u32,
    /// Rendezvous sends nobody has received yet, and the latest clock a
    /// receiver delivered one at.
    rdv_out: u32,
    rdv_done: f64,
}

impl Walker {
    fn rounds_begun(&self) -> u32 {
        self.round + u32::from(self.begun)
    }

    fn drop_received_rounds(&mut self) {
        while self.sent.front().is_some_and(|&(_, unreceived)| unreceived == 0) {
            self.sent.pop_front();
            self.base += 1;
        }
    }

    /// A rendezvous sender's clock catches up with its receivers, once
    /// all of them have delivered.
    fn catch_up(&mut self) -> bool {
        if self.rdv_out > 0 {
            return false;
        }
        if self.rdv_done > self.clock {
            self.clock = self.rdv_done;
        }
        self.rdv_done = f64::NEG_INFINITY;
        true
    }
}

/// Run all `p` schedules of one collective in this thread under the
/// executor's virtual-clock rule, moving no bytes, and return every
/// rank's completion clock. `scheds[r]` runs on world rank `r` — the
/// profile places ranks by world rank — and enters at `start_us[r]`.
///
/// The rule, and nothing more:
/// * one `call_overhead_us` at initiation;
/// * a send leaves stamped with its rank's clock as its round begins;
/// * deliveries in schedule order:
///   `clock = max(clock, sent + p2p_time(src, dst, len)) + call_overhead_us`;
/// * an eager send (up to the profile's rendezvous threshold) completes at
///   initiation; a rendezvous sender catches up with the clock its
///   receiver had after delivery, observed at the end of the round — or
///   of the schedule, if it is pipelined.
///
/// Eager credit is assumed available: the executor turns an eager send
/// that finds its destination's buffer budget spent into a rendezvous,
/// this walk never does.
///
/// No message is stored: a delivery reads the stamp of the round its peer
/// sent in (the module's round-pairing rule), so the walk holds O(p +
/// rounds with unreceived sends). It visits the ranks in turn, each as
/// far as it goes, until all finish, and panics if a pass moves nobody
/// (the schedules deadlock) or a send is never received. `hook` sees
/// every step as its round begins and every delivery.
pub fn walk(
    scheds: &[Schedule],
    model: &CostModel,
    start_us: &[f64],
    hook: &mut impl Hook,
) -> Vec<f64> {
    assert_eq!(scheds.len(), start_us.len(), "one start clock per schedule");
    let overhead = model.call_overhead_us;
    let mut ranks: Vec<Walker> = start_us
        .iter()
        .map(|&t| Walker { clock: t + overhead, rdv_done: f64::NEG_INFINITY, ..Walker::default() })
        .collect();
    loop {
        let (mut moved, mut running) = (false, false);
        for me in 0..scheds.len() {
            moved |= advance(scheds, model, &mut ranks, me, hook);
            running |= !ranks[me].done;
        }
        if !running {
            break;
        }
        assert!(moved, "{:?} on {} ranks deadlocks", scheds[0], scheds.len());
    }
    assert!(
        ranks.iter().all(|w| w.sent.is_empty()),
        "{:?} on {} ranks: a send is never received",
        scheds[0],
        scheds.len()
    );
    ranks.into_iter().map(|w| w.clock).collect()
}

/// Move rank `me` as far as it goes; `true` if it moved at all.
fn advance(
    scheds: &[Schedule],
    model: &CostModel,
    ranks: &mut [Walker],
    me: usize,
    hook: &mut impl Hook,
) -> bool {
    let sched = &scheds[me];
    let (rounds, pipelined) = (sched.rounds(), sched.pipelined());
    let mut moved = false;
    while !ranks[me].done {
        let w = &ranks[me];
        if w.round == rounds {
            // Pipelined sends stay in flight to here.
            ranks[me].done = ranks[me].catch_up();
            return moved || ranks[me].done;
        }
        if !w.begun || w.delivered < w.recvs {
            moved |= run_round(sched, model, ranks, me, hook);
        }
        let w = &mut ranks[me];
        if w.delivered < w.recvs || (!pipelined && !w.catch_up()) {
            return moved;
        }
        (w.round, w.begun, w.recvs, w.delivered) = (w.round + 1, false, 0, 0);
        moved = true;
    }
    moved
}

/// One pass over rank `me`'s current round: if it has not begun, stamp
/// its sends with the rank's clock and count its receives; then deliver
/// the receives still pending, in schedule order, as far as their peers
/// have sent. `true` if anything happened.
fn run_round(
    sched: &Schedule,
    model: &CostModel,
    ranks: &mut [Walker],
    me: usize,
    hook: &mut impl Hook,
) -> bool {
    let threshold = model.profile.rendezvous_threshold;
    let w = &mut ranks[me];
    let (r, fresh, skip) = (w.round, !w.begun, w.delivered);
    if fresh {
        if w.sent.is_empty() {
            w.base = r;
        }
        w.sent.push_back((w.clock, 0));
        w.begun = true;
    }
    let sent_in = r + u32::from(sched.pipelined());
    let (mut seen, mut blocked, mut delivered) = (0, false, false);
    sched.round(r, |step| {
        if fresh {
            hook.begin(me as u32, r, step);
        }
        let (from, len) = match step {
            Step::Send { to, span } => {
                if fresh {
                    let w = &mut ranks[me];
                    w.sent.back_mut().expect("stamped above").1 += 1;
                    w.rdv_out += u32::from(span.len > threshold && to as usize != me);
                }
                return;
            }
            Step::Copy { .. } => return,
            Step::Recv { from, span } => (from, span.len),
            Step::Reduce { from, dst, .. } => (from, dst.len),
        };
        seen += 1;
        if fresh {
            ranks[me].recvs += 1;
        }
        let src = from as usize;
        if blocked || seen <= skip {
            return;
        }
        if sent_in >= ranks[src].rounds_begun() {
            blocked = true;
            return;
        }
        let i = (sent_in - ranks[src].base) as usize;
        let wire = model.profile.p2p_time(from, me as u32, len).as_micros();
        let arrival = ranks[src].sent[i].0 + wire;
        let w = &mut ranks[me];
        if arrival > w.clock {
            w.clock = arrival;
        }
        w.clock += model.call_overhead_us;
        w.delivered += 1;
        let clock = w.clock;
        let s = &mut ranks[src];
        s.sent[i].1 -= 1;
        s.drop_received_rounds();
        if len > threshold && src != me {
            s.rdv_out -= 1;
            s.rdv_done = s.rdv_done.max(clock);
        }
        delivered = true;
        hook.deliver(me as u32, step);
    });
    if fresh {
        ranks[me].drop_received_rounds();
    }
    fresh || delivered
}
