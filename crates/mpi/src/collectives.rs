//! Collective operations, implemented with the textbook schedules on top
//! of the point-to-point layer:
//!
//! * `barrier` — dissemination
//! * `bcast` — binomial tree, pipelined binomial, or pipelined ring
//! * `reduce` — binomial tree with operator application
//! * `allreduce` — recursive doubling (with non-power-of-two folding)
//!   or Rabenseifner's reduce-scatter + allgather
//! * `gather` / `scatter` — linear rooted
//! * `allgather` — ring, Bruck, or recursive doubling
//! * `alltoall` — pairwise exchange or Bruck
//!
//! Multi-algorithm collectives pick their schedule through the world's
//! [`crate::coll_algo::CollTuning`] table — per (collective, communicator
//! size, payload bytes), with any cell forcible for conformance testing.
//! The selection inputs are identical at every rank (the buffer-length
//! checks guarantee matching sizes), so all ranks of one call always run
//! the same schedule. The chosen algorithm is recorded on the
//! `CollBegin` observability span.
//!
//! Because the schedules really execute (real messages between rank
//! threads), the virtual-time mode observes their true critical paths —
//! log₂(p) rounds for trees and recursive doubling, p−1 rounds for the
//! ring — which is what produces the paper-shaped scaling curves.

use crate::coll_algo::{AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo};
use crate::comm::{Comm, Source, Tag, COLLECTIVE_TAG_BASE};
use crate::datatype::{check_op, reduce_in_place, Datatype, ReduceOp};
use crate::error::MpiError;
use crate::request::Request;

const TAG_BARRIER: i32 = COLLECTIVE_TAG_BASE;
const TAG_BCAST: i32 = COLLECTIVE_TAG_BASE - 1;
const TAG_REDUCE: i32 = COLLECTIVE_TAG_BASE - 2;
const TAG_ALLREDUCE: i32 = COLLECTIVE_TAG_BASE - 3;
const TAG_GATHER: i32 = COLLECTIVE_TAG_BASE - 4;
const TAG_SCATTER: i32 = COLLECTIVE_TAG_BASE - 5;
const TAG_ALLGATHER: i32 = COLLECTIVE_TAG_BASE - 6;
const TAG_ALLTOALL: i32 = COLLECTIVE_TAG_BASE - 7;
const TAG_ALLTOALLV: i32 = COLLECTIVE_TAG_BASE - 8;
// Sub-receive tags of the selectable schedules. These stay above the
// nonblocking-collective tag region (which starts at
// `COLLECTIVE_TAG_BASE - 64`, see `crate::request`), and like every tag
// ≤ `COLLECTIVE_TAG_BASE` they are invisible to wildcard probes and
// receives.
const TAG_BCAST_SEG: i32 = COLLECTIVE_TAG_BASE - 9;
const TAG_ALLGATHER_BRUCK: i32 = COLLECTIVE_TAG_BASE - 10;
const TAG_ALLGATHER_RD: i32 = COLLECTIVE_TAG_BASE - 11;
const TAG_ALLREDUCE_RS: i32 = COLLECTIVE_TAG_BASE - 12;
const TAG_ALLREDUCE_AG: i32 = COLLECTIVE_TAG_BASE - 13;
const TAG_ALLTOALL_BRUCK: i32 = COLLECTIVE_TAG_BASE - 14;

/// Largest power of two ≤ `p`, and the remainder ranks beyond it.
fn pow2_split(p: u32) -> (u32, u32) {
    let p2 = 1u32 << (31 - p.leading_zeros());
    (p2, p - p2)
}

impl Comm {
    /// `MPI_Barrier`: dissemination algorithm, ⌈log₂ p⌉ rounds. Each
    /// round's token goes out nonblockingly: the schedule is a cycle
    /// (every rank sends before it receives), so a blocking send that
    /// parked — e.g. a token deferred to rendezvous under eager-credit
    /// exhaustion — would deadlock the whole ring.
    pub fn barrier(&self) -> Result<(), MpiError> {
        self.fault_step("barrier")?;
        let _span = self.coll_span(obs::CollKind::Barrier, obs::Algorithm::Dissemination);
        let p = self.size();
        if p == 1 {
            return Ok(());
        }
        let me = self.rank();
        let token = [1u8];
        let mut byte = [0u8; 1];
        let mut k = 1u32;
        while k < p {
            let to = (me + k) % p;
            // k < p here, so no inner reduction of k is needed.
            let from = (me + p - k) % p;
            let mut sreq = self.isend(&token, to, TAG_BARRIER)?;
            self.recv(&mut byte, Source::Rank(from), Tag::Value(TAG_BARRIER))?;
            sreq.wait()?;
            k <<= 1;
        }
        Ok(())
    }

    /// `MPI_Bcast` from `root`; `buf` is the full payload on the root and
    /// is overwritten everywhere else. The schedule — binomial tree,
    /// pipelined binomial, or pipelined ring — comes from the world's
    /// [`crate::coll_algo::CollTuning`] table.
    pub fn bcast(&self, buf: &mut [u8], root: u32) -> Result<(), MpiError> {
        self.fault_step("bcast")?;
        let p = self.size();
        if root >= p {
            return Err(MpiError::InvalidRank { rank: root, size: p });
        }
        let algo = self.tuning().select_bcast(p, buf.len());
        let _span = self.coll_span(obs::CollKind::Bcast, algo.obs());
        if p == 1 {
            return Ok(());
        }
        match algo {
            BcastAlgo::Binomial => self.bcast_binomial(buf, root),
            BcastAlgo::BinomialSegmented => self.bcast_binomial_seg(buf, root),
            BcastAlgo::Ring => self.bcast_ring(buf, root),
        }
    }

    /// Binomial-tree bcast: the whole payload moves in ⌈log₂ p⌉ rounds.
    fn bcast_binomial(&self, buf: &mut [u8], root: u32) -> Result<(), MpiError> {
        let p = self.size();
        let vr = (self.rank() + p - root) % p;

        // Receive phase: find the bit where our subtree hangs.
        let mut mask = 1u32;
        while mask < p {
            if vr & mask != 0 {
                let src = (vr - mask + root) % p;
                let st = self.recv(buf, Source::Rank(src), Tag::Value(TAG_BCAST))?;
                if st.bytes != buf.len() {
                    return Err(MpiError::CollectiveMismatch(format!(
                        "bcast buffers differ: got {} bytes, expected {}",
                        st.bytes,
                        buf.len()
                    )));
                }
                break;
            }
            mask <<= 1;
        }
        // Send phase: relay to children.
        mask >>= 1;
        while mask > 0 {
            if vr + mask < p {
                let dst = (vr + mask + root) % p;
                self.send(buf, dst, TAG_BCAST)?;
            }
            mask >>= 1;
        }
        Ok(())
    }

    /// Pipelined binomial bcast: the payload moves in `segment_bytes`
    /// pieces down the same binomial tree, a child relaying segment `s`
    /// to its subtree while segment `s+1` is still in flight to it. All
    /// relays are nonblocking and drained at the end.
    fn bcast_binomial_seg(&self, buf: &mut [u8], root: u32) -> Result<(), MpiError> {
        let p = self.size();
        let vr = (self.rank() + p - root) % p;
        let seg = self.tuning().segment_bytes.max(1);

        // Parent: the lowest set bit of vr (the root has none).
        let mut parent_mask = 0u32;
        let mut mask = 1u32;
        while mask < p {
            if vr & mask != 0 {
                parent_mask = mask;
                break;
            }
            mask <<= 1;
        }
        let parent = (parent_mask != 0).then(|| (vr - parent_mask + root) % p);
        // Children, in the order the unsegmented send phase visits them.
        let mut children = Vec::new();
        let mut m = if parent_mask == 0 { p.next_power_of_two() >> 1 } else { parent_mask >> 1 };
        while m > 0 {
            if vr + m < p {
                children.push((vr + m + root) % p);
            }
            m >>= 1;
        }

        let mut pending = Vec::new();
        let mut tail: &mut [u8] = buf;
        // A zero-length payload still runs one (empty) segment so every
        // rank exchanges the same number of messages.
        loop {
            let k = seg.min(tail.len());
            let (head, rest) = std::mem::take(&mut tail).split_at_mut(k);
            tail = rest;
            if let Some(src) = parent {
                let st = self.recv(&mut *head, Source::Rank(src), Tag::Value(TAG_BCAST_SEG))?;
                if st.bytes != head.len() {
                    return Err(MpiError::CollectiveMismatch(format!(
                        "bcast segment from {src} is {} bytes, expected {}",
                        st.bytes,
                        head.len()
                    )));
                }
            }
            let head: &[u8] = head;
            for &c in &children {
                pending.push(self.isend(head, c, TAG_BCAST_SEG)?);
            }
            if tail.is_empty() {
                break;
            }
        }
        Request::wait_all(&mut pending)?;
        Ok(())
    }

    /// Pipelined ring bcast: the payload streams root → root+1 → … in
    /// `segment_bytes` pieces. p−1+segments rounds deep, but every link
    /// carries each byte exactly once — the bandwidth-optimal regime.
    fn bcast_ring(&self, buf: &mut [u8], root: u32) -> Result<(), MpiError> {
        let p = self.size();
        let me = self.rank();
        let vr = (me + p - root) % p;
        let seg = self.tuning().segment_bytes.max(1);
        let left = (me + p - 1) % p;
        let right = (me + 1) % p;
        let last = vr == p - 1;

        let mut pending = Vec::new();
        let mut tail: &mut [u8] = buf;
        loop {
            let k = seg.min(tail.len());
            let (head, rest) = std::mem::take(&mut tail).split_at_mut(k);
            tail = rest;
            if vr != 0 {
                let st = self.recv(&mut *head, Source::Rank(left), Tag::Value(TAG_BCAST_SEG))?;
                if st.bytes != head.len() {
                    return Err(MpiError::CollectiveMismatch(format!(
                        "bcast segment from {left} is {} bytes, expected {}",
                        st.bytes,
                        head.len()
                    )));
                }
            }
            if !last {
                let head: &[u8] = head;
                pending.push(self.isend(head, right, TAG_BCAST_SEG)?);
            }
            if tail.is_empty() {
                break;
            }
        }
        Request::wait_all(&mut pending)?;
        Ok(())
    }

    /// `MPI_Reduce`: binomial tree; the root's `recv_buf` receives the
    /// elementwise reduction of every rank's `send_buf`.
    pub fn reduce(
        &self,
        send_buf: &[u8],
        recv_buf: Option<&mut [u8]>,
        dt: Datatype,
        op: ReduceOp,
        root: u32,
    ) -> Result<(), MpiError> {
        self.fault_step("reduce")?;
        check_op(dt, op)?;
        let _span = self.coll_span(obs::CollKind::Reduce, obs::Algorithm::Binomial);
        let p = self.size();
        if root >= p {
            return Err(MpiError::InvalidRank { rank: root, size: p });
        }
        let vr = (self.rank() + p - root) % p;
        let mut acc = send_buf.to_vec();

        let mut mask = 1u32;
        while mask < p {
            if vr & mask == 0 {
                let partner = vr | mask;
                if partner < p {
                    let src = (partner + root) % p;
                    let (data, _) =
                        self.recv_vec(Source::Rank(src), Tag::Value(TAG_REDUCE))?;
                    reduce_in_place(dt, op, &mut acc, &data)?;
                }
            } else {
                let dst = (vr - mask + root) % p;
                self.send(&acc, dst, TAG_REDUCE)?;
                break;
            }
            mask <<= 1;
        }

        if self.rank() == root {
            let out = recv_buf.ok_or_else(|| {
                MpiError::CollectiveMismatch("root reduce requires a receive buffer".into())
            })?;
            if out.len() != acc.len() {
                return Err(MpiError::CollectiveMismatch(format!(
                    "reduce output buffer {} bytes, data {} bytes",
                    out.len(),
                    acc.len()
                )));
            }
            out.copy_from_slice(&acc);
        }
        Ok(())
    }

    /// `MPI_Allreduce`: recursive doubling for latency-bound payloads,
    /// Rabenseifner's reduce-scatter + allgather once bandwidth
    /// dominates — selected per (p, bytes) through the world's tuning
    /// table.
    pub fn allreduce(
        &self,
        send_buf: &[u8],
        recv_buf: &mut [u8],
        dt: Datatype,
        op: ReduceOp,
    ) -> Result<(), MpiError> {
        self.fault_step("allreduce")?;
        check_op(dt, op)?;
        if recv_buf.len() != send_buf.len() {
            return Err(MpiError::CollectiveMismatch(format!(
                "allreduce buffers differ: send {}, recv {}",
                send_buf.len(),
                recv_buf.len()
            )));
        }
        let p = self.size();
        let algo = self.tuning().select_allreduce(p, send_buf.len());
        let _span = self.coll_span(obs::CollKind::Allreduce, algo.obs());
        if p == 1 {
            recv_buf.copy_from_slice(send_buf);
            return Ok(());
        }
        match algo {
            AllreduceAlgo::RecursiveDoubling => self.allreduce_rd(send_buf, recv_buf, dt, op),
            AllreduceAlgo::Rabenseifner => {
                self.allreduce_rabenseifner(send_buf, recv_buf, dt, op)
            }
        }
    }

    /// Recursive-doubling allreduce with the standard fold-in step for
    /// non-power-of-two rank counts.
    fn allreduce_rd(
        &self,
        send_buf: &[u8],
        recv_buf: &mut [u8],
        dt: Datatype,
        op: ReduceOp,
    ) -> Result<(), MpiError> {
        let p = self.size();
        let me = self.rank();
        let mut acc = send_buf.to_vec();

        let (p2, rem) = pow2_split(p);

        // Fold the first 2·rem ranks pairwise so p2 ranks remain.
        let new_rank: i64 = if me < 2 * rem {
            if me % 2 == 0 {
                self.send(&acc, me + 1, TAG_ALLREDUCE)?;
                -1
            } else {
                let (data, _) = self.recv_vec(Source::Rank(me - 1), Tag::Value(TAG_ALLREDUCE))?;
                reduce_in_place(dt, op, &mut acc, &data)?;
                (me / 2) as i64
            }
        } else {
            (me - rem) as i64
        };

        if new_rank >= 0 {
            let nr = new_rank as u32;
            let mut mask = 1u32;
            while mask < p2 {
                let partner_nr = nr ^ mask;
                let partner = if partner_nr < rem { partner_nr * 2 + 1 } else { partner_nr + rem };
                let mut incoming = vec![0u8; acc.len()];
                self.sendrecv(
                    &acc,
                    partner,
                    TAG_ALLREDUCE,
                    &mut incoming,
                    Source::Rank(partner),
                    Tag::Value(TAG_ALLREDUCE),
                )?;
                reduce_in_place(dt, op, &mut acc, &incoming)?;
                mask <<= 1;
            }
        }

        // Unfold: odd folded ranks return the result to their even partner.
        if me < 2 * rem {
            if me % 2 == 1 {
                self.send(&acc, me - 1, TAG_ALLREDUCE)?;
            } else {
                let (data, _) = self.recv_vec(Source::Rank(me + 1), Tag::Value(TAG_ALLREDUCE))?;
                acc = data;
            }
        }
        recv_buf.copy_from_slice(&acc);
        Ok(())
    }

    /// Rabenseifner's allreduce: fold to a power of two, reduce-scatter
    /// by recursive halving (each round exchanges and reduces half of the
    /// remaining chunk range), allgather the reduced chunks back by
    /// recursive doubling, then unfold. Every byte crosses each rank's
    /// link ~2·(p−1)/p times instead of log₂ p times, which is why this
    /// wins for large payloads.
    fn allreduce_rabenseifner(
        &self,
        send_buf: &[u8],
        recv_buf: &mut [u8],
        dt: Datatype,
        op: ReduceOp,
    ) -> Result<(), MpiError> {
        let elem = dt.size();
        if send_buf.len() % elem != 0 {
            return Err(MpiError::BadCount { bytes: send_buf.len(), type_size: elem });
        }
        let p = self.size();
        let me = self.rank();
        let (p2, rem) = pow2_split(p);
        let mut acc = send_buf.to_vec();

        // Byte offsets of the p2 chunks (balanced element split; offs has
        // p2+1 entries so chunk i spans offs[i]..offs[i+1]).
        let n_elems = send_buf.len() / elem;
        let base = n_elems / p2 as usize;
        let extra = n_elems % p2 as usize;
        let mut offs = Vec::with_capacity(p2 as usize + 1);
        let mut cum = 0usize;
        offs.push(0usize);
        for i in 0..p2 as usize {
            cum += base + usize::from(i < extra);
            offs.push(cum * elem);
        }

        // Fold the first 2·rem ranks pairwise (same mapping as recursive
        // doubling) so p2 ranks remain.
        let new_rank: i64 = if me < 2 * rem {
            if me % 2 == 0 {
                self.send(&acc, me + 1, TAG_ALLREDUCE_RS)?;
                -1
            } else {
                let (data, _) =
                    self.recv_vec(Source::Rank(me - 1), Tag::Value(TAG_ALLREDUCE_RS))?;
                reduce_in_place(dt, op, &mut acc, &data)?;
                (me / 2) as i64
            }
        } else {
            (me - rem) as i64
        };

        if new_rank < 0 {
            // Folded-out even rank: wait for the finished vector.
            let (data, _) = self.recv_vec(Source::Rank(me + 1), Tag::Value(TAG_ALLREDUCE_AG))?;
            if data.len() != recv_buf.len() {
                return Err(MpiError::CollectiveMismatch(format!(
                    "allreduce result is {} bytes, expected {}",
                    data.len(),
                    recv_buf.len()
                )));
            }
            recv_buf.copy_from_slice(&data);
            return Ok(());
        }
        let nr = new_rank as usize;
        let comm_rank =
            |q: usize| if (q as u32) < rem { q as u32 * 2 + 1 } else { q as u32 + rem };

        // Reduce-scatter by recursive halving: each round keeps (and
        // reduces) the half of the chunk range containing our own chunk,
        // sending the other half to the partner across the range.
        let mut lo = 0usize;
        let mut hi = p2 as usize;
        while hi - lo > 1 {
            let half = (hi - lo) / 2;
            let mid = lo + half;
            let partner = comm_rank(nr ^ half);
            let (keep_lo, keep_hi, send_lo, send_hi) =
                if nr < mid { (lo, mid, mid, hi) } else { (mid, hi, lo, mid) };
            let out = acc[offs[send_lo]..offs[send_hi]].to_vec();
            let mut inc = vec![0u8; offs[keep_hi] - offs[keep_lo]];
            self.sendrecv(
                &out,
                partner,
                TAG_ALLREDUCE_RS,
                &mut inc,
                Source::Rank(partner),
                Tag::Value(TAG_ALLREDUCE_RS),
            )?;
            reduce_in_place(dt, op, &mut acc[offs[keep_lo]..offs[keep_hi]], &inc)?;
            if nr < mid {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        debug_assert_eq!(lo, nr);

        // Allgather the chunks back by recursive doubling: the owned
        // aligned chunk range doubles each round.
        let mut width = 1usize;
        while width < p2 as usize {
            let partner_nr = nr ^ width;
            let partner = comm_rank(partner_nr);
            let my_lo = nr & !(width - 1);
            let pa_lo = partner_nr & !(width - 1);
            let out = acc[offs[my_lo]..offs[my_lo + width]].to_vec();
            let mut inc = vec![0u8; offs[pa_lo + width] - offs[pa_lo]];
            self.sendrecv(
                &out,
                partner,
                TAG_ALLREDUCE_AG,
                &mut inc,
                Source::Rank(partner),
                Tag::Value(TAG_ALLREDUCE_AG),
            )?;
            acc[offs[pa_lo]..offs[pa_lo + width]].copy_from_slice(&inc);
            width <<= 1;
        }

        // Unfold: odd folded ranks return the result to their even partner.
        if me < 2 * rem && me % 2 == 1 {
            self.send(&acc, me - 1, TAG_ALLREDUCE_AG)?;
        }
        recv_buf.copy_from_slice(&acc);
        Ok(())
    }

    /// `MPI_Gather`: every rank contributes `send_buf`; the root's
    /// `recv_buf` receives all contributions concatenated in rank order.
    pub fn gather(
        &self,
        send_buf: &[u8],
        recv_buf: Option<&mut [u8]>,
        root: u32,
    ) -> Result<(), MpiError> {
        self.fault_step("gather")?;
        let _span = self.coll_span(obs::CollKind::Gather, obs::Algorithm::LinearRoot);
        let p = self.size();
        if root >= p {
            return Err(MpiError::InvalidRank { rank: root, size: p });
        }
        if self.rank() == root {
            let out = recv_buf.ok_or_else(|| {
                MpiError::CollectiveMismatch("root gather requires a receive buffer".into())
            })?;
            let n = send_buf.len();
            if out.len() != n * p as usize {
                return Err(MpiError::CollectiveMismatch(format!(
                    "gather output is {} bytes, expected {}",
                    out.len(),
                    n * p as usize
                )));
            }
            out[root as usize * n..root as usize * n + n].copy_from_slice(send_buf);
            // Receive from each specific source (wildcard receives could
            // match a later gather's message from a fast rank while this
            // gather is still collecting from slow ranks), straight into
            // the rank's slot of the output buffer — rendezvous blocks
            // land with a single copy.
            for r in 0..p {
                if r == root {
                    continue;
                }
                let off = r as usize * n;
                let st =
                    self.recv(&mut out[off..off + n], Source::Rank(r), Tag::Value(TAG_GATHER))?;
                if st.bytes != n {
                    return Err(MpiError::CollectiveMismatch(format!(
                        "gather block from {r} is {} bytes, expected {n}",
                        st.bytes
                    )));
                }
            }
        } else {
            self.send(send_buf, root, TAG_GATHER)?;
        }
        Ok(())
    }

    /// `MPI_Scatter`: the root's `send_buf` holds `p` equal blocks; each
    /// rank receives its block in `recv_buf`.
    pub fn scatter(
        &self,
        send_buf: Option<&[u8]>,
        recv_buf: &mut [u8],
        root: u32,
    ) -> Result<(), MpiError> {
        self.fault_step("scatter")?;
        let _span = self.coll_span(obs::CollKind::Scatter, obs::Algorithm::LinearRoot);
        let p = self.size();
        if root >= p {
            return Err(MpiError::InvalidRank { rank: root, size: p });
        }
        let n = recv_buf.len();
        if self.rank() == root {
            let src = send_buf.ok_or_else(|| {
                MpiError::CollectiveMismatch("root scatter requires a send buffer".into())
            })?;
            if src.len() != n * p as usize {
                return Err(MpiError::CollectiveMismatch(format!(
                    "scatter input is {} bytes, expected {}",
                    src.len(),
                    n * p as usize
                )));
            }
            // Post every block nonblockingly so slow children drain the
            // root's rendezvous handshakes concurrently.
            let mut pending = Vec::with_capacity(p as usize - 1);
            for r in 0..p {
                if r == root {
                    continue;
                }
                let off = r as usize * n;
                pending.push(self.isend(&src[off..off + n], r, TAG_SCATTER)?);
            }
            recv_buf.copy_from_slice(&src[root as usize * n..root as usize * n + n]);
            crate::request::Request::wait_all(&mut pending)?;
        } else {
            self.recv(recv_buf, Source::Rank(root), Tag::Value(TAG_SCATTER))?;
        }
        Ok(())
    }

    /// `MPI_Allgather`: ring, Bruck, or recursive doubling, selected per
    /// (p, block bytes) through the world's tuning table. Every schedule
    /// leaves rank `r`'s contribution in block `r` of `recv_buf`.
    pub fn allgather(&self, send_buf: &[u8], recv_buf: &mut [u8]) -> Result<(), MpiError> {
        self.fault_step("allgather")?;
        let p = self.size() as usize;
        let n = send_buf.len();
        if recv_buf.len() != n * p {
            return Err(MpiError::CollectiveMismatch(format!(
                "allgather output is {} bytes, expected {}",
                recv_buf.len(),
                n * p
            )));
        }
        let algo = self.tuning().select_allgather(self.size(), n);
        let _span = self.coll_span(obs::CollKind::Allgather, algo.obs());
        let me = self.rank() as usize;
        recv_buf[me * n..me * n + n].copy_from_slice(send_buf);
        if p == 1 {
            return Ok(());
        }
        match algo {
            AllgatherAlgo::Ring => self.allgather_ring(recv_buf, n),
            AllgatherAlgo::Bruck => self.allgather_bruck(recv_buf, n),
            AllgatherAlgo::RecursiveDoubling => self.allgather_rd(recv_buf, n),
        }
    }

    /// Ring allgather, p−1 rounds of one block. `recv_buf` already holds
    /// our own block.
    fn allgather_ring(&self, recv_buf: &mut [u8], n: usize) -> Result<(), MpiError> {
        let p = self.size() as usize;
        let me = self.rank() as usize;
        let right = ((me + 1) % p) as u32;
        let left = Source::Rank(((me + p - 1) % p) as u32);
        for step in 0..p - 1 {
            // Forward the block that arrived `step` hops ago.
            let send_block = (me + p - step) % p;
            let recv_block = (me + p - step - 1) % p;
            let outgoing = recv_buf[send_block * n..send_block * n + n].to_vec();
            let mut incoming = vec![0u8; n];
            self.sendrecv(
                &outgoing,
                right,
                TAG_ALLGATHER,
                &mut incoming,
                left,
                Tag::Value(TAG_ALLGATHER),
            )?;
            recv_buf[recv_block * n..recv_block * n + n].copy_from_slice(&incoming);
        }
        Ok(())
    }

    /// Bruck allgather: ⌈log₂ p⌉ rounds in a rotated staging buffer where
    /// slot `i` holds rank `(me+i) mod p`'s block; each round sends the
    /// first `min(k, p−k)` slots k ranks backward and doubles the carried
    /// set, then the buffer is unrotated into place. Works for any p.
    fn allgather_bruck(&self, recv_buf: &mut [u8], n: usize) -> Result<(), MpiError> {
        let p = self.size() as usize;
        let me = self.rank() as usize;
        let mut tmp = vec![0u8; n * p];
        tmp[..n].copy_from_slice(&recv_buf[me * n..me * n + n]);
        let mut k = 1usize;
        while k < p {
            let cnt = k.min(p - k);
            let dst = ((me + p - k) % p) as u32;
            let src = ((me + k) % p) as u32;
            let (head, rest) = tmp.split_at_mut(k * n);
            self.sendrecv(
                &head[..cnt * n],
                dst,
                TAG_ALLGATHER_BRUCK,
                &mut rest[..cnt * n],
                Source::Rank(src),
                Tag::Value(TAG_ALLGATHER_BRUCK),
            )?;
            k <<= 1;
        }
        for i in 0..p {
            let j = (me + i) % p;
            recv_buf[j * n..j * n + n].copy_from_slice(&tmp[i * n..i * n + n]);
        }
        Ok(())
    }

    /// Recursive-doubling allgather. For non-power-of-two p the last
    /// `rem = p − p2` ranks fold their block into rank `me − p2` up
    /// front and receive the finished buffer at the end; the low `p2`
    /// ranks run recursive doubling where new-rank `q` carries block `q`
    /// plus block `q + p2` when `q < rem`, so each round exchanges the
    /// structurally-known held set of the aligned window.
    fn allgather_rd(&self, recv_buf: &mut [u8], n: usize) -> Result<(), MpiError> {
        let p = self.size() as usize;
        let me = self.rank() as usize;
        let (p2, rem) = pow2_split(p as u32);
        let (p2, rem) = (p2 as usize, rem as usize);

        // The blocks held by the aligned window [start, start+width) of
        // low ranks, in canonical order.
        let blocks = |start: usize, width: usize| -> Vec<usize> {
            let mut v = Vec::with_capacity(2 * width);
            for b in start..start + width {
                v.push(b);
                if b < rem {
                    v.push(b + p2);
                }
            }
            v
        };

        if me >= p2 {
            // Folded-out rank: hand our block down, then take the result.
            let low = (me - p2) as u32;
            self.send(&recv_buf[me * n..me * n + n], low, TAG_ALLGATHER_RD)?;
            let st = self.recv(recv_buf, Source::Rank(low), Tag::Value(TAG_ALLGATHER_RD))?;
            if st.bytes != n * p {
                return Err(MpiError::CollectiveMismatch(format!(
                    "allgather result is {} bytes, expected {}",
                    st.bytes,
                    n * p
                )));
            }
            return Ok(());
        }
        if me < rem {
            let high = (me + p2) as u32;
            let off = (me + p2) * n;
            let st = self.recv(
                &mut recv_buf[off..off + n],
                Source::Rank(high),
                Tag::Value(TAG_ALLGATHER_RD),
            )?;
            if st.bytes != n {
                return Err(MpiError::CollectiveMismatch(format!(
                    "allgather block from {high} is {} bytes, expected {n}",
                    st.bytes
                )));
            }
        }

        let mut width = 1usize;
        while width < p2 {
            let partner = me ^ width;
            let mine = blocks(me & !(width - 1), width);
            let theirs = blocks(partner & !(width - 1), width);
            let mut out = Vec::with_capacity(mine.len() * n);
            for &b in &mine {
                out.extend_from_slice(&recv_buf[b * n..b * n + n]);
            }
            let mut inc = vec![0u8; theirs.len() * n];
            self.sendrecv(
                &out,
                partner as u32,
                TAG_ALLGATHER_RD,
                &mut inc,
                Source::Rank(partner as u32),
                Tag::Value(TAG_ALLGATHER_RD),
            )?;
            for (i, &b) in theirs.iter().enumerate() {
                recv_buf[b * n..b * n + n].copy_from_slice(&inc[i * n..i * n + n]);
            }
            width <<= 1;
        }

        // Unfold: ship the finished buffer up to the folded partner.
        if me < rem {
            self.send(recv_buf, (me + p2) as u32, TAG_ALLGATHER_RD)?;
        }
        Ok(())
    }

    /// `MPI_Alltoall`: each rank sends block `r` of `send_buf` to rank `r`
    /// and receives block `s` of `recv_buf` from rank `s`. Pairwise
    /// exchange or Bruck, selected per (p, block bytes) through the
    /// world's tuning table.
    pub fn alltoall(&self, send_buf: &[u8], recv_buf: &mut [u8]) -> Result<(), MpiError> {
        self.fault_step("alltoall")?;
        let p = self.size() as usize;
        if send_buf.len() != recv_buf.len() || send_buf.len() % p != 0 {
            return Err(MpiError::CollectiveMismatch(format!(
                "alltoall buffers must be equal and divisible by p: {} vs {}",
                send_buf.len(),
                recv_buf.len()
            )));
        }
        let n = send_buf.len() / p;
        let algo = self.tuning().select_alltoall(self.size(), n);
        let _span = self.coll_span(obs::CollKind::Alltoall, algo.obs());
        if p == 1 {
            recv_buf.copy_from_slice(send_buf);
            return Ok(());
        }
        match algo {
            AlltoallAlgo::Pairwise => self.alltoall_pairwise(send_buf, recv_buf, n),
            AlltoallAlgo::Bruck => self.alltoall_bruck(send_buf, recv_buf, n),
        }
    }

    /// Pairwise alltoall: p−1 nonblocking sends plus p−1 specific-source
    /// receives straight into place.
    fn alltoall_pairwise(
        &self,
        send_buf: &[u8],
        recv_buf: &mut [u8],
        n: usize,
    ) -> Result<(), MpiError> {
        let p = self.size() as usize;
        let me = self.rank() as usize;
        recv_buf[me * n..me * n + n].copy_from_slice(&send_buf[me * n..me * n + n]);
        // Post all sends nonblockingly (every rank is about to sit in its
        // receive loop, so blocking rendezvous sends here would deadlock),
        // then collect from each specific source (wildcards could
        // cross-match a subsequent alltoall).
        let mut pending = Vec::with_capacity(p - 1);
        for i in 1..p {
            let dst = (me + i) % p;
            pending.push(self.isend(&send_buf[dst * n..dst * n + n], dst as u32, TAG_ALLTOALL)?);
        }
        for i in 1..p {
            let src = (me + p - i) % p;
            let off = src * n;
            // Receive straight into place: rendezvous blocks land with a
            // single sender-buffer → recv_buf copy.
            let st = self.recv(
                &mut recv_buf[off..off + n],
                Source::Rank(src as u32),
                Tag::Value(TAG_ALLTOALL),
            )?;
            if st.bytes != n {
                return Err(MpiError::CollectiveMismatch(format!(
                    "alltoall block from {src} is {} bytes, expected {n}",
                    st.bytes
                )));
            }
        }
        crate::request::Request::wait_all(&mut pending)?;
        Ok(())
    }

    /// Bruck alltoall: rotate block `j` of `send_buf` so slot `j` holds
    /// the block for rank `(me+j) mod p`, then ⌈log₂ p⌉ store-and-forward
    /// rounds — round k ships every slot whose index has bit k set to
    /// rank `me+k`, so a block bound `j` ranks forward travels exactly
    /// the hops in `j`'s binary expansion — then unrotate into source
    /// order. Each byte moves up to log₂ p times, but only log₂ p
    /// messages go out instead of p−1.
    fn alltoall_bruck(
        &self,
        send_buf: &[u8],
        recv_buf: &mut [u8],
        n: usize,
    ) -> Result<(), MpiError> {
        let p = self.size() as usize;
        let me = self.rank() as usize;
        let mut tmp = vec![0u8; n * p];
        for j in 0..p {
            let b = (me + j) % p;
            tmp[j * n..j * n + n].copy_from_slice(&send_buf[b * n..b * n + n]);
        }
        let mut k = 1usize;
        while k < p {
            let dst = ((me + k) % p) as u32;
            let src = ((me + p - k) % p) as u32;
            let idx: Vec<usize> = (0..p).filter(|j| j & k != 0).collect();
            let mut out = Vec::with_capacity(idx.len() * n);
            for &j in &idx {
                out.extend_from_slice(&tmp[j * n..j * n + n]);
            }
            let mut inc = vec![0u8; idx.len() * n];
            self.sendrecv(
                &out,
                dst,
                TAG_ALLTOALL_BRUCK,
                &mut inc,
                Source::Rank(src),
                Tag::Value(TAG_ALLTOALL_BRUCK),
            )?;
            for (i, &j) in idx.iter().enumerate() {
                tmp[j * n..j * n + n].copy_from_slice(&inc[i * n..i * n + n]);
            }
            k <<= 1;
        }
        // Slot j now holds the block bound for us from rank me−j; file
        // each one under its source.
        for s in 0..p {
            let j = (me + p - s) % p;
            recv_buf[s * n..s * n + n].copy_from_slice(&tmp[j * n..j * n + n]);
        }
        Ok(())
    }

    /// `MPI_Alltoallv`: the vector all-to-all. Counts and displacements
    /// are in bytes; every pair exchanges exactly one (possibly empty)
    /// block, like [`Comm::alltoall`].
    #[allow(clippy::too_many_arguments)]
    pub fn alltoallv(
        &self,
        send_buf: &[u8],
        send_counts: &[usize],
        send_displs: &[usize],
        recv_buf: &mut [u8],
        recv_counts: &[usize],
        recv_displs: &[usize],
    ) -> Result<(), MpiError> {
        self.fault_step("alltoallv")?;
        let _span = self.coll_span(obs::CollKind::Alltoallv, obs::Algorithm::Pairwise);
        let p = self.size() as usize;
        if send_counts.len() != p
            || send_displs.len() != p
            || recv_counts.len() != p
            || recv_displs.len() != p
        {
            return Err(MpiError::CollectiveMismatch(format!(
                "alltoallv takes {p} counts/displacements per array"
            )));
        }
        for r in 0..p {
            if send_displs[r] + send_counts[r] > send_buf.len()
                || recv_displs[r] + recv_counts[r] > recv_buf.len()
            {
                return Err(MpiError::CollectiveMismatch(format!(
                    "alltoallv block {r} exceeds its buffer"
                )));
            }
        }
        let me = self.rank() as usize;
        if send_counts[me] != recv_counts[me] {
            return Err(MpiError::CollectiveMismatch(format!(
                "alltoallv self block differs: send {} recv {}",
                send_counts[me], recv_counts[me]
            )));
        }
        recv_buf[recv_displs[me]..recv_displs[me] + recv_counts[me]]
            .copy_from_slice(&send_buf[send_displs[me]..send_displs[me] + send_counts[me]]);
        // Post all sends nonblockingly (as alltoall does), then collect
        // from each specific source.
        let mut pending = Vec::with_capacity(p - 1);
        for i in 1..p {
            let dst = (me + i) % p;
            pending.push(self.isend(
                &send_buf[send_displs[dst]..send_displs[dst] + send_counts[dst]],
                dst as u32,
                TAG_ALLTOALLV,
            )?);
        }
        for i in 1..p {
            let src = (me + p - i) % p;
            let st = self.recv(
                &mut recv_buf[recv_displs[src]..recv_displs[src] + recv_counts[src]],
                Source::Rank(src as u32),
                Tag::Value(TAG_ALLTOALLV),
            )?;
            if st.bytes != recv_counts[src] {
                return Err(MpiError::CollectiveMismatch(format!(
                    "alltoallv block from {src} is {} bytes, expected {}",
                    st.bytes, recv_counts[src]
                )));
            }
        }
        crate::request::Request::wait_all(&mut pending)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coll_algo::CollTuning;
    use crate::world::{run_world, run_world_configured, WorldConfig};
    use crate::ClockMode;

    fn forced(t: CollTuning) -> WorldConfig {
        WorldConfig::new(ClockMode::Real).with_coll_tuning(t)
    }

    #[test]
    fn every_bcast_schedule_delivers() {
        for algo in BcastAlgo::ALL {
            for p in [1, 2, 3, 5, 8] {
                // A 7-byte segment over a 33-byte payload exercises the
                // pipelines with a ragged final segment.
                let cfg =
                    forced(CollTuning::new().force_bcast(algo).with_segment_bytes(7));
                run_world_configured(p, cfg, move |comm| {
                    let mut buf =
                        if comm.rank() == 1 % p { vec![0xAB; 33] } else { vec![0; 33] };
                    comm.bcast(&mut buf, 1 % p).unwrap();
                    assert!(
                        buf.iter().all(|&b| b == 0xAB),
                        "{algo:?} rank {} p {p}",
                        comm.rank()
                    );
                });
            }
        }
    }

    #[test]
    fn every_allgather_schedule_matches_oracle() {
        for algo in AllgatherAlgo::ALL {
            for p in [1, 2, 3, 4, 7, 8] {
                let cfg = forced(CollTuning::new().force_allgather(algo));
                run_world_configured(p, cfg, move |comm| {
                    let mine = [comm.rank() as u8 + 10, comm.rank() as u8 + 100];
                    let mut out = vec![0u8; 2 * p as usize];
                    comm.allgather(&mine, &mut out).unwrap();
                    for r in 0..p as usize {
                        assert_eq!(out[2 * r], r as u8 + 10, "{algo:?} p {p}");
                        assert_eq!(out[2 * r + 1], r as u8 + 100, "{algo:?} p {p}");
                    }
                });
            }
        }
    }

    #[test]
    fn every_allreduce_schedule_sums() {
        for algo in AllreduceAlgo::ALL {
            // Odd sizes exercise both fold-in paths; 5 ints exercise the
            // uneven Rabenseifner chunk split (5 elements over 4 chunks).
            for p in [1, 2, 3, 5, 7, 8] {
                let cfg = forced(CollTuning::new().force_allreduce(algo));
                run_world_configured(p, cfg, move |comm| {
                    let mut send = Vec::new();
                    for i in 0..5i32 {
                        send.extend_from_slice(&(comm.rank() as i32 + i).to_le_bytes());
                    }
                    let mut recv = vec![0u8; 20];
                    comm.allreduce(&send, &mut recv, Datatype::Int, ReduceOp::Sum)
                        .unwrap();
                    for i in 0..5i32 {
                        let got = i32::from_le_bytes(
                            recv[4 * i as usize..4 * i as usize + 4].try_into().unwrap(),
                        );
                        let exp: i32 = (0..p as i32).map(|r| r + i).sum();
                        assert_eq!(got, exp, "{algo:?} p {p} elem {i}");
                    }
                });
            }
        }
    }

    #[test]
    fn every_alltoall_schedule_transposes() {
        for algo in AlltoallAlgo::ALL {
            for p in [1, 2, 3, 5, 8] {
                let cfg = forced(CollTuning::new().force_alltoall(algo));
                run_world_configured(p, cfg, move |comm| {
                    let me = comm.rank() as u8;
                    let mut send = Vec::new();
                    for r in 0..p as u8 {
                        send.extend_from_slice(&[me, r]);
                    }
                    let mut recv = vec![0u8; 2 * p as usize];
                    comm.alltoall(&send, &mut recv).unwrap();
                    for r in 0..p as usize {
                        assert_eq!(recv[2 * r], r as u8, "{algo:?} p {p}");
                        assert_eq!(recv[2 * r + 1], me, "{algo:?} p {p}");
                    }
                });
            }
        }
    }

    #[test]
    fn barrier_completes_at_various_sizes() {
        for p in [1, 2, 3, 4, 7, 8] {
            run_world(p, |comm| {
                for _ in 0..3 {
                    comm.barrier().unwrap();
                }
            });
        }
    }

    #[test]
    fn bcast_delivers_to_all_from_every_root() {
        for p in [1, 2, 3, 5, 8] {
            for root in 0..p {
                run_world(p, move |comm| {
                    let mut buf = if comm.rank() == root {
                        vec![0xAB; 33]
                    } else {
                        vec![0; 33]
                    };
                    comm.bcast(&mut buf, root).unwrap();
                    assert!(buf.iter().all(|&b| b == 0xAB), "rank {}", comm.rank());
                });
            }
        }
    }

    #[test]
    fn reduce_sums_ints_at_root() {
        for p in [2, 3, 4, 6] {
            run_world(p, move |comm| {
                let v = (comm.rank() as i32 + 1).to_le_bytes();
                let mut out = [0u8; 4];
                let root = p - 1;
                comm.reduce(
                    &v,
                    if comm.rank() == root { Some(&mut out) } else { None },
                    Datatype::Int,
                    ReduceOp::Sum,
                    root,
                )
                .unwrap();
                if comm.rank() == root {
                    let expected: i32 = (1..=p as i32).sum();
                    assert_eq!(i32::from_le_bytes(out), expected);
                }
            });
        }
    }

    #[test]
    fn allreduce_matches_oracle_at_odd_sizes() {
        // Exercises the non-power-of-two folding path.
        for p in [1, 2, 3, 5, 6, 7, 8] {
            run_world(p, move |comm| {
                let mine = [comm.rank() as f64 + 0.5, -(comm.rank() as f64)];
                let mut send = Vec::new();
                for v in mine {
                    send.extend_from_slice(&v.to_le_bytes());
                }
                let mut recv = vec![0u8; 16];
                comm.allreduce(&send, &mut recv, Datatype::Double, ReduceOp::Sum).unwrap();
                let got0 = f64::from_le_bytes(recv[0..8].try_into().unwrap());
                let got1 = f64::from_le_bytes(recv[8..16].try_into().unwrap());
                let exp0: f64 = (0..p).map(|r| r as f64 + 0.5).sum();
                let exp1: f64 = (0..p).map(|r| -(r as f64)).sum();
                assert!((got0 - exp0).abs() < 1e-12, "rank {} p {}", comm.rank(), p);
                assert!((got1 - exp1).abs() < 1e-12);
            });
        }
    }

    #[test]
    fn allreduce_max() {
        run_world(5, |comm| {
            let v = ((comm.rank() as i32 * 7) % 5).to_le_bytes();
            let mut out = [0u8; 4];
            comm.allreduce(&v, &mut out, Datatype::Int, ReduceOp::Max).unwrap();
            assert_eq!(i32::from_le_bytes(out), 4);
        });
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        run_world(4, |comm| {
            let mine = [comm.rank() as u8; 3];
            let mut out = vec![0u8; 12];
            comm.gather(&mine, if comm.rank() == 2 { Some(&mut out) } else { None }, 2)
                .unwrap();
            if comm.rank() == 2 {
                assert_eq!(out, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
            }
        });
    }

    #[test]
    fn scatter_distributes_blocks() {
        run_world(4, |comm| {
            let src: Vec<u8> = (0..8).collect();
            let mut mine = [0u8; 2];
            comm.scatter(
                if comm.rank() == 0 { Some(&src[..]) } else { None },
                &mut mine,
                0,
            )
            .unwrap();
            assert_eq!(mine, [comm.rank() as u8 * 2, comm.rank() as u8 * 2 + 1]);
        });
    }

    #[test]
    fn allgather_ring_matches_oracle() {
        for p in [1, 2, 3, 4, 7] {
            run_world(p, move |comm| {
                let mine = [comm.rank() as u8 + 10, comm.rank() as u8 + 100];
                let mut out = vec![0u8; 2 * p as usize];
                comm.allgather(&mine, &mut out).unwrap();
                for r in 0..p as usize {
                    assert_eq!(out[2 * r], r as u8 + 10);
                    assert_eq!(out[2 * r + 1], r as u8 + 100);
                }
            });
        }
    }

    #[test]
    fn alltoall_transposes() {
        for p in [2, 3, 5] {
            run_world(p, move |comm| {
                let me = comm.rank() as u8;
                // Block sent to rank r encodes (me, r).
                let mut send = Vec::new();
                for r in 0..p as u8 {
                    send.extend_from_slice(&[me, r]);
                }
                let mut recv = vec![0u8; 2 * p as usize];
                comm.alltoall(&send, &mut recv).unwrap();
                for r in 0..p as usize {
                    assert_eq!(recv[2 * r], r as u8, "block from rank {r}");
                    assert_eq!(recv[2 * r + 1], me);
                }
            });
        }
    }

    #[test]
    fn bcast_mismatched_sizes_detected() {
        run_world(2, |comm| {
            let mut buf = if comm.rank() == 0 { vec![1u8; 8] } else { vec![0u8; 4] };
            let r = comm.bcast(&mut buf, 0);
            if comm.rank() == 1 {
                assert!(r.is_err());
            }
        });
    }

    #[test]
    fn collectives_on_split_subcommunicators() {
        run_world(6, |comm| {
            let sub = comm.split((comm.rank() % 2) as i32, 0).unwrap().unwrap();
            let v = 1i32.to_le_bytes();
            let mut out = [0u8; 4];
            sub.allreduce(&v, &mut out, Datatype::Int, ReduceOp::Sum).unwrap();
            assert_eq!(i32::from_le_bytes(out), 3);
        });
    }
}
