//! NAS Parallel Benchmarks: IS — bucketed parallel integer sort (§4.2,
//! Figure 5a left).
//!
//! Each rank generates pseudo-random keys, histograms them into one bucket
//! per rank, exchanges bucket counts and then bucket contents with
//! `MPI_Alltoall`, and counting-sorts its received key range. The metric
//! is millions of keys ranked per second (Mop/s total), as NPB reports.
//!
//! Substitution note: NPB IS uses `MPI_Alltoallv`; this
//! implementation pads buckets to the global maximum bucket size and uses
//! fixed-size `MPI_Alltoall` (the embedder's MPI-2.2 subset), preserving
//! the communication pattern.

use mpi_substrate::{Comm, Datatype, ReduceOp};
use wasm_engine::dsl::*;
use wasm_engine::types::ValType;
use wasm_engine::{encode_module, ModuleBuilder};

use crate::guest::{layout, MpiImports, MPI_INT, MPI_MAX};

/// IS problem parameters. NPB class S ≈ 64Ki keys total; class C ≈ 512Mi.
/// Scale per available time budget.
#[derive(Debug, Clone, Copy)]
pub struct IsParams {
    pub keys_per_rank: u32,
    /// Key range (power of two).
    pub max_key: u32,
    pub iters: u32,
}

impl Default for IsParams {
    fn default() -> Self {
        IsParams { keys_per_rank: 4096, max_key: 1 << 14, iters: 3 }
    }
}

/// Guest LCG matching the native one below.
const LCG_A: i32 = 1103515245;
const LCG_C: i32 = 12345;

/// Build the IS Wasm guest. Reports `(0, elapsed_seconds)`,
/// `(1, keys_verified_locally)`, `(2, global_keys_total)`.
pub fn build_guest(p: IsParams) -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    b.name("npb-is");
    b.memory(layout::PAGES, Some(layout::PAGES));
    let mpi = MpiImports::declare(&mut b);

    let keys_n = p.keys_per_rank as i32;
    let max_key = p.max_key as i32;

    // Memory layout (i32 elements unless noted).
    let keys = layout::HEAP; // keys_n i32
    let counts = keys + keys_n * 4; // per-bucket counts (size entries)
    let recv_counts = counts + 4096; // counts from every rank
    let fill = recv_counts + 4096; // per-bucket fill cursors
    let sendbuf = fill + 4096;
    // recvbuf / histogram computed at runtime offsets after sendbuf; the
    // guest derives them from bucket_cap (dynamic), with generous spacing.
    let recvbuf_gap: i32 = 8 << 20;
    let hist_gap: i32 = 16 << 20;

    b.func("_start", vec![], vec![], move |f| {
        let rank = Var::new(f, ValType::I32);
        let size = Var::new(f, ValType::I32);
        let i = Var::new(f, ValType::I32);
        let it = Var::new(f, ValType::I32);
        let seed = Var::new(f, ValType::I32);
        let key = Var::new(f, ValType::I32);
        let bucket = Var::new(f, ValType::I32);
        let cap = Var::new(f, ValType::I32);
        let t0 = Var::new(f, ValType::F64);
        let verified = Var::new(f, ValType::I32);
        let recvbuf = Var::new(f, ValType::I32);
        let hist = Var::new(f, ValType::I32);
        let range_lo = Var::new(f, ValType::I32);
        let range_size = Var::new(f, ValType::I32);
        let total = Var::new(f, ValType::I32);

        let a4 = |base: Expr, idx: Expr| base + idx.shl(int(2));

        let mut stmts = vec![mpi.init()];
        stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
        stmts.extend(mpi.load_size(layout::SCRATCH + 8, size));
        stmts.extend([
            recvbuf.set(int(sendbuf + recvbuf_gap)),
            hist.set(int(sendbuf + hist_gap)),
            range_size.set(int(max_key) / size.get()),
            range_lo.set(rank.get() * range_size.get()),
            verified.set(int(0)),
            total.set(int(0)),
            mpi.barrier_world(),
            t0.set(mpi.wtime()),
        ]);

        let per_iter: Vec<Stmt> = vec![
            // 1. Key generation (rank- and iteration-seeded LCG).
            seed.set(int(0x2545) + rank.get() * int(7919) + it.get() * int(104729)),
            for_range(i, int(0), int(keys_n), &[
                seed.set(seed.get() * int(LCG_A) + int(LCG_C)),
                key.set(seed.get().shr_u(int(8)).rem_u(int(max_key))),
                store(a4(int(keys), i.get()), 0, key.get()),
            ]),
            // 2. Histogram into one bucket per rank.
            for_range(i, int(0), int(64), &[
                store(a4(int(counts), i.get()), 0, int(0)),
            ]),
            for_range(i, int(0), int(keys_n), &[
                bucket.set(a4(int(keys), i.get()).load(ValType::I32, 0) / range_size.get()),
                store(
                    a4(int(counts), bucket.get()),
                    0,
                    a4(int(counts), bucket.get()).load(ValType::I32, 0) + int(1),
                ),
            ]),
            // 3. Global max bucket size -> padded bucket capacity.
            store(int(layout::SCRATCH), 0, int(0)),
            for_range(i, int(0), size.get(), &[if_then(
                a4(int(counts), i.get())
                    .load(ValType::I32, 0)
                    .gt(int(layout::SCRATCH).load(ValType::I32, 0)),
                &[store(
                    int(layout::SCRATCH),
                    0,
                    a4(int(counts), i.get()).load(ValType::I32, 0),
                )],
            )]),
            mpi.allreduce(
                int(layout::SCRATCH),
                int(layout::SCRATCH + 8),
                int(1),
                MPI_INT,
                MPI_MAX,
            ),
            cap.set(int(layout::SCRATCH + 8).load(ValType::I32, 0)),
            // Exchange counts so receivers can skip padding exactly.
            mpi.alltoall(int(counts), int(1), MPI_INT, int(recv_counts)),
            // 4. Pack keys into per-bucket slots of `cap` entries.
            for_range(i, int(0), size.get(), &[store(a4(int(fill), i.get()), 0, int(0))]),
            for_range(i, int(0), int(keys_n), &[
                key.set(a4(int(keys), i.get()).load(ValType::I32, 0)),
                bucket.set(key.get() / range_size.get()),
                store(
                    a4(
                        int(sendbuf),
                        bucket.get() * cap.get() + a4(int(fill), bucket.get()).load(ValType::I32, 0),
                    ),
                    0,
                    key.get(),
                ),
                store(
                    a4(int(fill), bucket.get()),
                    0,
                    a4(int(fill), bucket.get()).load(ValType::I32, 0) + int(1),
                ),
            ]),
            // 5. Alltoall of the padded buckets.
            mpi.alltoall(int(sendbuf), cap.get(), MPI_INT, recvbuf.get()),
            // 6. Counting sort of the received range.
            for_range(i, int(0), range_size.get(), &[store(a4(hist.get(), i.get()), 0, int(0))]),
            // For each source rank, walk its real (unpadded) key count.
            for_range(bucket, int(0), size.get(), &[for_range(
                i,
                int(0),
                a4(int(recv_counts), bucket.get()).load(ValType::I32, 0),
                &[
                    key.set(
                        a4(recvbuf.get(), bucket.get() * cap.get() + i.get())
                            .load(ValType::I32, 0),
                    ),
                    store(
                        a4(hist.get(), key.get() - range_lo.get()),
                        0,
                        a4(hist.get(), key.get() - range_lo.get()).load(ValType::I32, 0)
                            + int(1),
                    ),
                    total.set(total.get() + int(1)),
                ],
            )]),
            // 7. Partial verification: every received key is in range.
            for_range(bucket, int(0), size.get(), &[for_range(
                i,
                int(0),
                a4(int(recv_counts), bucket.get()).load(ValType::I32, 0),
                &[
                    key.set(
                        a4(recvbuf.get(), bucket.get() * cap.get() + i.get())
                            .load(ValType::I32, 0),
                    ),
                    if_then(
                        key.get()
                            .ge(range_lo.get())
                            .and(key.get().lt(range_lo.get() + range_size.get())),
                        &[verified.set(verified.get() + int(1))],
                    ),
                ],
            )]),
        ];
        stmts.push(for_range(it, int(0), int(p.iters as i32), &per_iter));
        stmts.extend([
            mpi.report(int(0), mpi.wtime() - t0.get()),
            mpi.report(int(1), verified.get().to(ValType::F64)),
            // Global total of sorted keys across ranks (one iteration's
            // worth per iteration accumulated in `total`).
            store(int(layout::SCRATCH), 0, total.get()),
            mpi.allreduce(
                int(layout::SCRATCH),
                int(layout::SCRATCH + 8),
                int(1),
                MPI_INT,
                crate::guest::MPI_SUM,
            ),
            mpi.report(int(2), int(layout::SCRATCH + 8).load(ValType::I32, 0).to(ValType::F64)),
            mpi.finalize(),
        ]);
        emit_block(f, &stmts);
    });
    encode_module(&b.finish())
}

/// Native IS. Returns `(elapsed_seconds, verified_local, global_total)`.
pub fn run_native(comm: &Comm, p: IsParams) -> (f64, u64, u64) {
    let size = comm.size() as usize;
    let rank = comm.rank() as usize;
    let range_size = (p.max_key as usize) / size;
    let range_lo = rank * range_size;

    let mut verified = 0u64;
    let mut total = 0u64;
    comm.barrier().unwrap();
    let t0 = comm.wtime();
    for it in 0..p.iters {
        // 1. Keys.
        let mut seed = 0x2545i32 + rank as i32 * 7919 + it as i32 * 104729;
        let keys: Vec<i32> = (0..p.keys_per_rank)
            .map(|_| {
                seed = seed.wrapping_mul(LCG_A).wrapping_add(LCG_C);
                (((seed as u32) >> 8) % p.max_key) as i32
            })
            .collect();
        // 2. Histogram.
        let mut counts = vec![0i32; size];
        for &k in &keys {
            counts[k as usize / range_size] += 1;
        }
        // 3. Global cap + counts exchange.
        let local_max = *counts.iter().max().unwrap();
        let mut cap_bytes = [0u8; 4];
        comm.allreduce(&local_max.to_le_bytes(), &mut cap_bytes, Datatype::Int, ReduceOp::Max)
            .unwrap();
        let cap = i32::from_le_bytes(cap_bytes) as usize;
        let counts_bytes: Vec<u8> = counts.iter().flat_map(|c| c.to_le_bytes()).collect();
        let mut recv_counts_bytes = vec![0u8; 4 * size];
        comm.alltoall(&counts_bytes, &mut recv_counts_bytes).unwrap();
        let recv_counts: Vec<i32> = recv_counts_bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        // 4. Pack.
        let mut sendbuf = vec![0i32; size * cap];
        let mut fill = vec![0usize; size];
        for &k in &keys {
            let b = k as usize / range_size;
            sendbuf[b * cap + fill[b]] = k;
            fill[b] += 1;
        }
        // 5. Exchange.
        let send_bytes: Vec<u8> = sendbuf.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut recv_bytes = vec![0u8; send_bytes.len()];
        comm.alltoall(&send_bytes, &mut recv_bytes).unwrap();
        let recvbuf: Vec<i32> = recv_bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        // 6/7. Counting sort + verify.
        let mut hist = vec![0u32; range_size];
        for (src, &cnt) in recv_counts.iter().enumerate() {
            for i in 0..cnt as usize {
                let k = recvbuf[src * cap + i] as usize;
                hist[k - range_lo] += 1;
                total += 1;
                if k >= range_lo && k < range_lo + range_size {
                    verified += 1;
                }
            }
        }
    }
    let elapsed = comm.wtime() - t0;
    let mut total_bytes = [0u8; 8];
    comm.allreduce(
        &(total as i64).to_le_bytes(),
        &mut total_bytes,
        Datatype::Long,
        ReduceOp::Sum,
    )
    .unwrap();
    (elapsed, verified, i64::from_le_bytes(total_bytes) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_substrate::run_world;
    use mpiwasm::{JobConfig, Runner};

    fn tiny() -> IsParams {
        IsParams { keys_per_rank: 512, max_key: 1 << 10, iters: 2 }
    }

    #[test]
    fn native_sorts_and_verifies_every_key() {
        let p = tiny();
        let out = run_world(4, move |comm| run_native(&comm, p));
        let global_total = out[0].2;
        // Every key of every iteration lands somewhere.
        assert_eq!(global_total, 4 * p.keys_per_rank as u64 * p.iters as u64);
        // Locally verified == locally received.
        let local_sum: u64 = out.iter().map(|o| o.1).sum();
        assert_eq!(local_sum, global_total);
    }

    #[test]
    fn guest_module_validates() {
        let wasm = build_guest(tiny());
        let module = wasm_engine::decode_module(&wasm).unwrap();
        wasm_engine::validate_module(&module).unwrap();
    }

    #[test]
    fn guest_matches_native_counts() {
        let p = tiny();
        let native = run_world(2, move |comm| run_native(&comm, p));
        let wasm = build_guest(p);
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks[0].error);
        let expected_total = 2 * p.keys_per_rank as u64 * p.iters as u64;
        for (rr, nat) in result.ranks.iter().zip(&native) {
            let get = |key: i32| {
                rr.reports.iter().find(|(k, _)| *k == key).map(|(_, v)| *v).unwrap()
            };
            assert_eq!(get(1) as u64, nat.1, "verified count differs on rank {}", rr.rank);
            assert_eq!(get(2) as u64, expected_total);
        }
    }
}
