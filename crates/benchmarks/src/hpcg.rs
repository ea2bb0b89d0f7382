//! HPCG (§4.2): conjugate gradient on the 27-point stencil.
//!
//! Faithful to the structure that drives the paper's observations: a
//! memory-bound SpMV (matrix-free 27-point stencil, as HPCG's problem is a
//! regular grid), vector updates, and — crucially for Figure 5c — **two
//! `MPI_Allreduce` calls per iteration** for the dot products, which is
//! what makes the Wasm/native gap grow with rank count. Ranks decompose
//! the global grid in 1-D z-slabs and exchange one-plane halos per SpMV.
//!
//! Substitution note: the multigrid preconditioner is omitted
//! (plain CG); the communication/computation mix that the paper's analysis
//! attributes the degradation to (Allreduce frequency) is preserved.

use mpi_substrate::{Comm, Datatype, ReduceOp, Source, Tag};
use wasm_engine::dsl::*;
use wasm_engine::types::ValType;
use wasm_engine::{encode_module, ModuleBuilder};

use crate::guest::{layout, MpiImports, MPI_DOUBLE, MPI_SUM};

/// Problem parameters: the local grid per rank and CG iteration count.
#[derive(Debug, Clone, Copy)]
pub struct HpcgParams {
    pub nx: u32,
    pub ny: u32,
    pub nz: u32,
    pub iters: u32,
}

impl Default for HpcgParams {
    fn default() -> Self {
        HpcgParams { nx: 16, ny: 16, nz: 16, iters: 10 }
    }
}

impl HpcgParams {
    pub fn local_n(&self) -> u64 {
        self.nx as u64 * self.ny as u64 * self.nz as u64
    }

    /// Model FLOP count per CG iteration per rank: 2 flops per stencil
    /// nonzero (27) for SpMV, two dot products and three AXPYs at 2 flops
    /// per element.
    pub fn flops_per_iter(&self) -> f64 {
        let n = self.local_n() as f64;
        2.0 * 27.0 * n + 2.0 * 2.0 * n + 3.0 * 2.0 * n
    }

    /// Model bytes moved per iteration per rank (vector traffic; used for
    /// the HPCG bandwidth series).
    pub fn bytes_per_iter(&self) -> f64 {
        let n = self.local_n() as f64;
        // SpMV reads 27 stencil operands + writes 1; dots read 2n each;
        // AXPYs read 2n + write n each.
        (27.0 + 1.0) * 8.0 * n + 2.0 * 2.0 * 8.0 * n + 3.0 * 3.0 * 8.0 * n
    }
}

/// Guest memory layout for the vectors (bytes, doubles are 8-aligned).
struct Layout {
    b: i32,
    r: i32,
    x: i32,
    ap: i32,
    /// p with ghost planes: plane 0 = bottom ghost, planes 1..=nz =
    /// interior, plane nz+1 = top ghost.
    pg: i32,
    plane: i32,
    n: i32,
}

fn vec_layout(p: &HpcgParams) -> Layout {
    let n = p.local_n() as i32;
    let plane = (p.nx * p.ny) as i32;
    let base = layout::HEAP;
    Layout {
        b: base,
        r: base + n * 8,
        x: base + 2 * n * 8,
        ap: base + 3 * n * 8,
        pg: base + 4 * n * 8,
        plane,
        n,
    }
}

/// Build the HPCG Wasm guest. Reports:
/// `(0, elapsed_seconds)`, `(1, rr_final / rr_initial)`, `(2, xsum)`.
pub fn build_guest(p: HpcgParams) -> Vec<u8> {
    let lay = vec_layout(&p);
    let mut b = ModuleBuilder::new();
    b.name("hpcg");
    b.memory(layout::PAGES, Some(layout::PAGES));
    let mpi = MpiImports::declare(&mut b);

    let (nx, ny, nz) = (p.nx as i32, p.ny as i32, p.nz as i32);
    let plane = lay.plane;
    let n = lay.n;

    // --- helper: halo exchange on PG ------------------------------------
    // Params: rank, size. Sends interior boundary planes, fills ghosts.
    let halo = b.func_private(vec![ValType::I32, ValType::I32], vec![], |f| {
        let rank = local(0, ValType::I32);
        let size = local(1, ValType::I32);
        let plane_bytes = plane * 8;
        let bottom_interior = lay.pg + plane_bytes; // plane index 1
        let top_interior = lay.pg + nz * plane_bytes; // plane index nz
        let bottom_ghost = lay.pg; // plane index 0
        let top_ghost = lay.pg + (nz + 1) * plane_bytes;
        emit_block(f, &[
            // Upward-moving data (tag 1): my top interior -> rank+1's
            // bottom ghost.
            if_then(rank.get().lt(size.get() - int(1)), &[mpi.send(
                int(top_interior),
                int(plane),
                MPI_DOUBLE,
                rank.get() + int(1),
                int(1),
            )]),
            if_then(rank.get().gt(int(0)), &[mpi.recv(
                int(bottom_ghost),
                int(plane),
                MPI_DOUBLE,
                rank.get() - int(1),
                int(1),
            )]),
            // Downward-moving data (tag 2): my bottom interior -> rank-1's
            // top ghost.
            if_then(rank.get().gt(int(0)), &[mpi.send(
                int(bottom_interior),
                int(plane),
                MPI_DOUBLE,
                rank.get() - int(1),
                int(2),
            )]),
            if_then(rank.get().lt(size.get() - int(1)), &[mpi.recv(
                int(top_ghost),
                int(plane),
                MPI_DOUBLE,
                rank.get() + int(1),
                int(2),
            )]),
        ]);
    });

    // --- helper: SpMV: out = A * PG ------------------------------------
    // Params: out_base, rank, size. Matrix-free 27-point stencil with
    // global boundary handling (z across ranks, x/y local).
    let spmv = b.func_private(vec![ValType::I32, ValType::I32, ValType::I32], vec![], |f| {
        let out_base = local(0, ValType::I32);
        let rank = local(1, ValType::I32);
        let size = local(2, ValType::I32);
        let i = Var::new(f, ValType::I32);
        let j = Var::new(f, ValType::I32);
        let k = Var::new(f, ValType::I32);
        let sum = Var::new(f, ValType::F64);
        let center = Var::new(f, ValType::I32); // PG element index of (i,j,k)
        let gk = Var::new(f, ValType::I32); // global k

        // One statement list per (i,j,k) body, with the 27 neighbors
        // unrolled at build time.
        let mut body: Vec<Stmt> = vec![
            center.set(((k.get() + int(1)) * int(plane)) + j.get() * int(nx) + i.get()),
            gk.set(rank.get() * int(nz) + k.get()),
            sum.set(double(0.0)),
        ];
        for dk in -1i32..=1 {
            for dj in -1i32..=1 {
                for di in -1i32..=1 {
                    if di == 0 && dj == 0 && dk == 0 {
                        continue;
                    }
                    // In-bounds condition for this neighbor.
                    let mut cond = int(1);
                    if di != 0 {
                        let ni = i.get() + int(di);
                        cond = cond.and(ni.clone().ge(int(0)).and(ni.lt(int(nx))));
                    }
                    if dj != 0 {
                        let njv = j.get() + int(dj);
                        cond = cond.and(njv.clone().ge(int(0)).and(njv.lt(int(ny))));
                    }
                    if dk != 0 {
                        let ngk = gk.get() + int(dk);
                        // Global z bounds; the ghost plane holds the data
                        // whenever the neighbor exists.
                        cond = cond
                            .and(ngk.clone().ge(int(0)).and(ngk.lt(size.get() * int(nz))));
                    }
                    let neighbor = center.get() + int(dk * plane + dj * nx + di);
                    let load =
                        (int(lay.pg) + neighbor.shl(int(3))).load(ValType::F64, 0);
                    body.push(if_then(cond, &[sum.set(sum.get() + load)]));
                }
            }
        }
        // y[c] = 26*p[c] - sum(neighbors)
        let center_load = (int(lay.pg) + center.get().shl(int(3))).load(ValType::F64, 0);
        let out_idx = k.get() * int(plane) + j.get() * int(nx) + i.get();
        body.push(store(
            out_base.get() + out_idx.shl(int(3)),
            0,
            double(26.0) * center_load - sum.get(),
        ));

        emit_block(f, &[for_range(k, int(0), int(nz), &[for_range(
            j,
            int(0),
            int(ny),
            &[for_range(i, int(0), int(nx), &body)],
        )])]);
    });

    // --- helper: global dot product of two interior-sized vectors -------
    // Params: a_base, b_base -> f64. Uses SCRATCH for the allreduce.
    let dot = b.func_private(vec![ValType::I32, ValType::I32], vec![ValType::F64], |f| {
        let a = local(0, ValType::I32);
        let bb = local(1, ValType::I32);
        let i = Var::new(f, ValType::I32);
        let acc = Var::new(f, ValType::F64);
        emit_block(f, &[
            for_range(i, int(0), int(n), &[acc.set(
                acc.get()
                    + (a.get() + i.get().shl(int(3))).load(ValType::F64, 0)
                        * (bb.get() + i.get().shl(int(3))).load(ValType::F64, 0),
            )]),
            store(int(layout::SCRATCH), 0, acc.get()),
            mpi.allreduce(
                int(layout::SCRATCH),
                int(layout::SCRATCH + 8),
                int(1),
                MPI_DOUBLE,
                MPI_SUM,
            ),
            ret(Some(int(layout::SCRATCH + 8).load(ValType::F64, 0))),
        ]);
    });

    // --- main ------------------------------------------------------------
    b.func("_start", vec![], vec![], move |f| {
        let rank = Var::new(f, ValType::I32);
        let size = Var::new(f, ValType::I32);
        let i = Var::new(f, ValType::I32);
        let it = Var::new(f, ValType::I32);
        let t0 = Var::new(f, ValType::F64);
        let rr = Var::new(f, ValType::F64);
        let rr0 = Var::new(f, ValType::F64);
        let rr_new = Var::new(f, ValType::F64);
        let alpha = Var::new(f, ValType::F64);
        let beta = Var::new(f, ValType::F64);
        let pap = Var::new(f, ValType::F64);
        let xsum = Var::new(f, ValType::F64);

        let addr8 = |base: i32, idx: Expr| int(base) + idx.shl(int(3));
        let pg_interior = |idx: Expr| int(lay.pg + plane * 8) + idx.shl(int(3));

        let mut stmts = vec![mpi.init()];
        stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
        stmts.extend(mpi.load_size(layout::SCRATCH + 8, size));

        stmts.extend([
            // Set p = 1 everywhere (including ghosts, so edge ranks see
            // Dirichlet-consistent data), then b = A*1.
            for_range(i, int(0), int((nz + 2) * plane), &[store(
                addr8(lay.pg, i.get()),
                0,
                double(1.0),
            )]),
            call_stmt(halo, vec![rank.get(), size.get()]),
            call_stmt(spmv, vec![int(lay.b), rank.get(), size.get()]),
            // x = 0; r = b; p_interior = r.
            for_range(i, int(0), int(n), &[
                store(addr8(lay.x, i.get()), 0, double(0.0)),
                store(addr8(lay.r, i.get()), 0, addr8(lay.b, i.get()).load(ValType::F64, 0)),
                store(pg_interior(i.get()), 0, addr8(lay.b, i.get()).load(ValType::F64, 0)),
            ]),
            rr.set(call(dot, vec![int(lay.r), int(lay.r)], ValType::F64)),
            rr0.set(rr.get()),
            mpi.barrier_world(),
            t0.set(mpi.wtime()),
            // CG iterations.
            for_range(it, int(0), int(p.iters as i32), &[
                call_stmt(halo, vec![rank.get(), size.get()]),
                call_stmt(spmv, vec![int(lay.ap), rank.get(), size.get()]),
                pap.set(call(dot, vec![int(lay.pg + plane * 8), int(lay.ap)], ValType::F64)),
                alpha.set(rr.get() / pap.get()),
                for_range(i, int(0), int(n), &[
                    // x += alpha * p ; r -= alpha * Ap
                    store(
                        addr8(lay.x, i.get()),
                        0,
                        addr8(lay.x, i.get()).load(ValType::F64, 0)
                            + alpha.get() * pg_interior(i.get()).load(ValType::F64, 0),
                    ),
                    store(
                        addr8(lay.r, i.get()),
                        0,
                        addr8(lay.r, i.get()).load(ValType::F64, 0)
                            - alpha.get() * addr8(lay.ap, i.get()).load(ValType::F64, 0),
                    ),
                ]),
                rr_new.set(call(dot, vec![int(lay.r), int(lay.r)], ValType::F64)),
                beta.set(rr_new.get() / rr.get()),
                rr.set(rr_new.get()),
                // p = r + beta * p
                for_range(i, int(0), int(n), &[store(
                    pg_interior(i.get()),
                    0,
                    addr8(lay.r, i.get()).load(ValType::F64, 0)
                        + beta.get() * pg_interior(i.get()).load(ValType::F64, 0),
                )]),
            ]),
            mpi.report(int(0), mpi.wtime() - t0.get()),
            mpi.report(int(1), rr.get() / rr0.get()),
            // Solution checksum for native/wasm cross-validation.
            xsum.set(double(0.0)),
            for_range(i, int(0), int(n), &[xsum.set(
                xsum.get() + addr8(lay.x, i.get()).load(ValType::F64, 0),
            )]),
            mpi.report(int(2), xsum.get()),
            mpi.finalize(),
        ]);
        emit_block(f, &stmts);
    });
    encode_module(&b.finish())
}

/// Native HPCG: the same algorithm in Rust. Returns
/// `(elapsed_seconds, rr_ratio, xsum)`.
pub fn run_native(comm: &Comm, p: HpcgParams) -> (f64, f64, f64) {
    let (nx, ny, nz) = (p.nx as usize, p.ny as usize, p.nz as usize);
    let plane = nx * ny;
    let n = plane * nz;
    let rank = comm.rank() as usize;
    let size = comm.size() as usize;
    let gnz = nz * size;

    let mut b = vec![0.0f64; n];
    let mut r = vec![0.0f64; n];
    let mut x = vec![0.0f64; n];
    let mut ap = vec![0.0f64; n];
    let mut pg = vec![1.0f64; plane * (nz + 2)];

    let halo = |comm: &Comm, pg: &mut [f64]| {
        let to_bytes = |s: &[f64]| -> Vec<u8> {
            s.iter().flat_map(|v| v.to_le_bytes()).collect()
        };
        if rank + 1 < size {
            comm.send(&to_bytes(&pg[nz * plane..(nz + 1) * plane]), rank as u32 + 1, 1).unwrap();
        }
        if rank > 0 {
            let mut buf = vec![0u8; plane * 8];
            comm.recv(&mut buf, Source::Rank(rank as u32 - 1), Tag::Value(1)).unwrap();
            for (i, c) in buf.chunks_exact(8).enumerate() {
                pg[i] = f64::from_le_bytes(c.try_into().unwrap());
            }
            comm.send(&to_bytes(&pg[plane..2 * plane]), rank as u32 - 1, 2).unwrap();
        }
        if rank + 1 < size {
            let mut buf = vec![0u8; plane * 8];
            comm.recv(&mut buf, Source::Rank(rank as u32 + 1), Tag::Value(2)).unwrap();
            for (i, c) in buf.chunks_exact(8).enumerate() {
                pg[(nz + 1) * plane + i] = f64::from_le_bytes(c.try_into().unwrap());
            }
        }
    };

    let spmv = |out: &mut [f64], pg: &[f64]| {
        for k in 0..nz {
            let gk = (rank * nz + k) as i64;
            for j in 0..ny {
                for i in 0..nx {
                    let c = (k + 1) * plane + j * nx + i;
                    let mut sum = 0.0;
                    for dk in -1i64..=1 {
                        for dj in -1i64..=1 {
                            for di in -1i64..=1 {
                                if di == 0 && dj == 0 && dk == 0 {
                                    continue;
                                }
                                let (ni, nj, ngk) =
                                    (i as i64 + di, j as i64 + dj, gk + dk);
                                if ni < 0
                                    || ni >= nx as i64
                                    || nj < 0
                                    || nj >= ny as i64
                                    || ngk < 0
                                    || ngk >= gnz as i64
                                {
                                    continue;
                                }
                                let nc = (c as i64 + dk * plane as i64 + dj * nx as i64 + di)
                                    as usize;
                                sum += pg[nc];
                            }
                        }
                    }
                    out[k * plane + j * nx + i] = 26.0 * pg[c] - sum;
                }
            }
        }
    };

    let dot = |comm: &Comm, a: &[f64], b: &[f64]| -> f64 {
        let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let mut out = [0u8; 8];
        comm.allreduce(&local.to_le_bytes(), &mut out, Datatype::Double, ReduceOp::Sum)
            .unwrap();
        f64::from_le_bytes(out)
    };

    // b = A * 1.
    halo(comm, &mut pg);
    spmv(&mut b, &pg);
    r.copy_from_slice(&b);
    for i in 0..n {
        pg[plane + i] = r[i];
    }
    let mut rr = dot(comm, &r, &r);
    let rr0 = rr;

    comm.barrier().unwrap();
    let t0 = comm.wtime();
    for _ in 0..p.iters {
        halo(comm, &mut pg);
        spmv(&mut ap, &pg);
        let pap = dot(comm, &pg[plane..plane + n], &ap);
        let alpha = rr / pap;
        for i in 0..n {
            x[i] += alpha * pg[plane + i];
            r[i] -= alpha * ap[i];
        }
        let rr_new = dot(comm, &r, &r);
        let beta = rr_new / rr;
        rr = rr_new;
        for i in 0..n {
            pg[plane + i] = r[i] + beta * pg[plane + i];
        }
    }
    let elapsed = comm.wtime() - t0;
    (elapsed, rr / rr0, x.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_substrate::run_world;
    use mpiwasm::{JobConfig, Runner};

    fn tiny() -> HpcgParams {
        HpcgParams { nx: 6, ny: 6, nz: 4, iters: 5 }
    }

    #[test]
    fn native_cg_converges() {
        let p = tiny();
        let out = run_world(2, move |comm| run_native(&comm, p));
        for (_, rr_ratio, _) in out {
            assert!(rr_ratio < 0.5, "CG must reduce the residual: {rr_ratio}");
            assert!(rr_ratio.is_finite());
        }
    }

    #[test]
    fn guest_module_validates() {
        let wasm = build_guest(tiny());
        let module = wasm_engine::decode_module(&wasm).unwrap();
        wasm_engine::validate_module(&module).unwrap();
    }

    #[test]
    fn guest_matches_native_solution() {
        let p = tiny();
        let native = run_world(2, move |comm| run_native(&comm, p));
        let wasm = build_guest(p);
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks[0].error);
        for (rank_result, (_, native_rr, native_xsum)) in result.ranks.iter().zip(&native) {
            let get = |key: i32| {
                rank_result
                    .reports
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            let guest_rr = get(1);
            let guest_xsum = get(2);
            assert!(
                (guest_rr - native_rr).abs() < 1e-9,
                "residual mismatch: {guest_rr} vs {native_rr}"
            );
            assert!(
                (guest_xsum - native_xsum).abs() / native_xsum.abs().max(1.0) < 1e-9,
                "solution mismatch: {guest_xsum} vs {native_xsum}"
            );
        }
    }

    #[test]
    fn single_rank_matches_two_ranks_globally() {
        // The same global problem split differently must converge to the
        // same residual trajectory (global operator is identical).
        let one = run_world(1, |comm| {
            run_native(&comm, HpcgParams { nx: 6, ny: 6, nz: 8, iters: 4 })
        });
        let two = run_world(2, |comm| {
            run_native(&comm, HpcgParams { nx: 6, ny: 6, nz: 4, iters: 4 })
        });
        let rr1 = one[0].1;
        let rr2 = two[0].1;
        assert!((rr1 - rr2).abs() < 1e-10, "{rr1} vs {rr2}");
        let xsum1 = one[0].2;
        let xsum2: f64 = two.iter().map(|t| t.2).sum();
        assert!((xsum1 - xsum2).abs() / xsum1.abs() < 1e-10, "{xsum1} vs {xsum2}");
    }

    #[test]
    fn flop_model_is_positive_and_scales() {
        let small = tiny();
        let big = HpcgParams { nx: 32, ny: 32, nz: 32, iters: 5 };
        assert!(big.flops_per_iter() > small.flops_per_iter() * 100.0);
        assert!(small.bytes_per_iter() > 0.0);
    }
}
