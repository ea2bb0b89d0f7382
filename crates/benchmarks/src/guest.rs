//! The guest-side MPI programming surface: this crate's equivalent of the
//! paper's custom `mpi.h` (§3.2, Listing 2).
//!
//! [`MpiImports::declare`] adds every `env.MPI_*` import to a module under
//! construction (producing exactly the import shape of the paper's
//! Listing 3) and hands back typed helpers for emitting calls from the
//! DSL. [`add_bump_allocator`] gives guests the exported `malloc`/`free`
//! that `MPI_Alloc_mem`/`MPI_Free_mem` re-enter.

use mpiwasm::handles;
use wasm_engine::dsl::*;
use wasm_engine::types::ValType;
use wasm_engine::ModuleBuilder;

/// Guest handle constants re-exported for benchmark authors.
pub use mpiwasm::handles::{
    MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_BYTE, MPI_CHAR, MPI_COMM_SELF, MPI_COMM_WORLD,
    MPI_DOUBLE, MPI_FLOAT, MPI_INT, MPI_LONG, MPI_MAX, MPI_MESSAGE_NULL, MPI_MIN,
    MPI_STATUS_IGNORE, MPI_SUM, MPI_THREAD_FUNNELED, MPI_THREAD_MULTIPLE,
    MPI_THREAD_SERIALIZED, MPI_THREAD_SINGLE, MPI_UNSIGNED, MPI_UNSIGNED_LONG,
};

/// Function indices of the imported MPI surface within a guest module.
#[derive(Debug, Clone, Copy)]
pub struct MpiImports {
    pub init: u32,
    pub finalize: u32,
    pub comm_rank: u32,
    pub comm_size: u32,
    pub send: u32,
    pub recv: u32,
    pub sendrecv: u32,
    pub barrier: u32,
    pub bcast: u32,
    pub reduce: u32,
    pub allreduce: u32,
    pub gather: u32,
    pub allgather: u32,
    pub scatter: u32,
    pub alltoall: u32,
    pub alltoallv: u32,
    pub comm_split: u32,
    pub comm_dup: u32,
    pub comm_free: u32,
    pub wtime: u32,
    pub get_count: u32,
    pub iprobe: u32,
    pub probe: u32,
    pub mprobe: u32,
    pub improbe: u32,
    pub mrecv: u32,
    pub imrecv: u32,
    pub cancel: u32,
    pub test_cancelled: u32,
    pub init_thread: u32,
    pub query_thread: u32,
    pub type_size: u32,
    pub alloc_mem: u32,
    pub free_mem: u32,
    pub isend: u32,
    pub irecv: u32,
    pub wait: u32,
    pub waitall: u32,
    pub waitany: u32,
    pub waitsome: u32,
    pub test: u32,
    pub testall: u32,
    pub testany: u32,
    pub send_init: u32,
    pub recv_init: u32,
    pub start: u32,
    pub startall: u32,
    pub request_free: u32,
    pub ibarrier: u32,
    pub ibcast: u32,
    pub iallreduce: u32,
    pub ireduce: u32,
    pub igather: u32,
    pub iscatter: u32,
    pub iallgather: u32,
    pub ialltoall: u32,
    pub ialltoallv: u32,
    pub ssend: u32,
    pub issend: u32,
    pub bsend: u32,
    pub ibsend: u32,
    pub buffer_attach: u32,
    pub buffer_detach: u32,
    pub get_elements: u32,
    pub type_contiguous: u32,
    pub type_vector: u32,
    pub type_create_struct: u32,
    pub type_commit: u32,
    pub type_free: u32,
    pub comm_group: u32,
    pub group_size: u32,
    pub group_rank: u32,
    pub group_incl: u32,
    pub group_excl: u32,
    pub group_free: u32,
    pub comm_create: u32,
    /// `bench.report(key, value)` harness hook.
    pub report: u32,
    /// `env.mpiwasm_stats(ptr, cap) -> bytes`: embedder extension dumping
    /// the world's protocol counters as LE u64 words (see
    /// `ProtocolSnapshot::as_words` for the order).
    pub stats: u32,
}

impl MpiImports {
    /// Declare the MPI (and harness) imports. Must run before any function
    /// definitions, as imports occupy the front of the index space.
    pub fn declare(b: &mut ModuleBuilder) -> MpiImports {
        use ValType::{F64, I32};
        let i = |b: &mut ModuleBuilder, name: &str, p: Vec<ValType>, r: Vec<ValType>| {
            b.import_func("env", name, p, r)
        };
        MpiImports {
            init: i(b, "MPI_Init", vec![I32; 2], vec![I32]),
            finalize: i(b, "MPI_Finalize", vec![], vec![I32]),
            comm_rank: i(b, "MPI_Comm_rank", vec![I32; 2], vec![I32]),
            comm_size: i(b, "MPI_Comm_size", vec![I32; 2], vec![I32]),
            send: i(b, "MPI_Send", vec![I32; 6], vec![I32]),
            recv: i(b, "MPI_Recv", vec![I32; 7], vec![I32]),
            sendrecv: i(b, "MPI_Sendrecv", vec![I32; 12], vec![I32]),
            barrier: i(b, "MPI_Barrier", vec![I32], vec![I32]),
            bcast: i(b, "MPI_Bcast", vec![I32; 5], vec![I32]),
            reduce: i(b, "MPI_Reduce", vec![I32; 7], vec![I32]),
            allreduce: i(b, "MPI_Allreduce", vec![I32; 6], vec![I32]),
            gather: i(b, "MPI_Gather", vec![I32; 8], vec![I32]),
            allgather: i(b, "MPI_Allgather", vec![I32; 7], vec![I32]),
            scatter: i(b, "MPI_Scatter", vec![I32; 8], vec![I32]),
            alltoall: i(b, "MPI_Alltoall", vec![I32; 7], vec![I32]),
            alltoallv: i(b, "MPI_Alltoallv", vec![I32; 9], vec![I32]),
            comm_split: i(b, "MPI_Comm_split", vec![I32; 4], vec![I32]),
            comm_dup: i(b, "MPI_Comm_dup", vec![I32; 2], vec![I32]),
            comm_free: i(b, "MPI_Comm_free", vec![I32], vec![I32]),
            wtime: i(b, "MPI_Wtime", vec![], vec![F64]),
            get_count: i(b, "MPI_Get_count", vec![I32; 3], vec![I32]),
            iprobe: i(b, "MPI_Iprobe", vec![I32; 5], vec![I32]),
            probe: i(b, "MPI_Probe", vec![I32; 4], vec![I32]),
            mprobe: i(b, "MPI_Mprobe", vec![I32; 5], vec![I32]),
            improbe: i(b, "MPI_Improbe", vec![I32; 6], vec![I32]),
            mrecv: i(b, "MPI_Mrecv", vec![I32; 5], vec![I32]),
            imrecv: i(b, "MPI_Imrecv", vec![I32; 5], vec![I32]),
            cancel: i(b, "MPI_Cancel", vec![I32; 1], vec![I32]),
            test_cancelled: i(b, "MPI_Test_cancelled", vec![I32; 2], vec![I32]),
            init_thread: i(b, "MPI_Init_thread", vec![I32; 4], vec![I32]),
            query_thread: i(b, "MPI_Query_thread", vec![I32; 1], vec![I32]),
            type_size: i(b, "MPI_Type_size", vec![I32; 2], vec![I32]),
            alloc_mem: i(b, "MPI_Alloc_mem", vec![I32; 3], vec![I32]),
            free_mem: i(b, "MPI_Free_mem", vec![I32], vec![I32]),
            isend: i(b, "MPI_Isend", vec![I32; 7], vec![I32]),
            irecv: i(b, "MPI_Irecv", vec![I32; 7], vec![I32]),
            wait: i(b, "MPI_Wait", vec![I32; 2], vec![I32]),
            waitall: i(b, "MPI_Waitall", vec![I32; 3], vec![I32]),
            waitany: i(b, "MPI_Waitany", vec![I32; 4], vec![I32]),
            waitsome: i(b, "MPI_Waitsome", vec![I32; 5], vec![I32]),
            test: i(b, "MPI_Test", vec![I32; 3], vec![I32]),
            testall: i(b, "MPI_Testall", vec![I32; 4], vec![I32]),
            testany: i(b, "MPI_Testany", vec![I32; 5], vec![I32]),
            send_init: i(b, "MPI_Send_init", vec![I32; 7], vec![I32]),
            recv_init: i(b, "MPI_Recv_init", vec![I32; 7], vec![I32]),
            start: i(b, "MPI_Start", vec![I32; 1], vec![I32]),
            startall: i(b, "MPI_Startall", vec![I32; 2], vec![I32]),
            request_free: i(b, "MPI_Request_free", vec![I32; 1], vec![I32]),
            ibarrier: i(b, "MPI_Ibarrier", vec![I32; 2], vec![I32]),
            ibcast: i(b, "MPI_Ibcast", vec![I32; 6], vec![I32]),
            iallreduce: i(b, "MPI_Iallreduce", vec![I32; 7], vec![I32]),
            ireduce: i(b, "MPI_Ireduce", vec![I32; 8], vec![I32]),
            igather: i(b, "MPI_Igather", vec![I32; 9], vec![I32]),
            iscatter: i(b, "MPI_Iscatter", vec![I32; 9], vec![I32]),
            iallgather: i(b, "MPI_Iallgather", vec![I32; 8], vec![I32]),
            ialltoall: i(b, "MPI_Ialltoall", vec![I32; 8], vec![I32]),
            ialltoallv: i(b, "MPI_Ialltoallv", vec![I32; 10], vec![I32]),
            ssend: i(b, "MPI_Ssend", vec![I32; 6], vec![I32]),
            issend: i(b, "MPI_Issend", vec![I32; 7], vec![I32]),
            bsend: i(b, "MPI_Bsend", vec![I32; 6], vec![I32]),
            ibsend: i(b, "MPI_Ibsend", vec![I32; 7], vec![I32]),
            buffer_attach: i(b, "MPI_Buffer_attach", vec![I32; 2], vec![I32]),
            buffer_detach: i(b, "MPI_Buffer_detach", vec![I32; 2], vec![I32]),
            get_elements: i(b, "MPI_Get_elements", vec![I32; 3], vec![I32]),
            type_contiguous: i(b, "MPI_Type_contiguous", vec![I32; 3], vec![I32]),
            type_vector: i(b, "MPI_Type_vector", vec![I32; 5], vec![I32]),
            type_create_struct: i(b, "MPI_Type_create_struct", vec![I32; 5], vec![I32]),
            type_commit: i(b, "MPI_Type_commit", vec![I32; 1], vec![I32]),
            type_free: i(b, "MPI_Type_free", vec![I32; 1], vec![I32]),
            comm_group: i(b, "MPI_Comm_group", vec![I32; 2], vec![I32]),
            group_size: i(b, "MPI_Group_size", vec![I32; 2], vec![I32]),
            group_rank: i(b, "MPI_Group_rank", vec![I32; 2], vec![I32]),
            group_incl: i(b, "MPI_Group_incl", vec![I32; 4], vec![I32]),
            group_excl: i(b, "MPI_Group_excl", vec![I32; 4], vec![I32]),
            group_free: i(b, "MPI_Group_free", vec![I32; 1], vec![I32]),
            comm_create: i(b, "MPI_Comm_create", vec![I32; 3], vec![I32]),
            report: b.import_func("bench", "report", vec![I32, F64], vec![]),
            stats: i(b, "mpiwasm_stats", vec![I32; 2], vec![I32]),
        }
    }

    // --- DSL helpers; every helper drops the MPI error code, the idiom
    // --- of the benchmark codes themselves.

    pub fn init(&self) -> Stmt {
        call_drop(self.init, vec![int(0), int(0)])
    }

    pub fn finalize(&self) -> Stmt {
        call_drop(self.finalize, vec![])
    }

    /// `rank_var = MPI_Comm_rank(MPI_COMM_WORLD)` via scratch address.
    pub fn load_rank(&self, scratch: i32, rank_var: Var) -> Vec<Stmt> {
        vec![
            call_drop(self.comm_rank, vec![int(handles::MPI_COMM_WORLD), int(scratch)]),
            rank_var.set(int(scratch).load(ValType::I32, 0)),
        ]
    }

    pub fn load_size(&self, scratch: i32, size_var: Var) -> Vec<Stmt> {
        vec![
            call_drop(self.comm_size, vec![int(handles::MPI_COMM_WORLD), int(scratch)]),
            size_var.set(int(scratch).load(ValType::I32, 0)),
        ]
    }

    pub fn barrier_world(&self) -> Stmt {
        call_drop(self.barrier, vec![int(handles::MPI_COMM_WORLD)])
    }

    pub fn wtime(&self) -> Expr {
        call(self.wtime, vec![], ValType::F64)
    }

    pub fn report(&self, key: Expr, value: Expr) -> Stmt {
        call_stmt(self.report, vec![key, value])
    }

    /// `out_var = mpiwasm_stats(ptr, cap)`: snapshot the world's protocol
    /// counters into guest memory at `ptr`, yielding the bytes written.
    pub fn stats(&self, ptr: Expr, cap: Expr, out_var: Var) -> Stmt {
        out_var.set(call(self.stats, vec![ptr, cap], ValType::I32))
    }

    #[allow(clippy::too_many_arguments)]
    pub fn send(&self, buf: Expr, count: Expr, dt: i32, dest: Expr, tag: Expr) -> Stmt {
        call_drop(
            self.send,
            vec![buf, count, int(dt), dest, tag, int(handles::MPI_COMM_WORLD)],
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub fn recv(&self, buf: Expr, count: Expr, dt: i32, src: Expr, tag: Expr) -> Stmt {
        call_drop(
            self.recv,
            vec![
                buf,
                count,
                int(dt),
                src,
                tag,
                int(handles::MPI_COMM_WORLD),
                int(handles::MPI_STATUS_IGNORE),
            ],
        )
    }

    pub fn bcast(&self, buf: Expr, count: Expr, dt: i32, root: Expr) -> Stmt {
        call_drop(self.bcast, vec![buf, count, int(dt), root, int(handles::MPI_COMM_WORLD)])
    }

    pub fn allreduce(&self, sbuf: Expr, rbuf: Expr, count: Expr, dt: i32, op: i32) -> Stmt {
        call_drop(
            self.allreduce,
            vec![sbuf, rbuf, count, int(dt), int(op), int(handles::MPI_COMM_WORLD)],
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub fn reduce(&self, sbuf: Expr, rbuf: Expr, count: Expr, dt: i32, op: i32, root: Expr) -> Stmt {
        call_drop(
            self.reduce,
            vec![sbuf, rbuf, count, int(dt), int(op), root, int(handles::MPI_COMM_WORLD)],
        )
    }

    pub fn allgather(&self, sbuf: Expr, count: Expr, dt: i32, rbuf: Expr) -> Stmt {
        call_drop(
            self.allgather,
            vec![sbuf, count.clone(), int(dt), rbuf, count, int(dt), int(handles::MPI_COMM_WORLD)],
        )
    }

    pub fn alltoall(&self, sbuf: Expr, count: Expr, dt: i32, rbuf: Expr) -> Stmt {
        call_drop(
            self.alltoall,
            vec![sbuf, count.clone(), int(dt), rbuf, count, int(dt), int(handles::MPI_COMM_WORLD)],
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub fn gather(&self, sbuf: Expr, count: Expr, dt: i32, rbuf: Expr, root: Expr) -> Stmt {
        call_drop(
            self.gather,
            vec![
                sbuf,
                count.clone(),
                int(dt),
                rbuf,
                count,
                int(dt),
                root,
                int(handles::MPI_COMM_WORLD),
            ],
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub fn scatter(&self, sbuf: Expr, count: Expr, dt: i32, rbuf: Expr, root: Expr) -> Stmt {
        call_drop(
            self.scatter,
            vec![
                sbuf,
                count.clone(),
                int(dt),
                rbuf,
                count,
                int(dt),
                root,
                int(handles::MPI_COMM_WORLD),
            ],
        )
    }

    /// Nonblocking allreduce over `MPI_COMM_WORLD`; the request handle is
    /// written to `req_ptr`.
    pub fn iallreduce_nb(
        &self,
        sbuf: Expr,
        rbuf: Expr,
        count: Expr,
        dt: i32,
        op: i32,
        req_ptr: Expr,
    ) -> Stmt {
        call_drop(
            self.iallreduce,
            vec![sbuf, rbuf, count, int(dt), int(op), int(handles::MPI_COMM_WORLD), req_ptr],
        )
    }

    /// Nonblocking all-to-all over `MPI_COMM_WORLD` (equal counts on the
    /// send and receive side, as the blocking helper).
    pub fn ialltoall_nb(
        &self,
        sbuf: Expr,
        count: Expr,
        dt: i32,
        rbuf: Expr,
        req_ptr: Expr,
    ) -> Stmt {
        call_drop(
            self.ialltoall,
            vec![
                sbuf,
                count.clone(),
                int(dt),
                rbuf,
                count,
                int(dt),
                int(handles::MPI_COMM_WORLD),
                req_ptr,
            ],
        )
    }

    /// Blocking vector all-to-all over `MPI_COMM_WORLD` (counts and
    /// displacements are `i32[p]` arrays in guest memory, in elements).
    #[allow(clippy::too_many_arguments)]
    pub fn alltoallv(
        &self,
        sbuf: Expr,
        scounts: Expr,
        sdispls: Expr,
        dt: i32,
        rbuf: Expr,
        rcounts: Expr,
        rdispls: Expr,
    ) -> Stmt {
        call_drop(
            self.alltoallv,
            vec![
                sbuf,
                scounts,
                sdispls,
                int(dt),
                rbuf,
                rcounts,
                rdispls,
                int(dt),
                int(handles::MPI_COMM_WORLD),
            ],
        )
    }

    /// `MPI_Wait(req_ptr, MPI_STATUS_IGNORE)`.
    pub fn wait_nb(&self, req_ptr: Expr) -> Stmt {
        call_drop(self.wait, vec![req_ptr, int(handles::MPI_STATUS_IGNORE)])
    }

    #[allow(clippy::too_many_arguments)]
    pub fn isend_nb(
        &self,
        buf: Expr,
        count: Expr,
        dt: i32,
        dest: Expr,
        tag: i32,
        req_ptr: Expr,
    ) -> Stmt {
        call_drop(
            self.isend,
            vec![buf, count, int(dt), dest, int(tag), int(handles::MPI_COMM_WORLD), req_ptr],
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub fn irecv_nb(
        &self,
        buf: Expr,
        count: Expr,
        dt: i32,
        src: Expr,
        tag: i32,
        req_ptr: Expr,
    ) -> Stmt {
        call_drop(
            self.irecv,
            vec![buf, count, int(dt), src, int(tag), int(handles::MPI_COMM_WORLD), req_ptr],
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &self,
        sbuf: Expr,
        scount: Expr,
        dt: i32,
        dest: Expr,
        rbuf: Expr,
        rcount: Expr,
        src: Expr,
        tag: i32,
    ) -> Stmt {
        call_drop(
            self.sendrecv,
            vec![
                sbuf,
                scount,
                int(dt),
                dest,
                int(tag),
                rbuf,
                rcount,
                int(dt),
                src,
                int(tag),
                int(handles::MPI_COMM_WORLD),
                int(handles::MPI_STATUS_IGNORE),
            ],
        )
    }
    // --- send modes over MPI_COMM_WORLD ---------------------------------

    /// Synchronous-mode blocking send: returns only after the receiver
    /// matched the message.
    pub fn ssend(&self, buf: Expr, count: Expr, dt: i32, dest: Expr, tag: Expr) -> Stmt {
        call_drop(
            self.ssend,
            vec![buf, count, int(dt), dest, tag, int(handles::MPI_COMM_WORLD)],
        )
    }

    /// Buffered-mode blocking send: completes locally against the
    /// attached buffer's accounting.
    pub fn bsend(&self, buf: Expr, count: Expr, dt: i32, dest: Expr, tag: Expr) -> Stmt {
        call_drop(
            self.bsend,
            vec![buf, count, int(dt), dest, tag, int(handles::MPI_COMM_WORLD)],
        )
    }

    /// `MPI_Buffer_attach(buf, size)`.
    pub fn buffer_attach(&self, buf: Expr, size: Expr) -> Stmt {
        call_drop(self.buffer_attach, vec![buf, size])
    }

    /// `MPI_Buffer_detach(bufptr_ptr, size_ptr)`.
    pub fn buffer_detach(&self, buf_ptr: Expr, size_ptr: Expr) -> Stmt {
        call_drop(self.buffer_detach, vec![buf_ptr, size_ptr])
    }

    // --- derived datatypes ----------------------------------------------

    /// `MPI_Type_vector(count, blocklen, stride, oldtype)`; the new
    /// handle lands at `out_ptr`.
    pub fn type_vector(
        &self,
        count: Expr,
        blocklen: Expr,
        stride: Expr,
        oldtype: i32,
        out_ptr: Expr,
    ) -> Stmt {
        call_drop(
            self.type_vector,
            vec![count, blocklen, stride, int(oldtype), out_ptr],
        )
    }

    /// `MPI_Type_contiguous(count, oldtype)`; handle at `out_ptr`.
    pub fn type_contiguous(&self, count: Expr, oldtype: i32, out_ptr: Expr) -> Stmt {
        call_drop(self.type_contiguous, vec![count, int(oldtype), out_ptr])
    }

    /// `MPI_Type_commit(type_ptr)`.
    pub fn type_commit(&self, type_ptr: Expr) -> Stmt {
        call_drop(self.type_commit, vec![type_ptr])
    }

    /// `MPI_Type_free(type_ptr)`.
    pub fn type_free(&self, type_ptr: Expr) -> Stmt {
        call_drop(self.type_free, vec![type_ptr])
    }

    /// Blocking send with a *dynamic* datatype handle (derived types are
    /// created at run time, so the handle is an `Expr`, not a constant).
    pub fn send_dt(&self, buf: Expr, count: Expr, dt: Expr, dest: Expr, tag: Expr) -> Stmt {
        call_drop(
            self.send,
            vec![buf, count, dt, dest, tag, int(handles::MPI_COMM_WORLD)],
        )
    }

    /// Blocking receive with a dynamic datatype handle.
    pub fn recv_dt(&self, buf: Expr, count: Expr, dt: Expr, src: Expr, tag: Expr) -> Stmt {
        call_drop(
            self.recv,
            vec![
                buf,
                count,
                dt,
                src,
                tag,
                int(handles::MPI_COMM_WORLD),
                int(handles::MPI_STATUS_IGNORE),
            ],
        )
    }

    // --- probe / matched probe / cancel over MPI_COMM_WORLD -------------

    /// `MPI_Probe(src, tag, MPI_COMM_WORLD, status_ptr)` (blocking).
    pub fn probe(&self, src: Expr, tag: Expr, status_ptr: Expr) -> Stmt {
        call_drop(self.probe, vec![src, tag, int(handles::MPI_COMM_WORLD), status_ptr])
    }

    /// `MPI_Iprobe(src, tag, MPI_COMM_WORLD, flag_ptr, status_ptr)`.
    pub fn iprobe(&self, src: Expr, tag: Expr, flag_ptr: Expr, status_ptr: Expr) -> Stmt {
        call_drop(
            self.iprobe,
            vec![src, tag, int(handles::MPI_COMM_WORLD), flag_ptr, status_ptr],
        )
    }

    /// `MPI_Mprobe(src, tag, MPI_COMM_WORLD, message_ptr, status_ptr)`.
    pub fn mprobe(&self, src: Expr, tag: Expr, msg_ptr: Expr, status_ptr: Expr) -> Stmt {
        call_drop(
            self.mprobe,
            vec![src, tag, int(handles::MPI_COMM_WORLD), msg_ptr, status_ptr],
        )
    }

    /// `MPI_Mrecv(buf, count, dt, message_ptr, status_ptr)`.
    pub fn mrecv(&self, buf: Expr, count: Expr, dt: i32, msg_ptr: Expr, status_ptr: Expr) -> Stmt {
        call_drop(self.mrecv, vec![buf, count, int(dt), msg_ptr, status_ptr])
    }

    /// `MPI_Cancel(request_ptr)`.
    pub fn cancel(&self, req_ptr: Expr) -> Stmt {
        call_drop(self.cancel, vec![req_ptr])
    }

    /// `MPI_Test_cancelled(status_ptr, flag_ptr)`.
    pub fn test_cancelled(&self, status_ptr: Expr, flag_ptr: Expr) -> Stmt {
        call_drop(self.test_cancelled, vec![status_ptr, flag_ptr])
    }

    /// `MPI_Init_thread(0, 0, required, provided_ptr)`.
    pub fn init_thread(&self, required: Expr, provided_ptr: Expr) -> Stmt {
        call_drop(self.init_thread, vec![int(0), int(0), required, provided_ptr])
    }

    /// `MPI_Query_thread(provided_ptr)`.
    pub fn query_thread(&self, provided_ptr: Expr) -> Stmt {
        call_drop(self.query_thread, vec![provided_ptr])
    }
}

/// Add a trivial bump allocator exporting `malloc` and `free`, the hooks
/// `MPI_Alloc_mem`/`MPI_Free_mem` require (§3.7). The heap grows from
/// `heap_base`; `free` is a no-op (bump allocators don't reclaim), which
/// is sufficient for the benchmark lifetimes.
pub fn add_bump_allocator(b: &mut ModuleBuilder, heap_base: i32) -> (u32, u32) {
    let heap_ptr = b.global(ValType::I32, true, wasm_engine::Instr::I32Const(heap_base));
    let malloc = b.func("malloc", vec![ValType::I32], vec![ValType::I32], |f| {
        let size = local(0, ValType::I32);
        let out = Var::new(f, ValType::I32);
        let g = GlobalVar { idx: heap_ptr, ty: ValType::I32 };
        emit_block(f, &[
            out.set(g.get()),
            // Bump by size rounded up to 16 bytes.
            g.set((g.get() + size.get() + int(15)).and(int(!15))),
            ret(Some(out.get())),
        ]);
    });
    let free = b.func("free", vec![ValType::I32], vec![], |_f| {});
    (malloc, free)
}

/// Standard scratch-memory layout shared by the benchmark guests.
pub mod layout {
    /// Scratch word for rank/size outputs and small results.
    pub const SCRATCH: i32 = 16;
    /// iovec area for WASI calls.
    pub const IOV: i32 = 64;
    /// Send buffer base (page 1).
    pub const SEND_BUF: i32 = 1 << 16;
    /// Receive buffer base, 8 MiB above the send buffer — holds 4 MiB
    /// payloads with room to spare.
    pub const RECV_BUF: i32 = SEND_BUF + (8 << 20);
    /// Heap base for the bump allocator / large benchmark state.
    pub const HEAP: i32 = RECV_BUF + (24 << 20);
    /// Default memory size in pages (64 MiB) covering the layout above.
    pub const PAGES: u32 = 1024;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_substrate::ClockMode;
    use mpiwasm::{JobConfig, Runner};
    use netsim::{CostModel, SystemProfile};
    use wasm_engine::encode_module;

    fn virtual_clock() -> ClockMode {
        ClockMode::Virtual(CostModel::native(SystemProfile::container()))
    }

    /// End-to-end smoke test: a 4-rank ring pass in Wasm through the
    /// embedder. Exercises Init/rank/size/send/recv/barrier/report.
    #[test]
    fn ring_pass_end_to_end() {
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let size = Var::new(f, ValType::I32);
            let token = Var::new(f, ValType::I32);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            stmts.extend(mpi.load_size(layout::SCRATCH + 8, size));
            // Rank 0 seeds the token with 100; each hop adds the sender's
            // rank; rank 0 receives the final value from the last rank.
            stmts.extend([
                if_else(
                    rank.get().eq(int(0)),
                    &[
                        store(int(layout::SEND_BUF), 0, int(100)),
                        mpi.send(int(layout::SEND_BUF), int(1), MPI_INT, int(1), int(7)),
                        mpi.recv(
                            int(layout::RECV_BUF),
                            int(1),
                            MPI_INT,
                            size.get() - int(1),
                            int(7),
                        ),
                        token.set(int(layout::RECV_BUF).load(ValType::I32, 0)),
                        mpi.report(int(0), token.get().to(ValType::F64)),
                    ],
                    &[
                        mpi.recv(int(layout::RECV_BUF), int(1), MPI_INT, rank.get() - int(1), int(7)),
                        token.set(int(layout::RECV_BUF).load(ValType::I32, 0) + rank.get()),
                        store(int(layout::SEND_BUF), 0, token.get()),
                        mpi.send(
                            int(layout::SEND_BUF),
                            int(1),
                            MPI_INT,
                            (rank.get() + int(1)) % size.get(),
                            int(7),
                        ),
                    ],
                ),
                mpi.barrier_world(),
                mpi.finalize(),
            ]);
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());

        let runner = Runner::new();
        let result = runner
            .run(&wasm, JobConfig { np: 4, clock: ClockMode::Real, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        // 100 + 1 + 2 + 3
        assert_eq!(result.ranks[0].reports, vec![(0, 106.0)]);
    }

    /// MPI_Alloc_mem must re-enter the exported bump allocator.
    #[test]
    fn alloc_mem_uses_guest_malloc() {
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        add_bump_allocator(&mut b, layout::HEAP);
        b.func("_start", vec![], vec![], |f| {
            let p1 = Var::new(f, ValType::I32);
            let p2 = Var::new(f, ValType::I32);
            emit_block(f, &[
                mpi.init(),
                call_drop(mpi.alloc_mem, vec![int(256), int(0), int(layout::SCRATCH)]),
                p1.set(int(layout::SCRATCH).load(ValType::I32, 0)),
                call_drop(mpi.alloc_mem, vec![int(256), int(0), int(layout::SCRATCH)]),
                p2.set(int(layout::SCRATCH).load(ValType::I32, 0)),
                call_drop(mpi.free_mem, vec![p1.get()]),
                mpi.report(int(0), p1.get().to(ValType::F64)),
                mpi.report(int(1), p2.get().to(ValType::F64)),
                mpi.finalize(),
            ]);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 1, ..Default::default() })
            .unwrap();
        assert!(result.success());
        let reports = &result.ranks[0].reports;
        assert_eq!(reports[0].1, layout::HEAP as f64);
        assert_eq!(reports[1].1, (layout::HEAP + 256) as f64);
    }

    /// The canonical halo-exchange shape: both ranks Isend a
    /// rendezvous-sized payload, Irecv the peer's, then Waitall both.
    /// Regression test for the host progress engine — waiting on the send
    /// must keep driving the posted receive, or the exchange deadlocks.
    #[test]
    fn symmetric_rendezvous_waitall_completes() {
        const BYTES: i32 = 256 << 10; // above every eager threshold
        let reqs = layout::SCRATCH + 16;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            let peer = int(1) - rank.get();
            stmts.extend([
                store(int(layout::SEND_BUF), 0, rank.get() + int(7)),
                mpi.isend_nb(int(layout::SEND_BUF), int(BYTES), MPI_BYTE, peer.clone(), 5, int(reqs)),
                mpi.irecv_nb(int(layout::RECV_BUF), int(BYTES), MPI_BYTE, peer, 5, int(reqs + 4)),
                call_drop(mpi.waitall, vec![int(2), int(reqs), int(0 /* STATUSES_IGNORE */)]),
                mpi.report(int(0), int(layout::RECV_BUF).load(ValType::I32, 0).to(ValType::F64)),
                mpi.finalize(),
            ]);
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        // Each rank received the peer's first word.
        assert_eq!(result.ranks[0].reports, vec![(0, 8.0)]);
        assert_eq!(result.ranks[1].reports, vec![(0, 7.0)]);
    }

    /// The MPI-guaranteed Irecv-then-blocking-Send exchange: both ranks
    /// post a large Irecv, then call blocking MPI_Send of a
    /// rendezvous-sized payload, then Wait the receive. The host's
    /// blocking send must keep the posted receive progressing or both
    /// ranks park on their rendezvous slots forever.
    #[test]
    fn posted_irecv_unblocks_symmetric_blocking_send() {
        const BYTES: i32 = 256 << 10;
        let req = layout::SCRATCH + 16;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            let peer = int(1) - rank.get();
            stmts.extend([
                store(int(layout::SEND_BUF), 0, rank.get() + int(40)),
                mpi.irecv_nb(int(layout::RECV_BUF), int(BYTES), MPI_BYTE, peer.clone(), 9, int(req)),
                mpi.send(int(layout::SEND_BUF), int(BYTES), MPI_BYTE, peer, int(9)),
                mpi.wait_nb(int(req)),
                mpi.report(int(0), int(layout::RECV_BUF).load(ValType::I32, 0).to(ValType::F64)),
                mpi.finalize(),
            ]);
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        assert_eq!(result.ranks[0].reports, vec![(0, 41.0)]);
        assert_eq!(result.ranks[1].reports, vec![(0, 40.0)]);
    }

    /// MPI_Request_free must return immediately (mark-for-deletion):
    /// Isend → Request_free → Barrier → peer receives. Blocking inside
    /// Request_free until the send drained would deadlock at the barrier.
    #[test]
    fn request_free_on_inflight_send_is_nonblocking() {
        const BYTES: i32 = 256 << 10;
        let req = layout::SCRATCH + 16;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            let peer = int(1) - rank.get();
            stmts.extend([
                store(int(layout::SEND_BUF), 0, rank.get() + int(60)),
                mpi.isend_nb(int(layout::SEND_BUF), int(BYTES), MPI_BYTE, peer.clone(), 2, int(req)),
                call_drop(mpi.request_free, vec![int(req)]),
                mpi.barrier_world(),
                mpi.recv(int(layout::RECV_BUF), int(BYTES), MPI_BYTE, peer, int(2)),
                mpi.report(int(0), int(layout::RECV_BUF).load(ValType::I32, 0).to(ValType::F64)),
                mpi.finalize(),
            ]);
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        assert_eq!(result.ranks[0].reports, vec![(0, 61.0)]);
        assert_eq!(result.ranks[1].reports, vec![(0, 60.0)]);
    }

    /// A collective must keep the rank's posted receives progressing:
    /// rank 0 posts an Irecv and enters a barrier; rank 1 Isends and
    /// Waits *before* its barrier. Rank 1's send can only complete when
    /// rank 0's parked barrier drives the posted receive.
    #[test]
    fn barrier_progresses_posted_receives() {
        const BYTES: i32 = 256 << 10;
        let req = layout::SCRATCH + 16;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            stmts.push(if_else(
                rank.get().eq(int(0)),
                &[
                    mpi.irecv_nb(int(layout::RECV_BUF), int(BYTES), MPI_BYTE, int(1), 4, int(req)),
                    mpi.barrier_world(),
                    mpi.wait_nb(int(req)),
                    mpi.report(int(0), int(layout::RECV_BUF).load(ValType::I32, 0).to(ValType::F64)),
                ],
                &[
                    store(int(layout::SEND_BUF), 0, int(77)),
                    mpi.isend_nb(int(layout::SEND_BUF), int(BYTES), MPI_BYTE, int(0), 4, int(req)),
                    mpi.wait_nb(int(req)),
                    mpi.barrier_world(),
                ],
            ));
            stmts.push(mpi.finalize());
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        assert_eq!(result.ranks[0].reports, vec![(0, 77.0)]);
    }

    /// `MPI_Waitall` partial-failure audit: a set mixing a p2p request
    /// with a nonblocking collective that fails (mismatched Ibcast
    /// counts) must return the collective's error code *and* rewrite
    /// every completed handle word to `MPI_REQUEST_NULL`, exactly like
    /// the one-shot p2p encoding documented on `env::MpiState`.
    #[test]
    fn waitall_partial_failure_nulls_collective_handles() {
        let reqs = layout::SCRATCH + 16;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let code = Var::new(f, ValType::I32);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            stmts.extend([
                store(int(layout::SEND_BUF), 0, int(41)),
                // Slot 0: a p2p pair that completes cleanly.
                if_else(
                    rank.get().eq(int(0)),
                    &[mpi.isend_nb(int(layout::SEND_BUF), int(1), MPI_INT, int(1), 5, int(reqs))],
                    &[mpi.irecv_nb(int(layout::RECV_BUF), int(1), MPI_INT, int(0), 5, int(reqs))],
                ),
                // Slot 1: Ibcast with count 2 on the root, 1 elsewhere —
                // the non-root's state machine latches CollectiveMismatch.
                call_drop(
                    mpi.ibcast,
                    vec![
                        int(layout::SEND_BUF + 64),
                        int(2) - rank.get(),
                        int(MPI_INT),
                        int(0),
                        int(handles::MPI_COMM_WORLD),
                        int(reqs + 4),
                    ],
                ),
                code.set(call(
                    mpi.waitall,
                    vec![int(2), int(reqs), int(0 /* STATUSES_IGNORE */)],
                    ValType::I32,
                )),
                mpi.report(int(0), code.get().to(ValType::F64)),
                mpi.report(int(1), int(reqs).load(ValType::I32, 0).to(ValType::F64)),
                mpi.report(int(2), int(reqs + 4).load(ValType::I32, 0).to(ValType::F64)),
                mpi.finalize(),
            ]);
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        // Rank 0 (root, matching counts): clean success.
        assert_eq!(result.ranks[0].reports[0].1, 0.0, "root waitall code");
        // Rank 1: the collective's error code surfaces (16 =
        // CollectiveMismatch)...
        assert_eq!(result.ranks[1].reports[0].1, 16.0, "non-root waitall code");
        // ...and on BOTH ranks every handle word is nulled, including the
        // failed collective's.
        for r in &result.ranks {
            assert_eq!(r.reports[1].1, 0.0, "rank {} p2p handle nulled", r.rank);
            assert_eq!(r.reports[2].1, 0.0, "rank {} coll handle nulled", r.rank);
        }
    }

    /// The guest-visible `MPI_Alltoallv` ABI end to end: element counts
    /// and displacements are translated per rank (block to rank `r` holds
    /// `r + 1` ints), routed through the nonblocking state machine, and
    /// land transposed.
    #[test]
    fn alltoallv_through_embedder() {
        const P: i32 = 3;
        let scounts = layout::SCRATCH + 64;
        let sdispls = scounts + 4 * P;
        let rcounts = sdispls + 4 * P;
        let rdispls = rcounts + 4 * P;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let size = Var::new(f, ValType::I32);
            let r = Var::new(f, ValType::I32);
            let k = Var::new(f, ValType::I32);
            let acc = Var::new(f, ValType::I32);
            let sum = Var::new(f, ValType::I32);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            stmts.extend(mpi.load_size(layout::SCRATCH + 8, size));
            stmts.extend([
                // Build the count/displacement arrays: block to rank r is
                // r+1 ints; receive side expects rank+1 ints from everyone.
                acc.set(int(0)),
                for_range(r, int(0), size.get(), &[
                    store(int(scounts) + r.get() * int(4), 0, r.get() + int(1)),
                    store(int(sdispls) + r.get() * int(4), 0, acc.get()),
                    // Fill block r with the value rank*100 + r.
                    for_range(k, int(0), r.get() + int(1), &[store(
                        int(layout::SEND_BUF) + (acc.get() + k.get()) * int(4),
                        0,
                        rank.get() * int(100) + r.get(),
                    )]),
                    acc.set(acc.get() + r.get() + int(1)),
                    store(int(rcounts) + r.get() * int(4), 0, rank.get() + int(1)),
                    store(
                        int(rdispls) + r.get() * int(4),
                        0,
                        r.get() * (rank.get() + int(1)),
                    ),
                ]),
                mpi.alltoallv(
                    int(layout::SEND_BUF),
                    int(scounts),
                    int(sdispls),
                    MPI_INT,
                    int(layout::RECV_BUF),
                    int(rcounts),
                    int(rdispls),
                ),
                // Sum everything received: rank+1 ints from each sender
                // s, each s*100 + rank.
                sum.set(int(0)),
                for_range(r, int(0), size.get() * (rank.get() + int(1)), &[sum.set(
                    sum.get() + (int(layout::RECV_BUF) + r.get() * int(4)).load(ValType::I32, 0),
                )]),
                mpi.report(int(0), sum.get().to(ValType::F64)),
                mpi.finalize(),
            ]);
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: P as u32, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        for rank in 0..P {
            let expected: i32 = (0..P).map(|s| (rank + 1) * (s * 100 + rank)).sum();
            assert_eq!(
                result.ranks[rank as usize].reports,
                vec![(0, expected as f64)],
                "rank {rank}"
            );
        }
    }

    /// Symmetric `Ialltoall` + `Waitall` through the full guest ABI with
    /// rendezvous-sized blocks: the parked `Waitall` must keep each
    /// rank's collective state machine draining its peers.
    #[test]
    fn guest_symmetric_ialltoall_waitall_completes() {
        const BLOCK: i32 = 256 << 10; // per-peer block, rendezvous-sized
        let req = layout::SCRATCH + 16;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            stmts.extend([
                // First word of each outgoing block: 10 + rank.
                store(int(layout::SEND_BUF), 0, rank.get() + int(10)),
                store(int(layout::SEND_BUF + BLOCK), 0, rank.get() + int(10)),
                mpi.ialltoall_nb(
                    int(layout::SEND_BUF),
                    int(BLOCK),
                    MPI_BYTE,
                    int(layout::RECV_BUF),
                    int(req),
                ),
                call_drop(mpi.waitall, vec![int(1), int(req), int(0)]),
                // Peer block landed at RECV_BUF + peer*BLOCK.
                mpi.report(
                    int(0),
                    (int(layout::RECV_BUF) + (int(1) - rank.get()) * int(BLOCK))
                        .load(ValType::I32, 0)
                        .to(ValType::F64),
                ),
                mpi.finalize(),
            ]);
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        assert_eq!(result.ranks[0].reports, vec![(0, 11.0)]);
        assert_eq!(result.ranks[1].reports, vec![(0, 10.0)]);
    }

    /// `MPI_Init_thread` grants the requested level up to
    /// `MPI_THREAD_MULTIPLE` and `MPI_Query_thread` reads it back.
    #[test]
    fn init_thread_grants_thread_multiple() {
        const PROVIDED: i32 = 256;
        const QUERIED: i32 = 260;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            emit_block(f, &[
                mpi.init_thread(int(MPI_THREAD_MULTIPLE), int(PROVIDED)),
                mpi.query_thread(int(QUERIED)),
                mpi.report(int(0), int(PROVIDED).load(ValType::I32, 0).to(ValType::F64)),
                mpi.report(int(1), int(QUERIED).load(ValType::I32, 0).to(ValType::F64)),
                mpi.finalize(),
            ]);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        for r in &result.ranks {
            assert_eq!(r.reports[0].1, MPI_THREAD_MULTIPLE as f64, "provided on rank {}", r.rank);
            assert_eq!(r.reports[1].1, MPI_THREAD_MULTIPLE as f64, "queried on rank {}", r.rank);
        }
    }

    /// `MPI_Message` handle encoding end to end: `Improbe` yields handle
    /// index+1, `Mrecv` delivers and rewrites the handle word to
    /// `MPI_MESSAGE_NULL` (0), freed slots are reclaimed, and a probe
    /// miss reports flag 0 with a null handle.
    #[test]
    fn message_handles_encode_and_null_on_mrecv() {
        const STATUS: i32 = 256; // 20-byte guest MPI_Status
        const FLAG: i32 = 288;
        const MSG: i32 = 292;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            stmts.push(if_else(
                rank.get().eq(int(0)),
                &[
                    store(int(layout::SEND_BUF), 0, int(42)),
                    mpi.send(int(layout::SEND_BUF), int(1), MPI_INT, int(1), int(8)),
                    store(int(layout::SEND_BUF), 0, int(43)),
                    mpi.send(int(layout::SEND_BUF), int(1), MPI_INT, int(1), int(8)),
                    mpi.send(int(layout::SEND_BUF), int(0), MPI_BYTE, int(1), int(10)),
                ],
                &[
                    // Wait for both tag-8 messages to be pending.
                    mpi.recv(int(layout::RECV_BUF), int(0), MPI_BYTE, int(0), int(10)),
                    // Improbe extracts the first message: flag 1, handle 1.
                    call_drop(
                        mpi.improbe,
                        vec![
                            int(0),
                            int(8),
                            int(handles::MPI_COMM_WORLD),
                            int(FLAG),
                            int(MSG),
                            int(STATUS),
                        ],
                    ),
                    mpi.report(int(0), int(FLAG).load(ValType::I32, 0).to(ValType::F64)),
                    mpi.report(int(1), int(MSG).load(ValType::I32, 0).to(ValType::F64)),
                    // Mrecv delivers message 0 and nulls the handle word.
                    mpi.mrecv(int(layout::RECV_BUF), int(1), MPI_INT, int(MSG), int(STATUS)),
                    mpi.report(int(2), int(layout::RECV_BUF).load(ValType::I32, 0).to(ValType::F64)),
                    mpi.report(int(3), int(MSG).load(ValType::I32, 0).to(ValType::F64)),
                    // The freed slot is reclaimed: Mprobe hands out 1 again.
                    mpi.mprobe(int(0), int(8), int(MSG), int(STATUS)),
                    mpi.report(int(4), int(MSG).load(ValType::I32, 0).to(ValType::F64)),
                    mpi.mrecv(int(layout::RECV_BUF), int(1), MPI_INT, int(MSG), int(STATUS)),
                    mpi.report(int(5), int(layout::RECV_BUF).load(ValType::I32, 0).to(ValType::F64)),
                    // Probe miss: flag 0, handle stays MPI_MESSAGE_NULL.
                    call_drop(
                        mpi.improbe,
                        vec![
                            int(MPI_ANY_SOURCE),
                            int(8),
                            int(handles::MPI_COMM_WORLD),
                            int(FLAG),
                            int(MSG),
                            int(STATUS),
                        ],
                    ),
                    mpi.report(int(6), int(FLAG).load(ValType::I32, 0).to(ValType::F64)),
                    mpi.report(int(7), int(MSG).load(ValType::I32, 0).to(ValType::F64)),
                ],
            ));
            stmts.push(mpi.finalize());
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        let reports: Vec<f64> = result.ranks[1].reports.iter().map(|&(_, v)| v).collect();
        assert_eq!(
            reports,
            vec![1.0, 1.0, 42.0, 0.0, 1.0, 43.0, 0.0, 0.0],
            "flag, handle, payload, nulled, reused handle, payload, miss flag, miss handle"
        );
    }

    /// The master/worker idiom the tentpole exists for: `MPI_Probe` +
    /// `MPI_Get_count` sizing a dynamic receive.
    #[test]
    fn probe_get_count_drives_dynamic_receive() {
        const STATUS: i32 = 256;
        const CNT: i32 = 288;
        const N: i32 = 5;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let i = Var::new(f, ValType::I32);
            let count = Var::new(f, ValType::I32);
            let sum = Var::new(f, ValType::I32);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            stmts.push(if_else(
                rank.get().eq(int(0)),
                &[
                    // N ints, values 7·i — the receiver learns N only by
                    // probing.
                    for_range(i, int(0), int(N), &[store(
                        int(layout::SEND_BUF) + i.get() * int(4),
                        0,
                        i.get() * int(7),
                    )]),
                    mpi.send(int(layout::SEND_BUF), int(N), MPI_INT, int(1), int(3)),
                ],
                &[
                    mpi.probe(int(0), int(3), int(STATUS)),
                    call_drop(mpi.get_count, vec![int(STATUS), int(MPI_INT), int(CNT)]),
                    count.set(int(CNT).load(ValType::I32, 0)),
                    mpi.recv(int(layout::RECV_BUF), count.get(), MPI_INT, int(0), int(3)),
                    sum.set(int(0)),
                    for_range(i, int(0), count.get(), &[sum.set(
                        sum.get()
                            + (int(layout::RECV_BUF) + i.get() * int(4)).load(ValType::I32, 0),
                    )]),
                    mpi.report(int(0), count.get().to(ValType::F64)),
                    mpi.report(int(1), sum.get().to(ValType::F64)),
                ],
            ));
            stmts.push(mpi.finalize());
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        let expected_sum: i32 = (0..N).map(|k| k * 7).sum();
        assert_eq!(
            result.ranks[1].reports,
            vec![(0, N as f64), (1, expected_sum as f64)]
        );
    }

    /// `MPI_Cancel` + `MPI_Test_cancelled` on an unmatched send: the
    /// rendezvous-sized Isend is retracted (the peer observes nothing),
    /// the Wait surfaces the cancelled status, and the handle word nulls.
    #[test]
    fn cancel_unmatched_send_reports_test_cancelled() {
        const BYTES: i32 = 256 << 10; // above every eager threshold
        const STATUS: i32 = 256;
        const FLAG: i32 = 288;
        let req = layout::SCRATCH + 16;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            stmts.push(if_else(
                rank.get().eq(int(1)),
                &[
                    mpi.isend_nb(int(layout::SEND_BUF), int(BYTES), MPI_BYTE, int(0), 5, int(req)),
                    mpi.cancel(int(req)),
                    call_drop(mpi.wait, vec![int(req), int(STATUS)]),
                    mpi.test_cancelled(int(STATUS), int(FLAG)),
                    mpi.report(int(0), int(FLAG).load(ValType::I32, 0).to(ValType::F64)),
                    mpi.report(int(1), int(req).load(ValType::I32, 0).to(ValType::F64)),
                    // Only now may the peer look for the absence.
                    mpi.send(int(layout::SEND_BUF), int(0), MPI_BYTE, int(0), int(9)),
                ],
                &[
                    mpi.recv(int(layout::RECV_BUF), int(0), MPI_BYTE, int(1), int(9)),
                    // The cancelled message never existed for us.
                    mpi.iprobe(int(1), int(5), int(FLAG), int(STATUS)),
                    mpi.report(int(0), int(FLAG).load(ValType::I32, 0).to(ValType::F64)),
                ],
            ));
            stmts.push(mpi.finalize());
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        assert_eq!(
            result.ranks[1].reports,
            vec![(0, 1.0), (1, 0.0)],
            "cancelled flag set, request handle nulled"
        );
        assert_eq!(result.ranks[0].reports, vec![(0, 0.0)], "retracted message invisible");
    }

    /// Collectives through the full stack, all tiers.
    #[test]
    fn allreduce_through_embedder_all_tiers() {
        for tier in wasm_engine::Tier::ALL {
            let mut b = ModuleBuilder::new();
            b.memory(layout::PAGES, None);
            let mpi = MpiImports::declare(&mut b);
            b.func("_start", vec![], vec![], |f| {
                let rank = Var::new(f, ValType::I32);
                let mut stmts = vec![mpi.init()];
                stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
                stmts.extend([
                    store(int(layout::SEND_BUF), 0, rank.get().to(ValType::F64) + double(1.0)),
                    mpi.allreduce(
                        int(layout::SEND_BUF),
                        int(layout::RECV_BUF),
                        int(1),
                        MPI_DOUBLE,
                        MPI_SUM,
                    ),
                    mpi.report(int(0), int(layout::RECV_BUF).load(ValType::F64, 0)),
                    mpi.finalize(),
                ]);
                emit_block(f, &stmts);
            });
            let wasm = encode_module(&b.finish());
            let result = Runner::new()
                .run(&wasm, JobConfig { np: 3, tier, ..Default::default() })
                .unwrap();
            assert!(result.success(), "tier {tier}");
            // 1 + 2 + 3 on every rank.
            for r in &result.ranks {
                assert_eq!(r.reports, vec![(0, 6.0)], "tier {tier} rank {}", r.rank);
            }
        }
    }

    /// `MPI_Iallreduce` and `MPI_Ialltoall`, each completed by `MPI_Wait`
    /// after guest compute, in both clock modes.
    #[test]
    fn nonblocking_collectives_wait_through_embedder_in_both_clock_modes() {
        let req = layout::SCRATCH + 16;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let j = Var::new(f, ValType::I32);
            let acc = Var::new(f, ValType::I32);
            let compute = for_range(j, int(0), int(500), &[acc.set(acc.get() + j.get())]);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            stmts.extend([
                store(int(layout::SEND_BUF), 0, rank.get().to(ValType::F64) + double(1.0)),
                mpi.iallreduce_nb(
                    int(layout::SEND_BUF),
                    int(layout::RECV_BUF),
                    int(1),
                    MPI_DOUBLE,
                    MPI_SUM,
                    int(req),
                ),
                compute.clone(),
                mpi.wait_nb(int(req)),
                mpi.report(int(0), int(layout::RECV_BUF).load(ValType::F64, 0)),
            ]);
            // Byte `d` of the send buffer goes to rank `d`: 10 × rank + d.
            for d in 0..4 {
                stmts.push(store_u8(int(layout::SEND_BUF + d), 0, rank.get() * int(10) + int(d)));
            }
            stmts.extend([
                mpi.ialltoall_nb(
                    int(layout::SEND_BUF),
                    int(1),
                    MPI_BYTE,
                    int(layout::RECV_BUF),
                    int(req),
                ),
                compute,
                mpi.wait_nb(int(req)),
                // From rank 3: 30 + this rank.
                mpi.report(int(1), int(layout::RECV_BUF).load_u8(3).to(ValType::F64)),
                mpi.report(int(2), acc.get().to(ValType::F64)),
                mpi.finalize(),
            ]);
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());
        for clock in [ClockMode::Real, virtual_clock()] {
            let result = Runner::new()
                .run(&wasm, JobConfig { np: 4, clock: clock.clone(), ..Default::default() })
                .unwrap();
            let errors: Vec<_> = result.ranks.iter().map(|r| &r.error).collect();
            assert!(result.success(), "{clock:?}: {errors:?}");
            for r in &result.ranks {
                // 1 + 2 + 3 + 4, then the block rank 3 sent here.
                let expect = [(0, 10.0), (1, 30.0 + r.rank as f64), (2, 2.0 * 124_750.0)];
                assert_eq!(r.reports, expect, "{clock:?} rank {}", r.rank);
            }
        }
    }

    /// An invalid (datatype, op) pair is `MPI_ERR_OP` at initiation, at
    /// every count — `MPI_BAND` on `MPI_FLOAT` used to be accepted at
    /// count 0 and to fail mid-collective otherwise — and before any
    /// message moves: the job ends with the message totals of the same job
    /// without the six calls. (`mpiwasm_stats` reads the *world's*
    /// counters, so a snapshot pair around the calls also sees whatever a
    /// rank running ahead has sent by then; after `MPI_Finalize` returns
    /// every rank has sent all it will, in either job.)
    #[test]
    fn bitwise_op_on_floats_is_err_op_before_any_message() {
        const TOTALS: i32 = layout::SCRATCH + 64;
        let job = |with_calls: bool| {
            let mut b = ModuleBuilder::new();
            b.memory(layout::PAGES, None);
            let mpi = MpiImports::declare(&mut b);
            b.func("_start", vec![], vec![], |f| {
                let written = Var::new(f, ValType::I32);
                let (sbuf, rbuf) = (int(layout::SEND_BUF), int(layout::RECV_BUF));
                let reduction = |import: u32, count: i32, tail: Vec<Expr>| {
                    let mut args = vec![
                        sbuf.clone(),
                        rbuf.clone(),
                        int(count),
                        int(MPI_FLOAT),
                        int(handles::MPI_BAND),
                    ];
                    args.extend(tail);
                    call(import, args, ValType::I32).to(ValType::F64)
                };
                let world = || int(MPI_COMM_WORLD);
                let mut stmts = vec![mpi.init(), mpi.barrier_world()];
                let counts = if with_calls { &[(0, 0), (1, 4)][..] } else { &[] };
                for &(key, count) in counts {
                    stmts.extend([
                        mpi.report(int(key), reduction(mpi.allreduce, count, vec![world()])),
                        mpi.report(
                            int(key + 2),
                            reduction(mpi.reduce, count, vec![int(0), world()]),
                        ),
                        mpi.report(
                            int(key + 4),
                            reduction(mpi.iallreduce, count, vec![world(), int(layout::SCRATCH)]),
                        ),
                    ]);
                }
                stmts.extend([mpi.finalize(), mpi.stats(int(TOTALS), int(64), written)]);
                // Words 0 and 3 count eager and rendezvous messages.
                for (key, word) in [(6, 0), (7, 24)] {
                    let sent = int(TOTALS).load(ValType::I64, word);
                    stmts.push(mpi.report(int(key), sent.to(ValType::F64)));
                }
                emit_block(f, &stmts);
            });
            let wasm = encode_module(&b.finish());
            let result =
                Runner::new().run(&wasm, JobConfig { np: 2, ..Default::default() }).unwrap();
            assert!(
                result.success(),
                "{:?}",
                result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>()
            );
            result.ranks.into_iter().map(|r| r.reports).collect::<Vec<_>>()
        };
        let (control, failing) = (job(false), job(true));
        let err_op = f64::from(mpi_substrate::MpiError::InvalidOp(0).code());
        for (rank, (quiet, mut reports)) in control.into_iter().zip(failing).enumerate() {
            reports.sort_by_key(|&(key, _)| key);
            let mut expect: Vec<(i32, f64)> = (0..6).map(|key| (key, err_op)).collect();
            expect.extend(quiet);
            assert_eq!(reports, expect, "rank {rank}");
        }
    }

    /// Conformance pin for the `MPI_Get_count` rounding bug: a byte count
    /// that is not a multiple of the datatype size must yield
    /// `MPI_UNDEFINED`, while `MPI_Get_elements` still counts the whole
    /// basic elements. Also pins the MPI_ERROR status word (offset +8)
    /// as MPI_SUCCESS on a clean receive, and `MPI_Type_free` writing
    /// `MPI_DATATYPE_NULL`.
    #[test]
    fn get_count_undefined_on_partial_element() {
        const STATUS: i32 = 256;
        const CNT: i32 = 288;
        const TYPE: i32 = 296;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            stmts.push(if_else(
                rank.get().eq(int(0)),
                // 8 bytes: two full ints, 2/3 of the 12-byte derived type.
                &[mpi.send(int(layout::SEND_BUF), int(8), MPI_BYTE, int(1), int(3))],
                &[
                    mpi.type_contiguous(int(3), MPI_INT, int(TYPE)),
                    mpi.type_commit(int(TYPE)),
                    call_drop(
                        mpi.recv,
                        vec![
                            int(layout::RECV_BUF),
                            int(8),
                            int(MPI_BYTE),
                            int(0),
                            int(3),
                            int(MPI_COMM_WORLD),
                            int(STATUS),
                        ],
                    ),
                    // 8 % 12 != 0 -> MPI_UNDEFINED, not floor(8/12).
                    call_drop(
                        mpi.get_count,
                        vec![int(STATUS), int(TYPE).load(ValType::I32, 0), int(CNT)],
                    ),
                    mpi.report(int(0), int(CNT).load(ValType::I32, 0).to(ValType::F64)),
                    // ...but two whole basic ints did arrive.
                    call_drop(
                        mpi.get_elements,
                        vec![int(STATUS), int(TYPE).load(ValType::I32, 0), int(CNT)],
                    ),
                    mpi.report(int(1), int(CNT).load(ValType::I32, 0).to(ValType::F64)),
                    // Divisible by the primitive size -> exact count.
                    call_drop(mpi.get_count, vec![int(STATUS), int(MPI_INT), int(CNT)]),
                    mpi.report(int(2), int(CNT).load(ValType::I32, 0).to(ValType::F64)),
                    // MPI_ERROR word of a successful receive.
                    mpi.report(int(3), int(STATUS).load(ValType::I32, 8).to(ValType::F64)),
                    mpi.type_free(int(TYPE)),
                    mpi.report(int(4), int(TYPE).load(ValType::I32, 0).to(ValType::F64)),
                ],
            ));
            stmts.push(mpi.finalize());
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        assert_eq!(
            result.ranks[1].reports,
            vec![(0, -1.0), (1, 2.0), (2, 2.0), (3, 0.0), (4, -2.0)],
            "Get_count UNDEFINED, Get_elements 2, int count 2, MPI_ERROR success, freed handle null"
        );
    }

    /// Derived-datatype roundtrip in both clock modes: a strided
    /// `MPI_Type_vector` is packed by the host on send (receiver sees a
    /// dense int stream) and scattered back on a derived receive.
    #[test]
    fn type_vector_pack_and_scatter_roundtrip() {
        const TYPE: i32 = 256;
        for clock in [ClockMode::Real, virtual_clock()] {
            let mut b = ModuleBuilder::new();
            b.memory(layout::PAGES, None);
            let mpi = MpiImports::declare(&mut b);
            b.func("_start", vec![], vec![], |f| {
                let rank = Var::new(f, ValType::I32);
                let i = Var::new(f, ValType::I32);
                let sum = Var::new(f, ValType::I32);
                let mut stmts = vec![mpi.init()];
                stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
                stmts.extend([
                    // 4 blocks of 2 ints, stride 4: picks elements
                    // 0,1, 4,5, 8,9, 12,13 out of a 16-int region.
                    mpi.type_vector(int(4), int(2), int(4), MPI_INT, int(TYPE)),
                    mpi.type_commit(int(TYPE)),
                ]);
                stmts.push(if_else(
                    rank.get().eq(int(0)),
                    &[
                        for_range(i, int(0), int(16), &[store(
                            int(layout::SEND_BUF) + i.get() * int(4),
                            0,
                            i.get(),
                        )]),
                        mpi.send_dt(
                            int(layout::SEND_BUF),
                            int(1),
                            int(TYPE).load(ValType::I32, 0),
                            int(1),
                            int(1),
                        ),
                        // The peer echoes the dense stream; scatter it back
                        // through the same vector type.
                        mpi.recv_dt(
                            int(layout::RECV_BUF),
                            int(1),
                            int(TYPE).load(ValType::I32, 0),
                            int(1),
                            int(2),
                        ),
                        sum.set(int(0)),
                        for_range(i, int(0), int(16), &[sum.set(
                            sum.get()
                                + (int(layout::RECV_BUF) + i.get() * int(4))
                                    .load(ValType::I32, 0),
                        )]),
                        mpi.report(int(0), sum.get().to(ValType::F64)),
                        // A gap element stays zero; a strided slot holds its
                        // original value.
                        mpi.report(int(1), int(layout::RECV_BUF).load(ValType::I32, 8).to(ValType::F64)),
                        mpi.report(int(2), int(layout::RECV_BUF).load(ValType::I32, 16).to(ValType::F64)),
                    ],
                    &[
                        mpi.recv(int(layout::RECV_BUF), int(8), MPI_INT, int(0), int(1)),
                        sum.set(int(0)),
                        for_range(i, int(0), int(8), &[sum.set(
                            sum.get()
                                + (int(layout::RECV_BUF) + i.get() * int(4))
                                    .load(ValType::I32, 0),
                        )]),
                        mpi.report(int(0), sum.get().to(ValType::F64)),
                        mpi.send(int(layout::RECV_BUF), int(8), MPI_INT, int(0), int(2)),
                    ],
                ));
                stmts.push(mpi.type_free(int(TYPE)));
                stmts.push(mpi.finalize());
                emit_block(f, &stmts);
            });
            let wasm = encode_module(&b.finish());
            let result = Runner::new()
                .run(&wasm, JobConfig { np: 2, clock: clock.clone(), ..Default::default() })
                .unwrap();
            let errors: Vec<_> = result.ranks.iter().map(|r| &r.error).collect();
            assert!(result.success(), "{clock:?}: {errors:?}");
            // 0+1+4+5+8+9+12+13 = 52 on the dense receiver; the scatter
            // restores the same mass with zeros in the gaps.
            assert_eq!(result.ranks[1].reports, vec![(0, 52.0)], "{clock:?}");
            assert_eq!(
                result.ranks[0].reports,
                vec![(0, 52.0), (1, 0.0), (2, 4.0)],
                "{clock:?}: scatter sum, gap zero, strided slot"
            );
        }
    }

    /// Synchronous sends (blocking and nonblocking) deliver correctly
    /// below the eager threshold in both clock modes — the receipt-ack
    /// handshake must not deadlock or corrupt the payload.
    #[test]
    fn ssend_and_issend_deliver_below_threshold() {
        const REQ: i32 = 256;
        for clock in [ClockMode::Real, virtual_clock()] {
            let mut b = ModuleBuilder::new();
            b.memory(layout::PAGES, None);
            let mpi = MpiImports::declare(&mut b);
            b.func("_start", vec![], vec![], |f| {
                let rank = Var::new(f, ValType::I32);
                let i = Var::new(f, ValType::I32);
                let sum = Var::new(f, ValType::I32);
                let mut stmts = vec![mpi.init()];
                stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
                stmts.push(if_else(
                    rank.get().eq(int(0)),
                    &[
                        for_range(i, int(0), int(4), &[store(
                            int(layout::SEND_BUF) + i.get() * int(4),
                            0,
                            (i.get() + int(1)) * int(10),
                        )]),
                        mpi.ssend(int(layout::SEND_BUF), int(4), MPI_INT, int(1), int(1)),
                        call_drop(
                            mpi.issend,
                            vec![
                                int(layout::SEND_BUF),
                                int(4),
                                int(MPI_INT),
                                int(1),
                                int(2),
                                int(MPI_COMM_WORLD),
                                int(REQ),
                            ],
                        ),
                        call_drop(mpi.wait, vec![int(REQ), int(MPI_STATUS_IGNORE)]),
                        mpi.report(int(0), int(REQ).load(ValType::I32, 0).to(ValType::F64)),
                    ],
                    &[
                        mpi.recv(int(layout::RECV_BUF), int(4), MPI_INT, int(0), int(1)),
                        mpi.recv(int(layout::RECV_BUF) + int(64), int(4), MPI_INT, int(0), int(2)),
                        sum.set(int(0)),
                        for_range(i, int(0), int(4), &[sum.set(
                            sum.get()
                                + (int(layout::RECV_BUF) + i.get() * int(4)).load(ValType::I32, 0)
                                + (int(layout::RECV_BUF) + int(64) + i.get() * int(4))
                                    .load(ValType::I32, 0),
                        )]),
                        mpi.report(int(0), sum.get().to(ValType::F64)),
                    ],
                ));
                stmts.push(mpi.finalize());
                emit_block(f, &stmts);
            });
            let wasm = encode_module(&b.finish());
            let result = Runner::new()
                .run(&wasm, JobConfig { np: 2, clock: clock.clone(), ..Default::default() })
                .unwrap();
            let errors: Vec<_> = result.ranks.iter().map(|r| &r.error).collect();
            assert!(result.success(), "{clock:?}: {errors:?}");
            // Issend's request handle nulled; both payloads summed:
            // 2 * (10+20+30+40).
            assert_eq!(result.ranks[0].reports, vec![(0, 0.0)], "{clock:?}");
            assert_eq!(result.ranks[1].reports, vec![(0, 200.0)], "{clock:?}");
        }
    }

    /// Buffered sends: `MPI_Bsend` without an attached buffer returns
    /// MPI_ERR_BUFFER; with one attached it completes *locally* — the
    /// sender detaches and sends a second message before the receiver
    /// posts anything, and the receiver matches the two out of order.
    #[test]
    fn bsend_requires_attach_and_completes_locally() {
        const DETACH_PTR: i32 = 256;
        const DETACH_SZ: i32 = 260;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let i = Var::new(f, ValType::I32);
            let sum = Var::new(f, ValType::I32);
            let err = Var::new(f, ValType::I32);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            stmts.push(if_else(
                rank.get().eq(int(0)),
                &[
                    for_range(i, int(0), int(4), &[store(
                        int(layout::SEND_BUF) + i.get() * int(4),
                        0,
                        (i.get() + int(1)) * int(10),
                    )]),
                    // No buffer attached yet: MPI_ERR_BUFFER.
                    err.set(call(
                        mpi.bsend,
                        vec![
                            int(layout::SEND_BUF),
                            int(4),
                            int(MPI_INT),
                            int(1),
                            int(7),
                            int(MPI_COMM_WORLD),
                        ],
                        ValType::I32,
                    )),
                    mpi.report(int(0), err.get().to(ValType::F64)),
                    mpi.buffer_attach(int(layout::HEAP), int(1 << 16)),
                    mpi.bsend(int(layout::SEND_BUF), int(4), MPI_INT, int(1), int(7)),
                    mpi.buffer_detach(int(DETACH_PTR), int(DETACH_SZ)),
                    mpi.report(int(1), int(DETACH_SZ).load(ValType::I32, 0).to(ValType::F64)),
                    // Reaching here before the peer posts any receive
                    // proves local completion; the peer matches this tag
                    // first.
                    mpi.send(int(layout::SEND_BUF), int(0), MPI_BYTE, int(1), int(8)),
                ],
                &[
                    mpi.recv(int(layout::RECV_BUF), int(0), MPI_BYTE, int(0), int(8)),
                    mpi.recv(int(layout::RECV_BUF), int(4), MPI_INT, int(0), int(7)),
                    sum.set(int(0)),
                    for_range(i, int(0), int(4), &[sum.set(
                        sum.get()
                            + (int(layout::RECV_BUF) + i.get() * int(4)).load(ValType::I32, 0),
                    )]),
                    mpi.report(int(0), sum.get().to(ValType::F64)),
                ],
            ));
            stmts.push(mpi.finalize());
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        assert_eq!(
            result.ranks[0].reports,
            vec![(0, 1.0), (1, 65536.0)],
            "MPI_ERR_BUFFER without attach, detach returns the attached size"
        );
        assert_eq!(result.ranks[1].reports, vec![(0, 100.0)]);
    }

    /// Groups and `MPI_Comm_create`: exclude rank 0 from the world group,
    /// build a communicator from the remainder, and run a collective on
    /// it. The excluded rank gets MPI_COMM_NULL and MPI_UNDEFINED.
    #[test]
    fn group_excl_comm_create_runs_collective() {
        const GRP: i32 = 256;
        const NG: i32 = 260;
        const SZ: i32 = 264;
        const VAL: i32 = 268;
        const COMM2: i32 = 272;
        const IDX: i32 = 276;
        const SB: i32 = 288;
        const RB: i32 = 296;
        let mut b = ModuleBuilder::new();
        b.memory(layout::PAGES, None);
        let mpi = MpiImports::declare(&mut b);
        b.func("_start", vec![], vec![], |f| {
            let rank = Var::new(f, ValType::I32);
            let mut stmts = vec![mpi.init()];
            stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
            stmts.extend([
                call_drop(mpi.comm_group, vec![int(MPI_COMM_WORLD), int(GRP)]),
                call_drop(mpi.group_size, vec![int(GRP).load(ValType::I32, 0), int(SZ)]),
                mpi.report(int(0), int(SZ).load(ValType::I32, 0).to(ValType::F64)),
                call_drop(mpi.group_rank, vec![int(GRP).load(ValType::I32, 0), int(VAL)]),
                mpi.report(int(1), int(VAL).load(ValType::I32, 0).to(ValType::F64)),
                // Drop rank 0 from the group.
                store(int(IDX), 0, int(0)),
                call_drop(
                    mpi.group_excl,
                    vec![int(GRP).load(ValType::I32, 0), int(1), int(IDX), int(NG)],
                ),
                call_drop(mpi.group_rank, vec![int(NG).load(ValType::I32, 0), int(VAL)]),
                mpi.report(int(2), int(VAL).load(ValType::I32, 0).to(ValType::F64)),
                // Collective over MPI_COMM_WORLD: every rank calls it.
                call_drop(
                    mpi.comm_create,
                    vec![int(MPI_COMM_WORLD), int(NG).load(ValType::I32, 0), int(COMM2)],
                ),
                mpi.report(int(3), int(COMM2).load(ValType::I32, 0).to(ValType::F64)),
                if_else(
                    int(COMM2).load(ValType::I32, 0).ne(int(-1)),
                    &[
                        store(int(SB), 0, rank.get() + int(1)),
                        call_drop(
                            mpi.allreduce,
                            vec![
                                int(SB),
                                int(RB),
                                int(1),
                                int(MPI_INT),
                                int(MPI_SUM),
                                int(COMM2).load(ValType::I32, 0),
                            ],
                        ),
                        mpi.report(int(4), int(RB).load(ValType::I32, 0).to(ValType::F64)),
                    ],
                    &[],
                ),
                call_drop(mpi.group_free, vec![int(NG)]),
                call_drop(mpi.group_free, vec![int(GRP)]),
                mpi.report(int(5), int(GRP).load(ValType::I32, 0).to(ValType::F64)),
            ]);
            stmts.push(mpi.finalize());
            emit_block(f, &stmts);
        });
        let wasm = encode_module(&b.finish());
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 3, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks.iter().map(|r| &r.error).collect::<Vec<_>>());
        // World group: size 3, own rank. New group: rank 0 excluded.
        assert_eq!(
            result.ranks[0].reports,
            vec![(0, 3.0), (1, 0.0), (2, -1.0), (3, -1.0), (5, 0.0)],
            "excluded rank: MPI_UNDEFINED group rank, MPI_COMM_NULL, freed group nulls"
        );
        for (r, new_rank) in [(1usize, 0.0), (2usize, 1.0)] {
            let comm_handle = result.ranks[r].reports[3].1;
            assert!(comm_handle >= 2.0, "rank {r} got dynamic comm {comm_handle}");
            assert_eq!(result.ranks[r].reports[0], (0, 3.0), "rank {r}");
            assert_eq!(result.ranks[r].reports[1], (1, r as f64), "rank {r}");
            assert_eq!(result.ranks[r].reports[2], (2, new_rank), "rank {r}");
            // 1-based world ranks of members: 2 + 3.
            assert_eq!(result.ranks[r].reports[4], (4, 5.0), "rank {r}");
            assert_eq!(result.ranks[r].reports[5], (5, 0.0), "rank {r}");
        }
    }
}
