//! The `Env` structure: per-rank global state for the translations
//! (paper §3.7).
//!
//! Each MPI rank runs one instance of the embedder with one Wasm module
//! instance; the instance's data slot holds an `Env` containing the rank's
//! communicator table, the WASI context, and the instrumentation counters.

use mpi_substrate::{Comm, MpiError, MpiMessage, RequestTable};
use wasi_layer::WasiCtx;

use crate::translate::{handles, DerivedDatatype, TranslationStats};

/// MPI-side state of one rank.
///
/// # Guest request-handle encoding
///
/// A guest `MPI_Request` is an `i32` handle into this rank's request
/// table: handle `h ≥ 1` maps to table slot `h - 1`; `0` is
/// `MPI_REQUEST_NULL`. Each slot holds a live substrate
/// [`mpi_substrate::Request`] — a true pending operation (eager send
/// awaiting credit, rendezvous handshake in flight, posted receive, or a
/// nonblocking-collective state machine). One-shot requests are removed
/// from the table when they complete and the guest's handle word is
/// rewritten to `MPI_REQUEST_NULL`; persistent requests (from
/// `MPI_Send_init`/`MPI_Recv_init`) stay in the table across
/// `Start`/completion cycles until `MPI_Request_free`. The table itself
/// is the substrate's lock-protected [`mpi_substrate::RequestTable`], so
/// under `MPI_THREAD_MULTIPLE` several threads of one rank may insert,
/// progress, and retire requests concurrently (see
/// [`MpiState::thread_level`]).
///
/// # Guest message-handle encoding
///
/// A guest `MPI_Message` (from `MPI_Mprobe`/`MPI_Improbe`) is an `i32`
/// handle into this rank's message table with the same shape: handle
/// `h ≥ 1` maps to slot `h - 1`, `0` is `MPI_MESSAGE_NULL`. Each slot
/// owns a substrate [`mpi_substrate::MpiMessage`] — a message atomically
/// *extracted* from the pending queue at probe time, so no concurrent
/// receive can steal it. `MPI_Mrecv`/`MPI_Imrecv` consume the slot and
/// rewrite the guest's handle word to `MPI_MESSAGE_NULL`.
///
/// # Guest thread-level encoding
///
/// `MPI_Init_thread`'s `required`/`provided` use the standard ordering
/// `MPI_THREAD_SINGLE(0) < FUNNELED(1) < SERIALIZED(2) < MULTIPLE(3)`.
/// The substrate supports `MPI_THREAD_MULTIPLE` (mailbox matching and
/// the request table are lock-protected), so `provided` is always the
/// clamped `required`; plain `MPI_Init` records `MPI_THREAD_SINGLE`.
/// `MPI_Query_thread` reads the recorded level back.
///
/// The table stores `Request<'static>` built from raw pointers into the
/// instance's linear memory. This is sound because the embedder pins
/// linear memory while requests are pending: the benchmark guests
/// pre-size their memories, and growing memory with requests in flight is
/// undefined behavior in real MPI terms too (the buffer moved).
pub struct MpiState {
    /// Communicator handle table: guest handle = index.
    /// Slot 0 is `MPI_COMM_WORLD`, slot 1 is `MPI_COMM_SELF`.
    comms: HandleTable<Comm>,
    /// Nonblocking-request table: guest handle = index + 1
    /// (0 is `MPI_REQUEST_NULL`). Lock-protected for thread-multiple
    /// embedders; detached requests (freed while in flight) live inside
    /// it until the peer drains them. Slots are append-only, so table
    /// order is posting order and progress retires older requests first;
    /// the freed tail is reclaimed, bounding the table by the
    /// live-request high-water mark. A `request_mut` guard holds the
    /// table lock: drop it before any other table call (not reentrant).
    pub(crate) requests: RequestTable,
    /// Matched-probe message table: guest handle = index + 1
    /// (0 is `MPI_MESSAGE_NULL`). Slot shape mirrors the request table:
    /// freed interior slots are not reused, the freed tail is reclaimed.
    messages: HandleTable<MpiMessage>,
    /// Derived-datatype table: guest handle =
    /// `handles::FIRST_DERIVED_DATATYPE + index` (handles below that are
    /// the predefined primitives). Freed slots are reused.
    pub(crate) dtypes: HandleTable<DerivedDatatype>,
    /// Group table (`MPI_Comm_group`/`Group_incl`/…): each group is a
    /// list of *world* ranks in group-rank order. Guest handle =
    /// index + 1 (0 is `MPI_GROUP_NULL`); freed slots are reused.
    pub(crate) groups: HandleTable<Vec<u32>>,
    /// Buffered-send attach buffer (`MPI_Buffer_attach`): guest pointer
    /// and size. The host never reads the guest buffer — payloads are
    /// copied host-side at `Bsend` — it only enforces MPI's accounting:
    /// attach before buffered sends, and sends no larger than the
    /// attached capacity.
    attach_buffer: Option<(u32, u32)>,
    /// `MPI_Init` has been called.
    pub initialized: bool,
    /// `MPI_Finalize` has been called.
    pub finalized: bool,
    /// Thread level granted at initialization (`MPI_Init_thread`):
    /// `handles::MPI_THREAD_SINGLE` … `MPI_THREAD_MULTIPLE`.
    pub thread_level: i32,
    /// Figure 6 instrumentation; populated when `instrument` is set.
    pub stats: TranslationStats,
    pub instrument: bool,
    /// Extra per-MPI-call software overhead (µs) charged to the rank's
    /// virtual clock — the measured embedder cost injected into
    /// simulated-time runs. Zero for native-path runs and real-time runs.
    pub wasm_call_overhead_us: f64,
}

/// One guest handle space: handle `first + i` names slot `i`. Every
/// handle the guest passes goes through [`HandleTable::index`], so a
/// hostile value (negative, `i32::MIN`, stale, past the end) is the
/// table's `invalid` error and never host arithmetic.
pub(crate) struct HandleTable<T> {
    slots: Vec<Option<T>>,
    first: i32,
    /// Freed slots are handed out again. Off for the message table, whose
    /// handles stay in extraction order; its freed tail is popped instead.
    reuse: bool,
    invalid: fn(u32) -> MpiError,
}

impl<T> HandleTable<T> {
    fn new(first: i32, reuse: bool, invalid: fn(u32) -> MpiError) -> Self {
        HandleTable { slots: Vec::new(), first, reuse, invalid }
    }

    fn index(&self, handle: i32) -> Result<usize, MpiError> {
        usize::try_from(handle as i64 - self.first as i64)
            .ok()
            .filter(|&i| i < self.slots.len())
            .ok_or((self.invalid)(handle as u32))
    }

    pub(crate) fn insert(&mut self, value: T) -> i32 {
        let free = if self.reuse { self.slots.iter().position(|s| s.is_none()) } else { None };
        let idx = free.unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[idx] = Some(value);
        self.first + idx as i32
    }

    pub(crate) fn get(&self, handle: i32) -> Result<&T, MpiError> {
        self.slots[self.index(handle)?].as_ref().ok_or((self.invalid)(handle as u32))
    }

    fn get_mut(&mut self, handle: i32) -> Result<&mut T, MpiError> {
        let idx = self.index(handle)?;
        self.slots[idx].as_mut().ok_or((self.invalid)(handle as u32))
    }

    /// Free the slot.
    pub(crate) fn take(&mut self, handle: i32) -> Result<T, MpiError> {
        let idx = self.index(handle)?;
        let value = self.slots[idx].take().ok_or((self.invalid)(handle as u32))?;
        while !self.reuse && self.slots.last().is_some_and(|s| s.is_none()) {
            self.slots.pop();
        }
        Ok(value)
    }

    fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

impl MpiState {
    /// Build the state for one rank. `world` is the rank's world
    /// communicator; `comm_self` its size-1 self communicator.
    pub fn new(world: Comm, comm_self: Comm) -> MpiState {
        let mut comms = HandleTable::new(handles::MPI_COMM_WORLD, true, MpiError::InvalidComm);
        comms.insert(world);
        comms.insert(comm_self);
        MpiState {
            comms,
            requests: RequestTable::new(),
            messages: HandleTable::new(1, false, MpiError::InvalidComm),
            dtypes: HandleTable::new(
                handles::FIRST_DERIVED_DATATYPE,
                true,
                MpiError::InvalidDatatype,
            ),
            groups: HandleTable::new(1, true, MpiError::InvalidComm),
            attach_buffer: None,
            initialized: false,
            finalized: false,
            thread_level: handles::MPI_THREAD_SINGLE,
            stats: TranslationStats::new(),
            instrument: false,
            wasm_call_overhead_us: 0.0,
        }
    }

    /// Resolve a guest communicator handle.
    pub fn comm(&self, handle: i32) -> Result<&Comm, MpiError> {
        self.comms.get(handle)
    }

    /// The world communicator.
    pub fn world(&self) -> &Comm {
        self.comm(handles::MPI_COMM_WORLD).expect("world communicator always present")
    }

    /// Register a derived communicator; returns its guest handle. Freed
    /// slots are reused (the two predefined handles are never free).
    pub fn insert_comm(&mut self, comm: Comm) -> i32 {
        self.comms.insert(comm)
    }

    /// Free a derived communicator handle (`MPI_Comm_free`). The
    /// predefined handles cannot be freed.
    pub fn free_comm(&mut self, handle: i32) -> Result<(), MpiError> {
        if handle < handles::FIRST_DYNAMIC_COMM {
            return Err(MpiError::InvalidComm(handle as u32));
        }
        self.comms.take(handle).map(drop)
    }

    /// Number of live communicators (diagnostics).
    pub fn live_comms(&self) -> usize {
        self.comms.live()
    }

    /// Register an extracted matched-probe message; returns its guest
    /// handle (≥ 1; `0` is `MPI_MESSAGE_NULL`).
    pub fn insert_message(&mut self, msg: MpiMessage) -> i32 {
        self.messages.insert(msg)
    }

    /// Consume a message handle (`MPI_Mrecv`/`MPI_Imrecv`).
    pub fn take_message(&mut self, handle: i32) -> Result<MpiMessage, MpiError> {
        self.messages.take(handle)
    }

    /// Number of live (unreceived) matched-probe messages.
    pub fn live_messages(&self) -> usize {
        self.messages.live()
    }

    /// `MPI_Type_commit`: mark the type usable for communication.
    pub fn commit_dtype(&mut self, handle: i32) -> Result<(), MpiError> {
        if handle < handles::FIRST_DERIVED_DATATYPE {
            // Committing a predefined type is a no-op, as in MPI.
            return crate::translate::datatype_from_handle(handle).map(|_| ());
        }
        self.dtypes.get_mut(handle).map(|d| d.committed = true)
    }

    // --- buffered-send attach buffer ------------------------------------

    /// `MPI_Buffer_attach`. MPI allows one attached buffer at a time.
    pub fn attach_buffer(&mut self, ptr: u32, size: u32) -> Result<(), MpiError> {
        if self.attach_buffer.is_some() {
            return Err(MpiError::NoBuffer { needed: size as usize, available: 0 });
        }
        self.attach_buffer = Some((ptr, size));
        Ok(())
    }

    /// `MPI_Buffer_detach`: returns the attached `(ptr, size)`.
    pub fn detach_buffer(&mut self) -> Result<(u32, u32), MpiError> {
        self.attach_buffer
            .take()
            .ok_or(MpiError::NoBuffer { needed: 0, available: 0 })
    }

    /// Capacity check for a buffered send of `len` bytes.
    pub fn check_buffered(&self, len: usize) -> Result<(), MpiError> {
        match self.attach_buffer {
            Some((_, size)) if len <= size as usize => Ok(()),
            Some((_, size)) => {
                Err(MpiError::NoBuffer { needed: len, available: size as usize })
            }
            None => Err(MpiError::NoBuffer { needed: len, available: 0 }),
        }
    }

    /// Charge the configured per-call embedder overhead to the rank's
    /// virtual clock (no-op in real-clock worlds).
    pub fn charge_wasm_overhead(&self) {
        if self.wasm_call_overhead_us > 0.0 {
            self.world().charge_overhead_us(self.wasm_call_overhead_us);
        }
    }
}

/// Everything an instance's data slot holds: MPI state + WASI context.
pub struct Env {
    pub mpi: MpiState,
    pub wasi: WasiCtx,
    /// Values reported by the guest through the `bench.report` hook:
    /// `(key, value)` pairs, in call order. Benchmark guests use this to
    /// hand measured timings back to the harness without text parsing.
    pub reports: Vec<(i32, f64)>,
}

impl Env {
    pub fn new(mpi: MpiState, wasi: WasiCtx) -> Env {
        Env { mpi, wasi, reports: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_substrate::run_world;
    use wasi_layer::SharedFs;

    fn with_env(f: impl Fn(&mut Env) + Send + Sync + 'static) {
        run_world(2, move |comm| {
            let comm_self = comm.split(comm.rank() as i32, 0).unwrap().unwrap();
            let mpi = MpiState::new(comm, comm_self);
            let wasi = WasiCtx::new(SharedFs::memory(), vec![]);
            let mut env = Env::new(mpi, wasi);
            f(&mut env);
        });
    }

    #[test]
    fn predefined_handles_resolve() {
        with_env(|env| {
            assert_eq!(env.mpi.comm(handles::MPI_COMM_WORLD).unwrap().size(), 2);
            assert_eq!(env.mpi.comm(handles::MPI_COMM_SELF).unwrap().size(), 1);
            assert!(env.mpi.comm(5).is_err());
            assert!(env.mpi.comm(-1).is_err());
        });
    }

    #[test]
    fn insert_and_free_comm_reuses_slots() {
        with_env(|env| {
            let dup = env.mpi.world().dup().unwrap();
            let h = env.mpi.insert_comm(dup);
            assert_eq!(h, handles::FIRST_DYNAMIC_COMM);
            assert_eq!(env.mpi.live_comms(), 3);
            env.mpi.free_comm(h).unwrap();
            assert_eq!(env.mpi.live_comms(), 2);
            assert!(env.mpi.comm(h).is_err());
            let dup2 = env.mpi.world().dup().unwrap();
            assert_eq!(env.mpi.insert_comm(dup2), h, "slot reused");
        });
    }

    #[test]
    fn predefined_comms_cannot_be_freed() {
        with_env(|env| {
            assert!(env.mpi.free_comm(handles::MPI_COMM_WORLD).is_err());
            assert!(env.mpi.free_comm(handles::MPI_COMM_SELF).is_err());
            assert!(env.mpi.free_comm(99).is_err());
        });
    }

    #[test]
    fn message_table_encodes_index_plus_one_and_reclaims() {
        with_env(|env| {
            // A self-send makes a message probe-extractable locally.
            let comm_self = env.mpi.comm(handles::MPI_COMM_SELF).unwrap();
            comm_self.send(b"one", 0, 1).unwrap();
            comm_self.send(b"two", 0, 1).unwrap();
            let (m1, _) = comm_self.improbe(mpi_substrate::ANY_SOURCE, mpi_substrate::ANY_TAG)
                .unwrap()
                .expect("first message pending");
            let (m2, _) = comm_self.improbe(mpi_substrate::ANY_SOURCE, mpi_substrate::ANY_TAG)
                .unwrap()
                .expect("second message pending");
            let h1 = env.mpi.insert_message(m1);
            let h2 = env.mpi.insert_message(m2);
            assert_eq!((h1, h2), (1, 2));
            assert_eq!(env.mpi.live_messages(), 2);
            assert!(env.mpi.take_message(0).is_err(), "0 is MPI_MESSAGE_NULL");
            assert!(env.mpi.take_message(3).is_err());

            let mut buf = [0u8; 3];
            let st = env.mpi.take_message(h1).unwrap().recv(&mut buf).unwrap();
            assert_eq!((&buf, st.bytes), (b"one", 3));
            assert!(env.mpi.take_message(h1).is_err(), "slot consumed");
            // Dropping the second unreceived requeues it; the emptied
            // tail is reclaimed, so the next insert reuses handle 1.
            drop(env.mpi.take_message(h2).unwrap());
            assert_eq!(env.mpi.live_messages(), 0);
            let comm_self = env.mpi.comm(handles::MPI_COMM_SELF).unwrap();
            let (m, st) = comm_self.improbe(mpi_substrate::ANY_SOURCE, mpi_substrate::ANY_TAG)
                .unwrap()
                .expect("dropped message requeued");
            assert_eq!(st.bytes, 3);
            assert_eq!(env.mpi.insert_message(m), 1, "tail reclaimed");
            env.mpi.take_message(1).unwrap().recv(&mut buf).unwrap();
            assert_eq!(&buf, b"two");
        });
    }

    #[test]
    fn thread_level_defaults_to_single() {
        with_env(|env| {
            assert_eq!(env.mpi.thread_level, handles::MPI_THREAD_SINGLE);
        });
    }
}
