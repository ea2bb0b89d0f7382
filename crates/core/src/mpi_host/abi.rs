//! The decoder layer of the guest ABI: what one Wasm parameter word
//! *means*, and the one trampoline every `env.MPI_*` call goes through.
//!
//! A verb's signature is a tuple of the typed decoders below (the shape of
//! wasmtime's `func_wrap`). Its Wasm `FuncType`, the decoding of its
//! argument words and the [`Kind`]s the hostile-ABI sweep substitutes by
//! all come from that one tuple, so they cannot drift apart. Every guest
//! pointer offset (into a status, a handle array, a status array) is
//! computed here, in `u64`, and bounds-checked here: a verb body never
//! adds to a guest address.

use std::any::Any;

use mpi_substrate::{MpiError, Source, Status};
use wasm_engine::error::Trap;
use wasm_engine::runtime::{Instance, Linker, Memory, Slot};
use wasm_engine::types::{FuncType, ValType};

use super::STATUS_SIZE;
use crate::env::Env;
use crate::translate::handles;

/// How a host call ends when it does not succeed: an MPI failure is data
/// (the guest sees its error code, errors-return semantics), an
/// engine-level fault traps the instance.
pub(crate) enum HostError {
    Mpi(MpiError),
    Trap(Trap),
}

impl From<MpiError> for HostError {
    fn from(e: MpiError) -> Self {
        HostError::Mpi(e)
    }
}

impl From<Trap> for HostError {
    fn from(t: Trap) -> Self {
        HostError::Trap(t)
    }
}

pub(crate) type HostResult<T> = Result<T, HostError>;

/// What one `i32` parameter word of a verb is, and so how a bad value in
/// it is answered: `docs/mpi_surface.md` → *Argument checking* has the
/// table. In short, handles, counts, ranks, data buffers and input arrays
/// answer with an MPI error code; addresses the host writes through trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Address of a data buffer, sized by a count and a datatype.
    Buf,
    Count,
    Datatype,
    Comm,
    Op,
    Group,
    /// Destination, source or root.
    Rank,
    Tag,
    /// A plain integer the verb interprets itself (color, key, thread
    /// level, a size) or never looks at (`MPI_Init`'s argc/argv).
    Int,
    /// Address the host writes a result to.
    OutPtr,
    /// Address of a guest word holding a handle the verb reads (and may
    /// null).
    HandlePtr,
    /// Address of an `MPI_Status`, or of an array of them (0 = ignore).
    StatusPtr,
    /// Address of an `i32` input array (handles, counts, ranks) whose
    /// length is another argument.
    ArrayPtr,
}

/// The argument words of one call, consumed left to right.
pub(crate) struct Words<'a>(std::slice::Iter<'a, Slot>);

impl Words<'_> {
    fn i32(&mut self) -> i32 {
        self.0.next().expect("the verb's FuncType is derived from its decoders").i32()
    }

    fn u32(&mut self) -> u32 {
        self.i32() as u32
    }
}

/// A typed argument decoder: the [`Kind`]s of the words it consumes, and
/// how it reads (and, where memory alone can tell, checks) them.
pub(crate) trait Arg: Sized + 'static {
    fn kinds(out: &mut Vec<Kind>);
    fn decode(words: &mut Words<'_>, mem: &Memory) -> HostResult<Self>;
}

/// `impl Arg` for a decoder of the given words.
macro_rules! arg {
    ($name:ty: [$($kind:ident),+], |$words:ident, $mem:ident| $decode:expr) => {
        impl Arg for $name {
            fn kinds(out: &mut Vec<Kind>) {
                out.extend([$(Kind::$kind),+]);
            }
            fn decode($words: &mut Words<'_>, $mem: &Memory) -> HostResult<Self> {
                Ok($decode)
            }
        }
    };
}

/// A signature is a tuple of decoders (tuples nest: `(P2pArgs, OutI32)`).
macro_rules! tuple_args {
    ($($t:ident),*) => {
        impl<$($t: Arg),*> Arg for ($($t,)*) {
            fn kinds(_out: &mut Vec<Kind>) {
                $($t::kinds(_out);)*
            }
            fn decode(_words: &mut Words<'_>, _mem: &Memory) -> HostResult<Self> {
                Ok(($($t::decode(_words, _mem)?,)*))
            }
        }
    };
}
tuple_args!();
tuple_args!(A, B);
tuple_args!(A, B, C);
tuple_args!(A, B, C, D);
tuple_args!(A, B, C, D, E);
tuple_args!(A, B, C, D, E, F);
tuple_args!(A, B, C, D, E, F, G);
tuple_args!(A, B, C, D, E, F, G, H);

/// One word taken at face value: what it means needs the rank's tables,
/// which the verb body consults.
macro_rules! word_args {
    ($($name:ident: $kind:ident),*) => {$(
        #[derive(Clone, Copy)]
        pub(crate) struct $name(pub i32);
        arg!($name: [$kind], |words, _mem| $name(words.i32()));
    )*};
}
word_args!(Count: Count, DtypeH: Datatype, CommH: Comm, OpH: Op, GroupH: Group);
word_args!(Rank: Rank, Tag: Tag, Int: Int);

/// A data-buffer address whose size comes from other arguments.
#[derive(Clone, Copy)]
pub(crate) struct BufPtr(pub u32);
arg!(BufPtr: [Buf], |words, _mem| BufPtr(words.u32()));

impl Rank {
    /// As a destination or root: negatives become ranks no communicator
    /// has, which the substrate rejects.
    pub fn rank(self) -> u32 {
        self.0 as u32
    }

    /// As the source of a receive or probe.
    pub fn source(self) -> Source {
        match self.0 {
            handles::MPI_ANY_SOURCE => Source::Any,
            rank => Source::Rank(rank as u32),
        }
    }
}

impl Tag {
    /// As the tag a receive or probe matches on.
    pub fn matcher(self) -> mpi_substrate::Tag {
        match self.0 {
            handles::MPI_ANY_TAG => mpi_substrate::Tag::Any,
            tag => mpi_substrate::Tag::Value(tag),
        }
    }
}

/// `(buf, count, datatype)`: a data buffer. Sizing it takes the rank's
/// datatype table (and feeds the §4.6 instrumentation), so the verb body
/// checks it, through `translate` and the view helpers.
#[derive(Clone, Copy)]
pub(crate) struct Buf {
    pub ptr: u32,
    pub count: i32,
    pub dtype: i32,
}
arg!(Buf: [Buf, Count, Datatype], |w, _mem| Buf { ptr: w.u32(), count: w.i32(), dtype: w.i32() });

/// Where the host writes one `i32` result (a flag, an index, a size, a
/// new handle). Checked when decoded: a call with a bad out-pointer traps
/// before it has done anything.
#[derive(Clone, Copy)]
pub(crate) struct OutI32(u32);
arg!(OutI32: [OutPtr], |words, mem| OutI32(mem.guest_addr(words.u32(), 0, 4)?));

impl OutI32 {
    pub fn set(self, mem: &mut Memory, value: i32) -> HostResult<()> {
        Ok(mem.write_i32_at(self.0, value)?)
    }
}

/// An output region the verb sizes itself (`MPI_Waitsome`'s indices, a
/// processor name); each access is bounds-checked where it is made.
#[derive(Clone, Copy)]
pub(crate) struct OutBuf(u32);
arg!(OutBuf: [OutPtr], |words, _mem| OutBuf(words.u32()));

impl OutBuf {
    pub fn bytes(self, mem: &mut Memory, len: u32) -> Result<&mut [u8], Trap> {
        mem.slice_mut(self.0, len)
    }

    /// Write element `i` of an `i32` output array.
    pub fn set_i32(self, mem: &mut Memory, i: u32, value: i32) -> Result<(), Trap> {
        mem.write_i32_at(mem.guest_addr(self.0, 4 * i as u64, 4)?, value)
    }
}

/// A guest word holding a handle the verb reads and may rewrite: read —
/// and so bounds-checked — when decoded.
#[derive(Clone, Copy)]
pub(crate) struct HandlePtr {
    ptr: u32,
    pub handle: i32,
}
arg!(HandlePtr: [HandlePtr], |words, mem| {
    let ptr = words.u32();
    HandlePtr { ptr, handle: mem.read_i32_at(ptr)? }
});

impl HandlePtr {
    pub fn set(self, mem: &mut Memory, handle: i32) -> HostResult<()> {
        Ok(mem.write_i32_at(self.ptr, handle)?)
    }
}

/// An `i32` input array whose length the verb knows (another argument,
/// or the communicator's size).
#[derive(Clone, Copy)]
pub(crate) struct I32Array(u32);
arg!(I32Array: [ArrayPtr], |words, _mem| I32Array(words.u32()));

impl I32Array {
    /// The whole `[ptr, ptr + 4·n)` range, checked once: `MPI_ERR_COUNT`
    /// when it leaves memory.
    fn bytes(self, mem: &Memory, n: u32) -> Result<&[u8], MpiError> {
        u32::try_from(4 * n as u64)
            .ok()
            .and_then(|len| mem.slice(self.0, len).ok())
            .ok_or(MpiError::BadCount { bytes: n as usize * 4, type_size: 4 })
    }

    /// The `n` elements — range-checked before any caller sizes an
    /// allocation by `n`.
    pub fn iter(self, mem: &Memory, n: u32) -> Result<impl Iterator<Item = i32> + '_, MpiError> {
        let words = self.bytes(mem, n)?.chunks_exact(4);
        Ok(words.map(|w| i32::from_le_bytes(w.try_into().expect("4 bytes"))))
    }
}

/// `(count, array_of_requests)`: the handle array of a completion call. A
/// negative count is an empty set; the whole range is checked once, when
/// decoded, and is `MPI_ERR_COUNT` when it leaves memory.
#[derive(Clone, Copy)]
pub(crate) struct ReqArray {
    ptr: u32,
    pub len: u32,
}
arg!(ReqArray: [Count, ArrayPtr], |words, mem| {
    let (len, ptr) = (words.i32().max(0) as u32, words.u32());
    I32Array(ptr).bytes(mem, len)?;
    ReqArray { ptr, len }
});

/// `MPI_Wait`/`MPI_Test`'s one handle word, as a one-element array.
impl From<HandlePtr> for ReqArray {
    fn from(word: HandlePtr) -> Self {
        ReqArray { ptr: word.ptr, len: 1 }
    }
}

impl ReqArray {
    /// The handle word of request `i < len`, as it reads now.
    pub fn slot(self, mem: &Memory, i: u32) -> HandlePtr {
        let ptr = mem.guest_addr(self.ptr, 4 * i as u64, 4).expect("range checked when decoded");
        HandlePtr { ptr, handle: mem.read_i32_at(ptr).expect("range checked when decoded") }
    }
}

/// A guest `MPI_Status` (layout at [`STATUS_SIZE`]). All 20 bytes are
/// bounds-checked when decoded — unless it is `MPI_STATUS_IGNORE`, which
/// writes skip — so a status write cannot fail half-way.
#[derive(Clone, Copy)]
pub(crate) struct StatusPtr(u32);
arg!(StatusPtr: [StatusPtr], |words, mem| StatusArray(words.u32()).slot(mem, 0)?);

impl StatusPtr {
    /// The status of an operation that ended with `outcome`: its own
    /// fields and `MPI_SUCCESS`, or the empty status with the failure in
    /// `MPI_ERROR` — `Waitall`/`Waitsome` partial-failure semantics depend
    /// on each failed request's status carrying its own error code.
    pub fn write_outcome(self, mem: &mut Memory, outcome: &Result<Status, MpiError>) {
        match outcome {
            Ok(st) => self.write(mem, st, handles::MPI_SUCCESS),
            Err(e) => self.write(mem, &Status::empty(), e.code()),
        }
    }

    pub fn write(self, mem: &mut Memory, st: &Status, err: i32) {
        if self.0 == handles::MPI_STATUS_IGNORE as u32 {
            return;
        }
        let words = [st.source as i32, st.tag, err, st.bytes as i32, st.cancelled as i32];
        let dst = mem.slice_mut(self.0, STATUS_SIZE).expect("checked when decoded");
        for (word, value) in dst.chunks_exact_mut(4).zip(words) {
            word.copy_from_slice(&value.to_le_bytes());
        }
    }

    /// The `count_bytes` word `MPI_Get_count`/`MPI_Get_elements` divide.
    pub fn count_bytes(self, mem: &Memory) -> Result<u32, Trap> {
        self.word(mem, 3).map(|w| w as u32)
    }

    /// The `cancelled` word `MPI_Test_cancelled` reads.
    pub fn cancelled(self, mem: &Memory) -> Result<bool, Trap> {
        self.word(mem, 4).map(|w| w != 0)
    }

    /// Address 0 is readable memory to these reads, not "ignore".
    fn word(self, mem: &Memory, index: u64) -> Result<i32, Trap> {
        mem.read_i32_at(mem.guest_addr(self.0, 4 * index, 4)?)
    }
}

/// `array_of_statuses` of a completion call (`MPI_STATUSES_IGNORE` = 0).
#[derive(Clone, Copy)]
pub(crate) struct StatusArray(u32);
arg!(StatusArray: [StatusPtr], |words, _mem| StatusArray(words.u32()));

impl StatusArray {
    /// Status slot `i`, bounds-checked; "ignore" stays "ignore".
    pub fn slot(self, mem: &Memory, i: u32) -> Result<StatusPtr, Trap> {
        if self.0 == handles::MPI_STATUSES_IGNORE as u32 {
            return Ok(StatusPtr(handles::MPI_STATUS_IGNORE as u32));
        }
        mem.guest_addr(self.0, i as u64 * STATUS_SIZE as u64, STATUS_SIZE as u64).map(StatusPtr)
    }
}

/// What a verb body returns on success, as the call's one result slot:
/// `()` is `MPI_SUCCESS`.
pub(crate) trait Ret {
    const TYPE: ValType;
    fn slot(self) -> Slot;
}

impl Ret for () {
    const TYPE: ValType = ValType::I32;
    fn slot(self) -> Slot {
        Slot::from_i32(handles::MPI_SUCCESS)
    }
}

impl Ret for i32 {
    const TYPE: ValType = ValType::I32;
    fn slot(self) -> Slot {
        Slot::from_i32(self)
    }
}

impl Ret for f64 {
    const TYPE: ValType = ValType::F64;
    fn slot(self) -> Slot {
        Slot::from_f64(self)
    }
}

/// What a verb body works on: the calling instance's split borrow.
pub(crate) struct Cx<'a> {
    pub mem: &'a mut Memory,
    pub env: &'a mut Env,
}

fn env_of(data: &mut (dyn Any + Send)) -> &mut Env {
    data.downcast_mut::<Env>().expect("instance data is not an mpiwasm Env")
}

/// One row of the guest ABI.
pub struct Verb {
    /// The import's name in module `env`.
    pub name: &'static str,
    /// One [`Kind`] per `i32` parameter word, in order.
    pub params: Vec<Kind>,
    /// `i32` (an MPI error code) or `f64` (`MPI_Wtime`/`MPI_Wtick`).
    pub result: ValType,
    /// Whether a call costs the configured embedder overhead on the
    /// rank's virtual clock (`docs/mpi_surface.md` → *Charged verbs*).
    pub charged: bool,
    register: Box<dyn FnOnce(&mut Linker)>,
}

impl Verb {
    /// Define the import, with the `FuncType` its decoders spell.
    pub(super) fn register(self, linker: &mut Linker) {
        (self.register)(linker)
    }

    /// A verb whose body works on the split borrow: all but two.
    pub(crate) fn new<A: Arg, R: Ret>(
        name: &'static str,
        charged: bool,
        body: impl Fn(&mut Cx<'_>, A) -> HostResult<R> + Send + Sync + 'static,
    ) -> Verb {
        Verb::reentrant(name, charged, move |inst, args| {
            let (mem, data) = inst.parts();
            body(&mut Cx { mem, env: env_of(data) }, args)
        })
    }

    /// A verb whose body takes the whole instance: `MPI_Alloc_mem` and
    /// `MPI_Free_mem` call the guest's own `malloc`/`free` (§3.7).
    pub(crate) fn reentrant<A: Arg, R: Ret>(
        name: &'static str,
        charged: bool,
        body: impl Fn(&mut Instance, A) -> HostResult<R> + Send + Sync + 'static,
    ) -> Verb {
        let mut params = Vec::new();
        A::kinds(&mut params);
        let ty = FuncType::new(vec![ValType::I32; params.len()], vec![R::TYPE]);
        let register = Box::new(move |linker: &mut Linker| {
            linker.func_word("env", name, ty, move |inst, words| {
                trampoline(inst, words, charged, &body)
            });
        });
        Verb { name, params, result: R::TYPE, charged, register }
    }
}

/// The one way into a verb: decode the words by the verb's signature,
/// charge the call, run the body, encode its outcome — `MPI_SUCCESS` (or
/// the body's value), the MPI error's code, or a trap — as the call's one
/// result word. Allocates nothing itself.
fn trampoline<A: Arg, R: Ret>(
    inst: &mut Instance,
    words: &[Slot],
    charged: bool,
    body: impl FnOnce(&mut Instance, A) -> HostResult<R>,
) -> Result<Slot, Trap> {
    let outcome = A::decode(&mut Words(words.iter()), &inst.memory).and_then(|args| {
        if charged {
            env_of(inst.parts().1).mpi.charge_wasm_overhead();
        }
        body(inst, args)
    });
    match outcome {
        Ok(value) => Ok(value.slot()),
        Err(HostError::Mpi(e)) => Ok(Slot::from_i32(e.code())),
        Err(HostError::Trap(t)) => Err(t),
    }
}
