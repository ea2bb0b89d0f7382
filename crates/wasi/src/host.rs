//! Registration of the `wasi_snapshot_preview1` host functions into a
//! [`wasm_engine::Linker`].
//!
//! The embedder stores a [`WasiCtx`] somewhere inside its per-instance
//! data; `register_wasi` takes an *accessor* that projects the instance
//! data to that context, so this crate stays independent of the embedder's
//! state layout.

use std::any::Any;

use wasm_engine::error::Trap;
use wasm_engine::runtime::{Instance, Linker, Memory, Slot};
#[cfg(test)]
use wasm_engine::runtime::Value;
use wasm_engine::types::{FuncType, ValType};

use crate::ctx::WasiCtx;
use crate::errno::Errno;
use crate::fs::Rights;

/// WASI `oflags` bits for `path_open`.
pub mod oflags {
    pub const CREAT: u32 = 1;
    pub const DIRECTORY: u32 = 2;
    pub const EXCL: u32 = 4;
    pub const TRUNC: u32 = 8;
}

/// WASI rights bits (the two this layer distinguishes).
pub mod rights {
    pub const FD_READ: u64 = 1 << 1;
    pub const FD_WRITE: u64 = 1 << 6;
}

type Accessor = std::sync::Arc<dyn Fn(&mut (dyn Any + Send)) -> &mut WasiCtx + Send + Sync>;

fn errno_val(e: Errno) -> Vec<Slot> {
    vec![Slot::from_i32(e.raw())]
}

fn ok() -> Vec<Slot> {
    vec![Slot::from_i32(0)]
}

// Guest addresses: every pointer a guest passes is combined with an
// offset by `Memory::guest_addr` only (in `u64`, checked against the
// memory's size), as the MPI imports do.

/// Gathered scatter/gather list: `(ptr, len)` pairs read from guest memory.
/// The whole array is checked first, so a huge count traps before anything
/// is read.
fn read_iovs(mem: &Memory, iovs: u32, count: u32) -> Result<Vec<(u32, u32)>, Trap> {
    mem.guest_addr(iovs, 0, 8 * count as u64)?;
    let word = |at: u64| mem.read_u32_at(mem.guest_addr(iovs, at, 4)?);
    (0..count as u64).map(|i| Ok((word(8 * i)?, word(8 * i + 4)?))).collect()
}

/// Pack `items` as NUL-terminated strings from `buf` on, with a pointer to
/// each in the array at `ptrs` (`args_get`, `environ_get`).
fn write_strings<'s>(
    mem: &mut Memory,
    ptrs: u32,
    buf: u32,
    items: impl Iterator<Item = &'s [u8]>,
) -> Result<(), Trap> {
    let mut end = 0u64;
    for (i, item) in items.enumerate() {
        let len = item.len() as u64;
        let at = mem.guest_addr(buf, end, len + 1)?;
        let ptr = mem.guest_addr(ptrs, 4 * i as u64, 4)?;
        mem.write_u32_at(ptr, at)?;
        mem.slice_mut(at, len as u32)?.copy_from_slice(item);
        let nul = mem.guest_addr(buf, end + len, 1)?;
        mem.slice_mut(nul, 1)?[0] = 0;
        end += len + 1;
    }
    Ok(())
}

/// Register the WASI subset. `get_ctx` projects the embedder's instance
/// data to its [`WasiCtx`].
pub fn register_wasi(
    linker: &mut Linker,
    get_ctx: impl Fn(&mut (dyn Any + Send)) -> &mut WasiCtx + Send + Sync + 'static,
) {
    let ns = "wasi_snapshot_preview1";
    let acc: Accessor = std::sync::Arc::new(get_ctx);
    let i32s = |n: usize| vec![ValType::I32; n];

    // args_sizes_get(argc_ptr, argv_buf_size_ptr) -> errno
    {
        let acc = acc.clone();
        linker.func(ns, "args_sizes_get", FuncType::new(i32s(2), i32s(1)), move |inst, args| {
            let (mem, data) = inst.parts();
            let ctx = acc(data);
            let argc = ctx.args.len() as u32;
            let buf_size: u32 = ctx.args.iter().map(|a| a.len() as u32 + 1).sum();
            mem.write_u32_at(args[0].u32(), argc)?;
            mem.write_u32_at(args[1].u32(), buf_size)?;
            Ok(ok())
        });
    }
    // args_get(argv_ptr, argv_buf_ptr) -> errno
    {
        let acc = acc.clone();
        linker.func(ns, "args_get", FuncType::new(i32s(2), i32s(1)), move |inst, args| {
            let (mem, data) = inst.parts();
            let ctx = acc(data);
            let strings = ctx.args.iter().map(|a| a.as_bytes());
            write_strings(mem, args[0].u32(), args[1].u32(), strings)?;
            Ok(ok())
        });
    }
    // environ_sizes_get / environ_get
    {
        let acc = acc.clone();
        linker.func(ns, "environ_sizes_get", FuncType::new(i32s(2), i32s(1)), move |inst, args| {
            let (mem, data) = inst.parts();
            let ctx = acc(data);
            let count = ctx.env.len() as u32;
            let size: u32 = ctx.env.iter().map(|(k, v)| (k.len() + v.len() + 2) as u32).sum();
            mem.write_u32_at(args[0].u32(), count)?;
            mem.write_u32_at(args[1].u32(), size)?;
            Ok(ok())
        });
    }
    {
        let acc = acc.clone();
        linker.func(ns, "environ_get", FuncType::new(i32s(2), i32s(1)), move |inst, args| {
            let (mem, data) = inst.parts();
            let ctx = acc(data);
            let entries: Vec<String> = ctx.env.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let strings = entries.iter().map(|e| e.as_bytes());
            write_strings(mem, args[0].u32(), args[1].u32(), strings)?;
            Ok(ok())
        });
    }
    // clock_time_get(id, precision: i64, time_ptr) -> errno
    linker.func(
        ns,
        "clock_time_get",
        FuncType::new(vec![ValType::I32, ValType::I64, ValType::I32], i32s(1)),
        move |inst, args| {
            let now_ns: u64 = match args[0].i32() {
                // CLOCK_REALTIME
                0 => std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0),
                // CLOCK_MONOTONIC (and others): a process-global monotonic
                _ => {
                    use std::sync::OnceLock;
                    static START: OnceLock<std::time::Instant> = OnceLock::new();
                    START.get_or_init(std::time::Instant::now).elapsed().as_nanos() as u64
                }
            };
            inst.memory.write_u64_at(args[2].u32(), now_ns)?;
            Ok(ok())
        },
    );
    // random_get(buf, len) -> errno
    {
        let acc = acc.clone();
        linker.func(ns, "random_get", FuncType::new(i32s(2), i32s(1)), move |inst, args| {
            let (ptr, len) = (args[0].u32(), args[1].u32());
            let (mem, data) = inst.parts();
            let ctx = acc(data);
            let dst = mem.slice_mut(ptr, len)?;
            let mut i = 0;
            while i < dst.len() {
                let r = ctx.next_random().to_le_bytes();
                let n = (dst.len() - i).min(8);
                dst[i..i + n].copy_from_slice(&r[..n]);
                i += n;
            }
            Ok(ok())
        });
    }
    // fd_write(fd, iovs, iovs_len, nwritten_ptr) -> errno
    {
        let acc = acc.clone();
        linker.func(ns, "fd_write", FuncType::new(i32s(4), i32s(1)), move |inst, args| {
            let fd = args[0].u32();
            let (mem, data) = inst.parts();
            let iovs = read_iovs(mem, args[1].u32(), args[2].u32())?;
            let ctx = acc(data);
            let mut written = 0u32;
            for (ptr, len) in iovs {
                let chunk = mem.slice(ptr, len)?;
                match ctx.write(fd, chunk) {
                    Ok(n) => written = written.saturating_add(n as u32),
                    Err(e) => return Ok(errno_val(e)),
                }
            }
            mem.write_u32_at(args[3].u32(), written)?;
            Ok(ok())
        });
    }
    // fd_read(fd, iovs, iovs_len, nread_ptr) -> errno
    {
        let acc = acc.clone();
        linker.func(ns, "fd_read", FuncType::new(i32s(4), i32s(1)), move |inst, args| {
            let fd = args[0].u32();
            let (mem, data) = inst.parts();
            let iovs = read_iovs(mem, args[1].u32(), args[2].u32())?;
            let ctx = acc(data);
            let mut nread = 0u32;
            for (ptr, len) in iovs {
                let buf = mem.slice_mut(ptr, len)?;
                match ctx.read(fd, buf) {
                    Ok(n) => {
                        nread = nread.saturating_add(n as u32);
                        if n < len as usize {
                            break; // EOF
                        }
                    }
                    Err(e) => return Ok(errno_val(e)),
                }
            }
            mem.write_u32_at(args[3].u32(), nread)?;
            Ok(ok())
        });
    }
    // fd_seek(fd, offset: i64, whence, newoffset_ptr) -> errno
    {
        let acc = acc.clone();
        linker.func(
            ns,
            "fd_seek",
            FuncType::new(vec![ValType::I32, ValType::I64, ValType::I32, ValType::I32], i32s(1)),
            move |inst, args| {
                let fd = args[0].u32();
                let offset = args[1].i64();
                let whence = args[2].i32() as u8;
                let out_ptr = args[3].u32();
                let (mem, data) = inst.parts();
                let ctx = acc(data);
                match ctx.seek(fd, offset, whence) {
                    Ok(newpos) => {
                        mem.write_u64_at(out_ptr, newpos)?;
                        Ok(ok())
                    }
                    Err(e) => Ok(errno_val(e)),
                }
            },
        );
    }
    // fd_close(fd) -> errno
    {
        let acc = acc.clone();
        linker.func(ns, "fd_close", FuncType::new(i32s(1), i32s(1)), move |inst, args| {
            let fd = args[0].u32();
            let (_, data) = inst.parts();
            let ctx = acc(data);
            match ctx.close(fd) {
                Ok(()) => Ok(ok()),
                Err(e) => Ok(errno_val(e)),
            }
        });
    }
    // fd_fdstat_get(fd, stat_ptr) -> errno: minimal (filetype only).
    {
        let acc = acc.clone();
        linker.func(ns, "fd_fdstat_get", FuncType::new(i32s(2), i32s(1)), move |inst, args| {
            let fd = args[0].u32();
            let ptr = args[1].u32();
            let (mem, data) = inst.parts();
            let ctx = acc(data);
            let filetype: u8 = match ctx.entry(fd) {
                Ok(crate::ctx::FdEntry::Preopen(_)) => 3, // directory
                Ok(crate::ctx::FdEntry::File { .. }) => 4, // regular_file
                Ok(_) => 2,                                // character_device
                Err(e) => return Ok(errno_val(e)),
            };
            let stat = mem.slice_mut(ptr, 24)?;
            stat.fill(0);
            stat[0] = filetype;
            Ok(ok())
        });
    }
    // fd_prestat_get(fd, prestat_ptr) -> errno
    {
        let acc = acc.clone();
        linker.func(ns, "fd_prestat_get", FuncType::new(i32s(2), i32s(1)), move |inst, args| {
            let fd = args[0].u32();
            let ptr = args[1].u32();
            let (mem, data) = inst.parts();
            let ctx = acc(data);
            match ctx.entry(fd) {
                Ok(crate::ctx::FdEntry::Preopen(i)) => {
                    // Virtual names are presented as "/<name>".
                    let name_len = ctx.fs.preopens()[*i].guest_name.len() as u32 + 1;
                    mem.write_u32_at(mem.guest_addr(ptr, 0, 8)?, 0)?; // tag: prestat_dir
                    mem.write_u32_at(mem.guest_addr(ptr, 4, 4)?, name_len)?;
                    Ok(ok())
                }
                Ok(_) | Err(_) => Ok(errno_val(Errno::Badf)),
            }
        });
    }
    // fd_prestat_dir_name(fd, path_ptr, path_len) -> errno
    {
        let acc = acc.clone();
        linker.func(ns, "fd_prestat_dir_name", FuncType::new(i32s(3), i32s(1)), move |inst, args| {
            let fd = args[0].u32();
            let ptr = args[1].u32();
            let len = args[2].u32();
            let (mem, data) = inst.parts();
            let ctx = acc(data);
            match ctx.entry(fd) {
                Ok(crate::ctx::FdEntry::Preopen(i)) => {
                    let name = format!("/{}", ctx.fs.preopens()[*i].guest_name);
                    if (name.len() as u32) > len {
                        return Ok(errno_val(Errno::Inval));
                    }
                    mem.slice_mut(ptr, name.len() as u32)?.copy_from_slice(name.as_bytes());
                    Ok(ok())
                }
                Ok(_) | Err(_) => Ok(errno_val(Errno::Badf)),
            }
        });
    }
    // path_open(dirfd, dirflags, path_ptr, path_len, oflags,
    //           rights_base: i64, rights_inheriting: i64, fdflags,
    //           opened_fd_ptr) -> errno
    {
        let acc = acc.clone();
        let params = vec![
            ValType::I32, // dirfd
            ValType::I32, // dirflags
            ValType::I32, // path_ptr
            ValType::I32, // path_len
            ValType::I32, // oflags
            ValType::I64, // rights_base
            ValType::I64, // rights_inheriting
            ValType::I32, // fdflags
            ValType::I32, // opened_fd_ptr
        ];
        linker.func(ns, "path_open", FuncType::new(params, i32s(1)), move |inst, args| {
            let dirfd = args[0].u32();
            let path_ptr = args[2].u32();
            let path_len = args[3].u32();
            let oflags = args[4].u32();
            let rights_base = args[5].i64() as u64;
            let out_ptr = args[8].u32();

            let (mem, data) = inst.parts();
            let path_bytes = mem.slice(path_ptr, path_len)?.to_vec();
            let Ok(path) = String::from_utf8(path_bytes) else {
                return Ok(errno_val(Errno::Inval));
            };
            let ctx = acc(data);
            let dir = match ctx.entry(dirfd) {
                Ok(crate::ctx::FdEntry::Preopen(i)) => *i,
                Ok(_) => return Ok(errno_val(Errno::Notdir)),
                Err(e) => return Ok(errno_val(e)),
            };
            if oflags & oflags::DIRECTORY != 0 {
                return Ok(errno_val(Errno::Isdir));
            }
            let want_write = rights_base & rights::FD_WRITE != 0;
            let want_read = rights_base & rights::FD_READ != 0 || !want_write;
            let create = oflags & oflags::CREAT != 0;
            let trunc = oflags & oflags::TRUNC != 0;
            match ctx.fs.open(dir, &path, create, trunc, want_write) {
                Ok(handle) => {
                    let fd = ctx.push_file(
                        handle,
                        Rights { read: want_read, write: want_write },
                    );
                    mem.write_u32_at(out_ptr, fd)?;
                    Ok(ok())
                }
                Err(e) => Ok(errno_val(e)),
            }
        });
    }
    // proc_exit(code) -> ! (renders as a trap carrying the exit code)
    linker.func(ns, "proc_exit", FuncType::new(i32s(1), vec![]), move |_inst, args| {
        Err(Trap::Exit(args[0].i32()))
    });
    let _ = acc;
}

/// Convenience: the default accessor for instances whose data *is* a
/// [`WasiCtx`].
pub fn wasi_is_data(data: &mut (dyn Any + Send)) -> &mut WasiCtx {
    data.downcast_mut::<WasiCtx>().expect("instance data is not a WasiCtx")
}

#[allow(unused)]
fn _assert_instance_type(_: &Instance) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::SharedFs;
    use wasm_engine::builder::ModuleBuilder;
    use wasm_engine::dsl::*;
    use wasm_engine::runtime::CompiledModule;
    use wasm_engine::tier::Tier;

    fn wasi_linker() -> Linker {
        let mut linker = Linker::new();
        register_wasi(&mut linker, wasi_is_data);
        linker
    }

    fn instantiate(b: ModuleBuilder, args: Vec<String>) -> Instance {
        let compiled = CompiledModule::compile(b.finish(), Tier::Max).unwrap();
        let ctx = WasiCtx::new(SharedFs::memory(), args);
        wasi_linker().instantiate(&compiled, Box::new(ctx)).unwrap()
    }

    #[test]
    fn fd_write_to_stdout_is_captured() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let fd_write = b.import_func(
            "wasi_snapshot_preview1",
            "fd_write",
            vec![ValType::I32; 4],
            vec![ValType::I32],
        );
        b.data(64, b"hi from wasm".to_vec());
        b.func("_start", vec![], vec![], |f| {
            emit_block(f, &[
                // iov at 0: ptr=64 len=12
                store(int(0), 0, int(64)),
                store(int(4), 0, int(12)),
                call_drop(fd_write, vec![int(1), int(0), int(1), int(32)]),
            ]);
        });
        let mut inst = instantiate(b, vec![]);
        inst.invoke("_start", &[]).unwrap();
        assert_eq!(inst.data::<WasiCtx>().unwrap().stdout_string(), "hi from wasm");
        assert_eq!(inst.memory.read_u32_at(32).unwrap(), 12);
    }

    #[test]
    fn args_roundtrip_through_guest_memory() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let sizes = b.import_func(
            "wasi_snapshot_preview1",
            "args_sizes_get",
            vec![ValType::I32; 2],
            vec![ValType::I32],
        );
        let get = b.import_func(
            "wasi_snapshot_preview1",
            "args_get",
            vec![ValType::I32; 2],
            vec![ValType::I32],
        );
        b.func("_start", vec![], vec![], |f| {
            emit_block(f, &[
                call_drop(sizes, vec![int(0), int(4)]),
                call_drop(get, vec![int(16), int(256)]),
            ]);
        });
        let mut inst = instantiate(b, vec!["prog".into(), "-x".into()]);
        inst.invoke("_start", &[]).unwrap();
        assert_eq!(inst.memory.read_u32_at(0).unwrap(), 2); // argc
        assert_eq!(inst.memory.read_u32_at(4).unwrap(), 8); // "prog\0-x\0"
        let a0 = inst.memory.read_u32_at(16).unwrap();
        assert_eq!(inst.memory.read_cstr(a0, 32).unwrap(), "prog");
        let a1 = inst.memory.read_u32_at(20).unwrap();
        assert_eq!(inst.memory.read_cstr(a1, 32).unwrap(), "-x");
    }

    #[test]
    fn path_open_write_read_via_guest() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let path_open = b.import_func(
            "wasi_snapshot_preview1",
            "path_open",
            vec![
                ValType::I32, ValType::I32, ValType::I32, ValType::I32, ValType::I32,
                ValType::I64, ValType::I64, ValType::I32, ValType::I32,
            ],
            vec![ValType::I32],
        );
        let fd_write = b.import_func(
            "wasi_snapshot_preview1",
            "fd_write",
            vec![ValType::I32; 4],
            vec![ValType::I32],
        );
        let fd_close = b.import_func(
            "wasi_snapshot_preview1",
            "fd_close",
            vec![ValType::I32],
            vec![ValType::I32],
        );
        b.data(100, b"out.bin".to_vec());
        b.data(200, b"PAYLOAD!".to_vec());
        b.func("_start", vec![], vec![ValType::I32], |f| {
            let fd = Var::new(f, ValType::I32);
            emit_block(f, &[
                // open "out.bin" under preopen fd 3 with create|trunc, rw.
                call_drop(path_open, vec![
                    int(3), int(0), int(100), int(7), int((oflags::CREAT | oflags::TRUNC) as i32),
                    long((rights::FD_READ | rights::FD_WRITE) as i64), long(0), int(0), int(60),
                ]),
                fd.set(int(60).load(ValType::I32, 0)),
                store(int(0), 0, int(200)),
                store(int(4), 0, int(8)),
                call_drop(fd_write, vec![fd.get(), int(0), int(1), int(64)]),
                call_drop(fd_close, vec![fd.get()]),
                ret(Some(fd.get())),
            ]);
        });
        let mut inst = instantiate(b, vec![]);
        let out = inst.invoke("_start", &[]).unwrap();
        assert_eq!(out, vec![Value::I32(4)]); // first free fd after 0..3
        let ctx = inst.data::<WasiCtx>().unwrap();
        assert_eq!(ctx.bytes_written, 8);
        // The file is visible in the shared fs.
        let h = ctx.fs.open(0, "out.bin", false, false, false).unwrap();
        match h {
            crate::fs::FileHandle::Mem(m) => assert_eq!(&*m.read(), b"PAYLOAD!"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn proc_exit_traps_with_code() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let exit = b.import_func(
            "wasi_snapshot_preview1",
            "proc_exit",
            vec![ValType::I32],
            vec![],
        );
        b.func("_start", vec![], vec![], |f| {
            emit_block(f, &[call_stmt(exit, vec![int(3)])]);
        });
        let mut inst = instantiate(b, vec![]);
        let err = inst.invoke("_start", &[]).unwrap_err();
        assert_eq!(err, Trap::Exit(3));
    }

    #[test]
    fn prestat_reports_virtual_name() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let get = b.import_func(
            "wasi_snapshot_preview1",
            "fd_prestat_get",
            vec![ValType::I32; 2],
            vec![ValType::I32],
        );
        let name = b.import_func(
            "wasi_snapshot_preview1",
            "fd_prestat_dir_name",
            vec![ValType::I32; 3],
            vec![ValType::I32],
        );
        b.func("_start", vec![], vec![ValType::I32], |f| {
            let r = Var::new(f, ValType::I32);
            emit_block(f, &[
                call_drop(get, vec![int(3), int(0)]),
                r.set(call(name, vec![int(3), int(16), int(8)], ValType::I32)),
                ret(Some(r.get())),
            ]);
        });
        let mut inst = instantiate(b, vec![]);
        let out = inst.invoke("_start", &[]).unwrap();
        assert_eq!(out, vec![Value::I32(0)]);
        // name_len includes the leading '/'.
        assert_eq!(inst.memory.read_u32_at(4).unwrap(), 5); // "/data"
        assert_eq!(&inst.memory.slice(16, 5).unwrap(), b"/data");
    }

    #[test]
    fn random_get_fills_buffer_deterministically() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let rg = b.import_func(
            "wasi_snapshot_preview1",
            "random_get",
            vec![ValType::I32; 2],
            vec![ValType::I32],
        );
        b.func("_start", vec![], vec![], |f| {
            emit_block(f, &[call_drop(rg, vec![int(0), int(16)])]);
        });
        let run = || {
            let compiled = CompiledModule::compile(
                {
                    let mut b2 = ModuleBuilder::new();
                    b2.memory(1, None);
                    let rg2 = b2.import_func(
                        "wasi_snapshot_preview1",
                        "random_get",
                        vec![ValType::I32; 2],
                        vec![ValType::I32],
                    );
                    b2.func("_start", vec![], vec![], |f| {
                        emit_block(f, &[call_drop(rg2, vec![int(0), int(16)])]);
                    });
                    b2.finish()
                },
                Tier::Max,
            )
            .unwrap();
            let mut ctx = WasiCtx::new(SharedFs::memory(), vec![]);
            ctx.seed_random(1234);
            let mut inst = wasi_linker().instantiate(&compiled, Box::new(ctx)).unwrap();
            inst.invoke("_start", &[]).unwrap();
            inst.memory.slice(0, 16).unwrap().to_vec()
        };
        let a = run();
        let b2 = run();
        assert_eq!(a, b2);
        assert_ne!(a, vec![0u8; 16]);
    }
}
