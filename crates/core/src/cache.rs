//! The compiled-module cache (paper §3.3).
//!
//! Wasmer's LLVM backend made compilation expensive, so MPIWasm caches the
//! generated shared object in the filesystem under a BLAKE-3 content hash.
//! This reproduction does the same: the serialized flat op stream (this
//! engine's "shared object") is stored under `sha256(module bytes ‖ tier)`;
//! re-running an unchanged module loads the artifact instead of
//! re-flattening, and any change to the module bytes changes the key and
//! forces recompilation.
//!
//! # Artifact format (VERSION 3)
//!
//! ```text
//! "MWAC" | version | tier | sha256(everything below) |
//! leb(len) module bytes | leb(n) bodies
//! body  = 0                                     (baseline: rebuilt on load)
//!       | 1 leb(n_params) leb(n) local types leb(n_results) leb(n) ops
//! op    = tag 0–7, 21, 22 + operands            (the ten `ir::Op` variants)
//! ```
//!
//! The op stream carries no optimization — it is what `ir::flatten`
//! produces for either flat tier — so a load lowers (and verifies) every
//! function exactly as a compile does, and pays for hashing and parsing
//! the stream where a compile pays for flattening: until artifacts hold
//! executable code (ROADMAP item 3), a hit on a flat tier is no faster
//! than a compile. The digest covers the module bytes *and* the bodies,
//! so a flipped bit anywhere in a cached kernel is a miss, never a
//! different result.

use std::io::Write;
use std::path::{Path, PathBuf};

use wasm_engine::decode::{decode_module, decode_one};
use wasm_engine::encode::encode_instr;
use wasm_engine::interp::SideTable;
use wasm_engine::ir::{self, Dest, Op};
use wasm_engine::leb128::{self, Reader};
use wasm_engine::module::{Function, Module};
use wasm_engine::regalloc;
use wasm_engine::runtime::CompiledModule;
use wasm_engine::tier::{CompiledBody, Tier};

use crate::hash::{sha256, to_hex, Sha256};

/// Magic, version, tier byte, then the 32-byte digest of the rest.
const HEADER: usize = 6;
const DIGEST: usize = 32;

const MAGIC: &[u8; 4] = b"MWAC";
// Version history:
//  1 — enum-tagged Value engine, superinstruction set through F64AddL.
//  2 — untyped-slot IR: Drop2/Select2, shift/indexed-load and
//      compare-and-branch superinstructions; slot-unit Dest heights.
//  3 — superinstruction tags (8–20, 23–34) retired: the stream is the
//      unoptimized flattening; digest covers bodies as well as module.
const VERSION: u8 = 3;

/// A filesystem-backed compiled-module cache.
pub struct ModuleCache {
    dir: PathBuf,
    hits: std::cell::Cell<u64>,
    misses: std::cell::Cell<u64>,
}

impl ModuleCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<ModuleCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ModuleCache { dir, hits: Default::default(), misses: Default::default() })
    }

    /// Content-address for `(module bytes, tier)`.
    pub fn key(wasm_bytes: &[u8], tier: Tier) -> String {
        let mut h = Sha256::new();
        h.update(wasm_bytes);
        h.update(&[tier_byte(tier)]);
        to_hex(&h.finalize())
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.mwac"))
    }

    /// Compile-through-cache: load the artifact if present, otherwise
    /// compile and store. Returns the compiled module and whether the
    /// cache was hit.
    pub fn get_or_compile(
        &self,
        wasm_bytes: &[u8],
        tier: Tier,
    ) -> Result<(CompiledModule, bool), String> {
        let key = Self::key(wasm_bytes, tier);
        let path = self.path_for(&key);
        if let Ok(artifact) = std::fs::read(&path) {
            match load_artifact(&artifact) {
                Ok(compiled) if compiled.tier() == tier => {
                    self.hits.set(self.hits.get() + 1);
                    return Ok((compiled, true));
                }
                _ => {
                    // Corrupt or stale artifact: fall through to recompile.
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        self.misses.set(self.misses.get() + 1);
        let module = decode_module(wasm_bytes).map_err(|e| e.to_string())?;
        let compiled = CompiledModule::compile(module, tier).map_err(|e| e.to_string())?;
        let artifact = store_artifact(wasm_bytes, &compiled);
        // Atomic-ish write: temp file then rename.
        let tmp = path.with_extension("tmp");
        if std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&artifact))
            .is_ok()
        {
            let _ = std::fs::rename(&tmp, &path);
        }
        Ok((compiled, false))
    }

    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// On-disk size of the artifact for `(bytes, tier)`, if cached. This
    /// is the "native binary size" measurement of the Table 2 analog.
    pub fn artifact_size(&self, wasm_bytes: &[u8], tier: Tier) -> Option<u64> {
        std::fs::metadata(self.path_for(&Self::key(wasm_bytes, tier)))
            .ok()
            .map(|m| m.len())
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

fn tier_byte(tier: Tier) -> u8 {
    match tier {
        Tier::Baseline => 0,
        Tier::Optimizing => 1,
        Tier::Max => 2,
        Tier::MaxJit => 3,
    }
}

fn tier_from_byte(b: u8) -> Option<Tier> {
    Some(match b {
        0 => Tier::Baseline,
        1 => Tier::Optimizing,
        2 => Tier::Max,
        3 => Tier::MaxJit,
        _ => return None,
    })
}

/// Serialize a compiled module: header, digest, original module bytes, and
/// per-function op streams. The streams are not kept after compilation;
/// each is regenerated by re-flattening its function (deterministic, and
/// the same for every flat tier — MaxJit's superblock chains, like the
/// register form itself, are derived at load time and never stored).
pub fn store_artifact(wasm_bytes: &[u8], compiled: &CompiledModule) -> Vec<u8> {
    let mut out = Vec::with_capacity(wasm_bytes.len() * 2);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(tier_byte(compiled.tier()));
    out.extend_from_slice(&[0; DIGEST]);
    leb128::write_u32(&mut out, wasm_bytes.len() as u32);
    out.extend_from_slice(wasm_bytes);
    leb128::write_u32(&mut out, compiled.bodies().len() as u32);
    let module = compiled.module();
    for (body, func) in compiled.bodies().iter().zip(&module.functions) {
        match body {
            CompiledBody::Interp(_) => out.push(0),
            CompiledBody::Flat(_) => {
                out.push(1);
                serialize_flat(&mut out, module, func);
            }
        }
    }
    let digest = sha256(&out[HEADER + DIGEST..]);
    out[HEADER..HEADER + DIGEST].copy_from_slice(&digest);
    out
}

/// Load an artifact produced by [`store_artifact`].
pub fn load_artifact(bytes: &[u8]) -> Result<CompiledModule, String> {
    let mut r = Reader::new(bytes);
    let magic = r.read_bytes(4).map_err(|e| e.to_string())?;
    if magic != MAGIC {
        return Err("bad artifact magic".into());
    }
    let version = r.read_u8().map_err(|e| e.to_string())?;
    if version != VERSION {
        return Err(format!("unsupported artifact version {version}"));
    }
    let tier = tier_from_byte(r.read_u8().map_err(|e| e.to_string())?)
        .ok_or("bad tier byte")?;
    let digest = r.read_bytes(DIGEST).map_err(|e| e.to_string())?;
    if sha256(&bytes[HEADER + DIGEST..])[..] != *digest {
        return Err("artifact digest mismatch".into());
    }
    let len = r.read_u32().map_err(|e| e.to_string())? as usize;
    let wasm_bytes = r.read_bytes(len).map_err(|e| e.to_string())?;
    let module = decode_module(wasm_bytes).map_err(|e| e.to_string())?;
    let n_bodies = r.read_u32().map_err(|e| e.to_string())? as usize;
    if n_bodies != module.functions.len() {
        return Err(format!(
            "artifact has {n_bodies} bodies for {} functions",
            module.functions.len()
        ));
    }
    let mut bodies = Vec::with_capacity(n_bodies);
    for func in &module.functions {
        bodies.push(match r.read_u8().map_err(|e| e.to_string())? {
            0 => CompiledBody::Interp(SideTable::build(&module, func)),
            // One function's stream at a time: deserialized, lowered to
            // the executable register form (and verified) and dropped. A
            // stream that fails to lower is corrupt — reject the artifact
            // so the cache recompiles.
            1 => {
                let ops = deserialize_flat(&mut r, &module, func)?;
                CompiledBody::Flat(regalloc::lower(&module, func, &ops, tier)?)
            }
            b => return Err(format!("bad body tag {b}")),
        });
    }
    CompiledModule::from_parts(module, tier, bodies).map_err(|e| e.to_string())
}

// --- flat-IR (de)serialization: the engine's "shared object" format ---

fn serialize_flat(out: &mut Vec<u8>, module: &Module, func: &Function) {
    let ty = &module.types[func.type_idx as usize];
    leb128::write_u32(out, ty.params.len() as u32);
    leb128::write_u32(out, func.locals.len() as u32);
    out.extend(func.locals.iter().map(|l| l.to_byte()));
    leb128::write_u32(out, ty.results.len() as u32);
    let ops = ir::flatten(module, func);
    leb128::write_u32(out, ops.len() as u32);
    for op in &ops {
        serialize_op(out, op);
    }
}

fn write_dest(out: &mut Vec<u8>, d: &Dest) {
    leb128::write_u32(out, d.target);
    leb128::write_u32(out, d.height);
    leb128::write_u32(out, d.arity);
}

fn serialize_op(out: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Plain(instr) => {
            out.push(0);
            // Reuse the wasm binary encoding, closed by an `end` byte the
            // loader checks: per-op framing.
            encode_instr(out, instr);
            out.push(0x0b);
        }
        Op::Jump(t) => {
            out.push(1);
            leb128::write_u32(out, *t);
        }
        Op::JumpIfZero(t) => {
            out.push(2);
            leb128::write_u32(out, *t);
        }
        Op::Br(d) => {
            out.push(3);
            write_dest(out, d);
        }
        Op::BrIf(d) => {
            out.push(4);
            write_dest(out, d);
        }
        Op::BrTable { dests, default } => {
            out.push(5);
            leb128::write_u32(out, dests.len() as u32);
            for d in dests.iter() {
                write_dest(out, d);
            }
            write_dest(out, default);
        }
        Op::Return => out.push(6),
        Op::Unreachable => out.push(7),
        Op::Drop2 => out.push(21),
        Op::Select2 => out.push(22),
    }
}

fn read_dest(r: &mut Reader<'_>) -> Result<Dest, String> {
    Ok(Dest {
        target: r.read_u32().map_err(|e| e.to_string())?,
        height: r.read_u32().map_err(|e| e.to_string())?,
        arity: r.read_u32().map_err(|e| e.to_string())?,
    })
}

/// Read one function's op stream. Its header repeats the function's
/// signature and locals; one that disagrees with the module is corrupt.
fn deserialize_flat(
    r: &mut Reader<'_>,
    module: &Module,
    func: &Function,
) -> Result<Vec<Op>, String> {
    let ty = &module.types[func.type_idx as usize];
    let n_params = r.read_u32().map_err(|e| e.to_string())? as usize;
    let n_locals = r.read_u32().map_err(|e| e.to_string())? as usize;
    let locals = r.read_bytes(n_locals).map_err(|e| e.to_string())?;
    let n_results = r.read_u32().map_err(|e| e.to_string())? as usize;
    if (n_params, n_results) != (ty.params.len(), ty.results.len())
        || !locals.iter().copied().eq(func.locals.iter().map(|l| l.to_byte()))
    {
        return Err("body header does not match the module".into());
    }
    let n_ops = r.read_u32().map_err(|e| e.to_string())? as usize;
    // Counts come from the artifact: never reserve more than it could hold.
    let mut ops = Vec::with_capacity(n_ops.min(r.remaining()));
    for _ in 0..n_ops {
        let tag = r.read_u8().map_err(|e| e.to_string())?;
        let op = match tag {
            0 => {
                let instr = decode_one(r).map_err(|e| e.to_string())?;
                if r.read_u8().map_err(|e| e.to_string())? != 0x0b {
                    return Err("malformed plain-op encoding".into());
                }
                Op::Plain(instr)
            }
            1 => Op::Jump(r.read_u32().map_err(|e| e.to_string())?),
            2 => Op::JumpIfZero(r.read_u32().map_err(|e| e.to_string())?),
            3 => Op::Br(read_dest(r)?),
            4 => Op::BrIf(read_dest(r)?),
            5 => {
                let n = r.read_u32().map_err(|e| e.to_string())? as usize;
                let mut dests = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    dests.push(read_dest(r)?);
                }
                let default = read_dest(r)?;
                Op::BrTable { dests: dests.into_boxed_slice(), default }
            }
            6 => Op::Return,
            7 => Op::Unreachable,
            21 => Op::Drop2,
            22 => Op::Select2,
            b => return Err(format!("bad op tag {b}")),
        };
        ops.push(op);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasm_engine::dsl::*;
    use wasm_engine::runtime::{Linker, Value};
    use wasm_engine::{ModuleBuilder, ValType};

    fn sample_wasm() -> Vec<u8> {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        b.func("fib", vec![ValType::I32], vec![ValType::I32], |f| {
            let n = local(0, ValType::I32);
            let a = Var::new(f, ValType::I32);
            let bv = Var::new(f, ValType::I32);
            let i = Var::new(f, ValType::I32);
            let t = Var::new(f, ValType::I32);
            emit_block(f, &[
                bv.set(int(1)),
                for_range(i, int(0), n.get(), &[
                    t.set(a.get() + bv.get()),
                    a.set(bv.get()),
                    bv.set(t.get()),
                ]),
                ret(Some(a.get())),
            ]);
        });
        wasm_engine::encode_module(&b.finish())
    }

    fn tmp_cache() -> ModuleCache {
        let dir = std::env::temp_dir().join(format!(
            "mpiwasm-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ModuleCache::new(dir).unwrap()
    }

    fn run_fib(compiled: &CompiledModule, n: i32) -> i32 {
        let mut inst = Linker::new().instantiate(compiled, Box::new(())).unwrap();
        inst.invoke("fib", &[Value::I32(n)]).unwrap()[0].as_i32().unwrap()
    }

    #[test]
    fn artifact_roundtrip_executes_identically() {
        let wasm = sample_wasm();
        for tier in Tier::ALL {
            let module = decode_module(&wasm).unwrap();
            let compiled = CompiledModule::compile(module, tier).unwrap();
            let artifact = store_artifact(&wasm, &compiled);
            let loaded = load_artifact(&artifact).unwrap();
            assert_eq!(loaded.tier(), tier);
            // Chains are never serialized; a loaded MaxJit module rebuilds
            // its promotion state from scratch. Promote immediately so the
            // load path actually executes through chains (no-op otherwise).
            loaded.set_jit_threshold(1);
            assert_eq!(run_fib(&compiled, 10), 55);
            assert_eq!(run_fib(&loaded, 10), 55, "tier {tier}");
        }
    }

    #[test]
    fn cache_miss_then_hit() {
        let cache = tmp_cache();
        let wasm = sample_wasm();
        let (_, hit1) = cache.get_or_compile(&wasm, Tier::Max).unwrap();
        assert!(!hit1);
        let (compiled, hit2) = cache.get_or_compile(&wasm, Tier::Max).unwrap();
        assert!(hit2);
        assert_eq!(run_fib(&compiled, 12), 144);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn changed_bytes_change_key() {
        let wasm = sample_wasm();
        let mut other = wasm.clone();
        let last = other.len() - 1;
        other[last] ^= 1;
        assert_ne!(ModuleCache::key(&wasm, Tier::Max), ModuleCache::key(&other, Tier::Max));
        assert_ne!(
            ModuleCache::key(&wasm, Tier::Max),
            ModuleCache::key(&wasm, Tier::Baseline)
        );
    }

    const MASKS: [u8; 3] = [0xFF, 0x01, 0x80];

    /// Offset of the first body byte (just past the embedded module).
    fn bodies_start(artifact: &[u8]) -> usize {
        let mut r = Reader::new(&artifact[HEADER + DIGEST..]);
        let len = r.read_u32().unwrap() as usize;
        HEADER + DIGEST + r.pos() + len
    }

    /// Recompute the digest over a mutated artifact: what a buggy or
    /// hostile writer (rather than a flipped disk bit) would have stored.
    fn reseal(artifact: &mut [u8]) {
        let digest = sha256(&artifact[HEADER + DIGEST..]);
        artifact[HEADER..HEADER + DIGEST].copy_from_slice(&digest);
    }

    #[test]
    fn every_single_byte_corruption_is_a_miss() {
        // Each byte of the artifact — header, digest, embedded module and
        // compiled bodies — under three masks: never served. (Before the
        // digest covered the bodies, ~25 of these mutations loaded fine
        // and computed a different fib(10).)
        let cache = tmp_cache();
        let wasm = sample_wasm();
        for tier in Tier::ALL {
            cache.get_or_compile(&wasm, tier).unwrap();
            let path = cache.dir().join(format!("{}.mwac", ModuleCache::key(&wasm, tier)));
            let good = std::fs::read(&path).unwrap();
            for at in 0..good.len() {
                for mask in MASKS {
                    let mut bad = good.clone();
                    bad[at] ^= mask;
                    // (A flipped tier byte can name another valid tier.)
                    let served = load_artifact(&bad).is_ok_and(|c| c.tier() == tier);
                    assert!(!served, "tier {tier}: byte {at} ^ {mask:#x} was served");
                }
            }
            // And through the cache: a corrupt body byte recompiles.
            let mut bad = good.clone();
            let last = bad.len() - 1;
            bad[last] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            let (compiled, hit) = cache.get_or_compile(&wasm, tier).unwrap();
            assert!(!hit, "corrupt artifact must not be served");
            assert_eq!(run_fib(&compiled, 10), 55);
            assert_eq!(std::fs::read(&path).unwrap(), good, "tier {tier}: artifact not rewritten");
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn resealed_body_corruption_never_panics_the_host() {
        // The same sweep over the body bytes with the digest recomputed:
        // the artifact now *is* what its writer meant to store, so all
        // that stands between it and the executor's unchecked frame
        // accesses is `regalloc::lower` + `verify`. Whatever loads must
        // run fib(10) — to any result or trap — without a host panic.
        let wasm = sample_wasm();
        let mut loaded = 0;
        let mut panics = Vec::new();
        for tier in [Tier::Optimizing, Tier::MaxJit] {
            let module = decode_module(&wasm).unwrap();
            let good = store_artifact(&wasm, &CompiledModule::compile(module, tier).unwrap());
            for at in bodies_start(&good)..good.len() {
                for mask in MASKS {
                    let mut bad = good.clone();
                    bad[at] ^= mask;
                    reseal(&mut bad);
                    let run = std::panic::catch_unwind(|| {
                        let Ok(compiled) = load_artifact(&bad) else { return false };
                        compiled.set_jit_threshold(1);
                        let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
                        inst.set_fuel(1_000_000);
                        let _ = inst.invoke("fib", &[Value::I32(10)]);
                        true
                    });
                    match run {
                        Ok(served) => loaded += served as usize,
                        Err(_) => panics.push((tier, at, mask)),
                    }
                }
            }
        }
        assert!(panics.is_empty(), "host panics at (tier, byte, mask): {panics:?}");
        assert!(loaded > 0, "the sweep never got past load_artifact");
    }

    #[test]
    fn retired_op_tag_forces_recompile() {
        // A well-sealed stream using a VERSION 2 superinstruction tag.
        let cache = tmp_cache();
        let wasm = sample_wasm();
        cache.get_or_compile(&wasm, Tier::Max).unwrap();
        let path = cache.dir().join(format!("{}.mwac", ModuleCache::key(&wasm, Tier::Max)));
        let mut bytes = std::fs::read(&path).unwrap();
        // bodies: count, tag 1, n_params, 4 locals, n_results, n_ops, op…
        let first_op = bodies_start(&bytes) + 2 + 1 + (1 + 4) + 1 + 1;
        assert_eq!(bytes[first_op], 0, "fib starts with a plain op");
        bytes[first_op] = 9; // was I32AddLL
        reseal(&mut bytes);
        assert_eq!(load_artifact(&bytes).err().unwrap(), "bad op tag 9");
        std::fs::write(&path, &bytes).unwrap();
        let (compiled, hit) = cache.get_or_compile(&wasm, Tier::Max).unwrap();
        assert!(!hit);
        assert_eq!(run_fib(&compiled, 10), 55);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stale_version_artifact_forces_recompile() {
        // An artifact written by an older engine (VERSION 2, whose streams
        // may hold superinstruction tags) must not be served: the loader
        // rejects it and the cache falls back to recompilation.
        let cache = tmp_cache();
        let wasm = sample_wasm();
        cache.get_or_compile(&wasm, Tier::Max).unwrap();
        let key = ModuleCache::key(&wasm, Tier::Max);
        let path = cache.dir().join(format!("{key}.mwac"));
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[4], VERSION);
        bytes[4] = VERSION - 1; // stale on-disk format
        std::fs::write(&path, &bytes).unwrap();
        let (compiled, hit) = cache.get_or_compile(&wasm, Tier::Max).unwrap();
        assert!(!hit, "stale-version artifact must not be served");
        assert_eq!(run_fib(&compiled, 10), 55);
        // The stale file was replaced by a fresh, loadable artifact.
        let fresh = std::fs::read(&path).unwrap();
        assert_eq!(fresh[4], VERSION);
        assert!(load_artifact(&fresh).is_ok());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn artifact_rejects_tampered_module_bytes() {
        let wasm = sample_wasm();
        let module = decode_module(&wasm).unwrap();
        let compiled = CompiledModule::compile(module, Tier::Max).unwrap();
        let mut artifact = store_artifact(&wasm, &compiled);
        // Flip a byte inside the embedded module region.
        artifact[60] ^= 1;
        assert!(load_artifact(&artifact).is_err());
    }

    #[test]
    fn artifact_size_reported_after_store() {
        let cache = tmp_cache();
        let wasm = sample_wasm();
        assert!(cache.artifact_size(&wasm, Tier::Max).is_none());
        cache.get_or_compile(&wasm, Tier::Max).unwrap();
        let size = cache.artifact_size(&wasm, Tier::Max).unwrap();
        assert!(size > wasm.len() as u64, "IR artifact should outweigh the wasm bytes");
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
