//! The compiled-module cache (paper §3.3).
//!
//! Wasmer's LLVM backend made compilation expensive, so MPIWasm caches the
//! generated shared object in the filesystem under a BLAKE-3 content hash.
//! This reproduction does the same: what the engine executes — each
//! function's register form, this engine's "shared object" — is stored
//! under `sha256(module bytes ‖ tier)`; re-running an unchanged module
//! loads the artifact instead of compiling, and any change to the module
//! bytes changes the key and forces recompilation.
//!
//! The cache is the one launch path that consumes the *whole* module's
//! code, so it is the one that produces it: a miss lowers every function
//! (`CompiledModule::compile`) and stores a complete artifact, a hit reads
//! every function back. A launch without a cache lowers a function on its
//! first call instead (`Runner::prepare`) and never writes an artifact;
//! there is no partial artifact.
//!
//! # Artifact format (VERSION 4)
//!
//! ```text
//! "MWAC" | version | tier | sha256(everything below) |
//! leb(len) module bytes | leb(n) bodies
//! body  = 0                     (baseline: side table built at first call)
//!       | 1 RegFunc wire form   (flat tiers: `RegFunc::write`)
//! ```
//!
//! A hit costs hashing the artifact, decoding and validating the embedded
//! module (validation is the sandbox), and reading each function's code
//! back through `RegFunc::read`, which re-proves everything the executors
//! assume of it — no translation and none of the register pipeline; each
//! function's step program is rebuilt from it as it loads. A `MaxJit`
//! module (an alias of `Max`) is stored exactly like a `Max` one, tier byte
//! aside. The
//! digest covers the module bytes *and* the bodies, so a flipped bit
//! anywhere in a cached kernel is a miss, never a different result.

use std::io::Write;
use std::path::{Path, PathBuf};

use wasm_engine::decode::decode_module;
use wasm_engine::leb128::{self, Reader};
use wasm_engine::regalloc::RegFunc;
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
//  3 — the unoptimized flattened op stream (lowered again on every load);
//      digest covers bodies as well as module.
//  4 — flat bodies are the register form that executes.
const VERSION: u8 = 4;

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
/// each function's compiled body (for the flat tiers, the resident
/// register form as it is). An artifact is always complete: bodies the
/// module has not lowered yet are lowered here, so what is stored does not
/// depend on what the module happened to run.
///
/// # Panics
///
/// If a body cannot be lowered — `CompiledModule::compile` and
/// `lower_all` report that as an error; store a module that passed one.
pub fn store_artifact(wasm_bytes: &[u8], compiled: &CompiledModule) -> Vec<u8> {
    let bodies = compiled.bodies().expect("store_artifact takes a module that lowers completely");
    let code_size: usize = bodies.iter().map(|b| b.size_bytes()).sum();
    let mut out = Vec::with_capacity(wasm_bytes.len() + code_size + 64);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(tier_byte(compiled.tier()));
    out.extend_from_slice(&[0; DIGEST]);
    leb128::write_u32(&mut out, wasm_bytes.len() as u32);
    out.extend_from_slice(wasm_bytes);
    leb128::write_u32(&mut out, bodies.len() as u32);
    for body in bodies {
        match body {
            CompiledBody::Interp(_) => out.push(0),
            CompiledBody::Flat(f) => {
                out.push(1);
                f.write(&mut out);
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
    // `from_parts` validates the module before it asks for the first body
    // and rejects a body kind that is not the tier's; a body that fails to
    // read is corrupt — reject the artifact so the cache recompiles.
    let compiled = CompiledModule::from_parts(module, tier, |module, func| {
        Ok(match r.read_u8().map_err(|e| e.to_string())? {
            0 => None,
            1 => Some(RegFunc::read(&mut r, module, func)?),
            b => return Err(format!("bad body tag {b}")),
        })
    })
    .map_err(|e| e.to_string())?;
    if !r.is_empty() {
        return Err("bytes after the last body".into());
    }
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use wasm_engine::instr::MemArg;
    use wasm_engine::regalloc::Rc;
    use wasm_engine::runtime::{Linker, Value};
    use wasm_engine::types::BlockType;
    use wasm_engine::{FuncType, Instr as I, ModuleBuilder, ValType};

    /// A module small enough for the every-byte sweeps that still puts
    /// every `regalloc::verify` arm and both pools under them: three
    /// functions, a direct and an indirect call, a scaled store and load, a
    /// global, a `br_table` carrying a value over an unwind, an `if`/`else`
    /// inside a loop, a `v128.const`, a lane extract and a v128 `drop`.
    fn sample_wasm() -> Vec<u8> {
        use ValType::I32;
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let g = b.global(I32, true, I::I32Const(7));
        let leaf = b.func_private(vec![I32], vec![I32], |f| {
            f.emit_all([I::LocalGet(0), I::I32Const(1), I::I32Add]);
        });
        let lanes = b.func_private(vec![I32], vec![I32], |f| {
            f.emit_all([
                I::I32Const(16),
                I::V128Load(MemArg::offset(0)),
                I::Drop,
                I::v128_const([1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0]),
                I::I32x4ExtractLane(2),
                I::GlobalGet(g),
                I::I32Add,
                I::LocalGet(0),
                I::I32Add,
                I::GlobalSet(g),
                I::GlobalGet(g),
            ]);
        });
        b.table(vec![leaf, lanes]);
        let ty = b.type_idx(FuncType::new(vec![I32], vec![I32]));
        b.func("main", vec![I32], vec![I32], |f| {
            let (n, i, acc) = (0, f.local(I32), f.local(I32));
            f.emit_all([
                I::Block(BlockType::Empty),
                I::Loop(BlockType::Empty),
                I::LocalGet(i),
                I::LocalGet(n),
                I::I32GeS,
                I::BrIf(1),
                // Odd i: leaf(i); even i: table[(i >> 1) & 1](i).
                I::LocalGet(i),
                I::I32Const(1),
                I::I32And,
                I::If(BlockType::Value(I32)),
                I::LocalGet(i),
                I::Call(leaf),
                I::Else,
                I::LocalGet(i),
                I::LocalGet(i),
                I::I32Const(1),
                I::I32ShrU,
                I::I32Const(1),
                I::I32And,
                I::CallIndirect { type_idx: ty, table: 0 },
                I::End,
                I::LocalGet(acc),
                I::I32Add,
                I::LocalSet(acc),
                // mem[64 + (i << 2)] = acc, and back.
                I::LocalGet(i),
                I::I32Const(2),
                I::I32Shl,
                I::I32Const(64),
                I::I32Add,
                I::LocalGet(acc),
                I::I32Store(MemArg::offset(0)),
                I::LocalGet(acc),
                I::Block(BlockType::Value(I32)),
                I::Block(BlockType::Value(I32)),
                I::LocalGet(i),
                I::I32Const(2),
                I::I32Shl,
                I::I32Load(MemArg::offset(64)),
                I::LocalGet(i),
                I::I32Const(3),
                I::I32And,
                I::br_table(vec![0, 1], 1),
                I::End,
                I::I32Const(5),
                I::I32Mul,
                I::End,
                I::I32Xor,
                I::LocalSet(acc),
                I::LocalGet(i),
                I::I32Const(1),
                I::I32Add,
                I::LocalSet(i),
                I::Br(0),
                I::End,
                I::End,
                I::LocalGet(acc),
                I::Call(lanes),
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

    fn compile(wasm: &[u8], tier: Tier) -> CompiledModule {
        CompiledModule::compile(decode_module(wasm).unwrap(), tier).unwrap()
    }

    fn run_main(compiled: &CompiledModule, n: i32) -> i32 {
        let mut inst = Linker::new().instantiate(compiled, Box::new(())).unwrap();
        inst.invoke("main", &[Value::I32(n)]).unwrap()[0].as_i32().unwrap()
    }

    /// `main(n)` as the independent baseline interpreter computes it.
    fn expected(wasm: &[u8], n: i32) -> i32 {
        run_main(&compile(wasm, Tier::Baseline), n)
    }

    #[test]
    fn the_sample_holds_what_the_sweeps_are_meant_to_cover() {
        let compiled = compile(&sample_wasm(), Tier::Max);
        let flat: Vec<&RegFunc> = compiled
            .bodies()
            .unwrap()
            .into_iter()
            .map(|b| match b {
                CompiledBody::Flat(f) => f,
                CompiledBody::Interp(_) => panic!("flat tier expected"),
            })
            .collect();
        assert_eq!(flat.len(), 3);
        let ops: Vec<Rc> = flat.iter().flat_map(|f| f.code.iter().map(|op| op.code)).collect();
        for code in [
            Rc::CallGuest,
            Rc::CallIndirect,
            Rc::Store32ShlK,
            Rc::Load32ShlK,
            Rc::GlobalGet,
            Rc::GlobalSet,
            Rc::BrTable,
            Rc::BrIfZ,
            Rc::V128Const,
            Rc::V128Load,
            Rc::Extract32,
        ] {
            assert!(ops.contains(&code), "no {code:?} in {ops:?}");
        }
    }

    #[test]
    fn artifact_roundtrip_executes_identically() {
        let wasm = sample_wasm();
        let want = expected(&wasm, 10);
        for tier in Tier::ALL {
            let compiled = compile(&wasm, tier);
            let artifact = store_artifact(&wasm, &compiled);
            let loaded = load_artifact(&artifact).unwrap();
            assert_eq!(loaded.tier(), tier);
            assert_eq!(run_main(&compiled, 10), want, "tier {tier}");
            assert_eq!(run_main(&loaded, 10), want, "tier {tier}, loaded");
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
        assert_eq!(run_main(&compiled, 12), expected(&wasm, 12));
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

    /// Which part of a flat body a byte of a flat-tier artifact belongs to.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Region {
        /// The body tag, `frame_size` and `scratch_slots`.
        Header,
        /// A record count.
        Count,
        Code,
        DestPool,
        V128Pool,
    }

    /// The byte ranges of every flat body of a flat-tier artifact, by
    /// region, in order (the layout `RegFunc::write` documents).
    fn body_regions(artifact: &[u8]) -> Vec<(Range<usize>, Region)> {
        let word = |at: usize| u32::from_le_bytes(artifact[at..at + 4].try_into().unwrap()) as usize;
        let mut r = Reader::new(&artifact[HEADER + DIGEST..]);
        let len = r.read_u32().unwrap() as usize;
        r.read_bytes(len).unwrap();
        let n_bodies = r.read_u32().unwrap();
        let mut at = HEADER + DIGEST + r.pos();
        let mut out = Vec::new();
        for _ in 0..n_bodies {
            assert_eq!(artifact[at], 1, "flat body expected");
            out.push((at..at + 9, Region::Header));
            at += 9;
            for (size, region) in [(22, Region::Code), (12, Region::DestPool), (16, Region::V128Pool)] {
                out.push((at..at + 4, Region::Count));
                let bytes = word(at) * size;
                out.push((at + 4..at + 4 + bytes, region));
                at += 4 + bytes;
            }
        }
        assert_eq!(at, artifact.len());
        out
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
        // and computed a different result.)
        let cache = tmp_cache();
        let wasm = sample_wasm();
        let want = expected(&wasm, 10);
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
            assert_eq!(run_main(&compiled, 10), want);
            assert_eq!(std::fs::read(&path).unwrap(), good, "tier {tier}: artifact not rewritten");
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn resealed_body_corruption_never_panics_the_host() {
        // The same sweep over the body bytes with the digest recomputed:
        // the artifact now *is* what its writer meant to store, so all
        // that stands between it and the executors' unchecked frame
        // accesses is `RegFunc::read` ending in `regalloc::verify`.
        // Whatever loads must run main(10) — to any result or trap —
        // without a host panic, and some mutation of every region must get
        // that far: rejecting everything is not passing.
        let wasm = sample_wasm();
        let mut panics = Vec::new();
        for tier in [Tier::Optimizing, Tier::MaxJit] {
            let good = store_artifact(&wasm, &compile(&wasm, tier));
            let mut ran = Vec::new();
            for (range, region) in body_regions(&good) {
                for at in range {
                    for mask in MASKS {
                        let mut bad = good.clone();
                        bad[at] ^= mask;
                        reseal(&mut bad);
                        let run = std::panic::catch_unwind(|| {
                            let Ok(compiled) = load_artifact(&bad) else { return false };
                            let mut inst =
                                Linker::new().instantiate(&compiled, Box::new(())).unwrap();
                            inst.set_fuel(1_000_000);
                            let _ = inst.invoke("main", &[Value::I32(10)]);
                            true
                        });
                        match run {
                            Ok(true) => ran.push(region),
                            Ok(false) => {}
                            Err(_) => panics.push((tier, at, mask)),
                        }
                    }
                }
            }
            for region in [Region::Header, Region::Code, Region::DestPool, Region::V128Pool] {
                assert!(ran.contains(&region), "tier {tier}: no {region:?} mutation loaded and ran");
            }
        }
        assert!(panics.is_empty(), "host panics at (tier, byte, mask): {panics:?}");
    }

    /// The artifact of the sample at `Max`, and the offset of its first
    /// body's first code record.
    fn max_artifact(wasm: &[u8]) -> (Vec<u8>, usize) {
        let bytes = store_artifact(wasm, &compile(wasm, Tier::Max));
        let code = body_regions(&bytes).into_iter().find(|(_, r)| *r == Region::Code).unwrap().0;
        (bytes, code.start)
    }

    /// A resealed artifact the loader must reject, written over the cached
    /// one: the cache recompiles instead of serving it.
    fn assert_recompiles(wasm: &[u8], bad: &[u8], why: &str) {
        let err = load_artifact(bad).err().unwrap_or_else(|| panic!("{why}: loaded"));
        assert!(err.contains(why), "{err}");
        let cache = tmp_cache();
        cache.get_or_compile(wasm, Tier::Max).unwrap();
        let path = cache.dir().join(format!("{}.mwac", ModuleCache::key(wasm, Tier::Max)));
        std::fs::write(&path, bad).unwrap();
        let (compiled, hit) = cache.get_or_compile(wasm, Tier::Max).unwrap();
        assert!(!hit, "{why}: served");
        assert_eq!(run_main(&compiled, 10), expected(wasm, 10));
        assert!(load_artifact(&std::fs::read(&path).unwrap()).is_ok(), "{why}: not rewritten");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn an_opcode_byte_that_is_no_rc_is_a_miss() {
        // Byte 20 of a code record indexes the executors' handler table.
        let wasm = sample_wasm();
        let (mut bytes, code) = max_artifact(&wasm);
        assert!(Rc::from_byte(bytes[code + 20]).is_some());
        bytes[code + 20] = 0xff;
        reseal(&mut bytes);
        assert_recompiles(&wasm, &bytes, "no opcode 255");
    }

    #[test]
    fn a_chain_only_opcode_byte_is_a_miss() {
        // The fused steps of a step program are `Rc`s past `CmpAddK32`,
        // which `Rc::from_byte` stops at: no artifact can name one.
        let wasm = sample_wasm();
        let (good, code) = max_artifact(&wasm);
        for byte in Rc::CmpAddK32 as u8 + 1..=Rc::RemUK32R as u8 {
            assert!(Rc::from_byte(byte).is_none(), "byte {byte}");
            let mut bytes = good.clone();
            bytes[code + 20] = byte;
            reseal(&mut bytes);
            assert_recompiles(&wasm, &bytes, &format!("no opcode {byte}"));
        }
    }

    #[test]
    fn a_header_field_the_module_contradicts_is_a_miss() {
        // `leaf` has one parameter slot; no frame of it is empty. (What
        // the module says outright — parameter, result and local slot
        // counts — is not in the artifact to be contradicted.)
        let wasm = sample_wasm();
        let (mut bytes, code) = max_artifact(&wasm);
        let frame_size = code - 4 - 8;
        bytes[frame_size..frame_size + 4].copy_from_slice(&0u32.to_le_bytes());
        reseal(&mut bytes);
        assert_recompiles(&wasm, &bytes, "inconsistent frame layout");
    }

    #[test]
    fn a_body_of_the_wrong_kind_or_trailing_bytes_are_a_miss() {
        // Both loaded at the parent of this test: the leaf became an
        // interpreter body in a flat-tier module (a host panic on the
        // first call) and bytes after the last body were ignored.
        let wasm = sample_wasm();
        let baseline = store_artifact(&wasm, &compile(&wasm, Tier::Baseline));
        for tier in [Tier::Optimizing, Tier::Max, Tier::MaxJit] {
            let good = store_artifact(&wasm, &compile(&wasm, tier));
            // The last body's tag, 1 -> 0: what follows it is then junk too.
            let last_tag = body_regions(&good).iter().rev().find(|(_, r)| *r == Region::Header).unwrap().0.start;
            let mut bad = good.clone();
            bad[last_tag] ^= 0x01;
            reseal(&mut bad);
            assert!(load_artifact(&bad).is_err(), "tier {tier}: interpreter body loaded");
            // Interpreter bodies only, under a flat tier's byte.
            let mut bad = baseline.clone();
            bad[5] = tier_byte(tier);
            reseal(&mut bad);
            let err = load_artifact(&bad).err().expect("baseline bodies at a flat tier");
            assert!(err.contains("another tier's kind"), "{err}");
            let mut bad = good.clone();
            bad.extend_from_slice(b"junk");
            reseal(&mut bad);
            assert_eq!(load_artifact(&bad).err().unwrap(), "bytes after the last body");
        }
        // And flat bodies under the baseline tier's byte.
        let mut bad = store_artifact(&wasm, &compile(&wasm, Tier::Max));
        bad[5] = tier_byte(Tier::Baseline);
        reseal(&mut bad);
        assert!(load_artifact(&bad).err().unwrap().contains("another tier's kind"));
    }

    #[test]
    fn stale_version_artifact_forces_recompile() {
        // An artifact written by an older engine (VERSION 3: the flattened
        // op stream) must not be served: the loader rejects it and the
        // cache falls back to recompilation.
        let cache = tmp_cache();
        let wasm = sample_wasm();
        cache.get_or_compile(&wasm, Tier::Max).unwrap();
        let key = ModuleCache::key(&wasm, Tier::Max);
        let path = cache.dir().join(format!("{key}.mwac"));
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[4], VERSION);
        bytes[4] = 3; // stale on-disk format
        std::fs::write(&path, &bytes).unwrap();
        let (compiled, hit) = cache.get_or_compile(&wasm, Tier::Max).unwrap();
        assert!(!hit, "stale-version artifact must not be served");
        assert_eq!(run_main(&compiled, 10), expected(&wasm, 10));
        // The stale file was replaced by a fresh, loadable artifact.
        let fresh = std::fs::read(&path).unwrap();
        assert_eq!(fresh[4], VERSION);
        assert!(load_artifact(&fresh).is_ok());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn artifact_rejects_tampered_module_bytes() {
        let wasm = sample_wasm();
        let mut artifact = store_artifact(&wasm, &compile(&wasm, Tier::Max));
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
        assert!(size > wasm.len() as u64, "the artifact embeds the wasm bytes");
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
