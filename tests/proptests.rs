//! Property-based tests over the whole stack:
//!
//! * random arithmetic programs evaluate identically on every execution
//!   tier and match a reference evaluation in Rust (differential testing
//!   of the interpreter vs the optimizing tiers vs ground truth),
//! * encode→decode round-trips arbitrary built modules,
//! * cache artifacts round-trip arbitrary compiled modules,
//! * collectives match sequential oracles on random inputs,
//! * the sandbox never lets a random (pointer, length) pair escape memory.

use proptest::prelude::*;

use mpi_substrate::{run_world, Datatype, ReduceOp};
use wasm_engine::dsl::{self, Expr};
use wasm_engine::runtime::{CompiledModule, Linker, Value};
use wasm_engine::types::ValType;
use wasm_engine::{encode_module, ModuleBuilder, Tier, Trap};

/// A reference-evaluatable arithmetic expression over two i32 inputs.
/// `Div`/`Rem` bring the wasm trap semantics into the differential net:
/// the reference evaluation reports a trap as `Err(())` and every tier
/// must trap too.
#[derive(Debug, Clone)]
enum Ast {
    X,
    Y,
    Const(i32),
    Add(Box<Ast>, Box<Ast>),
    Sub(Box<Ast>, Box<Ast>),
    Mul(Box<Ast>, Box<Ast>),
    Div(Box<Ast>, Box<Ast>),
    Rem(Box<Ast>, Box<Ast>),
    And(Box<Ast>, Box<Ast>),
    Or(Box<Ast>, Box<Ast>),
    Xor(Box<Ast>, Box<Ast>),
    Select(Box<Ast>, Box<Ast>, Box<Ast>),
}

impl Ast {
    fn eval(&self, x: i32, y: i32) -> Result<i32, ()> {
        Ok(match self {
            Ast::X => x,
            Ast::Y => y,
            Ast::Const(c) => *c,
            Ast::Add(a, b) => a.eval(x, y)?.wrapping_add(b.eval(x, y)?),
            Ast::Sub(a, b) => a.eval(x, y)?.wrapping_sub(b.eval(x, y)?),
            Ast::Mul(a, b) => a.eval(x, y)?.wrapping_mul(b.eval(x, y)?),
            Ast::Div(a, b) => {
                let (a, b) = (a.eval(x, y)?, b.eval(x, y)?);
                if b == 0 || (a == i32::MIN && b == -1) {
                    return Err(()); // divide-by-zero / overflow trap
                }
                a.wrapping_div(b)
            }
            Ast::Rem(a, b) => {
                let (a, b) = (a.eval(x, y)?, b.eval(x, y)?);
                if b == 0 {
                    return Err(());
                }
                a.wrapping_rem(b)
            }
            Ast::And(a, b) => a.eval(x, y)? & b.eval(x, y)?,
            Ast::Or(a, b) => a.eval(x, y)? | b.eval(x, y)?,
            Ast::Xor(a, b) => a.eval(x, y)? ^ b.eval(x, y)?,
            Ast::Select(c, a, b) => {
                // Wasm `select` is strict: both arms evaluate (and may
                // trap) before the choice.
                let (c, a, b) = (c.eval(x, y)?, a.eval(x, y)?, b.eval(x, y)?);
                if c != 0 {
                    a
                } else {
                    b
                }
            }
        })
    }

    fn to_dsl(&self) -> Expr {
        match self {
            Ast::X => dsl::local(0, ValType::I32).get(),
            Ast::Y => dsl::local(1, ValType::I32).get(),
            Ast::Const(c) => dsl::int(*c),
            Ast::Add(a, b) => a.to_dsl() + b.to_dsl(),
            Ast::Sub(a, b) => a.to_dsl() - b.to_dsl(),
            Ast::Mul(a, b) => a.to_dsl() * b.to_dsl(),
            Ast::Div(a, b) => a.to_dsl() / b.to_dsl(),
            Ast::Rem(a, b) => a.to_dsl() % b.to_dsl(),
            Ast::And(a, b) => a.to_dsl().and(b.to_dsl()),
            Ast::Or(a, b) => a.to_dsl().or(b.to_dsl()),
            Ast::Xor(a, b) => a.to_dsl().xor(b.to_dsl()),
            Ast::Select(c, a, b) => dsl::select(c.to_dsl().ne(dsl::int(0)), a.to_dsl(), b.to_dsl()),
        }
    }
}

fn ast_strategy() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        Just(Ast::X),
        Just(Ast::Y),
        any::<i32>().prop_map(Ast::Const),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Div(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Rem(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::And(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Or(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Xor(a.into(), b.into())),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, a, b)| {
                Ast::Select(c.into(), a.into(), b.into())
            }),
        ]
    })
}

/// `f(x, y)` evaluates the expression; `g(x, y)` calls `f` [`G_ITERS`]
/// times, writing the iteration number to address 0 before each call —
/// under a fuel budget, how far it got is where the budget ran out.
fn compile_ast(ast: &Ast) -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    let expr = ast.to_dsl();
    let f = b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::I32], move |f| {
        dsl::emit_block(f, &[dsl::ret(Some(expr.clone()))]);
    });
    b.func("g", vec![ValType::I32, ValType::I32], vec![ValType::I32], move |fb| {
        let (x, y) = (dsl::local(0, ValType::I32), dsl::local(1, ValType::I32));
        let (i, acc) = (dsl::Var::new(fb, ValType::I32), dsl::Var::new(fb, ValType::I32));
        let body = [
            dsl::store(dsl::int(0), 0, i.get()),
            acc.set(acc.get().xor(dsl::call(f, vec![x.get(), y.get()], ValType::I32))),
        ];
        dsl::emit_block(
            fb,
            &[
                dsl::for_range(i, dsl::int(0), dsl::int(G_ITERS), &body),
                dsl::ret(Some(acc.get())),
            ],
        );
    });
    encode_module(&b.finish())
}

/// Enough iterations (a call and a backward branch each) for several of
/// the tiers' 1024-event fuel batches.
const G_ITERS: i32 = 3000;
const G_FUEL: u64 = 2500;

/// Everything a construction of a module may differ in: `f`'s result or
/// trap, and for `g` under [`G_FUEL`] its result or trap, the fuel left
/// and the last iteration it began.
#[derive(Debug, PartialEq)]
struct Observed {
    f: Result<Value, String>,
    g: Result<Value, String>,
    fuel_left: u64,
    g_reached: i32,
}

fn observe(compiled: &CompiledModule, x: i32, y: i32) -> Observed {
    // Promote on first entry so MaxJit actually runs its chains.
    compiled.set_jit_threshold(1);
    let args = [Value::I32(x), Value::I32(y)];
    let mut inst = Linker::new().instantiate(compiled, Box::new(())).unwrap();
    let f = inst.invoke("f", &args).map(|out| out[0]).map_err(|t| t.to_string());
    inst.set_fuel(G_FUEL);
    let g = inst.invoke("g", &args).map(|out| out[0]).map_err(|t| t.to_string());
    let g_reached = i32::from_le_bytes(inst.memory.slice(0, 4).unwrap().try_into().unwrap());
    Observed { f, g, fuel_left: inst.fuel_left(), g_reached }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential execution: all four tiers agree with ground truth on
    /// both results and traps (the safety net for the untyped-slot engine,
    /// the Max tier's superinstruction fusion, and the superblock chains),
    /// and at every tier a module that lowers each function on its first
    /// call is indistinguishable from one compiled up front — results,
    /// traps and the point at which fuel runs out.
    #[test]
    fn tiers_agree_with_reference(ast in ast_strategy(), x in any::<i32>(), y in any::<i32>()) {
        let wasm = compile_ast(&ast);
        let module = wasm_engine::decode_module(&wasm).unwrap();
        wasm_engine::validate_module(&module).unwrap();
        let expected = ast.eval(x, y);
        let mut trap_messages: Vec<String> = Vec::new();
        for tier in Tier::ALL {
            let compiled = CompiledModule::compile(module.clone(), tier).unwrap();
            let observed = observe(&compiled, x, y);
            let deferred = CompiledModule::deferred(module.clone(), tier).unwrap();
            prop_assert_eq!(&observe(&deferred, x, y), &observed, "tier {} deferred", tier);
            prop_assert_eq!(deferred.lowered_funcs(), 2, "tier {}", tier);
            match (&expected, observed.f) {
                (Ok(v), Ok(got)) => {
                    prop_assert_eq!(got, Value::I32(*v), "tier {}", tier);
                    prop_assert_eq!(&observed.g, &Err(Trap::OutOfFuel.to_string()), "tier {}", tier);
                }
                (Err(()), Err(trap)) => trap_messages.push(trap),
                (Ok(v), Err(trap)) => {
                    return Err(TestCaseError::fail(format!(
                        "tier {tier} trapped ({trap}) but reference produced {v}"
                    )));
                }
                (Err(()), Ok(got)) => {
                    return Err(TestCaseError::fail(format!(
                        "tier {tier} produced {got:?} but reference trapped"
                    )));
                }
            }
        }
        // When it traps, every tier must report the same trap.
        if !trap_messages.is_empty() {
            prop_assert_eq!(trap_messages.len(), Tier::ALL.len());
            for pair in trap_messages.windows(2) {
                prop_assert_eq!(&pair[0], &pair[1]);
            }
        }
    }

    /// Binary round-trip: decode(encode(m)) == m for generated modules.
    #[test]
    fn encode_decode_roundtrip(ast in ast_strategy()) {
        let wasm = compile_ast(&ast);
        let module = wasm_engine::decode_module(&wasm).unwrap();
        let re = encode_module(&module);
        prop_assert_eq!(&wasm, &re, "re-encoding must be stable");
        let module2 = wasm_engine::decode_module(&re).unwrap();
        prop_assert_eq!(module, module2);
    }

    /// Cache artifacts round-trip and execute identically.
    #[test]
    fn artifact_roundtrip_executes(ast in ast_strategy(), x in -1000i32..1000, y in -1000i32..1000) {
        let wasm = compile_ast(&ast);
        let module = wasm_engine::decode_module(&wasm).unwrap();
        let compiled = CompiledModule::compile(module, Tier::Max).unwrap();
        let artifact = mpiwasm::cache::store_artifact(&wasm, &compiled);
        let loaded = mpiwasm::cache::load_artifact(&artifact).unwrap();
        // Compare outcomes including traps (the AST can divide by zero).
        let run = |c: &CompiledModule| {
            let mut inst = Linker::new().instantiate(c, Box::new(())).unwrap();
            inst.invoke("f", &[Value::I32(x), Value::I32(y)])
                .map(|out| out[0])
                .map_err(|t| t.to_string())
        };
        prop_assert_eq!(run(&compiled), run(&loaded));
    }

    /// Truncated or bit-flipped binaries never panic the decoder: they
    /// decode, fail validation, or return an error.
    #[test]
    fn decoder_is_total(ast in ast_strategy(), cut in 0usize..100, flip in 0usize..100) {
        let mut wasm = compile_ast(&ast);
        let cut_at = 8 + (cut * wasm.len().saturating_sub(8)) / 100;
        wasm.truncate(cut_at.max(8));
        if !wasm.is_empty() {
            let idx = flip % wasm.len();
            wasm[idx] ^= 0x55;
        }
        // Must not panic; errors are fine.
        if let Ok(m) = wasm_engine::decode_module(&wasm) {
            let _ = wasm_engine::validate_module(&m);
        }
    }

    /// A flipped byte that leaves the binary decodable and valid leaves it
    /// lowerable: every tier answers `Ok` or `Err`, never with a panic. The
    /// lowerers `expect` what validation proved, so anything they assume and
    /// the validator does not check shows up here and not in a guest.
    #[test]
    fn valid_mutants_lower_without_panicking(
        ast in ast_strategy(),
        at in any::<usize>(),
        mask in 1u16..256,
    ) {
        let mut wasm = compile_ast(&ast);
        // Past the magic and version, which no mutant survives.
        let idx = 8 + at % (wasm.len() - 8);
        wasm[idx] ^= mask as u8;
        if let Ok(module) = wasm_engine::decode_module(&wasm) {
            // `compile` validates first; only what validates is lowered.
            for tier in Tier::ALL {
                let _ = CompiledModule::compile(module.clone(), tier);
            }
        }
    }

    /// Random guest pointers can never escape linear memory.
    #[test]
    fn sandbox_bounds_hold(addr in any::<u32>(), len in any::<u32>()) {
        let mem = wasm_engine::runtime::Memory::new(wasm_engine::types::Limits::new(2, Some(2)));
        match mem.slice(addr, len) {
            Ok(s) => {
                prop_assert!(addr as u64 + len as u64 <= mem.size_bytes() as u64);
                prop_assert_eq!(s.len(), len as usize);
            }
            Err(_) => {
                prop_assert!(addr as u64 + len as u64 > mem.size_bytes() as u64);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Allreduce equals the sequential oracle on random doubles at random
    /// world sizes.
    #[test]
    fn allreduce_matches_oracle(
        p in 1u32..6,
        values in proptest::collection::vec(-1e6f64..1e6, 4),
        op_idx in 0usize..3,
    ) {
        let ops = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min];
        let op = ops[op_idx];
        let vals = values.clone();
        let out = run_world(p, move |comm| {
            let mine: Vec<f64> =
                vals.iter().map(|v| v + comm.rank() as f64).collect();
            let send: Vec<u8> = mine.iter().flat_map(|v| v.to_le_bytes()).collect();
            let mut recv = vec![0u8; send.len()];
            comm.allreduce(&send, &mut recv, Datatype::Double, op).unwrap();
            recv.chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect::<Vec<f64>>()
        });
        // Oracle.
        for (i, base) in values.iter().enumerate() {
            let contributions: Vec<f64> = (0..p).map(|r| base + r as f64).collect();
            let expected = match op {
                ReduceOp::Sum => contributions.iter().sum::<f64>(),
                ReduceOp::Max => contributions.iter().cloned().fold(f64::MIN, f64::max),
                _ => contributions.iter().cloned().fold(f64::MAX, f64::min),
            };
            for rank_out in &out {
                prop_assert!((rank_out[i] - expected).abs() < 1e-6,
                    "elem {i}: {} vs {expected}", rank_out[i]);
            }
        }
    }

    /// Differential conformance for derived-datatype sends through the
    /// guest ABI: the host's pack-on-send of an `MPI_Type_vector` must be
    /// byte-identical to the guest packing the same strided region by
    /// hand, for random type shapes, in both clock modes, with payloads
    /// on both sides of the rendezvous threshold.
    #[test]
    fn derived_type_send_matches_manual_packing(
        count in 1i32..16,
        blocklen in 1i32..8,
        gap in 0i32..8,
    ) {
        use hpc_benchmarks::guest::{layout, MpiImports, MPI_INT};
        use mpi_substrate::ClockMode;
        use mpiwasm::{JobConfig, Runner};
        use netsim::{CostModel, SystemProfile};
        use wasm_engine::dsl::*;

        let stride = blocklen + gap;
        let ext = (count - 1) * stride + blocklen; // extent in ints
        let per_instance = count * blocklen; // packed ints per instance

        // One eager-sized and one rendezvous-sized payload (the real-mode
        // default threshold is 64 KiB).
        for target_bytes in [4 << 10, 96 << 10] {
            let n = ((target_bytes / (per_instance * 4)).max(1)).min(4096);
            let total = n * per_instance; // packed ints on the wire
            let span = n * ext; // source ints the type walks over

            const TYPE: i32 = 256;
            let pack_buf = layout::SEND_BUF + (4 << 20);
            let recv_b = layout::RECV_BUF + (8 << 20);

            let mut b = wasm_engine::ModuleBuilder::new();
            b.memory(layout::PAGES, None);
            let mpi = MpiImports::declare(&mut b);
            b.func("_start", vec![], vec![], |f| {
                let rank = Var::new(f, ValType::I32);
                let inst = Var::new(f, ValType::I32);
                let blk = Var::new(f, ValType::I32);
                let e = Var::new(f, ValType::I32);
                let d = Var::new(f, ValType::I32);
                let mism = Var::new(f, ValType::I32);
                let sum = Var::new(f, ValType::F64);
                let mut stmts = vec![mpi.init()];
                stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
                stmts.push(if_else(
                    rank.get().eq(int(0)),
                    &[
                        // Deterministic source values over the whole span.
                        for_range(e, int(0), int(span), &[store(
                            int(layout::SEND_BUF) + e.get() * int(4),
                            0,
                            (e.get() * int(7) + int(3)).and(int(0xffff)),
                        )]),
                        mpi.type_vector(int(count), int(blocklen), int(stride), MPI_INT, int(TYPE)),
                        mpi.type_commit(int(TYPE)),
                        // Subject: the host packs n instances on send.
                        mpi.send_dt(
                            int(layout::SEND_BUF),
                            int(n),
                            int(TYPE).load(ValType::I32, 0),
                            int(1),
                            int(1),
                        ),
                        // Oracle: pack the identical walk by hand.
                        d.set(int(0)),
                        for_range(inst, int(0), int(n), &[
                            for_range(blk, int(0), int(count), &[
                                for_range(e, int(0), int(blocklen), &[
                                    store(
                                        int(pack_buf) + d.get() * int(4),
                                        0,
                                        (int(layout::SEND_BUF)
                                            + (inst.get() * int(ext)
                                                + blk.get() * int(stride)
                                                + e.get())
                                                * int(4))
                                            .load(ValType::I32, 0),
                                    ),
                                    d.set(d.get() + int(1)),
                                ]),
                            ]),
                        ]),
                        mpi.send(int(pack_buf), int(total), MPI_INT, int(1), int(2)),
                        mpi.type_free(int(TYPE)),
                    ],
                    &[
                        mpi.recv(int(layout::RECV_BUF), int(total), MPI_INT, int(0), int(1)),
                        mpi.recv(int(recv_b), int(total), MPI_INT, int(0), int(2)),
                        mism.set(int(0)),
                        sum.set(double(0.0)),
                        for_range(e, int(0), int(total), &[
                            if_then(
                                (int(layout::RECV_BUF) + e.get() * int(4))
                                    .load(ValType::I32, 0)
                                    .ne((int(recv_b) + e.get() * int(4)).load(ValType::I32, 0)),
                                &[mism.set(mism.get() + int(1))],
                            ),
                            sum.set(
                                sum.get()
                                    + (int(layout::RECV_BUF) + e.get() * int(4))
                                        .load(ValType::I32, 0)
                                        .to(ValType::F64),
                            ),
                        ]),
                        mpi.report(int(0), mism.get().to(ValType::F64)),
                        mpi.report(int(1), sum.get()),
                    ],
                ));
                stmts.push(mpi.finalize());
                emit_block(f, &stmts);
            });
            let wasm = encode_module(&b.finish());

            // Ground truth for the packed stream's checksum.
            let mut expected = 0.0f64;
            for i in 0..n {
                for bk in 0..count {
                    for el in 0..blocklen {
                        let src = i * ext + bk * stride + el;
                        expected += ((src * 7 + 3) & 0xffff) as f64;
                    }
                }
            }

            for clock in [
                ClockMode::Real,
                ClockMode::Virtual(CostModel::native(SystemProfile::container())),
            ] {
                let result = Runner::new()
                    .run(&wasm, JobConfig { np: 2, clock: clock.clone(), ..Default::default() })
                    .unwrap();
                prop_assert!(result.success(), "{clock:?}: {:?}", result.ranks[1].error);
                let reports = &result.ranks[1].reports;
                prop_assert_eq!(
                    reports[0],
                    (0, 0.0),
                    "host pack differs from manual pack: {:?} n={} count={} blocklen={} stride={}",
                    clock, n, count, blocklen, stride
                );
                prop_assert_eq!(reports[1], (1, expected), "checksum vs ground truth: {:?}", clock);
            }
        }
    }

    /// Same differential for `MPI_Type_create_struct`: two int blocks at
    /// random byte displacements, host-packed vs the guest walking the
    /// displacement map by hand.
    #[test]
    fn derived_struct_send_matches_manual_packing(
        bl1 in 1i32..6,
        bl2 in 1i32..6,
        gap_words in 0i32..16,
    ) {
        use hpc_benchmarks::guest::{layout, MpiImports, MPI_INT};
        use mpi_substrate::ClockMode;
        use mpiwasm::{JobConfig, Runner};
        use netsim::{CostModel, SystemProfile};
        use wasm_engine::dsl::*;

        let disp2 = bl1 * 4 + gap_words * 4; // second block's byte offset
        let ext = disp2 + bl2 * 4; // extent in bytes (max segment end)
        let per_instance = bl1 + bl2; // packed ints per instance

        for target_bytes in [4 << 10, 96 << 10] {
            let n = ((target_bytes / (per_instance * 4)).max(1)).min(4096);
            let total = n * per_instance;
            let span_ints = n * ext / 4;

            const TYPE: i32 = 256;
            const BL_ARR: i32 = 384;
            const DISP_ARR: i32 = 400;
            const TY_ARR: i32 = 416;
            let pack_buf = layout::SEND_BUF + (4 << 20);
            let recv_b = layout::RECV_BUF + (8 << 20);

            let mut b = wasm_engine::ModuleBuilder::new();
            b.memory(layout::PAGES, None);
            let mpi = MpiImports::declare(&mut b);
            b.func("_start", vec![], vec![], |f| {
                let rank = Var::new(f, ValType::I32);
                let inst = Var::new(f, ValType::I32);
                let e = Var::new(f, ValType::I32);
                let d = Var::new(f, ValType::I32);
                let mism = Var::new(f, ValType::I32);
                let sum = Var::new(f, ValType::F64);
                let mut stmts = vec![mpi.init()];
                stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
                stmts.push(if_else(
                    rank.get().eq(int(0)),
                    &[
                        for_range(e, int(0), int(span_ints), &[store(
                            int(layout::SEND_BUF) + e.get() * int(4),
                            0,
                            (e.get() * int(7) + int(3)).and(int(0xffff)),
                        )]),
                        store(int(BL_ARR), 0, int(bl1)),
                        store(int(BL_ARR), 4, int(bl2)),
                        store(int(DISP_ARR), 0, int(0)),
                        store(int(DISP_ARR), 4, int(disp2)),
                        store(int(TY_ARR), 0, int(MPI_INT)),
                        store(int(TY_ARR), 4, int(MPI_INT)),
                        call_drop(
                            mpi.type_create_struct,
                            vec![int(2), int(BL_ARR), int(DISP_ARR), int(TY_ARR), int(TYPE)],
                        ),
                        mpi.type_commit(int(TYPE)),
                        mpi.send_dt(
                            int(layout::SEND_BUF),
                            int(n),
                            int(TYPE).load(ValType::I32, 0),
                            int(1),
                            int(1),
                        ),
                        // Manual oracle: walk the two displacement blocks.
                        d.set(int(0)),
                        for_range(inst, int(0), int(n), &[
                            for_range(e, int(0), int(bl1), &[
                                store(
                                    int(pack_buf) + d.get() * int(4),
                                    0,
                                    (int(layout::SEND_BUF)
                                        + inst.get() * int(ext)
                                        + e.get() * int(4))
                                        .load(ValType::I32, 0),
                                ),
                                d.set(d.get() + int(1)),
                            ]),
                            for_range(e, int(0), int(bl2), &[
                                store(
                                    int(pack_buf) + d.get() * int(4),
                                    0,
                                    (int(layout::SEND_BUF)
                                        + inst.get() * int(ext)
                                        + int(disp2)
                                        + e.get() * int(4))
                                        .load(ValType::I32, 0),
                                ),
                                d.set(d.get() + int(1)),
                            ]),
                        ]),
                        mpi.send(int(pack_buf), int(total), MPI_INT, int(1), int(2)),
                        mpi.type_free(int(TYPE)),
                    ],
                    &[
                        mpi.recv(int(layout::RECV_BUF), int(total), MPI_INT, int(0), int(1)),
                        mpi.recv(int(recv_b), int(total), MPI_INT, int(0), int(2)),
                        mism.set(int(0)),
                        sum.set(double(0.0)),
                        for_range(e, int(0), int(total), &[
                            if_then(
                                (int(layout::RECV_BUF) + e.get() * int(4))
                                    .load(ValType::I32, 0)
                                    .ne((int(recv_b) + e.get() * int(4)).load(ValType::I32, 0)),
                                &[mism.set(mism.get() + int(1))],
                            ),
                            sum.set(
                                sum.get()
                                    + (int(layout::RECV_BUF) + e.get() * int(4))
                                        .load(ValType::I32, 0)
                                        .to(ValType::F64),
                            ),
                        ]),
                        mpi.report(int(0), mism.get().to(ValType::F64)),
                        mpi.report(int(1), sum.get()),
                    ],
                ));
                stmts.push(mpi.finalize());
                emit_block(f, &stmts);
            });
            let wasm = encode_module(&b.finish());

            let mut expected = 0.0f64;
            for i in 0..n {
                for el in 0..bl1 {
                    let src = (i * ext) / 4 + el;
                    expected += ((src * 7 + 3) & 0xffff) as f64;
                }
                for el in 0..bl2 {
                    let src = (i * ext + disp2) / 4 + el;
                    expected += ((src * 7 + 3) & 0xffff) as f64;
                }
            }

            for clock in [
                ClockMode::Real,
                ClockMode::Virtual(CostModel::native(SystemProfile::container())),
            ] {
                let result = Runner::new()
                    .run(&wasm, JobConfig { np: 2, clock: clock.clone(), ..Default::default() })
                    .unwrap();
                prop_assert!(result.success(), "{clock:?}: {:?}", result.ranks[1].error);
                let reports = &result.ranks[1].reports;
                prop_assert_eq!(
                    reports[0],
                    (0, 0.0),
                    "host pack differs from manual pack: {:?} n={} bl1={} bl2={} disp2={}",
                    clock, n, bl1, bl2, disp2
                );
                prop_assert_eq!(reports[1], (1, expected), "checksum vs ground truth: {:?}", clock);
            }
        }
    }

    /// Alltoall is an exact transpose for random block contents.
    #[test]
    fn alltoall_transposes(p in 1u32..6, seed in any::<u64>()) {
        let out = run_world(p, move |comm| {
            let p = comm.size();
            let me = comm.rank();
            let block = |from: u32, to: u32| -> u8 {
                (seed as u8).wrapping_add((from * 31 + to * 7) as u8)
            };
            let send: Vec<u8> = (0..p).map(|to| block(me, to)).collect();
            let mut recv = vec![0u8; p as usize];
            comm.alltoall(&send, &mut recv).unwrap();
            (0..p).all(|from| recv[from as usize] == block(from, me))
        });
        prop_assert!(out.into_iter().all(|ok| ok));
    }
}
