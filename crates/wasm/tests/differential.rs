//! Differential testing of the execution tiers on random *structured*
//! programs: loops, branches, and local mutation — the constructs the
//! expression-level property tests (workspace `tests/proptests.rs`) do
//! not cover. Every generated program is evaluated by a reference
//! interpreter in plain Rust and must produce identical results on the
//! Baseline, Optimizing, and Max tiers.

use proptest::prelude::*;

use wasm_engine::dsl::{self, Var};
use wasm_engine::runtime::{CompiledModule, Linker, Value};
use wasm_engine::types::ValType;
use wasm_engine::{encode_module, ModuleBuilder, Tier};

const N_VARS: usize = 4;

#[derive(Debug, Clone)]
enum E {
    Var(usize),
    Const(i32),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    LtS(Box<E>, Box<E>),
}

#[derive(Debug, Clone)]
enum S {
    Assign(usize, E),
    If(E, Vec<S>, Vec<S>),
    /// Bounded counted loop: `for _ in 0..n { body }`.
    Repeat(u8, Vec<S>),
    /// Store var to memory then reload it through linear memory.
    StoreLoad(usize, u32),
}

fn eval_e(e: &E, vars: &[i32; N_VARS]) -> i32 {
    match e {
        E::Var(i) => vars[*i],
        E::Const(c) => *c,
        E::Add(a, b) => eval_e(a, vars).wrapping_add(eval_e(b, vars)),
        E::Sub(a, b) => eval_e(a, vars).wrapping_sub(eval_e(b, vars)),
        E::Mul(a, b) => eval_e(a, vars).wrapping_mul(eval_e(b, vars)),
        E::Xor(a, b) => eval_e(a, vars) ^ eval_e(b, vars),
        E::LtS(a, b) => (eval_e(a, vars) < eval_e(b, vars)) as i32,
    }
}

fn eval_s(stmts: &[S], vars: &mut [i32; N_VARS], mem: &mut [i32; 16]) {
    for s in stmts {
        match s {
            S::Assign(i, e) => vars[*i] = eval_e(e, vars),
            S::If(c, t, f) => {
                if eval_e(c, vars) != 0 {
                    eval_s(t, vars, mem);
                } else {
                    eval_s(f, vars, mem);
                }
            }
            S::Repeat(n, body) => {
                for _ in 0..*n {
                    eval_s(body, vars, mem);
                }
            }
            S::StoreLoad(i, slot) => {
                mem[*slot as usize] = vars[*i];
                vars[*i] = mem[*slot as usize];
            }
        }
    }
}

fn e_to_dsl(e: &E, vars: &[Var; N_VARS]) -> dsl::Expr {
    match e {
        E::Var(i) => vars[*i].get(),
        E::Const(c) => dsl::int(*c),
        E::Add(a, b) => e_to_dsl(a, vars) + e_to_dsl(b, vars),
        E::Sub(a, b) => e_to_dsl(a, vars) - e_to_dsl(b, vars),
        E::Mul(a, b) => e_to_dsl(a, vars) * e_to_dsl(b, vars),
        E::Xor(a, b) => e_to_dsl(a, vars).xor(e_to_dsl(b, vars)),
        E::LtS(a, b) => e_to_dsl(a, vars).lt(e_to_dsl(b, vars)),
    }
}

fn s_to_dsl(
    stmts: &[S],
    vars: &[Var; N_VARS],
    counters: &mut Vec<Var>,
    depth: usize,
    f: &mut wasm_engine::FunctionBuilder,
) -> Vec<dsl::Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            S::Assign(i, e) => vars[*i].set(e_to_dsl(e, vars)),
            S::If(c, t, els) => dsl::if_else(
                e_to_dsl(c, vars).ne(dsl::int(0)),
                &s_to_dsl(t, vars, counters, depth, f),
                &s_to_dsl(els, vars, counters, depth, f),
            ),
            S::Repeat(n, body) => {
                if counters.len() <= depth {
                    counters.push(Var::new(f, ValType::I32));
                }
                let counter = counters[depth];
                dsl::for_range(
                    counter,
                    dsl::int(0),
                    dsl::int(*n as i32),
                    &s_to_dsl(body, vars, counters, depth + 1, f),
                )
            }
            S::StoreLoad(i, slot) => {
                let addr = dsl::int((*slot as i32) * 4);
                dsl::Stmt::Raw(vec![])
                    .clone_into_store(vars[*i], addr)
            }
        })
        .collect()
}

// Small helper because StoreLoad expands to two statements.
trait StoreLoadExt {
    fn clone_into_store(self, var: Var, addr: dsl::Expr) -> dsl::Stmt;
}

impl StoreLoadExt for dsl::Stmt {
    fn clone_into_store(self, var: Var, addr: dsl::Expr) -> dsl::Stmt {
        // store var; reload var — expressed as an If(true) block holding
        // both statements so a single Stmt can carry the pair.
        dsl::if_then(
            dsl::int(1),
            &[
                dsl::store(addr.clone(), 0, var.get()),
                var.set(addr.load(ValType::I32, 0)),
            ],
        )
    }
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        (0..N_VARS).prop_map(E::Var),
        (-100i32..100).prop_map(E::Const),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Xor(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::LtS(a.into(), b.into())),
        ]
    })
}

fn stmt_strategy() -> impl Strategy<Value = S> {
    let leaf = prop_oneof![
        (0..N_VARS, expr_strategy()).prop_map(|(i, e)| S::Assign(i, e)),
        (0..N_VARS, 0u32..16).prop_map(|(i, s)| S::StoreLoad(i, s)),
    ];
    leaf.prop_recursive(3, 20, 3, |inner| {
        prop_oneof![
            (
                expr_strategy(),
                proptest::collection::vec(inner.clone(), 0..3),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(c, t, f)| S::If(c, t, f)),
            (0u8..5, proptest::collection::vec(inner, 1..3))
                .prop_map(|(n, b)| S::Repeat(n, b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn structured_programs_agree_across_tiers(
        program in proptest::collection::vec(stmt_strategy(), 1..6),
        inits in proptest::array::uniform4(-50i32..50),
    ) {
        // Reference execution.
        let mut ref_vars = inits;
        let mut ref_mem = [0i32; 16];
        eval_s(&program, &mut ref_vars, &mut ref_mem);

        // Build the module: params are the four initial values; the
        // function returns x0 ^ x1 ^ x2 ^ x3 after running the program.
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let prog = program.clone();
        b.func(
            "run",
            vec![ValType::I32; N_VARS],
            vec![ValType::I32],
            move |f| {
                let vars = [
                    dsl::local(0, ValType::I32),
                    dsl::local(1, ValType::I32),
                    dsl::local(2, ValType::I32),
                    dsl::local(3, ValType::I32),
                ];
                let mut counters = Vec::new();
                let mut stmts = s_to_dsl(&prog, &vars, &mut counters, 0, f);
                stmts.push(dsl::ret(Some(
                    vars[0]
                        .get()
                        .xor(vars[1].get())
                        .xor(vars[2].get())
                        .xor(vars[3].get()),
                )));
                dsl::emit_block(f, &stmts);
            },
        );
        let module = b.finish();
        wasm_engine::validate_module(&module).unwrap();
        let wasm = encode_module(&module);
        let decoded = wasm_engine::decode_module(&wasm).unwrap();

        let expected = ref_vars[0] ^ ref_vars[1] ^ ref_vars[2] ^ ref_vars[3];
        for tier in Tier::ALL {
            let compiled = CompiledModule::compile(decoded.clone(), tier).unwrap();
            // Promote on first entry so single-invocation programs still
            // exercise the superblock chains and their guard exits.
            compiled.set_jit_threshold(1);
            let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
            let args: Vec<Value> = inits.iter().map(|&v| Value::I32(v)).collect();
            let out = inst.invoke("run", &args).unwrap();
            prop_assert_eq!(out[0], Value::I32(expected), "tier {} disagrees", tier);
        }
    }
}

// --- register-form coverage: v128 two-slot operands and trap paths ---
//
// The second generator targets what the first cannot express: wide
// (two-slot) operands flowing through copies, select, drop and lane ops,
// plus the trapping instructions (integer division, out-of-bounds
// memory). Every tier must produce the identical value *or* the identical
// trap as the plain-Rust reference — this is the conformance gate for the
// register-form executor, which maps all of these onto fixed frame slots.

use wasm_engine::error::Trap;
use wasm_engine::instr::{Instr, MemArg};

#[derive(Debug, Clone, Copy, PartialEq)]
enum RefTrap {
    DivZero,
    Overflow,
    Oob,
}

#[derive(Debug, Clone)]
enum XS {
    Assign(usize, E),
    /// `dst = a / b` (signed; traps on zero and INT_MIN / -1).
    DivS(usize, usize, usize),
    /// `dst = a %u b` (traps on zero).
    RemU(usize, usize, usize),
    /// `dst = lane0(splat(dst) +i32x4 splat(src))` — wide temporaries.
    V128Mix(usize, usize),
    /// `dst = lane1(select(splat(dst), splat(src), cond))` — Select2.
    V128Select(usize, usize, usize),
    /// Round-trip through a v128 local with a dropped wide temp;
    /// net effect `dst = !dst` (bitwise).
    V128TeeDrop(usize),
    /// `mem[addr] = var; var = mem[addr]` — traps when addr is OOB.
    StoreAt(usize, u32),
    If(E, Vec<XS>, Vec<XS>),
    Repeat(u8, Vec<XS>),
}

const XPAGE: u32 = 65536;

fn xeval(stmts: &[XS], vars: &mut [i32; N_VARS], mem: &mut Vec<u8>) -> Result<(), RefTrap> {
    for s in stmts {
        match s {
            XS::Assign(i, e) => vars[*i] = eval_e(e, vars),
            XS::DivS(d, a, b) => {
                let (x, y) = (vars[*a], vars[*b]);
                if y == 0 {
                    return Err(RefTrap::DivZero);
                }
                if x == i32::MIN && y == -1 {
                    return Err(RefTrap::Overflow);
                }
                vars[*d] = x.wrapping_div(y);
            }
            XS::RemU(d, a, b) => {
                let (x, y) = (vars[*a] as u32, vars[*b] as u32);
                if y == 0 {
                    return Err(RefTrap::DivZero);
                }
                vars[*d] = (x % y) as i32;
            }
            XS::V128Mix(d, s) => vars[*d] = vars[*d].wrapping_add(vars[*s]),
            XS::V128Select(d, s, c) => {
                if vars[*c] == 0 {
                    vars[*d] = vars[*s];
                }
            }
            XS::V128TeeDrop(d) => vars[*d] = !vars[*d],
            XS::StoreAt(i, addr) => {
                if *addr > XPAGE - 4 {
                    return Err(RefTrap::Oob);
                }
                let at = *addr as usize;
                mem[at..at + 4].copy_from_slice(&vars[*i].to_le_bytes());
                vars[*i] = i32::from_le_bytes(mem[at..at + 4].try_into().unwrap());
            }
            XS::If(c, t, e) => {
                if eval_e(c, vars) != 0 {
                    xeval(t, vars, mem)?;
                } else {
                    xeval(e, vars, mem)?;
                }
            }
            XS::Repeat(n, body) => {
                for _ in 0..*n {
                    xeval(body, vars, mem)?;
                }
            }
        }
    }
    Ok(())
}

fn xs_to_dsl(
    stmts: &[XS],
    vars: &[Var; N_VARS],
    v128_tmp: u32,
    counters: &mut Vec<Var>,
    depth: usize,
    f: &mut wasm_engine::FunctionBuilder,
) -> Vec<dsl::Stmt> {
    let lg = |i: usize| Instr::LocalGet(vars[i].idx);
    let ls = |i: usize| Instr::LocalSet(vars[i].idx);
    stmts
        .iter()
        .map(|s| match s {
            XS::Assign(i, e) => vars[*i].set(e_to_dsl(e, vars)),
            XS::DivS(d, a, b) => {
                dsl::Stmt::Raw(vec![lg(*a), lg(*b), Instr::I32DivS, ls(*d)])
            }
            XS::RemU(d, a, b) => {
                dsl::Stmt::Raw(vec![lg(*a), lg(*b), Instr::I32RemU, ls(*d)])
            }
            XS::V128Mix(d, s) => dsl::Stmt::Raw(vec![
                lg(*d),
                Instr::I32x4Splat,
                lg(*s),
                Instr::I32x4Splat,
                Instr::I32x4Add,
                Instr::I32x4ExtractLane(0),
                ls(*d),
            ]),
            XS::V128Select(d, s, c) => dsl::Stmt::Raw(vec![
                lg(*d),
                Instr::I32x4Splat,
                lg(*s),
                Instr::I32x4Splat,
                lg(*c),
                Instr::Select,
                Instr::I32x4ExtractLane(1),
                ls(*d),
            ]),
            XS::V128TeeDrop(d) => dsl::Stmt::Raw(vec![
                // vl = splat(d); drop a wide temp; d = lane2(vl) ^ -1.
                lg(*d),
                Instr::I32x4Splat,
                Instr::LocalSet(v128_tmp),
                Instr::LocalGet(v128_tmp),
                Instr::Drop,
                Instr::LocalGet(v128_tmp),
                Instr::I32x4ExtractLane(2),
                Instr::I32Const(-1),
                Instr::I32Xor,
                ls(*d),
            ]),
            XS::StoreAt(i, addr) => dsl::Stmt::Raw(vec![
                Instr::I32Const(*addr as i32),
                lg(*i),
                Instr::I32Store(MemArg::offset(0)),
                Instr::I32Const(*addr as i32),
                Instr::I32Load(MemArg::offset(0)),
                ls(*i),
            ]),
            XS::If(c, t, e) => dsl::if_else(
                e_to_dsl(c, vars).ne(dsl::int(0)),
                &xs_to_dsl(t, vars, v128_tmp, counters, depth, f),
                &xs_to_dsl(e, vars, v128_tmp, counters, depth, f),
            ),
            XS::Repeat(n, body) => {
                if counters.len() <= depth {
                    counters.push(Var::new(f, ValType::I32));
                }
                let counter = counters[depth];
                dsl::for_range(
                    counter,
                    dsl::int(0),
                    dsl::int(*n as i32),
                    &xs_to_dsl(body, vars, v128_tmp, counters, depth + 1, f),
                )
            }
        })
        .collect()
}

fn xstmt_strategy() -> impl Strategy<Value = XS> {
    let leaf = prop_oneof![
        (0..N_VARS, expr_strategy()).prop_map(|(i, e)| XS::Assign(i, e)),
        (0..N_VARS, 0..N_VARS, 0..N_VARS).prop_map(|(d, a, b)| XS::DivS(d, a, b)),
        (0..N_VARS, 0..N_VARS, 0..N_VARS).prop_map(|(d, a, b)| XS::RemU(d, a, b)),
        (0..N_VARS, 0..N_VARS).prop_map(|(d, s)| XS::V128Mix(d, s)),
        (0..N_VARS, 0..N_VARS, 0..N_VARS).prop_map(|(d, s, c)| XS::V128Select(d, s, c)),
        (0..N_VARS).prop_map(XS::V128TeeDrop),
        // In-bounds addresses plus an out-of-bounds tail so both the
        // success and the trap path are exercised.
        (0..N_VARS, prop_oneof![0u32..65532, 65520u32..65600])
            .prop_map(|(i, a)| XS::StoreAt(i, a)),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (
                expr_strategy(),
                proptest::collection::vec(inner.clone(), 0..3),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(c, t, f)| XS::If(c, t, f)),
            (0u8..4, proptest::collection::vec(inner, 1..3))
                .prop_map(|(n, b)| XS::Repeat(n, b)),
        ]
    })
}

fn trap_matches(expected: RefTrap, got: &Trap) -> bool {
    matches!(
        (expected, got),
        (RefTrap::DivZero, Trap::IntegerDivideByZero)
            | (RefTrap::Overflow, Trap::IntegerOverflow)
            | (RefTrap::Oob, Trap::MemoryOutOfBounds { .. })
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wide_and_trapping_programs_agree_across_tiers(
        program in proptest::collection::vec(xstmt_strategy(), 1..6),
        inits in proptest::array::uniform4(-50i32..50),
    ) {
        // Reference execution (plain Rust).
        let mut ref_vars = inits;
        let mut ref_mem = vec![0u8; XPAGE as usize];
        let ref_result = xeval(&program, &mut ref_vars, &mut ref_mem);

        let mut b = ModuleBuilder::new();
        b.memory(1, Some(1)); // fixed one page so OOB is deterministic
        let prog = program.clone();
        b.func(
            "run",
            vec![ValType::I32; N_VARS],
            vec![ValType::I32],
            move |f| {
                let vars = [
                    dsl::local(0, ValType::I32),
                    dsl::local(1, ValType::I32),
                    dsl::local(2, ValType::I32),
                    dsl::local(3, ValType::I32),
                ];
                let v128_tmp = f.local(ValType::V128);
                let mut counters = Vec::new();
                let mut stmts =
                    xs_to_dsl(&prog, &vars, v128_tmp, &mut counters, 0, f);
                stmts.push(dsl::ret(Some(
                    vars[0]
                        .get()
                        .xor(vars[1].get())
                        .xor(vars[2].get())
                        .xor(vars[3].get()),
                )));
                dsl::emit_block(f, &stmts);
            },
        );
        let module = b.finish();
        wasm_engine::validate_module(&module).unwrap();
        let wasm = encode_module(&module);
        let decoded = wasm_engine::decode_module(&wasm).unwrap();

        for tier in Tier::ALL {
            let compiled = CompiledModule::compile(decoded.clone(), tier).unwrap();
            // Promote on first entry so single-invocation programs still
            // exercise the superblock chains and their guard exits.
            compiled.set_jit_threshold(1);
            let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
            let args: Vec<Value> = inits.iter().map(|&v| Value::I32(v)).collect();
            let out = inst.invoke("run", &args);
            match (&ref_result, out) {
                (Ok(()), Ok(vals)) => {
                    let expected = ref_vars[0] ^ ref_vars[1] ^ ref_vars[2] ^ ref_vars[3];
                    prop_assert_eq!(vals[0], Value::I32(expected), "tier {} value", tier);
                }
                (Err(kind), Err(trap)) => {
                    prop_assert!(
                        trap_matches(*kind, &trap),
                        "tier {}: expected {:?}, trapped with {:?}",
                        tier, kind, trap
                    );
                }
                (expected, got) => {
                    return Err(TestCaseError::fail(format!(
                        "tier {tier}: reference {expected:?} but engine returned {got:?}"
                    )));
                }
            }
        }
    }
}

/// Pinned regression for the PROPTEST_SEED=1785324144484992370 case-38
/// miscompile, delta-minimized to a single statement:
///
/// ```text
/// x0 = ((-4 ^ x2) <s ((-78) - (-79))) + 4 * (x1 - x3)
/// ```
///
/// The flat tiers lowered `4 * (x1 - x3)` to `Sub32; ShlK32` and the
/// register peephole fused `[ShlK32 → t][Add32 cmp + t]` into `AddShl32`
/// — moving the read of the `Sub32` result down to the `Add32` position,
/// whose recorded entry stack height is one lower. The height-based
/// liveness oracle then declared the subtraction's destination register
/// dead there, dead-code elimination deleted the `Sub32`, and the fused
/// add-shift read an uninitialized stack temp. The fix patches the height
/// annotations at every fusion site and makes `value_live` trust a direct
/// read over the oracle.
#[test]
fn pinned_addshl_fusion_keeps_scaled_operand_alive() {
    let inits = [-36i32, 34, 11, -42];
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    b.func("run", vec![ValType::I32; N_VARS], vec![ValType::I32], move |f| {
        let vars = [
            dsl::local(0, ValType::I32),
            dsl::local(1, ValType::I32),
            dsl::local(2, ValType::I32),
            dsl::local(3, ValType::I32),
        ];
        let stmts = vec![
            vars[0].set(
                dsl::int(-4)
                    .xor(vars[2].get())
                    .lt(dsl::int(-78) - dsl::int(-79))
                    + dsl::int(4) * (vars[1].get() - vars[3].get()),
            ),
            dsl::ret(Some(
                vars[0].get().xor(vars[1].get()).xor(vars[2].get()).xor(vars[3].get()),
            )),
        ];
        dsl::emit_block(f, &stmts);
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    let decoded = wasm_engine::decode_module(&encode_module(&module)).unwrap();

    let x0 = ((((-4 ^ inits[2]) < (-78i32).wrapping_sub(-79)) as i32)
        .wrapping_add(4i32.wrapping_mul(inits[1].wrapping_sub(inits[3]))))
        ^ inits[1]
        ^ inits[2]
        ^ inits[3];

    for tier in Tier::ALL {
        let compiled = CompiledModule::compile(decoded.clone(), tier).unwrap();
        compiled.set_jit_threshold(1);
        let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
        let args: Vec<Value> = inits.iter().map(|&v| Value::I32(v)).collect();
        let out = inst.invoke("run", &args).unwrap();
        assert_eq!(out[0], Value::I32(x0), "tier {tier}");
    }
}

/// JIT profiling counters observe promotions and chain executions on a
/// hot loop, and leave the program's results untouched.
#[test]
fn jit_profiling_counters_track_a_hot_loop() {
    use wasm_engine::instr::Instr as I;
    use wasm_engine::types::BlockType;
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    // sum = 0; do { sum += n; n -= 1 } while (n > 0); return sum
    b.func("run", vec![ValType::I32], vec![ValType::I32], |f| {
        f.local(ValType::I32);
        f.emit_all([
            I::Loop(BlockType::Empty),
            I::LocalGet(1),
            I::LocalGet(0),
            I::I32Add,
            I::LocalSet(1),
            I::LocalGet(0),
            I::I32Const(1),
            I::I32Sub,
            I::LocalTee(0),
            I::I32Const(0),
            I::I32GtS,
            I::BrIf(0),
            I::End,
            I::LocalGet(1),
            I::Return,
        ]);
    });
    let module = b.finish();
    let compiled = CompiledModule::compile(module, Tier::MaxJit).unwrap();
    compiled.set_jit_threshold(1);

    let hits = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
    let h = hits.clone();
    compiled.set_promotion_hook(Box::new(move |_idx| {
        h.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }));
    compiled.set_jit_profiling(true);

    let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
    let out = inst.invoke("run", &[Value::I32(100)]).unwrap();
    assert_eq!(out[0], Value::I32(5050));

    let snap = compiled.jit_snapshot().expect("MaxJit exposes a snapshot");
    assert_eq!(snap.promotions, 1, "one defined function promoted");
    assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert!(snap.chains_entered > 0, "loop iterations entered chains: {snap:?}");
    assert!(snap.guard_exits >= 1, "final loop exit is a guard bail: {snap:?}");
    assert_eq!(
        snap.metric_entries()[0],
        ("jit.promotions", 1),
        "metric entries expose the named counters"
    );

    // Disabled profiling freezes the counters.
    compiled.set_jit_profiling(false);
    inst.invoke("run", &[Value::I32(50)]).unwrap();
    assert_eq!(compiled.jit_snapshot().unwrap().chains_entered, snap.chains_entered);
}

/// Eight instances of one module that lowers on first call make the same
/// first call at the same moment, on every tier: whichever thread gets to
/// a function's cell first lowers it for all, everyone computes the same
/// value, and exactly the functions the call reaches end up lowered.
#[test]
fn racing_first_calls_lower_each_reached_function_once() {
    use wasm_engine::dsl::{call, emit_block, int, local, ret};
    const THREADS: usize = 8;
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    let i32s = |n| vec![ValType::I32; n];
    let n = || local(0, ValType::I32).get();
    let leaf = b.func_private(i32s(1), i32s(1), |f| emit_block(f, &[ret(Some(n() * int(3)))]));
    let _unreached = b.func_private(i32s(1), i32s(1), |f| emit_block(f, &[ret(Some(n()))]));
    let mid = b.func_private(i32s(1), i32s(1), |f| {
        emit_block(f, &[ret(Some(call(leaf, vec![n() + int(1)], ValType::I32)))]);
    });
    b.func("unreached_export", i32s(1), i32s(1), |f| emit_block(f, &[ret(Some(n()))]));
    b.func("main", i32s(1), i32s(1), |f| {
        emit_block(f, &[ret(Some(call(mid, vec![n()], ValType::I32) + int(2)))]);
    });
    let module = b.finish();

    for tier in Tier::ALL {
        let compiled = CompiledModule::deferred(module.clone(), tier).unwrap();
        compiled.set_jit_threshold(1);
        let start = std::sync::Barrier::new(THREADS);
        let results: Vec<Value> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
                        start.wait();
                        inst.invoke("main", &[Value::I32(4)]).unwrap()[0]
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results, vec![Value::I32(17); THREADS], "tier {tier}");
        assert_eq!(compiled.lowered_funcs(), 3, "tier {tier}: main, mid and leaf");
        assert_eq!(compiled.module().functions.len(), 5);
    }
}

// --- operand widths: validation's facts, the lowerers' slot counts ---

/// `name(arg)` on every tier (the superblock tier promoting on first
/// entry), which must all return `expected`.
fn assert_on_every_tier(module: &wasm_engine::Module, name: &str, arg: i32, expected: i32) {
    for tier in Tier::ALL {
        let compiled = CompiledModule::compile(module.clone(), tier).unwrap();
        compiled.set_jit_threshold(1);
        let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
        let out = inst.invoke(name, &[Value::I32(arg)]).unwrap();
        assert_eq!(out, vec![Value::I32(expected)], "{name}({arg}) on {tier}");
    }
}

/// An `if` with a parameter hands it to both arms (the validator used to
/// forget it at `else`, rejecting these two and accepting a body the
/// baseline and the flat tiers ran differently).
#[test]
fn if_parameters_reach_both_arms_on_every_tier() {
    use wasm_engine::instr::Instr as I;
    use wasm_engine::types::{BlockType, FuncType};
    let mut b = ModuleBuilder::new();
    let t = b.type_idx(FuncType::new(vec![ValType::I32], vec![ValType::I32]));
    let head = [I::I32Const(7), I::LocalGet(0), I::If(BlockType::Func(t))];
    b.func("empty_else", vec![ValType::I32], vec![ValType::I32], |f| {
        f.emit_all(head.clone()).emit_all([I::Else, I::End]);
    });
    b.func("adding_else", vec![ValType::I32], vec![ValType::I32], |f| {
        f.emit_all(head.clone()).emit_all([I::Else, I::I32Const(1), I::I32Add, I::End]);
    });
    let module = b.finish();
    for (name, arg, expected) in
        [("empty_else", 0, 7), ("empty_else", 1, 7), ("adding_else", 0, 8), ("adding_else", 1, 7)]
    {
        assert_on_every_tier(&module, name, arg, expected);
    }
}

/// `drop` and `select` of a v128 in the places where only a type stack
/// knows the operand is wide — a block's result, a block's parameter, each
/// arm of an `if`, the value `local.tee` leaves — and in dead code, where
/// what validation recorded is unspecified and must not be read. Every
/// function keeps a sentinel under the v128s and computes on top of it
/// afterwards, so a drop or select of the wrong width shows in the result
/// and is not repaired by the absolute height an `end` restores.
#[test]
fn wide_drop_and_select_agree_on_every_tier() {
    use wasm_engine::instr::Instr as I;
    use wasm_engine::types::{BlockType, FuncType};
    let lanes = |l: [u32; 4]| {
        let mut bytes = [0u8; 16];
        for (i, v) in l.iter().enumerate() {
            bytes[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
        }
        I::v128_const(bytes)
    };
    let (va, vb, vc) = (lanes([1, 2, 3, 4]), lanes([10, 20, 30, 40]), lanes([7, 8, 9, 6]));
    let wide_block = BlockType::Value(ValType::V128);
    let i32_fn = |b: &mut ModuleBuilder, name: &str, body: Vec<I>| {
        b.func(name, vec![ValType::I32], vec![ValType::I32], |f| {
            f.local(ValType::V128); // local 1
            f.emit_all(body);
        });
    };
    let mut b = ModuleBuilder::new();
    let eats_v128 = b.type_idx(FuncType::new(vec![ValType::V128], vec![ValType::I32]));
    let keeps_v128 = b.type_idx(FuncType::new(vec![ValType::V128], vec![ValType::V128]));
    let block_of = |v: &I| [I::Block(wide_block), v.clone(), I::End];

    // 100 + lane 0 of select(A, B, arg), both operands results of blocks.
    let mut body = vec![I::I32Const(100)];
    body.extend(block_of(&va));
    body.extend(block_of(&vb));
    body.extend([I::LocalGet(0), I::Select, I::I32x4ExtractLane(0), I::I32Add]);
    i32_fn(&mut b, "select_block_results", body);
    // The same select, dropped: 100 + 1.
    let mut body = vec![I::I32Const(100)];
    body.extend(block_of(&va));
    body.extend(block_of(&vb));
    body.extend([I::LocalGet(0), I::Select, I::Drop, I::I32Const(1), I::I32Add]);
    i32_fn(&mut b, "drop_selected", body);
    // A block drops its v128 parameter and pushes 1 in its place: 100 + 1.
    i32_fn(&mut b, "drop_block_param", vec![
        I::I32Const(100), va.clone(),
        I::Block(BlockType::Func(eats_v128)), I::Drop, I::I32Const(1), I::End,
        I::I32Add,
    ]);
    // Each arm selects between the `if`'s v128 parameter and its own
    // constant: A in the then arm (condition 1), C in the else arm (0).
    i32_fn(&mut b, "select_in_each_arm", vec![
        I::I32Const(100), va.clone(), I::LocalGet(0),
        I::If(BlockType::Func(keeps_v128)), vb.clone(), I::I32Const(1), I::Select,
        I::Else, vc.clone(), I::I32Const(0), I::Select,
        I::End,
        I::I32x4ExtractLane(1), I::I32Add,
    ]);
    // `local.tee` leaves the v128 it stored; dropping it leaves the sentinel.
    i32_fn(&mut b, "tee_then_drop", vec![
        I::I32Const(100), vb.clone(), I::LocalTee(1), I::Drop,
        I::LocalGet(1), I::I32x4ExtractLane(2), I::I32Add,
    ]);
    // Wide selects and drops after `br` and after `return`: never lowered.
    i32_fn(&mut b, "dead_wide_ops", vec![
        I::I32Const(100),
        I::Block(BlockType::Value(ValType::I32)),
        I::I32Const(5), I::Br(0),
        va.clone(), vb.clone(), I::I32Const(0), I::Select, I::Drop,
        I::End,
        I::I32Add, I::Return,
        va.clone(), vb.clone(), I::LocalGet(0), I::Select, I::Drop,
    ]);
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    for (name, if_zero, if_one) in [
        ("select_block_results", 110, 101),
        ("drop_selected", 101, 101),
        ("drop_block_param", 101, 101),
        ("select_in_each_arm", 108, 102),
        ("tee_then_drop", 130, 130),
        ("dead_wide_ops", 105, 105),
    ] {
        assert_on_every_tier(&module, name, 0, if_zero);
        assert_on_every_tier(&module, name, 1, if_one);
    }
}

/// Heights count slots, not values: with one i32 parameter the two v128
/// operands of `v128.and` sit at the first temp and two registers above it.
#[test]
fn v128_operands_are_two_registers_apart() {
    use wasm_engine::instr::{Instr as I, MemArg};
    use wasm_engine::regalloc::Rc;
    use wasm_engine::tier::CompiledBody;
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    b.func("f", vec![ValType::I32], vec![ValType::I32], |f| {
        f.emit_all([
            I::LocalGet(0), I::V128Load(MemArg::offset(0)),
            I::LocalGet(0), I::V128Load(MemArg::offset(16)),
            I::V128And, I::I32x4ExtractLane(0),
        ]);
    });
    let compiled = CompiledModule::compile(b.finish(), Tier::Optimizing).unwrap();
    let CompiledBody::Flat(rf) = compiled.bodies().unwrap()[0] else { panic!("flat tier") };
    let and = rf.code.iter().find(|op| op.code == Rc::VAnd).expect("a v128.and");
    // Register 0 is the parameter; the temps start at 1.
    assert_eq!((and.a, and.b, and.c), (1, 3, 1));
}
