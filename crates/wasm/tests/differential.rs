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
        let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
        let args: Vec<Value> = inits.iter().map(|&v| Value::I32(v)).collect();
        let out = inst.invoke("run", &args).unwrap();
        assert_eq!(out[0], Value::I32(x0), "tier {tier}");
    }
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

/// `name(arg)` on every tier, which must all return `expected`.
fn assert_on_every_tier(module: &wasm_engine::Module, name: &str, arg: i32, expected: i32) {
    for tier in Tier::ALL {
        let compiled = CompiledModule::compile(module.clone(), tier).unwrap();
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

/// The ops no benchmark guest runs inside a loop — bit counts, rotates,
/// f32 unary ops, `min`/`max`/`copysign`, the trapping truncations, sign
/// extensions, `memory.grow`/`fill`/`copy`, a v128 `select`, lane
/// extract/replace — in one straight-line loop body, each a step of the
/// loop's program. Each mode is compared against `Baseline`, value or
/// trap: mode 0 runs clean, 1 traps in a signed and 2 in an unsigned
/// truncation on the fourth iteration, 3 grows memory once, 4 fills out of
/// bounds. (`tests/opcodes.rs` covers the same ops' edge cases.)
#[test]
fn unchained_ops_agree_with_baseline_inside_chains() {
    use wasm_engine::instr::Instr as I;
    use wasm_engine::types::BlockType;
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(2));
    b.func("run", vec![ValType::I32, ValType::I32], vec![ValType::I64], |f| {
        let (n, mode) = (0, 1);
        let i = f.local(ValType::I32);
        let acc = f.local(ValType::I64);
        let x = f.local(ValType::F32);
        let y = f.local(ValType::F64);
        let v = f.local(ValType::V128);
        // acc = acc * 31 + probe, the probe widened to i64 by `widen`.
        let fold = |f: &mut wasm_engine::FunctionBuilder, probe: Vec<I>, widen: &[I]| {
            f.emit_all([I::LocalGet(acc), I::I64Const(31), I::I64Mul]);
            f.emit_all(probe)
                .emit_all(widen.iter().cloned())
                .emit_all([I::I64Add, I::LocalSet(acc)]);
        };
        let w32 = [I::I64ExtendI32U];
        let wf32 = [I::I32ReinterpretF32, I::I64ExtendI32U];
        let wf64 = [I::I64ReinterpretF64];
        // `mode == m && i == 3`: the one iteration a mode misbehaves on.
        let when = |m: i32| {
            vec![
                I::LocalGet(mode),
                I::I32Const(m),
                I::I32Eq,
                I::LocalGet(i),
                I::I32Const(3),
                I::I32Eq,
                I::I32And,
            ]
        };
        f.emit_all([I::Block(BlockType::Empty), I::Loop(BlockType::Empty)]);
        // x = (i - 5) * 0.75, y = i * -1.25
        f.emit_all([
            I::LocalGet(i),
            I::I32Const(5),
            I::I32Sub,
            I::F32ConvertI32S,
            I::F32Const(0.75),
        ]);
        f.emit_all([
            I::F32Mul,
            I::LocalSet(x),
            I::LocalGet(i),
            I::F64ConvertI32S,
            I::F64Const(-1.25),
        ]);
        f.emit_all([I::F64Mul, I::LocalSet(y)]);
        let li = I::LocalGet(i);
        for (op, k) in [(I::I32Clz, 0x9E37_79B1u32 as i32), (I::I32Ctz, 8), (I::I32Popcnt, 0x5a5a)]
        {
            fold(f, vec![li.clone(), I::I32Const(k), I::I32Mul, op], &w32);
        }
        fold(
            f,
            vec![
                li.clone(),
                I::I32Const(7),
                I::I32Rotl,
                li.clone(),
                li.clone(),
                I::I32Rotr,
                I::I32Xor,
            ],
            &w32,
        );
        for op in [I::I64Clz, I::I64Ctz, I::I64Popcnt] {
            fold(f, vec![I::LocalGet(acc), op], &[]);
        }
        for op in [I::I64Rotl, I::I64Rotr] {
            fold(f, vec![I::LocalGet(acc), li.clone(), I::I64ExtendI32U, op], &[]);
        }
        for op in
            [I::F32Abs, I::F32Neg, I::F32Ceil, I::F32Floor, I::F32Trunc, I::F32Nearest, I::F32Sqrt]
        {
            fold(f, vec![I::LocalGet(x), op], &wf32);
        }
        for op in [I::F32Min, I::F32Max, I::F32Copysign] {
            fold(f, vec![I::LocalGet(x), I::F32Const(-0.0), op], &wf32);
        }
        for op in [I::F64Min, I::F64Max, I::F64Copysign] {
            fold(f, vec![I::LocalGet(y), I::LocalGet(x), I::F64PromoteF32, op], &wf64);
        }
        // Signed truncations of x, scaled out of range when mode 1 says so.
        let scaled = |m: i32| {
            let mut p = vec![I::LocalGet(x), I::F32Const(1e30), I::F32Const(1.0)];
            p.extend(when(m));
            p.extend([I::Select, I::F32Mul]);
            p
        };
        fold(f, [scaled(1), vec![I::I32TruncF32S]].concat(), &w32);
        fold(f, [scaled(1), vec![I::I64TruncF32S]].concat(), &[]);
        // Unsigned ones of |x| and |y|, negated when mode 2 says so.
        let unsigned = |m: i32, arg: I, abs: I, neg: I| {
            let mut p = vec![arg.clone(), abs.clone(), neg, arg, abs];
            p.extend(when(m));
            p.push(I::Select);
            p
        };
        let ux = || unsigned(2, I::LocalGet(x), I::F32Abs, I::F32Neg);
        let uy = || unsigned(2, I::LocalGet(y), I::F64Abs, I::F64Neg);
        fold(f, [ux(), vec![I::I32TruncF32U]].concat(), &w32);
        fold(f, [ux(), vec![I::I64TruncF32U]].concat(), &[]);
        fold(f, [uy(), vec![I::I32TruncF64U]].concat(), &w32);
        fold(f, [uy(), vec![I::I64TruncF64U]].concat(), &[]);
        let k = I::I32Const(0x1234_5679);
        for op in [I::I32Extend8S, I::I32Extend16S] {
            fold(f, vec![li.clone(), k.clone(), I::I32Mul, op], &w32);
        }
        for op in [I::I64Extend8S, I::I64Extend16S, I::I64Extend32S] {
            fold(f, vec![I::LocalGet(acc), op], &[]);
        }
        // memory.grow by `when(3)` pages (0 or 1), then size.
        fold(f, [when(3), vec![I::MemoryGrow]].concat(), &w32);
        fold(f, vec![I::MemorySize], &w32);
        // fill 16 bytes of `i` at i * 16 (65 536 of them when mode 4 says
        // so: out of bounds), copy 8 of them to 4096 + i * 8, read back.
        let at = |base: i32, stride: i32| {
            vec![I::I32Const(base), li.clone(), I::I32Const(stride), I::I32Mul, I::I32Add]
        };
        let mut fill = at(0, 16);
        fill.extend([li.clone(), I::I32Const(65536), I::I32Const(16)]);
        fill.extend(when(4));
        fill.extend([I::Select, I::MemoryFill]);
        f.emit_all(fill);
        f.emit_all([at(4096, 8), at(0, 16), vec![I::I32Const(8), I::MemoryCopy]].concat());
        fold(f, [at(4096, 8), vec![I::I64Load(MemArg::offset(0))]].concat(), &[]);
        // v = select(splat(i), splat(acc), i & 1); lanes out and in.
        f.emit_all([li.clone(), I::I32x4Splat, I::LocalGet(acc), I::I64x2Splat, li.clone()]);
        f.emit_all([I::I32Const(1), I::I32And, I::Select, I::LocalSet(v)]);
        fold(f, vec![I::LocalGet(v), I::I32x4ExtractLane(3)], &w32);
        fold(
            f,
            vec![I::LocalGet(v), I::LocalGet(y), I::F64x2ReplaceLane(1), I::F64x2ExtractLane(0)],
            &wf64,
        );
        fold(
            f,
            vec![I::LocalGet(v), I::LocalGet(y), I::F64x2ReplaceLane(0), I::F64x2ExtractLane(0)],
            &wf64,
        );
        // i += 1; loop while i < n.
        f.emit_all([
            li.clone(),
            I::I32Const(1),
            I::I32Add,
            I::LocalTee(i),
            I::LocalGet(n),
            I::I32LtS,
        ]);
        f.emit_all([I::BrIf(0), I::End, I::End, I::LocalGet(acc)]);
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    let run = |tier: Tier, mode: i32| {
        let compiled = CompiledModule::compile(module.clone(), tier).unwrap();
        let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
        inst.invoke("run", &[Value::I32(8), Value::I32(mode)])
    };
    for mode in 0..=4 {
        let want = run(Tier::Baseline, mode);
        for tier in [Tier::Optimizing, Tier::Max] {
            assert_eq!(run(tier, mode), want, "mode {mode} at {tier}");
        }
        match mode {
            0 | 3 => assert!(want.is_ok(), "mode {mode}: {want:?}"),
            1 | 2 => assert!(matches!(want, Err(Trap::IntegerOverflow)), "mode {mode}: {want:?}"),
            _ => assert!(matches!(want, Err(Trap::MemoryOutOfBounds { addr: 48, .. })), "{want:?}"),
        }
    }
}

// --- loop rotation and the fused steps, against `Baseline` ---

/// What one call leaves behind: its result or trap, linear memory, globals.
type Outcome = (Result<Vec<Value>, Trap>, Vec<u8>, Vec<Option<Value>>);

/// `name(args)` on a fresh instance at `tier`.
fn outcome(module: &wasm_engine::Module, tier: Tier, name: &str, args: &[Value]) -> Outcome {
    let compiled = CompiledModule::compile(module.clone(), tier).unwrap();
    let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
    let out = inst.invoke(name, args);
    let mem = inst.memory.slice(0, inst.memory.size_bytes() as u32).unwrap().to_vec();
    let globals = (0..module.globals.len() as u32).map(|g| inst.global(g)).collect();
    (out, mem, globals)
}

/// `Max` leaves exactly what `Baseline` leaves; returns the result. (Not
/// `Optimizing`: its plain `AddF64` keeps another NaN payload than
/// `Baseline`'s on two NaNs, which the fused f64 accumulate does not.)
fn chains_agree(
    module: &wasm_engine::Module,
    name: &str,
    args: &[Value],
) -> Result<Vec<Value>, Trap> {
    let want = outcome(module, Tier::Baseline, name, args);
    let got = outcome(module, Tier::Max, name, args);
    assert_eq!(got.0, want.0, "{name}{args:?}: result");
    assert!(got.1 == want.1, "{name}{args:?}: memory differs");
    assert_eq!(got.2, want.2, "{name}{args:?}: globals");
    want.0
}

fn i32_args(args: &[i32]) -> Vec<Value> {
    args.iter().map(|&v| Value::I32(v)).collect()
}

/// While-shaped loops that are rotated — the head guard alone
/// (against a register and a constant bound: the increment fuses into the
/// copied guard), a reloaded bound before it, two steps before it — run 0,
/// 1 and n trips:
/// 0 leaves at the head guard, the others at its copy at the end of the
/// iteration. `reloaded` also lowers its own bound through memory, so the
/// copied load must see each store (and its `mem[p] -= 1` is one fused
/// load / add / store step); `masked` takes and skips an `if (i & mask)`
/// (`and` + `br_if` zero as one guard).
#[test]
fn rotated_loops_and_fused_guards_agree_with_baseline() {
    let i32s = |n| vec![ValType::I32; n];
    let p = |k| dsl::local(k, ValType::I32);
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    b.func("plain", i32s(1), i32s(1), |f| {
        let (i, acc) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let body = [acc.set(acc.get() + i.get() * dsl::int(3))];
        let ret = dsl::ret(Some(acc.get() * dsl::int(100) + i.get()));
        dsl::emit_block(f, &[dsl::for_range(i, dsl::int(0), p(0).get(), &body), ret]);
    });
    // (n): for i in n..5 { acc += i * 3 } — a constant bound.
    b.func("counted", i32s(1), i32s(1), |f| {
        let (i, acc) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let body = [acc.set(acc.get() + i.get() * dsl::int(3))];
        let ret = dsl::ret(Some(acc.get() * dsl::int(100) + i.get()));
        dsl::emit_block(f, &[dsl::for_range(i, p(0).get(), dsl::int(5), &body), ret]);
    });
    // (n, p): mem[p] = n; for i in 0..mem[p] { acc += i; mem[p] -= 1 }
    b.func("reloaded", i32s(2), i32s(1), |f| {
        let (i, acc) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let bound = || p(1).get().load(ValType::I32, 0);
        let lower = dsl::store(p(1).get(), 0, bound() + dsl::int(-1));
        let body = [acc.set(acc.get() + i.get()), lower];
        dsl::emit_block(f, &[
            dsl::store(p(1).get(), 0, p(0).get()),
            dsl::for_range(i, dsl::int(0), bound(), &body),
            dsl::ret(Some(acc.get() * dsl::int(100) + i.get())),
        ]);
    });
    // (n, p): mem[p] = 2; while i < mem[p] + n { acc += i * i; i += 1 }
    b.func("two_leading", i32s(2), i32s(1), |f| {
        let (i, acc) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let cond = i.get().lt(p(1).get().load(ValType::I32, 0) + p(0).get());
        let body = [acc.set(acc.get() + i.get() * i.get()), i.set(i.get() + dsl::int(1))];
        dsl::emit_block(f, &[
            dsl::store(p(1).get(), 0, dsl::int(2)),
            dsl::while_loop(cond, &body),
            dsl::ret(Some(acc.get() * dsl::int(100) + i.get())),
        ]);
    });
    // (n, mask): for i in 0..n { if i & mask { acc += i } }
    b.func("masked", i32s(2), i32s(1), |f| {
        let (i, acc) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let body = [dsl::if_then(i.get().and(p(1).get()), &[acc.set(acc.get() + i.get())])];
        dsl::emit_block(f, &[
            dsl::for_range(i, dsl::int(0), p(0).get(), &body),
            dsl::ret(Some(acc.get() * dsl::int(100) + i.get())),
        ]);
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    for (name, args, want) in [
        ("plain", vec![0], 0),
        ("plain", vec![1], 1),
        ("plain", vec![50], 367_550),
        ("counted", vec![5], 5),
        ("counted", vec![4], 1205),
        ("counted", vec![-10], -13_495),
        ("reloaded", vec![0, 64], 0),
        ("reloaded", vec![1, 64], 1),
        ("reloaded", vec![9, 64], 1005),
        ("two_leading", vec![-2, 64], 0),
        ("two_leading", vec![-1, 64], 1),
        ("two_leading", vec![10, 64], 50_612),
        ("masked", vec![9, 1], 1609),
        ("masked", vec![9, 0], 9),
        ("masked", vec![9, -1], 3609),
    ] {
        let out = chains_agree(&module, name, &i32_args(&args));
        assert_eq!(out, Ok(vec![Value::I32(want)]), "{name}{args:?}");
    }
}

/// An access out of bounds inside a fused step traps before the step
/// writes anything: the same trap as `Baseline`'s, with the same memory
/// and globals — the iterations before it committed, nothing of the
/// trapping one. `bump` is `mem[base + 4 * i * stride] += 1` (load, add,
/// store over one address register), `sum` is `acc += f64 at 65000 + 8i`
/// (a scaled load into an add).
#[test]
fn traps_inside_fused_steps_agree_with_baseline() {
    let i32s = |n| vec![ValType::I32; n];
    let p = |k| dsl::local(k, ValType::I32);
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    let values: Vec<u8> = (0..64).flat_map(|k| (k as f64 * 0.25 - 3.0).to_le_bytes()).collect();
    b.data(65000, values);
    let g = b.global(ValType::I32, true, Instr::I32Const(-1));
    let g = dsl::GlobalVar { idx: g, ty: ValType::I32 };
    // (base, stride, n)
    b.func("bump", i32s(3), i32s(1), |f| {
        let i = Var::new(f, ValType::I32);
        let at = || p(0).get() + (i.get() * p(1).get()).shl(dsl::int(2));
        let body = [g.set(i.get()), dsl::store(at(), 0, at().load(ValType::I32, 0) + dsl::int(1))];
        let ret = dsl::ret(Some(i.get()));
        dsl::emit_block(f, &[dsl::for_range(i, dsl::int(0), p(2).get(), &body), ret]);
    });
    // (n): the running sum is also stored at 8 every iteration.
    b.func("sum", i32s(1), vec![ValType::F64], |f| {
        let i = Var::new(f, ValType::I32);
        let acc = Var::new(f, ValType::F64);
        let x = (dsl::int(65000) + i.get().shl(dsl::int(3))).load(ValType::F64, 0);
        let body = [acc.set(acc.get() + x), dsl::store(dsl::int(8), 0, acc.get()), g.set(i.get())];
        let ret = dsl::ret(Some(acc.get()));
        dsl::emit_block(f, &[dsl::for_range(i, dsl::int(0), p(0).get(), &body), ret]);
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    // In bounds, then out of bounds at i = 14 (60000 + 5600 + 4 > 65536).
    let out = chains_agree(&module, "bump", &i32_args(&[60000, 100, 10]));
    assert_eq!(out, Ok(vec![Value::I32(10)]));
    let out = chains_agree(&module, "bump", &i32_args(&[60000, 100, 30]));
    assert!(matches!(out, Err(Trap::MemoryOutOfBounds { .. })), "{out:?}");
    // In bounds through i = 66, out of bounds at i = 67.
    assert!(chains_agree(&module, "sum", &i32_args(&[67])).is_ok());
    let out = chains_agree(&module, "sum", &i32_args(&[200]));
    assert!(matches!(out, Err(Trap::MemoryOutOfBounds { .. })), "{out:?}");
}

/// Two NaNs meet in a scaled f64 load fused into its add: the sum's bits —
/// which payload survives — are `Baseline`'s, in every order of NaN and
/// number.
#[test]
fn nan_payloads_through_a_fused_load_and_add_match_baseline() {
    const NAN_A: u64 = 0x7ff8_0000_0000_0a0a;
    const NAN_B: u64 = 0xfff8_0000_0000_0b0b;
    // A signalling payload: the add quiets it.
    const NAN_C: u64 = 0x7ff0_0000_0000_0c0c;
    let words = [NAN_A, 1.5f64.to_bits(), 2.0f64.to_bits(), NAN_B, (-0.0f64).to_bits(), NAN_C];
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    b.data(0, words.iter().flat_map(|w| w.to_le_bytes()).collect());
    // (first, n): acc = word[first]; for i in 0..n { acc += word[2 + i] };
    // the bits of acc.
    b.func("nan_sum", vec![ValType::I32; 2], vec![ValType::I64], |f| {
        let p = |k| dsl::local(k, ValType::I32);
        let i = Var::new(f, ValType::I32);
        let acc = Var::new(f, ValType::F64);
        let x = (dsl::int(16) + i.get().shl(dsl::int(3))).load(ValType::F64, 0);
        dsl::emit_block(f, &[
            acc.set(p(0).get().shl(dsl::int(3)).load(ValType::F64, 0)),
            dsl::for_range(i, dsl::int(0), p(1).get(), &[acc.set(acc.get() + x)]),
            dsl::store(dsl::int(1024), 0, acc.get()),
            dsl::ret(Some(dsl::int(1024).load(ValType::I64, 0))),
        ]);
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    let mut payloads = std::collections::HashSet::new();
    for first in [0, 1] {
        for n in 1..=4 {
            let out = chains_agree(&module, "nan_sum", &i32_args(&[first, n])).unwrap();
            let Value::I64(bits) = out[0] else { panic!("{out:?}") };
            if f64::from_bits(bits as u64).is_nan() {
                payloads.insert(bits as u64 & 0xffff);
            }
        }
    }
    // A's and B's payloads both reach a result.
    assert!(payloads.contains(&0x0a0a) && payloads.contains(&0x0b0b), "{payloads:x?}");
}

/// A rotated loop that never ends stops when the fuel runs out: the
/// backward word of its copied guard is the loop's fuel guard point.
#[test]
fn a_rotated_loop_runs_out_of_fuel() {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    // (x): while x != 0 { acc += 1 }
    b.func("spin", vec![ValType::I32], vec![ValType::I32], |f| {
        let acc = Var::new(f, ValType::I32);
        let x = dsl::local(0, ValType::I32);
        let body = [acc.set(acc.get() + dsl::int(1))];
        let ret = dsl::ret(Some(acc.get()));
        dsl::emit_block(f, &[dsl::while_loop(x.get().ne(dsl::int(0)), &body), ret]);
    });
    let module = b.finish();
    for tier in [Tier::Baseline, Tier::Optimizing, Tier::Max] {
        let compiled = CompiledModule::compile(module.clone(), tier).unwrap();
        let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
        assert_eq!(inst.invoke("spin", &[Value::I32(0)]), Ok(vec![Value::I32(0)]), "tier {tier}");
        inst.set_fuel(50_000);
        assert_eq!(inst.invoke("spin", &[Value::I32(1)]), Err(Trap::OutOfFuel), "tier {tier}");
        assert_eq!(inst.fuel_left(), 0, "tier {tier}");
    }
}

// --- br_table: targets and unwind copies in the pool, on every tier ---

/// `br_table` leaves exactly what `Baseline` leaves at `Optimizing` and
/// `Max` — the one branch whose targets and unwind copies live in the
/// function's pool rather than in the op, so every pass that follows
/// control edges reads it differently from the straight branches. `spin`
/// is a loop closed only by a backward pool entry (the loop head only the
/// pool names). `pick` carries a value over an
/// unwind copy into an outer block, out of the function, or — by default —
/// to the outermost block. `scratch` does the same after the mid-end gave
/// it a scratch local, so the temporaries and every pool unwind copy were
/// renumbered past it.
#[test]
fn br_table_agrees_with_baseline_on_every_tier() {
    use wasm_engine::instr::{BrTable, Instr as I};
    use wasm_engine::tier::CompiledBody;
    use wasm_engine::types::BlockType;
    let i32s = |n| vec![ValType::I32; n];
    let table = |targets: &[u32], default| {
        I::BrTable(Box::new(BrTable { targets: targets.to_vec(), default }))
    };
    // (x, k) on the stack below: x * 5 (left behind by the unwind), the
    // carried x + 1000, and the index k; into `$mid` (× 3, then + 7), out
    // of the function as is, or by default into `$outer` (+ 7).
    let carry = |x: u32, k: u32| {
        vec![
            I::Block(BlockType::Value(ValType::I32)),
            I::Block(BlockType::Value(ValType::I32)),
            I::LocalGet(x),
            I::I32Const(5),
            I::I32Mul,
            I::LocalGet(x),
            I::I32Const(1000),
            I::I32Add,
            I::LocalGet(k),
            table(&[0, 2, 0], 1),
            I::End,
            I::I32Const(3),
            I::I32Mul,
            I::End,
            I::I32Const(7),
            I::I32Add,
        ]
    };
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    // (n): do { acc += i * 3; i += 1 } while (i < n), the `while` a table
    // whose entry 1 is the loop and whose entry 0 and default leave it.
    b.func("spin", i32s(1), i32s(1), |f| {
        let (i, acc) = (f.local(ValType::I32), f.local(ValType::I32));
        f.emit_all([
            I::Block(BlockType::Empty),
            I::Loop(BlockType::Empty),
            I::LocalGet(acc),
            I::LocalGet(i),
            I::I32Const(3),
            I::I32Mul,
            I::I32Add,
            I::LocalSet(acc),
            I::LocalGet(i),
            I::I32Const(1),
            I::I32Add,
            I::LocalTee(i),
            I::LocalGet(0),
            I::I32LtS,
            table(&[1, 0], 1),
            I::End,
            I::End,
            I::LocalGet(acc),
            I::I32Const(100),
            I::I32Mul,
            I::LocalGet(i),
            I::I32Add,
        ]);
    });
    b.func("pick", i32s(2), i32s(1), |f| {
        f.emit_all(carry(0, 1));
    });
    // (x, y): `if x * y < 7 { mem[a] = x }` twice — the product and the
    // compare kept in a scratch local across the join — then `carry`.
    b.func("scratch", i32s(2), i32s(1), |f| {
        let (x, y) = (dsl::local(0, ValType::I32), dsl::local(1, ValType::I32));
        let store = |at| {
            let cond = (x.get() * y.get()).lt(dsl::int(7));
            dsl::if_then(cond, &[dsl::store(dsl::int(at), 0, x.get())])
        };
        dsl::emit_block(f, &[store(0), store(8)]);
        f.emit_all(carry(0, 1));
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    for tier in [Tier::Optimizing, Tier::Max] {
        let compiled = CompiledModule::compile(module.clone(), tier).unwrap();
        let CompiledBody::Flat(rf) = compiled.bodies().unwrap()[2] else { panic!("flat tier") };
        assert!(rf.scratch_slots > 0, "`scratch` has no scratch local at {tier}");
    }
    let picks = |x: i32| [(x + 1000) * 3 + 7, x + 1000, (x + 1000) * 3 + 7, x + 1007];
    let mut cases = vec![
        ("spin", vec![0], 1),
        ("spin", vec![1], 1),
        ("spin", vec![5], 3005),
        ("spin", vec![50], 367_550),
    ];
    for (name, x) in [("pick", 2), ("scratch", 2), ("scratch", 3)] {
        for (k, want) in [0, 1, 2, 3].into_iter().zip(picks(x)) {
            cases.push((name, vec![x, k], want));
        }
        cases.push((name, vec![x, -1], x + 1007));
    }
    for (name, args, want) in cases {
        let args = i32_args(&args);
        let base = outcome(&module, Tier::Baseline, name, &args);
        assert_eq!(base.0, Ok(vec![Value::I32(want)]), "{name}{args:?}");
        for tier in [Tier::Optimizing, Tier::Max] {
            let got = outcome(&module, tier, name, &args);
            assert_eq!(got.0, base.0, "{name}{args:?} at {tier}: result");
            assert!(got.1 == base.1, "{name}{args:?} at {tier}: memory differs");
            assert_eq!(got.2, base.2, "{name}{args:?} at {tier}: globals");
        }
    }
}

// --- predicated steps: a guard fused with the one accumulate it skips ---

/// `x[i]` of the data the predication tests sum: 192 f64s from 64000 to
/// the end of memory, so `x[192]` is past it. Signed zeros and three NaN
/// payloads (one signalling) among plain numbers.
const X: i32 = 64000;
const NAN_A: u64 = 0x7ff8_0000_0000_0a0a;
const NAN_B: u64 = 0xfff8_0000_0000_0b0b;
const NAN_C: u64 = 0x7ff0_0000_0000_0c0c;

fn predication_data() -> Vec<u8> {
    let words = [(-0.0f64).to_bits(), 0.0f64.to_bits(), NAN_A, 1.5f64.to_bits(), NAN_B];
    let words = [words.as_slice(), &[(-0.0f64).to_bits(), NAN_C, 2.25f64.to_bits()]].concat();
    (0..192).flat_map(|k| words[k % 8].to_le_bytes()).collect()
}

/// `f64 at base + (i << 3)` (a scaled load with a constant base) with a
/// memarg offset.
fn x_at(base: i32, i: Var, offset: u32) -> dsl::Expr {
    (dsl::int(base) + i.get().shl(dsl::int(3))).load(ValType::F64, offset)
}

/// The first result, the bits of an f64 returned as an i64, so `-0.0` and
/// NaN payloads compare exactly.
fn bits(out: &Result<Vec<Value>, Trap>) -> Option<u64> {
    match out.as_ref().ok()?.first()? {
        Value::I64(b) => Some(*b as u64),
        other => panic!("{other:?}"),
    }
}

/// Guards that each skip one accumulate — `if c { acc += x[i] }` (a
/// `br_if` zero on one condition) and `d = c & (lo <= i); if d { acc +=
/// x[i + 1] }` (an `and` of two, its register read later) — against
/// `Baseline`, with `acc` starting at `-0.0`: taken and skipped in every
/// mix, NaN payloads meeting in the adds, a false guard over an address
/// past the end of memory (no trap) and a true one there (the load's trap,
/// after the iterations before it committed their stores and global
/// writes). `offset` and `spill` are the shapes
/// that stay two steps: a memarg offset on the load, and an add whose
/// accumulator is not its destination. In `count` the skipped op is an
/// `i32` increment.
#[test]
fn predicated_accumulates_agree_with_baseline() {
    let i32s = |n| vec![ValType::I32; n];
    let p = |k| dsl::local(k, ValType::I32);
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    b.data(X, predication_data());
    let g = b.global(ValType::I32, true, Instr::I32Const(-1));
    let g = dsl::GlobalVar { idx: g, ty: ValType::I32 };
    // (n, lo, hi): the bits of acc after `for i in 0..n` of `if c { s0 };
    // d = c & (lo <= i); if d { s1 }` with c = i < hi, where `[s0, s1] =
    // body(i, acc, spill)`; `d`, the `and`'s register, is read after.
    type Body = fn(Var, Var, Var) -> [dsl::Stmt; 2];
    let guarded = |b: &mut ModuleBuilder, name: &str, body: Body| {
        b.func(name, i32s(3), vec![ValType::I64], |f| {
            let i = Var::new(f, ValType::I32);
            let (c, d) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
            let (acc, spill) = (Var::new(f, ValType::F64), Var::new(f, ValType::F64));
            let [s0, s1] = body(i, acc, spill);
            let stmts = [
                c.set(i.get().lt(p(2).get())),
                dsl::if_then(c.get(), &[s0]),
                d.set(c.get().and(p(1).get().le(i.get()))),
                dsl::if_then(d.get(), &[s1]),
                dsl::store(dsl::int(8), 0, acc.get()),
                g.set(i.get() * dsl::int(2) + d.get()),
            ];
            dsl::emit_block(f, &[
                acc.set(dsl::double(-0.0)),
                dsl::for_range(i, dsl::int(0), p(0).get(), &stmts),
                dsl::store(dsl::int(16), 0, acc.get()),
                dsl::ret(Some(dsl::int(16).load(ValType::I64, 0))),
            ]);
        });
    };
    guarded(&mut b, "sum", |i, acc, _| {
        [acc.set(acc.get() + x_at(X, i, 0)), acc.set(acc.get() + x_at(X + 8, i, 0))]
    });
    guarded(&mut b, "offset", |i, acc, _| {
        [acc.set(acc.get() + x_at(X - 8, i, 8)), acc.set(acc.get() + x_at(X, i, 8))]
    });
    guarded(&mut b, "spill", |i, acc, spill| {
        [spill.set(acc.get() + x_at(X, i, 0)), acc.set(spill.get() + x_at(X + 8, i, 0))]
    });
    // (n, lo, hi): k * 1000 + k2, the same guards over `k += 1; k2 += 1`.
    b.func("count", i32s(3), i32s(1), |f| {
        let mut var = || Var::new(f, ValType::I32);
        let (i, k, k2, c, d) = (var(), var(), var(), var(), var());
        let body = [
            c.set(i.get().lt(p(2).get())),
            dsl::if_then(c.get(), &[k.set(k.get() + dsl::int(1))]),
            d.set(c.get().and(p(1).get().le(i.get()))),
            dsl::if_then(d.get(), &[k2.set(k2.get() + dsl::int(1))]),
            g.set(k.get() * dsl::int(2) + d.get()),
        ];
        dsl::emit_block(f, &[
            dsl::for_range(i, dsl::int(0), p(0).get(), &body),
            dsl::ret(Some(k.get() * dsl::int(1000) + k2.get())),
        ]);
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    let mut seen = std::collections::HashSet::new();
    for name in ["sum", "offset", "spill"] {
        // `oob`: `x[192]`, past the end, is read under `c` (at i = 192) or
        // under `d` (at i = 191).
        for (n, lo, hi, oob) in [
            (20, 0, 20, false),
            (20, 5, 12, false),
            (20, 100, 0, false),
            (9, 2, 3, false),
            (9, 4, 9, false),
            (40, 6, 33, false),
            (200, 0, 191, false),
            (200, 0, 193, true),
            (200, 195, 193, true),
        ] {
            let out = chains_agree(&module, name, &i32_args(&[n, lo, hi]));
            let trapped = matches!(out, Err(Trap::MemoryOutOfBounds { .. }));
            assert_eq!(trapped, oob, "{name}({n}, {lo}, {hi}): {out:?}");
            seen.extend(bits(&out));
        }
    }
    // A `-0.0` that nothing was added to, and both quiet NaNs' payloads.
    assert!(seen.contains(&(-0.0f64).to_bits()), "{seen:x?}");
    for nan in [NAN_A, NAN_B] {
        assert!(seen.iter().any(|&s| s & 0xffff == nan & 0xffff), "{nan:x}: {seen:x?}");
    }
    for (n, lo, hi, want) in [(20, 5, 12, 12_007), (20, 100, 0, 0), (9, 0, 100, 9009)] {
        let out = chains_agree(&module, "count", &i32_args(&[n, lo, hi]));
        assert_eq!(out, Ok(vec![Value::I32(want)]), "count({n}, {lo}, {hi})");
    }
}

/// A branch elsewhere that goes to an accumulate another guard skips:
/// `if e { goto L }; if d == 0 { goto E }; L: acc += x[i]; E:`. The second
/// guard and the accumulate stay two steps, so `L` stays a step and a
/// taken `e` lands on it. Fused, a taken `e` would have no step to land on
/// (whose f64 add, on two NaNs, must keep `Baseline`'s payload: NaN A
/// meets NaN C here).
#[test]
fn a_guard_exiting_into_a_guarded_accumulate_agrees_with_baseline() {
    use wasm_engine::instr::Instr as I;
    use wasm_engine::types::BlockType;
    let p = |k| dsl::local(k, ValType::I32);
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    b.data(X, predication_data());
    // (n, emask, dmask): e = i & emask, d = i & dmask; the bits of acc.
    b.func("join", vec![ValType::I32; 3], vec![ValType::I64], |f| {
        let i = Var::new(f, ValType::I32);
        let (e, d) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let acc = Var::new(f, ValType::F64);
        let accumulate = [
            I::LocalGet(acc.idx),
            I::I32Const(X),
            I::LocalGet(i.idx),
            I::I32Const(3),
            I::I32Shl,
            I::I32Add,
            I::F64Load(MemArg::default()),
            I::F64Add,
            I::LocalSet(acc.idx),
        ];
        let mut skip = vec![I::Block(BlockType::Empty), I::Block(BlockType::Empty)];
        skip.extend([I::LocalGet(e.idx), I::BrIf(0), I::LocalGet(d.idx), I::I32Eqz, I::BrIf(1)]);
        skip.push(I::End);
        skip.extend(accumulate);
        skip.push(I::End);
        let body = [
            e.set(i.get().and(p(1).get())),
            d.set(i.get().and(p(2).get())),
            dsl::Stmt::Raw(skip),
            dsl::store(dsl::int(8), 0, acc.get()),
        ];
        dsl::emit_block(f, &[
            acc.set(dsl::double(-0.0)),
            dsl::for_range(i, dsl::int(0), p(0).get(), &body),
            dsl::store(dsl::int(16), 0, acc.get()),
            dsl::ret(Some(dsl::int(16).load(ValType::I64, 0))),
        ]);
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    for (emask, dmask) in [(0, 0), (0, -1), (1, 0), (2, 1), (-1, -1), (4, 3)] {
        let out = chains_agree(&module, "join", &i32_args(&[24, emask, dmask]));
        assert!(bits(&out).is_some(), "join(24, {emask}, {dmask}): {out:?}");
    }
}

/// `x / k` and `x % k` by a constant `k` (one fused chain step each):
/// powers of two take a shift or a mask, `k = 0` traps as `Baseline`
/// does, and the operands are unsigned.
#[test]
fn unsigned_div_and_rem_by_constants_agree_with_baseline() {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    let g = b.global(ValType::I32, true, Instr::I32Const(-1));
    let g = dsl::GlobalVar { idx: g, ty: ValType::I32 };
    let ks = [0, 1, 2, 3, 65535, 65536, i32::MIN];
    for k in ks {
        // (n, x): for i in 0..n { acc = (acc ^ (x + i) / k) + (x * i) % k }.
        b.func(&format!("divrem{k}"), vec![ValType::I32; 2], vec![ValType::I32], |f| {
            let (i, acc) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
            let x = dsl::local(1, ValType::I32);
            let q = (x.get() + i.get()).div_u(dsl::int(k));
            let r = (x.get() * i.get()).rem_u(dsl::int(k));
            let body = [acc.set(acc.get().xor(q) + r), g.set(acc.get())];
            dsl::emit_block(f, &[
                dsl::for_range(i, dsl::int(0), dsl::local(0, ValType::I32).get(), &body),
                dsl::ret(Some(acc.get())),
            ]);
        });
    }
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    for k in ks {
        for x in [-7, 12345, i32::MIN, -1] {
            let out = chains_agree(&module, &format!("divrem{k}"), &i32_args(&[5, x]));
            assert_eq!(k == 0, matches!(out, Err(Trap::IntegerDivideByZero)), "{k}, {x}: {out:?}");
        }
    }
}

// --- branch targets are step boundaries ---

/// A `block … br_if` that lands on the second op of each shape the `Max`
/// program fuses or predicates — `Const` + `Mul32`, `Mul32` + `Add32`, the
/// load → `AddK32` → store triple (and its third op), `Load64ShlK` +
/// `AddF64`, `AddK32` + `BrIfCmp32K`, and a guarded accumulate — must find
/// a step there: fused, the branch would land on the first op's step and
/// run it too. `Optimizing` and `Max` against `Baseline`, branch taken and
/// not.
#[test]
fn a_branch_into_the_second_op_of_a_fusable_shape_agrees_with_baseline() {
    use wasm_engine::instr::{Instr as I, MemArg};
    use wasm_engine::regalloc::Rc;
    use wasm_engine::tier::CompiledBody;
    use wasm_engine::types::BlockType;
    let i32s = |n| vec![ValType::I32; n];
    let m = MemArg::default;
    // `block; br_if c; <first>; end; <rest>`, c the first parameter.
    let skip = |first: Vec<I>, rest: Vec<I>| {
        let mut body = vec![I::Block(BlockType::Empty), I::LocalGet(0), I::BrIf(0)];
        body.extend(first);
        body.push(I::End);
        body.extend(rest);
        body
    };
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    // x[k] = k + 0.25, for k < 8.
    b.data(64, (0..8).flat_map(|k| (k as f64 + 0.25).to_le_bytes()).collect());
    let mut shapes: Vec<(&str, Vec<Rc>)> = Vec::new();
    // (c, a): k = 7; if !c { k = 24 }; a * k.
    b.func("konst", i32s(2), i32s(1), |f| {
        let k = f.local(ValType::I32);
        f.emit_all([I::I32Const(7), I::LocalSet(k)]);
        f.emit_all(skip(
            vec![I::I32Const(24), I::LocalSet(k)],
            vec![I::LocalGet(1), I::LocalGet(k), I::I32Mul],
        ));
    });
    shapes.push(("konst", vec![Rc::Const, Rc::Mul32]));
    // (c, x, y, z): if !c { t = x * y }; t + z.
    b.func("muladd", i32s(4), i32s(1), |f| {
        let t = f.local(ValType::I32);
        f.emit_all(skip(
            vec![I::LocalGet(1), I::LocalGet(2), I::I32Mul, I::LocalSet(t)],
            vec![I::LocalGet(t), I::LocalGet(3), I::I32Add],
        ));
    });
    shapes.push(("muladd", vec![Rc::Mul32, Rc::Add32]));
    // (c, p): if !c { t = mem[p] }; mem[p] = t + 5; mem[p].
    b.func("rmw_add", i32s(2), i32s(1), |f| {
        let t = f.local(ValType::I32);
        f.emit_all(skip(
            vec![I::LocalGet(1), I::I32Load(m()), I::LocalSet(t)],
            vec![I::LocalGet(1), I::LocalGet(t), I::I32Const(5), I::I32Add, I::I32Store(m())],
        ));
        f.emit_all([I::LocalGet(1), I::I32Load(m())]);
    });
    shapes.push(("rmw_add", vec![Rc::Load32, Rc::AddK32, Rc::Store32]));
    // (c, p): u = 9; if !c { t = mem[p]; u = t + 5 }; mem[p] = u; mem[p].
    b.func("rmw_store", i32s(2), i32s(1), |f| {
        let (t, u) = (f.local(ValType::I32), f.local(ValType::I32));
        f.emit_all([I::I32Const(9), I::LocalSet(u)]);
        let load_add = [I::LocalGet(1), I::I32Load(m()), I::LocalTee(t), I::I32Const(5)];
        f.emit_all(skip(
            load_add.into_iter().chain([I::I32Add, I::LocalSet(u)]).collect(),
            vec![I::LocalGet(1), I::LocalGet(u), I::I32Store(m())],
        ));
        f.emit_all([I::LocalGet(1), I::I32Load(m())]);
    });
    shapes.push(("rmw_store", vec![Rc::Load32, Rc::AddK32, Rc::Store32]));
    // (c, i): acc = 1.5; if !c { t = x[i] }; acc + t, as bits.
    b.func("load_add", i32s(2), vec![ValType::I64], |f| {
        let (t, acc) = (f.local(ValType::F64), f.local(ValType::F64));
        f.emit_all([I::F64Const(1.5), I::LocalSet(acc)]);
        let at = [I::LocalGet(1), I::I32Const(3), I::I32Shl];
        f.emit_all(skip(
            at.into_iter().chain([I::F64Load(MemArg::offset(64)), I::LocalSet(t)]).collect(),
            vec![I::LocalGet(acc), I::LocalGet(t), I::F64Add, I::I64ReinterpretF64],
        ));
    });
    shapes.push(("load_add", vec![Rc::Load64ShlK, Rc::AddF64]));
    // (c, i): if !c { i += 1 }; if i < 10 { return i }; 100.
    b.func("addk_brif", i32s(2), i32s(1), |f| {
        f.emit(I::Block(BlockType::Empty));
        f.emit_all(skip(
            vec![I::LocalGet(1), I::I32Const(1), I::I32Add, I::LocalSet(1)],
            vec![I::LocalGet(1), I::I32Const(10), I::I32LtS, I::BrIf(0)],
        ));
        f.emit_all([I::I32Const(100), I::Return, I::End, I::LocalGet(1)]);
    });
    shapes.push(("addk_brif", vec![Rc::AddK32, Rc::BrIfCmp32K]));
    // (e, d, acc): if !e { if d == 0 { goto E } }; acc += 7; E: acc.
    b.func("guarded", i32s(3), i32s(1), |f| {
        f.emit(I::Block(BlockType::Empty));
        f.emit_all(skip(
            vec![I::LocalGet(1), I::I32Eqz, I::BrIf(1)],
            vec![I::LocalGet(2), I::I32Const(7), I::I32Add, I::LocalSet(2)],
        ));
        f.emit_all([I::End, I::LocalGet(2)]);
    });
    shapes.push(("guarded", vec![Rc::BrIfZ, Rc::AddK32]));
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    // Each shape is in the `Max` stream, its ops adjacent.
    let compiled = CompiledModule::compile(module.clone(), Tier::Max).unwrap();
    for ((name, shape), body) in shapes.iter().zip(compiled.bodies().unwrap()) {
        let CompiledBody::Flat(f) = body else { panic!("flat tier") };
        let codes: Vec<Rc> = f.code.iter().map(|op| op.code).collect();
        assert!(codes.windows(shape.len()).any(|w| w == shape), "{name}: {codes:?}");
    }
    let cases: [(&str, &[i32]); 7] = [
        ("konst", &[0, 3]),
        ("muladd", &[0, 3, 5, 7]),
        ("rmw_add", &[0, 64]),
        ("rmw_store", &[0, 68]),
        ("load_add", &[0, 2]),
        ("addk_brif", &[0, 9]),
        ("guarded", &[0, 0, 30]),
    ];
    for (name, args) in cases {
        for c in [0, 1] {
            let args: Vec<i32> = [c].into_iter().chain(args[1..].iter().copied()).collect();
            let args = i32_args(&args);
            let want = outcome(&module, Tier::Baseline, name, &args);
            assert!(want.0.is_ok(), "{name}{args:?}: {:?}", want.0);
            for tier in [Tier::Optimizing, Tier::Max] {
                let got = outcome(&module, tier, name, &args);
                assert_eq!(got.0, want.0, "{name}{args:?} at {tier}: result");
                assert!(got.1 == want.1, "{name}{args:?} at {tier}: memory differs");
            }
        }
    }
}
