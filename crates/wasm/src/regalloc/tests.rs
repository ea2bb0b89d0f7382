use super::*;
use crate::builder::ModuleBuilder;
use crate::instr::MemArg;
use crate::ir::Cmp;
use crate::tier::{CompiledBody, Tier};
use crate::types::ValType;

/// Compile one body at the given tier and return its register form.
fn reg_of(build: impl Fn(&mut crate::builder::FunctionBuilder), tier: Tier) -> RegFunc {
    reg_of_t(vec![ValType::I32, ValType::I32], build, tier)
}

/// Like [`reg_of`], with explicit parameter types.
fn reg_of_t(
    params: Vec<ValType>,
    build: impl Fn(&mut crate::builder::FunctionBuilder),
    tier: Tier,
) -> RegFunc {
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    b.func("f", params, vec![], build);
    let module = b.finish();
    crate::validate::validate_module(&module).unwrap();
    let compiled =
        crate::runtime::CompiledModule::compile(module, tier).unwrap();
    match compiled.bodies().unwrap()[0] {
        CompiledBody::Flat(f) => f.clone(),
        CompiledBody::Interp(_) => panic!("flat tier expected"),
    }
}

fn count(rf: &RegFunc, code: Rc) -> usize {
    rf.code.iter().filter(|op| op.code == code).count()
}

#[test]
fn regop_is_compact() {
    assert_eq!(std::mem::size_of::<RegOp>(), 24);
}

#[test]
fn every_byte_is_an_opcode_or_rejected() {
    // `from_byte` is the inverse of `as u8` on exactly the bytes up to
    // the last variant; everything above is no opcode.
    let last = Rc::RemUK32 as u8;
    for b in 0..=u8::MAX {
        match Rc::from_byte(b) {
            Some(code) => assert_eq!(code as u8, b),
            None => assert!(b > last, "byte {b} rejected"),
        }
        assert_eq!(Rc::from_byte(b).is_some(), b <= last);
    }
    // Every variant has a distinct Debug name (none is a transmuted
    // out-of-range value printed as its neighbour).
    let names: std::collections::HashSet<String> =
        (0..=last).map(|b| format!("{:?}", Rc::from_byte(b).unwrap())).collect();
    assert_eq!(names.len(), last as usize + 1);
}

/// Every code after `RemUK32` is a fused code only a step program
/// holds: no byte decodes to one, and the verifier refuses a stream
/// holding one — so neither the compiler nor an artifact can put one
/// where the program builder's rules did not.
#[test]
fn chain_only_opcodes_never_enter_a_stream() {
    // rustc keeps `Option<Rc>`'s `None` in the byte after the last
    // variant, so a variant added after `Rc::LAST` fails here.
    // SAFETY: `Option<Rc>` is one initialized byte (or this would not
    // compile).
    let none = unsafe { std::mem::transmute::<Option<Rc>, u8>(None) };
    assert_eq!(none, Rc::LAST as u8 + 1, "`Rc::LAST` is not the last variant");
    use crate::instr::Instr as I;
    let mut b = ModuleBuilder::new();
    b.func("f", vec![ValType::I32, ValType::I32], vec![], |f| {
        f.emit_all([I::LocalGet(0), I::LocalGet(1), I::I32Add, I::Drop]);
    });
    let module = b.finish();
    crate::validate::validate_module(&module).unwrap();
    let compiled = crate::runtime::CompiledModule::compile(module.clone(), Tier::Max).unwrap();
    let CompiledBody::Flat(rf) = compiled.bodies().unwrap()[0] else { panic!("flat tier expected") };
    verify(rf, &module).unwrap();
    for byte in Rc::RemUK32 as u8 + 1..=Rc::LAST as u8 {
        // SAFETY: `Rc` is `repr(u8)` with contiguous discriminants from
        // 0, and `byte` is at most a variant's.
        let code = unsafe { std::mem::transmute::<u8, Rc>(byte) };
        assert!(code.chain_only() && Rc::from_byte(byte).is_none(), "{code:?}");
        let mut bad = rf.clone();
        bad.code.insert(0, rop(code, 0, 0, 0, 0, 0));
        let err = verify(&bad, &module).unwrap_err();
        assert!(err.contains("chain-only opcode"), "{code:?}: {err}");
    }
}

#[test]
fn i64_scaled_load_fuses_at_register_level() {
    // base + (idx << 3) ; i64.load — the register peephole must
    // produce Load64Shl (one scaled form for every 64-bit load).
    use crate::instr::Instr as I;
    let rf = reg_of(
        |f| {
            f.emit_all([
                I::LocalGet(0),
                I::LocalGet(1),
                I::I32Const(3),
                I::I32Shl,
                I::I32Add,
                I::I64Load(MemArg::offset(16)),
                I::Drop,
            ]);
        },
        Tier::Max,
    );
    // The whole chain is one op: idx, base, shift and offset in place.
    assert_eq!(rf.code[0], rop(Rc::Load64Shl, 1, 0, rf.n_local_slots, 3, 16), "{:?}", rf.code);
    assert_eq!(rf.code.len(), 2, "{:?}", rf.code);
}

#[test]
fn f32_scaled_load_fuses_at_register_level() {
    use crate::instr::Instr as I;
    let rf = reg_of(
        |f| {
            f.emit_all([
                I::LocalGet(0),
                I::LocalGet(1),
                I::I32Const(2),
                I::I32Shl,
                I::I32Add,
                I::F32Load(MemArg::offset(0)),
                I::Drop,
            ]);
        },
        Tier::Max,
    );
    assert_eq!(count(&rf, Rc::Load32Shl), 1, "{:?}", rf.code);
}

#[test]
fn store_with_value_window_fuses() {
    // a[i] = f64(load(b)) — address first, value computation between
    // it and the store: the "value window" no adjacent-op rule can
    // match, fused here into Store64Shl.
    use crate::instr::Instr as I;
    let rf = reg_of(
        |f| {
            f.emit_all([
                I::LocalGet(0),
                I::LocalGet(1),
                I::I32Const(3),
                I::I32Shl,
                I::I32Add,
                I::LocalGet(1),
                I::F64Load(MemArg::offset(64)),
                I::F64Sqrt,
                I::F64Store(MemArg::offset(8)),
            ]);
        },
        Tier::Max,
    );
    assert_eq!(count(&rf, Rc::Store64Shl), 1, "{:?}", rf.code);
    assert_eq!(count(&rf, Rc::Store64), 0);
}

#[test]
fn const_base_store_window_fuses() {
    // counts[x<<2 + K] = value — the NPB IS histogram update.
    use crate::instr::Instr as I;
    let rf = reg_of(
        |f| {
            f.emit_all([
                I::LocalGet(0),
                I::I32Const(2),
                I::I32Shl,
                I::I32Const(4096),
                I::I32Add,
                I::LocalGet(1),
                I::I32Const(1),
                I::I32Add,
                I::I32Store(MemArg::offset(0)),
            ]);
        },
        Tier::Max,
    );
    assert_eq!(count(&rf, Rc::Store32ShlK), 1, "{:?}", rf.code);
}

#[test]
fn forwarding_eliminates_copy_and_const_traffic() {
    // x*8 at the optimizing tier: forwarding must fold the const
    // multiply into a shift and leave no Copy of the local behind.
    use crate::instr::Instr as I;
    let rf = reg_of(
        |f| {
            f.emit_all([
                I::LocalGet(0),
                I::I32Const(8),
                I::I32Mul,
                I::LocalSet(1),
            ]);
        },
        Tier::Optimizing,
    );
    assert_eq!(count(&rf, Rc::ShlK32), 1, "{:?}", rf.code);
    assert_eq!(count(&rf, Rc::Mul32), 0, "{:?}", rf.code);
    assert_eq!(count(&rf, Rc::Copy), 0, "copies should forward: {:?}", rf.code);
}

#[test]
fn i64_const_forwarding_forms_addk64_and_cmp64k() {
    // x + 5 (i64) and x < 100 (i64) must fold their Const operands
    // into the immediate forms, leaving no Const+Add64/Cmp64 pairs.
    use crate::instr::Instr as I;
    let rf = reg_of_t(
        vec![ValType::I64, ValType::I64, ValType::I32],
        |f| {
            f.emit_all([
                I::LocalGet(0),
                I::I64Const(5),
                I::I64Add,
                I::LocalSet(1),
                I::LocalGet(0),
                I::I64Const(100),
                I::I64LtS,
                I::LocalSet(2),
            ]);
        },
        Tier::Optimizing,
    );
    assert_eq!(count(&rf, Rc::AddK64), 1, "{:?}", rf.code);
    assert_eq!(count(&rf, Rc::Add64), 0, "{:?}", rf.code);
    assert_eq!(count(&rf, Rc::Cmp64K), 1, "{:?}", rf.code);
    assert_eq!(count(&rf, Rc::Cmp64), 0, "{:?}", rf.code);
    let addk = rf.code.iter().find(|op| op.code == Rc::AddK64).unwrap();
    assert_eq!(addk.imm, 5);
}

#[test]
fn i64_sub_const_negates_into_addk64() {
    use crate::instr::Instr as I;
    let rf = reg_of_t(
        vec![ValType::I64, ValType::I64],
        |f| {
            f.emit_all([I::LocalGet(0), I::I64Const(7), I::I64Sub, I::LocalSet(1)]);
        },
        Tier::Optimizing,
    );
    assert_eq!(count(&rf, Rc::AddK64), 1, "{:?}", rf.code);
    assert_eq!(count(&rf, Rc::Sub64), 0, "{:?}", rf.code);
    let addk = rf.code.iter().find(|op| op.code == Rc::AddK64).unwrap();
    assert_eq!(addk.imm as i64, -7);
}

#[test]
fn float_const_const_folds_to_const() {
    // 2.5 * 4.0 (f64) and 1.5 + 0.25 (f32) fold at compile time.
    use crate::instr::Instr as I;
    let rf = reg_of_t(
        vec![ValType::F64, ValType::F32],
        |f| {
            f.emit_all([
                I::F64Const(2.5),
                I::F64Const(4.0),
                I::F64Mul,
                I::LocalSet(0),
                I::F32Const(1.5),
                I::F32Const(0.25),
                I::F32Add,
                I::LocalSet(1),
            ]);
        },
        Tier::Optimizing,
    );
    assert_eq!(count(&rf, Rc::MulF64), 0, "{:?}", rf.code);
    assert_eq!(count(&rf, Rc::AddF32), 0, "{:?}", rf.code);
    assert!(
        rf.code
            .iter()
            .any(|op| op.code == Rc::Const && op.imm == 10.0f64.to_bits()),
        "{:?}",
        rf.code
    );
    assert!(
        rf.code
            .iter()
            .any(|op| op.code == Rc::Const && op.imm == 1.75f32.to_bits() as u64),
        "{:?}",
        rf.code
    );
}

#[test]
fn loop_counter_increment_is_one_in_place_add() {
    // i = i + 1: no copies, no constant (the indexed and const-base
    // load chains are pinned by the scaled-load tests around this one).
    use crate::instr::Instr as I;
    let rf = reg_of(
        |f| {
            f.emit_all([I::LocalGet(0), I::I32Const(1), I::I32Add, I::LocalSet(0)]);
        },
        Tier::Max,
    );
    assert_eq!(rf.code[0], rop(Rc::AddK32, 0, 1, 0, 0, 0), "{:?}", rf.code);
    assert_eq!(rf.code.len(), 2, "{:?}", rf.code);
}

// --- the adjacent-pair fusions of the Max tiers ---

/// `block { <cond>; br_if 0; mem[0] = 1 }` with `x`, `y` the params.
fn guarded_by(cond: &[crate::instr::Instr], tier: Tier) -> RegFunc {
    use crate::instr::Instr as I;
    use crate::types::BlockType;
    reg_of(
        |f| {
            f.emit(I::Block(BlockType::Empty));
            f.emit_all(cond.iter().cloned());
            f.emit_all([
                I::BrIf(0),
                I::I32Const(0),
                I::I32Const(1),
                I::I32Store(MemArg::offset(0)),
                I::End,
            ]);
        },
        tier,
    )
}

#[test]
fn compare_and_branch_fuses_at_max_and_not_at_optimizing() {
    use crate::instr::Instr as I;
    let ll = [I::LocalGet(0), I::LocalGet(1), I::I32GeS];
    let rf = guarded_by(&ll, Tier::Max);
    let br = rf.code[0];
    assert_eq!((br.code, br.a, br.b, br.aux), (Rc::BrIfCmp32, 0, 1, Cmp::GeS as u8), "{:?}", rf.code);
    assert_eq!(count(&rf, Rc::Cmp32) + count(&rf, Rc::BrIf), 0, "{:?}", rf.code);
    let rf = guarded_by(&ll, Tier::Optimizing);
    assert_eq!((count(&rf, Rc::Cmp32), count(&rf, Rc::BrIf)), (1, 1), "{:?}", rf.code);
    assert_eq!(count(&rf, Rc::BrIfCmp32), 0, "{:?}", rf.code);

    let lk = [I::LocalGet(0), I::I32Const(5), I::I32LtS];
    let rf = guarded_by(&lk, Tier::Max);
    let br = rf.code[0];
    assert_eq!((br.code, br.a, br.b, br.aux), (Rc::BrIfCmp32K, 0, 5, Cmp::LtS as u8), "{:?}", rf.code);
    assert_eq!(count(&guarded_by(&lk, Tier::Optimizing), Rc::Cmp32K), 1);
}

#[test]
fn eqz_and_if_fold_into_the_branch_polarity() {
    use crate::instr::Instr as I;
    use crate::types::BlockType;
    // eqz ; br_if  =>  branch when x == 0.
    let rf = guarded_by(&[I::LocalGet(0), I::I32Eqz], Tier::Max);
    assert_eq!((rf.code[0].code, rf.code[0].a), (Rc::BrIfZ, 0), "{:?}", rf.code);
    assert_eq!(count(&rf, Rc::Eqz32) + count(&rf, Rc::BrIf), 0, "{:?}", rf.code);
    // if (x < y) skips its body when x >= y; if (x == 0) when x != 0.
    let skipping = |cond: &[I]| {
        reg_of(
            |f| {
                f.emit_all(cond.iter().cloned());
                f.emit_all([
                    I::If(BlockType::Empty),
                    I::I32Const(0),
                    I::I32Const(1),
                    I::I32Store(MemArg::offset(0)),
                    I::End,
                ]);
            },
            Tier::Max,
        )
    };
    let rf = skipping(&[I::LocalGet(0), I::LocalGet(1), I::I32LtS]);
    let br = rf.code[0];
    assert_eq!((br.code, br.a, br.b, br.aux), (Rc::BrIfCmp32, 0, 1, Cmp::GeS as u8), "{:?}", rf.code);
    let rf = skipping(&[I::LocalGet(0), I::I32Eqz]);
    assert_eq!((rf.code[0].code, rf.code[0].a), (Rc::BrIf, 0), "{:?}", rf.code);
    for c in (0..=9).filter_map(Cmp::from_byte) {
        assert_eq!(c.negate().negate(), c);
        for (a, b) in [(1, 2), (2, 1), (3, 3), (-1, 0)] {
            assert_ne!(c.eval(a, b), c.negate().eval(a, b), "{c:?} {a} {b}");
        }
    }
}

#[test]
fn no_pair_fusion_across_a_jump_target() {
    // The compare feeds a loop's parameter: the `br_if` at the loop
    // header also runs on the back edge, where the slot holds `x`.
    use crate::instr::Instr as I;
    use crate::types::{BlockType, FuncType};
    let mut b = ModuleBuilder::new();
    let ty = b.type_idx(FuncType::new(vec![ValType::I32], vec![]));
    b.func("f", vec![ValType::I32, ValType::I32], vec![], |f| {
        f.emit_all([
            I::Block(BlockType::Empty),
            I::LocalGet(0),
            I::LocalGet(1),
            I::I32LtS,
            I::Loop(BlockType::Func(ty)),
            I::BrIf(1),
            I::LocalGet(0),
            I::I32Const(1),
            I::I32Add,
            I::LocalTee(0),
            I::Br(0),
            I::End,
            I::End,
        ]);
    });
    let compiled = crate::runtime::CompiledModule::compile(b.finish(), Tier::Max).unwrap();
    let CompiledBody::Flat(rf) = compiled.bodies().unwrap()[0] else { panic!("flat tier expected") };
    assert_eq!((count(rf, Rc::Cmp32), count(rf, Rc::BrIf)), (1, 1), "{:?}", rf.code);
    assert_eq!(count(rf, Rc::BrIfCmp32), 0, "{:?}", rf.code);
}

#[test]
fn no_pair_fusion_when_the_compare_is_read_again() {
    // cmp ; local.tee z ; br_if — the compare sinks into `z`, a
    // local, which outlives the branch.
    use crate::instr::Instr as I;
    let z = 2;
    let rf = reg_of(
        |f| {
            assert_eq!(f.local(ValType::I32), z);
            f.emit_all([
                I::Block(crate::types::BlockType::Empty),
                I::LocalGet(0),
                I::LocalGet(1),
                I::I32LtS,
                I::LocalTee(z),
                I::BrIf(0),
                I::End,
            ]);
        },
        Tier::Max,
    );
    assert_eq!((rf.code[0].code, rf.code[0].c), (Rc::Cmp32, z), "{:?}", rf.code);
    assert_eq!((rf.code[1].code, rf.code[1].a), (Rc::BrIf, z), "{:?}", rf.code);
}

#[test]
fn fma_keeps_both_roundings_on_every_tier() {
    // -c + a * b with a * b = 1 - 2^-60, which rounds to 1: the pair
    // yields 0, a contracted multiply-add would yield -2^-60.
    use crate::instr::Instr as I;
    use crate::runtime::Value;
    let (a, b, c) = (1.0 + 2f64.powi(-30), 1.0 - 2f64.powi(-30), 1.0f64);
    let expect = -c + a * b;
    assert_eq!(expect.to_bits(), 0f64.to_bits());
    for tier in Tier::ALL {
        let mut mb = ModuleBuilder::new();
        mb.func("f", vec![ValType::F64; 3], vec![ValType::F64], |f| {
            f.emit_all([I::LocalGet(2), I::F64Neg, I::LocalGet(0), I::LocalGet(1), I::F64Mul, I::F64Add]);
        });
        let compiled = crate::runtime::CompiledModule::compile(mb.finish(), tier).unwrap();
        if let CompiledBody::Flat(rf) = compiled.bodies().unwrap()[0] {
            let fused = (tier != Tier::Optimizing) as usize;
            assert_eq!(count(rf, Rc::Fma64), fused, "tier {tier}: {:?}", rf.code);
            assert_eq!(count(rf, Rc::MulF64), 1 - fused, "tier {tier}: {:?}", rf.code);
        }
        let mut inst = crate::runtime::Linker::new().instantiate(&compiled, Box::new(())).unwrap();
        let got = inst.invoke("f", &[Value::F64(a), Value::F64(b), Value::F64(c)]).unwrap();
        assert_eq!(got[0].as_f64().unwrap().to_bits(), expect.to_bits(), "tier {tier}");
    }
}

// --- value tracking: one test per rewrite, with the cases in which
// it must not fire. Bodies are written in the DSL; params 0/1 are
// `x`/`y`, further locals are declared per test. ---

use crate::dsl::{self, int};

fn x() -> dsl::Var {
    dsl::local(0, ValType::I32)
}

fn y() -> dsl::Var {
    dsl::local(1, ValType::I32)
}

/// Compile `stmts(f)` at both flat tiers (they share the register
/// pipeline) and hand each result to `check`.
fn both_flat_tiers(
    stmts: impl Fn(&mut crate::builder::FunctionBuilder) -> Vec<dsl::Stmt>,
    check: impl Fn(&RegFunc),
) {
    for tier in [Tier::Optimizing, Tier::Max] {
        let rf = reg_of(
            |f| {
                let stmts = stmts(f);
                dsl::emit_block(f, &stmts)
            },
            tier,
        );
        check(&rf);
    }
}

#[test]
fn sign_test_pair_becomes_one_unsigned_range_test() {
    // (x-1 >= 0) & (x-1 < 24): one CmpAddK32 reading `x` directly.
    both_flat_tiers(
        |_| {
            let v = || x().get() - int(1);
            vec![y().set(v().ge(int(0)).and(v().lt(int(24))))]
        },
        |rf| {
            let range: Vec<_> = rf.code.iter().filter(|op| op.code == Rc::CmpAddK32).collect();
            assert_eq!(range.len(), 1, "{:?}", rf.code);
            let op = range[0];
            assert_eq!((op.a, op.b, op.aux, op.imm as i32), (0, 24, Cmp::LtU as u8, -1));
            for gone in [Rc::And32, Rc::Cmp32K, Rc::AddK32] {
                assert_eq!(count(rf, gone), 0, "{gone:?} left in {:?}", rf.code);
            }
        },
    );
}

#[test]
fn range_test_needs_a_constant_non_negative_bound_over_one_value() {
    // Negative K, a K that is not a constant, and two different
    // affine values each keep their And32.
    let keeps_and = |cond: fn() -> dsl::Expr| {
        both_flat_tiers(
            move |_| vec![y().set(cond())],
            |rf| assert_eq!(count(rf, Rc::And32), 1, "{:?}", rf.code),
        );
    };
    keeps_and(|| (x().get() - int(1)).ge(int(0)).and((x().get() - int(1)).lt(int(-5))));
    keeps_and(|| (x().get() - int(1)).ge(int(0)).and((x().get() - int(1)).lt(y().get())));
    keeps_and(|| (x().get() - int(1)).ge(int(0)).and((x().get() + int(1)).lt(int(24))));
}

#[test]
fn range_test_does_not_span_a_write_to_its_leaf() {
    // lo = x-1 >= 0; x += 1; lo & (x-1 < 24): the two compares are
    // over different values of `x`.
    both_flat_tiers(
        |f| {
            let lo = dsl::Var::new(f, ValType::I32);
            vec![
                lo.set((x().get() - int(1)).ge(int(0))),
                x().set(x().get() + int(1)),
                y().set(lo.get().and((x().get() - int(1)).lt(int(24)))),
            ]
        },
        |rf| assert_eq!(count(rf, Rc::And32), 1, "{:?}", rf.code),
    );
}

#[test]
fn one_and_boolean_is_the_boolean() {
    both_flat_tiers(
        |_| vec![y().set(int(1).and(x().get().lt(int(5))))],
        |rf| {
            assert_eq!(count(rf, Rc::And32), 0, "{:?}", rf.code);
            assert_eq!(count(rf, Rc::Cmp32K), 1, "{:?}", rf.code);
        },
    );
    // `1 & x` with `x` not known to be 0 or 1 masks a bit: stays.
    both_flat_tiers(
        |_| vec![y().set(int(1).and(x().get()))],
        |rf| assert_eq!(count(rf, Rc::And32), 1, "{:?}", rf.code),
    );
}

#[test]
fn compare_of_local_plus_k_reads_the_local() {
    both_flat_tiers(
        |_| vec![y().set((x().get() + int(5)).lt(int(10)))],
        |rf| {
            assert_eq!(count(rf, Rc::CmpAddK32), 1, "{:?}", rf.code);
            assert_eq!(count(rf, Rc::AddK32), 0, "{:?}", rf.code);
        },
    );
}

#[test]
fn affine_address_folds_into_the_wrapping_displacement() {
    // ((x + 7) << 3) + 4096 as an f64 address, loaded and stored:
    // scaled forms on `x` with (7 << 3) + 4096 in the high (wrapping)
    // half of `imm` and the Wasm offset alone in the low half.
    both_flat_tiers(
        |_| {
            let addr = || ((x().get() + int(7)).shl(int(3))) + int(4096);
            vec![dsl::store(addr(), 16, addr().load(ValType::F64, 8))]
        },
        |rf| {
            let ld = rf.code.iter().find(|op| op.code == Rc::Load64ShlK).expect("scaled load");
            let st = rf.code.iter().find(|op| op.code == Rc::Store64ShlK).expect("scaled store");
            assert_eq!((ld.a, ld.aux, ld.imm), (0, 3, 8 | (4152u64 << 32)));
            assert_eq!((st.a, st.aux, st.imm), (0, 3, 16 | (4152u64 << 32)));
            for gone in [Rc::AddK32, Rc::ShlK32, Rc::Load64, Rc::Store64] {
                assert_eq!(count(rf, gone), 0, "{gone:?} left in {:?}", rf.code);
            }
        },
    );
}

#[test]
fn address_fold_keeps_a_producer_that_is_still_read() {
    // t = x + 7 is both the index of a load and stored itself: the
    // load folds onto `x`, the add stays for its other reader.
    both_flat_tiers(
        |f| {
            let t = dsl::Var::new(f, ValType::I32);
            vec![
                t.set(x().get() + int(7)),
                dsl::store(int(0), 0, t.get().shl(int(2)).load(ValType::I32, 0)),
                dsl::store(int(8), 0, t.get()),
            ]
        },
        |rf| {
            let ld = rf.code.iter().find(|op| op.code == Rc::Load32ShlK).expect("scaled load");
            assert_eq!((ld.a, ld.aux, ld.imm), (0, 2, 28u64 << 32));
            assert_eq!(count(rf, Rc::AddK32), 1, "{:?}", rf.code);
        },
    );
}

#[test]
fn address_fold_does_not_read_a_leaf_written_in_between() {
    // The address is formed from the old `x`, then `x` changes, then
    // the load happens: no local holds the old `x` any more.
    use crate::instr::Instr as I;
    let rf = reg_of(
        |f| {
            f.emit_all([
                I::LocalGet(0),
                I::I32Const(7),
                I::I32Add,
                I::I32Const(3),
                I::I32Shl,
                I::LocalGet(0),
                I::I32Const(1),
                I::I32Add,
                I::LocalSet(0),
                I::F64Load(MemArg::offset(0)),
                I::Drop,
            ]);
        },
        Tier::Optimizing,
    );
    assert!(
        !rf.code.iter().any(|op| op.code == Rc::Load64ShlK && op.a == 0),
        "{:?}",
        rf.code
    );
}

#[test]
fn recomputation_of_a_local_reads_the_local() {
    // y = x * 3; z = x * 3: the second is a copy of `y`.
    both_flat_tiers(
        |f| {
            let z = dsl::Var::new(f, ValType::I32);
            vec![y().set(x().get() * int(3)), z.set(x().get() * int(3))]
        },
        |rf| {
            assert_eq!(count(rf, Rc::MulK32), 1, "{:?}", rf.code);
            assert_eq!(rf.scratch_slots, 0);
        },
    );
}

/// `if (x * y < 7) { mem[0] = x }` — the block all the cross-block
/// tests repeat.
fn guarded_store(at: i32) -> dsl::Stmt {
    dsl::if_then((x().get() * y().get()).lt(int(7)), &[dsl::store(int(at), 0, x().get())])
}

#[test]
fn value_recomputed_across_a_join_gets_a_scratch_local() {
    // The product and the compare are computed once; the second
    // block tests the scratch local (declared locals: just x, y).
    both_flat_tiers(
        |_| vec![guarded_store(0), guarded_store(8)],
        |rf| {
            assert_eq!(count(rf, Rc::Mul32), 1, "{:?}", rf.code);
            assert_eq!(count(rf, Rc::Cmp32K), 1, "{:?}", rf.code);
            assert_eq!((rf.scratch_slots, rf.n_local_slots), (1, 3), "{:?}", rf.code);
            // The scratch local sits between the locals and the temps.
            assert!(rf.code.iter().any(|op| op.code == Rc::BrIfZ && op.a == 2), "{:?}", rf.code);
        },
    );
}

#[test]
fn scratch_reuse_stops_at_a_write_to_a_leaf() {
    both_flat_tiers(
        |_| vec![guarded_store(0), x().set(x().get() + int(1)), guarded_store(8)],
        |rf| {
            assert_eq!(count(rf, Rc::Mul32), 2, "{:?}", rf.code);
            assert_eq!(rf.scratch_slots, 0);
        },
    );
}

#[test]
fn scratch_reuse_needs_the_value_on_every_path_into_the_join() {
    // Computed in one arm only, then again after the join.
    both_flat_tiers(
        |f| {
            let z = dsl::Var::new(f, ValType::I32);
            vec![
                dsl::if_then(x().get(), &[z.set((x().get() * y().get()).lt(int(7)))]),
                guarded_store(8),
            ]
        },
        |rf| {
            assert_eq!(count(rf, Rc::Mul32), 2, "{:?}", rf.code);
            assert_eq!(rf.scratch_slots, 0);
        },
    );
}

#[test]
fn scratch_reuse_stops_at_a_loop_header() {
    // Before the loop and inside it: the header resets the state (the
    // body may change the leaves on the back edge), so the loop computes
    // its own product. Above `Optimizing` that product is invariant and
    // leaves the loop for the preheader, in a scratch local of its own, as
    // does the store's constant address.
    for tier in [Tier::Optimizing, Tier::Max] {
        let rf = reg_of(
            |f| {
                let i = dsl::Var::new(f, ValType::I32);
                let body = [guarded_store(0), dsl::for_range(i, int(0), int(4), &[guarded_store(8)])];
                dsl::emit_block(f, &body)
            },
            tier,
        );
        assert_eq!(count(&rf, Rc::Mul32), 2, "{tier}: {:?}", rf.code);
        let hoisted = if tier == Tier::Max { 2 } else { 0 };
        assert_eq!(rf.scratch_slots, hoisted, "{tier}: {:?}", rf.code);
    }
}

#[test]
fn no_invariant_op_is_left_in_the_spmv_cell() {
    // The benchmark's HPCG SpMV (function 1): its innermost loop (the one
    // backward branch to the last header) holds no pure op that reads only
    // registers the loop leaves alone and writes one no other op of the
    // loop writes. Before the pass 19 of the cell's 61 steps were such ops.
    use hpc_benchmarks::hpcg;
    let wasm = hpcg::build_guest(hpcg::HpcgParams { nx: 24, ny: 24, nz: 24, iters: 10 });
    let module = crate::decode_module(&wasm).unwrap();
    let compiled = crate::runtime::CompiledModule::compile(module, Tier::Max).unwrap();
    let CompiledBody::Flat(rf) = compiled.bodies().unwrap()[1] else { panic!("flat tier expected") };
    let back = |(i, op): (usize, &RegOp)| targets(rf, op).any(|t| t as usize <= i).then_some(i);
    let end = rf.code.iter().enumerate().filter_map(back).next().expect("a loop");
    let head = targets(rf, &rf.code[end]).next().unwrap() as usize;
    let body = &rf.code[head..=end];
    let writers = |r: u32| body.iter().filter(|op| writes(op).is_some_and(|(s, w)| s <= r && r < s + w)).count();
    for op in body.iter().filter(|op| op.code.row().pure && op.code.row().flow == Flow::Next) {
        let invariant = fields(op).iter().all(|&(r, u)| u & shape::R == 0 || writers(r) == 0);
        assert!(!invariant || writers(writes(op).unwrap().0) > 1, "{op:?} left in {body:?}");
    }
}

#[test]
fn scratch_locals_renumber_calls_and_branch_unwinds() {
    // A scratch local in a function that also calls (argument base)
    // and carries a value out of a block (unwind copy): `verify` runs
    // inside `lower`, and the temporaries sit above the scratch slot.
    use crate::instr::Instr as I;
    use crate::types::BlockType;
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    let callee = b.func("id", vec![ValType::I32], vec![ValType::I32], |f| {
        f.emit_all([I::LocalGet(0)]);
    });
    b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::I32], move |f| {
        dsl::emit_block(f, &[guarded_store(0), guarded_store(8)]);
        f.emit_all([
            I::I32Const(5),
            I::Block(BlockType::Value(ValType::I32)),
            I::LocalGet(0),
            I::Call(callee),
            I::LocalGet(1),
            I::BrIf(0),
            I::Drop,
            I::I32Const(9),
            I::End,
            I::I32Add,
        ]);
    });
    let module = b.finish();
    let compiled = crate::runtime::CompiledModule::compile(module, Tier::Max).unwrap();
    let CompiledBody::Flat(f) = compiled.bodies().unwrap()[1] else { panic!("flat tier expected") };
    let rf = f;
    assert_eq!((rf.scratch_slots, rf.n_local_slots), (1, 3));
    let call = rf.code.iter().find(|op| op.code == Rc::CallGuest).unwrap();
    assert!(call.b >= rf.n_local_slots, "argument window below the temporaries: {call:?}");
    let mut inst = crate::runtime::Linker::new().instantiate(&compiled, Box::new(())).unwrap();
    use crate::runtime::Value;
    // x*y = 6 < 7: both stores happen; y != 0 carries id(x) out: 5 + 2.
    assert_eq!(inst.invoke("f", &[Value::I32(2), Value::I32(3)]).unwrap(), vec![Value::I32(7)]);
    assert_eq!(inst.invoke("f", &[Value::I32(2), Value::I32(0)]).unwrap(), vec![Value::I32(14)]);
}

#[test]
fn unwind_roundtrip() {
    let u = pack_unwind(100, 7, 3).unwrap();
    assert_eq!(unwind_parts(u), (100, 7, 3));
    // In-place carries encode as "no copy".
    assert_eq!(pack_unwind(5, 5, 2).unwrap(), 0);
    assert_eq!(pack_unwind(9, 4, 0).unwrap(), 0);
    assert!(pack_unwind(1 << 24, 0, 1).is_err());
}

#[test]
fn feval_codes() {
    assert!(feval(FEQ, 1.0, 1.0));
    assert!(feval(FNE, 1.0, 2.0));
    assert!(feval(FLT, 1.0, 2.0));
    assert!(feval(FGT, 2.0, 1.0));
    assert!(feval(FLE, 1.0, 1.0));
    assert!(feval(FGE, 1.0, 1.0));
    assert!(!feval(FEQ, f64::NAN, f64::NAN));
}

// --- the liveness table against the scan it replaced ---

/// The scan the table replaced, with no step budget: whether temporary
/// `t` is possibly read once control enters op `j`. It follows forward
/// branches into their targets and takes the heights oracle at backward
/// and `br_table` ones; `seen` (ops already walked for this question, all
/// found dead: every walk only moves forward) keeps it linear.
fn scan(f: &RegFunc, hs: &[u32], mut j: usize, t: u32, seen: &mut [bool]) -> bool {
    use forward::{reads_reg, writes_reg};
    let live_at = |j: u32| hs.get(j as usize).is_none_or(|&h| h == u32::MAX || t < f.n_local_slots + h);
    loop {
        let Some(op) = f.code.get(j) else { return true };
        if std::mem::replace(&mut seen[j], true) {
            return false;
        }
        if reads_reg(op, f, t) {
            return true;
        }
        if !live_at(j as u32) || writes_reg(op, t) {
            return false;
        }
        let forward = op.c as usize > j;
        match op.code.row().flow {
            Flow::Jump | Flow::Br if forward => j = op.c as usize,
            Flow::Jump | Flow::Br => return live_at(op.c),
            Flow::Branch if forward && scan(f, hs, op.c as usize, t, seen) => return true,
            Flow::Branch if !forward && live_at(op.c) => return true,
            Flow::Table => return targets(f, op).any(live_at),
            Flow::Return | Flow::Trap => return false,
            _ => j += 1,
        }
    }
}

/// Every (op, temporary) of the table after the eliminating sweep
/// (`exact`) is what the scan says, and after the peephole walk still
/// covers it: checked in every compile a unit test makes.
pub(super) fn against_the_scan(f: &RegFunc, hs: &[u32], live: &[u64], exact: bool) {
    let mut seen = vec![false; f.code.len()];
    for (j, &word) in live.iter().enumerate().take(f.code.len() + 1) {
        for t in f.n_local_slots..f.frame_size.min(f.n_local_slots + 64) {
            seen.fill(false);
            let (table, scan) = (word >> (t - f.n_local_slots) & 1 != 0, scan(f, hs, j, t, &mut seen));
            assert!(table == scan || (!exact && table), "op {j}, register {t}: table {table}, scan {scan} in {f:?}");
        }
    }
}

/// The benchmark guests the whole-pipeline checks compile: HPCG, IS, DT,
/// DT-SIMD and the four IMB routines.
fn guest_modules() -> Vec<crate::module::Module> {
    use hpc_benchmarks::imb::{self, ImbRoutine};
    use hpc_benchmarks::{hpcg, npb_dt, npb_is};
    let dt = |simd| npb_dt::build_guest(npb_dt::DtParams { simd, ..Default::default() });
    let imb = |routine| imb::build_guest(routine, &[(8, 4), (1 << 20, 2)]);
    let guests = [
        hpcg::build_guest(hpcg::HpcgParams { nx: 8, ny: 8, nz: 8, iters: 3 }),
        npb_is::build_guest(npb_is::IsParams::default()),
        dt(false),
        dt(true),
        imb(ImbRoutine::PingPong),
        imb(ImbRoutine::Allreduce),
        imb(ImbRoutine::Alltoall),
        imb(ImbRoutine::Bcast),
    ];
    guests.iter().map(|wasm| crate::decode_module(wasm).unwrap()).collect()
}

#[test]
fn one_pass_reaches_the_fixpoint() {
    // `at_the_fixpoint` runs inside every compile a unit test makes.
    for module in guest_modules() {
        for tier in [Tier::Optimizing, Tier::Max] {
            crate::runtime::CompiledModule::compile(module.clone(), tier).unwrap();
        }
    }
}

#[test]
fn liveness_table_agrees_with_the_scan_it_replaced() {
    use crate::instr::Instr as I;
    use crate::types::BlockType;
    let mut modules = guest_modules();
    // No guest carries a value out of a block past another one: a
    // `br_if` and a `br_table` that do, each with an unwind copy.
    let mut b = ModuleBuilder::new();
    let i32 = BlockType::Value(ValType::I32);
    b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::I32], |f| {
        f.emit_all([I::Block(i32), I::Block(i32), I::I32Const(1), I::I32Const(7)]);
        f.emit_all([I::LocalGet(0), I::BrIf(1), I::LocalGet(1)]).br_table(vec![0], 1);
        f.emit_all([I::End, I::I32Const(2), I::I32Add, I::End]);
    });
    modules.push(b.finish());
    for module in modules {
        for tier in [Tier::Optimizing, Tier::Max] {
            crate::runtime::CompiledModule::compile(module.clone(), tier).unwrap();
        }
    }
}
