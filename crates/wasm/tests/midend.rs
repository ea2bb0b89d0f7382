//! Boundary differentials for the flat tiers' value-tracking mid-end
//! (`regalloc::forward`) and its loop-invariant code motion
//! (`regalloc::hoist`): every rewrite they make is driven over the inputs
//! where a wrong rewrite would show — sign boundaries for the merged range
//! test, addresses that wrap 2^32 or end one byte past memory for the
//! folded loads and stores, loops of zero trips around a hoisted value or
//! a trapping op — on every tier.
//! `Baseline` shares no code with the register pipeline and a plain-Rust
//! model is checked beside it.

use wasm_engine::dsl::{self, int, Var};
use wasm_engine::error::Trap;
use wasm_engine::module::Module;
use wasm_engine::regalloc::{compile_at_the_fixpoint, Rc, RegFunc, RegOp};
use wasm_engine::runtime::{CompiledModule, Linker, Value};
use wasm_engine::types::ValType;
use wasm_engine::{ModuleBuilder, Tier};

/// Invoke `name(args)` on every tier; the results in `Tier::ALL` order.
fn on_all_tiers(module: &Module, name: &str, args: &[Value]) -> Vec<Result<Vec<Value>, Trap>> {
    Tier::ALL
        .iter()
        .map(|&tier| {
            let compiled = compile_at_the_fixpoint(module.clone(), tier).unwrap();
            let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
            inst.invoke(name, args)
        })
        .collect()
}

fn assert_tiers_agree(
    module: &Module,
    name: &str,
    args: &[Value],
    expected: Result<Vec<Value>, Trap>,
) {
    for (tier, got) in Tier::ALL.iter().zip(on_all_tiers(module, name, args)) {
        match (&got, &expected) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{name}{args:?} on {tier}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "{name}{args:?} on {tier}"),
            _ => panic!("{name}{args:?} on {tier}: got {got:?}, expected {expected:?}"),
        }
    }
}

fn x() -> Var {
    dsl::local(0, ValType::I32)
}

fn y() -> Var {
    dsl::local(1, ValType::I32)
}

/// `(v >= 0) & (v < k)`, written the way the guests write it.
fn in_range(v: dsl::Expr, k: i32) -> dsl::Expr {
    int(1).and(v.clone().ge(int(0)).and(v.lt(int(k))))
}

#[test]
fn range_test_boundaries_agree_on_every_tier() {
    for k in [0, 1, 24, i32::MAX] {
        for d in [0, -1, 1, 24, i32::MIN, i32::MAX] {
            let mut b = ModuleBuilder::new();
            b.memory(1, None);
            // One test, straight-line.
            b.func(
                "one",
                vec![ValType::I32, ValType::I32],
                vec![ValType::I32],
                move |f| {
                    dsl::emit_block(f, &[dsl::ret(Some(in_range(x().get() + int(d), k)))]);
                },
            );
            // The same test recomputed in later blocks (scratch locals)
            // and combined with a second one, as the stencil guests do.
            b.func(
                "many",
                vec![ValType::I32, ValType::I32],
                vec![ValType::I32],
                move |f| {
                    let r = Var::new(f, ValType::I32);
                    let tx = || in_range(x().get() + int(d), k);
                    let ty = || in_range(y().get() - int(1), 24);
                    dsl::emit_block(
                        f,
                        &[
                            dsl::if_then(tx(), &[r.set(r.get() + int(1))]),
                            dsl::if_then(tx().and(ty()), &[r.set(r.get() + int(2))]),
                            dsl::if_then(ty(), &[r.set(r.get() + int(4))]),
                            dsl::if_then(tx().and(ty()), &[r.set(r.get() + int(8))]),
                            dsl::ret(Some(r.get())),
                        ],
                    );
                },
            );
            let module = b.finish();

            let mut inputs = vec![i32::MIN, -1, 0, 1, k.wrapping_sub(1), k, i32::MAX];
            // The same boundaries seen through the `+ d`.
            for v in inputs.clone() {
                inputs.push(v.wrapping_sub(d));
            }
            for xv in inputs {
                let v = xv.wrapping_add(d);
                let tx = (v >= 0 && v < k) as i32;
                assert_tiers_agree(
                    &module,
                    "one",
                    &[Value::I32(xv), Value::I32(0)],
                    Ok(vec![Value::I32(tx)]),
                );
                for yv in [0, 1, 24, 25] {
                    let ty = (yv - 1 >= 0 && yv - 1 < 24) as i32;
                    let expected = tx + 2 * (tx & ty) + 4 * ty + 8 * (tx & ty);
                    assert_tiers_agree(
                        &module,
                        "many",
                        &[Value::I32(xv), Value::I32(yv)],
                        Ok(vec![Value::I32(expected)]),
                    );
                }
            }
        }
    }
}

/// One 64-KiB page, so the last valid f64 starts at byte 65528.
const MEM_BYTES: u64 = 65536;

/// The address `((x + k) << 3) + base` as Wasm computes it (everything
/// wraps at 2^32) plus the static `offset`, which does not wrap: the byte
/// position of an in-bounds 8-byte access, or the trap (which reports the
/// unwrapped position, so a fold that moved a constant between the two
/// halves shows even when both versions trap).
fn model(xv: i32, k: i32, base: i32, offset: u32) -> Result<usize, Trap> {
    let addr = (xv.wrapping_add(k) << 3).wrapping_add(base) as u32;
    let start = addr as u64 + offset as u64;
    if start + 8 <= MEM_BYTES {
        Ok(start as usize)
    } else {
        Err(Trap::MemoryOutOfBounds {
            addr: start,
            len: 8,
            memory_size: MEM_BYTES,
        })
    }
}

#[test]
fn folded_addresses_wrap_and_trap_like_the_unfolded_ones() {
    // (k, base, offset): plain; a `k` whose shift alone wraps 2^32; a
    // `base` that wraps the sum; and a large static offset, which must
    // keep trapping instead of wrapping along with the rest.
    let shapes = [
        (7, 4096, 0u32),
        (0x2000_0000, 64, 8),
        (1, -8, 0),
        (-1, i32::MIN, 16),
        (3, 0x7fff_fff8, 8),
        (0, 0, 0xffff_fff8),
    ];
    for (k, base, offset) in shapes {
        let mut b = ModuleBuilder::new();
        b.memory(1, Some(1));
        let addr = move || (x().get() + int(k)).shl(int(3)) + int(base);
        b.func("load", vec![ValType::I32], vec![ValType::F64], move |f| {
            dsl::emit_block(f, &[dsl::ret(Some(addr().load(ValType::F64, offset)))]);
        });
        b.func("store", vec![ValType::I32], vec![ValType::F64], move |f| {
            // Store, then read the same bytes back through an address the
            // mid-end has nothing to fold into.
            let at = Var::new(f, ValType::I32);
            dsl::emit_block(
                f,
                &[
                    at.set(addr()),
                    dsl::store(addr(), offset, dsl::double(6.5)),
                    dsl::ret(Some(at.get().load(ValType::F64, offset))),
                ],
            );
        });
        // A recognizable f64 at every 8 bytes: its own byte position.
        let bytes: Vec<u8> = (0..MEM_BYTES / 8)
            .flat_map(|i| ((i * 8) as f64).to_le_bytes())
            .collect();
        b.data(0, bytes);
        let module = b.finish();

        // Indices whose address lands on the start of memory, on the
        // last slot the offset still leaves in bounds and on the one
        // after it, plus the 32-bit extremes.
        let last = (MEM_BYTES.saturating_sub(offset as u64) / 8) as i32 - 1;
        let mut inputs = vec![i32::MIN, -1, 0, 1, i32::MAX, 0x1fff_ffff, 0x2000_0000];
        for slot in [0, 1, last - 1, last, last + 1] {
            let index = ((slot * 8).wrapping_sub(base) as u32 >> 3) as i32;
            inputs.push(index.wrapping_sub(k));
        }
        let mut in_bounds = 0;
        for xv in inputs {
            let at = model(xv, k, base, offset);
            in_bounds += at.is_ok() as u32;
            // Every shape here is 8-aligned: the f64 at `p` holds `p`.
            let loaded = at.clone().map(|p| vec![Value::F64(p as f64)]);
            assert_tiers_agree(&module, "load", &[Value::I32(xv)], loaded);
            let stored = at.map(|_| vec![Value::F64(6.5)]);
            assert_tiers_agree(&module, "store", &[Value::I32(xv)], stored);
        }
        if offset < 0x1_0000 {
            assert!(
                in_bounds >= 3,
                "shape ({k}, {base}, {offset}) never lands in memory"
            );
        }
    }
}

#[test]
fn global_set_is_not_mistaken_for_a_register_read() {
    // `global.set`'s global index used to be forwarded as if it were a
    // source register: with two params the first stack temporary is
    // register 2, so `global.set 2` of a copied local wrote global 0.
    use wasm_engine::instr::Instr as I;
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    for _ in 0..3 {
        b.global(ValType::I32, true, I::I32Const(0));
    }
    b.func(
        "f",
        vec![ValType::I32, ValType::I32],
        vec![ValType::I32],
        |f| {
            f.emit_all([
                I::LocalGet(0),
                I::GlobalSet(2),
                I::GlobalGet(0),
                I::I32Const(100),
                I::I32Mul,
                I::GlobalGet(2),
                I::I32Add,
            ]);
        },
    );
    let module = b.finish();
    assert_tiers_agree(
        &module,
        "f",
        &[Value::I32(7), Value::I32(9)],
        Ok(vec![Value::I32(7)]),
    );
}

#[test]
fn a_value_recomputed_after_its_first_reader_died_keeps_its_producer() {
    // `x*y` is computed, read once by a compare whose own result is also
    // recomputed later (so both get scratch locals), and its local is then
    // overwritten: the later recomputations must still see the product.
    // (The scratch-local pass once retargeted the product's producer and
    // then revived the compare from a stale copy that read the old temp.)
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    b.func(
        "f",
        vec![ValType::I32, ValType::I32],
        vec![ValType::I32],
        |f| {
            let z = Var::new(f, ValType::I32);
            let r = Var::new(f, ValType::I32);
            let out = Var::new(f, ValType::I32);
            let xy = || x().get() * y().get();
            dsl::emit_block(
                f,
                &[
                    z.set(xy()),
                    r.set(z.get().lt_u(int(24))),
                    z.set(int(0)),
                    dsl::if_then(
                        xy().ge(int(0)).and(xy().lt(int(24))),
                        &[out.set(out.get() + int(1))],
                    ),
                    dsl::if_then(xy().ge(int(0)), &[out.set(out.get() + int(2))]),
                    dsl::ret(Some(out.get() + r.get() * int(16) + z.get())),
                ],
            );
        },
    );
    let module = b.finish();
    for (xv, yv) in [(-1, 1), (1, 1), (3, 8), (5, 5), (0, 7), (i32::MAX, 2), (-4, -5)] {
        let p = i32::wrapping_mul(xv, yv);
        let expected = (p >= 0 && p < 24) as i32 + 2 * (p >= 0) as i32 + 16 * ((p as u32) < 24) as i32;
        assert_tiers_agree(
            &module,
            "f",
            &[Value::I32(xv), Value::I32(yv)],
            Ok(vec![Value::I32(expected)]),
        );
    }
}

// --- random programs that recompute ---
//
// The generator of `tests/differential.rs` rarely writes the same
// expression twice, which is the one thing value numbering and the scratch
// locals live on. This one draws every expression of a program from a
// pool of four, so most are recomputed — before and after one of their
// leaves is overwritten, on one side of an `if` and after the join, inside
// a loop and after it, across a call — and `Baseline`, which shares no
// code with the register pipeline, is the oracle for the other tiers.

/// SplitMix64: programs are a pure function of their seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len())]
    }
}

const CONSTS: [i32; 9] = [0, 1, -1, 2, 3, 8, 24, i32::MAX, i32::MIN];

/// A random i32 expression over `vars` and the expressions already in
/// the pool (so one pool entry is often an operand of another): the
/// shapes the mid-end rewrites (affine chains, compares against constants,
/// range tests, `1 & bool`, scaled loads) mixed with ones it only numbers.
fn random_expr(
    rng: &mut Rng,
    vars: &[Var],
    pool: &[dsl::Expr],
    helper: u32,
    depth: u32,
) -> dsl::Expr {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(4) {
            0 => int(rng.pick(&CONSTS)),
            1 if !pool.is_empty() => pool[rng.below(pool.len())].clone(),
            _ => rng.pick(vars).get(),
        };
    }
    let sub = |rng: &mut Rng| random_expr(rng, vars, pool, helper, depth - 1);
    let k = int(rng.pick(&CONSTS));
    match rng.below(16) {
        0 => sub(rng) + sub(rng),
        1 => sub(rng) - sub(rng),
        2 => sub(rng) * sub(rng),
        3 => sub(rng) + k,
        4 => sub(rng) * k,
        5 => sub(rng).shl(int(rng.pick(&[1, 2, 3]))),
        6 => sub(rng).and(sub(rng)),
        7 => sub(rng).or(sub(rng)),
        8 => sub(rng).xor(sub(rng)),
        9 => sub(rng).lt(k),
        10 => sub(rng).ge(k),
        11 => sub(rng).lt_u(k),
        12 => sub(rng).eqz(),
        13 => {
            let v = sub(rng);
            in_range(v, rng.pick(&[1, 24, i32::MAX]))
        }
        // In bounds whatever the index: 64 slots of 8 bytes from 1024.
        14 => (sub(rng).and(int(63)).shl(int(3)) + int(1024)).load(ValType::I32, 4),
        _ => dsl::call(helper, vec![sub(rng)], ValType::I32),
    }
}

fn random_stmts(
    rng: &mut Rng,
    pool: &[dsl::Expr],
    vars: &[Var],
    counters: &[Var],
    depth: usize,
) -> Vec<dsl::Stmt> {
    let out = vars[vars.len() - 1];
    (0..1 + rng.below(4))
        .map(|_| {
            let e = rng.pick(&[0, 1, 2, 3]);
            let e = pool[e].clone();
            let nested = depth + 1 < counters.len();
            match rng.below(if nested { 8 } else { 5 }) {
                0 | 1 => rng.pick(vars).set(e),
                2 => out.set(out.get() * int(31) + e),
                3 => rng.pick(vars).set(int(rng.pick(&CONSTS))),
                4 => dsl::store(e.and(int(63)).shl(int(3)) + int(1024), 4, rng.pick(vars).get()),
                5 => dsl::if_then(e, &random_stmts(rng, pool, vars, counters, depth + 1)),
                6 => dsl::if_else(
                    e,
                    &random_stmts(rng, pool, vars, counters, depth + 1),
                    &random_stmts(rng, pool, vars, counters, depth + 1),
                ),
                _ => dsl::for_range(
                    counters[depth],
                    int(0),
                    int(1 + rng.below(3) as i32),
                    &random_stmts(rng, pool, vars, counters, depth + 1),
                ),
            }
        })
        .collect()
}

#[test]
fn random_recomputing_programs_agree_with_baseline() {
    for seed in 0..400u64 {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let helper = b.func("helper", vec![ValType::I32], vec![ValType::I32], |f| {
            dsl::emit_block(f, &[dsl::ret(Some(x().get() * int(3) + int(1)))]);
        });
        b.func(
            "run",
            vec![ValType::I32, ValType::I32],
            vec![ValType::I32],
            move |f| {
                let mut rng = Rng(seed);
                let vars = [x(), y(), Var::new(f, ValType::I32), Var::new(f, ValType::I32)];
                let counters = [Var::new(f, ValType::I32), Var::new(f, ValType::I32)];
                let mut pool: Vec<dsl::Expr> = Vec::new();
                for _ in 0..4 {
                    let e = random_expr(&mut rng, &vars, &pool, helper, 2);
                    pool.push(e);
                }
                let mut stmts = Vec::new();
                for _ in 0..3 {
                    stmts.extend(random_stmts(&mut rng, &pool, &vars, &counters, 0));
                }
                let [x, y, z, out] = vars;
                stmts.push(dsl::ret(Some(out.get().xor(x.get()).xor(y.get() * int(7)) + z.get())));
                dsl::emit_block(f, &stmts);
            },
        );
        let module = b.finish();
        wasm_engine::validate_module(&module).unwrap();
        for (xv, yv) in [(0, 0), (-1, 1), (3, 8), (23, 24), (i32::MAX, 2), (i32::MIN, -1)] {
            let args = [Value::I32(xv), Value::I32(yv)];
            let results = on_all_tiers(&module, "run", &args);
            for (tier, got) in Tier::ALL.iter().zip(&results) {
                assert_eq!(got, &results[0], "seed {seed}, run({xv}, {yv}) on {tier}");
            }
        }
    }
}

#[test]
fn a_scratch_local_whose_last_reader_dies_goes_with_its_writes() {
    // drop(x * y + 1); drop(x * y + 2): the product is kept in a scratch
    // local for its second computation, whose one reader is a sum nothing
    // reads. The sweep removes both sums and the read-back; the product,
    // sunk into the scratch local by then, goes after them.
    use wasm_engine::instr::Instr as I;
    let sum = |k| [I::LocalGet(0), I::LocalGet(1), I::I32Mul, I::I32Const(k), I::I32Add, I::Drop];
    let mut b = ModuleBuilder::new();
    b.func("f", vec![ValType::I32, ValType::I32], vec![], move |f| {
        f.emit_all(sum(1)).emit_all(sum(2));
    });
    let module = b.finish();
    for tier in [Tier::Optimizing, Tier::Max] {
        let compiled = compile_at_the_fixpoint(module.clone(), tier).unwrap();
        let CompiledBody::Flat(f) = compiled.bodies().unwrap()[0] else { panic!("flat tier expected") };
        assert!(f.code.iter().all(|op| op.code != Rc::Mul32), "{tier}: {:?}", f.code);
    }
    assert_tiers_agree(&module, "f", &[Value::I32(3), Value::I32(4)], Ok(vec![]));
}

// --- loop-invariant code motion ---
//
// Above `Optimizing` an op whose operands the loop does not change moves
// to the loop's preheader. Each case below is a boundary of that rule: a
// loop that runs no iteration, a trap that must stay where it was, an
// operand that changes on one path only, state a call changes, a loop
// inside a loop, a value that leaves the loop through a branch, a reader
// that writes its result over the hoisted value's register.

use wasm_engine::tier::CompiledBody;

/// For each loop of function `func`'s `Max` stream (a backward-branch
/// target up to its last back-edge), outermost first: how many of its ops
/// are `code`.
fn in_loops(module: &Module, func: usize, code: Rc) -> Vec<usize> {
    let compiled = compile_at_the_fixpoint(module.clone(), Tier::Max).unwrap();
    let CompiledBody::Flat(f) = compiled.bodies().unwrap()[func] else { panic!("flat tier expected") };
    let branch = [Rc::Jump, Rc::Br, Rc::BrIf, Rc::BrIfZ, Rc::BrIfCmp32, Rc::BrIfCmp32K];
    let mut loops: Vec<(usize, usize)> = Vec::new();
    for (i, op) in f.code.iter().enumerate() {
        let head = op.c as usize;
        if branch.contains(&op.code) && head <= i {
            match loops.iter_mut().find(|l| l.0 == head) {
                Some(l) => l.1 = l.1.max(i),
                None => loops.push((head, i)),
            }
        }
    }
    loops.sort_unstable();
    loops.iter().map(|&(h, e)| f.code[h..=e].iter().filter(|op| op.code == code).count()).collect()
}

#[test]
fn a_zero_trip_loop_leaves_the_local_it_assigns_an_invariant() {
    // l = 5; for i in 0..n { l = x * 3 + 1 }; return l
    let mut b = ModuleBuilder::new();
    b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::I32], |f| {
        let (l, i) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let body = [l.set(x().get() * int(3) + int(1))];
        dsl::emit_block(
            f,
            &[l.set(int(5)), dsl::for_range(i, int(0), y().get(), &body), dsl::ret(Some(l.get()))],
        );
    });
    let module = b.finish();
    assert_eq!(in_loops(&module, 0, Rc::Mul32), [0], "the product leaves the loop");
    for (xv, n) in [(7, 0), (7, -3), (7, 1), (7, 4), (i32::MAX, 2), (-1, i32::MIN)] {
        let l = if n > 0 { xv.wrapping_mul(3).wrapping_add(1) } else { 5 };
        assert_tiers_agree(&module, "f", &[Value::I32(xv), Value::I32(n)], Ok(vec![Value::I32(l)]));
    }
}

#[test]
fn an_invariant_division_by_zero_traps_only_once_the_loop_runs() {
    // for i in 0..n { acc += (x + 7) /u y }: the sum leaves the loop, the
    // division — which traps on a zero `y` — does not.
    let mut b = ModuleBuilder::new();
    b.func("f", vec![ValType::I32, ValType::I32, ValType::I32], vec![ValType::I32], |f| {
        let (acc, i) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let n = dsl::local(2, ValType::I32);
        let body = [acc.set(acc.get() + (x().get() + int(7)).div_u(y().get()))];
        dsl::emit_block(
            f,
            &[dsl::for_range(i, int(0), n.get(), &body), dsl::ret(Some(acc.get()))],
        );
    });
    let module = b.finish();
    assert_eq!(in_loops(&module, 0, Rc::AddK32), [1], "x + 7 leaves, i += 1 stays");
    assert_eq!(in_loops(&module, 0, Rc::DivU32), [1]);
    for (xv, yv, n) in [(9i32, 0, 0), (9, 0, -1), (9, 0, 1), (9, 0, 3), (9, 4, 0), (9, 4, 3), (-8, 3, 2)] {
        let q = (xv.wrapping_add(7) as u32).checked_div(yv as u32);
        let expected = match (n > 0, q) {
            (false, _) => Ok(vec![Value::I32(0)]),
            (true, Some(q)) => Ok(vec![Value::I32((q as i32).wrapping_mul(n))]),
            (true, None) => Err(Trap::IntegerDivideByZero),
        };
        let args = [Value::I32(xv), Value::I32(yv), Value::I32(n)];
        assert_tiers_agree(&module, "f", &args, expected);
    }
}

#[test]
fn an_operand_reassigned_on_one_path_is_not_invariant() {
    // a = x; for i in 0..n { if i == 2 { a += 1 }; acc += a * 3 }
    let mut b = ModuleBuilder::new();
    b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::I32], |f| {
        let (a, acc, i) =
            (Var::new(f, ValType::I32), Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let body = [
            dsl::if_then(i.get().eq(int(2)), &[a.set(a.get() + int(1))]),
            acc.set(acc.get() + a.get() * int(3)),
        ];
        dsl::emit_block(
            f,
            &[a.set(x().get()), dsl::for_range(i, int(0), y().get(), &body), dsl::ret(Some(acc.get()))],
        );
    });
    let module = b.finish();
    assert_eq!(in_loops(&module, 0, Rc::MulK32), [1], "the product stays");
    for (xv, n) in [(5i32, 0), (5, 2), (5, 3), (5, 6), (-4, 4)] {
        let (mut a, mut acc) = (xv, 0i32);
        for i in 0..n {
            if i == 2 {
                a += 1;
            }
            acc = acc.wrapping_add(a.wrapping_mul(3));
        }
        assert_tiers_agree(&module, "f", &[Value::I32(xv), Value::I32(n)], Ok(vec![Value::I32(acc)]));
    }
}

#[test]
fn a_global_the_loop_changes_is_read_every_iteration() {
    // g starts at 0. `call`: for i in 0..n { acc += g * 2; bump() } with
    // bump() { g += 1 }; `set`: the same with `g += 1` in the loop itself.
    // Either way the loop's `global.get` stays in it.
    use wasm_engine::instr::Instr as I;
    let mut b = ModuleBuilder::new();
    let g = dsl::GlobalVar { idx: b.global(ValType::I32, true, I::I32Const(0)), ty: ValType::I32 };
    let bump = b.func_private(vec![], vec![], move |f| {
        dsl::emit_block(f, &[g.set(g.get() + int(1))]);
    });
    for (name, step) in [("call", dsl::call_stmt(bump, vec![])), ("set", g.set(g.get() + int(1)))] {
        b.func(name, vec![ValType::I32], vec![ValType::I32], move |f| {
            let (acc, i) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
            let body = [acc.set(acc.get() + g.get() * int(2)), step.clone()];
            dsl::emit_block(
                f,
                &[dsl::for_range(i, int(0), x().get(), &body), dsl::ret(Some(acc.get() + g.get()))],
            );
        });
    }
    let module = b.finish();
    assert_eq!(in_loops(&module, 1, Rc::GlobalGet), [1], "call");
    assert_eq!(in_loops(&module, 2, Rc::GlobalGet), [2], "set");
    for n in [0, 1, 4] {
        // Each function runs on a fresh instance: g = 0 at the start.
        let acc = (0..n).map(|i| 2 * i).sum::<i32>() + n;
        for name in ["call", "set"] {
            assert_tiers_agree(&module, name, &[Value::I32(n)], Ok(vec![Value::I32(acc)]));
        }
    }
}

#[test]
fn an_inner_invariant_that_reads_the_outer_counter_stays_in_the_outer_loop() {
    // for i in 0..n { for j in 0..n { acc += i * 7 + x } }
    let mut b = ModuleBuilder::new();
    b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::I32], |f| {
        let (acc, i, j) =
            (Var::new(f, ValType::I32), Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let inner = [acc.set(acc.get() + (i.get() * int(7) + x().get()))];
        let outer = [dsl::for_range(j, int(0), y().get(), &inner)];
        dsl::emit_block(f, &[dsl::for_range(i, int(0), y().get(), &outer), dsl::ret(Some(acc.get()))]);
    });
    let module = b.finish();
    assert_eq!(in_loops(&module, 0, Rc::MulK32), [1, 0], "out of the inner loop only");
    for (xv, n) in [(3, 0), (3, 1), (3, 4), (-100, 5)] {
        let acc: i32 = (0..n).map(|i| n * (i * 7 + xv)).sum();
        assert_tiers_agree(&module, "f", &[Value::I32(xv), Value::I32(n)], Ok(vec![Value::I32(acc)]));
    }
}

#[test]
fn a_hoisted_value_carried_out_of_a_block_keeps_its_value() {
    // i = 0; block (result i32) { loop { i; x * 5; br_if 1 (i >= n); xor;
    // acc = that; i += 1 } } + acc: the product is invariant and leaves
    // the loop for the `xor`, and the branch's unwind copy still carries
    // it from one height down to the block's result. (A loop that starts
    // its function has no op before it to hoist behind.)
    use wasm_engine::instr::Instr as I;
    use wasm_engine::types::BlockType;
    let mut b = ModuleBuilder::new();
    b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::I32], |f| {
        let i = Var::new(f, ValType::I32).idx;
        let acc = Var::new(f, ValType::I32).idx;
        f.emit_all([
            I::I32Const(0),
            I::LocalSet(i),
            I::Block(BlockType::Value(ValType::I32)),
            I::Loop(BlockType::Empty),
            I::LocalGet(i),
            I::LocalGet(0),
            I::I32Const(5),
            I::I32Mul,
            I::LocalGet(i),
            I::LocalGet(1),
            I::I32GeS,
            I::BrIf(1),
            I::I32Xor,
            I::LocalSet(acc),
            I::LocalGet(i),
            I::I32Const(1),
            I::I32Add,
            I::LocalSet(i),
            I::Br(0),
            I::End,
            I::Unreachable,
            I::End,
            I::LocalGet(acc),
            I::I32Add,
        ]);
    });
    let module = b.finish();
    assert_eq!(in_loops(&module, 0, Rc::Mul32), [0], "the product leaves the loop");
    for (xv, n) in [(3i32, 0i32), (3, 2), (i32::MAX, 5), (-9, -1)] {
        let p = xv.wrapping_mul(5);
        let acc = if n > 0 { (n - 1) ^ p } else { 0 };
        assert_tiers_agree(&module, "f", &[Value::I32(xv), Value::I32(n)], Ok(vec![Value::I32(p.wrapping_add(acc))]));
    }
}

#[test]
fn a_hoisted_constant_read_by_a_select_keeps_its_value() {
    // for i in 0..n { l = select(i, 1, y); acc += l }: the `1` is
    // invariant, and `Select` writes its result over its first operand, so
    // it must not write over the constant's home.
    let mut b = ModuleBuilder::new();
    b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::I32], |f| {
        let (l, acc, i) =
            (Var::new(f, ValType::I32), Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let body = [l.set(dsl::select(i.get(), int(1), y().get())), acc.set(acc.get() + l.get())];
        dsl::emit_block(
            f,
            &[dsl::for_range(i, int(0), x().get(), &body), dsl::ret(Some(acc.get() * int(8) + l.get()))],
        );
    });
    let module = b.finish();
    for (n, yv) in [(0i32, 9i32), (1, 9), (2, 9), (5, -4), (3, 1)] {
        let (mut l, mut acc) = (0i32, 0i32);
        for i in 0..n {
            l = if i != 0 { 1 } else { yv };
            acc = acc.wrapping_add(l);
        }
        let expected = Ok(vec![Value::I32(acc.wrapping_mul(8).wrapping_add(l))]);
        assert_tiers_agree(&module, "f", &[Value::I32(n), Value::I32(yv)], expected);
    }
}

#[test]
fn a_hoisted_addend_of_a_fused_multiply_add_keeps_its_value() {
    // for i in 0..n { v = 2.5 + v * w }: `Max` runs the sum as one `Fma64`
    // that accumulates into the register holding the invariant `2.5`.
    let mut b = ModuleBuilder::new();
    b.func("f", vec![ValType::I32, ValType::F64, ValType::F64], vec![ValType::F64], |f| {
        let i = Var::new(f, ValType::I32);
        let (v, w) = (dsl::local(1, ValType::F64), dsl::local(2, ValType::F64));
        let body = [v.set(dsl::double(2.5) + v.get() * w.get())];
        dsl::emit_block(f, &[dsl::for_range(i, int(0), x().get(), &body), dsl::ret(Some(v.get()))]);
    });
    let module = b.finish();
    for (n, v0, w) in [(0i32, 1.0f64, 3.0f64), (1, 1.0, 3.0), (4, 0.5, -2.0), (3, 0.0, 0.0)] {
        let mut v = v0;
        for _ in 0..n {
            v = 2.5 + v * w;
        }
        let args = [Value::I32(n), Value::F64(v0), Value::F64(w)];
        assert_tiers_agree(&module, "f", &args, Ok(vec![Value::F64(v)]));
    }
}

#[test]
fn a_stack_deeper_than_the_liveness_word_agrees_with_baseline() {
    // 70 products of x live at once, past the 64 temporaries the mid-end's
    // liveness table has a bit for (the rest count as always live); then a
    // `br_table` that carries x + 5 out of a block, over a value left
    // below it (an unwind copy), to one of two targets; then the sum.
    use wasm_engine::instr::Instr as I;
    use wasm_engine::types::BlockType;
    const DEPTH: i32 = 70;
    let mut b = ModuleBuilder::new();
    let i32 = BlockType::Value(ValType::I32);
    b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::I32], |f| {
        for k in 0..DEPTH {
            f.emit_all([I::LocalGet(0), I::I32Const(3 * k + 1), I::I32Mul]);
        }
        f.emit_all([I::Block(i32), I::Block(i32), I::I32Const(9), I::LocalGet(0), I::I32Const(5)]);
        f.emit_all([I::I32Add, I::LocalGet(1)]).br_table(vec![0], 1);
        f.emit_all([I::End, I::I32Const(100), I::I32Add, I::End]);
        f.emit_all((0..DEPTH).map(|_| I::I32Add));
    });
    let module = b.finish();
    for (xv, yv) in [(0i32, 0i32), (1, 0), (3, 1), (-7, 2), (i32::MAX, 0)] {
        let sum = (0..DEPTH).fold(0i32, |s, k| s.wrapping_add(xv.wrapping_mul(3 * k + 1)));
        let carried = xv.wrapping_add(5).wrapping_add(if yv == 0 { 100 } else { 0 });
        let expected = Ok(vec![Value::I32(sum.wrapping_add(carried))]);
        assert_tiers_agree(&module, "f", &[Value::I32(xv), Value::I32(yv)], expected);
    }
}

#[test]
fn an_invariant_whose_temporary_a_later_call_window_covers_leaves_the_loop() {
    // acc = 0; for i in 0..n { acc += x * 7 + i % 5 }; return id(acc):
    // the product sits one above the loop's stack, and the call after the
    // loop opens its argument window below it, so a walk that takes a call
    // as reading every register above its window finds the product's
    // register live at the header. The heights oracle knows it is dead
    // there (the window is pushed at height 0), and the product leaves.
    let mut b = ModuleBuilder::new();
    let id = b.func_private(vec![ValType::I32], vec![ValType::I32], |f| {
        dsl::emit_block(f, &[dsl::ret(Some(x().get()))]);
    });
    b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::I32], move |f| {
        let (acc, i) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let body = [acc.set(acc.get() + (x().get() * int(7) + i.get().rem_u(int(5))))];
        let ret = dsl::ret(Some(dsl::call(id, vec![acc.get()], ValType::I32)));
        dsl::emit_block(f, &[dsl::for_range(i, int(0), y().get(), &body), ret]);
    });
    let module = b.finish();
    assert_eq!(in_loops(&module, 1, Rc::Mul32), [0], "the product leaves the loop");
    for (xv, n) in [(3i32, 0i32), (3, 1), (3, 5), (i32::MAX, 3), (-9, -2)] {
        let acc = (0..n).fold(0i32, |a, i| a.wrapping_add(xv.wrapping_mul(7).wrapping_add(i % 5)));
        assert_tiers_agree(&module, "f", &[Value::I32(xv), Value::I32(n)], Ok(vec![Value::I32(acc)]));
    }
}

/// How many ops of function `func`'s `Max` stream are `code`.
fn in_stream(module: &Module, func: usize, code: Rc) -> usize {
    let compiled = compile_at_the_fixpoint(module.clone(), Tier::Max).unwrap();
    let CompiledBody::Flat(f) = compiled.bodies().unwrap()[func] else { panic!("flat tier expected") };
    f.code.iter().filter(|op| op.code == code).count()
}

#[test]
fn a_multiply_added_into_the_local_it_reads_fuses_in_one_pass() {
    // v = v + a * b: the sum's result sinks into `v` only after the walk
    // has passed the product, which then pairs with it as `Fma64`.
    let mut b = ModuleBuilder::new();
    b.func("f", vec![ValType::F64, ValType::F64, ValType::F64], vec![ValType::F64], |f| {
        let (v, a, w) = (dsl::local(0, ValType::F64), dsl::local(1, ValType::F64), dsl::local(2, ValType::F64));
        dsl::emit_block(f, &[v.set(v.get() + a.get() * w.get()), dsl::ret(Some(v.get()))]);
    });
    let module = b.finish();
    assert_eq!(in_stream(&module, 0, Rc::Fma64), 1);
    assert_eq!(in_stream(&module, 0, Rc::MulF64) + in_stream(&module, 0, Rc::AddF64), 0);
    for (v, a, w) in [(1.0f64, 2.0f64, 3.0f64), (0.1, 0.2, 0.3), (-0.0, 0.0, -1.0), (f64::MAX, 2.0, 2.0), (1.0, f64::NAN, 1.0)] {
        let args = [Value::F64(v), Value::F64(a), Value::F64(w)];
        let bits = |r: &Result<Vec<Value>, Trap>| r.as_ref().unwrap()[0].as_f64().unwrap().to_bits();
        let got = on_all_tiers(&module, "f", &args);
        assert_eq!(bits(&got[0]), (v + a * w).to_bits(), "baseline on {args:?}");
        for (tier, r) in Tier::ALL.iter().zip(&got) {
            assert_eq!(bits(r), bits(&got[0]), "{tier} on {args:?}");
        }
    }
}

#[test]
fn a_negated_compare_fuses_into_its_branch_in_one_pass() {
    // block { br_if 0 (!(x < 5)); return 1 }; return 2: the `eqz` flips
    // the branch first, and the compare then pairs with the flipped branch
    // across the `Nop` that leaves, as one negated `BrIfCmp32K`.
    use wasm_engine::instr::Instr as I;
    use wasm_engine::types::BlockType;
    let mut b = ModuleBuilder::new();
    b.func("f", vec![ValType::I32], vec![ValType::I32], |f| {
        f.emit_all([I::Block(BlockType::Empty), I::LocalGet(0), I::I32Const(5), I::I32LtS, I::I32Eqz]);
        f.emit_all([I::BrIf(0), I::I32Const(1), I::Return, I::End, I::I32Const(2)]);
    });
    let module = b.finish();
    assert_eq!(in_stream(&module, 0, Rc::BrIfCmp32K), 1);
    assert_eq!(in_stream(&module, 0, Rc::Eqz32) + in_stream(&module, 0, Rc::Cmp32K), 0);
    for xv in [i32::MIN, -1, 0, 4, 5, 6, i32::MAX] {
        let expected = if xv < 5 { 1 } else { 2 };
        assert_tiers_agree(&module, "f", &[Value::I32(xv)], Ok(vec![Value::I32(expected)]));
    }
}

// --- runs of guarded accumulates ---
//
// At `Max`, a run of `if (guard) sum += x[i + d]` that share one sum, one
// index and one loaded register is one step, its sum held in a machine
// register (`closures::Layout::join`); the range tests between its runs
// move in front of them when they commute with them.

/// Where the stencil tests keep `x`: f64s from here to the end of memory,
/// `x[k]` at `XS + 8k`, so `x[692]` is past it.
const XS: i32 = 60000;

/// `x[k] = k / 2 + 0.25`, or a NaN where `nans` says.
fn stencil_data(nans: &[(usize, u64)]) -> Vec<u8> {
    let mut words: Vec<u64> = (0..692).map(|k| (k as f64 * 0.5 + 0.25).to_bits()).collect();
    for &(k, bits) in nans {
        words[k] = bits;
    }
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// `x[i + d]`, as HPCG's SpMV cell addresses its neighbours.
fn x_at(i: &Var, d: i32) -> dsl::Expr {
    (int(XS) + (i.get() + int(d)).shl(int(3))).load(ValType::F64, 0)
}

/// What one call leaves: its result or trap, and linear memory.
type Outcome = (Result<Vec<Value>, Trap>, Vec<u8>);

/// `name(args)` at `tier`: its result or trap, and linear memory after it.
fn with_memory(module: &Module, tier: Tier, name: &str, args: &[Value]) -> Outcome {
    let compiled = compile_at_the_fixpoint(module.clone(), tier).unwrap();
    let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
    let out = inst.invoke(name, args);
    (out, inst.memory.slice(0, inst.memory.size_bytes() as u32).unwrap().to_vec())
}

/// Every tier leaves what `Baseline` leaves, result and memory; returns it.
fn tiers_agree_with_memory(module: &Module, name: &str, args: &[Value]) -> Outcome {
    let want = with_memory(module, Tier::Baseline, name, args);
    for tier in [Tier::Optimizing, Tier::Max] {
        let got = with_memory(module, tier, name, args);
        assert_eq!(got.0, want.0, "{name}{args:?} on {tier}: result");
        assert!(got.1 == want.1, "{name}{args:?} on {tier}: memory differs");
    }
    want
}

/// A random stencil: per element, the offsets whose range tests its guard
/// `and`s, and its displacement `d`.
struct Stencil {
    offsets: [i32; 3],
    elems: Vec<(Vec<usize>, i32)>,
}

/// The range `0 <= v < STENCIL_N` each guard tests.
const STENCIL_N: i32 = 600;

impl Stencil {
    fn random(rng: &mut Rng) -> Stencil {
        let offsets = [rng.pick(&[-2, -1, 0]), rng.pick(&[0, 1]), rng.pick(&[1, 2, 3])];
        let elems = (0..1 + rng.below(12))
            .map(|_| {
                let mut conds: Vec<usize> = (0..3).filter(|_| rng.below(2) == 0).collect();
                if conds.is_empty() {
                    conds.push(rng.below(3));
                }
                // Now and then an element that reaches past the end of memory.
                let d = match rng.below(10) {
                    0 => 93 + rng.below(8) as i32,
                    _ => rng.below(11) as i32 - 5,
                };
                (conds, d)
            })
            .collect();
        Stencil { offsets, elems }
    }

    /// `stencil(i0, i1)`: `for i in i0..i1 { sum = 0; <elements>; y[i] = sum }`,
    /// `y[i]` at `8i`; returns the last sum.
    fn module(&self) -> Module {
        let mut b = ModuleBuilder::new();
        b.memory(1, Some(1));
        b.data(XS, stencil_data(&[]));
        b.func("stencil", vec![ValType::I32; 2], vec![ValType::F64], |f| {
            let i = Var::new(f, ValType::I32);
            let sum = Var::new(f, ValType::F64);
            let mut body = vec![sum.set(dsl::double(0.0))];
            for (conds, d) in &self.elems {
                let test = |c: usize| in_range(i.get() + int(self.offsets[c]), STENCIL_N);
                let guard = conds.iter().fold(int(1), |g, &c| g.and(test(c)));
                body.push(dsl::if_then(guard, &[sum.set(sum.get() + x_at(&i, *d))]));
            }
            body.push(dsl::store(i.get().shl(int(3)), 0, sum.get()));
            let rows = dsl::for_range(i, x().get(), y().get(), &body);
            dsl::emit_block(f, &[rows, dsl::ret(Some(sum.get()))]);
        });
        b.finish()
    }

    /// The plain-Rust model of `stencil(i0, i1)` over `mem`.
    fn model(&self, i0: i32, i1: i32, mem: &mut [u8]) -> Result<Vec<Value>, Trap> {
        let mut sum = 0.0;
        for i in i0..i1 {
            sum = 0.0;
            for (conds, d) in &self.elems {
                if conds.iter().all(|&c| (0..STENCIL_N).contains(&(i + self.offsets[c]))) {
                    let addr = XS.wrapping_add(i.wrapping_add(*d).wrapping_shl(3)) as u32 as u64;
                    if addr + 8 > mem.len() as u64 {
                        let memory_size = mem.len() as u64;
                        return Err(Trap::MemoryOutOfBounds { addr, len: 8, memory_size });
                    }
                    sum += f64::from_le_bytes(mem[addr as usize..][..8].try_into().unwrap());
                }
            }
            mem[8 * i as usize..][..8].copy_from_slice(&sum.to_le_bytes());
        }
        Ok(vec![Value::F64(sum)])
    }
}

#[test]
fn guarded_stencil_sums_agree_with_baseline_and_a_model() {
    let mut traps = 0;
    for seed in 0..40u64 {
        let stencil = Stencil::random(&mut Rng(seed));
        let module = stencil.module();
        wasm_engine::validate_module(&module).unwrap();
        for (i0, i1) in [(0, 8), (590, 605), (594, 700)] {
            let args = [Value::I32(i0), Value::I32(i1)];
            let (out, mem) = tiers_agree_with_memory(&module, "stencil", &args);
            // The model starts from memory as instantiation leaves it.
            let none = [Value::I32(0), Value::I32(0)];
            let mut want = with_memory(&module, Tier::Baseline, "stencil", &none).1;
            let why = format!("seed {seed}: stencil({i0}, {i1})");
            assert_eq!(out, stencil.model(i0, i1, &mut want), "{why}");
            assert!(mem == want, "{why}: memory differs from the model's");
            traps += out.is_err() as u32;
        }
    }
    assert!(traps >= 5, "{traps} runs trapped");
}

/// `sum` starts at 0.5; `u = c & d` guards `x[i - 1]`, then `u & e` guards
/// `x[i + 1]`: the second guard reads the first's `and` register, which
/// the run must have written by then. `c`, `d`, `e`: `i - 1`, `i`, `i + 1`
/// in range.
#[test]
fn an_and_register_a_later_element_reads_agrees_with_baseline() {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    b.data(XS, stencil_data(&[]));
    b.func("f", vec![ValType::I32], vec![ValType::F64], |f| {
        let i = x();
        let mut var = || Var::new(f, ValType::I32);
        let (c, d, e, u) = (var(), var(), var(), var());
        let sum = Var::new(f, ValType::F64);
        dsl::emit_block(f, &[
            sum.set(dsl::double(0.5)),
            c.set(in_range(i.get() + int(-1), 8)),
            d.set(in_range(i.get(), 8)),
            e.set(in_range(i.get() + int(1), 8)),
            u.set(c.get().and(d.get())),
            dsl::if_then(u.get(), &[sum.set(sum.get() + x_at(&i, -1))]),
            dsl::if_then(u.get().and(e.get()), &[sum.set(sum.get() + x_at(&i, 1))]),
            dsl::if_then(e.get().and(u.get()), &[sum.set(sum.get() + x_at(&i, 2))]),
            dsl::ret(Some(sum.get())),
        ]);
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    for iv in [-1, 0, 1, 6, 7, 8] {
        let x = |k: i32| (iv + k) as f64 * 0.5 + 0.25;
        let [c, d, e] = [-1, 0, 1].map(|k| (0..8).contains(&(iv + k)));
        let u = c && d;
        let want = 0.5 + if u { x(-1) } else { 0.0 } + if u && e { x(1) } else { 0.0 };
        let want = want + if u && e { x(2) } else { 0.0 };
        assert_tiers_agree(&module, "f", &[Value::I32(iv)], Ok(vec![Value::F64(want)]));
    }
}

/// `if c & d { sum += x[i - 1] }; c = <i + 1 in range>; if c & d { sum +=
/// x[i + 1] }`: the range test between the two writes `c`, which the first
/// element reads, so it must stay behind it and the two stay two runs.
#[test]
fn a_range_test_that_writes_what_an_earlier_element_reads_stays_behind_it() {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    b.data(XS, stencil_data(&[]));
    b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::F64], |f| {
        let i = x();
        let (c, d) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let sum = Var::new(f, ValType::F64);
        dsl::emit_block(f, &[
            sum.set(dsl::double(0.5)),
            c.set(in_range(i.get() + int(-1), 8)),
            d.set(y().get()),
            dsl::if_then(c.get().and(d.get()), &[sum.set(sum.get() + x_at(&i, -1))]),
            c.set(in_range(i.get() + int(1), 8)),
            dsl::if_then(c.get().and(d.get()), &[sum.set(sum.get() + x_at(&i, 1))]),
            dsl::ret(Some(sum.get())),
        ]);
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    for iv in [-1, 0, 1, 6, 7, 8] {
        for dv in [0, 1, -1] {
            let x = |k: i32| (iv + k) as f64 * 0.5 + 0.25;
            let lo = dv != 0 && (0..8).contains(&(iv - 1));
            let hi = dv != 0 && (0..8).contains(&(iv + 1));
            let want = 0.5 + if lo { x(-1) } else { 0.0 } + if hi { x(1) } else { 0.0 };
            let args = [Value::I32(iv), Value::I32(dv)];
            assert_tiers_agree(&module, "f", &args, Ok(vec![Value::F64(want)]));
        }
    }
}

/// `c = <i - 1 in range>; d = <i + 1 in range>; block { br_if e; if c {
/// sum += x[i - 1] } }; if d { sum += x[i + 1] }`: the `br_if` lands on
/// the second guarded accumulate's own guard, so that accumulate begins a
/// step of its own and does not join the first's run; a taken `e` skips
/// only the first.
#[test]
fn a_branch_into_a_guarded_accumulate_keeps_it_out_of_the_run_before_it() {
    use wasm_engine::instr::Instr as I;
    use wasm_engine::types::BlockType;
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    b.data(XS, stencil_data(&[]));
    b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::F64], |f| {
        let i = x();
        let (c, d) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let sum = Var::new(f, ValType::F64);
        dsl::emit_block(f, &[
            sum.set(dsl::double(0.5)),
            c.set(in_range(i.get() + int(-1), 8)),
            d.set(in_range(i.get() + int(1), 8)),
        ]);
        f.emit_all([I::Block(BlockType::Empty), I::LocalGet(1), I::BrIf(0)]);
        dsl::emit_block(f, &[dsl::if_then(c.get(), &[sum.set(sum.get() + x_at(&i, -1))])]);
        f.emit(I::End);
        dsl::emit_block(f, &[
            dsl::if_then(d.get(), &[sum.set(sum.get() + x_at(&i, 1))]),
            dsl::ret(Some(sum.get())),
        ]);
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    for iv in [-1, 0, 1, 6, 7, 8] {
        for ev in [0, 1] {
            let x = |k: i32| (iv + k) as f64 * 0.5 + 0.25;
            let lo = ev == 0 && (0..8).contains(&(iv - 1));
            let hi = (0..8).contains(&(iv + 1));
            let want = 0.5 + if lo { x(-1) } else { 0.0 } + if hi { x(1) } else { 0.0 };
            let args = [Value::I32(iv), Value::I32(ev)];
            assert_tiers_agree(&module, "f", &args, Ok(vec![Value::F64(want)]));
        }
    }
}

/// NaN summands in a run: one NaN's payload survives the adds after it,
/// quieted when it was signalling, and of two NaNs `Baseline`'s payload
/// survives. The sum's bits come back through memory. (`Max` against
/// `Baseline`: `Optimizing`'s plain `AddF64` keeps the other payload of
/// two NaNs.)
#[test]
fn nan_summands_in_a_run_keep_baseline_payloads() {
    const QUIET: u64 = 0x7ff8_0000_0000_0a0a;
    const NEGATIVE: u64 = 0xfff8_0000_0000_0b0b;
    const SIGNALLING: u64 = 0x7ff0_0000_0000_0c0c;
    const NANS: [(i32, u64); 3] = [(3, QUIET), (5, NEGATIVE), (7, SIGNALLING)];
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    b.data(XS, stencil_data(&NANS.map(|(k, bits)| (k as usize, bits))));
    // (i, m): sum = 0.5, then x[i + k] for the k in 0..4 whose bit is set in `m`.
    b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::I64], |f| {
        let i = x();
        let sum = Var::new(f, ValType::F64);
        let bits: Vec<Var> = (0..4).map(|_| Var::new(f, ValType::I32)).collect();
        let mut body = vec![sum.set(dsl::double(0.5))];
        for (k, bit) in bits.iter().enumerate() {
            body.push(bit.set(y().get().and(int(1 << k))));
        }
        for (k, bit) in bits.iter().enumerate() {
            body.push(dsl::if_then(bit.get(), &[sum.set(sum.get() + x_at(&i, k as i32))]));
        }
        body.push(dsl::store(int(16), 0, sum.get()));
        body.push(dsl::ret(Some(int(16).load(ValType::I64, 0))));
        dsl::emit_block(f, &body);
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    let mut payloads = std::collections::HashSet::new();
    for iv in 0..8 {
        for m in 0..16 {
            let args = [Value::I32(iv), Value::I32(m)];
            let (out, mem) = with_memory(&module, Tier::Baseline, "f", &args);
            let max = with_memory(&module, Tier::Max, "f", &args);
            assert!(max == (out.clone(), mem), "f({iv}, {m})");
            let Ok(v) = out else { panic!("f({iv}, {m}): {out:?}") };
            let Value::I64(bits) = v[0] else { panic!("{v:?}") };
            let nan = |k: i32| NANS.iter().find(|n| n.0 == k).map(|n| n.1);
            let summed = (0..4).filter(|k| m >> k & 1 != 0);
            let nans: Vec<u64> = summed.filter_map(|k| nan(iv + k)).collect();
            if let [nan] = nans[..] {
                assert_eq!(bits as u64, nan | 1 << 51, "f({iv}, {m}): one NaN summand");
            }
            if f64::from_bits(bits as u64).is_nan() {
                payloads.insert(bits as u64 & 0xffff);
            }
        }
    }
    assert_eq!(payloads.len(), 3, "{payloads:x?}");
}

/// A register op, as a stream holds it.
fn op(code: Rc, a: u32, b: u32, c: u32, aux: u8, imm: u64) -> RegOp {
    RegOp { imm, a, b, c, code, aux }
}

/// A register stream of random groups, each a guarded accumulate (`BrIfZ`
/// on one register, or on the `And32` of two, skipping a `Load64ShlK` into
/// `AddF64`), a range test or an `And32`, or a `BrIf` over the next group.
/// Its registers are drawn from `regs` of them, so that elements read and
/// write each other's, their sum's and their index's registers, and the
/// ops between them write what they read. Most accumulates share their
/// index, sum and loaded registers, so that their runs join, and most
/// guards read three registers that most ops between them write. The
/// frame is the function's results: registers `0..4` are its `i32`
/// parameters, `4..` start as small integers and f64s.
fn random_runs(seed: u64, regs: u32) -> Vec<RegOp> {
    let mut rng = Rng(seed);
    let mut next = |n: u32| rng.below(n as usize) as u32;
    // Whether a register holds an i32 on every path so far, as a register
    // a valid stream's `br_if` tests always does (predication writes a
    // `BrIfZ` guard's `r & r` back into `r`).
    let mut i32s = vec![true; regs as usize];
    let mut code: Vec<RegOp> = (4..regs)
        .map(|r| {
            let imm = match next(3) {
                0 => next(9) as u64,
                1 => (next(8) as f64 * 0.75 - 2.0).to_bits(),
                _ => 0,
            };
            i32s[r as usize] = imm >> 32 == 0;
            op(Rc::Const, 0, 0, r, 0, imm)
        })
        .collect();
    let a = next(regs);
    let b = (a + 1 + next(regs - 1)) % regs;
    let run = [a, b, (0..regs).find(|&r| r != a && r != b).unwrap()];
    let mut others = (0..regs).filter(|r| !run.contains(r)).cycle().skip(next(regs) as usize);
    let conds = [(); 3].map(|_| others.next().unwrap());
    macro_rules! cond {
        () => {
            match next(4) {
                0 => next(regs),
                k => conds[k as usize - 1],
            }
        };
    }
    // Per group its ops, and whether its last one skips the next group.
    let mut groups: Vec<(Vec<RegOp>, bool)> = Vec::new();
    for _ in 0..2 + next(12) {
        let group = match next(12) {
            0..=6 => {
                let [a, b, w] = match next(4) {
                    0 => [next(regs), next(regs), next(regs)],
                    _ => run,
                };
                let load = op(Rc::Load64ShlK, a, 0, w, 3, ((64 + 8 * next(12)) as u64) << 32);
                let add = op(Rc::AddF64, b, w, b, 0, 0);
                let g = cond!();
                let guard = if next(2) == 0 && i32s[g as usize] {
                    vec![op(Rc::BrIfZ, g, 0, 0, 0, 0)]
                } else {
                    let t = cond!();
                    vec![op(Rc::And32, g, cond!(), t, 0, 0), op(Rc::BrIfZ, t, 0, 0, 0, 0)]
                };
                i32s[w as usize] = false;
                i32s[b as usize] = false;
                (guard.into_iter().chain([load, add]).collect(), false)
            }
            7 | 8 => (vec![op(Rc::CmpAddK32, next(regs), 4, cond!(), 3, next(3) as u64)], false),
            9 | 10 => (vec![op(Rc::And32, cond!(), cond!(), cond!(), 0, 0)], false),
            _ => (vec![op(Rc::BrIf, next(regs), 0, 0, 0, 0)], true),
        };
        groups.push(group);
    }
    // A guard skips to the op after its accumulate; a `BrIf` to the group
    // after the next.
    let starts: Vec<usize> = groups
        .iter()
        .scan(code.len(), |at, (ops, _)| Some(std::mem::replace(at, *at + ops.len())))
        .collect();
    let end = starts.last().unwrap() + groups.last().unwrap().0.len();
    for (k, (ops, skip)) in groups.iter().enumerate() {
        let after = |g: usize| starts.get(g).copied().unwrap_or(end) as u32;
        for o in ops {
            let c = match o.code {
                Rc::BrIfZ => after(k + 1),
                Rc::BrIf if *skip => after(k + 2),
                _ => o.c,
            };
            code.push(RegOp { c, ..*o });
        }
    }
    code.push(op(Rc::Return, 0, 0, 0, 0, 0));
    code
}

/// `code`, over a frame of `regs` registers, at `tier`, called on `args`
/// over memory whose f64 at `8k` is `k - 40.5`: its frame at the end, or
/// its trap. The stream comes in as a cache artifact's body would, through
/// the verifier.
fn run_stream(code: &[RegOp], regs: u32, tier: Tier, args: &[i32]) -> Result<Vec<Value>, Trap> {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    b.data(0, (0..256).flat_map(|k| (k as f64 - 40.5).to_le_bytes()).collect());
    b.func("f", vec![ValType::I32; 4], vec![ValType::I64; regs as usize], |f| {
        for _ in 4..regs {
            f.local(ValType::I64);
        }
        f.emit(wasm_engine::Instr::Unreachable);
    });
    let mut bytes = Vec::new();
    for word in [regs, 0, code.len() as u32] {
        bytes.extend(word.to_le_bytes());
    }
    for o in code {
        bytes.extend(o.imm.to_le_bytes());
        [o.a, o.b, o.c].iter().for_each(|w| bytes.extend(w.to_le_bytes()));
        bytes.extend([o.code as u8, o.aux]);
    }
    bytes.extend([0; 8]);
    let read = |m: &Module, f: &wasm_engine::module::Function| {
        RegFunc::read(&mut wasm_engine::leb128::Reader::new(&bytes), m, f).map(Some)
    };
    let compiled = CompiledModule::from_parts(b.finish(), tier, read).unwrap();
    let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
    inst.invoke("f", &args.iter().map(|&v| Value::I32(v)).collect::<Vec<_>>())
}

/// `t = mem[base + (i << 2) + 8]; mem[base + (i << 2) + 8] = t + 5`, read
/// back, as a stream: a `Load32Shl`, `AddK32` and `Store32Shl` over one
/// base and scaled index, the shape a fused step once covered. The
/// mid-end computes a shared address once, so no wasm function yields it;
/// `Max` runs it as plain steps and leaves what `Optimizing` and a model
/// leave, trap included.
#[test]
fn a_load_add_store_over_a_base_and_scaled_index_runs_as_plain_steps() {
    let code = [
        op(Rc::Load32Shl, 1, 0, 4, 2, 8),
        op(Rc::AddK32, 4, 5, 5, 0, 0),
        op(Rc::Store32Shl, 1, 5, 0, 2, 8),
        op(Rc::Load32Shl, 1, 0, 6, 2, 8),
        op(Rc::Return, 0, 0, 0, 0, 0),
    ];
    for (base, i) in [(0, 0), (64, 3), (65512, 4), (65520, 3), (-4, 1)] {
        let at = (base as u32).wrapping_add((i as u32) << 2) as u64 + 8;
        let want = if at + 4 <= 65536 {
            let word = |k: u64| (k as f64 - 40.5).to_bits();
            let t = (word(at / 8) >> (at % 8 * 8)) as u32 as i32;
            let u = t.wrapping_add(5) as u32 as i64;
            let frame = [base as u32 as i64, i, 0, 0, t as u32 as i64, u, u];
            Ok(frame.map(Value::I64).to_vec())
        } else {
            Err(Trap::MemoryOutOfBounds { addr: at, len: 4, memory_size: 65536 })
        };
        for tier in [Tier::Optimizing, Tier::Max] {
            let got = run_stream(&code, 7, tier, &[base, i as i32, 0, 0]);
            assert_eq!(got, want, "base {base}, i {i} on {tier}");
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
    /// Random runs of guarded accumulates ([`random_runs`]): `Max`, which
    /// joins them and moves the ops between, leaves the frame (or the trap)
    /// that `Optimizing`, one step per op, leaves. (No f64 in memory or in
    /// a register is a NaN, so the two tiers' payload rules never meet.)
    #[test]
    fn random_runs_of_guarded_accumulates_agree_with_one_step_per_op(
        seed in proptest::prelude::any::<u64>(),
        regs in 6u32..10,
        args in proptest::array::uniform4(0i32..6),
    ) {
        let code = random_runs(seed, regs);
        let want = run_stream(&code, regs, Tier::Optimizing, &args);
        let got = run_stream(&code, regs, Tier::Max, &args);
        proptest::prop_assert_eq!(got, want, "seed {} over {} registers: {:?}", seed, regs, code);
    }
}
