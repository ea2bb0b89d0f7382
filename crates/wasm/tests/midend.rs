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
use wasm_engine::runtime::{CompiledModule, Linker, Value};
use wasm_engine::types::ValType;
use wasm_engine::{ModuleBuilder, Tier};

/// Invoke `name(args)` on every tier; the results in `Tier::ALL` order.
fn on_all_tiers(module: &Module, name: &str, args: &[Value]) -> Vec<Result<Vec<Value>, Trap>> {
    Tier::ALL
        .iter()
        .map(|&tier| {
            let compiled = CompiledModule::compile(module.clone(), tier).unwrap();
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

// --- loop-invariant code motion ---
//
// Above `Optimizing` an op whose operands the loop does not change moves
// to the loop's preheader. Each case below is a boundary of that rule: a
// loop that runs no iteration, a trap that must stay where it was, an
// operand that changes on one path only, state a call changes, a loop
// inside a loop, a value that leaves the loop through a branch, a reader
// that writes its result over the hoisted value's register.

use wasm_engine::regalloc::Rc;
use wasm_engine::tier::CompiledBody;

/// For each loop of function `func`'s `Max` stream (a backward-branch
/// target up to its last back-edge), outermost first: how many of its ops
/// are `code`.
fn in_loops(module: &Module, func: usize, code: Rc) -> Vec<usize> {
    let compiled = CompiledModule::compile(module.clone(), Tier::Max).unwrap();
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
    assert_eq!(in_loops(&module, 0, Rc::Mul32), [1], "the product stays");
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
    assert_eq!(in_loops(&module, 0, Rc::Mul32), [1, 0], "out of the inner loop only");
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
