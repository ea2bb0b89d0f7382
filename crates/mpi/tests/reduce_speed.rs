//! A reduction moves a byte at about the speed a copy does. Gated on a
//! ratio taken inside one process, not on a wall-clock number: each
//! repetition times a `copy_from_slice` and a `reduce_in_place` of the same
//! 1 MiB back to back, so a slow host plateau hits both sides. Only an
//! optimised build says anything about the element loops.
#![cfg(not(debug_assertions))]

use std::hint::black_box;
use std::time::Instant;

use mpi_substrate::datatype::{reduce_in_place, Datatype, ReduceOp};

const LEN: usize = 1 << 20;
const REPS: usize = 100;
const MAX_RATIO: f64 = 2.0;

/// `LEN` bytes of the value one in `dt`.
fn ones(dt: Datatype) -> Vec<u8> {
    let one: &[u8] = match dt {
        Datatype::Int => &1i32.to_le_bytes(),
        Datatype::Float => &1f32.to_le_bytes(),
        Datatype::Long => &1i64.to_le_bytes(),
        Datatype::Double => &1f64.to_le_bytes(),
        other => unreachable!("{other:?} is not gated"),
    };
    one.iter().copied().cycle().take(LEN).collect()
}

#[test]
fn a_sum_costs_at_most_twice_a_copy() {
    for dt in [Datatype::Int, Datatype::Float, Datatype::Long, Datatype::Double] {
        let input = ones(dt);
        let mut copied = vec![0u8; LEN];
        let mut acc = vec![0u8; LEN];
        let (mut copy_s, mut reduce_s) = (f64::MAX, f64::MAX);
        for _ in 0..REPS {
            let t = Instant::now();
            black_box(&mut copied).copy_from_slice(black_box(&input));
            copy_s = copy_s.min(t.elapsed().as_secs_f64());

            let t = Instant::now();
            reduce_in_place(dt, ReduceOp::Sum, black_box(&mut acc), black_box(&input)).unwrap();
            reduce_s = reduce_s.min(t.elapsed().as_secs_f64());
        }
        let ratio = reduce_s / copy_s;
        println!(
            "{dt:?} Sum: copy {:.1} us, reduce {:.1} us, {ratio:.2}x",
            copy_s * 1e6,
            reduce_s * 1e6
        );
        assert!(
            ratio <= MAX_RATIO,
            "{dt:?} Sum takes {ratio:.2}x a copy of the same {LEN} bytes (limit {MAX_RATIO}x)"
        );
    }
}
