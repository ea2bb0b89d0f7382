#!/usr/bin/env bash
# Placement draws as a tool (ROADMAP item 2 (iv)): the same source built in
# N differently named directories links its hot functions at different
# addresses (the crate hash in every symbol name depends on the path), and
# the executors' speed moves with that draw. This builds the tracked tree
# (`git ls-files`, working-tree contents) in N fresh directories, runs one
# workload of benchmark/ in each, and prints per directory `kernel_s` and
# the entry address mod 64 of the chain runner (`Chain::run`, one body per
# meteredness, in address order) and the jit dispatch loop
# (`run_jit`), then the min, max and spread of `kernel_s`.
#
#   crates/bench/placement.sh N WORKLOAD [SECONDS]
#
# Directories go under $PLACEMENT_DIR (default: a new `mktemp -d`) and are
# left in place for inspection. Nothing under benchmark/ is edited.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 N WORKLOAD [SECONDS]" >&2
    exit 2
fi
n=$1
workload=$2
seconds=${3:-8}
root=$(git rev-parse --show-toplevel)
base=${PLACEMENT_DIR:-$(mktemp -d)}
mkdir -p "$base"

dirs=()
for i in $(seq 1 "$n"); do
    dir="$base/draw-$i-$(head -c 4 /dev/urandom | od -An -tx1 | tr -d ' \n')"
    mkdir -p "$dir"
    (cd "$root" && git ls-files -z | tar --null -T - -cf -) | tar -xf - -C "$dir"
    echo "building $dir" >&2
    cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
    dirs+=("$dir")
done

# The entry addresses of `$2` in binary `$1`, mod 64, in link order.
mod64() {
    nm -nC "$1" | awk -v sym="$2" '$3 ~ sym { print $1 }' | while read -r a; do
        printf '0x%02x ' $((16#$a % 64))
    done
}

printf '%-40s %12s  %-12s %s\n' directory kernel_s Chain::run run_jit
results=()
for dir in "${dirs[@]}"; do
    bin="$dir/benchmark/target/release/mpiwasm-benchmark"
    k=$("$bin" run --workload "$workload" --seconds "$seconds" | awk '$1 == "kernel_s" { print $2 }')
    printf '%-40s %12s  %-12s %s\n' "$(basename "$dir")" "$k" \
        "$(mod64 "$bin" 'closures::Chain::run$')" "$(mod64 "$bin" 'dispatch::run_jit$')"
    results+=("$k")
done
printf '%s\n' "${results[@]}" | awk '
    NR == 1 || $1 < min { min = $1 }
    NR == 1 || $1 > max { max = $1 }
    END { printf "min %.6g  max %.6g  spread %.1f %%\n", min, max, 100 * (max - min) / min }'
