#!/bin/sh
# Regenerates every table and figure of the paper at default laptop scale.
set -x
cd "$(dirname "$0")/.."
cargo run --release -p dbscout-bench --bin table1 > results/table1.txt 2>&1
cargo run --release -p dbscout-bench --bin table3 > results/table3.txt 2>&1
cargo run --release -p dbscout-bench --bin table4 > results/table4.txt 2>&1
cargo run --release -p dbscout-bench --bin table5 > results/table5.txt 2>&1
cargo run --release -p dbscout-bench --bin fig11 > results/fig11.txt 2>&1
cargo run --release -p dbscout-bench --bin fig12 > results/fig12.txt 2>&1
cargo run --release -p dbscout-bench --bin fig13 > results/fig13.txt 2>&1
cargo run --release -p dbscout-bench --bin table2_fig10 > results/table2_fig10.txt 2>&1
echo ALL_DONE
