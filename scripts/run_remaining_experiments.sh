#!/bin/bash
# Waits for the table2 full run to finish, then regenerates the remaining
# figures/experiments. Fig 5 runs at full scale (it is the runtime-breakdown
# headline); the visual/diagnostic experiments run at quick scale to keep
# the single-core wall clock bounded — rerun any of them with `full` for
# higher fidelity.
set -u
cd /root/repo
until grep -q EXIT table2_full.log 2>/dev/null; do sleep 20; done
echo "table2 done, running figures..."
cargo run -p af-bench --bin fig5_runtime   --release -- full  > fig5_full.txt 2>&1
cargo run -p af-bench --bin fig1_guidance  --release -- quick > fig1_full.txt 2>&1
cargo run -p af-bench --bin fig6_layouts   --release -- quick > fig6_full.txt 2>&1
cargo run -p af-bench --bin ablations      --release -- quick > ablations_full.txt 2>&1
cargo run -p af-bench --bin extension_ota5 --release -- quick > ext_ota5.txt 2>&1
cargo run -p af-bench --bin stability      --release -- quick seeds=3 > stability.txt 2>&1
echo ALLDONE
