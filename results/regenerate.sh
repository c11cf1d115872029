#!/usr/bin/env bash
# Regenerates every archived output listed in results/INDEX.md from the
# seeded experiment binaries and examples. Every output is deterministic, so
# `git diff --exit-code results/` afterwards shows any drift.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p oaq-bench --bins
cargo build --release --offline --examples

for bin in table1 fig7 fig8 fig9 text_numbers tau_sweep mu_sweep geometry_report \
    validate_protocol geoloc_accuracy ablation membership latency chain_depth robustness; do
    ./target/release/"$bin" > results/"$bin".txt
done
./target/release/examples/degraded_constellation > results/example_degraded.txt
./target/release/examples/membership_failover > results/example_membership.txt
./target/release/examples/surveillance_mission > results/example_mission.txt
