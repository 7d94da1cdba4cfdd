#!/bin/sh
# Rewrite every reference that tests/test_golden.py compares byte for byte:
# summary.json and trials.csv of each tests/golden/<case>, and the five
# bounds.csv files and the shared models.json of tests/golden_bounds.
# Run it from the repository root, only for a change that moves the numbers
# on purpose, and say so in CHANGES.md:
#
#     sh tests/golden/regenerate.sh
set -eu
run() { PYTHONPATH=src python3 -m dosebounds.cli "$@" >/dev/null; }

for config in tests/golden/*/config.json; do
    run benchmark --config "$config" --out "$(dirname "$config")"
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
run dgp --trial --seed 0 --out "$tmp/bundle"
bounds() {
    run bounds --data "$tmp/bundle/train.csv" --gamma 1.5 --out "$tmp/out" "$@"
}
for model in deltamsm cmsm uniform binarymsm; do
    bounds --model "$model"
    cp "$tmp/out/bounds.csv" "tests/golden_bounds/apo_$model.csv"
done
bounds --model deltamsm --target capo --instance 0
cp "$tmp/out/bounds.csv" tests/golden_bounds/capo_deltamsm.csv
cp "$tmp/out/models.json" tests/golden_bounds/models.json
