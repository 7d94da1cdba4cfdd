#!/bin/sh
# Rewrite every reference that tests/test_golden.py compares byte for byte:
# summary.json and trials.csv of each tests/golden/<case>, and the five
# bounds.csv files and the shared models.json of tests/golden_bounds, and
# the per-layer digests of tests/golden/kernels.json.
# It prints, for each reference CSV and for each summary.json and
# models.json, how many numeric cells or leaves moved and the largest
# relative move, then the manifest entries that moved.  Run it from
# the repository root, only for a change that moves the numbers on purpose,
# and say so in CHANGES.md:
#
#     sh tests/golden/regenerate.sh
set -eu
run() { PYTHONPATH=src python3 -m dosebounds.cli "$@" >/dev/null; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/before"
cp -R tests/golden tests/golden_bounds "$tmp/before/"

for config in tests/golden/*/config.json; do
    run benchmark --config "$config" --out "$(dirname "$config")"
done

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

# A moved cell or JSON leaf is one whose number changed; its relative move
# is |new - old| / |old| (inf where old is 0).
python3 - "$tmp/before" <<'EOF'
import csv
import json
import math
import sys
from pathlib import Path


def report(rel, pairs, what):
    """Print how many (old, new) pairs hold a number that moved, and the
    largest relative move; other values that differ count as text."""
    moved, largest, text = 0, 0.0, 0
    for old, new in pairs:
        try:
            x, y = float(old), float(new)
        except (TypeError, ValueError):
            text += old != new
            continue
        if x != y and not (math.isnan(x) and math.isnan(y)):
            moved += 1
            largest = max(largest, abs(y - x) / abs(x) if x else math.inf)
    extra = f", {text} text {what} changed" if text else ""
    print(f"tests/{rel}: {moved} numeric {what} moved, largest relative move {largest:.3g}{extra}")


def leaves(doc, path=()):
    """{path: value} of every leaf of a JSON document; a boolean stays text."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {path: str(doc) if isinstance(doc, bool) or doc is None else doc}
    return {k: v for key, item in items for k, v in leaves(item, path + (key,)).items()}


before = Path(sys.argv[1])
for old_path in sorted(before.rglob("*.csv")):
    rel = old_path.relative_to(before)
    rows = []
    for path in (old_path, Path("tests") / rel):
        with open(path, newline="", encoding="utf-8") as handle:
            rows.append(list(csv.reader(handle)))
    if [len(row) for row in rows[0]] != [len(row) for row in rows[1]]:
        print(f"tests/{rel}: the table's shape changed")
        continue
    report(rel, [cell for pair in zip(*rows) for cell in zip(*pair)], "cells")
for old_path in sorted(before.rglob("*.json")):
    if old_path.name not in ("summary.json", "models.json"):
        continue
    rel = old_path.relative_to(before)
    docs = [leaves(json.loads(path.read_text())) for path in (old_path, Path("tests") / rel)]
    if docs[0].keys() != docs[1].keys():
        print(f"tests/{rel}: the document's structure changed")
        continue
    report(rel, [(docs[0][key], docs[1][key]) for key in docs[0]], "leaves")
EOF

PYTHONPATH=src python3 tests/layer_manifest.py
