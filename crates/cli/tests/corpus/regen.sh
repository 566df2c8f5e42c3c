#!/usr/bin/env bash
# Regenerates the golden corpus: the graphs themselves (deterministic given
# preset/n/seed) and the expected `mce enumerate` outputs the determinism
# gate diffs against. Run from the workspace root after an intentional
# output-format change, then review the diff before committing:
#
#   cargo build --release -p mce-cli
#   bash crates/cli/tests/corpus/regen.sh target/release/mce
#
# See EXPERIMENTS.md ("The golden corpus") for how the graphs were chosen.
set -euo pipefail

MCE="${1:-target/release/mce}"
DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# --- the corpus graphs -----------------------------------------------------
"$MCE" gen planted    --n 60 --seed 5  --out "$DIR/planted-60.txt"
"$MCE" gen er-sparse  --n 48 --seed 11 --out "$DIR/er-sparse-48.txt"
"$MCE" gen moon-moser --n 12           --out "$DIR/moon-moser-12.txt"
"$MCE" gen ba         --n 40 --seed 3  --out "$DIR/ba-40.txt"
"$MCE" gen turan      --n 30           --out "$DIR/turan-30.col"
# A 3-plex whose early-terminated branches have paths and 3-, 4- and
# 6-cycles in their complements: its goldens pin the emitter's order.
"$MCE" gen plex       --n 28 --seed 27 --out "$DIR/plex-28.txt"

# --- golden outputs (single-threaded; the gate replays at 1/2/4 threads) ---
for stem in planted-60 er-sparse-48 moon-moser-12 ba-40 plex-28; do
  "$MCE" enumerate "$DIR/$stem.txt" --output text  --out "$DIR/$stem.text.golden"
  "$MCE" enumerate "$DIR/$stem.txt" --output count --out "$DIR/$stem.count.golden"
done
"$MCE" enumerate "$DIR/turan-30.col" --output text  --out "$DIR/turan-30.text.golden"
"$MCE" enumerate "$DIR/turan-30.col" --output count --out "$DIR/turan-30.count.golden"

# The remaining sinks, pinned on one graph each.
"$MCE" enumerate "$DIR/planted-60.txt" --output ndjson    --out "$DIR/planted-60.ndjson.golden"
"$MCE" enumerate "$DIR/planted-60.txt" --output histogram --out "$DIR/planted-60.histogram.golden"
"$MCE" enumerate "$DIR/moon-moser-12.txt" --output max    --out "$DIR/moon-moser-12.max.golden"
# Other presets, pinned on one graph each: STEM.SUFFIX.text.golden runs the
# preset its suffix names (the table golden.rs and the CI replay loop read):
# a vertex-oriented one, and EBBMC, whose edge levels run below the root.
for pair in rdegen:RDegen ebbmc:EBBMC; do
  "$MCE" enumerate "$DIR/planted-60.txt" --preset "${pair#*:}" --output text \
    --out "$DIR/planted-60.${pair%%:*}.text.golden"
done

# --- binary .mcg goldens ---------------------------------------------------
# The .mcg encoding is canonical (docs/FORMAT.md), so converting the same
# source must reproduce these files byte-for-byte; the gate replays
# `mce convert` and diffs, and enumerates the binary graphs against the same
# text goldens as their source graphs.
"$MCE" convert "$DIR/er-sparse-48.txt" "$DIR/er-sparse-48.mcg"
"$MCE" convert "$DIR/turan-30.col" "$DIR/turan-30.mcg"

# --- mce query goldens -----------------------------------------------------
# Anchored enumeration (vertex 27 sits in several planted communities) and
# the deterministic top-k ranking; the gate replays both at 1/2/4 threads.
"$MCE" query "$DIR/planted-60.txt" --anchor 27 --output text \
  --out "$DIR/planted-60.anchor27.golden"
"$MCE" query "$DIR/planted-60.txt" --top 3 --out "$DIR/planted-60.top3.golden"

# Maximum clique via branch and bound: the canonical winner (lex-smallest
# sorted member list) must be byte-identical to the enumeration-riding
# `--output max` sink, on a dense text graph and on a binary .mcg one.
"$MCE" query "$DIR/planted-60.txt" --max-clique \
  --out "$DIR/planted-60.maxclique.golden"
"$MCE" query "$DIR/er-sparse-48.mcg" --max-clique \
  --out "$DIR/er-sparse-48.maxclique.golden"

echo "golden corpus regenerated under $DIR"
