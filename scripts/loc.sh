#!/bin/sh
# Workspace size as ROADMAP asks every PR to record it: non-test,
# non-comment, non-blank lines of the tracked library/binary sources, each
# file cut at its first `#[cfg(test)]`. With arguments, counts only those
# files (e.g. `scripts/loc.sh crates/graph/src/json.rs`).
set -eu
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- $(git ls-files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' 'src/*.rs' | sort -u)
fi
awk 'FNR==1{skip=0} /^#\[cfg\(test\)\]/{skip=1} !skip && !/^[[:space:]]*(\/\/|$)/{c++} END{print c+0}' "$@"
