#!/bin/sh
# Workspace size as ROADMAP asks every PR to record it: non-test,
# non-comment, non-blank lines of the tracked library/binary sources, each
# file cut at its first `#[cfg(test)]`. With arguments, counts only those
# files (e.g. `scripts/loc.sh crates/graph/src/json.rs`); `--by-crate`
# prints the same count per crate (`src/` is the root package) before the
# total.
set -eu
cd "$(dirname "$0")/.."
by_crate=0
if [ "${1:-}" = "--by-crate" ]; then
    by_crate=1
    shift
fi
if [ "$#" -eq 0 ]; then
    set -- $(git ls-files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' 'src/*.rs' | sort -u)
fi
awk -v by_crate="$by_crate" '
    FNR==1 { skip=0; crate=FILENAME; if (!sub(/^crates\//, "", crate)) crate="."; sub(/\/.*/, "", crate) }
    /^#\[cfg\(test\)\]/ { skip=1 }
    !skip && !/^[[:space:]]*(\/\/|$)/ { c++; per[crate]++ }
    END {
        if (by_crate) for (k in per) printf "%-8s %d\n", (k == "." ? "src" : k), per[k] | "sort"
        close("sort")
        print c+0
    }' "$@"
