#!/bin/sh
# Whether two builds hold the same code on the paths the 3×3 sweeps and the
# fused block loop run, and the same stack frames there: the symbols below,
# which no other gate checks. Their speed follows their code and, through
# where the kernels' stack sits, their frames: an extra call site the
# inliner kept out of line slowed a thin layer by ≈ 20 %, and 160 bytes more
# on `run_block`'s frame read 3.6–4.2 % on a benchmark workload that runs no
# code that changed.
#
# Usage: scripts/same_code.sh PARENT_BIN CHANGE_BIN — two `kernels` bench
# binaries, the binary `scripts/check_codegen.sh` builds (`cargo bench -p
# bconv-bench --bench kernels --no-run`; copy the parent's out of a build of
# the parent before building the change).
#
# For each symbol it prints the number of functions of that name in each
# binary and their stack frames (`sub $N,%rsp`; `-` for none). The bodies are
# compared after addresses, hash suffixes, RIP-relative displacements,
# branch-target offsets and alignment padding are stripped, as a multiset
# per name (legacy mangling hides generic parameters, so one name may have
# several bodies). Exits 1 if any name differs in its bodies or frames.
set -eu

if [ "$#" -ne 2 ] || [ ! -f "$1" ] || [ ! -f "$2" ]; then
    echo "usage: scripts/same_code.sh PARENT_BIN CHANGE_BIN" >&2
    exit 2
fi

# `label=mangled-name fragment` (the fragment ends where the hash begins).
SYMBOLS='lane_tile::lane_tile=9lane_tile9lane_tile17h
plane::sweep_chunk=5plane11sweep_chunk17h
plane::emit_pass=5plane9emit_pass17h
sweep_lanes=11sweep_lanes17h
plane::sweep=5plane5sweep17h
lane_conv=9lane_tile9lane_conv17h
conv3x3=9lane_tile7conv3x317h
qgemm::exact_conv=5qgemm10exact_conv17h
qgemm::quantized_conv_at=5qgemm17quantized_conv_at17h
FusedChain::run_block=10FusedChain9run_block17h
PlanExecutor::run_image=12PlanExecutor9run_image17h
FusedChain::run_fused_into=10FusedChain14run_fused_into17h
QuantChainOp::forward_quantized_at=12QuantChainOp20forward_quantized_at17h
PackedWeights::store_plain=13PackedWeights11store_plain17h'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Writes each matching function's normalised body to `$dir/<label>.<n>` and
# its frame to `$dir/<label>.<n>.frame`.
extract() {
    mkdir -p "$2"
    objdump -d --no-show-raw-insn "$1" | awk -v dir="$2" -v syms="$SYMBOLS" '
        BEGIN {
            n = split(syms, lines, "\n")
            for (i = 1; i <= n; i++) {
                eq = index(lines[i], "=")
                label[i] = substr(lines[i], 1, eq - 1)
                frag[i] = substr(lines[i], eq + 1)
            }
        }
        /^[0-9a-f]+ <.*>:$/ {
            out = ""
            for (i = 1; i <= n; i++) {
                if (index($2, frag[i])) {
                    count[i]++
                    out = dir "/" label[i] "." count[i]
                    frame = "-"
                    pushes = 0
                    prologue = 1
                }
            }
            next
        }
        /^$/ {
            if (out != "") {
                if (frame == "-" && pushes > 0) frame = ""
                if (pushes > 0) frame = pushes "p" (frame == "" ? "" : "+" frame)
                print frame > (out ".frame")
            }
            out = ""
            next
        }
        out != "" {
            line = $0
            if (line ~ /nop|xchg +%ax,%ax/) next
            sub(/^ *[0-9a-f]+:[ \t]*/, "", line)
            sub(/ *#.*/, "", line)
            gsub(/17h[0-9a-f]+E/, "", line)
            gsub(/\.llvm\.[0-9]+/, "", line)
            gsub(/\+0x[0-9a-f]+>/, ">", line)
            gsub(/[0-9a-f]+ </, "<", line)
            gsub(/-?0x[0-9a-f]+\(%rip\)/, "(%rip)", line)
            if (prologue && line ~ /^push /) pushes++
            else prologue = 0
            if (frame == "-" && line ~ /^sub +\$0x[0-9a-f]+,%rsp$/) {
                frame = line
                sub(/^sub +\$/, "", frame)
                sub(/,%rsp$/, "", frame)
            }
            print line > out
        }
    '
}

extract "$1" "$tmp/parent"
extract "$2" "$tmp/change"

# The sorted checksums of a label's bodies, and its sorted frames.
bodies() {
    for f in "$1"/"$2".*; do
        case $f in *.frame | *'.*') ;; *) cksum <"$f" ;; esac
    done | sort | tr '\n' ' '
}
frames() {
    for f in "$1"/"$2".*.frame; do
        [ -f "$f" ] && cat "$f"
    done | sort | tr '\n' ' '
}

status=0
echo "$SYMBOLS" | while IFS='=' read -r label _; do
    pb=$(bodies "$tmp/parent" "$label")
    cb=$(bodies "$tmp/change" "$label")
    pf=$(frames "$tmp/parent" "$label")
    cf=$(frames "$tmp/change" "$label")
    pn=$(ls "$tmp/parent" | grep -c "^$label\.[0-9]*$" || true)
    cn=$(ls "$tmp/change" | grep -c "^$label\.[0-9]*$" || true)
    verdict=same
    if [ "$pb" != "$cb" ]; then
        verdict="BODIES DIFFER"
    fi
    if [ "$pf" != "$cf" ]; then
        verdict="$verdict, FRAMES DIFFER"
        verdict=${verdict#same, }
    fi
    printf '%-34s parent %2d: [ %s]  change %2d: [ %s]  %s\n' "$label" "$pn" "$pf" "$cn" "$cf" "$verdict"
    [ "$verdict" = same ] || echo differ >>"$tmp/status"
done
if [ -f "$tmp/status" ]; then
    echo "same_code: the builds differ" >&2
    status=1
fi
exit $status
