#!/bin/sh
# Codegen gate of the channel-lane micro-kernel (`lane_tile` in
# crates/tensor/src/kernel/lane_tile.rs). Its speed rests on what the
# autovectoriser makes of it, and no test sees that: a tile that gathers,
# shuffles or goes scalar keeps every bit and runs several times slower.
#
# Builds the `kernels` bench (it links both precisions' tiles; or checks the
# binary given as the only argument) and disassembles every `lane_tile`
# symbol in it. Symbol names carry no generic parameters, so a symbol is
# told apart by its arithmetic: one with `ymm` FMAs is an exact (integer)
# tile, one without is an ordered (float) tile. For P pixels (1, 2, 4, and 8
# when the build has 8-pixel tiles) and L lanes (8, 16):
#
# * no symbol holds a gather / scatter, `zmm` arithmetic, a shuffle, or
#   scalar / `xmm` arithmetic;
# * an ordered symbol holds no FMA and as many `vmulps` as `vaddps` on
#   `ymm`: 9*P*L/8 of each, once per (P, L);
# * an exact symbol holds 9*P*L/8 - e*3*L/8 `ymm` FMAs, where e of its two
#   edge tap columns are dropped: per (P >= 2, L) one symbol with e = 0, two
#   with e = 1 and one with e = 2; P = 1 drops none.
#
# The counts are compared as multisets over whatever symbols the binary
# holds, and the binary itself says what it was built for, so the gate
# follows any target flags: it has 8-pixel tiles (AVX-512 targets) if a
# symbol holds more than 72 multiply-adds, which only an 8-pixel 16-lane
# tile reaches; it targets FMA if a symbol holds an FMA. Without FMA the
# exact tiles multiply and add separately, so only the multiset of all
# `vmulps` counts is checked, with at least as many `vaddps` per symbol.
set -eu
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    bin=$1
else
    # The artifact messages on stdout are JSON whatever CARGO_TERM_COLOR says.
    bin=$(cargo bench --locked -p bconv-bench --bench kernels --no-run --message-format=json |
        grep '"name":"kernels","src_path":"[^"]*benches/kernels.rs"' |
        sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' | tail -n 1)
fi
[ -n "$bin" ] && [ -f "$bin" ] || { echo "check_codegen: no kernels bench binary" >&2; exit 1; }

objdump -d --no-show-raw-insn "$bin" | awk '
    /^[0-9a-f]+ <.*lane_tile9lane_tile.*>:$/ { n = $2; gsub(/^<|>:$/, "", n); syms[n] = 1; count++; next }
    /^$/ { n = "" }
    n {
        if (/vfmadd[0-9]*ps.*ymm/) f[n]++
        if (/vmulps.*ymm/) m[n]++
        if (/vaddps.*ymm/) a[n]++
        if (/gather|scatter|zmm/) g[n]++
        if (/vperm|vshuf|vinsert|vblend|vunpck/) s[n]++
        if (/v(mul|add|sub|fmadd[0-9]*)ss|v(mul|add|sub|fmadd[0-9]*)ps.*xmm/) x[n]++
    }
    function fail(msg) { print "check_codegen: " msg; bad++ }
    # Compares the multiset `have` against `want` (count -> symbols).
    function same(have, want, what,    c) {
        for (c in want) if (have[c] != want[c])
            fail((have[c] + 0) " " what " symbols with " c ", want " want[c])
        for (c in have) if (!(c in want)) fail(have[c] " " what " symbols with " c)
    }
    END {
        printf "%-60s %4s %4s %4s %4s %4s %4s\n", "symbol", "fma", "mul", "add", "g/z", "shuf", "xmm"
        for (k in syms) {
            printf "%-60s %4d %4d %4d %4d %4d %4d\n", k, f[k], m[k], a[k], g[k], s[k], x[k]
            if (g[k] + s[k] + x[k] > 0) fail(k " holds gathers, zmm, shuffles or scalar arithmetic")
            if (f[k] > 0) fma = 1
            if (f[k] > 72 || m[k] > 72) tile8 = 1
        }
        if (count == 0) fail("no lane_tile symbol found")
        for (p = 1; p <= 8; p *= 2) {
            if (p == 8 && !tile8) continue
            for (l = 8; l <= 16; l += 8) {
                full = 9 * p * l / 8; edge = 3 * l / 8
                want_ordered[full]++
                want_exact[full]++
                if (p > 1) { want_exact[full - edge] += 2; want_exact[full - 2 * edge]++ }
            }
        }
        for (k in syms) {
            if (!fma) {
                if (a[k] < m[k]) fail(k " holds " m[k] " vmulps but " a[k] " vaddps")
                muls[m[k]]++
            } else if (f[k] > 0) {
                if (m[k] > 0) fail(k " mixes FMAs and multiplies")
                exact[f[k]]++
            } else if (m[k] != a[k]) fail(k " holds " m[k] " vmulps but " a[k] " vaddps")
            else ordered[m[k]]++
        }
        if (fma) {
            same(ordered, want_ordered, "ordered")
            same(exact, want_exact, "exact")
        } else {
            for (c in want_ordered) want_exact[c] += want_ordered[c]
            same(muls, want_exact, "vmulps")
        }
        if (bad) exit 1
        printf "check_codegen: %d lane_tile symbols OK (8-pixel tiles: %s, FMA: %s)\n",
            count, tile8 ? "yes" : "no", fma ? "yes" : "no"
    }'
