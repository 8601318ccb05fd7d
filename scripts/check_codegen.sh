#!/bin/sh
# Codegen gate of the 3×3 stride-1 sweeps: the channel-lane micro-kernel
# (`lane_tile` in crates/tensor/src/kernel/lane_tile.rs) and the reduction
# of the spatial-lane sweep (`sweep_chunk` in
# crates/tensor/src/kernel/plane.rs). Their speed rests on what the
# autovectoriser makes of them, and no test sees that: a sweep that
# gathers, shuffles or goes scalar keeps every bit and runs several times
# slower.
#
# Builds the `kernels` bench (it links both precisions' sweeps; or checks
# the binary given as the only argument) and disassembles every `lane_tile`
# and `sweep_chunk` symbol in it. Symbol names carry no generic parameters,
# so a symbol is told apart by its arithmetic: one with `ymm` FMAs is an
# exact (integer) instantiation, one without an ordered (float) one.
#
# The tile, for P pixels (1, 2, 4, and 8 when the build has 8-pixel tiles)
# and L lanes (8, 16):
#
# * no symbol holds a gather / scatter, `zmm` arithmetic, a shuffle, or
#   scalar / `xmm` arithmetic;
# * an ordered symbol holds no FMA and as many `vmulps` as `vaddps` on
#   `ymm`: 9*P*L/8 of each, once per (P, L);
# * an exact symbol holds 9*P*L/8 - e*3*L/8 `ymm` FMAs, where e of its two
#   edge tap columns are dropped: per (P >= 2, L) one symbol with e = 0, two
#   with e = 1 and one with e = 2; P = 1 drops none.
#
# The spatial-lane reduction, for passes of M = 1, 3 and 4 output channels,
# each two 8-lane vectors wide, holds 2*M multiply-adds per tap: 18*M when
# LLVM unrolls its loop over the three kernel rows, 6*M when it keeps it.
# Per M and policy one symbol holds either count:
#
# * no symbol holds a gather / scatter, `zmm` arithmetic, a shuffle, or
#   scalar / `xmm` arithmetic;
# * an ordered symbol holds no FMA and as many `vmulps` as `vaddps` on
#   `ymm` — the float passes read 18 / 54 / 24 for M = 1 / 3 / 4;
# * an exact symbol holds that many `ymm` FMAs and no `vmulps` (its
#   one-channel pass adds its three row sets with a few `vaddps`) — 18 / 54
#   / 24.
#
# The counts are compared as multisets over whatever symbols the binary
# holds, and the binary itself says what it was built for, so the gate
# follows any target flags: it has 8-pixel tiles (AVX-512 targets) if a
# symbol holds more than 72 multiply-adds, which only an 8-pixel 16-lane
# tile reaches; it targets FMA if a symbol holds an FMA. Without FMA the
# exact instantiations multiply and add separately, so only the multiset of
# all `vmulps` counts is checked, with at least as many `vaddps` per symbol.
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
    /^[0-9a-f]+ <.*5plane11sweep_chunk.*>:$/ { n = $2; gsub(/^<|>:$/, "", n); sweeps[n] = 1; nsweep++; next }
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
    # Takes `copies` spatial-lane symbols per pass width M out of the
    # multiset `have` (18*M multiply-adds, or 6*M); nothing may be left.
    function passes(have, copies, what,    i, m, c) {
        for (i = 0; i < copies; i++) for (m = 4; m >= 1; m--) {
            if (m == 2) continue
            if (have[18 * m] > 0) have[18 * m]--
            else if (have[6 * m] > 0) have[6 * m]--
            else fail("no " what " spatial-lane symbol with " 18 * m " or " 6 * m)
        }
        for (c in have) if (have[c] > 0) fail(have[c] " " what " spatial-lane symbols with " c)
    }
    function row(k) {
        printf "%-60s %4d %4d %4d %4d %4d %4d\n", k, f[k], m[k], a[k], g[k], s[k], x[k]
        if (g[k] + s[k] + x[k] > 0) fail(k " holds gathers, zmm, shuffles or scalar arithmetic")
        if (f[k] > 0) fma = 1
    }
    END {
        printf "%-60s %4s %4s %4s %4s %4s %4s\n", "symbol", "fma", "mul", "add", "g/z", "shuf", "xmm"
        for (k in syms) {
            row(k)
            if (f[k] > 72 || m[k] > 72) tile8 = 1
        }
        for (k in sweeps) row(k)
        if (count == 0) fail("no lane_tile symbol found")
        if (nsweep == 0) fail("no sweep_chunk symbol found")
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
        for (k in sweeps) {
            if (!fma) {
                if (a[k] < m[k]) fail(k " holds " m[k] " vmulps but " a[k] " vaddps")
                sweep_muls[m[k]]++
            } else if (f[k] > 0) {
                if (m[k] > 0) fail(k " mixes FMAs and multiplies")
                sweep_exact[f[k]]++
            } else if (m[k] != a[k]) fail(k " holds " m[k] " vmulps but " a[k] " vaddps")
            else sweep_ordered[m[k]]++
        }
        if (fma) {
            same(ordered, want_ordered, "ordered")
            same(exact, want_exact, "exact")
            passes(sweep_ordered, 1, "ordered")
            passes(sweep_exact, 1, "exact")
        } else {
            for (c in want_ordered) want_exact[c] += want_ordered[c]
            same(muls, want_exact, "vmulps")
            passes(sweep_muls, 2, "vmulps")
        }
        if (bad) exit 1
        printf "check_codegen: %d lane_tile and %d sweep_chunk symbols OK (8-pixel tiles: %s, FMA: %s)\n",
            count, nsweep, tile8 ? "yes" : "no", fma ? "yes" : "no"
    }'
