#!/bin/sh
# API-surface and size report, run by CI's clippy job (`surface` step)
# and by hand for the "net LoC" line of a PR description.
#
#   .github/surface.sh [BASE]     BASE defaults to the merge base with
#                                 origin/main
#
# Fails if any `pub fn X_with_io` under crates/ has a sibling
# `pub fn X`: the IO-less twin pattern was removed on purpose (callers
# pass `&StdIo`) and must not quietly return. Fails too if a vbench or
# tablegen binary parses flags by hand again instead of through the
# per-command tables in `vbench::cli`, if a non-test line under
# crates/*/src writes a JSON object in a format string instead of
# through `vtrace::json::Object`, matches a trace line's kind outside
# `vtrace::stream` or names the bitstream syntax (vcodec's `MAGIC`,
# `VERSION`, `CtxClass::Mode`) outside `vcodec::syntax`, if `unsafe`
# appears anywhere under crates/*/src but the CPU-feature dispatch calls
# in vpack's crc32 and vframe's isa macro, or if `#[target_feature]` or
# `is_x86_feature_detected!` appears outside those two files.
#
# Prints `git diff --numstat BASE` summed per category — code
# (crates/**/src), tests (tests/, crates/*/tests, benches), docs (*.md),
# other — and the count of non-test, non-comment source lines under
# crates/ at BASE and now (lines before a file's first `#[cfg(test)]`
# that are neither blank nor `//` comments).
set -eu

base=${1:-$(git merge-base HEAD origin/main)}

status=0
for name in $(grep -rhoE 'pub fn [a-z0-9_]+_with_io' crates --include='*.rs' |
    sed -E 's/^pub fn (.*)_with_io$/\1/' | sort -u); do
    if grep -rqE "pub fn ${name}[(<]" crates --include='*.rs'; then
        echo "surface: pub fn ${name} exists beside pub fn ${name}_with_io" >&2
        status=1
    fi
done

if grep -nE 'HashMap<String, String>|fn parse_flags|strip_prefix\("--"\)' \
    crates/core/src/bin/*.rs crates/bench/src/bin/*.rs >&2; then
    echo "surface: a binary parses its own flags; declare them in vbench::cli" >&2
    status=1
fi

# Source files under crates/*/src, one per line.
sources() {
    git ls-files crates | grep -E '^crates/[^/]+/src/.*\.rs$'
}

# JSON documents are written through vtrace::json::Object. A JSON object
# in a format string (`{{\"`) on a non-test line is a hand-rolled writer
# coming back. journal/record.rs is exempt: the journal record codec
# formats its lines itself because it is on the benchmark's hot path, and
# golden literals plus a cross-commit fixture pin its bytes.
for f in $(sources | grep -vx 'crates/core/src/journal/record\.rs'); do
    [ -f "$f" ] || continue
    if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            index($0, "{{\\\"") { print FILENAME ":" FNR ": " $0; found = 1 }
            END { exit !found }' "$f" >&2; then
        echo "surface: $f writes JSON by hand; use vtrace::json::Object" >&2
        status=1
    fi
done

# The trace stream is read through vtrace::stream::Event. A non-test
# line outside crates/vtrace/src that matches a line kind by hand
# (`Some("span")`) is a second reader of the format coming back.
for f in $(sources | grep -v '^crates/vtrace/src/'); do
    [ -f "$f" ] || continue
    if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            /Some\("(span|header|log)"\)/ { print FILENAME ":" FNR ": " $0; found = 1 }
            END { exit !found }' "$f" >&2; then
        echo "surface: $f reads trace lines by hand; use vtrace::stream::Event" >&2
        status=1
    fi
done

# The bitstream container and the superblock mode codes are written and
# read in vcodec::syntax. A non-test, non-comment line elsewhere under
# crates/*/src that names vcodec's `MAGIC` or `VERSION`, or the mode-code
# context `CtxClass::Mode`, is a second writer or reader of the format
# coming back. entropy.rs defines the context and is exempt.
for f in $(sources | grep -vxE 'crates/vcodec/src/(syntax|entropy)\.rs'); do
    [ -f "$f" ] || continue
    if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            /(^|[^A-Za-z0-9_])(MAGIC|VERSION)([^A-Za-z0-9_]|$)|CtxClass::Mode/ {
                print FILENAME ":" FNR ": " $0; found = 1
            }
            END { exit !found }' "$f" >&2; then
        echo "surface: $f writes or reads the bitstream syntax; use vcodec::syntax" >&2
        status=1
    fi
done

# `unsafe` lives in two places: the CPU-feature dispatch in vpack's
# crc32 (one call under its own `allow(unsafe_code)`), and the rung
# dispatch `vframe::isa::multiversion!` expands to (one call per wider
# rung, each under its own `allow`). Any other `unsafe` block, fn, impl,
# trait or extern, or any other lint allowance for one, on a non-comment
# line under crates/*/src (tests included) fails.
unsafe_lines=$(for f in $(sources); do
    [ -f "$f" ] && grep -nHE 'unsafe[[:space:]]*(\{|fn\b|impl\b|trait\b|extern\b)|allow\(unsafe_code\)' "$f"
done | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
allowed() {
    printf '%s\n' "$unsafe_lines" | grep -cE "$1"
}
if [ "$(printf '%s\n' "$unsafe_lines" | grep -c .)" -ne 6 ] ||
    [ "$(allowed '^crates/vpack/src/crc\.rs:[0-9]+:[[:space:]]*#\[allow\(unsafe_code\)\]$')" -ne 1 ] ||
    [ "$(allowed '^crates/vpack/src/crc\.rs:[0-9]+:.*= unsafe \{ clmul::fold\(')" -ne 1 ] ||
    [ "$(allowed '^crates/vframe/src/isa\.rs:[0-9]+:[[:space:]]*#\[allow\(unsafe_code\)\]$')" -ne 2 ] ||
    [ "$(allowed '^crates/vframe/src/isa\.rs:[0-9]+:[[:space:]]*\$crate::isa::Rung::Avx2 => return unsafe \{ avx2\(')" -ne 1 ] ||
    [ "$(allowed '^crates/vframe/src/isa\.rs:[0-9]+:[[:space:]]*\$crate::isa::Rung::Avx512 => return unsafe \{ avx512\(')" -ne 1 ]; then
    printf '%s\n' "$unsafe_lines" >&2
    echo "surface: unsafe code outside the dispatch calls in crates/vpack/src/crc.rs and crates/vframe/src/isa.rs" >&2
    status=1
fi

# CPU features are enabled and detected only where that `unsafe` lives:
# a `#[target_feature]` or `is_x86_feature_detected!` elsewhere is a
# second dispatch growing outside `vframe::isa`.
for f in $(sources | grep -vxE 'crates/vframe/src/isa\.rs|crates/vpack/src/crc\.rs'); do
    [ -f "$f" ] || continue
    if grep -nHE '#\[target_feature|is_x86_feature_detected!' "$f" |
        grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' >&2; then
        echo "surface: $f enables or detects CPU features; use vframe::isa::multiversion!" >&2
        status=1
    fi
done

git diff --numstat "$base" | awk '
    { cat = "other" }
    $3 ~ /\.md$/ { cat = "docs" }
    $3 ~ /^crates\/[^\/]+\/src\// { cat = "code" }
    $3 ~ /^tests\// || $3 ~ /^crates\/[^\/]+\/(tests|benches)\// { cat = "tests" }
    $1 != "-" { add[cat] += $1; del[cat] += $2 }
    END {
        for (i = split("code tests docs other", cats, " "); i >= 1; i--) order[i] = cats[i]
        for (i = 1; i <= 4; i++) {
            c = order[i]
            printf "surface: %-5s +%d -%d (net %+d)\n", c, add[c], del[c], add[c] - del[c]
        }
    }'

# Non-test, non-comment lines of one source file on stdin.
count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
         END { print n + 0 }'
}

before=0
for f in $(git ls-tree -r --name-only "$base" crates | grep -E '^crates/[^/]+/src/.*\.rs$'); do
    before=$((before + $(git show "$base:$f" | count)))
done
after=0
for f in $(sources); do
    [ -f "$f" ] && after=$((after + $(count < "$f")))
done
echo "surface: non-test non-comment lines under crates/: $before -> $after ($((after - before)))"

exit $status
