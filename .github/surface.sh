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
# in vpack's crc32 and vframe's isa macro, if `#[target_feature]` or
# `is_x86_feature_detected!` appears outside those two files, if a
# non-test line of the executor or the resilience layer reads or waits
# on time outside `exec::clock`, or if a `pub fn` under crates/*/src is
# referenced nowhere but its own crate's unit tests and is not on the
# allow-list below.
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

# Time in the executor and the resilience layer is read through one
# `exec::clock::Clock`, which tests replace with a virtual one. A non-test,
# non-comment line elsewhere in crates/core/src/exec/ or in resilience.rs
# that calls the system clock or sleeps is a wait no test can skip.
for f in $(sources | grep -E '^crates/core/src/(exec/[^/]+|resilience)\.rs$' |
    grep -vx 'crates/core/src/exec/clock\.rs'); do
    [ -f "$f" ] || continue
    if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            /Instant::now|SystemTime::now|thread::sleep|park_timeout/ {
                print FILENAME ":" FNR ": " $0; found = 1
            }
            END { exit !found }' "$f" >&2; then
        echo "surface: $f reads or waits on time; use exec::clock::Clock" >&2
        status=1
    fi
done

# Dead public surface: every `pub fn` under crates/*/src needs a
# reference outside the unit tests: in non-test code or docs (doc
# examples and links count, plain `//` comments do not) under crates/,
# or anywhere in tests/, crates/*/tests, examples/ or benchmark/src. The
# scan is by name, so a reference to any item of the same name counts.
# Functions kept without one are listed here, each with its reason:
#   is_fixed      vhw::catalog's fixed-function query; only a vbench
#                 fleet unit test asks it
#   with_backoff  ResilienceConfig's backoff setter, set by one unit
#                 test; deleted with the backoff fields when the journal
#                 format moves to v2 (ROADMAP item 6(a))
dead_allowed='is_fixed with_backoff'
dead=$(for f in $(git ls-files crates tests examples benchmark/src | grep -E '\.rs$'); do
    [ -f "$f" ] || continue
    case $f in crates/*/src/*) src=1 ;; *) src=0 ;; esac
    awk -v src=$src '
        src && /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\/([^\/!]|$)/ { next }
        {
            line = $0
            if (src && match(line, /pub fn [A-Za-z0-9_]+/)) {
                print "def", substr(line, RSTART + 7, RLENGTH - 7), FILENAME ":" FNR
            }
            while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                print "ref", substr(line, RSTART, RLENGTH)
                line = substr(line, RSTART + RLENGTH)
            }
        }' "$f"
done | awk -v allowed="$dead_allowed" '
    BEGIN { n = split(allowed, names, " "); for (i = 1; i <= n; i++) ok[names[i]] = 1 }
    $1 == "def" { defs[$2]++; at[$2] = at[$2] " " $3; next }
    { refs[$2]++ }
    END { for (name in defs) if (refs[name] <= defs[name] && !(name in ok)) print name ":" at[name] }')
if [ -n "$dead" ]; then
    printf '%s\n' "$dead" >&2
    echo "surface: pub fn referenced only by unit tests; use it, delete it, or allow-list it" >&2
    status=1
fi

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
