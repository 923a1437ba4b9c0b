#!/bin/sh
# API-surface and size report, run by CI's clippy job (`surface` step)
# and by hand for the "net LoC" line of a PR description.
#
#   .github/surface.sh [BASE]     BASE defaults to the merge base with
#                                 origin/main
#
# Fails if any `pub fn X_with_io` under crates/ has a sibling
# `pub fn X`: the IO-less twin pattern was removed on purpose (callers
# pass `&StdIo`) and must not quietly return.
#
# Prints `git diff --numstat BASE` summed per category — code
# (crates/**/src), tests (tests/, crates/*/tests, benches), docs (*.md),
# other — and the count of non-test, non-comment source lines under
# crates/ at BASE and now (lines before a file's first `#[cfg(test)]`
# that are neither blank nor `//` comments).
set -eu

base=${1:-$(git merge-base HEAD origin/main)}

twins=0
for name in $(grep -rhoE 'pub fn [a-z0-9_]+_with_io' crates --include='*.rs' |
    sed -E 's/^pub fn (.*)_with_io$/\1/' | sort -u); do
    if grep -rqE "pub fn ${name}[(<]" crates --include='*.rs'; then
        echo "surface: pub fn ${name} exists beside pub fn ${name}_with_io" >&2
        twins=1
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
for f in $(git ls-files crates | grep -E '^crates/[^/]+/src/.*\.rs$'); do
    [ -f "$f" ] && after=$((after + $(count < "$f")))
done
echo "surface: non-test non-comment lines under crates/: $before -> $after ($((after - before)))"

exit $twins
