#!/bin/sh
# results-check: fail when an artifact embedded in EXPERIMENTS.md differs
# from what the code prints today.
#
# Runs `paperexp -scale full -o` (and, for the diagnostics artifact, which
# EXPERIMENTS.md embeds at quick scale, `paperexp -scale quick -exp diag -o`)
# into a fresh temporary directory. Then it cuts the fenced blocks under
# "## Full-scale measured artifacts" into reports, one per "== <id> — " header
# line, and diffs each against the <id>.txt the run wrote; the block's
# "shape checks: N/M OK" line is diffed against the full run's last line.
# Trailing blank lines are ignored on both sides. A report of the run that no
# block embeds is not an error.
#
# usage: scripts/results-check.sh   (from the repository root; ~6 min)
set -u
GO=${GO:-go}
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

"$GO" build -o "$dir/paperexp" ./cmd/paperexp || exit 1
"$dir/paperexp" -scale full -o "$dir/full" >"$dir/full.out" || exit 1
"$dir/paperexp" -scale quick -exp diag -o "$dir/quick" >/dev/null || exit 1
tail -n 1 "$dir/full.out" >"$dir/full/summary.txt"

# Split the section's blocks into embedded/<id>.txt and embedded/summary.txt.
mkdir "$dir/embedded"
awk -v out="$dir/embedded" '
	/^## / { section = ($0 == "## Full-scale measured artifacts") }
	!section { next }
	/^```/ { inblock = !inblock; file = ""; next }
	!inblock { next }
	/^== [A-Za-z0-9-]+ — / { file = out "/" $2 ".txt"; print > file; next }
	/^shape checks: / { file = out "/summary.txt"; print > file; file = ""; next }
	file != "" { print > file }
' EXPERIMENTS.md

# strip drops trailing blank lines.
strip() { sed -e ':a' -e '/^\n*$/{$d;N;ba' -e '}' "$1"; }

n=0
fail=0
for emb in "$dir"/embedded/*.txt; do
	[ -e "$emb" ] || break
	name=$(basename "$emb")
	got=$dir/full/$name
	[ "$name" = diag.txt ] && got=$dir/quick/$name
	n=$((n + 1))
	if [ ! -e "$got" ]; then
		echo "EXPERIMENTS.md embeds ${name%.txt}, which paperexp no longer writes"
		fail=1
		continue
	fi
	strip "$got" >"$dir/want"
	strip "$emb" >"$dir/have"
	if ! diff -u --label "paperexp: $name" --label "EXPERIMENTS.md: $name" "$dir/want" "$dir/have"; then
		fail=1
	fi
done
if [ "$n" -eq 0 ]; then
	echo "EXPERIMENTS.md: no embedded artifact found under \"## Full-scale measured artifacts\""
	exit 1
fi
[ "$fail" -eq 0 ] && echo "EXPERIMENTS.md: $n embedded artifacts match paperexp"
exit $fail
