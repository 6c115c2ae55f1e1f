#!/bin/sh
# doc-check: fail when the docs name something the repository does not have.
#
# From README.md, DESIGN.md, EXPERIMENTS.md and the verify skill it takes
#   - every `make <target>` (in a code span or at the start of a line),
#   - every code span that is a repository path ending in .go or /,
#   - every -flag that follows the name aiacrun or paperexp on its command
#     line, and every code span starting with a -flag on a line naming them,
# and checks them against `make -qp`, the file system and the commands' own
# -h output. bench/README.md is left out: bench/ is frozen between benchmark
# PRs (BENCHMARK.json).
#
# usage: scripts/doc-check.sh [docs-dir]   (run from the repository root;
# docs-dir, default ".", is where the four documents are read from, so that
# another commit's docs can be checked against this commit's code)
set -u
docs_dir=${1:-.}
docs="README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md"
GO=${GO:-go}

targets=$(make -qp 2>/dev/null | awk -F: '/^[A-Za-z0-9][A-Za-z0-9_.-]*:([^=]|$)/ {print $1}' | sort -u)
flags_of() {
	"$GO" run "./cmd/$1" -h 2>&1 | sed -n 's/^  -\([a-zA-Z0-9-]*\).*/\1/p'
}
aiacrun_flags=$(flags_of aiacrun)
paperexp_flags=$(flags_of paperexp)

# check prints one line per thing the document names that does not exist.
check() {
	doc=$1
	[ -f "$docs_dir/$doc" ] || { echo "$doc: missing"; return; }
	# one logical line per command: backslash continuations joined, shell
	# comments dropped
	text=$(sed -e ':a' -e '/\\$/{N;s/\\\n[[:space:]]*/ /;ba' -e '}' -e 's/[[:space:]]#.*$//' "$docs_dir/$doc")

	for t in $(echo "$text" | grep -oE '(^|`)[[:space:]]*make [a-z][a-z0-9-]*' | sed 's/.*make //' | sort -u); do
		echo "$targets" | grep -qx "$t" || echo "$doc: make $t: no such target"
	done

	for p in $(echo "$text" | grep -oE '`[A-Za-z0-9_./-]+(\.go|/)`' | tr -d '`' | sort -u); do
		[ -e "$p" ] || echo "$doc: $p: no such path"
	done

	# every pipeline segment that names aiacrun or paperexp: its -flags must
	# be flags of the commands it names
	echo "$text" | tr '|' '\n' | grep -wE 'aiacrun|paperexp' | while IFS= read -r line; do
		known=
		case $line in *aiacrun*) known="$known $aiacrun_flags" ;; esac
		case $line in *paperexp*) known="$known $paperexp_flags" ;; esac
		# flags after the command's name, and code spans that start with one
		for f in $({
			echo "$line" | awk 'match($0, /aiacrun|paperexp/) {print substr($0, RSTART+RLENGTH)}' |
				grep -oE '[[:space:]]-[A-Za-z][A-Za-z0-9-]*'
			echo "$line" | grep -oE '`-[A-Za-z][A-Za-z0-9-]*'
		} | sed 's/^[^-]*-//'); do
			echo $known | tr ' ' '\n' | grep -qx -- "$f" || echo "$doc: -$f: not a flag of the command named beside it"
		done
	done | sort -u
}

missing=$(for doc in $docs; do check "$doc"; done)
[ -z "$missing" ] && exit 0
echo "$missing" | sed 's/^/doc-check: /'
exit 1
