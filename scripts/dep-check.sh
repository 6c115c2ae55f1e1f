#!/bin/sh
# dep-check: fail when the import graph differs from the table DESIGN.md
# §6 writes down.
#
# The §6 table has one row per package under internal/ and cmd/: the package
# (`engine`, `cmd/aiacrun`), then, in code spans, the module packages it may
# import (`aiac` is the root facade). It compares that table with
#   go list -f '{{.ImportPath}} {{.Imports}}' ./internal/... ./cmd/...
# (non-test imports) and prints
#   - every import of a module package its importer's row does not list,
#   - every package without a row,
#   - every row naming a package that does not exist.
#
# usage: scripts/dep-check.sh [design-file]   (run from the repository root;
# design-file defaults to DESIGN.md)
set -u
design=${1:-DESIGN.md}
GO=${GO:-go}

[ -f "$design" ] || { echo "dep-check: $design: missing"; exit 1; }

# "T pkg dep dep ..." per table row of §6
table=$(awk '/^## 6\. /{in6 = 1; next} /^## /{in6 = 0} in6 && /^\| `/' "$design" |
	awk -F'|' '{
		pkg = $2; gsub(/[` ]/, "", pkg)
		deps = ""; rest = $3
		while (match(rest, /`[^`]+`/)) {
			deps = deps " " substr(rest, RSTART + 1, RLENGTH - 2)
			rest = substr(rest, RSTART + RLENGTH)
		}
		print "T " pkg deps
	}')
[ -n "$table" ] || { echo "dep-check: $design: no import table in section 6"; exit 1; }

# "A pkg dep dep ..." per package, module imports only, named as in the table
actual=$("$GO" list -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}' ./internal/... ./cmd/... |
	awk 'function short(p) { sub(/^aiac\/internal\//, "", p); sub(/^aiac\//, "", p); return p }
	{
		line = "A " short($1)
		for (i = 2; i <= NF; i++)
			if ($i == "aiac" || $i ~ /^aiac\//)
				line = line " " short($i)
		print line
	}') || { echo "dep-check: go list failed"; exit 1; }

missing=$(printf '%s\n%s\n' "$table" "$actual" | awk '
	$1 == "T" { row[$2] = 1; for (i = 3; i <= NF; i++) ok[$2 " " $i] = 1; next }
	$1 == "A" {
		seen[$2] = 1
		if (!($2 in row)) print $2 ": no row in the table"
		for (i = 3; i <= NF; i++)
			if (!(($2 " " $i) in ok)) print $2 " imports " $i ": not in the table"
	}
	END { for (p in row) if (!(p in seen)) print p ": row for a package that does not exist" }' | sort)

[ -z "$missing" ] && exit 0
echo "$missing" | sed "s|^|dep-check: $design §6: |"
exit 1
