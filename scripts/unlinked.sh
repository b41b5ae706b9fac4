#!/usr/bin/env bash
# unlinked.sh lists the functions and methods declared in internal/ that no
# binary links, and fails when that list differs from unlinked.allow.
#
# It builds every command, every example and bench/tgbench with inlining
# off (so a function the compiler would inline still shows up as a symbol),
# reads the linked symbols with `go tool nm`, folds generic instantiations
# such as F[go.shape.int] back to F, and compares them with the `func`
# declarations in internal/'s non-test files. Run it from anywhere as
# scripts/unlinked.sh; on a mismatch it prints the diff, whose + lines are
# unlinked functions the allowlist lacks.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mod=$(go list -m)
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd bench && go build -gcflags=all=-l -o "$tmp/bin/" ./tgbench)

# Linked: text symbols under internal/, with every bracketed type-argument
# list removed; the lists nest (go.shape.map[string]int), so count depth.
for b in "$tmp"/bin/*; do go tool nm "$b"; done |
	sed -n "s|^ *[0-9a-f]* [Tt] $mod/internal/||p" |
	awk '{
		out = ""; depth = 0
		for (i = 1; i <= length($0); i++) {
			c = substr($0, i, 1)
			if (c == "[") depth++
			else if (c == "]") depth--
			else if (depth == 0) out = out c
		}
		print out
	}' | sort -u >"$tmp/linked"

# Declared: gofmt puts every declaration at the start of a line as
# "func (r *T[P]) M(" or "func F[P any](", which maps to the symbol
# pkg.(*T).M or pkg.F. init and blank functions have no stable symbol.
for f in internal/*/*.go; do
	case $f in *_test.go) continue ;; esac
	pkg=$(basename "$(dirname "$f")")
	sed -n -E \
		-e 's/^func \(([A-Za-z0-9_]+ )?\*([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/(*\2).\4/p' \
		-e 's/^func \(([A-Za-z0-9_]+ )?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/\2.\4/p' \
		-e 's/^func ([A-Za-z0-9_]+).*/\1/p' "$f" |
		grep -v -E '^(init|_)$' | sed "s/^/$pkg./"
done | sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/linked" >"$tmp/unlinked"
sed -e 's/#.*//' -e 's/[[:space:]]*$//' scripts/unlinked.allow | grep -v '^$' | sort >"$tmp/allow"
if ! diff -u "$tmp/allow" "$tmp/unlinked"; then
	echo "unlinked.sh: the functions no binary links differ from scripts/unlinked.allow" >&2
	echo "(+ is unlinked and not allowed: delete it or allow it with a reason; - is allowed but now linked or gone)" >&2
	exit 1
fi
