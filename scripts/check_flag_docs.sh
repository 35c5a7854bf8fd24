#!/usr/bin/env bash
# Fails when README.md does not mention a flag that `xtalkd -h` lists, so
# adding, renaming or removing a daemon knob cannot drift from the flag
# guide. Run it from the repository root:
#
#   ./scripts/check_flag_docs.sh
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/xtalkd" ./cmd/xtalkd
# flag.PrintDefaults starts each flag's entry with "  -name".
help=$("$tmp/xtalkd" -h 2>&1 || true)
names=$(sed -n 's/^  -\([a-z0-9-]*\).*/\1/p' <<<"$help")
if [ -z "$names" ]; then
	echo "check_flag_docs: no flags parsed from xtalkd -h" >&2
	exit 1
fi
missing=0
for name in $names; do
	# -name must end there: -store is not documented by -store-mb.
	if ! grep -qE -- "-${name}([^a-z0-9-]|\$)" README.md; then
		echo "README.md does not mention xtalkd flag -$name" >&2
		missing=1
	fi
done
[ "$missing" -eq 0 ] && echo "check_flag_docs: all $(wc -w <<<"$names") xtalkd flags documented"
exit "$missing"
