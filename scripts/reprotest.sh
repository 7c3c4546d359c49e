#!/usr/bin/env bash
# Reproduction pin: regenerate every experiment table at full scale and
# seed 42, then compare each committed results/*.csv with its fresh copy
# byte for byte. Exits 1 naming every file that differs or was not
# regenerated. The run also writes ablation-*.csv files that results/
# does not commit; only committed files are compared. About 1.5
# minutes on 2 vCPUs.
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$GO" run ./cmd/rhmd-bench -scale full -seed 42 -csv "$tmp" >/dev/null

status=0
count=0
for f in results/*.csv; do
	count=$((count + 1))
	fresh="$tmp/$(basename "$f")"
	if [ ! -f "$fresh" ]; then
		echo "reprotest: $f was not regenerated"
		status=1
	elif ! cmp -s "$f" "$fresh"; then
		echo "reprotest: $f differs from a fresh run"
		status=1
	fi
done
if [ "$status" -eq 0 ]; then
	echo "reprotest: all $count committed results/*.csv reproduce byte for byte"
fi
exit "$status"
