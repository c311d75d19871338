#!/bin/sh
# gate.sh runs a named set of tests and fails unless every one of them
# reports --- PASS. `go test -run` exits 0 when its pattern matches
# nothing, so a renamed, deleted or skipped test would otherwise empty
# a gate without anyone noticing.
#
# usage: .github/gate.sh <package>... -- <TestName>...
set -u
pkgs=""
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
	pkgs="$pkgs $1"
	shift
done
if [ $# -lt 2 ] || [ -z "$pkgs" ]; then
	echo "usage: $0 <package>... -- <TestName>..." >&2
	exit 2
fi
shift
log=$(mktemp)
trap 'rm -f "$log"' EXIT
# shellcheck disable=SC2086 # pkgs is a word list
go test -count=1 -v -run "^($(echo "$*" | tr ' ' '|'))\$" $pkgs >"$log" 2>&1
status=$?
cat "$log"
if [ $status -ne 0 ]; then
	exit $status
fi
for name in "$@"; do
	if ! grep -q -- "^--- PASS: $name (" "$log"; then
		echo "gate: $name did not run and pass" >&2
		exit 1
	fi
done
echo "gate: all $# named tests passed"
