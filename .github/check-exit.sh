#!/usr/bin/env bash
# The CLI's exit-code contract for one run.
#
#   .github/check-exit.sh COMMAND [ARG...]
#
# runs the command and exits 1, saying why, unless it ends in 0, 2, 3 or 4
# with no traceback on stderr and, when it ends in 0 with a --json argument,
# prints one JSON document.  Prefix the command with `timeout N` to fail a
# run that does not end within N seconds too: timeout then exits 124.
out=$(mktemp)
err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT
code=0
"$@" > "$out" 2> "$err" || code=$?
status=0
case "$code" in
  0|2|3|4) ;;
  *) echo "$*: exit $code"; status=1 ;;
esac
if grep -q Traceback "$err"; then
  echo "$*: traceback"; cat "$err"; status=1
fi
for arg in "$@"; do
  if [ "$arg" = --json ] && [ "$code" = 0 ] \
    && ! python3 -c 'import json, sys; json.load(sys.stdin)' < "$out"; then
    echo "$*: stdout is not a JSON document"; status=1
  fi
done
exit "$status"
