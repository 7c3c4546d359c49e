#!/bin/sh
# trace_smoke.sh — end-to-end smoke for verdict span tracing: boot
# rhmd-monitor on an ephemeral port (-metrics-addr alone turns the span
# recorder on) with -trace-out, scrape /traces during the -hold window,
# and fail unless the kept set is non-empty and shaped like span trees,
# the -trace-out file holds the same trace IDs, and /events is gone.
# Run via `make trace-smoke`.
set -eu

workdir="$(mktemp -d)"
trap 'status=$?; [ -n "${monpid:-}" ] && kill "$monpid" 2>/dev/null; rm -rf "$workdir"; exit $status' EXIT INT TERM

go build -o "$workdir/rhmd-monitor" ./cmd/rhmd-monitor

# Tiny corpus, keep-everything sampling, exemplars on, and a generous
# hold so the endpoint is still up when we scrape. -slow-ms 0 is not
# needed: -keep-every 1 already keeps every verdict. The kept set is
# written to -trace-out after the drain, before the hold starts.
"$workdir/rhmd-monitor" \
  -benign 2 -malware 2 -len 20000 \
  -keep-every 1 -exemplars -trace-out "$workdir/kept.json" \
  -metrics-addr 127.0.0.1:0 -hold 120s \
  >"$workdir/out.log" 2>"$workdir/err.log" &
monpid=$!

# The monitor prints the bound address once the endpoint is up; traces
# are complete once it announces the hold.
addr=""
for _ in $(seq 1 120); do
  if ! kill -0 "$monpid" 2>/dev/null; then
    echo "trace-smoke: monitor exited early" >&2
    cat "$workdir/out.log" "$workdir/err.log" >&2
    exit 1
  fi
  if grep -q 'holding observability endpoint' "$workdir/err.log" 2>/dev/null; then
    addr="$(sed -n 's|.*observability endpoint on http://\([^ ]*\).*|\1|p' "$workdir/out.log" "$workdir/err.log" | head -n 1)"
    [ -n "$addr" ] && break
  fi
  sleep 1
done
if [ -z "$addr" ]; then
  echo "trace-smoke: monitor never announced its observability endpoint" >&2
  cat "$workdir/out.log" "$workdir/err.log" >&2
  exit 1
fi

traces="$workdir/traces.json"
curl -fsS "http://$addr/traces" >"$traces"

# Non-empty kept set with the span-tree fields present.
grep -q '"trace_id"' "$traces" || { echo "trace-smoke: /traces has no kept traces" >&2; cat "$traces" >&2; exit 1; }
grep -q '"stage": *"verdict"' "$traces" || { echo "trace-smoke: no verdict root span on /traces" >&2; exit 1; }
grep -q '"stage": *"wal-fsync"\|"stage": *"classify"' "$traces" || { echo "trace-smoke: kept traces carry no stage spans" >&2; exit 1; }

# The sampler's own accounting must agree that something was kept.
kept="$(curl -fsS "http://$addr/metrics" | sed -n 's/^rhmd_verdict_traces_kept_total \([0-9]*\)$/\1/p')"
if [ -z "$kept" ] || [ "$kept" -eq 0 ]; then
  echo "trace-smoke: rhmd_verdict_traces_kept_total is ${kept:-missing}" >&2
  exit 1
fi

# Nothing is kept after the drain, so the -trace-out file and /traces
# hold the same trace IDs.
ids() { sed -n 's/.*"trace_id": *"\([0-9a-f]*\)".*/\1/p' "$1" | sort; }
ids "$traces" >"$workdir/served.ids"
ids "$workdir/kept.json" >"$workdir/written.ids"
if [ ! -s "$workdir/served.ids" ] || ! cmp -s "$workdir/served.ids" "$workdir/written.ids"; then
  echo "trace-smoke: -trace-out and /traces disagree on the kept trace IDs" >&2
  diff "$workdir/written.ids" "$workdir/served.ids" >&2 || true
  exit 1
fi

# The kept traces are the only event stream: no /events drain is mounted.
events="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/events")"
if [ "$events" != 404 ]; then
  echo "trace-smoke: GET /events returned $events, want 404" >&2
  exit 1
fi

count="$(wc -l <"$workdir/served.ids" | tr -d ' ')"
echo "trace-smoke: OK ($count kept traces on /traces and in -trace-out, kept counter $kept, /events 404)"
