#!/bin/sh
# trace_smoke.sh — end-to-end smoke for verdict span tracing, the
# fleet's metrics and the SLO/incident endpoints: boot rhmd-monitor on an
# ephemeral port (-metrics-addr alone turns the span recorder on) with
# -trace-out and -slo, scrape /traces, /metrics, /fleet and /slo during
# the -hold window, and fail unless the kept set is non-empty and shaped
# like span trees, the -trace-out file holds the same trace IDs, /events
# is gone, every shard has verdict latencies on /metrics and a row on
# /fleet, and /slo lists the six standard objectives. Runs once with the
# default single shard and once with -shards 2 over a checkpoint root
# and an -incident-dir, where /incidents must answer with its listing.
# Run via `make trace-smoke`.
set -eu

workdir="$(mktemp -d)"
trap 'status=$?; [ -n "${monpid:-}" ] && kill "$monpid" 2>/dev/null; rm -rf "$workdir"; exit $status' EXIT INT TERM

go build -o "$workdir/rhmd-monitor" ./cmd/rhmd-monitor

# smoke <name> <shards> [flags...] boots one monitor and checks it.
smoke() {
  name="$1" shards="$2"
  shift 2
  run="$workdir/$name"
  mkdir -p "$run"
  case " $* " in
    *" -incident-dir "*) incidents=1 ;;
    *) incidents="" ;;
  esac

  # Tiny corpus, keep-everything sampling, exemplars on, and a generous
  # hold so the endpoint is still up when we scrape. -slow-ms 0 is not
  # needed: -keep-every 1 already keeps every verdict. The kept set is
  # written to -trace-out after the drain, before the hold starts.
  "$workdir/rhmd-monitor" \
    -benign 2 -malware 2 -len 20000 -shards "$shards" "$@" \
    -keep-every 1 -exemplars -trace-out "$run/kept.json" \
    -metrics-addr 127.0.0.1:0 -hold 120s \
    >"$run/out.log" 2>"$run/err.log" &
  monpid=$!

  # The monitor prints the bound address once the endpoint is up;
  # traces are complete once it announces the hold.
  addr=""
  for _ in $(seq 1 120); do
    if ! kill -0 "$monpid" 2>/dev/null; then
      echo "trace-smoke[$name]: monitor exited early" >&2
      cat "$run/out.log" "$run/err.log" >&2
      exit 1
    fi
    if grep -q 'holding observability endpoint' "$run/err.log" 2>/dev/null; then
      addr="$(sed -n 's|.*observability endpoint on http://\([^ ]*\).*|\1|p' "$run/out.log" "$run/err.log" | head -n 1)"
      [ -n "$addr" ] && break
    fi
    sleep 1
  done
  if [ -z "$addr" ]; then
    echo "trace-smoke[$name]: monitor never announced its observability endpoint" >&2
    cat "$run/out.log" "$run/err.log" >&2
    exit 1
  fi

  traces="$run/traces.json"
  curl -fsS "http://$addr/traces" >"$traces"
  curl -fsS "http://$addr/metrics" >"$run/metrics.txt"
  curl -fsS "http://$addr/fleet" >"$run/fleet.json"
  curl -fsS "http://$addr/slo" >"$run/slo.json"

  # Non-empty kept set with the span-tree fields present.
  grep -q '"trace_id"' "$traces" || { echo "trace-smoke[$name]: /traces has no kept traces" >&2; cat "$traces" >&2; exit 1; }
  grep -q '"stage": *"verdict"' "$traces" || { echo "trace-smoke[$name]: no verdict root span on /traces" >&2; exit 1; }
  grep -q '"stage": *"wal-fsync"\|"stage": *"classify"' "$traces" || { echo "trace-smoke[$name]: kept traces carry no stage spans" >&2; exit 1; }

  # The sampler's own accounting must agree that something was kept.
  kept="$(sed -n 's/^rhmd_verdict_traces_kept_total \([0-9]*\)$/\1/p' "$run/metrics.txt")"
  if [ -z "$kept" ] || [ "$kept" -eq 0 ]; then
    echo "trace-smoke[$name]: rhmd_verdict_traces_kept_total is ${kept:-missing}" >&2
    exit 1
  fi

  # Every shard's engine series reach the fleet registry, and every
  # shard has its row in the fleet health document.
  i=0
  while [ "$i" -lt "$shards" ]; do
    n="$(sed -n "s/^rhmd_monitor_verdict_latency_seconds_count{shard=\"$i\"} \([0-9]*\)$/\1/p" "$run/metrics.txt")"
    if [ -z "$n" ] || [ "$n" -eq 0 ]; then
      echo "trace-smoke[$name]: rhmd_monitor_verdict_latency_seconds_count{shard=\"$i\"} is ${n:-missing}" >&2
      exit 1
    fi
    grep -q "\"shard\": *$i," "$run/fleet.json" || { echo "trace-smoke[$name]: /fleet has no row for shard $i" >&2; cat "$run/fleet.json" >&2; exit 1; }
    i=$((i + 1))
  done

  # Nothing is kept after the drain, so the -trace-out file and /traces
  # hold the same trace IDs.
  ids() { sed -n 's/.*"trace_id": *"\([0-9a-f]*\)".*/\1/p' "$1" | sort; }
  ids "$traces" >"$run/served.ids"
  ids "$run/kept.json" >"$run/written.ids"
  if [ ! -s "$run/served.ids" ] || ! cmp -s "$run/served.ids" "$run/written.ids"; then
    echo "trace-smoke[$name]: -trace-out and /traces disagree on the kept trace IDs" >&2
    diff "$run/written.ids" "$run/served.ids" >&2 || true
    exit 1
  fi

  # The kept traces are the only event stream: no /events drain is mounted.
  events="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/events")"
  if [ "$events" != 404 ]; then
    echo "trace-smoke[$name]: GET /events returned $events, want 404" >&2
    exit 1
  fi

  # /slo evaluates exactly the standard objective set (Status sorts it
  # by name; "name" keys appear only on objective rows).
  objectives="$(sed -n 's/^ *"name": *"\([^"]*\)".*/\1/p' "$run/slo.json" | sort | tr '\n' ' ')"
  want="drift-accuracy drift-agreement durability fleet-serving shed-rate verdict-latency "
  if [ "$objectives" != "$want" ]; then
    echo "trace-smoke[$name]: /slo objectives are '$objectives', want '$want'" >&2
    cat "$run/slo.json" >&2
    exit 1
  fi
  report="6 objectives on /slo"

  if [ -n "$incidents" ]; then
    code="$(curl -s -o "$run/incidents.json" -w '%{http_code}' "http://$addr/incidents")"
    if [ "$code" != 200 ] || ! grep -q '"incidents": *\[' "$run/incidents.json"; then
      echo "trace-smoke[$name]: GET /incidents returned $code without an incidents array" >&2
      cat "$run/incidents.json" >&2
      exit 1
    fi
    report="$report, /incidents 200 with an incidents array"
  fi

  kill "$monpid" 2>/dev/null || true
  wait "$monpid" 2>/dev/null || true
  monpid=""

  count="$(wc -l <"$run/served.ids" | tr -d ' ')"
  echo "trace-smoke[$name]: OK ($count kept traces on /traces and in -trace-out, kept counter $kept, $shards shard(s) on /metrics and /fleet, /events 404, $report)"
}

smoke one 1 -slo
smoke fleet 2 -checkpoint-dir "$workdir/ckpt" -slo -incident-dir "$workdir/inc"
