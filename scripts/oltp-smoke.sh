#!/usr/bin/env bash
# oltp-smoke: end-to-end determinism check of the serving-workload tier.
#
# Renders a small figure-oltp sweep (one KV cell grid at a mild skew)
# three times with sitm-bench — twice at -workers 1 and once at
# -workers 2 — and verifies the figure bytes are identical across runs
# and across worker counts: the Zipfian generator, the paged store and
# the commit-latency histogram are all deterministic end to end. It also
# checks that a skew with more than two decimals is rejected.
set -euo pipefail

workdir="$(mktemp -d)"
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

cd "$(dirname "$0")/.."
go build -o "$workdir/sitm-bench" ./cmd/sitm-bench

common=(-oltp -workload kv@0.50 -seeds 1)
"$workdir/sitm-bench" "${common[@]}" -workers 1 >"$workdir/run1.txt"
"$workdir/sitm-bench" "${common[@]}" -workers 1 >"$workdir/run2.txt"
"$workdir/sitm-bench" "${common[@]}" -workers 2 >"$workdir/run3.txt"

if ! cmp -s "$workdir/run1.txt" "$workdir/run2.txt"; then
  echo "oltp-smoke: figure bytes diverge across identical runs" >&2
  diff "$workdir/run1.txt" "$workdir/run2.txt" >&2 || true
  exit 1
fi
if ! cmp -s "$workdir/run1.txt" "$workdir/run3.txt"; then
  echo "oltp-smoke: figure bytes depend on -workers" >&2
  diff "$workdir/run1.txt" "$workdir/run3.txt" >&2 || true
  exit 1
fi

# The render must actually contain the serving-tier table with its
# quantile columns, not an empty header.
if ! grep -q 'kv@0.50' "$workdir/run1.txt" || ! grep -q 'p999' "$workdir/run1.txt"; then
  echo "oltp-smoke: render is missing the kv table or the quantile columns" >&2
  cat "$workdir/run1.txt" >&2
  exit 1
fi
# A skew the two-decimal workload name cannot carry must fail closed: a
# non-zero exit and the theta error, never a silent empty or wrong column.
if "$workdir/sitm-bench" -oltp -workload kv@0.996 -seeds 1 >"$workdir/bad.txt" 2>"$workdir/bad.err"; then
  echo "oltp-smoke: -workload kv@0.996 exited 0; it must be rejected" >&2
  cat "$workdir/bad.txt" >&2
  exit 1
fi
if ! grep -q 'not a two-decimal value' "$workdir/bad.err"; then
  echo "oltp-smoke: -workload kv@0.996 failed without the theta error" >&2
  cat "$workdir/bad.err" >&2
  exit 1
fi
echo "oltp-smoke: OK"
