#!/usr/bin/env bash
# Gates a perfbench run against a committed baseline of the same
# workload, both untraced result files (.bench_build/results/*.json):
#
#   bash .github/perfbench-gate.sh results/perfbench/boolean-wide-seed1-trace0.json \
#     .bench_build/results/boolean-wide-seed1-trace0.json
#
# It prints one line per check and exits 1 when any fails:
#   - the two files are of different workloads;
#   - the current run is not correct, or it has failed ops;
#   - its op_ms or its setup_s is more than 2x the baseline's;
#   - an op kind's median latency (details.op_stats.<kind>.ms) is more
#     than 2x the kind's baseline median;
#   - an op kind of the baseline is missing from the current run.
# An info line, which never fails, names the stream kernel each run's
# manifest records (manifest.stream_kernel: scalar, avx2 or avx512;
# unknown for a file without one), since the kernel sets the timings.
# The 2x limit catches gross regressions only: on the reference host a
# kind's median moved up to 1.4x between two consecutive runs, and the
# host's speed drifts over minutes (perfbench/README.md).
set -euo pipefail
if [ $# -ne 2 ]; then
	echo "usage: $0 BASELINE CURRENT" >&2
	exit 2
fi
lines=$(jq -n -r --slurpfile base "$1" --slurpfile cur "$2" '
def median: if . == null then null else sort | length as $n | (.[($n - 1) / 2 | floor] + .[$n / 2 | floor]) / 2 end;
def r3: . * 1000 | round / 1000;
def check($name; $ok; $detail): "\(if $ok then "ok  " else "FAIL" end) \($name): \($detail)";
def ms: if . == null then null else . * 1000 end;
def slower($name; $c; $b):
  if $c == null then check($name; false; "missing from the current run")
  else check($name; $c <= 2 * $b; "\($c | r3) ms, baseline \($b | r3) ms (\($c / $b | r3)x, limit 2x)")
  end;
$base[0] as $b | $cur[0] as $c |
check("workload"; $c.manifest.config.workload == $b.manifest.config.workload;
  "\($c.manifest.config.workload), baseline \($b.manifest.config.workload)"),
"info stream kernel: \($c.manifest.stream_kernel // "unknown"), baseline \($b.manifest.stream_kernel // "unknown")",
check("correct"; $c.result.correct == true; "\($c.result.correct)"),
check("failed ops"; $c.result.failed == 0; "\($c.result.failed) of \($c.result.attempted)"),
slower("op_ms"; $c.result.metrics.op_ms.value; $b.result.metrics.op_ms.value),
slower("setup_s"; $c.result.metrics.setup_s.value | ms; $b.result.metrics.setup_s.value | ms),
($b.details.op_stats | keys[]) as $k |
  slower("\($k) median"; $c.details.op_stats[$k].ms | median; $b.details.op_stats[$k].ms | median)
')
echo "$lines"
if grep -q '^FAIL' <<<"$lines"; then
	echo "perfbench gate failed: $2 against baseline $1" >&2
	exit 1
fi
