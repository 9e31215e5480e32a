#!/usr/bin/env bash
# Self-test of perfbench-gate.sh on the committed baselines
# (results/perfbench/*-trace0.json); it runs no benchmark:
#
#   bash .github/perfbench-gate-test.sh
#
# Each baseline must pass the gate against itself and fail it against a
# copy doctored to be 4x faster, against one whose set-up alone is 4x
# faster, as a run marked incorrect, and as a run missing one op kind.
# The stream-kernel info line must not fail it: a baseline without the
# field, or with another kernel, still passes.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
gate="$here/perfbench-gate.sh"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# expect BASELINE CURRENT WANT(pass|fail) WHAT
expect() {
	got=pass
	bash "$gate" "$1" "$2" >"$tmp/out" 2>&1 || got=fail
	if [ "$got" != "$3" ]; then
		cat "$tmp/out"
		echo "gate self-test: $4: the gate gave $got, want $3" >&2
		exit 1
	fi
	echo "ok   $4: $got"
}

shopt -s nullglob
baselines=("$here"/../results/perfbench/*-trace0.json)
if [ ${#baselines[@]} -eq 0 ]; then
	echo "gate self-test: no baselines under results/perfbench" >&2
	exit 1
fi
for f in "${baselines[@]}"; do
	name="$(basename "$f" .json)"
	expect "$f" "$f" pass "$name against itself"
	jq '.result.metrics.op_ms.value /= 4 | .details.op_stats[].ms |= map(. / 4)' "$f" >"$tmp/fast.json"
	expect "$tmp/fast.json" "$f" fail "$name against a 4x faster baseline"
	jq '.result.metrics.setup_s.value /= 4' "$f" >"$tmp/fast-setup.json"
	expect "$tmp/fast-setup.json" "$f" fail "$name against a baseline with a 4x faster set-up"
	jq '.result.correct = false' "$f" >"$tmp/incorrect.json"
	expect "$f" "$tmp/incorrect.json" fail "$name marked incorrect"
	jq '.details.op_stats |= del(.[keys[0]])' "$f" >"$tmp/missing.json"
	expect "$f" "$tmp/missing.json" fail "$name missing an op kind"
	jq 'del(.manifest.stream_kernel)' "$f" >"$tmp/no-kernel.json"
	expect "$tmp/no-kernel.json" "$f" pass "$name against a baseline without a stream kernel"
	grep -q '^info stream kernel: .*, baseline unknown$' "$tmp/out" ||
		{ cat "$tmp/out"; echo "gate self-test: no stream-kernel info line for a baseline without one" >&2; exit 1; }
	jq '.manifest.stream_kernel = "scalar"' "$f" >"$tmp/other-kernel.json"
	expect "$tmp/other-kernel.json" "$f" pass "$name against a baseline of another stream kernel"
done
