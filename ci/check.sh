#!/usr/bin/env bash
# ci/check.sh — the full local/CI gate for this repository.
#
# Runs, in order: formatting, go vet, the domain lint suite (cmd/pwrvet),
# build, tests, the benchmark module's vet and self-tests, a focused
# fault-injection/cancellation/salvage sweep (these double as the
# goroutine-leak accounting pass), the race detector, and a short fuzz
# smoke pass over the decode-path fuzz targets. Everything here must pass
# before merging.
#
# Usage: ci/check.sh [fuzztime]
#   fuzztime — per-target fuzz budget (default 5s; "0" skips fuzzing).
#   Minimizing a new input is capped at 100 executions, so the budget
#   goes to running inputs rather than to the default 60 s minimizer.
set -euo pipefail

cd "$(dirname "$0")/.."

FUZZTIME="${1:-5s}"

step() { printf '\n== %s ==\n' "$*"; }

step "gofmt"
unformatted="$(gofmt -l .)"
if [[ -n "${unformatted}" ]]; then
    echo "gofmt needed on:" >&2
    echo "${unformatted}" >&2
    exit 1
fi

step "go vet"
go vet ./...

step "pwrvet (domain lint)"
PWRVET="$(mktemp -d)/pwrvet"
trap 'rm -rf "$(dirname "${PWRVET}")"' EXIT
go build -o "${PWRVET}" ./cmd/pwrvet
lint_start="$(date +%s)"
"${PWRVET}" -stats ./...
lint_end="$(date +%s)"
lint_elapsed=$((lint_end - lint_start))
echo "module-wide pass: ${lint_elapsed}s"
if (( lint_elapsed > 60 )); then
    echo "pwrvet exceeded the 60s wall-clock budget (${lint_elapsed}s)" >&2
    exit 1
fi

step "go build"
go build ./...

step "go test"
go test -timeout 10m ./...

# perfbench is its own module, so the root ./... above stops at its go.mod.
step "perfbench (vet + checker self-tests)"
(cd perfbench && go vet ./... && go test ./...)

step "fault-injection sweep + goroutine accounting"
go test -timeout 10m -run 'TestFault|TestDecodeLimits|TestSalvage|Parity|Verify|Ctx' -count=1 .

step "go test -race"
go test -race -timeout 20m ./...

if [[ "${FUZZTIME}" != "0" ]]; then
    step "fuzz smoke (${FUZZTIME} per target)"
    for target in FuzzDecompress FuzzDecompressParallel FuzzOpenArchive FuzzHeaderMutation FuzzCompressRoundTrip FuzzDecompressStream FuzzStreamRoundTrip FuzzStreamSalvage FuzzOpenStream FuzzReadRows FuzzOpenArchiveStream; do
        echo "-- ${target}"
        go test -run='^$' -fuzz="^${target}\$" -fuzztime="${FUZZTIME}" -fuzzminimizetime=100x .
    done
fi

printf '\nAll checks passed.\n'
