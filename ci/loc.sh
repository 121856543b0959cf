#!/bin/sh
# Prints the repository's Go line counts: non-test and test lines, excluding
# the perfbench harness (its own module) and its build cache. This is the
# figure each change reports against the ROADMAP baseline. Print-only: it
# never fails the build.
set -eu
cd "$(dirname "$0")/.."

count() {
  find . -name '*.go' -not -path './perfbench/*' -not -path './.bench_build/*' "$@" -print0 |
    xargs -0 cat | wc -l | tr -d ' '
}

echo "non-test Go lines: $(count -not -name '*_test.go')"
echo "test Go lines:     $(count -name '*_test.go')"
