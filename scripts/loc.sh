#!/usr/bin/env bash
# loc.sh — non-test Go lines in the root module, by ROADMAP's command:
# the number a [simplicity] PR states before and after.
cd "$(dirname "$0")/.." &&
	find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l
