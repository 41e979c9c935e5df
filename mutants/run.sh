#!/bin/sh
# Mutation checks. Each mutants/NAME.patch breaks the
# code on purpose and mutants/NAME.test holds the one `cargo test`
# invocation that must catch it. For every mutant (or only those named on
# the command line) this applies the patch with `git apply`, requires the
# test target to build and the test to fail, and reverts the patch with
# `git apply -R`. A patch that no longer applies, a mutant that does not
# build, and a mutant the test does not catch each fail the run.
#
# usage: sh mutants/run.sh [NAME...]    (from any directory of a checkout)
set -u
cd "$(dirname "$0")/.." || exit 2
if [ "$#" -eq 0 ]; then
    set -- $(for patch in mutants/*.patch; do basename "$patch" .patch; done)
fi
failed=0
for name in "$@"; do
    patch="mutants/$name.patch"
    test_cmd=$(cat "mutants/$name.test")
    if ! git apply --check "$patch"; then
        echo "FAIL $name: the patch no longer applies"
        failed=1
        continue
    fi
    git apply "$patch"
    trap 'git apply -R "$patch"; exit 2' INT TERM
    build_cmd=$(printf '%s\n' "$test_cmd" | sed 's/^cargo test /cargo test --no-run /')
    if ! sh -c "$build_cmd" >/dev/null 2>&1; then
        echo "FAIL $name: the mutant does not build ($build_cmd)"
        failed=1
    elif sh -c "$test_cmd" >/dev/null 2>&1; then
        echo "FAIL $name: survived $test_cmd"
        failed=1
    else
        echo "ok   $name: caught by $test_cmd"
    fi
    git apply -R "$patch"
    trap - INT TERM
done
exit "$failed"
