#!/usr/bin/env bash
# Static-analysis gate for the dispatch core.
#
#   scripts/run_static_checks.sh                 # lint + docs + typing + style + tier-1 tests
#   scripts/run_static_checks.sh --fast          # skip the test suite
#   scripts/run_static_checks.sh --changed-only  # lint only files changed vs main
#
# repro-lint (stdlib-only) always runs and is authoritative: a finding
# fails the gate.  mypy and ruff are pinned optional dev dependencies
# (pip install -e '.[dev]'); when they are not installed the gate
# reports them as skipped rather than failing, so the script works in
# hermetic environments that cannot install packages.
#
# --changed-only narrows the repro-lint target to tracked *.py files
# under src/ that differ from the merge base with main (falling back to
# HEAD when no main ref exists).  The project-wide rules (REP004's
# exception flow, REP008-REP010) still build their call graph over the
# whole of src/ — only the *reported* files are narrowed — so a changed
# file is judged with full cross-file context.  --changed-only implies
# --fast unless the full suite is explicitly wanted.

set -u -o pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

export PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}"

run_tests=1
changed_only=0
for arg in "$@"; do
    case "$arg" in
        --fast) run_tests=0 ;;
        --changed-only) changed_only=1; run_tests=0 ;;
        *)
            echo "usage: $0 [--fast] [--changed-only]" >&2
            exit 2
            ;;
    esac
done

failures=0

step() {
    echo
    echo "== $1"
}

if [ "$changed_only" -eq 1 ]; then
    base="$(git merge-base HEAD main 2>/dev/null || git rev-parse HEAD)"
    mapfile -t changed < <(git diff --name-only --diff-filter=d "$base" -- 'src/*.py')
    step "repro-lint (repo invariants REP001-REP010, ${#changed[@]} changed file(s) vs ${base:0:12})"
    if [ "${#changed[@]}" -eq 0 ]; then
        echo "no python files under src/ changed; nothing to lint"
    elif ! python -m repro.devtools --changed-only "${changed[@]}" -- src/; then
        failures=$((failures + 1))
    fi
else
    step "repro-lint (repo invariants REP001-REP010)"
    if ! python -m repro.devtools src/; then
        failures=$((failures + 1))
    fi
fi

step "docstring coverage floor and cross-references (stdlib, scripts/check_docstrings.py)"
if ! python scripts/check_docstrings.py src/; then
    failures=$((failures + 1))
fi

step "markdown link check (stdlib, scripts/check_doc_links.py)"
if ! python scripts/check_doc_links.py --default-set; then
    failures=$((failures + 1))
fi

step "mypy --strict (optional dev dependency)"
if python -c "import mypy" >/dev/null 2>&1; then
    if ! python -m mypy; then
        failures=$((failures + 1))
    fi
else
    echo "mypy not installed; skipped (pip install -e '.[dev]' to enable)"
fi

step "ruff check (optional dev dependency)"
if python -c "import ruff" >/dev/null 2>&1 || command -v ruff >/dev/null 2>&1; then
    if ! python -m ruff check src/ tests/ benchmarks/ 2>/dev/null \
        && ! ruff check src/ tests/ benchmarks/; then
        failures=$((failures + 1))
    fi
else
    echo "ruff not installed; skipped (pip install -e '.[dev]' to enable)"
fi

if [ "$run_tests" -eq 1 ]; then
    step "tier-1 test suite"
    if ! python -m pytest -x -q; then
        failures=$((failures + 1))
    fi
fi

echo
if [ "$failures" -ne 0 ]; then
    echo "static checks: $failures gate(s) FAILED"
    exit 1
fi
echo "static checks: all gates passed"
