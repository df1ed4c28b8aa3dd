#!/usr/bin/env bash
# tane-lint driver: every static check the repository defines, in one gate.
#
#   1. tools/tane_lint.py      project rules (always runs; pure python)
#   2. tools/tane_analyzer     semantic tier: lock-free protocol, signal-
#                              safety, determinism, and handle-discipline
#                              contracts (always runs; pure python;
#                              --skip-analyzer to omit)
#   3. clang-tidy              .clang-tidy checks over compile_commands.json
#                              (skipped when clang-tidy is not installed)
#   4. `analysis` preset       Clang build with -Wthread-safety -Werror,
#                              which also drives the negative-compile
#                              harness in tests/negative_compile/
#                              (skipped when clang++ is not installed)
#
# Exits non-zero on any new finding. tools/check.sh runs this as a hard
# gate; it can also be run standalone.
set -euo pipefail

cd "$(dirname "$0")/.."

run_analyzer=1
for arg in "$@"; do
  case "${arg}" in
    --skip-analyzer) run_analyzer=0 ;;
    *) echo "lint.sh: unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
started=$(date +%s)

echo "==> lint: tane_lint.py (project rules)"
python3 tools/tane_lint.py

if [ "${run_analyzer}" -eq 1 ]; then
  echo "==> lint: tane_analyzer (semantic contracts)"
  python3 tools/tane_analyzer
else
  echo "==> lint: tane_analyzer skipped (--skip-analyzer)"
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "==> lint: clang-tidy"
  # Reuse any existing compile database; the analysis preset exports one,
  # and so does the default preset when configured with clang.
  compdb=""
  for dir in build-analysis build; do
    if [ -f "${dir}/compile_commands.json" ]; then
      compdb="${dir}"
      break
    fi
  done
  if [ -z "${compdb}" ]; then
    echo "lint: no compile_commands.json found; configuring the default "
    echo "lint: preset with CMAKE_EXPORT_COMPILE_COMMANDS=ON"
    cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    compdb="build"
  fi
  # shellcheck disable=SC2046
  clang-tidy -p "${compdb}" --quiet $(find src -name '*.cc' | sort)
else
  echo "==> lint: clang-tidy skipped (clang-tidy not installed)"
fi

if command -v clang++ >/dev/null 2>&1; then
  echo "==> lint: analysis preset (clang -Wthread-safety -Werror)"
  cmake --preset analysis
  cmake --build --preset analysis -j "${jobs}"
else
  echo "==> lint: analysis preset skipped (clang++ not installed;" \
       "thread-safety annotations are checked on machines with clang)"
fi

elapsed=$(( $(date +%s) - started ))
echo "lint OK in ${elapsed}s"
