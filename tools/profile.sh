#!/usr/bin/env bash
# Per-layer CPU profile of one `impact run` invocation, from gprof:
#
#   tools/profile.sh                  # profiles `impact run fig11`
#   tools/profile.sh fig8             # any registered spec
#   tools/profile.sh fig11 /tmp/prof  # build tree (default: build-profile)
#
# Builds a `-pg -fno-ipa-icf` Release flavor of the `impact` CLI in its own
# build tree (the flags go in through CMAKE_CXX_FLAGS and the linker flags,
# not through a project option), runs the spec on one thread, and folds
# gprof's flat profile into a table of self time per simulator layer:
# cache / sys / dram / graph / exec / obs / genomics / attacks / pim /
# channel / store / other (the leading namespace of each symbol's own
# qualified name, after any return type: a std:: template counts as other
# even when its arguments name an impact type, and so do util and the rest).
#
# One thread because gprof samples only the main thread: with
# IMPACT_THREADS=1 the sweep engine runs every cell on the caller.
# -fno-ipa-icf keeps GCC from folding identical function bodies into one
# symbol, which otherwise lets gprof charge one function's time to an
# unrelated name (a `std::function` manager, for example).
#
# Prints the per-layer table, then the 15 hottest symbols.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SPEC="${1:-fig11}"
BUILD_DIR="${2:-${ROOT}/build-profile}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

cmake -S "${ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-pg -fno-ipa-icf" \
  -DCMAKE_EXE_LINKER_FLAGS="-pg" > /dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target impact_cli > /dev/null

RUN_DIR="$(mktemp -d)"
trap 'rm -rf "${RUN_DIR}"' EXIT
( cd "${RUN_DIR}" \
  && IMPACT_THREADS=1 "${BUILD_DIR}/apps/impact" run "${SPEC}" > /dev/null )
gprof -b -p "${BUILD_DIR}/apps/impact" "${RUN_DIR}/gmon.out" \
  > "${RUN_DIR}/flat.txt"

python3 - "${SPEC}" "${RUN_DIR}/flat.txt" <<'EOF'
import re
import sys

spec, path = sys.argv[1], sys.argv[2]
layers = ["cache", "sys", "dram", "graph", "exec", "obs", "genomics",
          "attacks", "pim", "channel", "store"]
total = {name: 0.0 for name in layers + ["other"]}
rows = []
# Flat-profile rows: %time, cumulative s, self s, [calls, self/call,
# total/call,] name.
row = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$")
# Operator names whose punctuation would unbalance the bracket count.
operators = re.compile(r"operator(?:\(\)|<=>|<<=?|>>=?|<=|>=|->\*?|<|>)")


def own_name(symbol):
    """The symbol's qualified name, without return type or parameters.

    Demangled template functions carry their return type ("impact::cache::X
    impact::cache::Hierarchy::filter(...)"), and template arguments may name
    types of any layer ("std::_Hashtable<..., impact::sys::...>::find(...)"),
    so the name is the last top-level word before the parameter list.
    """
    s = operators.sub("operator@", symbol.replace("(anonymous namespace)", "{anon}"))
    depth, start = 0, 0
    for i, c in enumerate(s):
        if c in "<{[":
            depth += 1
        elif c in ">}]":
            depth -= 1
        elif c == "(":
            if depth == 0:
                return s[start:i]
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == " " and depth == 0 and not s[:i].endswith("operator"):
            start = i + 1
    return s[start:]


for line in open(path):
    m = row.match(line)
    if not m:
        continue
    self_s, name = float(m.group(3)), m.group(4).strip()
    ns = re.match(r"impact::(\w+)::", own_name(name))
    layer = ns.group(1) if ns and ns.group(1) in layers else "other"
    total[layer] += self_s
    rows.append((self_s, layer, name))

grand = sum(total.values()) or 1.0
print(f"impact run {spec}: gprof self time by layer (1 thread)")
print(f"{'layer':<10}{'self s':>10}{'share':>9}")
for name in layers + ["other"]:
    print(f"{name:<10}{total[name]:>10.2f}{100 * total[name] / grand:>8.1f}%")
print(f"{'total':<10}{grand:>10.2f}")
print()
print("hottest symbols:")
for self_s, layer, name in sorted(rows, reverse=True)[:15]:
    print(f"  {self_s:>7.2f} s  {layer:<8} {name[:100]}")
EOF
