#!/usr/bin/env bash
# Counts the program's non-test lines: every Rust file under crates/*/src
# (binaries under src/bin included; the shims under crates/shims are not
# matched), each counted up to its test module. A test module starts at the
# first `#[cfg(test)]` line whose next line declares a module, with or
# without a visibility (`mod tests`, `pub(crate) mod tests`); a file with none
# counts whole.
#
# Usage: scripts/code_size.sh [DIR]   (DIR defaults to the repository root)
# Prints one line per crate, then the total.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
    awk '
        FNR == 1 { held = 0; in_tests = 0 }
        in_tests { next }
        # A held `#[cfg(test)]` followed by a module declaration opens the
        # test module: the rest of the file is not counted.
        held && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { in_tests = 1; next }
        # It gated something else: count it with the line it gates.
        held { n++; held = 0 }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
        { n++ }
        END { print n + 0 }
    ' "$@"
}

total=0
for src in crates/*/src; do
    files=$(find "$src" -name '*.rs' | sort)
    [ -n "$files" ] || continue
    # shellcheck disable=SC2086
    lines=$(count $files)
    printf '%-24s %6d\n' "${src%/src}" "$lines"
    total=$((total + lines))
done
printf '%-24s %6d\n' total "$total"
