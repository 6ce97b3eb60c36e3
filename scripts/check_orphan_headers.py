#!/usr/bin/env python3
"""Gate: every src/ header has a caller outside the tests.

A header under src/ is an orphan when no file under src/, bench/,
examples/, perfbench/ or tools/ includes it, not counting the header's own
.cpp. An orphan module is code that only its tests run: delete it with its
tests instead of maintaining it. Registered as the ctest
lint.no_orphan_headers (label "lint").

Usage: check_orphan_headers.py [REPO_ROOT]   (default: this script's repo)
Exit status: 0 no orphans, 1 orphans listed on stderr.
"""

from __future__ import annotations

import pathlib
import re
import sys

CALLER_DIRS = ("src", "bench", "examples", "perfbench", "tools")
SOURCE_SUFFIXES = {".hpp", ".cpp"}
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    src = root / "src"
    included: dict[str, set[pathlib.Path]] = {}
    for top in CALLER_DIRS:
        for path in (root / top).rglob("*"):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for name in INCLUDE.findall(text):
                included.setdefault(name, set()).add(path.resolve())
    orphans = []
    for header in sorted(src.rglob("*.hpp")):
        own_cpp = header.with_suffix(".cpp").resolve()
        callers = included.get(header.relative_to(src).as_posix(), set())
        if not callers - {own_cpp}:
            orphans.append(header.relative_to(src).as_posix())
    for name in orphans:
        print(f"orphan header: src/{name} (included only by its own .cpp "
              "or tests)", file=sys.stderr)
    return 1 if orphans else 0


if __name__ == "__main__":
    sys.exit(main())
