#!/usr/bin/env python3
"""alphawan-lint: project-convention static analysis for the AlphaWAN tree.

Every guarantee this reproduction makes -- bit-identical digests across
thread and shard counts, exact packet replay, golden-scenario stability --
rests on conventions (keyed Rng substreams, no wall clock in sim paths, no
digest-affecting iteration over unordered containers, Quantity<Tag> instead
of raw doubles) that used to be enforced only by review and by the property
suites happening to hit a violation.  This tool enforces them statically.

This is a token-level engine over a real C++ lexer (comments, string/char
literals and raw strings are blanked position-preservingly before any
pattern runs).  It needs nothing beyond Python 3 and runs in every
environment, so it is what ctest and the gating CI job execute.

Check catalogue (ids are what ALPHAWAN-LINT-ALLOW annotations name):

  determinism-wallclock        std::random_device, rand()/srand(),
                               system_clock, un-annotated steady_clock
                               anywhere under src/.
  determinism-unordered-iter   range-for / .begin() iteration over a
                               std::unordered_{map,set} variable inside the
                               digest-affecting subsystems (src/sim, src/phy,
                               src/radio, src/check).
  determinism-unordered-member declaration of a std::unordered_{map,set}
                               member/local in a digest-affecting subsystem
                               without an annotation documenting that it is
                               never iterated.
  rng-literal-seed             Rng constructed or reseeded from an integer
                               literal outside tests/ and bench/.
  rng-shared-capture           an Rng captured by reference into a lambda
                               handed to parallel_for/parallel_map and drawn
                               from inside the body (substream()/root_seed()
                               are const and exempt).
  units-raw-double             public function parameter or return typed raw
                               double/float whose name carries a unit suffix
                               (_dbm/_db/_hz/_seconds/_m) instead of the
                               Quantity<Tag> strong type.
  units-value-roundtrip        Quantity{x.value()} pure unwrap-then-rewrap.
  units-swappable-pair         adjacent same-unit (or same raw floating)
                               parameters in a header declaration -- the
                               silent-transposition hazard docs/units.md
                               documents.
  ordering-pointer-key         std::map/std::set keyed on a raw pointer
                               (iteration order = allocation order).

Suppression grammar, checked itself:

  // ALPHAWAN-LINT-ALLOW(<check-id>: <reason>)

on the finding's line or on the run of comment lines directly above it.
An annotation naming an unknown check id is reported as lint-allow-unknown;
an annotation that suppresses nothing is reported as lint-allow-unused (it
has expired and must be deleted); one missing the ": reason" part is
lint-allow-malformed.

Usage:
  alphawan_lint.py --compile-commands build/compile_commands.json \
      [--baseline tools/lint/lint_baseline.json] [--write-baseline]
  alphawan_lint.py --fixture tests/lint/foo.cpp --as-path src/sim/foo.cpp \
      [--expected tests/lint/foo.expected]
  alphawan_lint.py FILE...

Exit status: 0 clean (or fixture matches), 1 findings outside the baseline
(or fixture mismatch), 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
)

DIGEST_DIRS = ("src/sim/", "src/phy/", "src/radio/", "src/check/")
QUANTITY_TYPES = ("Hz", "Db", "Dbm", "Seconds", "Meters")
UNIT_SUFFIX = r"(?:_dbm|_db|_hz|_seconds|_m)"

CHECK_IDS = (
    "determinism-wallclock",
    "determinism-unordered-iter",
    "determinism-unordered-member",
    "rng-literal-seed",
    "rng-shared-capture",
    "units-raw-double",
    "units-value-roundtrip",
    "units-swappable-pair",
    "ordering-pointer-key",
)
META_CHECK_IDS = (
    "lint-allow-unknown",
    "lint-allow-unused",
    "lint-allow-malformed",
)


@dataclass
class Finding:
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    check: str
    message: str
    context: str = ""  # normalized source line, for baseline fingerprints

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.check}: {self.message}"


@dataclass
class Annotation:
    line: int
    check: str
    reason: str
    used: bool = False


@dataclass
class LexedFile:
    path: str  # repo-relative virtual path used for scoping
    raw_lines: list[str]
    code_lines: list[str]  # comments/strings blanked, positions preserved
    comment_lines: list[str]  # only comment text survives, rest blanked
    annotations: list[Annotation] = field(default_factory=list)
    malformed_allow: list[int] = field(default_factory=list)

    @property
    def code(self) -> str:
        return "\n".join(self.code_lines)


# --------------------------------------------------------------------------
# Lexer: blank comments and literals while preserving line/column positions.
# --------------------------------------------------------------------------

_ALLOW_RE = re.compile(
    r"ALPHAWAN-LINT-ALLOW\(\s*([A-Za-z0-9_-]+)\s*:\s*([^)]*?)\s*\)"
)
_ALLOW_ANY_RE = re.compile(r"ALPHAWAN-LINT-ALLOW")


def lex_file(path: str, text: str) -> LexedFile:
    """Split `text` into code-only and comment-only views, same shape."""
    n = len(text)
    code = list(text)
    comm = [c if c == "\n" else " " for c in text]
    i = 0
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = i
            while j < n and text[j] != "\n":
                comm[j] = text[j]
                code[j] = " "
                j += 1
            i = j
        elif c == "/" and nxt == "*":
            j = i
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            while j < end:
                if text[j] != "\n":
                    comm[j] = text[j]
                    code[j] = " "
                j += 1
            i = end
        elif c == "R" and nxt == '"' and (i == 0 or not _ident_char(text[i - 1])):
            # Raw string literal R"delim( ... )delim"
            m = re.match(r'R"([^()\\ \t\n]{0,16})\(', text[i:])
            if m is None:
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            end = text.find(close, i + m.end())
            end = n if end < 0 else end + len(close)
            for j in range(i, end):
                if text[j] != "\n":
                    code[j] = " "
            # keep the R" prefix visible? no -- blank it all
            i = end
        elif c == '"' or c == "'":
            # Skip char/string literal with escapes.  Don't blank the
            # delimiters' positions' *content* semantics; blanking all is
            # fine for our checks.
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                elif text[j] == "\n":
                    break  # unterminated; bail at newline
                j += 1
            end = min(j + 1, n)
            for k in range(i, end):
                if text[k] != "\n":
                    code[k] = " "
            i = end
        else:
            i += 1

    code_lines = "".join(code).split("\n")
    comment_lines = "".join(comm).split("\n")
    raw_lines = text.split("\n")

    lf = LexedFile(path, raw_lines, code_lines, comment_lines)
    for lineno, ctext in enumerate(comment_lines, start=1):
        if "ALPHAWAN-LINT-ALLOW" not in ctext:
            continue
        # The 80-column limit forces long reasons onto continuation comment
        # lines; join comment-only lines until the annotation's parentheses
        # balance (or we run out of pure-comment lines).
        joined = ctext.strip()
        probe = lineno
        while (joined.count("(") > joined.count(")")
               and probe < len(comment_lines)
               and not code_lines[probe].strip()
               and comment_lines[probe].strip()):
            cont = comment_lines[probe].strip()
            joined += " " + cont.lstrip("/").strip()
            probe += 1
        matches = list(_ALLOW_RE.finditer(joined))
        for m in matches:
            lf.annotations.append(
                Annotation(lineno, m.group(1), m.group(2).strip())
            )
        n_markers = len(_ALLOW_ANY_RE.findall(joined))
        if len(matches) < n_markers or any(
            not m.group(2).strip() for m in matches
        ):
            lf.malformed_allow.append(lineno)
    return lf


def _ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


# --------------------------------------------------------------------------
# Scoping rules
# --------------------------------------------------------------------------


def in_src(path: str) -> bool:
    return path.startswith("src/")


def in_digest_dirs(path: str) -> bool:
    return path.startswith(DIGEST_DIRS)


def rng_seed_scope(path: str) -> bool:
    # Literal Rng seeds are fine in tests and benches; everywhere else
    # (src/, examples/) seeds must flow in from configuration.
    return path.startswith(("src/", "examples/"))


def is_header(path: str) -> bool:
    return path.endswith((".hpp", ".h"))


# --------------------------------------------------------------------------
# Helpers shared by checks
# --------------------------------------------------------------------------


def line_of_offset(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def balanced_span(text: str, open_idx: int, open_ch: str, close_ch: str):
    """Return index one past the matching close bracket, or -1."""
    depth = 0
    i = open_idx
    n = len(text)
    while i < n:
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


def balanced_angle_span(text: str, open_idx: int):
    """Match template angle brackets, tolerating >> closers and
    parenthesized expressions inside."""
    depth = 0
    i = open_idx
    n = len(text)
    while i < n:
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in "({[":
            closer = {"(": ")", "{": "}", "[": "]"}[c]
            nxt = balanced_span(text, i, c, closer)
            if nxt < 0:
                return -1
            i = nxt
            continue
        i += 1
    return -1


def split_top_level(text: str, sep: str = ","):
    """Split on `sep` at bracket depth zero."""
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth -= 1
        elif c == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


# --------------------------------------------------------------------------
# Check implementations.  Each takes a LexedFile and returns [Finding].
# --------------------------------------------------------------------------

_WALLCLOCK_PATTERNS = (
    (re.compile(r"\bstd\s*::\s*random_device\b|(?<![\w:])random_device\s*\{|(?<![\w:])random_device\s+\w+"),
     "std::random_device is non-deterministic; draw from a seeded Rng"),
    (re.compile(r"(?<![\w.>])(?:std\s*::\s*|::\s*)?s?rand\s*\("),
     "rand()/srand() bypass the seeded Rng substreams"),
    (re.compile(r"\bsystem_clock\b"),
     "std::chrono::system_clock reads the wall clock; simulation time must "
     "come from the event queue"),
)
_STEADY_RE = re.compile(r"\bsteady_clock\b")


def check_determinism_wallclock(lf: LexedFile) -> list[Finding]:
    if not in_src(lf.path):
        return []
    out = []
    for lineno, line in enumerate(lf.code_lines, start=1):
        for pat, msg in _WALLCLOCK_PATTERNS:
            if pat.search(line):
                out.append(Finding(lf.path, lineno, "determinism-wallclock",
                                   msg, lf.raw_lines[lineno - 1].strip()))
        if _STEADY_RE.search(line):
            out.append(Finding(
                lf.path, lineno, "determinism-wallclock",
                "steady_clock in src/ must be annotated (telemetry-only "
                "uses) or routed through an injectable MonotonicClock "
                "(src/common/clock.hpp)",
                lf.raw_lines[lineno - 1].strip()))
    return out


_UNORDERED_DECL_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set)\s*<")


def _unordered_decls(lf: LexedFile):
    """Yield (decl_line, var_name) for unordered_{map,set} declarations."""
    text = lf.code
    for m in _UNORDERED_DECL_RE.finditer(text):
        open_idx = text.index("<", m.start())
        end = balanced_angle_span(text, open_idx)
        if end < 0:
            continue
        tail = text[end:end + 200]
        name_m = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*(?:[;={(]|$)", tail)
        name = name_m.group(1) if name_m else ""
        yield line_of_offset(text, m.start()), name


def check_determinism_unordered(lf: LexedFile) -> list[Finding]:
    if not in_digest_dirs(lf.path):
        return []
    out = []
    names = set()
    for decl_line, name in _unordered_decls(lf):
        if name:
            names.add(name)
        out.append(Finding(
            lf.path, decl_line, "determinism-unordered-member",
            f"std::unordered container '{name or '<anonymous>'}' declared in "
            "a digest-affecting subsystem; annotate with the no-iteration "
            "contract or use a sorted container",
            lf.raw_lines[decl_line - 1].strip()))
    if names:
        alt = "|".join(re.escape(n) for n in sorted(names))
        iter_re = re.compile(
            r"for\s*\([^;()]*:\s*(?:this->)?(" + alt + r")\s*\)"
            r"|\b(" + alt + r")\s*\.\s*c?begin\s*\(")
        for lineno, line in enumerate(lf.code_lines, start=1):
            m = iter_re.search(line)
            if m:
                name = m.group(1) or m.group(2)
                out.append(Finding(
                    lf.path, lineno, "determinism-unordered-iter",
                    f"iteration over std::unordered container '{name}' in a "
                    "digest-affecting subsystem: iteration order is "
                    "implementation-defined and breaks bit-identical replay",
                    lf.raw_lines[lineno - 1].strip()))
    return out


_RNG_LITERAL_RE = re.compile(  # Rng{7}, Rng(7) and `Rng name(7)` forms
    r"\bRng\s*(?:[A-Za-z_]\w*\s*)?[({]\s*(?:0[xX][0-9A-Fa-f']+|\d[\d']*)\b")
_RNG_RESEED_RE = re.compile(
    r"\.\s*reseed\s*\(\s*(?:0[xX][0-9A-Fa-f']+|\d[\d']*)\b")


def check_rng_literal_seed(lf: LexedFile) -> list[Finding]:
    if not rng_seed_scope(lf.path):
        return []
    out = []
    for lineno, line in enumerate(lf.code_lines, start=1):
        if _RNG_LITERAL_RE.search(line) or _RNG_RESEED_RE.search(line):
            out.append(Finding(
                lf.path, lineno, "rng-literal-seed",
                "Rng seeded from a literal outside tests//bench/: seeds must "
                "flow in from configuration so runs stay replayable from one "
                "root seed",
                lf.raw_lines[lineno - 1].strip()))
    return out


_RNG_DECL_RE = re.compile(
    r"(?<![\w:])(const\s+)?Rng\s*&?\s+([A-Za-z_]\w*)\s*[;,)=({]")
_RNG_MUTATING = (
    r"(?:next|uniform|uniform_int|normal|normal_once|exponential|chance|"
    r"fork|reseed)\s*\(")
_PARALLEL_RE = re.compile(r"\bparallel_(?:for|map)\s*\(")


def check_rng_shared_capture(lf: LexedFile) -> list[Finding]:
    if not in_src(lf.path):
        return []
    text = lf.code
    # Non-const Rng variables visible in this file.
    rngs = set()
    for m in _RNG_DECL_RE.finditer(text):
        if not m.group(1):  # skip `const Rng`
            rngs.add(m.group(2))
    if not rngs:
        return []
    out = []
    for m in _PARALLEL_RE.finditer(text):
        open_idx = text.index("(", m.start())
        end = balanced_span(text, open_idx, "(", ")")
        if end < 0:
            continue
        call = text[open_idx:end]
        for lam in re.finditer(r"\[([^\[\]]*)\]\s*\(", call):
            captures = lam.group(1)
            body_open = call.index("(", lam.end() - 1)
            body_brace = call.find("{", body_open)
            if body_brace < 0:
                continue
            body_end = balanced_span(call, body_brace, "{", "}")
            body = call[body_brace:body_end if body_end > 0 else len(call)]
            by_ref_all = bool(re.match(r"\s*&\s*(?:,|$)", captures))
            explicit_refs = set(
                re.findall(r"&\s*([A-Za-z_]\w*)", captures))
            # An Rng declared inside the body is a fresh per-index
            # substream -- the sanctioned pattern -- not a capture.
            body_locals = {m.group(2)
                           for m in _RNG_DECL_RE.finditer(body)}
            for name in sorted(rngs - body_locals):
                captured = by_ref_all or name in explicit_refs
                if not captured:
                    continue
                if re.search(
                        r"\b" + re.escape(name) + r"\s*(?:\.\s*" +
                        _RNG_MUTATING + r"|\(\s*\))", body):
                    lineno = line_of_offset(
                        text, open_idx + body_brace)
                    out.append(Finding(
                        lf.path, lineno, "rng-shared-capture",
                        f"Rng '{name}' captured by reference into a "
                        "parallel_for/parallel_map body and drawn from: "
                        "draw order then depends on scheduling; derive a "
                        "per-index substream() instead",
                        lf.raw_lines[lineno - 1].strip()))
    return out


_RAW_PARAM_RE = re.compile(
    r"\b(double|float)\s+([A-Za-z_]\w*" + UNIT_SUFFIX + r")\b\s*(?=[,)=])")
_RAW_RETURN_RE = re.compile(
    r"(?<![\w:])(double|float)\s+([A-Za-z_]\w*" + UNIT_SUFFIX + r")\s*\(")


def check_units_raw_double(lf: LexedFile) -> list[Finding]:
    if not (in_src(lf.path) and is_header(lf.path)):
        return []
    out = []
    for lineno, line in enumerate(lf.code_lines, start=1):
        for m in _RAW_PARAM_RE.finditer(line):
            out.append(Finding(
                lf.path, lineno, "units-raw-double",
                f"parameter '{m.group(2)}' carries a unit suffix but is raw "
                f"{m.group(1)}; use the Quantity<Tag> strong type "
                "(src/common/units.hpp)",
                lf.raw_lines[lineno - 1].strip()))
        for m in _RAW_RETURN_RE.finditer(line):
            out.append(Finding(
                lf.path, lineno, "units-raw-double",
                f"function '{m.group(2)}' is named with a unit suffix but "
                f"returns raw {m.group(1)}; return the Quantity<Tag> strong "
                "type",
                lf.raw_lines[lineno - 1].strip()))
    return out


_ROUNDTRIP_RE = re.compile(
    r"\b(" + "|".join(QUANTITY_TYPES) + r")\s*[{(]\s*"
    r"([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*(?:\.|->)\s*value\(\)\s*[})]")


def check_units_value_roundtrip(lf: LexedFile) -> list[Finding]:
    if not in_src(lf.path):
        return []
    out = []
    for lineno, line in enumerate(lf.code_lines, start=1):
        for m in _ROUNDTRIP_RE.finditer(line):
            out.append(Finding(
                lf.path, lineno, "units-value-roundtrip",
                f"{m.group(1)}{{{m.group(2)}.value()}} unwraps a quantity "
                "just to rewrap it; pass the strong type through",
                lf.raw_lines[lineno - 1].strip()))
    return out


_SWAPPABLE_TYPES = QUANTITY_TYPES + ("double", "float")
_FUNC_PAREN_RE = re.compile(r"[A-Za-z_]\w*\s*\(")
_PARAM_TYPE_RE = re.compile(
    r"^\s*(?:const\s+)?(" + "|".join(_SWAPPABLE_TYPES) + r")\s+[A-Za-z_]\w*"
    r"\s*(?:=[^,]*)?$")


def check_units_swappable_pair(lf: LexedFile) -> list[Finding]:
    if not (in_src(lf.path) and is_header(lf.path)):
        return []
    text = lf.code
    out = []
    for m in _FUNC_PAREN_RE.finditer(text):
        open_idx = text.index("(", m.start())
        end = balanced_span(text, open_idx, "(", ")")
        if end < 0:
            continue
        params = split_top_level(text[open_idx + 1:end - 1])
        types = []
        for p in params:
            tm = _PARAM_TYPE_RE.match(" ".join(p.split()))
            types.append(tm.group(1) if tm else None)
        for a, b in zip(types, types[1:]):
            if a is not None and a == b:
                lineno = line_of_offset(text, m.start())
                out.append(Finding(
                    lf.path, lineno, "units-swappable-pair",
                    f"adjacent parameters share the type '{a}': a silent "
                    "argument transposition compiles; reorder, wrap in "
                    "distinct strong types, or annotate the documented "
                    "convention",
                    lf.raw_lines[lineno - 1].strip()))
                break  # one finding per signature
    return out


_PTR_KEY_RE = re.compile(r"\bstd\s*::\s*(map|set)\s*<")


def check_ordering_pointer_key(lf: LexedFile) -> list[Finding]:
    if not in_src(lf.path):
        return []
    text = lf.code
    out = []
    for m in _PTR_KEY_RE.finditer(text):
        open_idx = text.index("<", m.start())
        end = balanced_angle_span(text, open_idx)
        if end < 0:
            continue
        args = split_top_level(text[open_idx + 1:end - 1])
        if args and args[0].strip().endswith("*"):
            lineno = line_of_offset(text, m.start())
            out.append(Finding(
                lf.path, lineno, "ordering-pointer-key",
                f"std::{m.group(1)} keyed on a raw pointer: iteration order "
                "is allocation order, which varies run to run; key on a "
                "stable id or annotate the lookup-only contract",
                lf.raw_lines[lineno - 1].strip()))
    return out


ALL_CHECKS = (
    check_determinism_wallclock,
    check_determinism_unordered,
    check_rng_literal_seed,
    check_rng_shared_capture,
    check_units_raw_double,
    check_units_value_roundtrip,
    check_units_swappable_pair,
    check_ordering_pointer_key,
)


# --------------------------------------------------------------------------
# Annotation application
# --------------------------------------------------------------------------


def _comment_only(lf: LexedFile, lineno: int) -> bool:
    if lineno < 1 or lineno > len(lf.code_lines):
        return False
    return not lf.code_lines[lineno - 1].strip()


def apply_annotations(lf: LexedFile, findings: list[Finding]):
    """Drop findings covered by an annotation; report annotation misuse."""
    by_line: dict[int, list[Annotation]] = {}
    for ann in lf.annotations:
        by_line.setdefault(ann.line, []).append(ann)

    def annotations_covering(lineno: int):
        yield from by_line.get(lineno, [])
        probe = lineno - 1
        while _comment_only(lf, probe):
            yield from by_line.get(probe, [])
            probe -= 1

    kept = []
    for f in findings:
        suppressed = False
        for ann in annotations_covering(f.line):
            if ann.check == f.check:
                ann.used = True
                suppressed = True
        if not suppressed:
            kept.append(f)

    known = set(CHECK_IDS)
    for ann in lf.annotations:
        if ann.check not in known:
            kept.append(Finding(
                lf.path, ann.line, "lint-allow-unknown",
                f"ALPHAWAN-LINT-ALLOW names unknown check '{ann.check}' "
                f"(known: {', '.join(CHECK_IDS)})",
                lf.raw_lines[ann.line - 1].strip()))
        elif not ann.used:
            kept.append(Finding(
                lf.path, ann.line, "lint-allow-unused",
                f"ALPHAWAN-LINT-ALLOW({ann.check}: ...) no longer suppresses "
                "anything -- the finding it grandfathered is gone; delete "
                "the annotation",
                lf.raw_lines[ann.line - 1].strip()))
    for lineno in lf.malformed_allow:
        kept.append(Finding(
            lf.path, lineno, "lint-allow-malformed",
            "ALPHAWAN-LINT-ALLOW must be written "
            "ALPHAWAN-LINT-ALLOW(<check-id>: <reason>) with a non-empty "
            "reason",
            lf.raw_lines[lineno - 1].strip()))
    kept.sort(key=lambda f: (f.path, f.line, f.check))
    return kept


def lint_file(real_path: str, virtual_path: str) -> list[Finding]:
    with open(real_path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    lf = lex_file(virtual_path, text)
    findings: list[Finding] = []
    for chk in ALL_CHECKS:
        findings.extend(chk(lf))
    return apply_annotations(lf, findings)


# --------------------------------------------------------------------------
# File-set discovery
# --------------------------------------------------------------------------


def rel_to_root(path: str) -> str:
    rp = os.path.relpath(os.path.abspath(path), REPO_ROOT)
    return rp.replace(os.sep, "/")


def files_from_compile_commands(cc_path: str) -> list[str]:
    with open(cc_path, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    files = set()
    for e in entries:
        f = e.get("file", "")
        if not os.path.isabs(f):
            f = os.path.join(e.get("directory", ""), f)
        rp = rel_to_root(f)
        if rp.startswith(("src/", "examples/")):
            files.add(rp)
    # compile_commands only lists translation units; the header-scoped
    # checks (units, unordered members) need the headers too.
    for dirpath, _dirnames, filenames in os.walk(
            os.path.join(REPO_ROOT, "src")):
        for fn in filenames:
            if fn.endswith((".hpp", ".h")):
                files.add(rel_to_root(os.path.join(dirpath, fn)))
    return sorted(files)


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------


def fingerprint(f: Finding):
    return (f.path, f.check, f.context)


def load_baseline(path: str):
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    counts: dict[tuple, int] = {}
    for e in data.get("entries", []):
        key = (e["file"], e["check"], e["context"])
        counts[key] = counts.get(key, 0) + int(e.get("count", 1))
    return counts


def write_baseline(path: str, findings: list[Finding]):
    counts: dict[tuple, int] = {}
    for f in findings:
        counts[fingerprint(f)] = counts.get(fingerprint(f), 0) + 1
    entries = [
        {"file": k[0], "check": k[1], "context": k[2], "count": v}
        for k, v in sorted(counts.items())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"version": 1,
                   "comment": "Grandfathered alphawan-lint findings. "
                              "Shrink-only: scripts/check_lint_baseline.py "
                              "fails CI when this file grows.",
                   "entries": entries}, fh, indent=2)
        fh.write("\n")


def apply_baseline(findings: list[Finding], counts: dict):
    remaining = dict(counts)
    kept, suppressed = [], 0
    for f in findings:
        key = fingerprint(f)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            suppressed += 1
        else:
            kept.append(f)
    stale = [k for k, v in remaining.items() if v > 0]
    return kept, suppressed, stale


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def run_fixture(args) -> int:
    virtual = args.as_path or rel_to_root(args.fixture)
    findings = lint_file(args.fixture, virtual)
    got = [f"{f.line}: {f.check}" for f in findings]
    if args.expected is None:
        for f in findings:
            print(f.render())
        return 0 if not findings else 1
    want = []
    with open(args.expected, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                want.append(line)
    if sorted(got) == sorted(want):
        print(f"fixture OK: {args.fixture} "
              f"({len(got)} expected finding(s))")
        return 0
    print(f"fixture MISMATCH: {args.fixture}", file=sys.stderr)
    for g in got:
        mark = " " if g in want else "+"
        print(f"  {mark} {g}", file=sys.stderr)
    for w in want:
        if w not in got:
            print(f"  - {w} (expected, not reported)", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    global REPO_ROOT
    ap = argparse.ArgumentParser(
        prog="alphawan_lint.py",
        description="AlphaWAN project-convention static analysis "
                    "(token engine)")
    ap.add_argument("files", nargs="*", help="explicit files to lint")
    ap.add_argument("--compile-commands", metavar="JSON",
                    help="derive the file set from a compile database")
    ap.add_argument("--baseline", metavar="JSON",
                    help="suppress findings recorded in this baseline file")
    ap.add_argument("--write-baseline", action="store_true",
                    help="rewrite --baseline from the current findings")
    ap.add_argument("--fixture", metavar="CPP",
                    help="lint one fixture file (with --as-path scoping)")
    ap.add_argument("--as-path", metavar="RELPATH",
                    help="virtual repo-relative path for --fixture scoping")
    ap.add_argument("--expected", metavar="FILE",
                    help="expected-diagnostics file ('LINE: CHECK' per line)")
    ap.add_argument("--root", metavar="DIR", default=REPO_ROOT,
                    help="tree root for path scoping (default: the repo "
                         "containing this script); tests use a staged root")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)
    REPO_ROOT = os.path.abspath(args.root)

    if args.fixture:
        return run_fixture(args)

    if args.compile_commands:
        rel_files = files_from_compile_commands(args.compile_commands)
    elif args.files:
        rel_files = [rel_to_root(f) for f in args.files]
    else:
        ap.error("need FILE..., --compile-commands, or --fixture")

    findings: list[Finding] = []
    for rp in rel_files:
        real = os.path.join(REPO_ROOT, rp)
        if not os.path.exists(real):
            print(f"alphawan-lint: missing file {rp}", file=sys.stderr)
            return 2
        findings.extend(lint_file(real, rp))

    suppressed, stale = 0, []
    if args.baseline and args.write_baseline:
        write_baseline(args.baseline, findings)
        print(f"alphawan-lint: wrote {len(findings)} finding(s) to "
              f"{args.baseline}")
        return 0
    if args.baseline:
        counts = load_baseline(args.baseline)
        findings, suppressed, stale = apply_baseline(findings, counts)

    for f in findings:
        print(f.render())
    for key in stale:
        print(f"alphawan-lint: stale baseline entry ({key[0]}, {key[1]}): "
              "the finding is gone -- shrink the baseline", file=sys.stderr)
    if not args.quiet:
        print(f"alphawan-lint: {len(rel_files)} file(s), "
              f"{len(findings)} finding(s), {suppressed} baselined"
              + (f", {len(stale)} stale baseline entr(y/ies)" if stale else ""))
    return 1 if findings or stale else 0


if __name__ == "__main__":
    sys.exit(main())
