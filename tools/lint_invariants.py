#!/usr/bin/env python3
"""Project invariant linter: determinism and concurrency contracts as rules.

The simulator's determinism contract ("nothing about execution depends on
wall-clock time or scheduling jitter", sim/sim_clock.h) and the concurrency
layer's annotation discipline (common/thread_annotations.h) are enforced
here as grep-level static checks that run in CI next to the clang
thread-safety build. Python stdlib only — no third-party dependencies.

Usage:
    tools/lint_invariants.py [--list-rules] PATH [PATH ...]

PATH arguments may be files or directories (directories are walked for
C++ sources: .h/.hpp/.cc/.cpp). Output is one violation per line in
`file:line: [rule] message` format; exit status 1 when any violation is
found, 0 otherwise.

Suppressing a finding: append a tag comment on the offending line, or on
the comment block immediately above the offending statement:

    // lint:allow(rule-name) reason the exception is sound

A tag must carry a reason; bare tags are themselves violations. Inside
the deterministic core (any path component named sim/, core/, policy/ or
oracle/) the wall-clock and ambient-random rules are hard bans: allow
tags are NOT honored there, because a tagged exception would still leak
nondeterminism into replay results. Likewise no tag admits a sleep
(sleep_for/sleep_until) under a serving/ path: a served lookup that
polls must do so with a zero-wait sweep; nor a SimClock event scheduled
under a serving/ path: a served hint carries its ready time, and the
serving layer only reads virtual time.

Hot-path allocation checks: a comment line containing `hotpath:` marks
the next function definition as allocation-free; its body (brace-matched)
must not construct std::function, call make_shared/make_unique, use
`new`, or declare allocating containers.
"""

import argparse
import os
import re
import sys

# Path components whose files form the deterministic replay core.
RESTRICTED_COMPONENTS = {"sim", "core", "policy", "oracle"}
# Path component whose files form the serving path (no sleeps and no clock
# events at all).
SERVING_COMPONENT = "serving"

CPP_EXTENSIONS = {".h", ".hpp", ".cc", ".cpp"}

# rule name -> (summary, detail) shown by --list-rules.
RULES = {
    "wall-clock": (
        "no wall-clock reads in the deterministic core",
        "system_clock/steady_clock/high_resolution_clock/sleep_for/"
        "sleep_until/std::time/clock_gettime/gettimeofday are banned in "
        "sim/, core/, policy/, oracle/ (no allow tags honored); elsewhere "
        "intentional uses must carry a lint:allow(wall-clock) tag.",
    ),
    "serving-sleep": (
        "no sleeps on the serving path",
        "sleep_for/sleep_until are banned under any serving/ path (no allow "
        "tags honored, lint:allow(wall-clock) included): a served lookup "
        "that polls must use a zero-wait sweep, never a sleep.",
    ),
    "serving-clock-events": (
        "no clock events scheduled on the serving path",
        "SimClock::schedule_typed is banned under any serving/ path (no "
        "allow tags honored): a served hint carries its ready time, which "
        "the lookup compares with the consumer's deadline, so the serving "
        "layer reads virtual time and never schedules on it.",
    ),
    "ambient-random": (
        "no ambient randomness in the deterministic core",
        "std::rand/srand/random_device are banned in sim/, core/, policy/, "
        "oracle/ (no allow tags honored); elsewhere intentional uses must "
        "carry a lint:allow(ambient-random) tag. Seeded common::SplitMix64 "
        "is the project RNG.",
    ),
    "hotpath-alloc": (
        "no allocation in functions marked `// hotpath:`",
        "inside a hotpath-marked function body: no std::function "
        "construction, no make_shared/make_unique, no `new`, and no "
        "declarations of allocating containers (vector/map/set/deque/...).",
    ),
    "locale-dependent": (
        "no locale-dependent character classification",
        "tolower/toupper/isalnum/isalpha/isdigit/isspace/isupper/islower/"
        "setlocale/std::locale give locale-dependent answers; feature "
        "hashing must be bit-stable across machines (features/tokenizer.h "
        "uses a fixed 256-byte table instead). Repo-wide; allow tags "
        "honored.",
    ),
    "guarded-mutex": (
        "every common::Mutex member guards something",
        "a `common::Mutex` member declaration must be paired with at least "
        "one BYOM_GUARDED_BY(<member>) in the same file, or carry a "
        "lint:allow(guarded-mutex) tag explaining why nothing is guarded "
        "(protocol-only gates).",
    ),
    "raw-mutex": (
        "no raw std::mutex primitives outside the wrapper",
        "std::mutex/std::condition_variable/std::lock_guard/"
        "std::unique_lock/std::scoped_lock are banned in src/ — use "
        "common::Mutex/MutexLock/CondVar so the Clang thread-safety "
        "analysis sees every acquisition. Allow tags honored (the wrapper "
        "itself is tagged).",
    ),
    "atomic-shared-ptr": (
        "no free atomic_load/atomic_store/atomic_exchange",
        "std::atomic_load/atomic_store/atomic_exchange (and their _explicit "
        "forms) exist for shared_ptr slots: libstdc++ implements them with "
        "a mutex from a global pool, so they are neither lock-free nor "
        "cheap, and C++20 deprecates them. Guard the shared_ptr with a "
        "common::Mutex instead (core/model_registry.h); std::atomic "
        "objects use their member functions. Allow tags honored.",
    ),
    "atomic-order": (
        "every explicit memory_order argument names its pairing",
        "an explicit std::memory_order_* argument must carry a `// atomic: "
        "<reason>` comment — on the same line, on an earlier line of the "
        "same wrapped call, or in the comment block immediately above the "
        "statement (a tag block above a contiguous run of atomic "
        "statements covers the whole run) — naming the acquire/release "
        "pairing it participates in (or why relaxed is safe). A bare "
        "`// atomic:` tag without a reason is itself a violation. Allow "
        "tags honored.",
    ),
}

ALLOW_TAG_RE = re.compile(r"lint:allow\(([A-Za-z][A-Za-z0-9-]*)\)(.*)")
HOTPATH_RE = re.compile(r"^\s*//\s*hotpath:")

WALL_CLOCK_RE = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock|sleep_for|"
    r"sleep_until|clock_gettime|gettimeofday)\b|std::time\s*\("
)
SLEEP_RE = re.compile(r"\b(?:sleep_for|sleep_until)\b")
SCHEDULE_RE = re.compile(r"\bschedule_typed\b")
AMBIENT_RANDOM_RE = re.compile(r"\b(?:srand|random_device)\b|std::rand\b")
LOCALE_RE = re.compile(
    r"\b(?:tolower|toupper|isalnum|isalpha|isdigit|isspace|isupper|"
    r"islower|setlocale)\s*\(|std::locale\b"
)
ATOMIC_SHARED_PTR_RE = re.compile(
    r"(?:\bstd::|(?<![\w.:>]))atomic_(?:load|store|exchange)(?:_explicit)?"
    r"\s*\("
)
RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|condition_variable|lock_guard|unique_lock|scoped_lock)\b"
)
HOTPATH_ALLOC_RE = re.compile(
    r"std::function\s*<|\bmake_shared\s*<|\bmake_unique\s*<|\bnew\b|"
    r"std::(?:vector|map|unordered_map|set|unordered_set|multimap|"
    r"multiset|deque|list)\s*<"
)
MUTEX_MEMBER_RE = re.compile(r"\bcommon::Mutex\s+(\w+)\s*;")
ATOMIC_ORDER_RE = re.compile(
    r"\bmemory_order_(?:relaxed|acquire|release|acq_rel|seq_cst|consume)\b"
)
ATOMIC_TAG_RE = re.compile(r"//\s*atomic:(.*)")
STATEMENT_END_RE = re.compile(r"[;{}]\s*$")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving layout.

    Every stripped character becomes a space so line numbers and column
    positions survive; newlines are kept. Handles //, /* */, "...", '...'
    and raw string literals R"delim(...)delim".
    """
    out = []
    i = 0
    n = len(text)
    CODE, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW_STRING = range(6)
    state = CODE
    raw_terminator = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == CODE:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
            elif c == '"':
                # R"delim( ... )delim" — only when R directly abuts the quote
                # and is not part of an identifier (e.g. MACRO_R"...").
                prev = text[i - 1] if i > 0 else ""
                prev2 = text[i - 2] if i > 1 else ""
                if prev == "R" and not (prev2.isalnum() or prev2 == "_"):
                    m = re.match(r'"([^()\\ \t\n]*)\(', text[i:])
                    if m:
                        raw_terminator = ")" + m.group(1) + '"'
                        state = RAW_STRING
                        out.append('"')
                        i += 1
                        continue
                state = STRING
                out.append('"')
                i += 1
            elif c == "'":
                state = CHAR
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = CODE
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = CODE
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == STRING:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = CODE
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == CHAR:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = CODE
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
        else:  # RAW_STRING
            if text.startswith(raw_terminator, i):
                state = CODE
                out.append(" " * len(raw_terminator))
                i += len(raw_terminator)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def is_comment_only(line):
    s = line.strip()
    return s.startswith("//") or s.startswith("*") or s.startswith("/*")


def collect_allows(lines, violations, path):
    """Map line number (1-based) -> set of allowed rule names.

    A tag applies to its own line. A tag in a comment block also applies
    to the whole statement that follows the block (until a line whose
    code content reaches `;`, `{` or `}`), so multi-line statements are
    covered.
    """
    allows = {}

    def add(lineno, rules):
        allows.setdefault(lineno, set()).update(rules)

    i = 0
    n = len(lines)
    while i < n:
        line = lines[i]
        tags = set()
        for m in ALLOW_TAG_RE.finditer(line):
            rule, rest = m.group(1), m.group(2)
            if rule not in RULES:
                violations.append(
                    (path, i + 1, "lint-tag", f"unknown rule '{rule}' in "
                     "lint:allow tag")
                )
                continue
            # A tag reason may continue on the next comment line; require
            # at least one non-space character after the tag or on the
            # same comment line.
            if not rest.strip():
                violations.append(
                    (path, i + 1, "lint-tag",
                     f"lint:allow({rule}) needs a reason after the tag")
                )
                continue
            tags.add(rule)
        if not tags:
            i += 1
            continue
        add(i + 1, tags)
        if is_comment_only(line):
            # Propagate over the rest of the comment block, then over the
            # first statement after it.
            j = i + 1
            while j < n and is_comment_only(lines[j]):
                add(j + 1, tags)
                j += 1
            while j < n:
                add(j + 1, tags)
                code = lines[j]
                if ";" in code or "{" in code or "}" in code:
                    break
                j += 1
        i += 1
    return allows


def hotpath_bodies(raw_lines, stripped_text):
    """Yield (start_line, end_line) spans of hotpath-marked function bodies."""
    stripped_lines = stripped_text.split("\n")
    # Offsets of each line start in stripped_text.
    offsets = []
    pos = 0
    for line in stripped_lines:
        offsets.append(pos)
        pos += len(line) + 1
    spans = []
    for idx, line in enumerate(raw_lines):
        if not HOTPATH_RE.search(line):
            continue
        # Find the first '{' at or after the marker line in stripped text.
        start = offsets[idx + 1] if idx + 1 < len(offsets) else len(
            stripped_text)
        open_pos = stripped_text.find("{", start)
        if open_pos < 0:
            continue
        depth = 0
        close_pos = None
        for k in range(open_pos, len(stripped_text)):
            ch = stripped_text[k]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    close_pos = k
                    break
        if close_pos is None:
            continue
        start_line = stripped_text.count("\n", 0, open_pos) + 1
        end_line = stripped_text.count("\n", 0, close_pos) + 1
        if (start_line, end_line) not in spans:
            spans.append((start_line, end_line))
    return spans


def atomic_tag_state(raw_line):
    """'ok' if the line carries `// atomic: <reason>`, 'bare' if the tag
    has no reason, None if there is no tag."""
    m = ATOMIC_TAG_RE.search(raw_line)
    if not m:
        return None
    return "ok" if m.group(1).strip() else "bare"


def find_atomic_tag(raw_lines, stripped_lines, idx):
    """Tag state for the memory_order use on 0-based line `idx`.

    Accepted placements: the line itself, an earlier line of the same
    wrapped statement, or the contiguous comment block immediately above
    the statement. Returns 'ok', 'bare', or None.
    """
    state = atomic_tag_state(raw_lines[idx])
    if state is not None:
        return state
    k = idx - 1
    in_comment_block = False
    while k >= 0:
        raw = raw_lines[k]
        if is_comment_only(raw):
            in_comment_block = True
            state = atomic_tag_state(raw)
            if state is not None:
                return state
            k -= 1
            continue
        if in_comment_block:
            return None  # scanned past the top of the comment block.
        code = stripped_lines[k].rstrip()
        if not code.strip():
            return None  # blank line ends the statement group.
        state = atomic_tag_state(raw)
        if state is not None:
            return state
        if STATEMENT_END_RE.search(code) and not ATOMIC_ORDER_RE.search(code):
            # The previous statement ended and was not itself part of this
            # contiguous run of atomic statements (one tag block above a
            # run of counter reads/bumps covers the whole run).
            return None
        k -= 1
    return None


def is_restricted(path):
    parts = os.path.normpath(path).split(os.sep)
    return any(p in RESTRICTED_COMPONENTS for p in parts)


def scan_regex(regex, stripped_lines, rule, message, path, restricted,
               allows, violations):
    for idx, line in enumerate(stripped_lines):
        m = regex.search(line)
        if not m:
            continue
        lineno = idx + 1
        allowed = rule in allows.get(lineno, set())
        if allowed and not restricted:
            continue
        suffix = ""
        if allowed and restricted:
            suffix = (" (lint:allow not honored inside the deterministic "
                      "core)")
        violations.append(
            (path, lineno, rule, f"{message}: '{m.group(0).strip()}'{suffix}")
        )


def lint_file(path, violations):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as err:
        violations.append((path, 0, "io", f"cannot read file: {err}"))
        return
    raw_lines = text.split("\n")
    stripped = strip_comments_and_strings(text)
    stripped_lines = stripped.split("\n")
    allows = collect_allows(raw_lines, violations, path)
    restricted = is_restricted(path)

    scan_regex(WALL_CLOCK_RE, stripped_lines, "wall-clock",
               "wall-clock primitive", path, restricted, allows, violations)
    if SERVING_COMPONENT in os.path.normpath(path).split(os.sep):
        scan_regex(SLEEP_RE, stripped_lines, "serving-sleep",
                   "sleep on the serving path (no allow tag admits it; poll "
                   "with a zero-wait sweep)",
                   path, False, {}, violations)
        scan_regex(SCHEDULE_RE, stripped_lines, "serving-clock-events",
                   "clock event scheduled on the serving path (no allow tag "
                   "admits it; a hint carries its ready time)",
                   path, False, {}, violations)
    scan_regex(AMBIENT_RANDOM_RE, stripped_lines, "ambient-random",
               "ambient randomness", path, restricted, allows, violations)
    scan_regex(LOCALE_RE, stripped_lines, "locale-dependent",
               "locale-dependent call", path, False, allows, violations)
    scan_regex(RAW_MUTEX_RE, stripped_lines, "raw-mutex",
               "raw mutex primitive (use common::Mutex/MutexLock/CondVar)",
               path, False, allows, violations)
    scan_regex(ATOMIC_SHARED_PTR_RE, stripped_lines, "atomic-shared-ptr",
               "free atomic function on a shared_ptr slot (guard it with a "
               "common::Mutex)", path, False, allows, violations)

    # hotpath-alloc: scan only inside marked bodies.
    for start_line, end_line in hotpath_bodies(raw_lines, stripped):
        for lineno in range(start_line, end_line + 1):
            line = stripped_lines[lineno - 1]
            m = HOTPATH_ALLOC_RE.search(line)
            if not m:
                continue
            if "hotpath-alloc" in allows.get(lineno, set()):
                continue
            violations.append(
                (path, lineno, "hotpath-alloc",
                 f"allocation in hotpath function: '{m.group(0).strip()}'")
            )

    # atomic-order: every explicit memory_order names its pairing.
    for idx, line in enumerate(stripped_lines):
        if not ATOMIC_ORDER_RE.search(line):
            continue
        lineno = idx + 1
        if "atomic-order" in allows.get(lineno, set()):
            continue
        state = find_atomic_tag(raw_lines, stripped_lines, idx)
        if state == "ok":
            continue
        if state == "bare":
            violations.append(
                (path, lineno, "atomic-order",
                 "`// atomic:` tag has no reason; name the acquire/release "
                 "pairing (or why relaxed is safe)"))
        else:
            violations.append(
                (path, lineno, "atomic-order",
                 "explicit memory_order argument without a `// atomic: "
                 "<reason>` comment naming its pairing"))

    # guarded-mutex: every common::Mutex member must guard something.
    for idx, line in enumerate(stripped_lines):
        m = MUTEX_MEMBER_RE.search(line)
        if not m:
            continue
        lineno = idx + 1
        name = m.group(1)
        if "guarded-mutex" in allows.get(lineno, set()):
            continue
        if re.search(r"BYOM_GUARDED_BY\(\s*" + re.escape(name) + r"\s*\)",
                     text):
            continue
        violations.append(
            (path, lineno, "guarded-mutex",
             f"mutex member '{name}' has no BYOM_GUARDED_BY(...) in this "
             "file; annotate what it guards or tag the declaration")
        )


def gather_files(paths, violations):
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs.sort()
                for name in sorted(names):
                    if os.path.splitext(name)[1] in CPP_EXTENSIONS:
                        files.append(os.path.join(root, name))
        elif os.path.isfile(p):
            files.append(p)
        else:
            violations.append((p, 0, "io", "no such file or directory"))
    return files


def main(argv):
    parser = argparse.ArgumentParser(
        description="BYOM project invariant linter (determinism + "
        "concurrency contracts)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, (summary, detail) in RULES.items():
            print(f"{name}: {summary}")
            print(f"    {detail}")
        return 0

    if not args.paths:
        parser.error("no paths given (or use --list-rules)")

    violations = []
    for path in gather_files(args.paths, violations):
        lint_file(path, violations)

    for path, lineno, rule, message in violations:
        print(f"{path}:{lineno}: [{rule}] {message}")
    if violations:
        print(f"{len(violations)} violation(s) found.", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
