#!/usr/bin/env python3
"""ckv-lint: repo-local determinism & concurrency convention linter.

Enforces, with nothing but the standard library, the conventions the
determinism contract (docs/PERFORMANCE.md) and the concurrency contract
(docs/STATIC_ANALYSIS.md) rely on but a compiler cannot check:

  wall-clock        No wall/steady clock reads outside src/obs/ (the
                    tracer's wall-ns dual) and bench/ (harness timing).
                    Virtual-clock outputs must never depend on host time.
  unseeded-rng      No ambient-seeded randomness (std::random_device,
                    rand/srand, default-constructed mt19937) outside the
                    seeded wrapper in src/tensor/rng.hpp. Every stream of
                    randomness must be reproducible from a named seed.
  raw-random        No std:: engines (std::mt19937*), distributions
                    (std::*_distribution) or std::generate_canonical
                    outside src/tensor/rng.* and the std oracle test
                    (tests/test_rng_oracle.cpp). Their streams differ
                    across standard libraries, and the seeded streams
                    every figure is built on come from ckv::Rng's
                    bit-exact replica; draw through it.
  unordered-iter    No iteration over std::unordered_map/set variables:
                    bucket order is implementation-defined, so anything
                    ordered derived from it silently varies across
                    platforms. Sort first, or suppress with a reason when
                    the consumer is provably order-free.
  raw-thread        No std::thread / std::async / OpenMP outside
                    src/util/parallel.*: all parallelism goes through the
                    pool so worker counts, chunking and determinism knobs
                    (CKV_THREADS) stay in one place.
  float-accumulate  No std::accumulate over floats outside the vec_ops
                    lane contract (src/tensor/vec_ops.*): reduction order
                    is part of the numeric contract and must go through
                    the fixed-lane kernels.
  bare-catch        No `catch (...)` that swallows the exception outside
                    tests/: the handler must rethrow, preserve it
                    (std::current_exception) or at least report it. The
                    robustness contract (docs/ROBUSTNESS.md) surfaces
                    faults as typed errors; silently eating an unknown
                    exception hides them.
  fp-contract       No FMA contraction in src/ or bench/: no `fma` or
                    `arch=` inside a target(...)/target_clones(...)
                    attribute, no fp-contract=fast, no
                    `#pragma STDC FP_CONTRACT ON` (or clang's
                    `#pragma clang fp contract(on|fast)`). A fused
                    multiply-add rounds once where the lane contract's
                    `a * b + c` rounds twice, so it moves scores in the
                    last bit and breaks bit identity with dot_f32.

Suppression is machine-readable and audited, never silent:

    // ckv-lint: allow(<rule>) -- <reason>

on the offending line, or on its own line at most {SUPPRESSION_REACH}
lines above (so a comment can cover a multi-line statement). The reason
is mandatory. `allow(rule-a, rule-b)` suppresses several rules at once.

Usage:
    tools/ckv_lint.py [--root DIR]              # lint the whole repo
    tools/ckv_lint.py --check-file F --as-path P  # lint one file as if
                                                  # it lived at repo path
                                                  # P (fixture tests)
    tools/ckv_lint.py --list-rules

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# A suppression comment on its own line covers this many lines below it,
# so one comment can cover a statement wrapped by clang-format.
SUPPRESSION_REACH = 3

SCAN_DIRS = ("src", "bench", "tests", "examples")
SCAN_EXTS = (".cpp", ".hpp", ".cc", ".h")
# Deliberately-violating inputs for the fixture tests; linted one at a
# time via --check-file, never as part of the repo walk.
SKIP_PREFIXES = ("tests/lint_fixtures/",)

ALLOW_RE = re.compile(r"ckv-lint:\s*allow\(([a-z\-,\s]+)\)\s*--\s*\S")

# Path prefixes (repo-relative, '/'-separated) where each rule does not
# apply. Everything else needs a suppression comment with a reason.
RULE_ALLOWED_PREFIXES = {
    "wall-clock": ("src/obs/", "bench/"),
    "unseeded-rng": ("src/tensor/rng.",),
    "raw-random": ("src/tensor/rng.", "tests/test_rng_oracle.cpp"),
    "unordered-iter": (),
    "raw-thread": ("src/util/parallel.",),
    "float-accumulate": ("src/tensor/vec_ops.",),
    "bare-catch": ("tests/",),
    "fp-contract": (),
}

# Rules that only apply under these path prefixes (every other rule
# applies everywhere outside its RULE_ALLOWED_PREFIXES).
RULE_SCOPE_PREFIXES = {
    "fp-contract": ("src/", "bench/"),
}

SIMPLE_RULES = {
    "wall-clock": re.compile(
        r"steady_clock|system_clock|high_resolution_clock|clock_gettime"
        r"|gettimeofday|std::time\b|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
    ),
    "unseeded-rng": re.compile(
        r"std::random_device|\brand\s*\(\s*\)|\bsrand\s*\("
        r"|std::mt19937(?:_64)?\s+\w+\s*[;{]"
    ),
    "raw-random": re.compile(
        r"std::mt19937\w*|std::\w+_distribution\b|std::generate_canonical\b"
    ),
    "raw-thread": re.compile(
        r"std::thread\b(?!::)|std::jthread\b|std::async\b|#\s*pragma\s+omp"
    ),
    "float-accumulate": re.compile(r"std::accumulate\b"),
}

RULE_MESSAGES = {
    "wall-clock": "wall-clock read outside src/obs//bench/ — deterministic "
    "code must stay on the virtual clock",
    "unseeded-rng": "ambient-seeded randomness — route through the seeded "
    "RNG in src/tensor/rng.hpp",
    "raw-random": "raw std:: random engine or distribution — draw through "
    "ckv::Rng (src/tensor/rng.hpp), whose streams are the same on every "
    "standard library",
    "unordered-iter": "iteration over an unordered container ({var}) — "
    "bucket order is implementation-defined; sort first or justify with a "
    "suppression",
    "raw-thread": "raw threading primitive outside src/util/parallel — use "
    "parallel_for/parallel_for_range",
    "float-accumulate": "std::accumulate outside the vec_ops lane contract "
    "— reduction order is part of the numeric contract",
    "bare-catch": "catch (...) swallows the exception — rethrow, store "
    "std::current_exception(), or report it before continuing",
    "fp-contract": "FMA contraction enabled — a fused multiply-add rounds once "
    "and breaks the lane contract's bit identity; keep fma and arch= out of "
    "target attributes and leave fp-contract off",
}

ALL_RULES = tuple(RULE_MESSAGES)

# Matches the *start* of an unordered container declaration. The negative
# lookbehind keeps nested uses (std::vector<std::unordered_set<...>> v)
# from claiming the outer variable's name.
UNORDERED_DECL_START = re.compile(
    r"(?<![<,\w])(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<"
)
IDENT_AFTER_TEMPLATE = re.compile(r"\s*&?\s*([A-Za-z_]\w*)\s*[;,)({=\[]")
INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')

# Matched against code with comments stripped but string literals kept:
# the target attribute names its ISA in a string. An arch= target (e.g.
# haswell) enables FMA too; an explicit no-fma is fine.
FP_CONTRACT_RE = re.compile(
    r"\btarget(?:_clones)?\s*\([^)]*(?:(?<!no-)\bfma|\barch=)"
    r"|fp-contract\s*=\s*fast"
    r"|#\s*pragma\s+STDC\s+FP_CONTRACT\s+ON\b"
    r"|#\s*pragma\s+clang\s+fp\s+contract\s*\(\s*(?:on|fast)\s*\)"
)

BARE_CATCH_RE = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
# A handler is fine if it rethrows, preserves the exception object, or
# visibly reports it (stream, logger, tracer) before moving on.
CATCH_HANDLES_RE = re.compile(
    r"\bthrow\b|rethrow|current_exception|\bcerr\b|\bclog\b|\bcout\b"
    r"|\blog\w*\s*\(|tracer\s*\(\s*\)"
)


def strip_comments_and_strings(lines, keep_strings=False):
    """Blanks out //, /* */ comments and string/char literals, preserving
    line structure, so rule patterns only see code. With keep_strings the
    literals stay (for rules that read attribute arguments)."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                start = i
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                result.append(line[start:i] if keep_strings else " ")
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


def find_brace_close(text, open_idx):
    """Index of the '}' matching the '{' at open_idx, or -1 (comments and
    strings already stripped, so raw brace counting is exact)."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def find_template_close(text, open_idx):
    """Index just past the '>' matching the '<' at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def unordered_declarations(code_lines):
    """Names of variables declared as unordered_map/set in these lines."""
    names = set()
    # Join so declarations split across lines still parse.
    text = "\n".join(code_lines)
    for match in UNORDERED_DECL_START.finditer(text):
        open_idx = text.index("<", match.start())
        close = find_template_close(text, open_idx)
        if close == -1:
            continue
        ident = IDENT_AFTER_TEMPLATE.match(text, close)
        if ident:
            names.add(ident.group(1))
    return names


def direct_includes(lines):
    return [m.group(1) for line in lines if (m := INCLUDE_RE.match(line.strip()))]


def parse_suppressions(raw_lines):
    """(rule, covered-line-set) pairs from ckv-lint allow comments."""
    covered = {}  # rule -> set of 1-based line numbers
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = [r.strip() for r in m.group(1).split(",") if r.strip()]
        before_comment = line.split("//", 1)[0].strip()
        # Inline comments cover their own line; standalone ones reach down.
        lines_covered = (
            {idx}
            if before_comment
            else set(range(idx, idx + SUPPRESSION_REACH + 1))
        )
        for rule in rules:
            covered.setdefault(rule, set()).update(lines_covered)
    return covered


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def rule_applies(rule, rel_path):
    scope = RULE_SCOPE_PREFIXES.get(rule)
    if scope is not None and not rel_path.startswith(scope):
        return False
    return not any(rel_path.startswith(p) for p in RULE_ALLOWED_PREFIXES[rule])


def lint_file(rel_path, raw_lines, extra_unordered_names=()):
    findings = []
    suppressed = parse_suppressions(raw_lines)
    code_lines = strip_comments_and_strings(raw_lines)

    def report(rule, line_no, message):
        if line_no in suppressed.get(rule, ()):
            return
        findings.append(Finding(rel_path, line_no, rule, message))

    for rule, pattern in SIMPLE_RULES.items():
        if not rule_applies(rule, rel_path):
            continue
        for idx, line in enumerate(code_lines, start=1):
            if pattern.search(line):
                report(rule, idx, RULE_MESSAGES[rule])

    if rule_applies("unordered-iter", rel_path):
        names = unordered_declarations(code_lines) | set(extra_unordered_names)
        if names:
            alt = "|".join(re.escape(n) for n in sorted(names))
            iter_re = re.compile(
                rf"for\s*\([^;)]*:\s*\*?({alt})\s*\)|({alt})\s*\.\s*c?begin\s*\(\)"
            )
            for idx, line in enumerate(code_lines, start=1):
                m = iter_re.search(line)
                if m:
                    var = m.group(1) or m.group(2)
                    report(
                        "unordered-iter",
                        idx,
                        RULE_MESSAGES["unordered-iter"].format(var=var),
                    )

    if rule_applies("bare-catch", rel_path):
        text = "\n".join(code_lines)
        for m in BARE_CATCH_RE.finditer(text):
            open_idx = text.find("{", m.end())
            if open_idx == -1:
                continue
            close = find_brace_close(text, open_idx)
            body = text[open_idx + 1 : close] if close != -1 else text[open_idx + 1 :]
            if CATCH_HANDLES_RE.search(body):
                continue
            line_no = text.count("\n", 0, m.start()) + 1
            report("bare-catch", line_no, RULE_MESSAGES["bare-catch"])

    if rule_applies("fp-contract", rel_path):
        code_with_strings = strip_comments_and_strings(raw_lines, keep_strings=True)
        for idx, line in enumerate(code_with_strings, start=1):
            if FP_CONTRACT_RE.search(line):
                report("fp-contract", idx, RULE_MESSAGES["fp-contract"])
    return findings


def repo_files(root):
    for top in SCAN_DIRS:
        top_dir = os.path.join(root, top)
        for dirpath, _dirnames, filenames in os.walk(top_dir):
            for name in sorted(filenames):
                if not name.endswith(SCAN_EXTS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                if any(rel.startswith(p) for p in SKIP_PREFIXES):
                    continue
                yield path


def read_lines(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


def header_unordered_names(root, includes, cache):
    """Unordered-container member names declared in the file's own repo
    headers (so member iteration in a .cpp is checked against the real
    declaration, not same-named members of unrelated classes)."""
    names = set()
    for inc in includes:
        path = os.path.join(root, "src", inc)
        if not os.path.isfile(path):
            continue
        if path not in cache:
            cache[path] = unordered_declarations(
                strip_comments_and_strings(read_lines(path))
            )
        names |= cache[path]
    return names


def main(argv):
    parser = argparse.ArgumentParser(prog="ckv_lint.py", add_help=True)
    parser.add_argument("--root", default=None, help="repository root")
    parser.add_argument("--check-file", default=None, help="lint one file")
    parser.add_argument(
        "--as-path",
        default=None,
        help="repo-relative path to attribute --check-file to",
    )
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule}: {RULE_MESSAGES[rule]}")
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )

    findings = []
    if args.check_file:
        if not args.as_path:
            print("ckv-lint: --check-file requires --as-path", file=sys.stderr)
            return 2
        raw = read_lines(args.check_file)
        findings = lint_file(args.as_path.replace(os.sep, "/"), raw)
    else:
        header_cache = {}
        for path in repo_files(root):
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            raw = read_lines(path)
            extra = ()
            if rel.endswith((".cpp", ".cc")):
                extra = header_unordered_names(
                    root, direct_includes(raw), header_cache
                )
            findings.extend(lint_file(rel, raw, extra))

    for finding in findings:
        print(finding)
    if findings:
        print(f"ckv-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
