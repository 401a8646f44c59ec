#!/usr/bin/env python3
"""Repo-invariant linter for libvos.

Checks structural invariants that neither the compiler nor clang-tidy
enforces, so they hold by construction instead of by review:

  atomic-order       Every std::atomic operation in src/common and
                     src/core names its std::memory_order explicitly.
                     An implicit seq_cst is indistinguishable from "the
                     author never thought about ordering"; naming the
                     order forces the one-line rationale the code
                     review asks for. Multi-line calls are handled by
                     matching the full argument span.

  raw-sync           No raw std::mutex / std::lock_guard /
                     std::unique_lock / std::scoped_lock /
                     std::condition_variable(_any) / std::shared_mutex
                     (or their <mutex>/<condition_variable>/
                     <shared_mutex> includes) anywhere in src/ or
                     tools/ outside common/thread_annotations.h. All
                     locking goes through vos::Mutex / vos::MutexLock /
                     vos::CondVar so clang's -Wthread-safety analysis
                     sees every acquisition.

  raw-new-delete     No new/delete expressions in src/ or tools/
                     outside the allowlist (the FaultInjector leaky
                     singleton). The library is container/value based;
                     a bare new is either a leak or a std::unique_ptr
                     waiting to happen. `= delete` declarations are
                     not flagged.

  kernel-includes    The per-ISA kernel translation units
                     (src/common/kernels_{avx2,avx512,neon}.cc) may
                     include exactly one project header:
                     common/kernels_internal.h. They are compiled with
                     ISA-specific flags; pulling any other project
                     header into them would instantiate its inline
                     functions with those flags and hand an illegal
                     instruction to a baseline CPU through the ODR.

  one-apply-loop     src/core/sharded_vos_sketch.{h,cc} call
                     VosSketch::Update exactly once, inside
                     ShardedVosSketch::ApplySubBatch. Synchronous and
                     pipelined ingest both apply a shard's sub-batch
                     through that one loop, so its poison, fault-probe
                     and drop handling (and any later change to the
                     update itself) exist in one place.

Usage: lint_invariants.py [--root REPO_ROOT]
Prints one "path:line: [rule] message" per violation; exit 1 if any.
Self-test: tools/lint_invariants_test.py (registered with ctest).
"""

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".h", ".cc", ".cpp")

# ------------------------------------------------------------------ masking


def mask_comments_and_strings(text, keep_strings=False):
    """Returns `text` with comment/string contents replaced by spaces.

    Offsets and line numbers are preserved (newlines survive), so rule
    regexes can report positions in the original file while never
    matching inside comments, string literals, char literals, or raw
    strings. With `keep_strings` only comments (and raw strings, whose
    bodies can span lines and fake any token) are blanked — the include
    rules need the "path" inside #include directives intact.
    """
    out = list(text)
    i = 0
    n = len(text)

    def blank(lo, hi):
        for j in range(lo, hi):
            if out[j] != "\n":
                out[j] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            blank(i, end)
            i = end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            blank(i, end)
            i = end
        elif c == "R" and text[i + 1:i + 2] == '"':
            open_paren = text.find("(", i + 2)
            if open_paren == -1:
                i += 1
                continue
            delim = text[i + 2:open_paren]
            close = text.find(")" + delim + '"', open_paren)
            end = n if close == -1 else close + len(delim) + 2
            blank(i, end)
            i = end
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            end = min(j + 1, n)
            if not keep_strings:
                blank(i + 1, end - 1)
            i = end
        else:
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def iter_files(root, subdirs, extensions=CXX_EXTENSIONS):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, names in sorted(os.walk(base)):
            for name in sorted(names):
                if name.endswith(extensions):
                    path = os.path.join(dirpath, name)
                    yield os.path.relpath(path, root)


def read(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        return f.read()


# -------------------------------------------------------------------- rules

ATOMIC_OP_RE = re.compile(
    r"(?<=[.>])"
    r"(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)"
    r"\s*\("
)


def matching_paren_span(text, open_paren):
    """Returns the offset one past the ')' matching text[open_paren]."""
    depth = 0
    for j in range(open_paren, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return j + 1
    return len(text)


def check_atomic_order(root, violations):
    for rel in iter_files(root, ("src/common", "src/core")):
        masked = mask_comments_and_strings(read(root, rel))
        for m in ATOMIC_OP_RE.finditer(masked):
            open_paren = masked.index("(", m.end() - 1)
            span = masked[open_paren:matching_paren_span(masked, open_paren)]
            if "memory_order" not in span:
                violations.append(
                    (rel, line_of(masked, m.start()), "atomic-order",
                     f"std::atomic {m.group(1)}() without an explicit "
                     "std::memory_order argument"))


RAW_SYNC_RE = re.compile(
    r"std::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(?:_any)?)\b"
)
SYNC_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(mutex|condition_variable|shared_mutex)>"
)
RAW_SYNC_ALLOWLIST = frozenset({"src/common/thread_annotations.h"})


def check_raw_sync(root, violations):
    for rel in iter_files(root, ("src", "tools")):
        if rel in RAW_SYNC_ALLOWLIST:
            continue
        masked = mask_comments_and_strings(read(root, rel))
        for m in RAW_SYNC_RE.finditer(masked):
            violations.append(
                (rel, line_of(masked, m.start()), "raw-sync",
                 f"raw std::{m.group(1)} — use vos::Mutex / vos::MutexLock "
                 "/ vos::CondVar (common/thread_annotations.h) so the "
                 "clang thread-safety analysis sees it"))
        include_text = mask_comments_and_strings(read(root, rel),
                                                 keep_strings=True)
        for m in SYNC_INCLUDE_RE.finditer(include_text):
            violations.append(
                (rel, line_of(masked, m.start()), "raw-sync",
                 f"#include <{m.group(1)}> — include "
                 "common/thread_annotations.h instead"))


NEW_DELETE_RE = re.compile(r"\b(new|delete)\b(\s*\[\s*\])?")
DELETED_FN_RE = re.compile(r"=\s*delete\b")
NEW_DELETE_ALLOWLIST = frozenset({
    # FaultInjector::Global(): intentionally leaky process singleton —
    # never destroyed, so probes in static destructors stay safe.
    "src/common/fault_injector.cc",
})


def check_raw_new_delete(root, violations):
    for rel in iter_files(root, ("src", "tools")):
        if rel in NEW_DELETE_ALLOWLIST:
            continue
        masked = mask_comments_and_strings(read(root, rel))
        deleted_spans = [(m.start(), m.end())
                         for m in DELETED_FN_RE.finditer(masked)]
        for m in NEW_DELETE_RE.finditer(masked):
            if any(lo <= m.start() < hi for lo, hi in deleted_spans):
                continue  # `= delete` declaration, not a delete expression
            violations.append(
                (rel, line_of(masked, m.start()), "raw-new-delete",
                 f"raw {m.group(0).strip()} expression — use containers / "
                 "std::make_unique, or add this file to the linter "
                 "allowlist with a rationale"))


KERNEL_TUS = (
    "src/common/kernels_avx2.cc",
    "src/common/kernels_avx512.cc",
    "src/common/kernels_neon.cc",
)
PROJECT_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')
KERNEL_ALLOWED_INCLUDE = "common/kernels_internal.h"


def check_kernel_includes(root, violations):
    for rel in KERNEL_TUS:
        if not os.path.exists(os.path.join(root, rel)):
            continue
        masked = mask_comments_and_strings(read(root, rel),
                                           keep_strings=True)
        for m in PROJECT_INCLUDE_RE.finditer(masked):
            if m.group(1) != KERNEL_ALLOWED_INCLUDE:
                violations.append(
                    (rel, line_of(masked, m.start()), "kernel-includes",
                     f'ISA kernel TU includes project header "{m.group(1)}" '
                     f"— only {KERNEL_ALLOWED_INCLUDE} is allowed (this TU "
                     "is built with ISA-specific flags; other headers' "
                     "inline functions would be miscompiled via the ODR)"))


APPLY_LOOP_FILES = (
    "src/core/sharded_vos_sketch.h",
    "src/core/sharded_vos_sketch.cc",
)
APPLY_LOOP_FUNCTION = "ApplySubBatch"
SHARD_UPDATE_RE = re.compile(r"(?:\.|->)\s*Update\s*\(")
SHARDED_DEF_RE = re.compile(r"^[^\s#].*?\bShardedVosSketch::(\w+)\s*\(",
                            re.MULTILINE)


def check_one_apply_loop(root, violations):
    present = [rel for rel in APPLY_LOOP_FILES
               if os.path.exists(os.path.join(root, rel))]
    in_loop = 0
    for rel in present:
        masked = mask_comments_and_strings(read(root, rel))
        defs = [(m.start(), m.group(1))
                for m in SHARDED_DEF_RE.finditer(masked)]
        for m in SHARD_UPDATE_RE.finditer(masked):
            enclosing = None
            for start, name in defs:
                if start > m.start():
                    break
                enclosing = name
            line = line_of(masked, m.start())
            if enclosing != APPLY_LOOP_FUNCTION:
                violations.append(
                    (rel, line, "one-apply-loop",
                     f"VosSketch::Update called in {enclosing or 'a header'}"
                     f" — apply elements only through {APPLY_LOOP_FUNCTION}"))
                continue
            in_loop += 1
            if in_loop > 1:
                violations.append(
                    (rel, line, "one-apply-loop",
                     f"second VosSketch::Update call in {APPLY_LOOP_FUNCTION}"
                     " — keep one apply loop"))
    if present and in_loop == 0:
        violations.append(
            (present[-1], 1, "one-apply-loop",
             f"no VosSketch::Update call in {APPLY_LOOP_FUNCTION}"))


def run_lint(root):
    """Runs every rule; returns [(relpath, line, rule, message), ...]."""
    violations = []
    check_atomic_order(root, violations)
    check_raw_sync(root, violations)
    check_raw_new_delete(root, violations)
    check_kernel_includes(root, violations)
    check_one_apply_loop(root, violations)
    violations.sort()
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="libvos repo-invariant linter")
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)")
    args = parser.parse_args(argv)

    violations = run_lint(args.root)
    for rel, line, rule, message in violations:
        print(f"{rel}:{line}: [{rule}] {message}")
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("lint_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
