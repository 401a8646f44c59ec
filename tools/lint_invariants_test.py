#!/usr/bin/env python3
"""Self-test for lint_invariants.py.

Builds a throwaway repo tree seeded with one violation per rule (plus
near-miss code that must NOT fire), asserts the linter reports exactly
the seeded set, then runs the linter against the real repository and
asserts it is clean. Plain stdlib — registered with ctest, no pytest.
"""

import importlib.util
import os
import sys
import tempfile

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TOOLS_DIR)

spec = importlib.util.spec_from_file_location(
    "lint_invariants", os.path.join(TOOLS_DIR, "lint_invariants.py"))
lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint)


def write(root, rel, content):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def seed_fixture_repo(root):
    """One violation per rule + near-misses that must stay silent."""

    # atomic-order: two implicit-order ops; the multi-line fetch_add and
    # the compare_exchange naming its orders are compliant and must not
    # fire. The commented a.load() must not fire either.
    write(root, "src/common/fixture_atomic.cc", """\
#include <atomic>
void Fixture(std::atomic<int>& a, std::atomic<int>* b) {
  a.load();                              // VIOLATION (line 3)
  b->store(1);                           // VIOLATION (line 4)
  a.fetch_add(1,
              std::memory_order_relaxed);  // ok: multi-line, explicit
  int expected = 0;
  a.compare_exchange_strong(expected, 2, std::memory_order_acq_rel,
                            std::memory_order_acquire);  // ok
  // a.load() in a comment must not fire.
  (void)a.load(std::memory_order_acquire);  // ok
}
""")

    # raw-sync: a raw mutex + lock_guard + the <mutex> include; the
    # string literal and the comment mentioning std::mutex must not
    # fire, and thread_annotations.h itself is allowlisted.
    write(root, "src/core/fixture_mutex.cc", """\
#include <mutex>                         // VIOLATION (line 1)
std::mutex g_mu;                         // VIOLATION (line 2)
void Fixture() {
  std::lock_guard<std::mutex> lock(g_mu);  // VIOLATIONS (line 4, twice)
  const char* s = "std::mutex";          // ok: string literal
  // std::condition_variable in a comment must not fire.
  (void)s;
}
""")
    write(root, "src/common/thread_annotations.h", """\
#include <mutex>
namespace vos { class Mutex { std::mutex mu_; }; }
""")

    # raw-new-delete: a new and a delete expression; `= delete` and the
    # identifier new_count must not fire.
    write(root, "tools/fixture_new.cc", """\
struct NoCopy {
  NoCopy(const NoCopy&) = delete;        // ok: deleted function
};
int Fixture() {
  int new_count = 0;                     // ok: identifier
  int* p = new int{3};                   // VIOLATION (line 6)
  delete p;                              // VIOLATION (line 7)
  return new_count;
}
""")

    # kernel-includes: a second project header in an ISA TU; the
    # internal header and system headers are allowed.
    write(root, "src/common/kernels_avx2.cc", """\
#include "common/kernels_internal.h"
#include "core/vos_sketch.h"             // VIOLATION (line 2)
#include <immintrin.h>
""")
    write(root, "src/common/kernels_neon.cc", """\
#include "common/kernels_internal.h"
#include <arm_neon.h>
""")


APPLY_LOOP_PASS = """\
#include "core/sharded_vos_sketch.h"
void ShardedVosSketch::UpdateBatch(const Element* e, size_t n, unsigned p) {
  ApplySubBatch(0, p, e, n);             // ok: not VosSketch::Update
}
void ShardedVosSketch::ApplySubBatch(uint32_t s, unsigned p,
                                     const Element* e, size_t n) {
  for (size_t i = 0; i < n; ++i) shards_[s].Update(e[i]);  // the one call
}
void ShardedVosSketch::WorkerLoop(unsigned w) {
  // shards_[0].Update(e) in a comment must not fire.
  const char* s = "sketch.Update(e)";    // ok: string literal
}
"""


def apply_loop_violations(source):
    """one-apply-loop findings for a fixture sharded_vos_sketch.cc."""
    with tempfile.TemporaryDirectory(prefix="lint_apply_loop_") as fixture:
        write(fixture, "src/core/sharded_vos_sketch.cc", source)
        return {(rel, line) for rel, line, rule, _ in lint.run_lint(fixture)
                if rule == "one-apply-loop"}


def main():
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)
            print(f"FAIL: {what}")

    with tempfile.TemporaryDirectory(prefix="lint_fixture_") as fixture:
        seed_fixture_repo(fixture)
        got = {(rel, line, rule)
               for rel, line, rule, _ in lint.run_lint(fixture)}
        expected = {
            ("src/common/fixture_atomic.cc", 3, "atomic-order"),
            ("src/common/fixture_atomic.cc", 4, "atomic-order"),
            ("src/core/fixture_mutex.cc", 1, "raw-sync"),
            ("src/core/fixture_mutex.cc", 2, "raw-sync"),
            ("src/core/fixture_mutex.cc", 4, "raw-sync"),
            ("tools/fixture_new.cc", 6, "raw-new-delete"),
            ("tools/fixture_new.cc", 7, "raw-new-delete"),
            ("src/common/kernels_avx2.cc", 2, "kernel-includes"),
        }
        # line 4 of fixture_mutex.cc fires twice (lock_guard + mutex);
        # the set collapses the duplicate, which is what we assert on.
        check(got == expected,
              "fixture violations mismatch:\n"
              f"  unexpected: {sorted(got - expected)}\n"
              f"  missing:    {sorted(expected - got)}")

    # one-apply-loop: the pass fixture's single call inside ApplySubBatch
    # is clean; a second call, in the worker loop, fires on its line.
    got = apply_loop_violations(APPLY_LOOP_PASS)
    check(not got, f"one-apply-loop pass fixture fired: {sorted(got)}")
    failing = APPLY_LOOP_PASS.replace(
        "  const char* s",
        "  shards_[0].Update(batch[0]);        // VIOLATION (line 11)\n"
        "  const char* s")
    got = apply_loop_violations(failing)
    check(got == {("src/core/sharded_vos_sketch.cc", 11)},
          f"one-apply-loop fail fixture: {sorted(got)}")

    real = lint.run_lint(REPO_ROOT)
    check(not real,
          "real repository is not lint-clean:\n  " +
          "\n  ".join(f"{r}:{l}: [{rule}] {msg}" for r, l, rule, msg in real))

    if failures:
        print(f"lint_invariants_test: {len(failures)} failure(s)")
        return 1
    print("lint_invariants_test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
