#!/usr/bin/env python3
"""Project-invariant linter: repo-specific rules the generic tools can't see.

Nine rules, each encoding a contract the code base relies on:

  thread       No std::thread (or std::jthread) object use outside
               util/thread_pool.* — all parallelism goes through the
               persistent util::ThreadPool (PR 2's contract); per-call-site
               thread spawning is exactly what that PR removed. Static
               queries like std::thread::hardware_concurrency() are fine.

  min-list     No initializer-list std::min({...})/std::max({...}) in the
               src/geo and src/similarity hot kernels. PR 3 hoisted these
               into nested two-argument std::min chains so the DP
               recurrences autovectorize; an initializer-list overload
               materializes a std::initializer_list and blocks that.

  determinism  No direct time(), rand(), or srand() calls in src/. Results
               must be reproducible from seeds (util::Rng) and timing comes
               from util::Stopwatch / std::chrono; libc's global-state RNG
               and wall-clock reads break run-to-run determinism (and
               concurrency-mt-unsafe is pruned from .clang-tidy because
               this rule covers the dangerous cases precisely).

  nodiscard    Every util::Status- or util::Result-returning function
               declaration in src/**/*.h carries [[nodiscard]]. Ignoring a
               fallible outcome is a bug; the attribute turns it into a
               compiler warning at every call site.

  raw-io       No raw write()/read()/rename()/fsync() calls outside
               util/io.* and net/ — file and socket I/O goes through the
               checked util::io wrappers (PR 8's contract) so every byte
               crosses the failpoint sites and EINTR loops exactly once.
               A raw call is a hole in the fault-injection coverage.

  decode-cast  No reinterpret_cast to a structured pointer type in src/net/
               or src/data/ outside the blessed decode helpers (net/wire.cc,
               data/snapshot.cc). Those two files own the byte-level layout
               of untrusted input and carry the alignment/size proofs; a
               cast anywhere else is an unvalidated decode path the fuzzers
               never see. Casts to byte-ish targets (char*, unsigned char*,
               uint8_t*, std::byte*) and the sockaddr shims the socket API
               forces are allowed everywhere.

  decode-bounds
               Inside the blessed decode helpers themselves, every
               .resize()/.reserve() whose size is not a literal (or derived
               from an existing container via .size()/sizeof) must have the
               sizing value guarded within the preceding dozen lines — a
               Fits()/if bound check, a SIMSUB_CHECK, or a provenance line
               showing it came from a container we already own. An attacker
               controls every length field in a frame or snapshot header;
               an unguarded resize is a one-frame 64 MB allocation.

  evaluator    No NewEvaluator() call under src/algo/, src/engine/,
               src/rl/ or src/service/. A search, scan or RL episode takes
               its evaluator from a similarity::EvaluatorCache (Acquire),
               so one evaluator serves a whole scan and its DP rows are
               reused across candidates; a direct call allocates per
               candidate and hides from the cache's reuse/alloc counters.

  request-path No engine::QueryOptions and no MakeSearch() call in
               tools/*.cpp. Every query a command-line tool runs is one
               service::QuerySpec, served by a QueryService or a
               net::Client, so the tools share the service's validation,
               planning, deadline and participant rules instead of wiring
               the engine themselves.

Scope: the request-path rule reads tools/*.cpp; every other rule reads
src/ only (tests may spawn raw threads to provoke races; benches may time
whatever they like). Comments and string literals are stripped before
matching, so documentation may mention the banned spellings freely.

Usage:
  tools/lint.py [--root DIR]   # lint DIR (default: the repo root)
  tools/lint.py --self-test    # prove each rule trips on a violation

Exit codes: 0 clean, 1 findings, 2 usage/self-test failure.
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE_EXTENSIONS = (".h", ".cc")


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure
    so finding line numbers stay valid. Handles // and /* */ comments,
    "..." and '...' literals with backslash escapes. Raw strings are rare
    here and not handled; the repo has none in src/."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = min(j + 1, n)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def finding(path, line, rule, message):
    return f"{path}:{line}: [{rule}] {message}"


# --- rule: thread -----------------------------------------------------------

THREAD_RE = re.compile(r"std::j?thread\b(?!\s*::)")


def check_thread(rel, text):
    if rel.replace(os.sep, "/").startswith("src/util/thread_pool."):
        return []
    out = []
    for match in THREAD_RE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        out.append(finding(
            rel, line, "thread",
            "std::thread outside util/thread_pool.* — use util::ThreadPool "
            "(PR 2 contract); std::thread::hardware_concurrency() is the "
            "only allowed spelling"))
    return out


# --- rule: min-list ---------------------------------------------------------

MIN_LIST_RE = re.compile(r"std::(?:min|max)\s*\(\s*\{")
MIN_LIST_DIRS = ("src/geo/", "src/similarity/")


def check_min_list(rel, text):
    posix = rel.replace(os.sep, "/")
    if not posix.startswith(MIN_LIST_DIRS):
        return []
    out = []
    for match in MIN_LIST_RE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        out.append(finding(
            rel, line, "min-list",
            "initializer-list std::min({...}) in a hot kernel — PR 3 "
            "replaced these with nested two-argument std::min so the DP "
            "sweeps autovectorize; keep it that way"))
    return out


# --- rule: determinism ------------------------------------------------------

# `(?<![\w.>])` rejects member calls (x.time(, p->time() while still
# catching time(, ::time( and std::time(.
DETERMINISM_RE = re.compile(r"(?<![\w.>])(?:std::)?(time|rand|srand)\s*\(")


def check_determinism(rel, text):
    out = []
    for match in DETERMINISM_RE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        out.append(finding(
            rel, line, "determinism",
            f"direct {match.group(1)}() in src/ — results must reproduce "
            "from seeds: use util::Rng for randomness and util::Stopwatch/"
            "std::chrono for timing"))
    return out


# --- rule: nodiscard --------------------------------------------------------

# A header-file function declaration returning Status / Result<...> by
# value. Anchored to the line start (after indentation and the usual
# declaration prefixes) so member types (`util::Status status;`),
# constructors (`Status(StatusCode ...)`), and reference-returning
# accessors (`const Status& status()`) don't match.
NODISCARD_DECL_RE = re.compile(
    r"^[ \t]*"
    r"(?P<attr>\[\[nodiscard\]\][ \t]+)?"
    r"(?:static[ \t]+|virtual[ \t]+|inline[ \t]+|constexpr[ \t]+|"
    r"friend[ \t]+|explicit[ \t]+)*"
    r"(?:util::|simsub::util::)?"
    r"(?:Status|Result<[^;{}=]*>)"
    r"[ \t]+[A-Za-z_]\w*[ \t]*\(")


def check_nodiscard(rel, text):
    if not rel.endswith(".h"):
        return []
    out = []
    lines = text.split("\n")
    for idx, line in enumerate(lines):
        match = NODISCARD_DECL_RE.match(line)
        if not match or match.group("attr"):
            continue
        # The attribute may sit alone on the preceding line.
        if idx > 0 and "[[nodiscard]]" in lines[idx - 1]:
            continue
        out.append(finding(
            rel, idx + 1, "nodiscard",
            "Status/Result-returning declaration without [[nodiscard]] — "
            "ignoring a fallible outcome must warn at the call site"))
    return out


# --- rule: raw-io -----------------------------------------------------------

# ::write( / std::rename( / bare write( — but not member calls (f.write(,
# r->read() or qualified names from other scopes (Writer::write().
RAW_IO_RE = re.compile(
    r"(?<![\w.>:])(?:std::|::)?(write|read|rename|fsync)\s*\(")
RAW_IO_EXEMPT = ("src/util/io.", "src/net/")


def check_raw_io(rel, text):
    posix = rel.replace(os.sep, "/")
    if posix.startswith(RAW_IO_EXEMPT):
        return []
    out = []
    for match in RAW_IO_RE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        out.append(finding(
            rel, line, "raw-io",
            f"raw {match.group(1)}() outside util/io.* — route file and "
            "socket I/O through util::io (PR 8 contract) so failpoint "
            "sites and EINTR handling cover it"))
    return out


# --- rule: decode-cast ------------------------------------------------------

DECODE_CAST_RE = re.compile(r"reinterpret_cast\s*<\s*([^>]*?)\s*>")
DECODE_CAST_DIRS = ("src/net/", "src/data/")
# wire.cc and snapshot.cc are the blessed byte-layout owners: every cast
# there sits behind the size/alignment validation the fuzz harnesses hammer.
DECODE_CAST_BLESSED = ("src/net/wire.cc", "src/data/snapshot.cc")
# Byte-ish targets are safe in either direction (no layout is being
# asserted); sockaddr casts are the POSIX socket API's own idiom.
DECODE_CAST_BYTEISH_RE = re.compile(
    r"^(?:const\s+)?(?:char|unsigned\s+char|(?:std::)?uint8_t|std::byte)"
    r"\s*\*$")


def check_decode_cast(rel, text):
    posix = rel.replace(os.sep, "/")
    if not posix.startswith(DECODE_CAST_DIRS) or posix in DECODE_CAST_BLESSED:
        return []
    out = []
    for match in DECODE_CAST_RE.finditer(text):
        target = " ".join(match.group(1).split())
        if DECODE_CAST_BYTEISH_RE.match(target) or "sockaddr" in target:
            continue
        line = text.count("\n", 0, match.start()) + 1
        out.append(finding(
            rel, line, "decode-cast",
            f"reinterpret_cast<{target}> outside the blessed decode helpers "
            "(net/wire.cc, data/snapshot.cc) — structured views of raw "
            "bytes must go through the validated decode paths the fuzzers "
            "cover"))
    return out


# --- rule: decode-bounds ----------------------------------------------------

DECODE_BOUNDS_FILES = ("src/net/wire.cc", "src/data/snapshot.cc")
DECODE_BOUNDS_RE = re.compile(r"\.\s*(resize|reserve)\s*\(")
DECODE_BOUNDS_WINDOW = 12  # lines of context searched for a guard
# A sizing arg is self-evidently bounded when it is a numeric literal,
# derives from a container we already own (.size()/sizeof), or is a
# zero-argument accessor on *this (no raw input can flow through those).
DECODE_BOUNDS_LITERAL_RE = re.compile(r"^[\d'uUlLzZ\s+*-]+$")
DECODE_BOUNDS_ACCESSOR_RE = re.compile(r"^[A-Za-z_]\w*\(\)$")
DECODE_BOUNDS_SKIP_IDENTS = frozenset((
    "static_cast", "const_cast", "size_t", "std", "auto", "unsigned",
    "signed", "long", "int", "short", "char", "uint8_t", "uint16_t",
    "uint32_t", "uint64_t", "int8_t", "int16_t", "int32_t", "int64_t"))
DECODE_BOUNDS_GUARD_RE = re.compile(r"Fits\s*\(|\bif\s*\(|CHECK|\.size\s*\(|"
                                    r"sizeof")


def _call_argument(text, open_paren):
    """Returns the argument text of the call whose '(' is at open_paren."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:i]
    return text[open_paren + 1:]


def check_decode_bounds(rel, text):
    posix = rel.replace(os.sep, "/")
    if posix not in DECODE_BOUNDS_FILES:
        return []
    out = []
    lines = text.split("\n")
    for match in DECODE_BOUNDS_RE.finditer(text):
        arg = _call_argument(text, text.index("(", match.start()))
        arg = arg.strip()
        if (not arg or DECODE_BOUNDS_LITERAL_RE.match(arg)
                or ".size(" in arg.replace(" ", "") or "sizeof" in arg
                or DECODE_BOUNDS_ACCESSOR_RE.match(arg)):
            continue
        idents = [i for i in re.findall(r"[A-Za-z_]\w*", arg)
                  if i not in DECODE_BOUNDS_SKIP_IDENTS]
        lineno = text.count("\n", 0, match.start()) + 1
        ident = idents[0] if idents else None
        guarded = False
        if ident is not None:
            ident_re = re.compile(rf"\b{re.escape(ident)}\b")
            window = lines[max(0, lineno - 1 - DECODE_BOUNDS_WINDOW):
                           lineno - 1]
            guarded = any(ident_re.search(context_line)
                          and DECODE_BOUNDS_GUARD_RE.search(context_line)
                          for context_line in window)
        if not guarded:
            out.append(finding(
                rel, lineno, "decode-bounds",
                f"{match.group(1)}({arg}) sized from "
                f"'{ident or arg}' with no bound check in the preceding "
                f"{DECODE_BOUNDS_WINDOW} lines — decode-path lengths are "
                "attacker-controlled; guard with Fits()/if/SIMSUB_CHECK "
                "before allocating"))
    return out


# --- rule: evaluator --------------------------------------------------------

EVALUATOR_RE = re.compile(r"\bNewEvaluator\s*\(")
EVALUATOR_DIRS = ("src/algo/", "src/engine/", "src/rl/", "src/service/")


def check_evaluator(rel, text):
    posix = rel.replace(os.sep, "/")
    if not posix.startswith(EVALUATOR_DIRS):
        return []
    out = []
    for match in EVALUATOR_RE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        out.append(finding(
            rel, line, "evaluator",
            "NewEvaluator() in a search, scan or RL path — take the "
            "evaluator from a similarity::EvaluatorCache (Acquire) so one "
            "evaluator serves the whole scan"))
    return out


# --- rule: request-path -----------------------------------------------------

REQUEST_PATH_RE = re.compile(r"\bQueryOptions\b|\bMakeSearch\s*\(")


def check_request_path(rel, text):
    out = []
    for match in REQUEST_PATH_RE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        out.append(finding(
            rel, line, "request-path",
            f"{match.group(0).rstrip('( ')} in a command-line tool — build "
            "a service::QuerySpec and serve it through QueryService or "
            "net::Client, so every tool query takes the service's one "
            "request path"))
    return out


SRC_RULES = (check_thread, check_min_list, check_determinism,
             check_nodiscard, check_raw_io, check_decode_cast,
             check_decode_bounds, check_evaluator)
TOOL_RULES = (check_request_path,)
RULES = SRC_RULES + TOOL_RULES


def lint_file(root, path, rules):
    rel = os.path.relpath(path, root)
    with open(path, encoding="utf-8") as f:
        text = strip_comments_and_strings(f.read())
    return [f for rule in rules for f in rule(rel, text)]


def lint_tree(root):
    findings = []
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        sys.exit(f"error: {src} does not exist — pass --root at a repo root")
    for dirpath, _, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTENSIONS):
                findings.extend(lint_file(root, os.path.join(dirpath, name),
                                          SRC_RULES))
    tools = os.path.join(root, "tools")
    if os.path.isdir(tools):
        for name in sorted(os.listdir(tools)):
            if name.endswith(".cpp"):
                findings.extend(lint_file(root, os.path.join(tools, name),
                                          TOOL_RULES))
    return findings


# --- self-test --------------------------------------------------------------

# One injected violation per rule, each in a location the rule scopes to,
# plus look-alikes that must NOT trip (allowed spellings, comments).
SELF_TEST_CASES = [
    ("thread", "src/engine/worker.cc", """
#include <thread>
void Spawn() {
  std::thread t([] {});  // violation
  t.join();
}
int Width() { return (int)std::thread::hardware_concurrency(); }  // ok
"""),
    ("min-list", "src/similarity/kernel.cc", """
double Recur(double a, double b, double c) {
  return std::min({a, b, c});  // violation
}
double Ok(double a, double b, double c) {
  return std::min(a, std::min(b, c));  // ok
}
"""),
    ("determinism", "src/data/sampler.cc", """
#include <cstdlib>
long Seed() {
  return time(nullptr) + rand();  // two violations
}
// time( and rand( in a comment must not trip
"""),
    ("nodiscard", "src/util/flags.h", """
namespace simsub::util {
Status WriteThing(const char* path);  // violation: no [[nodiscard]]
[[nodiscard]] Status WriteOther(const char* path);  // ok
const Status& last_status();  // ok: reference accessor
}
"""),
    ("raw-io", "src/data/exporter.cc", """
#include <unistd.h>
void Dump(int fd, const void* p, unsigned n) {
  ::write(fd, p, n);  // violation
}
void Fine(Buffer& buf, Reader* r) {
  buf.write("x", 1);     // ok: member call
  r->read();             // ok: member call
  Codec::rename("a");    // ok: scoped name from another class
}
// ::fsync( in a comment must not trip
"""),
    ("decode-cast", "src/data/columns.cc", """
const double* Decode(const unsigned char* p) {
  return reinterpret_cast<const double*>(p);  // violation: structured view
}
const char* Bytes(const unsigned char* p) {
  return reinterpret_cast<const char*>(p);  // ok: byte-ish target
}
void Sock(void* a) {
  auto* sa = reinterpret_cast<struct sockaddr*>(a);  // ok: socket API shim
  (void)sa;
}
"""),
    ("decode-bounds", "src/net/wire.cc", """
void DecodeVec(Reader& r, std::vector<int>& v) {
  uint32_t n = r.U32();
  v.resize(n);  // violation: wire length allocated with no bound check
}
void Guarded(Reader& r, std::vector<int>& v, const std::vector<int>& src) {
  uint32_t n = r.U32();
  if (!r.Fits(n, 4)) return;
  v.reserve(n);               // ok: bounded by Fits just above
  v.reserve(16);              // ok: literal
  v.reserve(src.size() + 1);  // ok: derived from a container we own
}
"""),
    ("evaluator", "src/algo/scan.cc", """
double Scan(const SimilarityMeasure& m, EvaluatorCache& cache, Span q) {
  auto fresh = m.NewEvaluator(q);  // violation: bypasses the cache
  PrefixEvaluator& eval = *cache.Acquire(m, q);  // ok
  return fresh->Current() + eval.Current();
}
// NewEvaluator( in a comment must not trip
"""),
    ("request-path", "tools/query_tool.cpp", """
int Query(SimSubEngine& engine, const SimilarityMeasure* m, Span q) {
  engine::QueryOptions options;  // violation: the tool wires the engine
  auto search = algo::MakeSearch("exacts", m, {});  // violation
  service::QuerySpec spec;  // ok
  return engine.Query(q, **search, options).results.size();
}
// MakeSearch( and QueryOptions in a comment must not trip
"""),
]

CLEAN_FILE = ("src/geo/clean.cc", """
// std::thread in a comment is fine; "std::min({1, 2})" in a string too.
#include <algorithm>
double Fine(double a, double b) { return std::min(a, b); }
""")


def self_test():
    failures = []
    for rule_name, rel, content in SELF_TEST_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "src"), exist_ok=True)
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
            found = lint_tree(tmp)
            tripped = [f for f in found if f"[{rule_name}]" in f]
            others = [f for f in found if f"[{rule_name}]" not in f]
            if not tripped:
                failures.append(
                    f"rule '{rule_name}' did not trip on its injected "
                    f"violation in {rel}")
            if others:
                failures.append(
                    f"rule cross-talk on {rel}: {others}")
            print(f"rule '{rule_name}': "
                  f"{'tripped as expected' if tripped else 'MISSED'} "
                  f"({len(tripped)} finding(s))")

    with tempfile.TemporaryDirectory() as tmp:
        rel, content = CLEAN_FILE
        path = os.path.join(tmp, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        found = lint_tree(tmp)
        if found:
            failures.append(f"clean file raised findings: {found}")
        else:
            print("clean file: no findings, as expected")

    if failures:
        print("\nself-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 2
    print(f"\nself-test OK: all {len(SELF_TEST_CASES)} rules trip on "
          "injected violations and stay quiet on clean code")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root to lint (default: this repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule trips on an injected "
                             "violation, then exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = lint_tree(os.path.abspath(args.root))
    if findings:
        print(f"lint FAILED: {len(findings)} finding(s)\n")
        for f in findings:
            print(f"  {f}")
        return 1
    print("lint passed: src/ and tools/ uphold all project invariants "
          f"({', '.join(r.__name__.removeprefix('check_') for r in RULES)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
