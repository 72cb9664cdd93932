#!/usr/bin/env python3
"""Repo-invariant linter: rules the generic tools cannot express.

clang-tidy and -Wthread-safety check what code *does*; this linter checks
what the repo has *decided* — contracts that live across files:

  strg-naked-mutex      No std::mutex / std::condition_variable (or their
                        lock wrappers, or their headers) outside
                        src/util/sync.h. Everything goes through the
                        annotated strg:: wrappers so the capability analysis
                        sees every lock.
  strg-no-throw         No `throw` in src/api or src/storage: those layers
                        speak Status/StatusOr, and an exception sneaking up
                        a StatusOr path skips the typed-error contract.
  strg-no-wallclock-rand  No rand()/srand()/time() in src/: results must be
                        deterministic given the seeded util/random.h RNGs
                        (the PR3/PR4 bit-identical-parallelism contract).
  strg-direct-io        No direct file I/O (fopen / ::open / std::fstream)
                        in src/ outside src/storage/: every durable byte
                        goes through the storage layer so fsync discipline,
                        tmp+rename publication, and CRC framing live in one
                        place.
  strg-bench-json       Every bench/bench_*.cpp must write (or at least
                        name) its BENCH_*.json machine-readable report.
  strg-bench-server-shards  A bench that writes a BENCH_server*.json report
                        must record the shard count and the host's
                        hardware_concurrency in it — serving throughput
                        numbers are meaningless without both.
  strg-bench-simd-tier  A bench that writes any BENCH_*.json must record the
                        active simd dispatch tier (bench::JsonReport emits
                        it automatically; hand-rolled reports name a
                        "simd_tier" field themselves) — kernel timings are
                        incomparable without knowing which tier ran.
  strg-bench-cluster-stamp  A bench that writes a BENCH_cluster*.json report
                        must stamp "k", "restarts", and "bound_mode" —
                        clustering distance counts mean nothing without the
                        centroid count, the restart multiplier, and which
                        side of the use_bounds A/B produced them.
  strg-simd-intrinsics  No vendor intrinsics (immintrin.h / arm_neon.h,
                        _mm*/__m*/v*q_f64 tokens) in src/ outside
                        src/distance/simd/ and the one CRC32C hardware
                        tier, src/storage/crc32c_sse42.cc: every vectorized
                        loop goes through a runtime-dispatched table so the
                        portable-equivalence proof and the per-TU ISA flags
                        stay in audited places.
  strg-test-label       Every tests/*_test.cpp declares `// ctest-labels:`,
                        which tests/CMakeLists.txt applies — so label-driven
                        suites (ctest -L recovery|distance|ingest|static)
                        can never silently miss a new test file.
  strg-deprecated-catalog  The throwing Catalog wrappers (Deserialize /
                        SaveToFile / LoadFromFile) were deprecated in PR 7
                        and REMOVED in PR 10; this rule forbids their
                        reintroduction anywhere under src/ — catalog.h
                        included. The Catalog speaks Status/StatusOr only
                        (the Try* forms).
  strg-lock-excludes    Any public method whose body constructs a lock
                        guard (MutexLock / ReaderLock / WriterLock) must
                        declare what it takes: STRG_EXCLUDES(mu) for a
                        statically nameable mutex, STRG_EXCLUDES_DYNAMIC(
                        Family::mu) for a runtime-selected shard lock, or
                        STRG_REQUIRES/STRG_ACQUIRE when the caller holds
                        it. Constructors/destructors are exempt (single-
                        owner by contract). The annotation is how callers
                        — and scripts/lock_graph.py — know the method
                        participates in the lock hierarchy.

Two rules are AST-grade when libclang is available (scripts/clang_ast.py):
strg-no-wallclock-rand and strg-deprecated-catalog. The AST pass reparses
the tree via compile_commands.json, drops regex false positives (a member
function that happens to be called `time`, a non-Catalog `Deserialize`)
and adds true calls the regex missed. Without libclang the regex verdicts
stand — fallback, never silent skip (STRG_REQUIRE_CLANG=1 hard-fails).

Suppressions are allowed but never bare: `NOLINT(<rule>): <why>` on the
offending line (a missing rule tag or empty justification is itself an
error), and every STRG_NO_THREAD_SAFETY_ANALYSIS needs a justification
comment within the five lines above it.

Usage:
  scripts/strg_lint.py              # lint the tree; exit 0 iff clean
  scripts/strg_lint.py --self-test  # prove each rule fires on bad fixtures
  scripts/strg_lint.py --no-ast     # regex/textual verdicts only
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CXX_EXTS = (".h", ".hpp", ".cc", ".cpp")

NOLINT_RE = re.compile(r"NOLINT\(([a-z0-9-]+)\):\s*(\S.*)?")
BARE_NOLINT_RE = re.compile(r"NOLINT(?!\([a-z0-9-]+\):\s*\S)")

NAKED_MUTEX_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|recursive_timed_mutex"
    r"|timed_mutex|condition_variable(?:_any)?|lock_guard|unique_lock"
    r"|scoped_lock|shared_lock)\b"
    r"|#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>")
THROW_RE = re.compile(r"\bthrow\b")
WALLCLOCK_RE = re.compile(r"(?<![A-Za-z0-9_:])(?:rand|srand|time)\s*\(")
# Case-sensitive on purpose: `::open(` is the POSIX call; `PageFile::Open(`
# and friends are the sanctioned storage-layer wrappers.
DIRECT_IO_RE = re.compile(
    r"\bfopen\s*\(|::open\s*\(|\bstd::[io]?fstream\b"
    r"|#\s*include\s*<fstream>")
BENCH_JSON_RE = re.compile(r"BENCH_[A-Za-z0-9_]+\.json")
BENCH_SERVER_JSON_RE = re.compile(r"BENCH_server[A-Za-z0-9_]*\.json")
BENCH_CLUSTER_JSON_RE = re.compile(r"BENCH_cluster[A-Za-z0-9_]*\.json")
HW_CONCURRENCY_RE = re.compile(r"hardware_concurrency")
SHARD_FIELD_RE = re.compile(r'\\?"shards\\?"')
K_FIELD_RE = re.compile(r'\\?"k\\?"')
RESTARTS_FIELD_RE = re.compile(r'\\?"restarts\\?"')
BOUND_MODE_FIELD_RE = re.compile(r'\\?"bound_mode\\?"')
# "TryDeserialize" etc. do not match: no word boundary after "Try".
DEPRECATED_CATALOG_RE = re.compile(
    r"\b(?:Deserialize|SaveToFile|LoadFromFile)\s*\(")
GUARD_DECL_RE = re.compile(
    r"\b(?:MutexLock|ReaderLock|WriterLock)\s+[A-Za-z_]\w*\s*[({]")
LOCK_ANNOT_RE = re.compile(
    r"STRG_EXCLUDES(?:_DYNAMIC)?\s*\(|STRG_REQUIRES(?:_SHARED)?\s*\("
    r"|STRG_ACQUIRE")
ACCESS_RE = re.compile(r"^\s*(public|private|protected)\s*:")
CLASS_HEAD_RE = re.compile(
    r"\b(class|struct)\s+(?:STRG_[A-Z_]+\s*\([^)]*\)\s*)?"
    r"([A-Za-z_]\w*)\s*(?:final\b)?\s*(?::|$)?")
OUTLINE_DEF_RE = re.compile(r"\b([A-Za-z_]\w*)::(~?[A-Za-z_]\w*)\s*\(")
METHOD_NAME_RE = re.compile(r"(~?[A-Za-z_]\w*)\s*\(")
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof",
                    "decltype", "catch", "do", "else", "new", "delete",
                    "throw", "alignas", "alignof", "static_assert",
                    "noexcept", "void"}
TEST_LABEL_RE = re.compile(r"//\s*ctest-labels:\s*([a-z][a-z0-9_]*)")
OPTOUT_RE = re.compile(r"STRG_NO_THREAD_SAFETY_ANALYSIS")
SIMD_TIER_RE = re.compile(r"simd_tier")
JSON_REPORT_RE = re.compile(r"\bJsonReport\b")
# The only translation unit outside src/distance/simd/ allowed intrinsics:
# the SSE4.2 CRC32C tier, compiled alone with -msse4.2 and dispatched by
# src/storage/crc32c.cc.
SIMD_CRC_TU = "src/storage/crc32c_sse42.cc"
SIMD_INTRINSICS_RE = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|arm_neon|emmintrin|xmmintrin"
    r"|smmintrin|tmmintrin|nmmintrin|wmmintrin|avxintrin|avx2intrin)\.h>"
    r"|\b_mm(?:256|512)?_[A-Za-z0-9_]+"
    r"|\b__m(?:128|256|512)[di]?\b"
    r"|\b(?:float|int|uint)(?:8|16|32|64)x(?:1|2|4|8|16)_t\b"
    r"|\bv[a-z0-9]+q?_[fsu](?:8|16|32|64)\b")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        rel = os.path.relpath(self.path, REPO)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(lines: list[str]) -> list[str]:
    """Returns lines with // and /* */ comment text blanked (string-literal
    agnostic on purpose: the patterns we match do not occur in literals
    here, and a false positive is suppressible with a justified NOLINT)."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    i = end + 2
                    in_block = False
            else:
                slash = line.find("//", i)
                block = line.find("/*", i)
                if slash >= 0 and (block < 0 or slash < block):
                    result.append(line[i:slash])
                    i = len(line)
                elif block >= 0:
                    result.append(line[i:block])
                    i = block + 2
                    in_block = True
                else:
                    result.append(line[i:])
                    i = len(line)
        out.append("".join(result))
    return out


def suppressed(raw_line: str, rule: str, findings: list, path: str,
               lineno: int) -> bool:
    """True if the line carries a justified NOLINT for `rule`. A NOLINT
    that is bare (no rule, or no justification text) is itself a finding."""
    m = NOLINT_RE.search(raw_line)
    if m and m.group(1) == rule and m.group(2):
        return True
    if "NOLINT" in raw_line and BARE_NOLINT_RE.search(raw_line):
        findings.append(Finding(
            path, lineno, "strg-bare-suppression",
            "NOLINT must name its rule and justify itself: "
            "`NOLINT(<rule>): <why>`"))
    return False


def file_suppressed(text: str, rule: str) -> bool:
    """True if the file carries a justified NOLINT for `rule` anywhere
    (whole-file rules like the bench-report checks)."""
    return any(m.group(1) == rule and m.group(2)
               for m in NOLINT_RE.finditer(text))


def strip_strings(line: str) -> str:
    """Blanks the contents of "..." and '...' literals (keeps the quotes)
    so the brace/paren scanner below never trips on a brace in a string."""
    out = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch in "\"'":
            quote = ch
            out.append(ch)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _method_name(stmt: str):
    """Name of the method a declaration/definition statement declares: the
    identifier immediately before the first call-less '(' — skipping
    control keywords so `if (...)` never reads as a method."""
    for m in METHOD_NAME_RE.finditer(stmt):
        name = m.group(1)
        if name.lstrip("~") in CONTROL_KEYWORDS or name.startswith("STRG_"):
            continue
        return name
    return None


def check_lock_excludes(root: str, findings: list) -> None:
    """strg-lock-excludes: every PUBLIC method whose body constructs a lock
    guard must carry STRG_EXCLUDES / STRG_EXCLUDES_DYNAMIC / STRG_REQUIRES
    / STRG_ACQUIRE on its declaration (or definition). Structural scan:
    brace-depth tracking with a scope stack (namespace/class/method/block),
    class access-section tracking, and out-of-line `Class::Method` bodies
    mapped back to their header declaration. Constructors and destructors
    are exempt — they run single-owner by contract."""
    method_index: dict = {}   # (class, method) -> {decl, access, path, line}
    candidates: list = []     # method scopes that constructed a guard
    raw_by_path: dict = {}

    def index_method(key, entry):
        # An in-class declaration (access known) always beats an out-of-line
        # definition (access None) regardless of file walk order; the first
        # access-known entry wins among themselves.
        cur = method_index.get(key)
        if cur is None or (cur["access"] is None
                           and entry["access"] is not None):
            method_index[key] = entry

    def classify(stmt, scopes, path, lineno):
        stmt = stmt.strip()
        inner = scopes[-1] if scopes else None
        if not stmt or stmt.startswith(("namespace", "extern")):
            return {"kind": "block"}
        if "enum" not in stmt.split():
            cm = CLASS_HEAD_RE.search(stmt)
            # A '(' before the class keyword means this is a parameter or
            # expression mentioning `class`, not a type definition head.
            if cm and "(" not in stmt[:cm.start()]:
                return {"kind": "class", "name": cm.group(2),
                        "access": "private" if cm.group(1) == "class"
                        else "public"}
        if inner is not None and inner["kind"] in ("method", "block"):
            return {"kind": "block"}  # control flow / lambda / init list
        if "(" not in stmt:
            return {"kind": "block"}
        if inner is not None and inner["kind"] == "class":
            name = _method_name(stmt)
            if name is None:
                return {"kind": "block"}
            return {"kind": "method", "class_name": inner["name"],
                    "name": name, "decl": stmt, "access": inner["access"],
                    "path": path, "line": lineno, "guards": []}
        om = OUTLINE_DEF_RE.search(stmt)
        if om:
            return {"kind": "method", "class_name": om.group(1),
                    "name": om.group(2), "decl": stmt, "access": None,
                    "path": path, "line": lineno, "guards": []}
        return {"kind": "block"}

    for path in walk(root, "src"):
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
        raw_by_path[path] = raw
        code = [strip_strings(l) for l in strip_comments(raw)]
        scopes: list = []
        stmt_chars: list = []
        for lineno, line in enumerate(code, 1):
            if line.lstrip().startswith("#"):
                continue
            am = ACCESS_RE.match(line)
            if am:
                for sc in reversed(scopes):
                    if sc["kind"] == "class":
                        sc["access"] = am.group(1)
                        break
                line = line.split(":", 1)[1]
            if GUARD_DECL_RE.search(line):
                for sc in reversed(scopes):
                    if sc["kind"] == "method":
                        sc["guards"].append(lineno)
                        break
            for ch in line:
                if ch == "{":
                    sc = classify("".join(stmt_chars), scopes, path, lineno)
                    if sc["kind"] == "method":
                        index_method(
                            (sc["class_name"], sc["name"]),
                            {"decl": sc["decl"],
                             "access": sc["access"],
                             "path": path, "line": sc["line"]})
                    scopes.append(sc)
                    stmt_chars = []
                elif ch == "}":
                    if scopes:
                        done = scopes.pop()
                        if done["kind"] == "method" and done["guards"]:
                            candidates.append(done)
                    stmt_chars = []
                elif ch == ";":
                    stmt = "".join(stmt_chars).strip()
                    inner = scopes[-1] if scopes else None
                    if inner is not None and inner["kind"] == "class" and \
                            "(" in stmt:
                        name = _method_name(stmt)
                        if name is not None:
                            index_method(
                                (inner["name"], name),
                                {"decl": stmt, "access": inner["access"],
                                 "path": path, "line": lineno})
                    stmt_chars = []
                else:
                    stmt_chars.append(ch)
            stmt_chars.append(" ")

    for cand in candidates:
        name, cls = cand["name"], cand["class_name"]
        if name.startswith("~") or name == cls:
            continue  # ctor/dtor: single-owner by contract
        entry = method_index.get((cls, name))
        access = cand["access"]
        if access is None:
            if entry is None:
                continue  # free function or unindexed class: out of scope
            access = entry["access"]
        if access != "public":
            continue
        texts = [cand["decl"]] + ([entry["decl"]] if entry else [])
        if any(LOCK_ANNOT_RE.search(t) for t in texts):
            continue
        sup_sites = [(cand["path"], cand["line"])]
        if entry:
            sup_sites.append((entry["path"], entry["line"]))
        if any(suppressed(raw_by_path.get(p, [""] * ln)[ln - 1],
                          "strg-lock-excludes", findings, p, ln)
               for p, ln in sup_sites
               if ln - 1 < len(raw_by_path.get(p, []))):
            continue
        findings.append(Finding(
            cand["path"], cand["line"], "strg-lock-excludes",
            f"public method {cls}::{name} constructs a lock guard (line "
            f"{cand['guards'][0]}) but its declaration carries no "
            "STRG_EXCLUDES/STRG_EXCLUDES_DYNAMIC/STRG_REQUIRES — callers "
            "and scripts/lock_graph.py need the locking contract visible "
            "at the signature"))


def walk(root: str, subdir: str):
    base = os.path.join(root, subdir)
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(CXX_EXTS):
                yield os.path.join(dirpath, name)


def lint_tree(root: str) -> list:
    findings: list = []
    sync_h = os.path.join(root, "src", "util", "sync.h")

    for path in walk(root, "src"):
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
        code = strip_comments(raw)
        rel = os.path.relpath(path, root)
        in_api_or_storage = rel.startswith(("src/api", "src/storage"))
        in_storage = rel.startswith("src/storage")
        in_simd = (rel.startswith("src/distance/simd") or
                   rel == SIMD_CRC_TU)

        for idx, (raw_line, code_line) in enumerate(zip(raw, code), 1):
            if os.path.abspath(path) != os.path.abspath(sync_h):
                if NAKED_MUTEX_RE.search(code_line) and not suppressed(
                        raw_line, "strg-naked-mutex", findings, path, idx):
                    findings.append(Finding(
                        path, idx, "strg-naked-mutex",
                        "naked std sync primitive; use the annotated "
                        "strg::Mutex/MutexLock/CondVar from util/sync.h"))
            if in_api_or_storage:
                if THROW_RE.search(code_line) and not suppressed(
                        raw_line, "strg-no-throw", findings, path, idx):
                    findings.append(Finding(
                        path, idx, "strg-no-throw",
                        "`throw` on a Status/StatusOr code path; return a "
                        "typed api::Status instead"))
            if not in_storage:
                if DIRECT_IO_RE.search(code_line) and not suppressed(
                        raw_line, "strg-direct-io", findings, path, idx):
                    findings.append(Finding(
                        path, idx, "strg-direct-io",
                        "direct file I/O outside src/storage/; route bytes "
                        "through the storage layer (storage/file_io.h, "
                        "PageFile, WalWriter) so fsync discipline and CRC "
                        "framing stay in one place"))
            # No exemption for catalog.h: the wrappers are removed, and the
            # rule now guards against their REINTRODUCTION at the source.
            if DEPRECATED_CATALOG_RE.search(code_line) and not suppressed(
                    raw_line, "strg-deprecated-catalog", findings, path,
                    idx):
                findings.append(Finding(
                    path, idx, "strg-deprecated-catalog",
                    "the throwing Catalog wrappers (Deserialize/SaveToFile/"
                    "LoadFromFile) were removed in PR 10 — do not "
                    "reintroduce them; use TryDeserialize/TrySaveToFile/"
                    "TryLoadFromFile (Status/StatusOr)"))
            if not in_simd:
                if SIMD_INTRINSICS_RE.search(code_line) and not suppressed(
                        raw_line, "strg-simd-intrinsics", findings, path, idx):
                    findings.append(Finding(
                        path, idx, "strg-simd-intrinsics",
                        "vendor intrinsics outside src/distance/simd/ and "
                        f"{SIMD_CRC_TU}; add a kernel to a dispatched table "
                        "so the bit-identity proof and per-TU ISA flags "
                        "stay in audited places"))
            if WALLCLOCK_RE.search(code_line) and not suppressed(
                    raw_line, "strg-no-wallclock-rand", findings, path, idx):
                findings.append(Finding(
                    path, idx, "strg-no-wallclock-rand",
                    "rand()/srand()/time() break the determinism contract; "
                    "use util/random.h RNGs and steady_clock"))
            if OPTOUT_RE.search(code_line):
                context = " ".join(raw[max(0, idx - 6):idx - 1])
                if ("//" not in context and "*" not in context) or \
                        not re.search(r"(//|\*)\s*\S+\s+\S+", context):
                    findings.append(Finding(
                        path, idx, "strg-bare-suppression",
                        "STRG_NO_THREAD_SAFETY_ANALYSIS needs a "
                        "justification comment within the 5 lines above"))

    bench_dir = os.path.join(root, "bench")
    if os.path.isdir(bench_dir):
        for name in sorted(os.listdir(bench_dir)):
            if not (name.startswith("bench_") and name.endswith(".cpp")):
                continue
            path = os.path.join(bench_dir, name)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            if BENCH_SERVER_JSON_RE.search(text):
                if not (HW_CONCURRENCY_RE.search(text)
                        and SHARD_FIELD_RE.search(text)):
                    m = NOLINT_RE.search(text)
                    if not (m and m.group(1) == "strg-bench-server-shards"
                            and m.group(2)):
                        findings.append(Finding(
                            path, 1, "strg-bench-server-shards",
                            'BENCH_server*.json report must record a '
                            '"shards" field and hardware_concurrency '
                            "(serving numbers are incomparable without "
                            "both), or justify with "
                            "NOLINT(strg-bench-server-shards): <why>"))
            if BENCH_CLUSTER_JSON_RE.search(text):
                if not (K_FIELD_RE.search(text)
                        and RESTARTS_FIELD_RE.search(text)
                        and BOUND_MODE_FIELD_RE.search(text)):
                    m = NOLINT_RE.search(text)
                    if not (m and m.group(1) == "strg-bench-cluster-stamp"
                            and m.group(2)):
                        findings.append(Finding(
                            path, 1, "strg-bench-cluster-stamp",
                            'BENCH_cluster*.json report must stamp "k", '
                            '"restarts", and "bound_mode" (distance counts '
                            "are meaningless without the centroid count, "
                            "the restart multiplier, and the use_bounds "
                            "side), or justify with "
                            "NOLINT(strg-bench-cluster-stamp): <why>"))
            if BENCH_JSON_RE.search(text):
                if not (SIMD_TIER_RE.search(text)
                        or JSON_REPORT_RE.search(text)) and \
                        not file_suppressed(text, "strg-bench-simd-tier"):
                    findings.append(Finding(
                        path, 1, "strg-bench-simd-tier",
                        'BENCH_*.json report must record the active simd '
                        'dispatch tier (use bench::JsonReport, which emits '
                        '"simd_tier" automatically, or write the field '
                        "yourself), or justify with "
                        "NOLINT(strg-bench-simd-tier): <why>"))
                continue
            m = NOLINT_RE.search(text)
            if m and m.group(1) == "strg-bench-json" and m.group(2):
                continue
            findings.append(Finding(
                path, 1, "strg-bench-json",
                "benchmark never names a BENCH_*.json report; write one "
                "(bench::JsonReport) or justify with "
                "NOLINT(strg-bench-json): <why>"))

    check_lock_excludes(root, findings)

    tests_dir = os.path.join(root, "tests")
    if os.path.isdir(tests_dir):
        for name in sorted(os.listdir(tests_dir)):
            if not name.endswith("_test.cpp"):
                continue
            path = os.path.join(tests_dir, name)
            with open(path, encoding="utf-8") as f:
                head = f.read(4096)
            if not TEST_LABEL_RE.search(head):
                findings.append(Finding(
                    path, 1, "strg-test-label",
                    "test file must declare `// ctest-labels: <label>` near "
                    "the top (tests/CMakeLists.txt applies it to ctest)"))

    return findings


# ---------------------------------------------------------------------------
# AST-grade promotion (scripts/clang_ast.py): when libclang can parse the
# tree, strg-no-wallclock-rand and strg-deprecated-catalog are re-decided on
# the AST — regex false positives (a member function named `time`, a
# non-Catalog `Deserialize`) are dropped, and true calls the regex missed
# (e.g. through an alias) are added. The regex verdicts stand unchanged when
# libclang is absent: fallback, never a silent skip.
# ---------------------------------------------------------------------------

AST_PROMOTED_RULES = ("strg-no-wallclock-rand", "strg-deprecated-catalog")
WALLCLOCK_FNS = ("rand", "srand", "time")
CATALOG_WRAPPERS = ("Deserialize", "SaveToFile", "LoadFromFile")


def _ast_true_positives(tu, src_root):
    """((file,line) sets) of AST-confirmed wallclock calls and deprecated
    Catalog wrapper mentions, plus the set of files this TU covers."""
    import clang.cindex as cindex

    wall, catalog, covered = set(), set(), set()
    covered.add(os.path.abspath(str(tu.spelling)))
    for inc in tu.get_includes():
        p = os.path.abspath(str(inc.include))
        if p.startswith(src_root):
            covered.add(p)
    for c in tu.cursor.walk_preorder():
        f = c.location.file
        if f is None:
            continue
        fp = os.path.abspath(str(f))
        if not fp.startswith(src_root):
            continue
        loc = (fp, c.location.line)
        if c.kind == cindex.CursorKind.DECL_REF_EXPR and \
                c.spelling in WALLCLOCK_FNS:
            ref = c.referenced
            if ref is not None and \
                    ref.kind == cindex.CursorKind.FUNCTION_DECL:
                sp = ref.semantic_parent
                # Only the global C functions break determinism; a member
                # or namespaced `time`/`rand` is someone else's name.
                if sp is None or \
                        sp.kind == cindex.CursorKind.TRANSLATION_UNIT:
                    wall.add(loc)
        if c.spelling in CATALOG_WRAPPERS:
            if c.kind in (cindex.CursorKind.MEMBER_REF_EXPR,
                          cindex.CursorKind.DECL_REF_EXPR):
                ref = c.referenced
                if ref is not None and ref.semantic_parent is not None and \
                        ref.semantic_parent.spelling == "Catalog":
                    catalog.add(loc)
            elif c.kind == cindex.CursorKind.CXX_METHOD and \
                    c.semantic_parent is not None and \
                    c.semantic_parent.spelling == "Catalog":
                catalog.add(loc)
    return wall, catalog, covered


def ast_refine(findings: list, root: str) -> list:
    """Re-decides the AST-promoted rules when libclang is available; returns
    the (possibly) adjusted finding list. Loud in every degraded mode."""
    sys.path.insert(0, os.path.join(REPO, "scripts"))
    try:
        import clang_ast
    except Exception as e:  # harness itself broken: fall back loudly
        print(f"strg_lint: AST layer unavailable ({e}); regex verdicts stand")
        return findings
    if not clang_ast.require("strg_lint"):
        return findings  # require() already printed (or exited under CI)

    src_root = os.path.abspath(os.path.join(root, "src"))
    build_dir = next(
        (d for d in (os.path.join(root, "build-static"),
                     os.path.join(root, "build"))
         if os.path.isfile(os.path.join(d, "compile_commands.json"))), None)
    if build_dir is None:
        msg = ("strg_lint: SKIP AST leg — no compile_commands.json under "
               "build-static/ or build/ (run scripts/static.sh leg 2 first)")
        if os.environ.get("STRG_REQUIRE_CLANG") == "1":
            print(msg)
            raise SystemExit(1)
        print(msg)
        return findings

    try:
        entries = clang_ast.load_compile_commands(build_dir)
        wall, catalog, covered = set(), set(), set()
        for src, args in entries:
            if not os.path.abspath(src).startswith(src_root):
                continue
            w, c, cov = _ast_true_positives(
                clang_ast.parse_tu(src, args), src_root)
            wall |= w
            catalog |= c
            covered |= cov
    except Exception as e:
        print(f"strg_lint: AST pass FAILED ({e}); regex verdicts stand")
        return findings

    truth = {"strg-no-wallclock-rand": wall,
             "strg-deprecated-catalog": catalog}
    kept = []
    dropped = 0
    for f in findings:
        fp = os.path.abspath(f.path)
        if f.rule in AST_PROMOTED_RULES and fp in covered and \
                (fp, f.line) not in truth[f.rule]:
            dropped += 1  # regex false positive, disproven on the AST
            continue
        kept.append(f)
    have = {(os.path.abspath(f.path), f.line, f.rule) for f in kept}
    added = 0
    for rule, locs in truth.items():
        for fp, line in sorted(locs):
            if (fp, line, rule) in have:
                continue
            with open(fp, encoding="utf-8") as fh:
                raw = fh.read().splitlines()
            raw_line = raw[line - 1] if line - 1 < len(raw) else ""
            if suppressed(raw_line, rule, kept, fp, line):
                continue
            kept.append(Finding(
                fp, line, rule,
                "AST-confirmed violation the textual scan missed "
                f"({rule}); see the rule's entry in this script's header"))
            added += 1
    print(f"strg_lint: AST leg over {len(covered)} file(s): "
          f"{dropped} regex false positive(s) dropped, {added} added")
    return kept


# ---------------------------------------------------------------------------
# Self-test: seed one bad fixture per rule into a scratch tree and require
# the linter to report exactly the planted rule; then check the justified
# suppression of the same pattern passes.
# ---------------------------------------------------------------------------

FIXTURES = {
    "strg-naked-mutex": (
        "src/server/bad.h",
        "#include <mutex>\nstd::mutex mu;\n",
        "// NOLINT(strg-naked-mutex): adapter pinned to a C API demo\n"
        "struct ok {};\n",
    ),
    "strg-no-throw": (
        "src/api/bad.cc",
        "void f() { throw 1; }\n",
        "void f() { throw 1; }  "
        "// NOLINT(strg-no-throw): legacy wrapper, documented\n",
    ),
    "strg-no-wallclock-rand": (
        "src/core/bad.cc",
        "int f() { return rand(); }\n",
        "int f() { return 4; }  // chosen by fair dice roll\n",
    ),
    "strg-direct-io": (
        "src/core/bad_io.cc",
        '#include <fstream>\nvoid f() { std::ofstream o("x"); }\n',
        'void f() { std::ofstream o("x"); }  '
        "// NOLINT(strg-direct-io): demo sink, bytes are not durable state\n",
    ),
    "strg-bench-json": (
        "bench/bench_bad.cpp",
        "int main() { return 0; }\n",
        "// NOLINT(strg-bench-json): emits via --benchmark_out\n"
        "int main() { return 0; }\n",
    ),
    "strg-bench-server-shards": (
        "bench/bench_server_bad.cpp",
        'int main() { const char* p = "BENCH_server_bad.json"; '
        "return p != nullptr; }\n",
        'int main() { const char* p = "BENCH_server_bad.json"; '
        'const char* j = "\\"shards\\":1"; '
        "unsigned c = 0; (void)c;  // hardware_concurrency goes here\n"
        "  return p != nullptr && j != nullptr; }\n",
    ),
    "strg-bench-cluster-stamp": (
        "bench/bench_cluster_bad.cpp",
        'int main() { const char* p = "BENCH_cluster_bad.json"; '
        "return p != nullptr; }\n",
        'int main() { const char* p = "BENCH_cluster_bad.json"; '
        'const char* s = "\\"k\\":4,\\"restarts\\":2,'
        '\\"bound_mode\\":\\"on\\""; '
        "return p != nullptr && s != nullptr; }\n",
    ),
    "strg-bench-simd-tier": (
        "bench/bench_tierless.cpp",
        'int main() { const char* p = "BENCH_tierless.json"; '
        "return p != nullptr; }\n",
        'int main() { const char* p = "BENCH_tierless.json"; '
        'const char* t = "\\"simd_tier\\":\\"scalar\\""; '
        "return p != nullptr && t != nullptr; }\n",
    ),
    "strg-simd-intrinsics": (
        "src/core/bad_vec.cc",
        "#include <immintrin.h>\n"
        "__m256d f(__m256d a) { return _mm256_add_pd(a, a); }\n",
        "#include <immintrin.h>  "
        "// NOLINT(strg-simd-intrinsics): ISA probe pinned to this TU\n"
        "int f() { return 0; }\n",
    ),
    # The CRC tier's exemption is one file, not the storage directory:
    # intrinsics in any other src/storage file still fail.
    "strg-simd-intrinsics#storage": (
        None,
        {"src/storage/crc32c.cc":
            "#include <nmmintrin.h>\n"
            "unsigned f(unsigned c, unsigned v) "
            "{ return _mm_crc32_u32(c, v); }\n"},
        {"src/storage/crc32c_sse42.cc":
            "#include <nmmintrin.h>\n"
            "unsigned f(unsigned c, unsigned v) "
            "{ return _mm_crc32_u32(c, v); }\n"},
    ),
    "strg-test-label": (
        "tests/bad_test.cpp",
        "int main() { return 0; }\n",
        "// ctest-labels: unit\nint main() { return 0; }\n",
    ),
    # Placed in catalog.h itself: the old rule exempted that file (the
    # wrappers lived there); the retargeted rule must catch reintroduction
    # at the source.
    "strg-deprecated-catalog": (
        "src/storage/catalog.h",
        "class Catalog {\n public:\n"
        "  static Catalog LoadFromFile(const std::string& path);\n};\n",
        "class Catalog {\n public:\n"
        "  static api::StatusOr<Catalog> TryLoadFromFile("
        "const std::string& path);\n};\n",
    ),
    "strg-lock-excludes": (
        "src/server/bad_lock.h",
        "class Widget {\n public:\n"
        "  void Poke() {\n    MutexLock lock(mu_);\n  }\n"
        " private:\n  Mutex mu_{LockRank::kUnranked};\n};\n",
        "class Widget {\n public:\n"
        "  void Poke() STRG_EXCLUDES(mu_) {\n    MutexLock lock(mu_);\n  }\n"
        " private:\n  Mutex mu_{LockRank::kUnranked};\n"
        "  void PokeLocked() {\n    MutexLock lock(mu_);\n  }\n};\n",
    ),
    # Out-of-line regression: the definition lives in a .cc that the walk
    # visits BEFORE the header declaring the method public — the index must
    # still resolve the access section from the header.
    "strg-lock-excludes#outline": (
        None,
        {"src/server/a_widget.cc":
            '#include "server/z_widget.h"\n'
            "void Widget::Poke() {\n  MutexLock lock(mu_);\n}\n",
         "src/server/z_widget.h":
            "class Widget {\n public:\n  void Poke();\n"
            " private:\n  Mutex mu_{LockRank::kUnranked};\n};\n"},
        {"src/server/a_widget.cc":
            '#include "server/z_widget.h"\n'
            "void Widget::Poke() {\n  MutexLock lock(mu_);\n}\n",
         "src/server/z_widget.h":
            "class Widget {\n public:\n  void Poke() STRG_EXCLUDES(mu_);\n"
            " private:\n  Mutex mu_{LockRank::kUnranked};\n};\n"},
    ),
    "strg-bare-suppression": (
        "src/util/bad.h",
        "void f() STRG_NO_THREAD_SAFETY_ANALYSIS;\n",
        "// justified: init path, object not yet shared\n"
        "void f() STRG_NO_THREAD_SAFETY_ANALYSIS;\n",
    ),
}


def self_test() -> int:
    failures = 0
    for key, (rel, bad, good) in FIXTURES.items():
        rule = key.split("#")[0]  # "#suffix" names extra fixtures per rule
        for variant, text, expect_hit in (("bad", bad, True),
                                          ("good", good, False)):
            files = text if isinstance(text, dict) else {rel: text}
            with tempfile.TemporaryDirectory() as scratch:
                for frel, body in files.items():
                    path = os.path.join(scratch, frel)
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    with open(path, "w", encoding="utf-8") as f:
                        f.write(body)
                hits = [f for f in lint_tree(scratch) if f.rule == rule]
                if bool(hits) != expect_hit:
                    failures += 1
                    print(f"self-test FAIL: {key}/{variant}: expected "
                          f"{'a finding' if expect_hit else 'clean'}, got "
                          f"{[str(h) for h in hits]}")
                else:
                    print(f"self-test ok: {key}/{variant}")
    if failures:
        print(f"self-test: {failures} failure(s)")
        return 1
    print(f"self-test: all {len(FIXTURES)} fixtures fire and suppress "
          "correctly")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on seeded bad fixtures")
    parser.add_argument("--no-ast", action="store_true",
                        help="skip the libclang promotion of the AST-grade "
                             "rules (regex/textual verdicts only)")
    parser.add_argument("--root", default=REPO, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = lint_tree(args.root)
    if not args.no_ast:
        findings = ast_refine(findings, args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"strg_lint: {len(findings)} finding(s)")
        return 1
    print("strg_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
