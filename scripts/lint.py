#!/usr/bin/env python3
"""Project lint for angelptm (DESIGN.md §10, §15).

Eight rules over src/ (tests and benches are exempt unless noted):

  mutex       Every mutex-like member must participate in the thread-safety
              contract: raw std::mutex / std::condition_variable declarations
              need a `// lint: unguarded` waiver (use util::Mutex/util::CondVar
              from util/thread_annotations.h instead), and every util::Mutex
              member must be referenced by at least one ANGEL_GUARDED_BY /
              ANGEL_PT_GUARDED_BY / ANGEL_REQUIRES / ANGEL_ACQUIRE /
              ANGEL_EXCLUDES in the same file (or carry the waiver).

  nodiscard   Every declaration returning util::Status or util::Result<...>
              must be [[nodiscard]]. (src/util/status.h itself is exempt:
              the types are declared [[nodiscard]] at class level there.)

  failpoint   Every fault-injection site named in src/ (ANGEL_FAULT_CHECK("x")
              or FaultInjector...Check("x")) must appear in the canonical
              failpoint table of DESIGN.md §10, and vice versa — the table
              and the code cannot drift apart.

  naked-new   No naked `new`: allocations must land in a smart pointer on the
              same statement, or carry a `// lint: naked-new (<reason>)`
              waiver (leaked singletons are the only expected use).

  simd-include  `#include <immintrin.h>` (and the other x86 intrinsic
              headers) may appear only under src/train/simd/, so vector
              intrinsics cannot spread outside the dispatch layer and its
              one -mavx2 TU. Waive with `// lint: simd-include (<reason>)`.

  raw-mutex   Outside src/util/, any use of std::mutex / std::lock_guard /
              std::unique_lock / std::scoped_lock / std::condition_variable
              is banned (declarations AND lock sites): everything must go
              through the util:: shims so lockdep coverage is total. Waive
              with `// lint: raw-mutex (<reason>)`.

  lock-class  Every util::Mutex in src/ must declare a lock class and rank
              (`util::Mutex mu{"x.y", lockrank::kXY};`, DESIGN.md §15), and
              the declared (class, rank constant) pairs must agree with the
              canonical lock-class table in DESIGN.md §15 and with the rank
              constants in src/util/lockdep.h — in both directions, like
              the failpoint rule. Waive a classless mutex with
              `// lint: lock-class (<reason>)`.

  orphan-module  Every header under src/ must be #included by some file
              outside its own .h/.cc pair: a file in src/, or in bench/,
              examples/, tools/ or perfbench/ beside it. Includes from
              tests/ do not count, so a module whose only caller is its own
              test is flagged for deletion.

Exit code 0 when clean, 1 with one finding per line otherwise.

Usage: scripts/lint.py [--root DIR] [--design FILE] [--src DIR]
"""

import argparse
import os
import re
import sys

MUTEX_WAIVER = "// lint: unguarded"
RAW_MUTEX_WAIVER = "// lint: raw-mutex"
LOCK_CLASS_WAIVER = "// lint: lock-class"
NEW_WAIVER = "// lint: naked-new"
SIMD_WAIVER = "// lint: simd-include"

# x86 vector-intrinsic headers (immintrin.h is the umbrella; the rest are
# its pieces that someone might include directly).
SIMD_INCLUDE_RE = re.compile(
    r'#\s*include\s*[<"]'
    r"(?:immintrin|x86intrin|xmmintrin|emmintrin|pmmintrin|tmmintrin|"
    r"smmintrin|nmmintrin|wmmintrin|avxintrin|avx2intrin)\.h"
    r'[>"]')
SIMD_ALLOWED_DIR = os.path.join("src", "train", "simd")

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|condition_variable(_any)?)\b"
)
UTIL_MUTEX_MEMBER_RE = re.compile(
    r"\b(?:util::)?Mutex\s+(\w+)\s*(?:;|\{|ANGEL_GUARDED_BY)"
)
# Any std:: locking vocabulary (types and RAII lock sites) — banned outside
# src/util/ by the raw-mutex rule.
RAW_LOCK_TOKEN_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock)\b"
)
# A util::Mutex declared with a lock class and rank:
#   util::Mutex mu{"class.name", lockrank::kConst};
# (possibly spanning lines; matched against whole-file text), and the
# make_shared spelling used for dynamically created mutexes.
MUTEX_CLASS_DECL_RE = re.compile(
    r'\bMutex\s+\w+\s*\{\s*"([\w.]+)"\s*,\s*'
    r"(?:util::)?lockrank::(k\w+)")
MUTEX_SHARED_CLASS_RE = re.compile(
    r'make_shared<\s*util::Mutex\s*>\s*\(\s*"([\w.]+)"\s*,\s*'
    r"(?:util::)?lockrank::(k\w+)")
# A classless util::Mutex declaration (member or make_shared) — needs a
# class or the lock-class waiver.
MUTEX_NO_CLASS_RE = re.compile(r"\b(?:util::)?Mutex\s+(\w+)\s*;")
MUTEX_SHARED_NO_CLASS_RE = re.compile(
    r"make_shared<\s*util::Mutex\s*>\s*\(\s*\)")
# Rank constants in src/util/lockdep.h.
LOCKRANK_CONST_RE = re.compile(r"inline constexpr int (k\w+) = (\d+);")
# Rows of the §15 lock-class table: | `class` | `kConst` | rank | where |
LOCKCLASS_ROW_RE = re.compile(
    r"^\|\s*`([\w.]+)`\s*\|\s*`(k\w+)`\s*\|\s*(\d+)\s*\|")
LOCKCLASS_HEADING_RE = re.compile(r"^#+\s.*lock-class table", re.IGNORECASE)
ANNOTATION_REF_RE = re.compile(
    r"ANGEL_(?:PT_)?(?:GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|TRY_ACQUIRE|"
    r"EXCLUDES|RETURN_CAPABILITY)\s*\(([^)]*)\)"
)
STATUS_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s+)?(?:static\s+|virtual\s+)*"
    r"util::(?:Status|Result<[^;=]*?>)\s+\w+\s*\("
)
FAULT_SITE_RE = re.compile(
    r'(?:ANGEL_FAULT_CHECK|\bCheck)\s*\(\s*"([^"]+)"')
NEW_RE = re.compile(r"(?<![:\w])new\s+[A-Za-z_:][\w:<>, \[\]]*")
SMART_WRAP_RE = re.compile(
    r"std::(unique_ptr|shared_ptr)\s*<|\breset\s*\(\s*new\b")
LOCK_USE_RE = re.compile(
    r"std::(?:lock_guard|unique_lock|scoped_lock)\s*<[^>]*>")
# A quoted include; src/ headers are always included by their path under
# src/ ("core/engine.h").
QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
# Directories beside src/ whose files count as callers for orphan-module.
ORPHAN_CONSUMER_DIRS = ("bench", "examples", "tools", "perfbench")

# Rows of the §10 table: | `site.name` | where | meaning |
TABLE_ROW_RE = re.compile(r"^\|\s*`([\w.]+)`\s*\|")
# The heading that introduces the canonical failpoint table; only rows
# between it and the next heading count as failpoint sites (other tables in
# the doc, e.g. the lint-rule table, must not be parsed as sites).
FAILPOINT_HEADING_RE = re.compile(r"^#+\s.*failpoint table", re.IGNORECASE)


def strip_comments_and_strings(line):
    """Removes // comments and the contents of string literals (keeps "")."""
    out = []
    i = 0
    in_str = False
    while i < len(line):
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == '"':
                in_str = False
                out.append(c)
            i += 1
            continue
        if c == '"':
            in_str = True
            out.append(c)
            i += 1
            continue
        if line.startswith("//", i):
            break
        out.append(c)
        i += 1
    return "".join(out)


def iter_source_files(src_dir, suffixes=(".h", ".cc")):
    for root, _dirs, files in os.walk(src_dir):
        for name in sorted(files):
            if name.endswith(suffixes):
                yield os.path.join(root, name)


def lint_file(path, findings, src_dir=None):
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    in_util = False
    if src_dir is not None:
        rel = os.path.relpath(os.path.normpath(path), os.path.normpath(src_dir))
        in_util = rel.split(os.sep)[0] == "util"
    text = "".join(lines)
    annotated = set()
    for m in ANNOTATION_REF_RE.finditer(text):
        for arg in m.group(1).split(","):
            arg = arg.strip()
            if arg:
                annotated.add(arg.lstrip("*&"))

    basename = os.path.basename(path)
    for lineno, raw in enumerate(lines, start=1):
        code = strip_comments_and_strings(raw)

        # Rule: mutex. Locking a (waivered) raw mutex with std::lock_guard
        # etc. is fine — the rule targets the declaration, not its uses.
        decl_code = LOCK_USE_RE.sub("", code)
        if RAW_MUTEX_RE.search(decl_code) and "#include" not in code:
            if MUTEX_WAIVER not in raw and RAW_MUTEX_WAIVER not in raw:
                findings.append(
                    f"{path}:{lineno}: [mutex] raw std:: mutex/condvar; use "
                    f"util::Mutex/util::CondVar (util/thread_annotations.h) "
                    f"or waive with `{MUTEX_WAIVER}`")
        m = UTIL_MUTEX_MEMBER_RE.search(code)
        if m and ";" in code:
            name = m.group(1)
            if name not in annotated and MUTEX_WAIVER not in raw:
                findings.append(
                    f"{path}:{lineno}: [mutex] util::Mutex member `{name}` "
                    f"is never referenced by ANGEL_GUARDED_BY/ANGEL_REQUIRES/"
                    f"ANGEL_EXCLUDES in this file; annotate what it guards "
                    f"or waive with `{MUTEX_WAIVER}`")

        # Rule: raw-mutex. Outside src/util/ the std:: locking vocabulary
        # is banned outright — declarations and lock sites both — so every
        # lock the process takes goes through the instrumented shims and is
        # visible to lockdep (DESIGN.md §15).
        if (not in_util and "#include" not in code
                and RAW_LOCK_TOKEN_RE.search(code)
                and RAW_MUTEX_WAIVER not in raw):
            findings.append(
                f"{path}:{lineno}: [raw-mutex] std:: locking primitive "
                f"outside src/util/; use util::Mutex/util::MutexLock/"
                f"util::CondVar so lockdep sees it, or waive with "
                f"`{RAW_MUTEX_WAIVER} (<reason>)`")

        # Rule: lock-class (declaration side). A util::Mutex with no lock
        # class is invisible to the lock-order graph.
        if ((MUTEX_NO_CLASS_RE.search(code)
             or MUTEX_SHARED_NO_CLASS_RE.search(code))
                and LOCK_CLASS_WAIVER not in raw):
            findings.append(
                f"{path}:{lineno}: [lock-class] util::Mutex without a lock "
                f'class; declare one (`util::Mutex mu{{"x.y", '
                f"lockrank::kXY}};`, DESIGN.md §15) or waive with "
                f"`{LOCK_CLASS_WAIVER} (<reason>)`")

        # Rule: nodiscard (headers only; status.h is nodiscard at class
        # level; definitions in .cc repeat the declaration without it).
        if (path.endswith(".h") and basename != "status.h"
                and STATUS_DECL_RE.match(code)
                and "[[nodiscard]]" not in code):
            prev = lines[lineno - 2] if lineno >= 2 else ""
            if "[[nodiscard]]" not in prev:
                findings.append(
                    f"{path}:{lineno}: [nodiscard] declaration returning "
                    f"util::Status/util::Result lacks [[nodiscard]]")

        # Rule: simd-include. Matched against the raw line (the include
        # itself is what we are looking for, and the waiver rides in a
        # trailing comment).
        if (SIMD_INCLUDE_RE.search(raw)
                and SIMD_ALLOWED_DIR not in os.path.normpath(path)
                and SIMD_WAIVER not in raw):
            findings.append(
                f"{path}:{lineno}: [simd-include] x86 intrinsic header "
                f"outside {SIMD_ALLOWED_DIR}/; move the vector code into "
                f"the simd layer or waive with `{SIMD_WAIVER} (<reason>)`")

        # Rule: naked-new.
        if NEW_RE.search(code):
            if (not SMART_WRAP_RE.search(code)
                    and NEW_WAIVER not in raw):
                findings.append(
                    f"{path}:{lineno}: [naked-new] `new` outside a smart "
                    f"pointer; wrap it or waive with "
                    f"`{NEW_WAIVER} (<reason>)`")


def collect_fault_sites(src_dir):
    sites = {}
    for path in iter_source_files(src_dir):
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, start=1):
                if "#define" in raw:
                    continue
                comment = raw.find("//")
                for m in FAULT_SITE_RE.finditer(raw):
                    if comment != -1 and m.start() > comment:
                        continue  # Doc comments mention sites by example.
                    sites.setdefault(m.group(1), f"{path}:{lineno}")
    return sites


def collect_design_sites(design_path):
    sites = set()
    in_section = False
    with open(design_path, encoding="utf-8") as f:
        for line in f:
            if FAILPOINT_HEADING_RE.match(line):
                in_section = True
                continue
            if in_section and line.startswith("#"):
                break  # Next heading ends the failpoint table's section.
            if not in_section:
                continue
            m = TABLE_ROW_RE.match(line.strip())
            if m and m.group(1) not in ("site", "---"):
                sites.add(m.group(1))
    return sites


def lint_failpoints(src_dir, design_path, findings):
    code_sites = collect_fault_sites(src_dir)
    doc_sites = collect_design_sites(design_path)
    for site, where in sorted(code_sites.items()):
        if site not in doc_sites:
            findings.append(
                f"{where}: [failpoint] site `{site}` is not listed in the "
                f"failpoint table of {os.path.basename(design_path)} §10")
    for site in sorted(doc_sites - set(code_sites)):
        findings.append(
            f"{design_path}: [failpoint] table lists `{site}` but no such "
            f"ANGEL_FAULT_CHECK/Check site exists in {src_dir}")


def _match_is_in_comment(text, start):
    line_start = text.rfind("\n", 0, start) + 1
    return "//" in text[line_start:start]


def collect_lock_classes(src_dir):
    """Maps lock-class name -> (rank constant, first declaration site).

    Matches whole-file text so two-line declarations (class string on one
    line, rank constant on the next) are still seen. Also returns any
    conflicting redeclarations (same class, different rank constant).
    """
    classes = {}
    conflicts = []
    for path in iter_source_files(src_dir):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for regex in (MUTEX_CLASS_DECL_RE, MUTEX_SHARED_CLASS_RE):
            for m in regex.finditer(text):
                if _match_is_in_comment(text, m.start()):
                    continue  # Doc comments show declarations by example.
                name, const = m.group(1), m.group(2)
                lineno = text.count("\n", 0, m.start()) + 1
                where = f"{path}:{lineno}"
                if name in classes and classes[name][0] != const:
                    conflicts.append((where, name, const, classes[name]))
                classes.setdefault(name, (const, where))
    return classes, conflicts


def collect_lockrank_constants(lockdep_path):
    consts = {}
    with open(lockdep_path, encoding="utf-8") as f:
        for line in f:
            m = LOCKRANK_CONST_RE.search(line)
            if m:
                consts[m.group(1)] = int(m.group(2))
    return consts


def collect_design_lock_classes(design_path):
    """Rows of the §15 lock-class table: class -> (constant, rank)."""
    rows = {}
    in_section = False
    with open(design_path, encoding="utf-8") as f:
        for line in f:
            if LOCKCLASS_HEADING_RE.match(line):
                in_section = True
                continue
            if in_section and line.startswith("#"):
                break  # Next heading ends the table's section.
            if not in_section:
                continue
            m = LOCKCLASS_ROW_RE.match(line.strip())
            if m:
                rows[m.group(1)] = (m.group(2), int(m.group(3)))
    return rows


def lint_lock_classes(src_dir, design_path, findings):
    """Cross-checks code <-> lockdep.h <-> DESIGN table, both directions."""
    classes, conflicts = collect_lock_classes(src_dir)
    for where, name, const, first in conflicts:
        findings.append(
            f"{where}: [lock-class] class `{name}` declared with rank "
            f"`{const}` but {first[1]} uses `{first[0]}`; one class must "
            f"have exactly one rank")
    doc = collect_design_lock_classes(design_path)
    design_name = os.path.basename(design_path)
    lockdep_h = os.path.join(src_dir, "util", "lockdep.h")
    consts = (collect_lockrank_constants(lockdep_h)
              if os.path.exists(lockdep_h) else None)

    for name, (const, where) in sorted(classes.items()):
        if consts is not None and const not in consts:
            findings.append(
                f"{where}: [lock-class] rank constant `{const}` is not "
                f"defined in {lockdep_h}")
        if name not in doc:
            findings.append(
                f"{where}: [lock-class] class `{name}` is not listed in the "
                f"lock-class table of {design_name} §15")
        elif doc[name][0] != const:
            findings.append(
                f"{where}: [lock-class] class `{name}` is declared with "
                f"`{const}` but the {design_name} table says "
                f"`{doc[name][0]}`")
    for name, (const, rank) in sorted(doc.items()):
        if name not in classes:
            findings.append(
                f"{design_path}: [lock-class] table lists `{name}` but no "
                f"util::Mutex in {src_dir} declares that class")
        if consts is not None:
            if const not in consts:
                findings.append(
                    f"{design_path}: [lock-class] table references `{const}` "
                    f"which is not defined in {lockdep_h}")
            elif consts[const] != rank:
                findings.append(
                    f"{design_path}: [lock-class] table says `{name}` = "
                    f"`{const}` = {rank} but {lockdep_h} defines "
                    f"{const} = {consts[const]}")


def lint_orphan_modules(src_dir, findings):
    """Flags src/ headers that no file outside their own .h/.cc pair and
    outside tests/ includes (ORPHAN_CONSUMER_DIRS beside src/ count)."""
    src_dir = os.path.normpath(src_dir)
    root = os.path.dirname(src_dir)
    consumers = [src_dir] + [os.path.join(root, d)
                             for d in ORPHAN_CONSUMER_DIRS]
    included = set()
    for consumer in consumers:
        if not os.path.isdir(consumer):
            continue
        for path in iter_source_files(consumer, (".h", ".cc", ".cpp")):
            # A file under src/ does not count for its own pair.
            own_stem = None
            if consumer == src_dir:
                own_stem = os.path.splitext(os.path.relpath(path, src_dir))[0]
            with open(path, encoding="utf-8") as f:
                for line in f:
                    m = QUOTED_INCLUDE_RE.match(line)
                    if not m:
                        continue
                    header = os.path.normpath(m.group(1))
                    if os.path.splitext(header)[0] != own_stem:
                        included.add(header)
    callers = ", ".join(d + "/" for d in ("src",) + ORPHAN_CONSUMER_DIRS[:-1])
    callers += f" or {ORPHAN_CONSUMER_DIRS[-1]}/"
    for path in iter_source_files(src_dir, (".h",)):
        header = os.path.relpath(path, src_dir)
        if header not in included:
            findings.append(
                f"{path}:1: [orphan-module] `{header}` is included only by "
                f"its own .h/.cc pair or by tests/; call it from {callers}, "
                f"or delete it")


def run(src_dir, design_path):
    findings = []
    for path in iter_source_files(src_dir):
        lint_file(path, findings, src_dir)
    lint_orphan_modules(src_dir, findings)
    if os.path.exists(design_path):
        lint_failpoints(src_dir, design_path, findings)
        lint_lock_classes(src_dir, design_path, findings)
    else:
        findings.append(f"{design_path}: [failpoint] design doc not found")
    return findings


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--src", default=None,
                        help="source dir to lint (default: <root>/src)")
    parser.add_argument("--design", default=None,
                        help="design doc with the failpoint table "
                             "(default: <root>/DESIGN.md)")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    src_dir = args.src or os.path.join(root, "src")
    design = args.design or os.path.join(root, "DESIGN.md")

    findings = run(src_dir, design)
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint.py: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint.py: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
