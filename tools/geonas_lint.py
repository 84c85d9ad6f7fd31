#!/usr/bin/env python3
"""geonas_lint — repo-specific invariants clang-tidy cannot express.

Rules (see DESIGN.md "Correctness tooling"):

  thread-outside-hpc   std::thread / std::jthread / std::async are only
                       created inside src/hpc/ — every other library layer
                       must go through hpc::PoolShard / hpc::parallel_for
                       so the concurrency surface stays auditable (and
                       TSan-testable) in one place. Tests and tools may
                       spawn threads freely.

  unseeded-rng         Library code must use geonas::Rng with an explicit
                       64-bit seed. rand()/srand(), std::random_device,
                       and the std <random> engines are banned in src/:
                       they either hide global state (rand) or smuggle in
                       nondeterminism (random_device), and the repo's
                       reproducibility contract is seed -> bitwise output.

  iostream-in-library  No <iostream>/std::cout/cerr/clog/printf in src/
                       except src/core/reporting.*: libraries compute,
                       the reporting layer narrates. Keeps NAS campaign
                       output machine-parseable and kernels silent.

  unchecked-stream-read
                       A stream .read(...) or operator>> extraction in
                       src/ with no visible status check (if/throw/
                       gcount/fail/require_stream/read_exact) on the same
                       line or the two lines below. Unchecked reads turn
                       truncated files into silent garbage; route them
                       through io::BinaryReader or check the stream.

  transcendental-in-nn Direct std::tanh/std::exp/std::log calls in
                       src/nn/ — per-element loops there must route
                       through tensor::vmath (vtanh/vsigmoid/vexp or the
                       fused pointwise kernels) so the whole training hot
                       path shares one vectorized, accuracy-budgeted,
                       deterministic implementation. Scalar helpers that
                       ARE the reference (nn/activations.hpp) carry
                       reasoned suppressions.

  chrono-outside-obs   Raw std::chrono (or #include <chrono>) in src/
                       outside src/obs/ — library timing must go through
                       obs::monotonic_seconds / obs::StopWatch /
                       obs::ScopedTimer so every measurement shares one
                       clock, lands in the telemetry export, and can be
                       neutered by a null registry. Tests, tools and
                       benches may use std::chrono freely.

  hot-path-alloc       Heap allocation tokens (new, malloc, or growing a
                       std::vector via push_back/emplace_back/resize/
                       reserve/assign) in the kernel, layer and
                       graph-executor hot-path files (src/tensor/vmath.cpp,
                       src/tensor/prepack.cpp, src/nn/layer.hpp, whose
                       inline methods run on every forward, the src/nn/
                       layer .cpps and src/nn/graph.cpp). Forward/backward
                       scratch lives in arena workspaces bound once per
                       shape (DESIGN.md "Memory model"); an allocation
                       here lands on every training batch and is exactly
                       what tests/alloc_audit_test.cpp exists to catch.
                       Cold-path code (constructors, (de)serialization)
                       carries reasoned suppressions. Run over its
                       default roots, lint also reports a hot-path entry
                       that names no file: a stale entry guards nothing.

  mutex-needs-annotation
                       A mutex-family member (std::mutex, std::shared_mutex,
                       core::Mutex, ...) or condition_variable declared in
                       src/ without the compile-time concurrency contract:
                       the file must include core/thread_annotations.hpp,
                       and every mutex must be referenced by at least one
                       GEONAS_GUARDED_BY / GEONAS_PT_GUARDED_BY so Clang
                       Thread Safety Analysis (the analyze preset) has a
                       capability to check. Locks whose guarded state
                       cannot carry the attribute (stack-captured locals)
                       carry reasoned suppressions naming that state.

  raw-socket-outside-net
                       BSD socket headers (<sys/socket.h>, <netinet/*>,
                       <arpa/inet.h>, <poll.h>, <netdb.h>, <sys/un.h>) or
                       raw socket syscalls (::socket/::bind/::connect/
                       ::recv/::send/::poll/...) in src/ outside
                       src/hpc/net/ — all wire I/O goes through the
                       net::Socket/TcpListener/poll_sockets wrappers so
                       EINTR retries, SIGPIPE suppression, and
                       nonblocking semantics are handled exactly once.
                       Tests and tools use the wrappers too, but are not
                       linted (they may exercise failure modes directly).

  float-eq-in-tests    EXPECT_EQ/ASSERT_EQ with a floating-point literal
                       as a top-level macro argument in tests/ — compare
                       with EXPECT_NEAR / EXPECT_DOUBLE_EQ, or suppress
                       when bitwise equality is the point (sentinels,
                       determinism checks).

  todo-owner           Every TODO carries an owner tag: TODO(name): ...
                       Ownerless TODOs rot.

Suppression: append  // geonas-lint: allow(<rule>) <reason>  to the
offending line, or put it on its own comment line directly above.
A suppression without a reason is itself a finding.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_EXTENSIONS = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

ALLOW_RE = re.compile(r"//\s*geonas-lint:\s*allow\(([a-z-]+)\)\s*(.*)")
TODO_RE = re.compile(r"\bTODO\b")
TODO_OWNER_RE = re.compile(r"\bTODO\(\w[\w./-]*\)")
THREAD_RE = re.compile(r"std::(jthread|thread|async)\b")
# std::thread::hardware_concurrency is a pure query, not thread creation.
THREAD_QUERY_RE = re.compile(r"std::thread::hardware_concurrency")
RNG_RE = re.compile(
    r"(\brand\s*\(|\bsrand\s*\(|std::random_device"
    r"|std::mt19937(?:_64)?|std::minstd_rand0?|std::default_random_engine"
    r"|std::ranlux(?:24|48)(?:_base)?)")
IOSTREAM_RE = re.compile(
    r"(#\s*include\s*<iostream>|std::(cout|cerr|clog)\b"
    r"|\bprintf\s*\(|\bfprintf\s*\(\s*std(out|err)\b)")
TRANSCENDENTAL_RE = re.compile(r"std::(tanh|exp|log)\s*\(")
# Translation units on the per-batch training hot path: all scratch must
# come from arena workspaces, never the general-purpose allocator.
HOT_PATH_FILES = {
    "src/tensor/vmath.cpp",
    "src/tensor/prepack.cpp",
    "src/nn/layer.hpp",
    "src/nn/lstm.cpp",
    "src/nn/dense.cpp",
    "src/nn/merge.cpp",
    "src/nn/graph.cpp",
}
HOT_PATH_ALLOC_RE = re.compile(
    r"\bnew\b|\bmalloc\s*\("
    r"|\.(?:push_back|emplace_back|resize|reserve|assign)\s*\(")
CHRONO_RE = re.compile(r"std::chrono\b|#\s*include\s*<chrono>")
# BSD socket surface: headers plus the global-namespace syscalls. The ::
# prefix keeps method calls like conn.bind(...) from matching.
SOCKET_HEADER_RE = re.compile(
    r"#\s*include\s*<(sys/socket\.h|netinet/[\w.]+|arpa/inet\.h"
    r"|poll\.h|netdb\.h|sys/un\.h)>")
SOCKET_CALL_RE = re.compile(
    r"(?<![\w>])::(socket|bind|listen|accept4?|connect|recv|send|sendto"
    r"|recvfrom|poll|getsockname|setsockopt|shutdown)\s*\(")
# Declaration of a mutex-family or condition-variable member/local. The
# \s+ after the type keeps core::MutexLock (a scoped guard, not a
# capability) from matching.
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?"
    r"(std::(?:recursive_|timed_|recursive_timed_)?(?:shared_)?mutex"
    r"|core::Mutex)\s+(\w+)\s*(?:;|=|\{)")
CV_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(std::condition_variable(?:_any)?)"
    r"\s+(\w+)\s*(?:;|=|\{)")
ANNOTATIONS_INCLUDE_RE = re.compile(
    r'#\s*include\s*"core/thread_annotations\.hpp"')
FLOAT_LITERAL_RE = re.compile(
    r"(?<![\w.])(\d+\.\d*(e[+-]?\d+)?|\.\d+(e[+-]?\d+)?|\d+e[+-]?\d+)f?",
    re.IGNORECASE)
EQ_MACRO_RE = re.compile(r"\b(EXPECT_EQ|ASSERT_EQ)\s*\(")
# istream member read, or extraction whose LHS is a stream-like name
# (is/ifs/in/input/stream, optionally trailing underscore / deref).
STREAM_READ_RE = re.compile(r"(?:\.|->)\s*read\s*\(")
STREAM_EXTRACT_RE = re.compile(r"\b(?:is|ifs|in|input|stream)_?\s*>>")
STREAM_CHECK_RE = re.compile(
    r"\b(?:if|throw|gcount|fail|good|require_stream|read_exact)\b")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(source: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure, so token rules never fire on prose or log text."""
    out = []
    i, n = 0, len(source)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            elif c == "\n":  # unterminated (macro line continuation etc.)
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def macro_args_have_toplevel_float(code_line: str, start: int) -> bool:
    """True when an EXPECT_EQ/ASSERT_EQ argument contains a float literal
    at parenthesis depth 0 of the argument list (a literal nested inside
    a call like row_of_lat(-95.0) is an input, not a compared value)."""
    depth = 0
    arg_chars: list[str] = []
    toplevel_chunks: list[str] = []
    i = start
    while i < len(code_line):
        c = code_line[i]
        if c == "(":
            depth += 1
            if depth == 1:
                i += 1
                continue
        elif c == ")":
            depth -= 1
            if depth == 0:
                toplevel_chunks.append("".join(arg_chars))
                break
        if depth == 1:
            arg_chars.append(c)
        i += 1
    else:
        toplevel_chunks.append("".join(arg_chars))
    # Within the argument list, blank out nested parentheses' contents.
    text = toplevel_chunks[0] if toplevel_chunks else ""
    flat = []
    nest = 0
    for c in text:
        if c == "(":
            nest += 1
            flat.append(" ")
            continue
        if c == ")":
            nest -= 1
            flat.append(" ")
            continue
        flat.append(c if nest == 0 else " ")
    return bool(FLOAT_LITERAL_RE.search("".join(flat)))


def lint_file(path: Path, repo: Path) -> list[Finding]:
    rel = path.relative_to(repo)
    rel_str = str(rel)
    in_src = rel_str.startswith("src/")
    in_tests = rel_str.startswith("tests/")
    in_hpc = rel_str.startswith("src/hpc/")
    in_net = rel_str.startswith("src/hpc/net/")
    in_obs = rel_str.startswith("src/obs/")
    in_nn = rel_str.startswith("src/nn/")
    is_reporting = rel_str.startswith("src/core/reporting.")

    raw_text = path.read_text(encoding="utf-8")
    raw_lines = raw_text.splitlines()
    code_text = strip_comments_and_strings("\n".join(raw_lines))
    code_lines = code_text.splitlines()
    # The defining header is its own "include"; everywhere else a file
    # declaring a mutex must include core/thread_annotations.hpp directly.
    has_annotations = bool(
        ANNOTATIONS_INCLUDE_RE.search(raw_text)
        or "#define GEONAS_GUARDED_BY" in raw_text)

    findings: list[Finding] = []
    carried_rule = None  # from a comment-only allow line just above
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), start=1):
        allow = ALLOW_RE.search(raw)
        allowed_rule = carried_rule
        carried_rule = None
        if allow:
            if not allow.group(2).strip():
                findings.append(Finding(
                    rel, lineno, "suppression",
                    "geonas-lint: allow(...) needs a reason after the tag"))
            if code.strip():
                allowed_rule = allow.group(1)  # trailing on a code line
            else:
                carried_rule = allow.group(1)  # comment line: covers next
                continue

        def report(rule: str, message: str) -> None:
            if rule != allowed_rule:
                findings.append(Finding(rel, lineno, rule, message))

        if in_src and not in_hpc:
            m = THREAD_RE.search(code)
            if m and not THREAD_QUERY_RE.search(code):
                report("thread-outside-hpc",
                       f"std::{m.group(1)} outside src/hpc/ — use "
                       "hpc::PoolShard / hpc::parallel_for")

        if in_src:
            m = RNG_RE.search(code)
            if m:
                report("unseeded-rng",
                       f"{m.group(1).strip()} in library code — use "
                       "geonas::Rng with an explicit seed")
            m = IOSTREAM_RE.search(code)
            if m and not is_reporting:
                report("iostream-in-library",
                       "console I/O in src/ outside core/reporting")
            m = STREAM_READ_RE.search(code) or STREAM_EXTRACT_RE.search(code)
            if m:
                # Checked when the same line or the two below mention a
                # stream-status test or a checking helper.
                window = "\n".join(code_lines[lineno - 1:lineno + 2])
                if not STREAM_CHECK_RE.search(window):
                    report("unchecked-stream-read",
                           "stream read without a visible status check — "
                           "check the stream (gcount/fail/if) or use "
                           "io::BinaryReader")

        if in_src:
            m = MUTEX_DECL_RE.match(code)
            if m:
                mutex_type, name = m.group(1), m.group(2)
                guarded_ref = re.compile(
                    r"GEONAS_(?:PT_)?GUARDED_BY\(\s*" + re.escape(name)
                    + r"\s*\)")
                if not has_annotations:
                    report("mutex-needs-annotation",
                           f"{mutex_type} '{name}' declared without "
                           "core/thread_annotations.hpp — include it and "
                           "annotate the guarded state")
                elif not guarded_ref.search(code_text):
                    report("mutex-needs-annotation",
                           f"{mutex_type} '{name}' guards nothing visible — "
                           f"add GEONAS_GUARDED_BY({name}) to the state it "
                           "protects (use core::Mutex so the analyzer sees "
                           "a capability), or suppress with the reason the "
                           "guarded state cannot carry the attribute")
            m = CV_DECL_RE.match(code)
            if m and not has_annotations:
                report("mutex-needs-annotation",
                       f"{m.group(1)} '{m.group(2)}' declared without "
                       "core/thread_annotations.hpp — waits release a "
                       "capability; include the annotations header and "
                       "annotate the paired mutex")

        if in_src and not in_net:
            m = SOCKET_HEADER_RE.search(code) or SOCKET_CALL_RE.search(code)
            if m:
                report("raw-socket-outside-net",
                       f"'{m.group(0).strip()}' outside src/hpc/net/ — wire "
                       "I/O goes through net::Socket / net::TcpListener / "
                       "net::poll_sockets")

        if in_src and not in_obs:
            m = CHRONO_RE.search(code)
            if m:
                report("chrono-outside-obs",
                       "raw std::chrono outside src/obs/ — time through "
                       "obs::monotonic_seconds / obs::StopWatch / "
                       "obs::ScopedTimer")

        if rel_str in HOT_PATH_FILES:
            m = HOT_PATH_ALLOC_RE.search(code)
            if m:
                report("hot-path-alloc",
                       f"'{m.group(0).strip()}' in a hot-path file "
                       "— carve scratch from the bound Arena "
                       "workspace, or suppress with a reason if this is "
                       "provably cold (bind/serialize/ctor)")

        if in_nn:
            m = TRANSCENDENTAL_RE.search(code)
            if m:
                report("transcendental-in-nn",
                       f"std::{m.group(1)} in src/nn/ — route per-element "
                       "math through tensor::vmath (or suppress on a scalar "
                       "reference helper with a reason)")

        if in_tests:
            for m in EQ_MACRO_RE.finditer(code):
                if macro_args_have_toplevel_float(code, m.end() - 1):
                    report("float-eq-in-tests",
                           f"{m.group(1)} compares a float literal exactly — "
                           "use EXPECT_NEAR/EXPECT_DOUBLE_EQ or suppress "
                           "with a reason if bitwise equality is intended")

        if TODO_RE.search(raw) and not TODO_OWNER_RE.search(raw):
            report("todo-owner", "TODO without an owner tag: TODO(name): ...")

    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src tests "
                             "bench examples tools)")
    parser.add_argument("--repo", default=None,
                        help="repository root (default: parent of tools/)")
    args = parser.parse_args(argv)

    repo = Path(args.repo).resolve() if args.repo else (
        Path(__file__).resolve().parent.parent)
    roots = [Path(p) for p in args.paths] if args.paths else [
        repo / "src", repo / "tests", repo / "bench", repo / "examples",
        repo / "tools"]

    files: list[Path] = []
    for root in roots:
        root = root.resolve()
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(p for p in sorted(root.rglob("*"))
                         if p.suffix in CXX_EXTENSIONS)
        else:
            print(f"geonas_lint: no such path: {root}", file=sys.stderr)
            return 2

    findings: list[Finding] = []
    if not args.paths:
        findings.extend(
            Finding(Path(entry), 0, "hot-path-alloc",
                    "HOT_PATH_FILES names this file, which does not exist")
            for entry in sorted(HOT_PATH_FILES)
            if not (repo / entry).is_file())
    for f in files:
        try:
            findings.extend(lint_file(f, repo))
        except ValueError:
            print(f"geonas_lint: {f} is outside the repo root {repo}",
                  file=sys.stderr)
            return 2

    for finding in findings:
        print(finding)
    if findings:
        print(f"geonas_lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"geonas_lint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
