#!/usr/bin/env python3
"""bench_diff — the bench regression gate (DESIGN.md "Memory model").

Compares two google-benchmark JSON captures (the committed baseline,
e.g. BENCH_kernels.json, against a fresh run) and fails when any
benchmark's time regresses by more than the threshold:

  tools/bench_diff.py BASELINE.json CANDIDATE.json [--threshold 0.05]
  tools/bench_diff.py --dry-run [BASELINE.json]

Per benchmark the compared value is the median cpu_time: aggregate
entries named "median" win when present (--benchmark_repetitions runs),
otherwise the median over that benchmark's iteration entries (a single
entry is its own median).

Benchmarks present in only one capture are classified, not ignored:

  added    candidate-only — informational. New benchmarks land together
           with a fresh baseline; reporting them keeps the refresh honest
           without blocking the PR that introduces them.
  removed  baseline-only — a FAILURE unless --allow-removed. A benchmark
           silently vanishing from the candidate is how a rename or a
           broken registration deletes coverage without anyone noticing;
           deliberate removals pass --allow-removed alongside the
           baseline refresh.

Captures carry the host shape they were measured on (context fields
geonas_host_cpus / geonas_kernel_threads / geonas_native_arch, stamped
by the bench mains). When both captures carry a field and the values
differ, the comparison is REFUSED: cross-host medians gate nothing.
--allow-host-mismatch overrides for eyeballing; captures predating the
stamping simply lack the fields and are not blocked.

The failing bound is noise-aware: each benchmark's gate is

  threshold + noise_mult * (cv_baseline + cv_candidate)

where cv is the capture's own coefficient-of-variation aggregate
(present when the capture used --benchmark_repetitions; 0 otherwise).
On a shared box, two honest captures of identical code drift by several
percent run-to-run; a flat 5% cut would flag that drift as regression,
so the gate widens exactly where the measurements themselves are shown
to be unstable while staying tight for low-variance kernels.

--dry-run gates the tooling instead of the numbers: it first runs the
built-in unit self-check (synthetic captures exercising the regression,
added, removed and --allow-removed paths), then diffs the baseline
against itself (every delta must come out 0.0%, nothing added or
removed) and exits 0 unless the capture is malformed or the tooling
itself misbehaves. run_checks.sh --quick uses it so a broken baseline or
a comparator regression is caught pre-merge without a release bench run.

Exit status: 0 within threshold, 1 regression/removed benchmark (or
malformed input), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

Stats = dict[str, tuple[float, float]]

# Host-shape context fields stamped by the bench mains
# (bench/bench_host_context.hpp, and the kernel names beside the build
# type). Two captures are only comparable when these agree: medians move
# with core count, kernel thread pinning, the -march the kernels were
# tuned for, and the vmath backend and GEMM micro-kernels the CPU picked.
HOST_KEYS = ("geonas_host_cpus", "geonas_kernel_threads",
             "geonas_native_arch", "geonas_vmath_backend",
             "geonas_gemm_kernel")


def load_capture(path: Path) -> tuple[Stats, dict[str, str]]:
    """(benchmark run_name -> (median cpu_time ns, cv fraction),
    host-context fields present in the capture)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    context = doc.get("context") or {}
    host = {key: str(context[key]) for key in HOST_KEYS if key in context}
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise ValueError(f"{path}: no 'benchmarks' array")

    aggregates: dict[str, float] = {}
    cvs: dict[str, float] = {}
    iterations: dict[str, list[float]] = {}
    for entry in benchmarks:
        name = entry.get("run_name") or entry.get("name")
        time = entry.get("cpu_time", entry.get("real_time"))
        if name is None or time is None:
            raise ValueError(f"{path}: benchmark entry without name/time")
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                aggregates[name] = float(time)
            elif entry.get("aggregate_name") == "cv":
                cvs[name] = float(time)  # stored as a fraction, not percent
        else:
            iterations.setdefault(name, []).append(float(time))

    medians = {name: statistics.median(ts) for name, ts in iterations.items()}
    medians.update(aggregates)  # repetition medians are authoritative
    stats = {name: (med, cvs.get(name, 0.0))
             for name, med in medians.items()}
    return stats, host


def host_mismatches(base_host: dict[str, str],
                    cand_host: dict[str, str]) -> list[tuple[str, str, str]]:
    """Host-context fields present in BOTH captures with differing
    values. Fields absent from either side are skipped: captures
    predating the stamping carry none, and refusing those would block
    every baseline refresh that introduces the fields."""
    return [(key, base_host[key], cand_host[key])
            for key in HOST_KEYS
            if key in base_host and key in cand_host
            and base_host[key] != cand_host[key]]


class DiffResult:
    """Outcome of one baseline/candidate comparison (pure, testable)."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, float, float, float, float]] = []
        self.regressions: list[str] = []
        self.added: list[str] = []    # candidate only — informational
        self.removed: list[str] = []  # baseline only — gate failure

    @property
    def shared(self) -> list[str]:
        return [row[0] for row in self.rows]


def diff_captures(base: Stats, cand: Stats, threshold: float,
                  noise_mult: float) -> DiffResult:
    """Classifies every benchmark across the two captures. Rows carry
    (name, base_median, cand_median, delta, gate) for shared names."""
    result = DiffResult()
    result.added = sorted(set(cand) - set(base))
    result.removed = sorted(set(base) - set(cand))
    for name in sorted(set(base) & set(cand)):
        base_med, base_cv = base[name]
        cand_med, cand_cv = cand[name]
        ratio = cand_med / base_med if base_med > 0.0 else 1.0
        delta = ratio - 1.0
        gate = threshold + noise_mult * (base_cv + cand_cv)
        result.rows.append((name, base_med, cand_med, delta, gate))
        if delta > gate:
            result.regressions.append(name)
    return result


def self_check() -> list[str]:
    """Unit check of the comparator on synthetic captures; returns the
    list of failed assertions (empty = healthy)."""
    base: Stats = {"steady": (100.0, 0.0), "noisy": (100.0, 0.02),
                   "gone": (50.0, 0.0)}
    cand: Stats = {"steady": (110.0, 0.0), "noisy": (110.0, 0.02),
                   "fresh": (10.0, 0.0)}
    r = diff_captures(base, cand, threshold=0.05, noise_mult=3.0)

    failures: list[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    expect(r.shared == ["noisy", "steady"], "shared set mismatch")
    # steady: +10% past a 5% gate -> regression.
    expect("steady" in r.regressions, "flat 10% regression not flagged")
    # noisy: same +10%, but gate widens to 5% + 3*(2%+2%) = 17% -> passes.
    expect("noisy" not in r.regressions, "noise allowance not applied")
    expect(r.added == ["fresh"], "candidate-only benchmark not 'added'")
    expect(r.removed == ["gone"], "baseline-only benchmark not 'removed'")
    # A self-diff must be exact: no drift, nothing added or removed.
    rr = diff_captures(base, base, threshold=0.05, noise_mult=3.0)
    expect(not rr.regressions and not rr.added and not rr.removed
           and all(row[3] == 0.0 for row in rr.rows),
           "self-diff is not a fixed point")

    # Host-mismatch refusal: differing values on a shared key flag, a
    # key missing from either side does not (pre-stamping baselines).
    this_host = {"geonas_host_cpus": "8", "geonas_kernel_threads": "8",
                 "geonas_native_arch": "off"}
    other_host = {"geonas_host_cpus": "64", "geonas_kernel_threads": "8",
                  "geonas_native_arch": "on"}
    mism = host_mismatches(this_host, other_host)
    expect([m[0] for m in mism] == ["geonas_host_cpus",
                                    "geonas_native_arch"],
           "host mismatch not detected on differing fields")
    expect(host_mismatches(this_host, this_host) == [],
           "identical hosts reported as mismatched")
    expect(host_mismatches({}, this_host) == [],
           "unstamped baseline blocked by host check")
    # The kernel names: a capture from another GEMM kernel set flags; one
    # from before the stamp (the field missing) does not.
    avx512 = dict(this_host, geonas_vmath_backend="avx2-fma",
                  geonas_gemm_kernel="avx512f-8x16")
    avx2 = dict(avx512, geonas_gemm_kernel="avx2-fma-4x8")
    expect([m[0] for m in host_mismatches(avx512, avx2)]
           == ["geonas_gemm_kernel"],
           "GEMM kernel mismatch not detected")
    unstamped = {k: v for k, v in avx512.items() if k != "geonas_gemm_kernel"}
    expect(host_mismatches(unstamped, avx2) == [],
           "capture without a GEMM kernel stamp blocked by host check")
    return failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], add_help=True)
    parser.add_argument("baseline", nargs="?", default="BENCH_kernels.json",
                        help="baseline capture (default: BENCH_kernels.json)")
    parser.add_argument("candidate", nargs="?", default=None,
                        help="fresh capture to gate (omitted with --dry-run)")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="failing median regression fraction "
                             "(default: 0.05 = 5%%)")
    parser.add_argument("--noise-mult", type=float, default=3.0,
                        help="widen each benchmark's gate by this multiple "
                             "of the captures' summed cv aggregates "
                             "(default: 3.0; 0 disables the allowance)")
    parser.add_argument("--allow-removed", action="store_true",
                        help="report baseline-only benchmarks without "
                             "failing (deliberate removals landing with a "
                             "baseline refresh)")
    parser.add_argument("--allow-host-mismatch", action="store_true",
                        help="compare captures from different hosts "
                             "anyway (the refusal exists because medians "
                             "move with core count / kernel threads / "
                             "-march; only meaningful for eyeballing, "
                             "never for the gate)")
    parser.add_argument("--dry-run", action="store_true",
                        help="run the comparator self-check, then self-diff "
                             "the baseline to validate the capture; never "
                             "fails on timing")
    args = parser.parse_args(argv)

    baseline_path = Path(args.baseline)
    if args.dry_run:
        check_failures = self_check()
        if check_failures:
            for failure in check_failures:
                print(f"bench_diff: self-check FAILED: {failure}",
                      file=sys.stderr)
            return 1
        candidate_path = baseline_path
    elif args.candidate is None:
        parser.error("candidate capture required unless --dry-run")
    else:
        candidate_path = Path(args.candidate)

    try:
        base, base_host = load_capture(baseline_path)
        cand, cand_host = load_capture(candidate_path)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"bench_diff: {err}", file=sys.stderr)
        return 1

    mismatches = host_mismatches(base_host, cand_host)
    if mismatches:
        for key, base_val, cand_val in mismatches:
            print(f"bench_diff: host mismatch: {key}: baseline "
                  f"{base_val!r} vs candidate {cand_val!r}",
                  file=sys.stderr)
        if not args.allow_host_mismatch:
            print("bench_diff: refusing a cross-host comparison — medians "
                  "from different machines/kernel configs are not "
                  "comparable (pass --allow-host-mismatch to eyeball "
                  "anyway)", file=sys.stderr)
            return 1
        print("bench_diff: continuing despite host mismatch "
              "(--allow-host-mismatch)", file=sys.stderr)

    result = diff_captures(base, cand, args.threshold, args.noise_mult)
    if not result.rows:
        print("bench_diff: captures share no benchmarks", file=sys.stderr)
        return 1

    width = max(len(n) for n in
                result.shared + result.added + result.removed)
    print(f"{'benchmark'.ljust(width)}  {'baseline':>12}  "
          f"{'candidate':>12}  {'delta':>8}")
    for name, base_med, cand_med, delta, gate in result.rows:
        flag = ""
        if name in result.regressions:
            flag = f"  << REGRESSION (gate {gate:+.1%})"
        print(f"{name.ljust(width)}  {base_med:>10.0f}ns  "
              f"{cand_med:>10.0f}ns  {delta:>+7.1%}{flag}")
    for name in result.removed:
        verdict = "allowed" if args.allow_removed else "<< FAILURE"
        print(f"{name.ljust(width)}  removed (baseline only)  {verdict}")
    for name in result.added:
        print(f"{name.ljust(width)}  added (candidate only)  informational")

    if args.dry_run:
        drifted = [name for name, _, _, delta, _ in result.rows
                   if delta != 0.0]
        if drifted or result.added or result.removed:
            # Self-diff must be a fixed point; anything else is a bug here.
            print(f"bench_diff: self-diff drift on "
                  f"{drifted or result.added or result.removed}",
                  file=sys.stderr)
            return 1
        print(f"bench_diff: dry run ok (self-check passed, "
              f"{len(result.rows)} benchmarks, baseline {baseline_path})",
              file=sys.stderr)
        return 0

    failed = False
    if result.regressions:
        print(f"bench_diff: {len(result.regressions)} benchmark(s) regressed "
              f"past {args.threshold:.0%} + noise allowance: "
              f"{', '.join(result.regressions)}", file=sys.stderr)
        failed = True
    if result.removed and not args.allow_removed:
        print(f"bench_diff: {len(result.removed)} benchmark(s) in the "
              f"baseline are missing from the candidate: "
              f"{', '.join(result.removed)} (pass --allow-removed if the "
              "removal is deliberate)", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"bench_diff: {len(result.rows)} benchmarks within "
          f"{args.threshold:.0%} (+ noise allowance) of baseline"
          + (f"; {len(result.added)} added" if result.added else "")
          + (f"; {len(result.removed)} removed (allowed)"
             if result.removed else ""),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
