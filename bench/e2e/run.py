#!/usr/bin/env python3
"""geonas end-to-end benchmark: builds the driver, runs workloads, checks outputs.

  python3 bench/e2e/run.py [--trace 0|1]
      Every workload once (seed 1). Prints every end-to-end metric with its
      unit, and with --trace 1 every per-layer metric from a second, traced
      run; exits 1 if any output check fails.
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      One workload, as above. The last line of stdout is one JSON object
      with correct/attempted/failed/metrics: the end-to-end metrics of
      BENCHMARK.json, or with --trace 1 its per-layer metrics.
  python3 bench/e2e/run.py --repeat-check N
      Two sets of N runs per workload (seeds 1..N), alternating which set
      runs first. Prints median, q1, q3 and n of every gated metric per set;
      exits 1 when a set's spread or the change between the two medians
      exceeds the metric's bound.

  --save FILE writes every result record of the invocation; --compare BASE
  compares this invocation's medians with a saved BASE and exits 1 on a
  regression beyond a bound. Comparisons refuse results from another host
  shape or build.

The driver is built with the release preset (build-release/bench-e2e/
geonas_e2e, added to that build by register.cmake) and rebuilt whenever the
sources change. Traced runs write <workload>.telemetry.json (spans and
instruments) next to it, under trace/.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-release" / "bench-e2e"
BINARY = BUILD / "geonas_e2e"
WORKLOADS = ["emulator-build", "nas-campaign", "serve-open", "serve-burst"]
# Reported next to the gated metrics but not gated (see README.md).
EXTRAS = ["p90_ms", "p99_ms", "gen_late_p99_ms"]
HOST_KEYS = ["build_type", "vmath_backend", "native_arch", "host_cpus",
             "kernel_threads"]
DRIVER_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_digest():
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", ROOT / "CMakePresets.json",
             ROOT / "bench" / "bench_common.hpp"]
    for base in (ROOT / "src", HERE):
        files += sorted(p for p in base.rglob("*") if p.is_file()
                        and p.suffix in (".cpp", ".hpp", ".txt", ".cmake"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():  # a plain checkout, not a clone
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    """Configures the release preset with bench/e2e added and builds the
    driver; returns the source digest."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no geonas sources under {ROOT}; "
                 "run from a full checkout")
    digest = source_digest()
    stamp = BUILD / "source.digest"
    if BINARY.is_file() and stamp.is_file() and stamp.read_text() == digest:
        return digest
    jobs = str(min(4, os.cpu_count() or 1))
    hook = HERE / "register.cmake"
    for cmd in (["cmake", "--preset", "release",
                 f"-DCMAKE_PROJECT_geonas_INCLUDE={hook}"],
                ["cmake", "--build", "--preset", "release",
                 "--target", "geonas_e2e", "-j", jobs]):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: building geonas_e2e failed")
    stamp.write_text(digest)
    return digest


def run_driver(workload, seed, seconds, digest, traced=False):
    """One driver process; returns its result record (None if it crashed)."""
    kind = "traced" if traced else "plain"
    out = BUILD / "results" / f"{workload}-s{seed}-{kind}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--out", str(out)]
    if traced:
        cmd += ["--trace", str(BUILD / "trace")]
    try:
        code = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} timed out")
        return None
    if not out.is_file():
        log(f"run.py: {workload} seed {seed} exited {code} without a result")
        return None
    rec = json.loads(out.read_text())
    rec["exit"] = code
    rec["provenance"].update(commit=git_commit(), source_digest=digest)
    return rec


def correct(rec):
    return (rec is not None and rec["exit"] == 0 and rec["failed"] == 0
            and all(rec["checks"].values()))


def pick(rec, key, names):
    """The named metrics of a record; a missing one is a driver bug."""
    missing = [n for n in names if n not in rec[key]]
    if missing:
        sys.exit(f"run.py: {rec['workload']} did not report {missing}")
    return {n: rec[key][n] for n in names}


def print_record(rec, key, names):
    log(f"== {rec['workload']} (seed {rec['provenance']['seed']}, "
        f"one op = {rec['op']}{', traced' if key == 'layers' else ''}) ==")
    for name in names:
        m = rec[key][name]
        print(f"  {rec['workload']:<15} {name:<34} {m['value']:.6g} {m['unit']}")
    for check, ok in rec["checks"].items():
        print(f"  {rec['workload']:<15} check {check}: {'ok' if ok else 'FAILED'}")
    fail_frac = rec["failed"] / max(rec["attempted"], 1)
    info = " ".join(f"{k}={v}" for k, v in rec["info"].items())
    print(f"  {rec['workload']:<15} attempted {rec['attempted']} failed "
          f"{rec['failed']} fail_frac {fail_frac:.6g}  {info}")


def run_workload(bench, workload, seed, seconds, digest, trace):
    """A plain run of one workload and, with `trace`, a traced run of the
    same inputs. Prints both; returns (records, metrics, ok), where metrics
    are the end-to-end ones, or the per-layer ones with `trace`, and None
    when a run produced no result."""
    plain = run_driver(workload, seed, seconds, digest)
    if plain is None:
        return [], None, False
    names = [m["name"] for m in bench["end_to_end"]]
    print_record(plain, "metrics",
                 names + [n for n in EXTRAS if n in plain["metrics"]])
    metrics = pick(plain, "metrics", names)
    records = [plain]
    if trace:
        traced = run_driver(workload, seed, seconds, digest, traced=True)
        if traced is None:
            return records, None, False
        records.append(traced)
        # Traced over untraced time per operation, minus one.
        traced["layers"]["trace.overhead_frac"] = {
            "value": traced["metrics"]["op_ms"]["value"] /
            plain["metrics"]["op_ms"]["value"] - 1.0, "unit": "frac"}
        names = [m["name"] for m in bench["per_layer"]]
        print_record(traced, "layers", names)
        metrics = pick(traced, "layers", names)
    return records, metrics, all(correct(r) for r in records)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, base, new):
    """Relative change of `new` against `base` in the metric's worse direction."""
    change = (new - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def check_host(base, new):
    a = {k: base["provenance"][k] for k in HOST_KEYS}
    b = {k: new["provenance"][k] for k in HOST_KEYS}
    if a != b:
        sys.exit(f"run.py: refusing to compare results from different hosts "
                 f"or builds: {a} vs {b}")


def compare(bench, base_recs, new_recs, label=("base", "new")):
    """Per workload and gated metric: median/q1/q3/n of both sides, the
    spread of each side and the change between the medians. Returns the
    list of failures."""
    failures = []
    for w in WORKLOADS:
        a = [r for r in base_recs if r and r["workload"] == w]
        b = [r for r in new_recs if r and r["workload"] == w]
        if not a or not b:
            continue
        check_host(a[0], b[0])
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row = [f"{w:<15} {name:<12}"]
            medians = []
            for tag, recs in zip(label, (a, b)):
                vals = [r["metrics"][name]["value"] for r in recs]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / abs(med) if med else float("inf")
                medians.append(med)
                row.append(f"{tag}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                           f"n {len(vals)} spread {spread:.4f}")
                if name != "setup_s" and len(vals) > 1 and spread > bound:
                    failures.append(f"{w} {name} {tag} spread {spread:.4f} "
                                    f"> bound {bound}")
                elif name != "setup_s" and spread > bound / 3:
                    row.append("(spread above bound/3)")
            worse = worse_by(m, medians[0], medians[1])
            row.append(f"worse by {worse:+.4f} (bound {bound})")
            if worse > bound:
                failures.append(f"{w} {name} worse by {worse:.4f} > bound {bound}")
            print("  " + "  ".join(row))
    return failures


def digests_agree(records):
    """nas-campaign: one seed must always train the same architecture set."""
    seen = {}
    ok = True
    for r in records:
        if r and r["workload"] == "nas-campaign":
            key = r["provenance"]["seed"]
            d = r["info"]["arch_set_digest"]
            if seen.setdefault(key, d) != d:
                log(f"run.py: nas-campaign seed {key}: arch-set digest "
                    f"{d} != {seen[key]}")
                ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat-check", type=int, metavar="N")
    ap.add_argument("--save", type=Path)
    ap.add_argument("--compare", type=Path, metavar="BASE")
    args = ap.parse_args()
    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    digest = build()

    if args.workload:
        records, metrics, ok = run_workload(
            bench, args.workload, args.seed, args.seconds, digest, args.trace)
        if metrics is None:
            return 1
        print(json.dumps({"correct": ok, "attempted": records[0]["attempted"],
                          "failed": records[0]["failed"], "metrics": metrics}))
        return 0 if ok else 1

    records = []
    ok = True
    if args.repeat_check:
        sets = ([], [])
        for i in range(args.repeat_check):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                for w in WORKLOADS:
                    rec = run_driver(w, i + 1, args.seconds, digest)
                    sets[s].append(rec)
                    ok = ok and correct(rec)
        records = sets[0] + sets[1]
        failures = compare(bench, sets[0], sets[1], label=("set1", "set2"))
        for f in failures:
            print(f"  FAIL {f}")
        ok = ok and not failures and digests_agree(records)
    else:
        for w in WORKLOADS:
            recs, _, good = run_workload(bench, w, args.seed, args.seconds,
                                         digest, args.trace)
            records += recs
            ok = ok and good
    if args.save:
        args.save.write_text(json.dumps(records, indent=1))
    if args.compare:
        def plain(recs):
            return [r for r in recs if r and not r["provenance"]["traced"]]
        base = json.loads(args.compare.read_text())
        failures = compare(bench, plain(base), plain(records))
        for f in failures:
            print(f"  FAIL {f}")
        ok = ok and not failures
    print("e2e: passed" if ok else "e2e: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
