#!/usr/bin/env python3
"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt: the rpcg library plus
perfbench/src) into $CARGO_TARGET_DIR or .bench_build, runs one workload
for S seconds on inputs made from the seed, checks every result, and prints
as its last line {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. The full report, with the machine fingerprint, goes to
.bench_out/<workload>-seed<N>-trace<T>.json; a traced run also writes a
Chrome trace-event file there and the tracing overhead (traced minus
untraced value of each end-to-end metric, when an untraced report of the
same workload and seed exists).
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from report import check_trace, fingerprint  # noqa: E402

# The run must end well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def cached_source_dir(out_dir):
    """The source directory `out_dir` was configured from, or None."""
    cache = out_dir / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]).resolve()
    return None


def build(out_dir):
    """Configures once and builds; returns the harness binary. Refuses a
    build directory configured from another tree, which would build that
    tree's sources."""
    out_dir.mkdir(parents=True, exist_ok=True)
    log = out_dir / "build.log"
    with open(out_dir / "build.lock", "w") as lock, open(log, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        source = cached_source_dir(out_dir)
        if source is not None and source != HERE:
            raise SystemExit(f"run.py: {out_dir} builds {source}, not {HERE}; "
                             "point CARGO_TARGET_DIR elsewhere")
        steps = []
        if source is None:
            steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out_dir), "--target",
                      "perfbench", "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                raise SystemExit(f"run.py: build failed (log: {log})")
    return out_dir / "perfbench"


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "cmake", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise SystemExit(f"run.py: no rpcg sources under {ROOT}/src; run the "
                         "benchmark from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}")

    binary = build(build_dir())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    trace_file = out_dir / f"trace-{stem}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--expected", str(HERE / "expected.json")]
    if args.trace:
        cmd += ["--trace-out", str(trace_file)]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True,
            timeout=max(1.0, RUN_DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        raise SystemExit("run.py: the workload overran its deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"run.py: perfbench exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    failed = report["failed"]
    failures = list(report["failures"])
    if args.trace:
        problem = check_trace(trace_file)
        if problem:
            failed += 1
            failures.append(f"trace file: {problem}")

    kind = "per_layer" if args.trace else "end_to_end"
    measured = report[kind]
    missing = [m["name"] for m in spec[kind] if m["name"] not in measured]
    if missing:
        raise SystemExit(f"run.py: workload did not measure {missing}")

    report["fingerprint"] = fingerprint(ROOT, report.pop("build"))
    report["fingerprint"]["source_digest"] = source_digest()
    report["failed"] = failed
    report["failures"] = failures
    report["error_rate"] = failed / max(1, report["attempted"])
    if args.trace:
        untraced = out_dir / f"{stem}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["end_to_end"]
            report["tracing_overhead"] = {
                name: report["end_to_end"][name]["value"] - m["value"]
                for name, m in base.items() if name in report["end_to_end"]}
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    fp = report["fingerprint"]
    print(f"fingerprint: {fp['cpu_model']}, nproc {fp['nproc']}, "
          f"{fp['compiler']} {fp['build_type']}, git {fp['git_sha']}, "
          f"sources {fp['source_digest']}")
    print(f"{args.workload} seed {args.seed}: {report['attempted']} attempted, "
          f"{failed} failed (error_rate {report['error_rate']:.4g})")
    for why in failures:
        print(f"  miss: {why}")
    for name, m in measured.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, share in report.get("shares", {}).items():
        print(f"  share {name} = {share:.3f}")
    for name, d in report.get("tracing_overhead", {}).items():
        print(f"  tracing overhead {name} = {d:+.6g}")
    result = {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {m["name"]: measured[m["name"]] for m in spec[kind]},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
