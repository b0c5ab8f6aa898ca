#!/usr/bin/env python3
"""Same-machine measurements with the benchmark.

  spread   run each workload on N seeds in this tree; print each end-to-end
           metric's median and quartile spread against its bound (the
           steadiness rule: spread within the bound, ideally below a third).
  compare  build a base commit next to this tree and alternate base and
           head runs for >= 10 pairs per workload (pair i uses seed i + 1 on
           both sides, and the side that runs first alternates); print each
           workload x end-to-end metric with medians, quartiles, the head's
           win fraction and a verdict (better / worse / same / unresolved;
           see stats.verdict).
  record   write the deterministic values of the given seeds to
           perfbench/expected.json, which every later run checks exactly.

The base tree is `git archive REV` unpacked under --scratch, with this
tree's perfbench/ and BENCHMARK.json copied over it, so both sides run
identical benchmark code. Each side builds into its own .bench_build
(CARGO_TARGET_DIR is overridden per side), and run.py refuses a build
directory configured from another tree.
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def load_spec(root=ROOT):
    return json.loads((root / "BENCHMARK.json").read_text())


def run_once(tree, workload, seed, seconds, trace=0):
    """One benchmark run in `tree`, built into `tree`/.bench_build whatever
    CARGO_TARGET_DIR says; returns its result line."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(tree / ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"ab.py: run failed in {tree} ({workload}, seed "
                         f"{seed}), exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  warning: {workload} seed {seed} in {tree}: "
              f"{result['failed']} of {result['attempted']} failed")
    return result


def value(result, name):
    return result["metrics"][name]["value"]


def workloads_arg(spec, names):
    all_names = [w["name"] for w in spec["workloads"]]
    if not names:
        return all_names
    unknown = [n for n in names if n not in all_names]
    if unknown:
        raise SystemExit(f"ab.py: unknown workloads {unknown}")
    return names


def cmd_spread(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    for workload in workloads_arg(spec, args.workloads):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(ROOT, workload, seed, seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m['name']}={value(runs[-1], m['name']):.5g}"
                for m in spec["end_to_end"]), flush=True)
        print(f"\n{workload}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            vals = [value(r, m["name"]) for r in runs]
            spread = stats.relative_spread(vals)
            mark = ("ok" if spread < m["bound"] / 3 else
                    "within bound" if spread <= m["bound"] else "OVER")
            print(f"  {m['name']:<20} {stats.quartiles(vals)[1]:>12.5g} "
                  f"{spread:>8.4f} {m['bound']:>6} {mark}")
        print(flush=True)


def materialize(rev, dest):
    """Unpacks `rev` into `dest` and overlays this tree's benchmark."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    spec = load_spec()
    for path in spec["paths"]:
        if (dest / path).exists():
            shutil.rmtree(dest / path)
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def cmd_compare(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    scratch = Path(args.scratch).resolve()
    base = scratch / "base"
    materialize(args.base, base)
    if args.head == ".":
        head = ROOT
    else:
        head = scratch / "head"
        materialize(args.head, head)
    sides = {"base": base, "head": head}
    for workload in workloads_arg(spec, args.workloads):
        results = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                results[side].append(
                    run_once(sides[side], workload, i + 1, seconds))
            print(f"{workload} pair {i + 1}/{args.pairs} done", flush=True)
        print(f"\n{workload}: {args.pairs} pairs, {seconds} s runs "
              f"(base {args.base}, head {args.head})")
        print(f"  {'metric':<20} {'base median [q1, q3]':<34} "
              f"{'head median [q1, q3]':<34} {'delta':>7} {'wins':>6} "
              f"verdict")
        for m in spec["end_to_end"]:
            b = [value(r, m["name"]) for r in results["base"]]
            h = [value(r, m["name"]) for r in results["head"]]
            bq, hq = stats.quartiles(b), stats.quartiles(h)
            delta = stats.worse_by(bq[1], hq[1], "lower")  # head vs base
            wins = stats.head_wins(b, h, m["better"])
            base_col = f"{bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]"
            head_col = f"{hq[1]:.5g} [{hq[0]:.5g}, {hq[2]:.5g}]"
            print(f"  {m['name']:<20} {base_col:<34} {head_col:<34} "
                  f"{delta:>+7.2%} {wins / len(b):>6.0%} "
                  f"{stats.verdict(b, h, m['better'], m['bound'])}")
        failed = sum(r["failed"] for rs in results.values() for r in rs)
        print(f"  failed operations: {failed}\n", flush=True)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_record(args):
    spec = load_spec()
    from run import build, build_dir
    binary = build(build_dir())
    path = HERE / "expected.json"
    expected = json.loads(path.read_text())
    for workload in workloads_arg(spec, args.workloads):
        table = expected.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [str(binary), "--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            if report["failed"]:
                raise SystemExit(f"ab.py: {workload} seed {seed} failed: "
                                 f"{report['failures']}")
            table[str(seed)] = report["deterministic"]
            print(f"{workload} seed {seed}: recorded", flush=True)
        expected[workload] = dict(sorted(table.items(), key=lambda kv:
                                         int(kv[0])))
        path.write_text(json.dumps(expected, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--first-seed", type=int, default=1)
    sp.add_argument("--seconds", type=float)
    sp.add_argument("workloads", nargs="*")
    cp = sub.add_parser("compare")
    cp.add_argument("--base", required=True, help="git revision")
    cp.add_argument("--head", default=".",
                    help="git revision, or . for this working tree")
    cp.add_argument("--pairs", type=int, default=10)
    cp.add_argument("--seconds", type=float)
    cp.add_argument("--scratch", default=str(ROOT / ".bench_ab"))
    cp.add_argument("workloads", nargs="*")
    rp = sub.add_parser("record")
    rp.add_argument("--seeds", required=True, help="e.g. 1-40 or 1,5,9")
    rp.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    if args.cmd == "compare" and args.pairs < 10:
        raise SystemExit("ab.py: compare needs at least 10 pairs")
    {"spread": cmd_spread, "compare": cmd_compare, "record": cmd_record}[
        args.cmd](args)


if __name__ == "__main__":
    main()
