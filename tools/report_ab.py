#!/usr/bin/env python3
"""Field-by-field A/B of rpcg-cli solve reports between two builds.

usage: report_ab.py BASE_CLI CHANGE_CLI [--keep DIR]

Runs every registered solver key (plus the recovery methods, overlapping
"during-recovery" scenarios, and depth-2 pipelining of both pipelined CG
and pipelined CR, whose chain adds the zeta/xi rungs) through `rpcg-cli solve`
with both binaries and compares the two rpcg-solve-report documents field by
field. Only `wall_seconds` (host time) is ignored; a field missing on one
side counts as a difference. A run that fails compares its exit code and
error text instead. Prints one line per case and exits 1 when any field
differs, so a refactor that must not move a single simulated second can be
checked with

    python3 tools/report_ab.py parent/build/tools/cli/rpcg-cli \\
        build/tools/cli/rpcg-cli

Running it with the same binary on both sides must report 0 differing
fields (the ctest `tools.report_ab` does exactly that).
"""
import json
import os
import subprocess
import sys

BASE = ["--matrix", "M1", "--scale", "64", "--nodes", "16"]
# A generated chain of overlapping failures: several events strike the same
# iteration, each during the recovery of the previous ones.
DURING_RECOVERY = ["--scenario", "during-recovery", "--scenario-seed", "5",
                   "--scenario-events", "3", "--scenario-nodes", "1",
                   "--scenario-horizon", "12"]
FAILURES = ["--failures", "10:3:2"]

CASES = [
    ("pcg", ["--solver", "pcg"]),
    ("resilient-pcg-esr",
     ["--solver", "resilient-pcg", "--recovery", "esr", "--phi", "2"] + FAILURES),
    ("resilient-pcg-esr-during-recovery",
     ["--solver", "resilient-pcg", "--recovery", "esr", "--phi", "3"]
     + DURING_RECOVERY),
    ("resilient-pcg-checkpoint-restart",
     ["--solver", "resilient-pcg", "--recovery", "checkpoint-restart",
      "--checkpoint-interval", "10", "--failures", "15:3:2"]),
    ("resilient-pcg-checkpoint-restart-during-recovery",
     ["--solver", "resilient-pcg", "--recovery", "checkpoint-restart",
      "--checkpoint-interval", "4"] + DURING_RECOVERY),
    ("resilient-pcg-interpolation-restart",
     ["--solver", "resilient-pcg", "--recovery", "interpolation-restart"]
     + FAILURES),
    ("resilient-pcg-interpolation-restart-during-recovery",
     ["--solver", "resilient-pcg", "--recovery", "interpolation-restart"]
     + DURING_RECOVERY),
    ("checkpoint-recovery",
     ["--solver", "checkpoint-recovery", "--checkpoint-interval", "10",
      "--checkpoint-medium", "disk", "--failures", "15:3:2"]),
    ("checkpoint-recovery-during-recovery",
     ["--solver", "checkpoint-recovery", "--checkpoint-interval", "4"]
     + DURING_RECOVERY),
    ("twin-pcg", ["--solver", "twin-pcg"] + FAILURES),
    ("twin-pcg-during-recovery", ["--solver", "twin-pcg"] + DURING_RECOVERY),
    ("pipelined-pcg", ["--solver", "pipelined-pcg"]),
    ("pipelined-pcg-d2", ["--solver", "pipelined-pcg", "--pipeline-depth", "2"]),
    ("pipelined-resilient-pcg",
     ["--solver", "pipelined-resilient-pcg", "--phi", "2"] + FAILURES),
    ("pipelined-resilient-pcg-during-recovery",
     ["--solver", "pipelined-resilient-pcg", "--phi", "3"] + DURING_RECOVERY),
    ("pipelined-resilient-pcg-d2",
     ["--solver", "pipelined-resilient-pcg", "--phi", "2",
      "--pipeline-depth", "2"] + FAILURES),
    ("pipelined-resilient-pcg-d2-during-recovery",
     ["--solver", "pipelined-resilient-pcg", "--phi", "3",
      "--pipeline-depth", "2"] + DURING_RECOVERY),
    ("pipelined-cr", ["--solver", "pipelined-cr"]),
    ("pipelined-resilient-cr",
     ["--solver", "pipelined-resilient-cr", "--phi", "2"] + FAILURES),
    ("pipelined-resilient-cr-during-recovery",
     ["--solver", "pipelined-resilient-cr", "--phi", "3"] + DURING_RECOVERY),
    ("pipelined-resilient-cr-d2",
     ["--solver", "pipelined-resilient-cr", "--phi", "2",
      "--pipeline-depth", "2"] + FAILURES),
    ("resilient-bicgstab", ["--solver", "resilient-bicgstab", "--phi", "2"]
     + FAILURES),
    ("resilient-bicgstab-during-recovery",
     ["--solver", "resilient-bicgstab", "--phi", "3"] + DURING_RECOVERY),
    ("stationary",
     ["--solver", "stationary", "--phi", "2", "--omega", "0.9",
      "--max-iterations", "300"] + FAILURES),
    ("stationary-during-recovery",
     ["--solver", "stationary", "--phi", "3", "--omega", "0.9",
      "--max-iterations", "300"] + DURING_RECOVERY),
]

IGNORED = {"wall_seconds"}


def flatten(doc, prefix=""):
    out = {}
    if isinstance(doc, dict):
        for k, v in doc.items():
            out.update(flatten(v, f"{prefix}.{k}" if prefix else k))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            out.update(flatten(v, f"{prefix}[{i}]"))
    else:
        out[prefix] = doc
    return out


def run(cli, args):
    """The flattened report of one solve, or its exit code and error text."""
    proc = subprocess.run([cli, "solve"] + BASE + args, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        return {"exit": proc.returncode, "error": proc.stderr.strip()}, None
    return flatten(json.loads(proc.stdout)), proc.stdout


def main(argv):
    if len(argv) not in (3, 5) or (len(argv) == 5 and argv[3] != "--keep"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base_cli, change_cli = argv[1], argv[2]
    keep = argv[4] if len(argv) == 5 else None
    covered = set()
    total = 0
    for name, args in CASES:
        covered.add(args[args.index("--solver") + 1])
        base, base_raw = run(base_cli, args)
        change, change_raw = run(change_cli, args)
        if keep:
            for side, raw in (("base", base_raw), ("change", change_raw)):
                os.makedirs(os.path.join(keep, side), exist_ok=True)
                with open(os.path.join(keep, side, name + ".json"), "w") as f:
                    f.write(raw or "")
        keys = sorted((set(base) | set(change)) - IGNORED)
        diffs = [(k, base.get(k, "<missing>"), change.get(k, "<missing>"))
                 for k in keys if base.get(k, "<missing>") !=
                 change.get(k, "<missing>")]
        total += len(diffs)
        status = "ok" if "exit" not in base else f"failed (exit {base['exit']})"
        print(f"{name}: {len(keys)} fields, {len(diffs)} differ; base {status}")
        for k, b, c in diffs:
            print(f"    {k}: base {b!r} -> change {c!r}")
    listed = subprocess.run([base_cli, "list-solvers"], capture_output=True,
                            text=True, check=True).stdout.split()
    missing = sorted(set(listed) - covered)
    if missing:
        print(f"registry keys without a case: {', '.join(missing)}")
        total += len(missing)
    print(f"total differing fields (ignoring {', '.join(sorted(IGNORED))}): "
          f"{total}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
