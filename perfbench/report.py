"""Machine fingerprint and trace-file check of the benchmark's reports."""

import json
import os
import subprocess


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha(root):
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def fingerprint(root, build):
    """CPU model, usable cores, compiler, build type and git sha."""
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": build["compiler"],
        "build_type": build["build_type"],
        "git_sha": git_sha(root),
    }


def check_trace(path):
    """None when `path` is a Chrome trace-event file whose B/E events nest
    properly on every lane with non-decreasing timestamps; else the
    problem."""
    try:
        events = json.loads(path.read_text())["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return f"unreadable ({e})"
    if not events:
        return "no events"
    stacks = {}
    last_ts = {}
    for ev in events:
        lane = (ev["pid"], ev["tid"])
        if ev["ts"] < last_ts.get(lane, float("-inf")):
            return f"time goes backwards on lane {lane} at {ev['name']}"
        last_ts[lane] = ev["ts"]
        stack = stacks.setdefault(lane, [])
        if ev["ph"] == "B":
            stack.append(ev["name"])
        elif ev["ph"] == "E":
            if not stack or stack.pop() != ev["name"]:
                return f"unmatched end of {ev['name']} on lane {lane}"
        else:
            return f"unexpected phase {ev['ph']!r}"
    open_spans = [name for stack in stacks.values() for name in stack]
    return f"spans never closed: {open_spans[:5]}" if open_spans else None
