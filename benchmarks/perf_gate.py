"""Parent-versus-candidate perf gate on perfbench's paper point.

Usage (from the repository root)::

    python3 benchmarks/perf_gate.py <base-ref>

Checks ``<base-ref>`` out into a temporary git worktree (the parent)
and times perfbench's ``topo1_paper`` workload on the parent's tree and
on this checkout's tree (the candidate, uncommitted changes included),
``PAIRS`` times each.  The runs alternate between the two trees, and
successive pairs alternate which tree goes first, so a slow phase of a
shared host lands on both sides.  Each run contributes the scaled
``wall_s`` of the last JSON line perfbench prints.

Exit status:

    0  the candidate's median ``wall_s`` is within ``THRESHOLD`` of the
       parent's
    1  the candidate is slower than that
    2  no verdict: a bad ref, or a run that refused, crashed, printed no
       JSON line or reported failed operations

Whatever the outcome, ``RESULT`` receives the host stamp, every run's
value and the verdict, the worktree is removed and no perfbench process
is left running.  docs/PERFORMANCE.md, "The CI throughput gate", gives
the measurements behind ``SECONDS``, ``PAIRS`` and ``THRESHOLD``.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
RESULT = ROOT / "benchmarks" / "results" / "perf_gate.json"

#: perfbench ``--seconds`` per run: a warm-up plus perfbench's minimum
#: of four timed paper points, about 18 s of host time per run.
SECONDS = 10
#: Runs per tree; the gate takes 2 * PAIRS perfbench runs.
PAIRS = 10
#: Largest tolerated slowdown of the candidate's median ``wall_s``:
#: halfway between no change and the ~15% seeded slowdown of
#: benchmarks/results/perf_gate_power.json.
THRESHOLD = 0.075
#: A perfbench run still going after this long has hung.
RUN_TIMEOUT = 600

COMMAND = [
    "perfbench/run.py", "--workload", "topo1_paper", "--trace", "0",
    "--seconds", str(SECONDS),
]


class GateError(Exception):
    """The gate cannot reach a verdict (exit 2)."""


def parse_wall(stdout: str) -> float:
    """Scaled ``wall_s`` from the last line of a perfbench run's stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise GateError("perfbench printed no JSON line")
    try:
        line = json.loads(lines[-1])
        failed = line["failed"]
        wall = float(line["metrics"]["wall_s"]["value"])
    except (ValueError, KeyError, TypeError) as exc:
        raise GateError(f"garbled JSON line {lines[-1][:200]!r}: {exc}") from exc
    if failed:
        raise GateError(f"perfbench reported {failed} failed operations")
    return wall


def schedule(pairs: int) -> List[Tuple[str, str]]:
    """Run order: the parent goes first in even pairs, last in odd ones."""
    order = ("parent", "candidate")
    return [order if i % 2 == 0 else order[::-1] for i in range(pairs)]


def measure(trees: Dict[str, Path], run: Callable[[Path], float]) -> List[dict]:
    """Every run, in order, as ``{"pair", "side", "wall_s"}``."""
    runs: List[dict] = []
    for pair, sides in enumerate(schedule(PAIRS)):
        for side in sides:
            wall = run(trees[side])
            runs.append({"pair": pair, "side": side, "wall_s": wall})
            print(f"pair {pair} {side:9s} wall_s {wall:.4f}", flush=True)
    return runs


def verdict(runs: List[dict]) -> dict:
    """Median ``wall_s`` of each side, the slowdown and the exit code."""
    medians = {
        side: statistics.median(r["wall_s"] for r in runs if r["side"] == side)
        for side in ("parent", "candidate")
    }
    slowdown = medians["candidate"] / medians["parent"] - 1.0
    return {
        "parent_median_s": medians["parent"],
        "candidate_median_s": medians["candidate"],
        "slowdown": slowdown,
        "exit": 1 if slowdown > THRESHOLD else 0,
    }


def run_perfbench(tree: Path) -> float:
    """One perfbench run on ``tree``; its process group dies with us."""
    proc = subprocess.Popen(
        [sys.executable, *COMMAND], cwd=tree, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise GateError(f"perfbench in {tree} ran over {RUN_TIMEOUT} s") from exc
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise GateError(f"perfbench in {tree} exited {proc.returncode}: {stderr[-800:]}")
    return parse_wall(stdout)


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise GateError(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


@contextmanager
def worktree(ref: str) -> Iterator[Path]:
    """``ref`` checked out in a temporary worktree, removed on any exit."""
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        path = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(path), ref)
        try:
            yield path
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(path)],
                           cwd=ROOT, capture_output=True)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 benchmarks/perf_gate.py <base-ref>", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.history import host_metadata

    result: dict = {
        "base": argv[0], "host": host_metadata(), "seconds": SECONDS,
        "pairs": PAIRS, "threshold": THRESHOLD, "runs": [],
    }
    try:
        result["base_sha"] = git("rev-parse", "--verify", argv[0] + "^{commit}")
        with worktree(result["base_sha"]) as parent:
            result["runs"] = measure(
                {"parent": parent, "candidate": ROOT}, run_perfbench
            )
        result.update(verdict(result["runs"]))
    except GateError as exc:
        result.update(exit=2, error=str(exc))
    except KeyboardInterrupt:
        result.update(exit=2, error="interrupted")
    RESULT.parent.mkdir(parents=True, exist_ok=True)
    RESULT.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if "error" in result:
        print(f"perf gate: no verdict: {result['error']}", file=sys.stderr)
    else:
        print(
            f"perf gate: candidate median wall_s {result['candidate_median_s']:.4f} s, "
            f"parent {result['parent_median_s']:.4f} s, "
            f"{result['slowdown']:+.1%} (threshold +{THRESHOLD:.1%}): "
            + ("FAIL" if result["exit"] else "pass")
        )
    return result["exit"]


if __name__ == "__main__":
    # SIGTERM (a cancelled CI job) unwinds like Ctrl-C, so the finally
    # blocks kill the running perfbench and remove the worktree.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main(sys.argv[1:]))
