"""Run the mutation corpus and fail if any mutation escapes.

    python tests/mutants/run.py [--full]

Each mutation of ``corpus.py`` is applied to its own copy of the checkout
(without ``.git`` or caches; the checkout is never edited).  In the copy,
``python -m repro check --json`` runs every static pass; only when no pass
fires does tier-1 run (``pytest -x``), under a per-mutation timeout that
counts as a catch.  ``--full`` runs both on every mutation, and tier-1
without ``-x``, to record every check that catches it.  Two mutations run
at a time.  One line per mutation is printed and the results are archived
to ``benchmarks/results/MUTANTS.json``.  Exit 1 if a mutation escapes or
one of its anchors does not occur exactly once.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from corpus import MUTATIONS

ROOT = Path(__file__).resolve().parents[2]
ARCHIVE = ROOT / "benchmarks" / "results" / "MUTANTS.json"
JOBS = 2
#: Seconds per check run.  Tier-1 takes 1-3 minutes; a mutation that
#: makes a retransmit loop unbounded keeps it running indefinitely.
TIMEOUT_S = 600
_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
    ".e2ebench_work", ".bench_parent", "*.egg-info")


class AnchorError(Exception):
    """An edit's ``old`` text does not occur exactly once."""


def _copy_checkout(target: Path) -> None:
    def ignore(directory, names):
        skipped = set(_IGNORED(directory, names))
        if Path(directory) == ROOT / "benchmarks":
            skipped.add("results")
        return skipped

    shutil.copytree(ROOT, target, ignore=ignore)


def _apply(tree: Path, edits) -> None:
    for path, old, new in edits:
        source = tree / path
        text = source.read_text()
        count = text.count(old)
        if count != 1:
            raise AnchorError(f"{path}: anchor occurs {count} times: "
                              f"{old.splitlines()[0].strip()!r}")
        source.write_text(text.replace(old, new))


def _run(command, tree: Path):
    """``(returncode, stdout)``; returncode None when the timeout hit."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    process = subprocess.Popen(
        command, cwd=tree, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = process.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return None, ""
    return process.returncode, out


def _static_rules(tree: Path) -> list[str]:
    code, out = _run([sys.executable, "-m", "repro", "check", "--json"], tree)
    if code is None:
        return ["(check timed out)"]
    try:
        report = json.loads(out)
    except ValueError:
        return ["(check crashed)"]
    return sorted({finding["rule"] for finding in report["findings"]})


def _tier1(tree: Path, full: bool) -> dict:
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    if not full:
        command.append("-x")
    code, out = _run(command, tree)
    if code is None:
        return {"status": "timeout", "failed": []}
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in out.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return {"status": "passed" if code == 0 else "failed", "failed": failed}


def run_mutation(mutation, full: bool) -> dict:
    start = time.perf_counter()
    result = {"id": mutation.id, "origin": mutation.origin}
    with tempfile.TemporaryDirectory(prefix="mutant-") as workdir:
        tree = Path(workdir) / "repo"
        _copy_checkout(tree)
        try:
            _apply(tree, mutation.edits)
        except AnchorError as error:
            return result | {"error": str(error), "caught": False}
        result["rules"] = _static_rules(tree)
        if full or not result["rules"]:
            result["tier1"] = _tier1(tree, full)
    tier1 = result.get("tier1", {"status": "skipped"})
    result["caught"] = bool(result["rules"]) or tier1["status"] != "passed"
    result["seconds"] = round(time.perf_counter() - start, 1)
    return result


def describe(result: dict) -> str:
    if "error" in result:
        return f"ANCHOR  {result['id']:<26} {result['error']}"
    tier1 = result.get("tier1", {"status": "skipped"})
    tests = tier1["status"]
    if tier1.get("failed"):
        tests += f" ({len(tier1['failed'])}: {', '.join(tier1['failed'][:3])}"
        tests += ", ...)" if len(tier1["failed"]) > 3 else ")"
    verdict = "caught " if result["caught"] else "ESCAPED"
    rules = ", ".join(result["rules"]) or "-"
    return (f"{verdict} {result['id']:<26} rules: {rules}; tier-1: {tests}"
            f" [{result['seconds']:.0f}s]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="run every check on every mutation")
    args = parser.parse_args(argv)
    lock = threading.Lock()

    def one(mutation):
        result = run_mutation(mutation, args.full)
        with lock:
            print(describe(result), flush=True)
        return result

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(one, MUTATIONS))
    ARCHIVE.parent.mkdir(parents=True, exist_ok=True)
    ARCHIVE.write_text(json.dumps(
        {"full": args.full, "mutations": results}, indent=1) + "\n")
    escaped = [result["id"] for result in results if not result["caught"]]
    print(f"{len(results) - len(escaped)} of {len(results)} mutations "
          f"caught; escaped: {', '.join(escaped) or 'none'}")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
