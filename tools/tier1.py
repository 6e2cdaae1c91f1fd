"""Run the tier-1 test suite and report its wall time, outcome counts and slowest tests.

Runs `python -m pytest -q --continue-on-collection-errors` from the repository
root with `src` on PYTHONPATH (the tier-1 command of ROADMAP.md), writing a
JUnit XML report to a temporary file, and prints the wall time, the counts of
passed, failed, xfailed, skipped and errored tests, every failed or errored test,
the line count of src/swlyap/*.py (the src count that ROADMAP.md tracks), every
xfailed test, the 10 slowest tests, and last a JSON line holding the same numbers
and names.  Further arguments go to pytest.  Criterion 8 documents an
unattainable rate and fails by design, so the exit status is 0 only when it is
the one failure; any other failure or error, or a passing criterion 8, exits 1.

    python3 tools/tier1.py [PYTEST_ARGS...]
"""

import json
import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_FAILURES = ["tests.test_acceptance::test_criterion_08_gronwall_loop_as_stated"]
SLOWEST = 10


def src_lines(root=ROOT):
    """Lines in src/swlyap/*.py under ``root``, counted as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "swlyap").glob("*.py"))


def summarize(junit_path, wall_s):
    """The outcome counts, the failed, xfailed and slowest tests of a JUnit
    report, with the current src line count."""
    counts = dict.fromkeys(("passed", "failed", "xfailed", "skipped", "errors"), 0)
    failures, xfails, times = [], [], []
    for case in ET.parse(junit_path).iter("testcase"):
        test = f"{case.get('classname')}::{case.get('name')}"
        times.append((float(case.get("time", 0.0)), test))
        kinds = {child.tag: child for child in case}
        if "error" in kinds or "failure" in kinds:
            outcome = "errors" if "error" in kinds else "failed"
            failures.append(test)
        elif "skipped" in kinds:
            outcome = "xfailed" if kinds["skipped"].get("type") == "pytest.xfail" else "skipped"
            if outcome == "xfailed":
                xfails.append(test)
        else:
            outcome = "passed"
        counts[outcome] += 1
    slowest = sorted(times, key=lambda t: -t[0])[:SLOWEST]
    return {
        "wall_s": round(wall_s, 1),
        "tests": sum(counts.values()),
        **counts,
        "failures": failures,
        "xfails": xfails,
        "slowest": [[test, round(s, 2)] for s, test in slowest],
        "src_lines": src_lines(),
        "ok": failures == EXPECTED_FAILURES,
    }


def report(summary):
    """The summary as printed lines, the JSON line last."""
    lines = [f"tier-1: {summary['tests']} tests in {summary['wall_s']} s: "
             + ", ".join(f"{summary[k]} {k}" for k in
                         ("passed", "failed", "xfailed", "skipped", "errors"))]
    lines += [f"failed: {test}" + (" (by design)" if test in EXPECTED_FAILURES else "")
              for test in summary["failures"]]
    lines += [f"src: {summary['src_lines']} lines in src/swlyap/*.py"]
    lines += [f"xfailed: {test}" for test in summary["xfails"]]
    lines += [f"slowest {len(summary['slowest'])}:"]
    lines += [f"  {s:6.2f} s  {test}" for test, s in summary["slowest"]]
    return lines + [json.dumps(summary, sort_keys=True)]


def main(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        junit = Path(tmp) / "tier1.xml"
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               f"--junitxml={junit}", *argv]
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        wall_s = time.perf_counter() - start
        if not junit.exists():
            print("tier-1: pytest wrote no report", file=sys.stderr)
            return 1
        summary = summarize(junit, wall_s)
    print("\n".join(report(summary)))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
