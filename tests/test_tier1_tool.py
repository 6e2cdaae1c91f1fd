"""tools/tier1.py's report parser on small fake JUnit files; no pytest run is nested."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "tier1.py"

CRITERION_8 = ('<testcase classname="tests.test_acceptance" '
               'name="test_criterion_08_gronwall_loop_as_stated" time="0.40">'
               '<failure message="rate overstated">AssertionError</failure></testcase>')
AS_DESIGNED = f"""<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest" errors="0" failures="1" skipped="2" tests="5" time="3.2">
<testcase classname="tests.test_cli" name="test_simulate" time="1.25" />
<testcase classname="tests.test_gram.TestGram" name="test_psd[2]" time="0.05" />
<testcase classname="tests.test_lyapunov.TestMatrixEnergy" name="test_miss" time="0.30">
<skipped type="pytest.xfail" message="ROADMAP item 2" /></testcase>
<testcase classname="tests.test_kernels" name="test_scipy" time="0.00">
<skipped type="pytest.skip" message="no scipy">skip</skipped></testcase>
{CRITERION_8}
</testsuite></testsuites>
"""
BROKEN = f"""<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest" errors="2" failures="2" skipped="0" tests="4" time="1.0">
<testcase classname="" name="tests.test_new" time="0.00">
<error message="collection failure">ImportError</error></testcase>
<testcase classname="tests.test_cli" name="test_simulate" time="0.75">
<failure message="assert 1 == 0">AssertionError</failure></testcase>
<testcase classname="tests.test_cli" name="test_gram" time="0.10">
<failure message="assert">AssertionError</failure><error message="teardown">OSError</error>
</testcase>
{CRITERION_8}
</testsuite></testsuites>
"""


def _tool():
    spec = importlib.util.spec_from_file_location("tier1", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summary(tmp_path, xml, wall_s=12.34):
    path = tmp_path / "junit.xml"
    path.write_text(xml)
    return _tool().summarize(path, wall_s)


def test_criterion_8_alone_failing_is_ok(tmp_path):
    summary = _summary(tmp_path, AS_DESIGNED)
    assert summary["ok"]
    assert {k: summary[k] for k in ("tests", "passed", "failed", "xfailed", "skipped", "errors")} \
        == {"tests": 5, "passed": 2, "failed": 1, "xfailed": 1, "skipped": 1, "errors": 0}
    assert summary["wall_s"] == 12.3
    assert summary["failures"] == ["tests.test_acceptance::test_criterion_08_gronwall_loop_as_stated"]
    assert [test for test, _ in summary["slowest"]] == [
        "tests.test_cli::test_simulate",
        "tests.test_acceptance::test_criterion_08_gronwall_loop_as_stated",
        "tests.test_lyapunov.TestMatrixEnergy::test_miss",
        "tests.test_gram.TestGram::test_psd[2]",
        "tests.test_kernels::test_scipy",
    ]
    assert summary["slowest"][0] == ["tests.test_cli::test_simulate", 1.25]


def test_any_other_failure_or_error_is_not_ok(tmp_path):
    summary = _summary(tmp_path, BROKEN)
    assert not summary["ok"]
    assert (summary["passed"], summary["failed"], summary["errors"]) == (0, 2, 2)
    assert len(summary["failures"]) == 4
    # criterion 8 passing is a change too
    assert not _summary(tmp_path, AS_DESIGNED.replace(CRITERION_8, ""))["ok"]


def test_report_ends_with_the_summary_as_json(tmp_path):
    summary = _summary(tmp_path, AS_DESIGNED)
    lines = _tool().report(summary)
    assert lines[0] == ("tier-1: 5 tests in 12.3 s: 2 passed, 1 failed, 1 xfailed, "
                        "1 skipped, 0 errors")
    assert lines[1].endswith("test_criterion_08_gronwall_loop_as_stated (by design)")
    assert lines[2] == f"src: {summary['src_lines']} lines in src/swlyap/*.py"
    assert json.loads(lines[-1]) == summary


def test_src_lines_counts_the_package_modules_only(tmp_path):
    package = tmp_path / "src" / "swlyap"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not counted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    tool = _tool()
    assert tool.src_lines(tmp_path) == 3
    assert _summary(tmp_path, AS_DESIGNED)["src_lines"] == tool.src_lines() > 0
