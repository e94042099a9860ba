"""Smoke tests: every example script must run clean and say what it claims.

Examples rot silently when APIs move; running each as a subprocess (the
way a user would) keeps them honest.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
EXAMPLES = REPO / "examples"


def run_example(name: str, *args: str, examples: Path = EXAMPLES,
                env: dict | None = None) -> str:
    result = subprocess.run(
        [sys.executable, str(examples / name), *args],
        capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Classical DLT" in out
        assert "DLS-BL-NCP" in out
        assert "no fines: True" in out

    def test_strategic_market(self):
        out = run_example("strategic_market.py")
        assert "everyone honest" in out
        assert "TERMINATED" in out
        assert "fined" in out

    def test_architecture_survey(self):
        out = run_example("architecture_survey.py")
        for arch in ("bus / cp", "star", "linear daisy chain", "tree"):
            assert arch in out

    def test_truthfulness_audit_default(self):
        out = run_example("truthfulness_audit.py")
        assert "AUDIT PASSED" in out

    def test_truthfulness_audit_custom_cluster(self):
        out = run_example("truthfulness_audit.py", "0.3", "2", "3", "5")
        assert "AUDIT PASSED" in out

    def test_market_over_time(self):
        out = run_example("market_over_time.py")
        assert "Permanent gap" in out
        assert "Cumulative utility race" in out

    def test_capacity_planning(self):
        out = run_example("capacity_planning.py")
        assert "Q1" in out and "Q2" in out and "Q3" in out
        assert "guarantees hold" in out

    def test_untrusted_network(self):
        out = run_example("untrusted_network.py")
        assert "attack impossible" in out
        assert "BIDDING" in out and "ALLOCATING_LOAD" in out

    @pytest.mark.slow
    def test_reproduce_paper(self, tmp_path):
        # Runs the whole benchmark harness (~30 s): keep it last.  The
        # script and benchmarks/ run from a copy under tmp_path, so the
        # regenerated tables and report never touch the checkout.
        shutil.copytree(REPO / "benchmarks", tmp_path / "benchmarks",
                        ignore=shutil.ignore_patterns("results",
                                                      "__pycache__"))
        (tmp_path / "examples").mkdir()
        shutil.copy(EXAMPLES / "reproduce_paper.py", tmp_path / "examples")
        src = str((REPO / "src").resolve())
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + os.pathsep + path if path else src)
        out = run_example("reproduce_paper.py",
                          examples=tmp_path / "examples", env=env)
        assert "Collated" in out
        report = tmp_path / "REPRODUCTION_REPORT.md"
        assert report.exists()
        text = report.read_text()
        assert "Reproduction report" in text
        assert "test_thm21" in text

    def test_every_example_has_a_test(self):
        scripts = {p.name for p in EXAMPLES.glob("*.py")}
        covered = {
            "quickstart.py", "strategic_market.py", "architecture_survey.py",
            "truthfulness_audit.py", "market_over_time.py",
            "capacity_planning.py", "untrusted_network.py",
            "reproduce_paper.py",
        }
        assert scripts == covered, f"untested examples: {scripts - covered}"
