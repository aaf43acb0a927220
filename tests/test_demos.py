"""Every demo runs cleanly against the checkout's package."""

import subprocess
import sys
from pathlib import Path

import pytest

import streamalign

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    src = str(Path(streamalign.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=60,
    )


def test_every_demo_is_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(path):
    done = run_demo(path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    if path.stem == "02_streaming_monitor":
        assert "markings cached by the searches: 19" in done.stdout.splitlines()
