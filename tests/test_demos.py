"""Every demo runs cleanly against the checkout's package and prints the
bytes pinned below.

A change that must not alter behaviour keeps every digest.  A change that
alters a demo's output on purpose re-pins it and says why.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

import streamalign

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_nets_and_alignments": "28d50838c5b7a6bbdafe21f027bf63f0a2c35754e357da6153c820f80bcdfd2a",
    "02_streaming_monitor": "84d9e7d33e981284827cf0270d58974b282dc8c3d88183ff3ac9861cc5f7d195",
    "03_window_tradeoffs": "5fa576114935fe0c2559e5f74438ac09c3f527d27c2114dc382f311e5c2793c3",
    "04_estimates_and_search": "dd18acaa081de0144d3014cf7699e7dd728048bb5ac2f3ae082623b2aa258826",
}


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
    assert [path.stem for path in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(path):
    done = run_demo(path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    if path.stem == "02_streaming_monitor":
        assert "markings cached by the searches: 19" in done.stdout.splitlines()
    digest = hashlib.sha256(done.stdout.encode("utf-8")).hexdigest()
    assert digest == STDOUT_SHA256[path.stem], done.stdout
