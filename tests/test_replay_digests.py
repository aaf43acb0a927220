"""Golden replay outputs: every file ``streamalign replay`` writes, pinned by SHA-256.

A refactor that must not change behaviour keeps all of these digests.  The
logs come from ``streamalign generate`` and are passed by a name relative to
the working directory, so the metrics files hold no temporary path.
"""

import hashlib
import json

import pytest

from streamalign.cli import EXIT_OK, main
from streamalign.generator import PRESETS

ALGORITHMS = ("ias", "iasr", "occ", "occ-w1", "occ-w2")
OUTPUTS = tuple(f"events_{a}.jsonl" for a in ALGORITHMS) + ("metrics.csv", "metrics.txt")

DIGESTS = {
    "choice-loop/ilp/events_ias.jsonl": "d30a08b39a1da48f00b060139b086edc7f1beaebf14c3218de4d20a05d6410ca",
    "choice-loop/ilp/events_iasr.jsonl": "8175df7ebded38019524a7e5589c5f6b9c83130fe417f9d22d1caf9d7e1b79b6",
    "choice-loop/ilp/events_occ-w1.jsonl": "328939ef6fbae6ce872d7790d66c58a8c487935f99c5c1fa6cba63665dc937bb",
    "choice-loop/ilp/events_occ-w2.jsonl": "1d235dc0090737305f0e3fb7b10d6bf1c8bd44854f54ffa2c3ecf19e1e8b00d5",
    "choice-loop/ilp/events_occ.jsonl": "ca88773c84fd99b865580b70ac59bb9b08c3eb62b5c23cfa7ecc0ff8e31221ea",
    "choice-loop/ilp/metrics.csv": "0fccb26dbbf323bfe30ded07832bdd285cdc09c730d7557c68d4cc7248d091e9",
    "choice-loop/ilp/metrics.txt": "54caa04dc63865476b2db35cbfe644a3deb00a70fd16e15b6e73a1c6d5c5bfdd",
    "choice-loop/lp/events_ias.jsonl": "d30a08b39a1da48f00b060139b086edc7f1beaebf14c3218de4d20a05d6410ca",
    "choice-loop/lp/events_iasr.jsonl": "8175df7ebded38019524a7e5589c5f6b9c83130fe417f9d22d1caf9d7e1b79b6",
    "choice-loop/lp/events_occ-w1.jsonl": "328939ef6fbae6ce872d7790d66c58a8c487935f99c5c1fa6cba63665dc937bb",
    "choice-loop/lp/events_occ-w2.jsonl": "1d235dc0090737305f0e3fb7b10d6bf1c8bd44854f54ffa2c3ecf19e1e8b00d5",
    "choice-loop/lp/events_occ.jsonl": "ca88773c84fd99b865580b70ac59bb9b08c3eb62b5c23cfa7ecc0ff8e31221ea",
    "choice-loop/lp/metrics.csv": "0fccb26dbbf323bfe30ded07832bdd285cdc09c730d7557c68d4cc7248d091e9",
    "choice-loop/lp/metrics.txt": "54caa04dc63865476b2db35cbfe644a3deb00a70fd16e15b6e73a1c6d5c5bfdd",
    "parallel-tau/ilp/events_ias.jsonl": "69ee731815fb25bd9940c552f61ca0a93179e9543024d742d59126b1598c46a0",
    "parallel-tau/ilp/events_iasr.jsonl": "85971daaedbcb8721e9559935f5a66f3012bde39a01c05edf1d25fd395a69870",
    "parallel-tau/ilp/events_occ-w1.jsonl": "da83b36b8840aa92c9714f33d29bd56303c46e6e49e591c2eb56e5d38cb419cf",
    "parallel-tau/ilp/events_occ-w2.jsonl": "c96f944dfeb704cb13892a268eb2d6fc6431216e7589014aecf1a838b039409a",
    "parallel-tau/ilp/events_occ.jsonl": "262360a969f9acb05d0079b4a898b81182fe1c24a8fb0ce717d8a341628f4597",
    "parallel-tau/ilp/metrics.csv": "87968828bfbd275cb409be6a503962c145fe25de2fb71b09e4ee1067c2a099f0",
    "parallel-tau/ilp/metrics.txt": "752259ac4430afce3480871f2a6517f9309f1acef4a93f0699c5800b60b8c606",
    "parallel-tau/lp/events_ias.jsonl": "69ee731815fb25bd9940c552f61ca0a93179e9543024d742d59126b1598c46a0",
    "parallel-tau/lp/events_iasr.jsonl": "85971daaedbcb8721e9559935f5a66f3012bde39a01c05edf1d25fd395a69870",
    "parallel-tau/lp/events_occ-w1.jsonl": "da83b36b8840aa92c9714f33d29bd56303c46e6e49e591c2eb56e5d38cb419cf",
    "parallel-tau/lp/events_occ-w2.jsonl": "c96f944dfeb704cb13892a268eb2d6fc6431216e7589014aecf1a838b039409a",
    "parallel-tau/lp/events_occ.jsonl": "262360a969f9acb05d0079b4a898b81182fe1c24a8fb0ce717d8a341628f4597",
    "parallel-tau/lp/metrics.csv": "87968828bfbd275cb409be6a503962c145fe25de2fb71b09e4ee1067c2a099f0",
    "parallel-tau/lp/metrics.txt": "752259ac4430afce3480871f2a6517f9309f1acef4a93f0699c5800b60b8c606",
}


@pytest.fixture(scope="module")
def replay_outputs(tmp_path_factory) -> dict[str, bytes]:
    """File contents keyed by ``<preset>/<heuristic>/<file>``."""
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        outputs = {}
        for preset in PRESETS:
            log = f"log_{preset}.jsonl"
            assert main([
                "generate", "--model", preset, "--traces", "60", "--swap-p", "0.15",
                "--drop-p", "0.1", "--insert-p", "0.1", "--seed", "7", "--out", log,
            ]) == EXIT_OK
            for heuristic in ("ilp", "lp"):
                out = f"out_{preset}_{heuristic}"
                assert main([
                    "replay", "--model", preset, "--log", log, "--heuristic", heuristic,
                    "--algorithms", ",".join(ALGORITHMS), "--order", "round-robin",
                    "--timing", "off", "--out", out,
                ]) == EXIT_OK
                for name in OUTPUTS:
                    outputs[f"{preset}/{heuristic}/{name}"] = (root / out / name).read_bytes()
    return outputs


def test_replay_outputs_match_golden_digests(replay_outputs):
    digests = {key: hashlib.sha256(data).hexdigest() for key, data in replay_outputs.items()}
    assert len(digests) == 28
    assert digests == DIGESTS


def test_event_lines_are_canonical_json(replay_outputs):
    for key, data in replay_outputs.items():
        if not key.endswith(".jsonl"):
            continue
        for line in data.decode("utf-8").splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True), key
