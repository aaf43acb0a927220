"""Golden replay outputs: every file ``streamalign replay`` writes, pinned by SHA-256.

A refactor that must not change behaviour keeps all of these digests.  The
logs come from ``streamalign generate`` and are passed by a name relative to
the working directory, so the metrics files hold no temporary path.

Under ``zero`` the estimate is 0, so f = g and the canonical marking order
breaks almost every tie; the ``max16`` log has traces long enough to reach
trace place ``tp10``, which sorts before ``tp2``.
"""

import hashlib
import json

import pytest

from streamalign.cli import EXIT_OK, main
from streamalign.generator import PRESETS

ALGORITHMS = ("ias", "iasr", "occ", "occ-w1", "occ-w2")
OUTPUTS = tuple(f"events_{a}.jsonl" for a in ALGORITHMS) + ("metrics.csv", "metrics.txt")
NOISE = ("--swap-p", "0.15", "--drop-p", "0.1", "--insert-p", "0.1", "--seed", "7")
# (log name, model, extra generate arguments, heuristics replayed)
LOGS = tuple(
    (preset, preset, (), ("ilp", "lp", "zero")) for preset in PRESETS
) + (("choice-loop-max16", "choice-loop", ("--max-len", "16"), ("ilp", "zero")),)

DIGESTS = {
    "choice-loop-max16/ilp/events_ias.jsonl": "571ae316d8664dc50a37b90f51ec145081fd3ff443f7259e4538326695bb36c2",
    "choice-loop-max16/ilp/events_iasr.jsonl": "a4fe5e7a914476b9035317266447f7b55a369968ff774c63d2f124e308a45923",
    "choice-loop-max16/ilp/events_occ-w1.jsonl": "c5d32acc58ba755c516fca89ece1e35262dc922d5467a92a17ffda6cf0d9aa6a",
    "choice-loop-max16/ilp/events_occ-w2.jsonl": "d3fb36da5e3598c94da84aad8bdf30f6dfff3a2300eba728881bad7a7657f362",
    "choice-loop-max16/ilp/events_occ.jsonl": "491fb22ece8bf5ed11e3e9f936a3862f37bfd1177b5b72368dcf6b82497a4335",
    "choice-loop-max16/ilp/metrics.csv": "7c272b6182201653cfb9b1c1f33731a76b8fc5ba1fa5ca7652ea19d6fd9da2e4",
    "choice-loop-max16/ilp/metrics.txt": "9a3f91d43bd218963ceda6433e9f7b7e7eb9a418e975ffa1c71eac8f702f92c6",
    "choice-loop-max16/zero/events_ias.jsonl": "e4827de07771ed4b781ca909f834517cad0a9e38809aed45a1c32cefab83a740",
    "choice-loop-max16/zero/events_iasr.jsonl": "e4827de07771ed4b781ca909f834517cad0a9e38809aed45a1c32cefab83a740",
    "choice-loop-max16/zero/events_occ-w1.jsonl": "9caebbcf6575b2b0bdc5581d47344c3e8a0a377d613dac588f27903c0352a4a9",
    "choice-loop-max16/zero/events_occ-w2.jsonl": "979b66a4d33e74dc90ed99c5b41658c369f898037066cc075df2bd2aed4c9fe3",
    "choice-loop-max16/zero/events_occ.jsonl": "5a90596f3c403f7a153ab1d59decc443e7debf6fd6324bc6e0626013f4b07c9e",
    "choice-loop-max16/zero/metrics.csv": "b95cb81c730f7d83f712fff8e7eb758262b6605e2c3e454998a1a4362f80422f",
    "choice-loop-max16/zero/metrics.txt": "fe231ab9ece165b9518defbbd682e19795a34667a38b0daf6eb4796a470215f3",
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
    "choice-loop/zero/events_ias.jsonl": "930194855a8a3a39ae30f5d79e93a8b4314741e9d0b9e37216e66b87dc3c14e3",
    "choice-loop/zero/events_iasr.jsonl": "930194855a8a3a39ae30f5d79e93a8b4314741e9d0b9e37216e66b87dc3c14e3",
    "choice-loop/zero/events_occ-w1.jsonl": "951e056fba381a43ee41f79482570990df98c376fb805e3bbdc581da36680ee8",
    "choice-loop/zero/events_occ-w2.jsonl": "f2387ea9fddcc62c21b8947f6cb2073d2ee58407bf28712c73740efc02fa5978",
    "choice-loop/zero/events_occ.jsonl": "136d3b98ed6b05a8b8d86cda06bec850f0a228d8bc0f9479ac7bddf84ffa3e45",
    "choice-loop/zero/metrics.csv": "766c1dbad78e1b64efa21d1217242ca1e9311a2339a77a0134d1071366193ca5",
    "choice-loop/zero/metrics.txt": "cb76467b2cbc8251333caa36a78c65b86ff34efaf9bedd54107fb580d34add08",
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
    "parallel-tau/zero/events_ias.jsonl": "e947be72c7cb1fc6e61587fb988a261330735e2dcd70780be96b87756796a121",
    "parallel-tau/zero/events_iasr.jsonl": "e947be72c7cb1fc6e61587fb988a261330735e2dcd70780be96b87756796a121",
    "parallel-tau/zero/events_occ-w1.jsonl": "7a7000bd52d5eb63e6d490521ffbac2496e07c29969bdca561c7c243987b0bbe",
    "parallel-tau/zero/events_occ-w2.jsonl": "d67fa1e9ce243a6ddf1367a88b07acdcc345a2d17c15068efb8a231a9d78cbdc",
    "parallel-tau/zero/events_occ.jsonl": "fac85cda29bcd7ad36c42a63eb7bfad65e08e7622a1cee0006f1c1631c7bbcb5",
    "parallel-tau/zero/metrics.csv": "27405cd7050389e3cd9487f603016c6b298d3067c35caaa5941790585654d166",
    "parallel-tau/zero/metrics.txt": "e80162ee5e878e28ca97c9bd0a43b73695fef0184079cc3b896117d989848b9e",
}


@pytest.fixture(scope="module")
def replay_outputs(tmp_path_factory) -> dict[str, bytes]:
    """File contents keyed by ``<preset>/<heuristic>/<file>``."""
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        outputs = {}
        for name, model, extra, heuristics in LOGS:
            log = f"log_{name}.jsonl"
            assert main([
                "generate", "--model", model, "--traces", "60", *NOISE, *extra, "--out", log,
            ]) == EXIT_OK
            for heuristic in heuristics:
                out = f"out_{name}_{heuristic}"
                assert main([
                    "replay", "--model", model, "--log", log, "--heuristic", heuristic,
                    "--algorithms", ",".join(ALGORITHMS), "--order", "round-robin",
                    "--timing", "off", "--out", out,
                ]) == EXIT_OK
                for output in OUTPUTS:
                    outputs[f"{name}/{heuristic}/{output}"] = (root / out / output).read_bytes()
    return outputs


def test_replay_outputs_match_golden_digests(replay_outputs):
    digests = {key: hashlib.sha256(data).hexdigest() for key, data in replay_outputs.items()}
    assert len(digests) == len(DIGESTS)
    assert digests == DIGESTS


def test_event_lines_are_canonical_json(replay_outputs):
    for key, data in replay_outputs.items():
        if not key.endswith(".jsonl"):
            continue
        for line in data.decode("utf-8").splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True), key
