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
    "choice-loop-max16/ilp/events_ias.jsonl": "90cea730edc50d52dc4318fad27e8bd6a5119a79bbd6a3db6e3f00dc48ddcbca",
    "choice-loop-max16/ilp/events_iasr.jsonl": "6262d1a23fd5dd4c4e8cd5457452ae32df7542bfd75eaad6b5130371e2315053",
    "choice-loop-max16/ilp/events_occ-w1.jsonl": "906243f10baefca01bd22cd47e97233a4209adf22afd760254edca5e6d256bd2",
    "choice-loop-max16/ilp/events_occ-w2.jsonl": "ab07f5081c3a23b23e201f0f0d9e0ae935a527192480dfb9cd1ff9d35761fcab",
    "choice-loop-max16/ilp/events_occ.jsonl": "19b69bfbe4184e381e4718da333404cbed0e59c749f34755cfc1a154cf486a9a",
    "choice-loop-max16/ilp/metrics.csv": "bb713b20938b6ee6af796f2570f6866e8e080f8eea9e827db409370176d321a4",
    "choice-loop-max16/ilp/metrics.txt": "4d3d97f4d70104c0af0cb9282d287dd1476a069713ab2e55d307590f4efebcd7",
    "choice-loop-max16/zero/events_ias.jsonl": "e4827de07771ed4b781ca909f834517cad0a9e38809aed45a1c32cefab83a740",
    "choice-loop-max16/zero/events_iasr.jsonl": "e4827de07771ed4b781ca909f834517cad0a9e38809aed45a1c32cefab83a740",
    "choice-loop-max16/zero/events_occ-w1.jsonl": "9caebbcf6575b2b0bdc5581d47344c3e8a0a377d613dac588f27903c0352a4a9",
    "choice-loop-max16/zero/events_occ-w2.jsonl": "979b66a4d33e74dc90ed99c5b41658c369f898037066cc075df2bd2aed4c9fe3",
    "choice-loop-max16/zero/events_occ.jsonl": "5a90596f3c403f7a153ab1d59decc443e7debf6fd6324bc6e0626013f4b07c9e",
    "choice-loop-max16/zero/metrics.csv": "9ad0a54f99cec9412bfe29cbe99a24c8f1b97194339a0c199678714b46c7a151",
    "choice-loop-max16/zero/metrics.txt": "c180264110d74fc82b40a08e07772c3841233e40897ff77808e041967c849329",
    "choice-loop/ilp/events_ias.jsonl": "3153b264038518b88861299db1105e679311fb917b73dd1172cf784093063217",
    "choice-loop/ilp/events_iasr.jsonl": "1d84e43e0d203d9cb3263385414fa6884bd2bc313e5dbf0066c3abe80a58bb68",
    "choice-loop/ilp/events_occ-w1.jsonl": "0ec2a6ea76a07eb862409f6340a2e866c6798caf8bbaf3e04d8a7c47ea7f884f",
    "choice-loop/ilp/events_occ-w2.jsonl": "98e74b3448a8fd2097be6147e050fa48927cdac49457d34e57fcf1073307b5f0",
    "choice-loop/ilp/events_occ.jsonl": "27cf8fdf40f01a4a33ffd30f4c28e5d72156f7476f5d103948d3783f7ca6d37a",
    "choice-loop/ilp/metrics.csv": "85b06abec0b9cc29d3ac653c421c5b19055345d894ccc0d7cf2bbdadf35be4cf",
    "choice-loop/ilp/metrics.txt": "d2f5103d41d7c87e6fdde84af73385cd367cce21074279b4965c15acb711d5ee",
    "choice-loop/lp/events_ias.jsonl": "3153b264038518b88861299db1105e679311fb917b73dd1172cf784093063217",
    "choice-loop/lp/events_iasr.jsonl": "1d84e43e0d203d9cb3263385414fa6884bd2bc313e5dbf0066c3abe80a58bb68",
    "choice-loop/lp/events_occ-w1.jsonl": "0ec2a6ea76a07eb862409f6340a2e866c6798caf8bbaf3e04d8a7c47ea7f884f",
    "choice-loop/lp/events_occ-w2.jsonl": "98e74b3448a8fd2097be6147e050fa48927cdac49457d34e57fcf1073307b5f0",
    "choice-loop/lp/events_occ.jsonl": "27cf8fdf40f01a4a33ffd30f4c28e5d72156f7476f5d103948d3783f7ca6d37a",
    "choice-loop/lp/metrics.csv": "9748eb2a1d1dc4bec3ece05c56a64ba931bb26f0ec1a951d02406e22f4ecb2d7",
    "choice-loop/lp/metrics.txt": "7d8b8669bb20d24d586fa22e4c11ecf5cb4d456623605017a36af302ce7e601b",
    "choice-loop/zero/events_ias.jsonl": "930194855a8a3a39ae30f5d79e93a8b4314741e9d0b9e37216e66b87dc3c14e3",
    "choice-loop/zero/events_iasr.jsonl": "930194855a8a3a39ae30f5d79e93a8b4314741e9d0b9e37216e66b87dc3c14e3",
    "choice-loop/zero/events_occ-w1.jsonl": "951e056fba381a43ee41f79482570990df98c376fb805e3bbdc581da36680ee8",
    "choice-loop/zero/events_occ-w2.jsonl": "f2387ea9fddcc62c21b8947f6cb2073d2ee58407bf28712c73740efc02fa5978",
    "choice-loop/zero/events_occ.jsonl": "136d3b98ed6b05a8b8d86cda06bec850f0a228d8bc0f9479ac7bddf84ffa3e45",
    "choice-loop/zero/metrics.csv": "b92568834a8259de158514d752d97fb222872fa024bf116a6affe2a6e2c311d3",
    "choice-loop/zero/metrics.txt": "3cd41f62bb1d0d798ef802267b9e66a30bcfd936a24b7fc4f671698b2a903ce8",
    "parallel-tau/ilp/events_ias.jsonl": "a98db4737b5b4f5f5e773875efecc28b412f5378b78ab8bd8a06cfdc77311e05",
    "parallel-tau/ilp/events_iasr.jsonl": "9a242e3ab6c90bd68c274e25570fde12e03de0f33beea8f87e672bc45c6eb91a",
    "parallel-tau/ilp/events_occ-w1.jsonl": "8281af720e2c9611f9933f4fde02bfac4447e5e31477f652300012f674862917",
    "parallel-tau/ilp/events_occ-w2.jsonl": "38798104c1c12d74eb002f4e9b75a49df2e135170e3ffc98e7af419c0f22be4e",
    "parallel-tau/ilp/events_occ.jsonl": "e831bcd3711e513b0a696e1668e617941e9ad8939ba8353b996ff47556d37da6",
    "parallel-tau/ilp/metrics.csv": "45c4e78a9c1685b316ef3dc82d894b6e4424fe1ead2f03bc69c2352b8fe18b9f",
    "parallel-tau/ilp/metrics.txt": "947dbae176cdcbd35b3faedb53d9fe573af4d6cd6254a05adf36ec1863855b9b",
    "parallel-tau/lp/events_ias.jsonl": "a98db4737b5b4f5f5e773875efecc28b412f5378b78ab8bd8a06cfdc77311e05",
    "parallel-tau/lp/events_iasr.jsonl": "9a242e3ab6c90bd68c274e25570fde12e03de0f33beea8f87e672bc45c6eb91a",
    "parallel-tau/lp/events_occ-w1.jsonl": "8281af720e2c9611f9933f4fde02bfac4447e5e31477f652300012f674862917",
    "parallel-tau/lp/events_occ-w2.jsonl": "38798104c1c12d74eb002f4e9b75a49df2e135170e3ffc98e7af419c0f22be4e",
    "parallel-tau/lp/events_occ.jsonl": "e831bcd3711e513b0a696e1668e617941e9ad8939ba8353b996ff47556d37da6",
    "parallel-tau/lp/metrics.csv": "30e0d4515f5c2b572d8fea15fc10e2fdfdddc19e54257ec9ff8da0e17cea6ca9",
    "parallel-tau/lp/metrics.txt": "19cc8c7253f3a62c8c3933c5ae667f5e22c93c37566acaa3dc036cf3d63dd3b2",
    "parallel-tau/zero/events_ias.jsonl": "e947be72c7cb1fc6e61587fb988a261330735e2dcd70780be96b87756796a121",
    "parallel-tau/zero/events_iasr.jsonl": "e947be72c7cb1fc6e61587fb988a261330735e2dcd70780be96b87756796a121",
    "parallel-tau/zero/events_occ-w1.jsonl": "7a7000bd52d5eb63e6d490521ffbac2496e07c29969bdca561c7c243987b0bbe",
    "parallel-tau/zero/events_occ-w2.jsonl": "d67fa1e9ce243a6ddf1367a88b07acdcc345a2d17c15068efb8a231a9d78cbdc",
    "parallel-tau/zero/events_occ.jsonl": "fac85cda29bcd7ad36c42a63eb7bfad65e08e7622a1cee0006f1c1631c7bbcb5",
    "parallel-tau/zero/metrics.csv": "0ec0c2e4159ace0bf5e3a9d5fc9caa41a013a978fb783864e5a8b7087386c53e",
    "parallel-tau/zero/metrics.txt": "9b1d62d05cef11119d04007e8708fa54a91e68da8cb38590da8a73ebb6c83a6b",
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


def test_ias_and_iasr_emit_the_same_cost_per_event(replay_outputs):
    # Both are exact, so they may differ in the alignment and the counters
    # but never in an event's cost: a re-pin cannot hide a cost change.
    for name, _, _, heuristics in LOGS:
        for heuristic in heuristics:
            costs = {}
            for algorithm in ("ias", "iasr"):
                data = replay_outputs[f"{name}/{heuristic}/events_{algorithm}.jsonl"]
                records = [json.loads(line) for line in data.decode("utf-8").splitlines()]
                costs[algorithm] = [(r["case"], r["event_index"], r["cost"]) for r in records]
            assert costs["ias"] == costs["iasr"], (name, heuristic)
            assert costs["ias"], (name, heuristic)
