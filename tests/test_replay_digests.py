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
    "choice-loop-max16/ilp/events_ias.jsonl": "cdfb201eff0f6acd12377432a993c8419eceb1a8291c0f845d87be4c1157a0d2",
    "choice-loop-max16/ilp/events_iasr.jsonl": "6262d1a23fd5dd4c4e8cd5457452ae32df7542bfd75eaad6b5130371e2315053",
    "choice-loop-max16/ilp/events_occ-w1.jsonl": "906243f10baefca01bd22cd47e97233a4209adf22afd760254edca5e6d256bd2",
    "choice-loop-max16/ilp/events_occ-w2.jsonl": "ab07f5081c3a23b23e201f0f0d9e0ae935a527192480dfb9cd1ff9d35761fcab",
    "choice-loop-max16/ilp/events_occ.jsonl": "19b69bfbe4184e381e4718da333404cbed0e59c749f34755cfc1a154cf486a9a",
    "choice-loop-max16/ilp/metrics.csv": "3bad71b6813eef45b35324b2f54e62d66c6fd7e9d98147b4916323a229dc32d1",
    "choice-loop-max16/ilp/metrics.txt": "2f17ee4adc404a890f6680ea7f73668a31c4776ef9973c13172c7f864b69b855",
    "choice-loop-max16/zero/events_ias.jsonl": "e4827de07771ed4b781ca909f834517cad0a9e38809aed45a1c32cefab83a740",
    "choice-loop-max16/zero/events_iasr.jsonl": "e4827de07771ed4b781ca909f834517cad0a9e38809aed45a1c32cefab83a740",
    "choice-loop-max16/zero/events_occ-w1.jsonl": "9caebbcf6575b2b0bdc5581d47344c3e8a0a377d613dac588f27903c0352a4a9",
    "choice-loop-max16/zero/events_occ-w2.jsonl": "979b66a4d33e74dc90ed99c5b41658c369f898037066cc075df2bd2aed4c9fe3",
    "choice-loop-max16/zero/events_occ.jsonl": "5a90596f3c403f7a153ab1d59decc443e7debf6fd6324bc6e0626013f4b07c9e",
    "choice-loop-max16/zero/metrics.csv": "b95cb81c730f7d83f712fff8e7eb758262b6605e2c3e454998a1a4362f80422f",
    "choice-loop-max16/zero/metrics.txt": "fe231ab9ece165b9518defbbd682e19795a34667a38b0daf6eb4796a470215f3",
    "choice-loop/ilp/events_ias.jsonl": "76f71b1984dd389545a9408184f3bace74ab06d266ab3dd42671a3437c3efcaf",
    "choice-loop/ilp/events_iasr.jsonl": "1d84e43e0d203d9cb3263385414fa6884bd2bc313e5dbf0066c3abe80a58bb68",
    "choice-loop/ilp/events_occ-w1.jsonl": "0ec2a6ea76a07eb862409f6340a2e866c6798caf8bbaf3e04d8a7c47ea7f884f",
    "choice-loop/ilp/events_occ-w2.jsonl": "98e74b3448a8fd2097be6147e050fa48927cdac49457d34e57fcf1073307b5f0",
    "choice-loop/ilp/events_occ.jsonl": "27cf8fdf40f01a4a33ffd30f4c28e5d72156f7476f5d103948d3783f7ca6d37a",
    "choice-loop/ilp/metrics.csv": "fb84be4cf8a7018659e9c351f5c7a635a3f124e10abfc1ee6a4b8b3f13e54e97",
    "choice-loop/ilp/metrics.txt": "372cad0cdb7ec514ce52dff4ba3a001efeb2707f50b2baee2f317f7ec1c14680",
    "choice-loop/lp/events_ias.jsonl": "76f71b1984dd389545a9408184f3bace74ab06d266ab3dd42671a3437c3efcaf",
    "choice-loop/lp/events_iasr.jsonl": "1d84e43e0d203d9cb3263385414fa6884bd2bc313e5dbf0066c3abe80a58bb68",
    "choice-loop/lp/events_occ-w1.jsonl": "0ec2a6ea76a07eb862409f6340a2e866c6798caf8bbaf3e04d8a7c47ea7f884f",
    "choice-loop/lp/events_occ-w2.jsonl": "98e74b3448a8fd2097be6147e050fa48927cdac49457d34e57fcf1073307b5f0",
    "choice-loop/lp/events_occ.jsonl": "27cf8fdf40f01a4a33ffd30f4c28e5d72156f7476f5d103948d3783f7ca6d37a",
    "choice-loop/lp/metrics.csv": "fb84be4cf8a7018659e9c351f5c7a635a3f124e10abfc1ee6a4b8b3f13e54e97",
    "choice-loop/lp/metrics.txt": "372cad0cdb7ec514ce52dff4ba3a001efeb2707f50b2baee2f317f7ec1c14680",
    "choice-loop/zero/events_ias.jsonl": "930194855a8a3a39ae30f5d79e93a8b4314741e9d0b9e37216e66b87dc3c14e3",
    "choice-loop/zero/events_iasr.jsonl": "930194855a8a3a39ae30f5d79e93a8b4314741e9d0b9e37216e66b87dc3c14e3",
    "choice-loop/zero/events_occ-w1.jsonl": "951e056fba381a43ee41f79482570990df98c376fb805e3bbdc581da36680ee8",
    "choice-loop/zero/events_occ-w2.jsonl": "f2387ea9fddcc62c21b8947f6cb2073d2ee58407bf28712c73740efc02fa5978",
    "choice-loop/zero/events_occ.jsonl": "136d3b98ed6b05a8b8d86cda06bec850f0a228d8bc0f9479ac7bddf84ffa3e45",
    "choice-loop/zero/metrics.csv": "766c1dbad78e1b64efa21d1217242ca1e9311a2339a77a0134d1071366193ca5",
    "choice-loop/zero/metrics.txt": "cb76467b2cbc8251333caa36a78c65b86ff34efaf9bedd54107fb580d34add08",
    "parallel-tau/ilp/events_ias.jsonl": "2c3411c20d4ad94fd5e87129c631da40cdca7fe3b8ad7384d993d1736d1be88b",
    "parallel-tau/ilp/events_iasr.jsonl": "9a242e3ab6c90bd68c274e25570fde12e03de0f33beea8f87e672bc45c6eb91a",
    "parallel-tau/ilp/events_occ-w1.jsonl": "8281af720e2c9611f9933f4fde02bfac4447e5e31477f652300012f674862917",
    "parallel-tau/ilp/events_occ-w2.jsonl": "38798104c1c12d74eb002f4e9b75a49df2e135170e3ffc98e7af419c0f22be4e",
    "parallel-tau/ilp/events_occ.jsonl": "e831bcd3711e513b0a696e1668e617941e9ad8939ba8353b996ff47556d37da6",
    "parallel-tau/ilp/metrics.csv": "6e188674d2bea1b115bc3e5095f651b55ae3e75d31ef520d13d72fd5cbba1e6c",
    "parallel-tau/ilp/metrics.txt": "31d7b5c98b641f1d36524536734837cbef3fac97528019ff57bca028cb1c742c",
    "parallel-tau/lp/events_ias.jsonl": "2c3411c20d4ad94fd5e87129c631da40cdca7fe3b8ad7384d993d1736d1be88b",
    "parallel-tau/lp/events_iasr.jsonl": "9a242e3ab6c90bd68c274e25570fde12e03de0f33beea8f87e672bc45c6eb91a",
    "parallel-tau/lp/events_occ-w1.jsonl": "8281af720e2c9611f9933f4fde02bfac4447e5e31477f652300012f674862917",
    "parallel-tau/lp/events_occ-w2.jsonl": "38798104c1c12d74eb002f4e9b75a49df2e135170e3ffc98e7af419c0f22be4e",
    "parallel-tau/lp/events_occ.jsonl": "e831bcd3711e513b0a696e1668e617941e9ad8939ba8353b996ff47556d37da6",
    "parallel-tau/lp/metrics.csv": "6e188674d2bea1b115bc3e5095f651b55ae3e75d31ef520d13d72fd5cbba1e6c",
    "parallel-tau/lp/metrics.txt": "31d7b5c98b641f1d36524536734837cbef3fac97528019ff57bca028cb1c742c",
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
