import random

import pytest

from streamalign import Marking, WorkflowNet, generate_log, validate_wfnet
from streamalign.assets import ordering_model, trap_model
from streamalign.generator import choice_loop_model, parallel_tau_model


@pytest.fixture
def n1() -> WorkflowNet:
    """The bundled ordering net: optional a (or silent skip), then b or c."""
    return ordering_model()


@pytest.fixture
def trap() -> WorkflowNet:
    return trap_model()


@pytest.fixture
def preset_models() -> dict[str, WorkflowNet]:
    return {"choice-loop": choice_loop_model(), "parallel-tau": parallel_tau_model()}


def make_random_wfnet(rng: random.Random) -> WorkflowNet | None:
    """Small random chain/choice/skip nets; None when structurally invalid."""
    nplaces = rng.randint(3, 5)
    places = [f"q{i}" for i in range(nplaces)]
    alphabet = ["a", "b", "c", "d"][: rng.randint(2, 4)]
    transitions, labels, arcs = [], {}, []
    tid = 0
    for i in range(nplaces - 1):
        for _ in range(rng.randint(1, 2)):
            t = f"t{tid}"
            tid += 1
            transitions.append(t)
            labels[t] = rng.choice(alphabet + [None]) if rng.random() < 0.9 else None
            arcs += [(places[i], t), (t, places[i + 1])]
    for _ in range(rng.randint(0, 2)):
        i = rng.randint(0, nplaces - 2)
        j = rng.randint(i + 1, nplaces - 1)
        t = f"t{tid}"
        tid += 1
        transitions.append(t)
        labels[t] = rng.choice(alphabet + [None])
        arcs += [(places[i], t), (t, places[j])]
    try:
        net = WorkflowNet(
            places, transitions, arcs, labels, Marking.of(places[0]), Marking.of(places[-1])
        )
    except ValueError:
        return None
    if not validate_wfnet(net).ok or not net.visible_alphabet():
        return None
    return net


# About 99% of draws give a valid net, and 20,000 draws from one seed never
# gave more than two invalid nets in a row, so running out of attempts means
# that validation rejects valid nets.
RANDOM_NET_ATTEMPTS = 100


class SeededRandom(random.Random):
    """A generator that remembers its seed, so a failing draw can name it."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.initial_seed = seed


def random_net_and_trace(rng: SeededRandom, max_len: int = 6):
    for _ in range(RANDOM_NET_ATTEMPTS):
        net = make_random_wfnet(rng)
        if net is None:
            continue
        alphabet = list(net.visible_alphabet())
        trace = [rng.choice(alphabet) for _ in range(rng.randint(1, max_len))]
        return net, trace
    pytest.fail(
        f"no valid random net in {RANDOM_NET_ATTEMPTS} draws from the generator "
        f"seeded with {rng.initial_seed}"
    )


def nets_and_traces(preset_models, seed):
    """30 seeded random nets with a trace each, and noisy traces of both presets."""
    rng = SeededRandom(seed)
    out = [random_net_and_trace(rng, max_len=5) for _ in range(30)]
    noise = {"swap_p": 0.15, "drop_p": 0.1, "insert_p": 0.1}
    for model in preset_models.values():
        out += [(model, trace) for trace in generate_log(model, 4, noise, max_len=6, seed=seed)]
    return out
