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
def unbounded() -> WorkflowNet:
    """A workflow net whose silent loop tg: p -> p, q pumps tokens without end.

    Its other transitions are t0: source -> p (silent), ta: p -> sink
    (labelled a) and td: q -> sink (silent), so every count of q and sink is
    reachable at cost zero.
    """
    arcs = [
        ("source", "t0"), ("t0", "p"), ("p", "tg"), ("tg", "p"), ("tg", "q"),
        ("p", "ta"), ("ta", "sink"), ("q", "td"), ("td", "sink"),
    ]
    labels = {"t0": None, "tg": None, "ta": "a", "td": None}
    return WorkflowNet(
        ["source", "p", "q", "sink"], list(labels), arcs, labels,
        Marking.of("source"), Marking.of("sink"),
    )


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


# Place ids that sort before, among and after the trace place ids tp0, tp1,
# ..., tp10, ... (string order: "tp1" < "tp10" < "tp1a" < "tp2").
INTERLEAVED_IDS = (
    "a0", "b1", "q2", "tp", "tp0a", "tp1a", "tp10x", "tp2_", "tp9z", "tq", "u0", "u3", "z9",
)


def make_random_concurrent_wfnet(rng: random.Random, max_depth: int = 3) -> WorkflowNet:
    """Random block-structured workflow nets with choices, AND-splits and
    joins, and loops whose redo part runs back to the loop's entry.

    Blocks nest, so every draw is a safe workflow net (one token per place
    at most) whose markings can mark several places at once.  Place ids
    come from ``INTERLEAVED_IDS`` as far as they reach.
    """
    alphabet = ["a", "b", "c", "d"][: rng.randint(2, 4)]
    places: list[str] = []
    transitions, labels, arcs = [], {}, []

    def place() -> str:
        places.append(f"p{len(places)}")
        return places[-1]

    def transition(label, inputs, outputs) -> None:
        t = f"t{len(transitions)}"
        transitions.append(t)
        labels[t] = label
        arcs.extend([(p, t) for p in inputs] + [(t, p) for p in outputs])

    def block(entry: str, exit: str, depth: int) -> None:
        kind = rng.choice(["task", "task", "seq", "xor", "and", "loop"] if depth else ["task"])
        if kind == "task":
            transition(rng.choice(alphabet + [None]), [entry], [exit])
        elif kind == "seq":
            middle = place()
            block(entry, middle, depth - 1)
            block(middle, exit, depth - 1)
        elif kind == "xor":
            block(entry, exit, depth - 1)
            block(entry, exit, depth - 1)
        elif kind == "and":
            starts, ends = [place(), place()], [place(), place()]
            transition(rng.choice([None, None, rng.choice(alphabet)]), [entry], starts)
            for s, e in zip(starts, ends):
                block(s, e, depth - 1)
            transition(rng.choice([None, None, rng.choice(alphabet)]), ends, [exit])
        else:  # loop: do part from head to tail, redo part back from tail to head
            head, tail = place(), place()
            transition(None, [entry], [head])
            block(head, tail, depth - 1)
            block(tail, head, depth - 1)
            transition(rng.choice([None, rng.choice(alphabet)]), [tail], [exit])

    source, sink = place(), place()
    block(source, sink, max_depth)
    names = list(INTERLEAVED_IDS)
    rng.shuffle(names)
    rename = dict(zip(places, names))
    arcs = [(rename.get(x, x), rename.get(y, y)) for x, y in arcs]
    places = [rename.get(p, p) for p in places]
    if all(label is None for label in labels.values()):
        labels[transitions[0]] = alphabet[0]
    return WorkflowNet(
        places, transitions, arcs, labels, Marking.of(places[0]), Marking.of(places[1])
    )


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


def open_estimates(cache) -> dict:
    """Each open state's estimate, read off its heap key as f minus g.

    Every push sets f to g plus the state's estimate, so the open set is
    the one place where a cache keeps its estimates.
    """
    return {state: entry[0] + entry[1] for state, entry in cache.live.items()}
