"""Seeded fuzzing of the input boundaries: BLIF text and resynthesis
requests.

Every mutant must either be accepted or fail with a ``ValueError`` (the
one error class the service answers 400), within a time bound per
input.  A hang trips the bound; any other exception fails the test.
"""

import contextlib
import random
import signal
import threading
import time

import pytest

from repro.benchdata.circuits import CIRCUITS
from repro.network.blif import parse_blif, write_blif
from repro.resynth import ResynthRequest

#: Seconds one input may take, parse or construction included.
TIME_BOUND = 1.0

BLIF_MUTANTS_PER_CIRCUIT = 60
REQUEST_MUTANTS = 3000

#: Tokens and lines spliced into BLIF mutants: directives, cube rows
#: and the malformed shapes around them.
BLIF_TOKENS = [".names", ".latch", ".inputs", ".outputs", ".model",
               ".end", ".subckt", ".exdc", "\\", "#", "-", "0", "1", "2",
               "x", "11", "1-0", "01 1", "1 0", "", "re", "3", "-1"]
BLIF_LINES = [".names", ".names a", ".names a b", "1 1", "01 0", "1-",
              "11 2", ".latch", ".latch a", ".latch a b 7",
              ".latch a b re clk 3", ".inputs", ".outputs", ".end",
              ".model", ".subckt foo", "\\", ".names x x", "- 1"]

#: ResynthRequest's own fields.  The solver knobs (cost, minimizer,
#: strategy, max_explored, decompose) are left alone: they are
#: validated by SolveRequest, which has its own field checks.
REQUEST_FIELDS = ["circuit", "passes", "window", "tfo_depth",
                  "cut_policy", "max_nodes", "executor", "workers",
                  "verify", "verify_exhaustive_limit", "verify_vectors",
                  "seed", "label"]
REQUEST_VALUES = [None, True, False, 0, 1, -1, 2, 16, 17, 2.5, 8.0,
                  float("nan"), 10 ** 30, -10 ** 30, "", "2", "x", "s27",
                  "nodes", "serial", "process", "auto", [], [1], ["s27"],
                  {}, {"kind": "bench"}, {"kind": "bench", "name": 5},
                  {"kind": "blif", "text": ".model m\n.end\n"},
                  {"kind": "file"}, {"kind": [1]}, {"kind": {}}]


@contextlib.contextmanager
def time_bound(seconds):
    """Fail the input that runs past ``seconds`` (interrupting a hang
    where the platform has interval timers)."""
    interrupt = (hasattr(signal, "setitimer")
                 and threading.current_thread() is threading.main_thread())
    if interrupt:
        def expire(signum, frame):
            raise TimeoutError("input ran past %.1fs" % seconds)
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
    started = time.perf_counter()
    try:
        yield
    finally:
        if interrupt:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - started < seconds


def mutate_blif(text, rng):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines = [rng.choice(BLIF_LINES)]
        index = rng.randrange(len(lines))
        move = rng.randrange(8)
        if move == 0:
            del lines[index]
        elif move == 1:
            lines.insert(index, lines[index])
        elif move == 2:
            other = rng.randrange(len(lines))
            lines[index], lines[other] = lines[other], lines[index]
        elif move == 3:
            tokens = lines[index].split() or [""]
            tokens[rng.randrange(len(tokens))] = rng.choice(BLIF_TOKENS)
            lines[index] = " ".join(tokens)
        elif move == 4:
            lines.insert(index, rng.choice(BLIF_LINES))
        elif move == 5:
            lines = lines[:index]
        elif move == 6 and lines[index]:
            chars = list(lines[index])
            chars[rng.randrange(len(chars))] = chr(rng.randrange(32, 127))
            lines[index] = "".join(chars)
        else:
            lines[index] += " \\"
    return "\n".join(lines) + "\n"


def mutate_request(base, rng):
    data = dict(base)
    for _ in range(rng.randint(1, 3)):
        move = rng.randrange(10)
        if move == 0:
            data.pop(rng.choice(REQUEST_FIELDS), None)
        elif move == 1:
            data["bogus_%d" % rng.randrange(3)] = rng.choice(REQUEST_VALUES)
        else:
            data[rng.choice(REQUEST_FIELDS)] = rng.choice(REQUEST_VALUES)
    return data


class TestFuzz:
    @pytest.mark.parametrize("spec", CIRCUITS, ids=lambda spec: spec.name)
    def test_blif_mutants_parse_or_raise_value_error(self, spec):
        rng = random.Random("blif:" + spec.name)
        text = write_blif(spec.build())
        outcomes = set()
        for _ in range(BLIF_MUTANTS_PER_CIRCUIT):
            mutant = mutate_blif(text, rng)
            with time_bound(TIME_BOUND):
                try:
                    parse_blif(mutant)
                    outcomes.add("parsed")
                except ValueError:
                    outcomes.add("rejected")
        assert "rejected" in outcomes

    def test_request_mutants_build_or_raise_value_error(self):
        rng = random.Random("resynth-request")
        base = ResynthRequest(circuit="s27").to_dict()
        outcomes = {"built": 0, "rejected": 0}
        for _ in range(REQUEST_MUTANTS):
            mutant = mutate_request(base, rng)
            with time_bound(TIME_BOUND):
                try:
                    request = ResynthRequest.from_dict(mutant)
                except ValueError:
                    outcomes["rejected"] += 1
                    continue
            outcomes["built"] += 1
            # What was admitted is well formed.
            for field in ("passes", "window", "tfo_depth",
                          "verify_exhaustive_limit", "verify_vectors",
                          "seed"):
                value = getattr(request, field)
                assert isinstance(value, int) \
                    and not isinstance(value, bool), (field, value)
            assert request.max_nodes is None or (
                isinstance(request.max_nodes, int)
                and not isinstance(request.max_nodes, bool))
            # JSON text, not dataclass equality: a NaN label never
            # equals itself.
            assert ResynthRequest.from_json(request.to_json()).to_json() \
                == request.to_json()
        assert outcomes["built"] and outcomes["rejected"]
