"""Seeded fuzzing of the input boundaries: BLIF text, resynthesis
requests, solve requests and the equation systems they carry.

Every mutant must either be accepted or fail with a ``ValueError`` (the
one error class the service answers 400), within a time bound per
input.  A hang trips the bound; any other exception fails the test.
The last two passes send the mutants through :class:`SolveService`
itself, where any other exception would be a 500.
"""

import contextlib
import dataclasses
import math
import random
import signal
import threading
import time

import pytest

from repro import Session, SolveRequest
from repro.benchdata.circuits import CIRCUITS
from repro.network.blif import parse_blif, write_blif
from repro.resynth import ResynthRequest
from repro.service import ServiceError, SolveService

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


#: SolveRequest's own fields, the relation spec included.
SOLVE_FIELDS = [field.name for field in dataclasses.fields(SolveRequest)]
SOLVE_VALUES = [None, True, False, 0, 1, -1, 3, 2.5, float("nan"),
                float("inf"), 10 ** 30, 10 ** 400, "", "x", "bfs",
                "portfolio", "size", "isop", "auto", "fig1", [], [1],
                ["bfs"], [{"strategy": "dfs"}], {}, {"a": 1},
                {"kind": "bench", "name": "int1"}, {"kind": "bench"},
                {"kind": [1]}, {"kind": "bench", "name": 5},
                {"kind": "pla", "text": 5},
                {"kind": "output_sets", "rows": 5, "num_inputs": 1,
                 "num_outputs": 1},
                {"kind": "output_sets", "rows": [["x"], [1]],
                 "num_inputs": 1, "num_outputs": 1},
                {"kind": "truth_tables", "tables": ["x"],
                 "num_inputs": 1},
                {"kind": "equations", "equations": 5,
                 "independents": ["a"], "dependents": ["b"]}]
#: Equation-system mutants: the base system, the tokens spliced into
#: its text, and how deep a spliced nesting or chain may go (past the
#: parser's nesting bound and the interpreter's recursion limit).
EQUATION_MUTANTS = 3000
EQUATION_BASE = (["y0 = a & b | ~c", "y1 <= a ^ y0'", "(a + b)' == y1 c"],
                 ["a", "b", "c"], ["y0", "y1"])
EQUATION_TOKENS = ["a", "b", "c", "y0", "y1", "d", "0", "1", "(", ")",
                   "~", "!", "'", "&", "*", "|", "+", "^", "=", "==",
                   "<=", " ", "$"]
EQUATION_DEPTHS = [2, 50, 99, 101, 300, 1200, 3000]
SOLVE_BASE = SolveRequest(relation={
    "kind": "output_sets", "rows": [[1], [1], [0, 3], [2, 3]],
    "num_inputs": 2, "num_outputs": 2}).to_dict()


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


def mutate_request(base, rng, fields=REQUEST_FIELDS,
                   values=REQUEST_VALUES):
    data = dict(base)
    for _ in range(rng.randint(1, 3)):
        move = rng.randrange(10)
        if move == 0:
            data.pop(rng.choice(fields), None)
        elif move == 1:
            data["bogus_%d" % rng.randrange(3)] = rng.choice(values)
        else:
            data[rng.choice(fields)] = rng.choice(values)
    return data


def mutate_equations(rng):
    """A seeded mutant of :data:`EQUATION_BASE`: spliced tokens, cut or
    repeated text, deep nestings and long chains, and changed variable
    lists."""
    equations, independents, dependents = (list(part)
                                           for part in EQUATION_BASE)
    for _ in range(rng.randint(1, 3)):
        move = rng.randrange(8)
        index = rng.randrange(len(equations)) if equations else None
        if index is None:
            equations.append(rng.choice(EQUATION_BASE[0]))
        elif move == 0:
            text = equations[index]
            at = rng.randrange(len(text) + 1)
            equations[index] = (text[:at] + rng.choice(EQUATION_TOKENS)
                                + text[at:])
        elif move == 1:
            text = equations[index]
            start = rng.randrange(len(text) + 1)
            stop = rng.randrange(start, len(text) + 1)
            equations[index] = text[:start] + text[stop:] \
                if rng.random() < 0.5 else text[:stop] + text[start:]
        elif move == 2:
            # Nest or chain one variable occurrence, deep or long.
            depth = rng.choice(EQUATION_DEPTHS)
            name = rng.choice(["a", "b", "c"])
            shape = rng.randrange(4)
            if shape == 0:
                deep = "(" * depth + name + ")" * depth
            elif shape == 1:
                deep = "~" * depth + name
            elif shape == 2:
                deep = name + "'" * depth
            else:
                deep = rng.choice([" & ", " | ", " ^ ", " "]).join(
                    [name] * depth)
            equations[index] = equations[index].replace(name, deep, 1)
        elif move == 3:
            del equations[index]
        elif move == 4:
            names = rng.choice([independents, dependents])
            if names and rng.random() < 0.5:
                del names[rng.randrange(len(names))]
            else:
                names.append(rng.choice(["a", "b", "c", "y0", "y1", "d",
                                         ""]))
        elif move == 5:
            independents, dependents = dependents, independents
        else:
            equations.append(rng.choice(EQUATION_BASE[0]))
    return {"kind": "equations", "equations": equations,
            "independents": independents, "dependents": dependents}


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

    def test_solve_request_mutants_build_or_raise_value_error(self):
        rng = random.Random("solve-request")
        outcomes = {"built": 0, "rejected": 0}
        for _ in range(REQUEST_MUTANTS):
            mutant = mutate_request(SOLVE_BASE, rng, SOLVE_FIELDS,
                                    SOLVE_VALUES)
            with time_bound(TIME_BOUND):
                try:
                    request = SolveRequest.from_dict(mutant)
                except ValueError:
                    outcomes["rejected"] += 1
                    continue
            outcomes["built"] += 1
            # What was admitted is well formed.
            for field in ("max_explored", "fifo_capacity",
                          "symmetry_max_depth"):
                value = getattr(request, field)
                assert value is None or (
                    isinstance(value, int)
                    and not isinstance(value, bool)), (field, value)
            for field in ("symmetry_pruning", "record_trace"):
                assert isinstance(getattr(request, field), bool), field
            for field in ("quick_on_subrelations", "decompose"):
                assert getattr(request, field) in (None, True, False), \
                    field
            limit = request.time_limit_seconds
            assert limit is None or (
                not isinstance(limit, bool) and math.isfinite(limit)
                and limit >= 0), limit
            assert request.label is None or isinstance(request.label,
                                                       str)
            assert SolveRequest.from_json(request.to_json()) == request
        assert outcomes["built"] and outcomes["rejected"]

    def test_equation_system_mutants_solve_or_raise_value_error(self):
        rng = random.Random("equations")
        session = Session()
        outcomes = {"solved": 0, "rejected": 0}
        for _ in range(EQUATION_MUTANTS):
            spec = mutate_equations(rng)
            with time_bound(TIME_BOUND):
                try:
                    report = session.solve(SolveRequest(relation=spec,
                                                        max_explored=2))
                except ValueError:
                    outcomes["rejected"] += 1
                    continue
            outcomes["solved"] += 1
            assert report.ok and report.compatible, spec
        assert outcomes["solved"] and outcomes["rejected"]

    def test_solve_request_mutants_answer_or_400_through_the_service(self):
        # Admitted requests run under a 0.5 s cap on their time limit.
        rng = random.Random(0)
        service = SolveService(max_time_limit=0.5)
        outcomes = {"solved": 0, "rejected": 0}
        for _ in range(REQUEST_MUTANTS):
            mutant = mutate_request(SOLVE_BASE, rng, SOLVE_FIELDS,
                                    SOLVE_VALUES)
            with time_bound(TIME_BOUND):
                try:
                    report, _ = service.solve(mutant)
                except ServiceError as exc:
                    assert exc.status == 400, exc
                    outcomes["rejected"] += 1
                    continue
            outcomes["solved"] += 1
            assert report["ok"], mutant
        assert outcomes["solved"] and outcomes["rejected"]
        assert service.request_counts["errors"] == outcomes["rejected"]

    def test_blif_mutants_resynthesise_or_400_through_the_service(self):
        rng = random.Random(0)
        service = SolveService()
        outcomes = {"resynthesised": 0, "rejected": 0}
        for spec in CIRCUITS:
            text = write_blif(spec.build())
            for _ in range(BLIF_MUTANTS_PER_CIRCUIT):
                mutant = mutate_blif(text, rng)
                try:
                    parse_blif(mutant)
                except ValueError:
                    continue
                request = {"circuit": {"kind": "blif", "text": mutant},
                           "passes": 1, "max_nodes": 8}
                with time_bound(TIME_BOUND):
                    try:
                        report, _ = service.resynth(request)
                    except ServiceError as exc:
                        assert exc.status == 400, exc
                        outcomes["rejected"] += 1
                        continue
                outcomes["resynthesised"] += 1
                assert report["ok"] and report["equivalent"], spec.name
        assert outcomes["resynthesised"]
