"""Seeded inputs for the end-to-end benchmark.

Everything the program receives is generated here, from the run's seed,
as plain data: relation specs (``output_sets`` rows and bundled ``bench``
names), request dicts, and circuit names.  The same seed always gives
the same inputs.  Each relation is returned together with its allowed
output sets, which the answer oracle (:mod:`oracle`) checks against.

The relation generator follows the draw order of the program's seeded
generator (``repro.benchdata.brgen.random_relation``), so the allowed
sets of the bundled Table 2 instances are re-derived here from their
published parameters instead of being read back from the program.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Dict, List, Set, Tuple

#: Allowed output vertices per input vertex (index = input vertex).
Rows = List[Set[int]]

#: The bundled Table 2 instances the ``solve`` workload sends as
#: ``bench`` specs (the 6-8 input ones, the scale of the drawn
#: relations): name -> (inputs, outputs, flexibility, non-cube
#: fraction).  Each is seeded by the CRC-32 of its name.
TABLE2 = {
    "int5": (6, 3, 0.5, 0.4), "int6": (6, 4, 0.5, 0.4),
    "int7": (7, 3, 0.4, 0.4), "int8": (7, 4, 0.4, 0.4),
    "int9": (8, 3, 0.4, 0.3), "int10": (8, 4, 0.4, 0.3),
    "she2": (6, 4, 0.7, 0.6), "she3": (7, 3, 0.6, 0.6),
    "b9": (6, 4, 0.5, 0.7), "vtx": (6, 4, 0.6, 0.7),
    "gr": (8, 5, 0.5, 0.5),
}

#: Cost functions that make a repeated ``bench`` instance a new request.
BENCH_COSTS = ("size", "cubes", "literals")

#: Flexibility is drawn from one of these halves of 0.4-0.7, in equal
#: numbers per shape, so runs differ in their relations, not their mix.
FLEX_BANDS = ((0.4, 0.55), (0.55, 0.7))

#: ``solve`` block: every (inputs, outputs) shape once per backend.
SOLVE_SHAPES = [(ni, no) for ni in (6, 7, 8) for no in (3, 4, 5, 6)]
SOLVE_MAX_EXPLORED = 20

#: ``service`` traffic: novel engine solves, the prewarmed corpus.
SERVICE_ENGINE_SHAPES = [(ni, no) for ni in (6, 7) for no in (3, 4)]
SERVICE_MAX_EXPLORED = 20
CORPUS_SIZE = 200
CORPUS_MAX_EXPLORED = 5
#: One service block, before shuffling: R = repeat of an earlier request
#: of this run (RAM tier), D = unseen corpus request (disk tier),
#: E = novel relation (engine).  Sorted by latency the classes are
#: RAM [0, 20%), disk [20%, 70%), engine [70%, 100%), so p50 sits in the
#: middle of the disk class and p90 inside the engine class.
SERVICE_BLOCK = "RRDDDDDEEE"


def _is_cube_set(outputs: Set[int], num_outputs: int) -> bool:
    """Is ``outputs`` exactly the vertex set of one output cube?"""
    full = (1 << num_outputs) - 1
    first = next(iter(outputs))
    fixed = full
    for value in outputs:
        fixed &= ~(first ^ value)
    free = bin(full & ~fixed).count("1")
    return len(outputs) == 1 << free and all(
        (value & fixed) == (first & fixed) for value in outputs)


def _output_set(rng: random.Random, num_outputs: int,
                non_cube: bool) -> Set[int]:
    space = 1 << num_outputs
    for _ in range(64):
        size = rng.randint(2, max(2, min(space, 4)))
        outputs = set(rng.sample(range(space), min(size, space)))
        if _is_cube_set(outputs, num_outputs) != non_cube:
            return outputs
    if non_cube and space >= 3:
        return {0, space - 1} if num_outputs > 1 else {0, 1}
    return {rng.randrange(space)}


def draw_rows(rng: random.Random, num_inputs: int, num_outputs: int,
              flexibility: float, non_cube_fraction: float = 0.5) -> Rows:
    """A well-defined relation: one non-empty output set per vertex."""
    rows: Rows = []
    for _ in range(1 << num_inputs):
        if rng.random() < flexibility:
            non_cube = rng.random() < non_cube_fraction
            rows.append(_output_set(rng, num_outputs, non_cube))
        else:
            rows.append({rng.randrange(1 << num_outputs)})
    return rows


def table2_rows(name: str) -> Tuple[int, int, Rows]:
    """``(inputs, outputs, rows)`` of a bundled Table 2 instance."""
    num_inputs, num_outputs, flexibility, non_cube = TABLE2[name]
    rng = random.Random(zlib.crc32(name.encode("ascii")))
    return num_inputs, num_outputs, draw_rows(rng, num_inputs, num_outputs,
                                              flexibility, non_cube)


class Job:
    """One request as sent, plus what the oracle needs to check it."""

    __slots__ = ("request", "num_inputs", "num_outputs", "rows", "kind")

    def __init__(self, request: Dict[str, Any], num_inputs: int,
                 num_outputs: int, rows: Rows, kind: str) -> None:
        self.request = request
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.rows = rows
        self.kind = kind


def _drawn_job(rng: random.Random, shape: Tuple[int, int],
               max_explored: int, kind: str,
               band: Tuple[float, float] = (0.4, 0.7)) -> Job:
    num_inputs, num_outputs = shape
    rows = draw_rows(rng, num_inputs, num_outputs, rng.uniform(*band))
    spec = {"kind": "output_sets", "rows": [sorted(row) for row in rows],
            "num_inputs": num_inputs, "num_outputs": num_outputs}
    request = {"relation": spec, "max_explored": max_explored}
    return Job(request, num_inputs, num_outputs, rows, kind)


def _bench_job(name: str, cost: str) -> Job:
    num_inputs, num_outputs, rows = table2_rows(name)
    request = {"relation": {"kind": "bench", "name": name}, "cost": cost,
               "max_explored": SOLVE_MAX_EXPLORED}
    return Job(request, num_inputs, num_outputs, rows, "bench")


def solve_block(seed: int, block: int) -> List[Job]:
    """One ``solve`` block of 26 novel requests.

    Each of the 12 shapes is drawn twice, once from each flexibility
    band (which band goes to which backend alternates by shape and
    block), and each block adds two ``bench`` instances (the same ones
    in every run, cycling through instance x cost pairs, so no request
    repeats within a run).  Alternate requests set ``backend="auto"``;
    the others take the default BDD path.
    """
    rng = random.Random("solve:%d:%d" % (seed, block))
    pairs = [(name, cost) for cost in BENCH_COSTS for name in TABLE2]
    auto = [_drawn_job(rng, shape, SOLVE_MAX_EXPLORED, "drawn",
                       FLEX_BANDS[(index + block) % 2])
            for index, shape in enumerate(SOLVE_SHAPES)]
    plain = [_drawn_job(rng, shape, SOLVE_MAX_EXPLORED, "drawn",
                        FLEX_BANDS[(index + block + 1) % 2])
             for index, shape in enumerate(SOLVE_SHAPES)]
    auto.append(_bench_job(*pairs[(2 * block) % len(pairs)]))
    plain.append(_bench_job(*pairs[(2 * block + 1) % len(pairs)]))
    rng.shuffle(auto)
    rng.shuffle(plain)
    jobs: List[Job] = []
    for routed, default in zip(auto, plain):
        routed.request["backend"] = "auto"
        jobs.extend((routed, default))
    return jobs


def resynth_round(seed: int, round_index: int,
                  names: List[str]) -> List[str]:
    """A seeded order of every bundled circuit for one round."""
    order = list(names)
    random.Random("resynth:%d:%d" % (seed, round_index)).shuffle(order)
    return order


def service_corpus() -> List[Job]:
    """The fixed prewarm corpus (independent of the run's seed)."""
    jobs = []
    for index in range(CORPUS_SIZE):
        rng = random.Random("corpus:%d" % index)
        shape = (rng.choice((4, 5)), rng.choice((2, 3)))
        jobs.append(_drawn_job(rng, shape, CORPUS_MAX_EXPLORED, "corpus"))
    return jobs


class ServiceStream:
    """The seeded ``service`` request stream, generated block by block.

    RAM repeats re-send an earlier request of this run; disk requests
    walk a seeded permutation of the corpus, each entry once, so the
    stream ends when the corpus is used up.  Engine requests cycle
    through every shape x flexibility band once in each eight.
    """

    def __init__(self, seed: int, corpus: List[Job]) -> None:
        self.seed = seed
        self.corpus = corpus
        self.corpus_order = list(range(len(corpus)))
        random.Random("service-corpus:%d" % seed).shuffle(self.corpus_order)
        self.sent: List[Job] = []
        self.blocks = 0
        self.engines = 0

    def max_blocks(self) -> int:
        return len(self.corpus) // SERVICE_BLOCK.count("D")

    def block(self) -> List[Job]:
        rng = random.Random("service:%d:%d" % (self.seed, self.blocks))
        kinds = list(SERVICE_BLOCK)
        rng.shuffle(kinds)
        if not self.sent and kinds[0] == "R":
            # The first request of a run has nothing to repeat.
            swap = next(i for i, kind in enumerate(kinds) if kind != "R")
            kinds[0], kinds[swap] = kinds[swap], kinds[0]
        jobs = []
        for kind in kinds:
            if kind == "R":
                job = rng.choice(self.sent)
                job = Job(dict(job.request), job.num_inputs, job.num_outputs,
                          job.rows, "ram")
            elif kind == "D":
                job = self.corpus[self.corpus_order.pop()]
                job = Job(dict(job.request), job.num_inputs, job.num_outputs,
                          job.rows, "disk")
            else:
                shapes = SERVICE_ENGINE_SHAPES
                index = self.engines
                self.engines += 1
                job = _drawn_job(rng, shapes[index % len(shapes)],
                                 SERVICE_MAX_EXPLORED, "engine",
                                 FLEX_BANDS[(index // len(shapes) + index)
                                            % 2])
            self.sent.append(job)
            jobs.append(job)
        self.blocks += 1
        return jobs
