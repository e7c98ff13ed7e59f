"""Pinned solve streams: every field a solve emits, wall times aside.

Each case drives one fixed solve through :meth:`BrelSolver.solve` with
an observer and ``record_trace`` on, and hashes with SHA-256 the row

* every event's ``(kind, depth, explored, cost, best_cost, detail)``;
* every improvement's ``(cost, explored)``;
* every :class:`~repro.core.SolverStats` counter but ``runtime_seconds``;
* ``stopped`` and the solution's SOP;
* the partition and portfolio summaries without their runtimes.

The cases cover the monolithic loop under each shipped strategy (on a
packed root and on a node-level one), the sharded solve, the portfolio
race with the default line-up and with per-racer deltas, a race that
ends by proving optimality, and a sharded race, plus early stops that
repeat run to run: an exploration budget, a zero time limit and a
:class:`~repro.core.CancelToken` that the observer trips at a fixed
event.  A change to how a solve is driven that keeps its answers keeps
these digests.
"""

import hashlib

import pytest

from repro.benchdata.brgen import block_structured_relation, random_relation
from repro.benchdata.brsuite import instance_by_name
from repro.core import BrelOptions, BrelSolver, CancelToken

#: The wall-clock fields left out of every digest.
WALL_TIMES = ("runtime_seconds", "elapsed_seconds")

DELTA_RACERS = [
    {"strategy": "bfs", "max_explored": 5},
    {"strategy": "best-first", "name": "wide", "max_explored": None,
     "fifo_capacity": None},
    {"strategy": "dfs", "quick_on_subrelations": True,
     "max_explored": 30},
    {"strategy": "beam", "fifo_capacity": 2, "symmetry_pruning": True},
]

#: name -> (relation factory, options, event after which the observer
#: cancels the solve or None).
CASES = {
    "bfs": (lambda: random_relation(6, 4, seed=1),
            {"max_explored": 40}, None),
    "dfs": (lambda: instance_by_name("int5").build(),
            {"strategy": "dfs", "max_explored": 60}, None),
    "best-first": (lambda: random_relation(6, 3, seed=3),
                   {"strategy": "best-first", "max_explored": 40}, None),
    "beam": (lambda: random_relation(6, 4, seed=2),
             {"strategy": "beam", "fifo_capacity": 3,
              "max_explored": 40}, None),
    "bfs-symmetry": (lambda: instance_by_name("vtx").build(),
                     {"symmetry_pruning": True, "max_explored": 30},
                     None),
    "dfs-exhaustive": (lambda: instance_by_name("int1").build(),
                       {"strategy": "dfs", "max_explored": None,
                        "fifo_capacity": None}, None),
    "node-path": (lambda: random_relation(9, 8, seed=2),
                  {"max_explored": 6, "decompose": False}, None),
    "sharded": (lambda: block_structured_relation([(4, 2), (4, 2)],
                                                  seed=3),
                {"max_explored": 30}, None),
    "sharded-three": (lambda: block_structured_relation(
        [(3, 2), (4, 1), (3, 2)], seed=1), {"strategy": "best-first"},
        None),
    "race": (lambda: instance_by_name("int5").build(),
             {"strategy": "portfolio"}, None),
    "race-deltas": (lambda: random_relation(6, 3, seed=6),
                    {"strategy": "portfolio",
                     "portfolio_racers": DELTA_RACERS}, None),
    "race-proved-optimal": (lambda: instance_by_name("int1").build(),
                            {"strategy": "portfolio",
                             "portfolio_racers": [
                                 {"strategy": "bfs", "max_explored": None,
                                  "fifo_capacity": None},
                                 {"strategy": "best-first",
                                  "max_explored": None,
                                  "fifo_capacity": None}]}, None),
    "sharded-race": (lambda: block_structured_relation([(3, 2), (3, 2)],
                                                       seed=5),
                     {"strategy": "portfolio",
                      "portfolio_racers": "bfs,dfs", "decompose": True},
                     None),
    "budget": (lambda: random_relation(6, 4, seed=1),
               {"max_explored": 3}, None),
    "budget-sharded": (lambda: block_structured_relation([(4, 2), (4, 2)],
                                                         seed=2),
                       {"max_explored": 2}, None),
    "timeout": (lambda: random_relation(6, 4, seed=1),
                {"time_limit_seconds": 0}, None),
    "timeout-sharded": (lambda: block_structured_relation(
        [(4, 2), (4, 2)], seed=3), {"time_limit_seconds": 0}, None),
    "timeout-race": (lambda: instance_by_name("int5").build(),
                     {"strategy": "portfolio", "time_limit_seconds": 0},
                     None),
    "cancel": (lambda: random_relation(6, 4, seed=1),
               {"max_explored": 40}, 12),
    "cancel-sharded": (lambda: block_structured_relation([(4, 2), (4, 2)],
                                                         seed=3),
                       {"max_explored": 30}, 8),
    "cancel-race": (lambda: instance_by_name("int5").build(),
                    {"strategy": "portfolio"}, 6),
    "cancel-first": (lambda: instance_by_name("int1").build(), {}, 1),
    "cancel-timeout-race": (lambda: instance_by_name("int1").build(),
                            {"strategy": "portfolio",
                             "time_limit_seconds": 0}, 1),
}

DIGESTS = {
    "bfs":
        "d51d7bc7a83a3756acc97fa271ac17e8c6530160c70a7dc39b88d0c269a3bb43",
    "dfs":
        "9776d5168ff6149d9e8ff1e66795a8bdf8e1fb9cd95c394be5eed9404eb0e6c5",
    "best-first":
        "0a478850f4012df86094f99c772240eeb482b95c8e715542183c7c87efd4125f",
    "beam":
        "08cbc2b4d3572ca26300fa6840266f6d784fba24ce450198dd1e3f32c1bb67a6",
    "bfs-symmetry":
        "5834f4f3d58fc50c711841f5c427040da7add23804bcdaf99a9fafa4684800d3",
    "dfs-exhaustive":
        "569cb0dc05334c208123189da51a95b1c22008f0a33d6c6a9d10cfb4309f4107",
    "node-path":
        "f25982e70691ffe01bbf7d43a61f5367a5e0a84ac91c109c60af6b17f5389a33",
    "sharded":
        "eeaef0b3e2db688c00f8dcda4669c6a4fa52f90a85c978f47edbebe44dfa1340",
    "sharded-three":
        "6b2e405ff81ab8529e2c409674e9c4057c77e5ef5bb009ff2c4c892bbced6817",
    "race":
        "625f606dc6c11f0ede65b5e1539c08a7b300c6b51c18aeeeee5addeccde5a4aa",
    "race-deltas":
        "74aca4295905e10bc51cc7721b71ba19a3529aef5b0800b1c8e80c6c814ae58c",
    "race-proved-optimal":
        "c64fb5d77a3cd2675c43ca733fe47a414d121e09f66b4edcbed20d57ada65571",
    "sharded-race":
        "1b487dc3f431c441769516ba649eed7b09f05e5a2d3eb97f787480f22ce7e35b",
    "budget":
        "089e29fb25ae06ec42ce243c6d8fc9fed95dffb0678cafbb33baa355665ff9ab",
    "budget-sharded":
        "7161ba0732b1ad369ccc23cf4128e789332a9069fa09682b0805ac8c5582aacc",
    "timeout":
        "e5949bd4409d581e148df723a60343b10a131a4cc63a1c85cedf914ad5078371",
    "timeout-sharded":
        "a6d4435e02defe875ff72f9fe2b89e36e0faeb573b3ac7bb5bb81e111cf9af61",
    "timeout-race":
        "e20a11148728b57f7bb28411044dc80a124d74ea49a771c8bed0538aa3d08b46",
    "cancel":
        "cb718612b3c0b3b5108b9ac5f31cfc21489202a2ce5e123d04f740a7a0efdd9e",
    "cancel-sharded":
        "d583e827485bc8a87adf48c0fb170357d700bd756dbcca49c884be5f8c5ea89b",
    "cancel-race":
        "1ac312e2ed20a445664b182f082a71ca1331c414265a5cabb29c0e080c9821ed",
    "cancel-first":
        "a627b942d70be4909a1f80ec780b5fa46232dc74a055a8002fc006169c6674a0",
    "cancel-timeout-race":
        "47b3c28772e7f9e99204d2a148689cdb1c491cc64bd0799340932a6f002e1f52",
}


def without_wall_times(value):
    """``value`` with every runtime key dropped, however deep."""
    if isinstance(value, dict):
        return {key: without_wall_times(item) for key, item in value.items()
                if key not in WALL_TIMES}
    if isinstance(value, list):
        return [without_wall_times(item) for item in value]
    return value


def stream_row(build, options, trip_at):
    """The digest row of one solve, its trace checked on the way."""
    events = []
    token = CancelToken()

    def observe(event):
        events.append(event)
        if len(events) == trip_at:
            token.cancel()

    result = BrelSolver(BrelOptions(record_trace=True, **options)).solve(
        build(), cancel=token, observer=observe)
    assert result.events == events
    stats = without_wall_times(result.stats.as_dict())
    return (
        [(e.kind, e.depth, e.explored, e.cost, e.best_cost, e.detail)
         for e in events],
        [(i.cost, i.explored) for i in result.improvements],
        sorted(stats.items()),
        result.stopped,
        result.solution.describe(),
        without_wall_times(result.partition),
        without_wall_times(result.portfolio),
    )


def digest(row):
    return hashlib.sha256(repr(row).encode("utf-8")).hexdigest()


def test_every_case_is_pinned():
    assert list(DIGESTS) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_stream(name):
    row = stream_row(*CASES[name])
    stopped = row[3]
    if name.startswith("budget"):
        assert stopped == "budget"
    elif name.startswith("timeout"):
        assert stopped == "timeout"
    elif name.startswith("cancel"):
        assert stopped == "cancelled"
    assert digest(row) == DIGESTS[name]
