"""The three closed-loop workloads, each driven through the public API.

A workload's requests come in *units* (a ``solve`` block, a ``resynth``
round, a ``service`` block).  ``run.py`` sends the units'
requests one at a time from one thread, times each public call, and
never stops inside a unit.  The number of units in a run depends only
on ``--seconds``, so ``quality_cost`` repeats for a given seed; the
traced pass covers the first ``prefix_units`` units.

This module imports the program only inside functions, so the set-up
probe can time ``import repro`` in a fresh process.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, Dict, List, Optional, Tuple

import inputs
import oracle
from inputs import Job

#: Resynthesis options every ``resynth`` request uses.
RESYNTH_OPTIONS = {"passes": 2, "window": 8, "max_explored": 8,
                   "executor": "serial"}


def setup_solve() -> Any:
    import repro
    return repro.Session()


def setup_resynth() -> Tuple[Any, Dict[str, str]]:
    """A session and the BLIF text of every bundled circuit."""
    import repro
    from repro.benchdata.circuits import CIRCUITS
    from repro.network.blif import write_blif
    import repro.resynth  # noqa: F401 -- the operation's entry point
    circuits = {spec.name: write_blif(spec.build()) for spec in CIRCUITS}
    return repro.Session(), circuits


def setup_service(pool: str) -> Any:
    """A worker booted over a disk pool (seeds its memo store from it)."""
    from repro.service import DiskCache, SolveService
    return SolveService(disk=DiskCache(pool))


def check_solution(job: Job, answer: Dict[str, Any]
                   ) -> Tuple[Optional[str], Optional[float]]:
    """Oracle verdict and cost of one solve answer."""
    if not answer["ok"]:
        return "ok=False: %s" % answer["error"], None
    error = oracle.check_sop(answer["sop"], job.num_inputs, job.num_outputs,
                             job.rows)
    return error, answer["cost"]


SETUPS = {"solve": lambda pool: setup_solve(),
          "resynth": lambda pool: setup_resynth(),
          "service": setup_service}


class Workload:
    """Interface ``run.py`` uses; one subclass per workload."""

    name = ""
    prefix_units = 1
    #: Wall seconds one unit took when the benchmark was written (two
    #: cores, Python 3.11); sets how many units ``--seconds`` buys.
    unit_seconds = 1.0
    #: Fewest units in an end-to-end run.
    min_units = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def units_for(self, seconds: float) -> int:
        """Units in a run of ``seconds``: at least the prefix."""
        return max(self.prefix_units, self.min_units,
                   int(round(seconds / self.unit_seconds)))

    def prepare(self) -> None:
        """Untimed, once per run, before any pass."""

    def setup_pool(self) -> Optional[str]:
        """The disk pool set-up probes boot over, if any."""
        return None

    def jobs(self, unit: int) -> List[Job]:
        raise NotImplementedError

    def start_pass(self) -> None:
        """Fresh program state for one pass over the units."""

    def begin_unit(self, unit: int) -> None:
        """Called before each unit's clock starts."""

    def execute(self, job: Job) -> Dict[str, Any]:
        """The timed public call; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, job: Job, answer: Dict[str, Any], op: int
              ) -> Tuple[Optional[str], Optional[float]]:
        """``(error, cost)`` from the benchmark's own oracle."""
        raise NotImplementedError

    def mix_error(self, job: Job, answer: Dict[str, Any]) -> Optional[str]:
        """Self-check that the request exercised what it was meant to."""
        return None

    def counters(self) -> Dict[str, Any]:
        """Program-reported counters of the pass just run."""
        return {}


class SolveWorkload(Workload):
    """``Session.solve`` on one session over novel drawn relations."""

    name = "solve"
    prefix_units = 2
    unit_seconds = 4.3

    def jobs(self, unit: int) -> List[Job]:
        return inputs.solve_block(self.seed, unit)

    def start_pass(self) -> None:
        from repro import SolveRequest
        self._request = SolveRequest.from_dict
        self.session = setup_solve()

    def execute(self, job: Job) -> Dict[str, Any]:
        report = self.session.solve(self._request(job.request))
        return {"ok": report.ok, "sop": report.sop, "cost": report.cost,
                "error": report.error}

    def check(self, job: Job, answer: Dict[str, Any], op: int
              ) -> Tuple[Optional[str], Optional[float]]:
        return check_solution(job, answer)

    def counters(self) -> Dict[str, Any]:
        return {"session_cache_hits": self.session.cache_hits}


class ResynthWorkload(Workload):
    """``resynthesize`` over every bundled circuit, one session a round."""

    name = "resynth"
    prefix_units = 1
    unit_seconds = 6.0
    #: 5 rounds = 110 operations, which leave 10 beyond p90.
    min_units = 5

    def prepare(self) -> None:
        _, self.circuits = setup_resynth()
        self.netlists = {name: oracle.Netlist(text)
                         for name, text in self.circuits.items()}

    def jobs(self, unit: int) -> List[Job]:
        jobs = []
        for name in inputs.resynth_round(self.seed, unit,
                                         sorted(self.circuits)):
            request = {"circuit": {"kind": "blif",
                                   "text": self.circuits[name]}}
            request.update(RESYNTH_OPTIONS)
            jobs.append(Job(request, 0, 0, [], name))
        return jobs

    def start_pass(self) -> None:
        import repro
        import repro.resynth
        self._resynth = repro.resynth
        self._new_session = repro.Session
        self.session_hits = 0
        self.reports: List[Dict[str, Any]] = []
        self.session = None

    def begin_unit(self, unit: int) -> None:
        if self.session is not None:
            self.session_hits += self.session.cache_hits
        self.session = self._new_session()

    def execute(self, job: Job) -> Dict[str, Any]:
        rs = self._resynth
        # Looked up per call so a traced pass sees the wrapped function.
        report = rs.resynthesize(rs.ResynthRequest.from_dict(job.request),
                                 session=self.session)
        self.reports.append({key: getattr(report, key) for key in (
            "relations_mined", "relations_solved", "rewrites_accepted",
            "memo_hits", "memo_misses")})
        return {"ok": report.ok, "blif": report.blif, "error": report.error}

    def check(self, job: Job, answer: Dict[str, Any], op: int
              ) -> Tuple[Optional[str], Optional[float]]:
        if not answer["ok"]:
            return "ok=False: %s" % answer["error"], None
        return oracle.check_blif(self.netlists[job.kind], answer["blif"],
                                 seed="blif:%d:%d" % (self.seed, op))

    def counters(self) -> Dict[str, Any]:
        hits = self.session_hits + (self.session.cache_hits
                                    if self.session is not None else 0)
        return {"session_cache_hits": hits, "resynth": self.reports}


class ServiceWorkload(Workload):
    """An in-process ``SolveService`` over a prewarmed disk pool."""

    name = "service"
    prefix_units = 10
    unit_seconds = 1.3

    def prepare(self) -> None:
        from repro.service import prewarm
        corpus = inputs.service_corpus()
        manifest = os.path.join(self.workdir, "corpus.json")
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump([job.request for job in corpus], handle)
        self.template = os.path.join(self.workdir, "pool")
        summary = prewarm(manifest, self.template)
        if not summary["ok"]:
            raise RuntimeError("prewarming the disk pool failed")
        self.stream = inputs.ServiceStream(self.seed, corpus)
        self._blocks: List[List[Job]] = []
        self._passes = 0

    def setup_pool(self) -> Optional[str]:
        return self.template

    def units_for(self, seconds: float) -> int:
        return min(super().units_for(seconds), self.stream.max_blocks())

    def jobs(self, unit: int) -> List[Job]:
        while len(self._blocks) <= unit:
            self._blocks.append(self.stream.block())
        return self._blocks[unit]

    def start_pass(self) -> None:
        self._passes += 1
        pool = os.path.join(self.workdir, "pool-%d" % self._passes)
        shutil.copytree(self.template, pool)
        self.service = setup_service(pool)

    def execute(self, job: Job) -> Dict[str, Any]:
        report, tier = self.service.solve(job.request)
        return {"ok": report["ok"], "sop": report["sop"],
                "cost": report["cost"], "error": report["error"],
                "tier": tier}

    def check(self, job: Job, answer: Dict[str, Any], op: int
              ) -> Tuple[Optional[str], Optional[float]]:
        return check_solution(job, answer)

    def mix_error(self, job: Job, answer: Dict[str, Any]) -> Optional[str]:
        """Self-check of the traffic mix: each request hits its tier."""
        if answer["tier"] != job.kind:
            return "a %s request was served by the %s tier" % (
                job.kind, answer["tier"])
        return None

    def counters(self) -> Dict[str, Any]:
        stats = self.service.stats()
        return {"session_cache_hits": stats["session"]["cache_hits"],
                "service_tiers": stats["tiers"], "disk": stats["disk"]}


WORKLOADS = {cls.name: cls for cls in (SolveWorkload, ResynthWorkload,
                                       ServiceWorkload)}
