"""The four workloads: inputs, one round of checks, and outcome checks.

A workload builds its inputs in :meth:`Workload.setup`, then the timed
phase repeats :meth:`Workload.round` — one pass over the same fixed
batch of checks — and :meth:`Workload.verify` checks the first round's
outcomes after the timed phase, against references that do not come
from the checker being measured.  Every budget is a state or round
limit, never a wall-clock timeout, so each round does identical work.

The ``--seed`` orders the checks of a round.  The programs themselves
are fixed (see README: a batch drawn per seed makes the cost of a round
depend on the seed far more than on the code).
"""

from __future__ import annotations

import ast
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: The message of the fault counted as failed in ``cegar``: Bebop's
#: explicit trace search (``repro.seqcheck.bebop.find_error_trace``)
#: gives up after 500k configurations and CEGAR reports divergence.
TRACE_FAULT = "abstract error not reproducible explicitly"


@dataclass
class Round:
    """One pass over the batch."""

    #: wall seconds of each check, in the order they ran.
    times: List[float]
    #: check id -> outcome summary (compared across rounds).
    outcomes: Dict[str, tuple]
    #: work counts the determinism guard compares across rounds and runs.
    counts: Dict[str, int]
    #: layer numbers that are not spans (cache hits, retained events).
    layer: Dict[str, float] = field(default_factory=dict)
    #: full results of the checks, kept for :meth:`Workload.verify`.
    results: Dict[str, object] = field(default_factory=dict)


@dataclass
class Verdict:
    """Outcome checks of one round: mismatches and the named fault."""

    mismatches: List[str] = field(default_factory=list)
    faults: List[str] = field(default_factory=list)


class Workload:
    name = ""
    #: percentile reported as ``check_tail_ms``; ``min_rounds`` keeps at
    #: least ten checks above it and at least 40 checks per run.
    tail_pct = 90
    min_rounds = 1
    #: set-up-only processes a measured run starts before the timed one,
    #: and again after it; ``setup_s`` is the median over all of them.
    setup_only_each_side = 3

    def __init__(self, root: str, work: str, seed: int):
        self.root = root
        self.work = work
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, tracer, clock) -> Round:
        """One pass over the batch; ``clock`` times each check."""
        raise NotImplementedError

    def verify(self, first: Round) -> Verdict:
        raise NotImplementedError

    def setup_layer(self) -> Dict[str, float]:
        """Layer numbers of the set-up phase (only ``campaign-rerun``)."""
        return {}

    def _order(self, items: list) -> list:
        items = list(items)
        random.Random(self.seed).shuffle(items)
        return items


# ---------------------------------------------------------------------------
# race-sweep: Table 1 on a driver subset
# ---------------------------------------------------------------------------


class RaceSweep(Workload):
    """Figure 5 race checking, ``ts = 0``, every device-extension field
    of four corpus drivers, through the campaign engine with one
    in-process worker and no cache (the body of ``run_corpus_campaign``,
    with a result callback for per-check times)."""

    name = "race-sweep"
    DRIVERS = ("tracedrv", "imca", "toaster/toastmon", "moufiltr")
    tail_pct = 80
    min_rounds = 2

    def setup(self) -> None:
        from repro.campaign import corpus_jobs
        from repro.drivers.corpus import spec_by_name

        from repro.campaign import cache_key
        from repro.campaign.worker import _parse

        self.specs = [spec_by_name(n) for n in self.DRIVERS]
        self.jobs = self._order(corpus_jobs(self.specs))
        # Parse each driver here, so set-up covers parsing and every
        # round does the same work: fill the engine's per-process memos
        # (the cache key's canonical form, the worker's parsed program).
        for job in self.jobs:
            cache_key(job)
            _parse(job.source)

    def round(self, tracer, clock) -> Round:
        from repro.campaign import CampaignConfig, CampaignScheduler

        times: List[float] = []
        clock.start()
        results = CampaignScheduler(CampaignConfig(jobs=1)).run(
            self.jobs, on_result=lambda r: clock.done(times))
        clock.finish()
        outcomes = {r.job_id: (r.verdict, r.error_kind, r.states, r.transitions) for r in results}
        counts = {
            "states": sum(r.states for r in results),
            "transitions": sum(r.transitions for r in results),
            "checks_emitted": sum(r.checks_emitted for r in results),
            "checks_pruned": sum(r.checks_pruned for r in results),
        }
        layer = {"race.checks_emitted": counts["checks_emitted"],
                 "race.checks_pruned": counts["checks_pruned"]}
        return Round(times, outcomes, counts, layer, {"results": results})

    def verify(self, first: Round) -> Verdict:
        from repro.campaign import results_to_driver_runs
        from repro.drivers.corpus import PAPER_TABLE1
        from repro.drivers.spec import FieldKind

        out = Verdict()
        kinds = {(s.name, f.name): f.kind for s in self.specs for f in s.fields}
        results = first.results["results"]
        for r in results:
            kind = kinds[(r.driver, r.target.split(".", 1)[1])]
            if kind.races_in_permissive:
                want = "race"
            elif kind is FieldKind.UNRESOLVED:
                want = "unresolved"
            else:
                want = "no-race"
            if r.table_verdict != want:
                out.mismatches.append(f"{r.job_id}: {r.table_verdict}, built as {kind.value}")
        for run in results_to_driver_runs(results):
            _, fields, races, no_races = PAPER_TABLE1[run.name]
            got = (run.races, run.no_races, run.unresolved)
            want = (races, no_races, fields - races - no_races)
            if got != want:
                out.mismatches.append(f"{run.name}: totals {got}, Table 1 says {want}")
        return out


# ---------------------------------------------------------------------------
# fuzz-oracle: differential checks of generated programs
# ---------------------------------------------------------------------------


class FuzzOracle(Workload):
    """The seed-0 batch of 40 generated programs (default generator
    configuration), each checked twice by ``differential_check``: KISS
    against balanced interleavings, and lazy K=2 against all
    interleavings."""

    name = "fuzz-oracle"
    PROGRAMS = 40
    tail_pct = 90
    min_rounds = 2

    def setup(self) -> None:
        from repro.fuzz.gen import GenConfig, ProgramGenerator
        from repro.lang import parse

        batch = ProgramGenerator(GenConfig()).generate_batch(self.PROGRAMS, seed=0)
        self.programs = {g.seed: (parse(g.source), g.n_forks) for g in batch}
        self.checks = self._order([(s, strat) for s in self.programs for strat in ("kiss", "lazy")])

    def round(self, tracer, clock) -> Round:
        from repro.fuzz.oracle import differential_check

        times, outcomes, results = [], {}, {}
        states = 0
        for seed, strategy in self.checks:
            prog, forks = self.programs[seed]
            clock.start()
            v = differential_check(prog, max_ts=forks, strategy=strategy, rounds=2)
            clock.done(times)
            cid = f"gen-{seed}/{strategy}"
            outcomes[cid] = (v.concurrent, v.sequential, v.divergence, v.con_states, v.seq_states)
            results[cid] = v
            states += v.con_states + v.seq_states
        return Round(times, outcomes, {"states": states}, {}, results)

    def verify(self, first: Round) -> Verdict:
        out = Verdict()
        for cid, v in sorted(first.results.items()):
            if v.diverged:
                out.mismatches.append(f"{cid}: {v.describe()}")
            elif not v.conclusive:
                out.mismatches.append(f"{cid}: inconclusive ({v.concurrent}/{v.sequential})")
            elif v.sequential == "error" and v.concurrent != "error":
                out.mismatches.append(f"{cid}: sequential error without a concurrent error")
        return out


# ---------------------------------------------------------------------------
# cegar: the predicate-abstraction backend
# ---------------------------------------------------------------------------


def e10_cases(root: str) -> Dict[str, str]:
    """The E10 programs, read from ``benchmarks/bench_backends.py``
    without importing it (it needs pytest)."""
    path = os.path.join(root, "benchmarks", "bench_backends.py")
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CASES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise RuntimeError(f"no CASES in {path}")


class Cegar(Workload):
    """``Kiss(backend="cegar")`` on the four E10 programs
    (``cegar_rounds`` 6), the seed-0 batch of 40 single-worker programs
    with two statements per region (lazy K=2), and the KISS forms of two
    pinned corpus programs."""

    name = "cegar"
    SMALL = 40
    CORPUS = (("safe-locked.kp", 2), ("three-switch.kp", 1))
    #: what each E10 program is built to do: the verdict it must get, or
    #: for diverging-parity the one it must never get (g stays even).
    E10_EXPECT = {"straightline-safe": "safe", "branching-bug": "error",
                  "loop-invariant": "safe", "diverging-parity": "not error"}
    tail_pct = 75
    min_rounds = 1

    def setup(self) -> None:
        import json

        from repro.fuzz.gen import GenConfig, ProgramGenerator
        from repro.lang import parse

        checks = []
        for name, src in e10_cases(self.root).items():
            checks.append((f"e10/{name}", parse(src), dict(max_ts=0, cegar_rounds=6)))
        small = ProgramGenerator(GenConfig(max_workers=1, max_stmts=2)).generate_batch(self.SMALL, seed=0)
        for g in small:
            checks.append((f"small/{g.seed}", parse(g.source),
                           dict(max_ts=g.n_forks, strategy="lazy", rounds=2)))
        corpus = os.path.join(self.root, "tests", "fuzz_corpus")
        with open(os.path.join(corpus, "manifest.json")) as f:
            manifest = {p["file"]: p for p in json.load(f)["programs"]}
        self.corpus_expect = {}
        for fname, ts in self.CORPUS:
            with open(os.path.join(corpus, fname)) as f:
                checks.append((f"corpus/{fname}", parse(f.read()), dict(max_ts=ts)))
            self.corpus_expect[f"corpus/{fname}"] = manifest[fname]["sequential"]
        self.checks = self._order(checks)

    def round(self, tracer, clock) -> Round:
        from repro.core.checker import Kiss

        times, outcomes, results = [], {}, {}
        before = dict(tracer.counts)
        for cid, prog, kw in self.checks:
            clock.start()
            r = Kiss(backend="cegar", **kw).check_assertions(prog)
            clock.done(times)
            outcomes[cid] = (r.verdict, r.backend_result.message)
            results[cid] = outcomes[cid]
        counts = {k: int(tracer.counts.get(k, 0) - before.get(k, 0))
                  for k in ("cegar.sat_calls", "cegar.path_edges", "cegar.iterations",
                            "cegar.trace_gaveup")}
        return Round(times, outcomes, counts, {}, results)

    def verify(self, first: Round) -> Verdict:
        from repro.cfg.build import build_program_cfg
        from repro.concheck import check_concurrent
        from repro.core.checker import Kiss
        from repro.lang.lower import clone_program, is_core_program, lower_program
        from repro.seqcheck.explicit import SequentialChecker

        out = Verdict()
        programs = {cid: (prog, kw) for cid, prog, kw in self.checks}
        for cid, (verdict, message) in sorted(first.results.items()):
            if TRACE_FAULT in message:
                out.faults.append(f"{cid}: {message}")
                continue
            name = cid.split("/", 1)[1]
            want = self.E10_EXPECT.get(name) if cid.startswith("e10/") else self.corpus_expect.get(cid)
            if want == "not error" and verdict == "error":
                out.mismatches.append(f"{cid}: error, but the program is built safe")
            elif want in ("safe", "error") and verdict in ("safe", "error") and verdict != want:
                out.mismatches.append(f"{cid}: {verdict}, built to be {want}")
            if verdict not in ("safe", "error"):
                continue
            prog, kw = programs[cid]
            sequential = Kiss(backend="cegar", **kw).sequentialize(prog)
            explicit = SequentialChecker(build_program_cfg(sequential), max_states=500_000).check()
            if str(explicit.status) != verdict:
                out.mismatches.append(f"{cid}: cegar {verdict}, explicit {explicit.status}")
            if verdict == "error":
                core = prog if is_core_program(prog) else lower_program(clone_program(prog))
                con = check_concurrent(core, max_states=500_000)
                if str(con.status) != "error":
                    out.mismatches.append(f"{cid}: cegar error, concurrent {con.status}")
        return out


# ---------------------------------------------------------------------------
# campaign-rerun: a warm re-run through the engine
# ---------------------------------------------------------------------------


class CampaignRerun(Workload):
    """Tiny differential fuzz jobs through ``CampaignScheduler`` with the
    result cache, the journal and a telemetry file on.  Set-up runs the
    batch cold on a pool of ``nproc`` workers; each timed round re-runs
    it warm in a fresh scheduler, as a re-run in a new process would.
    The batch holds more distinct programs than the canonical-form memo
    (``CANONICAL_MEMO_CAP``, 256 when this was written), so every hit
    re-derives its cache key."""

    name = "campaign-rerun"
    PROGRAMS = 320
    #: p99 moves by half its median between runs (a few slow hits per
    #: thousand); p98 is the highest percentile that holds still.
    tail_pct = 98
    min_rounds = 4
    #: each set-up is a cold run of about 3 s, so fewer of them.
    setup_only_each_side = 1

    def setup(self) -> None:
        from repro.campaign import CampaignConfig, CampaignScheduler, CheckJob
        from repro.fuzz.gen import GenConfig, ProgramGenerator

        gen = ProgramGenerator(GenConfig(max_workers=1, max_stmts=2, max_depth=1))
        sources: Dict[str, Tuple[int, int]] = {}
        seed = 0
        while len(sources) < self.PROGRAMS:
            g = gen.generate(seed)
            sources.setdefault(g.source, (seed, g.n_forks))
            seed += 1
        self.jobs = self._order([
            CheckJob(job_id=f"gen-{s}", driver="fuzz", source=src, prop="fuzz",
                     config={"max_ts": forks, "max_states": 50_000})
            for src, (s, forks) in sources.items()
        ])
        self.cache_dir = os.path.join(self.work, "cache")
        self.journal = os.path.join(self.work, "journal.jsonl")
        self.config = dict(jobs=os.cpu_count() or 1, cache_dir=self.cache_dir,
                           journal_path=self.journal)
        sched = CampaignScheduler(CampaignConfig(
            telemetry_path=os.path.join(self.work, "cold.jsonl"), **self.config))
        self.cold = sched.run(self.jobs)
        self.cold_retries = len(sched.last_telemetry.of_kind("job_retry"))
        _wait_for_workers()

    def setup_layer(self) -> Dict[str, float]:
        return {"campaign.retries": self.cold_retries}

    def round(self, tracer, clock) -> Round:
        from repro.campaign import CampaignConfig, CampaignScheduler

        tel_path = os.path.join(self.work, "warm.jsonl")
        times: List[float] = []
        clock.start()
        sched = CampaignScheduler(CampaignConfig(telemetry_path=tel_path, **self.config))
        results = sched.run(self.jobs, on_result=lambda r: clock.done(times))
        clock.finish()
        outcomes = {r.job_id: (r.verdict, r.cache_hit) for r in results}
        hits, misses = sched.cache.hits, sched.cache.misses
        layer = {"campaign.cache_hits": hits, "campaign.cache_misses": misses,
                 "campaign.events_retained": len(sched.last_telemetry.events)}
        return Round(times, outcomes, {"cache_hits": hits, "cache_misses": misses},
                     layer, {"results": results})

    def verify(self, first: Round) -> Verdict:
        from repro.campaign.journal import replay

        out = Verdict()
        for c in self.cold:
            if c.verdict != "safe":
                out.mismatches.append(f"{c.job_id}: cold run {c.verdict} ({c.detail})")
        warm = {r.job_id: r for r in first.results["results"]}
        for c in self.cold:
            w = warm[c.job_id]
            if w.verdict != c.verdict or not w.cache_hit:
                out.mismatches.append(
                    f"{c.job_id}: warm {w.verdict} (hit={w.cache_hit}), cold {c.verdict}")
        if first.counts["cache_hits"] != len(self.jobs):
            out.mismatches.append(f"warm run: {first.counts['cache_hits']} hits for {len(self.jobs)} jobs")
        owed = replay(self.journal).incomplete
        if owed:
            out.mismatches.append(f"journal replay of the cold run owes {owed} jobs")
        return out


def _wait_for_workers(limit_s: float = 30.0) -> None:
    """The engine shuts its pool down without waiting; wait here so no
    worker outlives the set-up phase."""
    deadline = time.monotonic() + limit_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


WORKLOADS = {w.name: w for w in (RaceSweep, FuzzOracle, Cegar, CampaignRerun)}
