"""Spans and work counts taken from outside the checker.

The benchmark does not change the program.  It replaces the public
functions and methods at each layer boundary with thin wrappers that
record a span (name, start, end, parent) and count the work the call
reports in its result.  :class:`Tracer` keeps the spans in memory and
writes them out when the run ends.

Two depths:

* ``count`` wraps only the few coarse calls whose results carry work
  counts that no checker result exposes (SAT calls, Bebop path edges,
  CEGAR iterations, trace searches that give up).  It runs in every
  measured run: a SAT call costs milliseconds, so one counter bump is
  lost in the noise, and the determinism guard needs these counts.
* ``full`` adds a span at every layer boundary named in the README,
  including the hot ``Freezer.freeze`` and ``World.clone``, plus the
  interpreter's garbage-collector pauses.  Only the traced run uses it.

A layer's self time is the sum of its spans' durations minus the time
their direct child spans cover.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Modules imported before patching, so every ``from x import f``
#: reference to a wrapped function exists when the sweep runs.
MODULES = (
    "repro.lang",
    "repro.lang.lower",
    "repro.cfg.build",
    "repro.core.checker",
    "repro.core.race",
    "repro.core.transform",
    "repro.lazy.transform",
    "repro.rounds.transform",
    "repro.seqcheck.explicit",
    "repro.seqcheck.interp",
    "repro.seqcheck.cegar",
    "repro.seqcheck.abstraction",
    "repro.seqcheck.bebop",
    "repro.seqcheck.decide",
    "repro.seqcheck.sat",
    "repro.concheck.interleave",
    "repro.fuzz.oracle",
    "repro.campaign.cache",
    "repro.campaign.journal",
    "repro.campaign.telemetry",
    "repro.campaign.runtime",
    "repro.campaign.scheduler",
    "repro.campaign.worker",
)

#: Span names, in the order they are reported.
SPANS = (
    "lang.parse", "lang.lower", "transform", "cfg.build", "explicit",
    "state.freeze", "concheck", "cegar", "cegar.abstract", "cegar.sat",
    "cegar.bebop", "cegar.trace", "campaign.key", "campaign.cache_load",
    "campaign.cache_get", "campaign.cache_put", "campaign.telemetry",
    "campaign.journal", "campaign.pool_wait", "gc",
)


class Tracer:
    """Span recorder plus per-phase aggregates.

    Spans live in flat typed arrays (id, name, start, end, parent id):
    about 40 bytes each, so a million spans cost 40 MB and no garbage
    collector work.  ``phase`` switches the aggregate that closing spans
    and counters add to; the spans themselves are kept across phases.
    """

    def __init__(self) -> None:
        self.sid = array("q")
        self.nid = array("b")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self._seq = 0
        self._stack: List[int] = []
        self._stack_nid: List[int] = []
        self._ids = {name: i for i, name in enumerate(SPANS)}
        self.phases: Dict[str, Tuple[List[float], List[float], Dict[str, float]]] = {}
        self.phase_marks: List[Tuple[str, int]] = []
        self.set_phase("setup")
        self._gc_t0 = 0.0
        self._patches: List[Tuple[object, str, object]] = []

    # -- aggregates -------------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        if phase not in self.phases:
            self.phases[phase] = ([0.0] * len(SPANS), [0.0] * len(SPANS), {})
        self._incl, self._child, self.counts = self.phases[phase]
        self.phase_marks.append((phase, len(self.sid)))

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_time(self, phase: str, name: str) -> float:
        incl, child, _ = self.phases[phase]
        i = self._ids[name]
        return incl[i] - child[i]

    def incl_time(self, phase: str, name: str) -> float:
        return self.phases[phase][0][self._ids[name]]

    def counts_of(self, phase: str) -> Dict[str, float]:
        return dict(self.phases[phase][2])

    # -- spans ------------------------------------------------------------------

    def _record(self, sid: int, nid: int, t0: float, t1: float) -> None:
        stack = self._stack
        self.sid.append(sid)
        self.nid.append(nid)
        self.t0.append(t0)
        self.t1.append(t1)
        if stack:
            self.parent.append(stack[-1])
            self._child[self._stack_nid[-1]] += t1 - t0
        else:
            self.parent.append(-1)
        self._incl[nid] += t1 - t0

    def span_wrapper(self, name: str, fn: Callable,
                     after: Optional[Callable] = None) -> Callable:
        """``fn`` with a span named ``name`` around each call; ``after``
        sees ``(args, result)`` and records counts."""
        nid = self._ids[name]
        stack, stack_nid, record = self._stack, self._stack_nid, self._record

        def traced(*args, **kwargs):
            sid = self._seq
            self._seq = sid + 1
            stack.append(sid)
            stack_nid.append(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stack_nid.pop()
                record(sid, nid, t0, t1)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, fn: Callable, after: Callable) -> Callable:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def _on_gc(self, phase: str, info: dict) -> None:
        # A collection runs at one point of the interrupted code, so the
        # pause is recorded whole at "stop", as a child of the open span.
        if phase == "start":
            self._gc_t0 = perf_counter()
            return
        sid = self._seq
        self._seq = sid + 1
        self._record(sid, self._ids["gc"], self._gc_t0, perf_counter())
        self.count("gc.collections")

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` and every ``from module import attr``
        reference to it in the loaded ``repro`` modules."""
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapper)

    def _patch_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        self._patch(cls, attr, make(cls.__dict__[attr]))

    def install(self, depth: str) -> None:
        """Wrap the layer boundaries (``depth`` is ``count`` or ``full``)."""
        for m in MODULES:
            importlib.import_module(m)
        from repro.seqcheck import cegar

        def after_bebop(args, r):
            self.count("cegar.path_edges", r.path_edges)

        def after_trace(args, r):
            self.count("cegar.trace_searches")
            if r is None:
                self.count("cegar.trace_gaveup")

        def after_sat(args, r):
            self.count("cegar.sat_calls")

        def after_cegar(args, r):
            self.count("cegar.iterations", r.rounds)

        if depth == "count":
            self._patch_function("repro.seqcheck.sat", "solve",
                                 lambda f: self.count_wrapper(f, after_sat))
            self._patch_function("repro.seqcheck.bebop", "check_boolean_program",
                                 lambda f: self.count_wrapper(f, after_bebop))
            self._patch_function("repro.seqcheck.bebop", "find_error_trace",
                                 lambda f: self.count_wrapper(f, after_trace))
            self._patch_method(cegar.CegarChecker, "check",
                               lambda f: self.count_wrapper(f, after_cegar))
            return
        assert depth == "full", depth
        self._install_full(after_sat, after_bebop, after_trace, after_cegar)
        gc.callbacks.append(self._on_gc)

    def _install_full(self, after_sat, after_bebop, after_trace, after_cegar) -> None:
        from repro.campaign.cache import ResultCache
        from repro.campaign.journal import JobJournal
        from repro.campaign.telemetry import Telemetry
        from repro.concheck.interleave import ConcurrentChecker
        from repro.core.race import RaceTransformer
        from repro.core.transform import KissTransformer
        from repro.lazy.transform import LazyTransformer
        from repro.rounds.transform import RoundRobinTransformer
        from repro.seqcheck.abstraction import Abstractor
        from repro.seqcheck.cegar import CegarChecker
        from repro.seqcheck.explicit import SequentialChecker
        from repro.seqcheck.interp import Freezer, World

        span = self.span_wrapper
        transformed: Dict[int, object] = {}

        def after_transform(args, prog):
            transformed[id(prog)] = prog

        def after_cfg(args, pcfg):
            if transformed.pop(id(args[0]), None) is not None:
                self.count("transform.cfg_nodes", pcfg.size())

        def after_explicit(args, r):
            self.count("explicit.states", r.stats.states)
            self.count("explicit.transitions", r.stats.transitions)

        def after_concheck(args, r):
            self.count("concheck.states", r.stats.states)

        def after_freeze(args, r):
            self.count("state.freeze_calls")

        def after_clone(args, r):
            self.count("state.world_clones")

        self._patch_function("repro.lang", "parse", lambda f: span("lang.parse", f))
        self._patch_function("repro.lang.lower", "lower_program", lambda f: span("lang.lower", f))
        for cls in (KissTransformer, RaceTransformer, LazyTransformer, RoundRobinTransformer):
            self._patch_method(cls, "transform", lambda f: span("transform", f, after_transform))
        self._patch_function("repro.cfg.build", "build_program_cfg",
                             lambda f: span("cfg.build", f, after_cfg))
        self._patch_method(SequentialChecker, "check", lambda f: span("explicit", f, after_explicit))
        self._patch_method(Freezer, "freeze", lambda f: span("state.freeze", f, after_freeze))
        self._patch_method(World, "clone", lambda f: self.count_wrapper(f, after_clone))
        self._patch_method(ConcurrentChecker, "check", lambda f: span("concheck", f, after_concheck))
        self._patch_method(CegarChecker, "check", lambda f: span("cegar", f, after_cegar))
        self._patch_method(Abstractor, "abstract", lambda f: span("cegar.abstract", f))
        self._patch_function("repro.seqcheck.sat", "solve", lambda f: span("cegar.sat", f, after_sat))
        self._patch_function("repro.seqcheck.bebop", "check_boolean_program",
                             lambda f: span("cegar.bebop", f, after_bebop))
        self._patch_function("repro.seqcheck.bebop", "find_error_trace",
                             lambda f: span("cegar.trace", f, after_trace))
        self._patch_function("repro.campaign.cache", "cache_key", lambda f: span("campaign.key", f))
        self._patch_method(ResultCache, "_load", lambda f: span("campaign.cache_load", f))
        self._patch_method(ResultCache, "get", lambda f: span("campaign.cache_get", f))
        self._patch_method(ResultCache, "put", lambda f: span("campaign.cache_put", f))
        self._patch_method(Telemetry, "emit", lambda f: span("campaign.telemetry", f))
        self._patch_method(JobJournal, "_append", lambda f: span("campaign.journal", f))
        self._patch_function("repro.campaign.runtime", "wait", lambda f: span("campaign.pool_wait", f))

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output -----------------------------------------------------------------

    def write(self, path: str, extra: dict) -> None:
        """Write the spans: a JSON header line, then the five columns as
        raw native arrays (``sid`` int64, ``name`` int8 index into
        ``names``, ``start``/``end`` float64 seconds of
        ``time.perf_counter``, ``parent`` int64 span id or -1)."""
        header = dict(extra, names=list(SPANS), spans=len(self.sid),
                      phases=self.phase_marks,
                      columns=["sid:q", "name:b", "start:d", "end:d", "parent:q"])
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for col in (self.sid, self.nid, self.t0, self.t1, self.parent):
                col.tofile(f)
        os.replace(tmp, path)
