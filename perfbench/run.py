"""Benchmark entry point: one workload per call, or the steadiness mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady --seconds S

Run from the root of a checkout (the directory holding ``src/repro``).
A measured call starts fresh processes in turn: seven, or three on
``campaign-rerun``, whose set-up is a whole cold run.  All but the
middle one only set up (imports, inputs, parsing and, for
``campaign-rerun``, the cold run) and report their set-up time; the
middle one sets up the same way and then repeats whole rounds of the
workload's checks until ``--seconds`` have passed and the workload's
minimum round count is reached.  ``setup_s`` is the median of all the
set-up times.  Check times are scaled by the machine-speed probe of
``clock.py``.  The last line of standard output is the result as one
JSON object; progress, mismatches and the unscaled figures go to
standard error.

``--trace 1`` starts one process only.  It alternates untraced and
traced rounds (after one untraced warm-up round, on workloads whose
rounds are short) and reports the per-layer metrics from the traced
ones, plus the tracing overhead.  The spans go
to ``.perfbench-work/trace-<workload>.bin`` (layout in ``tracing.py``).

Work counts (states, transitions, SAT calls, path edges, cache hits)
must repeat exactly: every round against the first, and every run
against earlier runs of the same workload, seed and source tree, each
under its own random ``PYTHONHASHSEED``.  A difference stops the run
with exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import secrets
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
COUNTS_STORE = os.path.join(WORK, "counts.json")
#: whole-run limit: a child that has not ended by then is killed.
RUN_LIMIT_S = 175.0
#: runs per workload in the steadiness mode.
STEADY_RUNS = 10
END_TO_END = {"checks_per_s", "check_p50_ms", "check_tail_ms", "peak_rss_mb", "setup_s"}

#: per-layer metric -> where its value comes from: ``self:<span>`` self
#: seconds per traced round, ``count:<name>`` per traced round,
#: ``rate:<count>/<span>`` a count over the span's inclusive time,
#: ``setup-self:<span>`` and ``setup:<name>`` once per set-up (input
#: parsing, and the cold run of ``campaign-rerun``), ``overhead`` the
#: tracing overhead.  Names
#: and units are declared in ``BENCHMARK.json``.
PER_LAYER = {
    "lang.parse_s": "self:lang.parse",
    "lang.lower_s": "self:lang.lower",
    "lang.setup_parse_s": "setup-self:lang.parse",
    "lang.setup_lower_s": "setup-self:lang.lower",
    "transform.s": "self:transform",
    "transform.cfg_nodes": "count:transform.cfg_nodes",
    "race.checks_emitted": "count:race.checks_emitted",
    "race.checks_pruned": "count:race.checks_pruned",
    "cfg.build_s": "self:cfg.build",
    "explicit.s": "self:explicit",
    "explicit.states": "count:explicit.states",
    "explicit.transitions": "count:explicit.transitions",
    "explicit.states_per_s": "rate:explicit.states/explicit",
    "state.freeze_s": "self:state.freeze",
    "state.freeze_calls": "count:state.freeze_calls",
    "state.world_clones": "count:state.world_clones",
    "concheck.s": "self:concheck",
    "concheck.states": "count:concheck.states",
    "cegar.s": "self:cegar",
    "cegar.iterations": "count:cegar.iterations",
    "cegar.abstract_s": "self:cegar.abstract",
    "cegar.sat_s": "self:cegar.sat",
    "cegar.sat_calls": "count:cegar.sat_calls",
    "cegar.bebop_s": "self:cegar.bebop",
    "cegar.path_edges": "count:cegar.path_edges",
    "cegar.trace_s": "self:cegar.trace",
    "cegar.trace_gaveup": "count:cegar.trace_gaveup",
    "campaign.key_s": "self:campaign.key",
    "campaign.cache_load_s": "self:campaign.cache_load",
    "campaign.cache_get_s": "self:campaign.cache_get",
    "campaign.telemetry_s": "self:campaign.telemetry",
    "campaign.cache_put_s": "setup-self:campaign.cache_put",
    "campaign.journal_s": "setup-self:campaign.journal",
    "campaign.pool_wait_s": "setup-self:campaign.pool_wait",
    "campaign.retries": "setup:campaign.retries",
    "campaign.cache_hits": "count:campaign.cache_hits",
    "campaign.cache_misses": "count:campaign.cache_misses",
    "campaign.events_retained": "count:campaign.events_retained",
    "gc.pause_s": "self:gc",
    "gc.collections": "count:gc.collections",
    "trace.overhead_pct": "overhead",
}


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# child process: set-up, and the timed phase
# ---------------------------------------------------------------------------


def child(args) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro  # noqa: F401  (set-up time covers importing the checker)

    from clock import Clock
    from tracing import Tracer

    tracer = Tracer()
    # the traced run traces its set-up too (the cold run of campaign-rerun)
    depth = "full" if args.trace else "count"
    tracer.install(depth)
    wl = WORKLOADS[args.workload](ROOT, args.work, args.seed)
    wl.setup()
    setup_s = time.time() - args.spawned_at
    setup = {"setup_s": setup_s}
    if args.role == "setup":
        return setup

    clock = Clock()

    rounds = []
    round_s: Dict[str, List[float]] = {"warmup": [], "plain": [], "traced": []}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if args.trace:
            # untraced and traced rounds in turn, after an untraced
            # warm-up round where rounds are short enough (min_rounds > 1)
            if elapsed >= args.seconds and round_s["plain"] and round_s["traced"]:
                break
            if not rounds and wl.min_rounds > 1:
                mode = "warmup"
            else:
                mode = "traced" if len(round_s["traced"]) < len(round_s["plain"]) else "plain"
            want = "full" if mode == "traced" else "count"
            if want != depth:
                tracer.uninstall()
                tracer.install(want)
                depth = want
        else:
            if elapsed >= args.seconds and len(rounds) >= wl.min_rounds:
                break
            mode = "plain"
        tracer.set_phase(mode)
        t0, p0 = time.perf_counter(), clock.probe_s
        r = wl.round(tracer, clock)
        round_s[mode].append(time.perf_counter() - t0 - (clock.probe_s - p0))
        if rounds:
            r.results = {}  # verification uses the first round only
        rounds.append((mode, r))
        print(f"perfbench: {args.workload} round {len(rounds)} ({mode}) "
              f"{round_s[mode][-1]:.2f}s", file=sys.stderr)
    timed_s = time.perf_counter() - start - clock.probe_s
    slowdown = clock.slowdown()
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = rounds[0][1]
    verdict = wl.verify(first)
    determinism = [
        f"round {i + 1}: {what} differ from round 1"
        for i, (_, r) in enumerate(rounds[1:], 1)
        for what, a, b in (("work counts", r.counts, first.counts),
                           ("outcomes", r.outcomes, first.outcomes))
        if a != b
    ]
    out = dict(setup, **{
        "slowdown": slowdown,
        "rounds": len(rounds),
        "checks_per_round": len(first.times),
        "mismatches": verdict.mismatches,
        "faults": verdict.faults,
        "determinism": determinism,
        "counts": first.counts,
        "outcome_digest": hashlib.sha256(
            json.dumps(sorted(first.outcomes.items()), default=str).encode()).hexdigest(),
    })
    if not args.trace:
        times = sorted(t for _, r in rounds for t in r.times)
        if len(times) - math.ceil(wl.tail_pct / 100 * len(times)) < 10:
            raise RuntimeError(f"{len(times)} checks leave fewer than ten above p{wl.tail_pct}")
        scaled = sorted(clock.scaled())
        out["raw"] = {
            "checks_per_s": len(times) / timed_s,
            "check_p50_ms": 1000 * statistics.median(times),
            "check_tail_ms": 1000 * percentile(times, wl.tail_pct),
        }
        out["metrics"] = {
            "checks_per_s": len(scaled) / clock.scaled_busy(),
            "check_p50_ms": 1000 * statistics.median(scaled),
            "check_tail_ms": 1000 * percentile(scaled, wl.tail_pct),
            "peak_rss_mb": peak_rss_mb,
        }
        return out

    traced = [r for mode, r in rounds if mode == "traced"]
    n = len(traced)
    layer_counts = tracer.counts_of("traced")
    for r in traced:
        for k, v in r.layer.items():
            layer_counts[k] = layer_counts.get(k, 0) + v
    setup_layer = dict(tracer.counts_of("setup"), **wl.setup_layer())
    metrics = {}
    for name, source in PER_LAYER.items():
        kind, _, what = source.partition(":")
        if kind == "self":
            value = tracer.self_time("traced", what) / n / slowdown
        elif kind == "count":
            value = layer_counts.get(what, 0) / n
        elif kind == "setup-self":
            value = tracer.self_time("setup", what)
        elif kind == "setup":
            value = setup_layer.get(what, 0)
        elif kind == "rate":
            count, span = what.split("/")
            busy = tracer.incl_time("traced", span)
            value = layer_counts.get(count, 0) / busy * slowdown if busy else 0.0
        else:
            plain = statistics.median(round_s["plain"])
            value = 100.0 * (statistics.median(round_s["traced"]) / plain - 1.0)
        metrics[name] = value
    out["metrics"] = metrics
    tracer.write(os.path.join(WORK, f"trace-{args.workload}.bin"),
                 {"workload": args.workload, "seed": args.seed, "traced_rounds": n})
    return out


# ---------------------------------------------------------------------------
# parent: the children, the determinism store, the result line
# ---------------------------------------------------------------------------


def source_digest() -> str:
    """Digest of the checker and benchmark sources: work counts are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "repro"), HERE):
        for dirpath, dirnames, files in sorted(os.walk(base)):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def spawn(args, role: str, work: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = str(secrets.randbelow(2**32))
    env["TMPDIR"] = work
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--work", work, "--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} {role} process did not end in time")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} {role} process failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["hash_seed"] = env["PYTHONHASHSEED"]
    return result


def check_determinism(args, full: dict) -> List[str]:
    """Compare this run's work counts with earlier runs of the same
    workload, seed and sources; remember them for later runs."""
    key = f"{args.workload}|{args.seed}|{source_digest()}"
    record = {"counts": full["counts"], "outcome_digest": full["outcome_digest"],
              "hash_seed": full["hash_seed"]}
    try:
        with open(COUNTS_STORE) as f:
            store = json.load(f)
    except (OSError, ValueError):
        store = {}
    prev = store.get(key)
    if prev is None:
        store[key] = record
        tmp = COUNTS_STORE + ".tmp"
        with open(tmp, "w") as f:
            json.dump(store, f, indent=1, sort_keys=True)
        os.replace(tmp, COUNTS_STORE)
        return []
    problems = []
    if prev["counts"] != record["counts"]:
        problems.append(f"work counts {record['counts']} (PYTHONHASHSEED={record['hash_seed']}) "
                        f"differ from an earlier run's {prev['counts']} "
                        f"(PYTHONHASHSEED={prev['hash_seed']})")
    if prev["outcome_digest"] != record["outcome_digest"]:
        problems.append("check outcomes differ from an earlier run of the same seed")
    return problems


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit from ``BENCHMARK.json``, checked against the
    metrics this file computes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    computed = set(PER_LAYER) if trace else END_TO_END
    if set(declared) != computed:
        fail(f"BENCHMARK.json declares {sorted(declared)}, run.py computes {sorted(computed)}")
    return declared


def measure(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        fail(f"no checker sources under {os.path.join(ROOT, 'src', 'repro')}")
    units = declared_units(args.trace)
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    children = []
    try:
        side = () if args.trace else ("setup",) * WORKLOADS[args.workload].setup_only_each_side
        roles = side + ("full",) + side
        for i, role in enumerate(roles):
            work = os.path.join(run_dir, str(i))
            os.makedirs(work)
            children.append(spawn(args, role, work, deadline))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    full = next(c for c in children if "rounds" in c)
    problems = list(full["determinism"]) + check_determinism(args, full)
    for p in problems:
        print(f"perfbench: DETERMINISM: {args.workload}: {p}", file=sys.stderr)
    for m in full["mismatches"]:
        print(f"perfbench: MISMATCH: {args.workload}: {m}", file=sys.stderr)
    for m in full["faults"]:
        print(f"perfbench: KNOWN FAULT (counted failed): {args.workload}: {m}", file=sys.stderr)

    rounds = full["rounds"]
    attempted = rounds * full["checks_per_round"]
    failed = rounds * (len(full["mismatches"]) + len(full["faults"]))
    metrics = full["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(c["setup_s"] for c in children)
        print(f"perfbench: {args.workload}: machine slowdown {full['slowdown']:.3f}; unscaled "
              + " ".join(f"{k}={v:.6g}" for k, v in full["raw"].items()), file=sys.stderr)
    result = {
        "correct": not full["mismatches"] and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# steadiness mode
# ---------------------------------------------------------------------------


def steady(args) -> int:
    """Run each workload ``STEADY_RUNS`` times with seeds 1..N, alternating
    the workload order, and print each end-to-end metric's median and
    quartiles, scaled and unscaled (the machine-speed probe divided
    out or not).  The first seed runs once more at the end, so the
    determinism guard compares two hash seeds on every workload."""
    names = list(WORKLOADS)
    values: Dict[str, Dict[str, List[float]]] = {n: {} for n in names}
    failed_share: Dict[str, set] = {n: set() for n in names}
    plan = []
    for i in range(STEADY_RUNS):
        order = names if i % 2 == 0 else names[::-1]
        plan += [(n, i + 1) for n in order]
    plan += [(n, 1) for n in names]
    for name, seed in plan:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr.decode()}", flush=True)
            return 1
        res = json.loads(lines[-1])
        for line in proc.stderr.decode().splitlines():
            if "unscaled" in line:
                for item in line.split("unscaled ", 1)[1].split():
                    k, v = item.split("=")
                    res["metrics"]["unscaled " + k] = {"value": float(v)}
        print(f"{name} seed {seed} ({time.monotonic() - t0:.0f}s): correct={res['correct']} "
              f"{res['failed']}/{res['attempted']} failed "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                         if not k.startswith("unscaled")), flush=True)
        failed_share[name].add(res["failed"] / res["attempted"])
        if len(values[name].get("setup_s", [])) < STEADY_RUNS:
            for k, v in res["metrics"].items():
                values[name].setdefault(k, []).append(v["value"])
    print()
    print(f"{'workload':16} {'metric':24} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7}")
    for name in names:
        for k, vals in values[name].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"{name:16} {k:24} {med:10.4g} {q1:10.4g} {q3:10.4g} {(q3 - q1) / med:7.3f}")
        print(f"{name:16} failed share  {sorted(failed_share[name])}")
    with open(os.path.join(WORK, "steady.json"), "w") as f:
        json.dump(values, f, indent=1)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--role", choices=("setup", "full"), help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.role:
        print(json.dumps(child(args)))
        return 0
    if args.steady:
        return steady(args)
    if not args.workload:
        p.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
