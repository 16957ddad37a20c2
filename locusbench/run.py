"""Membership-query benchmark for tensorloci.

One process makes single-threaded ``locus_membership`` calls one after
another (a closed loop with one caller) on seeded rank-one points of the
normal forms of orbits 5-26. Every verdict is checked after the timed
calls, in two worker processes (see checks.py).

Usage, from the root of a checkout:

    python3 locusbench/run.py --workload spec-gl --seed 7 --seconds 35 --trace 0

``--trace 0`` times a fixed number of whole rounds of queries, sized so that
they take about ``--seconds`` on a 2-CPU machine, and prints the end-to-end
metrics. The number of rounds follows from the workload and ``--seconds``
alone, never from the clock, so one seed always makes the same queries and
the same failures. ``--trace 1`` first runs a fixed pass under cProfile,
whose per-layer counts repeat exactly at one seed, then the same untraced
timed loop, and prints the per-layer metrics. The last line of stdout is
one JSON object; the lines before it are a readable summary and a
``meta`` line with the git sha, Python version, CPU count, seed and
sample counts.
"""

import argparse
import cProfile
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import Raised, check_pass  # noqa: E402
from layers import layer_metrics  # noqa: E402
from package import PACKAGE_DIR, ROOT, load_package  # noqa: E402
from workloads import ROUTE_OF, ROUTES, WARMUP_SEED, WORKLOADS, Workload  # noqa: E402

# Rounds (44 queries each) that set-up generates and that open the timed
# loop: 176 queries on spec-gl, 44 on generic-normal.
PASS_ROUNDS = {"generic-normal": 1, "spec-gl": 4}
# Rounds in the fixed pass that the traced run profiles: the opening
# rounds and the next ones. 16 points per orbit on spec-gl,
# enough to meet the closed-form defects that
# locus.closed_form_disagree counts; the generic pass is kept at one round,
# which takes about 20 s under cProfile.
TRACE_ROUNDS = {"generic-normal": 1, "spec-gl": 8}
# Rounds per second of ``--seconds`` in the timed loop. On spec-gl this is
# what the parent program managed on a shared 2-CPU machine (about 35
# calls/s), so the loop takes about ``--seconds`` there. On generic-normal
# the loop runs about 1.4 times longer: its calls vary much more from
# point to point, and at 0.2 rounds/s the seed alone moved its p50 by 20%.
ROUNDS_PER_S = {"generic-normal": 0.3, "spec-gl": 0.8}
# The timed loop runs at least this many rounds, so p90 keeps at least
# ten samples above it.
MIN_ROUNDS = 3
# Set-up runs once before the timed loop and twice after the checks;
# setup_s is the median of the three, which samples the machine's load at
# both ends of the run.
SETUPS_AFTER = 2


def run_queries(tl, queries, strategy):
    """Call locus_membership on each query; per-call seconds and results."""
    call = tl.locus_membership
    clock = time.perf_counter
    times, results = [], []
    for q in queries:
        t0 = clock()
        try:
            res = call(q.T, q.P, strategy)
        except Exception as exc:  # recorded and counted as a failure
            res = Raised(type(exc).__name__)
        times.append(clock() - t0)
        results.append(res)
    return times, results


class Pass:
    """Timed queries: per-call seconds, results, wall time of the calls."""

    def __init__(self):
        self.queries, self.times, self.results = [], [], []
        self.wall = 0.0
        self.rounds = 0

    def add_round(self, tl, queries, strategy):
        t0 = time.perf_counter()
        times, results = run_queries(tl, queries, strategy)
        self.wall += time.perf_counter() - t0
        self.queries += queries
        self.times += times
        self.results += results
        self.rounds += 1

    @property
    def calls_per_s(self):
        return len(self.times) / self.wall


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def setup(name, seed):
    """Import, generate the opening pass, warm the shape-keyed caches.

    The warm-up queries come from other streams than the timed ones, so
    the caches keyed by shape fill without answering the timed points
    in advance.
    """
    # Garbage left by earlier set-ups (the replaced package modules) is
    # not this set-up's cost.
    gc.collect()
    t0 = time.perf_counter()
    tl = load_package()
    work = Workload(tl, name, seed)
    opening = [work.next_round() for _ in range(PASS_ROUNDS[name])]
    warm = Workload(tl, name, WARMUP_SEED)
    run_queries(tl, warm.warmup_queries(), work.strategy)
    return time.perf_counter() - t0, tl, work, opening


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_rounds(name, seconds):
    return max(MIN_ROUNDS, round(seconds * ROUNDS_PER_S[name]))


def timed_loop(tl, work, rounds, count):
    """Run ``count`` whole rounds, the given ones first.

    Also returns the peak RSS after the first MIN_ROUNDS rounds: a fixed
    amount of work, whereas the queries and results kept for the checks
    grow with the number of rounds.
    """
    timed = Pass()
    rounds = iter(rounds)
    while timed.rounds < count:
        queries = next(rounds, None) or work.next_round()
        timed.add_round(tl, queries, work.strategy)
        if timed.rounds == MIN_ROUNDS:
            rss_mb = peak_rss_mb()
    return timed, rss_mb


def git_sha():
    """HEAD of the checkout's own .git, read as files; None without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def route_p50(timed):
    by_route = {name: [] for name in ROUTES}
    for q, t in zip(timed.queries, timed.times):
        by_route[ROUTE_OF[q.orbit]].append(t)
    return {
        "route.%s.ms_p50" % name: (1000 * statistics.median(ts), "ms")
        for name, ts in by_route.items()
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(PACKAGE_DIR):
        print("tensorloci sources not found in %s" % PACKAGE_DIR, file=sys.stderr)
        return 2

    seconds, tl, work, opening = setup(args.workload, args.seed)
    setup_times = [seconds]

    metrics = {}
    traced = None
    if args.trace:
        traced = Pass()
        extra = TRACE_ROUNDS[args.workload] - len(opening)
        opening += [work.next_round() for _ in range(extra)]
        profile = cProfile.Profile()
        profile.enable()
        for queries in opening:
            traced.add_round(tl, queries, work.strategy)
        profile.disable()
        metrics.update(
            layer_metrics(profile, tl.modules, PACKAGE_DIR, len(traced.times))
        )
        opening = []
    timed, rss_mb = timed_loop(
        tl, work, opening, timed_rounds(args.workload, args.seconds)
    )

    checked = [timed] if traced is None else [traced, timed]
    tally = check_pass(
        work.strategy,
        [q for p in checked for q in p.queries],
        [r for p in checked for r in p.results],
    )
    if traced is not None:
        metrics["locus.member_ratio"] = (tally.members / tally.attempted, "ratio")
        metrics["locus.closed_form_disagree"] = (
            tally.closed_form_disagree, "count"
        )
        metrics.update(route_p50(timed))
        metrics["trace.overhead_ratio"] = (
            timed.calls_per_s / traced.calls_per_s, "ratio"
        )

    end_to_end = {
        "calls_per_s": (timed.calls_per_s, "1/s"),
        "call_ms_p50": (1000 * percentile(timed.times, 50), "ms"),
        "call_ms_p90": (1000 * percentile(timed.times, 90), "ms"),
        "pass_ratio": (1 - tally.fail_ratio, "ratio"),
        "setup_s": None,
        "peak_rss_mb": (rss_mb, "MB"),
    }
    samples = {"timed_calls": len(timed.times), "timed_rounds": timed.rounds}
    if traced is not None:
        samples["traced_calls"] = len(traced.times)
    strategy = work.strategy

    # The later set-ups start from the heap the first one saw. The timed
    # queries and verdicts go first: the collector would walk them during
    # a set-up.
    del tl, work, opening, timed, traced
    for _ in range(SETUPS_AFTER):
        setup_times.append(setup(args.workload, args.seed)[0])
    end_to_end["setup_s"] = (statistics.median(setup_times), "s")
    if not args.trace:
        metrics = end_to_end

    print(
        "# %s, seed %d, strategy %s: %d timed calls in %d rounds"
        % (args.workload, args.seed, strategy,
           samples["timed_calls"], samples["timed_rounds"])
    )
    summary = dict(end_to_end, fail_ratio=(tally.fail_ratio, "ratio"))
    for name, (value, unit) in summary.items():
        print("#   %-12s %12.4f %s" % (name, value, unit))
    for example in tally.examples:
        print("# failed point: %s" % json.dumps(example))
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": samples,
        "refuted": tally.wrong,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
