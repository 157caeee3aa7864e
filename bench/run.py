"""The vasslab benchmark: one workload, timed from outside the program.

    python3 bench/run.py --workload separate|decompose-langs|toolkit
                         [--seed N] [--seconds S] [--trace 0|1]

Makes the workload's inputs from the seed, then runs whole rounds of its
operations, each round in a fresh interpreter (bench/child.py), until the
time given has passed; the round in progress then finishes. An untraced run
of a workload with fewer than LATENCY_MAX_OPS operations then adds latency
rounds, which repeat the faster two thirds of the operations, for half the
time given and at least four times, so that `op_p50_s` rests on several
samples of the operations near the median, not on one. Every output is checked
against the reference code in bench/reference.py or against a property the
method must have. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: with `--trace 0` the
end-to-end metrics, with `--trace 1` the per-layer metrics of traced rounds,
which alternate with untraced ones, plus `trace.overhead_s`. Inputs and span
files go to `.bench_out/` in the checkout.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import selftest  # noqa: E402
from checks import check_round  # noqa: E402

WORKLOADS = ("separate", "decompose-langs", "toolkit")
SETUP_SPAWNS = 4      # set-up-only interpreters per run, besides the rounds
LATENCY_ROUNDS = 4    # rounds of the faster operations per untraced run, at least
LATENCY_SHARE = 2 / 3  # the share of operations, fastest first, that they repeat
LATENCY_MAX_OPS = 40  # from this many operations a round, its median needs none
TIME_LIMIT_S = 170    # a run ends within 180 s


def spawn(args, deadline):
    """Runs child.py to its end and returns its report, with `setup_s` from
    the spawn to the end of the child's set-up."""
    # fixed string hashing, so that set iteration orders repeat from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.time()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise RuntimeError(f"child exited with {proc.returncode}: {tail[0]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready_at"] - start
    return report


def round_wall(rounds):
    return statistics.median(sum(op["wall_s"] for op in r["ops"]) for r in rounds)


def op_times(rounds):
    """Each operation's wall times, by input position."""
    times = {}
    for r in rounds:
        for op in r["ops"]:
            times.setdefault(op["index"], []).append(op["wall_s"])
    return times


def latency_indices(rounds):
    """The input positions of the faster two thirds of the operations, by
    their median time in the full rounds, in input order."""
    times = op_times(rounds)
    fastest = sorted(times, key=lambda i: statistics.median(times[i]))
    return sorted(fastest[:math.ceil(len(fastest) * LATENCY_SHARE)])


def op_p50(rounds):
    """The median operation's median wall time over the rounds given."""
    return statistics.median(statistics.median(ts) for ts in op_times(rounds).values())


def end_to_end(setups, rounds, latency):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (round_wall(rounds), "s"),
        "cpu_s": (statistics.median(sum(op["cpu_s"] for op in r["ops"]) for r in rounds), "s"),
        "op_p50_s": (op_p50(rounds + latency), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MiB"),
    }


def layer_unit(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def per_layer(untraced, traced):
    out = {name: (statistics.median(r["layers"][name] for r in traced), layer_unit(name))
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (round_wall(traced) - round_wall(untraced), "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    selftest.run_all()

    os.makedirs(OUT, exist_ok=True)
    doc = inputs.workload_inputs(args.workload, args.seed)
    tag = f"{args.workload}-{args.seed}"
    inputs_path = os.path.join(OUT, f"inputs-{tag}.json")
    with open(inputs_path, "w") as fh:
        json.dump(doc, fh)
    child_args = [inputs_path, args.workload]

    setups = [spawn(child_args + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_SPAWNS)]
    untraced, traced, latency, problems = [], [], [], []

    def run_round(rounds, indices=None, extra=()):
        """Runs every operation, or those at `indices`, in a fresh interpreter."""
        only = [] if indices is None else ["--only", ",".join(map(str, indices))]
        report = spawn(child_args + only + list(extra), deadline)
        setups.append(report["setup_s"])
        rounds.append(report)
        problems.extend(check_round(args.workload, doc, report["ops"], indices))

    start = time.monotonic()
    while True:
        is_traced = bool(args.trace) and len(untraced) > len(traced)
        if is_traced:
            run_round(traced, extra=["--spans",
                                     os.path.join(OUT, f"spans-{tag}-{len(traced)}.jsonl")])
        else:
            run_round(untraced)
        complete = not args.trace or traced
        if complete and time.monotonic() - start >= args.seconds:
            break
    fast = latency_indices(untraced)
    start = time.monotonic()
    wanted = not args.trace and len(untraced[0]["ops"]) < LATENCY_MAX_OPS
    while wanted and (len(latency) < LATENCY_ROUNDS
                      or time.monotonic() - start < args.seconds / 2):
        run_round(latency, fast)

    every = [op for r in untraced + traced + latency for op in r["ops"]]
    attempted = len(every)
    failed = sum(op["error"] is not None for op in every)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for op in every:
        if op["error"] is not None:
            print(f"operation failed: {op['name']}: {op['error']}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} "
          f"traced rounds of {len(untraced[0]['ops'])} operations, {len(latency)} latency "
          f"rounds of {len(fast) if latency else 0}, {len(setups)} set-ups", file=sys.stderr)
    metrics = per_layer(untraced, traced) if args.trace \
        else end_to_end(setups, untraced, latency)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
