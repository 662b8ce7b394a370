"""Run the benchmark over workloads and seeds, summarise, and compare.

From the root of a checkout::

    python3 perfbench/suite.py run --out perfbench/out/parent --runs 5
    python3 perfbench/suite.py show perfbench/out/parent
    python3 perfbench/suite.py compare perfbench/out/parent perfbench/out/change
    python3 perfbench/suite.py pair --parent ../parent --change . \\
        --out perfbench/out/pair --runs 10

``run`` calls ``run.py`` once per workload and seed, one run at a time, and
then prints ``show``.  ``pair --parent ROOT --change ROOT --out DIR`` runs
two checkouts seed by seed, alternating which side goes first, into
``DIR/parent`` and ``DIR/change``, then prints ``compare``: result sets made
minutes apart differ by the host's drift, so gains are claimed only from
paired sets.  ``show`` prints, for each workload and end-to-end
metric, the unit, median, quartiles and number of runs, and for traced
runs each per-layer metric with the end-to-end metric it should move.
``compare`` reads two result directories and gives, for each workload and
end-to-end metric, both sides' median and quartiles, a verdict under the
benchmark's bounds, and each side's failure share.

Verdicts, for a change B against a parent A (metrics oriented so that
"worse" follows each metric's ``better``):

* ``unresolved``: either side's quartile spread, as a share of its median,
  exceeds the bound, and B's runs neither all beat nor all lose to A's;
* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B's median is better by more than A's own quartile spread
  and B wins at least nine tenths of at least ten runs paired by seed;
* ``within bound``: anything else.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

from layers import should_move
from run import EXTRA_METRICS, HELD_OUT_SEED

ROOT = Path.cwd()

#: Fewest runs paired by seed on which a gain may be claimed.
MIN_PAIRS = 10


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_defs(spec: dict) -> dict:
    """name -> (unit, better, bound)."""
    defs = {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]}
    defs.update(EXTRA_METRICS)
    return defs


def load_results(directory: Path) -> dict:
    """workload -> {"runs": [...], "traced": [...], "skipped": [...]}."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        entry = out.setdefault(record["workload"],
                               {"runs": [], "traced": [], "skipped": []})
        if "skipped" in record:
            entry["skipped"].append(record["skipped"])
        else:
            entry["traced" if record["trace"] else "runs"].append(record)
    return out


def values(runs: list[dict], name: str) -> dict[int, float]:
    """seed -> value of end-to-end metric ``name`` in each run that has it."""
    out = {}
    for run in runs:
        for section in ("metrics", "extra"):
            if name in run.get(section, {}):
                out[run["seed"]] = run[section][name]
    return out


def summary(data: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, median, q3 = statistics.quantiles(data, n=4)
    return median, q1, q3


def spread(data: list[float]) -> float:
    """Quartile distance as a share of the median."""
    median, q1, q3 = summary(data)
    return (q3 - q1) / abs(median) if median else 0.0


def failure_share(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(a: dict[int, float], b: dict[int, float], better: str,
            bound: float) -> str:
    if a == b:
        return "within bound"
    sign = 1.0 if better == "lower" else -1.0
    a_values, b_values = list(a.values()), list(b.values())
    a_median, b_median = summary(a_values)[0], summary(b_values)[0]
    delta = sign * (b_median - a_median)
    if a_median:
        worse_by = delta / abs(a_median)
    else:
        worse_by = math.copysign(math.inf, delta) if delta else 0.0
    all_better = all(sign * (y - x) < 0 for x in a_values for y in b_values)
    all_worse = all(sign * (y - x) > 0 for x in a_values for y in b_values)
    if (max(spread(a_values), spread(b_values)) > bound
            and not (all_better or all_worse)):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    seeds = sorted(set(a) & set(b))
    wins = sum(1 for s in seeds if sign * (b[s] - a[s]) < 0)
    if (-worse_by > spread(a_values) and len(seeds) >= MIN_PAIRS
            and wins >= 0.9 * len(seeds)):
        return "better"
    return "within bound"


def show(directory: Path) -> None:
    spec = load_spec()
    defs = end_to_end_defs(spec)
    results = load_results(directory)
    for workload in [w["name"] for w in spec["workloads"]]:
        entry = results.get(workload)
        if entry is None:
            continue
        for reason in entry["skipped"]:
            print(f"{workload}: skipped ({reason})")
        runs = entry["runs"]
        if runs:
            print(f"\n{workload}: {len(runs)} runs, failure share "
                  f"{failure_share(runs):.4f}, env {runs[0]['env']}")
            print(f"  {'metric':<18} {'unit':<6} {'median':>12} "
                  f"{'q1':>12} {'q3':>12} {'spread':>7} {'n':>3}")
            for name, (unit, _better, bound) in defs.items():
                data = list(values(runs, name).values())
                if not data:
                    continue
                median, q1, q3 = summary(data)
                print(f"  {name:<18} {unit:<6} {median:>12.6g} "
                      f"{q1:>12.6g} {q3:>12.6g} {spread(data):>7.3f} "
                      f"{len(data):>3}  (bound {bound})")
            info = {k for r in runs for k in r.get("info", {})}
            for key in sorted(info):
                data = [r["info"][key] for r in runs if key in r["info"]]
                print(f"  info {key:<28} median {summary(data)[0]:.6g} "
                      "(not gated)")
        traced = entry["traced"]
        if traced:
            print(f"\n{workload}: per-layer, {len(traced)} traced runs "
                  "(median per episode)")
            for metric in spec["per_layer"]:
                data = [r["layers"][metric["name"]] for r in traced
                        if metric["name"] in r.get("layers", {})]
                if not data or not any(data):
                    continue
                moves = should_move(metric["name"])
                print(f"  {metric['name']:<46} {summary(data)[0]:>12.6g} "
                      f"{metric['unit']:<6}" + (f"  moves {moves}"
                                                if moves else ""))


def compare(parent: Path, change: Path) -> None:
    spec = load_spec()
    defs = end_to_end_defs(spec)
    a_results, b_results = load_results(parent), load_results(change)
    print(f"{'workload':<16} {'metric':<17} {'unit':<5} "
          f"{'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
          f"{'B vs A':>8}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        a_runs = a_results.get(workload, {}).get("runs", [])
        b_runs = b_results.get(workload, {}).get("runs", [])
        if not a_runs and not b_runs:
            continue
        if not a_runs or not b_runs:
            print(f"{workload:<16} (missing on "
                  f"{'A' if not a_runs else 'B'}; nothing compared)")
            continue
        for name, (unit, better, bound) in defs.items():
            a, b = values(a_runs, name), values(b_runs, name)
            if not a or not b:
                continue
            cells = []
            for side in (a, b):
                median, q1, q3 = summary(list(side.values()))
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}]")
            a_median = summary(list(a.values()))[0]
            b_median = summary(list(b.values()))[0]
            change_share = ((b_median - a_median) / abs(a_median)
                            if a_median else 0.0)
            print(f"{workload:<16} {name:<17} {unit:<5} {cells[0]:>34} "
                  f"{cells[1]:>34} {change_share:>+8.1%}  "
                  f"{verdict(a, b, better, bound)}")
        print(f"{workload:<16} failure share: A {failure_share(a_runs):.4f}"
              f", B {failure_share(b_runs):.4f}")


def run_one(checkout: Path, out: Path, workload: str, seed: int,
            seconds: int, trace: int) -> None:
    """One ``run.py`` run of ``checkout``'s program, result into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", str(out.resolve())]
    completed = subprocess.run(command, cwd=checkout, capture_output=True,
                               text=True, timeout=600)
    last = (completed.stdout.strip().splitlines() or [""])[-1]
    print(f"{checkout} {workload} seed {seed}: exit "
          f"{completed.returncode} {last[:100]}", flush=True)


def main(argv=None) -> None:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1])
    sub = parser.add_subparsers(dest="verb", required=True)
    run_parser = sub.add_parser("run", help="run workloads x seeds")
    pair_parser = sub.add_parser(
        "pair", help="run two checkouts seed by seed, alternating which "
                     "goes first, then compare them")
    for runner in (run_parser, pair_parser):
        runner.add_argument("--out", type=Path, required=True)
        runner.add_argument("--runs", type=int, default=5)
        runner.add_argument("--seed-base", type=int, default=1,
                            help=f"first seed; {HELD_OUT_SEED} is held out "
                                 "for verifying claims")
    run_parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    pair_parser.add_argument("--parent", type=Path, required=True,
                             help="root of the parent checkout")
    pair_parser.add_argument("--change", type=Path, required=True,
                             help="root of the change's checkout")
    show_parser = sub.add_parser("show", help="summarise one result set")
    show_parser.add_argument("directory", type=Path)
    compare_parser = sub.add_parser("compare", help="parent vs change")
    compare_parser.add_argument("parent", type=Path)
    compare_parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.verb in ("run", "pair"):
        seeds = range(args.seed_base, args.seed_base + args.runs)
        seconds = spec["run_seconds"]
        for workload in names:
            for seed in seeds:
                if args.verb == "run":
                    run_one(ROOT, args.out, workload, seed, seconds,
                            args.trace)
                    continue
                # Host speed drifts over minutes; pairing runs in time and
                # alternating the order keeps drift out of the comparison.
                sides = [("parent", args.parent), ("change", args.change)]
                for side, checkout in sides[::1 if seed % 2 else -1]:
                    run_one(checkout, args.out / side, workload, seed,
                            seconds, 0)
        if args.verb == "run":
            show(args.out)
        else:
            compare(args.out / "parent", args.out / "change")
    elif args.verb == "show":
        show(args.directory)
    else:
        compare(args.parent, args.change)


if __name__ == "__main__":
    main()
