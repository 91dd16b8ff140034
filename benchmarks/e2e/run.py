#!/usr/bin/env python3
"""The repository's one end-to-end + per-layer benchmark.

Two ways in:

* **one workload, one run** -- what the driver of ``BENCHMARK.json``
  calls::

      python3 benchmarks/e2e/run.py --workload insert_bulk --seed 1 --seconds 12 --trace 0

  The last line of standard output is one JSON object with exactly
  ``correct``, ``attempted``, ``failed`` and ``metrics``: every
  end-to-end metric with ``--trace 0``, every per-layer metric with
  ``--trace 1`` (which also writes ``out/trace_<workload>.jsonl``).

* **the whole set** -- no ``--workload``: every workload runs untraced
  in a fresh child process and every end-to-end metric is printed by
  name with its unit and sample count.  ``--traced`` repeats each
  workload traced and prints the per-layer metrics plus
  ``obs.overhead_ratio``; ``--aa N`` runs the untraced set N times and
  checks each metric's spread against its bound; ``--markdown``,
  ``--out`` and ``--record`` emit the same data in other shapes.

See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
LEDGER = os.path.join(HERE, "LEDGER.jsonl")
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import spec  # noqa: E402  (sibling module; needs no repro import)

#: ``--quick`` divides every count by this; its numbers are a smoke
#: test and are labelled non-comparable wherever they are printed.
QUICK_DIVISOR = 10


# -- one workload, one run ------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; returns the detailed result."""
    try:
        import layers
        import rigs
    except ModuleNotFoundError as exc:
        # The benchmark measures the program in <checkout>/src; without
        # it there is nothing to run (exit 1, no result line).
        sys.exit("benchmarks/e2e: cannot import the program under test: %s" % exc)

    raw = rigs.run(name, seed, seconds, trace, OUT_DIR)
    seen = raw["seen"]
    layer_metrics = layers.per_layer(raw)
    errors = list(raw["errors"])
    stale = layer_metrics["loadgen.stale_share"]["value"]
    if stale > rigs.MAX_STALE_SHARE:
        errors.append(
            "load invalid: stale share %.3f > %.2f" % (stale, rigs.MAX_STALE_SHARE)
        )
    correct = not errors
    if trace:
        metrics = layer_metrics
        from repro.obs.export import write_jsonl

        write_jsonl(
            os.path.join(OUT_DIR, "trace_%s.jsonl" % name),
            raw["spans"],
            registry=raw["obs"].metrics,
        )
    else:
        metrics = layers.end_to_end(raw)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "correct": correct,
        "attempted": seen.submitted,
        # A failed final check fails every statement of the run.
        "failed": seen.failed if correct else seen.submitted,
        "errors": errors,
        "timed_s": raw["timed_s"],
        "host_factor": raw["host_factor"],
        "doc_nodes": [raw["doc_nodes_start"], raw["doc_nodes_end"]],
        "stale_share": stale,
        "metrics": metrics,
    }


def print_run(result: dict) -> None:
    label = "traced" if result["traced"] else "untraced"
    print(
        "%s seed=%s seconds=%s %s: %d statements, %d failed, document %d -> %d "
        "nodes, stale share %.4f, host factor %.3f"
        % (
            result["workload"], result["seed"], result["seconds"], label,
            result["attempted"], result["failed"],
            result["doc_nodes"][0], result["doc_nodes"][1], result["stale_share"],
            result["host_factor"],
        )
    )
    for error in result["errors"]:
        print("  ERROR %s" % error)
    print_metrics(result["metrics"])


def print_metrics(metrics: dict, indent: str = "  ") -> None:
    for name, cell in metrics.items():
        samples = "  (n=%d)" % cell["samples"] if "samples" in cell else ""
        print("%s%-36s %16.6f %-6s%s" % (indent, name, cell["value"], cell["unit"], samples))


def contract_line(result: dict) -> str:
    """The driver's last line: exactly these four keys."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": cell["value"], "unit": cell["unit"]}
                for name, cell in result["metrics"].items()
            },
        }
    )


# -- the whole set -----------------------------------------------------------------


def host_info() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha or "unknown",
    }


def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in a fresh child process (its own ``ru_maxrss``, no
    warmed caches); the detailed result comes back through ``--out``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "result_%s_%d.json" % (name, os.getpid()))
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", "1" if trace else "0",
        "--out", out_path,
    ]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            raise RuntimeError(
                "workload %s exited %d:\n%s" % (name, done.returncode, done.stderr[-2000:])
            )
        with open(out_path) as handle:
            return json.load(handle)
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)


def run_set(seed: int, seconds: float, traced: bool, names) -> dict:
    workloads = {}
    for name in names:
        print("running %s ..." % name, file=sys.stderr)
        untraced = run_child(name, seed, seconds, False)
        entry = {
            "correct": untraced["correct"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "errors": untraced["errors"],
            "timed_s": untraced["timed_s"],
            "host_factor": untraced["host_factor"],
            "stale_share": untraced["stale_share"],
            "doc_nodes": untraced["doc_nodes"],
            "end_to_end": untraced["metrics"],
        }
        if traced:
            again = run_child(name, seed, seconds, True)
            entry["per_layer"] = again["metrics"]
            entry["per_layer"][spec.OVERHEAD_RATIO] = {
                "value": again["metrics"]["obs.traced_stmts_per_s"]["value"]
                / untraced["metrics"]["stmts_per_s"]["value"],
                "unit": "ratio",
            }
            entry["correct"] = entry["correct"] and again["correct"]
            entry["errors"] = entry["errors"] + again["errors"]
        workloads[name] = entry
    return {
        "benchmark": "benchmarks/e2e",
        "host": host_info(),
        "seed": seed,
        "seconds": seconds,
        "comparable": seconds == spec.RUN_SECONDS,
        "workloads": workloads,
    }


def check_result(result: dict) -> None:
    """Schema check of the set's JSON result; raises ValueError."""
    def need(mapping, key, kind):
        if key not in mapping or not isinstance(mapping[key], kind):
            raise ValueError("result: %r missing or not %s" % (key, kind))

    need(result, "host", dict)
    for key, kind in (("nproc", int), ("python", str), ("git_sha", str)):
        need(result["host"], key, kind)
    need(result, "seed", int)
    need(result, "seconds", (int, float))
    need(result, "comparable", bool)
    need(result, "workloads", dict)
    for name, entry in result["workloads"].items():
        need(entry, "correct", bool)
        need(entry, "attempted", int)
        need(entry, "failed", int)
        need(entry, "end_to_end", dict)
        expected = {metric.name for metric in spec.END_TO_END}
        if set(entry["end_to_end"]) != expected:
            raise ValueError("result: %s end_to_end names %s" % (name, sorted(entry["end_to_end"])))
        for cell in entry["end_to_end"].values():
            need(cell, "value", (int, float))
            need(cell, "unit", str)
            need(cell, "samples", int)
        for cell in entry.get("per_layer", {}).values():
            need(cell, "value", (int, float))
            need(cell, "unit", str)


def print_set(result: dict) -> None:
    host = result["host"]
    print(
        "benchmarks/e2e @ %s  nproc=%d python=%s seed=%d seconds=%s%s"
        % (
            host["git_sha"][:12], host["nproc"], host["python"], result["seed"],
            result["seconds"],
            "" if result["comparable"] else "  [NON-COMPARABLE: not the contract's run length]",
        )
    )
    print(
        "flush policy (the program's own): batch WAL flush() to the OS cache, no fsync; "
        "sqlite journal_mode=WAL, synchronous=OFF"
    )
    for name, entry in result["workloads"].items():
        print(
            "\n%s: %s, %d statements, %d failed, %.1f s timed, document %d -> %d nodes, "
            "stale share %.4f, host factor %.3f"
            % (
                name, "correct" if entry["correct"] else "INCORRECT", entry["attempted"],
                entry["failed"], entry["timed_s"], entry["doc_nodes"][0],
                entry["doc_nodes"][1], entry["stale_share"], entry["host_factor"],
            )
        )
        for error in entry["errors"]:
            print("  ERROR %s" % error)
        print_metrics(entry["end_to_end"])
        print_metrics(entry.get("per_layer", {}), indent="    ")


def markdown(result: dict) -> str:
    """The same numbers as a table for a job summary."""
    names = [metric.name for metric in spec.END_TO_END]
    lines = [
        "### benchmarks/e2e @ %s%s"
        % (result["host"]["git_sha"][:12], "" if result["comparable"] else " (non-comparable)"),
        "",
        "| workload | " + " | ".join(names) + " | failed | correct |",
        "|---|" + "---:|" * (len(names) + 1) + "---|",
    ]
    for name, entry in result["workloads"].items():
        cells = ["%.4g" % entry["end_to_end"][metric]["value"] for metric in names]
        lines.append(
            "| %s | %s | %d/%d | %s |"
            % (name, " | ".join(cells), entry["failed"], entry["attempted"],
               "yes" if entry["correct"] else "NO")
        )
    return "\n".join(lines)


def record(result: dict) -> None:
    """Append one line to the tracked ledger: the trajectory a reviewer
    can read from the repository."""
    line = {
        "when": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": result["host"],
        "seed": result["seed"],
        "seconds": result["seconds"],
        "comparable": result["comparable"],
        "workloads": {
            name: {metric: cell["value"] for metric, cell in entry["end_to_end"].items()}
            for name, entry in result["workloads"].items()
        },
    }
    with open(LEDGER, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def relative_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median -- the driver's definition.  Below four values quartiles are
    extrapolations, so the full range stands in for them."""
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def a_a(repeats: int, seed: int, seconds: float, names) -> int:
    """Run the untraced set ``repeats`` times on the same code (seeds
    ``seed .. seed+repeats-1``) and hold every workload x metric's
    spread against that metric's bound."""
    runs = [run_set(seed + index, seconds, False, names) for index in range(repeats)]
    worst = 0
    print(
        "A/A over %d runs: spread = %s / median, against the metric's bound"
        % (repeats, "(q3 - q1)" if repeats >= 4 else "(max - min)")
    )
    for name in names:
        for metric in spec.END_TO_END:
            values = [run["workloads"][name]["end_to_end"][metric.name]["value"] for run in runs]
            spread = relative_spread(values)
            verdict = "ok" if spread <= metric.bound else "EXCEEDS"
            if metric.name == "setup_s":
                verdict += " (spread not gated)"
            elif spread > metric.bound:
                worst = 1
            print(
                "  %-16s %-16s median %12.4f  spread %.4f  bound %.2f  %s"
                % (name, metric.name, statistics.median(values), spread, metric.bound, verdict)
            )
        if not all(run["workloads"][name]["correct"] for run in runs):
            print("  %-16s INCORRECT on at least one run" % name)
            worst = 1
    return worst


def list_names() -> None:
    for workload in spec.WORKLOADS:
        print("workload  %-36s %s -- %s" % (workload.name, workload.shape, workload.why))
    for metric in spec.END_TO_END:
        print("e2e       %-36s %-6s %s-is-better bound %.2f" % (
            metric.name, metric.unit, metric.better, metric.bound))
    for metric in spec.PER_LAYER:
        print("layer     %-36s %-6s [%s] moves %s on %s" % (
            metric.name, metric.unit, metric.source,
            ",".join(metric.moves) or "-", ",".join(metric.on)))
    print("suite     %-36s ratio  traced / untraced stmts_per_s (--traced)" % spec.OVERHEAD_RATIO)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [workload.name for workload in spec.WORKLOADS]
    parser.add_argument("--workload", choices=names, help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="set: also run each workload traced")
    parser.add_argument("--aa", type=int, nargs="?", const=2, default=0, metavar="N",
                        help="set: run N times (default 2) and check spreads against bounds")
    parser.add_argument("--quick", action="store_true",
                        help="shrink counts %dx (smoke run, non-comparable)" % QUICK_DIVISOR)
    parser.add_argument("--markdown", action="store_true", help="set: also print a markdown table")
    parser.add_argument("--out", help="write the JSON result here")
    parser.add_argument("--record", action="store_true", help="set: append to LEDGER.jsonl")
    parser.add_argument("--list", action="store_true", help="print every name and exit")
    args = parser.parse_args(argv)

    if args.list:
        list_names()
        return 0
    seconds = args.seconds / QUICK_DIVISOR if args.quick else args.seconds
    if seconds == int(seconds):
        seconds = int(seconds)

    if args.workload:
        result = run_one(args.workload, args.seed, seconds, bool(args.trace))
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(result, handle)
        print_run(result)
        print(contract_line(result))
        return 0

    if args.aa:
        return a_a(args.aa, args.seed, seconds, names)
    result = run_set(args.seed, seconds, args.traced, names)
    check_result(result)
    print_set(result)
    if args.markdown:
        print("\n" + markdown(result))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=2)
    if args.record:
        record(result)
    print("\n" + json.dumps(result))
    return 0 if all(entry["correct"] for entry in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
