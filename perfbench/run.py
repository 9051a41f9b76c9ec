"""The repository's benchmark: fit, refresh and serve, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` is a separate run that records spans around each layer's
entry points and prints the per-layer metrics, including the tracing
overhead against untraced operations of the same run. The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. The line before it carries the details (timing sample
counts and percentiles, environment, failures). ``--smoke`` runs every
workload at tiny sizes in both modes and checks that each metric of
``BENCHMARK.json`` is emitted with its unit and that the output checks
ran. See ``perfbench/NOTES.md`` for workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = (
    "fit_stream_dense",
    "fit_implicit_wide",
    "refresh_incremental",
    "serve_mixed",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, every workload, both modes; validate the output",
    )
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


def recorded_lookup(reference, sizes):
    """Recorded fit_implicit_wide correlations for a seed, if any."""
    import numpy as np

    table = reference["fit_implicit_wide"]
    matches = table["n"] == sizes["n"] and list(table["dims"]) == list(
        sizes["dims"]
    )

    def lookup(seed):
        values = table["correlations"].get(str(seed)) if matches else None
        return None if values is None else np.asarray(values)

    return lookup


def run_workload(args, smoke=False) -> tuple[dict, dict]:
    import fit_workloads as fits
    import perlayer
    from common import environment
    from tracer import Tracer

    reference = load_reference()
    sizes = (fits.SMOKE_SIZES if smoke else fits.SIZES).get(args.workload)
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "environment": environment()}
    if args.workload == "serve_mixed":
        import serve_workload

        if args.trace:
            metrics, attempted, failed, extra = serve_workload.trace(
                args, reference["serve_mixed"], smoke
            )
        else:
            metrics, attempted, failed, extra = serve_workload.run(
                args, reference["serve_mixed"], smoke
            )
        details.update(extra)
    elif args.trace:
        tracer = Tracer()
        if args.workload == "refresh_incremental":
            outcome = fits.trace_refresh(args, sizes, tracer)
        else:
            outcome = fits.trace_fit(
                args.workload, args, sizes,
                recorded_lookup(reference, sizes), tracer,
            )
        metrics = perlayer.span_metrics(tracer.spans, outcome["ops"])
        metrics.update(perlayer.empty_serve_metrics())
        metrics.update(perlayer.client_metrics())
        metrics.update(
            perlayer.overhead_metrics(
                outcome["plain_s"], outcome["traced_s"],
                len(tracer.spans), outcome["ops"],
            )
        )
        attempted = outcome["attempted"]
        failed = outcome["failed"]
        details["traced_ops"] = outcome["ops"]
        details["failures"] = outcome["failures"][:20]
    elif args.workload == "refresh_incremental":
        metrics, attempted, failed, extra = fits.run_refresh(args, sizes)
        details.update(extra)
    else:
        metrics, attempted, failed, extra = fits.run_fit(
            args.workload, args, sizes, recorded_lookup(reference, sizes)
        )
        details.update(extra)
    invalid = details.get("invalid")
    result = {
        "correct": failed == 0 and not invalid,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    return result, details


def smoke(args) -> int:
    """Every workload, tiny sizes, both modes, checked against the spec."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            run_args = argparse.Namespace(
                workload=workload, seed=args.seed, seconds=1.0, trace=trace,
            )
            result, details = run_workload(run_args, smoke=True)
            label = f"{workload} --trace {trace}"
            names = {entry["name"]: entry["unit"] for entry in declared[trace]}
            emitted = result["metrics"]
            for name, unit in names.items():
                if name not in emitted:
                    problems.append(f"{label}: {name} missing")
                elif emitted[name]["unit"] != unit:
                    problems.append(
                        f"{label}: {name} in {emitted[name]['unit']}, "
                        f"declared {unit}"
                    )
            for name in set(emitted) - set(names):
                problems.append(f"{label}: {name} emitted but not declared")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(
                    f"{label}: correct={result['correct']} attempted="
                    f"{result['attempted']} failures={details.get('failures')}"
                )
            print(f"smoke {label}: {result['attempted']} attempted, "
                  f"{result['failed']} failed, {len(emitted)} metrics")
    for problem in problems:
        print(f"smoke problem: {problem}")
    print(json.dumps({"smoke_ok": not problems, "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no library sources under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    from common import SCRUBBED_ENV, emit

    # a stop request unwinds through the finally blocks that stop servers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke(args)
    result, details = run_workload(args)
    emit(result, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
