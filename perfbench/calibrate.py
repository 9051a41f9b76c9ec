"""One-off calibration behind the frozen values in ``reference.json``.

Usage (from the repository root)::

    python3 perfbench/calibrate.py implicit FIRST LAST
        record fit_implicit_wide correlations for seeds FIRST..LAST
    python3 perfbench/calibrate.py serve SEED SECONDS RATE [RATE ...]
        offer each RATE for SECONDS against the CLI server and print the
        small-request p50 and tail, the bulk p50 and the generator lateness

Recorded values are a reference for later versions of the library, so
regenerate them only when the workload itself changes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import fit_workloads as fits  # noqa: E402
import serve_workload as serve  # noqa: E402
from common import SCRUBBED_ENV, p50, tail  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def record_implicit(first, last):
    with open(REFERENCE) as handle:
        reference = json.load(handle)
    sizes = fits.SIZES["fit_implicit_wide"]
    table = reference["fit_implicit_wide"]
    table["n"], table["dims"] = sizes["n"], list(sizes["dims"])
    for seed in range(first, last + 1):
        workload = fits.ImplicitWide(seed, sizes)
        problems = workload.check(workload.first)
        if problems:
            raise SystemExit(f"seed {seed}: {problems}")
        table["correlations"][str(seed)] = [
            float(x) for x in workload.first.correlations_
        ]
        print(seed, np.round(workload.first.correlations_, 6), flush=True)
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


def sweep_serve(seed, seconds, rates):
    with open(REFERENCE) as handle:
        calibration = json.load(handle)["serve_mixed"]
    workdir = os.path.join(serve.WORK, f"calibrate-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    setup = None
    try:
        setup = serve.Setup(seed, serve.SIZES, workdir, serve.cli_command,
                            "cli")
        traffic = serve.Traffic(seed, serve.SIZES, setup.model_path)
        rng = np.random.default_rng(seed)
        for rate in rates:
            plan = traffic.schedule(rng, rate, seconds,
                                    calibration["bulk_every"])
            records = serve.run_phase(setup.server.port, traffic, plan)
            lat, late, failures = serve.summarize(records, traffic)
            print(
                f"rate {rate:7.1f}/s  small p50 {p50(lat['small']):7.2f} ms"
                f"  tail {tail(lat['small'])[0]:8.2f} ms"
                f" (p{tail(lat['small'])[1]:.1f})"
                f"  bulk p50 {p50(lat['bulk']):7.2f} ms"
                f"  late p99 {serve.late_p99(late):6.2f} ms"
                f"  failed {len(failures)}",
                flush=True,
            )
    finally:
        if setup is not None:
            setup.close()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv):
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    if argv[:1] == ["implicit"] and len(argv) == 3:
        record_implicit(int(argv[1]), int(argv[2]))
    elif argv[:1] == ["serve"] and len(argv) >= 4:
        sweep_serve(int(argv[1]), float(argv[2]), [float(r) for r in argv[3:]])
    else:
        raise SystemExit(__doc__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
