"""One set-up measurement in a fresh process; run.py starts it.

    python3 perfbench/setup_probe.py WORKLOAD SEED T0

T0 is the CLOCK_MONOTONIC time (system-wide on Linux) just before the
parent started this process.  Prints one JSON object: the raw seconds from
T0 until gblab is imported and every geometry of the workload is built,
and the same span at the reference speed of speed.python_kernel.  Sampling
starts before numpy or gblab is imported; only interpreter start-up comes
before it.
"""

import json
import sys
import time

import speed


def main(workload: str, seed: str, t0: str) -> int:
    with speed.SpeedSampler(speed.python_kernel, speed.PYTHON_REF_S,
                            speed.PYTHON_PERIOD_S) as sampler:
        import run

        catalog, _ = run.import_gblab()
        run.build_specs(catalog, run.workloads.instances(workload, int(seed)))
        raw = time.monotonic() - float(t0)
    print(json.dumps({"raw_s": raw, "ref_s": sampler.normalise(raw)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
