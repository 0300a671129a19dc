"""Set-up probe: import ``repro`` and build one workload's inputs.

Run in a fresh interpreter by ``run.py``, which times it from process
start until the ``ready`` line: what a user pays on every command-line
run and every fleet worker pays again, up to the first simulated event.
After that line, untimed, it samples the yardstick and prints the mean
of its samples, so the parent can scale the set-up time by the speed of
the core it ran on.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import workloads

#: Yardstick samples taken after set-up, and how many of them warm up.
YARDSTICK_SAMPLES = 40
YARDSTICK_WARMUP = 10


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name].inputs(seed)
    print("ready", flush=True)

    import statistics

    from yardstick import Yardstick

    yardstick = Yardstick()
    yardstick.burst(YARDSTICK_WARMUP + YARDSTICK_SAMPLES)
    print(statistics.mean(yardstick.samples[YARDSTICK_WARMUP:]), flush=True)


if __name__ == "__main__":
    main()
