"""Run one poisson-forge command in this fresh process, as its console
script does, and write what the parent benchmark needs to a stats file.

Usage: child.py STATS.json TRACE(0|1) [CLI ARGS...]

With no CLI arguments the process stops right after the import, which
gives the benchmark a set-up sample and nothing else.  The import comes
first so that ``imported`` (a CLOCK_MONOTONIC reading, comparable with the
parent's) marks the end of set-up exactly as a user pays it.

Untraced, the process also samples how fast its CPU runs while the command
works: every ``PROBE_PERIOD_S`` of wall time a SIGALRM handler times
``reference_us()``, a fixed loop of stdlib ``Fraction`` arithmetic that
uses nothing from poisson_forge, and records (when, how long).  The parent
uses these samples to express the command's wall time at a fixed host
speed (see README.md, "Noise").  The samples cost about 1 % of the time.
Five samples right after the import, outside the set-up time, do the same
for set-up.

Peak memory is this process's own VmHWM.  The rusage ``ru_maxrss`` of a
spawned child also counts the parent's resident set from before ``exec``,
so it would measure the benchmark instead of the program.
"""

import sys
import time

from poisson_forge.cli import main as cli_main

imported = time.monotonic()

from fractions import Fraction  # noqa: E402  (after the set-up stamp)

PROBE_PERIOD_S = 0.01


def reference_us():
    """Time, in microseconds, of a fixed loop of Fraction additions:
    about 70 us in a tight loop on a 2.0 GHz Xeon core in its usual
    (slower) state."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 17):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    return (time.perf_counter() - t0) * 1e6


def _run_probed(argv, probes):
    """Run the command while sampling reference_us() every PROBE_PERIOD_S,
    and once before and once after, so every command has samples."""
    import signal

    def sample(*_):
        probes.append((time.monotonic(), reference_us()))

    sample()
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    try:
        return cli_main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        sample()


def _traced(argv):
    import importlib
    import pkgutil

    import poisson_forge
    from tracer import Tracer

    for info in pkgutil.iter_modules(poisson_forge.__path__):
        importlib.import_module("poisson_forge." + info.name)
    tracer = Tracer(poisson_forge)
    tracer.install()
    try:
        code = cli_main(argv)
    finally:
        tracer.uninstall()
    return code, tracer.stats()


def _peak_rss_kib():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run():
    import json

    stats_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    stats = {"imported": imported,
             "setup_probes": [reference_us() for _ in range(5)]}
    code = 0
    if argv:
        if trace:
            code, stats["trace"] = _traced(argv)
        else:
            stats["probes"] = []
            code = _run_probed(argv, stats["probes"])
    stats["peak_rss_kib"] = _peak_rss_kib()
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
