"""Time to verdict for the shipped poisson-forge fixture suites.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {classical,quantum}
                             --seed N --seconds S --trace {0,1}

Each ``poisson-forge <cmd> --fixtures`` runs in a fresh process, as a user
runs it: one client in a closed loop, one process at a time.  A pass runs
every command of the workload once; passes repeat for ``--seconds``.
Every record a command writes is checked against the reference records in
``perfbench/reference``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports end-to-end medians (never minimums) of times taken
at a fixed host speed: the child times a reference loop every 10 ms, and
each stretch of wall time is scaled by how fast the loop ran then (see
nominal_seconds).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, the tracing overhead and the microbenchmarks.  See
README.md in this directory for why each workload and metric exists.
"""

import argparse
import collections
import compileall
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "poisson_forge")
REFERENCE = os.path.join(HERE, "reference")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
MICRO = os.path.join(HERE, "micro.py")

WORKLOADS = {
    "classical": [["reduce", "--fixtures"],
                  ["check-bialgebra", "--fixtures"],
                  ["poisson-group", "--fixtures"],
                  ["check-poisson", "--fixtures"],
                  ["check-mm", "--fixtures"]],
    "quantum": [["check-hopf", "--fixtures"],
                ["check-action", "--fixtures", "--degree", "2"]],
}
# Only the classical suites draw random numbers (reduction's perturbations).
# An untraced run of them starts with one untimed pass under seed+1; every
# timed pass runs under seed.  Both seeds must give the reference records.
SEEDED = {"classical"}
# Records compared byte for byte rather than as sorted-key JSON: the
# check-action reference is a copy of tests/golden/check_action_fixtures.jsonl.
BYTE_EXACT = {"check-action"}

MIN_PASSES = 2
SETUP_SPAWNS = 8
COMMAND_TIMEOUT_S = 60.0
DEADLINE_S = 170.0

# Arithmetic methods of GaussRational counted as scalars.gauss_ops.calls.
GAUSS_OPS = frozenset(("__add__", "__sub__", "__rsub__", "__mul__",
                       "__truediv__", "__rtruediv__", "__neg__", "__pow__"))

LAYERS = ("scalars", "coordpoly", "reduction", "linalg", "ncalg", "hopf",
          "qmomentum", "lie", "poisson", "matgroup", "momentum")


# The reference loop time (child.reference_us) at which wall time counts
# as it is: about its time on a 2.0 GHz Xeon core in its usual state.
NOMINAL_REFERENCE_US = 70.0

# One command run: wall time, wall time at the nominal host speed (untraced
# runs only), set-up time at the nominal host speed, peak RSS, what went
# wrong (None when the records match) and, for traced runs, the child's
# trace stats.
Sample = collections.namedtuple(
    "Sample", "wall_s nominal_s setup_s rss_mib error trace")


def run_child(args, seed, trace, deadline):
    """Spawn child.py and wait for it on a pidfd, which wakes the wait the
    moment the process exits.  Returns a Sample."""
    stats_path = os.path.join(WORK, "stats.json")
    records_path = os.path.join(WORK, "records.jsonl")
    for path in (stats_path, records_path):
        if os.path.exists(path):
            os.remove(path)
    argv = [sys.executable, CHILD, stats_path, "1" if trace else "0"]
    if args:
        argv += args + ["--json", records_path]
    env = dict(os.environ, PYTHONPATH=SRC, POISSON_FORGE_SEED=str(seed))
    timeout = max(1.0, min(COMMAND_TIMEOUT_S, deadline - time.monotonic()))
    with open(os.path.join(WORK, "stderr.txt"), "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        fd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([fd], [], [], timeout)[0]
            t1 = time.monotonic()
            if not exited:
                proc.kill()
            proc.wait()
        finally:
            os.close(fd)
    if not exited:
        return Sample(t1 - t0, None, None, None, "timed out after %.0f s"
                      % timeout, None)
    if proc.returncode != 0:
        with open(os.path.join(WORK, "stderr.txt"), "rb") as fh:
            lines = fh.read().decode(errors="replace").strip().splitlines()
        return Sample(t1 - t0, None, None, None, "exit code %d: %s"
                      % (proc.returncode, lines[-1] if lines else ""), None)
    with open(stats_path) as fh:
        stats = json.load(fh)
    error = check_records(args[0], records_path) if args else None
    nominal = nominal_seconds(t0, t1, stats["probes"]) \
        if stats.get("probes") else None
    setup = (stats["imported"] - t0) * NOMINAL_REFERENCE_US \
        / statistics.median(stats["setup_probes"])
    return Sample(t1 - t0, nominal, setup, stats["peak_rss_kib"] / 1024.0,
                  error, stats.get("trace"))


def nominal_seconds(t0, t1, probes):
    """Wall time from spawn (t0) to exit (t1) at the nominal host speed.

    ``probes`` are the child's (time, reference_us) samples, taken every
    10 ms.  Each stretch of wall time up to a sample is scaled by
    NOMINAL_REFERENCE_US / that sample, and the stretch after the last
    sample by the last sample: a stretch the CPU ran twice as fast as
    nominal counts twice its wall time."""
    edges = [t0] + [t for t, _ in probes] + [t1]
    refs = [r for _, r in probes] + [probes[-1][1]]
    return sum((b - a) * NOMINAL_REFERENCE_US / r
               for a, b, r in zip(edges, edges[1:], refs))


def _canonical(data):
    return [json.dumps(json.loads(line), sort_keys=True)
            for line in data.decode().splitlines() if line.strip()]


def check_records(command, path):
    """None when the records equal the reference, else what differs."""
    with open(os.path.join(REFERENCE, command + ".jsonl"), "rb") as fh:
        want = fh.read()
    if not os.path.exists(path):
        return "no records written"
    with open(path, "rb") as fh:
        got = fh.read()
    got_lines, want_lines = _canonical(got), _canonical(want)
    if got_lines != want_lines:
        for k, (g, w) in enumerate(zip(got_lines, want_lines)):
            if g != w:
                return "record %d differs: %s" % (k, g[:200])
        return "%d records, reference has %d" % (len(got_lines),
                                                 len(want_lines))
    if command in BYTE_EXACT and got != want:
        return "records match, but not byte for byte"
    return None


class Run:
    """Counts and samples of one benchmark run."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.deadline = self.started + DEADLINE_S
        self.attempted = 0
        self.failed = 0

    def command(self, args, seed, trace=False):
        self.attempted += 1
        sample = run_child(args, seed, trace, self.deadline)
        if sample.error:
            self.failed += 1
            print("FAILED %s (seed %d): %s"
                  % (" ".join(args) or "import", seed, sample.error),
                  file=sys.stderr)
        return sample

    def one_pass(self, seed, trace=False):
        return [self.command(args, seed, trace)
                for args in WORKLOADS[self.workload]]

    def more(self, done, durations, minimum):
        """Start another pass (or pair) only if it fits in --seconds, and
        never so late that a hung command could overrun the deadline."""
        now = time.monotonic()
        if now > self.deadline - COMMAND_TIMEOUT_S:
            return False
        if done < minimum:
            return True
        return now - self.started + statistics.median(durations) \
            <= self.seconds


def pass_wall(samples):
    return sum(s.wall_s for s in samples)


def pass_nominal(samples):
    """A pass's time at the nominal host speed.  A failed command has no
    reference samples; its plain wall time counts instead."""
    return sum(s.wall_s if s.nominal_s is None else s.nominal_s
               for s in samples)


def summarize(name, values, unit):
    """Median, quartiles, count, and a tail percentile only where at least
    ten samples lie beyond it."""
    line = "%s: median %.6g %s over %d samples" % (
        name, statistics.median(values), unit, len(values))
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += " (q1 %.6g, q3 %.6g)" % (q1, q3)
    for p in (99, 90):
        if len(values) * (100 - p) / 100.0 >= 10:
            tail = statistics.quantiles(values, n=100)[p - 1]
            line += ", p%d %.6g" % (p, tail)
            break
    print(line)


def untraced(run):
    setup = [run.command([], run.seed).setup_s for _ in range(SETUP_SPAWNS)]
    run.started = time.monotonic()
    if run.workload in SEEDED:
        setup.extend(s.setup_s for s in run.one_pass(run.seed + 1))
    walls, verdict, rss = [], [], []
    while run.more(len(walls), walls, MIN_PASSES):
        samples = run.one_pass(run.seed)
        walls.append(pass_wall(samples))
        verdict.append(pass_nominal(samples))
        peaks = [s.rss_mib for s in samples if s.rss_mib is not None]
        if peaks:
            rss.append(max(peaks))
        setup.extend(s.setup_s for s in samples)
    setup = [s for s in setup if s is not None]
    if not setup or not rss:
        raise SystemExit("error: no command completed")
    summarize("verdict_s", verdict, "s")
    summarize("pass wall time", walls, "s")
    print("host speed: pass wall time / verdict_s = %.4f"
          % (statistics.median(walls) / statistics.median(verdict)))
    summarize("setup_s", setup, "s")
    summarize("peak_rss_mib", rss, "MiB")
    return {
        "verdict_s": (statistics.median(verdict), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
    }


def _merge(stats_list):
    """Sum the per-process trace stats of one pass."""
    out = {}
    for stats in stats_list:
        for key, value in stats.items():
            if isinstance(value, dict):
                table = out.setdefault(key, {})
                for k, v in value.items():
                    table[k] = table.get(k, 0) + v
            else:
                out[key] = out.get(key, 0) + value
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(agg):
    """Per-layer metrics of one traced pass; a layer never entered is 0."""
    calls, self_s, c = agg["calls"], agg["self_s"], agg["counters"]
    m = {"%s.self_s" % layer: self_s.get(layer, 0.0) for layer in LAYERS}
    gauss_ops = sum(v for k, v in calls.items()
                    if k.startswith("scalars.GaussRational.")
                    and k.rsplit(".", 1)[1] in GAUSS_OPS)
    hmul = calls.get("scalars.HSeries.__mul__", 0)
    nf = calls.get("ncalg.Presentation._nf", 0)
    m.update({
        "scalars.gauss_ops.calls": gauss_ops,
        "scalars.hseries_mul.calls": hmul,
        "scalars.hseries_inverse.calls":
            calls.get("scalars.HSeries.inverse", 0),
        "scalars.hseries_mul.const_share":
            _ratio(c["hseries_mul_const"], hmul),
        "coordpoly.mul.calls": calls.get("coordpoly.CoordPoly.__mul__", 0),
        "reduction.reduce_mod_ideal.calls":
            calls.get("reduction.reduce_mod_ideal", 0),
        "reduction.reduced_bracket.calls":
            calls.get("reduction.reduced_bracket", 0),
        "linalg.rref.calls": calls.get("linalg.rref", 0),
        "linalg.span_insert.calls": calls.get("linalg.SeriesSpan.insert", 0),
        "ncalg.nf.calls": nf,
        "ncalg.nf.memo_hit_ratio": _ratio(c["nf_hits"], nf),
        "ncalg.memo_words": agg["memo_words"],
        "ncalg.tensor_mul.calls": calls.get("ncalg.TensorElement.__mul__", 0),
        "ncalg.map_cache.hit_ratio": _ratio(
            c["map_hits"], calls.get("ncalg.AlgebraMap.apply_word", 0)),
        "ncalg.monomials.normal_share": _ratio(c["monomials_kept"],
                                               c["monomials_tried"]),
        "hopf.monomials_swept": c["hopf_monomials"],
        "qmomentum.apply.calls":
            calls.get("qmomentum.QuantumAction.apply", 0)
            + calls.get("qmomentum.QuantumAction.apply_word", 0),
        "fixtures.build_s": agg["inclusive_s"].get("fixtures", 0.0),
        "cli.emit_s": agg["timed_s"].get("cli.emit", 0.0),
    })
    return m


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def traced(run):
    plain, traced_walls, per_pass = [], [], []
    while run.more(len(plain), [a + b for a, b in zip(plain, traced_walls)],
                   1):
        plain.append(pass_wall(run.one_pass(run.seed)))
        samples = run.one_pass(run.seed, trace=True)
        traced_walls.append(pass_wall(samples))
        if all(s.trace for s in samples):
            merged = _merge(s.trace for s in samples)
            per_pass.append(layer_metrics(merged))
    if not per_pass:
        raise SystemExit("error: no traced pass completed")
    print("trace of the last pass: " + json.dumps(
        {layer: {"spans": merged["spans"][layer],
                 "self_s": round(merged["self_s"][layer], 6)}
         for layer in sorted(merged["spans"])}, sort_keys=True))
    summarize("untraced pass wall time", plain, "s")
    summarize("traced pass wall time", traced_walls, "s")
    metrics = {name: (statistics.median(m[name] for m in per_pass),
                      _unit(name))
               for name in per_pass[0]}
    overhead = statistics.median(traced_walls) / statistics.median(plain) - 1
    metrics["trace_overhead_share"] = (overhead, "ratio")
    metrics.update(microbenchmarks(run))
    return metrics


def microbenchmarks(run):
    """Run micro.py in its own process; any failure ends the run."""
    run.attempted += 1
    env = dict(os.environ, PYTHONPATH=SRC)
    timeout = max(1.0, run.deadline - time.monotonic())
    proc = subprocess.run([sys.executable, MICRO], env=env, cwd=ROOT,
                          capture_output=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit("error: microbenchmarks failed: %s"
                         % proc.stderr.decode()[-300:])
    values = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return {name: (value, "us") for name, value in values.items()}


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_hash():
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(PACKAGE)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _steal_ticks():
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def host_stamp(when):
    stamp = {"when": when, "python": platform.python_version(),
             "nproc": len(os.sched_getaffinity(0)),
             "loadavg": list(os.getloadavg()), "steal_ticks": _steal_ticks()}
    if when == "before":
        stamp.update(commit=_git_commit(), source_sha256=_source_hash())
    print("host: " + json.dumps(stamp, sort_keys=True))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print("error: no poisson_forge source under %s; run from the root "
              "of a poisson-forge checkout" % SRC, file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    host_stamp("before")
    # Byte-compile first, so no set-up sample pays for it.
    compileall.compile_dir(PACKAGE, quiet=1)
    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics = traced(run) if args.trace else untraced(run)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    host_stamp("after")
    print("failed_share: %d/%d = %.6g"
          % (run.failed, run.attempted, run.failed / run.attempted))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
