"""Cold-process benchmark of the spinchar command-line interface.

    python3 perfbench/run.py --workload {verify-full,export,structure} \\
        --seed N --seconds S --trace {0,1}

Run from a source checkout: the CLI is imported from ./src.  One client runs
the workload's invocations one at a time, each in a fresh interpreter, as a
user at a shell does (a closed loop with one client); nothing runs
concurrently, so the figures measure the program and not the scheduler.  The
workload repeats until --seconds have passed (at least once) and each metric
is the median over repeats.  setup_s is the median wall time of fresh
interpreters that import spinchar.cli and exit.

On a shared host the speed of process start-up and of the program drifts by
up to a factor of two over tens of minutes, so --trace 0 reports times at a
nominal host speed: each raw median is multiplied by REFERENCE_S over the
run's median wall time of a reference launch, a fresh interpreter that
imports numpy and no spinchar code.  A change to spinchar cannot change the
reference, so it moves a reported time in the same proportion as the raw
one; the raw medians are printed too.  One set-up launch and one reference
launch follow every second timed invocation, so they run under the same
load, and launches before and after the timed passes bring the count of
each to at least SETUP_SAMPLES.

Every invocation is checked: exit code 0, no traceback on stderr, and the
sha256 of stdout equal to the digest in golden.json.  Before timing, the
sources are byte-compiled and imported once, untimed, because users do not
pay compilation on every run; no interpreter is ever reused, so every
lru_cache and Group cache is as cold as a user's.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every invocation
untraced and then traced (the traced child is tracer.py) and prints the
per-layer metrics of layers.py, the untraced per-command wall times, and
the tracing overhead (traced minus untraced wall time).  The last line of
stdout is the JSON result.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import LAYERS, unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
WORKLOADS = ("verify-full", "export", "structure")

SETUP_SAMPLES = 20  # the least number of set-up and of reference launches per run
REFERENCE = "import numpy"  # the reference launch runs this, and no spinchar code
REFERENCE_S = 0.2  # nominal wall time of the reference launch
RUN_LIMIT_S = 170  # each child still running this long after its start is killed
BOOT = "import sys; from spinchar.cli import main; sys.exit(main())"

GROUPS = ([["G27"], ["G81"], ["GBAR"], ["R243"], ["GSHARP"]]
          + [["G81_param", "--params", "%d,%d" % (a, b)]
             for a in range(3) for b in range(3)])
STRUCTURAL_VERIFY = ["verify", "--only",
                     "orders,structure,automorphism,orbits,associativity"]

# Cocycle irreducibles by spin kind, as (spin type, name).  Measured cold on
# a 2-core Xeon with Python 3.11, a non-spin cocycle costs 0.34 s (dim 1) or 0.50 s (dim 3), a
# partially-spin one 0.68 s on G81 or 0.53 s on GBAR, a purely-spin one
# 1.35 s.  pick_cocycles pairs the dearer non-spin kind with the cheaper
# partial family so that every seed costs the same to within ~0.02 s.
NONSPIN_DIM1 = [("0,0", "Pi(%d,0,%d)" % (m, q)) for m in range(3) for q in range(3)]
NONSPIN_DIM3 = [("0,0", "Pi(0,%d)" % n) for n in (1, 2)]
PARTIAL_G81 = [("%d,0" % e, "Pi(%d,0;%d)" % (e, r)) for e in (1, 2) for r in range(3)]
PARTIAL_GBAR = [("0,%d" % m, "Pi(0,%d;%d)" % (m, t)) for m in (1, 2) for t in range(3)]
PURE = [("%d,%d" % (e, m), "Pi(%d,%d;%d)" % (e, m, s))
        for e in (1, 2) for m in (1, 2) for s in range(3)]


def cocycle_args(spin, name):
    return ["cocycle", "--spin", spin, "--irrep", name, "--format", "json"]


def pick_cocycles(rng):
    """One non-spin, one partially-spin (Q(w)) and one purely-spin
    (Q(zeta9)) irreducible, cost-balanced across seeds."""
    if rng.randrange(2):
        nonspin, partial = rng.choice(NONSPIN_DIM1), rng.choice(PARTIAL_G81)
    else:
        nonspin, partial = rng.choice(NONSPIN_DIM3), rng.choice(PARTIAL_GBAR)
    return [cocycle_args(*nonspin), cocycle_args(*partial), cocycle_args(*rng.choice(PURE))]


def workload_invocations(workload, seed):
    """The fixed list of CLI argument lists a workload runs for a seed."""
    rng = random.Random(seed)
    if workload == "verify-full":
        return [["verify"]]
    if workload == "export":
        return ([["chartable", "--format", "json"], ["chartable", "--format", "csv"],
                 ["irreps", "--spin", "all", "--format", "json"]]
                + pick_cocycles(rng))
    if workload == "structure":
        order = list(GROUPS)
        rng.shuffle(order)
        return [["group"] + g + ["--format", "json"] for g in order] + [STRUCTURAL_VERIFY]
    raise ValueError("unknown workload %r" % workload)


def all_invocations():
    """Every invocation any seed can generate (the golden set)."""
    out = [["verify"], STRUCTURAL_VERIFY, ["chartable", "--format", "json"],
           ["chartable", "--format", "csv"], ["irreps", "--spin", "all", "--format", "json"]]
    out += [cocycle_args(*c) for c in NONSPIN_DIM1 + NONSPIN_DIM3 + PARTIAL_G81
            + PARTIAL_GBAR + PURE]
    out += [["group"] + g + ["--format", "json"] for g in GROUPS]
    return out


def key_of(args):
    return " ".join(args)


# -- child processes --------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]]
                                                      if env.get("PYTHONPATH") else []))
    # bytecode must be written into the checkout and read back from there
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


@dataclass
class Result:
    args: list
    wall_s: float
    rc: int
    rss_mb: float
    stdout: bytes
    stderr: bytes
    trace: dict = None
    timed_out: bool = False


def run_child(argv, env, args=None, trace=False):
    """Run argv to completion; wall time, exit code and peak RSS come from
    the child alone (os.wait4).  The child is killed if it still runs
    RUN_LIMIT_S after its start.  A traced child also returns its tracer
    summary, read from an inherited pipe."""
    pass_fds = ()
    if trace:
        read_fd, write_fd = os.pipe()
        env = dict(env, PERFBENCH_TRACE_FD=str(write_fd))
        pass_fds = (write_fd,)
    out = {}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            pass_fds=pass_fds)
    readers = [threading.Thread(target=lambda: out.__setitem__("err", proc.stderr.read()))]
    if trace:
        os.close(write_fd)
        readers.append(threading.Thread(target=lambda: out.__setitem__(
            "trace", _read_all(read_fd))))
    for t in readers:
        t.start()
    timed_out = threading.Event()
    killer = threading.Timer(RUN_LIMIT_S, lambda: (timed_out.set(), proc.kill()))
    killer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    trace_data = None
    if trace and out.get("trace"):
        try:
            trace_data = json.loads(out["trace"])
        except ValueError:
            pass  # a truncated summary: Pass.run counts the invocation as failed
    return Result(args, wall, proc.returncode, usage.ru_maxrss / 1024.0,
                  stdout, out.get("err", b""), trace_data, timed_out.is_set())


def _read_all(fd):
    with os.fdopen(fd, "rb") as fh:
        return fh.read()


def cli_argv(args, trace):
    if trace:
        return [sys.executable, str(HERE / "tracer.py")] + args
    return [sys.executable, "-c", BOOT] + args


def judge(result, golden):
    """None if the invocation is correct, else the reason it failed."""
    want = golden.get(key_of(result.args))
    if want is None:
        return "no golden digest for this invocation"
    if result.timed_out:
        return "timed out: killed after %.1f s" % result.wall_s
    if result.rc != want["exit"]:
        return "exit code %d, expected %d" % (result.rc, want["exit"])
    if b"Traceback (most recent call last)" in result.stderr:
        return "traceback on stderr"
    if hashlib.sha256(result.stdout).hexdigest() != want["sha256"]:
        return "stdout digest mismatch"
    return None


@dataclass
class Pass:
    """One pass over a workload's invocations: each checked result, and
    (invocation, reason) for each that failed."""
    results: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def wall_s(self):
        return sum(r.wall_s for r in self.results)

    def run(self, args, golden, env, trace=False):
        """Run one invocation in a fresh interpreter and record it."""
        res = run_child(cli_argv(args, trace), env, args=args, trace=trace)
        reason = judge(res, golden)
        if reason is None and trace and res.trace is None:
            reason = "traced child wrote no trace summary"
        if reason is not None:
            self.failures.append((key_of(args), reason))
        self.results.append(res)


# -- preparation ------------------------------------------------------------

def prepare(env):
    """Untimed: byte-compile the sources and import the CLI once, checking
    that the import resolves to this checkout."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "spinchar")],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    found = subprocess.run(
        [sys.executable, "-c", "import spinchar.cli as c; print(c.__file__)"],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True)
    where = Path(found.stdout.strip()).resolve()
    if where != (SRC / "spinchar" / "cli.py").resolve():
        raise RuntimeError("spinchar.cli resolved to %s, not this checkout" % where)


def probe(env):
    """(setup_s, reference_s): the wall times of a fresh interpreter that
    imports spinchar.cli and exits, and of one that runs REFERENCE."""
    times = []
    for code in ("import spinchar.cli", REFERENCE):
        res = run_child([sys.executable, "-c", code], env)
        if res.rc != 0:
            raise RuntimeError("%r failed: %s"
                               % (code, res.stderr.decode(errors="replace")[-500:]))
        times.append(res.wall_s)
    return tuple(times)


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "spinchar").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def env_stamp():
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "src_sha256": source_digest()}


# -- metrics ----------------------------------------------------------------

def spread(values):
    """(median, q1, q3, n) of a sample."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3, len(values)


def end_to_end(passes, probes):
    """The --trace 0 metrics, and the raw samples behind the timed ones."""
    setup, reference = zip(*probes)
    samples = {"wall_s": [p.wall_s for p in passes], "setup_s": list(setup),
               "reference_s": list(reference)}
    scale = REFERENCE_S / statistics.median(reference)
    metrics = {name: {"value": statistics.median(samples[name]) * scale, "unit": "s"}
               for name in ("wall_s", "setup_s")}
    metrics["peak_rss_mb"] = {"value": max(r.rss_mb for p in passes for r in p.results),
                              "unit": "MB"}
    return metrics, samples


def per_layer(workload, pairs):
    """Layer metrics from (untraced pass, traced pass) pairs, plus the names
    of metrics whose site recorded no call on a workload mapped to it."""
    traces = [[r.trace for r in traced.results if r.trace] for _, traced in pairs]
    totals = []
    for pass_traces in traces:
        sites = {}
        for trace in pass_traces:
            for site, stat in trace["sites"].items():
                acc = sites.setdefault(site, [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += stat[i]
        totals.append(sites)
    import_s = [t["import_s"] for pass_traces in traces for t in pass_traces] or [0.0]
    untraced_walls = [u.wall_s for u, _ in pairs]
    traced_walls = [t.wall_s for _, t in pairs]

    metrics, silent = {}, []
    for name, site, stat, moves in LAYERS:
        if stat == "import_s":
            value = statistics.median(import_s)
        elif stat == "overhead_s":
            value = statistics.median(traced_walls) - statistics.median(untraced_walls)
        elif stat == "cmd_s":
            command = name[len("cmd."):-len("_s")]
            value = statistics.median(
                sum(r.wall_s for r in u.results if r.args[0] == command) for u, _ in pairs)
        else:
            per_pass = [t.get(site, [0, 0.0, 0.0, 0]) for t in totals]
            if workload in moves and any(p[0] == 0 for p in per_pass):
                silent.append(name)
            if stat == "calls":
                value = statistics.median(p[0] for p in per_pass)
            elif stat == "s":
                value = statistics.median(p[1] for p in per_pass)
            elif stat == "self_s":
                value = statistics.median(p[2] for p in per_pass)
            else:
                value = statistics.median(p[3] / p[0] if p[0] else 0.0 for p in per_pass)
        metrics[name] = {"value": value, "unit": unit_of(stat)}
    return metrics, silent


# -- main -------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    opts = parse_args(argv)
    try:
        golden_doc = load_golden()
    except (OSError, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    golden = golden_doc["invocations"]
    env = child_env()
    invocations = workload_invocations(opts.workload, opts.seed)
    passes, pairs, probes = [], [], []
    try:
        prepare(env)
        print(json.dumps({"workload": opts.workload, "seed": opts.seed,
                          "seconds": opts.seconds, "trace": opts.trace,
                          "invocations": [key_of(a) for a in invocations],
                          "env": env_stamp(), "golden": golden_doc["recorded_at"]}))
        if not opts.trace:
            probes += [probe(env) for _ in range(SETUP_SAMPLES // 2)]
        deadline = time.perf_counter() + opts.seconds
        while True:
            if opts.trace:
                # each invocation untraced and then traced, back to back, so
                # the two halves of a pair see the same machine load
                untraced, traced = Pass(), Pass()
                for args in invocations:
                    untraced.run(args, golden, env)
                    traced.run(args, golden, env, trace=True)
                pairs.append((untraced, traced))
                passes += [untraced, traced]
            else:
                passes.append(Pass())
                for i, args in enumerate(invocations):
                    passes[-1].run(args, golden, env)
                    if i % 2 == 0:
                        probes.append(probe(env))
            if time.perf_counter() >= deadline:
                break
        if not opts.trace:
            probes += [probe(env) for _ in range(SETUP_SAMPLES - len(probes))]
    except (subprocess.CalledProcessError, RuntimeError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.results) for p in passes)
    for key, reason in failures:
        print("perfbench: FAIL %s: %s" % (key, reason), file=sys.stderr)
    print("fail_ratio %d/%d" % (len(failures), attempted))
    correct = not failures
    if opts.trace:
        metrics, silent = per_layer(opts.workload, pairs)
        for name in silent:
            print("perfbench: FAIL %s recorded no call on %s" % (name, opts.workload),
                  file=sys.stderr)
        correct = correct and not silent
    else:
        metrics, samples = end_to_end(passes, probes)
        for name, values in samples.items():
            med, q1, q3, n = spread(values)
            print("raw %-11s median %.4f  q1 %.4f  q3 %.4f  n %d" % (name, med, q1, q3, n))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
