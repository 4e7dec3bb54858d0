"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Plants failures and checks that the harness counts them: a wrong golden
digest, a non-zero exit, a traceback on stderr, a child killed at the time
limit, and a traced pass in which no layer site fired.  Also checks that
golden.json covers every invocation any seed can generate, that every
workload draws only golden invocations, and that BENCHMARK.json lists
exactly the metrics run.py and layers.py report.  Exits 0 when all hold.
"""

import json
import sys

import layers
import run


def check(cond, message, problems):
    print("%s %s" % ("ok  " if cond else "FAIL", message))
    if not cond:
        problems.append(message)


def main():
    problems = []
    golden = run.load_golden()["invocations"]
    env = run.child_env()
    run.prepare(env)

    probe = ["group", "G27", "--format", "json"]
    bad_exit = ["group", "NO_SUCH_GROUP", "--format", "json"]
    planted = dict(golden)
    right = planted[run.key_of(probe)]
    planted[run.key_of(probe)] = dict(right, sha256="0" * 64)
    # the usage error prints nothing on stdout: plant the digest of empty
    # output and an expected exit of 0, so the exit code alone is wrong
    planted[run.key_of(bad_exit)] = {
        "sha256": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "exit": 0}
    planted_pass = run.Pass()
    for args in (probe, bad_exit, probe):
        planted_pass.run(args, planted, env)
    results, failures = planted_pass.results, planted_pass.failures
    reasons = dict(failures)
    check(len(results) == 3 and len(failures) == 3,
          "planted digest and exit failures counted (%d of %d failed)"
          % (len(failures), len(results)), problems)
    check(reasons.get(run.key_of(probe)) == "stdout digest mismatch",
          "wrong digest reported as %r" % reasons.get(run.key_of(probe)), problems)
    check(reasons.get(run.key_of(bad_exit)) == "exit code 2, expected 0",
          "non-zero exit reported as %r" % reasons.get(run.key_of(bad_exit)), problems)

    real_pass = run.Pass()
    real_pass.run(probe, golden, env)
    check(not real_pass.failures, "the same invocation passes against the real golden",
          problems)
    crashed = real_pass.results[0]
    crashed.stderr = b"Traceback (most recent call last):\n  ...\nValueError\n"
    check(run.judge(crashed, golden) == "traceback on stderr",
          "traceback on stderr reported as a failure", problems)

    limit, run.RUN_LIMIT_S = run.RUN_LIMIT_S, 1
    try:
        slow = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], env,
                             args=probe)
    finally:
        run.RUN_LIMIT_S = limit
    check(run.judge(slow, golden).startswith("timed out: killed after 1."),
          "a child over the time limit reported as %r" % run.judge(slow, golden), problems)

    # a traced pass in which no site fired: every metric mapped to the
    # workload must be reported as silent
    blank = run.Result(probe, 1.0, 0, 1.0, b"", b"", {"import_s": 0.1, "sites": {}})
    _, silent = run.per_layer("structure", [(run.Pass([blank]), run.Pass([blank]))])
    mapped = [m for m, site, _, moves in layers.LAYERS if site and "structure" in moves]
    check(silent == mapped and len(mapped) > 10,
          "zero-call gate flags all %d metrics mapped to structure" % len(mapped), problems)

    keys = {run.key_of(a) for a in run.all_invocations()}
    check(keys == set(golden), "golden.json covers exactly the %d generable invocations"
          % len(keys), problems)
    drawn = {run.key_of(a) for seed in range(200) for w in run.WORKLOADS
             for a in run.workload_invocations(w, seed)}
    check(drawn <= keys, "200 seeds draw only golden invocations", problems)
    cocycles = {k for k in drawn if k.startswith("cocycle")}
    check(len(cocycles) == 35, "200 seeds reach all 35 cocycle irreducibles (%d)"
          % len(cocycles), problems)
    rng_a = run.workload_invocations("structure", 7)
    check(rng_a == run.workload_invocations("structure", 7)
          and rng_a != run.workload_invocations("structure", 8),
          "the seed fixes the group order", problems)

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py", problems)
    check(spec["per_layer"] == layers.per_layer_spec(),
          "BENCHMARK.json per_layer matches layers.py", problems)
    e2e, _ = run.end_to_end([real_pass], [(0.1, 0.2)])
    check({m["name"]: m["unit"] for m in spec["end_to_end"]}
          == {k: v["unit"] for k, v in e2e.items()},
          "BENCHMARK.json end_to_end matches run.py", problems)
    print(json.dumps({"selftest": "passed" if not problems else "failed",
                      "problems": problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
