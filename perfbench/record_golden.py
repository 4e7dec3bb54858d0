"""Record golden.json: the stdout digest and exit code of every invocation
any benchmark seed can generate, taken from the sources in ./src.

    python3 perfbench/record_golden.py

Run it in a git checkout of the commit whose outputs are the reference; it
refuses to record an invocation that exits non-zero or prints a traceback.
"""

import hashlib
import json
import subprocess
import sys

import run


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    env = run.child_env()
    run.prepare(env)
    invocations = {}
    for args in run.all_invocations():
        res = run.run_child(run.cli_argv(args, trace=False), env, args=args)
        if res.rc != 0 or b"Traceback" in res.stderr:
            print("record_golden: %s exited %d: %s"
                  % (run.key_of(args), res.rc, res.stderr.decode(errors="replace")[-500:]),
                  file=sys.stderr)
            return 1
        invocations[run.key_of(args)] = {
            "sha256": hashlib.sha256(res.stdout).hexdigest(), "exit": res.rc}
        print("%7.2f s  %s" % (res.wall_s, run.key_of(args)), flush=True)
    stamp = dict(run.env_stamp(), git_sha=git_sha())
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"recorded_at": stamp, "invocations": invocations}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
