"""The benchmark's traced sites still exist in spinchar and still record calls.

perfbench/layers.py names the functions a traced benchmark run wraps.  A
renamed or removed site, or one that no command reaches any more, only shows
in that run, which takes minutes.  The first test resolves every site the
same way the tracer does; layers.py is only read, never imported.  The
others run perfbench/tracer.py on short commands and check that the sites
of the representation layer, and of the structural checks, record calls.
Their children write no bytecode, so nothing is written under perfbench/.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "perfbench" / "layers.py"
LIVE_SITES = ("mackey.SubRep.verify", "mackey.induce", "spinrep.Representation.eval",
              "linalg.CycMatrix.inverse", "linalg.CycMatrix.__mul__", "linalg.nullspace",
              "linalg.intertwiner_space", "cyclo.Cyc.__mul__", "cyclo9.Cyc9.__mul__")
STRUCTURE_SITES = ("groups.exhaustive_associativity", "groups.random_triples_associative",
                   "groups.verify_efficient_covering", "groups.verify_phi_automorphism",
                   "groups.isomorphism_fingerprint", "groups.Group.conjugacy_classes",
                   "groups.Group.enumerate_elements", "groups.collect")


def _sites():
    namespace = {}
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), namespace)
    return namespace["SITES"]


def test_every_traced_site_resolves_to_a_function():
    sites = _sites()
    assert "mackey.SubRep.verify" in sites and "spinrep.Representation.eval" in sites
    for site in sites:
        module_name, *path = site.split(".")
        owner = importlib.import_module("spinchar." + module_name)
        for part in path[:-1]:
            owner = getattr(owner, part)
        target = inspect.getattr_static(owner, path[-1], None)
        assert target is not None, "%s is missing" % site
        assert inspect.isfunction(target) or hasattr(target, "cache_info"), \
            "%s is a %s, not a function" % (site, type(target).__name__)


def _traced_calls(argv):
    """Per-site call counts of one traced CLI run, read from the pipe that
    PERFBENCH_TRACE_FD names."""
    read_fd, write_fd = os.pipe()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               PERFBENCH_TRACE_FD=str(write_fd))
    proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "tracer.py")] + argv,
                            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            pass_fds=(write_fd,))
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        summary = fh.read()
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err.decode()
    return {site: stat[0] for site, stat in json.loads(summary)["sites"].items()}


@pytest.mark.parametrize("argv", [
    ["verify", "--only", "characters,representations"],
    ["irreps", "--spin", "1,1", "--format", "json"],
])
def test_representation_sites_record_calls(argv):
    calls = _traced_calls(argv)
    assert {site: calls.get(site, 0) > 0 for site in LIVE_SITES} == \
        {site: True for site in LIVE_SITES}


def test_structure_sites_record_calls():
    calls = _traced_calls(["verify", "--only", "structure,automorphism,associativity"])
    assert {site: calls.get(site, 0) > 0 for site in STRUCTURE_SITES} == \
        {site: True for site in STRUCTURE_SITES}
