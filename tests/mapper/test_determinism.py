"""Model emission must not depend on the process hash seed.

Variable and constraint order feeds straight into solver behaviour
(branching order, hence solve time and which optimum is returned), so
``build_formulation`` must never iterate raw sets/dicts when emitting.
The only way to actually catch a regression is to compare emissions
across interpreter processes with different ``PYTHONHASHSEED`` values —
inside one process the seed is fixed and any order looks stable.
"""

import os
import subprocess
import sys
from pathlib import Path

from .helpers import form_digest

ROOT = Path(__file__).resolve().parents[2]

# Builds a small formulation with fan-out (exercises the R3 sub-value
# machinery) and digests every emission-ordered surface of the model.
SCRIPT = """
import hashlib

from repro.arch import GridSpec, build_grid
from repro.dfg import DFGBuilder
from repro.mapper.ilp_mapper import ILPMapperOptions, build_formulation
from repro.mrrg import build_mrrg_from_module, prune

b = DFGBuilder("fanout")
x, y = b.input("x"), b.input("y")
s = b.add(x, y, name="s")
t = b.sub(s, y, name="t")
b.output(b.add(s, t, name="u"), name="o")
dfg = b.build()
grid = build_grid(GridSpec(rows=2, cols=2), name="g")
mrrg = prune(build_mrrg_from_module(grid, 1))

form = build_formulation(dfg, mrrg, ILPMapperOptions())
digest = hashlib.sha256()
for var in form.model.variables:
    digest.update(var.name.encode() + b"|")
for con in form.model.constraints:
    digest.update(con.name.encode())
    digest.update(con.sense.value.encode())
    digest.update(repr(con.rhs).encode())
    for var in con.expr.variables():
        digest.update(var.name.encode() + b",")
    digest.update(b";")

# The compiled StandardForm is the surface the solver actually sees —
# digest it too, so a hash-seed leak anywhere between emission and
# compilation is caught.
from repro.ilp import compile_model
from tests.mapper.helpers import form_digest

digest.update(form_digest(compile_model(form.model)).encode())
print(digest.hexdigest())
"""


# The simulator's per-context schedule is derived from a set union
# (``used | active_fus``) — the R001 site fixed alongside the analyze
# subsystem.  Its topological tie-breaking order must likewise not leak
# the hash seed.
SIM_SCHEDULE_SCRIPT = """
import hashlib

from repro.arch import GridSpec, build_grid
from repro.dfg import DFGBuilder
from repro.mapper.config import extract_configuration
from repro.mapper.greedy_mapper import GreedyMapper, GreedyMapperOptions
from repro.mapper.simulate import FabricSimulator
from repro.mrrg import build_mrrg_from_module, prune

b = DFGBuilder("tiny")
x, y = b.input("x"), b.input("y")
b.output(b.add(x, y, name="s"), name="o")
dfg = b.build()
grid = build_grid(GridSpec(rows=2, cols=2), name="g")
mrrg = prune(build_mrrg_from_module(grid, 1))

result = GreedyMapper(GreedyMapperOptions(seed=3, restarts=4)).map(dfg, mrrg)
assert result.mapping is not None, "greedy failed to map the tiny DFG"
sim = FabricSimulator(extract_configuration(result.mapping))
digest = hashlib.sha256()
for ctx in sorted(sim._schedule):
    for node in sim._schedule[ctx]:
        digest.update(node.node_id.encode() + b"|")
print(digest.hexdigest())
"""


def _digest(script: str, hash_seed: int) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout.strip()


def _emission_digest(hash_seed: int) -> str:
    return _digest(SCRIPT, hash_seed)


def test_emission_order_survives_hash_randomization():
    digests = {_emission_digest(seed) for seed in (0, 1, 2)}
    assert len(digests) == 1, (
        "ILP variable/constraint emission depends on PYTHONHASHSEED; "
        "a raw set/dict is being iterated somewhere in build_formulation"
    )


def test_simulator_schedule_survives_hash_randomization():
    digests = {_digest(SIM_SCHEDULE_SCRIPT, seed) for seed in (0, 1)}
    assert len(digests) == 1, (
        "FabricSimulator schedule order depends on PYTHONHASHSEED; "
        "a raw set is being iterated in _build_schedule"
    )


def test_compiled_form_is_byte_identical_across_builds():
    """Two independent builds of the same instance compile to the same

    bytes — the property the service fingerprint/cache layer and the
    formulation cache both lean on.
    """
    from repro.arch import GridSpec, build_grid
    from repro.dfg import DFGBuilder
    from repro.ilp import compile_model
    from repro.mapper.ilp_mapper import ILPMapperOptions, build_formulation
    from repro.mrrg import build_mrrg_from_module, prune

    def build_once():
        b = DFGBuilder("fanout")
        x, y = b.input("x"), b.input("y")
        s = b.add(x, y, name="s")
        t = b.sub(s, y, name="t")
        b.output(b.add(s, t, name="u"), name="o")
        dfg = b.build()
        grid = build_grid(GridSpec(rows=2, cols=2), name="g")
        mrrg = prune(build_mrrg_from_module(grid, 1))
        return compile_model(
            build_formulation(dfg, mrrg, ILPMapperOptions()).model
        )

    assert form_digest(build_once()) == form_digest(build_once())
