"""What a fresh interpreter loads: `import conicot` brings numpy and conicot's
own modules, and scipy.sparse and scipy.optimize load only on first use.

Each case runs in its own interpreter, since sys.modules remembers every
import of the test session.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_REPORT = """
import json, sys
print(json.dumps({m: m in sys.modules for m in ("scipy.sparse", "scipy.optimize")}))
"""

_CASES = {
    "import": "import conicot, conicot.cli",
    "dense_cgw": """
import numpy as np
import conicot as c
rng = np.random.default_rng(0)
nets = []
for n in (6, 7):
    pts = rng.normal(size=(n, 2))
    nets.append(c.validate_network(np.full(n, 1.0 / n),
                                   np.linalg.norm(pts[:, None] - pts[None], axis=-1)))
dist, report = c.cgw_solve(*nets, c.SolverConfig(kernel=c.make_kernel("exp", 0.5)))
assert dist > 0 and report.pd_min_eigenvalue is not None
""",
    # the CI smoke step's bench size: its factors are stored CSR, which is
    # what imports scipy.sparse
    "csr_bench": """
import contextlib, io
from conicot.cli import run_command
with contextlib.redirect_stdout(io.StringIO()):
    assert run_command(["bench", "--sizes", "300", "--max-iters", "5"]) == 0
""",
    "ot_exact": """
import numpy as np
from conicot import ot_exact
a = np.full(5, 0.2)
coupling, value = ot_exact(a, a, 1.0 - np.eye(5))
assert value == 0.0 and np.array_equal(coupling.matrix, np.diag(a))
""",
}

_LOADED = {
    "import": {"scipy.sparse": False, "scipy.optimize": False},
    "dense_cgw": {"scipy.sparse": False, "scipy.optimize": False},
    "csr_bench": {"scipy.sparse": True, "scipy.optimize": False},
    "ot_exact": {"scipy.sparse": True, "scipy.optimize": True},
}


@pytest.mark.parametrize("case", list(_CASES))
def test_fresh_interpreter_loads_scipy_submodules_on_first_use(case):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", _CASES[case] + _REPORT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == _LOADED[case]
