"""What a fresh interpreter loads: `import conicot` brings numpy and conicot's
own modules, scipy.sparse loads only with the first CSR factor, and no
conicot code loads scipy.optimize: exact OT is conicot's own simplex.
Neither json (read by load_json and the CLI) nor concurrent.futures (a
multi-threaded dense build) loads with the package.

Each case runs in its own interpreter, since sys.modules remembers every
import of the test session.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# sys.modules is read before the report imports json to print it
_REPORT = """
import sys
loaded = sorted(m for m in ("scipy.sparse", "scipy.optimize", "json", "concurrent.futures")
                if m in sys.modules)
import json
print(json.dumps(loaded))
"""

_CASES = {
    "conicot": "import conicot",
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
assert value == 0.0 and np.array_equal(coupling, np.diag(a))
""",
}

# scipy.sparse itself imports json and concurrent.futures
_LOADED = {
    "conicot": [],
    "import": ["json"],
    "dense_cgw": [],
    "csr_bench": ["concurrent.futures", "json", "scipy.sparse"],
    "ot_exact": [],
}


@pytest.mark.parametrize("case", list(_CASES))
def test_fresh_interpreter_loads_scipy_submodules_on_first_use(case):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", _CASES[case] + _REPORT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == _LOADED[case]
