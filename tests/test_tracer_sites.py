"""The benchmark tracer still finds every function and binding site it wraps.

`perfbench/tracer.py` refuses to install when a traced function or one of
its listed binding sites is gone, so a refactor that drops an import would
otherwise surface only in a traced benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INSTALL = (
    "import sys; import swlyap.cli; sys.path.insert(0, sys.argv[1]); "
    "from tracer import Tracer; Tracer().install()"
)


def test_tracer_installs_on_the_cli_modules():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "perfbench")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
