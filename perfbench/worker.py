"""One benchmark sample: a fresh process that imports and runs the swlyap CLI.

Usage: python3 perfbench/worker.py REQUEST.json

The request names the source directory, the CLI argv, whether to trace, and
where to write the result.  Setup time is the `import swlyap.cli` alone
(numpy, scipy and the library, as every CLI call pays it); task time and CPU
time cover `main(argv)` only.  The process inherits the caller's environment,
BLAS thread variables included.

An untraced sample also runs a speed probe during `main`: every
PROBE_INTERVAL_S a SIGALRM handler times a fixed piece of reference work
(interpreter arithmetic and small-array numpy calls, no BLAS).  The probe
durations say how fast the host ran this process while the task ran; the
caller uses them to rescale the task's times to a fixed host speed.  The
probes' own time is reported so it can be taken out of the task's.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path


def blas_threads() -> dict:
    """Thread count each bundled OpenBLAS reports, keyed by library file."""
    found = {}
    for pkg in ("numpy", "scipy"):
        mod = sys.modules.get(pkg)
        if mod is None:
            continue
        libdir = Path(mod.__file__).parent.parent / f"{pkg}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


PROBE_INTERVAL_S = 0.01


class SpeedProbe:
    """Times a fixed piece of reference work at every timer tick while active.

    The handler runs in the main thread between bytecodes, so it never
    interrupts numpy mid-call, and Python retries system calls it interrupts.
    """

    def __init__(self):
        import numpy

        self._v = numpy.ones(2)
        self.times = []

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        s = 0
        for i in range(1000):
            s += i * i
        v = self._v
        for _ in range(50):
            v = v * 0.5 + 1.0
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    with open(sys.argv[1]) as fh:
        req = json.load(fh)
    sys.path.insert(0, req["src"])

    t0 = time.perf_counter()
    import swlyap.cli
    setup_s = time.perf_counter() - t0

    result = {"setup_s": setup_s, "exit": None, "error": None}
    src = Path(req["src"]).resolve()
    if src not in Path(swlyap.cli.__file__).resolve().parents:
        result["error"] = f"imported {swlyap.cli.__file__}, not the checkout's {src}"
    else:
        tracer = None
        try:
            if req["trace"]:
                from tracer import Tracer, TraceSetupError

                try:
                    tracer = Tracer().install()
                except TraceSetupError as exc:
                    result["trace_setup_error"] = str(exc)
                    raise
            probe = contextlib.nullcontext(None) if tracer else SpeedProbe()
            w0, c0 = time.perf_counter(), time.process_time()
            with probe:
                try:
                    result["exit"] = swlyap.cli.main(req["argv"])
                except SystemExit as exc:
                    result["exit"] = exc.code
            result["task_s"] = time.perf_counter() - w0
            result["task_cpu_s"] = time.process_time() - c0
            if tracer is None:
                result["probe_s"] = probe.times
        except Exception:
            result["error"] = traceback.format_exc()
        if tracer is not None:
            result["trace"] = tracer.snapshot()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = blas_threads()

    tmp = req["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, req["result"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
