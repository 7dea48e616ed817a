"""One round of the pipeline in a fresh process: the process whose time and
memory the benchmark reports.

Run by run.py as `python3 perfbench/worker.py <round.json>`. The round file
names the checkout's `src`, the launch time, whether to trace, the command
lines in order, and which labelled file `train.jsonl` and `valid.jsonl` are
cut from before `train`. Results go to `timings.json` in the
round directory. BLAS is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import ctypes
import json
import sys
import time
import traceback
from pathlib import Path


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main(round_file: str) -> int:
    spec = json.loads(Path(round_file).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import numpy as np
    import rnnsum.cli as cli

    from tracing import SetupTimer, Tracer

    imported = time.monotonic()
    setup = SetupTimer()
    setup.install()
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    work = Path(spec["round_dir"])
    split = spec["split"]
    invocations = []
    with open(work / "commands.log", "w", encoding="utf-8") as log:
        for command in spec["commands"]:
            name = command["name"]
            if name == "train":
                try:
                    lines = Path(split["from"]).read_text(encoding="utf-8").splitlines(True)
                except OSError:  # labelling failed; train then fails and counts as failed
                    lines = []
                n_train, n_valid = split["train"], split["valid"]
                (work / "train.jsonl").write_text("".join(lines[:n_train]), encoding="utf-8")
                (work / "valid.jsonl").write_text("".join(lines[n_train : n_train + n_valid]), encoding="utf-8")
            if tracer is not None:
                tracer.command = name
            before = setup.seconds
            error = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    rc = cli.main(command["argv"])
            except Exception:  # a crash in one command is a failed operation, not a dead round
                rc, error = -1, traceback.format_exc(limit=3)
            wall = time.perf_counter() - start
            invocations.append({
                "name": name, "slice": command["slice"], "rc": rc, "wall_s": wall,
                "setup_s": setup.seconds - before, "error": error,
            })
    if tracer is not None:
        tracer.uninstall_gc()

    payload = {
        "import_s": imported - spec["launched"],
        "invocations": invocations,
        "blas_threads": blas_threads(),
        "numpy_version": np.__version__,
        "trace": None
        if tracer is None
        else {
            "totals": {c: dict(v) for c, v in tracer.totals.items()},
            "absent": tracer.absent,
            "absent_keys": sorted(tracer.absent_keys),
        },
    }
    (work / "timings.json").write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
