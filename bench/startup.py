"""Cold-start probe: what a user waits for before the first op.

`probe()` starts fresh interpreters running coldstart.py, which times
`import qu2.cli` plus the workload's own set-up from inside the child, and
takes medians over them.  Each child's set-up time is divided by the
slowdown its own calibration block measured, as op times are (see
calibrate.py).  A bare `python -c pass` is timed next to each child, so
the interpreter's own start-up cost stands apart from qu2's.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

CHILD = Path(__file__).resolve().parent / "coldstart.py"


def _bare_interpreter_s() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return perf_counter() - t0


def _probe_once(src: str, workload: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(CHILD), workload], env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"cold-start probe failed (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-300:]}")
    info = json.loads(proc.stdout.splitlines()[-1])
    if not info["qu2"].startswith(src + os.sep):
        raise RuntimeError(f"probe imported qu2 from {info['qu2']}, not {src}")
    return info


def probe(src: str, workload: str, repeats: int) -> dict:
    """Medians over `repeats` fresh interpreters, after one warm-up start
    that writes the bytecode caches.  Raises RuntimeError when qu2 cannot
    be imported from `src`."""
    _probe_once(src, workload)
    bare, rows = [], []
    for _ in range(repeats):
        bare.append(_bare_interpreter_s())
        rows.append(_probe_once(src, workload))
    med = lambda key: statistics.median(r[key] for r in rows)
    return {
        "setup_s": statistics.median(r["setup_s"] / r["slowdown"] for r in rows),
        "setup_raw_s": med("setup_s"),
        "cli.interpreter_s": statistics.median(bare),
        "cli.import_s": med("import_s"),
        "cli.build_parser_s": med("build_parser_s"),
        "cli.main_s": med("main_s"),
        "ok": all(r["ok"] for r in rows),
        "repeats": repeats,
    }
