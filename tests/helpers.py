"""Shared test tooling: wall-time limits, the one-line error rule, a CLI
run in a child process under an address-space limit, and the extension
equations decided by Element products."""

import contextlib
import os
import pathlib
import resource
import signal
import subprocess
import sys

from qu2.element import eq, s

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def one_line_error(err):
    return err.count("\n") == 1 and err.startswith("qu2: ")


@contextlib.contextmanager
def time_limit(seconds, what):
    """Raise TimeoutError in the block after the given wall time, which
    may be a fraction of a second."""
    def stop(_signum, _frame):
        raise TimeoutError(f"{what} took over {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def run_limited(argv, seconds, max_bytes):
    """(exit code, stdout, stderr) of `python -m qu2.cli argv` in a child
    process whose address space is capped at max_bytes.  A run that
    allocates past the cap fails in the child, and one that takes over
    `seconds` of wall time is killed and raises subprocess.TimeoutExpired.
    """
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "qu2.cli", *argv],
                          capture_output=True, text=True, timeout=seconds,
                          preexec_fn=cap, env={**os.environ, "PYTHONPATH": path})
    return done.returncode, done.stdout, done.stderr


def extension_parts_by_products(pu, u_tilde):
    """(ext1, ext2) for the permutation unitary pu and a template in W, by
    Element arithmetic: the reference for endo.check_extension_parts, which
    reads both equations off the template's leaf map.  u S_i is the product
    pu.element * S_i, and Utilde (u S_2) = u S_1 and Utilde (u S_1) =
    (u S_2) Utilde are three more products compared by eq."""
    s1t, s2t = (pu.element * s((i,)) for i in (1, 2))
    return eq(u_tilde * s2t, s1t), eq(u_tilde * s1t, s2t * u_tilde)
