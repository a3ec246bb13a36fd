"""Shared test tooling: wall-time limits, the one-line error rule, and a
CLI run in a child process under an address-space limit."""

import contextlib
import os
import pathlib
import resource
import signal
import subprocess
import sys

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
