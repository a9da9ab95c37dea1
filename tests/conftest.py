"""Shared pytest plumbing: pins BLAS to one thread, builds points with a
given gradient and Hessian, and collects acceptance pass/fail lines, printed
in the terminal summary of every run."""

import os

# Every matrix the explorer factors is small (n <= 36 in this suite).  For
# these, threaded BLAS only adds overhead, and on a busy machine its waiting
# threads can slow a single eigh call tenfold or more.  Reports compared with
# one thread and with the default were byte-identical.  The variables are
# read once, when numpy loads, which is after this file is imported; an
# explicit setting by the caller wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_acceptance_lines: list[str] = []


def point_with(grad, h):
    """A Point at the origin whose grad g and Hessian are ``grad`` and ``h``:
    its lazy attributes are set in place of evaluations.  It has no
    potential, so only rules that read grad g, |grad g|, G, the Hessian and
    its eigendecomposition apply to it."""
    import numpy as np   # after the BLAS settings above
    from ddcid.local_search import Point

    at = Point(None, np.zeros(len(grad)))
    at.grad, at.hessian = np.array(grad, dtype=float), np.array(h, dtype=float)
    return at


def record_acceptance_line(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.line(line)
