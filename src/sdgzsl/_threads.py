"""When the library runs work on a second thread, and the one pool that does it.

Two functions hand part of their work to a pool of one thread: ``mlp.train``
runs epoch e+1's SGD steps there beside epoch e's full-set loss, and the
statistics pass of ``gates`` submits once per call, so that the pool's
thread and the caller each take the next untaken chunk of the call's one
queue.  Both ask ``second_thread``, which gives them the thread only when

* the caller wants it: ``train`` when its loss forward has at least
  ``mlp._OVERLAP_MACS`` multiply-adds, the pass when some split has more
  than one chunk; below that the hand-offs cost more than they hide;
* BLAS runs each product on one thread: the first of
  ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS``
  that holds a positive integer is 1, as the benchmark sets it.  With BLAS
  on every core, two callers only share the same cores;
* two CPUs are usable; and
* no function the threads call has been replaced by a wrapper
  (``functools.wraps`` leaves ``__wrapped__``), such as a tracer's, whose
  state need not be safe on two threads.  One list, ``_wrapped``, names
  those functions for both callers.

Otherwise the same loop runs on the calling thread.  Every product is the
same call on the same operands either way, so no result changes by a bit.
``concurrent.futures`` is imported only when a pool starts: with numpy
loaded it still takes milliseconds, and a CLI start-up skips it.
"""

import contextlib
import contextvars
import os


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _blas_on_one_thread() -> bool:
    """Whether BLAS runs each product on one thread, read as OpenBLAS (numpy's own
    BLAS) reads it when it loads: the first of these variables that holds a
    positive integer.  With none set, OpenBLAS runs on every core."""
    for key in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(key, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value) == 1
    return False


def _wrapped() -> bool:
    """Whether a function that ``train``'s steps and loss or the statistics pass
    call has been wrapped, each read from its module at call time."""
    from . import gates, mlp  # both loaded by the time a caller asks

    return any(hasattr(fn, "__wrapped__") for fn in (
        mlp.mse_loss, mlp._layers, mlp._gradient, mlp.check_finite,
        mlp.SplitMix64.permutation, gates.forward_batch, gates._row_norms, gates._screen))


@contextlib.contextmanager
def second_thread(name: str, wanted: bool):
    """``None`` unless the policy above gives ``wanted`` a second thread, else
    ``submit(fn, *args)`` on a pool of one thread named ``name``, which runs
    each call in a copy of the submitter's context (numpy's errstate is a
    context variable) and returns its future.  On exit the queued calls are
    cancelled and the thread is joined."""
    if not (wanted and _blas_on_one_thread() and _usable_cpus() >= 2 and not _wrapped()):
        yield None
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(1, name)
    try:
        yield lambda fn, *args: pool.submit(contextvars.copy_context().run, fn, *args)
    finally:
        pool.shutdown(cancel_futures=True)
