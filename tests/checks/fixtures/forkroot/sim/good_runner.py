"""Clean fork patterns: nothing here may be flagged."""

import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from sim.runner import configure_store, job_reading_global

_CACHE = {}  # per-process memo, mutated by item assignment only


def pure_job(spec):
    _CACHE[spec] = spec
    return spec


def wired_pool(specs, root):
    # The initializer's call tree writes _WORKER_STORE, so the worker
    # read in job_reading_global is wired.
    initializer = None
    initargs = ()
    if root is not None:
        initializer = configure_store
        initargs = (root,)
    with ProcessPoolExecutor(
        max_workers=2, initializer=initializer, initargs=initargs
    ) as pool:
        pool.submit(job_reading_global, specs[0])
        pool.submit(pure_job, specs[1])
        pool.submit(partial(pure_job, specs[2]))
        pool.submit(os.getpid)


def new_pool(root):
    # A pool factory: every file building its pool here is wired.
    return ProcessPoolExecutor(
        max_workers=2, initializer=configure_store, initargs=(root,))


class Service:
    def __init__(self, job_fn):
        # Data attribute holding a module-level callable: picklable by
        # reference, not a bound method.
        self.job_fn = job_fn

    def dispatch(self, spec):
        with ProcessPoolExecutor(max_workers=2) as pool:
            return pool.submit(self.job_fn, spec)
