"""Map a function over items on forked worker processes.

The fee sweep (certify.phi_sweep) and the N-trader simulator
(nplayer._simulate_arms) both use it. Fork, not spawn: their closures hold
lambdas and policies that cannot be pickled, and a forked worker inherits
the parent's arrays copy-on-write, so only the items go out and only the
results come back.
"""
from __future__ import annotations

_fn = None  # the function a forked worker runs; set in the workers alone


def fork_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on min(workers, len(items)) forked processes.

    Results come back in the order of ``items``. With one item or one worker,
    or on a platform without fork, the items run in order here. An exception
    from ``fn`` reaches the caller with its type and message (pickled, so not
    the same object), after every worker has been joined.
    """
    items = list(items)
    if workers > 1 and len(items) > 1:
        import multiprocessing  # here, not at the top: it would slow every `import ammfg`
        if "fork" in multiprocessing.get_all_start_methods():
            # the pool forks every worker at its first submit, before it
            # starts a thread of its own
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(min(workers, len(items)),
                                     mp_context=multiprocessing.get_context("fork"),
                                     initializer=_adopt, initargs=(fn,)) as pool:
                return list(pool.map(_run, items))
    return [fn(item) for item in items]


def _adopt(fn) -> None:
    global _fn
    _fn = fn


def _run(item):
    return _fn(item)
