"""The peak memory a call allocates, measured by ``tracemalloc``.

``tracemalloc`` counts numpy's buffers as well as Python objects, so a peak
is the same on every host.
"""

import tracemalloc


def traced_peak(fn, *args):
    """``(result, peak bytes traced while fn(*args) ran)``."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
