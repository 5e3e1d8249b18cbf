"""Mutation fixture: a module-global scalar rebound in a sweep worker.

``global _served`` then ``_served += 1`` rebinds the module's name: a
reused pool process counts the tasks it served before, so the value a
result embeds depends on worker reuse.  The ``global`` statement comes
before the rebinding, which is the order a body walk meets them in.
"""

_served = 0


def sweep_worker(task):
    """repro: worker-entry"""
    global _served
    _served += 1
    return (_served, task)
