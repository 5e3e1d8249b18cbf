"""Install the e2ebench tracer in every interpreter of a traced run.

Only a traced run puts this directory on ``PYTHONPATH``; it reaches
interpreters the traced process starts itself, such as spawned pool
workers, which do not inherit the wrapped functions a fork would copy.
"""

import os

if os.environ.get("E2EBENCH_TRACE_DIR"):
    import tracer

    tracer.install(os.environ["E2EBENCH_TRACE_DIR"])
