"""Seeded bug: adds an elapsed time (seconds) to a KB/s rate, the unit
Tables 1-4 report.

Exactly one ``unit-mismatch`` finding fires here.
"""


def total_cost(elapsed_s, rate_kb_s):
    return elapsed_s + rate_kb_s
