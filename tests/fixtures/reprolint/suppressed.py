"""Fixture: inline suppressions — one justified, one bare, one unrelated."""


def compare(val):
    """The RD201 on the next line is suppressed with a justification."""
    return val == 1.0  # reprolint: disable=RD201 -- sentinel equality against the documented default


def compare_bare(val):
    """Suppressed but without a justification (reported as RD002)."""
    return val == 2.0  # reprolint: disable=RD201


def swallow():
    """The suppression names a different code, so RD301 still fires."""
    try:
        return 1
    except:  # reprolint: disable=RD303 -- wrong code on purpose
        return None
