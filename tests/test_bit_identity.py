"""The artifacts of small runs of every kind are the recorded bits.

The records and the regeneration command live in ``bit_identity.py``.
"""

from bit_identity import (
    differences,
    environment,
    exit_digests,
    mutated,
    read_recorded,
    run_digests,
)


def test_every_kind_reproduces_its_recorded_digests():
    recorded = read_recorded()
    moved = differences(recorded["digests"], run_digests(workers=1))
    assert not moved, (
        f"artifacts differ from tests/bit_identity.json: {moved}; recorded "
        f"under {recorded['environment']}, this is {environment()}; a "
        "different numpy or platform can move these bits without a code "
        "change")


def test_exit_digests_see_one_ulp_of_exit_trial_fprime():
    # An exit outcome quantizes a path to (step, side); the final arc
    # coordinate in the digest keeps one ulp of F' visible.
    base = exit_digests()
    with mutated("exit_block", 1):
        moved = [k for k, v in exit_digests().items() if v != base[k]]
    assert moved
