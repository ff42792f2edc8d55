"""The artifacts of small runs of every kind are the recorded bits.

The records and the regeneration command live in ``bit_identity.py``.
"""

from bit_identity import differences, environment, read_recorded, run_digests


def test_every_kind_reproduces_its_recorded_digests():
    recorded = read_recorded()
    moved = differences(recorded["digests"], run_digests(workers=1))
    assert not moved, (
        f"artifacts differ from tests/bit_identity.json: {moved}; recorded "
        f"under {recorded['environment']}, this is {environment()}; a "
        "different numpy or platform can move these bits without a code "
        "change")
