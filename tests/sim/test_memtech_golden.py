"""The far-memory thesis, read from the committed memory-technology golden.

``tests/sim/test_golden.py`` re-runs the grid and diffs it against
``tests/golden/memory_technology.json``; this test checks that the pinned
numbers themselves encode the paper-level claim.
"""

from repro.sim.golden import SUITES, load


def test_golden_pins_the_far_memory_thesis():
    """The committed numbers themselves encode the headline claim: the
    link hurts the baseline far more than DX100, so the speedup grows
    from local DDR4 to all-far CXL."""
    golden = load(SUITES["memtech"])["metrics"]

    def speedup(scenario):
        return (golden[scenario]["baseline"]["cycles"]
                / golden[scenario]["dx100"]["cycles"])

    assert speedup("cxl") > speedup("local") * 1.5
    assert golden["cxl"]["baseline"]["cycles"] > \
        2 * golden["local"]["baseline"]["cycles"]
    dx_degradation = (golden["cxl"]["dx100"]["cycles"]
                      / golden["local"]["dx100"]["cycles"])
    base_degradation = (golden["cxl"]["baseline"]["cycles"]
                        / golden["local"]["baseline"]["cycles"])
    assert dx_degradation < base_degradation / 2
