"""Stage timers: accumulation, and the free null stand-in."""

from repro.sim.profile import NULL_TIMERS, StageTimers


def test_stage_timers_accumulate_and_null_is_free():
    timers = StageTimers()
    with timers.stage("a"):
        pass
    with timers.stage("a"):
        pass
    with timers.stage("b"):
        pass
    d = timers.as_dict()
    assert set(d) == {"a", "b"}
    assert all(v >= 0 for v in d.values())
    # The null timer records nothing and returns a shared no-op context.
    with NULL_TIMERS.stage("anything"):
        pass
    assert NULL_TIMERS.as_dict() == {}
