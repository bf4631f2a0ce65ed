"""The timer-driven random waypoint replays the generator walk exactly.

:class:`~repro.net.RandomWaypoint` moves each node from one re-armable
kernel timer; :func:`repro.net.reference.reference_random_waypoint` is
the generator-process walk it replaced.  Both must produce the same
positions at every instant *and* consume kernel sequence numbers at the
same points, so events that tie with a tick keep their order.  Probe
processes that wake every second from t = 0 tie with the ticks; one is
created before the model and one after it, so both tie orders occur.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.net import (
    Area,
    Network,
    NetworkNode,
    Position,
    RandomWaypoint,
    WIFI_ADHOC,
)
from repro.net.reference import reference_random_waypoint
from repro.sim import Environment, RandomStreams

#: Includes degenerate areas, where a leg can have zero length.
side = st.sampled_from([0.0, 0.5, 3.0, 40.0, 400.0])

speed_range = st.tuples(st.floats(0.1, 5.0), st.floats(0.0, 5.0)).map(
    lambda pair: (pair[0], pair[0] + pair[1])
)

#: Either no pauses at all or a range at least 0.25 s wide: a range of
#: subnormal width draws 0.0 nearly always, and in a zero-size area
#: neither model would then ever yield.
pause_range = st.one_of(
    st.just((0.0, 0.0)),
    st.tuples(st.floats(0.0, 4.0), st.floats(0.25, 4.0)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ),
)

tick = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(0.05, 3.0))

start = st.tuples(st.floats(-20.0, 420.0), st.floats(-20.0, 420.0))


def _trace(model, seed, starts, area, speeds, pauses, step, until=30.0):
    env = Environment()
    network = Network(env)
    nodes = [
        network.add_node(
            NetworkNode(env, f"n{index}", Position(x, y), technologies=[WIFI_ADHOC])
        )
        for index, (x, y) in enumerate(starts)
    ]
    trace = []

    def probe(env):
        while True:
            yield env.timeout(1.0)
            trace.append(
                (
                    env.now,
                    network.topology_epoch,
                    [(node.position.x, node.position.y) for node in nodes],
                )
            )

    env.process(probe(env))
    model(
        env,
        nodes,
        area,
        RandomStreams(seed),
        speed_range=speeds,
        pause_range=pauses,
        tick=step,
    )
    env.process(probe(env))
    env.run(until=until)
    return trace, env._seq


class TestTimerWalkEqualsGeneratorWalk:
    @given(
        st.integers(0, 2**16),
        st.lists(start, min_size=1, max_size=4),
        side,
        side,
        speed_range,
        pause_range,
        tick,
    )
    @settings(max_examples=150, deadline=None)
    def test_same_positions_and_sequence_numbers(
        self, seed, starts, width, height, speeds, pauses, step
    ):
        # A zero-size area with no pause never yields in either model.
        assume(width > 0 or height > 0 or pauses[1] > 0)
        area = Area(width, height)
        args = (seed, starts, area, speeds, pauses, step)
        assert _trace(RandomWaypoint, *args) == _trace(
            reference_random_waypoint, *args
        )

    def test_zero_length_legs_with_pauses(self):
        # Every destination in a 0 x 0 area is the node's own position.
        starts = [(5.0, 5.0), (0.0, 0.0)]
        args = (3, starts, Area(0, 0), (1.0, 2.0), (0.0, 1.0), 0.5)
        timer_trace, timer_seq = _trace(RandomWaypoint, *args)
        assert (timer_trace, timer_seq) == _trace(reference_random_waypoint, *args)
        assert timer_trace[-1][2] == [(0.0, 0.0), (0.0, 0.0)]
