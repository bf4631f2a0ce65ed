"""The re-armable kernel timer: sequencing, tie order, and misuse."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Timer


def test_each_arm_takes_one_sequence_number_and_fires_once():
    env = Environment()
    fired = []
    timer = Timer(env, lambda t: fired.append((env.now, t)), "tick")
    before = env._seq
    timer.arm(1.0)
    assert env._seq == before + 1
    env.run()
    assert fired == [(1.0, timer)]
    timer.arm(2.5)
    env.run()
    assert fired[-1] == (3.5, timer)
    assert env._seq == before + 2
    assert not timer.processed


def test_rearming_from_the_callback_makes_a_periodic_source():
    env = Environment()
    times = []

    def beat(timer):
        times.append(env.now)
        if len(times) < 4:
            timer.arm(0.5)

    Timer(env, beat).arm(0.0)
    env.run()
    assert times == [0.0, 0.5, 1.0, 1.5]


def test_ties_with_timeouts_fire_in_scheduling_order():
    env = Environment()
    order = []
    first = env.timeout(1.0)
    first.add_callback(lambda e: order.append("timeout-1"))
    Timer(env, lambda t: order.append("timer")).arm(1.0)
    last = env.timeout(1.0)
    last.add_callback(lambda e: order.append("timeout-2"))
    env.run()
    assert order == ["timeout-1", "timer", "timeout-2"]


def test_urgent_arm_fires_before_normal_events_at_the_same_instant():
    env = Environment()
    order = []
    env.timeout(0.0).add_callback(lambda e: order.append("normal"))
    Timer(env, lambda t: order.append("urgent")).arm(0.0, urgent=True)
    env.run()
    assert order == ["urgent", "normal"]


def test_processes_cannot_wait_on_a_timer():
    env = Environment()
    timer = Timer(env, lambda t: None, "rwp:n0")

    def waiter(env):
        yield timer

    env.process(waiter(env))
    with pytest.raises(SimulationError, match="cannot be waited on"):
        env.run()
    with pytest.raises(SimulationError):
        timer.add_callback(lambda e: None)


def test_negative_delay_is_rejected():
    with pytest.raises(ValueError):
        Timer(Environment(), lambda t: None).arm(-1.0)
