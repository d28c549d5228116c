"""The three linear anneals (A2C entropy coefficient, DQN epsilon, the ABR
guard's threshold) share `stats.linear_decay`. Each must equal, bit for bit,
the closed form it had when it was written out by hand; those closed forms
are kept here as the references."""

import struct

import numpy as np
from hypothesis import example, given, settings, strategies as st

from nonstat_rl.a2c import A2cLearner
from nonstat_rl.abr import FakeReplayGuard
from nonstat_rl.dqn import DqnLearner
from nonstat_rl.nets import Mlp
from nonstat_rl.stats import nearest_rank

SETTINGS = settings(max_examples=200, deadline=None)
EPOCHS = st.integers(0, 300)
SPANS = st.integers(-3, 200)  # includes span <= 0


def same_bits(a, b):
    return struct.pack("<d", a) == struct.pack("<d", b)


def entropy_reference(entropy_start, entropy_epochs, epoch):
    if entropy_epochs <= 0:
        return 0.0
    return entropy_start * max(0.0, 1.0 - epoch / entropy_epochs)


def epsilon_reference(random_epochs, decay_epochs, epoch):
    if epoch < random_epochs:
        return 1.0
    if decay_epochs <= 0:
        return 0.0
    return max(0.0, 1.0 - (epoch - random_epochs) / decay_epochs)


def threshold_reference(cap, calibration_epochs, anneal_epochs, buffers, epoch):
    if epoch < calibration_epochs:
        return cap
    start_value = min(cap, nearest_rank(buffers, 99)) if buffers else cap
    if anneal_epochs <= 0:
        return 0.0
    frac = (epoch - calibration_epochs) / anneal_epochs
    return start_value * max(0.0, 1.0 - frac)


@SETTINGS
@given(start=st.floats(0.0, 1.0), span=SPANS, epoch=EPOCHS)
@example(start=0.1, span=50, epoch=50)    # exactly at the end of the span
@example(start=0.1, span=50, epoch=51)    # past it
@example(start=0.1, span=0, epoch=0)
@example(start=0.1, span=-1, epoch=7)
def test_entropy_coef_matches_closed_form(start, span, epoch):
    rng = np.random.default_rng(0)
    learner = A2cLearner(Mlp([2, 3, 2], head="softmax", rng=rng),
                         Mlp([2, 3, 1], head="identity", rng=rng), gamma=0.9,
                         entropy_start=start, entropy_epochs=span)
    assert same_bits(learner.entropy_coef(epoch), entropy_reference(start, span, epoch))


@SETTINGS
@given(warmup=st.integers(0, 50), span=SPANS, epoch=EPOCHS)
@example(warmup=10, span=100, epoch=9)    # last fully random epoch
@example(warmup=10, span=100, epoch=10)   # first annealed epoch
@example(warmup=10, span=100, epoch=110)  # end of the anneal
@example(warmup=10, span=100, epoch=111)
@example(warmup=10, span=0, epoch=10)
@example(warmup=0, span=-2, epoch=0)
def test_epsilon_matches_closed_form(warmup, span, epoch):
    learner = DqnLearner(Mlp([2, 3, 2], rng=np.random.default_rng(0)), gamma=0.9,
                         random_epochs=warmup, decay_epochs=span)
    assert same_bits(learner.epsilon(epoch), epsilon_reference(warmup, span, epoch))


@SETTINGS
@given(cap=st.floats(0.5, 40.0), calibration=st.integers(0, 20), span=SPANS,
       buffers=st.lists(st.floats(0.0, 60.0), max_size=8), epoch=EPOCHS)
@example(cap=20.0, calibration=5, span=50, buffers=[10.0], epoch=4)   # calibrating
@example(cap=20.0, calibration=5, span=50, buffers=[10.0], epoch=5)   # anneal starts
@example(cap=20.0, calibration=5, span=50, buffers=[10.0], epoch=55)  # anneal ends
@example(cap=20.0, calibration=5, span=50, buffers=[30.0], epoch=56)
@example(cap=20.0, calibration=0, span=0, buffers=[], epoch=0)
@example(cap=20.0, calibration=3, span=-1, buffers=[4.0], epoch=3)
def test_guard_threshold_matches_closed_form(cap, calibration, span, buffers, epoch):
    guard = FakeReplayGuard(cap=cap, calibration_epochs=calibration, anneal_epochs=span)
    rng = np.random.default_rng(0)
    for b in buffers:  # the calibration sample, seen before the first set_epoch
        guard.gate(b, rng)
    guard.set_epoch(epoch)
    assert same_bits(guard.threshold(),
                     threshold_reference(cap, calibration, span, buffers, epoch))
