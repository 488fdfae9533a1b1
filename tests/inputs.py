"""Test inputs shared by several test modules."""

import numpy as np

from myoctl.pipeline import Session
from myoctl.plant import _assemble, make_fixture, rest_state, rollout, smooth_random_controls


def coupled_hand():
    """``hand_like`` with its digits coupled through the wrist, as in MyoHand.

    Each digit's long flexor gets +0.006 m and its long extensor -0.006 m on
    ``wrist_flex``, and each abductor +0.003 m and adductor -0.003 m on
    ``wrist_dev``; every other value is ``hand_like``'s, and ``_assemble``
    recalibrates the tendon offsets and geometry for the new arms. Without
    the ``wrist_dev`` arms the five abduction pairs stay blocks of their own
    (6 blocks); with them the moment-arm matrix is one 23x39 block of rank 23.
    """
    hand = make_fixture("hand_like")
    arms = hand.moment_arms.copy()
    joint = {name: j for j, name in enumerate(hand.joint_names)}
    muscle = {name: i for i, name in enumerate(hand.actuator_names)}
    for d in range(5):
        for wrist, label, arm in (("wrist_flex", "flex_long", 0.006),
                                  ("wrist_flex", "ext_long", -0.006),
                                  ("wrist_dev", "abductor", 0.003),
                                  ("wrist_dev", "adductor", -0.003)):
            arms[joint[wrist], muscle[f"d{d}_{label}"]] = arm
    return _assemble("hand_coupled", list(hand.joint_names), list(hand.actuator_names), arms,
                     hand.inertia, hand.damping, hand.joint_range, list(hand.params))


def noisy_pose_session(plant, rate_hz, session_id="noisy"):
    """A 1 s rest-to-rest pose session with seeded pose noise (sigma 1e-4 rad).

    No muscle forces reproduce the noise's accelerations, so on
    ``toy_finger`` the inversion fails by the status rule: 497 of 500 frames
    are infeasible at 500 Hz and 494 of 500 at 2 kHz.
    """
    dt = 1.0 / rate_hz
    ctrl = smooth_random_controls(plant.nactuators, rate_hz, dt, 3, settle=0.25)
    q = rollout(plant, rest_state(plant), ctrl, dt).q
    q = q + 1e-4 * np.random.default_rng(7).standard_normal(q.shape)
    return Session(id=session_id, rate_hz=rate_hz, channel_names=plant.joint_names, data=q.T,
                   units=("rad",) * plant.njoints)
