"""Run training updates on the reference autograd tape.

Every updater owns a :class:`repro.nn.TrainingCompiler`.  Inside
:func:`reference_tape` each ``TrainingCompiler.update`` refuses, so updates
take the very fallback an updater runs on a structural refusal (a batch of
one, anomaly mode, non-CSR adjacency) and execute on the tape.  Parity tests
and the update benchmark build their reference side with it.
"""

import contextlib

from repro.nn import TrainingCompiler


def _refuse(self, *args, **kwargs):
    return None


@contextlib.contextmanager
def reference_tape():
    """Every training-compiler update inside the block refuses."""
    original = TrainingCompiler.update
    TrainingCompiler.update = _refuse
    try:
        yield
    finally:
        TrainingCompiler.update = original


def assert_ran_on_tape(stats):
    """A reference run made no capture and no replay."""
    assert stats["captures"] == 0 and stats["replays"] == 0, stats


def assert_ran_compiled(stats):
    """A compiled run never fell back and never failed validation."""
    assert stats["fallbacks"] == 0 and stats["validation_failures"] == 0, stats
