"""Communication-cost models (extension beyond the paper's zero-comm model)."""

import pytest

from repro.platforms.comm import CommunicationModel, NoComm, TypePairComm, UniformComm
from repro.platforms.resources import CPU, GPU


class TestNoComm:
    def test_always_zero(self):
        comm = NoComm()
        assert comm.delay(0, 1, CPU, GPU) == 0.0
        assert comm.delay(2, 2, GPU, GPU) == 0.0

    def test_is_free(self):
        assert NoComm().is_free

    def test_mean_delay(self):
        assert NoComm().mean_delay() == 0.0


class TestUniformComm:
    def test_cross_processor_charged(self):
        comm = UniformComm(3.0)
        assert comm.delay(0, 1, CPU, CPU) == 3.0
        assert comm.delay(0, 3, CPU, GPU) == 3.0

    def test_same_processor_free(self):
        assert UniformComm(3.0).delay(2, 2, GPU, GPU) == 0.0

    def test_zero_delay_is_free(self):
        assert UniformComm(0.0).is_free
        assert not UniformComm(1.0).is_free

    def test_mean_delay(self):
        assert UniformComm(4.5).mean_delay() == 4.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            UniformComm(-1.0)


class TestTypePairComm:
    def test_pair_lookup(self):
        comm = TypePairComm([[1.0, 10.0], [10.0, 2.0]])
        assert comm.delay(0, 1, CPU, CPU) == 1.0
        assert comm.delay(0, 2, CPU, GPU) == 10.0
        assert comm.delay(2, 3, GPU, GPU) == 2.0

    def test_same_processor_free(self):
        comm = TypePairComm([[1.0, 10.0], [10.0, 2.0]])
        assert comm.delay(1, 1, CPU, CPU) == 0.0

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            TypePairComm([[1.0]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TypePairComm([[0.0, -1.0], [0.0, 0.0]])

    def test_is_free(self):
        assert TypePairComm([[0.0, 0.0], [0.0, 0.0]]).is_free
        assert not TypePairComm([[0.0, 1.0], [0.0, 0.0]]).is_free

    def test_mean_delay(self):
        comm = TypePairComm([[0.0, 4.0], [4.0, 0.0]])
        assert comm.mean_delay() == 2.0

    def test_base_class_abstract(self):
        with pytest.raises(NotImplementedError):
            CommunicationModel().delay(0, 1, CPU, GPU)
