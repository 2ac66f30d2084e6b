"""Unit tests for the hierarchical central buffer power model."""

import random

import pytest

from repro.power import CentralBufferPower, FIFOBufferPower
from repro.tech import Technology


def tech():
    return Technology(0.1, vdd=1.2, frequency_hz=1e9)


def cb(rows=2560, banks=4, bits=32, rp=2, wp=2, row_access=True, t=None):
    return CentralBufferPower(t or tech(), rows=rows, banks=banks,
                              flit_bits=bits, read_ports=rp, write_ports=wp,
                              router_ports=5, row_access=row_access)


class TestComposition:
    def test_capacity(self):
        assert cb().capacity_flits == 2560 * 4

    def test_row_access_energises_full_row(self):
        model = cb(row_access=True)
        assert model.access_bits == 4 * 32
        assert model.bank_model.flit_bits == 128

    def test_flit_access_energises_one_bank(self):
        model = cb(row_access=False)
        assert model.access_bits == 32
        assert model.bank_model.flit_bits == 32

    def test_bank_reuses_fifo_model_with_fabric_ports(self):
        model = cb(rp=2, wp=2)
        assert isinstance(model.bank_model, FIFOBufferPower)
        assert model.bank_model.read_ports == 2
        assert model.bank_model.write_ports == 2
        assert model.bank_model.depth_flits == 2560

    def test_crossbars_bridge_router_and_fabric_ports(self):
        model = cb()
        assert model.input_crossbar.inputs == 5
        assert model.input_crossbar.outputs == 2
        assert model.output_crossbar.inputs == 2
        assert model.output_crossbar.outputs == 5


class TestEnergies:
    def test_data_mode_write_mean_matches_average_mode(self):
        """Random flit payloads average to the payload-free write
        energy, though the bank row is wider than one flit."""
        rng = random.Random(3)
        for model in (cb(), cb(row_access=False)):
            mean = sum(model.write_energy(rng.getrandbits(model.flit_bits),
                                          rng.getrandbits(model.flit_bits))
                       for _ in range(4000)) / 4000
            assert mean == pytest.approx(model.write_energy(), rel=0.02)

    def test_write_composition(self):
        """Write = input crossbar + pipeline register + bank write."""
        model = cb()
        switching = model.flit_bits / 2
        expected = (
            model.input_crossbar.traversal_energy()
            + model.access_bits * model.register_model.clock_energy
            + switching * model.register_model.data_switch_energy
            + model.bank_model.write_energy()
        )
        assert model.write_energy() == pytest.approx(expected)

    def test_read_composition(self):
        model = cb()
        switching = model.flit_bits / 2
        expected = (
            model.bank_model.read_energy()
            + model.access_bits * model.register_model.clock_energy
            + switching * model.register_model.data_switch_energy
            + model.output_crossbar.traversal_energy()
        )
        assert model.read_energy() == pytest.approx(expected)

    def test_row_access_costs_more_than_flit_access(self):
        assert cb(row_access=True).read_energy() > \
            cb(row_access=False).read_energy()

    def test_central_buffer_dwarfs_its_crossbars(self):
        """Section 4.4: "a central buffer consumes much more energy than a
        crossbar due to its higher switching capacitance"."""
        model = cb()
        assert model.read_energy() > 10 * model.input_crossbar \
            .traversal_energy()

    def test_energy_grows_with_rows(self):
        assert cb(rows=4096).read_energy() > cb(rows=512).read_energy()

    def test_payload_tracking_reduces_idle_rewrites(self):
        model = cb()
        assert model.write_energy(0xAA, 0xAA) < model.write_energy()

    def test_describe_nests_subcomponents(self):
        d = cb().describe()
        assert d["bank"]["depth_flits"] == 2560
        assert d["input_crossbar"]["inputs"] == 5
        assert d["row_access"] is True


class TestValidation:
    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            cb(rows=0)

    def test_rejects_zero_banks(self):
        with pytest.raises(ValueError):
            cb(banks=0)

    def test_rejects_zero_ports(self):
        with pytest.raises(ValueError):
            cb(rp=0)
        with pytest.raises(ValueError):
            cb(wp=0)

    def test_rejects_zero_flit_bits(self):
        with pytest.raises(ValueError):
            cb(bits=0)
