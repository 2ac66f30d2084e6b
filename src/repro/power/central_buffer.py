"""Central buffer power model — hierarchical composition (section 3.2).

Central buffers are "pipelined shared memories ... essentially regular SRAM
banks connected by pipeline registers, with two crossbars facilitating the
pipelined data I/O" [Katevenis et al.].  Following the paper's model-reuse
methodology, this model is assembled from lower-level models rather than
derived from scratch:

* the SRAM banks reuse :class:`repro.power.buffer.FIFOBufferPower`;
* the pipeline registers reuse :class:`repro.power.flipflop.FlipFlopPower`
  (the flip-flop subcomponent of the arbiter model);
* the input and output crossbars reuse
  :class:`repro.power.crossbar.MatrixCrossbarPower`.

A write moves a flit: input crossbar (router ports -> write ports) ->
pipeline register -> bank write.  A read is the mirror image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.power.base import (
    RANDOM_SWITCHING_FACTOR,
    EnergyModel,
    expected_switches,
)
from repro.power.buffer import FIFOBufferPower
from repro.power.crossbar import MatrixCrossbarPower
from repro.power.flipflop import FlipFlopPower


@dataclass(frozen=True)
class CentralBufferPower(EnergyModel):
    """Power model of a banked, shared central buffer.

    Parameters
    ----------
    rows:
        Number of rows ("chunks") per bank.
    banks:
        Number of SRAM banks; a row across all banks holds ``banks`` flits
        (the paper's CB config: 4 banks, each 1 flit wide, 2560 rows).
    flit_bits:
        Flit width in bits (each bank is one flit wide).
    read_ports / write_ports:
        Fabric ports of the shared memory (2 and 2 in the paper's CB
        config) — these limit how many flits enter/leave per cycle.
    router_ports:
        Router I/O ports the two internal crossbars connect to (5 in the
        paper's experiments).
    row_access:
        When True (default), the banks share a row decoder and wordline —
        the SP2-style pipelined shared memory, where every access
        activates the full ``banks``-flit-wide row even when moving a
        single flit.  This is what makes "a central buffer consume[...]
        much more energy than a crossbar due to its higher switching
        capacitance" (section 4.4).  When False, each bank is gated
        independently and an access only energises one flit's worth of
        row — an idealised design provided for ablation.
    """

    rows: int = 2560
    banks: int = 4
    flit_bits: int = 32
    read_ports: int = 2
    write_ports: int = 2
    router_ports: int = 5
    row_access: bool = True

    bank_model: FIFOBufferPower = field(init=False)
    register_model: FlipFlopPower = field(init=False)
    input_crossbar: MatrixCrossbarPower = field(init=False)
    output_crossbar: MatrixCrossbarPower = field(init=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.banks < 1:
            raise ValueError("central buffer needs >= 1 row and >= 1 bank")
        if self.flit_bits < 1:
            raise ValueError(f"flit width must be >= 1, got {self.flit_bits}")
        if self.read_ports < 1 or self.write_ports < 1:
            raise ValueError("central buffer needs read and write ports")
        if self.router_ports < 1:
            raise ValueError("central buffer needs router ports")
        tech = self.tech
        set_ = object.__setattr__
        # The SRAM array energised per access: the full banks-wide row in
        # row_access mode, or a single bank's flit otherwise.
        access_bits = self.banks * self.flit_bits if self.row_access \
            else self.flit_bits
        set_(self, "bank_model", FIFOBufferPower(
            tech,
            depth_flits=self.rows,
            flit_bits=access_bits,
            read_ports=self.read_ports,
            write_ports=self.write_ports,
        ))
        set_(self, "register_model", FlipFlopPower(tech))
        set_(self, "input_crossbar", MatrixCrossbarPower(
            tech,
            inputs=self.router_ports,
            outputs=self.write_ports,
            width_bits=self.flit_bits,
        ))
        set_(self, "output_crossbar", MatrixCrossbarPower(
            tech,
            inputs=self.read_ports,
            outputs=self.router_ports,
            width_bits=self.flit_bits,
        ))

    @property
    def capacity_flits(self) -> int:
        """Total storage: ``rows * banks`` flits."""
        return self.rows * self.banks

    @property
    def access_bits(self) -> int:
        """Bits energised per shared-memory access."""
        return self.banks * self.flit_bits if self.row_access \
            else self.flit_bits

    def _register_energy(self, switching_bits: float) -> float:
        """Clock the chunk-wide pipeline register; flip the switching
        bits."""
        clock = self.access_bits * self.register_model.clock_energy
        flips = switching_bits * self.register_model.data_switch_energy
        return clock + flips

    def write_energy(self,
                     old_value: Optional[int] = None,
                     new_value: Optional[int] = None) -> float:
        """Energy of moving one flit into the central buffer.

        Input crossbar traversal + pipeline register + bank SRAM write.
        The bank write energises ``access_bits`` bitlines, but the
        payloads are one flit wide: the flit's own bits switch by their
        Hamming distance (``F/2`` without payloads), and the other
        ``access_bits - flit_bits`` row bits, which the simulator does
        not track, switch by the random-data expectation of one half
        each.
        """
        switching = expected_switches(self.flit_bits, old_value, new_value)
        bank = self.bank_model
        bank_switching = switching + RANDOM_SWITCHING_FACTOR * (
            self.access_bits - self.flit_bits)
        return (
            self.input_crossbar.traversal_energy(old_value, new_value)
            + self._register_energy(switching)
            + (bank.wordline_energy
               + bank_switching * bank.write_bitline_energy
               + bank_switching * bank.cell_energy)
        )

    def read_energy(self,
                    old_value: Optional[int] = None,
                    new_value: Optional[int] = None) -> float:
        """Energy of moving one flit out of the central buffer.

        Bank SRAM read + pipeline register + output crossbar traversal.
        """
        switching = expected_switches(self.flit_bits, old_value, new_value)
        return (
            self.bank_model.read_energy()
            + self._register_energy(switching)
            + self.output_crossbar.traversal_energy(old_value, new_value)
        )

    def describe(self) -> dict:
        """Composition summary for reports and validation."""
        return {
            "rows": self.rows,
            "banks": self.banks,
            "flit_bits": self.flit_bits,
            "read_ports": self.read_ports,
            "write_ports": self.write_ports,
            "router_ports": self.router_ports,
            "row_access": self.row_access,
            "access_bits": self.access_bits,
            "capacity_flits": self.capacity_flits,
            "write_energy_j": self.write_energy(),
            "read_energy_j": self.read_energy(),
            "bank": self.bank_model.describe(),
            "input_crossbar": self.input_crossbar.describe(),
            "output_crossbar": self.output_crossbar.describe(),
        }
