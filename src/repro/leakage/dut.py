"""The design-under-test protocol.

A :class:`DesignUnderTest` bundles a netlist with the *meaning* of its
primary inputs: which wires carry secret shares (re-shared with fresh
randomness every cycle), which carry fresh mask bits, and which carry fresh
mask bytes (uniform, or uniform non-zero as required by the multiplicative
conversion's ``R`` in Section II-C).  The leakage engines drive the inputs
according to this protocol, exactly like PROLEAD is configured with the
roles of the netlist ports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import SimulationError
from repro.netlist.core import Netlist


@dataclass
class DesignUnderTest:
    """A netlist plus its input protocol and pipeline latency."""

    netlist: Netlist
    #: share_buses[i] is the bus (LSB-first net list) of share i of the
    #: secret; the XOR of all share buses equals the secret input.
    share_buses: List[List[int]]
    #: single-bit fresh-mask input nets (one fresh value per cycle).
    mask_bits: List[int] = field(default_factory=list)
    #: byte buses driven with uniform bytes each cycle (e.g. R').
    uniform_byte_buses: List[List[int]] = field(default_factory=list)
    #: byte buses driven with uniform *non-zero* bytes each cycle (e.g. R).
    nonzero_byte_buses: List[List[int]] = field(default_factory=list)
    #: pipeline latency in cycles from input to output.
    latency: int = 0
    #: output nets, LSB-first per share, for functional checks.
    output_share_buses: List[List[int]] = field(default_factory=list)
    #: free-form metadata (scheme name, interesting probe anchors...).
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        declared = set()
        for bus in self.share_buses:
            declared.update(bus)
        declared.update(self.mask_bits)
        for bus in self.uniform_byte_buses + self.nonzero_byte_buses:
            declared.update(bus)
        inputs = set(self.netlist.inputs)
        missing = declared - inputs
        if missing:
            names = [
                self.netlist.net_name(n)
                if 0 <= n < self.netlist.n_nets
                else f"<net {n} out of range>"
                for n in sorted(missing)
            ][:5]
            raise SimulationError(
                f"DUT protocol references non-input nets: {names}"
            )
        undriven = inputs - declared
        if undriven:
            names = [self.netlist.net_name(n) for n in sorted(undriven)][:5]
            raise SimulationError(
                f"primary inputs without a protocol role: {names}"
            )

    @property
    def n_shares(self) -> int:
        """Number of Boolean shares of the secret."""
        return len(self.share_buses)

    @property
    def secret_width(self) -> int:
        """Bit width of the secret input."""
        return len(self.share_buses[0])

    @property
    def n_fresh_mask_bits(self) -> int:
        """Fresh single-bit randomness per cycle (the paper's headline cost)."""
        return len(self.mask_bits)

    @functools.cached_property
    def input_roles(self) -> Dict[int, Tuple[str, object]]:
        """Protocol role of every primary input net, built once.

        ``("share", (share, bit))``, ``("mask", net)``, ``("uniform",
        (bus, bit))`` or ``("nonzero", (bus, bit))``.
        """
        roles: Dict[int, Tuple[str, object]] = {}
        for share, bus in enumerate(self.share_buses):
            for bit, net in enumerate(bus):
                roles[net] = ("share", (share, bit))
        for net in self.mask_bits:
            roles[net] = ("mask", net)
        for bus_index, bus in enumerate(self.uniform_byte_buses):
            for bit, net in enumerate(bus):
                roles[net] = ("uniform", (bus_index, bit))
        for bus_index, bus in enumerate(self.nonzero_byte_buses):
            for bit, net in enumerate(bus):
                roles[net] = ("nonzero", (bus_index, bit))
        return roles

    def share_bit(self, share: int, bit: int) -> int:
        """Net carrying bit ``bit`` of share ``share``."""
        return self.share_buses[share][bit]

    def describe(self) -> str:
        """One-line summary used in reports."""
        return (
            f"{self.netlist.name}: {self.n_shares} shares x "
            f"{self.secret_width} bits, {self.n_fresh_mask_bits} fresh mask "
            f"bits/cycle, {len(self.uniform_byte_buses)} uniform + "
            f"{len(self.nonzero_byte_buses)} non-zero mask bytes/cycle, "
            f"latency {self.latency}"
        )
