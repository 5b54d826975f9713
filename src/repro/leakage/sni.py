"""(Strong) Non-Interference verification of small gadgets by enumeration.

De Meyer et al. justified their randomness optimization with a manual
1-SNI proof "aligned with the concept of Strong Non-Interference [16] and
one-time pad transformation [17]".  The paper's whole point is that such a
proof, conducted on *stable* wire values, does not transfer to the
glitch-extended probing model once randomness is reused across gadgets.

This module makes both sides of that story checkable:

* ``robust=False`` -- classic (S)NI on settled wire values: a probe sees one
  wire.  The DOM-AND gadget *is* 1-SNI here, confirming the original proof
  was sound in its own model.
* ``robust=True`` -- glitch-extended probes: a probe sees every stable
  signal in the wire's combinational cone.  Reused-randomness compositions
  that pass the classic check fail here, which is the paper's finding.

Definitions (Barthe et al.): a probe set with ``t_int`` internal and
``t_out`` output-share probes is *simulatable* from input-share subsets
``I_k`` if any two full input-share assignments that agree on the selected
shares induce identical observation distributions (over the fresh masks).
A gadget is t-NI if every set of at most t probes is simulatable with
``|I_k| <= t``; t-SNI additionally requires ``|I_k| <= t_int``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import MaskingError
from repro.netlist.core import Netlist
from repro.netlist.topo import all_stable_supports


@dataclass
class GadgetSpec:
    """A small masked gadget prepared for (S)NI checking.

    ``input_shares[k][i]`` is the net of share ``i`` of input ``k`` (1-bit
    inputs); ``mask_nets`` are the fresh-mask wires; ``output_shares`` are
    the gadget's output share nets.  ``settle_cycles`` flushes pipeline
    registers (inputs held constant), so wire values are their steady
    functions of shares and masks.
    """

    netlist: Netlist
    input_shares: List[List[int]]
    mask_nets: List[int]
    output_shares: List[int]
    settle_cycles: int = 4

    @property
    def n_shares(self) -> int:
        """Shares per input."""
        return len(self.input_shares[0])


@dataclass
class SniViolation:
    """One failing probe set."""

    probe_names: Tuple[str, ...]
    required_shares: str


@dataclass
class SniResult:
    """Verdict of a (S)NI check."""

    order: int
    robust: bool
    is_ni: bool
    is_sni: bool
    n_probe_sets: int
    ni_violations: List[SniViolation] = field(default_factory=list)
    sni_violations: List[SniViolation] = field(default_factory=list)

    def summary(self) -> str:
        """One-line verdict."""
        model = "glitch-robust" if self.robust else "standard"
        return (
            f"order-{self.order} {model} probes over "
            f"{self.n_probe_sets} probe sets: "
            f"NI={'yes' if self.is_ni else 'NO'}, "
            f"SNI={'yes' if self.is_sni else 'NO'}"
        )


@dataclass
class PiniResult:
    """Verdict of a PINI check (Cassiers & Standaert's composable notion).

    PINI strengthens NI by tying simulator shares to *share domains*: a set
    of ``t_int`` internal probes plus output probes on domains ``J`` must be
    simulatable from the input shares of at most ``t_int`` domains plus the
    domains ``J`` themselves -- across all inputs.  PINI gadgets compose
    freely at any order, which is what makes the per-gadget certificate a
    whole-circuit statement.
    """

    order: int
    robust: bool
    is_pini: bool
    n_probe_sets: int
    violations: List[SniViolation] = field(default_factory=list)

    def summary(self) -> str:
        """One-line verdict."""
        model = "glitch-robust" if self.robust else "standard"
        return (
            f"order-{self.order} {model} probes over "
            f"{self.n_probe_sets} probe sets: "
            f"PINI={'yes' if self.is_pini else 'NO'}"
        )


class SniChecker:
    """Exhaustive (S)NI verification, bitsliced over all assignments.

    Internally, every net's steady value is tabulated over all
    ``2^(shares + masks)`` input assignments in one bitsliced simulation;
    per probe set the observation is packed into an integer key, the key
    array is canonicalized over the mask axis (sorted -> digest), and
    simulatability from a share subset reduces to "the digest depends only
    on the selected share bits".
    """

    def __init__(
        self,
        gadget: GadgetSpec,
        robust: bool = False,
        probe_nets: Optional[Sequence[int]] = None,
        max_bits: int = 22,
    ):
        self.gadget = gadget
        self.robust = robust
        self.n_share_bits = sum(len(s) for s in gadget.input_shares)
        self.n_mask_bits = len(gadget.mask_nets)
        total_bits = self.n_share_bits + self.n_mask_bits
        if total_bits > max_bits:
            raise MaskingError(
                f"{total_bits} input/mask bits exceed the enumeration limit"
                f" ({max_bits})"
            )
        #: restrict probe positions to these nets (compositional checking
        #: places probes only on a gadget's own cells while the fan-in
        #: slice provides the glitch-extended context); None probes all.
        self.probe_nets: Optional[Set[int]] = (
            set(probe_nets) if probe_nets is not None else None
        )
        self._observables = self._probe_observables()
        self._tables = self._build_wire_tables()

    # -------------------------------------------------------------- tables

    def _build_wire_tables(self) -> Dict[int, np.ndarray]:
        """Steady per-net bit over every assignment (shares low, masks high)."""
        from repro.engines import build_simulator
        from repro.leakage.exact import _shard_patterns
        from repro.netlist.simulate import unpack_lanes

        gadget = self.gadget
        share_nets = [n for group in gadget.input_shares for n in group]
        all_inputs = share_nets + list(gadget.mask_nets)
        n_lanes = 1 << (self.n_share_bits + self.n_mask_bits)
        patterns = dict(zip(
            all_inputs, _shard_patterns(len(all_inputs), len(all_inputs), 0)
        ))

        needed = set()
        for nets in self._observables.values():
            needed.update(nets)

        simulator, _ = build_simulator("bitsliced", gadget.netlist, n_lanes)
        trace = simulator.run(
            lambda cycle: patterns,
            gadget.settle_cycles,
            record_nets=sorted(needed),
            record_cycles={gadget.settle_cycles - 1},
        )
        final = gadget.settle_cycles - 1
        return {
            net: unpack_lanes(trace.words(final, net), n_lanes)
            for net in needed
        }

    def _probe_observables(self) -> Dict[int, Tuple[int, ...]]:
        """Nets a probe on each wire observes (1 wire, or its cone)."""
        netlist = self.gadget.netlist
        candidates = [
            cell.output
            for cell in netlist.cells
            if not cell.cell_type.is_constant
            and (self.probe_nets is None or cell.output in self.probe_nets)
        ]
        if not self.robust:
            return {net: (net,) for net in candidates}
        supports = all_stable_supports(netlist)
        return {net: tuple(sorted(supports[net])) for net in candidates}

    # ----------------------------------------------------------- semantics

    def _share_positions(self) -> List[List[int]]:
        """Bit position of every input share within the assignment index."""
        positions = []
        counter = 0
        for group in self.gadget.input_shares:
            positions.append(list(range(counter, counter + len(group))))
            counter += len(group)
        return positions

    def _digest(self, probes: Sequence[int]) -> np.ndarray:
        """Per-share-assignment digest of the mask-distribution of probes.

        Two share assignments induce the same observation distribution iff
        their digests are equal (the digest hashes the *sorted* observation
        keys along the mask axis, i.e. the distribution as a multiset).
        """
        nets = [
            net for probe in probes for net in self._observables[probe]
        ]
        keys = np.zeros(
            1 << (self.n_share_bits + self.n_mask_bits), dtype=np.uint64
        )
        for position, net in enumerate(nets):
            keys |= self._tables[net].astype(np.uint64) << np.uint64(
                position
            )
        matrix = keys.reshape(1 << self.n_mask_bits, 1 << self.n_share_bits)
        canonical = np.sort(matrix, axis=0)
        # Order-dependent polynomial hash down the sorted mask axis.
        digest = np.zeros(canonical.shape[1], dtype=np.uint64)
        multiplier = np.uint64(0x100000001B3)
        for row in canonical:
            digest = digest * multiplier + (row ^ np.uint64(0x9E3779B9))
        return digest

    def _simulatable_from(
        self, digest: np.ndarray, selected_bits: int
    ) -> bool:
        """Does the digest depend only on the selected share bits?"""
        indices = np.arange(digest.size, dtype=np.uint64)
        projected = indices & np.uint64(selected_bits)
        return bool(np.all(digest == digest[projected.astype(np.int64)]))

    def _exists_simulator(
        self, digest: np.ndarray, max_shares: int
    ) -> bool:
        positions = self._share_positions()
        n_shares = self.gadget.n_shares
        per_input_subsets = []
        for k in range(len(self.gadget.input_shares)):
            options = []
            for size in range(min(max_shares, n_shares) + 1):
                for combo in itertools.combinations(range(n_shares), size):
                    mask = 0
                    for share in combo:
                        mask |= 1 << positions[k][share]
                    options.append(mask)
            per_input_subsets.append(options)
        for selection in itertools.product(*per_input_subsets):
            mask = 0
            for bits in selection:
                mask |= bits
            if self._simulatable_from(digest, mask):
                return True
        return False

    # --------------------------------------------------------------- check

    def check(self, order: int = 1) -> SniResult:
        """Verify t-NI and t-SNI for ``t = order``."""
        netlist = self.gadget.netlist
        output_set = set(self.gadget.output_shares)
        internal = [
            net for net in self._observables if net not in output_set
        ]
        outputs = [net for net in self._observables if net in output_set]

        result = SniResult(
            order=order, robust=self.robust, is_ni=True, is_sni=True,
            n_probe_sets=0,
        )
        all_probes = internal + outputs
        for size in range(1, order + 1):
            for probes in itertools.combinations(all_probes, size):
                result.n_probe_sets += 1
                t_int = sum(1 for p in probes if p not in output_set)
                names = tuple(
                    netlist.net_name(p) for p in probes
                )
                digest = self._digest(probes)
                if not self._exists_simulator(digest, max_shares=size):
                    result.is_ni = False
                    result.ni_violations.append(
                        SniViolation(names, f"more than {size} shares")
                    )
                    result.is_sni = False
                    result.sni_violations.append(
                        SniViolation(names, f"more than {t_int} shares (SNI)")
                    )
                elif not self._exists_simulator(digest, max_shares=t_int):
                    result.is_sni = False
                    result.sni_violations.append(
                        SniViolation(names, f"more than {t_int} shares (SNI)")
                    )
        return result

    def _domain_mask(self, domains: Sequence[int]) -> int:
        """Selected-bit mask of the given share domains across all inputs."""
        positions = self._share_positions()
        mask = 0
        for group in positions:
            for domain in domains:
                if domain < len(group):
                    mask |= 1 << group[domain]
        return mask

    def check_pini(self, order: int = 1) -> PiniResult:
        """Verify t-PINI for ``t = order``.

        Output probes carry the share domain of their position in
        ``output_shares``; internal probes may pick any ``t_int`` extra
        domains.  The probe set must be simulatable from exactly those
        domains' input shares, across every input.
        """
        netlist = self.gadget.netlist
        output_domain = {
            net: i for i, net in enumerate(self.gadget.output_shares)
        }
        n_shares = self.gadget.n_shares
        result = PiniResult(
            order=order, robust=self.robust, is_pini=True, n_probe_sets=0
        )
        all_probes = list(self._observables)
        for size in range(1, order + 1):
            for probes in itertools.combinations(all_probes, size):
                result.n_probe_sets += 1
                out_domains = {
                    output_domain[p] for p in probes if p in output_domain
                }
                t_int = sum(1 for p in probes if p not in output_domain)
                digest = self._digest(probes)
                simulatable = False
                for extra in range(min(t_int, n_shares) + 1):
                    for combo in itertools.combinations(
                        range(n_shares), extra
                    ):
                        selected = self._domain_mask(
                            sorted(out_domains | set(combo))
                        )
                        if self._simulatable_from(digest, selected):
                            simulatable = True
                            break
                    if simulatable:
                        break
                if not simulatable:
                    names = tuple(netlist.net_name(p) for p in probes)
                    result.is_pini = False
                    result.violations.append(
                        SniViolation(
                            names,
                            f"domains beyond {t_int} + output domains "
                            f"{sorted(out_domains)} (PINI)",
                        )
                    )
        return result


def dom_and_gadget(register_inner: bool = True) -> GadgetSpec:
    """The first-order DOM-AND of the paper's Fig. 1c, as a GadgetSpec."""
    from repro.masking.dom import dom_and_first_order
    from repro.netlist.builder import CircuitBuilder

    builder = CircuitBuilder("dom_and_gadget")
    x = [builder.input("x0"), builder.input("x1")]
    y = [builder.input("y0"), builder.input("y1")]
    r = builder.input("r")
    z = dom_and_first_order(
        builder, x, y, r, "g", register_inner=register_inner
    )
    for i, net in enumerate(z):
        builder.output(net, f"z{i}")
    netlist = builder.build()
    return GadgetSpec(
        netlist=netlist,
        input_shares=[x, y],
        mask_nets=[r],
        output_shares=[netlist.net("z0"), netlist.net("z1")],
    )


def unprotected_and_gadget() -> GadgetSpec:
    """A trivially insecure 2-share AND (recombines shares internally)."""
    from repro.netlist.builder import CircuitBuilder

    builder = CircuitBuilder("bad_and")
    x = [builder.input("x0"), builder.input("x1")]
    y = [builder.input("y0"), builder.input("y1")]
    r = builder.input("r")
    x_clear = builder.xor(x[0], x[1], "x_clear")  # unmasked recombination
    y_clear = builder.xor(y[0], y[1], "y_clear")
    product = builder.and_(x_clear, y_clear, "product")
    z0 = builder.output(builder.xor(product, r), "z0")
    z1 = builder.output(builder.buf(r), "z1")
    netlist = builder.build()
    return GadgetSpec(
        netlist=netlist,
        input_shares=[x, y],
        mask_nets=[r],
        output_shares=[netlist.net("z0"), netlist.net("z1")],
    )
