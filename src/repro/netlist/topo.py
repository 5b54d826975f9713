"""Topological utilities: levelization, cones, probe supports.

The glitch-extended probing model resolves a probe on a combinational net to
the set of *stable* signals (primary inputs and register outputs) in its
combinational fan-in cone; :func:`stable_support` computes exactly that set
and is the heart of the probe extraction in :mod:`repro.leakage.probes`.

Levelization and cone computations are pure functions of the netlist
*structure*, so their results are memoized per process under the netlist
content hash (:func:`repro.netlist.core.netlist_content_hash`).  Evaluation
campaigns construct one simulator per sampling block and resolve probe
supports per chunk; without the memo the same multi-thousand-cell traversal
reruns thousands of times per campaign.  The caches store only net and cell
*indices* -- never :class:`Cell` objects -- so two distinct netlist instances
with equal hashes (same structure, possibly different names) share entries
safely: cells are re-resolved through the queried instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import NetlistError
from repro.memo import Memo
from repro.netlist.core import Cell, Netlist, netlist_content_hash

# Evaluation flows touch a handful of netlist structures per process, so
# these tables of 64 entries never evict in practice.

#: content hash -> tuple of cell indices in levelized order.
_LEVELIZE_MEMO = Memo(64)

#: content hash -> {net: stable support} for every net.
_SUPPORTS_MEMO = Memo(64)

#: (content hash, net) -> combinational cone of that net.
_CONE_MEMO = Memo(64)


def levelize(netlist: Netlist) -> List[Cell]:
    """Order combinational cells so every cell follows its drivers.

    Register outputs and primary inputs are sources.  Raises
    :class:`NetlistError` on combinational loops.  The order is memoized
    per netlist content hash (as cell indices, re-resolved through the
    queried instance).
    """
    key = netlist_content_hash(netlist)
    cached = _LEVELIZE_MEMO.get(key)
    if cached is not None:
        cells = netlist.cells
        return [cells[i] for i in cached]

    order: List[Cell] = []
    ready: Set[int] = set(netlist.inputs)
    ready.update(c.output for c in netlist.dff_cells())

    pending = [c for c in netlist.comb_cells()]
    remaining_inputs: Dict[int, int] = {}
    consumers: Dict[int, List[Cell]] = {}
    queue: List[Cell] = []
    for cell in pending:
        missing = [n for n in cell.inputs if n not in ready]
        remaining_inputs[cell.index] = len(missing)
        for net in missing:
            consumers.setdefault(net, []).append(cell)
        if not missing:
            queue.append(cell)

    while queue:
        cell = queue.pop()
        order.append(cell)
        net = cell.output
        for consumer in consumers.get(net, ()):  # newly satisfied inputs
            remaining_inputs[consumer.index] -= 1
            if remaining_inputs[consumer.index] == 0:
                queue.append(consumer)

    if len(order) != len(pending):
        stuck = [c.name for c in pending if remaining_inputs[c.index] > 0]
        raise NetlistError(
            f"combinational loop or floating net involving cells: {stuck[:5]}"
        )
    _LEVELIZE_MEMO.put(key, tuple(c.index for c in order))
    return order


def combinational_cone(netlist: Netlist, net: int) -> Set[int]:
    """All nets in the combinational fan-in of ``net`` (inclusive).

    Traversal stops at stable signals (inputs and register outputs), which
    are included in the result.  Memoized per (netlist content hash, net).
    """
    key = (netlist_content_hash(netlist), net)
    cached = _CONE_MEMO.get(key)
    if cached is not None:
        return set(cached)
    stable = _stable_set(netlist)
    cone: Set[int] = set()
    stack = [net]
    while stack:
        current = stack.pop()
        if current in cone:
            continue
        cone.add(current)
        if current in stable:
            continue
        driver = netlist.driver(current)
        if driver is None:
            continue
        stack.extend(driver.inputs)
    _CONE_MEMO.put(key, frozenset(cone))
    return cone


def stable_support(netlist: Netlist, net: int) -> FrozenSet[int]:
    """Stable signals a glitch-extended probe on ``net`` observes.

    For a probe on a register output or a primary input the support is the
    signal itself.  For a combinational net it is every register output and
    primary input reachable backwards without crossing a register.
    """
    stable = _stable_set(netlist)
    return frozenset(n for n in combinational_cone(netlist, net) if n in stable)


def all_stable_supports(netlist: Netlist) -> Dict[int, FrozenSet[int]]:
    """Compute :func:`stable_support` for every net, sharing work.

    Processes cells in levelized order so each support is the union of the
    supports of the cell inputs.  Memoized per netlist content hash (the
    result holds only net indices, so equal-structure instances share it).
    """
    key = netlist_content_hash(netlist)
    cached = _SUPPORTS_MEMO.get(key)
    if cached is not None:
        return dict(cached)
    stable = _stable_set(netlist)
    supports: Dict[int, FrozenSet[int]] = {n: frozenset((n,)) for n in stable}
    for net in range(netlist.n_nets):
        if netlist.net_driver[net] is None and net not in stable:
            supports[net] = frozenset()
    for cell in levelize(netlist):
        if cell.output in stable:
            continue
        merged: Set[int] = set()
        for inp in cell.inputs:
            merged.update(supports[inp])
        supports[cell.output] = frozenset(merged)
    _SUPPORTS_MEMO.put(key, dict(supports))
    return supports


def transitive_input_support(
    netlist: Netlist, net: int, max_cycles: int
) -> Set[Tuple[int, int]]:
    """Primary-input support of ``net`` across register stages.

    Returns pairs ``(input_net, age)`` meaning the value of that primary
    input ``age`` cycles before the observation influences ``net``.  Used by
    the exact leakage engine to bound enumeration.  ``max_cycles`` caps the
    traversal depth through registers.
    """
    input_set = set(netlist.inputs)
    result: Set[Tuple[int, int]] = set()
    seen: Set[Tuple[int, int]] = set()
    stack: List[Tuple[int, int]] = [(net, 0)]
    while stack:
        current, age = stack.pop()
        if (current, age) in seen:
            continue
        seen.add((current, age))
        if current in input_set:
            result.add((current, age))
            continue
        driver = netlist.driver(current)
        if driver is None:
            continue
        next_age = age + driver.cell_type.is_sequential
        if next_age > max_cycles:
            continue
        for inp in driver.inputs:
            stack.append((inp, next_age))
    return result


def combinational_depth(netlist: Netlist) -> int:
    """Longest combinational path length in gates."""
    depth: Dict[int, int] = {n: 0 for n in _stable_set(netlist)}
    longest = 0
    for cell in levelize(netlist):
        d = 1 + max((depth.get(n, 0) for n in cell.inputs), default=0)
        depth[cell.output] = d
        longest = max(longest, d)
    return longest


def sequential_depth(netlist: Netlist) -> int:
    """Longest register chain from a primary input to any net.

    This is the number of settle cycles a pipeline needs before every wire
    holds its steady function of constant inputs.  Register feedback loops
    (which never settle) saturate at the register count.
    """
    dffs = list(netlist.dff_cells())
    if not dffs:
        return 0
    depth = [0] * netlist.n_nets
    order = levelize(netlist)
    for _ in range(len(dffs) + 1):
        changed = False
        for cell in order:
            d = max((depth[n] for n in cell.inputs), default=0)
            if d > depth[cell.output]:
                depth[cell.output] = d
                changed = True
        for cell in dffs:
            d = min(depth[cell.inputs[0]] + 1, len(dffs))
            if d > depth[cell.output]:
                depth[cell.output] = d
                changed = True
        if not changed:
            break
    return max(depth)


# --------------------------------------------------------------------- regions


@dataclass(frozen=True)
class GadgetRegion:
    """One registered gadget region of a hierarchical netlist.

    Regions partition the cells: every cell belongs to exactly one region, so
    any single probe lies inside exactly one region -- the property the
    first-order compositional certificate in :mod:`repro.leakage.certify`
    rests on.  ``input_nets`` are nets the region reads but does not drive;
    ``output_nets`` are nets it drives that are consumed outside (or are
    primary outputs); ``register_nets`` are the outputs of its registers.
    """

    name: str
    cells: Tuple[int, ...]
    input_nets: Tuple[int, ...]
    output_nets: Tuple[int, ...]
    register_nets: Tuple[int, ...]


def gadget_regions(netlist: Netlist) -> List[GadgetRegion]:
    """Decompose a netlist into registered gadget regions.

    The builder records gadget hierarchy in cell names (``g5.cross01`` lives
    in gadget ``g5``), exactly how the paper keeps DOM gadget boundaries
    through synthesis.  Cells are grouped by their top-level scope; unscoped
    glue (input complements, output buffers) is attached to the unique scope
    that consumes -- or, failing that, drives -- it.  Remaining unscoped
    cells are grouped by structural connectivity into ``top`` regions.
    """
    cells = netlist.cells
    scope: Dict[int, Optional[str]] = {}
    consumers: Dict[int, List[Cell]] = {}
    for cell in cells:
        scope[cell.index] = (
            cell.name.split(".", 1)[0] if "." in cell.name else None
        )
        for net in cell.inputs:
            consumers.setdefault(net, []).append(cell)

    changed = True
    while changed:
        changed = False
        for cell in cells:
            if scope[cell.index] is not None:
                continue
            downstream = {
                scope[c.index]
                for c in consumers.get(cell.output, ())
                if scope[c.index] is not None
            }
            if len(downstream) == 1:
                scope[cell.index] = next(iter(downstream))
                changed = True
                continue
            if downstream:
                continue  # ambiguous consumers: leave as shared glue
            upstream = set()
            for net in cell.inputs:
                driver = netlist.driver(net)
                if driver is not None and scope[driver.index] is not None:
                    upstream.add(scope[driver.index])
            if len(upstream) == 1:
                scope[cell.index] = next(iter(upstream))
                changed = True

    # Leftover glue: connected components over shared nets, named top*.
    leftover = [c for c in cells if scope[c.index] is None]
    parent = {c.index: c.index for c in leftover}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    leftover_by_output = {c.output: c for c in leftover}
    for cell in leftover:
        for net in cell.inputs:
            other = leftover_by_output.get(net)
            if other is not None:
                parent[find(cell.index)] = find(other.index)
    component_names: Dict[int, str] = {}
    for cell in sorted(leftover, key=lambda c: c.index):
        root = find(cell.index)
        if root not in component_names:
            suffix = "" if not component_names else f"_{len(component_names) + 1}"
            component_names[root] = f"top{suffix}"
        scope[cell.index] = component_names[root]

    groups: Dict[str, List[Cell]] = {}
    for cell in cells:
        groups.setdefault(scope[cell.index], []).append(cell)

    output_set = set(netlist.outputs)
    regions: List[GadgetRegion] = []
    for name, members in sorted(
        groups.items(), key=lambda kv: min(c.index for c in kv[1])
    ):
        produced = {c.output for c in members}
        member_indices = {c.index for c in members}
        inputs = sorted(
            {n for c in members for n in c.inputs if n not in produced}
        )
        outputs = sorted(
            net
            for net in produced
            if net in output_set
            or any(
                c.index not in member_indices
                for c in consumers.get(net, ())
            )
        )
        regions.append(
            GadgetRegion(
                name=name,
                cells=tuple(sorted(c.index for c in members)),
                input_nets=tuple(inputs),
                output_nets=tuple(outputs),
                register_nets=tuple(
                    sorted(
                        c.output
                        for c in members
                        if c.cell_type.is_sequential
                    )
                ),
            )
        )
    return regions


def extract_subnetlist(
    netlist: Netlist,
    cell_indices: Iterable[int],
    name: Optional[str] = None,
) -> Tuple[Netlist, Dict[int, int]]:
    """Replay a cell subset as a standalone netlist, preserving net names.

    Nets the subset reads but does not drive become primary inputs --
    except nets driven by constant cells, which are copied in so the replica
    simulates standalone.  Original primary outputs produced by the subset
    stay outputs.  Returns the new netlist and the old->new net mapping,
    through which callers mark further outputs; preserved names mean any
    counterexample probe reported on the replica names a net of the
    original circuit.
    """
    chosen = set(cell_indices)
    members = [netlist.cells[i] for i in sorted(chosen)]
    needed = {n for c in members for n in c.inputs}
    for net in sorted(needed):
        driver = netlist.driver(net)
        if (
            driver is not None
            and driver.cell_type.is_constant
            and driver.index not in chosen
        ):
            chosen.add(driver.index)
            members.append(driver)
    produced = {c.output for c in members}

    sub = Netlist(name or f"{netlist.name}.sub")
    mapping: Dict[int, int] = {}
    for net in sorted({n for c in members for n in c.inputs} - produced):
        mapping[net] = sub.add_net(netlist.net_name(net))
        sub.mark_input(mapping[net])
    for cell in members:
        if cell.cell_type.is_sequential:
            mapping[cell.output] = sub.add_net(netlist.net_name(cell.output))
    for cell in levelize(netlist):
        if cell.index not in chosen:
            continue
        if cell.output not in mapping:
            mapping[cell.output] = sub.add_net(netlist.net_name(cell.output))
        sub.add_cell(
            cell.cell_type,
            tuple(mapping[n] for n in cell.inputs),
            mapping[cell.output],
            cell.name,
        )
    for cell in members:
        if not cell.cell_type.is_sequential:
            continue
        sub.add_cell(
            cell.cell_type,
            tuple(mapping[n] for n in cell.inputs),
            mapping[cell.output],
            cell.name,
        )
    for net in netlist.outputs:
        if net in produced:
            sub.mark_output(mapping[net])
    return sub, mapping


def _stable_set(netlist: Netlist) -> Set[int]:
    return set(netlist.stable_nets())
