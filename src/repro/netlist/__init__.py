"""Gate-level netlist IR, builder, passes, export and simulation.

This package is the hardware substrate of the reproduction.  The paper's
designs were written in Verilog and synthesized with Yosys to a NanGate45
netlist; here circuits are built directly at gate level with
:class:`repro.netlist.builder.CircuitBuilder`, which yields the same
gate/register graph that the probing-model analysis operates on.
"""

from repro.netlist.cells import CellType
from repro.netlist.core import Cell, Netlist, netlist_content_hash
from repro.netlist.builder import CircuitBuilder
from repro.netlist.topo import (
    combinational_cone,
    levelize,
    stable_support,
    transitive_input_support,
)
from repro.netlist.simulate import BitslicedSimulator, Trace, evaluate_combinational
from repro.netlist.compile import (
    CompiledSimulator,
    GateProgram,
    compile_netlist,
    program_cache_info,
)
from repro.netlist.native import (
    NativeSimulator,
    clear_native_kernel_cache,
    native_available,
    native_default_threads,
    native_kernel_cache_info,
    native_unavailable_reason,
)
from repro.netlist.slice import (
    ControlSchedule,
    ScheduledSimulator,
    SliceStats,
    scheduled_cone,
    sequential_cone,
    slice_key,
    slice_program,
    slice_stats,
)
from repro.netlist.stats import NetlistStats, netlist_stats
from repro.netlist.opt import optimize
from repro.netlist.verilog import to_verilog
from repro.netlist.verilog_import import from_verilog

__all__ = [
    "optimize",
    "from_verilog",
    "CellType",
    "Cell",
    "Netlist",
    "CircuitBuilder",
    "levelize",
    "combinational_cone",
    "stable_support",
    "transitive_input_support",
    "BitslicedSimulator",
    "CompiledSimulator",
    "NativeSimulator",
    "native_available",
    "native_unavailable_reason",
    "native_default_threads",
    "native_kernel_cache_info",
    "clear_native_kernel_cache",
    "GateProgram",
    "compile_netlist",
    "netlist_content_hash",
    "program_cache_info",
    "ControlSchedule",
    "ScheduledSimulator",
    "SliceStats",
    "scheduled_cone",
    "sequential_cone",
    "slice_key",
    "slice_program",
    "slice_stats",
    "Trace",
    "evaluate_combinational",
    "NetlistStats",
    "netlist_stats",
    "to_verilog",
]
