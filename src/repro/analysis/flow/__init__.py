"""Flow-sensitive static analysis: CFGs and dataflow solving.

The per-node AST rules in :mod:`repro.analysis.rules` answer "does this
statement look wrong"; this package answers "can execution *reach* this
statement in a bad state".  Two layers:

* :mod:`repro.analysis.flow.cfg` — a control-flow-graph builder for
  Python functions covering branches, loops (``while/else``, ``for/else``,
  ``break``/``continue``), ``try/except/finally`` (with duplicated
  ``finally`` regions so a ``return`` inside ``try`` flows through the
  finalizer to the right continuation), ``with`` blocks, early returns,
  and bare ``raise`` re-raises.  Blocks are statement-granular so
  exception edges are precise.
* :mod:`repro.analysis.flow.solve` — a generic forward/backward worklist
  fixpoint solver over a CFG; problems choose the lattice join and the
  per-block transfer, and may propagate the *pre*-state along exception
  edges (a statement that raises did not complete its effect).

FLOW-RELEASE (:mod:`repro.analysis.rules.flow`) is built on both;
``docs/static_analysis.md`` documents the model.
"""

from repro.analysis.flow.cfg import (
    CFG,
    Block,
    Edge,
    build_cfg,
    build_cfgs,
    render_cfg,
)
from repro.analysis.flow.solve import DataflowProblem, solve

__all__ = [
    "CFG",
    "Block",
    "Edge",
    "build_cfg",
    "build_cfgs",
    "render_cfg",
    "DataflowProblem",
    "solve",
]
