"""Scale-r neighbourhood graphs and exit flows.

A flow gives every point one outgoing tree edge pointing at a *sink* on
the frontier -- the finite stand-in for an escape ray to infinity. It
exists exactly when every graph component touches the frontier.
"""

from folnerflow import NotCoarselyUnbounded, cycle_window, grid_window
from folnerflow.rips import build_flow, build_rips, check_coarsely_unbounded

line = grid_window(1, 0, 9)
graph = build_rips(line, 1)
print(f"{line.label} at scale 1: {len(graph.components)} component,",
      graph.edge_count(), "edges")

report = check_coarsely_unbounded(line, graph)
print("every component reaches the frontier:", report.passed)

flow = build_flow(line, graph)
print("sink:", sorted(flow.sinks), "(smallest frontier point)")
print("sigma walks everything toward it:", dict(sorted(flow.sigma.items())))
print("sigma-depth of the far end:", flow.depth(9))

loop = cycle_window(9)
try:
    build_flow(loop, build_rips(loop, 1))
except NotCoarselyUnbounded as e:
    print(f"\n{loop.label}: {e}")
    print("no frontier, no exit: this space needs the amenable route instead")
