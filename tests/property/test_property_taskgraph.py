"""``TaskGraph`` against networkx as an oracle.

``TaskGraph`` keeps its own adjacency dicts; networkx is a test
dependency only.  On random graphs, including edge lists that try to
close cycles and re-add existing edges, every query must answer exactly
what the networkx algorithms answer.
"""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchgen import paper_instance
from repro.model import Implementation, Task, TaskGraph, TaskGraphError

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def edge_scripts(draw):
    """Task ids in insertion order (not sorted) and an edge script.

    Most edges point forward in insertion order, so graphs grow dense
    enough for the width matching to need augmenting paths; the rest
    point either way and often try to close a cycle.
    """
    ids = draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=3),
                        unique=True, max_size=20))
    if len(ids) < 2:
        return ids, []
    index = st.integers(0, len(ids) - 1)
    script = draw(st.lists(
        st.tuples(index, index, st.sampled_from([0.0, 1.5, 4.0]), st.integers(0, 3)),
        max_size=80))
    edges = []
    for a, b, comm, kind in script:
        if a != b:
            a, b = (min(a, b), max(a, b)) if kind else (a, b)
            edges.append((ids[a], ids[b], comm))
    return ids, edges


def build(ids, script):
    """The same script applied to a ``TaskGraph`` and to a networkx
    ``DiGraph`` that adds each edge and drops it again if it closed a
    cycle; each rejection is recorded with its message."""
    graph = TaskGraph()
    reference = nx.DiGraph()
    for task_id in ids:
        graph.add_task(Task.of(task_id, [Implementation.sw(f"{task_id}_sw", 1.0)]))
        reference.add_node(task_id)
    rejected, expected = [], []
    for src, dst, comm in script:
        try:
            graph.add_dependency(src, dst, comm=comm)
        except TaskGraphError as exc:
            rejected.append(str(exc))
        reference.add_edge(src, dst, comm=comm)
        if not nx.is_directed_acyclic_graph(reference):
            reference.remove_edge(src, dst)
            expected.append(f"dependency {src!r} -> {dst!r} would create a cycle")
    return graph, reference, rejected, expected


def reference_width(reference: nx.DiGraph) -> int:
    """Dilworth via networkx: n minus a maximum bipartite matching of
    the transitive closure."""
    if reference.number_of_nodes() == 0:
        return 0
    closure = nx.transitive_closure_dag(reference)
    split = nx.Graph()
    split.add_nodes_from(("u", n) for n in closure)
    split.add_nodes_from(("v", n) for n in closure)
    split.add_edges_from((("u", a), ("v", b)) for a, b in closure.edges)
    matching = nx.bipartite.maximum_matching(split, top_nodes={("u", n) for n in closure})
    return len(closure) - sum(1 for key in matching if key[0] == "u")


@SETTINGS
@given(edge_scripts())
def test_taskgraph_matches_networkx(case):
    graph, reference, rejected, expected = build(*case)
    assert rejected == expected
    assert graph.task_ids == list(reference.nodes)
    assert list(graph.edges()) == list(reference.edges())
    assert graph.edge_count == reference.number_of_edges()
    for src, dst in reference.edges():
        assert graph.comm_cost(src, dst) == reference.edges[src, dst]["comm"]
    for node in reference:
        assert graph.predecessors(node) == list(reference.predecessors(node))
        assert graph.successors(node) == list(reference.successors(node))
        assert graph.ancestors(node) == nx.ancestors(reference, node)
        assert graph.descendants(node) == nx.descendants(reference, node)
    assert graph.topological_order() == list(nx.lexicographical_topological_sort(reference))
    assert graph.width() == reference_width(reference)
    expected_depth = nx.dag_longest_path_length(reference) + 1 if len(reference) else 0
    assert graph.depth() == expected_depth


@pytest.mark.parametrize("kind", ["layered", "random-order", "series-parallel"])
def test_benchgen_graphs_match_networkx(kind):
    """Paper-sized graphs, where the width matching takes long
    augmenting paths that the small random graphs above rarely need."""
    for seed in range(3):
        graph = paper_instance(40, seed=seed, graph_kind=kind).taskgraph
        reference = nx.DiGraph()
        reference.add_nodes_from(graph.task_ids)
        reference.add_edges_from(graph.edges())
        assert graph.width() == reference_width(reference)
        assert graph.depth() == nx.dag_longest_path_length(reference) + 1
        assert graph.topological_order() == list(
            nx.lexicographical_topological_sort(reference))


def test_cycle_rejection_message_and_rollback():
    graph, reference, rejected, expected = build(
        ["c", "a", "b"], [("c", "a", 0.0), ("a", "b", 0.0), ("b", "c", 2.0)])
    assert rejected == expected == ["dependency 'b' -> 'c' would create a cycle"]
    assert list(graph.edges()) == list(reference.edges()) == [("c", "a"), ("a", "b")]
    with pytest.raises(KeyError):
        graph.comm_cost("b", "c")


def test_duplicate_edge_overwrites_comm_in_place():
    graph, reference, rejected, _ = build(
        ["x", "y", "z"], [("x", "y", 1.5), ("x", "z", 0.0), ("x", "y", 4.0)])
    assert rejected == []
    assert graph.comm_cost("x", "y") == reference.edges["x", "y"]["comm"] == 4.0
    assert list(graph.edges()) == list(reference.edges()) == [("x", "y"), ("x", "z")]
    assert graph.edge_count == 2
