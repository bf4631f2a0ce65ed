"""Cache-coherence property tests for the epoch-cached network fabric.

The cached fast paths (spatial grid + topology-epoch caches) must be
*bit-identical* to the naive O(N²) sweeps kept in
:mod:`repro.net.reference`, no matter how mobility, churn, and
interface toggles interleave with queries.  Queries run between
mutations so the caches are populated, invalidated, and repopulated —
the exact pattern a live simulation produces.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.net import (
    BLUETOOTH,
    ConnectivityMonitor,
    GPRS,
    Network,
    NetworkNode,
    Position,
    RoutingTable,
    WIFI_ADHOC,
    WIFI_INFRA,
)
from repro.net import reference as ref
from repro.sim import Environment

TECH_SETS = [
    [WIFI_ADHOC],
    [BLUETOOTH],
    [WIFI_ADHOC, BLUETOOTH],
    [GPRS],
    [WIFI_ADHOC, GPRS],
    [WIFI_INFRA],
    [WIFI_ADHOC, WIFI_INFRA],
]

coordinate = st.floats(0, 400)

#: (x, y, tech-set index, fixed, attach-infra)
node_spec = st.tuples(
    coordinate,
    coordinate,
    st.integers(0, len(TECH_SETS) - 1),
    st.booleans(),
    st.booleans(),
)

operation = st.one_of(
    st.tuples(st.just("move"), st.integers(0, 9), coordinate, coordinate),
    st.tuples(st.just("crash"), st.integers(0, 9)),
    st.tuples(st.just("restart"), st.integers(0, 9)),
    st.tuples(st.just("toggle"), st.integers(0, 9), st.integers(0, 3)),
    st.tuples(st.just("attach"), st.integers(0, 9), st.integers(0, 3)),
    st.tuples(st.just("detach"), st.integers(0, 9), st.integers(0, 3)),
    st.tuples(st.just("add"), node_spec),
)

programs = st.tuples(
    st.lists(node_spec, min_size=2, max_size=4),
    st.lists(operation, min_size=1, max_size=8),
)


def _make_node(env, network, index, spec):
    x, y, tech_index, fixed, attach = spec
    node = NetworkNode(
        env,
        f"n{index}",
        Position(x, y),
        technologies=TECH_SETS[tech_index],
        fixed=fixed,
    )
    network.add_node(node)
    if attach:
        for interface in node.interfaces.values():
            if interface.technology.infrastructure:
                interface.attach()
    return node


def _apply(env, network, nodes, op):
    kind = op[0]
    if kind == "add":
        nodes.append(_make_node(env, network, len(nodes), op[1]))
        return
    node = nodes[op[1] % len(nodes)]
    if kind == "move":
        node.move_to(Position(op[2], op[3]))
    elif kind == "crash":
        node.crash()
    elif kind == "restart":
        node.restart()
    else:
        interfaces = list(node.interfaces.values())
        interface = interfaces[op[2] % len(interfaces)]
        if kind == "toggle":
            if interface.enabled:
                interface.disable()
            else:
                interface.enable()
        elif kind == "attach" and interface.technology.infrastructure:
            if interface.enabled:
                interface.attach()
        elif kind == "detach":
            interface.detach()


def _check_live_queries(network, nodes):
    """The cheap per-step checks: adjacency and every neighbour list.

    Each cached query runs twice, so both the miss path (fresh build)
    and the hit path (epoch-validated reuse) are compared.
    """
    for adhoc_only in (True, False):
        expected = ref.naive_adjacency(network, adhoc_only=adhoc_only)
        for _attempt in range(2):
            got = network.adjacency(adhoc_only=adhoc_only)
            assert {k: set(v) for k, v in got.items()} == expected
    for node in nodes:
        expected_ids = [
            other.id for other in ref.naive_neighbors(network, node)
        ]
        for _attempt in range(2):
            assert [
                other.id for other in network.neighbors(node)
            ] == expected_ids


def _check_full(network, nodes):
    """The expensive end-of-program checks: every pairwise query."""
    table = RoutingTable(network, adhoc_only=True)
    for a in nodes:
        for b in nodes:
            if a.id == b.id:
                continue
            assert list(network.links_between(a, b)) == ref.naive_links_between(
                network, a, b
            )
            for adhoc_only in (True, False):
                expected_path = ref.naive_shortest_path(
                    network, a.id, b.id, adhoc_only=adhoc_only
                )
                assert (
                    network.shortest_path(a.id, b.id, adhoc_only=adhoc_only)
                    == expected_path
                )
                # Second call serves from the path cache.
                assert (
                    network.shortest_path(a.id, b.id, adhoc_only=adhoc_only)
                    == expected_path
                )
            # The routing table's tree-derived paths match the naive BFS
            # bit for bit (same sorted tie-breaking).
            assert table.path(a.id, b.id) == ref.naive_shortest_path(
                network, a.id, b.id, adhoc_only=True
            )
    for node in nodes:
        for adhoc_only in (True, False):
            expected = ref.naive_reachable_set(
                network, node.id, adhoc_only=adhoc_only
            )
            assert network.reachable_set(node.id, adhoc_only=adhoc_only) == expected


class TestTopologyCacheCoherence:
    @given(programs)
    @settings(max_examples=500, deadline=None)
    def test_cached_queries_match_naive_after_interleavings(self, program):
        specs, operations = program
        env = Environment()
        network = Network(env)
        nodes = [
            _make_node(env, network, index, spec)
            for index, spec in enumerate(specs)
        ]
        # Populate the caches before the first mutation.
        _check_live_queries(network, nodes)
        for op in operations:
            _apply(env, network, nodes, op)
            _check_live_queries(network, nodes)
        _check_full(network, nodes)

    @given(st.lists(node_spec, min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_epoch_stability_means_identical_answers(self, specs):
        env = Environment()
        network = Network(env)
        nodes = [
            _make_node(env, network, index, spec)
            for index, spec in enumerate(specs)
        ]
        epoch = network.topology_epoch
        first = {node.id: network.neighbors(node) for node in nodes}
        graph = network.adjacency()
        # No mutations: the epoch must not move, and repeated queries
        # must return the very same cached objects.
        assert network.topology_epoch == epoch
        for node in nodes:
            assert network.neighbors(node) is first[node.id]
        assert network.adjacency() is graph

    @given(st.lists(node_spec, min_size=2, max_size=5), operation)
    @settings(max_examples=120, deadline=None)
    def test_any_single_mutation_invalidates_stale_answers(self, specs, op):
        env = Environment()
        network = Network(env)
        nodes = [
            _make_node(env, network, index, spec)
            for index, spec in enumerate(specs)
        ]
        _check_live_queries(network, nodes)
        _apply(env, network, nodes, op)
        _check_live_queries(network, nodes)


#: Nodes packed along a strip so many pairs sit near the 100 m Wi-Fi
#: and 10 m Bluetooth thresholds: (x, y, tech-set index, fixed, attach).
strip_node = st.tuples(
    st.floats(0, 300),
    st.floats(0, 40),
    st.integers(0, len(TECH_SETS) - 1),
    st.booleans(),
    st.booleans(),
)

#: (node index, dx, dy, read afterwards?) — a jitter step kept inside
#: the node's current grid cell; unread steps pile up in the journal.
jitter_step = st.tuples(
    st.integers(0, 9),
    st.floats(-15, 15),
    st.floats(-15, 15),
    st.sampled_from([True, True, False]),
)


def _in_cell_step(network, node, dx, dy):
    """``node``'s position moved by (dx, dy), clamped to its cell."""
    size = network.grid.cell_size
    cx, cy = network.grid.cell_of(node.position)
    top_x = math.nextafter((cx + 1) * size, -math.inf)
    top_y = math.nextafter((cy + 1) * size, -math.inf)
    return Position(
        min(max(node.position.x + dx, cx * size), top_x),
        min(max(node.position.y + dy, cy * size), top_y),
    )


def _check_reads(network, nodes, monitors):
    for node, monitor in zip(nodes, monitors):
        expected = ref.naive_neighbors(network, node)
        assert list(network.neighbors(node)) == expected
        assert monitor.scan_now() == {other.id for other in expected}
        for other in nodes:
            if other is not node:
                assert list(
                    network.links_between(node, other)
                ) == ref.naive_links_between(network, node, other)


def _ring_brute_force(network, epoch, positions):
    """Freshness by dilating ``dirty_cells_since(epoch)`` one ring."""
    _, cells = network.dirty_cells_since(epoch)
    if cells is None:
        return False
    ring = {
        (cx + dx, cy + dy)
        for cx, cy in cells
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
    }
    return all(network.grid.cell_of(p) not in ring for p in positions)


#: Journal mutations: a move anywhere, an interface toggle (a one-cell
#: entry), or a link-filter swap (a global entry).
journal_op = st.one_of(
    st.tuples(
        st.just("move"), st.integers(0, 9), st.floats(0, 700), st.floats(0, 700)
    ),
    st.tuples(st.just("toggle"), st.integers(0, 9)),
    st.tuples(st.just("global")),
)


class TestInCellJitter:
    """Small in-cell steps crossing range thresholds: every move bumps
    the epoch, and the journal walk must still keep stale answers out."""

    @given(
        st.lists(strip_node, min_size=2, max_size=5),
        st.lists(jitter_step, min_size=1, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_cached_reads_match_naive_after_jitter(self, specs, steps):
        env = Environment()
        network = Network(env)
        nodes = [
            _make_node(env, network, index, spec)
            for index, spec in enumerate(specs)
        ]
        monitors = [ConnectivityMonitor(env, network, node) for node in nodes]
        _check_reads(network, nodes, monitors)
        for number, (index, dx, dy, read) in enumerate(steps, start=1):
            node = nodes[index % len(nodes)]
            before, epoch = node.position, network.topology_epoch
            node.move_to(_in_cell_step(network, node, dx, dy))
            moved = node.position != before
            assert network.topology_epoch == epoch + moved
            if read or number == len(steps):
                _check_reads(network, nodes, monitors)


class TestJournalWalk:
    @given(
        st.lists(strip_node, min_size=1, max_size=5),
        st.lists(journal_op, min_size=1, max_size=24),
        st.sampled_from([4, 8, Network.DIRTY_LOG_CAP]),
        st.lists(
            st.tuples(st.floats(0, 700), st.floats(0, 700)),
            min_size=1,
            max_size=2,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_walk_equals_dilated_ring(self, specs, ops, cap, points):
        env = Environment()
        network = Network(env)
        network.DIRTY_LOG_CAP = cap  # small caps exercise the floor
        nodes = [
            _make_node(env, network, index, spec)
            for index, spec in enumerate(specs)
        ]
        for op in ops:
            if op[0] == "global":
                network.set_link_filter(None)
                continue
            node = nodes[op[1] % len(nodes)]
            if op[0] == "move":
                node.move_to(Position(op[2], op[3]))
            else:
                interface = next(iter(node.interfaces.values()))
                if interface.enabled:
                    interface.disable()
                else:
                    interface.enable()
        positions = [Position(x, y) for x, y in points]
        for epoch in range(network.topology_epoch + 2):
            assert network.untouched_since(epoch, *positions) == (
                _ring_brute_force(network, epoch, positions)
            )

    def test_global_entry_and_floor_answer_stale(self):
        env = Environment()
        network = Network(env)
        network.DIRTY_LOG_CAP = 4
        mover = network.add_node(
            NetworkNode(env, "mover", Position(0, 0), technologies=[WIFI_ADHOC])
        )
        far = Position(5000, 5000)
        epoch = network.topology_epoch
        mover.move_to(Position(10, 0))
        assert network.untouched_since(epoch, far)
        network.set_link_filter(None)
        assert not network.untouched_since(epoch, far)
        after_global = network.topology_epoch
        for step in range(1, 6):
            mover.move_to(Position(10 + step, 0))
            # A read settles the move: one journal entry per step.
            network.topology_epoch
        # The global entry aged out of the 4-entry journal: the floor
        # alone must still answer "stale" for the older epoch.
        assert epoch < network._dirty_floor
        assert not network.untouched_since(epoch, far)
        assert network.untouched_since(network.topology_epoch, far)
        assert network.untouched_since(after_global + 4, far)


#: (node index, dx, dy) — a step of up to three 100 m grid cells.
unread_step = st.tuples(
    st.integers(0, 9), st.floats(-300, 300), st.floats(-300, 300)
)


class TestUnreadMoves:
    """Moves nobody reads settle in one journal entry per node: its
    last-indexed and current cells, never the cells it passed through."""

    @given(
        st.lists(strip_node, min_size=2, max_size=5),
        st.lists(unread_step, min_size=1, max_size=12),
        st.floats(-5, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_cached_reads_match_naive_after_unread_moves(
        self, specs, steps, jitter
    ):
        env = Environment()
        network = Network(env)
        nodes = [
            _make_node(env, network, index, spec)
            for index, spec in enumerate(specs)
        ]
        monitors = [ConnectivityMonitor(env, network, node) for node in nodes]
        _check_reads(network, nodes, monitors)
        epoch = network.topology_epoch
        # Out and back: node 0 crosses the next two cells and returns
        # next to where it started, with no read in between.
        size = network.grid.cell_size
        home = nodes[0].position
        nodes[0].move_to(Position(home.x + 2 * size, home.y))
        nodes[0].move_to(Position(home.x + jitter, home.y))
        moved = {nodes[0].id}
        for index, dx, dy in steps:
            node = nodes[index % len(nodes)]
            before = node.position
            node.move_to(Position(before.x + dx, before.y + dy))
            if node.position != before:
                moved.add(node.id)
        _, dirty = network.dirty_since(epoch)
        assert dirty == moved
        _check_reads(network, nodes, monitors)

    def test_passed_through_cell_does_not_invalidate(self):
        env = Environment()
        network = Network(env)
        walker = network.add_node(
            NetworkNode(env, "walker", Position(50, 50), technologies=[WIFI_ADHOC])
        )
        watcher = network.add_node(
            NetworkNode(env, "watcher", Position(350, 50), technologies=[WIFI_ADHOC])
        )
        assert network.neighbors(watcher) == ()
        epoch = network.topology_epoch
        # Into range of the watcher and back out, unread.
        walker.move_to(Position(260, 50))
        walker.move_to(Position(40, 50))
        assert network.topology_epoch == epoch + 1
        assert network.dirty_cells_since(epoch)[1] == {(0, 0)}
        revalidations = network.cache_stats["revalidations"]
        assert network.neighbors(watcher) == ()
        assert network.cache_stats["revalidations"] == revalidations + 1
        walker.move_to(Position(260, 50))
        assert network.neighbors(watcher) == (walker,)
