"""Graph structure, orbit correspondences, and pseudo-orbit enumeration.

The enumeration is cross-checked against a graph-native oracle that finds
primitive cycles by walking the graph directly, without any word machinery.
"""

import itertools

import pytest

from qnary.debruijn import (
    _braced,
    _pseudo_orbit_tuples,
    _windows,
    build_graph,
    edge_multiplicities,
    primitive_pseudo_orbits,
)
from qnary.words import (
    BudgetExceededError,
    Word,
    _duval,
    _no_repeated_factor,
    count_lyndon,
    count_strictly_decreasing,
    duval_factorize,
    lyndon_words,
)


def w(text, q=2):
    return Word.from_string(text, q)


def index(text, q=2):
    # vertex and edge indices are the base-q values of their words
    return int(text, q)


def walk(word, m):
    # the edge indices of the closed walk a word traces on the order-m graph
    return _windows(word.letters, word.q, m + 1)


def braced(po, q=2):
    # the display of a pseudo orbit, as `orbits` prints it
    return _braced([str(word) for word in po], q)


def concatenated(po, q=2):
    return Word(tuple(a for word in po for a in word.letters), q)


# --- graph structure ----------------------------------------------------------


def test_graph_binary_order_3():
    g = build_graph(2, 3)
    assert g.num_vertices == 8
    assert g.num_edges == 16
    e = index("0001")
    assert e // g.q == index("000")
    assert e % g.num_vertices == index("001")


def test_graph_ternary_order_2():
    g = build_graph(3, 2)
    assert g.num_vertices == 9
    assert g.num_edges == 27
    e = index("120", q=3)
    assert e // g.q == index("12", q=3)
    assert e % g.num_vertices == index("20", q=3)


def test_graph_binary_order_1():
    g = build_graph(2, 1)
    assert g.num_vertices == 2
    assert g.num_edges == 4


def test_graph_validation_and_budget():
    with pytest.raises(ValueError):
        build_graph(1, 3)
    with pytest.raises(ValueError):
        build_graph(2, 0)
    with pytest.raises(BudgetExceededError):
        build_graph(2, 3, budget=15)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_degrees_and_connectivity(q, m):
    g = build_graph(q, m)
    out_edges = [[] for _ in range(g.num_vertices)]
    in_degree = [0] * g.num_vertices
    for e in range(g.num_edges):
        out_edges[e // g.q].append(e)
        in_degree[e % g.num_vertices] += 1
    # vertex v = a_1..a_m leaves by the edges a_1..a_m.c, indices vq..vq+q-1
    assert out_edges == [list(range(v * q, (v + 1) * q)) for v in range(g.num_vertices)]
    assert in_degree == [q] * g.num_vertices
    # every vertex reaches every other within m steps
    for start in range(g.num_vertices):
        frontier = {start}
        reached = {start}
        for _ in range(m):
            frontier = {e % g.num_vertices for v in frontier for e in out_edges[v]}
            reached |= frontier
        assert reached == set(range(g.num_vertices))


# --- orbits -------------------------------------------------------------------


def test_orbit_vertex_cycle_example():
    # the vertices visited are the origins of the walk's edges
    g = build_graph(2, 3)
    expected = [index(s) for s in ["000", "001", "010", "100"]]
    assert [e // g.q for e in walk(w("0001"), 3)] == expected


def test_orbit_shorter_than_order_wraps():
    assert walk(w("0"), 3) == (index("0000"),)


def test_orbit_edge_sequence_example():
    assert walk(w("01"), 2) == (index("010"), index("101"))


def test_orbit_rejects_non_lyndon():
    g = build_graph(2, 2)
    for word in (w("10"), w("0101"), Word((), 2)):
        with pytest.raises(ValueError, match="is not a Lyndon word"):
            edge_multiplicities((word,), g)


def test_primitive_periodic_orbits_counts():
    # one orbit per Lyndon word, in dictionary order: the single-member
    # pseudo orbits of length l
    for l in (1, 4, 6):
        singles = [po[0] for po in primitive_pseudo_orbits(2, l) if len(po) == 1]
        assert singles == lyndon_words(2, l)
    assert [str(word) for word in lyndon_words(2, 4)] == ["0001", "0011", "0111"]
    assert [str(word) for word in lyndon_words(2, 1)] == ["0", "1"]
    # L_2(6) = (2^6 - 2^3 - 2^2 + 2)/6 = 9
    assert len(lyndon_words(2, 6)) == 9


@pytest.mark.parametrize("q,max_l", [(2, 8), (3, 8)])
def test_orbit_walks_are_closed_and_connected(q, max_l):
    for m in range(1, 5):
        g = build_graph(q, m)
        for l in range(1, max_l + 1):
            for word in lyndon_words(q, l):
                edges = walk(word, m)
                assert len(edges) == l
                for i, e in enumerate(edges):
                    nxt = edges[(i + 1) % l]
                    assert e % g.num_vertices == nxt // g.q


# --- pseudo orbits ------------------------------------------------------------


def test_pseudo_orbit_enumeration_length_4():
    orbits = primitive_pseudo_orbits(2, 4)
    assert [braced(po) for po in orbits] == [
        "{0001}",
        "{001,0}",
        "{0011}",
        "{011,0}",
        "{0111}",
        "{1,001}",
        "{1,01,0}",
        "{1,011}",
    ]


def test_pseudo_orbit_empty_and_budget():
    empty = primitive_pseudo_orbits(2, 0)
    assert empty == [()]
    with pytest.raises(BudgetExceededError):
        primitive_pseudo_orbits(2, 40)
    with pytest.raises(BudgetExceededError):
        _pseudo_orbit_tuples(2, 40)  # at the call, before any item is requested
    with pytest.raises(ValueError):
        primitive_pseudo_orbits(2, -1)


@pytest.mark.parametrize("q,max_n", [(2, 12), (3, 7)])
def test_pseudo_orbit_count_matches_closed_form(q, max_n):
    for n in range(0, max_n + 1):
        orbits = primitive_pseudo_orbits(q, n)
        assert len(orbits) == count_strictly_decreasing(q, n)
        if n >= 2:
            assert len(orbits) == (q - 1) * q ** (n - 1)
        for po in orbits:
            assert sum(map(len, po)) == n
            assert len(po) == len(set(po))


def test_pseudo_orbit_emission_order_is_concatenation_order():
    for q, n in [(2, n) for n in range(9)] + [(3, n) for n in range(7)]:
        orbits = primitive_pseudo_orbits(q, n)
        keys = [concatenated(po, q).letters for po in orbits]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
    # the bijection itself: walking all q^n words in dictionary order and
    # keeping the standard decompositions with no repeated factor gives the
    # same items in the same order, without the depth-first search
    for q, max_n in [(1, 6), (2, 14), (3, 9), (4, 7), (12, 3)]:
        for n in range(max_n + 1):
            words = itertools.product(range(q), repeat=n)
            expected = [tuple(_duval(x)) for x in words if _no_repeated_factor(x)]
            words, items = _pseudo_orbit_tuples(q, n)
            assert [tuple(words[i] for i in item) for item in items] == expected


@pytest.mark.parametrize("q,max_n", [(2, 10), (3, 6), (12, 3)])
def test_pseudo_orbit_bijection_roundtrip(q, max_n):
    # concatenating the strictly decreasing words and refactorizing recovers
    # them: both sides of the bijection are one value
    for n in range(1, max_n + 1):
        for po in primitive_pseudo_orbits(q, n):
            assert duval_factorize(concatenated(po, q)) == po


def test_pseudo_orbit_validation():
    g = build_graph(2, 1)
    with pytest.raises(ValueError, match="strictly decreasing"):
        edge_multiplicities((w("0"), w("1")), g)  # increasing
    with pytest.raises(ValueError, match="strictly decreasing"):
        edge_multiplicities((w("1"), w("1")), g)  # repeated
    with pytest.raises(ValueError, match="alphabet sizes differ"):
        edge_multiplicities((w("1"), w("0", q=3)), g)
    po = (w("1"), w("0"))
    assert sum(edge_multiplicities(po, g)) == 2
    assert braced(po) == "{1,0}"


def test_pseudo_orbit_rendering_large_alphabet():
    # above ten letters the words themselves carry commas, so the set
    # separator switches to ";"
    assert braced((Word((0, 1), 12),), 12) == "{0,1}"
    assert braced((Word((1,), 12), Word((0,), 12)), 12) == "{1;0}"


def test_enumeration_independent_of_graph_order():
    # the list depends only on (q, n); every member realizes on any order m
    for q, n in [(2, 5), (3, 4)]:
        orbits = primitive_pseudo_orbits(q, n)
        for m in (1, 2, 3):
            g = build_graph(q, m)
            assert all(sum(edge_multiplicities(po, g)) == n for po in orbits)
        assert len(orbits) == count_strictly_decreasing(q, n)


# --- graph-native oracle --------------------------------------------------------


def closed_edge_walks(g, length):
    """All closed edge walks of the given length, as edge tuples."""
    walks = []
    out_edges = [[] for _ in range(g.num_vertices)]
    for e in range(g.num_edges):
        out_edges[e // g.q].append(e)

    def extend(path):
        if len(path) == length:
            if path[-1] % g.num_vertices == path[0] // g.q:
                walks.append(tuple(path))
            return
        v = path[-1] % g.num_vertices
        for e in out_edges[v]:
            path.append(e)
            extend(path)
            path.pop()

    for e0 in range(g.num_edges):
        extend([e0])
    return walks


def canonical_rotation(t):
    return min(t[i:] + t[:i] for i in range(len(t)))


def is_repetition(t):
    for period in range(1, len(t)):
        if len(t) % period == 0 and t == t[:period] * (len(t) // period):
            return True
    return False


def primitive_cycles_by_walking(g, max_len):
    """Primitive cycles up to rotation, found without any word machinery."""
    cycles = set()
    for length in range(1, max_len + 1):
        for walk in closed_edge_walks(g, length):
            canon = canonical_rotation(walk)
            if not is_repetition(canon):
                cycles.add(canon)
    return cycles


def test_graph_native_oracle_matches_word_enumeration():
    g = build_graph(2, 2)
    max_n = 5
    cycles = primitive_cycles_by_walking(g, max_n)

    # each cycle's word: first letter of each edge along the walk
    def cycle_word(edge_cycle):
        return tuple(e // g.num_vertices for e in edge_cycle)

    by_length = {}
    for cyc in cycles:
        by_length.setdefault(len(cyc), []).append(cycle_word(cyc))

    # sets of distinct cycles with total length n, assembled by direct search
    flat = sorted(cycles)

    def subsets(start, remaining):
        if remaining == 0:
            yield ()
            return
        for i in range(start, len(flat)):
            if len(flat[i]) <= remaining:
                for rest in subsets(i + 1, remaining - len(flat[i])):
                    yield (flat[i],) + rest

    for n in range(0, max_n + 1):
        oracle_sets = {
            frozenset(canonical_rotation(cycle_word(c)) for c in combo)
            for combo in subsets(0, n)
        }
        word_sets = {
            frozenset(word.letters for word in po)
            for po in primitive_pseudo_orbits(2, n)
        }
        assert oracle_sets == word_sets, f"mismatch at n={n}"


# --- edge multiplicities --------------------------------------------------------


def test_edge_multiplicities_examples():
    g3 = build_graph(2, 3)
    vec = edge_multiplicities((w("0"),), g3)
    assert vec[index("0000")] == 1
    assert sum(vec) == 1

    g2 = build_graph(2, 2)
    vec = edge_multiplicities((w("01"),), g2)
    expected = [0] * g2.num_edges
    expected[index("010")] = 1
    expected[index("101")] = 1
    assert vec == tuple(expected)

    assert sum(edge_multiplicities((w("1"), w("01"), w("0")), g2)) == 4


def test_edge_multiplicity_totals_equal_topological_length():
    g = build_graph(3, 2)
    for n in range(0, 6):
        for po in primitive_pseudo_orbits(3, n):
            assert sum(edge_multiplicities(po, g)) == sum(map(len, po))
