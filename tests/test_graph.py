"""Graph container, set helpers, and edge-list files."""

import math
import random
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import connected_graphs, graph_and_proper_subset
from helpers import child_stdout
from rumorspread import (
    FAMILY_NAMES,
    FamilySpec,
    Graph,
    InputError,
    ParticipatingConfig,
    boundary,
    boundary_expansion_exact,
    boundary_expansion_fraction,
    closure,
    compute_participating,
    complete,
    cut_size,
    cycle,
    dumbbell,
    edges_between,
    harmonic_mass,
    hypercube,
    is_dominating,
    load_edge_list,
    load_node_set,
    path,
    pull_growth_check,
    save_edge_list,
    save_node_set,
    star,
    volume,
)
from rumorspread import graph as graph_module
from rumorspread.graph import _NUMPY_MIN_LINES, bfs_distances, diameter


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.adj == ((1,), (0, 2), (1,))
        assert g.degrees == (1, 2, 1)
        assert g.num_edges == 2

    def test_rejects_tiny(self):
        with pytest.raises(InputError):
            Graph.from_edges(1, [])

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph.from_edges(3, [(0, 1), (1, 1), (1, 2)])

    def test_rejects_duplicate(self):
        with pytest.raises(InputError):
            Graph.from_edges(3, [(0, 1), (1, 0), (1, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph.from_edges(3, [(0, 1), (1, 3)])

    def test_rejects_disconnected(self):
        with pytest.raises(InputError):
            Graph.from_edges(4, [(0, 1), (2, 3)])

    def test_check_set_validates(self):
        g = path(4)
        assert g.check_set([2, 0]) == frozenset({0, 2})
        with pytest.raises(InputError):
            g.check_set([0, 4])
        with pytest.raises(InputError):
            g.check_set([0, -1])

    def test_degree_summaries(self):
        g = star(5)
        assert g.max_degree == 5
        assert g.min_degree == 1
        assert not g.is_regular
        assert cycle(7).is_regular


class TestSetHelpers:
    def test_boundary_hand_values(self):
        assert boundary(path(4), {0}) == {1}
        assert boundary(cycle(6), {0}) == {1, 5}
        assert boundary(cycle(6), {0, 1, 2}) == {3, 5}
        assert boundary(complete(4), {1, 2}) == {0, 3}

    def test_closure_and_domination(self):
        g = cycle(6)
        assert closure(g, {0}) == {5, 0, 1}
        assert is_dominating(g, {0, 3})
        assert not is_dominating(g, {0})
        assert is_dominating(star(9), {0})

    def test_cut_and_volume(self):
        g = complete(4)
        assert cut_size(g, {0, 1}) == 4
        assert volume(g, {0, 1}) == 6
        assert volume(g, g.node_set) == 2 * g.num_edges

    def test_edges_between(self):
        g = complete(4)
        assert edges_between(g, {0, 1}, {2, 3}) == 4
        assert edges_between(g, {0}, {3}) == 1
        with pytest.raises(InputError):
            edges_between(g, {0, 1}, {1, 2})

    def test_harmonic_mass(self):
        assert harmonic_mass(cycle(6), {0, 3}) == pytest.approx(1.0)
        assert harmonic_mass(star(4), {0}) == pytest.approx(0.25)
        assert harmonic_mass(star(4), set()) == 0.0

    def test_distances_and_diameter(self):
        assert bfs_distances(path(4), 0) == [0, 1, 2, 3]
        assert diameter(path(5)) == 4
        assert diameter(cycle(6)) == 3
        assert diameter(complete(5)) == 1
        assert diameter(star(7)) == 2
        assert diameter(dumbbell(4)) == 3
        assert diameter(hypercube(3)) == 3

    @pytest.mark.parametrize("s", [set(), set(range(6))], ids=["empty", "full"])
    def test_one_proper_subset_message(self, s):
        g = cycle(6)
        calls = (
            lambda: boundary_expansion_exact(g, s),
            lambda: boundary_expansion_fraction(g, s),
            lambda: pull_growth_check(g, s, 10, 0),
            lambda: compute_participating(g, s, ParticipatingConfig()),
        )
        for call in calls:
            with pytest.raises(InputError) as exc:
                call()
            assert str(exc.value) == "set must be a nonempty proper subset"

    @given(graph_and_proper_subset())
    def test_matches_oracle(self, gs):
        g, s = gs
        assert boundary(g, s) == oracles.naive_boundary(g.adj, s)
        assert closure(g, s) == oracles.naive_closure(g.adj, s)
        assert cut_size(g, s) == oracles.naive_cut(g.adj, s)
        assert volume(g, s) == oracles.naive_volume(g.adj, s)

    @given(graph_and_proper_subset())
    def test_cut_symmetry(self, gs):
        g, s = gs
        rest = g.node_set - s
        assert cut_size(g, s) == cut_size(g, rest)
        assert cut_size(g, s) == edges_between(g, s, rest)

    @given(connected_graphs())
    def test_csr_consistent(self, g):
        indptr, indices = g.csr
        assert indptr[0] == 0 and indptr[-1] == 2 * g.num_edges
        for v in range(g.n):
            assert tuple(indices[indptr[v] : indptr[v + 1]]) == g.adj[v]


class TestFiles:
    def test_roundtrip(self, tmp_path):
        g = dumbbell(3)
        p = tmp_path / "g.txt"
        save_edge_list(g, str(p), header=["six nodes"])
        loaded, mapping = load_edge_list(str(p))
        assert loaded.adj == g.adj
        assert mapping == {str(i): i for i in range(g.n)}
        assert p.read_text().startswith("# six nodes\n")

    def test_numeric_relabeling(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("10 2\n2 7\n")
        g, mapping = load_edge_list(str(p))
        assert mapping == {"2": 0, "7": 1, "10": 2}
        assert g.adj[0] == (1, 2)

    def test_lexicographic_relabeling(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("b a\nb c\n")
        g, mapping = load_edge_list(str(p))
        assert mapping == {"a": 0, "b": 1, "c": 2}

    def test_drops_loops_and_duplicates(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n1 1\n1 0\n1 2\n")
        with pytest.warns(UserWarning):
            g, _ = load_edge_list(str(p))
        assert g.num_edges == 2

    def test_bad_line_reports_position(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\nnot-an-edge\n")
        with pytest.raises(InputError, match="2"):
            load_edge_list(str(p))

    def test_disconnected_file_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n2 3\n")
        with pytest.raises(InputError):
            load_edge_list(str(p))

    def test_node_set_roundtrip(self, tmp_path):
        p = tmp_path / "s.txt"
        save_node_set({4, 1, 2}, str(p), header=["a set"])
        assert load_node_set(str(p)) == {1, 2, 4}

    def test_save_is_deterministic(self, tmp_path):
        g = hypercube(3)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_edge_list(g, str(a))
        save_edge_list(g, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestRandomInstances:
    def test_helper_builds_connected(self):
        rand = random.Random(0)
        for _ in range(25):
            n = rand.randint(2, 12)
            g = random_connected_check(rand, n)
            assert g.n == n

    def test_math_isfinite_degrees(self):
        g = complete(6)
        assert all(math.isfinite(1 / d) for d in g.degrees)


def random_connected_check(rand, n):
    from helpers import random_connected

    g = random_connected(rand, n)
    # from_edges would have raised if disconnected; sanity-check reachability
    assert max(bfs_distances(g, 0)) >= 0
    return g


# -- CSR storage, the loader and the builder against the oracles ---------------

CANONICAL = st.integers(-3, 40).map(str)
TOKENS = st.one_of(
    CANONICAL,
    CANONICAL,
    st.sampled_from(["01", "-0", "+1", "1_0", "007", "a", "b", "node", "é"]),
)
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t", "\x0c"])
PADDING = st.sampled_from(["", "", " ", "\t"])


@st.composite
def edge_list_texts(draw):
    """A chain of canonical integer edges, long enough at times to cross the
    loader's numpy threshold, with stray lines spliced in: edges over any
    labels, loops, repeats, comments, blank lines and lines of one or three
    tokens."""
    offset = draw(st.sampled_from([0, 0, 3, 1000, -5]))
    chain = draw(st.integers(0, 4 * _NUMPY_MIN_LINES + 20))
    lines = [f"{offset + i} {offset + i + 1}" for i in range(chain)]
    if draw(st.booleans()):
        lines.insert(0, "# family=test n=1")
    edge = st.tuples(PADDING, TOKENS, SEPARATORS, TOKENS, PADDING).map("".join)
    loop = st.tuples(TOKENS, SEPARATORS).map(lambda t: t[0] + t[1] + t[0])
    stray = st.one_of(
        edge,
        edge,
        loop,
        st.sampled_from(["", "  ", "\t", "# a comment", "  # indented", "#"]),
        st.tuples(PADDING, TOKENS).map("".join),
        st.tuples(TOKENS, SEPARATORS, TOKENS, SEPARATORS, TOKENS).map("".join),
    )
    for line in draw(st.lists(stray, max_size=6)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    for _ in range(draw(st.integers(0, 2))):
        if lines:  # repeat a line, at times reversed
            a = lines[draw(st.integers(0, len(lines) - 1))]
            parts = a.split()
            if draw(st.booleans()) and len(parts) == 2:
                a = f"{parts[1]} {parts[0]}"
            lines.insert(draw(st.integers(0, len(lines))), a)
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def _outcome(load, path):
    """The load result or the InputError message, and the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(path)
        except InputError as exc:
            result = str(exc)
    return result, [(str(w.message), w.category, w.filename) for w in caught]


def _csr_of(adj):
    indptr = np.cumsum([0] + [len(a) for a in adj])
    return indptr, np.array([v for a in adj for v in a], dtype=np.int64)


# a chain of canonical edges just long enough for the vectorized parser
CHAIN = "".join(f"{i} {i + 1}\n" for i in range(_NUMPY_MIN_LINES))
# the chain over labels 1..n, and over 0..n-1 without 5
ONE_BASED = "".join(f"{i} {i + 1}\n" for i in range(1, _NUMPY_MIN_LINES + 1))
GAPPED = CHAIN.replace("4 5\n5 6\n", "4 6\n") + "0 2\n"

# parameters of every generator family that give it at least as many edges
# as the vectorized parser needs lines
FAMILY_PARAMS = {
    "complete": {"n": 10},
    "path": {"n": 60},
    "cycle": {"n": 60},
    "star": {"leaves": 60},
    "hypercube": {"d": 6},
    "two_cliques": {"m": 8},
    "dumbbell": {"m": 8},
    "random_regular": {"n": 64, "degree": 4, "rng_seed": 1},
    "erdos_renyi": {"n": 30, "p": 0.3, "rng_seed": 1},
    "clustered_regular": {"num_components": 2, "degree": 4, "c": 6, "rng_seed": 0},
}


class TestLoaderAgainstOracle:
    @given(edge_list_texts())
    @settings(max_examples=300)
    # the vectorized parser must refuse every label that is not written as
    # str(int(label)) would write it
    @example(CHAIN + "01 7\n-0 3\n007 5\n")
    @example(CHAIN + "+1 2\n1_0 4\n")
    # leading zeros alone, which only the fast path's length check refuses
    @example(CHAIN + "007 5\n")
    @example(CHAIN + "3 00\n")
    # a line that starts with two integers but holds more
    @example(CHAIN + "3 4 5\n")
    @example(CHAIN + "5 6x\n1 3")
    # labels too sparse for a presence table over their range
    @example("".join(f"{i * 10**15} {(i + 1) * 10**15}\n" for i in range(-100, 150)) + "5 0\n")
    @example("# header\n\n" + "".join(f"{i}\t{i + 1} \n" for i in range(-3, _NUMPY_MIN_LINES)) + "7 7\n5 6\n6 5")
    # 19 digits, beyond the fast path's int64 guarantee, on either side of 2**63
    @example(CHAIN + "1000000000000000000 3\n")
    @example(CHAIN + "9223372036854775808 3\n")
    @example(CHAIN + "-1000000000000000000 3\n")
    @example(CHAIN + "999999999999999999 -999999999999999999\n")
    # minus signs that do not start a canonical integer
    @example(CHAIN + "- 3\n")
    @example(CHAIN + "3 -\n")
    @example(CHAIN + "1-2 3\n")
    @example(CHAIN + "--3 4\n")
    @example(CHAIN + "3 4-\n")
    # other separators inside one line, blank lines and line ends
    @example(CHAIN + "3\t4\n")
    @example(CHAIN + "3  4\n")
    @example(CHAIN + " 3 4\n")
    @example(CHAIN + "3 4 \n")
    @example(CHAIN + "3 4\n\n")
    @example(CHAIN + "\n3 4\n")
    @example(CHAIN.replace("\n", "\r\n"))
    @example(CHAIN + "3 4\r\n5 6")
    @example("# header\n" + CHAIN[:-1])
    @example("# caf\u00e9\n" + CHAIN + "0 0\n")
    # a minus sign before a 0 or inside a token
    @example(CHAIN + "-5 -0\n")
    @example(CHAIN + "-1-2 3\n")
    # labels 1..n, and 0..n-1 with one id missing: not their own ids
    @example(ONE_BASED)
    @example(GAPPED)
    def test_matches_line_by_line_loader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "g.txt")
            Path(path).write_bytes(text.encode())
            got, got_warnings = _outcome(load_edge_list, path)
            want, want_warnings = _outcome(oracles.naive_load_edge_list, path)
        assert got_warnings == want_warnings
        if isinstance(want, str):
            assert got == want
            return
        g, mapping = got
        adj, want_mapping = want
        assert list(mapping.items()) == list(want_mapping.items())
        assert g.adj == adj
        indptr, indices = _csr_of(adj)
        assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)
        assert g.indptr.dtype == g.indices.dtype == np.int64
        assert g.csr[0] is g.indptr and g.csr[1] is g.indices
        assert g.degrees == tuple(len(a) for a in adj)
        assert g.edges() == [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]

    @given(edge_list_texts())
    @settings(max_examples=300)
    @example(CHAIN + "999999999999999999 -999999999999999999\n")
    @example(CHAIN + "1000000000000000000 3\n")
    @example(CHAIN + "- 3\n")
    @example(CHAIN + "1-2 3\n")
    @example(CHAIN + "0 -0\n")
    @example("# header\n" + CHAIN[:-1])
    # leading zeros and empty tokens, which the length check must refuse
    @example(CHAIN + "007 5\n")
    @example(CHAIN + "3 00\n")
    @example(CHAIN + " 3 4\n")
    @example(CHAIN + "3 4 \n")
    @example(CHAIN + "3 \n")
    @example(CHAIN + " 3\n")
    @example(CHAIN + "-5 -0\n")
    @example(CHAIN + "-1-2 3\n")
    @example(ONE_BASED)
    @example(GAPPED)
    def test_fast_path_takes_exactly_canonical_pairs(self, text):
        data = text.replace("\r\n", "\n").replace("\r", "\n").encode()
        body = data[re.match(graph_module._HEADER, data).end() :].decode()
        lines = body.removesuffix("\n").split("\n")
        canonical = re.compile(r"(?:0|-?[1-9][0-9]{0,17}) (?:0|-?[1-9][0-9]{0,17})")
        want = bool(body) and all(canonical.fullmatch(line) for line in lines)
        assert (graph_module._int_pairs(data) is not None) == want

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_saved_families_load_as_their_own_ids(self, tmp_path, family):
        # what save_edge_list writes, labelled 0..n-1, takes the fast path and
        # keeps each label's value as its id
        g = FamilySpec(family, FAMILY_PARAMS[family]).build()
        path_ = tmp_path / "g.txt"
        save_edge_list(g, str(path_), header=[f"family={family}"])
        data = path_.read_bytes()
        assert data.count(b"\n") - 1 >= _NUMPY_MIN_LINES
        mapping, ids = graph_module._int_pairs(data)
        assert list(mapping.items()) == [(str(i), i) for i in range(g.n)]
        assert np.array_equal(ids, np.ravel(g.edges()))
        loaded, loaded_mapping = load_edge_list(str(path_))
        assert loaded == g and loaded_mapping == mapping

    @pytest.mark.parametrize("chain", ["0 1\n1 2\n", CHAIN], ids=["short", "chain"])
    def test_bad_utf8_is_named_at_its_byte_in_the_file(self, tmp_path, chain):
        # the bytes are checked before their line ends are translated, so the
        # error names the offset in the file as it was read
        data = chain.replace("\n", "\r\n").encode() + b"\xff 3\r\n"
        path_ = tmp_path / "g.txt"
        path_.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as exc:
            load_edge_list(str(path_))
        assert exc.value.start == data.index(b"\xff")

    def test_loads_return_distinct_mappings(self, tmp_path):
        path_ = tmp_path / "g.txt"
        path_.write_text(CHAIN)
        first = load_edge_list(str(path_))[1]
        second = load_edge_list(str(path_))[1]
        assert first is not second
        first["0"] = 99
        del first["1"]
        assert second == {str(i): i for i in range(_NUMPY_MIN_LINES + 1)}
        assert load_edge_list(str(path_))[1] == second

    def test_patterns_compile_on_python_310(self):
        # possessive quantifiers (*+, ++, ?+, {m,n}+) and atomic groups are
        # Python 3.11 syntax; pyproject.toml admits 3.10, where the loader
        # would fail on every file long enough to reach the fast path
        pattern = graph_module._HEADER
        assert not re.search(rb"[*+?}]\+|\(\?>", pattern), pattern


@st.composite
def shuffled_bad_edges(draw):
    """Distinct edges of a graph on n nodes, some reversed, with a few
    out-of-range ids, self-loops, repeats and float ids mixed in, all
    shuffled; and the numpy dtype to pass them as, or None for a list."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rnd.shuffle(pairs)
    edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in pairs[: draw(st.integers(0, 400))]]
    for _ in range(draw(st.integers(0, 3))):
        kind = rnd.choice(["range", "loop", "repeat", "float"])
        if kind == "range":
            bad = rnd.choice([(-1, 0), (0, n), (n + 3, 1), (2**63 + 5, 0), (2**70, 0), (-(2**70), n)])
        elif kind == "float":
            bad = (rnd.randrange(n) + rnd.choice([0.0, 0.7]), rnd.randrange(n))
        elif kind == "loop":
            w = rnd.randrange(n)
            bad = (w, w)
        else:
            if not edges:
                continue
            u, v = rnd.choice(edges)
            bad = (v, u) if rnd.random() < 0.5 else (u, v)
        edges.insert(rnd.randrange(len(edges) + 1), bad)
    rnd.shuffle(edges)
    ids = [x for e in edges for x in e]
    dtypes = [None]
    if all(isinstance(x, float) or abs(x) < 2**63 for x in ids):
        dtypes.append(np.result_type(*ids) if ids else np.int64)  # int64 or float64
    if all(isinstance(x, int) and 0 <= x < 2**64 for x in ids):
        dtypes.append(np.uint64)
    return n, edges, draw(st.sampled_from(dtypes))


class TestFromEdgesAgainstOracle:
    @given(shuffled_bad_edges())
    @settings(max_examples=300)
    @example((3, [(0, 1), (2**63 + 5, 0), (1, 2)], np.uint64))  # no wrap to a negative id
    @example((3, [(0, 1), (0.7, 2), (1, 2)], np.float64))  # no truncation to 0
    @example((3, [(0, 1), (0.7, 2), (1, 2)], None))
    @example((3, [(0, 1), (2.0, 1)], np.float64))  # integral, but a float
    @example((3, [(0, 1), (True, 2)], None))  # bools are ints: this builds
    @example((3, [(False, True), (True, 2)], None))
    def test_names_the_same_first_bad_edge(self, case):
        # a float id that passes the range checks fails with a TypeError at
        # every size, as it does as a list index in the oracle
        n, edges, dtype = case
        if dtype is not None:
            edges = np.array(edges, dtype=dtype).reshape(-1, 2)
        try:
            want = oracles.naive_from_edges(n, edges)
        except InputError as exc:
            want = str(exc)
        except TypeError:
            want = TypeError
        try:
            got = Graph.from_edges(n, edges).adj
        except InputError as exc:
            got = str(exc)
        except TypeError:
            got = TypeError
        assert got == want

    def test_both_builds_agree_across_the_threshold(self):
        # lists and arrays of every size take the one build
        from helpers import random_connected

        rand = random.Random(3)
        for n, extra in ((12, 0.9), (40, 0.1), (90, 0.02), (30, 0.3), (200, 0.01)):
            g = random_connected(rand, n, extra)
            edges = g.edges()
            rand.shuffle(edges)
            want = oracles.naive_from_edges(n, edges)
            for given_edges in (edges, np.array(edges), iter(edges)):
                h = Graph.from_edges(n, given_edges)
                assert h == g and h.adj == want


class TestCSRGraph:
    def test_arrays_are_read_only(self):
        for g in (hypercube(3), hypercube(7)):
            for arr in (g.indptr, g.indices, *g.csr):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1
            with pytest.raises(AttributeError):
                g.n = 3

    def test_constructor_copies(self):
        indptr, indices = np.array([0, 1, 2]), np.array([1, 0])
        g = Graph(2, indptr, indices)
        indices[0] = 0
        assert g.adj == ((1,), (0,))

    def test_build_hands_over_read_only_arrays(self, monkeypatch):
        # the build marks the arrays it computed read-only, so the
        # constructor keeps them instead of copying
        edges = cycle(12).edges()
        kept = []

        def spy(values):
            arr = real(values)
            kept.append(arr is values)
            return arr

        real = graph_module._read_only
        monkeypatch.setattr(graph_module, "_read_only", spy)
        Graph.from_edges(12, edges)
        assert kept == [True, True]

    @pytest.mark.parametrize("g", [hypercube(3), hypercube(7), star(200)], ids=["q3", "q7", "star200"])
    def test_equal_graphs_built_two_ways(self, tmp_path, g):
        edges = g.edges()
        reversed_edges = [(v, u) for u, v in reversed(edges)]
        p = tmp_path / "g.txt"
        save_edge_list(g, str(p))
        builds = [
            Graph.from_edges(g.n, reversed_edges),
            Graph.from_edges(g.n, np.array(reversed_edges)),
            load_edge_list(str(p))[0],
            Graph(g.n, g.indptr.tolist(), g.indices.tolist()),
        ]
        for h in builds:
            assert h == g and hash(h) == hash(g)
            assert h.adj == g.adj and h.degrees == g.degrees
        assert g != path(g.n) and g != "graph"

    def test_import_loads_no_scipy(self):
        out = child_stdout(
            "import sys, rumorspread.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert out.strip() == "[]"

    def test_shell_walks_and_loader_import_no_numpy_ma(self, tmp_path):
        # a plain np.unique imports numpy.ma on its first call (13.8 ms and
        # 1.7 MB in a fresh process); ring labels 10**15 apart are too sparse
        # for the loader's presence table
        n = _NUMPY_MIN_LINES + 4
        text = "".join(f"{i * 10**15} {(i + 1) % n * 10**15}\n" for i in range(n))
        (tmp_path / "sparse.txt").write_text(text)
        out = child_stdout(
            "import sys; g = rs.random_regular(64, 4, rng_seed=0); s = set(range(12)); "
            "rs.boundary_expansion_mc(g, s, 100, 0); rs.pull_growth_check(g, s, 10, 0); "
            "rep = rs.active_fraction_check(g, s, rs.ParticipatingConfig()); "
            f"h, _ = rs.load_edge_list({str(tmp_path / 'sparse.txt')!r}); "
            "print(rep.skipped, h.n, 'numpy.ma' in sys.modules)"
        )
        assert out.split() == ["False", str(n), "False"]
