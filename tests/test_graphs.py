"""Graph type, parsers, encoders, and deterministic generation."""

import io
import re
import tracemalloc
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graphs_strategy, reference_twin_classes, relabel
from stabdim import graphs
from stabdim.errors import ConstraintError, GraphParseError
from stabdim.graphs import (
    EDGE_LIST_MAX_N,
    FAMILIES,
    Graph,
    bit_indices,
    connected_components,
    encode_edge_list,
    encode_graph6,
    generate,
    is_connected,
    parse_edge_list,
    parse_graph6,
    twin_classes,
    xorshift64star,
)

K2_TEXT = "p edge 2 1\ne 1 2"


def edges_of(g):
    return set(g.edges())


# Each malformed edge list and its exact message.
PARSE_ERRORS = {
    "p edge 2 1\ne 1 1": "line 2: self-loop at vertex 1",
    "p edge 2 1\ne 1 3": "line 2: endpoint outside [1, 2]",
    "p edge 2 1\ne 0 1": "line 2: endpoint outside [1, 2]",  # endpoints are 1-based
    "p edge 3 2\ne 1 2\ne 2 1": "line 3: duplicate edge (2, 1)",
    "p edge 3 2\ne 1 2": "'p' line declares 2 edges, found 1",
    "p edge 2 0\ne 1 2": "'p' line declares 0 edges, found 1",
    "e 1 2\np edge 2 1": "line 1: 'e' line before 'p' line",
    "p edge 2 1\np edge 2 1\ne 1 2": "line 2: duplicate 'p' line",
    "p edge 0 0": "line 1: need n >= 1 and m >= 0",
    "p edge two 1\ne 1 2": "line 1: non-integer counts in 'p' line",
    "p edge 2 1\ne 1 x": "line 2: non-integer endpoint",
    "p edge 2 1\nq 1 2": "line 2: unknown line type 'q'",
    "p edge 2 1\ne 1": "line 2: expected 'e <u> <v>'",
    "p edge 2\ne 1 2": "line 1: expected 'p edge <n> <m>'",
    "": "missing 'p edge <n> <m>' line",
    # A line ends at \n, \r\n or \r only, so U+2028 is whitespace inside it.
    "p edge 3 2\ne 1 2\u2028e 2 3": "line 2: expected 'e <u> <v>'",
}

# The eight characters str.splitlines() also breaks at, which the parser does not.
OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def outcome(parse, text):
    """The graph ``parse`` returns, or the type and message of what it raises."""
    try:
        return parse(text)
    except (GraphParseError, ConstraintError) as exc:
        return type(exc), str(exc)


def line_by_line(text):
    """The parse with the bulk reader declining: every line through the line rules."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "_bulk_rows", lambda *args: None)
        return parse_edge_list(text)


def counting_int(calls):
    """``int`` that records each token it reads with one argument in ``calls``."""

    def count(token, *base):
        if not base:
            calls.append(token)
        return int(token, *base)

    return count


def parse_peak(text):
    """Bytes allocated at the peak of ``parse_edge_list(text)``."""
    tracemalloc.start()
    try:
        parse_edge_list(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Window lengths for both readers: one or a few lines per window, and the real one.
WINDOW_CHARS = (1, 9, graphs._WINDOW_CHARS)


def _joined(lines):
    return "\n".join(lines) + "\n"


def _counted(lines, delta):
    """``lines`` with the edge count of the ``p`` line moved by ``delta``."""
    _, _, n, m = lines[0].split()
    return [f"p edge {n} {int(m) + delta}"] + lines[1:]


def _endpoints(line):
    _, u, v = line.split()
    return u, v


# Each takes the canonical lines, the index i >= 1 of an ``e`` line and n, and
# returns the text of a layout or an error around line i.
def duplicate(lines, i, n):
    return _joined(_counted(lines[: i + 1] + [lines[i]] + lines[i + 1:], 1))


def duplicate_reversed(lines, i, n):
    u, v = _endpoints(lines[i])
    return _joined(_counted(lines[: i + 1] + [f"e {v} {u}"] + lines[i + 1:], 1))


def self_loop(lines, i, n):
    u, _ = _endpoints(lines[i])
    return _joined(_counted(lines[:i] + [f"e {u} {u}"] + lines[i:], 1))


def endpoint_zero(lines, i, n):
    u, _ = _endpoints(lines[i])
    return _joined(lines[:i] + [f"e {u} 0"] + lines[i + 1:])


def endpoint_past_n(lines, i, n):
    u, _ = _endpoints(lines[i])
    return _joined(lines[:i] + [f"e {u} {n + 1}"] + lines[i + 1:])


def one_edge_more(lines, i, n):
    return _joined(_counted(lines, 1))


def one_edge_fewer(lines, i, n):
    return _joined(_counted(lines, -1))


def blank_line(lines, i, n):
    return _joined(lines[:i] + [""] + lines[i:])


def comment_line(lines, i, n):
    return _joined(lines[:i] + ["c a comment"] + lines[i:])


def other_break_in_comment(lines, i, n):
    char = OTHER_BREAKS[i % len(OTHER_BREAKS)]
    return _joined(lines[:i] + [f"c page one{char}page two"] + lines[i:])


def double_space(lines, i, n):
    return _joined(lines[:i] + [lines[i].replace(" ", "  ")] + lines[i + 1:])


def tab(lines, i, n):
    return _joined(lines[:i] + [lines[i].replace(" ", "\t", 1)] + lines[i + 1:])


def trailing_space(lines, i, n):
    return _joined(lines[:i] + [lines[i] + " "] + lines[i + 1:])


def crlf(lines, i, n):
    return "\r\n".join(lines) + "\r\n"


def no_final_newline(lines, i, n):
    return "\n".join(lines)


def plus_sign(lines, i, n):
    u, v = _endpoints(lines[i])
    return _joined(lines[:i] + [f"e +{u} {v}"] + lines[i + 1:])


def underscore(lines, i, n):
    u, _ = _endpoints(lines[i])
    return _joined(lines[:i] + [f"e {u} 1_0"] + lines[i + 1:])


def leading_zero(lines, i, n):
    u, v = _endpoints(lines[i])
    return _joined(lines[:i] + [f"e 0{u} {v}"] + lines[i + 1:])


def non_ascii_digit(lines, i, n):
    # int() reads Arabic-Indic digits too, so the line loop accepts this line.
    u, v = _endpoints(lines[i])
    arabic = u.translate({ord("0") + d: 0x0660 + d for d in range(10)})
    return _joined(lines[:i] + [f"e {arabic} {v}"] + lines[i + 1:])


def e_line_first(lines, i, n):
    return _joined([lines[i], lines[0]] + lines[1:i] + lines[i + 1:])


def vertex_ceiling_with_edges(lines, i, n):
    _, _, _, m = lines[0].split()
    return _joined([f"p edge {EDGE_LIST_MAX_N + 1} {m}"] + lines[1:])


MUTATIONS = (
    duplicate, duplicate_reversed, self_loop, endpoint_zero, endpoint_past_n,
    one_edge_more, one_edge_fewer, blank_line, comment_line, double_space, tab,
    trailing_space, crlf, no_final_newline, plus_sign, underscore, leading_zero,
    non_ascii_digit, e_line_first, vertex_ceiling_with_edges, other_break_in_comment,
)

# The mutations that keep a list valid when they change a canonical 'e' line.
VALID_MUTATIONS = (
    blank_line, comment_line, double_space, tab, trailing_space, crlf, no_final_newline,
    plus_sign, leading_zero, non_ascii_digit,
)
CANONICAL_E = re.compile("e [1-9][0-9]* [1-9][0-9]*").fullmatch


def stacked(text, n, data, count):
    """``text`` after ``count`` mutations drawn in turn; one that no longer fits
    the mutated lines (say, a count change once the ``p`` line moved) is skipped."""
    for _ in range(count):
        lines = text.splitlines()
        if len(lines) < 2:
            break
        mutate = data.draw(st.sampled_from(MUTATIONS))
        try:
            text = mutate(lines, data.draw(st.integers(1, len(lines) - 1)), n)
        except ValueError:
            pass
    return text


class TestGraphType:
    def test_from_edges(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.m == 2
        assert g.adj == (0b010, 0b101, 0b010)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(2, (0b01, 0b10))

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    @given(graphs_strategy(min_n=2, max_n=12), st.data())
    @settings(max_examples=60)
    def test_caller_built_rows_still_checked(self, g, data):
        # The parsers and from_edges (relabel's builder) skip the symmetry check; their
        # rows must pass it, and a caller's Graph(n, adj) is still checked.
        trusted = [
            g,
            relabel(g, list(reversed(range(g.n)))),
            parse_edge_list(encode_edge_list(g)),
            parse_graph6(encode_graph6(g)),
        ]
        for h in trusted:
            assert Graph(h.n, h.adj) == h
        if g.m:
            u, v = data.draw(st.sampled_from(g.edges()))
            rows = list(g.adj)
            rows[u] ^= 1 << v
            with pytest.raises(ValueError, match="not symmetric"):
                Graph(g.n, tuple(rows))

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(0, ())
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_induced_subgraph(self):
        p4 = generate("path", 4)
        sub = p4.induced_subgraph([1, 2, 3])
        assert edges_of(sub) == {(0, 1), (1, 2)}

    @given(graphs_strategy(max_n=9), st.data())
    def test_induced_subgraph_keeps_each_pair(self, g, data):
        vs = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
        sub = g.induced_subgraph(vs)
        assert sub.n == len(vs)
        for i in range(sub.n):
            for j in range(sub.n):
                assert sub.has_edge(i, j) == g.has_edge(vs[i], vs[j])

    def test_relabel(self):
        p3 = generate("path", 3)
        assert edges_of(relabel(p3, [2, 0, 1])) == {(0, 2), (0, 1)}

    @given(graphs_strategy(max_n=8))
    def test_neighborhood_symmetry(self, g):
        for u in range(g.n):
            for v in bit_indices(g.adj[u]):
                assert g.has_edge(v, u)


class TestEdgeList:
    def test_smallest_graph(self):
        g = parse_edge_list(K2_TEXT)
        assert (g.n, edges_of(g)) == (2, {(0, 1)})

    def test_edgeless_with_comment(self):
        g = parse_edge_list("c comment\np edge 4 0")
        assert (g.n, g.m) == (4, 0)

    def test_trailing_newline_and_blank_lines(self):
        assert parse_edge_list(K2_TEXT + "\n") == parse_edge_list(K2_TEXT)
        assert parse_edge_list("p edge 2 1\n\ne 1 2\n") == parse_edge_list(K2_TEXT)

    @pytest.mark.parametrize("text", list(PARSE_ERRORS))
    def test_parse_errors(self, text):
        with pytest.raises(GraphParseError) as excinfo:
            parse_edge_list(text)
        assert str(excinfo.value) == PARSE_ERRORS[text]

    @pytest.mark.parametrize("char", OTHER_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
    def test_other_breaks_are_whitespace_inside_a_line(self, char):
        text = f"c page one{char}page two\np edge 2 1\ne 1 2\n"
        assert parse_edge_list(text) == line_by_line(text) == parse_edge_list(K2_TEXT)

    def test_lone_cr_ends_a_line(self):
        text = "c header\rp edge 3 2\re 1 2\re 2 3\r"
        assert parse_edge_list(text) == line_by_line(text) == generate("path", 3)

    @given(graphs_strategy(max_n=14))
    @settings(max_examples=60)
    def test_round_trip(self, g):
        assert parse_edge_list(encode_edge_list(g)) == g

    @pytest.mark.parametrize("n", [EDGE_LIST_MAX_N + 1, 10**9])
    def test_vertex_ceiling_refused_on_p_line(self, monkeypatch, n):
        def no_graph(*args):
            raise AssertionError("graph built despite the ceiling")

        monkeypatch.setattr(Graph, "__init__", no_graph)
        monkeypatch.setattr(Graph, "_from_symmetric_rows", no_graph)
        with pytest.raises(ConstraintError, match=f"cap at n={EDGE_LIST_MAX_N}, got n={n}"):
            parse_edge_list(f"p edge {n} 0\ne 1 2")

    @given(graphs_strategy(max_n=12), st.sampled_from(WINDOW_CHARS))
    @settings(max_examples=60)
    def test_canonical_layout_takes_the_bulk_path(self, g, window_chars):
        # The line rules read each endpoint with int(); the bulk reader reads a
        # dense list's from its tables, so only the 'p' line's two counts call
        # int() with one argument (the transposition calls int(s, 2)), after a
        # leading comment, after a header of comments and a blank line, and with
        # CRLF endings too. End of text is a line end, so a last 'e' line
        # without its newline is read from the tables too. Every 'e' line of a
        # sparse list meets the line rules.
        calls = []
        expected = 2 if 8 * g.m >= g.n**2 else 2 + 2 * g.m
        text = encode_edge_list(g)
        variants = (
            text, text.replace("\n", "\r\n"), "c header\n" + text, "c one\nc two\n\n" + text,
            text.rstrip("\n"),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "_WINDOW_CHARS", window_chars)
            for variant in variants:
                assert line_by_line(variant) == g
            patch.setattr(graphs, "int", counting_int(calls), raising=False)
            for variant in variants:
                calls.clear()
                assert parse_edge_list(variant) == g
                assert len(calls) == expected

    @given(
        st.integers(2, 40),
        st.sampled_from((0.3, 0.6, 1.0)),
        st.sampled_from((1, 3, 16, graphs._BAND_ROWS)),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_bands_of_any_height_transpose_the_same(self, n, p, band_rows, data):
        # The bulk reader transposes a band of rows at a time; a band of one
        # row, of a few, or all rows in one band give the same graph, also with
        # the lines shuffled and their endpoints swapped.
        g = generate("gnp", n, p, data.draw(st.integers(0, 2**32)))
        lines = encode_edge_list(g).splitlines()
        body = [f"e {v} {u}" if data.draw(st.booleans()) else f"e {u} {v}"
                for u, v in map(_endpoints, data.draw(st.permutations(lines[1:])))]
        text = _joined([lines[0], *body])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "_BAND_ROWS", band_rows)
            assert graphs._bulk_rows(iter([_joined(body)] if body else []), n, g.m) == list(g.adj)
            assert parse_edge_list(text) == line_by_line(text) == g

    @given(graphs_strategy(min_n=2, max_n=10).filter(lambda g: g.m), st.data())
    @settings(max_examples=400)
    def test_bulk_and_line_loop_agree_on_mutations(self, g, data):
        mutate = data.draw(st.sampled_from(MUTATIONS))
        lines = encode_edge_list(g).splitlines()
        text = mutate(lines, data.draw(st.integers(1, len(lines) - 1)), g.n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "_WINDOW_CHARS", data.draw(st.sampled_from(WINDOW_CHARS)))
            assert outcome(parse_edge_list, text) == outcome(line_by_line, text)

    @given(graphs_strategy(min_n=2, max_n=10).filter(lambda g: g.m), st.data())
    @settings(max_examples=400)
    def test_bulk_and_line_loop_agree_on_stacked_mutations(self, g, data):
        text = stacked(encode_edge_list(g), g.n, data, data.draw(st.integers(2, 3)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "_WINDOW_CHARS", data.draw(st.sampled_from(WINDOW_CHARS)))
            assert outcome(parse_edge_list, text) == outcome(line_by_line, text)

    @pytest.mark.parametrize(
        "text",
        [
            f"p edge {EDGE_LIST_MAX_N + 1} 0",
            f"p edge {EDGE_LIST_MAX_N} 0\n",
            "p edge 1 0",
            "p edge 2 1\ne 1 2\n\n",
            "p edge 002 1\ne 1 2\n",
            "p edge 2 1\ne 1 2\ne 1 2\n",
            "p edge 2 1\ne 1 2e 1 2\n",
            "p edge 3 1\ne 1 2\ne",
            f"p edge {'9' * 5000} 0\n",  # past int()'s default digit limit
            f"p edge 3 1\ne 1 {'0' * 5000}2\n",
        ],
    )
    def test_bulk_and_line_loop_agree_on_edge_cases(self, text):
        assert outcome(parse_edge_list, text) == outcome(line_by_line, text)

    @pytest.mark.parametrize(
        "text, message",
        [
            # A duplicate, a self-loop or a leading-zero spelling of a duplicate
            # in a dense list, then a malformed line or a wrong count: the bulk
            # reader declines, and the line rules name the first bad line.
            ("p edge 4 4\ne 1 2\ne 1 2\ne 2 3\ne 3\n", "line 3: duplicate edge (1, 2)"),
            ("p edge 4 2\ne 1 2\ne 2 1\ne 2 3\n", "line 3: duplicate edge (2, 1)"),
            ("p edge 3 3\ne 1 2\ne 2 2\ne 2 3\nq\n", "line 3: self-loop at vertex 2"),
            ("p edge 3 9\ne 1 2\ne 2 2\ne 2 3\n", "line 3: self-loop at vertex 2"),
            ("p edge 3 3\ne 1 2\ne 01 2\ne 2 3\ne 3 x\n", "line 3: duplicate edge (1, 2)"),
            ("p edge 3 1\ne 1 2\ne 01 2\ne 2 3\n", "line 3: duplicate edge (1, 2)"),
            # The same after a comment line, with CRLF endings, and with the
            # later fault among other lines between canonical ones.
            ("c x\r\np edge 3 1\r\ne 1 2\r\ne 1 2\r\ne 2\r\n", "line 4: duplicate edge (1, 2)"),
            ("p edge 4 3\ne 3 4\ne 4 3\nc x\ne 1\ne 1 2\n", "line 3: duplicate edge (4, 3)"),
            ("p edge 4 2\ne 3 3\n\ne 1  2\ne 1 2\n", "line 2: self-loop at vertex 3"),
        ],
    )
    def test_first_bad_line_named_after_a_bulk_run(self, text, message):
        for window_chars in WINDOW_CHARS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(graphs, "_WINDOW_CHARS", window_chars)
                assert outcome(parse_edge_list, text) == (GraphParseError, message)
        assert outcome(line_by_line, text) == (GraphParseError, message)

    def test_a_duplicate_in_a_dense_slice_is_refused(self):
        # A dense window ORs in one bit per edge, so the duplicate sets none:
        # the popcount total, taken after the transposition, falls short, the
        # bulk reader declines and the line rules name the duplicate.
        text = "p edge 4 4\ne 1 2\ne 1 2\ne 1 3\ne 1 4\n"
        assert graphs._bulk_rows(iter([text[text.index("e"):]]), 4, 4) is None
        assert outcome(parse_edge_list, text) == (GraphParseError, "line 3: duplicate edge (1, 2)")

    @pytest.mark.parametrize("family,entries", [("tree", 0), ("complete", 1)])
    def test_a_faulty_list_meets_the_bulk_reader_only_if_dense(self, monkeypatch, family, entries):
        # A sparse list never meets the bulk reader; a dense canonical one is
        # offered to it once, and the line rules name the first bad line.
        lines = encode_edge_list(generate(family, 40, seed=1)).splitlines(keepends=True)
        _, _, n, m = lines[0].split()
        text = "".join([f"p edge {n} {int(m) + 1}\n", *lines[1:], lines[-1]])
        calls, bulk_rows = [], graphs._bulk_rows
        monkeypatch.setattr(
            graphs, "_bulk_rows", lambda *args: calls.append(args) or bulk_rows(*args)
        )
        message = f"line {int(m) + 2}: duplicate edge {tuple(map(int, lines[-1].split()[1:]))}"
        assert outcome(parse_edge_list, text) == (GraphParseError, message)
        assert len(calls) == entries
        # Doubled spaces send every line to the line rules, which name the same line.
        assert outcome(parse_edge_list, text.replace(" ", "  ")) == (GraphParseError, message)

    @pytest.mark.parametrize("window_chars", WINDOW_CHARS)
    @pytest.mark.parametrize("header", ["", "c x\n", "c x\r"], ids=["bare", "lf", "cr"])
    def test_the_bulk_reader_is_entered_at_most_once(self, monkeypatch, header, window_chars):
        # Right after the dense 'p' line, and once only: also where a comment
        # puts the 'p' line mid-window (at 9 characters, and at 1 after a lone
        # CR), and where the bulk reader declines, for a comment in the body
        # or for a duplicate edge. A sparse list never meets it.
        g = generate("complete", 30)
        lines = (header + encode_edge_list(g)).splitlines(keepends=True)
        starts, bulk_rows = [], graphs._bulk_rows

        def counting(windows, n, m):
            windows = list(windows)
            starts.append("".join(windows))
            return bulk_rows(iter(windows), n, m)

        monkeypatch.setattr(graphs, "_WINDOW_CHARS", window_chars)
        monkeypatch.setattr(graphs, "_bulk_rows", counting)
        k = len(lines) - g.m  # the index of the first 'e' line
        duplicated = [*lines[: k - 1], "p edge 30 436\n", *lines[k:], lines[k]]
        variants = {
            "".join(lines): g,
            "".join([*lines[: k + 9], "c note\n", *lines[k + 9 :]]): g,
            "".join(duplicated): (GraphParseError, f"line {k + 436}: duplicate edge (1, 2)"),
        }
        for text, result in variants.items():
            starts.clear()
            assert outcome(parse_edge_list, text) == result
            assert starts == [text[text.index("\ne ") + 1 :]]  # from the line after 'p'
        tree = header + encode_edge_list(generate("tree", 30, seed=1))
        starts.clear()
        assert parse_edge_list(tree) == generate("tree", 30, seed=1) and starts == []

    def test_a_string_stream_meets_the_bulk_reader_as_its_str_does(self, monkeypatch):
        # A stream with no file behind it is sized by a seek to its end and
        # back, so a dense canonical list in an io.StringIO is offered to the
        # bulk reader once, as the str is; one that cannot seek never is.
        class Unseekable(io.StringIO):
            def seek(self, *args):
                raise io.UnsupportedOperation("seek")

        g = generate("gnp", 60, 0.9, seed=1)
        text = encode_edge_list(g)
        calls, bulk_rows = [], graphs._bulk_rows
        monkeypatch.setattr(
            graphs, "_bulk_rows", lambda *args: calls.append(args) or bulk_rows(*args)
        )
        for source, entries in ((text, 1), (io.StringIO(text), 1), (Unseekable(text), 0)):
            calls.clear()
            assert parse_edge_list(source) == g
            assert len(calls) == entries

    def test_any_other_line_sends_the_whole_body_to_the_line_rules(self):
        # A comment, a blank line or an 'e' line with a trailing space after the
        # 'p' line makes the bulk reader decline, so every 'e' line meets the
        # line rules, which read each endpoint with int(), the 'p' line its counts.
        g = generate("complete", 100)
        lines = encode_edge_list(g).splitlines()
        for i in (4000, 3000):
            lines[i] += " "
        for i, line in ((2500, ""), (1000, "c note"), (1, "c note")):
            lines.insert(i, line)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "int", counting_int(calls), raising=False)
            assert parse_edge_list(_joined(lines)) == g
        assert len(calls) == 2 + 2 * g.m

    @pytest.mark.parametrize("line_end", [" \n", "\t\n", "\n  "])
    def test_lines_that_only_look_canonical_take_few_blocks(self, line_end):
        # A line ending in a space or a tab, or starting with spaces, is not
        # canonical, so the bulk reader declines at its first window; the line
        # rules then take a window's lines at once, not one line at a time.
        g = generate("complete", 100)
        text = encode_edge_list(g).replace("\n", line_end)
        blocks = []

        def counting_string_io(block, newline):
            blocks.append(block)
            return io.StringIO(block, newline=newline)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "io", SimpleNamespace(StringIO=counting_string_io))
            assert parse_edge_list(text) == g
        assert g.m == 4950 and len(blocks) < 50

    @given(
        st.integers(20, 150),
        st.sampled_from((0.1, 0.5, 1.0)),
        st.lists(st.sampled_from(VALID_MUTATIONS), min_size=1, max_size=30),
        st.sampled_from((*WINDOW_CHARS, 100)),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_runs_broken_by_other_lines_agree_with_the_line_rules(
        self, n, p, mutations, window_chars, data
    ):
        # Up to 30 lines that are valid but not canonical, anywhere in a dense
        # list or in a sparse one, which meets only the line rules: the same
        # graph as the line rules give.
        g = generate("gnp", n, p, data.draw(st.integers(0, 2**32)))
        text = encode_edge_list(g)
        for mutate in mutations:
            lines = text.splitlines()
            canonical = [i for i, line in enumerate(lines) if CANONICAL_E(line)]
            if canonical:
                text = mutate(lines, data.draw(st.sampled_from(canonical)), n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "_WINDOW_CHARS", window_chars)
            assert parse_edge_list(text) == line_by_line(text) == g

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__)
    def test_mutations_past_the_first_slice(self, mutate):
        # 4950 lines: the mutated last line lies past the first window.
        g = generate("complete", 100)
        lines = encode_edge_list(g).splitlines()
        text = mutate(lines, len(lines) - 1, g.n)
        assert len(text) > graphs._WINDOW_CHARS
        assert outcome(parse_edge_list, text) == outcome(line_by_line, text)

    @given(
        st.integers(20, 300),
        # 8 * m >= n * n offers the bulk reader the body: from p of about 1/4 up.
        st.sampled_from((0.02, 0.1, 0.22, 0.28, 0.5, 0.9, 1.0)),
        st.sampled_from(("canonical", "shuffled", "swapped")),
        st.sampled_from((None, *MUTATIONS)),
        st.sampled_from(WINDOW_CHARS),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_both_lanes_agree_with_the_line_rules(self, n, p, layout, mutate, window_chars, data):
        # Dense lists, and sparse ones that meet only the line rules, in
        # canonical order, with the 'e' lines shuffled or their endpoints
        # swapped, and each mutation (CRLF, a comment, no final newline among
        # them) on a line next to a window end.
        g = generate("gnp", n, p, data.draw(st.integers(0, 2**32)))
        lines = encode_edge_list(g).splitlines()
        if layout == "shuffled":
            lines[1:] = data.draw(st.permutations(lines[1:]))
        elif layout == "swapped":
            lines[1:] = [f"e {v} {u}" for u, v in map(_endpoints, lines[1:])]
        text = _joined(lines)
        if mutate and g.m:
            starts, pos = [1], len(lines[0]) + 1  # line numbers, from 0, of window starts
            while pos < len(text):
                stop = text.find("\n", pos + window_chars) + 1 or len(text)
                starts.append(starts[-1] + text.count("\n", pos, stop))
                pos = stop
            i = data.draw(st.sampled_from(starts)) - data.draw(st.integers(0, 1))
            text = mutate(lines, min(max(i, 1), len(lines) - 1), n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "_WINDOW_CHARS", window_chars)
            assert outcome(parse_edge_list, text) == outcome(line_by_line, text)
        if mutate is None:
            assert parse_edge_list(text) == g

    @pytest.mark.parametrize(
        "variant",
        [lambda text: "c a DIMACS header\n" + text, lambda text: text.replace("\n", "\r\n")],
        ids=["comment", "crlf"],
    )
    def test_comment_and_crlf_inputs_peak_like_the_canonical_list(self, variant):
        # The bulk reader takes the body after the 'p' line with either line
        # ending, so neither a leading comment nor CRLF sends the body through
        # the line rules.
        text = encode_edge_list(generate("complete", 300))
        assert parse_peak(variant(text)) <= 1.2 * parse_peak(text)

    def test_edgeless_list_at_the_vertex_ceiling_builds_no_vertex_table(self):
        # A list with no edges is sparse, and the lookup tables are built only
        # for a dense list, so none is built for n = 65536 vertices on the 'p'
        # line's word; the rows alone take 0.5 MiB here.
        assert parse_peak(f"p edge {EDGE_LIST_MAX_N} 0\n") < 2 * 2**20

    def test_a_sparse_list_builds_no_lookup_table(self):
        # Only a dense list (8 * m >= n * n) meets the bulk reader and its two
        # tables; a tree or a path is read by the line rules alone.
        def no_table(*args):
            raise AssertionError("lookup table built for a sparse list")

        sparse = [generate("tree", 3000), generate("path", 2000)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "dict", no_table, raising=False)
            for g in sparse:
                text = encode_edge_list(g)
                for variant in (text, text.replace("\n", "\r\n")):
                    assert parse_edge_list(variant) == g
            with pytest.raises(AssertionError, match="lookup table"):
                parse_edge_list(encode_edge_list(generate("complete", 100)))


class TestGraph6:
    def test_k2(self):
        g = parse_graph6("A_")
        assert (g.n, edges_of(g)) == (2, {(0, 1)})

    def test_edgeless_3(self):
        g = parse_graph6("B?")
        assert (g.n, g.m) == (3, 0)

    def test_k3(self):
        g = parse_graph6("Bw")
        assert (g.n, edges_of(g)) == (3, {(0, 1), (0, 2), (1, 2)})

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")
        assert parse_graph6("A_\n") == parse_graph6("A_")

    def test_encode_examples(self):
        assert encode_graph6(parse_edge_list(K2_TEXT)) == "A_"
        assert encode_graph6(Graph.from_edges(3, [])) == "B?"

    @pytest.mark.parametrize(
        "text",
        [
            "",  # empty
            "A",  # missing payload
            "A__",  # payload too long
            chr(126) + "AAA_",  # multi-byte size form
            "A" + chr(30),  # byte below 63
            "A" + chr(127),  # byte above 126
            "?",  # declares n=0
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(GraphParseError):
            parse_graph6(text)

    def test_encode_cap(self):
        with pytest.raises(ConstraintError):
            encode_graph6(generate("path", 63))

    @given(graphs_strategy(max_n=20))
    @settings(max_examples=80)
    def test_round_trip(self, g):
        assert parse_graph6(encode_graph6(g)) == g


class TestConnectivity:
    def test_examples(self):
        assert is_connected(parse_graph6("A_"))
        assert not is_connected(Graph.from_edges(2, []))
        assert is_connected(generate("path", 3))
        assert is_connected(Graph.from_edges(1, []))

    def test_components(self):
        g = Graph.from_edges(5, [(0, 3), (1, 2)])
        assert connected_components(g) == [[0, 3], [1, 2], [4]]


class TestTwinClasses:
    @given(graphs_strategy(max_n=9), st.integers(0, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_int_keyed_reference(self, g, isolated, data):
        # Isolated vertices share the empty row and must stay out of every class.
        n = g.n + isolated
        perm = data.draw(st.permutations(range(n)))
        h = relabel(Graph.from_edges(n, g.edges()), perm)
        assert twin_classes(h) == reference_twin_classes(h)

    @pytest.mark.parametrize("shape", ["path", "fan"])
    def test_row_keys_spread_over_hashes(self, shape):
        # An int hashes modulo 2**61 - 1, so these rows as ints take 63 or 64
        # hashes and every dict probe compares n-bit ints; the keys must not.
        n = 4096
        edges = [(i, i + 1) for i in range(n - 1)]
        if shape == "fan":  # the path plus its last vertex joined to all
            edges += [(i, n - 1) for i in range(n - 2)]
        g = Graph.from_edges(n, edges)
        for rows in (g.adj, [row | 1 << a for a, row in enumerate(g.adj)]):
            assert len({hash(graphs._row_key(row)) for row in rows}) >= n // 2

    @staticmethod
    def count_row_keys(monkeypatch) -> list[int]:
        """Record the rows ``_row_key`` is asked for."""
        seen = []
        row_key = graphs._row_key
        monkeypatch.setattr(graphs, "_row_key", lambda row: seen.append(row) or row_key(row))
        return seen

    @pytest.mark.parametrize(
        "edges,kind",
        [
            # Open rows {2, 3, 5} and {2, 4, 5}: popcount 3, lowest bit 2, length 6.
            ([(0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (1, 5)], 1),
            # Closed rows {0, 1, 2, 5} and {0, 1, 3, 5}: popcount 4, lowest bit 0, length 6.
            ([(0, 1), (0, 2), (0, 5), (1, 3), (1, 5)], 2),
        ],
        ids=["open", "closed"],
    )
    def test_a_middle_bit_splits_a_shared_signature(self, monkeypatch, edges, kind):
        seen = self.count_row_keys(monkeypatch)
        g = Graph.from_edges(6, edges)
        found = twin_classes(g)
        assert found == reference_twin_classes(g)
        assert [0, 1] not in found[kind]
        # One comparison tells the two rows of the shared >= 3-bit signature
        # apart, so no row is read as bytes.
        assert seen == []

    def test_rows_that_share_a_signature_and_a_residue_are_read_as_bytes(self, monkeypatch):
        # Modulo 7, bit 6 is bit 3: of the open rows {0, 3, 9}, {0, 6, 9},
        # {0, 4, 9} and {0, 3, 9} of vertices 11 to 14, which share their
        # popcount, lowest bit and bit length, all but 13's share a residue.
        # That part's rows are not all equal, so only they become bytes, and
        # 11 and 14 form a class. The ends 0 and 9 share their row, a bucket of
        # two that one comparison makes a class.
        monkeypatch.setattr(graphs, "_RESIDUE_PRIME", 7)
        seen = self.count_row_keys(monkeypatch)
        edges = [(11, 0), (11, 3), (11, 9), (12, 0), (12, 6), (12, 9), (13, 0), (13, 4), (13, 9)]
        edges += [(14, 0), (14, 3), (14, 9)]
        g = Graph.from_edges(15, edges)
        found = twin_classes(g)
        assert found == reference_twin_classes(g)
        assert found[1] == [[0, 9], [11, 14]]
        assert seen == [g.adj[11], g.adj[12], g.adj[14]]

    @pytest.mark.parametrize(
        "g",
        [
            generate("complete", 200),
            Graph.from_edges(200, [(u, v) for u in range(100) for v in range(100, 200)]),
            Graph.from_edges(200, [(u, v) for u in (0, 199) for v in range(1, 199)]),
        ],
        ids=["complete", "bipartite", "k2"],
    )
    def test_equal_rows_and_rows_one_bit_apart_need_no_bytes(self, monkeypatch, g):
        # A complete graph's open rows are the full set less one bit each:
        # their int hashes collide in threes, their residues differ. Its
        # closed rows, and each side's open rows of a complete bipartite
        # graph, are all equal: one residue and one class, with no bytes. In
        # K_{2,n-2} the n - 2 closed rows {0, a, n - 1} share one signature
        # but are distinct rows of distinct residues.
        seen = self.count_row_keys(monkeypatch)
        assert twin_classes(g) == reference_twin_classes(g)
        assert seen == []
        if g.m == g.n * (g.n - 1) // 2:
            assert len({hash(row) for row in g.adj}) < g.n

    def test_the_residue_prime_tells_single_bits_apart(self):
        # 2 has an order past 2**17 modulo the prime, so no two bits of a row
        # of up to EDGE_LIST_MAX_N vertices leave the same residue.
        prime, power = graphs._RESIDUE_PRIME, 1
        assert prime < 2**30 and all(prime % d for d in range(2, 32768))
        for _ in range(2**17):
            power = power * 2 % prime
            assert power != 1

    @given(graphs_strategy(max_n=9), st.sampled_from((1, 2, 3, 7)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_residues_that_collide_equal_the_reference(self, g, prime, data):
        # Modulo a tiny prime most rows share a residue, so every group meets
        # the equality check and many the bytes split.
        h = relabel(g, data.draw(st.permutations(range(g.n))))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "_RESIDUE_PRIME", prime)
            assert twin_classes(h) == reference_twin_classes(h)

    @pytest.mark.parametrize(
        "edges,expected",
        [
            # Star: the leaves share the 1-bit row {0}.
            ([(0, 1), (0, 2), (0, 3)], ([1, 2, 3], [[1, 2, 3]], [])),
            # Cycle C4: opposite vertices share a 2-bit row; the edge 4-5 has
            # closed rows {4, 5}.
            ([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)], ([4, 5], [[0, 2], [1, 3]], [[4, 5]])),
            # Path 0-1-2 plus a triangle 3-4-5: the ends of the path share the
            # 1-bit row {1}, and the triangle's closed rows are all {3, 4, 5}.
            ([(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)], ([0, 2], [[0, 2]], [[3, 4, 5]])),
        ],
        ids=["star", "cycle", "path-and-triangle"],
    )
    def test_rows_of_one_or_two_bits_are_grouped_by_signature(self, monkeypatch, edges, expected):
        seen = self.count_row_keys(monkeypatch)
        g = Graph.from_edges(6, edges)
        found = twin_classes(g)
        assert found == expected == reference_twin_classes(g)
        assert all(row.bit_count() >= 3 for row in seen)

    @given(st.integers(3, 40), st.data())
    @settings(max_examples=150, deadline=None)
    def test_colliding_signatures_equal_the_reference(self, n, data):
        # Every middle vertex is joined to 0 and to n - 1, so all their open and
        # closed rows share the lowest bit 0 and the length n; only the popcount
        # and the middle bits tell them apart.
        middle = st.integers(1, n - 2)
        edges = {(u, v) for u, v in data.draw(st.sets(st.tuples(middle, middle))) if u < v}
        edges |= {(0, v) for v in range(1, n - 1)} | {(v, n - 1) for v in range(1, n - 1)}
        if data.draw(st.booleans()):
            edges.add((0, n - 1))
        g = Graph.from_edges(n, edges)
        assert twin_classes(g) == reference_twin_classes(g)

    @pytest.mark.parametrize("shape", ["path", "fan", "star", "k2"])
    def test_traced_peak_is_a_few_hundred_bytes_per_vertex(self, shape):
        # Bytes keys for every row would copy each row once per twin kind,
        # 2300-4400 bytes a vertex here; the signature buckets took 170-290 as
        # tuples of three ints and take 110-170 as one packed int. K_{2,n-2}
        # splits one closed bucket of n - 2 distinct rows by residue: 200.
        n = 16384
        if shape == "star":
            g = generate("star", n)
        elif shape == "k2":
            g = Graph.from_edges(n, [(u, v) for u in (0, n - 1) for v in range(1, n - 1)])
        else:
            edges = [(i, i + 1) for i in range(n - 1)]
            if shape == "fan":
                edges += [(i, n - 1) for i in range(n - 2)]
            g = Graph.from_edges(n, edges)
        tracemalloc.start()
        try:
            twin_classes(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * n


class TestGenerate:
    def test_families(self):
        assert edges_of(generate("star", 4)) == {(0, 1), (0, 2), (0, 3)}
        assert edges_of(generate("complete", 3)) == {(0, 1), (0, 2), (1, 2)}
        assert edges_of(generate("path", 4)) == {(0, 1), (1, 2), (2, 3)}
        assert edges_of(generate("cycle", 4)) == {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert generate("path", 1).m == 0

    def test_invalid_parameters(self):
        with pytest.raises(ConstraintError):
            generate("cycle", 2)
        with pytest.raises(ConstraintError):
            generate("path", 0)
        with pytest.raises(ConstraintError):
            generate("gnp", 4)
        with pytest.raises(ConstraintError):
            generate("gnp", 4, p=1.5)
        with pytest.raises(ValueError):
            generate("wheel", 4)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [EDGE_LIST_MAX_N + 1, 10**9])
    def test_vertex_ceiling_refused_before_any_edge(self, monkeypatch, family, n):
        def no_edges(*args):
            raise AssertionError("edges built despite the ceiling")

        # Every family builds its edges from range(), so a missing ceiling
        # fails here at once instead of building n**2 / 2 edges.
        monkeypatch.setattr(graphs, "range", no_edges, raising=False)
        p = 0.5 if family == "gnp" else None
        with pytest.raises(ConstraintError, match=f"caps at n={EDGE_LIST_MAX_N}, got n={n}$"):
            generate(family, n, p=p)

    @pytest.mark.parametrize("seed", range(25))
    def test_tree_is_connected_with_n_minus_1_edges(self, seed):
        for n in (1, 2, 3, 7, 12):
            t = generate("tree", n, seed=seed)
            assert t.m == max(n - 1, 0)
            assert is_connected(t)

    @pytest.mark.parametrize(
        "family,p,seed",
        [("complete", None, 0), ("gnp", 0.5, 1), ("path", None, 0), ("cycle", None, 0),
         ("star", None, 0), ("tree", None, 1)],
    )
    def test_families_hold_no_edge_list(self, family, p, seed):
        # Held edge tuples take 90-130 bytes a vertex beyond the rows: n - 1 of
        # them for path, cycle, star and tree at n = 16384 (a tree's Pruefer
        # sequence adds 40 more), and 150 or more for n = 300 on the quadratic
        # families, whose edge lists peaked at 1.5-3 MiB. Streamed, 8-48.
        n = 300 if family in ("complete", "gnp") else 16384
        tracemalloc.start()
        try:
            g = generate(family, n, p, seed)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 64 * n
        if family == "tree":
            assert g.m == n - 1 and is_connected(g)
            return
        pairs = {
            "path": [(i, i + 1) for i in range(n - 1)],
            "cycle": [(i, (i + 1) % n) for i in range(n)],
            "star": [(0, i) for i in range(1, n)],
        }.get(family) or [(u, v) for u in range(n) for v in range(u + 1, n)]
        if family == "gnp":
            rng, threshold = xorshift64star(seed), int(p * 2**64)
            pairs = [e for e in pairs if next(rng) < threshold]
        assert g == Graph.from_edges(n, pairs)

    def test_determinism(self):
        a = generate("gnp", 10, p=0.5, seed=7)
        b = generate("gnp", 10, p=0.5, seed=7)
        assert a == b
        assert generate("tree", 9, seed=3) == generate("tree", 9, seed=3)

    def test_gnp_extremes(self):
        assert generate("gnp", 6, p=0.0, seed=1).m == 0
        assert generate("gnp", 6, p=1.0, seed=1).m == 15

    def test_seeds_vary(self):
        draws = {generate("gnp", 8, p=0.5, seed=s).adj for s in range(10)}
        assert len(draws) > 1

    def test_xorshift_zero_seed_remapped(self):
        draws = list(islice(xorshift64star(0), 8))
        assert draws == list(islice(xorshift64star(0x9E3779B97F4A7C15), 8))
        assert any(draws)
        assert next(xorshift64star(0)) == next(xorshift64star(0))

    @pytest.mark.parametrize(
        "seeds,outputs",
        [
            ((0,), (0x0D83B3E29A21487A, 0x54C44C79F1FE9D67, 0xA845F342007A0E78)),
            ((1, 2**64 + 1), (0x47E4CE4B896CDD1D, 0xABCFA6A8E079651D, 0xB9D10D8FEB731F57)),
            ((7,), (0xD1FBAF7F728D2EAE, 0xEDA46C77629DA6AE, 0x16DF9D6AC76BD322)),
        ],
        ids=["seed0", "seed1", "seed7"],
    )
    def test_seeded_stream_is_pinned(self, seeds, outputs):
        # Seeded corpora must reproduce bit-for-bit: these are the first draws
        # of the published xorshift64* update, the seed taken mod 2**64.
        for seed in seeds:
            assert tuple(islice(xorshift64star(seed), 3)) == outputs

    def test_seeded_tree_is_pinned(self):
        assert encode_graph6(generate("tree", 12, seed=5)) == "KC??a?gP_HO?"
