"""CLI surface: sources, reports, exit codes, determinism."""

import errno
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graphs_strategy, reference_report
from stabdim import cli, graphs, oracle
from stabdim.cli import format_report, run
from stabdim.configurations import analyze
from stabdim.errors import ConsistencyError, GraphParseError
from stabdim.graphs import (
    EDGE_LIST_MAX_N,
    Graph,
    encode_edge_list,
    encode_graph6,
    generate,
    parse_edge_list,
)
from stabdim.theorem import check_equivalence
from test_graphs import MUTATIONS, VALID_MUTATIONS, WINDOW_CHARS, _joined, outcome


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_graph6_k2_text(self, capsys):
        code, out, _ = run_capture(capsys, ["analyze", "--graph6", "A_"])
        assert code == 0
        assert "dimension: 3" in out
        assert "orbit_dimension: 4 (derived)" in out
        assert "g2: 2" in out
        assert "theorem_holds: no (expected boundary for n = 2)" in out
        assert "X(0)-Z(1)" in out and "X(1)-Z(0)" in out and "Y(0)-Y(1)" in out

    @pytest.mark.parametrize("text", ["A_\n", " A_", "A_\t"], ids=["newline", "space", "tab"])
    def test_graph6_whitespace_is_not_echoed(self, capsys, text):
        # The source line shows the string the parser read, stripped as it strips it.
        assert run_capture(capsys, ["analyze", "--graph6", text]) == (0, (
            "source: graph6 A_\n"
            "n: 2\n"
            "m: 1\n"
            "connected: yes\n"
            "configurations:\n"
            "  leaf a=0 b=1 generator X(0)-Z(1)\n"
            "  leaf a=1 b=0 generator X(1)-Z(0)\n"
            "  closed_twin a=0 b=1 generator Y(0)-Y(1)\n"
            "dimension: 3\n"
            "orbit_dimension: 4 (derived)\n"
            "g2: 2\n"
            "theorem_holds: no (expected boundary for n = 2)\n"
        ), "")

    def test_graph6_k2_machine(self, capsys):
        code, out, _ = run_capture(capsys, ["analyze", "--graph6", "A_", "--format", "machine"])
        assert code == 0
        assert '"dimension":3' in out
        assert '"g2":2' in out
        record = json.loads(out)
        assert list(record) == [
            "n", "m", "connected", "dimension", "g2", "theorem_holds", "configurations",
        ]

    def test_star7_family(self, capsys):
        code, out, _ = run_capture(
            capsys, ["analyze", "--family", "star", "--n", "7", "--format", "machine"]
        )
        assert code == 0
        assert json.loads(out)["dimension"] == 6

    def test_c5_lists_no_configurations(self, capsys):
        code, out, _ = run_capture(capsys, ["analyze", "--family", "cycle", "--n", "5"])
        assert code == 0
        assert "configurations: none" in out
        assert "dimension: 0" in out

    def test_byte_stable(self, capsys):
        argv = ["analyze", "--family", "tree", "--n", "9", "--seed", "4", "--format", "machine"]
        _, first, _ = run_capture(capsys, argv)
        _, second, _ = run_capture(capsys, argv)
        assert first == second

    def test_file_source(self, capsys, tmp_path):
        path = tmp_path / "k2.col"
        path.write_text("c tiny\np edge 2 1\ne 1 2\n", encoding="utf-8")
        code, out, _ = run_capture(capsys, ["analyze", "--file", str(path), "--format", "machine"])
        assert code == 0
        assert json.loads(out)["dimension"] == 3

    def test_disconnected_needs_components(self, capsys):
        code, _, err = run_capture(
            capsys, ["analyze", "--family", "gnp", "--n", "5", "--p", "0", "--seed", "1"]
        )
        assert code == 3
        assert "components" in err

    def test_components_mode(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["analyze", "--family", "gnp", "--n", "5", "--p", "0", "--seed", "1",
             "--format", "machine"] + ["--components"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["connected"] is False
        assert record["dimension"] == 5
        assert record["g2"] == 5
        # auto cross-check against the oracle for in-cap sizes
        assert record["oracle_nullity"] == 5
        assert record["oracle_agrees"] is True

    def test_components_text_flagged(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["analyze", "--family", "gnp", "--n", "4", "--p", "0", "--seed", "1", "--components"],
        )
        assert code == 0
        assert "mode: component-sum extension" in out

    def test_components_with_single_edge_explain_the_gap(self, capsys):
        code, out, err = run_capture(capsys, ["analyze", "--graph6", "B_", "--components"])
        assert (code, err) == (0, "")
        assert out == (
            "source: graph6 B_\n"
            "n: 3\n"
            "m: 1\n"
            "connected: no\n"
            "mode: component-sum extension\n"
            "configurations:\n"
            "  leaf a=0 b=1 generator X(0)-Z(1)\n"
            "  leaf a=1 b=0 generator X(1)-Z(0)\n"
            "  closed_twin a=0 b=1 generator Y(0)-Y(1)\n"
            "dimension: 4\n"
            "orbit_dimension: 6 (derived)\n"
            "g2: 3\n"
            "theorem_holds: no (expected boundary: 1 component with n = 2)\n"
            "oracle_nullity: 4\n"
            "oracle_agrees: yes\n"
        )

    @pytest.mark.parametrize(
        "edges,note",
        [
            ([(0, 1), (2, 3)], " (expected boundary: 2 components with n = 2)"),
            ([(0, 1), (2, 3), (3, 4)], " (expected boundary: 1 component with n = 2)"),
            ([(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)],
             " (expected boundary: 1 component with n = 2)"),
            ([(0, 1), (1, 2), (2, 3)], None),
        ],
    )
    def test_single_edge_component_note(self, capsys, tmp_path, edges, note):
        n = 1 + max(v for e in edges for v in e)
        path = tmp_path / "g.col"
        path.write_text(graphs.encode_edge_list(graphs.Graph.from_edges(n, edges)))
        code, out, _ = run_capture(capsys, ["analyze", "--file", str(path), "--components"])
        assert code == 0
        holds = [line for line in out.splitlines() if line.startswith("theorem_holds:")]
        assert holds == ["theorem_holds: yes" if note is None else "theorem_holds: no" + note]

    def test_single_vertex(self, capsys):
        code, _, _ = run_capture(capsys, ["analyze", "--family", "path", "--n", "1"])
        assert code == 3
        code, out, _ = run_capture(
            capsys, ["analyze", "--family", "path", "--n", "1", "--components", "--format", "machine"]
        )
        assert code == 0
        assert json.loads(out)["dimension"] == 1


class TestVerify:
    def test_cycle5(self, capsys):
        code, out, _ = run_capture(
            capsys, ["verify", "--family", "cycle", "--n", "5", "--format", "machine"]
        )
        assert code == 0
        record = json.loads(out)
        assert record["dimension"] == 0
        assert record["oracle_nullity"] == 0
        assert record["oracle_agrees"] is True
        assert list(record)[-2:] == ["oracle_nullity", "oracle_agrees"]

    def test_over_cap(self, capsys):
        code, _, err = run_capture(capsys, ["verify", "--family", "star", "--n", "15"])
        assert code == 3
        assert "cap" in err

    def test_options_are_analyzes_plus_the_oracle_cap(self):
        analyze, verify = (cli.COMMANDS[name][2] for name in ("analyze", "verify"))
        assert list(verify) == [*analyze, "--oracle-max-n"]
        assert all(verify[name] == spec for name, spec in analyze.items())

    def test_cap_can_be_raised(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["verify", "--family", "star", "--n", "15", "--oracle-max-n", "15",
             "--format", "machine"],
        )
        assert code == 0
        assert json.loads(out)["oracle_nullity"] == 14

    def test_oracle_disagreement_exits_4(self, capsys, monkeypatch):
        # The oracle rule is a clause of the one gate, so nothing is written first.
        monkeypatch.setattr(oracle, "local_algebra_nullity", lambda g: 99)
        code, out, err = run_capture(
            capsys, ["verify", "--family", "star", "--n", "5", "--format", "machine"]
        )
        assert (code, out) == (4, "")
        assert err == (
            "internal consistency failure: oracle nullity 99 != dimension 4 "
            "(dimension=4 g2=4 oracle_nullity=99 graph6=Ds_)\n"
        )

    @pytest.mark.parametrize(
        "command,graph6,n,g2,gap,nullity",
        [
            ("analyze", "Ds_", 5, 4, 0, "not-run"),
            ("verify", "Ds_", 5, 4, 0, "4"),
            # At n = 2 only the boundary gap (dimension 3, g2 2) passes the gate.
            ("analyze", "A_", 2, 2, 1, "not-run"),
        ],
        ids=["analyze-not-run", "verify-4", "analyze-n2"],
    )
    def test_route_mismatch_names_the_input(
        self, capsys, monkeypatch, command, graph6, n, g2, gap, nullity
    ):
        real = cli.analyze
        monkeypatch.setattr(cli, "analyze", lambda g: real(g)._replace(dimension=99))
        code, out, err = run_capture(capsys, [command, "--graph6", graph6])
        assert (code, out) == (4, "")
        assert err == (
            f"internal consistency failure: dimension 99 - g2 {g2} != expected gap {gap} on a "
            f"graph with n={n} (dimension=99 g2={g2} oracle_nullity={nullity} graph6={graph6})\n"
        )

    def test_equal_pair_at_n2_names_the_expected_gap(self, capsys, monkeypatch):
        # dimension == g2 is itself a fault on K2, whose gap is 1.
        real = cli.analyze
        monkeypatch.setattr(cli, "analyze", lambda g: real(g)._replace(dimension=2))
        code, out, err = run_capture(capsys, ["analyze", "--graph6", "A_"])
        assert (code, out) == (4, "")
        assert err == (
            "internal consistency failure: dimension 2 - g2 2 != expected gap 1 on a graph "
            "with n=2 (dimension=2 g2=2 oracle_nullity=not-run graph6=A_)\n"
        )

    def test_components_gate_above_the_oracle_cap(self, capsys, monkeypatch):
        # Beyond n = 14 --components runs no oracle, so only the gate sees the fault.
        argv = ["analyze", "--family", "gnp", "--n", "40", "--p", "0.03", "--seed", "3",
                "--components"]
        code, out, _ = run_capture(capsys, argv)
        assert code == 0 and "connected: no\n" in out and "oracle_nullity" not in out
        real = cli.analyze
        monkeypatch.setattr(
            cli, "analyze", lambda g: (a := real(g))._replace(dimension=a.dimension + 1)
        )
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (4, "")
        assert err.startswith("internal consistency failure: dimension ")
        assert " oracle_nullity=not-run graph6=" in err

    def test_components_disagreement_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "local_algebra_nullity", lambda g: 99)
        code, out, err = run_capture(capsys, ["analyze", "--graph6", "B_", "--components"])
        assert (code, out) == (4, "")
        assert err.startswith("internal consistency failure: oracle nullity 99 != dimension ")
        assert err.endswith(" oracle_nullity=99 graph6=B_)\n")

    @pytest.mark.parametrize("family,dimension", [("star", 17), ("path", 2)])
    def test_oracle_at_n18(self, capsys, family, dimension):
        code, out, _ = run_capture(
            capsys,
            ["verify", "--family", family, "--n", "18", "--oracle-max-n", "18",
             "--format", "machine"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["dimension"] == record["oracle_nullity"] == dimension
        assert record["oracle_agrees"] is True

    def test_byte_stable(self, capsys):
        argv = ["verify", "--family", "complete", "--n", "6", "--format", "machine"]
        _, first, _ = run_capture(capsys, argv)
        _, second, _ = run_capture(capsys, argv)
        assert first == second


class TestRouteFaults:
    """Every route disagreement exits 4 from one gate, before anything is written."""

    COMMANDS = [
        ["analyze", "--graph6", "Ds_"],
        ["verify", "--graph6", "Ds_"],
        ["analyze", "--graph6", "B_", "--components"],
        ["verify", "--graph6", "B_", "--components"],
    ]
    ORACLE_COMMANDS = COMMANDS[1:]

    @pytest.mark.parametrize(
        "argv,err",
        zip(COMMANDS, [
            "dimension 5 - g2 4 != expected gap 0 on a graph with n=5 "
            "(dimension=5 g2=4 oracle_nullity=not-run graph6=Ds_)",
            "dimension 5 - g2 4 != expected gap 0 on a graph with n=5 "
            "(dimension=5 g2=4 oracle_nullity=4 graph6=Ds_)",
            "dimension 5 - g2 3 != expected gap 1 on a graph with n=3 "
            "(dimension=5 g2=3 oracle_nullity=4 graph6=B_)",
            "dimension 5 - g2 3 != expected gap 1 on a graph with n=3 "
            "(dimension=5 g2=3 oracle_nullity=4 graph6=B_)",
        ]),
        ids=["analyze", "verify", "analyze-components", "verify-components"],
    )
    def test_dimension_fault(self, capsys, monkeypatch, argv, err):
        real = cli.analyze
        monkeypatch.setattr(
            cli, "analyze", lambda g: (a := real(g))._replace(dimension=a.dimension + 1)
        )
        assert run_capture(capsys, argv) == (4, "", f"internal consistency failure: {err}\n")

    @pytest.mark.parametrize(
        "argv,err",
        zip(ORACLE_COMMANDS, [
            "oracle nullity 99 != dimension 4 (dimension=4 g2=4 oracle_nullity=99 graph6=Ds_)",
            "oracle nullity 99 != dimension 4 (dimension=4 g2=3 oracle_nullity=99 graph6=B_)",
            "oracle nullity 99 != dimension 4 (dimension=4 g2=3 oracle_nullity=99 graph6=B_)",
        ]),
        ids=["verify", "analyze-components", "verify-components"],
    )
    def test_oracle_fault(self, capsys, monkeypatch, argv, err):
        monkeypatch.setattr(oracle, "local_algebra_nullity", lambda g: 99)
        assert run_capture(capsys, argv) == (4, "", f"internal consistency failure: {err}\n")

    def test_library_raises_the_cli_text(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "local_algebra_nullity", lambda g: 99)
        code, _, err = run_capture(capsys, ["verify", "--family", "star", "--n", "5"])
        with pytest.raises(ConsistencyError) as caught:
            check_equivalence(generate("star", 5), with_oracle=True)
        assert (code, err) == (4, f"internal consistency failure: {caught.value}\n")
        assert str(caught.value) == (
            "oracle nullity 99 != dimension 4 (dimension=4 g2=4 oracle_nullity=99 graph6=Ds_)"
        )

    def test_selftest_stops_at_the_first_oracle_fault(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "local_algebra_nullity", lambda g: 99)
        assert run_capture(capsys, ["selftest"]) == (
            4,
            "",
            "internal consistency failure: oracle nullity 99 != dimension 3 "
            "(dimension=3 g2=2 oracle_nullity=99 graph6=A_)\n",
        )


class TestEnumerate:
    def test_star4_both_modes(self, capsys):
        code, out, _ = run_capture(capsys, ["enumerate", "--family", "star", "--n", "4"])
        assert code == 0
        assert out.splitlines() == [
            "0100 +ZXII",
            "0010 +ZIXI",
            "0110 +IXXI",
            "0001 +ZIIX",
            "0101 +IXIX",
            "0011 +IIXX",
        ]

    def test_over_cap(self, capsys):
        code, _, _ = run_capture(
            capsys, ["enumerate", "--family", "path", "--n", "30", "--mode", "brute"]
        )
        assert code == 3

    def test_brute_cap_is_n_28(self, capsys):
        path28 = ["enumerate", "--family", "path", "--n", "28"]
        both = run_capture(capsys, path28 + ["--mode", "both"])
        assert both == run_capture(capsys, path28 + ["--mode", "fast"])
        assert (both[0], len(both[1].splitlines())) == (0, 2)
        code, out, _ = run_capture(
            capsys, ["enumerate", "--family", "path", "--n", "29", "--mode", "fast"]
        )
        assert (code, len(out.splitlines())) == (0, 2)

    @pytest.mark.parametrize("mode", ["brute", "both"])
    def test_brute_refused_above_28(self, capsys, mode):
        code, out, err = run_capture(
            capsys, ["enumerate", "--family", "path", "--n", "29", "--mode", mode]
        )
        assert (code, out, err) == (
            3, "", "constraint violation: enumeration cap is n=28, got n=29\n"
        )

    def test_enumerate_max_n_is_gone(self, capsys):
        code, out, err = run_capture(
            capsys, ["enumerate", "--graph6", "A_", "--enumerate-max-n", "24"]
        )
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_fast_mode_allows_large(self, capsys):
        code, out, _ = run_capture(
            capsys, ["enumerate", "--family", "path", "--n", "30", "--mode", "fast"]
        )
        assert code == 0
        assert len(out.splitlines()) == 2  # the two end leaves

    def test_mismatch_names_the_input(self, capsys, monkeypatch):
        real = cli.low_weight_elements
        monkeypatch.setattr(
            cli, "low_weight_elements",
            lambda g, mode: [] if mode == "fast" else real(g, mode=mode),
        )
        code, out, err = run_capture(capsys, ["enumerate", "--family", "star", "--n", "5"])
        assert (code, out) == (4, "")
        assert err == (
            "internal consistency failure: brute and fast enumerations disagree "
            "(brute=10 fast=0 graph6=Ds_)\n"
        )

    def test_fast_rejects_disconnected(self, capsys):
        code, _, _ = run_capture(
            capsys,
            ["enumerate", "--family", "gnp", "--n", "4", "--p", "0", "--mode", "fast"],
        )
        assert code == 3

    @pytest.mark.parametrize(
        "mode,graph6,message",
        [
            ("fast", "C?", "graph is disconnected; analyze per component instead"),
            ("fast", "@", "need n >= 2, got n=1"),
            ("both", "C?", "graph is disconnected; analyze per component instead"),
        ],
    )
    def test_fast_refuses_what_detection_refuses(self, capsys, monkeypatch, mode, graph6, message):
        calls = []
        real = cli.low_weight_elements

        def spy(g, mode):
            calls.append(mode)
            return real(g, mode=mode)

        monkeypatch.setattr(cli, "low_weight_elements", spy)
        code, out, err = run_capture(capsys, ["enumerate", "--mode", mode, "--graph6", graph6])
        assert (code, out, err) == (3, "", f"constraint violation: {message}\n")
        assert calls == (["brute", "fast"] if mode == "both" else ["fast"])


class TestGen:
    def test_graph6_round_trip(self, capsys):
        code, out, _ = run_capture(capsys, ["gen", "--family", "star", "--n", "4"])
        assert code == 0
        assert out == "Cs\n"
        code, out2, _ = run_capture(capsys, ["analyze", "--graph6", out.strip(), "--format", "machine"])
        assert code == 0
        assert json.loads(out2)["dimension"] == 3

    def test_edge_list_output(self, capsys):
        code, out, _ = run_capture(
            capsys, ["gen", "--family", "path", "--n", "3", "--format", "edge-list"]
        )
        assert code == 0
        assert out == "p edge 3 2\ne 1 2\ne 2 3\n"

    def test_edge_list_is_written_a_row_at_a_time(self, monkeypatch):
        # Holding the whole text of complete 300 and its line list peaks near
        # 6 MB; a row's lines take a few KB. The sink keeps only a digest.
        class Sink(io.TextIOBase):
            digest = hashlib.sha256()

            def write(self, text):
                self.digest.update(text.encode())
                return len(text)

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = run(["gen", "--family", "complete", "--n", "300", "--format", "edge-list"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2**20
        expected = encode_edge_list(generate("complete", 300)).encode()
        assert sink.digest.digest() == hashlib.sha256(expected).digest()

    def test_deterministic_tree(self, capsys):
        argv = ["gen", "--family", "tree", "--n", "10", "--seed", "12"]
        _, first, _ = run_capture(capsys, argv)
        _, second, _ = run_capture(capsys, argv)
        assert first == second

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["gen", "--family", "path"], "gen requires --family and --n"),
            (["gen", "--family", "gnp", "--n", "4"], "family gnp requires --p"),
            (["gen", "--family", "path", "--n", "4", "--p", "0.5"],
             "--p only applies to family gnp, not path"),
            (["analyze", "--family", "star"], "--family requires --n"),
            (["analyze", "--family", "gnp", "--n", "4"], "family gnp requires --p"),
            (["analyze", "--family", "path", "--n", "4", "--p", "0.5"],
             "--p only applies to family gnp, not path"),
            (["analyze", "--graph6", "A_", "--n", "7"], "--n and --p only apply to --family"),
            (["verify", "--graph6", "A_", "--p", "0.5"], "--n and --p only apply to --family"),
            # Refused before the (missing) file is read.
            (["enumerate", "--file", "missing.col", "--n", "7", "--p", "0.5"],
             "--n and --p only apply to --family"),
            (["analyze", "--graph6", "A_", "--file", "x", "--n", "7"],
             "exactly one input source required: --file, --graph6, or --family"),
        ],
    )
    def test_family_validation_messages(self, capsys, argv, message):
        code, out, err = run_capture(capsys, argv)
        assert (code, out, err) == (1, "", f"usage error: {message}\n")


class TestCeilings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--graph6", "A_", "--oracle-max-n", "21"],
            ["verify", "--family", "path", "--n", "40", "--oracle-max-n", "40"],
        ],
    )
    def test_refused_before_any_graph_work(self, capsys, monkeypatch, argv):
        def no_graph_work(args):
            raise AssertionError("graph loaded despite the ceiling")

        monkeypatch.setattr(cli, "_load_graph", no_graph_work)
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("constraint violation:") and "ceiling" in err

    def test_ceilings_themselves_are_accepted(self, capsys):
        code, out, _ = run_capture(
            capsys, ["verify", "--graph6", "A_", "--oracle-max-n", str(cli.ORACLE_CEILING)]
        )
        assert code == 0 and "oracle_agrees: yes" in out


class TestCapsBeforeGenerate:
    """A command's size cap refuses a --family input before its graph is built."""

    @pytest.fixture(autouse=True)
    def no_generate(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("family graph built despite the cap")

        monkeypatch.setattr(cli, "generate", refuse)

    @pytest.mark.parametrize(
        "argv,code,err",
        [
            (["verify", "--family", "complete", "--n", "15"], 3,
             "constraint violation: oracle cap is n=14, got n=15\n"),
            (["verify", "--family", "complete", "--n", "21", "--oracle-max-n", "20"], 3,
             "constraint violation: oracle cap is n=20, got n=21\n"),
            (["enumerate", "--family", "complete", "--n", "29"], 3,
             "constraint violation: enumeration cap is n=28, got n=29\n"),
            (["enumerate", "--family", "complete", "--n", "2000", "--mode", "brute"], 3,
             "constraint violation: enumeration cap is n=28, got n=2000\n"),
            # Usage and family errors keep their precedence over the cap.
            (["enumerate", "--family", "gnp", "--n", "40"], 1,
             "usage error: family gnp requires --p\n"),
            (["verify", "--family", "path", "--n", "40", "--p", "0.5"], 1,
             "usage error: --p only applies to family gnp, not path\n"),
            (["enumerate", "--family", "gnp", "--n", "40", "--p", "1.5"], 3,
             "constraint violation: gnp needs a probability p in [0, 1], got 1.5\n"),
            (["verify", "--family", "star", "--n", "70000"], 3,
             "constraint violation: family 'star' caps at n=65536, got n=70000\n"),
        ],
        ids=["verify-15", "verify-21", "enumerate-29", "enumerate-2000", "gnp-without-p",
             "p-on-path", "gnp-bad-p", "family-ceiling"],
    )
    def test_refused_before_generate(self, capsys, argv, code, err):
        assert run_capture(capsys, argv) == (code, "", err)

    def test_parsed_inputs_are_capped_once_loaded(self, capsys, tmp_path):
        path = tmp_path / "p29.col"
        path.write_text(encode_edge_list(generate("path", 29)))
        assert run_capture(capsys, ["enumerate", "--file", str(path)]) == (
            3, "", "constraint violation: enumeration cap is n=28, got n=29\n"
        )
        p15 = encode_graph6(generate("path", 15))
        assert run_capture(capsys, ["verify", "--graph6", p15]) == (
            3, "", "constraint violation: oracle cap is n=14, got n=15\n"
        )


class TestConnectivityPasses:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--family", "star", "--n", "6"],
            ["analyze", "--family", "gnp", "--n", "9", "--p", "0.2", "--seed", "2", "--components"],
            ["verify", "--family", "path", "--n", "6"],
            ["enumerate", "--family", "star", "--n", "6", "--mode", "both"],
            ["enumerate", "--family", "star", "--n", "6", "--mode", "brute"],
            ["enumerate", "--family", "star", "--n", "6", "--mode", "fast"],
        ],
        ids=lambda argv: "-".join(argv[:1] + argv[-1:]),
    )
    def test_at_most_one_per_command(self, capsys, monkeypatch, argv):
        calls = []
        real = graphs.is_connected
        for module in [m for name, m in sys.modules.items() if name.startswith("stabdim")]:
            if getattr(module, "is_connected", None) is real:
                monkeypatch.setattr(module, "is_connected", lambda g: calls.append(g) or real(g))
        code, _, _ = run_capture(capsys, argv)
        assert code == 0
        assert len(calls) <= 1


class TestFamilyCeiling:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--family", "complete", "--n", "65537"],
            ["analyze", "--family", "path", "--n", "1000000000"],
            ["verify", "--family", "gnp", "--n", "65537", "--p", "0.5", "--components"],
        ],
    )
    def test_huge_family_refused(self, capsys, monkeypatch, argv):
        def no_edges(*args):
            raise AssertionError("edges built despite the ceiling")

        monkeypatch.setattr(graphs, "range", no_edges, raising=False)
        code, out, err = run_capture(capsys, argv)
        n = argv[argv.index("--n") + 1]
        assert (code, out) == (3, "")
        assert err == (
            f"constraint violation: family {argv[2]!r} caps at n=65536, got n={n}\n"
        )

    @pytest.mark.parametrize(
        "argv,code,err",
        [
            (["gen", "--family", "complete", "--n", "63"], 3,
             "constraint violation: graph6 one-byte size form caps at n=62, got n=63\n"),
            (["gen", "--family", "gnp", "--n", "65536", "--p", "0.5"], 3,
             "constraint violation: graph6 one-byte size form caps at n=62, got n=65536\n"),
            (["gen", "--family", "gnp", "--n", "63"], 1, "usage error: family gnp requires --p\n"),
            (["gen", "--family", "gnp", "--n", "63", "--p", "1.5"], 3,
             "constraint violation: gnp needs a probability p in [0, 1], got 1.5\n"),
            (["gen", "--family", "star", "--n", "0"], 3,
             "constraint violation: family 'star' needs n >= 1, got 0\n"),
        ],
    )
    def test_graph6_refused_before_any_edge(self, capsys, monkeypatch, argv, code, err):
        def no_edges(*args):
            raise AssertionError("edges built despite the graph6 size limit")

        monkeypatch.setattr(graphs, "range", no_edges, raising=False)
        assert run_capture(capsys, argv) == (code, "", err)

    def test_graph6_size_boundary(self, capsys):
        code, out, _ = run_capture(capsys, ["gen", "--family", "complete", "--n", "62"])
        assert (code, len(out)) == (0, 1 + 1 + (62 * 61 // 2 + 5) // 6)
        code, out, _ = run_capture(
            capsys, ["gen", "--family", "complete", "--n", "63", "--format", "edge-list"]
        )
        assert (code, out.splitlines()[0]) == (0, "p edge 63 1953")


class TestEdgeListCeiling:
    @pytest.mark.parametrize("extra", [[], ["--components"]])
    def test_huge_vertex_count_refused(self, capsys, tmp_path, extra):
        path = tmp_path / "huge.col"
        path.write_text("p edge 1000000000 0\n")
        code, out, err = run_capture(capsys, ["analyze", "--file", str(path), *extra])
        assert (code, out) == (3, "")
        assert err.startswith("constraint violation: line 1: edge lists cap at n=65536")

    def test_lying_edge_count_is_refused_in_bounded_memory(self, capsys, tmp_path):
        # 8 * m >= n * n declares a dense list, but 30 characters hold no 600M
        # lines: no lookup or bit table is built on the 'p' line's word, only
        # the 0.5 MiB of rows.
        path = tmp_path / "lying.col"
        path.write_text("p edge 65536 600000000\ne 1 2\n")
        tracemalloc.start()
        try:
            code, out, err = run_capture(capsys, ["analyze", "--file", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == "parse error: 'p' line declares 600000000 edges, found 1\n"
        assert peak < 2 * 2**20


class TestByteOrderMark:
    """One leading U+FEFF in a --file edge list is dropped; anywhere else it is text."""

    CANONICAL = encode_edge_list(generate("gnp", 12, 0.4, seed=3))
    LOOSE = "c not the canonical layout\n" + CANONICAL.replace(" ", "  ")

    @staticmethod
    def machine_report(capsys, tmp_path, data: bytes):
        path = tmp_path / "input.col"
        path.write_bytes(data)
        return run_capture(capsys, ["analyze", "--file", str(path), "--format", "machine"])

    @pytest.mark.parametrize("text", [CANONICAL, LOOSE], ids=["canonical", "loose"])
    def test_leading_mark_gives_the_same_report(self, capsys, tmp_path, text):
        plain = self.machine_report(capsys, tmp_path, text.encode())
        marked = self.machine_report(capsys, tmp_path, b"\xef\xbb\xbf" + text.encode())
        assert plain[0] == 0 and json.loads(plain[1])["n"] == 12
        assert marked == plain

    @pytest.mark.parametrize(
        "text,err",
        [
            ("\ufeff\ufeffp edge 2 1\ne 1 2\n", "line 1: unknown line type '\\ufeffp'"),
            ("p edge 2 1\n\ufeffe 1 2\n", "line 2: unknown line type '\\ufeffe'"),
        ],
        ids=["second-mark", "later-line"],
    )
    def test_mark_elsewhere_is_a_parse_error(self, capsys, tmp_path, text, err):
        assert self.machine_report(capsys, tmp_path, text.encode()) == (
            2, "", f"parse error: {err}\n"
        )


class TestLineEnds:
    """A line ends at \\n, \\r\\n or \\r only, as in the bulk reader; the other
    characters that str.splitlines() breaks at are whitespace inside a line."""

    def test_form_feed_inside_a_comment(self, capsys, tmp_path):
        data = b"c page one\fpage two\np edge 2 1\ne 1 2\n"
        assert TestByteOrderMark.machine_report(capsys, tmp_path, data) == run_capture(
            capsys, ["analyze", "--graph6", "A_", "--format", "machine"]
        )

    def test_error_named_at_its_own_line(self, capsys, tmp_path):
        data = b"c one\fc two\np edge 2 2\ne 1 2\ne 1 2\n"
        assert TestByteOrderMark.machine_report(capsys, tmp_path, data) == (
            2, "", "parse error: line 4: duplicate edge (1, 2)\n"
        )


def whole_file_outcome(path):
    """What reading ``path`` whole gives: decode it all as UTF-8 (else refuse
    it with that decode's message), end lines at \\n, \\r\\n or \\r as
    ``open()`` does, drop one leading U+FEFF and parse the text."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        return GraphParseError, f"cannot read {path}: {exc}"
    text = text.replace("\r\n", "\n").replace("\r", "\n").removeprefix("\ufeff")
    return outcome(parse_edge_list, text)


def file_outcome(path):
    """What ``--file`` reads from ``path``, a window at a time."""
    return outcome(cli._read_edge_list, str(path))


# Each turns the text of a list into the bytes of a file.
FILE_LAYOUTS = {
    "lf": str.encode,
    "bom": lambda text: b"\xef\xbb\xbf" + text.encode(),
    "crlf": lambda text: text.replace("\n", "\r\n").encode(),
    "cr": lambda text: text.replace("\n", "\r").encode(),
}


class TestStreamedEdgeList:
    """``--file`` hands the open file to the parser, which reads it a window at
    a time; the graph, or the message, is the one the whole text gives."""

    @given(
        st.integers(2, 120),
        st.sampled_from((0.1, 0.5, 0.9, 1.0)),
        st.sampled_from((None, *MUTATIONS, *VALID_MUTATIONS)),
        st.sampled_from(sorted(FILE_LAYOUTS)),
        st.sampled_from(WINDOW_CHARS),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_file_gives_what_its_whole_text_gives(
        self, tmp_path_factory, n, p, mutate, layout, window_chars, undecodable, data
    ):
        # Dense lists meet the bulk reader, which may decline in any window;
        # sparse ones meet only the line rules. An undecodable byte anywhere
        # is refused with the whole-file decode's message.
        g = generate("gnp", n, p, data.draw(st.integers(0, 2**32)))
        lines = encode_edge_list(g).splitlines()
        i = data.draw(st.integers(1, max(len(lines) - 1, 1)))
        text = mutate(lines, i, n) if mutate and len(lines) > 1 else _joined(lines)
        raw = FILE_LAYOUTS[layout](text)
        if undecodable:
            cut = data.draw(st.integers(0, len(raw)))
            raw = raw[:cut] + b"\xff" + raw[cut:]
        path = tmp_path_factory.mktemp("lists") / "input.col"
        path.write_bytes(raw)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "_WINDOW_CHARS", window_chars)
            assert file_outcome(path) == whole_file_outcome(path)

    @pytest.mark.parametrize("window_chars", WINDOW_CHARS)
    @pytest.mark.parametrize("layout", sorted(FILE_LAYOUTS))
    @pytest.mark.parametrize("fault", ["comment", "duplicate"])
    def test_the_bulk_reader_declines_past_a_window_end(
        self, monkeypatch, tmp_path, fault, layout, window_chars
    ):
        # complete n = 150 is 11175 lines; the last one is past the first
        # window. The bulk reader reads up to it and declines, and the line
        # rules read the body again from the line after 'p'.
        g = generate("complete", 150)
        lines = encode_edge_list(g).splitlines()
        if fault == "comment":
            text, expected = _joined([*lines[:-1], "c note", lines[-1]]), g
        else:
            text = _joined([f"p edge 150 {g.m + 1}", *lines[1:], lines[1]])
            expected = (GraphParseError, f"line {g.m + 2}: duplicate edge (1, 2)")
        path = tmp_path / "input.col"
        path.write_bytes(FILE_LAYOUTS[layout](text))
        monkeypatch.setattr(graphs, "_WINDOW_CHARS", window_chars)
        calls, bulk_rows = [], graphs._bulk_rows
        monkeypatch.setattr(graphs, "_bulk_rows", lambda *args: calls.append(1) or bulk_rows(*args))
        assert file_outcome(path) == expected == whole_file_outcome(path)
        assert len(calls) == 2  # one read of each file, the whole text's among them

    @pytest.mark.parametrize("window_chars", WINDOW_CHARS)
    @pytest.mark.parametrize(
        "head",
        [
            "p edge 2 1\ne 1 1\n",
            f"p edge {EDGE_LIST_MAX_N + 1} 0\n",
            "c one\np edge 3 2\ne 1 2\ne 1\n",
            encode_edge_list(generate("complete", 150)),
        ],
        ids=["self-loop", "over-cap", "short-line", "dense"],
    )
    def test_an_undecodable_byte_outranks_an_earlier_fault(
        self, capsys, monkeypatch, tmp_path, head, window_chars
    ):
        # The bad byte lies 40000 bytes past the head, so the file is
        # decoded up to the head's fault (or, for the dense list, read
        # through the bulk reader) before the byte is met; the refusal and
        # its position are still the whole file's.
        raw = head.encode() + b"c " + b"x" * 40000 + b"\n\xff\n"
        path = tmp_path / "input.col"
        path.write_bytes(raw)
        monkeypatch.setattr(graphs, "_WINDOW_CHARS", window_chars)
        message = (
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff "
            f"in position {len(raw) - 2}: invalid start byte"
        )
        assert file_outcome(path) == (GraphParseError, message) == whole_file_outcome(path)
        assert run_capture(capsys, ["analyze", "--file", str(path)]) == (
            2, "", f"parse error: {message}\n"
        )

    def test_no_read_without_a_size(self, capsys, monkeypatch, tmp_path):
        # A handle whose unbounded read() raises: analyze reads every file in
        # windows, dense or sparse, valid or faulty, also after a byte-order
        # mark and past a decline of the bulk reader.
        class SizedReadsOnly(io.TextIOWrapper):
            def read(self, size=-1):
                if size is None or size < 0:
                    raise AssertionError("read() without a size")
                return super().read(size)

        opened = []

        def opener(file, encoding):
            opened.append(file)
            return SizedReadsOnly(open(file, "rb"), encoding=encoding)

        monkeypatch.setattr(cli, "open", opener, raising=False)
        dense = encode_edge_list(generate("complete", 150))
        texts = {
            "dense": dense,
            "bom": "\ufeff" + dense,
            "sparse": encode_edge_list(generate("tree", 3000, seed=1)),
            "declined": dense + "c note\n",
            "faulty": dense.replace("p edge 150 11175", "p edge 150 11176") + "e 1 2\n",
        }
        for name, text in texts.items():
            path = tmp_path / f"{name}.col"
            path.write_text(text, encoding="utf-8")
            code, _, err = run_capture(capsys, ["analyze", "--file", str(path), "--format", "machine"])
            assert (code, err) == ((2, "parse error: line 11177: duplicate edge (1, 2)\n")
                                   if name == "faulty" else (0, ""))
        assert opened == [str(tmp_path / f"{name}.col") for name in texts]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("tail", [b"", b"e 1 2\n\xff\n"], ids=["valid", "undecodable"])
    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_a_pipe_is_read_whole(self, capsys, tmp_path, mark, tail):
        # A pipe can neither seek back past a byte-order mark nor be decoded
        # twice, so it is read whole: the same report, or the same refusal,
        # with the bad byte 100 KB in, as the file with its bytes.
        raw = mark + encode_edge_list(generate("complete", 150)).encode() + tail
        path, fifo = tmp_path / "input.col", tmp_path / "input.fifo"
        path.write_bytes(raw)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(raw,), daemon=True)
        writer.start()
        piped = run_capture(capsys, ["analyze", "--file", str(fifo), "--format", "machine"])
        writer.join(timeout=30)
        assert not writer.is_alive()
        filed = run_capture(capsys, ["analyze", "--file", str(path), "--format", "machine"])
        assert piped == (filed[0], filed[1], filed[2].replace(str(path), str(fifo)))
        assert piped[0] == (2 if tail else 0)


class TestSelftest:
    def test_passes(self, capsys):
        assert run_capture(capsys, ["selftest"]) == (0, "".join(
            f"ok - {label}\n" for label in (
                "2-qubit graph state has stabilizer dimension 3",
                "2-qubit generators are X(0)-Z(1), X(1)-Z(0), Y(0)-Y(1)",
                "7-vertex star has dimension n-1 = 6",
                "5-cycle has dimension 0 and no weight-<=2 elements",
            )
        ), "")

    def test_a_failed_check_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "detect_configurations", lambda g: [])
        code, out, err = run_capture(capsys, ["selftest"])
        assert (code, err) == (4, "")
        assert [line for line in out.splitlines() if not line.startswith("ok - ")] == [
            "FAIL - 2-qubit generators are X(0)-Z(1), X(1)-Z(0), Y(0)-Y(1)"
        ]
        assert out.count("ok - ") == 3

    def test_brute_fast_disagreement_writes_nothing(self, capsys, monkeypatch):
        # The element lists meet the same gate as in enumerate, before any row.
        real = cli.low_weight_elements
        monkeypatch.setattr(
            cli, "low_weight_elements",
            lambda g, mode: [] if mode == "fast" else real(g, mode=mode),
        )
        assert run_capture(capsys, ["selftest"]) == (
            4,
            "",
            "internal consistency failure: brute and fast enumerations disagree "
            "(brute=3 fast=0 graph6=A_)\n",
        )

    def test_writes_nothing_before_a_later_fault(self, capsys, monkeypatch):
        # Only the 7-star, whose checks follow K2's four, meets the faulty oracle.
        real = oracle.local_algebra_nullity
        monkeypatch.setattr(oracle, "local_algebra_nullity", lambda g: 99 if g.n == 7 else real(g))
        assert run_capture(capsys, ["selftest"]) == (
            4,
            "",
            "internal consistency failure: oracle nullity 99 != dimension 6 "
            "(dimension=6 g2=6 oracle_nullity=99 graph6=FsaC?)\n",
        )


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],  # no source
            ["analyze", "--graph6", "A_", "--family", "star", "--n", "3"],  # two sources
            ["analyze", "--family", "star"],  # missing --n
            ["analyze", "--family", "gnp", "--n", "4"],  # gnp without p
            ["analyze", "--family", "path", "--n", "4", "--p", "0.5"],  # p on non-gnp
            ["gen"],  # gen without family
            ["frobnicate"],  # unknown subcommand
            ["analyze", "--graph6", "A_", "--bogus"],  # unknown flag
            [],  # no subcommand
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run_capture(capsys, argv)
        assert code == 1
        assert err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--graph6", "A"],  # truncated graph6
            ["analyze", "--graph6", chr(126) + "AAA_"],  # multi-byte form
        ],
    )
    def test_parse_errors(self, capsys, argv):
        code, _, err = run_capture(capsys, argv)
        assert code == 2
        assert "parse error" in err

    def test_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.col"
        path.write_text("p edge 2 1\ne 1 1\n", encoding="utf-8")
        code, _, _ = run_capture(capsys, ["analyze", "--file", str(path)])
        assert code == 2
        code, _, _ = run_capture(capsys, ["analyze", "--file", str(tmp_path / "missing.col")])
        assert code == 2
        undecodable = tmp_path / "bytes.col"
        undecodable.write_bytes(b"p edge 2 1\ne 1 2\n\xff\n")
        code, out, err = run_capture(capsys, ["analyze", "--file", str(undecodable)])
        assert (code, out) == (2, "")
        assert err.startswith("parse error: cannot read")

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "--file", "fan.edges"], ["verify", "--graph6", "A_"]],
        ids=["file", "graph6"],
    )
    def test_out_of_memory_is_a_constraint_violation(self, capsys, monkeypatch, argv):
        # A reader that runs out of memory exits 3 with one line, not a traceback.
        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr(cli, "_read_edge_list", exhausted)
        monkeypatch.setattr(cli, "parse_graph6", exhausted)
        assert run_capture(capsys, argv) == (3, "", "constraint violation: out of memory\n")

    def test_unknown_report_mode(self):
        g = generate("star", 3)
        with pytest.raises(ValueError, match=r"^unknown report mode 'json'$"):
            format_report(g, analyze(g), None, "family star(n=3)", False, mode="json")

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()


class TestGrammar:
    """The command line reads as argparse read it, with its wording for each fault."""

    MACHINE = ["analyze", "--graph6", "A_", "--format", "machine"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--graph6=A_", "--format=machine"],
            ["analyze", "--graph6=A_", "--form", "machine"],
            ["analyze", "--g", "A_", "--fo=machine"],
            ["analyze", "--graph6", "B_", "--graph6", "A_",
             "--format", "text", "--format", "machine"],
        ],
        ids=["equals", "prefix", "prefix-equals", "last-wins"],
    )
    def test_forms_give_the_same_bytes(self, capsys, argv):
        expected = run_capture(capsys, self.MACHINE)
        assert expected[0] == 0
        assert run_capture(capsys, argv) == expected

    def test_explicit_marker_is_a_value(self, capsys):
        # argparse dropped an explicit "--" and failed on the empty value it left.
        assert run_capture(capsys, ["analyze", "--graph6=--"])[0] == 2
        assert run_capture(capsys, ["analyze", "--n=--"]) == (
            1, "", "usage error: argument --n: invalid int value: '--'\n"
        )

    def test_negative_number_is_a_value(self, capsys):
        argv = ["gen", "--family", "tree", "--n", "6"]
        code, out, err = run_capture(capsys, [*argv, "--seed", "-5"])
        assert (code, err) == (0, "")
        assert run_capture(capsys, [*argv, "--seed=-5"]) == (0, out, "")

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["analyze", "--f", "x"],
             "ambiguous option: --f could match --file, --family, --format"),
            (["analyze", "--graph6", "-x"], "argument --graph6: expected one argument"),
            (["analyze", "--graph6"], "argument --graph6: expected one argument"),
            (["analyze", "--graph6", "A_", "--components=1"],
             "argument --components: ignored explicit argument '1'"),
            (["analyze", "--graph6", "A_", "extra"], "unrecognized arguments: extra"),
            (["--bogus", "analyze", "--graph6", "A_", "extra"],
             "unrecognized arguments: --bogus extra"),
            (["analyze", "--graph6", "A_", "--format", "json"],
             "argument --format: invalid choice: 'json' (choose from 'text', 'machine')"),
            (["enumerate", "--graph6", "A_", "--mode", "all"],
             "argument --mode: invalid choice: 'all' (choose from 'brute', 'fast', 'both')"),
            (["frobnicate"],
             "argument command: invalid choice: 'frobnicate' "
             "(choose from 'analyze', 'verify', 'enumerate', 'gen', 'selftest')"),
            (["analyze", "--n", "x"], "argument --n: invalid int value: 'x'"),
            (["analyze", "--family", "gnp", "--n", "4", "--p=x"],
             "argument --p: invalid float value: 'x'"),
            ([], "the following arguments are required: command"),
            (["analyze", "--format", "json", "--help"],
             "argument --format: invalid choice: 'json' (choose from 'text', 'machine')"),
            (["analyze", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
            (["analyze", "--graph6", "A_", "--", "--format", "machine"],
             "unrecognized arguments: -- --format machine"),
            (["--", "analyze"],
             "argument command: invalid choice: '--' "
             "(choose from 'analyze', 'verify', 'enumerate', 'gen', 'selftest')"),
        ],
        ids=[
            "ambiguous", "dash-value", "no-value", "flag-value", "stray", "stray-before-command",
            "choice", "mode-choice", "command", "int", "float", "nothing", "error-before-help",
            "help-with-text", "after-marker", "marker-as-command",
        ],
    )
    def test_faults(self, capsys, argv, err):
        assert run_capture(capsys, argv) == (1, "", f"usage error: {err}\n")

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["-h"], ["analyze", "--bogus", "-h"], ["gen", "extra", "--he"]],
        ids=["help", "h", "after-stray-option", "prefix-after-stray-word"],
    )
    def test_help_before_any_fault(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: stabdim")

    def test_top_level_help(self, capsys):
        code, out, _ = run_capture(capsys, ["--help"])
        assert code == 0
        assert cli.__doc__ in out
        commands = out.split("\ncommands:\n")[1].splitlines()
        assert [line.split()[0] for line in commands] == list(cli.COMMANDS)
        assert "  74 " in out and "  141 " in out

    @pytest.mark.parametrize("command", ["analyze", "verify", "enumerate", "gen", "selftest"])
    def test_command_help_lists_the_table(self, capsys, command):
        code, out, _ = run_capture(capsys, [command, "--help"])
        assert code == 0
        assert out.startswith(f"usage: stabdim {command} ")
        rows = out.split("\noptions:\n")[1].splitlines()
        assert [row.split()[0] for row in rows] == ["-h,", *cli.COMMANDS[command][2]]
        for row, (kind, default, _) in zip(rows[1:], cli.COMMANDS[command][2].values()):
            if isinstance(kind, tuple):
                assert "{" + ",".join(kind) + "}" in row
            if default is not None and default is not False:
                assert row.endswith(f"(default: {default})")


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
# The two ways a process reaches cli.main: the module, and the installed script's call.
ENTRIES = {"module": ["-m", "stabdim.cli"], "main": ["-c", "from stabdim.cli import main; main()"]}


def run_process(args, **kwargs):
    """``python <args>`` with stabdim importable, stdout and stderr piped unless
    ``kwargs`` says otherwise."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)


class TestClosedPipe:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--family", "complete", "--n", "2000", "--format", "edge-list"],
            ["enumerate", "--family", "star", "--n", "200", "--mode", "fast"],
        ],
        ids=["gen", "enumerate"],
    )
    def test_exits_141_without_a_traceback(self, argv):
        # As `stabdim ... | head -n 1`: the reader takes one line and closes the
        # pipe while the writer still has megabytes to write.
        proc = subprocess.Popen(
            [sys.executable, *ENTRIES["main"], *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")


class TestWriteErrors:
    """A failed write or flush exits 74 (EX_IOERR) with one stderr line."""

    @staticmethod
    def run_cli(argv, **kwargs):
        return run_process([*ENTRIES["module"], *argv], **kwargs)

    def test_closed_stdout(self):
        # As `stabdim analyze --graph6 A_ >&-`: fd 1 is closed before the
        # interpreter starts, so sys.stdout is None.
        proc = self.run_cli(["analyze", "--graph6", "A_"], preexec_fn=lambda: os.close(1))
        expected = f"output error: {os.strerror(errno.EBADF)}\n".encode()
        assert (proc.returncode, proc.stderr) == (74, expected)

    def test_closed_stdout_keeps_a_usage_error(self):
        # Nothing is written, so nothing fails to be.
        proc = self.run_cli(["analyze"], preexec_fn=lambda: os.close(1))
        assert proc.returncode == 1
        assert proc.stderr.startswith(b"usage error: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--family", "path", "--n", "3"],
            ["analyze", "--family", "star", "--n", "3000", "--format", "machine"],
        ],
        ids=["gen", "analyze"],
    )
    def test_full_device(self, argv):
        # gen's one line fails at the final flush, analyze's report on a write.
        with open("/dev/full", "wb") as full:
            proc = self.run_cli(argv, stdout=full)
        expected = f"output error: {os.strerror(errno.ENOSPC)}\n".encode()
        assert (proc.returncode, proc.stderr) == (74, expected)


class TestFailureLine:
    """A failure line goes to stderr or nowhere: never to stdout, and a failed
    write of it leaves the failure's own exit code."""

    def test_closed_stderr(self):
        # As `stabdim analyze --graph6 '~~~' 2>&-`: sys.stderr is None.
        argv = [*ENTRIES["module"], "analyze", "--graph6", "~~~"]
        proc = run_process(argv, preexec_fn=lambda: os.close(2))
        assert (proc.returncode, proc.stdout) == (2, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv,code",
        [(["analyze", "--graph6", "~~~"], 2), (["verify", "--graph6", "NOhFqXSLQGtjY{rCWwO"], 3)],
        ids=["parse", "constraint"],
    )
    def test_full_stderr(self, argv, code):
        with open("/dev/full", "wb") as full:
            proc = run_process([*ENTRIES["module"], *argv], stderr=full)
        assert (proc.returncode, proc.stdout) == (code, b"")


class TestProcessExit:
    """main ends the process once its output is flushed, with the bytes and
    exit code that run gives in-process. A process that a tracer, profiler or
    ``python -i`` observes exits normally, so their exit-time work still runs."""

    MACHINE = ["analyze", "--graph6", "A_", "--format", "machine"]

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["analyze", "--family", "star", "--n", "9"], 0),
            (["gen", "--family", "gnp", "--n", "60", "--p", "0.5", "--format", "edge-list"], 0),
            (["analyze", "--graph6", "A_", "--bogus"], 1),
            (["analyze", "--graph6", "~~~"], 2),
            (["verify", "--graph6", "NOhFqXSLQGtjY{rCWwO"], 3),
        ],
        ids=["analyze", "gen", "usage", "parse", "constraint"],
    )
    def test_exit_code_and_bytes_match_run(self, capsys, entry, argv, code):
        expected = run_capture(capsys, argv)
        assert expected[0] == code
        proc = run_process([*ENTRIES[entry], *argv])
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, expected[1].encode(), expected[2].encode()
        )

    def test_consistency_failure_exits_4(self):
        # Each command's routes meet the one gate before anything is written.
        wrapper = (
            "from stabdim import cli\n"
            "def disagree(*args, **kwargs):\n"
            "    raise cli.ConsistencyError('routes disagree')\n"
            "cli.check_routes = disagree\n"
            "cli.main()"
        )
        for argv in (self.MACHINE, ["enumerate", "--graph6", "A_"], ["selftest"]):
            proc = run_process(["-c", wrapper, *argv])
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                4, b"", b"internal consistency failure: routes disagree\n"
            ), argv

    def test_profiled_process_prints_its_stats(self, capsys):
        _, report, _ = run_capture(capsys, self.MACHINE)
        proc = run_process(["-m", "cProfile", *ENTRIES["module"], *self.MACHINE])
        out = proc.stdout.decode()
        assert out.startswith(report)
        assert "function calls" in out[len(report):]

    @pytest.mark.parametrize(
        "observer,options", [("", []), ("sys.settrace(lambda *args: None)\n", []), ("", ["-i"])],
        ids=["none", "settrace", "inspect"],
    )
    def test_atexit_handlers_run_only_when_observed(self, capsys, observer, options):
        _, report, _ = run_capture(capsys, self.MACHINE)
        wrapper = (
            "import atexit, sys\n"
            f"{observer}"
            "atexit.register(print, 'atexit ran')\n"
            "from stabdim.cli import main\n"
            "main()"
        )
        proc = run_process([*options, "-c", wrapper, *self.MACHINE], stdin=subprocess.DEVNULL)
        out = proc.stdout.decode()
        assert (proc.returncode, out.startswith(report)) == (0, True)
        assert out.endswith("atexit ran\n") == bool(observer or options)

    def test_main_exits_with_the_code_once_stdout_is_flushed(self, monkeypatch):
        events = []

        class Stdout(io.StringIO):
            def flush(self):
                events.append(("flush", self.getvalue()))

        class Exited(Exception):
            pass

        def exit_now(code):
            events.append(("exit", code))
            raise Exited

        monkeypatch.setattr(sys, "stdout", Stdout())
        monkeypatch.setattr(cli, "_observed", lambda: False)
        monkeypatch.setattr(cli.os, "_exit", exit_now)
        with pytest.raises(Exited):
            cli.main(self.MACHINE)
        report = sys.stdout.getvalue()
        assert report.startswith('{"n":2,')
        assert events[-2:] == [("flush", report), ("exit", 0)]


class TestStreamedReport:
    # Building the star's 44551 pairs as records and the report as one string
    # peaks near 9 MB (machine) and 12 MB (text); one class head's chunk and one
    # 64 KiB block stay well under 1 MiB. The digests are the bytes the report
    # had when it was built from the pair list.
    @pytest.mark.parametrize(
        "mode,digest",
        [
            ("machine", "0976a9a747c45abaf667468bf068405fad8cd80e4d2653e8ae93204c95c8f823"),
            ("text", "6a058f9656b879dc35217386460841e88bc08c8a9e3697137700dc0ff242aa18"),
        ],
        ids=["machine", "text"],
    )
    def test_star_report_is_written_a_class_head_at_a_time(self, monkeypatch, mode, digest):
        class Sink(io.TextIOBase):
            sha = hashlib.sha256()

            def write(self, text):
                self.sha.update(text.encode())
                return len(text)

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = run(["analyze", "--family", "star", "--n", "300", "--format", mode])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2**20
        assert sink.sha.hexdigest() == digest


class TestReportMatchesReference:
    """``format_report`` gives the reference's bytes, in both modes."""

    @staticmethod
    def assert_same(g, nullity, components):
        a = analyze(g)
        for mode in ("text", "machine"):
            got = "".join(cli.format_report(g, a, nullity, "graph6 G", components, mode))
            assert got == reference_report(g, a, nullity, "graph6 G", components, mode)

    @given(graphs_strategy(max_n=10), st.booleans(), st.booleans())
    @settings(max_examples=150)
    def test_random_graphs(self, g, with_oracle, components):
        # Past check_routes a given nullity is the graph's own; a wrong one exits 4
        # before format_report runs (TestRouteFaults).
        nullity = oracle.local_algebra_nullity(g) if with_oracle else None
        self.assert_same(g, nullity, components)

    @pytest.mark.parametrize(
        "n,edges",
        [
            (5, [(0, 1)]),  # one edge and three isolated vertices
            (4, [(0, 1), (2, 3)]),
            (6, [(0, 1), (2, 3), (3, 4)]),  # plus an isolated vertex
            (8, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)]),
            (3, []),
        ],
    )
    def test_components(self, n, edges):
        g = Graph.from_edges(n, edges)
        for nullity in (None, oracle.local_algebra_nullity(g)):
            self.assert_same(g, nullity, True)

    def test_two_qubit_boundary(self):
        g = generate("complete", 2)
        for nullity in (None, 3):
            self.assert_same(g, nullity, False)
        assert "theorem_holds: no (expected boundary for n = 2)\n" in "".join(
            cli.format_report(g, analyze(g), None, "graph6 A_", False)
        )

    @pytest.mark.parametrize("family,p", [("complete", None), ("star", None), ("gnp", 0.9)])
    def test_dense_graphs(self, family, p):
        self.assert_same(generate(family, 60, p=p, seed=1), None, False)
