import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import essentia
from essentia import cli, exact, serialize
from essentia.cli import _build_parser, _check_jobs, run
from essentia.detection import DEFAULT_SIZE_CAP, detect
from essentia.errors import InputError, ResourceCapError
from essentia.graphs import MAX_VERTICES, Graph
from essentia.lab import gen_dfvs_gadget, gen_gnp, gen_matching_apex, gen_star_multicut
from essentia.lp import solve
from essentia.problems import Instance, Problem
from essentia.rounding import round_multicut

from conftest import random_instance, record_pivots


class TestRationals:
    def test_format_always_carries_the_denominator(self):
        assert serialize.rat_str(F(3)) == "3/1"
        assert serialize.rat_str(F(9, 5)) == "9/5"

    def test_parse_accepts_both_shapes(self):
        assert serialize.parse_rat("7/2") == F(7, 2)
        assert serialize.parse_rat("4") == F(4)
        assert serialize.parse_rat(3) == F(3)

    def test_parse_rejects_garbage(self):
        for bad in ("", "a/b", "1/0", "1.5", None, True, False):
            with pytest.raises(InputError):
                serialize.parse_rat(bad)

    @pytest.mark.parametrize("threshold", [False, True])
    def test_boolean_threshold_refused(self, threshold):
        data = {"lp_values": {"0": "1/2"}, "selected": [], "threshold": threshold}
        assert serialize.detection_result_from_dict({**data, "threshold": "1/2"}, 1).threshold_used == F(1, 2)
        with pytest.raises(InputError, match=r"^expected a rational string, got "):
            serialize.detection_result_from_dict(data, 1)

    def test_missing_threshold_is_a_shape_error(self):
        # the writer always emits the key, so a certificate without it is
        # malformed, never read as threshold 0
        data = {"lp_values": {"0": "1/2"}, "selected": [0]}
        with pytest.raises(InputError, match=r"^detection result: missing key 'threshold'$"):
            serialize.detection_result_from_dict(data, 1)

    @pytest.mark.parametrize("key", ["2", "-1", "01", "x"])
    def test_lp_value_for_no_vertex_is_refused(self, key):
        # a certificate for a larger instance must not pass for this one
        data = {"lp_values": {"0": "1/2", "1": "0/1"}, "selected": [], "threshold": "1/1"}
        assert serialize.detection_result_from_dict(data, 2).lp_values == (F(1, 2), F(0))
        data["lp_values"][key] = "1/1"
        message = f"^detection result: lp value for '{key}', not a vertex \\(n=2\\)$"
        with pytest.raises(InputError, match=message):
            serialize.detection_result_from_dict(data, 2)


class TestInstanceJson:
    def test_round_trip_preserves_structure(self):
        for labeled in (gen_star_multicut(5), gen_matching_apex(4)):
            text = serialize.dumps_instance(labeled.instance, labeled.labels)
            again = serialize.loads_instance(text)
            assert again == labeled.instance

    def test_labels_are_optional_and_ignored(self):
        inst = gen_star_multicut(3).instance
        data = serialize.instance_to_dict(inst, {"center": (0,)})
        assert serialize.instance_from_dict(data) == inst

    def test_position_precise_edge_errors(self):
        data = serialize.instance_to_dict(gen_star_multicut(3).instance)
        data["edges"][1] = [0, 99]
        with pytest.raises(InputError, match=r"edges\[1\].*out of range"):
            serialize.instance_from_dict(data)

    @pytest.mark.parametrize(
        "key, item, match",
        [
            ("edges", [0, True], r"^edges\[1\]: vertex ids must be ints"),
            ("edges", [0, 1.5], r"^edges\[1\]: vertex ids must be ints"),
            ("edges", [0, 1, 2], r"^edges\[1\]: expected a pair of vertices, got \[0, 1, 2\]$"),
            ("terminals", [1, "2"], r"^terminals\[1\]: vertex ids must be ints"),
            ("terminals", [1, 9], r"^terminals\[1\]: vertex out of range"),
        ],
    )
    def test_pairs_are_checked_by_graph_and_instance(self, key, item, match):
        data = serialize.instance_to_dict(gen_star_multicut(3).instance)
        data[key][1] = item
        with pytest.raises(InputError, match=match):
            serialize.instance_from_dict(data)

    def test_unknown_problem_tag(self):
        with pytest.raises(InputError, match="unknown problem tag"):
            serialize.instance_from_dict(
                {"problem": "nope", "directed": False, "n": 1, "edges": [], "terminals": []}
            )

    def test_directed_flag_must_match(self):
        with pytest.raises(InputError, match=r"^dfvs requires a directed graph$"):
            serialize.instance_from_dict(
                {"problem": "dfvs", "directed": False, "n": 2, "edges": [], "terminals": []}
            )

    def test_malformed_json_reported(self):
        with pytest.raises(InputError, match="malformed JSON"):
            serialize.loads_instance("{nope")


class TestDimacs:
    def test_undirected_import(self):
        text = "c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
        inst = serialize.parse_dimacs_edges(text, Problem.COGRAPH_DELETION)
        assert inst.graph.edges == ((0, 1), (1, 2), (2, 3))

    def test_directed_import(self):
        text = "p edge 3 3\ne 1 2\ne 2 3\ne 3 1\n"
        inst = serialize.parse_dimacs_edges(text, Problem.DFVS)
        assert inst.graph.directed and len(inst.graph.edges) == 3

    def test_rejects_terminal_problems_and_bad_lines(self):
        with pytest.raises(InputError):
            serialize.parse_dimacs_edges("p edge 2 0\n", Problem.VERTEX_MULTICUT)
        with pytest.raises(InputError, match="line 1"):
            serialize.parse_dimacs_edges("q edge 2 0\n", Problem.VERTEX_COVER)
        with pytest.raises(InputError, match="line 2"):
            serialize.parse_dimacs_edges("p edge 2 1\ne 1 5\n", Problem.VERTEX_COVER)


def _no_floats(value):
    if isinstance(value, float):
        return False
    if isinstance(value, dict):
        return all(_no_floats(v) for v in value.values())
    if isinstance(value, list):
        return all(_no_floats(v) for v in value)
    return True


# not UTF-8: the byte 0x80 cannot start a character
NOT_UTF8 = b'{"problem": ' + bytes(range(0x80, 0x100))


class TestCli:
    def write_star(self, tmp_path, m=6):
        path = tmp_path / "star.json"
        path.write_text(serialize.dumps_instance(gen_star_multicut(m).instance))
        return str(path)

    def test_detect_matches_reference_output(self, tmp_path, capsys):
        path = self.write_star(tmp_path)
        assert run(["detect", "--k", "1", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["selected"] == [0]
        assert data["lp_values"]["0"] == "3/1"
        assert _no_floats(data)

    def test_gap_pinned_apex(self, tmp_path, capsys):
        path = tmp_path / "ma.json"
        path.write_text(serialize.dumps_instance(gen_matching_apex(10).instance))
        assert run(["gap", "--pin", "0", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ratio"] == "9/5"
        assert _no_floats(data)

    def test_solve_obstacle_free(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        inst = Instance(Problem.VERTEX_COVER, Graph(3, False, []))
        path.write_text(serialize.dumps_instance(inst))
        assert run(["solve", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"opt": 0, "solution": []}

    def test_reduce_and_convert_and_generate(self, tmp_path, capsys):
        path = self.write_star(tmp_path)
        assert run(["reduce", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["opt"] == 1 and data["solution"] == [0]

        tri = tmp_path / "tri.json"
        tri.write_text(
            serialize.dumps_instance(
                Instance(Problem.DFVS, Graph(3, True, [(0, 1), (1, 2), (2, 0)]))
            )
        )
        assert run(["convert", "--to", "directed-vertex-multicut", str(tri)]) == 0
        converted = serialize.loads_instance(capsys.readouterr().out)
        assert converted.problem is Problem.DIRECTED_VERTEX_MULTICUT

        assert run(["generate", "--family", "matching-apex", "--m", "3"]) == 0
        generated = capsys.readouterr().out
        assert serialize.loads_instance(generated) == gen_matching_apex(3).instance
        assert json.loads(generated)["labels"]["apex"] == [0]

    def test_generate_gadget_from_base(self, tmp_path, capsys):
        tri = tmp_path / "tri.json"
        tri.write_text(
            serialize.dumps_instance(
                Instance(Problem.DFVS, Graph(3, True, [(0, 1), (1, 2), (2, 0)]))
            )
        )
        assert run(["generate", "--family", "dfvs-gadget", "--base", str(tri), "--eps", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["labels"]["Q_in"] and data["problem"] == "dfvs"

    def test_gap_csv_row(self, tmp_path, capsys):
        path = self.write_star(tmp_path)
        assert run(["gap", "--pin", "0", "--csv", "--id", "s6", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["id,n,fractional,integral,ratio", "s6,7,3/1,5,5/3"]

    def test_dimacs_import_via_flag(self, tmp_path, capsys):
        path = tmp_path / "g.col"
        path.write_text("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
        assert run(["solve", "--format", "dimacs-edges", "--problem", "vertex-cover", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["opt"] == 2

    def test_input_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run(["solve", str(bad)]) == 1
        assert run(["solve", str(tmp_path / "missing.json")]) == 1
        assert run(["detect", self.write_star(tmp_path)]) == 1  # neither --k nor --c

    def test_non_utf8_file_is_an_input_error(self, tmp_path, capsys):
        # an instance or a certificate file that is not UTF-8 text
        bad = tmp_path / "bad.json"
        bad.write_bytes(NOT_UTF8)
        assert run(["solve", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")
        assert run(["verify", "--kind", "rounding", self.write_star(tmp_path, m=3), str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")

    def test_non_utf8_stdin_is_an_input_error(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
        assert run(["solve", "-"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read -: ")

    def test_resource_cap_exit_code(self, tmp_path):
        path = self.write_star(tmp_path, m=8)
        assert run(["solve", "--forbid", "0", "--node-cap", "1", path]) == 2

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["solve", "{huge}"], 10**8),
            (["generate", "--family", "gnp", "--n", "100000000"], 10**8),
            (["generate", "--family", "star", "--m", "100000000"], 10**8 + 1),
        ],
        ids=["solve", "gnp", "star"],
    )
    def test_huge_vertex_count_exits_2_at_once(self, tmp_path, capsys, argv, count):
        # refused before anything is allocated per vertex or per pair
        huge = tmp_path / "huge.json"
        huge.write_text('{"problem": "vertex-cover", "directed": false, "n": 100000000, "edges": []}\n')
        argv = [arg.format(huge=huge) for arg in argv]
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err == f"resource cap exceeded: vertex count {count} exceeds the cap of {MAX_VERTICES}\n"

    def test_negative_node_cap_exits_1(self, tmp_path, capsys):
        assert run(["solve", "--node-cap", "-1", self.write_star(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: node_cap must be a nonnegative int, got -1\n"

    def test_negative_size_cap_exits_1(self, tmp_path, capsys):
        assert run(["detect", "--c", "2", "--size-cap", "-1", self.write_star(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: size_cap must be a nonnegative int, got -1\n"

    def test_detect_exact_ground_truth_mode(self, tmp_path, capsys):
        path = self.write_star(tmp_path, m=5)
        assert run(["detect", "--c", "3/1", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"essential": [0], "c": "3/1"}

    def test_verify_rounding_certificate(self, tmp_path, capsys):
        inst = gen_star_multicut(5).instance
        path = tmp_path / "star.json"
        path.write_text(serialize.dumps_instance(inst))
        x = solve(inst, 0)
        cert = round_multicut(inst, 0, x)
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(serialize.rounding_certificate_to_dict(cert)))
        assert run(["verify", "--kind", "rounding", str(path), str(cert_path)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

        broken = serialize.rounding_certificate_to_dict(cert)
        broken["integral_set"] = [0]  # claims the pinned vertex itself
        cert_path.write_text(json.dumps(broken))
        assert run(["verify", "--kind", "rounding", str(path), str(cert_path)]) == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False

    def test_verify_detection_result(self, tmp_path, capsys):
        from essentia.detection import detect

        inst = gen_star_multicut(5).instance
        path = tmp_path / "star.json"
        path.write_text(serialize.dumps_instance(inst))
        result = detect(inst, 1)
        cert_path = tmp_path / "det.json"
        cert_path.write_text(json.dumps(serialize.detection_result_to_dict(result)))
        assert run(["verify", "--kind", "detection", "--k", "1", str(path), str(cert_path)]) == 0

        tampered = serialize.detection_result_to_dict(result)
        tampered["lp_values"]["0"] = "1/1"
        tampered["selected"] = []
        cert_path.write_text(json.dumps(tampered))
        assert run(["verify", "--kind", "detection", "--k", "1", str(path), str(cert_path)]) == 1

    def test_verify_detection_refuses_a_selection_its_threshold_contradicts(self, tmp_path, capsys):
        from essentia.detection import detect

        path = self.write_star(tmp_path, m=5)
        claimed = serialize.detection_result_to_dict(detect(gen_star_multicut(5).instance, 1))
        claimed["selected"] = [0, 1]  # f_1 = 1 does not exceed the threshold 1
        cert_path = tmp_path / "det.json"
        cert_path.write_text(json.dumps(claimed))
        assert run(["verify", "--kind", "detection", "--k", "1", path, str(cert_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: selected set does not match the value threshold\n"

    def test_verify_detection_checks_the_selection_against_k(self, tmp_path, capsys):
        from essentia.detection import detect

        path = self.write_star(tmp_path, m=4)
        cert_path = tmp_path / "det.json"
        # f_0 = 2: consistent with its own threshold 2, but k = 1 selects the center
        result = detect(gen_star_multicut(4).instance, 2)
        assert result.selected == frozenset()
        cert_path.write_text(json.dumps(serialize.detection_result_to_dict(result)))
        assert run(["verify", "--kind", "detection", "--k", "1", path, str(cert_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["checks"] == {
            "lp_values_match": True,
            "selected_matches_threshold": False,
            "selected_matches_recomputation": False,
        }

    @pytest.mark.parametrize(
        "kind, certificate",
        [
            ("rounding", "5"),
            ("detection", "5"),
            ("detection", '{"lp_values": 5, "selected": []}'),
            ("detection", '{"lp_values": "0/1 2", "selected": []}'),
        ],
    )
    def test_verify_malformed_certificate_is_an_input_error(
        self, tmp_path, capsys, kind, certificate
    ):
        path = self.write_star(tmp_path, m=3)
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(certificate)
        assert run(["verify", "--kind", kind, "--k", "1", path, str(cert_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "document, key, raw",
        [
            ("instance", "n", "1" + "0" * 5000),
            ("instance", "edges", "[" * 100_000 + "]" * 100_000),
            ("certificate", "pinned_vertex", "1" + "0" * 5000),
        ],
        ids=["huge-int", "deep-nesting", "huge-int-certificate"],
    )
    def test_json_past_the_readers_limits_is_malformed(self, tmp_path, document, key, raw):
        # Python's JSON reader raises ValueError on an integer past its
        # digit limit and RecursionError on deep nesting; both are bad input
        docs = {
            "instance": serialize.instance_to_dict(gen_star_multicut(3).instance),
            "certificate": {
                "factor_bound": "2/1", "fractional_value": "1/1", "integral_set": [0],
                "witness_sets": {}, "pinned_vertex": 0,
            },
        }
        docs[document][key] = "@"
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc).replace('"@"', raw))
        argv = ["solve", str(tmp_path / "instance.json")]
        if document == "certificate":
            argv[0:1] = ["verify", "--kind", "rounding"]
            argv.append(str(tmp_path / "certificate.json"))
        src = Path(essentia.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "essentia.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: malformed ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "terminals", [5, True, 0, False, {}, "xy"], ids=["5", "true", "0", "false", "object", "xy"]
    )
    def test_non_list_terminals_are_an_input_error(self, tmp_path, capsys, terminals):
        data = serialize.instance_to_dict(gen_star_multicut(3).instance)
        data["terminals"] = terminals
        path = tmp_path / "star.json"
        path.write_text(json.dumps(data))
        assert run(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: instance: 'terminals' must be a list")

    @pytest.mark.parametrize("terminals", [None, "absent", []], ids=["null", "absent", "empty"])
    def test_absent_or_null_terminals_mean_no_pairs(self, terminals):
        data = serialize.instance_to_dict(gen_star_multicut(3).instance)
        if terminals == "absent":
            del data["terminals"]
        else:
            data["terminals"] = terminals
        assert serialize.instance_from_dict(data).terminals == ()

    def test_gap_csv_quotes_a_label_with_a_comma(self, tmp_path, capsys):
        path = self.write_star(tmp_path, m=3)
        assert run(["gap", "--csv", "--id", 'star,3 "pinned"', "--pin", "0", path]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [
            ["id", "n", "fractional", "integral", "ratio"],
            ['star,3 "pinned"', "4", "3/2", "2", "4/3"],
        ]

    def test_gap_pin_out_of_range_is_an_input_error(self, tmp_path, capsys):
        assert run(["gap", "--pin", "99", self.write_star(tmp_path, m=3)]) == 1
        assert capsys.readouterr().err == "error: pinned vertex 99 out of range (n=4)\n"

    def test_size_cap_default_is_the_library_default(self):
        args = _build_parser().parse_args(["detect", "g.json", "--c", "2"])
        assert args.size_cap == DEFAULT_SIZE_CAP

    def test_jobs_flag_accepted(self, tmp_path, capsys):
        path = self.write_star(tmp_path, m=4)
        assert run(["detect", "--k", "1", "--jobs", "2", path]) == 0
        assert json.loads(capsys.readouterr().out)["selected"] == [0]

    def test_out_of_memory_is_the_resource_cap_exit(self, tmp_path, capsys, monkeypatch):
        # a huge "n" raises MemoryError while the graph is built; simulated
        # here, so nothing large is allocated
        def out_of_memory(args):
            raise MemoryError

        monkeypatch.setattr(cli, "_cmd_solve", out_of_memory)
        assert run(["solve", self.write_star(tmp_path, m=4)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "resource cap exceeded: out of memory\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_refused(self, tmp_path, capsys, jobs):
        path = self.write_star(tmp_path, m=4)
        assert run(["detect", "--k", "1", "--jobs", jobs, path]) == 2
        assert "--jobs" in capsys.readouterr().err
        with pytest.raises(ResourceCapError):
            _check_jobs(int(jobs))

    @pytest.mark.parametrize(
        "command",
        [
            "solve",
            "reduce",
            "detect-vertex-cover",
            "detect-cograph",
            "reduce-dfvs-gadget",
            "solve-multicut",
            "solve-vertex-cover",
            "solve-cograph",
        ],
    )
    def test_optimized_mode_matches_in_process(self, tmp_path, capsys, monkeypatch, command):
        # `python -O` strips assert statements; the package's invariants
        # must not rest on them, so its output must not change
        pruned = []  # per packing bound: did the vertex-cover matching prune?
        ranges = []  # the ranges the lexicographic pass asked to meet
        if command in ("reduce-dfvs-gadget", "solve-multicut", "solve-vertex-cover", "solve-cograph"):
            # the one-heap path and cycle search, from many origins at once,
            # exact search's vertex-cover LP bound, ceil(ν/2), and its
            # bitmask scan of cograph's P4s with the second pass's range
            if command == "reduce-dfvs-gadget":
                arcs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)]
                base = Instance(Problem.DFVS, Graph(4, True, arcs))
                inst = gen_dfvs_gadget(base, F(1)).instance
            elif command == "solve-multicut":
                inst = random_instance(Problem.VERTEX_MULTICUT, 14, 5)
            elif command == "solve-cograph":
                # a bench-size cograph instance; the lexicographic pass must
                # insert at least one range into the listed obstacles
                inst = random_instance(Problem.COGRAPH_DELETION, 16, 3)
                completable = exact._Search.completable
                monkeypatch.setattr(
                    exact._Search, "completable", lambda s, *a: ranges.append(a[2]) or completable(s, *a)
                )
            else:
                inst = random_instance(Problem.VERTEX_COVER, 12, 6012)
                matchings = []
                matching, packing_lb = exact._double_cover_mates, exact._Search._packing_lb

                def recorded(search, removed, blocked, need, alive, first):
                    before = len(matchings)
                    lb = packing_lb(search, removed, blocked, need, alive, first)
                    pruned.append(len(matchings) > before and lb >= need)
                    return lb

                monkeypatch.setattr(
                    exact,
                    "_double_cover_mates",
                    lambda g, r, start: matchings.append(r) or matching(g, r, start),
                )
                monkeypatch.setattr(exact._Search, "_packing_lb", recorded)
            path = tmp_path / "g.json"
            path.write_text(serialize.dumps_instance(inst))
            argv = [command.split("-")[0], str(path)]
        elif command.startswith("detect-"):
            path = tmp_path / "g.json"
            if command == "detect-vertex-cover":  # f_v by matching, no LP
                # a star, an edge and an isolated vertex: only the centre has f_v > 2
                inst = Instance(Problem.VERTEX_COVER, Graph(7, False, [(0, 1), (0, 2), (0, 3), (4, 5)]))
            else:
                inst = gen_gnp(8, 0)
            path.write_text(serialize.dumps_instance(inst))
            argv = ["detect", "--k", "2", str(path)]
        else:
            argv = [command, self.write_star(tmp_path, m=4)]
        log = record_pivots(monkeypatch)
        assert run(argv) == 0
        want = json.loads(capsys.readouterr().out)
        if command == "detect-cograph":
            # the kernel's integer-preserving pivots really run: pivot rows
            # are lifted, and rows are divided by a determinant other than p
            assert any(d != D for _, _, D, d, p, dens in log)
            assert any(1 < e != p for _, _, D, d, p, dens in log for e in dens)
        if command == "solve-vertex-cover":
            assert any(pruned)
        if command == "solve-cograph":
            assert ranges
        src = Path(essentia.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "essentia.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == want

    def test_node_cap_environment_variable_is_ignored(self, tmp_path, capsys):
        # settings arrive as arguments only; a stray variable changes nothing
        path = self.write_star(tmp_path, m=4)
        assert run(["solve", path]) == 0
        want = json.loads(capsys.readouterr().out)
        src = Path(essentia.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "ESSENTIA_NODE_CAP": "abc"}
        proc = subprocess.run(
            [sys.executable, "-m", "essentia.cli", "solve", path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == want

    @pytest.mark.parametrize(
        "argv, node_cap, jobs",
        [
            (["solve", "g.json"], True, False),
            (["detect", "g.json"], True, True),
            (["reduce", "g.json"], True, True),
            (["gap", "g.json"], True, False),
            (["generate", "--family", "star"], False, False),
            (["convert", "g.json", "--to", "vertex-cover"], False, False),
            (["verify", "g.json", "c.json", "--kind", "rounding"], False, True),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else str(v),
    )
    def test_flags_declared_only_where_read(self, capsys, argv, node_cap, jobs):
        parser = _build_parser()

        def accepts(extra):
            try:
                parser.parse_args(argv + extra)
            except SystemExit:
                return False
            return True

        assert accepts([])
        assert accepts(["--node-cap", "1000"]) == node_cap
        assert accepts(["--jobs", "2"]) == jobs
        if jobs:
            # refused before the subcommand reads its files
            assert run(argv + ["--jobs", "0"]) == 2
        capsys.readouterr()

    def test_round_trip_via_cli_generate(self, tmp_path, capsys):
        assert run(["generate", "--family", "star", "--m", "7"]) == 0
        text = capsys.readouterr().out
        inst = serialize.loads_instance(text)
        assert inst == gen_star_multicut(7).instance


# odd values a mutated document may hold anywhere
FUZZ_VALUES = (None, True, -1, 0, 41, 2**70, 1.5, "", "1/2", "x", [], [0], [0, 1, 2], {}, {"0": 1})


def _positions(doc, at=()):
    """Every position below the root of a JSON document, as the keys and
    indices down to it."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield at + (key,)
        yield from _positions(value, at + (key,))


@st.composite
def fuzzed_runs(draw):
    """A subcommand's argv over a small valid instance and, for `verify`, a
    detection certificate of it, with one of the two documents mutated up
    to three times (odd types, missing keys, out-of-range ids, odd pairs,
    another n up to 400 or one past the vertex cap) and its text perhaps
    truncated.  Returns (argv without its files, instance text, certificate
    text or None)."""
    problem = draw(st.sampled_from(list(Problem)))
    inst = random_instance(problem, draw(st.integers(3, 7)), draw(st.integers(0, 99)))
    command = draw(st.sampled_from(["solve", "detect", "reduce", "gap", "convert", "verify"]))
    docs = [serialize.instance_to_dict(inst)]
    if command == "verify":
        docs.append(serialize.detection_result_to_dict(detect(inst, 1)))
    doc = docs[draw(st.integers(0, len(docs) - 1))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from(list(_positions(doc))))
        parent = doc
        for key in at[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["value", "drop", "id", "pair", "n"]))
        if kind == "drop" and isinstance(parent, dict):
            del parent[at[-1]]
        elif kind == "n" or at == ("n",):
            small, large = draw(st.integers(-2, 40)), draw(st.integers(41, 400))
            n = draw(st.sampled_from([None, True, 1.5, "4", [], small, large, MAX_VERTICES + 1]))
            if "n" in doc:
                doc["n"] = n
        elif kind == "id":
            parent[at[-1]] = draw(st.sampled_from([-1, inst.n, inst.n + 1, 40, 10**9]))
        elif kind == "pair":
            a, b = draw(st.integers(-1, 8)), draw(st.integers(-1, 8))
            parent[at[-1]] = draw(st.sampled_from([[a], [a, b, a], [a, a], [str(a), b], a, [a, None]]))
        else:
            parent[at[-1]] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
        if not list(_positions(doc)):
            break
    texts = [json.dumps(d) for d in docs]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(texts) - 1))
        texts[i] = texts[i][: draw(st.integers(0, len(texts[i])))]
    cap = ["--node-cap", draw(st.sampled_from(["2", "50"]))]
    argv = {
        "solve": ["solve", *cap],
        "detect": ["detect", "--k", "1", *cap],
        "reduce": ["reduce", *cap],
        "gap": ["gap", *cap],
        "convert": ["convert", "--to", draw(st.sampled_from([p.value for p in Problem]))],
        "verify": ["verify", "--kind", "detection", "--k", "1"],
    }[command]
    return argv, texts[0], texts[1] if len(texts) > 1 else None


class TestBoundaryFuzz:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(fuzzed_runs())
    def test_mutated_input_fails_cleanly(self, tmp_path_factory, case):
        # whatever the input, a subcommand exits 0, 1 or 2 and a failure
        # says why on one line; a `verify` whose check fails exits 1 with
        # its report instead
        argv, inst_text, cert_text = case
        folder = tmp_path_factory.getbasetemp()
        files = [(folder / "fuzz.json", inst_text), (folder / "fuzz-cert.json", cert_text)]
        for path, text in files:
            if text is not None:
                path.write_text(text)
                argv = argv + [str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        lines = err.getvalue().splitlines()
        if code == 0 or (code == 1 and argv[0] == "verify" and not lines):
            assert not lines
            report = json.loads(out.getvalue())
            assert argv[0] != "verify" or report["ok"] is (code == 0)
        else:
            assert code in (1, 2)
            prefix = "resource cap exceeded: " if code == 2 else "error: "
            assert len(lines) == 1 and lines[0].startswith(prefix), lines
