import itertools
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import orbitmax
from orbitmax.cli import main


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def poly_x1(n=3):
    return {"n": n, "d": 1,
            "terms": [{"exps": [1] + [0] * (n - 1), "coef": "1/1"}]}


def tensor_10():
    return {"n": 2, "d": 1, "entries": [{"index": [1], "value": "1/1"}]}


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def assert_invalid_input(args, capsys):
    """Exit 2 with the one-line diagnostic, not a traceback."""
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")


class TestPolyNorm:
    def test_coordinate_moment(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", poly_x1())
        code, out = run_main(["poly-norm", "--poly", path, "--k", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["moment_2k"] == "1/3"
        assert payload["norm_2k"] == pytest.approx(3 ** -0.5)

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["poly-norm", "--poly", str(path), "--k", "1"]) == 2

    def test_k_zero_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", poly_x1())
        assert main(["poly-norm", "--poly", path, "--k", "0"]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["poly-norm", "--poly", str(tmp_path / "nope.json"),
                     "--k", "1"]) == 2

    def test_zero_denominator_coef_exit_2(self, tmp_path, capsys):
        obj = {"n": 2, "d": 1, "terms": [{"exps": [1, 0], "coef": "1/0"}]}
        path = write(tmp_path, "p.json", obj)
        assert_invalid_input(["poly-norm", "--poly", path, "--k", "1"], capsys)

    @pytest.mark.parametrize("obj", [
        # a float exponent used to be truncated: [2.5, 0] loaded as (2, 0)
        {"n": 2, "d": 2, "terms": [{"exps": [2.5, 0], "coef": "1/1"}]},
        {"n": 2.0, "d": 1, "terms": [{"exps": [1, 0], "coef": "1/1"}]},
        {"n": 2, "d": 1, "terms": [{"exps": [True, 0], "coef": "1/1"}]},
        {"n": 2, "d": 1, "terms": [{"exps": [1, 0], "coef": True}]},
    ])
    def test_non_integral_numbers_exit_2(self, tmp_path, capsys, obj):
        path = write(tmp_path, "p.json", obj)
        assert_invalid_input(["poly-norm", "--poly", path, "--k", "1"], capsys)

    def test_string_for_the_exponent_list_exit_2(self, tmp_path, capsys):
        # "20" used to be read as its characters, the exponents of x1**2
        obj = {"n": 2, "d": 2, "terms": [{"exps": "20", "coef": "1"}]}
        path = write(tmp_path, "p.json", obj)
        assert_invalid_input(["poly-norm", "--poly", path, "--k", "1"], capsys)


class TestPolyBounds:
    def test_eps_interval_contains_one(self, tmp_path, capsys):
        obj = {"n": 3, "d": 4, "terms": [{"exps": [4, 0, 0], "coef": "1/1"}]}
        path = write(tmp_path, "p.json", obj)
        code, out = run_main(
            ["poly-bounds", "--poly", path, "--eps", "0.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] <= 1.0 <= payload["upper"]
        assert payload["upper"] / payload["lower"] <= 1.5

    def test_exact_ends_printed_in_full(self, tmp_path, capsys):
        # at eps = 1e-3 the exact upper end of x1*x2 has about 8,240
        # characters, past the default limit of 4,300 digits on integer
        # to string conversion; main lifts the limit and puts it back
        from orbitmax import sphere
        from orbitmax.exact import format_rational
        obj = {"n": 2, "d": 2, "terms": [{"exps": [1, 1], "coef": "1"}]}
        path = write(tmp_path, "p.json", obj)
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
        limit = digits()
        code, out = run_main(["poly-bounds", "--poly", path, "--eps", "1e-3"],
                             capsys)
        assert code == 0
        assert digits() == limit
        payload = json.loads(out)
        assert payload["k"] == 4562
        assert len(payload["upper_exact"]) > 8000
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            expected = sphere.fewnomial_sup(sphere.poly_from_json(obj), 1e-3)
            assert payload["upper_exact"] == format_rational(expected.upper_exact)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    def test_zero_polynomial_flagged(self, tmp_path, capsys):
        path = write(tmp_path, "z.json", {"n": 2, "d": 2, "terms": []})
        code, out = run_main(["poly-bounds", "--poly", path, "--k", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["degenerate"] is True
        assert payload["lower"] == payload["upper"] == 0.0

    def test_budget_exit_3(self, tmp_path, capsys):
        obj = {"n": 6, "d": 4, "terms": [
            {"exps": [4, 0, 0, 0, 0, 0], "coef": "1/1"},
            {"exps": [0, 4, 0, 0, 0, 0], "coef": "1/1"},
            {"exps": [0, 0, 4, 0, 0, 0], "coef": "1/1"},
            {"exps": [0, 0, 0, 4, 0, 0], "coef": "1/1"}]}
        path = write(tmp_path, "p.json", obj)
        assert main(["poly-bounds", "--poly", path, "--eps", "0.1",
                     "--budget", "1000"]) == 3

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_eps_exit_2(self, tmp_path, eps):
        path = write(tmp_path, "p.json", poly_x1())
        assert main(["poly-bounds", "--poly", path, "--eps", eps]) == 2

    def test_smallest_positive_eps_accepted(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", poly_x1(n=1))
        code, out = run_main(
            ["poly-bounds", "--poly", path, "--eps", "5e-324"], capsys)
        assert code == 0
        assert json.loads(out)["k"] == 1

    def test_tiny_eps_exits_3_at_once(self, tmp_path, capsys):
        # k = 24,619,970,972 at n = 3, d = 2: choose_k finds it by
        # bisection, and the term budget refuses it
        obj = {"n": 3, "d": 2, "terms": [
            {"exps": [2, 0, 0], "coef": "1/1"}, {"exps": [0, 1, 1], "coef": "-2/1"},
            {"exps": [1, 0, 1], "coef": "1/3"}]}
        path = write(tmp_path, "p.json", obj)
        assert main(["poly-bounds", "--poly", path, "--eps", "1e-9"]) == 3
        assert "k=24619970972" in capsys.readouterr().err

    def test_one_term_tiny_eps_exits_3_at_once(self, tmp_path, capsys):
        # x1*x2 is one composition at every k; the weights' k*d = 2k odd
        # factors are what the budget refuses
        obj = {"n": 2, "d": 2, "terms": [{"exps": [1, 1], "coef": "1/1"}]}
        path = write(tmp_path, "p.json", obj)
        assert main(["poly-bounds", "--poly", path, "--eps", "1e-9"]) == 3
        assert "weights of up to" in capsys.readouterr().err

    def test_both_k_and_eps_rejected(self, tmp_path):
        path = write(tmp_path, "p.json", poly_x1())
        assert main(["poly-bounds", "--poly", path, "--k", "1",
                     "--eps", "0.5"]) == 2

    def test_root_above_float_range(self, tmp_path, capsys):
        obj = {"n": 2, "d": 1,
               "terms": [{"exps": [1, 0], "coef": f"{10 ** 400}/1"}]}
        path = write(tmp_path, "p.json", obj)
        code, out = run_main(["poly-bounds", "--poly", path, "--k", "1"],
                             capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["upper"] == float("inf")
        assert payload["lower"] == sys.float_info.max


class TestSystemTest:
    def test_certified_gap(self, tmp_path, capsys):
        system = [
            {"n": 2, "d": 1, "terms": [{"exps": [1, 0], "coef": "1/1"}]},
            {"n": 2, "d": 1, "terms": [{"exps": [0, 1], "coef": "1/1"}]},
        ]
        path = write(tmp_path, "s.json", system)
        code, out = run_main(
            ["system-test", "--system", path, "--k", "6", "--delta", "0.01"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "certified gap"
        assert payload["certified_min_q"] > 0

    def test_solvable_system(self, tmp_path, capsys):
        system = [{"n": 2, "d": 1, "terms": [
            {"exps": [1, 0], "coef": "1/1"},
            {"exps": [0, 1], "coef": "-1/1"}]}]
        path = write(tmp_path, "s.json", system)
        code, out = run_main(
            ["system-test", "--system", path, "--k", "3", "--delta", "0.01"],
            capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "possibly solvable"

    def test_zero_system(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", [{"n": 2, "d": 1, "terms": []}])
        code, out = run_main(
            ["system-test", "--system", path, "--k", "2", "--delta", "0.01"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "possibly solvable"
        assert payload["gamma"] == 0.0

    @pytest.mark.parametrize("delta", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_delta_exit_2(self, tmp_path, delta):
        path = write(tmp_path, "s.json", [poly_x1(n=2)])
        assert main(["system-test", "--system", path, "--k", "1",
                     "--delta", delta]) == 2

    def test_smallest_positive_delta_accepted(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", [poly_x1(n=2)])
        code, out = run_main(["system-test", "--system", path, "--k", "1",
                              "--delta", "5e-324"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "possibly solvable"

    def test_coefficient_beyond_the_float_range_exit_2(self, tmp_path, capsys):
        # max q is about 10**400, so gamma has no float; this used to end
        # in an uncaught OverflowError
        system = [{"n": 2, "d": 1, "terms": [{"exps": [1, 0], "coef": str(10 ** 200)},
                                             {"exps": [0, 1], "coef": "1"}]}]
        path = write(tmp_path, "s.json", system)
        assert_invalid_input(["system-test", "--system", path, "--k", "1"], capsys)

    def test_degree_mismatch_exit_2(self, tmp_path):
        system = [
            {"n": 2, "d": 1, "terms": [{"exps": [1, 0], "coef": "1/1"}]},
            {"n": 2, "d": 2, "terms": [{"exps": [2, 0], "coef": "1/1"}]},
        ]
        path = write(tmp_path, "s.json", system)
        assert main(["system-test", "--system", path, "--k", "1",
                     "--delta", "0.01"]) == 2

    @pytest.mark.parametrize("obj", [poly_x1(n=2), "[]", 3])
    def test_system_not_a_json_array_exit_2(self, tmp_path, capsys, obj):
        path = write(tmp_path, "s.json", obj)
        assert_invalid_input(["system-test", "--system", path, "--k", "1"], capsys)


class TestAssign:
    def test_greedy_equals_brute(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", tensor_10())
        code, out = run_main(
            ["assign", "--a", path, "--b", path, "--k", "1",
             "--greedy", "--brute"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["greedy"]["value"] == "1/1"
        assert payload["brute"]["abs_value_exact"] == "1/1"
        assert payload["greedy"]["permutation"] == payload["brute"]["permutation"]
        assert payload["bounds"]["lower"] <= 1.0 <= payload["bounds"]["upper"]

    def test_brute_cap_exit_2(self, tmp_path, capsys):
        obj = {"n": 12, "d": 1, "entries": [{"index": [1], "value": "1/1"}]}
        path = write(tmp_path, "t.json", obj)
        assert main(["assign", "--a", path, "--b", path, "--k", "1",
                     "--brute"]) == 2

    def test_out_of_memory_exit_3(self, tmp_path, capsys):
        # a dense n = 10**7 tensor at d = 2 is a list of 10**14 entries,
        # refused when the list is allocated, before any memory is touched
        huge = write(tmp_path, "t.json", {"n": 10 ** 7, "d": 2, "entries": []})
        assert main(["assign", "--a", huge, "--b", huge, "--k", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget exceeded: out of memory")

    def test_zero_denominator_value_exit_2(self, tmp_path, capsys):
        good = write(tmp_path, "a.json", tensor_10())
        bad = write(tmp_path, "b.json", {"n": 2, "d": 1, "entries": [
            {"index": [1], "value": "1/0"}]})
        assert_invalid_input(["assign", "--a", good, "--b", bad, "--k", "1"],
                             capsys)

    @pytest.mark.parametrize("entry", [5, {"index": 5, "value": "1/1"}, "1/1"])
    def test_malformed_entry_exit_2(self, tmp_path, capsys, entry):
        good = write(tmp_path, "a.json", tensor_10())
        bad = write(tmp_path, "b.json", {"n": 2, "d": 1, "entries": [entry]})
        assert_invalid_input(["assign", "--a", bad, "--b", good, "--k", "1"],
                             capsys)

    @pytest.mark.parametrize("obj", [
        # each used to load by truncation: n = 2, or index [1]
        {"n": 2.7, "d": 1, "entries": [{"index": [1], "value": "1/1"}]},
        {"n": 2, "d": 1, "entries": [{"index": [1.9], "value": "1/1"}]},
        {"n": 2, "d": 1, "entries": [{"index": [True], "value": "1/1"}]},
        {"n": 2, "d": 1, "entries": [{"index": [1], "value": True}]},
    ])
    def test_non_integral_numbers_exit_2(self, tmp_path, capsys, obj):
        good = write(tmp_path, "a.json", tensor_10())
        bad = write(tmp_path, "b.json", obj)
        assert_invalid_input(["assign", "--a", bad, "--b", good, "--k", "1"],
                             capsys)

    def test_string_for_the_index_exit_2(self, tmp_path, capsys):
        # "12" used to be read as the index [1, 2]
        good = write(tmp_path, "a.json", {"n": 2, "d": 2, "entries": [
            {"index": [1, 2], "value": "1/1"}]})
        bad = write(tmp_path, "b.json", {"n": 2, "d": 2, "entries": [
            {"index": "12", "value": "1/1"}]})
        assert_invalid_input(["assign", "--a", good, "--b", bad, "--k", "1"],
                             capsys)

    def test_shape_mismatch_exit_2(self, tmp_path):
        p1 = write(tmp_path, "a.json", tensor_10())
        p2 = write(tmp_path, "b.json",
                   {"n": 3, "d": 1, "entries": [{"index": [1], "value": "1/1"}]})
        assert main(["assign", "--a", p1, "--b", p2, "--k", "1"]) == 2

    def test_visit_budget_exit_3(self, tmp_path):
        # d = 2, k = 2 at n = 6: the partition plan's terms plus both
        # sides' contraction multiply-adds, read off the refusal
        from orbitmax import assign
        from orbitmax.errors import BudgetError

        obj = {"n": 6, "d": 2, "entries": [{"index": [1, 1], "value": "1/1"}]}
        path = write(tmp_path, "t.json", obj)
        a = assign.tensor_from_json(obj)
        with pytest.raises(BudgetError) as exc:
            assign.moment_2k(a, a, 2, visit_budget=283083)  # the plan alone
        required = exc.value.required
        assert main(["assign", "--a", path, "--b", path, "--k", "2",
                     "--budget", "100"]) == 3
        assert main(["assign", "--a", path, "--b", path, "--k", "2",
                     "--budget", str(required - 1)]) == 3
        assert main(["assign", "--a", path, "--b", path, "--k", "2",
                     "--budget", str(required)]) == 0

    def test_linear_budget_exit_3(self, tmp_path):
        # d = 1, k = 1: partitions of 0, 1, 2 (four terms) plus n * 2k
        obj = {"n": 3, "d": 1, "entries": [{"index": [1], "value": "1/1"}]}
        path = write(tmp_path, "t.json", obj)
        assert main(["assign", "--a", path, "--b", path, "--k", "1",
                     "--budget", "9"]) == 3
        assert main(["assign", "--a", path, "--b", path, "--k", "1",
                     "--budget", "10"]) == 0

    def test_linear_large_k_exit_3(self, tmp_path):
        # 2k = 100 over 100 coordinates: refused by the count alone
        obj = {"n": 100, "d": 1, "entries": [{"index": [1], "value": "1/1"}]}
        path = write(tmp_path, "t.json", obj)
        assert main(["assign", "--a", path, "--b", path, "--k", "50"]) == 3


class TestHyperAlign:
    def test_triangle_self(self, tmp_path, capsys):
        tri = {"n": 3, "d": 2, "edges": [[1, 2], [2, 3], [1, 3]]}
        path = write(tmp_path, "h.json", tri)
        code, out = run_main(
            ["hyper-align", "--h1", path, "--h2", path, "--k", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["matched"] == 3

    def test_triangle_vs_path(self, tmp_path, capsys):
        tri = write(tmp_path, "t.json",
                    {"n": 3, "d": 2, "edges": [[1, 2], [2, 3], [1, 3]]})
        pth = write(tmp_path, "p.json",
                    {"n": 3, "d": 2, "edges": [[1, 2], [2, 3]]})
        code, out = run_main(
            ["hyper-align", "--h1", pth, "--h2", tri, "--k", "1"], capsys)
        assert code == 0
        assert json.loads(out)["matched"] == 2

    def test_out_of_memory_exit_3(self, tmp_path, capsys):
        # the adjacency tensor of 10**7 vertices at d = 2 is a list of
        # 10**14 entries, refused when the list is allocated
        h = write(tmp_path, "h.json", {"n": 10 ** 7, "d": 2, "edges": [[1, 2]]})
        assert main(["hyper-align", "--h1", h, "--h2", h, "--k", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget exceeded: out of memory")

    def test_n_mismatch_exit_2(self, tmp_path):
        h1 = write(tmp_path, "h1.json", {"n": 3, "d": 2, "edges": [[1, 2]]})
        h2 = write(tmp_path, "h2.json", {"n": 4, "d": 2, "edges": [[1, 2]]})
        assert main(["hyper-align", "--h1", h1, "--h2", h2, "--k", "1"]) == 2

    @pytest.mark.parametrize("obj", [
        # used to load as n = 3 with edge (0, 1)
        {"n": 3.9, "d": 2, "edges": [[1, 2]]},
        {"n": 3, "d": 2, "edges": [[1.2, 2.8]]},
    ])
    def test_non_integral_numbers_exit_2(self, tmp_path, capsys, obj):
        h = write(tmp_path, "h.json", obj)
        assert_invalid_input(["hyper-align", "--h1", h, "--h2", h, "--k", "1"],
                             capsys)

    @pytest.mark.parametrize("obj", [
        # each used to be read character by character: two edges (1, 2) and
        # (2, 3), the weight list [2], and two one-vertex edges
        {"n": 3, "d": 2, "edges": ["12", "23"]},
        {"n": 3, "d": 2, "edges": [[1, 2]], "weights": "2"},
        {"n": 2, "d": 1, "edges": "12"},
    ])
    def test_string_for_a_list_exit_2(self, tmp_path, capsys, obj):
        h = write(tmp_path, "h.json", obj)
        assert_invalid_input(["hyper-align", "--h1", h, "--h2", h, "--k", "1"],
                             capsys)

    def test_zero_denominator_weight_exit_2(self, tmp_path, capsys):
        h = write(tmp_path, "h.json", {"n": 3, "d": 2, "edges": [[1, 2]],
                                       "weights": ["1/0"]})
        assert_invalid_input(["hyper-align", "--h1", h, "--h2", h, "--k", "1"],
                             capsys)


class TestVerify:
    def test_point_mass_tight_case(self, capsys):
        code, out = run_main(["verify", "--n", "2", "--k", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_hold"] is True
        upper = next(c for c in payload["delta_case"]["checks"]
                     if c["inequality"].startswith("sup_abs^2k"))
        assert upper["tight"] is True

    def test_random_suite_holds(self, capsys):
        code, out = run_main(
            ["verify", "--n", "5", "--k", "2", "--trials", "25",
             "--seed", "3"], capsys)
        assert code == 0
        assert json.loads(out)["failures"] == 0

    def test_cap_exit_2(self):
        assert main(["verify", "--n", "9", "--k", "1"]) == 2

    def test_n_zero_exit_2(self, capsys):
        assert_invalid_input(["verify", "--n", "0", "--k", "1"], capsys)

    def test_negative_trials_exit_2(self):
        # "trials": -4 used to be reported as a successful run
        assert main(["verify", "--n", "3", "--k", "1", "--trials", "-1"]) == 2

    def test_zero_trials_accepted(self, capsys):
        code, out = run_main(
            ["verify", "--n", "3", "--k", "1", "--trials", "0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 0
        assert payload["failures"] == 0 and payload["worst_margins"] == {}


class TestDeterminism:
    def test_identical_outputs_across_runs(self, tmp_path):
        tri = {"n": 3, "d": 2, "edges": [[1, 2], [2, 3], [1, 3]]}
        h = tmp_path / "h.json"
        h.write_text(json.dumps(tri))
        cmds = [
            [sys.executable, "-m", "orbitmax.cli", "hyper-align",
             "--h1", str(h), "--h2", str(h), "--k", "1"],
            [sys.executable, "-m", "orbitmax.cli", "verify", "--n", "4",
             "--k", "2", "--trials", "10", "--seed", "11"],
        ]
        for cmd in cmds:
            outputs = {subprocess.run(cmd, capture_output=True,
                                      check=True).stdout for _ in range(3)}
            assert len(outputs) == 1


class TestBudgetEnvVar:
    def test_env_default_with_flag_precedence(self, tmp_path, monkeypatch):
        obj = {"n": 6, "d": 2, "entries": [{"index": [1, 1], "value": "1/1"}]}
        path = write(tmp_path, "t.json", obj)
        monkeypatch.setenv("ORBITMAX_BUDGET", "100")
        assert main(["assign", "--a", path, "--b", path, "--k", "2"]) == 3
        # explicit flag overrides the restrictive environment default
        assert main(["assign", "--a", path, "--b", path, "--k", "1",
                     "--budget", str(10 ** 8)]) == 0

    def test_non_integer_env_exit_2(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "p.json", poly_x1())
        monkeypatch.setenv("ORBITMAX_BUDGET", "abc")
        assert_invalid_input(["poly-norm", "--poly", path, "--k", "1"], capsys)


class TestBudgetValues:
    @pytest.mark.parametrize("budget", ["-1", "0"])
    def test_negative_flag_exit_2_and_zero_exit_3(self, tmp_path, capsys, budget):
        path = write(tmp_path, "p.json", poly_x1())
        tensor = write(tmp_path, "t.json", tensor_10())
        for args in (["poly-norm", "--poly", path, "--k", "1"],
                     ["assign", "--a", tensor, "--b", tensor, "--k", "1"]):
            if budget == "0":
                assert main(args + ["--budget", budget]) == 3
                assert capsys.readouterr().err.startswith("budget exceeded: ")
            else:
                assert_invalid_input(args + ["--budget", budget], capsys)

    @pytest.mark.parametrize("env", ["-3", "2.5", "true"])
    def test_env_that_is_not_a_count_exit_2(self, tmp_path, capsys, monkeypatch, env):
        path = write(tmp_path, "p.json", poly_x1())
        monkeypatch.setenv("ORBITMAX_BUDGET", env)
        assert_invalid_input(["poly-norm", "--poly", path, "--k", "1"], capsys)
        # a valid flag wins over the environment, which is then not read
        assert main(["poly-norm", "--poly", path, "--k", "1", "--budget", "10"]) == 0

    def test_env_zero_is_a_budget(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "p.json", poly_x1())
        monkeypatch.setenv("ORBITMAX_BUDGET", "0")
        assert main(["poly-norm", "--poly", path, "--k", "1"]) == 3
        assert capsys.readouterr().err.startswith("budget exceeded: ")


class TestStartup:
    def test_sphere_commands_load_no_numpy(self, tmp_path):
        # A fresh interpreter, because this one has numpy loaded already.
        # Importing assign loads neither numpy nor _typesweep either: the
        # d >= 2 engines import them on first use, so their cost lands in
        # the first d >= 2 call rather than in every assign process.  No
        # orbitmax module imports dataclasses, which would pull in inspect.
        poly = write(tmp_path, "p.json", poly_x1())
        system = write(tmp_path, "s.json", [poly_x1()])
        child = textwrap.dedent("""
            import sys
            sys.path.insert(0, sys.argv[1])
            import orbitmax
            import orbitmax.cli
            poly, system = sys.argv[2], sys.argv[3]
            for argv in (["poly-norm", "--poly", poly, "--k", "1"],
                         ["poly-bounds", "--poly", poly, "--eps", "0.5"],
                         ["system-test", "--system", system, "--k", "1"]):
                assert orbitmax.cli.main(argv) == 0, argv
            loaded = [m for m in ("numpy", "orbitmax.assign", "orbitmax._typesweep",
                                  "dataclasses", "inspect") if m in sys.modules]
            assert not loaded, loaded
            from orbitmax import assign
            loaded = [m for m in ("numpy", "orbitmax._typesweep", "orbitmax._contract",
                                  "dataclasses", "inspect") if m in sys.modules]
            assert not loaded, loaded
        """)
        src = str(Path(orbitmax.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", child, src, poly, system],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_sweep_loads_only_when_a_step_sweeps(self, tmp_path):
        # n = 4 at d = 2 and a 6-vertex hyper-align enumerate every coset,
        # and brute force enumerates S_n, so the sweep module stays
        # unloaded; a dense n = 11 pair sweeps its first greedy steps
        def dense(n, seed):
            return {"n": n, "d": 2, "entries": [
                {"index": [i + 1, j + 1],
                 "value": str((i * 7 + j * 3 + seed) % 5 - 2)}
                for i in range(n) for j in range(n)]}

        small = write(tmp_path, "s.json", dense(4, 1))
        big_a = write(tmp_path, "a.json", dense(11, 1))
        big_b = write(tmp_path, "b.json", dense(11, 2))
        h1 = write(tmp_path, "h1.json", {"n": 6, "d": 2, "edges": [
            [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6], [1, 4]]})
        h2 = write(tmp_path, "h2.json", {"n": 6, "d": 2, "edges": [
            [1, 2], [2, 3], [3, 1], [4, 5], [5, 6], [6, 4], [1, 4]]})
        child = textwrap.dedent("""
            import contextlib, io, sys
            sys.path.insert(0, sys.argv[1])
            import orbitmax.cli
            with contextlib.redirect_stdout(io.StringIO()):
                assert orbitmax.cli.main(sys.argv[2:]) == 0, sys.argv[2:]
            print("orbitmax._typesweep" in sys.modules)
        """)
        src = str(Path(orbitmax.__file__).resolve().parents[1])
        for argv, sweeps in (
                (["assign", "--a", small, "--b", small, "--k", "1",
                  "--greedy", "--brute"], False),
                (["hyper-align", "--h1", h1, "--h2", h2, "--k", "1"], False),
                (["assign", "--a", big_a, "--b", big_b, "--k", "1",
                  "--greedy"], True)):
            proc = subprocess.run([sys.executable, "-c", child, src, *argv],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == [str(sweeps)], argv

    def test_assign_loads_no_numpy_submodules(self, tmp_path):
        # a d >= 2 assign --greedy process loads no numpy submodule beyond
        # those of ``import numpy`` itself (plain np.unique, for one, pulls
        # in numpy.ma); a dense d = 3, n = 9 pair sweeps its first greedy
        # steps, a dense d = 2, n = 5 pair enumerates its cosets
        def dense(n, d, seed):
            return {"n": n, "d": d, "entries": [
                {"index": [i + 1 for i in idx],
                 "value": str((sum(idx) * 7 + idx[0] * 3 + seed) % 5 - 2)}
                for idx in itertools.product(range(n), repeat=d)]}

        child = textwrap.dedent("""
            import contextlib, io, sys
            sys.path.insert(0, sys.argv[1])
            import numpy
            before = set(sys.modules)
            import orbitmax.cli
            with contextlib.redirect_stdout(io.StringIO()):
                assert orbitmax.cli.main(sys.argv[2:]) == 0, sys.argv[2:]
            print(sorted(m for m in set(sys.modules) - before
                         if m.startswith("numpy.")))
        """)
        src = str(Path(orbitmax.__file__).resolve().parents[1])
        for n, d in ((9, 3), (5, 2)):
            a = write(tmp_path, "a.json", dense(n, d, 1))
            b = write(tmp_path, "b.json", dense(n, d, 2))
            argv = ["assign", "--a", a, "--b", b, "--k", "1", "--greedy"]
            proc = subprocess.run([sys.executable, "-c", child, src, *argv],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == ["[]"], (n, d, proc.stdout)

    def test_plan_builder_loads_only_for_unshipped_shapes(self, tmp_path):
        # every d >= 2 moment at (d, 2k) = (2, 2), (2, 4) or (3, 2) reads
        # its complete shipped plan, so the plan builder is never
        # imported; a moment at (4, 2) builds its plan and imports it
        def dense(n, d, seed):
            return {"n": n, "d": d, "entries": [
                {"index": [i + 1 for i in idx],
                 "value": str((sum(idx) * 7 + idx[0] * 3 + seed) % 5 - 2)}
                for idx in itertools.product(range(n), repeat=d)]}

        child = textwrap.dedent("""
            import contextlib, io, sys
            sys.path.insert(0, sys.argv[1])
            import orbitmax.cli
            runs = [sys.argv[i:i + 3] for i in range(2, len(sys.argv), 3)]
            for a, b, k in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    argv = ["assign", "--a", a, "--b", b, "--k", k]
                    assert orbitmax.cli.main(argv) == 0, argv
            print("orbitmax._contract" in sys.modules,
                  "orbitmax._builder" in sys.modules)
        """)
        src = str(Path(orbitmax.__file__).resolve().parents[1])
        files = {}
        for n, d in ((5, 2), (4, 3), (3, 4)):
            files[d] = (write(tmp_path, f"a{d}.json", dense(n, d, 1)),
                        write(tmp_path, f"b{d}.json", dense(n, d, 2)))
        shipped = [*files[2], "1", *files[2], "2", *files[3], "1"]
        for runs, builds in ((shipped, False), (shipped + [*files[4], "1"], True)):
            proc = subprocess.run([sys.executable, "-c", child, src, *runs],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == ["True", str(builds)], runs

    def test_verify_and_linear_assign_load_no_numpy(self, tmp_path):
        # verify enumerates S_n in Python integers and d = 1 assign works
        # from power sums and the rearrangement inequality, and neither
        # loads dataclasses or inspect; a d = 2 hyper-align afterwards
        # loads the d >= 2 engines on demand
        a = write(tmp_path, "a.json", {"n": 4, "d": 1, "entries": [
            {"index": [1], "value": "3/2"}, {"index": [2], "value": "-1"},
            {"index": [4], "value": "2"}]})
        b = write(tmp_path, "b.json", {"n": 4, "d": 1, "entries": [
            {"index": [1], "value": "1"}, {"index": [3], "value": "-4/3"}]})
        h = write(tmp_path, "h.json",
                  {"n": 3, "d": 2, "edges": [[1, 2], [2, 3], [1, 3]]})
        child = textwrap.dedent("""
            import contextlib, io, sys
            sys.path.insert(0, sys.argv[1])
            import orbitmax.cli
            a, b, h = sys.argv[2:5]
            engines = ("numpy", "orbitmax._typesweep", "orbitmax._contract",
                       "dataclasses", "inspect")

            def run(argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert orbitmax.cli.main(argv) == 0, argv

            run(["verify", "--n", "4", "--k", "2", "--trials", "2"])
            loaded = [m for m in engines + ("orbitmax.assign",) if m in sys.modules]
            assert not loaded, loaded
            run(["assign", "--a", a, "--b", b, "--k", "2", "--greedy", "--brute"])
            loaded = [m for m in engines if m in sys.modules]
            assert not loaded, loaded
            run(["hyper-align", "--h1", h, "--h2", h, "--k", "1"])
            assert "numpy" in sys.modules
        """)
        src = str(Path(orbitmax.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", child, src, a, b, h],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
