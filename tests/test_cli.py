import json

import pytest

from toriparam.cli import main


@pytest.fixture
def paths(tmp_path):
    files = {}
    files["square"] = tmp_path / "square.json"
    files["square"].write_text(json.dumps({
        "dim": 2,
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "facets": [{"normal": [1, 0], "offset": 0},
                   {"normal": [-1, 0], "offset": 1},
                   {"normal": [0, 1], "offset": 0},
                   {"normal": [0, -1], "offset": 1}]}))
    files["pentagon"] = tmp_path / "pentagon.json"
    files["pentagon"].write_text(json.dumps({
        "dim": 2,
        "vertices": [[1, 1], [-1, 1], [-1, 0], [0, -1], [1, -1]],
        "facets": [{"normal": [1, 0], "offset": 1},
                   {"normal": [1, 1], "offset": 1},
                   {"normal": [0, 1], "offset": 1},
                   {"normal": [-1, 0], "offset": 1},
                   {"normal": [0, -1], "offset": 1}]}))
    files["triangle"] = tmp_path / "triangle.json"
    files["triangle"].write_text(json.dumps({
        "dim": 2,
        "vertices": [[1, 0], [0, 1], [-1, 0]],
        "facets": [{"normal": [0, 1], "offset": 0},
                   {"normal": [-1, -1], "offset": 1},
                   {"normal": [1, -1], "offset": 1}]}))
    return {k: str(v) for k, v in files.items()}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFan:
    def test_triangle_report(self, paths, capsys):
        code, out, _ = run(capsys, "fan", paths["triangle"])
        assert code == 0
        assert "singular" in out

    def test_json_shape(self, paths, capsys):
        code, out, _ = run(capsys, "fan", paths["square"], "--json")
        assert code == 0
        data = json.loads(out)
        assert data["smooth"] is True
        assert sorted(data["rays"]) == [[-1, 0], [0, -1], [0, 1], [1, 0]]


class TestResolve:
    def test_triangle_example(self, paths, capsys):
        code, out, _ = run(capsys, "resolve", paths["triangle"], "--json")
        assert code == 0
        data = json.loads(out)
        assert [a["ray"] for a in data["added_rays"]] == [[0, -1]]
        assert [vf["offset"] for vf in data["virtual_offsets"]] == [0, 1, 1, 1]

    def test_smooth_polytope(self, paths, capsys):
        code, out, _ = run(capsys, "resolve", paths["square"])
        assert code == 0
        assert "already smooth" in out


class TestGroup:
    def test_square_presentation(self, paths, capsys):
        code, out, _ = run(capsys, "group", paths["square"])
        assert code == 0
        assert "scaling group: (λ, λ, μ, μ)" in out
        assert "rescaling group: (λ, λ, λ^-1, λ^-1)" in out

    def test_pentagon_character(self, paths, capsys):
        code, out, _ = run(capsys, "group", paths["pentagon"])
        assert code == 0
        assert "offset character: λ^2*μ^3*ν^2" in out

    def test_resolved_group(self, paths, capsys):
        code, out, _ = run(capsys, "group", paths["triangle"], "--resolved")
        assert code == 0
        assert "rescaling group: (1, λ, λ, λ^-2)" in out


class TestIrreducible:
    def test_violation_exit_code(self, paths, capsys):
        code, out, _ = run(capsys, "irreducible", paths["pentagon"],
                           "--tuple", "(u*v,1,u,v,1)")
        assert code == 1
        assert "{x1, x3}" in out

    def test_pass(self, paths, capsys):
        code, out, _ = run(capsys, "irreducible", paths["pentagon"],
                           "--tuple", "(1,u,1,1,1)")
        assert code == 0


class TestComposeDecompose:
    def test_round_trip_through_text(self, paths, capsys):
        code, out, _ = run(capsys, "compose", paths["pentagon"],
                           "--system", "delta",
                           "--tuple", "(u*v,1,u,v,1)", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["content"] == "u*v^2"
        raw = ["(" + data["content"] + ")*(" + h + ")"
               for h in data["components"]]
        code, out, _ = run(capsys, "decompose", paths["pentagon"],
                           "--system", "delta",
                           "--target", json.dumps(raw), "--json")
        assert code == 0
        result = json.loads(out)
        assert result["decomposed"] is True
        assert result["content"] == "u*v^2"
        assert result["tuple"] == ["1", "u", "1", "1", "1"]

    def test_resolved_decompose(self, paths, capsys):
        code, out, _ = run(capsys, "decompose", paths["triangle"],
                           "--resolved", "--system", "delta",
                           "--target", "(u, u, v, u)", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["tuple"] == ["v", "1", "1", "u"]

    def test_negative_hint_in_parentheses(self, paths, capsys):
        # hints are normalized, so (-u) is the hint u; a bare -u would be
        # read as an option
        args = ("decompose", paths["square"], "--system", "delta",
                "--target", "(v, u + 1, u*v^2, u^2*v + u*v)", "--hints")
        plain = run(capsys, *args, "u", "v", "u + 1")
        negated = run(capsys, *args, "(-u)", "v", "u + 1")
        assert plain[0] == 0 and "(u*v, 1, u + 1, v)" in plain[1]
        assert negated == plain

    def test_no_preimage_exit_code(self, paths, capsys):
        code, out, _ = run(capsys, "decompose", paths["triangle"],
                           "--system", "delta", "--target", "(u, u, v, u)")
        assert code == 1


class TestVerify:
    def test_relation_holds(self, capsys):
        code, out, _ = run(capsys, "verify", "--target", "(v, u, u, u)",
                           "--relation", "x3^2 - x2*x4")
        assert code == 0

    def test_relation_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--target", "(v, u, u, u)",
                           "--relation", "x1")
        assert code == 1

    def test_common_factor_detected(self, capsys):
        code, out, _ = run(capsys, "verify", "--target", "(u*v, u*v^2)",
                           "--relation", "x1")
        assert code == 1
        assert "share a factor" in out


class TestRobustness:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "fan", "/nonexistent/p.json")
        assert code == 2
        assert "error:" in err

    def test_bad_polynomial(self, paths, capsys):
        code, _, err = run(capsys, "irreducible", paths["square"],
                           "--tuple", "(u, $, 1, 1)")
        assert code == 2
        assert "error:" in err

    def test_determinism(self, paths, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, "group", paths["pentagon"], "--json")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_json_matches_human(self, paths, capsys):
        _, machine, _ = run(capsys, "points", paths["square"], "--json")
        _, human, _ = run(capsys, "points", paths["square"])
        data = json.loads(machine)
        assert data["count"] == 4
        assert human.count("[") == data["count"]


class TestSystemInputs:
    def test_points_subsystem_with_warning(self, tmp_path, capsys):
        quad = tmp_path / "quad.json"
        quad.write_text(json.dumps({
            "dim": 2,
            "vertices": [[1, 0], [0, 1], [-1, 1], [-1, 0]],
            "facets": [{"normal": [0, 1], "offset": 0},
                       {"normal": [-1, -1], "offset": 1},
                       {"normal": [0, -1], "offset": 1},
                       {"normal": [1, 0], "offset": 1}]}))
        code, out, err = run(capsys, "compose", str(quad),
                             "--system", '{"points": [[-1,1],[-1,0],[0,0]]}',
                             "--tuple", "(u, v, u + v, u - v)", "--json")
        assert code == 0
        assert "warning" in err
        data = json.loads(out)
        assert data["content"] != "1"

    def test_file_arguments(self, paths, tmp_path, capsys):
        tup = tmp_path / "tuple.txt"
        tup.write_text("(1, u, 1, 1, 1)")
        code, out, _ = run(capsys, "irreducible", paths["pentagon"],
                           "--tuple", f"@{tup}")
        assert code == 0


class TestMalformedJson:
    def test_missing_keys_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [[0,0],[1,0],[0,1]]}')
        code, _, err = run(capsys, "fan", str(bad))
        assert code == 2
        assert "error:" in err


class TestNonIntegerGeometry:
    def _run(self, tmp_path, capsys, data, command="fan"):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        return run(capsys, command, str(path))

    def _square(self, paths):
        with open(paths["square"], encoding="utf-8") as fh:
            return json.load(fh)

    def test_fractional_offset_exit_2(self, paths, tmp_path, capsys):
        data = self._square(paths)
        data["facets"][1]["offset"] = 0.7
        code, out, err = self._run(tmp_path, capsys, data)
        assert code == 2
        assert "0.7" in err and out == ""

    def test_boolean_dimension_exit_2(self, paths, tmp_path, capsys):
        data = self._square(paths)
        data["dim"] = True
        code, _, err = self._run(tmp_path, capsys, data, "points")
        assert code == 2
        assert "True" in err

    def test_fractional_vertex_without_facets_exit_2(self, tmp_path, capsys):
        data = {"dim": 2, "vertices": [[0, 0], [1.5, 0], [0, 1]]}
        code, _, err = self._run(tmp_path, capsys, data, "resolve")
        assert code == 2
        assert "1.5" in err


class TestNonIntegerSystems:
    def test_fractional_monomial_point_exit_2(self, paths, capsys):
        code, out, err = run(capsys, "compose", paths["square"], "--system",
                             '{"monomials": [[0.7, 0], [1, 0], [0, 1], [1, 1]]}',
                             "--tuple", "(u, 1, 1, u + 1)")
        assert code == 2 and out == ""
        assert "0.7" in err

    def test_boolean_component_point_exit_2(self, paths, capsys):
        system = json.dumps({"components": [[{"m": [1, True], "a": "1"}],
                                            [{"m": [0, 0], "a": "1"}]]})
        code, out, err = run(capsys, "compose", paths["square"], "--system",
                             system, "--tuple", "(u, 1, 1, u + 1)")
        assert code == 2 and out == ""
        assert "True" in err

    def test_fractional_subset_point_exit_2(self, paths, capsys):
        code, out, err = run(capsys, "decompose", paths["square"], "--system",
                             '{"points": [[0.9, 0], [1, 0], [0, 1], [1, 1]]}',
                             "--target", "(u, u, 1, 1)")
        assert code == 2 and out == ""
        assert "0.9" in err


class TestStrictCoefficients:
    @pytest.mark.parametrize("a", ["0.1", "true", '"1/0"', '"1.5"', "null"])
    def test_non_rational_coefficient_exit_2(self, paths, capsys, a):
        system = ('{"components": [[{"m": [0, 0], "a": %s}], '
                  '[{"m": [1, 1], "a": 1}]]}' % a)
        code, out, err = run(capsys, "compose", paths["square"], "--system",
                             system, "--tuple", "(u, 1, 1, 1)")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "coefficient" in err

    @pytest.mark.parametrize("a, shown", [("3", "3"), ('"-1/2"', "-1/2"),
                                          ('"4"', "4")])
    def test_rational_coefficient_accepted(self, paths, capsys, a, shown):
        system = ('{"components": [[{"m": [0, 0], "a": %s}], '
                  '[{"m": [1, 1], "a": 1}]]}' % a)
        code, out, _ = run(capsys, "compose", paths["square"], "--system",
                           system, "--tuple", "(u, 1, 1, 1)", "--json")
        assert code == 0
        assert json.loads(out)["components"][0] == shown


class TestRobustExits:
    def test_deep_nesting_exit_2(self, capsys):
        target = "(" + "(" * 3000 + "u" + ")" * 3000 + ", 1)"
        code, out, err = run(capsys, "verify", "--target", target,
                             "--relation", "x1 - x1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "nest" in err

    def test_unexpected_exception_exit_4(self, paths, capsys, monkeypatch):
        import toriparam.cli as cli

        def broken(_):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "normal_fan", broken)
        code, out, err = run(capsys, "fan", paths["square"])
        assert code == 4 and out == ""
        assert err.splitlines() == [
            "error: internal error (ZeroDivisionError: division by zero)"]

    def test_broken_invariant_exit_4(self, paths, capsys, monkeypatch):
        import toriparam.parametrization as parametrization
        monkeypatch.setattr(parametrization, "try_divide", lambda p, d: None)
        code, out, err = run(capsys, "compose", paths["square"], "--system",
                             "delta", "--tuple", "(u, u, 1, 1)")
        assert code == 4 and out == ""
        assert err.startswith("error: internal error (InternalError:")
