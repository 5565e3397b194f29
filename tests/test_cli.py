"""End-to-end command line behavior: output formats, exit codes, determinism."""

import json

import pytest
from click.testing import CliRunner

from congruence.cli import main, parse_poly
from congruence.scalar import MODE_RATIONAL, rational
from congruence.blocks import BlockSum, block_sum_matrix
from congruence.canon import canonicalize
from congruence.matrix import Poly


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args, stdin=None):
    return runner.invoke(main, args, input=stdin, catch_exceptions=False)


class TestParsePoly:
    def test_basic(self):
        assert parse_poly("x^2+2x+1") == Poly([1, 2, 1], MODE_RATIONAL)

    def test_signs_and_fractions(self):
        p = parse_poly("x^2 - 3x + 1/2")
        assert p == Poly([rational(1, 2), -3, 1], MODE_RATIONAL)

    def test_sparse_powers(self):
        assert parse_poly("2x^3-1") == Poly([-1, 0, 0, 2], MODE_RATIONAL)

    def test_star_notation(self):
        assert parse_poly("3*x^2+1") == Poly([1, 0, 3], MODE_RATIONAL)

    @pytest.mark.parametrize("bad", ["", "x^", "y+1", "x**2", "1..2"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_poly(bad)


class TestCanonCommand:
    def test_scalar_example(self, runner):
        r = run(runner, ["canon", "--mode", "star-ac"], stdin="[2]")
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["blocks"] == [{"epsilon": 1, "kind": "signed-root",
                                  "lambda": ["1", "0"], "n": 1}]

    def test_exact_answer_carries_its_report(self, runner):
        r = run(runner, ["canon", "--mode", "star-ac"], stdin="[2]")
        assert json.loads(r.output)["report"] == {"exact": True,
                                                  "mode": "star-ac"}

    def test_emitted_blocksum_reparses_to_itself(self, runner):
        r = run(runner, ["canon", "--mode", "congruence-real"],
                stdin="[[0,0,1],[0,1,0],[1,0,0]]")
        out = json.loads(r.output)
        bs = BlockSum.from_json(out)
        assert canonicalize(block_sum_matrix(bs), "congruence-real") == bs

    def test_table_format(self, runner):
        r = run(runner, ["canon", "--mode", "congruence-real",
                         "--format", "table"], stdin="[[1,0],[0,-1]]")
        assert r.exit_code == 0
        assert "signed-root" in r.output and "eps=-1" in r.output

    def test_parse_error_exit_2(self, runner):
        r = run(runner, ["canon", "--mode", "star-ac"], stdin="not json")
        assert r.exit_code == 2
        err = json.loads(r.output)
        assert err["error"]["code"] == 2

    def test_declared_shape_mismatch_exit_2(self, runner):
        doc = {"mode": {"base": "rational", "involution": "identity",
                        "tolerance": 0},
               "rows": 3, "cols": 3, "entries": [["1", "0"], ["0", "1"]]}
        r = run(runner, ["canon", "--mode", "congruence-real"],
                stdin=json.dumps(doc))
        assert r.exit_code == 2
        assert "declared 3x3 shape" in json.loads(r.output)["error"]["message"]

    def test_unsplittable_exit_3(self, runner):
        r = run(runner, ["canon", "--mode", "congruence-real"],
                stdin="[[2,1],[0,3]]")
        assert r.exit_code == 3
        err = json.loads(r.output)
        assert err["error"]["code"] == 3
        # the cosquare's char poly x^2 - 11/6 x + 1: 4AC - B^2 = 23
        assert "6*x**2 - 11*x + 6" in err["error"]["message"]


class TestRootCommand:
    def test_worked_example(self, runner):
        r = run(runner, ["root", "--chi", "x^2+2x+1"])
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["entries"] == [["1", "-3"], ["1", "1"]]

    def test_no_root_exit_2(self, runner):
        r = run(runner, ["root", "--chi", "x-2"])
        assert r.exit_code == 2


class TestCheckCommand:
    def test_equivalent_pair(self, runner, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text("[[1,0],[0,1]]")
        b.write_text("[[2,1],[1,1]]")  # S^T S for S = [[1,1],[1,0]] ... spd
        r = run(runner, ["check", str(a), str(b), "--mode",
                         "congruence-real"])
        assert r.exit_code == 0
        assert json.loads(r.output)["equivalent"] is True

    def test_inequivalent_exit_1(self, runner, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text("[[1,0],[0,1]]")
        b.write_text("[[1,0],[0,-1]]")
        r = run(runner, ["check", str(a), str(b), "--mode",
                         "congruence-real"])
        assert r.exit_code == 1
        assert json.loads(r.output)["equivalent"] is False


class TestGenVerify:
    def test_round_trip_with_witness(self, runner, tmp_path):
        k = tmp_path / "k.json"
        k.write_text("[[1,0],[0,-1]]")
        r = run(runner, ["gen", str(k), "--seed", "11", "--with-witness"])
        assert r.exit_code == 0
        out = json.loads(r.output)
        for name, payload in (("a", out["matrix"]), ("s", out["witness"])):
            (tmp_path / (name + ".json")).write_text(json.dumps(payload))
        r2 = run(runner, ["verify", "--witness", str(tmp_path / "s.json"),
                          "--lhs", str(k), "--rhs", str(tmp_path / "a.json")])
        assert r2.exit_code == 0
        assert json.loads(r2.output)["verified"] is True

    def test_gf2_round_trip_with_witness(self, runner, tmp_path):
        k = tmp_path / "k.json"
        k.write_text("[[1,0],[1,1]]")
        r = run(runner, ["gen", str(k), "--seed", "3", "--field", "gf2",
                         "--with-witness"])
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["witness"]["mode"]["base"] == "gf2"
        for name, payload in (("a", out["matrix"]), ("s", out["witness"])):
            (tmp_path / (name + ".json")).write_text(json.dumps(payload))
        r2 = run(runner, ["verify", "--witness", str(tmp_path / "s.json"),
                          "--lhs", str(k), "--rhs", str(tmp_path / "a.json"),
                          "--field", "gf2"])
        assert r2.exit_code == 0
        assert json.loads(r2.output)["verified"] is True

    def test_gen_deterministic(self, runner, tmp_path):
        k = tmp_path / "k.json"
        k.write_text("[[0,1],[1,0]]")
        outs = {run(runner, ["gen", str(k), "--seed", "3"]).output
                for _ in range(3)}
        assert len(outs) == 1
        other = run(runner, ["gen", str(k), "--seed", "4"]).output
        assert other not in outs

    def test_failed_verify_exit_1(self, runner, tmp_path):
        for name, body in (("a", "[[1]]"), ("b", "[[2]]"), ("s", "[[1]]")):
            (tmp_path / (name + ".json")).write_text(body)
        r = run(runner, ["verify", "--witness", str(tmp_path / "s.json"),
                         "--lhs", str(tmp_path / "a.json"),
                         "--rhs", str(tmp_path / "b.json")])
        assert r.exit_code == 1


class TestValidation:
    def test_quaternion_identity_rejected(self, runner, tmp_path):
        k = tmp_path / "k.json"
        k.write_text("[[1]]")
        r = run(runner, ["gen", str(k), "--seed", "1", "--field",
                         "quaternion", "--involution", "identity"])
        assert r.exit_code == 2

    @staticmethod
    def run_on_bare_list(runner, tmp_path, command, *flags):
        m = tmp_path / "m.json"
        m.write_text("[[1,0],[0,2]]")
        files = [str(m)] * (2 if command == "check" else 1)
        return run(runner, [command, *files, "--mode", "star-ac", *flags])

    @staticmethod
    def assert_error_envelope(r, text):
        assert r.exit_code == 2
        assert "Traceback" not in r.output
        err = json.loads(r.stderr)["error"]
        assert err["code"] == 2 and text in err["message"]

    @pytest.mark.parametrize("command", ["canon", "check"])
    def test_tolerance_without_a_field_exit_2(self, runner, tmp_path,
                                              command):
        # a bare list without --field is read in the mode's exact field,
        # which takes no tolerance; exit 1 would mean "inequivalent" here
        r = self.run_on_bare_list(runner, tmp_path, command,
                                  "--tolerance", "1e-8")
        self.assert_error_envelope(r, "exact bases take no tolerance")

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["canon", "check"])
    def test_non_finite_float_tolerance_exit_2(self, runner, tmp_path,
                                               command, tol):
        r = self.run_on_bare_list(runner, tmp_path, command, "--field",
                                  "complex-float", "--tolerance", tol)
        self.assert_error_envelope(r, "tolerance")

    @pytest.mark.parametrize("flags", [
        ["--field", "gf2"],
        ["--field", "quaternion", "--involution", "quat-conjugation"]])
    def test_field_outside_the_mode_exit_2(self, runner, tmp_path, flags):
        # the message names the mode and the matrix's base
        r = self.run_on_bare_list(runner, tmp_path, "canon", *flags)
        self.assert_error_envelope(r, "'star-ac'")
        assert repr(flags[1]) in json.loads(r.stderr)["error"]["message"]

    def test_missing_file(self, runner):
        r = run(runner, ["canon", "/nonexistent.json", "--mode", "star-ac"])
        assert r.exit_code == 2
