"""Exact JSON entries decode straight to stored rows: Matrix.from_json, the
CLI's bare lists and scalar_from_json read an entry string one way, and a
matrix of integer strings is decoded without building a Fraction."""

import json
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from congruence import matrix, scalar
from congruence.cli import CliError, _load_matrix, main
from congruence.matrix import Matrix
from congruence.scalar import (GaussianRational, MODE_GAUSSIAN, MODE_GF2,
                               MODE_QUAT_CONJ, MODE_RATIONAL, MODE_REAL_FLOAT,
                               scalar_from_json)


def doc(entries, mode, shape=None):
    rows, cols = shape or (len(entries), len(entries[0]) if entries else 0)
    return {"mode": {"base": mode.base, "involution": mode.involution,
                     "tolerance": mode.tolerance},
            "rows": rows, "cols": cols, "entries": entries}


def stored(M):
    return M._shape, M._rows


_BIG = 2 ** 200
_INT = st.one_of(st.integers(-5, 5), st.integers(-_BIG, _BIG))
_PART = st.one_of(
    _INT.map(str),  # ASCII integers, zeros and 200-bit ones among them
    _INT,  # JSON ints
    st.builds("{}/{}".format, _INT, st.integers(1, 12)),  # "6/4" unreduced
    st.builds("{}e-{}".format, st.integers(-99, 99), st.integers(0, 3)),
    st.sampled_from(["-0", "007", " 3", "+3", "0.5", "6/4", "٣"]))
_ENTRY = {MODE_RATIONAL: _PART,
          MODE_GAUSSIAN: st.one_of(_PART,
                                   st.lists(_PART, min_size=2, max_size=2))}


class TestDecodedRows:
    @given(st.sampled_from([MODE_RATIONAL, MODE_GAUSSIAN]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equal_the_rows_of_the_scalars(self, mode, data):
        m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        rows = data.draw(st.lists(st.lists(_ENTRY[mode], min_size=n,
                                           max_size=n),
                                  min_size=m, max_size=m))
        want = Matrix([[scalar_from_json(e, mode) for e in r] for r in rows],
                      mode, promote=False, shape=(m, n))
        M = Matrix.from_json(doc(rows, mode, (m, n)))
        assert M.mode == mode and stored(M) == stored(want)

    @pytest.mark.parametrize("mode", [MODE_RATIONAL, MODE_GAUSSIAN])
    def test_integer_strings_build_no_fraction(self, mode, monkeypatch):
        made = []

        def counted(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(scalar, "rational", counted)
        monkeypatch.setattr(matrix, "rational", counted)
        part = lambda k: str(k - 4) if k % 3 else k - 4
        entries = [[part(3 * i + j) if mode == MODE_RATIONAL
                    else [part(3 * i + j), str(j - i)] for j in range(3)]
                   for i in range(3)]
        M = Matrix.from_json(doc(entries, mode))
        assert not made
        assert M.a[2][1] == mode.promote(GaussianRational(3, -1)
                                         if mode == MODE_GAUSSIAN else 3)
        # a "p/q" entry takes Fraction's parser, through the counted name
        Matrix.from_json(doc([["1/2"]], mode))
        assert made


# (entry, what the entry decodes to over the rationals, over the Gaussian
# rationals): a value, or the type of the exception raised
_UNDERSCORE = 1000 if sys.version_info >= (3, 11) else ValueError
EDGES = [
    ("٣", 3, 3), (" 3", 3, 3), ("+3", 3, 3), ("1e3", 1000, 1000),
    ("1_000", _UNDERSCORE, _UNDERSCORE),
    ("0.5", Fraction(1, 2), Fraction(1, 2)),
    ("6/4", Fraction(3, 2), Fraction(3, 2)),
    ("--3", ValueError, ValueError), ("abc", ValueError, ValueError),
    ("1/0", ZeroDivisionError, ZeroDivisionError),
    (True, TypeError, TypeError), (0.5, TypeError, TypeError),
    (["1", "2"], TypeError, GaussianRational(1, 2)),
    (["3", "0"], 3, 3),
    (["6/4", -2], TypeError, GaussianRational(Fraction(3, 2), -2)),
    (["1", "2", "3"], TypeError, TypeError),
    (["1", "0", "0", "0"], TypeError, TypeError),
    # a pair's parts are read in order: the first raises before the second
    ([[1], "abc"], TypeError, TypeError),
    # Fraction(True) is 1: a pair's parts are not scalars themselves
    ([True, "1"], TypeError, GaussianRational(1, 1)),
]
_CASES = [pytest.param(e, mode, want, id="%s-%r" % (mode.base, e))
          for e, q, g in EDGES
          for mode, want in ((MODE_RATIONAL, q), (MODE_GAUSSIAN, g))]


def _expect(want, mode, decode):
    if isinstance(want, type):
        with pytest.raises(want):
            decode()
    else:
        assert decode() == mode.promote(want)


class TestEdgeCases:
    @pytest.mark.parametrize("e, mode, want", _CASES)
    def test_scalar_from_json(self, e, mode, want):
        _expect(want, mode, lambda: scalar_from_json(e, mode))

    @pytest.mark.parametrize("e, mode, want", _CASES)
    def test_from_json(self, e, mode, want):
        _expect(want, mode,
                lambda: Matrix.from_json(doc([["1", e]], mode)).a[0][1])

    @pytest.mark.parametrize("e, mode, want", _CASES)
    def test_cli_bare_list(self, e, mode, want, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([["1", e], [0, 1]]))
        if not isinstance(want, type):
            assert _load_matrix(str(path), mode).a[0][1] == mode.promote(want)
            return
        with pytest.raises(CliError) as info:
            _load_matrix(str(path), mode)
        assert info.value.exit_code == 2
        assert isinstance(info.value.__context__, want)
        cmode = "star-ac" if mode == MODE_GAUSSIAN else "congruence-real"
        r = CliRunner().invoke(main, ["canon", "--mode", cmode, str(path)])
        assert r.exit_code == 2
        assert json.loads(r.output)["error"]["code"] == 2

    def test_a_json_string_matrix_entry_stays_a_scalar_over_gf2(self):
        # every base without integer rows keeps scalar_from_json: "1" is
        # no GF(2) element, the int 1 is
        with pytest.raises(TypeError):
            Matrix.from_json(doc([["1"]], MODE_GF2))
        assert Matrix.from_json(doc([[1]], MODE_GF2)).a == ((1,),)

    @pytest.mark.parametrize("mode, entry", [
        (MODE_REAL_FLOAT, 0.5), (MODE_REAL_FLOAT, "1/2"),
        (MODE_QUAT_CONJ, ["1/2", "0", "0", "0"])])
    def test_other_bases_read_their_scalars(self, mode, entry):
        assert (Matrix.from_json(doc([[entry]], mode)).a
                == ((scalar_from_json(entry, mode),),))

    @pytest.mark.parametrize("mode", [MODE_RATIONAL, MODE_GAUSSIAN,
                                      MODE_REAL_FLOAT])
    def test_entries_are_decoded_before_the_shape_is_checked(self, mode):
        with pytest.raises(ValueError, match="Invalid literal"):
            Matrix.from_json(doc([["1", "abc"]], mode, (3, 3)))
        with pytest.raises(ValueError, match="declared 3x3"):
            Matrix.from_json(doc([["1", "2"]], mode, (3, 3)))

    def test_ragged_bare_lists(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[1, 2], [3]]")
        with pytest.raises(CliError, match="ragged"):
            _load_matrix(str(path), MODE_RATIONAL)
