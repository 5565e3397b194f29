"""Command line front end: canon / root / check / gen / verify.

Matrices travel as JSON, either the full {"mode": ..., "entries": ...}
document or a bare nested list interpreted in the mode given by flags.
All output is deterministic for a fixed (input, seed) pair.
"""

import json
import re
import sys

import click

from .scalar import (FieldMode, RATIONAL, GAUSSIAN, QUATERNION, REAL_FLOAT,
                     COMPLEX_FLOAT, GF2_BASE, IDENTITY, CONJUGATION,
                     QUAT_CONJUGATION, QUAT_SEMICONJUGATION,
                     MODE_RATIONAL, rational, scalar_to_json)
from .matrix import Matrix, Poly, _from_entries
from .blocks import (STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL,
                     frobenius_block, field_mode_for)
from .cosquare import toeplitz_root, RootNotFound
from .jordan import UnsplittablePolynomial
from .canon import (canonicalize_with_confidence, are_equivalent,
                    random_congruence, ClassificationError)
from .quat import verify_witness


class CliError(click.ClickException):
    """Validation failure reported as machine-readable JSON on stderr."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.exit_code = code

    def show(self, file=None):
        payload = {"error": {"code": self.exit_code, "message": str(self.message)}}
        click.echo(json.dumps(payload, sort_keys=True), err=True)


def _wrap(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except UnsplittablePolynomial as e:
        raise CliError(str(e), code=3)
    except (ValueError, TypeError, KeyError, ZeroDivisionError,
            json.JSONDecodeError, ClassificationError, RootNotFound) as e:
        raise CliError(str(e), code=2)


def _field_mode(field, involution, tolerance):
    try:
        return FieldMode(field, involution, tolerance)
    except ValueError as e:
        raise CliError(str(e))


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CliError("cannot read %s: %s" % (path, e))


def _load_matrix(path, mode):
    data = _read_json(path)
    if isinstance(data, dict):
        return _wrap(Matrix.from_json, data)
    if isinstance(data, list):
        if mode is None:
            raise CliError("bare matrix lists need --field/--involution")
        rows = [r if isinstance(r, list) else [r] for r in data]
        return _wrap(_from_entries, rows, mode)
    raise CliError("matrix JSON must be an object or a nested list")


def _emit_matrix(M, fmt):
    if fmt == "json":
        click.echo(json.dumps(M.to_json(), sort_keys=True))
        return
    for row in M.a:
        click.echo("  ".join(str(scalar_to_json(x)) for x in row))


def _emit_blocksum(bs, fmt, report):
    if fmt == "json":
        click.echo(json.dumps(dict(bs.to_json(), report=report),
                              sort_keys=True))
        return
    click.echo("mode: %s" % bs.cmode)
    for b in bs.blocks:
        bits = ["%-16s" % b.kind, "n=%d" % b.n]
        if b.lam is not None:
            bits.append("lambda=%s" % (scalar_to_json(b.lam),))
        if b.eps is not None:
            bits.append("eps=%+d" % b.eps)
        click.echo("  " + "  ".join(bits))
    for k in sorted(report):
        click.echo("# %s: %s" % (k, report[k]))


_TERM = re.compile(r"^([+-]?)(\d+(?:/\d+)?)?(?:\*?x(?:\^(\d+))?)?$")


def parse_poly(text, mode=MODE_RATIONAL):
    """Parse "x^2+2x+1"-style polynomials with rational coefficients."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    terms = re.findall(r"[+-]?[^+-]+|[+-](?=[+-])", s)
    if "".join(terms) != s:
        raise ValueError("cannot parse polynomial %r" % text)
    coeffs = {}
    for t in terms:
        m = _TERM.match(t)
        if not m or (m.group(2) is None and "x" not in t):
            raise ValueError("cannot parse term %r" % t)
        sign = -1 if m.group(1) == "-" else 1
        c = rational(m.group(2)) if m.group(2) else rational(1)
        if "x" not in t:
            k = 0
        elif m.group(3) is None:
            k = 1
        else:
            k = int(m.group(3))
        coeffs[k] = coeffs.get(k, rational(0)) + sign * c
    deg = max(coeffs)
    return Poly([mode.promote(coeffs.get(k, 0)) for k in range(deg + 1)], mode)


_FIELDS = [RATIONAL, GAUSSIAN, QUATERNION, REAL_FLOAT, COMPLEX_FLOAT, GF2_BASE]
_INVOLUTIONS = [IDENTITY, CONJUGATION, QUAT_CONJUGATION, QUAT_SEMICONJUGATION]
_CMODES = [STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL]


def _field_options(fn):
    fn = click.option("--field", type=click.Choice(_FIELDS), default=None,
                      help="scalar field for bare matrix lists")(fn)
    fn = click.option("--involution", type=click.Choice(_INVOLUTIONS),
                      default=None)(fn)
    fn = click.option("--tolerance", type=float, default=None)(fn)
    return fn


def _input_mode(field, involution, tolerance, cmode=None, floating=False):
    if field is None and cmode is not None:
        fm = field_mode_for(cmode, floating)
        if tolerance is not None:
            fm = FieldMode(fm.base, fm.involution, tolerance)
        return fm
    if field is None:
        return None
    if involution is None:
        involution = CONJUGATION if field in (GAUSSIAN, COMPLEX_FLOAT) \
            else IDENTITY
    return _field_mode(field, involution, tolerance)


@click.group()
def main():
    """Canonical forms of matrices under congruence and *congruence."""


@main.command()
@click.argument("matrix", default="-")
@click.option("--mode", "cmode", type=click.Choice(_CMODES), required=True)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="json")
@_field_options
def canon(matrix, cmode, fmt, field, involution, tolerance):
    """Canonical block decomposition of a square matrix."""
    mode = _input_mode(field, involution, tolerance, cmode,
                       floating=field in (REAL_FLOAT, COMPLEX_FLOAT))
    A = _load_matrix(matrix, mode)
    bs, report = _wrap(canonicalize_with_confidence, A, cmode)
    _emit_blocksum(bs, fmt, report)


@main.command()
@click.option("--chi", required=True,
              help='characteristic polynomial, e.g. "x^2+2x+1"')
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="json")
@_field_options
def root(chi, fmt, field, involution, tolerance):
    """Toeplitz cosquare root for the companion matrix of chi."""
    mode = _input_mode(field or RATIONAL, involution, tolerance)
    p = _wrap(parse_poly, chi, mode)
    F = _wrap(frobenius_block, p.monic())
    A = _wrap(toeplitz_root, F, mode)
    _emit_matrix(A, fmt)


@main.command()
@click.argument("lhs")
@click.argument("rhs")
@click.option("--mode", "cmode", type=click.Choice(_CMODES), required=True)
@_field_options
def check(lhs, rhs, cmode, field, involution, tolerance):
    """Exit 0 when the two matrices are equivalent, 1 otherwise."""
    mode = _input_mode(field, involution, tolerance, cmode,
                       floating=field in (REAL_FLOAT, COMPLEX_FLOAT))
    A = _load_matrix(lhs, mode)
    B = _load_matrix(rhs, mode)
    same = _wrap(are_equivalent, A, B, cmode)
    click.echo(json.dumps({"equivalent": bool(same)}, sort_keys=True))
    if not same:
        sys.exit(1)


@main.command()
@click.argument("matrix", default="-")
@click.option("--seed", type=int, required=True)
@click.option("--with-witness", is_flag=True, default=False)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="json")
@_field_options
def gen(matrix, seed, with_witness, fmt, field, involution, tolerance):
    """Scramble a matrix by a seeded random congruence."""
    mode = _input_mode(field or RATIONAL, involution, tolerance)
    K = _load_matrix(matrix, mode)
    B, w = _wrap(random_congruence, K, seed)
    if with_witness and fmt == "json":
        click.echo(json.dumps({"matrix": B.to_json(),
                               "witness": w.S.to_json()}, sort_keys=True))
        return
    _emit_matrix(B, fmt)


@main.command()
@click.option("--witness", "witness_path", required=True)
@click.option("--lhs", "lhs_path", required=True)
@click.option("--rhs", "rhs_path", required=True)
@_field_options
def verify(witness_path, lhs_path, rhs_path, field, involution, tolerance):
    """Exit 0 when S*·lhs·S equals rhs, 1 otherwise."""
    mode = _input_mode(field or RATIONAL, involution, tolerance)
    A = _load_matrix(lhs_path, mode)
    B = _load_matrix(rhs_path, mode)
    S = _load_matrix(witness_path, mode)
    ok = _wrap(verify_witness, A, B, S,
               mode if mode and mode.base == QUATERNION else None)
    click.echo(json.dumps({"verified": bool(ok)}, sort_keys=True))
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
