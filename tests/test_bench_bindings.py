"""The benchmark tracer resolves every program name it traces.

perfbench/spans.py binds its traced functions by module and name, so a
program change that deletes or renames one of them fails here, on every
test run, instead of only in a traced benchmark run.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    importlib.import_module("congruence.canon")  # loads every traced module
    # run the source without importing it, so no bytecode cache is written
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    return spans


def test_tracer_binds_every_traced_name():
    spans = load_spans()
    tracer = spans.Tracer()  # looks every traced name up, rebinds nothing
    bound = {(owner.__name__, attr) for owner, attr, _, _ in tracer._binds}
    assert {(module, attr) for _, module, attr in spans.FUNCTIONS} <= bound


def test_traced_matrix_methods_are_plain_functions():
    # the tracer wraps Matrix.__dict__[name] and sets the wrapper back on
    # the class: a property or staticmethod there would be wrapped with no
    # error, and then break or go untraced
    from congruence.matrix import Matrix
    for name in ("__mul__",) + tuple(load_spans().ELIMINATION):
        assert isinstance(Matrix.__dict__[name], types.FunctionType), name


def test_measure_reads_the_reference_cache_size():
    # perfbench/measure.py reports len(canon._REF_CACHE) after every run,
    # traced or not; the package keeps no reference cache, so building
    # block matrices leaves it empty
    from congruence import canon
    from congruence.blocks import (STAR_AC, SIGNED_ROOT, BlockSum,
                                   CanonicalBlock, block_sum_matrix)
    from congruence.scalar import GaussianRational
    block_sum_matrix(BlockSum(STAR_AC, [
        CanonicalBlock(SIGNED_ROOT, 2, lam=GaussianRational(1), eps=-1)]))
    assert len(canon._REF_CACHE) == 0
