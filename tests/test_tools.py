"""The source counts and the cold-call cache clearing of tools/bench_kernels.py."""

import functools
import importlib.util
from pathlib import Path

from covmap import operators

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_kernels.py"

# Eight code lines: the import, def f, both lines of y, both lines of the
# returned string, class A and z.  The rest is blank, a comment alone or a docstring.
SNIPPET = '''"""Module docstring,
on two lines."""

import math  # a trailing comment leaves the line counted


# a comment alone
def f(x):
    """One-line docstring."""
    y = (x +
         1)
    return """a string,
not a docstring"""


class A:
    """Class
    docstring."""

    z = 1
'''


@functools.lru_cache(maxsize=None)
def _bench_kernels():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_blank_comment_and_docstring_lines():
    assert _bench_kernels().code_lines(SNIPPET) == 8


def test_source_lines_total_each_module():
    lines = _bench_kernels().source_lines()
    assert lines["modules"].keys() == lines["code"].keys()
    assert lines["total"] == sum(lines["modules"].values())
    assert lines["code_total"] == sum(lines["code"].values())
    assert all(lines["code"][name] < lines["modules"][name] for name in lines["code"])


def test_cold_calls_clear_the_index_tables_first():
    bench = _bench_kernels()
    assert {"_scatter", "_probes"} <= {table.__name__ for table in bench.cached_tables()}
    sizes = []
    bench.cold_ms(lambda: sizes.append(operators._scatter.cache_info().currsize))
    assert sizes == [0] * bench.REPEAT
