"""The breach seams of the χ tests (``tests/test_lparam.py``,
``tests/test_cli.py``), the call counter of the tests that pin how
often a sweep calls a function, and the log of the ε oracle's integrals.

Each seam fixture puts one deliberate breach into ``gpkit.lparam`` for the
length of one test and yields ``rows_of``: the function that gives the
oracle the bit rows of a pair's factor table under the same breach
(:func:`gp_reference.factor_rows`, breached alike), for
:class:`gp_reference.ReferenceTable` to read.  Pairs walked under a seam
must be enumerated under it: the slot planes live only in the V component
group, which keeps the planes it was first read with.  The tables' content
memo is swapped for a fresh one and restored on teardown, so no test sees
what another left.

* ``unmutated`` puts no breach in: the oracle reads the reference's own
  rows.
* ``exponent_seam`` replaces the exponents e of ε(σ ⊗ ρ) = i^e by
  :func:`gp_reference.odd_exponent`.  It reaches the mod-4 carries and the
  entries that are not ±1, where ``chi``, ``dichotomy`` and ``verify``
  raise.
* ``row_seam`` negates entries of the factor table itself
  (:func:`flip_rows`).  Changed exponents keep every dichotomy identity
  whose four entries are ±1, since the block sums are bilinear; so this is
  the seam that reaches the failure records of ``verify dichotomy``.

``cold`` empties the content memo, and ``built_rows`` wraps the row
build, which ``factor_rows_calls`` uses to count the content records built:
the sweep walk of ``tests/test_lparam.py`` counts them per unit, cold and
warm.
"""

import pytest

from gp_reference import factor_rows, odd_exponent
from gpkit import cli, conjclass, epsilon, lparam, quadspace, weilrep

GPKIT_MODULES = (cli, conjclass, epsilon, lparam, quadspace, weilrep)


def flip_rows(defined, minus):
    """The bit rows (``defined``, ``minus``) with one ±1 entry negated in
    every third row that has one: in the i-th such row (i = 0, 3, 6, …),
    the (i/3 mod n)-th of its n ±1 entries, counted from bit 0."""
    minus = list(minus)
    rows = [x for x, d in enumerate(defined) if d]
    for i, x in enumerate(rows[::3]):
        bits = [y for y in range(defined[x].bit_length()) if defined[x] >> y & 1]
        minus[x] ^= 1 << bits[i % len(bits)]
    return defined, tuple(minus)


@pytest.fixture
def cold(monkeypatch):
    """A function that swaps the tables' content memo of ``gpkit.lparam``
    for an empty one, so that the next table of freshly enumerated pairs is
    built from its exponents."""
    return lambda: monkeypatch.setattr(lparam, "_CONTENTS", {})


@pytest.fixture
def unmutated(cold):
    cold()
    return factor_rows


@pytest.fixture
def exponent_seam(monkeypatch, cold):
    monkeypatch.setattr(lparam, "_pair_exponent", odd_exponent)
    cold()
    return lambda gp: factor_rows(gp, odd_exponent)


@pytest.fixture
def built_rows(monkeypatch, cold):
    """A function that puts ``wrap(rows)`` in place of the bit rows
    ``(defined, minus)`` that the library builds for a content record, with
    the content memo emptied."""
    build = lparam._factor_rows
    def install(wrap):
        monkeypatch.setattr(lparam, "_factor_rows", lambda *a: wrap(build(*a)))
        cold()
    return install


@pytest.fixture
def row_seam(built_rows):
    built_rows(lambda rows: flip_rows(*rows))
    return lambda gp: flip_rows(*factor_rows(gp))


@pytest.fixture
def factor_rows_calls(built_rows):
    """A list that gains one entry per row build, i.e. per content record
    built, from an empty content memo on."""
    calls = []
    built_rows(lambda rows: calls.append(rows) or rows)
    return calls


@pytest.fixture
def count_calls(monkeypatch):
    """A function ``count(home, *names)`` that makes each name of ``home``
    count its calls, and returns the one dict of counts, name → calls, of
    every name counted so far.  A function of a module is replaced in every
    gpkit module that holds it, as ``perfbench/traced_cli.py`` traces the
    layers, and a method of a class on the class."""
    counts = {}

    def count(home, *names):
        for name in names:
            target = vars(home)[name]
            counts[name] = 0

            def counted(*args, _name=name, _fn=target, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            holders = [home] if isinstance(home, type) else [
                mod for mod in GPKIT_MODULES if vars(mod).get(name) is target
            ]
            for holder in holders:
                monkeypatch.setattr(holder, name, counted)
        return counts
    return count


@pytest.fixture
def quad_log(monkeypatch) -> list:
    """(f, a, b, value, error, points) of every quad call made through
    ``gpkit.epsilon.integrate``, the oracle's one quadrature seam, with the
    Fourier memos cleared first; ``points`` are the call's break points.
    ``f`` is the integrand in quad's convention, a list of abscissae to the
    list of values, so a scalar reference such as scipy reads ``f([x])[0]``.
    The Fourier parts are the calls over [0, ``epsilon._X_CUT``]."""
    from gpkit import quadrature

    real, log = epsilon.integrate, []

    class Recorded:
        def quad(self, f, a, b, *, points=(), **kwargs):
            val, err = real.quad(f, a, b, points=points, **kwargs)
            log.append((f, a, b, val, err, tuple(points)))
            return val, err

    monkeypatch.setattr(epsilon, "integrate", Recorded())
    epsilon._fourier_part.cache_clear()
    quadrature._F_VALUES.clear()
    return log
