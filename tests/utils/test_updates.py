"""The rank-1 Cholesky kernels against a cold factorization.

Each kernel patches the upper Cholesky factor ``U`` of a Gram matrix
``G = U^T U``; its result must equal ``scipy.linalg.cholesky`` of the
modified Gram to roundoff, be a clean upper triangle in Fortran order
with a positive diagonal (the form :class:`SparseBackend` stores and
solves with), and leave its inputs untouched.  The Gram matrices here
are well conditioned, so ``RTOL`` allows a thousand ulps of the largest
factor entry.
"""

import numpy as np
import pytest
import scipy.linalg

from repro.obs import PerfRecorder, recording
from repro.utils.updates import (
    cholesky_append,
    cholesky_delete,
    cholesky_downdate,
    cholesky_replace,
    cholesky_update,
)

RTOL = 1e3 * np.finfo(float).eps

SIZES = (1, 2, 50, 300)

POSITIONS = ("first", "middle", "last")


def _index(k: int, position: str) -> int:
    return {"first": 0, "middle": k // 2, "last": k - 1}[position]


def _rows(k: int, seed: int) -> np.ndarray:
    """``k`` random rows of length ``2k``: ``B B^T`` is well conditioned."""
    return np.random.default_rng(seed).standard_normal((k, 2 * k))


def _factor(gram: np.ndarray) -> np.ndarray:
    """The stored form: a clean, Fortran-ordered upper Cholesky factor."""
    return np.asfortranarray(scipy.linalg.cholesky(gram))


def _assert_factor_of(out: np.ndarray, gram: np.ndarray) -> None:
    assert out.shape == gram.shape
    assert out.flags.f_contiguous
    assert np.array_equal(np.tril(out, -1), np.zeros_like(out))
    assert np.all(np.diagonal(out) > 0.0)
    if gram.size:
        ref = scipy.linalg.cholesky(gram)
        assert np.abs(out - ref).max() <= RTOL * np.abs(ref).max()


def _givens_update(factor: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Reference: the Python Givens loop that the QR row insertion replaced."""
    u_new = np.array(factor, dtype=float)
    work = np.array(w, dtype=float)
    for j in range(u_new.shape[0]):
        a, b = u_new[j, j], work[j]
        r = float(np.hypot(a, b))
        c, s = a / r, b / r
        row = u_new[j, j:].copy()
        tail = work[j:]
        u_new[j, j:] = c * row + s * tail
        work[j:] = c * tail - s * row
    return u_new


@pytest.mark.parametrize("k", SIZES)
class TestAgainstColdCholesky:
    def test_update(self, k):
        rows = _rows(k, k)
        gram = rows @ rows.T
        factor = _factor(gram)
        w = np.random.default_rng(k + 1).standard_normal(k)
        before = factor.copy(), w.copy()
        out = cholesky_update(factor, w)
        _assert_factor_of(out, gram + np.outer(w, w))
        ref = _givens_update(factor, w)
        assert np.abs(out - ref).max() <= RTOL * np.abs(ref).max()
        assert np.array_equal(factor, before[0]) and np.array_equal(w, before[1])

    def test_downdate(self, k):
        # G = A^T A for a tall A; removing one of A's rows keeps G - w w^T
        # positive definite.
        tall = _rows(k, k).T
        gram = tall.T @ tall
        factor = _factor(gram)
        w = tall[0].copy()
        before = factor.copy()
        out = cholesky_downdate(factor, w)
        _assert_factor_of(out, gram - np.outer(w, w))
        assert np.array_equal(factor, before)

    def test_append(self, k):
        rows = _rows(k, k)
        factor = _factor(rows @ rows.T)
        new = np.random.default_rng(k + 2).standard_normal(2 * k)
        b, d = rows @ new, float(new @ new)
        before = factor.copy(), b.copy()
        out = cholesky_append(factor, b, d)
        grown = np.vstack([rows, new])
        _assert_factor_of(out, grown @ grown.T)
        assert np.array_equal(factor, before[0]) and np.array_equal(b, before[1])

    @pytest.mark.parametrize("position", POSITIONS)
    def test_delete(self, k, position):
        index = _index(k, position)
        rows = _rows(k, k)
        factor = _factor(rows @ rows.T)
        before = factor.copy()
        out = cholesky_delete(factor, index)
        kept = np.delete(rows, index, axis=0)
        _assert_factor_of(out, kept @ kept.T)
        assert np.array_equal(factor, before)

    @pytest.mark.parametrize("position", POSITIONS)
    def test_replace(self, k, position):
        index = _index(k, position)
        rows = _rows(k, k)
        factor = _factor(rows @ rows.T)
        kept = np.delete(rows, index, axis=0)
        new = np.random.default_rng(k + 3).standard_normal(2 * k)
        b, d = kept @ new, float(new @ new)
        before = factor.copy(), b.copy()
        out = cholesky_replace(factor, index, b, d)
        replaced = np.vstack([kept, new])
        _assert_factor_of(out, replaced @ replaced.T)
        assert np.array_equal(factor, before[0]) and np.array_equal(b, before[1])

    def test_exhausted_pivot_downdate_returns_none(self, k):
        # I - e_j e_j^T is singular: pivot j drops to zero.
        factor = np.asfortranarray(np.eye(k))
        assert cholesky_downdate(factor, np.eye(k)[k // 2]) is None

    def test_dependent_border_returns_none(self, k):
        # Bordering by a copy of row 0 makes the Schur complement zero.
        rows = _rows(k, k)
        gram = rows @ rows.T
        factor = _factor(gram)
        assert cholesky_append(factor, gram[:, 0], float(gram[0, 0])) is None


def test_negative_diagonal_rows_are_negated(monkeypatch):
    """Whatever signs the QR insertion returns, the factor comes out positive."""
    qr_insert = scipy.linalg.qr_insert

    def flipped(*args, **kwargs):
        q, r = qr_insert(*args, **kwargs)
        r[::2] *= -1.0
        return q, r

    monkeypatch.setattr(scipy.linalg, "qr_insert", flipped)
    rows = _rows(6, 0)
    gram = rows @ rows.T
    w = np.ones(6)
    _assert_factor_of(cholesky_update(_factor(gram), w), gram + np.outer(w, w))


#: One call of each kernel on a 4 x 4 factor ``u`` of the Gram ``g``.
KERNEL_CALLS = {
    "cholesky_update": lambda u, g: cholesky_update(u, np.ones(4)),
    "cholesky_downdate": lambda u, g: cholesky_downdate(u, 0.1 * np.ones(4)),
    "cholesky_append": lambda u, g: cholesky_append(u, g[:, 0], 1e3),
    "cholesky_delete": lambda u, g: cholesky_delete(u, 1),
    "cholesky_replace": lambda u, g: cholesky_replace(u, 1, g[1:, 0], 1e3),
}


@pytest.mark.parametrize("name", list(KERNEL_CALLS))
def test_each_kernel_counts_itself_once(name):
    """One counter per call, named after the kernel: no nested counts."""
    rows = _rows(4, 1)
    gram = rows @ rows.T
    with recording(PerfRecorder()) as recorder:
        assert KERNEL_CALLS[name](_factor(gram), gram) is not None
    assert dict(recorder.counters) == {name: 1}
