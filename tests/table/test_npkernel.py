"""Numpy word-array kernel: resolution policy, parity, import guard.

The numpy kernel must be invisible at the handle level: the same
functions built on ``kernel="int"`` and ``kernel="numpy"`` managers
must agree on every semantic view (minterms, sat counts, supports,
truth tables, ISOP covers).  numpy itself stays strictly optional —
the module, the manager and the ``auto`` policy must all keep working
when the import fails, which these tests force by monkeypatching the
kernel module's ``_np`` handle to ``None``.
"""

import random

import pytest

from repro.table import (MAX_NUMPY_TABLE_WIDTH, MAX_TABLE_WIDTH,
                         NUMPY_CROSSOVER_WIDTH, TableManager)
from repro.table import npkernel

requires_numpy = pytest.mark.skipif(
    not npkernel.available(), reason="numpy not installed")


def paired_kernels(num_vars, seed, functions=6):
    """Two TableManagers (int / numpy) holding the same functions."""
    rng = random.Random(seed)
    ti = TableManager(max_width=num_vars, kernel="int")
    tn = TableManager(max_width=num_vars, kernel="numpy")
    vi = ti.add_vars(num_vars)
    vn = tn.add_vars(num_vars)
    pairs = []
    for _ in range(functions):
        minterms = [i for i in range(1 << num_vars)
                    if rng.random() < 0.5]
        pairs.append((ti.from_minterms(vi, minterms),
                      tn.from_minterms(vn, minterms)))
    return ti, tn, vi, vn, pairs


class TestResolutionPolicy:
    def test_explicit_int_always_wins(self, monkeypatch):
        monkeypatch.setenv(npkernel.KERNEL_ENV_VAR, "numpy")
        assert TableManager(max_width=16, kernel="int").kernel == "int"

    def test_auto_crossover(self):
        assert npkernel.resolve_kernel("auto", NUMPY_CROSSOVER_WIDTH) \
            == "int"
        if npkernel.available():
            assert npkernel.resolve_kernel(
                "auto", NUMPY_CROSSOVER_WIDTH + 1) == "numpy"

    def test_default_honours_env(self, monkeypatch):
        monkeypatch.setenv(npkernel.KERNEL_ENV_VAR, "int")
        assert TableManager(max_width=16).kernel == "int"
        monkeypatch.setenv(npkernel.KERNEL_ENV_VAR, "bogus")
        # Unknown values fall back to auto, never raise.
        assert TableManager(max_width=4).kernel == "int"

    @requires_numpy
    def test_env_numpy_selects_numpy(self, monkeypatch):
        monkeypatch.setenv(npkernel.KERNEL_ENV_VAR, "numpy")
        assert TableManager(max_width=4).kernel == "numpy"

    def test_bad_kernel_value_rejected(self):
        with pytest.raises(ValueError):
            TableManager(max_width=4, kernel="cupy")

    def test_width_cap_ignores_environment(self, monkeypatch):
        """``max_width=17`` must fail identically on every machine:
        the lifted ceiling needs an *explicit* numpy/auto kernel."""
        monkeypatch.setenv(npkernel.KERNEL_ENV_VAR, "numpy")
        with pytest.raises(ValueError):
            TableManager(max_width=MAX_TABLE_WIDTH + 1)
        with pytest.raises(ValueError):
            TableManager(max_width=MAX_TABLE_WIDTH + 1, kernel="int")

    @requires_numpy
    def test_explicit_kernel_lifts_ceiling(self):
        for kernel in ("numpy", "auto"):
            tm = TableManager(max_width=MAX_NUMPY_TABLE_WIDTH,
                              kernel=kernel)
            assert tm.kernel == "numpy"
        with pytest.raises(ValueError):
            TableManager(max_width=MAX_NUMPY_TABLE_WIDTH + 1,
                         kernel="numpy")


class TestImportGuard:
    """Everything except an explicit ``kernel="numpy"`` must keep
    working when numpy is not installed."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(npkernel, "_np", None)

    def test_available_reports_false(self, no_numpy):
        assert not npkernel.available()

    def test_default_and_auto_fall_back_to_int(self, no_numpy):
        assert TableManager().kernel == "int"
        wide = TableManager(max_width=MAX_TABLE_WIDTH, kernel="auto")
        assert wide.kernel == "int"

    def test_env_numpy_degrades_silently(self, no_numpy, monkeypatch):
        monkeypatch.setenv(npkernel.KERNEL_ENV_VAR, "numpy")
        assert TableManager(max_width=16).kernel == "int"

    def test_explicit_numpy_raises(self, no_numpy):
        with pytest.raises(ValueError, match="numpy"):
            TableManager(max_width=8, kernel="numpy")
        with pytest.raises(ValueError):
            npkernel.NumpyKernel()

    def test_auto_past_int_ceiling_raises(self, no_numpy):
        with pytest.raises(ValueError, match="numpy"):
            TableManager(max_width=MAX_TABLE_WIDTH + 1, kernel="auto")

    def test_int_manager_still_solves(self, no_numpy):
        tm = TableManager(max_width=3)
        a, b, c = tm.add_vars(3)
        f = tm.and_(tm.var(a), tm.var(b))
        assert tm.sat_count(f, [a, b, c]) == 2


@requires_numpy
class TestKernelParity:
    @pytest.mark.parametrize("num_vars", [1, 3, 6, 7, 9])
    def test_semantic_views_agree(self, num_vars):
        ti, tn, vi, vn, pairs = paired_kernels(num_vars, seed=num_vars)
        for f_i, f_n in pairs:
            assert list(tn.minterms(f_n, vn)) == list(ti.minterms(f_i, vi))
            assert tn.sat_count(f_n, vn) == ti.sat_count(f_i, vi)
            assert tn.size(f_n) == ti.size(f_i)
            assert tn.support(f_n) == ti.support(f_i)
            assert tn.table(f_n) == ti.table(f_i)

    @pytest.mark.parametrize("num_vars", [3, 7])
    def test_operations_agree(self, num_vars):
        ti, tn, vi, vn, pairs = paired_kernels(num_vars, seed=40 + num_vars)
        (f_i, f_n), (g_i, g_n) = pairs[0], pairs[1]
        ops = [
            (ti.and_(f_i, g_i), tn.and_(f_n, g_n)),
            (ti.or_(f_i, g_i), tn.or_(f_n, g_n)),
            (ti.xor_(f_i, g_i), tn.xor_(f_n, g_n)),
            (ti.not_(f_i), tn.not_(f_n)),
            (ti.cofactor(f_i, vi[0], True), tn.cofactor(f_n, vn[0], True)),
            (ti.cofactor(f_i, vi[-1], False),
             tn.cofactor(f_n, vn[-1], False)),
            (ti.exists(f_i, [vi[0], vi[-1]]),
             tn.exists(f_n, [vn[0], vn[-1]])),
            (ti.forall(f_i, [vi[0]]), tn.forall(f_n, [vn[0]])),
        ]
        for r_i, r_n in ops:
            assert tn.table(r_n) == ti.table(r_i)

    def test_isop_covers_agree(self):
        ti, tn, vi, vn, pairs = paired_kernels(5, seed=91)
        for f_i, f_n in pairs:
            cover_i, node_i = ti.isop(f_i, f_i)
            cover_n, node_n = tn.isop(f_n, f_n)
            assert cover_n == cover_i
            assert tn.table(node_n) == ti.table(node_i)

    def test_add_var_widening_agrees(self):
        ti = TableManager(max_width=8, kernel="int")
        tn = TableManager(max_width=8, kernel="numpy")
        a_i, b_i = ti.add_vars(2)
        a_n, b_n = tn.add_vars(2)
        f_i = ti.xor_(ti.var(a_i), ti.var(b_i))
        f_n = tn.xor_(tn.var(a_n), tn.var(b_n))
        # Grow across the 64-bit word boundary (6 -> 7 vars).
        ti.add_vars(5)
        tn.add_vars(5)
        assert tn.table(f_n) == ti.table(f_i)
        assert tn.support(f_n) == ti.support(f_i)

    def test_width_18_works(self):
        tm = TableManager(max_width=18, kernel="numpy")
        vars_ = tm.add_vars(18)
        parity = tm.var(vars_[0])
        for v in vars_[1:]:
            parity = tm.xor_(parity, tm.var(v))
        assert tm.sat_count(parity, vars_) == 1 << 17
        assert tm.support(parity) == tuple(vars_)
        assert tm.cofactor(parity, vars_[17], False) \
            == tm.not_(tm.cofactor(parity, vars_[17], True))

    def test_raw_table_round_trip(self):
        tm = TableManager(max_width=7, kernel="numpy")
        vars_ = tm.add_vars(7)
        f = tm.and_(tm.var(vars_[0]), tm.not_(tm.var(vars_[6])))
        value = tm.table(f)
        ref = TableManager(max_width=7, kernel="int")
        ref_vars = ref.add_vars(7)
        g = ref.and_(ref.var(ref_vars[0]), ref.not_(ref.var(ref_vars[6])))
        assert value == ref.table(g)

    def test_stats_key_set_unchanged(self):
        ti = TableManager(max_width=4, kernel="int")
        tn = TableManager(max_width=4, kernel="numpy")
        assert set(tn.stats()) == set(ti.stats())
