import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import centrasim
from centrasim import _native
from centrasim.engine import (KaczmarzState, format_trace_row, run,
                              run_temporal, step_known_n, step_temporal,
                              step_unknown_n, TRACE_HEADER)
from centrasim.graph import parse_temporal_edge_list
from centrasim.matrix import PersistentAverage, build_hyperlink_matrix
from centrasim.oracles import (build_regression_rows, direct_ls_solve,
                               rows_from_graph)
from centrasim.surfer import (SurferChain, build_transition_matrix,
                              build_transition_matrix_temporal)

from conftest import HAVE_CC, random_connected_digraph
from test_acceptance import weblike_graph


def _chain(g, omega, seed):
    tm = build_transition_matrix(g, omega)
    return SurferChain(matrix=tm, omega=omega, seed=seed)


class TestTraceFormat:
    def test_header(self):
        assert TRACE_HEADER == "k,error,residual,alpha_inv,active_node"

    def test_twelve_significant_digits(self):
        row = format_trace_row(7, 1 / 3, 0.25, 6.0, 2)
        assert row == "7,3.33333333333e-01,2.50000000000e-01,6.00000000000e+00,2"

    def test_missing_fields_are_nan(self):
        assert format_trace_row(1, None, None, 5.0, 0) == \
            "1,nan,nan,5.00000000000e+00,0"


class TestKnownN:
    def test_converges_on_fixture(self, fig1):
        rows = rows_from_graph(fig1, m=0.15)
        oracle = direct_ls_solve(rows).x
        out = run(rows, _chain(fig1, 0.15, seed=0), "known-n",
                  budget=50_000, oracle_x=oracle)
        assert np.abs(out.state.x - oracle).max() < 1e-3

    def test_single_step_touches_row_support_only(self, fig1):
        rows = rows_from_graph(fig1, m=0.15)
        state = KaczmarzState.fresh(6, "known-n")
        step_known_n(state, 4, rows)
        touched = set(np.nonzero(state.x)[0])
        assert touched <= set(rows.idx[4].tolist())
        assert state.k == 1 and state.visits[4] == 1

    def test_fixed_point_is_stationary(self, fig1):
        rows = rows_from_graph(fig1, m=0.15)
        oracle = direct_ls_solve(rows).x
        state = KaczmarzState.fresh(6, "known-n")
        state.x[:] = oracle
        for s in range(6):
            step_known_n(state, s, rows)
        assert np.abs(state.x - oracle).max() < 1e-14

    def test_mass_emerges_without_normalization(self, fig1):
        rows = rows_from_graph(fig1, m=0.15)
        out = run(rows, _chain(fig1, 0.15, seed=1), "known-n", budget=50_000)
        assert abs(out.state.x.sum() - 1) < 5e-3

    def test_log_linear_error_decay(self, fig1):
        rows = rows_from_graph(fig1, m=0.15)
        oracle = direct_ls_solve(rows).x
        out = run(rows, _chain(fig1, 1.0, seed=2), "known-n",
                  budget=20_000, oracle_x=oracle)
        ks, errs = [], []
        for row in out.trace_rows:
            k, err = row.split(",")[:2]
            if float(err) > 0:
                ks.append(float(k))
                errs.append(np.log(float(err)))
        slope = np.polyfit(ks, errs, 1)[0]
        assert slope < 0


class TestUnknownN:
    def test_converges_and_estimates_size(self, fig1):
        rows = rows_from_graph(fig1, m=0.15, n_known=False)
        oracle = direct_ls_solve(rows_from_graph(fig1, m=0.15)).x
        out = run(rows, _chain(fig1, 0.0, seed=0), "unknown-n",
                  budget=100_000, oracle_x=oracle)
        assert np.abs(out.state.x - oracle).max() < 2e-3
        est = out.state.k / out.state.visits
        assert np.abs(est - 6).max() < 0.12  # every node within 2%

    def test_stepsize_is_visit_frequency(self, fig1):
        rows = rows_from_graph(fig1, m=0.15, n_known=False)
        state = KaczmarzState.fresh(6, "unknown-n")
        _, a1 = step_unknown_n(state, 2, rows)
        assert a1 == 1.0          # visits=1, k+1=1
        _, a2 = step_unknown_n(state, 2, rows)
        assert a2 == 1.0          # visits=2, k+1=2
        _, a3 = step_unknown_n(state, 0, rows)
        assert a3 == pytest.approx(1 / 3)

    def test_never_reads_network_size(self, fig1, monkeypatch):
        # no step reads the rows' target y: rows with and without it give
        # the same bits in both modes, on the compiled steps (where they
        # load) and on the Python twin
        with_y = rows_from_graph(fig1, m=0.15)
        without_y = rows_from_graph(fig1, m=0.15, n_known=False)
        assert without_y.y is None
        for mode in ("known-n", "unknown-n"):
            states = []
            for twin in (False, True):
                if twin:
                    monkeypatch.setattr(_native, "load", lambda: None)
                for rows in (with_y, without_y):
                    states.append(run(rows, _chain(fig1, 0.15, seed=5), mode,
                                      budget=2_000).state)
            monkeypatch.undo()
            for st in states:
                assert st.k == 2_000
                assert st.x.tobytes() == states[0].x.tobytes()
                assert st.visits.tobytes() == states[0].visits.tobytes()

    def test_fifty_node_random_graph(self):
        # the mass mode decays like exp(-m^2 k / n^2): ~4e5 steps at n=50
        rng = np.random.default_rng(61)
        g = random_connected_digraph(rng, 50, p=0.5)
        rows = rows_from_graph(g, m=0.15, n_known=False)
        oracle = direct_ls_solve(rows_from_graph(g, m=0.15)).x
        out = run(rows, _chain(g, 0.0, seed=0), "unknown-n",
                  budget=400_000, oracle_x=oracle, trace_stride=10_000)
        assert np.abs(out.state.x - oracle).max() < 2e-3
        est = out.state.k / out.state.visits
        assert np.abs(est / 50 - 1).max() < 0.05

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            KaczmarzState.fresh(4, "sideways")


class TestTemporal:
    def test_static_sequence_matches_unknown_n(self, fig1):
        # a constant snapshot stream reduces exactly to the static solver
        w = build_hyperlink_matrix(fig1)
        kernels = build_transition_matrix_temporal([fig1], 0.0, joint_window=1)
        chain = SurferChain(matrix=kernels[0], omega=0.0, seed=0)
        pa = PersistentAverage(rho=1.0)
        out = run_temporal([w], kernels, chain, pa, m=0.15,
                           budget=30_000, snapshot_stride=1000)
        twin = run(rows_from_graph(fig1, m=0.15, n_known=False),
                   _chain(fig1, 0.0, seed=0), "unknown-n", budget=30_000)
        assert np.abs(out.state.x - twin.state.x).max() < 1e-12

    def test_alternating_snapshots_converge_to_average(self):
        text = ("0 a b\n0 b a\n0 b c\n0 c b\n0 c a\n"
                "1 a c\n1 c a\n1 b c\n1 c b\n1 a b")
        seq = parse_temporal_edge_list(text)
        graphs = [g for _, g in seq.snapshots]
        # repeat the pair so the average settles
        graphs = graphs * 40
        mats = [build_hyperlink_matrix(g) for g in graphs]
        kernels = build_transition_matrix_temporal(graphs, 0.0, joint_window=1)
        chain = SurferChain(matrix=kernels[0], omega=0.0, seed=0)
        pa = PersistentAverage(rho=1.0)
        out = run_temporal(mats, kernels, chain, pa, m=0.15,
                           budget=len(graphs) * 2000, snapshot_stride=2000)
        from centrasim.oracles import build_regression_rows
        avg_rows = build_regression_rows(pa.wbar, m=0.15)
        oracle = direct_ls_solve(avg_rows).x
        assert np.abs(out.state.x - oracle).max() < 1e-3

    def test_snapshot_schedule(self, fig1):
        # two identical snapshots: persistent average must have z == 2
        w = build_hyperlink_matrix(fig1)
        kernels = build_transition_matrix_temporal([fig1, fig1], 0.0,
                                                   joint_window=1)
        chain = SurferChain(matrix=kernels[0], omega=0.0, seed=0)
        pa = PersistentAverage(rho=1.0)
        run_temporal([w, w], kernels, chain, pa, m=0.15,
                     budget=200, snapshot_stride=100)
        assert pa.z == 2.0

    def test_single_step_row_comes_from_average(self, fig1):
        w = build_hyperlink_matrix(fig1)
        pa = PersistentAverage(rho=1.0).update(w)
        rows = rows_from_graph(fig1, m=0.15, n_known=False)
        a = KaczmarzState.fresh(6, "temporal")
        b = KaczmarzState.fresh(6, "unknown-n")
        step_temporal(a, 3, build_regression_rows(pa.wbar, 0.15, n_known=False))
        step_unknown_n(b, 3, rows)
        assert np.abs(a.x - b.x).max() < 1e-15


# 20 000 steps of each size mode on the pickled graph, on the compiled
# steps (when the library loads) and on the Python twin: one line each,
# mode, path and the digest of the iterate's bytes; then, for the known-size
# run, whose rows carry the target, one line "residual", path and the digest
# of its traced residual column and of each traced residual's exact bits
BLAS_CHILD = r"""
import hashlib
import pickle
import sys

from centrasim import _native, engine
from centrasim.graph import symmetrize
from centrasim.oracles import ls_objective, rows_from_graph
from centrasim.surfer import SurferChain, _metropolis_hastings

exact = []


def traced_residual(x, rows):
    r = ls_objective(x, rows)
    exact.append(r.hex())
    return r


engine.ls_objective = traced_residual
with open(sys.argv[1], "rb") as fh:
    g = pickle.load(fh)
kernel = _metropolis_hastings(symmetrize(g))
for library in (_native.load(), None):
    _native.load = lambda: library
    for mode in ("known-n", "unknown-n"):
        chain = SurferChain(matrix=kernel, omega=0.15, seed=1)
        rows = rows_from_graph(g, 0.15, n_known=mode == "known-n")
        exact.clear()
        out = engine.run(rows, chain, mode, 20_000, trace_stride=1_000)
        x = out.state.x
        print(mode, library is not None, hashlib.sha256(x.tobytes()).hexdigest())
        if rows.y is not None:
            column = [row.split(",")[2] for row in out.trace_rows]
            text = "\n".join(column + exact).encode()
            print("residual", library is not None, hashlib.sha256(text).hexdigest())
"""


def test_iterate_bits_do_not_depend_on_the_blas_kernel(tmp_path):
    """OpenBLAS picks its kernels by CPU, and OPENBLAS_CORETYPE forces one
    in a single process. The iterate and the residual column must not move
    under either kernel, on either step path: neither sum uses BLAS."""
    g = weblike_graph(np.random.default_rng(101), 400)
    (tmp_path / "g.pkl").write_bytes(pickle.dumps(g))
    src = str(Path(centrasim.__file__).resolve().parents[1])
    digests = {}
    for coretype in (None, "Prescott"):
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_CHILD, str(tmp_path / "g.pkl")],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        for line in proc.stdout.splitlines():
            mode, compiled, digest = line.split()
            digests.setdefault(mode, {})[coretype, compiled] = digest
    paths = {"True", "False"} if HAVE_CC else {"False"}
    for mode in ("known-n", "unknown-n", "residual"):
        assert set(digests[mode]) == {(c, p) for c in (None, "Prescott")
                                      for p in paths}
        assert len(set(digests[mode].values())) == 1, (mode, digests[mode])
