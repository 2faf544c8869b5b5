import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import centrasim
import centrasim.cli as cli
from centrasim import surfer
from centrasim.cli import DEFAULTS, KEYS, main
from centrasim.graph import parse_edge_list, parse_temporal_edge_list, \
    repair_dangling
from centrasim.levelsets import CentralityVector
from centrasim.matrix import build_hyperlink_matrix
from centrasim.oracles import LsSolution, build_regression_rows, direct_ls_solve
from centrasim.tables import serialize_centrality

from conftest import DANGLING_TEXT, FIG1_TEXT, TEMPORAL_TEXT, dense50_graph, \
    read_table, serialize_edge_list
from test_acceptance import weblike_graph

TABLE1 = {
    "degree": [.1667, .1667, .2500, .1667, .0833, .1667],
    "closeness": [.1708, .1708, .2196, .1708, .1281, .1398],
    "pagerank": [.0727, .1122, .1986, .2963, .1131, .2072],
}


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT)
    return path


def _read(tmp_path, name):
    values, labels, header = read_table((tmp_path / name).read_text())
    return labels, values, header


def _two_cycle(tmp_path, command):
    path = tmp_path / "in.txt"
    path.write_text("0 a b\n0 b a\n" if command == "pagerank-temporal"
                    else "a b\nb a\n")
    return path


def _unread(flags):
    """(command, key) pairs outside KEYS; with flags, also oracle_tol, which
    is config-only. A mode pair keeps the id it had when only --mode was
    checked: the command name."""
    return [pytest.param(cmd, key, id=cmd if key == "mode" else f"{cmd}-{key}")
            for cmd in KEYS for key in DEFAULTS
            if key not in KEYS[cmd] or (flags and key == "oracle_tol")]


class TestCentrality:
    def test_table_values(self, fig1_file, tmp_path):
        rc = main(["centrality", str(fig1_file), "--output-dir", str(tmp_path)])
        assert rc == 0
        for kind, expect in TABLE1.items():
            labels, values, _ = _read(tmp_path, f"{kind}.csv")
            assert labels == ["1", "2", "3", "4", "5", "6"]
            assert np.abs(values - expect).max() < 5e-4

    def test_betweenness_method_tag(self, fig1_file, tmp_path):
        main(["centrality", str(fig1_file), "--output-dir", str(tmp_path)])
        _, _, header = _read(tmp_path, "betweenness.csv")
        assert header["method"] == "oracle"  # the fixture is not a tree

    def test_tree_uses_distributed_method(self, tmp_path):
        tree = tmp_path / "tree.txt"
        tree.write_text("a b\nb c\nc d\n")
        out = tmp_path / "out"
        rc = main(["centrality", str(tree), "--output-dir", str(out)])
        assert rc == 0
        labels, values, header = _read(out, "betweenness.csv")
        assert header["method"] == "distributed"
        assert np.allclose(values, [0, 0.5, 0.5, 0])

    @pytest.mark.parametrize("command,text", [
        ("centrality", "b a\nb c\na,x b\nc a\n"),
        ("pagerank-temporal", "0 b a\n0 b c\n0 a,x b\n0 c a\n")],
        ids=["centrality", "pagerank-temporal"])
    def test_comma_in_label_exit_1(self, tmp_path, capsys, command, text):
        # a label,value table row could not be split back into two columns
        f = tmp_path / "in.txt"
        f.write_text(text)
        out = tmp_path / "new"
        rc = main([command, str(f), "--output-dir", str(out)])
        assert rc == 1
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()


class TestPagerank:
    def test_unknown_n_run(self, fig1_file, tmp_path):
        rc = main(["pagerank", str(fig1_file), "--mode", "unknown-n",
                   "--omega", "0", "--iterations", "100000",
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        _, values, header = _read(tmp_path, "vector.csv")
        assert np.abs(values - TABLE1["pagerank"]).max() < 2e-3
        assert header["mode"] == "unknown-n"
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "k,error,residual,alpha_inv,active_node"
        assert len(trace) == 1 + 1000  # stride 100 over 1e5 steps

    @pytest.mark.parametrize("graph,n,flags", [
        ("fig1", 6, ["--omega", "0", "--iterations", "20000", "--seed", "5"]),
        ("dense50", 50, ["--omega", "0.15", "--iterations", "30000",
                         "--seed", "2"]),
    ], ids=["fig1", "dense50"])
    def test_dist_mode_matches_engine(self, tmp_path, graph, n, flags):
        path = tmp_path / "in.txt"
        path.write_text(FIG1_TEXT if graph == "fig1"
                        else serialize_edge_list(dense50_graph()))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["pagerank", str(path), "--mode", "unknown-n", *flags,
                     "--output-dir", str(out_a)]) == 0
        assert main(["pagerank", str(path), "--mode", "dist", *flags,
                     "--output-dir", str(out_b)]) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        eng, dist = _read(out_a, "vector.csv"), _read(out_b, "vector.csv")
        assert eng[0] == dist[0] and eng[1].tobytes() == dist[1].tobytes()
        sizes = (out_b / "size_estimates.csv").read_text().splitlines()
        assert sizes[0] == "# kind=size_estimate"
        est = [float(line.split(",")[1]) for line in sizes[1:]]
        assert np.abs(np.array(est) - n).max() < n / 6

    def test_deterministic_outputs(self, fig1_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            main(["pagerank", str(fig1_file), "--iterations", "5000",
                  "--seed", "3", "--output-dir", str(out)])
        for name in ("vector.csv", "trace.csv", "oracle.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_round_trip_equals_memory(self, fig1_file, tmp_path):
        main(["pagerank", str(fig1_file), "--iterations", "5000",
              "--seed", "3", "--output-dir", str(tmp_path)])
        text = (tmp_path / "vector.csv").read_text()
        values, labels, meta = read_table(text)
        cv = CentralityVector(values=values, kind=meta["kind"],
                              normalized=meta["normalized"] == "true")
        again = serialize_centrality(cv, labels,
                                     extras={"mode": "unknown-n", "seed": 3})
        assert again == text

    def test_oracle_past_ten_thousand_nodes(self, tmp_path):
        n = 10_001  # a ring with chords
        f = tmp_path / "ring.txt"
        f.write_text("".join(f"{i} {(i + 1) % n}\n{i} {(i + 37) % n}\n"
                             for i in range(n)))
        rc = main(["pagerank", str(f), "--iterations", "200",
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        _, oracle, header = _read(tmp_path, "oracle.csv")
        assert np.allclose(oracle, 1 / n, rtol=1e-12)
        assert np.isfinite(float(header["final_error"]))
        trace = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert trace and all(np.isfinite(float(row.split(",")[1]))
                             for row in trace)

    def test_disconnected_omega_zero_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a b\nb a\nc d\nd c\n")
        rc = main(["pagerank", str(bad), "--omega", "0",
                   "--iterations", "100", "--output-dir", str(tmp_path)])
        assert rc == 2

    def test_malformed_input_exit_1(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a b c d\n")
        rc = main(["pagerank", str(bad), "--output-dir", str(tmp_path)])
        assert rc == 1

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["pagerank"])  # missing input
        assert exc.value.code == 1

    @pytest.mark.parametrize("mode", ["unknown-n", "dist"])
    def test_zero_trace_stride_exit_1(self, fig1_file, tmp_path, mode):
        rc = main(["pagerank", str(fig1_file), "--mode", mode,
                   "--trace-stride", "0", "--output-dir", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("command", ["pagerank", "oracle"])
    def test_empty_input_exit_1(self, tmp_path, command):
        empty = tmp_path / "empty.txt"
        empty.write_text("# no edges\n")
        rc = main([command, str(empty), "--output-dir", str(tmp_path / "out")])
        assert rc == 1

    def test_input_is_directory_exit_1(self, tmp_path, capsys):
        rc = main(["centrality", str(tmp_path), "--output-dir",
                   str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_output_dir_is_file_exit_1(self, fig1_file, tmp_path, capsys):
        rc = main(["oracle", str(fig1_file), "--output-dir", str(fig1_file)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command,key", _unread(flags=True))
    def test_mode_flag_only_on_pagerank(self, tmp_path, capsys, command, key):
        """Every flag a command does not read is a usage error, --mode
        outside pagerank among them."""
        flag = "--" + key.replace("_", "-")
        out = tmp_path / "new"
        with pytest.raises(SystemExit) as exc:
            main([command, str(_two_cycle(tmp_path, command)),
                  flag, str(DEFAULTS[key]), "--output-dir", str(out)])
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", [
        ("pagerank", "--mode"), *[(cmd, "--dangling") for cmd in KEYS]])
    def test_bad_choice_flag_exit_1_before_output_dir(self, tmp_path, capsys,
                                                      command, flag):
        out = tmp_path / "new"
        rc = main([command, str(_two_cycle(tmp_path, command)), flag, "foo",
                   "--output-dir", str(out)])
        assert rc == 1
        assert "foo" in capsys.readouterr().err
        assert not out.exists()

    def test_output_dir_checked_before_computing(self, fig1_file, monkeypatch,
                                                 capsys):
        import centrasim.cli as cli
        called = []
        for name in ("power_method", "brandes_betweenness"):
            monkeypatch.setattr(cli, name,
                                lambda *a, name=name, **k: called.append(name))
        rc = main(["oracle", str(fig1_file), "--output-dir", str(fig1_file)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert called == []

    @pytest.mark.parametrize("command,text,flags,code", [
        ("pagerank", "a b\nb a\nc d\nd c\n", ["--omega", "0"], 2),
        ("pagerank-temporal", "0 a b\n0 b a\n0 c d\n0 d c\n"
         "1 b c\n1 c b\n1 d a\n1 a d\n", ["--omega", "0"], 2),
        ("oracle", "a b\nb a\nb c\nc b\n", ["--damping", "1e-6"], 3),
        ("pagerank", "a b\nb a\nb c\nc b\n", ["--damping", "1e-6"], 3),
        ("centrality", "a b\nb a\nb c\nc b\n", ["--damping", "1e-6"], 3),
    ], ids=["disconnected", "joint-window", "no-convergence",
            "pagerank-no-convergence", "centrality-no-convergence"])
    def test_failed_run_leaves_nothing(self, tmp_path, monkeypatch, command,
                                       text, flags, code):
        """The output directories a failed run created are removed again."""
        (tmp_path / "in.txt").write_text(text)
        monkeypatch.chdir(tmp_path)
        budget = ["--iterations", "100"] if command.startswith("pagerank") else []
        rc = main([command, "in.txt", *flags, *budget, "--output-dir", "new/a/b"])
        assert rc == code
        assert not (tmp_path / "new").exists()

    def test_dist_locality_failure_writes_nothing(self, fig1_file, tmp_path,
                                                  monkeypatch):
        from centrasim.simulator import LocalityAudit
        monkeypatch.setattr(LocalityAudit, "violations",
                            lambda self, actors: [(0, 0, [99])])
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["pagerank", str(fig1_file), "--mode", "dist",
                   "--iterations", "200", "--output-dir", str(out)])
        assert rc == 3
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("dangling,code", [("uniform-column", 3),
                                               ("backlink", 0)])
    def test_dist_audit_checks_the_graph(self, tmp_path, monkeypatch, capsys,
                                         dangling, code):
        """d is dangling. Uniform-column repair puts d's column in every
        row, but the graph has no edge d -> a: the audit fails the run,
        which writes nothing and removes the directories it made. Backlink
        repair adds the edge d -> c, the only row d's column enters."""
        (tmp_path / "in.txt").write_text("a b\nb c\nc a\nc d\n")
        monkeypatch.chdir(tmp_path)
        rc = main(["pagerank", "in.txt", "--mode", "dist", "--dangling",
                   dangling, "--iterations", "200", "--output-dir", "new/out"])
        assert rc == code
        err = capsys.readouterr().err
        if code:
            assert err == "internal consistency failure: locality audit " \
                          "found non-neighbor accesses\n"
            assert not (tmp_path / "new").exists()
        else:
            assert err == ""
            assert sorted(p.name for p in (tmp_path / "new" / "out").iterdir()) \
                == ["oracle.csv", "size_estimates.csv", "trace.csv", "vector.csv"]

    def test_failed_write_leaves_no_table(self, fig1_file, tmp_path, capsys):
        """A table that cannot be written (its target is a directory) fails
        the run before any table is written; other files stay as they were
        and no temporary file is left."""
        out = tmp_path / "out"
        (out / "trace.csv").mkdir(parents=True)
        (out / "vector.csv").write_text("old\n")
        rc = main(["pagerank", str(fig1_file), "--mode", "dist",
                   "--iterations", "200", "--output-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trace.csv" in err
        assert sorted(p.name for p in out.iterdir()) == ["trace.csv", "vector.csv"]
        assert list((out / "trace.csv").iterdir()) == []
        assert (out / "vector.csv").read_text() == "old\n"

    def test_failed_write_removes_new_directories(self, fig1_file, tmp_path,
                                                  monkeypatch):
        """A table that fails midway through the writes (it cannot be
        encoded) leaves neither the tables written before it nor the
        directories the run made."""
        monkeypatch.setattr(cli, "cmd_oracle",
                            lambda text, cfg: {"a.csv": "a\n", "b.csv": "\udcff"})
        rc = main(["oracle", str(fig1_file), "--output-dir",
                   str(tmp_path / "new" / "out")])
        assert rc == 1
        assert not (tmp_path / "new").exists()

    def test_failed_rename_reports_its_error_and_leaves_no_temporary(
            self, fig1_file, tmp_path, monkeypatch, capsys):
        """The second of three renames into a new directory fails: the run
        exits 1 with that error, not the directory cleanup's, and removes
        the temporaries it did not rename."""
        out, real, renames = tmp_path / "new", os.replace, []

        def replace(src, dst):
            if Path(dst).parent == out:  # not the library cache's rename
                renames.append(dst)
                if len(renames) == 2:
                    raise OSError("disk full")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        rc = main(["pagerank", str(fig1_file), "--iterations", "200",
                   "--output-dir", str(out)])
        assert rc == 1
        assert "disk full" in capsys.readouterr().err
        assert len(renames) == 2
        assert [p.name for p in tmp_path.rglob("*.tmp")] == []

    def test_out_of_memory_exit_1(self, fig1_file, tmp_path, monkeypatch,
                                  capsys):
        """An allocation that fails (the n x n BFS distances, say) ends in
        exit 1, not a traceback, and leaves no output directory."""
        def cmd_oracle(text, cfg):
            raise MemoryError("Unable to allocate 119. GiB")

        monkeypatch.setattr(cli, "cmd_oracle", cmd_oracle)
        out = tmp_path / "new" / "out"
        rc = main(["oracle", str(fig1_file), "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: out of memory: Unable to allocate 119. GiB\n"
        assert not (tmp_path / "new").exists()


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, fig1_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 1000\nseed = 9\ntrace-stride = 50\n")
        out = tmp_path / "out"
        main(["pagerank", str(fig1_file), "--config", str(cfg),
              "--iterations", "2000", "--output-dir", str(out)])
        header = _read(out, "vector.csv")[2]
        assert header["seed"] == "9"                     # from config
        trace = (out / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + 2000 // 50              # flag beat config

    def test_bad_config_line_exit_1(self, fig1_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations 1000\n")
        rc = main(["pagerank", str(fig1_file), "--config", str(cfg),
                   "--output-dir", str(tmp_path)])
        assert rc == 1

    def test_unknown_config_key_exit_1(self, fig1_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dampnig = 0.5\n")
        rc = main(["pagerank", str(fig1_file), "--config", str(cfg),
                   "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "dampnig" in capsys.readouterr().err

    def test_bad_mode_in_config_exit_1_before_output_dir(self, fig1_file,
                                                          tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = foo\n")
        out = tmp_path / "new"
        rc = main(["pagerank", str(fig1_file), "--config", str(cfg),
                   "--output-dir", str(out)])
        assert rc == 1
        assert "foo" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [FIG1_TEXT, "a b\nb c\nc a\nc d\n"],
                             ids=["no-dangling", "dangling"])
    def test_bad_dangling_in_config_exit_1_before_output_dir(
            self, tmp_path, capsys, text):
        graph = tmp_path / "g.txt"
        graph.write_text(text)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dangling = foo\n")
        out = tmp_path / "new"
        rc = main(["centrality", str(graph), "--config", str(cfg),
                   "--output-dir", str(out)])
        assert rc == 1
        assert "foo" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key", _unread(flags=False))
    def test_mode_in_config_rejected_where_unread(self, tmp_path, capsys,
                                                  command, key):
        """Every config key a command does not read is an error, mode outside
        pagerank among them."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {DEFAULTS[key]}\n")
        out = tmp_path / "new"
        rc = main([command, str(_two_cycle(tmp_path, command)),
                   "--config", str(cfg), "--output-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert repr(key) in err and repr(command) in err
        assert not out.exists()

    def test_mode_in_config_read_by_pagerank(self, fig1_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = known-n\niterations = 100\n")
        out = tmp_path / "out"
        rc = main(["pagerank", str(fig1_file), "--config", str(cfg),
                   "--output-dir", str(out)])
        assert rc == 0
        assert _read(out, "vector.csv")[2]["mode"] == "known-n"

    @pytest.mark.parametrize("command,flags,cfg,message", [
        ("pagerank", [], "iterations = 1e3",
         "config line 1: iterations = '1e3' is not an int"),
        ("oracle", [], "damping = high",
         "config line 1: damping = 'high' is not a float"),
        ("pagerank", ["--seed", "-1"], "", "seed must be >= 0"),
        ("pagerank-temporal", ["--joint-window", "-5"], "",
         "joint_window must be >= 1"),
        ("oracle", [], "oracle_tol = nan", "oracle_tol nan outside (0,inf)"),
        ("oracle", [], "oracle_tol = -1", "oracle_tol -1.0 outside (0,inf)"),
    ], ids=["int", "float", "seed", "joint-window", "tol-nan", "tol-negative"])
    def test_bad_value_exit_1_before_output_dir(self, tmp_path, capsys,
                                                monkeypatch, command, flags,
                                                cfg, message):
        import centrasim.cli as cli
        called = []
        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"),
                            lambda *a: called.append(command))
        (tmp_path / "run.cfg").write_text(cfg + "\n")
        out = tmp_path / "new"
        rc = main([command, str(_two_cycle(tmp_path, command)), *flags,
                   "--config", str(tmp_path / "run.cfg"), "--output-dir", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists() and called == []

    @pytest.mark.parametrize("key", ["trace-stride", "snapshot-stride"])
    def test_zero_stride_in_config_exit_1(self, tmp_path, capsys, key):
        # pagerank-temporal is the one command that reads both strides
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0\n")
        rc = main(["pagerank-temporal", str(_two_cycle(tmp_path, "pagerank-temporal")),
                   "--config", str(cfg), "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "must be >= 1" in capsys.readouterr().err


class TestTemporal:
    def test_constant_sequence_matches_static(self, fig1_file, tmp_path):
        temporal = tmp_path / "seq.txt"
        temporal.write_text("".join(f"0 {line}\n" for line
                                    in FIG1_TEXT.splitlines()
                                    if line and not line.startswith("#")))
        out_t, out_s = tmp_path / "t", tmp_path / "s"
        rc = main(["pagerank-temporal", str(temporal), "--omega", "0",
                   "--iterations", "50000", "--output-dir", str(out_t)])
        assert rc == 0
        main(["pagerank", str(fig1_file), "--mode", "unknown-n", "--omega", "0",
              "--iterations", "50000", "--output-dir", str(out_s)])
        _, xt, _ = _read(out_t, "vector.csv")
        _, xs, _ = _read(out_s, "vector.csv")
        assert np.abs(xt - xs).max() < 1e-6

    def test_wbar_column_sums(self, tmp_path):
        temporal = tmp_path / "seq.txt"
        temporal.write_text("0 a b\n0 b a\n0 b c\n0 c b\n"
                            "1 a c\n1 c a\n1 b c\n1 c b\n")
        rc = main(["pagerank-temporal", str(temporal), "--iterations", "2000",
                   "--snapshot-stride", "1000", "--output-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "wbar_colsums.csv").read_text().splitlines()
        sums = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.abs(np.array(sums) - 1).max() < 1e-12

    def test_zero_snapshot_stride_exit_1(self, tmp_path):
        temporal = tmp_path / "seq.txt"
        temporal.write_text("0 a b\n0 b a\n1 a b\n1 b a\n")
        rc = main(["pagerank-temporal", str(temporal), "--snapshot-stride", "0",
                   "--iterations", "100", "--output-dir", str(tmp_path)])
        assert rc == 1

    def test_node_missing_from_early_snapshot(self, tmp_path, capsys):
        """c has no edges at time 0, so its column there cannot be backlinked:
        exit 1 naming the snapshot; the uniform-column policy runs it."""
        seq = tmp_path / "seq.txt"
        seq.write_text("0 a b\n0 b a\n1 a b\n1 b a\n1 b c\n1 c b\n")
        out = tmp_path / "new"
        rc = main(["pagerank-temporal", str(seq), "--iterations", "100",
                   "--output-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "snapshot at time 0" in err and "'c'" in err
        assert "--dangling uniform-column" in err
        assert not out.exists()
        rc = main(["pagerank-temporal", str(seq), "--iterations", "100",
                   "--dangling", "uniform-column", "--output-dir", str(out)])
        assert rc == 0
        assert _read(out, "vector.csv")[0] == ["a", "b", "c"]

    def test_joint_window_violation_exit_2(self, tmp_path):
        temporal = tmp_path / "seq.txt"
        temporal.write_text("0 a b\n0 b a\n0 c d\n0 d c\n"
                            "1 b c\n1 c b\n1 d a\n1 a d\n")
        rc = main(["pagerank-temporal", str(temporal), "--omega", "0",
                   "--joint-window", "1", "--iterations", "100",
                   "--output-dir", str(tmp_path)])
        assert rc == 2
        rc = main(["pagerank-temporal", str(temporal), "--omega", "0",
                   "--joint-window", "2", "--iterations", "100",
                   "--output-dir", str(tmp_path)])
        assert rc == 0

    def test_repeated_windows_are_each_checked(self, tmp_path, capsys):
        """Snapshots A, A, B, B at window 2: A alone and A with B are
        connected, B alone is not, so the last window [2, 4) fails although
        every snapshot in it was seen in a window that passed."""
        a = ["a b", "b c", "c d", "d a"]
        b = ["a b", "b a", "c d", "d c"]
        temporal = tmp_path / "seq.txt"
        temporal.write_text("".join(f"{t} {e}\n" for t, edges in
                                    enumerate([a, a, b, b]) for e in edges))
        out = tmp_path / "out"
        rc = main(["pagerank-temporal", str(temporal), "--omega", "0",
                   "--joint-window", "2", "--iterations", "100",
                   "--output-dir", str(out)])
        assert rc == 2
        assert "snapshots [2, 4)" in capsys.readouterr().err
        assert not out.exists()

    def test_equal_snapshots_share_one_graph_and_build(self, tmp_path,
                                                       monkeypatch):
        """A, A, B, A, A with A's lines reordered or repeated: the parser
        gives every A one graph object, and the run builds one hyperlink
        matrix and one surfer kernel for each of A and B."""
        a = ["a b", "b c", "c a"]
        b = ["a b", "b a", "b c", "c b"]
        text = "".join(f"{t} {e}\n" for t, edges in
                       enumerate([a, a[::-1], b, a, a + ["a b"]]) for e in edges)
        g = [g for _, g in parse_temporal_edge_list(text).snapshots]
        assert g[0] is g[1] is g[3] is g[4]
        assert g[2] is not g[0]

        builds = {"matrix": 0, "kernel": 0}

        def counted(name, fn):
            def wrapper(*args):
                builds[name] += 1
                return fn(*args)
            return wrapper
        monkeypatch.setattr(cli, "build_hyperlink_matrix",
                            counted("matrix", cli.build_hyperlink_matrix))
        monkeypatch.setattr(surfer, "_metropolis_hastings",
                            counted("kernel", surfer._metropolis_hastings))
        seq = tmp_path / "seq.txt"
        seq.write_text(text)
        rc = main(["pagerank-temporal", str(seq), "--iterations", "500",
                   "--snapshot-stride", "100", "--output-dir", str(tmp_path)])
        assert rc == 0
        assert builds == {"matrix": 2, "kernel": 2}


class TestOracle:
    def test_fixture_tables(self, fig1_file, tmp_path):
        rc = main(["oracle", str(fig1_file), "--output-dir", str(tmp_path)])
        assert rc == 0
        _, pr, header = _read(tmp_path, "pagerank.csv")
        assert np.abs(pr - TABLE1["pagerank"]).max() < 5e-4
        assert float(header["error_bound"]) < 1e-8
        _, clo, _ = _read(tmp_path, "closeness.csv")
        assert np.abs(clo - TABLE1["closeness"]).max() < 5e-4

    def test_two_cycle_uniform(self, tmp_path):
        f = tmp_path / "two.txt"
        f.write_text("a b\nb a\n")
        rc = main(["oracle", str(f), "--output-dir", str(tmp_path)])
        assert rc == 0
        _, pr, _ = _read(tmp_path, "pagerank.csv")
        assert np.allclose(pr, [0.5, 0.5], atol=1e-12)

    def test_consistency_guard_exit_3(self, fig1_file, tmp_path):
        rc = main(["oracle", str(fig1_file), "--output-dir", str(tmp_path),
                   "--config", str(_tight_tol(tmp_path))])
        assert rc == 3

    def test_power_method_not_converging_exit_3(self, tmp_path, capsys):
        # a periodic graph at damping near 0: the iterate oscillates
        f = tmp_path / "bip.txt"
        f.write_text("a b\nb a\nb c\nc b\n")
        rc = main(["oracle", str(f), "--damping", "1e-6",
                   "--output-dir", str(tmp_path)])
        assert rc == 3
        assert "did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("graph", ["fig1", "web400"])
    def test_error_bound_covers_true_error(self, tmp_path, monkeypatch, graph):
        text = FIG1_TEXT if graph == "fig1" else "".join(
            f"{u} {v}\n" for u, v in sorted(
                weblike_graph(np.random.default_rng(101), 400).edges))
        f = tmp_path / "in.txt"
        f.write_text(text)
        g = repair_dangling(parse_edge_list(text), "backlink")
        x_star = direct_ls_solve(build_regression_rows(
            build_hyperlink_matrix(g), DEFAULTS["damping"])).x
        loose = tmp_path / "loose.cfg"
        loose.write_text("oracle_tol = 1\n")
        rng = np.random.default_rng(7)
        for scale in (1e-12, 1e-9, 1e-6):
            delta = scale * rng.standard_normal(g.n)
            monkeypatch.setattr(cli, "power_method",
                                lambda w, m, **k: LsSolution(x=x_star + delta))
            out = tmp_path / f"out{scale}"
            rc = main(["oracle", str(f), "--config", str(loose),
                       "--output-dir", str(out)])
            assert rc == 0
            _, _, header = _read(out, "pagerank.csv")
            assert float(header["error_bound"]) >= np.abs(delta).sum()

    def test_perturbed_vector_exit_3(self, fig1_file, tmp_path, monkeypatch,
                                     capsys):
        real = cli.power_method
        monkeypatch.setattr(cli, "power_method", lambda w, m, **k: LsSolution(
            x=real(w, m, **k).x + 1e-6))
        out = tmp_path / "new" / "a"
        rc = main(["oracle", str(fig1_file), "--output-dir", str(out)])
        assert rc == 3
        assert "error bound" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()


def _tight_tol(tmp_path):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("oracle-tol = 1e-18\n")
    return cfg


# Dead-option guard: each key in KEYS, set away from the base run, must change
# an output value or the exit code. Every input has a dangling node, so that the
# repair policy shows.
GUARD_INPUT = {"centrality": DANGLING_TEXT, "pagerank": DANGLING_TEXT,
               "pagerank-temporal": TEMPORAL_TEXT, "oracle": DANGLING_TEXT}
GUARD_BASE = {"pagerank": "iterations = 300\n",
              "pagerank-temporal": "iterations = 300\nsnapshot_stride = 100\n"}
# joint_window is read only at omega = 0, where a window too short to connect
# the snapshots' union exits 2
GUARD_SPECIAL = {("pagerank-temporal", "joint_window"): (
    "0 a b\n0 b a\n0 c d\n0 d c\n1 b c\n1 c b\n1 d a\n1 a d\n",
    "omega = 0\niterations = 100\n")}
GUARD_VALUE = {"damping": "0.3", "omega": "0.5", "rho": "0.5",
               "iterations": "400", "seed": "1", "mode": "known-n",
               "dangling": "uniform-column", "snapshot_stride": "50",
               "joint_window": "2", "trace_stride": "7",
               "output_dir": "elsewhere", "oracle_tol": "1e-18"}


def _tree_values(root):
    """{path: lines} of every file under root, less the '#' header lines,
    which echo some keys without showing that they act."""
    return {str(f.relative_to(root)): [line for line in f.read_bytes().splitlines()
                                       if not line.startswith(b"#")]
            for f in sorted(root.rglob("*")) if f.is_file()}


@pytest.mark.parametrize("command,key",
                         [(cmd, key) for cmd in KEYS for key in KEYS[cmd]])
def test_every_read_key_changes_the_run(tmp_path, monkeypatch, command, key):
    text, base = GUARD_SPECIAL.get(
        (command, key), (GUARD_INPUT[command], GUARD_BASE.get(command, "")))
    (tmp_path / "in.txt").write_text(text)
    runs = []
    for name, cfg in (("base", base), ("varied", f"{base}{key} = {GUARD_VALUE[key]}\n")):
        (tmp_path / f"{name}.cfg").write_text(cfg)
        work = tmp_path / name  # the default output directory is "."
        work.mkdir()
        monkeypatch.chdir(work)
        rc = main([command, str(tmp_path / "in.txt"),
                   "--config", str(tmp_path / f"{name}.cfg")])
        runs.append((rc, _tree_values(work)))
    assert runs[0] != runs[1]


# numpy is the only runtime dependency: with scipy blocked (any import of it
# raises ImportError), the names the acceptance gate imports, the reference
# LS solve and every command still run.
NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None
import centrasim
from centrasim import cli
from centrasim.engine import run, run_temporal
from centrasim.graph import (DirectedGraph, parse_edge_list, repair_dangling,
                             symmetrize)
from centrasim.levelsets import (closeness_centrality, degree_centrality,
                                 normalize, run_levelset, tree_betweenness)
from centrasim.matrix import PersistentAverage, build_hyperlink_matrix
from centrasim.oracles import (bfs_all_pairs, brandes_betweenness,
                               build_regression_rows, direct_ls_solve,
                               power_method, rows_from_graph)
from centrasim.simulator import assemble_vector, run_simulation
from centrasim.surfer import (SurferChain, build_transition_matrix,
                              build_transition_matrix_temporal,
                              empirical_stationary)
fig1 = parse_edge_list(open("fig1.txt").read())
x = direct_ls_solve(rows_from_graph(fig1, 0.15)).x
assert abs(x.sum() - 1) < 1e-12, x
for argv in (["centrality", "fig1.txt"], ["pagerank", "fig1.txt"],
             ["pagerank", "fig1.txt", "--mode", "dist"],
             ["pagerank-temporal", "seq.txt"], ["oracle", "fig1.txt"]):
    rc = cli.main([*argv, "--iterations", "500"] if "pagerank" in argv[0]
                  else argv)
    assert rc == 0, argv
"""


def test_cli_commands_never_import_scipy(tmp_path):
    (tmp_path / "fig1.txt").write_text(FIG1_TEXT)
    (tmp_path / "seq.txt").write_text("0 a b\n0 b a\n0 b c\n0 c b\n"
                                      "1 a c\n1 c a\n1 b c\n1 c b\n")
    src = Path(centrasim.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# The compiled library is found or built on first use: on a run's first
# block of engine or node-actor steps, or in Brandes and BFS. A pass of no
# steps never loads it; a run of steps asks for it once.
# each command's first request for the library comes from its parse, which
# loads it; the steps and the oracles ask again and find it loaded
LIBRARY_SCRIPT = """
import sys
from centrasim import _native, cli

asked, load = [], _native.load


def asking():
    asked.append(sys._getframe(1).f_code.co_name)
    return load()


_native.load = asking
steps = ["--iterations", "500"]
for argv, later in (
        (["pagerank", "fig1.txt", "--iterations", "0"], []),
        (["pagerank", "fig1.txt", "--mode", "dist", "--iterations", "0"], []),
        (["pagerank-temporal", "seq.txt", "--iterations", "0"], []),
        (["pagerank", "fig1.txt", *steps], ["call"]),
        (["pagerank", "fig1.txt", "--mode", "dist", *steps], ["call"]),
        (["pagerank-temporal", "seq.txt", *steps], ["call"]),
        (["centrality", "fig1.txt"], ["brandes_betweenness"]),
        (["oracle", "fig1.txt"], ["brandes_betweenness", "bfs_all_pairs"])):
    load.cache_clear()
    asked.clear()
    assert cli.main(argv) == 0, argv
    assert asked == ["_compiled", *later], (argv, asked)
    assert load.cache_info().misses == 1, argv
"""


def test_every_command_loads_the_library_once_at_its_parse(tmp_path):
    (tmp_path / "fig1.txt").write_text(FIG1_TEXT)
    (tmp_path / "seq.txt").write_text("0 a b\n0 b a\n0 b c\n0 c b\n"
                                      "1 a c\n1 c a\n1 b c\n1 c b\n")
    src = Path(centrasim.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", LIBRARY_SCRIPT], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# the package loads a module when one of its names is first read, and a run
# of no steps draws no uniform, so it never imports numpy.random
IMPORT_SCRIPT = """
import sys
import centrasim
assert not [m for m in sys.modules if m.startswith(("centrasim.", "numpy"))]
assert all(getattr(centrasim, name) for name in centrasim.__all__)
from centrasim import cli
for argv in (["pagerank", "fig1.txt"], ["pagerank", "fig1.txt", "--mode", "dist"],
             ["pagerank-temporal", "seq.txt"]):
    assert cli.main([*argv, "--iterations", "0"]) == 0, argv
assert "numpy.random" not in sys.modules
"""


def test_import_and_a_run_of_no_steps_load_only_what_they_read(tmp_path):
    (tmp_path / "fig1.txt").write_text(FIG1_TEXT)
    (tmp_path / "seq.txt").write_text("0 a b\n0 b a\n1 a b\n1 b a\n")
    src = Path(centrasim.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(AttributeError, match="no_such_name"):
        centrasim.no_such_name
