"""End-to-end command-line smoke tests (exit codes and key output lines)."""

import pytest

from asap_pool.cli import main
from asap_pool.model import load_checkpoint
from asap_pool.theory import _OPTIMUM_NODE_LIMIT, _SAMPLING_NODE_LIMIT

from test_datasets import BASE_FILES, write_fixture


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **overrides):
    fields = dict(hidden=16, epochs=1, batch_size=16, folds=3)
    fields.update(overrides)
    path = tmp_path / "train.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    return str(path)


# ---------------------------------------------------------------------------
# ingest


def test_ingest_reports_statistics(tmp_path, capsys):
    write_fixture(tmp_path, "TOY", BASE_FILES)
    code, out, _ = run(["ingest", "--dir", str(tmp_path), "--name", "TOY"], capsys)
    assert code == 0
    assert "dataset TOY: 2 graphs, 2 classes" in out
    assert "mean nodes 2.50" in out


def test_ingest_check_stats_unknown_name(tmp_path, capsys):
    write_fixture(tmp_path, "TOY", BASE_FILES)
    code, out, _ = run(
        ["ingest", "--dir", str(tmp_path), "--name", "TOY", "--check-stats"], capsys
    )
    assert code == 1
    assert "no published statistics" in out


def test_ingest_check_stats_resolves_alias_name(tmp_path, capsys):
    write_fixture(tmp_path, "D&D", BASE_FILES)
    code, out, _ = run(["ingest", "--dir", str(tmp_path), "--name", "D&D", "--check-stats"], capsys)
    assert code == 1
    assert "no published statistics" not in out
    assert "expected 1178" in out  # the DD row
    assert "stats check: FAIL" in out


def test_ingest_check_stats_mismatch_fails(tmp_path, capsys):
    write_fixture(tmp_path, "PROTEINS", BASE_FILES)
    code, out, _ = run(
        ["ingest", "--dir", str(tmp_path), "--name", "PROTEINS", "--check-stats"],
        capsys,
    )
    assert code == 1
    assert "MISMATCH" in out
    assert "stats check: FAIL" in out


def test_ingest_missing_directory_exits_with_usage_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent"
    code, out, err = run(["ingest", "--dir", str(missing), "--name", "FOO"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("--dir: ") and "missing dataset file" in err


def test_ingest_integer_outside_int64_exits_with_usage_error(tmp_path, capsys):
    write_fixture(tmp_path, "TOY", dict(BASE_FILES, graph_labels=["1", "99999999999999999999"]))
    code, out, err = run(["ingest", "--dir", str(tmp_path), "--name", "TOY"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("--dir: ") and "TOY_graph_labels.txt:2: bad graph label" in err


# ---------------------------------------------------------------------------
# train / sweep


def test_train_synthetic_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run(
        [
            "train",
            "--dataset", "synthetic",
            "--synthetic-graphs", "12",
            "--config", write_config(tmp_path),
            "--out", str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    assert "test_acc" in out
    assert (out_dir / "metrics.csv").is_file()
    assert (out_dir / "summary.txt").is_file()


def test_train_folds_override(tmp_path, capsys):
    code, out, _ = run(
        [
            "train",
            "--dataset", "synthetic",
            "--synthetic-graphs", "12",
            "--config", write_config(tmp_path, folds=10),
            "--folds", "3",
        ],
        capsys,
    )
    assert code == 0
    assert out.count("fold") >= 3


def test_train_folds_flag_is_the_config_the_checkpoints_record(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run(
        [
            "train",
            "--dataset", "synthetic",
            "--synthetic-graphs", "12",
            "--config", write_config(tmp_path, folds=10),
            "--folds", "3",
            "--out", str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    checkpoints = sorted(out_dir.glob("checkpoint_*.npz"))
    assert [path.name for path in checkpoints] == [f"checkpoint_seed0_fold{f}.npz" for f in range(3)]
    for path in checkpoints:
        assert load_checkpoint(path)[1]["train_config"]["folds"] == 3


def test_sweep_ranks_configurations(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("k = 0.5, 0.75\n")
    out_dir = tmp_path / "sweep"
    code, out, _ = run(
        [
            "sweep",
            "--dataset", "synthetic",
            "--synthetic-graphs", "12",
            "--config", write_config(tmp_path),
            "--grid", str(grid),
            "--out", str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    assert "rank  config" in out
    assert "k=0.5" in out and "k=0.75" in out
    assert (out_dir / "sweep.csv").is_file()


@pytest.mark.parametrize(
    "argv, overrides, message",
    [
        (["--folds", "2"], {}, "--folds 2: need at least 3 folds"),
        (["--synthetic-graphs", "0"], {}, "--synthetic-graphs 0: n_graphs must be"),
        (["--synthetic-graphs", "2"], {}, "--folds: cannot split the dataset's 2 graphs into 3 folds"),
        (["--seeds", "0"], {}, "--seeds must be >= 1"),
        (["--synthetic-seed", "-1"], {}, "--synthetic-seed must be >= 0"),
        ([], {"hidden": 7}, "--config: {config}:1: hidden must be one of"),
        ([], {"seed": -1}, "--config: {config}:5: seed must be non-negative"),
        (["--config", "missing.cfg"], {}, "--config: "),
    ],
    ids=[
        "folds", "synthetic-graphs", "more-folds-than-graphs", "seeds", "synthetic-seed", "config-hidden",
        "config-seed", "missing-config",
    ],
)
def test_train_rejects_bad_arguments_naming_the_flag(argv, overrides, message, tmp_path, capsys):
    config = write_config(tmp_path, **overrides)
    code, out, err = run(
        ["train", "--dataset", "synthetic", "--synthetic-graphs", "12", "--config", config, *argv], capsys
    )
    assert code == 2
    assert message.format(config=config) in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, grid, flag",
    [
        (["--seeds", "0"], "k = 0.5\n", "--seeds"),
        (["--synthetic-graphs", "0"], "k = 0.5\n", "--synthetic-graphs"),
        ([], "k = 0.5\nhidden = 16, 7\n", "--grid"),
        ([], "folds = 3, 20\n", "--folds"),
    ],
    ids=["seeds", "synthetic-graphs", "grid", "more-folds-than-graphs"],
)
def test_sweep_rejects_bad_arguments_naming_the_flag(argv, grid, flag, tmp_path, capsys):
    grid_file = tmp_path / "grid.txt"
    grid_file.write_text(grid)
    code, out, err = run(
        [
            "sweep",
            "--dataset", "synthetic",
            "--synthetic-graphs", "12",
            "--config", write_config(tmp_path),
            "--grid", str(grid_file),
            *argv,
        ],
        capsys,
    )
    assert code == 2
    assert flag in err
    assert "Traceback" not in err
    assert out == ""
    if flag == "--grid":
        assert f"{grid_file}:2: hidden must be one of" in err


# ---------------------------------------------------------------------------
# theory


def test_theory_optimum_path_matches_closed_form(capsys):
    code, out, _ = run(
        ["theory", "optimum", "--family", "path", "--n", "9", "--h", "2"], capsys
    )
    assert code == 0
    assert "optimum=5" in out
    assert "closed form: 5 (match)" in out


def test_theory_optimum_starlike(capsys):
    code, out, _ = run(
        ["theory", "optimum", "--family", "star", "--n", "7", "--h", "2"], capsys
    )
    assert code == 0
    assert "optimum=6" in out


def test_theory_optimum_starlike_rejects_odd_h(capsys):
    code, _, err = run(
        ["theory", "optimum", "--family", "star", "--n", "7", "--h", "3"], capsys
    )
    assert code == 2
    assert "even" in err


def test_theory_optimum_from_edge_file(tmp_path, capsys):
    edge_file = tmp_path / "edges.txt"
    edge_file.write_text("# a 4-cycle\n0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = run(
        ["theory", "optimum", "--family", "file", "--h", "2", "--file", str(edge_file)],
        capsys,
    )
    assert code == 0
    assert "nodes=4 h=2 optimum=2" in out


@pytest.mark.parametrize(
    "line, problem",
    [("1 x", "integers"), ("1 1", "self loop"), ("-1 2", ">= 0")],
)
def test_theory_optimum_reports_a_bad_edge_line_with_its_number(tmp_path, line, problem, capsys):
    edge_file = tmp_path / "edges.txt"
    edge_file.write_text(f"# header\n0 1\n{line}\n2 3\n")
    code, out, err = run(
        ["theory", "optimum", "--family", "file", "--h", "2", "--file", str(edge_file)],
        capsys,
    )
    assert code == 2
    assert f"{edge_file}:3:" in err
    assert problem in err
    assert out == ""


def test_theory_optimum_rejects_graphs_above_the_search_limit(tmp_path, capsys):
    too_many = _OPTIMUM_NODE_LIMIT + 1
    code, out, err = run(
        ["theory", "optimum", "--family", "path", "--n", str(too_many), "--h", "2"], capsys
    )
    assert code == 2
    assert "--n" in err and str(_OPTIMUM_NODE_LIMIT) in err
    assert out == ""

    edge_file = tmp_path / "edges.txt"
    edge_file.write_text("".join(f"{i} {i + 1}\n" for i in range(too_many - 1)))
    code, out, err = run(
        ["theory", "optimum", "--family", "file", "--h", "2", "--file", str(edge_file)], capsys
    )
    assert code == 2
    assert "--file" in err and str(_OPTIMUM_NODE_LIMIT) in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--family", "path", "--n", "5", "--h", "0"], "--h"),
        (["--family", "star", "--n", "5", "--h", "-2"], "--h"),
        (["--family", "file", "--file", "edges.txt", "--h", "0"], "--h"),
        (["--family", "path", "--n", "-3", "--h", "1"], "--n"),
        (["--family", "path", "--n", "0", "--h", "1"], "--n"),
        (["--family", "star", "--n", "1", "--h", "2"], "--n"),
        (["--family", "star", "--n", "2", "--h", "4"], "--n"),
    ],
)
def test_theory_optimum_rejects_values_below_a_family_minimum(argv, flag, tmp_path, capsys):
    (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
    argv = [str(tmp_path / arg) if arg == "edges.txt" else arg for arg in argv]
    code, out, err = run(["theory", "optimum", *argv], capsys)
    assert code == 2
    assert flag in err
    assert "Traceback" not in err
    assert out == ""


def test_theory_optimum_star_accepts_its_smallest_tree(capsys):
    code, out, _ = run(["theory", "optimum", "--family", "star", "--n", "3", "--h", "4"], capsys)
    assert code == 0
    assert "nodes=3 h=4 optimum=1" in out


def test_theory_optimum_file_requires_path(capsys):
    code, _, err = run(["theory", "optimum", "--family", "file", "--h", "2"], capsys)
    assert code == 2
    assert "--file" in err


def test_theory_kstar_table_passes(capsys):
    code, out, _ = run(["theory", "kstar", "--nmin", "4", "--nmax", "6"], capsys)
    assert code == 0
    assert "PASS" in out
    assert out.count("yes") == 3


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--nmin", "5", "--nmax", "6", "--h", "2"], "--h"),
        (["--nmin", "2", "--nmax", "3"], "--nmin"),
        (["--nmin", "4", "--nmax", "5", "--h", "3"], "--nmin"),
    ],
)
def test_theory_kstar_rejects_values_without_a_starlike_tree(argv, flag, capsys):
    code, out, err = run(["theory", "kstar", *argv], capsys)
    assert code == 2
    assert flag in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, flag, limit",
    [
        (["--nmin", "5", "--nmax", "4"], "--nmax", "--nmin = 5"),
        (["--nmax", str(_SAMPLING_NODE_LIMIT + 1)], "--nmax", str(_SAMPLING_NODE_LIMIT)),
    ],
)
def test_theory_kstar_rejects_an_empty_or_unscannable_size_range(argv, flag, limit, capsys):
    code, out, err = run(["theory", "kstar", *argv], capsys)
    assert code == 2
    assert flag in err and limit in err
    assert "Traceback" not in err
    assert out == ""


def test_theory_equivariance_passes_and_shows_counterexample(capsys):
    code, out, _ = run(["theory", "equivariance", "--trials", "5"], capsys)
    assert code == 0
    assert "5/5" in out
    assert "as expected" in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--nodes", "0"], "--nodes"),
        (["--trials", "0"], "--trials"),
        (["--trials", "-1"], "--trials"),
        (["--seed", "-1"], "--seed"),
    ],
)
def test_theory_equivariance_rejects_values_that_verify_nothing(argv, flag, capsys):
    code, out, err = run(["theory", "equivariance", *argv], capsys)
    assert code == 2
    assert flag in err
    assert "Traceback" not in err
    assert out == ""


# ---------------------------------------------------------------------------
# argument errors


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_train_requires_dataset():
    with pytest.raises(SystemExit) as excinfo:
        main(["train"])
    assert excinfo.value.code == 2
