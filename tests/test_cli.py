"""Config parsing, subcommands, output formats, exit codes."""

import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from grouppgd.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    main,
    parse_config,
)

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

BASE = {
    "problem.n_r": 6,
    "problem.n_theta": 16,
    "problem.angle_fraction": 0.25,
    "problem.rays_per_angle": 8,
    "subset.radius": 4,
    "solver.iters": 40,
    "solver.seeds": 3,
    "solver.seed": 7,
}


def config_text(out, **overrides):
    entries = dict(BASE)
    entries["output.dir"] = str(out)
    for key, value in overrides.items():
        entries[key.replace("_", ".", 1)] = value
    lines = ["# small fast instance"]
    lines.extend(f"{k} = {v}" for k, v in entries.items())
    return "\n".join(lines) + "\n"


def write_config(tmp_path, text, name="config.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def csv_columns(path, *picked):
    """The ``picked`` columns of a CSV file's rows below its header, as text."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    return [[row[rows[0].index(col)] for col in picked] for row in rows[1:]]


def read_all(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_parse_minimal_and_defaults():
    config = parse_config("problem.n_r = 8\n")
    assert config.problem_n_r == 8
    assert config.problem_n_theta == 64
    assert config.solver_step == "auto"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"<config>:2: unknown key 'problme\.n_r'"):
        parse_config("problem.n_r = 8\nproblme.n_r = 9\n")


def test_parse_rejects_duplicate_and_malformed():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("problem.n_r = 8\nproblem.n_r = 9\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("problem.n_r 8\n")
    with pytest.raises(ConfigError, match="expects an integer"):
        parse_config("problem.n_r = eight\n")


RANGE_ERRORS = [
    ("problem.angle_fraction", "1.5", "angle_fraction"),
    ("problem.n_r", "0", "positive count"),
    ("solver.step", "-1", "solver.step"),
    ("solver.iters", "-1", "solver.iters must be nonnegative"),
    ("subset.radius", "-1", "subset.radius must be nonnegative"),
    ("problem.phantom", "disk", "unknown problem.phantom 'disk'"),
    ("problem.noise", "laplace", "unknown problem.noise 'laplace'"),
    ("problem.weights", "mixed", "unknown problem.weights 'mixed'"),
    ("solver.tolerance", "0", "solver.tolerance must be positive"),
    ("problem.sigma", "abc", "problem.sigma expects a number, got 'abc'"),
    ("solver.step", "fast", "solver.step expects 'auto' or a number, got 'fast'"),
]


@pytest.mark.parametrize("key, value, message", RANGE_ERRORS,
                         ids=[f"{key}={value}" for key, value, _ in RANGE_ERRORS])
def test_parse_validates_ranges(key, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(f"{key} = {value}\n")


def test_parse_refuses_more_harmonics_than_a_textured_grid_holds():
    # 8 angles hold 5 distinct harmonics; a ring phantom ignores the key
    text = "problem.n_theta = 8\nproblem.smoothness = 6\nproblem.phantom = "
    with pytest.raises(ConfigError, match=r"problem\.smoothness must be at most .* = 5"):
        parse_config(text + "textured\n")
    assert parse_config(text + "ring\n").problem_smoothness == 6
    assert parse_config("problem.n_theta = 8\nproblem.smoothness = 5\n"
                        "problem.phantom = textured\n").problem_smoothness == 5


@pytest.mark.parametrize("command", ["certify", "run", "compare", "phantom"])
def test_absurd_smoothness_exits_2_before_building(tmp_path, capsys, monkeypatch, command):
    # 10**12 harmonics would loop for hours: refused by the config check,
    # before the phantom is drawn
    from grouppgd import bench

    def refuse(*args, **kwargs):
        raise AssertionError("textured_phantom called")

    monkeypatch.setattr(bench, "textured_phantom", refuse)
    cfg = write_config(tmp_path, config_text(tmp_path / "out", problem_phantom="textured",
                                             problem_smoothness=10**12))
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    assert "problem.smoothness must be at most" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "run", "compare"])
def test_radius_of_half_the_angles_exits_2(tmp_path, capsys, command):
    # radius 8 of 16 angles lists the half turn twice: 17 actions, 16 rotations
    cfg = write_config(tmp_path, config_text(tmp_path / "out", subset_radius=8))
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    assert "subset.radius must be below problem.n_theta / 2" in capsys.readouterr().err
    assert parse_config("problem.n_theta = 16\nsubset.radius = 7\n").subset_radius == 7
    with pytest.raises(ConfigError, match="lists some rotations twice"):
        parse_config("problem.n_theta = 15\nsubset.radius = 8\n")


def test_parse_step_accepts_auto_and_number():
    assert parse_config("solver.step = auto\n").solver_step == "auto"
    assert parse_config("solver.step = 0.01\n").solver_step == 0.01


def test_run_command_writes_traces_and_certificate(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(out))
    assert main(["run", "--config", cfg]) == EXIT_OK
    files = read_all(out)
    assert set(files) == {"pgd.csv", "group_pgd.csv", "certificate.txt"}
    header = files["group_pgd.csv"].decode().splitlines()[0]
    assert header == "iter,rmsd,rmsd_normalized,objective,bound,action_index"
    assert files["pgd.csv"].decode().splitlines()[0] == \
        "iter,rmsd,rmsd_normalized,objective"
    assert b"alpha_Gstar" in files["certificate.txt"]


def test_run_command_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = write_config(tmp_path, config_text(tmp_path / "unused"))
    assert main(["run", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
    assert read_all(out_a) == read_all(out_b)


def test_certify_prints_constants(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(out))
    assert main(["certify", "--config", cfg]) == EXIT_OK
    text = capsys.readouterr().out
    for key in ("L = ", "mu_C = ", "mu_Gstar = ", "alpha_Gstar = ",
                "eps_Gstar = ", "eps_w = ", "flag.mu_Gstar = exact"):
        assert key in text
    assert (out / "certificate.txt").exists()


def test_certify_reports_vacuous_bound(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(out, subset_radius=0))
    # radius-0 subset on an underdetermined instance: mu_Gstar = 0, alpha = 1
    assert main(["certify", "--config", cfg]) == EXIT_OK
    text = capsys.readouterr().out
    assert "\nbound = vacuous\n" in text
    assert "\nbound vacuous (alpha_Gstar >= 1): constants reported, no rate guarantee\n" in text


def test_compare_writes_combined_csv_and_summary(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(out))
    assert main(["compare", "--config", cfg]) == EXIT_OK
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "iter,pgd_mean_rmsd,group_mean_rmsd,bound"
    assert len(lines) == 42  # header + iterations 0..40
    summary = (out / "summary.txt").read_text()
    assert "pgd: iterations to mean rmsd" in summary
    assert "group_pgd: iterations to mean rmsd" in summary


def test_compare_writes_run_plain_chain_and_bound(tmp_path):
    # a plain chain draws nothing, so compare's plain column is run's plain
    # chain and its bound is run's, as text
    cfg = write_config(tmp_path, config_text(tmp_path / "out", solver_seeds=20))
    assert main(["run", "--config", cfg]) == EXIT_OK
    assert main(["compare", "--config", cfg]) == EXIT_OK
    out = tmp_path / "out"
    assert (csv_columns(out / "compare.csv", "iter", "pgd_mean_rmsd")
            == csv_columns(out / "pgd.csv", "iter", "rmsd"))
    assert csv_columns(out / "compare.csv", "bound") == csv_columns(out / "group_pgd.csv", "bound")


@pytest.mark.parametrize("name", ["ring", "extreme_sparse", "noisy_textured", "poisson",
                                  "fine_grid"])
def test_shipped_config_runs_compares_and_certifies_as_ci_requires(tmp_path, capsys, name):
    # the Tier-1 twin of CI's step that runs, compares and writes a phantom
    # on every shipped config, and of its certify step's checks
    cfg = os.path.join(CONFIGS, f"{name}.txt")
    for command in ["run", "compare"] + ["phantom"] * (name == "noisy_textured"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == EXIT_OK
    capsys.readouterr()
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "certify")]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    # run and certify write one certificate
    assert ((tmp_path / "run" / "certificate.txt").read_bytes()
            == (tmp_path / "certify" / "certificate.txt").read_bytes())
    # a plain chain draws nothing: compare's plain column and bound are run's
    assert (csv_columns(tmp_path / "compare" / "compare.csv", "iter", "pgd_mean_rmsd")
            == csv_columns(tmp_path / "run" / "pgd.csv", "iter", "rmsd"))
    assert (csv_columns(tmp_path / "compare" / "compare.csv", "bound")
            == csv_columns(tmp_path / "run" / "group_pgd.csv", "bound"))
    assert not [line for line in printed if re.fullmatch(r"flag\..* = estimate", line)]
    # no shipped ground truth touches the box: every constant is exact
    assert not [line for line in printed if re.fullmatch(r"flag\..* = relaxed", line)]
    assert "bound = active" in printed


def test_overlapping_window_reruns_byte_identically(tmp_path):
    # angles two columns apart with three offsets each: the operator's window
    # lists cells twice and folds them; run and compare rerun byte for byte
    from grouppgd.cli import _build, load_config
    from grouppgd.linop import spectral_norm
    from oracles import group_pgd_step

    cfg = write_config(tmp_path, "problem.angle_fraction = 0.5\n"
                                 "solver.iters = 300\nsolver.seeds = 4\n")
    outputs = {}
    for command in ("run", "compare"):
        reruns = []
        for rerun in (1, 2):
            out = tmp_path / f"overlap.{command}.{rerun}"
            assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
            reruns.append(read_all(out))
        assert reruns[0] and reruns[0] == reruns[1]
        outputs[command] = reruns[0]
    # a window that read a cell twice would still rerun byte for byte, so
    # the group chain is also stepped again, with its drawn actions, through
    # the whole-grid rotated operators
    problem, subset, _ = _build(load_config(cfg))
    rows = [line.split(",") for line in outputs["run"]["group_pgd.csv"].decode().splitlines()]
    header, rows = rows[0], rows[1:]
    drawn = [int(row[header.index("action_index")]) for row in rows[1:]]
    rmsd = np.array([float(row[header.index("rmsd")]) for row in rows])
    eta = 1.0 / spectral_norm(problem.A)
    x = np.zeros(problem.dimension)
    oracle = [np.linalg.norm(x - problem.x_dagger)]
    for index in drawn:
        x = group_pgd_step(x, problem.A, problem.b, problem.K, eta, subset.actions[index])
        oracle.append(np.linalg.norm(x - problem.x_dagger))
    assert len(drawn) == 300
    np.testing.assert_allclose(rmsd, oracle, rtol=1e-12)


def test_compare_zero_budget_keeps_initial_distance(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(out, solver_iters=0))
    assert main(["compare", "--config", cfg]) == EXIT_OK
    lines = (out / "compare.csv").read_text().splitlines()
    assert len(lines) == 2
    _, pgd0, group0, _ = lines[1].split(",")
    assert pgd0 == group0


def test_phantom_outputs_ring_structure_and_roundtrip(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(out))
    assert main(["phantom", "--config", cfg]) == EXIT_OK
    pgm = (out / "phantom.pgm").read_text().splitlines()
    assert pgm[0] == "P2"
    assert pgm[1] == "16 6"
    assert pgm[2] == "255"
    for row in pgm[3:]:
        values = row.split()
        assert len(values) == 16
        assert len(set(values)) == 1  # ring rows are constant across angles
    grid = np.loadtxt(out / "phantom.csv")
    from grouppgd.bench import build_problem
    prob = build_problem(n_r=6, n_theta=16, angle_fraction=0.25,
                         rays_per_angle=8, seed=0)
    assert np.allclose(grid.ravel(), prob.x_dagger, rtol=0, atol=1e-15)
    assert np.array_equal(grid.ravel(), prob.x_dagger)


def test_phantom_deterministic_for_textured(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = write_config(tmp_path,
                       config_text(out_a, problem_phantom="textured"))
    assert main(["phantom", "--config", cfg]) == EXIT_OK
    assert main(["phantom", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
    assert read_all(out_a) == read_all(out_b)


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "nonsense.key = 1\n")
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.txt")]) == EXIT_CONFIG


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"problem.n_r = 6\n\xff\n")
    assert main(["certify", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "cannot read config" in err


def test_config_with_a_byte_order_mark_certifies_as_without_it(tmp_path, capsys):
    text = config_text(tmp_path / "plain")
    plain = write_config(tmp_path, text)
    assert main(["certify", "--config", plain]) == EXIT_OK
    expected = capsys.readouterr().out
    marked = tmp_path / "bom.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + config_text(tmp_path / "bom").encode())
    assert main(["certify", "--config", str(marked)]) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert read_all(tmp_path / "bom") == read_all(tmp_path / "plain")


def test_unwritable_output_exits_5(tmp_path):
    cfg = write_config(tmp_path, config_text("/dev/null/nodir"))
    assert main(["phantom", "--config", cfg]) == 5


def test_a_failed_write_leaves_no_temp_file(tmp_path, capsys):
    # the temp file is written, then the rename onto a directory fails
    out = tmp_path / "out"
    (out / "certificate.txt").mkdir(parents=True)
    cfg = write_config(tmp_path, config_text(out))
    assert main(["certify", "--config", cfg]) == 5
    assert "cannot write outputs" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["certificate.txt"]
    assert os.listdir(out / "certificate.txt") == []


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_rerun_into_the_same_directory_leaves_its_unchanged_outputs(tmp_path, command):
    # an unchanged file is left as it is: same inode, same mtime, no temp file.
    # A rename over an existing file cost up to 100 ms a file on ext4
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(out))
    assert main([command, "--config", cfg]) == EXIT_OK
    written = {name: os.stat(out / name) for name in os.listdir(out)}
    assert main([command, "--config", cfg]) == EXIT_OK
    assert sorted(os.listdir(out)) == sorted(written)
    for name, first in written.items():
        again = os.stat(out / name)
        assert (again.st_ino, again.st_mtime_ns) == (first.st_ino, first.st_mtime_ns)
    # a changed config changes every output, and every one is replaced
    fresh = tmp_path / "fresh"
    changed = write_config(tmp_path, config_text(out, problem_seed=5), name="changed.txt")
    assert main([command, "--config", changed]) == EXIT_OK
    assert main([command, "--config", changed, "--out", str(fresh)]) == EXIT_OK
    assert sorted(os.listdir(out)) == sorted(written)
    for name, first in written.items():
        assert os.stat(out / name).st_ino != first.st_ino
    assert read_all(out) == read_all(fresh)


def test_a_rerun_over_files_that_differ_writes_what_a_fresh_directory_gets(tmp_path):
    # 3,000 steps: each trace is three chunks of rows.  A file whose bytes
    # match up to its last chunk, one with more bytes after the outputs' and
    # one that stops short are each compared with the written file and replaced
    from grouppgd import cli

    cfg = write_config(tmp_path, config_text(tmp_path / "out", solver_iters=3000))
    fresh = tmp_path / "fresh"
    assert main(["run", "--config", cfg, "--out", str(fresh)]) == EXIT_OK
    expected = read_all(fresh)
    assert expected["group_pgd.csv"].count(b"\n") == 3002 > 2 * cli._CHUNK_ROWS
    edits = {"last_chunk": lambda data: data[:-2] + b"0\n", "longer": lambda data: data + b"1\n",
             "shorter": lambda data: data[:len(data) // 2]}
    for name, edit in edits.items():
        out = tmp_path / name
        out.mkdir()
        for file, data in expected.items():
            (out / file).write_bytes(edit(data))
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert read_all(out) == expected, name


def test_write_atomic_leaves_a_file_that_holds_its_chunks(tmp_path):
    from grouppgd.cli import _write_atomic

    path = str(tmp_path / "out.csv")
    chunks = ["head\n", "1,2\n" * 3000, "", "3,4\n"]
    _write_atomic(path, iter(chunks))
    first = os.stat(path)
    _write_atomic(path, iter(chunks))
    again = os.stat(path)
    assert (again.st_ino, again.st_mtime_ns) == (first.st_ino, first.st_mtime_ns)
    assert os.listdir(tmp_path) == ["out.csv"]
    # the same bytes cut into other chunks are the same file
    _write_atomic(path, iter(["".join(chunks)]))
    assert os.stat(path).st_ino == first.st_ino
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "".join(chunks)


def test_the_writer_compares_past_filecmps_cache(tmp_path, monkeypatch):
    # filecmp caches an outcome by file type, size and mtime: with every file
    # at one mtime, a same-size rewrite after an equal one would be read as
    # equal from the cache, and the file would keep its old bytes
    from grouppgd.cli import _write_atomic

    stat = os.stat
    monkeypatch.setattr(os, "stat", lambda *args, **kwargs: os.stat_result(
        tuple(stat(*args, **kwargs)), {"st_mtime": 1.0}))
    path = str(tmp_path / "out.csv")
    for text in ("a,1\n", "a,1\n", "b,2\n"):
        _write_atomic(path, iter([text]))
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "b,2\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_an_error_while_writing_leaves_no_temp_file_and_exits_5(tmp_path, capsys, monkeypatch):
    # the disk fills after the first chunk: the temp file is removed, and an
    # earlier output under the same name is left as it was
    import errno

    from grouppgd import cli

    def full_disk(*args, **kwargs):
        yield "iter,rmsd\n"
        raise OSError(errno.ENOSPC, "No space left on device")

    out = tmp_path / "out"
    out.mkdir()
    (out / "pgd.csv").write_bytes(b"earlier\n")
    monkeypatch.setattr(cli, "_trace_csv", full_disk)
    cfg = write_config(tmp_path, config_text(out))
    assert main(["run", "--config", cfg]) == 5
    assert "cannot write outputs: [Errno 28] No space left on device" in capsys.readouterr().err
    assert os.listdir(out) == ["pgd.csv"]
    assert (out / "pgd.csv").read_bytes() == b"earlier\n"


def test_a_long_trace_is_rendered_and_written_a_chunk_at_a_time(tmp_path):
    # a 15,001-row group trace, as long_chain writes, is a 1.3 MB file: its
    # text, rows and values were each held whole (a peak of 4.2 times the
    # file), now one chunk of 1,024 rows is (0.39 times)
    import tracemalloc

    from grouppgd.cli import _trace_csv, _write_atomic
    from grouppgd.solver import IterateTrace

    rng = np.random.default_rng(0)
    n = 15_001
    trace = IterateTrace(iterations=np.arange(n), rmsd=rng.random(n), objective=rng.random(n),
                         action_indices=rng.integers(-1, 55, n), final_x=np.zeros(2048))
    bound = rng.random(n)
    path = str(tmp_path / "group_pgd.csv")
    tracemalloc.start()
    try:
        _write_atomic(path, _trace_csv(trace, bound, with_actions=True))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = os.path.getsize(path)
    assert size > 1_300_000
    assert peak < size / 2


def test_certify_and_the_covering_radius_import_no_masked_arrays(tmp_path):
    # a plain np.unique imports numpy.ma on first use: 7 ms and 1 MB a process
    import subprocess

    import grouppgd

    src = os.path.dirname(os.path.dirname(grouppgd.__file__))
    code = ("import sys\n"
            "from grouppgd import cli, full_coverage_radius\n"
            f"assert cli.main(['certify', '--config', {os.path.join(CONFIGS, 'ring.txt')!r}, "
            f"'--out', {str(tmp_path)!r}]) == 0\n"
            "assert full_coverage_radius([0, 3, 3, 9], 16) == 3\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("command", ["certify", "run", "compare"])
def test_oversized_problem_exits_4(tmp_path, capsys, command):
    # every angle, 80 rays each: 5,120 rows and 5,120 columns, so the Gram
    # of the smaller side holds more than DENSE_CAP**2 entries
    cfg = write_config(tmp_path,
                       config_text(tmp_path / "out", problem_n_r=80, problem_n_theta=64,
                                   problem_angle_fraction=1, problem_rays_per_angle=80))
    assert main([command, "--config", cfg]) == 4
    assert "problem too large: the dense Gram of 5120 columns" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_absurd_iteration_count_exits_4_before_allocating(tmp_path, capsys, command):
    # 10**15 recorded iterates per row: refused by the size rule, not by
    # numpy's "Unable to allocate 7.11 PiB" traceback
    cfg = write_config(tmp_path, config_text(tmp_path / "out", solver_iters=10**15))
    assert main([command, "--config", cfg]) == 4
    assert "problem too large: the solve's records" in capsys.readouterr().err


@pytest.mark.parametrize("stride", [10**17, 10**18, 2**62, 10**20])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_stride_far_past_the_budget_writes_the_budgets_records(tmp_path, command, stride):
    # a stride at or past the budget records iterations 0 and 40, the bits
    # of record_every = 40; from 10**18 on, numpy sized the record range in
    # floating point to one iterate, and the first record raised IndexError
    once, far = tmp_path / "once", tmp_path / "far"
    for every, out in ((40, once), (stride, far)):
        cfg = write_config(tmp_path, config_text(out, output_record_every=every))
        assert main([command, "--config", cfg]) == EXIT_OK
    assert read_all(far) == read_all(once)
    table = "compare.csv" if command == "compare" else "group_pgd.csv"
    assert [row[0] for row in csv_columns(far / table, "iter")] == ["0", "40"]


def test_absurd_seed_count_exits_4_before_spawning_streams(tmp_path, capsys, monkeypatch):
    # 10**12 replicates: refused by the size rule before a stream is spawned
    from grouppgd import solver

    def refuse(*args, **kwargs):
        raise AssertionError("replicate_rngs called")

    monkeypatch.setattr(solver, "replicate_rngs", refuse)
    cfg = write_config(tmp_path, config_text(tmp_path / "out", solver_seeds=10**12))
    assert main(["compare", "--config", cfg]) == 4
    assert "problem too large: the solve's" in capsys.readouterr().err


@pytest.mark.parametrize("command, setting", [("compare", {"solver_seeds": 10**12}),
                                              ("run", {"solver_iters": 10**15})])
def test_oversized_solve_exits_4_before_certifying(tmp_path, capsys, monkeypatch, command,
                                                   setting):
    # the solve's size rule is asked before the certificate is paid for, and
    # the message names the solve, not the certificate
    from grouppgd import cli

    def refuse(*args, **kwargs):
        raise AssertionError("certify called")

    monkeypatch.setattr(cli, "certify", refuse)
    cfg = write_config(tmp_path, config_text(tmp_path / "out", **setting))
    assert main([command, "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert "problem too large: the solve's" in err and "certif" not in err


def test_more_seeds_than_dense_cap_chains_exits_4_before_spawning_streams(tmp_path, capsys,
                                                                         monkeypatch):
    # 2 cells, a 3-cell window, one step: 5,000,001 chains fit every table,
    # yet their streams and traces would take about 10 GB
    from grouppgd import solver

    def refuse(*args, **kwargs):
        raise AssertionError("replicate_rngs called")

    monkeypatch.setattr(solver, "replicate_rngs", refuse)
    cfg = write_config(tmp_path, config_text(tmp_path / "out", problem_n_r=1, problem_n_theta=2,
                                             subset_radius=0, solver_iters=1,
                                             solver_seeds=5_000_000))
    assert main(["compare", "--config", cfg]) == 4
    assert ("problem too large: the solve's 5000001 chains"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["certify", "run", "compare", "phantom"])
def test_oversized_subset_exits_4_before_building_it(tmp_path, capsys, monkeypatch, command):
    # 96 cells and 576 weights fit a cap of 25**2, the 9 permutations of
    # radius 4 (864 entries) do not
    from grouppgd import linop
    monkeypatch.setattr(linop, "DENSE_CAP", 25)
    cfg = write_config(tmp_path, config_text(tmp_path / "out"))
    assert main([command, "--config", cfg]) == 4
    assert ("problem too large: the subset's 9 permutations of 96 cells"
            in capsys.readouterr().err)


@pytest.mark.parametrize("noise", [{}, {"problem_noise": "poisson", "problem_weights": "nonneg"}])
@pytest.mark.parametrize("command", ["certify", "run", "compare", "phantom"])
def test_absurd_ray_count_exits_4_before_allocating(tmp_path, capsys, command, noise):
    # 4 angles x 10**18 rays x 8 radii x 3 offsets of weights: refused by the
    # size rule, not by numpy's "array is too big" traceback
    cfg = write_config(tmp_path, config_text(tmp_path / "out", problem_n_r=8,
                                             problem_rays_per_angle=10**18, **noise))
    assert main([command, "--config", cfg]) == 4
    assert "the weights of 4 angles x 1000000000000000000 rays" in capsys.readouterr().err


def test_a_refused_command_leaves_no_output_directory(tmp_path, capsys):
    # the output directory is made where the first file is written: a
    # signal of 32 x 10**12 cells is refused before any is
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(out, problem_n_theta=10**12))
    assert main(["certify", "--config", cfg]) == 4
    assert "problem too large: the signal of" in capsys.readouterr().err
    assert not out.exists()


def test_an_unusable_out_exits_5_before_the_build(tmp_path, capsys, monkeypatch):
    # an --out under a regular file or a device, or an empty one, can hold
    # no directory: it gets the first write's error before the build, so a
    # signal of 6 x 10**12 cells exits 5, not 4, and nothing is made
    from grouppgd import cli

    built = []
    build = cli._build
    monkeypatch.setattr(cli, "_build", lambda config: built.append(config) or build(config))
    (tmp_path / "afile").write_bytes(b"")
    cfg = write_config(tmp_path, config_text(tmp_path / "out", problem_n_theta=10**12))
    under_file = str(tmp_path / "afile" / "out")
    for out, error in ((under_file, f"[Errno 20] Not a directory: '{under_file}'"),
                       ("/dev/null/nodir", "[Errno 20] Not a directory: '/dev/null/nodir'"),
                       ("", "[Errno 2] No such file or directory: ''")):
        assert main(["compare", "--config", cfg, "--out", out]) == 5
        assert capsys.readouterr().err == f"cannot write outputs: {error}\n"
    assert built == []
    assert sorted(os.listdir(tmp_path)) == ["afile", "config.txt"]


@pytest.mark.parametrize("command", ["certify", "run", "compare"])
def test_certify_shipped_ring_with_instance_seed_1(tmp_path, command):
    # a seeded power iteration for L did not converge in 10000 steps on this
    # instance; every command now reads one exact L from the Gram spectrum
    shipped = os.path.join(CONFIGS, "ring.txt")
    with open(shipped, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines()
                 if not line.startswith(("problem.seed", "output.dir",
                                         "solver.iters", "solver.seeds"))]
    out = tmp_path / "out"
    lines += ["problem.seed = 1", f"output.dir = {out}", "solver.iters = 3",
              "solver.seeds = 2"]
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    assert main([command, "--config", cfg]) == EXIT_OK
    if command != "compare":
        text = (out / "certificate.txt").read_text()
        assert "flag.L = exact" in text


def test_run_csv_matches_api_run_with_auto_step(tmp_path):
    # the CLI passes the certificate's 1/L; run() resolves "auto" itself
    from grouppgd.cli import _build, load_config
    from grouppgd.solver import SolverConfig, run

    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(out))
    assert main(["run", "--config", cfg]) == EXIT_OK
    problem, subset, solver_config = _build(load_config(cfg))
    assert solver_config.step_size == "auto"
    for name, sub in (("pgd.csv", None), ("group_pgd.csv", subset)):
        trace = run(problem, solver_config, subset=sub)
        rows = [row.split(",") for row in
                (out / name).read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == trace.iterations.tolist()
        for col, values in enumerate((trace.rmsd, trace.rmsd_normalized,
                                      trace.objective), start=1):
            assert [float(r[col]) for r in rows] == values.tolist()


def test_step_other_than_one_over_L_prints_no_bound(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(out, solver_step=1.99))
    assert main(["run", "--config", cfg]) == EXIT_OK
    header = (out / "group_pgd.csv").read_text().splitlines()[0]
    assert header == "iter,rmsd,rmsd_normalized,objective,action_index"
    assert "is not the certified 1/L" in capsys.readouterr().out
    assert main(["compare", "--config", cfg]) == EXIT_OK
    rows = (out / "compare.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[3] == "nan" for row in rows)
    assert "is not the certified 1/L" in capsys.readouterr().out


@pytest.mark.parametrize("change, message", [
    ({"certified": False}, "mu_Gstar flagged estimate, so no bound holds"),
], ids=["estimate_mu_gstar"])
def test_uncertified_constants_print_no_bound(tmp_path, monkeypatch, capsys,
                                              change, message):
    from dataclasses import replace

    from grouppgd import cli

    real_certify = cli.certify
    monkeypatch.setattr(cli, "certify",
                        lambda *args: replace(real_certify(*args), **change))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(out))
    assert main(["run", "--config", cfg]) == EXIT_OK
    header = (out / "group_pgd.csv").read_text().splitlines()[0]
    assert header == "iter,rmsd,rmsd_normalized,objective,action_index"
    assert (out / "certificate.txt").read_text().endswith("\nbound = none\n")
    assert capsys.readouterr().out.count(message) == 1
    assert main(["compare", "--config", cfg]) == EXIT_OK
    rows = (out / "compare.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[3] == "nan" for row in rows)
    assert capsys.readouterr().out.count(message) == 1
    assert main(["certify", "--config", cfg]) == EXIT_OK
    text = capsys.readouterr().out
    assert "\nbound = none\n" in text
    assert text.count(f"{message}: constants reported, no rate guarantee") == 1


def test_relaxed_constants_still_print_a_bound(tmp_path, monkeypatch, capsys):
    # a relaxed constant is a safe-side value, so the bound it gives holds
    from dataclasses import replace

    from grouppgd import cli

    real_certify = cli.certify
    monkeypatch.setattr(cli, "certify",
                        lambda *args: replace(real_certify(*args), cone_kind="box"))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(out))
    assert main(["run", "--config", cfg]) == EXIT_OK
    header = (out / "group_pgd.csv").read_text().splitlines()[0]
    assert header == "iter,rmsd,rmsd_normalized,objective,bound,action_index"
    assert main(["compare", "--config", cfg]) == EXIT_OK
    rows = (out / "compare.csv").read_text().splitlines()[1:]
    assert all(np.isfinite(float(row.split(",")[3])) for row in rows)
    assert "no bound" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["certify", "run", "compare"])
@pytest.mark.parametrize("key", ["problem.seed", "solver.seed"])
def test_negative_seed_exits_2(tmp_path, capsys, key, command):
    cfg = write_config(tmp_path, config_text(tmp_path / "out", **{key.replace(".", "_"): -1}))
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{key} must be nonnegative, got -1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("overrides, message", [
    ({"problem_noise": "poisson", "problem_weights": "signed"},
     "set problem.weights = nonneg"),
    ({"problem_noise": "gaussian", "problem_sigma": -0.1},
     "problem.sigma must be nonnegative"),
    ({"problem_noise": "poisson", "problem_weights": "nonneg",
      "problem_scale": 0}, "problem.scale must be positive"),
    ({"problem_noise": "poisson", "problem_weights": "nonneg",
      "problem_scale": 1e300}, "problem.scale = 1e+300 is too large for poisson noise"),
], ids=["poisson_signed", "negative_sigma", "nonpositive_scale", "poisson_overflow"])
def test_impossible_noise_settings_exit_2(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, config_text(tmp_path / "out", **overrides))
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_compare_group_column_dominated_by_bound(tmp_path):
    # noiseless symmetric config: the group mean must sit under the bound
    # column at every row, even without Monte Carlo slack
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(out, problem_noise="none"))
    assert main(["compare", "--config", cfg]) == EXIT_OK
    rows = (out / "compare.csv").read_text().splitlines()[1:]
    for row in rows:
        _, _, group_mean, bound = row.split(",")
        assert float(group_mean) <= float(bound) * (1 + 1e-12)


@pytest.mark.parametrize("command", ["run", "compare"])
def test_divergence_maps_to_exit_3(tmp_path, monkeypatch, capsys, command):
    from grouppgd import cli
    from grouppgd.solver import DivergenceError

    def blow_up(*args, **kwargs):
        raise DivergenceError(7)

    monkeypatch.setattr(cli, "solve", blow_up)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(out))
    assert main([command, "--config", cfg]) == 3
    assert "diverged" in capsys.readouterr().err
    assert not out.exists()


def test_only_compare_skips_the_objective(tmp_path, monkeypatch):
    # compare writes no objective column, so it asks the solver for none;
    # run writes pgd.csv and group_pgd.csv objectives.  Each command asks
    # the size rule with the replicates and objective it solves with
    import inspect

    from grouppgd import cli
    seen = []

    def spy(name):
        real = getattr(cli, name)

        def call(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append((name, bound.arguments["replicates"], bound.arguments["objective"]))
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, name, call)

    spy("check_solve")
    spy("solve")
    cfg = write_config(tmp_path, config_text(tmp_path / "out", solver_seeds=3))
    for command, replicates, objective in (("compare", 3, False), ("run", None, True)):
        seen.clear()
        assert main([command, "--config", cfg]) == EXIT_OK
        assert seen == [("check_solve", replicates, objective),
                        ("solve", replicates, objective)], command
    first = (tmp_path / "out" / "group_pgd.csv").read_text().splitlines()[1].split(",")
    assert first[3] != "nan"


def test_trace_csv_writes_what_per_cell_formatting_writes():
    from grouppgd.cli import _trace_csv
    from grouppgd.solver import IterateTrace

    def fmt(v):
        return f"{v:.17g}"

    def per_cell(trace, bound, with_actions):
        # the writer's earlier form: one f-string per cell
        header = "iter,rmsd,rmsd_normalized,objective"
        header += ",bound" if bound is not None else ""
        header += ",action_index" if with_actions else ""
        lines = [header]
        for i, k in enumerate(trace.iterations):
            row = [str(int(k)), fmt(trace.rmsd[i]), fmt(trace.rmsd_normalized[i]),
                   fmt(trace.objective[i])]
            if bound is not None:
                row.append(fmt(bound[i]))
            if with_actions:
                row.append(str(int(trace.action_indices[i])))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1 / 3, 1e-310, -2.5e300,
                       0.1, 123456789.0])
    n = len(values)
    trace = IterateTrace(iterations=np.arange(0, 3 * n, 3), rmsd=values,
                         objective=np.roll(values, 3), action_indices=np.arange(n) - 1,
                         final_x=np.zeros(2))
    bound = np.roll(values, 5)
    for b in (None, bound):
        for with_actions in (False, True):
            # the writer yields chunks; joined, they are the file
            written = "".join(_trace_csv(trace, b, with_actions))
            assert written == per_cell(trace, b, with_actions)
    written = "".join(_trace_csv(trace, None, False))
    assert "-0," in written and ",nan" in written and ",-inf" in written
    # past one chunk of rows, the chunks join to the same text
    long = IterateTrace(iterations=np.arange(2_500), rmsd=np.tile(values, 250),
                        objective=np.tile(np.roll(values, 3), 250),
                        action_indices=np.arange(2_500) % 7 - 1, final_x=np.zeros(3))
    assert "".join(_trace_csv(long, np.tile(bound, 250), True)) == per_cell(
        long, np.tile(bound, 250), True)


@pytest.mark.parametrize("name", ["ring", "noisy_textured"])
def test_phantom_writes_what_per_cell_formatting_writes(tmp_path, name):
    from grouppgd.cli import _build, load_config

    cfg = os.path.join(CONFIGS, f"{name}.txt")
    config = load_config(cfg)
    problem, _, _ = _build(config)
    n_r, n_theta = config.problem_n_r, config.problem_n_theta
    image = problem.x_dagger.reshape(n_r, n_theta)
    levels = np.clip(np.rint(image * 255.0), 0, 255).astype(int)
    # the writer's earlier form: one str() or f-string per cell
    pgm = ["P2", f"{n_theta} {n_r}", "255"] + [" ".join(str(int(v)) for v in row)
                                                for row in levels]
    csv = [" ".join(f"{v:.17g}" for v in row) for row in image]
    for out in ("a", "b"):
        assert main(["phantom", "--config", cfg, "--out", str(tmp_path / out)]) == EXIT_OK
        assert (tmp_path / out / "phantom.pgm").read_bytes() == ("\n".join(pgm) + "\n").encode()
        assert (tmp_path / out / "phantom.csv").read_bytes() == ("\n".join(csv) + "\n").encode()


@pytest.mark.parametrize("command", ["certify", "run", "compare"])
@pytest.mark.parametrize("key, value", [
    ("problem.sigma", "nan"), ("problem.sigma", "inf"),
    ("problem.scale", "nan"), ("problem.scale", "inf"),
    ("solver.step", "nan"), ("solver.step", "inf"),
    ("solver.tolerance", "nan"), ("solver.tolerance", "inf"),
])
def test_non_finite_config_number_exits_2(tmp_path, capsys, key, value, command):
    cfg = write_config(tmp_path, config_text(tmp_path / "out", **{key.replace(".", "_"): value}))
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{key} must be finite, got {value}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["certify", "run", "compare"])
@pytest.mark.parametrize("sigma", ["1e308", "1e200"])
def test_noise_norm_overflow_exits_2(tmp_path, capsys, sigma, command):
    # 1e308 draws infinite noise entries of both signs, 1e200 finite ones
    # whose norm overflows: neither may certify eps_w as exact, and the
    # refusal is the only report (no overflow warning escapes)
    cfg = write_config(tmp_path, config_text(tmp_path / "out", problem_noise="gaussian",
                                             problem_sigma=sigma))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"problem.sigma = {float(sigma):g} is too large" in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "out" / "certificate.txt")


def test_textured_phantom_group_beats_plain_ordering(tmp_path):
    # qualitative ordering on a non-symmetric phantom: the group method's
    # final ensemble-mean distance is strictly below plain pgd's
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config_text(
        out, problem_n_r=16, problem_n_theta=32, problem_rays_per_angle=16,
        problem_phantom="textured", subset_radius=2, solver_iters=800,
        solver_seeds=5, solver_seed=11, output_record_every=100))
    assert main(["compare", "--config", cfg]) == EXIT_OK
    last = (out / "compare.csv").read_text().splitlines()[-1]
    _, pgd_mean, group_mean, _ = last.split(",")
    assert float(group_mean) < float(pgd_mean)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a CPU with sched_setaffinity")
def test_one_core_writes_what_every_core_writes(tmp_path):
    # pinned to one CPU the solve has one usable core and steps in process;
    # unpinned it splits its rows across the cores it may use.  Every output
    # byte is the same either way.  OpenBLAS sizes its thread pool from the
    # CPUs it may use, and the overlap config's L, read from a 1,024-row
    # Gram, moves in its last digits with that pool (ROADMAP item 7), so both
    # runs use one BLAS thread
    import shutil
    import subprocess

    import grouppgd

    src = os.path.dirname(os.path.dirname(grouppgd.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error", OPENBLAS_NUM_THREADS="1")
    one = min(os.sched_getaffinity(0))
    cfg = os.path.join(CONFIGS, "ring.txt")
    for command in ("run", "compare"):
        out, written = tmp_path / "out", {}
        for pinned in (True, False):
            done = subprocess.run(
                [sys.executable, "-m", "grouppgd.cli", command, "--config", cfg, "--out", str(out)],
                preexec_fn=(lambda: os.sched_setaffinity(0, {one})) if pinned else None,
                cwd=tmp_path, env=env, capture_output=True, timeout=300)
            written[pinned] = (done.returncode, done.stdout, done.stderr)
            shutil.move(out, tmp_path / f"{command}.{'one' if pinned else 'all'}")
        assert written[True] == written[False] and written[True][0] == EXIT_OK
        assert subprocess.run(["diff", "-r", tmp_path / f"{command}.one",
                               tmp_path / f"{command}.all"]).returncode == 0


@pytest.mark.parametrize("name", ["ring", "extreme_sparse", "noisy_textured", "poisson"])
def test_certificate_keeps_its_bytes_at_one_and_two_blas_threads(tmp_path, name):
    # the band's factor and solve run on blocks of one angle column, n_r = 32
    # cells, where OpenBLAS gives the same bits at 1 and 2 threads; it gave
    # another mu_Gstar on ring, noisy_textured and poisson with 160-cell blocks
    import subprocess

    import grouppgd

    src = os.path.dirname(os.path.dirname(grouppgd.__file__))
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error",
                   OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / threads
        done = subprocess.run(
            [sys.executable, "-m", "grouppgd.cli", "certify", "--config",
             os.path.join(CONFIGS, f"{name}.txt"), "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, timeout=300)
        assert done.returncode == EXIT_OK, done.stderr
        written.append((out / "certificate.txt").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("command, call, error", [("compare", "fork", "EAGAIN"),
                                                 ("run", "pipe", "EMFILE")])
def test_a_part_that_cannot_be_forked_writes_the_in_process_outputs(tmp_path, capsys, monkeypatch,
                                                                   command, call, error):
    # a fork refused under a process limit left the solve as an OSError,
    # which main reported as an unwritable output (exit 5), and left the
    # pipe open: the parts no child takes are stepped in this process
    import errno
    import shutil

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg, out = os.path.join(CONFIGS, "ring.txt"), tmp_path / "out"
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    calls, written = [], []

    def refuse(*args):
        calls.append(args)
        code = getattr(errno, error)
        raise OSError(code, os.strerror(code))

    for refused in (False, True):
        if refused:
            monkeypatch.setattr(os, call, refuse)
        code = main([command, "--config", cfg, "--out", str(out)])
        written.append((code, capsys.readouterr(), read_all(out)))
        shutil.rmtree(out)
    assert written[0][0] == EXIT_OK and written[1] == written[0]
    assert calls or not hasattr(os, "fork") or sys.version_info >= (3, 12)
    assert fds is None or os.listdir("/proc/self/fd") == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_every_shipped_solve_is_large_enough_to_split(tmp_path, monkeypatch):
    # SPLIT_CELL_STEPS sits below every solve run and compare make on a
    # shipped config or a benchmark workload, and above the solver's unit
    # tests (at most 96,000 cell-steps)
    import importlib.util

    from grouppgd import solver
    from grouppgd.cli import _build, load_config

    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(CONFIGS, "..", "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    paths = [os.path.join(CONFIGS, name) for name in sorted(os.listdir(CONFIGS))]
    for name, workload in workloads.WORKLOADS.items():
        paths.append(write_config(tmp_path, workload.config_text(0, tmp_path), f"{name}.txt"))
    assert len(paths) == 8
    for path in paths:
        config = load_config(path)
        problem, subset, solver_config = _build(config)
        for replicates, objective in ((None, True), (config.solver_seeds, False)):
            _, _, gathered, _, _ = solver.check_solve(problem, solver_config, subset,
                                                      replicates, objective)
            size = solver_config.max_iters * gathered * len(problem.A.window)
            assert size >= solver.SPLIT_CELL_STEPS > 96_000, (path, replicates)


def cli_process(tmp_path, argv, redirect="", unbuffered=False, entry=("-m", "grouppgd.cli"),
                **kwargs):
    """``python <entry> argv`` in a fresh process, its descriptors redirected
    by the shell text ``redirect`` (``>&-`` closes stdout), with stdout
    buffered unless ``unbuffered``."""
    import grouppgd

    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(grouppgd.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh",
                           sys.executable, *entry, *argv],
                          cwd=tmp_path, env=env, timeout=300, **kwargs)


def tiny_config(tmp_path):
    return write_config(tmp_path, config_text(tmp_path / "out", problem_n_r=4, problem_n_theta=8,
                                              subset_radius=2))


@pytest.mark.parametrize("command, written", [("certify", ["certificate.txt"]),
                                              ("compare", ["compare.csv", "summary.txt"])])
def test_a_closed_stdout_writes_the_files_and_exits_0(tmp_path, command, written):
    # with descriptor 1 closed sys.stdout is None: the text is dropped, as
    # run's and phantom's are; a sys.stdout.write raised AttributeError (exit 1)
    done = cli_process(tmp_path, [command, "--config", tiny_config(tmp_path)], ">&-",
                       stderr=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")
    assert sorted(os.listdir(tmp_path / "out")) == written


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes stdout to /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["certify", "compare"])
def test_a_stdout_that_cannot_be_written_exits_5(tmp_path, command, unbuffered):
    # buffered, the text reaches the device only at the flush before the
    # process ends; that failure exited 120 with "Exception ignored" at exit
    done = cli_process(tmp_path, [command, "--config", tiny_config(tmp_path)], ">/dev/full",
                       unbuffered, stderr=subprocess.PIPE)
    assert done.returncode == 5
    assert done.stderr == b"cannot write outputs: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("redirect, entry", [
    # closed before the start, sys.stderr is None: a print to it wrote stdout
    ("2>&-", ("-m", "grouppgd.cli")),
    # closed after it, a write to sys.stderr fails with EBADF: exit 1 or 120
    ("", ("-c", "import os, runpy; os.close(2); "
                "runpy.run_module('grouppgd.cli', run_name='__main__', alter_sys=True)")),
], ids=["closed_at_start", "closed_after"])
def test_a_closed_stderr_keeps_the_config_error_exit(tmp_path, redirect, entry):
    # the error message cannot be written, and the exit code still says why
    done = cli_process(tmp_path, ["certify", "--config", str(tmp_path / "absent.txt")], redirect,
                       entry=entry, stdout=subprocess.PIPE)
    assert (done.returncode, done.stdout) == (EXIT_CONFIG, b"")


def test_the_console_script_and_the_module_share_one_exit():
    import ast

    from grouppgd import cli

    root = os.path.join(CONFIGS, "..")
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        scripts = re.findall(r'^grouppgd\s*=\s*"grouppgd\.cli:(\w+)"\s*$', fh.read(), re.M)
    with open(os.path.join(root, "src", "grouppgd", "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    guards = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(scripts) == 1 and scripts[0] != "main" and callable(getattr(cli, scripts[0]))
    assert len(guards) == 1
    assert [ast.unparse(statement) for statement in guards[0].body] == [f"{scripts[0]}()"]


def test_certify_through_a_pipe_prints_the_certificates_bytes(tmp_path):
    # the process ends without the interpreter's teardown: every byte
    # buffered for stdout is flushed first
    done = cli_process(tmp_path, ["certify", "--config", os.path.join(CONFIGS, "ring.txt"),
                                  "--out", str(tmp_path / "out")], capture_output=True)
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")
    assert done.stdout == (tmp_path / "out" / "certificate.txt").read_bytes()
