import json
import math

import numpy as np
import pytest

from abcsmc import cli, models
from abcsmc.core import ConfigError, Population, task_rng
from abcsmc.distance import Dataset
from abcsmc.models import generate_data


@pytest.fixture
def lv_dataset(tmp_path):
    setup = models.default_setup("lv_ode")
    ds = generate_data(setup.recipe, task_rng(5))
    path = tmp_path / "lv.csv"
    cli.write_dataset(ds, path)
    return path


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_parse_config_reads_keys_and_comments(tmp_path):
    path = write_config(tmp_path, "a = 1\n# comment\nb = two words\n\nc=3\n")
    cfg = cli.parse_config(path)
    assert cfg.values == {"a": "1", "b": "two words", "c": "3"}
    assert cfg.lines["b"] == 3


def test_parse_config_rejects_bad_lines(tmp_path):
    path = write_config(tmp_path, "just some text\n")
    with pytest.raises(ConfigError, match="run.cfg:1"):
        cli.parse_config(path)


def test_parse_config_overrides_win(tmp_path):
    path = write_config(tmp_path, "seed = 1\n")
    cfg = cli.parse_config(path, overrides=["seed=9"])
    assert cfg.values["seed"] == "9"


def test_unknown_model_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, "model = nope\n")
    code = cli.main(["infer", "--config", path])
    assert code == cli.EXIT_CONFIG
    assert "nope" in capsys.readouterr().err


def test_nondecreasing_epsilons_rejected(tmp_path, lv_dataset, capsys):
    path = write_config(
        tmp_path, f"model = lv_ode\ndataset = {lv_dataset}\nepsilons = 10, 20\nparticles = 5\n"
    )
    code = cli.main(["infer", "--config", path])
    assert code == cli.EXIT_CONFIG
    assert "decreasing" in capsys.readouterr().err


def test_missing_dataset_file_rejected(tmp_path, capsys):
    path = write_config(tmp_path, "model = lv_ode\ndataset = /nonexistent.csv\n")
    code = cli.main(["infer", "--config", path])
    assert code == cli.EXIT_CONFIG


def test_prior_override_applies(tmp_path):
    path = write_config(
        tmp_path,
        "model = lv_ode\nprior.a = uniform -2 2\nkernel.a = gaussian 0.3\n",
    )
    cfg = cli.parse_config(path)
    setup = cli._resolve_setup(cfg)
    assert setup.priors[0].marginals[0].lo == -2.0
    from abcsmc.core import GaussianWalk

    assert isinstance(setup.kernels[0].walks[0], GaussianWalk)


def test_bad_prior_value_has_line_diagnostic(tmp_path):
    path = write_config(tmp_path, "model = lv_ode\nprior.a = nonsense\n")
    cfg = cli.parse_config(path)
    with pytest.raises(ConfigError, match=r"run.cfg:2"):
        cli._resolve_setup(cfg)


# ---------------------------------------------------------------------------
# Dataset round trip
# ---------------------------------------------------------------------------

def test_dataset_round_trip_identity(tmp_path):
    setup = models.default_setup("lv_ode")
    ds = generate_data(setup.recipe, task_rng(5))
    path = tmp_path / "ds.csv"
    cli.write_dataset(ds, path)
    back = cli.load_dataset(str(path))
    assert np.array_equal(back.times, ds.times)
    assert np.array_equal(back.observed_values(), ds.observed_values())
    assert back.species == ds.species
    assert back.observed == ds.observed


def test_load_dataset_infers_mask_from_na_columns(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("t,S,I,R\n1,NA,1,0\n2,NA,3,1\n")
    ds = cli.load_dataset(str(path))
    assert ds.observed == (1, 2)
    assert ds.observed_species == ("I", "R")


def test_load_dataset_errors_carry_row_numbers(tmp_path):
    p1 = tmp_path / "ragged.csv"
    p1.write_text("t,x\n1,2\n3\n")
    with pytest.raises(ConfigError, match="ragged.csv:3"):
        cli.load_dataset(str(p1))
    p2 = tmp_path / "order.csv"
    p2.write_text("t,x\n2,1\n1,1\n")
    with pytest.raises(ConfigError, match="order.csv:3"):
        cli.load_dataset(str(p2))
    p3 = tmp_path / "hole.csv"
    p3.write_text("t,x,y\n1,2,1\n2,NA,1\n3,4,1\n")
    with pytest.raises(ConfigError, match="hole.csv:3"):
        cli.load_dataset(str(p3))
    p4 = tmp_path / "empty.csv"
    p4.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        cli.load_dataset(str(p4))


def test_tristan_dataset_round_trip(tmp_path):
    ds = models.tristan_dataset()
    path = tmp_path / "tristan.csv"
    cli.write_dataset(ds, path)
    back = cli.load_dataset(str(path))
    assert back.observed_species == ("I", "R")
    assert np.isnan(back.values[:, 0]).all()


# ---------------------------------------------------------------------------
# Tasks end to end
# ---------------------------------------------------------------------------

def test_generate_data_zero_noise_equals_trajectory(tmp_path):
    out = tmp_path / "gen"
    cfgp = write_config(tmp_path, "model = lv_ode\nnoise_sd = 0\n")
    code = cli.main(["generate-data", "--config", cfgp, "--out", str(out), "--seed", "3"])
    assert code == 0
    ds = cli.load_dataset(str(out / "dataset.csv"))
    from abcsmc.simulate import simulate_model

    traj = simulate_model(models.lv_ode(), np.array([1.0, 1.0]), ds.times)
    assert np.allclose(ds.observed_values(), traj.states, atol=1e-12)


def test_simulate_task_writes_trajectory(tmp_path):
    out = tmp_path / "sim"
    cfgp = write_config(
        tmp_path,
        "model = lv_ode\ntheta = 1, 1\ntimes = 1, 3, 5\n",
    )
    code = cli.main(["simulate", "--config", cfgp, "--out", str(out)])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,prey,predator"
    assert len(lines) == 4


def test_infer_writes_populations_ledger_and_stamp(tmp_path, lv_dataset):
    out = tmp_path / "run"
    cfgp = write_config(
        tmp_path,
        f"model = lv_ode\ndataset = {lv_dataset}\nepsilons = 30, 16\nparticles = 40\nseed = 2\n",
    )
    code = cli.main(["infer", "--config", cfgp, "--out", str(out)])
    assert code == 0
    assert (out / "population_00.csv").exists()
    assert (out / "population_01.csv").exists()
    ledger = (out / "run_ledger.csv").read_text().splitlines()
    assert ledger[0] == "population,epsilon,accepted,proposals,cumulative_sims"
    assert len(ledger) == 3
    stamp = json.loads((out / "stamp.json").read_text())
    assert stamp["seed"] == 2 and not stamp["partial"]
    header = (out / "population_00.csv").read_text().splitlines()[0]
    assert header == "a,b,weight,distance"


def test_infer_byte_identical_reruns(tmp_path, lv_dataset):
    cfgp = write_config(
        tmp_path,
        f"model = lv_ode\ndataset = {lv_dataset}\nepsilons = 30, 16\nparticles = 30\nseed = 7\n",
    )
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["infer", "--config", cfgp, "--out", str(out)]) == 0
        outs.append((out / "population_01.csv").read_bytes())
    assert outs[0] == outs[1]


def test_infer_budget_abort_distinct_exit_code(tmp_path, lv_dataset, capsys):
    cfgp = write_config(
        tmp_path,
        f"model = lv_ode\ndataset = {lv_dataset}\nepsilons = 30, 0.000001\n"
        "particles = 10\nseed = 2\nmax_proposals = 2000\n",
    )
    out = tmp_path / "abort"
    code = cli.main(["infer", "--config", cfgp, "--out", str(out)])
    assert code == cli.EXIT_BUDGET
    assert (out / "population_00.csv").exists()  # partial results flushed
    stamp = json.loads((out / "stamp.json").read_text())
    assert stamp["partial"] is True


def test_stamp_mismatch_warns(tmp_path, lv_dataset, capsys):
    cfgp = write_config(
        tmp_path,
        f"model = lv_ode\ndataset = {lv_dataset}\nepsilons = 30\nparticles = 10\nseed = 2\n",
    )
    out = tmp_path / "warn"
    assert cli.main(["infer", "--config", cfgp, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["infer", "--config", cfgp, "--out", str(out), "--seed", "3"]) == 0
    assert "different config/seed" in capsys.readouterr().err


def test_select_emits_model_counts(tmp_path):
    ds = models.normal_mixture_dataset()
    dsp = tmp_path / "toy.csv"
    cli.write_dataset(ds, dsp)
    cfgp = write_config(
        tmp_path,
        f"setup = sir_selection\ndataset = {{}}\n".format(""),
        name="unused.cfg",
    )
    # small synthetic selection run on the toy-vs-toy pair is not available
    # through named setups, so exercise the epidemic setup at coarse settings
    data = generate_data(models.default_setup("sir_selection").recipe, task_rng(1))
    datap = tmp_path / "sir.csv"
    cli.write_dataset(data, datap)
    cfgp = write_config(
        tmp_path,
        f"setup = sir_selection\ndataset = {datap}\nepsilons = 2000, 1000\nparticles = 40\nseed = 1\n",
    )
    out = tmp_path / "sel"
    code = cli.main(["select", "--config", cfgp, "--out", str(out)])
    assert code == 0
    lines = (out / "model_counts.csv").read_text().splitlines()
    assert lines[0] == "population,model_1,model_2,model_3,model_4"
    counts = [int(c) for c in lines[-1].split(",")[1:]]
    assert sum(counts) == 40
    header = (out / "population_00.csv").read_text().splitlines()[0]
    assert "model" in header.split(",")


def test_analyze_reads_run_and_writes_reports(tmp_path, lv_dataset):
    cfgp = write_config(
        tmp_path,
        f"model = lv_ode\ndataset = {lv_dataset}\nepsilons = 30, 16\nparticles = 60\nseed = 4\n",
    )
    run = tmp_path / "run"
    assert cli.main(["infer", "--config", cfgp, "--out", str(run)]) == 0
    out = tmp_path / "reports"
    code = cli.main(["analyze", "--run-dir", str(run), "--out", str(out)])
    assert code == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "model,parameter,q025,median,q975"
    assert len(summary) == 3  # two parameters
    pca = (out / "pca.csv").read_text().splitlines()
    assert pca[0].startswith("component,eigenvalue,fraction")
    iqr = (out / "interquantile.csv").read_text().splitlines()
    assert iqr[0] == "population,a,b"
    first = [float(x) for x in iqr[1].split(",")[1:]]
    assert first == [1.0, 1.0]


def test_population_csv_round_trip(tmp_path, lv_dataset):
    cfgp = write_config(
        tmp_path,
        f"model = lv_ode\ndataset = {lv_dataset}\nepsilons = 30\nparticles = 25\nseed = 9\n",
    )
    run = tmp_path / "run"
    assert cli.main(["infer", "--config", cfgp, "--out", str(run)]) == 0
    names, pop = cli.read_population_csv(str(run / "population_00.csv"))
    assert names == {1: ["a", "b"]}
    assert len(pop) == 25
    assert abs(pop.weights().sum() - 1.0) < 1e-9


def test_selection_population_csv_round_trip(tmp_path):
    setup = models.default_setup("sir_selection")
    labels = np.array([2, 1, 4, 2, 1])
    blocks = {
        1: np.array([[0.1, 0.2], [0.3, 0.4]]),
        2: np.array([[1.1, 1.2, 1.3], [2.1, 2.2, 2.3]]),
        4: np.array([[0.5, 0.6, 1 / 3]]),
    }
    weight = np.array([0.25, 0.5, 1.0, 0.75, 0.5])
    distance = np.array([1.5, 2.0, 0.1, 3.0, 2.5])
    pop = Population(labels, blocks, weight, distance, 2.4, 3, 100)
    path = tmp_path / "population_03.csv"
    cli.write_population_csv(pop, setup.models, str(path))
    names, back = cli.read_population_csv(str(path))
    assert names == {m: list(setup.models[m - 1].param_names) for m in (1, 2, 4)}
    assert np.array_equal(back.labels, labels)
    assert back.blocks.keys() == blocks.keys()
    for m in blocks:
        assert np.array_equal(back.thetas(m), blocks[m])
        assert np.array_equal(back.weights(m), weight[labels == m])
    assert np.array_equal(back.distances(), distance)


def test_analyze_selection_run_names_parameters_per_model(tmp_path):
    setup = models.default_setup("sir_selection")
    datap = tmp_path / "sir.csv"
    cli.write_dataset(generate_data(setup.recipe, task_rng(1)), datap)
    cfgp = write_config(
        tmp_path,
        f"setup = sir_selection\ndataset = {datap}\nepsilons = 100, 50\nparticles = 40\nseed = 3\n",
    )
    run = tmp_path / "sel"
    assert cli.main(["select", "--config", cfgp, "--out", str(run)]) == 0
    out = tmp_path / "reports"
    assert cli.main(["analyze", "--run-dir", str(run), "--out", str(out)]) == 0
    _, final = cli.read_population_csv(str(run / "population_01.csv"))
    param_names = {i + 1: list(m.param_names) for i, m in enumerate(setup.models)}
    summary = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
    expected = [[str(m), p] for m in final.models_present() for p in param_names[m]]
    assert [row[:2] for row in summary] == expected
    pca = [line.split(",") for line in (out / "pca.csv").read_text().splitlines()]
    first = final.models_present()[0]
    assert pca[0][3:] == param_names[first]
    assert all(len(row) == len(pca[0]) for row in pca[1:])
