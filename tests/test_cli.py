import json
import os

import numpy as np
import pytest

from conicot import (BaselineConfig, cgw_lower_bound, cot_solve, embed_network_as_hypernetwork,
                     gen_aligned_hypernetworks, gw2_solve, load_json, make_kernel)
from conicot.cli import run_command
from tests.conftest import random_network


@pytest.fixture
def net_files(tmp_path):
    paths = []
    for seed in (1, 2):
        net = random_network(np.random.default_rng(seed), 5, unit_mass=True)
        p = tmp_path / f"net{seed}.json"
        p.write_text(json.dumps(net.to_json_dict()))
        paths.append(str(p))
    return paths


def _run_in(tmp_path, argv, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_command(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cgw_command(tmp_path, net_files, capsys, monkeypatch):
    code, out, err = _run_in(tmp_path, ["cgw", *net_files, "--seed", "3"],
                             capsys, monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] >= 0
    assert payload["converged"]
    assert payload["config"]["seed"] == 3
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["command"] == "cgw"
    assert manifest["seed"] == 3
    assert len(manifest["input_hashes"]) == 2
    assert "wall_time" in manifest
    assert manifest["restarts"] == payload["restarts"]
    assert len(payload["restarts"]) == payload["config"]["restarts"]


def test_cgw_deterministic(tmp_path, net_files, capsys, monkeypatch):
    code1, out1, _ = _run_in(tmp_path, ["cgw", *net_files], capsys, monkeypatch)
    code2, out2, _ = _run_in(tmp_path, ["cgw", *net_files], capsys, monkeypatch)
    assert code1 == code2 == 0
    assert json.loads(out1)["distance"] == json.loads(out2)["distance"]


def test_ccot_accepts_networks_and_writes_output(tmp_path, net_files, capsys,
                                                 monkeypatch):
    out_file = tmp_path / "res.json"
    code, out, _ = _run_in(
        tmp_path, ["ccot", *net_files, "--output", str(out_file)],
        capsys, monkeypatch)
    assert code == 0
    assert json.loads(out_file.read_text())["distance"] >= 0


@pytest.mark.parametrize("cmd", ["cgw", "ccot", "gw2", "cot", "uot-bound"])
def test_solve_manifest_holds_the_objective_trace(tmp_path, net_files, cmd, capsys,
                                                  monkeypatch):
    code, out, _ = _run_in(tmp_path, [cmd, *net_files], capsys, monkeypatch)
    assert code == 0
    payload = json.loads(out)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert len(manifest["objective_trace"]) == payload["iterations"] + 1
    assert manifest["objective_trace"][-1] == payload["objective"]
    assert manifest["restarts"] == payload["restarts"]


def test_gw2_cot_uot_commands(tmp_path, net_files, capsys, monkeypatch):
    for cmd in ("gw2", "cot", "uot-bound"):
        code, out, _ = _run_in(tmp_path, [cmd, *net_files], capsys, monkeypatch)
        assert code == 0, (cmd, out)
        assert json.loads(out)["distance"] >= 0


def test_quantize_off_forces_dense(tmp_path, net_files, capsys, monkeypatch):
    code, out, _ = _run_in(tmp_path, ["cgw", *net_files, "--quantize", "off"],
                           capsys, monkeypatch)
    assert code == 0
    assert json.loads(out)["quantization_uncertainty"] == 0.0


def test_missing_input_exits_one(tmp_path, capsys, monkeypatch):
    code, out, err = _run_in(tmp_path, ["cgw", "nope.json", "nope2.json"],
                             capsys, monkeypatch)
    assert code == 1
    assert err.startswith("error:")


def test_invalid_network_exits_one(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "measure_network",
                               "weights": [1.0, -1.0],
                               "kernel": [[0, 0], [0, 0]]}))
    code, _, err = _run_in(tmp_path, ["cgw", str(bad), str(bad)],
                           capsys, monkeypatch)
    assert code == 1
    assert "negative_weight" in err


@pytest.mark.parametrize("content, message", [
    ({"type": "measure_network", "weights": [1.0]}, "has no field 'kernel'"),
    ([1, 2], "holds a JSON list, not an object"),
    ({"type": "measure_network", "weights": {"a": 1}, "kernel": [[0.0]]},
     "weights must hold numbers"),
    ({"type": "measure_network", "weights": [1.0], "kernel": {"a": 1}},
     "kernel must hold numbers"),
    ({"type": "measure_network", "weights": [1.0], "kernel": [[0.0]], "points": {"a": 1}},
     "points must hold numbers")])
def test_malformed_input_file_exits_one(tmp_path, content, message, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    code, out, err = _run_in(tmp_path, ["cgw", str(bad), str(bad)], capsys, monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: validation:") and message in err


def test_empty_side_exits_one(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "measure_hypernetwork", "sample_weights": [1.0],
                               "feature_weights": [], "kernel": [[]]}))
    code, out, err = _run_in(tmp_path, ["ccot", str(bad), str(bad)], capsys, monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: non_square_kernel: feature_weights is empty")


def test_verify_fragility(tmp_path, capsys, monkeypatch):
    code, out, _ = _run_in(tmp_path, ["verify", "fragility", "--eps", "0.1",
                                      "--f-eps", "1.0"], capsys, monkeypatch)
    assert code == 0
    assert json.loads(out)["pass"]


def test_verify_scaling_and_weakiso(tmp_path, net_files, capsys, monkeypatch):
    # only robustness reads --trials
    for probe, flags in (("scaling", []), ("weakiso", []),
                         ("robustness", ["--trials", "2"])):
        code, out, _ = _run_in(
            tmp_path, ["verify", probe, net_files[0], *flags],
            capsys, monkeypatch)
        assert code == 0, (probe, out)
        assert json.loads(out)["pass"]


def test_verify_bounds(tmp_path, net_files, capsys, monkeypatch):
    code, out, _ = _run_in(tmp_path, ["verify", "bounds", *net_files],
                           capsys, monkeypatch)
    assert code == 0
    assert json.loads(out)["pass"]


def test_verify_failure_exits_two(tmp_path, capsys, monkeypatch):
    # the probe the CLI calls reports a failed check
    monkeypatch.setattr("conicot.cli.gw_fragility_demo",
                        lambda eps, f_eps: {"pass": False, "eps": eps, "f_eps": f_eps})
    code, out, _ = _run_in(tmp_path, ["verify", "fragility", "--eps", "0.1"],
                           capsys, monkeypatch)
    assert code == 2
    assert json.loads(out) == {"pass": False, "eps": 0.1, "f_eps": 1.0}
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["config"] == {"eps": 0.1, "f_eps": 1.0, "output": None}
    assert "restarts" not in manifest and "objective_trace" not in manifest


def test_delta_sweep_command(tmp_path, net_files, capsys, monkeypatch):
    code, out, _ = _run_in(tmp_path, ["delta-sweep", *net_files, "--deltas", "1,4"],
                           capsys, monkeypatch)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {"delta", "cgw", "reference", "rel_gap", "sweeps", "stop"}
        assert row["stop"] in ("rel_tol", "max_iters")


def test_cgw_rejects_zero_restarts(tmp_path, net_files, capsys, monkeypatch):
    code, _, err = _run_in(tmp_path, ["cgw", *net_files, "--restarts", "0"],
                           capsys, monkeypatch)
    assert code == 1
    assert err.startswith("error: negative_argument")


@pytest.mark.parametrize("argv", [["cgw", "--delta", "inf"], ["cgw", "--tol", "nan"],
                                  ["uot-bound", "--delta", "inf"],
                                  ["delta-sweep", "--deltas", "0.5,inf"]])
def test_solve_commands_reject_infinite_delta_and_nan_tol(tmp_path, net_files, argv,
                                                          capsys, monkeypatch):
    code, out, err = _run_in(tmp_path, [argv[0], *net_files, *argv[1:]],
                             capsys, monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: negative_argument")


@pytest.mark.parametrize("argv", [["gen-aligned", "--cells", "0"],
                                  ["gen-aligned", "--feat-x", "0"],
                                  ["gen-aligned", "--feat-y", "0"],
                                  ["gen-squares", "--g", "0"],
                                  ["gen-squares", "--side", "0"],
                                  ["gen-squares", "--count", "-1"]])
def test_generators_reject_degenerate_sizes(tmp_path, argv, capsys, monkeypatch):
    code, out, err = _run_in(tmp_path, [*argv, "--dir", str(tmp_path)],
                             capsys, monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: negative_argument")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("sizes", ["0", "30,0"])
def test_bench_rejects_sizes_it_cannot_sample(tmp_path, sizes, capsys, monkeypatch):
    code, out, err = _run_in(tmp_path, ["bench", "--sizes", sizes, "--max-iters", "1"],
                             capsys, monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("cmd", ["gw2", "cot", "uot-bound"])
def test_baseline_commands_reject_negative_max_iters(tmp_path, net_files, cmd, capsys,
                                                     monkeypatch):
    code, _, err = _run_in(tmp_path, [cmd, *net_files, "--max-iters", "-5"],
                           capsys, monkeypatch)
    assert code == 1
    assert err.startswith("error: negative_argument")


@pytest.mark.parametrize("argv, error", [
    (["cgw", "NETS", "--seed", "-1"], "negative_argument: seed = -1 is below 0"),
    (["gw2", "NETS", "--seed", "-1"], "negative_argument: seed = -1 is below 0"),
    (["delta-sweep", "NETS", "--seed", "-1"], "negative_argument: seed = -1 is below 0"),
    (["verify", "robustness", "NET", "--seed", "-1"], "negative_argument: seed = -1 is below 0"),
    (["gen-squares", "--seed", "-1"], "negative_argument: seed = -1 is below 0"),
    (["gen-aligned", "--seed", "-1"], "negative_argument: seed = -1 is below 0"),
    (["img2net", "IMG", "--n-sample", "4", "--knn", "2", "--seed", "-1"],
     "negative_argument: seed = -1 is below 0"),
    (["verify", "scaling", "NET", "--r", "inf"], "negative_scale: scale factor r = inf "),
    (["verify", "scaling", "NET", "--s", "nan"], "negative_scale: scale factor s = nan "),
    (["verify", "scaling", "NET", "--s", "inf"], "negative_scale: scale factor s = inf "),
    (["verify", "scaling", "NET", "--r", "-1"], "negative_scale: scale factor r = -1.0 "),
    (["verify", "fragility", "--f-eps", "-1"], "validation: f_eps = -1.0 "),
], ids=["cgw-seed", "gw2-seed", "delta-sweep-seed", "robustness-seed", "gen-squares-seed",
        "gen-aligned-seed", "img2net-seed", "scaling-r", "scaling-s", "scaling-s-inf",
        "scaling-r-negative", "fragility-f-eps"])
def test_argument_out_of_range_is_named(tmp_path, net_files, argv, error, capsys,
                                        monkeypatch):
    # each is a bad input, so exit 1 with an error line that names it, never
    # numpy's own message or exit 2's failed check
    np.savetxt(tmp_path / "img.csv", np.ones((4, 4)), delimiter=",")
    inputs = {"NETS": net_files, "NET": net_files[:1], "IMG": [str(tmp_path / "img.csv")]}
    argv = [x for arg in argv for x in inputs.get(arg, [arg])]
    code, out, err = _run_in(tmp_path, argv, capsys, monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + error)
    assert sorted(os.listdir(tmp_path)) == ["img.csv", *sorted(os.path.basename(p)
                                                                for p in net_files)]


def test_gen_squares_img2net_roundtrip(tmp_path, capsys, monkeypatch):
    code, out, _ = _run_in(
        tmp_path, ["gen-squares", "--count", "2", "--dir", str(tmp_path)],
        capsys, monkeypatch)
    assert code == 0
    written = json.loads(out)["written"]
    assert len(written) == 2
    code, out, _ = _run_in(
        tmp_path, ["img2net", written[0], "--n-sample", "20", "--knn", "3"],
        capsys, monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "measure_network"
    assert len(payload["weights"]) == 20


@pytest.mark.parametrize("text", ["1,2,3,4,5,6\n", "1\n2\n3\n4\n5\n6\n"],
                         ids=["one-row", "one-column"])
def test_img2net_reads_a_one_row_or_one_column_image(tmp_path, text, capsys, monkeypatch):
    (tmp_path / "line.csv").write_text(text)
    code, out, _ = _run_in(tmp_path, ["img2net", "line.csv", "--n-sample", "3", "--knn", "1"],
                           capsys, monkeypatch)
    assert code == 0
    assert len(json.loads(out)["weights"]) == 3


@pytest.mark.parametrize("pixel, code_name", [("nan", "non_finite_entry"),
                                              ("inf", "non_finite_entry"),
                                              ("-1", "negative_weight")])
def test_img2net_rejects_a_non_finite_or_negative_pixel(tmp_path, pixel, code_name, capsys,
                                                        monkeypatch):
    (tmp_path / "bad.csv").write_text(f"1,{pixel},3\n4,5,6\n")
    for n_sample in ("3", "6"):
        code, out, err = _run_in(tmp_path, ["img2net", "bad.csv", "--n-sample", n_sample,
                                            "--knn", "1"], capsys, monkeypatch)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {code_name}:") and "(0, 1)" in err


def test_gen_aligned_command(tmp_path, capsys, monkeypatch):
    code, out, _ = _run_in(
        tmp_path, ["gen-aligned", "--cells", "20", "--feat-x", "3",
                   "--feat-y", "4", "--dir", str(tmp_path)],
        capsys, monkeypatch)
    assert code == 0
    written = json.loads(out)["written"]
    assert len(written) == 3
    for p in written:
        assert os.path.exists(p)


def test_classify_command(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(0)
    feats = np.concatenate([rng.normal(0, 0.1, (10, 2)),
                            rng.normal(3, 0.1, (10, 2))])
    labels = np.array([0] * 10 + [1] * 10)
    fp = tmp_path / "f.csv"
    lp = tmp_path / "l.csv"
    np.savetxt(fp, feats, delimiter=",")
    np.savetxt(lp, labels, delimiter=",")
    code, out, _ = _run_in(
        tmp_path, ["classify", "--features", str(fp), "--labels", str(lp),
                   "--k", "3", "--label-rate", "0.5", "--trials", "5"],
        capsys, monkeypatch)
    assert code == 0
    assert json.loads(out)["mean_error"] == 0.0


@pytest.mark.parametrize("flag, value", [("--k", "-1"), ("--k", "0"), ("--trials", "0")])
def test_classify_rejects_k_or_trials_below_one(tmp_path, flag, value, capsys,
                                                monkeypatch):
    fp, lp = tmp_path / "f.csv", tmp_path / "l.csv"
    np.savetxt(fp, np.random.default_rng(0).normal(size=(20, 2)), delimiter=",")
    np.savetxt(lp, np.array([0, 1] * 10), delimiter=",")
    argv = ["classify", "--features", str(fp), "--labels", str(lp), "--k", "3",
            "--label-rate", "0.5", "--trials", "5", flag, value]
    code, out, err = _run_in(tmp_path, argv, capsys, monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: negative_argument")


@pytest.mark.parametrize("feats, rate, message", [
    ("0,0\n1,nan\n0,1\n1,1\n", "0.5", "error: non_finite_entry: non-finite entry at index (1, 1)"),
    ("0,0\n1,2\n0,1\n1,1\n", "nan", "error: degenerate_split: label_rate nan ")],
    ids=["nan-feature", "nan-label-rate"])
def test_classify_rejects_a_nan_feature_or_label_rate(tmp_path, feats, rate, message, capsys,
                                                      monkeypatch):
    (tmp_path / "f.csv").write_text(feats)
    (tmp_path / "l.csv").write_text("0\n1\n0\n1\n")
    argv = ["classify", "--features", "f.csv", "--labels", "l.csv", "--k", "1",
            "--label-rate", rate, "--trials", "1"]
    code, out, err = _run_in(tmp_path, argv, capsys, monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith(message)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("label, message", [
    ("1.7", "error: validation: label 1.7 at row 1 is not a 64-bit integer"),
    ("1e20", "error: validation: label 1e+20 at row 1 is not a 64-bit integer"),
    ("nan", "error: non_finite_entry: non-finite entry at index (1,)"),
    ("inf", "error: non_finite_entry: non-finite entry at index (1,)")])
def test_classify_rejects_a_label_that_is_not_an_integer(tmp_path, label, message, capsys,
                                                         monkeypatch):
    # a fractional label is not truncated to a class, and a NaN, inf or
    # out-of-range one is named before any cast to int
    (tmp_path / "f.csv").write_text("0,0\n1,1\n0,1\n1,0\n")
    (tmp_path / "l.csv").write_text(f"0\n{label}\n0\n1\n")
    argv = ["classify", "--features", "f.csv", "--labels", "l.csv", "--k", "1",
            "--label-rate", "0.5", "--trials", "1"]
    code, out, err = _run_in(tmp_path, argv, capsys, monkeypatch)
    assert code == 1
    assert out == ""
    assert err.strip() == message


def test_classify_rejects_more_labels_than_feature_rows(tmp_path, capsys, monkeypatch):
    fp, lp = tmp_path / "f.csv", tmp_path / "l.csv"
    np.savetxt(fp, np.random.default_rng(0).normal(size=(6, 2)), delimiter=",")
    np.savetxt(lp, np.array([0, 1] * 5), delimiter=",")
    argv = ["classify", "--features", str(fp), "--labels", str(lp), "--k", "1",
            "--label-rate", "0.5", "--trials", "1"]
    code, out, err = _run_in(tmp_path, argv, capsys, monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: length_mismatch")


def test_verify_robustness_rejects_zero_trials(tmp_path, net_files, capsys, monkeypatch):
    code, out, err = _run_in(tmp_path, ["verify", "robustness", net_files[0],
                                        "--trials", "0"], capsys, monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: negative_argument")


def test_bench_command(tmp_path, capsys, monkeypatch):
    code, out, _ = _run_in(tmp_path, ["bench", "--sizes", "30",
                                      "--max-iters", "5", "--seed", "1"],
                           capsys, monkeypatch)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "size,iters,stop,seconds,distance"
    size, iters, stop, _, distance = lines[1].split(",")
    # a real solve: more than one sweep, to a positive distance
    assert size == "30" and int(iters) > 1 and float(distance) > 0
    # five sweeps do not reach the tolerance, and the row says so
    assert iters == "5" and stop == "max_iters"


def test_bench_output_holds_the_printed_csv(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "bench.csv"
    code, out, _ = _run_in(tmp_path, ["bench", "--sizes", "30", "--max-iters", "5",
                                      "--output", str(out_file)], capsys, monkeypatch)
    assert code == 0
    assert out.startswith("size,iters,stop,seconds,distance\n30,5,max_iters,")
    assert out_file.read_text() == out
    assert json.loads((tmp_path / "run_manifest.json").read_text())["command"] == "bench"


@pytest.fixture
def hyper_files(tmp_path):
    hx, hy, _ = gen_aligned_hypernetworks(12, 3, 4, seed=0)
    paths = [str(tmp_path / "hx.json"), str(tmp_path / "hy.json")]
    for p, h in zip(paths, (hx, hy)):
        with open(p, "w") as f:
            json.dump(h.to_json_dict(), f)
    return paths


def test_ccot_and_cot_read_hypernetworks(tmp_path, hyper_files, capsys, monkeypatch):
    code, out, _ = _run_in(tmp_path, ["ccot", *hyper_files, "--max-iters", "50"],
                           capsys, monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] > 0 and payload["iterations"] > 1
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["restarts"] == payload["restarts"]
    assert len(manifest["input_hashes"]) == 2
    code, out, _ = _run_in(tmp_path, ["cot", *hyper_files], capsys, monkeypatch)
    assert code == 0
    assert json.loads(out)["distance"] > 0


@pytest.mark.parametrize("argv", [
    ["gw2", "a.json", "b.json", "--kernel", "cos"],
    ["cot", "a.json", "b.json", "--seed", "3"],
    ["uot-bound", "a.json", "b.json", "--tol", "0.5"],
    ["delta-sweep", "a.json", "b.json", "--trace", "t.json"],
    ["gen-squares", "--count", "1", "--tol", "1"],
    ["bench", "--sizes", "30", "--max-iters", "1", "--seed", "1",
     "--restarts", "2"],
    ["verify", "fragility", "--kernel", "cos"],
    ["verify", "scaling", "a.json", "--trials", "2"],
    ["verify", "fragility", "a.json"],
    ["verify", "bounds", "a.json"],
    ["verify", "scaling"],
    ["delta-sweep", "a.json", "b.json", "--delta", "3"],
    ["bench", "--quantize", "2"],
    ["cgw", "a.json", "b.json", "--trace", "t.json"],
    ["ccot", "a.json", "b.json", "--trace", "t.json"],
    ["delta-sweep", "a.json", "b.json", "--csv", "s.csv"],
], ids=["gw2-kernel", "cot-seed", "uot-bound-tol", "delta-sweep-trace",
        "gen-squares-tol", "bench-restarts", "verify-fragility-kernel",
        "verify-scaling-trials", "verify-fragility-input", "verify-bounds-one-input",
        "verify-scaling-no-input", "delta-sweep-delta-prefix", "bench-quantize",
        "cgw-trace", "ccot-trace", "delta-sweep-csv"])
def test_unread_flag_rejected(tmp_path, argv, capsys, monkeypatch):
    # a subcommand declares only the flags it reads
    with pytest.raises(SystemExit) as exc:
        _run_in(tmp_path, argv, capsys, monkeypatch)
    assert exc.value.code == 2


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_quantize_below_one_exits_one(tmp_path, net_files, bins, capsys, monkeypatch):
    code, out, err = _run_in(tmp_path, ["cgw", *net_files, "--quantize", bins],
                             capsys, monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: negative_argument:")


def test_verify_manifest_holds_the_probe_flags(tmp_path, capsys, monkeypatch):
    code, _, _ = _run_in(tmp_path, ["verify", "fragility", "--eps", "0.1"],
                         capsys, monkeypatch)
    assert code == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["config"] == {"eps": 0.1, "f_eps": 1.0, "output": None}


def test_gen_squares_manifest_holds_its_own_flags(tmp_path, capsys, monkeypatch):
    code, _, _ = _run_in(
        tmp_path, ["gen-squares", "--count", "1", "--seed", "5",
                   "--dir", str(tmp_path)], capsys, monkeypatch)
    assert code == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["config"] == {"count": 1, "g": 4, "side": 3, "size": 32,
                                  "dir": str(tmp_path), "seed": 5,
                                  "output": None}


def test_cot_output_echoes_no_seed(tmp_path, net_files, capsys, monkeypatch):
    # cot_solve reads no seed, so the output claims none
    code, out, _ = _run_in(tmp_path, ["cot", *net_files], capsys, monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert "seed" not in payload and "seed" not in payload["config"]
    assert payload["config"] == {"max_iters": 1000, "tol": 1e-10}


def _printed_before_reports(cmd, nx, ny):
    """What gw2, cot and uot-bound printed at their default flags when each
    built its own result dict, from the library calls each made."""
    if cmd == "gw2":
        return {"distance": gw2_solve(nx, ny, BaselineConfig(max_iters=1000))[0],
                "config": {"seed": 0}}
    if cmd == "cot":
        return {"distance": cot_solve(embed_network_as_hypernetwork(nx),
                                      embed_network_as_hypernetwork(ny),
                                      BaselineConfig(max_iters=1000))[0]}
    rep = cgw_lower_bound(nx, ny, make_kernel("exp", 0.5), max_iters=1000)
    return {"distance": rep.value, "objective": rep.objective,
            "iterations": rep.iterations, "converged": rep.converged,
            "config": {"delta": 0.5, "kernel": "exp"}}


@pytest.mark.parametrize("cmd, starts", [("gw2", 4), ("cot", 1), ("uot-bound", 2)])
def test_baseline_commands_print_their_solve_report(tmp_path, net_files, cmd, starts,
                                                     capsys, monkeypatch):
    # each keeps every key and value it printed, config entries included,
    # and gains the report's sweeps, stop, restarts and timing
    before = _printed_before_reports(cmd, *(load_json(p) for p in net_files))
    code, out, _ = _run_in(tmp_path, [cmd, *net_files], capsys, monkeypatch)
    assert code == 0
    payload = json.loads(out)
    for key, value in before.items():
        if key == "config":
            assert payload["config"].items() >= value.items()
        else:
            assert payload[key] == value
    assert set(payload) >= {"iterations", "converged", "objective", "restarts",
                            "best_restart", "wall_time"}
    assert len(payload["restarts"]) == starts
    best = payload["restarts"][payload["best_restart"]]
    assert payload["converged"] == (best["stop"] == "rel_tol")
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["restarts"] == payload["restarts"]
