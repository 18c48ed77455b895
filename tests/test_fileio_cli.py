import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairmerge
from fairmerge import gen_random, is_fair, normalize
from fairmerge.cli import main
from fairmerge.errors import ParseError, SizeMismatch
from fairmerge.fileio import (
    load_clustering,
    load_instance,
    save_clustering,
    save_instance,
)


@pytest.fixture
def workspace(tmp_path):
    inst, clu = gen_random(12, 2, 1, 3, seed=42)
    _, other = gen_random(12, 2, 1, 4, seed=43)
    paths = {
        "instance": tmp_path / "inst.json",
        "a": tmp_path / "a.json",
        "b": tmp_path / "b.json",
    }
    save_instance(inst, paths["instance"])
    save_clustering(clu, paths["a"])
    save_clustering(other, paths["b"])
    return tmp_path, paths, inst, clu, other


def test_instance_roundtrip(tmp_path):
    inst, _ = gen_random(10, 3, 2, 2, seed=9)
    path = tmp_path / "i.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again.colors == inst.colors
    assert (again.given_p, again.given_q) == (inst.given_p, inst.given_q)
    save_instance(again, tmp_path / "i2.json")
    assert (tmp_path / "i.json").read_bytes() == (tmp_path / "i2.json").read_bytes()


def test_clustering_roundtrip_normalizes(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"labels": [5, 5, 9]}))
    clu = load_clustering(path, 3)
    assert clu.labels == (0, 0, 1)
    save_clustering(clu, path)
    assert load_clustering(path, 3).labels == (0, 0, 1)


def test_load_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ParseError):
        load_instance(bad)
    bad.write_text(json.dumps({"n": 2, "colors": "RGB", "p": 1, "q": 1}))
    with pytest.raises(ParseError):
        load_instance(bad)
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"labels": [0, 1]}))
    with pytest.raises(SizeMismatch):
        load_clustering(short, 3)


def test_cli_dist(workspace, capsys):
    _, paths, _, clu, other = workspace
    assert main(["dist", str(paths["instance"]), str(paths["a"]), str(paths["b"])]) == 0
    from fairmerge import dist_fast

    assert capsys.readouterr().out.strip() == str(dist_fast(clu, other))
    assert main(["dist", str(paths["instance"]), str(paths["a"]), str(paths["a"])]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_dist_three_point_example(tmp_path, capsys):
    from fairmerge.fileio import save_instance as si
    from fairmerge.model import ColoredInstance

    si(ColoredInstance.from_colors("BRB", 1, 1), tmp_path / "i.json")
    (tmp_path / "a.json").write_text(json.dumps({"labels": [0, 0, 1]}))
    (tmp_path / "b.json").write_text(json.dumps({"labels": [0, 1, 1]}))
    assert main(["dist", str(tmp_path / "i.json"), str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_dist_singletons_vs_one_cluster(tmp_path, capsys):
    from fairmerge.fileio import save_instance as si
    from fairmerge.model import ColoredInstance

    si(ColoredInstance.from_colors("BRBR", 1, 1), tmp_path / "i.json")
    (tmp_path / "a.json").write_text(json.dumps({"labels": [0, 1, 2, 3]}))
    (tmp_path / "b.json").write_text(json.dumps({"labels": [0, 0, 0, 0]}))
    assert main(["dist", str(tmp_path / "i.json"), str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_cli_closest_fair_equal_ratio_regime(tmp_path):
    inst, clu = gen_random(8, 1, 1, 3, seed=80)
    save_instance(inst, tmp_path / "i.json")
    save_clustering(clu, tmp_path / "c.json")
    rep = tmp_path / "rep.json"
    assert main(["closest-fair", str(tmp_path / "i.json"), str(tmp_path / "c.json"),
                 "--out", str(tmp_path / "o.json"), "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["regime"] == "exact"


def test_cli_exit_codes(workspace, tmp_path, capsys):
    _, paths, *_ = workspace
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["dist", str(paths["instance"]), str(bad), str(paths["a"])]) == 2

    short = tmp_path / "short.json"
    short.write_text(json.dumps({"labels": [0, 0]}))
    assert main(["dist", str(paths["instance"]), str(short), str(paths["a"])]) == 3

    # infeasible: 7 blue, 5 red with p=2, q=1
    inf_inst = tmp_path / "inf.json"
    inf_inst.write_text(json.dumps({"n": 12, "colors": "B" * 7 + "R" * 5, "p": 2, "q": 1}))
    assert main(["closest-fair", str(inf_inst), str(paths["a"]), "--out", str(tmp_path / "o.json")]) == 4

    # too large for the oracle
    big_inst = tmp_path / "big.json"
    big_inst.write_text(json.dumps({"n": 16, "colors": "BR" * 8, "p": 1, "q": 1}))
    big_clu = tmp_path / "bigc.json"
    big_clu.write_text(json.dumps({"labels": [0] * 16}))
    assert main(["oracle", str(big_inst), str(big_clu), "--mode", "fair"]) == 5
    capsys.readouterr()


def test_cli_closest_fair_writes_fair_output_and_report(workspace, tmp_path):
    _, paths, inst, clu, _ = workspace
    out = tmp_path / "fair.json"
    rep = tmp_path / "rep.json"
    assert main([
        "closest-fair", str(paths["instance"]), str(paths["a"]),
        "--out", str(out), "--report", str(rep),
    ]) == 0
    report = json.loads(rep.read_text())
    assert report["regime"] == "p:1"
    assert report["composed_factor"] == 17.0
    assert set(report["stage_distances"]) == {"balance", "fairify"}
    from fairmerge import dist_fast, is_fair

    fair = load_clustering(out, inst.n)
    assert is_fair(inst, fair)
    assert report["achieved_distance"] == dist_fast(clu, fair)


def test_cli_closest_fair_deterministic_bytes(workspace, tmp_path):
    _, paths, *_ = workspace
    outs = []
    for tag in ("x", "y"):
        out = tmp_path / f"fair_{tag}.json"
        rep = tmp_path / f"rep_{tag}.json"
        main([
            "closest-fair", str(paths["instance"]), str(paths["a"]),
            "--out", str(out), "--report", str(rep),
        ])
        outs.append((out.read_bytes(), rep.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_consensus_m1_matches_closest_fair(workspace, tmp_path):
    _, paths, *_ = workspace
    single = tmp_path / "single.json"
    direct = tmp_path / "direct.json"
    main(["consensus", str(paths["instance"]), str(paths["a"]), "--out", str(single)])
    main(["closest-fair", str(paths["instance"]), str(paths["a"]), "--out", str(direct)])
    assert single.read_bytes() == direct.read_bytes()


def test_cli_consensus_report_and_oracle(workspace, tmp_path):
    _, paths, inst, *_ = workspace
    out = tmp_path / "cons.json"
    rep = tmp_path / "crep.json"
    code = main([
        "consensus", str(paths["instance"]), str(paths["a"]), str(paths["b"]),
        "--l", "inf", "--out", str(out), "--report", str(rep), "--verify-oracle",
    ])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["factor"] == 19.0
    assert report["l"] == "inf"
    assert len(report["per_input_distances"]) == 2
    assert report["objective"] <= 19.0 * report["oracle_objective"] + 1e-9


def test_cli_oracle_fair_zero_on_fair_input(tmp_path, capsys):
    from fairmerge.model import ColoredInstance

    inst = ColoredInstance.from_colors("BBRR", 1, 1)
    save_instance(inst, tmp_path / "i.json")
    save_clustering(normalize([0, 0, 0, 0]), tmp_path / "c.json")
    assert main(["oracle", str(tmp_path / "i.json"), str(tmp_path / "c.json"),
                 "--mode", "fair", "--report", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().out.strip() == "0"
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["partitions_enumerated"] == 15


def test_cli_gen_random_deterministic_files(tmp_path):
    args = ["gen", "--kind", "random", "--n", "9", "--p", "2", "--q", "1",
            "--k", "3", "--seed", "5"]
    for tag in ("a", "b"):
        assert main(args + [
            "--out-instance", str(tmp_path / f"i_{tag}.json"),
            "--out-clustering", str(tmp_path / f"c_{tag}.json"),
        ]) == 0
    assert (tmp_path / "i_a.json").read_bytes() == (tmp_path / "i_b.json").read_bytes()
    assert (tmp_path / "c_a.json").read_bytes() == (tmp_path / "c_b.json").read_bytes()


def test_cli_gen_random_requires_seed(tmp_path, capsys):
    assert main(["gen", "--kind", "random", "--n", "6", "--p", "1",
                 "--out-instance", str(tmp_path / "i.json"),
                 "--out-clustering", str(tmp_path / "c.json")]) == 2
    capsys.readouterr()


def test_cli_gen_reduction_report(tmp_path):
    rep = tmp_path / "r.json"
    with pytest.warns(RuntimeWarning):
        code = main(["gen", "--kind", "reduction", "--s", "3,3,4", "--p", "2",
                     "--out-instance", str(tmp_path / "i.json"),
                     "--out-clustering", str(tmp_path / "c.json"),
                     "--report", str(rep)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["tau"] == 200
    assert report["T"] == 10
    inst = load_instance(tmp_path / "i.json")
    assert inst.n == 30


def test_cli_consensus_equal_ratio_within_factor_three(tmp_path):
    inst, _ = gen_random(8, 1, 1, 2, seed=60)
    save_instance(inst, tmp_path / "i.json")
    names = []
    for j in range(3):
        _, clu = gen_random(8, 1, 1, 2 + j, seed=61 + j)
        path = tmp_path / f"d{j}.json"
        save_clustering(clu, path)
        names.append(str(path))
    rep = tmp_path / "rep.json"
    assert main(["consensus", str(tmp_path / "i.json"), *names,
                 "--l", "1", "--out", str(tmp_path / "c.json"),
                 "--report", str(rep), "--verify-oracle"]) == 0
    report = json.loads(rep.read_text())
    assert report["factor"] == 3.0
    assert report["objective"] <= 3 * report["oracle_objective"]


def test_cli_oracle_consensus_mode(tmp_path, capsys):
    inst, a = gen_random(6, 1, 1, 2, seed=70)
    _, b = gen_random(6, 1, 1, 3, seed=71)
    save_instance(inst, tmp_path / "i.json")
    save_clustering(a, tmp_path / "a.json")
    save_clustering(b, tmp_path / "b.json")
    out = tmp_path / "best.json"
    assert main(["oracle", str(tmp_path / "i.json"), str(tmp_path / "a.json"),
                 str(tmp_path / "b.json"), "--mode", "consensus", "--l", "inf",
                 "--out", str(out)]) == 0
    printed = float(capsys.readouterr().out.strip())
    from fairmerge import is_fair, oracle_consensus

    ref = oracle_consensus(inst, [a, b], math.inf)
    assert printed == ref.optimum
    assert is_fair(inst, load_clustering(out, inst.n))


def test_cli_ell_accepts_decimals(workspace, tmp_path):
    _, paths, *_ = workspace
    out = tmp_path / "cons.json"
    rep = tmp_path / "rep.json"
    assert main(["consensus", str(paths["instance"]), str(paths["a"]),
                 "--l", "2.5", "--out", str(out), "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["l"] == 2.5
    assert main(["consensus", str(paths["instance"]), str(paths["a"]),
                 "--l", "0.5", "--out", str(out)]) == 2


# -- malformed files, flags and environment values ---------------------------

_COLORS12 = "BBRBBRBBRBBR"

BAD_INPUTS = [
    # (case id, instance doc, labels doc, argv after the command, env)
    ("ell-nan", None, None, ["consensus", "{inst}", "{a}", "--l", "nan", "--out", "{out}"], {}),
    ("ell-below-one", None, None, ["consensus", "{inst}", "{a}", "--l", "0.5", "--out", "{out}"], {}),
    ("ell-not-a-number", None, None, ["consensus", "{inst}", "{a}", "--l", "two", "--out", "{out}"], {}),
    ("oracle-ell-nan", None, None, ["oracle", "{inst}", "{a}", "--mode", "consensus", "--l", "nan"], {}),
    ("gen-elements-not-integers", None, None,
     ["gen", "--kind", "reduction", "--s", "a,b", "--p", "2",
      "--out-instance", "{out}", "--out-clustering", "{out2}"], {}),
    ("gen-zero-ratio", None, None,
     ["gen", "--kind", "random", "--n", "10", "--p", "0", "--q", "0", "--k", "2", "--seed", "1",
      "--out-instance", "{out}", "--out-clustering", "{out2}"], {}),
    ("oracle-cap-not-integer", None, None, ["oracle", "{inst}", "{a}"], {"FAIRMERGE_ORACLE_CAP": "abc"}),
    ("labels-bool", None, {"labels": [True, False] * 6}, ["dist", "{inst}", "{bad}", "{a}"], {}),
    ("label-beyond-int64", None, {"labels": [2**64 - 1] + [0] * 11}, ["dist", "{inst}", "{bad}", "{a}"], {}),
    ("label-below-int64", None, {"labels": [-(2**63) - 1] + [0] * 11}, ["dist", "{inst}", "{bad}", "{a}"], {}),
    ("labels-not-a-list", None, {"labels": "000000000000"}, ["dist", "{inst}", "{bad}", "{a}"], {}),
    ("label-float", None, {"labels": [0.5] + [0] * 11}, ["dist", "{inst}", "{bad}", "{a}"], {}),
    ("n-bool", {"n": True, "colors": "B", "p": 1, "q": 1}, None, ["dist", "{bad}", "{a}", "{a}"], {}),
    ("p-bool", {"n": 12, "colors": _COLORS12, "p": True, "q": 1}, None, ["dist", "{bad}", "{a}", "{a}"], {}),
    ("q-zero", {"n": 12, "colors": _COLORS12, "p": 2, "q": 0}, None, ["dist", "{bad}", "{a}", "{a}"], {}),
    ("colors-lowercase", {"n": 12, "colors": _COLORS12.lower(), "p": 2, "q": 1}, None,
     ["dist", "{bad}", "{a}", "{a}"], {}),
    ("colors-not-a-string", {"n": 12, "colors": list(_COLORS12), "p": 2, "q": 1}, None,
     ["dist", "{bad}", "{a}", "{a}"], {}),
    ("out-in-a-missing-directory", None, None, ["closest-fair", "{inst}", "{a}", "--out", "{missing}"], {}),
    ("report-is-a-directory", None, None,
     ["closest-fair", "{inst}", "{a}", "--out", "{out2}", "--report", "{dir}"], {}),
    ("gen-out-instance-in-a-missing-directory", None, None,
     ["gen", "--kind", "random", "--n", "12", "--p", "2", "--q", "1", "--k", "3", "--seed", "1",
      "--out-instance", "{missing}", "--out-clustering", "{out2}"], {}),
]


@pytest.mark.parametrize("case", BAD_INPUTS, ids=[c[0] for c in BAD_INPUTS])
def test_cli_rejects_malformed_input_with_one_line(case, workspace, capsys, monkeypatch):
    _, instance_doc, labels_doc, argv, env = case
    tmp_path, paths, _, _, _ = workspace
    bad = tmp_path / "bad.json"
    if instance_doc is not None:
        bad.write_text(json.dumps(instance_doc))
    if labels_doc is not None:
        bad.write_text(json.dumps(labels_doc))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    names = {"inst": paths["instance"], "a": paths["a"], "bad": bad,
             "out": tmp_path / "out.json", "out2": tmp_path / "out2.json",
             "missing": tmp_path / "missing" / "x.json", "dir": tmp_path}
    capsys.readouterr()
    code = main([arg.format(**names) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and out == ""
    assert not (tmp_path / "out.json").exists()


def test_module_entry_point_exit_codes(tmp_path):
    src = str(Path(fairmerge.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def fairmerge_cli(*args):
        argv = [sys.executable, "-m", "fairmerge", *map(str, args)]
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)

    inst, clu, out = tmp_path / "inst.json", tmp_path / "clu.json", tmp_path / "out.json"
    gen = fairmerge_cli("gen", "--kind", "random", "--n", 12, "--p", 2, "--q", 1, "--k", 3, "--seed", 1,
                        "--out-instance", inst, "--out-clustering", clu)
    assert gen.returncode == 0, gen.stderr
    fair = fairmerge_cli("closest-fair", inst, clu, "--out", out)
    assert fair.returncode == 0, fair.stderr
    assert is_fair(load_instance(inst), load_clustering(out, 12))
    bad = fairmerge_cli("gen", "--kind", "random", "--n", 10, "--p", 0, "--q", 0, "--k", 2, "--seed", 1,
                        "--out-instance", tmp_path / "x.json", "--out-clustering", tmp_path / "y.json")
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("error: ") and bad.stderr.count("\n") == 1, bad.stderr
    assert "Traceback" not in bad.stderr
