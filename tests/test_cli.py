"""End-to-end tests of the command-line interface via run()."""

import argparse
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

import pottsdecay
from pottsdecay import (
    Graph,
    Instance,
    PottsParams,
    RecursionLimits,
    generate,
    sample_batch,
    serialize_graph,
)
from pottsdecay import cli
from pottsdecay.cli import build_parser, run


def _schema(name):
    path = resources.files("pottsdecay.schemas") / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _check(name, doc):
    jsonschema.validate(doc, _schema(name))


@pytest.fixture
def edge_file(tmp_path):
    p = tmp_path / "edge.txt"
    p.write_text("graph 2\nedge 0 1\n")
    return str(p)


@pytest.fixture
def pinned_path3_file(tmp_path):
    p = tmp_path / "p3.txt"
    p.write_text("graph 3\nedge 0 1\nedge 1 2\npin 0 1\n")
    return str(p)


def _complete_file(tmp_path, n):
    p = tmp_path / f"k{n}.txt"
    lines = [f"graph {n}"] + [f"edge {u} {v}" for u in range(n) for v in range(u + 1, n)]
    p.write_text("\n".join(lines) + "\n")
    return str(p)


@pytest.fixture
def k4_file(tmp_path):
    return _complete_file(tmp_path, 4)


@pytest.fixture
def k8_file(tmp_path):
    return _complete_file(tmp_path, 8)


# ------------------------------------------------------------- worked examples


def test_exact_on_an_edge(edge_file, capsys):
    code = run(["exact", "--q", "3", "--beta", "0", "--instance", edge_file])
    out = capsys.readouterr().out
    assert code == 0
    assert '"z": 6' in out
    doc = json.loads(out)
    _check("exact", doc)
    assert doc["z"] == 6
    assert doc["n"] == 2 and doc["edges"] == 1


def test_marginal_pinned_path(pinned_path3_file, capsys):
    code = run(
        [
            "marginal",
            "--q",
            "3",
            "--instance",
            pinned_path3_file,
            "--vertex",
            "2",
            "--depth",
            "8",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    _check("marginal", doc)
    assert doc["vertex"] == 2 and doc["depth"] == 8
    assert doc["marginals"] == [0.5, 0.25, 0.25]
    assert doc["diagnostics"]["termination_events"] == 0
    assert doc["diagnostics"]["raw_sum"] == 1
    assert doc["diagnostics"]["evaluations"] <= doc["diagnostics"]["recursive_calls"]
    assert doc["diagnostics"]["cache_hits"] >= 0


def test_partition_infeasible_exits_3(k4_file, capsys):
    code = run(["partition", "--q", "3", "--instance", k4_file])
    captured = capsys.readouterr()
    assert code == 3
    assert "infeasible" in captured.err
    assert captured.out == ""


# ------------------------------------------------------------------ generation


def test_gen_path(capsys):
    code = run(["gen", "--family", "path", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "graph 3\nedge 0 1\nedge 1 2\n"


def test_gen_gnp_reproducible(capsys):
    argv = ["gen", "--family", "gnp", "--n", "30", "--d", "3", "--seed", "7"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("graph 30\n")


def test_gen_bad_family(capsys):
    code = run(["gen", "--family", "hypercube"])
    assert code == 2


def test_gen_roundtrip_through_exact(tmp_path, capsys):
    run(["gen", "--family", "cycle", "--n", "4"])
    text = capsys.readouterr().out
    f = tmp_path / "c4.txt"
    f.write_text(text)
    code = run(["exact", "--q", "3", "--instance", str(f)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["z"] == 18


# ----------------------------------------------------------------- estimation


def test_partition_matches_exact(pinned_path3_file, capsys):
    code = run(
        ["partition", "--q", "3", "--instance", pinned_path3_file, "--depth", "8"]
    )
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    _check("partition", doc)
    assert doc["z"] == 4
    assert doc["depth"] == 8
    assert doc["anchor_weight_log"] == 0
    diag = doc["diagnostics"]
    assert doc["exact"] is True and diag["termination_events"] == 0
    assert diag["recursive_calls"] >= diag["evaluations"] > 0
    assert diag["raw_sum"] is None


def test_partition_truncated_is_not_exact(tmp_path, capsys):
    f = tmp_path / "cycle.txt"
    f.write_text(serialize_graph(generate("cycle", n=8)))
    code = run(["partition", "--q", "4", "--beta", "0.5", "--instance", str(f), "--depth", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    _check("partition", doc)
    assert doc["exact"] is False and doc["diagnostics"]["termination_events"] > 0


def test_partition_block_budget_flag(forced_caterpillar, tmp_path, capsys):
    g, pins = forced_caterpillar
    f = tmp_path / "caterpillar.txt"
    f.write_text(serialize_graph(g, pins))
    argv = ["partition", "--q", "3", "--instance", str(f), "--depth", "2"]
    code = run(argv + ["--block-budget", "100"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    _check("partition", doc)
    assert doc["z"] == 1 and doc["diagnostics"]["max_block_size"] == 70
    assert run(argv) == 4


def test_partition_eps_flag(pinned_path3_file, capsys):
    code = run(["partition", "--q", "3", "--instance", pinned_path3_file, "--eps", "0.01"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["z"] == 4
    # L = ceil((ln n + ln 1/eps) * 3) with n = 3.
    assert doc["depth"] == math.ceil((math.log(3) + math.log(1 / 0.01)) * 3) == 18


def test_partition_eps_validation(pinned_path3_file):
    assert run(["partition", "--q", "3", "--instance", pinned_path3_file, "--eps", "3"]) == 2


@pytest.mark.parametrize("other", [["--depth", "4"], ["--depth-coeff", "5"]])
def test_partition_eps_excludes_other_depth_flags(other, pinned_path3_file, capsys):
    argv = ["partition", "--q", "3", "--instance", pinned_path3_file, "--eps", "0.01"]
    assert run(argv + other) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_exact_marginals_and_tsv(pinned_path3_file, capsys):
    code = run(
        ["exact", "--q", "3", "--instance", pinned_path3_file, "--marginals", "--tsv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z\t4"
    # two unpinned vertices, three colors each
    assert len(lines) == 1 + 6
    assert lines[1].split("\t") == ["marginal", "1", "1", "0"]
    assert lines[2] == "marginal\t1\t2\t0.5"


# ------------------------------------------------------------------- sampling


def test_sample_lines_and_footer(edge_file, capsys):
    code = run(
        [
            "sample",
            "--q",
            "3",
            "--instance",
            edge_file,
            "--samples",
            "5",
            "--seed",
            "1",
            "--depth",
            "4",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    head, _, tail = out.partition("{")
    lines = head.strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        a, b = (int(tok) for tok in line.split())
        assert 1 <= a <= 3 and 1 <= b <= 3 and a != b
    doc = json.loads("{" + tail)
    _check("sample_footer", doc)
    assert doc["samples"] == 5 and doc["n"] == 2 and doc["seed"] == 1
    assert doc["mean_log_proposal"] < 0
    # Vertex 0 reads no pin and vertex 1 reads only 0's colour, which always
    # relabels to 1: two conditionals computed. Depth 4 is exact on an edge,
    # so there are no termination events.
    batch = sample_batch(Instance(Graph(2, [(0, 1)]), PottsParams(3)), 4, 5, 1)
    assert doc["conditionals_evaluated"] == batch.conditionals_evaluated == 2
    assert doc["termination_events"] == batch.termination_events == 0


def test_sample_footer_reports_terminations(capsys, tmp_path):
    run(["gen", "--family", "cycle", "--n", "10"])
    f = tmp_path / "c10.txt"
    f.write_text(capsys.readouterr().out)
    code = run(["sample", "--q", "6", "--instance", str(f), "--samples", "3", "--seed",
                "2", "--depth", "1"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out[out.index("{"):])
    _check("sample_footer", doc)
    inst = Instance(generate("cycle", n=10), PottsParams(6))
    batch = sample_batch(inst, 1, 3, 2)
    assert doc["conditionals_evaluated"] == batch.conditionals_evaluated < 30
    assert doc["termination_events"] == batch.termination_events > 0


def test_sample_deterministic(edge_file, capsys):
    argv = [
        "sample",
        "--q",
        "3",
        "--instance",
        edge_file,
        "--samples",
        "8",
        "--seed",
        "5",
        "--depth",
        "4",
    ]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_threads_flag_is_gone(edge_file, capsys):
    argv = ["sample", "--q", "3", "--instance", edge_file, "--samples", "2", "--seed", "1"]
    code = run(["--threads", "3"] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "usage:" in err and "Traceback" not in err


# ------------------------------------------------------------------- verifiers


def test_verify_contraction_report(capsys, tmp_path):
    run(["gen", "--family", "cycle", "--n", "20"])
    f = tmp_path / "c20.txt"
    f.write_text(capsys.readouterr().out)
    code = run(
        ["verify-contraction", "--q", "7", "--instance", str(f), "--lmax", "6"]
    )
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    _check("verify_contraction", doc)
    assert doc["contracting"] is True
    assert doc["gamma"] < 1


def test_verify_contraction_partial_scan_is_not_contracting(k8_file, capsys):
    # One extension stops the scan inside vertex 0; the full scan has gamma 5.
    code = run(
        ["verify-contraction", "--q", "3", "--instance", k8_file, "--lmax", "3", "--budget", "1"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    _check("verify_contraction", doc)
    assert doc["budget_exhausted"] is True and doc["vertices_scanned"] == 0
    assert doc["contracting"] is False


def test_verify_sparse_report(capsys, tmp_path):
    run(["gen", "--family", "path", "--n", "12"])
    f = tmp_path / "p12.txt"
    f.write_text(capsys.readouterr().out)
    code = run(["verify-sparse", "--q", "7", "--instance", str(f), "--lmax", "5"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    _check("verify_sparse", doc)
    assert doc["worst_ratio"] <= 1.0


def test_verify_gnp_report(capsys):
    code = run(
        [
            "verify-gnp",
            "--n",
            "120",
            "--d",
            "3",
            "--q",
            "14",
            "--seed",
            "2",
            "--lmax",
            "4",
            "--trials",
            "60",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    _check("verify_gnp", doc)
    assert doc["n"] == 120
    assert doc["contracting"] is True


def test_expected_contraction_report(capsys):
    code = run(["expected-contraction", "--n", "10000", "--d", "5", "--q", "17"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    _check("expected_contraction", doc)
    assert doc["below"] is True
    assert doc["one_over_degree"] == 0.2
    assert abs(doc["value"] - 0.191874695917) < 1e-11


# ------------------------------------------------------------------ exit codes


def test_bad_beta_exits_2(edge_file, capsys):
    code = run(["exact", "--q", "3", "--beta", "1.5", "--instance", edge_file])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_missing_instance_file_exits_2(capsys):
    code = run(["exact", "--q", "3", "--instance", "/nonexistent/file.txt"])
    assert code == 2


def test_unknown_flag_exits_2(edge_file):
    assert run(["exact", "--q", "3", "--instance", edge_file, "--bogus"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--q", "3", "--samples", "1", "--depth", "2", "--seed", str(2**64)],
        ["partition", "--q", "3", "--depth", "2", "--order-seed", "-1"],
        ["partition", "--q", "3", "--depth", "2", "--order-seed", str(2**128)],
        ["verify-sparse", "--q", "3", "--lmax", "1", "--mode", "sampled", "--seed", "-1"],
    ],
)
def test_out_of_range_seed_exits_2(argv, edge_file, capsys):
    # Philox keys must lie in [0, 2**128); the sampler keys stream i of a
    # seed by seed * 2**64 + i.
    code = run(argv + ["--instance", edge_file])
    err = capsys.readouterr().err
    assert code == 2
    assert "seed must be an integer" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-contraction", "--q", "7", "--lmax", "0"],
        ["verify-sparse", "--q", "7", "--lmax", "-1"],
    ],
)
def test_bad_lmax_exits_2(argv, edge_file, capsys):
    code = run(argv + ["--instance", edge_file])
    err = capsys.readouterr().err
    assert code == 2
    assert "l_max must be >=" in err and "Traceback" not in err


def test_verify_gnp_bad_lmax_exits_2(capsys):
    code = run(["verify-gnp", "--n", "20", "--d", "2", "--q", "7", "--lmax", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "l_max must be >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_sparse_bad_trials_exits_2(trials, edge_file, capsys):
    argv = ["verify-sparse", "--q", "7", "--lmax", "1", "--mode", "sampled"]
    code = run(argv + ["--trials", trials, "--instance", edge_file])
    err = capsys.readouterr().err
    assert code == 2
    assert "trials must be >= 1" in err and "Traceback" not in err


def test_verify_gnp_bad_trials_exits_2(capsys):
    code = run(["verify-gnp", "--n", "20", "--d", "2", "--q", "7", "--trials", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "trials must be >= 1" in err and "Traceback" not in err


def test_verify_sparse_sampled_empty_graph_exits_2(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("graph 0\n")
    argv = ["verify-sparse", "--q", "5", "--lmax", "2", "--mode", "sampled"]
    code = run(argv + ["--instance", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "at least one vertex" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--q", "3"],
        ["verify-contraction", "--q", "3", "--lmax", "2"],
    ],
    ids=["exact", "verify-contraction"],
)
def test_bad_budget_exits_2(argv, value, edge_file, capsys):
    code = run(argv + ["--instance", edge_file, "--budget", value])
    err = capsys.readouterr().err
    assert code == 2
    assert f"--budget must be >= 1, got {value}" in err and "Traceback" not in err


def test_model_flags_agree_across_subcommands():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    flags = {}
    for name, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.dest in ("q", "beta"):
                flags.setdefault(action.dest, {})[name] = (
                    action.type,
                    action.default,
                    action.required,
                    action.help,
                )
    assert len(flags["q"]) == len(flags["beta"]) == 8
    for by_command in flags.values():
        assert len(set(by_command.values())) == 1, by_command


def test_gen_gnp_out_of_range_seed_exits_2(capsys):
    code = run(["gen", "--family", "gnp", "--n", "10", "--d", "2", "--seed", str(2**128)])
    err = capsys.readouterr().err
    assert code == 2
    assert "seed must be an integer" in err and "Traceback" not in err


def test_budget_exhaustion_exits_4(capsys, tmp_path):
    run(["gen", "--family", "cycle", "--n", "12"])
    f = tmp_path / "c12.txt"
    f.write_text(capsys.readouterr().out)
    code = run(
        [
            "marginal",
            "--q",
            "7",
            "--instance",
            str(f),
            "--vertex",
            "0",
            "--depth",
            "14",
            "--max-calls",
            "5",
        ]
    )
    captured = capsys.readouterr()
    assert code == 4
    assert "budget" in captured.err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-calls", "-3"),
        ("--max-calls", "0"),
        ("--block-budget", "0"),
        ("--config-budget", "-1"),
    ],
)
@pytest.mark.parametrize("command", ["marginal", "partition", "sample"])
def test_bad_limit_flags_exit_2(command, flag, value, edge_file, capsys):
    argv = [command, "--q", "3", "--instance", edge_file, "--depth", "2"]
    if command == "marginal":
        argv += ["--vertex", "0"]
    elif command == "sample":
        argv += ["--samples", "1", "--seed", "1"]
    code = run(argv + [flag, value])
    err = capsys.readouterr().err
    assert code == 2
    assert flag in err and "Traceback" not in err


# test_bad_limit_flags_exit_2 passes --depth, which excludes --depth-coeff;
# argparse reads "-inf" as a flag, so default_depth's test covers it.
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["marginal", "partition", "sample"])
def test_non_finite_depth_coeff_exits_2(command, value, edge_file, capsys):
    argv = [command, "--q", "3", "--instance", edge_file, "--depth-coeff", value]
    if command == "marginal":
        argv += ["--vertex", "0"]
    elif command == "sample":
        argv += ["--samples", "1", "--seed", "1"]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "depth coefficient must be finite" in err and "Traceback" not in err


def test_stack_overflow_exits_4(capsys, tmp_path):
    run(["gen", "--family", "path", "--n", "1200"])
    f = tmp_path / "p1200.txt"
    f.write_text(capsys.readouterr().out)
    code = run(
        ["marginal", "--q", "6", "--instance", str(f), "--vertex", "600", "--depth", "1200"]
    )
    captured = capsys.readouterr()
    assert code == 4
    assert "budget exceeded" in captured.err and "depth 1200" in captured.err
    argv = ["marginal", "--q", "4", "--beta", "0.5", "--vertex", "0", "--depth", "600"]
    assert run(argv + ["--instance", str(f)]) == 4
    assert "nested deeper than the Python stack" in capsys.readouterr().err


def test_internal_error_exits_5(edge_file, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "marginal_vector", boom)
    argv = ["marginal", "--q", "3", "--instance", edge_file, "--vertex", "0", "--depth", "2"]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 5
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_fmt_numbers():
    assert cli._fmt(float("inf")) is None and cli._fmt(float("nan")) is None
    assert cli._fmt(2.0) == 2 and type(cli._fmt(2.0)) is int


def test_limit_flags_build_recursion_limits(edge_file):
    argv = ["marginal", "--q", "3", "--instance", edge_file, "--vertex", "0"]
    args = build_parser().parse_args(argv + ["--max-calls", "7", "--config-budget", "9"])
    assert cli._limits(args) == RecursionLimits(config_budget=9, max_calls=7)
    assert cli._limits(build_parser().parse_args(argv)) == RecursionLimits()


def test_instance_file_alias(edge_file, capsys):
    code = run(["exact", "--q", "3", "--instance-file", edge_file])
    assert code == 0
    assert '"z": 6' in capsys.readouterr().out


# -------------------------------------------------------------- console script


def test_console_script_installed():
    # The child imports the package these tests import, with or without a
    # PYTHONPATH in the caller's environment.
    src = str(Path(pottsdecay.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pottsdecay.cli", "gen", "--family", "path", "--n", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "graph 2\nedge 0 1\n"
