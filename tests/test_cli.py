"""The command-line surface: artifacts, exit codes, reproducibility."""
import json

import numpy as np
import pytest

from lsmdp import ArmSpec, RingSpec, build_stack, build_task_basis, make_arm, make_ring
from lsmdp import cli, core, errors, multitask
from lsmdp.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)
from lsmdp.serialize import lmdp_to_dict


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture
def ring_config(tmp_path):
    return write_config(tmp_path / "ring.json", {
        "type": "ring", "n_states": 12, "subtask_spacing": 3, "depth": 2,
        "goal": 0, "start": 6,
    })


@pytest.fixture
def rooms_config(tmp_path):
    return write_config(tmp_path / "rooms.json", {
        "type": "grid", "four_rooms": 11, "goal_cells": [[0, 10]],
        "subtask_cells": [[2, 5], [5, 2], [5, 8], [8, 5]],
        "goal": [0, 10], "start": [10, 0], "temperature": 0.5,
        "max_steps": 2000,
        "learn": {"epochs": 3, "episodes": 5, "n_seeds": 1,
                  "max_steps": 500, "conditions": ["flat", "guided"]},
    })


@pytest.fixture
def arm_config(tmp_path):
    return write_config(tmp_path / "arm.json", {
        "type": "arm", "n_bins": 7, "target_rect": [-3.0, 3.0, -3.0, 3.0],
    })


@pytest.fixture
def chain_config(tmp_path, chain5):
    return write_config(tmp_path / "chain.json",
                        {"type": "lmdp", "lmdp": lmdp_to_dict(chain5)})


def read_header(path):
    return path.read_text().splitlines()[0]


# ---------------------------------------------------------------------------
# happy paths


def test_solve_direct(tmp_path, ring_config):
    out = tmp_path / "out"
    assert main(["solve", "--domain", ring_config, "--out", str(out)]) == EXIT_OK
    assert read_header(out / "z.csv") == "state_index,label,z,V"
    assert len((out / "z.csv").read_text().splitlines()) == 1 + 24
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["method"] == "direct"
    assert manifest["converged"] is True
    assert manifest["residual"] < 1e-9


def test_solve_z_iter_agrees_with_direct(tmp_path, chain_config):
    out_d = tmp_path / "direct"
    out_z = tmp_path / "iter"
    assert main(["solve", "--domain", chain_config, "--out", str(out_d)]) == EXIT_OK
    assert main(["solve", "--domain", chain_config, "--out", str(out_z),
                 "--method", "z-iter"]) == EXIT_OK
    rows_d = (out_d / "z.csv").read_text().splitlines()[1:]
    rows_z = (out_z / "z.csv").read_text().splitlines()[1:]
    for rd, rz in zip(rows_d, rows_z):
        zd = float(rd.split(",")[2])
        zz = float(rz.split(",")[2])
        assert zz == pytest.approx(zd, abs=1e-9)
    manifest = json.loads((out_z / "manifest.json").read_text())
    assert manifest["iterations"] > 0 and manifest["converged"] is True


def test_blend_writes_weights_and_composite(tmp_path, arm_config):
    out = tmp_path / "out"
    assert main(["blend", "--domain", arm_config, "--out", str(out)]) == EXIT_OK
    assert read_header(out / "weights.csv") == "task_index,weight"
    assert read_header(out / "z.csv") == "state_index,label,z,V"
    weights = [float(line.split(",")[1])
               for line in (out / "weights.csv").read_text().splitlines()[1:]]
    assert len(weights) == 49
    assert all(w >= 0 for w in weights)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["blend_residual"] <= 1e-9
    assert "method" not in manifest  # NNLS is the only fit


def test_an_inline_map_and_an_lmdp_file_load(tmp_path, chain5):
    # 11 free cells and one goal twin; the S cell is a subtask, so it stacks
    grid = write_config(tmp_path / "grid.json", {
        "type": "grid", "map": "S..G\n.#..\n....", "start": [2, 0]})
    assert main(["solve", "--domain", grid, "--out", str(tmp_path / "solve")]) == EXIT_OK
    rows = (tmp_path / "solve" / "z.csv").read_text().splitlines()[1:]
    assert len(rows) == 11 + 1 and rows[-1].split(",")[1] == "goal_r0c3"
    assert main(["simulate", "--domain", grid, "--seed", "1",
                 "--out", str(tmp_path / "simulate")]) == EXIT_OK
    # a file next to the config gives the same solve as the inline document
    (tmp_path / "chain_doc.json").write_text(json.dumps(lmdp_to_dict(chain5)))
    by_file = write_config(tmp_path / "by_file.json",
                           {"type": "lmdp", "lmdp_file": "chain_doc.json"})
    inline = write_config(tmp_path / "inline.json",
                          {"type": "lmdp", "lmdp": lmdp_to_dict(chain5)})
    for name, cfg in (("file", by_file), ("inline", inline)):
        assert main(["solve", "--domain", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
    assert ((tmp_path / "file" / "z.csv").read_bytes()
            == (tmp_path / "inline" / "z.csv").read_bytes())


@pytest.mark.parametrize("method", ["blend-nnls", "nnls", "blend-pinv", "pinv"])
def test_blend_takes_no_method_flag(tmp_path, arm_config, method):
    # NNLS is the one blend fit, so every spelling of the old flag is a usage error
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["blend", "--domain", arm_config, "--out", str(out), "--method", method])
    assert exc.value.code == EXIT_CONFIG
    assert not out.exists()


def test_stack_serializes_the_tower(tmp_path, ring_config):
    out = tmp_path / "out"
    assert main(["stack", "--domain", ring_config, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "stack" / "manifest.json").read_text())
    assert manifest["depth"] == 2
    assert manifest["layer_kinds"] == ["augmented", "top"]
    run = json.loads((out / "manifest.json").read_text())
    assert run["depth"] == 2


def test_simulate_writes_trajectory(tmp_path, rooms_config):
    out = tmp_path / "out"
    assert main(["simulate", "--domain", rooms_config, "--out", str(out),
                 "--seed", "3"]) == EXIT_OK
    assert read_header(out / "trajectory.csv") == "t,state,layer_accessed,event"
    assert read_header(out / "weights_snapshots.csv") == \
        "event_id,layer,task_index,weight"
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[-1].split(",")[3] in ("absorbed", "truncated")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["length"] == len(lines) - 2
    assert manifest["n_events"] >= 0


def test_learn_emits_both_conditions(tmp_path, rooms_config):
    out = tmp_path / "out"
    assert main(["learn", "--domain", rooms_config, "--out", str(out),
                 "--seed", "1"]) == EXIT_OK
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "epoch,mean_length,stderr,condition,seed"
    conditions = {line.split(",")[3] for line in lines[1:]}
    assert conditions == {"flat", "guided"}
    assert len(lines) == 1 + 3 * 2   # epochs * conditions
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["conditions"] == ["flat", "guided"]


def test_bench_reports_rows_and_slopes(tmp_path):
    out = tmp_path / "out"
    assert main(["bench", "--sizes", "8,16", "--out", str(out)]) == EXIT_OK
    lines = (out / "scaling.csv").read_text().splitlines()
    assert lines[0] == "N,condition,total_iterations,nonzeros"
    assert len(lines) == 1 + 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["slopes"]) == {
        "flat_total_iterations", "flat_nonzeros",
        "hierarchical_total_iterations", "hierarchical_nonzeros",
    }


# ---------------------------------------------------------------------------
# exit codes


def test_no_basis_is_solved_before_its_first_compose(tmp_path, monkeypatch):
    # a basis is factored on its first compose; a stack augments its base and
    # never composes it, so the base kernel is never factored
    solved, bundles, load_domain = [], [], cli.load_domain
    factor_bellman = core.factor_bellman

    def counting_factor(kernel):
        solved.append(kernel)
        return factor_bellman(kernel)

    def recording_load(path):
        bundles.append(load_domain(path))
        return bundles[-1]

    for module in (core, multitask):
        monkeypatch.setattr(module, "factor_bellman", counting_factor)
    monkeypatch.setattr(cli, "load_domain", recording_load)
    lmdp, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    basis = build_task_basis(lmdp, tasks)
    assert solved == []
    build_stack(basis, structures)
    assert len(solved) == 3
    assert all(kernel.passive is not lmdp.passive for kernel in solved)
    config = write_config(tmp_path / "ring.json", {
        "type": "ring", "n_states": 27, "subtask_spacing": 3, "depth": 3,
        "goal": 0, "start": 13,
        "learn": {"epochs": 3, "episodes": 5, "n_seeds": 2,
                  "conditions": ["flat", "guided"]}})
    for command in ("stack", "simulate", "learn"):
        solved.clear()
        assert main([command, "--domain", config, "--seed", "1",
                     "--out", str(tmp_path / command)]) == EXIT_OK
        assert len(solved) == 3
        assert all(kernel.passive is not bundles[-1].lmdp.passive for kernel in solved)
    # make_arm hands back its basis factored, once
    solved.clear()
    _, arm_basis, _ = make_arm(ArmSpec(7, target_rect=(-3.0, 3.0, -3.0, 3.0)))
    assert solved == [arm_basis.base]
    arm_basis.solve
    assert len(solved) == 1
    # and lsmdp blend composes that basis, so the arm kernel is factored once
    solved.clear()
    config = write_config(tmp_path / "arm.json", {
        "type": "arm", "n_bins": 7, "target_rect": [-3, 3, -3, 3]})
    assert main(["blend", "--domain", config, "--seed", "1",
                 "--out", str(tmp_path / "blend")]) == EXIT_OK
    assert len(solved) == 1 and solved[0] is bundles[-1].lmdp


def test_missing_config_file(tmp_path):
    code = main(["solve", "--domain", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG


def test_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--domain", str(bad),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_unknown_domain_type(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"type": "maze"})
    assert main(["solve", "--domain", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_out_of_range_goal(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       {"type": "ring", "n_states": 6, "goal": 99})
    assert main(["solve", "--domain", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_blocked_start_cell(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "type": "grid", "four_rooms": 11, "goal_cells": [[0, 10]],
        "start": [5, 5],
    })
    assert main(["solve", "--domain", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG


RING = {"type": "ring", "n_states": 12, "depth": 2}
ROOMS = {"type": "grid", "four_rooms": 11, "goal_cells": [[0, 10]]}
# a one-state corridor to a single exit
LMDP = {"n_interior": 1, "n_boundary": 1, "lambda": 1.0, "r_i": [-1.0],
        "r_b": [0.0], "passive": [[0, 1, 1.0]]}


@pytest.mark.parametrize("command, doc", [
    ("solve", {"type": "ring", "n_states": "abc"}),
    ("solve", {"type": "ring", "n_states": 12, "goal": "x"}),
    ("solve", [{"type": "ring", "n_states": 12}]),
    ("solve", {"type": "arm", "n_bins": "7"}),
    ("simulate", dict(RING, max_steps="x")),
    ("learn", dict(RING, learn={"epochs": "x"})),
    ("simulate", dict(RING, max_steps=0)),
    ("learn", dict(RING, learn={"max_steps": -5})),
    ("learn", dict(RING, learn={"episodes": 0})),
    ("learn", dict(RING, learn={"step_scale": 0})),
    ("learn", dict(RING, learn={"epochs": 0})),
    ("learn", dict(RING, learn={"n_seeds": 0})),
    ("learn", dict(RING, learn={"conditions": []})),
    ("learn", dict(RING, learn={"conditions": ["flat", "random"]})),
    ("solve", {"type": "lmdp", "lmdp": dict(LMDP, labels=5)}),
    ("solve", {"type": "lmdp", "lmdp": dict(LMDP, passive=[[0, 1]])}),
    ("solve", {"type": "lmdp", "lmdp": dict(LMDP, passive=[[0, 1, "x"]])}),
    ("solve", {"type": "lmdp", "lmdp": dict(LMDP, passive=7)}),
    ("solve", {"type": "lmdp", "lmdp": dict(LMDP, passive=[[0, 1, 0.5],
                                                          [0, 1, 0.5]])}),
    ("solve", {"type": "lmdp", "lmdp": dict(LMDP, passive=[[0, 1, float("nan")]])}),
    ("solve", {"type": "arm", "n_bins": 8, "step_prob": float("nan")}),
    ("solve", {"type": "arm", "n_bins": 8, "step_prob": -0.01}),
    ("solve", {"type": "arm", "n_bins": 8, "exit_prob": -0.01}),
    ("solve", {"type": "arm", "n_bins": 8, "exit_prob": float("nan")}),
    ("solve", dict(ROOMS, step_prob=float("nan"))),
    ("solve", dict(ROOMS, exit_prob=float("nan"))),
    ("solve", dict(ROOMS, exit_prob=-0.01)),
    ("solve", {"type": "grid", "goal_cells": [[0, 10]]}),
    ("solve", {"type": "lmdp"}),
    ("solve", {"type": "lmdp", "lmdp": dict(LMDP, labels=["a,b", "c\nd"])}),
], ids=["ring-size-string", "goal-string", "top-level-list", "arm-bins-string",
        "max-steps-string", "learn-epochs-string", "max-steps-zero",
        "learn-max-steps-negative", "learn-episodes-zero", "learn-step-scale-zero",
        "learn-epochs-zero", "learn-seeds-zero", "learn-conditions-empty",
        "learn-conditions-unknown", "lmdp-labels-int", "lmdp-triple-short",
        "lmdp-triple-string", "lmdp-passive-int", "lmdp-triple-repeated",
        "lmdp-triple-nan", "arm-step-nan", "arm-step-negative", "arm-exit-negative",
        "arm-exit-nan", "grid-step-nan", "grid-exit-nan", "grid-exit-negative",
        "grid-without-map", "lmdp-without-document", "lmdp-labels-split-rows"])
def test_malformed_config_values(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main([command, "--domain", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    # a walk probability out of range is named in the message
    for field in ("step_prob", "exit_prob"):
        if isinstance(doc, dict) and field in doc:
            assert f"{field} must lie in" in err


@pytest.mark.parametrize("command, doc", [
    ("solve", {"type": "ring", "n_states": 27.5}),
    ("solve", dict(RING, subtask_spacing=3.0)),
    ("solve", dict(RING, depth=2.0)),
    ("solve", {"type": "arm", "n_bins": 7.0}),
    ("solve", dict(RING, goal=0.5)),
    ("solve", dict(ROOMS, four_rooms=11.0)),
    ("simulate", dict(RING, start=6.7)),
    ("simulate", dict(RING, max_steps=10.5)),
    ("learn", dict(RING, learn={"epochs": 2.5, "episodes": True})),
    ("learn", dict(RING, learn={"epochs": 1, "episodes": 1, "n_seeds": 1.5})),
    ("learn", dict(RING, learn={"epochs": 1, "episodes": 1, "max_steps": 50.5})),
], ids=["ring-size-float", "ring-spacing-float", "ring-depth-float", "arm-bins-float",
        "goal-float", "four-rooms-float", "start-float", "max-steps-float",
        "learn-epochs-float", "learn-seeds-float", "learn-max-steps-float"])
def test_integer_fields_take_only_integers(tmp_path, capsys, command, doc):
    # a float, integral or not, is neither truncated nor a crash
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main([command, "--domain", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, field", [
    (dict(RING, temperature="1.0"), "temperature"),
    (dict(RING, temperature=None), "temperature"),
    (dict(RING, temperature=True), "temperature"),
    (dict(RING, interior_reward="x"), "interior_reward"),
    (dict(RING, interior_reward="-1"), "interior_reward"),
    (dict(RING, access_weight="0.25"), "access_weight"),
    (dict(RING, step_prob="0.3"), "step_prob"),
    (dict(ROOMS, temperature="1.0"), "temperature"),
    (dict(ROOMS, stay_prob=None), "stay_prob"),
    ({"type": "arm", "n_bins": 7, "link_lengths": [True, True]}, "link_lengths"),
    ({"type": "arm", "n_bins": 7, "target_rect": [-3, "3", -3, 3]}, "target_rect"),
    ({"type": "arm", "n_bins": 7, "interior_reward": False}, "interior_reward"),
], ids=["ring-temperature-string", "ring-temperature-null", "ring-temperature-bool",
        "ring-reward-string", "ring-reward-numeric-string", "ring-access-string",
        "ring-step-string", "grid-temperature-string", "grid-stay-null",
        "arm-links-bool", "arm-rect-string", "arm-reward-bool"])
def test_real_fields_take_only_json_numbers(tmp_path, capsys, doc, field):
    # these used to crash with a traceback or run as 1.0, -1.0 or 0.25
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["solve", "--domain", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"{field} must be a number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("weight", [0, -0.25])
def test_a_ring_without_access_weight_is_a_config_error(tmp_path, capsys, weight):
    # access weight 0 used to warn UnreachableSubtasks and then exit 3 from
    # the absorption solve ("subtask 0 has no entry distribution")
    cfg = write_config(tmp_path / "cfg.json", {
        "type": "ring", "n_states": 27, "depth": 2, "access_weight": weight})
    assert main(["stack", "--domain", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "access_weight must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("goal_cells", [[0, 10.0]]),
    ("goal_cells", [[0, 10, 0]]),
    ("subtask_cells", [[2, 5], [5, 2.0]]),
    ("subtask_cells", [[True, 5]]),
    ("goal", [0, 10.0]),
    ("start", [10, 0.0]),
    ("start", [10]),
], ids=["goal-cells-float", "goal-cells-triple", "subtask-cells-float",
        "subtask-cells-bool", "goal-float", "start-float", "start-single"])
def test_grid_cells_take_only_integer_pairs(tmp_path, capsys, field, value):
    # a float cell used to pass as its integer twin, or become a label such
    # as goal_r0c10.0
    cfg = write_config(tmp_path / "cfg.json", {
        **ROOMS, "subtask_cells": [[2, 5], [5, 2], [5, 8], [8, 5]],
        "goal": [0, 10], "start": [10, 0], field: value})
    for command in ("solve", "simulate"):
        assert main([command, "--domain", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "integer pairs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("learn, start, message", [
    ({"epochs": 2.5}, 13, "must be at least 1 and an integer"),
    ({"episodes": 0}, 13, "must be at least 1 and an integer"),
    ({"max_steps": 50.5}, 13, "must be at least 1 and an integer"),
    ({}, 6.7, "is not a base interior state"),
    ({}, 27, "is not a base interior state"),
    ({"step_scale": 0}, 13, "step_scale must be finite and positive"),
    ({"step_scale": True}, 13, "step_scale must be finite and positive"),
    ({"conditions": ["flat", "flat"]}, 13, "each once"),
    ({"conditions": ["guided", "flat", "guided"]}, 13, "each once"),
], ids=["epochs-float", "episodes-zero", "max-steps-float", "start-float",
        "start-out-of-range", "step-scale-zero", "step-scale-bool",
        "conditions-repeated", "guided-repeated"])
def test_learn_checks_its_inputs_before_building_a_stack(tmp_path, monkeypatch,
                                                         capsys, learn, start,
                                                         message):
    built = []
    monkeypatch.setattr(cli, "_build_stack", lambda *args: built.append(args))
    cfg = write_config(tmp_path / "ring.json", {
        "type": "ring", "n_states": 27, "subtask_spacing": 3, "depth": 3,
        "start": start, "learn": {"conditions": ["flat", "guided"], **learn}})
    assert main(["learn", "--domain", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert built == []
    assert not (tmp_path / "out").exists()


def test_every_error_is_config_or_numerical():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    classes = set(subclasses(errors.LmdpError)) - {errors.ConfigError,
                                                   errors.NumericalError}
    config = set()
    for cls in classes:
        kinds = [issubclass(cls, base)
                 for base in (errors.ConfigError, errors.NumericalError)]
        assert sum(kinds) == 1, cls.__name__
        if kinds[0]:
            config.add(cls.__name__)
    # the caller's misuse of a stack is configuration, not numerics
    assert config == {"DimensionMismatch", "NotStochastic", "NoAbsorption",
                      "RewardOverflow", "InvalidSpec", "BlockedCell",
                      "EmptyTarget", "NoTaskSet", "CannotTerminateBase",
                      "AlreadyTerminated"}
    assert len(classes) == 17


@pytest.mark.parametrize("argv", [
    ["stack", "--kappa", "nan"],
    ["stack", "--kappa", "inf"],
    ["simulate", "--kappa", "nan"],
    ["simulate", "--kappa", "inf"],
    ["solve", "--method", "z-iter", "--tol", "-1"],
    ["solve", "--method", "z-iter", "--tol", "nan"],
    ["solve", "--method", "z-iter", "--max-iter", "-3"],
    ["solve", "--method", "z-iter", "--max-iter", "0"],
    ["bench", "--sizes", "8", "--tol", "-1"],
    ["bench", "--sizes", "abc"],
    ["bench", "--sizes", "8,x"],
], ids=["stack-kappa-nan", "stack-kappa-inf", "simulate-kappa-nan",
        "simulate-kappa-inf", "solve-tol-negative", "solve-tol-nan",
        "solve-max-iter-negative", "solve-max-iter-zero",
        "bench-tol-negative", "bench-sizes-word", "bench-sizes-partial"])
def test_malformed_arguments(tmp_path, capsys, ring_config, argv):
    if argv[0] != "bench":
        argv = argv + ["--domain", ring_config]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("fault", [
    "simulate-negative-seed", "learn-negative-seed", "out-is-a-file",
    "stack-out-is-a-file", "domain-is-a-directory", "domain-not-utf8",
])
def test_bad_paths_and_seeds_are_config_errors(tmp_path, capsys, ring_config,
                                               fault):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe\x00")
    argv = {
        "simulate-negative-seed": ["simulate", "--seed", "-1"],
        "learn-negative-seed": ["learn", "--seed", "-2"],
        "out-is-a-file": ["solve", "--out", str(a_file)],
        "stack-out-is-a-file": ["stack", "--out", str(a_file)],
        "domain-is-a-directory": ["solve", "--domain", str(tmp_path)],
        "domain-not-utf8": ["solve", "--domain", str(not_utf8)],
    }[fault]
    if "--domain" not in argv:
        argv += ["--domain", ring_config]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


def test_an_overflowing_inpaint_scale_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path / "ring27.json", {
        "type": "ring", "n_states": 27, "subtask_spacing": 3, "depth": 3,
        "goal": 0, "start": 13,
    })
    assert main(["simulate", "--domain", config, "--kappa", "1000",
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "kappa" in err
    assert "RuntimeWarning" not in err


def test_blend_needs_a_target(tmp_path, chain_config):
    # an lmdp domain has no target, so simulate and learn turn it away too
    for command in ("blend", "simulate", "learn"):
        assert main([command, "--domain", chain_config,
                     "--out", str(tmp_path / command)]) == EXIT_CONFIG
        assert not (tmp_path / command).exists()


def test_stack_needs_structures(tmp_path, arm_config):
    assert main(["stack", "--domain", arm_config,
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG


@pytest.fixture
def diverging_config(tmp_path):
    # positive interior rewards on a recurrent pair push the spectral radius
    # of the weighted kernel past one, so the linear solve has no positive
    # solution and z-iteration grows without bound
    doc = {
        "n_interior": 2, "n_boundary": 1, "lambda": 1.0,
        "r_i": [1.0, 1.0], "r_b": [0.0],
        "passive": [[0, 1, 0.9], [0, 2, 0.1], [1, 0, 0.9], [1, 2, 0.1]],
    }
    return write_config(tmp_path / "cfg.json", {"type": "lmdp", "lmdp": doc})


def test_numerical_failure_exit_code(tmp_path, diverging_config):
    assert main(["solve", "--domain", diverging_config,
                 "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL


def test_a_failed_solve_writes_nothing(tmp_path, capsys):
    # the four-rooms map at temperature 0.02 underflows the direct solve
    cfg = write_config(tmp_path / "cold.json", {
        "type": "grid", "four_rooms": 21, "goal_cells": [[0, 20]],
        "subtask_cells": [[5, 10], [10, 5], [10, 16], [16, 10]],
        "goal": [0, 20], "temperature": 0.02,
    })
    out = tmp_path / "nested" / "out"
    assert main(["solve", "--domain", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not (tmp_path / "nested").exists()


def test_diverging_z_iteration_is_a_numerical_failure(tmp_path, diverging_config):
    # the iterate overflows within a thousand sweeps; it is not a spent budget
    assert main(["solve", "--domain", diverging_config, "--method", "z-iter",
                 "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL


def test_a_budget_ending_on_an_overflowed_iterate_writes_nothing(tmp_path, capsys,
                                                                diverging_config):
    # the iterate is infinite at sweep 796, one sweep before inf - inf shows;
    # freezing it must fail as numerical, not write inf into z.csv
    out = tmp_path / "nested" / "out"
    assert main(["solve", "--domain", diverging_config, "--method", "z-iter",
                 "--max-iter", "796", "--out", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not (tmp_path / "nested").exists()


def test_sweep_budget_exit_code_with_partial_output(tmp_path, ring_config):
    out = tmp_path / "out"
    code = main(["solve", "--domain", ring_config, "--out", str(out),
                 "--method", "z-iter", "--max-iter", "1"])
    assert code == EXIT_NO_CONVERGENCE
    assert (out / "z.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is False
    assert manifest["iterations"] == 1


# ---------------------------------------------------------------------------
# reproducibility


def rerun_identical(argv, tmp_path, names):
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        outputs.append({name: (out / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]


def test_solve_rerun_is_byte_identical(tmp_path, ring_config):
    rerun_identical(["solve", "--domain", ring_config, "--seed", "5"],
                    tmp_path, ["z.csv", "manifest.json"])


def test_simulate_rerun_is_byte_identical(tmp_path, rooms_config):
    rerun_identical(["simulate", "--domain", rooms_config, "--seed", "5"],
                    tmp_path,
                    ["trajectory.csv", "weights_snapshots.csv", "manifest.json"])


def test_learn_rerun_is_byte_identical(tmp_path, rooms_config):
    rerun_identical(["learn", "--domain", rooms_config, "--seed", "5"],
                    tmp_path, ["curve.csv", "manifest.json"])


def test_different_seed_changes_the_episode(tmp_path, rooms_config):
    texts = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main(["simulate", "--domain", rooms_config, "--seed", seed,
                     "--out", str(out)]) == EXIT_OK
        texts.append((out / "trajectory.csv").read_text())
    assert texts[0] != texts[1]
