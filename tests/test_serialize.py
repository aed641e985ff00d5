"""Deterministic on-disk formats and their round trips."""
import functools
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsmdp
from lsmdp import (
    GridSpec,
    PassiveDynamics,
    RingSpec,
    absorption_dynamics,
    boundary_goal_tasks,
    build_stack,
    build_task_basis,
    make_grid,
    make_ring,
    run_episode,
    solve_direct,
    stack_subtask_kernel,
    terminate_layer,
)
from lsmdp.errors import InvalidSpec
from lsmdp.serialize import (
    config_digest,
    curve_csv,
    desirability_csv,
    fmt,
    lmdp_from_dict,
    lmdp_to_dict,
    read_json,
    run_manifest,
    save_stack,
    scaling_csv,
    snapshots_csv,
    trajectory_csv,
    weights_csv,
    write_json,
)

import oracles
from conftest import four_rooms_setting


# ---------------------------------------------------------------------------
# float rendering


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(0)
    values = list(rng.standard_normal(200)) + \
        list(np.exp(rng.uniform(-300, 300, 200))) + \
        [0.0, 1.0, -1.0, math.pi, 2.0 ** -1074, float("inf"), float("-inf")]
    for x in values:
        assert float(fmt(x)) == x
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(1.0) == "1"
    assert fmt(float("-inf")) == "-inf"


# ---------------------------------------------------------------------------
# LMDP documents


def test_lmdp_document_round_trip(chain5, tmp_path):
    doc = lmdp_to_dict(chain5)
    back = lmdp_from_dict(doc)
    np.testing.assert_array_equal(back.passive.full_matrix.toarray(),
                                  chain5.passive.full_matrix.toarray())
    np.testing.assert_array_equal(back.rewards.interior, chain5.rewards.interior)
    np.testing.assert_array_equal(back.rewards.boundary, chain5.rewards.boundary)
    assert back.rewards.temperature == chain5.rewards.temperature
    assert back.partition.labels == chain5.partition.labels

    write_json(tmp_path / "m.json", doc)
    from_file = lmdp_from_dict(read_json(tmp_path / "m.json"))
    np.testing.assert_array_equal(from_file.passive.full_matrix.toarray(),
                                  chain5.passive.full_matrix.toarray())


def test_triples_are_sorted_and_global(chain5):
    triples = lmdp_to_dict(chain5)["passive"]
    order = [(src, dst) for src, dst, _ in triples]
    assert order == sorted(order)
    assert all(0 <= src < 3 and 0 <= dst < 5 for src, dst, _ in triples)
    total = {}
    for src, _, p in triples:
        total[src] = total.get(src, 0.0) + p
    assert total == {0: 1.0, 1: 1.0, 2: 1.0}


def test_malformed_documents_are_rejected(chain5):
    doc = lmdp_to_dict(chain5)
    broken = dict(doc)
    del broken["lambda"]
    with pytest.raises(InvalidSpec):
        lmdp_from_dict(broken)
    broken = dict(doc, passive=doc["passive"] + [[7, 0, 0.5]])
    with pytest.raises(InvalidSpec):
        lmdp_from_dict(broken)
    # wrong types and shapes in the labels and the passive triples
    for field, value in (("labels", 5), ("labels", "abcde"), ("passive", [[0, 1]]),
                         ("passive", [[0, 0, "x"]]), ("passive", 7)):
        with pytest.raises(InvalidSpec):
            lmdp_from_dict(dict(doc, **{field: value}))
    # a repeated pair is rejected, not summed into P(1|0) = 1.0, although
    # column 0 still sums to 1
    passive = [t for t in doc["passive"] if t[:2] != [0, 3]] + [[0, 1, 0.5]]
    with pytest.raises(InvalidSpec, match="source 0, destination 1"):
        lmdp_from_dict(dict(doc, passive=passive))


@pytest.mark.parametrize("field, value", [
    ("n_interior", 3.0), ("n_interior", 3.9), ("n_boundary", 2.0), ("n_boundary", True),
    ("lambda", "1.0"), ("lambda", True), ("lambda", None),
    ("r_i", ["-1.0", "-1.0", "-1.0"]), ("r_b", [True, 0.0]),
])
def test_lmdp_document_sizes_are_integers_and_values_numbers(chain5, field, value):
    # int() and float() used to truncate 3.9 to 3, read True as 1 and parse "1.0"
    with pytest.raises(InvalidSpec, match=field):
        lmdp_from_dict(dict(lmdp_to_dict(chain5), **{field: value}))


@pytest.mark.parametrize("triple", [[0.7, 1, 0.5], [0, 1.0, 0.5], [0, True, 0.5],
                                    [0, 1, "0.5"], [0, 1, None], [0, 1, 0.5, 9]])
def test_passive_triples_take_integer_indices_and_a_number(chain5, triple):
    doc = lmdp_to_dict(chain5)
    assert doc["passive"][0] == [0, 1, 0.5]
    with pytest.raises(InvalidSpec, match="passive"):
        lmdp_from_dict(dict(doc, passive=[triple] + doc["passive"][1:]))


@pytest.mark.parametrize("label", ["a,b", "c\nd", "e\r", "f\u2028g"])
def test_a_label_that_would_split_its_csv_row_is_rejected(chain5, label):
    doc = dict(lmdp_to_dict(chain5), labels=["s0", "s1", label, "b0", "b1"])
    with pytest.raises(InvalidSpec, match="comma or a line break"):
        lmdp_from_dict(doc)
    lmdp = lmdp_from_dict(dict(doc, labels=["s 0", "s1", "s2", "", "goal"]))
    assert desirability_csv(lmdp, np.ones(5)).count("\n") == 1 + 5


def test_writers_emit_identical_bytes(chain5, tmp_path):
    for name in ("one", "two"):
        write_json(tmp_path / f"{name}.json", lmdp_to_dict(chain5))
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    assert b"\r" not in (tmp_path / "one.json").read_bytes()


# ---------------------------------------------------------------------------
# CSV tables


def test_desirability_csv_layout(chain5):
    z = solve_direct(chain5)
    text = desirability_csv(chain5, z.full())
    lines = text.splitlines()
    assert lines[0] == "state_index,label,z,V"
    assert len(lines) == 1 + chain5.n_states
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == chain5.partition.label(0)
    assert float(first[2]) == z.interior[0]
    assert float(first[3]) == pytest.approx(
        chain5.rewards.temperature * math.log(z.interior[0]), rel=1e-15)
    assert text.endswith("\n")


def test_zero_desirability_renders_minus_infinity(chain5):
    z_full = np.ones(chain5.n_states)
    z_full[1] = 0.0
    lines = desirability_csv(chain5, z_full).splitlines()
    row = lines[2].split(",")
    assert row[2] == "0" and row[3] == "-inf"


def test_weights_csv_layout():
    from lsmdp.multitask import TaskWeights
    text = weights_csv(TaskWeights(np.array([0.25, 0.0, 1.5]), 1e-12))
    assert text == ("task_index,weight\n"
                    "0,0.25\n"
                    "1,0\n"
                    "2,1.5\n")


def corridor_trajectory(seed=7, max_steps=500):
    spec = GridSpec(width=9, height=1, goal_cells=((0, 8),))
    lmdp, structure, goal_q = make_grid(spec, [(0, 1), (0, 4), (0, 7)], (0, 8))
    basis = build_task_basis(
        lmdp, boundary_goal_tasks(lmdp.n_boundary, spec.temperature))
    stack = build_stack(basis, [structure])
    stack.set_task(goal_q)
    return run_episode(stack, 0, np.random.default_rng(seed),
                       max_steps=max_steps)


def test_trajectory_csv_layout():
    traj = corridor_trajectory()
    lines = trajectory_csv(traj).splitlines()
    assert lines[0] == "t,state,layer_accessed,event"
    assert len(lines) == 1 + len(traj.states)
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(len(traj.states)))
    assert [int(r[1]) for r in rows] == traj.states
    assert rows[-1][3] == "absorbed" and rows[-1][2] == "0"
    for event in traj.events:
        row = rows[event.base_time]
        assert row[2] == str(event.deepest_layer)
        assert row[3] == ("access" if event.terminated_layer is None
                          else "access_terminated")


def test_truncated_trajectory_marks_the_last_row():
    traj = corridor_trajectory(seed=0, max_steps=1)
    assert traj.truncated
    lines = trajectory_csv(traj).splitlines()
    assert lines[-1].split(",")[3] == "truncated"


def test_snapshots_csv_layout():
    traj = corridor_trajectory()
    lines = snapshots_csv(traj).splitlines()
    assert lines[0] == "event_id,layer,task_index,weight"
    expected = sum(len(values) for _, _, values in traj.weight_log)
    assert len(lines) == 1 + expected
    eid, layer, k, w = lines[1].split(",")
    assert (int(eid), int(layer), int(k)) == (traj.weight_log[0][0],
                                              traj.weight_log[0][1], 0)
    assert float(w) == traj.weight_log[0][2][0]


def test_curve_csv_layout():
    text = curve_csv([(0, 12.5, 0.25, "flat", 3), (1, 6.0, 0.0, "guided", 3)])
    assert text == ("epoch,mean_length,stderr,condition,seed\n"
                    "0,12.5,0.25,flat,3\n"
                    "1,6,0,guided,3\n")


def test_scaling_csv_layout():
    from lsmdp.bench import BenchRow
    text = scaling_csv([BenchRow(16, "flat", 368, 256)])
    assert text == ("N,condition,total_iterations,nonzeros\n"
                    "16,flat,368,256\n")


# ---------------------------------------------------------------------------
# manifests


def test_config_digest_is_order_invariant():
    a = {"alpha": 1, "nested": {"x": [1, 2]}}
    b = {"nested": {"x": [1, 2]}, "alpha": 1}
    assert config_digest(a) == config_digest(b)
    canonical = json.dumps(a, sort_keys=True, separators=(",", ":"))
    assert config_digest(a) == hashlib.sha256(canonical.encode()).hexdigest()


def test_run_manifest_fields():
    doc = run_manifest("solve", {"type": "ring"}, 7, residual=1e-12)
    assert doc["command"] == "solve"
    assert doc["seed"] == 7
    assert doc["residual"] == 1e-12
    assert doc["config_sha256"] == config_digest({"type": "ring"})
    for key in ("lsmdp", "numpy", "scipy", "python"):
        assert key in doc["versions"]
    # the running source's version, never an installed distribution's
    assert doc["versions"]["lsmdp"] == lsmdp.__version__


def test_stack_directory_contents(tmp_path):
    spec = GridSpec(width=9, height=1, goal_cells=((0, 8),))
    lmdp, structure, goal_q = make_grid(spec, [(0, 1), (0, 4), (0, 7)], (0, 8))
    basis = build_task_basis(
        lmdp, boundary_goal_tasks(lmdp.n_boundary, spec.temperature))
    # a live stack, then one whose top layer has terminated
    for terminated in (False, True):
        stack = build_stack(basis, [structure])
        stack.set_task(goal_q)
        if terminated:
            terminate_layer(stack, 1)
        directory = tmp_path / f"stack-{terminated}"
        save_stack(stack, directory)
        names = sorted(p.name for p in directory.iterdir())
        layer_files = ("boundary_solves.npy", "json", "passive_data.npy",
                       "passive_indices.npy", "passive_indptr.npy")
        # the base task block once; the augmented layer adds its subtask block
        assert names == (["base_tasks.npy"]
                         + [f"layer_0.{suffix}" for suffix in layer_files]
                         + ["layer_0.subtask_tasks.npy"]
                         + [f"layer_1.{suffix}" for suffix in layer_files]
                         + ["manifest.json"])
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["format"] == 6
        assert manifest["base_tasks"] == "base_tasks.npy"
        assert manifest["depth"] == 2
        assert manifest["layer_kinds"] == ["augmented", "top"]
        assert manifest["terminated"] == [False, terminated]
        assert len(manifest["task_weights"][0]) == stack.weights[0].values.shape[0]
        # the three subtask access rows are the layer's last boundary rows
        doc = json.loads((directory / "layer_0.json").read_text())["lmdp"]
        assert doc["n_boundary"] == stack.layers[0].n_base_boundary + 3


_RING_STACKS = {}


def ring_stack_template(n, depth):
    """A solved ring stack per shape, built once; examples clone it."""
    if (n, depth) not in _RING_STACKS:
        lmdp, structures, tasks = make_ring(RingSpec(n, subtask_spacing=3,
                                                     depth=depth))
        _RING_STACKS[n, depth] = build_stack(build_task_basis(lmdp, tasks),
                                             structures)
    return _RING_STACKS[n, depth]


@functools.lru_cache(maxsize=None)
def rooms_stack_template():
    return four_rooms_setting()[1]


PASSIVE_PARTS = (("passive_data", "data", np.float64),
                 ("passive_indices", "indices", np.int64),
                 ("passive_indptr", "indptr", np.int64))


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from([(9, 2), (12, 2), (27, 3)]),
       goal_frac=st.floats(0.0, 1.0, exclude_max=True),
       terminate=st.booleans(), layer_frac=st.floats(0.0, 1.0, exclude_max=True))
@example(shape="rooms", goal_frac=0.0, terminate=False, layer_frac=0.0)
@example(shape="rooms", goal_frac=0.5, terminate=True, layer_frac=0.0)
def test_save_stack_round_trips_layers_and_manifest(shape, goal_frac, terminate,
                                                    layer_frac):
    template = (rooms_stack_template() if shape == "rooms"
                else ring_stack_template(*shape))
    stack = template.clone()
    n_b = stack.layers[0].n_base_boundary
    goal = np.full(n_b, math.exp(-10.0))
    goal[int(goal_frac * n_b)] = 1.0
    stack.set_task(goal)
    if terminate:
        terminate_layer(stack, 1 + int(layer_frac * (stack.depth - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        save_stack(stack, directory)
        base_tasks = np.load(directory / "base_tasks.npy", allow_pickle=False)
        assert base_tasks.dtype == np.float64
        assert np.array_equal(base_tasks, stack.layers[0].base_tasks)
        for k, entry in enumerate(stack.layers):
            doc = read_json(directory / f"layer_{k}.json")
            blocks = ["subtask_tasks", "task_fill"] if entry.n_subtasks else []
            assert sorted(doc) == ["boundary_solves", "lmdp", "passive_data",
                                   "passive_indices", "passive_indptr"] + blocks
            lmdp = entry.lmdp
            header = {"n_interior": lmdp.n_interior, "n_boundary": lmdp.n_boundary,
                      "lambda": lmdp.rewards.temperature,
                      "r_i": lmdp.rewards.interior.tolist(),
                      "r_b": lmdp.rewards.boundary.tolist()}
            if lmdp.partition.labels is not None:
                header["labels"] = list(lmdp.partition.labels)
            assert doc["lmdp"] == header
            # the kernel's arrays as the layer stores them, bit for bit, in
            # the order its draws read them
            kernel = lmdp.passive.full_matrix
            parts = {}
            for key, part, dtype in PASSIVE_PARTS:
                saved = np.load(directory / doc[key], allow_pickle=False)
                assert saved.dtype == dtype
                assert saved.tobytes() == getattr(kernel, part).astype(dtype).tobytes()
                parts[part] = saved
            n_i, n_b = doc["lmdp"]["n_interior"], doc["lmdp"]["n_boundary"]
            rebuilt = sp.csc_matrix((parts["data"], parts["indices"], parts["indptr"]),
                                    shape=(n_i + n_b, n_i))
            rebuilt.check_format(full_check=True)
            assert rebuilt.shape == (lmdp.n_states, lmdp.n_interior)
            assert (rebuilt != kernel).nnz == 0
            arrays = [("boundary_solves", entry.solves)]
            if entry.n_subtasks:
                arrays.append(("subtask_tasks", entry.subtask_tasks))
            for key, expected in arrays:
                saved = np.load(directory / doc[key], allow_pickle=False)
                assert saved.dtype == np.float64
                assert saved.shape == expected.shape
                assert np.array_equal(saved, expected)
            # the saved blocks assemble the layer's dense task matrix
            if entry.n_subtasks:
                assert doc["task_fill"] == entry.fill
                saved_tasks = oracles.augmented_task_matrix(
                    base_tasks, np.load(directory / doc["subtask_tasks"]),
                    doc["task_fill"])
                assert np.array_equal(saved_tasks, oracles.augmented_task_matrix(
                    entry.base_tasks, entry.subtask_tasks, entry.fill))
        manifest = read_json(directory / "manifest.json")
    assert manifest["format"] == 6
    assert manifest["depth"] == stack.depth
    assert manifest["terminated"] == stack.terminated
    for saved, weights in zip(manifest["task_weights"], stack.weights):
        np.testing.assert_array_equal(saved, weights.values)


FORMAT_6_KEYS = {"format", "base_tasks", "depth", "kappa", "penalty",
                 "layer_files", "layer_kinds", "terminated", "task_weights"}


def assert_same_kernel(got, want):
    for block in ("to_interior", "to_boundary"):
        a, b = getattr(got, block), getattr(want, block)
        assert a.shape == b.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, part), getattr(b, part)), (block, part)


@settings(max_examples=16, deadline=None)
@given(shape=st.sampled_from([(9, 2), (12, 2), (27, 3), "rooms"]),
       terminate=st.booleans(), layer_frac=st.floats(0.0, 1.0, exclude_max=True))
def test_each_layer_derives_from_the_kernel_it_solves(shape, terminate,
                                                      layer_frac):
    # the layer above is absorbed from the same PassiveDynamics the layer's
    # solves read, bit for bit; an augmented layer above also stacks its own
    # subtask rows on the absorbed kernel
    if shape == "rooms":
        template, structures = rooms_stack_template(), []
    else:
        n, depth = shape
        template = ring_stack_template(n, depth)
        structures = make_ring(RingSpec(n, subtask_spacing=3, depth=depth))[1]
    for k, (below, above) in enumerate(zip(template.layers, template.layers[1:])):
        derived = PassiveDynamics(*absorption_dynamics(below.lmdp.passive,
                                                       below.n_subtasks))
        if above.n_subtasks:
            derived = stack_subtask_kernel(derived, structures[k + 1].weights)
        assert_same_kernel(above.lmdp.passive, derived)
    stack = template.clone()
    goal = np.full(stack.layers[0].n_base_boundary, math.exp(-10.0))
    goal[0] = 1.0
    stack.set_task(goal)
    if terminate:
        terminate_layer(stack, 1 + int(layer_frac * (stack.depth - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        save_stack(stack, tmp)
        manifest = read_json(Path(tmp) / "manifest.json")
    assert set(manifest) == FORMAT_6_KEYS
    assert manifest["format"] == 6


def test_save_stack_builds_no_passive_triples(monkeypatch, tmp_path):
    # the stack writer saves each kernel's arrays as they are: it neither
    # lists triples nor renders an LMDP document
    def refuse(*_):
        raise AssertionError("save_stack built a triple document")

    monkeypatch.setattr(lsmdp.serialize, "_matrix_triples", refuse)
    monkeypatch.setattr(lsmdp.serialize, "lmdp_to_dict", refuse)
    stack = ring_stack_template(27, 3).clone()
    goal = np.full(stack.layers[0].n_base_boundary, math.exp(-10.0))
    goal[0] = 1.0
    stack.set_task(goal)
    terminate_layer(stack, 1)
    save_stack(stack, tmp_path)
    assert read_json(tmp_path / "manifest.json")["terminated"] == stack.terminated
    assert len(list(tmp_path.glob("*.passive_*.npy"))) == 3 * stack.depth
