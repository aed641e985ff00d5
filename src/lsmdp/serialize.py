"""On-disk formats: LMDP JSON, stack directories, CSV tables.

All writers are deterministic: floats render with 17 significant digits
(%.17g, enough to round-trip a double), JSON keys are sorted, newlines are
always "\\n", and arrays go to ``.npy`` files, float64 or int64.  Rerunning
a writer on equal inputs produces byte-identical files.
"""
from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

import numpy as np
import scipy
import scipy.sparse as sp

from .core import Lmdp, PassiveDynamics, RewardModel, check_real, is_integer
from .errors import InvalidSpec
from .hierarchy import HierarchyStack
from .multitask import TaskWeights


def fmt(x) -> str:
    """Canonical float rendering used by every CSV column."""
    return "%.17g" % float(x)


def _matrix_triples(M: sp.csc_matrix) -> List[list]:
    """(source, destination, probability) triples, sorted by source then dest."""
    out = []
    for src in range(M.shape[1]):
        lo, hi = M.indptr[src], M.indptr[src + 1]
        for dst, p in zip(M.indices[lo:hi].tolist(), M.data[lo:hi].tolist()):
            out.append([src, dst, p])
    return out


# ---------------------------------------------------------------------------
# LMDP documents


def _lmdp_header(lmdp: Lmdp) -> dict:
    """An LMDP document without its kernel: sizes, temperature, rewards, labels."""
    doc = {
        "n_interior": lmdp.n_interior,
        "n_boundary": lmdp.n_boundary,
        "lambda": float(lmdp.rewards.temperature),
        "r_i": [float(v) for v in lmdp.rewards.interior],
        "r_b": [float(v) for v in lmdp.rewards.boundary],
    }
    if lmdp.labels is not None:
        doc["labels"] = list(lmdp.labels)
    return doc


def lmdp_to_dict(lmdp: Lmdp) -> dict:
    """JSON-ready description: sizes, temperature, rewards, passive triples.

    Triples use global destination indices (boundary rows start at
    n_interior) and are sorted by source then destination.
    """
    return dict(_lmdp_header(lmdp), passive=_matrix_triples(lmdp.passive.full_matrix))


def lmdp_from_dict(doc: dict) -> Lmdp:
    """Rebuild an LMDP from its document; validation runs as usual.

    Sizes must be nonnegative and, like triple indices, JSON integers, and
    lambda, rewards and probabilities JSON numbers: a negative or float
    size, a boolean or a string raises
    InvalidSpec naming the field, never truncated or parsed.  So do labels
    that are not a list or hold a comma or a line break, which would split
    a CSV row, and a (source, destination) pair repeated across triples.
    """
    try:
        n_i, n_b, lam = doc["n_interior"], doc["n_boundary"], doc["lambda"]
        r_i, r_b = list(doc["r_i"]), list(doc["r_b"])
        labels = tuple(doc["labels"]) if "labels" in doc else None
        triples = [tuple(entry) for entry in doc["passive"]]
    except (KeyError, TypeError) as exc:
        raise InvalidSpec(f"malformed LMDP document: {exc}") from exc
    for name, value in (("n_interior", n_i), ("n_boundary", n_b)):
        if not (is_integer(value) and value >= 0):
            raise InvalidSpec(f"{name} must be a nonnegative JSON integer, got {value!r}")
    for name, values in (("lambda", [lam]), ("r_i", r_i), ("r_b", r_b)):
        for value in values:
            check_real(name, value)
    if "labels" in doc and not isinstance(doc["labels"], list):
        raise InvalidSpec(f"labels must be a JSON list, got {doc['labels']!r}")
    for label in map(str, labels or ()):
        if "," in label or label.splitlines() not in ([], [label]):  # any line break
            raise InvalidSpec(f"label {label!r} holds a comma or a line break")
    seen = set()
    for entry in triples:
        if not (len(entry) == 3 and is_integer(entry[0]) and is_integer(entry[1])):
            raise InvalidSpec(f"passive triple {entry} is not [source, "
                              "destination, probability] with integer indices")
        src, dst, prob = entry
        check_real("passive probability", prob)
        if not (0 <= src < n_i and 0 <= dst < n_i + n_b):
            raise InvalidSpec(f"passive triple {entry} out of range")
        if (src, dst) in seen:
            raise InvalidSpec(f"passive triples repeat source {src}, destination {dst}")
        seen.add((src, dst))
    src, dst, prob = zip(*triples) if triples else ((), (), ())
    full = sp.csc_matrix((np.asarray(prob, dtype=np.float64), (dst, src)),
                         shape=(n_i + n_b, n_i))
    passive = PassiveDynamics(full[:n_i], full[n_i:])
    return Lmdp(passive, RewardModel(np.asarray(r_i, dtype=np.float64),
                                     np.asarray(r_b, dtype=np.float64), float(lam)), labels)


# ---------------------------------------------------------------------------
# JSON and text IO


def write_json(path, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    save_text(path, text + "\n")


def read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise InvalidSpec(f"{path} is not UTF-8 text: {exc}") from exc


def save_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# stack directories


def save_stack(stack: HierarchyStack, directory) -> None:
    """Write a stack as one document per layer plus a manifest.

    ``layer_k.json`` holds the layer's LMDP document without its kernel
    under "lmdp" and names the ``.npy`` files beside it: under
    "boundary_solves" the interior solve of each boundary state, under
    "passive_data", "passive_indices" and "passive_indptr" (int64) the CSC
    arrays of its one kernel, ``full_matrix``, rows ascending in each column
    as draws read them, subtask access rows last, and on an augmented layer
    under "subtask_tasks" its block Q_t, beside the fill f ("task_fill").  The
    manifest (format 6) names ``base_tasks.npy``, the base block Q every
    layer shares, written once, and records the layer count, order and
    kinds, kappa and penalty, termination flags (a layer's subtasks live
    while the layer above does), and current task weights when set.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "base_tasks.npy", stack.layers[0].base_tasks)
    for k, entry in enumerate(stack.layers):
        doc = {"lmdp": _lmdp_header(entry.lmdp)}
        kernel = entry.lmdp.passive.full_matrix
        arrays = [("boundary_solves", entry.solves), ("passive_data", kernel.data),
                  ("passive_indices", kernel.indices.astype(np.int64)),
                  ("passive_indptr", kernel.indptr.astype(np.int64))]
        if entry.n_subtasks:
            arrays.append(("subtask_tasks", entry.subtask_tasks))
            doc["task_fill"] = entry.fill
        for key, array in arrays:
            doc[key] = f"layer_{k}.{key}.npy"
            np.save(directory / doc[key], array)
        write_json(directory / f"layer_{k}.json", doc)
    manifest = {
        "format": 6,
        "base_tasks": "base_tasks.npy",
        "depth": stack.depth,
        "kappa": float(stack.kappa),
        "penalty": float(stack.penalty),
        "layer_files": [f"layer_{k}.json" for k in range(stack.depth)],
        "layer_kinds": ["augmented" if entry.n_subtasks else "top"
                        for entry in stack.layers],
        "terminated": [bool(v) for v in stack.terminated],
        "task_weights": [None if w is None else [float(v) for v in w.values]
                         for w in stack.weights],
    }
    write_json(directory / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# CSV tables


def _csv(header: str, rows: Iterable[Sequence[str]]) -> str:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def desirability_csv(lmdp: Lmdp, z_full: np.ndarray) -> str:
    """state_index,label,z,V over all states, interior first.

    Zeros (from non-converged or terminated states) render V as -inf.
    """
    with np.errstate(divide="ignore"):
        values = lmdp.rewards.temperature * np.log(z_full)
    rows = [(str(s), lmdp.label(s), fmt(z_full[s]), fmt(values[s]))
            for s in range(lmdp.n_states)]
    return _csv("state_index,label,z,V", rows)


def weights_csv(weights: TaskWeights) -> str:
    rows = [(str(k), fmt(v)) for k, v in enumerate(weights.values)]
    return _csv("task_index,weight", rows)


def trajectory_csv(trajectory) -> str:
    """t,state,layer_accessed,event; one row per visited base state.

    layer_accessed is the deepest layer entered at that step (0 when no
    access happened).  Events: access, access_terminated, absorbed,
    truncated; empty otherwise.
    """
    by_time = {}
    for event in trajectory.events:
        name = "access" if event.terminated_layer is None else "access_terminated"
        by_time[event.base_time] = (event.deepest_layer, name)
    rows = []
    last = len(trajectory.states) - 1
    for t, state in enumerate(trajectory.states):
        layer, name = by_time.get(t, (0, ""))
        if t == last:
            name = "truncated" if trajectory.truncated else "absorbed"
            layer = 0
        rows.append((str(t), str(state), str(layer), name))
    return _csv("t,state,layer_accessed,event", rows)


def snapshots_csv(trajectory) -> str:
    """event_id,layer,task_index,weight for every recorded blend snapshot."""
    rows = []
    for event_id, layer, values in trajectory.weight_log:
        for k, v in enumerate(values):
            rows.append((str(event_id), str(layer), str(k), fmt(v)))
    return _csv("event_id,layer,task_index,weight", rows)


def curve_csv(entries: Sequence[tuple]) -> str:
    """epoch,mean_length,stderr,condition,seed rows for learning curves."""
    rows = [(str(epoch), fmt(mean), fmt(stderr), condition, str(seed))
            for epoch, mean, stderr, condition, seed in entries]
    return _csv("epoch,mean_length,stderr,condition,seed", rows)


def scaling_csv(bench_rows) -> str:
    """N,condition,total_iterations,nonzeros rows from the ring benchmark."""
    rows = [(str(r.n), r.condition, str(r.total_iterations), str(r.nonzeros))
            for r in bench_rows]
    return _csv("N,condition,total_iterations,nonzeros", rows)


# ---------------------------------------------------------------------------
# run manifests


def config_digest(config: dict) -> str:
    """sha256 of the canonical JSON rendering of a config document."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_manifest(command: str, config: dict, seed: Optional[int],
                 **extras) -> dict:
    """Provenance document written next to every CLI artifact."""
    from . import __version__  # not at the top: the package imports this module
    doc = {
        "command": command,
        "config_sha256": config_digest(config),
        "seed": seed,
        "versions": {
            "lsmdp": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    doc.update(extras)
    return doc
