"""On-disk formats: LMDP JSON, stack directories, CSV tables.

All writers are deterministic: floats render with 17 significant digits
(%.17g, enough to round-trip a double), JSON keys are sorted, newlines are
always "\\n", and arrays go to float64 ``.npy`` files.  Rerunning a writer
on equal inputs produces byte-identical files.
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

from .core import (Lmdp, PassiveDynamics, RewardModel, StatePartition,
                   build_lmdp)
from .errors import InvalidSpec
from .hierarchy import HierarchyStack
from .multitask import TaskWeights


def fmt(x) -> str:
    """Canonical float rendering used by every CSV column."""
    return "%.17g" % float(x)


def _matrix_triples(matrix: sp.csc_matrix) -> List[list]:
    """(source, destination, probability) triples, sorted by source then dest."""
    M = matrix.tocsc(copy=True)
    M.sort_indices()
    out = []
    for src in range(M.shape[1]):
        lo, hi = M.indptr[src], M.indptr[src + 1]
        for dst, p in zip(M.indices[lo:hi].tolist(), M.data[lo:hi].tolist()):
            out.append([src, dst, p])
    return out


# ---------------------------------------------------------------------------
# LMDP documents


def lmdp_to_dict(lmdp: Lmdp) -> dict:
    """JSON-ready description: sizes, temperature, rewards, passive triples.

    Triples use global destination indices (boundary rows start at
    n_interior) and are sorted by source then destination.
    """
    doc = {
        "n_interior": lmdp.n_interior,
        "n_boundary": lmdp.n_boundary,
        "lambda": float(lmdp.rewards.temperature),
        "r_i": [float(v) for v in lmdp.rewards.interior],
        "r_b": [float(v) for v in lmdp.rewards.boundary],
        "passive": _matrix_triples(lmdp.passive.full_matrix),
    }
    if lmdp.partition.labels is not None:
        doc["labels"] = list(lmdp.partition.labels)
    return doc


def lmdp_from_dict(doc: dict) -> Lmdp:
    """Rebuild an LMDP from its document; validation runs as usual."""
    try:
        n_i = int(doc["n_interior"])
        n_b = int(doc["n_boundary"])
        lam = float(doc["lambda"])
        r_i = np.asarray(doc["r_i"], dtype=np.float64)
        r_b = np.asarray(doc["r_b"], dtype=np.float64)
        labels = tuple(doc["labels"]) if "labels" in doc else None
        triples = [(int(entry[0]), int(entry[1]), float(entry[2]))
                   for entry in doc["passive"]]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed LMDP document: {exc}") from exc
    rows_i, cols_i, vals_i = [], [], []
    rows_b, cols_b, vals_b = [], [], []
    for entry in triples:
        src, dst, p = entry
        if not (0 <= src < n_i and 0 <= dst < n_i + n_b):
            raise InvalidSpec(f"passive triple {entry} out of range")
        if dst < n_i:
            rows_i.append(dst)
            cols_i.append(src)
            vals_i.append(p)
        else:
            rows_b.append(dst - n_i)
            cols_b.append(src)
            vals_b.append(p)
    to_interior = sp.csc_matrix((vals_i, (rows_i, cols_i)), shape=(n_i, n_i))
    to_boundary = sp.csc_matrix((vals_b, (rows_b, cols_b)), shape=(n_b, n_i))
    partition = StatePartition(n_i, n_b, labels)
    passive = PassiveDynamics(to_interior, to_boundary)
    return build_lmdp(partition, passive, RewardModel(r_i, r_b, lam))


# ---------------------------------------------------------------------------
# JSON and text IO


def write_json(path, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    save_text(path, text + "\n")


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# stack directories


def save_stack(stack: HierarchyStack, directory) -> None:
    """Write a stack as one document per layer plus a manifest.

    ``layer_k.json`` holds the layer's LMDP document under "lmdp" and, under
    "boundary_tasks" and "desirabilities", the names of the ``.npy`` files
    beside it that hold its basis arrays.  The manifest records the format
    version, layer order and kinds, kappa and penalty, the normalized subtask
    access kernels as triples, termination flags and the per-layer live
    flags they imply, and current task weights when set.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    layer_files, kinds, kernels = [], [], []
    for k, entry in enumerate(stack.layers):
        name = f"layer_{k}.json"
        layer_files.append(name)
        doc = {"lmdp": lmdp_to_dict(entry.lmdp)}
        for key in ("boundary_tasks", "desirabilities"):
            doc[key] = f"layer_{k}.{key}.npy"
            np.save(directory / doc[key], getattr(entry.basis, key))
        write_json(directory / name, doc)
        if entry.n_subtasks:
            kinds.append("augmented")
            kernels.append(_matrix_triples(entry.to_subtasks))
        else:
            kinds.append("top")
    manifest = {
        "format": 2,
        "depth": stack.depth,
        "kappa": float(stack.kappa),
        "penalty": float(stack.penalty),
        "layer_files": layer_files,
        "layer_kinds": kinds,
        "subtask_kernels": kernels,
        # a layer's subtasks die with the layer above; the top records null
        "live_subtasks": [[not stack.terminated[k + 1]] * entry.n_subtasks
                          if entry.n_subtasks else None
                          for k, entry in enumerate(stack.layers)],
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
    rows = [(str(s), lmdp.partition.label(s), fmt(z_full[s]), fmt(values[s]))
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


def _package_version() -> str:
    try:
        from importlib.metadata import version
        return version("lsmdp")
    except Exception:
        from lsmdp import __version__
        return __version__


def run_manifest(command: str, config: dict, seed: Optional[int],
                 **extras) -> dict:
    """Provenance document written next to every CLI artifact."""
    doc = {
        "command": command,
        "config_sha256": config_digest(config),
        "seed": seed,
        "versions": {
            "lsmdp": _package_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    doc.update(extras)
    return doc
