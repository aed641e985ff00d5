"""The four benchmark workloads, each driving lsmdp's public API.

A workload has three parts, all deterministic in the seed:

- ``setup(rec)`` builds the domain and its basis or stack, then runs an
  untimed warm-up operation, so one-time BLAS and LAPACK initialisation is
  paid in set-up rather than by the first timed sample;
- ``round(i, rec)`` runs the i-th batch of user-level operations, whose
  inputs come from ``numpy.random.default_rng([seed, i])``, timing each
  operation and checking its output; the traced run calls it twice with
  the same i, once plain and once traced, and gets the same operations;
- ``finish(rec)`` runs the checks that need every round.

The library is always called through the module that defines a function
(``lsmdp.executor.run_episode``, not ``lsmdp.run_episode``), so
the tracer's wrappers see the benchmark's calls too.  See README.md for why
each workload exists and which layer metrics should move it.
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Record:
    """Latency samples, operation counts and check failures of one run."""

    def __init__(self):
        self.times = defaultdict(list)  # sample name -> wall seconds
        self.where = defaultdict(list)  # sample name -> interval of each sample
        self.interval = 0               # set by the speed gauge
        self.totals = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, name, seconds):
        self.times[name].append(seconds)
        self.where[name].append(self.interval)

    def timed(self, name, fn, *args, **kwargs):
        """Time a set-up stage; its failure aborts the run."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.add(name, time.perf_counter() - start)
        return result

    def op(self, name, fn, check):
        """Time one user-level operation and check its result.

        ``check(result)`` returns None or a description of what is wrong.
        An operation that raises or fails its check counts as failed and
        leaves no latency sample.  Returns (result, seconds), or (None, nan)
        for a failed operation.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # counted against the run, never fatal
            self._fail(f"{name}: {type(exc).__name__}: {exc}")
            return None, math.nan
        seconds = time.perf_counter() - start
        problem = check(result)
        if problem is not None:
            self._fail(f"{name}: {problem}")
            return None, math.nan
        self.add(name, seconds)
        return result, seconds

    def verdict(self, name, problem):
        """Count one check that is not attached to a single operation."""
        self.attempted += 1
        if problem is not None:
            self._fail(f"{name}: {problem}")

    def _fail(self, message):
        self.failed += 1
        self.errors.append(message)


def _rel_error(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


class Workload:
    """Common shape; subclasses set the class attributes below."""

    name = ""
    op = ""          # sample name reported as the end-to-end op_ms
    round_s = 1.0    # nominal seconds per round; sizes the traced run
    # (reported name, sample name, statistic, unit) for the report lines
    stages: tuple = ()

    def __init__(self, lsmdp, seed: int, smoke: bool, scratch: Path):
        self.lib = lsmdp
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch

    def rng(self, *key):
        return np.random.default_rng([self.seed, *key])

    def finish(self, rec: Record) -> None:
        pass

    def report(self, rec: Record, gauge) -> list:
        """Extra (name, value, unit, samples) rows beyond ``stages``."""
        return []


class ArmFamily(Workload):
    """One shared kernel, 900 point-goal tasks, a stream of novel blends."""

    name = "arm-family"
    op = "blend"
    round_s = 0.45
    stages = (
        ("basis_s", "make_arm", "median", "s"),
        ("blend_ms.p50", "blend", "p50", "ms"),
        ("blend_ms.tail", "blend", "tail", "ms"),
    )
    TOLERANCE = 1e-9  # criterion 5

    def setup(self, rec):
        lib = self.lib
        spec = lib.domains.ArmSpec(8 if self.smoke else 30)
        # make_arm is the domain plus one build_task_basis over the
        # point-goal tasks; the domain part takes milliseconds
        lmdp, basis, target = rec.timed("make_arm", lib.domains.make_arm, spec)
        self.lmdp, self.basis = lmdp, basis
        angles = spec.angles()
        self.ends = np.array([lib.domains.arm_end_effector(a, b, spec.link_lengths)
                              for a in angles for b in angles])
        self.reach = sum(spec.link_lengths)
        self.off = math.exp(lib.domains.GOAL_PENALTY_SCALE)
        self._blend("warmup", target, rec)

    def target(self, i):
        """Exponentiated reward of a random end-effector rectangle, built as
        make_arm builds its own target: 1 inside, exp(goal penalty) outside."""
        rng = self.rng(i)
        x, y = self.ends[:, 0], self.ends[:, 1]
        while True:
            x0, y0 = rng.uniform(-self.reach, self.reach, 2)
            w, h = rng.uniform(0.25, 1.0, 2)
            inside = (x >= x0) & (x <= x0 + w) & (y >= y0) & (y <= y0 + h)
            if inside.any():
                break
        q = np.full(len(self.ends), self.off)
        q[inside] = 1.0
        return q

    def _blend(self, name, q, rec):
        lib = self.lib

        def check(result):
            z, weights = result
            if (weights.values < 0).any():
                return "negative blend weight"
            rel = _rel_error(z.interior, lib.core.solve_interior(self.lmdp, q))
            if not rel <= self.TOLERANCE:
                return f"blend differs from the direct solve by {rel:.3g}"
            return None

        rec.op(name, lambda: lib.multitask.solve_novel_task(self.basis, q, "nnls"),
               check)

    def round(self, i, rec):
        self._blend("blend", self.target(i), rec)


class RingTower(Workload):
    """Depth-4 ring tower: retarget, then many short hierarchical episodes.

    The operation is one goal: ``set_task`` plus EPISODES_PER_GOAL episodes.
    A single episode's median is not steady across seeds, because most
    episodes take a small whole number of steps and access chains.
    """

    name = "ring-tower"
    op = "goal"
    round_s = 0.3
    EPISODES_PER_GOAL = 16
    SAVE_EVERY = 16  # rounds; a save takes about as long as 4 rounds
    stages = (
        ("stack_build_s", "build_stack", "median", "s"),
        ("goal_ms.p50", "goal", "p50", "ms"),
        ("set_task_ms.p50", "set_task", "p50", "ms"),
        ("episode_ms.p50", "episode", "p50", "ms"),
        ("episode_ms.tail", "episode", "tail", "ms"),
        ("stack_save_s", "save", "median", "s"),
    )

    def setup(self, rec):
        lib = self.lib
        spec = (lib.domains.RingSpec(27, 3, depth=3) if self.smoke
                else lib.domains.RingSpec(243, 3, depth=4))
        lmdp, structures, tasks = rec.timed("make_ring", lib.domains.make_ring, spec)
        basis = rec.timed("ring_basis", lib.multitask.build_task_basis, lmdp, tasks)
        self.stack = rec.timed("build_stack", lib.hierarchy.build_stack,
                               basis, structures)
        self.lmdp = lmdp
        self.temperature = spec.temperature
        task, _ = self._retarget("warmup", 0, rec)
        self._episode("warmup", task, 0, np.random.default_rng(0), rec)

    def _retarget(self, name, goal, rec):
        lib = self.lib
        task = self.stack.clone()
        q = lib.domains.goal_task_vector(self.lmdp.n_boundary, goal, self.temperature)

        def check(_):
            for layer in range(task.depth):
                z = task.z_full[layer]
                if not (np.isfinite(z).all() and (z > 0).all()):
                    return f"layer {layer} composite is not positive"
                if (task.weights[layer].values < 0).any():
                    return f"layer {layer} has a negative weight"
            return None

        _, seconds = rec.op(name, lambda: task.set_task(q), check)
        return task, seconds

    def _episode(self, name, task, start, rng, rec):
        n_i = self.lmdp.n_interior
        episode = task.clone()

        def check(traj):
            if traj.truncated:
                rec.totals["truncated"] += 1
                return None
            if traj.states[-1] < n_i:
                return "episode ended at an interior state"
            if not math.isfinite(traj.total_return):
                return f"return {traj.total_return}"
            return None

        _, seconds = rec.op(
            name, lambda: self.lib.executor.run_episode(episode, start, rng), check)
        return seconds

    def _save(self, task, i, rec):
        directory = self.scratch / f"stack-{i}"

        def check(_):
            try:
                manifest = json.loads((directory / "manifest.json").read_text())
            except (OSError, ValueError) as exc:
                return f"manifest unreadable: {exc}"
            if manifest["depth"] != task.depth:
                return f"manifest depth {manifest['depth']}"
            missing = [f for f in manifest["layer_files"]
                       if not (directory / f).is_file()]
            if missing:
                return f"missing layer files {missing}"
            if any(w is None for w in manifest["task_weights"]):
                return "task weights not saved"
            return None

        try:
            rec.op("save", lambda: self.lib.serialize.save_stack(task, directory),
                   check)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def report(self, rec, gauge):
        return [("episodes_truncated", rec.totals["truncated"], "count",
                 len(rec.times["episode"]))]

    def round(self, i, rec):
        rng = self.rng(i)
        task, goal_s = self._retarget("set_task", int(rng.integers(self.lmdp.n_boundary)),
                                      rec)
        for e in range(self.EPISODES_PER_GOAL):
            start = int(rng.integers(self.lmdp.n_interior))
            goal_s += self._episode("episode", task, start, self.rng(i, e), rec)
        if not math.isnan(goal_s):
            rec.add("goal", goal_s)
        if i % self.SAVE_EVERY == 0:
            self._save(task, i, rec)


class RoomsLearn(Workload):
    """Criterion 7's four-rooms Z-learning, flat and guided, per seed."""

    name = "rooms-learn"
    op = "learn"
    round_s = 0.8
    DOORS = ((2, 5), (5, 2), (5, 8), (8, 5))
    GOAL, START, TEMPERATURE = (0, 10), (10, 0), 0.5
    EPOCHS, EPISODES, MAX_STEPS = 30, 10, 2000
    BFS_STEPS = 20  # shortest start-to-goal path; criterion 7 asserts it
    stages = (
        ("learn_ms.p50", "learn", "p50", "ms"),
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.finals = {"flat": [], "guided": []}  # final-epoch mean lengths

    def setup(self, rec):
        lib = self.lib
        domains = lib.domains
        spec, _ = rec.timed("grid", domains.grid_from_ascii, domains.four_rooms_map(11),
                            goal_cells=[self.GOAL])
        spec = dataclasses.replace(spec, temperature=self.TEMPERATURE)
        lmdp, structure, goal_q = rec.timed("make_grid", domains.make_grid, spec,
                                            self.DOORS, self.GOAL)
        tasks = domains.boundary_goal_tasks(lmdp.n_boundary, self.TEMPERATURE)
        basis = rec.timed("grid_basis", lib.multitask.build_task_basis, lmdp, tasks)
        self.stack = rec.timed("build_stack", lib.hierarchy.build_stack, basis,
                               [structure])
        self.lmdp, self.goal_q = lmdp, goal_q
        self.start = spec.free_cells().index(self.START)
        # warm-up: one full seed of both conditions, on a seed no round draws
        for condition in ("flat", "guided"):
            self._train(f"warmup.{condition}", condition, self.seed, self.EPOCHS, rec)

    def _train(self, name, condition, seed, epochs, rec):
        stack = self.stack if condition == "guided" else None

        def check(result):
            _, curve = result
            if len(curve) != epochs:
                return f"{len(curve)} epochs recorded"
            if not all(math.isfinite(mean) and mean > 0 for _, mean, _ in curve):
                return "non-finite episode length"
            return None

        return rec.op(name, lambda: self.lib.learning.train(
            self.lmdp, self.goal_q, epochs, self.EPISODES, seed, stack=stack,
            start_state=self.start, max_steps=self.MAX_STEPS), check)

    def round(self, i, rec):
        # one seed of `lsmdp learn`: flat then guided on the same seed
        seed = int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])
        pair = 0.0
        for condition in ("flat", "guided"):
            result, seconds = self._train(f"train.{condition}", condition, seed,
                                          self.EPOCHS, rec)
            pair += seconds
            if result is None:
                continue
            _, curve = result
            rec.totals[f"steps.{condition}"] += sum(
                mean * self.EPISODES for _, mean, _ in curve)
            self.finals[condition].append(curve[-1][1])
        if not math.isnan(pair):
            rec.add("learn", pair)

    def finish(self, rec):
        bound = 1.5 * self.BFS_STEPS
        for condition in ("flat", "guided"):
            finals = self.finals[condition]
            mean = float(np.mean(finals)) if finals else math.inf
            rec.verdict(f"converged.{condition}",
                        None if mean <= bound else
                        f"mean final-epoch length {mean:.2f} exceeds {bound}")

    def report(self, rec, gauge):
        rows = []
        for condition in ("flat", "guided"):
            steps = rec.totals[f"steps.{condition}"]
            if steps:
                seconds = sum(gauge.scaled(rec, f"train.{condition}"))
                rows.append((f"learn_us_per_step.{condition}", 1e6 * seconds / steps,
                             "us", int(steps)))
        return rows


class RingScaling(Workload):
    """`lsmdp bench --sizes 512`: flat against hierarchical z-iteration."""

    name = "ring-scaling"
    op = "scaling"
    round_s = 5.0
    # (flat sweeps, flat nonzeros, hierarchical sweeps, hierarchical nonzeros)
    EXPECTED = {512: (262_656, 262_144, 14_263, 30_463),
                128: (18_944, 16_384, 2_860, 5_350),
                32: (1_344, 1_024, 596, 1_004),
                8: (96, 64, 114, 97)}
    stages = (
        ("scaling_s", "scaling", "median", "s"),
    )

    def setup(self, rec):
        # ring_scaling builds its own levels, so set-up is a warm-up run of
        # the same code at a quarter of the size
        self.size = 32 if self.smoke else 512
        self.counts = None  # the last counts checked at full size
        self._scale("warmup", self.size // 4, rec)

    def _scale(self, name, size, rec):
        expected = self.EXPECTED[size]

        def check(result):
            rows, _ = result
            counts = {r.condition: (r.total_iterations, r.nonzeros) for r in rows}
            got = counts["flat"] + counts["hierarchical"]
            if got != expected:
                return f"counts {got}, expected {expected}"
            if size == self.size:
                self.counts = got
            return None

        rec.op(name, lambda: self.lib.bench.ring_scaling([size]), check)

    def report(self, rec, gauge):
        labels = ("flat_sweeps", "flat_nnz", "hier_sweeps", "hier_nnz")
        return [(f"bench.{label} (N={self.size})", value, "count", 1)
                for label, value in zip(labels, self.counts or (0,) * 4)]

    def round(self, i, rec):
        self._scale("scaling", self.size, rec)


WORKLOADS = {cls.name: cls for cls in (ArmFamily, RingTower, RoomsLearn, RingScaling)}
