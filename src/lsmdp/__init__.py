"""First-exit linearly solvable MDPs.

Exponentiating values turns the first-exit Bellman equation into a linear
system in the desirability z = exp(V / lambda).  This package solves that
system directly or by iteration, composes novel tasks as nonnegative blends
of solved basis tasks, stacks subtask hierarchies whose higher layers are
derived from absorption statistics, executes hierarchical episodes, and
learns desirabilities online from sampled transitions.
"""

from .core import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Desirability,
    Lmdp,
    PassiveDynamics,
    RewardModel,
    StatePartition,
    build_lmdp,
    draw_from,
    exponentiate_rewards,
    policy_column,
    solve_direct,
    solve_interior,
    value_from_desirability,
    z_iterate,
)
from .multitask import (
    BLEND_METHODS,
    TaskBasis,
    TaskWeights,
    blend_block,
    blend_weights_matrix,
    build_task_basis,
    compose_desirability,
    solve_novel_task,
)
from .hierarchy import (
    AugmentedMlmdp,
    HierarchyStack,
    SubtaskStructure,
    absorption_dynamics,
    augment,
    build_stack,
    default_subtask_rewards,
    inpaint_rewards,
    rewards_to_task_weights,
    stack_subtask_kernel,
    terminate_layer,
)
from .executor import (
    AccessEvent,
    HierarchicalTrajectory,
    access_hierarchy,
    run_episode,
)
from .learning import (
    LearningState,
    run_learning_episode,
    train,
    z_learning_step,
)
from .domains import (
    ArmSpec,
    GridSpec,
    RingSpec,
    arm_end_effector,
    boundary_goal_tasks,
    four_rooms_map,
    goal_task_vector,
    grid_from_ascii,
    make_arm,
    make_grid,
    make_ring,
)
from .bench import BenchRow, ring_scaling
from . import errors, serialize

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
