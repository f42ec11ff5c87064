"""flowdistill: desk-scale progressive adversarial distillation of toy
video diffusion models across multiple frozen base models.

The package trains a small per-frame diffusion model per synthetic style,
composes each with one shared temporal motion module, and distills the
shared module down to few-step sampling against all bases at once, with a
flow-conditional discriminator for the adversarial stages. Each
distillation iteration is a data-parallel step over the config's rank
table: a rank (``Rank``) is one frozen base and one dataset, and
``rank_step`` is its share of the step.
"""

from .autodiff import Var, backward, gradcheck
from .schedule import (
    NoiseSchedule,
    add_noise,
    build_schedule,
    substitute_terminal_noise,
)
from .nets import (
    Adam,
    NetDims,
    StudentBundle,
    init_base,
    init_discriminator,
    init_motion,
    pretrain_base,
    pretrain_motion,
)
from .solvers import (
    cfg_combine,
    euler_solve,
    euler_step,
    multistep_solve,
    sample_batch,
    start_noise,
)
from .datagen import (
    ClipDataset,
    STYLES,
    StyleSpec,
    analytic_eps_star,
    flip_augment,
    generate_distill_dataset,
    load_dataset,
    pool_by_group,
    sample_ground_truth,
    save_dataset,
    style_by_name,
)
from .distill import (
    DistillContext,
    DistillDivergence,
    DistillPlan,
    Rank,
    StageConfig,
    rank_step,
    run_stage,
)
from .evalmetrics import (
    EvalReport,
    energy_distance,
    score_arms,
)
from .checkpoint import checkpoint_load, checkpoint_save
from .config import config_hash, default_config, load_config
from .runner import Workspace

__version__ = "0.1.0"
