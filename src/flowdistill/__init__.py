"""flowdistill: desk-scale progressive adversarial distillation of toy
video diffusion models across multiple frozen base models.

The package trains a small per-frame diffusion model per synthetic style,
composes each with one shared temporal motion module, and distills the
shared module down to few-step sampling against all bases at once, as a
data-parallel step over a table of ranks, with a flow-conditional
discriminator for the adversarial stages.
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
    BaseParams,
    DiscriminatorParams,
    MotionParams,
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
    sample,
    sample_batch,
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
    StageConfig,
    adversarial_step,
    default_plan,
    mse_distill_step,
    run_stage,
)
from .ranks import RankAssignment, build_assignment
from .evalmetrics import (
    EvalReport,
    energy_distance,
    score_arms,
)
from .checkpoint import checkpoint_load, checkpoint_save
from .config import config_hash, default_config, load_config
from .runner import Workspace

__version__ = "0.1.0"
