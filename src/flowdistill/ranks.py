"""The data-parallel rank table.

Each logical rank owns one frozen base model and one dataset; the motion
module (and the discriminator) are shared. A distillation step averages the
ranks' gradients in ascending rank order (see ``distill._run_phase``).
The config's ``ranks`` section is the one table the cross-model arm trains
on, so ``config_hash`` covers it.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "RankAssignment",
    "build_assignment",
]

# Mirrors the 8-worker roster: two default-base workers on real data, two
# realistic-analog workers on the pooled realistic set, four anime-analog
# workers on the pooled anime set.
DEFAULT_RANK_TABLE = (
    {"rank": 0, "style": "default", "dataset": "real"},
    {"rank": 1, "style": "default", "dataset": "real"},
    {"rank": 2, "style": "real_a", "dataset": "gen_realistic"},
    {"rank": 3, "style": "real_b", "dataset": "gen_realistic"},
    {"rank": 4, "style": "anime_a", "dataset": "gen_anime"},
    {"rank": 5, "style": "anime_a", "dataset": "gen_anime"},
    {"rank": 6, "style": "anime_b", "dataset": "gen_anime"},
    {"rank": 7, "style": "anime_c", "dataset": "gen_anime"},
)


@dataclass(frozen=True)
class RankAssignment:
    rank: int
    style: str
    dataset: str


def build_assignment(rows=None, known_datasets=None) -> list:
    """Validated rank -> (base style, dataset) table of ``rows``, sorted by
    rank (the default table when ``rows`` is None).

    There must be at least one rank. Rank ids must be unique, styles
    registered and not in the unseen group, and datasets in
    ``known_datasets`` when it is given.
    """
    from .datagen import style_by_name

    rows = list(rows) if rows is not None else list(DEFAULT_RANK_TABLE)
    seen = set()
    out = []
    for row in rows:
        ra = RankAssignment(int(row["rank"]), row["style"], row["dataset"])
        if ra.rank in seen:
            raise ValueError(f"duplicate rank id {ra.rank}")
        seen.add(ra.rank)
        style = style_by_name(ra.style)  # raises on unknown styles
        if style.group == "unseen":
            raise ValueError(f"unseen style {ra.style!r} cannot be trained on")
        if known_datasets is not None and ra.dataset not in known_datasets:
            raise ValueError(f"unknown dataset {ra.dataset!r}")
        out.append(ra)
    if not out:
        raise ValueError("need at least one rank")
    return sorted(out, key=lambda r: r.rank)

