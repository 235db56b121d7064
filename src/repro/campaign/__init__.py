"""`repro.campaign` — parallel simulation campaigns.

The execution layer the paper's methodology implies but SystemC-AMS
itself never shipped: once a virtual prototype exists (the ADSL
front-end of Figure 1, Bonnerud's pipelined ADC), its *verification* is
a campaign — Monte Carlo over component mismatch, corner sweeps over
process/operating conditions, grid sweeps over design parameters —
thousands of independent simulator runs that must be seeded
reproducibly, fanned out over processes, cached across invocations, and
aggregated into yield/SNR statistics.

Building blocks:

* :class:`Sweep` / :class:`Corners` / :class:`MonteCarlo` /
  :class:`FixedPoints` — declarative parameter spaces, composable with
  ``*`` (product) and ``+`` (concat);
* :class:`Campaign` — a space plus the model under test (a
  ``run(params) -> metrics`` function or a ``build(params) ->
  Simulator`` factory) and a root seed;
* :mod:`repro.campaign.core` — the one execution core (plan,
  pre-flight, retry/classification, failure artifacts) behind both the
  runner and :mod:`repro.service`;
* :class:`CampaignRunner` / :func:`run_campaign` — chunked
  ``ProcessPoolExecutor`` execution with deterministic per-run
  ``SeedSequence.spawn`` seeding, per-run timeouts, retry-once, and a
  content-addressed on-disk result cache;
* :class:`CampaignResults` — JSONL persistence plus the aggregation
  API (``to_table``, mean/percentile reductions, yield fractions).

Command line: ``python -m repro.campaign spec.py --workers 4``.
"""

from .cache import ResultCache, cache_key
from .core import RunTimeout, plan_records
from .loader import SpecError, load_spec, resolve_spec_ref, select_campaign
from .records import CampaignResults, JsonlAppender, RunRecord, canonical_json
from .runner import CampaignRunner, run_campaign
from .spec import (
    Campaign,
    Concat,
    Corners,
    FixedPoints,
    MonteCarlo,
    ParamSpace,
    Product,
    Sweep,
    code_version_for,
)

__all__ = [
    "Campaign",
    "CampaignResults",
    "CampaignRunner",
    "Concat",
    "Corners",
    "FixedPoints",
    "JsonlAppender",
    "MonteCarlo",
    "ParamSpace",
    "Product",
    "ResultCache",
    "RunRecord",
    "RunTimeout",
    "SpecError",
    "Sweep",
    "cache_key",
    "canonical_json",
    "code_version_for",
    "load_spec",
    "plan_records",
    "resolve_spec_ref",
    "run_campaign",
    "select_campaign",
]
